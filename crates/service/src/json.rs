//! A minimal JSON value model, parser and writer for the wire protocol.
//!
//! The workspace builds offline with no serialization dependency, so the
//! service cannot lean on a JSON crate. This module implements exactly the
//! JSON subset the newline-delimited protocol needs: the six value kinds,
//! UTF-8 strings with full escape handling (including `\uXXXX` and
//! surrogate pairs), and a writer whose output never contains a raw
//! newline — one encoded message is always one line.
//!
//! Numbers are kept as `f64`. Values that are mathematically integral are
//! written without a fractional part (`3`, not `3.0`); everything else
//! uses Rust's shortest round-trip float formatting, so
//! `parse(&v.to_string())` reproduces `v` bit-for-bit for every value
//! this protocol produces.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Pairs keep insertion order; keys are not deduplicated
    /// by the parser (last one wins on lookup).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object (`None` for non-objects and missing
    /// keys). The *last* occurrence wins, matching common JSON parsers.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if this is a number that is
    /// mathematically an integer in `u64` range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes this value onto `out` as compact single-line JSON.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_number(*n, out),
            Value::Str(s) => write_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// A convenience constructor for object values.
#[must_use]
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn write_number(n: f64, out: &mut String) {
    use std::fmt::Write as _;
    if !n.is_finite() {
        // JSON has no NaN/Infinity; the protocol never produces them, but
        // the writer must still emit *valid* JSON for arbitrary input.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        let _ = write!(out, "{n:.0}");
    } else {
        // Rust's float Display is shortest-round-trip: parsing the text
        // back yields the identical f64.
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first malformed byte.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

/// Maximum container nesting the parser accepts. The parser recurses
/// once per `[`/`{` level, so without a cap a hostile line of repeated
/// open brackets overflows the thread stack — an abort that no
/// `catch_unwind` can contain. 128 levels is far beyond anything the
/// protocol produces.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { offset: self.pos, message: message.to_owned() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {text:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Counts one more container level, rejecting input past
    /// [`MAX_DEPTH`]. Error paths never restore the counter — the whole
    /// parse aborts — so only success returns pair this with `leave`.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.leave();
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.leave();
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.leave();
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.leave();
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>().map(Value::Num).map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the run of plain bytes up to the next quote
                    // or backslash in one step, so a string costs time
                    // linear in its length. Both stops are ASCII and the
                    // input is a &str, so the run is whole characters.
                    let run = &self.bytes[self.pos..];
                    let len =
                        run.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(run.len());
                    let text = std::str::from_utf8(&run[..len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(text);
                    self.pos += len;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u`, combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                self.expect(b'u')?;
                let second = self.hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let c = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "3.5", "1e3"] {
            let v = parse(text).unwrap();
            let back = parse(&v.to_string()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Value::Num(42.0).to_string(), "42");
        assert_eq!(Value::Num(-3.0).to_string(), "-3");
        assert_eq!(Value::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let tricky = "line1\nline2\t\"quoted\" \\slash\\ u\u{1}z — π 🦀";
        let v = Value::Str(tricky.to_owned());
        let text = v.to_string();
        assert!(!text.contains('\n'), "writer output must be single-line");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_parse() {
        assert_eq!(parse(r#""\ud83e\udd80""#).unwrap(), Value::Str("🦀".into()));
        assert!(parse(r#""\ud83e""#).is_err());
        assert!(parse(r#""\udd80""#).is_err());
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2.5,{"b":null}],"c":"x","a":true}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        // Duplicate keys: last occurrence wins on lookup.
        assert_eq!(v.get("a"), Some(&Value::Bool(true)));
    }

    #[test]
    fn accessors_type_check() {
        let v = parse(r#"{"n":3,"s":"x","b":true,"a":[1],"f":2.5}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("n"), None);
    }

    #[test]
    fn malformed_inputs_report_offsets() {
        for bad in ["{", "[1,", "\"abc", "{\"a\"1}", "tru", "1 2", "{'a':1}", "\"\\q\""] {
            let err = parse(bad).unwrap_err();
            assert!(err.to_string().contains("byte"), "{bad}: {err}");
        }
        let err = parse("\"abc").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (4, "unterminated string"));
    }

    #[test]
    fn hostile_nesting_is_rejected_not_overflowed() {
        // Within the cap: parses fine (mixed arrays and objects).
        let deep = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep).is_ok());
        // One past the cap: a typed error, not a recursion blow-up.
        let over = format!("{}0{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).unwrap_err().to_string().contains("nesting"));
        // The classic attack: 100k unclosed open brackets must error
        // quickly instead of overflowing the stack (an uncatchable abort).
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(100_000)).is_err());
        // Sibling (non-nested) containers do not accumulate depth.
        let wide = format!("[{}0]", "[1],".repeat(10_000));
        assert!(parse(&wide).is_ok());
    }

    /// String decoding is linear in the string's length: a 1 MiB string
    /// took 16 s on a 2-vCPU host while each character re-validated the
    /// rest of the line.
    /// The bound holds on the optimised build only.
    #[cfg(not(debug_assertions))]
    #[test]
    fn one_mebibyte_string_decodes_in_under_a_second() {
        let body = "x".repeat(1 << 20);
        let line = format!(r#"{{"type":"ping","pad":"{body}"}}"#);
        let started = std::time::Instant::now();
        let v = parse(&line).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(v.get("pad").unwrap().as_str().map(str::len), Some(1 << 20));
        assert!(elapsed < std::time::Duration::from_secs(1), "took {elapsed:?}");
    }

    #[test]
    fn float_display_round_trips_exactly() {
        for n in [0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, 12_345.678_9] {
            let text = Value::Num(n).to_string();
            let Value::Num(back) = parse(&text).unwrap() else { panic!() };
            assert_eq!(n.to_bits(), back.to_bits(), "{text}");
        }
    }
}
