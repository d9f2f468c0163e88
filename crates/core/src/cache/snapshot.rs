//! Versioned, CRC'd binary snapshots of the prediction cache.
//!
//! A snapshot lets a restarted (or failed-over) `chop serve` process
//! warm-start its [`PredictionCache`] instead of
//! re-predicting every partition from scratch. The file format mirrors
//! the discipline of the session journal:
//!
//! ```text
//! CHOPCS1\n                                 ← 8-byte magic + version
//! [u32 len][u32 crc32][payload: len bytes]  ← one record per cache entry
//! [u32 len][u32 crc32][payload]
//! ...
//! ```
//!
//! All integers are little-endian; the CRC (IEEE 802.3, the same
//! polynomial as the journal) covers the payload only. Each payload is a
//! self-contained cache entry: the content-addressed fingerprint, the
//! prediction statistics and every pruned [`PredictedDesign`], encoded
//! field by field (the offline build has no serialization dependency, so
//! the codec is hand-rolled and private to this file).
//!
//! # Recovery rules
//!
//! Loading is **lenient about the tail and strict about everything
//! else**: a missing file warms nothing, a wrong magic loads nothing
//! (the file is not ours or from an incompatible version), and a record
//! that is short, fails its CRC, or does not decode ends the load — every
//! complete record *before* it is kept. A torn tail is exactly what a
//! crash mid-write produces, and dropping it costs only a few re-
//! predictions. Writes never tear the *file* itself: the snapshot is
//! written to a temp file, fsync'd, atomically renamed over the target,
//! and the directory fsync'd, so readers see either the old snapshot or
//! the new one, never a hybrid.
//!
//! Restored entries are inserted through the normal
//! [`insert`](super::PredictionCache::insert) path, so a snapshot larger
//! than the cache capacity simply evicts down to the bound, and digests
//! are unaffected by warm-starting (the cache memoizes pure predictions).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

use chop_bad::area::PlaSpec;
use chop_bad::prune::PredictionStats;
use chop_bad::{DesignDetail, DesignStyle, PredictedDesign};
use chop_dfg::OpClass;
use chop_library::ModuleSet;
use chop_sched::ResourceMap;
use chop_stat::units::{Bits, Cycles};
use chop_stat::Estimate;

use super::PredictionCache;

/// Magic + format version prefix of a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CHOPCS1\n";

/// Outcome of writing a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotWritten {
    /// Cache entries persisted.
    pub entries: usize,
    /// Bytes of the finished snapshot file.
    pub bytes: u64,
}

/// Outcome of loading a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotLoaded {
    /// Complete records restored into the cache.
    pub entries: usize,
    /// Whether the load stopped early at a torn or corrupt tail record
    /// (the entries before it were still restored).
    pub truncated: bool,
}

/// Writes every resident cache entry to `path` atomically
/// (tmp + fsync + rename + directory fsync).
///
/// # Errors
///
/// Returns any I/O error from creating, writing, syncing or renaming the
/// temp file. On error the target file is left untouched.
pub fn write_snapshot(path: &Path, cache: &PredictionCache) -> io::Result<SnapshotWritten> {
    let export = cache.export();
    let mut body = Vec::with_capacity(64 * export.len() + SNAPSHOT_MAGIC.len());
    body.extend_from_slice(SNAPSHOT_MAGIC);
    for (key, designs, stats) in &export {
        let payload = encode_entry(*key, designs, *stats);
        let len = u32::try_from(payload.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "snapshot record exceeds 4 GiB")
        })?;
        body.extend_from_slice(&len.to_le_bytes());
        body.extend_from_slice(&crc32(&payload).to_le_bytes());
        body.extend_from_slice(&payload);
    }

    let tmp = path.with_extension("tmp");
    {
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        file.write_all(&body)?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Make the rename itself durable. Directory fsync can be
        // unsupported on exotic filesystems; the rename already happened,
        // so treat that as best-effort.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(SnapshotWritten { entries: export.len(), bytes: body.len() as u64 })
}

/// Loads a snapshot from `path` into `cache` (through the normal insert
/// path, so capacity bounds apply). A missing file restores nothing and
/// is not an error; see the [module docs](self) for the recovery rules.
///
/// # Errors
///
/// Returns an I/O error only if the file exists but cannot be read.
pub fn load_snapshot(path: &Path, cache: &PredictionCache) -> io::Result<SnapshotLoaded> {
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut data)?;
        }
        Err(err) if err.kind() == io::ErrorKind::NotFound => {
            return Ok(SnapshotLoaded::default());
        }
        Err(err) => return Err(err),
    }
    if data.len() < SNAPSHOT_MAGIC.len() || &data[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        // Not a snapshot we understand; warm nothing rather than guess.
        return Ok(SnapshotLoaded { entries: 0, truncated: !data.is_empty() });
    }

    let mut out = SnapshotLoaded::default();
    let mut at = SNAPSHOT_MAGIC.len();
    while at < data.len() {
        let Some(header) = data.get(at..at + 8) else {
            out.truncated = true;
            break;
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let Some(payload) = data.get(at + 8..at + 8 + len) else {
            out.truncated = true;
            break;
        };
        if crc32(payload) != crc {
            out.truncated = true;
            break;
        }
        let Some((key, designs, stats)) = decode_entry(payload) else {
            out.truncated = true;
            break;
        };
        cache.insert(key, designs.into(), stats);
        out.entries += 1;
        at += 8 + len;
    }
    Ok(out)
}

/// IEEE 802.3 CRC-32 (the polynomial the session journal uses), computed
/// bitwise — snapshots are written rarely and read once at startup, so a
/// table is not worth the bytes.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------
// Entry codec (private): field-by-field little-endian encoding.
// ---------------------------------------------------------------------

fn encode_entry(key: u64, designs: &[PredictedDesign], stats: PredictionStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 128 * designs.len());
    put_u64(&mut out, key);
    put_u64(&mut out, stats.total as u64);
    put_u64(&mut out, stats.feasible as u64);
    put_u64(&mut out, stats.non_inferior as u64);
    put_u32(&mut out, designs.len() as u32);
    for design in designs {
        encode_design(&mut out, design);
    }
    out
}

fn encode_design(out: &mut Vec<u8>, design: &PredictedDesign) {
    out.push(match design.style() {
        DesignStyle::Pipelined => 0,
        DesignStyle::NonPipelined => 1,
    });
    put_u32(out, design.module_set().len() as u32);
    for (class, name) in design.module_set().iter() {
        out.push(class_index(class));
        put_u32(out, name.len() as u32);
        out.extend_from_slice(name.as_bytes());
    }
    let allocation: Vec<(OpClass, usize)> = design.allocation().iter().collect();
    put_u32(out, allocation.len() as u32);
    for (class, count) in allocation {
        out.push(class_index(class));
        put_u64(out, count as u64);
    }
    put_u64(out, design.initiation_interval().value());
    put_u64(out, design.latency().value());
    put_estimate(out, design.area());
    put_estimate(out, design.clock_overhead());
    put_estimate(out, design.power());
    let detail = design.detail();
    put_u64(out, detail.stages);
    put_u64(out, detail.register_bits.value());
    put_u64(out, detail.mux_count);
    put_u32(out, detail.controller.inputs());
    put_u32(out, detail.controller.outputs());
    put_u32(out, detail.controller.terms());
    put_u32(out, design.memory_bandwidth().len() as u32);
    for (&block, &accesses) in design.memory_bandwidth() {
        put_u32(out, block);
        put_u64(out, accesses);
    }
}

fn decode_entry(payload: &[u8]) -> Option<(u64, Vec<PredictedDesign>, PredictionStats)> {
    let mut at = Cursor { data: payload, at: 0 };
    let key = at.u64()?;
    let stats = PredictionStats {
        total: usize::try_from(at.u64()?).ok()?,
        feasible: usize::try_from(at.u64()?).ok()?,
        non_inferior: usize::try_from(at.u64()?).ok()?,
    };
    let n = at.u32()? as usize;
    // Cap the pre-allocation by what the payload could possibly hold so a
    // corrupt count cannot balloon memory before the decode fails.
    let mut designs = Vec::with_capacity(n.min(payload.len() / 8 + 1));
    for _ in 0..n {
        designs.push(decode_design(&mut at)?);
    }
    // Trailing garbage means the record was not produced by this encoder.
    if at.at != payload.len() {
        return None;
    }
    Some((key, designs, stats))
}

fn decode_design(at: &mut Cursor<'_>) -> Option<PredictedDesign> {
    let style = match at.u8()? {
        0 => DesignStyle::Pipelined,
        1 => DesignStyle::NonPipelined,
        _ => return None,
    };
    let n_modules = at.u32()? as usize;
    let mut choices = Vec::with_capacity(n_modules.min(OpClass::ALL.len()));
    for _ in 0..n_modules {
        let class = class_from_index(at.u8()?)?;
        let len = at.u32()? as usize;
        let name = std::str::from_utf8(at.bytes(len)?).ok()?;
        choices.push((class, name.to_owned()));
    }
    let n_alloc = at.u32()? as usize;
    let mut allocation = ResourceMap::new();
    for _ in 0..n_alloc {
        let class = class_from_index(at.u8()?)?;
        let count = usize::try_from(at.u64()?).ok()?;
        allocation.set(class, count);
    }
    let ii = at.u64()?;
    let latency = at.u64()?;
    // PredictedDesign::new panics on these; a corrupt record must fail
    // the decode instead.
    if ii < 1 || ii > latency {
        return None;
    }
    let area = at.estimate()?;
    let clock_overhead = at.estimate()?;
    let power = at.estimate()?;
    let stages = at.u64()?;
    let register_bits = at.u64()?;
    let mux_count = at.u64()?;
    let controller = PlaSpec::new(at.u32()?, at.u32()?, at.u32()?);
    let n_mem = at.u32()? as usize;
    let mut memory_bandwidth = BTreeMap::new();
    for _ in 0..n_mem {
        let block = at.u32()?;
        let accesses = at.u64()?;
        memory_bandwidth.insert(block, accesses);
    }
    Some(PredictedDesign::new(
        style,
        ModuleSet::from_choices(choices),
        allocation,
        Cycles::new(ii),
        Cycles::new(latency),
        area,
        clock_overhead,
        power,
        DesignDetail { stages, register_bits: Bits::new(register_bits), mux_count, controller },
        memory_bandwidth,
    ))
}

fn class_index(class: OpClass) -> u8 {
    OpClass::ALL.iter().position(|c| *c == class).expect("OpClass::ALL covers every class")
        as u8
}

fn class_from_index(index: u8) -> Option<OpClass> {
    OpClass::ALL.get(index as usize).copied()
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_estimate(out: &mut Vec<u8>, e: Estimate) {
    out.extend_from_slice(&e.lo().to_le_bytes());
    out.extend_from_slice(&e.likely().to_le_bytes());
    out.extend_from_slice(&e.hi().to_le_bytes());
}

struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn bytes(&mut self, n: usize) -> Option<&[u8]> {
        let slice = self.data.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.data.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }

    fn estimate(&mut self) -> Option<Estimate> {
        let lo = self.f64()?;
        let likely = self.f64()?;
        let hi = self.f64()?;
        // Estimate::new rejects non-finite or mis-ordered triplets; a
        // corrupt record fails the decode rather than panicking.
        Estimate::new(lo, likely, hi).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(ii: u64, area: f64) -> PredictedDesign {
        PredictedDesign::new(
            DesignStyle::Pipelined,
            ModuleSet::from_choices([(OpClass::Addition, "add_fast")]),
            [(OpClass::Addition, 2usize)].into_iter().collect(),
            Cycles::new(ii),
            Cycles::new(ii + 5),
            Estimate::new(area - 1.0, area, area + 2.0).unwrap(),
            Estimate::exact(12.5),
            Estimate::exact(80.0),
            DesignDetail {
                stages: ii + 5,
                register_bits: Bits::new(48),
                mux_count: 12,
                controller: PlaSpec::new(4, 6, 9),
            },
            [(3u32, 7u64)].into_iter().collect(),
        )
    }

    #[test]
    fn entry_codec_roundtrips() {
        let designs = vec![design(2, 100.0), design(4, 220.0)];
        let stats = PredictionStats { total: 9, feasible: 5, non_inferior: 2 };
        let payload = encode_entry(42, &designs, stats);
        let (key, decoded, got) = decode_entry(&payload).expect("decode");
        assert_eq!(key, 42);
        assert_eq!(got, stats);
        assert_eq!(decoded, designs);
    }

    #[test]
    fn corrupt_payload_fails_decode_not_panics() {
        let payload = encode_entry(1, &[design(2, 100.0)], PredictionStats::default());
        for at in 0..payload.len() {
            let mut bad = payload.clone();
            bad[at] ^= 0xFF;
            // Any single-byte corruption either still decodes (harmless
            // field change) or returns None — never panics.
            let _ = decode_entry(&bad);
        }
        // Truncations at every length must also fail gracefully.
        for len in 0..payload.len() {
            assert!(decode_entry(&payload[..len]).is_none());
        }
    }

    #[test]
    fn crc_matches_known_vector() {
        // The standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn snapshot_file_roundtrips_and_recovers_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "chop-snapshot-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");

        let cache = PredictionCache::with_config(64, 4);
        for key in 0..10u64 {
            cache.insert(
                key,
                vec![design(2 + key, 100.0 + key as f64)].into(),
                PredictionStats { total: 3, feasible: 2, non_inferior: 1 },
            );
        }
        let written = write_snapshot(&path, &cache).expect("write");
        assert_eq!(written.entries, 10);

        let warm = PredictionCache::with_config(64, 2);
        let loaded = load_snapshot(&path, &warm).expect("load");
        assert_eq!((loaded.entries, loaded.truncated), (10, false));
        for key in 0..10u64 {
            let (designs, _) = warm.get(key).expect("restored");
            assert_eq!(designs[0].initiation_interval().value(), 2 + key);
        }

        // Tear the tail: drop the last 5 bytes. Every complete record
        // before the tear must still load.
        let mut data = std::fs::read(&path).unwrap();
        data.truncate(data.len() - 5);
        std::fs::write(&path, &data).unwrap();
        let torn = PredictionCache::with_config(64, 2);
        let loaded = load_snapshot(&path, &torn).expect("load torn");
        assert_eq!(loaded.entries, 9);
        assert!(loaded.truncated);

        // Wrong magic loads nothing.
        std::fs::write(&path, b"NOTASNAP0000").unwrap();
        let none = PredictionCache::new();
        let loaded = load_snapshot(&path, &none).expect("load foreign");
        assert_eq!(loaded.entries, 0);
        assert!(loaded.truncated);
        assert!(none.is_empty());

        // Missing file restores nothing, not an error.
        let missing = load_snapshot(&dir.join("absent.snap"), &none).expect("missing");
        assert_eq!(missing, SnapshotLoaded::default());

        std::fs::remove_dir_all(&dir).ok();
    }
}
