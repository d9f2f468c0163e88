//! The wire contract, byte for byte: every `Request` and `Response`
//! variant encodes to exactly the line recorded in
//! `fixtures/wire_golden.txt`, and a sweep of damaged lines decodes to
//! exactly the recorded verdict.
//!
//! The fixture has two parts:
//!
//! - **`line`**: the canonical encoding of every variant, each optional
//!   field both absent and present, every tag of the five tag enums,
//!   JSON-hostile strings and 2^53 − 1 integers. Requests also get their
//!   `req_id`-tagged line (responses have no tagged form).
//! - **`sweep`**: starting from one full line per variant, every
//!   top-level field, every field of a nested object and the first
//!   element of every array is replaced by each of [`JUNK`] (and every
//!   field is also removed). Each damaged line records `ok <re-encoded
//!   line>` or `err <kind>`. Two hand-written lines in the legacy flat
//!   budget spelling are swept the same way.
//!
//! On a mismatch the test writes what the codec produced to
//! `<target>/tmp/wire_golden.txt` and names the first differing line; a
//! deliberate wire change is reviewed by diffing that file against the
//! fixture and copying it over.

use std::fmt::Write as _;

use chop_core::prelude::{CacheStats, Completion, Heuristic, MoveKind};
use chop_service::json::{self, Value};
use chop_service::{
    BudgetEnvelope, ErrorKind, ExploreParams, MoveSummary, OpenParams, OptimizeParams,
    OptimizeSummary, Request, Response, Role, RunSummary, ServiceError, PROTOCOL_VERSION,
};

const FIXTURE: &str = include_str!("fixtures/wire_golden.txt");

/// The largest integer a JSON double represents exactly.
const MAX_SAFE: u64 = (1 << 53) - 1;

/// Text that stresses the escaper: quotes, backslashes, every class of
/// control character, multi-byte UTF-8 and JSON punctuation.
const HOSTILE: &str = "q\"b\\s/n\nr\rt\tz\u{0}e\u{1b}d\u{7f} π 🦀 {}[],:";

/// The values every sweep point is replaced with.
const JUNK: [&str; 9] =
    ["null", "\"x\"", "-1", "1.5", "4294967296", "[]", "[1,2,3]", "{}", "true"];

fn run(heuristic: Heuristic, completion: Completion) -> RunSummary {
    RunSummary {
        heuristic,
        digest: "h=I;trials=9;feasible=2".into(),
        trials: 9,
        feasible_trials: 4,
        feasible: 2,
        completion,
        degraded: completion == Completion::DegradedToIterative,
        elapsed_ms: 1.25,
        predictor_calls: 2,
        cache_hits: 1,
        cache_misses: 2,
        subtrees_skipped: 3,
        combinations_skipped: MAX_SAFE,
    }
}

fn optimize_summary(completion: Completion, moves: Vec<MoveSummary>) -> OptimizeSummary {
    OptimizeSummary {
        digest: "opt;completion=Complete;".into(),
        feasible: completion == Completion::Complete,
        initial_score: 1e18,
        final_score: 61_252.5,
        evaluations: 17,
        passes: 3,
        kicks: 1,
        completion,
        moves,
        run: run(Heuristic::Enumeration, completion),
    }
}

fn gain_and_kick() -> Vec<MoveSummary> {
    vec![
        MoveSummary { nodes: vec![4], from: 0, to: 2, pass: 1, kind: MoveKind::Gain },
        MoveSummary { nodes: vec![1, 2], from: 2, to: 1, pass: 2, kind: MoveKind::Kick },
    ]
}

/// Every request sample; `true` marks the one line per variant the sweep
/// damages.
fn requests() -> Vec<(&'static str, Request, bool)> {
    let s = || "s".to_owned();
    vec![
        ("ping", Request::Ping, true),
        ("open.min", Request::Open { session: s(), params: OpenParams::default() }, false),
        (
            "open.full",
            Request::Open {
                session: s(),
                params: OpenParams {
                    spec: "x = input 16\ny = output x\n".into(),
                    partitions: 3,
                    chips: Some(4),
                    package_pins: 64,
                    performance_ns: 12_500.5,
                    delay_ns: 0.1,
                    multi_cycle: false,
                },
            },
            true,
        ),
        (
            "open.hostile",
            Request::Open {
                session: HOSTILE.into(),
                params: OpenParams {
                    spec: HOSTILE.into(),
                    partitions: u32::MAX,
                    chips: Some(u32::MAX),
                    performance_ns: 1e21,
                    delay_ns: 1e-7,
                    ..OpenParams::default()
                },
            },
            false,
        ),
        (
            "explore.default",
            Request::Explore { session: s(), params: ExploreParams::default() },
            false,
        ),
        (
            "explore.deadline",
            Request::Explore {
                session: s(),
                params: ExploreParams {
                    heuristic: Heuristic::Enumeration,
                    budget: BudgetEnvelope { deadline_ms: Some(MAX_SAFE), max_trials: None },
                    jobs: None,
                },
            },
            false,
        ),
        (
            "explore.trials",
            Request::Explore {
                session: s(),
                params: ExploreParams {
                    heuristic: Heuristic::Iterative,
                    budget: BudgetEnvelope { deadline_ms: None, max_trials: Some(7) },
                    jobs: Some(u32::MAX),
                },
            },
            false,
        ),
        (
            "explore.full",
            Request::Explore {
                session: s(),
                params: ExploreParams {
                    heuristic: Heuristic::Enumeration,
                    budget: BudgetEnvelope { deadline_ms: Some(250), max_trials: Some(9) },
                    jobs: Some(4),
                },
            },
            true,
        ),
        ("repartition", Request::Repartition { session: s(), node: 3, to: 0 }, true),
        (
            "repartition.max",
            Request::Repartition { session: s(), node: u32::MAX, to: u32::MAX },
            false,
        ),
        (
            "optimize.default",
            Request::Optimize { session: s(), params: OptimizeParams::default() },
            false,
        ),
        (
            "optimize.full",
            Request::Optimize {
                session: s(),
                params: OptimizeParams {
                    seed: 42,
                    budget: BudgetEnvelope { deadline_ms: Some(100), max_trials: Some(64) },
                    heuristic: Heuristic::Enumeration,
                    kicks: Some(1),
                    kick_moves: Some(2),
                    jobs: Some(2),
                    pinned: vec![0, 7],
                    groups: vec![vec![1, 2], vec![9]],
                    exclusions: vec![(3, 4)],
                },
            },
            true,
        ),
        (
            "optimize.edge",
            Request::Optimize {
                session: s(),
                params: OptimizeParams {
                    seed: MAX_SAFE,
                    budget: BudgetEnvelope { deadline_ms: None, max_trials: Some(MAX_SAFE) },
                    groups: vec![vec![]],
                    exclusions: vec![(u32::MAX, 0), (5, 5)],
                    ..OptimizeParams::default()
                },
            },
            false,
        ),
        ("apply_moves.empty", Request::ApplyMoves { session: s(), moves: vec![] }, false),
        (
            "apply_moves",
            Request::ApplyMoves { session: s(), moves: vec![(3, 1), (u32::MAX, 0)] },
            true,
        ),
        (
            "set_constraints",
            Request::SetConstraints {
                session: s(),
                performance_ns: 20_000.0,
                delay_ns: 25_000.5,
            },
            true,
        ),
        ("stats.global", Request::Stats { session: None }, false),
        ("stats.session", Request::Stats { session: Some(s()) }, true),
        ("close", Request::Close { session: s() }, true),
        ("close.hostile", Request::Close { session: HOSTILE.into() }, false),
        ("shutdown", Request::Shutdown, true),
        (
            "repl_apply.pre_epoch",
            Request::ReplApply { seq: 0, record: String::new(), epoch: 0, primary: None },
            false,
        ),
        (
            "repl_apply",
            Request::ReplApply {
                seq: 7,
                record: r#"{"v":1,"type":"close","session":"a"}"#.into(),
                epoch: 3,
                primary: Some("10.0.0.1:1991".into()),
            },
            true,
        ),
        (
            "repl_apply.max",
            Request::ReplApply {
                seq: MAX_SAFE,
                record: HOSTILE.into(),
                epoch: MAX_SAFE,
                primary: Some(HOSTILE.into()),
            },
            false,
        ),
        (
            "repl_snapshot.empty",
            Request::ReplSnapshot { seq: 0, records: vec![], epoch: 0, primary: None },
            false,
        ),
        (
            "repl_snapshot",
            Request::ReplSnapshot {
                seq: 12,
                records: vec![r#"{"v":1,"type":"close","session":"a"}"#.into(), HOSTILE.into()],
                epoch: 2,
                primary: Some("10.0.0.1:1991".into()),
            },
            true,
        ),
        ("promote", Request::Promote, true),
        ("role_change.primary", Request::RoleChange { epoch: 4, role: Role::Primary }, true),
        ("role_change.fenced", Request::RoleChange { epoch: 4, role: Role::Fenced }, false),
        (
            "role_change.standby",
            Request::RoleChange { epoch: MAX_SAFE, role: Role::Standby },
            false,
        ),
        ("add_pair", Request::AddPair { pair: "10.0.0.3:1991,10.0.0.4:1991".into() }, true),
        ("remove_pair", Request::RemovePair { pair: "10.0.0.3:1991".into() }, true),
        ("router_status", Request::RouterStatus, true),
        ("export", Request::Export { session: s() }, true),
        ("import.empty", Request::Import { records: vec![] }, false),
        (
            "import",
            Request::Import {
                records: vec![
                    r#"{"v":1,"type":"open","session":"a","spec":""}"#.into(),
                    HOSTILE.into(),
                ],
            },
            true,
        ),
    ]
}

/// Every response sample; `true` marks the one line per variant the
/// sweep damages.
fn responses() -> Vec<(&'static str, Response, bool)> {
    let s = || "s".to_owned();
    let mut out = vec![
        (
            "pong.pre_epoch",
            Response::Pong { version: PROTOCOL_VERSION, role: None, epoch: 0, peer: None },
            false,
        ),
        (
            "pong",
            Response::Pong {
                version: PROTOCOL_VERSION,
                role: Some(Role::Standby),
                epoch: 5,
                peer: Some("10.0.0.2:1991".into()),
            },
            true,
        ),
        (
            "pong.role_only",
            Response::Pong {
                version: PROTOCOL_VERSION,
                role: Some(Role::Fenced),
                epoch: MAX_SAFE,
                peer: None,
            },
            false,
        ),
        (
            "pong.peer_without_role",
            Response::Pong {
                version: PROTOCOL_VERSION,
                role: None,
                epoch: 3,
                peer: Some(HOSTILE.into()),
            },
            false,
        ),
        ("opened", Response::Opened { session: s(), partitions: 2 }, true),
        (
            "opened.max",
            Response::Opened { session: HOSTILE.into(), partitions: MAX_SAFE },
            false,
        ),
        (
            "explored",
            Response::Explored {
                session: s(),
                run: run(Heuristic::Iterative, Completion::Complete),
            },
            true,
        ),
    ];
    for (label, completion) in [
        ("explored.truncated_deadline", Completion::TruncatedDeadline),
        ("explored.truncated_trials", Completion::TruncatedTrials),
        ("explored.degraded_to_iterative", Completion::DegradedToIterative),
    ] {
        out.push((
            label,
            Response::Explored { session: s(), run: run(Heuristic::Enumeration, completion) },
            false,
        ));
    }
    out.extend([
        ("repartitioned", Response::Repartitioned { session: s(), node: 3, to: 1 }, true),
        (
            "optimized",
            Response::Optimized {
                session: s(),
                result: Box::new(optimize_summary(Completion::Complete, gain_and_kick())),
            },
            true,
        ),
        (
            "optimized.no_moves",
            Response::Optimized {
                session: s(),
                result: Box::new(optimize_summary(Completion::TruncatedTrials, vec![])),
            },
            false,
        ),
        ("moves_applied", Response::MovesApplied { session: s(), moves: 2 }, true),
        (
            "constraints_set",
            Response::ConstraintsSet {
                session: s(),
                performance_ns: 12_500.0,
                delay_ns: 8_000.25,
            },
            true,
        ),
        (
            "stats",
            Response::Stats {
                sessions: vec!["a".into(), "b".into()],
                cache: CacheStats {
                    hits: 5,
                    misses: 3,
                    evictions: 0,
                    entries: 3,
                    bytes: MAX_SAFE,
                },
                shard_entries: vec![2, 0, 1, 0],
                last_run: Some(run(Heuristic::Iterative, Completion::Complete)),
            },
            true,
        ),
        (
            "stats.empty",
            Response::Stats {
                sessions: vec![],
                cache: CacheStats::default(),
                shard_entries: vec![],
                last_run: None,
            },
            false,
        ),
        ("closed", Response::Closed { session: s() }, true),
        ("shutting_down", Response::ShuttingDown, true),
        ("repl_ack", Response::ReplAck { seq: 99 }, true),
        ("promoted", Response::Promoted { sessions: 3, epoch: 7 }, true),
        ("promoted.pre_epoch", Response::Promoted { sessions: 0, epoch: 0 }, false),
        ("busy", Response::Busy { inflight: 8, max_inflight: 8, retry_after_ms: 75 }, true),
        (
            "busy.no_hint",
            Response::Busy { inflight: MAX_SAFE, max_inflight: 1, retry_after_ms: 0 },
            false,
        ),
        (
            "pair_added",
            Response::PairAdded { pairs: vec!["a:1 active".into(), "b:2".into()] },
            true,
        ),
        ("pair_removed", Response::PairRemoved { pairs: vec!["a:1 active".into()] }, true),
        ("pair_removed.empty", Response::PairRemoved { pairs: vec![] }, false),
        (
            "router_status",
            Response::RouterStatus { pairs: vec!["a:1 active, standby b:2 (armed)".into()] },
            true,
        ),
        (
            "exported",
            Response::Exported {
                session: s(),
                records: vec![r#"{"v":1,"type":"open","session":"a","spec":""}"#.into()],
            },
            true,
        ),
        ("imported", Response::Imported { session: s(), records: 4 }, true),
        (
            "error",
            Response::Error(
                ServiceError::new(ErrorKind::Standby, "standby refuses mutations")
                    .with_redirect(Some("10.0.0.1:1991".into()), 2),
            ),
            true,
        ),
        (
            "error.fenced_no_primary",
            Response::Error(
                ServiceError::new(ErrorKind::Fenced, HOSTILE).with_redirect(None, MAX_SAFE),
            ),
            false,
        ),
    ]);
    for (label, kind) in [
        ("error.protocol", ErrorKind::Protocol),
        ("error.unknown_session", ErrorKind::UnknownSession),
        ("error.session_exists", ErrorKind::SessionExists),
        ("error.spec", ErrorKind::Spec),
        ("error.engine", ErrorKind::Engine),
        ("error.internal", ErrorKind::Internal),
        ("error.standby", ErrorKind::Standby),
        ("error.fenced", ErrorKind::Fenced),
    ] {
        out.push((label, Response::Error(ServiceError::new(kind, "m")), false));
    }
    out
}

/// Decode-only lines in the pre-envelope spelling: the budget as flat
/// top-level fields instead of a nested `"budget"` object.
const LEGACY: [(&str, &str); 2] = [
    (
        "explore.flat_budget",
        r#"{"v":1,"type":"explore","session":"s","deadline_ms":250,"max_trials":9}"#,
    ),
    ("optimize.flat_budget", r#"{"v":1,"type":"optimize","session":"s","max_trials":5}"#),
];

/// Decodes `line` and re-encodes what came out, or names the error kind.
type Verdict = fn(&str) -> String;

fn request_verdict(line: &str) -> String {
    match Request::decode_tagged(line) {
        Ok((request, req_id)) => format!("ok {}", request.encode_tagged(req_id.as_deref())),
        Err(e) => format!("err {:?}", e.kind),
    }
}

fn response_verdict(line: &str) -> String {
    match Response::decode(line) {
        Ok(response) => format!("ok {}", response.encode()),
        Err(e) => format!("err {:?}", e.kind),
    }
}

/// Appends one verdict per damaged copy of `root` for every child of the
/// node at `path` (`shown` is that node's printed path), then recurses
/// into each child. A path is the index of an object field or array
/// element at each level; arrays are entered only at their first element.
fn sweep(
    out: &mut String,
    label: &str,
    root: &Value,
    path: &mut Vec<usize>,
    shown: &str,
    verdict: Verdict,
) {
    let (children, is_object): (Vec<String>, bool) = match node(&mut root.clone(), path) {
        Value::Obj(pairs) if shown.is_empty() => {
            (pairs.iter().map(|(k, _)| k.clone()).collect(), true)
        }
        Value::Obj(pairs) => {
            (pairs.iter().map(|(k, _)| format!("{shown}.{k}")).collect(), true)
        }
        Value::Arr(items) if !items.is_empty() => (vec![format!("{shown}[0]")], false),
        _ => (Vec::new(), false),
    };
    for (i, child) in children.iter().enumerate() {
        path.push(i);
        for junk in JUNK {
            let mut damaged = root.clone();
            *node(&mut damaged, path) = json::parse(junk).expect("junk values are valid JSON");
            let _ =
                writeln!(out, "sweep {label} {child}={junk} {}", verdict(&damaged.to_string()));
        }
        if is_object {
            let mut damaged = root.clone();
            if let Value::Obj(pairs) = node(&mut damaged, &path[..path.len() - 1]) {
                pairs.remove(i);
            }
            let _ = writeln!(out, "sweep {label} {child}=- {}", verdict(&damaged.to_string()));
        }
        sweep(out, label, root, path, child, verdict);
        path.pop();
    }
}

/// The node of `v` at `path`.
fn node<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Obj(pairs) => &mut pairs[i].1,
        Value::Arr(items) => &mut items[i],
        _ => unreachable!("sweep paths exist"),
    })
}

fn render_contract() -> String {
    let mut out = String::new();
    let mut swept = Vec::new();
    for (label, request, sweep_it) in requests() {
        let line = request.encode();
        let tagged = request.encode_tagged(Some("r-\"42\"\u{1}🦀"));
        let _ = writeln!(out, "line request {label} {line}");
        let _ = writeln!(out, "line request {label}+req_id {tagged}");
        if sweep_it {
            swept.push((label, tagged, request_verdict as Verdict));
        }
    }
    for (label, response, sweep_it) in responses() {
        let line = response.encode();
        let _ = writeln!(out, "line response {label} {line}");
        if sweep_it {
            swept.push((label, line, response_verdict as Verdict));
        }
    }
    for (label, line) in LEGACY {
        swept.push((label, line.to_owned(), request_verdict as Verdict));
    }
    for (label, line, verdict) in swept {
        let root = json::parse(&line).expect("encoded lines parse");
        let _ = writeln!(out, "sweep {label} . {}", verdict(&line));
        sweep(&mut out, label, &root, &mut Vec::new(), "", verdict);
    }
    out
}

#[test]
fn wire_bytes_match_the_golden_fixture() {
    let actual = render_contract();
    if actual == FIXTURE {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire_golden.txt");
    std::fs::write(&dump, &actual).expect("write the actual contract");
    let first = actual
        .lines()
        .zip(FIXTURE.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
    panic!(
        "wire contract changed at fixture line {}:\n  fixture: {:?}\n  actual:  {:?}\n\
         full output written to {}",
        first + 1,
        FIXTURE.lines().nth(first),
        actual.lines().nth(first),
        dump.display()
    );
}
