//! Journal round-trip properties: *any* sequence of mutating requests,
//! journaled and replayed, reproduces an identical `SessionManager` —
//! same session list, byte-identical explore digests — with or without
//! compaction. Plus deterministic recovery cases for a torn tail record
//! and CRC corruption, driven through the public manager API against an
//! on-disk journal mangled by hand (no fault-inject feature needed).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use chop_service::journal::JOURNAL_FILE;
use chop_service::{
    ExploreParams, OpenParams, Request, Response, ServiceError, SessionManager,
};
use proptest::collection;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

const SPECS: [&str; 2] = [
    "a = input 16\nb = input 16\np = mul a b\ns = add p a\ny = output s\n",
    "a = input 16\nb = input 16\nc = input 16\np = mul a b\nq = add b c\nr = sub p q\n\
     s = add r a\ny = output s\n",
];

const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chop-jprops-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One mutating request against a small fixed universe of session names
/// and specs. Invalid ops (unknown session, duplicate open, bad move)
/// are generated on purpose: failed mutations must not be journaled, so
/// replay equivalence has to hold through them.
#[derive(Debug, Clone)]
enum Op {
    Open { name: usize, spec: usize, partitions: u32 },
    Repartition { name: usize, node: u32, to: u32 },
    SetConstraints { name: usize, performance_ns: f64, delay_ns: f64 },
    Close { name: usize },
}

fn op() -> BoxedStrategy<Op> {
    prop_oneof![
        (0..NAMES.len(), 0..SPECS.len(), 1u32..4)
            .prop_map(|(name, spec, partitions)| Op::Open { name, spec, partitions }),
        (0..NAMES.len(), 0u32..8, 0u32..4).prop_map(|(name, node, to)| Op::Repartition {
            name,
            node,
            to
        }),
        (0..NAMES.len(), 1u32..4, 1u32..4).prop_map(|(name, p, d)| Op::SetConstraints {
            name,
            performance_ns: f64::from(p) * 20_000.0,
            delay_ns: f64::from(d) * 20_000.0,
        }),
        (0..NAMES.len()).prop_map(|name| Op::Close { name }),
    ]
    .boxed()
}

fn apply(mgr: &SessionManager, op: &Op) {
    let request = match op {
        Op::Open { name, spec, partitions } => Request::Open {
            session: NAMES[*name].into(),
            params: OpenParams {
                spec: SPECS[*spec].into(),
                partitions: *partitions,
                ..OpenParams::default()
            },
        },
        Op::Repartition { name, node, to } => {
            Request::Repartition { session: NAMES[*name].into(), node: *node, to: *to }
        }
        Op::SetConstraints { name, performance_ns, delay_ns } => Request::SetConstraints {
            session: NAMES[*name].into(),
            performance_ns: *performance_ns,
            delay_ns: *delay_ns,
        },
        Op::Close { name } => Request::Close { session: NAMES[*name].into() },
    };
    // Outcomes are intentionally ignored: failures must leave no trace
    // in the journal, successes must leave exactly one record.
    let _ = mgr.dispatch_tagged(&request, None);
}

/// An `open` of `name` on `SPECS[spec]` with the default parameters.
fn open(name: &str, spec: usize) -> Request {
    Request::Open {
        session: name.into(),
        params: OpenParams { spec: SPECS[spec].into(), ..OpenParams::default() },
    }
}

/// Dispatches `request` untagged, splitting an error response out.
fn send(mgr: &SessionManager, request: &Request) -> Result<Response, ServiceError> {
    match mgr.dispatch_tagged(request, None) {
        Response::Error(e) => Err(e),
        response => Ok(response),
    }
}

/// Sorted session names and their explore digests.
fn fingerprint(mgr: &SessionManager) -> Vec<(String, String)> {
    let (names, _, _) = mgr.stats(None).expect("stats");
    names
        .into_iter()
        .map(|name| {
            let digest = mgr.explore(&name, &ExploreParams::default()).expect("explore").digest;
            (name, digest)
        })
        .collect()
}

proptest! {
    // Each case explores every surviving session twice (before and after
    // recovery); keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_mutation_sequence_replays_to_identical_state(
        ops in collection::vec(op(), 0..12),
        snapshot_every in prop_oneof![Just(0usize), Just(2), Just(8)],
    ) {
        let dir = state_dir("seq");
        let before = {
            let (mgr, _) = SessionManager::recover(1, &dir, snapshot_every).expect("journal");
            for op in &ops {
                apply(&mgr, op);
            }
            fingerprint(&mgr)
            // Dropped with sessions open — the crash.
        };
        let (recovered, report) = SessionManager::recover(1, &dir, snapshot_every)
            .expect("recover");
        prop_assert_eq!(report.records_skipped, 0, "clean log must replay fully");
        prop_assert_eq!(report.sessions_restored, before.len());
        let after = fingerprint(&recovered);
        prop_assert_eq!(before, after, "replay must reproduce sessions and digests");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crash mid-append: the journal's last record is physically cut short.
/// Recovery keeps everything before it and warns about the tail.
#[test]
fn torn_tail_record_recovers_the_prefix() {
    let dir = state_dir("torn");
    {
        let (mgr, _) = SessionManager::recover(1, &dir, 0).expect("journal");
        send(&mgr, &open("kept", 0)).expect("open kept");
        send(&mgr, &open("torn", 1)).expect("open torn");
    }
    let path = dir.join(JOURNAL_FILE);
    let raw = std::fs::read(&path).expect("read journal");
    std::fs::write(&path, &raw[..raw.len() - 30]).expect("tear the tail");

    let (mgr, report) = SessionManager::recover(1, &dir, 0).expect("recover");
    assert_eq!(report.records_skipped, 1);
    assert_eq!(report.sessions_restored, 1);
    assert_eq!(mgr.stats(None).expect("stats").0, vec!["kept".to_owned()]);
    // The torn bytes were truncated away: the next lifecycle is clean.
    send(&mgr, &open("fresh", 0)).expect("open after recovery");
    drop(mgr);
    let (_, report) = SessionManager::recover(1, &dir, 0).expect("re-recover");
    assert_eq!(report.records_skipped, 0, "truncation must leave a clean boundary");
    assert_eq!(report.sessions_restored, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bit rot: a payload byte inside an interior record flips, its CRC no
/// longer matches, and replay stops at the corrupt record — the sessions
/// journaled before it survive, nothing panics.
#[test]
fn crc_corruption_recovers_records_before_the_damage() {
    let dir = state_dir("crc");
    {
        let (mgr, _) = SessionManager::recover(1, &dir, 0).expect("journal");
        send(&mgr, &open("first", 0)).expect("open first");
        send(&mgr, &open("second", 1)).expect("open second");
        send(&mgr, &open("third", 0)).expect("open third");
    }
    let path = dir.join(JOURNAL_FILE);
    let mut raw = std::fs::read(&path).expect("read journal");
    // Flip a byte in the middle of the second record's payload.
    let first_nl = raw.iter().position(|&b| b == b'\n').expect("first newline");
    let second_nl = first_nl
        + 1
        + raw[first_nl + 1..].iter().position(|&b| b == b'\n').expect("second newline");
    let target = (first_nl + second_nl) / 2;
    raw[target] ^= 0x01;
    std::fs::write(&path, &raw).expect("corrupt journal");

    let (mgr, report) = SessionManager::recover(1, &dir, 0).expect("recover");
    assert_eq!(
        report.records_skipped, 2,
        "the corrupt record and everything after it are untrusted"
    );
    assert_eq!(report.sessions_restored, 1);
    assert_eq!(mgr.stats(None).expect("stats").0, vec!["first".to_owned()]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction happening mid-life must be invisible to recovery: the same
/// sessions come back, at a fraction of the records.
#[test]
fn compaction_preserves_recovery_equivalence() {
    let dir = state_dir("compact");
    let before = {
        let (mgr, _) = SessionManager::recover(1, &dir, 2).expect("journal");
        for i in 0..4 {
            let name = format!("s{i}");
            send(&mgr, &open(&name, 0)).expect("open");
            if i % 2 == 0 {
                send(&mgr, &Request::Close { session: name }).expect("close");
            }
        }
        fingerprint(&mgr)
    };
    let (recovered, report) = SessionManager::recover(1, &dir, 2).expect("recover");
    assert!(report.records_replayed <= 4, "log must have been compacted: {report:?}");
    assert_eq!(fingerprint(&recovered), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request that never succeeded must leave no journal record — replay
/// equivalence would otherwise break on the retry.
#[test]
fn failed_mutations_are_not_journaled() {
    let dir = state_dir("failures");
    {
        let (mgr, _) = SessionManager::recover(1, &dir, 0).expect("journal");
        send(&mgr, &open("only", 0)).expect("open");
        // A duplicate open, an unknown-session move, a bad constraint:
        // all refused, none journaled.
        send(&mgr, &open("only", 0)).expect_err("duplicate open");
        send(&mgr, &Request::Repartition { session: "ghost".into(), node: 0, to: 0 })
            .expect_err("unknown session");
        let constrain = Request::SetConstraints {
            session: "only".into(),
            performance_ns: -1.0,
            delay_ns: 1.0,
        };
        send(&mgr, &constrain).expect_err("bad constraint");
    }
    let (_, report) = SessionManager::recover(1, &dir, 0).expect("recover");
    assert_eq!(report.records_replayed, 1, "only the successful open is on disk");
    assert_eq!(report.records_skipped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
