//! The mutation contract, byte for byte: a scripted run of every
//! session mutation through `SessionManager::dispatch_tagged` must answer,
//! journal and replicate exactly as `fixtures/journal_golden.txt` records.
//!
//! The script drives a journaled manager (`recover` on a fresh state
//! directory, compaction every four records) with a replication sink
//! attached. It covers every mutation untagged, tagged and as a tagged
//! retry; one failing case per kind (unknown session, bad node,
//! non-finite constraint, duplicate open); an `optimize` whose accepted
//! trace is non-empty; an `import`; and a warm standby refusing each
//! mutation. Per step the fixture records:
//!
//! - the response line (for `optimized` only the session and the moves:
//!   the run summary carries wall-clock time);
//! - the FNV-1a hash of the journal file's bytes, so every append and
//!   every compaction snapshot is pinned;
//! - the replication events the step emitted, one line each.
//!
//! On a mismatch the test writes what the manager produced to
//! `<target>/tmp/journal_golden.txt` and names the first differing line;
//! a deliberate change of the journal or stream bytes is reviewed by
//! diffing that file against the fixture and copying it over.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver};

use chop_dfg::hash::StableHasher;
use chop_service::journal::JOURNAL_FILE;
use chop_service::{OpenParams, OptimizeParams, ReplEvent, Request, Response, SessionManager};

const FIXTURE: &str = include_str!("fixtures/journal_golden.txt");

const SPEC: &str = "a = input 16\nb = input 16\np = mul a b\ns = add p a\ny = output s\n";

/// Small enough that the script compacts several times.
const SNAPSHOT_EVERY: usize = 4;

fn state_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("chop-journal-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(session: &str, partitions: u32) -> Request {
    Request::Open {
        session: session.into(),
        params: OpenParams { spec: SPEC.into(), partitions, ..OpenParams::default() },
    }
}

fn repartition(session: &str, node: u32, to: u32) -> Request {
    Request::Repartition { session: session.into(), node, to }
}

fn apply_moves(session: &str, moves: &[(u32, u32)]) -> Request {
    Request::ApplyMoves { session: session.into(), moves: moves.to_vec() }
}

fn set_constraints(session: &str, performance_ns: f64, delay_ns: f64) -> Request {
    Request::SetConstraints { session: session.into(), performance_ns, delay_ns }
}

fn optimize(session: &str) -> Request {
    Request::Optimize { session: session.into(), params: OptimizeParams::default() }
}

fn close(session: &str) -> Request {
    Request::Close { session: session.into() }
}

/// The records that rebuild session `imp`: a tagged open and one move.
fn import() -> Request {
    Request::Import {
        records: vec![
            open("imp", 2).encode_tagged(Some("imp-open")),
            apply_moves("imp", &[(3, 0)]).encode_tagged(Some("imp-move")),
        ],
    }
}

/// The scripted steps against the primary: `(request, req_id)`.
fn primary_script() -> Vec<(Request, Option<&'static str>)> {
    vec![
        // open: untagged, tagged, tagged retry, duplicate.
        (open("a", 2), None),
        (open("b", 2), Some("open-b")),
        (open("b", 2), Some("open-b")),
        (open("a", 2), None),
        (open("a", 2), Some("open-a-dup")),
        // repartition: untagged, tagged, retry, unknown session, bad node.
        (repartition("a", 3, 0), None),
        (repartition("b", 3, 0), Some("rep-b")),
        (repartition("b", 3, 0), Some("rep-b")),
        (repartition("ghost", 3, 0), None),
        (repartition("a", 99, 0), None),
        (repartition("a", 99, 0), Some("rep-bad-node")),
        // apply_moves: untagged, tagged, retry, unknown session, bad node.
        (apply_moves("a", &[(3, 1), (2, 0)]), None),
        (apply_moves("b", &[(3, 1)]), Some("moves-b")),
        (apply_moves("b", &[(3, 1)]), Some("moves-b")),
        (apply_moves("ghost", &[(3, 1)]), None),
        (apply_moves("a", &[(99, 0)]), None),
        // set_constraints: untagged, tagged, retry, unknown, non-finite.
        (set_constraints("a", 45_000.0, 45_000.0), None),
        (set_constraints("b", 50_000.0, 40_000.0), Some("cons-b")),
        (set_constraints("b", 50_000.0, 40_000.0), Some("cons-b")),
        (set_constraints("ghost", 1.0, 1.0), None),
        (set_constraints("a", f64::NAN, 45_000.0), None),
        (set_constraints("a", 45_000.0, f64::INFINITY), Some("cons-inf")),
        // optimize from skewed starts: untagged, tagged, retry, unknown.
        (apply_moves("a", &[(3, 0)]), None),
        (optimize("a"), None),
        (apply_moves("b", &[(3, 0)]), None),
        (optimize("b"), Some("opt-b")),
        (optimize("b"), Some("opt-b")),
        (optimize("ghost"), None),
        // import: fresh, then again tagged (its tagged records replay).
        (import(), None),
        (import(), Some("imp-again")),
        // close: untagged, tagged, retry, unknown session.
        (close("a"), None),
        (close("b"), Some("close-b")),
        (close("b"), Some("close-b")),
        (close("ghost"), None),
        (close("imp"), Some("close-imp")),
        (open("a", 1), Some("reopen-a")),
    ]
}

/// Every mutation a standby must refuse, tagged and untagged.
fn standby_script() -> Vec<(Request, Option<&'static str>)> {
    vec![
        (open("a", 2), None),
        (open("b", 2), Some("sb-open")),
        (repartition("a", 3, 0), None),
        (apply_moves("a", &[(3, 0)]), Some("sb-moves")),
        (set_constraints("a", 45_000.0, 45_000.0), None),
        (optimize("a"), Some("sb-opt")),
        (close("a"), None),
        (import(), None),
    ]
}

fn journal_fnv(dir: &Path) -> u64 {
    let bytes = std::fs::read(dir.join(JOURNAL_FILE)).expect("journal file exists");
    let mut hasher = StableHasher::new();
    hasher.write(&bytes);
    hasher.finish()
}

/// The response line, with an `optimized` run summary cut down to the
/// deterministic part: the session and the accepted moves.
fn response_line(response: &Response) -> String {
    let Response::Optimized { session, result } = response else {
        return response.encode();
    };
    let mut line = format!("optimized {session} moves=[");
    for (i, m) in result.moves.iter().enumerate() {
        let sep = if i == 0 { "" } else { " " };
        let _ = write!(line, "{sep}{:?}:{}->{}@{}/{:?}", m.nodes, m.from, m.to, m.pass, m.kind);
    }
    line.push(']');
    line
}

/// Runs one script, appending a block per step to `out`. Returns how
/// many `optimized` responses carried a non-empty trace.
fn run_script(
    out: &mut String,
    label: &str,
    manager: &SessionManager,
    events: &Receiver<ReplEvent>,
    dir: &Path,
    script: Vec<(Request, Option<&str>)>,
) -> usize {
    let mut traced = 0;
    for (step, (request, req_id)) in script.into_iter().enumerate() {
        let response = manager.dispatch_tagged(&request, req_id);
        if let Response::Optimized { result, .. } = &response {
            traced += usize::from(!result.moves.is_empty());
        }
        let _ = writeln!(out, "step {label}.{step} {}", request.encode_tagged(req_id));
        let _ = writeln!(out, "  response {}", response_line(&response));
        let _ = writeln!(out, "  journal {:016x}", journal_fnv(dir));
        for event in events.try_iter() {
            match event {
                ReplEvent::Record { seq, line } => {
                    let _ = writeln!(out, "  repl record {seq} {line}");
                }
                ReplEvent::Snapshot { seq, records } => {
                    let _ = writeln!(out, "  repl snapshot {seq} records={}", records.len());
                    for record in records {
                        let _ = writeln!(out, "    {record}");
                    }
                }
            }
        }
    }
    traced
}

fn render_contract() -> String {
    let mut out = String::new();

    let dir = state_dir("primary");
    let (primary, report) = SessionManager::recover(1, &dir, SNAPSHOT_EVERY).expect("recover");
    let _ = writeln!(out, "recover primary {report:?}");
    let (tx, rx) = mpsc::channel();
    primary.set_repl_sink(tx);
    let traced = run_script(&mut out, "primary", &primary, &rx, &dir, primary_script());
    assert!(traced > 0, "the script must optimize to a non-empty trace");
    drop(primary);
    let (_, report) = SessionManager::recover(1, &dir, SNAPSHOT_EVERY).expect("recover");
    let _ = writeln!(out, "recover primary {report:?}");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = state_dir("standby");
    let (standby, _) = SessionManager::recover(1, &dir, SNAPSHOT_EVERY).expect("recover");
    standby.mark_standby();
    let (tx, rx) = mpsc::channel();
    standby.set_repl_sink(tx);
    run_script(&mut out, "standby", &standby, &rx, &dir, standby_script());
    let _ = writeln!(out, "standby sessions {}", standby.session_count());
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn journal_and_stream_bytes_match_the_golden_fixture() {
    let actual = render_contract();
    if actual == FIXTURE {
        return;
    }
    let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("journal_golden.txt");
    std::fs::write(&dump, &actual).expect("write the actual contract");
    let first = actual
        .lines()
        .zip(FIXTURE.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
    panic!(
        "journal contract changed at fixture line {}:\n  fixture: {:?}\n  actual:  {:?}\n\
         full output written to {}",
        first + 1,
        FIXTURE.lines().nth(first),
        actual.lines().nth(first),
        dump.display()
    );
}
