//! Chaos harness: a real server behind the fault-injecting
//! [`ChaosProxy`], clients that retry through resets, stalls and torn
//! requests, and crash/recovery runs that must reproduce byte-identical
//! digests. Compiled only with `--features fault-inject`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use chop_core::prelude::Heuristic;
use chop_service::chaos::{ChaosProxy, ConnFault};
use chop_service::{
    build_session, BackendSpec, Client, ClientError, ErrorKind, ExploreParams, HashRing,
    OpenParams, Replicator, Request, Response, RetryPolicy, Role, Router, RouterConfig,
    ServeConfig, Server, ServiceError, SessionManager,
};

const SPEC: &str = "a = input 16\nb = input 16\np = mul a b\ns = add p a\ny = output s\n";

const WIDE_SPEC: &str = "a = input 16\nb = input 16\nc = input 16\n\
                         p = mul a b\nq = add b c\nr = sub p q\n\
                         s = add r a\ny = output s\n";

fn test_jobs() -> usize {
    std::env::var("CHOP_TEST_JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

fn start_server(config: ServeConfig) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run().expect("server drains cleanly"));
    (addr, handle)
}

fn open_params(spec: &str, partitions: u32) -> OpenParams {
    OpenParams { spec: spec.into(), partitions, ..OpenParams::default() }
}

/// Dispatches `request` in process, splitting an error response out.
fn send(mgr: &SessionManager, request: &Request) -> Result<Response, ServiceError> {
    match mgr.dispatch_tagged(request, None) {
        Response::Error(e) => Err(e),
        response => Ok(response),
    }
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chop-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn explored_digest(client: &mut Client, session: &str) -> String {
    let response = client
        .request(&Request::Explore {
            session: session.into(),
            params: ExploreParams::default(),
        })
        .expect("explore");
    match response {
        Response::Explored { run, .. } => run.digest,
        other => panic!("expected explored, got {other:?}"),
    }
}

/// The digest an uninterrupted in-process run of the same spec produces.
fn reference_digest(spec: &str, partitions: u32, jobs: usize) -> String {
    build_session(&open_params(spec, partitions), jobs)
        .expect("in-process session")
        .explore(Heuristic::Iterative)
        .expect("in-process explore")
        .digest()
}

#[test]
fn reset_mid_request_is_survived_by_idempotent_retry() {
    let (addr, server) = start_server(ServeConfig { workers: 2, ..ServeConfig::default() });
    let proxy = ChaosProxy::start(addr).expect("proxy");

    // The first connection dies 20 bytes into the request — mid-line, so
    // the open may or may not have reached the server. The retry
    // reconnects (next connection is fault-free) and, because the open
    // carries a req_id, a duplicate delivery is answered from the dedup
    // window instead of failing with SessionExists.
    proxy.push_fault(ConnFault::ResetAfter(20));
    let mut client = Client::connect(proxy.addr()).expect("connect via proxy");
    let open = Request::Open { session: "chaos".into(), params: open_params(SPEC, 2) };
    let policy = RetryPolicy::with_budget_ms(5_000);
    let response =
        client.request_with_retry(&open, Some("chaos-open-1"), &policy).expect("retried open");
    assert_eq!(response, Response::Opened { session: "chaos".into(), partitions: 2 });

    // An explicit replay of the same req_id must echo the same outcome.
    let replay = client.request_tagged(&open, Some("chaos-open-1")).expect("replay");
    assert_eq!(replay, response);

    // And the session the retries produced is the real one: its digest
    // matches an uninterrupted in-process run.
    assert_eq!(
        explored_digest(&mut client, "chaos"),
        reference_digest(SPEC, 2, test_jobs()),
        "digest after chaotic open must match the uninterrupted run"
    );

    drop(proxy);
    let mut direct = Client::connect(addr).expect("direct connect");
    direct.request(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn torn_request_gets_a_typed_protocol_error() {
    let (addr, server) = start_server(ServeConfig { workers: 1, ..ServeConfig::default() });
    let proxy = ChaosProxy::start(addr).expect("proxy");

    // Forward only 10 bytes of the request upstream, then half-close the
    // server-bound side: the server sees EOF mid-line and must answer
    // with a typed protocol error — never a silent close.
    proxy.push_fault(ConnFault::TruncateRequest(10));
    let mut client = Client::connect(proxy.addr()).expect("connect via proxy");
    let response = client.request(&Request::Ping);
    match response {
        Ok(Response::Error(e)) => {
            assert_eq!(e.kind, ErrorKind::Protocol);
            assert!(e.message.contains("truncated"), "{}", e.message);
        }
        other => panic!("expected typed protocol error, got {other:?}"),
    }

    drop(proxy);
    let mut direct = Client::connect(addr).expect("direct connect");
    direct.request(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn stalled_connection_is_outwaited_by_attempt_timeout() {
    let (addr, server) = start_server(ServeConfig { workers: 1, ..ServeConfig::default() });
    let proxy = ChaosProxy::start(addr).expect("proxy");

    // The first connection sits black-holed for 30 s — far past the test
    // budget. The per-attempt read timeout must trip, and the retry's
    // fresh connection (fault-free) completes the ping.
    proxy.push_fault(ConnFault::StallMs(30_000));
    let mut client = Client::connect(proxy.addr()).expect("connect via proxy");
    let policy = RetryPolicy {
        attempt_timeout: Some(Duration::from_millis(200)),
        ..RetryPolicy::with_budget_ms(10_000)
    };
    let response = client.request_with_retry(&Request::Ping, None, &policy).expect("ping");
    assert!(matches!(response, Response::Pong { .. }), "{response:?}");

    drop(proxy);
    let mut direct = Client::connect(addr).expect("direct connect");
    direct.request(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn untagged_mutation_is_refused_transport_retry_under_chaos() {
    let (addr, server) = start_server(ServeConfig { workers: 1, ..ServeConfig::default() });
    let proxy = ChaosProxy::start(addr).expect("proxy");

    proxy.push_fault(ConnFault::ResetAfter(5));
    let mut client = Client::connect(proxy.addr()).expect("connect via proxy");
    let open = Request::Open { session: "never".into(), params: open_params(SPEC, 1) };
    let err = client
        .request_with_retry(&open, None, &RetryPolicy::with_budget_ms(2_000))
        .expect_err("untagged mutation must not be blindly retried");
    assert!(matches!(err, ClientError::Io(_) | ClientError::ConnectionClosed), "{err}");

    drop(proxy);
    let mut direct = Client::connect(addr).expect("direct connect");
    direct.request(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
}

/// The crash/recovery acceptance criterion: kill a journaled server
/// mid-life, restart on the same state dir, and the recovered sessions
/// must re-explore to byte-identical digests at jobs 1 *and*
/// `CHOP_TEST_JOBS`, with a repeated `req_id` mutation still answered
/// idempotently.
#[test]
fn recovered_server_reproduces_digests_and_idempotency() {
    let dir = state_dir("recover");
    let config = ServeConfig {
        workers: 2,
        state_dir: Some(dir.clone()),
        snapshot_every: 0,
        ..ServeConfig::default()
    };

    // Life before the crash: one session opened with a req_id, then
    // mutated. The journal fsyncs every record, so an abrupt kill loses
    // nothing — the CLI suite proves the literal kill -9; here the server
    // is dropped with sessions still open (no close, no flush ceremony).
    let open = Request::Open { session: "wal".into(), params: open_params(WIDE_SPEC, 3) };
    {
        let (addr, server) = start_server(config.clone());
        let mut client = Client::connect(addr).expect("connect");
        let opened = client.request_tagged(&open, Some("wal-open")).expect("open");
        assert_eq!(opened, Response::Opened { session: "wal".into(), partitions: 3 });
        let moved = client
            .request_tagged(
                &Request::Repartition { session: "wal".into(), node: 3, to: 0 },
                Some("wal-move"),
            )
            .expect("repartition");
        assert!(matches!(moved, Response::Repartitioned { .. }), "{moved:?}");
        client.request(&Request::Shutdown).expect("shutdown");
        server.join().expect("server thread");
    }

    // The uninterrupted reference: same open + repartition, no crash, no
    // journal, fresh manager.
    let uninterrupted = |jobs: usize| -> String {
        let mgr = SessionManager::new(jobs);
        send(&mgr, &Request::Open { session: "ref".into(), params: open_params(WIDE_SPEC, 3) })
            .expect("open");
        send(&mgr, &Request::Repartition { session: "ref".into(), node: 3, to: 0 })
            .expect("repartition");
        mgr.explore("ref", &ExploreParams::default()).expect("explore").digest
    };

    // Restart on the same state dir and compare, at both job counts.
    for jobs in [1, test_jobs()] {
        let (addr, server) = start_server(ServeConfig { jobs, ..config.clone() });
        let mut client = Client::connect(addr).expect("connect recovered");

        // The recovered server must answer the replayed open from its
        // rebuilt dedup window — Opened, not SessionExists.
        let replay = client.request_tagged(&open, Some("wal-open")).expect("replayed open");
        assert_eq!(
            replay,
            Response::Opened { session: "wal".into(), partitions: 3 },
            "recovered server must answer a repeated req_id idempotently"
        );

        let digest = explored_digest(&mut client, "wal");
        assert_eq!(
            digest,
            uninterrupted(jobs),
            "recovered digest must be byte-identical at jobs={jobs}"
        );

        client.request(&Request::Shutdown).expect("shutdown");
        server.join().expect("server thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal append failure mid-service refuses the mutation with a
/// typed internal error, and the sessions the failure spared survive a
/// recovery untouched.
#[test]
fn append_failure_is_typed_and_spares_existing_sessions() {
    use chop_core::prelude::fault::IoFaultPlan;

    let dir = state_dir("append-fault");
    let (mgr, _) = SessionManager::recover(1, &dir, 0).expect("fresh journaled manager");
    send(&mgr, &Request::Open { session: "stable".into(), params: open_params(SPEC, 2) })
        .expect("open");
    let stable_digest =
        mgr.explore("stable", &ExploreParams::default()).expect("explore").digest;

    // Every further append fails: mutations are refused, reads keep
    // working.
    mgr.inject_journal_faults(IoFaultPlan::none().fail_after(0));
    let err =
        send(&mgr, &Request::Open { session: "doomed".into(), params: open_params(SPEC, 1) })
            .expect_err("append must fail");
    assert_eq!(err.kind, ErrorKind::Internal);
    assert!(err.message.contains("journal"), "{}", err.message);
    assert_eq!(mgr.session_count(), 1);
    drop(mgr);

    let (recovered, report) = SessionManager::recover(1, &dir, 0).expect("recover");
    assert_eq!(report.sessions_restored, 1);
    assert_eq!(report.records_skipped, 0);
    assert_eq!(
        recovered.explore("stable", &ExploreParams::default()).expect("explore").digest,
        stable_digest,
        "sessions journaled before the fault must recover byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Polls `addr` until `session` shows up in its stats (replication is
/// asynchronous; a standby converges, it does not confirm).
fn wait_for_session(addr: &str, session: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut probe) = Client::connect(addr) {
            if let Ok(Response::Stats { sessions, .. }) =
                probe.request(&Request::Stats { session: None })
            {
                if sessions.iter().any(|s| s == session) {
                    return;
                }
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "standby at {addr} never saw session {session:?}"
        );
        thread::sleep(Duration::from_millis(20));
    }
}

/// The headline failover drill: a replicated pair behind a `Router`, the
/// primary's power cord pulled mid-session (every live connection severed
/// without drain), and the retried tagged explore must come back from the
/// promoted standby with a digest byte-identical to an uninterrupted run
/// — at jobs 1 and `CHOP_TEST_JOBS`.
#[test]
fn killed_primary_fails_over_to_byte_identical_standby() {
    for jobs in [1, test_jobs()] {
        let tag = format!("failover-{jobs}");
        let standby_dir = state_dir(&format!("{tag}-standby"));
        let primary_dir = state_dir(&format!("{tag}-primary"));

        let standby_server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                workers: 2,
                jobs,
                state_dir: Some(standby_dir.clone()),
                standby: true,
                ..ServeConfig::default()
            },
        )
        .expect("bind standby");
        let standby_addr = standby_server.local_addr().expect("standby addr").to_string();
        let standby_thread = thread::spawn(move || standby_server.run().expect("standby runs"));

        let primary_server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                workers: 2,
                jobs,
                state_dir: Some(primary_dir.clone()),
                peer: Some(standby_addr.clone()),
                ..ServeConfig::default()
            },
        )
        .expect("bind primary");
        let primary_addr = primary_server.local_addr().expect("primary addr").to_string();
        let kill = primary_server.kill_handle();
        let primary_thread = thread::spawn(move || primary_server.run());

        let router = Router::bind(
            "127.0.0.1:0",
            RouterConfig {
                pairs: vec![BackendSpec {
                    primary: primary_addr.clone(),
                    standby: Some(standby_addr.clone()),
                }],
                // Slow health checks: this test exercises the
                // request-path failover, not the health loop.
                health_interval: Duration::from_secs(30),
            },
        )
        .expect("bind router");
        let router_addr = router.local_addr().expect("router addr").to_string();
        let router_thread = thread::spawn(move || router.run().expect("router runs"));

        // Open through the router, tagged, and wait until replication has
        // delivered the session to the standby.
        let mut client = Client::connect(router_addr.as_str()).expect("connect router");
        let open = Request::Open { session: "fo".into(), params: open_params(WIDE_SPEC, 3) };
        let opened = client.request_tagged(&open, Some("fo-open")).expect("open via router");
        assert_eq!(opened, Response::Opened { session: "fo".into(), partitions: 3 });
        wait_for_session(&standby_addr, "fo");

        // Pull the primary's power cord: the kill flag severs every live
        // connection (including the router's cached one and the
        // replication stream) and the accept loop returns without drain.
        kill.store(true, std::sync::atomic::Ordering::SeqCst);
        primary_thread.join().expect("primary thread").expect("killed run returns");

        // The in-flight explore dies with the primary; the retry rides
        // through the router's promote-and-replay.
        let explore =
            Request::Explore { session: "fo".into(), params: ExploreParams::default() };
        let response = client
            .request_with_retry(
                &explore,
                Some("fo-explore"),
                &RetryPolicy::with_budget_ms(20_000),
            )
            .expect("explore survives the failover");
        let digest = match response {
            Response::Explored { run, .. } => run.digest,
            other => panic!("expected explored, got {other:?}"),
        };
        assert_eq!(
            digest,
            reference_digest(WIDE_SPEC, 3, jobs),
            "promoted standby must explore to the uninterrupted digest at jobs={jobs}"
        );

        // The replicated dedup window answers the replayed open on the
        // promoted standby — Opened, not SessionExists.
        let replay = client.request_tagged(&open, Some("fo-open")).expect("replayed open");
        assert_eq!(replay, opened, "promoted standby must keep req_id idempotency");

        client.request(&Request::Shutdown).expect("router shutdown");
        router_thread.join().expect("router thread");
        let mut direct = Client::connect(standby_addr.as_str()).expect("standby connect");
        direct.request(&Request::Shutdown).expect("standby shutdown");
        standby_thread.join().expect("standby thread");
        let _ = std::fs::remove_dir_all(&standby_dir);
        let _ = std::fs::remove_dir_all(&primary_dir);
    }
}

/// Power loss with a crowd in the room: the kill flag severs dozens of
/// live reactor connections — some idle, some mid-pipeline, one frozen
/// mid-line — without drain, and a restart on the same state dir still
/// re-explores every journaled session to the uninterrupted digest at
/// jobs 1 and `CHOP_TEST_JOBS`.
#[test]
fn kill_with_many_live_connections_recovers_byte_identical() {
    use std::io::{Read, Write};

    let dir = state_dir("kill-crowd");
    let config = ServeConfig {
        workers: 2,
        state_dir: Some(dir.clone()),
        snapshot_every: 0,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config.clone()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let kill = server.kill_handle();
    let server_thread = thread::spawn(move || server.run());

    // Committed state the crash must not lose: two tagged opens and a
    // tagged repartition.
    let open_a = Request::Open { session: "crowd-a".into(), params: open_params(SPEC, 2) };
    let open_b = Request::Open { session: "crowd-b".into(), params: open_params(WIDE_SPEC, 3) };
    let mut client = Client::connect(addr).expect("connect");
    client.request_tagged(&open_a, Some("crowd-a-open")).expect("open a");
    client.request_tagged(&open_b, Some("crowd-b-open")).expect("open b");
    let moved = client
        .request_tagged(
            &Request::Repartition { session: "crowd-b".into(), node: 3, to: 0 },
            Some("crowd-b-move"),
        )
        .expect("repartition");
    assert!(matches!(moved, Response::Repartitioned { .. }), "{moved:?}");

    // The crowd: 32 extra connections in assorted states — idle after a
    // ping, never-spoke, and one frozen mid-request-line.
    let mut crowd = Vec::new();
    for i in 0..32 {
        let mut stream = std::net::TcpStream::connect(addr).expect("crowd connect");
        if i % 3 == 0 {
            stream.write_all(b"{\"v\":1,\"type\":\"ping\"}\n").expect("crowd ping");
            let mut buf = [0u8; 256];
            let n = stream.read(&mut buf).expect("crowd pong");
            assert!(n > 0, "crowd conn {i} got EOF instead of a pong");
        } else if i % 3 == 1 {
            // Half a request, no newline: the reactor is holding partial
            // input for this connection when the cord is pulled.
            stream.write_all(b"{\"v\":1,\"ty").expect("crowd partial");
        }
        crowd.push(stream);
    }

    // Pull the cord. Every live connection is severed without drain.
    kill.store(true, std::sync::atomic::Ordering::SeqCst);
    server_thread.join().expect("server thread").expect("killed run returns");
    for (i, stream) in crowd.iter_mut().enumerate() {
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("crowd read timeout");
        let mut buf = [0u8; 256];
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("crowd conn {i} got {n} bytes after the kill"),
        }
    }

    // Restart on the same dir: both sessions recover and re-explore to
    // the digests an uninterrupted run produces, and the dedup window
    // still answers the replayed open.
    let reference_b = |jobs: usize| -> String {
        let mgr = SessionManager::new(jobs);
        send(&mgr, &Request::Open { session: "ref".into(), params: open_params(WIDE_SPEC, 3) })
            .expect("open");
        send(&mgr, &Request::Repartition { session: "ref".into(), node: 3, to: 0 })
            .expect("repartition");
        mgr.explore("ref", &ExploreParams::default()).expect("explore").digest
    };
    for jobs in [1, test_jobs()] {
        let (addr, server) = start_server(ServeConfig { jobs, ..config.clone() });
        let mut client = Client::connect(addr).expect("connect recovered");
        let replay = client.request_tagged(&open_a, Some("crowd-a-open")).expect("replay");
        assert_eq!(
            replay,
            Response::Opened { session: "crowd-a".into(), partitions: 2 },
            "recovered server must answer a repeated req_id idempotently"
        );
        assert_eq!(
            explored_digest(&mut client, "crowd-a"),
            reference_digest(SPEC, 2, jobs),
            "crowd-a digest must be byte-identical at jobs={jobs}"
        );
        assert_eq!(
            explored_digest(&mut client, "crowd-b"),
            reference_b(jobs),
            "crowd-b digest must be byte-identical at jobs={jobs}"
        );
        client.request(&Request::Shutdown).expect("shutdown");
        server.join().expect("server thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The replication-equivalence satellite: a standby fed one snapshot
/// handoff plus tail records must recover (from its own journal) the same
/// session set as the dead primary's journal replayed locally.
#[test]
fn standby_journal_recovers_the_same_sessions_as_the_primary_journal() {
    let standby_dir = state_dir("repl-standby");
    let primary_dir = state_dir("repl-primary");

    let standby_server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            state_dir: Some(standby_dir.clone()),
            standby: true,
            ..ServeConfig::default()
        },
    )
    .expect("bind standby");
    let standby_addr = standby_server.local_addr().expect("standby addr").to_string();
    let standby_thread = thread::spawn(move || standby_server.run().expect("standby runs"));

    // A journaled in-process primary. History committed *before* the
    // replicator attaches reaches the standby only via the snapshot-first
    // resync; the mutations after it arrive as tail records.
    let (primary, _) = SessionManager::recover(1, &primary_dir, 0).expect("journaled primary");
    let primary = std::sync::Arc::new(primary);
    send(&primary, &Request::Open { session: "alpha".into(), params: open_params(SPEC, 2) })
        .expect("open alpha");
    send(
        &primary,
        &Request::Open { session: "beta".into(), params: open_params(WIDE_SPEC, 3) },
    )
    .expect("open beta");
    let constrain = Request::SetConstraints {
        session: "alpha".into(),
        performance_ns: 40_000.0,
        delay_ns: 40_000.0,
    };
    send(&primary, &constrain).expect("constrain");
    let mut replicator =
        Replicator::start(std::sync::Arc::clone(&primary), standby_addr.clone());
    send(&primary, &Request::Open { session: "gamma".into(), params: open_params(SPEC, 1) })
        .expect("open gamma");
    send(&primary, &Request::Close { session: "beta".into() }).expect("close beta");
    wait_for_session(&standby_addr, "gamma");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut probe = Client::connect(standby_addr.as_str()).expect("probe standby");
        let Ok(Response::Stats { sessions, .. }) =
            probe.request(&Request::Stats { session: None })
        else {
            panic!("standby stats")
        };
        if !sessions.iter().any(|s| s == "beta") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "standby never saw beta close");
        thread::sleep(Duration::from_millis(20));
    }

    // The primary dies; the standby drains gracefully (its own journal is
    // already current — every applied record went through it).
    replicator.stop();
    drop(primary);
    let mut direct = Client::connect(standby_addr.as_str()).expect("standby connect");
    direct.request(&Request::Shutdown).expect("standby shutdown");
    standby_thread.join().expect("standby thread");

    let (from_primary, primary_report) =
        SessionManager::recover(1, &primary_dir, 0).expect("recover primary journal");
    let (from_standby, standby_report) =
        SessionManager::recover(1, &standby_dir, 0).expect("recover standby journal");
    assert_eq!(
        standby_report.sessions_restored, primary_report.sessions_restored,
        "both journals must restore the same number of sessions"
    );
    let (mut primary_sessions, _, _) = from_primary.stats(None).expect("primary stats");
    let (mut standby_sessions, _, _) = from_standby.stats(None).expect("standby stats");
    primary_sessions.sort();
    standby_sessions.sort();
    assert_eq!(
        standby_sessions, primary_sessions,
        "standby journal must reproduce the primary's session set"
    );
    for session in &primary_sessions {
        assert_eq!(
            from_standby.explore(session, &ExploreParams::default()).expect("explore").digest,
            from_primary.explore(session, &ExploreParams::default()).expect("explore").digest,
            "session {session:?} must explore identically from either journal"
        );
    }
    let _ = std::fs::remove_dir_all(&standby_dir);
    let _ = std::fs::remove_dir_all(&primary_dir);
}

/// The warm-restart drill: a server with a cache snapshot configured is
/// kill -9'd (no drain, so no final snapshot write — only the periodic
/// cadence ran), and a restart on the same snapshot path must explore a
/// fresh session to a byte-identical digest *without a single predictor
/// call* — the whole run served from the restored cache.
#[test]
fn killed_server_restarts_warm_from_cache_snapshot() {
    use chop_core::prelude::{load_snapshot, PredictionCache};

    for jobs in [1, test_jobs()] {
        let snap = std::env::temp_dir()
            .join(format!("chop-chaos-snap-{jobs}-{}.snap", std::process::id()));
        let _ = std::fs::remove_file(&snap);
        let config = ServeConfig {
            workers: 2,
            jobs,
            cache_snapshot: Some(snap.clone()),
            // Snapshot on every insertion: the only persistence this
            // test may rely on, since the kill skips the drain write.
            cache_snapshot_every: 1,
            ..ServeConfig::default()
        };

        // Life before the crash: open + explore to warm the cache.
        let server = Server::bind("127.0.0.1:0", config.clone()).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let kill = server.kill_handle();
        let server_thread = thread::spawn(move || server.run());
        let mut client = Client::connect(addr).expect("connect");
        let open = Request::Open { session: "warm".into(), params: open_params(WIDE_SPEC, 3) };
        client.request(&open).expect("open");
        let first = explored_digest(&mut client, "warm");
        assert_eq!(first, reference_digest(WIDE_SPEC, 3, jobs));

        // The snapshot thread persists on its own cadence; wait until a
        // trial load shows every cache entry on disk before pulling the
        // cord.
        let entries = match client.request(&Request::Stats { session: None }) {
            Ok(Response::Stats { cache, .. }) => cache.entries,
            other => panic!("expected stats, got {other:?}"),
        };
        assert!(entries > 0, "the warming explore must populate the cache");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let scratch = PredictionCache::with_config(256, 1);
            let loaded = load_snapshot(&snap, &scratch).unwrap_or_default();
            if loaded.entries as u64 == entries {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "snapshot never caught up: {} of {entries} entries on disk",
                loaded.entries
            );
            thread::sleep(Duration::from_millis(20));
        }

        // Kill -9: every connection severed, no drain, no final write.
        kill.store(true, std::sync::atomic::Ordering::SeqCst);
        server_thread.join().expect("server thread").expect("killed run returns");

        // Restart on the same snapshot path. No journal: the session is
        // gone, but the cache is content-addressed, so a fresh open of
        // the same spec must explore entirely from the restored entries.
        let (addr, server) = start_server(config);
        let mut client = Client::connect(addr).expect("connect restarted");
        client.request(&open).expect("re-open");
        let response = client
            .request(&Request::Explore {
                session: "warm".into(),
                params: ExploreParams::default(),
            })
            .expect("explore after restart");
        let run = match response {
            Response::Explored { run, .. } => run,
            other => panic!("expected explored, got {other:?}"),
        };
        assert_eq!(
            run.digest, first,
            "snapshot-restored digest must be byte-identical at jobs={jobs}"
        );
        assert_eq!(
            run.predictor_calls, 0,
            "a snapshot-warmed explore must be served entirely from cache"
        );
        assert!(run.cache_hits > 0, "the restored entries must actually be used");

        client.request(&Request::Shutdown).expect("shutdown");
        server.join().expect("server thread");
        let _ = std::fs::remove_file(&snap);
    }
}

/// Reserves an ephemeral port and frees it for a server that must come
/// back on a *known* address (rejoin drills restart nodes in place).
fn reserve_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let addr = listener.local_addr().expect("reserved addr").to_string();
    drop(listener);
    addr
}

/// Polls `addr` until its pong reports one of `roles` (role transitions
/// are asynchronous — a restarted stale primary demotes only once its
/// own replication stream gets fenced).
fn wait_for_role(addr: &str, roles: &[Role]) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut probe) = Client::connect(addr) {
            if let Ok(Response::Pong { role: Some(role), .. }) = probe.request(&Request::Ping) {
                if roles.contains(&role) {
                    return;
                }
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "node at {addr} never reached a role in {roles:?}"
        );
        thread::sleep(Duration::from_millis(20));
    }
}

/// Binds a server on a reserved address and runs it on its own thread,
/// returning the kill flag and the join handle.
fn start_at(
    addr: &str,
    config: ServeConfig,
) -> (std::sync::Arc<std::sync::atomic::AtomicBool>, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(addr, config).expect("bind reserved addr");
    let kill = server.kill_handle();
    let handle = thread::spawn(move || server.run());
    (kill, handle)
}

/// The self-healing headline: kill the primary, promote the standby,
/// restart the old primary on its own journal — its replication stream is
/// fenced by the newer epoch, so it demotes itself and resyncs
/// snapshot-first (including a session it never saw). Then kill the *new*
/// primary: the rejoined node promotes back (failback). Every surviving
/// node explores every session to the uninterrupted digest, at jobs 1 and
/// `CHOP_TEST_JOBS`.
#[test]
fn killed_primary_rejoins_demoted_and_fails_back_byte_identical() {
    for jobs in [1, test_jobs()] {
        let tag = format!("rejoin-{jobs}");
        let a_dir = state_dir(&format!("{tag}-a"));
        let b_dir = state_dir(&format!("{tag}-b"));
        let a_addr = reserve_addr();
        let b_addr = reserve_addr();
        let config = |dir: &PathBuf, peer: &str, standby: bool| ServeConfig {
            workers: 2,
            jobs,
            state_dir: Some(dir.clone()),
            standby,
            peer: Some(peer.to_owned()),
            ..ServeConfig::default()
        };

        // Epoch 0: A is primary, B its warm standby, linked symmetrically.
        let (a_kill, a_thread) = start_at(&a_addr, config(&a_dir, &b_addr, false));
        let (b_kill, b_thread) = start_at(&b_addr, config(&b_dir, &a_addr, true));
        let mut client = Client::connect(a_addr.as_str()).expect("connect A");
        let open = Request::Open { session: "cyc".into(), params: open_params(WIDE_SPEC, 3) };
        client.request_tagged(&open, Some("cyc-open")).expect("open cyc");
        wait_for_session(&b_addr, "cyc");

        // Pull A's cord; promote B to epoch 1 and commit a session the
        // dead primary has never heard of.
        a_kill.store(true, std::sync::atomic::Ordering::SeqCst);
        a_thread.join().expect("A thread").expect("killed run returns");
        let mut b_client = Client::connect(b_addr.as_str()).expect("connect B");
        assert_eq!(
            b_client.request(&Request::Promote).expect("promote B"),
            Response::Promoted { sessions: 1, epoch: 1 }
        );
        let post = Request::Open { session: "post".into(), params: open_params(SPEC, 2) };
        b_client.request_tagged(&post, Some("post-open")).expect("open post");

        // Restart the old primary in place, on its own journal, with the
        // same symmetric peer link. It comes back believing it is an
        // epoch-0 primary; the fenced refusal of its first snapshot
        // demotes it, and B's stream (parked until promotion) resyncs it.
        let (_a_kill, a_thread) = start_at(&a_addr, config(&a_dir, &b_addr, false));
        wait_for_role(&a_addr, &[Role::Fenced, Role::Standby]);
        wait_for_session(&a_addr, "post");

        // Convergence proof: both nodes explore both sessions to the
        // digest an uninterrupted run produces.
        for addr in [&a_addr, &b_addr] {
            let mut probe = Client::connect(addr.as_str()).expect("probe");
            assert_eq!(
                explored_digest(&mut probe, "cyc"),
                reference_digest(WIDE_SPEC, 3, jobs),
                "session cyc at {addr}, jobs={jobs}"
            );
            assert_eq!(
                explored_digest(&mut probe, "post"),
                reference_digest(SPEC, 2, jobs),
                "session post at {addr}, jobs={jobs}"
            );
        }

        // Failback: kill the *new* primary. The rejoined node promotes to
        // epoch 2 and takes mutations like any primary.
        b_kill.store(true, std::sync::atomic::Ordering::SeqCst);
        b_thread.join().expect("B thread").expect("killed run returns");
        let mut a_client = Client::connect(a_addr.as_str()).expect("reconnect A");
        assert_eq!(
            a_client.request(&Request::Promote).expect("promote A"),
            Response::Promoted { sessions: 2, epoch: 2 }
        );
        let moved = a_client
            .request(&Request::Repartition { session: "post".into(), node: 2, to: 0 })
            .expect("mutate after failback");
        assert!(matches!(moved, Response::Repartitioned { .. }), "{moved:?}");

        a_client.request(&Request::Shutdown).expect("shutdown A");
        a_thread.join().expect("A thread").expect("drained run returns");
        let _ = std::fs::remove_dir_all(&a_dir);
        let _ = std::fs::remove_dir_all(&b_dir);
    }
}

/// The fencing headline: once a restarted stale primary has been fenced,
/// a direct mutation against it gets the typed `fenced` refusal carrying
/// the current primary's address and epoch — and exactly one node in the
/// pair answers as an unfenced primary. Following the redirect lands the
/// mutation on that primary.
#[test]
fn restarted_stale_primary_refuses_mutations_with_a_typed_fenced_redirect() {
    let a_dir = state_dir("fence-a");
    let b_dir = state_dir("fence-b");
    let a_addr = reserve_addr();
    let b_addr = reserve_addr();
    let config = |dir: &PathBuf, peer: &str, standby: bool| ServeConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        standby,
        peer: Some(peer.to_owned()),
        ..ServeConfig::default()
    };

    let (a_kill, a_thread) = start_at(&a_addr, config(&a_dir, &b_addr, false));
    let (_b_kill, b_thread) = start_at(&b_addr, config(&b_dir, &a_addr, true));
    let mut client = Client::connect(a_addr.as_str()).expect("connect A");
    let open = Request::Open { session: "fence".into(), params: open_params(SPEC, 2) };
    client.request_tagged(&open, Some("fence-open")).expect("open");
    wait_for_session(&b_addr, "fence");

    a_kill.store(true, std::sync::atomic::Ordering::SeqCst);
    a_thread.join().expect("A thread").expect("killed run returns");
    let mut b_client = Client::connect(b_addr.as_str()).expect("connect B");
    assert_eq!(
        b_client.request(&Request::Promote).expect("promote B"),
        Response::Promoted { sessions: 1, epoch: 1 }
    );

    let (_a_kill, a_thread) = start_at(&a_addr, config(&a_dir, &b_addr, false));
    wait_for_role(&a_addr, &[Role::Fenced]);

    // The raw request path (no redirect following — what the router and
    // the replicator see): a typed `fenced` refusal naming the primary.
    let mutation = Request::Repartition { session: "fence".into(), node: 3, to: 0 };
    let mut direct = Client::connect(a_addr.as_str()).expect("reconnect A");
    let refused = direct.request(&mutation).expect("refusal still answers");
    let Response::Error(e) = refused else {
        panic!("fenced node accepted a direct mutation: {refused:?}")
    };
    assert_eq!(e.kind, ErrorKind::Fenced, "{e:?}");
    assert_eq!(e.epoch, Some(1), "the refusal must carry the fencing epoch");
    assert_eq!(
        e.primary.as_deref(),
        Some(b_addr.as_str()),
        "the refusal must name the current primary"
    );

    // No dual-primary window: the pair holds exactly one unfenced primary.
    let role_of = |addr: &str| -> Role {
        let mut probe = Client::connect(addr).expect("probe");
        match probe.request(&Request::Ping).expect("ping") {
            Response::Pong { role: Some(role), .. } => role,
            other => panic!("expected a role-bearing pong, got {other:?}"),
        }
    };
    assert_eq!(role_of(&a_addr), Role::Fenced);
    assert_eq!(role_of(&b_addr), Role::Primary);

    // Following the redirect applies the mutation on the real primary.
    let followed = direct
        .request_following_redirects(&mutation, None, &RetryPolicy::with_budget_ms(2_000))
        .expect("redirected mutation");
    assert!(matches!(followed, Response::Repartitioned { .. }), "{followed:?}");

    let mut b_direct = Client::connect(b_addr.as_str()).expect("connect B");
    b_direct.request(&Request::Shutdown).expect("shutdown B");
    b_thread.join().expect("B thread").expect("drained run returns");
    let mut a_direct = Client::connect(a_addr.as_str()).expect("connect A");
    a_direct.request(&Request::Shutdown).expect("shutdown A");
    a_thread.join().expect("A thread").expect("drained run returns");
    let _ = std::fs::remove_dir_all(&a_dir);
    let _ = std::fs::remove_dir_all(&b_dir);
}

/// A torn tail record — the crash happened mid-append — is skipped with
/// a warning on recovery; every record before it is intact.
#[test]
fn torn_journal_tail_loses_only_the_torn_record() {
    use chop_core::prelude::fault::IoFaultPlan;

    let dir = state_dir("torn-tail");
    let (mgr, _) = SessionManager::recover(1, &dir, 0).expect("fresh journaled manager");
    send(&mgr, &Request::Open { session: "kept".into(), params: open_params(SPEC, 2) })
        .expect("open kept");
    // The next append persists only 25 bytes of its record — a torn
    // write at crash time — but reports success to the dying process.
    // (Injection resets the journal's append counter, so budget 0 tears
    // the very next append.)
    mgr.inject_journal_faults(IoFaultPlan::none().fail_after(0).torn_tail(25));
    send(&mgr, &Request::Open { session: "torn".into(), params: open_params(SPEC, 1) })
        .expect("torn open still acks");
    drop(mgr);

    let (recovered, report) = SessionManager::recover(1, &dir, 0).expect("recover");
    assert_eq!(report.records_skipped, 1, "the torn record must be skipped, not fatal");
    assert_eq!(report.sessions_restored, 1);
    assert_eq!(
        recovered.stats(None).expect("stats").0,
        vec!["kept".to_owned()],
        "only the session before the torn record survives"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pair whose backend stalls must tie up only its own router jobs.
/// Pair A sits behind a proxy that black-holes every connection for a
/// few seconds and receives more concurrent requests than a pair may
/// have in flight (128); the overflow is answered `busy` at once, and
/// meanwhile a session on pair B and `router_status` answer promptly.
#[test]
fn stalled_pair_ties_up_only_its_own_router_jobs() {
    const STALL_MS: u64 = 5_000;
    const BURST: usize = 136;
    let (addr_a, server_a) = start_server(ServeConfig { workers: 1, ..ServeConfig::default() });
    let (addr_b, server_b) = start_server(ServeConfig { workers: 1, ..ServeConfig::default() });
    let proxy = ChaosProxy::start(addr_a).expect("proxy");
    for _ in 0..BURST {
        proxy.push_fault(ConnFault::StallMs(STALL_MS));
    }
    let (label_a, label_b) = (proxy.addr().to_string(), addr_b.to_string());
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            pairs: vec![
                BackendSpec { primary: label_a.clone(), standby: None },
                BackendSpec { primary: label_b.clone(), standby: None },
            ],
            // Only the request path talks to the backends here.
            health_interval: Duration::from_secs(60),
        },
    )
    .expect("bind router");
    let router_addr = router.local_addr().expect("router addr");
    let router_thread = thread::spawn(move || router.run().expect("router runs"));

    // Session names by pair, on the router's ring (64 points per pair).
    let ring = HashRing::new(vec![label_a.clone(), label_b.clone()], 64);
    let on = |label: &str| {
        (0..).map(|i| format!("s{i}")).find(|s| ring.assign_label(s) == Some(label)).unwrap()
    };
    let (session_a, session_b) = (on(&label_a), on(&label_b));

    // The burst: one connection per request, so all of them are in
    // flight at once.
    let started = Instant::now();
    let (replies, received) = std::sync::mpsc::channel();
    let readers: Vec<_> = (0..BURST)
        .map(|_| {
            let mut stream = TcpStream::connect(router_addr).expect("connect router");
            let line = Request::Stats { session: Some(session_a.clone()) }.encode();
            writeln!(stream, "{line}").expect("send");
            let replies = replies.clone();
            thread::spawn(move || {
                let mut reply = String::new();
                BufReader::new(stream).read_line(&mut reply).expect("reply");
                let reply = Response::decode(reply.trim_end()).expect("decodable reply");
                replies.send((reply, started.elapsed())).expect("collector");
            })
        })
        .collect();
    drop(replies);
    let busy = (0..BURST - 128)
        .map(|_| received.recv_timeout(Duration::from_secs(2)).expect("an immediate busy").0)
        .collect::<Vec<_>>();
    for reply in &busy {
        assert!(
            matches!(reply, Response::Busy { max_inflight: 128, .. }),
            "past its budget pair A must answer busy at once: {reply:?}"
        );
    }

    // Pair A's budget is spent and its jobs are stalled; pair B and the
    // admin path do not wait for them.
    let mut client = Client::connect(router_addr).expect("connect router");
    let opened = client
        .request(&Request::Open { session: session_b.clone(), params: open_params(SPEC, 2) })
        .expect("open on pair B");
    assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
    assert!(!explored_digest(&mut client, &session_b).is_empty());
    let status = client.request(&Request::RouterStatus).expect("router_status");
    assert!(matches!(status, Response::RouterStatus { .. }), "{status:?}");
    let served = started.elapsed();
    assert!(
        served < Duration::from_millis(STALL_MS / 2),
        "pair B and router_status waited {served:?} on pair A's stalled backend"
    );

    // Once the stall lifts, every admitted request is answered by pair A.
    for reader in readers {
        reader.join().expect("reader");
    }
    let late: Vec<_> = received.iter().collect();
    assert_eq!(late.len(), 128);
    for (reply, at) in &late {
        assert!(
            matches!(reply, Response::Error(e) if e.kind == ErrorKind::UnknownSession),
            "{reply:?}"
        );
        assert!(*at >= Duration::from_millis(STALL_MS), "answered before the stall lifted");
    }

    assert_eq!(client.request(&Request::Shutdown).expect("shutdown"), Response::ShuttingDown);
    router_thread.join().expect("router thread");
    drop(proxy);
    for (addr, handle) in [(addr_a, server_a), (addr_b, server_b)] {
        let mut direct = Client::connect(addr).expect("backend connect");
        direct.request(&Request::Shutdown).expect("backend shutdown");
        handle.join().expect("backend thread");
    }
}
