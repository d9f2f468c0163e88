//! End-to-end tests: a real server on an ephemeral port, real TCP
//! clients, and the acceptance criteria from the service design —
//! concurrent clients get digests byte-identical to in-process runs,
//! `repartition` after `explore` re-predicts only the touched partitions,
//! and `shutdown` drains the server to a clean exit.

use std::net::TcpStream;
use std::thread;

use chop_core::prelude::Heuristic;
use chop_service::{
    build_session, BackendSpec, Client, ErrorKind, ExploreParams, HashRing, OpenParams,
    Request, Response, Router, RouterConfig, ServeConfig, Server,
};

/// The five-node running example (mul feeding an add chain).
const SPEC: &str = "a = input 16\nb = input 16\np = mul a b\ns = add p a\ny = output s\n";

/// A larger spec so three partitions stay non-trivial.
const WIDE_SPEC: &str = "a = input 16\nb = input 16\nc = input 16\n\
                         p = mul a b\nq = add b c\nr = sub p q\n\
                         s = add r a\ny = output s\n";

/// Worker threads per exploration, honoring the suite-wide override.
fn test_jobs() -> usize {
    std::env::var("CHOP_TEST_JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

fn start_server(config: ServeConfig) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run().expect("server drains cleanly"));
    (addr, handle)
}

fn open_params(spec: &str, partitions: u32) -> OpenParams {
    OpenParams { spec: spec.into(), partitions, ..OpenParams::default() }
}

fn explore(client: &mut Client, session: &str) -> chop_service::RunSummary {
    let response = client
        .request(&Request::Explore {
            session: session.into(),
            params: ExploreParams::default(),
        })
        .expect("explore request");
    match response {
        Response::Explored { run, .. } => run,
        other => panic!("expected explored, got {other:?}"),
    }
}

#[test]
fn concurrent_clients_match_in_process_digests() {
    let jobs = test_jobs();
    let (addr, server) = start_server(ServeConfig {
        workers: 4,
        max_inflight: 64,
        jobs,
        ..ServeConfig::default()
    });

    // Four clients, four distinct sessions with distinct shapes, all in
    // flight at once.
    let cases: Vec<(String, &str, u32)> = (0..4)
        .map(|i| {
            let spec = if i % 2 == 0 { SPEC } else { WIDE_SPEC };
            (format!("client-{i}"), spec, 1 + i % 3)
        })
        .collect();

    let digests: Vec<(String, String)> = {
        let workers: Vec<_> = cases
            .iter()
            .cloned()
            .map(|(session, spec, partitions)| {
                thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let opened = client
                        .request(&Request::Open {
                            session: session.clone(),
                            params: open_params(spec, partitions),
                        })
                        .expect("open request");
                    assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
                    (session.clone(), explore(&mut client, &session).digest)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    };

    // Every digest must be byte-identical to an in-process run of the
    // same spec through the same construction path.
    for ((session, spec, partitions), (got_session, got_digest)) in cases.iter().zip(&digests) {
        assert_eq!(session, got_session);
        let local = build_session(&open_params(spec, *partitions), jobs)
            .expect("in-process session")
            .explore(Heuristic::Iterative)
            .expect("in-process explore");
        assert_eq!(&local.digest(), got_digest, "session {session}");
    }

    let mut client = Client::connect(addr).expect("connect for shutdown");
    let ack = client.request(&Request::Shutdown).expect("shutdown request");
    assert_eq!(ack, Response::ShuttingDown);
    server.join().expect("server thread"); // run() already asserted Ok
}

#[test]
fn repartition_after_explore_repredicts_only_touched_partitions() {
    let (addr, server) = start_server(ServeConfig {
        workers: 2,
        max_inflight: 8,
        jobs: test_jobs(),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let opened = client
        .request(&Request::Open { session: "inc".into(), params: open_params(WIDE_SPEC, 3) })
        .expect("open");
    assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");

    let before = explore(&mut client, "inc");
    assert!(before.predictor_calls > 0, "first run must predict: {before:?}");

    let stats_before =
        match client.request(&Request::Stats { session: Some("inc".into()) }).expect("stats") {
            Response::Stats { cache, .. } => cache,
            other => panic!("expected stats, got {other:?}"),
        };

    let moved = client
        .request(&Request::Repartition { session: "inc".into(), node: 3, to: 0 })
        .expect("repartition");
    assert_eq!(moved, Response::Repartitioned { session: "inc".into(), node: 3, to: 0 });

    let after = explore(&mut client, "inc");

    // Untouched partitions come from the shared cache: the re-explore
    // must hit the cache and predict strictly less than the cold run.
    assert!(after.cache_hits >= 1, "expected cache hits after repartition: {after:?}");
    assert!(
        after.predictor_calls < before.predictor_calls,
        "expected fewer predictions ({} -> {})",
        before.predictor_calls,
        after.predictor_calls
    );

    // The same delta must be visible through the stats endpoint (the
    // shared cache's lifetime counters moved by at least the run's hits).
    let stats_after =
        match client.request(&Request::Stats { session: Some("inc".into()) }).expect("stats") {
            Response::Stats { cache, last_run, .. } => {
                assert_eq!(last_run.as_ref().map(|r| &r.digest), Some(&after.digest));
                cache
            }
            other => panic!("expected stats, got {other:?}"),
        };
    assert!(
        stats_after.hits >= stats_before.hits + after.cache_hits,
        "cache hit counter must advance: {stats_before:?} -> {stats_after:?}"
    );

    assert_eq!(client.request(&Request::Shutdown).expect("shutdown"), Response::ShuttingDown);
    server.join().expect("server thread");
}

#[test]
fn saturated_server_answers_busy_not_queueing_forever() {
    // max_inflight: 0 means every explore is "one too many".
    let (addr, server) =
        start_server(ServeConfig { workers: 1, max_inflight: 0, ..ServeConfig::default() });
    let mut client = Client::connect(addr).expect("connect");
    let opened = client
        .request(&Request::Open { session: "s".into(), params: open_params(SPEC, 1) })
        .expect("open");
    assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
    let busy = client
        .request(&Request::Explore { session: "s".into(), params: ExploreParams::default() })
        .expect("explore");
    assert_eq!(busy, Response::Busy { inflight: 0, max_inflight: 0, retry_after_ms: 50 });
    assert_eq!(client.request(&Request::Shutdown).expect("shutdown"), Response::ShuttingDown);
    server.join().expect("server thread");
}

/// Live router membership: `add_pair` grows the ring and migrates exactly
/// the sessions whose consistent-hash slot moved (genesis + history via
/// `export`/`import`), `router_status` reflects the ring, `remove_pair`
/// drains the departing pair back — and every session explores to an
/// unchanged digest through the router after each change.
#[test]
fn router_membership_changes_migrate_sessions_live() {
    let jobs = test_jobs();
    let serve = || ServeConfig { workers: 2, max_inflight: 16, jobs, ..ServeConfig::default() };
    let (addr1, backend1) = start_server(serve());
    let (addr2, backend2) = start_server(serve());
    let (addr3, backend3) = start_server(serve());
    let (addr1, addr2, addr3) = (addr1.to_string(), addr2.to_string(), addr3.to_string());

    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            pairs: vec![
                BackendSpec { primary: addr1.clone(), standby: None },
                BackendSpec { primary: addr2.clone(), standby: None },
            ],
            health_interval: std::time::Duration::from_secs(30),
        },
    )
    .expect("bind router");
    let router_addr = router.local_addr().expect("router addr").to_string();
    let router_thread = thread::spawn(move || router.run().expect("router runs"));

    // Six sessions opened through the router, digests recorded while the
    // ring has two pairs.
    let mut client = Client::connect(router_addr.as_str()).expect("connect router");
    let sessions: Vec<String> = (0..6).map(|i| format!("mem-{i}")).collect();
    let mut digests = Vec::new();
    for session in &sessions {
        let opened = client
            .request(&Request::Open {
                session: session.clone(),
                params: open_params(WIDE_SPEC, 3),
            })
            .expect("open via router");
        assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
        digests.push(explore(&mut client, session).digest);
    }

    // Grow the ring. The reply lists the new membership, and the router's
    // status endpoint agrees.
    let added = client.request(&Request::AddPair { pair: addr3.clone() }).expect("add_pair");
    let Response::PairAdded { pairs } = added else { panic!("expected pair_added: {added:?}") };
    assert_eq!(pairs, vec![addr1.clone(), addr2.clone(), addr3.clone()]);
    let status = client.request(&Request::RouterStatus).expect("router_status");
    let Response::RouterStatus { pairs } = status else {
        panic!("expected status: {status:?}")
    };
    assert_eq!(pairs.len(), 3, "{pairs:?}");
    assert!(pairs[2].starts_with(&format!("{addr3}: active={addr3}")), "{pairs:?}");

    // The migration moved exactly the sessions the grown ring assigns to
    // the new label (the ring is public and deterministic, so the test
    // can compute the expectation independently).
    let grown = HashRing::new(vec![addr1.clone(), addr2.clone(), addr3.clone()], 64);
    let mut expected_on_3: Vec<String> = sessions
        .iter()
        .filter(|s| grown.assign_label(s) == Some(addr3.as_str()))
        .cloned()
        .collect();
    expected_on_3.sort();
    let sessions_on = |addr: &str| -> Vec<String> {
        let mut probe = Client::connect(addr).expect("probe backend");
        match probe.request(&Request::Stats { session: None }).expect("stats") {
            Response::Stats { sessions, .. } => sessions,
            other => panic!("expected stats, got {other:?}"),
        }
    };
    assert_eq!(sessions_on(&addr3), expected_on_3, "migrated set must match the ring");

    // Every session still answers through the router, digest unchanged —
    // the moved ones now served by the new backend from imported history.
    for (session, digest) in sessions.iter().zip(&digests) {
        assert_eq!(&explore(&mut client, session).digest, digest, "after add_pair: {session}");
    }

    // Shrink the ring again: the departing pair's sessions drain back and
    // the digests still hold.
    let removed =
        client.request(&Request::RemovePair { pair: addr3.clone() }).expect("remove_pair");
    let Response::PairRemoved { pairs } = removed else {
        panic!("expected pair_removed: {removed:?}")
    };
    assert_eq!(pairs, vec![addr1.clone(), addr2.clone()]);
    assert!(sessions_on(&addr3).is_empty(), "removed pair must be drained");
    for (session, digest) in sessions.iter().zip(&digests) {
        assert_eq!(
            &explore(&mut client, session).digest,
            digest,
            "after remove_pair: {session}"
        );
    }

    // Unknown and last-pair removals get typed errors.
    let bogus = client.request(&Request::RemovePair { pair: "nope:1".into() }).expect("reply");
    assert!(matches!(&bogus, Response::Error(e) if e.kind == ErrorKind::Spec), "{bogus:?}");

    assert_eq!(client.request(&Request::Shutdown).expect("shutdown"), Response::ShuttingDown);
    router_thread.join().expect("router thread");
    for (addr, handle) in [(addr1, backend1), (addr2, backend2), (addr3, backend3)] {
        let mut direct = Client::connect(addr.as_str()).expect("backend connect");
        direct.request(&Request::Shutdown).expect("backend shutdown");
        handle.join().expect("backend thread");
    }
}

/// A backend reaps an idle connection by writing a typed refusal and
/// closing. The router's pooled connection to it must be redialed, not
/// read: that refusal is no reply to the next request, and the closed
/// socket is no sign that the primary died.
#[test]
fn router_redials_a_backend_connection_the_backend_reaped_as_idle() {
    let (primary, primary_thread) = start_server(ServeConfig {
        workers: 1,
        idle_timeout_ms: 200,
        ..ServeConfig::default()
    });
    let (standby, standby_thread) =
        start_server(ServeConfig { workers: 1, standby: true, ..ServeConfig::default() });
    let (primary, standby) = (primary.to_string(), standby.to_string());
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            pairs: vec![BackendSpec {
                primary: primary.clone(),
                standby: Some(standby.clone()),
            }],
            // Only the request path talks to the backends here.
            health_interval: std::time::Duration::from_secs(30),
        },
    )
    .expect("bind router");
    let router_addr = router.local_addr().expect("router addr").to_string();
    let router_thread = thread::spawn(move || router.run().expect("router runs"));

    let mut client = Client::connect(router_addr.as_str()).expect("connect router");
    for i in 0..3 {
        if i > 0 {
            // Long past the backend's idle timeout.
            thread::sleep(std::time::Duration::from_millis(700));
        }
        let reply = client.request(&Request::Stats { session: None }).expect("stats");
        assert!(matches!(reply, Response::Stats { .. }), "stats {i}: {reply:?}");
    }
    let status = client.request(&Request::RouterStatus).expect("router_status");
    let Response::RouterStatus { pairs } = status else {
        panic!("expected status: {status:?}")
    };
    assert!(
        pairs[0].starts_with(&format!("{primary}: active={primary} standby={standby}")),
        "a reaped connection must not fail the pair over: {pairs:?}"
    );

    assert_eq!(client.request(&Request::Shutdown).expect("shutdown"), Response::ShuttingDown);
    router_thread.join().expect("router thread");
    for (addr, handle) in [(primary, primary_thread), (standby, standby_thread)] {
        let mut direct = Client::connect(addr.as_str()).expect("backend connect");
        direct.request(&Request::Shutdown).expect("backend shutdown");
        handle.join().expect("backend thread");
    }
}

/// A backend's per-connection rate cap counts each router client on its
/// own: every client connection forwards over backend connections of
/// its own, as it did when the router ran a thread per client.
#[test]
fn backend_rate_cap_limits_each_router_client_separately() {
    let (backend, backend_thread) = start_server(ServeConfig {
        workers: 1,
        max_requests_per_sec: 3,
        ..ServeConfig::default()
    });
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            pairs: vec![BackendSpec { primary: backend.to_string(), standby: None }],
            health_interval: std::time::Duration::from_secs(30),
        },
    )
    .expect("bind router");
    let router_addr = router.local_addr().expect("router addr").to_string();
    let router_thread = thread::spawn(move || router.run().expect("router runs"));

    let ping = |client: &mut Client| client.request(&Request::Ping).expect("ping");
    let mut first = Client::connect(router_addr.as_str()).expect("connect router");
    for i in 0..3 {
        let reply = ping(&mut first);
        assert!(matches!(reply, Response::Pong { .. }), "ping {i} within the cap: {reply:?}");
    }
    // The cap still binds each client: a fourth line in the same second
    // is refused ...
    let reply = ping(&mut first);
    assert!(matches!(reply, Response::Busy { .. }), "a fourth ping must be capped: {reply:?}");
    // ... but it is no other client's business.
    let mut second = Client::connect(router_addr.as_str()).expect("connect router");
    for i in 0..3 {
        let reply = ping(&mut second);
        assert!(matches!(reply, Response::Pong { .. }), "second client, ping {i}: {reply:?}");
    }

    assert_eq!(first.request(&Request::Shutdown).expect("shutdown"), Response::ShuttingDown);
    router_thread.join().expect("router thread");
    let mut direct = Client::connect(backend).expect("backend connect");
    direct.request(&Request::Shutdown).expect("backend shutdown");
    backend_thread.join().expect("backend thread");
}

#[test]
fn malformed_lines_get_typed_errors_and_sessions_are_isolated() {
    let (addr, server) = start_server(ServeConfig {
        workers: 1,
        max_inflight: 4,
        jobs: 1,
        ..ServeConfig::default()
    });

    // Raw socket: garbage must come back as a typed protocol error, and
    // the connection must stay usable afterwards.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut stream = TcpStream::connect(addr).expect("connect raw");
        stream.write_all(b"this is not json\n").expect("write garbage");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read error line");
        let response = Response::decode(line.trim()).expect("decodable error");
        match response {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::Protocol),
            other => panic!("expected protocol error, got {other:?}"),
        }
        stream.write_all(format!("{}\n", Request::Ping.encode()).as_bytes()).expect("ping");
        line.clear();
        reader.read_line(&mut line).expect("read pong");
        assert!(matches!(Response::decode(line.trim()), Ok(Response::Pong { .. })), "{line}");
    }

    // Typed session errors: unknown session, duplicate open.
    let mut client = Client::connect(addr).expect("connect");
    let missing = client
        .request(&Request::Explore {
            session: "ghost".into(),
            params: ExploreParams::default(),
        })
        .expect("explore ghost");
    assert!(
        matches!(&missing, Response::Error(e) if e.kind == ErrorKind::UnknownSession),
        "{missing:?}"
    );
    let open = Request::Open { session: "dup".into(), params: open_params(SPEC, 1) };
    assert!(matches!(client.request(&open).expect("open"), Response::Opened { .. }));
    let again = client.request(&open).expect("reopen");
    assert!(
        matches!(&again, Response::Error(e) if e.kind == ErrorKind::SessionExists),
        "{again:?}"
    );

    assert_eq!(client.request(&Request::Shutdown).expect("shutdown"), Response::ShuttingDown);
    server.join().expect("server thread");
}
