//! Hostile-edge tests for the epoll reactor: slow, greedy, and absent
//! clients must each be contained without disturbing anyone else.
//!
//! The happy paths (digest parity, typed errors, busy replies) live in
//! `service_e2e.rs`; this suite pokes at the readiness machinery itself
//! — slowloris drip-feeding, idle reaping, write backpressure against a
//! non-reading client, and reply ordering under pipelining — and holds
//! the `chop router` front end to the same framing rules.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use chop_service::net::MAX_LINE_BYTES;
use chop_service::{
    BackendSpec, ErrorKind, ExploreParams, OpenParams, Request, Response, Router, RouterConfig,
    ServeConfig, Server,
};

/// The five-node running example (mul feeding an add chain).
const SPEC: &str = "a = input 16\nb = input 16\np = mul a b\ns = add p a\ny = output s\n";

fn test_jobs() -> usize {
    std::env::var("CHOP_TEST_JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

fn start_server(config: ServeConfig) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run().expect("server drains cleanly"));
    (addr, handle)
}

/// A router over one backend with no standby; health pings are slowed
/// so only the request path talks to the backend.
fn start_router(
    backend: std::net::SocketAddr,
) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            pairs: vec![BackendSpec { primary: backend.to_string(), standby: None }],
            health_interval: Duration::from_secs(30),
        },
    )
    .expect("bind router");
    let addr = router.local_addr().expect("router addr");
    let handle = thread::spawn(move || router.run().expect("router drains cleanly"));
    (addr, handle)
}

fn open_params(spec: &str, partitions: u32) -> OpenParams {
    OpenParams { spec: spec.into(), partitions, ..OpenParams::default() }
}

fn encode_line(request: &Request) -> Vec<u8> {
    let mut line = request.encode();
    line.push('\n');
    line.into_bytes()
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("read reply") > 0, "unexpected EOF");
    Response::decode(line.trim()).expect("decodable reply")
}

fn shutdown_via_fresh_conn(addr: std::net::SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(&encode_line(&Request::Shutdown)).expect("send shutdown");
    assert_eq!(read_response(&mut reader), Response::ShuttingDown);
}

#[test]
fn slowloris_byte_drip_does_not_starve_other_connections() {
    let (addr, server) =
        start_server(ServeConfig { workers: 1, jobs: test_jobs(), ..ServeConfig::default() });

    // The slowloris: one ping delivered a byte at a time, ~2 s end to
    // end. A thread-per-connection server shrugs this off; a naive
    // single-threaded loop would serve nobody else until the newline.
    let drip = {
        let line = encode_line(&Request::Ping);
        let pause = Duration::from_millis(2_000 / line.len() as u64);
        thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("slow connect");
            for byte in line {
                stream.write_all(&[byte]).expect("drip one byte");
                stream.flush().expect("flush");
                thread::sleep(pause);
            }
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("slow reply");
            assert!(
                matches!(Response::decode(reply.trim()), Ok(Response::Pong { .. })),
                "the slow client still deserves its pong: {reply:?}"
            );
        })
    };

    // Meanwhile a normal client hammers pings; every one must complete
    // promptly even though the reactor is "mid-request" on the dripper.
    let mut stream = TcpStream::connect(addr).expect("fast connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut worst = Duration::ZERO;
    for _ in 0..100 {
        let started = Instant::now();
        stream.write_all(&encode_line(&Request::Ping)).expect("fast ping");
        assert!(matches!(read_response(&mut reader), Response::Pong { .. }));
        worst = worst.max(started.elapsed());
    }
    assert!(
        worst < Duration::from_millis(500),
        "a fast ping stalled {worst:?} behind a slowloris"
    );

    drip.join().expect("slow client");
    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}

#[test]
fn idle_connection_gets_typed_error_then_close_while_active_one_survives() {
    let (addr, server) = start_server(ServeConfig {
        workers: 1,
        jobs: test_jobs(),
        idle_timeout_ms: 300,
        ..ServeConfig::default()
    });

    // A steadily-active connection must outlive many timeout windows:
    // every completed request resets its idle clock. Keep it pinging
    // from a thread for the whole test so it is genuinely active while
    // the idle victim gets reaped.
    let stop = Arc::new(AtomicBool::new(false));
    let keepalive = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut active = TcpStream::connect(addr).expect("active connect");
            let mut reader = BufReader::new(active.try_clone().expect("clone"));
            let mut pongs = 0usize;
            while !stop.load(Ordering::SeqCst) {
                active.write_all(&encode_line(&Request::Ping)).expect("keepalive ping");
                assert!(matches!(read_response(&mut reader), Response::Pong { .. }));
                pongs += 1;
                thread::sleep(Duration::from_millis(100));
            }
            pongs
        })
    };

    // An idle one is reaped: one typed protocol error, then EOF — never
    // a silent vanish.
    let idle = TcpStream::connect(addr).expect("idle connect");
    idle.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let mut idle_reader = BufReader::new(idle);
    let mut line = String::new();
    idle_reader.read_line(&mut line).expect("reap notice");
    let decoded = Response::decode(line.trim()).expect("decodable reap notice");
    let Response::Error(e) = decoded else { panic!("expected error, got {decoded:?}") };
    assert_eq!(e.kind, ErrorKind::Protocol);
    assert!(e.message.contains("idle timeout"), "{}", e.message);
    line.clear();
    assert_eq!(idle_reader.read_line(&mut line).expect("eof"), 0, "must close after notice");

    // The keepalive connection survived well past the 300 ms window.
    thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::SeqCst);
    let pongs = keepalive.join().expect("keepalive thread");
    assert!(pongs >= 5, "keepalive only got {pongs} pongs before the reap finished");

    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}

#[test]
fn non_reading_client_is_backpressured_not_buffered_without_bound() {
    let (addr, server) =
        start_server(ServeConfig { workers: 1, jobs: test_jobs(), ..ServeConfig::default() });

    // 1M pipelined pings (~22 MiB of requests → ~34 MiB of replies) at
    // a client that refuses to read, with an indexed `open` every 50k
    // requests as an ordering marker. The reactor queues replies up to
    // its soft cap and then *stops reading*: pending output is bounded
    // by cap + kernel socket buffers (loopback autotuning tops out
    // around 10 MiB end to end) and the writer stalls well short of the
    // total, instead of the server buffering everything.
    const TOTAL: usize = 1_000_000;
    const MARKER_EVERY: usize = 50_000;
    let ping = encode_line(&Request::Ping);
    let mut burst: Vec<u8> = Vec::new();
    for i in 0..TOTAL {
        if i % MARKER_EVERY == 0 {
            burst.extend(encode_line(&Request::Open {
                session: format!("marker-{:02}", i / MARKER_EVERY),
                params: open_params(SPEC, 1),
            }));
        } else {
            burst.extend_from_slice(&ping);
        }
    }
    let total_bytes = burst.len();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let written = Arc::new(AtomicUsize::new(0));
    let writer_done = Arc::new(AtomicBool::new(false));
    let write_thread = {
        let written = Arc::clone(&written);
        let writer_done = Arc::clone(&writer_done);
        thread::spawn(move || {
            for chunk in burst.chunks(64 * 1024) {
                writer.write_all(chunk).expect("write burst chunk");
                written.fetch_add(chunk.len(), Ordering::SeqCst);
            }
            writer.flush().expect("flush");
            writer_done.store(true, Ordering::SeqCst);
        })
    };

    // Give the writer ample time: an unbounded server would swallow all
    // ~5.5 MiB in well under a second; a bounded one strands most of it
    // in the client thread.
    thread::sleep(Duration::from_millis(1500));
    let stalled_at = written.load(Ordering::SeqCst);
    assert!(
        !writer_done.load(Ordering::SeqCst) && stalled_at < total_bytes,
        "writer should be stalled by backpressure ({stalled_at}/{total_bytes} bytes written)"
    );

    // Start consuming: every reply arrives, in request order (markers
    // land exactly where they were sent), and the writer unwedges as
    // the queue drains.
    let mut reader = BufReader::new(stream);
    for i in 0..TOTAL {
        let reply = read_response(&mut reader);
        if i % MARKER_EVERY == 0 {
            let Response::Opened { session, .. } = reply else {
                panic!("marker {i} got {reply:?}");
            };
            assert_eq!(session, format!("marker-{:02}", i / MARKER_EVERY));
        } else {
            assert!(matches!(reply, Response::Pong { .. }), "reply {i}: {reply:?}");
        }
    }
    write_thread.join().expect("writer thread");
    assert_eq!(written.load(Ordering::SeqCst), total_bytes);

    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}

/// Sends `line` on a fresh connection while a second connection pings
/// in a loop, and returns the first connection's reply with the slowest
/// ping round trip seen until that reply arrived.
#[cfg(not(debug_assertions))]
fn worst_ping_behind(addr: std::net::SocketAddr, line: Vec<u8>) -> (Response, Duration) {
    let mut stream = TcpStream::connect(addr).expect("pinger connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(&encode_line(&Request::Ping)).expect("first ping");
    assert!(matches!(read_response(&mut reader), Response::Pong { .. }));

    let done = Arc::new(AtomicBool::new(false));
    let big = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("big connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            stream.write_all(&line).expect("send the big line");
            let reply = read_response(&mut reader);
            done.store(true, Ordering::SeqCst);
            reply
        })
    };
    let mut worst = Duration::ZERO;
    while !done.load(Ordering::SeqCst) {
        let started = Instant::now();
        stream.write_all(&encode_line(&Request::Ping)).expect("ping");
        assert!(matches!(read_response(&mut reader), Response::Pong { .. }));
        worst = worst.max(started.elapsed());
    }
    (big.join().expect("big-line client"), worst)
}

/// A request line of maximum size holds the reactor thread, which reads
/// and answers every connection, for time linear in its length and no
/// more. Case 1 is a ping padded to just under `MAX_LINE_BYTES`: its
/// decode is the whole cost. Case 2 is an `open` whose chain spec fills
/// the line at `MAX_PARTITIONS`: the manager answers `open` on the
/// reactor thread, so parsing the spec and building its partitioning is
/// work left inline, and the partition limit is what bounds it by the
/// line length. Release-only: each bound is about five times the stall
/// measured on an optimised build on 2 vCPUs (12–19 ms behind the ping,
/// 0.19–0.23 s behind the `open` of a 169,710-node chain).
#[cfg(not(debug_assertions))]
#[test]
fn max_size_line_does_not_stall_other_connections() {
    let (addr, server) =
        start_server(ServeConfig { workers: 1, jobs: test_jobs(), ..ServeConfig::default() });

    let envelope = Request::Ping.encode();
    let head = envelope.strip_suffix('}').expect("a JSON object");
    let pad = "x".repeat(MAX_LINE_BYTES - envelope.len() - 64);
    let ping = format!(r#"{head},"pad":"{pad}"}}"#) + "\n";
    assert!(ping.len() < MAX_LINE_BYTES && ping.len() > MAX_LINE_BYTES - 64);
    let ping = ping.into_bytes();
    let (reply, worst) = worst_ping_behind(addr, ping);
    assert!(matches!(reply, Response::Pong { .. }), "padded ping got {reply:?}");
    assert!(
        worst < Duration::from_millis(100),
        "a ping stalled {worst:?} behind a padded ping"
    );

    // Each chain line costs one byte more on the wire than in the spec:
    // its newline is escaped.
    let mut spec = String::from("n0 = input 16\n");
    let mut nodes = 1;
    while spec.len() + nodes < MAX_LINE_BYTES - 4096 {
        spec.push_str(&format!("n{nodes} = add n{} n0\n", nodes - 1));
        nodes += 1;
    }
    spec.push_str(&format!("y = output n{}\n", nodes - 1));
    let partitions = u32::try_from(chop_core::spec::MAX_PARTITIONS).expect("small");
    let open = encode_line(&Request::Open {
        session: "max".into(),
        params: open_params(&spec, partitions),
    });
    assert!(
        open.len() < MAX_LINE_BYTES && open.len() > MAX_LINE_BYTES - 8192,
        "{}",
        open.len()
    );
    let (reply, worst) = worst_ping_behind(addr, open);
    assert!(matches!(reply, Response::Opened { .. }), "maximum open got {reply:?}");
    assert!(worst < Duration::from_secs(1), "a ping stalled {worst:?} behind a maximum open");

    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}

#[test]
fn pipelined_mix_of_inline_and_dispatched_requests_answers_in_order() {
    let (addr, server) =
        start_server(ServeConfig { workers: 2, jobs: test_jobs(), ..ServeConfig::default() });

    // One syscall carrying open + explore + ping + explore + ping: the
    // explores park the connection in the worker pool mid-pipeline, and
    // the pings behind them must not jump the queue.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let explore = Request::Explore { session: "pipe".into(), params: ExploreParams::default() };
    let mut burst = Vec::new();
    burst.extend(encode_line(&Request::Open {
        session: "pipe".into(),
        params: open_params(SPEC, 1),
    }));
    burst.extend(encode_line(&explore));
    burst.extend(encode_line(&Request::Ping));
    burst.extend(encode_line(&explore));
    burst.extend(encode_line(&Request::Ping));
    stream.write_all(&burst).expect("pipelined burst");

    assert!(matches!(read_response(&mut reader), Response::Opened { .. }));
    let first = read_response(&mut reader);
    let Response::Explored { run: first_run, .. } = first else { panic!("{first:?}") };
    assert!(matches!(read_response(&mut reader), Response::Pong { .. }));
    let second = read_response(&mut reader);
    let Response::Explored { run: second_run, .. } = second else { panic!("{second:?}") };
    assert!(matches!(read_response(&mut reader), Response::Pong { .. }));
    assert_eq!(first_run.digest, second_run.digest, "explores are deterministic");

    stream.write_all(&encode_line(&Request::Shutdown)).expect("shutdown");
    assert_eq!(read_response(&mut reader), Response::ShuttingDown);
    server.join().expect("server thread");
}

#[test]
fn hundreds_of_concurrent_connections_are_all_served() {
    let (backend, server) =
        start_server(ServeConfig { workers: 1, jobs: test_jobs(), ..ServeConfig::default() });
    let (router, router_thread) = start_router(backend);

    // 200 connections held open at once (kept modest for CI fd limits),
    // first on the server, then on a router in front of it. Each gets
    // two pings with every other connection still live in between.
    for (target, addr) in [("server", backend), ("router", router)] {
        let mut conns: Vec<(TcpStream, BufReader<TcpStream>)> = (0..200)
            .map(|i| {
                let stream = TcpStream::connect(addr)
                    .unwrap_or_else(|e| panic!("{target} conn {i}: {e}"));
                let reader = BufReader::new(stream.try_clone().expect("clone"));
                (stream, reader)
            })
            .collect();
        for round in 0..2 {
            for (i, (stream, reader)) in conns.iter_mut().enumerate() {
                stream.write_all(&encode_line(&Request::Ping)).expect("ping");
                assert!(
                    matches!(read_response(reader), Response::Pong { .. }),
                    "{target} conn {i} round {round}"
                );
            }
        }
    }

    shutdown_via_fresh_conn(router);
    router_thread.join().expect("router thread");
    shutdown_via_fresh_conn(backend);
    server.join().expect("server thread");
}

/// The router's front end frames requests exactly like the server: an
/// oversized line and a truncated tail each get one typed `protocol`
/// refusal before the close, and a pipelined burst on one socket is
/// answered in request order.
#[test]
fn router_front_end_refuses_bad_framing_and_keeps_pipelined_order() {
    let (backend, server) =
        start_server(ServeConfig { workers: 2, jobs: test_jobs(), ..ServeConfig::default() });
    let (router, router_thread) = start_router(backend);
    let expect_refusal_then_eof = |reader: &mut BufReader<TcpStream>, needle: &str| {
        let reply = read_response(reader);
        let Response::Error(e) = reply else { panic!("expected a refusal, got {reply:?}") };
        assert_eq!(e.kind, ErrorKind::Protocol, "{}", e.message);
        assert!(e.message.contains(needle), "{}", e.message);
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("eof"), 0, "must close after refusal");
    };

    // Past the line cap with no newline: refused, never buffered on.
    let mut stream = TcpStream::connect(router).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).expect("oversized line");
    expect_refusal_then_eof(&mut reader, &format!("exceeds {MAX_LINE_BYTES} bytes"));

    // Half a request, then EOF: the lost bytes are named, not dropped.
    let stream = TcpStream::connect(router).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (&stream).write_all(b"{\"v\":1,\"type\":\"pi").expect("truncated request");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    expect_refusal_then_eof(&mut reader, "truncated request: EOF after 17 bytes");

    // Open, then ping + explore + stats in one write: the replies come
    // back in request order even though the explore is the slow one.
    let mut stream = TcpStream::connect(router).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(&encode_line(&Request::Open {
            session: "framed".into(),
            params: open_params(SPEC, 1),
        }))
        .expect("open");
    assert!(matches!(read_response(&mut reader), Response::Opened { .. }));
    let mut burst = encode_line(&Request::Ping);
    burst.extend(encode_line(&Request::Explore {
        session: "framed".into(),
        params: ExploreParams::default(),
    }));
    burst.extend(encode_line(&Request::Stats { session: Some("framed".into()) }));
    stream.write_all(&burst).expect("pipelined burst");
    let pong = read_response(&mut reader);
    assert!(matches!(pong, Response::Pong { .. }), "{pong:?}");
    let explored = read_response(&mut reader);
    assert!(matches!(explored, Response::Explored { .. }), "{explored:?}");
    let stats = read_response(&mut reader);
    assert!(matches!(stats, Response::Stats { .. }), "{stats:?}");
    drop((stream, reader));

    shutdown_via_fresh_conn(router);
    router_thread.join().expect("router thread");
    shutdown_via_fresh_conn(backend);
    server.join().expect("server thread");
}

#[test]
fn connection_refused_over_the_cap_names_the_limit() {
    let (addr, server) = start_server(ServeConfig {
        workers: 1,
        jobs: test_jobs(),
        max_connections: 8,
        ..ServeConfig::default()
    });

    let held: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("held connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            stream.write_all(&encode_line(&Request::Ping)).expect("ping");
            assert!(matches!(read_response(&mut reader), Response::Pong { .. }));
            stream
        })
        .collect();

    let ninth = TcpStream::connect(addr).expect("ninth connect");
    ninth.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let mut reader = BufReader::new(ninth);
    let mut line = String::new();
    reader.read_line(&mut line).expect("refusal");
    let decoded = Response::decode(line.trim()).expect("decodable refusal");
    let Response::Error(e) = decoded else { panic!("expected error, got {decoded:?}") };
    assert!(e.message.contains("connection limit reached (8 connections)"), "{}", e.message);
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0);

    drop(held);
    // Slots free asynchronously; retry until readmitted.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut stream = TcpStream::connect(addr).expect("retry connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        stream.write_all(&encode_line(&Request::Ping)).expect("ping");
        if matches!(read_response(&mut reader), Response::Pong { .. }) {
            break;
        }
        assert!(Instant::now() < deadline, "never readmitted after slots freed");
        thread::sleep(Duration::from_millis(50));
    }

    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}

#[test]
fn half_close_after_full_request_still_gets_the_reply() {
    // A client that sends a complete request and immediately shuts down
    // its write side (common with `echo ... | nc`) must still receive
    // the reply before the server closes.
    let (addr, server) =
        start_server(ServeConfig { workers: 1, jobs: test_jobs(), ..ServeConfig::default() });

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(&encode_line(&Request::Ping)).expect("ping");
    writer.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply after half-close");
    assert!(matches!(Response::decode(reply.trim()), Ok(Response::Pong { .. })), "{reply:?}");
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).expect("eof"), 0, "clean close after reply");
    // The stream object must stay alive until here — dropping it earlier
    // would RST the connection instead of half-closing it.
    let mut sink = Vec::new();
    let _ = reader.into_inner().read_to_end(&mut sink);

    shutdown_via_fresh_conn(addr);
    server.join().expect("server thread");
}
