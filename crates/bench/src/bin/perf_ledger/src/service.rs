//! The service workload, `serve_explore`, against a real `chop serve`
//! process started from the release `chop` binary next to this one.
//!
//! The client is one process: one thread and one connection per logged
//! connection, each a closed loop that sends its next request only after
//! the reply to the previous one arrived — how `chop client`, the router
//! and optimizer front ends call the service.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use chop_core::cache::{recommended_shards, DEFAULT_CACHE_CAPACITY};
use chop_core::{CacheStats, Heuristic, PredictionCache, Session};
use chop_dfg::parse::parse_dfg;
use chop_service::{build_session, Client, OpenParams, Request, Response, SessionManager};

use crate::designer;
use crate::gen::{self, fnv64, Kind, Line, ServiceLog};
use crate::ledger::{self, ratio, Tally, Timed};
use crate::{golden, Ctx, Report, SETUP_REPEATS};

/// Flags the benchmark's `chop serve` runs with, besides its address and
/// state directory.
const SERVE_FLAGS: [&str; 4] = ["--workers", "2", "--jobs", "1"];
/// Requests per connection the in-process replay of a traced run covers.
const IN_PROCESS_LINES: usize = 4000;
/// Requests timed for each bare round trip of a traced run.
const PROBES: usize = 200;

/// The sessions of a seed's logs, as the golden files index them (two
/// connections).
pub fn states(seed: u64) -> Vec<OpenParams> {
    gen::serve_explore_log(seed, 2).states
}

/// Expected digest hashes of every state, computed in-process on core
/// sessions (two worker threads, one shared cache) — another path than
/// the server's, which the digest contract says must agree.
pub fn reference(states: &[OpenParams]) -> Result<Vec<u64>, String> {
    let cache = Arc::new(PredictionCache::new());
    states
        .iter()
        .map(|open| {
            let session = build_session(open, 2)
                .map_err(|e| e.message)?
                .with_shared_cache(Arc::clone(&cache));
            let outcome = session.explore(Heuristic::Iterative).map_err(|e| e.to_string())?;
            Ok(fnv64(&outcome.digest()))
        })
        .collect()
}

// ---- the server ------------------------------------------------------------

/// One `chop serve` child process; dropping it kills and reaps the
/// process.
struct Server {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a journaled `chop serve` in `dir` and waits for its
    /// `listening on` banner.
    fn start(chop: &Path, dir: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let log = dir.join("server.log");
        let stderr = File::create(&log).map_err(|e| e.to_string())?;
        let mut child = Command::new(chop)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(SERVE_FLAGS)
            .arg("--state-dir")
            .arg(dir.join("server"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", chop.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("chop stdout")?);
        let mut banner = String::new();
        let _ = stdout.read_line(&mut banner);
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next()?.parse().ok());
        // Drain the rest of stdout so the child never blocks on a full pipe.
        let drain = thread::spawn(move || stdout.lines().map_while(Result::ok).for_each(drop));
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let _ = drain.join();
            return Err(format!("chop serve printed no banner (see {})", log.display()));
        };
        Ok(Server { child, addr, drain: Some(drain) })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn cache_stats(&self) -> Result<CacheStats, String> {
        let mut client = Client::connect_with_timeout(self.addr, Duration::from_secs(5))
            .map_err(|e| e.to_string())?;
        match client.request(&Request::Stats { session: None }) {
            Ok(Response::Stats { cache, .. }) => Ok(cache),
            other => Err(format!("stats failed: {other:?}")),
        }
    }

    /// Asks the server to drain over the wire; kills it if it has not
    /// exited within ten seconds.
    fn stop(mut self) {
        if let Ok(mut client) = Client::connect_with_timeout(self.addr, Duration::from_secs(2))
        {
            let _ = client.request(&Request::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// `chop` next to this executable (one target directory holds both).
fn chop_binary(exe: &Path) -> Result<PathBuf, String> {
    let chop = exe.with_file_name("chop");
    if chop.is_file() {
        Ok(chop)
    } else {
        Err(format!(
            "{} not found: build it into the same target directory (cargo build --release -p chop-cli)",
            chop.display()
        ))
    }
}

// ---- the closed-loop client ------------------------------------------------

/// One client connection speaking raw request lines.
struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Result<Wire, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        // A wedged server fails the run instead of hanging it.
        writer.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Wire { writer, reader, reply: String::new() })
    }

    /// Fails on an error reply to a set-up request.
    fn expect_ok(&self) -> Result<(), String> {
        match Response::decode(self.reply.trim_end()) {
            Ok(Response::Error(e)) => Err(format!("set-up request failed: {e}")),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("set-up reply undecodable: {e}")),
        }
    }

    /// Sends one line and reads one reply line into `self.reply`.
    fn call(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply)? {
            0 => Err(std::io::ErrorKind::UnexpectedEof.into()),
            _ => Ok(()),
        }
    }
}

/// When a connection stops sending.
#[derive(Clone, Copy)]
enum Stop {
    /// After this long (the timed phase).
    After(Duration),
    /// After this many requests (a traced replay of the timed phase).
    Count(usize),
}

/// What one connection saw.
#[derive(Default)]
struct Driven {
    /// Per request: its type, round-trip time and when its reply arrived.
    samples: Vec<(Kind, u64, Instant)>,
    /// Error replies, refusals, truncated explores and transport errors.
    failed: u64,
    /// Per explore reply: the state and its digest hash.
    explores: Vec<(u32, u64)>,
    /// The server's own engine time for those explores (`elapsed_ms`).
    engine_ns: f64,
    /// Per explore: its round trip less that engine time.
    outside_engine_ns: Vec<f64>,
}

impl Driven {
    /// Sends one line and checks its reply; false on a transport error.
    fn send(&mut self, wire: &mut Wire, line: &Line) -> bool {
        let sent = Instant::now();
        let result = wire.call(&line.text);
        let done = Instant::now();
        let rtt = nanos_between(sent, done);
        self.samples.push((line.kind, rtt, done));
        if result.is_err() {
            self.failed += 1;
            return false;
        }
        let reply = std::mem::take(&mut wire.reply);
        self.check(line, &reply, rtt);
        wire.reply = reply;
        true
    }

    /// Checks one reply; an explore's digest is kept for the golden check.
    fn check(&mut self, line: &Line, reply: &str, rtt: u64) {
        match Response::decode(reply.trim_end()) {
            Ok(Response::Explored { run, .. }) if !run.completion.is_truncated() => {
                self.explores.push((line.state.unwrap_or(u32::MAX), fnv64(&run.digest)));
                self.engine_ns += run.elapsed_ms * 1e6;
                self.outside_engine_ns.push(rtt as f64 - run.elapsed_ms * 1e6);
            }
            Ok(Response::Explored { .. } | Response::Error(_) | Response::Busy { .. })
            | Err(_) => {
                self.failed += 1;
            }
            Ok(_) => {}
        }
    }
}

/// Sends `lines`, over and over, until `stop`.
fn drive(wire: &mut Wire, lines: &[Line], stop: Stop, start: &Barrier) -> Driven {
    let mut driven = Driven::default();
    let mut sequence = lines.iter().cycle();
    start.wait();
    let started = Instant::now();
    loop {
        let over = match stop {
            Stop::After(limit) => started.elapsed() >= limit,
            Stop::Count(n) => driven.samples.len() >= n,
        };
        let Some(line) = sequence.next().filter(|_| !over) else { break };
        if !driven.send(wire, line) {
            break;
        }
    }
    driven
}

fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs every connection's timed log at once, sampling the server's CPU
/// time every [`ledger::WINDOW`] until the last connection is done;
/// returns what each connection saw and the phase's operations and CPU
/// samples.
fn timed(
    server: &Server,
    wires: &mut [Wire],
    log: &ServiceLog,
    stops: &[Stop],
) -> Result<(Vec<Driven>, Timed), String> {
    let start = Barrier::new(wires.len() + 1);
    let pid = server.pid();
    let (driven, started, cpu) = thread::scope(|scope| {
        let handles: Vec<_> = wires
            .iter_mut()
            .zip(&log.timed)
            .zip(stops)
            .map(|((wire, lines), &stop)| {
                let start = &start;
                scope.spawn(move || drive(wire, lines, stop, start))
            })
            .collect();
        let sample = || -> Result<(Instant, u64), String> {
            let ticks = ledger::cpu_ticks(&pid)?;
            Ok((Instant::now(), ticks))
        };
        let mut cpu = vec![sample()];
        start.wait();
        let started = Instant::now();
        let mut next = started + ledger::WINDOW;
        while !handles.iter().all(|h| h.is_finished()) {
            let now = Instant::now();
            if now >= next {
                cpu.push(sample());
                next += ledger::WINDOW;
            }
            thread::sleep(next.saturating_duration_since(now).min(Duration::from_millis(5)));
        }
        let driven: Vec<Driven> =
            handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        cpu.push(sample());
        (driven, started, cpu)
    });
    let cpu = cpu.into_iter().collect::<Result<Vec<_>, String>>()?;
    let ticks_before = cpu[0].1;
    let mut ops: Vec<ledger::Op> = driven
        .iter()
        .flat_map(|d| &d.samples)
        .map(|&(_, latency_ns, done)| ledger::Op {
            done_ns: nanos_between(started, done),
            latency_ns,
        })
        .collect();
    ops.sort_by_key(|op| op.done_ns);
    // The first sample, taken just before the start, reads as (0, 0).
    let cpu = cpu.iter().map(|&(at, ticks)| (nanos_between(started, at), ticks - ticks_before));
    Ok((driven, Timed { ops, cpu: cpu.collect(), peak_rss_kib: 0 }))
}

// ---- runs ------------------------------------------------------------------

/// A set-up server with its connections.
struct Live {
    server: Server,
    wires: Vec<Wire>,
}

/// Set-up: start the server, connect, and send each connection's set-up
/// requests (session opens and warm explores).
fn set_up(ctx: &Ctx, index: usize, log: &ServiceLog) -> Result<Live, String> {
    let dir = ctx.out.join(format!("server{index}"));
    let server = Server::start(&chop_binary(&ctx.exe)?, &dir)?;
    let mut wires = (0..ctx.connections)
        .map(|_| Wire::connect(server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    // A ping first: a connection counts as set up once the server has
    // accepted it and answered.
    let ping = format!("{}\n", Request::Ping.encode());
    for (wire, lines) in wires.iter_mut().zip(&log.setup) {
        for text in std::iter::once(&ping).chain(lines.iter().map(|l| &l.text)) {
            wire.call(text).map_err(|e| e.to_string())?;
            wire.expect_ok()?;
        }
    }
    Ok(Live { server, wires })
}

/// Per request type (indexed by [`Kind::index`]), every round-trip time
/// of a pass (ns).
fn per_kind(driven: &[Driven]) -> [Vec<f64>; 4] {
    let mut rtts: [Vec<f64>; 4] = Default::default();
    for &(kind, rtt, _) in driven.iter().flat_map(|d| &d.samples) {
        rtts[kind.index()].push(rtt as f64);
    }
    rtts
}

/// Mean round trip, in ns, of [`PROBES`] copies of `request` sent one
/// at a time.
fn probe(wire: &mut Wire, request: &Request) -> Result<f64, String> {
    let line = format!("{}\n", request.encode());
    let start = Instant::now();
    for _ in 0..PROBES {
        wire.call(&line).map_err(|e| e.to_string())?;
    }
    Ok(start.elapsed().as_nanos() as f64 / PROBES as f64)
}

/// A service run: the logs, generated and written once; [`SETUP_REPEATS`]
/// set-ups (all but the last torn down at once); the timed phase; then
/// the digest check; with `--trace`, the traced passes of [`trace`].
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let log = gen::serve_explore_log(ctx.seed, ctx.connections);
    for (name, text) in log.files() {
        gen::write_fresh(&ctx.out.join(name), &text)?;
    }
    let mut setup_s = Vec::new();
    let mut live = None;
    for index in 0..SETUP_REPEATS {
        if let Some(Live { server, .. }) = live.take() {
            server.stop();
        }
        let start = Instant::now();
        live = Some(set_up(ctx, index, &log)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Live { server, mut wires } = live.ok_or("no set-up ran")?;
    let cache_before = server.cache_stats()?;
    let stops = vec![Stop::After(Duration::from_secs_f64(ctx.seconds)); wires.len()];
    let (driven, mut timed) = timed(&server, &mut wires, &log, &stops)?;
    timed.peak_rss_kib = ledger::peak_rss_kib(&server.pid())?;
    let cache = server.cache_stats()?.since(&cache_before);
    drop(wires);
    server.stop();

    let expected = match golden::load(ctx.workload.name(), ctx.seed)? {
        Some(hashes) => hashes,
        None => reference(&log.states)?,
    };
    let mut report = Report {
        setup_s,
        attempted: 0,
        failed: 0,
        layers: None,
        timed,
        notes: vec![
            ("connections".to_owned(), ctx.connections.to_string()),
            ("client_threads".to_owned(), ctx.connections.to_string()),
            ("server_flags".to_owned(), SERVE_FLAGS.join(" ")),
            (
                "log_bytes".to_owned(),
                log.files().iter().map(|f| f.1.len()).sum::<usize>().to_string(),
            ),
        ],
    };
    account(&mut report, &driven, &expected);
    if ctx.trace {
        let counts: Vec<usize> = driven.iter().map(|d| d.samples.len()).collect();
        let untraced = per_kind(&driven);
        report.layers =
            Some(trace(ctx, &log, &counts, &untraced, &cache, &expected, &mut report)?);
    }
    Ok(report)
}

/// Adds a pass's requests to the report, failing every error reply and
/// every explore whose digest differs from the expected one.
fn account(report: &mut Report, driven: &[Driven], expected: &[u64]) {
    for d in driven {
        report.attempted += d.samples.len() as u64;
        report.failed += d.failed;
        report.failed += d
            .explores
            .iter()
            .filter(|&&(state, hash)| expected.get(state as usize) != Some(&hash))
            .count() as u64;
    }
}

/// The traced passes of a service run, each on a freshly set-up server:
///
/// * the timed phase's requests again, under the same load, timing each
///   request type;
/// * the first [`IN_PROCESS_LINES`] requests of each connection, one at a
///   time, each followed by the same request in-process, one layer call
///   at a time (see [`in_process`]); then the bare round trips of an
///   inline request (`ping`) and of a pool-dispatched one (`explore` of a
///   missing session).
///
/// The layers must explain the one-at-a-time round trips: their sum over
/// those requests is `trace.attributed_share`, where an explore's engine
/// time is the one its reply reports. Under load requests also wait for
/// CPUs, which the per-type `net.residual_us` shows.
fn trace(
    ctx: &Ctx,
    log: &ServiceLog,
    counts: &[usize],
    untraced: &[Vec<f64>; 4],
    cache: &CacheStats,
    expected: &[u64],
    report: &mut Report,
) -> Result<Vec<(String, f64)>, String> {
    let Live { server, mut wires } = set_up(ctx, SETUP_REPEATS, log)?;
    let stops: Vec<Stop> = counts.iter().map(|&n| Stop::Count(n)).collect();
    let (loaded, _) = timed(&server, &mut wires, log, &stops)?;
    drop(wires);
    server.stop();
    account(report, &loaded, expected);
    let loaded = per_kind(&loaded);

    let Live { server, mut wires } = set_up(ctx, SETUP_REPEATS + 1, log)?;
    let prefix: Vec<usize> = counts.iter().map(|&n| n.min(IN_PROCESS_LINES)).collect();
    let (serial, t) = in_process(ctx, log, &prefix, &mut wires[0], expected, report)?;
    let ping = probe(&mut wires[0], &Request::Ping)?;
    let pool = probe(&mut wires[0], &gen::explore_request("perf_ledger.missing"))?;
    drop(wires);
    server.stop();
    account(report, &serial, expected);
    let engine: f64 = serial.iter().map(|d| d.engine_ns).sum();
    let outside_engine: Vec<f64> =
        serial.iter().flat_map(|d| d.outside_engine_ns.clone()).collect();
    let serial = per_kind(&serial);

    let us = |ns: f64| ns / 1e3;
    let mut m: Vec<(String, f64)> = Vec::new();
    // The engine's time is the server's own, read from its replies; the
    // rest of a request is compared typical to typical (medians), so a
    // rare disk or scheduler stall does not count as an unmeasured layer.
    let (mut attributed, mut total) = (engine, engine);
    let mut worst = (0.0, Kind::Explore);
    for kind in Kind::TIMED {
        let (k, i) = (kind.name(), kind.index());
        let in_process = t.median(&format!("in_process_ns.{k}"));
        m.push((format!("protocol.decode_us.{k}"), us(t.median(&format!("decode_ns.{k}")))));
        m.push((format!("protocol.encode_us.{k}"), us(t.median(&format!("encode_ns.{k}")))));
        m.push((format!("manager.dispatch_us.{k}"), us(t.median(&format!("dispatch_ns.{k}")))));
        m.push((format!("manager.self_us.{k}"), us(t.median(&format!("self_ns.{k}")))));
        let residual =
            if loaded[i].is_empty() { 0.0 } else { ledger::median(&loaded[i]) - in_process };
        m.push((format!("net.residual_us.{k}"), us(residual)));
        // In-process layer costs plus the bare round trip of the same path.
        let n = serial[i].len() as f64;
        let (explained, typical) = if kind == Kind::Explore {
            (t.median(&format!("layers_ns.{k}")) + pool, ledger::median(&outside_engine))
        } else {
            (in_process + ping, ledger::median(&serial[i]))
        };
        attributed += n * explained;
        total += n * typical;
        if n * (typical - explained) > worst.0 {
            worst = (n * (typical - explained), kind);
        }
    }
    let share = ratio(attributed, total);
    if share < 0.9 {
        eprintln!(
            "perf_ledger: {}: only {share:.2} of the traced time is attributed; largest gap: {} ({:.0} us per request)",
            ctx.workload.name(),
            worst.1.name(),
            us(ratio(worst.0, serial[worst.1.index()].len() as f64))
        );
    }
    let mean_rtt = |rtts: &[Vec<f64>; 4]| {
        let all: Vec<f64> = rtts.iter().flatten().copied().collect();
        ratio(all.iter().sum(), all.len() as f64)
    };
    let overhead = mean_rtt(&loaded) / mean_rtt(untraced) - 1.0;
    let ops = t.get("ops");
    m.extend(ledger::bad_metrics(&t).into_iter().map(|(k, v)| (k.to_owned(), v)));
    // The mirrors' engine trace, but the predictor calls the server
    // itself made in the timed phase.
    m.extend(
        ledger::engine_metrics(&t)
            .into_iter()
            .filter(|(k, _)| *k != "engine.predictor_calls_per_op")
            .map(|(k, v)| (k.to_owned(), v)),
    );
    m.extend(
        [
            ("dfg.parse_us", us(t.get("parse_ns") / ops)),
            ("dfg.nodes_per_ms", ratio(t.get("nodes"), t.get("parse_ns") / 1e6)),
            ("spec.build_us", us(t.get("build_ns") / ops)),
            ("cache.hit_ratio", ratio(cache.hits as f64, (cache.hits + cache.misses) as f64)),
            (
                "cache.evictions_per_op",
                ratio(cache.evictions as f64, untraced.iter().flatten().count() as f64),
            ),
            ("cache.entries", cache.entries as f64),
            // The server's own count, from the timed phase's replies.
            (
                "engine.predictor_calls_per_op",
                ratio(cache.misses as f64, untraced[Kind::Explore.index()].len() as f64),
            ),
            ("protocol.request_bytes", t.ratio("request_bytes", "ops")),
            ("protocol.response_bytes", t.ratio("response_bytes", "ops")),
            ("net.ping_rtt_us", us(ping)),
            ("net.pool_rtt_us", us(pool)),
            ("trace.attributed_share", share),
            ("trace.overhead_ratio", overhead),
        ]
        .map(|(k, v)| (k.to_owned(), v)),
    );
    Ok(m)
}

/// Sends each connection's first `counts` requests one at a time over
/// `wire`, and replays each right after its reply in-process through the
/// program's layers, one call at a time, into a tally: back to back, so
/// the two see the host in the same state.
fn in_process(
    ctx: &Ctx,
    log: &ServiceLog,
    counts: &[usize],
    wire: &mut Wire,
    expected: &[u64],
    report: &mut Report,
) -> Result<(Vec<Driven>, Tally), String> {
    let dir = ctx.out.join("in-process");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = || {
        Arc::new(PredictionCache::with_config(DEFAULT_CACHE_CAPACITY, recommended_shards(2)))
    };
    // Journaled with jobs 1, as the server runs; eight opens never reach
    // journal compaction.
    let manager = SessionManager::recover_with_cache(1, &dir, 0, cache())
        .map(|(m, _)| m)
        .map_err(|e| e.to_string())?;
    let mut replay =
        Replay { manager, mirror: HashMap::new(), cache: cache(), seen: HashSet::new() };
    let mut t = Tally::default();
    for setup in &log.setup {
        for line in setup {
            replay.step(line, &mut Tally::default(), false)?;
        }
    }
    let mut serial = Vec::new();
    for (timed, &count) in log.timed.iter().zip(counts) {
        let mut driven = Driven::default();
        for line in timed.iter().cycle().take(count) {
            if !driven.send(wire, line) {
                break;
            }
            let digest = replay.step(line, &mut t, true)?;
            report.attempted += 1;
            if let Some(hash) = digest {
                if expected.get(line.state.unwrap_or(u32::MAX) as usize) != Some(&hash) {
                    report.failed += 1;
                }
            }
        }
        serial.push(driven);
    }
    Ok((serial, t))
}

/// The in-process stand-ins of a traced replay.
struct Replay {
    manager: SessionManager,
    /// Core sessions mirroring the manager's (with their multi-cycle
    /// flag), for the engine trace.
    mirror: HashMap<String, (Session, bool)>,
    cache: Arc<PredictionCache>,
    /// Explore states whose partitions BAD was already timed on.
    seen: HashSet<u32>,
}

impl Replay {
    /// Replays one request through every layer; records into `t` only
    /// when `timed`. Returns an explore's digest hash.
    fn step(&mut self, line: &Line, t: &mut Tally, timed: bool) -> Result<Option<u64>, String> {
        let k = line.kind.name();
        let text = line.text.trim_end();
        let start = Instant::now();
        let (request, req_id) = Request::decode_tagged(text).map_err(|e| e.to_string())?;
        let decode = elapsed_ns(start);
        let start = Instant::now();
        let response = self.manager.dispatch_tagged(&request, req_id.as_deref());
        let dispatch = elapsed_ns(start);
        let start = Instant::now();
        let encoded = response.encode();
        let encode = elapsed_ns(start);
        let (engine, digest) = match &response {
            Response::Explored { run, .. } => (run.elapsed_ms * 1e6, Some(fnv64(&run.digest))),
            Response::Error(e) => return Err(format!("in-process {k} failed: {e}")),
            _ => (0.0, None),
        };
        t.sample(&format!("decode_ns.{k}"), decode);
        t.sample(&format!("dispatch_ns.{k}"), dispatch);
        t.sample(&format!("encode_ns.{k}"), encode);
        t.sample(&format!("in_process_ns.{k}"), decode + dispatch + encode);
        t.sample(&format!("layers_ns.{k}"), decode + dispatch - engine + encode);
        // The manager's own share: the engine's time is in the reply.
        t.sample(&format!("self_ns.{k}"), dispatch - engine);
        t.add("ops", 1.0);
        t.add("request_bytes", line.text.len() as f64);
        t.add("response_bytes", encoded.len() as f64 + 1.0);
        self.mirror_step(line, &request, t, timed)?;
        Ok(digest)
    }

    /// Keeps the mirror sessions in step and traces their explores.
    fn mirror_step(
        &mut self,
        line: &Line,
        request: &Request,
        t: &mut Tally,
        timed: bool,
    ) -> Result<(), String> {
        match request {
            Request::Open { session, params } => {
                let start = Instant::now();
                let spec = parse_dfg(&params.spec).map_err(|e| e.to_string())?;
                let parsed = elapsed_ns(start);
                let start = Instant::now();
                let built = build_session(params, 1)
                    .map_err(|e| e.message)?
                    .with_shared_cache(Arc::clone(&self.cache));
                t.add("parse_ns", parsed);
                t.add("nodes", spec.len() as f64);
                t.add("build_ns", (elapsed_ns(start) - parsed).max(0.0));
                self.mirror.insert(session.clone(), (built, params.multi_cycle));
            }
            Request::Explore { session, params } => {
                let (mirrored, multi_cycle) =
                    self.mirror.get(session).ok_or("explore of an unknown session")?;
                let start = Instant::now();
                let outcome = mirrored.explore(params.heuristic).map_err(|e| e.to_string())?;
                ledger::add_explore(t, &outcome, elapsed_ns(start));
                let state = line.state.unwrap_or(u32::MAX);
                if timed && self.seen.insert(state) {
                    designer::direct_bad(mirrored, *multi_cycle, t)?;
                }
            }
            _ => {}
        }
        Ok(())
    }
}

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}
