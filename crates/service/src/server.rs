//! The TCP server: an epoll reactor for all I/O, a worker pool for all
//! search CPU.
//!
//! Architecture (one box per thread — note there is exactly *one* I/O
//! thread no matter how many clients are connected):
//!
//! ```text
//!        reactor thread (run)                      worker pool
//!   ┌───────────────────────────────┐        ┌─────────────────────┐
//!   │ epoll over listener + every   │ explore│ N threads drain     │
//!   │ connection + eventfd doorbell;├───────▶│ exploration jobs;   │
//!   │ nonblocking accept, NDJSON    │        │ completions go back │
//!   │ framing, cheap requests       │◀───────┤ through a queue +   │
//!   │ answered inline, replies      │ eventfd│ eventfd wakeup      │
//!   │ queued with EPOLLOUT re-arm   │        └─────────────────────┘
//!   └───────────────────────────────┘
//! ```
//!
//! * **Scaling** — an idle connection costs a hash-map entry and an
//!   epoll registration, not a thread and 10 wakeups/second. `chop
//!   router` runs on the same reactor and pool, so this is the one
//!   serving core of both front ends.
//! * **Backpressure** — an `explore` is admitted only while fewer than
//!   `max_inflight` explorations are queued or running; past that the
//!   client gets a typed [`Response::Busy`] immediately. A client that
//!   stops *reading* gets per-connection backpressure instead: its
//!   output queue caps, its reads pause, and its memory stays bounded.
//! * **Panic isolation** — the reactor handles every request under
//!   `catch_unwind`, and the pool runs every job under it again, so one
//!   poisoned request produces one `internal` error response and the
//!   server keeps serving.
//! * **Graceful drain** — a `shutdown` request trips a [`ShutdownGate`]; the
//!   reactor stops accepting and reading, answers what is buffered
//!   (waiting out dispatched explorations), flushes and closes every
//!   connection, and [`Server::run`] returns `Ok(())` (the CLI maps
//!   that to exit 0). There is no in-process SIGINT hook (that would
//!   need signal-handler state here); embedders wire one to
//!   [`Server::shutdown_handle`].

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chop_core::prelude::{
    load_snapshot, recommended_shards, write_snapshot, PredictionCache, SnapshotLoaded,
    DEFAULT_CACHE_CAPACITY,
};

use crate::manager::{RecoveryReport, SessionManager};
use crate::net::reactor::{LineHandler, LineOutcome, Reactor, ReactorConfig};
use crate::net::ShutdownGate;
use crate::pool::{Admission, WorkerPool};
use crate::protocol::{Request, Response};
use crate::replication::Replicator;

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads running explorations.
    pub workers: usize,
    /// Maximum explorations queued or running before `busy` replies.
    pub max_inflight: usize,
    /// Default per-exploration thread count (a request's `jobs` field
    /// overrides it).
    pub jobs: usize,
    /// Directory for the write-ahead session journal. `None` keeps every
    /// session purely in memory (the pre-journal behavior).
    pub state_dir: Option<PathBuf>,
    /// Journal records tolerated before a compaction snapshot rewrites
    /// the log down to the live sessions. 0 disables compaction.
    pub snapshot_every: usize,
    /// Run as a warm standby: refuse direct mutations, accept state over
    /// the replication stream until promoted.
    pub standby: bool,
    /// The symmetric replication peer at this `host:port`: ship to it
    /// while primary, park (and accept its stream) while standby —
    /// combined with `standby` for the initial role, this is what makes
    /// a restarted fenced primary rejoin as a standby automatically.
    pub peer: Option<String>,
    /// Concurrent connections accepted before new ones are refused with
    /// a typed error (the reactor happily holds tens of thousands; this
    /// caps fd usage).
    pub max_connections: usize,
    /// Idle connections are closed — typed error first — after this
    /// many milliseconds without a completed request. 0 disables
    /// reaping.
    pub idle_timeout_ms: u64,
    /// Request lines admitted per connection per second; lines past the
    /// cap are answered with a typed `busy` reply (its `retry_after_ms`
    /// is the window's remaining lifetime) and the connection stays
    /// open. 0 disables the cap.
    pub max_requests_per_sec: u32,
    /// Path of the prediction-cache snapshot file: loaded at startup
    /// (warm-starting the cache) and rewritten on graceful drain and
    /// every [`cache_snapshot_every`](ServeConfig::cache_snapshot_every)
    /// insertions. `None` keeps the cache purely in memory.
    pub cache_snapshot: Option<PathBuf>,
    /// Cache insertions between periodic snapshot rewrites. 0 disables
    /// the periodic cadence (the graceful-drain write still happens).
    pub cache_snapshot_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_inflight: 64,
            jobs: 1,
            state_dir: None,
            snapshot_every: 1024,
            standby: false,
            peer: None,
            max_connections: 4096,
            idle_timeout_ms: 600_000,
            max_requests_per_sec: 0,
            cache_snapshot: None,
            cache_snapshot_every: 256,
        }
    }
}

/// A bound, not-yet-running service instance.
pub struct Server {
    listener: TcpListener,
    manager: Arc<SessionManager>,
    shutdown: Arc<ShutdownGate>,
    config: ServeConfig,
    recovery: Option<RecoveryReport>,
    cache_warmed: Option<SnapshotLoaded>,
    /// Chaos-only "power cord": when set, the reactor severs every
    /// connection and returns immediately — no drain, no journal
    /// ceremony — simulating `kill -9` inside one test process.
    #[cfg(feature = "fault-inject")]
    kill: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener. Pass port 0 to let the OS pick one (read it
    /// back with [`local_addr`](Server::local_addr)).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Self> {
        // Size the lock stripe to the most threads that can be in the
        // cache at once: `workers` concurrent explores, each running
        // `jobs` prediction threads.
        let shards = recommended_shards(config.workers.max(1) * config.jobs.max(1));
        let cache = Arc::new(PredictionCache::with_config(DEFAULT_CACHE_CAPACITY, shards));
        // Warm-start before journal replay arms: replayed sessions share
        // this cache, so their first explores hit the restored entries.
        let cache_warmed = match &config.cache_snapshot {
            None => None,
            Some(path) => Some(load_snapshot(path, &cache)?),
        };
        let (manager, recovery) = match &config.state_dir {
            None => (SessionManager::new_with_cache(config.jobs, cache), None),
            Some(dir) => {
                let (manager, report) = SessionManager::recover_with_cache(
                    config.jobs,
                    dir,
                    config.snapshot_every,
                    cache,
                )?;
                (manager, Some(report))
            }
        };
        // A journaled role_change (recovery replayed it above) outranks
        // the configured starting role: a node that crashed fenced must
        // come back fenced, whatever its command line says.
        if config.standby && manager.epoch() == 0 && !manager.is_fenced() {
            manager.mark_standby();
        }
        let listener = TcpListener::bind(addr)?;
        // The advertised address rides on outgoing replication traffic
        // so a refusing peer can dial us back (resync after fencing).
        if let Ok(local) = listener.local_addr() {
            manager.set_advertised(local.to_string());
        }
        Ok(Self {
            listener,
            manager: Arc::new(manager),
            shutdown: Arc::new(ShutdownGate::new()),
            config,
            recovery,
            cache_warmed,
            #[cfg(feature = "fault-inject")]
            kill: Arc::new(AtomicBool::new(false)),
        })
    }

    /// What journal recovery restored at bind time; `None` without a
    /// `state_dir`.
    #[must_use]
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// What the cache snapshot restored at bind time; `None` without a
    /// `cache_snapshot` path.
    #[must_use]
    pub fn cache_warm_report(&self) -> Option<SnapshotLoaded> {
        self.cache_warmed
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The session manager (shared with every connection).
    #[must_use]
    pub fn manager(&self) -> Arc<SessionManager> {
        Arc::clone(&self.manager)
    }

    /// The drain gate: tripping it makes [`run`](Server::run) stop
    /// accepting, drain and return. The wire `shutdown` request trips the
    /// same gate; this handle exists for embedders (e.g. a signal hook).
    /// The reactor re-checks it at least every poll interval.
    #[must_use]
    pub fn shutdown_handle(&self) -> Arc<ShutdownGate> {
        Arc::clone(&self.shutdown)
    }

    /// The chaos kill switch (chaos tests only): storing `true` makes
    /// [`run`](Server::run) sever every live connection and return
    /// without draining — the in-process equivalent of `kill -9`.
    #[cfg(feature = "fault-inject")]
    #[must_use]
    pub fn kill_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.kill)
    }

    /// Serves until a `shutdown` request (or the
    /// [`shutdown_handle`](Server::shutdown_handle)) drains the server.
    ///
    /// # Errors
    ///
    /// Only fatal listener/epoll errors; per-connection and per-request
    /// failures are answered on the wire, never returned here.
    pub fn run(self) -> std::io::Result<()> {
        let mut replicator = self
            .config
            .peer
            .as_ref()
            .map(|addr| Replicator::start(Arc::clone(&self.manager), addr.clone()));
        let dispatch = Dispatch {
            manager: Arc::clone(&self.manager),
            pool: WorkerPool::new(self.config.workers)?,
            admission: Arc::new(Admission::new(self.config.max_inflight)),
            shutdown: Arc::clone(&self.shutdown),
        };
        let idle_timeout = (self.config.idle_timeout_ms > 0)
            .then(|| Duration::from_millis(self.config.idle_timeout_ms));
        let reactor = Reactor::new(
            self.listener,
            dispatch.pool.completions(),
            Arc::clone(&self.shutdown),
            #[cfg(feature = "fault-inject")]
            Some(Arc::clone(&self.kill)),
            #[cfg(not(feature = "fault-inject"))]
            None,
            ReactorConfig {
                max_connections: self.config.max_connections,
                idle_timeout,
                max_requests_per_sec: (self.config.max_requests_per_sec > 0)
                    .then_some(self.config.max_requests_per_sec),
            },
        )?;
        // Periodic cache snapshots: a sidecar thread re-persists the
        // prediction cache whenever enough insertions accumulated, so
        // even an ungraceful death warm-starts from a recent snapshot.
        let snapshot_stop = Arc::new(AtomicBool::new(false));
        let snapshot_thread = self.config.cache_snapshot.clone().map(|path| {
            let cache = self.manager.shared_cache();
            let stop = Arc::clone(&snapshot_stop);
            let every = self.config.cache_snapshot_every;
            std::thread::spawn(move || {
                let mut persisted = cache.insertions();
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(100));
                    if every > 0 && cache.insertions().saturating_sub(persisted) >= every {
                        match write_snapshot(&path, &cache) {
                            // Re-read after the write: inserts that raced
                            // the export are re-persisted next round.
                            Ok(_) => persisted = cache.insertions(),
                            Err(e) => {
                                eprintln!("chop-service: cache snapshot failed: {e}");
                            }
                        }
                    }
                }
            })
        });
        let stop_snapshots = |final_write: bool| {
            snapshot_stop.store(true, Ordering::SeqCst);
            if let Some(thread) = snapshot_thread {
                let _ = thread.join();
            }
            if final_write {
                if let Some(path) = &self.config.cache_snapshot {
                    if let Err(e) = write_snapshot(path, &self.manager.shared_cache()) {
                        eprintln!("chop-service: final cache snapshot failed: {e}");
                    }
                }
            }
        };
        let result = reactor.run(&dispatch);
        if let Some(replicator) = replicator.as_mut() {
            replicator.stop();
        }
        #[cfg(feature = "fault-inject")]
        if self.kill.load(Ordering::SeqCst) {
            // Simulated kill -9: abandon queued work instead of
            // draining the pool, exactly like the process dying — and
            // skip the drain-time snapshot (the periodic one on disk is
            // what a restart warm-starts from).
            stop_snapshots(false);
            return result;
        }
        dispatch.pool.shutdown();
        // Graceful drain: persist the cache exactly once more, after the
        // pool finished every in-flight explore.
        stop_snapshots(true);
        result
    }
}

/// Request semantics on top of the reactor: decode, route, reply.
/// Everything here must return promptly — the reactor thread is every
/// connection's I/O thread — so exploration goes to the pool and hands
/// its reply back through the completion queue.
struct Dispatch {
    manager: Arc<SessionManager>,
    pool: WorkerPool,
    admission: Arc<Admission>,
    shutdown: Arc<ShutdownGate>,
}

impl LineHandler for Dispatch {
    /// Decodes and dispatches: `shutdown` trips the drain gate,
    /// `explore` and `optimize` go through admission control and the
    /// worker pool, everything else is answered inline by the manager.
    fn handle_line(&self, conn: u64, line: &str) -> LineOutcome {
        let (request, req_id) = match Request::decode_tagged(line) {
            Ok(decoded) => decoded,
            Err(e) => return LineOutcome::Reply(Response::Error(e)),
        };
        let label = match request {
            Request::Shutdown => {
                self.shutdown.trigger();
                return LineOutcome::Reply(Response::ShuttingDown);
            }
            Request::Explore { .. } => "exploration",
            Request::Optimize { .. } => "optimization",
            other => {
                return LineOutcome::Reply(
                    self.manager.dispatch_tagged(&other, req_id.as_deref()),
                )
            }
        };
        // Explore and optimize are CPU-bound, so they share the pool and
        // the admission window. The full request is dispatched through
        // the manager inside the job: that is where standby refusal,
        // `req_id` dedup and journaling of an accepted optimize live.
        let Some(token) = self.admission.try_acquire() else {
            return LineOutcome::Reply(self.admission.busy_reply());
        };
        let manager = Arc::clone(&self.manager);
        self.pool.submit(conn, label, move || {
            let _token = token;
            manager.dispatch_tagged(&request, req_id.as_deref())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::MAX_LINE_BYTES;
    use crate::protocol::{ErrorKind, ServiceError};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn roundtrip(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        req: &Request,
    ) -> Response {
        let mut line = req.encode();
        line.push('\n');
        stream.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::decode(reply.trim()).unwrap()
    }

    #[test]
    fn ping_shutdown_drains_cleanly() {
        let server =
            Server::bind("127.0.0.1:0", ServeConfig { workers: 1, ..ServeConfig::default() })
                .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert!(matches!(
            roundtrip(&mut stream, &mut reader, &Request::Ping),
            Response::Pong { version: crate::protocol::PROTOCOL_VERSION, .. }
        ));
        // A malformed line gets a typed error, not a dropped connection.
        stream.write_all(b"this is not json\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(matches!(
            Response::decode(reply.trim()).unwrap(),
            Response::Error(ServiceError { kind: ErrorKind::Protocol, .. })
        ));
        assert_eq!(
            roundtrip(&mut stream, &mut reader, &Request::Shutdown),
            Response::ShuttingDown
        );
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_line_gets_protocol_error_then_close() {
        let server =
            Server::bind("127.0.0.1:0", ServeConfig { workers: 1, ..ServeConfig::default() })
                .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // Stream just past the limit with no newline: the server must
        // answer with a typed protocol error and close, not buffer on.
        let blob = vec![b'x'; MAX_LINE_BYTES + 1];
        stream.write_all(&blob).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(matches!(
            Response::decode(reply.trim()).unwrap(),
            Response::Error(ServiceError { kind: ErrorKind::Protocol, .. })
        ));
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "connection must be closed");
        // The server itself keeps serving: shut it down over a fresh
        // connection.
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(
            roundtrip(&mut stream, &mut reader, &Request::Shutdown),
            Response::ShuttingDown
        );
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn zero_max_inflight_reports_busy() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig { workers: 1, max_inflight: 0, ..ServeConfig::default() },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let explore = Request::Explore {
            session: "any".into(),
            params: crate::protocol::ExploreParams::default(),
        };
        assert_eq!(
            roundtrip(&mut stream, &mut reader, &explore),
            Response::Busy { inflight: 0, max_inflight: 0, retry_after_ms: 50 }
        );
        roundtrip(&mut stream, &mut reader, &Request::Shutdown);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn truncated_request_gets_protocol_error_not_silent_close() {
        let server =
            Server::bind("127.0.0.1:0", ServeConfig { workers: 1, ..ServeConfig::default() })
                .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());
        {
            // Send half a request, then half-close the write side: the
            // server must answer with a typed protocol error, not vanish.
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            writer.write_all(b"{\"v\":1,\"type\":\"pi").unwrap();
            writer.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let decoded = Response::decode(reply.trim()).unwrap();
            let Response::Error(e) = decoded else { panic!("{decoded:?}") };
            assert_eq!(e.kind, ErrorKind::Protocol);
            assert!(e.message.contains("truncated"), "{}", e.message);
        }
        // An oversized line that *does* end in a newline is refused the
        // same way, never parsed.
        {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut blob = vec![b' '; MAX_LINE_BYTES + 1];
            *blob.last_mut().unwrap() = b'\n';
            writer.write_all(&blob).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert!(matches!(
                Response::decode(reply.trim()).unwrap(),
                Response::Error(ServiceError { kind: ErrorKind::Protocol, .. })
            ));
            reply.clear();
            assert_eq!(reader.read_line(&mut reply).unwrap(), 0);
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        roundtrip(&mut stream, &mut reader, &Request::Shutdown);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server =
            Server::bind("127.0.0.1:0", ServeConfig { workers: 2, ..ServeConfig::default() })
                .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // A burst of pings written as one syscall must come back as
        // exactly that many pongs, in order, on one connection.
        let mut burst = String::new();
        for _ in 0..64 {
            burst.push_str(&Request::Ping.encode());
            burst.push('\n');
        }
        stream.write_all(burst.as_bytes()).unwrap();
        for i in 0..64 {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert!(
                matches!(Response::decode(reply.trim()).unwrap(), Response::Pong { .. }),
                "reply {i} was not a pong: {reply:?}"
            );
        }
        roundtrip(&mut stream, &mut reader, &Request::Shutdown);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn request_rate_cap_answers_busy_and_keeps_the_connection() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig { workers: 1, max_requests_per_sec: 4, ..ServeConfig::default() },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // A burst of 8 pings in one write: the first 4 are served, the
        // rest get a typed busy whose retry_after_ms is the window's
        // remaining lifetime — and the connection stays open.
        let mut burst = String::new();
        for _ in 0..8 {
            burst.push_str(&Request::Ping.encode());
            burst.push('\n');
        }
        stream.write_all(burst.as_bytes()).unwrap();
        let (mut pongs, mut busys) = (0, 0);
        for _ in 0..8 {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            match Response::decode(reply.trim()).unwrap() {
                Response::Pong { .. } => pongs += 1,
                Response::Busy { max_inflight, retry_after_ms, .. } => {
                    assert_eq!(max_inflight, 4);
                    assert!(retry_after_ms >= 1, "retry_after_ms must be positive");
                    assert!(retry_after_ms <= 1_000, "window is one second");
                    busys += 1;
                }
                other => panic!("unexpected reply: {other:?}"),
            }
        }
        assert_eq!((pongs, busys), (4, 4));
        // Once the window rolls over, the same connection serves again.
        std::thread::sleep(Duration::from_millis(1_100));
        assert!(matches!(
            roundtrip(&mut stream, &mut reader, &Request::Ping),
            Response::Pong { .. }
        ));
        roundtrip(&mut stream, &mut reader, &Request::Shutdown);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn connection_limit_refuses_with_typed_error() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig { workers: 1, max_connections: 2, ..ServeConfig::default() },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());
        let mut first = TcpStream::connect(addr).unwrap();
        let mut first_reader = BufReader::new(first.try_clone().unwrap());
        let mut second = TcpStream::connect(addr).unwrap();
        let mut second_reader = BufReader::new(second.try_clone().unwrap());
        // Pings prove both slots are genuinely registered.
        roundtrip(&mut first, &mut first_reader, &Request::Ping);
        roundtrip(&mut second, &mut second_reader, &Request::Ping);
        // The third connection gets one typed error, then EOF.
        let third = TcpStream::connect(addr).unwrap();
        let mut third_reader = BufReader::new(third);
        let mut reply = String::new();
        third_reader.read_line(&mut reply).unwrap();
        let decoded = Response::decode(reply.trim()).unwrap();
        let Response::Error(e) = decoded else { panic!("{decoded:?}") };
        assert!(e.message.contains("connection limit"), "{}", e.message);
        reply.clear();
        assert_eq!(third_reader.read_line(&mut reply).unwrap(), 0);
        // Freeing a slot re-admits new connections.
        drop(first);
        drop(first_reader);
        std::thread::sleep(crate::net::POLL_INTERVAL * 2);
        let mut fourth = TcpStream::connect(addr).unwrap();
        let mut fourth_reader = BufReader::new(fourth.try_clone().unwrap());
        roundtrip(&mut fourth, &mut fourth_reader, &Request::Ping);
        roundtrip(&mut fourth, &mut fourth_reader, &Request::Shutdown);
        handle.join().unwrap().unwrap();
    }
}
