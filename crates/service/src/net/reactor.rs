//! The epoll reactor: one thread, every socket.
//!
//! [`Reactor::run`] owns the listener and every accepted connection and
//! multiplexes them over a single level-triggered epoll instance. It
//! does *only* I/O and framing; request semantics stay with the
//! [`LineHandler`] it is handed: `chop serve`'s dispatch layer in
//! `server.rs`, which answers cheap requests inline and sends explores
//! to the worker pool, or `chop router`'s in `router.rs`, which answers
//! `shutdown` inline and runs everything else, forwards included, in the
//! pool.
//!
//! Per-connection state machine:
//!
//! ```text
//!            ┌────────── reading ──────────┐
//!            │  nonblocking reads feed the  │   complete line
//!            │  LineBuffer; EPOLLIN armed   ├────────────────┐
//!            └──────────────▲───────────────┘                ▼
//!                           │ completion            ┌─ dispatching ─┐
//!            outbuf drained │ (via eventfd)         │ job in the     │
//!                           │                       │ worker pool;   │
//!            ┌────────── writing ───────────┐       │ EPOLLIN parked │
//!            │ outbuf flushed opportunisti-  │◀──────┴───────────────┘
//!            │ cally, EPOLLOUT armed only    │  reply queued
//!            │ while bytes remain            │
//!            └──────────────┬───────────────┘
//!                           │ close decided (drain, refusal, EOF)
//!                           ▼
//!            ┌────────── draining ──────────┐
//!            │ no more reads; flush the last │
//!            │ queued replies, then close    │
//!            └──────────────────────────────┘
//! ```
//!
//! Three invariants keep the loop honest:
//!
//! * **Backpressure** — a connection whose pending output exceeds
//!   [`OUT_SOFT_CAP`] stops parsing *and reading* until the peer drains
//!   it, so a non-reading client caps its own memory at roughly the soft
//!   cap plus kernel socket buffers, and can never starve the loop.
//! * **No busy-spin** — `EPOLLIN` is deregistered whenever the
//!   connection is not willing to read (mid-dispatch, output-capped,
//!   draining); with level-triggered epoll, staying subscribed to a
//!   ready-but-unread socket would turn `epoll_wait` into a hot loop.
//! * **Bounded token lifetime** — connection tokens are never reused, so
//!   a worker completion for a connection that died mid-explore is
//!   silently dropped instead of landing on a stranger.

use std::collections::HashMap;
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::sys::{Epoll, EpollEvent, EVENT_ERROR, EVENT_HANGUP, EVENT_READ, EVENT_WRITE};
use super::{refusal_line, LineBuffer, ShutdownGate, MAX_LINE_BYTES, POLL_INTERVAL};
use crate::pool::{panic_message, Completions};
use crate::protocol::{ErrorKind, Response, ServiceError};

/// Pending-output bytes past which a connection stops parsing and
/// reading until the peer drains replies. Small enough to bound memory
/// per slow consumer, large enough to hold hundreds of typical replies.
pub(crate) const OUT_SOFT_CAP: usize = 256 * 1024;

/// Compact the output buffer once this many flushed bytes accumulate in
/// front of the unsent tail.
const OUT_COMPACT_AT: usize = 64 * 1024;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// What the dispatch layer did with one request line.
pub(crate) enum LineOutcome {
    /// Answer ready now: queue it on the connection.
    Reply(Response),
    /// The request went to the worker pool; the reply will arrive as a
    /// completion tagged with this connection's token. The connection
    /// parks (no parsing, no reading) until then, which is what keeps
    /// per-connection replies in request order.
    Dispatched,
}

/// Request semantics, supplied by the server or router layer.
pub(crate) trait LineHandler {
    /// Handles one trimmed, non-empty request line from connection
    /// `conn`. Must not block on client I/O (the reactor owns all of
    /// it); CPU-heavy work belongs in the worker pool via
    /// [`LineOutcome::Dispatched`].
    fn handle_line(&self, conn: u64, line: &str) -> LineOutcome;

    /// Connection `conn` is gone; its token is never reused. A reply
    /// still being computed for it will be dropped on arrival.
    fn closed(&self, _conn: u64) {}
}

/// Reactor tuning, from the server's `ServeConfig` or the router's
/// fixed settings.
pub(crate) struct ReactorConfig {
    /// Connections past this cap are refused with a typed error.
    pub max_connections: usize,
    /// Idle connections are reaped after this long; `None` disables.
    pub idle_timeout: Option<Duration>,
    /// Request lines admitted per connection per second; lines past the
    /// cap get a typed `busy` reply carrying the window's remaining
    /// milliseconds as `retry_after_ms`, and the connection stays open.
    /// `None` disables.
    pub max_requests_per_sec: Option<u32>,
}

/// One connection's full state.
struct Conn {
    stream: TcpStream,
    inbuf: LineBuffer,
    outbuf: Vec<u8>,
    /// Bytes of `outbuf` already written to the socket.
    out_pos: usize,
    /// A dispatched request is in the worker pool; replies arrive as
    /// completions. No parsing or reading happens until it returns.
    awaiting_worker: bool,
    /// Close as soon as the output buffer flushes (refusal sent, EOF
    /// handled, or drain finished).
    closing: bool,
    /// The peer half-closed its write side (read returned 0).
    read_closed: bool,
    /// Last moment the peer sent bytes or a reply was queued.
    last_activity: Instant,
    /// Event set currently registered with epoll.
    interest: u32,
    /// Start of the current request-rate window.
    rate_window: Instant,
    /// Request lines admitted since `rate_window`.
    rate_count: u32,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        let now = Instant::now();
        Self {
            stream,
            inbuf: LineBuffer::default(),
            outbuf: Vec::new(),
            out_pos: 0,
            awaiting_worker: false,
            closing: false,
            read_closed: false,
            last_activity: now,
            interest: EVENT_READ,
            rate_window: now,
            rate_count: 0,
        }
    }

    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.out_pos
    }

    /// Whether the state machine wants more input right now.
    fn willing_to_read(&self, draining: bool) -> bool {
        !self.awaiting_worker
            && !self.closing
            && !self.read_closed
            && !draining
            && self.pending_out() <= OUT_SOFT_CAP
    }

    /// Queues one encoded reply line.
    fn push_response(&mut self, response: &Response) {
        let mut out = response.encode();
        out.push('\n');
        self.outbuf.extend_from_slice(out.as_bytes());
        self.last_activity = Instant::now();
    }

    /// Queues a typed error and moves the connection to draining: the
    /// refusal is flushed, then the socket closes.
    fn refuse(&mut self, kind: ErrorKind, message: String) {
        self.outbuf.extend_from_slice(&refusal_line(kind, message));
        self.closing = true;
    }

    /// Writes as much pending output as the socket accepts. `false`
    /// means the connection is dead (write error).
    fn flush_out(&mut self) -> bool {
        loop {
            if self.out_pos == self.outbuf.len() {
                self.outbuf.clear();
                self.out_pos = 0;
                return true;
            }
            match (&self.stream).write(&self.outbuf[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
                Err(e) if e.kind() == IoErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if self.out_pos > OUT_COMPACT_AT {
            self.outbuf.drain(..self.out_pos);
            self.out_pos = 0;
        }
        true
    }
}

/// The readiness loop. Owns the listener, the epoll instance and every
/// live connection; see the module docs for the state machine.
pub(crate) struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    completions: Arc<Completions>,
    shutdown: Arc<ShutdownGate>,
    /// Chaos "power cord": severs every socket and returns immediately.
    kill: Option<Arc<AtomicBool>>,
    config: ReactorConfig,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Graceful drain in progress: no accepts, no reads, finish buffered
    /// requests and flush replies, then exit once every socket is gone.
    draining: bool,
    last_reap: Instant,
}

impl Reactor {
    /// Registers the listener and completion doorbell with a fresh epoll
    /// instance.
    ///
    /// # Errors
    ///
    /// Epoll setup failures (fd exhaustion, kernel without epoll).
    pub(crate) fn new(
        listener: TcpListener,
        completions: Arc<Completions>,
        shutdown: Arc<ShutdownGate>,
        kill: Option<Arc<AtomicBool>>,
        config: ReactorConfig,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EVENT_READ)?;
        epoll.add(completions.waker_fd(), TOKEN_WAKER, EVENT_READ)?;
        Ok(Self {
            epoll,
            listener,
            completions,
            shutdown,
            kill,
            config,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            draining: false,
            last_reap: Instant::now(),
        })
    }

    /// Serves until drained (returns `Ok`), killed (returns `Ok`
    /// immediately, dropping every socket), or a fatal listener/epoll
    /// error.
    ///
    /// # Errors
    ///
    /// Only fatal listener or epoll failures; per-connection errors
    /// close that connection and per-request errors are answered on the
    /// wire.
    pub(crate) fn run<H: LineHandler>(mut self, handler: &H) -> std::io::Result<()> {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
        loop {
            if let Some(kill) = &self.kill {
                if kill.load(Ordering::SeqCst) {
                    // Simulated `kill -9`: dropping self closes every
                    // socket with no drain and no journal ceremony.
                    // In-flight worker jobs are abandoned; their
                    // completions land in a queue nobody drains, exactly
                    // as a real process death would abandon them.
                    return Ok(());
                }
            }
            if !self.draining && self.shutdown.is_triggered() {
                self.begin_drain(handler);
            }
            if self.draining && self.conns.is_empty() {
                return Ok(());
            }
            let ready = self.epoll.wait(&mut events, POLL_INTERVAL)?;
            for event in &events[..ready] {
                // Copy out of the (packed on x86) kernel struct first.
                let token = { event.data };
                let flags = { event.events };
                match token {
                    TOKEN_LISTENER => self.accept_ready(handler)?,
                    TOKEN_WAKER => {} // completions drained below every tick
                    _ => self.conn_ready(token, flags, handler),
                }
            }
            self.deliver_completions(handler);
            self.reap_idle(handler);
        }
    }

    /// Accepts until the backlog is empty, registering each connection
    /// (or refusing it with a typed error past `max_connections`).
    fn accept_ready<H: LineHandler>(&mut self, handler: &H) -> std::io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.draining {
                        continue; // raced the drain: close immediately
                    }
                    if self.conns.len() >= self.config.max_connections {
                        // One typed reply, then the socket drops. The
                        // stream is still blocking here, but a fresh
                        // socket's send buffer always takes one line.
                        let _ = stream.set_nodelay(true);
                        let _ = (&stream).write(&refusal_line(
                            ErrorKind::Internal,
                            format!(
                                "connection limit reached ({} connections); retry later",
                                self.config.max_connections
                            ),
                        ));
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.epoll.add(stream.as_raw_fd(), token, EVENT_READ).is_err() {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream));
                    // The peer may have sent its first request already;
                    // with level-triggered epoll the next wait reports
                    // it, but serving it now saves a tick.
                    self.conn_ready(token, EVENT_READ, handler);
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == IoErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Handles readiness on one connection.
    fn conn_ready<H: LineHandler>(&mut self, token: u64, flags: u32, handler: &H) {
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // closed earlier this tick; token is never reused
        };
        let mut alive = true;
        if flags & EVENT_READ != 0 {
            alive = read_some(conn, token, draining, self.config.max_requests_per_sec, handler);
        }
        if alive && flags & (EVENT_ERROR | EVENT_HANGUP) != 0 && flags & EVENT_READ == 0 {
            // Broken pipe with nothing readable: nothing left to say.
            alive = false;
        }
        if alive {
            self.settle(token, handler);
        } else {
            self.close(token, handler);
        }
    }

    /// Forgets a finished or dead connection and tells the handler.
    fn close<H: LineHandler>(&mut self, token: u64, handler: &H) {
        if self.conns.remove(&token).is_some() {
            handler.closed(token);
        }
    }

    /// Drains the worker completion queue, queueing each reply on its
    /// connection (or dropping it if the connection died mid-explore).
    fn deliver_completions<H: LineHandler>(&mut self, handler: &H) {
        for (token, response) in self.completions.drain() {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.awaiting_worker = false;
                conn.push_response(&response);
                self.settle(token, handler);
            }
        }
    }

    /// The post-I/O fixpoint for one connection: flush, resume parsing
    /// when backpressure lifts, resolve EOF/drain closes, and re-sync
    /// epoll interest. Removes the connection when it is done or dead.
    fn settle<H: LineHandler>(&mut self, token: u64, handler: &H) {
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(&token) else { return };
        loop {
            if !conn.flush_out() {
                self.close(token, handler);
                return;
            }
            let before_out = conn.outbuf.len();
            let before_state = (conn.awaiting_worker, conn.closing);
            if !conn.awaiting_worker && !conn.closing && conn.pending_out() <= OUT_SOFT_CAP {
                process_lines(conn, token, self.config.max_requests_per_sec, handler);
            }
            if conn.outbuf.len() == before_out
                && (conn.awaiting_worker, conn.closing) == before_state
            {
                break;
            }
        }
        // EOF resolution: every buffered complete line has been served
        // (or is parked behind a dispatch); what remains is either a
        // truncated tail or a clean end.
        if conn.read_closed && !conn.awaiting_worker && !conn.closing {
            if conn.inbuf.is_empty() {
                conn.closing = true;
            } else {
                conn.refuse(
                    ErrorKind::Protocol,
                    format!(
                        "truncated request: EOF after {} bytes with no newline",
                        conn.inbuf.len()
                    ),
                );
            }
            let _ = conn.flush_out();
        }
        // Graceful drain: once the buffered requests are answered and
        // flushed, the connection is done.
        if draining && !conn.awaiting_worker && !conn.closing && conn.pending_out() == 0 {
            conn.closing = true;
        }
        if conn.closing && conn.pending_out() == 0 {
            self.close(token, handler);
            return;
        }
        let desired = (u32::from(conn.willing_to_read(draining)) * EVENT_READ)
            | (u32::from(conn.pending_out() > 0) * EVENT_WRITE);
        if desired != conn.interest {
            if self.epoll.modify(conn.stream.as_raw_fd(), token, desired).is_err() {
                self.close(token, handler);
                return;
            }
            conn.interest = desired;
        }
    }

    /// Enters graceful drain: stop accepting and reading, answer what is
    /// buffered, flush, close. [`run`](Self::run) returns once the last
    /// connection is gone.
    fn begin_drain<H: LineHandler>(&mut self, handler: &H) {
        self.draining = true;
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        for token in self.conns.keys().copied().collect::<Vec<_>>() {
            self.settle(token, handler);
        }
    }

    /// Closes connections idle past the deadline, each with a typed
    /// error first. Throttled to a fraction of the timeout so a large
    /// idle fleet is not rescanned every tick.
    fn reap_idle<H: LineHandler>(&mut self, handler: &H) {
        let Some(timeout) = self.config.idle_timeout else { return };
        if self.draining {
            return;
        }
        let cadence = (timeout / 4).clamp(Duration::from_millis(25), Duration::from_secs(1));
        let now = Instant::now();
        if now.duration_since(self.last_reap) < cadence {
            return;
        }
        self.last_reap = now;
        for conn in self.conns.values_mut() {
            // A dispatched explore is work, not idleness; a closing
            // connection is already on its way out.
            if conn.awaiting_worker || conn.closing {
                continue;
            }
            if now.duration_since(conn.last_activity) >= timeout {
                conn.refuse(
                    ErrorKind::Protocol,
                    format!(
                        "idle timeout: no request completed in {} ms; closing",
                        timeout.as_millis()
                    ),
                );
                let _ = conn.flush_out();
            }
        }
        // Flushed refusals close immediately; unflushed ones arm
        // EPOLLOUT through the normal settle path.
        for token in self.conns.keys().copied().collect::<Vec<_>>() {
            if self.conns.get(&token).is_some_and(|c| c.closing) {
                self.settle(token, handler);
            }
        }
    }
}

/// Nonblocking read loop for one readable connection: fill the line
/// buffer, hand complete lines to the dispatcher, stop at `WouldBlock`
/// or whenever the state machine stops wanting input. `false` means the
/// connection died.
fn read_some<H: LineHandler>(
    conn: &mut Conn,
    token: u64,
    draining: bool,
    rate_cap: Option<u32>,
    handler: &H,
) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if !conn.willing_to_read(draining) {
            return true;
        }
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                return true;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                conn.inbuf.extend(&chunk[..n]);
                process_lines(conn, token, rate_cap, handler);
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == IoErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Admits one request line against the per-second rate cap;
/// `Some` is the typed `busy` refusal to queue instead. The window
/// is fixed, not sliding: it resets a second after its first
/// admitted line, and `retry_after_ms` is the window's remaining
/// lifetime.
///
/// A free function over the two rate fields, not a `Conn` method: the
/// caller holds a borrow of `conn.inbuf` (the in-place request line)
/// while admitting, and disjoint field borrows keep that legal.
fn admit_line(
    rate_window: &mut Instant,
    rate_count: &mut u32,
    cap: Option<u32>,
) -> Option<Response> {
    let cap = cap?;
    let now = Instant::now();
    let elapsed = now.duration_since(*rate_window);
    if elapsed >= Duration::from_secs(1) {
        *rate_window = now;
        *rate_count = 0;
    }
    if *rate_count >= cap {
        let remaining = Duration::from_secs(1).saturating_sub(elapsed);
        return Some(Response::Busy {
            inflight: u64::from(*rate_count),
            max_inflight: u64::from(cap),
            retry_after_ms: (remaining.as_millis() as u64).max(1),
        });
    }
    *rate_count += 1;
    None
}

/// What one framing step decided, computed while the in-place line
/// slice (borrowed from `conn.inbuf`) is alive; the mutations it calls
/// for run after the borrow ends.
enum LineStep {
    /// No complete line buffered (the caller still refuses a partial
    /// line that has already outgrown [`MAX_LINE_BYTES`]).
    Starved,
    /// Blank line: skip it.
    Skip,
    /// A completed line past [`MAX_LINE_BYTES`]: refuse and close.
    Oversized,
    /// Queue this reply (a handler answer or a rate-cap `busy`).
    Reply(Response),
    /// The request went to the worker pool; park the connection.
    Dispatched,
}

/// Serves buffered complete lines until the connection parks (dispatch
/// in flight), closes, caps its output, or runs out of lines.
///
/// Lines are decoded in place from the connection's [`LineBuffer`] —
/// a borrowed slice, no per-request copy. The borrow is confined to
/// the `LineStep` computation; `conn` is only mutated afterwards.
fn process_lines<H: LineHandler>(
    conn: &mut Conn,
    token: u64,
    rate_cap: Option<u32>,
    handler: &H,
) {
    while !conn.awaiting_worker && !conn.closing && conn.pending_out() <= OUT_SOFT_CAP {
        let step = match conn.inbuf.next_line() {
            None => LineStep::Starved,
            // A completed line past the limit must be refused like a
            // partial one — parsing it would let a newline smuggled at
            // the end of a flood bypass the cap.
            Some(line) if line.len() > MAX_LINE_BYTES => LineStep::Oversized,
            Some(line) => {
                let text = String::from_utf8_lossy(line);
                let text = text.trim();
                if text.is_empty() {
                    LineStep::Skip
                } else if let Some(busy) =
                    // The rate cap is enforced here, in the connection's
                    // own state machine: an over-limit line costs one
                    // queued `busy` reply and no dispatch, and the
                    // connection keeps serving — unlike the
                    // oversized-line refusals, which close.
                    admit_line(
                        &mut conn.rate_window,
                        &mut conn.rate_count,
                        rate_cap,
                    )
                {
                    LineStep::Reply(busy)
                } else {
                    // One poisoned request costs one `internal` reply,
                    // never the reactor thread every connection runs on.
                    match catch_unwind(AssertUnwindSafe(|| handler.handle_line(token, text))) {
                        Ok(LineOutcome::Reply(response)) => LineStep::Reply(response),
                        Ok(LineOutcome::Dispatched) => LineStep::Dispatched,
                        Err(payload) => LineStep::Reply(Response::Error(ServiceError::new(
                            ErrorKind::Internal,
                            format!("request handler panicked: {}", panic_message(&*payload)),
                        ))),
                    }
                }
            }
        };
        match step {
            LineStep::Starved => {
                if conn.inbuf.len() > MAX_LINE_BYTES {
                    conn.refuse(
                        ErrorKind::Protocol,
                        format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    );
                }
                return;
            }
            LineStep::Skip => {}
            LineStep::Oversized => {
                conn.refuse(
                    ErrorKind::Protocol,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                return;
            }
            LineStep::Reply(response) => conn.push_response(&response),
            LineStep::Dispatched => conn.awaiting_worker = true,
        }
    }
}
