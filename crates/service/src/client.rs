//! A small blocking client for the wire protocol, with deadline-aware
//! retry.
//!
//! [`Client::request`] is the bare one-shot call. For flaky transport,
//! [`Client::request_with_retry`] reconnects and retries under a
//! [`RetryPolicy`]: exponential backoff with *decorrelated jitter*
//! (each sleep is drawn uniformly from `base..=3×previous`, capped), the
//! scheme that avoids retry synchronization between clients recovering
//! from the same outage. `busy` replies are always retried (the server
//! refused admission, so nothing was applied) honoring the server's
//! `retry_after_ms` hint; transport failures are retried only when the
//! request is idempotent by nature (`!is_mutation()`) or tagged with a
//! `req_id` the server can deduplicate — retrying an untagged mutation
//! blind could apply it twice.
//!
//! A client may be given several nodes ([`Client::connect_nodes`]): it
//! connects to the first reachable one and rotates reconnection through
//! the list on transport failures, so a retried request lands on the next
//! node when its current one dies. Every dial is bounded by a connect
//! timeout ([`DEFAULT_CONNECT_TIMEOUT`] unless the policy's
//! `attempt_timeout` is tighter) — a black-holed peer costs a timeout,
//! never a hang.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::net::ShutdownGate;
use crate::protocol::{ErrorKind, Request, Response, ServiceError};

/// A client-side failure: transport trouble or a malformed reply.
///
/// A *typed* server failure is not an error at this layer — it arrives
/// as [`Response::Error`] so callers can match on its
/// [`kind`](crate::protocol::ErrorKind).
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection failed.
    Io(std::io::Error),
    /// The server closed the connection mid-request.
    ConnectionClosed,
    /// The reply line did not decode as a protocol response.
    Protocol(ServiceError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::ConnectionClosed => write!(f, "server closed the connection"),
            ClientError::Protocol(e) => write!(f, "malformed server reply: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::ConnectionClosed => None,
            ClientError::Protocol(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Retry tuning for [`Client::request_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total budget: once elapsed, the last failure is returned as-is.
    pub max_elapsed: Duration,
    /// Smallest backoff sleep (also the first one).
    pub base: Duration,
    /// Largest backoff sleep.
    pub cap: Duration,
    /// Per-attempt socket read timeout, so a stalled server trips a
    /// retry instead of blocking forever. `None` waits indefinitely
    /// (required for long explores).
    pub attempt_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_elapsed: Duration::from_secs(2),
            base: Duration::from_millis(25),
            cap: Duration::from_millis(500),
            attempt_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// A policy with the given total budget in milliseconds.
    #[must_use]
    pub fn with_budget_ms(ms: u64) -> Self {
        Self { max_elapsed: Duration::from_millis(ms), ..Self::default() }
    }
}

/// Longest a connection attempt may block when nothing tighter is
/// configured — a black-holed node must trip failover, not hang forever.
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest `standby`/`fenced` redirect chain
/// [`Client::request_following_redirects`] walks before giving up and
/// returning the refusal as-is — two nodes pointing at each other must
/// cost four hops, not an infinite bounce.
const MAX_REDIRECT_HOPS: usize = 4;

/// One connection speaking the newline-delimited protocol, over a set of
/// candidate peers: connects to the first reachable one, and rotates to
/// the next on reconnect after a transport failure.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Candidate peers in preference order; `active` indexes the
    /// currently connected one.
    peers: Vec<SocketAddr>,
    active: usize,
    /// Per-dial bound used when the retry policy has no
    /// `attempt_timeout` of its own.
    connect_timeout: Duration,
}

impl Client {
    /// Connects to a running `chop serve`, bounding the dial by
    /// [`DEFAULT_CONNECT_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with_timeout(addr, DEFAULT_CONNECT_TIMEOUT)
    }

    /// [`connect`](Self::connect) with an explicit per-dial timeout.
    /// `addr` may resolve to several peers; each is tried in order.
    ///
    /// # Errors
    ///
    /// The last dial failure when no peer is reachable.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        Self::connect_peers(addr.to_socket_addrs()?.collect(), timeout)
    }

    /// Connects to the first reachable of several nodes (each a
    /// `host:port` string); later transport failures rotate reconnection
    /// through the whole list — the client-side half of failover.
    ///
    /// # Errors
    ///
    /// When no address resolves or no resolved peer accepts in time.
    pub fn connect_nodes(addrs: &[String], timeout: Duration) -> Result<Self, ClientError> {
        let mut peers = Vec::new();
        let mut resolve_err = None;
        for addr in addrs {
            match addr.to_socket_addrs() {
                Ok(resolved) => peers.extend(resolved),
                Err(e) => resolve_err = Some(e),
            }
        }
        if peers.is_empty() {
            return Err(ClientError::Io(resolve_err.unwrap_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addresses given")
            })));
        }
        Self::connect_peers(peers, timeout)
    }

    fn connect_peers(peers: Vec<SocketAddr>, timeout: Duration) -> Result<Self, ClientError> {
        let mut last_err: Option<std::io::Error> = None;
        for (active, peer) in peers.iter().enumerate() {
            match TcpStream::connect_timeout(peer, timeout) {
                Ok(writer) => {
                    writer.set_nodelay(true).ok();
                    let reader = BufReader::new(writer.try_clone()?);
                    return Ok(Self {
                        writer,
                        reader,
                        peers,
                        active,
                        connect_timeout: timeout,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(ClientError::Io(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
        })))
    }

    /// The peer currently connected.
    #[must_use]
    pub fn peer(&self) -> SocketAddr {
        self.peers[self.active]
    }

    /// Drops the current connection and redials, starting from the
    /// current peer and rotating through the rest of the node list.
    fn reconnect(&mut self, timeout: Duration) -> Result<(), ClientError> {
        let mut last_err: Option<std::io::Error> = None;
        for offset in 0..self.peers.len() {
            let candidate = (self.active + offset) % self.peers.len();
            match TcpStream::connect_timeout(&self.peers[candidate], timeout) {
                Ok(writer) => {
                    writer.set_nodelay(true).ok();
                    self.reader = BufReader::new(writer.try_clone()?);
                    self.writer = writer;
                    self.active = candidate;
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(ClientError::Io(
            last_err.unwrap_or_else(|| std::io::Error::other("no peers to reconnect to")),
        ))
    }

    /// Whether the server has written to or closed this connection since
    /// its last reply: bytes already buffered, or a one-byte
    /// `recv(MSG_PEEK | MSG_DONTWAIT)` that finds data or EOF. An idle-timeout refusal is such a
    /// write, and it is no reply to whatever gets sent next. A live,
    /// quiet connection peeks `WouldBlock`. The router checks its pooled
    /// backend connections with this before reusing one; the request
    /// path itself pays no extra syscall.
    pub(crate) fn is_stale(&self) -> bool {
        use std::os::fd::AsRawFd;
        !self.reader.buffer().is_empty()
            || !matches!(
                crate::net::sys::peek_byte(self.reader.get_ref().as_raw_fd()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
            )
    }

    /// Sends one request and blocks for its response. Note that a long
    /// `explore` blocks for as long as the search runs — bound it with
    /// [`ExploreParams::deadline_ms`](crate::protocol::ExploreParams).
    ///
    /// # Errors
    ///
    /// Transport failures and undecodable replies; typed server errors
    /// come back as [`Response::Error`].
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.request_tagged(request, None)
    }

    /// [`request`](Self::request) with the envelope `req_id` the server's
    /// idempotency window deduplicates on.
    ///
    /// # Errors
    ///
    /// As [`request`](Self::request).
    pub fn request_tagged(
        &mut self,
        request: &Request,
        req_id: Option<&str>,
    ) -> Result<Response, ClientError> {
        let mut line = request.encode_tagged(req_id);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(ClientError::ConnectionClosed);
        }
        Response::decode(reply.trim()).map_err(ClientError::Protocol)
    }

    /// Sends a request, retrying across reconnects until it gets a
    /// response or `policy.max_elapsed` runs out.
    ///
    /// * [`Response::Busy`] is always retried — the server refused
    ///   admission, nothing was applied — sleeping at least its
    ///   `retry_after_ms` hint.
    /// * Transport failures ([`ClientError::Io`] /
    ///   [`ClientError::ConnectionClosed`]) are retried only when the
    ///   request [is not a mutation](Request::is_mutation) or carries a
    ///   `req_id` (so a duplicate delivery is answered from the server's
    ///   dedup window, not re-applied).
    /// * Malformed replies ([`ClientError::Protocol`]) are never retried.
    ///
    /// # Errors
    ///
    /// The last failure once the budget is exhausted, or immediately for
    /// non-retryable ones.
    pub fn request_with_retry(
        &mut self,
        request: &Request,
        req_id: Option<&str>,
        policy: &RetryPolicy,
    ) -> Result<Response, ClientError> {
        self.retry_with_sleep(request, req_id, policy, |d| {
            std::thread::sleep(d);
            false
        })
    }

    /// [`request_with_retry`](Self::request_with_retry) whose backoff
    /// sleeps wake the moment `gate` trips, at which point the in-hand
    /// outcome (the last `busy` reply or transport error) is returned
    /// instead of burning the rest of the budget asleep. The router's
    /// health loop retries pings this way so `shutdown` never waits out a
    /// backoff.
    ///
    /// # Errors
    ///
    /// As [`request_with_retry`](Self::request_with_retry).
    pub fn request_with_retry_until(
        &mut self,
        request: &Request,
        req_id: Option<&str>,
        policy: &RetryPolicy,
        gate: &ShutdownGate,
    ) -> Result<Response, ClientError> {
        self.retry_with_sleep(request, req_id, policy, |d| gate.wait_for(d))
    }

    /// [`request_with_retry`](Self::request_with_retry) that additionally
    /// follows `standby`/`fenced` refusals carrying the current primary's
    /// address: the client redials the named primary (keeping the old
    /// peers as reconnect fallbacks) and re-sends. Safe even for untagged
    /// mutations — a typed refusal means nothing was applied. Chains are
    /// bounded; an over-long bounce returns the last refusal unchanged.
    ///
    /// The raw [`request`](Self::request) path deliberately does *not*
    /// follow redirects: the replicator and the router must see the
    /// refusal itself to drive demotion and topology learning.
    ///
    /// # Errors
    ///
    /// As [`request_with_retry`](Self::request_with_retry), plus dial
    /// failures against a redirect target.
    pub fn request_following_redirects(
        &mut self,
        request: &Request,
        req_id: Option<&str>,
        policy: &RetryPolicy,
    ) -> Result<Response, ClientError> {
        let mut response = self.request_with_retry(request, req_id, policy)?;
        for _ in 0..MAX_REDIRECT_HOPS {
            let Response::Error(e) = &response else { break };
            if !matches!(e.kind, ErrorKind::Standby | ErrorKind::Fenced) {
                break;
            }
            let Some(primary) = e.primary.clone() else { break };
            self.redirect_to(&primary)?;
            response = self.request_with_retry(request, req_id, policy)?;
        }
        Ok(response)
    }

    /// Redials at a redirect target, making it the preferred peer; the
    /// previous peers stay in rotation as reconnect fallbacks.
    fn redirect_to(&mut self, addr: &str) -> Result<(), ClientError> {
        let mut peers: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if peers.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("redirect target {addr:?} resolved to nothing"),
            )));
        }
        let fallbacks: Vec<SocketAddr> =
            self.peers.iter().copied().filter(|p| !peers.contains(p)).collect();
        peers.extend(fallbacks);
        self.peers = peers;
        self.active = 0;
        self.reconnect(self.connect_timeout)
    }

    /// The retry engine, parameterized over its sleep: `sleep(d)` blocks
    /// up to `d` and returns `true` to abandon the retry loop (a tripped
    /// shutdown gate), `false` after an undisturbed wait.
    fn retry_with_sleep(
        &mut self,
        request: &Request,
        req_id: Option<&str>,
        policy: &RetryPolicy,
        mut sleep: impl FnMut(Duration) -> bool,
    ) -> Result<Response, ClientError> {
        let started = Instant::now();
        let transport_retry_safe = !request.is_mutation() || req_id.is_some();
        let mut jitter = Jitter::from_entropy(policy.base, policy.cap);
        let mut broken = false;
        loop {
            if broken {
                // Reconnect failures burn budget like any other attempt.
                let dial = policy.attempt_timeout.unwrap_or(self.connect_timeout);
                match self.reconnect(dial) {
                    Ok(()) => broken = false,
                    Err(e) => {
                        if started.elapsed() + jitter.previous() >= policy.max_elapsed
                            || sleep(jitter.next_sleep())
                        {
                            return Err(e);
                        }
                        continue;
                    }
                }
            }
            self.writer.set_read_timeout(policy.attempt_timeout).ok();
            let outcome = self.request_tagged(request, req_id);
            self.writer.set_read_timeout(None).ok();
            match outcome {
                Ok(response) => {
                    let Response::Busy { retry_after_ms, .. } = &response else {
                        return Ok(response);
                    };
                    let hint = Duration::from_millis(*retry_after_ms);
                    let pause = jitter.next_sleep().max(hint);
                    if started.elapsed() + pause >= policy.max_elapsed || sleep(pause) {
                        // Budget gone (or shutdown): surface the busy
                        // reply itself.
                        return Ok(response);
                    }
                }
                Err(e @ ClientError::Protocol(_)) => return Err(e),
                Err(e) => {
                    // Io or ConnectionClosed: the connection is suspect
                    // either way; reconnect before the next attempt.
                    broken = true;
                    if !transport_retry_safe {
                        return Err(e);
                    }
                    let pause = jitter.next_sleep();
                    if started.elapsed() + pause >= policy.max_elapsed || sleep(pause) {
                        return Err(e);
                    }
                }
            }
        }
    }
}

/// Decorrelated-jitter backoff state: each sleep is uniform in
/// `base..=3×previous`, capped. Randomness comes from a tiny xorshift64*
/// seeded off the clock — retry jitter needs to be *spread*, not
/// cryptographic, and the workspace builds without a `rand` crate.
/// Shared crate-wide: the replicator's reconnect loop and the router's
/// health loop reuse it so cluster-internal retries desynchronize too.
pub(crate) struct Jitter {
    base: Duration,
    cap: Duration,
    previous: Duration,
    state: u64,
}

impl Jitter {
    pub(crate) fn from_entropy(base: Duration, cap: Duration) -> Self {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0x9E37_79B9_7F4A_7C15, |d| d.as_nanos() as u64)
            | 1;
        Self { base, cap, previous: base, state: seed }
    }

    pub(crate) fn previous(&self) -> Duration {
        self.previous
    }

    /// Resets the spread back to `base`, as after a successful attempt.
    pub(crate) fn reset(&mut self) {
        self.previous = self.base;
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64* (Vigna); period 2^64-1, plenty for sleep jitter.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub(crate) fn next_sleep(&mut self) -> Duration {
        let base = self.base.as_millis() as u64;
        let upper = (self.previous.as_millis() as u64).saturating_mul(3).max(base + 1);
        let span = upper - base;
        let sleep =
            Duration::from_millis(base + self.next_u64() % span).min(self.cap).max(self.base);
        self.previous = sleep;
        sleep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_errors_display_and_chain() {
        let e = ClientError::from(std::io::Error::other("nope"));
        assert!(e.to_string().contains("nope"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(ClientError::ConnectionClosed.to_string().contains("closed"));
    }

    #[test]
    fn jitter_stays_within_base_and_cap() {
        let base = Duration::from_millis(25);
        let cap = Duration::from_millis(500);
        let mut jitter = Jitter::from_entropy(base, cap);
        let mut seen_above_base = false;
        for _ in 0..1000 {
            let sleep = jitter.next_sleep();
            assert!(sleep >= base && sleep <= cap, "{sleep:?} outside [{base:?}, {cap:?}]");
            seen_above_base |= sleep > base;
        }
        assert!(seen_above_base, "jitter must actually spread, not pin to base");
    }

    #[test]
    fn retry_policy_budget_constructor() {
        let policy = RetryPolicy::with_budget_ms(750);
        assert_eq!(policy.max_elapsed, Duration::from_millis(750));
        assert_eq!(policy.base, RetryPolicy::default().base);
    }

    #[test]
    fn untagged_mutation_is_not_retried_over_transport_failure() {
        // A listener that accepts and instantly drops the connection:
        // every attempt fails with ConnectionClosed / a reset.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let alive = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let alive_bg = std::sync::Arc::clone(&alive);
        let handle = std::thread::spawn(move || {
            listener.set_nonblocking(true).ok();
            while alive_bg.load(std::sync::atomic::Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => drop(stream),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        let mut client = Client::connect(addr).unwrap();
        let close = Request::Close { session: "s".into() };
        let policy = RetryPolicy::with_budget_ms(400);
        let started = Instant::now();
        let err = client.request_with_retry(&close, None, &policy).unwrap_err();
        assert!(matches!(err, ClientError::Io(_) | ClientError::ConnectionClosed), "{err}");
        assert!(
            started.elapsed() < Duration::from_millis(350),
            "untagged mutation must fail fast, not burn the retry budget"
        );
        alive.store(false, std::sync::atomic::Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn tripped_gate_aborts_retry_backoff_early() {
        // A listener that accepts and instantly drops: every ping
        // attempt fails, so the client sits in backoff for most of its
        // 30 s budget — unless the gate wakes it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let alive = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let alive_bg = std::sync::Arc::clone(&alive);
        let acceptor = std::thread::spawn(move || {
            listener.set_nonblocking(true).ok();
            while alive_bg.load(std::sync::atomic::Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => drop(stream),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        let gate = std::sync::Arc::new(ShutdownGate::new());
        let trigger = {
            let gate = std::sync::Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                gate.trigger();
            })
        };
        let mut client = Client::connect(addr).unwrap();
        let policy = RetryPolicy::with_budget_ms(30_000);
        let started = Instant::now();
        let outcome = client.request_with_retry_until(&Request::Ping, None, &policy, &gate);
        assert!(outcome.is_err(), "the dead backend never answered");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "a tripped gate must abandon the 30 s retry budget, took {:?}",
            started.elapsed()
        );
        alive.store(false, std::sync::atomic::Ordering::SeqCst);
        trigger.join().unwrap();
        acceptor.join().unwrap();
    }

    #[test]
    fn connect_nodes_skips_dead_peers() {
        // A bound-then-dropped listener leaves a port that refuses.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let live_listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let live = live_listener.local_addr().unwrap();
        let client =
            Client::connect_nodes(&[dead, live.to_string()], Duration::from_millis(500))
                .expect("second node is reachable");
        assert_eq!(client.peer(), live, "the dead first node must be skipped");
        // No node reachable → the dial error surfaces, promptly.
        drop(live_listener);
        let started = Instant::now();
        let Err(err) = Client::connect_nodes(&[live.to_string()], Duration::from_millis(500))
        else {
            panic!("a dropped listener must refuse connections")
        };
        assert!(matches!(err, ClientError::Io(_)), "{err}");
        assert!(started.elapsed() < Duration::from_secs(2));
        // An empty list is refused outright.
        assert!(Client::connect_nodes(&[], Duration::from_millis(10)).is_err());
    }

    #[test]
    fn retry_reconnects_to_the_next_node_after_a_transport_failure() {
        // Node A accepts one connection then dies; node B answers pings.
        let a = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let b = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = [a.local_addr().unwrap().to_string(), b.local_addr().unwrap().to_string()];
        let a_thread = std::thread::spawn(move || {
            let (stream, _) = a.accept().unwrap();
            drop(stream); // immediate hangup, then the listener dies too
        });
        let b_thread = std::thread::spawn(move || {
            use std::io::{BufRead, BufReader, Write};
            let (stream, _) = b.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(matches!(Request::decode_tagged(line.trim()), Ok((Request::Ping, None))));
            let reply = Response::Pong {
                version: crate::protocol::PROTOCOL_VERSION,
                role: None,
                epoch: 0,
                peer: None,
            }
            .encode();
            writeln!(writer, "{reply}").unwrap();
        });
        let mut client = Client::connect_nodes(&addrs, Duration::from_millis(500)).unwrap();
        a_thread.join().unwrap();
        let policy = RetryPolicy::with_budget_ms(3_000);
        let response = client.request_with_retry(&Request::Ping, None, &policy).unwrap();
        assert!(matches!(response, Response::Pong { .. }), "{response:?}");
        assert_eq!(client.peer().to_string(), addrs[1], "must have failed over to node B");
        b_thread.join().unwrap();
    }
}
