//! `chop router` — a thin consistent-hashing proxy over replicated
//! backend pairs.
//!
//! The router owns no session state. It hashes each request's session
//! name onto one of N backend *pairs* (a primary `chop serve --peer`
//! plus its warm standby) with a [`HashRing`], forwards the request to
//! the pair's active node, and relays the reply. Several things make a
//! dead node survivable:
//!
//! * **Failover** — when the active node stops answering (a forwarded
//!   request fails, or the health loop misses `HEALTH_STRIKES`
//!   consecutive pings), the router promotes the pair's standby with
//!   [`Request::Promote`] and re-points the pair at it.
//! * **Re-arm** — failover is no longer terminal: the failed node's
//!   address becomes the pair's *unarmed* standby, and the health loop
//!   watches for it (or whatever address the active node reports as its
//!   replication peer) to come back demoted and epoch-synced, at which
//!   point the pair is re-armed for the next failover.
//! * **Topology re-learning** — a forwarded request answered with a
//!   typed `standby`/`fenced` refusal carrying the real primary's
//!   address proves the pair state is stale (a failover happened behind
//!   the router's back, or a node rejoined demoted): the router adopts
//!   the named primary and re-sends — a refusal means nothing was
//!   applied, so the re-send is safe even for untagged mutations.
//! * **Exactly-once retry** — a request that died with its backend is
//!   re-sent to the promoted standby only when that is safe: reads and
//!   explores always (re-running is pure), mutations only when tagged
//!   with a `req_id` (replication delivered the primary's dedup window to
//!   the standby, so a retry of an already-committed mutation is answered
//!   from the recorded outcome, not applied twice). An untagged mutation
//!   gets a typed error instead of a blind, possibly-double apply.
//!
//! The front end is the same epoll `Reactor` and worker pool `chop
//! serve` runs on. `shutdown` is answered on the reactor thread; every
//! other request runs as a pool job while its connection waits, which
//! keeps replies in request order per connection. That includes
//! `router_status`: it does no I/O itself, but it reads pair state under
//! the mutex a failover holds across its `promote` call. The pool is
//! elastic, so a job never queues behind another, and each pair admits
//! at most `PAIR_INFLIGHT` jobs: past that the router answers a typed
//! `busy` itself. A pair whose backend stalls therefore ties up only its
//! own jobs, never another pair's or the admin requests'. Each client
//! connection keeps its own backend connections, as a thread per client
//! did, so a backend's per-connection rate cap still limits each router
//! client on its own.
//!
//! Membership is live: `add_pair` / `remove_pair` admin requests rebuild
//! the ring and migrate the sessions whose assignment moved (genesis +
//! mutation history over the wire via `export` / `import`, then a
//! `close` on the source), and `router_status` reports per-pair state.
//! Mutations committed on a moving session between its export and the
//! ring swap are not carried over — run membership changes during quiet
//! periods (DESIGN.md §16).
//!
//! The ring uses unseeded FNV-1a over `"label#vnode"` strings, so
//! assignment is deterministic across router restarts, and removing a
//! pair remaps only the sessions that lived on it (verified by proptests
//! in `tests/ring_props.rs`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::client::{Client, ClientError, Jitter, RetryPolicy};
use crate::net::reactor::{LineHandler, LineOutcome, Reactor, ReactorConfig};
use crate::net::ShutdownGate;
use crate::pool::{Admission, WorkerPool};
use crate::protocol::{ErrorKind, Request, Response, ServiceError};
use crate::server::ServeConfig;

/// Virtual nodes per backend pair on the ring: enough to spread sessions
/// evenly across a handful of pairs without a noticeable ring.
const VNODES_PER_PAIR: usize = 64;
/// Consecutive failed health pings before the health loop fails a pair
/// over (a forwarded request failing trips failover immediately).
const HEALTH_STRIKES: u32 = 2;
/// Dial bound for backend connections — a dead node must fail fast.
const BACKEND_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Per-ping budget for the health loop.
const HEALTH_PING_BUDGET_MS: u64 = 500;
/// Retry budget for the `promote` call during failover (the standby is
/// alive but may be mid-apply).
const PROMOTE_BUDGET_MS: u64 = 2_000;
/// Forwarded requests one pair may have in flight; past that the router
/// answers `busy`. Twice a backend's default `max_inflight`: a pair can
/// carry as many explores as its backend admits (the backend refuses the
/// rest with its own `busy`) and as many cheap requests beside them.
const PAIR_INFLIGHT: usize = 128;
/// `router_status` / `add_pair` / `remove_pair` requests in flight.
const ADMIN_INFLIGHT: usize = 8;

/// FNV-1a 64-bit with an avalanche finalizer. Unseeded on purpose: ring
/// placement must be identical across process restarts for router
/// failover to be transparent. Raw FNV clusters similar short strings
/// ("addr#0", "addr#1", …) into nearby hashes, which starves ring
/// positions; the final mix spreads them uniformly.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

/// A consistent-hash ring: each label contributes `vnodes` points, keys
/// land on the first point clockwise from their own hash.
pub struct HashRing {
    labels: Vec<String>,
    /// `(point hash, label index)`, sorted by hash.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// Builds a ring with `vnodes` points per label. Order of `labels`
    /// does not affect placement (points are positioned by hash alone),
    /// but [`assign`](Self::assign) returns indices into it.
    #[must_use]
    pub fn new(labels: Vec<String>, vnodes: usize) -> Self {
        let mut points = Vec::with_capacity(labels.len() * vnodes.max(1));
        for (index, label) in labels.iter().enumerate() {
            for vnode in 0..vnodes.max(1) {
                #[allow(clippy::cast_possible_truncation)]
                points.push((fnv1a(format!("{label}#{vnode}").as_bytes()), index as u32));
            }
        }
        points.sort_unstable();
        Self { labels, points }
    }

    /// The label index `key` lands on; `None` for an empty ring.
    #[must_use]
    pub fn assign(&self, key: &str) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let hash = fnv1a(key.as_bytes());
        let at = self.points.partition_point(|&(point, _)| point < hash);
        let (_, index) = self.points[if at == self.points.len() { 0 } else { at }];
        Some(index as usize)
    }

    /// The label `key` lands on; `None` for an empty ring.
    #[must_use]
    pub fn assign_label(&self, key: &str) -> Option<&str> {
        self.assign(key).map(|i| self.labels[i].as_str())
    }

    /// The labels this ring was built over, in construction order.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }
}

/// One replicated backend pair, as configured on the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendSpec {
    /// The primary's `host:port`.
    pub primary: String,
    /// Its warm standby's `host:port`, if the pair has one.
    pub standby: Option<String>,
}

impl BackendSpec {
    /// Parses `primary[,standby]`.
    ///
    /// # Errors
    ///
    /// A human-readable message for an empty or over-split spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(',').map(str::trim);
        let primary = parts.next().unwrap_or_default();
        if primary.is_empty() {
            return Err(format!("backend pair {spec:?} has no primary address"));
        }
        let standby = parts.next().map(str::to_owned).filter(|s| !s.is_empty());
        if parts.next().is_some() {
            return Err(format!("backend pair {spec:?} has more than two addresses"));
        }
        Ok(Self { primary: primary.to_owned(), standby })
    }
}

/// Router tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// The backend pairs sessions are sharded over.
    pub pairs: Vec<BackendSpec>,
    /// Health-check cadence for active backends (jittered ±25% at run
    /// time so many pairs and routers do not ping in lockstep).
    pub health_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self { pairs: Vec::new(), health_interval: Duration::from_millis(500) }
    }
}

/// Which node of a pair is live, and how the health loop is feeling
/// about it.
struct PairState {
    /// The address requests are forwarded to.
    active: String,
    /// The failover target's address, when one is known. After a
    /// failover this is the *failed* node's last address, kept so the
    /// health loop can watch for its rejoin (and replaced by whatever
    /// address the active node reports as its replication peer).
    standby: Option<String>,
    /// Whether `standby` is believed demoted, epoch-synced, and ready to
    /// promote. Cleared by every failover; re-set by the health loop
    /// once the rejoined standby answers pings at the active's epoch.
    armed: bool,
    /// Consecutive failed health pings against `active`.
    strikes: u32,
}

/// One pair plus its mutable state. The mutex serializes failover:
/// however many request threads and the health loop notice a death at
/// once, exactly one `promote` is sent.
struct Pair {
    /// The ring label: the configured primary address, stable across
    /// failovers and router restarts.
    label: String,
    state: Mutex<PairState>,
    /// This pair's share of the worker pool ([`PAIR_INFLIGHT`] jobs).
    admission: Arc<Admission>,
}

impl Pair {
    fn new(spec: BackendSpec) -> Self {
        let armed = spec.standby.is_some();
        Self {
            label: spec.primary.clone(),
            state: Mutex::new(PairState {
                active: spec.primary,
                standby: spec.standby,
                armed,
                strikes: 0,
            }),
            admission: Arc::new(Admission::new(PAIR_INFLIGHT)),
        }
    }

    fn active(&self) -> String {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).active.clone()
    }

    /// Fails the pair over *away from* `failed`: promotes the armed
    /// standby and re-points the pair at it, keeping the failed address
    /// as the (unarmed) rejoin candidate. Returns the address now
    /// active, or `None` when the pair has no armed standby. Idempotent
    /// — a concurrent caller that lost the race just gets the
    /// already-promoted address. `gate` wakes the promote call's retry
    /// backoff on shutdown.
    fn fail_over(&self, failed: &str, gate: &ShutdownGate) -> Option<String> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.active != failed {
            // Someone already failed over; the new active is the answer.
            return Some(state.active.clone());
        }
        if !state.armed {
            return None; // no standby, or it has not rejoined yet
        }
        let standby = state.standby.clone()?;
        match promote(&standby, gate) {
            Ok((sessions, epoch)) => {
                eprintln!(
                    "chop-router: backend {failed} is down; promoted standby {standby} \
                     ({sessions} sessions, epoch {epoch})"
                );
                state.standby = Some(std::mem::replace(&mut state.active, standby));
                state.armed = false;
                state.strikes = 0;
                Some(state.active.clone())
            }
            Err(e) => {
                eprintln!("chop-router: failed to promote standby {standby}: {e}");
                None
            }
        }
    }

    /// Re-points the pair at `redirect` — the primary address a typed
    /// `standby`/`fenced` refusal named. The refusing node keeps serving
    /// as the (unarmed) standby candidate until the health loop confirms
    /// it is synced.
    fn adopt_active(&self, redirect: &str) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.active == redirect {
            return;
        }
        eprintln!(
            "chop-router: pair {}: re-learned active {redirect} from a typed refusal by {}",
            self.label, state.active
        );
        let demoted = std::mem::replace(&mut state.active, redirect.to_owned());
        state.standby = Some(demoted);
        state.armed = false;
        state.strikes = 0;
    }
}

/// Sends `promote` to a standby, returning its session count and the
/// epoch its promotion put in force.
fn promote(addr: &str, gate: &ShutdownGate) -> Result<(u64, u64), ClientError> {
    let mut client = Client::connect_with_timeout(addr, BACKEND_CONNECT_TIMEOUT)?;
    let policy = RetryPolicy::with_budget_ms(PROMOTE_BUDGET_MS);
    match client.request_with_retry_until(&Request::Promote, None, &policy, gate)? {
        Response::Promoted { sessions, epoch } => Ok((sessions, epoch)),
        other => Err(ClientError::Protocol(ServiceError::protocol(format!(
            "unexpected promote reply: {}",
            other.encode()
        )))),
    }
}

/// The sharding topology a request routes on: the ring plus one
/// [`Pair`] per label. Immutable once published — membership changes
/// build a new one and swap it in, so in-flight requests keep the
/// topology they started with (pairs themselves are shared, preserving
/// their runtime state across the swap).
struct Shards {
    ring: HashRing,
    pairs: Vec<Arc<Pair>>,
}

impl Shards {
    fn build(pairs: Vec<Arc<Pair>>) -> Self {
        let labels = pairs.iter().map(|p| p.label.clone()).collect();
        Self { ring: HashRing::new(labels, VNODES_PER_PAIR), pairs }
    }
}

/// Everything the worker and health threads share.
struct RouterState {
    /// The current topology; loaded per request, swapped on membership
    /// changes.
    shards: Mutex<Arc<Shards>>,
    /// Serializes `add_pair` / `remove_pair` so two concurrent
    /// membership changes cannot interleave their migrations.
    membership: Mutex<()>,
}

impl RouterState {
    fn shards(&self) -> Arc<Shards> {
        self.shards.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

/// One client connection's idle backend connections, keyed by address
/// (the same node may serve several pairs' sessions after membership
/// churn). The connection's one job at a time checks a connection out
/// for its round trip and returns it on success, so the mutex is never
/// contended.
#[derive(Default)]
struct BackendConns(Mutex<HashMap<String, Client>>);

impl BackendConns {
    /// The idle connection to `addr`, or a fresh dial. A pooled
    /// connection the backend has written to or closed since its last
    /// reply (an idle-timeout refusal, a drain) is dropped, not reused.
    fn checkout(&self, addr: &str) -> Result<Client, ClientError> {
        let pooled = self.0.lock().unwrap_or_else(PoisonError::into_inner).remove(addr);
        match pooled {
            Some(client) if !client.is_stale() => Ok(client),
            _ => Client::connect_with_timeout(addr, BACKEND_CONNECT_TIMEOUT),
        }
    }

    fn checkin(&self, addr: &str, client: Client) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).insert(addr.to_owned(), client);
    }
}

/// A bound, not-yet-running router instance.
pub struct Router {
    listener: TcpListener,
    state: Arc<RouterState>,
    shutdown: Arc<ShutdownGate>,
    health_interval: Duration,
}

impl Router {
    /// Binds the router's listener. Pass port 0 to let the OS pick.
    ///
    /// # Errors
    ///
    /// The bind failure, or `InvalidInput` for an empty pair list.
    pub fn bind(addr: impl ToSocketAddrs, config: RouterConfig) -> std::io::Result<Self> {
        if config.pairs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one backend pair",
            ));
        }
        // Pairs are labeled by their primary address: stable across
        // router restarts no matter which node of the pair is active.
        let pairs = config.pairs.into_iter().map(|spec| Arc::new(Pair::new(spec))).collect();
        let state = RouterState {
            shards: Mutex::new(Arc::new(Shards::build(pairs))),
            membership: Mutex::new(()),
        };
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(state),
            shutdown: Arc::new(ShutdownGate::new()),
            health_interval: config.health_interval,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The drain gate, for embedders (a signal hook calls
    /// [`trigger`](ShutdownGate::trigger)); the wire `shutdown` request
    /// trips the same gate. Unlike a plain flag, tripping it *wakes* the
    /// health loop and any retry backoff mid-sleep.
    #[must_use]
    pub fn shutdown_handle(&self) -> Arc<ShutdownGate> {
        Arc::clone(&self.shutdown)
    }

    /// Proxies until a `shutdown` request (which the router answers
    /// itself — it is not forwarded to the backends) or the
    /// [`shutdown_handle`](Router::shutdown_handle) drains it. Runs the
    /// reactor on this thread, an elastic worker pool (at most
    /// `PAIR_INFLIGHT` threads per pair plus `ADMIN_INFLIGHT`) and
    /// the health loop.
    ///
    /// # Errors
    ///
    /// Only fatal listener/epoll errors.
    pub fn run(self) -> std::io::Result<()> {
        let dispatch = RouterDispatch {
            state: Arc::clone(&self.state),
            shutdown: Arc::clone(&self.shutdown),
            pool: WorkerPool::elastic()?,
            admin: Arc::new(Admission::new(ADMIN_INFLIGHT)),
            backends: RefCell::default(),
        };
        let reactor = Reactor::new(
            self.listener,
            dispatch.pool.completions(),
            Arc::clone(&self.shutdown),
            None,
            ReactorConfig {
                max_connections: ServeConfig::default().max_connections,
                idle_timeout: None,
                max_requests_per_sec: None,
            },
        )?;
        let health = {
            let state = Arc::clone(&self.state);
            let shutdown = Arc::clone(&self.shutdown);
            let interval = self.health_interval;
            std::thread::Builder::new()
                .name("chop-router-health".into())
                .spawn(move || health_loop(&state, &shutdown, interval))
                .expect("failed to spawn health thread")
        };
        let result = reactor.run(&dispatch);
        // A fatal reactor error must still stop the health loop.
        self.shutdown.trigger();
        dispatch.pool.shutdown();
        let _ = health.join();
        result
    }
}

/// The router's request semantics on top of the reactor.
struct RouterDispatch {
    state: Arc<RouterState>,
    shutdown: Arc<ShutdownGate>,
    pool: WorkerPool,
    /// The admin requests' share of the pool ([`ADMIN_INFLIGHT`] jobs).
    admin: Arc<Admission>,
    /// Each open client connection's backend connections, as a thread
    /// per client kept them: a backend's per-connection rate cap limits
    /// each router client on its own. Reactor thread only.
    backends: RefCell<HashMap<u64, Arc<BackendConns>>>,
}

impl LineHandler for RouterDispatch {
    /// Decodes one line and routes it: `shutdown` stops the router
    /// itself, inline; `router_status` and membership changes (`add_pair`
    /// / `remove_pair`) run in the pool on the admin budget, everything
    /// else on its session's pair's budget. A spent budget is answered
    /// `busy` at once.
    fn handle_line(&self, conn: u64, line: &str) -> LineOutcome {
        let (request, req_id) = match Request::decode_tagged(line) {
            Ok(decoded) => decoded,
            Err(e) => return LineOutcome::Reply(Response::Error(e)),
        };
        let state = Arc::clone(&self.state);
        match request {
            Request::Shutdown => {
                self.shutdown.trigger();
                LineOutcome::Reply(Response::ShuttingDown)
            }
            Request::RouterStatus | Request::AddPair { .. } | Request::RemovePair { .. } => {
                let Some(token) = self.admin.try_acquire() else {
                    return LineOutcome::Reply(self.admin.busy_reply());
                };
                self.pool.submit(conn, "routing", move || {
                    let _token = token;
                    match &request {
                        Request::AddPair { pair } => add_pair(&state, pair),
                        Request::RemovePair { pair } => remove_pair(&state, pair),
                        _ => router_status(&state),
                    }
                })
            }
            request => {
                let shards = state.shards();
                let Some(index) = shards.ring.assign(request.session().unwrap_or("")) else {
                    let e = ServiceError::new(ErrorKind::Internal, "empty backend ring");
                    return LineOutcome::Reply(Response::Error(e));
                };
                let pair = Arc::clone(&shards.pairs[index]);
                let Some(token) = pair.admission.try_acquire() else {
                    return LineOutcome::Reply(pair.admission.busy_reply());
                };
                let conns = Arc::clone(self.backends.borrow_mut().entry(conn).or_default());
                let gate = Arc::clone(&self.shutdown);
                self.pool.submit(conn, "routing", move || {
                    let _token = token;
                    forward(&conns, &pair, &request, req_id.as_deref(), &gate)
                })
            }
        }
    }

    fn closed(&self, conn: u64) {
        self.backends.borrow_mut().remove(&conn);
    }
}

/// What a health ping learned about a node.
struct PongInfo {
    role: Option<String>,
    epoch: u64,
    peer: Option<String>,
}

/// Pings every pair's active node once per (jittered) interval;
/// [`HEALTH_STRIKES`] consecutive misses fail the pair over without
/// waiting for a client request to trip on the dead node. Healthy pings
/// also drive **re-arming**: an unarmed pair's standby candidate (the
/// failed ex-active, or whatever the active reports as its replication
/// peer) is pinged too, and once it answers as a demoted standby at the
/// active's epoch the pair is armed for the next failover. The gate
/// wakes the full-interval wait (and every ping backoff) the moment
/// shutdown trips, so drain latency no longer depends on the interval.
fn health_loop(state: &RouterState, shutdown: &ShutdownGate, interval: Duration) {
    // ±25% jitter around the configured cadence: many pairs (or many
    // routers sharing a standby host) must not ping in lockstep.
    let mut jitter = Jitter::from_entropy(interval * 3 / 4, interval * 5 / 4);
    loop {
        if shutdown.wait_for(jitter.next_sleep()) {
            return;
        }
        let shards = state.shards();
        for pair in &shards.pairs {
            let addr = pair.active();
            match ping(&addr, shutdown) {
                Ok(pong) => {
                    pair.state.lock().unwrap_or_else(PoisonError::into_inner).strikes = 0;
                    maybe_rearm(pair, &addr, &pong, shutdown);
                }
                Err(_) => {
                    let strikes = {
                        let mut st = pair.state.lock().unwrap_or_else(PoisonError::into_inner);
                        if st.active != addr {
                            continue; // a request thread already failed over
                        }
                        st.strikes += 1;
                        st.strikes
                    };
                    if strikes >= HEALTH_STRIKES {
                        let _ = pair.fail_over(&addr, shutdown);
                    }
                }
            }
        }
    }
}

/// Re-arms an unarmed pair when its standby candidate has rejoined: the
/// candidate (the active node's reported replication peer, falling back
/// to the last known standby address) must answer a ping as a demoted
/// `standby`/`fenced` node at the active's epoch — proof it heard about
/// the failover and is resyncing from the current primary.
fn maybe_rearm(pair: &Pair, active: &str, active_pong: &PongInfo, gate: &ShutdownGate) {
    let candidate = {
        let st = pair.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.armed {
            return;
        }
        active_pong.peer.clone().or_else(|| st.standby.clone())
    };
    let Some(candidate) = candidate else { return };
    if candidate == active {
        return;
    }
    let Ok(pong) = ping(&candidate, gate) else { return };
    let demoted = matches!(pong.role.as_deref(), Some("standby" | "fenced"));
    if !demoted || pong.epoch != active_pong.epoch {
        return;
    }
    let mut st = pair.state.lock().unwrap_or_else(PoisonError::into_inner);
    if st.armed || st.active != active {
        return;
    }
    st.standby = Some(candidate.clone());
    st.armed = true;
    eprintln!(
        "chop-router: pair {}: standby {candidate} rejoined at epoch {}; pair re-armed",
        pair.label, pong.epoch
    );
}

fn ping(addr: &str, gate: &ShutdownGate) -> Result<PongInfo, ClientError> {
    let mut client = Client::connect_with_timeout(addr, BACKEND_CONNECT_TIMEOUT)?;
    let policy = RetryPolicy {
        attempt_timeout: Some(Duration::from_millis(HEALTH_PING_BUDGET_MS)),
        ..RetryPolicy::with_budget_ms(HEALTH_PING_BUDGET_MS)
    };
    match client.request_with_retry_until(&Request::Ping, None, &policy, gate)? {
        Response::Pong { role, epoch, peer, .. } => Ok(PongInfo { role, epoch, peer }),
        other => Err(ClientError::Protocol(ServiceError::protocol(format!(
            "unexpected ping reply: {}",
            other.encode()
        )))),
    }
}

/// Forwards one request over a client connection's backend connections
/// to its session's pair, with promote-and-retry on backend death and
/// re-learning on a typed redirect.
fn forward(
    conns: &BackendConns,
    pair: &Pair,
    request: &Request,
    req_id: Option<&str>,
    gate: &ShutdownGate,
) -> Response {
    let active = pair.active();
    let (response, via) = match send_via(conns, &active, request, req_id) {
        Ok(response) => (response, active.clone()),
        Err(first_err) => {
            let Some(next) = pair.fail_over(&active, gate) else {
                return Response::Error(ServiceError::new(
                    ErrorKind::Internal,
                    format!("no live backend for this session: {first_err}"),
                ));
            };
            // The request died with its backend. Replaying it on the
            // promoted standby is exactly-once only for reads/explores
            // (pure) and req_id-tagged mutations (answered from the
            // replicated dedup window if already applied).
            if request.is_mutation() && req_id.is_none() {
                return Response::Error(ServiceError::new(
                    ErrorKind::Internal,
                    "backend died mid-request; an untagged mutation cannot be retried \
                     safely — tag it with a req_id and resend",
                ));
            }
            match send_via(conns, &next, request, req_id) {
                Ok(response) => (response, next),
                Err(e) => {
                    return Response::Error(ServiceError::new(
                        ErrorKind::Internal,
                        format!("backend failed over but the standby did not answer: {e}"),
                    ))
                }
            }
        }
    };
    // Topology re-learning: a standby/fenced refusal naming the real
    // primary proves the pair state is stale. A typed refusal means
    // nothing was applied, so re-sending — even an untagged mutation —
    // is safe.
    let Response::Error(e) = &response else { return response };
    if !matches!(e.kind, ErrorKind::Standby | ErrorKind::Fenced) {
        return response;
    }
    let Some(primary) = e.primary.clone() else { return response };
    if primary == via {
        return response;
    }
    pair.adopt_active(&primary);
    match send_via(conns, &primary, request, req_id) {
        Ok(redirected) => redirected,
        // The named primary did not answer: surface the original refusal
        // (it carries the redirect for the client to act on).
        Err(_) => response,
    }
}

/// Sends one request over the pooled connection to `addr`, dialing as
/// needed; a transport failure drops the connection instead of pooling
/// it again.
fn send_via(
    conns: &BackendConns,
    addr: &str,
    request: &Request,
    req_id: Option<&str>,
) -> Result<Response, ClientError> {
    let mut client = conns.checkout(addr)?;
    let response = client.request_tagged(request, req_id)?;
    conns.checkin(addr, client);
    Ok(response)
}

// ---- membership ---------------------------------------------------------

/// Adds a backend pair to the ring, migrating the sessions whose
/// assignment moves onto it before the new topology goes live.
fn add_pair(state: &RouterState, spec: &str) -> Response {
    let spec = match BackendSpec::parse(spec) {
        Ok(spec) => spec,
        Err(e) => return Response::Error(ServiceError::new(ErrorKind::Spec, e)),
    };
    let _admin = state.membership.lock().unwrap_or_else(PoisonError::into_inner);
    let old = state.shards();
    if old.pairs.iter().any(|p| p.label == spec.primary) {
        return Response::Error(ServiceError::new(
            ErrorKind::Spec,
            format!("pair {} is already on the ring", spec.primary),
        ));
    }
    let mut pairs = old.pairs.clone();
    pairs.push(Arc::new(Pair::new(spec)));
    let new = Arc::new(Shards::build(pairs));
    if let Err(e) = migrate(&old, &new) {
        return Response::Error(e);
    }
    *state.shards.lock().unwrap_or_else(PoisonError::into_inner) = Arc::clone(&new);
    Response::PairAdded { pairs: new.ring.labels().to_vec() }
}

/// Removes the pair labeled `label` (its configured primary address),
/// migrating its sessions onto the remaining pairs first.
fn remove_pair(state: &RouterState, label: &str) -> Response {
    let _admin = state.membership.lock().unwrap_or_else(PoisonError::into_inner);
    let old = state.shards();
    if !old.pairs.iter().any(|p| p.label == label) {
        return Response::Error(ServiceError::new(
            ErrorKind::Spec,
            format!("no pair labeled {label:?} on the ring"),
        ));
    }
    let pairs: Vec<Arc<Pair>> =
        old.pairs.iter().filter(|p| p.label != label).map(Arc::clone).collect();
    if pairs.is_empty() {
        return Response::Error(ServiceError::new(
            ErrorKind::Spec,
            "cannot remove the last pair on the ring",
        ));
    }
    let new = Arc::new(Shards::build(pairs));
    if let Err(e) = migrate(&old, &new) {
        return Response::Error(e);
    }
    *state.shards.lock().unwrap_or_else(PoisonError::into_inner) = Arc::clone(&new);
    Response::PairRemoved { pairs: new.ring.labels().to_vec() }
}

/// One status line per pair: label, live addresses, arm state.
fn router_status(state: &RouterState) -> Response {
    let shards = state.shards();
    let pairs = shards
        .pairs
        .iter()
        .map(|p| {
            let st = p.state.lock().unwrap_or_else(PoisonError::into_inner);
            format!(
                "{}: active={} standby={} armed={} strikes={}",
                p.label,
                st.active,
                st.standby.as_deref().unwrap_or("-"),
                st.armed,
                st.strikes
            )
        })
        .collect();
    Response::RouterStatus { pairs }
}

/// Moves every session whose ring assignment differs between `old` and
/// `new` to its new pair: export (genesis + mutation history) from the
/// old active, import on the new active, close on the old. The
/// consistent-hash property keeps this minimal — only sessions touching
/// the added/removed label move.
fn migrate(old: &Shards, new: &Shards) -> Result<(), ServiceError> {
    for pair in &old.pairs {
        let from = pair.active();
        for session in list_sessions(&from)? {
            if old.ring.assign_label(&session) == new.ring.assign_label(&session) {
                continue;
            }
            let Some(target_label) = new.ring.assign_label(&session) else { continue };
            let target = new
                .pairs
                .iter()
                .find(|p| p.label == target_label)
                .expect("assigned label is on the ring")
                .active();
            move_session(&session, &from, &target)?;
            eprintln!("chop-router: membership: moved session {session:?} {from} -> {target}");
        }
    }
    Ok(())
}

/// The open sessions on one backend, via a `stats` request.
fn list_sessions(addr: &str) -> Result<Vec<String>, ServiceError> {
    let mut client = dial(addr)?;
    match client.request(&Request::Stats { session: None }).map_err(migration_err)? {
        Response::Stats { sessions, .. } => Ok(sessions),
        Response::Error(e) => Err(e),
        other => Err(unexpected_reply("stats", &other)),
    }
}

/// Export → import → close for one session.
fn move_session(session: &str, from: &str, to: &str) -> Result<(), ServiceError> {
    let mut src = dial(from)?;
    let records = match src
        .request(&Request::Export { session: session.to_owned() })
        .map_err(migration_err)?
    {
        Response::Exported { records, .. } => records,
        Response::Error(e) => return Err(e),
        other => return Err(unexpected_reply("export", &other)),
    };
    let mut dst = dial(to)?;
    match dst.request(&Request::Import { records }).map_err(migration_err)? {
        Response::Imported { .. } => {}
        Response::Error(e) => return Err(e),
        other => return Err(unexpected_reply("import", &other)),
    }
    match src.request(&Request::Close { session: session.to_owned() }).map_err(migration_err)? {
        Response::Closed { .. } => Ok(()),
        Response::Error(e) => Err(e),
        other => Err(unexpected_reply("close", &other)),
    }
}

fn dial(addr: &str) -> Result<Client, ServiceError> {
    Client::connect_with_timeout(addr, BACKEND_CONNECT_TIMEOUT).map_err(migration_err)
}

fn migration_err(e: ClientError) -> ServiceError {
    ServiceError::new(ErrorKind::Internal, format!("session migration failed: {e}"))
}

fn unexpected_reply(what: &str, got: &Response) -> ServiceError {
    ServiceError::protocol(format!(
        "unexpected {what} reply during migration: {}",
        got.encode()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_assignment_is_deterministic_and_total() {
        let labels = vec!["a:1".to_owned(), "b:2".to_owned(), "c:3".to_owned()];
        let ring = HashRing::new(labels.clone(), 64);
        let again = HashRing::new(labels, 64);
        for key in ["", "alpha", "beta", "a-very-long-session-name-with-dashes"] {
            let index = ring.assign(key).expect("non-empty ring");
            assert!(index < 3);
            assert_eq!(again.assign(key), Some(index), "placement must be reproducible");
        }
        assert!(HashRing::new(Vec::new(), 64).assign("x").is_none());
    }

    #[test]
    fn ring_spreads_sessions_across_pairs() {
        let labels: Vec<String> = (0..4).map(|i| format!("node{i}:1991")).collect();
        let ring = HashRing::new(labels, 64);
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[ring.assign(&format!("session-{i}")).unwrap()] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            assert!(
                count > 100,
                "pair {i} got {count}/1000 sessions — ring is badly unbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn backend_spec_parses_pairs() {
        assert_eq!(
            BackendSpec::parse("127.0.0.1:1991,127.0.0.1:1992").unwrap(),
            BackendSpec {
                primary: "127.0.0.1:1991".into(),
                standby: Some("127.0.0.1:1992".into()),
            }
        );
        assert_eq!(
            BackendSpec::parse("127.0.0.1:1991").unwrap(),
            BackendSpec { primary: "127.0.0.1:1991".into(), standby: None }
        );
        assert!(BackendSpec::parse("").is_err());
        assert!(BackendSpec::parse("a,b,c").is_err());
        assert!(BackendSpec::parse(",b").is_err());
    }

    #[test]
    fn fail_over_needs_an_armed_standby_and_stale_callers_learn_the_active() {
        let gate = ShutdownGate::new();
        let pair = Pair::new(BackendSpec { primary: "10.0.0.1:1".into(), standby: None });
        assert_eq!(pair.active(), "10.0.0.1:1");
        assert!(pair.fail_over("10.0.0.1:1", &gate).is_none(), "no standby, nowhere to go");
        // A caller holding a stale address learns the current active.
        let pair = Pair::new(BackendSpec { primary: "10.0.0.1:1".into(), standby: None });
        {
            let mut st = pair.state.lock().unwrap();
            st.active = "10.0.0.2:1".into();
            st.standby = Some("10.0.0.1:1".into());
            st.armed = false;
        }
        assert_eq!(pair.fail_over("10.0.0.1:1", &gate), Some("10.0.0.2:1".into()));
        assert!(
            pair.fail_over("10.0.0.2:1", &gate).is_none(),
            "the rejoin candidate is not armed yet, so a second failover has nowhere to go"
        );
    }

    #[test]
    fn adopt_active_swaps_roles_and_disarms() {
        let pair = Pair::new(BackendSpec {
            primary: "10.0.0.1:1".into(),
            standby: Some("10.0.0.2:1".into()),
        });
        // A fenced refusal from 10.0.0.1 named 10.0.0.2 as the primary.
        pair.adopt_active("10.0.0.2:1");
        let st = pair.state.lock().unwrap();
        assert_eq!(st.active, "10.0.0.2:1");
        assert_eq!(st.standby.as_deref(), Some("10.0.0.1:1"));
        assert!(!st.armed, "the demoted node must re-prove sync before it is armed");
        assert_eq!(st.strikes, 0);
        drop(st);
        // Adopting the already-active address is a no-op.
        pair.adopt_active("10.0.0.2:1");
        assert_eq!(pair.active(), "10.0.0.2:1");
    }

    #[test]
    fn shards_rebuild_preserves_pair_state() {
        let a = Arc::new(Pair::new(BackendSpec { primary: "a:1".into(), standby: None }));
        a.adopt_active("a:2");
        let b = Arc::new(Pair::new(BackendSpec { primary: "b:1".into(), standby: None }));
        let shards = Shards::build(vec![Arc::clone(&a), Arc::clone(&b)]);
        assert_eq!(shards.ring.labels(), ["a:1".to_owned(), "b:1".to_owned()]);
        // The rebuilt topology shares the same Pair objects: runtime
        // state (the re-learned active) survives membership changes.
        assert_eq!(shards.pairs[0].active(), "a:2");
    }
}
