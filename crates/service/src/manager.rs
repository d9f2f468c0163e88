//! Named-session bookkeeping and the request → core-API façade.
//!
//! A [`SessionManager`] owns every open [`Session`] behind one mutex and
//! threads a single shared [`PredictionCache`] through all of them, so
//! two sessions opened on the same spec (or a session re-explored after a
//! `repartition`) serve partition predictions from each other's work —
//! the cross-session cache hits the `stats` response exposes.
//!
//! # One request path
//!
//! Every request enters through
//! [`dispatch_tagged`](SessionManager::dispatch_tagged): it routes
//! replication and role traffic, refuses mutations on a standby, answers
//! retried `req_id`s from the dedup window, and hands each remaining
//! request to one private handler that builds its own [`Response`].
//! Every handler that changes the sessions map does so through one
//! commit step, `mutate`: journal, replicate, apply, record the history,
//! compact. The only other public entry points are the read-side
//! [`explore`](SessionManager::explore) (which the server runs on its
//! worker pool) and [`stats`](SessionManager::stats).
//!
//! Locking discipline: the sessions map is locked only for bookkeeping.
//! `explore` and `optimize` clone the session out of the map (a cheap,
//! `Arc`-sharing clone), run the search **unlocked**, then re-lock
//! briefly to record the run summary (and, for `optimize`, to commit the
//! accepted trace) — concurrent searches on different (or the same)
//! session never serialize on the manager.
//!
//! The manager is fully decoupled from connection I/O: it is called by
//! the reactor thread (cheap requests, answered inline) and by worker
//! threads (explores, handed back through the completion queue), and
//! never writes to a socket or blocks on a client. Lock order across the
//! serving stack is strictly `sessions → journal` (this module, see
//! below); the reactor and the completion queue each take their own
//! locks *after* all manager locks are released, so no cycle exists —
//! the doctrine is spelled out in DESIGN.md §13.
//!
//! # Durability and idempotency
//!
//! When built via [`SessionManager::recover`], every session mutation
//! (`open`, `repartition`, `apply_moves`, `set_constraints`, `close`;
//! an `optimize` commits its accepted trace as an `apply_moves`) is
//! appended to a write-ahead [`Journal`] *before* it is committed to the
//! sessions map — a crash between the two replays the mutation on
//! restart; a journal append failure refuses the mutation with a typed
//! `internal` error and leaves state untouched. The journal mutex is only
//! ever taken while already holding the sessions lock, so the two can
//! never deadlock. Explores are pure (re-running one reproduces the same
//! digest) and are never journaled.
//!
//! Requests tagged with a client `req_id` are answered from a bounded
//! per-session dedup window on retry: the recorded [`Response`] is
//! returned instead of re-applying the mutation, which is what makes
//! client-side retry-after-reconnect safe for non-idempotent requests.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};
use chop_core::prelude::*;
use chop_dfg::parse::parse_dfg;
use chop_library::standard::{example_off_shelf_ram, table1_library, table2_packages};
use chop_library::ChipSet;
use chop_stat::units::Nanos;

use crate::journal::{Journal, JournalEntry};
use crate::protocol::{
    ErrorKind, ExploreParams, OpenParams, OptimizeParams, OptimizeSummary, Request, Response,
    Role, RunSummary, ServiceError, PROTOCOL_VERSION,
};
use crate::replication::ReplEvent;

/// Most recent `req_id` outcomes remembered per session.
const DEDUP_PER_SESSION: usize = 32;
/// Sessions tracked in the dedup window before the oldest is evicted
/// (kept separate from the sessions map so a `close` outcome can still be
/// replayed to a retry).
const DEDUP_SESSIONS: usize = 256;

/// One managed session: the live core session plus its latest run.
struct Managed {
    session: Session,
    last_run: Option<RunSummary>,
    /// Monotonic id assigned at `open`. An unlocked exploration captures
    /// it alongside the session clone; the run summary is recorded only
    /// if the entry under this name still carries the same generation,
    /// so a close + reopen racing the search never inherits a stale run.
    generation: u64,
    /// The `open` parameters this session was built from — the genesis
    /// record a journal compaction snapshot starts the session with.
    genesis: OpenParams,
    /// The `req_id` the `open` carried, preserved through compaction so
    /// the idempotency window survives a restart.
    open_req_id: Option<String>,
    /// Net mutation history since `open` (repartitions, move batches and
    /// constraint changes, with their `req_id`s), in application order.
    mutations: Vec<JournalEntry>,
}

impl Managed {
    /// The records that rebuild this session: its genesis `open`, then
    /// its net mutations.
    fn history(&self, name: &str) -> Vec<JournalEntry> {
        let open = Request::Open { session: name.to_owned(), params: self.genesis.clone() };
        std::iter::once(JournalEntry { request: open, req_id: self.open_req_id.clone() })
            .chain(self.mutations.iter().cloned())
            .collect()
    }
}

/// Bounded per-session memory of `req_id` → outcome, so a retried
/// mutation is answered from the recorded response instead of re-applied.
#[derive(Default)]
struct DedupWindow {
    windows: HashMap<String, VecDeque<(String, Response)>>,
    /// Session insertion order, for eviction.
    order: VecDeque<String>,
}

impl DedupWindow {
    fn lookup(&self, session: &str, req_id: &str) -> Option<Response> {
        self.windows
            .get(session)?
            .iter()
            .find(|(id, _)| id == req_id)
            .map(|(_, response)| response.clone())
    }

    fn record(&mut self, session: &str, req_id: &str, response: Response) {
        if !self.windows.contains_key(session) {
            if self.order.len() >= DEDUP_SESSIONS {
                if let Some(evicted) = self.order.pop_front() {
                    self.windows.remove(&evicted);
                }
            }
            self.order.push_back(session.to_owned());
            self.windows.insert(session.to_owned(), VecDeque::new());
        }
        let window = self.windows.get_mut(session).expect("window just ensured");
        if let Some(stale) = window.iter().position(|(id, _)| id == req_id) {
            window.remove(stale);
        }
        if window.len() >= DEDUP_PER_SESSION {
            window.pop_front();
        }
        window.push_back((req_id.to_owned(), response));
    }
}

/// What [`SessionManager::recover`] found and rebuilt from the journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sessions live after replay.
    pub sessions_restored: usize,
    /// Journal records replayed (including ones for since-closed sessions).
    pub records_replayed: usize,
    /// Torn or corrupt tail records skipped with a warning.
    pub records_skipped: usize,
}

/// Observer invoked with a one-line description of each role change.
type RoleHook = Box<dyn Fn(&str) + Send + Sync>;

/// Every [`Role`], indexed by the `role as u8` the manager stores.
const ROLES: [Role; 3] = [Role::Primary, Role::Standby, Role::Fenced];

/// Owns every named session and the cache they share.
pub struct SessionManager {
    cache: Arc<PredictionCache>,
    sessions: Mutex<HashMap<String, Managed>>,
    dedup: Mutex<DedupWindow>,
    /// The write-ahead log; `None` for a purely in-memory manager.
    /// Lock order: sessions → journal, never the reverse.
    journal: Option<Mutex<Journal>>,
    /// Gate on [`journal_append`](Self::journal_append): cleared while a
    /// replicated snapshot replays (the records are re-persisted wholesale
    /// by the compaction that follows), set everywhere else.
    journal_armed: AtomicBool,
    generations: AtomicU64,
    default_jobs: usize,
    /// The node's [`Role`] as `role as u8`. A standby or fenced node
    /// refuses direct mutations (with `standby` or `fenced`); state
    /// arrives over the replication stream until
    /// [`promote`](Self::promote).
    role: AtomicU8,
    /// The cluster epoch: bumped by every promotion, adopted from
    /// higher-epoch peers, journaled as a `role_change` record so a
    /// restart replays the node back into its last role.
    epoch: AtomicU64,
    /// Best guess at the current primary's `host:port` — attached to
    /// `standby`/`fenced` refusals so clients can follow the redirect.
    primary_hint: Mutex<Option<String>>,
    /// This node's own dialable `host:port` (set after bind); carried on
    /// outgoing replication traffic so peers can find us back.
    advertised: Mutex<Option<String>>,
    /// The replication peer's address. Dynamic: hearing from a stale
    /// peer at a new address retargets the replicator to resync it.
    peer: Mutex<Option<String>>,
    /// Called with a one-line description on every role transition
    /// (promotion, fencing demotion) — the CLI wires its banner here.
    role_hook: Mutex<Option<RoleHook>>,
    /// Monotonic count of committed mutations — the position a
    /// replication stream ships records at. Advances only under the
    /// sessions lock, so emission order equals sequence order.
    repl_seq: AtomicU64,
    /// Highest replication sequence number this standby has applied or
    /// skipped; re-delivered records at or below it are acked, not
    /// re-applied.
    repl_high_water: AtomicU64,
    /// Where committed records are shipped, when a replicator is
    /// attached. Locked only while already holding the sessions lock.
    repl_sink: Mutex<Option<mpsc::Sender<ReplEvent>>>,
    /// Serializes replication applies against each other and against
    /// promotion, so a promote never interleaves a half-applied snapshot.
    repl_apply: Mutex<()>,
}

impl SessionManager {
    /// Creates an empty manager. `default_jobs` is the worker-thread count
    /// an `explore` uses when the request does not override it.
    #[must_use]
    pub fn new(default_jobs: usize) -> Self {
        Self::new_with_cache(
            default_jobs,
            Arc::new(PredictionCache::with_config(
                DEFAULT_CACHE_CAPACITY,
                recommended_shards(default_jobs),
            )),
        )
    }

    /// Creates an empty manager around an externally built prediction
    /// cache — how `chop serve` injects a snapshot-warmed or custom-
    /// sharded cache. Every session this manager opens (including
    /// sessions rebuilt by journal replay) shares `cache`.
    #[must_use]
    pub fn new_with_cache(default_jobs: usize, cache: Arc<PredictionCache>) -> Self {
        Self {
            cache,
            sessions: Mutex::new(HashMap::new()),
            dedup: Mutex::new(DedupWindow::default()),
            journal: None,
            journal_armed: AtomicBool::new(true),
            generations: AtomicU64::new(0),
            default_jobs: default_jobs.max(1),
            role: AtomicU8::new(Role::Primary as u8),
            epoch: AtomicU64::new(0),
            primary_hint: Mutex::new(None),
            advertised: Mutex::new(None),
            peer: Mutex::new(None),
            role_hook: Mutex::new(None),
            repl_seq: AtomicU64::new(0),
            repl_high_water: AtomicU64::new(0),
            repl_sink: Mutex::new(None),
            repl_apply: Mutex::new(()),
        }
    }

    /// Opens (or creates) the write-ahead journal under `state_dir`,
    /// replays every surviving record to rebuild the sessions it
    /// describes — torn or corrupt tail records are skipped with a
    /// warning, never a panic — and returns the recovered manager with
    /// journaling armed for subsequent mutations. Replay also re-records
    /// each journaled `req_id` outcome, so the idempotency window
    /// survives the restart.
    ///
    /// # Errors
    ///
    /// Real I/O failures opening the journal only; nothing *in* the
    /// journal can fail recovery.
    pub fn recover(
        default_jobs: usize,
        state_dir: &Path,
        snapshot_every: usize,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        Self::recover_with_cache(
            default_jobs,
            state_dir,
            snapshot_every,
            Arc::new(PredictionCache::with_config(
                DEFAULT_CACHE_CAPACITY,
                recommended_shards(default_jobs),
            )),
        )
    }

    /// [`SessionManager::recover`] around an externally built prediction
    /// cache (see [`SessionManager::new_with_cache`]). The cache must be
    /// injected *before* replay: sessions capture the shared cache handle
    /// when they open, so replayed sessions warm — and are warmed by —
    /// the same cache the live ones use.
    ///
    /// # Errors
    ///
    /// Real I/O failures opening the journal only; nothing *in* the
    /// journal can fail recovery.
    pub fn recover_with_cache(
        default_jobs: usize,
        state_dir: &Path,
        snapshot_every: usize,
        cache: Arc<PredictionCache>,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        let (journal, scan) = Journal::open(state_dir, snapshot_every)?;
        // Replay through the ordinary dispatch paths with journaling
        // still disarmed: the records are already on disk.
        let mut manager = Self::new_with_cache(default_jobs, cache);
        let mut report = RecoveryReport {
            records_skipped: scan.skipped,
            records_replayed: scan.entries.len(),
            sessions_restored: 0,
        };
        for entry in &scan.entries {
            // Role records are journal-internal: replay installs the role
            // directly instead of going through the wire guard.
            if let Request::RoleChange { epoch, role } = entry.request {
                manager.install_role(epoch, role);
                continue;
            }
            // A journaled record was admitted when it was written, so a
            // role record replayed *before* it must not re-refuse it.
            if let Err(e) = manager.replay(&entry.request, entry.req_id.as_deref()) {
                // A journal written by this manager replays cleanly; an
                // error means a hand-edited or cross-version log. Keep
                // going — later sessions are independent.
                eprintln!(
                    "chop-service: recovery: replay of {:?} failed: {}",
                    entry.request.encode(),
                    e.message
                );
            }
        }
        report.sessions_restored = manager.session_count();
        manager.journal = Some(Mutex::new(journal));
        Ok((manager, report))
    }

    /// Scripts I/O faults into the journal's subsequent appends (chaos
    /// tests only). No-op for a manager without a journal.
    #[cfg(feature = "fault-inject")]
    pub fn inject_journal_faults(&self, plan: IoFaultPlan) {
        if let Some(journal) = &self.journal {
            journal.lock().unwrap_or_else(PoisonError::into_inner).set_io_faults(plan);
        }
    }

    /// The prediction cache shared by every session this manager opens.
    #[must_use]
    pub fn shared_cache(&self) -> Arc<PredictionCache> {
        Arc::clone(&self.cache)
    }

    /// Number of open sessions.
    ///
    /// # Panics
    ///
    /// Never — a poisoned lock is recovered, not propagated.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Managed>> {
        // A panic while the map was locked (contained elsewhere by the
        // server's panic isolation) must not wedge every later request.
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one way a request enters the manager; returns its response.
    /// The server calls it from its worker pool for `explore` and
    /// `optimize` (and intercepts `shutdown`, which here only
    /// acknowledges).
    ///
    /// A `req_id`-tagged mutation already in the dedup window is answered
    /// from its recorded outcome without being re-applied; fresh tagged
    /// mutations record their outcome (success *or* failure) for retries.
    /// Replication traffic is routed to its apply paths here, and a warm
    /// standby refuses every other mutation with [`ErrorKind::Standby`] —
    /// reads and explores are always served.
    pub fn dispatch_tagged(&self, request: &Request, req_id: Option<&str>) -> Response {
        match request {
            Request::ReplApply { seq, record, epoch, primary } => {
                self.apply_replicated(*seq, record, *epoch, primary.as_deref())
            }
            Request::ReplSnapshot { seq, records, epoch, primary } => {
                self.apply_snapshot(*seq, records, *epoch, primary.as_deref())
            }
            Request::Promote => {
                let (sessions, epoch) = self.promote();
                Ok(Response::Promoted { sessions, epoch })
            }
            // Journal replay installs these directly; over the wire they
            // would let any client rewrite the cluster role.
            Request::RoleChange { .. } => Err(ServiceError::protocol(
                "role_change records are journal-internal and not accepted over the wire",
            )),
            Request::Export { session } => self.export(session),
            _ if self.is_standby() && request.is_mutation() => Err(self.standby_refusal()),
            Request::Import { records } => self.import(records),
            _ => return self.dispatch_inner(request, req_id),
        }
        .unwrap_or_else(Response::Error)
    }

    /// The un-guarded dispatch core: dedup window, then one handler per
    /// request. Replays call this directly (see [`replay`](Self::replay)).
    fn dispatch_inner(&self, request: &Request, req_id: Option<&str>) -> Response {
        let dedup_key = match (req_id, request.is_mutation(), request.session()) {
            (Some(id), true, Some(session)) => Some((session.to_owned(), id.to_owned())),
            _ => None,
        };
        if let Some((session, id)) = &dedup_key {
            let recorded =
                self.dedup.lock().unwrap_or_else(PoisonError::into_inner).lookup(session, id);
            if let Some(response) = recorded {
                return response;
            }
        }
        let response = match request {
            Request::Ping => Ok(Response::Pong {
                version: PROTOCOL_VERSION,
                role: Some(self.role()),
                epoch: self.epoch(),
                peer: self.peer(),
            }),
            Request::Open { session, params } => self.open(session, params, req_id),
            Request::Explore { session, params } => self
                .explore(session, params)
                .map(|run| Response::Explored { session: session.clone(), run }),
            Request::Repartition { session, node, to } => {
                self.repartition(session, *node, *to, req_id)
            }
            Request::Optimize { session, params } => self.optimize(session, params, req_id),
            Request::ApplyMoves { session, moves } => self.apply_moves(session, moves, req_id),
            Request::SetConstraints { session, performance_ns, delay_ns } => {
                self.set_constraints(session, *performance_ns, *delay_ns, req_id)
            }
            Request::Stats { session } => {
                self.stats(session.as_deref()).map(|(sessions, cache, last_run)| {
                    Response::Stats {
                        sessions,
                        cache,
                        shard_entries: self.cache.shard_occupancy(),
                        last_run,
                    }
                })
            }
            Request::Close { session } => self.close(session, req_id),
            Request::Shutdown => Ok(Response::ShuttingDown),
            // Replication traffic must not nest inside itself (a record
            // carrying a record): the wrapper already routed the real
            // thing, so reaching here means a malformed stream.
            Request::ReplApply { .. }
            | Request::ReplSnapshot { .. }
            | Request::Promote
            | Request::RoleChange { .. }
            | Request::Export { .. }
            | Request::Import { .. } => Err(ServiceError::protocol(
                "replication requests cannot be nested inside records",
            )),
            // Membership administration is a router concern; a bare
            // server has no pair table to edit.
            Request::AddPair { .. } | Request::RemovePair { .. } | Request::RouterStatus => {
                Err(ServiceError::protocol(
                    "router admin requests must be sent to a chop router",
                ))
            }
        }
        .unwrap_or_else(Response::Error);
        if let Some((session, id)) = dedup_key {
            self.dedup.lock().unwrap_or_else(PoisonError::into_inner).record(
                &session,
                &id,
                response.clone(),
            );
        }
        response
    }

    /// Replays one record the cluster already admitted — a journal entry
    /// on recovery, a replicated record or snapshot line, an imported
    /// line — through the un-guarded dispatch core: it was admitted when
    /// it was first applied, so a standby must not refuse it now.
    fn replay(&self, request: &Request, req_id: Option<&str>) -> Result<(), ServiceError> {
        match self.dispatch_inner(request, req_id) {
            Response::Error(e) => Err(e),
            _ => Ok(()),
        }
    }

    /// Decodes and replays one record line of a replication stream; `at`
    /// names it in the log. A failure is logged, not returned: the stream
    /// moves past the record as the primary did. A `role_change` line
    /// fails here (nested replication traffic), so a stream never sets
    /// this node's role.
    fn replay_line(&self, line: &str, at: impl std::fmt::Display) {
        match Request::decode_tagged(line) {
            Ok((request, req_id)) => {
                if let Err(e) = self.replay(&request, req_id.as_deref()) {
                    eprintln!(
                        "chop-service: replication: replay of {at} failed: {}",
                        e.message
                    );
                }
            }
            Err(e) => eprintln!("chop-service: replication: undecodable {at}: {e}"),
        }
    }

    /// Appends a record to the journal (when one is mounted), mapping
    /// failure to a typed `internal` error. Session mutations append only
    /// from [`mutate`](Self::mutate), role changes from promotion and
    /// demotion.
    fn journal_append(
        &self,
        request: &Request,
        req_id: Option<&str>,
    ) -> Result<(), ServiceError> {
        if !self.journal_armed.load(Ordering::Acquire) {
            return Ok(());
        }
        if let Some(journal) = &self.journal {
            journal
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(request, req_id)
                .map_err(|e| {
                    ServiceError::new(
                        ErrorKind::Internal,
                        format!("journal append failed, mutation refused: {e}"),
                    )
                })?;
        }
        Ok(())
    }

    /// The one commit step for every session mutation, called with the
    /// sessions lock held once the request has been validated. In order:
    ///
    /// 1. journal `request` — an append failure refuses the mutation and
    ///    leaves state unchanged;
    /// 2. replicate it, so stream order equals commit order;
    /// 3. apply it: an `open` inserts `next` as a new session, any other
    ///    request with `next` replaces the session, `None` removes it;
    /// 4. record the history a compaction snapshot replays: an `open`
    ///    becomes the genesis record, a replacement joins the mutations;
    /// 5. compact the journal when due.
    fn mutate(
        &self,
        sessions: &mut HashMap<String, Managed>,
        name: &str,
        request: Request,
        req_id: Option<&str>,
        next: Option<Session>,
    ) -> Result<(), ServiceError> {
        self.journal_append(&request, req_id)?;
        self.replicate(&request, req_id);
        let req_id = req_id.map(str::to_owned);
        match (next, request) {
            (Some(session), Request::Open { params, .. }) => {
                let generation = self.generations.fetch_add(1, Ordering::Relaxed);
                let managed = Managed {
                    session,
                    last_run: None,
                    generation,
                    genesis: params,
                    open_req_id: req_id,
                    mutations: Vec::new(),
                };
                sessions.insert(name.to_owned(), managed);
            }
            (Some(session), request) => {
                if let Some(managed) = sessions.get_mut(name) {
                    managed.session = session;
                    managed.mutations.push(JournalEntry { request, req_id });
                }
            }
            (None, _) => {
                sessions.remove(name);
            }
        }
        self.maybe_compact(sessions);
        Ok(())
    }

    /// Compacts the journal down to a snapshot of the live sessions once
    /// it outgrows its threshold. Called with the sessions lock held;
    /// compaction failure only defers shrinking, it never loses records.
    fn maybe_compact(&self, sessions: &HashMap<String, Managed>) {
        let Some(journal) = &self.journal else { return };
        let mut journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
        if !journal.should_compact() {
            return;
        }
        let snapshot = Self::snapshot_entries(sessions);
        if let Err(e) = journal.compact(&self.with_role_record(snapshot.clone())) {
            eprintln!("chop-service: journal compaction failed (will retry later): {e}");
            return;
        }
        drop(journal);
        if self.is_standby() {
            return;
        }
        // The standby's journal would otherwise keep growing with records
        // the primary just compacted away: hand the snapshot over so it
        // can reset to the same baseline.
        let sink = self.repl_sink.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(sink) = sink.as_ref() {
            let _ = sink.send(ReplEvent::Snapshot {
                seq: self.repl_seq.load(Ordering::SeqCst),
                records: encode_entries(&snapshot),
            });
        }
    }

    /// The genesis-plus-net-mutations history of every live session, in
    /// sorted-name order — what a compaction writes and a replication
    /// snapshot ships. Replaying it rebuilds the sessions byte-for-byte.
    fn snapshot_entries(sessions: &HashMap<String, Managed>) -> Vec<JournalEntry> {
        let mut names: Vec<&String> = sessions.keys().collect();
        names.sort_unstable();
        names.into_iter().flat_map(|name| sessions[name].history(name)).collect()
    }

    /// Prefixes a compaction snapshot with this node's current
    /// `role_change` record, so a restart replays straight back into the
    /// same epoch and role. Omitted entirely while the node has never
    /// left the epoch-0 primary default, keeping single-node journals
    /// byte-identical to earlier releases.
    fn with_role_record(&self, snapshot: Vec<JournalEntry>) -> Vec<JournalEntry> {
        let (epoch, role) = (self.epoch(), self.role());
        if epoch == 0 && role == Role::Primary {
            return snapshot;
        }
        let record =
            JournalEntry { request: Request::RoleChange { epoch, role }, req_id: None };
        std::iter::once(record).chain(snapshot).collect()
    }

    /// Opens a named session; refuses a duplicate or malformed name.
    fn open(
        &self,
        name: &str,
        params: &OpenParams,
        req_id: Option<&str>,
    ) -> Result<Response, ServiceError> {
        if name.is_empty() || name.len() > 256 {
            return Err(ServiceError::new(
                ErrorKind::Spec,
                "session names must be 1..=256 characters",
            ));
        }
        let session =
            build_session(params, self.default_jobs)?.with_shared_cache(self.shared_cache());
        let partitions = session.partitioning().partition_count() as u64;
        let mut sessions = self.lock();
        if sessions.contains_key(name) {
            return Err(ServiceError::new(
                ErrorKind::SessionExists,
                format!("session {name:?} is already open"),
            ));
        }
        let request = Request::Open { session: name.to_owned(), params: params.clone() };
        self.mutate(&mut sessions, name, request, req_id, Some(session))?;
        Ok(Response::Opened { session: name.to_owned(), partitions })
    }

    /// Runs an exploration on a named session. The search itself runs
    /// without holding the manager lock.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::UnknownSession`] for a missing name,
    /// [`ErrorKind::Engine`] when the core search fails.
    pub fn explore(
        &self,
        name: &str,
        params: &ExploreParams,
    ) -> Result<RunSummary, ServiceError> {
        let (session, generation) = {
            let sessions = self.lock();
            let managed = sessions.get(name).ok_or_else(|| unknown_session(name))?;
            (managed.session.clone(), managed.generation)
        };
        let outcome = session
            .with_budget(params.budget.search_budget())
            .with_jobs(self.jobs(params.jobs))
            .explore(params.heuristic)
            .map_err(engine_error)?;
        let run = RunSummary::from_outcome(&outcome);
        self.record_run(name, generation, run.clone());
        Ok(run)
    }

    /// The worker-thread count a request asks for, or the default.
    fn jobs(&self, requested: Option<u32>) -> usize {
        requested.map_or(self.default_jobs, |j| usize::try_from(j.max(1)).unwrap_or(1))
    }

    /// Attaches a finished run to the session it actually came from: if
    /// the name was closed (or closed and reopened) while the search ran
    /// unlocked, the generation no longer matches and the summary is
    /// dropped instead of landing on an unrelated session.
    fn record_run(&self, name: &str, generation: u64, run: RunSummary) {
        if let Some(managed) = self.lock().get_mut(name) {
            if managed.generation == generation {
                managed.last_run = Some(run);
            }
        }
    }

    /// Moves one DFG node to another partition (the incremental what-if).
    /// The replaced session keeps the shared cache, so the next `explore`
    /// re-predicts only the touched partitions.
    fn repartition(
        &self,
        name: &str,
        node: u32,
        to: u32,
        req_id: Option<&str>,
    ) -> Result<Response, ServiceError> {
        let mut sessions = self.lock();
        let session = &sessions.get(name).ok_or_else(|| unknown_session(name))?.session;
        let next = session
            .repartition(resolve_node(session, node)?, PartitionId::new(to))
            .map_err(engine_error)?;
        let request = Request::Repartition { session: name.to_owned(), node, to };
        self.mutate(&mut sessions, name, request, req_id, Some(next))?;
        Ok(Response::Repartitioned { session: name.to_owned(), node, to })
    }

    /// Runs the move-based optimizer on a named session. Like
    /// [`explore`](Self::explore), the search itself runs without holding
    /// the manager lock. A non-empty accepted trace then commits as an
    /// `apply_moves` (a truncated `optimize` is not deterministically
    /// replayable, its accepted trace always is) — refused with a typed
    /// `engine` error if the session was mutated while the optimizer ran.
    fn optimize(
        &self,
        name: &str,
        params: &OptimizeParams,
        req_id: Option<&str>,
    ) -> Result<Response, ServiceError> {
        let (session, generation, mutation_count) = {
            let sessions = self.lock();
            let managed = sessions.get(name).ok_or_else(|| unknown_session(name))?;
            (managed.session.clone(), managed.generation, managed.mutations.len())
        };
        let spec = optimize_spec(&session, params)?;
        let result =
            session.with_jobs(self.jobs(params.jobs)).optimize(&spec).map_err(|e| match e {
                ChopError::InvalidOptimizeSpec(_) => {
                    ServiceError::new(ErrorKind::Spec, e.to_string())
                }
                other => engine_error(other),
            })?;
        let mut sessions = self.lock();
        let managed = sessions.get(name).ok_or_else(|| unknown_session(name))?;
        if managed.generation != generation || managed.mutations.len() != mutation_count {
            return Err(ServiceError::new(
                ErrorKind::Engine,
                "session mutated while the optimizer ran; retry",
            ));
        }
        let moves = result.moves_as_indices();
        if !moves.is_empty() {
            self.commit_moves(&mut sessions, name, moves, req_id)?;
        }
        if let Some(managed) = sessions.get_mut(name) {
            managed.last_run = Some(RunSummary::from_outcome(&result.outcome));
        }
        let result = Box::new(OptimizeSummary::from_result(&result));
        Ok(Response::Optimized { session: name.to_owned(), result })
    }

    /// Applies a batch of `(node index, partition index)` moves
    /// atomically — the journaled form of an accepted optimizer trace,
    /// also reachable directly as a multi-node what-if.
    fn apply_moves(
        &self,
        name: &str,
        moves: &[(u32, u32)],
        req_id: Option<&str>,
    ) -> Result<Response, ServiceError> {
        self.commit_moves(&mut self.lock(), name, moves.to_vec(), req_id)?;
        Ok(Response::MovesApplied { session: name.to_owned(), moves: moves.len() as u64 })
    }

    /// Resolves, applies and commits a move batch as an `apply_moves`.
    fn commit_moves(
        &self,
        sessions: &mut HashMap<String, Managed>,
        name: &str,
        moves: Vec<(u32, u32)>,
        req_id: Option<&str>,
    ) -> Result<(), ServiceError> {
        let session = &sessions.get(name).ok_or_else(|| unknown_session(name))?.session;
        let next =
            session.apply_moves(&resolve_moves(session, &moves)?).map_err(engine_error)?;
        let request = Request::ApplyMoves { session: name.to_owned(), moves };
        self.mutate(sessions, name, request, req_id, Some(next))
    }

    /// Replaces a session's performance/delay constraints — the paper's
    /// interactive tighten-and-retry loop — keeping its partitioning,
    /// predictions and shared cache.
    fn set_constraints(
        &self,
        name: &str,
        performance_ns: f64,
        delay_ns: f64,
        req_id: Option<&str>,
    ) -> Result<Response, ServiceError> {
        check_constraints(performance_ns, delay_ns)?;
        let mut sessions = self.lock();
        let session = &sessions.get(name).ok_or_else(|| unknown_session(name))?.session;
        let constraints = Constraints::new(Nanos::new(performance_ns), Nanos::new(delay_ns));
        let next = session
            .clone()
            .try_with_constraints(constraints)
            .map_err(|e| ServiceError::new(ErrorKind::Spec, e.to_string()))?;
        let request =
            Request::SetConstraints { session: name.to_owned(), performance_ns, delay_ns };
        self.mutate(&mut sessions, name, request, req_id, Some(next))?;
        Ok(Response::ConstraintsSet { session: name.to_owned(), performance_ns, delay_ns })
    }

    /// Server statistics: sorted session names, the shared cache's
    /// lifetime counters, and — when `session` names an open session —
    /// its most recent run summary.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::UnknownSession`] when `session` names nothing.
    pub fn stats(
        &self,
        session: Option<&str>,
    ) -> Result<(Vec<String>, CacheStats, Option<RunSummary>), ServiceError> {
        let sessions = self.lock();
        let last_run = match session {
            None => None,
            Some(name) => {
                sessions.get(name).ok_or_else(|| unknown_session(name))?.last_run.clone()
            }
        };
        let mut names: Vec<String> = sessions.keys().cloned().collect();
        names.sort_unstable();
        Ok((names, self.cache.stats(), last_run))
    }

    /// Discards a named session (its cache contributions stay shared).
    fn close(&self, name: &str, req_id: Option<&str>) -> Result<Response, ServiceError> {
        let mut sessions = self.lock();
        if !sessions.contains_key(name) {
            return Err(unknown_session(name));
        }
        let request = Request::Close { session: name.to_owned() };
        self.mutate(&mut sessions, name, request, req_id, None)?;
        Ok(Response::Closed { session: name.to_owned() })
    }

    // ---- session handoff ------------------------------------------------

    /// Exports one session as the portable record lines (genesis `open`
    /// plus net mutations, `req_id`s preserved) that rebuild it — the
    /// router uses this to migrate sessions during pair membership
    /// changes. Read-only; the session stays open here.
    fn export(&self, name: &str) -> Result<Response, ServiceError> {
        let sessions = self.lock();
        let managed = sessions.get(name).ok_or_else(|| unknown_session(name))?;
        let records = encode_entries(&managed.history(name));
        Ok(Response::Exported { session: name.to_owned(), records })
    }

    /// Rebuilds an exported session here by replaying its record lines —
    /// each lands in the journal and the replication stream like a fresh
    /// mutation. Refused if the session already exists (unless every
    /// record's `req_id` replays from the dedup window) or the records
    /// are malformed.
    fn import(&self, records: &[String]) -> Result<Response, ServiceError> {
        let decoded = records
            .iter()
            .map(|record| Request::decode_tagged(record))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| ServiceError::protocol(format!("undecodable import record: {e}")))?;
        let Some((Request::Open { session, .. }, _)) = decoded.first() else {
            return Err(ServiceError::protocol(
                "imports must start with the session's open record",
            ));
        };
        let session = session.clone();
        if decoded.iter().any(|(r, _)| r.session() != Some(session.as_str())) {
            return Err(ServiceError::protocol(
                "import records must all target the imported session",
            ));
        }
        for (applied, (request, req_id)) in decoded.iter().enumerate() {
            self.replay(request, req_id.as_deref()).map_err(|e| {
                ServiceError::new(
                    e.kind,
                    format!(
                        "import of {session:?} failed after {applied} records: {}",
                        e.message
                    ),
                )
            })?;
        }
        Ok(Response::Imported { session, records: decoded.len() as u64 })
    }

    // ---- replication ----------------------------------------------------

    /// This node's replication role.
    #[must_use]
    pub fn role(&self) -> Role {
        ROLES[usize::from(self.role.load(Ordering::Acquire))]
    }

    /// Whether this node is not the primary (a standby or fenced node
    /// refuses direct mutations).
    #[must_use]
    pub fn is_standby(&self) -> bool {
        self.role() != Role::Primary
    }

    /// Puts a primary into warm-standby mode: direct mutations are
    /// refused until [`promote`](Self::promote); state arrives via
    /// [`Request::ReplApply`] / [`Request::ReplSnapshot`]. A fenced node
    /// stays fenced.
    pub fn mark_standby(&self) {
        let _ = self.role.compare_exchange(
            Role::Primary as u8,
            Role::Standby as u8,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// The cluster epoch this node last heard or journaled. Starts at 0;
    /// every promotion bumps it, every higher epoch heard adopts it.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Records this node's own dialable address, stamped onto outgoing
    /// replication traffic so a refusing peer can find us back.
    pub fn set_advertised(&self, addr: impl Into<String>) {
        *self.advertised.lock().unwrap_or_else(PoisonError::into_inner) = Some(addr.into());
    }

    /// This node's own dialable address, if one was recorded after bind.
    #[must_use]
    pub fn advertised(&self) -> Option<String> {
        self.advertised.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Points the replicator at a (new) peer address. The replicator
    /// re-reads this on every reconnect, so retargeting takes effect
    /// without a restart.
    pub fn set_peer(&self, addr: Option<String>) {
        *self.peer.lock().unwrap_or_else(PoisonError::into_inner) = addr;
    }

    /// The current replication peer address, if any.
    #[must_use]
    pub fn peer(&self) -> Option<String> {
        self.peer.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Installs the hook called with a one-line description on every role
    /// transition (the CLI prints these as banner lines).
    pub fn set_role_change_hook(&self, hook: impl Fn(&str) + Send + Sync + 'static) {
        *self.role_hook.lock().unwrap_or_else(PoisonError::into_inner) = Some(Box::new(hook));
    }

    fn announce(&self, line: &str) {
        let hook = self.role_hook.lock().unwrap_or_else(PoisonError::into_inner);
        match hook.as_ref() {
            Some(hook) => hook(line),
            None => eprintln!("chop-service: {line}"),
        }
    }

    /// The best redirect target for a refused mutation: the stored
    /// primary hint on a standby, this node's own address on a primary.
    #[must_use]
    pub fn primary_hint(&self) -> Option<String> {
        if !self.is_standby() {
            return self.advertised();
        }
        self.primary_hint.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The typed refusal a standby answers direct mutations with:
    /// `fenced` when the role was forced by a higher epoch, `standby`
    /// when configured — both carrying the current primary's address.
    fn standby_refusal(&self) -> ServiceError {
        let (kind, message) = if self.role() == Role::Fenced {
            (
                ErrorKind::Fenced,
                "this node was fenced by a newer primary; send mutations to the primary",
            )
        } else {
            (ErrorKind::Standby, "this node is a warm standby; send mutations to the primary")
        };
        ServiceError::new(kind, message).with_redirect(self.primary_hint(), self.epoch())
    }

    /// Sets the epoch and role: no journaling, no hook.
    fn install_role(&self, epoch: u64, role: Role) {
        self.epoch.store(epoch, Ordering::Release);
        self.role.store(role as u8, Ordering::Release);
    }

    /// Promotes this node to primary, bumping the cluster epoch and
    /// journaling the `role_change` so a restart replays it back into
    /// the role. A no-op on a node already serving as primary (the epoch
    /// is *not* bumped — re-promotion must stay idempotent). Returns the
    /// live session count and the epoch now in force.
    pub fn promote(&self) -> (u64, u64) {
        let _apply = self.repl_apply.lock().unwrap_or_else(PoisonError::into_inner);
        if !self.is_standby() {
            return (self.session_count() as u64, self.epoch());
        }
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        let record = Request::RoleChange { epoch, role: Role::Primary };
        if let Err(e) = self.journal_append(&record, None) {
            // Promotion is an availability decision: serve now, warn that
            // a restart will not remember the new epoch.
            eprintln!(
                "chop-service: promote: role_change journal append failed: {}",
                e.message
            );
        }
        self.install_role(epoch, Role::Primary);
        *self.primary_hint.lock().unwrap_or_else(PoisonError::into_inner) = self.advertised();
        self.announce(&format!("promoted to primary at epoch {epoch}"));
        (self.session_count() as u64, epoch)
    }

    /// Demotes this node to a **fenced** standby of `primary` at `epoch`,
    /// journaling the transition. Called when a fenced refusal or an
    /// incoming replication stream proves a newer primary exists. Stale
    /// calls (epoch not newer than our own) are ignored.
    pub fn demote(&self, epoch: u64, primary: Option<&str>) {
        let _apply = self.repl_apply.lock().unwrap_or_else(PoisonError::into_inner);
        self.adopt_epoch(epoch, primary);
    }

    /// Reacts to a `fenced` refusal from the peer our replicator ships
    /// to: demotes this node iff the refusal proves a strictly newer
    /// epoch (equal epochs never demote — that would let two primaries
    /// demote each other). Returns whether a demotion happened.
    pub fn observe_fencing(&self, err: &ServiceError) -> bool {
        let Some(epoch) = err.epoch else { return false };
        if err.kind != ErrorKind::Fenced || epoch <= self.epoch() {
            return false;
        }
        self.demote(epoch, err.primary.as_deref());
        true
    }

    /// Adopts a strictly newer epoch heard from the cluster: a primary
    /// demotes itself to a fenced standby, a standby just follows the
    /// epoch forward. Journals the resulting `role_change` and updates
    /// the primary hint (and replication peer) to the announcing node.
    /// Caller must hold `repl_apply`.
    fn adopt_epoch(&self, epoch: u64, primary: Option<&str>) {
        if epoch <= self.epoch.load(Ordering::Acquire) {
            if let Some(addr) = primary {
                *self.primary_hint.lock().unwrap_or_else(PoisonError::into_inner) =
                    Some(addr.to_owned());
            }
            return;
        }
        let was = self.role();
        // A configured standby just follows the epoch; a primary (or an
        // already fenced node) is outranked.
        let role = if was == Role::Standby { Role::Standby } else { Role::Fenced };
        let record = Request::RoleChange { epoch, role };
        if let Err(e) = self.journal_append(&record, None) {
            eprintln!("chop-service: demote: role_change journal append failed: {}", e.message);
        }
        self.install_role(epoch, role);
        if let Some(addr) = primary {
            *self.primary_hint.lock().unwrap_or_else(PoisonError::into_inner) =
                Some(addr.to_owned());
            // Our replicator should ship to (and resync from) the node
            // that outranked us once we are promoted again.
            self.set_peer(Some(addr.to_owned()));
        }
        if was == Role::Primary {
            let to = primary.unwrap_or("the new primary");
            self.announce(&format!("demoted to standby of {to} at epoch {epoch} (fenced)"));
        }
    }

    /// The replication high-water mark: the highest stream sequence this
    /// node has applied or skipped.
    #[must_use]
    pub fn replication_high_water(&self) -> u64 {
        self.repl_high_water.load(Ordering::Acquire)
    }

    /// Attaches the channel committed mutations are shipped over. One
    /// replicator per manager; installing a new sink replaces the old.
    pub fn set_repl_sink(&self, sink: mpsc::Sender<ReplEvent>) {
        // Taken under the sessions lock so installation serializes with
        // in-flight commits (same order as `replicate`).
        let _sessions = self.lock();
        *self.repl_sink.lock().unwrap_or_else(PoisonError::into_inner) = Some(sink);
    }

    /// A consistent snapshot of the full state for stream (re)starts: the
    /// current replication sequence and the record lines that rebuild
    /// every live session, taken atomically under the sessions lock.
    #[must_use]
    pub fn replication_snapshot(&self) -> (u64, Vec<String>) {
        let sessions = self.lock();
        let seq = self.repl_seq.load(Ordering::SeqCst);
        (seq, encode_entries(&Self::snapshot_entries(&sessions)))
    }

    /// Assigns the next stream sequence to a just-committed mutation and
    /// ships it to the replicator, if one is attached. Called with the
    /// sessions lock held so sequence order equals emission order.
    fn replicate(&self, request: &Request, req_id: Option<&str>) {
        let seq = self.repl_seq.fetch_add(1, Ordering::SeqCst) + 1;
        if self.is_standby() {
            // A standby applying the primary's stream must not echo the
            // records back out of its own (parked) replicator.
            return;
        }
        let sink = self.repl_sink.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(sink) = sink.as_ref() {
            let _ = sink.send(ReplEvent::Record { seq, line: request.encode_tagged(req_id) });
        }
    }

    /// Epoch fence on an incoming replication message, under `repl_apply`.
    ///
    /// - A **lower** epoch proves the sender is a stale ex-primary: refuse
    ///   with the typed `fenced` error (carrying our epoch and primary
    ///   hint, which demotes the sender), and — when we are the primary —
    ///   retarget our own replicator at the sender's advertised address so
    ///   the resync snapshot finds it even if its port changed.
    /// - A **higher** epoch proves a newer primary exists: adopt it (a
    ///   primary demotes itself, fenced) and accept the message.
    /// - An **equal** epoch is only legitimate when we are a standby (the
    ///   sender is our primary); two primaries at the same epoch refuse
    ///   each other without demoting (the refusal carries an equal epoch,
    ///   which [`observe_fencing`](Self::observe_fencing) ignores).
    fn fence_check(&self, epoch: u64, sender: Option<&str>) -> Result<(), ServiceError> {
        let own = self.epoch.load(Ordering::Acquire);
        if epoch < own || (epoch == own && !self.is_standby()) {
            if epoch < own && !self.is_standby() {
                if let Some(addr) = sender {
                    self.set_peer(Some(addr.to_owned()));
                }
            }
            return Err(ServiceError::new(
                ErrorKind::Fenced,
                format!(
                    "replication stream fenced: sender epoch {epoch} is not newer than {own}"
                ),
            )
            .with_redirect(self.primary_hint(), own));
        }
        self.adopt_epoch(epoch, sender);
        Ok(())
    }

    /// Applies one replicated record on a standby. Records at or below
    /// the high-water mark are acked without being re-applied, which
    /// makes stream re-delivery (snapshot overlap, reconnect replays)
    /// idempotent. The carried epoch is fence-checked first: stale
    /// senders are refused, newer senders demote us before the apply.
    fn apply_replicated(
        &self,
        seq: u64,
        record: &str,
        epoch: u64,
        sender: Option<&str>,
    ) -> Result<Response, ServiceError> {
        let _apply = self.repl_apply.lock().unwrap_or_else(PoisonError::into_inner);
        self.fence_check(epoch, sender)?;
        let high_water = self.repl_high_water.load(Ordering::Acquire);
        if seq <= high_water {
            return Ok(Response::ReplAck { seq: high_water });
        }
        // Replayed like any mutation: it lands in the standby's own
        // journal (it is crash-safe in its own right) and its req_id
        // outcome enters the dedup window, so a client retrying against
        // the promoted standby gets the recorded answer.
        self.replay_line(record, format_args!("record at seq {seq}"));
        self.repl_high_water.store(seq, Ordering::Release);
        self.repl_seq.store(seq, Ordering::SeqCst);
        Ok(Response::ReplAck { seq })
    }

    /// Replaces the standby's entire state with a shipped snapshot (sent
    /// on stream start and after primary-side compaction), then compacts
    /// its own journal down to the same baseline. Fence-checked like
    /// [`apply_replicated`](Self::apply_replicated) — this is the path a
    /// fenced ex-primary resyncs through.
    fn apply_snapshot(
        &self,
        seq: u64,
        records: &[String],
        epoch: u64,
        sender: Option<&str>,
    ) -> Result<Response, ServiceError> {
        let _apply = self.repl_apply.lock().unwrap_or_else(PoisonError::into_inner);
        self.fence_check(epoch, sender)?;
        let high_water = self.repl_high_water.load(Ordering::Acquire);
        if seq < high_water {
            return Ok(Response::ReplAck { seq: high_water });
        }
        // Replay with the journal disarmed: the post-replay compaction
        // persists the same records in one atomic snapshot write.
        self.journal_armed.store(false, Ordering::Release);
        self.lock().clear();
        *self.dedup.lock().unwrap_or_else(PoisonError::into_inner) = DedupWindow::default();
        for record in records {
            self.replay_line(record, "snapshot record");
        }
        self.journal_armed.store(true, Ordering::Release);
        if let Some(journal) = &self.journal {
            let sessions = self.lock();
            let snapshot = self.with_role_record(Self::snapshot_entries(&sessions));
            if let Err(e) =
                journal.lock().unwrap_or_else(PoisonError::into_inner).compact(&snapshot)
            {
                eprintln!("chop-service: replication: snapshot persist failed: {e}");
            }
        }
        self.repl_high_water.store(seq, Ordering::Release);
        self.repl_seq.store(seq, Ordering::SeqCst);
        Ok(Response::ReplAck { seq })
    }
}

fn unknown_session(name: &str) -> ServiceError {
    ServiceError::new(ErrorKind::UnknownSession, format!("no open session named {name:?}"))
}

/// The tagged wire lines of journal entries, as a snapshot ships them.
fn encode_entries(entries: &[JournalEntry]) -> Vec<String> {
    entries.iter().map(|e| e.request.encode_tagged(e.req_id.as_deref())).collect()
}

fn engine_error(e: impl std::fmt::Display) -> ServiceError {
    ServiceError::new(ErrorKind::Engine, e.to_string())
}

/// Both constraints of an `open` or `set_constraints` must be positive
/// and finite.
fn check_constraints(performance_ns: f64, delay_ns: f64) -> Result<(), ServiceError> {
    for (field, value) in [("performance_ns", performance_ns), ("delay_ns", delay_ns)] {
        if !(value.is_finite() && value > 0.0) {
            return Err(ServiceError::new(
                ErrorKind::Spec,
                format!("{field} must be a positive, finite number"),
            ));
        }
    }
    Ok(())
}

/// Resolves a wire node index against a session's DFG.
///
/// # Errors
///
/// [`ErrorKind::Spec`] when the DFG has no node with that index.
pub fn resolve_node(session: &Session, node: u32) -> Result<chop_dfg::NodeId, ServiceError> {
    session
        .partitioning()
        .dfg()
        .nodes()
        .map(|(id, _)| id)
        .find(|id| id.index() == node as usize)
        .ok_or_else(|| ServiceError::new(ErrorKind::Spec, format!("no node with index {node}")))
}

/// Resolves a wire move batch to `(NodeId, PartitionId)` pairs.
fn resolve_moves(
    session: &Session,
    moves: &[(u32, u32)],
) -> Result<Vec<(chop_dfg::NodeId, PartitionId)>, ServiceError> {
    moves
        .iter()
        .map(|&(node, to)| Ok((resolve_node(session, node)?, PartitionId::new(to))))
        .collect()
}

/// Builds the core [`OptimizeSpec`] an `optimize` request describes,
/// resolving its node indices against the session. The one place an
/// [`OptimizeSpec`] is built from request parameters: the server's
/// `optimize` and the local `chop optimize` both call it.
///
/// # Errors
///
/// [`ErrorKind::Spec`] for a pinned, grouped or excluded node index the
/// session's DFG does not have.
pub fn optimize_spec(
    session: &Session,
    params: &OptimizeParams,
) -> Result<OptimizeSpec, ServiceError> {
    let mut spec = OptimizeSpec::new().with_seed(params.seed).with_heuristic(params.heuristic);
    if let Some(ms) = params.budget.deadline_ms {
        spec = spec.with_deadline(Duration::from_millis(ms));
    }
    if let Some(n) = params.budget.max_trials {
        spec = spec.with_max_moves(n);
    }
    if params.kicks.is_some() || params.kick_moves.is_some() {
        let kicks = params.kicks.unwrap_or_else(|| spec.kicks());
        let kick_moves = params.kick_moves.unwrap_or_else(|| spec.kick_moves());
        spec = spec.with_kicks(kicks, kick_moves);
    }
    for &node in &params.pinned {
        spec = spec.with_pinned_node(resolve_node(session, node)?);
    }
    for group in &params.groups {
        let nodes = group
            .iter()
            .map(|&node| resolve_node(session, node))
            .collect::<Result<Vec<_>, _>>()?;
        spec = spec.with_group(nodes);
    }
    for &(a, b) in &params.exclusions {
        spec = spec.with_exclusion(resolve_node(session, a)?, resolve_node(session, b)?);
    }
    Ok(spec)
}

/// The number of memory blocks `dfg` references: one past its highest
/// block index, so every block up to that one gets declared.
///
/// # Errors
///
/// [`ErrorKind::Spec`] for a block index at or above the spec's node count,
/// so a hostile index never reaches the memory declarations.
pub fn memory_blocks(dfg: &chop_dfg::Dfg) -> Result<usize, ServiceError> {
    let nodes = dfg.len();
    match dfg.nodes().filter_map(|(_, n)| n.op().memory()).map(|m| m.index() as usize).max() {
        Some(m) if m >= nodes => Err(ServiceError::new(
            ErrorKind::Spec,
            format!("memory block M{m} is outside M0..M{}", nodes - 1),
        )),
        highest => Ok(highest.map_or(0, |m| m + 1)),
    }
}

/// The size of the uniform chip set for `params` on a spec of `nodes`
/// operations: `chips`, or one chip per partition, never above `nodes`, so
/// a hostile count never reaches the chip-set allocation. (An out-of-range
/// partition count is refused later, by the partitioning builder.)
///
/// # Errors
///
/// [`ErrorKind::Spec`] for an explicit chip count outside `1..=nodes`.
pub fn chip_count(params: &OpenParams, nodes: usize) -> Result<usize, ServiceError> {
    match params.chips {
        Some(c) if c == 0 || c as usize > nodes => Err(ServiceError::new(
            ErrorKind::Spec,
            format!("chip count {c} is outside 1..={nodes}"),
        )),
        Some(c) => Ok(c as usize),
        None => Ok((params.partitions as usize).min(nodes)),
    }
}

/// Builds a core [`Session`] from wire parameters the way `chop check`
/// builds one from its flags — uniform MOSIS packages, a horizontal cut,
/// referenced memory blocks declared as off-the-shelf external parts —
/// except that [`OpenParams`] defaults to multi-cycle operations.
///
/// Exposed so tests (and embedders) can reproduce the exact session a
/// server builds for an `open` request and compare
/// [`SearchOutcome::digest`]s against service results.
///
/// # Errors
///
/// [`ErrorKind::Spec`] for unparseable spec text, an out-of-range
/// partition/chip/package choice, or a non-positive constraint.
pub fn build_session(params: &OpenParams, jobs: usize) -> Result<Session, ServiceError> {
    let spec_err = |m: String| ServiceError::new(ErrorKind::Spec, m);
    let dfg = parse_dfg(&params.spec).map_err(|e| spec_err(e.to_string()))?;
    let chip_count = chip_count(params, dfg.len())?;
    if params.package_pins != 64 && params.package_pins != 84 {
        return Err(spec_err(format!(
            "package_pins must be 64 or 84 (Table 2), got {}",
            params.package_pins
        )));
    }
    check_constraints(params.performance_ns, params.delay_ns)?;

    let packages = table2_packages();
    let package = if params.package_pins == 64 { &packages[0] } else { &packages[1] };
    let chips = ChipSet::uniform(package.clone(), chip_count);

    // Declare every memory block the spec references as an off-the-shelf
    // external part (protocol v1 has no on-chip memory placement).
    let memories = memory_blocks(&dfg)?;
    let mut builder =
        PartitioningBuilder::new(dfg, chips).split_horizontal(params.partitions as usize);
    for _ in 0..memories {
        builder = builder.with_memory(example_off_shelf_ram(), MemoryAssignment::External);
    }
    let partitioning = builder.build().map_err(|e| spec_err(e.to_string()))?;

    let (dp_mult, style) = if params.multi_cycle {
        (1, ArchitectureStyle::multi_cycle())
    } else {
        (10, ArchitectureStyle::single_cycle())
    };
    let clocks =
        ClockConfig::new(Nanos::new(300.0), dp_mult, 1).map_err(|e| spec_err(e.to_string()))?;
    let constraints =
        Constraints::new(Nanos::new(params.performance_ns), Nanos::new(params.delay_ns));
    let session = Session::new(
        partitioning,
        table1_library(),
        clocks,
        style,
        PredictorParams::default(),
        constraints,
    )
    .try_with_constraints(constraints)
    .map_err(|e| spec_err(e.to_string()))?;
    Ok(session.with_jobs(jobs.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BudgetEnvelope;

    const SPEC: &str = "a = input 16\nb = input 16\np = mul a b\ns = add p a\ny = output s\n";

    fn open_params(partitions: u32) -> OpenParams {
        OpenParams { spec: SPEC.into(), partitions, ..OpenParams::default() }
    }

    /// Dispatches `request` untagged, splitting an error response out.
    fn send(mgr: &SessionManager, request: &Request) -> Result<Response, ServiceError> {
        match mgr.dispatch_tagged(request, None) {
            Response::Error(e) => Err(e),
            response => Ok(response),
        }
    }

    fn open(name: &str, params: OpenParams) -> Request {
        Request::Open { session: name.into(), params }
    }

    fn repartition(name: &str, node: u32, to: u32) -> Request {
        Request::Repartition { session: name.into(), node, to }
    }

    fn apply_moves(name: &str, moves: &[(u32, u32)]) -> Request {
        Request::ApplyMoves { session: name.into(), moves: moves.to_vec() }
    }

    fn set_constraints(name: &str, performance_ns: f64, delay_ns: f64) -> Request {
        Request::SetConstraints { session: name.into(), performance_ns, delay_ns }
    }

    fn optimize(name: &str, params: OptimizeParams) -> Request {
        Request::Optimize { session: name.into(), params }
    }

    fn close(name: &str) -> Request {
        Request::Close { session: name.into() }
    }

    /// The summary of a successful `optimize`.
    fn optimized(mgr: &SessionManager, name: &str) -> OptimizeSummary {
        match send(mgr, &optimize(name, OptimizeParams::default())) {
            Ok(Response::Optimized { result, .. }) => *result,
            other => panic!("optimize failed: {other:?}"),
        }
    }

    #[test]
    fn open_explore_stats_close_lifecycle() {
        let mgr = SessionManager::new(1);
        assert_eq!(
            send(&mgr, &open("s1", open_params(2))).unwrap(),
            Response::Opened { session: "s1".into(), partitions: 2 }
        );
        let run = mgr.explore("s1", &ExploreParams::default()).unwrap();
        assert!(run.trials > 0);
        let (names, cache, last) = mgr.stats(Some("s1")).unwrap();
        assert_eq!(names, vec!["s1".to_owned()]);
        assert!(cache.misses > 0, "first run must miss the shared cache");
        assert_eq!(last.unwrap().digest, run.digest);
        send(&mgr, &close("s1")).unwrap();
        assert_eq!(mgr.session_count(), 0);
        assert_eq!(send(&mgr, &close("s1")).unwrap_err().kind, ErrorKind::UnknownSession);
    }

    #[test]
    fn duplicate_open_is_rejected() {
        let mgr = SessionManager::new(1);
        send(&mgr, &open("dup", open_params(1))).unwrap();
        assert_eq!(
            send(&mgr, &open("dup", open_params(1))).unwrap_err().kind,
            ErrorKind::SessionExists
        );
        assert_eq!(send(&mgr, &open("", open_params(1))).unwrap_err().kind, ErrorKind::Spec);
    }

    #[test]
    fn sibling_sessions_share_the_prediction_cache() {
        let mgr = SessionManager::new(1);
        send(&mgr, &open("first", open_params(2))).unwrap();
        send(&mgr, &open("second", open_params(2))).unwrap();
        let a = mgr.explore("first", &ExploreParams::default()).unwrap();
        let b = mgr.explore("second", &ExploreParams::default()).unwrap();
        assert_eq!(a.digest, b.digest, "identical sessions find identical results");
        assert!(a.predictor_calls > 0);
        assert_eq!(b.predictor_calls, 0, "second session must be served from the cache");
        assert_eq!(b.cache_hits, 2);
    }

    #[test]
    fn repartition_then_explore_repredicts_only_touched_partitions() {
        let spec = "a = input 16\nb = input 16\np = mul a b\ns = add p a\nt = add s b\n\
                    u = add t a\ny = output u\n";
        let mgr = SessionManager::new(1);
        let params = OpenParams { spec: spec.into(), partitions: 3, ..OpenParams::default() };
        send(&mgr, &open("inc", params)).unwrap();
        let before = mgr.explore("inc", &ExploreParams::default()).unwrap();
        assert_eq!(before.cache_hits, 0);
        send(&mgr, &repartition("inc", 3, 0)).unwrap();
        let after = mgr.explore("inc", &ExploreParams::default()).unwrap();
        assert!(
            after.cache_hits >= 1,
            "untouched partitions must be served from the cache, got {after:?}"
        );
        assert!(
            after.predictor_calls < before.predictor_calls,
            "only the touched partitions may be re-predicted"
        );
    }

    #[test]
    fn stale_run_is_not_recorded_on_a_reopened_session() {
        let mgr = SessionManager::new(1);
        send(&mgr, &open("s", open_params(2))).unwrap();
        let stale_gen = mgr.lock().get("s").unwrap().generation;
        let run = mgr.explore("s", &ExploreParams::default()).unwrap();
        // Close and reopen under the same name while a hypothetical
        // search still holds the old generation.
        send(&mgr, &close("s")).unwrap();
        send(&mgr, &open("s", open_params(2))).unwrap();
        mgr.record_run("s", stale_gen, run.clone());
        let (_, _, last) = mgr.stats(Some("s")).unwrap();
        assert!(last.is_none(), "stale run must not attach to the reopened session");
        // The matching generation still records normally.
        let fresh_gen = mgr.lock().get("s").unwrap().generation;
        assert_ne!(fresh_gen, stale_gen);
        mgr.record_run("s", fresh_gen, run);
        assert!(mgr.stats(Some("s")).unwrap().2.is_some());
    }

    #[test]
    fn explore_budget_truncates() {
        let mgr = SessionManager::new(1);
        send(&mgr, &open("b", open_params(2))).unwrap();
        let params = ExploreParams {
            budget: BudgetEnvelope { max_trials: Some(0), ..BudgetEnvelope::default() },
            ..ExploreParams::default()
        };
        let run = mgr.explore("b", &params).unwrap();
        assert!(run.completion.is_truncated());
    }

    #[test]
    fn errors_are_typed() {
        let mgr = SessionManager::new(1);
        assert_eq!(
            mgr.explore("ghost", &ExploreParams::default()).unwrap_err().kind,
            ErrorKind::UnknownSession
        );
        assert_eq!(mgr.stats(Some("ghost")).unwrap_err().kind, ErrorKind::UnknownSession);
        let bad = OpenParams { spec: "a = frob 16\n".into(), ..OpenParams::default() };
        assert_eq!(send(&mgr, &open("x", bad)).unwrap_err().kind, ErrorKind::Spec);
        let bad = OpenParams { partitions: 99, ..open_params(99) };
        assert_eq!(send(&mgr, &open("x", bad)).unwrap_err().kind, ErrorKind::Spec);
        // Hostile counts are refused before any chip set is allocated.
        let bad = open_params(u32::MAX);
        assert_eq!(send(&mgr, &open("x", bad)).unwrap_err().kind, ErrorKind::Spec);
        for chips in [0, 6, u32::MAX] {
            let bad = OpenParams { chips: Some(chips), ..open_params(1) };
            assert_eq!(send(&mgr, &open("x", bad)).unwrap_err().kind, ErrorKind::Spec);
        }
        // So are hostile memory block indices.
        let bad = OpenParams {
            spec: "a = input 16\nr = read M4000000000 a\ny = output r\n".into(),
            ..open_params(1)
        };
        assert_eq!(send(&mgr, &open("x", bad)).unwrap_err().kind, ErrorKind::Spec);
        let bad = OpenParams { package_pins: 40, ..open_params(1) };
        assert_eq!(send(&mgr, &open("x", bad)).unwrap_err().kind, ErrorKind::Spec);
        let bad = OpenParams { performance_ns: 0.0, ..open_params(1) };
        assert_eq!(send(&mgr, &open("x", bad)).unwrap_err().kind, ErrorKind::Spec);
        send(&mgr, &open("m", open_params(2))).unwrap();
        assert_eq!(send(&mgr, &repartition("m", 99, 0)).unwrap_err().kind, ErrorKind::Spec);
        assert_eq!(send(&mgr, &repartition("m", 0, 99)).unwrap_err().kind, ErrorKind::Engine);
    }

    fn state_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "chop-mgr-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn set_constraints_validates_and_applies() {
        let mgr = SessionManager::new(1);
        send(&mgr, &open("c", open_params(2))).unwrap();
        assert_eq!(
            send(&mgr, &set_constraints("c", 0.0, 100.0)).unwrap_err().kind,
            ErrorKind::Spec
        );
        assert_eq!(
            send(&mgr, &set_constraints("c", f64::NAN, 100.0)).unwrap_err().kind,
            ErrorKind::Spec
        );
        assert_eq!(
            send(&mgr, &set_constraints("ghost", 1.0, 1.0)).unwrap_err().kind,
            ErrorKind::UnknownSession
        );
        send(&mgr, &set_constraints("c", 50_000.0, 50_000.0)).unwrap();
        let run = mgr.explore("c", &ExploreParams::default()).unwrap();
        assert!(run.trials > 0, "session stays explorable after a constraint change");
    }

    #[test]
    fn journaled_mutations_survive_recovery_with_identical_digests() {
        let dir = state_dir("recover");
        let before = {
            let (mgr, report) = SessionManager::recover(1, &dir, 0).unwrap();
            assert_eq!(report, RecoveryReport::default());
            send(&mgr, &open("keep", open_params(2))).unwrap();
            send(&mgr, &open("gone", open_params(1))).unwrap();
            send(&mgr, &repartition("keep", 3, 0)).unwrap();
            send(&mgr, &set_constraints("keep", 40_000.0, 40_000.0)).unwrap();
            send(&mgr, &close("gone")).unwrap();
            mgr.explore("keep", &ExploreParams::default()).unwrap().digest
            // Dropped without any shutdown ceremony — the crash.
        };
        let (mgr, report) = SessionManager::recover(1, &dir, 0).unwrap();
        assert_eq!(report.sessions_restored, 1);
        assert_eq!(report.records_replayed, 5);
        assert_eq!(report.records_skipped, 0);
        let (names, _, _) = mgr.stats(None).unwrap();
        assert_eq!(names, vec!["keep".to_owned()]);
        let after = mgr.explore("keep", &ExploreParams::default()).unwrap().digest;
        assert_eq!(before, after, "recovered session must reproduce the digest");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_only_live_sessions_and_their_req_ids() {
        let dir = state_dir("compact");
        {
            let (mgr, _) = SessionManager::recover(1, &dir, 3).unwrap();
            let open_live = open("live", open_params(2));
            assert!(matches!(
                mgr.dispatch_tagged(&open_live, Some("open-live")),
                Response::Opened { .. }
            ));
            for i in 0..3 {
                send(&mgr, &open(&format!("tmp{i}"), open_params(1))).unwrap();
                send(&mgr, &close(&format!("tmp{i}"))).unwrap();
            }
        }
        let (mgr, report) = SessionManager::recover(1, &dir, 3).unwrap();
        assert!(
            report.records_replayed < 7,
            "compaction must have shrunk the log, got {report:?}"
        );
        assert_eq!(report.sessions_restored, 1);
        // The open's req_id survived compaction: a retry is idempotent.
        assert_eq!(
            mgr.dispatch_tagged(&open("live", open_params(2)), Some("open-live")),
            Response::Opened { session: "live".into(), partitions: 2 }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retried_req_id_replays_the_recorded_outcome() {
        let mgr = SessionManager::new(1);
        let open = open("dup", open_params(2));
        let first = mgr.dispatch_tagged(&open, Some("r-1"));
        assert!(matches!(first, Response::Opened { .. }));
        // Same req_id → replayed outcome, not SessionExists.
        assert_eq!(mgr.dispatch_tagged(&open, Some("r-1")), first);
        // Different req_id → genuinely re-applied, and the failure is
        // itself recorded for *its* retries.
        let conflict = mgr.dispatch_tagged(&open, Some("r-2"));
        let Response::Error(ref e) = conflict else { panic!("{conflict:?}") };
        assert_eq!(e.kind, ErrorKind::SessionExists);
        assert_eq!(mgr.dispatch_tagged(&open, Some("r-2")), conflict);
        // Untagged requests never touch the window.
        let close = close("dup");
        assert!(matches!(mgr.dispatch_tagged(&close, None), Response::Closed { .. }));
        assert!(matches!(mgr.dispatch_tagged(&close, None), Response::Error(_)));
    }

    #[test]
    fn dedup_window_is_bounded_per_session() {
        let mut window = DedupWindow::default();
        for i in 0..(DEDUP_PER_SESSION + 5) {
            window.record("s", &format!("id-{i}"), Response::ShuttingDown);
        }
        assert_eq!(window.windows["s"].len(), DEDUP_PER_SESSION);
        assert!(window.lookup("s", "id-0").is_none(), "oldest entries must be evicted");
        assert!(window.lookup("s", &format!("id-{}", DEDUP_PER_SESSION + 4)).is_some());
        // Session-count bound evicts whole sessions in insertion order.
        for i in 0..DEDUP_SESSIONS {
            window.record(&format!("extra-{i}"), "x", Response::ShuttingDown);
        }
        assert!(window.lookup("s", &format!("id-{}", DEDUP_PER_SESSION + 4)).is_none());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn journal_append_failure_refuses_the_mutation() {
        use chop_core::prelude::fault::IoFaultPlan;
        let dir = state_dir("append-fail");
        let (mgr, _) = SessionManager::recover(1, &dir, 0).unwrap();
        send(&mgr, &open("ok", open_params(2))).unwrap();
        mgr.inject_journal_faults(IoFaultPlan::none().fail_after(0));
        let err = send(&mgr, &open("refused", open_params(1))).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Internal);
        assert_eq!(mgr.session_count(), 1, "refused mutation must not commit");
        let err = send(&mgr, &close("ok")).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Internal);
        assert_eq!(mgr.session_count(), 1, "session must survive a refused close");
        mgr.inject_journal_faults(IoFaultPlan::none());
        send(&mgr, &close("ok")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatch_covers_every_request() {
        let mgr = SessionManager::new(1);
        assert_eq!(
            mgr.dispatch_tagged(&Request::Ping, None),
            Response::Pong {
                version: PROTOCOL_VERSION,
                role: Some(Role::Primary),
                epoch: 0,
                peer: None,
            }
        );
        assert_eq!(
            mgr.dispatch_tagged(&open("d", open_params(2)), None),
            Response::Opened { session: "d".into(), partitions: 2 }
        );
        let explored = mgr.dispatch_tagged(
            &Request::Explore { session: "d".into(), params: ExploreParams::default() },
            None,
        );
        assert!(matches!(explored, Response::Explored { .. }), "{explored:?}");
        assert!(matches!(
            mgr.dispatch_tagged(&Request::Stats { session: Some("d".into()) }, None),
            Response::Stats { .. }
        ));
        assert_eq!(
            mgr.dispatch_tagged(&set_constraints("d", 45_000.0, 45_000.0), None),
            Response::ConstraintsSet {
                session: "d".into(),
                performance_ns: 45_000.0,
                delay_ns: 45_000.0,
            }
        );
        assert_eq!(
            mgr.dispatch_tagged(&repartition("d", 3, 0), None),
            Response::Repartitioned { session: "d".into(), node: 3, to: 0 }
        );
        assert_eq!(
            mgr.dispatch_tagged(&apply_moves("d", &[(3, 1), (2, 0)]), None),
            Response::MovesApplied { session: "d".into(), moves: 2 }
        );
        assert_eq!(mgr.dispatch_tagged(&Request::Shutdown, None), Response::ShuttingDown);
        assert_eq!(
            mgr.dispatch_tagged(&close("d"), None),
            Response::Closed { session: "d".into() }
        );
        assert!(matches!(mgr.dispatch_tagged(&close("d"), None), Response::Error(_)));
    }

    #[test]
    fn standby_refuses_direct_mutations_but_serves_reads() {
        let standby = SessionManager::new(1);
        standby.mark_standby();
        assert!(standby.is_standby());
        let open = open("s", open_params(2));
        let Err(e) = send(&standby, &open) else { panic!("mutation allowed") };
        assert_eq!(e.kind, ErrorKind::Standby);
        // Reads are served; explores on replicated sessions too.
        assert!(matches!(
            send(&standby, &Request::Stats { session: None }),
            Ok(Response::Stats { .. })
        ));
        let record = open.encode_tagged(None);
        assert_eq!(
            send(&standby, &Request::ReplApply { seq: 1, record, epoch: 0, primary: None }),
            Ok(Response::ReplAck { seq: 1 })
        );
        assert!(matches!(
            send(
                &standby,
                &Request::Explore { session: "s".into(), params: ExploreParams::default() }
            ),
            Ok(Response::Explored { .. })
        ));
        // Every other mutation is refused too, state untouched.
        for request in [
            repartition("s", 3, 0),
            apply_moves("s", &[(3, 0)]),
            set_constraints("s", 45_000.0, 45_000.0),
            close("s"),
        ] {
            assert_eq!(send(&standby, &request).unwrap_err().kind, ErrorKind::Standby);
        }
        assert_eq!(standby.session_count(), 1);
    }

    #[test]
    fn replicated_records_ack_idempotently_below_the_high_water_mark() {
        let standby = SessionManager::new(1);
        standby.mark_standby();
        let record = open("s", open_params(2)).encode_tagged(Some("open-1"));
        assert_eq!(
            send(
                &standby,
                &Request::ReplApply { seq: 3, record: record.clone(), epoch: 0, primary: None }
            ),
            Ok(Response::ReplAck { seq: 3 })
        );
        assert_eq!(standby.replication_high_water(), 3);
        // Re-delivery of the same (or an earlier) seq is acked, not
        // re-applied — no SessionExists noise, state untouched.
        assert_eq!(
            send(&standby, &Request::ReplApply { seq: 3, record, epoch: 0, primary: None }),
            Ok(Response::ReplAck { seq: 3 })
        );
        assert_eq!(standby.session_count(), 1);
        // A primary fences a same-epoch replication stream outright.
        let primary = SessionManager::new(1);
        let Err(e) = send(
            &primary,
            &Request::ReplApply { seq: 1, record: String::new(), epoch: 0, primary: None },
        ) else {
            panic!("primary accepted a replication record")
        };
        assert_eq!(e.kind, ErrorKind::Fenced);
    }

    #[test]
    fn snapshot_apply_replaces_state_and_promote_flips_the_role() {
        let standby = SessionManager::new(1);
        standby.mark_standby();
        let stale = open("stale", open_params(1));
        send(
            &standby,
            &Request::ReplApply { seq: 1, record: stale.encode(), epoch: 0, primary: None },
        )
        .unwrap();
        let fresh = open("fresh", open_params(2));
        assert_eq!(
            send(
                &standby,
                &Request::ReplSnapshot {
                    seq: 5,
                    records: vec![fresh.encode_tagged(Some("open-fresh"))],
                    epoch: 0,
                    primary: None,
                }
            ),
            Ok(Response::ReplAck { seq: 5 })
        );
        let (names, _, _) = standby.stats(None).unwrap();
        assert_eq!(names, vec!["fresh".to_owned()], "snapshot replaces, not merges");
        assert_eq!(standby.replication_high_water(), 5);
        // Promote: mutations flow directly, and a client retrying the
        // replicated open's req_id gets the recorded outcome.
        assert_eq!(
            send(&standby, &Request::Promote),
            Ok(Response::Promoted { sessions: 1, epoch: 1 })
        );
        assert!(!standby.is_standby());
        assert_eq!(
            standby.dispatch_tagged(&fresh, Some("open-fresh")),
            Response::Opened { session: "fresh".into(), partitions: 2 }
        );
        send(&standby, &repartition("fresh", 3, 0)).unwrap();
    }

    #[test]
    fn mark_standby_keeps_a_fenced_node_fenced() {
        let mgr = SessionManager::new(1);
        assert_eq!(mgr.role(), Role::Primary);
        mgr.mark_standby();
        assert_eq!(mgr.role(), Role::Standby);
        mgr.mark_standby();
        assert_eq!(mgr.role(), Role::Standby);
        let fenced = SessionManager::new(1);
        fenced.demote(2, Some("10.0.0.1:1991"));
        assert_eq!(fenced.role(), Role::Fenced);
        fenced.mark_standby();
        assert_eq!((fenced.role(), fenced.epoch()), (Role::Fenced, 2));
        assert!(fenced.is_standby());
    }

    #[test]
    fn recovered_role_change_restores_the_role_and_its_compaction_record() {
        for role in ROLES {
            let dir = state_dir(&format!("role-{role}"));
            let record = Request::RoleChange { epoch: 3, role };
            {
                let (mut journal, _) = Journal::open(&dir, 0).unwrap();
                journal.append(&record, None).unwrap();
            }
            let (mgr, _) = SessionManager::recover(1, &dir, 0).unwrap();
            assert_eq!((mgr.role(), mgr.epoch()), (role, 3));
            assert_eq!(mgr.is_standby(), role != Role::Primary);
            assert_eq!(
                mgr.with_role_record(Vec::new()),
                vec![JournalEntry { request: record, req_id: None }]
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        // The epoch-0 primary default writes no role record at all.
        assert!(SessionManager::new(1).with_role_record(Vec::new()).is_empty());
    }

    #[test]
    fn optimize_commits_the_trace_and_records_the_run() {
        let mgr = SessionManager::new(1);
        send(&mgr, &open("o", open_params(2))).unwrap();
        // Skew the start so the optimizer has something to improve.
        send(&mgr, &apply_moves("o", &[(3, 0)])).unwrap();
        let result = optimized(&mgr, "o");
        assert!(result.run.trials > 0);
        let (_, _, last) = mgr.stats(Some("o")).unwrap();
        assert_eq!(last.unwrap().digest, result.run.digest, "optimize must record its run");
        // An identically prepared manager reproduces the result
        // byte-for-byte (the seeded optimizer is deterministic).
        let twin = SessionManager::new(1);
        send(&twin, &open("o", open_params(2))).unwrap();
        send(&twin, &apply_moves("o", &[(3, 0)])).unwrap();
        let mut again = optimized(&twin, "o");
        again.run.elapsed_ms = result.run.elapsed_ms; // wall-clock, not part of the contract
        assert_eq!(again, result);
    }

    #[test]
    fn optimize_rejects_unknown_nodes_and_sessions() {
        let mgr = SessionManager::new(1);
        assert_eq!(
            send(&mgr, &optimize("ghost", OptimizeParams::default())).unwrap_err().kind,
            ErrorKind::UnknownSession
        );
        send(&mgr, &open("o", open_params(2))).unwrap();
        let bad = OptimizeParams { pinned: vec![99], ..OptimizeParams::default() };
        assert_eq!(send(&mgr, &optimize("o", bad)).unwrap_err().kind, ErrorKind::Spec);
        assert_eq!(
            send(&mgr, &apply_moves("o", &[(99, 0)])).unwrap_err().kind,
            ErrorKind::Spec
        );
        assert_eq!(
            send(&mgr, &apply_moves("o", &[(3, 99)])).unwrap_err().kind,
            ErrorKind::Engine
        );
    }

    #[test]
    fn optimize_req_id_replays_the_recorded_outcome() {
        let mgr = SessionManager::new(1);
        send(&mgr, &open("o", open_params(2))).unwrap();
        send(&mgr, &apply_moves("o", &[(3, 0)])).unwrap();
        let request = optimize("o", OptimizeParams::default());
        let first = mgr.dispatch_tagged(&request, Some("opt-1"));
        assert!(matches!(first, Response::Optimized { .. }), "{first:?}");
        // A retry replays the recorded response instead of re-running
        // the search (and re-applying the trace) on the mutated session.
        assert_eq!(mgr.dispatch_tagged(&request, Some("opt-1")), first);
    }

    #[test]
    fn applied_moves_survive_journal_recovery() {
        let dir = state_dir("apply-moves");
        let before = {
            let (mgr, _) = SessionManager::recover(1, &dir, 0).unwrap();
            send(&mgr, &open("m", open_params(2))).unwrap();
            send(&mgr, &apply_moves("m", &[(3, 0)])).unwrap();
            mgr.explore("m", &ExploreParams::default()).unwrap().digest
            // Dropped without any shutdown ceremony — the crash.
        };
        let (mgr, report) = SessionManager::recover(1, &dir, 0).unwrap();
        assert_eq!(report.sessions_restored, 1);
        assert_eq!(report.records_replayed, 2);
        let after = mgr.explore("m", &ExploreParams::default()).unwrap().digest;
        assert_eq!(before, after, "replayed moves must reproduce the digest");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn standby_refuses_optimize_and_apply_moves() {
        let standby = SessionManager::new(1);
        standby.mark_standby();
        let Err(e) = send(&standby, &optimize("s", OptimizeParams::default())) else {
            panic!("optimize allowed")
        };
        assert_eq!(e.kind, ErrorKind::Standby);
        let Err(e) = send(&standby, &apply_moves("s", &[(3, 0)])) else {
            panic!("apply allowed")
        };
        assert_eq!(e.kind, ErrorKind::Standby);
    }

    #[test]
    fn committed_mutations_ship_in_sequence_order() {
        let mgr = SessionManager::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        mgr.set_repl_sink(tx);
        send(&mgr, &open("a", open_params(2))).unwrap();
        send(&mgr, &repartition("a", 3, 0)).unwrap();
        // A refused mutation ships nothing.
        assert!(send(&mgr, &open("a", open_params(2))).is_err());
        send(&mgr, &close("a")).unwrap();
        let events: Vec<ReplEvent> = rx.try_iter().collect();
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| match e {
                ReplEvent::Record { seq, .. } | ReplEvent::Snapshot { seq, .. } => *seq,
            })
            .collect();
        assert_eq!(seqs, vec![1, 2, 3], "one event per commit, in order: {events:?}");
        // Shipping a record stream into a standby reproduces the state
        // machine: the final close leaves it empty.
        let standby = SessionManager::new(1);
        standby.mark_standby();
        for event in events {
            let ReplEvent::Record { seq, line } = event else { panic!("unexpected snapshot") };
            assert_eq!(
                send(
                    &standby,
                    &Request::ReplApply { seq, record: line, epoch: 0, primary: None }
                ),
                Ok(Response::ReplAck { seq })
            );
        }
        assert_eq!(standby.session_count(), 0);
    }
}
