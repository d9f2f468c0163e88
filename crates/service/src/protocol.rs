//! The versioned, newline-delimited JSON wire protocol.
//!
//! Every message is one JSON object on one line, and every object carries
//! two envelope fields: `"v"` (the protocol version, currently
//! [`PROTOCOL_VERSION`]) and `"type"` (the variant tag). Unknown *fields*
//! are ignored for forward compatibility; an unknown *type* or a version
//! mismatch is a [`ErrorKind::Protocol`] error.
//!
//! Each wire shape is declared once, in three tables after the message
//! types, and macros generate both the encoder and the decoder from them
//! (over the [`json`] value model):
//!
//! - `wire_tags!` maps the unit enums ([`ErrorKind`], [`Role`],
//!   `Heuristic`, `Completion`, `MoveKind`) to their string tags;
//! - `wire_struct!` lists the fields of each nested object (the params,
//!   the summaries, `CacheStats`, [`ServiceError`]);
//! - `wire_enum!` has one row per message, `Variant = "type" { field: mode }`.
//!
//! The wire key is the Rust field name and fields are written in table
//! order. A field's *mode* says how absence is handled: `req` (must be
//! present), `opt` (written only when `Some`), `null` (written as `null`
//! when `None`), `def` (absent → the struct's `Default`), `or(x)` (absent
//! → `x`), `nonempty` (written only when non-empty, absent → empty),
//! `flat` (a struct's fields inline in the parent) and `custom(put, take)`
//! (the legacy flat budget alias, the only one). `null` reads as absent
//! everywhere. Two response shapes are hand-written, in
//! `Response::encode_other`/`decode_other`, and listed by tag after the
//! response table: `pong` writes `epoch` only next to `role`, and `error`
//! carries a bare [`ServiceError`]. Every request is a table row.
//!
//! To add a variant, add its row to the enum's table (and a sample to
//! `tests/wire_golden.rs`). The bytes are pinned by that golden fixture,
//! and `decode(encode(m)) == m` for every variant by the property tests in
//! `tests/protocol_roundtrip.rs`.
//!
//! Requests may additionally carry an optional client-generated `req_id`
//! envelope field ([`Request::encode_tagged`] /
//! [`Request::decode_tagged`]). A `req_id` on a *mutating* request lets
//! the server answer a retried mutation from its recorded outcome instead
//! of applying it twice — the idempotency window documented in
//! `DESIGN.md` §11.

use std::fmt;
use std::time::Duration;

use chop_core::prelude::{
    CacheStats, Completion, Heuristic, MoveKind, OptimizeResult, SearchBudget, SearchOutcome,
};

use crate::json::{self, Value};

/// The wire-protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Longest accepted `req_id` (bounds the server's idempotency window).
pub const MAX_REQ_ID_LEN: usize = 128;

/// Classifies a [`ServiceError`]; the wire tag is the snake_case name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not a valid protocol message.
    Protocol,
    /// The named session does not exist.
    UnknownSession,
    /// `open` named a session that already exists.
    SessionExists,
    /// The request was well-formed but its contents are invalid (bad
    /// spec text, out-of-range partition count, zero constraint…).
    Spec,
    /// The exploration engine failed (prediction error, bad move…).
    Engine,
    /// The server malfunctioned (a handler panicked, a worker vanished).
    Internal,
    /// The node's replication role refused the request: a warm standby
    /// refuses direct mutations (they must arrive over the replication
    /// stream), and a primary refuses replication records.
    Standby,
    /// The request carried (or arrived at) a stale cluster epoch: a
    /// fenced ex-primary refuses direct mutations, and a node refuses
    /// replication traffic from a peer whose epoch is older than its
    /// own. The error carries the refusing node's epoch and its best
    /// guess at the current primary so the caller can rejoin.
    Fenced,
}

/// A typed service failure, sent on the wire as the `error` response and
/// raised locally by the [`SessionManager`](crate::manager::SessionManager).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Failure class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// For `standby`/`fenced` refusals: the refusing node's best guess
    /// at the current primary's `host:port`, so clients can follow the
    /// redirect and routers can re-learn topology. `None` elsewhere.
    pub primary: Option<String>,
    /// For `fenced` refusals: the refusing node's cluster epoch.
    pub epoch: Option<u64>,
}

impl ServiceError {
    /// Builds an error of the given kind.
    #[must_use]
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self { kind, message: message.into(), primary: None, epoch: None }
    }

    /// A protocol-level (malformed message) error.
    #[must_use]
    pub fn protocol(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Protocol, message)
    }

    /// Attaches the redirect hint (current primary address) and epoch a
    /// `standby`/`fenced` refusal carries.
    #[must_use]
    pub fn with_redirect(mut self, primary: Option<String>, epoch: u64) -> Self {
        self.primary = primary;
        self.epoch = Some(epoch);
        self
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.kind.tag(), self.message)?;
        if let Some(primary) = &self.primary {
            write!(f, " (current primary: {primary})")?;
        }
        Ok(())
    }
}

impl std::error::Error for ServiceError {}

/// A node's replication role. A node holds exactly one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts direct mutations and ships them to its replication peer.
    Primary,
    /// A configured warm standby: refuses direct mutations with
    /// [`ErrorKind::Standby`]; state arrives over the replication stream.
    Standby,
    /// A primary demoted by a newer epoch: refuses direct mutations with
    /// [`ErrorKind::Fenced`] and resyncs from the new primary.
    Fenced,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Parameters of an `open` request — everything needed to build a
/// [`Session`](chop_core::Session) server-side. Fields omitted on the wire
/// take these defaults. `chop check` parses its matching flags into this
/// type too, but starts from single-cycle operations, where a wire `open`
/// defaults to multi-cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenParams {
    /// The behavioral spec, inline, in the `.cbs` text format.
    pub spec: String,
    /// Partition count (horizontal cut). Default 1.
    pub partitions: u32,
    /// Chips in the set. Default: one per partition.
    pub chips: Option<u32>,
    /// MOSIS package pins, 64 or 84. Default 84.
    pub package_pins: u32,
    /// Performance constraint in ns. Default 30 000.
    pub performance_ns: f64,
    /// System-delay constraint in ns. Default 30 000.
    pub delay_ns: f64,
    /// Multi-cycle operations (datapath multiplier 1). Default true.
    pub multi_cycle: bool,
}

impl Default for OpenParams {
    fn default() -> Self {
        Self {
            spec: String::new(),
            partitions: 1,
            chips: None,
            package_pins: 84,
            performance_ns: 30_000.0,
            delay_ns: 30_000.0,
            multi_cycle: true,
        }
    }
}

/// The shared budget envelope of every bounded request: `explore` and
/// `optimize` both carry one, and both interpret it the same way —
/// `deadline_ms` is a wall-clock cut-off, `max_trials` caps the units of
/// work examined (combinations for `explore`, move evaluations for
/// `optimize`). The third idempotency-window field, `req_id`, rides the
/// *tagged* message envelope ([`Request::encode_tagged`]) rather than the
/// budget object so read-only requests can carry it too.
///
/// On the wire the canonical form is one nested object,
/// `"budget": {"deadline_ms": …, "max_trials": …}` (omitted entirely when
/// both fields are unset); the pre-envelope flat spelling — top-level
/// `deadline_ms` / `max_trials` — still decodes as a back-compat alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetEnvelope {
    /// Wall-clock deadline for the search, in ms.
    pub deadline_ms: Option<u64>,
    /// Cap on units of work examined (trials / move evaluations).
    pub max_trials: Option<u64>,
}

impl BudgetEnvelope {
    /// Whether no bound is set (the envelope is omitted on the wire).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deadline_ms.is_none() && self.max_trials.is_none()
    }

    /// The core search budget these bounds describe, with the core's
    /// defaults for everything else.
    #[must_use]
    pub fn search_budget(&self) -> SearchBudget {
        let mut budget = SearchBudget::default();
        if let Some(ms) = self.deadline_ms {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        if let Some(n) = self.max_trials {
            budget = budget.with_max_trials(usize::try_from(n).unwrap_or(usize::MAX));
        }
        budget
    }
}

/// Parameters of an `explore` request; the budget reuses the core
/// [`SearchBudget`] semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreParams {
    /// Which heuristic to run. Default I (iterative).
    pub heuristic: Heuristic,
    /// Deadline / trial-cap envelope. Default: unbounded.
    pub budget: BudgetEnvelope,
    /// Worker threads for this run. Default: the server's `--jobs`.
    pub jobs: Option<u32>,
}

impl Default for ExploreParams {
    fn default() -> Self {
        Self { heuristic: Heuristic::Iterative, budget: BudgetEnvelope::default(), jobs: None }
    }
}

/// Parameters of an `optimize` request, mirroring the builder knobs of
/// [`OptimizeSpec`](chop_core::prelude::OptimizeSpec). Node-naming fields
/// use DFG node indices; the server resolves them against the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeParams {
    /// Seed for the optimizer's deterministic randomness. Default 0.
    /// Wire numbers ride on JSON doubles, so seeds above 2^53 − 1 are
    /// rejected on decode rather than silently rounded.
    pub seed: u64,
    /// Deadline / move-evaluation-cap envelope. Default: the core spec's
    /// built-in move budget.
    pub budget: BudgetEnvelope,
    /// Heuristic for each candidate evaluation. Default I (iterative).
    pub heuristic: Heuristic,
    /// Plateau kicks allowed. Default: the core spec's default.
    pub kicks: Option<u32>,
    /// Annealed moves attempted per kick. Default: the core default.
    pub kick_moves: Option<u32>,
    /// Worker threads for this run. Default: the server's `--jobs`.
    pub jobs: Option<u32>,
    /// Node indices pinned to their current partition.
    pub pinned: Vec<u32>,
    /// Groups of node indices that must move atomically and stay
    /// co-located.
    pub groups: Vec<Vec<u32>>,
    /// Pairs of node indices that must never share a partition.
    pub exclusions: Vec<(u32, u32)>,
}

impl Default for OptimizeParams {
    fn default() -> Self {
        Self {
            seed: 0,
            budget: BudgetEnvelope::default(),
            heuristic: Heuristic::Iterative,
            kicks: None,
            kick_moves: None,
            jobs: None,
            pinned: Vec::new(),
            groups: Vec::new(),
            exclusions: Vec::new(),
        }
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness/version probe.
    Ping,
    /// Create a named session.
    Open {
        /// Session name (unique on the server).
        session: String,
        /// Session construction parameters.
        params: OpenParams,
    },
    /// Run an exploration on a session (dispatched to the worker pool).
    Explore {
        /// Session name.
        session: String,
        /// Search parameters.
        params: ExploreParams,
    },
    /// Move one node to another partition (incremental what-if).
    Repartition {
        /// Session name.
        session: String,
        /// DFG node index to move.
        node: u32,
        /// Target partition index.
        to: u32,
    },
    /// Run the move-based optimizer on a session (dispatched to the
    /// worker pool). On success the accepted final partitioning is
    /// installed — the journal records it as an `apply_moves`, because a
    /// deadline-truncated `optimize` is not deterministically replayable
    /// while its accepted move trace always is.
    Optimize {
        /// Session name.
        session: String,
        /// Optimizer parameters.
        params: OptimizeParams,
    },
    /// Apply a batch of `(node, partition)` moves atomically — the
    /// journaled/replicated form of an accepted optimizer trace, also
    /// usable directly as a multi-node what-if.
    ApplyMoves {
        /// Session name.
        session: String,
        /// `(node index, target partition index)` pairs, applied in
        /// order with one final validation.
        moves: Vec<(u32, u32)>,
    },
    /// Replace a session's performance/delay constraints (the next
    /// `explore` searches under the new envelope; predictions are
    /// constraint-independent, so the cache stays warm).
    SetConstraints {
        /// Session name.
        session: String,
        /// New performance constraint in ns.
        performance_ns: f64,
        /// New system-delay constraint in ns.
        delay_ns: f64,
    },
    /// Server and cache statistics; with a session name, also that
    /// session's last run.
    Stats {
        /// Optional session whose last run to report.
        session: Option<String>,
    },
    /// Discard a session.
    Close {
        /// Session name.
        session: String,
    },
    /// Ask the server to drain and exit.
    Shutdown,
    /// Replication: apply one committed journal record on a standby.
    /// `record` is the exact tagged request line the primary journaled;
    /// `seq` is the primary's monotonic replication sequence number.
    ReplApply {
        /// Position of this record in the primary's replication stream.
        seq: u64,
        /// The journaled request line, verbatim.
        record: String,
        /// The sender's cluster epoch; a receiver at a higher epoch
        /// refuses with `fenced`. 0 from pre-epoch senders.
        epoch: u64,
        /// The sender's advertised `host:port`, so a fenced receiver
        /// (and its replicator) can find the peer again after restarts.
        primary: Option<String>,
    },
    /// Replication: replace the standby's entire state with a snapshot
    /// (sent on stream start and after primary-side compaction).
    ReplSnapshot {
        /// Replication sequence number the snapshot is current through.
        seq: u64,
        /// One journaled request line per record, in replay order.
        records: Vec<String>,
        /// The sender's cluster epoch (see [`Request::ReplApply`]).
        epoch: u64,
        /// The sender's advertised `host:port`.
        primary: Option<String>,
    },
    /// Promote a warm standby to primary: it bumps the cluster epoch,
    /// journals the role change, starts accepting direct mutations and
    /// stops accepting replication records from stale-epoch peers.
    Promote,
    /// Journal-internal: a durable role/epoch transition (`promote`
    /// writes `primary`, a fencing demotion writes `fenced`). Never sent
    /// by clients; it exists so a restarted node replays its way back
    /// into the role it held at the crash.
    RoleChange {
        /// The cluster epoch this transition established.
        epoch: u64,
        /// The role the node took.
        role: Role,
    },
    /// Router admin: add a backend pair (`primary[,standby]`) to the
    /// ring, migrating the sessions that remap onto it. Refused by
    /// `chop serve` backends.
    AddPair {
        /// The pair spec, `primary[,standby]`.
        pair: String,
    },
    /// Router admin: remove the backend pair whose primary label
    /// matches, migrating its sessions to the surviving pairs.
    RemovePair {
        /// The pair's primary label (`host:port`).
        pair: String,
    },
    /// Router admin: report the router's pairs and their health state.
    RouterStatus,
    /// Export one session's replayable history (its genesis `open` plus
    /// every mutation since, as tagged journal lines) for migration.
    Export {
        /// Session name.
        session: String,
    },
    /// Import a session exported from another node: replay its records
    /// through the normal mutation paths (journaled and replicated).
    Import {
        /// The exported tagged request lines, in replay order.
        records: Vec<String>,
    },
}

/// A condensed [`SearchOutcome`]: the digest plus the counters a client
/// needs to reason about feasibility, truncation and cache behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Heuristic that produced the run.
    pub heuristic: Heuristic,
    /// Canonical result fingerprint ([`SearchOutcome::digest`]).
    pub digest: String,
    /// Combinations examined.
    pub trials: u64,
    /// Feasible combinations.
    pub feasible_trials: u64,
    /// Feasible, non-inferior implementations found.
    pub feasible: u64,
    /// How the search ended.
    pub completion: Completion,
    /// Whether heuristic E degraded to I.
    pub degraded: bool,
    /// Wall-clock search time in ms.
    pub elapsed_ms: f64,
    /// BAD predictor invocations this run (cache misses that did work).
    pub predictor_calls: u64,
    /// Partition predictions served from the shared cache this run.
    pub cache_hits: u64,
    /// Cache lookups that missed this run.
    pub cache_misses: u64,
    /// Odometer subtrees skipped by the branch-and-bound search.
    pub subtrees_skipped: u64,
    /// Combinations never visited thanks to subtree skipping.
    pub combinations_skipped: u64,
}

impl RunSummary {
    /// Condenses a full outcome into its wire summary.
    #[must_use]
    pub fn from_outcome(outcome: &SearchOutcome) -> Self {
        Self {
            heuristic: outcome.heuristic,
            digest: outcome.digest(),
            trials: outcome.trials as u64,
            feasible_trials: outcome.feasible_trials as u64,
            feasible: outcome.feasible.len() as u64,
            completion: outcome.completion,
            degraded: outcome.degraded,
            elapsed_ms: outcome.elapsed.as_secs_f64() * 1e3,
            predictor_calls: outcome.trace.predictor_calls,
            cache_hits: outcome.trace.cache_hits,
            cache_misses: outcome.trace.cache_misses,
            subtrees_skipped: outcome.trace.subtrees_skipped,
            combinations_skipped: outcome.trace.combinations_skipped,
        }
    }
}

/// One accepted optimizer move on the wire: the unit's node indices, the
/// partitions it left and joined, and which phase proposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveSummary {
    /// DFG node indices of the moved unit (singleton or group).
    pub nodes: Vec<u32>,
    /// Partition index the unit left.
    pub from: u32,
    /// Partition index the unit joined.
    pub to: u32,
    /// 1-based optimizer pass that proposed the move.
    pub pass: u32,
    /// Whether a gain-directed pass or an annealing kick proposed it.
    pub kind: MoveKind,
}

/// A condensed [`OptimizeResult`]: the digest, the accepted move trace
/// and the counters a client needs, plus the final state's run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeSummary {
    /// Canonical result fingerprint ([`OptimizeResult::digest`]).
    pub digest: String,
    /// Whether the final partitioning has a feasible implementation.
    pub feasible: bool,
    /// Objective score of the starting partitioning.
    pub initial_score: f64,
    /// Objective score of the final partitioning.
    pub final_score: f64,
    /// Candidate evaluations spent.
    pub evaluations: u64,
    /// Gain-directed passes run.
    pub passes: u32,
    /// Plateau kicks used.
    pub kicks: u32,
    /// How the search ended.
    pub completion: Completion,
    /// The accepted move trace, in application order.
    pub moves: Vec<MoveSummary>,
    /// Exploration summary of the final partitioning.
    pub run: RunSummary,
}

impl OptimizeSummary {
    /// Condenses a full optimizer result into its wire summary.
    #[must_use]
    pub fn from_result(result: &OptimizeResult) -> Self {
        #[allow(clippy::cast_possible_truncation)]
        let moves = result
            .moves
            .iter()
            .map(|m| MoveSummary {
                nodes: m.nodes.iter().map(|n| n.index() as u32).collect(),
                from: m.from.index() as u32,
                to: m.to.index() as u32,
                pass: m.pass,
                kind: m.kind,
            })
            .collect();
        Self {
            digest: result.digest(),
            feasible: result.feasible(),
            initial_score: result.initial_score,
            final_score: result.final_score,
            evaluations: result.evaluations,
            passes: result.passes,
            kicks: result.kicks_used,
            completion: result.completion,
            moves,
            run: RunSummary::from_outcome(&result.outcome),
        }
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `ping`.
    Pong {
        /// The server's protocol version.
        version: u64,
        /// The node's replication role; `None` from routers and pre-epoch
        /// servers.
        role: Option<Role>,
        /// The node's cluster epoch (0 when it never changed roles).
        epoch: u64,
        /// The node's configured replication peer, if any — the router
        /// learns a rejoined standby's address from its primary's pong.
        peer: Option<String>,
    },
    /// A session was created.
    Opened {
        /// Session name.
        session: String,
        /// Partition count of the built partitioning.
        partitions: u64,
    },
    /// An exploration finished.
    Explored {
        /// Session name.
        session: String,
        /// The run's summary.
        run: RunSummary,
    },
    /// A node was moved.
    Repartitioned {
        /// Session name.
        session: String,
        /// Node that moved.
        node: u32,
        /// Its new partition.
        to: u32,
    },
    /// An optimization finished and its final partitioning is installed.
    Optimized {
        /// Session name.
        session: String,
        /// The optimizer run's summary (boxed: by far the largest
        /// response payload, and `Response` values are moved around a
        /// lot — completion queues, dedup windows).
        result: Box<OptimizeSummary>,
    },
    /// A batch of moves was applied atomically.
    MovesApplied {
        /// Session name.
        session: String,
        /// How many `(node, partition)` pairs the batch carried.
        moves: u64,
    },
    /// A session's constraints were replaced.
    ConstraintsSet {
        /// Session name.
        session: String,
        /// The performance constraint now in force, in ns.
        performance_ns: f64,
        /// The system-delay constraint now in force, in ns.
        delay_ns: f64,
    },
    /// Server statistics.
    Stats {
        /// Names of the open sessions, sorted.
        sessions: Vec<String>,
        /// Shared prediction-cache counters (lifetime).
        cache: CacheStats,
        /// Resident entries per cache shard, in shard order (empty from
        /// servers that predate the sharded cache tier).
        shard_entries: Vec<u64>,
        /// The named session's most recent run, if any.
        last_run: Option<RunSummary>,
    },
    /// A session was discarded.
    Closed {
        /// Session name.
        session: String,
    },
    /// The server acknowledged `shutdown` and is draining.
    ShuttingDown,
    /// A replication record or snapshot was applied; the standby's
    /// high-water mark is now at least `seq`.
    ReplAck {
        /// Highest replication sequence number applied or skipped.
        seq: u64,
    },
    /// The standby was promoted (or already was primary).
    Promoted {
        /// Sessions live on the newly-promoted node.
        sessions: u64,
        /// The cluster epoch the promotion established (0 from pre-epoch
        /// servers).
        epoch: u64,
    },
    /// The worker pool is saturated; retry later.
    Busy {
        /// Explorations queued or running.
        inflight: u64,
        /// The server's `--max-inflight` bound.
        max_inflight: u64,
        /// Server-suggested backoff before retrying, in ms, derived from
        /// the inflight depth (0 when the server predates the hint).
        retry_after_ms: u64,
    },
    /// A backend pair joined the router's ring.
    PairAdded {
        /// The router's pairs after the change, rendered for display.
        pairs: Vec<String>,
    },
    /// A backend pair left the router's ring.
    PairRemoved {
        /// The router's pairs after the change, rendered for display.
        pairs: Vec<String>,
    },
    /// The router's membership and health report.
    RouterStatus {
        /// One rendered line per pair (active, standby, armed state).
        pairs: Vec<String>,
    },
    /// A session's replayable history, for migration.
    Exported {
        /// Session name.
        session: String,
        /// Tagged request lines: the genesis `open` plus every mutation.
        records: Vec<String>,
    },
    /// An exported session was replayed into this node.
    Imported {
        /// Session name the records established.
        session: String,
        /// How many records were applied.
        records: u64,
    },
    /// The request failed.
    Error(ServiceError),
}

// ---- the codec ---------------------------------------------------------
//
// Every wire shape is declared once, in the `wire_tags!`, `wire_struct!`
// and `wire_enum!` tables below; the macros generate both directions.

/// A value with one JSON form: the field types of the tables.
trait Wire: Sized {
    fn put(&self) -> Value;
    /// Decodes one value; the error says what was expected.
    fn take(v: &Value) -> Result<Self, ServiceError>;
}

/// The fields of one wire object, in the order they are written.
type Fields = Vec<(String, Value)>;

fn expected(what: &str) -> ServiceError {
    ServiceError::protocol(format!("expected {what}"))
}

impl Wire for String {
    fn put(&self) -> Value {
        Value::Str(self.clone())
    }
    fn take(v: &Value) -> Result<Self, ServiceError> {
        v.as_str().map(str::to_owned).ok_or_else(|| expected("a string"))
    }
}

/// Wire numbers ride on JSON doubles, so integers above 2^53 are rejected
/// on decode rather than silently rounded.
impl Wire for u64 {
    fn put(&self) -> Value {
        #[allow(clippy::cast_precision_loss)]
        Value::Num(*self as f64)
    }
    fn take(v: &Value) -> Result<Self, ServiceError> {
        v.as_u64().ok_or_else(|| expected("a non-negative integer"))
    }
}

impl Wire for u32 {
    fn put(&self) -> Value {
        Value::Num(f64::from(*self))
    }
    fn take(v: &Value) -> Result<Self, ServiceError> {
        v.as_u64().and_then(|n| u32::try_from(n).ok()).ok_or_else(|| expected("a u32 integer"))
    }
}

impl Wire for f64 {
    fn put(&self) -> Value {
        Value::Num(*self)
    }
    fn take(v: &Value) -> Result<Self, ServiceError> {
        v.as_f64().ok_or_else(|| expected("a number"))
    }
}

impl Wire for bool {
    fn put(&self) -> Value {
        Value::Bool(*self)
    }
    fn take(v: &Value) -> Result<Self, ServiceError> {
        v.as_bool().ok_or_else(|| expected("a boolean"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self) -> Value {
        Value::Arr(self.iter().map(Wire::put).collect())
    }
    fn take(v: &Value) -> Result<Self, ServiceError> {
        v.as_arr().ok_or_else(|| expected("an array"))?.iter().map(T::take).collect()
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self) -> Value {
        (**self).put()
    }
    fn take(v: &Value) -> Result<Self, ServiceError> {
        T::take(v).map(Box::new)
    }
}

/// A `(node, partition)`-style pair, written as a two-element array.
impl Wire for (u32, u32) {
    fn put(&self) -> Value {
        Value::Arr(vec![self.0.put(), self.1.put()])
    }
    fn take(v: &Value) -> Result<Self, ServiceError> {
        match Vec::<u32>::take(v)?[..] {
            [a, b] => Ok((a, b)),
            _ => Err(expected("a two-element [a, b] integer pair")),
        }
    }
}

fn in_field<T>(key: &str, taken: Result<T, ServiceError>) -> Result<T, ServiceError> {
    taken.map_err(|e| ServiceError::protocol(format!("field {key:?}: {}", e.message)))
}

/// A field that must be present.
fn take_req<T: Wire>(v: &Value, key: &str) -> Result<T, ServiceError> {
    let value =
        v.get(key).ok_or_else(|| ServiceError::protocol(format!("missing field {key:?}")))?;
    in_field(key, T::take(value))
}

/// A field that may be absent; `null` counts as absent.
fn take_opt<T: Wire>(v: &Value, key: &str) -> Result<Option<T>, ServiceError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(value) => in_field(key, T::take(value)).map(Some),
    }
}

/// Writes one table field onto `$out`; `$f` names both the wire key and
/// the binding that holds a reference to the value.
macro_rules! put_field {
    ($out:ident, $f:ident, opt) => {
        if let Some(x) = $f {
            $out.push((stringify!($f).to_owned(), x.put()));
        }
    };
    ($out:ident, $f:ident, null) => {
        $out.push((stringify!($f).to_owned(), $f.as_ref().map_or(Value::Null, Wire::put)))
    };
    ($out:ident, $f:ident, nonempty) => {
        if !$f.is_empty() {
            $out.push((stringify!($f).to_owned(), $f.put()));
        }
    };
    ($out:ident, $f:ident, flat) => {
        if let Value::Obj(fields) = $f.put() {
            $out.extend(fields);
        }
    };
    ($out:ident, $f:ident, custom($put:ident, $take:ident)) => {
        $put($f, &mut $out)
    };
    ($out:ident, $f:ident, req) => {
        $out.push((stringify!($f).to_owned(), $f.put()))
    };
    ($out:ident, $f:ident, def) => {
        put_field!($out, $f, req)
    };
    ($out:ident, $f:ident, or($x:expr)) => {
        put_field!($out, $f, req)
    };
}

/// Reads one table field out of the object `$v`.
macro_rules! take_field {
    ($v:ident, $f:ident, req) => {
        take_req($v, stringify!($f))?
    };
    ($v:ident, $f:ident, opt) => {
        take_opt($v, stringify!($f))?
    };
    ($v:ident, $f:ident, null) => {
        take_field!($v, $f, opt)
    };
    ($v:ident, $f:ident, def) => {
        take_opt($v, stringify!($f))?.unwrap_or_else(|| Self::default().$f)
    };
    ($v:ident, $f:ident, or($x:expr)) => {
        take_opt($v, stringify!($f))?.unwrap_or($x)
    };
    ($v:ident, $f:ident, nonempty) => {
        take_opt($v, stringify!($f))?.unwrap_or_default()
    };
    ($v:ident, $f:ident, flat) => {
        Wire::take($v)?
    };
    ($v:ident, $f:ident, custom($put:ident, $take:ident)) => {
        $take($v)?
    };
}

/// Unit enums carried as string tags. `Tag::tag` is the wire spelling.
macro_rules! wire_tags {
    ($($T:ident { $($V:ident = $tag:literal),* $(,)? })*) => {$(
        impl Tag for $T {
            fn tag(self) -> &'static str {
                match self {
                    $($T::$V => $tag,)*
                }
            }
        }

        impl Wire for $T {
            fn put(&self) -> Value {
                Value::Str(self.tag().to_owned())
            }
            fn take(v: &Value) -> Result<Self, ServiceError> {
                match v.as_str() {
                    $(Some($tag) => Ok($T::$V),)*
                    _ => Err(expected(concat!("one of" $(, " ", stringify!($tag))*))),
                }
            }
        }
    )*};
}

trait Tag {
    fn tag(self) -> &'static str;
}

/// Structs carried as one JSON object, fields in table order.
macro_rules! wire_struct {
    ($($S:ident { $($f:ident: $mode:ident $(($($arg:tt)*))?),* $(,)? })*) => {$(
        impl Wire for $S {
            // Optional fields make the pushes conditional.
            #[allow(clippy::vec_init_then_push)]
            fn put(&self) -> Value {
                let Self { $($f),* } = self;
                let mut out = Fields::new();
                $(put_field!(out, $f, $mode $(($($arg)*))?);)*
                Value::Obj(out)
            }
            fn take(v: &Value) -> Result<Self, ServiceError> {
                if !matches!(v, Value::Obj(_)) {
                    return Err(expected("an object"));
                }
                Ok(Self { $($f: take_field!(v, $f, $mode $(($($arg)*))?)),* })
            }
        }
    )*};
}

/// A message enum: `Variant = "type" { field: mode, .. }` per row, both
/// directions generated. Rows after `by hand` name variants whose shape
/// the enum writes itself, in `encode_other` / `decode_other`.
macro_rules! wire_enum {
    ($E:ident {
        $($V:ident = $tag:literal $({ $($f:ident: $mode:ident $(($($arg:tt)*))?),* $(,)? })?,)*
    } $(by hand { $($H:ident = $htag:literal,)* })?) => {
        impl $E {
            /// The `"v"`/`"type"` envelope followed by this message's fields.
            fn encode_fields(&self) -> Fields {
                #[allow(clippy::cast_precision_loss)]
                let mut out = vec![
                    ("v".to_owned(), Value::Num(PROTOCOL_VERSION as f64)),
                    ("type".to_owned(), Value::Null),
                ];
                // The tag is known once the variant is matched.
                let tag = match self {
                    $($E::$V $({ $($f),* })? => {
                        $($(put_field!(out, $f, $mode $(($($arg)*))?);)*)?
                        $tag
                    })*
                    $($($E::$H { .. } => {
                        self.encode_other(&mut out);
                        $htag
                    })*)?
                };
                out[1].1 = Value::Str(tag.to_owned());
                out
            }

            fn decode_fields(v: &Value, tag: &str) -> Result<Self, ServiceError> {
                match tag {
                    $($tag => Ok($E::$V $({ $($f: take_field!(v, $f, $mode $(($($arg)*))?)),* })?),)*
                    $($($htag => Self::decode_other(v, tag),)*)?
                    other => Err(ServiceError::protocol(format!("unknown type {other:?}"))),
                }
            }
        }
    };
}

wire_tags! {
    ErrorKind {
        Protocol = "protocol",
        UnknownSession = "unknown_session",
        SessionExists = "session_exists",
        Spec = "spec",
        Engine = "engine",
        Internal = "internal",
        Standby = "standby",
        Fenced = "fenced",
    }
    Role { Primary = "primary", Standby = "standby", Fenced = "fenced" }
    Heuristic { Enumeration = "E", Iterative = "I" }
    Completion {
        Complete = "complete",
        TruncatedDeadline = "truncated_deadline",
        TruncatedTrials = "truncated_trials",
        DegradedToIterative = "degraded_to_iterative",
    }
    MoveKind { Gain = "gain", Kick = "kick" }
}

wire_struct! {
    OpenParams {
        spec: req,
        partitions: def,
        chips: opt,
        package_pins: def,
        performance_ns: def,
        delay_ns: def,
        multi_cycle: def,
    }
    BudgetEnvelope { deadline_ms: opt, max_trials: opt }
    ExploreParams { heuristic: def, budget: custom(put_budget, take_budget), jobs: opt }
    OptimizeParams {
        seed: def,
        heuristic: def,
        budget: custom(put_budget, take_budget),
        kicks: opt,
        kick_moves: opt,
        jobs: opt,
        pinned: nonempty,
        groups: nonempty,
        exclusions: nonempty,
    }
    RunSummary {
        heuristic: req,
        digest: req,
        trials: req,
        feasible_trials: req,
        feasible: req,
        completion: req,
        degraded: req,
        elapsed_ms: req,
        predictor_calls: req,
        cache_hits: req,
        cache_misses: req,
        subtrees_skipped: req,
        combinations_skipped: req,
    }
    MoveSummary { nodes: req, from: req, to: req, pass: req, kind: req }
    OptimizeSummary {
        digest: req,
        feasible: req,
        initial_score: req,
        final_score: req,
        evaluations: req,
        passes: req,
        kicks: req,
        completion: req,
        moves: req,
        run: req,
    }
    CacheStats { hits: req, misses: req, evictions: req, entries: req, bytes: req }
    ServiceError { kind: req, message: req, primary: opt, epoch: opt }
}

/// The one `custom` rule. The budget is written as a nested `"budget"`
/// object, omitted when no bound is set; without that object it decodes
/// from the legacy flat spelling, top-level `deadline_ms` / `max_trials`
/// (`DESIGN.md` §14).
fn put_budget(budget: &BudgetEnvelope, out: &mut Fields) {
    if !budget.is_empty() {
        out.push(("budget".to_owned(), budget.put()));
    }
}

fn take_budget(v: &Value) -> Result<BudgetEnvelope, ServiceError> {
    match v.get("budget") {
        None | Some(Value::Null) => BudgetEnvelope::take(v),
        Some(nested) => in_field("budget", BudgetEnvelope::take(nested)),
    }
}

wire_enum! {
    Request {
        Ping = "ping",
        Open = "open" { session: req, params: flat },
        Explore = "explore" { session: req, params: flat },
        Repartition = "repartition" { session: req, node: req, to: req },
        Optimize = "optimize" { session: req, params: flat },
        ApplyMoves = "apply_moves" { session: req, moves: req },
        SetConstraints = "set_constraints" { session: req, performance_ns: req, delay_ns: req },
        Stats = "stats" { session: opt },
        Close = "close" { session: req },
        Shutdown = "shutdown",
        // Pre-epoch senders omit `epoch` and `primary`.
        ReplApply = "repl_apply" { seq: req, record: req, epoch: or(0), primary: opt },
        ReplSnapshot = "repl_snapshot" { seq: req, records: req, epoch: or(0), primary: opt },
        Promote = "promote",
        RoleChange = "role_change" { epoch: req, role: req },
        AddPair = "add_pair" { pair: req },
        RemovePair = "remove_pair" { pair: req },
        RouterStatus = "router_status",
        Export = "export" { session: req },
        Import = "import" { records: req },
    }
}

wire_enum! {
    Response {
        Opened = "opened" { session: req, partitions: req },
        Explored = "explored" { session: req, run: req },
        Repartitioned = "repartitioned" { session: req, node: req, to: req },
        Optimized = "optimized" { session: req, result: req },
        MovesApplied = "moves_applied" { session: req, moves: req },
        ConstraintsSet = "constraints_set" { session: req, performance_ns: req, delay_ns: req },
        // Servers that predate the sharded cache tier omit `shard_entries`.
        Stats = "stats" {
            sessions: req,
            cache: req,
            shard_entries: or(Vec::new()),
            last_run: null,
        },
        Closed = "closed" { session: req },
        ShuttingDown = "shutting_down",
        ReplAck = "repl_ack" { seq: req },
        // Pre-epoch servers omit `epoch`; servers that predate the backoff
        // hint omit `retry_after_ms`.
        Promoted = "promoted" { sessions: req, epoch: or(0) },
        Busy = "busy" { inflight: req, max_inflight: req, retry_after_ms: or(0) },
        PairAdded = "pair_added" { pairs: req },
        PairRemoved = "pair_removed" { pairs: req },
        RouterStatus = "router_status" { pairs: req },
        Exported = "exported" { session: req, records: req },
        Imported = "imported" { session: req, records: req },
    }
    by hand {
        Pong = "pong",
        Error = "error",
    }
}

/// Parses a line and checks its `"v"` envelope, returning the type tag.
fn open_envelope(line: &str) -> Result<(Value, String), ServiceError> {
    let v = json::parse(line).map_err(|e| ServiceError::protocol(e.to_string()))?;
    let version: u64 = take_req(&v, "v")?;
    if version != PROTOCOL_VERSION {
        return Err(ServiceError::protocol(format!(
            "protocol version {version} not supported (this server speaks {PROTOCOL_VERSION})"
        )));
    }
    let tag = take_req(&v, "type")?;
    Ok((v, tag))
}

impl Request {
    /// Whether this request mutates server-side session state (and is
    /// therefore journaled, deduplicated by `req_id`, and only retried by
    /// clients when tagged). `explore` is *not* a mutation: re-running it
    /// produces a byte-identical digest.
    #[must_use]
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Request::Open { .. }
                | Request::Repartition { .. }
                | Request::Optimize { .. }
                | Request::ApplyMoves { .. }
                | Request::SetConstraints { .. }
                | Request::Close { .. }
                | Request::Import { .. }
        )
    }

    /// The session this request targets, if any — the router's sharding
    /// key. Sessionless requests (`ping`, global `stats`, replication
    /// traffic) return `None` and may be answered by any backend.
    #[must_use]
    pub fn session(&self) -> Option<&str> {
        match self {
            Request::Open { session, .. }
            | Request::Explore { session, .. }
            | Request::Repartition { session, .. }
            | Request::Optimize { session, .. }
            | Request::ApplyMoves { session, .. }
            | Request::SetConstraints { session, .. }
            | Request::Close { session }
            | Request::Export { session } => Some(session),
            Request::Stats { session } => session.as_deref(),
            Request::Ping
            | Request::Shutdown
            | Request::ReplApply { .. }
            | Request::ReplSnapshot { .. }
            | Request::Promote
            | Request::RoleChange { .. }
            | Request::AddPair { .. }
            | Request::RemovePair { .. }
            | Request::RouterStatus
            | Request::Import { .. } => None,
        }
    }

    /// Encodes this request as one line of JSON (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        self.encode_tagged(None)
    }

    /// Encodes this request with an optional `req_id` envelope field.
    #[must_use]
    pub fn encode_tagged(&self, req_id: Option<&str>) -> String {
        let mut fields = self.encode_fields();
        if let Some(id) = req_id {
            fields.push(("req_id".to_owned(), Value::Str(id.to_owned())));
        }
        Value::Obj(fields).to_string()
    }

    /// Decodes one request line together with its optional `req_id`.
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorKind::Protocol`] error for malformed JSON, a
    /// version mismatch, an unknown type tag, mistyped fields, or an
    /// empty or over-long (> [`MAX_REQ_ID_LEN`]) `req_id`.
    pub fn decode_tagged(line: &str) -> Result<(Self, Option<String>), ServiceError> {
        let (v, tag) = open_envelope(line)?;
        let req_id: Option<String> = take_opt(&v, "req_id")?;
        if let Some(id) = &req_id {
            if id.is_empty() || id.len() > MAX_REQ_ID_LEN {
                return Err(ServiceError::protocol(format!(
                    "req_id must be 1..={MAX_REQ_ID_LEN} bytes"
                )));
            }
        }
        Ok((Self::decode_fields(&v, &tag)?, req_id))
    }
}

impl Response {
    /// Encodes this response as one line of JSON (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        Value::Obj(self.encode_fields()).to_string()
    }

    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorKind::Protocol`] error for malformed JSON, a
    /// version mismatch, an unknown type tag or mistyped fields.
    pub fn decode(line: &str) -> Result<Self, ServiceError> {
        let (v, tag) = open_envelope(line)?;
        Self::decode_fields(&v, &tag)
    }

    /// What a call between nodes reports for a reply other than the one
    /// it expects: an `error` reply is its own [`ServiceError`], anything
    /// else a protocol error naming the call.
    pub(crate) fn into_error(self, call: &str) -> ServiceError {
        match self {
            Response::Error(e) => e,
            other => {
                ServiceError::protocol(format!("unexpected {call} reply: {}", other.encode()))
            }
        }
    }

    /// `pong` writes `epoch` only next to `role` (routers and pre-epoch
    /// servers send neither), and `error` carries a bare [`ServiceError`]
    /// with its fields inline.
    fn encode_other(&self, out: &mut Fields) {
        match self {
            Response::Pong { version, role, epoch, peer } => {
                put_field!(out, version, req);
                if let Some(role) = role {
                    put_field!(out, role, req);
                    put_field!(out, epoch, req);
                }
                put_field!(out, peer, opt);
            }
            Response::Error(error) => put_field!(out, error, flat),
            _ => unreachable!("every other response is in the wire table"),
        }
    }

    /// Decodes the `by hand` rows: `pong` and `error`.
    fn decode_other(v: &Value, tag: &str) -> Result<Self, ServiceError> {
        if tag == "error" {
            return ServiceError::take(v).map(Response::Error);
        }
        Ok(Response::Pong {
            version: take_req(v, "version")?,
            role: take_opt(v, "role")?,
            epoch: take_opt(v, "epoch")?.unwrap_or(0),
            peer: take_opt(v, "peer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(line: &str) -> Result<Request, ServiceError> {
        Request::decode_tagged(line).map(|(request, _)| request)
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Open {
                session: "a".into(),
                params: OpenParams {
                    spec: "x = input 16\ny = output x\n".into(),
                    partitions: 2,
                    chips: Some(3),
                    ..OpenParams::default()
                },
            },
            Request::Explore {
                session: "a".into(),
                params: ExploreParams {
                    heuristic: Heuristic::Enumeration,
                    budget: BudgetEnvelope { deadline_ms: Some(250), max_trials: None },
                    jobs: Some(4),
                },
            },
            Request::Repartition { session: "a".into(), node: 3, to: 0 },
            Request::Optimize {
                session: "a".into(),
                params: OptimizeParams {
                    seed: 42,
                    budget: BudgetEnvelope { deadline_ms: Some(100), max_trials: Some(64) },
                    kicks: Some(1),
                    kick_moves: Some(2),
                    jobs: Some(2),
                    pinned: vec![0, 7],
                    groups: vec![vec![1, 2], vec![9]],
                    exclusions: vec![(3, 4)],
                    ..OptimizeParams::default()
                },
            },
            Request::Optimize { session: "a".into(), params: OptimizeParams::default() },
            Request::ApplyMoves { session: "a".into(), moves: vec![(3, 1), (5, 0)] },
            Request::ApplyMoves { session: "a".into(), moves: vec![] },
            Request::SetConstraints {
                session: "a".into(),
                performance_ns: 20_000.0,
                delay_ns: 25_000.5,
            },
            Request::Stats { session: None },
            Request::Stats { session: Some("a".into()) },
            Request::Close { session: "a".into() },
            Request::Shutdown,
            Request::ReplApply {
                seq: 7,
                record: r#"{"v":1,"type":"close","session":"a"}"#.into(),
                epoch: 3,
                primary: Some("10.0.0.1:1991".into()),
            },
            Request::ReplSnapshot {
                seq: 12,
                records: vec![r#"{"v":1,"type":"close","session":"a"}"#.into()],
                epoch: 2,
                primary: None,
            },
            Request::ReplSnapshot { seq: 0, records: vec![], epoch: 0, primary: None },
            Request::Promote,
            Request::RoleChange { epoch: 4, role: Role::Primary },
            Request::RoleChange { epoch: 4, role: Role::Fenced },
            Request::RoleChange { epoch: 0, role: Role::Standby },
            Request::AddPair { pair: "10.0.0.3:1991,10.0.0.4:1991".into() },
            Request::RemovePair { pair: "10.0.0.3:1991".into() },
            Request::RouterStatus,
            Request::Export { session: "a".into() },
            Request::Import {
                records: vec![r#"{"v":1,"type":"open","session":"a","spec":""}"#.into()],
            },
        ];
        for req in reqs {
            let line = req.encode();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(decode(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn req_id_rides_the_envelope_and_round_trips() {
        let req = Request::Repartition { session: "a".into(), node: 3, to: 0 };
        let line = req.encode_tagged(Some("retry-42"));
        let (decoded, id) = Request::decode_tagged(&line).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(id.as_deref(), Some("retry-42"));
        // Untagged lines decode with no id, and plain decode ignores one.
        assert_eq!(Request::decode_tagged(&req.encode()).unwrap().1, None);
        assert_eq!(decode(&line).unwrap(), req);
    }

    #[test]
    fn hostile_req_ids_are_protocol_errors() {
        for bad in [
            format!(r#"{{"v":1,"type":"ping","req_id":"{}"}}"#, "x".repeat(200)),
            r#"{"v":1,"type":"ping","req_id":""}"#.to_owned(),
            r#"{"v":1,"type":"ping","req_id":7}"#.to_owned(),
        ] {
            let err = Request::decode_tagged(&bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Protocol, "{bad}");
        }
    }

    #[test]
    fn mutation_classification_matches_the_journal_set() {
        assert!(
            Request::Open { session: "s".into(), params: OpenParams::default() }.is_mutation()
        );
        assert!(Request::Repartition { session: "s".into(), node: 0, to: 0 }.is_mutation());
        assert!(Request::Optimize { session: "s".into(), params: OptimizeParams::default() }
            .is_mutation());
        assert!(Request::ApplyMoves { session: "s".into(), moves: vec![(0, 1)] }.is_mutation());
        assert!(Request::SetConstraints {
            session: "s".into(),
            performance_ns: 1.0,
            delay_ns: 1.0
        }
        .is_mutation());
        assert!(Request::Close { session: "s".into() }.is_mutation());
        // An import replays mutations, so the carrier is one too (and a
        // standby must refuse it).
        assert!(Request::Import { records: vec![] }.is_mutation());
        for read_only in [
            Request::Ping,
            Request::Explore { session: "s".into(), params: ExploreParams::default() },
            Request::Stats { session: None },
            Request::Shutdown,
            // Replication traffic carries mutations *inside* records, but
            // the carrier itself is seq-idempotent, never journaled as-is.
            Request::ReplApply { seq: 1, record: String::new(), epoch: 0, primary: None },
            Request::ReplSnapshot { seq: 1, records: vec![], epoch: 0, primary: None },
            Request::Promote,
            // Role changes are journal-internal, not client mutations.
            Request::RoleChange { epoch: 1, role: Role::Primary },
            Request::AddPair { pair: "x:1".into() },
            Request::RemovePair { pair: "x:1".into() },
            Request::RouterStatus,
            Request::Export { session: "s".into() },
        ] {
            assert!(!read_only.is_mutation(), "{read_only:?}");
        }
    }

    #[test]
    fn session_routing_key_covers_every_variant() {
        assert_eq!(
            Request::Open { session: "s".into(), params: OpenParams::default() }.session(),
            Some("s")
        );
        assert_eq!(
            Request::Explore { session: "s".into(), params: ExploreParams::default() }
                .session(),
            Some("s")
        );
        assert_eq!(
            Request::Repartition { session: "s".into(), node: 0, to: 0 }.session(),
            Some("s")
        );
        assert_eq!(Request::Close { session: "s".into() }.session(), Some("s"));
        assert_eq!(
            Request::Optimize { session: "s".into(), params: OptimizeParams::default() }
                .session(),
            Some("s")
        );
        assert_eq!(
            Request::ApplyMoves { session: "s".into(), moves: vec![] }.session(),
            Some("s")
        );
        assert_eq!(Request::Stats { session: Some("s".into()) }.session(), Some("s"));
        assert_eq!(Request::Stats { session: None }.session(), None);
        assert_eq!(Request::Ping.session(), None);
        assert_eq!(Request::Shutdown.session(), None);
        assert_eq!(Request::Promote.session(), None);
        // An export routes to the backend that owns the session.
        assert_eq!(Request::Export { session: "s".into() }.session(), Some("s"));
        assert_eq!(Request::Import { records: vec![] }.session(), None);
        assert_eq!(Request::RouterStatus.session(), None);
    }

    #[test]
    fn legacy_flat_budget_fields_decode_as_alias() {
        // Pre-envelope clients spelled the budget as top-level fields;
        // they must keep decoding to the same params as the nested form.
        let flat = r#"{"v":1,"type":"explore","session":"s","deadline_ms":250,"max_trials":9}"#;
        let nested = r#"{"v":1,"type":"explore","session":"s","budget":{"deadline_ms":250,"max_trials":9}}"#;
        assert_eq!(decode(flat).unwrap(), decode(nested).unwrap());
        let Request::Explore { params, .. } = decode(flat).unwrap() else { panic!() };
        assert_eq!(
            params.budget,
            BudgetEnvelope { deadline_ms: Some(250), max_trials: Some(9) }
        );
        // The alias works for optimize too, and a present-but-non-object
        // budget is a typed protocol error.
        let flat_opt = r#"{"v":1,"type":"optimize","session":"s","max_trials":5}"#;
        let Request::Optimize { params, .. } = decode(flat_opt).unwrap() else { panic!() };
        assert_eq!(params.budget.max_trials, Some(5));
        let err = decode(r#"{"v":1,"type":"explore","session":"s","budget":7}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Protocol);
    }

    #[test]
    fn optimize_fields_default_when_omitted() {
        let req = decode(r#"{"v":1,"type":"optimize","session":"s"}"#).unwrap();
        let Request::Optimize { params, .. } = req else { panic!() };
        assert_eq!(params, OptimizeParams::default());
        for bad in [
            r#"{"v":1,"type":"optimize","session":"s","pinned":[-1]}"#,
            r#"{"v":1,"type":"optimize","session":"s","groups":[7]}"#,
            r#"{"v":1,"type":"optimize","session":"s","exclusions":[[1]]}"#,
            r#"{"v":1,"type":"apply_moves","session":"s","moves":[[1,2,3]]}"#,
            r#"{"v":1,"type":"apply_moves","session":"s"}"#,
        ] {
            let err = decode(bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Protocol, "{bad}");
        }
    }

    #[test]
    fn open_fields_default_when_omitted() {
        let req =
            decode(r#"{"v":1,"type":"open","session":"s","spec":"x = input 8"}"#).unwrap();
        let Request::Open { params, .. } = req else { panic!() };
        assert_eq!(params.partitions, 1);
        assert_eq!(params.package_pins, 84);
        assert!(params.multi_cycle);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let err = decode(r#"{"v":2,"type":"ping"}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Protocol);
        assert!(err.to_string().contains("version"));
        assert!(decode(r#"{"type":"ping"}"#).is_err());
    }

    #[test]
    fn unknown_type_and_bad_fields_are_protocol_errors() {
        for bad in [
            "not json",
            r#"{"v":1,"type":"frobnicate"}"#,
            r#"{"v":1,"type":"open","session":7,"spec":""}"#,
            r#"{"v":1,"type":"explore","session":"s","heuristic":"Q"}"#,
            r#"{"v":1,"type":"repartition","session":"s","node":-1,"to":0}"#,
        ] {
            let err = decode(bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Protocol, "{bad}");
        }
        // Shard occupancies are integers like every other u64 field: a
        // negative or fractional entry is rejected, not truncated.
        for entry in ["-1", "1.5"] {
            let bad = format!(
                r#"{{"v":1,"type":"stats","sessions":[],"cache":{{"hits":0,"misses":0,"evictions":0,"entries":0,"bytes":0}},"shard_entries":[{entry}],"last_run":null}}"#
            );
            let err = Response::decode(&bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Protocol, "{bad}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let run = RunSummary {
            heuristic: Heuristic::Iterative,
            digest: "h=I;trials=9".into(),
            trials: 9,
            feasible_trials: 4,
            feasible: 2,
            completion: Completion::Complete,
            degraded: false,
            elapsed_ms: 1.25,
            predictor_calls: 2,
            cache_hits: 1,
            cache_misses: 2,
            subtrees_skipped: 3,
            combinations_skipped: 120,
        };
        let resps = [
            Response::Pong { version: PROTOCOL_VERSION, role: None, epoch: 0, peer: None },
            Response::Pong {
                version: PROTOCOL_VERSION,
                role: Some(Role::Standby),
                epoch: 5,
                peer: Some("10.0.0.2:1991".into()),
            },
            Response::Opened { session: "a".into(), partitions: 2 },
            Response::Explored { session: "a".into(), run: run.clone() },
            Response::Repartitioned { session: "a".into(), node: 3, to: 1 },
            Response::Optimized {
                session: "a".into(),
                result: Box::new(OptimizeSummary {
                    digest: "opt;completion=Complete;".into(),
                    feasible: true,
                    initial_score: 1e18,
                    final_score: 61_252.5,
                    evaluations: 17,
                    passes: 3,
                    kicks: 1,
                    completion: Completion::Complete,
                    moves: vec![
                        MoveSummary {
                            nodes: vec![4],
                            from: 0,
                            to: 2,
                            pass: 1,
                            kind: MoveKind::Gain,
                        },
                        MoveSummary {
                            nodes: vec![1, 2],
                            from: 2,
                            to: 1,
                            pass: 2,
                            kind: MoveKind::Kick,
                        },
                    ],
                    run: run.clone(),
                }),
            },
            Response::MovesApplied { session: "a".into(), moves: 2 },
            Response::ConstraintsSet {
                session: "a".into(),
                performance_ns: 12_500.0,
                delay_ns: 8_000.25,
            },
            Response::Stats {
                sessions: vec!["a".into(), "b".into()],
                cache: CacheStats { hits: 5, misses: 3, evictions: 0, entries: 3, bytes: 640 },
                shard_entries: vec![2, 0, 1, 0],
                last_run: Some(run),
            },
            Response::Stats {
                sessions: vec![],
                cache: CacheStats::default(),
                shard_entries: vec![],
                last_run: None,
            },
            Response::Closed { session: "a".into() },
            Response::ShuttingDown,
            Response::ReplAck { seq: 99 },
            Response::Promoted { sessions: 3, epoch: 7 },
            Response::Busy { inflight: 8, max_inflight: 8, retry_after_ms: 75 },
            Response::PairAdded { pairs: vec!["a:1 active".into(), "b:2 active".into()] },
            Response::PairRemoved { pairs: vec!["a:1 active".into()] },
            Response::RouterStatus { pairs: vec!["a:1 active, standby b:2 (armed)".into()] },
            Response::Exported {
                session: "a".into(),
                records: vec![r#"{"v":1,"type":"open","session":"a","spec":""}"#.into()],
            },
            Response::Imported { session: "a".into(), records: 4 },
            Response::Error(ServiceError::new(ErrorKind::UnknownSession, "no session \"z\"")),
            Response::Error(
                ServiceError::new(ErrorKind::Standby, "standby refuses mutations")
                    .with_redirect(Some("10.0.0.1:1991".into()), 2),
            ),
            Response::Error(
                ServiceError::new(ErrorKind::Fenced, "stale epoch").with_redirect(None, 9),
            ),
        ];
        for resp in resps {
            let line = resp.encode();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Response::decode(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn busy_without_a_hint_defaults_to_zero_backoff() {
        let decoded =
            Response::decode(r#"{"v":1,"type":"busy","inflight":3,"max_inflight":2}"#).unwrap();
        assert_eq!(decoded, Response::Busy { inflight: 3, max_inflight: 2, retry_after_ms: 0 });
    }

    #[test]
    fn pre_epoch_replies_decode_with_defaults() {
        // A pre-epoch pong has no role/epoch/peer; a pre-epoch promoted
        // reply has no epoch; a pre-epoch repl_apply has neither field.
        assert_eq!(
            Response::decode(r#"{"v":1,"type":"pong","version":1}"#).unwrap(),
            Response::Pong { version: 1, role: None, epoch: 0, peer: None }
        );
        assert_eq!(
            Response::decode(r#"{"v":1,"type":"promoted","sessions":2}"#).unwrap(),
            Response::Promoted { sessions: 2, epoch: 0 }
        );
        assert_eq!(
            decode(r#"{"v":1,"type":"repl_apply","seq":4,"record":"r"}"#).unwrap(),
            Request::ReplApply { seq: 4, record: "r".into(), epoch: 0, primary: None }
        );
        // Pre-epoch errors have no redirect hint.
        let decoded =
            Response::decode(r#"{"v":1,"type":"error","kind":"standby","message":"m"}"#)
                .unwrap();
        let Response::Error(e) = decoded else { panic!() };
        assert_eq!((e.primary, e.epoch), (None, None));
    }

    #[test]
    fn service_error_implements_error_trait() {
        let e = ServiceError::new(ErrorKind::Spec, "bad spec");
        let dynamic: &dyn std::error::Error = &e;
        assert!(dynamic.to_string().contains("spec error: bad spec"));
    }
}
