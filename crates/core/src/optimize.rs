//! Move-based auto-partitioning: the outer search that *proposes*
//! partitionings, closing the paper's interactive loop.
//!
//! [`Session::optimize`] runs FM/KL-style gain-directed passes over
//! node-move candidates: each pass ranks every legal move of every
//! movable unit (a free node, or a whole constraint group moved
//! atomically) by a cheap proxy gain — the inter-partition cut-bit
//! reduction — with deterministic tie-breaking, then evaluates the best
//! candidate through the ordinary cache-backed engine. Because a move
//! changes exactly two partitions, a warm evaluation re-predicts only
//! those two and serves the rest from the shared
//! [`PredictionCache`](crate::cache::PredictionCache). The moved
//! partitioning keeps the other partitions' memoised structural hashes
//! (see [`Partitioning::with_nodes_moved`]), so an evaluation extracts
//! and hashes only the two moved partitions' DFGs (and re-extracts any
//! partition whose entry was evicted, to predict it).
//!
//! The bookkeeping between evaluations follows FM: per unit and
//! partition the search keeps the cut bits on the unit's incident edges,
//! so a gain is a difference of two table entries and an accepted move
//! updates only its neighbours' rows. Legality (the source partition
//! keeps a node, no mutual dependency appears) is decided on the moved
//! grouping before any session is derived.
//!
//! A step costs only what changed since the last accepted move. The
//! ranked candidate list depends only on the current state, so it is
//! built once per state — at the start and on every accepted move — and
//! kicks draw from the same list. A gain pass walks it with a cursor:
//! while the state is unchanged, every entry before the cursor is locked
//! or still fails the legality check, so the next candidate is found by
//! resuming after the last evaluated one rather than re-checking the
//! list from the top. The cursor rewinds to the top when a move is
//! accepted and when a new pass unlocks every unit.
//!
//! When a pass accepts nothing (a plateau), an optional simulated-
//! annealing *kick* — seeded exclusively from the caller-supplied seed —
//! applies a few Metropolis-accepted random moves to escape, then
//! gain-directed passes resume. The search stops when kicks are
//! exhausted, the move budget is spent, or the deadline trips; the
//! result always carries the best state seen (kicked-to-worse tails are
//! rolled back).
//!
//! # Determinism
//!
//! The entire search is deterministic in `(session, spec)`: candidate
//! ordering is fully tie-broken, the only randomness is the spec's seed,
//! no wall clock feeds any decision except the optional deadline, and
//! the inner engine's results are byte-identical at any
//! [`Session::jobs`] setting. [`OptimizeResult::digest`] therefore
//! matches across thread counts; the determinism tests assert it for
//! jobs 1/2/8.

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

use chop_dfg::{Dfg, NodeId, Operation};

use crate::budget::{BudgetTimer, Completion, SearchBudget};
use crate::engine;
use crate::error::ChopError;
use crate::explorer::{Heuristic, SearchOutcome, Session};
use crate::spec::{PartitionId, Partitioning};

/// Score penalty base separating every infeasible state from every
/// feasible one: a feasible implementation always wins.
const INFEASIBLE_BASE: f64 = 1e18;
/// Penalty per partition whose predictions were all pruned infeasible —
/// the strongest gradient an infeasible start can descend.
const STARVED_PENALTY: f64 = 1e12;

/// Starting Metropolis temperature of the annealing kicks.
const INITIAL_TEMPERATURE: f64 = 1_000.0;
/// Geometric cooling factor applied after every kick move.
const COOLING: f64 = 0.9;

/// Builder-style configuration for [`Session::optimize`].
///
/// All `with_*` methods are infallible per the session
/// [builder contract](Session): constraints that must be checked against
/// the session's partitioning (unknown nodes, non-co-located groups) are
/// validated when [`Session::optimize`] consumes the spec, reported as
/// [`ChopError::InvalidOptimizeSpec`].
#[derive(Debug, Clone)]
pub struct OptimizeSpec {
    pub(crate) seed: u64,
    pub(crate) max_moves: u64,
    pub(crate) deadline: Option<Duration>,
    pub(crate) kicks: u32,
    pub(crate) kick_moves: u32,
    pub(crate) pinned: Vec<NodeId>,
    pub(crate) groups: Vec<Vec<NodeId>>,
    pub(crate) exclusions: Vec<(NodeId, NodeId)>,
    pub(crate) heuristic: Heuristic,
}

impl Default for OptimizeSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            max_moves: 256,
            deadline: None,
            kicks: 2,
            kick_moves: 3,
            pinned: Vec::new(),
            groups: Vec::new(),
            exclusions: Vec::new(),
            heuristic: Heuristic::Iterative,
        }
    }
}

impl OptimizeSpec {
    /// A spec with the default budget (256 evaluated moves, no deadline,
    /// two annealing kicks of three moves each, seed 0).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds the annealing kicks. Two runs with equal seeds (and equal
    /// sessions and specs) produce identical move traces and digests.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the number of candidate evaluations (each one inner
    /// cache-backed exploration). Exhausting it reports
    /// [`Completion::TruncatedTrials`].
    #[must_use]
    pub fn with_max_moves(mut self, max_moves: u64) -> Self {
        self.max_moves = max_moves;
        self
    }

    /// Sets a wall-clock deadline for the whole optimization; tripping it
    /// reports [`Completion::TruncatedDeadline`] with the best state
    /// found so far.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Number of simulated-annealing kicks to spend on plateaus (`0`
    /// disables annealing entirely) and the random moves attempted per
    /// kick.
    #[must_use]
    pub fn with_kicks(mut self, kicks: u32, kick_moves: u32) -> Self {
        self.kicks = kicks;
        self.kick_moves = kick_moves;
        self
    }

    /// The heuristic used for inner candidate evaluations (default
    /// [`Heuristic::Iterative`], the fast one).
    #[must_use]
    pub fn with_heuristic(mut self, heuristic: Heuristic) -> Self {
        self.heuristic = heuristic;
        self
    }

    /// Pins a node to its current partition: the move generator never
    /// proposes moving it (PARSAC-style pre-assigned placement).
    #[must_use]
    pub fn with_pinned_node(mut self, node: NodeId) -> Self {
        self.pinned.push(node);
        self
    }

    /// Declares a must-stay-together group: its members move atomically
    /// as one unit and are never separated. Members must be co-located
    /// in the session's partitioning when [`Session::optimize`] runs.
    #[must_use]
    pub fn with_group(mut self, nodes: Vec<NodeId>) -> Self {
        self.groups.push(nodes);
        self
    }

    /// Declares a must-not-share-a-partition pair: no generated move may
    /// result in `a` and `b` being co-located.
    #[must_use]
    pub fn with_exclusion(mut self, a: NodeId, b: NodeId) -> Self {
        self.exclusions.push((a, b));
        self
    }

    /// The seed in force.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The move-evaluation budget in force.
    #[must_use]
    pub fn max_moves(&self) -> u64 {
        self.max_moves
    }

    /// The plateau-kick budget in force.
    #[must_use]
    pub fn kicks(&self) -> u32 {
        self.kicks
    }

    /// Annealed moves attempted per kick.
    #[must_use]
    pub fn kick_moves(&self) -> u32 {
        self.kick_moves
    }
}

/// Why a move was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Accepted by a gain-directed pass (strict improvement).
    Gain,
    /// Accepted by a simulated-annealing kick (Metropolis rule; may be a
    /// deliberate worsening).
    Kick,
}

impl fmt::Display for MoveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoveKind::Gain => write!(f, "gain"),
            MoveKind::Kick => write!(f, "kick"),
        }
    }
}

/// One accepted move of the optimization trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedMove {
    /// The nodes moved (one node, or a whole constraint group).
    pub nodes: Vec<NodeId>,
    /// The partition they left.
    pub from: PartitionId,
    /// The partition they joined.
    pub to: PartitionId,
    /// The 1-based gain pass (or the kick) the move belongs to.
    pub pass: u32,
    /// Whether a gain pass or an annealing kick accepted it.
    pub kind: MoveKind,
}

/// The outcome of one [`Session::optimize`] run: the accepted move
/// trace, the final partitioning and its full exploration outcome, and
/// the run's accounting.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// Accepted moves in application order. Replaying them over the
    /// starting partitioning with
    /// [`Partitioning::with_nodes_moved`] reproduces
    /// [`OptimizeResult::partitioning`].
    pub moves: Vec<AppliedMove>,
    /// Objective score of the starting partitioning.
    pub initial_score: f64,
    /// Objective score of the final partitioning.
    pub final_score: f64,
    /// The final partitioning's exploration outcome.
    pub outcome: SearchOutcome,
    /// The final partitioning itself.
    pub partitioning: Partitioning,
    /// Candidate evaluations spent (the unit the move budget caps).
    pub evaluations: u64,
    /// Gain-directed passes run.
    pub passes: u32,
    /// Annealing kicks spent.
    pub kicks_used: u32,
    /// How the run ended: plateau convergence ([`Completion::Complete`])
    /// or a tripped budget.
    pub completion: Completion,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl OptimizeResult {
    /// Whether the final partitioning has at least one feasible
    /// implementation.
    #[must_use]
    pub fn feasible(&self) -> bool {
        !self.outcome.feasible.is_empty()
    }

    /// The move trace flattened to `(node index, target partition)`
    /// pairs — the wire/journal form replayed with
    /// [`Partitioning::with_nodes_moved`].
    #[must_use]
    pub fn moves_as_indices(&self) -> Vec<(u32, u32)> {
        self.moves
            .iter()
            .flat_map(|m| {
                let to = m.to.index() as u32;
                m.nodes.iter().map(move |n| (n.index() as u32, to))
            })
            .collect()
    }

    /// A canonical fingerprint of the run's *results*: the full move
    /// trace, scores, pass/kick counts, completion, and the final
    /// outcome's [`SearchOutcome::digest`]. Wall-clock measurements
    /// (`elapsed`) and the raw evaluation count are excluded — like the
    /// search digest, two runs with equal digests applied exactly the
    /// same moves and found exactly the same designs, at any `--jobs`.
    #[must_use]
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "opt;completion={:?};passes={};kicks={};init={:016x};final={:016x};",
            self.completion,
            self.passes,
            self.kicks_used,
            self.initial_score.to_bits(),
            self.final_score.to_bits(),
        );
        for m in &self.moves {
            let _ = write!(out, "m:{}/{}/{}>{}:", m.pass, m.kind, m.from, m.to);
            for n in &m.nodes {
                let _ = write!(out, "{},", n.index());
            }
            let _ = write!(out, ";");
        }
        out.push_str("outcome:");
        out.push_str(&self.outcome.digest());
        out
    }
}

impl fmt::Display for OptimizeResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} moves in {} passes ({} kicks), {} evaluations, score {:.1} -> {:.1}, {} in {:.2?}",
            self.moves.len(),
            self.passes,
            self.kicks_used,
            self.evaluations,
            self.initial_score,
            self.final_score,
            if self.feasible() { "feasible" } else { "infeasible" },
            self.elapsed
        )?;
        if self.completion != Completion::Complete {
            write!(f, " [{}]", self.completion)?;
        }
        Ok(())
    }
}

/// xorshift64* seeded through a splitmix64 mix — tiny, deterministic,
/// and entirely derived from the caller's seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self((z ^ (z >> 31)) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One movable unit: a free node, or a whole must-stay-together group.
struct MoveUnit {
    /// Sorted member nodes.
    nodes: Vec<NodeId>,
}

impl MoveUnit {
    /// Deterministic ordering key: the smallest member index.
    fn key(&self) -> usize {
        self.nodes[0].index()
    }

    fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }
}

/// A move candidate: `unit` to partition `to`.
#[derive(Clone, Copy)]
struct Candidate {
    unit: usize,
    from: PartitionId,
    to: PartitionId,
}

/// Calls `f(other, bits)` for every edge between `unit` and a node
/// outside it, skipping constant-fed edges exactly as
/// [`Partitioning::inter_partition_cuts`] skips them.
fn for_each_cut_edge(dfg: &Dfg, unit: &MoveUnit, mut f: impl FnMut(NodeId, i64)) {
    for &node in &unit.nodes {
        for &e in dfg.preds(node) {
            let e = dfg.edge(e);
            if !unit.contains(e.src()) && dfg.node(e.src()).op() != Operation::Const {
                f(e.src(), e.width().value() as i64);
            }
        }
        if dfg.node(node).op() == Operation::Const {
            continue;
        }
        for &e in dfg.succs(node) {
            let e = dfg.edge(e);
            if !unit.contains(e.dst()) {
                f(e.dst(), e.width().value() as i64);
            }
        }
    }
}

/// Per unit and partition, the cut bits between the unit and that
/// partition's nodes outside it. Moving unit `u` from `home` to `to`
/// uncuts its edges into `to` and cuts those into `home`, so its gain is
/// `bits[u][to] − bits[u][home]`.
struct CutWeights {
    partitions: usize,
    /// The unit each node belongs to (`None` for pinned nodes).
    unit_of: Vec<Option<usize>>,
    /// Row-major `units × partitions` table.
    bits: Vec<i64>,
}

impl CutWeights {
    fn new(p: &Partitioning, units: &[MoveUnit]) -> Self {
        let partitions = p.partition_count();
        let mut unit_of = vec![None; p.dfg().len()];
        for (u, unit) in units.iter().enumerate() {
            for n in &unit.nodes {
                unit_of[n.index()] = Some(u);
            }
        }
        let mut bits = vec![0; units.len() * partitions];
        for (u, unit) in units.iter().enumerate() {
            for_each_cut_edge(p.dfg(), unit, |other, w| {
                bits[u * partitions + p.grouping().group_of(other)] += w;
            });
        }
        Self { partitions, unit_of, bits }
    }

    fn gain(&self, unit: usize, home: usize, to: usize) -> i64 {
        let row = unit * self.partitions;
        self.bits[row + to] - self.bits[row + home]
    }

    /// Records `unit` moving from `from` to `to`: its neighbours' rows
    /// shift the shared edges' bits between the two partitions.
    fn record_move(&mut self, dfg: &Dfg, unit: &MoveUnit, from: usize, to: usize) {
        for_each_cut_edge(dfg, unit, |other, w| {
            if let Some(v) = self.unit_of[other.index()] {
                self.bits[v * self.partitions + from] -= w;
                self.bits[v * self.partitions + to] += w;
            }
        });
    }
}

/// An evaluated candidate state.
struct Evaluated {
    session: Session,
    outcome: SearchOutcome,
    score: f64,
}

/// The running search state shared by passes and kicks.
struct Search<'a> {
    spec: &'a OptimizeSpec,
    units: Vec<MoveUnit>,
    cut: CutWeights,
    timer: BudgetTimer,
    evaluations: u64,
    current: Session,
    outcome: SearchOutcome,
    score: f64,
    /// The current state's ranked candidates ([`Search::rank`]), rebuilt
    /// only when the state changes ([`Search::accept`]).
    ranked: Vec<Candidate>,
}

impl Search<'_> {
    fn home(&self, unit: usize) -> usize {
        self.current.partitioning().grouping().group_of(self.units[unit].nodes[0])
    }

    /// Whether moving `unit` to `to` keeps every exclusion pair
    /// separated. Pre-existing violations not touched by the move do not
    /// block it (the optimizer may still be fixing them).
    fn respects_exclusions(&self, unit: usize, to: usize) -> bool {
        let unit = &self.units[unit];
        let grouping = self.current.partitioning().grouping();
        let pos = |n: NodeId| if unit.contains(n) { to } else { grouping.group_of(n) };
        self.spec.exclusions.iter().all(|&(a, b)| {
            let touched = unit.contains(a) || unit.contains(b);
            !touched || pos(a) != pos(b)
        })
    }

    /// Every candidate of every unit, ordered by `(gain desc, unit key
    /// asc, target asc)` — units are sorted by key, so unit index order
    /// is key order. Targets that break an exclusion are left out.
    ///
    /// The list depends only on the current state, so it is built once
    /// per state: at the start and in [`Search::accept`]. Passes walk it
    /// with a cursor and kicks draw from it.
    fn rank(&self) -> Vec<Candidate> {
        let mut ranked: Vec<(Reverse<i64>, usize, usize)> = (0..self.units.len())
            .flat_map(|unit| {
                let home = self.home(unit);
                (0..self.cut.partitions)
                    .filter(move |&to| to != home)
                    .map(move |to| (Reverse(self.cut.gain(unit, home, to)), unit, to))
            })
            .collect();
        ranked.sort_unstable();
        ranked
            .into_iter()
            .filter(|&(_, unit, to)| self.respects_exclusions(unit, to))
            .map(|(_, unit, to)| Candidate {
                unit,
                from: PartitionId::new(self.home(unit) as u32),
                to: PartitionId::new(to as u32),
            })
            .collect()
    }

    /// Applies a candidate structurally, returning the derived session
    /// (`None` if it would empty the source partition or create mutual
    /// data dependency — such candidates are skipped without consuming
    /// the move budget). The verdict depends only on the current state,
    /// so a candidate that fails stays failed until a move is accepted.
    fn apply(&self, c: &Candidate) -> Option<Session> {
        let moves: Vec<(NodeId, PartitionId)> =
            self.units[c.unit].nodes.iter().map(|&n| (n, c.to)).collect();
        self.current.apply_moves(&moves).ok()
    }

    /// The first candidate at or after `cursor` whose unit is not
    /// `locked` and which applies, with its list index.
    fn first_legal(&self, cursor: usize, locked: &[bool]) -> Option<(usize, Session)> {
        (cursor..self.ranked.len())
            .filter(|&at| !locked[self.ranked[at].unit])
            .find_map(|at| self.apply(&self.ranked[at]).map(|s| (at, s)))
    }

    /// Makes an evaluated candidate the current state and re-ranks.
    fn accept(&mut self, c: &Candidate, next: Evaluated) {
        let unit = &self.units[c.unit];
        let (from, to) = (c.from.index(), c.to.index());
        self.cut.record_move(next.session.partitioning().dfg(), unit, from, to);
        self.current = next.session;
        self.outcome = next.outcome;
        self.score = next.score;
        self.ranked = self.rank();
    }

    /// Evaluates a candidate's session through the inner engine and
    /// scores it.
    fn evaluate(&mut self, session: Session) -> Result<Evaluated, ChopError> {
        let outcome = engine::explore(&session, self.spec.heuristic)?;
        self.evaluations += 1;
        let score = score_state(session.partitioning(), &outcome);
        Ok(Evaluated { session, outcome, score })
    }

    /// The budget check between candidate evaluations.
    fn tripped(&self) -> Option<Completion> {
        if self.timer.deadline_exceeded() {
            return Some(Completion::TruncatedDeadline);
        }
        if self.evaluations >= self.spec.max_moves {
            return Some(Completion::TruncatedTrials);
        }
        None
    }
}

/// The deterministic objective, minimized. A feasible state scores its
/// best implementation's likely initiation interval plus likely system
/// delay (ns). An infeasible state scores a large constant plus
/// starved-partition pressure plus the total inter-partition cut bits —
/// the classic FM objective — so descent has a gradient toward
/// feasibility long before any implementation exists.
fn score_state(p: &Partitioning, o: &SearchOutcome) -> f64 {
    let best = o
        .feasible
        .iter()
        .map(|f| f.system.initiation_ns.likely() + f.system.delay_ns.likely())
        .min_by(f64::total_cmp);
    if let Some(s) = best {
        return s;
    }
    let cut_bits: u64 = p.inter_partition_cuts().iter().map(|c| c.bits.value()).sum();
    let starved = o.prediction_stats.iter().filter(|s| s.feasible == 0).count();
    INFEASIBLE_BASE + STARVED_PENALTY * starved as f64 + cut_bits as f64
        - o.feasible_predictions() as f64
}

/// Validates the spec against a partitioning and builds the movable
/// units (free nodes and atomic groups, pinned nodes excluded).
fn build_units(spec: &OptimizeSpec, p: &Partitioning) -> Result<Vec<MoveUnit>, ChopError> {
    let bad = |m: String| ChopError::InvalidOptimizeSpec(m);
    let n = p.dfg().len();
    let check = |node: NodeId| -> Result<(), ChopError> {
        if node.index() >= n {
            return Err(bad(format!("node n{} is not in this specification", node.index())));
        }
        Ok(())
    };
    let mut pinned: Vec<NodeId> = spec.pinned.clone();
    pinned.sort_unstable();
    pinned.dedup();
    for &node in &pinned {
        check(node)?;
    }
    let mut grouped: BTreeSet<NodeId> = BTreeSet::new();
    let mut units: Vec<MoveUnit> = Vec::new();
    for group in &spec.groups {
        if group.is_empty() {
            return Err(bad("a constraint group is empty".into()));
        }
        let mut nodes = group.clone();
        nodes.sort_unstable();
        nodes.dedup();
        let home = {
            check(nodes[0])?;
            p.grouping().group_of(nodes[0])
        };
        for &node in &nodes {
            check(node)?;
            if pinned.binary_search(&node).is_ok() {
                return Err(bad(format!(
                    "node n{} is both pinned and in a group",
                    node.index()
                )));
            }
            if !grouped.insert(node) {
                return Err(bad(format!(
                    "node n{} appears in more than one group",
                    node.index()
                )));
            }
            if p.grouping().group_of(node) != home {
                return Err(bad(format!(
                    "group members n{} and n{} are not co-located in the partitioning",
                    nodes[0].index(),
                    node.index()
                )));
            }
        }
        units.push(MoveUnit { nodes });
    }
    for &(a, b) in &spec.exclusions {
        check(a)?;
        check(b)?;
        if a == b {
            return Err(bad(format!("node n{} is excluded from itself", a.index())));
        }
        if let Some(unit) = units.iter().find(|u| u.contains(a) && u.contains(b)) {
            return Err(bad(format!(
                "exclusion pair n{}/n{} lies inside one group (n{}…) and can never be \
                 separated",
                a.index(),
                b.index(),
                unit.nodes[0].index()
            )));
        }
    }
    // Every remaining node is its own unit unless pinned.
    for (id, _) in p.dfg().nodes() {
        if pinned.binary_search(&id).is_ok() || grouped.contains(&id) {
            continue;
        }
        units.push(MoveUnit { nodes: vec![id] });
    }
    units.sort_unstable_by_key(MoveUnit::key);
    Ok(units)
}

impl Session {
    /// What-if: applies a whole move trace atomically (the journal-replay
    /// and replication form of an accepted [`OptimizeResult`]), returning
    /// the re-keyed session. Like [`Session::repartition`], the derived
    /// session shares this session's prediction cache.
    ///
    /// # Errors
    ///
    /// Returns a [`chop_dfg::grouping::GroupingError`] if the final
    /// grouping is invalid; see [`Partitioning::with_nodes_moved`].
    pub fn apply_moves(
        &self,
        moves: &[(NodeId, PartitionId)],
    ) -> Result<Self, chop_dfg::grouping::GroupingError> {
        let partitioning = self.partitioning.with_nodes_moved(moves)?;
        let mut next = self.clone();
        next.partitioning = partitioning;
        Ok(next)
    }

    /// Runs the move-based auto-partitioning optimizer over this
    /// session: gain-directed passes evaluated through the cache-backed
    /// engine, annealing kicks on plateaus, pins/groups/exclusions
    /// honored by the move generator, all under the spec's move budget
    /// and deadline. See the [module docs](crate::optimize) for the
    /// algorithm and determinism rules.
    ///
    /// A tripped budget is a *normal outcome* tagged in
    /// [`OptimizeResult::completion`]; the result always carries the
    /// best state seen.
    ///
    /// # Errors
    ///
    /// [`ChopError::InvalidOptimizeSpec`] if the spec names unknown
    /// nodes, overlapping or non-co-located groups, or inseparable
    /// exclusions; any engine error an inner exploration reports.
    pub fn optimize(&self, spec: &OptimizeSpec) -> Result<OptimizeResult, ChopError> {
        let units = build_units(spec, self.partitioning())?;
        let mut budget = SearchBudget::unlimited();
        if let Some(d) = spec.deadline {
            budget = budget.with_deadline(d);
        }
        let timer = BudgetTimer::start(budget);
        let outcome = engine::explore(self, spec.heuristic)?;
        let score = score_state(self.partitioning(), &outcome);
        let mut search = Search {
            spec,
            cut: CutWeights::new(self.partitioning(), &units),
            units,
            timer,
            evaluations: 0,
            current: self.clone(),
            outcome,
            score,
            ranked: Vec::new(),
        };
        search.ranked = search.rank();
        let initial_score = search.score;
        let initial_outcome = search.outcome.clone();
        let mut rng = Rng::new(spec.seed);
        let mut temp = INITIAL_TEMPERATURE;
        let mut moves: Vec<AppliedMove> = Vec::new();
        let mut best: Option<(Session, SearchOutcome, f64, usize)> = None;
        let mut passes = 0u32;
        let mut kicks_used = 0u32;
        let mut completion = Completion::Complete;

        'outer: loop {
            // One gain-directed pass: repeatedly evaluate the best-ranked
            // candidate among unlocked units, locking each unit after its
            // verdict, until the pass runs dry. The cursor resumes past a
            // rejected candidate and rewinds on an accepted move (see the
            // module docs for why that is exact).
            passes += 1;
            let mut locked = vec![false; search.units.len()];
            let mut cursor = 0;
            let mut improved = false;
            loop {
                if let Some(c) = search.tripped() {
                    completion = c;
                    break 'outer;
                }
                let Some((at, session)) = search.first_legal(cursor, &locked) else {
                    break;
                };
                let cand = search.ranked[at];
                // Lock the unit: its verdict is final for this pass.
                locked[cand.unit] = true;
                cursor = at + 1;
                let next = search.evaluate(session)?;
                let score = next.score;
                if score.total_cmp(&search.score) == std::cmp::Ordering::Less {
                    search.accept(&cand, next);
                    cursor = 0;
                    moves.push(AppliedMove {
                        nodes: search.units[cand.unit].nodes.clone(),
                        from: cand.from,
                        to: cand.to,
                        pass: passes,
                        kind: MoveKind::Gain,
                    });
                    improved = true;
                    let best_score = best.as_ref().map_or(initial_score, |b| b.2);
                    if score.total_cmp(&best_score) == std::cmp::Ordering::Less {
                        best = Some((
                            search.current.clone(),
                            search.outcome.clone(),
                            score,
                            moves.len(),
                        ));
                    }
                }
            }
            if improved {
                continue;
            }
            // Plateau: spend a kick, or stop.
            if kicks_used >= spec.kicks {
                break;
            }
            kicks_used += 1;
            for _ in 0..spec.kick_moves {
                if let Some(c) = search.tripped() {
                    completion = c;
                    break 'outer;
                }
                let n = search.ranked.len();
                if n == 0 {
                    break;
                }
                let start = rng.below(n);
                let picked = (0..n).find_map(|i| {
                    let c = search.ranked[(start + i) % n];
                    search.apply(&c).map(|s| (c, s))
                });
                let Some((cand, session)) = picked else { break };
                let next = search.evaluate(session)?;
                let score = next.score;
                let delta = score - search.score;
                let accept =
                    delta < 0.0 || (temp > 0.0 && rng.next_f64() < (-delta / temp).exp());
                temp *= COOLING;
                if accept {
                    moves.push(AppliedMove {
                        nodes: search.units[cand.unit].nodes.clone(),
                        from: cand.from,
                        to: cand.to,
                        pass: passes,
                        kind: MoveKind::Kick,
                    });
                    search.accept(&cand, next);
                    let best_score = best.as_ref().map_or(initial_score, |b| b.2);
                    if score.total_cmp(&best_score) == std::cmp::Ordering::Less {
                        best = Some((
                            search.current.clone(),
                            search.outcome.clone(),
                            score,
                            moves.len(),
                        ));
                    }
                }
            }
        }

        // A kick may have left the current state worse than the best one
        // seen: hand back the best, truncating the kicked tail.
        if let Some((session, outcome, score, len)) = best {
            if score.total_cmp(&search.score) == std::cmp::Ordering::Less {
                search.current = session;
                search.outcome = outcome;
                search.score = score;
                moves.truncate(len);
            }
        } else if !moves.is_empty() {
            // Kicks moved away from the start and nothing ever beat it:
            // return the start unchanged.
            search.current = self.clone();
            search.outcome = initial_outcome;
            search.score = initial_score;
            moves.clear();
        }

        Ok(OptimizeResult {
            moves,
            initial_score,
            final_score: search.score,
            partitioning: search.current.partitioning().clone(),
            outcome: search.outcome,
            evaluations: search.evaluations,
            passes,
            kicks_used,
            completion,
            elapsed: search.timer.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use chop_dfg::benchmarks;
    use chop_library::standard::{table1_library, table2_packages};
    use chop_library::ChipSet;
    use chop_stat::units::Nanos;

    use super::*;
    use crate::feasibility::Constraints;
    use crate::spec::PartitioningBuilder;
    use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};

    fn session(k: usize) -> Session {
        let p = PartitioningBuilder::new(
            benchmarks::ar_lattice_filter(),
            ChipSet::uniform(table2_packages()[1].clone(), k),
        )
        .split_horizontal(k)
        .build()
        .unwrap();
        Session::new(
            p,
            table1_library(),
            ClockConfig::new(Nanos::new(300.0), 10, 1).unwrap(),
            ArchitectureStyle::single_cycle(),
            PredictorParams::default(),
            Constraints::new(Nanos::new(30_000.0), Nanos::new(30_000.0)),
        )
    }

    #[test]
    fn optimize_on_a_feasible_start_returns_it_or_better() {
        let s = session(2);
        let spec = OptimizeSpec::new().with_max_moves(16).with_kicks(0, 0);
        let r = s.optimize(&spec).unwrap();
        assert!(r.feasible());
        assert!(r.final_score <= r.initial_score);
        assert!(r.evaluations <= 16);
    }

    #[test]
    fn optimize_is_deterministic_for_a_seed() {
        let s = session(3);
        let spec = OptimizeSpec::new().with_seed(7).with_max_moves(24);
        let a = s.optimize(&spec).unwrap();
        let b = s.optimize(&spec).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.moves, b.moves);
    }

    #[test]
    fn zero_move_budget_truncates_immediately() {
        let s = session(2);
        let r = s.optimize(&OptimizeSpec::new().with_max_moves(0)).unwrap();
        assert_eq!(r.completion, Completion::TruncatedTrials);
        assert_eq!(r.evaluations, 0);
        assert!(r.moves.is_empty());
    }

    #[test]
    fn pinned_nodes_never_move() {
        let s = session(3);
        let pinned: Vec<NodeId> = s.partitioning().grouping().members(0).clone();
        let mut spec = OptimizeSpec::new().with_max_moves(32);
        for &n in &pinned {
            spec = spec.with_pinned_node(n);
        }
        let r = s.optimize(&spec).unwrap();
        for m in &r.moves {
            for n in &m.nodes {
                assert!(!pinned.contains(n), "pinned node {n:?} moved");
            }
        }
    }

    #[test]
    fn groups_move_atomically_and_stay_together() {
        let s = session(3);
        let group = s.partitioning().grouping().members(1);
        let spec = OptimizeSpec::new().with_max_moves(32).with_group(group.clone());
        let r = s.optimize(&spec).unwrap();
        let g = r.partitioning.grouping();
        let home = g.group_of(group[0]);
        for &n in &group {
            assert_eq!(g.group_of(n), home, "group split apart");
        }
        for m in &r.moves {
            if m.nodes.len() > 1 {
                assert_eq!(m.nodes.len(), group.len());
            }
        }
    }

    #[test]
    fn invalid_specs_are_rejected_with_typed_errors() {
        let s = session(2);
        // Non-co-located group.
        let a = s.partitioning().grouping().members(0)[0];
        let b = s.partitioning().grouping().members(1)[0];
        let err = s.optimize(&OptimizeSpec::new().with_group(vec![a, b])).unwrap_err();
        assert!(matches!(err, ChopError::InvalidOptimizeSpec(_)), "{err}");
        // Self-exclusion.
        let err = s.optimize(&OptimizeSpec::new().with_exclusion(a, a)).unwrap_err();
        assert!(matches!(err, ChopError::InvalidOptimizeSpec(_)));
        // Pinned node inside a group.
        let g = s.partitioning().grouping().members(0);
        let err = s
            .optimize(&OptimizeSpec::new().with_pinned_node(g[0]).with_group(g.clone()))
            .unwrap_err();
        assert!(matches!(err, ChopError::InvalidOptimizeSpec(_)));
    }

    #[test]
    fn exclusions_are_respected_by_every_move() {
        let s = session(3);
        let a = s.partitioning().grouping().members(0)[0];
        let b = s.partitioning().grouping().members(1)[0];
        let spec = OptimizeSpec::new().with_max_moves(32).with_exclusion(a, b);
        let r = s.optimize(&spec).unwrap();
        let g = r.partitioning.grouping();
        assert_ne!(g.group_of(a), g.group_of(b), "excluded pair ended co-located");
    }

    #[test]
    fn single_partition_has_no_moves() {
        let r = session(1).optimize(&OptimizeSpec::new()).unwrap();
        assert!(r.moves.is_empty());
        assert_eq!(r.completion, Completion::Complete);
    }

    #[test]
    fn replaying_the_move_trace_reproduces_the_final_partitioning() {
        let s = session(3);
        let r = s.optimize(&OptimizeSpec::new().with_seed(3).with_max_moves(24)).unwrap();
        let ids: Vec<(NodeId, PartitionId)> =
            r.moves.iter().flat_map(|m| m.nodes.iter().map(move |&n| (n, m.to))).collect();
        let replayed = s.apply_moves(&ids).unwrap();
        assert_eq!(replayed.partitioning().grouping(), r.partitioning.grouping());
    }

    /// Every candidate's gain is the drop in total inter-partition cut
    /// bits its move causes — on the starting grouping and after each of
    /// a series of recorded moves, so the incremental row updates are
    /// checked too. The AR lattice's constants exercise the constant-fed
    /// exclusion, and a two-node group a multi-node unit.
    #[test]
    fn cut_weight_gains_equal_the_drop_in_cut_bits() {
        let s = session(3);
        // A group around an edge inside partition 1, so the unit has an
        // internal edge that must never count as cut.
        let (p, g) = (s.partitioning(), s.partitioning().grouping());
        let (_, inner) = p
            .dfg()
            .edges()
            .find(|(_, e)| {
                g.group_of(e.src()) == 1
                    && g.group_of(e.dst()) == 1
                    && p.dfg().node(e.src()).op() != Operation::Const
            })
            .expect("partition 1 has an internal edge");
        let units =
            build_units(&OptimizeSpec::new().with_group(vec![inner.src(), inner.dst()]), p)
                .unwrap();
        assert!(units.iter().any(|u| u.nodes.len() == 2));
        let mut cut = CutWeights::new(s.partitioning(), &units);
        let total = |p: &Partitioning| -> i64 {
            p.inter_partition_cuts().iter().map(|c| c.bits.value() as i64).sum()
        };
        let moved = |p: &Partitioning, unit: &MoveUnit, to: usize| {
            let mut grouping = p.grouping().clone();
            for &n in &unit.nodes {
                grouping.move_node(n, to);
            }
            p.with_grouping_unchecked(grouping)
        };
        let mut current = s.partitioning().clone();
        let mut checked = 0;
        for step in 0..8 {
            for (u, unit) in units.iter().enumerate() {
                let home = current.grouping().group_of(unit.nodes[0]);
                for to in (0..3).filter(|&to| to != home) {
                    let after = total(&moved(&current, unit, to));
                    assert_eq!(
                        cut.gain(u, home, to),
                        total(&current) - after,
                        "unit {u} to {to}"
                    );
                    checked += 1;
                }
            }
            let u = (step * 7 + 1) % units.len();
            let from = current.grouping().group_of(units[u].nodes[0]);
            let to = (from + 1 + step % 2) % 3;
            cut.record_move(current.dfg(), &units[u], from, to);
            current = moved(&current, &units[u], to);
        }
        assert_eq!(checked, 8 * units.len() * 2);
    }

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..100 {
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(a.below(7) < 7);
        }
    }
}
