//! The designer-facing session: predict, prune, search, report.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use chop_bad::prune::PredictionStats;
use chop_bad::{ArchitectureStyle, ClockConfig, PredictedDesign, PredictorParams};
use chop_dfg::grouping::GroupingError;
use chop_dfg::NodeId;
use chop_library::{ChipSet, Library};

use crate::budget::{BudgetTimer, Completion, SearchBudget};
use crate::cache::{CacheStats, PredictionCache};
use crate::engine;
use crate::engine::trace::{ExploreTrace, TraceRecorder};
use crate::error::ChopError;
#[cfg(feature = "fault-inject")]
use crate::fault::FaultPlan;
use crate::feasibility::{Constraints, FeasibilityCriteria};
use crate::spec::{PartitionId, Partitioning};
use crate::testability::TestabilityOverhead;

pub use crate::heuristics::{DesignPoint, FeasibleImplementation};

/// Which combination-search heuristic to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Heuristic **E**: explicit enumeration of all combinations.
    Enumeration,
    /// Heuristic **I**: iterative serialization (Fig. 5).
    Iterative,
}

impl fmt::Display for Heuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Heuristic::Enumeration => write!(f, "E"),
            Heuristic::Iterative => write!(f, "I"),
        }
    }
}

/// The result of one exploration run — the fields of one row block in the
/// paper's Tables 4 and 6, plus the recorded design space and the run's
/// pipeline instrumentation.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Heuristic that produced this outcome.
    pub heuristic: Heuristic,
    /// Feasible, non-inferior global implementations. Selections index
    /// into [`SearchOutcome::predictions`]; resolve them with
    /// [`SearchOutcome::selected_designs`].
    pub feasible: Vec<FeasibleImplementation>,
    /// Global combinations examined ("Partitioning Imp. Trials").
    pub trials: usize,
    /// Feasible trials.
    pub feasible_trials: usize,
    /// Per-partition BAD statistics (Tables 3 and 5).
    pub prediction_stats: Vec<PredictionStats>,
    /// Wall-clock search time (the "CPU Time" column analogue).
    pub elapsed: Duration,
    /// Every design point examined (keep-all mode only).
    pub points: Vec<DesignPoint>,
    /// How the run ended: complete, truncated by a budget, or degraded.
    /// Truncation takes precedence over degradation here; `degraded`
    /// records the E→I switch unconditionally.
    pub completion: Completion,
    /// Whether a requested heuristic-E search was degraded to heuristic I.
    pub degraded: bool,
    /// The surviving per-partition prediction lists the search ran over
    /// (shared with the session's prediction cache).
    pub predictions: Vec<Arc<[PredictedDesign]>>,
    /// Pipeline counters and stage spans for this run.
    pub trace: ExploreTrace,
    /// Prediction-cache activity during this run (counter deltas plus the
    /// current entry/byte gauges).
    pub cache: CacheStats,
}

impl SearchOutcome {
    /// Total BAD predictions across partitions (Tables 3/5 "Total number
    /// of predictions").
    #[must_use]
    pub fn total_predictions(&self) -> usize {
        self.prediction_stats.iter().map(|s| s.total).sum()
    }

    /// Feasible BAD predictions across partitions.
    #[must_use]
    pub fn feasible_predictions(&self) -> usize {
        self.prediction_stats.iter().map(|s| s.feasible).sum()
    }

    /// Number of unique design points among those examined (Figures 7/8
    /// report "13411 (699 unique) designs").
    #[must_use]
    pub fn unique_points(&self) -> usize {
        let mut keys: Vec<_> = self.points.iter().map(DesignPoint::unique_key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// Resolves one feasible implementation's selection indices into the
    /// per-partition predicted designs they name.
    ///
    /// # Panics
    ///
    /// Panics if `implementation` does not belong to this outcome (its
    /// indices must address [`SearchOutcome::predictions`]).
    #[must_use]
    pub fn selected_designs(
        &self,
        implementation: &FeasibleImplementation,
    ) -> Vec<&PredictedDesign> {
        implementation
            .selection
            .iter()
            .zip(&self.predictions)
            .map(|(&i, list)| &list[i as usize])
            .collect()
    }

    /// A canonical fingerprint of the run's *results*: heuristic,
    /// feasible-trial count, completion, per-partition prediction
    /// statistics and list lengths, every feasible implementation
    /// (selection indices plus the exact bit patterns of its system
    /// estimates) and every recorded design point.
    ///
    /// Wall-clock measurements (`elapsed`, `trace`) and cache counters are
    /// excluded: they legitimately differ between runs and thread counts
    /// (two workers may race to predict identical partitions, shifting
    /// hit/miss counts without changing any result). The raw `trials`
    /// count is excluded too: under branch-and-bound it counts *visited*
    /// combinations, which sound pruning is free to reduce without
    /// changing any retained result — the per-partition list lengths
    /// already pin the search space. Two runs with equal digests found
    /// exactly the same designs — the determinism tests assert digest
    /// equality across `--jobs 1/2/8` and across pruning modes.
    #[must_use]
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "h={};feasible_trials={};completion={:?};degraded={};",
            self.heuristic, self.feasible_trials, self.completion, self.degraded
        );
        for (i, (list, s)) in self.predictions.iter().zip(&self.prediction_stats).enumerate() {
            let _ = write!(
                out,
                "p{}:{}/{}/{}/{};",
                i,
                list.len(),
                s.total,
                s.feasible,
                s.non_inferior
            );
        }
        for f in &self.feasible {
            let _ = write!(out, "f:");
            for &i in &f.selection {
                let _ = write!(out, "{i},");
            }
            let sys = &f.system;
            let _ = write!(
                out,
                "ii={};delay={};ii_ns={:016x};delay_ns={:016x};feas={};",
                sys.initiation_interval.value(),
                sys.delay.value(),
                sys.initiation_ns.likely().to_bits(),
                sys.delay_ns.likely().to_bits(),
                sys.verdict.feasible
            );
        }
        for p in &self.points {
            let _ = write!(
                out,
                "d:{:016x}/{:016x}/{:016x}/{};",
                p.area.to_bits(),
                p.delay_ns.to_bits(),
                p.initiation_ns.to_bits(),
                p.feasible
            );
        }
        out
    }
}

impl fmt::Display for SearchOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "heuristic {}: {} trials, {} feasible ({} non-inferior kept) in {:.2?}",
            self.heuristic,
            self.trials,
            self.feasible_trials,
            self.feasible.len(),
            self.elapsed
        )?;
        if self.completion != Completion::Complete {
            write!(f, " [{}]", self.completion)?;
        }
        Ok(())
    }
}

/// Per-partition surviving prediction lists plus their Table 3/5
/// pruning statistics, as returned by [`Session::predict_partitions`].
pub type PartitionPredictions = (Vec<Arc<[PredictedDesign]>>, Vec<PredictionStats>);

/// A CHOP session: one tentative partitioning plus the prediction and
/// feasibility configuration, with what-if modification methods
/// (paper §2.7).
///
/// See the [crate-level documentation](crate) for a complete example.
///
/// # Builder contract
///
/// This is the one normative statement of the `Session` builder rules;
/// every builder method's own doc comment defers to it.
///
/// * `with_*` methods are infallible: they take values whose invariants
///   their own types already enforce (flags, budgets, thread counts) and
///   always return the modified session.
/// * Methods whose argument must be *validated* — against the session's
///   state or against invariants the argument's type cannot express — are
///   named `try_with_*` and return `Result<Self, SpecError>`:
///   [`Session::try_with_chip_set`] (chip set vs. partition assignment),
///   [`Session::try_with_partitioning`] (structural re-validation) and
///   [`Session::try_with_constraints`] (positive, finite bounds).
/// * Fallible what-if edits that *derive* a new session keep their verb
///   names ([`Session::repartition`], [`Session::apply_moves`],
///   [`Session::optimize`]).
/// * There are no panicking variants: the former `with_partitioning` /
///   `with_constraints` shims are gone, and every validation failure is
///   a typed `Result`.
#[derive(Debug, Clone)]
pub struct Session {
    pub(crate) partitioning: Partitioning,
    pub(crate) library: Library,
    pub(crate) clocks: ClockConfig,
    pub(crate) style: ArchitectureStyle,
    pub(crate) params: PredictorParams,
    pub(crate) constraints: Constraints,
    pub(crate) criteria: FeasibilityCriteria,
    pub(crate) testability: TestabilityOverhead,
    pub(crate) prune: bool,
    pub(crate) keep_all: bool,
    pub(crate) branch_and_bound: bool,
    pub(crate) budget: SearchBudget,
    pub(crate) jobs: usize,
    /// Shared with every session cloned or derived from this one, so a
    /// what-if dialogue pays for each distinct partition prediction once.
    pub(crate) cache: Arc<PredictionCache>,
    #[cfg(feature = "fault-inject")]
    pub(crate) fault_plan: Option<FaultPlan>,
}

impl Session {
    /// Creates a session with the paper's default feasibility criteria,
    /// pruning enabled, keep-all disabled, one worker thread and a fresh
    /// prediction cache.
    #[must_use]
    pub fn new(
        partitioning: Partitioning,
        library: Library,
        clocks: ClockConfig,
        style: ArchitectureStyle,
        params: PredictorParams,
        constraints: Constraints,
    ) -> Self {
        Self {
            partitioning,
            library,
            clocks,
            style,
            params,
            constraints,
            criteria: FeasibilityCriteria::paper_defaults(),
            testability: TestabilityOverhead::none(),
            prune: true,
            keep_all: false,
            branch_and_bound: true,
            budget: SearchBudget::default(),
            jobs: 1,
            cache: Arc::new(PredictionCache::new()),
            #[cfg(feature = "fault-inject")]
            fault_plan: None,
        }
    }

    /// Applies a testability discipline to every chip (§5 future work).
    ///
    /// # Panics
    ///
    /// Panics if the overhead fractions are invalid.
    #[must_use]
    pub fn with_testability(mut self, testability: TestabilityOverhead) -> Self {
        testability.assert_valid();
        self.testability = testability;
        self
    }

    /// Overrides the feasibility criteria.
    #[must_use]
    pub fn with_criteria(mut self, criteria: FeasibilityCriteria) -> Self {
        self.criteria = criteria;
        self
    }

    /// Enables or disables level-1/2 pruning (disable to observe the whole
    /// design space, at the cost the paper quantifies in §3.1).
    #[must_use]
    pub fn with_pruning(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Enables keep-all recording of every examined design point
    /// (Figures 7/8).
    #[must_use]
    pub fn with_keep_all(mut self, keep_all: bool) -> Self {
        self.keep_all = keep_all;
        self
    }

    /// Enables or disables branch-and-bound subtree skipping inside
    /// heuristic E (enabled by default). Only active when pruning is on
    /// and keep-all is off; it removes provably infeasible combinations
    /// from the walk without changing the retained feasible set or
    /// [`SearchOutcome::digest`] — disable it to measure the exhaustive
    /// odometer, or when the `trials` count must equal the full
    /// cross-product size.
    #[must_use]
    pub fn with_branch_and_bound(mut self, branch_and_bound: bool) -> Self {
        self.branch_and_bound = branch_and_bound;
        self
    }

    /// Whether branch-and-bound subtree skipping is enabled.
    #[must_use]
    pub fn branch_and_bound(&self) -> bool {
        self.branch_and_bound
    }

    /// Sets the resource budget for exploration runs (deadline, trial and
    /// point caps, E→I degradation threshold).
    #[must_use]
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the worker-thread allowance for the prediction and
    /// combination-scoring stages (`0` is clamped to `1`, i.e. serial).
    /// Exploration results are identical for every value — only wall-clock
    /// time and the trace's span split change; see
    /// [`SearchOutcome::digest`].
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The search budget in force.
    #[must_use]
    pub fn budget(&self) -> &SearchBudget {
        &self.budget
    }

    /// The worker-thread allowance in force.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Replaces the session's prediction cache with a fresh one holding
    /// at most `capacity` entries (`0` disables memoization entirely).
    /// Unlike the other `with_*` builders this *detaches* the session
    /// from the cache shared with its clones — useful for ablation
    /// measurements and for bounding memory on huge design spaces.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = Arc::new(PredictionCache::with_capacity(capacity));
        self
    }

    /// Like [`Session::with_cache_capacity`], but also sizing the lock
    /// stripe: the fresh cache is split over `shards` independently
    /// locked shards (rounded up to a power of two; see
    /// [`recommended_shards`](crate::cache::recommended_shards) for
    /// sizing to a `--jobs` count). Shard count never affects results —
    /// only contention.
    #[must_use]
    pub fn with_cache_config(mut self, capacity: usize, shards: usize) -> Self {
        self.cache = Arc::new(PredictionCache::with_config(capacity, shards));
        self
    }

    /// Attaches an externally owned prediction cache, replacing the
    /// session's current one. This is how a *service* shares one cache
    /// across many independent sessions: entries are content-addressed
    /// (configuration fingerprint + partition structural hash), so two
    /// sessions exploring identical partitions under identical
    /// configurations hit each other's entries, and differing
    /// configurations can never collide. The cache is thread-safe; handing
    /// the same `Arc` to sessions exploring concurrently is sound.
    #[must_use]
    pub fn with_shared_cache(mut self, cache: Arc<PredictionCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The session's prediction cache handle (shared with every session
    /// cloned or derived from this one, and with any session given the
    /// same cache via [`Session::with_shared_cache`]).
    #[must_use]
    pub fn shared_cache(&self) -> Arc<PredictionCache> {
        Arc::clone(&self.cache)
    }

    /// Lifetime statistics of the session's shared prediction cache.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Attaches a scripted fault plan to the prediction phase (testing
    /// only; compiled with the `fault-inject` feature). Fault-injected
    /// sessions bypass the prediction cache: plans script per-call
    /// behavior, which memoization would suppress.
    #[cfg(feature = "fault-inject")]
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The tentative partitioning under study.
    #[must_use]
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The hard constraints in force.
    #[must_use]
    pub fn constraints(&self) -> &Constraints {
        &self.constraints
    }

    /// The clock configuration in force.
    #[must_use]
    pub fn clocks(&self) -> &ClockConfig {
        &self.clocks
    }

    /// The component library in force.
    #[must_use]
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// What-if: replaces the partitioning (operation migration, partition
    /// migration — build the new [`Partitioning`] first), re-validating
    /// its structural invariants per the [builder contract](Session). The
    /// prediction cache is kept: unchanged partitions of the new
    /// partitioning are served from it.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::spec::SpecError`] found by
    /// [`Partitioning::validate`].
    pub fn try_with_partitioning(
        mut self,
        partitioning: Partitioning,
    ) -> Result<Self, crate::spec::SpecError> {
        partitioning.validate()?;
        self.partitioning = partitioning;
        Ok(self)
    }

    /// What-if: moves one DFG node to another partition, returning the
    /// re-keyed session (paper §2.7 "operation migration"). The derived
    /// session shares this session's prediction cache, so a follow-up
    /// [`explore`](Session::explore) re-predicts only the source and
    /// destination partitions and serves every other partition from the
    /// cache — check [`SearchOutcome::cache`] and
    /// [`ExploreTrace::predictor_calls`] to observe it.
    ///
    /// # Errors
    ///
    /// Returns a [`GroupingError`] if `node` is unknown, `to` is not a
    /// valid partition, or the move would empty the node's partition.
    pub fn repartition(&self, node: NodeId, to: PartitionId) -> Result<Self, GroupingError> {
        let mut next = self.clone();
        next.partitioning = self.partitioning.with_node_moved(node, to)?;
        Ok(next)
    }

    /// What-if: replaces the target chip set (§2.7 "Target chip set").
    /// Fallible — the set is cross-validated against the current partition
    /// assignment — hence `try_with_*`; see the builder contract in the
    /// [type docs](Session).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`crate::spec::SpecError`] if the set is
    /// empty or too small for the current assignment.
    pub fn try_with_chip_set(mut self, chips: ChipSet) -> Result<Self, crate::spec::SpecError> {
        self.partitioning = self.partitioning.with_chip_set(chips)?;
        Ok(self)
    }

    /// What-if: replaces the constraints (§2.7 "Constraints"), validating
    /// that every bound is positive and finite per the
    /// [builder contract](Session).
    ///
    /// # Errors
    ///
    /// Returns [`crate::spec::SpecError::InvalidConstraint`] naming the
    /// offending bound.
    pub fn try_with_constraints(
        mut self,
        constraints: Constraints,
    ) -> Result<Self, crate::spec::SpecError> {
        constraints.validate()?;
        self.constraints = constraints;
        Ok(self)
    }

    /// Runs BAD on every partition and applies level-1 pruning (unless
    /// disabled), returning the surviving lists and the Table 3/5
    /// statistics. Served from the session's prediction cache where
    /// possible; uncached partitions fan across [`Session::jobs`] workers.
    ///
    /// # Errors
    ///
    /// Returns [`ChopError::Predict`] if BAD cannot serve a partition —
    /// including a predictor *panic*, which is contained with
    /// `catch_unwind` and reported as [`chop_bad::PredictError::Panicked`]
    /// for the offending partition only.
    pub fn predict_partitions(&self) -> Result<PartitionPredictions, ChopError> {
        let trace = TraceRecorder::new(self.jobs);
        let output = engine::predict::predict_stage(self, &BudgetTimer::unlimited(), &trace)?;
        Ok((output.lists, output.stats))
    }

    /// Runs the full CHOP flow through the staged [`engine`]: cached
    /// per-partition prediction, level-1 pruning, combination search with
    /// the chosen heuristic and system-integration feasibility analysis —
    /// all under the session's [`SearchBudget`], fanned across
    /// [`Session::jobs`] worker threads, and instrumented in the outcome's
    /// [`trace`](SearchOutcome::trace).
    ///
    /// A tripped budget is a *normal outcome*: the returned
    /// [`SearchOutcome`] holds whatever was found before the trip, tagged
    /// with the truncating [`Completion`]. Likewise, a heuristic-E request
    /// whose predicted combination count (the product of surviving
    /// per-partition predictions) exceeds the budget's degradation
    /// threshold runs heuristic I instead; `outcome.heuristic` reports the
    /// heuristic that actually ran and `outcome.degraded` records the
    /// switch.
    ///
    /// # Errors
    ///
    /// Returns a [`ChopError`] for prediction or structural integration
    /// failures; an infeasible partitioning is a normal outcome with an
    /// empty `feasible` list.
    pub fn explore(&self, heuristic: Heuristic) -> Result<SearchOutcome, ChopError> {
        engine::explore(self, heuristic)
    }
}

#[cfg(test)]
mod tests {
    use chop_dfg::benchmarks;
    use chop_library::standard::{table1_library, table2_packages};
    use chop_stat::units::Nanos;

    use super::*;
    use crate::spec::PartitioningBuilder;

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
    fn both_heuristics_find_feasible_designs() {
        for h in [Heuristic::Enumeration, Heuristic::Iterative] {
            let outcome = session(1).explore(h).unwrap();
            assert!(outcome.feasible_trials >= 1, "{h} found nothing");
            assert!(!outcome.feasible.is_empty());
        }
    }

    #[test]
    fn heuristics_agree_on_best_initiation_interval_single_chip() {
        let e = session(1).explore(Heuristic::Enumeration).unwrap();
        let i = session(1).explore(Heuristic::Iterative).unwrap();
        let best = |o: &SearchOutcome| {
            o.feasible.iter().map(|f| f.system.initiation_interval.value()).min().unwrap()
        };
        assert_eq!(best(&e), best(&i));
    }

    #[test]
    fn keep_all_mode_records_points() {
        let outcome = session(1)
            .with_pruning(false)
            .with_keep_all(true)
            .explore(Heuristic::Enumeration)
            .unwrap();
        assert_eq!(outcome.points.len(), outcome.trials);
        assert!(outcome.unique_points() > 0);
        assert!(outcome.unique_points() <= outcome.points.len());
    }

    #[test]
    fn stats_cover_each_partition() {
        let outcome = session(2).explore(Heuristic::Iterative).unwrap();
        assert_eq!(outcome.prediction_stats.len(), 2);
        assert!(outcome.total_predictions() > 0);
    }

    #[test]
    fn outcome_display_is_informative() {
        let outcome = session(1).explore(Heuristic::Iterative).unwrap();
        let text = outcome.to_string();
        assert!(text.contains("heuristic I"));
        assert!(text.contains("trials"));
    }

    #[test]
    fn what_if_constraint_change_applies() {
        let s = session(1);
        let tightened = s
            .clone()
            .try_with_constraints(Constraints::new(Nanos::new(300.0), Nanos::new(300.0)))
            .unwrap();
        let loose = s.explore(Heuristic::Iterative).unwrap();
        let tight = tightened.explore(Heuristic::Iterative).unwrap();
        assert!(tight.feasible.len() <= loose.feasible.len());
    }

    #[test]
    fn selected_designs_resolve_selection_indices() {
        let outcome = session(2).explore(Heuristic::Enumeration).unwrap();
        let best = outcome.feasible.first().expect("a feasible implementation");
        let designs = outcome.selected_designs(best);
        assert_eq!(designs.len(), 2);
    }

    #[test]
    fn explore_populates_trace_and_cache_stats() {
        let outcome = session(2).explore(Heuristic::Enumeration).unwrap();
        assert_eq!(outcome.trace.jobs, 1);
        assert_eq!(outcome.trace.predictor_calls, 2);
        assert_eq!(outcome.cache.misses, 2);
        assert_eq!(outcome.cache.entries, 2);
        assert!(outcome.trace.evaluations > 0);
        assert!(outcome.trace.predict_ns > 0);
    }

    #[test]
    fn second_explore_is_served_from_the_cache() {
        let s = session(2);
        let first = s.explore(Heuristic::Iterative).unwrap();
        assert_eq!(first.trace.cache_hits, 0);
        let second = s.explore(Heuristic::Iterative).unwrap();
        assert_eq!(second.trace.predictor_calls, 0);
        assert_eq!(second.trace.cache_hits, 2);
        assert_eq!(first.digest(), second.digest());
    }

    #[test]
    fn partition_hashes_are_memoised_on_the_partitioning() {
        use chop_dfg::hash::structural_hash;
        use chop_library::ChipId;

        let s = session(3);
        assert_eq!(s.partitioning().memoised_hashes(), [None; 3]);
        // The service explores a clone of the session it keeps: the memo
        // the clone fills is the original's.
        s.clone().with_jobs(2).explore(Heuristic::Iterative).unwrap();
        let hashes = s.partitioning().memoised_hashes();
        for (p, hash) in s.partitioning().partition_ids().zip(&hashes) {
            assert_eq!(*hash, Some(structural_hash(&s.partitioning().partition_dfg(p))));
        }
        // A node move forgets exactly the two partitions it touches.
        let moved = s
            .partitioning()
            .grouping()
            .members(0)
            .into_iter()
            .find_map(|node| s.repartition(node, PartitionId::new(1)).ok())
            .expect("some node of P1 is movable");
        assert_eq!(moved.partitioning().memoised_hashes(), [None, None, hashes[2]]);
        // Moving a node to its own partition touches nothing.
        let node = s.partitioning().grouping().members(2)[0];
        let stay = s.repartition(node, PartitionId::new(2)).unwrap();
        assert_eq!(stay.partitioning().memoised_hashes(), hashes);
        // Chip and constraint what-ifs keep every hash.
        let on_chip =
            s.partitioning().with_partition_on_chip(PartitionId::new(0), ChipId::new(1));
        assert_eq!(on_chip.unwrap().memoised_hashes(), hashes);
        let tight = s
            .clone()
            .try_with_constraints(Constraints::new(Nanos::new(3_000.0), Nanos::new(3_000.0)));
        assert_eq!(tight.unwrap().partitioning().memoised_hashes(), hashes);
        // Equality ignores the memo.
        assert_eq!(*moved.partitioning(), moved.partitioning().clone());
        assert_eq!(s.partitioning(), session(3).partitioning());
    }

    #[test]
    fn session_and_cache_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<PredictionCache>();
        assert_send_sync::<SearchOutcome>();
    }

    #[test]
    fn try_with_partitioning_accepts_validated_values() {
        let s = session(2);
        let p = s.partitioning().clone();
        let moved = s.try_with_partitioning(p).unwrap();
        assert_eq!(moved.partitioning().partition_count(), 2);
    }

    #[test]
    fn try_with_constraints_rejects_zero_bounds() {
        let err = session(1)
            .try_with_constraints(Constraints::new(Nanos::zero(), Nanos::new(1.0)))
            .unwrap_err();
        assert_eq!(err, crate::spec::SpecError::InvalidConstraint("performance"));
    }

    #[test]
    fn shared_cache_serves_sibling_sessions() {
        let a = session(2);
        let b = session(2).with_shared_cache(a.shared_cache());
        let first = a.explore(Heuristic::Iterative).unwrap();
        assert_eq!(first.trace.cache_hits, 0);
        // Identical configuration + partitions → b is served entirely
        // from a's entries.
        let second = b.explore(Heuristic::Iterative).unwrap();
        assert_eq!(second.trace.predictor_calls, 0);
        assert_eq!(second.trace.cache_hits, 2);
        assert_eq!(first.digest(), second.digest());
    }

    #[test]
    fn digest_ignores_timing_but_not_results() {
        let a = session(1).explore(Heuristic::Enumeration).unwrap();
        let b = session(1).explore(Heuristic::Enumeration).unwrap();
        assert_eq!(a.digest(), b.digest());
        let c = session(1)
            .try_with_constraints(Constraints::new(Nanos::new(3_000.0), Nanos::new(3_000.0)))
            .unwrap()
            .explore(Heuristic::Enumeration)
            .unwrap();
        assert_ne!(a.digest(), c.digest());
    }
}
