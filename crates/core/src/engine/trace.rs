//! Lightweight instrumentation of the exploration pipeline.
//!
//! The engine threads a `TraceRecorder` (lock-free atomic counters)
//! through every stage and worker; at the end of a run the recorder is
//! frozen into the plain-data [`ExploreTrace`] carried by
//! [`SearchOutcome`](crate::SearchOutcome) and printed by the CLI under
//! `--stats` / `--stats-json`.
//!
//! Span semantics: `predict_ns` and `search_ns` are **wall-clock** spans
//! of their stages; `prune_l1_ns`, `integrate_ns` and `feasibility_ns` are
//! **CPU sums** accumulated across worker threads, so with `jobs > 1`
//! `integrate_ns` routinely exceeds `search_ns` — that surplus *is* the
//! parallel speed-up. Timing fields are measurements, not results: they
//! differ run to run and are deliberately excluded from
//! [`SearchOutcome::digest`](crate::SearchOutcome::digest).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-run pipeline counters and stage spans (see the [module docs](self)
/// for span semantics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreTrace {
    /// Wall-clock span of the prediction stage (cache lookups, predictor
    /// calls and level-1 pruning, however many workers ran them).
    pub predict_ns: u64,
    /// CPU nanoseconds inside level-1 pruning, summed across workers.
    /// Pruning runs on BAD's bare candidates, so this includes filling in
    /// the survivors' module sets, allocations and bandwidth maps.
    pub prune_l1_ns: u64,
    /// Wall-clock span of the combination-search stage.
    pub search_ns: u64,
    /// CPU nanoseconds inside `IntegrationContext::evaluate`, summed
    /// across workers.
    pub integrate_ns: u64,
    /// CPU nanoseconds filtering feasible combinations down to the
    /// non-inferior front.
    pub feasibility_ns: u64,
    /// BAD predictor invocations (= cache misses that reached BAD).
    pub predictor_calls: u64,
    /// Prediction-cache hits.
    pub cache_hits: u64,
    /// Prediction-cache misses.
    pub cache_misses: u64,
    /// System integrations actually run. Heuristic E runs one per trial
    /// that passes its quick area check; heuristic I reuses the estimate
    /// of the serialization a round picks for the next round's first
    /// trial, so for I this falls below `trials`.
    pub evaluations: u64,
    /// Combinations rejected by the cheap level-2 area pre-check.
    pub quick_rejects: u64,
    /// Subtrees (digit-value cones of the odometer) eliminated by the
    /// branch-and-bound lower bounds without visiting their combinations.
    pub subtrees_skipped: u64,
    /// Combinations contained in the skipped subtrees — never generated,
    /// so `trials + combinations_skipped` equals the full cross-product
    /// size on a run that completes.
    pub combinations_skipped: u64,
    /// Worker threads the engine was allowed to use.
    pub jobs: u64,
}

impl ExploreTrace {
    /// Renders the trace as a single JSON object (hand-rolled — the
    /// offline build has no serialization dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"predict_ns\":{},\"prune_l1_ns\":{},\"search_ns\":{},\"integrate_ns\":{},\
             \"feasibility_ns\":{},\"predictor_calls\":{},\"cache_hits\":{},\
             \"cache_misses\":{},\"evaluations\":{},\"quick_rejects\":{},\
             \"subtrees_skipped\":{},\"combinations_skipped\":{},\"jobs\":{}}}",
            self.predict_ns,
            self.prune_l1_ns,
            self.search_ns,
            self.integrate_ns,
            self.feasibility_ns,
            self.predictor_calls,
            self.cache_hits,
            self.cache_misses,
            self.evaluations,
            self.quick_rejects,
            self.subtrees_skipped,
            self.combinations_skipped,
            self.jobs,
        )
    }
}

/// The concurrent accumulator behind [`ExploreTrace`].
///
/// All methods take `&self` and are safe to call from scoped worker
/// threads; relaxed ordering suffices because the recorder is only read
/// after the workers have been joined.
#[derive(Debug, Default)]
pub(crate) struct TraceRecorder {
    predict_ns: AtomicU64,
    prune_l1_ns: AtomicU64,
    search_ns: AtomicU64,
    integrate_ns: AtomicU64,
    feasibility_ns: AtomicU64,
    predictor_calls: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    evaluations: AtomicU64,
    quick_rejects: AtomicU64,
    subtrees_skipped: AtomicU64,
    combinations_skipped: AtomicU64,
    jobs: u64,
}

/// Saturating `Duration` → `u64` nanoseconds.
fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl TraceRecorder {
    /// Creates a recorder for a run allowed `jobs` worker threads.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs as u64, ..Self::default() }
    }

    /// Records the wall-clock span of the prediction stage.
    pub fn add_predict(&self, d: Duration) {
        self.predict_ns.fetch_add(ns(d), Ordering::Relaxed);
    }

    /// Accumulates time spent in level-1 pruning.
    pub fn add_prune_l1(&self, d: Duration) {
        self.prune_l1_ns.fetch_add(ns(d), Ordering::Relaxed);
    }

    /// Records the wall-clock span of the search stage.
    pub fn add_search(&self, d: Duration) {
        self.search_ns.fetch_add(ns(d), Ordering::Relaxed);
    }

    /// Accumulates time spent in `IntegrationContext::evaluate`.
    pub fn add_integrate(&self, d: Duration) {
        self.integrate_ns.fetch_add(ns(d), Ordering::Relaxed);
    }

    /// Accumulates time spent in non-inferiority filtering.
    pub fn add_feasibility(&self, d: Duration) {
        self.feasibility_ns.fetch_add(ns(d), Ordering::Relaxed);
    }

    /// Counts one BAD predictor invocation.
    pub fn count_predictor_call(&self) {
        self.predictor_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one prediction-cache hit.
    pub fn count_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one prediction-cache miss.
    pub fn count_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one combination evaluation.
    pub fn count_evaluation(&self) {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one cheap level-2 area rejection.
    pub fn count_quick_reject(&self) {
        self.quick_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Flushes a search's branch-and-bound skip tallies (called once per
    /// run, after the walk finishes).
    pub fn add_skips(&self, subtrees: u64, combinations: u64) {
        self.subtrees_skipped.fetch_add(subtrees, Ordering::Relaxed);
        self.combinations_skipped.fetch_add(combinations, Ordering::Relaxed);
    }

    /// Freezes the counters into a plain [`ExploreTrace`].
    #[must_use]
    pub fn snapshot(&self) -> ExploreTrace {
        ExploreTrace {
            predict_ns: self.predict_ns.load(Ordering::Relaxed),
            prune_l1_ns: self.prune_l1_ns.load(Ordering::Relaxed),
            search_ns: self.search_ns.load(Ordering::Relaxed),
            integrate_ns: self.integrate_ns.load(Ordering::Relaxed),
            feasibility_ns: self.feasibility_ns.load(Ordering::Relaxed),
            predictor_calls: self.predictor_calls.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            evaluations: self.evaluations.load(Ordering::Relaxed),
            quick_rejects: self.quick_rejects.load(Ordering::Relaxed),
            subtrees_skipped: self.subtrees_skipped.load(Ordering::Relaxed),
            combinations_skipped: self.combinations_skipped.load(Ordering::Relaxed),
            jobs: self.jobs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_accumulates_and_snapshots() {
        let r = TraceRecorder::new(4);
        r.add_predict(Duration::from_nanos(10));
        r.add_predict(Duration::from_nanos(5));
        r.count_cache_hit();
        r.count_evaluation();
        r.count_evaluation();
        r.add_skips(3, 250);
        let t = r.snapshot();
        assert_eq!(t.predict_ns, 15);
        assert_eq!(t.cache_hits, 1);
        assert_eq!(t.evaluations, 2);
        assert_eq!(t.subtrees_skipped, 3);
        assert_eq!(t.combinations_skipped, 250);
        assert_eq!(t.jobs, 4);
    }

    #[test]
    fn json_has_every_field() {
        let t = ExploreTrace { jobs: 2, evaluations: 7, ..Default::default() };
        let json = t.to_json();
        for key in [
            "predict_ns",
            "prune_l1_ns",
            "search_ns",
            "integrate_ns",
            "feasibility_ns",
            "predictor_calls",
            "cache_hits",
            "cache_misses",
            "evaluations",
            "quick_rejects",
            "subtrees_skipped",
            "combinations_skipped",
            "jobs",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert!(json.contains("\"evaluations\":7"));
    }
}
