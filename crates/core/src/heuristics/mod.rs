//! The two search heuristics over combinations of partition
//! implementations.
//!
//! "The designer may choose between two separate heuristics at run-time.
//! … Neither of the heuristics can be claimed to be better than the other
//! in terms of the quality of results or run-time but they explore the
//! design space differently" (paper §2.4).

pub mod enumeration;
pub mod iterative;

use crate::budget::Completion;
use crate::engine::trace::TraceRecorder;
use crate::error::ChopError;
use crate::integration::SystemPrediction;

/// One feasible global implementation: the chosen design per partition
/// (as an index into the outcome's per-partition prediction lists) and its
/// integrated system prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibleImplementation {
    /// Chosen design index per partition, in partition order, indexing
    /// into [`SearchOutcome::predictions`](crate::SearchOutcome::predictions).
    /// Resolve with [`SearchOutcome::selected_designs`](crate::SearchOutcome::selected_designs).
    pub selection: Vec<u32>,
    /// The integrated prediction (feasible verdict).
    pub system: SystemPrediction,
}

/// One candidate combination handed to the
/// [`BatchScorer`](crate::engine::scorer::BatchScorer): the chosen design
/// index per partition plus the initiation interval (main-clock cycles)
/// the combination is evaluated at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Candidate {
    /// Chosen design index per partition, in partition order.
    pub(crate) indices: Vec<u32>,
    /// Initiation interval (cycles) to evaluate the combination at.
    pub(crate) ii: u64,
}

/// One scored slot: `None` when the scorer abandoned the candidate because
/// the wall-clock deadline passed before it was reached.
pub(crate) type ScoreSlot = Option<Result<SystemPrediction, ChopError>>;

/// One explored design point, recorded for the paper's Figures 7/8 when
/// keep-all mode is on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Total most-likely area over all chips, mil².
    pub area: f64,
    /// System delay, ns (most likely).
    pub delay_ns: f64,
    /// Initiation interval, ns (most likely).
    pub initiation_ns: f64,
    /// Whether the point was feasible.
    pub feasible: bool,
}

impl DesignPoint {
    /// Key used to count *unique* designs (rounded to whole ns / mil²).
    #[must_use]
    pub fn unique_key(&self) -> (u64, u64, u64) {
        (
            self.area.round() as u64,
            self.delay_ns.round() as u64,
            self.initiation_ns.round() as u64,
        )
    }

    pub(crate) fn from_system(s: &SystemPrediction) -> Self {
        DesignPoint {
            area: s.chip_areas.iter().map(chop_stat::Estimate::likely).sum(),
            delay_ns: s.delay_ns.likely(),
            initiation_ns: s.initiation_ns.likely(),
            feasible: s.verdict.feasible,
        }
    }
}

/// Outcome of one heuristic search.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct HeuristicResult {
    /// Feasible, non-inferior global implementations found.
    pub feasible: Vec<FeasibleImplementation>,
    /// Global implementation combinations examined ("Partitioning Imp.
    /// Trials" of Tables 4/6).
    pub trials: usize,
    /// Trials that were feasible ("Feasible Trials").
    pub feasible_trials: usize,
    /// Every point examined (populated only in keep-all mode).
    pub points: Vec<DesignPoint>,
    /// Whether the search ran to completion or a budget tripped.
    pub completion: Completion,
    /// Odometer subtrees (digit-value cones) eliminated by the
    /// branch-and-bound lower bounds without being visited.
    pub subtrees_skipped: u64,
    /// Combinations inside the skipped subtrees: on a completed run
    /// `trials + combinations_skipped` equals the cross-product size.
    pub combinations_skipped: u64,
}

impl HeuristicResult {
    /// Count of retained design points (feasible implementations plus
    /// keep-all recordings) — what a `max_points` budget caps.
    pub(crate) fn retained_points(&self) -> usize {
        self.points.len() + self.feasible.len()
    }

    /// Keeps only non-inferior feasible implementations (by most-likely
    /// initiation interval and delay in ns).
    pub(crate) fn retain_non_inferior(&mut self) {
        let mut kept: Vec<FeasibleImplementation> = Vec::new();
        for f in self.feasible.drain(..) {
            if kept.iter().any(|k| k.system.dominates(&f.system)) {
                continue;
            }
            kept.retain(|k| !f.system.dominates(&k.system));
            // Drop exact duplicates.
            if kept.iter().any(|k| {
                k.system.initiation_ns.likely() == f.system.initiation_ns.likely()
                    && k.system.delay_ns.likely() == f.system.delay_ns.likely()
            }) {
                continue;
            }
            kept.push(f);
        }
        kept.sort_by(|a, b| {
            a.system
                .initiation_ns
                .likely()
                .partial_cmp(&b.system.initiation_ns.likely())
                .expect("finite")
        });
        self.feasible = kept;
    }
}

/// Applies the non-inferiority filter, timing it as the trace's
/// feasibility span. Every heuristic exit path funnels through here.
pub(crate) fn finalize(result: &mut HeuristicResult, trace: &TraceRecorder) {
    let started = std::time::Instant::now();
    result.retain_non_inferior();
    trace.add_feasibility(started.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;
    use chop_stat::units::Cycles;
    use chop_stat::Estimate;

    fn system(ii: f64, delay: f64) -> SystemPrediction {
        SystemPrediction {
            initiation_interval: Cycles::new(ii as u64),
            delay: Cycles::new(delay as u64),
            clock: Estimate::exact(1.0),
            initiation_ns: Estimate::exact(ii),
            delay_ns: Estimate::exact(delay),
            chip_areas: vec![],
            power: Estimate::exact(0.0),
            transfer_modules: vec![],
            verdict: crate::feasibility::Verdict::feasible(),
        }
    }

    #[test]
    fn non_inferior_filter_keeps_pareto_front() {
        let mut r = HeuristicResult {
            feasible: vec![
                FeasibleImplementation { selection: vec![], system: system(10.0, 100.0) },
                FeasibleImplementation { selection: vec![], system: system(20.0, 50.0) },
                FeasibleImplementation { selection: vec![], system: system(20.0, 120.0) },
                FeasibleImplementation { selection: vec![], system: system(10.0, 100.0) },
            ],
            ..Default::default()
        };
        r.retain_non_inferior();
        assert_eq!(r.feasible.len(), 2);
        assert_eq!(r.feasible[0].system.initiation_ns.likely(), 10.0);
    }

    #[test]
    fn design_point_key_rounds() {
        let a = DesignPoint { area: 10.4, delay_ns: 5.0, initiation_ns: 2.0, feasible: true };
        let b = DesignPoint { area: 10.0, delay_ns: 5.0, initiation_ns: 2.0, feasible: false };
        assert_eq!(a.unique_key(), b.unique_key());
    }
}
