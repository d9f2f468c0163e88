//! Level-1 pruning: per-partition feasibility and inferiority filtering.
//!
//! "The first level pruning happens before integrated partitioning
//! predictions are performed. The predictions produced by BAD for each
//! partition are examined and predictions which are infeasible or inferior
//! are discarded" (paper §2.1).

use chop_stat::units::{Nanos, SquareMils};
use chop_stat::{Estimate, FeasibilityThreshold};

use crate::clock::ClockConfig;
use crate::prediction::PredictedDesign;

/// Per-partition feasibility envelope used for level-1 pruning: the area
/// budget of the partition's chip and the global performance/delay
/// constraints, with the designer's probability thresholds.
///
/// # Examples
///
/// ```
/// use chop_bad::PartitionEnvelope;
/// use chop_stat::units::{Nanos, SquareMils};
///
/// let env = PartitionEnvelope::new(
///     SquareMils::new(90_000.0),
///     Nanos::new(30_000.0),
///     Nanos::new(30_000.0),
/// );
/// assert_eq!(env.area_budget().value(), 90_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionEnvelope {
    area_budget: SquareMils,
    performance: Nanos,
    delay: Nanos,
    area_threshold: FeasibilityThreshold,
    performance_threshold: FeasibilityThreshold,
    delay_threshold: FeasibilityThreshold,
}

impl PartitionEnvelope {
    /// Creates an envelope with the paper's default thresholds: 100 % for
    /// area and performance, 80 % for delay.
    #[must_use]
    pub fn new(area_budget: SquareMils, performance: Nanos, delay: Nanos) -> Self {
        Self {
            area_budget,
            performance,
            delay,
            area_threshold: FeasibilityThreshold::certain(),
            performance_threshold: FeasibilityThreshold::certain(),
            delay_threshold: FeasibilityThreshold::new(0.8),
        }
    }

    /// Overrides the probability thresholds.
    #[must_use]
    pub fn with_thresholds(
        mut self,
        area: FeasibilityThreshold,
        performance: FeasibilityThreshold,
        delay: FeasibilityThreshold,
    ) -> Self {
        self.area_threshold = area;
        self.performance_threshold = performance;
        self.delay_threshold = delay;
        self
    }

    /// The chip-area budget.
    #[must_use]
    pub fn area_budget(&self) -> SquareMils {
        self.area_budget
    }

    /// The performance (initiation-interval) constraint in ns.
    #[must_use]
    pub fn performance(&self) -> Nanos {
        self.performance
    }

    /// The system-delay constraint in ns.
    #[must_use]
    pub fn delay(&self) -> Nanos {
        self.delay
    }

    /// The area probability threshold.
    #[must_use]
    pub fn area_threshold(&self) -> FeasibilityThreshold {
        self.area_threshold
    }

    /// The performance probability threshold.
    #[must_use]
    pub fn performance_threshold(&self) -> FeasibilityThreshold {
        self.performance_threshold
    }

    /// The delay probability threshold.
    #[must_use]
    pub fn delay_threshold(&self) -> FeasibilityThreshold {
        self.delay_threshold
    }

    /// Whether a predicted design can possibly satisfy this envelope.
    ///
    /// The clock used for the cycle→ns conversion is the design's effective
    /// clock (main clock, stretched by the datapath overhead when the
    /// datapath runs on the main clock).
    #[must_use]
    pub fn admits(&self, design: &PredictedDesign, clocks: &ClockConfig) -> bool {
        let clock = effective_clock(design, clocks);
        let ii_ns = clock * design.initiation_interval().value() as f64;
        let latency_ns = clock * design.latency().value() as f64;
        design.area().probability_le(self.area_budget.value()).meets(self.area_threshold)
            && ii_ns.probability_le(self.performance.value()).meets(self.performance_threshold)
            && latency_ns.probability_le(self.delay.value()).meets(self.delay_threshold)
    }
}

/// The design's effective main-clock period estimate: the configured main
/// period, stretched by the datapath's register/mux/wiring/controller
/// overhead when the datapath switches on the main clock (experiment 2).
#[must_use]
pub fn effective_clock(design: &PredictedDesign, clocks: &ClockConfig) -> Estimate {
    let base = Estimate::exact(clocks.main_cycle().value());
    if clocks.datapath_on_main_clock() {
        base + design.clock_overhead()
    } else {
        base
    }
}

/// Effective adjusted clock period in ns for reporting (most-likely value).
#[must_use]
pub fn effective_clock_ns(design: &PredictedDesign, clocks: &ClockConfig) -> Nanos {
    Nanos::new(effective_clock(design, clocks).likely())
}

/// Counters reported in the paper's Tables 3 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredictionStats {
    /// Total predictions produced by BAD.
    pub total: usize,
    /// Predictions surviving the feasibility envelope.
    pub feasible: usize,
    /// Predictions surviving feasibility *and* inferiority pruning.
    pub non_inferior: usize,
}

/// Level-1 pruning: drops envelope-infeasible designs, then drops designs
/// dominated by a surviving design. Returns the survivors together with the
/// Table 3/5 statistics.
///
/// # Examples
///
/// ```
/// use chop_bad::prune::prune;
/// use chop_bad::{ArchitectureStyle, ClockConfig, PartitionEnvelope, Predictor, PredictorParams};
/// use chop_dfg::benchmarks;
/// use chop_library::standard::table1_library;
/// use chop_stat::units::{Nanos, SquareMils};
///
/// let clocks = ClockConfig::new(Nanos::new(300.0), 10, 1)?;
/// let p = Predictor::new(
///     table1_library(), clocks, ArchitectureStyle::single_cycle(),
///     PredictorParams::default(),
/// );
/// let designs = p.predict(&benchmarks::ar_lattice_filter())?;
/// let env = PartitionEnvelope::new(
///     SquareMils::new(90_000.0), Nanos::new(30_000.0), Nanos::new(30_000.0));
/// let (kept, stats) = prune(designs, &env, &clocks);
/// assert_eq!(stats.non_inferior, kept.len());
/// assert!(stats.feasible <= stats.total);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn prune(
    designs: Vec<PredictedDesign>,
    envelope: &PartitionEnvelope,
    clocks: &ClockConfig,
) -> (Vec<PredictedDesign>, PredictionStats) {
    prune_by(designs, |d| d, envelope, clocks)
}

/// Level-1 pruning over anything that carries a design: keeps the items
/// whose design the envelope admits, then the Pareto-minimal ones, in
/// their original order. [`prune`] runs it on whole designs and
/// [`crate::Sweep::prune`] on candidates not yet filled in.
pub(crate) fn prune_by<T>(
    items: Vec<T>,
    design: impl Fn(&T) -> &PredictedDesign,
    envelope: &PartitionEnvelope,
    clocks: &ClockConfig,
) -> (Vec<T>, PredictionStats) {
    let total = items.len();
    let feasible: Vec<T> =
        items.into_iter().filter(|x| envelope.admits(design(x), clocks)).collect();
    let n_feasible = feasible.len();
    let kept = pareto_filter_by(feasible, design);
    let stats = PredictionStats { total, feasible: n_feasible, non_inferior: kept.len() };
    (kept, stats)
}

/// Removes designs dominated by another design in the set.
#[must_use]
pub fn pareto_filter(designs: Vec<PredictedDesign>) -> Vec<PredictedDesign> {
    pareto_filter_by(designs, |d| d)
}

/// Removes items whose design is dominated by another item's, keeping the
/// survivors in their original order.
fn pareto_filter_by<T>(items: Vec<T>, design: impl Fn(&T) -> &PredictedDesign) -> Vec<T> {
    let mut kept: Vec<T> = Vec::with_capacity(items.len());
    for item in items {
        let d = design(&item);
        if kept.iter().any(|k| design(k).dominates(d)) {
            continue;
        }
        kept.retain(|k| !d.dominates(design(k)));
        kept.push(item);
    }
    kept
}

#[cfg(test)]
mod tests {
    use chop_dfg::benchmarks;
    use chop_library::standard::table1_library;
    use chop_library::standard::table2_packages;

    use super::*;
    use crate::params::PredictorParams;
    use crate::predictor::Predictor;
    use crate::style::ArchitectureStyle;

    fn exp1() -> (Predictor, ClockConfig) {
        let clocks = ClockConfig::new(Nanos::new(300.0), 10, 1).unwrap();
        (
            Predictor::new(
                table1_library(),
                clocks,
                ArchitectureStyle::single_cycle(),
                PredictorParams::default(),
            ),
            clocks,
        )
    }

    fn paper_envelope() -> PartitionEnvelope {
        let pkg = &table2_packages()[1];
        PartitionEnvelope::new(pkg.usable_area(), Nanos::new(30_000.0), Nanos::new(30_000.0))
    }

    #[test]
    fn pruning_reduces_monotonically() {
        let (p, clocks) = exp1();
        let designs = p.predict(&benchmarks::ar_lattice_filter()).unwrap();
        let (kept, stats) = prune(designs, &paper_envelope(), &clocks);
        assert!(stats.feasible <= stats.total);
        assert!(stats.non_inferior <= stats.feasible);
        assert_eq!(kept.len(), stats.non_inferior);
    }

    #[test]
    fn some_single_chip_designs_survive_paper_constraints() {
        // Table 4, row 1: a feasible single-partition design exists.
        let (p, clocks) = exp1();
        let designs = p.predict(&benchmarks::ar_lattice_filter()).unwrap();
        let (kept, stats) = prune(designs, &paper_envelope(), &clocks);
        assert!(stats.feasible > 0, "no design feasible: {stats:?}");
        assert!(!kept.is_empty());
    }

    #[test]
    fn tightening_constraints_never_adds_designs() {
        let (p, clocks) = exp1();
        let designs = p.predict(&benchmarks::ar_lattice_filter()).unwrap();
        let loose = paper_envelope();
        let tight = PartitionEnvelope::new(
            SquareMils::new(40_000.0),
            Nanos::new(20_000.0),
            Nanos::new(20_000.0),
        );
        let (_, s_loose) = prune(designs.clone(), &loose, &clocks);
        let (_, s_tight) = prune(designs, &tight, &clocks);
        assert!(s_tight.feasible <= s_loose.feasible);
    }

    #[test]
    fn survivors_are_mutually_non_dominated() {
        let (p, clocks) = exp1();
        let designs = p.predict(&benchmarks::ar_lattice_filter()).unwrap();
        let (kept, _) = prune(designs, &paper_envelope(), &clocks);
        for i in 0..kept.len() {
            for j in 0..kept.len() {
                if i != j {
                    assert!(!kept[i].dominates(&kept[j]));
                }
            }
        }
    }

    #[test]
    fn effective_clock_stretches_only_on_main_datapath() {
        let (p, clocks) = exp1();
        let designs = p.predict(&benchmarks::ar_lattice_filter()).unwrap();
        // Datapath 10× slower: the main clock is untouched.
        assert_eq!(effective_clock_ns(&designs[0], &clocks).value(), 300.0);
        // Experiment-2 clocking: overhead loads the main clock.
        let clocks2 = ClockConfig::new(Nanos::new(300.0), 1, 1).unwrap();
        let p2 = Predictor::new(
            table1_library(),
            clocks2,
            ArchitectureStyle::multi_cycle(),
            PredictorParams::default(),
        );
        let d2 = p2.predict(&benchmarks::ar_lattice_filter()).unwrap();
        assert!(effective_clock_ns(&d2[0], &clocks2).value() > 300.0);
    }
}
