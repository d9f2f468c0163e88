//! One partition's BAD candidates, before their identities are filled in.

use std::collections::BTreeMap;

use chop_library::ModuleSet;
use chop_sched::ResourceMap;

use crate::clock::ClockConfig;
use crate::prediction::PredictedDesign;
use crate::prune::{prune_by, PartitionEnvelope, PredictionStats};

/// Every candidate of one [`Predictor::sweep`](crate::Predictor::sweep)
/// call, in emission order (module set, then allocation, then style).
///
/// A candidate is a complete [`PredictedDesign`] — style, timing, the
/// area/overhead/power triplets and the detail — except for its identity:
/// its module set, allocation and memory bandwidth are left empty and
/// allocation-free. The sweep owns each module set, each allocation and
/// the bandwidth map once, and a candidate records only the indices of its
/// set and allocation. Level-1 pruning reads none of the identity fields,
/// so [`Sweep::prune`] filters the bare candidates and fills in only the
/// survivors; [`Sweep::into_designs`] fills in every candidate.
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
/// let env = PartitionEnvelope::new(
///     SquareMils::new(90_000.0), Nanos::new(30_000.0), Nanos::new(30_000.0));
/// let ar = benchmarks::ar_lattice_filter();
/// let fused = p.sweep(&ar)?.prune(&env, &clocks);
/// assert_eq!(fused, prune(p.predict(&ar)?, &env, &clocks));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Sweep {
    candidates: Vec<Candidate>,
    identities: Identities,
}

/// A design without its identity, and where to find that identity.
#[derive(Debug)]
pub(crate) struct Candidate {
    pub(crate) design: PredictedDesign,
    pub(crate) module_set: usize,
    pub(crate) allocation: usize,
}

/// What a sweep's candidates share, owned once.
#[derive(Debug)]
struct Identities {
    module_sets: Vec<ModuleSet>,
    allocations: Vec<ResourceMap>,
    memory_bandwidth: BTreeMap<u32, u64>,
}

impl Identities {
    fn fill_in(&self, candidate: Candidate) -> PredictedDesign {
        candidate.design.with_identity(
            self.module_sets[candidate.module_set].clone(),
            self.allocations[candidate.allocation].clone(),
            self.memory_bandwidth.clone(),
        )
    }
}

impl Sweep {
    pub(crate) fn new(
        candidates: Vec<Candidate>,
        module_sets: Vec<ModuleSet>,
        allocations: Vec<ResourceMap>,
        memory_bandwidth: BTreeMap<u32, u64>,
    ) -> Self {
        Self {
            candidates,
            identities: Identities { module_sets, allocations, memory_bandwidth },
        }
    }

    /// Every candidate, filled in, in emission order — exactly
    /// [`Predictor::predict`](crate::Predictor::predict)'s list.
    #[must_use]
    pub fn into_designs(self) -> Vec<PredictedDesign> {
        let Sweep { candidates, identities } = self;
        candidates.into_iter().map(|c| identities.fill_in(c)).collect()
    }

    /// Level-1 pruning on the bare candidates, then filling in only the
    /// survivors. Returns exactly what [`crate::prune::prune`] returns for
    /// [`Sweep::into_designs`]: the same survivors in the same order and
    /// the same statistics.
    #[must_use]
    pub fn prune(
        self,
        envelope: &PartitionEnvelope,
        clocks: &ClockConfig,
    ) -> (Vec<PredictedDesign>, PredictionStats) {
        let Sweep { candidates, identities } = self;
        let (kept, stats) = prune_by(candidates, |c| &c.design, envelope, clocks);
        (kept.into_iter().map(|c| identities.fill_in(c)).collect(), stats)
    }
}
