//! The stable façade of `chop_core`, importable in one line.
//!
//! Everything a CHOP front end needs — building a tentative partitioning,
//! configuring a [`Session`], exploring, and reading the outcome — is
//! re-exported here. The `chop` CLI, the `chop-service` wire protocol and
//! every example import exclusively from this module; items *not*
//! re-exported here (engine plumbing, heuristic internals) are
//! implementation detail and may change between releases without notice.
//!
//! ```
//! use chop_core::prelude::*;
//! use chop_dfg::benchmarks;
//! use chop_library::standard::{table1_library, table2_packages};
//! use chop_library::ChipSet;
//! use chop_stat::units::Nanos;
//! # use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};
//!
//! let partitioning = PartitioningBuilder::new(
//!     benchmarks::ar_lattice_filter(),
//!     ChipSet::uniform(table2_packages()[1].clone(), 2),
//! )
//! .split_horizontal(2)
//! .build()?;
//! let session = Session::new(
//!     partitioning,
//!     table1_library(),
//!     ClockConfig::new(Nanos::new(300.0), 10, 1)?,
//!     ArchitectureStyle::single_cycle(),
//!     PredictorParams::default(),
//!     Constraints::new(Nanos::new(30_000.0), Nanos::new(30_000.0)),
//! );
//! let outcome = session.explore(Heuristic::Iterative)?;
//! assert!(outcome.trials > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use crate::budget::{BudgetTimer, Completion, SearchBudget, DEFAULT_DEGRADE_THRESHOLD};
pub use crate::cache::snapshot::{
    load_snapshot, write_snapshot, SnapshotLoaded, SnapshotWritten,
};
pub use crate::cache::{
    recommended_shards, CacheStats, PredictionCache, DEFAULT_CACHE_CAPACITY,
    DEFAULT_CACHE_SHARDS,
};
pub use crate::engine::trace::ExploreTrace;
pub use crate::error::ChopError;
pub use crate::explorer::{
    DesignPoint, FeasibleImplementation, Heuristic, PartitionPredictions, SearchOutcome,
    Session,
};
#[cfg(feature = "fault-inject")]
pub use crate::fault::{AppendFault, FaultPlan, IoFaultPlan};
pub use crate::feasibility::{Constraints, FeasibilityCriteria, Verdict, Violation};
pub use crate::integration::{IntegrationContext, SystemPrediction, TransferModulePrediction};
pub use crate::optimize::{
    AppliedMove, MoveKind, ObjectiveWeights, OptimizeResult, OptimizeSpec,
};
pub use crate::spec::{
    BuildError, MemoryAssignment, PartitionId, Partitioning, PartitioningBuilder, SpecError,
};
pub use crate::testability::TestabilityOverhead;

// Designer-facing modules, re-exported so `prelude::*` users can reach
// `report::markdown`, `advise::best_memory_assignment`, `tasks::create_tasks`,
// `transfer::pin_budgets`, `testability` presets, the `optimize` module
// itself and the experiment presets without a second `chop_core::` import
// path. The fault-injection module rides along under its feature flag.
#[cfg(feature = "fault-inject")]
pub use crate::fault;
pub use crate::{advise, experiments, optimize, report, spec, tasks, testability, transfer};
