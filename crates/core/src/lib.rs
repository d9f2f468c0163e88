//! CHOP — a constraint-driven system-level partitioner for behavioral
//! specifications.
//!
//! This crate reproduces the partitioner of Küçükçakar and Parker (USC
//! CEng 90-26 / DAC 1991). The designer proposes a *tentative partitioning*
//! of a behavioral data-flow graph onto a chip set (with memory blocks
//! assigned to chips); CHOP decides its feasibility by
//!
//! 1. predicting implementations of every partition with the embedded BAD
//!    predictor ([`chop_bad`]) and pruning infeasible/inferior predictions
//!    (level-1 pruning),
//! 2. searching combinations of per-partition implementations with one of
//!    two heuristics — exhaustive [`enumeration`](heuristics::enumeration)
//!    or the [`iterative`](heuristics::iterative) serialization heuristic
//!    of the paper's Fig. 5,
//! 3. predicting **system-integration overhead** for each combination:
//!    pin-limited data-transfer bandwidth, urgency scheduling of transfer
//!    tasks on shared chip pins and memory ports, transfer-buffer sizing
//!    `B = D·(⌈W/l⌉ + X/l)`, data-transfer-module PLAs and the adjusted
//!    clock cycle, and
//! 4. checking the hard constraints — per-chip area, pin counts, system
//!    performance and system delay — probabilistically against the
//!    designer's feasibility criteria.
//!
//! # Quick start
//!
//! ```
//! use chop_core::{Constraints, Heuristic, Session};
//! use chop_core::spec::PartitioningBuilder;
//! use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};
//! use chop_dfg::benchmarks;
//! use chop_library::standard::{table1_library, table2_packages};
//! use chop_library::ChipSet;
//! use chop_stat::units::Nanos;
//!
//! // The AR lattice filter split in two, each half on its own 84-pin chip.
//! let dfg = benchmarks::ar_lattice_filter();
//! let chips = ChipSet::uniform(table2_packages()[1].clone(), 2);
//! let partitioning = PartitioningBuilder::new(dfg, chips)
//!     .split_horizontal(2)
//!     .build()?;
//!
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

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod advise;
pub mod budget;
pub mod cache;
pub mod engine;
mod error;
pub mod experiments;
mod explorer;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod feasibility;
pub mod heuristics;
mod integration;
pub mod optimize;
pub mod prelude;
pub mod report;
pub mod spec;
pub mod tasks;
pub mod testability;
pub mod transfer;

pub use budget::{BudgetTimer, Completion, SearchBudget};
pub use cache::{CacheStats, PredictionCache};
pub use engine::trace::ExploreTrace;
pub use error::ChopError;
pub use explorer::{DesignPoint, Heuristic, PartitionPredictions, SearchOutcome, Session};
#[cfg(feature = "fault-inject")]
pub use fault::{AppendFault, FaultPlan, IoFaultPlan};
pub use feasibility::{Constraints, FeasibilityCriteria, Verdict, Violation};
pub use integration::{IntegrationContext, SystemPrediction, TransferModulePrediction};
pub use optimize::{AppliedMove, MoveKind, OptimizeResult, OptimizeSpec};
pub use spec::{MemoryAssignment, PartitionId, Partitioning};
