//! BAD — the Behavioral Area-Delay predictor embedded in CHOP.
//!
//! Given a partition's behavioral specification (a [`chop_dfg::Dfg`]), a
//! component library, a clocking configuration and an architecture style,
//! BAD enumerates *predicted implementations*: for every module set, every
//! functional-unit allocation and both design styles it schedules the
//! partition, predicts registers, multiplexers, PLA controller, wiring and
//! clock-cycle overhead, and reports area/performance/delay as probability
//! triplets (paper §2.4: "BAD considers pipelined and non-pipelined design
//! styles, includes all possible module-set combinations, considers
//! serial-parallel tradeoffs and performs detailed predictions on register
//! and multiplexer allocation, PLA-based controller area, and standard cell
//! routing area, as well as the additional delays introduced to the clock
//! cycle").
//!
//! # Examples
//!
//! ```
//! use chop_bad::{ArchitectureStyle, ClockConfig, Predictor, PredictorParams};
//! use chop_dfg::benchmarks;
//! use chop_library::standard::table1_library;
//! use chop_stat::units::Nanos;
//!
//! // Experiment-1 clocking: 300 ns main clock, datapath 10× slower.
//! let clocks = ClockConfig::new(Nanos::new(300.0), 10, 1)?;
//! let predictor = Predictor::new(
//!     table1_library(),
//!     clocks,
//!     ArchitectureStyle::single_cycle(),
//!     PredictorParams::default(),
//! );
//! let designs = predictor.predict(&benchmarks::ar_lattice_filter())?;
//! assert!(!designs.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod area;
mod clock;
mod params;
mod prediction;
mod predictor;
pub mod prune;
mod style;
mod sweep;

pub use clock::{ClockConfig, ClockConfigError};
pub use params::{AllocationSweep, PredictorParams};
pub use prediction::{DesignDetail, PredictedDesign};
pub use predictor::{PredictError, Predictor};
pub use prune::{PartitionEnvelope, PredictionStats};
pub use style::{ArchitectureStyle, DesignStyle, OperationTiming};
pub use sweep::Sweep;

// The exploration engine shares predictors and prediction lists across
// scoped worker threads; losing these bounds (e.g. by adding interior
// mutability) must fail to compile here rather than at every use site.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Predictor>();
    _assert_send_sync::<PredictedDesign>();
    _assert_send_sync::<PredictionStats>();
    _assert_send_sync::<Sweep>();
};
