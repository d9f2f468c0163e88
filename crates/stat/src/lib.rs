//! Statistical estimate environment for the CHOP partitioner.
//!
//! CHOP and its embedded predictor BAD never work with single numbers: every
//! predicted quantity (chip area, controller delay, wiring overhead, …) is a
//! *triplet* — a lower bound, a most-likely value and an upper bound — stored
//! in a statistical environment. Feasibility of a tentative partitioning is
//! then a *probability* ("a predicted design is feasible if it satisfies the
//! chip-area constraint with probability 1.0 and the system-delay constraint
//! with probability 0.8"), not a point comparison.
//!
//! This crate provides that environment:
//!
//! * [`Estimate`] — the (lo, likely, hi) triplet, read as a triangular
//!   distribution, with component-wise arithmetic (sum, scaling, max) and
//!   the triangular CDF [`Estimate::probability_le`] every feasibility
//!   verdict reads,
//! * [`Probability`] and [`FeasibilityThreshold`] — newtypes that keep
//!   confidence levels from being confused with other `f64` quantities.
//!
//! There is one probability model, stated on [`Estimate`]: sums add
//! bounds and modes, so their bounds are sound under any dependence and
//! their CDF is exact for comonotone terms of one shape. The crate's
//! `tests/sampling.rs` checks the CDF and both readings of a sum against
//! Monte Carlo sampling.
//!
//! # Examples
//!
//! ```
//! use chop_stat::{Estimate, Probability};
//!
//! // Predicted area of a datapath: most likely 9_800 mil², ±15 %.
//! let fu = Estimate::with_spread(9_800.0, 0.15);
//! let wiring = Estimate::with_spread(4_000.0, 0.30);
//! let total = fu + wiring;
//! // Probability that the design fits a 15 000 mil² chip:
//! let p = total.probability_le(15_000.0);
//! assert!(p > Probability::new(0.5));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod estimate;
mod probability;
pub mod units;

pub use estimate::{Estimate, EstimateError};
pub use probability::{FeasibilityThreshold, Probability};
