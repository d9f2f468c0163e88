//! Hard constraints and the probabilistic feasibility verdict.

use std::fmt;

use chop_stat::units::{MilliWatts, Nanos};
use chop_stat::{FeasibilityThreshold, Probability};

/// The designer's hard constraints: system performance (maximum initiation
/// interval) and system delay (maximum input-to-output time), both in ns.
///
/// Per-chip area and pin counts are constraints too, but they come from the
/// chip set itself.
///
/// # Examples
///
/// ```
/// use chop_core::Constraints;
/// use chop_stat::units::Nanos;
///
/// let c = Constraints::new(Nanos::new(30_000.0), Nanos::new(30_000.0));
/// assert_eq!(c.performance().value(), 30_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    performance: Nanos,
    delay: Nanos,
    power: Option<MilliWatts>,
}

impl Constraints {
    /// Creates constraints from a performance and a delay bound (no power
    /// limit).
    #[must_use]
    pub fn new(performance: Nanos, delay: Nanos) -> Self {
        Self { performance, delay, power: None }
    }

    /// Adds a total-system power limit — the power-consumption extension
    /// the paper names as future research (§5).
    ///
    /// # Examples
    ///
    /// ```
    /// use chop_core::Constraints;
    /// use chop_stat::units::{MilliWatts, Nanos};
    ///
    /// let c = Constraints::new(Nanos::new(30_000.0), Nanos::new(30_000.0))
    ///     .with_power_limit(MilliWatts::new(2_000.0));
    /// assert_eq!(c.power_limit().unwrap().value(), 2_000.0);
    /// ```
    #[must_use]
    pub fn with_power_limit(mut self, power: MilliWatts) -> Self {
        self.power = Some(power);
        self
    }

    /// The total-system power limit, if any.
    #[must_use]
    pub fn power_limit(&self) -> Option<MilliWatts> {
        self.power
    }

    /// Maximum initiation interval.
    #[must_use]
    pub fn performance(&self) -> Nanos {
        self.performance
    }

    /// Maximum system delay.
    #[must_use]
    pub fn delay(&self) -> Nanos {
        self.delay
    }

    /// A copy with a tightened performance bound (the experiment-2 move).
    #[must_use]
    pub fn with_performance(mut self, performance: Nanos) -> Self {
        self.performance = performance;
        self
    }

    /// Checks that every bound is a positive, finite quantity. The unit
    /// types already refuse NaN and negative values at construction, but
    /// they do allow **zero** — and a zero performance or delay bound
    /// silently declares every design infeasible, which is never what a
    /// designer (or a wire request) means. Constraints built from
    /// untrusted input pass here before they reach a
    /// [`Session`](crate::Session).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidConstraint`] naming the first offending
    /// field.
    ///
    /// [`SpecError::InvalidConstraint`]: crate::spec::SpecError::InvalidConstraint
    pub fn validate(&self) -> Result<(), crate::spec::SpecError> {
        use crate::spec::SpecError;
        if !(self.performance.value().is_finite() && self.performance.value() > 0.0) {
            return Err(SpecError::InvalidConstraint("performance"));
        }
        if !(self.delay.value().is_finite() && self.delay.value() > 0.0) {
            return Err(SpecError::InvalidConstraint("delay"));
        }
        if let Some(p) = self.power {
            if !(p.value().is_finite() && p.value() > 0.0) {
                return Err(SpecError::InvalidConstraint("power"));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Constraints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "performance ≤ {}, delay ≤ {}", self.performance, self.delay)?;
        if let Some(p) = self.power {
            write!(f, ", power ≤ {p}")?;
        }
        Ok(())
    }
}

/// The designer's feasibility criteria: the probability each constraint
/// class must reach. The paper's experiments use 100 % for performance and
/// chip area and 80 % for system delay.
///
/// # Examples
///
/// ```
/// use chop_core::FeasibilityCriteria;
///
/// let c = FeasibilityCriteria::paper_defaults();
/// assert_eq!(c.delay.probability().value(), 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeasibilityCriteria {
    /// Threshold for every chip-area constraint.
    pub area: FeasibilityThreshold,
    /// Threshold for the performance (initiation-interval) constraint.
    pub performance: FeasibilityThreshold,
    /// Threshold for the system-delay constraint.
    pub delay: FeasibilityThreshold,
    /// Threshold for the optional system-power constraint.
    pub power: FeasibilityThreshold,
}

impl FeasibilityCriteria {
    /// The criteria used throughout the paper's experiments (power, not in
    /// the paper, defaults to 80 % like delay).
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            area: FeasibilityThreshold::certain(),
            performance: FeasibilityThreshold::certain(),
            delay: FeasibilityThreshold::new(0.8),
            power: FeasibilityThreshold::new(0.8),
        }
    }

    /// Point-comparison criteria (every threshold 50 %) — used by the
    /// probabilistic-analysis ablation.
    #[must_use]
    pub fn point_estimates() -> Self {
        Self {
            area: FeasibilityThreshold::new(0.5),
            performance: FeasibilityThreshold::new(0.5),
            delay: FeasibilityThreshold::new(0.5),
            power: FeasibilityThreshold::new(0.5),
        }
    }
}

impl Default for FeasibilityCriteria {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// A constraint violation found during feasibility analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A chip's predicted contents exceed its usable area.
    ChipArea {
        /// The violating chip index.
        chip: usize,
        /// Probability the contents fit.
        probability: Probability,
    },
    /// The system initiation interval exceeds the performance constraint.
    Performance {
        /// Probability the constraint is met.
        probability: Probability,
    },
    /// The system delay exceeds the delay constraint.
    Delay {
        /// Probability the constraint is met.
        probability: Probability,
    },
    /// A data transfer cannot complete within one initiation interval
    /// ("the data transfer time … cannot be longer than the initiation
    /// interval of the system in order not to cause data clashes").
    DataClash {
        /// Index of the violating transfer.
        transfer: usize,
    },
    /// Two pipelined partitions run at different data rates.
    DataRateMismatch,
    /// A chip's pin reservations exceed its package pins.
    PinsExhausted {
        /// The violating chip index.
        chip: usize,
    },
    /// A chip's data pins cannot sustain all its transfers every
    /// initiation interval (steady-state pin-time conservation).
    PinBandwidth {
        /// The violating chip index.
        chip: usize,
    },
    /// A memory block's required bandwidth exceeds its ports.
    MemoryBandwidth {
        /// The violating memory block index.
        memory: usize,
    },
    /// Total system power exceeds the designer's limit.
    Power {
        /// Probability the limit is met.
        probability: Probability,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ChipArea { chip, probability } => {
                write!(f, "chip {chip} area constraint missed (P(fit)={probability})")
            }
            Violation::Performance { probability } => {
                write!(f, "performance constraint missed (P={probability})")
            }
            Violation::Delay { probability } => {
                write!(f, "delay constraint missed (P={probability})")
            }
            Violation::DataClash { transfer } => {
                write!(f, "transfer {transfer} longer than the initiation interval")
            }
            Violation::DataRateMismatch => {
                write!(f, "pipelined partitions have mismatched data rates")
            }
            Violation::PinsExhausted { chip } => write!(f, "chip {chip} has no data pins left"),
            Violation::PinBandwidth { chip } => {
                write!(f, "chip {chip} data pins oversubscribed per initiation interval")
            }
            Violation::MemoryBandwidth { memory } => {
                write!(f, "memory M{memory} bandwidth exceeded")
            }
            Violation::Power { probability } => {
                write!(f, "power constraint missed (P={probability})")
            }
        }
    }
}

/// The outcome of feasibility analysis for one global implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Whether every constraint met its threshold.
    pub feasible: bool,
    /// Violations found (empty when feasible).
    pub violations: Vec<Violation>,
}

impl Verdict {
    /// A feasible verdict.
    #[must_use]
    pub fn feasible() -> Self {
        Self { feasible: true, violations: Vec::new() }
    }

    /// An infeasible verdict carrying its violations.
    ///
    /// # Panics
    ///
    /// Panics if `violations` is empty.
    #[must_use]
    pub fn infeasible(violations: Vec<Violation>) -> Self {
        assert!(!violations.is_empty(), "infeasible verdict needs at least one violation");
        Self { feasible: false, violations }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.feasible {
            write!(f, "feasible")
        } else {
            let v: Vec<String> = self.violations.iter().map(ToString::to_string).collect();
            write!(f, "infeasible: {}", v.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_3() {
        let c = FeasibilityCriteria::paper_defaults();
        assert_eq!(c.area, FeasibilityThreshold::certain());
        assert_eq!(c.performance, FeasibilityThreshold::certain());
        assert_eq!(c.delay, FeasibilityThreshold::new(0.8));
    }

    #[test]
    fn verdict_construction() {
        assert!(Verdict::feasible().feasible);
        let v = Verdict::infeasible(vec![Violation::DataRateMismatch]);
        assert!(!v.feasible);
        assert!(v.to_string().contains("mismatched"));
    }

    #[test]
    #[should_panic(expected = "at least one violation")]
    fn empty_infeasible_panics() {
        let _ = Verdict::infeasible(vec![]);
    }

    #[test]
    fn constraints_tighten() {
        let c = Constraints::new(Nanos::new(30_000.0), Nanos::new(30_000.0))
            .with_performance(Nanos::new(20_000.0));
        assert_eq!(c.performance().value(), 20_000.0);
        assert_eq!(c.delay().value(), 30_000.0);
    }

    #[test]
    fn constraint_validation_rejects_zero_bounds() {
        use crate::spec::SpecError;
        let ok = Constraints::new(Nanos::new(1.0), Nanos::new(1.0));
        assert_eq!(ok.validate(), Ok(()));
        let perf = Constraints::new(Nanos::zero(), Nanos::new(1.0));
        assert_eq!(perf.validate(), Err(SpecError::InvalidConstraint("performance")));
        let delay = Constraints::new(Nanos::new(1.0), Nanos::zero());
        assert_eq!(delay.validate(), Err(SpecError::InvalidConstraint("delay")));
        let power = ok.with_power_limit(MilliWatts::zero());
        assert_eq!(power.validate(), Err(SpecError::InvalidConstraint("power")));
    }
}
