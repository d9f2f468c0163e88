//! Clocking configuration: main, datapath and data-transfer clocks.

use std::fmt;

use chop_stat::units::{Cycles, Nanos};

/// Error constructing a [`ClockConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum ClockConfigError {
    /// The main clock period was zero.
    ZeroMainClock,
    /// A clock multiplier was zero.
    ZeroMultiplier,
}

impl fmt::Display for ClockConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClockConfigError::ZeroMainClock => write!(f, "main clock period must be positive"),
            ClockConfigError::ZeroMultiplier => {
                write!(f, "clock multipliers must be at least 1")
            }
        }
    }
}

impl std::error::Error for ClockConfigError {}

/// The synchronous clock family of a CHOP run.
///
/// The paper assumes "two separate clocks for data path and data transfer
/// … both clocks in our model are to be synchronous with frequencies being
/// multiples of the major clock frequency" (§2.2). Periods here are the
/// main period times an integer multiplier — experiment 1 uses a datapath
/// clock 10× slower than the 300 ns main clock, experiment 2 uses 1×.
///
/// # Examples
///
/// ```
/// use chop_bad::ClockConfig;
/// use chop_stat::units::Nanos;
///
/// let exp1 = ClockConfig::new(Nanos::new(300.0), 10, 1)?;
/// assert_eq!(exp1.datapath_cycle().value(), 3000.0);
/// assert_eq!(exp1.transfer_cycle().value(), 300.0);
/// # Ok::<(), chop_bad::ClockConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockConfig {
    main: Nanos,
    datapath_multiplier: u32,
    transfer_multiplier: u32,
}

impl ClockConfig {
    /// Creates a clock configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ClockConfigError`] if the main period is zero or a
    /// multiplier is zero.
    pub fn new(
        main: Nanos,
        datapath_multiplier: u32,
        transfer_multiplier: u32,
    ) -> Result<Self, ClockConfigError> {
        if main.value() <= 0.0 {
            return Err(ClockConfigError::ZeroMainClock);
        }
        if datapath_multiplier == 0 || transfer_multiplier == 0 {
            return Err(ClockConfigError::ZeroMultiplier);
        }
        Ok(Self { main, datapath_multiplier, transfer_multiplier })
    }

    /// The main (major) clock period.
    #[must_use]
    pub fn main_cycle(&self) -> Nanos {
        self.main
    }

    /// The datapath clock period (`main × datapath multiplier`).
    #[must_use]
    pub fn datapath_cycle(&self) -> Nanos {
        Nanos::new(self.main.value() * f64::from(self.datapath_multiplier))
    }

    /// The data-transfer clock period (`main × transfer multiplier`).
    #[must_use]
    pub fn transfer_cycle(&self) -> Nanos {
        Nanos::new(self.main.value() * f64::from(self.transfer_multiplier))
    }

    /// The datapath multiplier.
    #[must_use]
    pub fn datapath_multiplier(&self) -> u32 {
        self.datapath_multiplier
    }

    /// The transfer multiplier.
    #[must_use]
    pub fn transfer_multiplier(&self) -> u32 {
        self.transfer_multiplier
    }

    /// Whether datapath logic switches on the main clock (its overhead then
    /// loads the main cycle directly, as in experiment 2).
    #[must_use]
    pub fn datapath_on_main_clock(&self) -> bool {
        self.datapath_multiplier == 1
    }

    /// Converts a datapath cycle count to main-clock cycles.
    #[must_use]
    pub fn datapath_to_main(&self, cycles: u64) -> Cycles {
        Cycles::new(cycles * u64::from(self.datapath_multiplier))
    }

    /// Converts a transfer cycle count to main-clock cycles.
    #[must_use]
    pub fn transfer_to_main(&self, cycles: u64) -> Cycles {
        Cycles::new(cycles * u64::from(self.transfer_multiplier))
    }

    /// Number of whole datapath cycles needed to cover `delay`.
    #[must_use]
    pub fn datapath_cycles_for(&self, delay: Nanos) -> u64 {
        self.datapath_cycle().cycles_to_cover(delay).max(1)
    }
}

impl fmt::Display for ClockConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "main {} (datapath ×{}, transfer ×{})",
            self.main, self.datapath_multiplier, self.transfer_multiplier
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_main() {
        assert_eq!(
            ClockConfig::new(Nanos::new(0.0), 1, 1).unwrap_err(),
            ClockConfigError::ZeroMainClock
        );
    }

    #[test]
    fn rejects_zero_multiplier() {
        assert_eq!(
            ClockConfig::new(Nanos::new(300.0), 0, 1).unwrap_err(),
            ClockConfigError::ZeroMultiplier
        );
        assert_eq!(
            ClockConfig::new(Nanos::new(300.0), 1, 0).unwrap_err(),
            ClockConfigError::ZeroMultiplier
        );
    }

    #[test]
    fn experiment_clock_families() {
        let exp1 = ClockConfig::new(Nanos::new(300.0), 10, 1).unwrap();
        assert_eq!(exp1.datapath_cycle().value(), 3000.0);
        assert!(!exp1.datapath_on_main_clock());
        let exp2 = ClockConfig::new(Nanos::new(300.0), 1, 1).unwrap();
        assert!(exp2.datapath_on_main_clock());
    }

    #[test]
    fn cycle_conversions() {
        let c = ClockConfig::new(Nanos::new(300.0), 10, 1).unwrap();
        assert_eq!(c.datapath_to_main(6).value(), 60);
        assert_eq!(c.transfer_to_main(6).value(), 6);
    }

    #[test]
    fn datapath_cycles_for_module_delays() {
        let c = ClockConfig::new(Nanos::new(300.0), 1, 1).unwrap();
        assert_eq!(c.datapath_cycles_for(Nanos::new(53.0)), 1);
        assert_eq!(c.datapath_cycles_for(Nanos::new(2950.0)), 10);
        assert_eq!(c.datapath_cycles_for(Nanos::new(7370.0)), 25);
        // Zero-delay is clamped to one cycle.
        assert_eq!(c.datapath_cycles_for(Nanos::new(0.0)), 1);
    }
}
