//! Testability overhead — the paper's §5: "In order to synthesize highly
//! testable designs while still satisfying design constraints, the
//! testability overheads for area, delay, performance and pin count have
//! to be considered in the prediction mechanism."
//!
//! A [`TestabilityOverhead`] scales every chip's predicted area, loads the
//! clock cycle and reserves scan pins; enable it per session with
//! [`crate::Session::with_testability`].

use std::fmt;

/// Overheads a scan-based test strategy adds to every chip.
///
/// # Examples
///
/// ```
/// use chop_core::testability::TestabilityOverhead;
///
/// let t = TestabilityOverhead::full_scan();
/// assert!(t.area_fraction > 0.0);
/// assert!(t.scan_pins >= 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestabilityOverhead {
    /// Fractional area increase (scan flip-flops, test controller).
    pub area_fraction: f64,
    /// Fractional clock-cycle increase (scan multiplexers in every
    /// register path).
    pub clock_fraction: f64,
    /// Pins reserved per chip for the scan interface (scan-in, scan-out,
    /// test enable…).
    pub scan_pins: u32,
}

impl TestabilityOverhead {
    /// A typical full-scan discipline: ~15 % area, ~5 % clock, 3 pins.
    #[must_use]
    pub fn full_scan() -> Self {
        Self { area_fraction: 0.15, clock_fraction: 0.05, scan_pins: 3 }
    }

    /// A lighter partial-scan discipline: ~7 % area, ~2 % clock, 3 pins.
    #[must_use]
    pub fn partial_scan() -> Self {
        Self { area_fraction: 0.07, clock_fraction: 0.02, scan_pins: 3 }
    }

    /// No overhead (the identity element).
    #[must_use]
    pub fn none() -> Self {
        Self { area_fraction: 0.0, clock_fraction: 0.0, scan_pins: 0 }
    }

    /// Validates the fractions.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite fractions.
    pub fn assert_valid(&self) {
        assert!(
            self.area_fraction.is_finite() && self.area_fraction >= 0.0,
            "area fraction must be finite and non-negative"
        );
        assert!(
            self.clock_fraction.is_finite() && self.clock_fraction >= 0.0,
            "clock fraction must be finite and non-negative"
        );
    }
}

impl Default for TestabilityOverhead {
    fn default() -> Self {
        Self::none()
    }
}

impl fmt::Display for TestabilityOverhead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "testability(+{:.0}% area, +{:.0}% clock, {} scan pins)",
            self.area_fraction * 100.0,
            self.clock_fraction * 100.0,
            self.scan_pins
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_ordered() {
        let full = TestabilityOverhead::full_scan();
        let partial = TestabilityOverhead::partial_scan();
        assert!(full.area_fraction > partial.area_fraction);
        assert!(full.clock_fraction > partial.clock_fraction);
        full.assert_valid();
        partial.assert_valid();
        TestabilityOverhead::none().assert_valid();
    }

    #[test]
    #[should_panic(expected = "area fraction")]
    fn negative_fraction_panics() {
        let t = TestabilityOverhead { area_fraction: -0.1, ..TestabilityOverhead::none() };
        t.assert_valid();
    }

    #[test]
    fn display_renders() {
        assert!(TestabilityOverhead::full_scan().to_string().contains("15%"));
    }
}
