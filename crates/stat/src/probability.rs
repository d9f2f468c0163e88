//! Probability and feasibility-threshold newtypes.

use std::cmp::Ordering;
use std::fmt;

/// A probability in `[0, 1]`.
///
/// CHOP's feasibility analysis compares probabilities of constraint
/// satisfaction against designer-chosen thresholds; keeping them in a
/// newtype prevents them from being mixed up with areas, delays or spread
/// fractions.
///
/// # Examples
///
/// ```
/// use chop_stat::Probability;
///
/// let p = Probability::new(0.8);
/// assert!(p >= Probability::new(0.5));
/// assert_eq!(Probability::certain().value(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probability(f64);

impl Probability {
    /// Creates a probability, clamping into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(!p.is_nan(), "probability must not be NaN");
        Self(p.clamp(0.0, 1.0))
    }

    /// Probability 1.
    #[must_use]
    pub fn certain() -> Self {
        Self(1.0)
    }

    /// Probability 0.
    #[must_use]
    pub fn impossible() -> Self {
        Self(0.0)
    }

    /// The underlying value in `[0, 1]`.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.0
    }

    /// Whether this probability meets a feasibility threshold.
    ///
    /// Thresholds of exactly 1.0 are treated with a small epsilon so that a
    /// probability computed as `1.0 - 1e-16` by floating-point CDF machinery
    /// still counts as certain.
    #[must_use]
    pub fn meets(&self, threshold: FeasibilityThreshold) -> bool {
        self.0 + 1e-9 >= threshold.0 .0
    }
}

impl Default for Probability {
    fn default() -> Self {
        Self::impossible()
    }
}

impl Eq for Probability {}

impl PartialOrd for Probability {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Probability {
    fn cmp(&self, other: &Self) -> Ordering {
        // Values are clamped and NaN-free by construction.
        self.0.partial_cmp(&other.0).expect("probabilities are never NaN")
    }
}

impl fmt::Display for Probability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

/// A designer-chosen confidence level a feasibility probability must reach.
///
/// The paper's experiments use 100 % for performance and chip area and 80 %
/// for system delay.
///
/// # Examples
///
/// ```
/// use chop_stat::{FeasibilityThreshold, Probability};
///
/// let t = FeasibilityThreshold::new(0.8);
/// assert!(Probability::new(0.85).meets(t));
/// assert!(!Probability::new(0.75).meets(t));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FeasibilityThreshold(Probability);

impl FeasibilityThreshold {
    /// Creates a threshold from a probability value in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    #[must_use]
    pub fn new(p: f64) -> Self {
        Self(Probability::new(p))
    }

    /// Requires certainty (probability 1.0).
    #[must_use]
    pub fn certain() -> Self {
        Self(Probability::certain())
    }

    /// The threshold probability.
    #[must_use]
    pub fn probability(&self) -> Probability {
        self.0
    }
}

impl Default for FeasibilityThreshold {
    fn default() -> Self {
        Self::certain()
    }
}

impl fmt::Display for FeasibilityThreshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "≥{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clamps() {
        assert_eq!(Probability::new(1.5).value(), 1.0);
        assert_eq!(Probability::new(-0.5).value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_panics() {
        let _ = Probability::new(f64::NAN);
    }

    #[test]
    fn meets_handles_float_noise_at_one() {
        let nearly = Probability::new(1.0 - 1e-12);
        assert!(nearly.meets(FeasibilityThreshold::certain()));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [Probability::new(0.9), Probability::new(0.1), Probability::new(0.5)];
        v.sort();
        assert_eq!(v[0].value(), 0.1);
        assert_eq!(v[2].value(), 0.9);
    }

    #[test]
    fn threshold_display() {
        assert_eq!(FeasibilityThreshold::new(0.8).to_string(), "≥80.0%");
    }
}
