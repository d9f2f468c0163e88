//! The (lower, most-likely, upper) triplet estimate.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

use crate::probability::Probability;

/// Error returned when constructing an ill-formed [`Estimate`].
#[derive(Debug, Clone, PartialEq)]
pub enum EstimateError {
    /// The triplet was not ordered `lo <= likely <= hi`.
    Unordered {
        /// Offending lower bound.
        lo: f64,
        /// Offending most-likely value.
        likely: f64,
        /// Offending upper bound.
        hi: f64,
    },
    /// A bound was NaN or infinite.
    NonFinite,
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::Unordered { lo, likely, hi } => {
                write!(f, "estimate triplet not ordered: lo={lo}, likely={likely}, hi={hi}")
            }
            EstimateError::NonFinite => write!(f, "estimate bounds must be finite"),
        }
    }
}

impl std::error::Error for EstimateError {}

/// A prediction triplet: lower bound, most-likely value and upper bound.
///
/// All BAD and CHOP prediction results are stored in this form (paper §2.6:
/// "All prediction results (in the form of a triplet: a lower bound, a most
/// likely and an upper bound value) are stored in a statistical
/// environment"). The paper does not say how triplets combine; this type
/// carries one stated model:
///
/// * A triplet is read as a triangular distribution on `[lo, hi]` with mode
///   `likely`. [`Estimate::probability_le`] is its CDF, and every
///   feasibility verdict compares that CDF with a threshold.
/// * `+` sums bounds and modes. The sum's bounds are sound under any
///   dependence between the terms. Its CDF is exact for comonotone terms of
///   one shape: one uniform draw drives every term, and each term's mode
///   sits at the same fraction of its range (copies of one triplet, say).
///   For independent terms the true sum is more concentrated, and the two
///   CDFs cross near the sum's mean `(lo + likely + hi) / 3`: above it the
///   triplet reads pessimistic, below it optimistic. For symmetric terms
///   that point is the summed mode; for right-skewed terms it lies above.
/// * [`Estimate::max`] is the component-wise upper envelope.
///
/// `tests/sampling.rs` checks the CDF and both readings of a sum against
/// Monte Carlo sampling.
///
/// # Examples
///
/// ```
/// use chop_stat::Estimate;
///
/// let a = Estimate::new(90.0, 100.0, 130.0)?;
/// let b = Estimate::exact(40.0);
/// let sum = a + b;
/// assert_eq!(sum.likely(), 140.0);
/// assert_eq!(sum.lo(), 130.0);
/// # Ok::<(), chop_stat::EstimateError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    lo: f64,
    likely: f64,
    hi: f64,
}

impl Estimate {
    /// Creates an estimate from explicit bounds.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::Unordered`] unless `lo <= likely <= hi`, and
    /// [`EstimateError::NonFinite`] if any bound is NaN or infinite.
    pub fn new(lo: f64, likely: f64, hi: f64) -> Result<Self, EstimateError> {
        if !(lo.is_finite() && likely.is_finite() && hi.is_finite()) {
            return Err(EstimateError::NonFinite);
        }
        if !(lo <= likely && likely <= hi) {
            return Err(EstimateError::Unordered { lo, likely, hi });
        }
        Ok(Self { lo, likely, hi })
    }

    /// Creates a degenerate estimate that is known exactly.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    #[must_use]
    pub fn exact(value: f64) -> Self {
        assert!(value.is_finite(), "exact estimate must be finite");
        Self { lo: value, likely: value, hi: value }
    }

    /// Creates an estimate `likely ± spread·likely`.
    ///
    /// This is the canonical way predictor models attach uncertainty to a
    /// most-likely prediction. `spread` is a fraction (0.15 means ±15 %).
    ///
    /// # Panics
    ///
    /// Panics if `likely` is negative or non-finite, or `spread` is negative.
    #[must_use]
    pub fn with_spread(likely: f64, spread: f64) -> Self {
        assert!(likely.is_finite() && likely >= 0.0, "likely must be finite and non-negative");
        assert!(spread.is_finite() && spread >= 0.0, "spread must be finite and non-negative");
        Self { lo: likely * (1.0 - spread).max(0.0), likely, hi: likely * (1.0 + spread) }
    }

    /// Creates an estimate with asymmetric fractional spreads below/above.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Estimate::with_spread`].
    #[must_use]
    pub fn with_spreads(likely: f64, below: f64, above: f64) -> Self {
        assert!(likely.is_finite() && likely >= 0.0, "likely must be finite and non-negative");
        assert!(below >= 0.0 && above >= 0.0, "spreads must be non-negative");
        Self { lo: likely * (1.0 - below).max(0.0), likely, hi: likely * (1.0 + above) }
    }

    /// The zero estimate (identity for [`Add`]).
    #[must_use]
    pub fn zero() -> Self {
        Self::exact(0.0)
    }

    /// Lower bound of the triplet.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Most-likely value of the triplet.
    #[must_use]
    pub fn likely(&self) -> f64 {
        self.likely
    }

    /// Upper bound of the triplet.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Probability that the predicted quantity is at most `limit`: the CDF
    /// of the triangular distribution on `[lo, hi]` with mode `likely`.
    ///
    /// `limit < lo` yields 0 and `limit >= hi` yields 1, so an exact
    /// estimate compares directly. Under the paper's criteria, area and
    /// performance must hold with probability 1.0 and so read only the `hi`
    /// bound; how a sum's terms combine matters only for the delay and power
    /// tests (threshold 0.8), and there only when the limit lies strictly
    /// between `lo` and `hi`.
    #[must_use]
    pub fn probability_le(&self, limit: f64) -> Probability {
        if limit >= self.hi {
            return Probability::certain();
        }
        if limit < self.lo {
            return Probability::impossible();
        }
        let (a, c, b) = (self.lo, self.likely, self.hi);
        // Triangular CDF; the earlier guards ensure a <= limit < b and a < b.
        let p = if limit <= c {
            if c > a {
                (limit - a) * (limit - a) / ((b - a) * (c - a))
            } else {
                // lo == likely: left edge is a step into the descending side.
                1.0 - (b - limit) * (b - limit) / ((b - a) * (b - c))
            }
        } else if b > c {
            1.0 - (b - limit) * (b - limit) / ((b - a) * (b - c))
        } else {
            1.0
        };
        Probability::new(p.clamp(0.0, 1.0))
    }

    /// Component-wise maximum of two estimates: the upper envelope of the
    /// two triplets. Its bounds are sound under any dependence, like a
    /// sum's.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Self {
            lo: self.lo.max(other.lo),
            likely: self.likely.max(other.likely),
            hi: self.hi.max(other.hi),
        }
    }
}

impl Default for Estimate {
    fn default() -> Self {
        Self::zero()
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.1} / {:.1} / {:.1}]", self.lo, self.likely, self.hi)
    }
}

impl Add for Estimate {
    type Output = Estimate;

    /// Sums bounds and modes: the result's `lo`, `likely` and `hi` are the
    /// sums of the terms' `lo`, `likely` and `hi`. The bounds hold whatever
    /// the dependence between the terms; the CDF is exact for comonotone
    /// terms of one shape (see [`Estimate`]).
    fn add(self, rhs: Estimate) -> Estimate {
        Estimate {
            lo: self.lo + rhs.lo,
            likely: self.likely + rhs.likely,
            hi: self.hi + rhs.hi,
        }
    }
}

impl AddAssign for Estimate {
    fn add_assign(&mut self, rhs: Estimate) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for Estimate {
    type Output = Estimate;

    /// Scales the triplet by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is negative (a negative scale would flip the bound
    /// ordering silently).
    fn mul(self, rhs: f64) -> Estimate {
        assert!(rhs >= 0.0, "estimate scale factor must be non-negative");
        Estimate { lo: self.lo * rhs, likely: self.likely * rhs, hi: self.hi * rhs }
    }
}

impl Sum for Estimate {
    fn sum<I: Iterator<Item = Estimate>>(iter: I) -> Estimate {
        iter.fold(Estimate::zero(), |acc, e| acc + e)
    }
}

impl From<f64> for Estimate {
    fn from(value: f64) -> Self {
        Estimate::exact(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_unordered() {
        assert!(matches!(Estimate::new(2.0, 1.0, 3.0), Err(EstimateError::Unordered { .. })));
        assert!(matches!(Estimate::new(1.0, 5.0, 3.0), Err(EstimateError::Unordered { .. })));
    }

    #[test]
    fn new_rejects_non_finite() {
        assert_eq!(Estimate::new(f64::NAN, 1.0, 2.0), Err(EstimateError::NonFinite));
        assert_eq!(Estimate::new(0.0, 1.0, f64::INFINITY), Err(EstimateError::NonFinite));
    }

    #[test]
    fn exact_is_degenerate() {
        let e = Estimate::exact(7.0);
        assert_eq!(e.lo(), 7.0);
        assert_eq!(e.likely(), 7.0);
        assert_eq!(e.hi(), 7.0);
    }

    #[test]
    fn with_spread_brackets_likely() {
        let e = Estimate::with_spread(100.0, 0.2);
        assert!((e.lo() - 80.0).abs() < 1e-9);
        assert!((e.hi() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn with_spread_clamps_lower_bound_at_zero() {
        let e = Estimate::with_spread(10.0, 2.0);
        assert_eq!(e.lo(), 0.0);
    }

    #[test]
    fn sum_adds_componentwise() {
        let a = Estimate::new(1.0, 2.0, 3.0).unwrap();
        let b = Estimate::new(10.0, 20.0, 30.0).unwrap();
        let s = a + b;
        assert_eq!((s.lo(), s.likely(), s.hi()), (11.0, 22.0, 33.0));
    }

    #[test]
    fn probability_le_respects_bounds() {
        let e = Estimate::new(10.0, 20.0, 40.0).unwrap();
        assert_eq!(e.probability_le(9.0).value(), 0.0);
        assert_eq!(e.probability_le(40.0).value(), 1.0);
        assert_eq!(e.probability_le(50.0).value(), 1.0);
        let mid = e.probability_le(20.0).value();
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn probability_le_matches_triangular_cdf() {
        let e = Estimate::new(0.0, 5.0, 10.0).unwrap();
        // Symmetric triangle: CDF at mode is 0.5.
        assert!((e.probability_le(5.0).value() - 0.5).abs() < 1e-12);
        // CDF at 2.5 = (2.5)^2 / (10 * 5) = 0.125.
        assert!((e.probability_le(2.5).value() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn probability_le_exact_estimate_is_step() {
        let e = Estimate::exact(5.0);
        assert_eq!(e.probability_le(4.999).value(), 0.0);
        assert_eq!(e.probability_le(5.0).value(), 1.0);
    }

    #[test]
    fn probability_le_left_degenerate_triangle() {
        // lo == likely < hi: descending density.
        let e = Estimate::new(5.0, 5.0, 15.0).unwrap();
        assert_eq!(e.probability_le(4.0).value(), 0.0);
        assert!((e.probability_le(5.0).value() - 0.0).abs() < 1e-12);
        assert!(e.probability_le(10.0).value() > 0.5);
        assert_eq!(e.probability_le(15.0).value(), 1.0);
    }

    #[test]
    fn probability_le_right_degenerate_triangle() {
        // lo < likely == hi: ascending density.
        let e = Estimate::new(5.0, 15.0, 15.0).unwrap();
        assert!(e.probability_le(10.0).value() < 0.5);
        assert_eq!(e.probability_le(15.0).value(), 1.0);
    }

    #[test]
    fn scaling_scales_all_components() {
        let e = Estimate::new(1.0, 2.0, 4.0).unwrap() * 2.5;
        assert_eq!((e.lo(), e.likely(), e.hi()), (2.5, 5.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_scale_panics() {
        let _ = Estimate::exact(1.0) * -1.0;
    }

    #[test]
    fn max_is_componentwise() {
        let a = Estimate::new(1.0, 5.0, 6.0).unwrap();
        let b = Estimate::new(2.0, 3.0, 9.0).unwrap();
        let m = a.max(b);
        assert_eq!((m.lo(), m.likely(), m.hi()), (2.0, 5.0, 9.0));
    }

    #[test]
    fn sum_trait_and_helper_agree() {
        let xs = [
            Estimate::with_spread(10.0, 0.1),
            Estimate::with_spread(20.0, 0.2),
            Estimate::exact(5.0),
        ];
        let a: Estimate = xs.iter().copied().sum();
        assert_eq!(a, xs[0] + xs[1] + xs[2]);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Estimate::with_spread(10.0, 0.1).to_string();
        assert!(s.contains('/'));
    }
}
