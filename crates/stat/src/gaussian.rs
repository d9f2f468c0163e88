//! Moment-matched Gaussian approximations and the error function.

use std::fmt;

use crate::probability::Probability;

/// Dependency-free error function (Abramowitz & Stegun 7.1.26, |ε| ≤ 1.5e-7).
///
/// # Examples
///
/// ```
/// use chop_stat::erf;
///
/// assert!((erf(0.0)).abs() < 1e-7);
/// assert!((erf(1.0) - 0.8427007).abs() < 1e-6);
/// assert!((erf(-1.0) + 0.8427007).abs() < 1e-6);
/// ```
#[must_use]
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cumulative distribution function Φ.
///
/// # Examples
///
/// ```
/// use chop_stat::normal_cdf;
///
/// assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
/// assert!(normal_cdf(3.0) > 0.99);
/// ```
#[must_use]
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// A Gaussian random variable `N(mean, var)` used to approximate sums and
/// maxima of prediction triplets.
///
/// The max operation uses Clark's moment-matching equations — the same
/// machinery statistical static-timing analyzers use for `max` of arrival
/// times — which keeps CHOP's probabilistic critical-path estimates closed
/// under combination.
///
/// # Examples
///
/// ```
/// use chop_stat::Gaussian;
///
/// let a = Gaussian::new(10.0, 4.0);
/// let b = Gaussian::new(12.0, 1.0);
/// let m = a.clark_max(&b);
/// assert!(m.mean() >= 12.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    var: f64,
}

impl Gaussian {
    /// Creates a Gaussian from mean and variance.
    ///
    /// # Panics
    ///
    /// Panics if `var` is negative or either argument is non-finite.
    #[must_use]
    pub fn new(mean: f64, var: f64) -> Self {
        assert!(mean.is_finite() && var.is_finite(), "gaussian moments must be finite");
        assert!(var >= 0.0, "variance must be non-negative");
        Self { mean, var }
    }

    /// Mean of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Variance of the distribution.
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.var
    }

    /// Standard deviation of the distribution.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.var.sqrt()
    }

    /// Sum of two independent Gaussians.
    #[must_use]
    pub fn add(&self, other: &Gaussian) -> Gaussian {
        Gaussian::new(self.mean + other.mean, self.var + other.var)
    }

    /// Probability that the variable is at most `limit`.
    ///
    /// A zero-variance Gaussian degenerates to a step at its mean.
    #[must_use]
    pub fn probability_le(&self, limit: f64) -> Probability {
        if self.var == 0.0 {
            return if self.mean <= limit {
                Probability::certain()
            } else {
                Probability::impossible()
            };
        }
        Probability::new(normal_cdf((limit - self.mean) / self.std_dev()))
    }

    /// Clark's approximation of `max(self, other)` for independent Gaussians.
    ///
    /// Matches the first two moments of the true maximum (C. E. Clark, "The
    /// greatest of a finite set of random variables", 1961).
    #[must_use]
    pub fn clark_max(&self, other: &Gaussian) -> Gaussian {
        let a2 = self.var + other.var;
        if a2 == 0.0 {
            return Gaussian::new(self.mean.max(other.mean), 0.0);
        }
        let a = a2.sqrt();
        let alpha = (self.mean - other.mean) / a;
        let phi = |x: f64| (-x * x / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let cap_phi = normal_cdf;
        let mean = self.mean * cap_phi(alpha) + other.mean * cap_phi(-alpha) + a * phi(alpha);
        let second = (self.mean * self.mean + self.var) * cap_phi(alpha)
            + (other.mean * other.mean + other.var) * cap_phi(-alpha)
            + (self.mean + other.mean) * a * phi(alpha);
        let var = (second - mean * mean).max(0.0);
        Gaussian::new(mean, var)
    }
}

impl fmt::Display for Gaussian {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N({:.2}, {:.2})", self.mean, self.var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.5) - 0.5204999).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953223).abs() < 1e-6);
    }

    #[test]
    fn erf_is_odd() {
        for x in [0.1, 0.7, 1.3, 2.5] {
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
        }
    }

    #[test]
    fn cdf_monotone() {
        let mut last = 0.0;
        for i in -40..=40 {
            let p = normal_cdf(f64::from(i) / 10.0);
            assert!(p >= last - 1e-12);
            last = p;
        }
    }

    #[test]
    fn probability_le_zero_variance_is_step() {
        let g = Gaussian::new(5.0, 0.0);
        assert_eq!(g.probability_le(4.9).value(), 0.0);
        assert_eq!(g.probability_le(5.0).value(), 1.0);
    }

    #[test]
    fn add_sums_moments() {
        let s = Gaussian::new(1.0, 2.0).add(&Gaussian::new(3.0, 4.0));
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.variance(), 6.0);
    }

    #[test]
    fn clark_max_dominates_both_means() {
        let a = Gaussian::new(10.0, 4.0);
        let b = Gaussian::new(12.0, 9.0);
        let m = a.clark_max(&b);
        assert!(m.mean() >= 12.0);
        assert!(m.mean() < 20.0);
    }

    #[test]
    fn clark_max_degenerate_matches_deterministic_max() {
        let a = Gaussian::new(10.0, 0.0);
        let b = Gaussian::new(12.0, 0.0);
        let m = a.clark_max(&b);
        assert_eq!(m.mean(), 12.0);
        assert_eq!(m.variance(), 0.0);
    }

    #[test]
    fn clark_max_far_apart_picks_larger() {
        let a = Gaussian::new(0.0, 1.0);
        let b = Gaussian::new(100.0, 1.0);
        let m = a.clark_max(&b);
        assert!((m.mean() - 100.0).abs() < 1e-6);
        assert!((m.variance() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn clark_max_symmetric_case() {
        // max of two iid N(0,1): mean = 1/sqrt(pi), var = 1 - 1/pi.
        let a = Gaussian::new(0.0, 1.0);
        let m = a.clark_max(&a);
        assert!((m.mean() - 1.0 / std::f64::consts::PI.sqrt()).abs() < 1e-6);
        assert!((m.variance() - (1.0 - 1.0 / std::f64::consts::PI)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "variance")]
    fn negative_variance_panics() {
        let _ = Gaussian::new(0.0, -1.0);
    }
}
