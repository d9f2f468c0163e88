//! Tunable model parameters of the predictor.

/// How BAD sweeps functional-unit counts per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationSweep {
    /// Every count from 1 up to the class's useful maximum — the paper's
    /// exhaustive serial-parallel exploration.
    #[default]
    Exhaustive,
    /// Powers of two only (1, 2, 4, …) — a coarse sweep for very wide
    /// graphs; an ablation of prediction-space density.
    PowersOfTwo,
}

impl AllocationSweep {
    /// The unit counts to try for a class whose useful maximum is `max`.
    #[must_use]
    pub fn counts(&self, max: usize) -> Vec<usize> {
        match self {
            AllocationSweep::Exhaustive => (1..=max.max(1)).collect(),
            AllocationSweep::PowersOfTwo => {
                let mut v = Vec::new();
                let mut n = 1usize;
                while n <= max.max(1) {
                    v.push(n);
                    n *= 2;
                }
                if *v.last().expect("non-empty") != max && max > 1 {
                    v.push(max);
                }
                v
            }
        }
    }
}

/// Calibration constants for BAD's area/delay models.
///
/// Defaults are tuned to the paper's 3 µm technology so that the standard
/// Table 1 / Table 2 experiments land in the reported ballpark; every
/// constant can be overridden for other technologies.
///
/// # Examples
///
/// ```
/// use chop_bad::PredictorParams;
///
/// let mut p = PredictorParams::default();
/// p.wiring_factor = 0.5; // pessimistic routing
/// assert!(p.wiring_factor > PredictorParams::default().wiring_factor);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorParams {
    /// Fractional uncertainty below the most-likely area.
    pub area_spread_below: f64,
    /// Fractional uncertainty above the most-likely area.
    pub area_spread_above: f64,
    /// Fractional uncertainty below the most-likely delay.
    pub delay_spread_below: f64,
    /// Fractional uncertainty above the most-likely delay.
    pub delay_spread_above: f64,
    /// Standard-cell routing area as a fraction of active (cell) area.
    pub wiring_factor: f64,
    /// PLA area per crosspoint, in mil² (3 µm technology).
    pub pla_cell_area: f64,
    /// Fixed PLA periphery delay, in ns.
    pub pla_base_delay: f64,
    /// Incremental PLA delay per input+term, in ns.
    pub pla_delay_per_line: f64,
    /// Wiring delay per unit of the block's linear dimension
    /// (ns per √mil² — wire length grows with the block's side).
    pub wiring_delay_factor: f64,
    /// Hard cap on functional units enumerated per class (keeps the sweep
    /// bounded on very wide graphs).
    pub max_units_per_class: usize,
    /// Which unit counts to enumerate per class.
    pub allocation_sweep: AllocationSweep,
}

impl Default for PredictorParams {
    fn default() -> Self {
        Self {
            area_spread_below: 0.08,
            area_spread_above: 0.10,
            delay_spread_below: 0.05,
            delay_spread_above: 0.12,
            wiring_factor: 0.20,
            pla_cell_area: 0.55,
            pla_base_delay: 18.0,
            pla_delay_per_line: 0.45,
            wiring_delay_factor: 0.05,
            max_units_per_class: 16,
            allocation_sweep: AllocationSweep::Exhaustive,
        }
    }
}

impl PredictorParams {
    /// Parameters with zero uncertainty — point predictions. Useful for
    /// ablating the probabilistic feasibility analysis.
    #[must_use]
    pub fn deterministic() -> Self {
        Self {
            area_spread_below: 0.0,
            area_spread_above: 0.0,
            delay_spread_below: 0.0,
            delay_spread_above: 0.0,
            ..Self::default()
        }
    }

    /// Validates that all fractions are non-negative and finite.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite values, or a zero unit cap.
    pub fn assert_valid(&self) {
        for (name, v) in [
            ("area_spread_below", self.area_spread_below),
            ("area_spread_above", self.area_spread_above),
            ("delay_spread_below", self.delay_spread_below),
            ("delay_spread_above", self.delay_spread_above),
            ("wiring_factor", self.wiring_factor),
            ("pla_cell_area", self.pla_cell_area),
            ("pla_base_delay", self.pla_base_delay),
            ("pla_delay_per_line", self.pla_delay_per_line),
            ("wiring_delay_factor", self.wiring_delay_factor),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{name} must be finite and non-negative");
        }
        assert!(self.max_units_per_class >= 1, "max_units_per_class must be at least 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        PredictorParams::default().assert_valid();
        assert_eq!(PredictorParams::default().allocation_sweep, AllocationSweep::Exhaustive);
    }

    #[test]
    fn sweep_counts() {
        assert_eq!(AllocationSweep::Exhaustive.counts(4), vec![1, 2, 3, 4]);
        assert_eq!(AllocationSweep::Exhaustive.counts(0), vec![1]);
        assert_eq!(AllocationSweep::PowersOfTwo.counts(8), vec![1, 2, 4, 8]);
        assert_eq!(AllocationSweep::PowersOfTwo.counts(6), vec![1, 2, 4, 6]);
        assert_eq!(AllocationSweep::PowersOfTwo.counts(1), vec![1]);
    }

    #[test]
    fn powers_of_two_subset_of_exhaustive() {
        for max in 1..=20usize {
            let p = AllocationSweep::PowersOfTwo.counts(max);
            let e = AllocationSweep::Exhaustive.counts(max);
            assert!(p.iter().all(|n| e.contains(n)), "max={max}");
            assert!(p.len() <= e.len());
            // The extremes are always covered.
            assert_eq!(*p.first().unwrap(), 1);
            assert_eq!(*p.last().unwrap(), max.max(1));
        }
    }

    #[test]
    fn deterministic_has_no_spread() {
        let p = PredictorParams::deterministic();
        assert_eq!(p.area_spread_below, 0.0);
        assert_eq!(p.area_spread_above, 0.0);
        p.assert_valid();
    }

    #[test]
    #[should_panic(expected = "wiring_factor")]
    fn negative_factor_panics() {
        let p = PredictorParams { wiring_factor: -0.1, ..PredictorParams::default() };
        p.assert_valid();
    }
}
