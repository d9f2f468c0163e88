//! Area and delay models: PLA controllers and standard-cell wiring.
//!
//! BAD predicts "PLA-based controller area, and standard cell routing
//! area" (paper §2.4); the same PLA model also sizes CHOP's data-transfer
//! module controllers ("the wait and data transfer times are used to
//! predict the number of inputs, outputs and product terms of a PLA to
//! control the data transfer, from which PLA size and delay are predicted
//! by the same methods used in BAD", §2.5).

use std::fmt;

use chop_stat::units::{Nanos, SquareMils};

use crate::params::PredictorParams;

/// A PLA controller specification: inputs, outputs and product terms.
///
/// # Examples
///
/// ```
/// use chop_bad::area::PlaSpec;
/// use chop_bad::PredictorParams;
///
/// let pla = PlaSpec::new(6, 20, 30);
/// let p = PredictorParams::default();
/// assert!(pla.area(&p).value() > 0.0);
/// assert!(pla.delay(&p).value() > p.pla_base_delay - 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlaSpec {
    inputs: u32,
    outputs: u32,
    terms: u32,
}

impl PlaSpec {
    /// Creates a PLA spec.
    #[must_use]
    pub fn new(inputs: u32, outputs: u32, terms: u32) -> Self {
        Self { inputs, outputs, terms }
    }

    /// Sizes the controller of a finite-state machine with `states` states
    /// driving `control_outputs` control lines, with `status_inputs`
    /// external status bits.
    ///
    /// Inputs are the state register feedback plus status; product terms
    /// approximate one per state transition.
    #[must_use]
    pub fn for_fsm(states: u64, control_outputs: u32, status_inputs: u32) -> Self {
        let state_bits =
            if states <= 1 { 1 } else { (64 - (states - 1).leading_zeros()).max(1) };
        let inputs = state_bits + status_inputs;
        let outputs = control_outputs + state_bits;
        let terms =
            u32::try_from(states.max(1)).unwrap_or(u32::MAX).saturating_add(status_inputs);
        Self { inputs, outputs, terms }
    }

    /// Number of PLA inputs.
    #[must_use]
    pub fn inputs(&self) -> u32 {
        self.inputs
    }

    /// Number of PLA outputs.
    #[must_use]
    pub fn outputs(&self) -> u32 {
        self.outputs
    }

    /// Number of product terms.
    #[must_use]
    pub fn terms(&self) -> u32 {
        self.terms
    }

    /// PLA area: `(2·inputs + outputs) · terms` crosspoints at the
    /// technology's crosspoint area.
    #[must_use]
    pub fn area(&self, params: &PredictorParams) -> SquareMils {
        let crosspoints =
            f64::from(2 * self.inputs + self.outputs) * f64::from(self.terms.max(1));
        SquareMils::new(crosspoints * params.pla_cell_area)
    }

    /// PLA propagation delay: base periphery delay plus a per-line term.
    #[must_use]
    pub fn delay(&self, params: &PredictorParams) -> Nanos {
        Nanos::new(
            params.pla_base_delay
                + params.pla_delay_per_line * f64::from(self.inputs + self.terms),
        )
    }
}

impl fmt::Display for PlaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PLA({} in, {} out, {} terms)", self.inputs, self.outputs, self.terms)
    }
}

/// Standard-cell routing area for a block of active area.
///
/// # Examples
///
/// ```
/// use chop_bad::area::wiring_area;
/// use chop_bad::PredictorParams;
/// use chop_stat::units::SquareMils;
///
/// let p = PredictorParams::default();
/// let w = wiring_area(SquareMils::new(10_000.0), &p);
/// assert_eq!(w.value(), 10_000.0 * p.wiring_factor);
/// ```
#[must_use]
pub fn wiring_area(active: SquareMils, params: &PredictorParams) -> SquareMils {
    SquareMils::new(active.value() * params.wiring_factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsm_sizing_scales_with_states() {
        let small = PlaSpec::for_fsm(4, 10, 1);
        let large = PlaSpec::for_fsm(64, 10, 1);
        assert!(large.inputs() > small.inputs());
        assert!(large.terms() > small.terms());
        let p = PredictorParams::default();
        assert!(large.area(&p).value() > small.area(&p).value());
        assert!(large.delay(&p).value() > small.delay(&p).value());
    }

    #[test]
    fn fsm_single_state_still_sized() {
        let pla = PlaSpec::for_fsm(1, 2, 0);
        assert_eq!(pla.inputs(), 1);
        assert!(pla.terms() >= 1);
        assert!(pla.area(&PredictorParams::default()).value() > 0.0);
    }

    #[test]
    fn area_formula_matches() {
        let pla = PlaSpec::new(3, 4, 10);
        let p = PredictorParams { pla_cell_area: 1.0, ..PredictorParams::default() };
        // (2*3 + 4) * 10 = 100 crosspoints.
        assert_eq!(pla.area(&p).value(), 100.0);
    }

    #[test]
    fn wiring_proportional_to_active() {
        let p = PredictorParams::default();
        let a = wiring_area(SquareMils::new(1000.0), &p).value();
        let b = wiring_area(SquareMils::new(2000.0), &p).value();
        assert!((b - 2.0 * a).abs() < 1e-9);
    }

    #[test]
    fn state_bits_rounding() {
        // 30-ish states need 5 state bits.
        let pla = PlaSpec::for_fsm(30, 0, 0);
        assert_eq!(pla.inputs(), 5);
        // Exactly a power of two: 32 states also need 5 bits.
        let pla32 = PlaSpec::for_fsm(32, 0, 0);
        assert_eq!(pla32.inputs(), 5);
        let pla33 = PlaSpec::for_fsm(33, 0, 0);
        assert_eq!(pla33.inputs(), 6);
    }
}
