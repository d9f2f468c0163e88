//! Predicted implementations of a partition.

use std::collections::BTreeMap;
use std::fmt;

use chop_dfg::OpClass;
use chop_library::{Library, ModuleSet};
use chop_sched::ResourceMap;
use chop_stat::units::{Bits, Cycles};
use chop_stat::Estimate;

use crate::area::PlaSpec;
use crate::style::DesignStyle;

/// Structural detail of a predicted design — the "design decisions and
/// prediction results" CHOP outputs as a guideline for the designer
/// (paper §3.1 lists exactly these: design style and stages, module
/// library, adder/multiplier counts, register bits, 1-bit 2-to-1
/// multiplexers).
#[derive(Debug, Clone, PartialEq)]
pub struct DesignDetail {
    /// Schedule length in datapath cycles ("stages").
    pub stages: u64,
    /// Register bits in the datapath.
    pub register_bits: Bits,
    /// 1-bit 2:1 multiplexer slices.
    pub mux_count: u64,
    /// The predicted PLA controller.
    pub controller: PlaSpec,
}

/// One predicted implementation of a partition, as produced by BAD.
///
/// Performance (`initiation_interval`) and delay (`latency`) are in *main*
/// clock cycles so CHOP can mix partitions with different datapath clocks;
/// area and clock-cycle overhead are probability triplets.
///
/// # Examples
///
/// ```
/// use chop_bad::{ArchitectureStyle, ClockConfig, Predictor, PredictorParams};
/// use chop_dfg::benchmarks;
/// use chop_library::standard::table1_library;
/// use chop_stat::units::Nanos;
///
/// let clocks = ClockConfig::new(Nanos::new(300.0), 10, 1)?;
/// let predictor = Predictor::new(
///     table1_library(), clocks, ArchitectureStyle::single_cycle(),
///     PredictorParams::default(),
/// );
/// let designs = predictor.predict(&benchmarks::ar_lattice_filter())?;
/// let d = &designs[0];
/// assert!(d.initiation_interval().value() >= 1);
/// assert!(d.latency().value() >= d.initiation_interval().value());
/// assert!(d.area().likely() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedDesign {
    style: DesignStyle,
    module_set: ModuleSet,
    allocation: ResourceMap,
    initiation_interval: Cycles,
    latency: Cycles,
    area: Estimate,
    clock_overhead: Estimate,
    power: Estimate,
    detail: DesignDetail,
    memory_bandwidth: BTreeMap<u32, u64>,
}

impl PredictedDesign {
    /// Assembles a predicted design (used by the predictor and by tests
    /// that need synthetic predictions).
    ///
    /// # Panics
    ///
    /// Panics if the initiation interval is zero or exceeds the latency.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        style: DesignStyle,
        module_set: ModuleSet,
        allocation: ResourceMap,
        initiation_interval: Cycles,
        latency: Cycles,
        area: Estimate,
        clock_overhead: Estimate,
        power: Estimate,
        detail: DesignDetail,
        memory_bandwidth: BTreeMap<u32, u64>,
    ) -> Self {
        assert!(initiation_interval.value() >= 1, "initiation interval must be positive");
        assert!(
            initiation_interval.value() <= latency.value(),
            "initiation interval cannot exceed latency"
        );
        Self {
            style,
            module_set,
            allocation,
            initiation_interval,
            latency,
            area,
            clock_overhead,
            power,
            detail,
            memory_bandwidth,
        }
    }

    /// The same design with its identity filled in: a sweep candidate is
    /// built with an empty module set, allocation and bandwidth map.
    pub(crate) fn with_identity(
        self,
        module_set: ModuleSet,
        allocation: ResourceMap,
        memory_bandwidth: BTreeMap<u32, u64>,
    ) -> Self {
        Self { module_set, allocation, memory_bandwidth, ..self }
    }

    /// The design style.
    #[must_use]
    pub fn style(&self) -> DesignStyle {
        self.style
    }

    /// The chosen module per operation class.
    #[must_use]
    pub fn module_set(&self) -> &ModuleSet {
        &self.module_set
    }

    /// Functional units allocated per class.
    #[must_use]
    pub fn allocation(&self) -> &ResourceMap {
        &self.allocation
    }

    /// Cycles between successive initiations, in main-clock cycles.
    #[must_use]
    pub fn initiation_interval(&self) -> Cycles {
        self.initiation_interval
    }

    /// Input-to-output latency, in main-clock cycles.
    #[must_use]
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// Predicted silicon area (functional units, registers, multiplexers,
    /// controller and wiring), in mil².
    #[must_use]
    pub fn area(&self) -> Estimate {
        self.area
    }

    /// Delay this design adds to its clock cycle (register, multiplexer,
    /// wiring and controller delays), in ns.
    #[must_use]
    pub fn clock_overhead(&self) -> Estimate {
        self.clock_overhead
    }

    /// Predicted power consumption in mW (functional units scaled by
    /// utilization, plus steering/storage/controller overhead) — the power
    /// extension the paper lists as future research.
    #[must_use]
    pub fn power(&self) -> Estimate {
        self.power
    }

    /// Structural details (stages, registers, muxes, controller).
    #[must_use]
    pub fn detail(&self) -> &DesignDetail {
        &self.detail
    }

    /// Accesses per initiation for each referenced memory block.
    #[must_use]
    pub fn memory_bandwidth(&self) -> &BTreeMap<u32, u64> {
        &self.memory_bandwidth
    }

    /// Whether this design is at least as good as `other` on every axis
    /// (most-likely area, initiation interval, latency) and strictly better
    /// on at least one — the "inferiority" relation behind CHOP's pruning.
    #[must_use]
    pub fn dominates(&self, other: &PredictedDesign) -> bool {
        let le = self.area.likely() <= other.area.likely()
            && self.initiation_interval <= other.initiation_interval
            && self.latency <= other.latency;
        let lt = self.area.likely() < other.area.likely()
            || self.initiation_interval < other.initiation_interval
            || self.latency < other.latency;
        le && lt
    }

    /// A stable key identifying the *externally observable* design point
    /// (style, II, latency, rounded area) — used to count unique designs in
    /// the paper's Figures 7/8.
    #[must_use]
    pub fn design_point_key(&self) -> (u8, u64, u64, u64) {
        (
            match self.style {
                DesignStyle::Pipelined => 0,
                DesignStyle::NonPipelined => 1,
            },
            self.initiation_interval.value(),
            self.latency.value(),
            self.area.likely().round() as u64,
        )
    }

    /// Renders the §3.1-style designer guideline for this design.
    ///
    /// # Examples
    ///
    /// ```
    /// use chop_bad::{ArchitectureStyle, ClockConfig, Predictor, PredictorParams};
    /// use chop_dfg::benchmarks;
    /// use chop_library::standard::table1_library;
    /// use chop_stat::units::Nanos;
    ///
    /// let clocks = ClockConfig::new(Nanos::new(300.0), 1, 1)?;
    /// let lib = table1_library();
    /// let predictor = Predictor::new(
    ///     lib.clone(), clocks, ArchitectureStyle::multi_cycle(),
    ///     PredictorParams::default(),
    /// );
    /// let designs = predictor.predict(&benchmarks::fir_filter(4))?;
    /// let text = designs[0].guideline(&lib);
    /// assert!(text.contains("design style"));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn guideline(&self, library: &Library) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "- a {} design style with {} stages,",
            self.style, self.detail.stages
        );
        let modules: Vec<String> =
            self.module_set.iter().map(|(_, name)| name.to_owned()).collect();
        if !modules.is_empty() {
            let _ = writeln!(out, "- module library of {},", modules.join(" and "));
        }
        let fu: Vec<String> = self
            .allocation
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(class, n)| {
                let unit = match class {
                    OpClass::Addition => "adder(s)",
                    OpClass::Multiplication => "multiplier(s)",
                    _ => "unit(s)",
                };
                let name = self
                    .module_set
                    .module_for(library, class)
                    .map(|m| format!(" [{}]", m.name()))
                    .unwrap_or_default();
                format!("{n} {unit}{name}")
            })
            .collect();
        if !fu.is_empty() {
            let _ = writeln!(out, "- {},", fu.join(" and "));
        }
        let _ = writeln!(
            out,
            "- {} bits of registers for the data path,",
            self.detail.register_bits.value()
        );
        let _ = writeln!(out, "- {} 1-bit 2-to-1 multiplexers,", self.detail.mux_count);
        let _ = writeln!(out, "- a {} controller.", self.detail.controller);
        out
    }
}

impl fmt::Display for PredictedDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} II={} L={} area={}",
            self.style,
            self.initiation_interval.value(),
            self.latency.value(),
            self.area
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(ii: u64, lat: u64, area: f64) -> PredictedDesign {
        PredictedDesign::new(
            DesignStyle::NonPipelined,
            ModuleSet::empty(),
            ResourceMap::new(),
            Cycles::new(ii),
            Cycles::new(lat),
            Estimate::with_spread(area, 0.1),
            Estimate::exact(10.0),
            Estimate::exact(100.0),
            DesignDetail {
                stages: lat,
                register_bits: Bits::new(32),
                mux_count: 8,
                controller: PlaSpec::new(3, 4, 8),
            },
            BTreeMap::new(),
        )
    }

    #[test]
    fn dominance_is_strict_pareto() {
        let a = mk(10, 20, 1000.0);
        let better = mk(8, 20, 1000.0);
        let worse = mk(12, 25, 2000.0);
        let tradeoff = mk(8, 20, 2000.0);
        assert!(better.dominates(&a));
        assert!(a.dominates(&worse));
        assert!(!a.dominates(&a.clone()));
        assert!(!tradeoff.dominates(&a));
        assert!(!a.dominates(&tradeoff));
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_ii_panics() {
        let _ = mk(0, 10, 1.0);
    }

    #[test]
    #[should_panic(expected = "exceed latency")]
    fn ii_beyond_latency_panics() {
        let _ = mk(20, 10, 1.0);
    }

    #[test]
    fn design_point_key_discriminates() {
        assert_ne!(
            mk(10, 20, 1000.0).design_point_key(),
            mk(11, 20, 1000.0).design_point_key()
        );
        assert_eq!(
            mk(10, 20, 1000.4).design_point_key(),
            mk(10, 20, 1000.0).design_point_key()
        );
    }

    #[test]
    fn display_mentions_style() {
        assert!(mk(5, 5, 10.0).to_string().contains("non-pipelined"));
    }
}
