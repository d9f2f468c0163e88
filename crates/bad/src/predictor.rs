//! The BAD prediction sweep.

use std::collections::BTreeMap;
use std::fmt;

use chop_dfg::{analysis, Dfg, OpClass};
use chop_library::{HwModule, Library, LibraryError, ModuleSet};
use chop_sched::lifetime::{max_live_bits_pipelined_where, max_live_bits_where};
use chop_sched::pipeline::min_initiation_interval;
use chop_sched::{ListPlan, NodeSpec, ResourceMap, ScheduleError};
use chop_stat::units::Bits;
use chop_stat::Estimate;

use crate::area::{wiring_area, PlaSpec};
use crate::clock::ClockConfig;
use crate::params::PredictorParams;
use crate::prediction::{DesignDetail, PredictedDesign};
use crate::style::{ArchitectureStyle, DesignStyle, OperationTiming};
use crate::sweep::{Candidate, Sweep};

/// Error produced by [`Predictor::predict`].
#[derive(Debug)]
pub enum PredictError {
    /// The library cannot implement the partition (missing class, register
    /// or multiplexer).
    Library(LibraryError),
    /// Internal scheduling failed (should not happen for validated inputs).
    Schedule(ScheduleError),
    /// No module set fits the architecture style (e.g. every multiplier is
    /// slower than the single-cycle datapath clock).
    NoUsableModuleSet,
    /// The predictor panicked; the payload is the panic message. Produced
    /// by callers that isolate a prediction with `catch_unwind` so one
    /// poisoned partition cannot abort a whole exploration.
    Panicked(String),
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::Library(e) => write!(f, "library cannot serve partition: {e}"),
            PredictError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            PredictError::NoUsableModuleSet => {
                write!(f, "no module set fits the architecture style and clocking")
            }
            PredictError::Panicked(message) => {
                write!(f, "predictor panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PredictError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PredictError::Library(e) => Some(e),
            PredictError::Schedule(e) => Some(e),
            PredictError::NoUsableModuleSet | PredictError::Panicked(_) => None,
        }
    }
}

impl From<LibraryError> for PredictError {
    fn from(e: LibraryError) -> Self {
        PredictError::Library(e)
    }
}

impl From<ScheduleError> for PredictError {
    fn from(e: ScheduleError) -> Self {
        PredictError::Schedule(e)
    }
}

/// The Behavioral Area-Delay predictor.
///
/// See the [crate-level documentation](crate) for the model and an example.
#[derive(Debug, Clone)]
pub struct Predictor {
    library: Library,
    clocks: ClockConfig,
    style: ArchitectureStyle,
    params: PredictorParams,
}

impl Predictor {
    /// Creates a predictor.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`PredictorParams::assert_valid`].
    #[must_use]
    pub fn new(
        library: Library,
        clocks: ClockConfig,
        style: ArchitectureStyle,
        params: PredictorParams,
    ) -> Self {
        params.assert_valid();
        Self { library, clocks, style, params }
    }

    /// The component library in use.
    #[must_use]
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// The clock configuration in use.
    #[must_use]
    pub fn clocks(&self) -> &ClockConfig {
        &self.clocks
    }

    /// The architecture style in use.
    #[must_use]
    pub fn style(&self) -> &ArchitectureStyle {
        &self.style
    }

    /// The model parameters in use.
    #[must_use]
    pub fn params(&self) -> &PredictorParams {
        &self.params
    }

    /// Enumerates predicted implementations of a partition: every
    /// candidate of [`Predictor::sweep`], filled in, in emission order.
    ///
    /// No pruning happens here — that is CHOP's job ([`crate::prune`]), so
    /// the caller can also observe the whole design space (paper Tables
    /// 3/5, Figures 7/8). A caller that prunes anyway should use
    /// [`Sweep::prune`], which builds full designs only for the survivors.
    ///
    /// # Errors
    ///
    /// As [`Predictor::sweep`].
    pub fn predict(&self, dfg: &Dfg) -> Result<Vec<PredictedDesign>, PredictError> {
        Ok(self.sweep(dfg)?.into_designs())
    }

    /// Runs BAD's sweep over a partition and keeps its candidates without
    /// their identities (see [`Sweep`]).
    ///
    /// Sweeps every module set × functional-unit allocation × design style
    /// the architecture allows, schedules each candidate and attaches the
    /// full area/overhead model.
    ///
    /// A candidate's schedule, initiation interval and live register bits
    /// depend only on its per-class cycle counts (the *duration vector*),
    /// its allocation and its style — not on which modules supply those
    /// cycle counts. So each distinct duration vector is scheduled once per
    /// call, when the first module set yielding it comes up, and every
    /// module set sharing it reuses those points (under single-cycle timing
    /// every usable set shares the all-ones vector). Each module set's
    /// modules, op counts and cycle counts are resolved once per set.
    /// Candidates come in module set, then allocation, then style order.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::Library`] if the library lacks a register, a
    /// multiplexer or a module for a class used by the partition, and
    /// [`PredictError::NoUsableModuleSet`] if the style/clocking excludes
    /// every module set (single-cycle operation with a datapath cycle
    /// shorter than every module of some class).
    pub fn sweep(&self, dfg: &Dfg) -> Result<Sweep, PredictError> {
        let hist = dfg.op_histogram();
        let classes = hist.classes();
        self.library.check_supports(classes.iter().copied())?;
        let memory_bandwidth = memory_bandwidth(dfg);

        if classes.is_empty() {
            let trivial =
                Candidate { design: self.trivial_design(), module_set: 0, allocation: 0 };
            return Ok(Sweep::new(
                vec![trivial],
                vec![ModuleSet::empty()],
                vec![ResourceMap::new()],
                memory_bandwidth,
            ));
        }

        let register = self.library.register().expect("checked by check_supports");
        let mux = self.library.multiplexer().expect("checked by check_supports");
        let ops: Vec<u64> = classes.iter().map(|&c| hist.count_class(c) as u64).collect();
        let peak = peak_parallelism(dfg, &classes);
        let allocations = allocation_sweep(
            &classes,
            &hist,
            &peak,
            self.params.max_units_per_class,
            self.params.allocation_sweep,
        );
        let module_sets = self.library.module_sets(classes.iter().copied());
        let mut points_by_durations: BTreeMap<Vec<u64>, Vec<ScheduledPoint>> = BTreeMap::new();
        let mut candidates = Vec::new();
        let mut any_set_usable = false;

        for (set_index, module_set) in module_sets.iter().enumerate() {
            let Some(units) = self.resolve(module_set, &classes, &ops) else {
                continue; // module set unusable for this style
            };
            any_set_usable = true;
            let durations: Vec<u64> = units.iter().map(|u| u.cycles).collect();
            if !points_by_durations.contains_key(&durations) {
                let points = self.schedule_points(dfg, &classes, &durations, &allocations)?;
                points_by_durations.insert(durations.clone(), points);
            }
            for point in &points_by_durations[&durations] {
                candidates.push(Candidate {
                    design: self.assemble(
                        register,
                        mux,
                        &units,
                        &allocations[point.allocation],
                        point,
                    ),
                    module_set: set_index,
                    allocation: point.allocation,
                });
            }
        }
        if !any_set_usable {
            return Err(PredictError::NoUsableModuleSet);
        }
        Ok(Sweep::new(candidates, module_sets, allocations, memory_bandwidth))
    }

    /// Schedules every allocation × allowed style under one duration
    /// vector (`durations[i]` is the cycle count of `classes[i]`), in
    /// allocation then style order. The list-scheduling plan is compiled
    /// once here and scheduled once per allocation.
    fn schedule_points(
        &self,
        dfg: &Dfg,
        classes: &[OpClass],
        durations: &[u64],
        allocations: &[ResourceMap],
    ) -> Result<Vec<ScheduledPoint>, ScheduleError> {
        let cycles = |class| {
            durations[classes.binary_search(&class).expect("the partition's own class")]
        };
        let specs = NodeSpec::from_fn(
            dfg,
            |id| match dfg.node(id).op() {
                op if op.is_memory_access() => 1,
                op => op.class().map_or(0, cycles),
            },
            |id| dfg.node(id).op().class(),
        );
        // Hardwired constants and externally buffered primary inputs don't
        // occupy datapath registers; the input buffering lives in CHOP's
        // data-transfer modules.
        let keep = |e: &chop_dfg::Edge| {
            !matches!(
                dfg.node(e.src()).op(),
                chop_dfg::Operation::Const | chop_dfg::Operation::Input
            )
        };
        let plan = ListPlan::compile(dfg, &specs)?;
        let styles = self.style.styles();
        let mut points = Vec::with_capacity(allocations.len() * styles.len());
        for (index, allocation) in allocations.iter().enumerate() {
            let schedule = plan.schedule(allocation)?;
            let stages = schedule.makespan().max(1);
            for &style in &styles {
                let (ii_dp, register_bits) = match style {
                    DesignStyle::NonPipelined => {
                        (stages, max_live_bits_where(dfg, &schedule, keep))
                    }
                    DesignStyle::Pipelined => {
                        let ii = min_initiation_interval(dfg, &specs, &schedule, allocation);
                        if ii >= stages {
                            // Degenerates to the non-pipelined design.
                            continue;
                        }
                        (ii, max_live_bits_pipelined_where(dfg, &schedule, ii, keep))
                    }
                };
                points.push(ScheduledPoint {
                    allocation: index,
                    style,
                    stages,
                    ii_dp,
                    register_bits,
                });
            }
        }
        Ok(points)
    }

    /// Resolves a module set against the partition's classes: each class's
    /// module, op count (`ops[i]` for `classes[i]`) and cycle count, in
    /// class order. `None` if the set is unusable for the architecture
    /// style.
    fn resolve<'lib>(
        &'lib self,
        module_set: &ModuleSet,
        classes: &[OpClass],
        ops: &[u64],
    ) -> Option<Vec<UnitModel<'lib>>> {
        classes
            .iter()
            .zip(ops)
            .map(|(&class, &count)| {
                let module = module_set.module_for(&self.library, class)?;
                let cycles = match self.style.timing() {
                    OperationTiming::SingleCycle => {
                        if module.delay().value() > self.clocks.datapath_cycle().value() {
                            return None;
                        }
                        1
                    }
                    OperationTiming::MultiCycle => {
                        self.clocks.datapath_cycles_for(module.delay())
                    }
                };
                Some(UnitModel { class, module, ops: count, cycles })
            })
            .collect()
    }

    /// Full area/overhead model for one scheduled candidate, without its
    /// identity (module set, allocation, memory bandwidth).
    fn assemble(
        &self,
        register: &HwModule,
        mux: &HwModule,
        units: &[UnitModel<'_>],
        allocation: &ResourceMap,
        point: &ScheduledPoint,
    ) -> PredictedDesign {
        let &ScheduledPoint { style, stages, ii_dp, register_bits, .. } = point;
        let word = Bits::new(16);

        // Functional-unit area and steering estimate.
        let mut fu_area = 0.0;
        let mut fu_power = 0.0;
        let mut word_muxes = 0u64;
        let mut total_units = 0u64;
        let mut max_ops_per_unit = 1u64;
        for ((class, count), unit) in allocation.iter().zip(units) {
            debug_assert_eq!(class, unit.class, "allocations cover the classes in order");
            let module = unit.module;
            fu_area += module.area().value() * count as f64;
            // Dynamic power scales with utilization: the fraction of one
            // initiation interval each unit spends busy.
            let busy_cycles = unit.ops as f64 * unit.cycles as f64;
            let utilization = (busy_cycles / (count as f64 * ii_dp as f64)).min(1.0);
            fu_power += module.power().value() * count as f64 * utilization;
            let count = count as u64;
            total_units += count;
            let ops_per_unit = unit.ops.div_ceil(count.max(1));
            max_ops_per_unit = max_ops_per_unit.max(ops_per_unit);
            // Two input ports per unit, one 2:1 mux tree level per extra
            // source feeding each port.
            word_muxes += count * 2 * ops_per_unit.saturating_sub(1);
        }
        // Register-file input steering: roughly one 2:1 slice per stored bit.
        let mux_count = word_muxes * word.value() + register_bits.value();
        let reg_words = register_bits.value().div_ceil(word.value());

        // Controller: one state per schedule step, controls for mux selects,
        // register enables and unit strobes.
        let control_outputs =
            u32::try_from(word_muxes + reg_words + total_units).unwrap_or(u32::MAX);
        let controller = PlaSpec::for_fsm(stages, control_outputs, 2);

        let reg_area = register.area_at_width(register_bits).value();
        let mux_area = mux.area().value() * mux_count as f64;
        let pla_area = controller.area(&self.params).value();
        let active = fu_area + reg_area + mux_area + pla_area;
        let wiring = wiring_area(chop_stat::units::SquareMils::new(active), &self.params);
        let total_area = active + wiring.value();
        let area = Estimate::with_spreads(
            total_area,
            self.params.area_spread_below,
            self.params.area_spread_above,
        );

        // Clock-cycle overhead: register prop/setup + mux tree + wiring
        // (scaling with the block's linear dimension) + controller.
        let mux_levels = (64 - max_ops_per_unit.leading_zeros()).max(1);
        let overhead_ns = register.delay().value()
            + mux.delay().value() * f64::from(mux_levels)
            + self.params.wiring_delay_factor * active.sqrt()
            + controller.delay(&self.params).value();
        let clock_overhead = Estimate::with_spreads(
            overhead_ns,
            self.params.delay_spread_below,
            self.params.delay_spread_above,
        );

        // Power: utilization-scaled functional units plus steering,
        // storage and controller overhead at half activity.
        let overhead_power =
            (reg_area + mux_area + pla_area) * chop_library::DEFAULT_POWER_DENSITY * 0.5;
        let power = Estimate::with_spreads(
            fu_power + overhead_power,
            self.params.area_spread_below,
            self.params.area_spread_above,
        );

        PredictedDesign::new(
            style,
            ModuleSet::empty(),
            ResourceMap::new(),
            self.clocks.datapath_to_main(ii_dp),
            self.clocks.datapath_to_main(stages),
            area,
            clock_overhead,
            power,
            DesignDetail { stages, register_bits, mux_count, controller },
            BTreeMap::new(),
        )
    }

    /// A zero-datapath design for partitions with no functional-unit
    /// operations (pure routing / memory staging), without its memory
    /// bandwidth.
    fn trivial_design(&self) -> PredictedDesign {
        let controller = PlaSpec::for_fsm(1, 1, 1);
        let area = controller.area(&self.params).value();
        PredictedDesign::new(
            DesignStyle::NonPipelined,
            ModuleSet::empty(),
            ResourceMap::new(),
            self.clocks.datapath_to_main(1),
            self.clocks.datapath_to_main(1),
            Estimate::with_spreads(
                area,
                self.params.area_spread_below,
                self.params.area_spread_above,
            ),
            Estimate::exact(0.0),
            Estimate::exact(area * chop_library::DEFAULT_POWER_DENSITY * 0.5),
            DesignDetail { stages: 1, register_bits: Bits::zero(), mux_count: 0, controller },
            BTreeMap::new(),
        )
    }
}

/// One class of a module set, resolved once per set: its module, its
/// operation count in the partition and its cycle count.
struct UnitModel<'lib> {
    class: OpClass,
    module: &'lib HwModule,
    ops: u64,
    cycles: u64,
}

/// Everything about a candidate that depends only on its duration vector,
/// allocation and style — shared by every module set with that vector.
struct ScheduledPoint {
    /// Index into the call's allocation sweep.
    allocation: usize,
    style: DesignStyle,
    /// Schedule length in datapath cycles — also the latency.
    stages: u64,
    ii_dp: u64,
    register_bits: Bits,
}

/// Memory accesses per initiation, per block — the same for every design
/// of a partition.
fn memory_bandwidth(dfg: &Dfg) -> BTreeMap<u32, u64> {
    let mut bandwidth = BTreeMap::new();
    for (_, node) in dfg.nodes() {
        if let Some(m) = node.op().memory() {
            *bandwidth.entry(m.index()).or_insert(0) += 1;
        }
    }
    bandwidth
}

/// Peak operations per class on one unit-delay ASAP level — the sweep's
/// cap on unit counts. It bounds what a schedule can use only where every
/// operation takes one cycle and no class is short of units: then the
/// list schedule is the ASAP one, which runs each level in one cycle. It
/// is not a bound otherwise. Operations deferred for want of a unit of one
/// class can bunch up in another, and under multi-cycle timing operations
/// of different levels overlap even with unlimited units: a 3-cycle
/// multiply at level 1 still runs when a multiply at level 2, fed by a
/// 1-cycle add, starts, so two multipliers are busy although each level
/// holds one multiply. Widening the cap changes BAD's design lists.
fn peak_parallelism(dfg: &Dfg, classes: &[OpClass]) -> BTreeMap<OpClass, usize> {
    let levels = analysis::asap_levels(dfg);
    let mut per_level: BTreeMap<(OpClass, u32), usize> = BTreeMap::new();
    for (id, node) in dfg.nodes() {
        if let Some(class) = node.op().class() {
            *per_level.entry((class, levels[id.index()])).or_insert(0) += 1;
        }
    }
    let mut peak = BTreeMap::new();
    for &class in classes {
        let p = per_level
            .iter()
            .filter(|((c, _), _)| *c == class)
            .map(|(_, n)| *n)
            .max()
            .unwrap_or(1);
        peak.insert(class, p.max(1));
    }
    peak
}

/// Cartesian sweep of unit counts: for each class, the strategy's counts
/// up to `min(op count, peak parallelism, cap)` instances.
fn allocation_sweep(
    classes: &[OpClass],
    hist: &chop_dfg::OpHistogram,
    peak: &BTreeMap<OpClass, usize>,
    cap: usize,
    strategy: crate::params::AllocationSweep,
) -> Vec<ResourceMap> {
    let ranges: Vec<(OpClass, Vec<usize>)> = classes
        .iter()
        .map(|&c| {
            let max = hist.count_class(c).min(peak[&c]).min(cap).max(1);
            (c, strategy.counts(max))
        })
        .collect();
    let mut result = vec![ResourceMap::new()];
    for (class, counts) in ranges {
        let mut next = Vec::with_capacity(result.len() * counts.len());
        for alloc in &result {
            for &n in &counts {
                let mut a = alloc.clone();
                a.set(class, n);
                next.push(a);
            }
        }
        result = next;
    }
    result
}

#[cfg(test)]
mod tests {
    use chop_dfg::benchmarks;
    use chop_library::standard::table1_library;
    use chop_stat::units::Nanos;

    use super::*;

    fn exp1_predictor() -> Predictor {
        Predictor::new(
            table1_library(),
            ClockConfig::new(Nanos::new(300.0), 10, 1).unwrap(),
            ArchitectureStyle::single_cycle(),
            PredictorParams::default(),
        )
    }

    fn exp2_predictor() -> Predictor {
        Predictor::new(
            table1_library(),
            ClockConfig::new(Nanos::new(300.0), 1, 1).unwrap(),
            ArchitectureStyle::multi_cycle(),
            PredictorParams::default(),
        )
    }

    #[test]
    fn exp1_produces_designs() {
        let designs = exp1_predictor().predict(&benchmarks::ar_lattice_filter()).unwrap();
        // Order-of-magnitude check against Table 3 (111 predictions for the
        // single-partition case).
        assert!(designs.len() >= 40, "got {}", designs.len());
        assert!(designs.len() <= 1000, "got {}", designs.len());
    }

    #[test]
    fn exp2_space_is_larger_than_exp1() {
        let ar = benchmarks::ar_lattice_filter();
        let d1 = exp1_predictor().predict(&ar).unwrap();
        let d2 = exp2_predictor().predict(&ar).unwrap();
        // Table 5 vs Table 3: the multi-cycle space is strictly larger
        // (656 vs 111 in the paper) because slow modules become usable.
        assert!(d2.len() > d1.len(), "exp2 {} <= exp1 {}", d2.len(), d1.len());
    }

    #[test]
    fn single_cycle_excludes_slow_multipliers() {
        let designs = exp1_predictor().predict(&benchmarks::ar_lattice_filter()).unwrap();
        for d in &designs {
            let name = d.module_set().name_for(OpClass::Multiplication).unwrap();
            // mul3 (7370 ns) cannot fit a 3000 ns single-cycle datapath.
            assert_ne!(name, "mul3");
        }
    }

    #[test]
    fn multi_cycle_admits_all_multipliers() {
        let designs = exp2_predictor().predict(&benchmarks::ar_lattice_filter()).unwrap();
        let names: std::collections::BTreeSet<&str> = designs
            .iter()
            .filter_map(|d| d.module_set().name_for(OpClass::Multiplication))
            .collect();
        assert!(names.contains("mul1"));
        assert!(names.contains("mul2"));
        assert!(names.contains("mul3"));
    }

    #[test]
    fn pipelined_designs_have_shorter_ii() {
        let designs = exp2_predictor().predict(&benchmarks::ar_lattice_filter()).unwrap();
        let pipelined: Vec<_> =
            designs.iter().filter(|d| d.style() == DesignStyle::Pipelined).collect();
        assert!(!pipelined.is_empty());
        for d in pipelined {
            assert!(d.initiation_interval().value() < d.latency().value());
        }
    }

    #[test]
    fn more_units_cost_more_area_and_less_time() {
        let designs = exp2_predictor().predict(&benchmarks::ar_lattice_filter()).unwrap();
        // Compare fully-serial vs widest allocation for one module set and
        // non-pipelined style.
        let target_set = designs[0].module_set().clone();
        let np: Vec<_> = designs
            .iter()
            .filter(|d| d.style() == DesignStyle::NonPipelined && *d.module_set() == target_set)
            .collect();
        let serial = np
            .iter()
            .min_by_key(|d| {
                d.allocation().get(OpClass::Multiplication)
                    + d.allocation().get(OpClass::Addition)
            })
            .unwrap();
        let parallel = np
            .iter()
            .max_by_key(|d| {
                d.allocation().get(OpClass::Multiplication)
                    + d.allocation().get(OpClass::Addition)
            })
            .unwrap();
        assert!(parallel.area().likely() > serial.area().likely());
        assert!(parallel.latency() <= serial.latency());
    }

    #[test]
    fn trivial_partition_predicted() {
        use chop_dfg::{DfgBuilder, Operation};
        use chop_stat::units::Bits;
        let mut b = DfgBuilder::new();
        let i = b.node(Operation::Input, Bits::new(16));
        let o = b.node(Operation::Output, Bits::new(16));
        b.connect(i, o).unwrap();
        let g = b.build().unwrap();
        let designs = exp1_predictor().predict(&g).unwrap();
        assert_eq!(designs.len(), 1);
        assert_eq!(designs[0].detail().register_bits.value(), 0);
    }

    #[test]
    fn peak_parallelism_is_no_bound_under_multi_cycle_timing() {
        use chop_dfg::{DfgBuilder, Operation};
        let w = Bits::new(16);
        let mut b = DfgBuilder::new();
        let x = b.node(Operation::Input, w);
        let y = b.node(Operation::Input, w);
        let first = b.node(Operation::Mul, w);
        let add = b.node(Operation::Add, w);
        let second = b.node(Operation::Mul, w);
        for (src, dst) in
            [(x, first), (y, first), (x, add), (y, add), (add, second), (y, second)]
        {
            b.connect(src, dst).unwrap();
        }
        for v in [first, second] {
            let o = b.node(Operation::Output, w);
            b.connect(v, o).unwrap();
        }
        let g = b.build().unwrap();
        let classes = g.op_histogram().classes();
        assert_eq!(peak_parallelism(&g, &classes)[&OpClass::Multiplication], 1);
        // A 3-cycle multiply and a 1-cycle add: the multiplies overlap.
        let specs = NodeSpec::from_fn(
            &g,
            |id| match g.node(id).op().class() {
                Some(OpClass::Multiplication) => 3,
                Some(_) => 1,
                None => 0,
            },
            |id| g.node(id).op().class(),
        );
        let alloc: ResourceMap =
            [(OpClass::Addition, 1), (OpClass::Multiplication, 2)].into_iter().collect();
        let s = ListPlan::compile(&g, &specs).unwrap().schedule(&alloc).unwrap();
        assert!(s.start(second) < s.finish(first), "both multipliers busy at once");
    }

    #[test]
    fn missing_class_is_reported() {
        let g = benchmarks::diffeq(); // needs a comparator
        let err = exp1_predictor().predict(&g).unwrap_err();
        assert!(matches!(err, PredictError::Library(LibraryError::NoImplementation(_))));
    }

    #[test]
    fn no_usable_module_set_reported() {
        // A 100 ns single-cycle datapath clock is faster than every adder
        // except add1 (34), but slower than no multiplier except none —
        // mul1 is 375 ns, so multiplication has no usable module.
        let p = Predictor::new(
            table1_library(),
            ClockConfig::new(Nanos::new(100.0), 1, 1).unwrap(),
            ArchitectureStyle::single_cycle(),
            PredictorParams::default(),
        );
        let err = p.predict(&benchmarks::ar_lattice_filter()).unwrap_err();
        assert!(matches!(err, PredictError::NoUsableModuleSet));
    }

    #[test]
    fn guidelines_render() {
        let lib = table1_library();
        let designs = exp2_predictor().predict(&benchmarks::fir_filter(4)).unwrap();
        let text = designs[0].guideline(&lib);
        assert!(text.contains("registers"));
        assert!(text.contains("multiplexers"));
    }

    #[test]
    fn powers_of_two_sweep_shrinks_the_space_but_keeps_extremes() {
        use crate::params::AllocationSweep;
        let ar = benchmarks::ar_lattice_filter();
        let full = exp2_predictor().predict(&ar).unwrap();
        let coarse = Predictor::new(
            table1_library(),
            ClockConfig::new(Nanos::new(300.0), 1, 1).unwrap(),
            ArchitectureStyle::multi_cycle(),
            PredictorParams {
                allocation_sweep: AllocationSweep::PowersOfTwo,
                ..PredictorParams::default()
            },
        )
        .predict(&ar)
        .unwrap();
        assert!(coarse.len() < full.len());
        // The fastest and slowest points survive the coarse sweep.
        let extreme = |designs: &[PredictedDesign]| {
            let min = designs.iter().map(|d| d.initiation_interval()).min().unwrap();
            let max = designs.iter().map(|d| d.initiation_interval()).max().unwrap();
            (min, max)
        };
        assert_eq!(extreme(&coarse), extreme(&full));
    }

    #[test]
    fn power_positive_and_rises_with_throughput() {
        let designs = exp2_predictor().predict(&benchmarks::ar_lattice_filter()).unwrap();
        for d in &designs {
            assert!(d.power().likely() > 0.0);
        }
        // Among designs sharing a module set, the fastest initiation
        // interval burns at least as much functional-unit power as the
        // slowest (utilization ≥).
        let set = designs[0].module_set().clone();
        let same: Vec<_> = designs.iter().filter(|d| *d.module_set() == set).collect();
        let fast = same.iter().min_by_key(|d| d.initiation_interval()).unwrap();
        let slow = same.iter().max_by_key(|d| d.initiation_interval()).unwrap();
        assert!(
            fast.power().likely() >= slow.power().likely() * 0.5,
            "fast {} vs slow {}",
            fast.power().likely(),
            slow.power().likely()
        );
    }

    #[test]
    fn memory_bandwidth_counted() {
        use chop_dfg::{DfgBuilder, MemoryRef, Operation};
        use chop_stat::units::Bits;
        let mut b = DfgBuilder::new();
        let w = Bits::new(16);
        let m = MemoryRef::new(0);
        let r1 = b.node(Operation::MemRead(m), w);
        let r2 = b.node(Operation::MemRead(m), w);
        let addr = b.node(Operation::Input, w);
        b.connect(addr, r1).unwrap();
        b.connect(addr, r2).unwrap();
        let a = b.node(Operation::Add, w);
        b.connect(r1, a).unwrap();
        b.connect(r2, a).unwrap();
        let o = b.node(Operation::Output, w);
        b.connect(a, o).unwrap();
        let g = b.build().unwrap();
        let designs = exp2_predictor().predict(&g).unwrap();
        assert_eq!(designs[0].memory_bandwidth().get(&0), Some(&2));
    }
}
