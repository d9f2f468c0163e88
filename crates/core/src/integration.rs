//! System-integration prediction: transfer bandwidths, urgency scheduling,
//! buffers, transfer modules, adjusted clock and the feasibility verdict.
//!
//! "System integration predictions basically involve predicting data
//! transfer module characteristics and, of course, the performance and
//! delay characteristics of the overall system" (paper §2.5).

use std::fmt;
use std::sync::Arc;

use chop_bad::area::PlaSpec;
use chop_bad::{ClockConfig, DesignStyle, PredictedDesign, PredictorParams};
use chop_library::Library;
use chop_sched::urgency::{
    ResourceId, SchedulePolicy, TaskGraph, TaskId, TaskPlan, TaskScratch, UrgencyError,
};
use chop_stat::units::{Bits, Cycles};
use chop_stat::Estimate;

use crate::error::ChopError;
use crate::feasibility::{Constraints, FeasibilityCriteria, Verdict, Violation};
use crate::spec::{MemoryAssignment, Partitioning};
use crate::testability::TestabilityOverhead;
use crate::transfer::{
    chip_of_endpoint, is_off_chip, pin_budgets, transfer_specs, Endpoint, PinBudget,
    TransferSpec,
};

/// Predicted characteristics of one data-transfer module.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferModulePrediction {
    /// The transfer this module implements.
    pub spec: TransferSpec,
    /// Pins used on each involved chip during the transfer.
    pub pins: u32,
    /// Transfer duration `X` in main-clock cycles.
    pub duration: Cycles,
    /// Wait time `W` before the transfer starts, in main-clock cycles.
    pub wait: Cycles,
    /// Predicted buffer size `B = D·(⌈W/l⌉ + X/l)` in bits.
    pub buffer_bits: Bits,
    /// The module's PLA controller.
    pub controller: PlaSpec,
}

impl fmt::Display for TransferModulePrediction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} pins, X={}, W={}, buffer {}",
            self.spec,
            self.pins,
            self.duration.value(),
            self.wait.value(),
            self.buffer_bits
        )
    }
}

/// The integrated prediction for one combination of partition
/// implementations at one initiation interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemPrediction {
    /// System initiation interval in main-clock cycles.
    pub initiation_interval: Cycles,
    /// System delay (task-graph makespan) in main-clock cycles.
    pub delay: Cycles,
    /// Adjusted clock-cycle estimate in ns (main clock plus integration
    /// overhead).
    pub clock: Estimate,
    /// Initiation interval in ns.
    pub initiation_ns: Estimate,
    /// System delay in ns.
    pub delay_ns: Estimate,
    /// Per-chip area estimates (partitions + transfer modules + memories +
    /// pin multiplexing).
    pub chip_areas: Vec<Estimate>,
    /// Total system power estimate in mW (partitions + transfer modules).
    pub power: Estimate,
    /// Per-transfer module predictions.
    pub transfer_modules: Vec<TransferModulePrediction>,
    /// The feasibility verdict.
    pub verdict: Verdict,
}

impl SystemPrediction {
    /// Whether this prediction dominates another on (II, delay) in ns —
    /// the inferiority relation used to report only non-inferior designs.
    #[must_use]
    pub fn dominates(&self, other: &SystemPrediction) -> bool {
        let le = self.initiation_ns.likely() <= other.initiation_ns.likely()
            && self.delay_ns.likely() <= other.delay_ns.likely();
        let lt = self.initiation_ns.likely() < other.initiation_ns.likely()
            || self.delay_ns.likely() < other.delay_ns.likely();
        le && lt
    }
}

impl fmt::Display for SystemPrediction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "II={} delay={} clock={:.0} ns [{}]",
            self.initiation_interval.value(),
            self.delay.value(),
            self.clock.likely(),
            self.verdict
        )
    }
}

/// Read-only view of one design choice per partition. The public
/// [`IntegrationContext::evaluate`] takes the reference-slice form; the
/// engine's scoring hot path uses [`IndexedSelection`] to evaluate through
/// index slices into the shared prediction lists without materializing a
/// `Vec<&PredictedDesign>` per candidate.
pub(crate) trait SelectionView {
    /// Number of partitions selected for.
    fn len(&self) -> usize;
    /// The chosen design of `partition`.
    fn design(&self, partition: usize) -> &PredictedDesign;
}

impl SelectionView for &[&PredictedDesign] {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn design(&self, partition: usize) -> &PredictedDesign {
        self[partition]
    }
}

/// Allocation-free selection: one index per partition into the engine's
/// per-partition prediction lists.
pub(crate) struct IndexedSelection<'a> {
    /// Per-partition prediction lists, in partition order.
    pub lists: &'a [Arc<[PredictedDesign]>],
    /// Chosen design index per partition, in partition order.
    pub indices: &'a [u32],
}

impl SelectionView for IndexedSelection<'_> {
    fn len(&self) -> usize {
        self.indices.len()
    }

    fn design(&self, partition: usize) -> &PredictedDesign {
        &self.lists[partition][self.indices[partition] as usize]
    }
}

/// The selection-independent task-graph skeleton used by the search's
/// branch-and-bound delay lower bound: transfer durations are fixed per
/// partitioning, only the per-partition task weights (latencies) vary with
/// the candidate. Task ids: `0..partitions` are partition tasks,
/// `partitions + t` is transfer task `t`.
#[derive(Debug, Clone)]
pub(crate) struct DelayGraph {
    partitions: usize,
    /// Per-task weights: zero for partitions, `X` for transfers.
    weights: Vec<u64>,
    /// The compiled task plan; `None` when the graph is cyclic (then the
    /// bound degrades to "no pruning").
    plan: Option<TaskPlan>,
}

impl DelayGraph {
    /// Longest dependency path (ignoring resource contention) with the
    /// given per-partition weights — a lower bound on every schedule
    /// makespan over this skeleton. `dist` is caller-owned scratch so the
    /// search loop stays allocation-free.
    pub(crate) fn longest_path(&self, pu_weights: &[u64], dist: &mut Vec<u64>) -> u64 {
        let Some(plan) = &self.plan else {
            return 0;
        };
        dist.clear();
        dist.extend_from_slice(&self.weights);
        dist[..self.partitions].copy_from_slice(pu_weights);
        plan.urgencies_in_place(dist);
        dist.iter().copied().max().unwrap_or(0)
    }
}

/// Working buffers one evaluation reuses from the last: the task
/// durations and the urgency scheduler's state. The engine keeps one per
/// scoring worker for a whole run, so scoring allocates nothing for the
/// schedule.
#[derive(Debug, Default)]
pub(crate) struct EvalScratch {
    durations: Vec<u64>,
    tasks: TaskScratch,
}

/// How one transfer runs under the final pin budgets.
#[derive(Debug, Clone, Copy)]
struct TransferTiming {
    /// Duration `X` in main-clock cycles (zero when pins are exhausted).
    duration: Cycles,
    /// Pins `w` used on each involved chip (zero for on-chip and
    /// external-to-external transfers, and when pins are exhausted).
    pins: u32,
    /// The chip reported when a chip the transfer needs has no data pins.
    pins_exhausted: Option<usize>,
    /// Chip index of the source and destination endpoints, if on a chip.
    src_chip: Option<usize>,
    dst_chip: Option<usize>,
    /// The transfer's task in the PU/transfer task graph.
    task: TaskId,
}

/// Everything integration derives from the partitioning and the final pin
/// budgets, computed once per context so an evaluation only fills in the
/// selected designs.
#[derive(Debug)]
struct IntegrationPlan {
    /// Per-transfer timing, in transfer order.
    transfers: Vec<TransferTiming>,
    /// Per-chip pin time `Σ X·w` of the transfers using its pins.
    pin_time: Vec<u64>,
    /// Per-memory busy time `Σ X` of the transfers touching it.
    memory_busy: Vec<u64>,
    /// Per-chip pin-sharing multiplexer-tree clock overhead.
    mux_overhead: Vec<Estimate>,
    /// Partition indices on each chip.
    partitions_on: Vec<Vec<usize>>,
    /// Task durations with zero partition slots (filled per evaluation).
    durations: Vec<u64>,
    /// The compiled PU/transfer task graph, or its structural error.
    tasks: Result<TaskPlan, UrgencyError>,
}

impl IntegrationPlan {
    fn new(
        partitioning: &Partitioning,
        library: &Library,
        clocks: &ClockConfig,
        params: &PredictorParams,
        transfers: &[TransferSpec],
        budgets: &[PinBudget],
    ) -> Self {
        let k = partitioning.partition_count();
        let n_chips = partitioning.chips().len();
        let chip_index = |e| chip_of_endpoint(partitioning, e).map(|c| c.index());

        // Task graph: PU tasks + transfer tasks over chip-pin and
        // memory-port resources.
        let mut graph = TaskGraph::new();
        let pu_tasks: Vec<TaskId> =
            partitioning.partition_ids().map(|_| graph.add_task(0, vec![])).collect();
        let mut timings = Vec::with_capacity(transfers.len());
        for t in transfers {
            let (src_chip, dst_chip) = (chip_index(t.src), chip_index(t.dst));
            let (duration, pins, pins_exhausted) =
                match transfer_duration(partitioning, clocks, budgets, t) {
                    Some((x, w)) => (x, w, None),
                    None => (Cycles::zero(), 0, Some(src_chip.or(dst_chip).unwrap_or(0))),
                };
            let mut demands = Vec::new();
            if pins > 0 {
                for chip in [src_chip, dst_chip].into_iter().flatten() {
                    demands.push((ResourceId::new(chip as u32), u64::from(pins)));
                }
            }
            for e in [t.src, t.dst] {
                if let Endpoint::Memory(m) = e {
                    demands.push((ResourceId::new((n_chips + m.index()) as u32), 1));
                }
            }
            let task = graph.add_task(duration.value(), demands);
            timings.push(TransferTiming {
                duration,
                pins,
                pins_exhausted,
                src_chip,
                dst_chip,
                task,
            });
        }
        for (t, timing) in transfers.iter().zip(&timings) {
            if let Endpoint::Partition(p) = t.src {
                graph.add_dep(pu_tasks[p.index()], timing.task).expect("task of this graph");
            }
            if let Endpoint::Partition(p) = t.dst {
                graph.add_dep(timing.task, pu_tasks[p.index()]).expect("task of this graph");
            }
        }
        let capacities: Vec<u64> = budgets
            .iter()
            .map(|b| u64::from(b.data))
            .chain(partitioning.memories().iter().map(|m| u64::from(m.ports())))
            .collect();
        let durations: Vec<u64> = std::iter::repeat_n(0, k)
            .chain(timings.iter().map(|t| t.duration.value()))
            .collect();

        let touches = |t: &TransferTiming, chip: usize| {
            t.src_chip == Some(chip) || t.dst_chip == Some(chip)
        };
        let pin_time = (0..n_chips)
            .map(|c| {
                timings
                    .iter()
                    .filter(|t| t.pins > 0 && touches(t, c))
                    .map(|t| t.duration.value() * u64::from(t.pins))
                    .sum()
            })
            .collect();
        let memory_busy = (0..partitioning.memories().len())
            .map(|mi| {
                transfers
                    .iter()
                    .zip(&timings)
                    .filter(|(t, _)| {
                        [t.src, t.dst]
                            .iter()
                            .any(|e| matches!(e, Endpoint::Memory(m) if m.index() == mi))
                    })
                    .map(|(_, timing)| timing.duration.value())
                    .sum()
            })
            .collect();
        let mux_delay = library.multiplexer().map_or(4.0, |m| m.delay().value());
        let mux_overhead = (0..n_chips)
            .map(|c| {
                let n_transfers = transfers
                    .iter()
                    .zip(&timings)
                    .filter(|(t, timing)| is_off_chip(partitioning, t) && touches(timing, c))
                    .count() as u64;
                let levels =
                    if n_transfers <= 1 { 0 } else { 64 - (n_transfers - 1).leading_zeros() };
                Estimate::with_spread(
                    mux_delay * f64::from(levels) + 2.0, // + pad-side wiring
                    params.delay_spread_above,
                )
            })
            .collect();
        let partitions_on = partitioning
            .chips()
            .ids()
            .map(|chip| partitioning.partitions_on(chip).iter().map(|p| p.index()).collect())
            .collect();
        let tasks = graph.compile(&capacities);
        Self {
            transfers: timings,
            pin_time,
            memory_busy,
            mux_overhead,
            partitions_on,
            durations,
            tasks,
        }
    }
}

/// Duration (main cycles) and pin width of a transfer, or `None` when a
/// required chip has no data pins.
fn transfer_duration(
    partitioning: &Partitioning,
    clocks: &ClockConfig,
    budgets: &[PinBudget],
    t: &TransferSpec,
) -> Option<(Cycles, u32)> {
    if !is_off_chip(partitioning, t) {
        return Some((Cycles::zero(), 0));
    }
    let mut width = u32::MAX;
    for chip in [chip_of_endpoint(partitioning, t.src), chip_of_endpoint(partitioning, t.dst)]
        .into_iter()
        .flatten()
    {
        width = width.min(budgets[chip.index()].data);
    }
    if width == 0 {
        return None;
    }
    if width == u32::MAX {
        // Both endpoints off the chip set (external→external) — not a
        // real hardware transfer.
        return Some((Cycles::zero(), 0));
    }
    let width = width.min(u32::try_from(t.bits.value()).unwrap_or(u32::MAX)).max(1);
    // Pin-limited transfer time plus one pad-pipeline fill cycle.
    let mut xfer_cycles = t.bits.transfers_at_width(Bits::new(u64::from(width))) + 1;
    // Memory-side rate limit.
    for e in [t.src, t.dst] {
        if let Endpoint::Memory(m) = e {
            let mem = &partitioning.memories()[m.index()];
            let accesses = t.bits.transfers_at_width(mem.bandwidth_per_access());
            let access_cycles =
                clocks.transfer_cycle().cycles_to_cover(mem.access_time()).max(1);
            xfer_cycles = xfer_cycles.max(accesses * access_cycles);
        }
    }
    Some((Cycles::new(clocks.transfer_to_main(xfer_cycles).value()), width))
}

/// Reusable integration context for one partitioning: transfers and pin
/// budgets are computed once, then [`IntegrationContext::evaluate`] is
/// called per candidate combination.
#[derive(Debug)]
pub struct IntegrationContext<'a> {
    partitioning: &'a Partitioning,
    library: &'a Library,
    clocks: ClockConfig,
    params: PredictorParams,
    criteria: FeasibilityCriteria,
    constraints: Constraints,
    testability: TestabilityOverhead,
    transfers: Vec<TransferSpec>,
    budgets: Vec<PinBudget>,
    plan: IntegrationPlan,
}

impl<'a> IntegrationContext<'a> {
    /// Builds the context (creates data-transfer tasks and pin budgets).
    #[must_use]
    pub fn new(
        partitioning: &'a Partitioning,
        library: &'a Library,
        clocks: ClockConfig,
        params: PredictorParams,
        criteria: FeasibilityCriteria,
        constraints: Constraints,
    ) -> Self {
        let transfers = transfer_specs(partitioning);
        let budgets = pin_budgets(partitioning, &transfers);
        let plan =
            IntegrationPlan::new(partitioning, library, &clocks, &params, &transfers, &budgets);
        Self {
            partitioning,
            library,
            clocks,
            params,
            criteria,
            constraints,
            testability: TestabilityOverhead::none(),
            transfers,
            budgets,
            plan,
        }
    }

    /// Applies a testability discipline: scan pins come off every chip's
    /// data-pin budget; area and clock overheads are applied during
    /// evaluation (paper §5 future work).
    ///
    /// # Panics
    ///
    /// Panics if the overhead fractions are invalid.
    #[must_use]
    pub fn with_testability(mut self, testability: TestabilityOverhead) -> Self {
        testability.assert_valid();
        self.testability = testability;
        if testability.scan_pins > 0 {
            for b in &mut self.budgets {
                b.data = b.data.saturating_sub(testability.scan_pins);
            }
            self.plan = IntegrationPlan::new(
                self.partitioning,
                self.library,
                &self.clocks,
                &self.params,
                &self.transfers,
                &self.budgets,
            );
        }
        self
    }

    /// The partitioning under evaluation.
    #[must_use]
    pub fn partitioning(&self) -> &Partitioning {
        self.partitioning
    }

    /// The data-transfer requirements of this partitioning.
    #[must_use]
    pub fn transfers(&self) -> &[TransferSpec] {
        &self.transfers
    }

    /// The per-chip pin budgets.
    #[must_use]
    pub fn budgets(&self) -> &[PinBudget] {
        &self.budgets
    }

    /// The hard constraints in force.
    #[must_use]
    pub fn constraints(&self) -> &Constraints {
        &self.constraints
    }

    /// The smallest initiation interval any combination could reach, from
    /// the transfer side alone (every transfer must fit in one interval).
    #[must_use]
    pub fn min_transfer_ii(&self) -> Cycles {
        Cycles::new(self.plan.transfers.iter().map(|t| t.duration.value()).fold(1, u64::max))
    }

    /// The feasibility criteria in force.
    pub(crate) fn criteria(&self) -> &FeasibilityCriteria {
        &self.criteria
    }

    /// A pointwise lower bound on the adjusted clock of *every* candidate
    /// combination: main period plus the selection-independent multiplexer
    /// overhead, scaled by the testability fraction. When the datapath is
    /// not on the main clock this *is* the adjusted clock exactly; with a
    /// main-clock datapath the per-design overhead only `max`es on top, so
    /// every actual clock estimate dominates this floor component-wise.
    pub(crate) fn clock_floor(&self) -> Estimate {
        let overhead = self.plan.mux_overhead.iter().fold(Estimate::zero(), |o, &m| o.max(m));
        (Estimate::exact(self.clocks.main_cycle().value()) + overhead)
            * (1.0 + self.testability.clock_fraction)
    }

    /// The smallest initiation interval at which the *deterministic*
    /// integration checks (pin-time conservation, memory bandwidth, pin
    /// exhaustion) can pass — they depend only on the partitioning, never
    /// on the selected designs. Every combination evaluated at a smaller
    /// interval is provably infeasible; `u64::MAX` means no interval works
    /// (a transfer has no pins at all).
    pub(crate) fn deterministic_ii_floor(&self) -> u64 {
        if self.plan.transfers.iter().any(|t| t.pins_exhausted.is_some()) {
            return u64::MAX;
        }
        let mut floor = 1u64;
        for (budget, &pin_time) in self.budgets.iter().zip(&self.plan.pin_time) {
            let pins = u64::from(budget.data);
            if pin_time > 0 {
                if pins == 0 {
                    return u64::MAX;
                }
                floor = floor.max(pin_time.div_ceil(pins));
            }
        }
        self.plan.memory_busy.iter().fold(floor, |f, &busy| f.max(busy))
    }

    /// The selection-independent task-graph skeleton used for the
    /// search's delay lower bound (see [`DelayGraph`]). Transfers without
    /// usable pins are treated as zero-length (the deterministic floor
    /// already rules the whole space infeasible in that case).
    pub(crate) fn delay_graph(&self) -> DelayGraph {
        DelayGraph {
            partitions: self.partitioning.partition_count(),
            weights: self.plan.durations.clone(),
            plan: self.plan.tasks.as_ref().ok().cloned(),
        }
    }

    /// Evaluates one combination of partition implementations (one design
    /// per partition, in partition order) at system initiation interval
    /// `ii` (main cycles).
    ///
    /// Always produces a [`SystemPrediction`] whose verdict records any
    /// violations; hard structural failures (cyclic task graphs) become
    /// [`ChopError::Integration`].
    ///
    /// # Errors
    ///
    /// Returns [`ChopError::Integration`] if task scheduling fails
    /// structurally.
    ///
    /// # Panics
    ///
    /// Panics if `selection` length differs from the partition count or
    /// `ii` is zero.
    pub fn evaluate(
        &self,
        selection: &[&PredictedDesign],
        ii: Cycles,
    ) -> Result<SystemPrediction, ChopError> {
        self.evaluate_impl(&selection, ii, &mut EvalScratch::default())
    }

    /// [`IntegrationContext::evaluate`] for the engine's scoring hot path:
    /// the selection is one index per partition into the shared
    /// per-partition prediction lists, and the schedule is built in
    /// `scratch`.
    ///
    /// # Errors
    ///
    /// As [`IntegrationContext::evaluate`].
    pub(crate) fn evaluate_indexed(
        &self,
        lists: &[Arc<[PredictedDesign]>],
        indices: &[u32],
        ii: Cycles,
        scratch: &mut EvalScratch,
    ) -> Result<SystemPrediction, ChopError> {
        self.evaluate_impl(&IndexedSelection { lists, indices }, ii, scratch)
    }

    fn evaluate_impl<S: SelectionView>(
        &self,
        selection: &S,
        ii: Cycles,
        scratch: &mut EvalScratch,
    ) -> Result<SystemPrediction, ChopError> {
        assert_eq!(
            selection.len(),
            self.partitioning.partition_count(),
            "one design per partition required"
        );
        assert!(ii.value() >= 1, "initiation interval must be positive");
        let l = ii.value();
        let k = selection.len();
        let mut violations = Vec::new();

        // Data-rate compatibility: every partition must keep up with the
        // system rate; pipelined partitions must not be rate-mismatched
        // with it ("if any 2 or more partition implementations … have
        // pipelined design styles and different data rates, then the global
        // implementation is [in]feasible due to a data rate mismatch").
        let mut pipelined_ii: Option<u64> = None;
        let mut rate_mismatch = false;
        for p in 0..k {
            let d = selection.design(p);
            if d.style() == DesignStyle::Pipelined {
                let d_ii = d.initiation_interval().value();
                match pipelined_ii {
                    Some(first) if first != d_ii => rate_mismatch = true,
                    Some(_) => {}
                    None => pipelined_ii = Some(d_ii),
                }
            }
        }
        if rate_mismatch {
            violations.push(Violation::DataRateMismatch);
        }
        if (0..k).any(|p| selection.design(p).initiation_interval().value() > l) {
            violations.push(Violation::Performance {
                probability: chop_stat::Probability::impossible(),
            });
        }

        let plan = &self.plan;
        for (i, t) in plan.transfers.iter().enumerate() {
            match t.pins_exhausted {
                Some(chip) => violations.push(Violation::PinsExhausted { chip }),
                None if t.duration.value() > l => {
                    violations.push(Violation::DataClash { transfer: i });
                }
                None => {}
            }
        }

        // Steady-state pin-time conservation: in a pipelined overall
        // process every initiation interval must accommodate all of a
        // chip's transfers ("an urgency scheduling is performed to confirm
        // feasibility of sharing the data pins of chips"). Pin-time used
        // per interval (Σ X·w) cannot exceed the interval's pin capacity
        // (l · data pins).
        for (chip, (&pin_time, budget)) in plan.pin_time.iter().zip(&self.budgets).enumerate() {
            if pin_time > l * u64::from(budget.data) {
                violations.push(Violation::PinBandwidth { chip });
            }
        }

        // Memory bandwidth per initiation: total busy time per block ≤ l.
        for (memory, &busy) in plan.memory_busy.iter().enumerate() {
            if busy > l {
                violations.push(Violation::MemoryBandwidth { memory });
            }
        }

        if !violations.is_empty() {
            // Rate/structural violations make the rest of the model
            // meaningless; report immediately (CHOP's immediate pruning).
            return Ok(self.infeasible_stub(selection, ii, violations));
        }

        // Urgency-schedule the PU and transfer tasks with the selected
        // partition latencies.
        let tasks = plan.tasks.as_ref().map_err(|e| ChopError::Integration(e.clone()))?;
        let durations = &mut scratch.durations;
        durations.clone_from(&plan.durations);
        for (p, d) in durations[..k].iter_mut().enumerate() {
            *d = selection.design(p).latency().value();
        }
        let schedule =
            tasks.schedule_into(SchedulePolicy::Urgency, durations, &mut scratch.tasks);
        let delay_cycles = Cycles::new(schedule.makespan());

        // Adjusted clock: main period + per-chip integration overhead
        // (pin-sharing multiplexer tree and, when the datapath runs on the
        // main clock, the datapath's own overhead).
        let mut overhead = Estimate::zero();
        for (&mux, partitions) in plan.mux_overhead.iter().zip(&plan.partitions_on) {
            let mut chip_overhead = mux;
            if self.clocks.datapath_on_main_clock() {
                for &p in partitions {
                    chip_overhead = chip_overhead.max(
                        Estimate::with_spread(2.0, self.params.delay_spread_above)
                            + selection.design(p).clock_overhead(),
                    );
                }
            }
            overhead = overhead.max(chip_overhead);
        }
        let clock = (Estimate::exact(self.clocks.main_cycle().value()) + overhead)
            * (1.0 + self.testability.clock_fraction);
        let initiation_ns = clock * l as f64;
        let delay_ns = clock * delay_cycles.value() as f64;

        // Transfer modules: buffer B = D·(⌈W/l⌉ + X/l) and a PLA per module.
        let mut transfer_modules = Vec::with_capacity(self.transfers.len());
        for (t, timing) in self.transfers.iter().zip(&plan.transfers) {
            let (x, w) = (timing.duration, timing.pins);
            let wait = Cycles::new(tasks.wait_before(schedule, timing.task));
            let b_bits = if w == 0 {
                0
            } else {
                let d = t.bits.value() as f64;
                (d * ((wait.value() as f64 / l as f64).ceil() + x.value() as f64 / l as f64))
                    .ceil() as u64
            };
            let states = wait.value() + x.value();
            let controller = PlaSpec::for_fsm(states.max(1), w.div_ceil(8).max(1) + 2, 2);
            transfer_modules.push(TransferModulePrediction {
                spec: *t,
                pins: w,
                duration: x,
                wait,
                buffer_bits: Bits::new(b_bits),
                controller,
            });
        }

        // Per-chip area: partitions + on-chip memories + transfer modules +
        // pin-sharing multiplexers.
        let register = self.library.register();
        let mut chip_areas: Vec<Estimate> =
            vec![Estimate::zero(); self.partitioning.chips().len()];
        for p in self.partitioning.partition_ids() {
            let chip = self.partitioning.chip_of(p);
            chip_areas[chip.index()] += selection.design(p.index()).area();
        }
        for (mi, mem) in self.partitioning.memories().iter().enumerate() {
            if let MemoryAssignment::OnChip(c) =
                self.partitioning.memory_assignment(chop_library::MemoryId::new(mi as u32))
            {
                chip_areas[c.index()] += Estimate::exact(mem.area().value());
            }
        }
        let mux_area = self.library.multiplexer().map_or(18.0, |m| m.area().value());
        for ((tm, t), timing) in
            transfer_modules.iter().zip(&self.transfers).zip(&plan.transfers)
        {
            if tm.pins == 0 {
                continue; // on-chip transfer: plain wiring, no module
            }
            let pla = tm.controller.area(&self.params).value();
            // Interface steering onto the shared data pins: one 2:1 slice
            // per transferred bit, independent of the bus width chosen
            // (wider buses steer more bits per cycle, narrower buses steer
            // the same bits over more cycles).
            let steer = mux_area * t.bits.value() as f64;
            let buffer = register.map_or(31.0 * tm.buffer_bits.value() as f64, |r| {
                r.area_at_width(tm.buffer_bits).value()
            });
            // Input-side module holds the buffer; output side just the PLA
            // and steering.
            if let Some(c) = timing.dst_chip {
                chip_areas[c] += Estimate::with_spreads(
                    pla + steer + buffer,
                    self.params.area_spread_below,
                    self.params.area_spread_above,
                );
            }
            if let Some(c) = timing.src_chip {
                chip_areas[c] += Estimate::with_spreads(
                    pla + steer,
                    self.params.area_spread_below,
                    self.params.area_spread_above,
                );
            }
        }

        // System power: partitions at their predicted utilization plus
        // transfer-module overhead (controller + buffer + steering).
        let mut power = Estimate::zero();
        for p in self.partitioning.partition_ids() {
            power += selection.design(p.index()).power();
        }
        for (tm, t) in transfer_modules.iter().zip(&self.transfers) {
            if tm.pins == 0 {
                continue;
            }
            let module_area = tm.controller.area(&self.params).value()
                + mux_area * t.bits.value() as f64
                + 31.0 * tm.buffer_bits.value() as f64;
            power += Estimate::exact(module_area * chop_library::DEFAULT_POWER_DENSITY * 0.5);
        }

        // Testability area overhead (scan registers, test controller).
        if self.testability.area_fraction > 0.0 {
            for a in &mut chip_areas {
                *a = *a * (1.0 + self.testability.area_fraction);
            }
        }

        // Feasibility analysis.
        for (ci, (_, pkg)) in self.partitioning.chips().iter().enumerate() {
            let p = chip_areas[ci].probability_le(pkg.usable_area().value());
            if !p.meets(self.criteria.area) {
                violations.push(Violation::ChipArea { chip: ci, probability: p });
            }
        }
        let p_perf = initiation_ns.probability_le(self.constraints.performance().value());
        if !p_perf.meets(self.criteria.performance) {
            violations.push(Violation::Performance { probability: p_perf });
        }
        let p_delay = delay_ns.probability_le(self.constraints.delay().value());
        if !p_delay.meets(self.criteria.delay) {
            violations.push(Violation::Delay { probability: p_delay });
        }
        if let Some(limit) = self.constraints.power_limit() {
            let p_power = power.probability_le(limit.value());
            if !p_power.meets(self.criteria.power) {
                violations.push(Violation::Power { probability: p_power });
            }
        }

        let verdict = if violations.is_empty() {
            Verdict::feasible()
        } else {
            Verdict::infeasible(violations)
        };
        Ok(SystemPrediction {
            initiation_interval: ii,
            delay: delay_cycles,
            clock,
            initiation_ns,
            delay_ns,
            chip_areas,
            power,
            transfer_modules,
            verdict,
        })
    }

    /// Minimal prediction for combinations rejected before scheduling.
    fn infeasible_stub<S: SelectionView>(
        &self,
        selection: &S,
        ii: Cycles,
        violations: Vec<Violation>,
    ) -> SystemPrediction {
        let clock = Estimate::exact(self.clocks.main_cycle().value());
        let delay = Cycles::new(
            (0..selection.len())
                .map(|p| selection.design(p).latency().value())
                .max()
                .unwrap_or(1),
        );
        // Partition areas only (no transfer modules were sized): keeps
        // keep-all design-space dumps meaningful for rejected points.
        let mut chip_areas = vec![Estimate::zero(); self.partitioning.chips().len()];
        for p in self.partitioning.partition_ids() {
            let chip = self.partitioning.chip_of(p);
            chip_areas[chip.index()] += selection.design(p.index()).area();
        }
        let power = (0..selection.len()).map(|p| selection.design(p).power()).sum();
        SystemPrediction {
            initiation_interval: ii,
            delay,
            clock,
            initiation_ns: clock * ii.value() as f64,
            delay_ns: clock * delay.value() as f64,
            chip_areas,
            power,
            transfer_modules: Vec::new(),
            verdict: Verdict::infeasible(violations),
        }
    }
}

#[cfg(test)]
mod tests {
    use chop_bad::{ArchitectureStyle, Predictor};
    use chop_dfg::benchmarks;
    use chop_library::standard::{table1_library, table2_packages};
    use chop_library::ChipSet;
    use chop_stat::units::Nanos;

    use super::*;
    use crate::spec::PartitioningBuilder;
    use crate::testability::TestabilityOverhead;

    fn setup(
        k: usize,
        pkg: usize,
    ) -> (Partitioning, Library, ClockConfig, Vec<Vec<PredictedDesign>>) {
        let dfg = benchmarks::ar_lattice_filter();
        let chips = ChipSet::uniform(table2_packages()[pkg].clone(), k);
        let p = PartitioningBuilder::new(dfg, chips).split_horizontal(k).build().unwrap();
        let lib = table1_library();
        let clocks = ClockConfig::new(Nanos::new(300.0), 10, 1).unwrap();
        let predictor = Predictor::new(
            lib.clone(),
            clocks,
            ArchitectureStyle::single_cycle(),
            PredictorParams::default(),
        );
        let designs: Vec<Vec<PredictedDesign>> = p
            .partition_ids()
            .map(|pid| predictor.predict(&p.partition_dfg(pid)).unwrap())
            .collect();
        (p, lib, clocks, designs)
    }

    fn ctx<'a>(
        p: &'a Partitioning,
        lib: &'a Library,
        clocks: ClockConfig,
    ) -> IntegrationContext<'a> {
        IntegrationContext::new(
            p,
            lib,
            clocks,
            PredictorParams::default(),
            FeasibilityCriteria::paper_defaults(),
            Constraints::new(Nanos::new(30_000.0), Nanos::new(30_000.0)),
        )
    }

    #[test]
    fn single_partition_evaluates() {
        let (p, lib, clocks, designs) = setup(1, 1);
        let c = ctx(&p, &lib, clocks);
        // Pick the smallest-area design; evaluate at its own II.
        let d = designs[0]
            .iter()
            .min_by(|a, b| a.area().likely().partial_cmp(&b.area().likely()).unwrap())
            .unwrap();
        let ii = Cycles::new(d.initiation_interval().value().max(c.min_transfer_ii().value()));
        let s = c.evaluate(&[d], ii).unwrap();
        assert!(s.delay.value() >= d.latency().value());
        assert!(s.clock.likely() >= 300.0);
        assert_eq!(s.chip_areas.len(), 1);
    }

    #[test]
    fn some_combination_is_feasible_for_paper_constraints() {
        let (p, lib, clocks, designs) = setup(1, 1);
        let c = ctx(&p, &lib, clocks);
        let min_ii = c.min_transfer_ii().value();
        let feasible = designs[0].iter().any(|d| {
            let ii = Cycles::new(d.initiation_interval().value().max(min_ii));
            c.evaluate(&[d], ii).map(|s| s.verdict.feasible).unwrap_or(false)
        });
        assert!(feasible, "no single-chip combination feasible (Table 4 row 1 exists)");
    }

    #[test]
    fn transfer_modules_have_paper_buffer_formula() {
        let (p, lib, clocks, designs) = setup(2, 1);
        let c = ctx(&p, &lib, clocks);
        let sel: Vec<&PredictedDesign> = designs
            .iter()
            .map(|list| list.iter().min_by_key(|d| d.initiation_interval().value()).unwrap())
            .collect();
        let ii_needed = sel
            .iter()
            .map(|d| d.initiation_interval().value())
            .max()
            .unwrap()
            .max(c.min_transfer_ii().value());
        let s = c.evaluate(&sel, Cycles::new(ii_needed)).unwrap();
        let l = ii_needed;
        for tm in &s.transfer_modules {
            if tm.pins == 0 {
                continue;
            }
            let d = tm.spec.bits.value() as f64;
            let expect = (d
                * ((tm.wait.value() as f64 / l as f64).ceil()
                    + tm.duration.value() as f64 / l as f64))
                .ceil() as u64;
            assert_eq!(tm.buffer_bits.value(), expect);
        }
    }

    #[test]
    fn data_clash_detected_at_tiny_ii() {
        let (p, lib, clocks, designs) = setup(2, 0);
        let c = ctx(&p, &lib, clocks);
        let sel: Vec<&PredictedDesign> = designs.iter().map(|l| l.first().unwrap()).collect();
        let s = c.evaluate(&sel, Cycles::new(1)).unwrap();
        assert!(!s.verdict.feasible);
        assert!(s
            .verdict
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DataClash { .. } | Violation::Performance { .. })));
    }

    #[test]
    fn fewer_pins_never_speed_up_transfers() {
        let (p64, lib, clocks, _) = setup(2, 0);
        let (p84, _, _, _) = setup(2, 1);
        let c64 = ctx(&p64, &lib, clocks);
        let c84 = ctx(&p84, &lib, clocks);
        assert!(c64.min_transfer_ii().value() >= c84.min_transfer_ii().value());
    }

    #[test]
    fn pin_bandwidth_violation_detected() {
        use chop_bad::PredictorParams;
        // Two chips at the minimum rate: the transfer chain's combined
        // pin-time cannot fit a 1-cycle... use a tiny ii just above each
        // transfer but below the chip's aggregate demand.
        let (p, lib, clocks, designs) = setup(2, 0);
        let c = ctx(&p, &lib, clocks);
        let _ = PredictorParams::default();
        let sel: Vec<&PredictedDesign> = designs
            .iter()
            .map(|l| l.iter().min_by_key(|d| d.initiation_interval().value()).unwrap())
            .collect();
        // At exactly the per-transfer minimum, a chip carrying several
        // full-width transfers can exceed l × pins.
        let ii = Cycles::new(
            c.min_transfer_ii()
                .value()
                .max(sel.iter().map(|d| d.initiation_interval().value()).max().unwrap()),
        );
        let s = c.evaluate(&sel, ii).unwrap();
        // Not asserted to *always* trigger (depends on widths); instead
        // verify the invariant directly against the reported modules.
        for (chip, _) in p.chips().iter() {
            let pin_time: u64 = s
                .transfer_modules
                .iter()
                .filter(|tm| {
                    tm.pins > 0
                        && (crate::transfer::chip_of_endpoint(&p, tm.spec.src) == Some(chip)
                            || crate::transfer::chip_of_endpoint(&p, tm.spec.dst) == Some(chip))
                })
                .map(|tm| tm.duration.value() * u64::from(tm.pins))
                .sum();
            let capacity = ii.value() * u64::from(c.budgets()[chip.index()].data);
            let flagged = s.verdict.violations.iter().any(
                |v| matches!(v, Violation::PinBandwidth { chip: ci } if *ci == chip.index()),
            );
            assert_eq!(
                pin_time > capacity,
                flagged,
                "chip {chip}: pin_time={pin_time} capacity={capacity}"
            );
        }
    }

    #[test]
    fn memory_bandwidth_violation_detected() {
        use crate::spec::{MemoryAssignment, PartitioningBuilder};
        use chop_bad::PredictorParams;
        use chop_dfg::{DfgBuilder, MemoryRef, Operation};
        use chop_library::standard::example_off_shelf_ram;
        use chop_stat::units::Bits;

        // Heavy two-way traffic to one slow single-port memory block.
        let mut b = DfgBuilder::new();
        let w = Bits::new(16);
        let m = MemoryRef::new(0);
        let addr = b.node(Operation::Input, w);
        let mut accum = None;
        for _ in 0..8 {
            let r = b.node(Operation::MemRead(m), w);
            b.connect(addr, r).unwrap();
            let x = match accum {
                Some(prev) => {
                    let a = b.node(Operation::Add, w);
                    b.connect(prev, a).unwrap();
                    b.connect(r, a).unwrap();
                    a
                }
                None => r,
            };
            let wr = b.node(Operation::MemWrite(m), w);
            b.connect(addr, wr).unwrap();
            b.connect(x, wr).unwrap();
            accum = Some(x);
        }
        let o = b.node(Operation::Output, w);
        b.connect(accum.unwrap(), o).unwrap();
        let g = b.build().unwrap();

        let chips = chop_library::ChipSet::uniform(table2_packages()[1].clone(), 1);
        let p = PartitioningBuilder::new(g, chips)
            .with_memory(example_off_shelf_ram(), MemoryAssignment::External)
            .build()
            .unwrap();
        let lib = table1_library();
        let clocks = ClockConfig::new(Nanos::new(300.0), 1, 1).unwrap();
        let predictor = Predictor::new(
            lib.clone(),
            clocks,
            ArchitectureStyle::multi_cycle(),
            PredictorParams::default(),
        );
        let designs =
            predictor.predict(&p.partition_dfg(crate::spec::PartitionId::new(0))).unwrap();
        let c = IntegrationContext::new(
            &p,
            &lib,
            clocks,
            PredictorParams::default(),
            FeasibilityCriteria::paper_defaults(),
            Constraints::new(Nanos::new(30_000.0), Nanos::new(30_000.0)),
        );
        // Evaluate at an II big enough for each single transfer but too
        // small for the block's combined read+write busy time.
        let d = designs.iter().min_by_key(|d| d.initiation_interval()).expect("non-empty");
        let per_transfer_max = c.min_transfer_ii().value();
        let memory_transfers = c
            .transfers()
            .iter()
            .filter(|t| {
                matches!(t.src, Endpoint::Memory(_)) || matches!(t.dst, Endpoint::Memory(_))
            })
            .count() as u64;
        assert_eq!(memory_transfers, 2, "one read stream, one write stream");
        let total_busy = memory_transfers * per_transfer_max;
        let ii = Cycles::new(per_transfer_max.max(d.initiation_interval().value()));
        assert!(
            total_busy > ii.value(),
            "test setup must oversubscribe the memory: busy {total_busy} vs II {}",
            ii.value()
        );
        let s = c.evaluate(&[d], ii).unwrap();
        assert!(
            s.verdict
                .violations
                .iter()
                .any(|v| matches!(v, Violation::MemoryBandwidth { memory: 0 })),
            "expected memory bandwidth violation, got {}",
            s.verdict
        );
    }

    #[test]
    fn mismatched_pipelined_rates_rejected() {
        let (p, lib, clocks, designs) = setup(2, 1);
        let c = ctx(&p, &lib, clocks);
        // Find two pipelined designs with different IIs.
        let mut pick: Vec<&PredictedDesign> = Vec::new();
        'outer: for a in designs[0].iter().filter(|d| d.style() == DesignStyle::Pipelined) {
            for b in designs[1].iter().filter(|d| d.style() == DesignStyle::Pipelined) {
                if a.initiation_interval() != b.initiation_interval() {
                    pick = vec![a, b];
                    break 'outer;
                }
            }
        }
        if pick.len() == 2 {
            let ii = pick
                .iter()
                .map(|d| d.initiation_interval().value())
                .max()
                .unwrap()
                .max(c.min_transfer_ii().value());
            let s = c.evaluate(&pick, Cycles::new(ii)).unwrap();
            assert!(s
                .verdict
                .violations
                .iter()
                .any(|v| matches!(v, Violation::DataRateMismatch)));
        }
    }

    #[test]
    fn plan_follows_testability_scan_pins() {
        let (p, lib, clocks, designs) = setup(2, 0);
        let sel: Vec<&PredictedDesign> = designs.iter().map(|l| l.first().unwrap()).collect();
        let generous = Cycles::new(1 << 20);
        let plain = ctx(&p, &lib, clocks);
        let scheduled = plain.evaluate(&sel, generous).unwrap();
        assert!(!scheduled.transfer_modules.is_empty(), "the plain budgets schedule");

        // Scan pins that take every data pin of chip 0.
        let scan_pins = plain.budgets()[0].data;
        let scanned = ctx(&p, &lib, clocks)
            .with_testability(TestabilityOverhead { scan_pins, ..TestabilityOverhead::none() });
        assert_eq!(scanned.budgets()[0].data, 0);
        let s = scanned.evaluate(&sel, generous).unwrap();
        assert!(
            s.verdict
                .violations
                .iter()
                .any(|v| matches!(v, Violation::PinsExhausted { chip: 0 })),
            "expected chip 0 pins exhausted, got {}",
            s.verdict
        );
        assert!(s.transfer_modules.is_empty(), "no schedule from the pre-testability budgets");
        assert_eq!(scanned.deterministic_ii_floor(), u64::MAX);
    }

    /// Three partitions whose transfers form a cycle A → B → C → A although
    /// no two of them depend on each other both ways, so the builder's
    /// pairwise mutual-dependency check accepts the grouping.
    fn cyclic_setup() -> (Partitioning, Library, ClockConfig, Vec<Vec<PredictedDesign>>) {
        use chop_dfg::grouping::Grouping;
        use chop_dfg::{DfgBuilder, Operation};

        let mut b = DfgBuilder::new();
        let w = Bits::new(16);
        let mut assignment = Vec::new();
        for (from, to) in [(0, 1), (1, 2), (2, 0)] {
            let x = b.node(Operation::Input, w);
            let y = b.node(Operation::Input, w);
            let s = b.node(Operation::Add, w);
            let t = b.node(Operation::Add, w);
            let o = b.node(Operation::Output, w);
            assignment.extend([from, from, from, to, to]);
            for (src, dst) in [(x, s), (y, s), (s, t), (x, t), (t, o)] {
                b.connect(src, dst).unwrap();
            }
        }
        let g = b.build().unwrap();
        let grouping = Grouping::new(&g, 3, assignment).unwrap();
        let chips = ChipSet::uniform(table2_packages()[1].clone(), 3);
        let p = PartitioningBuilder::new(g, chips).with_grouping(grouping).build().unwrap();
        let lib = table1_library();
        let clocks = ClockConfig::new(Nanos::new(300.0), 10, 1).unwrap();
        let predictor = Predictor::new(
            lib.clone(),
            clocks,
            ArchitectureStyle::single_cycle(),
            PredictorParams::default(),
        );
        let designs = p
            .partition_ids()
            .map(|pid| predictor.predict(&p.partition_dfg(pid)).unwrap())
            .collect();
        (p, lib, clocks, designs)
    }

    #[test]
    fn cyclic_task_graph_surfaces_after_the_violation_checks() {
        let (p, lib, clocks, designs) = cyclic_setup();
        let c = ctx(&p, &lib, clocks);
        let sel: Vec<&PredictedDesign> = designs.iter().map(|l| l.first().unwrap()).collect();
        // Early violations still win: the stub, not the structural error.
        let s = c.evaluate(&sel, Cycles::new(1)).unwrap();
        assert!(!s.verdict.feasible);
        assert!(s.transfer_modules.is_empty());
        // Past them, scheduling reports the cycle.
        assert!(matches!(
            c.evaluate(&sel, Cycles::new(1 << 20)),
            Err(ChopError::Integration(UrgencyError::Cyclic))
        ));
        // The delay bound degrades to "never prune".
        assert_eq!(c.delay_graph().longest_path(&[1_000, 1_000, 1_000], &mut Vec::new()), 0);
    }
}
