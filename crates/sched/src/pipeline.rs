//! Pipeline (modulo) resource analysis.
//!
//! A pipelined design style initiates a new data set every *initiation
//! interval* (II) cycles. Operations of successive initiations overlap, so
//! resource usage must be checked *modulo* the II — the classic Sehwa-style
//! reservation-table model the paper builds on.

use chop_dfg::{Dfg, OpClass};

use crate::list::{NodeSpec, ResourceMap, Schedule};

/// Per-class functional-unit demand of a schedule folded modulo `ii`.
///
/// Entry `(class, slot)` counts operations of `class` busy in cycle
/// `slot mod ii` across all overlapped initiations; the map's value is the
/// *maximum* over slots — the instances needed to sustain the pipeline.
///
/// # Panics
///
/// Panics if `ii` is zero.
///
/// # Examples
///
/// ```
/// use chop_dfg::{benchmarks, OpClass};
/// use chop_sched::{list_schedule, NodeSpec, ResourceMap};
/// use chop_sched::pipeline::modulo_demand;
///
/// let g = benchmarks::fir_filter(4);
/// let specs = NodeSpec::uniform(&g, 1);
/// let alloc: ResourceMap =
///     [(OpClass::Addition, 4), (OpClass::Multiplication, 4)].into_iter().collect();
/// let s = list_schedule(&g, &specs, &alloc)?;
/// let demand = modulo_demand(&g, &specs, &s, 1);
/// // With II=1 every op of a class overlaps: demand equals op count.
/// assert_eq!(demand.get(OpClass::Multiplication), 4);
/// # Ok::<(), chop_sched::ScheduleError>(())
/// ```
#[must_use]
pub fn modulo_demand(dfg: &Dfg, specs: &NodeSpec, schedule: &Schedule, ii: u64) -> ResourceMap {
    ModuloFold::new(dfg, specs, schedule).demand(ii).collect()
}

/// Whether a schedule can be pipelined at initiation interval `ii` with the
/// given allocation.
///
/// # Panics
///
/// Panics if `ii` is zero.
///
/// # Examples
///
/// ```
/// use chop_dfg::{benchmarks, OpClass};
/// use chop_sched::{list_schedule, NodeSpec, ResourceMap};
/// use chop_sched::pipeline::supports_ii;
///
/// let g = benchmarks::fir_filter(4);
/// let specs = NodeSpec::uniform(&g, 1);
/// let alloc: ResourceMap =
///     [(OpClass::Addition, 4), (OpClass::Multiplication, 4)].into_iter().collect();
/// let s = list_schedule(&g, &specs, &alloc)?;
/// assert!(supports_ii(&g, &specs, &s, &alloc, 1));
/// # Ok::<(), chop_sched::ScheduleError>(())
/// ```
#[must_use]
pub fn supports_ii(
    dfg: &Dfg,
    specs: &NodeSpec,
    schedule: &Schedule,
    alloc: &ResourceMap,
    ii: u64,
) -> bool {
    let mut fold = ModuloFold::new(dfg, specs, schedule);
    let units = fold.units(alloc);
    fold.fits(ii, &units)
}

/// The smallest initiation interval the schedule sustains with `alloc`,
/// searching from 1 up to the schedule makespan (at which point the design
/// degenerates to non-pipelined operation).
///
/// Returns `max(makespan, 1)` for empty or purely-combinational schedules.
/// No interval below the resource bound — a class's busy cycles over its
/// instances, rounded up — fits, so when that bound reaches the makespan
/// the answer is the makespan and no fold is built.
///
/// # Examples
///
/// ```
/// use chop_dfg::{benchmarks, OpClass};
/// use chop_sched::{list_schedule, NodeSpec, ResourceMap};
/// use chop_sched::pipeline::min_initiation_interval;
///
/// let g = benchmarks::ar_lattice_filter();
/// let specs = NodeSpec::uniform(&g, 1);
/// let alloc: ResourceMap =
///     [(OpClass::Addition, 2), (OpClass::Multiplication, 4)].into_iter().collect();
/// let s = list_schedule(&g, &specs, &alloc)?;
/// let ii = min_initiation_interval(&g, &specs, &s, &alloc);
/// // 16 muls / 4 multipliers => at least 4 cycles between initiations.
/// assert!(ii >= 4);
/// assert!(ii <= s.makespan());
/// # Ok::<(), chop_sched::ScheduleError>(())
/// ```
#[must_use]
pub fn min_initiation_interval(
    dfg: &Dfg,
    specs: &NodeSpec,
    schedule: &Schedule,
    alloc: &ResourceMap,
) -> u64 {
    let horizon = schedule.makespan().max(1);
    let mut busy = [0u64; OpClass::ALL.len()];
    for id in dfg.node_ids() {
        if let Some(class) = specs.resource(id) {
            busy[class as usize] += specs.duration(id);
        }
    }
    let lower = OpClass::ALL
        .iter()
        .filter(|&&class| busy[class as usize] > 0)
        .map(|&class| busy[class as usize].div_ceil(alloc.get(class).max(1) as u64))
        .max()
        .unwrap_or(1)
        .max(1);
    if lower >= horizon {
        return horizon;
    }
    let mut fold = ModuloFold::new(dfg, specs, schedule);
    let units = fold.units(alloc);
    (lower..horizon).find(|&ii| fold.fits(ii, &units)).unwrap_or(horizon)
}

/// A functional-unit operation of non-zero duration, as placed by a
/// schedule.
struct BusyOp {
    /// Index into [`ModuloFold::classes`].
    class: usize,
    start: u64,
    finish: u64,
    duration: u64,
}

/// A schedule's functional-unit operations, folded modulo one candidate
/// initiation interval at a time into a flat per-class slot table that
/// is reused across candidates.
struct ModuloFold {
    /// Classes with an operation of non-zero duration, in class order.
    classes: Vec<OpClass>,
    ops: Vec<BusyOp>,
    /// `slots[c * ii + slot]`: operations of class `c` busy in `slot`.
    slots: Vec<usize>,
    /// Per class: the depth that operations at least `ii` long add to
    /// every slot.
    depth: Vec<usize>,
}

impl ModuloFold {
    fn new(dfg: &Dfg, specs: &NodeSpec, schedule: &Schedule) -> Self {
        let busy = || {
            dfg.node_ids().filter_map(|id| {
                let class = specs.resource(id)?;
                (specs.duration(id) > 0).then_some((id, class))
            })
        };
        let mut present = [false; OpClass::ALL.len()];
        for (_, class) in busy() {
            present[class as usize] = true;
        }
        let mut classes: Vec<OpClass> =
            OpClass::ALL.into_iter().filter(|&class| present[class as usize]).collect();
        classes.sort_unstable();
        let mut position = [0; OpClass::ALL.len()];
        for (i, &class) in classes.iter().enumerate() {
            position[class as usize] = i;
        }
        let ops = busy()
            .map(|(id, class)| BusyOp {
                class: position[class as usize],
                start: schedule.start(id),
                finish: schedule.finish(id),
                duration: specs.duration(id),
            })
            .collect();
        Self { classes, ops, slots: Vec::new(), depth: Vec::new() }
    }

    /// Instances `alloc` provides of each class, in class order.
    fn units(&self, alloc: &ResourceMap) -> Vec<usize> {
        self.classes.iter().map(|&class| alloc.get(class)).collect()
    }

    /// Folds the operations modulo `ii` and yields each class with the
    /// most of its operations busy in any one slot.
    fn demand(&mut self, ii: u64) -> impl Iterator<Item = (OpClass, usize)> + '_ {
        assert!(ii > 0, "initiation interval must be positive");
        let width = ii as usize;
        self.slots.clear();
        self.slots.resize(self.classes.len() * width, 0);
        self.depth.clear();
        self.depth.resize(self.classes.len(), 0);
        for op in &self.ops {
            if op.duration >= ii {
                // The op occupies its unit in every slot, and one longer
                // than the II also overlaps itself: ceil(dur/ii) deep.
                self.depth[op.class] += op.duration.div_ceil(ii) as usize;
            } else {
                let row = &mut self.slots[op.class * width..(op.class + 1) * width];
                for t in op.start..op.finish {
                    row[(t % ii) as usize] += 1;
                }
            }
        }
        let Self { classes, slots, depth, .. } = &*self;
        classes.iter().zip(slots.chunks(width)).zip(depth).map(|((&class, row), &depth)| {
            (class, depth + row.iter().copied().max().unwrap_or(0))
        })
    }

    /// Whether `units` (in class order) covers the demand at `ii`.
    fn fits(&mut self, ii: u64, units: &[usize]) -> bool {
        self.demand(ii).zip(units).all(|((_, need), &have)| need <= have)
    }
}

#[cfg(test)]
mod tests {
    use chop_dfg::benchmarks;

    use super::*;
    use crate::list::list_schedule;

    fn alloc(adds: usize, muls: usize) -> ResourceMap {
        [(OpClass::Addition, adds), (OpClass::Multiplication, muls)].into_iter().collect()
    }

    #[test]
    fn ii_equal_to_makespan_always_supported() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 1);
        let a = alloc(2, 3);
        let s = list_schedule(&g, &specs, &a).unwrap();
        assert!(supports_ii(&g, &specs, &s, &a, s.makespan()));
    }

    #[test]
    fn min_ii_monotone_in_allocation() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 1);
        let small = alloc(1, 2);
        let big = alloc(4, 8);
        let s_small = list_schedule(&g, &specs, &small).unwrap();
        let s_big = list_schedule(&g, &specs, &big).unwrap();
        let ii_small = min_initiation_interval(&g, &specs, &s_small, &small);
        let ii_big = min_initiation_interval(&g, &specs, &s_big, &big);
        assert!(ii_big <= ii_small);
    }

    #[test]
    fn min_ii_at_least_resource_bound() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 1);
        let a = alloc(2, 2);
        let s = list_schedule(&g, &specs, &a).unwrap();
        let ii = min_initiation_interval(&g, &specs, &s, &a);
        // 16 mul-cycles / 2 units = 8.
        assert!(ii >= 8);
    }

    #[test]
    fn long_ops_self_overlap() {
        // A single 6-cycle multiply at II=2 needs ceil(6/2)=3 units.
        let g = benchmarks::fir_filter(1); // 1 mul, 0 adds
        let specs = NodeSpec::uniform(&g, 6);
        let a = alloc(1, 4);
        let s = list_schedule(&g, &specs, &a).unwrap();
        let demand = modulo_demand(&g, &specs, &s, 2);
        assert_eq!(demand.get(OpClass::Multiplication), 3);
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_ii_panics() {
        let g = benchmarks::fir_filter(2);
        let specs = NodeSpec::uniform(&g, 1);
        let a = alloc(1, 1);
        let s = list_schedule(&g, &specs, &a).unwrap();
        let _ = modulo_demand(&g, &specs, &s, 0);
    }
}
