//! Resource-constrained list scheduling with multi-cycle operations.

use std::collections::BTreeMap;
use std::fmt;

use chop_dfg::{Dfg, NodeId, OpClass};

use crate::bounds::alap_times;
use crate::flat::FlatLists;

/// Per-node scheduling attributes: duration in cycles and the functional
/// unit class occupied, if any.
///
/// # Examples
///
/// ```
/// use chop_dfg::benchmarks;
/// use chop_sched::NodeSpec;
///
/// let g = benchmarks::diffeq();
/// let specs = NodeSpec::uniform(&g, 2);
/// assert_eq!(specs.len(), g.len());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    durations: Vec<u64>,
    resources: Vec<Option<OpClass>>,
}

impl NodeSpec {
    /// Builds specs from closures over the graph.
    pub fn from_fn<D, R>(dfg: &Dfg, mut duration: D, mut resource: R) -> Self
    where
        D: FnMut(NodeId) -> u64,
        R: FnMut(NodeId) -> Option<OpClass>,
    {
        let durations = dfg.node_ids().map(&mut duration).collect();
        let resources = dfg.node_ids().map(&mut resource).collect();
        Self { durations, resources }
    }

    /// Every functional-unit operation takes `cycles`; I/O, constants and
    /// memory accesses take zero cycles and no FU.
    #[must_use]
    pub fn uniform(dfg: &Dfg, cycles: u64) -> Self {
        Self::from_fn(
            dfg,
            |id| {
                if dfg.node(id).op().class().is_some() {
                    cycles
                } else {
                    0
                }
            },
            |id| dfg.node(id).op().class(),
        )
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.durations.len()
    }

    /// Whether the spec covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.durations.is_empty()
    }

    /// Duration of a node in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn duration(&self, id: NodeId) -> u64 {
        self.durations[id.index()]
    }

    /// Functional-unit class occupied by a node, if any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn resource(&self, id: NodeId) -> Option<OpClass> {
        self.resources[id.index()]
    }
}

/// Functional-unit allocation: instances available per operation class.
///
/// # Examples
///
/// ```
/// use chop_dfg::OpClass;
/// use chop_sched::ResourceMap;
///
/// let mut alloc = ResourceMap::new();
/// alloc.set(OpClass::Addition, 3);
/// assert_eq!(alloc.get(OpClass::Addition), 3);
/// assert_eq!(alloc.get(OpClass::Multiplication), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResourceMap {
    counts: BTreeMap<OpClass, usize>,
}

impl ResourceMap {
    /// Creates an empty allocation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the instance count for a class.
    pub fn set(&mut self, class: OpClass, count: usize) {
        self.counts.insert(class, count);
    }

    /// Instance count for a class (zero if unset).
    #[must_use]
    pub fn get(&self, class: OpClass) -> usize {
        self.counts.get(&class).copied().unwrap_or(0)
    }

    /// Iterates over `(class, count)` pairs in class order.
    pub fn iter(&self) -> impl Iterator<Item = (OpClass, usize)> + '_ {
        self.counts.iter().map(|(c, n)| (*c, *n))
    }
}

impl FromIterator<(OpClass, usize)> for ResourceMap {
    fn from_iter<T: IntoIterator<Item = (OpClass, usize)>>(iter: T) -> Self {
        Self { counts: iter.into_iter().collect() }
    }
}

impl fmt::Display for ResourceMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.counts.iter().map(|(c, n)| format!("{n}×{c}")).collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

/// Error returned by [`list_schedule`] and [`ListPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A node needs a functional-unit class with zero allocated instances.
    NoUnitsForClass(OpClass),
    /// The spec does not cover every node of the graph.
    SpecLengthMismatch {
        /// Nodes in the graph.
        expected: usize,
        /// Entries in the spec.
        found: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoUnitsForClass(c) => {
                write!(f, "no functional units allocated for {c}")
            }
            ScheduleError::SpecLengthMismatch { expected, found } => {
                write!(f, "node spec covers {found} nodes, graph has {expected}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A computed schedule: start/finish cycles per node and the makespan.
///
/// See [`list_schedule`] for construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    start: Vec<u64>,
    finish: Vec<u64>,
    makespan: u64,
}

impl Schedule {
    /// Start cycle of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn start(&self, id: NodeId) -> u64 {
        self.start[id.index()]
    }

    /// Finish cycle of a node (start + duration; zero-duration nodes finish
    /// when they start).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn finish(&self, id: NodeId) -> u64 {
        self.finish[id.index()]
    }

    /// Total schedule length in cycles.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// Number of scheduled nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.start.len()
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start.is_empty()
    }

    pub(crate) fn from_parts(start: Vec<u64>, finish: Vec<u64>) -> Self {
        let makespan = finish.iter().copied().max().unwrap_or(0);
        Self { start, finish, makespan }
    }
}

/// Resource-constrained list scheduling.
///
/// Ready operations are started in order of least ALAP slack (most urgent
/// first), each occupying one instance of its functional-unit class for its
/// whole duration — the multi-cycle-operation model of the paper's second
/// experiment. Zero-duration nodes (I/O, constants) are placed as soon as
/// their operands are ready and never occupy resources.
///
/// This is [`ListPlan::compile`] followed by [`ListPlan::schedule`]; to
/// schedule one graph under many allocations, compile it once.
///
/// # Errors
///
/// Returns [`ScheduleError::SpecLengthMismatch`] if `specs` does not cover
/// the graph, and [`ScheduleError::NoUnitsForClass`] if some operation's
/// class has no allocated instances.
///
/// # Examples
///
/// ```
/// use chop_dfg::{benchmarks, OpClass};
/// use chop_sched::{list_schedule, NodeSpec, ResourceMap};
///
/// let g = benchmarks::fir_filter(4);
/// let specs = NodeSpec::uniform(&g, 1);
/// let alloc: ResourceMap =
///     [(OpClass::Addition, 1), (OpClass::Multiplication, 1)].into_iter().collect();
/// let s = list_schedule(&g, &specs, &alloc)?;
/// // 4 muls serialized on one multiplier; adds overlap on the adder.
/// assert!(s.makespan() >= 6);
/// # Ok::<(), chop_sched::ScheduleError>(())
/// ```
pub fn list_schedule(
    dfg: &Dfg,
    specs: &NodeSpec,
    alloc: &ResourceMap,
) -> Result<Schedule, ScheduleError> {
    ListPlan::compile(dfg, specs)?.schedule(alloc)
}

/// A graph and its node specs compiled for [`list_schedule`] by
/// [`ListPlan::compile`]: the successor lists, durations, unit classes and
/// ALAP priority order, none of which depend on the allocation, so one
/// plan schedules every allocation of a sweep.
///
/// # Examples
///
/// ```
/// use chop_dfg::{benchmarks, OpClass};
/// use chop_sched::{list_schedule, ListPlan, NodeSpec, ResourceMap};
///
/// let g = benchmarks::ar_lattice_filter();
/// let specs = NodeSpec::uniform(&g, 2);
/// let plan = ListPlan::compile(&g, &specs)?;
/// for muls in 1..=4 {
///     let alloc: ResourceMap =
///         [(OpClass::Addition, 2), (OpClass::Multiplication, muls)].into_iter().collect();
///     assert_eq!(plan.schedule(&alloc)?, list_schedule(&g, &specs, &alloc)?);
/// }
/// # Ok::<(), chop_sched::ScheduleError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListPlan {
    succs: FlatLists<u32>,
    durations: Vec<u64>,
    /// Index into `classes` of each node's functional-unit class.
    class_of: Vec<Option<u32>>,
    /// The classes the graph uses, in order of their first node.
    classes: Vec<OpClass>,
    in_degree: Vec<u32>,
    /// Each node's position in (ALAP, id) order: every pass over the ready
    /// nodes visits them in that order.
    rank: Vec<u32>,
}

impl ListPlan {
    /// Compiles a graph and its node specs.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::SpecLengthMismatch`] if `specs` does not
    /// cover every node of the graph.
    pub fn compile(dfg: &Dfg, specs: &NodeSpec) -> Result<Self, ScheduleError> {
        let n = dfg.len();
        if specs.len() != n {
            return Err(ScheduleError::SpecLengthMismatch { expected: n, found: specs.len() });
        }
        let succs = FlatLists::new(
            n,
            dfg.edges()
                .map(|(_, e)| (e.src().index() as u32, e.dst().index() as u32))
                .collect(),
        );
        let mut classes = Vec::new();
        let class_of = dfg
            .node_ids()
            .map(|id| {
                let class = specs.resource(id)?;
                let index = classes.iter().position(|&c| c == class).unwrap_or_else(|| {
                    classes.push(class);
                    classes.len() - 1
                });
                Some(index as u32)
            })
            .collect();
        let in_degree = dfg.node_ids().map(|id| dfg.preds(id).len() as u32).collect();
        let alap = alap_times(dfg, specs);
        let mut by_alap: Vec<u32> = (0..n as u32).collect();
        by_alap.sort_unstable_by_key(|&i| (alap[i as usize], i));
        let mut rank = vec![0u32; n];
        for (position, &i) in by_alap.iter().enumerate() {
            rank[i as usize] = position as u32;
        }
        Ok(Self {
            succs,
            durations: specs.durations.clone(),
            class_of,
            classes,
            in_degree,
            rank,
        })
    }

    /// List-schedules the compiled graph under one allocation.
    ///
    /// Each pass visits the ready nodes in priority order and starts every
    /// one whose operands are available and whose class has a free unit;
    /// nodes released during a pass wait for the next pass at the same
    /// time. A pass that starts nothing advances time to the next unit
    /// release or operand-ready time, whichever comes first.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoUnitsForClass`] for the first node, in id
    /// order, whose class has no allocated instances.
    pub fn schedule(&self, alloc: &ResourceMap) -> Result<Schedule, ScheduleError> {
        // Unit `u` of class `c` is `free_at[first_unit[c] + u]`: the cycle
        // its current operation finishes, free once that is not after now.
        let mut first_unit = Vec::with_capacity(self.classes.len() + 1);
        first_unit.push(0usize);
        for &class in &self.classes {
            let units = alloc.get(class);
            if units == 0 {
                return Err(ScheduleError::NoUnitsForClass(class));
            }
            first_unit.push(first_unit[first_unit.len() - 1] + units);
        }
        let mut free_at = vec![0u64; first_unit[first_unit.len() - 1]];

        let n = self.durations.len();
        let mut pending = self.in_degree.clone();
        // Finish time of a node's latest operand so far; final once the
        // node is ready.
        let mut operands_at = vec![0u64; n];
        let mut start = vec![0u64; n];
        let mut finish = vec![0u64; n];
        let mut ready: Vec<u32> = (0..n as u32).filter(|&i| pending[i as usize] == 0).collect();
        let mut waiting: Vec<u32> = Vec::new();
        let mut time = 0u64;
        let mut done = 0usize;
        while done < n {
            ready.sort_unstable_by_key(|&i| self.rank[i as usize]);
            let mut started_any = false;
            for &i in &ready {
                let i = i as usize;
                if operands_at[i] > time {
                    waiting.push(i as u32);
                    continue;
                }
                let end = time + self.durations[i];
                if let Some(c) = self.class_of[i] {
                    let c = c as usize;
                    let units = &mut free_at[first_unit[c]..first_unit[c + 1]];
                    let Some(unit) = units.iter_mut().find(|f| **f <= time) else {
                        waiting.push(i as u32);
                        continue;
                    };
                    *unit = end;
                }
                start[i] = time;
                finish[i] = end;
                done += 1;
                started_any = true;
                for &s in self.succs.of(i) {
                    let s = s as usize;
                    operands_at[s] = operands_at[s].max(end);
                    pending[s] -= 1;
                    if pending[s] == 0 {
                        waiting.push(s as u32);
                    }
                }
            }
            std::mem::swap(&mut ready, &mut waiting);
            waiting.clear();
            if !started_any {
                let next_release = free_at.iter().copied().filter(|&f| f > time).min();
                let next_operands =
                    ready.iter().map(|&i| operands_at[i as usize]).filter(|&t| t > time).min();
                time = match (next_release, next_operands) {
                    (Some(a), Some(b)) => a.min(b),
                    (Some(a), None) | (None, Some(a)) => a,
                    (None, None) => time + 1,
                };
            }
        }
        Ok(Schedule::from_parts(start, finish))
    }
}

#[cfg(test)]
mod tests {
    use chop_dfg::benchmarks;
    use chop_dfg::{DfgBuilder, Operation};
    use chop_stat::units::Bits;

    use super::*;

    fn ar_alloc(adds: usize, muls: usize) -> ResourceMap {
        [(OpClass::Addition, adds), (OpClass::Multiplication, muls)].into_iter().collect()
    }

    #[test]
    fn missing_units_rejected() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 1);
        let alloc = ResourceMap::new();
        assert!(matches!(
            list_schedule(&g, &specs, &alloc),
            Err(ScheduleError::NoUnitsForClass(_))
        ));
    }

    #[test]
    fn spec_length_checked() {
        let g = benchmarks::diffeq();
        let other = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&other, 1);
        assert!(matches!(
            list_schedule(&g, &specs, &ar_alloc(1, 1)),
            Err(ScheduleError::SpecLengthMismatch { .. })
        ));
    }

    #[test]
    fn precedence_respected() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 1);
        let s = list_schedule(&g, &specs, &ar_alloc(2, 2)).unwrap();
        for (_, e) in g.edges() {
            assert!(s.finish(e.src()) <= s.start(e.dst()));
        }
    }

    #[test]
    fn resource_limits_respected() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 3);
        let alloc = ar_alloc(1, 2);
        let s = list_schedule(&g, &specs, &alloc).unwrap();
        // At every cycle, count concurrent ops per class.
        for t in 0..s.makespan() {
            for (class, limit) in alloc.iter() {
                let used = g
                    .node_ids()
                    .filter(|&id| {
                        specs.resource(id) == Some(class)
                            && s.start(id) <= t
                            && t < s.finish(id)
                    })
                    .count();
                assert!(used <= limit, "class {class} oversubscribed at cycle {t}");
            }
        }
    }

    #[test]
    fn more_units_never_slower() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 2);
        let slow = list_schedule(&g, &specs, &ar_alloc(1, 1)).unwrap();
        let fast = list_schedule(&g, &specs, &ar_alloc(4, 8)).unwrap();
        assert!(fast.makespan() <= slow.makespan());
    }

    #[test]
    fn serial_bound_matches_op_count() {
        // One adder, chain-free adds: makespan == #adds × duration.
        let mut b = DfgBuilder::new();
        let w = Bits::new(16);
        for _ in 0..5 {
            let x = b.node(Operation::Input, w);
            let y = b.node(Operation::Input, w);
            let a = b.node(Operation::Add, w);
            b.connect(x, a).unwrap();
            b.connect(y, a).unwrap();
        }
        let g = b.build().unwrap();
        let specs = NodeSpec::uniform(&g, 3);
        let s = list_schedule(&g, &specs, &ar_alloc(1, 1)).unwrap();
        assert_eq!(s.makespan(), 15);
    }

    #[test]
    fn parallel_bound_matches_critical_path() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 1);
        // Enough units for full parallelism: critical path is 5 FU ops.
        let s = list_schedule(&g, &specs, &ar_alloc(12, 16)).unwrap();
        assert_eq!(s.makespan(), 5);
    }

    #[test]
    fn multicycle_durations_extend_makespan() {
        let g = benchmarks::ar_lattice_filter();
        let one = list_schedule(&g, &NodeSpec::uniform(&g, 1), &ar_alloc(4, 4)).unwrap();
        let three = list_schedule(&g, &NodeSpec::uniform(&g, 3), &ar_alloc(4, 4)).unwrap();
        assert!(three.makespan() >= 3 * one.makespan() / 2);
    }

    #[test]
    fn per_class_durations() {
        // Multiplies take 5 cycles, adds 1.
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::from_fn(
            &g,
            |id| match g.node(id).op().class() {
                Some(OpClass::Multiplication) => 5,
                Some(_) => 1,
                None => 0,
            },
            |id| g.node(id).op().class(),
        );
        let s = list_schedule(&g, &specs, &ar_alloc(12, 16)).unwrap();
        // Critical path: mul(5), add(1), mul(5), add(1), add(1) = 13.
        assert_eq!(s.makespan(), 13);
    }
}
