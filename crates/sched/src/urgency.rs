//! Urgency scheduling of task graphs over capacitated resources.
//!
//! After CHOP creates data-transfer tasks, "an urgency scheduling is
//! performed to confirm feasibility of sharing the data pins of chips as
//! well as to keep memory accesses to each memory block feasible while
//! reaching the minimum overall system delay. The urgency measure is based
//! on the actual critical path delays of tasks" (paper §2.5). This module
//! is that scheduler, generalized over any set of capacitated resources
//! (pin pools, memory ports).

use std::fmt;

use crate::flat::FlatLists;

/// Identifier of a task in a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u32);

impl TaskId {
    /// The task's index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a capacitated resource (a chip's data-pin pool, a memory
/// block's port pool, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(u32);

impl ResourceId {
    /// Creates a resource id (an index into the capacity vector).
    #[must_use]
    pub fn new(index: u32) -> Self {
        Self(index)
    }

    /// The resource's index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Task {
    duration: u64,
    demands: Vec<(ResourceId, u64)>,
}

/// Error constructing or scheduling a [`TaskGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrgencyError {
    /// A dependency referenced an unknown task.
    UnknownTask(TaskId),
    /// The dependencies form a cycle.
    Cyclic,
    /// A task demands more of a resource than its total capacity — it can
    /// never run.
    UnsatisfiableDemand {
        /// The offending task.
        task: TaskId,
        /// The over-demanded resource.
        resource: ResourceId,
        /// Amount demanded.
        demanded: u64,
        /// Capacity available.
        capacity: u64,
    },
    /// A demand referenced a resource outside the capacity vector.
    UnknownResource(ResourceId),
}

impl fmt::Display for UrgencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrgencyError::UnknownTask(t) => write!(f, "unknown task {t}"),
            UrgencyError::Cyclic => write!(f, "task graph contains a cycle"),
            UrgencyError::UnsatisfiableDemand { task, resource, demanded, capacity } => write!(
                f,
                "task {task} demands {demanded} of {resource} but only {capacity} exists"
            ),
            UrgencyError::UnknownResource(r) => write!(f, "unknown resource {r}"),
        }
    }
}

impl std::error::Error for UrgencyError {}

/// Priority policy for [`TaskGraph::schedule_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Most urgent first — remaining critical path (the paper's choice).
    Urgency,
    /// First-come-first-served by task id — the baseline the urgency
    /// measure is ablated against.
    Fifo,
}

impl fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulePolicy::Urgency => write!(f, "urgency"),
            SchedulePolicy::Fifo => write!(f, "fifo"),
        }
    }
}

/// A precedence graph of tasks with durations and resource demands.
///
/// # Examples
///
/// ```
/// use chop_sched::urgency::{ResourceId, TaskGraph};
///
/// let pins = ResourceId::new(0);
/// let mut g = TaskGraph::new();
/// let produce = g.add_task(10, vec![]);
/// let transfer = g.add_task(3, vec![(pins, 16)]);
/// let consume = g.add_task(8, vec![]);
/// g.add_dep(produce, transfer)?;
/// g.add_dep(transfer, consume)?;
/// let s = g.schedule(&[16])?;
/// assert_eq!(s.makespan(), 21);
/// # Ok::<(), chop_sched::urgency::UrgencyError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    deps: Vec<(TaskId, TaskId)>,
}

impl TaskGraph {
    /// Creates an empty task graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task with a duration (cycles) and resource demands; returns
    /// its id.
    pub fn add_task(&mut self, duration: u64, demands: Vec<(ResourceId, u64)>) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task { duration, demands });
        id
    }

    /// Adds a precedence edge `before → after`.
    ///
    /// # Errors
    ///
    /// Returns [`UrgencyError::UnknownTask`] for ids not produced by this
    /// graph.
    pub fn add_dep(&mut self, before: TaskId, after: TaskId) -> Result<(), UrgencyError> {
        for t in [before, after] {
            if t.index() >= self.tasks.len() {
                return Err(UrgencyError::UnknownTask(t));
            }
        }
        self.deps.push((before, after));
        Ok(())
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Urgency of each task: its own duration plus the longest downstream
    /// chain — "the actual critical path delays of tasks".
    ///
    /// # Errors
    ///
    /// Returns [`UrgencyError::Cyclic`] if the precedences form a cycle.
    pub fn urgencies(&self) -> Result<Vec<u64>, UrgencyError> {
        let mut urgency = self.durations();
        self.topology()?.urgencies_in_place(&mut urgency);
        Ok(urgency)
    }

    fn durations(&self) -> Vec<u64> {
        self.tasks.iter().map(|t| t.duration).collect()
    }

    /// Predecessor and successor lists and a topological order.
    fn topology(&self) -> Result<Topology, UrgencyError> {
        let n = self.tasks.len();
        let preds = FlatLists::new(n, self.deps.iter().map(|&(a, b)| (b.0, a.0)).collect());
        let succs = FlatLists::new(n, self.deps.iter().map(|&(a, b)| (a.0, b.0)).collect());
        let mut indeg: Vec<usize> = (0..n).map(|i| preds.of(i).len()).collect();
        let mut ready: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(i);
            for &s in succs.of(i as usize) {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    ready.push(s);
                }
            }
        }
        if order.len() != n {
            return Err(UrgencyError::Cyclic);
        }
        Ok(Topology { preds, succs, order })
    }

    /// Compiles the graph for repeated scheduling over resources with the
    /// given capacities (indexed by [`ResourceId`]): validates every
    /// demand, then the precedences, and stores the adjacency, a
    /// topological order and the flattened demands. The plan schedules
    /// any vector of task durations (see [`TaskPlan::schedule`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`UrgencyError::UnknownResource`] or
    /// [`UrgencyError::UnsatisfiableDemand`] in task and demand order, then
    /// [`UrgencyError::Cyclic`] for cyclic precedences.
    pub fn compile(&self, capacities: &[u64]) -> Result<TaskPlan, UrgencyError> {
        for (i, task) in self.tasks.iter().enumerate() {
            for &(r, amount) in &task.demands {
                let cap = *capacities.get(r.index()).ok_or(UrgencyError::UnknownResource(r))?;
                if amount > cap {
                    return Err(UrgencyError::UnsatisfiableDemand {
                        task: TaskId(i as u32),
                        resource: r,
                        demanded: amount,
                        capacity: cap,
                    });
                }
            }
        }
        let topology = self.topology()?;
        let demands = FlatLists::new(
            self.tasks.len(),
            self.tasks
                .iter()
                .enumerate()
                .flat_map(|(i, t)| t.demands.iter().map(move |&(r, a)| (i as u32, (r.0, a))))
                .collect(),
        );
        Ok(TaskPlan { topology, demands, capacities: capacities.to_vec() })
    }

    /// Schedules the graph over resources with the given capacities
    /// (indexed by [`ResourceId`]), most-urgent-first.
    ///
    /// # Errors
    ///
    /// Returns an [`UrgencyError`] for cyclic precedences, demands on
    /// unknown resources or demands exceeding total capacity.
    pub fn schedule(&self, capacities: &[u64]) -> Result<TaskSchedule, UrgencyError> {
        self.schedule_with(SchedulePolicy::Urgency, capacities)
    }

    /// Schedules with an explicit priority policy — [`SchedulePolicy::Fifo`]
    /// exists to quantify what the urgency measure buys. Equivalent to
    /// [`TaskGraph::compile`] followed by [`TaskPlan::schedule`] with the
    /// tasks' own durations.
    ///
    /// # Errors
    ///
    /// Same as [`TaskGraph::schedule`].
    pub fn schedule_with(
        &self,
        policy: SchedulePolicy,
        capacities: &[u64],
    ) -> Result<TaskSchedule, UrgencyError> {
        Ok(self.compile(capacities)?.schedule(policy, &self.durations()))
    }
}

/// Adjacency (in dependency-insertion order) and a topological order of an
/// acyclic [`TaskGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Topology {
    preds: FlatLists<u32>,
    succs: FlatLists<u32>,
    order: Vec<u32>,
}

impl Topology {
    fn urgencies_in_place(&self, values: &mut [u64]) {
        for &i in self.order.iter().rev() {
            let downstream = self
                .succs
                .of(i as usize)
                .iter()
                .map(|&s| values[s as usize])
                .max()
                .unwrap_or(0);
            values[i as usize] = values[i as usize].saturating_add(downstream);
        }
    }
}

/// A [`TaskGraph`] compiled against a capacity vector by
/// [`TaskGraph::compile`]: the structure, checks and demands that do not
/// depend on task durations, so one graph can be scheduled for many
/// duration vectors without being rebuilt or re-validated.
///
/// # Examples
///
/// ```
/// use chop_sched::urgency::{ResourceId, SchedulePolicy, TaskGraph};
///
/// let pins = ResourceId::new(0);
/// let mut g = TaskGraph::new();
/// let produce = g.add_task(0, vec![]);
/// let transfer = g.add_task(3, vec![(pins, 16)]);
/// g.add_dep(produce, transfer)?;
/// let plan = g.compile(&[16])?;
/// for latency in [10, 20] {
///     let s = plan.schedule(SchedulePolicy::Urgency, &[latency, 3]);
///     assert_eq!(s.makespan(), latency + 3);
/// }
/// # Ok::<(), chop_sched::urgency::UrgencyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPlan {
    topology: Topology,
    /// `(resource index, amount)` demands per task.
    demands: FlatLists<(u32, u64)>,
    /// Resource capacities the plan was compiled against.
    capacities: Vec<u64>,
}

impl TaskPlan {
    /// Turns per-task durations into urgencies in place: each task's own
    /// duration plus the longest downstream chain. The largest urgency is
    /// the longest dependency path, a lower bound on every makespan.
    ///
    /// # Panics
    ///
    /// Panics if `values` has fewer entries than the plan has tasks.
    pub fn urgencies_in_place(&self, values: &mut [u64]) {
        self.topology.urgencies_in_place(values);
    }

    /// Schedules the compiled graph with the given task durations (indexed
    /// by [`TaskId`]) over the capacities it was compiled against, with
    /// the given priority policy. Runs [`TaskPlan::schedule_into`] with
    /// fresh buffers.
    ///
    /// # Panics
    ///
    /// Panics if `durations` does not have one entry per task.
    #[must_use]
    pub fn schedule(&self, policy: SchedulePolicy, durations: &[u64]) -> TaskSchedule {
        let mut scratch = TaskScratch::default();
        self.schedule_into(policy, durations, &mut scratch);
        scratch.schedule
    }

    /// [`TaskPlan::schedule`] into caller-owned buffers: a caller that
    /// schedules many duration vectors keeps one [`TaskScratch`] and
    /// allocates nothing after the first call. The returned schedule
    /// lives in `scratch` until the next call.
    ///
    /// Each pass visits the ready tasks in the policy's order and starts
    /// every one whose operands are available and whose demands fit. The
    /// next pass runs at the same time only if this pass released a task
    /// whose operands are already available, or started a zero-duration
    /// task that holds a resource (it frees the resource at once); no
    /// other task can start before the next finish, so time advances
    /// there directly.
    ///
    /// # Panics
    ///
    /// Panics if `durations` does not have one entry per task.
    pub fn schedule_into<'s>(
        &self,
        policy: SchedulePolicy,
        durations: &[u64],
        scratch: &'s mut TaskScratch,
    ) -> &'s TaskSchedule {
        let n = self.topology.order.len();
        assert_eq!(durations.len(), n, "one duration per task required");
        let capacities = &self.capacities;
        let Topology { preds, succs, .. } = &self.topology;
        let TaskScratch {
            urgency,
            order,
            rank,
            pending,
            operands_at,
            in_use,
            running,
            sets,
            schedule,
        } = scratch;
        // `order[r]` is the task of rank `r` in the policy's total order;
        // `rank` is its inverse.
        order.clear();
        order.extend(0..n as u32);
        if policy == SchedulePolicy::Urgency {
            urgency.clear();
            urgency.extend_from_slice(durations);
            self.topology.urgencies_in_place(urgency);
            order.sort_unstable_by_key(|&i| (std::cmp::Reverse(urgency[i as usize]), i));
        }
        rank.resize(n, 0);
        for (r, &i) in order.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        pending.clear();
        pending.extend((0..n).map(|i| preds.of(i).len()));
        // Finish time of a task's latest operand so far; final once the
        // task is ready.
        operands_at.clear();
        operands_at.resize(n, 0);
        in_use.clear();
        in_use.resize(capacities.len(), 0);
        running.clear();
        // Bit `r` of word `r / 64`: the task of rank `r` is ready, or was
        // released this pass and becomes ready when the pass ends.
        let words = n.div_ceil(64);
        sets.clear();
        sets.resize(2 * words, 0);
        let (ready, released) = sets.split_at_mut(words);
        let mark = |set: &mut [u64], r: u32| set[r as usize / 64] |= 1 << (r % 64);
        for i in (0..n).filter(|&i| pending[i] == 0) {
            mark(ready, rank[i]);
        }
        let TaskSchedule { start, finish } = schedule;
        start.clear();
        start.resize(n, 0);
        finish.clear();
        finish.resize(n, 0);
        let mut time = 0u64;
        let mut done = 0usize;
        while done < n {
            // A task can start in the next pass at this time.
            let mut again = false;
            for (w, word) in ready.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    let i = order[w * 64 + bit as usize] as usize;
                    let demands = self.demands.of(i);
                    if operands_at[i] > time
                        || !demands
                            .iter()
                            .all(|&(r, a)| in_use[r as usize] + a <= capacities[r as usize])
                    {
                        continue;
                    }
                    for &(r, amount) in demands {
                        in_use[r as usize] += amount;
                    }
                    *word &= !(1 << bit);
                    start[i] = time;
                    finish[i] = time + durations[i];
                    running.push((finish[i], i as u32));
                    done += 1;
                    again |= durations[i] == 0 && !demands.is_empty();
                    for &s in succs.of(i) {
                        let s = s as usize;
                        operands_at[s] = operands_at[s].max(finish[i]);
                        pending[s] -= 1;
                        if pending[s] == 0 {
                            mark(released, rank[s]);
                            again |= operands_at[s] <= time;
                        }
                    }
                }
            }
            for (ready, released) in ready.iter_mut().zip(released.iter_mut()) {
                *ready |= std::mem::take(released);
            }
            if !again {
                // Advance to the next release. A waiting task's operands
                // come from placed tasks, which are running until they
                // finish, so no operand-availability event comes earlier.
                time = running
                    .iter()
                    .map(|&(f, _)| f)
                    .filter(|&f| f > time)
                    .min()
                    .unwrap_or(time + 1);
            }
            // Release resources of tasks finished by `time`.
            running.retain(|&(f, i)| {
                if f > time {
                    return true;
                }
                for &(r, amount) in self.demands.of(i as usize) {
                    in_use[r as usize] -= amount;
                }
                false
            });
        }
        schedule
    }

    /// Idle (wait) time between a task's operands being ready and its
    /// start in `schedule` — [`TaskSchedule::wait_before`] read off the
    /// compiled predecessor lists.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn wait_before(&self, schedule: &TaskSchedule, id: TaskId) -> u64 {
        let ready = self
            .topology
            .preds
            .of(id.index())
            .iter()
            .map(|&p| schedule.finish[p as usize])
            .max()
            .unwrap_or(0);
        schedule.start[id.index()].saturating_sub(ready)
    }
}

/// Working buffers for [`TaskPlan::schedule_into`], reusable across calls
/// and across plans of any size.
#[derive(Debug, Clone, Default)]
pub struct TaskScratch {
    urgency: Vec<u64>,
    order: Vec<u32>,
    rank: Vec<u32>,
    pending: Vec<usize>,
    operands_at: Vec<u64>,
    in_use: Vec<u64>,
    /// Running tasks: (finish time, index).
    running: Vec<(u64, u32)>,
    /// The ready and released bitsets, one after the other.
    sets: Vec<u64>,
    schedule: TaskSchedule,
}

/// The result of [`TaskGraph::schedule`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskSchedule {
    start: Vec<u64>,
    finish: Vec<u64>,
}

impl TaskSchedule {
    /// Start cycle of a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn start(&self, id: TaskId) -> u64 {
        self.start[id.index()]
    }

    /// Finish cycle of a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn finish(&self, id: TaskId) -> u64 {
        self.finish[id.index()]
    }

    /// Overall makespan — the system delay in cycles.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.finish.iter().copied().max().unwrap_or(0)
    }

    /// Idle (wait) time between a task's operands being ready and its start
    /// — the `W` of the paper's buffer equation.
    #[must_use]
    pub fn wait_before(&self, graph: &TaskGraph, id: TaskId) -> u64 {
        let ready = graph
            .deps
            .iter()
            .filter(|(_, b)| *b == id)
            .map(|(a, _)| self.finish[a.index()])
            .max()
            .unwrap_or(0);
        self.start[id.index()].saturating_sub(ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_schedules_sequentially() {
        let mut g = TaskGraph::new();
        let a = g.add_task(5, vec![]);
        let b = g.add_task(3, vec![]);
        g.add_dep(a, b).unwrap();
        let s = g.schedule(&[]).unwrap();
        assert_eq!(s.start(a), 0);
        assert_eq!(s.start(b), 5);
        assert_eq!(s.makespan(), 8);
    }

    #[test]
    fn cyclic_deps_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add_task(1, vec![]);
        let b = g.add_task(1, vec![]);
        g.add_dep(a, b).unwrap();
        g.add_dep(b, a).unwrap();
        assert_eq!(g.schedule(&[]).unwrap_err(), UrgencyError::Cyclic);
    }

    #[test]
    fn impossible_demand_rejected() {
        let pins = ResourceId::new(0);
        let mut g = TaskGraph::new();
        let _ = g.add_task(1, vec![(pins, 100)]);
        assert!(matches!(
            g.schedule(&[64]).unwrap_err(),
            UrgencyError::UnsatisfiableDemand { .. }
        ));
    }

    #[test]
    fn unknown_resource_rejected() {
        let mut g = TaskGraph::new();
        let _ = g.add_task(1, vec![(ResourceId::new(5), 1)]);
        assert!(matches!(g.schedule(&[1]).unwrap_err(), UrgencyError::UnknownResource(_)));
    }

    #[test]
    fn resource_contention_serializes() {
        let pins = ResourceId::new(0);
        let mut g = TaskGraph::new();
        let a = g.add_task(4, vec![(pins, 10)]);
        let b = g.add_task(4, vec![(pins, 10)]);
        let s = g.schedule(&[10]).unwrap();
        // Both want all 10 pins: must serialize.
        let (first, second) = if s.start(a) <= s.start(b) { (a, b) } else { (b, a) };
        assert_eq!(s.start(first), 0);
        assert_eq!(s.start(second), 4);
        assert_eq!(s.makespan(), 8);
    }

    #[test]
    fn partial_demands_overlap() {
        let pins = ResourceId::new(0);
        let mut g = TaskGraph::new();
        let a = g.add_task(4, vec![(pins, 5)]);
        let b = g.add_task(4, vec![(pins, 5)]);
        let s = g.schedule(&[10]).unwrap();
        assert_eq!(s.start(a), 0);
        assert_eq!(s.start(b), 0);
        assert_eq!(s.makespan(), 4);
    }

    #[test]
    fn urgency_prefers_critical_chain() {
        let pins = ResourceId::new(0);
        let mut g = TaskGraph::new();
        // Critical chain: a(2) -> c(10). Short task: b(2).
        let a = g.add_task(2, vec![(pins, 10)]);
        let b = g.add_task(2, vec![(pins, 10)]);
        let c = g.add_task(10, vec![]);
        g.add_dep(a, c).unwrap();
        let s = g.schedule(&[10]).unwrap();
        // a (urgency 12) must run before b (urgency 2).
        assert!(s.start(a) < s.start(b));
        assert_eq!(s.makespan(), 12);
        let _ = c;
    }

    #[test]
    fn wait_before_measures_stall() {
        let pins = ResourceId::new(0);
        let mut g = TaskGraph::new();
        let src = g.add_task(1, vec![]);
        let hog = g.add_task(10, vec![(pins, 8)]);
        let xfer = g.add_task(2, vec![(pins, 8)]);
        g.add_dep(src, xfer).unwrap();
        let s = g.schedule(&[8]).unwrap();
        // hog (urgency 10) grabs the pins at t=0; xfer's operand is ready at
        // t=1 but it stalls until t=10.
        assert_eq!(s.start(hog), 0);
        assert_eq!(s.start(xfer), 10);
        assert_eq!(s.wait_before(&g, xfer), 9);
    }

    #[test]
    fn urgency_beats_fifo_on_critical_chains() {
        // FIFO starts b (id order) while the critical chain a→c waits.
        let pins = ResourceId::new(0);
        let mut g = TaskGraph::new();
        let b = g.add_task(2, vec![(pins, 10)]);
        let a = g.add_task(2, vec![(pins, 10)]);
        let c = g.add_task(10, vec![]);
        g.add_dep(a, c).unwrap();
        let urgent = g.schedule_with(SchedulePolicy::Urgency, &[10]).unwrap();
        let fifo = g.schedule_with(SchedulePolicy::Fifo, &[10]).unwrap();
        assert!(urgent.makespan() < fifo.makespan());
        let _ = b;
    }

    #[test]
    fn policies_agree_without_contention() {
        let mut g = TaskGraph::new();
        let a = g.add_task(3, vec![]);
        let b = g.add_task(4, vec![]);
        let _ = (a, b);
        let u = g.schedule_with(SchedulePolicy::Urgency, &[]).unwrap();
        let f = g.schedule_with(SchedulePolicy::Fifo, &[]).unwrap();
        assert_eq!(u.makespan(), f.makespan());
    }

    #[test]
    fn urgencies_computed_along_longest_path() {
        let mut g = TaskGraph::new();
        let a = g.add_task(1, vec![]);
        let b = g.add_task(2, vec![]);
        let c = g.add_task(3, vec![]);
        g.add_dep(a, b).unwrap();
        g.add_dep(b, c).unwrap();
        let u = g.urgencies().unwrap();
        assert_eq!(u[a.index()], 6);
        assert_eq!(u[b.index()], 5);
        assert_eq!(u[c.index()], 3);
    }
}
