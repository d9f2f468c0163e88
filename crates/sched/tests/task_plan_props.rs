//! Property tests of compiled task plans: one [`TaskPlan`] scheduled with
//! many duration vectors must match a fresh compile per vector and a
//! reference list scheduler, its `wait_before` must match the schedule's
//! own, and `compile` must report exactly the error scheduling reports.
//!
//! The plan skips the passes that cannot start anything; the cases where
//! it must instead re-run a pass at the same time (chains of
//! zero-duration tasks, zero-duration tasks that hold a resource, tasks
//! that contend at equal urgency) are compared with the reference both
//! by example and on random shapes built mostly of them.
//!
//! [`TaskPlan`]: chop_sched::urgency::TaskPlan

use chop_sched::urgency::{
    ResourceId, SchedulePolicy, TaskGraph, TaskId, TaskSchedule, TaskScratch, UrgencyError,
};
use proptest::prelude::*;

/// A random task graph description: per-task `(duration, demands)`, the
/// precedence edges and the resource capacities.
#[derive(Debug, Clone)]
struct Shape {
    tasks: Vec<(u64, Vec<(u32, u64)>)>,
    deps: Vec<(usize, usize)>,
    capacities: Vec<u64>,
}

impl Shape {
    fn graph(&self, durations: &[u64]) -> (TaskGraph, Vec<TaskId>) {
        let mut g = TaskGraph::new();
        let ids: Vec<TaskId> = self
            .tasks
            .iter()
            .zip(durations)
            .map(|((_, demands), &d)| {
                let demands = demands.iter().map(|&(r, a)| (ResourceId::new(r), a)).collect();
                g.add_task(d, demands)
            })
            .collect();
        for &(a, b) in &self.deps {
            g.add_dep(ids[a], ids[b]).expect("known tasks");
        }
        (g, ids)
    }

    fn durations(&self) -> Vec<u64> {
        self.tasks.iter().map(|&(d, _)| d).collect()
    }
}

/// Acyclic shapes (edges only run from lower to higher task index) whose
/// demands fit their resources; zero durations and duplicate edges
/// included.
fn arb_dag() -> impl Strategy<Value = Shape> {
    (1usize..24, 0usize..4).prop_flat_map(|(n, resources)| {
        let capacities = proptest::collection::vec(1u64..20, resources..resources + 1);
        let tasks = proptest::collection::vec(
            (0u64..12, proptest::collection::vec((0u32..4, 0u64..20), 0..3)),
            n..n + 1,
        );
        let edges = proptest::collection::vec((0usize..n, 0usize..n), 0..2 * n + 1);
        (capacities, tasks, edges).prop_map(|(capacities, tasks, edges)| {
            let tasks = tasks
                .into_iter()
                .map(|(d, demands)| {
                    let demands = demands
                        .into_iter()
                        .filter(|&(r, _)| (r as usize) < capacities.len())
                        .map(|(r, a)| (r, a.min(capacities[r as usize])))
                        .collect();
                    (d, demands)
                })
                .collect();
            let deps = edges
                .into_iter()
                .filter(|&(a, b)| a != b)
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            Shape { tasks, deps, capacities }
        })
    })
}

/// Reference scheduler: a direct transcription of the list-scheduling loop
/// that `TaskPlan::schedule` replaced. Each pass re-sorts the ready tasks
/// by the policy, places every task whose operands are available and whose
/// demands fit, and otherwise advances time to the next finish or
/// operand-availability event. Returns `(start, finish)` per task.
fn reference_schedule(
    shape: &Shape,
    durations: &[u64],
    policy: SchedulePolicy,
) -> Vec<(u64, u64)> {
    let n = shape.tasks.len();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pred_count = vec![0usize; n];
    for &(a, b) in &shape.deps {
        succ[a].push(b);
        pred[b].push(a);
        pred_count[b] += 1;
    }
    // `arb_dag` edges run from lower to higher index, so reverse index
    // order is a reverse topological order.
    let mut urgency = vec![0u64; n];
    for i in (0..n).rev() {
        urgency[i] = durations[i] + succ[i].iter().map(|&s| urgency[s]).max().unwrap_or(0);
    }
    let demands = |i: usize| shape.tasks[i].1.iter().map(|&(r, a)| (r as usize, a));
    let capacities = &shape.capacities;
    let mut start = vec![0u64; n];
    let mut finish = vec![0u64; n];
    let mut placed = vec![false; n];
    let mut in_use = vec![0u64; capacities.len()];
    let mut running: Vec<(u64, usize)> = Vec::new();
    let mut ready: Vec<usize> = (0..n).filter(|&i| pred_count[i] == 0).collect();
    let mut time = 0u64;
    let mut done = 0usize;
    while done < n {
        match policy {
            SchedulePolicy::Urgency => {
                ready.sort_by_key(|&i| (std::cmp::Reverse(urgency[i]), i))
            }
            SchedulePolicy::Fifo => ready.sort_unstable(),
        }
        let mut still_waiting = Vec::new();
        let mut progressed = false;
        for &i in &ready {
            let operands_at = pred[i].iter().map(|&p| finish[p]).max().unwrap_or(0);
            if operands_at > time || !demands(i).all(|(r, a)| in_use[r] + a <= capacities[r]) {
                still_waiting.push(i);
                continue;
            }
            for (r, a) in demands(i) {
                in_use[r] += a;
            }
            start[i] = time;
            finish[i] = time + durations[i];
            running.push((finish[i], i));
            placed[i] = true;
            done += 1;
            progressed = true;
            for &s in &succ[i] {
                pred_count[s] -= 1;
                if pred_count[s] == 0 {
                    still_waiting.push(s);
                }
            }
        }
        still_waiting.sort_unstable();
        still_waiting.dedup();
        still_waiting.retain(|&i| !placed[i]);
        ready = still_waiting;
        if !progressed {
            let next_finish = running.iter().map(|&(f, _)| f).filter(|&f| f > time).min();
            let next_operand = ready
                .iter()
                .flat_map(|&i| pred[i].iter().map(|&p| finish[p]))
                .filter(|&f| f > time)
                .min();
            time = match (next_finish, next_operand) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => time + 1,
            };
        }
        running.retain(|&(f, i)| {
            if f > time {
                return true;
            }
            for (r, a) in demands(i) {
                in_use[r] -= a;
            }
            false
        });
    }
    start.into_iter().zip(finish).collect()
}

/// Checks `shape` at `durations` under both policies against the
/// reference, scheduling into `scratch` (reused across calls and shapes).
fn check_against_reference(shape: &Shape, durations: &[u64], scratch: &mut TaskScratch) {
    let (graph, ids) = shape.graph(durations);
    let plan = graph.compile(&shape.capacities).expect("valid shape");
    for policy in [SchedulePolicy::Urgency, SchedulePolicy::Fifo] {
        let reference = reference_schedule(shape, durations, policy);
        let fresh = plan.schedule(policy, durations);
        let reused = plan.schedule_into(policy, durations, scratch);
        assert_same(reused, &fresh, &ids);
        for (&id, &(start, finish)) in ids.iter().zip(&reference) {
            assert_eq!(
                (reused.start(id), reused.finish(id)),
                (start, finish),
                "{policy}: task {id} of {shape:?} at {durations:?}"
            );
        }
    }
}

/// A chain of zero-duration tasks, some holding the whole resource: each
/// releases the next with its operands available, so the whole chain
/// runs at time 0.
#[test]
fn zero_duration_chains_run_at_one_time() {
    let shape = Shape {
        tasks: vec![
            (0, vec![(0, 4)]),
            (0, vec![]),
            (0, vec![(0, 4)]),
            (0, vec![(0, 4)]),
            (2, vec![(0, 4)]),
        ],
        deps: vec![(0, 1), (1, 2), (2, 3), (3, 4)],
        capacities: vec![4],
    };
    let mut scratch = TaskScratch::default();
    check_against_reference(&shape, &shape.durations(), &mut scratch);
    let (graph, ids) = shape.graph(&shape.durations());
    let s = graph.schedule(&shape.capacities).expect("valid shape");
    for &id in &ids {
        assert_eq!(s.start(id), 0, "task {id}");
    }
    assert_eq!(s.makespan(), 2);
}

/// Zero-duration tasks that hold the whole resource and release nothing:
/// each frees the resource at once, so the next contender starts at the
/// same time, one pass later.
#[test]
fn zero_duration_tasks_holding_a_resource_free_it_at_once() {
    let shape = Shape {
        tasks: vec![(0, vec![(0, 8)]), (0, vec![(0, 8)]), (0, vec![(0, 8)]), (5, vec![(0, 8)])],
        deps: vec![],
        capacities: vec![8],
    };
    let mut scratch = TaskScratch::default();
    check_against_reference(&shape, &shape.durations(), &mut scratch);
    let (graph, ids) = shape.graph(&shape.durations());
    let starts = |policy| {
        let s = graph.schedule_with(policy, &shape.capacities).expect("valid shape");
        ids.iter().map(|&id| s.start(id)).collect::<Vec<_>>()
    };
    // First come, first served: all three pass through at time 0 before
    // the five-cycle task takes the pins.
    assert_eq!(starts(SchedulePolicy::Fifo), [0, 0, 0, 0]);
    // Most urgent first: the five-cycle task holds the pins, then the
    // three pass through at its finish.
    assert_eq!(starts(SchedulePolicy::Urgency), [5, 5, 5, 0]);
}

/// Tasks of equal urgency contending for one pin pool: ties go by task
/// index, and each finish admits the next contender.
#[test]
fn equal_urgency_contention_breaks_ties_by_index() {
    let shape = Shape {
        tasks: vec![
            (0, vec![]),
            (3, vec![(0, 6)]),
            (3, vec![(0, 6)]),
            (3, vec![(0, 6), (1, 1)]),
            (3, vec![(1, 1)]),
            (0, vec![(0, 6)]),
            (0, vec![(0, 6)]),
        ],
        deps: vec![(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)],
        capacities: vec![10, 1],
    };
    let mut scratch = TaskScratch::default();
    check_against_reference(&shape, &shape.durations(), &mut scratch);
    for durations in [[1, 3, 3, 3, 3, 3, 3], [0, 0, 0, 0, 0, 0, 0], [2, 1, 1, 1, 1, 0, 0]] {
        check_against_reference(&shape, &durations, &mut scratch);
    }
}

/// Shapes built mostly of the cases above: zero durations, equal
/// durations and demands that fill a resource.
fn arb_zero_heavy_dag() -> impl Strategy<Value = Shape> {
    (1usize..20, 1usize..3).prop_flat_map(|(n, resources)| {
        let capacities = proptest::collection::vec(1u64..6, resources..resources + 1);
        let tasks = proptest::collection::vec(
            (
                (0usize..5).prop_map(|d| [0u64, 0, 0, 1, 3][d]),
                proptest::collection::vec((0u32..2, 1u64..6), 0..3),
            ),
            n..n + 1,
        );
        let edges = proptest::collection::vec((0usize..n, 0usize..n), 0..n + 1);
        (capacities, tasks, edges).prop_map(|(capacities, tasks, edges)| {
            let tasks = tasks
                .into_iter()
                .map(|(d, demands)| {
                    let demands = demands
                        .into_iter()
                        .filter(|&(r, _)| (r as usize) < capacities.len())
                        .map(|(r, a)| (r, a.min(capacities[r as usize])))
                        .collect();
                    (d, demands)
                })
                .collect();
            let deps = edges
                .into_iter()
                .filter(|&(a, b)| a != b)
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            Shape { tasks, deps, capacities }
        })
    })
}

fn assert_same(a: &TaskSchedule, b: &TaskSchedule, ids: &[TaskId]) {
    assert_eq!(a.makespan(), b.makespan());
    for &id in ids {
        assert_eq!((a.start(id), a.finish(id)), (b.start(id), b.finish(id)), "task {id}");
    }
}

/// The error scheduling must report: the first unknown or over-demanded
/// resource in task and demand order, else a cycle.
fn expected_error(shape: &Shape, ids: &[TaskId], cyclic: bool) -> Option<UrgencyError> {
    for (i, (_, demands)) in shape.tasks.iter().enumerate() {
        for &(r, amount) in demands {
            let resource = ResourceId::new(r);
            let Some(&capacity) = shape.capacities.get(r as usize) else {
                return Some(UrgencyError::UnknownResource(resource));
            };
            if amount > capacity {
                return Some(UrgencyError::UnsatisfiableDemand {
                    task: ids[i],
                    resource,
                    demanded: amount,
                    capacity,
                });
            }
        }
    }
    cyclic.then_some(UrgencyError::Cyclic)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_plan_schedules_every_duration_vector_like_a_fresh_compile(
        shape in arb_dag(),
        vectors in proptest::collection::vec(proptest::collection::vec(0u64..15, 24..25), 1..6),
    ) {
        let (graph, ids) = shape.graph(&shape.durations());
        let plan = graph.compile(&shape.capacities).expect("valid shape");
        for vector in vectors {
            let durations = &vector[..ids.len()];
            let (fresh, _) = shape.graph(durations);
            for policy in [SchedulePolicy::Urgency, SchedulePolicy::Fifo] {
                let reused = plan.schedule(policy, durations);
                let compiled =
                    fresh.compile(&shape.capacities).expect("valid shape").schedule(policy, durations);
                assert_same(&reused, &compiled, &ids);
                let reference = reference_schedule(&shape, durations, policy);
                for (&id, &(start, finish)) in ids.iter().zip(&reference) {
                    prop_assert_eq!((reused.start(id), reused.finish(id)), (start, finish));
                }
            }
        }
    }

    #[test]
    fn zero_heavy_shapes_match_the_reference(
        shapes in proptest::collection::vec(arb_zero_heavy_dag(), 1..4),
    ) {
        // One scratch across shapes of different sizes.
        let mut scratch = TaskScratch::default();
        for shape in &shapes {
            check_against_reference(shape, &shape.durations(), &mut scratch);
        }
    }

    #[test]
    fn plan_wait_before_matches_the_schedule(shape in arb_dag()) {
        let (graph, ids) = shape.graph(&shape.durations());
        let plan = graph.compile(&shape.capacities).expect("valid shape");
        for policy in [SchedulePolicy::Urgency, SchedulePolicy::Fifo] {
            let s = plan.schedule(policy, &shape.durations());
            for &id in &ids {
                prop_assert_eq!(plan.wait_before(&s, id), s.wait_before(&graph, id));
            }
        }
    }

    #[test]
    fn compile_reports_the_scheduling_error(
        shape in arb_dag(),
        cycle in (any::<bool>(), 0usize..24, 0usize..24),
        bad_demand in (0u32..3, 0usize..24, 0u32..6, 1u64..40),
    ) {
        let mut shape = shape;
        let n = shape.tasks.len();
        // Optionally close a two-task cycle.
        let (close, a, b) = cycle;
        let cyclic = close && a % n != b % n;
        if cyclic {
            shape.deps.push((a % n, b % n));
            shape.deps.push((b % n, a % n));
        }
        // Optionally append a demand on a possibly unknown resource,
        // possibly beyond its capacity.
        let (kind, task, resource, amount) = bad_demand;
        if kind > 0 {
            shape.tasks[task % n].1.push((resource, amount));
        }
        let (graph, ids) = shape.graph(&shape.durations());
        let expected = expected_error(&shape, &ids, cyclic);
        prop_assert_eq!(graph.compile(&shape.capacities).err(), expected.clone());
        for policy in [SchedulePolicy::Urgency, SchedulePolicy::Fifo] {
            prop_assert_eq!(graph.schedule_with(policy, &shape.capacities).err(), expected.clone());
        }
        prop_assert_eq!(graph.urgencies().err(), cyclic.then_some(UrgencyError::Cyclic));
    }
}
