//! Hot-path benches of the substrates: list scheduling, urgency
//! scheduling and DFG construction — the costs every CHOP query is built
//! from.

use chop_dfg::benchmarks::{self, random_layered, RandomDfgParams};
use chop_dfg::OpClass;
use chop_sched::urgency::{ResourceId, SchedulePolicy, TaskGraph, TaskScratch};
use chop_sched::{list_schedule, ListPlan, NodeSpec, ResourceMap};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_list_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("list_schedule");
    let ar = benchmarks::ar_lattice_filter();
    let big = random_layered(
        7,
        RandomDfgParams { layers: 12, width: 16, inputs: 8, mul_percent: 40, bits: 16 },
    );
    let alloc: ResourceMap =
        [(OpClass::Addition, 2), (OpClass::Multiplication, 3)].into_iter().collect();
    for (name, g) in [("ar_filter", &ar), ("layered_192", &big)] {
        let specs = NodeSpec::uniform(g, 3);
        group.bench_function(name, |b| {
            b.iter(|| black_box(list_schedule(g, &specs, &alloc).expect("schedule")));
        });
    }
    // BAD's use: one duration vector, every allocation of a 4 × 4 sweep.
    let specs = NodeSpec::uniform(&big, 3);
    let sweep: Vec<ResourceMap> = (1..=4)
        .flat_map(|adds| {
            (1..=4).map(move |muls| {
                [(OpClass::Addition, adds), (OpClass::Multiplication, muls)]
                    .into_iter()
                    .collect()
            })
        })
        .collect();
    group.bench_function("layered_192_plan_sweep", |b| {
        b.iter(|| {
            let plan = ListPlan::compile(&big, &specs).expect("compile");
            for alloc in &sweep {
                black_box(plan.schedule(alloc).expect("schedule"));
            }
        });
    });
    group.finish();
}

fn bench_urgency(c: &mut Criterion) {
    let mut group = c.benchmark_group("urgency_schedule");
    // A fan-out/fan-in task pipeline over one contended pin pool.
    let pins = ResourceId::new(0);
    let mut g = TaskGraph::new();
    let src = g.add_task(4, vec![]);
    let mut sinks = Vec::new();
    for _ in 0..32 {
        let xfer = g.add_task(3, vec![(pins, 16)]);
        let work = g.add_task(10, vec![]);
        g.add_dep(src, xfer).unwrap();
        g.add_dep(xfer, work).unwrap();
        sinks.push(work);
    }
    let done = g.add_task(1, vec![]);
    for s in sinks {
        g.add_dep(s, done).unwrap();
    }
    group.bench_function("fan32_pins64_urgency", |b| {
        b.iter(|| {
            black_box(g.schedule_with(SchedulePolicy::Urgency, &[64]).expect("schedule"))
        });
    });
    group.bench_function("fan32_pins64_fifo", |b| {
        b.iter(|| black_box(g.schedule_with(SchedulePolicy::Fifo, &[64]).expect("schedule")));
    });
    // One compiled plan scheduled for changing work durations, the way
    // integration reuses a partitioning's plan across candidates.
    let plan = g.compile(&[64]).expect("compile");
    let base: Vec<u64> =
        std::iter::once(4).chain((0..32).flat_map(|_| [3, 10])).chain([1]).collect();
    let vectors: Vec<Vec<u64>> = (0..4u64)
        .map(|v| base.iter().enumerate().map(|(i, &d)| d + (i as u64 * v) % 7).collect())
        .collect();
    let mut next = 0;
    group.bench_function("fan32_pins64_plan_reuse", |b| {
        b.iter(|| {
            next = (next + 1) % vectors.len();
            black_box(plan.schedule(SchedulePolicy::Urgency, &vectors[next]))
        });
    });
    // The same, into buffers kept across calls, as integration's scoring
    // workers schedule.
    let mut scratch = TaskScratch::default();
    group.bench_function("fan32_pins64_plan_scratch", |b| {
        b.iter(|| {
            next = (next + 1) % vectors.len();
            black_box(
                plan.schedule_into(SchedulePolicy::Urgency, &vectors[next], &mut scratch)
                    .makespan(),
            )
        });
    });
    group.finish();
}

fn bench_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_generation");
    group.bench_function("ar_filter", |b| {
        b.iter(|| black_box(benchmarks::ar_lattice_filter()));
    });
    group.bench_function("fft_64pt", |b| b.iter(|| black_box(benchmarks::fft_network(6))));
    group.finish();
}

criterion_group!(benches, bench_list_schedule, bench_urgency, bench_workloads);
criterion_main!(benches);
