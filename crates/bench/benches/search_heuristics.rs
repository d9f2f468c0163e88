//! The CPU-time columns of Tables 4 and 6: run time of heuristics E and I
//! per experiment and partition count, and a warm heuristic-I explore of
//! the 8-partition shape a service explore runs.

use chop_bench::layered_k8;
use chop_core::prelude::experiments::{
    experiment1_session, experiment2_session, Exp1Config, Exp2Config,
};
use chop_core::prelude::Heuristic;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_exp1(c: &mut Criterion) {
    let mut group = c.benchmark_group("exp1_search");
    group.sample_size(10);
    for partitions in 1..=3usize {
        let session =
            experiment1_session(&Exp1Config { partitions, package: 1 }).expect("valid");
        for (name, h) in [("E", Heuristic::Enumeration), ("I", Heuristic::Iterative)] {
            group.bench_function(format!("k{partitions}_{name}"), |b| {
                b.iter(|| black_box(session.explore(h).expect("explore")));
            });
        }
    }
    group.finish();
}

fn bench_exp2(c: &mut Criterion) {
    let mut group = c.benchmark_group("exp2_search");
    group.sample_size(10);
    for partitions in 1..=3usize {
        let session =
            experiment2_session(&Exp2Config { partitions, package: 1 }).expect("valid");
        for (name, h) in [("E", Heuristic::Enumeration), ("I", Heuristic::Iterative)] {
            group.bench_function(format!("k{partitions}_{name}"), |b| {
                b.iter(|| black_box(session.explore(h).expect("explore")));
            });
        }
    }
    group.finish();
}

/// Re-explores a session whose prediction cache is already full, so the
/// time is the search and its integrations alone.
fn bench_warm_explore(c: &mut Criterion) {
    let mut group = c.benchmark_group("warm_explore");
    let session = layered_k8();
    session.explore(Heuristic::Iterative).expect("explore");
    group.bench_function("layered180_k8_I", |b| {
        b.iter(|| black_box(session.explore(Heuristic::Iterative).expect("explore")));
    });
    group.finish();
}

criterion_group!(benches, bench_exp1, bench_exp2, bench_warm_explore);
criterion_main!(benches);
