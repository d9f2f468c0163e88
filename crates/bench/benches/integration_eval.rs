//! Cost of one system-integration evaluation (bandwidths, urgency
//! scheduling, buffers, transfer-module PLAs, feasibility analysis) — the
//! inner loop of both heuristics.

use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};
use chop_core::prelude::experiments::{experiment1_session, Exp1Config};
use chop_core::prelude::{
    Constraints, FeasibilityCriteria, IntegrationContext, PartitioningBuilder, Session,
};
use chop_dfg::benchmarks::{random_layered, RandomDfgParams};
use chop_library::standard::{table1_library, table2_packages};
use chop_library::ChipSet;
use chop_stat::units::{Cycles, Nanos};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// The shape a warm service explore integrates: a 180-operation
/// single-cycle layered spec cut into 8 partitions under 1 ms constraints.
fn layered_k8() -> Session {
    let dfg = random_layered(
        1991,
        RandomDfgParams { layers: 12, width: 15, inputs: 4, mul_percent: 40, bits: 16 },
    );
    let chips = ChipSet::uniform(table2_packages()[1].clone(), 8);
    let partitioning =
        PartitioningBuilder::new(dfg, chips).split_horizontal(8).build().expect("valid");
    Session::new(
        partitioning,
        table1_library(),
        ClockConfig::new(Nanos::new(300.0), 10, 1).expect("valid clocks"),
        ArchitectureStyle::single_cycle(),
        PredictorParams::default(),
        Constraints::new(Nanos::new(1e6), Nanos::new(1e6)),
    )
}

fn bench_evaluate(c: &mut Criterion) {
    let mut group = c.benchmark_group("integration_eval");
    let cases = [2usize, 3]
        .into_iter()
        .map(|partitions| {
            let session =
                experiment1_session(&Exp1Config { partitions, package: 1 }).expect("valid");
            (format!("k{partitions}"), session)
        })
        .chain([("layered180_k8".to_owned(), layered_k8())]);
    for (name, session) in cases {
        let (lists, _) = session.predict_partitions().expect("predict");
        let ctx = IntegrationContext::new(
            session.partitioning(),
            session.library(),
            *session.clocks(),
            PredictorParams::default(),
            FeasibilityCriteria::paper_defaults(),
            *session.constraints(),
        );
        let selection: Vec<_> = lists.iter().map(|l| &l[0]).collect();
        let mut ii = selection
            .iter()
            .map(|d| d.initiation_interval().value())
            .max()
            .unwrap()
            .max(ctx.min_transfer_ii().value());
        // Time a scheduled evaluation, not an early-rejection stub.
        while ctx
            .evaluate(&selection, Cycles::new(ii))
            .expect("evaluate")
            .transfer_modules
            .is_empty()
        {
            ii *= 2;
        }
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    ctx.evaluate(black_box(&selection), Cycles::new(ii)).expect("evaluate"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_evaluate);
criterion_main!(benches);
