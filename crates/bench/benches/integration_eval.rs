//! Cost of one system-integration evaluation (bandwidths, urgency
//! scheduling, buffers, transfer-module PLAs, feasibility analysis) — the
//! inner loop of both heuristics.
//!
//! This times the public `IntegrationContext::evaluate`, which builds a
//! fresh scratch per call and so schedules every time. The search path
//! scores through per-worker scratch that remembers each selection's
//! timing; `search_heuristics`' `warm_explore` group times that path.

use chop_bad::PredictorParams;
use chop_bench::layered_k8;
use chop_core::prelude::experiments::{experiment1_session, Exp1Config};
use chop_core::prelude::{FeasibilityCriteria, IntegrationContext};
use chop_stat::units::Cycles;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

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
