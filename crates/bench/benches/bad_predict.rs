//! Cost of one BAD prediction sweep — the "fast predictors in place of
//! synthesis tools" claim underlying the whole methodology.

use chop_bad::prune::prune;
use chop_bad::{ArchitectureStyle, ClockConfig, PartitionEnvelope, Predictor, PredictorParams};
use chop_dfg::benchmarks;
use chop_library::standard::{table1_library, table2_packages};
use chop_stat::units::Nanos;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_predict(c: &mut Criterion) {
    let mut group = c.benchmark_group("bad_predict");
    let single_cycle = (
        ClockConfig::new(Nanos::new(300.0), 10, 1).unwrap(),
        ArchitectureStyle::single_cycle(),
    );
    let multi_cycle =
        (ClockConfig::new(Nanos::new(300.0), 1, 1).unwrap(), ArchitectureStyle::multi_cycle());
    // The partition shape `chop check` predicts most: about 35 operations,
    // 40 % multiplies, under the experiment-1 single-cycle clock.
    let layered = benchmarks::random_layered(
        1991,
        benchmarks::RandomDfgParams {
            layers: 5,
            width: 7,
            inputs: 4,
            mul_percent: 40,
            bits: 16,
        },
    );
    // Predict plus level-1 pruning, as the engine runs it on that shape:
    // the full list and then `prune`, against the fused path that prunes
    // bare candidates and fills in only the survivors. The envelope is the
    // 84-pin package under 1 ms constraints.
    {
        let (clocks, style) = single_cycle;
        let p = Predictor::new(table1_library(), clocks, style, PredictorParams::default());
        let ms = Nanos::new(1_000_000.0);
        let env = PartitionEnvelope::new(table2_packages()[1].usable_area(), ms, ms);
        group.bench_function("layered_single_cycle_pruned/predict_then_prune", |b| {
            b.iter(|| black_box(prune(p.predict(&layered).expect("predict"), &env, &clocks)));
        });
        group.bench_function("layered_single_cycle_pruned/sweep_prune", |b| {
            b.iter(|| black_box(p.sweep(&layered).expect("sweep").prune(&env, &clocks)));
        });
    }
    let cases = [
        ("ar_single_cycle".to_string(), benchmarks::ar_lattice_filter(), single_cycle),
        ("ar_multi_cycle".to_string(), benchmarks::ar_lattice_filter(), multi_cycle),
        ("ewf_multi_cycle".to_string(), benchmarks::elliptic_wave_filter(), multi_cycle),
        ("layered_single_cycle".to_string(), layered, single_cycle),
    ];
    // The scale curve: width-8 layered graphs of 48, 144, 272 and 528
    // nodes (8 inputs, 8 outputs).
    let scale = [4, 16, 32, 64].map(|layers| {
        let dfg = benchmarks::random_layered(
            1991,
            benchmarks::RandomDfgParams {
                layers,
                width: 8,
                inputs: 8,
                mul_percent: 40,
                bits: 16,
            },
        );
        (format!("layered_w8_{}_single_cycle", dfg.len()), dfg, single_cycle)
    });
    for (name, dfg, (clocks, style)) in cases.into_iter().chain(scale) {
        let p = Predictor::new(table1_library(), clocks, style, PredictorParams::default());
        group.bench_function(name, |b| {
            b.iter(|| black_box(p.predict(&dfg).expect("predict")));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_predict);
criterion_main!(benches);
