//! Level-1 pruning of BAD's output, pinned: for every graph × timing ×
//! allocation sweep of `predict_golden`'s matrix (both design styles
//! allowed) and three envelopes, `prune(predict(g), env)` yields exactly
//! the statistics, the kept count and the FNV-1a hash of `{:?}` of the
//! kept list recorded in `fixtures/prune_golden.txt`.
//!
//! The envelopes are one that admits nothing, the 84-pin MOSIS package
//! with 1 ms performance and delay constraints, and a tight area budget
//! (the lower quartile of the list's most-likely areas) met with
//! probability 0.8. The hash covers every field of every survivor in
//! order, so a pruning path that builds designs differently passes only
//! if the survivors and their order are byte-identical. Each line also
//! checks that `Predictor::sweep(g).prune(env)`, the path the engine
//! runs, returns exactly the same survivors and statistics.
//!
//! On a mismatch the test writes what pruning produced to
//! `<target>/tmp/prune_golden.txt` and names the first differing line.

use std::fmt::Write as _;

use chop_bad::prune::prune;
use chop_bad::{
    AllocationSweep, ArchitectureStyle, ClockConfig, OperationTiming, PartitionEnvelope,
    PredictedDesign, Predictor, PredictorParams,
};
use chop_dfg::benchmarks::{self, random_layered, RandomDfgParams};
use chop_dfg::hash::StableHasher;
use chop_dfg::Dfg;
use chop_library::standard::{table1_library, table2_packages};
use chop_stat::units::{Nanos, SquareMils};
use chop_stat::FeasibilityThreshold;

const FIXTURE: &str = include_str!("fixtures/prune_golden.txt");

fn graphs() -> Vec<(String, Dfg)> {
    let mut graphs = vec![
        ("ar".to_owned(), benchmarks::ar_lattice_filter()),
        ("fir8".to_owned(), benchmarks::fir_filter(8)),
        ("ewf".to_owned(), benchmarks::elliptic_wave_filter()),
    ];
    let random = [
        (1991, RandomDfgParams { layers: 5, width: 7, inputs: 4, mul_percent: 40, bits: 16 }),
        (7, RandomDfgParams { layers: 3, width: 4, inputs: 2, mul_percent: 70, bits: 16 }),
        (2024, RandomDfgParams { layers: 6, width: 3, inputs: 3, mul_percent: 20, bits: 16 }),
    ];
    for (seed, params) in random {
        graphs.push((format!("layered{seed}"), random_layered(seed, params)));
    }
    graphs
}

/// The three envelopes for one design list.
fn envelopes(designs: &[PredictedDesign]) -> [(&'static str, PartitionEnvelope); 3] {
    let millisecond = Nanos::new(1_000_000.0);
    let mut areas: Vec<f64> = designs.iter().map(|d| d.area().likely()).collect();
    areas.sort_by(f64::total_cmp);
    let quartile = areas.get(areas.len() / 4).copied().unwrap_or(0.0);
    [
        (
            "none",
            PartitionEnvelope::new(SquareMils::new(0.0), Nanos::new(0.0), Nanos::new(0.0)),
        ),
        (
            "mosis84",
            PartitionEnvelope::new(
                table2_packages()[1].usable_area(),
                millisecond,
                millisecond,
            ),
        ),
        (
            "tight-area",
            PartitionEnvelope::new(SquareMils::new(quartile), millisecond, millisecond)
                .with_thresholds(
                    FeasibilityThreshold::new(0.8),
                    FeasibilityThreshold::certain(),
                    FeasibilityThreshold::new(0.8),
                ),
        ),
    ]
}

fn render() -> String {
    let library = table1_library();
    let timings = [
        ("single", OperationTiming::SingleCycle, 10),
        ("multi", OperationTiming::MultiCycle, 1),
    ];
    let sweeps =
        [("exhaustive", AllocationSweep::Exhaustive), ("pow2", AllocationSweep::PowersOfTwo)];
    let mut out = String::new();
    for (graph, dfg) in graphs() {
        if library.check_supports(dfg.op_histogram().classes()).is_err() {
            continue;
        }
        for (timing_name, timing, multiplier) in timings {
            let clocks =
                ClockConfig::new(Nanos::new(300.0), multiplier, 1).expect("valid clocks");
            for (sweep_name, sweep) in sweeps {
                let predictor = Predictor::new(
                    library.clone(),
                    clocks,
                    ArchitectureStyle::new(timing, true, true),
                    PredictorParams { allocation_sweep: sweep, ..PredictorParams::default() },
                );
                let designs = match predictor.predict(&dfg) {
                    Ok(designs) => designs,
                    Err(e) => {
                        let _ = writeln!(out, "{graph} {timing_name} {sweep_name} error {e}");
                        continue;
                    }
                };
                for (envelope_name, envelope) in envelopes(&designs) {
                    let (kept, stats) = prune(designs.clone(), &envelope, &clocks);
                    // The engine's fused path must keep the same bytes.
                    let sweep = predictor.sweep(&dfg).expect("predict succeeded");
                    assert_eq!(
                        sweep.prune(&envelope, &clocks),
                        (kept.clone(), stats),
                        "{graph} {timing_name} {sweep_name} {envelope_name}: \
                         Sweep::prune differs from prune(predict)"
                    );
                    let mut hasher = StableHasher::new();
                    hasher.write(format!("{kept:?}").as_bytes());
                    let _ = writeln!(
                        out,
                        "{graph} {timing_name} {sweep_name} {envelope_name} total={} \
                         feasible={} non_inferior={} kept={} fnv={:016x}",
                        stats.total,
                        stats.feasible,
                        stats.non_inferior,
                        kept.len(),
                        hasher.finish()
                    );
                }
            }
        }
    }
    out
}

#[test]
fn pruning_matches_the_golden_fixture() {
    let actual = render();
    if actual == FIXTURE {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("prune_golden.txt");
    std::fs::write(&dump, &actual).expect("write the actual pruning output");
    let first = actual
        .lines()
        .zip(FIXTURE.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
    panic!(
        "pruning changed at fixture line {}:\n  fixture: {:?}\n  actual:  {:?}\n\
         full output written to {}",
        first + 1,
        FIXTURE.lines().nth(first),
        actual.lines().nth(first),
        dump.display()
    );
}
