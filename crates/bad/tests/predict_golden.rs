//! BAD's output, pinned: for a matrix of graphs × operation timing ×
//! allocation sweep × allowed design styles, `Predictor::predict` yields
//! exactly the design count and the FNV-1a hash of `{:?}` of the design
//! list recorded in `fixtures/predict_golden.txt`.
//!
//! The hash covers every field of every `PredictedDesign` in emission
//! order (module set, allocation, style, timing, the area/delay/power
//! triplets to the last bit, the detail and the memory bandwidth), so a
//! restructured sweep passes only if it is byte-identical to the one that
//! wrote the fixture. Graphs the Table 1 library cannot implement are
//! skipped.
//!
//! On a mismatch the test writes what the predictor produced to
//! `<target>/tmp/predict_golden.txt` and names the first differing line; a
//! deliberate model change is reviewed by diffing that file against the
//! fixture and copying it over.

use std::fmt::Write as _;

use chop_bad::{
    AllocationSweep, ArchitectureStyle, ClockConfig, OperationTiming, Predictor,
    PredictorParams,
};
use chop_dfg::benchmarks::{self, random_layered, RandomDfgParams};
use chop_dfg::hash::StableHasher;
use chop_dfg::Dfg;
use chop_library::standard::table1_library;
use chop_stat::units::Nanos;

const FIXTURE: &str = include_str!("fixtures/predict_golden.txt");

fn graphs() -> Vec<(String, Dfg)> {
    let mut graphs = vec![
        ("ar".to_owned(), benchmarks::ar_lattice_filter()),
        ("fir8".to_owned(), benchmarks::fir_filter(8)),
        ("ewf".to_owned(), benchmarks::elliptic_wave_filter()),
    ];
    // The first is the shape `chop check` predicts most: one ≤ 35-op
    // partition with 40 % multiplies.
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

fn render() -> String {
    let library = table1_library();
    let timings = [
        ("single", OperationTiming::SingleCycle, 10),
        ("multi", OperationTiming::MultiCycle, 1),
    ];
    let sweeps =
        [("exhaustive", AllocationSweep::Exhaustive), ("pow2", AllocationSweep::PowersOfTwo)];
    let styles =
        [("both", true, true), ("pipelined", true, false), ("nonpipelined", false, true)];
    let mut out = String::new();
    for (graph, dfg) in graphs() {
        if library.check_supports(dfg.op_histogram().classes()).is_err() {
            continue;
        }
        for (timing_name, timing, multiplier) in timings {
            let clocks =
                ClockConfig::new(Nanos::new(300.0), multiplier, 1).expect("valid clocks");
            for (sweep_name, sweep) in sweeps {
                for (style_name, pipelined, nonpipelined) in styles {
                    let predictor = Predictor::new(
                        library.clone(),
                        clocks,
                        ArchitectureStyle::new(timing, pipelined, nonpipelined),
                        PredictorParams {
                            allocation_sweep: sweep,
                            ..PredictorParams::default()
                        },
                    );
                    let outcome = match predictor.predict(&dfg) {
                        Ok(designs) => {
                            let mut hasher = StableHasher::new();
                            hasher.write(format!("{designs:?}").as_bytes());
                            format!("designs={} fnv={:016x}", designs.len(), hasher.finish())
                        }
                        Err(e) => format!("error {e}"),
                    };
                    let _ = writeln!(
                        out,
                        "{graph} {timing_name} {sweep_name} {style_name} {outcome}"
                    );
                }
            }
        }
    }
    out
}

#[test]
fn predictions_match_the_golden_fixture() {
    let actual = render();
    if actual == FIXTURE {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("predict_golden.txt");
    std::fs::write(&dump, &actual).expect("write the actual predictions");
    let first = actual
        .lines()
        .zip(FIXTURE.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
    panic!(
        "predictions changed at fixture line {}:\n  fixture: {:?}\n  actual:  {:?}\n\
         full output written to {}",
        first + 1,
        FIXTURE.lines().nth(first),
        actual.lines().nth(first),
        dump.display()
    );
}
