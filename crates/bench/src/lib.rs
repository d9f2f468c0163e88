//! Experiment harness for the CHOP reproduction.
//!
//! Each binary target regenerates one table or figure of the paper's
//! evaluation (see `DESIGN.md` for the index):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table 1 — the 3 µm module library |
//! | `table2` | Table 2 — the MOSIS package subset |
//! | `figure6` | Fig. 6 — AR lattice filter statistics + DOT dump |
//! | `table3` | Table 3 — BAD statistics, experiment 1 |
//! | `table4` | Table 4 — results of experiment 1 |
//! | `table5` | Table 5 — BAD statistics, experiment 2 |
//! | `table6` | Table 6 — results of experiment 2 |
//! | `figure7` | Fig. 7 — design space of experiment 1 (keep-all) |
//! | `figure8` | Fig. 8 — design space of experiment 2, one partition |
//! | `experiments` | all of the above, in order |
//!
//! The Criterion benches (`cargo bench -p chop-bench --bench <target>
//! [-- <filter>]`) cover the run-time claims and the substrate hot paths:
//!
//! | target | groups | times |
//! |---|---|---|
//! | `search_heuristics` | `exp1_search`, `exp2_search`, `warm_explore` | the CPU-time columns of Tables 4 and 6; a warm 8-partition explore |
//! | `prune_ablation` | `prune_ablation`, `probabilistic_ablation` | the §3.1 pruning claim; paper vs point feasibility criteria |
//! | `bad_predict` | `bad_predict` | one BAD prediction sweep |
//! | `integration_eval` | `integration_eval` | one system-integration evaluation |
//! | `substrate` | `list_schedule`, `urgency_schedule`, `workload_generation` | the scheduling and DFG substrates |
//!
//! End-to-end speed claims go through `perf_ledger`
//! (`crates/bench/src/bin/perf_ledger/`), a package of its own.

use std::time::Duration;

use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};
use chop_core::prelude::experiments::{
    experiment1_session, experiment2_session, Exp1Config, Exp2Config,
};
use chop_core::prelude::{
    Constraints, DesignPoint, Heuristic, PartitioningBuilder, SearchOutcome, Session,
};
use chop_dfg::benchmarks::{random_layered, RandomDfgParams};
use chop_library::standard::{table1_library, table2_packages};
use chop_library::ChipSet;
use chop_stat::units::Nanos;

/// The shape a warm service explore integrates: a 180-operation
/// single-cycle layered spec cut into 8 partitions under 1 ms constraints.
///
/// # Panics
///
/// Never: the spec and its partitioning are known-good.
#[must_use]
pub fn layered_k8() -> Session {
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

/// One row block of Table 4/6: configuration, heuristic and its outcome.
#[derive(Debug)]
pub struct ResultRow {
    /// Partition count.
    pub partitions: usize,
    /// Table 2 package number (1-based, as in the paper).
    pub package_no: usize,
    /// Heuristic used.
    pub heuristic: Heuristic,
    /// Search outcome.
    pub outcome: SearchOutcome,
}

/// Runs experiment 1 for the paper's full row set (both packages, both
/// heuristics, 1–3 partitions).
///
/// # Panics
///
/// Panics if any session fails to build or explore — the canned
/// experiment configurations are known-good.
#[must_use]
pub fn experiment1_rows() -> Vec<ResultRow> {
    let mut rows = Vec::new();
    for &(partitions, package) in &[(1usize, 1usize), (2, 1), (2, 0), (3, 1)] {
        for heuristic in [Heuristic::Enumeration, Heuristic::Iterative] {
            let session =
                experiment1_session(&Exp1Config { partitions, package }).expect("valid config");
            let outcome = session.explore(heuristic).expect("exploration succeeds");
            rows.push(ResultRow { partitions, package_no: package + 1, heuristic, outcome });
        }
    }
    rows
}

/// Runs experiment 2 for the paper's row set (package 2, both heuristics,
/// 1–3 partitions).
///
/// # Panics
///
/// Panics if any session fails to build or explore.
#[must_use]
pub fn experiment2_rows() -> Vec<ResultRow> {
    let mut rows = Vec::new();
    for partitions in 1..=3usize {
        for heuristic in [Heuristic::Iterative, Heuristic::Enumeration] {
            let session = experiment2_session(&Exp2Config { partitions, package: 1 })
                .expect("valid config");
            let outcome = session.explore(heuristic).expect("exploration succeeds");
            rows.push(ResultRow { partitions, package_no: 2, heuristic, outcome });
        }
    }
    rows
}

/// Table 3/5 statistics per partition count (they depend only on BAD and
/// level-1 pruning, not on the search heuristic).
///
/// # Panics
///
/// Panics if a session fails or `experiment` is not 1 or 2.
#[must_use]
pub fn prediction_stats(experiment: u8) -> Vec<(usize, usize, usize)> {
    (1..=3usize)
        .map(|partitions| {
            let session: Session = match experiment {
                1 => experiment1_session(&Exp1Config { partitions, package: 1 })
                    .expect("valid config"),
                2 => experiment2_session(&Exp2Config { partitions, package: 1 })
                    .expect("valid config"),
                other => panic!("unknown experiment {other}"),
            };
            let (_, stats) = session.predict_partitions().expect("prediction succeeds");
            let total: usize = stats.iter().map(|s| s.total).sum();
            let feasible: usize = stats.iter().map(|s| s.feasible).sum();
            (partitions, total, feasible)
        })
        .collect()
}

/// Keep-all design-space dump for the figures: every point examined during
/// an unpruned enumeration.
///
/// # Panics
///
/// Panics if a session fails or `experiment` is not 1 or 2.
#[must_use]
pub fn design_space(experiment: u8, partitions: usize) -> (Vec<DesignPoint>, Duration) {
    let session: Session = match experiment {
        1 => experiment1_session(&Exp1Config { partitions, package: 1 }).expect("valid config"),
        2 => experiment2_session(&Exp2Config { partitions, package: 1 }).expect("valid config"),
        other => panic!("unknown experiment {other}"),
    };
    let outcome = session
        .with_pruning(false)
        .with_keep_all(true)
        .explore(Heuristic::Enumeration)
        .expect("exploration succeeds");
    (outcome.points, outcome.elapsed)
}

/// Renders a Table 4/6 block for a set of rows.
#[must_use]
pub fn render_results(title: &str, rows: &[ResultRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>9} | {:>7} | H | {:>8} | {:>12} | {:>8} | {:>10} | {:>5} | {:>11}",
        "Partition",
        "Package",
        "CPU",
        "Partitioning",
        "Feasible",
        "Initiation",
        "Delay",
        "Clock Cycle"
    );
    let _ = writeln!(
        out,
        "{:>9} | {:>7} |   | {:>8} | {:>12} | {:>8} | {:>10} | {:>5} | {:>11}",
        "Count", "Type", "Time s", "Imp. Trials", "Trials", "Interval", "", "ns"
    );
    let _ = writeln!(out, "{}", "-".repeat(96));
    for row in rows {
        if row.outcome.feasible.is_empty() {
            let _ = writeln!(
                out,
                "{:>9} | {:>7} | {} | {:>8.2} | {:>12} | {:>8} | {:>10} | {:>5} | {:>11}",
                row.partitions,
                row.package_no,
                row.heuristic,
                row.outcome.elapsed.as_secs_f64(),
                row.outcome.trials,
                row.outcome.feasible_trials,
                "-",
                "-",
                "-"
            );
            continue;
        }
        let mut first = true;
        for f in &row.outcome.feasible {
            if first {
                let _ = writeln!(
                    out,
                    "{:>9} | {:>7} | {} | {:>8.2} | {:>12} | {:>8} | {:>10} | {:>5} | {:>11.0}",
                    row.partitions,
                    row.package_no,
                    row.heuristic,
                    row.outcome.elapsed.as_secs_f64(),
                    row.outcome.trials,
                    row.outcome.feasible_trials,
                    f.system.initiation_interval.value(),
                    f.system.delay.value(),
                    f.system.clock.likely(),
                );
                first = false;
            } else {
                let _ = writeln!(
                    out,
                    "{:>9} | {:>7} |   | {:>8} | {:>12} | {:>8} | {:>10} | {:>5} | {:>11.0}",
                    "",
                    "",
                    "",
                    "",
                    "",
                    f.system.initiation_interval.value(),
                    f.system.delay.value(),
                    f.system.clock.likely(),
                );
            }
        }
    }
    out
}

/// Renders a Table 3/5 block.
#[must_use]
pub fn render_stats(title: &str, stats: &[(usize, usize, usize)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>15} | {:>27} | {:>30}",
        "Partition Count", "Total number of predictions", "Number of feasible predictions"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for (k, total, feasible) in stats {
        let _ = writeln!(out, "{k:>15} | {total:>27} | {feasible:>30}");
    }
    out
}

/// Renders design points as CSV (`delay_ns,area_mil2,initiation_ns,
/// feasible`) for external plotting of the Figure 7/8 scatters.
#[must_use]
pub fn to_csv(points: &[DesignPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("delay_ns,area_mil2,initiation_ns,feasible\n");
    for p in points {
        let _ = writeln!(
            out,
            "{:.1},{:.1},{:.1},{}",
            p.delay_ns,
            p.area,
            p.initiation_ns,
            u8::from(p.feasible)
        );
    }
    out
}

/// Renders a figure-style design-space dump: point count, unique count and
/// an ASCII scatter of delay (x) vs area (y).
#[must_use]
pub fn render_design_space(title: &str, points: &[DesignPoint], elapsed: Duration) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut keys: Vec<_> = points.iter().map(DesignPoint::unique_key).collect();
    keys.sort_unstable();
    keys.dedup();
    let _ = writeln!(
        out,
        "{title}: {} designs considered ({} unique) in {:.2} s",
        points.len(),
        keys.len(),
        elapsed.as_secs_f64()
    );
    if points.is_empty() {
        return out;
    }
    let (mut min_d, mut max_d) = (f64::INFINITY, 0.0f64);
    let (mut min_a, mut max_a) = (f64::INFINITY, 0.0f64);
    for p in points {
        min_d = min_d.min(p.delay_ns);
        max_d = max_d.max(p.delay_ns);
        min_a = min_a.min(p.area);
        max_a = max_a.max(p.area);
    }
    const W: usize = 64;
    const H: usize = 20;
    let mut grid = vec![[' '; W]; H];
    for p in points {
        let x = if max_d > min_d {
            ((p.delay_ns - min_d) / (max_d - min_d) * (W - 1) as f64) as usize
        } else {
            0
        };
        let y = if max_a > min_a {
            ((p.area - min_a) / (max_a - min_a) * (H - 1) as f64) as usize
        } else {
            0
        };
        let cell = &mut grid[H - 1 - y][x.min(W - 1)];
        if p.feasible {
            *cell = '*';
        } else if *cell != '*' {
            *cell = '.';
        }
    }
    let _ = writeln!(out, "area {max_a:>10.0} mil² ┐ (* feasible, . infeasible)");
    for row in &grid {
        let _ = writeln!(out, "  {}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "area {min_a:>10.0} mil² ┘");
    let _ = writeln!(out, "  delay: {min_d:.0} ns … {max_d:.0} ns (left to right)");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_render() {
        let s = prediction_stats(1);
        assert_eq!(s.len(), 3);
        let text = render_stats("Table 3", &s);
        assert!(text.contains("Table 3"));
        assert!(text.lines().count() >= 6);
    }

    #[test]
    fn design_space_renders_scatter() {
        let (points, elapsed) = design_space(1, 1);
        assert!(!points.is_empty());
        let text = render_design_space("Figure 7 (1 partition)", &points, elapsed);
        assert!(text.contains("designs considered"));
        assert!(text.contains('*') || text.contains('.'));
    }

    #[test]
    fn experiment1_rows_cover_paper_blocks() {
        let rows = experiment1_rows();
        // 4 configurations × 2 heuristics.
        assert_eq!(rows.len(), 8);
        let text = render_results("Table 4", &rows);
        assert!(text.contains("Clock Cycle"));
    }
}
