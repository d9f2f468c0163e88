//! The optimizer's output, pinned: for a matrix of sessions × move
//! budgets × annealing settings (plus one run each with pinned nodes, a
//! group and an exclusion), the FNV-1a hash of `OptimizeResult::digest`
//! must match `fixtures/optimize_golden.txt`.
//!
//! The digest covers the whole accepted move trace, both scores to the
//! last bit, the pass and kick counts, the completion and the final
//! exploration outcome, and the fixture also pins the evaluation count.
//! A reworked move generator (candidate ranking, legality checks, move
//! application) therefore passes only if it proposes, evaluates and
//! accepts exactly the moves the one that wrote the fixture did.
//!
//! On a mismatch the test writes what the optimizer produced to
//! `<target>/tmp/optimize_golden.txt` and names the first differing line;
//! a deliberate change of the search is reviewed by diffing that file
//! against the fixture and copying it over.

use std::fmt::Write as _;

use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};
use chop_core::experiments::{
    experiment1_session, experiment2_session, Exp1Config, Exp2Config,
};
use chop_core::spec::PartitioningBuilder;
use chop_core::{Constraints, OptimizeSpec, PartitionId, Session};
use chop_dfg::benchmarks::{random_layered, RandomDfgParams};
use chop_dfg::hash::StableHasher;
use chop_library::standard::{table1_library, table2_packages};
use chop_library::ChipSet;
use chop_stat::units::Nanos;

const FIXTURE: &str = include_str!("fixtures/optimize_golden.txt");

/// A seeded single-cycle layered spec cut horizontally into `k`
/// partitions under 1 ms constraints — the shape of the `optimize`
/// benchmark workload.
fn layered(seed: u64, layers: usize, width: usize, k: usize) -> Session {
    let dfg = random_layered(
        seed,
        RandomDfgParams { layers, width, inputs: 4, mul_percent: 40, bits: 16 },
    );
    let chips = ChipSet::uniform(table2_packages()[1].clone(), k);
    let p = PartitioningBuilder::new(dfg, chips).split_horizontal(k).build().expect("valid");
    Session::new(
        p,
        table1_library(),
        ClockConfig::new(Nanos::new(300.0), 10, 1).expect("valid clocks"),
        ArchitectureStyle::single_cycle(),
        PredictorParams::default(),
        Constraints::new(Nanos::new(1e6), Nanos::new(1e6)),
    )
}

fn sessions() -> Vec<(String, Session)> {
    let mut out = Vec::new();
    for partitions in [2, 3] {
        out.push((
            format!("exp1-k{partitions}"),
            experiment1_session(&Exp1Config { partitions, package: 1 }).expect("valid"),
        ));
        out.push((
            format!("exp2-k{partitions}"),
            experiment2_session(&Exp2Config { partitions, package: 1 }).expect("valid"),
        ));
    }
    for (seed, layers, width, k) in
        [(1991, 13, 8, 4), (2024, 18, 8, 5), (7, 20, 8, 6), (5, 4, 5, 4)]
    {
        out.push((format!("layered{seed}-k{k}"), layered(seed, layers, width, k)));
    }
    out
}

/// Every case: a session and the spec it is optimized under.
fn cases() -> Vec<(String, Session, OptimizeSpec)> {
    let mut out = Vec::new();
    for (name, session) in sessions() {
        for max_moves in [16, 64] {
            for (kicks_name, kicks) in [("kicks", (2, 3)), ("nokicks", (0, 0))] {
                let spec = OptimizeSpec::new()
                    .with_seed(max_moves ^ 0x5eed)
                    .with_max_moves(max_moves)
                    .with_kicks(kicks.0, kicks.1);
                out.push((format!("{name} m{max_moves} {kicks_name}"), session.clone(), spec));
            }
        }
    }
    // Constrained runs on the four-partition layered spec, each binding
    // on a move the unconstrained run accepts: its first moved node is
    // pinned, grouped with a neighbour in its partition, or kept apart
    // from a member of the partition it moved to.
    let session = layered(1991, 13, 8, 4);
    let base = OptimizeSpec::new().with_seed(11).with_max_moves(48);
    let free = session.optimize(&base).expect("optimize runs");
    let first = &free.moves[0];
    let node = first.nodes[0];
    let (dfg, grouping) = (session.partitioning().dfg(), session.partitioning().grouping());
    let neighbour = dfg
        .pred_nodes(node)
        .chain(dfg.succ_nodes(node))
        .find(|&n| grouping.group_of(n) == first.from.index())
        .expect("the moved node has a neighbour in its partition");
    let rival = grouping.members(first.to.index())[0];
    let pinned = free.moves.iter().take(2).fold(base.clone(), |spec, m| {
        m.nodes.iter().fold(spec, |spec, &n| spec.with_pinned_node(n))
    });
    let grouped = base.clone().with_group(vec![node, neighbour]);
    let excluded = base.clone().with_exclusion(node, rival);
    for (name, spec) in
        [("free", base), ("pinned", pinned), ("group", grouped), ("exclusion", excluded)]
    {
        out.push((format!("layered1991-k4 m48 {name}"), session.clone(), spec));
    }
    out
}

fn render() -> String {
    let mut out = String::new();
    for (name, session, spec) in cases() {
        let result = session.optimize(&spec).expect("optimize runs");
        // Every accepted move names a real partition pair.
        for m in &result.moves {
            assert!(
                m.from != m.to
                    && m.to < PartitionId::new(result.partitioning.partition_count() as u32)
            );
        }
        let mut hasher = StableHasher::new();
        hasher.write(result.digest().as_bytes());
        let _ = writeln!(
            out,
            "{name} evaluations={} moves={} fnv={:016x}",
            result.evaluations,
            result.moves.len(),
            hasher.finish()
        );
    }
    out
}

#[test]
fn optimize_matches_the_golden_fixture() {
    let actual = render();
    if actual == FIXTURE {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("optimize_golden.txt");
    std::fs::write(&dump, &actual).expect("write the actual optimizer results");
    let first = actual
        .lines()
        .zip(FIXTURE.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
    panic!(
        "optimizer results changed at fixture line {}:\n  fixture: {:?}\n  actual:  {:?}\n\
         full output written to {}",
        first + 1,
        FIXTURE.lines().nth(first),
        actual.lines().nth(first),
        dump.display()
    );
}
