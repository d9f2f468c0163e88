//! Determinism and constraint-respect tests for the move-based
//! optimizer, plus the infeasible-start acceptance scenario: `optimize`
//! on experiment 1 must find a feasible partitioning from an infeasible
//! start within the default budget, with byte-identical digests at any
//! job count and under any prediction cache (default, disabled, or too
//! small to hold the partition keys the optimizer carries).

use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};
use chop_core::prelude::*;
use chop_dfg::benchmarks::{random_layered, RandomDfgParams};
use chop_library::standard::{table1_library, table2_packages};
use chop_library::ChipSet;
use chop_stat::units::Nanos;

/// Experiment-1 session (3 partitions, 84-pin packages) skewed by greedy
/// node moves into partition 0 until exploration finds nothing feasible.
fn infeasible_start() -> Session {
    let session = experiments::experiment1_session(&experiments::Exp1Config {
        partitions: 3,
        package: 1,
    })
    .expect("experiment 1 builds");
    let mut partitioning = session.partitioning().clone();
    // Pack partition-1/2 nodes into partition 0: the cut and partition-0
    // area blow past the 84-pin package until nothing predicts feasible.
    for source in [1usize, 2] {
        let nodes = partitioning.grouping().members(source);
        for node in nodes {
            if partitioning.grouping().members(source).len() <= 1 {
                break;
            }
            if let Ok(moved) = partitioning.with_node_moved(node, PartitionId::new(0)) {
                partitioning = moved;
            }
        }
    }
    session.try_with_partitioning(partitioning).expect("skewed partitioning validates")
}

#[test]
fn skewed_start_is_infeasible_and_optimize_recovers_feasibility() {
    let session = infeasible_start();
    let before = session.explore(Heuristic::Iterative).expect("explore runs");
    assert!(before.feasible.is_empty(), "skewed start must be infeasible");
    let result = session.optimize(&OptimizeSpec::new()).expect("optimize runs");
    assert!(result.feasible(), "default budget must recover feasibility, got {result}");
    assert!(!result.moves.is_empty());
    assert_eq!(result.completion, Completion::Complete);
}

/// Worker threads for the suite: `CHOP_TEST_JOBS` (CI sets 4 so the
/// digest-invariance assertions cover a real thread pool).
fn test_jobs() -> usize {
    std::env::var("CHOP_TEST_JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

/// The acceptance criterion from the redesign: the optimizer digest is
/// byte-identical at `--jobs 1/2/8` (and whatever CI pins via
/// `CHOP_TEST_JOBS`) because every candidate evaluation goes through the
/// jobs-invariant exploration engine.
#[test]
fn digest_and_trace_are_byte_identical_across_jobs() {
    let session = infeasible_start();
    let spec = OptimizeSpec::new().with_seed(7);
    let baseline = session.clone().with_jobs(1).optimize(&spec).expect("jobs=1");
    for jobs in [2usize, 8, test_jobs()] {
        let run = session.clone().with_jobs(jobs).optimize(&spec).expect("optimize runs");
        assert_eq!(run.digest(), baseline.digest(), "digest diverged at jobs={jobs}");
        assert_eq!(run.moves, baseline.moves, "move trace diverged at jobs={jobs}");
        assert_eq!(
            run.partitioning.grouping(),
            baseline.partitioning.grouping(),
            "final grouping diverged at jobs={jobs}"
        );
    }
}

/// Replaying the accepted move trace through [`Session::apply_moves`]
/// lands on the optimizer's final grouping — the property the service
/// journal relies on.
#[test]
fn accepted_trace_replays_to_final_partitioning() {
    let session = infeasible_start();
    let result = session.optimize(&OptimizeSpec::new()).expect("optimize runs");
    let moves: Vec<_> = result
        .moves_as_indices()
        .into_iter()
        .map(|(node, to)| {
            let id = session
                .partitioning()
                .dfg()
                .nodes()
                .find(|(id, _)| id.index() == node as usize)
                .map(|(id, _)| id)
                .expect("trace names a known node");
            (id, PartitionId::new(to))
        })
        .collect();
    let replayed = session.apply_moves(&moves).expect("trace replays");
    assert_eq!(replayed.partitioning().grouping(), result.partitioning.grouping());
}

/// A seeded single-cycle layered spec cut horizontally into `k`
/// partitions under 1 ms constraints, around a fresh default cache.
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

/// Between evaluations the optimizer carries the structural hashes of
/// the partitions a move leaves untouched instead of re-extracting them.
/// That must change no result whatever the cache holds: with the
/// default cache (carried keys hit), with memoization off (nothing is
/// keyed, so nothing is carried) and with two entries (carried keys look
/// up entries long evicted, so those partitions are extracted and
/// predicted again), the digest, evaluation count and move trace agree.
#[test]
fn carried_cache_keys_change_no_result_under_any_cache() {
    for (seed, layers, width, k) in [(1991, 13, 8, 4), (2024, 18, 8, 5), (7, 20, 8, 6)] {
        for kicks in [(2, 3), (0, 0)] {
            let spec = OptimizeSpec::new()
                .with_seed(seed ^ 0x5eed)
                .with_max_moves(32)
                .with_kicks(kicks.0, kicks.1);
            let run = |session: Session| {
                let result = session.optimize(&spec).expect("optimize runs");
                (result, session.cache_stats())
            };
            let case = format!("layered{seed}-k{k} kicks {kicks:?}");
            let (default, _) = run(layered(seed, layers, width, k));
            let (off, off_stats) = run(layered(seed, layers, width, k).with_cache_capacity(0));
            let (tiny, tiny_stats) =
                run(layered(seed, layers, width, k).with_cache_capacity(2));
            assert_eq!(off_stats.hits, 0, "{case}: a disabled cache served a hit");
            assert!(tiny_stats.evictions > 0, "{case}: a two-entry cache never evicted");
            for (name, other) in [("capacity 0", off), ("capacity 2", tiny)] {
                assert_eq!(other.digest(), default.digest(), "{case}: digest under {name}");
                assert_eq!(other.evaluations, default.evaluations, "{case}: under {name}");
                assert_eq!(other.moves, default.moves, "{case}: move trace under {name}");
            }
        }
    }
}

mod seed_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Same seed + same spec → identical move trace and digest, run
        // twice from scratch (no shared cache assumptions), and every
        // emitted move respects pinned nodes and keeps declared groups
        // together on one partition.
        #[test]
        fn seeded_runs_reproduce_and_respect_constraints(seed in 0u64..1_000) {
            let session = infeasible_start();
            let pinned = session.partitioning().grouping().members(0)[0];
            let group = session.partitioning().grouping().members(0)[1..3].to_vec();
            let spec = OptimizeSpec::new()
                .with_seed(seed)
                .with_max_moves(24)
                .with_pinned_node(pinned)
                .with_group(group.clone());

            let a = session.optimize(&spec).expect("optimize runs");
            let b = session.optimize(&spec).expect("optimize reruns");
            prop_assert_eq!(a.digest(), b.digest());
            prop_assert_eq!(&a.moves, &b.moves);

            for mv in &a.moves {
                prop_assert!(
                    !mv.nodes.contains(&pinned),
                    "pinned node moved in {mv:?}"
                );
                let touches = group.iter().filter(|n| mv.nodes.contains(n)).count();
                prop_assert!(
                    touches == 0 || touches == group.len(),
                    "group split by {mv:?}"
                );
            }
            // The group stays co-located in the final partitioning.
            let final_grouping = a.partitioning.grouping();
            let home = final_grouping.group_of(group[0]);
            for &n in &group[1..] {
                prop_assert_eq!(final_grouping.group_of(n), home);
            }
            // The pinned node never left its original partition.
            prop_assert_eq!(final_grouping.group_of(pinned), 0);
        }
    }
}
