//! Engine-level properties of the staged exploration pipeline: the
//! dominance relation is a strict partial order, level-2 pruning agrees
//! with it, outcomes are byte-identical for any worker count,
//! repartitioning re-predicts only the partitions that changed, and the
//! structural hashes a partitioning memoises change no key or result.

use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};
use chop_core::prelude::experiments::{experiment1_session, Exp1Config};
use chop_core::prelude::spec::PartitioningBuilder;
use chop_core::prelude::{
    Constraints, Heuristic, PartitionId, Partitioning, Session, SystemPrediction, Verdict,
};
use chop_dfg::benchmarks::{random_layered, RandomDfgParams};
use chop_library::standard::{table1_library, table2_packages};
use chop_library::{ChipId, ChipSet};
use chop_stat::units::{Cycles, Nanos};
use chop_stat::Estimate;
use proptest::prelude::*;

/// A synthetic prediction whose dominance behavior is fully determined
/// by the two objective values (II, delay) in ns.
fn system(ii: f64, delay: f64) -> SystemPrediction {
    SystemPrediction {
        initiation_interval: Cycles::new(ii as u64),
        delay: Cycles::new(delay as u64),
        clock: Estimate::exact(1.0),
        initiation_ns: Estimate::exact(ii),
        delay_ns: Estimate::exact(delay),
        chip_areas: vec![],
        power: Estimate::exact(0.0),
        transfer_modules: vec![],
        verdict: Verdict::feasible(),
    }
}

/// Integer-derived objectives: exact float comparisons and frequent
/// ties, so the antisymmetry and irreflexivity cases actually bite.
fn arb_objectives() -> impl Strategy<Value = (f64, f64)> {
    (0u32..50, 0u32..50).prop_map(|(ii, d)| (f64::from(ii), f64::from(d)))
}

fn arb_workload() -> impl Strategy<Value = (u64, RandomDfgParams)> {
    (any::<u64>(), 2usize..4, 2usize..5, 1usize..3, 0u32..80).prop_map(
        |(seed, layers, width, inputs, mul_percent)| {
            (seed, RandomDfgParams { layers, width, inputs, mul_percent, bits: 16 })
        },
    )
}

fn session_for(dfg: chop_dfg::Dfg, k: usize) -> Session {
    let chips = ChipSet::uniform(table2_packages()[1].clone(), k);
    let p = PartitioningBuilder::new(dfg, chips).split_horizontal(k).build().unwrap();
    Session::new(
        p,
        table1_library(),
        ClockConfig::new(Nanos::new(300.0), 1, 1).unwrap(),
        ArchitectureStyle::multi_cycle(),
        PredictorParams::default(),
        Constraints::new(Nanos::new(60_000.0), Nanos::new(90_000.0)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dominates_is_irreflexive((ii, d) in arb_objectives()) {
        let a = system(ii, d);
        prop_assert!(!a.dominates(&a));
    }

    #[test]
    fn dominates_is_antisymmetric(
        (ii_a, d_a) in arb_objectives(),
        (ii_b, d_b) in arb_objectives(),
    ) {
        let a = system(ii_a, d_a);
        let b = system(ii_b, d_b);
        prop_assert!(!(a.dominates(&b) && b.dominates(&a)));
    }

    #[test]
    fn dominates_is_transitive(
        (ii_a, d_a) in arb_objectives(),
        (ii_b, d_b) in arb_objectives(),
        (ii_c, d_c) in arb_objectives(),
    ) {
        let a = system(ii_a, d_a);
        let b = system(ii_b, d_b);
        let c = system(ii_c, d_c);
        if a.dominates(&b) && b.dominates(&c) {
            prop_assert!(a.dominates(&c));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Level-2 pruning reports only non-inferior designs, so the retained
    // set must agree with `dominates`: no reported design dominates
    // another reported design.
    #[test]
    fn level2_pruning_agrees_with_dominates((seed, params) in arb_workload()) {
        let dfg = random_layered(seed, params);
        let s = session_for(dfg, 1);
        for h in [Heuristic::Enumeration, Heuristic::Iterative] {
            let o = s.explore(h).unwrap();
            for (i, a) in o.feasible.iter().enumerate() {
                for (j, b) in o.feasible.iter().enumerate() {
                    if i != j {
                        prop_assert!(
                            !a.system.dominates(&b.system),
                            "{h:?}: reported design {i} dominates reported design {j}"
                        );
                    }
                }
            }
        }
    }

    // The batched engine must not let worker count leak into results:
    // candidate generation and result folding are single-threaded and
    // canonical, only scoring fans out.
    #[test]
    fn random_workloads_explore_identically_across_jobs((seed, params) in arb_workload()) {
        let dfg = random_layered(seed, params);
        let s = session_for(dfg, 2);
        for h in [Heuristic::Enumeration, Heuristic::Iterative] {
            let serial = s.clone().with_jobs(1).explore(h).unwrap().digest();
            let threaded = s.clone().with_jobs(4).explore(h).unwrap().digest();
            prop_assert_eq!(&serial, &threaded, "{:?} differs between 1 and 4 jobs", h);
        }
    }
}

#[test]
fn outcome_digest_is_identical_for_jobs_1_2_and_8() {
    for h in [Heuristic::Enumeration, Heuristic::Iterative] {
        let base = experiment1_session(&Exp1Config { partitions: 2, package: 1 }).unwrap();
        let digests: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&jobs| base.clone().with_jobs(jobs).explore(h).unwrap().digest())
            .collect();
        assert_eq!(digests[0], digests[1], "{h:?}: jobs=1 vs jobs=2");
        assert_eq!(digests[0], digests[2], "{h:?}: jobs=1 vs jobs=8");
    }
}

/// The ISSUE's acceptance scenario: explore, move one node between two
/// partitions, re-explore. Only the two touched partitions may reach the
/// predictor; the untouched one must be served from the cache.
#[test]
fn repartition_re_predicts_only_changed_partitions() {
    let s = experiment1_session(&Exp1Config { partitions: 3, package: 1 }).unwrap();
    let o = s.explore(Heuristic::Iterative).unwrap();
    assert_eq!(o.trace.predictor_calls, 3, "cold run predicts every partition");
    assert_eq!(o.cache.misses, 3);
    assert_eq!(o.cache.hits, 0);

    // Move the first structurally movable node from P1 to P2.
    let mut moved = None;
    for node in s.partitioning().grouping().members(0) {
        if let Ok(m) = s.repartition(node, PartitionId::new(1)) {
            moved = Some(m);
            break;
        }
    }
    let moved = moved.expect("some node is movable");
    let o2 = moved.explore(Heuristic::Iterative).unwrap();
    assert_eq!(
        o2.trace.predictor_calls, 2,
        "only the source and destination partitions re-predict"
    );
    assert_eq!(o2.cache.hits, 1, "the untouched partition is served from the cache");
    assert_eq!(o2.cache.misses, 2);
}

#[test]
fn identical_re_explore_is_fully_cached() {
    let s = experiment1_session(&Exp1Config { partitions: 2, package: 1 }).unwrap();
    let first = s.explore(Heuristic::Enumeration).unwrap();
    let second = s.explore(Heuristic::Enumeration).unwrap();
    assert_eq!(second.trace.predictor_calls, 0);
    assert_eq!(second.cache.hits, 2);
    assert_eq!(first.digest(), second.digest(), "caching must not change results");
}

/// The same partitioning built afresh, with nothing memoised.
fn rebuilt(p: &Partitioning) -> Partitioning {
    PartitioningBuilder::new(p.dfg().clone(), p.chips().clone())
        .with_grouping(p.grouping().clone())
        .with_chip_assignment(p.partition_ids().map(|q| p.chip_of(q)).collect())
        .build()
        .expect("a valid partitioning rebuilds")
}

/// A what-if dialogue (node moves, a move trace, a chip swap, a return to
/// earlier states), each step derived after the previous one was
/// explored, so its partitioning carries memoised hashes; and the same
/// steps on fresh sessions built on the same partitionings and sharing
/// one cache of the same capacity. Digests and cache counters must agree
/// step by step under every capacity.
#[test]
fn memoised_hashes_change_no_key_under_any_cache() {
    let params = RandomDfgParams { layers: 6, width: 4, inputs: 2, mul_percent: 40, bits: 16 };
    for capacity in [None, Some(0), Some(2)] {
        let configure = |s: Session| match capacity {
            Some(c) => s.with_cache_capacity(c),
            None => s,
        };
        let base = configure(session_for(random_layered(11, params), 4));
        let fresh_cache = configure(session_for(random_layered(11, params), 4));
        let mut step = 0;
        let mut explore = |derived: &Session| {
            let fresh = fresh_cache
                .clone()
                .try_with_partitioning(rebuilt(derived.partitioning()))
                .unwrap();
            let a = derived.explore(Heuristic::Iterative).unwrap();
            let b = fresh.explore(Heuristic::Iterative).unwrap();
            let case = format!("capacity {capacity:?}, step {step}");
            assert_eq!(a.digest(), b.digest(), "{case}");
            assert_eq!(a.cache, b.cache, "{case}: per-run cache counters");
            assert_eq!(a.trace.predictor_calls, b.trace.predictor_calls, "{case}");
            assert_eq!(derived.cache_stats(), fresh.cache_stats(), "{case}: lifetime counters");
            step += 1;
        };
        let first_movable = |s: &Session, from: usize, to: u32| {
            s.partitioning()
                .grouping()
                .members(from)
                .into_iter()
                .find_map(|node| s.repartition(node, PartitionId::new(to)).ok())
                .expect("a movable node")
        };
        explore(&base);
        let moved = first_movable(&base, 0, 1);
        explore(&moved);
        let grouping = moved.partitioning().grouping();
        let trace: Vec<_> = [grouping.members(3)[0], grouping.members(2)[0]]
            .into_iter()
            .map(|node| (node, PartitionId::new(2)))
            .collect();
        let traced = moved.apply_moves(&trace).unwrap_or_else(|_| first_movable(&moved, 3, 2));
        explore(&traced);
        let on_chip =
            traced.partitioning().with_partition_on_chip(PartitionId::new(1), ChipId::new(0));
        let swapped = traced.clone().try_with_partitioning(on_chip.unwrap()).unwrap();
        explore(&swapped);
        explore(&swapped);
        explore(&moved);
        explore(&base);
        let totals = base.cache_stats();
        match capacity {
            Some(0) => assert_eq!((totals.hits, totals.entries), (0, 0), "a disabled cache"),
            Some(_) => assert!(totals.evictions > 0, "a two-entry cache never evicted"),
            None => assert!(totals.hits > 0, "the dialogue never hit the cache"),
        }
    }
}
