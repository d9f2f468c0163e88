//! Acceptance and property tests for the branch-and-bound combination
//! search: pruning may only remove provably infeasible evaluations, so
//! the retained feasible set — and therefore `SearchOutcome::digest` —
//! must be byte-identical to the exhaustive odometer walk, for every
//! worker count; and the skip accounting must cover the cross-product
//! exactly.

use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};
use chop_core::prelude::experiments::{experiment1_session, Exp1Config};
use chop_core::prelude::spec::PartitioningBuilder;
use chop_core::prelude::{Constraints, Heuristic, Session};
use chop_dfg::benchmarks::{random_layered, RandomDfgParams};
use chop_library::standard::{table1_library, table2_packages};
use chop_library::ChipSet;
use chop_stat::units::Nanos;
use proptest::prelude::*;

/// Extra worker count for the suite: `CHOP_TEST_JOBS` (CI sets 4 so the
/// equivalence holds under real thread interleaving, not just serially).
fn extra_jobs() -> usize {
    std::env::var("CHOP_TEST_JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

/// Workload space for the equivalence property: random task graphs at
/// 2–3 partitions, with loose *and* tight performance/delay constraints
/// (tight constraints are the ones that arm the interval and delay
/// bounds — a loose-only sample space would leave them untested).
fn arb_workload() -> impl Strategy<Value = (u64, usize, f64, f64, RandomDfgParams)> {
    (
        any::<u64>(),
        2usize..4,
        prop_oneof![
            Just((60_000.0, 90_000.0)),
            Just((20_000.0, 30_000.0)),
            Just((8_000.0, 12_000.0))
        ],
        2usize..4,
        2usize..5,
        1usize..3,
        0u32..80,
    )
        .prop_map(|(seed, k, (perf, delay), layers, width, inputs, mul_percent)| {
            (
                seed,
                k,
                perf,
                delay,
                RandomDfgParams { layers, width, inputs, mul_percent, bits: 16 },
            )
        })
}

fn session_for(dfg: chop_dfg::Dfg, k: usize, perf: f64, delay: f64) -> Session {
    let chips = ChipSet::uniform(table2_packages()[1].clone(), k);
    let p = PartitioningBuilder::new(dfg, chips).split_horizontal(k).build().unwrap();
    Session::new(
        p,
        table1_library(),
        ClockConfig::new(Nanos::new(300.0), 1, 1).unwrap(),
        ArchitectureStyle::multi_cycle(),
        PredictorParams::default(),
        Constraints::new(Nanos::new(perf), Nanos::new(delay)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // On randomized partitionings, branch-and-bound produces the same
    // digest and feasible set as the exhaustive odometer walk over the
    // same level-1-pruned lists, at jobs 1/2/8 (and CHOP_TEST_JOBS when
    // set). Note `with_pruning(false)` is *not* the reference: the prune
    // switch also disables level-1 list pruning, which changes the
    // search space itself (the paper's §3.1 trade-off) — subtree
    // skipping must be invisible, level-1 pruning is allowed not to be.
    #[test]
    fn bnb_matches_naive_on_random_workloads(
        (seed, k, perf, delay, params) in arb_workload()
    ) {
        let dfg = random_layered(seed, params);
        let s = session_for(dfg, k, perf, delay);
        let reference = s
            .clone()
            .with_branch_and_bound(false)
            .with_jobs(1)
            .explore(Heuristic::Enumeration)
            .unwrap();
        for jobs in [1usize, 2, 8, extra_jobs()] {
            let bnb = s
                .clone()
                .with_jobs(jobs)
                .explore(Heuristic::Enumeration)
                .unwrap();
            prop_assert_eq!(
                &reference.digest(),
                &bnb.digest(),
                "exhaustive walk vs branch-and-bound at jobs={}",
                jobs
            );
            prop_assert_eq!(reference.feasible.len(), bnb.feasible.len());
            for (a, b) in reference.feasible.iter().zip(&bnb.feasible) {
                prop_assert_eq!(&a.selection, &b.selection);
                prop_assert_eq!(&a.system, &b.system);
            }
        }
    }

    // Skip accounting stays honest on random workloads: visited plus
    // skipped covers the whole cross-product.
    #[test]
    fn bnb_accounting_covers_the_cross_product(
        (seed, k, perf, delay, params) in arb_workload()
    ) {
        let dfg = random_layered(seed, params);
        let s = session_for(dfg, k, perf, delay);
        let o = s.explore(Heuristic::Enumeration).unwrap();
        let product: u64 = o.predictions.iter().map(|l| l.len() as u64).product();
        prop_assert_eq!(o.trials as u64 + o.trace.combinations_skipped, product);
    }
}

/// Regression: backtracking out of an exhausted row must restore that
/// position's delay weight to its optimistic minimum. A stale chosen
/// latency overestimates the delay lower bound at shallower depths and
/// prunes feasible subtrees — this workload (3 partitions, tight
/// constraints) caught exactly that.
#[test]
fn backtracking_restores_the_delay_bound_weights() {
    let params = RandomDfgParams { layers: 2, width: 4, inputs: 2, mul_percent: 16, bits: 16 };
    let dfg = random_layered(32, params);
    let s = session_for(dfg, 3, 8_000.0, 12_000.0);
    let naive = s.clone().with_branch_and_bound(false).explore(Heuristic::Enumeration).unwrap();
    let bnb = s.explore(Heuristic::Enumeration).unwrap();
    assert_eq!(naive.digest(), bnb.digest());
    assert_eq!(naive.feasible_trials, bnb.feasible_trials);
}

#[test]
fn trials_plus_skipped_equals_product_of_list_sizes() {
    let s = experiment1_session(&Exp1Config { partitions: 3, package: 1 }).unwrap();
    let o = s.explore(Heuristic::Enumeration).unwrap();
    let product: u64 = o.predictions.iter().map(|l| l.len() as u64).product();
    assert_eq!(o.trials as u64 + o.trace.combinations_skipped, product);
    assert!(o.trace.subtrees_skipped > 0, "the workload must exercise pruning");
    // The figures README quotes: 9 of the 5 × 4 × 4 = 80 combinations.
    assert_eq!(
        (o.trials, o.trace.combinations_skipped, o.trace.subtrees_skipped, product),
        (9, 71, 17, 80)
    );
}

/// The ISSUE's acceptance scenario: on the 3-partition experiment-1
/// workload, branch-and-bound drops evaluated combinations ≥ 5× versus
/// the exhaustive odometer while the digest is unchanged.
#[test]
fn bnb_cuts_evaluations_five_fold_on_experiment1() {
    let s = experiment1_session(&Exp1Config { partitions: 3, package: 1 }).unwrap();
    let bnb = s.explore(Heuristic::Enumeration).unwrap();
    let naive = s.clone().with_branch_and_bound(false).explore(Heuristic::Enumeration).unwrap();
    assert_eq!(naive.digest(), bnb.digest(), "pruning must not change results");
    assert!(
        bnb.trace.evaluations * 5 <= naive.trace.evaluations,
        "evaluations {} -> {} is less than a 5x cut",
        naive.trace.evaluations,
        bnb.trace.evaluations
    );
}

/// keep_all (Figure-7 dumps) forces the exhaustive walk even with
/// branch-and-bound requested: every point is recorded, nothing skipped.
#[test]
fn keep_all_still_walks_exhaustively() {
    let s = experiment1_session(&Exp1Config { partitions: 2, package: 1 })
        .unwrap()
        .with_pruning(false)
        .with_keep_all(true);
    let o = s.explore(Heuristic::Enumeration).unwrap();
    let product: usize = o.predictions.iter().map(|l| l.len()).product();
    assert_eq!(o.trials, product);
    assert_eq!(o.points.len(), product);
    assert_eq!(o.trace.combinations_skipped, 0);
    assert_eq!(o.trace.subtrees_skipped, 0);
}
