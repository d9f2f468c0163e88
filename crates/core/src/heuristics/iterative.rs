//! Heuristic **I**: iterative serialization (Fig. 5 of the paper).
//!
//! For each feasible initiation interval the heuristic starts from the
//! fastest predicted implementation of every partition and iteratively
//! serializes partitions on chips whose area constraint is violated,
//! picking at each step the serialization with the minimum expected system
//! delay ("this selection generally favors the serialization of
//! off-critical-path partitions").

use std::sync::Arc;

use chop_bad::{DesignStyle, PredictedDesign};
use chop_stat::units::Nanos;

use crate::budget::{BudgetTimer, Completion};
use crate::engine::scorer::BatchScorer;
use crate::engine::trace::TraceRecorder;
use crate::error::ChopError;
use crate::feasibility::Violation;
use crate::heuristics::{
    finalize, Candidate, DesignPoint, FeasibleImplementation, HeuristicResult,
};
use crate::integration::IntegrationContext;

/// Runs the iterative heuristic.
///
/// `designs` holds the (already level-1-pruned) prediction list of each
/// partition; each list is re-sorted here by (initiation interval, latency)
/// as Fig. 5 requires, with the original index riding along so selections
/// are reported as indices into the engine's (unsorted) prediction lists.
/// Every system-integration estimate counts as one trial. With `keep_all`
/// on, every estimate is recorded as a design point.
///
/// Each round's tentative serializations are handed to the `score` batch
/// evaluator in one canonical-order batch (the engine parallelizes this);
/// the fold that follows consults the `timer` before every estimate and
/// picks the minimum-delay serialization with first-wins tie-breaking,
/// exactly as the original serial loop did — results are independent of
/// the scorer's worker count.
///
/// # Errors
///
/// Returns [`ChopError::Integration`] only for structural task-graph
/// failures.
pub(crate) fn run(
    ctx: &IntegrationContext<'_>,
    designs: &[Arc<[PredictedDesign]>],
    base_clock: Nanos,
    keep_all: bool,
    timer: &BudgetTimer,
    score: &BatchScorer<'_>,
    trace: &TraceRecorder,
) -> Result<HeuristicResult, ChopError> {
    let mut result = HeuristicResult::default();
    if designs.iter().any(|list| list.is_empty()) {
        return Ok(result);
    }
    // Sorted prediction lists: increasing II, then increasing latency.
    let sorted: Vec<Vec<(u32, &PredictedDesign)>> = designs
        .iter()
        .map(|list| {
            let mut v: Vec<(u32, &PredictedDesign)> =
                list.iter().enumerate().map(|(i, d)| (i as u32, d)).collect();
            v.sort_by_key(|(_, d)| (d.initiation_interval(), d.latency()));
            v
        })
        .collect();

    for l in candidate_intervals(ctx, &sorted, base_clock) {
        // Initialize W_i: advance past implementations too fast to be
        // useful at rate l.
        let mut w: Vec<usize> = Vec::with_capacity(sorted.len());
        let mut ok = true;
        for list in &sorted {
            match initial_index(list, l) {
                Some(i) => w.push(i),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }

        let budget: usize = sorted.iter().map(Vec::len).sum::<usize>() + 1;
        for _round in 0..budget {
            if let Some(status) = timer.check(result.trials, result.retained_points()) {
                result.completion = status;
                finalize(&mut result, trace);
                return Ok(result);
            }
            let current = candidate(&w, &sorted, l);
            result.trials += 1;
            let system = match score
                .score(std::slice::from_ref(&current))
                .into_iter()
                .next()
                .flatten()
            {
                Some(Ok(system)) => system,
                Some(Err(e)) => return Err(e),
                None => {
                    result.completion = Completion::TruncatedDeadline;
                    finalize(&mut result, trace);
                    return Ok(result);
                }
            };
            if keep_all {
                result.points.push(DesignPoint::from_system(&system));
            }
            if system.verdict.feasible {
                result.feasible_trials += 1;
                result
                    .feasible
                    .push(FeasibleImplementation { selection: current.indices, system });
                break; // Q ← nil: nothing left to serialize at this l.
            }
            // Q: partitions on chips whose AREA constraint was violated.
            let violated_chips: Vec<usize> = system
                .verdict
                .violations
                .iter()
                .filter_map(|v| match v {
                    Violation::ChipArea { chip, .. } => Some(*chip),
                    _ => None,
                })
                .collect();
            if violated_chips.is_empty() {
                break; // serialization cannot fix non-area violations
            }
            let q: Vec<usize> = (0..sorted.len())
                .filter(|&p| {
                    violated_chips.contains(
                        &ctx.partitioning()
                            .chip_of(crate::spec::PartitionId::new(p as u32))
                            .index(),
                    ) && w[p] + 1 < sorted[p].len()
                })
                .collect();
            if q.is_empty() {
                break; // no partition can serialize further
            }
            // Tentatively serialize each candidate — scored as one batch —
            // and keep the one with the minimum expected system delay
            // (first wins on ties, as in the serial loop).
            let tentative: Vec<Candidate> = q
                .iter()
                .map(|&p| {
                    let mut trial_w = w.clone();
                    trial_w[p] += 1;
                    candidate(&trial_w, &sorted, l)
                })
                .collect();
            let mut slots = score.score(&tentative).into_iter();
            let mut best: Option<(usize, f64)> = None;
            for &p in &q {
                if let Some(status) = timer.check(result.trials, result.retained_points()) {
                    result.completion = status;
                    finalize(&mut result, trace);
                    return Ok(result);
                }
                result.trials += 1;
                let trial_system = match slots.next().flatten() {
                    Some(Ok(system)) => system,
                    Some(Err(e)) => return Err(e),
                    None => {
                        result.completion = Completion::TruncatedDeadline;
                        finalize(&mut result, trace);
                        return Ok(result);
                    }
                };
                if keep_all {
                    result.points.push(DesignPoint::from_system(&trial_system));
                }
                let delay = trial_system.delay_ns.likely();
                if best.is_none_or(|(_, d)| delay < d) {
                    best = Some((p, delay));
                }
            }
            // `q` is non-empty, so `best` is always set here; the guard
            // (rather than an `expect`) keeps the lib path panic-free.
            let Some((chosen, _)) = best else { break };
            w[chosen] += 1;
        }
    }
    finalize(&mut result, trace);
    Ok(result)
}

/// Builds the candidate for the current serialization state `w`.
fn candidate(w: &[usize], sorted: &[Vec<(u32, &PredictedDesign)>], ii: u64) -> Candidate {
    Candidate { indices: w.iter().zip(sorted).map(|(&i, list)| list[i].0).collect(), ii }
}

/// Fig. 5's initialization: the first (fastest) implementation advanced
/// "until L_i ≥ l or W_i is a non-pipelined implementation with L_i ≤ l".
fn initial_index(list: &[(u32, &PredictedDesign)], l: u64) -> Option<usize> {
    list.iter().position(|(_, d)| {
        let ii = d.initiation_interval().value();
        ii >= l || (d.style() == DesignStyle::NonPipelined && ii <= l)
    })
}

/// The feasible initiation intervals to sweep: every distinct prediction
/// II, raised to the transfer-imposed minimum, bounded by the performance
/// constraint at the base clock.
fn candidate_intervals(
    ctx: &IntegrationContext<'_>,
    sorted: &[Vec<(u32, &PredictedDesign)>],
    base_clock: Nanos,
) -> Vec<u64> {
    let min_ii = ctx.min_transfer_ii().value();
    let max_ii = (ctx.constraints().performance().value() / base_clock.value()).floor() as u64;
    let mut candidates: Vec<u64> = sorted
        .iter()
        .flatten()
        .map(|(_, d)| d.initiation_interval().value().max(min_ii))
        .filter(|&l| l <= max_ii)
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

#[cfg(test)]
mod tests {
    use chop_bad::prune::prune;
    use chop_bad::{
        ArchitectureStyle, ClockConfig, PartitionEnvelope, Predictor, PredictorParams,
    };
    use chop_dfg::benchmarks;
    use chop_library::standard::{table1_library, table2_packages};
    use chop_library::{ChipSet, Library};

    use super::*;
    use crate::feasibility::{Constraints, FeasibilityCriteria};
    use crate::spec::{Partitioning, PartitioningBuilder};

    fn setup(k: usize) -> (Partitioning, Library, ClockConfig, Vec<Arc<[PredictedDesign]>>) {
        let dfg = benchmarks::ar_lattice_filter();
        let chips = ChipSet::uniform(table2_packages()[1].clone(), k);
        let p = PartitioningBuilder::new(dfg, chips).split_horizontal(k).build().unwrap();
        let lib = table1_library();
        let clocks = ClockConfig::new(Nanos::new(300.0), 10, 1).unwrap();
        let predictor = Predictor::new(
            lib.clone(),
            clocks,
            ArchitectureStyle::single_cycle(),
            PredictorParams::default(),
        );
        let env = PartitionEnvelope::new(
            table2_packages()[1].usable_area(),
            Nanos::new(30_000.0),
            Nanos::new(30_000.0),
        );
        let designs: Vec<Arc<[PredictedDesign]>> = p
            .partition_ids()
            .map(|pid| {
                let (kept, _) =
                    prune(predictor.predict(&p.partition_dfg(pid)).unwrap(), &env, &clocks);
                kept.into()
            })
            .collect();
        (p, lib, clocks, designs)
    }

    fn make_ctx<'a>(
        p: &'a Partitioning,
        lib: &'a Library,
        clocks: ClockConfig,
    ) -> IntegrationContext<'a> {
        IntegrationContext::new(
            p,
            lib,
            clocks,
            PredictorParams::default(),
            FeasibilityCriteria::paper_defaults(),
            Constraints::new(Nanos::new(30_000.0), Nanos::new(30_000.0)),
        )
    }

    fn run_serial(
        ctx: &IntegrationContext<'_>,
        designs: &[Arc<[PredictedDesign]>],
        keep_all: bool,
    ) -> HeuristicResult {
        let timer = BudgetTimer::unlimited();
        let trace = TraceRecorder::new(1);
        let scorer = BatchScorer::new(ctx, designs, 1, &timer, &trace);
        run(ctx, designs, Nanos::new(300.0), keep_all, &timer, &scorer, &trace).unwrap()
    }

    #[test]
    fn iterative_finds_feasible_single_chip() {
        let (p, lib, clocks, designs) = setup(1);
        let ctx = make_ctx(&p, &lib, clocks);
        let r = run_serial(&ctx, &designs, false);
        assert!(r.feasible_trials >= 1);
        assert!(!r.feasible.is_empty());
    }

    #[test]
    fn iterative_uses_fewer_trials_than_enumeration_on_two_partitions() {
        let (p, lib, clocks, designs) = setup(2);
        let ctx = make_ctx(&p, &lib, clocks);
        let it = run_serial(&ctx, &designs, false);
        let timer = BudgetTimer::unlimited();
        let trace = TraceRecorder::new(1);
        let scorer = BatchScorer::new(&ctx, &designs, 1, &timer, &trace);
        let en = crate::heuristics::enumeration::run(
            &ctx, &designs, true, false, false, &timer, &scorer, &trace,
        )
        .unwrap();
        // The paper's headline contrast (Table 4: 156 vs 9 trials).
        assert!(it.trials < en.trials, "iterative {} !< enumeration {}", it.trials, en.trials);
    }

    #[test]
    fn feasible_results_are_actually_feasible() {
        let (p, lib, clocks, designs) = setup(2);
        let ctx = make_ctx(&p, &lib, clocks);
        let r = run_serial(&ctx, &designs, false);
        for f in &r.feasible {
            assert!(f.system.verdict.feasible);
            assert_eq!(f.selection.len(), 2);
        }
    }

    #[test]
    fn initial_index_respects_fig5_rule() {
        let (_, _, _, designs) = setup(1);
        let mut list: Vec<(u32, &PredictedDesign)> =
            designs[0].iter().enumerate().map(|(i, d)| (i as u32, d)).collect();
        list.sort_by_key(|(_, d)| (d.initiation_interval(), d.latency()));
        if let Some(i) = initial_index(&list, 60) {
            let (_, d) = list[i];
            let ii = d.initiation_interval().value();
            assert!(ii >= 60 || (d.style() == DesignStyle::NonPipelined && ii <= 60));
        }
    }
}
