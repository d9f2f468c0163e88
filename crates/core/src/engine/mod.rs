//! The staged exploration engine behind [`Session::explore`].
//!
//! [`Session::explore`] used to be a monolith: predict every partition,
//! then walk combinations one at a time on one thread. This module splits
//! the flow into explicit stages, each with its own instrumentation:
//!
//! 1. **predict** (`predict`) — per-partition BAD prediction with
//!    level-1 pruning, memoized in the session's content-addressed
//!    [`PredictionCache`](crate::cache::PredictionCache) and fanned across
//!    `jobs` scoped worker threads;
//! 2. **search** ([`crate::heuristics`]) — heuristic E or I generates
//!    candidate combinations and hands them in canonical-order batches to
//!    the `BatchScorer`;
//! 3. **integrate** (`scorer`) — each batch is evaluated through
//!    [`IntegrationContext::evaluate`](crate::IntegrationContext::evaluate),
//!    in parallel when `jobs > 1`, with results merged back in candidate
//!    order;
//! 4. **feasibility** — feasible combinations are filtered down to the
//!    non-inferior front.
//!
//! # Determinism
//!
//! The engine guarantees that [`SearchOutcome::digest`](crate::SearchOutcome::digest)
//! is identical for every `jobs` value: candidate generation and result
//! folding are single-threaded and canonical; only the embarrassingly
//! parallel scoring in between fans out, and its results are merged by
//! candidate index, never by completion order. Budget accounting replays
//! the exact serial semantics during the fold. The only permitted
//! divergence is *wall-clock* truncation (a deadline trips at different
//! points depending on machine load) and the timing spans of the trace —
//! both are excluded from the digest.
//!
//! [`Session::explore`]: crate::Session::explore

pub(crate) mod predict;
pub(crate) mod scorer;
pub mod trace;

use std::time::Instant;

use crate::budget::{BudgetTimer, Completion};
use crate::error::ChopError;
use crate::explorer::{Heuristic, SearchOutcome, Session};
use crate::heuristics::{self, HeuristicResult};
use crate::integration::IntegrationContext;

use self::scorer::BatchScorer;
use self::trace::TraceRecorder;

/// Runs the full staged pipeline for one session (see the module docs).
///
/// `known[p]` is partition `p`'s structural hash when the caller knows it
/// (partitions past `known.len()` are unknown): a known hash keys the
/// cache lookup without extracting the partition's DFG, which is then
/// extracted only to predict on a miss. Returns the outcome and, per
/// partition, the hash its cache key used (`None` when the cache was
/// bypassed or the stage stopped before it), so a caller can carry the
/// hashes of partitions it leaves untouched into the next exploration.
/// Keys, lookups and results are the same as with nothing carried.
pub(crate) fn explore(
    session: &Session,
    requested: Heuristic,
    known: &[Option<u64>],
) -> Result<(SearchOutcome, Vec<Option<u64>>), ChopError> {
    let timer = BudgetTimer::start(session.budget);
    let trace = TraceRecorder::new(session.jobs);
    let cache_before = session.cache.stats();

    let predicted = predict::predict_stage(session, known, &timer, &trace)?;
    let hashes = predicted.hashes;
    if let Some(status) = predicted.truncated {
        let outcome = SearchOutcome {
            heuristic: requested,
            feasible: Vec::new(),
            trials: 0,
            feasible_trials: 0,
            prediction_stats: predicted.stats,
            elapsed: timer.elapsed(),
            points: Vec::new(),
            completion: status,
            degraded: false,
            predictions: predicted.lists,
            trace: trace.snapshot(),
            cache: session.cache.stats().since(&cache_before),
        };
        return Ok((outcome, hashes));
    }

    let ctx = IntegrationContext::new(
        &session.partitioning,
        &session.library,
        session.clocks,
        session.params,
        session.criteria,
        session.constraints,
    )
    .with_testability(session.testability);

    let mut effective = requested;
    let mut degraded = false;
    if requested == Heuristic::Enumeration {
        let combinations = predicted_combinations(&predicted.lists);
        if session.budget.should_degrade(combinations) {
            effective = Heuristic::Iterative;
            degraded = true;
        }
    }

    let scorer = BatchScorer {
        ctx: &ctx,
        lists: &predicted.lists,
        jobs: session.jobs,
        timer: &timer,
        trace: &trace,
    };
    let search_started = Instant::now();
    let result: HeuristicResult = match effective {
        Heuristic::Enumeration => heuristics::enumeration::run(
            &ctx,
            &predicted.lists,
            session.prune,
            session.keep_all,
            session.branch_and_bound,
            &timer,
            &scorer,
            &trace,
        )?,
        Heuristic::Iterative => heuristics::iterative::run(
            &ctx,
            &predicted.lists,
            session.clocks.main_cycle(),
            session.keep_all,
            &timer,
            &scorer,
            &trace,
        )?,
    };
    trace.add_search(search_started.elapsed());

    let completion = if result.completion.is_truncated() {
        result.completion
    } else if degraded {
        Completion::DegradedToIterative
    } else {
        Completion::Complete
    };
    let outcome = SearchOutcome {
        heuristic: effective,
        feasible: result.feasible,
        trials: result.trials,
        feasible_trials: result.feasible_trials,
        prediction_stats: predicted.stats,
        elapsed: timer.elapsed(),
        points: result.points,
        completion,
        degraded,
        predictions: predicted.lists,
        trace: trace.snapshot(),
        cache: session.cache.stats().since(&cache_before),
    };
    Ok((outcome, hashes))
}

/// Heuristic E's search-space size: the product of surviving per-partition
/// prediction counts, saturating at `u128::MAX`.
pub(crate) fn predicted_combinations(
    lists: &[std::sync::Arc<[chop_bad::PredictedDesign]>],
) -> u128 {
    lists
        .iter()
        .try_fold(1u128, |acc, list| acc.checked_mul(list.len() as u128))
        .unwrap_or(u128::MAX)
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
