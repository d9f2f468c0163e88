//! The staged exploration engine behind [`Session::explore`].
//!
//! [`Session::explore`] used to be a monolith: predict every partition,
//! then walk combinations one at a time on one thread. This module splits
//! the flow into explicit stages, each with its own instrumentation:
//!
//! 1. **predict** (`predict`) — per-partition BAD prediction with
//!    level-1 pruning, memoized in the session's content-addressed
//!    [`PredictionCache`](crate::cache::PredictionCache) and fanned across
//!    `jobs` scoped worker threads. A partition's key hashes its extracted
//!    DFG, and the [`Partitioning`](crate::Partitioning) memoises that
//!    hash, so a warm exploration of partitions already keyed neither
//!    extracts nor hashes them;
//! 2. **search** ([`crate::heuristics`]) — heuristic E or I generates
//!    candidate combinations and hands them in canonical-order batches to
//!    the `BatchScorer`;
//! 3. **integrate** (`scorer`) — each batch is evaluated through
//!    [`IntegrationContext::evaluate`](crate::IntegrationContext::evaluate),
//!    in parallel when `jobs > 1`, with results merged back in candidate
//!    order; each worker keeps its scheduling buffers for the whole run;
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
pub(crate) fn explore(
    session: &Session,
    requested: Heuristic,
) -> Result<SearchOutcome, ChopError> {
    let timer = BudgetTimer::start(session.budget);
    let trace = TraceRecorder::new(session.jobs);
    let cache_before = session.cache.stats();

    let predicted = predict::predict_stage(session, &timer, &trace)?;
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
        return Ok(outcome);
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

    let scorer = BatchScorer::new(&ctx, &predicted.lists, session.jobs, &timer, &trace);
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
    Ok(outcome)
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
