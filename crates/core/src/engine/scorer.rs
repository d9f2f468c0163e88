//! Stage 3: parallel batch scoring of candidate combinations.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Instant;

use chop_bad::PredictedDesign;
use chop_stat::units::Cycles;

use crate::budget::BudgetTimer;
use crate::engine::panic_message;
use crate::engine::trace::TraceRecorder;
use crate::error::ChopError;
use crate::heuristics::{Candidate, ScoreSlot};
use crate::integration::{EvalScratch, IntegrationContext};

/// The engine's batch evaluator for candidate combinations: evaluates a
/// batch across up to `jobs` scoped worker threads and returns the slots
/// in candidate order, so the single-threaded heuristics fold identical
/// results for every worker count. Each candidate is checked against the wall-clock
/// deadline right before evaluation; abandoned candidates stay `None` and
/// the heuristics' canonical fold turns the first `None` into deadline
/// truncation.
///
/// An evaluation panic is contained per candidate and surfaced as
/// [`ChopError::EvalPanicked`], so one poisoned combination cannot take
/// down sibling workers or the session.
///
/// Each worker takes an evaluation scratch from the scorer's pool for its
/// share of a batch and returns it afterwards, so the pool holds one
/// scratch per worker that ever ran at once and the buffers live for the
/// whole run: heuristic I scores one candidate per batch.
pub(crate) struct BatchScorer<'e> {
    /// Integration context shared by every worker.
    ctx: &'e IntegrationContext<'e>,
    /// Per-partition prediction lists the candidate indices resolve into.
    lists: &'e [Arc<[PredictedDesign]>],
    /// Worker-thread allowance.
    jobs: usize,
    /// The run's budget timer (deadline polling inside workers).
    timer: &'e BudgetTimer,
    /// The run's trace recorder (evaluation count, integrate span).
    trace: &'e TraceRecorder,
    /// Evaluation scratch not in use by a worker.
    scratch: Mutex<Vec<EvalScratch>>,
}

impl<'e> BatchScorer<'e> {
    pub(crate) fn new(
        ctx: &'e IntegrationContext<'e>,
        lists: &'e [Arc<[PredictedDesign]>],
        jobs: usize,
        timer: &'e BudgetTimer,
        trace: &'e TraceRecorder,
    ) -> Self {
        Self { ctx, lists, jobs: jobs.max(1), timer, trace, scratch: Mutex::default() }
    }

    /// Evaluates `candidates` into `slots` with a scratch from the pool.
    fn eval_run(&self, slots: &mut [ScoreSlot], candidates: &[Candidate]) {
        // The pool is locked only to take and return a scratch, never
        // across an evaluation, so no panic can poison it.
        let pool = || self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        let mut scratch = pool().pop().unwrap_or_default();
        for (slot, candidate) in slots.iter_mut().zip(candidates) {
            *slot = self.eval_one(candidate, &mut scratch);
        }
        pool().push(scratch);
    }

    fn eval_one(&self, candidate: &Candidate, scratch: &mut EvalScratch) -> ScoreSlot {
        if self.timer.deadline_exceeded() {
            return None;
        }
        self.trace.count_evaluation();
        let started = Instant::now();
        // Index-slice evaluation: no per-candidate selection Vec.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.ctx.evaluate_indexed(
                self.lists,
                &candidate.indices,
                Cycles::new(candidate.ii),
                scratch,
            )
        }));
        self.trace.add_integrate(started.elapsed());
        Some(match outcome {
            Ok(result) => result,
            Err(payload) => {
                Err(ChopError::EvalPanicked { message: panic_message(payload.as_ref()) })
            }
        })
    }

    /// Scores every candidate of `batch`, returning exactly one slot per
    /// candidate, in candidate order. The heuristics stay single-threaded
    /// and deterministic: they generate candidates in canonical order,
    /// hand them over in batches, and fold the slots back in that order.
    pub(crate) fn score(&self, batch: &[Candidate]) -> Vec<ScoreSlot> {
        let mut slots: Vec<ScoreSlot> = Vec::with_capacity(batch.len());
        slots.resize_with(batch.len(), || None);
        let jobs = self.jobs.min(batch.len());
        if jobs <= 1 {
            self.eval_run(&mut slots, batch);
            return slots;
        }
        // Contiguous chunking keeps the slot↔candidate pairing trivially
        // index-aligned; workers never share a slot.
        let chunk = batch.len().div_ceil(jobs);
        thread::scope(|scope| {
            for (slot_chunk, cand_chunk) in slots.chunks_mut(chunk).zip(batch.chunks(chunk)) {
                scope.spawn(move || self.eval_run(slot_chunk, cand_chunk));
            }
        });
        slots
    }
}
