//! Stage 1: cached, parallel per-partition prediction with level-1 pruning.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Instant;

use chop_bad::prune::{prune, PredictionStats};
use chop_bad::{AllocationSweep, DesignStyle, OperationTiming};
use chop_bad::{PartitionEnvelope, PredictError, PredictedDesign, Predictor, Sweep};
use chop_dfg::hash::StableHasher;

use crate::budget::{BudgetTimer, Completion};
use crate::engine::panic_message;
use crate::engine::trace::TraceRecorder;
use crate::error::ChopError;
use crate::explorer::Session;
use crate::spec::PartitionId;

/// What the prediction stage hands to the search stage.
pub(crate) struct PredictOutput {
    /// Surviving per-partition design lists (shared; a cache hit aliases
    /// the cached allocation instead of re-predicting).
    pub lists: Vec<Arc<[PredictedDesign]>>,
    /// Table 3/5 statistics per partition.
    pub stats: Vec<PredictionStats>,
    /// `Some` when the deadline tripped mid-sweep; `lists`/`stats` then
    /// hold the completed prefix, exactly as a serial sweep would.
    pub truncated: Option<Completion>,
}

/// BAD's output for one partition, before level-1 pruning.
enum Predicted {
    /// Candidates not yet filled in: pruning fills in only the survivors.
    Sweep(Sweep),
    /// Every design in full: pruning is off, or a fault plan corrupted
    /// them.
    Designs(Vec<PredictedDesign>),
}

/// One partition's surviving designs and statistics.
type Prediction = (Arc<[PredictedDesign]>, PredictionStats);
type Slot = Option<Result<Prediction, ChopError>>;

/// Runs (and wall-clock-times) the prediction stage.
pub(crate) fn predict_stage(
    session: &Session,
    timer: &BudgetTimer,
    trace: &TraceRecorder,
) -> Result<PredictOutput, ChopError> {
    let started = Instant::now();
    let output = run_stage(session, timer, trace);
    trace.add_predict(started.elapsed());
    output
}

fn run_stage(
    session: &Session,
    timer: &BudgetTimer,
    trace: &TraceRecorder,
) -> Result<PredictOutput, ChopError> {
    // Built on the first cache miss, so a warm stage never clones the
    // library.
    let predictor = OnceLock::new();
    let fingerprint = config_fingerprint(session);
    let ids: Vec<PartitionId> = session.partitioning.partition_ids().collect();
    let mut slots: Vec<Slot> = Vec::with_capacity(ids.len());
    slots.resize_with(ids.len(), || None);
    let jobs = session.jobs.max(1).min(ids.len().max(1));
    if jobs <= 1 {
        predict_run(session, &predictor, fingerprint, timer, trace, &mut slots, &ids);
    } else {
        let chunk = ids.len().div_ceil(jobs);
        thread::scope(|scope| {
            for (slot_chunk, id_chunk) in slots.chunks_mut(chunk).zip(ids.chunks(chunk)) {
                let predictor = &predictor;
                scope.spawn(move || {
                    predict_run(
                        session,
                        predictor,
                        fingerprint,
                        timer,
                        trace,
                        slot_chunk,
                        id_chunk,
                    );
                });
            }
        });
    }
    // Canonical-order merge: the completed prefix wins and the first error
    // in partition order is the run's error, identical to a serial sweep.
    let mut lists = Vec::with_capacity(ids.len());
    let mut stats = Vec::with_capacity(ids.len());
    let mut truncated = None;
    for slot in slots {
        match slot {
            Some(Ok((list, stat))) => {
                lists.push(list);
                stats.push(stat);
            }
            Some(Err(e)) => return Err(e),
            None => {
                truncated = Some(Completion::TruncatedDeadline);
                break;
            }
        }
    }
    Ok(PredictOutput { lists, stats, truncated })
}

/// Fills `slots` for `ids` in order, stopping at the deadline or at the
/// first error (later slots stay `None`; after an error the canonical
/// merge never reaches them).
fn predict_run(
    session: &Session,
    predictor: &OnceLock<Predictor>,
    fingerprint: u64,
    timer: &BudgetTimer,
    trace: &TraceRecorder,
    slots: &mut [Slot],
    ids: &[PartitionId],
) {
    for (slot, &p) in slots.iter_mut().zip(ids) {
        if timer.deadline_exceeded() {
            return;
        }
        let outcome = predict_one(session, predictor, fingerprint, p, trace);
        let failed = outcome.is_err();
        *slot = Some(outcome);
        if failed {
            return;
        }
    }
}

/// Predicts one partition: cache lookup first, then BAD (panic-isolated)
/// plus level-1 pruning, seeding the cache on the way out. The key's
/// structural hash comes from the partitioning's memo; the partition's
/// DFG is extracted at most once, to hash it the first time or to
/// predict on a miss.
fn predict_one(
    session: &Session,
    predictor: &OnceLock<Predictor>,
    fingerprint: u64,
    p: PartitionId,
    trace: &TraceRecorder,
) -> Result<Prediction, ChopError> {
    let chip = session.partitioning.chips().chip(session.partitioning.chip_of(p));
    // Fault plans script per-call behavior, so a fault-injected session
    // must neither serve nor seed memoized predictions. A disabled cache
    // (capacity 0) skips memoization entirely — including the content
    // fingerprint, which is pure overhead when nothing can be stored.
    #[cfg(feature = "fault-inject")]
    let cacheable = session.fault_plan.is_none() && session.cache.is_enabled();
    #[cfg(not(feature = "fault-inject"))]
    let cacheable = session.cache.is_enabled();
    let mut sub = None;
    let key = cacheable.then(|| {
        let mut h = StableHasher::new();
        h.write_u64(fingerprint);
        h.write_u64(session.partitioning.partition_hash(p, &mut sub));
        h.write_f64(chip.usable_area().value());
        h.finish()
    });
    if let Some(key) = key {
        if let Some(hit) = session.cache.get(key) {
            trace.count_cache_hit();
            return Ok(hit);
        }
        trace.count_cache_miss();
    }
    let sub = sub.unwrap_or_else(|| session.partitioning.partition_dfg(p));
    let predictor = predictor.get_or_init(|| {
        Predictor::new(session.library.clone(), session.clocks, session.style, session.params)
    });
    trace.count_predictor_call();
    // A panic anywhere in BAD poisons only this partition: it is caught
    // here and reported as a typed Predict error.
    let predicted = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &session.fault_plan {
            plan.before_predict(p.index());
        }
        let sweep = predictor.sweep(&sub)?;
        // Post-prediction corruption stays inside the guard: a poisoned
        // estimate that trips a numeric invariant (e.g. `Estimate`
        // rejecting NaN) is contained the same way.
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &session.fault_plan {
            let mut designs = sweep.into_designs();
            plan.corrupt(p.index(), &mut designs);
            return Ok(Predicted::Designs(designs));
        }
        Ok(if session.prune {
            Predicted::Sweep(sweep)
        } else {
            Predicted::Designs(sweep.into_designs())
        })
    }));
    let predicted = match predicted {
        Ok(Ok(predicted)) => predicted,
        Ok(Err(source)) => return Err(ChopError::Predict { partition: p.index(), source }),
        Err(payload) => {
            return Err(ChopError::Predict {
                partition: p.index(),
                source: PredictError::Panicked(panic_message(payload.as_ref())),
            })
        }
    };
    let envelope = PartitionEnvelope::new(
        chip.usable_area(),
        session.constraints.performance(),
        session.constraints.delay(),
    )
    .with_thresholds(
        session.criteria.area,
        session.criteria.performance,
        session.criteria.delay,
    );
    let prune_started = Instant::now();
    let (list, stat) = match predicted {
        // Only the survivors are filled in, so that is prune-L1 time too.
        Predicted::Sweep(sweep) => sweep.prune(&envelope, &session.clocks),
        Predicted::Designs(designs) if session.prune => {
            prune(designs, &envelope, &session.clocks)
        }
        Predicted::Designs(designs) => {
            // Statistics still reflect what pruning *would* keep.
            let total = designs.len();
            let feasible =
                designs.iter().filter(|d| envelope.admits(d, &session.clocks)).count();
            (designs, PredictionStats { total, feasible, non_inferior: total })
        }
    };
    let list: Arc<[PredictedDesign]> = list.into();
    trace.add_prune_l1(prune_started.elapsed());
    if let Some(key) = key {
        session.cache.insert(key, Arc::clone(&list), stat);
    }
    Ok((list, stat))
}

/// Hashes everything — besides the partition's own DFG and chip — that the
/// prediction and its level-1 pruning depend on: clock configuration,
/// architecture style, predictor parameters, the pruning envelope's
/// constraint values and probability thresholds, and the prune switch.
///
/// Deliberately excluded: the component library (fixed at session
/// construction and shared, never replaced, by every session family that
/// shares the cache), the power limit and power threshold (power enters at
/// system integration, not per-partition prediction), and testability
/// overheads (likewise integration-only).
fn config_fingerprint(session: &Session) -> u64 {
    let mut h = StableHasher::new();
    let clocks = &session.clocks;
    h.write_f64(clocks.main_cycle().value());
    h.write_u32(clocks.datapath_multiplier());
    h.write_u32(clocks.transfer_multiplier());
    h.write_u64(match session.style.timing() {
        OperationTiming::SingleCycle => 1,
        OperationTiming::MultiCycle => 2,
    });
    for style in session.style.styles() {
        h.write_u64(match style {
            DesignStyle::Pipelined => 1,
            DesignStyle::NonPipelined => 2,
        });
    }
    let params = &session.params;
    h.write_f64(params.area_spread_below);
    h.write_f64(params.area_spread_above);
    h.write_f64(params.delay_spread_below);
    h.write_f64(params.delay_spread_above);
    h.write_f64(params.wiring_factor);
    h.write_f64(params.pla_cell_area);
    h.write_f64(params.pla_base_delay);
    h.write_f64(params.pla_delay_per_line);
    h.write_f64(params.wiring_delay_factor);
    h.write_u64(params.max_units_per_class as u64);
    h.write_u64(match params.allocation_sweep {
        AllocationSweep::Exhaustive => 1,
        AllocationSweep::PowersOfTwo => 2,
    });
    h.write_f64(session.constraints.performance().value());
    h.write_f64(session.constraints.delay().value());
    for threshold in
        [session.criteria.area, session.criteria.performance, session.criteria.delay]
    {
        h.write_f64(threshold.probability().value());
    }
    h.write_u64(u64::from(session.prune));
    h.finish()
}
