//! Heuristic **E**: explicit enumeration of implementation combinations.
//!
//! "The heuristic searches all possible combinations of implementing the
//! global design (partitioning), given the predicted implementations of
//! individual partitions. … The heuristic assumes that the performance of
//! each combination is upper bounded and set by the slowest partition
//! implementation in the combination" (paper §2.4).
//!
//! With pruning on, the walk is a **branch-and-bound** over the odometer
//! tree (DESIGN.md §10): each partition's design list is canonically
//! sorted, per-chip suffix area minima and initiation-interval envelopes
//! are precomputed once, and any prefix assignment whose optimistic
//! completion already violates a constraint causes the walk to advance
//! the offending digit directly — the skipped subtree is tallied in
//! `subtrees_skipped`/`combinations_skipped` instead of being visited.
//! Every bound only ever removes *provably infeasible* combinations, so
//! the retained feasible set (and `SearchOutcome::digest`) is identical
//! to the exhaustive walk's. `keep_all` (Figure-7 dumps) forces the
//! exhaustive walk as before.

use std::sync::Arc;

use chop_bad::{DesignStyle, PredictedDesign};
use chop_stat::{Estimate, FeasibilityThreshold};

use crate::budget::{BudgetTimer, Completion};
use crate::engine::scorer::BatchScorer;
use crate::engine::trace::TraceRecorder;
use crate::error::ChopError;
use crate::heuristics::{
    finalize, Candidate, DesignPoint, FeasibleImplementation, HeuristicResult,
};
use crate::integration::{DelayGraph, IntegrationContext};

/// Candidates generated per scoring batch. Deliberately independent of the
/// worker count so that candidate/trial accounting — and therefore any
/// count-capped truncation point — is identical for every `--jobs` value.
const BLOCK: usize = 128;

/// How many branch-and-bound tree nodes are expanded between wall-clock
/// deadline polls during candidate generation.
const DEADLINE_POLL_NODES: u64 = 4096;

/// Cap for the initiation-interval / delay bound binary searches; a bound
/// that is still satisfiable here is treated as unbounded (no pruning).
const BOUND_SEARCH_CAP: u64 = 1 << 42;

/// Extra probability margin a bound must fail `meets` by before the
/// search prunes on it. The feasibility tolerance is 1e-9; pruning only
/// when the floor misses the threshold by 1e-6 keeps the bound sound
/// against floating-point wobble in the triangular-CDF evaluation (the
/// true probability is weakly decreasing in each estimate component, but
/// the computed one may wiggle by a few ulps).
const PRUNE_MARGIN: f64 = 1e-6;

/// Per-run lookup tables shared by both walk modes: partition→chip map,
/// per-chip usable areas and a reusable per-chip accumulator, computed
/// once so the per-candidate quick-reject path is allocation-free.
struct RunTables {
    /// Chip index of each partition, in partition order.
    chip_of: Vec<usize>,
    /// Usable area per chip (mil²).
    usable: Vec<f64>,
    /// Scratch per-chip area accumulator reused across candidates.
    scratch: Vec<f64>,
}

impl RunTables {
    fn new(ctx: &IntegrationContext<'_>, partitions: usize) -> Self {
        let chip_of = (0..partitions)
            .map(|p| {
                ctx.partitioning().chip_of(crate::spec::PartitionId::new(p as u32)).index()
            })
            .collect();
        let usable: Vec<f64> = ctx
            .partitioning()
            .chips()
            .iter()
            .map(|(_, pkg)| pkg.usable_area().value())
            .collect();
        let scratch = vec![0.0; usable.len()];
        Self { chip_of, usable, scratch }
    }

    /// Cheap level-2 pruning: reject when even the optimistic
    /// (lower-bound) partition areas overflow some chip's usable area.
    /// Accumulates in partition order into the reusable scratch slice —
    /// bit-identical to the branch-and-bound prefix sums.
    fn quick_area_reject(
        &mut self,
        designs: &[Arc<[PredictedDesign]>],
        index: &[usize],
    ) -> bool {
        self.scratch.fill(0.0);
        for (p, (&i, list)) in index.iter().zip(designs).enumerate() {
            self.scratch[self.chip_of[p]] += list[i].area().lo();
        }
        self.usable.iter().zip(&self.scratch).any(|(usable, used)| used > usable)
    }
}

/// Runs the enumeration heuristic.
///
/// `designs` holds the (already level-1-pruned) prediction list of each
/// partition. With `prune` on, combinations that transparently violate a
/// chip-area budget (even with every lower bound) are counted as trials
/// but not integrated — CHOP's "discard … immediately upon detection" —
/// and, when `branch_and_bound` is also on, whole subtrees of provably
/// infeasible combinations are skipped without being visited at all.
/// With `keep_all` on, every examined point is recorded for
/// Figure-7-style design-space dumps and the walk stays exhaustive.
///
/// The walk proceeds in three repeated stages: generate a block of
/// candidates, hand them to the `score` batch evaluator (the engine
/// parallelizes this), then fold the results back in canonical order —
/// consulting the `timer` before every combination exactly as the
/// original serial loop did, so results and budget accounting are
/// independent of the scorer's worker count.
///
/// # Errors
///
/// Returns [`ChopError::Integration`] only for structural task-graph
/// failures; infeasible combinations are recorded, not errors.
#[allow(clippy::too_many_arguments)] // three mode flags + the engine's shared plumbing
pub(crate) fn run(
    ctx: &IntegrationContext<'_>,
    designs: &[Arc<[PredictedDesign]>],
    prune: bool,
    keep_all: bool,
    branch_and_bound: bool,
    timer: &BudgetTimer,
    score: &BatchScorer<'_>,
    trace: &TraceRecorder,
) -> Result<HeuristicResult, ChopError> {
    if designs.is_empty() || designs.iter().any(|list| list.is_empty()) {
        return Ok(HeuristicResult::default());
    }
    let mut tables = RunTables::new(ctx, designs.len());
    if prune && branch_and_bound && !keep_all {
        run_branch_and_bound(ctx, designs, &tables, timer, score, trace)
    } else {
        run_exhaustive(ctx, designs, &mut tables, prune, keep_all, timer, score, trace)
    }
}

/// The original odometer walk: visits every combination, quick-rejecting
/// one candidate at a time. Kept for `keep_all` dumps and as the
/// reference the branch-and-bound walk must stay byte-identical to.
#[allow(clippy::too_many_arguments)]
fn run_exhaustive(
    ctx: &IntegrationContext<'_>,
    designs: &[Arc<[PredictedDesign]>],
    tables: &mut RunTables,
    prune: bool,
    keep_all: bool,
    timer: &BudgetTimer,
    score: &BatchScorer<'_>,
    trace: &TraceRecorder,
) -> Result<HeuristicResult, ChopError> {
    let mut result = HeuristicResult::default();
    let min_transfer_ii = ctx.min_transfer_ii().value();
    let mut index = vec![0usize; designs.len()];
    let mut exhausted = false;
    while !exhausted {
        // Stage A: generate a block of candidates (pure odometer walk,
        // with the cheap level-2 area pre-check applied eagerly; rejected
        // combinations are recorded as a flag only — no allocation).
        let mut rejected_flags: Vec<bool> = Vec::with_capacity(BLOCK);
        let mut to_score: Vec<Candidate> = Vec::with_capacity(BLOCK);
        while rejected_flags.len() < BLOCK && !exhausted {
            let rejected = prune && tables.quick_area_reject(designs, &index);
            if !rejected {
                let indices: Vec<u32> = index.iter().map(|&i| i as u32).collect();
                let ii = index
                    .iter()
                    .zip(designs)
                    .map(|(&i, list)| list[i].initiation_interval().value())
                    .max()
                    .map_or(min_transfer_ii, |m| m.max(min_transfer_ii));
                to_score.push(Candidate { indices, ii });
            }
            rejected_flags.push(rejected);
            exhausted = !advance(&mut index, designs);
        }
        // Stage B: score the surviving candidates (in parallel when the
        // scorer has workers).
        let mut slots = score.score(&to_score).into_iter();
        let mut candidates = to_score.into_iter();
        // Stage C: fold in canonical order, replaying the serial budget
        // semantics exactly.
        for rejected in rejected_flags {
            if let Some(status) = timer.check(result.trials, result.retained_points()) {
                result.completion = status;
                finalize(&mut result, trace);
                return Ok(result);
            }
            result.trials += 1;
            if rejected {
                trace.count_quick_reject();
                continue;
            }
            let Some(candidate) = candidates.next() else { break };
            let system = match slots.next().flatten() {
                Some(Ok(system)) => system,
                Some(Err(e)) => return Err(e),
                None => {
                    // The scorer abandoned the rest of the batch at the
                    // wall-clock deadline.
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
                    .push(FeasibleImplementation { selection: candidate.indices, system });
            }
        }
    }
    finalize(&mut result, trace);
    Ok(result)
}

/// The branch-and-bound walk: DFS over the canonically sorted lists with
/// subtree skipping; generated candidates are scored in the same batched,
/// jobs-independent fashion as the exhaustive walk.
fn run_branch_and_bound(
    ctx: &IntegrationContext<'_>,
    designs: &[Arc<[PredictedDesign]>],
    tables: &RunTables,
    timer: &BudgetTimer,
    score: &BatchScorer<'_>,
    trace: &TraceRecorder,
) -> Result<HeuristicResult, ChopError> {
    let mut result = HeuristicResult::default();
    let mut walker = BnbWalker::new(ctx, designs, tables);
    let mut batch: Vec<Candidate> = Vec::with_capacity(BLOCK);
    loop {
        let status = walker.next_batch(timer, &mut batch);
        let mut slots = score.score(&batch).into_iter();
        for candidate in batch.drain(..) {
            if let Some(budget_status) = timer.check(result.trials, result.retained_points()) {
                result.completion = budget_status;
                return Ok(finish_bnb(result, &walker, trace));
            }
            result.trials += 1;
            let system = match slots.next().flatten() {
                Some(Ok(system)) => system,
                Some(Err(e)) => return Err(e),
                None => {
                    result.completion = Completion::TruncatedDeadline;
                    return Ok(finish_bnb(result, &walker, trace));
                }
            };
            if system.verdict.feasible {
                result.feasible_trials += 1;
                result
                    .feasible
                    .push(FeasibleImplementation { selection: candidate.indices, system });
            }
        }
        match status {
            GenStatus::More => {}
            GenStatus::Exhausted => break,
            GenStatus::Deadline => {
                result.completion = Completion::TruncatedDeadline;
                return Ok(finish_bnb(result, &walker, trace));
            }
        }
    }
    Ok(finish_bnb(result, &walker, trace))
}

/// Flushes the walker's skip tallies, restores the exhaustive visiting
/// order for the feasible set (the DFS visits sorted-list order, but the
/// non-inferiority filter is insertion-order-sensitive) and finalizes.
fn finish_bnb(
    mut result: HeuristicResult,
    walker: &BnbWalker<'_>,
    trace: &TraceRecorder,
) -> HeuristicResult {
    result.subtrees_skipped = walker.subtrees_skipped;
    result.combinations_skipped = walker.combinations_skipped.min(u128::from(u64::MAX)) as u64;
    trace.add_skips(result.subtrees_skipped, result.combinations_skipped);
    // Lexicographic order over original indices == the exhaustive
    // odometer's generation order.
    result.feasible.sort_by(|a, b| a.selection.cmp(&b.selection));
    finalize(&mut result, trace);
    result
}

/// What a generation step ended with.
enum GenStatus {
    /// The batch filled up; more combinations remain.
    More,
    /// The whole tree has been walked (or pruned away).
    Exhausted,
    /// The wall-clock deadline passed mid-generation.
    Deadline,
}

/// Iterative DFS over the odometer tree with per-prefix lower bounds.
///
/// Digit `p` ranges over partition `p`'s design list *in canonical sorted
/// order* (ascending optimistic area, then latency, then interval, then
/// original index); candidates are emitted with the original indices so
/// scoring and the reported selections are unchanged. Sorting by
/// optimistic area makes the per-chip area bound monotone in the digit,
/// so an area violation kills the whole remaining row; the other bounds
/// are not monotone in the sort key and skip one digit value at a time.
struct BnbWalker<'a> {
    designs: &'a [Arc<[PredictedDesign]>],
    chip_of: &'a [usize],
    usable: &'a [f64],
    chips: usize,
    k: usize,
    lens: Vec<usize>,
    /// `order[p][j]` = original index of the `j`-th design of partition
    /// `p` in canonical order.
    order: Vec<Vec<u32>>,
    /// Whether the area bound may prune (a no-op area threshold — within
    /// the 1e-9 feasibility tolerance of zero — accepts even impossible
    /// areas, so nothing may be pruned on it).
    area_prune: bool,
    /// Largest initiation interval (cycles) the performance constraint
    /// can accept at the clock floor; `u64::MAX` when unbounded.
    ii_max: u64,
    /// Smallest interval at which the deterministic pin/memory
    /// feasibility checks can pass; `u64::MAX` when nothing can.
    ii_floor: u64,
    /// Largest schedule makespan (cycles) the delay constraint can accept
    /// at the clock floor; `u64::MAX` when unbounded.
    delay_max: u64,
    delay_graph: DelayGraph,
    /// `subtree[p]` = number of combinations below one digit-value cone
    /// at depth `p-1`, i.e. `∏_{q≥p} lens[q]` (and `subtree[k] = 1`).
    subtree: Vec<u128>,
    /// `suffix_area[p*chips + c]` = Σ of the minimal optimistic areas on
    /// chip `c` over positions `q ≥ p`.
    suffix_area: Vec<f64>,
    /// `suffix_ii_lb[p]` = the largest *minimum* interval any suffix
    /// position `q ≥ p` forces (lower bound on the suffix contribution).
    suffix_ii_lb: Vec<u64>,
    /// `suffix_ii_ub[p]` = the largest *maximum* interval any suffix
    /// position `q ≥ p` could contribute (upper bound).
    suffix_ii_ub: Vec<u64>,
    /// Minimal latency per position (optimistic delay-graph weights).
    min_lat: Vec<u64>,
    // --- DFS state ---
    pos: Vec<usize>,
    depth: usize,
    exhausted: bool,
    /// Prefix per-chip optimistic-area sums, one row per depth (a stack
    /// of rows rather than add/subtract updates, so the float rounding is
    /// bit-identical to the exhaustive quick-reject accumulation).
    area_stack: Vec<f64>,
    /// Prefix max interval, seeded with the transfer-side floor.
    prefix_ii: Vec<u64>,
    /// First pipelined design interval in the prefix, if any.
    pip_stack: Vec<Option<u64>>,
    /// Delay-graph weights: chosen latency for prefix positions, minimal
    /// latency for the rest.
    pu_weights: Vec<u64>,
    /// Longest-path scratch.
    dist: Vec<u64>,
    nodes: u64,
    subtrees_skipped: u64,
    combinations_skipped: u128,
}

impl<'a> BnbWalker<'a> {
    fn new(
        ctx: &IntegrationContext<'_>,
        designs: &'a [Arc<[PredictedDesign]>],
        tables: &'a RunTables,
    ) -> Self {
        let k = designs.len();
        let chips = tables.usable.len();
        let lens: Vec<usize> = designs.iter().map(|l| l.len()).collect();
        let order: Vec<Vec<u32>> = designs
            .iter()
            .map(|list| {
                let mut idx: Vec<u32> = (0..list.len() as u32).collect();
                idx.sort_by(|&a, &b| {
                    let (da, db) = (&list[a as usize], &list[b as usize]);
                    da.area()
                        .lo()
                        .total_cmp(&db.area().lo())
                        .then_with(|| da.latency().value().cmp(&db.latency().value()))
                        .then_with(|| {
                            da.initiation_interval()
                                .value()
                                .cmp(&db.initiation_interval().value())
                        })
                        .then_with(|| a.cmp(&b))
                });
                idx
            })
            .collect();

        let mut subtree = vec![1u128; k + 1];
        for p in (0..k).rev() {
            subtree[p] = subtree[p + 1].saturating_mul(lens[p] as u128);
        }
        let mut suffix_area = vec![0.0f64; (k + 1) * chips];
        let mut suffix_ii_lb = vec![0u64; k + 1];
        let mut suffix_ii_ub = vec![0u64; k + 1];
        let mut min_lat = vec![0u64; k];
        for p in (0..k).rev() {
            let (dst, src) = suffix_area.split_at_mut((p + 1) * chips);
            dst[p * chips..(p + 1) * chips].copy_from_slice(&src[..chips]);
            let min_area =
                designs[p].iter().map(|d| d.area().lo()).fold(f64::INFINITY, f64::min);
            suffix_area[p * chips + tables.chip_of[p]] += min_area;
            let (mut ii_lo, mut ii_hi, mut lat_lo) = (u64::MAX, 0u64, u64::MAX);
            for d in designs[p].iter() {
                ii_lo = ii_lo.min(d.initiation_interval().value());
                ii_hi = ii_hi.max(d.initiation_interval().value());
                lat_lo = lat_lo.min(d.latency().value());
            }
            suffix_ii_lb[p] = suffix_ii_lb[p + 1].max(ii_lo);
            suffix_ii_ub[p] = suffix_ii_ub[p + 1].max(ii_hi);
            min_lat[p] = lat_lo;
        }

        let criteria = ctx.criteria();
        let floor = ctx.clock_floor();
        let ii_max =
            bound_search(&floor, ctx.constraints().performance().value(), criteria.performance);
        let delay_max = bound_search(&floor, ctx.constraints().delay().value(), criteria.delay);
        let mut prefix_ii = vec![0u64; k + 1];
        prefix_ii[0] = ctx.min_transfer_ii().value();
        Self {
            designs,
            chip_of: &tables.chip_of,
            usable: &tables.usable,
            chips,
            k,
            lens,
            order,
            area_prune: criteria.area.probability().value() > 1e-9,
            ii_max,
            ii_floor: ctx.deterministic_ii_floor(),
            delay_max,
            delay_graph: ctx.delay_graph(),
            subtree,
            suffix_area,
            suffix_ii_lb,
            suffix_ii_ub,
            pu_weights: min_lat.clone(),
            min_lat,
            pos: vec![0usize; k],
            depth: 0,
            exhausted: false,
            area_stack: vec![0.0f64; (k + 1) * chips],
            prefix_ii,
            pip_stack: vec![None; k + 1],
            dist: Vec::new(),
            nodes: 0,
            subtrees_skipped: 0,
            combinations_skipped: 0,
        }
    }

    /// Tallies the cone below the current digit value (and, for a row
    /// kill, every later value of the digit) as skipped.
    fn tally_skip(&mut self, depth: usize, values: usize) {
        self.subtrees_skipped = self.subtrees_skipped.saturating_add(values as u64);
        self.combinations_skipped = self
            .combinations_skipped
            .saturating_add(self.subtree[depth + 1].saturating_mul(values as u128));
    }

    /// Generates up to [`BLOCK`] candidates into `out`.
    fn next_batch(&mut self, timer: &BudgetTimer, out: &mut Vec<Candidate>) -> GenStatus {
        out.clear();
        if self.exhausted {
            return GenStatus::Exhausted;
        }
        loop {
            if out.len() >= BLOCK {
                return GenStatus::More;
            }
            self.nodes += 1;
            if self.nodes.is_multiple_of(DEADLINE_POLL_NODES) && timer.deadline_exceeded() {
                return GenStatus::Deadline;
            }
            let p = self.depth;
            if self.pos[p] >= self.lens[p] {
                if p == 0 {
                    self.exhausted = true;
                    return GenStatus::Exhausted;
                }
                // Restore the exhausted row's delay weight to its
                // optimistic minimum: the delay bound at shallower depths
                // must never see a stale chosen latency for this position
                // (that would overestimate the lower bound and prune
                // feasible subtrees).
                self.pu_weights[p] = self.min_lat[p];
                self.depth = p - 1;
                self.pos[self.depth] += 1;
                continue;
            }
            let j = self.pos[p];
            let d = &self.designs[p][self.order[p][j] as usize];
            let c0 = self.chip_of[p];

            // Area row-kill: prefix + this digit + optimistic suffix on
            // the digit's chip. Later digit values have ≥ this area (the
            // canonical sort), so the whole remaining row dies with it.
            if self.area_prune {
                let bound = self.area_stack[p * self.chips + c0]
                    + d.area().lo()
                    + self.suffix_area[(p + 1) * self.chips + c0];
                if bound > self.usable[c0] {
                    self.tally_skip(p, self.lens[p] - j);
                    self.pos[p] = self.lens[p];
                    continue;
                }
            }

            // Pipelined data-rate conflict: deterministic mismatch, skip
            // this digit value.
            let d_ii = d.initiation_interval().value();
            let mut pip = self.pip_stack[p];
            if d.style() == DesignStyle::Pipelined {
                match pip {
                    Some(first) if first != d_ii => {
                        self.tally_skip(p, 1);
                        self.pos[p] += 1;
                        continue;
                    }
                    Some(_) => {}
                    None => pip = Some(d_ii),
                }
            }

            // Interval envelope vs. the performance ceiling and the
            // deterministic pin/memory floor.
            let prefix_ii = self.prefix_ii[p].max(d_ii);
            if prefix_ii.max(self.suffix_ii_lb[p + 1]) > self.ii_max
                || prefix_ii.max(self.suffix_ii_ub[p + 1]) < self.ii_floor
            {
                self.tally_skip(p, 1);
                self.pos[p] += 1;
                continue;
            }

            // Critical-path delay: dependency longest path with chosen
            // prefix latencies and minimal suffix latencies lower-bounds
            // every schedule makespan over this prefix.
            self.pu_weights[p] = d.latency().value();
            if self.delay_max != u64::MAX {
                let lp = self.delay_graph.longest_path(&self.pu_weights, &mut self.dist);
                if lp > self.delay_max {
                    self.tally_skip(p, 1);
                    self.pos[p] += 1;
                    continue;
                }
            }

            if p + 1 == self.k {
                // Leaf: emit with the original indices so scoring and the
                // reported selection are identical to the exhaustive walk.
                let indices: Vec<u32> =
                    (0..self.k).map(|q| self.order[q][self.pos[q]]).collect();
                out.push(Candidate { indices, ii: prefix_ii });
                self.pos[p] += 1;
            } else {
                let (row, next_row) = (p * self.chips, (p + 1) * self.chips);
                let (head, tail) = self.area_stack.split_at_mut(next_row);
                tail[..self.chips].copy_from_slice(&head[row..row + self.chips]);
                tail[c0] += d.area().lo();
                self.prefix_ii[p + 1] = prefix_ii;
                self.pip_stack[p + 1] = pip;
                self.depth = p + 1;
                self.pos[p + 1] = 0;
            }
        }
    }
}

/// Largest integer scale `l ≥ 1` at which `floor · l` still clearly
/// satisfies the probabilistic constraint — `0` when even `l = 1` fails,
/// `u64::MAX` when the constraint never clearly fails (no pruning).
/// "Clearly" leaves [`PRUNE_MARGIN`] headroom over the feasibility
/// tolerance so a bound failure implies every dominated actual estimate
/// fails too.
fn bound_search(floor: &Estimate, limit: f64, threshold: FeasibilityThreshold) -> u64 {
    let clearly_fails = |l: u64| {
        (*floor * l as f64).probability_le(limit).value() + PRUNE_MARGIN
            < threshold.probability().value()
    };
    if !clearly_fails(BOUND_SEARCH_CAP) {
        return u64::MAX;
    }
    if clearly_fails(1) {
        return 0;
    }
    let (mut ok, mut bad) = (1u64, BOUND_SEARCH_CAP);
    while bad - ok > 1 {
        let mid = ok + (bad - ok) / 2;
        if clearly_fails(mid) {
            bad = mid;
        } else {
            ok = mid;
        }
    }
    ok
}

/// Odometer increment from the rightmost position; returns `false` when
/// the combination space is exhausted.
fn advance(index: &mut [usize], designs: &[Arc<[PredictedDesign]>]) -> bool {
    let mut pos = index.len();
    loop {
        if pos == 0 {
            return false;
        }
        pos -= 1;
        index[pos] += 1;
        if index[pos] < designs[pos].len() {
            return true;
        }
        index[pos] = 0;
    }
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
    use chop_stat::units::Nanos;

    use super::*;
    use crate::engine::trace::TraceRecorder;
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
        prune: bool,
        keep_all: bool,
        bnb: bool,
    ) -> HeuristicResult {
        let timer = BudgetTimer::unlimited();
        let trace = TraceRecorder::new(1);
        let scorer = BatchScorer::new(ctx, designs, 1, &timer, &trace);
        run(ctx, designs, prune, keep_all, bnb, &timer, &scorer, &trace).unwrap()
    }

    #[test]
    fn enumeration_finds_feasible_single_chip() {
        let (p, lib, clocks, designs) = setup(1);
        let ctx = make_ctx(&p, &lib, clocks);
        let r = run_serial(&ctx, &designs, true, false, false);
        assert!(r.trials >= designs[0].len());
        assert!(r.feasible_trials >= 1, "Table 4 row 1: a feasible trial exists");
        assert!(!r.feasible.is_empty());
    }

    #[test]
    fn enumeration_trials_equal_product_of_list_sizes() {
        let (p, lib, clocks, designs) = setup(2);
        let ctx = make_ctx(&p, &lib, clocks);
        let product: u64 = designs.iter().map(|l| l.len() as u64).product();
        let naive = run_serial(&ctx, &designs, true, false, false);
        assert_eq!(naive.trials as u64, product);
        assert_eq!(naive.combinations_skipped, 0);
        // Branch-and-bound accounting stays honest: visited + skipped
        // covers the whole cross-product.
        let bnb = run_serial(&ctx, &designs, true, false, true);
        assert_eq!(bnb.trials as u64 + bnb.combinations_skipped, product);
    }

    #[test]
    fn branch_and_bound_matches_exhaustive_feasible_set() {
        for k in [1usize, 2, 3] {
            let (p, lib, clocks, designs) = setup(k);
            let ctx = make_ctx(&p, &lib, clocks);
            let naive = run_serial(&ctx, &designs, false, false, false);
            let bnb = run_serial(&ctx, &designs, true, false, true);
            assert_eq!(naive.feasible_trials, bnb.feasible_trials, "k={k}");
            assert_eq!(naive.feasible.len(), bnb.feasible.len(), "k={k}");
            for (a, b) in naive.feasible.iter().zip(&bnb.feasible) {
                assert_eq!(a.selection, b.selection, "k={k}");
                assert_eq!(a.system, b.system, "k={k}");
            }
        }
    }

    #[test]
    fn keep_all_records_every_evaluated_point() {
        let (p, lib, clocks, designs) = setup(1);
        let ctx = make_ctx(&p, &lib, clocks);
        // keep_all forces the exhaustive walk even when branch-and-bound
        // is requested.
        let r = run_serial(&ctx, &designs, false, true, true);
        assert_eq!(r.points.len(), r.trials);
        assert_eq!(r.combinations_skipped, 0);
    }

    #[test]
    fn empty_design_list_is_graceful() {
        let (p, lib, clocks, _) = setup(1);
        let ctx = make_ctx(&p, &lib, clocks);
        let empty: Vec<Arc<[PredictedDesign]>> = vec![Vec::new().into()];
        for bnb in [false, true] {
            let r = run_serial(&ctx, &empty, true, false, bnb);
            assert_eq!(r.trials, 0);
            assert!(r.feasible.is_empty());
        }
    }

    #[test]
    fn selection_indices_resolve_into_design_lists() {
        let (p, lib, clocks, designs) = setup(2);
        let ctx = make_ctx(&p, &lib, clocks);
        for bnb in [false, true] {
            let r = run_serial(&ctx, &designs, true, false, bnb);
            for f in &r.feasible {
                assert_eq!(f.selection.len(), designs.len());
                for (&i, list) in f.selection.iter().zip(&designs) {
                    assert!((i as usize) < list.len());
                }
            }
        }
    }
}
