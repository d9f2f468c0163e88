//! Property tests of compiled list-scheduling plans: one [`ListPlan`]
//! scheduled under every allocation of a sweep must match a transcription
//! of the list-scheduling loop it replaced, the one-sweep register count
//! and the flat modulo fold must match the per-cycle and per-slot-map
//! definitions they replaced, and `compile` and `schedule` must report the
//! errors the old loop reported, in the same order. A run's reuse rule
//! (`ListRun::covers`) must only ever name allocations whose reference
//! schedule is the run's own, and the resource bound that lets
//! `min_initiation_interval` skip the fold must not change its answer.

use std::collections::BTreeMap;

use chop_dfg::benchmarks::{random_layered, RandomDfgParams};
use chop_dfg::{Dfg, DfgBuilder, Edge, MemoryRef, NodeId, OpClass, Operation};
use chop_sched::lifetime::max_live_bits_where;
use chop_sched::pipeline::{min_initiation_interval, modulo_demand, supports_ii};
use chop_sched::{
    alap_times, list_schedule, ListPlan, NodeSpec, ResourceMap, Schedule, ScheduleError,
};
use proptest::prelude::*;

/// A `random_layered` graph with some operations turned into comparisons
/// and some into memory reads (edges kept), so a graph uses up to three
/// unit classes in a seed-dependent first-use order and has one-cycle
/// nodes without a unit.
#[derive(Debug, Clone)]
struct Workload {
    seed: u64,
    params: RandomDfgParams,
    compare_mask: u64,
    memory_mask: u64,
    /// Cycles of an addition, multiplication and comparison.
    durations: [u64; 3],
}

impl Workload {
    fn graph(&self) -> Dfg {
        let base = random_layered(self.seed, self.params);
        let bit = |mask: u64, id: NodeId| mask >> (id.index() % 64) & 1 == 1;
        let mut b = DfgBuilder::new();
        for (id, node) in base.nodes() {
            let op = match node.op() {
                op if op.class().is_none() => op,
                _ if bit(self.memory_mask, id) => Operation::MemRead(MemoryRef::new(0)),
                _ if bit(self.compare_mask, id) => Operation::Compare,
                op => op,
            };
            b.node(op, node.width());
        }
        for (_, e) in base.edges() {
            b.connect_with_width(e.src(), e.dst(), e.width()).expect("known nodes");
        }
        b.build().expect("same edges as an acyclic graph")
    }

    /// 0 cycles for I/O, 1 for memory accesses, the drawn cycles per class.
    fn specs(&self, g: &Dfg) -> NodeSpec {
        NodeSpec::from_fn(
            g,
            |id| match g.node(id).op() {
                op if op.is_memory_access() => 1,
                op => match op.class() {
                    Some(OpClass::Addition) => self.durations[0],
                    Some(OpClass::Multiplication) => self.durations[1],
                    Some(_) => self.durations[2],
                    None => 0,
                },
            },
            |id| g.node(id).op().class(),
        )
    }
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        (any::<u64>(), 1usize..6, 1usize..7, 1usize..4, 0u32..100),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (1u64..5, 1u64..5, 1u64..5),
    )
        .prop_map(
            |((seed, layers, width, inputs, mul_percent), masks, (add, mul, cmp))| {
                let (compare, memory, thin) = masks;
                Workload {
                    seed,
                    params: RandomDfgParams { layers, width, inputs, mul_percent, bits: 16 },
                    compare_mask: compare & thin,
                    memory_mask: memory & !thin & (thin >> 1),
                    durations: [add, mul, cmp],
                }
            },
        )
}

/// Every allocation with 0 up to 3 units of each class the graph uses:
/// zero counts exercise `NoUnitsForClass`.
fn sweep(g: &Dfg) -> Vec<ResourceMap> {
    let classes = g.op_histogram().classes();
    let mut sweep = vec![ResourceMap::new()];
    for class in classes {
        sweep = sweep
            .into_iter()
            .flat_map(|alloc| {
                (0..=3).map(move |n| {
                    let mut a = alloc.clone();
                    a.set(class, n);
                    a
                })
            })
            .collect();
    }
    sweep
}

/// Reference scheduler: a direct transcription of the list-scheduling loop
/// that `ListPlan::schedule` replaced. Each pass re-sorts the ready nodes by
/// (ALAP, id), rescans their predecessors for operand times and keeps busy
/// units per class in a map. Returns `(start, finish)` per node.
fn reference_schedule(
    dfg: &Dfg,
    specs: &NodeSpec,
    alloc: &ResourceMap,
) -> Result<Vec<(u64, u64)>, ScheduleError> {
    if specs.len() != dfg.len() {
        return Err(ScheduleError::SpecLengthMismatch {
            expected: dfg.len(),
            found: specs.len(),
        });
    }
    for id in dfg.node_ids() {
        if let Some(class) = specs.resource(id) {
            if alloc.get(class) == 0 {
                return Err(ScheduleError::NoUnitsForClass(class));
            }
        }
    }

    let alap = alap_times(dfg, specs);
    let n = dfg.len();
    let mut start = vec![0u64; n];
    let mut finish = vec![0u64; n];
    let mut placed = vec![false; n];
    let mut remaining_preds: Vec<usize> =
        dfg.node_ids().map(|id| dfg.preds(id).len()).collect();
    let mut busy: BTreeMap<OpClass, Vec<u64>> = BTreeMap::new();

    let mut ready: Vec<NodeId> =
        dfg.node_ids().filter(|id| remaining_preds[id.index()] == 0).collect();
    let mut time = 0u64;
    let mut done = 0usize;

    while done < n {
        ready.sort_by_key(|id| (alap[id.index()], id.index()));
        let mut next_ready: Vec<NodeId> = Vec::new();
        let mut started_any = false;
        for &id in &ready {
            let operand_ready =
                dfg.pred_nodes(id).map(|p| finish[p.index()]).max().unwrap_or(0);
            if operand_ready > time {
                next_ready.push(id);
                continue;
            }
            let dur = specs.duration(id);
            if let Some(class) = specs.resource(id) {
                let pool = busy.entry(class).or_default();
                pool.retain(|&f| f > time);
                if pool.len() >= alloc.get(class) {
                    next_ready.push(id);
                    continue;
                }
                pool.push(time + dur);
            }
            start[id.index()] = time;
            finish[id.index()] = time + dur;
            placed[id.index()] = true;
            done += 1;
            started_any = true;
            for succ in dfg.succ_nodes(id) {
                remaining_preds[succ.index()] -= 1;
                if remaining_preds[succ.index()] == 0 {
                    next_ready.push(succ);
                }
            }
        }
        next_ready.sort_by_key(|id| id.index());
        next_ready.dedup();
        next_ready.retain(|id| !placed[id.index()]);
        ready = next_ready;
        if !started_any {
            let next_release =
                busy.values().flat_map(|v| v.iter().copied()).filter(|&f| f > time).min();
            let next_operand = ready
                .iter()
                .flat_map(|&id| dfg.pred_nodes(id).map(|p| finish[p.index()]))
                .filter(|&f| f > time)
                .min();
            time = match (next_release, next_operand) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => time + 1,
            };
        }
    }
    Ok(start.into_iter().zip(finish).collect())
}

/// Reference register count: every edge's live interval tested at every
/// cycle `0..=makespan`.
fn reference_max_live(dfg: &Dfg, schedule: &Schedule, keep: impl Fn(&Edge) -> bool) -> u64 {
    let intervals: Vec<(u64, u64, u64)> = dfg
        .edges()
        .filter(|(_, e)| keep(e))
        .map(|(_, e)| {
            (schedule.finish(e.src()), schedule.start(e.dst()) + 1, e.width().value())
        })
        .collect();
    (0..=schedule.makespan())
        .map(|t| {
            intervals
                .iter()
                .filter(|&&(birth, death, _)| birth <= t && t < death)
                .map(|&(_, _, width)| width)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0)
}

/// Reference modulo demand: a `(class, slot)` map built afresh per II.
fn reference_modulo_demand(
    dfg: &Dfg,
    specs: &NodeSpec,
    schedule: &Schedule,
    ii: u64,
) -> ResourceMap {
    let mut per_slot: BTreeMap<(OpClass, u64), usize> = BTreeMap::new();
    for id in dfg.node_ids() {
        let Some(class) = specs.resource(id) else { continue };
        let dur = specs.duration(id);
        if dur == 0 {
            continue;
        }
        if dur >= ii {
            for slot in 0..ii {
                *per_slot.entry((class, slot)).or_insert(0) += 1;
            }
            let extra = (dur.div_ceil(ii) - 1) as usize;
            if extra > 0 {
                for slot in 0..ii {
                    *per_slot.entry((class, slot)).or_insert(0) += extra;
                }
            }
        } else {
            for t in schedule.start(id)..schedule.finish(id) {
                *per_slot.entry((class, t % ii)).or_insert(0) += 1;
            }
        }
    }
    let mut demand = ResourceMap::new();
    for ((class, _), count) in per_slot {
        if count > demand.get(class) {
            demand.set(class, count);
        }
    }
    demand
}

fn reference_supports_ii(
    dfg: &Dfg,
    specs: &NodeSpec,
    schedule: &Schedule,
    alloc: &ResourceMap,
    ii: u64,
) -> bool {
    let demand = reference_modulo_demand(dfg, specs, schedule, ii);
    let ok = demand.iter().all(|(class, need)| need <= alloc.get(class));
    ok
}

/// Reference minimum II: the resource bound from a per-class map, then
/// each candidate up to the makespan checked with a fresh fold.
fn reference_min_ii(
    dfg: &Dfg,
    specs: &NodeSpec,
    schedule: &Schedule,
    alloc: &ResourceMap,
) -> u64 {
    let horizon = schedule.makespan().max(1);
    let mut busy: BTreeMap<OpClass, u64> = BTreeMap::new();
    for id in dfg.node_ids() {
        if let Some(class) = specs.resource(id) {
            *busy.entry(class).or_insert(0) += specs.duration(id);
        }
    }
    let lower = busy
        .iter()
        .map(|(class, cycles)| cycles.div_ceil(alloc.get(*class).max(1) as u64))
        .max()
        .unwrap_or(1)
        .max(1);
    (lower..=horizon)
        .find(|&ii| reference_supports_ii(dfg, specs, schedule, alloc, ii))
        .unwrap_or(horizon)
}

fn times(g: &Dfg, s: &Schedule) -> Vec<(u64, u64)> {
    g.node_ids().map(|id| (s.start(id), s.finish(id))).collect()
}

/// Every allocation with 1 up to 4 units of each class the graph uses.
fn nonzero_sweep(g: &Dfg) -> Vec<ResourceMap> {
    sweep(g).into_iter().map(|a| a.iter().map(|(class, n)| (class, n + 1)).collect()).collect()
}

/// What a sweep's reuse checks saw: runs that cover other allocations,
/// runs that cover only their own, and (run, other allocation) pairs the
/// rule matched.
#[derive(Debug, Default)]
struct ReuseCounts {
    sharing: usize,
    alone: usize,
    hits: usize,
}

/// Runs `plan` under every allocation of `allocs` and checks, for every
/// run and every allocation of the sweep the run covers, that the
/// allocation's reference schedule is the run's own.
fn check_reuse(
    g: &Dfg,
    specs: &NodeSpec,
    plan: &ListPlan,
    allocs: &[ResourceMap],
) -> ReuseCounts {
    let wants: Vec<_> = allocs
        .iter()
        .map(|alloc| reference_schedule(g, specs, alloc).expect("every class has units"))
        .collect();
    let mut counts = ReuseCounts::default();
    for (own, want) in allocs.iter().zip(&wants) {
        let run = plan.run(own).expect("every class has units");
        assert!(run.covers(own), "a run covers its own allocation: {own}");
        assert_eq!(&times(g, run.schedule()), want, "{own}");
        if run.covers_others() {
            counts.sharing += 1;
        } else {
            counts.alone += 1;
        }
        for (alloc, want) in allocs.iter().zip(&wants) {
            if alloc != own && run.covers(alloc) {
                counts.hits += 1;
                assert_eq!(
                    &times(g, run.schedule()),
                    want,
                    "run under {own}, reused for {alloc}"
                );
            }
        }
    }
    counts
}

/// The resource bound `min_initiation_interval` checks before folding.
fn resource_bound(g: &Dfg, specs: &NodeSpec, alloc: &ResourceMap) -> u64 {
    let mut busy: BTreeMap<OpClass, u64> = BTreeMap::new();
    for id in g.node_ids() {
        if let Some(class) = specs.resource(id) {
            *busy.entry(class).or_insert(0) += specs.duration(id);
        }
    }
    busy.iter()
        .map(|(class, cycles)| cycles.div_ceil(alloc.get(*class).max(1) as u64))
        .max()
        .unwrap_or(1)
        .max(1)
}

/// Compares `min_initiation_interval` with the reference for every
/// schedule of the sweep, under its own allocation and under the sweep's
/// smallest and largest, and returns how many comparisons had the resource
/// bound at or past the makespan and how many below it.
fn check_min_ii(g: &Dfg, specs: &NodeSpec, allocs: &[ResourceMap]) -> (usize, usize) {
    let (mut bounded, mut searched) = (0, 0);
    let extremes = [allocs.first(), allocs.last()].map(|a| a.expect("sweep is never empty"));
    for scheduled_under in allocs {
        let s = list_schedule(g, specs, scheduled_under).expect("every class has units");
        for alloc in [scheduled_under].into_iter().chain(extremes) {
            if resource_bound(g, specs, alloc) >= s.makespan().max(1) {
                bounded += 1;
            } else {
                searched += 1;
            }
            assert_eq!(
                min_initiation_interval(g, specs, &s, alloc),
                reference_min_ii(g, specs, &s, alloc),
                "scheduled under {}, folded for {}",
                scheduled_under,
                alloc
            );
        }
    }
    (bounded, searched)
}

/// The fixed workloads of the coverage tests: multi-cycle durations, so
/// some classes wait for units and some do not.
fn fixed_workloads() -> Vec<Workload> {
    (0..24u64)
        .map(|seed| Workload {
            seed,
            params: RandomDfgParams {
                layers: 2 + seed as usize % 4,
                width: 2 + seed as usize % 5,
                inputs: 3,
                mul_percent: 40,
                bits: 16,
            },
            compare_mask: 0x1111_1111_1111_1111 << (seed % 4),
            memory_mask: 0x0101_0101_0101_0101 << (seed % 3),
            durations: [1 + seed % 2, 2 + seed % 3, 1 + seed % 4],
        })
        .collect()
}

#[test]
fn reuse_rule_is_exercised_both_ways() {
    let mut total = ReuseCounts::default();
    for w in fixed_workloads() {
        let g = w.graph();
        let specs = w.specs(&g);
        let plan = ListPlan::compile(&g, &specs).unwrap();
        let counts = check_reuse(&g, &specs, &plan, &nonzero_sweep(&g));
        total.sharing += counts.sharing;
        total.alone += counts.alone;
        total.hits += counts.hits;
    }
    assert!(total.sharing > 0 && total.alone > 0 && total.hits > 0, "{total:?}");
}

#[test]
fn min_ii_bound_is_exercised_both_ways() {
    let (mut bounded, mut searched) = (0, 0);
    for w in fixed_workloads() {
        let g = w.graph();
        let specs = w.specs(&g);
        let (b, s) = check_min_ii(&g, &specs, &nonzero_sweep(&g));
        bounded += b;
        searched += s;
    }
    assert!(bounded > 0 && searched > 0, "bounded {bounded}, searched {searched}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_plan_matches_the_reference_over_a_whole_sweep(w in arb_workload()) {
        let g = w.graph();
        let specs = w.specs(&g);
        let plan = ListPlan::compile(&g, &specs).unwrap();
        // BAD's register budget leaves out constants and primary inputs.
        let datapath = |e: &Edge| {
            !matches!(g.node(e.src()).op(), Operation::Const | Operation::Input)
        };
        for alloc in sweep(&g) {
            let got = plan.schedule(&alloc);
            let want = reference_schedule(&g, &specs, &alloc);
            prop_assert_eq!(got.clone().map(|s| times(&g, &s)), want.clone(), "{}", alloc);
            prop_assert_eq!(
                list_schedule(&g, &specs, &alloc).map(|s| times(&g, &s)),
                want,
                "{}",
                alloc
            );
            let Ok(s) = got else { continue };
            prop_assert_eq!(
                max_live_bits_where(&g, &s, datapath).value(),
                reference_max_live(&g, &s, datapath)
            );
            prop_assert_eq!(
                max_live_bits_where(&g, &s, |_| true).value(),
                reference_max_live(&g, &s, |_| true)
            );
            prop_assert_eq!(
                min_initiation_interval(&g, &specs, &s, &alloc),
                reference_min_ii(&g, &specs, &s, &alloc),
                "{}",
                alloc
            );
            for ii in 1..=s.makespan() + 2 {
                prop_assert_eq!(
                    modulo_demand(&g, &specs, &s, ii),
                    reference_modulo_demand(&g, &specs, &s, ii)
                );
                prop_assert_eq!(
                    supports_ii(&g, &specs, &s, &alloc, ii),
                    reference_supports_ii(&g, &specs, &s, &alloc, ii)
                );
            }
        }
    }

    #[test]
    fn a_covering_run_is_the_reference_schedule(w in arb_workload()) {
        let g = w.graph();
        let specs = w.specs(&g);
        let plan = ListPlan::compile(&g, &specs).unwrap();
        check_reuse(&g, &specs, &plan, &nonzero_sweep(&g));
    }

    #[test]
    fn min_ii_matches_the_reference_on_both_sides_of_the_bound(w in arb_workload()) {
        let g = w.graph();
        let specs = w.specs(&g);
        check_min_ii(&g, &specs, &nonzero_sweep(&g));
    }

    #[test]
    fn compile_reports_the_reference_length_error(a in arb_workload(), b in arb_workload()) {
        let g = a.graph();
        let other = b.graph();
        let specs = b.specs(&other);
        let alloc = sweep(&g).pop().expect("sweep is never empty");
        let want = reference_schedule(&g, &specs, &alloc);
        match ListPlan::compile(&g, &specs) {
            Ok(plan) => {
                prop_assert_eq!(g.len(), other.len());
                prop_assert_eq!(plan.schedule(&alloc).map(|s| times(&g, &s)), want);
            }
            Err(e) => {
                prop_assert_eq!(
                    &e,
                    &ScheduleError::SpecLengthMismatch { expected: g.len(), found: other.len() }
                );
                prop_assert_eq!(Err(e), want);
            }
        }
    }
}
