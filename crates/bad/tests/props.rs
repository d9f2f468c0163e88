//! Property-based tests of the BAD predictor over random workloads.

use std::collections::BTreeMap;

use chop_bad::prune::{pareto_filter, prune};
use chop_bad::{
    AllocationSweep, ArchitectureStyle, ClockConfig, DesignStyle, PartitionEnvelope,
    PredictedDesign, Predictor, PredictorParams,
};
use chop_dfg::benchmarks::{random_layered, RandomDfgParams};
use chop_dfg::{Dfg, OpClass};
use chop_library::standard::table1_library;
use chop_library::ModuleSet;
use chop_sched::{ListPlan, NodeSpec};
use chop_stat::units::{Nanos, SquareMils};
use chop_stat::FeasibilityThreshold;
use proptest::prelude::*;

fn arb_workload() -> impl Strategy<Value = (u64, RandomDfgParams)> {
    (any::<u64>(), 1usize..5, 1usize..6, 1usize..4, 0u32..100).prop_map(
        |(seed, layers, width, inputs, mul_percent)| {
            (seed, RandomDfgParams { layers, width, inputs, mul_percent, bits: 16 })
        },
    )
}

fn predictor(multi_cycle: bool) -> (Predictor, ClockConfig) {
    let clocks = if multi_cycle {
        ClockConfig::new(Nanos::new(300.0), 1, 1).unwrap()
    } else {
        ClockConfig::new(Nanos::new(300.0), 10, 1).unwrap()
    };
    let style = if multi_cycle {
        ArchitectureStyle::multi_cycle()
    } else {
        ArchitectureStyle::single_cycle()
    };
    (Predictor::new(table1_library(), clocks, style, PredictorParams::default()), clocks)
}

/// Whether a design's identity reproduces its schedule: its module set
/// covers exactly its allocation's classes, and list-scheduling the
/// partition with that allocation and those modules' cycle counts gives
/// its stage count. A design carrying another candidate's module set or
/// allocation, or none, fails this.
fn identity_reproduces_schedule(
    dfg: &Dfg,
    p: &Predictor,
    clocks: &ClockConfig,
    multi_cycle: bool,
    d: &PredictedDesign,
) -> bool {
    let classes: Vec<OpClass> = d.allocation().iter().map(|(class, _)| class).collect();
    if classes != d.module_set().iter().map(|(class, _)| class).collect::<Vec<_>>() {
        return false;
    }
    let cycles = |class| {
        let module = d.module_set().module_for(p.library(), class).expect("library module");
        if multi_cycle {
            clocks.datapath_cycles_for(module.delay())
        } else {
            1
        }
    };
    let specs = NodeSpec::from_fn(
        dfg,
        |id| match dfg.node(id).op() {
            op if op.is_memory_access() => 1,
            op => op.class().map_or(0, cycles),
        },
        |id| dfg.node(id).op().class(),
    );
    let schedule = ListPlan::compile(dfg, &specs).unwrap().schedule(d.allocation()).unwrap();
    schedule.makespan().max(1) == d.detail().stages
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The fused path prunes bare candidates and fills in the survivors;
    // it must return exactly what pruning the full list returns, for
    // envelopes that cut through the designs' own area range.
    #[test]
    fn sweep_prune_equals_prune_of_predict(
        (seed, params) in arb_workload(),
        multi_cycle in any::<bool>(),
        powers_of_two in any::<bool>(),
        area_percent in 0u32..101,
        time in 3_000.0f64..120_000.0,
        threshold_percents in (50u32..101, 50u32..101, 50u32..101),
    ) {
        let dfg = random_layered(seed, params);
        let (p, clocks) = predictor(multi_cycle);
        let sweep = if powers_of_two {
            AllocationSweep::PowersOfTwo
        } else {
            AllocationSweep::Exhaustive
        };
        let p = Predictor::new(
            p.library().clone(),
            clocks,
            *p.style(),
            PredictorParams { allocation_sweep: sweep, ..PredictorParams::default() },
        );
        let designs = p.predict(&dfg).unwrap();
        prop_assert_eq!(&p.sweep(&dfg).unwrap().into_designs(), &designs);
        for d in &designs {
            prop_assert!(identity_reproduces_schedule(&dfg, &p, &clocks, multi_cycle, d));
        }

        let areas = designs.iter().map(|d| d.area().likely());
        let lo = areas.clone().fold(f64::INFINITY, f64::min);
        let hi = areas.fold(f64::NEG_INFINITY, f64::max);
        let threshold = |percent: u32| FeasibilityThreshold::new(f64::from(percent) / 100.0);
        let (area_p, performance_p, delay_p) = threshold_percents;
        let envelope = PartitionEnvelope::new(
            SquareMils::new(lo + f64::from(area_percent) / 100.0 * (hi - lo)),
            Nanos::new(time),
            Nanos::new(time),
        )
        .with_thresholds(threshold(area_p), threshold(performance_p), threshold(delay_p));
        let fused = p.sweep(&dfg).unwrap().prune(&envelope, &clocks);
        let (kept, stats) = prune(designs, &envelope, &clocks);
        prop_assert_eq!(&fused.1, &stats);
        prop_assert_eq!(&fused.0, &kept);
    }

    #[test]
    fn predictions_are_internally_consistent(
        (seed, params) in arb_workload(),
        multi_cycle in any::<bool>(),
    ) {
        let dfg = random_layered(seed, params);
        let (p, _) = predictor(multi_cycle);
        let designs = p.predict(&dfg).unwrap();
        prop_assert!(!designs.is_empty());
        for d in &designs {
            prop_assert!(d.initiation_interval().value() >= 1);
            prop_assert!(d.initiation_interval() <= d.latency());
            prop_assert!(d.area().lo() <= d.area().likely());
            prop_assert!(d.area().likely() <= d.area().hi());
            prop_assert!(d.area().likely() > 0.0);
            prop_assert!(d.power().likely() >= 0.0);
            prop_assert!(d.clock_overhead().likely() >= 0.0);
        }
    }

    #[test]
    fn prediction_is_deterministic((seed, params) in arb_workload()) {
        let dfg = random_layered(seed, params);
        let (p, _) = predictor(true);
        let a = p.predict(&dfg).unwrap();
        let b = p.predict(&dfg).unwrap();
        prop_assert_eq!(a, b);
    }

    // The invariant behind scheduling each duration vector once per call:
    // module sets whose modules take the same cycles per class get the
    // same schedule points, allocation by allocation.
    #[test]
    fn designs_sharing_a_duration_vector_share_their_schedules(
        (seed, params) in arb_workload(),
        multi_cycle in any::<bool>(),
    ) {
        let dfg = random_layered(seed, params);
        let (p, clocks) = predictor(multi_cycle);
        let designs = p.predict(&dfg).unwrap();
        type Point = (DesignStyle, u64, u64, u64, u64);
        type Key = (Vec<u64>, Vec<(OpClass, usize)>);
        // (duration vector, allocation) -> the points of each module set,
        // in emission order.
        let mut groups: BTreeMap<Key, Vec<(&ModuleSet, Vec<Point>)>> = BTreeMap::new();
        for d in &designs {
            let allocation: Vec<(OpClass, usize)> = d.allocation().iter().collect();
            let durations = allocation
                .iter()
                .map(|&(class, _)| {
                    let module = d.module_set().module_for(p.library(), class).unwrap();
                    if multi_cycle { clocks.datapath_cycles_for(module.delay()) } else { 1 }
                })
                .collect();
            let point = (
                d.style(),
                d.detail().stages,
                d.initiation_interval().value(),
                d.latency().value(),
                d.detail().register_bits.value(),
            );
            let sets = groups.entry((durations, allocation)).or_default();
            match sets.last_mut() {
                Some((set, points)) if *set == d.module_set() => points.push(point),
                _ => sets.push((d.module_set(), vec![point])),
            }
        }
        for sets in groups.values() {
            for (_, points) in &sets[1..] {
                prop_assert_eq!(points, &sets[0].1);
            }
        }
    }

    #[test]
    fn pruning_is_monotone_in_constraints(
        (seed, params) in arb_workload(),
        area in 20_000.0f64..120_000.0,
        time in 5_000.0f64..80_000.0,
    ) {
        let dfg = random_layered(seed, params);
        let (p, clocks) = predictor(true);
        let designs = p.predict(&dfg).unwrap();
        let loose = PartitionEnvelope::new(
            SquareMils::new(area * 2.0),
            Nanos::new(time * 2.0),
            Nanos::new(time * 2.0),
        );
        let tight = PartitionEnvelope::new(
            SquareMils::new(area),
            Nanos::new(time),
            Nanos::new(time),
        );
        let (_, s_loose) = prune(designs.clone(), &loose, &clocks);
        let (_, s_tight) = prune(designs, &tight, &clocks);
        prop_assert!(s_tight.feasible <= s_loose.feasible);
        prop_assert_eq!(s_tight.total, s_loose.total);
    }

    #[test]
    fn pareto_filter_is_idempotent_and_minimal((seed, params) in arb_workload()) {
        let dfg = random_layered(seed, params);
        let (p, _) = predictor(true);
        let designs = p.predict(&dfg).unwrap();
        let once = pareto_filter(designs);
        let twice = pareto_filter(once.clone());
        prop_assert_eq!(once.len(), twice.len());
        for i in 0..once.len() {
            for j in 0..once.len() {
                if i != j {
                    prop_assert!(!once[i].dominates(&once[j]));
                }
            }
        }
    }

    #[test]
    fn single_cycle_latencies_are_main_clock_multiples(
        (seed, params) in arb_workload(),
    ) {
        let dfg = random_layered(seed, params);
        let (p, clocks) = predictor(false);
        let designs = p.predict(&dfg).unwrap();
        let dpm = u64::from(clocks.datapath_multiplier());
        for d in &designs {
            prop_assert_eq!(d.initiation_interval().value() % dpm, 0);
            prop_assert_eq!(d.latency().value() % dpm, 0);
        }
    }

    #[test]
    fn guideline_renders_for_every_design((seed, params) in arb_workload()) {
        let dfg = random_layered(seed, params);
        let lib = table1_library();
        let (p, _) = predictor(true);
        for d in p.predict(&dfg).unwrap().iter().take(8) {
            let text = d.guideline(&lib);
            prop_assert!(text.contains("design style"));
            prop_assert!(!text.is_empty());
        }
    }
}
