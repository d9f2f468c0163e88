//! Property-based tests of the scheduling substrate over random graphs.

use chop_dfg::benchmarks::{random_layered, RandomDfgParams};
use chop_dfg::OpClass;
use chop_sched::lifetime::{max_live_bits, max_live_bits_pipelined};
use chop_sched::pipeline::{min_initiation_interval, supports_ii};
use chop_sched::{alap_times, asap_times, list_schedule, NodeSpec, ResourceMap};
use proptest::prelude::*;

fn arb_workload() -> impl Strategy<Value = (u64, RandomDfgParams)> {
    (any::<u64>(), 1usize..6, 1usize..7, 1usize..4, 0u32..100).prop_map(
        |(seed, layers, width, inputs, mul_percent)| {
            (seed, RandomDfgParams { layers, width, inputs, mul_percent, bits: 16 })
        },
    )
}

fn arb_alloc() -> impl Strategy<Value = ResourceMap> {
    (1usize..5, 1usize..5).prop_map(|(a, m)| {
        [(OpClass::Addition, a), (OpClass::Multiplication, m)].into_iter().collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn list_schedule_respects_precedence_and_resources(
        (seed, params) in arb_workload(),
        alloc in arb_alloc(),
        dur in 1u64..4,
    ) {
        let g = random_layered(seed, params);
        let specs = NodeSpec::uniform(&g, dur);
        let s = list_schedule(&g, &specs, &alloc).unwrap();
        for (_, e) in g.edges() {
            prop_assert!(s.finish(e.src()) <= s.start(e.dst()));
        }
        for t in 0..s.makespan() {
            for (class, limit) in alloc.iter() {
                let used = g
                    .node_ids()
                    .filter(|&id| {
                        specs.resource(id) == Some(class)
                            && s.start(id) <= t
                            && t < s.finish(id)
                    })
                    .count();
                prop_assert!(used <= limit);
            }
        }
    }

    #[test]
    fn makespan_bounded_by_asap_and_serial(
        (seed, params) in arb_workload(),
        alloc in arb_alloc(),
    ) {
        let g = random_layered(seed, params);
        let specs = NodeSpec::uniform(&g, 1);
        let s = list_schedule(&g, &specs, &alloc).unwrap();
        let asap = asap_times(&g, &specs);
        let critical = g
            .node_ids()
            .map(|id| asap[id.index()] + specs.duration(id))
            .max()
            .unwrap_or(0);
        let serial: u64 = g.node_ids().map(|id| specs.duration(id)).sum();
        prop_assert!(s.makespan() >= critical);
        prop_assert!(s.makespan() <= serial.max(1));
    }

    #[test]
    fn alap_never_precedes_asap((seed, params) in arb_workload(), dur in 1u64..4) {
        let g = random_layered(seed, params);
        let specs = NodeSpec::uniform(&g, dur);
        let asap = asap_times(&g, &specs);
        let alap = alap_times(&g, &specs);
        for i in 0..g.len() {
            prop_assert!(asap[i] <= alap[i]);
        }
    }

    #[test]
    fn min_ii_is_supported_and_tight(
        (seed, params) in arb_workload(),
        alloc in arb_alloc(),
    ) {
        let g = random_layered(seed, params);
        let specs = NodeSpec::uniform(&g, 1);
        let s = list_schedule(&g, &specs, &alloc).unwrap();
        let ii = min_initiation_interval(&g, &specs, &s, &alloc);
        prop_assert!(supports_ii(&g, &specs, &s, &alloc, ii));
        if ii > 1 {
            prop_assert!(!supports_ii(&g, &specs, &s, &alloc, ii - 1));
        }
    }

    #[test]
    fn pipelined_registers_dominate_flat(
        (seed, params) in arb_workload(),
        alloc in arb_alloc(),
        ii in 1u64..8,
    ) {
        let g = random_layered(seed, params);
        let specs = NodeSpec::uniform(&g, 1);
        let s = list_schedule(&g, &specs, &alloc).unwrap();
        let flat = max_live_bits(&g, &s);
        let folded = max_live_bits_pipelined(&g, &s, ii);
        prop_assert!(folded.value() >= flat.value() || ii >= s.makespan().max(1));
    }
}
