//! Property-based tests for the DFG substrate.

use std::collections::HashMap;

use chop_dfg::benchmarks::{random_layered, RandomDfgParams};
use chop_dfg::eval::{evaluate, Memory};
use chop_dfg::grouping::{
    cut_values, extract_group, extract_group_detailed, GroupOrigin, Grouping, GroupingError,
};
use chop_dfg::parse::{parse_dfg, to_text};
use chop_dfg::{analysis, Dfg, DfgBuilder, NodeId, OpClass, Operation};
use chop_stat::units::Bits;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = (u64, RandomDfgParams)> {
    (any::<u64>(), 1usize..6, 1usize..8, 1usize..5, 0u32..100).prop_map(
        |(seed, layers, width, inputs, mul_percent)| {
            (seed, RandomDfgParams { layers, width, inputs, mul_percent, bits: 16 })
        },
    )
}

/// SplitMix64, for drawing a whole graph and grouping from one seed.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// An arbitrary DAG on `n` nodes (edges only from lower to higher ids,
/// each present with probability `density`/100) and a grouping of it into
/// `k` non-empty groups. `mode` 0 assigns groups at random; mode 1 slices
/// the topological order into `k` bands (never mutually dependent); mode 2
/// slices and then moves a few nodes at random (sometimes dependent).
fn arb_grouped_dag(
    seed: u64,
    n: usize,
    k: usize,
    density: usize,
    mode: usize,
) -> (Dfg, Grouping) {
    let mut rng = SplitMix(seed);
    let mut b = DfgBuilder::new();
    let ids: Vec<NodeId> = (0..n).map(|_| b.node(Operation::Add, Bits::new(8))).collect();
    for j in 1..n {
        for i in 0..j {
            if rng.below(100) < density {
                b.connect(ids[i], ids[j]).expect("ids are valid");
            }
        }
    }
    let dfg = b.build().expect("edges run forward, so the graph is acyclic");
    let k = k.clamp(1, n);
    let mut assignment = vec![0; n];
    for (pos, id) in dfg.topo_order().iter().enumerate() {
        assignment[id.index()] = pos * k / n;
    }
    match mode {
        0 => {
            // Nodes 0..k seed every group; the rest land anywhere.
            for (i, g) in assignment.iter_mut().enumerate() {
                *g = if i < k { i } else { rng.below(k) };
            }
        }
        1 => {}
        _ => {
            for _ in 0..3 {
                let node = rng.below(n);
                let group = rng.below(k);
                let before = assignment[node];
                assignment[node] = group;
                if !assignment.contains(&before) {
                    assignment[node] = before;
                }
            }
        }
    }
    let grouping = Grouping::new(&dfg, k, assignment).expect("every group is seeded");
    (dfg, grouping)
}

/// The pairwise definition: the first `(a, b)`, `a < b`, whose members
/// reach each other's.
fn pairwise_mutual_dependency(dfg: &Dfg, grouping: &Grouping) -> Result<(), GroupingError> {
    let k = grouping.group_count();
    let members: Vec<Vec<NodeId>> = (0..k).map(|g| grouping.members(g)).collect();
    for a in 0..k {
        for b in (a + 1)..k {
            if analysis::group_reaches(dfg, &members[a], &members[b])
                && analysis::group_reaches(dfg, &members[b], &members[a])
            {
                return Err(GroupingError::MutualDependency(a, b));
            }
        }
    }
    Ok(())
}

/// The generator reaches every outcome the property must compare,
/// including mutually dependent groups past the first 64-bit word.
#[test]
fn grouped_dags_cover_multi_word_outcomes() {
    let (mut ok_wide, mut err_wide) = (0, 0);
    for seed in 0..48u64 {
        let (dfg, grouping) = arb_grouped_dag(seed, 180, 130, 3, (seed % 3) as usize);
        let result = grouping.check_no_mutual_dependency(&dfg);
        assert_eq!(result, pairwise_mutual_dependency(&dfg, &grouping), "seed {seed}");
        match result {
            Ok(()) => ok_wide += 1,
            Err(GroupingError::MutualDependency(_, b)) if b >= 64 => err_wide += 1,
            Err(_) => {}
        }
    }
    assert!(ok_wide > 0 && err_wide > 0, "ok {ok_wide}, wide errors {err_wide}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutual_dependency_check_matches_the_pairwise_definition(
        seed in any::<u64>(),
        n in 1usize..200,
        k in 1usize..160,
        density in 0usize..12,
        mode in 0usize..3,
    ) {
        let (dfg, grouping) = arb_grouped_dag(seed, n, k, density, mode);
        prop_assert_eq!(
            grouping.check_no_mutual_dependency(&dfg),
            pairwise_mutual_dependency(&dfg, &grouping)
        );
    }

    #[test]
    fn random_graphs_validate((seed, params) in arb_params()) {
        let g = random_layered(seed, params);
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn topo_order_is_a_permutation((seed, params) in arb_params()) {
        let g = random_layered(seed, params);
        let mut seen = vec![false; g.len()];
        for id in g.topo_order() {
            prop_assert!(!seen[id.index()]);
            seen[id.index()] = true;
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn asap_levels_monotone_along_edges((seed, params) in arb_params()) {
        let g = random_layered(seed, params);
        let lev = analysis::asap_levels(&g);
        for (_, e) in g.edges() {
            prop_assert!(lev[e.src().index()] < lev[e.dst().index()]);
        }
    }

    #[test]
    fn horizontal_grouping_covers_and_is_forward(
        (seed, params) in arb_params(),
        k in 1usize..4,
    ) {
        let g = random_layered(seed, params);
        let k = k.min(g.len());
        let parts = Grouping::horizontal(&g, k);
        // Every node in exactly one group.
        let total: usize = (0..k).map(|i| parts.members(i).len()).sum();
        prop_assert_eq!(total, g.len());
        // Topological slicing never sends data backwards.
        for c in cut_values(&g, &parts) {
            prop_assert!(c.src_group < c.dst_group);
        }
        prop_assert!(parts.check_no_mutual_dependency(&g).is_ok());
    }

    #[test]
    fn extracted_groups_conserve_fu_operations(
        (seed, params) in arb_params(),
        k in 1usize..4,
    ) {
        let g = random_layered(seed, params);
        let k = k.min(g.len());
        let parts = Grouping::horizontal(&g, k);
        let full = g.op_histogram();
        let mut by_class = [0usize; 6];
        for group in 0..k {
            let sub = extract_group(&g, &parts, group);
            prop_assert!(sub.validate().is_ok());
            let h = sub.op_histogram();
            for (i, class) in OpClass::ALL.into_iter().enumerate() {
                by_class[i] += h.count_class(class);
            }
        }
        // Functional-unit operations are conserved across extraction —
        // only I/O nodes are synthesized at the cuts.
        for (i, class) in OpClass::ALL.into_iter().enumerate() {
            prop_assert_eq!(by_class[i], full.count_class(class));
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_text(text in ".{0,200}") {
        // Errors are fine; panics are not.
        let _ = parse_dfg(&text);
    }

    #[test]
    fn parser_never_panics_on_plausible_lines(
        lines in proptest::collection::vec("[a-z]{1,4} = [a-z]{1,6}( [a-zA-Z0-9]{1,4}){0,3}", 0..12),
    ) {
        let _ = parse_dfg(&lines.join("\n"));
    }

    #[test]
    fn text_format_round_trips((seed, params) in arb_params()) {
        let g = random_layered(seed, params);
        let text = to_text(&g);
        let back = parse_dfg(&text).expect("writer output must re-parse");
        prop_assert_eq!(back.len(), g.len());
        prop_assert_eq!(back.edges().count(), g.edges().count());
        prop_assert_eq!(back.op_histogram(), g.op_histogram());
        // Idempotence up to line order (node ids permute under re-parse).
        let sorted = |t: &str| {
            let mut v: Vec<&str> = t.lines().collect();
            v.sort_unstable();
            v.join("\n")
        };
        prop_assert_eq!(sorted(&to_text(&back)), sorted(&text));
    }

    #[test]
    fn partitioned_execution_is_equivalent(
        (seed, params) in arb_params(),
        k in 1usize..4,
        input_seed in any::<u64>(),
    ) {
        // Executing each partition independently, wiring cut values
        // across, must reproduce the whole graph's outputs exactly — the
        // semantic soundness of extract_group, which everything CHOP
        // predicts rests on.
        let g = random_layered(seed, params);
        let k = k.min(g.len());
        let grouping = Grouping::horizontal(&g, k);

        // Deterministic pseudo-random input/const streams.
        let stim = |i: u64| input_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i * 1_000_003);
        let input_vals: HashMap<NodeId, u64> = g
            .inputs()
            .enumerate()
            .map(|(i, id)| (id, stim(i as u64)))
            .collect();
        let whole_inputs: Vec<u64> = g.inputs().map(|id| input_vals[&id]).collect();
        let mut mem = Memory::new(8);
        let whole = evaluate(&g, &whole_inputs, &[], &mut mem).unwrap();

        // Partitioned execution: groups in index order (horizontal cuts
        // are forward-only, so producers always run first).
        let mut cross: HashMap<NodeId, u64> = HashMap::new();
        let mut final_outputs: HashMap<NodeId, u64> = HashMap::new();
        for group in 0..k {
            let ex = extract_group_detailed(&g, &grouping, group);
            let sub_inputs: Vec<u64> = ex
                .dfg
                .inputs()
                .map(|sid| match ex.origin[sid.index()] {
                    GroupOrigin::Original(orig) => input_vals[&orig],
                    GroupOrigin::CutInput { source } => cross[&source],
                    GroupOrigin::CutOutput { .. } => unreachable!("input cannot be cut output"),
                })
                .collect();
            let mut sub_mem = Memory::new(8);
            let out = evaluate(&ex.dfg, &sub_inputs, &[], &mut sub_mem).unwrap();
            for (value, sid) in out.into_iter().zip(ex.dfg.outputs()) {
                match ex.origin[sid.index()] {
                    GroupOrigin::Original(orig) => {
                        final_outputs.insert(orig, value);
                    }
                    GroupOrigin::CutOutput { source } => {
                        cross.insert(source, value);
                    }
                    GroupOrigin::CutInput { .. } => unreachable!("output cannot be cut input"),
                }
            }
        }
        let partitioned: Vec<u64> = g.outputs().map(|id| final_outputs[&id]).collect();
        prop_assert_eq!(partitioned, whole);
        // random_layered has no constants or memory ops, so streams align.
        prop_assert_eq!(
            g.nodes().filter(|(_, n)| n.op() == Operation::Const).count(),
            0
        );
    }

    #[test]
    fn partitioned_execution_equivalent_with_constants(k in 1usize..5) {
        // Deterministic workload with constant nodes: the DCT-8. Verifies
        // the const-stream mapping of extract_group_detailed.
        let g = chop_dfg::benchmarks::dct8();
        let k = k.min(g.len());
        let grouping = Grouping::horizontal(&g, k);
        let input_vals: HashMap<NodeId, u64> =
            g.inputs().enumerate().map(|(i, id)| (id, (i as u64) * 31 + 5)).collect();
        let const_vals: HashMap<NodeId, u64> = g
            .nodes()
            .filter(|(_, n)| n.op() == Operation::Const)
            .enumerate()
            .map(|(i, (id, _))| (id, (i as u64) * 7 + 2))
            .collect();
        let whole_inputs: Vec<u64> = g.inputs().map(|id| input_vals[&id]).collect();
        let whole_consts: Vec<u64> = g
            .nodes()
            .filter(|(_, n)| n.op() == Operation::Const)
            .map(|(id, _)| const_vals[&id])
            .collect();
        let mut mem = Memory::new(4);
        let whole = evaluate(&g, &whole_inputs, &whole_consts, &mut mem).unwrap();

        let mut cross: HashMap<NodeId, u64> = HashMap::new();
        let mut final_outputs: HashMap<NodeId, u64> = HashMap::new();
        for group in 0..k {
            let ex = extract_group_detailed(&g, &grouping, group);
            let sub_inputs: Vec<u64> = ex
                .dfg
                .inputs()
                .map(|sid| match ex.origin[sid.index()] {
                    GroupOrigin::Original(orig) => input_vals[&orig],
                    GroupOrigin::CutInput { source } => cross[&source],
                    GroupOrigin::CutOutput { .. } => unreachable!(),
                })
                .collect();
            let sub_consts: Vec<u64> = ex
                .dfg
                .nodes()
                .filter(|(_, n)| n.op() == Operation::Const)
                .map(|(sid, _)| match ex.origin[sid.index()] {
                    GroupOrigin::Original(orig) => const_vals[&orig],
                    _ => unreachable!("constants are never synthesized"),
                })
                .collect();
            let mut sub_mem = Memory::new(4);
            let out = evaluate(&ex.dfg, &sub_inputs, &sub_consts, &mut sub_mem).unwrap();
            for (value, sid) in out.into_iter().zip(ex.dfg.outputs()) {
                match ex.origin[sid.index()] {
                    GroupOrigin::Original(orig) => {
                        final_outputs.insert(orig, value);
                    }
                    GroupOrigin::CutOutput { source } => {
                        cross.insert(source, value);
                    }
                    GroupOrigin::CutInput { .. } => unreachable!(),
                }
            }
        }
        let partitioned: Vec<u64> = g.outputs().map(|id| final_outputs[&id]).collect();
        prop_assert_eq!(partitioned, whole);
    }

    #[test]
    fn merging_two_groups_never_increases_cut_bits(
        (seed, params) in arb_params(),
    ) {
        let g = random_layered(seed, params);
        if g.len() < 3 {
            return Ok(());
        }
        let three = Grouping::horizontal(&g, 3.min(g.len()));
        if three.group_count() < 3 {
            return Ok(());
        }
        // Merge groups 1 and 2 of the SAME grouping: a true coarsening.
        let merged_assignment: Vec<usize> = g
            .node_ids()
            .map(|id| three.group_of(id).min(1))
            .collect();
        let merged = Grouping::new(&g, 2, merged_assignment).unwrap();
        let bits = |cuts: &[chop_dfg::grouping::CutValue]| -> u64 {
            cuts.iter().map(|c| c.bits.value()).sum()
        };
        prop_assert!(bits(&cut_values(&g, &merged)) <= bits(&cut_values(&g, &three)));
    }
}
