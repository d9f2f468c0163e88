//! System integration's output, pinned: for a matrix of partitionings ×
//! testability disciplines, a deterministic sample of selections ×
//! candidate initiation intervals is evaluated with
//! `IntegrationContext::evaluate`, and the FNV-1a hash of `{:?}` of every
//! result must match `fixtures/integration_golden.txt`.
//!
//! The hash covers every field of every `SystemPrediction` (delay, clock,
//! areas and power to the last bit, transfer modules, violations in
//! order) and every structural error, so a restructured integration step
//! passes only if it is byte-identical to the one that wrote the fixture.
//! The interval sample reaches below the transfer-side minimum and below
//! the pin-time and memory-bandwidth floors, so the early-rejection stubs
//! are pinned alongside the scheduled predictions.
//!
//! On a mismatch the test writes what integration produced to
//! `<target>/tmp/integration_golden.txt` and names the first differing
//! line; a deliberate model change is reviewed by diffing that file
//! against the fixture and copying it over.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

use chop_bad::{ArchitectureStyle, ClockConfig, PredictedDesign, PredictorParams};
use chop_core::experiments::{
    experiment1_session, experiment2_session, Exp1Config, Exp2Config,
};
use chop_core::spec::{MemoryAssignment, PartitioningBuilder};
use chop_core::testability::TestabilityOverhead;
use chop_core::transfer::{chip_of_endpoint, Endpoint};
use chop_core::{
    ChopError, Constraints, FeasibilityCriteria, IntegrationContext, Session, SystemPrediction,
    Violation,
};
use chop_dfg::benchmarks::{random_layered, RandomDfgParams};
use chop_dfg::grouping::Grouping;
use chop_dfg::hash::StableHasher;
use chop_dfg::{DfgBuilder, MemoryRef, Operation};
use chop_library::standard::{
    example_off_shelf_ram, example_on_chip_ram, table1_library, table2_packages,
};
use chop_library::{ChipId, ChipSet};
use chop_stat::units::{Bits, Cycles, Nanos};

const FIXTURE: &str = include_str!("fixtures/integration_golden.txt");

/// Random selections sampled per case, on top of the first-design and
/// smallest-interval selections.
const SAMPLED_SELECTIONS: usize = 24;

fn session(
    partitioning: chop_core::Partitioning,
    multi_cycle: bool,
    constraints_ns: f64,
) -> Session {
    let (multiplier, style) = if multi_cycle {
        (1, ArchitectureStyle::multi_cycle())
    } else {
        (10, ArchitectureStyle::single_cycle())
    };
    Session::new(
        partitioning,
        table1_library(),
        ClockConfig::new(Nanos::new(300.0), multiplier, 1).expect("valid clocks"),
        style,
        PredictorParams::default(),
        Constraints::new(Nanos::new(constraints_ns), Nanos::new(constraints_ns)),
    )
}

/// Eight horizontal partitions of a seeded single-cycle layered spec under
/// 1 ms constraints — the shape a warm service explore integrates.
fn layered(seed: u64, layers: usize, width: usize) -> Session {
    let dfg = random_layered(
        seed,
        RandomDfgParams { layers, width, inputs: 4, mul_percent: 40, bits: 16 },
    );
    let chips = ChipSet::uniform(table2_packages()[1].clone(), 8);
    let p = PartitioningBuilder::new(dfg, chips).split_horizontal(8).build().expect("valid");
    session(p, false, 1e6)
}

/// Two partitions streaming through an on-chip RAM on chip 1 and an
/// off-the-shelf SRAM, so memory-port resources are scheduled.
fn memory_system() -> Session {
    let mut b = DfgBuilder::new();
    let w = Bits::new(16);
    let on_chip = MemoryRef::new(0);
    let external = MemoryRef::new(1);
    let addr = b.node(Operation::Input, w);
    let mut accum = None;
    for i in 0..6 {
        let m = if i % 2 == 0 { on_chip } else { external };
        let r = b.node(Operation::MemRead(m), w);
        b.connect(addr, r).expect("edge");
        let x = match accum {
            Some(prev) => {
                let a = b.node(Operation::Add, w);
                b.connect(prev, a).expect("edge");
                b.connect(r, a).expect("edge");
                a
            }
            None => r,
        };
        let wr = b.node(Operation::MemWrite(if i % 3 == 0 { external } else { on_chip }), w);
        b.connect(addr, wr).expect("edge");
        b.connect(x, wr).expect("edge");
        accum = Some(x);
    }
    let o = b.node(Operation::Output, w);
    b.connect(accum.expect("six reads"), o).expect("edge");
    let dfg = b.build().expect("valid graph");
    let chips = ChipSet::uniform(table2_packages()[1].clone(), 2);
    let p = PartitioningBuilder::new(dfg, chips)
        .split_horizontal(2)
        .with_memory(example_on_chip_ram(), MemoryAssignment::OnChip(ChipId::new(1)))
        .with_memory(example_off_shelf_ram(), MemoryAssignment::External)
        .build()
        .expect("valid");
    session(p, true, 30_000.0)
}

/// Three partitions whose transfers form a cycle A → B → C → A although no
/// two partitions depend on each other both ways: the builder accepts it
/// and scheduling fails structurally.
fn cyclic() -> Session {
    let mut b = DfgBuilder::new();
    let w = Bits::new(16);
    let mut assignment = Vec::new();
    let mut node = |b: &mut DfgBuilder, op, group| {
        assignment.push(group);
        b.node(op, w)
    };
    let mut chain = |b: &mut DfgBuilder, from: usize, to: usize| {
        let x = node(b, Operation::Input, from);
        let y = node(b, Operation::Input, from);
        let s = node(b, Operation::Add, from);
        let t = node(b, Operation::Add, to);
        let o = node(b, Operation::Output, to);
        for (src, dst) in [(x, s), (y, s), (s, t), (x, t), (t, o)] {
            b.connect(src, dst).expect("edge");
        }
    };
    chain(&mut b, 0, 1);
    chain(&mut b, 1, 2);
    chain(&mut b, 2, 0);
    let dfg = b.build().expect("valid graph");
    let grouping = Grouping::new(&dfg, 3, assignment).expect("valid grouping");
    let chips = ChipSet::uniform(table2_packages()[1].clone(), 3);
    let p =
        PartitioningBuilder::new(dfg, chips).with_grouping(grouping).build().expect("valid");
    session(p, false, 30_000.0)
}

fn cases() -> Vec<(String, Session)> {
    let mut cases = Vec::new();
    for partitions in 1..=3 {
        for package in 0..=1 {
            let config = Exp1Config { partitions, package };
            cases.push((
                format!("exp1-k{partitions}-p{package}"),
                experiment1_session(&config).expect("valid"),
            ));
            let config = Exp2Config { partitions, package };
            cases.push((
                format!("exp2-k{partitions}-p{package}"),
                experiment2_session(&config).expect("valid"),
            ));
        }
    }
    cases.push(("layered1991-k8".to_owned(), layered(1991, 12, 8)));
    cases.push(("layered2024-k8".to_owned(), layered(2024, 8, 10)));
    cases.push(("memory-k2".to_owned(), memory_system()));
    cases.push(("cyclic-k3".to_owned(), cyclic()));
    cases
}

/// SplitMix64: a tiny deterministic stream for the selection sample.
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

fn selections(lists: &[Arc<[PredictedDesign]>], seed: u64) -> Vec<Vec<&PredictedDesign>> {
    let mut out: Vec<Vec<&PredictedDesign>> = vec![
        lists.iter().map(|l| &l[0]).collect(),
        lists
            .iter()
            .map(|l| l.iter().min_by_key(|d| d.initiation_interval()).expect("non-empty"))
            .collect(),
    ];
    let mut rng = SplitMix(seed);
    for _ in 0..SAMPLED_SELECTIONS {
        out.push(lists.iter().map(|l| &l[rng.below(l.len())]).collect());
    }
    out
}

/// The pin-time and memory-busy floors of the deterministic integration
/// checks, read off a scheduled prediction's transfer modules.
fn floors(ctx: &IntegrationContext<'_>, scheduled: &SystemPrediction) -> (u64, u64) {
    let p = ctx.partitioning();
    let mut pin_floor = 1;
    for (chip, _) in p.chips().iter() {
        let pin_time: u64 = scheduled
            .transfer_modules
            .iter()
            .filter(|tm| {
                tm.pins > 0
                    && (chip_of_endpoint(p, tm.spec.src) == Some(chip)
                        || chip_of_endpoint(p, tm.spec.dst) == Some(chip))
            })
            .map(|tm| tm.duration.value() * u64::from(tm.pins))
            .sum();
        let pins = u64::from(ctx.budgets()[chip.index()].data).max(1);
        pin_floor = pin_floor.max(pin_time.div_ceil(pins));
    }
    let mut memory_floor = 1;
    for mi in 0..p.memories().len() {
        let busy: u64 = scheduled
            .transfer_modules
            .iter()
            .filter(|tm| {
                [tm.spec.src, tm.spec.dst]
                    .iter()
                    .any(|e| matches!(e, Endpoint::Memory(m) if m.index() == mi))
            })
            .map(|tm| tm.duration.value())
            .sum();
        memory_floor = memory_floor.max(busy);
    }
    (pin_floor, memory_floor)
}

/// Candidate intervals for one selection: around the transfer-side
/// minimum, the selection's own requirement, both deterministic floors
/// and the performance constraint, plus two generous ones.
fn candidate_intervals(
    ctx: &IntegrationContext<'_>,
    selection: &[&PredictedDesign],
    (pin_floor, memory_floor): (u64, u64),
    main_cycle_ns: f64,
) -> BTreeSet<u64> {
    let min_transfer = ctx.min_transfer_ii().value();
    let need = selection.iter().map(|d| d.initiation_interval().value()).max().unwrap_or(1);
    let perf = (ctx.constraints().performance().value() / main_cycle_ns) as u64;
    let mut out = BTreeSet::new();
    for anchor in [min_transfer, need, pin_floor, memory_floor, perf] {
        out.extend([anchor.saturating_sub(1), anchor, anchor + 1]);
    }
    let top = min_transfer.max(need).max(pin_floor).max(memory_floor);
    out.extend([1, min_transfer / 2, 2 * top, 1 << 20]);
    out.remove(&0);
    out
}

#[derive(Default)]
struct Coverage {
    violations: BTreeSet<&'static str>,
    feasible: usize,
    scheduled: usize,
    errors: usize,
}

impl Coverage {
    fn record(&mut self, result: &Result<SystemPrediction, ChopError>) {
        let Ok(s) = result else {
            self.errors += 1;
            return;
        };
        self.feasible += usize::from(s.verdict.feasible);
        self.scheduled += usize::from(!s.transfer_modules.is_empty());
        for v in &s.verdict.violations {
            self.violations.insert(match v {
                Violation::ChipArea { .. } => "ChipArea",
                Violation::Performance { .. } => "Performance",
                Violation::Delay { .. } => "Delay",
                Violation::DataClash { .. } => "DataClash",
                Violation::DataRateMismatch => "DataRateMismatch",
                Violation::PinsExhausted { .. } => "PinsExhausted",
                Violation::PinBandwidth { .. } => "PinBandwidth",
                Violation::MemoryBandwidth { .. } => "MemoryBandwidth",
                _ => "other",
            });
        }
    }
}

fn render(coverage: &mut Coverage) -> String {
    let testabilities = [
        ("none", TestabilityOverhead::none()),
        ("partial", TestabilityOverhead::partial_scan()),
        ("full", TestabilityOverhead::full_scan()),
        // Scan pins that leave no chip a data pin: every off-chip
        // transfer is pins-exhausted.
        (
            "no-data-pins",
            TestabilityOverhead { scan_pins: 1 << 16, ..TestabilityOverhead::none() },
        ),
    ];
    let mut out = String::new();
    for (case_index, (name, session)) in cases().into_iter().enumerate() {
        let (lists, _) = session.predict_partitions().expect("predictable");
        let main_cycle_ns = session.clocks().main_cycle().value();
        let sample = selections(&lists, 0x1991 + case_index as u64);
        for (testability_name, testability) in testabilities {
            if testability_name == "no-data-pins" && name != "exp1-k2-p1" {
                continue;
            }
            let ctx = IntegrationContext::new(
                session.partitioning(),
                session.library(),
                *session.clocks(),
                PredictorParams::default(),
                FeasibilityCriteria::paper_defaults(),
                *session.constraints(),
            )
            .with_testability(testability);
            let scheduled = sample
                .iter()
                .filter_map(|sel| ctx.evaluate(sel, Cycles::new(1 << 20)).ok())
                .find(|s| !s.transfer_modules.is_empty());
            let floors = scheduled.as_ref().map_or((1, 1), |s| floors(&ctx, s));
            let mut hasher = StableHasher::new();
            let mut evaluations = 0usize;
            for selection in &sample {
                for ii in candidate_intervals(&ctx, selection, floors, main_cycle_ns) {
                    let result = ctx.evaluate(selection, Cycles::new(ii));
                    coverage.record(&result);
                    hasher.write(format!("{result:?}").as_bytes());
                    evaluations += 1;
                }
            }
            let _ = writeln!(
                out,
                "{name} {testability_name} evaluations={evaluations} fnv={:016x}",
                hasher.finish()
            );
        }
    }
    out
}

#[test]
fn integration_matches_the_golden_fixture() {
    let mut coverage = Coverage::default();
    let actual = render(&mut coverage);
    for kind in ["DataClash", "PinBandwidth", "MemoryBandwidth", "PinsExhausted", "Performance"]
    {
        assert!(coverage.violations.contains(kind), "no sampled evaluation raised {kind}");
    }
    assert!(coverage.feasible > 0, "no sampled evaluation is feasible");
    assert!(coverage.scheduled > coverage.feasible, "no scheduled evaluation is infeasible");
    assert!(coverage.errors > 0, "no sampled evaluation failed structurally");
    if actual == FIXTURE {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("integration_golden.txt");
    std::fs::write(&dump, &actual).expect("write the actual integration results");
    let first = actual
        .lines()
        .zip(FIXTURE.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
    panic!(
        "integration results changed at fixture line {}:\n  fixture: {:?}\n  actual:  {:?}\n\
         full output written to {}",
        first + 1,
        FIXTURE.lines().nth(first),
        actual.lines().nth(first),
        dump.display()
    );
}
