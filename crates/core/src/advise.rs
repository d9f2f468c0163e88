//! System-level advising: automated what-if sweeps over the modification
//! axes of §2.7.
//!
//! The paper positions CHOP "as a system-level advisor — the designer can
//! easily check the effects of system-level decisions in real-time" and
//! names the automation of interleaved memory/behavior partitioning as
//! future work (§2.2, §5). This module covers the two axes the move-based
//! optimizer ([`Session::optimize`]) does not touch:
//!
//! * [`best_memory_assignment`] — greedy sweep of every on-chip memory
//!   block across the chip set,
//! * [`minimum_chip_count`] — the smallest chip count whose horizontal
//!   partitioning is feasible (the optimizer moves operations between
//!   partitions but never changes the chip count).
//!
//! Operation migration across partition boundaries is
//! [`Session::optimize`].

use chop_library::{ChipId, MemoryId, MemoryPlacement};

use crate::error::ChopError;
use crate::explorer::{Heuristic, SearchOutcome, Session};
use crate::spec::Partitioning;

/// A recommended partitioning with the outcome that justified it.
#[derive(Debug)]
pub struct Advice {
    /// The recommended partitioning.
    pub partitioning: Partitioning,
    /// Its exploration outcome.
    pub outcome: SearchOutcome,
    /// Number of candidate partitionings explored to reach it.
    pub candidates_examined: usize,
}

/// Total order on outcomes: feasible beats infeasible; then lower best
/// initiation interval (ns), then lower best delay (ns).
fn score(outcome: &SearchOutcome) -> (u8, f64, f64) {
    match outcome
        .feasible
        .iter()
        .map(|f| (f.system.initiation_ns.likely(), f.system.delay_ns.likely()))
        .min_by(|a, b| a.partial_cmp(b).expect("finite"))
    {
        Some((ii, delay)) => (0, ii, delay),
        None => (1, f64::INFINITY, f64::INFINITY),
    }
}

fn better(a: &SearchOutcome, b: &SearchOutcome) -> bool {
    score(a) < score(b)
}

/// Greedily reassigns each on-chip memory block to the chip that gives the
/// best exploration outcome, one block at a time.
///
/// Off-the-shelf memories are left alone (they have no chip). Returns the
/// original partitioning unchanged if nothing improves.
///
/// # Errors
///
/// Propagates any [`ChopError`] from the underlying explorations.
pub fn best_memory_assignment(
    session: &Session,
    heuristic: Heuristic,
) -> Result<Advice, ChopError> {
    let mut best_partitioning = session.partitioning().clone();
    let mut best_outcome = session.explore(heuristic)?;
    let mut examined = 1usize;
    let memory_count = best_partitioning.memories().len();
    for mi in 0..memory_count {
        let id = MemoryId::new(mi as u32);
        if best_partitioning.memories()[mi].placement() != MemoryPlacement::OnChip {
            continue;
        }
        let chip_count = best_partitioning.chips().len();
        for c in 0..chip_count {
            let chip = ChipId::new(c as u32);
            let Ok(candidate) = best_partitioning.with_memory_on_chip(id, chip) else {
                continue;
            };
            if candidate == best_partitioning {
                continue;
            }
            let outcome =
                session.clone().try_with_partitioning(candidate.clone())?.explore(heuristic)?;
            examined += 1;
            if better(&outcome, &best_outcome) {
                best_outcome = outcome;
                best_partitioning = candidate;
            }
        }
    }
    Ok(Advice {
        partitioning: best_partitioning,
        outcome: best_outcome,
        candidates_examined: examined,
    })
}

/// Result of a [`minimum_chip_count`] sweep: the smallest feasible chip
/// count (if any) and the outcome observed at every count tried.
pub type ChipCountSweep = (Option<usize>, Vec<(usize, SearchOutcome)>);

/// Finds the smallest chip count in `1..=max_chips` whose horizontal
/// partitioning meets the session's constraints, returning it with the
/// outcomes of every count tried (the designer's first question: *how
/// many chips does this behavior need?*).
///
/// Uses the session's package for every chip (the chip set is rebuilt per
/// count). Returns `None` in the advice position when no count within the
/// limit is feasible.
///
/// # Errors
///
/// Propagates exploration errors; partitionings that cannot be *built*
/// for some count (more chips than operations) simply end the sweep.
///
/// # Examples
///
/// ```
/// use chop_core::advise::minimum_chip_count;
/// use chop_core::experiments::{experiment2_session, Exp2Config};
/// use chop_core::Heuristic;
///
/// let session = experiment2_session(&Exp2Config { partitions: 1, package: 1 })?;
/// let (best, tried) = minimum_chip_count(&session, Heuristic::Iterative, 3)?;
/// assert_eq!(best, Some(1)); // the AR filter fits one chip at 20 µs
/// assert!(!tried.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn minimum_chip_count(
    session: &Session,
    heuristic: Heuristic,
    max_chips: usize,
) -> Result<ChipCountSweep, ChopError> {
    use crate::spec::PartitioningBuilder;
    let mut tried = Vec::new();
    let base = session.partitioning();
    let package = base.chips().chip(chop_library::ChipId::new(0)).clone();
    for k in 1..=max_chips {
        if k > base.dfg().len() {
            break;
        }
        let chips = chop_library::ChipSet::uniform(package.clone(), k);
        let mut builder =
            PartitioningBuilder::new(base.dfg().clone(), chips).split_horizontal(k);
        // Carry the memory blocks over; on-chip blocks whose chip no
        // longer exists are clamped onto the last chip.
        for (mi, mem) in base.memories().iter().enumerate() {
            let assignment =
                match base.memory_assignment(chop_library::MemoryId::new(mi as u32)) {
                    crate::spec::MemoryAssignment::OnChip(c) => {
                        let clamped = c.index().min(k - 1);
                        crate::spec::MemoryAssignment::OnChip(chop_library::ChipId::new(
                            clamped as u32,
                        ))
                    }
                    external @ crate::spec::MemoryAssignment::External => external,
                };
            builder = builder.with_memory(mem.clone(), assignment);
        }
        let Ok(partitioning) = builder.build() else {
            break;
        };
        let outcome =
            session.clone().try_with_partitioning(partitioning)?.explore(heuristic)?;
        let feasible = !outcome.feasible.is_empty();
        tried.push((k, outcome));
        if feasible {
            return Ok((Some(k), tried));
        }
    }
    Ok((None, tried))
}

#[cfg(test)]
mod tests {
    use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};
    use chop_dfg::{DfgBuilder, MemoryRef, Operation};
    use chop_library::standard::{example_on_chip_ram, table1_library, table2_packages};
    use chop_library::ChipSet;
    use chop_stat::units::{Bits, Nanos};

    use super::*;
    use crate::feasibility::Constraints;
    use crate::spec::{MemoryAssignment, PartitioningBuilder};

    fn memory_workload() -> chop_dfg::Dfg {
        // Two halves; the first reads M0 heavily, the second is pure
        // datapath — M0 clearly belongs near partition 1.
        let mut b = DfgBuilder::new();
        let w = Bits::new(16);
        let m = MemoryRef::new(0);
        let addr = b.node(Operation::Input, w);
        let r1 = b.node(Operation::MemRead(m), w);
        let r2 = b.node(Operation::MemRead(m), w);
        b.connect(addr, r1).unwrap();
        b.connect(addr, r2).unwrap();
        let s1 = b.node(Operation::Add, w);
        b.connect(r1, s1).unwrap();
        b.connect(r2, s1).unwrap();
        let x = b.node(Operation::Input, w);
        let p1 = b.node(Operation::Mul, w);
        b.connect(s1, p1).unwrap();
        b.connect(x, p1).unwrap();
        let p2 = b.node(Operation::Mul, w);
        b.connect(p1, p2).unwrap();
        b.connect(x, p2).unwrap();
        let o = b.node(Operation::Output, w);
        b.connect(p2, o).unwrap();
        b.build().unwrap()
    }

    fn memory_session(mem_chip: u32) -> Session {
        let chips = ChipSet::uniform(table2_packages()[1].clone(), 2);
        let p = PartitioningBuilder::new(memory_workload(), chips)
            .split_horizontal(2)
            .with_memory(example_on_chip_ram(), MemoryAssignment::OnChip(ChipId::new(mem_chip)))
            .build()
            .unwrap();
        Session::new(
            p,
            table1_library(),
            ClockConfig::new(Nanos::new(300.0), 1, 1).unwrap(),
            ArchitectureStyle::multi_cycle(),
            PredictorParams::default(),
            Constraints::new(Nanos::new(60_000.0), Nanos::new(90_000.0)),
        )
    }

    #[test]
    fn memory_advice_never_worse_than_start() {
        let session = memory_session(1); // deliberately far from the reads
        let base = session.explore(Heuristic::Iterative).unwrap();
        let advice = best_memory_assignment(&session, Heuristic::Iterative).unwrap();
        assert!(advice.candidates_examined >= 2);
        assert!(score(&advice.outcome) <= score(&base));
    }

    #[test]
    fn minimum_chip_count_matches_experiments() {
        use crate::experiments::{experiment2_session, Exp2Config};
        // Exp-2: feasible on one chip at 20 µs.
        let s = experiment2_session(&Exp2Config { partitions: 1, package: 1 }).unwrap();
        let (best, tried) = minimum_chip_count(&s, Heuristic::Iterative, 3).unwrap();
        assert_eq!(best, Some(1));
        assert_eq!(tried.len(), 1);

        // Tighten performance to 10 µs: one chip can no longer keep up,
        // but two or three can (II 20 × ~370 ns ≈ 7.4 µs).
        let tight = s
            .try_with_constraints(crate::feasibility::Constraints::new(
                chop_stat::units::Nanos::new(10_000.0),
                chop_stat::units::Nanos::new(30_000.0),
            ))
            .unwrap();
        let (best, tried) = minimum_chip_count(&tight, Heuristic::Iterative, 3).unwrap();
        assert_eq!(
            best,
            Some(2),
            "tried: {:?}",
            tried.iter().map(|(k, o)| (*k, o.feasible.len())).collect::<Vec<_>>()
        );
    }

    #[test]
    fn minimum_chip_count_reports_failure() {
        use crate::experiments::{experiment1_session, Exp1Config};
        let s = experiment1_session(&Exp1Config { partitions: 1, package: 1 })
            .unwrap()
            .try_with_constraints(crate::feasibility::Constraints::new(
                chop_stat::units::Nanos::new(100.0),
                chop_stat::units::Nanos::new(100.0),
            ))
            .unwrap();
        let (best, tried) = minimum_chip_count(&s, Heuristic::Iterative, 2).unwrap();
        assert_eq!(best, None);
        assert_eq!(tried.len(), 2);
    }
}
