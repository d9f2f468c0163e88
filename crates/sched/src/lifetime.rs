//! Value-lifetime analysis and register (max-live) estimation.
//!
//! BAD "performs detailed predictions on register … allocation" (paper
//! §2.4). The standard predictor for register bits is the maximum number of
//! value bits simultaneously live under a given schedule; for pipelined
//! styles the lifetimes are folded modulo the initiation interval because
//! successive initiations keep their values live concurrently.

use chop_dfg::Dfg;
use chop_stat::units::Bits;

use crate::list::Schedule;

/// A value's live interval: produced at `birth`, last consumed at `death`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveInterval {
    /// Cycle the value becomes available (producer finish).
    pub birth: u64,
    /// Last cycle the value is needed (max consumer start).
    pub death: u64,
    /// Width of the value.
    pub width: Bits,
}

/// Computes live intervals for every edge of the graph under a schedule.
///
/// The style has no operator chaining: every value is latched when its
/// producer finishes and stays registered at least through its consumer's
/// first cycle, so even back-to-back producer/consumer pairs contribute
/// one register-cycle.
///
/// # Examples
///
/// ```
/// use chop_dfg::{benchmarks, OpClass};
/// use chop_sched::{list_schedule, NodeSpec, ResourceMap};
/// use chop_sched::lifetime::live_intervals;
///
/// let g = benchmarks::fir_filter(4);
/// let specs = NodeSpec::uniform(&g, 1);
/// let alloc: ResourceMap =
///     [(OpClass::Addition, 1), (OpClass::Multiplication, 1)].into_iter().collect();
/// let s = list_schedule(&g, &specs, &alloc)?;
/// let intervals = live_intervals(&g, &s);
/// assert_eq!(intervals.len(), g.edges().count());
/// # Ok::<(), chop_sched::ScheduleError>(())
/// ```
#[must_use]
pub fn live_intervals(dfg: &Dfg, schedule: &Schedule) -> Vec<LiveInterval> {
    live_intervals_where(dfg, schedule, |_| true)
}

/// Like [`live_intervals`] but only for edges accepted by `keep` — used by
/// predictors that exclude hardwired constants and externally buffered
/// primary inputs from the datapath register budget.
pub fn live_intervals_where(
    dfg: &Dfg,
    schedule: &Schedule,
    keep: impl Fn(&chop_dfg::Edge) -> bool,
) -> Vec<LiveInterval> {
    intervals(dfg, schedule, keep).collect()
}

fn intervals<'a>(
    dfg: &'a Dfg,
    schedule: &'a Schedule,
    keep: impl Fn(&chop_dfg::Edge) -> bool + 'a,
) -> impl Iterator<Item = LiveInterval> + 'a {
    dfg.edges().filter(move |(_, e)| keep(e)).map(|(_, e)| LiveInterval {
        birth: schedule.finish(e.src()),
        // The architecture style has no operator chaining: a value is
        // latched when produced and read during its consumer's first
        // cycle, so it occupies a register at least one cycle.
        death: schedule.start(e.dst()) + 1,
        width: e.width(),
    })
}

/// Maximum number of register bits simultaneously live (non-pipelined).
///
/// # Examples
///
/// ```
/// use chop_dfg::{benchmarks, OpClass};
/// use chop_sched::{list_schedule, NodeSpec, ResourceMap};
/// use chop_sched::lifetime::max_live_bits;
///
/// let g = benchmarks::ar_lattice_filter();
/// let specs = NodeSpec::uniform(&g, 1);
/// let alloc: ResourceMap =
///     [(OpClass::Addition, 2), (OpClass::Multiplication, 4)].into_iter().collect();
/// let s = list_schedule(&g, &specs, &alloc)?;
/// let bits = max_live_bits(&g, &s);
/// assert!(bits.value() >= 16);
/// # Ok::<(), chop_sched::ScheduleError>(())
/// ```
#[must_use]
pub fn max_live_bits(dfg: &Dfg, schedule: &Schedule) -> Bits {
    max_live_bits_where(dfg, schedule, |_| true)
}

/// Like [`max_live_bits`] but only counting edges accepted by `keep`.
///
/// Runs in O(edges + makespan).
pub fn max_live_bits_where(
    dfg: &Dfg,
    schedule: &Schedule,
    keep: impl Fn(&chop_dfg::Edge) -> bool,
) -> Bits {
    // One sweep over cycles 0..=makespan: bits born and bits dying per
    // cycle. A death after the makespan ends no counted cycle, so it is
    // clipped to makespan + 1.
    let horizon = schedule.makespan();
    let mut born = vec![0u64; horizon as usize + 2];
    let mut died = vec![0u64; horizon as usize + 2];
    for iv in intervals(dfg, schedule, keep) {
        let death = iv.death.min(horizon + 1);
        if iv.birth < death {
            born[iv.birth as usize] += iv.width.value();
            died[death as usize] += iv.width.value();
        }
    }
    let mut live = 0u64;
    let mut best = 0u64;
    for (born, died) in born.into_iter().zip(died).take(horizon as usize + 1) {
        live = live + born - died;
        best = best.max(live);
    }
    Bits::new(best)
}

/// Maximum live register bits for a pipeline at initiation interval `ii`:
/// every live interval is replicated at offsets `k·ii` and the per-slot
/// totals are maximized over one interval window.
///
/// Equals [`max_live_bits`] when `ii >= makespan` (no overlap).
///
/// # Panics
///
/// Panics if `ii` is zero.
///
/// # Examples
///
/// ```
/// use chop_dfg::{benchmarks, OpClass};
/// use chop_sched::{list_schedule, NodeSpec, ResourceMap};
/// use chop_sched::lifetime::{max_live_bits, max_live_bits_pipelined};
///
/// let g = benchmarks::ar_lattice_filter();
/// let specs = NodeSpec::uniform(&g, 1);
/// let alloc: ResourceMap =
///     [(OpClass::Addition, 4), (OpClass::Multiplication, 8)].into_iter().collect();
/// let s = list_schedule(&g, &specs, &alloc)?;
/// let flat = max_live_bits(&g, &s);
/// let folded = max_live_bits_pipelined(&g, &s, 2);
/// assert!(folded.value() >= flat.value());
/// # Ok::<(), chop_sched::ScheduleError>(())
/// ```
#[must_use]
pub fn max_live_bits_pipelined(dfg: &Dfg, schedule: &Schedule, ii: u64) -> Bits {
    max_live_bits_pipelined_where(dfg, schedule, ii, |_| true)
}

/// Like [`max_live_bits_pipelined`] but only counting edges accepted by
/// `keep`.
///
/// # Panics
///
/// Panics if `ii` is zero.
pub fn max_live_bits_pipelined_where(
    dfg: &Dfg,
    schedule: &Schedule,
    ii: u64,
    keep: impl Fn(&chop_dfg::Edge) -> bool,
) -> Bits {
    assert!(ii > 0, "initiation interval must be positive");
    let mut slot_bits = vec![0u64; ii as usize];
    for iv in intervals(dfg, schedule, keep) {
        if iv.death <= iv.birth {
            continue;
        }
        let len = iv.death - iv.birth;
        if len >= ii {
            // Value lives longer than one initiation: live in every slot,
            // ceil(len/ii) copies deep.
            let copies = len.div_ceil(ii);
            for slot in slot_bits.iter_mut() {
                *slot += iv.width.value() * copies;
            }
        } else {
            for t in iv.birth..iv.death {
                slot_bits[(t % ii) as usize] += iv.width.value();
            }
        }
    }
    Bits::new(slot_bits.into_iter().max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use chop_dfg::{benchmarks, OpClass};

    use super::*;
    use crate::list::{list_schedule, NodeSpec, ResourceMap};

    fn alloc(adds: usize, muls: usize) -> ResourceMap {
        [(OpClass::Addition, adds), (OpClass::Multiplication, muls)].into_iter().collect()
    }

    #[test]
    fn intervals_are_causal() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 1);
        let s = list_schedule(&g, &specs, &alloc(2, 2)).unwrap();
        for iv in live_intervals(&g, &s) {
            assert!(iv.birth <= iv.death);
        }
    }

    #[test]
    fn max_live_bounded_by_total_value_bits() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 1);
        let total: u64 = g.edges().map(|(_, e)| e.width().value()).sum();
        for a in [alloc(1, 1), alloc(2, 4), alloc(12, 16)] {
            let s = list_schedule(&g, &specs, &a).unwrap();
            let live = max_live_bits(&g, &s).value();
            assert!(live > 0);
            assert!(live <= total);
        }
    }

    #[test]
    fn pipeline_fold_at_large_ii_matches_flat() {
        let g = benchmarks::fir_filter(4);
        let specs = NodeSpec::uniform(&g, 1);
        let s = list_schedule(&g, &specs, &alloc(4, 4)).unwrap();
        let flat = max_live_bits(&g, &s);
        let folded = max_live_bits_pipelined(&g, &s, s.makespan().max(1) * 2);
        assert_eq!(flat.value(), folded.value());
    }

    #[test]
    fn tighter_ii_needs_more_registers() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 1);
        let s = list_schedule(&g, &specs, &alloc(4, 8)).unwrap();
        let loose = max_live_bits_pipelined(&g, &s, s.makespan().max(1));
        let tight = max_live_bits_pipelined(&g, &s, 1);
        assert!(tight.value() >= loose.value());
    }
}
