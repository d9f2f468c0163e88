//! Structural analyses over data-flow graphs.
//!
//! These are the graph-side primitives the predictor and the partitioner
//! build on: ASAP depth levels, weighted critical paths and transitive
//! reachability (used to detect mutual data dependency between partitions,
//! which the paper forbids in §2.3).

use std::collections::VecDeque;

use crate::graph::{Dfg, NodeId};

/// ASAP level of every node when every operation takes one time step.
///
/// Sources sit at level 0; each node sits one past its deepest predecessor.
///
/// # Examples
///
/// ```
/// use chop_dfg::{analysis, benchmarks};
///
/// let g = benchmarks::ar_lattice_filter();
/// let levels = analysis::asap_levels(&g);
/// assert_eq!(levels.len(), g.len());
/// ```
#[must_use]
pub fn asap_levels(dfg: &Dfg) -> Vec<u32> {
    let mut level = vec![0u32; dfg.len()];
    for &id in dfg.topo_order() {
        let deepest = dfg.pred_nodes(id).map(|p| level[p.index()] + 1).max().unwrap_or(0);
        level[id.index()] = deepest;
    }
    level
}

/// Length (in operations) of the longest path through the graph, counting
/// only nodes for which `weight` returns a positive value.
///
/// With `weight = |_| 1` this is the graph's depth in operations; with a
/// module-delay weight it is the unconstrained critical-path delay.
///
/// # Examples
///
/// ```
/// use chop_dfg::{analysis, benchmarks};
///
/// let g = benchmarks::ar_lattice_filter();
/// let ops = analysis::critical_path(&g, |_, n| u64::from(n.op().class().is_some()));
/// assert!(ops >= 3);
/// ```
#[must_use]
pub fn critical_path<F>(dfg: &Dfg, mut weight: F) -> u64
where
    F: FnMut(NodeId, &crate::graph::Node) -> u64,
{
    let mut dist = vec![0u64; dfg.len()];
    let mut best = 0;
    for &id in dfg.topo_order() {
        let arrive = dfg.pred_nodes(id).map(|p| dist[p.index()]).max().unwrap_or(0);
        let here = arrive + weight(id, dfg.node(id));
        dist[id.index()] = here;
        best = best.max(here);
    }
    best
}

/// Set of nodes reachable from `from` (excluding `from` itself).
///
/// # Examples
///
/// ```
/// use chop_dfg::{analysis, DfgBuilder, Operation};
/// use chop_stat::units::Bits;
///
/// let mut b = DfgBuilder::new();
/// let i = b.node(Operation::Input, Bits::new(8));
/// let o = b.node(Operation::Output, Bits::new(8));
/// b.connect(i, o)?;
/// let g = b.build()?;
/// let r = analysis::reachable_from(&g, i);
/// assert!(r[o.index()]);
/// assert!(!r[i.index()]);
/// # Ok::<(), chop_dfg::BuildDfgError>(())
/// ```
#[must_use]
pub fn reachable_from(dfg: &Dfg, from: NodeId) -> Vec<bool> {
    let mut seen = vec![false; dfg.len()];
    let mut queue = VecDeque::new();
    queue.push_back(from);
    while let Some(id) = queue.pop_front() {
        for succ in dfg.succ_nodes(id) {
            if !seen[succ.index()] {
                seen[succ.index()] = true;
                queue.push_back(succ);
            }
        }
    }
    seen
}

/// A structural profile of a behavioral specification — the numbers a
/// designer looks at before choosing a partition count (operation mix,
/// parallelism profile, value traffic).
#[derive(Debug, Clone, PartialEq)]
pub struct DfgProfile {
    /// Total nodes.
    pub nodes: usize,
    /// Total values (edges).
    pub values: usize,
    /// Functional-unit operations.
    pub operations: usize,
    /// Critical path in FU operations.
    pub critical_path: u64,
    /// Peak FU operations runnable in one unit-delay level.
    pub peak_parallelism: usize,
    /// Average FU parallelism (`operations / critical path`).
    pub average_parallelism: f64,
    /// Total value bits (sum of edge widths).
    pub value_bits: u64,
    /// Primary input bits.
    pub input_bits: u64,
    /// Primary output bits.
    pub output_bits: u64,
}

impl std::fmt::Display for DfgProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes, {} ops (cp {}, peak ∥ {}, avg ∥ {:.1}), {} value bits, I/O {}/{} bits",
            self.nodes,
            self.operations,
            self.critical_path,
            self.peak_parallelism,
            self.average_parallelism,
            self.value_bits,
            self.input_bits,
            self.output_bits
        )
    }
}

/// Profiles a specification.
///
/// # Examples
///
/// ```
/// use chop_dfg::{analysis, benchmarks};
///
/// let p = analysis::profile(&benchmarks::ar_lattice_filter());
/// assert_eq!(p.operations, 28);
/// assert_eq!(p.critical_path, 5);
/// assert!(p.peak_parallelism >= 8);
/// assert!(p.average_parallelism > 4.0);
/// ```
#[must_use]
pub fn profile(dfg: &Dfg) -> DfgProfile {
    let levels = asap_levels(dfg);
    let mut per_level: std::collections::BTreeMap<u32, usize> = Default::default();
    let mut operations = 0usize;
    for (id, node) in dfg.nodes() {
        if node.op().class().is_some() {
            operations += 1;
            *per_level.entry(levels[id.index()]).or_insert(0) += 1;
        }
    }
    let critical_path = critical_path(dfg, |_, n| u64::from(n.op().class().is_some()));
    let peak_parallelism = per_level.values().copied().max().unwrap_or(0);
    let value_bits: u64 = dfg.edges().map(|(_, e)| e.width().value()).sum();
    let input_bits: u64 = dfg.inputs().map(|id| dfg.node(id).width().value()).sum();
    let output_bits: u64 = dfg.outputs().map(|id| dfg.node(id).width().value()).sum();
    DfgProfile {
        nodes: dfg.len(),
        values: dfg.edges().count(),
        operations,
        critical_path,
        peak_parallelism,
        average_parallelism: if critical_path > 0 {
            operations as f64 / critical_path as f64
        } else {
            0.0
        },
        value_bits,
        input_bits,
        output_bits,
    }
}

/// Whether any node in `a` reaches any node in `b` through the data flow.
///
/// Two partitions that reach each other this way are *mutually* data
/// dependent, which CHOP's independent-prediction model does not support
/// (paper §2.3). This is the pairwise definition;
/// [`Grouping::check_no_mutual_dependency`](crate::grouping::Grouping::check_no_mutual_dependency)
/// decides it for every pair of groups in one pass.
#[must_use]
pub fn group_reaches(dfg: &Dfg, a: &[NodeId], b: &[NodeId]) -> bool {
    let mut target = vec![false; dfg.len()];
    for id in b {
        target[id.index()] = true;
    }
    let mut seen = vec![false; dfg.len()];
    let mut queue: VecDeque<NodeId> = a.iter().copied().collect();
    for id in a {
        seen[id.index()] = true;
    }
    while let Some(id) = queue.pop_front() {
        for succ in dfg.succ_nodes(id) {
            if target[succ.index()] {
                return true;
            }
            if !seen[succ.index()] {
                seen[succ.index()] = true;
                queue.push_back(succ);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use chop_stat::units::Bits;

    use super::*;
    use crate::graph::DfgBuilder;
    use crate::op::Operation;

    fn diamond() -> (Dfg, [NodeId; 4]) {
        let mut b = DfgBuilder::new();
        let w = Bits::new(16);
        let i = b.node(Operation::Input, w);
        let l = b.node(Operation::Add, w);
        let r = b.node(Operation::Mul, w);
        let o = b.node(Operation::Output, w);
        b.connect(i, l).unwrap();
        b.connect(i, r).unwrap();
        b.connect(l, o).unwrap();
        b.connect(r, o).unwrap();
        (b.build().unwrap(), [i, l, r, o])
    }

    #[test]
    fn asap_levels_of_diamond() {
        let (g, [i, l, r, o]) = diamond();
        let lev = asap_levels(&g);
        assert_eq!(lev[i.index()], 0);
        assert_eq!(lev[l.index()], 1);
        assert_eq!(lev[r.index()], 1);
        assert_eq!(lev[o.index()], 2);
    }

    #[test]
    fn critical_path_counts_weights() {
        let (g, _) = diamond();
        // Only Add/Mul weighted: longest chain has exactly one of them.
        let cp = critical_path(&g, |_, n| u64::from(n.op().class().is_some()));
        assert_eq!(cp, 1);
        // All nodes weighted 1: path i -> l -> o has 3 nodes.
        let cp_all = critical_path(&g, |_, _| 1);
        assert_eq!(cp_all, 3);
    }

    #[test]
    fn critical_path_with_module_like_weights() {
        let (g, _) = diamond();
        // Mul = 10, Add = 2: critical path goes through the multiplier.
        let cp = critical_path(&g, |_, n| match n.op() {
            Operation::Mul => 10,
            Operation::Add => 2,
            _ => 0,
        });
        assert_eq!(cp, 10);
    }

    #[test]
    fn reachability() {
        let (g, [i, l, _r, o]) = diamond();
        let r_from_i = reachable_from(&g, i);
        assert!(r_from_i[o.index()]);
        let r_from_l = reachable_from(&g, l);
        assert!(r_from_l[o.index()]);
        assert!(!r_from_l[i.index()]);
    }

    #[test]
    fn profile_of_known_workloads() {
        let p = profile(&crate::benchmarks::fir_filter(8));
        assert_eq!(p.operations, 15); // 8 muls + 7 adds
        assert_eq!(p.critical_path, 4); // mul + 3 tree levels
        assert_eq!(p.peak_parallelism, 8);
        assert_eq!(p.input_bits, 8 * 16);
        assert_eq!(p.output_bits, 16);
        assert!(p.to_string().contains("15 ops"));

        let ewf = profile(&crate::benchmarks::elliptic_wave_filter());
        // The EWF's signature: low average parallelism.
        assert!(ewf.average_parallelism < 2.0);
    }

    #[test]
    fn group_reachability_directions() {
        let (g, [i, l, r, o]) = diamond();
        assert!(group_reaches(&g, &[i], &[o]));
        assert!(!group_reaches(&g, &[o], &[i]));
        assert!(!group_reaches(&g, &[l], &[r]));
    }
}
