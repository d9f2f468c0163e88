//! Node groupings and cut-value extraction.
//!
//! A [`Grouping`] assigns every DFG node to a group (a tentative partition).
//! From it CHOP derives the *data-transfer requirements* between partitions
//! — the amount of data that must cross each ordered pair of groups — and
//! extracts the induced sub-DFG of one group (with cut edges replaced by
//! primary I/O) that is handed to the BAD predictor, matching the paper's
//! assumption that "all inputs to partitions are … simultaneously available
//! before the execution starts" (§2.3).

use std::collections::BTreeMap;
use std::fmt;

use chop_stat::units::Bits;

use crate::graph::{Dfg, DfgBuilder, NodeId};
use crate::op::Operation;

/// Error constructing or using a [`Grouping`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupingError {
    /// The assignment vector length does not match the graph size.
    WrongLength {
        /// Nodes in the graph.
        expected: usize,
        /// Entries supplied.
        found: usize,
    },
    /// A node was assigned to a group index out of range.
    GroupOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Its assigned group.
        group: usize,
        /// Number of groups.
        groups: usize,
    },
    /// A group index was empty (every group must contain at least one node).
    EmptyGroup(usize),
    /// Two groups depend on each other's data (forbidden, paper §2.3).
    MutualDependency(usize, usize),
}

impl fmt::Display for GroupingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupingError::WrongLength { expected, found } => {
                write!(f, "assignment has {found} entries for a {expected}-node graph")
            }
            GroupingError::GroupOutOfRange { node, group, groups } => {
                write!(f, "node {node} assigned to group {group} of {groups}")
            }
            GroupingError::EmptyGroup(g) => write!(f, "group {g} contains no nodes"),
            GroupingError::MutualDependency(a, b) => {
                write!(f, "groups {a} and {b} have mutual data dependency")
            }
        }
    }
}

impl std::error::Error for GroupingError {}

/// A total assignment of DFG nodes to `group_count` groups.
///
/// # Examples
///
/// ```
/// use chop_dfg::{benchmarks, grouping::Grouping};
///
/// let g = benchmarks::ar_lattice_filter();
/// let single = Grouping::single(&g);
/// assert_eq!(single.group_count(), 1);
/// assert_eq!(single.members(0).len(), g.len());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grouping {
    assignment: Vec<usize>,
    group_count: usize,
}

impl Grouping {
    /// Creates a grouping from an explicit per-node assignment.
    ///
    /// # Errors
    ///
    /// Returns a [`GroupingError`] if the vector length mismatches the
    /// graph, an index is out of range, or a group is empty.
    pub fn new(
        dfg: &Dfg,
        group_count: usize,
        assignment: Vec<usize>,
    ) -> Result<Self, GroupingError> {
        if assignment.len() != dfg.len() {
            return Err(GroupingError::WrongLength {
                expected: dfg.len(),
                found: assignment.len(),
            });
        }
        let mut seen = vec![false; group_count];
        for (i, &g) in assignment.iter().enumerate() {
            if g >= group_count {
                return Err(GroupingError::GroupOutOfRange {
                    node: dfg.topo_order()[0], // placeholder replaced below
                    group: g,
                    groups: group_count,
                }
                .fix_node(dfg, i));
            }
            seen[g] = true;
        }
        if let Some(g) = seen.iter().position(|s| !s) {
            return Err(GroupingError::EmptyGroup(g));
        }
        Ok(Self { assignment, group_count })
    }

    /// Puts every node into a single group.
    #[must_use]
    pub fn single(dfg: &Dfg) -> Self {
        Self { assignment: vec![0; dfg.len()], group_count: 1 }
    }

    /// Splits the graph into `k` groups by a "horizontal cut" — the scheme
    /// the paper's experiments use for 2 and 3 partitions.
    ///
    /// Functional-unit operations are ranked topologically and divided into
    /// `k` contiguous slices of approximately equal *operation* count (so
    /// the datapath work is balanced); primary inputs and constants join
    /// the group of their earliest consumer, outputs and other non-FU
    /// nodes the group of their latest producer. The resulting cut only
    /// moves data forward, so no mutual dependency can arise.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the node count.
    #[must_use]
    pub fn horizontal(dfg: &Dfg, k: usize) -> Self {
        assert!(k >= 1 && k <= dfg.len(), "group count must be in 1..=len");
        let levels = crate::analysis::asap_levels(dfg);
        let mut fu_nodes: Vec<NodeId> = dfg
            .topo_order()
            .iter()
            .copied()
            .filter(|&id| dfg.node(id).op().class().is_some())
            .collect();
        // Order by ASAP level so slices are true horizontal bands of the
        // graph; ties broken by id for determinism.
        fu_nodes.sort_by_key(|id| (levels[id.index()], id.index()));
        if fu_nodes.len() < k {
            // Too few operations to balance: fall back to node-count slices.
            let order = dfg.topo_order();
            let mut assignment = vec![0usize; dfg.len()];
            for (pos, id) in order.iter().enumerate() {
                assignment[id.index()] = (pos * k / order.len()).min(k - 1);
            }
            return Self { assignment, group_count: k };
        }
        let mut assignment: Vec<Option<usize>> = vec![None; dfg.len()];
        for (rank, id) in fu_nodes.iter().enumerate() {
            assignment[id.index()] = Some((rank * k / fu_nodes.len()).min(k - 1));
        }
        // Downstream non-FU nodes (outputs, memory ops): latest producer.
        for &id in dfg.topo_order() {
            if assignment[id.index()].is_some() {
                continue;
            }
            let from_preds = dfg.pred_nodes(id).filter_map(|p| assignment[p.index()]).max();
            if let Some(g) = from_preds {
                assignment[id.index()] = Some(g);
            }
        }
        // Sources (inputs, constants): earliest consumer.
        for &id in dfg.topo_order().iter().rev() {
            if assignment[id.index()].is_some() {
                continue;
            }
            let from_succs = dfg.succ_nodes(id).filter_map(|s| assignment[s.index()]).min();
            assignment[id.index()] = Some(from_succs.unwrap_or(0));
        }
        let assignment: Vec<usize> = assignment.into_iter().map(|g| g.unwrap_or(0)).collect();
        Self { assignment, group_count: k }
    }

    /// Number of groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// Group of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn group_of(&self, node: NodeId) -> usize {
        self.assignment[node.index()]
    }

    /// Node ids belonging to a group.
    #[must_use]
    pub fn members(&self, group: usize) -> Vec<NodeId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &g)| g == group)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// Number of nodes in each group, indexed by group.
    #[must_use]
    pub fn group_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.group_count];
        for &g in &self.assignment {
            sizes[g] += 1;
        }
        sizes
    }

    /// Moves one node to a different group in place.
    ///
    /// This is the primitive behind the paper's "operation migrations from
    /// partition to partition" modification (§2.7). It checks nothing but
    /// the target's range: the move may empty a group or create mutual
    /// dependency.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range or `node` is invalid.
    pub fn move_node(&mut self, node: NodeId, group: usize) {
        assert!(group < self.group_count, "target group out of range");
        self.assignment[node.index()] = group;
    }

    /// Verifies that no two groups mutually depend on each other's data.
    ///
    /// One reverse-topological pass gives every node the set of groups it
    /// reaches through one or more edges, as a bitset of `⌈k/64⌉` words;
    /// the union over each group's members says which groups that group
    /// reaches. Pairs are then tested in `(a, b)` order, `a < b`.
    ///
    /// # Errors
    ///
    /// Returns [`GroupingError::MutualDependency`] naming the first
    /// offending pair.
    pub fn check_no_mutual_dependency(&self, dfg: &Dfg) -> Result<(), GroupingError> {
        let k = self.group_count;
        if k < 2 {
            return Ok(());
        }
        let words = k.div_ceil(64);
        let mut node_reach = vec![0u64; dfg.len() * words];
        let mut group_reach = vec![0u64; k * words];
        for &v in dfg.topo_order().iter().rev() {
            let row = v.index() * words;
            for s in dfg.succ_nodes(v) {
                let g = self.assignment[s.index()];
                node_reach[row + g / 64] |= 1 << (g % 64);
                for w in 0..words {
                    node_reach[row + w] |= node_reach[s.index() * words + w];
                }
            }
            let home = self.assignment[v.index()] * words;
            for w in 0..words {
                group_reach[home + w] |= node_reach[row + w];
            }
        }
        let reaches =
            |a: usize, b: usize| group_reach[a * words + b / 64] & (1 << (b % 64)) != 0;
        for a in 0..k {
            for b in (a + 1)..k {
                if reaches(a, b) && reaches(b, a) {
                    return Err(GroupingError::MutualDependency(a, b));
                }
            }
        }
        Ok(())
    }
}

impl GroupingError {
    fn fix_node(self, dfg: &Dfg, index: usize) -> Self {
        if let GroupingError::GroupOutOfRange { group, groups, .. } = self {
            let node =
                dfg.node_ids().nth(index).expect("index checked against assignment length");
            GroupingError::GroupOutOfRange { node, group, groups }
        } else {
            self
        }
    }
}

/// Aggregated data crossing from one group to another (or to/from the
/// outside world).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutValue {
    /// Producing group.
    pub src_group: usize,
    /// Consuming group.
    pub dst_group: usize,
    /// Total bits crossing per initiation.
    pub bits: Bits,
    /// Number of distinct values crossing.
    pub values: usize,
}

/// Computes the aggregated cut values between every ordered pair of groups.
///
/// Each DFG edge whose endpoints lie in different groups contributes its
/// width once. Results are sorted by `(src_group, dst_group)`.
///
/// # Examples
///
/// ```
/// use chop_dfg::{benchmarks, grouping};
///
/// let g = benchmarks::ar_lattice_filter();
/// let parts = grouping::Grouping::horizontal(&g, 2);
/// let cuts = grouping::cut_values(&g, &parts);
/// assert!(!cuts.is_empty());
/// // A horizontal cut only moves data forward.
/// assert!(cuts.iter().all(|c| c.src_group <= c.dst_group));
/// ```
#[must_use]
pub fn cut_values(dfg: &Dfg, grouping: &Grouping) -> Vec<CutValue> {
    let mut agg: BTreeMap<(usize, usize), (u64, usize)> = BTreeMap::new();
    for (_, e) in dfg.edges() {
        let sg = grouping.group_of(e.src());
        let dg = grouping.group_of(e.dst());
        if sg != dg {
            let entry = agg.entry((sg, dg)).or_insert((0, 0));
            entry.0 += e.width().value();
            entry.1 += 1;
        }
    }
    agg.into_iter()
        .map(|((src_group, dst_group), (bits, values))| CutValue {
            src_group,
            dst_group,
            bits: Bits::new(bits),
            values,
        })
        .collect()
}

/// Extracts the induced sub-DFG of one group.
///
/// Values flowing *into* the group become fresh [`Operation::Input`] nodes
/// and values flowing *out* become [`Operation::Output`] nodes, so the
/// result is a self-contained behavioral specification suitable for
/// independent prediction — exactly the partition model BAD assumes.
///
/// # Panics
///
/// Panics if `group` is out of range (empty groups cannot occur in a valid
/// [`Grouping`]).
///
/// # Examples
///
/// ```
/// use chop_dfg::{benchmarks, grouping};
///
/// let g = benchmarks::ar_lattice_filter();
/// let parts = grouping::Grouping::horizontal(&g, 3);
/// let sub = grouping::extract_group(&g, &parts, 1);
/// assert!(sub.len() > 0);
/// assert!(sub.validate().is_ok());
/// ```
#[must_use]
pub fn extract_group(dfg: &Dfg, grouping: &Grouping, group: usize) -> Dfg {
    extract_group_detailed(dfg, grouping, group).dfg
}

/// Where a node of an extracted group sub-graph came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupOrigin {
    /// A member node of the group (the original node id).
    Original(NodeId),
    /// A synthesized [`Operation::Input`] standing for a value produced by
    /// `source` in another group.
    CutInput {
        /// The original producer node.
        source: NodeId,
    },
    /// A synthesized [`Operation::Output`] exporting the value `source`
    /// produces to another group.
    CutOutput {
        /// The original producer node (a member of this group).
        source: NodeId,
    },
}

/// An extracted group sub-graph plus the origin of every sub node —
/// enough to wire partitioned execution back together (see
/// [`crate::eval`]).
#[derive(Debug, Clone)]
pub struct ExtractedGroup {
    /// The self-contained sub-graph.
    pub dfg: Dfg,
    /// Origin of each sub node, indexed by the sub node's id.
    pub origin: Vec<GroupOrigin>,
}

/// Like [`extract_group`], additionally reporting each sub node's origin.
///
/// # Panics
///
/// Panics if `group` is out of range.
#[must_use]
pub fn extract_group_detailed(dfg: &Dfg, grouping: &Grouping, group: usize) -> ExtractedGroup {
    assert!(group < grouping.group_count(), "group out of range");
    let mut b = DfgBuilder::new();
    let mut map: Vec<Option<NodeId>> = vec![None; dfg.len()];
    let mut origin: Vec<GroupOrigin> = Vec::new();
    for &id in dfg.topo_order() {
        if grouping.group_of(id) == group {
            let n = dfg.node(id);
            let new = match n.label() {
                Some(l) => b.labeled_node(n.op(), n.width(), l),
                None => b.node(n.op(), n.width()),
            };
            debug_assert_eq!(new.index(), origin.len());
            origin.push(GroupOrigin::Original(id));
            map[id.index()] = Some(new);
        }
    }
    for (_, e) in dfg.edges() {
        let sg = grouping.group_of(e.src());
        let dg = grouping.group_of(e.dst());
        match (sg == group, dg == group) {
            (true, true) => {
                let s = map[e.src().index()].expect("mapped");
                let d = map[e.dst().index()].expect("mapped");
                b.connect_with_width(s, d, e.width()).expect("ids valid");
            }
            (false, true) => {
                let input = b.node(Operation::Input, e.width());
                debug_assert_eq!(input.index(), origin.len());
                origin.push(GroupOrigin::CutInput { source: e.src() });
                let d = map[e.dst().index()].expect("mapped");
                b.connect_with_width(input, d, e.width()).expect("ids valid");
            }
            (true, false) => {
                let s = map[e.src().index()].expect("mapped");
                let output = b.node(Operation::Output, e.width());
                debug_assert_eq!(output.index(), origin.len());
                origin.push(GroupOrigin::CutOutput { source: e.src() });
                b.connect_with_width(s, output, e.width()).expect("ids valid");
            }
            (false, false) => {}
        }
    }
    let dfg = b.build().expect("group subgraph of an acyclic graph is acyclic and non-empty");
    ExtractedGroup { dfg, origin }
}

#[cfg(test)]
mod tests {
    use chop_stat::units::Bits;

    use super::*;
    use crate::graph::DfgBuilder;
    use crate::op::Operation;

    fn chain() -> Dfg {
        let mut b = DfgBuilder::new();
        let w = Bits::new(16);
        let i = b.node(Operation::Input, w);
        let a = b.node(Operation::Add, w);
        let m = b.node(Operation::Mul, w);
        let o = b.node(Operation::Output, w);
        b.connect(i, a).unwrap();
        b.connect(i, a).unwrap();
        b.connect(a, m).unwrap();
        b.connect(a, m).unwrap();
        b.connect(m, o).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn single_grouping_covers_all() {
        let g = chain();
        let gr = Grouping::single(&g);
        assert_eq!(gr.members(0).len(), g.len());
        assert!(cut_values(&g, &gr).is_empty());
    }

    #[test]
    fn wrong_length_rejected() {
        let g = chain();
        assert!(matches!(
            Grouping::new(&g, 1, vec![0]),
            Err(GroupingError::WrongLength { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let g = chain();
        assert!(matches!(
            Grouping::new(&g, 1, vec![0, 0, 1, 0]),
            Err(GroupingError::GroupOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_group_rejected() {
        let g = chain();
        assert!(matches!(
            Grouping::new(&g, 3, vec![0, 0, 1, 1]),
            Err(GroupingError::EmptyGroup(2))
        ));
    }

    #[test]
    fn cut_values_aggregate_widths() {
        let g = chain();
        // Split: {input, add} vs {mul, output}. Two 16-bit values cross
        // (add feeds mul twice).
        let gr = Grouping::new(&g, 2, vec![0, 0, 1, 1]).unwrap();
        let cuts = cut_values(&g, &gr);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].src_group, 0);
        assert_eq!(cuts[0].dst_group, 1);
        assert_eq!(cuts[0].bits, Bits::new(32));
        assert_eq!(cuts[0].values, 2);
    }

    #[test]
    fn horizontal_split_has_forward_cuts_only() {
        let g = chain();
        let gr = Grouping::horizontal(&g, 2);
        for c in cut_values(&g, &gr) {
            assert!(c.src_group < c.dst_group);
        }
        assert!(gr.check_no_mutual_dependency(&g).is_ok());
    }

    #[test]
    fn mutual_dependency_detected() {
        // i -> a -> m -> o with interleaved groups a∈0, m∈1 plus a second
        // chain m2 ∈ 1 feeding o2 ∈ 0 creates 0→1 and 1→0 flows.
        let mut b = DfgBuilder::new();
        let w = Bits::new(8);
        let i = b.node(Operation::Input, w);
        let a = b.node(Operation::Add, w);
        let m = b.node(Operation::Mul, w);
        let o = b.node(Operation::Output, w);
        b.connect(i, a).unwrap();
        b.connect(a, m).unwrap();
        b.connect(m, o).unwrap();
        let g = b.build().unwrap();
        // groups: i,a -> 0; m -> 1; o -> 0. Then 0 reaches 1 (a->m) and 1
        // reaches 0 (m->o).
        let gr = Grouping::new(&g, 2, vec![0, 0, 1, 0]).unwrap();
        assert!(matches!(
            gr.check_no_mutual_dependency(&g),
            Err(GroupingError::MutualDependency(0, 1))
        ));
    }

    #[test]
    fn extract_group_adds_io_at_cut() {
        let g = chain();
        let gr = Grouping::new(&g, 2, vec![0, 0, 1, 1]).unwrap();
        let sub = extract_group(&g, &gr, 1);
        // mul + output + two fresh inputs.
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.inputs().count(), 2);
        assert_eq!(sub.outputs().count(), 1);
        assert!(sub.validate().is_ok());
    }

    #[test]
    fn extract_group_preserves_internal_structure() {
        let g = chain();
        let gr = Grouping::new(&g, 2, vec![0, 0, 1, 1]).unwrap();
        let sub = extract_group(&g, &gr, 0);
        let hist = sub.op_histogram();
        assert_eq!(hist.count(Operation::Add), 1);
        assert_eq!(hist.count(Operation::Mul), 0);
        // The add's two results leaving the group become outputs.
        assert_eq!(sub.outputs().count(), 2);
    }

    #[test]
    fn with_node_moved_changes_only_one_node() {
        let g = chain();
        let gr = Grouping::new(&g, 2, vec![0, 0, 1, 1]).unwrap();
        let node = gr.members(0)[1];
        let mut moved = gr.clone();
        moved.move_node(node, 1);
        assert_eq!(moved.group_of(node), 1);
        assert_eq!(moved.members(0).len(), 1);
        assert_eq!(moved.group_sizes(), vec![1, 3]);
    }
}
