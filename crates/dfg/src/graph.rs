//! The validated data-flow graph and its builder.

use std::fmt;

use chop_stat::units::Bits;

use crate::op::{OpHistogram, Operation};

/// Identifier of a node within one [`Dfg`].
///
/// # Examples
///
/// ```
/// use chop_dfg::{DfgBuilder, Operation};
/// use chop_stat::units::Bits;
///
/// let mut b = DfgBuilder::new();
/// let a = b.node(Operation::Input, Bits::new(16));
/// assert_eq!(a.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The node's index into [`Dfg::nodes`].
    #[must_use]
    pub fn index(&self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a node id from a raw index previously obtained via
    /// [`NodeId::index`] on the same graph.
    pub(crate) fn from_index(index: usize) -> Self {
        NodeId(index.try_into().expect("node index fits in u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an edge (a data value) within one [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// The edge's index into [`Dfg::edges`].
    #[must_use]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A DFG node: an operation at a given bit width, optionally labeled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    op: Operation,
    width: Bits,
    label: Option<String>,
}

impl Node {
    /// The operation this node performs.
    #[must_use]
    pub fn op(&self) -> Operation {
        self.op
    }

    /// The node's data width.
    #[must_use]
    pub fn width(&self) -> Bits {
        self.width
    }

    /// The node's designer-facing label, if any.
    #[must_use]
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }
}

/// A DFG edge: a data value produced by `src` and consumed by `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    src: NodeId,
    dst: NodeId,
    width: Bits,
}

impl Edge {
    /// Producer of the value.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Consumer of the value.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Width of the value in bits.
    #[must_use]
    pub fn width(&self) -> Bits {
        self.width
    }
}

/// Error produced while building a [`Dfg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildDfgError {
    /// `connect` referenced a node id that does not exist.
    UnknownNode(NodeId),
    /// The graph contains a directed cycle (behavioral specs must be
    /// acyclic after loop unrolling, paper §2.3).
    Cyclic {
        /// A node known to participate in a cycle.
        witness: NodeId,
    },
    /// The graph has no nodes.
    Empty,
    /// A node has no path from any primary input and is not a source.
    DanglingNode(NodeId),
}

impl fmt::Display for BuildDfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildDfgError::UnknownNode(n) => write!(f, "unknown node {n}"),
            BuildDfgError::Cyclic { witness } => {
                write!(f, "data flow graph contains a cycle through {witness}")
            }
            BuildDfgError::Empty => write!(f, "data flow graph has no nodes"),
            BuildDfgError::DanglingNode(n) => {
                write!(f, "node {n} consumes no values and produces none")
            }
        }
    }
}

impl std::error::Error for BuildDfgError {}

/// Error produced by [`Dfg::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateDfgError {
    /// A non-source node (neither input nor constant) has no operands.
    MissingOperands(NodeId),
    /// A node has more operands than its operation accepts.
    TooManyOperands {
        /// The offending node.
        node: NodeId,
        /// Operands found.
        found: usize,
        /// Maximum the operation accepts.
        max: usize,
    },
    /// An output node drives other nodes.
    OutputHasConsumers(NodeId),
}

impl fmt::Display for ValidateDfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateDfgError::MissingOperands(n) => write!(f, "node {n} has no operands"),
            ValidateDfgError::TooManyOperands { node, found, max } => {
                write!(f, "node {node} has {found} operands but accepts at most {max}")
            }
            ValidateDfgError::OutputHasConsumers(n) => {
                write!(f, "output node {n} drives other nodes")
            }
        }
    }
}

impl std::error::Error for ValidateDfgError {}

/// An immutable, acyclic, validated behavioral data-flow graph.
///
/// Construct one through [`DfgBuilder`]; building fails on cycles, unknown
/// node references and empty graphs, so every `Dfg` in existence is acyclic
/// with consistent adjacency. A topological order is computed once at build
/// time and shared by all analyses.
///
/// # Examples
///
/// ```
/// use chop_dfg::{DfgBuilder, Operation};
/// use chop_stat::units::Bits;
///
/// let mut b = DfgBuilder::new();
/// let w = Bits::new(16);
/// let x = b.node(Operation::Input, w);
/// let y = b.node(Operation::Input, w);
/// let s = b.node(Operation::Add, w);
/// let o = b.node(Operation::Output, w);
/// b.connect(x, s)?;
/// b.connect(y, s)?;
/// b.connect(s, o)?;
/// let dfg = b.build()?;
/// assert_eq!(dfg.len(), 4);
/// assert_eq!(dfg.inputs().count(), 2);
/// # Ok::<(), chop_dfg::BuildDfgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dfg {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    preds: Vec<Vec<EdgeId>>,
    succs: Vec<Vec<EdgeId>>,
    topo: Vec<NodeId>,
}

impl Dfg {
    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true for built graphs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterates over `(id, node)` pairs in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterates over `(id, edge)` pairs in id order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// All node ids, in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Incoming edges of a node.
    #[must_use]
    pub fn preds(&self, id: NodeId) -> &[EdgeId] {
        &self.preds[id.index()]
    }

    /// Outgoing edges of a node.
    #[must_use]
    pub fn succs(&self, id: NodeId) -> &[EdgeId] {
        &self.succs[id.index()]
    }

    /// Predecessor node ids of a node.
    pub fn pred_nodes(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.preds[id.index()].iter().map(move |e| self.edges[e.index()].src)
    }

    /// Successor node ids of a node.
    pub fn succ_nodes(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.succs[id.index()].iter().map(move |e| self.edges[e.index()].dst)
    }

    /// Node ids in a topological order (computed at build time).
    #[must_use]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Ids of primary-input nodes.
    pub fn inputs(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|(_, n)| n.op() == Operation::Input).map(|(id, _)| id)
    }

    /// Ids of primary-output nodes.
    pub fn outputs(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|(_, n)| n.op() == Operation::Output).map(|(id, _)| id)
    }

    /// Histogram of all operations in the graph.
    #[must_use]
    pub fn op_histogram(&self) -> OpHistogram {
        self.nodes.iter().map(Node::op).collect()
    }

    /// Semantic validation beyond the structural checks done at build time.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateDfgError`] found: non-source nodes with no
    /// operands, nodes exceeding their operation's arity, or outputs that
    /// drive consumers.
    pub fn validate(&self) -> Result<(), ValidateDfgError> {
        for (id, node) in self.nodes() {
            let n_preds = self.preds(id).len();
            let is_source = matches!(node.op(), Operation::Input | Operation::Const);
            if !is_source && n_preds == 0 {
                return Err(ValidateDfgError::MissingOperands(id));
            }
            if let Some(max) = node.op().max_operands() {
                if n_preds > max {
                    return Err(ValidateDfgError::TooManyOperands {
                        node: id,
                        found: n_preds,
                        max,
                    });
                }
            }
            if node.op() == Operation::Output && !self.succs(id).is_empty() {
                return Err(ValidateDfgError::OutputHasConsumers(id));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dfg({} nodes, {} values)", self.nodes.len(), self.edges.len())
    }
}

/// Incremental builder for [`Dfg`].
///
/// See [`Dfg`] for a complete example.
#[derive(Debug, Clone, Default)]
pub struct DfgBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl DfgBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    pub fn node(&mut self, op: Operation, width: Bits) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { op, width, label: None });
        id
    }

    /// Adds a labeled node and returns its id.
    pub fn labeled_node(
        &mut self,
        op: Operation,
        width: Bits,
        label: impl Into<String>,
    ) -> NodeId {
        let id = self.node(op, width);
        self.nodes[id.index()].label = Some(label.into());
        id
    }

    /// Connects `src` to `dst` with a value of `src`'s width.
    ///
    /// # Errors
    ///
    /// Returns [`BuildDfgError::UnknownNode`] if either id was not produced
    /// by this builder.
    pub fn connect(&mut self, src: NodeId, dst: NodeId) -> Result<EdgeId, BuildDfgError> {
        let width = self.nodes.get(src.index()).ok_or(BuildDfgError::UnknownNode(src))?.width;
        self.connect_with_width(src, dst, width)
    }

    /// Connects `src` to `dst` with an explicit value width (for width
    /// conversions such as a comparison producing a 1-bit flag).
    ///
    /// # Errors
    ///
    /// Returns [`BuildDfgError::UnknownNode`] if either id was not produced
    /// by this builder.
    pub fn connect_with_width(
        &mut self,
        src: NodeId,
        dst: NodeId,
        width: Bits,
    ) -> Result<EdgeId, BuildDfgError> {
        if src.index() >= self.nodes.len() {
            return Err(BuildDfgError::UnknownNode(src));
        }
        if dst.index() >= self.nodes.len() {
            return Err(BuildDfgError::UnknownNode(dst));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { src, dst, width });
        Ok(id)
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Width of a node previously added to this builder.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this builder.
    #[must_use]
    pub fn width_of(&self, id: NodeId) -> Bits {
        self.nodes[id.index()].width
    }

    /// Whether no nodes have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finalizes the graph: builds adjacency, checks acyclicity and computes
    /// the topological order.
    ///
    /// # Errors
    ///
    /// Returns [`BuildDfgError::Empty`] for an empty builder and
    /// [`BuildDfgError::Cyclic`] if the edges form a directed cycle.
    pub fn build(self) -> Result<Dfg, BuildDfgError> {
        if self.nodes.is_empty() {
            return Err(BuildDfgError::Empty);
        }
        let n = self.nodes.len();
        let mut preds: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            succs[e.src.index()].push(id);
            preds[e.dst.index()].push(id);
        }
        // Kahn's algorithm for topological order / cycle detection.
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut ready: Vec<NodeId> =
            (0..n).filter(|&i| indeg[i] == 0).map(|i| NodeId(i as u32)).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(id) = ready.pop() {
            topo.push(id);
            for &e in &succs[id.index()] {
                let dst = self.edges[e.index()].dst;
                indeg[dst.index()] -= 1;
                if indeg[dst.index()] == 0 {
                    ready.push(dst);
                }
            }
        }
        if topo.len() != n {
            let witness = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| NodeId(i as u32))
                .expect("some node must have positive in-degree in a cycle");
            return Err(BuildDfgError::Cyclic { witness });
        }
        Ok(Dfg { nodes: self.nodes, edges: self.edges, preds, succs, topo })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w16() -> Bits {
        Bits::new(16)
    }

    #[test]
    fn build_simple_chain() {
        let mut b = DfgBuilder::new();
        let a = b.node(Operation::Input, w16());
        let c = b.node(Operation::Add, w16());
        let o = b.node(Operation::Output, w16());
        b.connect(a, c).unwrap();
        b.connect(a, c).unwrap();
        b.connect(c, o).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.preds(c).len(), 2);
        assert_eq!(g.succs(a).len(), 2);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(DfgBuilder::new().build().unwrap_err(), BuildDfgError::Empty);
    }

    #[test]
    fn cycle_rejected() {
        let mut b = DfgBuilder::new();
        let x = b.node(Operation::Add, w16());
        let y = b.node(Operation::Add, w16());
        b.connect(x, y).unwrap();
        b.connect(y, x).unwrap();
        assert!(matches!(b.build().unwrap_err(), BuildDfgError::Cyclic { .. }));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = DfgBuilder::new();
        let x = b.node(Operation::Input, w16());
        let mut other = DfgBuilder::new();
        let y = other.node(Operation::Input, w16());
        let _ = other.node(Operation::Input, w16());
        let bogus = other.node(Operation::Input, w16());
        assert!(b.connect(x, bogus).is_err());
        let _ = y;
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut b = DfgBuilder::new();
        let n: Vec<NodeId> = (0..5).map(|_| b.node(Operation::Add, w16())).collect();
        b.connect(n[0], n[1]).unwrap();
        b.connect(n[1], n[2]).unwrap();
        b.connect(n[0], n[3]).unwrap();
        b.connect(n[3], n[4]).unwrap();
        b.connect(n[2], n[4]).unwrap();
        let g = b.build().unwrap();
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.len()];
            for (i, id) in g.topo_order().iter().enumerate() {
                pos[id.index()] = i;
            }
            pos
        };
        for (_, e) in g.edges() {
            assert!(pos[e.src().index()] < pos[e.dst().index()]);
        }
    }

    #[test]
    fn validate_flags_missing_operands() {
        let mut b = DfgBuilder::new();
        let _ = b.node(Operation::Add, w16());
        let g = b.build().unwrap();
        assert!(matches!(g.validate(), Err(ValidateDfgError::MissingOperands(_))));
    }

    #[test]
    fn validate_flags_arity_overflow() {
        let mut b = DfgBuilder::new();
        let i1 = b.node(Operation::Input, w16());
        let i2 = b.node(Operation::Input, w16());
        let i3 = b.node(Operation::Input, w16());
        let add = b.node(Operation::Add, w16());
        b.connect(i1, add).unwrap();
        b.connect(i2, add).unwrap();
        b.connect(i3, add).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(g.validate(), Err(ValidateDfgError::TooManyOperands { .. })));
    }

    #[test]
    fn validate_flags_output_consumers() {
        let mut b = DfgBuilder::new();
        let i = b.node(Operation::Input, w16());
        let o = b.node(Operation::Output, w16());
        let o2 = b.node(Operation::Output, w16());
        b.connect(i, o).unwrap();
        b.connect(o, o2).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(g.validate(), Err(ValidateDfgError::OutputHasConsumers(_))));
    }

    #[test]
    fn labels_round_trip() {
        let mut b = DfgBuilder::new();
        let x = b.labeled_node(Operation::Input, w16(), "x0");
        let g = {
            let o = b.node(Operation::Output, w16());
            b.connect(x, o).unwrap();
            b.build().unwrap()
        };
        assert_eq!(g.node(x).label(), Some("x0"));
    }

    #[test]
    fn explicit_width_edges() {
        let mut b = DfgBuilder::new();
        let i1 = b.node(Operation::Input, w16());
        let i2 = b.node(Operation::Input, w16());
        let c = b.node(Operation::Compare, Bits::new(1));
        b.connect(i1, c).unwrap();
        b.connect(i2, c).unwrap();
        let o = b.node(Operation::Output, Bits::new(1));
        b.connect_with_width(c, o, Bits::new(1)).unwrap();
        let g = b.build().unwrap();
        let out_edge = g.succs(c)[0];
        assert_eq!(g.edge(out_edge).width(), Bits::new(1));
    }
}
