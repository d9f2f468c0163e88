//! The tentative partitioning: partitions, chip assignments and memories.

use std::fmt;
use std::sync::{Arc, OnceLock};

use chop_dfg::grouping::{extract_group, Grouping, GroupingError};
use chop_dfg::hash::structural_hash;
use chop_dfg::{Dfg, NodeId};
use chop_library::{ChipId, ChipSet, MemoryId, MemoryModule, MemoryPlacement};

/// Identifier of a partition within one [`Partitioning`].
///
/// # Examples
///
/// ```
/// use chop_core::PartitionId;
///
/// assert_eq!(PartitionId::new(0).to_string(), "P1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartitionId(u32);

impl PartitionId {
    /// Creates a partition id from a zero-based index.
    #[must_use]
    pub fn new(index: u32) -> Self {
        Self(index)
    }

    /// The zero-based index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Paper numbering is one-based (P1…P5 in Fig. 2).
        write!(f, "P{}", self.0 + 1)
    }
}

/// Where a memory block lives relative to the chip set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryAssignment {
    /// Placed on a chip of the set (consumes that chip's project area).
    OnChip(ChipId),
    /// An off-the-shelf part outside the chip set (consumes pins only).
    External,
}

impl fmt::Display for MemoryAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryAssignment::OnChip(c) => write!(f, "on {c}"),
            MemoryAssignment::External => write!(f, "external"),
        }
    }
}

/// The most partitions a horizontal cut may ask for. Building a
/// partitioning costs time and memory in `nodes × partitions`, and a
/// service builds it on the thread that serves every connection, so a
/// request may not choose an unbounded count. The paper uses at most 3.
pub const MAX_PARTITIONS: usize = 64;

/// Error validating a [`Partitioning`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The chip set is empty.
    NoChips,
    /// A horizontal cut asked for a partition count outside `1..=max`,
    /// where `max` is the node count capped at [`MAX_PARTITIONS`].
    PartitionCount {
        /// Partitions requested.
        requested: usize,
        /// The largest count this specification admits.
        max: usize,
    },
    /// The partition→chip assignment does not cover every partition.
    ChipAssignmentLength {
        /// Partitions in the grouping.
        partitions: usize,
        /// Assignments supplied.
        assignments: usize,
    },
    /// A partition was assigned to a chip outside the set.
    UnknownChip(ChipId),
    /// The DFG references a memory block that was not declared.
    UndeclaredMemory(u32),
    /// A memory declared [`MemoryPlacement::OnChip`] was assigned
    /// [`MemoryAssignment::External`] or vice versa.
    PlacementMismatch(MemoryId),
    /// A memory was assigned to a chip outside the set.
    MemoryOnUnknownChip(MemoryId, ChipId),
    /// The memory assignment list does not match the memory list.
    MemoryAssignmentLength {
        /// Declared memories.
        memories: usize,
        /// Assignments supplied.
        assignments: usize,
    },
    /// A constraint value is not a positive, finite quantity (the named
    /// field is the offender).
    InvalidConstraint(&'static str),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoChips => write!(f, "chip set is empty"),
            SpecError::PartitionCount { requested, max } => {
                write!(f, "partition count {requested} is outside 1..={max}")
            }
            SpecError::ChipAssignmentLength { partitions, assignments } => {
                write!(f, "{assignments} chip assignments supplied for {partitions} partitions")
            }
            SpecError::UnknownChip(c) => write!(f, "partition assigned to unknown {c}"),
            SpecError::UndeclaredMemory(m) => {
                write!(f, "data flow graph references undeclared memory block M{m}")
            }
            SpecError::PlacementMismatch(m) => {
                write!(f, "memory {m} placement style conflicts with its assignment")
            }
            SpecError::MemoryOnUnknownChip(m, c) => {
                write!(f, "memory {m} assigned to unknown {c}")
            }
            SpecError::MemoryAssignmentLength { memories, assignments } => {
                write!(f, "{assignments} memory assignments supplied for {memories} memories")
            }
            SpecError::InvalidConstraint(what) => {
                write!(f, "constraint {what} must be a positive, finite quantity")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A validated tentative partitioning: the behavioral DFG, its node
/// grouping into partitions, the chip set, the partition→chip map and the
/// memory blocks with their chip assignments.
///
/// Multiple partitions may share one chip, and memory blocks may share
/// chips with partitions — exactly the flexibility of the paper's Fig. 2
/// example.
///
/// Construct through [`PartitioningBuilder`]. The DFG is shared: every
/// partitioning derived from this one (a node move, a chip swap) and
/// every session holding one point at the same graph.
#[derive(Clone)]
pub struct Partitioning {
    dfg: Arc<Dfg>,
    grouping: Grouping,
    chips: ChipSet,
    partition_chip: Vec<ChipId>,
    memories: Vec<MemoryModule>,
    memory_assignment: Vec<MemoryAssignment>,
    /// Per partition, the structural hash of its extracted DFG once an
    /// exploration has keyed it (`partition_hash`). Shared by clones, so
    /// exploring a cloned session fills the original's memo; a derived
    /// partitioning keeps the hash of every partition whose members are
    /// unchanged, since extraction depends on membership alone.
    hashes: Arc<[OnceLock<u64>]>,
}

/// Equality ignores the hash memo: it only caches values derived from the
/// other fields.
impl PartialEq for Partitioning {
    fn eq(&self, other: &Self) -> bool {
        self.dfg == other.dfg
            && self.grouping == other.grouping
            && self.chips == other.chips
            && self.partition_chip == other.partition_chip
            && self.memories == other.memories
            && self.memory_assignment == other.memory_assignment
    }
}

/// Leaves out the hash memo, like [`PartialEq`].
impl fmt::Debug for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Partitioning")
            .field("dfg", &self.dfg)
            .field("grouping", &self.grouping)
            .field("chips", &self.chips)
            .field("partition_chip", &self.partition_chip)
            .field("memories", &self.memories)
            .field("memory_assignment", &self.memory_assignment)
            .finish()
    }
}

/// An empty hash memo for `k` partitions.
fn unhashed(k: usize) -> Arc<[OnceLock<u64>]> {
    (0..k).map(|_| OnceLock::new()).collect()
}

impl Partitioning {
    /// The behavioral specification.
    #[must_use]
    pub fn dfg(&self) -> &Dfg {
        &self.dfg
    }

    /// The node grouping defining the partitions.
    #[must_use]
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// The chip set.
    #[must_use]
    pub fn chips(&self) -> &ChipSet {
        &self.chips
    }

    /// Number of partitions.
    #[must_use]
    pub fn partition_count(&self) -> usize {
        self.grouping.group_count()
    }

    /// All partition ids.
    pub fn partition_ids(&self) -> impl Iterator<Item = PartitionId> + '_ {
        (0..self.partition_count()).map(|i| PartitionId::new(i as u32))
    }

    /// The chip a partition is assigned to.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn chip_of(&self, p: PartitionId) -> ChipId {
        self.partition_chip[p.index()]
    }

    /// Partitions assigned to a chip.
    #[must_use]
    pub fn partitions_on(&self, chip: ChipId) -> Vec<PartitionId> {
        self.partition_ids().filter(|p| self.chip_of(*p) == chip).collect()
    }

    /// The declared memory blocks.
    #[must_use]
    pub fn memories(&self) -> &[MemoryModule] {
        &self.memories
    }

    /// Assignment of a memory block.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[must_use]
    pub fn memory_assignment(&self, m: MemoryId) -> MemoryAssignment {
        self.memory_assignment[m.index()]
    }

    /// Extracts the self-contained sub-DFG of one partition (cut values
    /// become primary I/O) for prediction.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn partition_dfg(&self, p: PartitionId) -> Dfg {
        extract_group(&self.dfg, &self.grouping, p.index())
    }

    /// The structural hash of [`Partitioning::partition_dfg`], memoised
    /// for this partitioning, its clones and the partitionings derived
    /// from it that keep the partition's members. The call that computes
    /// it leaves the extracted DFG in `extracted` for the caller to reuse.
    pub(crate) fn partition_hash(&self, p: PartitionId, extracted: &mut Option<Dfg>) -> u64 {
        let memo = &self.hashes[p.index()];
        if let Some(&hash) = memo.get() {
            debug_assert_eq!(
                hash,
                structural_hash(&self.partition_dfg(p)),
                "memoised structural hash of partition {p} is stale"
            );
            return hash;
        }
        *memo.get_or_init(|| structural_hash(extracted.insert(self.partition_dfg(p))))
    }

    /// Each partition's memoised structural hash, if computed yet.
    #[cfg(test)]
    pub(crate) fn memoised_hashes(&self) -> Vec<Option<u64>> {
        self.hashes.iter().map(|memo| memo.get().copied()).collect()
    }

    /// Inter-partition cut values (constant-fed values excluded — constants
    /// are replicated into their consuming partition rather than
    /// transferred between chips).
    #[must_use]
    pub fn inter_partition_cuts(&self) -> Vec<chop_dfg::grouping::CutValue> {
        let mut filtered: Vec<chop_dfg::grouping::CutValue> = Vec::new();
        let mut agg: std::collections::BTreeMap<(usize, usize), (u64, usize)> =
            std::collections::BTreeMap::new();
        for (_, e) in self.dfg.edges() {
            let sg = self.grouping.group_of(e.src());
            let dg = self.grouping.group_of(e.dst());
            if sg != dg && self.dfg.node(e.src()).op() != chop_dfg::Operation::Const {
                let entry = agg.entry((sg, dg)).or_insert((0, 0));
                entry.0 += e.width().value();
                entry.1 += 1;
            }
        }
        for ((src_group, dst_group), (bits, values)) in agg {
            filtered.push(chop_dfg::grouping::CutValue {
                src_group,
                dst_group,
                bits: chop_stat::units::Bits::new(bits),
                values,
            });
        }
        filtered
    }

    /// Returns a copy with one node moved to a different partition
    /// ("operation migrations from partition to partition", paper §2.7).
    ///
    /// # Errors
    ///
    /// Returns a [`GroupingError`] if `to` is not a partition of this
    /// partitioning, the move empties a partition, or it creates mutual
    /// data dependency.
    pub fn with_node_moved(
        &self,
        node: NodeId,
        to: PartitionId,
    ) -> Result<Self, GroupingError> {
        self.with_nodes_moved(&[(node, to)])
    }

    /// Returns a copy with several nodes moved *atomically*: every move is
    /// applied to the grouping first, then the structural invariants (no
    /// empty partition, no mutual data dependency) are checked once on the
    /// final state. This is the primitive behind grouped optimizer moves
    /// and journal replay of an accepted move trace — intermediate states
    /// that would be individually invalid (a group migration that
    /// transiently empties a partition) are fine as long as the final
    /// grouping is valid. Later moves of the same node override earlier
    /// ones.
    ///
    /// # Errors
    ///
    /// Returns a [`GroupingError`] if any target is not a partition of
    /// this partitioning, or the final grouping empties a partition or
    /// creates mutual data dependency.
    pub fn with_nodes_moved(
        &self,
        moves: &[(NodeId, PartitionId)],
    ) -> Result<Self, GroupingError> {
        let mut moved = self.grouping.clone();
        for &(node, to) in moves {
            if to.index() >= moved.group_count() {
                return Err(GroupingError::GroupOutOfRange {
                    node,
                    group: to.index(),
                    groups: moved.group_count(),
                });
            }
            moved.move_node(node, to.index());
        }
        if let Some(empty) = moved.group_sizes().iter().position(|&n| n == 0) {
            return Err(GroupingError::EmptyGroup(empty));
        }
        moved.check_no_mutual_dependency(&self.dfg)?;
        Ok(self.with_grouping_unchecked(moved))
    }

    /// A copy on another grouping of the same DFG, sharing the DFG and
    /// the memoised hash of every partition that keeps its members. The
    /// caller guarantees the grouping is valid for it: no empty group and
    /// no mutual data dependency (see [`Partitioning::with_nodes_moved`]).
    pub(crate) fn with_grouping_unchecked(&self, grouping: Grouping) -> Self {
        debug_assert_eq!(grouping.group_count(), self.partition_count());
        let mut hashes = self.hashes.to_vec();
        for (node, _) in self.dfg.nodes() {
            let (from, to) = (self.grouping.group_of(node), grouping.group_of(node));
            if from != to {
                hashes[from] = OnceLock::new();
                hashes[to] = OnceLock::new();
            }
        }
        Self {
            dfg: Arc::clone(&self.dfg),
            grouping,
            chips: self.chips.clone(),
            partition_chip: self.partition_chip.clone(),
            memories: self.memories.clone(),
            memory_assignment: self.memory_assignment.clone(),
            hashes: hashes.into(),
        }
    }

    /// Returns a copy with a partition migrated to another chip
    /// ("migration of partitions from chip to chip", paper §2.7).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnknownChip`] if `chip` is outside the set.
    pub fn with_partition_on_chip(
        &self,
        p: PartitionId,
        chip: ChipId,
    ) -> Result<Self, SpecError> {
        if chip.index() >= self.chips.len() {
            return Err(SpecError::UnknownChip(chip));
        }
        let mut next = self.clone();
        next.partition_chip[p.index()] = chip;
        Ok(next)
    }

    /// Returns a copy with an on-chip memory block reassigned to another
    /// chip ("the assignments of memory blocks can also be changed to
    /// possibly decrease the number of off-chip memory accesses", §2.7).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::MemoryOnUnknownChip`] for a chip outside the
    /// set and [`SpecError::PlacementMismatch`] for off-the-shelf parts,
    /// which live outside the chip set by definition.
    pub fn with_memory_on_chip(&self, m: MemoryId, chip: ChipId) -> Result<Self, SpecError> {
        if chip.index() >= self.chips.len() {
            return Err(SpecError::MemoryOnUnknownChip(m, chip));
        }
        if self.memories[m.index()].placement() != MemoryPlacement::OnChip {
            return Err(SpecError::PlacementMismatch(m));
        }
        let mut next = self.clone();
        next.memory_assignment[m.index()] = MemoryAssignment::OnChip(chip);
        Ok(next)
    }

    /// Re-checks the structural invariants [`PartitioningBuilder::build`]
    /// established: a non-empty chip set, every partition and on-chip
    /// memory assigned to a chip inside the set, and matching memory /
    /// assignment list lengths. Construction through the builder
    /// guarantees these; the check exists for values that cross a trust
    /// boundary (a protocol decode, a hand-assembled what-if edit) before
    /// they are installed into a [`Session`](crate::Session).
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.chips.is_empty() {
            return Err(SpecError::NoChips);
        }
        if self.partition_chip.len() != self.partition_count() {
            return Err(SpecError::ChipAssignmentLength {
                partitions: self.partition_count(),
                assignments: self.partition_chip.len(),
            });
        }
        if let Some(&c) = self.partition_chip.iter().find(|c| c.index() >= self.chips.len()) {
            return Err(SpecError::UnknownChip(c));
        }
        if self.memory_assignment.len() != self.memories.len() {
            return Err(SpecError::MemoryAssignmentLength {
                memories: self.memories.len(),
                assignments: self.memory_assignment.len(),
            });
        }
        for (i, assign) in self.memory_assignment.iter().enumerate() {
            if let MemoryAssignment::OnChip(c) = assign {
                if c.index() >= self.chips.len() {
                    return Err(SpecError::MemoryOnUnknownChip(MemoryId::new(i as u32), *c));
                }
            }
        }
        Ok(())
    }

    /// Returns a copy with a different chip set (same length), the
    /// "target chip set" modification of §2.7.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::NoChips`] if the new set is empty, or
    /// [`SpecError::UnknownChip`] if it has fewer chips than some partition
    /// assignment requires.
    pub fn with_chip_set(&self, chips: ChipSet) -> Result<Self, SpecError> {
        if chips.is_empty() {
            return Err(SpecError::NoChips);
        }
        if let Some(&c) = self.partition_chip.iter().find(|c| c.index() >= chips.len()) {
            return Err(SpecError::UnknownChip(c));
        }
        Ok(Self { chips, ..self.clone() })
    }
}

impl fmt::Display for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Partitioning({} partitions on {} chips, {} memories)",
            self.partition_count(),
            self.chips.len(),
            self.memories.len()
        )
    }
}

/// Builder for [`Partitioning`].
///
/// # Examples
///
/// ```
/// use chop_core::spec::PartitioningBuilder;
/// use chop_dfg::benchmarks;
/// use chop_library::standard::table2_packages;
/// use chop_library::ChipSet;
///
/// let dfg = benchmarks::ar_lattice_filter();
/// let chips = ChipSet::uniform(table2_packages()[1].clone(), 3);
/// let p = PartitioningBuilder::new(dfg, chips)
///     .split_horizontal(3)
///     .build()?;
/// assert_eq!(p.partition_count(), 3);
/// // Default assignment: partition i on chip i.
/// assert_eq!(p.chip_of(chop_core::PartitionId::new(2)).index(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PartitioningBuilder {
    dfg: Dfg,
    chips: ChipSet,
    /// The grouping to build with, or the error a bad horizontal cut
    /// reports from [`build`](Self::build).
    grouping: Option<Result<Grouping, SpecError>>,
    partition_chip: Option<Vec<ChipId>>,
    memories: Vec<MemoryModule>,
    memory_assignment: Vec<MemoryAssignment>,
}

impl PartitioningBuilder {
    /// Starts a builder from a specification and a chip set.
    #[must_use]
    pub fn new(dfg: Dfg, chips: ChipSet) -> Self {
        Self {
            dfg,
            chips,
            grouping: None,
            partition_chip: None,
            memories: Vec::new(),
            memory_assignment: Vec::new(),
        }
    }

    /// Splits the graph into `k` topological slices of roughly equal size —
    /// the "horizontal cut" partitioning of the paper's experiments. A `k`
    /// of zero, above the node count or above [`MAX_PARTITIONS`] makes
    /// [`build`](Self::build) return [`SpecError::PartitionCount`].
    #[must_use]
    pub fn split_horizontal(mut self, k: usize) -> Self {
        let max = self.dfg.len().min(MAX_PARTITIONS);
        self.grouping = Some(if (1..=max).contains(&k) {
            Ok(Grouping::horizontal(&self.dfg, k))
        } else {
            Err(SpecError::PartitionCount { requested: k, max })
        });
        self
    }

    /// Uses an explicit node grouping.
    #[must_use]
    pub fn with_grouping(mut self, grouping: Grouping) -> Self {
        self.grouping = Some(Ok(grouping));
        self
    }

    /// Assigns partitions to chips explicitly (defaults to partition *i* on
    /// chip *i mod chips*).
    #[must_use]
    pub fn with_chip_assignment(mut self, assignment: Vec<ChipId>) -> Self {
        self.partition_chip = Some(assignment);
        self
    }

    /// Declares a memory block and its assignment.
    #[must_use]
    pub fn with_memory(mut self, memory: MemoryModule, assignment: MemoryAssignment) -> Self {
        self.memories.push(memory);
        self.memory_assignment.push(assignment);
        self
    }

    /// Validates and builds the partitioning.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] or [`GroupingError`] (via [`BuildError`])
    /// describing the first problem found: a partition count outside
    /// `1..=min(nodes, MAX_PARTITIONS)`, empty chip set, bad chip ids,
    /// undeclared memories, placement mismatches or mutual data
    /// dependency between partitions.
    pub fn build(self) -> Result<Partitioning, BuildError> {
        let grouping = match self.grouping {
            Some(g) => g?,
            None => Grouping::single(&self.dfg),
        };
        if self.chips.is_empty() {
            return Err(SpecError::NoChips.into());
        }
        grouping.check_no_mutual_dependency(&self.dfg)?;
        let k = grouping.group_count();
        let partition_chip = match self.partition_chip {
            Some(a) => {
                if a.len() != k {
                    return Err(SpecError::ChipAssignmentLength {
                        partitions: k,
                        assignments: a.len(),
                    }
                    .into());
                }
                a
            }
            None => (0..k).map(|i| ChipId::new((i % self.chips.len()) as u32)).collect(),
        };
        for &c in &partition_chip {
            if c.index() >= self.chips.len() {
                return Err(SpecError::UnknownChip(c).into());
            }
        }
        if self.memory_assignment.len() != self.memories.len() {
            return Err(SpecError::MemoryAssignmentLength {
                memories: self.memories.len(),
                assignments: self.memory_assignment.len(),
            }
            .into());
        }
        // Every memory the DFG touches must be declared.
        for (_, node) in self.dfg.nodes() {
            if let Some(m) = node.op().memory() {
                if m.index() as usize >= self.memories.len() {
                    return Err(SpecError::UndeclaredMemory(m.index()).into());
                }
            }
        }
        // Placement style must agree with the assignment.
        for (i, (mem, assign)) in self.memories.iter().zip(&self.memory_assignment).enumerate()
        {
            let id = MemoryId::new(i as u32);
            match (mem.placement(), assign) {
                (MemoryPlacement::OnChip, MemoryAssignment::OnChip(c)) => {
                    if c.index() >= self.chips.len() {
                        return Err(SpecError::MemoryOnUnknownChip(id, *c).into());
                    }
                }
                (MemoryPlacement::OffTheShelf, MemoryAssignment::External) => {}
                _ => return Err(SpecError::PlacementMismatch(id).into()),
            }
        }
        Ok(Partitioning {
            dfg: Arc::new(self.dfg),
            grouping,
            chips: self.chips,
            partition_chip,
            memories: self.memories,
            memory_assignment: self.memory_assignment,
            hashes: unhashed(k),
        })
    }
}

/// Error from [`PartitioningBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A structural specification error.
    Spec(SpecError),
    /// A grouping error (mutual dependency, empty group…).
    Grouping(GroupingError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Spec(e) => e.fmt(f),
            BuildError::Grouping(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<SpecError> for BuildError {
    fn from(e: SpecError) -> Self {
        BuildError::Spec(e)
    }
}

impl From<GroupingError> for BuildError {
    fn from(e: GroupingError) -> Self {
        BuildError::Grouping(e)
    }
}

#[cfg(test)]
mod tests {
    use chop_dfg::benchmarks;
    use chop_dfg::grouping::cut_values;
    use chop_library::standard::{example_off_shelf_ram, example_on_chip_ram, table2_packages};

    use super::*;

    fn chips(n: usize) -> ChipSet {
        ChipSet::uniform(table2_packages()[1].clone(), n)
    }

    #[test]
    fn build_default_single_partition() {
        let p = PartitioningBuilder::new(benchmarks::ar_lattice_filter(), chips(1))
            .build()
            .unwrap();
        assert_eq!(p.partition_count(), 1);
        assert_eq!(p.partitions_on(ChipId::new(0)).len(), 1);
    }

    #[test]
    fn empty_chipset_rejected() {
        let err =
            PartitioningBuilder::new(benchmarks::diffeq(), ChipSet::new()).build().unwrap_err();
        assert_eq!(err, BuildError::Spec(SpecError::NoChips));
    }

    #[test]
    fn out_of_range_horizontal_cut_is_a_typed_error() {
        let dfg = benchmarks::diffeq();
        let nodes = dfg.len();
        for k in [0, nodes + 1] {
            let err = PartitioningBuilder::new(dfg.clone(), chips(k.max(1)))
                .split_horizontal(k)
                .build()
                .unwrap_err();
            assert_eq!(
                err,
                BuildError::Spec(SpecError::PartitionCount { requested: k, max: nodes })
            );
        }
    }

    #[test]
    fn chip_assignment_length_checked() {
        let err = PartitioningBuilder::new(benchmarks::ar_lattice_filter(), chips(2))
            .split_horizontal(2)
            .with_chip_assignment(vec![ChipId::new(0)])
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::Spec(SpecError::ChipAssignmentLength { .. })));
    }

    #[test]
    fn unknown_chip_rejected() {
        let err = PartitioningBuilder::new(benchmarks::ar_lattice_filter(), chips(1))
            .split_horizontal(2)
            .with_chip_assignment(vec![ChipId::new(0), ChipId::new(7)])
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::Spec(SpecError::UnknownChip(_))));
    }

    #[test]
    fn two_partitions_share_a_chip() {
        let p = PartitioningBuilder::new(benchmarks::ar_lattice_filter(), chips(1))
            .split_horizontal(2)
            .with_chip_assignment(vec![ChipId::new(0), ChipId::new(0)])
            .build()
            .unwrap();
        assert_eq!(p.partitions_on(ChipId::new(0)).len(), 2);
    }

    #[test]
    fn undeclared_memory_rejected() {
        use chop_dfg::{DfgBuilder, MemoryRef, Operation};
        use chop_stat::units::Bits;
        let mut b = DfgBuilder::new();
        let w = Bits::new(16);
        let i = b.node(Operation::Input, w);
        let r = b.node(Operation::MemRead(MemoryRef::new(0)), w);
        b.connect(i, r).unwrap();
        let o = b.node(Operation::Output, w);
        b.connect(r, o).unwrap();
        let g = b.build().unwrap();
        let err = PartitioningBuilder::new(g, chips(1)).build().unwrap_err();
        assert!(matches!(err, BuildError::Spec(SpecError::UndeclaredMemory(0))));
    }

    #[test]
    fn placement_mismatch_rejected() {
        let err = PartitioningBuilder::new(benchmarks::ar_lattice_filter(), chips(1))
            .with_memory(example_on_chip_ram(), MemoryAssignment::External)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::Spec(SpecError::PlacementMismatch(_))));
    }

    #[test]
    fn off_the_shelf_memory_accepted() {
        let p = PartitioningBuilder::new(benchmarks::ar_lattice_filter(), chips(1))
            .with_memory(example_off_shelf_ram(), MemoryAssignment::External)
            .build()
            .unwrap();
        assert_eq!(p.memories().len(), 1);
        assert_eq!(p.memory_assignment(MemoryId::new(0)), MemoryAssignment::External);
    }

    #[test]
    fn partition_dfg_is_predictable() {
        let p = PartitioningBuilder::new(benchmarks::ar_lattice_filter(), chips(2))
            .split_horizontal(2)
            .build()
            .unwrap();
        for pid in p.partition_ids() {
            let sub = p.partition_dfg(pid);
            assert!(sub.validate().is_ok());
        }
    }

    #[test]
    fn inter_partition_cuts_exclude_constants() {
        let p = PartitioningBuilder::new(benchmarks::ar_lattice_filter(), chips(2))
            .split_horizontal(2)
            .build()
            .unwrap();
        let filtered = p.inter_partition_cuts();
        let raw = cut_values(p.dfg(), p.grouping());
        let f_bits: u64 = filtered.iter().map(|c| c.bits.value()).sum();
        let r_bits: u64 = raw.iter().map(|c| c.bits.value()).sum();
        assert!(f_bits <= r_bits);
    }

    #[test]
    fn node_move_roundtrip() {
        let p = PartitioningBuilder::new(benchmarks::ar_lattice_filter(), chips(2))
            .split_horizontal(2)
            .build()
            .unwrap();
        let node = p.grouping().members(0)[0];
        // Moving most nodes forward violates nothing structural; if it
        // introduces mutual dependency the API must say so.
        match p.with_node_moved(node, PartitionId::new(1)) {
            Ok(moved) => assert_eq!(moved.grouping().group_of(node), 1),
            Err(e) => assert!(matches!(e, GroupingError::MutualDependency(_, _))),
        }
    }

    #[test]
    fn nodes_move_atomically_with_one_final_validation() {
        let p = PartitioningBuilder::new(benchmarks::ar_lattice_filter(), chips(2))
            .split_horizontal(2)
            .build()
            .unwrap();
        // Swapping two whole partitions transits through states that are
        // individually invalid (one partition transiently empty); the
        // atomic form validates only the final grouping.
        let back: Vec<_> = p
            .grouping()
            .members(1)
            .into_iter()
            .map(|n| (n, PartitionId::new(0)))
            .chain(p.grouping().members(0).into_iter().map(|n| (n, PartitionId::new(1))))
            .collect();
        let swapped = p.with_nodes_moved(&back);
        match swapped {
            Ok(s) => {
                assert_eq!(s.partition_count(), 2);
                assert!(s.validate().is_ok());
            }
            Err(e) => assert!(matches!(e, GroupingError::MutualDependency(_, _))),
        }
        // A final state that empties a partition is still rejected.
        let drain: Vec<_> =
            p.grouping().members(0).into_iter().map(|n| (n, PartitionId::new(1))).collect();
        assert!(matches!(p.with_nodes_moved(&drain), Err(GroupingError::EmptyGroup(0))));
        // An out-of-range target names the offending node.
        let node = p.grouping().members(0)[0];
        assert!(matches!(
            p.with_nodes_moved(&[(node, PartitionId::new(9))]),
            Err(GroupingError::GroupOutOfRange { .. })
        ));
    }

    #[test]
    fn built_partitionings_revalidate() {
        let p = PartitioningBuilder::new(benchmarks::ar_lattice_filter(), chips(2))
            .split_horizontal(2)
            .with_memory(example_off_shelf_ram(), MemoryAssignment::External)
            .build()
            .unwrap();
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn invalid_constraint_display_names_field() {
        let e = SpecError::InvalidConstraint("performance");
        assert!(e.to_string().contains("performance"));
    }

    #[test]
    fn chip_set_swap() {
        let p = PartitioningBuilder::new(benchmarks::ar_lattice_filter(), chips(2))
            .split_horizontal(2)
            .build()
            .unwrap();
        let smaller = ChipSet::uniform(table2_packages()[0].clone(), 2);
        let swapped = p.with_chip_set(smaller).unwrap();
        assert_eq!(swapped.chips().chip(ChipId::new(0)).pins(), 64);
        assert!(p.with_chip_set(ChipSet::new()).is_err());
        let too_few = ChipSet::uniform(table2_packages()[0].clone(), 1);
        assert!(p.with_chip_set(too_few).is_err());
    }
}
