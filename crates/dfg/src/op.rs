//! Operation kinds carried by DFG nodes.

use std::collections::BTreeMap;
use std::fmt;

/// Reference to a memory block declared in the partitioning environment.
///
/// The DFG itself does not know memory geometry; it only records *which*
/// memory block an access touches so that CHOP can compute per-block
/// bandwidth requirements (paper §2.4: BAD reports "memory bandwidth
/// requirements for each memory block").
///
/// # Examples
///
/// ```
/// use chop_dfg::MemoryRef;
///
/// let m = MemoryRef::new(0);
/// assert_eq!(m.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemoryRef(u32);

impl MemoryRef {
    /// Creates a reference to the memory block with the given index.
    #[must_use]
    pub fn new(index: u32) -> Self {
        Self(index)
    }

    /// The referenced memory-block index.
    #[must_use]
    pub fn index(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for MemoryRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// The operation performed by a DFG node.
///
/// I/O operations are modeled explicitly; memory accesses are modeled as
/// memory-mapped I/O against a [`MemoryRef`], exactly as the paper does.
///
/// # Examples
///
/// ```
/// use chop_dfg::{OpClass, Operation};
///
/// assert_eq!(Operation::Add.class(), Some(OpClass::Addition));
/// assert!(Operation::Input.is_io());
/// assert!(!Operation::Mul.is_io());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operation {
    /// Primary input of the specification.
    Input,
    /// Primary output of the specification.
    Output,
    /// A compile-time constant source.
    Const,
    /// Two's-complement addition.
    Add,
    /// Two's-complement subtraction (binds to addition-class modules).
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Bitwise/logic operation (AND, OR, XOR, NOT …).
    Logic,
    /// Shift by a constant or variable amount.
    Shift,
    /// Magnitude comparison.
    Compare,
    /// Read from a memory block.
    MemRead(MemoryRef),
    /// Write to a memory block.
    MemWrite(MemoryRef),
}

impl Operation {
    /// The functional-unit class implementing this operation, or `None` for
    /// operations (I/O, constants, memory accesses) that do not occupy a
    /// datapath functional unit.
    #[must_use]
    pub fn class(&self) -> Option<OpClass> {
        match self {
            Operation::Add | Operation::Sub => Some(OpClass::Addition),
            Operation::Mul => Some(OpClass::Multiplication),
            Operation::Div => Some(OpClass::Division),
            Operation::Logic => Some(OpClass::Logic),
            Operation::Shift => Some(OpClass::Shift),
            Operation::Compare => Some(OpClass::Comparison),
            Operation::Input
            | Operation::Output
            | Operation::Const
            | Operation::MemRead(_)
            | Operation::MemWrite(_) => None,
        }
    }

    /// Whether this is a primary input or output.
    #[must_use]
    pub fn is_io(&self) -> bool {
        matches!(self, Operation::Input | Operation::Output)
    }

    /// Whether this operation accesses a memory block.
    #[must_use]
    pub fn is_memory_access(&self) -> bool {
        matches!(self, Operation::MemRead(_) | Operation::MemWrite(_))
    }

    /// The memory block this operation accesses, if any.
    #[must_use]
    pub fn memory(&self) -> Option<MemoryRef> {
        match self {
            Operation::MemRead(m) | Operation::MemWrite(m) => Some(*m),
            _ => None,
        }
    }

    /// Maximum number of data operands this operation accepts, or `None`
    /// when unbounded (outputs and memory writes take exactly what they are
    /// given; logic is treated as binary here).
    #[must_use]
    pub fn max_operands(&self) -> Option<usize> {
        match self {
            Operation::Input | Operation::Const => Some(0),
            Operation::MemRead(_) => Some(1),
            Operation::Output => Some(1),
            Operation::MemWrite(_) => Some(2),
            Operation::Add
            | Operation::Sub
            | Operation::Mul
            | Operation::Div
            | Operation::Logic
            | Operation::Shift
            | Operation::Compare => Some(2),
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Input => write!(f, "in"),
            Operation::Output => write!(f, "out"),
            Operation::Const => write!(f, "const"),
            Operation::Add => write!(f, "+"),
            Operation::Sub => write!(f, "-"),
            Operation::Mul => write!(f, "*"),
            Operation::Div => write!(f, "/"),
            Operation::Logic => write!(f, "logic"),
            Operation::Shift => write!(f, "shift"),
            Operation::Compare => write!(f, "cmp"),
            Operation::MemRead(m) => write!(f, "rd[{m}]"),
            Operation::MemWrite(m) => write!(f, "wr[{m}]"),
        }
    }
}

/// Functional-unit classes a component library can implement.
///
/// # Examples
///
/// ```
/// use chop_dfg::OpClass;
///
/// assert_eq!(OpClass::Addition.to_string(), "Addition");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Adders/subtracters.
    Addition,
    /// Multipliers.
    Multiplication,
    /// Dividers.
    Division,
    /// Logic units.
    Logic,
    /// Shifters.
    Shift,
    /// Comparators.
    Comparison,
}

impl OpClass {
    /// All functional-unit classes, in a stable order.
    pub const ALL: [OpClass; 6] = [
        OpClass::Addition,
        OpClass::Multiplication,
        OpClass::Division,
        OpClass::Logic,
        OpClass::Shift,
        OpClass::Comparison,
    ];
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Addition => "Addition",
            OpClass::Multiplication => "Multiplication",
            OpClass::Division => "Division",
            OpClass::Logic => "Logic",
            OpClass::Shift => "Shift",
            OpClass::Comparison => "Comparison",
        };
        f.write_str(s)
    }
}

/// Histogram of operations in a DFG or a subset of one.
///
/// # Examples
///
/// ```
/// use chop_dfg::{benchmarks, OpClass};
///
/// let h = benchmarks::ar_lattice_filter().op_histogram();
/// assert!(h.count_class(OpClass::Multiplication) > h.count_class(OpClass::Division));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpHistogram {
    counts: BTreeMap<Operation, usize>,
}

impl OpHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one occurrence of `op`.
    pub fn record(&mut self, op: Operation) {
        *self.counts.entry(op).or_insert(0) += 1;
    }

    /// Occurrences of an exact operation.
    #[must_use]
    pub fn count(&self, op: Operation) -> usize {
        self.counts.get(&op).copied().unwrap_or(0)
    }

    /// Occurrences of all operations in a functional-unit class.
    #[must_use]
    pub fn count_class(&self, class: OpClass) -> usize {
        self.counts.iter().filter(|(op, _)| op.class() == Some(class)).map(|(_, n)| n).sum()
    }

    /// Total number of recorded operations.
    #[must_use]
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Iterates over `(operation, count)` pairs in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (Operation, usize)> + '_ {
        self.counts.iter().map(|(op, n)| (*op, *n))
    }

    /// The functional-unit classes present, in a stable order.
    #[must_use]
    pub fn classes(&self) -> Vec<OpClass> {
        let mut classes: Vec<OpClass> =
            OpClass::ALL.into_iter().filter(|c| self.count_class(*c) > 0).collect();
        classes.dedup();
        classes
    }
}

impl FromIterator<Operation> for OpHistogram {
    fn from_iter<I: IntoIterator<Item = Operation>>(iter: I) -> Self {
        let mut h = OpHistogram::new();
        for op in iter {
            h.record(op);
        }
        h
    }
}

impl fmt::Display for OpHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> =
            self.counts.iter().map(|(op, n)| format!("{op}×{n}")).collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping() {
        assert_eq!(Operation::Sub.class(), Some(OpClass::Addition));
        assert_eq!(Operation::Mul.class(), Some(OpClass::Multiplication));
        assert_eq!(Operation::Input.class(), None);
        assert_eq!(Operation::MemRead(MemoryRef::new(1)).class(), None);
    }

    #[test]
    fn memory_ops_expose_block() {
        let m = MemoryRef::new(3);
        assert_eq!(Operation::MemWrite(m).memory(), Some(m));
        assert!(Operation::MemWrite(m).is_memory_access());
        assert_eq!(Operation::Add.memory(), None);
    }

    #[test]
    fn histogram_counts_by_class() {
        let h: OpHistogram = [Operation::Add, Operation::Sub, Operation::Mul, Operation::Input]
            .into_iter()
            .collect();
        assert_eq!(h.count_class(OpClass::Addition), 2);
        assert_eq!(h.count_class(OpClass::Multiplication), 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.classes(), vec![OpClass::Addition, OpClass::Multiplication]);
    }

    #[test]
    fn histogram_display_nonempty() {
        let h: OpHistogram = [Operation::Add].into_iter().collect();
        assert!(h.to_string().contains('+'));
    }

    #[test]
    fn operand_arities() {
        assert_eq!(Operation::Input.max_operands(), Some(0));
        assert_eq!(Operation::Add.max_operands(), Some(2));
        assert_eq!(Operation::Output.max_operands(), Some(1));
    }
}
