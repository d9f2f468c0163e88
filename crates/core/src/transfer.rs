//! Data-transfer task creation and chip pin budgeting.
//!
//! "When the information about partition and memory block assignments is
//! available, data transfer tasks are created by CHOP to transfer data
//! among partitions … This process involves determining the manner and the
//! amount of data to be transferred, reserving enough pins for control
//! signals to assure proper communication between distributed controllers
//! and also for other necessary signal pins which are not shared (Select,
//! R/W lines for memory blocks)" (paper §2.4).

use std::fmt;

use chop_library::{ChipId, MemoryId};
use chop_stat::units::Bits;

use crate::spec::{MemoryAssignment, PartitionId, Partitioning};

/// One side of a data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// A partition's processing unit.
    Partition(PartitionId),
    /// The outside world (primary inputs/outputs of the system).
    External,
    /// A memory block.
    Memory(MemoryId),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Partition(p) => write!(f, "{p}"),
            Endpoint::External => write!(f, "external"),
            Endpoint::Memory(m) => write!(f, "{m}"),
        }
    }
}

/// A data-transfer requirement: `bits` moving from `src` to `dst` once per
/// initiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferSpec {
    /// Producing endpoint.
    pub src: Endpoint,
    /// Consuming endpoint.
    pub dst: Endpoint,
    /// Bits moved per initiation.
    pub bits: Bits,
    /// Number of distinct values moved.
    pub values: usize,
}

impl fmt::Display for TransferSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {} ({}, {} values)", self.src, self.dst, self.bits, self.values)
    }
}

/// Extracts every data-transfer requirement of a partitioning:
/// inter-partition cuts, primary I/O and memory traffic.
///
/// Transfers whose endpoints resolve to the *same chip* still appear here
/// (they cost on-chip wiring, not pins); [`is_off_chip`] distinguishes
/// them.
///
/// # Examples
///
/// ```
/// use chop_core::spec::PartitioningBuilder;
/// use chop_core::transfer::{transfer_specs, Endpoint};
/// use chop_dfg::benchmarks;
/// use chop_library::standard::table2_packages;
/// use chop_library::ChipSet;
///
/// let p = PartitioningBuilder::new(
///     benchmarks::ar_lattice_filter(),
///     ChipSet::uniform(table2_packages()[1].clone(), 2),
/// )
/// .split_horizontal(2)
/// .build()?;
/// let specs = transfer_specs(&p);
/// // External inputs, the inter-partition cut, and external outputs.
/// assert!(specs.iter().any(|t| t.src == Endpoint::External));
/// assert!(specs.iter().any(|t| t.dst == Endpoint::External));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn transfer_specs(partitioning: &Partitioning) -> Vec<TransferSpec> {
    let dfg = partitioning.dfg();
    let grouping = partitioning.grouping();
    let mut specs = Vec::new();

    // Primary inputs/outputs per partition.
    for p in partitioning.partition_ids() {
        let mut in_bits = 0u64;
        let mut in_values = 0usize;
        let mut out_bits = 0u64;
        let mut out_values = 0usize;
        let mut mem_read: std::collections::BTreeMap<u32, (u64, usize)> = Default::default();
        let mut mem_write: std::collections::BTreeMap<u32, (u64, usize)> = Default::default();
        for id in grouping.members(p.index()) {
            let node = dfg.node(id);
            match node.op() {
                chop_dfg::Operation::Input => {
                    in_bits += node.width().value();
                    in_values += 1;
                }
                chop_dfg::Operation::Output => {
                    out_bits += node.width().value();
                    out_values += 1;
                }
                chop_dfg::Operation::MemRead(m) => {
                    let e = mem_read.entry(m.index()).or_insert((0, 0));
                    e.0 += node.width().value();
                    e.1 += 1;
                }
                chop_dfg::Operation::MemWrite(m) => {
                    let e = mem_write.entry(m.index()).or_insert((0, 0));
                    e.0 += node.width().value();
                    e.1 += 1;
                }
                _ => {}
            }
        }
        if in_bits > 0 {
            specs.push(TransferSpec {
                src: Endpoint::External,
                dst: Endpoint::Partition(p),
                bits: Bits::new(in_bits),
                values: in_values,
            });
        }
        if out_bits > 0 {
            specs.push(TransferSpec {
                src: Endpoint::Partition(p),
                dst: Endpoint::External,
                bits: Bits::new(out_bits),
                values: out_values,
            });
        }
        for (m, (bits, values)) in mem_read {
            specs.push(TransferSpec {
                src: Endpoint::Memory(MemoryId::new(m)),
                dst: Endpoint::Partition(p),
                bits: Bits::new(bits),
                values,
            });
        }
        for (m, (bits, values)) in mem_write {
            specs.push(TransferSpec {
                src: Endpoint::Partition(p),
                dst: Endpoint::Memory(MemoryId::new(m)),
                bits: Bits::new(bits),
                values,
            });
        }
    }

    // Inter-partition cuts (constants replicated, not transferred).
    for cut in partitioning.inter_partition_cuts() {
        specs.push(TransferSpec {
            src: Endpoint::Partition(PartitionId::new(cut.src_group as u32)),
            dst: Endpoint::Partition(PartitionId::new(cut.dst_group as u32)),
            bits: cut.bits,
            values: cut.values,
        });
    }
    specs
}

/// The chip an endpoint resides on, if any (external endpoints and
/// off-the-shelf memories have none).
#[must_use]
pub fn chip_of_endpoint(partitioning: &Partitioning, e: Endpoint) -> Option<ChipId> {
    match e {
        Endpoint::Partition(p) => Some(partitioning.chip_of(p)),
        Endpoint::External => None,
        Endpoint::Memory(m) => match partitioning.memory_assignment(m) {
            MemoryAssignment::OnChip(c) => Some(c),
            MemoryAssignment::External => None,
        },
    }
}

/// Whether a transfer crosses a chip boundary (and therefore consumes pins
/// on each chip involved).
#[must_use]
pub fn is_off_chip(partitioning: &Partitioning, t: &TransferSpec) -> bool {
    let a = chip_of_endpoint(partitioning, t.src);
    let b = chip_of_endpoint(partitioning, t.dst);
    match (a, b) {
        (Some(x), Some(y)) => x != y,
        // One side outside the chip set: always through pins.
        _ => true,
    }
}

/// Pin budget of one chip: total pins, reservations and shareable data
/// pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinBudget {
    /// Package pins.
    pub total: u32,
    /// Pins reserved for distributed-controller handshakes (2 per off-chip
    /// transfer touching the chip).
    pub control: u32,
    /// Pins reserved for non-shareable memory signals (Select and R/W per
    /// memory interface used from this chip).
    pub memory_control: u32,
    /// Remaining pins shareable for data transfer.
    pub data: u32,
}

impl PinBudget {
    /// Whether the reservations alone exceed the package.
    #[must_use]
    pub fn is_overcommitted(&self) -> bool {
        self.data == 0 && self.control + self.memory_control >= self.total
    }
}

impl fmt::Display for PinBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pins ({} control, {} memory, {} data)",
            self.total, self.control, self.memory_control, self.data
        )
    }
}

/// Computes every chip's pin budget for a set of transfers.
///
/// # Examples
///
/// ```
/// use chop_core::spec::PartitioningBuilder;
/// use chop_core::transfer::{pin_budgets, transfer_specs};
/// use chop_dfg::benchmarks;
/// use chop_library::standard::table2_packages;
/// use chop_library::ChipSet;
///
/// let p = PartitioningBuilder::new(
///     benchmarks::ar_lattice_filter(),
///     ChipSet::uniform(table2_packages()[0].clone(), 2),
/// )
/// .split_horizontal(2)
/// .build()?;
/// let budgets = pin_budgets(&p, &transfer_specs(&p));
/// assert_eq!(budgets.len(), 2);
/// assert!(budgets[0].data < 64);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn pin_budgets(partitioning: &Partitioning, transfers: &[TransferSpec]) -> Vec<PinBudget> {
    let chips = partitioning.chips();
    let mut budgets: Vec<PinBudget> = chips
        .iter()
        .map(|(_, pkg)| PinBudget { total: pkg.pins(), control: 0, memory_control: 0, data: 0 })
        .collect();
    // Controller handshake pins: 2 per off-chip transfer per involved chip.
    for t in transfers {
        if !is_off_chip(partitioning, t) {
            continue;
        }
        for chip in
            [chip_of_endpoint(partitioning, t.src), chip_of_endpoint(partitioning, t.dst)]
                .into_iter()
                .flatten()
        {
            budgets[chip.index()].control += 2;
        }
    }
    // Memory Select/R-W reservations: per (chip, memory) interface in use.
    let mut seen: std::collections::BTreeSet<(usize, u32)> = Default::default();
    for t in transfers {
        let (mem, partner) = match (t.src, t.dst) {
            (Endpoint::Memory(m), other) | (other, Endpoint::Memory(m)) => (m, other),
            _ => continue,
        };
        let Some(chip) = chip_of_endpoint(partitioning, partner) else { continue };
        let mem_chip = chip_of_endpoint(partitioning, Endpoint::Memory(mem));
        if mem_chip == Some(chip) {
            continue; // same-chip memory access uses no pins
        }
        if seen.insert((chip.index(), mem.index() as u32)) {
            budgets[chip.index()].memory_control += 2;
        }
        // The memory's own chip (if on-chip elsewhere) also reserves lines.
        if let Some(mc) = mem_chip {
            if seen.insert((mc.index(), mem.index() as u32)) {
                budgets[mc.index()].memory_control += 2;
            }
        }
    }
    for b in &mut budgets {
        b.data = b.total.saturating_sub(b.control + b.memory_control);
    }
    budgets
}

#[cfg(test)]
mod tests {
    use chop_dfg::benchmarks;
    use chop_library::standard::{example_off_shelf_ram, table2_packages};
    use chop_library::ChipSet;

    use super::*;
    use crate::spec::PartitioningBuilder;

    fn two_chip_ar() -> Partitioning {
        PartitioningBuilder::new(
            benchmarks::ar_lattice_filter(),
            ChipSet::uniform(table2_packages()[1].clone(), 2),
        )
        .split_horizontal(2)
        .build()
        .unwrap()
    }

    #[test]
    fn ar_two_way_has_all_transfer_kinds() {
        let p = two_chip_ar();
        let specs = transfer_specs(&p);
        let inter = specs
            .iter()
            .filter(|t| {
                matches!(t.src, Endpoint::Partition(_))
                    && matches!(t.dst, Endpoint::Partition(_))
            })
            .count();
        assert!(inter >= 1, "horizontal cut must move data forward");
        // 8 inputs at 16 bits each somewhere, 4 outputs at 16 bits.
        let in_bits: u64 =
            specs.iter().filter(|t| t.src == Endpoint::External).map(|t| t.bits.value()).sum();
        assert_eq!(in_bits, 8 * 16);
        let out_bits: u64 =
            specs.iter().filter(|t| t.dst == Endpoint::External).map(|t| t.bits.value()).sum();
        assert_eq!(out_bits, 4 * 16);
    }

    #[test]
    fn off_chip_detection() {
        let p = two_chip_ar();
        for t in transfer_specs(&p) {
            if t.src == Endpoint::External || t.dst == Endpoint::External {
                assert!(is_off_chip(&p, &t));
            }
        }
        // Same-chip partitions: inter-partition transfer stays on chip.
        let same = PartitioningBuilder::new(
            benchmarks::ar_lattice_filter(),
            ChipSet::uniform(table2_packages()[1].clone(), 1),
        )
        .split_horizontal(2)
        .with_chip_assignment(vec![chop_library::ChipId::new(0); 2])
        .build()
        .unwrap();
        let inter: Vec<TransferSpec> = transfer_specs(&same)
            .into_iter()
            .filter(|t| {
                matches!(t.src, Endpoint::Partition(_))
                    && matches!(t.dst, Endpoint::Partition(_))
            })
            .collect();
        assert!(!inter.is_empty());
        for t in inter {
            assert!(!is_off_chip(&same, &t));
        }
    }

    #[test]
    fn pin_budgets_reserve_control() {
        let p = two_chip_ar();
        let specs = transfer_specs(&p);
        let budgets = pin_budgets(&p, &specs);
        for b in &budgets {
            assert!(b.control > 0);
            assert_eq!(b.total, 84);
            assert_eq!(b.data, b.total - b.control - b.memory_control);
        }
    }

    #[test]
    fn memory_reservations_counted_once_per_interface() {
        use chop_dfg::{DfgBuilder, MemoryRef, Operation};
        use chop_stat::units::Bits;
        let mut b = DfgBuilder::new();
        let w = Bits::new(16);
        let m = MemoryRef::new(0);
        let addr = b.node(Operation::Input, w);
        let r1 = b.node(Operation::MemRead(m), w);
        let r2 = b.node(Operation::MemRead(m), w);
        b.connect(addr, r1).unwrap();
        b.connect(addr, r2).unwrap();
        let a = b.node(Operation::Add, w);
        b.connect(r1, a).unwrap();
        b.connect(r2, a).unwrap();
        let o = b.node(Operation::Output, w);
        b.connect(a, o).unwrap();
        let g = b.build().unwrap();
        let p = PartitioningBuilder::new(g, ChipSet::uniform(table2_packages()[1].clone(), 1))
            .with_memory(example_off_shelf_ram(), crate::spec::MemoryAssignment::External)
            .build()
            .unwrap();
        let specs = transfer_specs(&p);
        let budgets = pin_budgets(&p, &specs);
        // One memory interface from chip 0, regardless of two reads.
        assert_eq!(budgets[0].memory_control, 2);
    }

    #[test]
    fn tiny_package_overcommits() {
        use chop_stat::units::{Mils, Nanos, SquareMils};
        let tiny = chop_library::ChipPackage::new(
            "tiny",
            Mils::new(100.0),
            Mils::new(100.0),
            4,
            Nanos::new(25.0),
            SquareMils::new(50.0),
        );
        let p = PartitioningBuilder::new(
            benchmarks::ar_lattice_filter(),
            ChipSet::uniform(tiny, 2),
        )
        .split_horizontal(2)
        .build()
        .unwrap();
        let budgets = pin_budgets(&p, &transfer_specs(&p));
        // 3+ off-chip transfers × 2 control pins each exceeds 4 pins.
        assert!(budgets.iter().any(PinBudget::is_overcommitted));
        for b in &budgets {
            assert!(b.data == 0 || b.control + b.memory_control + b.data <= b.total);
        }
    }

    #[test]
    fn budget_display_renders() {
        let p = two_chip_ar();
        let budgets = pin_budgets(&p, &transfer_specs(&p));
        let text = budgets[0].to_string();
        assert!(text.contains("pins"));
        assert!(text.contains("data"));
    }

    #[test]
    fn fewer_package_pins_mean_fewer_data_pins() {
        let p64 = PartitioningBuilder::new(
            benchmarks::ar_lattice_filter(),
            ChipSet::uniform(table2_packages()[0].clone(), 2),
        )
        .split_horizontal(2)
        .build()
        .unwrap();
        let p84 = two_chip_ar();
        let b64 = pin_budgets(&p64, &transfer_specs(&p64));
        let b84 = pin_budgets(&p84, &transfer_specs(&p84));
        for (a, b) in b64.iter().zip(&b84) {
            assert!(a.data < b.data);
        }
    }
}
