//! On- and off-chip memory modules.

use std::fmt;

use chop_stat::units::{Bits, Nanos, SquareMils};

/// Identifier of a memory block within a partitioning environment.
///
/// Matches [`chop_dfg::MemoryRef`] indices: `MemoryRef::new(i)` in a DFG
/// refers to `MemoryId::new(i)` in the environment.
///
/// # Examples
///
/// ```
/// use chop_library::MemoryId;
///
/// assert_eq!(MemoryId::new(0).to_string(), "M0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemoryId(u32);

impl MemoryId {
    /// Creates a memory id.
    #[must_use]
    pub fn new(index: u32) -> Self {
        Self(index)
    }

    /// The raw index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl From<chop_dfg::MemoryRef> for MemoryId {
    fn from(r: chop_dfg::MemoryRef) -> Self {
        MemoryId::new(r.index())
    }
}

impl fmt::Display for MemoryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// Whether a memory block occupies chip project area or is an off-the-shelf
/// part outside the chip set.
///
/// CHOP explicitly "allows the use of off-the-shelf memory chips" (paper
/// §2.4); those consume pins for access but no project area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryPlacement {
    /// Synthesized on a chip of the set; consumes project area there.
    OnChip,
    /// A separate off-the-shelf part; consumes only pins and wires.
    OffTheShelf,
}

impl fmt::Display for MemoryPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryPlacement::OnChip => write!(f, "on-chip"),
            MemoryPlacement::OffTheShelf => write!(f, "off-the-shelf"),
        }
    }
}

/// A memory block: geometry, timing, ports and placement style.
///
/// # Examples
///
/// ```
/// use chop_library::{MemoryModule, MemoryPlacement};
/// use chop_stat::units::{Bits, Nanos, SquareMils};
///
/// let ram = MemoryModule::new(
///     "ram256x16",
///     256,
///     Bits::new(16),
///     1,
///     Nanos::new(120.0),
///     SquareMils::new(12_000.0),
///     MemoryPlacement::OnChip,
/// );
/// assert_eq!(ram.ports(), 1);
/// assert_eq!(ram.data_width().value(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModule {
    name: String,
    words: u64,
    data_width: Bits,
    ports: u32,
    access_time: Nanos,
    area: SquareMils,
    placement: MemoryPlacement,
}

impl MemoryModule {
    /// Creates a memory-module description.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty, `words` is zero, `data_width` is zero or
    /// `ports` is zero.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        words: u64,
        data_width: Bits,
        ports: u32,
        access_time: Nanos,
        area: SquareMils,
        placement: MemoryPlacement,
    ) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "memory name must not be empty");
        assert!(words > 0, "memory must have at least one word");
        assert!(data_width.value() > 0, "memory data width must be positive");
        assert!(ports > 0, "memory must have at least one port");
        Self { name, words, data_width, ports, access_time, area, placement }
    }

    /// The block's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Word count.
    #[must_use]
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Data width per word.
    #[must_use]
    pub fn data_width(&self) -> Bits {
        self.data_width
    }

    /// Simultaneous access ports.
    #[must_use]
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// Access (cycle) time of one port.
    #[must_use]
    pub fn access_time(&self) -> Nanos {
        self.access_time
    }

    /// Project area consumed when placed on-chip (zero off-the-shelf).
    #[must_use]
    pub fn area(&self) -> SquareMils {
        match self.placement {
            MemoryPlacement::OnChip => self.area,
            MemoryPlacement::OffTheShelf => SquareMils::zero(),
        }
    }

    /// Placement style.
    #[must_use]
    pub fn placement(&self) -> MemoryPlacement {
        self.placement
    }

    /// Address width in bits (`ceil(log2(words))`, at least 1).
    #[must_use]
    pub fn address_width(&self) -> Bits {
        let w = 64 - (self.words - 1).leading_zeros().min(63);
        Bits::new(u64::from(w.max(1)))
    }

    /// Pins a chip must reserve to talk to this memory: data + address +
    /// select + read/write strobe per port.
    ///
    /// These are the "necessary signal pins which are not shared (Select,
    /// R/W lines for memory blocks)" the paper reserves in §2.4.
    #[must_use]
    pub fn interface_pins(&self) -> u32 {
        let per_port = self.data_width.value() as u32 + self.address_width().value() as u32 + 2;
        per_port * self.ports
    }

    /// Peak transfer bandwidth in bits per access across all ports.
    #[must_use]
    pub fn bandwidth_per_access(&self) -> Bits {
        Bits::new(self.data_width.value() * u64::from(self.ports))
    }
}

impl fmt::Display for MemoryModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}×{} bits, {} port(s), {}, {})",
            self.name,
            self.words,
            self.data_width.value(),
            self.ports,
            self.access_time,
            self.placement
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ram(words: u64, placement: MemoryPlacement) -> MemoryModule {
        MemoryModule::new(
            "ram",
            words,
            Bits::new(16),
            1,
            Nanos::new(100.0),
            SquareMils::new(10_000.0),
            placement,
        )
    }

    #[test]
    fn address_width_rounds_up() {
        assert_eq!(ram(1, MemoryPlacement::OnChip).address_width().value(), 1);
        assert_eq!(ram(2, MemoryPlacement::OnChip).address_width().value(), 1);
        assert_eq!(ram(3, MemoryPlacement::OnChip).address_width().value(), 2);
        assert_eq!(ram(256, MemoryPlacement::OnChip).address_width().value(), 8);
        assert_eq!(ram(257, MemoryPlacement::OnChip).address_width().value(), 9);
    }

    #[test]
    fn off_the_shelf_has_no_area() {
        assert_eq!(ram(256, MemoryPlacement::OffTheShelf).area().value(), 0.0);
        assert_eq!(ram(256, MemoryPlacement::OnChip).area().value(), 10_000.0);
    }

    #[test]
    fn interface_pins_count_data_addr_control() {
        let m = ram(256, MemoryPlacement::OnChip);
        // 16 data + 8 address + select + r/w = 26.
        assert_eq!(m.interface_pins(), 26);
    }

    #[test]
    fn multiport_bandwidth_scales() {
        let m = MemoryModule::new(
            "dp",
            64,
            Bits::new(8),
            2,
            Nanos::new(80.0),
            SquareMils::new(5_000.0),
            MemoryPlacement::OnChip,
        );
        assert_eq!(m.bandwidth_per_access().value(), 16);
        assert_eq!(m.interface_pins(), (8 + 6 + 2) * 2);
    }

    #[test]
    fn memory_id_from_ref() {
        let id: MemoryId = chop_dfg::MemoryRef::new(4).into();
        assert_eq!(id.index(), 4);
    }
}
