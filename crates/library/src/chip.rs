//! Chip packages and chip sets.

use std::fmt;

use chop_stat::units::{Mils, Nanos, SquareMils};

/// Identifier of a chip within a [`ChipSet`].
///
/// # Examples
///
/// ```
/// use chop_library::ChipId;
///
/// let c = ChipId::new(2);
/// assert_eq!(c.to_string(), "chip2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChipId(u32);

impl ChipId {
    /// Creates a chip id.
    #[must_use]
    pub fn new(index: u32) -> Self {
        Self(index)
    }

    /// The chip's index into its [`ChipSet`].
    #[must_use]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChipId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chip{}", self.0)
    }
}

/// A chip package: project-area dimensions, pin count, pad delay and I/O
/// pad area (Table 2 of the paper — a subset of MOSIS standard packages).
///
/// # Examples
///
/// ```
/// use chop_library::ChipPackage;
/// use chop_stat::units::{Mils, Nanos, SquareMils};
///
/// let pkg = ChipPackage::new(
///     "MOSIS-84",
///     Mils::new(311.02),
///     Mils::new(362.20),
///     84,
///     Nanos::new(25.0),
///     SquareMils::new(297.60),
/// );
/// assert_eq!(pkg.pins(), 84);
/// assert!(pkg.usable_area().value() < pkg.project_area().value());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChipPackage {
    name: String,
    width: Mils,
    height: Mils,
    pins: u32,
    pad_delay: Nanos,
    pad_area: SquareMils,
}

impl ChipPackage {
    /// Creates a package description.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty, `pins` is zero, or the dimensions are
    /// zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        width: Mils,
        height: Mils,
        pins: u32,
        pad_delay: Nanos,
        pad_area: SquareMils,
    ) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "package name must not be empty");
        assert!(pins > 0, "package must have pins");
        assert!(
            width.value() > 0.0 && height.value() > 0.0,
            "package dimensions must be positive"
        );
        Self { name, width, height, pins, pad_delay, pad_area }
    }

    /// The package's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Project-area width.
    #[must_use]
    pub fn width(&self) -> Mils {
        self.width
    }

    /// Project-area height.
    #[must_use]
    pub fn height(&self) -> Mils {
        self.height
    }

    /// Number of package pins.
    #[must_use]
    pub fn pins(&self) -> u32 {
        self.pins
    }

    /// Delay through one I/O pad.
    #[must_use]
    pub fn pad_delay(&self) -> Nanos {
        self.pad_delay
    }

    /// Area of one I/O pad.
    #[must_use]
    pub fn pad_area(&self) -> SquareMils {
        self.pad_area
    }

    /// Total project area (`width × height`).
    #[must_use]
    pub fn project_area(&self) -> SquareMils {
        self.width * self.height
    }

    /// Project area left for logic inside the I/O pad ring.
    ///
    /// The pad ring spans the die periphery regardless of how many pins
    /// the package bonds out, so two packages sharing a die (Table 2's
    /// 64- and 84-pin MOSIS parts) have the same usable area; the pin
    /// count matters for bandwidth, not for logic area. The ring depth is
    /// one pad side (`√pad_area`) on each edge.
    #[must_use]
    pub fn usable_area(&self) -> SquareMils {
        let ring = 2.0 * self.pad_area.value().sqrt();
        let w = (self.width.value() - ring).max(0.0);
        let h = (self.height.value() - ring).max(0.0);
        SquareMils::new(w * h)
    }
}

impl fmt::Display for ChipPackage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} × {}, {} pins, pad {} / {})",
            self.name, self.width, self.height, self.pins, self.pad_delay, self.pad_area
        )
    }
}

/// The chip set onto which a design is partitioned: one package per chip.
///
/// Several chips may share the same package type (as in the paper's
/// experiments, where every chip uses package 1 or package 2).
///
/// # Examples
///
/// ```
/// use chop_library::{standard, ChipSet};
///
/// let pkgs = standard::table2_packages();
/// let chips = ChipSet::uniform(pkgs[1].clone(), 3);
/// assert_eq!(chips.len(), 3);
/// assert_eq!(chips.total_pins(), 3 * 84);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChipSet {
    chips: Vec<ChipPackage>,
}

impl ChipSet {
    /// Creates an empty chip set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a chip set of `count` chips sharing one package type.
    #[must_use]
    pub fn uniform(package: ChipPackage, count: usize) -> Self {
        Self { chips: vec![package; count] }
    }

    /// Adds one chip and returns its id.
    pub fn push(&mut self, package: ChipPackage) -> ChipId {
        let id = ChipId::new(self.chips.len() as u32);
        self.chips.push(package);
        id
    }

    /// Number of chips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// The package of a chip.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn chip(&self, id: ChipId) -> &ChipPackage {
        &self.chips[id.index()]
    }

    /// Iterates over `(id, package)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ChipId, &ChipPackage)> + '_ {
        self.chips.iter().enumerate().map(|(i, p)| (ChipId::new(i as u32), p))
    }

    /// All chip ids.
    pub fn ids(&self) -> impl Iterator<Item = ChipId> + '_ {
        (0..self.chips.len()).map(|i| ChipId::new(i as u32))
    }

    /// Sum of pins over all chips.
    #[must_use]
    pub fn total_pins(&self) -> u32 {
        self.chips.iter().map(ChipPackage::pins).sum()
    }
}

impl fmt::Display for ChipSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChipSet({} chips)", self.chips.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::table2_packages;

    #[test]
    fn table2_package_geometry() {
        let pkgs = table2_packages();
        assert_eq!(pkgs.len(), 2);
        assert_eq!(pkgs[0].pins(), 64);
        assert_eq!(pkgs[1].pins(), 84);
        // Both share the same project area.
        assert_eq!(pkgs[0].project_area().value(), pkgs[1].project_area().value());
    }

    #[test]
    fn usable_area_is_the_die_minus_pad_ring() {
        let pkgs = table2_packages();
        let a64 = pkgs[0].usable_area().value();
        let a84 = pkgs[1].usable_area().value();
        // Same die, same pad ring: pin count does not change logic area.
        assert_eq!(a64, a84);
        assert!(a64 > 0.0);
        assert!(a64 < pkgs[0].project_area().value());
    }

    #[test]
    fn chip_set_uniform_and_push() {
        let pkgs = table2_packages();
        let mut set = ChipSet::uniform(pkgs[0].clone(), 2);
        let id = set.push(pkgs[1].clone());
        assert_eq!(set.len(), 3);
        assert_eq!(set.chip(id).pins(), 84);
        assert_eq!(set.ids().count(), 3);
    }

    #[test]
    #[should_panic(expected = "pins")]
    fn zero_pins_panics() {
        let _ = ChipPackage::new(
            "bad",
            Mils::new(1.0),
            Mils::new(1.0),
            0,
            Nanos::new(1.0),
            SquareMils::new(1.0),
        );
    }
}
