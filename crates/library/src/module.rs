//! Hardware modules: functional units, registers and multiplexers.

use std::fmt;

use chop_dfg::OpClass;
use chop_stat::units::{Bits, MilliWatts, Nanos, SquareMils};

/// Default dynamic power density of the 3 µm technology, in mW per mil²
/// of active area at full utilization. Used when a module carries no
/// explicit power figure.
pub const DEFAULT_POWER_DENSITY: f64 = 0.02;

/// What role a module plays in a datapath.
///
/// # Examples
///
/// ```
/// use chop_library::ModuleKind;
/// use chop_dfg::OpClass;
///
/// let k = ModuleKind::Functional(OpClass::Addition);
/// assert!(k.is_functional());
/// assert!(!ModuleKind::Register.is_functional());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModuleKind {
    /// Implements one operation class (adder, multiplier, …).
    Functional(OpClass),
    /// A one-bit (or wider) storage register.
    Register,
    /// A 2:1 multiplexer slice.
    Multiplexer,
}

impl ModuleKind {
    /// Whether this module implements a datapath operation.
    #[must_use]
    pub fn is_functional(&self) -> bool {
        matches!(self, ModuleKind::Functional(_))
    }

    /// The operation class this module implements, if functional.
    #[must_use]
    pub fn op_class(&self) -> Option<OpClass> {
        match self {
            ModuleKind::Functional(c) => Some(*c),
            _ => None,
        }
    }
}

impl fmt::Display for ModuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleKind::Functional(c) => write!(f, "{c}"),
            ModuleKind::Register => write!(f, "Register"),
            ModuleKind::Multiplexer => write!(f, "2:1 Multiplexer"),
        }
    }
}

/// One row of the component library: a named module with bit width, area
/// and delay (Table 1 of the paper).
///
/// # Examples
///
/// ```
/// use chop_library::{HwModule, ModuleKind};
/// use chop_dfg::OpClass;
/// use chop_stat::units::{Bits, Nanos, SquareMils};
///
/// let add2 = HwModule::new(
///     "add2",
///     ModuleKind::Functional(OpClass::Addition),
///     Bits::new(16),
///     SquareMils::new(2880.0),
///     Nanos::new(53.0),
/// );
/// assert_eq!(add2.name(), "add2");
/// assert_eq!(add2.delay().value(), 53.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HwModule {
    name: String,
    kind: ModuleKind,
    width: Bits,
    area: SquareMils,
    delay: Nanos,
    power: Option<MilliWatts>,
}

impl HwModule {
    /// Creates a module description.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or `width` is zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        kind: ModuleKind,
        width: Bits,
        area: SquareMils,
        delay: Nanos,
    ) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "module name must not be empty");
        assert!(width.value() > 0, "module width must be positive");
        Self { name, kind, width, area, delay, power: None }
    }

    /// Attaches an explicit power figure (full-utilization dynamic power).
    ///
    /// # Examples
    ///
    /// ```
    /// use chop_library::{HwModule, ModuleKind};
    /// use chop_dfg::OpClass;
    /// use chop_stat::units::{Bits, MilliWatts, Nanos, SquareMils};
    ///
    /// let m = HwModule::new(
    ///     "add1", ModuleKind::Functional(OpClass::Addition),
    ///     Bits::new(16), SquareMils::new(4200.0), Nanos::new(34.0),
    /// ).with_power(MilliWatts::new(120.0));
    /// assert_eq!(m.power().value(), 120.0);
    /// ```
    #[must_use]
    pub fn with_power(mut self, power: MilliWatts) -> Self {
        self.power = Some(power);
        self
    }

    /// The module's library name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The module's role.
    #[must_use]
    pub fn kind(&self) -> ModuleKind {
        self.kind
    }

    /// The module's natural bit width.
    #[must_use]
    pub fn width(&self) -> Bits {
        self.width
    }

    /// Area of one instance at its natural width.
    #[must_use]
    pub fn area(&self) -> SquareMils {
        self.area
    }

    /// Propagation delay of one instance.
    #[must_use]
    pub fn delay(&self) -> Nanos {
        self.delay
    }

    /// Full-utilization dynamic power of one instance: the explicit figure
    /// if one was attached, otherwise area × [`DEFAULT_POWER_DENSITY`].
    #[must_use]
    pub fn power(&self) -> MilliWatts {
        self.power.unwrap_or_else(|| MilliWatts::new(self.area.value() * DEFAULT_POWER_DENSITY))
    }

    /// Area of an instance scaled to `width` bits (bit-sliced modules like
    /// registers and multiplexers scale linearly; functional units are used
    /// at their natural width).
    #[must_use]
    pub fn area_at_width(&self, width: Bits) -> SquareMils {
        match self.kind {
            ModuleKind::Register | ModuleKind::Multiplexer => SquareMils::new(
                self.area.value() * width.value() as f64 / self.width.value() as f64,
            ),
            ModuleKind::Functional(_) => self.area,
        }
    }
}

impl fmt::Display for HwModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} bits, {}, {})",
            self.name,
            self.kind,
            self.width.value(),
            self.area,
            self.delay
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> HwModule {
        HwModule::new(
            "register",
            ModuleKind::Register,
            Bits::new(1),
            SquareMils::new(31.0),
            Nanos::new(5.0),
        )
    }

    #[test]
    #[should_panic(expected = "name")]
    fn empty_name_panics() {
        let _ = HwModule::new(
            "",
            ModuleKind::Register,
            Bits::new(1),
            SquareMils::new(1.0),
            Nanos::new(1.0),
        );
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let _ = HwModule::new(
            "r",
            ModuleKind::Register,
            Bits::new(0),
            SquareMils::new(1.0),
            Nanos::new(1.0),
        );
    }

    #[test]
    fn bit_sliced_area_scales() {
        let r = reg();
        assert_eq!(r.area_at_width(Bits::new(16)).value(), 31.0 * 16.0);
    }

    #[test]
    fn functional_area_does_not_scale() {
        let m = HwModule::new(
            "mul1",
            ModuleKind::Functional(chop_dfg::OpClass::Multiplication),
            Bits::new(16),
            SquareMils::new(49_000.0),
            Nanos::new(375.0),
        );
        assert_eq!(m.area_at_width(Bits::new(32)).value(), 49_000.0);
    }

    #[test]
    fn display_mentions_name() {
        assert!(reg().to_string().contains("register"));
    }

    #[test]
    fn default_power_derived_from_area() {
        let r = reg();
        assert!((r.power().value() - 31.0 * DEFAULT_POWER_DENSITY).abs() < 1e-9);
    }

    #[test]
    fn explicit_power_overrides_default() {
        let r = reg().with_power(chop_stat::units::MilliWatts::new(1.5));
        assert_eq!(r.power().value(), 1.5);
    }
}
