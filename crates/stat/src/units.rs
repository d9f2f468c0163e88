//! Physical-quantity newtypes shared by the CHOP crates.
//!
//! The paper works in early-90s MOSIS units: areas in square mils, lengths in
//! mils, delays in nanoseconds, data in bits and time discretized in clock
//! cycles. The newtypes below keep those dimensions from being mixed up
//! (C-NEWTYPE) while staying `Copy` and cheap.
//!
//! # Examples
//!
//! ```
//! use chop_stat::units::{Mils, Nanos, SquareMils};
//!
//! let w = Mils::new(311.02);
//! let h = Mils::new(362.20);
//! let area: SquareMils = w * h;
//! assert!(area.value() > 110_000.0);
//! let t = Nanos::new(300.0) + Nanos::new(25.0);
//! assert_eq!(t.value(), 325.0);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Creates a quantity from a raw value.
            ///
            /// # Panics
            ///
            /// Panics if `value` is NaN or negative — the physical
            /// quantities CHOP manipulates are all non-negative.
            #[must_use]
            pub fn new(value: f64) -> Self {
                assert!(value.is_finite(), concat!(stringify!($name), " must be finite"));
                assert!(value >= 0.0, concat!(stringify!($name), " must be non-negative"));
                Self(value)
            }

            /// Zero quantity.
            #[must_use]
            pub fn zero() -> Self {
                Self(0.0)
            }

            /// The raw value.
            #[must_use]
            pub fn value(&self) -> f64 {
                self.0
            }

            /// Component-wise maximum.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Saturating subtraction: never goes below zero.
            #[must_use]
            pub fn saturating_sub(self, other: Self) -> Self {
                Self((self.0 - other.0).max(0.0))
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            /// # Panics
            ///
            /// Panics if the result would be negative.
            fn sub(self, rhs: $name) -> $name {
                $name::new(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name::new(self.0 * rhs)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::zero(), |a, b| a + b)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("{:.2} ", $unit), self.0)
            }
        }
    };
}

quantity!(
    /// A length in mils (thousandths of an inch), the MOSIS package unit.
    Mils,
    "mil"
);

quantity!(
    /// An area in square mils.
    SquareMils,
    "mil²"
);

quantity!(
    /// A time duration in nanoseconds.
    Nanos,
    "ns"
);

quantity!(
    /// A power in milliwatts.
    MilliWatts,
    "mW"
);

impl Mul for Mils {
    type Output = SquareMils;

    fn mul(self, rhs: Mils) -> SquareMils {
        SquareMils::new(self.value() * rhs.value())
    }
}

impl Nanos {
    /// Number of whole cycles of `self` needed to cover `total` time.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    #[must_use]
    pub fn cycles_to_cover(&self, total: Nanos) -> u64 {
        assert!(self.0 > 0.0, "cycle time must be positive");
        (total.value() / self.0).ceil() as u64
    }
}

/// A count of clock cycles.
///
/// # Examples
///
/// ```
/// use chop_stat::units::{Cycles, Nanos};
///
/// let c = Cycles::new(30);
/// assert_eq!(c.at(Nanos::new(310.0)).value(), 9300.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Creates a cycle count.
    #[must_use]
    pub fn new(cycles: u64) -> Self {
        Self(cycles)
    }

    /// Zero cycles.
    #[must_use]
    pub fn zero() -> Self {
        Self(0)
    }

    /// The raw count.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Wall-clock duration of this many cycles at the given cycle time.
    #[must_use]
    pub fn at(&self, cycle_time: Nanos) -> Nanos {
        Nanos::new(self.0 as f64 * cycle_time.value())
    }

    /// Component-wise maximum.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, other: Self) -> Self {
        Self(self.0.saturating_sub(other.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::zero(), |a, b| a + b)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A data width / amount in bits.
///
/// # Examples
///
/// ```
/// use chop_stat::units::Bits;
///
/// let word = Bits::new(16);
/// assert_eq!((word + word).value(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bits(u64);

impl Bits {
    /// Creates a bit count.
    #[must_use]
    pub fn new(bits: u64) -> Self {
        Self(bits)
    }

    /// Zero bits.
    #[must_use]
    pub fn zero() -> Self {
        Self(0)
    }

    /// The raw count.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Number of transfers of `width` bits each needed to move this amount.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn transfers_at_width(&self, width: Bits) -> u64 {
        assert!(width.0 > 0, "transfer width must be positive");
        self.0.div_ceil(width.0)
    }
}

impl Add for Bits {
    type Output = Bits;
    fn add(self, rhs: Bits) -> Bits {
        Bits(self.0 + rhs.0)
    }
}

impl AddAssign for Bits {
    fn add_assign(&mut self, rhs: Bits) {
        self.0 += rhs.0;
    }
}

impl Sum for Bits {
    fn sum<I: Iterator<Item = Bits>>(iter: I) -> Bits {
        iter.fold(Bits::zero(), |a, b| a + b)
    }
}

impl Mul<u64> for Bits {
    type Output = Bits;
    fn mul(self, rhs: u64) -> Bits {
        Bits(self.0 * rhs)
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bits", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mils_multiply_to_area() {
        let a = Mils::new(10.0) * Mils::new(20.0);
        assert_eq!(a.value(), 200.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_quantity_panics() {
        let _ = Nanos::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn subtraction_underflow_panics() {
        let _ = Nanos::new(1.0) - Nanos::new(2.0);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Nanos::new(1.0).saturating_sub(Nanos::new(2.0)).value(), 0.0);
        assert_eq!(Cycles::new(1).saturating_sub(Cycles::new(5)).value(), 0);
    }

    #[test]
    fn cycles_to_cover_rounds_up() {
        let clk = Nanos::new(300.0);
        assert_eq!(clk.cycles_to_cover(Nanos::new(300.0)), 1);
        assert_eq!(clk.cycles_to_cover(Nanos::new(301.0)), 2);
        assert_eq!(clk.cycles_to_cover(Nanos::new(0.0)), 0);
    }

    #[test]
    fn transfers_at_width_rounds_up() {
        assert_eq!(Bits::new(100).transfers_at_width(Bits::new(32)), 4);
        assert_eq!(Bits::new(96).transfers_at_width(Bits::new(32)), 3);
    }

    #[test]
    fn cycles_at_clock() {
        assert_eq!(Cycles::new(10).at(Nanos::new(300.0)).value(), 3000.0);
    }

    #[test]
    fn sums_work() {
        let total: Nanos = [Nanos::new(1.0), Nanos::new(2.5)].into_iter().sum();
        assert_eq!(total.value(), 3.5);
        let bits: Bits = [Bits::new(16), Bits::new(16)].into_iter().sum();
        assert_eq!(bits.value(), 32);
    }

    #[test]
    fn displays_include_units() {
        assert!(Mils::new(1.0).to_string().contains("mil"));
        assert!(SquareMils::new(1.0).to_string().contains("mil²"));
        assert!(Nanos::new(1.0).to_string().contains("ns"));
        assert!(Bits::new(1).to_string().contains("bits"));
    }
}
