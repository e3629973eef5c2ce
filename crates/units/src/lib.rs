//! Physical quantity newtypes used throughout the MedSen reproduction.
//!
//! Every physical formula in the paper mixes length scales (µm channels),
//! volumes (µL samples), flow rates (µL/min), frequencies (kHz–MHz carriers),
//! voltages (V excitation, mV peaks), and impedances (MΩ capacitive regime).
//! Encoding each quantity as a distinct type keeps those formulas
//! dimensionally explicit and prevents the classic unit-mixup bugs.
//!
//! # Examples
//!
//! ```
//! use medsen_units::{Micrometers, FlowRate, Seconds};
//!
//! // How long does a bead take to cross the 45 µm sensing span of an
//! // electrode pair at the paper's measured channel velocity?
//! let span = Micrometers::new(45.0);
//! let velocity = FlowRate::new(0.081).channel_velocity(Micrometers::new(30.0), Micrometers::new(20.0));
//! let transit: Seconds = span.transit_time(velocity);
//! assert!(transit.value() > 0.0);
//! ```

mod quantity;

pub use quantity::*;

/// Declares a `f64`-backed physical quantity newtype.
///
/// Generates constructors, accessors, arithmetic within the quantity
/// (addition, subtraction, scalar multiply/divide, dimensionless ratio),
/// ordering helpers, and `Display` with a unit suffix.
macro_rules! quantity_type {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw magnitude.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw magnitude in the quantity's canonical unit.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value of the quantity.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps the quantity into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` when the magnitude is finite (not NaN/∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
            #[inline]
            pub fn lerp(self, other: Self, t: f64) -> Self {
                Self(self.0 + (other.0 - self.0) * t)
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Dimensionless ratio of two quantities of the same kind.
        impl core::ops::Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(q: $name) -> f64 {
                q.0
            }
        }
    };
}

pub(crate) use quantity_type;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sub_preserve_unit() {
        let a = Micrometers::new(30.0);
        let b = Micrometers::new(15.0);
        assert_eq!((a + b).value(), 45.0);
        assert_eq!((a - b).value(), 15.0);
    }

    #[test]
    fn scalar_multiplication_commutes() {
        let a = Volts::new(0.5);
        assert_eq!((a * 2.0).value(), (2.0 * a).value());
    }

    #[test]
    fn same_kind_division_is_dimensionless() {
        let ratio: f64 = Seconds::new(10.0) / Seconds::new(4.0);
        assert_eq!(ratio, 2.5);
    }

    #[test]
    fn display_includes_unit_suffix() {
        assert_eq!(Hertz::new(450.0).to_string(), "450 Hz");
        assert_eq!(Microliters::new(0.01).to_string(), "0.01 µL");
    }

    #[test]
    fn clamp_and_minmax() {
        let v = Volts::new(5.0);
        assert_eq!(v.clamp(Volts::new(0.0), Volts::new(1.0)).value(), 1.0);
        assert_eq!(v.max(Volts::new(7.0)).value(), 7.0);
        assert_eq!(v.min(Volts::new(2.0)).value(), 2.0);
    }

    #[test]
    fn lerp_midpoint() {
        let a = Seconds::new(0.0);
        let b = Seconds::new(10.0);
        assert_eq!(a.lerp(b, 0.5).value(), 5.0);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Seconds = (1..=4).map(|i| Seconds::new(i as f64)).sum();
        assert_eq!(total.value(), 10.0);
    }

    #[test]
    fn negation() {
        assert_eq!((-Volts::new(1.5)).value(), -1.5);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Micrometers::default(), Micrometers::ZERO);
    }
}
