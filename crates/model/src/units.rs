//! Physical-quantity newtypes shared across the simulator.
//!
//! Simulated time is kept as plain integer nanoseconds (see [`Ns`]) because
//! every timing parameter in the paper's Table 2 is an integer number of
//! nanoseconds and the hot simulation loops do dense arithmetic on it.
//! Quantities that cross the public API boundary (energy, power, bandwidth)
//! get dedicated newtypes so that, e.g., a pJ/bit figure can never be
//! confused with a pJ figure.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Simulated time in integer nanoseconds.
///
/// `u64` nanoseconds cover ~584 years of simulated time, far beyond any
/// simulation window this crate runs.
pub type Ns = u64;

/// Number of nanoseconds in one second, as a float (for rate conversions).
pub const NS_PER_SEC: f64 = 1.0e9;

/// One mebibyte in bytes.
pub const MIB: u64 = 1 << 20;
/// One gibibyte in bytes.
pub const GIB: u64 = 1 << 30;

macro_rules! float_unit {
    (
        $(#[$meta:meta])*
        $name:ident, $suffix:expr
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw `f64` value in this unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw `f64` value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
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
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }
    };
}

float_unit!(
    /// Energy in picojoules.
    ///
    /// # Examples
    ///
    /// ```
    /// use fgdram_model::units::Picojoules;
    /// let act = Picojoules::new(909.0);
    /// let two = act + act;
    /// assert_eq!(two.value(), 1818.0);
    /// ```
    Picojoules,
    "pJ"
);

float_unit!(
    /// Energy intensity in picojoules per bit, the paper's headline metric.
    ///
    /// # Examples
    ///
    /// ```
    /// use fgdram_model::units::PjPerBit;
    /// let hbm2 = PjPerBit::new(3.92);
    /// assert!(hbm2 > PjPerBit::new(2.0));
    /// ```
    PjPerBit,
    "pJ/b"
);

float_unit!(
    /// Power in watts.
    Watts,
    "W"
);

float_unit!(
    /// Bandwidth in gigabytes per second (10^9 bytes/s, as the paper uses).
    GbPerSec,
    "GB/s"
);

impl Picojoules {
    /// Divides total energy by a bit count, giving energy intensity.
    ///
    /// Returns [`PjPerBit::ZERO`] when `bits` is zero so aggregate reports
    /// over idle components never produce NaN.
    #[inline]
    pub fn per_bits(self, bits: u64) -> PjPerBit {
        if bits == 0 {
            PjPerBit::ZERO
        } else {
            PjPerBit::new(self.value() / bits as f64)
        }
    }
}

impl PjPerBit {
    /// The DRAM power drawn when streaming at `bw` with this per-bit energy.
    ///
    /// Used by the Figure 1a budget analysis: `P = e * BW`.
    #[inline]
    pub fn power_at(self, bw: GbPerSec) -> Watts {
        // pJ/bit * GB/s = 1e-12 J/bit * 8e9 bit/s = 8e-3 W
        Watts::new(self.value() * bw.value() * 8.0e-3)
    }
}

impl Watts {
    /// The per-bit energy that exactly dissipates this power at `bw`.
    ///
    /// Inverse of [`PjPerBit::power_at`]; used to draw the Figure 1a curve.
    #[inline]
    pub fn energy_budget_at(self, bw: GbPerSec) -> PjPerBit {
        PjPerBit::new(self.value() / (bw.value() * 8.0e-3))
    }
}

impl GbPerSec {
    /// Bandwidth implied by transferring `bytes` over `dur` nanoseconds.
    ///
    /// Returns [`GbPerSec::ZERO`] for a zero-length window.
    #[inline]
    pub fn from_bytes_over(bytes: u64, dur: Ns) -> Self {
        if dur == 0 {
            Self::ZERO
        } else {
            Self::new(bytes as f64 / dur as f64) // B/ns == GB/s
        }
    }

    /// Bytes transferred in `dur` nanoseconds at this bandwidth.
    #[inline]
    pub fn bytes_over(self, dur: Ns) -> f64 {
        self.value() * dur as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picojoules_arithmetic() {
        let a = Picojoules::new(1.5);
        let b = Picojoules::new(2.5);
        assert_eq!((a + b).value(), 4.0);
        assert_eq!((b - a).value(), 1.0);
        assert_eq!((a * 2.0).value(), 3.0);
        assert_eq!((2.0 * a).value(), 3.0);
        assert_eq!((b / 2.0).value(), 1.25);
        assert_eq!(b / a, 2.5 / 1.5);
        let s: Picojoules = [a, b].into_iter().sum();
        assert_eq!(s.value(), 4.0);
    }

    #[test]
    fn per_bits_handles_zero() {
        assert_eq!(Picojoules::new(10.0).per_bits(0), PjPerBit::ZERO);
        assert_eq!(Picojoules::new(10.0).per_bits(5).value(), 2.0);
    }

    #[test]
    fn power_budget_roundtrip() {
        // Paper Figure 1a anchor: ~3.9 pJ/bit at ~1.9 TB/s is ~60 W.
        let bw = GbPerSec::new(1920.0);
        let budget = Watts::new(60.0).energy_budget_at(bw);
        assert!((budget.value() - 3.906).abs() < 0.01, "{budget}");
        let p = budget.power_at(bw);
        assert!((p.value() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn hbm2_power_sanity() {
        // 3.92 pJ/bit at 256 GB/s stack is ~8 W per stack.
        let p = PjPerBit::new(3.92).power_at(GbPerSec::new(256.0));
        assert!((p.value() - 8.028).abs() < 0.01, "{p}");
    }

    #[test]
    fn bandwidth_from_bytes() {
        // 32 B atom every 2 ns = 16 GB/s (one HBM2 channel).
        let bw = GbPerSec::from_bytes_over(32, 2);
        assert_eq!(bw.value(), 16.0);
        assert_eq!(GbPerSec::from_bytes_over(1, 0), GbPerSec::ZERO);
        assert_eq!(bw.bytes_over(4), 64.0);
    }

    #[test]
    fn display_formats_with_suffix() {
        assert_eq!(format!("{:.2}", Picojoules::new(1.234)), "1.23 pJ");
        assert_eq!(format!("{}", PjPerBit::new(2.0)), "2 pJ/b");
    }

    #[test]
    fn min_max() {
        let a = PjPerBit::new(1.0);
        let b = PjPerBit::new(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(a.is_finite());
    }
}
