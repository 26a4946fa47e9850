//! Typed units of measure for the modeled-cost accounting.
//!
//! Every number GaaS-X reports is a sum of per-op costs billed in
//! nanoseconds (time), picojoules (per-op energy), or nanojoules
//! (aggregated energy). Historically those were bare `f64`s, so nothing
//! stopped `elapsed_ns + energy_pj` from compiling — a single mixed-unit
//! add silently corrupts every downstream table. These newtypes make the
//! unit part of the type:
//!
//! * [`Nanos`] — modeled time in nanoseconds,
//! * [`Picojoules`] — per-operation energy (device-model granularity),
//! * [`Nanojoules`] — aggregated energy (report granularity).
//!
//! Design constraints, in priority order:
//!
//! 1. **Bit-identity.** All arithmetic delegates to the wrapped `f64`
//!    operation on the raw value, in the same order the untyped code
//!    performed it, so every report stays bit-identical to the pre-typed
//!    accounting (the phase-attribution and timeline conservation checks
//!    compare f64 sums bit for bit, so they depend on this).
//!    In particular [`Picojoules`] and [`Nanojoules`] are *distinct types*
//!    rather than auto-rescaling views of one another: a ×1000 rescale is
//!    not exact in floating point, so conversion is explicit and happens
//!    exactly where the untyped code divided by 1000.
//! 2. **Zero cost.** `#[repr(transparent)]` wrappers; every method is a
//!    trivial delegation the optimizer erases.
//! 3. **No overflow class.** The wrapped representation is `f64`, which
//!    saturates to `±inf` instead of wrapping or panicking, so the
//!    accounting sums cannot invoke integer-overflow UB regardless of
//!    stream length. (Counts remain `u64` with saturating ops; see
//!    [`crate::report::OpSummary`].)
//!
//! Serialization note: the workspace's serde derives are no-op shims (the
//! build is offline); all real JSON is hand-rolled. The hand-rolled
//! writers call [`Nanos::ns`] / [`Picojoules::pj`] / [`Nanojoules::nj`]
//! and format the raw `f64` exactly as before, so committed result files
//! stay byte-compatible.

use serde::{Deserialize, Serialize};

macro_rules! unit_newtype {
    (
        $(#[$meta:meta])*
        $name:ident, $raw_getter:ident, $from_ctor:ident, $unit_str:literal
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
        #[repr(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The additive identity.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw magnitude expressed in this unit.
            #[inline]
            pub const fn $from_ctor(raw: f64) -> Self {
                Self(raw)
            }

            /// Returns the raw magnitude in this unit.
            ///
            /// This is the *only* door back to untyped floats; call sites
            /// mark exactly where a quantity leaves the typed accounting
            /// (formatting, telemetry, or an explicit unit conversion).
            #[inline]
            pub const fn $raw_getter(self) -> f64 {
                self.0
            }

            /// Elementwise maximum, preserving `f64::max` NaN semantics.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Elementwise minimum, preserving `f64::min` NaN semantics.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// True when the magnitude is finite (not NaN or ±inf).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Total ordering on the raw bits (`f64::total_cmp`), for
            /// sorting modeled quantities deterministically.
            #[inline]
            pub fn total_cmp(&self, other: &Self) -> core::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        /// Scaling by a dimensionless count or ratio keeps the unit.
        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        /// `count * quantity` reads naturally at op-billing sites.
        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        /// Dividing by a dimensionless factor keeps the unit.
        impl core::ops::Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// In-place scaling by a dimensionless factor.
        impl core::ops::MulAssign<f64> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        /// In-place division by a dimensionless factor.
        impl core::ops::DivAssign<f64> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        /// The ratio of two like-united quantities is dimensionless.
        impl core::ops::Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::iter::Sum for $name {
            #[inline]
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> core::iter::Sum<&'a $name> for $name {
            #[inline]
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                // Delegate (including precision/width flags) to the raw
                // f64 so typed quantities format exactly like the untyped
                // values they replaced.
                core::fmt::Display::fmt(&self.0, f)
            }
        }
    };
}

unit_newtype!(
    /// Modeled time in nanoseconds.
    Nanos,
    ns,
    from_ns,
    "ns"
);

unit_newtype!(
    /// Per-operation energy in picojoules (device-model granularity).
    Picojoules,
    pj,
    from_pj,
    "pJ"
);

unit_newtype!(
    /// Aggregated energy in nanojoules (report granularity).
    Nanojoules,
    nj,
    from_nj,
    "nJ"
);

impl Picojoules {
    /// Converts to nanojoules by the explicit ÷1000 the untyped
    /// accounting performed when rolling device-model costs into a
    /// report. This is the only pj→nj door, so the (inexact) rescale
    /// happens exactly once per aggregation, at the same point in the
    /// fold as before.
    #[inline]
    pub fn to_nanojoules(self) -> Nanojoules {
        Nanojoules(self.0 / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_bit_identical_to_raw_f64() {
        let samples = [
            0.0,
            1.5,
            0.1,
            12.500,
            1e-9,
            1e12,
            core::f64::consts::PI,
            f64::MAX,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    (Nanos::from_ns(a) + Nanos::from_ns(b)).ns().to_bits(),
                    (a + b).to_bits()
                );
                assert_eq!(
                    (Nanos::from_ns(a) - Nanos::from_ns(b)).ns().to_bits(),
                    (a - b).to_bits()
                );
                assert_eq!((Nanos::from_ns(a) * b).ns().to_bits(), (a * b).to_bits());
                assert_eq!((a * Nanos::from_ns(b)).ns().to_bits(), (a * b).to_bits());
                assert_eq!((Nanos::from_ns(a) / b).ns().to_bits(), (a / b).to_bits());
                assert_eq!(
                    (Nanos::from_ns(a) / Nanos::from_ns(b)).to_bits(),
                    (a / b).to_bits()
                );
            }
        }
    }

    #[test]
    fn sum_matches_f64_fold_order() {
        let xs = [0.1, 0.2, 0.3, 1e9, 1e-9, 7.25];
        let raw: f64 = xs.iter().sum();
        let typed: Nanos = xs.iter().map(|&x| Nanos::from_ns(x)).sum();
        assert_eq!(typed.ns().to_bits(), raw.to_bits());
    }

    #[test]
    fn saturates_to_infinity_instead_of_wrapping() {
        let huge = Picojoules::from_pj(f64::MAX);
        let sum = huge + huge;
        assert!(!sum.is_finite());
        assert!(sum.pj().is_sign_positive());
    }

    #[test]
    fn pj_to_nj_matches_untyped_divide() {
        for &pj in &[0.0, 1.0, 1234.5, 0.007, 9.9e17] {
            assert_eq!(
                Picojoules::from_pj(pj).to_nanojoules().nj().to_bits(),
                (pj / 1000.0).to_bits()
            );
        }
    }

    #[test]
    fn display_matches_raw_f64_formatting() {
        assert_eq!(
            format!("{:.3}", Nanos::from_ns(12.5)),
            format!("{:.3}", 12.5)
        );
        assert_eq!(
            format!("{}", Nanojoules::from_nj(0.25)),
            format!("{}", 0.25)
        );
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Nanos::from_ns(1.0);
        let b = Nanos::from_ns(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.total_cmp(&b), core::cmp::Ordering::Less);
    }
}
