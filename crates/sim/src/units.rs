//! Typed units of measure for the modeled-cost accounting.
//!
//! Every number GaaS-X reports is a sum of per-op costs billed in
//! nanoseconds (time), picojoules (per-op energy), or nanojoules
//! (aggregated energy). The newtypes make the unit part of the type, so
//! `elapsed_ns + energy_pj` does not compile:
//!
//! * [`Nanos`] — modeled time, held as `i64` femtoseconds,
//! * [`Picojoules`] — per-operation energy, held as `i128` attojoules,
//! * [`Nanojoules`] — aggregated energy, held as `i128` attojoules.
//!
//! # Integer ticks
//!
//! The paper's device model is integral: its Table I latencies are whole
//! nanoseconds, and a 12-byte edge record at 128 GB/s streams in exactly
//! 93.75 ps. A femtosecond tick keeps every such constant exact; an
//! attojoule tick moves the Table I-derived MAC energy (9.3802734… pJ) by
//! under 1e-7 of its value. Because the ticks are integers, `+` and
//! [`Sum`](core::iter::Sum) are exact and associative: a total is the same
//! in whatever order its terms are folded, so sharded runs, per-tenant
//! ledgers and phase attributions conserve their sums without a fixed
//! fold order.
//!
//! # Rounding once
//!
//! A quantity enters the typed accounting through [`Nanos::from_ns`],
//! [`Picojoules::from_pj`] or [`Nanojoules::from_nj`], which round the
//! `f64` magnitude to the nearest tick (ties away from zero). Configured
//! constants take that one rounding when the configuration or the engine
//! is built; billing then multiplies them by `u64` operation counts, which
//! is exact. Division by a count ([`Div<u64>`](core::ops::Div)) rounds to
//! the nearest tick, once.
//!
//! # Saturation and headroom
//!
//! Arithmetic saturates instead of wrapping. `from_*` maps `+inf` (and any
//! magnitude past the range) to `MAX`, and `-inf` and NaN to `MIN`;
//! [`Nanos::is_finite`] is false at both ends, and the `f64` getters
//! report them as `±inf`. `i64` femtoseconds span ±9,223 s of modeled
//! time (signed, so a spent deadline is representable). Energies use
//! `i128` because `i64` attojoules would cap at 9.2 J, less than an 11 W
//! CPU baseline bills for one host second.
//!
//! Serialization note: the workspace's serde derives are no-op shims (the
//! build is offline); all real JSON is hand-rolled through the `f64`
//! getters ([`Nanos::ns`], [`Picojoules::pj`], [`Nanojoules::nj`]).

use serde::{Deserialize, Serialize};

macro_rules! unit_newtype {
    (
        $(#[$meta:meta])*
        $name:ident($raw:ty), $ticks_per_unit:expr,
        $getter:ident, $from:ident, $tick_getter:ident, $from_ticks:ident
    ) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize,
        )]
        #[repr(transparent)]
        pub struct $name($raw);

        impl $name {
            /// The additive identity.
            pub const ZERO: Self = Self(0);
            /// The saturated top of the range (`+inf` maps here).
            pub const MAX: Self = Self(<$raw>::MAX);
            /// The saturated bottom of the range (`-inf` and NaN map here).
            pub const MIN: Self = Self(<$raw>::MIN);

            /// Rounds a magnitude in this unit to the nearest tick,
            /// saturating at [`Self::MAX`] and [`Self::MIN`] (see the
            /// module docs).
            #[inline]
            pub fn $from(raw: f64) -> Self {
                Self::round_ticks(raw * $ticks_per_unit as f64)
            }

            /// Scales by a dimensionless factor, rounded once to the
            /// nearest tick (a published speedup or efficiency ratio).
            #[inline]
            pub fn scale(self, factor: f64) -> Self {
                Self::round_ticks(self.0 as f64 * factor)
            }

            #[inline]
            fn round_ticks(ticks: f64) -> Self {
                if ticks.is_nan() {
                    return Self::MIN;
                }
                // `as` saturates at the integer range, infinities included.
                Self(ticks.round() as $raw)
            }

            /// Wraps a raw tick count.
            #[inline]
            pub const fn $from_ticks(ticks: $raw) -> Self {
                Self(ticks)
            }

            /// Returns the raw tick count.
            #[inline]
            pub const fn $tick_getter(self) -> $raw {
                self.0
            }

            /// Returns the magnitude in this unit as an `f64` (`±inf` at
            /// the saturated ends).
            ///
            /// This is the door back to untyped floats; call sites mark
            /// exactly where a quantity leaves the typed accounting
            /// (formatting, telemetry, or a ratio).
            #[inline]
            pub fn $getter(self) -> f64 {
                match self {
                    Self::MAX => f64::INFINITY,
                    Self::MIN => f64::NEG_INFINITY,
                    Self(ticks) => ticks as f64 / $ticks_per_unit as f64,
                }
            }

            /// True unless the quantity saturated at either end.
            #[inline]
            pub fn is_finite(self) -> bool {
                self != Self::MAX && self != Self::MIN
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0.saturating_add(rhs.0))
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0.saturating_sub(rhs.0))
            }
        }

        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }

        /// Billing `count` operations of one cost: exact until it
        /// saturates.
        impl core::ops::Mul<u64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, count: u64) -> Self {
                let count = <$raw>::try_from(count).unwrap_or(<$raw>::MAX);
                Self(self.0.saturating_mul(count))
            }
        }

        /// Splitting a quantity `n` ways, rounded to the nearest tick
        /// (ties away from zero). Dividing by zero saturates.
        impl core::ops::Div<u64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, n: u64) -> Self {
                let n = <$raw>::try_from(n).unwrap_or(<$raw>::MAX);
                if n == 0 {
                    return if self.0 < 0 { Self::MIN } else { Self::MAX };
                }
                let (q, r) = (self.0 / n, self.0 % n);
                // |r| >= n - |r| without overflowing `2 * |r|`.
                if r.unsigned_abs() >= (n - r.abs()).unsigned_abs() {
                    Self(q + self.0.signum())
                } else {
                    Self(q)
                }
            }
        }

        /// The ratio of two like-united quantities is dimensionless.
        impl core::ops::Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 as f64 / rhs.0 as f64
            }
        }

        impl core::iter::Sum for $name {
            #[inline]
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |acc, q| acc + q)
            }
        }

        impl<'a> core::iter::Sum<&'a $name> for $name {
            #[inline]
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                iter.copied().sum()
            }
        }

        impl core::fmt::Display for $name {
            /// Formats the `f64` magnitude in this unit, honouring
            /// precision and width flags.
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                core::fmt::Display::fmt(&self.$getter(), f)
            }
        }
    };
}

/// Femtoseconds per nanosecond.
const FS_PER_NS: i64 = 1_000_000;
/// Attojoules per picojoule.
const AJ_PER_PJ: i128 = 1_000_000;
/// Attojoules per nanojoule.
const AJ_PER_NJ: i128 = 1_000_000_000;

unit_newtype!(
    /// Modeled time, in femtosecond ticks; reads out in nanoseconds.
    Nanos(i64),
    FS_PER_NS,
    ns,
    from_ns,
    fs,
    from_fs
);

unit_newtype!(
    /// Per-operation energy, in attojoule ticks; reads out in picojoules.
    Picojoules(i128),
    AJ_PER_PJ,
    pj,
    from_pj,
    aj,
    from_aj
);

unit_newtype!(
    /// Aggregated energy, in attojoule ticks; reads out in nanojoules.
    Nanojoules(i128),
    AJ_PER_NJ,
    nj,
    from_nj,
    aj,
    from_aj
);

impl Picojoules {
    /// The same energy read out in nanojoules. Both types count
    /// attojoules, so the conversion is exact.
    #[inline]
    pub const fn to_nanojoules(self) -> Nanojoules {
        Nanojoules(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_exact_ticks() {
        assert_eq!(Nanos::from_ns(30.0).fs(), 30_000_000);
        assert_eq!(Nanos::from_ns(0.09375).fs(), 93_750);
        assert_eq!(Nanos::from_ns(1.0) / 16, Nanos::from_fs(62_500));
        assert_eq!(Picojoules::from_pj(1.2).aj(), 1_200_000);
        assert_eq!(Nanos::from_ns(12.5).ns(), 12.5);
    }

    #[test]
    fn from_rounds_to_the_nearest_tick() {
        assert_eq!(Nanos::from_ns(0.4e-6).fs(), 0);
        assert_eq!(Nanos::from_ns(0.6e-6).fs(), 1);
        assert_eq!(Nanos::from_ns(-0.6e-6).fs(), -1);
        assert_eq!(Picojoules::from_pj(9.380_273_437_5).aj(), 9_380_273);
    }

    #[test]
    fn non_finite_inputs_saturate() {
        assert_eq!(Nanos::from_ns(f64::INFINITY), Nanos::MAX);
        assert_eq!(Nanos::from_ns(f64::NEG_INFINITY), Nanos::MIN);
        assert_eq!(Nanos::from_ns(f64::NAN), Nanos::MIN);
        assert_eq!(Nanos::from_ns(1e300), Nanos::MAX);
        assert_eq!(Picojoules::from_pj(f64::NAN), Picojoules::MIN);
        assert!(!Nanos::MAX.is_finite() && !Nanos::MIN.is_finite());
        assert!(Nanos::from_ns(-1.0).is_finite());
        assert_eq!(Nanos::MAX.ns(), f64::INFINITY);
        assert_eq!(Nanojoules::MIN.nj(), f64::NEG_INFINITY);
    }

    #[test]
    fn arithmetic_saturates_instead_of_wrapping() {
        assert_eq!(Nanos::MAX + Nanos::from_ns(1.0), Nanos::MAX);
        assert_eq!(Nanos::MIN - Nanos::from_ns(1.0), Nanos::MIN);
        assert_eq!(Nanos::from_ns(1.0) * u64::MAX, Nanos::MAX);
        assert_eq!(Picojoules::MAX * 2, Picojoules::MAX);
        let huge: Nanos = [Nanos::MAX, Nanos::MAX].iter().sum();
        assert_eq!(huge, Nanos::MAX);
    }

    #[test]
    fn division_by_a_count_rounds_to_nearest() {
        let fs = Nanos::from_fs;
        assert_eq!(fs(10) / 4, fs(3)); // 2.5 rounds away from zero
        assert_eq!(fs(9) / 4, fs(2));
        assert_eq!(fs(11) / 4, fs(3));
        assert_eq!(fs(-10) / 4, fs(-3));
        assert_eq!(fs(7) / 0, Nanos::MAX);
        assert_eq!(Nanos::MAX / 1, Nanos::MAX);
    }

    #[test]
    fn pj_to_nj_is_exact() {
        let pj = Picojoules::from_pj(1234.5);
        assert_eq!(pj.to_nanojoules().aj(), pj.aj());
        assert_eq!(pj.to_nanojoules().nj(), 1.2345);
    }

    #[test]
    fn scale_rounds_once() {
        assert_eq!(Nanos::from_ns(2.8e6).scale(1.0 / 2.8), Nanos::from_ns(1e6));
        assert_eq!(Nanos::from_fs(3).scale(0.5), Nanos::from_fs(2));
        assert_eq!(Nanos::MAX.scale(2.0), Nanos::MAX);
        assert_eq!(Nanos::from_fs(1).scale(f64::NAN), Nanos::MIN);
    }

    #[test]
    fn ratio_of_like_units_is_dimensionless() {
        assert_eq!(Nanos::from_ns(3.0) / Nanos::from_ns(12.0), 0.25);
    }
}
