//! Typed physical units used throughout the workspace.
//!
//! The paper measures CPU power in MHz, work in megacycles, memory in
//! megabytes, and time in seconds. Because 1 MHz is one megacycle per
//! second, the units compose dimensionally:
//!
//! ```
//! use dynaplace_model::units::{CpuSpeed, SimDuration, Work};
//!
//! let work = Work::from_mcycles(4_000.0);
//! let speed = CpuSpeed::from_mhz(1_000.0);
//! assert_eq!(work / speed, SimDuration::from_secs(4.0));
//! assert_eq!(speed * SimDuration::from_secs(4.0), work);
//! ```
//!
//! All units are thin `f64` newtypes ([C-NEWTYPE]): free to copy, ordered,
//! and impossible to confuse with one another at compile time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use dynaplace_json::{FromJson, Json, ToJson};

/// JSON form of an `f64` newtype: the bare magnitude.
macro_rules! json_magnitude {
    ($name:ident, $ctor:ident, $getter:ident) => {
        impl ToJson for $name {
            fn to_json(&self) -> Json {
                self.$getter().to_json()
            }
        }

        impl FromJson for $name {
            fn from_json(v: &Json) -> dynaplace_json::Result<Self> {
                f64::from_json(v).map(Self::$ctor)
            }
        }
    };
}

/// Declares the shared boilerplate for an `f64` newtype unit.
macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $ctor:ident, $getter:ident, $suffix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        pub struct $name(f64);

        json_magnitude!($name, $ctor, $getter);

        impl PartialOrd for $name {
            /// Mirrors `f64`'s IEEE partial order (`None` for NaN).
            /// Sorts must not unwrap this; order by the raw magnitude
            /// with [`f64::total_cmp`] instead.
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                #[allow(clippy::disallowed_methods)] // the one sanctioned call: defines the wrapper's order
                self.0.partial_cmp(&other.0)
            }
        }

        impl $name {
            /// The zero value of this unit.
            pub const ZERO: Self = Self(0.0);

            /// Creates a value from the raw magnitude.
            ///
            /// # Panics
            ///
            /// Panics (in debug builds) if `value` is NaN; all unit
            /// arithmetic in this crate assumes non-NaN magnitudes.
            #[inline]
            pub fn $ctor(value: f64) -> Self {
                debug_assert!(!value.is_nan(), concat!(stringify!($name), " must not be NaN"));
                Self(value)
            }

            /// Returns the raw magnitude.
            #[inline]
            pub fn $getter(self) -> f64 {
                self.0
            }

            /// Returns whether the magnitude is exactly zero.
            #[inline]
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }

            /// Returns the smaller of two values.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two values.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the value into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                assert!(lo.0 <= hi.0, "clamp bounds inverted");
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Saturating subtraction: never goes below zero.
            #[inline]
            pub fn saturating_sub(self, other: Self) -> Self {
                Self((self.0 - other.0).max(0.0))
            }

            /// Returns the ratio of `self` to `other` as a bare number.
            ///
            /// Returns `f64::INFINITY` when dividing a positive value by
            /// zero and `0.0` for `0 / 0` (a convention that suits the
            /// water-filling code, where zero demand over zero capacity
            /// means "no pressure").
            #[inline]
            pub fn ratio(self, other: Self) -> f64 {
                if other.0 == 0.0 {
                    if self.0 == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    self.0 / other.0
                }
            }

            /// True when the two magnitudes differ by at most `tol`.
            #[inline]
            pub fn approx_eq(self, other: Self, tol: f64) -> bool {
                (self.0 - other.0).abs() <= tol
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

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.3}{}", self.0, $suffix)
            }
        }
    };
}

unit! {
    /// CPU processing speed in MHz (megacycles per second).
    ///
    /// Also used for CPU *capacity* (a node's total speed) and CPU
    /// *allocations* (the share of speed granted to an application).
    CpuSpeed, from_mhz, as_mhz, " MHz"
}

unit! {
    /// Memory size in megabytes.
    Memory, from_mb, as_mb, " MB"
}

unit! {
    /// An amount of computational work, in megacycles.
    Work, from_mcycles, as_mcycles, " Mcycles"
}

unit! {
    /// A span of simulated time, in seconds.
    SimDuration, from_secs, as_secs, " s"
}

impl SimDuration {
    /// One simulated second.
    pub const SECOND: Self = Self(1.0);

    /// Builds a duration from minutes.
    #[inline]
    pub fn from_mins(mins: f64) -> Self {
        Self::from_secs(mins * 60.0)
    }

    /// True when the duration is strictly positive.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 > 0.0
    }
}

/// An instant on the simulated timeline, in seconds since the start of the
/// simulation.
///
/// `SimTime` is distinct from [`SimDuration`] so that instants and spans
/// cannot be mixed up: subtracting two instants yields a duration, and a
/// duration can be added to an instant, but two instants cannot be added.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

json_magnitude!(SimTime, from_secs, as_secs);

impl PartialOrd for SimTime {
    /// Mirrors `f64`'s IEEE partial order (`None` for NaN). Sorts must
    /// not unwrap this; use [`SimTime::total_cmp`] instead.
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        #[allow(clippy::disallowed_methods)] // the one sanctioned call: defines the wrapper's order
        self.0.partial_cmp(&other.0)
    }
}

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: Self = Self(0.0);

    /// Creates an instant at `secs` seconds since the simulation origin.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `secs` is NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(!secs.is_nan(), "SimTime must not be NaN");
        Self(secs)
    }

    /// Seconds since the simulation origin.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Duration from `earlier` to `self`, saturating at zero if `earlier`
    /// is actually later.
    #[inline]
    pub fn saturating_since(self, earlier: Self) -> SimDuration {
        SimDuration::from_secs((self.0 - earlier.0).max(0.0))
    }

    /// A total order over instants, delegating to [`f64::total_cmp`]
    /// (NaN sorts after every real instant). Sorts must use this rather
    /// than `partial_cmp(..).unwrap()` so that a NaN smuggled past the
    /// debug-only constructor check cannot panic mid-run in release
    /// builds.
    #[inline]
    pub fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: Self) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = Self;
    #[inline]
    fn add(self, rhs: SimDuration) -> Self {
        Self(self.0 + rhs.as_secs())
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_secs();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: SimDuration) -> Self {
        Self(self.0 - rhs.as_secs())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

// Dimensional cross-type arithmetic: MHz ≡ Mcycles/s.

impl Div<CpuSpeed> for Work {
    type Output = SimDuration;
    /// Time needed to perform `self` megacycles at the given speed.
    #[inline]
    fn div(self, speed: CpuSpeed) -> SimDuration {
        SimDuration::from_secs(self.as_mcycles() / speed.as_mhz())
    }
}

impl Div<SimDuration> for Work {
    type Output = CpuSpeed;
    /// Average speed needed to perform `self` megacycles in the given time.
    #[inline]
    fn div(self, time: SimDuration) -> CpuSpeed {
        CpuSpeed::from_mhz(self.as_mcycles() / time.as_secs())
    }
}

impl Mul<SimDuration> for CpuSpeed {
    type Output = Work;
    /// Work performed at `self` for the given duration.
    #[inline]
    fn mul(self, time: SimDuration) -> Work {
        Work::from_mcycles(self.as_mhz() * time.as_secs())
    }
}

impl Mul<CpuSpeed> for SimDuration {
    type Output = Work;
    #[inline]
    fn mul(self, speed: CpuSpeed) -> Work {
        speed * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_over_speed_is_duration() {
        let w = Work::from_mcycles(68_640_000.0);
        let s = CpuSpeed::from_mhz(3_900.0);
        assert!((w / s).as_secs() - 17_600.0 < 1e-9);
    }

    #[test]
    fn speed_times_duration_is_work() {
        let s = CpuSpeed::from_mhz(500.0);
        let d = SimDuration::from_secs(4.0);
        assert_eq!(s * d, Work::from_mcycles(2_000.0));
        assert_eq!(d * s, Work::from_mcycles(2_000.0));
    }

    #[test]
    fn work_over_duration_is_speed() {
        let w = Work::from_mcycles(2_500.0);
        let d = SimDuration::from_secs(5.0);
        assert_eq!(w / d, CpuSpeed::from_mhz(500.0));
    }

    #[test]
    fn simtime_arithmetic() {
        let t0 = SimTime::from_secs(10.0);
        let t1 = t0 + SimDuration::from_secs(5.0);
        assert_eq!(t1.as_secs(), 15.0);
        assert_eq!(t1 - t0, SimDuration::from_secs(5.0));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
        assert_eq!(t1.saturating_since(t0), SimDuration::from_secs(5.0));
        assert_eq!((t1 - SimDuration::from_secs(5.0)).as_secs(), 10.0);
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        let a = CpuSpeed::from_mhz(100.0);
        let b = CpuSpeed::from_mhz(250.0);
        assert_eq!(a.saturating_sub(b), CpuSpeed::ZERO);
        assert_eq!(b.saturating_sub(a), CpuSpeed::from_mhz(150.0));
    }

    #[test]
    fn ratio_conventions() {
        assert_eq!(Memory::from_mb(8.0).ratio(Memory::from_mb(2.0)), 4.0);
        assert_eq!(Memory::ZERO.ratio(Memory::ZERO), 0.0);
        assert_eq!(Memory::from_mb(1.0).ratio(Memory::ZERO), f64::INFINITY);
    }

    #[test]
    fn clamp_and_minmax() {
        let v = CpuSpeed::from_mhz(700.0);
        let lo = CpuSpeed::from_mhz(100.0);
        let hi = CpuSpeed::from_mhz(500.0);
        assert_eq!(v.clamp(lo, hi), hi);
        assert_eq!(lo.clamp(CpuSpeed::ZERO, hi), lo);
        assert_eq!(v.min(hi), hi);
        assert_eq!(v.max(hi), v);
    }

    #[test]
    #[should_panic(expected = "clamp bounds inverted")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = CpuSpeed::from_mhz(1.0).clamp(CpuSpeed::from_mhz(2.0), CpuSpeed::from_mhz(1.0));
    }

    #[test]
    fn sum_over_iterators() {
        let total: CpuSpeed = [1.0, 2.0, 3.5].iter().map(|&m| CpuSpeed::from_mhz(m)).sum();
        assert_eq!(total, CpuSpeed::from_mhz(6.5));
        let values = [Work::from_mcycles(1.0), Work::from_mcycles(2.0)];
        let total: Work = values.iter().sum();
        assert_eq!(total, Work::from_mcycles(3.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(CpuSpeed::from_mhz(1000.0).to_string(), "1000.000 MHz");
        assert_eq!(SimTime::from_secs(1.5).to_string(), "t=1.500s");
        assert_eq!(SimDuration::from_mins(2.0).to_string(), "120.000 s");
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", CpuSpeed::ZERO).is_empty());
        assert!(!format!("{:?}", SimTime::ZERO).is_empty());
    }
}
