//! The relative performance value type.

use std::cmp::Ordering;
use std::fmt;

/// Floor of the *healthy* relative-performance range.
///
/// The paper samples the hypothetical relative performance function from
/// `u₁ = −∞`; a finite floor keeps the arithmetic well-behaved while still
/// representing "hopelessly late". Values at or above the floor are the
/// healthy range and are bit-identical to the historical flat-clamp
/// encoding. See DESIGN.md §6.
pub const RP_FLOOR: f64 = -10.0;

/// Upper bound for relative performance: a job that completes instantly at
/// its desired start time achieves exactly 1.
pub const RP_CEIL: f64 = 1.0;

/// Width of the sub-floor band, in `u` units.
///
/// Raw (unclamped) performance below [`RP_FLOOR`] is squash-compressed
/// into the open band `(RP_FLOOR − SUB_FLOOR_BAND, RP_FLOOR)` so that
/// hopeless jobs stay strictly ordered by lateness instead of collapsing
/// onto a flat clamp. The band bottom `RP_FLOOR − SUB_FLOOR_BAND` itself
/// encodes infinite lateness ("never completes").
pub const SUB_FLOOR_BAND: f64 = 1.0;

/// Absolute lower bound of the representable range: the sub-floor band
/// bottom, encoding infinite lateness.
pub const RP_MIN: f64 = RP_FLOOR - SUB_FLOOR_BAND;

/// A relative performance value (the paper's `u`): 0 when the goal is
/// exactly met, positive when exceeded, negative when violated.
///
/// Values are clamped into `[RP_MIN, RP_CEIL]` and are never NaN, which
/// makes `Rp` totally ordered ([`Ord`]). Values in `[RP_FLOOR, RP_CEIL]`
/// are the healthy range; values below [`RP_FLOOR`] live in the sub-floor
/// band and encode squash-compressed lateness (see
/// [`Rp::banded_from_lateness`]).
///
/// ```
/// use dynaplace_rpf::value::Rp;
///
/// let on_goal = Rp::new(0.0);
/// let ahead = Rp::new(0.63);
/// let late = Rp::new(-0.15);
/// assert!(late < on_goal && on_goal < ahead);
/// assert_eq!(Rp::new(55.0), Rp::MAX); // clamped
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rp(f64);

impl dynaplace_json::ToJson for Rp {
    fn to_json(&self) -> dynaplace_json::Json {
        dynaplace_json::ToJson::to_json(&self.0)
    }
}

impl dynaplace_json::FromJson for Rp {
    /// Decodes through [`Rp::new`], so out-of-range values clamp.
    fn from_json(v: &dynaplace_json::Json) -> dynaplace_json::Result<Self> {
        <f64 as dynaplace_json::FromJson>::from_json(v).map(Rp::new)
    }
}

impl Rp {
    /// Exactly meeting the goal.
    pub const GOAL: Self = Self(0.0);
    /// The healthy-range floor ([`RP_FLOOR`]). Sub-floor band values sort
    /// strictly below this.
    pub const FLOOR: Self = Self(RP_FLOOR);
    /// The absolute minimum ([`RP_MIN`]): the sub-floor band bottom,
    /// encoding infinite lateness.
    pub const MIN: Self = Self(RP_MIN);
    /// The upper clamp ([`RP_CEIL`]).
    pub const MAX: Self = Self(RP_CEIL);

    /// Creates a relative performance value, clamping into
    /// `[RP_MIN, RP_CEIL]`.
    ///
    /// Sub-floor band values (below [`RP_FLOOR`]) should normally be
    /// constructed via [`Rp::banded_from_lateness`]; this constructor
    /// accepts them so already-banded values round-trip through plain
    /// floats (JSON, interpolation).
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[inline]
    pub fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "relative performance must not be NaN");
        Self(value.clamp(RP_MIN, RP_CEIL))
    }

    /// Encodes a non-negative lateness `l` (in raw `u` units below the
    /// floor: `l = RP_FLOOR − u_raw`) as a sub-floor band value:
    ///
    /// `u = RP_FLOOR − SUB_FLOOR_BAND · l / (l + 1)`
    ///
    /// The mapping is strictly decreasing in `l`, so hopeless jobs order
    /// by lateness, and approaches (reaches, for `l = ∞`) the band bottom
    /// [`Rp::MIN`]. `l = 0` maps to exactly [`Rp::FLOOR`].
    ///
    /// # Panics
    ///
    /// Panics if `l` is NaN or negative.
    #[inline]
    pub fn banded_from_lateness(l: f64) -> Self {
        assert!(!l.is_nan(), "lateness must not be NaN");
        assert!(l >= 0.0, "lateness must be non-negative, got {l}");
        if l.is_infinite() {
            return Self::MIN;
        }
        // d ∈ [0, 1); the clamp guards float round-off only.
        let d = l / (l + 1.0);
        Self((RP_FLOOR - SUB_FLOOR_BAND * d).clamp(RP_MIN, RP_FLOOR))
    }

    /// True when this value lies strictly inside the sub-floor band
    /// (below [`RP_FLOOR`]).
    #[inline]
    pub fn is_sub_floor(self) -> bool {
        self.0 < RP_FLOOR
    }

    /// Decodes the lateness of a sub-floor band value (the inverse of
    /// [`Rp::banded_from_lateness`]); `None` for healthy-range values.
    /// The band bottom decodes to `f64::INFINITY`.
    #[inline]
    pub fn sub_floor_lateness(self) -> Option<f64> {
        if !self.is_sub_floor() {
            return None;
        }
        let d = (RP_FLOOR - self.0) / SUB_FLOOR_BAND;
        if d >= 1.0 {
            Some(f64::INFINITY)
        } else {
            Some(d / (1.0 - d))
        }
    }

    /// The value mapped back onto the raw (uncompressed) `u` axis:
    /// healthy-range values are themselves; sub-floor band values
    /// decompress to `RP_FLOOR − lateness` (possibly `−∞`).
    ///
    /// Tolerance-based comparisons must happen on this axis: band values
    /// are squash-compressed, so an absolute tolerance applied to the
    /// stored encoding would erase `ε`-sized lateness deltas.
    #[inline]
    pub fn effective(self) -> f64 {
        match self.sub_floor_lateness() {
            Some(l) => RP_FLOOR - l,
            None => self.0,
        }
    }

    /// The underlying (band-compressed) value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Whether the goal is met or exceeded (`u >= 0`).
    #[inline]
    pub fn meets_goal(self) -> bool {
        self.0 >= 0.0
    }

    /// The smaller of two values.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two values.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// True when the two values differ by at most `tol` on the raw
    /// (decompressed) `u` axis. For healthy-range pairs this is exactly
    /// the historical absolute comparison; sub-floor values decompress to
    /// lateness first so band-scale deltas are not erased.
    #[inline]
    pub fn approx_eq(self, other: Self, tol: f64) -> bool {
        self.cmp_with_tolerance(other, tol) == Ordering::Equal
    }

    /// Three-way comparison with tolerance `tol` on the raw
    /// (decompressed) `u` axis: `Equal` when within `tol`, otherwise the
    /// numeric order. Two band-bottom values (both infinitely late)
    /// compare `Equal`.
    #[inline]
    pub fn cmp_with_tolerance(self, other: Self, tol: f64) -> Ordering {
        let (a, b) = (self.effective(), other.effective());
        if a == b {
            // Covers both −∞ (band bottom vs band bottom), where a − b
            // would be NaN.
            return Ordering::Equal;
        }
        let diff = a - b;
        if diff.abs() <= tol {
            Ordering::Equal
        } else if diff > 0.0 {
            Ordering::Greater
        } else {
            Ordering::Less
        }
    }
}

impl Eq for Rp {}

impl PartialOrd for Rp {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rp {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Clamped, never NaN: total_cmp agrees with numeric order. The
        // band compression is strictly monotone, so the stored encoding
        // orders identically to the decompressed axis.
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Rp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u={:+.3}", self.0)
    }
}

impl From<Rp> for f64 {
    #[inline]
    fn from(rp: Rp) -> f64 {
        rp.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamping() {
        assert_eq!(Rp::new(2.0), Rp::MAX);
        assert_eq!(Rp::new(-99.0), Rp::MIN);
        assert_eq!(Rp::new(0.5).value(), 0.5);
    }

    #[test]
    fn ordering_is_numeric() {
        let mut v = vec![Rp::new(0.3), Rp::new(-0.4), Rp::new(1.0), Rp::GOAL];
        v.sort();
        assert_eq!(v, vec![Rp::new(-0.4), Rp::GOAL, Rp::new(0.3), Rp::new(1.0)]);
    }

    #[test]
    fn goal_semantics() {
        assert!(Rp::GOAL.meets_goal());
        assert!(Rp::new(0.1).meets_goal());
        assert!(!Rp::new(-0.001).meets_goal());
    }

    #[test]
    fn min_max_and_approx() {
        assert_eq!(Rp::new(0.2).min(Rp::new(0.5)), Rp::new(0.2));
        assert_eq!(Rp::new(0.2).max(Rp::new(0.5)), Rp::new(0.5));
        assert!(Rp::new(0.2).approx_eq(Rp::new(0.2000001), 1e-5));
        assert!(!Rp::new(0.2).approx_eq(Rp::new(0.3), 1e-5));
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_rejected() {
        let _ = Rp::new(f64::NAN);
    }

    #[test]
    fn display() {
        assert_eq!(Rp::new(0.63).to_string(), "u=+0.630");
        assert_eq!(Rp::new(-0.15).to_string(), "u=-0.150");
    }

    #[test]
    fn band_constants() {
        assert_eq!(Rp::FLOOR.value(), RP_FLOOR);
        assert_eq!(Rp::MIN.value(), RP_FLOOR - SUB_FLOOR_BAND);
        assert!(Rp::MIN < Rp::FLOOR);
        assert!(!Rp::FLOOR.is_sub_floor());
        assert!(Rp::MIN.is_sub_floor());
    }

    #[test]
    fn band_orders_by_lateness() {
        let a = Rp::banded_from_lateness(0.5);
        let b = Rp::banded_from_lateness(2.0);
        let c = Rp::banded_from_lateness(100.0);
        assert!(Rp::FLOOR > a && a > b && b > c && c > Rp::MIN);
        assert_eq!(Rp::banded_from_lateness(0.0), Rp::FLOOR);
        assert_eq!(Rp::banded_from_lateness(f64::INFINITY), Rp::MIN);
    }

    #[test]
    fn band_round_trips() {
        for l in [0.25, 1.0, 3.5, 42.0, 1e6] {
            let u = Rp::banded_from_lateness(l);
            let back = u.sub_floor_lateness().expect("banded value is sub-floor");
            assert!(
                (back - l).abs() <= 1e-9 * l.max(1.0),
                "lateness {l} round-tripped to {back}"
            );
        }
        assert_eq!(Rp::FLOOR.sub_floor_lateness(), None);
        assert_eq!(Rp::GOAL.sub_floor_lateness(), None);
        assert_eq!(Rp::MIN.sub_floor_lateness(), Some(f64::INFINITY));
    }

    #[test]
    fn effective_decompresses() {
        assert_eq!(Rp::new(0.3).effective(), 0.3);
        assert_eq!(Rp::FLOOR.effective(), RP_FLOOR);
        let u = Rp::banded_from_lateness(4.0);
        assert!((u.effective() - (RP_FLOOR - 4.0)).abs() <= 1e-9);
        assert_eq!(Rp::MIN.effective(), f64::NEG_INFINITY);
    }

    #[test]
    fn tolerance_compares_on_decompressed_axis() {
        // Band-scale encodings of nearby latenesses are ε-apart in the
        // stored encoding but tol-distinguishable once decompressed.
        let a = Rp::banded_from_lateness(1000.0);
        let b = Rp::banded_from_lateness(1001.0);
        assert!((a.value() - b.value()).abs() < 1e-5);
        assert_eq!(a.cmp_with_tolerance(b, 1e-3), Ordering::Greater);
        assert!(!a.approx_eq(b, 1e-3));
        // Within tolerance on the lateness axis → equal.
        let c = Rp::banded_from_lateness(1000.0005);
        assert!(a.approx_eq(c, 1e-3));
        // Healthy pairs behave exactly as the historical absolute check.
        assert_eq!(
            Rp::new(0.2).cmp_with_tolerance(Rp::new(0.5), 1e-6),
            Ordering::Less
        );
        // Mixed pair: healthy always beats sub-floor by more than any
        // sane tolerance once decompressed.
        assert_eq!(
            Rp::FLOOR.cmp_with_tolerance(Rp::banded_from_lateness(50.0), 1.0),
            Ordering::Greater
        );
        // Two infinitely-late values are indistinguishable.
        assert_eq!(Rp::MIN.cmp_with_tolerance(Rp::MIN, 1e-6), Ordering::Equal);
    }
}
