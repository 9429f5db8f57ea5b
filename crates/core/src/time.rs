//! Virtual time for the discrete-event simulators.
//!
//! All RubberBand components operate on simulated wall-clock time with
//! millisecond resolution. [`SimTime`] is an absolute instant (milliseconds
//! since the start of the experiment) and [`SimDuration`] is a span between
//! two instants. Both are thin wrappers over `u64` so arithmetic is exact and
//! ordering is total — properties the event queue and the critical-path
//! simulator rely on.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time, in milliseconds since time zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `ms` milliseconds after time zero.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant `s` seconds after time zero.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Returns the instant as milliseconds since time zero.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds since time zero.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero if
    /// `earlier` is actually later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Returns `self + rhs`, saturating at the representable maximum
    /// instead of overflowing. Use wherever the duration comes from
    /// untrusted arithmetic (e.g. exponential backoff with extreme
    /// user-supplied bounds).
    pub const fn saturating_add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// Creates a duration of `m` minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// Creates a duration of `h` hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// millisecond (halves away from zero) and saturating negative values,
    /// NaN and infinities at zero.
    ///
    /// The rounding is exact: for every finite positive `s` the result is
    /// `(s * 1000.0).round() as u64`, bit for bit, computed with integer
    /// casts instead of the libm `round` call (see `round_to_u64`).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration(round_to_u64(s * 1000.0))
    }

    /// Returns the duration in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Returns true if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Returns `self - other`, saturating at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

/// `x.round() as u64` for every `f64` — nearest integer with halves away
/// from zero, negatives and NaN to 0, saturating at `u64::MAX` — without
/// the libm `round` call. From 2^52 up every `f64` is an integer, so the
/// cast alone is exact (and saturates as the reference does). Below it,
/// `t = x as u64` truncates (to 0 for negatives and NaN) and `x - t` is
/// exact: `t = 0` below 1, and from 1 up `t ≤ x < 2t` (Sterbenz). So the
/// fraction is compared with one half exactly, where `(x + 0.5) as u64`
/// would round 0.49999999999999994 up.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    const EXACT: f64 = 4_503_599_627_370_496.0; // 2^52
    if x >= EXACT {
        return x as u64;
    }
    let t = x as u64;
    t + u64::from(x - t as f64 >= 0.5)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    /// Formats as `HH:MM:SS.mmm`, omitting hours when zero.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 % 1000;
        let total_secs = self.0 / 1000;
        let s = total_secs % 60;
        let m = (total_secs / 60) % 60;
        let h = total_secs / 3600;
        if h > 0 {
            write!(f, "{h}:{m:02}:{s:02}.{ms:03}")
        } else {
            write!(f, "{m:02}:{s:02}.{ms:03}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(2500);
        assert_eq!((t + d).as_millis(), 12_500);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_hours(2), SimDuration::from_mins(120));
        assert_eq!(SimDuration::from_mins(3), SimDuration::from_secs(180));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
    }

    #[test]
    fn from_secs_f64_rounds_and_saturates() {
        assert_eq!(SimDuration::from_secs_f64(1.2345).as_millis(), 1235);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    /// `round_to_u64` is `f64::round() as u64`, and `from_secs_f64` keeps
    /// its libm formula, on edge values and 10^6 seeded random bit
    /// patterns.
    #[test]
    fn integer_rounding_equals_libm_round() {
        let check = |x: f64| {
            assert_eq!(
                round_to_u64(x),
                x.round() as u64,
                "{x:e} ({:#x})",
                x.to_bits()
            );
            let secs = if !x.is_finite() || x <= 0.0 {
                0
            } else {
                (x * 1000.0).round() as u64
            };
            assert_eq!(SimDuration::from_secs_f64(x).as_millis(), secs, "{x:e}");
        };
        let mut edges = vec![
            0.49999999999999994,
            0.5,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
        ];
        // Each n + 0.5 that is exact, small and up to 2^52.
        edges.extend((0..1000).map(|n| n as f64 + 0.5));
        edges.extend((1..=52).map(|k| (1u64 << k) as f64 - 0.5));
        // The neighbours of 0 (subnormals), one half, one, and the powers
        // where the cast path starts (2^52), every f64 is even (2^53),
        // and `u64` ends (2^63, 2^64).
        for at in [
            0.0,
            0.5,
            1.0,
            2f64.powi(52),
            2f64.powi(53),
            2f64.powi(63),
            2f64.powi(64),
        ] {
            for k in 0..8 {
                edges.push(f64::from_bits(at.to_bits() + k));
                edges.push(f64::from_bits(at.to_bits().saturating_sub(k)));
            }
        }
        for x in edges {
            check(x);
            check(-x);
        }
        let mut rng = Prng::seed_from_u64(0x5eed);
        for _ in 0..1_000_000 {
            let r = rng.next_u64();
            check(f64::from_bits(r));
            // Below 2^52 with up to 31 fraction bits: most halves land here.
            check((r >> 12) as f64 / (1u64 << (r & 31)) as f64);
        }
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 4, SimDuration::from_millis(2500));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_millis(61_500).to_string(), "01:01.500");
        assert_eq!(
            SimDuration::from_secs(3_600 + 62).to_string(),
            "1:01:02.000"
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn min_max_helpers() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let ta = SimTime::from_secs(1);
        let tb = SimTime::from_secs(2);
        assert_eq!(ta.max(tb), tb);
        assert_eq!(ta.min(tb), ta);
    }

    #[test]
    fn saturating_sub_duration() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_secs(1));
    }
}
