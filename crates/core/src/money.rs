//! Exact money arithmetic.
//!
//! Cloud bills are sums of many small per-second charges; floating point
//! would accumulate error and make billing tests brittle. [`Cost`] stores
//! integer **micro-dollars** (1 μ$ = 10⁻⁶ USD) in an `i64`, which covers
//! ±9.2 trillion dollars — far beyond any experiment budget — while keeping
//! addition and comparison exact.

use crate::time::SimDuration;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact amount of money in integer micro-dollars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cost(i64);

impl Cost {
    /// Zero dollars.
    pub const ZERO: Cost = Cost(0);

    /// Creates a cost from integer micro-dollars.
    pub const fn from_micros(micros: i64) -> Self {
        Cost(micros)
    }

    /// Creates a cost from fractional dollars, rounding to the nearest
    /// micro-dollar.
    pub fn from_dollars(dollars: f64) -> Self {
        debug_assert!(dollars.is_finite(), "cost must be finite");
        Cost((dollars * 1e6).round() as i64)
    }

    /// Returns the amount in micro-dollars.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// Returns the amount in fractional dollars.
    pub fn as_dollars(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns true if the amount is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Computes the charge for running a resource priced at `self` per hour
    /// for `dur`, rounding to the nearest micro-dollar.
    ///
    /// This is the fundamental billing primitive: all major providers charge
    /// per-second (with hourly list prices), which this reproduces exactly.
    pub fn per_hour_for(self, dur: SimDuration) -> Cost {
        // price (μ$) × duration (ms), plus half an hour for rounding, fits
        // i64 for every realistic charge; the same integer formula in i128
        // covers multi-day runs at high prices. Both truncate toward zero,
        // so the two paths agree wherever the i64 one does not overflow.
        let half_up = i64::try_from(dur.as_millis())
            .ok()
            .and_then(|ms| self.0.checked_mul(ms))
            .and_then(|micros| micros.checked_add(1_800_000));
        match half_up {
            Some(v) => Cost(v / 3_600_000),
            None => {
                let micros = self.0 as i128 * dur.as_millis() as i128;
                Cost(((micros + 1_800_000) / 3_600_000) as i64)
            }
        }
    }

    /// Computes the charge for `gb` gigabytes at a price of `self` per GB.
    pub fn per_gb_for(self, gb: f64) -> Cost {
        debug_assert!(gb >= 0.0, "data volume must be non-negative");
        Cost((self.0 as f64 * gb).round() as i64)
    }

    /// Returns the larger of two amounts.
    pub fn max(self, other: Cost) -> Cost {
        Cost(self.0.max(other.0))
    }

    /// Returns the smaller of two amounts.
    pub fn min(self, other: Cost) -> Cost {
        Cost(self.0.min(other.0))
    }

    /// Saturating subtraction clamped at zero: `max(self - other, 0)`.
    pub fn saturating_sub(self, other: Cost) -> Cost {
        Cost((self.0 - other.0).max(0))
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.0 += rhs.0;
    }
}

impl Sub for Cost {
    type Output = Cost;
    fn sub(self, rhs: Cost) -> Cost {
        Cost(self.0 - rhs.0)
    }
}

impl SubAssign for Cost {
    fn sub_assign(&mut self, rhs: Cost) {
        self.0 -= rhs.0;
    }
}

impl Neg for Cost {
    type Output = Cost;
    fn neg(self) -> Cost {
        Cost(-self.0)
    }
}

impl Mul<u64> for Cost {
    type Output = Cost;
    fn mul(self, rhs: u64) -> Cost {
        Cost(self.0 * rhs as i64)
    }
}

impl Mul<f64> for Cost {
    type Output = Cost;
    fn mul(self, rhs: f64) -> Cost {
        Cost((self.0 as f64 * rhs).round() as i64)
    }
}

impl Div<u64> for Cost {
    type Output = Cost;
    fn div(self, rhs: u64) -> Cost {
        Cost(self.0 / rhs as i64)
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Add::add)
    }
}

impl fmt::Display for Cost {
    /// Formats as dollars with two decimal places, e.g. `$15.68`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        let dollars = abs / 1_000_000;
        let cents = (abs % 1_000_000 + 5_000) / 10_000;
        // Carry if rounding cents overflows (e.g. $1.9999995).
        let (dollars, cents) = if cents == 100 {
            (dollars + 1, 0)
        } else {
            (dollars, cents)
        };
        write!(f, "{sign}${dollars}.{cents:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dollars_round_trip() {
        let c = Cost::from_dollars(12.24);
        assert_eq!(c.as_micros(), 12_240_000);
        assert!((c.as_dollars() - 12.24).abs() < 1e-9);
    }

    #[test]
    fn per_hour_billing_is_exact() {
        // $3.60/hour for 1 second = $0.001 = 1000 μ$.
        let hourly = Cost::from_dollars(3.60);
        assert_eq!(
            hourly.per_hour_for(SimDuration::from_secs(1)).as_micros(),
            1000
        );
        // Full hour bills the list price exactly.
        assert_eq!(hourly.per_hour_for(SimDuration::from_hours(1)), hourly);
    }

    #[test]
    fn per_hour_no_overflow_for_long_runs() {
        let hourly = Cost::from_dollars(24.48);
        let week = SimDuration::from_hours(24 * 7);
        let c = hourly.per_hour_for(week);
        assert!((c.as_dollars() - 24.48 * 24.0 * 7.0).abs() < 1e-3);
    }

    /// The i128 formula `per_hour_for` must agree with.
    fn per_hour_i128(micros: i64, ms: u64) -> i64 {
        ((micros as i128 * ms as i128 + 1_800_000) / 3_600_000) as i64
    }

    #[test]
    fn per_hour_i64_path_matches_the_i128_formula() {
        let check = |micros: i64, ms: u64| {
            assert_eq!(
                Cost::from_micros(micros)
                    .per_hour_for(SimDuration::from_millis(ms))
                    .as_micros(),
                per_hour_i128(micros, ms),
                "{micros} μ$/h for {ms} ms"
            );
        };
        // Generated prices and durations across many magnitudes, both signs.
        let mut rng = crate::Prng::seed_from_u64(0x05EC_04D5);
        for _ in 0..20_000 {
            let micros = (rng.next_u64() >> rng.next_below(64)) as i64;
            let micros = if rng.next_below(4) == 0 {
                micros.wrapping_neg()
            } else {
                micros
            };
            check(micros, rng.next_u64() >> rng.next_below(64));
        }
        // Where price × ms + half an hour crosses i64::MAX, and where the
        // duration alone does not fit i64.
        let max = i64::MAX as u64;
        for micros in [
            1_i64,
            2,
            3,
            7,
            3_060_000,
            24_480_000,
            i64::MAX,
            -1,
            -24_480_000,
        ] {
            let edge = (max - 1_800_000) / micros.unsigned_abs();
            for ms in [
                edge.saturating_sub(1),
                edge,
                edge + 1,
                edge + 2,
                max,
                max + 1,
                u64::MAX,
            ] {
                check(micros, ms);
            }
        }
        check(i64::MIN, 1);
        check(i64::MIN + 1, 1);
        check((i64::MAX - 1_800_000) / 2, 2);
        check((i64::MAX - 1_800_000) / 2 + 1, 2);
    }

    #[test]
    fn per_gb_pricing() {
        let per_gb = Cost::from_dollars(0.01);
        assert_eq!(per_gb.per_gb_for(150.0), Cost::from_dollars(1.50));
    }

    #[test]
    fn arithmetic() {
        let a = Cost::from_dollars(1.0);
        let b = Cost::from_dollars(0.25);
        assert_eq!(a + b, Cost::from_dollars(1.25));
        assert_eq!(a - b, Cost::from_dollars(0.75));
        assert_eq!(b * 4, a);
        assert_eq!(a / 4, b);
        assert_eq!(a * 0.5, Cost::from_dollars(0.5));
        assert_eq!(-a, Cost::from_dollars(-1.0));
        assert_eq!(b.saturating_sub(a), Cost::ZERO);
    }

    #[test]
    fn display_rounds_to_cents() {
        assert_eq!(Cost::from_dollars(15.678).to_string(), "$15.68");
        assert_eq!(Cost::from_dollars(-0.5).to_string(), "-$0.50");
        assert_eq!(Cost::from_dollars(1.999999).to_string(), "$2.00");
        assert_eq!(Cost::ZERO.to_string(), "$0.00");
    }

    #[test]
    fn sum_of_costs() {
        let total: Cost = (1..=4).map(|i| Cost::from_dollars(i as f64)).sum();
        assert_eq!(total, Cost::from_dollars(10.0));
    }

    #[test]
    fn min_max() {
        let a = Cost::from_dollars(1.0);
        let b = Cost::from_dollars(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
