//! Property-based tests for the foundation types.
//!
//! These are randomized property checks driven by the crate's own
//! deterministic [`Prng`] (fixed seeds, fixed iteration counts), so they
//! run offline with no external test-framework dependency and fail
//! reproducibly: a reported case can be re-run bit-identically.

use rb_core::{Cost, Distribution, Prng, SimDuration, SimTime};

const CASES: u64 = 512;

/// Per-second billing is (approximately) additive in duration: billing
/// two spans separately differs from billing their union by at most
/// rounding (1 μ$ per charge).
#[test]
fn per_hour_billing_is_additive() {
    let mut rng = Prng::seed_from_u64(0xB111_0001);
    for _ in 0..CASES {
        let hourly_cents = 1 + rng.next_below(99_999) as i64;
        let a_ms = rng.next_below(10_000_000);
        let b_ms = rng.next_below(10_000_000);
        let price = Cost::from_micros(hourly_cents * 10_000);
        let split = price.per_hour_for(SimDuration::from_millis(a_ms))
            + price.per_hour_for(SimDuration::from_millis(b_ms));
        let joint = price.per_hour_for(SimDuration::from_millis(a_ms + b_ms));
        assert!(
            (split - joint).as_micros().abs() <= 1,
            "additivity violated: cents={hourly_cents} a={a_ms} b={b_ms}"
        );
    }
}

/// Billing is monotone in duration and zero for zero time.
#[test]
fn per_hour_billing_is_monotone() {
    let mut rng = Prng::seed_from_u64(0xB111_0002);
    for _ in 0..CASES {
        let hourly_cents = 1 + rng.next_below(99_999) as i64;
        let a_ms = rng.next_below(10_000_000);
        let extra_ms = rng.next_below(10_000_000);
        let price = Cost::from_micros(hourly_cents * 10_000);
        let small = price.per_hour_for(SimDuration::from_millis(a_ms));
        let big = price.per_hour_for(SimDuration::from_millis(a_ms + extra_ms));
        assert!(
            big >= small,
            "monotonicity violated: cents={hourly_cents} a={a_ms} extra={extra_ms}"
        );
        assert_eq!(price.per_hour_for(SimDuration::ZERO), Cost::ZERO);
    }
}

/// Dollars round-trip through micro-dollars at micro precision.
#[test]
fn cost_dollar_roundtrip() {
    let mut rng = Prng::seed_from_u64(0xB111_0003);
    for _ in 0..CASES {
        let d = rng.uniform(-1e7, 1e7);
        let c = Cost::from_dollars(d);
        assert!(
            (c.as_dollars() - d).abs() < 1e-6,
            "roundtrip drifted for {d}"
        );
    }
}

/// Time arithmetic round-trips.
#[test]
fn time_roundtrip() {
    let mut rng = Prng::seed_from_u64(0xB111_0004);
    for _ in 0..CASES {
        let base_ms = rng.next_below(u64::MAX / 4);
        let delta_ms = rng.next_below(u64::MAX / 4);
        let t = SimTime::from_millis(base_ms);
        let d = SimDuration::from_millis(delta_ms);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
        assert_eq!((t + d).saturating_since(t), d);
    }
}

/// Latency distributions used by the execution model never produce
/// negative samples, and sampling is deterministic per seed.
#[test]
fn latency_distributions_are_nonnegative_and_deterministic() {
    let mut rng = Prng::seed_from_u64(0xB111_0005);
    for _ in 0..CASES {
        let seed = rng.next_below(10_000);
        let mean = rng.uniform(0.001, 1000.0);
        let spread = rng.uniform(0.0, 3.0);
        for d in [
            Distribution::Constant(mean),
            Distribution::Uniform { lo: 0.0, hi: mean },
            Distribution::Normal {
                mean,
                std: spread * mean,
                floor: 0.0,
            },
            Distribution::lognormal_from_moments(mean, spread.max(1e-6) * mean),
            Distribution::Exponential { rate: 1.0 / mean },
            Distribution::ShiftedExponential {
                base: mean,
                rate: 1.0 / mean,
            },
        ] {
            let mut a = Prng::seed_from_u64(seed);
            let mut b = Prng::seed_from_u64(seed);
            for _ in 0..32 {
                let xa = d.sample(&mut a);
                let xb = d.sample(&mut b);
                assert_eq!(xa, xb);
                assert!(xa >= 0.0, "{:?} sampled {}", d, xa);
                assert!(xa.is_finite());
            }
        }
    }
}

/// `scaled(k)` scales samples of constant/uniform/normal families by
/// exactly k (same underlying uniforms).
#[test]
fn scaled_distribution_scales_samples() {
    let mut rng = Prng::seed_from_u64(0xB111_0006);
    for _ in 0..CASES {
        let seed = rng.next_below(10_000);
        let mean = rng.uniform(0.01, 100.0);
        let k = rng.uniform(0.01, 100.0);
        for d in [
            Distribution::Constant(mean),
            Distribution::Uniform { lo: 0.0, hi: mean },
            Distribution::Normal {
                mean,
                std: mean / 10.0,
                floor: 0.0,
            },
        ] {
            let s = d.scaled(k);
            let mut a = Prng::seed_from_u64(seed);
            let mut b = Prng::seed_from_u64(seed);
            for _ in 0..16 {
                let base = d.sample(&mut a);
                let scaled = s.sample(&mut b);
                assert!(
                    (scaled - base * k).abs() <= 1e-9 * (1.0 + scaled.abs()),
                    "scaled({k}) of {d:?}: {scaled} vs {base} * {k}"
                );
            }
        }
    }
}
