//! Deterministic pseudo-randomness and latency distributions.
//!
//! Every stochastic quantity in RubberBand — training-step latency,
//! provider queuing delay, instance initialization time, learning-curve
//! noise — is sampled from a [`Distribution`] driven by a [`Prng`]. The
//! generator is xoshiro256++ seeded through SplitMix64, the standard
//! construction recommended by its authors; it is small, fast, and gives
//! bit-identical streams on every platform, which keeps experiment tables
//! exactly reproducible from a seed.

use std::f64::consts::PI;

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use rb_core::rng::Prng;
/// let mut a = Prng::seed_from_u64(42);
/// let mut b = Prng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Prng {
    s: [u64; 4],
}

/// SplitMix64 step used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a base seed with a stream index into an independent 64-bit seed.
///
/// This is the counter-based seed derivation used by the Monte-Carlo
/// prediction engine: sample `i` of a prediction draws from
/// `Prng::seed_from_u64(mix_seed(config_seed, i))`, so each sample's
/// stream depends only on `(seed, i)` and never on execution order. The
/// same samples can therefore be drawn sequentially, in any thread
/// interleaving, or re-drawn in isolation, and remain bit-identical.
///
/// The construction is the SplitMix64 output function applied to
/// `seed + index · γ` (γ the golden-ratio increment), i.e. the `index`-th
/// element of the SplitMix64 stream starting at `seed` — the standard
/// counter-mode use of SplitMix64.
///
/// # Examples
///
/// ```
/// use rb_core::rng::mix_seed;
/// assert_eq!(mix_seed(7, 3), mix_seed(7, 3));
/// assert_ne!(mix_seed(7, 3), mix_seed(7, 4));
/// assert_ne!(mix_seed(7, 0), mix_seed(8, 0));
/// ```
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut state = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut state)
}

impl Prng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng { s }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift rejection-free bounded generation (Lemire). The
        // tiny modulo bias is irrelevant for simulation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform bounds inverted");
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a standard normal variate via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.next_f64().max(1e-300);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
    }

    /// Derives an independent child generator; deterministic in the parent's
    /// state. Used to give each trial / instance its own stream so that
    /// adding an entity does not perturb the samples drawn by others.
    pub fn fork(&mut self) -> Prng {
        Prng::seed_from_u64(self.next_u64())
    }

    /// Creates the generator for stream `index` of the seed's family —
    /// shorthand for `seed_from_u64(mix_seed(seed, index))`.
    pub fn for_stream(seed: u64, index: u64) -> Prng {
        Prng::seed_from_u64(mix_seed(seed, index))
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// A parametric distribution over non-negative latencies (or other scalars).
///
/// The execution model associates one of these with every DAG node type
/// (§4.2 of the paper); the profiler fits them from measurements.
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Always returns the same value. Used for modelling overheads that are
    /// held constant in an experiment (e.g. "init latency = 0 s" in Fig. 9).
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Normal with the given mean and standard deviation, truncated below at
    /// `floor` (latencies cannot be negative).
    Normal {
        /// Mean of the untruncated normal.
        mean: f64,
        /// Standard deviation.
        std: f64,
        /// Lower truncation bound applied after sampling.
        floor: f64,
    },
    /// Log-normal parameterized by the mean and standard deviation of the
    /// underlying normal (of `ln X`). Heavy right tail; a good fit for cloud
    /// provisioning delays.
    LogNormal {
        /// Mean of `ln X`.
        mu: f64,
        /// Standard deviation of `ln X`.
        sigma: f64,
    },
    /// Exponential with the given rate λ (mean `1/λ`).
    Exponential {
        /// Rate parameter λ.
        rate: f64,
    },
    /// A constant base plus an exponential tail: `base + Exp(rate)`.
    /// Models "at least `base` seconds, sometimes much more" behaviours
    /// such as spot-capacity queuing.
    ShiftedExponential {
        /// Deterministic lower bound.
        base: f64,
        /// Rate of the exponential tail.
        rate: f64,
    },
}

impl Distribution {
    /// A distribution that is always exactly zero.
    pub const ZERO: Distribution = Distribution::Constant(0.0);

    /// Creates a normal distribution truncated at zero.
    pub fn normal(mean: f64, std: f64) -> Distribution {
        Distribution::Normal {
            mean,
            std,
            floor: 0.0,
        }
    }

    /// Creates a log-normal from the desired mean and standard deviation of
    /// the *resulting* distribution (moment matching).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive or `std` is negative.
    pub fn lognormal_from_moments(mean: f64, std: f64) -> Distribution {
        assert!(mean > 0.0, "lognormal mean must be positive");
        assert!(std >= 0.0, "lognormal std must be non-negative");
        if std == 0.0 {
            return Distribution::Constant(mean);
        }
        let cv2 = (std / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Distribution::LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }

    /// Checks the distribution's parameters: every field must be finite,
    /// bounds must be ordered, rates must be strictly positive, and
    /// values that model latencies or prices must be non-negative. A
    /// distribution that fails this check can produce NaN, negative, or
    /// infinite samples — callers that accept distributions from
    /// configuration (the cloud provider, the cloud profile) validate at
    /// construction instead of sampling garbage later.
    ///
    /// # Errors
    ///
    /// Returns [`crate::RbError::InvalidConfig`] describing the first
    /// offending parameter.
    pub fn validate(&self) -> crate::Result<()> {
        let bad = |what: &str| {
            Err(crate::RbError::InvalidConfig(format!(
                "invalid distribution {self:?}: {what}"
            )))
        };
        match *self {
            Distribution::Constant(v) => {
                if !v.is_finite() || v < 0.0 {
                    return bad("constant must be finite and non-negative");
                }
            }
            Distribution::Uniform { lo, hi } => {
                if !lo.is_finite() || !hi.is_finite() {
                    return bad("bounds must be finite");
                }
                if lo < 0.0 {
                    return bad("lower bound must be non-negative");
                }
                if hi < lo {
                    return bad("bounds are inverted");
                }
            }
            Distribution::Normal { mean, std, floor } => {
                if !mean.is_finite() || !std.is_finite() || !floor.is_finite() {
                    return bad("parameters must be finite");
                }
                if mean < 0.0 {
                    return bad("mean must be non-negative");
                }
                if std < 0.0 {
                    return bad("std must be non-negative");
                }
            }
            Distribution::LogNormal { mu, sigma } => {
                if !mu.is_finite() || !sigma.is_finite() {
                    return bad("parameters must be finite");
                }
                if sigma < 0.0 {
                    return bad("sigma must be non-negative");
                }
            }
            Distribution::Exponential { rate } => {
                if !rate.is_finite() || rate <= 0.0 {
                    return bad("rate must be finite and strictly positive");
                }
            }
            Distribution::ShiftedExponential { base, rate } => {
                if !base.is_finite() || base < 0.0 {
                    return bad("base must be finite and non-negative");
                }
                if !rate.is_finite() || rate <= 0.0 {
                    return bad("rate must be finite and strictly positive");
                }
            }
        }
        Ok(())
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Prng) -> f64 {
        match *self {
            Distribution::Constant(v) => v,
            Distribution::Uniform { lo, hi } => rng.uniform(lo, hi),
            Distribution::Normal { mean, std, floor } => {
                Distribution::truncated_normal(mean, std, floor, rng.standard_normal())
            }
            Distribution::LogNormal { mu, sigma } => (mu + sigma * rng.standard_normal()).exp(),
            Distribution::Exponential { rate } => -(1.0 - rng.next_f64()).ln() / rate,
            Distribution::ShiftedExponential { base, rate } => {
                base - (1.0 - rng.next_f64()).ln() / rate
            }
        }
    }

    /// The draw of `Normal { mean, std, floor }` whose standard normal is
    /// `z`. [`Distribution::sample`] evaluates exactly this on the
    /// generator's next [`Prng::standard_normal`], so a caller that saved
    /// that `z` reproduces the draw bit for bit (Rust never fuses the
    /// multiply and add into an FMA).
    pub fn truncated_normal(mean: f64, std: f64, floor: f64, z: f64) -> f64 {
        (mean + std * z).max(floor)
    }

    /// Returns the distribution's mean (for truncated normals, the mean of
    /// the *untruncated* distribution — adequate when `floor` is far in the
    /// tail, as it is for all latency models here).
    pub fn mean(&self) -> f64 {
        match *self {
            Distribution::Constant(v) => v,
            Distribution::Uniform { lo, hi } => (lo + hi) / 2.0,
            Distribution::Normal { mean, .. } => mean,
            Distribution::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Distribution::Exponential { rate } => 1.0 / rate,
            Distribution::ShiftedExponential { base, rate } => base + 1.0 / rate,
        }
    }

    /// Scales the distribution by a non-negative constant `k`, returning the
    /// distribution of `k·X`.
    pub fn scaled(&self, k: f64) -> Distribution {
        debug_assert!(k >= 0.0, "scale factor must be non-negative");
        match *self {
            Distribution::Constant(v) => Distribution::Constant(v * k),
            Distribution::Uniform { lo, hi } => Distribution::Uniform {
                lo: lo * k,
                hi: hi * k,
            },
            Distribution::Normal { mean, std, floor } => Distribution::Normal {
                mean: mean * k,
                std: std * k,
                floor: floor * k,
            },
            Distribution::LogNormal { mu, sigma } => Distribution::LogNormal {
                mu: mu + k.max(1e-300).ln(),
                sigma,
            },
            Distribution::Exponential { rate } => Distribution::Exponential { rate: rate / k },
            Distribution::ShiftedExponential { base, rate } => Distribution::ShiftedExponential {
                base: base * k,
                rate: rate / k,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OnlineStats;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Prng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Prng::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let x = rng.next_below(5);
            assert!(x < 5);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn normal_sample_moments_match() {
        let mut rng = Prng::seed_from_u64(5);
        let d = Distribution::normal(4.0, 1.0);
        let mut st = OnlineStats::new();
        for _ in 0..50_000 {
            st.push(d.sample(&mut rng));
        }
        assert!((st.mean() - 4.0).abs() < 0.05, "mean {}", st.mean());
        assert!((st.std() - 1.0).abs() < 0.05, "std {}", st.std());
    }

    #[test]
    fn lognormal_moment_matching() {
        let d = Distribution::lognormal_from_moments(10.0, 3.0);
        assert!((d.mean() - 10.0).abs() < 1e-9);
        let mut rng = Prng::seed_from_u64(6);
        let mut st = OnlineStats::new();
        for _ in 0..100_000 {
            st.push(d.sample(&mut rng));
        }
        assert!((st.mean() - 10.0).abs() < 0.2, "mean {}", st.mean());
        assert!((st.std() - 3.0).abs() < 0.2, "std {}", st.std());
    }

    #[test]
    fn lognormal_zero_std_degenerates_to_constant() {
        assert_eq!(
            Distribution::lognormal_from_moments(5.0, 0.0),
            Distribution::Constant(5.0)
        );
    }

    #[test]
    fn exponential_mean() {
        let d = Distribution::Exponential { rate: 0.5 };
        assert!((d.mean() - 2.0).abs() < 1e-12);
        let mut rng = Prng::seed_from_u64(8);
        let mut st = OnlineStats::new();
        for _ in 0..100_000 {
            let x = d.sample(&mut rng);
            assert!(x >= 0.0);
            st.push(x);
        }
        assert!((st.mean() - 2.0).abs() < 0.05);
    }

    #[test]
    fn truncated_normal_never_below_floor() {
        let d = Distribution::Normal {
            mean: 0.5,
            std: 2.0,
            floor: 0.0,
        };
        let mut rng = Prng::seed_from_u64(9);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn scaled_distribution_scales_mean() {
        for d in [
            Distribution::Constant(3.0),
            Distribution::Uniform { lo: 1.0, hi: 5.0 },
            Distribution::normal(4.0, 1.0),
            Distribution::lognormal_from_moments(4.0, 1.0),
            Distribution::Exponential { rate: 0.25 },
            Distribution::ShiftedExponential {
                base: 1.0,
                rate: 1.0,
            },
        ] {
            let s = d.scaled(2.0);
            assert!(
                (s.mean() - 2.0 * d.mean()).abs() < 1e-9,
                "scaling {d:?} gave mean {}",
                s.mean()
            );
        }
    }

    #[test]
    fn fork_streams_are_independent_of_sibling_count() {
        // Forking N children then sampling child k gives the same values
        // regardless of how many further forks happen afterwards.
        let mut parent1 = Prng::seed_from_u64(42);
        let mut c1 = parent1.fork();
        let _ = parent1.fork();
        let mut parent2 = Prng::seed_from_u64(42);
        let mut c2 = parent2.fork();
        assert_eq!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn mix_seed_is_order_free_and_collision_resistant() {
        // The derived seed depends only on (seed, index): drawing stream 5
        // never requires drawing streams 0..4 first.
        let direct = Prng::for_stream(99, 5).next_u64();
        let mut detour = Prng::for_stream(99, 4);
        let _ = detour.next_u64();
        assert_eq!(direct, Prng::for_stream(99, 5).next_u64());
        // Nearby (seed, index) pairs land on distinct seeds.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            for index in 0..64u64 {
                assert!(
                    seen.insert(mix_seed(seed, index)),
                    "collision at ({seed}, {index})"
                );
            }
        }
    }

    #[test]
    fn validate_accepts_well_formed_distributions() {
        for d in [
            Distribution::ZERO,
            Distribution::Constant(3.0),
            Distribution::Uniform { lo: 1.0, hi: 5.0 },
            Distribution::normal(4.0, 1.0),
            Distribution::lognormal_from_moments(4.0, 1.0),
            Distribution::Exponential { rate: 0.25 },
            Distribution::ShiftedExponential {
                base: 1.0,
                rate: 1.0,
            },
        ] {
            assert!(d.validate().is_ok(), "{d:?} should validate");
        }
    }

    #[test]
    fn validate_rejects_garbage_parameters() {
        let bad = [
            Distribution::Constant(-1.0),
            Distribution::Constant(f64::NAN),
            Distribution::Constant(f64::INFINITY),
            Distribution::Uniform { lo: 5.0, hi: 1.0 },
            Distribution::Uniform { lo: -1.0, hi: 1.0 },
            Distribution::Uniform {
                lo: 0.0,
                hi: f64::INFINITY,
            },
            Distribution::Normal {
                mean: 1.0,
                std: -0.5,
                floor: 0.0,
            },
            Distribution::Normal {
                mean: f64::NAN,
                std: 1.0,
                floor: 0.0,
            },
            Distribution::Normal {
                mean: -2.0,
                std: 1.0,
                floor: 0.0,
            },
            Distribution::LogNormal {
                mu: 0.0,
                sigma: -1.0,
            },
            Distribution::LogNormal {
                mu: f64::INFINITY,
                sigma: 1.0,
            },
            Distribution::Exponential { rate: 0.0 },
            Distribution::Exponential { rate: -1.0 },
            Distribution::Exponential { rate: f64::NAN },
            Distribution::ShiftedExponential {
                base: -1.0,
                rate: 1.0,
            },
            Distribution::ShiftedExponential {
                base: 1.0,
                rate: 0.0,
            },
        ];
        for d in bad {
            let err = d.validate().expect_err(&format!("{d:?} must be rejected"));
            assert!(matches!(err, crate::RbError::InvalidConfig(_)), "{err:?}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Prng::seed_from_u64(10);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
