//! The pre-execution measurement step (§5).
//!
//! "RubberBand runs a profiling step … iteratively scaling up the resource
//! allocation to a trial by powers of two and measuring training latencies
//! for each allocation. The data is aggregated to interpolate an estimated
//! training latency scaling function of the model."
//!
//! [`profile_training`] performs exactly that against a ground-truth
//! [`ScalingModel`] (standing in for real hardware): it observes noisy
//! per-step latencies at 1, 2, 4, … GPUs, averages them into knots, fits an
//! [`InterpolatedScaling`], and estimates the noise level from the
//! residual spread. It also accounts the GPU-time the profiling itself
//! consumed, since profiling is only worthwhile because it is cheap
//! relative to the job (§7).

use crate::model_profile::ModelProfile;
use rb_core::{Prng, RbError, Result};
use rb_scaling::{InterpolatedScaling, PlacementQuality, ScalingModel};
use std::sync::Arc;

/// Configuration of the profiling run.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Largest GPU allocation to measure (knots at 1, 2, 4, … up to this).
    pub max_gpus: u32,
    /// Measured steps per allocation point. No library code sets it;
    /// it stays settable as a test oracle's input:
    /// `noise_estimate_is_in_the_right_ballpark` measures 200 steps per
    /// point to check the noise estimator tightly.
    pub steps_per_point: u32,
    /// Relative jitter (σ/μ) of observed step latencies on the substrate.
    /// No library code sets it; it stays settable as a test oracle's
    /// input: the same test injects a known 0.10 and checks that the
    /// estimate recovers it, which the default cannot show.
    pub observation_noise_frac: f64,
    /// Seed for the measurement noise stream.
    pub seed: u64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            max_gpus: 16,
            steps_per_point: 20,
            observation_noise_frac: 0.03,
            seed: 0xC0FFEE,
        }
    }
}

/// The outcome of a profiling run.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The fitted profile, ready for planning.
    pub profile: ModelProfile,
    /// Raw measurements: `(gpus, observed step latencies)`.
    pub measurements: Vec<(u32, Vec<f64>)>,
    /// GPU-seconds consumed by profiling.
    pub profiling_gpu_seconds: f64,
    /// Wall-clock seconds consumed by profiling (points measured
    /// sequentially, as the paper's scale-up procedure does).
    pub profiling_wall_seconds: f64,
}

/// Profiles a training procedure over a ground-truth scaling model.
///
/// `steps_per_iter` and `train_startup_secs` describe the work-unit
/// structure (they are properties of the job specification and training
/// harness, not measured quantities).
///
/// # Errors
///
/// Returns [`RbError::Profiling`] if the configuration is degenerate
/// (zero GPUs or zero measurement steps).
pub fn profile_training(
    truth: &dyn ScalingModel,
    steps_per_iter: u64,
    train_startup_secs: f64,
    config: &ProfilerConfig,
) -> Result<ProfileReport> {
    if config.max_gpus == 0 {
        return Err(RbError::Profiling("max_gpus must be >= 1".into()));
    }
    if config.steps_per_point == 0 {
        return Err(RbError::Profiling("steps_per_point must be >= 1".into()));
    }
    let mut rng = Prng::seed_from_u64(config.seed);
    let mut measurements = Vec::new();
    let mut gpu_seconds = 0.0;
    let mut wall_seconds = 0.0;
    let mut g = 1u32;
    while g <= config.max_gpus {
        let true_mean = truth.iter_latency_secs(g, PlacementQuality::Packed);
        let mut obs = Vec::with_capacity(config.steps_per_point as usize);
        for _ in 0..config.steps_per_point {
            let jitter = 1.0 + config.observation_noise_frac * rng.standard_normal();
            let latency = (true_mean * jitter).max(true_mean * 0.1);
            obs.push(latency);
            gpu_seconds += latency * f64::from(g);
            wall_seconds += latency;
        }
        measurements.push((g, obs));
        if g == config.max_gpus {
            break;
        }
        g = (g * 2).min(config.max_gpus);
    }

    let points: Vec<(u32, f64)> = measurements
        .iter()
        .map(|(g, obs)| (*g, rb_core::stats::mean(obs)))
        .collect();
    let fitted = InterpolatedScaling::from_points(&points, truth.batch_size())?;

    // Estimate relative noise from the pooled residual spread.
    let mut rel_devs = Vec::new();
    for (g, obs) in &measurements {
        let m = rb_core::stats::mean(obs);
        let _ = g;
        for o in obs {
            rel_devs.push(o / m - 1.0);
        }
    }
    let step_noise_frac = rb_core::stats::std(&rel_devs);
    // Per-unit noise: `steps_per_iter` independent steps ⇒ σ shrinks by
    // √steps relative to the unit mean.
    let unit_noise_frac = step_noise_frac / (steps_per_iter as f64).sqrt();

    Ok(ProfileReport {
        profile: ModelProfile::from_scaling(
            format!("profiled[{}]", config.max_gpus),
            Arc::new(fitted),
            steps_per_iter,
            train_startup_secs,
            unit_noise_frac,
        ),
        measurements,
        profiling_gpu_seconds: gpu_seconds,
        profiling_wall_seconds: wall_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_scaling::zoo::RESNET50;
    use rb_scaling::AnalyticScaling;

    fn truth() -> AnalyticScaling {
        AnalyticScaling::for_arch(&RESNET50, 512, 4)
    }

    #[test]
    fn fitted_profile_tracks_truth_at_measured_points() {
        let t = truth();
        let report = profile_training(&t, 25, 5.0, &ProfilerConfig::default()).unwrap();
        for g in [1u32, 2, 4, 8, 16] {
            let fit = report
                .profile
                .scaling
                .iter_latency_secs(g, PlacementQuality::Packed);
            let real = t.iter_latency_secs(g, PlacementQuality::Packed);
            assert!(
                (fit - real).abs() / real < 0.05,
                "{g} GPUs: fit {fit} vs truth {real}"
            );
        }
    }

    #[test]
    fn profiling_measures_powers_of_two_up_to_max() {
        let report = profile_training(&truth(), 1, 0.0, &ProfilerConfig::default()).unwrap();
        let gpus: Vec<u32> = report.measurements.iter().map(|(g, _)| *g).collect();
        assert_eq!(gpus, vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn non_power_of_two_max_adds_final_knot() {
        let cfg = ProfilerConfig {
            max_gpus: 12,
            ..ProfilerConfig::default()
        };
        let report = profile_training(&truth(), 1, 0.0, &cfg).unwrap();
        let gpus: Vec<u32> = report.measurements.iter().map(|(g, _)| *g).collect();
        assert_eq!(gpus, vec![1, 2, 4, 8, 12]);
    }

    #[test]
    fn noise_estimate_is_in_the_right_ballpark() {
        let cfg = ProfilerConfig {
            steps_per_point: 200,
            observation_noise_frac: 0.10,
            ..ProfilerConfig::default()
        };
        let report = profile_training(&truth(), 1, 0.0, &cfg).unwrap();
        let est = report.profile.unit_noise_frac;
        assert!(
            (0.06..0.14).contains(&est),
            "estimated noise {est} far from injected 0.10"
        );
    }

    #[test]
    fn profiling_cost_is_accounted_and_small() {
        let report = profile_training(&truth(), 1, 0.0, &ProfilerConfig::default()).unwrap();
        assert!(report.profiling_gpu_seconds > 0.0);
        assert!(report.profiling_wall_seconds > 0.0);
        // "This can be done on the order of minutes" (§5).
        assert!(
            report.profiling_wall_seconds < 600.0,
            "profiling took {} s",
            report.profiling_wall_seconds
        );
    }

    #[test]
    fn profiling_is_deterministic_in_seed() {
        let a = profile_training(&truth(), 1, 0.0, &ProfilerConfig::default()).unwrap();
        let b = profile_training(&truth(), 1, 0.0, &ProfilerConfig::default()).unwrap();
        assert_eq!(a.measurements, b.measurements);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let bad_gpus = ProfilerConfig {
            max_gpus: 0,
            ..ProfilerConfig::default()
        };
        assert!(profile_training(&truth(), 1, 0.0, &bad_gpus).is_err());
        let bad_steps = ProfilerConfig {
            steps_per_point: 0,
            ..ProfilerConfig::default()
        };
        assert!(profile_training(&truth(), 1, 0.0, &bad_steps).is_err());
    }
}
