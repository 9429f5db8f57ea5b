//! The profile-fitted scaling model.
//!
//! RubberBand's profiler measures iteration latency at power-of-two GPU
//! allocations and interpolates between them (§5). [`InterpolatedScaling`]
//! is that fitted representation: piecewise-linear in `log2(gpus)`, clamped
//! to the measured range. The planner only ever consults this fitted model
//! — never the analytic ground truth — mirroring the paper's separation of
//! profiling from planning.

use crate::{PlacementQuality, ScalingModel};
use rb_core::{RbError, Result};

/// Iteration latency interpolated from profiled `(gpus, seconds)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpolatedScaling {
    /// Knots as `(log2(gpus), latency_secs)`, sorted by the first element.
    knots: Vec<(f64, f64)>,
    batch_size: u32,
    /// Multiplier applied to latency when workers are scattered. The
    /// profiler measures packed placements; the penalty is estimated
    /// separately (or left at a conservative default).
    scattered_factor: f64,
}

impl InterpolatedScaling {
    /// Builds a fitted model from measured `(gpus, latency_secs)` samples.
    ///
    /// Points need not be sorted; duplicates of the same GPU count are
    /// averaged.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Profiling`] if `points` is empty or contains a
    /// zero GPU count or a non-positive latency.
    pub fn from_points(points: &[(u32, f64)], batch_size: u32) -> Result<Self> {
        if points.is_empty() {
            return Err(RbError::Profiling("no profiling points".into()));
        }
        let mut grouped: std::collections::BTreeMap<u32, (f64, u32)> =
            std::collections::BTreeMap::new();
        for &(g, lat) in points {
            if g == 0 {
                return Err(RbError::Profiling("profiled latency at 0 GPUs".into()));
            }
            if !(lat.is_finite() && lat > 0.0) {
                return Err(RbError::Profiling(format!(
                    "non-positive latency {lat} at {g} GPUs"
                )));
            }
            let e = grouped.entry(g).or_insert((0.0, 0));
            e.0 += lat;
            e.1 += 1;
        }
        let knots = grouped
            .into_iter()
            .map(|(g, (sum, n))| (f64::from(g).log2(), sum / f64::from(n)))
            .collect();
        Ok(InterpolatedScaling {
            knots,
            batch_size,
            scattered_factor: 2.0,
        })
    }
}

impl ScalingModel for InterpolatedScaling {
    fn iter_latency_secs(&self, gpus: u32, placement: PlacementQuality) -> f64 {
        assert!(gpus > 0, "cannot train on zero GPUs");
        let base = rb_core::stats::lerp_clamped(&self.knots, f64::from(gpus).log2());
        match placement {
            PlacementQuality::Packed => base,
            PlacementQuality::Scattered => base * self.scattered_factor,
        }
    }

    fn batch_size(&self) -> u32 {
        self.batch_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::AnalyticScaling;
    use crate::zoo::RESNET50;

    #[test]
    fn exact_at_knots() {
        let m = InterpolatedScaling::from_points(&[(1, 4.0), (2, 2.5), (4, 1.6)], 512).unwrap();
        assert_eq!(m.iter_latency_secs(1, PlacementQuality::Packed), 4.0);
        assert_eq!(m.iter_latency_secs(2, PlacementQuality::Packed), 2.5);
        assert_eq!(m.iter_latency_secs(4, PlacementQuality::Packed), 1.6);
    }

    #[test]
    fn interpolates_in_log_space() {
        let m = InterpolatedScaling::from_points(&[(1, 4.0), (4, 2.0)], 512).unwrap();
        // 2 GPUs is the midpoint of [log2(1), log2(4)].
        assert!((m.iter_latency_secs(2, PlacementQuality::Packed) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn clamps_outside_profiled_range() {
        let m = InterpolatedScaling::from_points(&[(2, 3.0), (8, 1.0)], 512).unwrap();
        assert_eq!(m.iter_latency_secs(1, PlacementQuality::Packed), 3.0);
        assert_eq!(m.iter_latency_secs(64, PlacementQuality::Packed), 1.0);
    }

    #[test]
    fn duplicate_points_are_averaged() {
        let m = InterpolatedScaling::from_points(&[(2, 3.0), (2, 5.0)], 512).unwrap();
        assert_eq!(m.iter_latency_secs(2, PlacementQuality::Packed), 4.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(InterpolatedScaling::from_points(&[], 512).is_err());
        assert!(InterpolatedScaling::from_points(&[(0, 1.0)], 512).is_err());
        assert!(InterpolatedScaling::from_points(&[(1, 0.0)], 512).is_err());
        assert!(InterpolatedScaling::from_points(&[(1, f64::NAN)], 512).is_err());
    }

    #[test]
    fn scattered_factor_applies() {
        let m = InterpolatedScaling {
            scattered_factor: 1.5,
            ..InterpolatedScaling::from_points(&[(1, 4.0)], 512).unwrap()
        };
        assert_eq!(m.iter_latency_secs(1, PlacementQuality::Scattered), 6.0);
    }

    #[test]
    fn fit_of_analytic_model_tracks_it_between_knots() {
        let truth = AnalyticScaling::for_arch(&RESNET50, 512, 4);
        let points: Vec<(u32, f64)> = [1u32, 2, 4, 8, 16]
            .iter()
            .map(|&g| (g, truth.iter_latency_secs(g, PlacementQuality::Packed)))
            .collect();
        let fit = InterpolatedScaling::from_points(&points, 512).unwrap();
        // At an unprofiled count (3 GPUs, 6 GPUs) the fit should be within
        // 25% of the truth.
        for g in [3, 6, 12] {
            let t = truth.iter_latency_secs(g, PlacementQuality::Packed);
            let f = fit.iter_latency_secs(g, PlacementQuality::Packed);
            assert!((f - t).abs() / t < 0.25, "{g} GPUs: fit {f} vs truth {t}");
        }
    }

    #[test]
    fn profiled_counts_round_trip() {
        let m = InterpolatedScaling::from_points(&[(8, 1.0), (1, 4.0), (2, 2.0)], 512).unwrap();
        // Knots sit at log2 of the profiled GPU counts, smallest first.
        let at: Vec<f64> = m.knots.iter().map(|&(lg, _)| lg).collect();
        assert_eq!(at, vec![0.0, 1.0, 3.0]);
    }
}
