//! Online refitting of a scaling model from observed iteration latencies.
//!
//! The planner's model is fitted once, before the job starts; when
//! reality diverges, rb-ctrl originally scaled the whole model by one
//! drift factor. That cannot distinguish *uniform* compute slowdown
//! (every allocation slows equally) from *parallelism-dependent*
//! contention (many-GPU allocations slow far more, because the
//! communication share grows with the gang). [`RefitScaling`] keeps the
//! analytic model's shape but rescales its compute and communication
//! components independently:
//!
//! ```text
//! L'(g) = α · compute(g) + β · comm(g)
//! ```
//!
//! [`refit_least_squares`] estimates `(α, β)` from observed per-stage,
//! per-allocation mean iteration latencies by ordinary least squares
//! over the model's own component predictions (the 2×2 normal
//! equations, solved in closed form). With observations at a single GPU
//! count the system is rank-deficient; the fit then falls back to a
//! scalar factor (`α = β`), which reproduces the old drift behaviour.

use crate::{PlacementQuality, ScalingModel, SharedScaling};

/// One observed allocation: mean seconds per iteration at a GPU count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyObservation {
    /// GPUs per trial the latency was observed at.
    pub gpus: u32,
    /// Placement quality the gang actually ran under.
    pub placement: PlacementQuality,
    /// Observed mean wall-clock seconds per iteration.
    pub observed_iter_secs: f64,
    /// Relative weight (e.g. number of work units averaged over).
    pub weight: f64,
}

/// A scaling model with independently rescaled compute and
/// communication components.
#[derive(Debug, Clone)]
pub struct RefitScaling {
    inner: SharedScaling,
    compute_factor: f64,
    comm_factor: f64,
}

/// Factors are clamped into this band: a fit asking for less than 0.05×
/// or more than 20× the modelled component is treated as misfit noise.
pub const FACTOR_CLAMP: (f64, f64) = (0.05, 20.0);

impl RefitScaling {
    /// Wraps `inner`, scaling its compute share by `compute_factor` and
    /// its communication share by `comm_factor`. Factors are clamped to
    /// [`FACTOR_CLAMP`].
    ///
    /// # Panics
    ///
    /// Panics if either factor is not finite.
    pub fn new(inner: SharedScaling, compute_factor: f64, comm_factor: f64) -> Self {
        assert!(
            compute_factor.is_finite() && comm_factor.is_finite(),
            "refit factors must be finite"
        );
        let (lo, hi) = FACTOR_CLAMP;
        RefitScaling {
            inner,
            compute_factor: compute_factor.clamp(lo, hi),
            comm_factor: comm_factor.clamp(lo, hi),
        }
    }
}

impl ScalingModel for RefitScaling {
    fn iter_latency_secs(&self, gpus: u32, placement: PlacementQuality) -> f64 {
        let (compute, comm) = self.inner.latency_components(gpus, placement);
        self.compute_factor * compute + self.comm_factor * comm
    }

    fn batch_size(&self) -> u32 {
        self.inner.batch_size()
    }

    fn latency_components(&self, gpus: u32, placement: PlacementQuality) -> (f64, f64) {
        let (compute, comm) = self.inner.latency_components(gpus, placement);
        (self.compute_factor * compute, self.comm_factor * comm)
    }
}

/// Weighted least-squares fit of `(α, β)` such that
/// `α·compute(g) + β·comm(g) ≈ observed(g)` over `observations`.
///
/// Returns `None` when there are no usable observations (non-finite or
/// non-positive latencies and weights are skipped). When the
/// observations span fewer than two distinct GPU counts — or the design
/// matrix is otherwise near-singular, e.g. a model whose communication
/// share is everywhere zero — the system cannot separate the two
/// factors and the fit degenerates to the scalar weighted ratio
/// `α = β = Σ w·observed·model / Σ w·model²`.
pub fn refit_least_squares(
    model: &dyn ScalingModel,
    observations: &[LatencyObservation],
) -> Option<(f64, f64)> {
    // Normal equations for min Σ w(α·c + β·m − y)²:
    //   [Σw·c²  Σw·c·m] [α]   [Σw·c·y]
    //   [Σw·c·m Σw·m² ] [β] = [Σw·m·y]
    let (mut scc, mut scm, mut smm, mut scy, mut smy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    let mut gpu_counts: Vec<u32> = Vec::new();
    for obs in observations {
        if !(obs.observed_iter_secs.is_finite() && obs.observed_iter_secs > 0.0) {
            continue;
        }
        let w = if obs.weight.is_finite() && obs.weight > 0.0 {
            obs.weight
        } else {
            continue;
        };
        let (c, m) = model.latency_components(obs.gpus, obs.placement);
        let y = obs.observed_iter_secs;
        scc += w * c * c;
        scm += w * c * m;
        smm += w * m * m;
        scy += w * c * y;
        smy += w * m * y;
        if !gpu_counts.contains(&obs.gpus) {
            gpu_counts.push(obs.gpus);
        }
    }
    if scc + smm <= 0.0 {
        return None;
    }
    let det = scc * smm - scm * scm;
    // Relative determinant test: a rank-1 design (single GPU count, or a
    // comm-free model) has det ≈ 0 at the scale of its diagonal product.
    let well_conditioned = gpu_counts.len() >= 2 && det > 1e-9 * scc * smm.max(1e-300);
    if well_conditioned {
        let alpha = (smm * scy - scm * smy) / det;
        let beta = (scc * smy - scm * scy) / det;
        if alpha.is_finite() && beta.is_finite() {
            let (lo, hi) = FACTOR_CLAMP;
            return Some((alpha.clamp(lo, hi), beta.clamp(lo, hi)));
        }
    }
    // Scalar fallback: α = β minimizing Σ w(α(c+m) − y)².
    let denom = scc + 2.0 * scm + smm;
    if denom <= 0.0 {
        return None;
    }
    let scalar = (scy + smy) / denom;
    if !scalar.is_finite() {
        return None;
    }
    let (lo, hi) = FACTOR_CLAMP;
    let scalar = scalar.clamp(lo, hi);
    Some((scalar, scalar))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::AnalyticScaling;
    use crate::zoo::RESNET50;
    use std::sync::Arc;

    fn base() -> SharedScaling {
        Arc::new(AnalyticScaling::for_arch(&RESNET50, 1024, 4))
    }

    fn observe(model: &dyn ScalingModel, gpus: &[u32]) -> Vec<LatencyObservation> {
        gpus.iter()
            .map(|&g| LatencyObservation {
                gpus: g,
                placement: PlacementQuality::Packed,
                observed_iter_secs: model.iter_latency_secs(g, PlacementQuality::Packed),
                weight: 1.0,
            })
            .collect()
    }

    #[test]
    fn components_sum_to_latency() {
        let m = base();
        for g in [1, 2, 4, 8, 16] {
            for p in [PlacementQuality::Packed, PlacementQuality::Scattered] {
                let (c, comm) = m.latency_components(g, p);
                let l = m.iter_latency_secs(g, p);
                assert!((c + comm - l).abs() < 1e-12 * l, "g={g} {p:?}");
                assert!(c > 0.0 && comm >= 0.0);
            }
        }
        // Communication share grows with the gang.
        let (_, comm2) = m.latency_components(2, PlacementQuality::Packed);
        let (_, comm16) = m.latency_components(16, PlacementQuality::Packed);
        assert!(comm16 > comm2);
    }

    #[test]
    fn recovers_injected_component_factors() {
        let truth = RefitScaling::new(base(), 1.0, 3.0);
        let obs = observe(&truth, &[1, 2, 4, 8, 16]);
        let (alpha, beta) = refit_least_squares(base().as_ref(), &obs).unwrap();
        assert!((alpha - 1.0).abs() < 1e-6, "alpha={alpha}");
        assert!((beta - 3.0).abs() < 1e-6, "beta={beta}");
    }

    #[test]
    fn uniform_slowdown_fits_both_factors_equally() {
        let truth = RefitScaling::new(base(), 2.0, 2.0);
        let obs = observe(&truth, &[1, 4, 16]);
        let (alpha, beta) = refit_least_squares(base().as_ref(), &obs).unwrap();
        assert!((alpha - 2.0).abs() < 1e-6);
        assert!((beta - 2.0).abs() < 1e-6);
    }

    #[test]
    fn single_gpu_count_falls_back_to_scalar() {
        let truth = RefitScaling::new(base(), 1.5, 1.5);
        let obs = observe(&truth, &[4]);
        let (alpha, beta) = refit_least_squares(base().as_ref(), &obs).unwrap();
        assert_eq!(alpha, beta, "rank-deficient fit must be scalar");
        assert!((alpha - 1.5).abs() < 1e-6);
    }

    #[test]
    fn comm_free_model_degenerates_to_scalar() {
        // IdealScaling has no comm term, so the default components put
        // everything in compute; the fit must not blow up.
        let ideal: SharedScaling = Arc::new(crate::rescale::IdealScaling {
            base_secs: 8.0,
            batch: 512,
        });
        let obs: Vec<LatencyObservation> = [1u32, 2, 4]
            .iter()
            .map(|&g| LatencyObservation {
                gpus: g,
                placement: PlacementQuality::Packed,
                observed_iter_secs: 2.0 * ideal.iter_latency_secs(g, PlacementQuality::Packed),
                weight: 1.0,
            })
            .collect();
        let (alpha, beta) = refit_least_squares(ideal.as_ref(), &obs).unwrap();
        assert_eq!(alpha, beta);
        assert!((alpha - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_observations_are_skipped() {
        let obs = vec![
            LatencyObservation {
                gpus: 2,
                placement: PlacementQuality::Packed,
                observed_iter_secs: f64::NAN,
                weight: 1.0,
            },
            LatencyObservation {
                gpus: 2,
                placement: PlacementQuality::Packed,
                observed_iter_secs: 1.0,
                weight: f64::INFINITY,
            },
        ];
        assert!(refit_least_squares(base().as_ref(), &obs).is_none());
    }

    #[test]
    fn factors_are_clamped() {
        let refit = RefitScaling::new(base(), 1e6, 1e-9);
        assert_eq!(refit.compute_factor, FACTOR_CLAMP.1);
        assert_eq!(refit.comm_factor, FACTOR_CLAMP.0);
    }

    #[test]
    fn refit_preserves_batch_size_and_shape() {
        let refit = RefitScaling::new(base(), 1.0, 1.0);
        for g in [1, 2, 8] {
            let a = refit.iter_latency_secs(g, PlacementQuality::Packed);
            let b = base().iter_latency_secs(g, PlacementQuality::Packed);
            assert!((a - b).abs() < 1e-12 * b, "identity refit changes nothing");
        }
        assert_eq!(refit.batch_size(), base().batch_size());
    }
}
