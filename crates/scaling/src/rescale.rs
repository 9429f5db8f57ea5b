//! Rescaling adapter for scaling models.
//!
//! Several paper experiments pin the *absolute* iteration latency (e.g.
//! "training latency is sampled with μ = 4 s", Fig. 9; "mean training
//! latency is 12 s", Fig. 12) while keeping a real model's *relative*
//! scaling shape. [`RescaledScaling`] wraps any [`ScalingModel`] and
//! multiplies its latencies by a constant factor, preserving speedups.

use crate::{PlacementQuality, ScalingModel, SharedScaling};

/// A scaling model whose latencies are a constant multiple of another's.
#[derive(Debug, Clone)]
pub struct RescaledScaling {
    inner: SharedScaling,
    factor: f64,
}

impl RescaledScaling {
    /// Wraps `inner`, multiplying every latency by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn new(inner: SharedScaling, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "rescale factor must be positive"
        );
        RescaledScaling { inner, factor }
    }

    /// Wraps `inner` so that its single-GPU packed latency becomes exactly
    /// `target_secs`.
    pub fn pin_single_gpu_latency(inner: SharedScaling, target_secs: f64) -> Self {
        let base = inner.iter_latency_secs(1, PlacementQuality::Packed);
        RescaledScaling::new(inner, target_secs / base)
    }
}

impl ScalingModel for RescaledScaling {
    fn iter_latency_secs(&self, gpus: u32, placement: PlacementQuality) -> f64 {
        self.inner.iter_latency_secs(gpus, placement) * self.factor
    }

    fn batch_size(&self) -> u32 {
        self.inner.batch_size()
    }

    fn latency_components(&self, gpus: u32, placement: PlacementQuality) -> (f64, f64) {
        let (compute, comm) = self.inner.latency_components(gpus, placement);
        (compute * self.factor, comm * self.factor)
    }
}

/// A perfectly linear scaler: `latency(g) = base / g`.
///
/// No real model scales like this (Fig. 4), but it is the limiting case in
/// which a *static* allocation is already cost-optimal (§1: "if the DL
/// model being tuned scales relatively well with compute, the optimal
/// solution may indeed be a static allocation"), and it makes simulator
/// arithmetic exactly checkable in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct IdealScaling {
    /// Single-GPU iteration latency in seconds.
    pub base_secs: f64,
    /// Nominal global batch size.
    pub batch: u32,
}

impl ScalingModel for IdealScaling {
    fn iter_latency_secs(&self, gpus: u32, _placement: PlacementQuality) -> f64 {
        assert!(gpus > 0, "cannot train on zero GPUs");
        self.base_secs / f64::from(gpus)
    }

    fn batch_size(&self) -> u32 {
        self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::AnalyticScaling;
    use crate::zoo::RESNET50;
    use std::sync::Arc;

    #[test]
    fn ideal_scaling_is_exactly_linear() {
        let m = IdealScaling {
            base_secs: 8.0,
            batch: 512,
        };
        for g in [1, 2, 4, 8] {
            assert!((m.speedup(g, PlacementQuality::Packed) - f64::from(g)).abs() < 1e-12);
        }
        assert_eq!(m.iter_latency_secs(4, PlacementQuality::Packed), 2.0);
    }

    #[test]
    fn pinning_sets_single_gpu_latency_exactly() {
        let inner: SharedScaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4));
        let pinned = RescaledScaling::pin_single_gpu_latency(inner.clone(), 4.0);
        assert!((pinned.iter_latency_secs(1, PlacementQuality::Packed) - 4.0).abs() < 1e-12);
        // Relative speedups are preserved.
        for g in [2, 4, 8] {
            let orig = inner.speedup(g, PlacementQuality::Packed);
            let new = pinned.speedup(g, PlacementQuality::Packed);
            assert!((orig - new).abs() < 1e-9, "speedup changed at {g} GPUs");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_factor_panics() {
        let inner: SharedScaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4));
        let _ = RescaledScaling::new(inner, 0.0);
    }
}
