//! Data-parallel training performance models.
//!
//! RubberBand's planner needs one thing from the training system: *iteration
//! latency as a function of the number of GPUs allocated* (§2.1, §4.1). The
//! paper measures this empirically with a profiling step; this crate
//! provides both the "ground truth" the profiler measures — an analytic,
//! communication-aware model ([`analytic::AnalyticScaling`]) calibrated to
//! the sub-linear curves of Fig. 4 — and the fitted representation the
//! profiler produces ([`interp::InterpolatedScaling`]).
//!
//! The analytic model also captures *placement sensitivity*: workers packed
//! onto few machines communicate over NVLink-class links, scattered workers
//! over the network (§2.1, Fig. 5) — the effect ablated in Table 1.

pub mod analytic;
pub mod interp;
pub mod refit;
pub mod rescale;
pub mod zoo;

pub use analytic::AnalyticScaling;
pub use interp::InterpolatedScaling;
pub use refit::{refit_least_squares, LatencyObservation, RefitScaling};
pub use rescale::{IdealScaling, RescaledScaling};
pub use zoo::ModelArch;

use std::sync::Arc;

/// How a trial's workers are spread over machines, as seen by the
/// communication model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementQuality {
    /// Workers are packed onto the minimal feasible set of nodes (the
    /// placement controller's goal). Communication stays on intra-node
    /// links whenever the gang fits on one machine.
    #[default]
    Packed,
    /// Workers are scattered across machines with no locality, so all
    /// gradient traffic crosses the network.
    Scattered,
}

/// Iteration latency as a function of allocated GPUs.
///
/// Implementations must be deterministic: stochastic noise (stragglers,
/// jitter) is layered on top by the execution model, not baked in here.
///
/// `Send + Sync` is kept although the engine runs on one thread, because
/// [`SharedScaling`] is an `Arc` and the wrapping models
/// ([`RescaledScaling`], [`RefitScaling`]) hold one: without the
/// bound, `ModelProfile::synthetic`, the controller's refit in `rb-ctrl`
/// and `rb-bench`'s slowed physics would put a `!Send + !Sync` type in an
/// `Arc`, which clippy's `arc_with_non_send_sync` rejects.
pub trait ScalingModel: std::fmt::Debug + Send + Sync {
    /// Mean wall-clock seconds for one training iteration (one optimizer
    /// step over the full global batch) on `gpus` GPUs.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `gpus` is zero.
    fn iter_latency_secs(&self, gpus: u32, placement: PlacementQuality) -> f64;

    /// The global batch size the model was configured for.
    fn batch_size(&self) -> u32;

    /// Training throughput in samples per second on `gpus` GPUs.
    fn throughput(&self, gpus: u32, placement: PlacementQuality) -> f64 {
        f64::from(self.batch_size()) / self.iter_latency_secs(gpus, placement)
    }

    /// Throughput normalized to the single-GPU packed baseline — the y-axis
    /// of Fig. 4.
    fn speedup(&self, gpus: u32, placement: PlacementQuality) -> f64 {
        self.throughput(gpus, placement) / self.throughput(1, PlacementQuality::Packed)
    }

    /// Splits one iteration's latency into `(compute_secs, comm_secs)`:
    /// the GPU-bound share (compute, micro-step and fixed overheads) and
    /// the communication-bound share (gradient all-reduce). The parts sum
    /// to [`ScalingModel::iter_latency_secs`].
    ///
    /// Online refitting ([`refit::RefitScaling`]) rescales the two parts
    /// independently, which is what lets a re-planner distinguish uniform
    /// compute slowdown from parallelism-dependent contention. Models
    /// without a communication term (the default) report everything as
    /// compute, so a refit degenerates to a scalar factor.
    fn latency_components(&self, gpus: u32, placement: PlacementQuality) -> (f64, f64) {
        (self.iter_latency_secs(gpus, placement), 0.0)
    }
}

/// Shared handle to a scaling model.
pub type SharedScaling = Arc<dyn ScalingModel>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::RESNET50;

    #[test]
    fn speedup_is_one_at_one_gpu() {
        let m = AnalyticScaling::for_arch(&RESNET50, 512, 4);
        assert!((m.speedup(1, PlacementQuality::Packed) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trait_object_is_usable() {
        let m: SharedScaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4));
        assert!(
            m.throughput(2, PlacementQuality::Packed) > m.throughput(1, PlacementQuality::Packed)
        );
    }
}
