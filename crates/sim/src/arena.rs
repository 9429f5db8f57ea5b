//! Thread-local scratch arenas for the prediction hot path.
//!
//! A prediction composes memoized per-stage samples into per-sample JCT
//! and cost; the composition itself is cheap, so on the warm path the
//! allocator dominated. This module gives every thread one reusable
//! [`PredictArena`] holding all the buffers a prediction (or a stage
//! breakdown) needs in struct-of-arrays layout. Buffers are cleared and
//! re-filled per call but never shrunk, so once a thread has predicted a
//! plan at least as large (stages × samples) as the current one, a
//! prediction performs **zero heap allocation** — the invariant the
//! `warm_path_alloc` test (`crates/sim/tests/`) enforces.
//!
//! Arenas are plain scratch: no prediction result ever lives in one
//! beyond the call that computed it, so arena reuse can never change a
//! result — only skip `malloc`.

use crate::counters::CacheCounters;
use crate::dag::StageSample;
use rb_core::Cost;
use std::cell::RefCell;
use std::sync::Arc;

/// Process-wide warm/cold tally of arena acquisitions: a *hit* is a call
/// whose working set already fit the thread's arena (steady state, no
/// allocation), a *miss* is a call that had to grow it (warm-up). Static
/// because arenas are thread-local rather than per-simulator; surfaced
/// through [`crate::SimCacheStats::arena`].
pub(crate) static ARENA_COUNTERS: CacheCounters = CacheCounters::new();

/// The scratch buffers of one thread's prediction engine, in
/// struct-of-arrays layout:
///
/// ```text
/// per stage  (len = n_stages):  needed | new_inst | stage_arcs | hand
/// per sample (len = n_samples): jct | compute        (SoA, not Vec<RunSample>)
/// per plan   (≤ 2 × n_stages):  releases | release_stack
/// explain    (n_stages / DAG nodes): dur_sum | cost_sum | finish | duration | live
/// ```
///
/// `jct[i]`/`compute[i]` replace the old `Vec<RunSample>`: the aggregation
/// passes stream each array independently, and the data-ingress charge —
/// identical across samples — is applied once at aggregation instead of
/// being carried in every sample.
#[derive(Debug, Default)]
pub(crate) struct PredictArena {
    /// Instances held per stage ([`crate::dag::DagTemplate`] ladder).
    pub needed: Vec<u32>,
    /// Instances newly provisioned per stage.
    pub new_inst: Vec<u32>,
    /// The memoized per-stage sample arrays, one `Arc` clone per stage
    /// (clone = refcount bump, no allocation).
    pub stage_arcs: Vec<Arc<Vec<StageSample>>>,
    /// Release groups `(stage, provisioned_at, count)`.
    pub releases: Vec<(u32, u32, u32)>,
    /// LIFO stack used while expanding `releases`.
    pub release_stack: Vec<(u32, u32)>,
    /// Per-stage instance hand-over times within the current sample.
    pub hand: Vec<f64>,
    /// Sampled job completion times (seconds), index = sample.
    pub jct: Vec<f64>,
    /// Sampled compute bills, index = sample.
    pub compute: Vec<Cost>,
    /// Stage-duration accumulator (`Simulator::explain`).
    pub dur_sum: Vec<f64>,
    /// Stage-cost accumulator (`Simulator::explain`).
    pub cost_sum: Vec<f64>,
    /// Node finish times for full-DAG walks (`Simulator::explain`).
    pub finish: Vec<f64>,
    /// Node durations for full-DAG walks (`Simulator::explain`).
    pub duration: Vec<f64>,
    /// Live-instance hand-over stack (`Simulator::explain`).
    pub live: Vec<f64>,
    /// High-water marks: the largest (stages, samples) working set this
    /// arena has served. Only the warm/cold statistic — capacities are
    /// tracked by the `Vec`s themselves.
    hw_stages: usize,
    hw_samples: usize,
}

impl PredictArena {
    /// Prepares the arena for a working set of `n_stages` stages ×
    /// `n_samples` samples: clears every buffer and sizes the per-sample
    /// arrays. Returns `true` when the working set already fit (steady
    /// state — every `clear`/`resize` below stays within capacity, so the
    /// call allocates nothing); the per-plan buffers (`stage_arcs`,
    /// `releases`, …) are bounded by `n_stages` terms and reach their
    /// fixed point within the first few calls.
    pub fn ensure(&mut self, n_stages: usize, n_samples: usize) -> bool {
        let warm = n_stages <= self.hw_stages && n_samples <= self.hw_samples;
        self.hw_stages = self.hw_stages.max(n_stages);
        self.hw_samples = self.hw_samples.max(n_samples);
        self.needed.clear();
        self.new_inst.clear();
        self.stage_arcs.clear();
        self.releases.clear();
        self.release_stack.clear();
        self.hand.clear();
        self.hand.resize(n_stages, 0.0);
        self.jct.clear();
        self.jct.resize(n_samples, 0.0);
        self.compute.clear();
        self.compute.resize(n_samples, Cost::ZERO);
        warm
    }
}

thread_local! {
    static ARENA: RefCell<PredictArena> = RefCell::new(PredictArena::default());
}

/// Runs `f` with this thread's arena. Callers must not re-enter (the
/// engine never nests predictions on one thread: batch fan-out hands each
/// worker thread its *own* thread-local arena).
pub(crate) fn with_arena<R>(f: impl FnOnce(&mut PredictArena) -> R) -> R {
    ARENA.with(|a| f(&mut a.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_reports_warm_once_highwater_is_reached() {
        let mut a = PredictArena::default();
        assert!(!a.ensure(4, 16), "first use is cold");
        assert!(a.ensure(4, 16), "same shape is warm");
        assert!(a.ensure(3, 8), "smaller shape is warm");
        assert!(!a.ensure(5, 8), "more stages grows the arena");
        assert!(a.ensure(5, 16), "high-water marks are per-axis maxima");
        assert_eq!(a.jct.len(), 16);
        assert_eq!(a.compute.len(), 16);
        assert_eq!(a.hand.len(), 5);
        assert!(a.needed.is_empty(), "ladder buffers start cleared");
    }

    #[test]
    fn buffers_are_cleared_between_uses() {
        let mut a = PredictArena::default();
        a.ensure(2, 4);
        a.needed.extend([3, 1]);
        a.releases.push((0, 0, 2));
        a.jct[0] = 7.0;
        a.ensure(2, 4);
        assert!(a.needed.is_empty());
        assert!(a.releases.is_empty());
        assert_eq!(a.jct, vec![0.0; 4]);
    }
}
