//! Thread-local arenas for the prediction hot path.
//!
//! A prediction composes memoized per-stage samples into per-sample JCT
//! and cost; the composition itself is cheap, so on the warm path the
//! allocator dominated. This module gives the engine's thread one
//! reusable [`PredictArena`] holding all the buffers a prediction, a
//! stage breakdown or a stage-quantile envelope needs, in
//! struct-of-arrays layout. Buffers are re-filled per call but never
//! shrunk, so once the thread has served a plan at least as large
//! (stages × samples) as the current one, a prediction performs **zero
//! heap allocation**, and a breakdown or an envelope allocates only the
//! `Vec` it returns — the contract the `warm_path_alloc` test
//! (`crates/sim/tests/`) enforces.
//!
//! The arena belongs to the thread rather than to a `Simulator` because
//! it must outlive simulators: `rubberband::compile_plan` and the
//! benchmark's cold-planning workload build a fresh simulator per plan,
//! and a per-simulator arena would make every one of those plans pay
//! the warm-up again. For the same reason its warm/cold tally lives
//! beside it, and a brand-new simulator's
//! [`crate::SimCacheStats::arena`] reads the tally every earlier
//! simulator on the thread left behind.
//!
//! The arena also remembers the plan it last loaded: each stage's
//! sampling key and column, the release groups, and every sample's
//! billing state at each stage boundary. The planner's next candidate
//! differs from the last in a stage or two, so `Simulator::load_plan`
//! fetches only the stages whose key changed and the billing walk
//! resumes at the first stage that differs. What survives is a pure
//! function of the loaded plan, the template, the sample set and the
//! prices its rows were billed at (the arena's [`Loaded`] identity);
//! anything else resets it. The prices belong to the identity because
//! simulators that differ only in prices share their templates
//! (`Simulator::repriced`). A sample's JCT is still the left-to-right
//! sum of its spans and its bill an integer sum, so a resumed walk
//! returns exactly what a full one would.

use crate::counters::CacheCounters;
use crate::dag::{StageKey, StageSample};
use rb_core::Cost;
use rb_obs::CacheStats;
use std::cell::RefCell;
use std::rc::Rc;

/// What the arena's loaded plan was sampled from. A plan is resumed only
/// under the identity it was loaded with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Loaded {
    /// The template's process-unique id (`DagTemplate::id`).
    pub template: u64,
    /// The Monte-Carlo seed.
    pub seed: u64,
    /// Samples per stage.
    pub samples: usize,
    /// The template's stage-memo evictions when loaded: an eviction
    /// since means a memo lookup could now miss, so the arena reloads
    /// rather than count a hit the memo would not give.
    pub evictions: u64,
    /// The hourly instance price the `paid` rows were billed at.
    /// Simulators that share a template share its billing model, so
    /// the price is all that can differ between their rows.
    pub hourly: Cost,
}

/// The buffers of one thread's prediction engine, in struct-of-arrays
/// layout:
///
/// ```text
/// identity:                          loaded | walked
/// per stage    (len = S):            needed | new_inst | keys | stage_arcs
/// per plan     (≤ 2 × S):            releases | next_releases | release_stack
/// per boundary ((S + 1) × n, stage-major):  at | paid
/// per stage    (S × n, stage-major):        hand
/// explain      (len = S):            stage_sums
/// quantiles    (len = n):            spans
/// ```
///
/// Prediction, `Simulator::explain` and `Simulator::stage_quantiles`
/// fill the per-stage and per-plan buffers through one setup path
/// (`Simulator::load_plan`) and read the same stage samples. Prediction
/// and explain then run the same billing walk, stage by stage and within
/// a stage sample by sample: it fills boundary row `s + 1` of `at`
/// (time) and `paid` (charge) from row `s`, writes the stage's
/// hand-over times into `hand`, and hands each stage's span and charge
/// to a sink, which explain sums into `stage_sums` and prediction
/// ignores. Row `S` holds each sample's JCT and compute bill. The
/// first `walked` stages' rows belong to the loaded plan, so prediction
/// walks only stages `walked..`; explain walks them all. The quantiles
/// need no billing: they sort each stage's spans in `spans`, one stage
/// after another. The data-ingress charge — identical across samples —
/// is applied once at aggregation instead of being carried in every
/// sample.
#[derive(Debug, Default)]
pub(crate) struct PredictArena {
    /// The identity of the loaded plan; `None` before the first load.
    pub loaded: Option<Loaded>,
    /// Leading stages whose boundary rows match the loaded plan.
    pub walked: usize,
    /// Instances held per stage ([`crate::dag::DagTemplate`] ladder).
    pub needed: Vec<u32>,
    /// Instances newly provisioned per stage.
    pub new_inst: Vec<u32>,
    /// Each loaded stage's sampling key (`DagTemplate::stage_key`).
    pub keys: Vec<StageKey>,
    /// The memoized per-stage sample arrays, one `Rc` clone per stage
    /// (clone = refcount bump, no allocation).
    pub stage_arcs: Vec<Rc<Vec<StageSample>>>,
    /// Release groups `(stage, provisioned_at, count)`.
    pub releases: Vec<(u32, u32, u32)>,
    /// The next plan's release groups, compared with `releases`.
    pub next_releases: Vec<(u32, u32, u32)>,
    /// LIFO stack used while expanding `releases`.
    pub release_stack: Vec<(u32, u32)>,
    /// Time at each stage boundary, row `s` = before stage `s`.
    pub at: Vec<f64>,
    /// Compute bill at each stage boundary, row `s` = before stage `s`.
    pub paid: Vec<Cost>,
    /// When each stage hands its new instances over, row = stage.
    pub hand: Vec<f64>,
    /// Per-stage sums over the samples of span (seconds) and of the
    /// exact integer charge (`Simulator::explain`).
    pub stage_sums: Vec<(f64, Cost)>,
    /// One stage's spans, sorted (`Simulator::stage_quantiles`).
    pub spans: Vec<f64>,
    /// High-water marks: the largest (stages, samples) working set this
    /// arena has served. Only the warm/cold statistic — capacities are
    /// tracked by the `Vec`s themselves.
    hw_stages: usize,
    hw_samples: usize,
}

impl PredictArena {
    /// Prepares the arena to load a plan of `n_stages` stages ×
    /// `n_samples` samples under `identity`. A new identity forgets the
    /// loaded plan; the same one keeps it for `Simulator::load_plan` to
    /// compare against. Sizes the boundary arrays, whose row 0 stays
    /// zero. Returns `true` when the working set already fit (steady
    /// state — every `resize` below stays within capacity, so the call
    /// allocates nothing); the per-plan buffers (`stage_arcs`,
    /// `releases`, …) are bounded by `n_stages` terms and reach their
    /// fixed point within the first few calls.
    pub fn ensure(&mut self, n_stages: usize, n_samples: usize, identity: Loaded) -> bool {
        let warm = n_stages <= self.hw_stages && n_samples <= self.hw_samples;
        self.hw_stages = self.hw_stages.max(n_stages);
        self.hw_samples = self.hw_samples.max(n_samples);
        if self.loaded != Some(identity) {
            self.loaded = Some(identity);
            self.walked = 0;
            self.keys.clear();
            self.stage_arcs.clear();
            self.releases.clear();
            let boundaries = (n_stages + 1) * n_samples;
            self.at.clear();
            self.at.resize(boundaries, 0.0);
            self.paid.clear();
            self.paid.resize(boundaries, Cost::ZERO);
            self.hand.clear();
            self.hand.resize(n_stages * n_samples, 0.0);
        }
        warm
    }
}

thread_local! {
    static ARENA: RefCell<PredictArena> = RefCell::new(PredictArena::default());
    /// Warm/cold tally of arena loads: a *hit* is a load whose working
    /// set already fit the arena (steady state, no allocation), a *miss*
    /// is one that had to grow it (warm-up). Surfaced through
    /// [`crate::SimCacheStats::arena`].
    static ARENA_COUNTERS: CacheCounters = CacheCounters::default();
}

/// Runs `f` with this thread's arena. Callers must not re-enter: the
/// engine never nests predictions, and a batch predicts its misses one
/// after another.
pub(crate) fn with_arena<R>(f: impl FnOnce(&mut PredictArena) -> R) -> R {
    ARENA.with(|a| f(&mut a.borrow_mut()))
}

/// Tallies one arena load as warm (a hit) or cold (a miss).
pub(crate) fn count_load(warm: bool) {
    ARENA_COUNTERS.with(|c| if warm { c.hits_add(1) } else { c.misses_add(1) });
}

/// This thread's arena tally.
pub(crate) fn arena_stats() -> CacheStats {
    ARENA_COUNTERS.with(CacheCounters::snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(template: u64) -> Loaded {
        Loaded {
            template,
            seed: 7,
            samples: 16,
            evictions: 0,
            hourly: Cost::from_dollars(12.24),
        }
    }

    #[test]
    fn ensure_reports_warm_once_highwater_is_reached() {
        let mut a = PredictArena::default();
        assert!(!a.ensure(4, 16, identity(0)), "first use is cold");
        assert!(a.ensure(4, 16, identity(0)), "same shape is warm");
        assert!(a.ensure(3, 8, identity(1)), "smaller shape is warm");
        assert!(!a.ensure(5, 8, identity(2)), "more stages grows the arena");
        assert!(
            a.ensure(5, 16, identity(3)),
            "high-water marks are per-axis maxima"
        );
        assert_eq!(a.at.len(), 6 * 16);
        assert_eq!(a.paid.len(), 6 * 16);
        assert_eq!(a.hand.len(), 5 * 16);
        assert!(a.keys.is_empty(), "a new identity starts unloaded");
    }

    /// The loaded plan survives a call under the same identity (that is
    /// what lets the next plan resume it) and is cleared under any other.
    #[test]
    fn buffers_are_cleared_between_uses() {
        let mut a = PredictArena::default();
        a.ensure(2, 4, identity(0));
        a.keys.extend([(1, 4, 4), (1, 2, 0)]);
        a.releases.push((0, 0, 2));
        a.walked = 2;
        a.at[4] = 7.0;
        a.ensure(2, 4, identity(0));
        assert_eq!(a.keys.len(), 2, "same identity keeps the loaded plan");
        assert_eq!((a.walked, a.at[4]), (2, 7.0));
        for other in [
            identity(1),
            Loaded {
                samples: 8,
                ..identity(0)
            },
            Loaded {
                seed: 8,
                ..identity(0)
            },
            Loaded {
                evictions: 1,
                ..identity(0)
            },
        ] {
            a.keys.push((1, 4, 4));
            a.walked = 2;
            a.at[4] = 7.0;
            a.ensure(2, 4, other);
            assert!(a.keys.is_empty() && a.releases.is_empty(), "{other:?}");
            assert_eq!(a.walked, 0, "{other:?}");
            assert_eq!(a.at, vec![0.0; 12], "{other:?}");
        }
    }

    /// Two simulators that differ only in prices load plans from one
    /// template: a plan billed at one hourly price must not be resumed
    /// at another, so a new price alone forgets the billed rows.
    #[test]
    fn a_new_price_alone_resets_the_walk() {
        let mut a = PredictArena::default();
        a.ensure(2, 4, identity(0));
        a.keys.extend([(1, 4, 4), (1, 2, 0)]);
        a.walked = 2;
        a.paid[4] = Cost::from_dollars(1.0);
        let spot = Loaded {
            hourly: Cost::from_dollars(3.67),
            ..identity(0)
        };
        a.ensure(2, 4, spot);
        assert_eq!(a.walked, 0, "rows billed at the old price are not resumed");
        assert!(a.keys.is_empty());
        assert_eq!(a.paid, vec![Cost::ZERO; 12]);
    }
}
