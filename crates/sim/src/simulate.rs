//! Monte-Carlo prediction over the execution model (§4.2, Algorithm 1).
//!
//! The stages of a SHA job are fully serialized by their SYNC barriers,
//! so one sampled execution decomposes into independent per-stage
//! samples ([`DagTemplate`] draws them and memoizes them per stage
//! configuration, shared across every candidate plan the planner
//! evaluates). A sample's job completion time is the sum of its stage
//! spans. Cost is derived from the same sample:
//!
//! * **per-function**: each TRAIN task is billed for its GPUs × duration;
//! * **per-instance**: instance lifetimes are reconstructed from stage
//!   boundaries — instances are handed over when their SCALE task
//!   finishes, and released only at the synchronization barrier of the
//!   last stage that needs them, so time held idle behind stragglers is
//!   paid for (the mechanism behind Fig. 9).
//!
//! Data ingress is billed once per provisioned instance under both models.
//!
//! [`Simulator::predict`], [`Simulator::stage_quantiles`] and
//! [`Simulator::explain`] all load a plan's memoized stage samples into
//! the thread's arena through one setup path, and prediction and explain
//! bill them through one walk, stage by stage and within a stage sample
//! by sample. The arena keeps the plan it last loaded, with every
//! sample's time, bill and hand-overs at each stage boundary, so the
//! next plan looks up only the stages whose sampling key changed and
//! `predict` resumes the walk at the first stage that differs; `explain`
//! walks from stage 0 because its sink needs every stage. A stage-sample
//! miss reads its TRAIN noise from a column shared by every allocation
//! of the stage (see [`crate::dag`]). The node-by-node walk of
//! Algorithm 1 that the composition reproduces is the test oracle in
//! `crates/sim/tests/algorithm1.rs`.

use crate::arena::{arena_stats, count_load, with_arena, Loaded, PredictArena};
use crate::counters::CacheCounters;
use crate::dag::DagTemplate;
use crate::fxhash::FxHashMap;
use crate::plan::AllocationPlan;
use rb_cloud::{CloudPricing, PricingTier};
use rb_core::{Cost, Result, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_obs::{CacheStats, RecorderHandle};
use rb_profile::{CloudProfile, ModelProfile};
use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Monte-Carlo configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of execution samples per prediction. "Configured to be
    /// small by default to ensure plans are generated quickly" (§5).
    pub samples: u32,
    /// Seed of the sampling stream.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            samples: 20,
            seed: 0xB0A710AD,
        }
    }
}

/// Aggregated prediction for one (spec, plan) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Mean job completion time.
    pub jct: SimDuration,
    /// Standard deviation of JCT across samples, in seconds.
    pub jct_std_secs: f64,
    /// Mean total cost.
    pub cost: Cost,
    /// Standard deviation of cost across samples.
    pub cost_std: Cost,
    /// Samples drawn.
    pub samples: u32,
}

impl Prediction {
    /// True when the predicted JCT fits the deadline.
    pub fn feasible(&self, deadline: SimDuration) -> bool {
        self.jct <= deadline
    }
}

/// Per-stage span quantiles of the Monte-Carlo prediction — the envelope
/// an online drift monitor compares observed stage spans against. The
/// span covers the whole barrier-to-barrier interval (scale-up + init +
/// training + sync), matching what an executor can observe.
///
/// Quantile `p` of `n` spans is the span at index `round(p · (n − 1))`
/// of the ascending sort, not the nearest rank `⌈p · n⌉`: at 20 samples
/// p10 and p50 are the 3rd and 11th smallest spans, where nearest rank
/// would give the 2nd and 10th.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageQuantiles {
    /// Stage index.
    pub stage: usize,
    /// Samples the quantiles were computed over.
    pub samples: u32,
    /// Mean stage span in seconds.
    pub mean_secs: f64,
    /// 10th-percentile span.
    pub p10_secs: f64,
    /// Median span.
    pub p50_secs: f64,
    /// 90th-percentile span.
    pub p90_secs: f64,
}

/// Per-stage breakdown of a prediction (means over the Monte-Carlo
/// samples) — where the money and time go.
#[derive(Debug, Clone, PartialEq)]
pub struct StageBreakdown {
    /// Stage index.
    pub stage: usize,
    /// Trials running.
    pub trials: u32,
    /// GPUs per trial.
    pub gpus_per_trial: u32,
    /// Instances held.
    pub instances: u32,
    /// Mean wall-clock duration of the stage (scale-up + training +
    /// barrier).
    pub duration: SimDuration,
    /// Mean compute cost attributed to the stage (instances held over its
    /// span, under per-instance billing; train-task GPU-time under
    /// per-function billing).
    pub cost: Cost,
}

/// Generation cap on the plan-prediction cache, in memoized entries
/// across all specs. When an insert would push the cache past the cap,
/// the cache is reset and re-grown; cached values are pure functions of
/// their keys, so eviction never changes results. Keeps long-running
/// re-planning loops from growing memory without bound.
const PLAN_CACHE_CAP: usize = 32_768;

/// Memoized predictions, keyed by spec fingerprint then by the plan's
/// per-stage GPU vector. Two levels so lookups can borrow the plan as a
/// `&[u32]` without allocating a key (`Box<[u32]>: Borrow<[u32]>`); the
/// boxed-slice key also keeps inserts at exactly one allocation. The
/// Monte-Carlo configuration need not be part of the key because
/// [`Simulator::with_config`] detaches the caches.
type PredictionCache = FxHashMap<u64, FxHashMap<Box<[u32]>, Prediction>>;

/// Reusable bookkeeping for [`Simulator::predict_batch`]: the per-plan
/// hit table, miss list, and dedupe tables. Thread-local, like the
/// [`PredictArena`] that batch prediction also drives, and for the same
/// reason: cold planning builds a fresh `Simulator` per plan, and a
/// planner issuing batches in a loop stops paying the allocator after
/// the first call only if the buffers outlive each simulator. Separate
/// from the arena because a batch *contains* predictions: the scratch
/// is alive across the `predict_one` calls that borrow the arena.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Resolved prediction per input slot (`None` = pending or failed).
    hits: Vec<Option<Prediction>>,
    /// Input indices that missed the plan cache.
    miss_idx: Vec<usize>,
    /// Representative input index per distinct missed plan.
    compute_idx: Vec<usize>,
    /// For each miss, the index into `compute_idx` holding its plan.
    slot_of: Vec<usize>,
}

thread_local! {
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::default());
}

/// Resets the prediction cache when inserting `incoming` more entries
/// would exceed `cap` (generation eviction). Returns the number of
/// entries dropped.
fn evict_generation(cache: &mut PredictionCache, cap: usize, incoming: usize) -> usize {
    let total: usize = cache.values().map(FxHashMap::len).sum();
    if total + incoming > cap {
        cache.clear();
        return total;
    }
    0
}

/// Expands a plan's instance ladder into release groups: `(stage,
/// provisioned_at, count)` triples in release order, written into
/// caller-owned buffers (the arena's, on the hot path — both are cleared
/// first). Instances are released LIFO at each stage barrier down to the
/// next stage's need, so instances provisioned together leave together
/// (possibly split across barriers) — and, sharing one hand-over time,
/// incur identical charges that can be billed as `charge × count`. Stage
/// indices fit `u32` by construction (a plan has at most `u32` stages).
fn release_groups_into(
    needed: &[u32],
    new_inst: &[u32],
    stack: &mut Vec<(u32, u32)>,
    out: &mut Vec<(u32, u32, u32)>,
) {
    stack.clear();
    out.clear();
    let n_stages = needed.len();
    let mut have = 0u32;
    for s in 0..n_stages {
        if new_inst[s] > 0 {
            stack.push((s as u32, new_inst[s]));
            have += new_inst[s];
        }
        let keep = if s + 1 < n_stages { needed[s + 1] } else { 0 };
        while have > keep {
            let (prov, count) = stack.last_mut().expect("live instances on the stack");
            let take = (have - keep).min(*count);
            out.push((s as u32, *prov, take));
            *count -= take;
            have -= take;
            if *count == 0 {
                stack.pop();
            }
        }
    }
}

/// The billing walk over a plan loaded by `Simulator::load_plan`, from
/// stage `from` on, stage by stage and within a stage sample by sample:
/// stage `s` of sample `i` ends `span` after boundary `s`, hands its new
/// instances over, and is charged either the instance charges of the
/// release groups it releases (per-instance billing) or its TRAIN tasks'
/// charges (per-function billing). Each stage's `(s, span, charge)` goes
/// to `sink`; boundary row `s + 1` of `at` and `paid` gets the time and
/// the bill so far, so row `S` ends up with each sample's JCT (the sum
/// of its spans, left to right) and compute bill (the sum of its
/// charges).
///
/// Rows before `from` must belong to the loaded plan (`arena.walked ≥
/// from`): a release at stage `s` reads the hand-over of the stage
/// `prov ≤ s` that provisioned it. Prediction passes a no-op sink, which
/// compiles away.
fn bill_samples(
    arena: &mut PredictArena,
    pricing: &CloudPricing,
    n: usize,
    from: usize,
    mut sink: impl FnMut(usize, f64, Cost),
) {
    let per_instance = pricing.billing.is_per_instance();
    // `instance_charge(held)` is the hourly price over
    // `held.max(floor)`, the floor being the billable time of a zero
    // hold; both are read once here rather than once per charge.
    let hourly = pricing.instance_hourly();
    let floor = pricing.billing.billable(SimDuration::ZERO);
    let PredictArena {
        new_inst,
        stage_arcs,
        releases,
        at,
        paid,
        hand,
        walked,
        ..
    } = arena;
    let mut next_release = releases.partition_point(|&(at, _, _)| (at as usize) < from);
    for (s, column) in stage_arcs.iter().enumerate().skip(from) {
        let ends =
            next_release + releases[next_release..].partition_point(|&(at, _, _)| at as usize == s);
        let released = &releases[next_release..ends];
        next_release = ends;
        let (before, after) = at.split_at_mut((s + 1) * n);
        let (now, end) = (&before[s * n..], &mut after[..n]);
        let (paid_before, paid_after) = paid.split_at_mut((s + 1) * n);
        let (paid_now, paid_end) = (&paid_before[s * n..], &mut paid_after[..n]);
        let provisions = per_instance && new_inst[s] > 0;
        for i in 0..n {
            let ss = column[i];
            let stage_end = now[i] + ss.dur;
            let charge = if per_instance {
                if provisions {
                    hand[s * n + i] = now[i] + ss.handover;
                }
                let mut charge = Cost::ZERO;
                for &(_, prov, count) in released {
                    let held = SimDuration::from_secs_f64(
                        (stage_end - hand[prov as usize * n + i]).max(0.0),
                    );
                    charge += hourly.per_hour_for(held.max(floor)) * u64::from(count);
                }
                charge
            } else {
                ss.fn_charge
            };
            sink(s, ss.dur, charge);
            end[i] = stage_end;
            paid_end[i] = paid_now[i] + charge;
        }
    }
    *walked = stage_arcs.len();
}

/// 64-bit fingerprint of a spec's stage ladder. Stages are hashed in
/// order: a ladder and its permutation are different jobs and must not
/// share cached predictions.
fn spec_fingerprint(spec: &ExperimentSpec) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for stage in spec.stages() {
        stage.num_trials.hash(&mut hasher);
        stage.iters.hash(&mut hasher);
    }
    hasher.finish()
}

/// Snapshot of the prediction engine's cache counters (see
/// [`Simulator::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCacheStats {
    /// The memoized-prediction (plan) cache.
    pub plan: CacheStats,
    /// The per-template stage-sample memo, summed over cached templates.
    pub stage_memo: CacheStats,
    /// The per-template noise-column memo (the TRAIN standard normals a
    /// stage-memo miss reads), summed over cached templates. Not
    /// mirrored onto the recorder by [`Simulator::record_cache_stats`].
    pub noise: CacheStats,
    /// The thread's prediction arena: a hit is a prediction whose
    /// working set already fit the arena (steady state, zero
    /// allocation), a miss is one that grew it. Per thread, not per
    /// simulator — the arena outlives simulators, so a fresh simulator
    /// reads the tally its predecessors on the thread left.
    pub arena: CacheStats,
    /// Plan-cache probes served through a borrowed `&[u32]` key — each
    /// one a key allocation the owned-key probe path used to pay for.
    /// Every probe borrows its key, so this is the plan cache's hits
    /// plus misses, session-wide like [`SimCacheStats::plan`].
    pub probe_allocs_saved: u64,
}

/// The plan simulator: owns the fitted profiles and predicts JCT/cost for
/// candidate allocation plans.
///
/// Prediction is served by a memoized engine on the caller's thread:
/// plans already predicted for a spec are returned from an interior
/// cache (reset when it would pass 32,768 entries), stage samples come
/// from a per-spec [`DagTemplate`]'s memo, and
/// [`Simulator::predict_batch`] computes each distinct missed plan of a
/// candidate batch once. Clones share the
/// caches (they are behind [`Rc`]), which is what the planner wants —
/// warm-start descents re-visit each other's plans constantly.
/// [`Simulator::with_samples`] (another sample count) and
/// [`Simulator::repriced`] (another pricing tier) share only the DAG
/// templates and their stage-sample memos, each with its own plan
/// cache; [`Simulator::with_config`] detaches both caches.
///
/// A simulator and its clones belong to one thread: the `Rc` handles
/// make it `!Send` and `!Sync`, so the compiler, not a lock, rules out
/// sharing its caches across threads (DESIGN.md, "One thread").
#[derive(Debug, Clone)]
pub struct Simulator {
    model: ModelProfile,
    cloud: CloudProfile,
    config: SimConfig,
    /// Per-spec DAG templates, keyed by spec fingerprint.
    templates: Rc<RefCell<FxHashMap<u64, Rc<DagTemplate>>>>,
    /// Memoized predictions.
    predictions: Rc<RefCell<PredictionCache>>,
    /// Plan-cache hit/miss/eviction tallies (passive; shared by clones
    /// for the lifetime of the planning session, surviving cache
    /// detachment so totals cover the whole run).
    plan_counters: Rc<CacheCounters>,
    /// Observability sink; the no-op handle by default. Prediction
    /// results are bit-identical whatever recorder is attached — the
    /// recorder only ever *receives* values.
    recorder: RecorderHandle,
}

impl Simulator {
    /// Creates a simulator with default Monte-Carlo settings.
    pub fn new(model: ModelProfile, cloud: CloudProfile) -> Self {
        Simulator {
            model,
            cloud,
            config: SimConfig::default(),
            templates: Rc::default(),
            predictions: Rc::default(),
            plan_counters: Rc::default(),
            recorder: RecorderHandle::noop(),
        }
    }

    /// Attaches an observability recorder. The recorder receives cache
    /// statistics and per-sample critical-path histograms; it never
    /// influences prediction results.
    #[must_use]
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached recorder (the no-op handle unless
    /// [`Simulator::with_recorder`] was called). The planner and the
    /// adaptation controller emit their events through this.
    pub fn recorder(&self) -> &RecorderHandle {
        &self.recorder
    }

    /// Cache statistics for this simulator's planning session: plan
    /// cache totals (shared by clones), and stage-sample and noise-column
    /// memo totals summed over the cached templates.
    pub fn cache_stats(&self) -> SimCacheStats {
        let (stage_memo, noise) = self.templates.borrow().values().fold(
            (CacheStats::default(), CacheStats::default()),
            |(memo, noise), t| (memo.merged(&t.memo_stats()), noise.merged(&t.noise_stats())),
        );
        let plan = self.plan_counters.snapshot();
        SimCacheStats {
            plan,
            stage_memo,
            noise,
            arena: arena_stats(),
            probe_allocs_saved: plan.hits + plan.misses,
        }
    }

    /// [`Simulator::cache_stats`], with the plan-cache and stage-memo
    /// tallies also mirrored onto the attached recorder as `sim`
    /// counters, so an exported trace carries them without a side
    /// channel. Call it once, after the run.
    pub fn record_cache_stats(&self) -> SimCacheStats {
        let caches = self.cache_stats();
        for (name, value) in [
            ("plan_cache_hits", caches.plan.hits),
            ("plan_cache_misses", caches.plan.misses),
            ("plan_cache_evictions", caches.plan.evictions),
            ("stage_memo_hits", caches.stage_memo.hits),
            ("stage_memo_misses", caches.stage_memo.misses),
            ("stage_memo_evictions", caches.stage_memo.evictions),
        ] {
            self.recorder.counter_add("sim", name, value);
        }
        caches
    }

    /// Overrides the Monte-Carlo configuration. Detaches this simulator
    /// from any caches shared with clones: cached templates and
    /// predictions embed the old seed and sample count.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self.templates = Rc::default();
        self.predictions = Rc::default();
        self
    }

    /// A simulator drawing `samples` Monte-Carlo samples per prediction,
    /// **sharing this simulator's DAG templates** (and their stage-sample
    /// memos) but with its own plan-prediction cache.
    ///
    /// Sample `i` is a pure function of `(config.seed, i)`, so the sample
    /// set at a lower count is a strict prefix of the sample set at a
    /// higher one: a low-fidelity simulator re-uses (and pre-warms) the
    /// full-fidelity stage samples. Cached [`Prediction`]s embed the
    /// sample count, which is why the plan cache is detached.
    ///
    /// This is the planner's fidelity ladder: explore candidates cheaply,
    /// then re-score survivors on the full-fidelity parent.
    #[must_use]
    pub fn with_samples(&self, samples: u32) -> Simulator {
        let mut low = self.clone();
        low.config.samples = samples;
        low.predictions = Rc::default();
        low
    }

    /// This simulator at `tier`'s prices, with its own plan-prediction
    /// cache and plan counters and the no-op recorder: the other market
    /// of a re-plan.
    ///
    /// Under per-instance billing it **shares this simulator's DAG
    /// templates** (and their stage-sample memos): a stage column holds
    /// no charge there, so it does not depend on prices, and the
    /// repriced simulator reads the columns this one already built.
    /// Under per-function billing a column carries its TRAIN charges at
    /// the template's prices, so the repriced simulator gets a fresh
    /// template cache. Cached [`Prediction`]s embed prices, which is why
    /// the plan cache is never shared; the arena's resume identity
    /// records the prices it billed at, so the two simulators never
    /// resume each other's billing walks.
    #[must_use]
    pub fn repriced(&self, tier: PricingTier) -> Simulator {
        let mut cloud = self.cloud.clone();
        cloud.pricing.tier = tier;
        Simulator {
            model: self.model.clone(),
            cloud,
            config: self.config.clone(),
            templates: if self.cloud.pricing.billing.is_per_instance() {
                self.templates.clone()
            } else {
                Rc::default()
            },
            predictions: Rc::default(),
            plan_counters: Rc::default(),
            recorder: RecorderHandle::noop(),
        }
    }

    /// The cloud profile in use.
    pub fn cloud(&self) -> &CloudProfile {
        &self.cloud
    }

    /// The model profile in use.
    pub fn model(&self) -> &ModelProfile {
        &self.model
    }

    /// The Monte-Carlo configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of predictions currently memoized. A test oracle: the
    /// plan-cache tests in `crates/sim/tests/engine.rs` (clone sharing,
    /// detachment, batch dedupe) have no other view of the cache; no
    /// library code calls it.
    pub fn cached_predictions(&self) -> usize {
        self.predictions.borrow().values().map(FxHashMap::len).sum()
    }

    /// The cached template for `spec` under this simulator's profiles,
    /// built on first use. Every prediction, `explain` and
    /// `stage_quantiles` samples from it.
    fn template_for(&self, spec: &ExperimentSpec) -> Rc<DagTemplate> {
        let fp = spec_fingerprint(spec);
        self.templates
            .borrow_mut()
            .entry(fp)
            .or_insert_with(|| Rc::new(DagTemplate::new(spec, &self.model, &self.cloud)))
            .clone()
    }

    /// Loads `plan` into `arena`: the instance ladder, one memoized
    /// sample column of `n` samples per stage and, under per-instance
    /// billing, the release groups. Prediction,
    /// [`Simulator::explain`] and [`Simulator::stage_quantiles`] all
    /// start here, so they read the same samples. The plan must already
    /// be validated; returns the job's total provisioned instances.
    ///
    /// When the arena last loaded a plan from the same template, seed
    /// and sample count, and the template's stage memo has not evicted
    /// since, only the stages whose sampling key changed are looked up
    /// (a kept column counts as the memo hit its lookup would be), and
    /// `arena.walked` drops to the first stage whose key or release
    /// groups differ: the billing walk resumes there.
    fn load_plan(
        &self,
        template: &DagTemplate,
        plan: &AllocationPlan,
        n: usize,
        arena: &mut PredictArena,
    ) -> u32 {
        let pricing = &self.cloud.pricing;
        let identity = Loaded {
            template: template.id(),
            seed: self.config.seed,
            samples: n,
            evictions: template.memo_stats().evictions,
            hourly: pricing.instance_hourly(),
        };
        count_load(arena.ensure(template.num_stages(), n, identity));
        let total = template.instance_ladder_into(plan, &mut arena.needed, &mut arena.new_inst);
        let mut kept = 0;
        for (s, &grown) in arena.new_inst.iter().enumerate() {
            let key = template.stage_key(s, plan.gpus(s), grown);
            if arena.keys.get(s) == Some(&key) {
                kept += 1;
                continue;
            }
            // Lowered before the column changes, so the arena never
            // claims rows for a stage it no longer holds.
            arena.walked = arena.walked.min(s);
            let column = template.stage_samples(s, key, self.config.seed, n as u32);
            if s < arena.keys.len() {
                arena.keys[s] = key;
                arena.stage_arcs[s] = column;
            } else {
                arena.keys.push(key);
                arena.stage_arcs.push(column);
            }
        }
        template.memo_reused(kept);
        // The plan's release schedule is sample-independent: instances
        // provisioned together share a hand-over time and are released
        // together (LIFO at stage barriers), so precompute, per stage,
        // which provisioning groups release how many instances — one
        // charge per group per sample instead of one per instance.
        if pricing.billing.is_per_instance() {
            release_groups_into(
                &arena.needed,
                &arena.new_inst,
                &mut arena.release_stack,
                &mut arena.next_releases,
            );
            let (old, new) = (&arena.releases, &arena.next_releases);
            if let Some(j) = (0..old.len().max(new.len())).find(|&j| old.get(j) != new.get(j)) {
                let stage = |r: Option<&(u32, u32, u32)>| r.map_or(usize::MAX, |r| r.0 as usize);
                arena.walked = arena.walked.min(stage(old.get(j)).min(stage(new.get(j))));
                std::mem::swap(&mut arena.releases, &mut arena.next_releases);
            }
        }
        total
    }

    /// Predicts `plan` against a DAG template by composing per-stage
    /// Monte-Carlo samples.
    ///
    /// Stages are separated by full barriers, so a sampled execution is
    /// exactly the concatenation of its sampled stages: JCT is the sum of
    /// stage spans, and per-instance lifetimes are reconstructed from the
    /// stage-relative hand-over offsets and the plan's release groups.
    /// Stage samples come from the template's memo
    /// (`DagTemplate::stage_samples`), so candidate plans that share a
    /// stage configuration — the planner's common case — share the
    /// expensive sampling work and only pay for this cheap composition.
    ///
    /// Sample `i` everywhere derives from `Prng::for_stream(config.seed,
    /// i)`, so the sample set is fixed by the configuration alone, and
    /// the result is bit-identical on every thread and in every cache
    /// state.
    ///
    /// All scratch lives in the calling thread's [`PredictArena`]
    /// (struct-of-arrays: each sample's time and bill per stage
    /// boundary), so once the arena has served a working set at least
    /// this large, a prediction performs **zero heap allocation** — the
    /// invariant the `warm_path_alloc` test asserts. The walk resumes at
    /// the first stage where `plan` differs from the arena's last loaded
    /// plan (`Simulator::load_plan`).
    fn predict_with_template(
        &self,
        template: &DagTemplate,
        plan: &AllocationPlan,
    ) -> Result<Prediction> {
        template.validate(plan)?;
        let n = self.config.samples.max(1) as usize;
        let pricing = &self.cloud.pricing;
        with_arena(|arena| {
            let total_instances = self.load_plan(template, plan, n, arena);
            bill_samples(arena, pricing, n, arena.walked, |_, _, _| {});
            let last = template.num_stages() * n;
            let (jct, compute) = (&arena.at[last..], &arena.paid[last..]);
            let data_cost =
                pricing.ingress_charge(self.cloud.dataset_gb) * u64::from(total_instances);
            if self.recorder.enabled() {
                // Per-sample critical-path observations: each sampled JCT
                // is the length of that sample's DAG critical path.
                for i in 0..n {
                    self.recorder.histogram("sim", "sample_jct_secs", jct[i]);
                    self.recorder.histogram(
                        "sim",
                        "sample_cost_usd",
                        (compute[i] + data_cost).as_dollars(),
                    );
                }
            }
            // Two-pass mean/std, inlined to keep the hot path
            // allocation-free (same unbiased n-1 semantics as
            // `rb_core::stats::std`). The data-ingress charge is constant
            // across samples and folded in here, exactly as the former
            // per-sample `total_cost()` did (integer micro-dollar add).
            let n_f = n as f64;
            let mut jct_sum = 0.0_f64;
            let mut cost_sum = 0.0_f64;
            for i in 0..n {
                jct_sum += jct[i];
                cost_sum += (compute[i] + data_cost).as_dollars();
            }
            let jct_mean = jct_sum / n_f;
            let cost_mean = cost_sum / n_f;
            let (jct_std, cost_std) = if n < 2 {
                (0.0, 0.0)
            } else {
                let mut jv = 0.0_f64;
                let mut cv = 0.0_f64;
                for i in 0..n {
                    let dj = jct[i] - jct_mean;
                    jv += dj * dj;
                    let dc = (compute[i] + data_cost).as_dollars() - cost_mean;
                    cv += dc * dc;
                }
                ((jv / (n_f - 1.0)).sqrt(), (cv / (n_f - 1.0)).sqrt())
            };
            Ok(Prediction {
                jct: SimDuration::from_secs_f64(jct_mean),
                jct_std_secs: jct_std,
                cost: Cost::from_dollars(cost_mean),
                cost_std: Cost::from_dollars(cost_std),
                samples: n as u32,
            })
        })
    }

    /// Predicts one plan on the cached template without consulting or
    /// filling the prediction cache, so every call loads and bills the
    /// plan. [`Simulator::predict`] calls it on a miss. Public for the
    /// tests that must run the full path on every call: the allocation
    /// gates in `crates/sim/tests/warm_path_alloc.rs` and the
    /// resumed-walk case in `crates/sim/tests/engine.rs`.
    ///
    /// # Errors
    ///
    /// Returns [`rb_core::RbError::InvalidPlan`] when the plan does not
    /// validate against the spec.
    pub fn predict_uncached(
        &self,
        spec: &ExperimentSpec,
        plan: &AllocationPlan,
    ) -> Result<Prediction> {
        self.predict_with_template(&self.template_for(spec), plan)
    }

    /// Predicts JCT and cost of executing `spec` under `plan`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rb_sim::{AllocationPlan, Simulator};
    /// use rb_profile::{CloudProfile, ModelProfile};
    /// use rb_cloud::{catalog::P3_8XLARGE, CloudPricing};
    /// use rb_hpo::ShaParams;
    /// use rb_scaling::{AnalyticScaling, zoo::RESNET50};
    /// use std::sync::Arc;
    ///
    /// let spec = ShaParams::new(8, 1, 8).generate().unwrap();
    /// let model = ModelProfile::from_scaling(
    ///     "rn50",
    ///     Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4)),
    ///     10,
    ///     2.0,
    ///     0.0,
    /// );
    /// let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE));
    /// let sim = Simulator::new(model, cloud);
    /// let pred = sim.predict(&spec, &AllocationPlan::flat(8, 4)).unwrap();
    /// assert!(pred.cost > rb_core::Cost::ZERO);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`rb_core::RbError::InvalidPlan`] when the plan does not
    /// validate against the spec.
    pub fn predict(&self, spec: &ExperimentSpec, plan: &AllocationPlan) -> Result<Prediction> {
        let fp = spec_fingerprint(spec);
        // Borrowed-key probe: the lookup hashes the plan's own `&[u32]`
        // slice (`Box<[u32]>: Borrow<[u32]>`), so a hit — the planner's
        // steady state — allocates nothing.
        if let Some(hit) = self
            .predictions
            .borrow()
            .get(&fp)
            .and_then(|per_plan| per_plan.get(plan.as_slice()))
        {
            self.plan_counters.hits_add(1);
            return Ok(*hit);
        }
        self.plan_counters.misses_add(1);
        let pred = self.predict_uncached(spec, plan)?;
        let mut cache = self.predictions.borrow_mut();
        let evicted = evict_generation(&mut cache, PLAN_CACHE_CAP, 1);
        self.plan_counters.evictions_add(evicted as u64);
        cache
            .entry(fp)
            .or_default()
            .insert(Box::from(plan.as_slice()), pred);
        Ok(pred)
    }

    /// Predicts every plan of a candidate batch, returning one result per
    /// plan **in input order**.
    ///
    /// This is the planner's unit of work: a greedy step generates one or
    /// two candidates per stage and needs all of them evaluated. Cached
    /// plans are served from memory and the distinct misses are predicted
    /// once each, in input order, on the caller's thread. Results are
    /// bit-identical to calling [`Simulator::predict`] on each plan
    /// sequentially.
    ///
    /// An invalid plan yields an [`rb_core::RbError::InvalidPlan`] in its
    /// own slot without poisoning the rest of the batch.
    ///
    /// Bookkeeping (hit table, miss list, dedupe tables) lives in a
    /// thread-local scratch reused across calls, so a warm all-hit batch
    /// performs exactly one allocation: the returned vector.
    pub fn predict_batch(
        &self,
        spec: &ExperimentSpec,
        plans: &[AllocationPlan],
    ) -> Vec<Result<Prediction>> {
        let fp = spec_fingerprint(spec);
        // Steal the scratch instead of holding the `RefCell` borrow across
        // prediction calls; restored (with its grown capacity) on exit.
        let mut sc = BATCH_SCRATCH.with(|b| std::mem::take(&mut *b.borrow_mut()));
        sc.hits.clear();
        sc.miss_idx.clear();
        sc.compute_idx.clear();
        sc.slot_of.clear();
        {
            let cache = self.predictions.borrow();
            let per_plan = cache.get(&fp);
            for (i, plan) in plans.iter().enumerate() {
                match per_plan.and_then(|m| m.get(plan.as_slice())) {
                    Some(hit) => sc.hits.push(Some(*hit)),
                    None => {
                        sc.hits.push(None);
                        sc.miss_idx.push(i);
                    }
                }
            }
        }
        self.plan_counters
            .hits_add((plans.len() - sc.miss_idx.len()) as u64);
        self.plan_counters.misses_add(sc.miss_idx.len() as u64);
        // Deduplicate repeated plans within the batch (candidate ladders
        // overlap): compute each distinct plan once. Batches are a handful
        // of short plans, so a linear scan beats hashing each one.
        for &i in &sc.miss_idx {
            let slice = plans[i].as_slice();
            match sc
                .compute_idx
                .iter()
                .position(|&j| plans[j].as_slice() == slice)
            {
                Some(k) => sc.slot_of.push(k),
                None => {
                    sc.slot_of.push(sc.compute_idx.len());
                    sc.compute_idx.push(i);
                }
            }
        }
        // Resolve the spec's cached template once for the whole batch
        // instead of once per miss (the template cache is a spec hash
        // away), and not at all when every plan hit.
        let template = (!sc.compute_idx.is_empty()).then(|| self.template_for(spec));
        let misses = sc.compute_idx.len();
        if self.recorder.enabled() && misses > 1 {
            self.recorder
                .counter_add("sim", "batch_plans_computed", misses as u64);
        }
        let computed: Vec<Result<Prediction>> = match &template {
            Some(t) => sc
                .compute_idx
                .iter()
                .map(|&i| self.predict_with_template(t, &plans[i]))
                .collect(),
            None => Vec::new(),
        };
        {
            let mut cache = self.predictions.borrow_mut();
            let incoming = computed.iter().filter(|r| r.is_ok()).count();
            let evicted = evict_generation(&mut cache, PLAN_CACHE_CAP, incoming);
            self.plan_counters.evictions_add(evicted as u64);
            let per_plan = cache.entry(fp).or_default();
            for (&i, result) in sc.compute_idx.iter().zip(&computed) {
                if let Ok(pred) = result {
                    per_plan.insert(Box::from(plans[i].as_slice()), *pred);
                }
            }
        }
        for (&i, &k) in sc.miss_idx.iter().zip(&sc.slot_of) {
            if let Ok(pred) = &computed[k] {
                sc.hits[i] = Some(*pred);
            }
        }
        let out: Vec<Result<Prediction>> = plans
            .iter()
            .enumerate()
            .map(|(i, _)| match sc.hits[i] {
                Some(pred) => Ok(pred),
                // Slots still empty failed to compute. Re-derive each
                // error (errors are not clonable): only invalid plans
                // land here, and re-validation is cheap and exact.
                None => self.predict_uncached(spec, &plans[i]),
            })
            .collect();
        BATCH_SCRATCH.with(|b| *b.borrow_mut() = sc);
        out
    }

    /// The sequential reference prediction: fresh template, no
    /// memoization of any kind. Public as a named test oracle:
    /// `crates/sim/tests/engine.rs` and the planner's reference loops in
    /// `crates/planner/tests/descent.rs` compare against it, and no
    /// library code calls it. Results are bit-identical to
    /// [`Simulator::predict`] by the determinism contract.
    ///
    /// # Errors
    ///
    /// Returns [`rb_core::RbError::InvalidPlan`] when the plan does not
    /// validate against the spec.
    pub fn predict_reference(
        &self,
        spec: &ExperimentSpec,
        plan: &AllocationPlan,
    ) -> Result<Prediction> {
        let template = DagTemplate::new(spec, &self.model, &self.cloud);
        self.predict_with_template(&template, plan)
    }

    /// Exports per-stage span quantiles for `plan` — the prediction
    /// envelope a closed-loop controller monitors drift against.
    ///
    /// Starts from the same loaded plan as [`Simulator::predict`]
    /// (`load_plan`: identical memo keys, identical counter-derived
    /// streams), so the quantiles are exactly the distribution the
    /// plan's prediction was composed from, and computing them warms the
    /// cache a later re-planning pass will hit. Each stage's spans are
    /// sorted in one arena buffer, so a warm call allocates only the
    /// returned `Vec`.
    ///
    /// # Errors
    ///
    /// Returns [`rb_core::RbError::InvalidPlan`] when the plan does not
    /// validate against the spec.
    pub fn stage_quantiles(
        &self,
        spec: &ExperimentSpec,
        plan: &AllocationPlan,
    ) -> Result<Vec<StageQuantiles>> {
        let template = self.template_for(spec);
        template.validate(plan)?;
        let n = self.config.samples.max(1) as usize;
        with_arena(|arena| {
            self.load_plan(&template, plan, n, arena);
            let PredictArena {
                stage_arcs, spans, ..
            } = arena;
            Ok(stage_arcs
                .iter()
                .enumerate()
                .map(|(s, column)| {
                    // The memo may hold more samples than this
                    // simulator's fidelity; quantiles use exactly the
                    // first `n` (the sample set is prefix-consistent per
                    // seed).
                    spans.clear();
                    spans.extend(column[..n].iter().map(|x| x.dur));
                    spans.sort_by(f64::total_cmp);
                    let q = |p: f64| spans[(p * (n - 1) as f64).round() as usize];
                    StageQuantiles {
                        stage: s,
                        samples: n as u32,
                        mean_secs: spans.iter().sum::<f64>() / n as f64,
                        p10_secs: q(0.10),
                        p50_secs: q(0.50),
                        p90_secs: q(0.90),
                    }
                })
                .collect())
        })
    }

    /// Explains a plan stage by stage: mean duration and cost per stage
    /// across the Monte-Carlo samples. Kept as the entry point for
    /// attributing a plan's predicted cost per stage: no library code
    /// calls it yet, and the Algorithm 1 oracle checks every stage of it.
    ///
    /// Runs the same billing walk over the same loaded plan as
    /// [`Simulator::predict`]. A stage's cost is the instance charges of
    /// the release groups it releases (per-instance billing: an instance
    /// that spans stages is attributed to the stage that releases it, so
    /// single attributions are approximate) or its TRAIN tasks' charges
    /// (per-function billing). Each stage's charges are summed exactly,
    /// in integer micro-dollars, and divided by the sample count once.
    /// So the stage costs plus the data-ingress charge equal the
    /// prediction's mean cost, and the stage durations its mean JCT, up
    /// to the rounding of each mean: within one micro-dollar and one
    /// millisecond per stage (`crates/sim/tests/algorithm1.rs` checks
    /// both under noise).
    ///
    /// # Errors
    ///
    /// Returns [`rb_core::RbError::InvalidPlan`] when the plan does not
    /// validate against the spec.
    pub fn explain(
        &self,
        spec: &ExperimentSpec,
        plan: &AllocationPlan,
    ) -> Result<Vec<StageBreakdown>> {
        let template = self.template_for(spec);
        template.validate(plan)?;
        let n = self.config.samples.max(1) as usize;
        with_arena(|arena| {
            self.load_plan(&template, plan, n, arena);
            let mut sums = std::mem::take(&mut arena.stage_sums);
            sums.clear();
            sums.resize(template.num_stages(), (0.0, Cost::ZERO));
            bill_samples(arena, &self.cloud.pricing, n, 0, |s, span, charge| {
                sums[s].0 += span;
                sums[s].1 += charge;
            });
            let rows = sums
                .iter()
                .enumerate()
                .map(|(s, &(dur, cost))| {
                    let (trials, _) = spec.get_stage(s).expect("stage in range");
                    StageBreakdown {
                        stage: s,
                        trials,
                        gpus_per_trial: plan.gpus_per_trial(s, spec),
                        instances: arena.needed[s],
                        duration: SimDuration::from_secs_f64(dur / n as f64),
                        cost: Cost::from_dollars(cost.as_dollars() / n as f64),
                    }
                })
                .collect();
            // Hand the buffer back so its capacity serves the next call.
            arena.stage_sums = sums;
            Ok(rows)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_cloud::catalog::P3_2XLARGE;
    use rb_cloud::CloudPricing;
    use rb_scaling::zoo::RESNET50;
    use rb_scaling::{AnalyticScaling, IdealScaling};
    use std::sync::Arc;

    fn ideal_model(noise: f64) -> ModelProfile {
        ModelProfile::from_scaling(
            "ideal",
            Arc::new(IdealScaling {
                base_secs: 4.0,
                batch: 512,
            }),
            1,
            0.0,
            noise,
        )
    }

    fn cloud_1gpu() -> CloudProfile {
        CloudProfile::new(CloudPricing::on_demand(P3_2XLARGE))
            .with_provision_delay(SimDuration::from_secs(10))
            .with_init_latency(SimDuration::from_secs(20))
    }

    fn spec() -> ExperimentSpec {
        ExperimentSpec::from_stages(&[(4, 10), (2, 10), (1, 10)]).unwrap()
    }

    fn sim(noise: f64, cloud: CloudProfile) -> Simulator {
        Simulator::new(ideal_model(noise), cloud).with_config(SimConfig {
            samples: 8,
            seed: 7,
        })
    }

    #[test]
    fn deterministic_jct_is_exact() {
        // Stage timeline: scale 10 + init 20 + train 40 + sync 1 = 71;
        // then 40 + 1 = 112; then 40 + 1 = 153.
        let s = sim(0.0, cloud_1gpu());
        let p = s
            .predict(&spec(), &AllocationPlan::new(vec![4, 2, 1]))
            .unwrap();
        assert_eq!(p.jct, SimDuration::from_secs(153));
        assert_eq!(p.jct_std_secs, 0.0);
    }

    #[test]
    fn deterministic_per_instance_cost_is_exact() {
        // Lifetimes: hand-over at t=10 for all 4; two released at 71
        // (61 s each), one at 112 (102 s), one at 153 (143 s).
        let s = sim(0.0, cloud_1gpu());
        let p = s
            .predict(&spec(), &AllocationPlan::new(vec![4, 2, 1]))
            .unwrap();
        let pr = CloudPricing::on_demand(P3_2XLARGE);
        let expect = pr.instance_charge(SimDuration::from_secs(61)) * 2
            + pr.instance_charge(SimDuration::from_secs(102))
            + pr.instance_charge(SimDuration::from_secs(143));
        assert_eq!(p.cost, expect);
        assert_eq!(p.cost_std, Cost::ZERO);
    }

    #[test]
    fn deterministic_per_function_cost_is_exact() {
        let cloud = cloud_1gpu();
        let pricing = cloud.pricing.clone().with_per_function_billing();
        let cloud = CloudProfile { pricing, ..cloud };
        let s = sim(0.0, cloud);
        let p = s
            .predict(&spec(), &AllocationPlan::new(vec![4, 2, 1]))
            .unwrap();
        // 7 TRAIN tasks × 40 s × 1 GPU.
        let pr = CloudPricing::on_demand(P3_2XLARGE).with_per_function_billing();
        let expect = pr.function_charge(1, SimDuration::from_secs(40)) * 7;
        assert_eq!(p.cost, expect);
    }

    #[test]
    fn stragglers_inflate_per_instance_but_not_per_function_cost() {
        // The Fig. 9 mechanism. Same workload, rising noise.
        let spec = ExperimentSpec::from_stages(&[(8, 10), (4, 10)]).unwrap();
        let plan = AllocationPlan::new(vec![8, 4]);
        let run = |noise: f64, per_function: bool| {
            let mut cloud = cloud_1gpu();
            if per_function {
                cloud.pricing = cloud.pricing.with_per_function_billing();
            }
            let s = Simulator::new(ideal_model(noise), cloud).with_config(SimConfig {
                samples: 60,
                seed: 3,
            });
            s.predict(&spec, &plan).unwrap().cost.as_dollars()
        };
        let pi_calm = run(0.01, false);
        let pi_stormy = run(1.5, false);
        let pf_calm = run(0.01, true);
        let pf_stormy = run(1.5, true);
        // Per-instance: everyone waits for the slowest trial.
        assert!(
            pi_stormy > pi_calm * 1.3,
            "per-instance {pi_calm} -> {pi_stormy}"
        );
        // Per-function: cost tracks mean work, which noise barely moves.
        assert!(
            (pf_stormy - pf_calm).abs() / pf_calm < 0.15,
            "per-function {pf_calm} -> {pf_stormy}"
        );
    }

    #[test]
    fn data_ingress_charged_once_per_instance() {
        let plan = AllocationPlan::new(vec![4, 2, 1]);
        let cloud = cloud_1gpu().with_dataset_gb(150.0);
        let free = sim(0.0, cloud.clone()).predict(&spec(), &plan).unwrap();
        let pricing = cloud
            .pricing
            .clone()
            .with_data_price(Cost::from_dollars(0.01));
        let paid = sim(0.0, CloudProfile { pricing, ..cloud })
            .predict(&spec(), &plan)
            .unwrap();
        // 4 instances × 150 GB × $0.01 = $6.00.
        assert_eq!(paid.cost - free.cost, Cost::from_dollars(6.0));
        assert_eq!(paid.jct, free.jct);
    }

    #[test]
    fn elastic_beats_static_under_sublinear_scaling() {
        // ResNet-50-shaped scaling: paying for 4 GPUs per trial in late
        // stages buys little speedup, so shrinking is cheaper.
        let scaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 1));
        let model = ModelProfile::from_scaling("rn50", scaling, 10, 0.0, 0.0);
        let spec = ExperimentSpec::from_stages(&[(8, 8), (4, 16), (2, 32), (1, 64)]).unwrap();
        let s = Simulator::new(model, cloud_1gpu());
        let static_plan = AllocationPlan::flat(8, 4);
        let elastic = AllocationPlan::new(vec![8, 4, 2, 1]);
        let p_static = s.predict(&spec, &static_plan).unwrap();
        let p_elastic = s.predict(&spec, &elastic).unwrap();
        assert!(
            p_elastic.cost < p_static.cost,
            "elastic {} vs static {}",
            p_elastic.cost,
            p_static.cost
        );
    }

    #[test]
    fn under_linear_scaling_static_matches_elastic_cost_closely() {
        // With ideal scaling and no provisioning overheads, GPU-seconds
        // of work are conserved up to the 1 s barriers; the static plan
        // is not wasteful (§1's converse case).
        let cloud = CloudProfile::new(CloudPricing::on_demand(P3_2XLARGE))
            .with_provision_delay(SimDuration::from_secs(0))
            .with_init_latency(SimDuration::from_secs(0));
        let s = sim(0.0, cloud).with_config(SimConfig {
            samples: 1,
            seed: 0,
        });
        let spec = ExperimentSpec::from_stages(&[(4, 60), (2, 60), (1, 60)]).unwrap();
        let p_static = s.predict(&spec, &AllocationPlan::flat(4, 3)).unwrap();
        let p_elastic = s
            .predict(&spec, &AllocationPlan::new(vec![4, 2, 1]))
            .unwrap();
        let a = p_static.cost.as_dollars();
        let b = p_elastic.cost.as_dollars();
        assert!((a - b).abs() / b < 0.05, "static {a} vs elastic {b}");
    }

    #[test]
    fn predictions_are_deterministic_per_seed() {
        let s = sim(0.5, cloud_1gpu());
        let plan = AllocationPlan::new(vec![4, 2, 1]);
        let a = s.predict(&spec(), &plan).unwrap();
        let b = s.predict(&spec(), &plan).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn minimum_charge_binds_for_tiny_stages() {
        // One 5 s stage (6 s with its barrier) on one instance still
        // pays for 60 s.
        let cloud = CloudProfile::new(CloudPricing::on_demand(P3_2XLARGE))
            .with_provision_delay(SimDuration::from_secs(0))
            .with_init_latency(SimDuration::from_secs(0));
        let model = ModelProfile::from_scaling(
            "tiny",
            Arc::new(IdealScaling {
                base_secs: 5.0,
                batch: 1,
            }),
            1,
            0.0,
            0.0,
        );
        let s = Simulator::new(model, cloud).with_config(SimConfig {
            samples: 1,
            seed: 0,
        });
        let spec = ExperimentSpec::from_stages(&[(1, 1)]).unwrap();
        let p = s.predict(&spec, &AllocationPlan::flat(1, 1)).unwrap();
        let pr = CloudPricing::on_demand(P3_2XLARGE);
        assert_eq!(p.cost, pr.instance_charge(SimDuration::from_secs(60)));
    }

    #[test]
    fn feasibility_check() {
        let s = sim(0.0, cloud_1gpu());
        let p = s
            .predict(&spec(), &AllocationPlan::new(vec![4, 2, 1]))
            .unwrap();
        assert!(p.feasible(SimDuration::from_secs(153)));
        assert!(!p.feasible(SimDuration::from_secs(152)));
    }

    #[test]
    fn explain_decomposes_duration_and_cost() {
        let s = sim(0.0, cloud_1gpu());
        let spec = spec();
        let plan = AllocationPlan::new(vec![4, 2, 1]);
        let pred = s.predict(&spec, &plan).unwrap();
        let rows = s.explain(&spec, &plan).unwrap();
        assert_eq!(rows.len(), 3);
        // Stage durations sum to the JCT, exactly: both read the same
        // stage samples.
        let total = rows
            .iter()
            .fold(SimDuration::ZERO, |acc, r| acc + r.duration);
        assert_eq!(total, pred.jct);
        // Stage costs sum to the compute bill (data cost is zero here).
        let cost: Cost = rows.iter().map(|r| r.cost).sum();
        assert_eq!(cost, pred.cost);
        // Metadata matches the plan.
        assert_eq!(rows[0].instances, 4);
        assert_eq!(rows[2].gpus_per_trial, 1);
    }

    /// Plans with distinct stage configurations for [`spec`].
    fn cap_plans() -> Vec<AllocationPlan> {
        [[4, 2, 1], [4, 4, 2], [2, 2, 1], [3, 1, 1], [1, 1, 1]]
            .iter()
            .map(|g| AllocationPlan::new(g.to_vec()))
            .collect()
    }

    #[test]
    fn plan_cache_generation_cap_bounds_memory_without_changing_results() {
        // The cap is `PLAN_CACHE_CAP`; at a cap of 2 every third insert
        // starts a new generation.
        let s = sim(0.5, cloud_1gpu());
        let mut dropped = 0;
        for plan in cap_plans() {
            dropped += evict_generation(&mut s.predictions.borrow_mut(), 2, 1);
            assert_eq!(
                s.predict(&spec(), &plan).unwrap(),
                s.predict_reference(&spec(), &plan).unwrap(),
                "{plan}: eviction changed the prediction"
            );
            assert!(s.cached_predictions() <= 2, "cache grew past the cap");
        }
        assert_eq!(dropped, 4);
        // Re-predicting after eviction still agrees (recomputed, not stale).
        let p = &cap_plans()[0];
        assert_eq!(
            s.predict(&spec(), p).unwrap(),
            s.predict_reference(&spec(), p).unwrap()
        );
    }

    #[test]
    fn stage_memo_generation_cap_bounds_the_template() {
        let s = sim(0.5, cloud_1gpu());
        let capped = DagTemplate::new(&spec(), &s.model, &s.cloud).with_memo_cap(3);
        s.templates
            .borrow_mut()
            .insert(spec_fingerprint(&spec()), Rc::new(capped));
        for plan in cap_plans() {
            assert_eq!(
                s.predict(&spec(), &plan).unwrap(),
                s.predict_reference(&spec(), &plan).unwrap(),
                "{plan}: memo eviction changed the prediction"
            );
        }
        let template = s.template_for(&spec());
        assert!(
            template.cached_stage_configs() <= 3,
            "stage memo grew past the cap: {}",
            template.cached_stage_configs()
        );
        assert!(template.memo_stats().evictions > 0, "the cap never bound");
    }

    #[test]
    fn explain_per_function_attributes_train_time() {
        let mut cloud = cloud_1gpu();
        cloud.pricing = cloud.pricing.with_per_function_billing();
        let s = sim(0.0, cloud);
        let spec = spec();
        let plan = AllocationPlan::new(vec![4, 2, 1]);
        let pred = s.predict(&spec, &plan).unwrap();
        let rows = s.explain(&spec, &plan).unwrap();
        let cost: Cost = rows.iter().map(|r| r.cost).sum();
        assert_eq!(cost, pred.cost);
        // Stage 0 runs 4 trials, stage 2 one: 4x the train cost.
        assert!(rows[0].cost.as_dollars() > 3.9 * rows[2].cost.as_dollars());
    }
}
