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
//! [`Simulator::explain`] all read the same memoized stage samples, and
//! a stage-sample miss reads its TRAIN noise from a column shared by
//! every allocation of the stage (see [`crate::dag`]). The node-by-node
//! walk of Algorithm 1 that the composition reproduces is the test
//! oracle in `crates/sim/tests/algorithm1.rs`.

use crate::arena::{with_arena, PredictArena, ARENA_COUNTERS};
use crate::counters::CacheCounters;
use crate::dag::DagTemplate;
use crate::plan::AllocationPlan;
use rb_core::par::{plan_chunks, run_chunked};
use rb_core::{Cost, Result, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_obs::{CacheStats, RecorderHandle};
use rb_profile::{CloudProfile, ModelProfile};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monte-Carlo configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of execution samples per prediction. "Configured to be
    /// small by default to ensure plans are generated quickly" (§5).
    pub samples: u32,
    /// Seed of the sampling stream.
    pub seed: u64,
    /// Latency of the end-of-stage evaluation barrier, in seconds.
    pub sync_overhead_secs: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            samples: 20,
            seed: 0xB0A710AD,
            sync_overhead_secs: 1.0,
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageQuantiles {
    /// Stage index.
    pub stage: usize,
    /// Samples the quantiles were computed over.
    pub samples: u32,
    /// Mean stage span in seconds.
    pub mean_secs: f64,
    /// 10th-percentile span (nearest rank).
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

/// Execution knobs of the prediction engine — orthogonal to the
/// Monte-Carlo settings in [`SimConfig`], which define *what* is sampled;
/// these define *how fast* it is computed. Results are bit-identical for
/// every combination (the determinism contract of counter-based sample
/// seeds; see [`rb_core::mix_seed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Cap on worker threads when [`Simulator::predict_batch`] fans its
    /// missed plans out (only batches of at least [`PAR_MIN_WORK`] do);
    /// `0` means "use the host's available parallelism".
    pub threads: usize,
    /// Memoize predictions per (spec, plan) so repeated plans — warm
    /// starts, greedy revisits, repeated planning runs — hit memory
    /// instead of re-simulating.
    pub plan_cache: bool,
    /// Generation cap on the plan-prediction cache, in memoized entries
    /// across all specs. When an insert would push the cache past the
    /// cap, the cache is reset and re-grown; cached values are pure
    /// functions of their keys, so eviction never changes results. `0`
    /// disables the cap. Keeps long-running re-planning loops from
    /// growing memory without bound.
    pub plan_cache_cap: usize,
    /// Reuse the per-spec [`DagTemplate`] — fitted train-task
    /// distributions, the per-stage Monte-Carlo sample memo and the
    /// per-stage noise columns — across candidate plans, instead of
    /// rebuilding and re-sampling from scratch for every prediction.
    pub dag_templates: bool,
    /// Generation cap on each template's stage-sample memo, in entries
    /// (see [`crate::dag::DEFAULT_STAGE_MEMO_CAP`]); a generation reset
    /// also drops the template's noise columns. `0` disables.
    pub stage_memo_cap: usize,
}

/// Default [`EngineConfig::plan_cache_cap`], in memoized predictions.
pub const DEFAULT_PLAN_CACHE_CAP: usize = 32_768;

/// Work below which [`Simulator::predict_batch`] stays on the caller's
/// thread, in stage samples: distinct missed plans × stages × Monte-Carlo
/// samples. `rb_core::par::run_chunked` spawns fresh scoped threads per
/// call, and on a 2-vCPU x86-64 host a spawn plus join costs more than
/// predicting a controller-sized batch outright: fanning out every batch
/// made the `perf` benchmark's `adaptive_drift` workload about 4× slower
/// than one thread. Since a stage-sample miss reads a shared noise column
/// (see [`crate::dag`]), cold planning's largest batches (17 plans × 10
/// stages × 20 samples = 3400) no longer gain from the threads either:
/// fanned out, they made `plan_cold` slower and its throughput vary
/// about three times as much from run to run. At 8000 every batch of
/// `plan_cold` and `adaptive_drift` runs inline, with room for larger
/// ladders; only batches at several times the default sample count fan
/// out (table in DESIGN.md).
pub const PAR_MIN_WORK: usize = 8000;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            plan_cache: true,
            plan_cache_cap: DEFAULT_PLAN_CACHE_CAP,
            dag_templates: true,
            stage_memo_cap: crate::dag::DEFAULT_STAGE_MEMO_CAP,
        }
    }
}

impl EngineConfig {
    /// The sequential baseline: one thread, no prediction cache, no
    /// template or stage-sample reuse — every prediction re-fits and
    /// re-samples everything. Kept as the reference the planner's
    /// results are bit-compared against (`crates/planner/tests/beam.rs`).
    pub fn sequential_baseline() -> Self {
        EngineConfig {
            threads: 1,
            plan_cache: false,
            dag_templates: false,
            ..EngineConfig::default()
        }
    }

    /// Same engine with a fixed worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Memoized predictions, keyed by spec fingerprint then by the plan's
/// per-stage GPU vector. Two levels so lookups can borrow the plan as a
/// `&[u32]` without allocating a key (`Box<[u32]>: Borrow<[u32]>`); the
/// boxed-slice key also keeps inserts at exactly one allocation. The
/// Monte-Carlo configuration need not be part of the key because
/// [`Simulator::with_config`] detaches the caches.
type PredictionCache = HashMap<u64, HashMap<Box<[u32]>, Prediction>>;

/// Reusable bookkeeping for [`Simulator::predict_batch`]: the per-plan
/// hit table, miss list, and dedupe tables. Thread-local (like the
/// [`PredictArena`], which batch prediction also drives) so a planner
/// issuing batches in a loop stops paying the allocator after the first
/// call. Separate from the arena because a batch *contains* predictions:
/// the scratch is alive across the `predict_one` calls that borrow the
/// arena.
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
/// would exceed `cap` (generation eviction; `cap == 0` disables).
/// Returns the number of entries dropped.
fn evict_generation(cache: &mut PredictionCache, cap: usize, incoming: usize) -> usize {
    if cap == 0 {
        return 0;
    }
    let total: usize = cache.values().map(HashMap::len).sum();
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

/// Order-independent 64-bit fingerprint of a spec's stage ladder.
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
    /// Thread-local prediction arenas: a hit is a prediction whose
    /// working set already fit the thread's arena (steady state, zero
    /// allocation), a miss is one that grew it. Process-wide — arenas
    /// belong to threads, not simulators.
    pub arena: CacheStats,
    /// Plan-cache probes served through a borrowed `&[u32]` key — each
    /// one a key allocation the owned-key probe path used to pay for.
    /// Session-wide like [`SimCacheStats::plan`] (survives cache
    /// detachment by [`Simulator::with_config`]).
    pub probe_allocs_saved: u64,
}

/// The plan simulator: owns the fitted profiles and predicts JCT/cost for
/// candidate allocation plans.
///
/// Prediction is served by a parallel, memoized engine (see
/// [`EngineConfig`]): plans already predicted for a spec are returned from
/// an interior cache, stage samples come from a per-spec [`DagTemplate`]'s
/// memo, and [`Simulator::predict_batch`] fans large candidate batches out
/// across threads. Clones share the caches (they are behind [`Arc`]), which is
/// what the planner wants — warm-start descents re-visit each other's
/// plans constantly.
#[derive(Debug, Clone)]
pub struct Simulator {
    model: ModelProfile,
    cloud: CloudProfile,
    config: SimConfig,
    engine: EngineConfig,
    /// Per-spec DAG templates, keyed by spec fingerprint.
    templates: Arc<Mutex<HashMap<u64, Arc<DagTemplate>>>>,
    /// Memoized predictions.
    predictions: Arc<Mutex<PredictionCache>>,
    /// Plan-cache hit/miss/eviction tallies (passive; shared by clones
    /// for the lifetime of the planning session, surviving cache
    /// detachment so totals cover the whole run).
    plan_counters: Arc<CacheCounters>,
    /// Plan-cache probes that borrowed the plan's slice as the lookup key
    /// instead of allocating an owned one (passive; shared like
    /// `plan_counters`).
    probe_saved: Arc<AtomicU64>,
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
            engine: EngineConfig::default(),
            templates: Arc::new(Mutex::new(HashMap::new())),
            predictions: Arc::new(Mutex::new(HashMap::new())),
            plan_counters: Arc::new(CacheCounters::default()),
            probe_saved: Arc::new(AtomicU64::new(0)),
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
        let (stage_memo, noise) = self
            .templates
            .lock()
            .expect("template cache poisoned")
            .values()
            .fold(
                (CacheStats::default(), CacheStats::default()),
                |(memo, noise), t| (memo.merged(&t.memo_stats()), noise.merged(&t.noise_stats())),
            );
        SimCacheStats {
            plan: self.plan_counters.snapshot(),
            stage_memo,
            noise,
            arena: ARENA_COUNTERS.snapshot(),
            probe_allocs_saved: self.probe_saved.load(Ordering::Relaxed),
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
    /// predictions embed the old seed/sample-count/overhead.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self.templates = Arc::new(Mutex::new(HashMap::new()));
        self.predictions = Arc::new(Mutex::new(HashMap::new()));
        self
    }

    /// Overrides the engine configuration (threads, caching, template
    /// reuse). Cached values stay valid — engine settings change speed,
    /// never results.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
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
        low.predictions = Arc::new(Mutex::new(HashMap::new()));
        low
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

    /// The engine configuration.
    pub fn engine(&self) -> &EngineConfig {
        &self.engine
    }

    /// Number of predictions currently memoized. Public because the
    /// plan-cache tests in `crates/sim/tests/engine.rs` (generation cap,
    /// clone sharing, detachment) have no other view of the cache; no
    /// library code calls it.
    pub fn cached_predictions(&self) -> usize {
        self.predictions
            .lock()
            .expect("prediction cache poisoned")
            .values()
            .map(HashMap::len)
            .sum()
    }

    /// The cached template for `spec` under this simulator's profiles
    /// and sync overhead, built on first use. Public because the
    /// stage-memo cap test in `crates/sim/tests/engine.rs` reads the
    /// template's memo through it; prediction reaches it through the
    /// engine's template switch instead.
    pub fn template_for(&self, spec: &ExperimentSpec) -> Arc<DagTemplate> {
        let fp = spec_fingerprint(spec);
        let mut templates = self.templates.lock().expect("template cache poisoned");
        templates
            .entry(fp)
            .or_insert_with(|| {
                Arc::new(
                    DagTemplate::new(
                        spec,
                        &self.model,
                        &self.cloud,
                        self.config.sync_overhead_secs,
                    )
                    .with_memo_cap(self.engine.stage_memo_cap),
                )
            })
            .clone()
    }

    /// The template a prediction samples from: the per-spec cached one
    /// when the engine reuses templates, otherwise a fresh one (fresh
    /// train-task fits and stage samples — the cold baseline).
    fn template(&self, spec: &ExperimentSpec) -> Arc<DagTemplate> {
        if self.engine.dag_templates {
            self.template_for(spec)
        } else {
            Arc::new(DagTemplate::new(
                spec,
                &self.model,
                &self.cloud,
                self.config.sync_overhead_secs,
            ))
        }
    }

    /// Loads `plan` into `arena`: the instance ladder, one memoized
    /// sample column of `n` samples per stage and, under per-instance
    /// billing, the release groups. Prediction and
    /// [`Simulator::explain`] both start here, so they read the same
    /// samples. The plan must already be validated; returns the job's
    /// total provisioned instances.
    fn load_plan(
        &self,
        template: &DagTemplate,
        plan: &AllocationPlan,
        n: usize,
        arena: &mut PredictArena,
    ) -> u32 {
        if arena.ensure(template.num_stages(), n) {
            ARENA_COUNTERS.hits_add(1);
        } else {
            ARENA_COUNTERS.misses_add(1);
        }
        let pricing = &self.cloud.pricing;
        let total = template.instance_ladder_into(plan, &mut arena.needed, &mut arena.new_inst);
        for (s, &grown) in arena.new_inst.iter().enumerate() {
            arena.stage_arcs.push(template.stage_samples(
                s,
                plan.gpus(s),
                grown,
                self.config.seed,
                n as u32,
            ));
        }
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
                &mut arena.releases,
            );
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
    /// state. One prediction always runs on the calling thread: the
    /// composition over memoized stage samples is far cheaper than a
    /// thread spawn.
    ///
    /// All scratch lives in the calling thread's [`PredictArena`]
    /// (struct-of-arrays: `jct[i]`/`compute[i]` per sample), so once the
    /// arena has served a working set at least this large, a prediction
    /// performs **zero heap allocation** at any [`EngineConfig::threads`]
    /// — the invariant the `warm_path_alloc` test asserts.
    fn predict_with_template(
        &self,
        template: &DagTemplate,
        plan: &AllocationPlan,
    ) -> Result<Prediction> {
        template.validate(plan)?;
        let n_stages = template.num_stages();
        let n = self.config.samples.max(1) as usize;
        let pricing = &self.cloud.pricing;
        let per_instance = pricing.billing.is_per_instance();
        with_arena(|arena| {
            let total_instances = self.load_plan(template, plan, n, arena);
            let PredictArena {
                new_inst,
                stage_arcs,
                releases,
                hand,
                jct,
                compute,
                ..
            } = arena;
            let data_cost =
                pricing.ingress_charge(self.cloud.dataset_gb) * u64::from(total_instances);
            // The per-sample kernel, filling the arena's SoA output
            // arrays in index order. `hand` is scratch: every entry read
            // within a sample was written earlier in that same sample
            // (releases reference stages `prov ≤ s` that provisioned), so
            // reuse across samples cannot leak state.
            for i in 0..n {
                let mut now = 0.0_f64;
                let mut cc = Cost::ZERO;
                let mut next_release = 0;
                for s in 0..n_stages {
                    let ss = stage_arcs[s][i];
                    let stage_end = now + ss.dur;
                    if per_instance {
                        if new_inst[s] > 0 {
                            hand[s] = now + ss.handover;
                        }
                        while let Some(&(at, prov, count)) = releases.get(next_release) {
                            if at as usize != s {
                                break;
                            }
                            next_release += 1;
                            let held = SimDuration::from_secs_f64(
                                (stage_end - hand[prov as usize]).max(0.0),
                            );
                            cc += pricing.instance_charge(held) * u64::from(count);
                        }
                    } else {
                        cc += ss.fn_charge;
                    }
                    now = stage_end;
                }
                jct[i] = now;
                compute[i] = cc;
            }
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

    /// Predicts one plan without consulting or filling the prediction
    /// cache. With `dag_templates` off, a fresh template (and fresh stage
    /// samples) is built for every call — the cold baseline.
    fn predict_uncached(&self, spec: &ExperimentSpec, plan: &AllocationPlan) -> Result<Prediction> {
        self.predict_with_template(&self.template(spec), plan)
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
        if !self.engine.plan_cache {
            return self.predict_uncached(spec, plan);
        }
        let fp = spec_fingerprint(spec);
        // Borrowed-key probe: the lookup hashes the plan's own `&[u32]`
        // slice (`Box<[u32]>: Borrow<[u32]>`), so a hit — the planner's
        // steady state — allocates nothing.
        self.probe_saved.fetch_add(1, Ordering::Relaxed);
        if let Some(hit) = self
            .predictions
            .lock()
            .expect("prediction cache poisoned")
            .get(&fp)
            .and_then(|per_plan| per_plan.get(plan.as_slice()))
        {
            self.plan_counters.hits_add(1);
            return Ok(*hit);
        }
        self.plan_counters.misses_add(1);
        let pred = self.predict_uncached(spec, plan)?;
        let mut cache = self.predictions.lock().expect("prediction cache poisoned");
        let evicted = evict_generation(&mut cache, self.engine.plan_cache_cap, 1);
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
    /// plans are served from memory; the distinct misses fan out across
    /// up to [`EngineConfig::threads`] workers when they carry at least
    /// [`PAR_MIN_WORK`] stage samples, and run on the caller's thread
    /// otherwise. Results are bit-identical to calling
    /// [`Simulator::predict`] on each plan sequentially.
    ///
    /// An invalid plan yields an [`rb_core::RbError::InvalidPlan`] in its
    /// own slot without poisoning the rest of the batch.
    ///
    /// Bookkeeping (hit table, miss list, dedupe tables) lives in a
    /// thread-local scratch reused across calls, so a warm all-hit batch
    /// — the beam-search steady state — performs exactly one allocation:
    /// the returned vector.
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
        if self.engine.plan_cache {
            self.probe_saved
                .fetch_add(plans.len() as u64, Ordering::Relaxed);
            let cache = self.predictions.lock().expect("prediction cache poisoned");
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
        } else {
            sc.hits.resize(plans.len(), None);
            sc.miss_idx.extend(0..plans.len());
        }
        if self.engine.plan_cache {
            self.plan_counters
                .hits_add((plans.len() - sc.miss_idx.len()) as u64);
            self.plan_counters.misses_add(sc.miss_idx.len() as u64);
        }
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
        // instead of once per miss (the template cache is a lock + spec
        // hash away); the cold baseline builds a fresh one per plan.
        let template =
            (self.engine.dag_templates && !sc.compute_idx.is_empty()).then(|| self.template(spec));
        let predict_one = |plan: &AllocationPlan| match &template {
            Some(t) => self.predict_with_template(t, plan),
            None => self.predict_uncached(spec, plan),
        };
        // Fan out only when the batch outweighs a thread spawn; one
        // resolved worker runs the whole batch on this thread.
        let misses = sc.compute_idx.len();
        let work = misses * spec.num_stages() * self.config.samples.max(1) as usize;
        let threads = if work >= PAR_MIN_WORK {
            self.engine.threads
        } else {
            1
        };
        if self.recorder.enabled() && misses > 1 {
            // Record the chunking the fan-out below uses, so benches and
            // tests can assert the gate and the batch-size-aware
            // granularity without re-deriving them.
            let cp = plan_chunks(misses, threads);
            self.recorder
                .counter_add("sim", "batch_plans_computed", misses as u64);
            self.recorder
                .counter_add("sim", "batch_chunks", cp.num_chunks as u64);
            self.recorder
                .counter_add("sim", "batch_chunk_items", cp.chunk_size as u64);
        }
        let compute_idx = &sc.compute_idx;
        let computed: Vec<Result<Prediction>> = run_chunked(misses, threads, |range| {
            range.map(|k| predict_one(&plans[compute_idx[k]])).collect()
        });
        if self.engine.plan_cache {
            let mut cache = self.predictions.lock().expect("prediction cache poisoned");
            let incoming = computed.iter().filter(|r| r.is_ok()).count();
            let evicted = evict_generation(&mut cache, self.engine.plan_cache_cap, incoming);
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

    /// The sequential reference prediction: fresh template, one thread,
    /// no memoization of any kind. Public as a named test oracle:
    /// `crates/sim/tests/engine.rs` compares every engine configuration
    /// against it, and no library code calls it. Results are
    /// bit-identical to [`Simulator::predict`] by the determinism
    /// contract.
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
        let template = DagTemplate::new(
            spec,
            &self.model,
            &self.cloud,
            self.config.sync_overhead_secs,
        );
        self.predict_with_template(&template, plan)
    }

    /// Exports per-stage span quantiles for `plan` — the prediction
    /// envelope a closed-loop controller monitors drift against.
    ///
    /// Served from the same canonical stage-sample memo as
    /// [`Simulator::predict`] (identical keys, identical counter-derived
    /// streams), so the quantiles are exactly the distribution the
    /// plan's prediction was composed from, and computing them warms the
    /// cache a later re-planning pass will hit.
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
        let template = self.template(spec);
        template.validate(plan)?;
        let n = self.config.samples.max(1);
        let (_, new_inst, _) = template.instance_ladder(plan);
        Ok((0..template.num_stages())
            .map(|s| {
                let ss = template.stage_samples(s, plan.gpus(s), new_inst[s], self.config.seed, n);
                // The memo may hold more samples than this simulator's
                // fidelity; quantiles use exactly the first `n` (the
                // sample set is prefix-consistent per seed).
                let mut durs: Vec<f64> = ss.iter().take(n as usize).map(|x| x.dur).collect();
                durs.sort_by(f64::total_cmp);
                let q = |p: f64| {
                    let idx = (p * (durs.len() - 1) as f64).round() as usize;
                    durs[idx.min(durs.len() - 1)]
                };
                StageQuantiles {
                    stage: s,
                    samples: n,
                    mean_secs: durs.iter().sum::<f64>() / durs.len() as f64,
                    p10_secs: q(0.10),
                    p50_secs: q(0.50),
                    p90_secs: q(0.90),
                }
            })
            .collect())
    }

    /// Explains a plan stage by stage: mean duration and cost share per
    /// stage across the Monte-Carlo samples. The cost decomposition is
    /// informational (instances that span stages are attributed to the
    /// stage in which they are released), so stage costs sum to the
    /// compute bill but individual attributions are approximate.
    ///
    /// Reads the same memoized stage samples, instance ladder and
    /// release groups as [`Simulator::predict`]: per sample, a stage adds
    /// its span, and its cost is the instance charges of the groups it
    /// releases (per-instance billing) or its TRAIN tasks' charges
    /// (per-function billing).
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
        let template = self.template(spec);
        template.validate(plan)?;
        let n_stages = template.num_stages();
        let n = self.config.samples.max(1) as usize;
        let pricing = &self.cloud.pricing;
        let per_instance = pricing.billing.is_per_instance();
        with_arena(|arena| {
            self.load_plan(&template, plan, n, arena);
            let PredictArena {
                needed,
                new_inst,
                stage_arcs,
                releases,
                hand,
                dur_sum,
                cost_sum,
                ..
            } = arena;
            dur_sum.clear();
            dur_sum.resize(n_stages, 0.0);
            cost_sum.clear();
            cost_sum.resize(n_stages, 0.0);
            for i in 0..n {
                let mut now = 0.0_f64;
                let mut next_release = 0;
                for (s, column) in stage_arcs.iter().enumerate() {
                    let ss = column[i];
                    let stage_end = now + ss.dur;
                    dur_sum[s] += ss.dur;
                    if per_instance {
                        if new_inst[s] > 0 {
                            hand[s] = now + ss.handover;
                        }
                        while let Some(&(at, prov, count)) = releases.get(next_release) {
                            if at as usize != s {
                                break;
                            }
                            next_release += 1;
                            let held = SimDuration::from_secs_f64(
                                (stage_end - hand[prov as usize]).max(0.0),
                            );
                            cost_sum[s] +=
                                (pricing.instance_charge(held) * u64::from(count)).as_dollars();
                        }
                    } else {
                        cost_sum[s] += ss.fn_charge.as_dollars();
                    }
                    now = stage_end;
                }
            }
            Ok((0..n_stages)
                .map(|s| {
                    let (trials, _) = spec.get_stage(s).expect("stage in range");
                    StageBreakdown {
                        stage: s,
                        trials,
                        gpus_per_trial: plan.gpus_per_trial(s, spec),
                        instances: needed[s],
                        duration: SimDuration::from_secs_f64(dur_sum[s] / n as f64),
                        cost: Cost::from_dollars(cost_sum[s] / n as f64),
                    }
                })
                .collect())
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
            Arc::new(IdealScaling::new(4.0, 512)),
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
            sync_overhead_secs: 1.0,
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
                sync_overhead_secs: 1.0,
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
        // With ideal scaling and no overheads, GPU-seconds of work are
        // conserved; the static plan is not wasteful (§1's converse case).
        let cloud = CloudProfile::new(CloudPricing::on_demand(P3_2XLARGE))
            .with_provision_delay(SimDuration::from_secs(0))
            .with_init_latency(SimDuration::from_secs(0));
        let s = sim(0.0, cloud).with_config(SimConfig {
            samples: 1,
            seed: 0,
            sync_overhead_secs: 0.0,
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
        // One 5 s stage on one instance still pays for 60 s.
        let cloud = CloudProfile::new(CloudPricing::on_demand(P3_2XLARGE))
            .with_provision_delay(SimDuration::from_secs(0))
            .with_init_latency(SimDuration::from_secs(0));
        let model =
            ModelProfile::from_scaling("tiny", Arc::new(IdealScaling::new(5.0, 1)), 1, 0.0, 0.0);
        let s = Simulator::new(model, cloud).with_config(SimConfig {
            samples: 1,
            seed: 0,
            sync_overhead_secs: 0.0,
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
