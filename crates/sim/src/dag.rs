//! The execution model of one stage (§4.2).
//!
//! The paper's simulator builds a DAG of tasks from the specification
//! and the allocation plan, stage by stage. A stage that needs more
//! instances than it holds starts with a SCALE task (the provider
//! hands over the new instances when the slowest one arrives) and one
//! INIT task per new instance. Then come the stage's TRAIN tasks: all in
//! parallel when every trial gets its GPUs, otherwise in waves, each
//! queued trial starting when an earlier slot finishes. A SYNC barrier
//! over every TRAIN task ends the stage. Shrinking is a low-latency,
//! zero-cost event and has no task.
//!
//! Every stage therefore starts at the previous stage's barrier, so one
//! sampled execution of a plan is the concatenation of independently
//! sampled stages. [`DagTemplate`] samples a stage's tasks in that order
//! from the stage's own counter-derived stream and memoizes the
//! samples per stage configuration; the simulator composes them. The
//! node-by-node walk of Algorithm 1, which the composition reproduces,
//! is kept as the test oracle in `crates/sim/tests/algorithm1.rs`.
//!
//! A stage's stream does not depend on its allocation. Its TRAIN draws
//! sit behind the SCALE and INIT draws of the instances it provisions,
//! so their standard normals depend only on `(stage, seed, sample)` and
//! on how many draws come first. The template draws them once per such
//! key into a noise column; every allocation of the stage then reads
//! its TRAIN durations off that column instead of re-running Box–Muller.
//! The column also keeps each sample's largest normal: a stage that runs
//! every trial at once under per-instance billing needs only that one
//! value per sample, because a trial's finish time is monotone in its
//! normal (`DagTemplate::sample_column` states the argument).

use crate::fxhash::FxHashMap;
use crate::plan::AllocationPlan;
use rb_cloud::CloudPricing;
use rb_core::{Cost, Distribution, Prng, RbError, Result, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_profile::{CloudProfile, ModelProfile};
use rb_scaling::PlacementQuality;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// The per-spec half of the execution model: everything about a stage's
/// tasks that is the same for every candidate plan.
///
/// It holds the stage ladder and the provider latency distributions,
/// and fits train-task distributions from the scaling model on demand.
/// The planner evaluates hundreds of plans against one spec, and a
/// greedy step changes a single stage's allocation, so the template is
/// built **once per spec** and each plan only reads its instance ladder
/// (`DagTemplate::instance_ladder_into`) and its stages' memoized samples.
///
/// Fitted train-task distributions are memoized per `(stage, gpus)` pair:
/// the scaling-model evaluation behind
/// [`ModelProfile::train_task_dist`] is by far the most expensive part of
/// fitting a stage and candidate plans revisit the same few allocations
/// constantly.
#[derive(Debug)]
pub struct DagTemplate {
    /// Thread-unique id (`NEXT_TEMPLATE_ID`): the prediction arena
    /// resumes a plan only on the template it loaded it from.
    id: u64,
    /// `(trials, units)` per stage, in order.
    stages: Vec<(u32, u64)>,
    /// GPUs per instance on the target cloud (≥ 1).
    gpg: u32,
    /// Provider queuing-delay distribution (SCALE).
    provision: Distribution,
    /// Instance initialization distribution (INIT).
    init: Distribution,
    /// Whether SCALE or INIT draws from the stream (either is not
    /// `Constant`), which puts those draws ahead of the TRAIN draws.
    prefix_draws: bool,
    /// The target cloud's prices; per-function billing charges each
    /// TRAIN task as it is sampled.
    pricing: CloudPricing,
    /// The model profile used to fit train-task distributions on demand.
    model: ModelProfile,
    /// Memoized train-task draws keyed by `(stage, gpus_per_trial)`.
    train_dists: RefCell<FxHashMap<(usize, u32), TrainDraw>>,
    /// Memoized per-stage execution samples keyed by the stage's canonical
    /// sampling configuration `(stage, gpus_per_trial, parallel_slots,
    /// new_instances, seed)` — see `DagTemplate::stage_samples`.
    stage_memo: RefCell<FxHashMap<StageMemoKey, Rc<Vec<StageSample>>>>,
    /// Memoized noise columns keyed by `(stage, seed, prefix)` — see
    /// `DagTemplate::stage_noise`. Cleared with `stage_memo`.
    noise_memo: RefCell<FxHashMap<NoiseKey, Rc<StageNoise>>>,
    /// Generation cap on `stage_memo`: when an insert would push the memo
    /// past this many entries the whole memo is dropped and re-grown (a
    /// new generation), and the noise memo with it. Entries are pure
    /// functions of their key, so eviction can never change results —
    /// only make them slower to recompute. `0` disables the cap.
    memo_cap: usize,
    /// Hit/miss/eviction tallies for `stage_memo` (passive; see
    /// [`crate::counters::CacheCounters`]).
    counters: crate::counters::CacheCounters,
    /// Hit/miss/eviction tallies for `noise_memo` (passive).
    noise_counters: crate::counters::CacheCounters,
}

/// Stage-memo key: `(stage, gpus_per_trial, parallel_slots,
/// new_instances, seed)`.
type StageMemoKey = (usize, u32, u32, u32, u64);

/// A stage's sampling key within one plan: `(gpus_per_trial,
/// parallel_slots, new_instances)` (`DagTemplate::stage_key`). Two plans
/// whose stage has the same key read the same sample column.
pub(crate) type StageKey = (u32, u32, u32);

/// Noise-memo key: `(stage, seed, prefix)`, `prefix` the number of
/// instances whose SCALE and INIT draws precede the stage's TRAIN draws
/// (see `DagTemplate::stage_noise`).
type NoiseKey = (usize, u64, u32);

thread_local! {
    /// The next [`DagTemplate`] id on this thread. An id rather than the
    /// template's address, which a later template can reuse once this
    /// one is freed. Per thread is enough: templates are `!Send`, so a
    /// template and the thread-local prediction arena that compares its
    /// id always share a thread.
    static NEXT_TEMPLATE_ID: Cell<u64> = const { Cell::new(0) };
}

/// Latency of the end-of-stage evaluation barrier (the SYNC task), in
/// seconds. One value for the model and the run: the simulator adds it
/// to every sampled stage span, and the executor (`rb_exec`) waits it out
/// at every barrier, so a predicted span and an executed one cover the
/// same interval.
pub const SYNC_OVERHEAD_SECS: f64 = 1.0;

/// Default [`DagTemplate`] stage-sample memo capacity, in entries. Sized
/// for planning workloads (a greedy descent touches a few hundred stage
/// configurations); long-running re-planning loops stay bounded.
pub const DEFAULT_STAGE_MEMO_CAP: usize = 4096;

/// One sampled execution of a single stage, relative to the stage's start
/// (the previous stage's barrier). Each stage draws from its own stream,
/// `Prng::for_stream(sample_seed, stage)`, so a stage's sample depends
/// only on the stage's own configuration — not on the rest of the plan —
/// and these values can be memoized and shared across every candidate
/// plan that configures the stage the same way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StageSample {
    /// Wall-clock span of the stage (scale-up through barrier).
    pub dur: f64,
    /// When newly provisioned instances are handed over, relative to the
    /// stage start (0 when the stage provisions nothing).
    pub handover: f64,
    /// The stage's TRAIN tasks billed under per-function pricing (zero
    /// under per-instance pricing, which never reads it).
    pub fn_charge: Cost,
}

/// A TRAIN task's latency model. [`ModelProfile::train_task_dist`] fits a
/// `Normal` when the profile has noise and a `Constant` when it has none,
/// so a TRAIN draw is either fixed or one standard normal of the stage's
/// stream; [`TrainDraw::of`] rejects anything else loudly.
#[derive(Debug, Clone, Copy)]
enum TrainDraw {
    /// Draws nothing from the stream.
    Fixed(f64),
    /// [`Distribution::truncated_normal`] of one standard normal.
    Normal { mean: f64, std: f64, floor: f64 },
}

impl TrainDraw {
    /// # Panics
    ///
    /// Panics on any distribution other than `Normal` or `Constant`: the
    /// noise column holds exactly one standard normal per TRAIN task.
    fn of(dist: &Distribution) -> TrainDraw {
        match *dist {
            Distribution::Constant(v) => TrainDraw::Fixed(v),
            Distribution::Normal { mean, std, floor } => TrainDraw::Normal { mean, std, floor },
            ref other => panic!("train-task latency must be Normal or Constant, got {other:?}"),
        }
    }
}

/// The allocation-independent draws of one stage for the first `rows`
/// samples of a seed, sample-major.
#[derive(Debug)]
struct StageNoise {
    /// Samples held.
    rows: usize,
    /// `(ready, handover)` per sample when SCALE/INIT draws come first
    /// (`prefix > 0`); empty otherwise.
    starts: Vec<(f64, f64)>,
    /// The TRAIN standard normals: row `i` holds sample `i`'s `trials`
    /// draws in slot order. Empty when drawn for a noiseless TRAIN
    /// latency.
    z: Vec<f64>,
    /// The largest of row `i`'s normals, per sample (empty with `z`):
    /// all a fully parallel stage needs (`DagTemplate::sample_column`).
    z_max: Vec<f64>,
}

/// The trial layout of `alloc` GPUs over `trials` trials: GPUs per trial
/// and parallel slots. Fewer GPUs than trials run single-GPU waves.
fn layout(alloc: u32, trials: u32) -> (u32, u32) {
    if alloc >= trials {
        (alloc / trials, trials)
    } else {
        (1, alloc)
    }
}

impl DagTemplate {
    /// Captures everything about `(spec, model, cloud)` that is
    /// independent of the allocation plan.
    pub fn new(spec: &ExperimentSpec, model: &ModelProfile, cloud: &CloudProfile) -> DagTemplate {
        let constant = |d: &Distribution| matches!(d, Distribution::Constant(_));
        DagTemplate {
            id: NEXT_TEMPLATE_ID.with(|next| next.replace(next.get() + 1)),
            stages: spec.stages().map(|s| (s.num_trials, s.iters)).collect(),
            gpg: cloud.gpus_per_instance().max(1),
            provision: cloud.provision_delay.clone(),
            init: cloud.init_latency.clone(),
            prefix_draws: !(constant(&cloud.provision_delay) && constant(&cloud.init_latency)),
            pricing: cloud.pricing.clone(),
            model: model.clone(),
            train_dists: RefCell::default(),
            stage_memo: RefCell::default(),
            noise_memo: RefCell::default(),
            memo_cap: DEFAULT_STAGE_MEMO_CAP,
            counters: crate::counters::CacheCounters::default(),
            noise_counters: crate::counters::CacheCounters::default(),
        }
    }

    /// Overrides the stage-sample memo capacity (`0` = unbounded).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_memo_cap(mut self, cap: usize) -> DagTemplate {
        self.memo_cap = cap;
        self
    }

    /// Number of stages in the underlying spec.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// This template's thread-unique id.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Counts `n` stage loads served by a column the caller already held
    /// from this memo as hits: with no eviction since (the caller checks
    /// `memo_stats().evictions`), a lookup would have returned it.
    pub(crate) fn memo_reused(&self, n: u64) {
        self.counters.hits_add(n);
    }

    /// The memoized train-task draw for `stage` at `gpus` per trial.
    fn train_draw(&self, stage: usize, gpus: u32) -> TrainDraw {
        *self
            .train_dists
            .borrow_mut()
            .entry((stage, gpus))
            .or_insert_with(|| {
                let units = self.stages[stage].1;
                TrainDraw::of(
                    &self
                        .model
                        .train_task_dist(units, gpus, PlacementQuality::Packed),
                )
            })
    }

    /// Validates `plan` against the cached stage ladder, mirroring
    /// [`AllocationPlan::validate`] (same error messages).
    pub(crate) fn validate(&self, plan: &AllocationPlan) -> Result<()> {
        if plan.num_stages() != self.stages.len() {
            return Err(RbError::InvalidPlan(format!(
                "plan has {} stages, spec has {}",
                plan.num_stages(),
                self.stages.len()
            )));
        }
        for i in 0..plan.num_stages() {
            if plan.gpus(i) == 0 {
                return Err(RbError::InvalidPlan(format!(
                    "stage {i} allocates zero GPUs"
                )));
            }
        }
        Ok(())
    }

    /// The plan's per-stage instance ladder, written into caller-owned
    /// buffers: instances held (`needed`) and newly provisioned
    /// (`new_inst`) at each stage. Buffers are cleared first; returns the
    /// job's total provisioned instances. The prediction arena reuses its
    /// buffers across plans, so the ladder must not allocate. The plan
    /// must already be validated.
    pub(crate) fn instance_ladder_into(
        &self,
        plan: &AllocationPlan,
        needed: &mut Vec<u32>,
        new_inst: &mut Vec<u32>,
    ) -> u32 {
        needed.clear();
        new_inst.clear();
        let mut current = 0u32;
        let mut total = 0u32;
        for (s, &(trials, _)) in self.stages.iter().enumerate() {
            let need = AllocationPlan::effective_instances(plan.gpus(s), trials, self.gpg);
            let k = need.saturating_sub(current);
            needed.push(need);
            new_inst.push(k);
            total += k;
            current = need;
        }
        total
    }

    /// SCALE then INIT for `k` new instances, drawn from `rng` in
    /// construction order: `(ready, handover)` relative to the stage
    /// start. The provider hands the instances over when the slowest
    /// arrives; TRAIN waits until every instance is initialized.
    fn scale_and_init(&self, k: u32, rng: &mut Prng) -> (f64, f64) {
        let handover = (0..k)
            .map(|_| self.provision.sample(rng))
            .fold(0.0_f64, f64::max);
        let mut ready = 0.0_f64;
        for _ in 0..k {
            ready = ready.max(handover + self.init.sample(rng).max(0.0));
        }
        (ready, handover)
    }

    /// The noise column of `stage` for the first `samples` samples of
    /// `seed`: per sample, the stage's `trials` TRAIN standard normals
    /// (when `normals`; a noiseless TRAIN latency reads none) and, when
    /// `prefix > 0`, the `(ready, handover)` of the `prefix` SCALE and
    /// INIT draws that precede them in `Prng::for_stream(sample_seed,
    /// stage)`.
    ///
    /// `prefix` is 0 when no instance is provisioned or when SCALE and
    /// INIT are both `Constant` (they draw nothing), so then every
    /// allocation of the stage shares one column; otherwise it is the
    /// stage's `new_instances`. An entry serves any request for at most
    /// as many samples as it holds (sample sets are prefix-consistent).
    fn stage_noise(
        &self,
        stage: usize,
        seed: u64,
        prefix: u32,
        samples: usize,
        normals: bool,
    ) -> Rc<StageNoise> {
        let key = (stage, seed, prefix);
        if let Some(column) = self.noise_memo.borrow().get(&key) {
            if column.rows >= samples && (!normals || !column.z.is_empty()) {
                self.noise_counters.hits_add(1);
                return column.clone();
            }
        }
        self.noise_counters.misses_add(1);
        let trials = self.stages[stage].0 as usize;
        let mut starts = Vec::with_capacity(if prefix > 0 { samples } else { 0 });
        let mut z = Vec::with_capacity(if normals { samples * trials } else { 0 });
        let mut z_max = Vec::with_capacity(if normals { samples } else { 0 });
        for i in 0..samples {
            let sample_seed = Prng::for_stream(seed, i as u64).next_u64();
            let mut rng = Prng::for_stream(sample_seed, stage as u64);
            if prefix > 0 {
                starts.push(self.scale_and_init(prefix, &mut rng));
            }
            if normals {
                z.extend((0..trials).map(|_| rng.standard_normal()));
                z_max.push(
                    z[i * trials..]
                        .iter()
                        .copied()
                        .fold(f64::NEG_INFINITY, f64::max),
                );
            }
        }
        let column = Rc::new(StageNoise {
            rows: samples,
            starts,
            z,
            z_max,
        });
        self.noise_memo.borrow_mut().insert(key, column.clone());
        column
    }

    /// Draws `samples` execution samples of stage `stage` under `alloc`
    /// GPUs, provisioning `new_instances` fresh instances, relative to the
    /// stage's start; sample `i` is seeded exactly like sample `i` of a
    /// full prediction.
    ///
    /// The stage's tasks draw from `Prng::for_stream(sample_seed, stage)`
    /// in construction order — SCALE (the maximum of `new_instances`
    /// provider delays), one INIT per new instance, the TRAIN tasks by
    /// slot, then SYNC (a constant) — and the relative timeline follows
    /// the task dependencies: TRAIN waits for every INIT, a queued trial
    /// for the slot it chains behind, SYNC for every TRAIN. Stages are
    /// separated by full barriers, so a plan's sampled execution is
    /// exactly the composition of its stage samples.
    ///
    /// The draws come from the stage's noise column
    /// (`DagTemplate::stage_noise`): a TRAIN duration is
    /// [`Distribution::truncated_normal`] of the column's `z`, the very
    /// value `Distribution::sample` would compute from the stream, so the
    /// column changes how often Box–Muller runs, never a result.
    ///
    /// A stage that runs every trial at once under per-instance billing
    /// reads one value per sample when `one_draw` is set: its span is
    /// the TRAIN duration at the sample's largest normal (`z_max`). Every
    /// step from `z` to a trial's finish — `std·z` with `std ≥ 0`,
    /// `+ mean`, `.max(floor)`, `.max(0)`, `ready +` — is monotone
    /// non-decreasing under round-to-nearest, so the largest finish is
    /// the finish at `z_max`, bit for bit. Waves chain trials, and
    /// per-function billing charges each one, so both keep the wave
    /// loop; `one_draw == false` forces it (the unit test's reference).
    ///
    /// The wave loop keeps one running finish per slot and adds each
    /// wave's durations into it, `finish[k] += d[w·P + k]`: slot `k`'s
    /// chain sums in trial order, as a per-trial walk would. A TRAIN
    /// duration is `≥ 0`, so a chain never decreases and its end is its
    /// largest finish; the barrier is the largest chain end. Charges are
    /// integer `Cost`, whose sum does not depend on the order.
    fn sample_column(
        &self,
        stage: usize,
        (gpt, parallel_slots, new_instances): StageKey,
        seed: u64,
        samples: usize,
        one_draw: bool,
    ) -> Vec<StageSample> {
        let trials = self.stages[stage].0 as usize;
        let parallel_slots = parallel_slots as usize;
        let train = self.train_draw(stage, gpt);
        let pricing = &self.pricing;
        let per_function = !pricing.billing.is_per_instance();
        let prefix = if self.prefix_draws { new_instances } else { 0 };
        let normals = matches!(train, TrainDraw::Normal { .. });
        let one_draw = one_draw
            && parallel_slots >= trials
            && !per_function
            && match train {
                TrainDraw::Fixed(_) => true,
                TrainDraw::Normal { std, .. } => std >= 0.0,
            };
        let noise = (prefix > 0 || normals)
            .then(|| self.stage_noise(stage, seed, prefix, samples, normals));
        // Without prefix draws SCALE and INIT are constants (or absent),
        // so one evaluation serves every sample; the generator is never
        // read.
        let fixed_start = if prefix == 0 {
            self.scale_and_init(new_instances, &mut Prng::seed_from_u64(0))
        } else {
            (0.0, 0.0)
        };
        let duration = |z: f64| {
            match train {
                TrainDraw::Fixed(v) => v,
                TrainDraw::Normal { mean, std, floor } => {
                    Distribution::truncated_normal(mean, std, floor, z)
                }
            }
            .max(0.0)
        };
        // Per-function billing prices every TRAIN task of the column at
        // one GPU-share rate.
        let fn_hourly = pricing.gpu_hourly() * u64::from(gpt);
        let mut chains: Vec<f64> = Vec::with_capacity(if one_draw {
            0
        } else {
            trials.min(parallel_slots)
        });
        let sample = |i: usize| {
            let (ready, handover) = match &noise {
                Some(column) if prefix > 0 => column.starts[i],
                _ => fixed_start,
            };
            if one_draw {
                let z = match &noise {
                    Some(column) if normals => column.z_max[i],
                    _ => 0.0,
                };
                return StageSample {
                    dur: 0.0_f64.max(ready + duration(z)) + SYNC_OVERHEAD_SECS,
                    handover,
                    fn_charge: Cost::ZERO,
                };
            }
            let z = match &noise {
                Some(column) if normals => &column.z[i * trials..][..trials],
                _ => &[][..],
            };
            chains.clear();
            chains.resize(trials.min(parallel_slots), ready);
            let mut fn_charge = Cost::ZERO;
            let mut first = 0;
            while first < trials {
                let wave = &mut chains[..(trials - first).min(parallel_slots)];
                for (k, finish) in wave.iter_mut().enumerate() {
                    let d = duration(if normals { z[first + k] } else { 0.0 });
                    if per_function {
                        fn_charge += fn_hourly.per_hour_for(SimDuration::from_secs_f64(d));
                    }
                    *finish += d;
                }
                first += parallel_slots;
            }
            // A chain's end is its largest finish (`d ≥ 0`).
            let sync_start = chains.iter().copied().fold(0.0_f64, f64::max);
            StageSample {
                dur: sync_start + SYNC_OVERHEAD_SECS,
                handover,
                fn_charge,
            }
        };
        (0..samples).map(sample).collect()
    }

    /// The sampling key of `stage` on `alloc` GPUs when it provisions
    /// `new_instances` instances: the allocation enters a stage's
    /// samples only through its trial layout.
    pub(crate) fn stage_key(&self, stage: usize, alloc: u32, new_instances: u32) -> StageKey {
        let (gpt, parallel_slots) = layout(alloc, self.stages[stage].0);
        (gpt, parallel_slots, new_instances)
    }

    /// The memoized Monte-Carlo samples of one stage configuration:
    /// `samples` draws of the stage (`DagTemplate::sample_column`), sample
    /// `i` seeded exactly like sample `i` of a full prediction. The
    /// planner evaluates hundreds of candidate plans that differ in one
    /// stage — every stage they share comes out of this memo instead of
    /// being re-simulated.
    ///
    /// The key is the stage's *canonical* sampling configuration: the
    /// allocation enters only through `(gpus_per_trial, parallel_slots)`,
    /// so allocations that quantize to the same trial layout share one
    /// entry; and a stage that does not grow the cluster
    /// (`new_instances == 0` — every stage of a shrinking SHA ladder but
    /// the first) samples identically whatever the prior cluster size, so
    /// plans with different early stages still share it.
    pub(crate) fn stage_samples(
        &self,
        stage: usize,
        stage_key: StageKey,
        seed: u64,
        samples: u32,
    ) -> Rc<Vec<StageSample>> {
        let (gpt, parallel_slots, new_instances) = stage_key;
        let key = (stage, gpt, parallel_slots, new_instances, seed);
        if let Some(v) = self.stage_memo.borrow().get(&key) {
            if v.len() >= samples as usize {
                self.counters.hits_add(1);
                return v.clone();
            }
        }
        self.counters.misses_add(1);
        // No memo borrow is held here: the column reads the noise and
        // train-draw memos.
        let v = Rc::new(self.sample_column(stage, stage_key, seed, samples as usize, true));
        let mut memo = self.stage_memo.borrow_mut();
        if self.memo_cap > 0 && memo.len() >= self.memo_cap && !memo.contains_key(&key) {
            // Generation eviction: drop the whole memo rather than track
            // recency. Outstanding `Rc`s handed to callers stay valid.
            // The noise columns served this generation's misses and go
            // with it, which bounds them by the same cap.
            self.counters.evictions_add(memo.len() as u64);
            memo.clear();
            let mut noise = self.noise_memo.borrow_mut();
            self.noise_counters.evictions_add(noise.len() as u64);
            noise.clear();
        }
        memo.insert(key, v.clone());
        v
    }

    /// Number of stage configurations currently memoized, for the
    /// memo-cap test in `simulate.rs`, which has no other view of the
    /// memo's size.
    #[cfg(test)]
    pub(crate) fn cached_stage_configs(&self) -> usize {
        self.stage_memo.borrow().len()
    }

    /// Hit/miss/eviction totals of the stage-sample memo since this
    /// template was built.
    pub fn memo_stats(&self) -> rb_obs::CacheStats {
        self.counters.snapshot()
    }

    /// Hit/miss/eviction totals of the noise-column memo since this
    /// template was built.
    pub(crate) fn noise_stats(&self) -> rb_obs::CacheStats {
        self.noise_counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use rb_cloud::catalog::{P3_2XLARGE, P3_8XLARGE};
    use rb_scaling::IdealScaling;
    use std::sync::Arc;

    fn model() -> ModelProfile {
        ModelProfile::from_scaling("ideal", Arc::new(IdealScaling::new(4.0, 512)), 1, 0.0, 0.0)
    }

    fn cloud_1gpu() -> CloudProfile {
        CloudProfile::new(CloudPricing::on_demand(P3_2XLARGE))
            .with_provision_delay(SimDuration::from_secs(10))
            .with_init_latency(SimDuration::from_secs(20))
    }

    fn spec() -> ExperimentSpec {
        ExperimentSpec::from_stages(&[(4, 10), (2, 10), (1, 10)]).unwrap()
    }

    fn template(cloud: &CloudProfile) -> DagTemplate {
        DagTemplate::new(&spec(), &model(), cloud)
    }

    /// Sample 0 of one stage configuration at Monte-Carlo seed `seed`.
    fn sample_stage(
        t: &DagTemplate,
        stage: usize,
        alloc: u32,
        new_instances: u32,
        seed: u64,
    ) -> StageSample {
        t.stage_samples(stage, t.stage_key(stage, alloc, new_instances), seed, 1)[0]
    }

    /// Stage `stage`'s span when it runs on `alloc` GPUs and provisions
    /// `new_instances` instances (deterministic profiles: any seed).
    fn span(t: &DagTemplate, stage: usize, alloc: u32, new_instances: u32) -> f64 {
        sample_stage(t, stage, alloc, new_instances, 1).dur
    }

    #[test]
    fn node_census_for_shrinking_plan() {
        // Stage 0 provisions all four instances (one SCALE, four INITs);
        // the shrinking stages provision none.
        let t = template(&cloud_1gpu());
        let (mut needed, mut new_inst) = (Vec::new(), Vec::new());
        let total = t.instance_ladder_into(
            &AllocationPlan::new(vec![4, 2, 1]),
            &mut needed,
            &mut new_inst,
        );
        assert_eq!(needed, vec![4, 2, 1]);
        assert_eq!(new_inst, vec![4, 0, 0]);
        assert_eq!(total, 4);
        // SCALE 10 + INIT 20 + TRAIN 40 + SYNC 1, then TRAIN + SYNC only.
        assert_eq!(span(&t, 0, 4, 4), 71.0);
        assert_eq!(span(&t, 1, 2, 0), 41.0);
        assert_eq!(span(&t, 2, 1, 0), 41.0);
    }

    #[test]
    fn growth_adds_scale_and_init_nodes_mid_job() {
        // Growing plan 1 → 2 → 4 GPUs over 4 → 2 → 1 trials.
        let t = template(&cloud_1gpu());
        let (mut needed, mut new_inst) = (Vec::new(), Vec::new());
        let total = t.instance_ladder_into(
            &AllocationPlan::new(vec![1, 2, 4]),
            &mut needed,
            &mut new_inst,
        );
        assert_eq!(needed, vec![1, 2, 4]);
        assert_eq!(new_inst, vec![1, 1, 2]);
        assert_eq!(total, 4);
        // A stage that grows pays SCALE + INIT after the previous
        // barrier, and hands its instances over when SCALE finishes.
        let grown = sample_stage(&t, 1, 2, 1, 1);
        assert_eq!(grown.handover, 10.0);
        assert_eq!(grown.dur, 10.0 + 20.0 + 40.0 + 1.0);
    }

    #[test]
    fn wave_scheduling_builds_serial_chains() {
        // 4 trials on 1 GPU: the trials run one after another.
        let t = template(&cloud_1gpu());
        assert_eq!(span(&t, 0, 1, 1), 10.0 + 20.0 + 4.0 * 40.0 + 1.0);
        // 2 trials on 2 GPUs run side by side.
        assert_eq!(span(&t, 1, 2, 0), 41.0);
    }

    #[test]
    fn multi_gpu_instances_change_instance_math() {
        // p3.8xlarge (4 GPUs): 8 GPUs for 4 trials = 2 instances.
        let pricing = CloudPricing::on_demand(P3_8XLARGE).with_per_function_billing();
        let cloud = CloudProfile::new(pricing.clone());
        let t = template(&cloud);
        let plan = AllocationPlan::new(vec![8, 4, 2]);
        let (mut needed, mut new_inst) = (Vec::new(), Vec::new());
        t.instance_ladder_into(&plan, &mut needed, &mut new_inst);
        assert_eq!(needed, vec![2, 1, 1]);
        assert_eq!(new_inst, vec![2, 0, 0]);
        // Each trial gets 2 GPUs in stage 0, and is billed for them.
        assert_eq!(plan.gpus_per_trial(0, &spec()), 2);
        let sample = sample_stage(&t, 0, 8, 2, 1);
        assert_eq!(
            sample.fn_charge,
            pricing.function_charge(2, SimDuration::from_secs(20)) * 4
        );
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let sim = Simulator::new(model(), cloud_1gpu());
        let err = |gpus: Vec<u32>| {
            sim.predict(&spec(), &AllocationPlan::new(gpus))
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            err(vec![4, 2]),
            "invalid allocation plan: plan has 2 stages, spec has 3"
        );
        assert_eq!(
            err(vec![4, 0, 1]),
            "invalid allocation plan: stage 1 allocates zero GPUs"
        );
    }

    #[test]
    fn uneven_allocation_runs_waves_with_idle_remainder() {
        // 3 GPUs for 4 trials: 3 parallel slots, the 4th chains behind
        // slot 0, and the fourth GPU-slot idles during the second wave.
        let t = template(&cloud_1gpu());
        assert_eq!(span(&t, 0, 3, 3), 10.0 + 20.0 + 2.0 * 40.0 + 1.0);
        let pricing = CloudPricing::on_demand(P3_2XLARGE).with_per_function_billing();
        let t = template(&CloudProfile {
            pricing: pricing.clone(),
            ..cloud_1gpu()
        });
        assert_eq!(
            sample_stage(&t, 0, 3, 3, 1).fn_charge,
            pricing.function_charge(1, SimDuration::from_secs(40)) * 4
        );
    }

    #[test]
    fn maxof_latency_sampling_dominates_single_draw() {
        // SCALE hands over when the slowest requested instance arrives:
        // the first provider delay of a stream is shared, so eight
        // requests are never handed over before one.
        let cloud =
            cloud_1gpu().with_provision_delay_dist(Distribution::lognormal_from_moments(10.0, 5.0));
        let t = template(&cloud);
        let (mut one, mut eight) = (0.0, 0.0);
        for seed in 0..500 {
            let single = sample_stage(&t, 0, 4, 1, seed).handover;
            let max8 = sample_stage(&t, 0, 4, 8, seed).handover;
            assert!(max8 >= single, "seed {seed}: {max8} < {single}");
            one += single;
            eight += max8;
        }
        assert!(eight > one, "max of 8 draws should exceed one draw");
    }

    /// A fully parallel stage under per-instance billing reads its span
    /// off the sample's largest TRAIN normal; the per-trial loop must
    /// give the same samples, bit for bit, in every field.
    #[test]
    fn one_draw_parallel_stage_equals_the_per_trial_loop() {
        use rb_scaling::{zoo::RESNET50, AnalyticScaling};
        let spec = ExperimentSpec::from_stages(&[(16, 4), (8, 8), (3, 16), (1, 64)]).unwrap();
        let lognormal = CloudProfile::new(CloudPricing::on_demand(P3_2XLARGE))
            .with_provision_delay_dist(Distribution::lognormal_from_moments(30.0, 15.0))
            .with_init_latency_dist(Distribution::lognormal_from_moments(20.0, 8.0));
        let mut compared = 0;
        for noise in [0.0, 0.3, 0.7] {
            for (ty, gpg) in [(P3_2XLARGE, 1), (P3_8XLARGE, 4)] {
                let constant = CloudProfile::new(CloudPricing::on_demand(ty.clone()))
                    .with_provision_delay(SimDuration::from_secs(30))
                    .with_init_latency(SimDuration::from_secs(20));
                let scaled = CloudProfile {
                    pricing: CloudPricing::on_demand(ty),
                    ..lognormal.clone()
                };
                for cloud in [constant, scaled] {
                    let scaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, gpg));
                    let model = ModelProfile::from_scaling("rn50", scaling, 10, 2.0, noise);
                    let t = DagTemplate::new(&spec, &model, &cloud);
                    for samples in [8, 64] {
                        for (stage, s) in spec.stages().enumerate() {
                            let trials = s.num_trials;
                            for alloc in [trials, 2 * trials + 1, 4 * trials] {
                                for grown in [0, 1, 3] {
                                    let key = t.stage_key(stage, alloc, grown);
                                    let one = t.sample_column(stage, key, 11, samples, true);
                                    let each = t.sample_column(stage, key, 11, samples, false);
                                    for (i, (a, b)) in one.iter().zip(&each).enumerate() {
                                        let at = format!("noise {noise} gpg {gpg} stage {stage} alloc {alloc} +{grown} sample {i}");
                                        assert_eq!(a.dur.to_bits(), b.dur.to_bits(), "{at}");
                                        assert_eq!(
                                            a.handover.to_bits(),
                                            b.handover.to_bits(),
                                            "{at}"
                                        );
                                        assert_eq!(a.fn_charge, b.fn_charge, "{at}");
                                    }
                                    assert_eq!(one.len(), samples);
                                    compared += samples;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(compared, 3 * 2 * 2 * (8 + 64) * 4 * 3 * 3);
    }

    /// A stage column read trial by trial: trial `j` starts at `ready`
    /// in the first wave and at the finish of trial `j − P` after it,
    /// each TRAIN task billed through `CloudPricing::function_charge`,
    /// and the barrier waits for the largest finish.
    fn per_trial_column(
        t: &DagTemplate,
        stage: usize,
        (gpt, parallel_slots, new_instances): StageKey,
        seed: u64,
        samples: usize,
    ) -> Vec<StageSample> {
        let trials = t.stages[stage].0 as usize;
        let parallel_slots = parallel_slots as usize;
        let train = t.train_draw(stage, gpt);
        let per_function = !t.pricing.billing.is_per_instance();
        let prefix = if t.prefix_draws { new_instances } else { 0 };
        let normals = matches!(train, TrainDraw::Normal { .. });
        let noise =
            (prefix > 0 || normals).then(|| t.stage_noise(stage, seed, prefix, samples, normals));
        let fixed_start = t.scale_and_init(new_instances, &mut Prng::seed_from_u64(0));
        (0..samples)
            .map(|i| {
                let (ready, handover) = match &noise {
                    Some(column) if prefix > 0 => column.starts[i],
                    _ => fixed_start,
                };
                let mut finishes: Vec<f64> = Vec::new();
                let mut fn_charge = Cost::ZERO;
                for slot in 0..trials {
                    let start = if slot < parallel_slots {
                        ready
                    } else {
                        finishes[slot - parallel_slots]
                    };
                    let d = match (train, &noise) {
                        (TrainDraw::Normal { mean, std, floor }, Some(column)) => {
                            Distribution::truncated_normal(
                                mean,
                                std,
                                floor,
                                column.z[i * trials + slot],
                            )
                        }
                        (TrainDraw::Fixed(v), _) => v,
                        (TrainDraw::Normal { .. }, None) => unreachable!(),
                    }
                    .max(0.0);
                    if per_function {
                        fn_charge += t
                            .pricing
                            .function_charge(gpt, SimDuration::from_secs_f64(d));
                    }
                    finishes.push(start + d);
                }
                StageSample {
                    dur: finishes.iter().copied().fold(0.0_f64, f64::max) + SYNC_OVERHEAD_SECS,
                    handover,
                    fn_charge,
                }
            })
            .collect()
    }

    /// The wave loop equals the per-trial walk bit for bit, charges
    /// included: wave layouts whose slots do not divide the trials, a
    /// single slot, fully parallel layouts, with and without noise,
    /// constant and lognormal SCALE/INIT, 1- and 4-GPU instances and
    /// both billing models.
    #[test]
    fn wave_column_equals_the_per_trial_walk() {
        use rb_scaling::{zoo::RESNET50, AnalyticScaling};
        let spec =
            ExperimentSpec::from_stages(&[(16, 4), (7, 8), (5, 16), (3, 32), (1, 64)]).unwrap();
        let mut compared = 0;
        let mut waves = 0;
        for noise in [0.0, 0.4] {
            for (ty, gpg) in [(P3_2XLARGE, 1), (P3_8XLARGE, 4)] {
                let constant = CloudProfile::new(CloudPricing::on_demand(ty.clone()))
                    .with_provision_delay(SimDuration::from_secs(30))
                    .with_init_latency(SimDuration::from_secs(20));
                let lognormal = constant
                    .clone()
                    .with_provision_delay_dist(Distribution::lognormal_from_moments(30.0, 15.0))
                    .with_init_latency_dist(Distribution::lognormal_from_moments(20.0, 8.0));
                for cloud in [constant, lognormal] {
                    for per_function in [false, true] {
                        let cloud = if per_function {
                            CloudProfile {
                                pricing: cloud.pricing.clone().with_per_function_billing(),
                                ..cloud.clone()
                            }
                        } else {
                            cloud.clone()
                        };
                        let scaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, gpg));
                        let model = ModelProfile::from_scaling("rn50", scaling, 10, 2.0, noise);
                        let t = DagTemplate::new(&spec, &model, &cloud);
                        for samples in [3, 20] {
                            for (stage, s) in spec.stages().enumerate() {
                                let trials = s.num_trials;
                                let mut allocs = vec![
                                    1,
                                    2,
                                    3,
                                    trials.saturating_sub(1).max(1),
                                    trials,
                                    2 * trials + 1,
                                ];
                                allocs.sort_unstable();
                                allocs.dedup();
                                for alloc in allocs {
                                    for grown in [0, 1, 3] {
                                        let key = t.stage_key(stage, alloc, grown);
                                        let got = t.sample_column(stage, key, 7, samples, false);
                                        let want = per_trial_column(&t, stage, key, 7, samples);
                                        assert_eq!(got.len(), samples);
                                        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                                            let at = format!("noise {noise} gpg {gpg} {:?} stage {stage} alloc {alloc} +{grown} sample {i}", cloud.pricing.billing);
                                            assert_eq!(a.dur.to_bits(), b.dur.to_bits(), "{at}");
                                            assert_eq!(
                                                a.handover.to_bits(),
                                                b.handover.to_bits(),
                                                "{at}"
                                            );
                                            assert_eq!(a.fn_charge, b.fn_charge, "{at}");
                                        }
                                        compared += samples;
                                        waves += usize::from(key.1 < trials);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(compared, 16 * 25 * 3 * (3 + 20));
        assert!(waves > 0);
    }
}
