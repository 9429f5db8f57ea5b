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

use crate::plan::AllocationPlan;
use rb_cloud::CloudPricing;
use rb_core::{Cost, Distribution, Prng, RbError, Result, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_profile::{CloudProfile, ModelProfile};
use rb_scaling::PlacementQuality;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The per-spec half of the execution model: everything about a stage's
/// tasks that is the same for every candidate plan.
///
/// It holds the stage ladder and the provider latency distributions,
/// and fits train-task distributions from the scaling model on demand.
/// The planner evaluates hundreds of plans against one spec, and a
/// greedy step changes a single stage's allocation, so the template is
/// built **once per spec** and each plan only reads its instance ladder
/// (`DagTemplate::instance_ladder`) and its stages' memoized samples.
///
/// Fitted train-task distributions are memoized per `(stage, gpus)` pair:
/// the scaling-model evaluation behind
/// [`ModelProfile::train_task_dist`] is by far the most expensive part of
/// fitting a stage and candidate plans revisit the same few allocations
/// constantly.
#[derive(Debug)]
pub struct DagTemplate {
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
    /// The end-of-stage barrier latency (SYNC), a constant by
    /// construction, clamped at zero like every task latency.
    sync_secs: f64,
    /// The target cloud's prices; per-function billing charges each
    /// TRAIN task as it is sampled.
    pricing: CloudPricing,
    /// The model profile used to fit train-task distributions on demand.
    model: ModelProfile,
    /// Memoized train-task draws keyed by `(stage, gpus_per_trial)`.
    train_dists: Mutex<HashMap<(usize, u32), TrainDraw>>,
    /// Memoized per-stage execution samples keyed by the stage's canonical
    /// sampling configuration `(stage, gpus_per_trial, parallel_slots,
    /// new_instances, seed)` — see `DagTemplate::stage_samples`.
    stage_memo: Mutex<HashMap<StageMemoKey, Arc<Vec<StageSample>>>>,
    /// Memoized noise columns keyed by `(stage, seed, prefix)` — see
    /// `DagTemplate::stage_noise`. Cleared with `stage_memo`.
    noise_memo: Mutex<HashMap<NoiseKey, Arc<StageNoise>>>,
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

/// Noise-memo key: `(stage, seed, prefix)`, `prefix` the number of
/// instances whose SCALE and INIT draws precede the stage's TRAIN draws
/// (see `DagTemplate::stage_noise`).
type NoiseKey = (usize, u64, u32);

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
    /// Captures everything about `(spec, model, cloud, sync_overhead)` that
    /// is independent of the allocation plan.
    pub fn new(
        spec: &ExperimentSpec,
        model: &ModelProfile,
        cloud: &CloudProfile,
        sync_overhead_secs: f64,
    ) -> DagTemplate {
        let constant = |d: &Distribution| matches!(d, Distribution::Constant(_));
        DagTemplate {
            stages: spec.stages().map(|s| (s.num_trials, s.iters)).collect(),
            gpg: cloud.gpus_per_instance().max(1),
            provision: cloud.provision_delay.clone(),
            init: cloud.init_latency.clone(),
            prefix_draws: !(constant(&cloud.provision_delay) && constant(&cloud.init_latency)),
            sync_secs: sync_overhead_secs.max(0.0),
            pricing: cloud.pricing.clone(),
            model: model.clone(),
            train_dists: Mutex::new(HashMap::new()),
            stage_memo: Mutex::new(HashMap::new()),
            noise_memo: Mutex::new(HashMap::new()),
            memo_cap: DEFAULT_STAGE_MEMO_CAP,
            counters: crate::counters::CacheCounters::default(),
            noise_counters: crate::counters::CacheCounters::default(),
        }
    }

    /// Overrides the stage-sample memo capacity (`0` = unbounded).
    #[must_use]
    pub(crate) fn with_memo_cap(mut self, cap: usize) -> DagTemplate {
        self.memo_cap = cap;
        self
    }

    /// Number of stages in the underlying spec.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The memoized train-task draw for `stage` at `gpus` per trial.
    fn train_draw(&self, stage: usize, gpus: u32) -> TrainDraw {
        let mut memo = self.train_dists.lock().expect("train-dist memo poisoned");
        *memo.entry((stage, gpus)).or_insert_with(|| {
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

    /// The plan's per-stage instance ladder: instances held and newly
    /// provisioned at each stage, plus the job total. The plan must
    /// already be validated.
    pub(crate) fn instance_ladder(&self, plan: &AllocationPlan) -> (Vec<u32>, Vec<u32>, u32) {
        let mut needed = Vec::with_capacity(self.stages.len());
        let mut new_inst = Vec::with_capacity(self.stages.len());
        let total = self.instance_ladder_into(plan, &mut needed, &mut new_inst);
        (needed, new_inst, total)
    }

    /// [`DagTemplate::instance_ladder`] into caller-owned buffers — the
    /// arena-backed prediction path reuses its scratch vectors across
    /// plans, so the ladder must not allocate. Buffers are cleared first;
    /// returns the job's total provisioned instances.
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
    ) -> Arc<StageNoise> {
        let key = (stage, seed, prefix);
        {
            let memo = self.noise_memo.lock().expect("noise memo poisoned");
            if let Some(column) = memo.get(&key) {
                if column.rows >= samples && (!normals || !column.z.is_empty()) {
                    self.noise_counters.hits_add(1);
                    return column.clone();
                }
            }
        }
        self.noise_counters.misses_add(1);
        let trials = self.stages[stage].0 as usize;
        let mut starts = Vec::with_capacity(if prefix > 0 { samples } else { 0 });
        let mut z = Vec::with_capacity(if normals { samples * trials } else { 0 });
        for i in 0..samples {
            let sample_seed = Prng::for_stream(seed, i as u64).next_u64();
            let mut rng = Prng::for_stream(sample_seed, stage as u64);
            if prefix > 0 {
                starts.push(self.scale_and_init(prefix, &mut rng));
            }
            if normals {
                z.extend((0..trials).map(|_| rng.standard_normal()));
            }
        }
        let column = Arc::new(StageNoise {
            rows: samples,
            starts,
            z,
        });
        // Racing threads draw the same values; last write wins.
        self.noise_memo
            .lock()
            .expect("noise memo poisoned")
            .insert(key, column.clone());
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
    fn sample_column(
        &self,
        stage: usize,
        alloc: u32,
        new_instances: u32,
        seed: u64,
        samples: usize,
    ) -> Vec<StageSample> {
        let trials = self.stages[stage].0 as usize;
        let (gpt, parallel_slots) = layout(alloc, self.stages[stage].0);
        let parallel_slots = parallel_slots as usize;
        let train = self.train_draw(stage, gpt);
        let pricing = &self.pricing;
        let per_function = !pricing.billing.is_per_instance();
        let prefix = if self.prefix_draws { new_instances } else { 0 };
        let normals = matches!(train, TrainDraw::Normal { .. });
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
        let mut finishes: Vec<f64> = Vec::with_capacity(trials);
        let sample = |i: usize| {
            let (ready, handover) = match &noise {
                Some(column) if prefix > 0 => column.starts[i],
                _ => fixed_start,
            };
            let z = match &noise {
                Some(column) if normals => &column.z[i * trials..][..trials],
                _ => &[][..],
            };
            finishes.clear();
            let mut fn_charge = Cost::ZERO;
            for slot in 0..trials {
                let start = if slot < parallel_slots {
                    ready
                } else {
                    finishes[slot - parallel_slots]
                };
                let d = match train {
                    TrainDraw::Fixed(v) => v,
                    TrainDraw::Normal { mean, std, floor } => {
                        Distribution::truncated_normal(mean, std, floor, z[slot])
                    }
                }
                .max(0.0);
                if per_function {
                    fn_charge += pricing.function_charge(gpt, SimDuration::from_secs_f64(d));
                }
                finishes.push(start + d);
            }
            let sync_start = finishes.iter().copied().fold(0.0_f64, f64::max);
            StageSample {
                dur: sync_start + self.sync_secs,
                handover,
                fn_charge,
            }
        };
        (0..samples).map(sample).collect()
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
        alloc: u32,
        new_instances: u32,
        seed: u64,
        samples: u32,
    ) -> Arc<Vec<StageSample>> {
        let (gpt, parallel_slots) = layout(alloc, self.stages[stage].0);
        let key = (stage, gpt, parallel_slots, new_instances, seed);
        {
            let memo = self.stage_memo.lock().expect("stage-sample memo poisoned");
            if let Some(v) = memo.get(&key) {
                if v.len() >= samples as usize {
                    self.counters.hits_add(1);
                    return v.clone();
                }
            }
        }
        self.counters.misses_add(1);
        // Computed outside the lock; a racing thread derives the exact
        // same values from the same counters, so last-write-wins is safe.
        let v = Arc::new(self.sample_column(stage, alloc, new_instances, seed, samples as usize));
        let mut memo = self.stage_memo.lock().expect("stage-sample memo poisoned");
        if self.memo_cap > 0 && memo.len() >= self.memo_cap && !memo.contains_key(&key) {
            // Generation eviction: drop the whole memo rather than track
            // recency. Outstanding `Arc`s handed to callers stay valid.
            // The noise columns served this generation's misses and go
            // with it, which bounds them by the same cap.
            self.counters.evictions_add(memo.len() as u64);
            memo.clear();
            let mut noise = self.noise_memo.lock().expect("noise memo poisoned");
            self.noise_counters.evictions_add(noise.len() as u64);
            noise.clear();
        }
        memo.insert(key, v.clone());
        v
    }

    /// Number of stage configurations currently memoized. Public because
    /// the memo-cap test in `crates/sim/tests/engine.rs` has no other
    /// view of the memo's size; no library code calls it.
    pub fn cached_stage_configs(&self) -> usize {
        self.stage_memo
            .lock()
            .expect("stage-sample memo poisoned")
            .len()
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
        DagTemplate::new(&spec(), &model(), cloud, 1.0)
    }

    /// Sample 0 of one stage configuration at Monte-Carlo seed `seed`.
    fn sample_stage(
        t: &DagTemplate,
        stage: usize,
        alloc: u32,
        new_instances: u32,
        seed: u64,
    ) -> StageSample {
        t.stage_samples(stage, alloc, new_instances, seed, 1)[0]
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
        let (needed, new_inst, total) = t.instance_ladder(&AllocationPlan::new(vec![4, 2, 1]));
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
        let (needed, new_inst, total) = t.instance_ladder(&AllocationPlan::new(vec![1, 2, 4]));
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
        let (needed, new_inst, _) = t.instance_ladder(&plan);
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
}
