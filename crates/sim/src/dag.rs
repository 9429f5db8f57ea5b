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
/// a stage sample and candidate plans revisit the same few allocations
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
    /// The end-of-stage barrier latency (SYNC).
    sync: Distribution,
    /// The model profile used to fit train-task distributions on demand.
    model: ModelProfile,
    /// Memoized train-task distributions keyed by `(stage, gpus_per_trial)`.
    train_dists: Mutex<HashMap<(usize, u32), Distribution>>,
    /// Memoized per-stage execution samples keyed by the stage's canonical
    /// sampling configuration `(stage, gpus_per_trial, parallel_slots,
    /// new_instances, seed)` — see `DagTemplate::stage_samples`.
    stage_memo: Mutex<HashMap<StageMemoKey, Arc<Vec<StageSample>>>>,
    /// Generation cap on `stage_memo`: when an insert would push the memo
    /// past this many entries the whole memo is dropped and re-grown (a
    /// new generation). Entries are pure functions of their key, so
    /// eviction can never change results — only make them slower to
    /// recompute. `0` disables the cap.
    memo_cap: usize,
    /// Hit/miss/eviction tallies for `stage_memo` (passive; see
    /// [`crate::counters::CacheCounters`]).
    counters: crate::counters::CacheCounters,
}

/// Stage-memo key: `(stage, gpus_per_trial, parallel_slots,
/// new_instances, seed)`.
type StageMemoKey = (usize, u32, u32, u32, u64);

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
    /// The stage's TRAIN tasks billed under per-function pricing.
    pub fn_charge: Cost,
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
        DagTemplate {
            stages: spec.stages().map(|s| (s.num_trials, s.iters)).collect(),
            gpg: cloud.gpus_per_instance().max(1),
            provision: cloud.provision_delay.clone(),
            init: cloud.init_latency.clone(),
            sync: Distribution::Constant(sync_overhead_secs),
            model: model.clone(),
            train_dists: Mutex::new(HashMap::new()),
            stage_memo: Mutex::new(HashMap::new()),
            memo_cap: DEFAULT_STAGE_MEMO_CAP,
            counters: crate::counters::CacheCounters::default(),
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

    /// The memoized train-task distribution for `stage` at `gpus` per
    /// trial.
    fn train_dist(&self, stage: usize, gpus: u32) -> Distribution {
        let mut memo = self.train_dists.lock().expect("train-dist memo poisoned");
        memo.entry((stage, gpus))
            .or_insert_with(|| {
                let units = self.stages[stage].1;
                self.model
                    .train_task_dist(units, gpus, PlacementQuality::Packed)
            })
            .clone()
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

    /// Draws one execution sample of stage `stage` under `alloc` GPUs,
    /// provisioning `new_instances` fresh instances, relative to the
    /// stage's start.
    ///
    /// The stage's tasks draw from `Prng::for_stream(sample_seed, stage)`
    /// in construction order — SCALE (the maximum of `new_instances`
    /// provider delays), one INIT per new instance, the TRAIN tasks by
    /// slot, then SYNC — and the relative timeline follows the task
    /// dependencies: TRAIN waits for every INIT, a queued trial for the
    /// slot it chains behind, SYNC for every TRAIN. Stages are separated
    /// by full barriers, so a plan's sampled execution is exactly the
    /// composition of its stage samples.
    pub(crate) fn sample_stage(
        &self,
        stage: usize,
        alloc: u32,
        new_instances: u32,
        sample_seed: u64,
        pricing: &CloudPricing,
    ) -> StageSample {
        let (trials, _) = self.stages[stage];
        let k = new_instances;
        let mut rng = Prng::for_stream(sample_seed, stage as u64);

        // 1. SCALE + INITs, when the stage grows the cluster. Training
        //    barriers on every new instance being initialized.
        let (ready, handover) = if k > 0 {
            let scale_f = (0..k)
                .map(|_| self.provision.sample(&mut rng))
                .fold(0.0_f64, f64::max);
            let mut ready = 0.0_f64;
            for _ in 0..k {
                ready = ready.max(scale_f + self.init.sample(&mut rng).max(0.0));
            }
            (ready, scale_f)
        } else {
            (0.0, 0.0)
        };

        // 2. TRAIN tasks: all-parallel when GPUs suffice, otherwise waves
        //    of `alloc` single-GPU trials chained serially.
        let gpt = if alloc >= trials { alloc / trials } else { 1 };
        let parallel_slots = if alloc >= trials { trials } else { alloc };
        let train_dist = self.train_dist(stage, gpt);
        let mut finishes: Vec<f64> = Vec::with_capacity(trials as usize);
        let mut fn_charge = Cost::ZERO;
        for slot in 0..trials {
            let start = if slot < parallel_slots {
                ready
            } else {
                finishes[(slot - parallel_slots) as usize]
            };
            let d = train_dist.sample(&mut rng).max(0.0);
            fn_charge += pricing.function_charge(gpt, SimDuration::from_secs_f64(d));
            finishes.push(start + d);
        }

        // 3. The SYNC barrier over every trial.
        let sync_start = finishes.iter().copied().fold(0.0_f64, f64::max);
        let sync_d = self.sync.sample(&mut rng).max(0.0);

        StageSample {
            dur: sync_start + sync_d,
            handover,
            fn_charge,
        }
    }

    /// The memoized Monte-Carlo samples of one stage configuration:
    /// `samples` draws of [`DagTemplate::sample_stage`], sample `i` seeded
    /// exactly like sample `i` of a full prediction. The planner evaluates
    /// hundreds of candidate plans that differ in one stage — every stage
    /// they share comes out of this memo instead of being re-simulated.
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
        pricing: &CloudPricing,
    ) -> Arc<Vec<StageSample>> {
        let (trials, _) = self.stages[stage];
        let gpt = if alloc >= trials { alloc / trials } else { 1 };
        let parallel_slots = if alloc >= trials { trials } else { alloc };
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
        let v: Arc<Vec<StageSample>> = Arc::new(
            (0..samples)
                .map(|i| {
                    let sample_seed = Prng::for_stream(seed, u64::from(i)).next_u64();
                    self.sample_stage(stage, alloc, new_instances, sample_seed, pricing)
                })
                .collect(),
        );
        let mut memo = self.stage_memo.lock().expect("stage-sample memo poisoned");
        if self.memo_cap > 0 && memo.len() >= self.memo_cap && !memo.contains_key(&key) {
            // Generation eviction: drop the whole memo rather than track
            // recency. Outstanding `Arc`s handed to callers stay valid.
            self.counters.evictions_add(memo.len() as u64);
            memo.clear();
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

    /// Stage `stage`'s span when it runs on `alloc` GPUs and provisions
    /// `new_instances` instances (deterministic profiles: any seed).
    fn span(t: &DagTemplate, stage: usize, alloc: u32, new_instances: u32) -> f64 {
        let pricing = CloudPricing::on_demand(P3_2XLARGE);
        t.sample_stage(stage, alloc, new_instances, 1, &pricing).dur
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
        let pricing = CloudPricing::on_demand(P3_2XLARGE);
        let grown = t.sample_stage(1, 2, 1, 1, &pricing);
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
        let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE));
        let t = template(&cloud);
        let plan = AllocationPlan::new(vec![8, 4, 2]);
        let (needed, new_inst, _) = t.instance_ladder(&plan);
        assert_eq!(needed, vec![2, 1, 1]);
        assert_eq!(new_inst, vec![2, 0, 0]);
        // Each trial gets 2 GPUs in stage 0, and is billed for them.
        assert_eq!(plan.gpus_per_trial(0, &spec()), 2);
        let pricing = cloud.pricing.clone().with_per_function_billing();
        let sample = t.sample_stage(0, 8, 2, 1, &pricing);
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
        assert_eq!(
            t.sample_stage(0, 3, 3, 1, &pricing).fn_charge,
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
        let pricing = cloud.pricing.clone();
        let (mut one, mut eight) = (0.0, 0.0);
        for seed in 0..500 {
            let single = t.sample_stage(0, 4, 1, seed, &pricing).handover;
            let max8 = t.sample_stage(0, 4, 8, seed, &pricing).handover;
            assert!(max8 >= single, "seed {seed}: {max8} < {single}");
            one += single;
            eight += max8;
        }
        assert!(eight > one, "max of 8 draws should exceed one draw");
    }
}
