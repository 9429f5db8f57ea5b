//! The descent planners against reference loops.
//!
//! Two contracts protect the descent loop (`src/descent.rs`):
//!
//! 1. **Bit-identity with the reference loops.** `optimize_plan` and
//!    `plan_min_jct` must reproduce the historical single-incumbent
//!    loops exactly. Those loops are kept here as `reference_*`
//!    functions, which predict every plan one at a time through the
//!    sequential reference (`Simulator::predict_reference`: a fresh
//!    template, no cache) and count the candidates they generate and
//!    prune and the steps they take. The planners are checked against
//!    them across seeds, deadlines, budgets and warm starts: the same
//!    plans, predictions and step counts, and, through a
//!    `MemoryRecorder`, the same `candidates_generated`,
//!    `candidates_pruned` and `steps_taken` counters and one accept
//!    instant per step.
//! 2. **The prediction engine never changes a selection.** Contract 1
//!    compares the memoized, batched engine with the sequential
//!    reference; in addition, `plan_rubberband` picks the same plan,
//!    prediction and step count on a cold simulator as on a warm one.

use rb_cloud::catalog::P3_8XLARGE;
use rb_cloud::CloudPricing;
use rb_core::{Cost, Result, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_obs::{MemoryRecorder, RecorderHandle, TraceLog};
use rb_planner::{
    optimize_plan, plan_min_jct, plan_residual, plan_rubberband, plan_static_optimal,
    PlannerConfig, MAX_GPUS_PER_TRIAL,
};
use rb_profile::{CloudProfile, ModelProfile};
use rb_scaling::zoo::RESNET50;
use rb_scaling::AnalyticScaling;
use rb_sim::{AllocationPlan, Prediction, SimConfig, Simulator};
use std::sync::Arc;

/// Sublinear ResNet-50 scaling at the default `SimConfig` (20 samples).
fn rn50_sim() -> Simulator {
    let scaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4));
    let model = ModelProfile::from_scaling("rn50", scaling, 10, 2.0, 0.0);
    let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15));
    Simulator::new(model, cloud)
}

fn sim_with(seed: u64) -> Simulator {
    rn50_sim().with_config(SimConfig { samples: 3, seed })
}

fn spec() -> ExperimentSpec {
    ExperimentSpec::from_stages(&[(16, 4), (8, 8), (4, 16), (2, 32), (1, 64)]).unwrap()
}

/// Four SHA jobs of different shapes and deadlines, as a tuning service
/// planning a churn of submissions sees them.
fn churn_specs() -> Vec<(ExperimentSpec, SimDuration)> {
    [
        (&[(16, 4), (8, 8), (4, 16), (2, 32), (1, 64)][..], 60),
        (&[(27, 3), (9, 9), (3, 27), (1, 81)][..], 90),
        (&[(8, 6), (4, 12), (2, 24), (1, 48)][..], 75),
        (&[(32, 2), (16, 4), (8, 8), (4, 16)][..], 45),
    ]
    .into_iter()
    .map(|(stages, mins)| {
        (
            ExperimentSpec::from_stages(stages).unwrap(),
            SimDuration::from_mins(mins),
        )
    })
    .collect()
}

/// The planners' step cap, δ and per-step JCT gain, as the reference
/// loops had them in their configs.
const MAX_STEPS: usize = 10_000;
const IMPROVEMENT_THRESHOLD: f64 = 0.01;
const MIN_JCT_GAIN_SECS: f64 = 1.0;

/// What a reference loop counted, per the planner counters of the same
/// names.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Tally {
    candidates_generated: u64,
    candidates_pruned: u64,
    steps_taken: u64,
}

impl Tally {
    /// The planner counters a recorded run ended with.
    fn recorded(log: &TraceLog) -> Self {
        Tally {
            candidates_generated: log.counter("planner", "candidates_generated"),
            candidates_pruned: log.counter("planner", "candidates_pruned"),
            steps_taken: log.counter("planner", "steps_taken"),
        }
    }
}

/// `sim` with a fresh in-memory recorder attached.
fn attach_recorder(sim: &Simulator) -> (Simulator, Arc<MemoryRecorder>) {
    let rec = Arc::new(MemoryRecorder::new());
    let sim = sim.clone().with_recorder(RecorderHandle::new(rec.clone()));
    (sim, rec)
}

/// Each of `plans` predicted on its own by the sequential reference, in
/// input order.
fn reference(
    sim: &Simulator,
    spec: &ExperimentSpec,
    plans: &[AllocationPlan],
) -> Vec<Result<Prediction>> {
    plans
        .iter()
        .map(|plan| sim.predict_reference(spec, plan))
        .collect()
}

/// The historical `optimize_plan` loop, kept verbatim with observability
/// stripped (it never influenced plan, prediction, or step count) and
/// each candidate predicted alone through [`reference`]; it counts what
/// the planner's counters count instead.
fn reference_optimize(
    sim: &Simulator,
    spec: &ExperimentSpec,
    deadline: SimDuration,
    warm_start: AllocationPlan,
    config: &PlannerConfig,
) -> Result<(AllocationPlan, Prediction, Tally)> {
    let mut best_plan = warm_start;
    let mut best_pred = sim.predict_reference(spec, &best_plan)?;
    let mut tally = Tally::default();
    let gpg = sim.cloud().gpus_per_instance();
    while (tally.steps_taken as usize) < MAX_STEPS {
        let mut cands: Vec<AllocationPlan> = Vec::with_capacity(2 * spec.num_stages());
        for i in 0..spec.num_stages() {
            let trials = spec.get_stage(i)?.0;
            let cur = best_plan.gpus(i);
            let mut nexts = Vec::with_capacity(2);
            if let Some(n) = AllocationPlan::decrement_fair(cur, trials) {
                nexts.push(n);
            }
            if config.use_instance_jump {
                if let Some(n) = AllocationPlan::decrement_to_fewer_instances(cur, trials, gpg) {
                    if !nexts.contains(&n) {
                        nexts.push(n);
                    }
                }
            }
            for next in nexts {
                let mut cand = best_plan.clone();
                cand.set_gpus(i, next);
                cands.push(cand);
            }
        }
        tally.candidates_generated += cands.len() as u64;
        let mut chosen: Option<(usize, Prediction, f64)> = None;
        for (idx, pred) in reference(sim, spec, &cands).into_iter().enumerate() {
            let pred = pred?;
            if !pred.feasible(deadline) {
                tally.candidates_pruned += 1;
                continue;
            }
            let saved = best_pred.cost - pred.cost;
            if saved < Cost::from_dollars(IMPROVEMENT_THRESHOLD) {
                tally.candidates_pruned += 1;
                continue;
            }
            let dt = pred.jct.as_secs_f64() - best_pred.jct.as_secs_f64();
            let m = if dt <= 0.0 {
                f64::INFINITY
            } else {
                saved.as_dollars() / dt
            };
            let better = match &chosen {
                None => true,
                Some((_, _, best_m)) => m > *best_m,
            };
            if better {
                chosen = Some((idx, pred, m));
            }
        }
        match chosen {
            Some((idx, pred, _)) => {
                best_plan = cands.swap_remove(idx);
                best_pred = pred;
                tally.steps_taken += 1;
            }
            None => break,
        }
    }
    Ok((best_plan, best_pred, tally))
}

/// The historical `plan_min_jct` descent loop, kept verbatim, counting
/// like [`reference_optimize`].
fn reference_min_jct(
    sim: &Simulator,
    spec: &ExperimentSpec,
    budget: Cost,
) -> Result<(AllocationPlan, Prediction, Tally)> {
    fn increment_fair(alloc: u32, trials: u32, max_gpus_per_trial: u32) -> Option<u32> {
        let cap = trials.saturating_mul(max_gpus_per_trial);
        if alloc >= cap {
            return None;
        }
        if alloc >= trials {
            let next = ((alloc / trials) + 1) * trials;
            (next <= cap).then_some(next)
        } else {
            ((alloc + 1)..=trials).find(|d| trials % d == 0)
        }
    }
    fn increment_to_more_instances(
        alloc: u32,
        trials: u32,
        gpg: u32,
        max_gpus_per_trial: u32,
    ) -> Option<u32> {
        let current = AllocationPlan::effective_instances(alloc, trials, gpg);
        let mut a = alloc;
        while let Some(next) = increment_fair(a, trials, max_gpus_per_trial) {
            if AllocationPlan::effective_instances(next, trials, gpg) > current {
                return Some(next);
            }
            a = next;
        }
        None
    }
    let gpg = sim.cloud().gpus_per_instance();
    let mut starts = vec![AllocationPlan::flat(1, spec.num_stages())];
    starts.extend(
        rb_planner::static_planner::static_candidates(spec, MAX_GPUS_PER_TRIAL)
            .into_iter()
            .map(|g| AllocationPlan::flat(g, spec.num_stages())),
    );
    let start_preds = reference(sim, spec, &starts);
    let mut best_plan = starts[0].clone();
    let mut best_pred: Option<Prediction> = None;
    for (plan, pred) in starts.into_iter().zip(start_preds) {
        let pred = pred?;
        if best_pred.as_ref().map_or(true, |b| pred.cost < b.cost) {
            best_plan = plan;
            best_pred = Some(pred);
        }
    }
    let mut best_pred = best_pred.expect("starts are non-empty");
    assert!(best_pred.cost <= budget, "reference called within budget");
    let mut tally = Tally::default();
    while (tally.steps_taken as usize) < MAX_STEPS {
        let mut cands: Vec<AllocationPlan> = Vec::with_capacity(2 * spec.num_stages());
        for i in 0..spec.num_stages() {
            let trials = spec.get_stage(i)?.0;
            let cur = best_plan.gpus(i);
            let mut nexts = Vec::with_capacity(2);
            if let Some(n) = increment_fair(cur, trials, MAX_GPUS_PER_TRIAL) {
                nexts.push(n);
            }
            if let Some(n) = increment_to_more_instances(cur, trials, gpg, MAX_GPUS_PER_TRIAL) {
                if !nexts.contains(&n) {
                    nexts.push(n);
                }
            }
            for next in nexts {
                let mut cand = best_plan.clone();
                cand.set_gpus(i, next);
                cands.push(cand);
            }
        }
        tally.candidates_generated += cands.len() as u64;
        let mut chosen: Option<(usize, Prediction, f64)> = None;
        for (idx, pred) in reference(sim, spec, &cands).into_iter().enumerate() {
            let pred = pred?;
            if pred.cost > budget {
                tally.candidates_pruned += 1;
                continue;
            }
            let gained = best_pred.jct.as_secs_f64() - pred.jct.as_secs_f64();
            if gained < MIN_JCT_GAIN_SECS {
                tally.candidates_pruned += 1;
                continue;
            }
            let dc = (pred.cost - best_pred.cost).as_dollars();
            let m = if dc <= 0.0 {
                f64::INFINITY
            } else {
                gained / dc
            };
            let better = match &chosen {
                None => true,
                Some((_, _, best_m)) => m > *best_m,
            };
            if better {
                chosen = Some((idx, pred, m));
            }
        }
        match chosen {
            Some((idx, pred, _)) => {
                best_plan = cands.swap_remove(idx);
                best_pred = pred;
                tally.steps_taken += 1;
            }
            None => break,
        }
    }
    Ok((best_plan, best_pred, tally))
}

#[test]
fn descent_is_bit_identical_to_the_reference_loop() {
    let config = PlannerConfig::default();
    for seed in [0, 5, 11] {
        let s = sim_with(seed);
        for deadline_secs in [270, 600, 3600] {
            let deadline = SimDuration::from_secs(deadline_secs);
            for start_gpus in [16, 32, 64] {
                let start = AllocationPlan::flat(start_gpus, spec().num_stages());
                let (r_plan, r_pred, r_tally) =
                    reference_optimize(&s, &spec(), deadline, start.clone(), &config).unwrap();
                let (traced, rec) = attach_recorder(&s);
                let (plan, pred, steps) =
                    optimize_plan(&traced, &spec(), deadline, start, &config).unwrap();
                let log = rec.finish();
                let cell = format!("seed {seed} deadline {deadline_secs} start {start_gpus}");
                assert_eq!(plan, r_plan, "{cell}");
                assert_eq!(pred, r_pred, "{cell}");
                assert_eq!(steps as u64, r_tally.steps_taken, "{cell}");
                assert_eq!(Tally::recorded(&log), r_tally, "{cell}");
                assert_eq!(
                    log.events_named("planner", "step.accept").count(),
                    steps,
                    "{cell}"
                );
            }
        }
    }
}

#[test]
fn plan_rubberband_matches_the_reference_descent() {
    // plan_rubberband only changed through optimize_plan; rebuilding its
    // selection on top of the reference loop must land on the same plan.
    for seed in [0, 11] {
        let s = sim_with(seed);
        for deadline_secs in [600, 3600] {
            let deadline = SimDuration::from_secs(deadline_secs);
            let config = PlannerConfig::default();
            let out = plan_rubberband(&s, &spec(), deadline, &config).unwrap();
            let (static_plan, static_pred) =
                plan_static_optimal(&s, &spec(), deadline, MAX_GPUS_PER_TRIAL).unwrap();
            let mut best: Option<(AllocationPlan, Prediction)> = None;
            for mult in [1u32, 2, 3] {
                let start = AllocationPlan::flat(static_plan.gpus(0).saturating_mul(mult), 5);
                if !s.predict(&spec(), &start).unwrap().feasible(deadline) {
                    continue;
                }
                let (plan, pred, _) =
                    reference_optimize(&s, &spec(), deadline, start, &config).unwrap();
                if best.as_ref().map_or(true, |(_, b)| pred.cost < b.cost) {
                    best = Some((plan, pred));
                }
            }
            let (mut plan, mut pred) = best.expect("some warm start is feasible");
            if pred.cost > static_pred.cost {
                plan = static_plan;
                pred = static_pred;
            }
            assert_eq!(out.plan, plan, "seed {seed} deadline {deadline_secs}");
            assert_eq!(out.prediction, pred, "seed {seed} deadline {deadline_secs}");
        }
    }
}

#[test]
fn plan_residual_is_deterministic_and_matches_descent_winner() {
    for seed in [0, 11] {
        let s = sim_with(seed);
        let warm = AllocationPlan::new(vec![64, 32, 16, 8, 4]);
        let deadline = SimDuration::from_mins(30);
        let a = plan_residual(&s, &spec(), deadline, &warm, &PlannerConfig::default()).unwrap();
        let b = plan_residual(&s, &spec(), deadline, &warm, &PlannerConfig::default()).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.prediction, b.prediction);
        assert_eq!(a.steps, b.steps);
        // The winner descends from some multiplied warm start via the
        // reference loop: replaying the descents must reproduce it.
        let config = PlannerConfig::default();
        let mut evaluated: Vec<(AllocationPlan, Prediction)> = Vec::new();
        for mult in [1u32, 2, 3] {
            let gpus: Vec<u32> = (0..5)
                .map(|st| {
                    let trials = spec().get_stage(st).unwrap().0;
                    let cap = trials.saturating_mul(MAX_GPUS_PER_TRIAL);
                    warm.gpus(st).saturating_mul(mult).clamp(1, cap)
                })
                .collect();
            let start = AllocationPlan::new(gpus);
            if evaluated.iter().any(|(p, _)| *p == start) {
                continue;
            }
            let start_pred = s.predict(&spec(), &start).unwrap();
            let plan = if start_pred.feasible(deadline) {
                reference_optimize(&s, &spec(), deadline, start, &config)
                    .unwrap()
                    .0
            } else {
                start
            };
            if !evaluated.iter().any(|(p, _)| *p == plan) {
                let full = s.predict(&spec(), &plan).unwrap();
                evaluated.push((plan, full));
            }
        }
        let winner = evaluated
            .iter()
            .filter(|(_, p)| p.feasible(deadline))
            .min_by(|(_, x), (_, y)| x.cost.cmp(&y.cost))
            .or_else(|| evaluated.iter().min_by(|(_, x), (_, y)| x.jct.cmp(&y.jct)))
            .unwrap();
        assert_eq!(a.plan, winner.0, "seed {seed}");
        assert_eq!(a.prediction, winner.1, "seed {seed}");
    }
}

#[test]
fn budget_planner_is_bit_identical_to_the_reference_loop() {
    for seed in [0, 5, 11] {
        let s = sim_with(seed);
        for budget_dollars in [40, 80, 200] {
            let budget = Cost::from_dollars(f64::from(budget_dollars));
            let (r_plan, r_pred, r_tally) = reference_min_jct(&s, &spec(), budget).unwrap();
            let (traced, rec) = attach_recorder(&s);
            let (plan, pred) = plan_min_jct(&traced, &spec(), budget).unwrap();
            let log = rec.finish();
            let cell = format!("seed {seed} budget {budget_dollars}");
            assert_eq!(plan, r_plan, "{cell}");
            assert_eq!(pred, r_pred, "{cell}");
            assert_eq!(Tally::recorded(&log), r_tally, "{cell}");
            assert_eq!(
                log.events_named("planner", "budget.accept").count() as u64,
                r_tally.steps_taken,
                "{cell}"
            );
        }
    }
}

#[test]
fn selection_is_independent_of_cache_warmth() {
    let mut inputs = vec![(spec(), SimDuration::from_mins(30))];
    inputs.extend(churn_specs());
    let config = PlannerConfig::default();
    let plan = |sim: &Simulator, spec: &ExperimentSpec, deadline: SimDuration| {
        let out = plan_rubberband(sim, spec, deadline, &config).unwrap();
        (out.plan, out.prediction, out.steps)
    };
    // Each input on a cold simulator, then twice over one reused
    // simulator: first touch, then with every cache warm.
    let cold: Vec<_> = inputs
        .iter()
        .map(|(s, d)| plan(&rn50_sim(), s, *d))
        .collect();
    let warm = rn50_sim();
    for pass in ["first touch", "warm"] {
        let reused: Vec<_> = inputs.iter().map(|(s, d)| plan(&warm, s, *d)).collect();
        assert_eq!(reused, cold, "{pass}");
    }
}
