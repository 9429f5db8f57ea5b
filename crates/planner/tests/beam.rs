//! Beam-frontier equivalence properties.
//!
//! The descent planners were rewritten from single-incumbent loops onto
//! the shared beam engine (`crate::beam`). Two contracts protect that
//! rewrite:
//!
//! 1. **Width-1 bit-identity** — `beam_width == 1` must reproduce the
//!    historical loops exactly. The pre-change loops are preserved here
//!    verbatim (minus observability, which does not affect outputs) as
//!    `reference_*` functions, and the new implementations are checked
//!    against them across seeds, deadlines, warm starts, and thresholds
//!    (including the δ = 0 tie-heavy regime).
//! 2. **Wider never worse** — a wider beam may only improve the
//!    objective: the chosen plan stays feasible (greedy) or within
//!    budget (budget planner) and its objective value is never worse
//!    than width 1's, at any thread count.
//!
//! A third contract covers the engine underneath: **the prediction
//! engine never changes a selection.** `plan_rubberband` picks the same
//! plan, prediction and step count under the sequential baseline engine
//! as under the default one, and at one worker thread as at four.

use rb_cloud::catalog::P3_8XLARGE;
use rb_cloud::CloudPricing;
use rb_core::{Cost, Result, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_obs::{MemoryRecorder, RecorderHandle};
use rb_planner::{
    optimize_plan, plan_min_jct, plan_residual, plan_rubberband, plan_static_optimal,
    BudgetPlannerConfig, PlannerConfig,
};
use rb_profile::{CloudProfile, ModelProfile};
use rb_scaling::zoo::RESNET50;
use rb_scaling::AnalyticScaling;
use rb_sim::{AllocationPlan, EngineConfig, Prediction, SimConfig, Simulator};
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

fn sim_with(seed: u64, threads: usize) -> Simulator {
    rn50_sim()
        .with_config(SimConfig {
            samples: 3,
            seed,
            sync_overhead_secs: 1.0,
        })
        .with_engine(EngineConfig::default().with_threads(threads))
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

/// The pre-beam `optimize_plan` loop, kept verbatim (observability
/// stripped — it never influenced plan, prediction, or step count).
fn reference_optimize(
    sim: &Simulator,
    spec: &ExperimentSpec,
    deadline: SimDuration,
    warm_start: AllocationPlan,
    config: &PlannerConfig,
) -> Result<(AllocationPlan, Prediction, usize)> {
    let mut best_plan = warm_start;
    let mut best_pred = sim.predict(spec, &best_plan)?;
    let mut steps = 0;
    let gpg = sim.cloud().gpus_per_instance();
    while steps < config.max_steps {
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
        let mut chosen: Option<(usize, Prediction, f64)> = None;
        for (idx, pred) in sim.predict_batch(spec, &cands).into_iter().enumerate() {
            let pred = pred?;
            if !pred.feasible(deadline) {
                continue;
            }
            let saved = best_pred.cost - pred.cost;
            if saved < config.improvement_threshold {
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
                steps += 1;
            }
            None => break,
        }
    }
    Ok((best_plan, best_pred, steps))
}

/// The pre-beam `plan_min_jct` descent loop, kept verbatim.
fn reference_min_jct(
    sim: &Simulator,
    spec: &ExperimentSpec,
    budget: Cost,
    config: &BudgetPlannerConfig,
) -> Result<(AllocationPlan, Prediction)> {
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
        rb_planner::static_planner::static_candidates(spec, config.max_gpus_per_trial)
            .into_iter()
            .map(|g| AllocationPlan::flat(g, spec.num_stages())),
    );
    let start_preds = sim.predict_batch(spec, &starts);
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
    let mut steps = 0;
    while steps < config.max_steps {
        let mut cands: Vec<AllocationPlan> = Vec::with_capacity(2 * spec.num_stages());
        for i in 0..spec.num_stages() {
            let trials = spec.get_stage(i)?.0;
            let cur = best_plan.gpus(i);
            let mut nexts = Vec::with_capacity(2);
            if let Some(n) = increment_fair(cur, trials, config.max_gpus_per_trial) {
                nexts.push(n);
            }
            if let Some(n) =
                increment_to_more_instances(cur, trials, gpg, config.max_gpus_per_trial)
            {
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
        let mut chosen: Option<(usize, Prediction, f64)> = None;
        for (idx, pred) in sim.predict_batch(spec, &cands).into_iter().enumerate() {
            let pred = pred?;
            if pred.cost > budget {
                continue;
            }
            let gained = best_pred.jct.as_secs_f64() - pred.jct.as_secs_f64();
            if gained < config.improvement_threshold_secs {
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
                steps += 1;
            }
            None => break,
        }
    }
    Ok((best_plan, best_pred))
}

#[test]
fn width_one_descent_is_bit_identical_to_the_reference_loop() {
    for seed in [0, 5, 11] {
        let s = sim_with(seed, 1);
        for deadline_secs in [270, 600, 3600] {
            let deadline = SimDuration::from_secs(deadline_secs);
            for start_gpus in [16, 32, 64] {
                for threshold in [Cost::ZERO, Cost::from_dollars(0.01)] {
                    let config = PlannerConfig {
                        improvement_threshold: threshold,
                        ..PlannerConfig::default()
                    };
                    let start = AllocationPlan::flat(start_gpus, spec().num_stages());
                    let (r_plan, r_pred, r_steps) =
                        reference_optimize(&s, &spec(), deadline, start.clone(), &config).unwrap();
                    let (plan, pred, steps) =
                        optimize_plan(&s, &spec(), deadline, start, &config).unwrap();
                    assert_eq!(plan, r_plan, "seed {seed} deadline {deadline_secs}");
                    assert_eq!(pred, r_pred, "seed {seed} deadline {deadline_secs}");
                    assert_eq!(steps, r_steps, "seed {seed} deadline {deadline_secs}");
                }
            }
        }
    }
}

#[test]
fn width_one_plan_rubberband_matches_the_reference_descent() {
    // plan_rubberband only changed through optimize_plan; rebuilding its
    // selection on top of the reference loop must land on the same plan.
    for seed in [0, 11] {
        let s = sim_with(seed, 1);
        for deadline_secs in [600, 3600] {
            let deadline = SimDuration::from_secs(deadline_secs);
            let config = PlannerConfig::default();
            let out = plan_rubberband(&s, &spec(), deadline, &config).unwrap();
            let (static_plan, static_pred) =
                plan_static_optimal(&s, &spec(), deadline, config.max_gpus_per_trial).unwrap();
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
fn width_one_plan_residual_is_deterministic_and_matches_descent_winner() {
    for seed in [0, 11] {
        let s = sim_with(seed, 1);
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
                    let cap = trials.saturating_mul(config.max_gpus_per_trial);
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
fn width_one_budget_planner_is_bit_identical_to_the_reference_loop() {
    for seed in [0, 5, 11] {
        let s = sim_with(seed, 1);
        for budget_dollars in [40, 80, 200] {
            let budget = Cost::from_dollars(f64::from(budget_dollars));
            let config = BudgetPlannerConfig::default();
            let (r_plan, r_pred) = reference_min_jct(&s, &spec(), budget, &config).unwrap();
            let (plan, pred) = plan_min_jct(&s, &spec(), budget, &config).unwrap();
            assert_eq!(plan, r_plan, "seed {seed} budget {budget_dollars}");
            assert_eq!(pred, r_pred, "seed {seed} budget {budget_dollars}");
        }
    }
}

#[test]
fn wider_greedy_beams_stay_feasible_and_never_cost_more() {
    for seed in [0, 11] {
        let s = sim_with(seed, 1);
        for deadline_secs in [270, 600, 3600] {
            let deadline = SimDuration::from_secs(deadline_secs);
            let narrow = plan_rubberband(&s, &spec(), deadline, &PlannerConfig::default()).unwrap();
            for width in [2, 4] {
                let config = PlannerConfig {
                    beam_width: width,
                    ..PlannerConfig::default()
                };
                let wide = plan_rubberband(&s, &spec(), deadline, &config).unwrap();
                assert!(
                    wide.prediction.feasible(deadline),
                    "width {width} seed {seed} deadline {deadline_secs}"
                );
                assert!(
                    wide.prediction.cost <= narrow.prediction.cost,
                    "width {width} cost {} vs width 1 cost {} (seed {seed})",
                    wide.prediction.cost,
                    narrow.prediction.cost
                );
            }
        }
    }
}

#[test]
fn wider_budget_beams_respect_budget_and_never_slow_down() {
    for seed in [0, 11] {
        let s = sim_with(seed, 1);
        for budget_dollars in [40, 120] {
            let budget = Cost::from_dollars(f64::from(budget_dollars));
            let (_, narrow) =
                plan_min_jct(&s, &spec(), budget, &BudgetPlannerConfig::default()).unwrap();
            let config = BudgetPlannerConfig {
                beam_width: 4,
                ..BudgetPlannerConfig::default()
            };
            let (_, wide) = plan_min_jct(&s, &spec(), budget, &config).unwrap();
            assert!(wide.cost <= budget, "seed {seed} budget {budget_dollars}");
            assert!(
                wide.jct <= narrow.jct,
                "width 4 jct {} vs width 1 jct {} (seed {seed})",
                wide.jct,
                narrow.jct
            );
        }
    }
}

#[test]
fn plan_rubberband_is_bit_identical_to_the_sequential_baseline() {
    let deadline = SimDuration::from_mins(60);
    let config = PlannerConfig::default();
    let baseline = rn50_sim().with_engine(EngineConfig::sequential_baseline());
    let a = plan_rubberband(&baseline, &spec(), deadline, &config).unwrap();
    let b = plan_rubberband(&rn50_sim(), &spec(), deadline, &config).unwrap();
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.prediction, b.prediction);
    assert_eq!(a.steps, b.steps);
}

#[test]
fn beam_selection_is_independent_of_engine_thread_count() {
    // At 100 samples the planner's largest batches on these specs cross
    // the fan-out gate; the chunk counter proves the threaded path ran.
    let mut inputs = vec![(spec(), SimDuration::from_mins(30))];
    inputs.extend(churn_specs());
    for width in [1, 4] {
        let config = PlannerConfig {
            beam_width: width,
            ..PlannerConfig::default()
        };
        let runs = [1, 4].map(|threads| {
            let sink = Arc::new(MemoryRecorder::new());
            let sim = || {
                rn50_sim()
                    .with_samples(100)
                    .with_engine(EngineConfig::default().with_threads(threads))
                    .with_recorder(RecorderHandle::new(sink.clone()))
            };
            let plan = |sim: &Simulator, spec: &ExperimentSpec, deadline: SimDuration| {
                let out = plan_rubberband(sim, spec, deadline, &config).unwrap();
                (out.plan, out.prediction, out.steps)
            };
            // Each input on a cold simulator, then twice over one reused
            // simulator: first touch, then with every cache warm.
            let mut selections: Vec<_> = inputs.iter().map(|(s, d)| plan(&sim(), s, *d)).collect();
            let warm = sim();
            for _ in 0..2 {
                selections.extend(inputs.iter().map(|(s, d)| plan(&warm, s, *d)));
            }
            (selections, sink.finish().counter("sim", "batch_chunks"))
        });
        let [(one, one_chunks), (four, four_chunks)] = runs;
        assert_eq!(one, four, "width {width}");
        assert!(
            four_chunks > one_chunks,
            "width {width}: threads 4 ran {four_chunks} chunks, threads 1 ran {one_chunks}"
        );
    }
}
