//! The RubberBand greedy elastic planner (Algorithm 2, §4.3).
//!
//! Starting from a feasible warm-start plan, each step generates one
//! candidate per stage by decrementing that stage's allocation to the next
//! fair value, predicts each candidate's JCT and cost with the simulator,
//! and keeps the candidate with the largest *cost-marginal benefit*
//!
//! ```text
//! m_i = (C(a*) − C(a_i)) / (T(a_i) − T(a*))          (Eq. 1)
//! ```
//!
//! until no candidate improves cost by at least δ or all candidates
//! violate the deadline. Because steps only ever decrement, the warm start
//! caps each stage's allocation; the search is therefore re-run from 1×,
//! 2×, 3× the optimal static size and the cheapest result returned.

use crate::descent::{descend, Descent};
use crate::static_planner::plan_static_optimal;
use rb_core::{Cost, RbError, Result, SimDuration, SimTime};
use rb_hpo::ExperimentSpec;
use rb_obs::Lane;
use rb_sim::{AllocationPlan, Prediction, Simulator};

/// Cap on GPUs per trial for every planner: the static and
/// naive-elastic scans under [`crate::plan_with_policy`], the greedy
/// warm starts (static and residual) and the budget planner's ladder.
pub const MAX_GPUS_PER_TRIAL: u32 = 16;

/// Minimum cost improvement per greedy step (δ = $0.01).
const IMPROVEMENT_THRESHOLD: Cost = Cost::from_micros(10_000);

/// Tunables of the greedy planner.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Warm-start multipliers applied to the optimal static size
    /// ("e.g. 1x, 2x, 3x", §4.3).
    pub warm_start_multipliers: Vec<u32>,
    /// Also generate, per stage, the jump candidate that lands on the
    /// next *instance boundary* (where per-instance cost actually
    /// changes). Without it the ladder can stall on fragmentation
    /// plateaus — ablated by `repro ablations`.
    pub use_instance_jump: bool,
    /// Adaptive sample counts: when `Some(k)` (with `k` below the
    /// simulator's configured fidelity), warm-start screening and greedy
    /// descent predict with only `k` Monte-Carlo samples — sharing the
    /// full-fidelity simulator's stage-sample memo, since sample sets are
    /// prefix-consistent per seed — and only the plans that survive the
    /// pruning (each descent's result) are re-scored at full fidelity.
    /// The prediction returned to the caller is always full fidelity.
    /// `None` (the default) predicts everything at full fidelity.
    pub exploration_samples: Option<u32>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            warm_start_multipliers: vec![1, 2, 3],
            use_instance_jump: true,
            exploration_samples: None,
        }
    }
}

/// The planner's result: the chosen plan, its prediction, and the static
/// baseline it improved upon.
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    /// The selected elastic plan.
    pub plan: AllocationPlan,
    /// Its predicted JCT/cost.
    pub prediction: Prediction,
    /// The optimal static plan used as the 1× warm start.
    pub static_plan: AllocationPlan,
    /// The static plan's prediction (the baseline cost).
    pub static_prediction: Prediction,
    /// Greedy steps actually taken across all warm starts.
    pub steps: usize,
}

/// Runs greedy descent from one warm start. Returns the improved plan,
/// its prediction, and the steps taken.
///
/// # Errors
///
/// Propagates simulator errors. The warm start itself must be feasible;
/// if it is not, it is returned unchanged (the caller decides what to do
/// with an infeasible start).
pub fn optimize_plan(
    sim: &Simulator,
    spec: &ExperimentSpec,
    deadline: SimDuration,
    warm_start: AllocationPlan,
    config: &PlannerConfig,
) -> Result<(AllocationPlan, Prediction, usize)> {
    let start_pred = sim.predict(spec, &warm_start)?;
    let gpg = sim.cloud().gpus_per_instance();
    let descent = Descent {
        sim,
        spec,
        accept_event: "step.accept",
    };
    descend(
        &descent,
        warm_start,
        start_pred,
        |plan, out| {
            // Generate candidates per stage: the next fair decrement
            // (§4.3) and, where different, the jump to the next instance
            // boundary (where per-instance cost actually changes).
            for i in 0..spec.num_stages() {
                let trials = spec.get_stage(i)?.0;
                let cur = plan.gpus(i);
                let mut nexts = Vec::with_capacity(2);
                if let Some(n) = AllocationPlan::decrement_fair(cur, trials) {
                    nexts.push(n);
                }
                if config.use_instance_jump {
                    if let Some(n) = AllocationPlan::decrement_to_fewer_instances(cur, trials, gpg)
                    {
                        if !nexts.contains(&n) {
                            nexts.push(n);
                        }
                    }
                }
                for next in nexts {
                    let mut cand = plan.clone();
                    cand.set_gpus(i, next);
                    out.push(cand);
                }
            }
            Ok(())
        },
        |parent, pred| {
            if !pred.feasible(deadline) {
                return None;
            }
            let saved = parent.cost - pred.cost;
            if saved < IMPROVEMENT_THRESHOLD {
                return None;
            }
            // Marginal benefit: cost saved per second of JCT given up.
            // A candidate that saves cost without slowing the job down is
            // infinitely good.
            let dt = pred.jct.as_secs_f64() - parent.jct.as_secs_f64();
            Some(if dt <= 0.0 {
                f64::INFINITY
            } else {
                saved.as_dollars() / dt
            })
        },
    )
}

/// The full RubberBand planning procedure: optimal static warm start,
/// greedy descent from several warm-start scales, cheapest feasible result.
///
/// # Examples
///
/// ```
/// use rb_planner::{plan_rubberband, PlannerConfig};
/// use rb_sim::Simulator;
/// use rb_profile::{CloudProfile, ModelProfile};
/// use rb_cloud::{catalog::P3_8XLARGE, CloudPricing};
/// use rb_core::SimDuration;
/// use rb_hpo::ShaParams;
/// use rb_scaling::{AnalyticScaling, zoo::RESNET50};
/// use std::sync::Arc;
///
/// let spec = ShaParams::new(16, 2, 30).generate().unwrap();
/// let model = ModelProfile::from_scaling(
///     "rn50",
///     Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4)),
///     5,
///     2.0,
///     0.0,
/// );
/// let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE));
/// let sim = Simulator::new(model, cloud);
/// let out =
///     plan_rubberband(&sim, &spec, SimDuration::from_hours(1), &PlannerConfig::default())
///         .unwrap();
/// // Never worse than the optimal static allocation (§4.3).
/// assert!(out.prediction.cost <= out.static_prediction.cost);
/// ```
///
/// # Errors
///
/// Returns [`RbError::Infeasible`] when even the fastest static cluster
/// misses the deadline; propagates simulator errors.
pub fn plan_rubberband(
    sim: &Simulator,
    spec: &ExperimentSpec,
    deadline: SimDuration,
    config: &PlannerConfig,
) -> Result<GreedyOutcome> {
    let (static_plan, static_pred) = plan_static_optimal(sim, spec, deadline, MAX_GPUS_PER_TRIAL)?;
    let recorder = sim.recorder().clone();
    // Adaptive sample counts: screen and descend at reduced fidelity,
    // re-score survivors at full fidelity below.
    let explore = exploration_sim(sim, config);
    let search_sim = explore.as_ref().unwrap_or(sim);
    let mut best: Option<(AllocationPlan, Prediction, u32)> = None;
    let mut total_steps = 0;
    // Predict every warm start in one batch before descending from any of
    // them (duplicates are deduplicated inside the engine).
    let mults: Vec<u32> = config
        .warm_start_multipliers
        .iter()
        .copied()
        .filter(|&mult| mult > 0)
        .collect();
    let starts: Vec<AllocationPlan> = mults
        .iter()
        .map(|&mult| {
            AllocationPlan::flat(static_plan.gpus(0).saturating_mul(mult), spec.num_stages())
        })
        .collect();
    let start_preds = search_sim.predict_batch(spec, &starts);
    for ((mult, start), start_pred) in mults.into_iter().zip(starts).zip(start_preds) {
        if !start_pred?.feasible(deadline) {
            // A bigger static cluster that *misses* the deadline (e.g.
            // overheads grow with size) is not a usable warm start.
            continue;
        }
        let (plan, pred, steps) = optimize_plan(search_sim, spec, deadline, start, config)?;
        total_steps += steps;
        // The survivor of this descent is re-scored at full fidelity; a
        // plan that only looked feasible at exploration fidelity is
        // dropped here.
        let pred = if explore.is_some() {
            recorder.counter_add("planner", "rescored_full_fidelity", 1);
            let full = sim.predict(spec, &plan)?;
            if !full.feasible(deadline) {
                continue;
            }
            full
        } else {
            pred
        };
        let better = match &best {
            None => true,
            Some((_, b, _)) => pred.cost < b.cost,
        };
        if better {
            best = Some((plan, pred, mult));
        }
    }
    let (plan, prediction, winning_mult) = best.ok_or_else(|| RbError::Infeasible {
        reason: "no feasible warm start".to_string(),
    })?;
    debug_assert_eq!(
        prediction.samples,
        sim.config().samples.max(1),
        "selected plan must be scored at full fidelity"
    );
    // Guarantee (§4.3): never worse than the optimal static allocation.
    let elastic_won = prediction.cost <= static_pred.cost;
    let (plan, prediction) = if elastic_won {
        (plan, prediction)
    } else {
        (static_plan.clone(), static_pred)
    };
    if elastic_won {
        // The warm start whose descent produced the winning plan.
        recorder.counter_add("planner", "warm_start_wins", 1);
    } else {
        recorder.counter_add("planner", "static_fallbacks", 1);
    }
    if recorder.enabled() {
        recorder.instant(
            SimTime::ZERO,
            "planner",
            "plan.selected",
            Lane::Planner,
            vec![
                ("warm_start_multiplier", winning_mult.into()),
                ("elastic_won", elastic_won.into()),
                ("steps", total_steps.into()),
                ("cost_usd", prediction.cost.as_dollars().into()),
                ("jct_secs", prediction.jct.as_secs_f64().into()),
            ],
        );
    }
    Ok(GreedyOutcome {
        plan,
        prediction,
        static_plan,
        static_prediction: static_pred,
        steps: total_steps,
    })
}

/// The reduced-fidelity simulator for candidate exploration, when the
/// config enables one that is actually cheaper than `sim` itself.
fn exploration_sim(sim: &Simulator, config: &PlannerConfig) -> Option<Simulator> {
    config
        .exploration_samples
        .filter(|&k| k > 0 && k < sim.config().samples.max(1))
        .map(|k| sim.with_samples(k))
}

/// A mid-job re-plan of the *residual* experiment: the stages that have
/// not yet executed, under whatever deadline remains.
#[derive(Debug, Clone)]
pub struct ResidualOutcome {
    /// The chosen allocation for the remaining stages.
    pub plan: AllocationPlan,
    /// Its full-fidelity prediction.
    pub prediction: Prediction,
    /// Whether that prediction fits the residual deadline. Unlike
    /// offline planning, an infeasible residual is not an error — the
    /// controller must still apply *some* plan, and the minimum-JCT one
    /// loses the least.
    pub feasible: bool,
    /// Greedy steps taken across all warm starts.
    pub steps: usize,
}

/// Re-plans the remaining stages of a job from the plan currently being
/// executed.
///
/// `warm_start` is the current plan's suffix for the residual stages
/// (same length as `residual_spec`). Candidates are that suffix scaled by
/// the configured warm-start multipliers — capped per stage at
/// `trials ×` [`MAX_GPUS_PER_TRIAL`] — each screened and descended exactly
/// like [`plan_rubberband`] (honouring
/// [`PlannerConfig::exploration_samples`]), then re-scored at full
/// fidelity. The cheapest plan that fits `residual_deadline` wins; when
/// none fits, the minimum-JCT candidate is returned with
/// [`ResidualOutcome::feasible`] `== false` instead of an error, because
/// a controller mid-job has no choice but to keep executing.
///
/// There is deliberately no static-plan fallback here: the residual
/// spec's stage 0 already has survivors and held instances, and the warm
/// start (the incumbent plan) is always among the candidates, so the
/// result is never worse *under the model* than not re-planning.
///
/// # Errors
///
/// Returns [`rb_core::RbError::InvalidPlan`] when `warm_start` and
/// `residual_spec` disagree on stage count; propagates simulator errors.
pub fn plan_residual(
    sim: &Simulator,
    residual_spec: &ExperimentSpec,
    residual_deadline: SimDuration,
    warm_start: &AllocationPlan,
    config: &PlannerConfig,
) -> Result<ResidualOutcome> {
    if warm_start.num_stages() != residual_spec.num_stages() {
        return Err(RbError::InvalidPlan(format!(
            "warm start has {} stages, residual spec has {}",
            warm_start.num_stages(),
            residual_spec.num_stages()
        )));
    }
    let explore = exploration_sim(sim, config);
    let search_sim = explore.as_ref().unwrap_or(sim);
    let mut starts: Vec<AllocationPlan> = Vec::new();
    for &mult in config.warm_start_multipliers.iter().filter(|&&m| m > 0) {
        let gpus = (0..residual_spec.num_stages())
            .map(|s| {
                let trials = residual_spec.get_stage(s)?.0;
                let cap = trials.saturating_mul(MAX_GPUS_PER_TRIAL);
                Ok(warm_start.gpus(s).saturating_mul(mult).clamp(1, cap))
            })
            .collect::<Result<Vec<u32>>>()?;
        let start = AllocationPlan::new(gpus);
        if !starts.contains(&start) {
            starts.push(start);
        }
    }
    let start_preds = search_sim.predict_batch(residual_spec, &starts);
    let mut total_steps = 0;
    let mut evaluated: Vec<(AllocationPlan, Prediction)> = Vec::new();
    for (start, start_pred) in starts.into_iter().zip(start_preds) {
        let start_pred = start_pred?;
        let plan = if start_pred.feasible(residual_deadline) {
            let (plan, _, steps) =
                optimize_plan(search_sim, residual_spec, residual_deadline, start, config)?;
            total_steps += steps;
            plan
        } else {
            // Even an infeasible start is kept as a candidate: at full
            // fidelity it may fit, and if nothing fits we want the
            // fastest option on the table.
            start
        };
        if !evaluated.iter().any(|(p, _)| *p == plan) {
            let full = sim.predict(residual_spec, &plan)?;
            evaluated.push((plan, full));
        }
    }
    let winner = evaluated
        .iter()
        .filter(|(_, p)| p.feasible(residual_deadline))
        .min_by(|(_, a), (_, b)| a.cost.cmp(&b.cost))
        .or_else(|| evaluated.iter().min_by(|(_, a), (_, b)| a.jct.cmp(&b.jct)))
        .cloned()
        .ok_or_else(|| RbError::Infeasible {
            reason: "no warm-start candidates".to_string(),
        })?;
    let feasible = winner.1.feasible(residual_deadline);
    let recorder = sim.recorder();
    recorder.counter_add("planner", "residual_replans", 1);
    if recorder.enabled() {
        recorder.instant(
            SimTime::ZERO,
            "planner",
            "residual.selected",
            Lane::Planner,
            vec![
                ("feasible", feasible.into()),
                ("steps", total_steps.into()),
                ("cost_usd", winner.1.cost.as_dollars().into()),
                ("jct_secs", winner.1.jct.as_secs_f64().into()),
            ],
        );
    }
    Ok(ResidualOutcome {
        plan: winner.0,
        prediction: winner.1,
        feasible,
        steps: total_steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_cloud::catalog::P3_8XLARGE;
    use rb_cloud::CloudPricing;
    use rb_profile::{CloudProfile, ModelProfile};
    use rb_scaling::zoo::RESNET50;
    use rb_scaling::AnalyticScaling;
    use rb_sim::SimConfig;
    use std::sync::Arc;

    /// A sublinear-scaling workload on 4-GPU instances — the regime where
    /// elasticity pays.
    fn sublinear_sim() -> Simulator {
        let scaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4));
        let model = ModelProfile::from_scaling("rn50", scaling, 10, 2.0, 0.0);
        let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
            .with_provision_delay(SimDuration::from_secs(15))
            .with_init_latency(SimDuration::from_secs(15));
        Simulator::new(model, cloud).with_config(SimConfig {
            samples: 3,
            seed: 11,
        })
    }

    fn spec() -> ExperimentSpec {
        ExperimentSpec::from_stages(&[(16, 4), (8, 8), (4, 16), (2, 32), (1, 64)]).unwrap()
    }

    #[test]
    fn warm_replanning_is_served_from_the_plan_cache() {
        // The warm-path speedup the benchmarks report must be
        // attributable to real cache hits, not an artifact: replanning
        // the same job on a shared simulator has to hit both the plan
        // cache and the stage-sample memo, and return the same plan.
        let sim = sublinear_sim();
        let deadline = SimDuration::from_mins(60);
        let cold = plan_rubberband(&sim, &spec(), deadline, &PlannerConfig::default()).unwrap();
        let after_cold = sim.cache_stats();
        assert!(
            after_cold.plan.misses > 0,
            "cold planning must populate the plan cache"
        );
        assert!(
            after_cold.stage_memo.misses > 0,
            "cold planning must populate the stage memo"
        );
        let warm = plan_rubberband(&sim, &spec(), deadline, &PlannerConfig::default()).unwrap();
        let after_warm = sim.cache_stats();
        assert!(
            after_warm.plan.hits > after_cold.plan.hits,
            "warm planning must be served from the plan cache \
             (cold: {after_cold:?}, warm: {after_warm:?})"
        );
        // A cached replan is byte-for-byte the cold plan.
        assert_eq!(warm.plan, cold.plan);
        assert_eq!(warm.prediction, cold.prediction);
    }

    #[test]
    fn rubberband_never_beaten_by_static() {
        let sim = sublinear_sim();
        for deadline_mins in [30u64, 60, 120] {
            let out = plan_rubberband(
                &sim,
                &spec(),
                SimDuration::from_mins(deadline_mins),
                &PlannerConfig::default(),
            )
            .unwrap();
            assert!(
                out.prediction.cost <= out.static_prediction.cost,
                "deadline {deadline_mins}m: {} > static {}",
                out.prediction.cost,
                out.static_prediction.cost
            );
            assert!(out
                .prediction
                .feasible(SimDuration::from_mins(deadline_mins)));
        }
    }

    #[test]
    fn elastic_plan_shrinks_over_stages_for_sublinear_models() {
        // A tight deadline (static optimum ≈ 4:13 at 16 GPUs) forces a
        // large early cluster; the greedy planner should shed it in the
        // late, low-parallelism stages.
        let sim = sublinear_sim();
        let out = plan_rubberband(
            &sim,
            &spec(),
            SimDuration::from_secs(270),
            &PlannerConfig::default(),
        )
        .unwrap();
        let first = out.plan.gpus(0);
        let last = out.plan.gpus(spec().num_stages() - 1);
        assert!(last < first, "expected front-loaded plan, got {}", out.plan);
        // And it should genuinely beat the static baseline.
        assert!(
            out.prediction.cost < out.static_prediction.cost,
            "{} !< {}",
            out.prediction.cost,
            out.static_prediction.cost
        );
    }

    #[test]
    fn greedy_steps_respect_fairness_ladder() {
        let sim = sublinear_sim();
        let s = spec();
        let out = plan_rubberband(
            &sim,
            &s,
            SimDuration::from_mins(60),
            &PlannerConfig::default(),
        )
        .unwrap();
        assert!(out.plan.is_fair(&s), "{} is unfair", out.plan);
    }

    #[test]
    fn optimize_never_increases_allocations() {
        let sim = sublinear_sim();
        let s = spec();
        let start = AllocationPlan::flat(32, s.num_stages());
        let (plan, _, _) = optimize_plan(
            &sim,
            &s,
            SimDuration::from_hours(4),
            start.clone(),
            &PlannerConfig::default(),
        )
        .unwrap();
        for i in 0..s.num_stages() {
            assert!(plan.gpus(i) <= start.gpus(i));
        }
    }

    #[test]
    fn infeasible_deadline_propagates() {
        let sim = sublinear_sim();
        let err = plan_rubberband(
            &sim,
            &spec(),
            SimDuration::from_secs(10),
            &PlannerConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RbError::Infeasible { .. }));
    }

    #[test]
    fn tighter_deadlines_cost_more() {
        let sim = sublinear_sim();
        let cfg = PlannerConfig::default();
        let loose = plan_rubberband(&sim, &spec(), SimDuration::from_mins(180), &cfg)
            .unwrap()
            .prediction
            .cost;
        let tight = plan_rubberband(&sim, &spec(), SimDuration::from_mins(25), &cfg)
            .unwrap()
            .prediction
            .cost;
        assert!(tight >= loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn adaptive_samples_rescore_the_winner_at_full_fidelity() {
        let sim = sublinear_sim().with_config(SimConfig {
            samples: 24,
            seed: 11,
        });
        let cfg = PlannerConfig {
            exploration_samples: Some(3),
            ..PlannerConfig::default()
        };
        let out = plan_rubberband(&sim, &spec(), SimDuration::from_mins(60), &cfg).unwrap();
        // The returned prediction is the full-fidelity score of the plan,
        // bit-identical to predicting it directly.
        assert_eq!(out.prediction.samples, 24);
        assert_eq!(out.prediction, sim.predict(&spec(), &out.plan).unwrap());
        assert!(out.prediction.feasible(SimDuration::from_mins(60)));
        // And never worse than static, as always.
        assert!(out.prediction.cost <= out.static_prediction.cost);
    }

    #[test]
    fn residual_replanning_grows_allocations_under_a_shrunken_deadline() {
        let sim = sublinear_sim();
        let s = spec();
        let cfg = PlannerConfig::default();
        let out = plan_rubberband(&sim, &s, SimDuration::from_mins(60), &cfg).unwrap();
        // Pretend stage 0 just finished: plan the 4-stage residual.
        let residual = s.suffix(1).unwrap();
        let warm: AllocationPlan =
            AllocationPlan::new((1..s.num_stages()).map(|i| out.plan.gpus(i)).collect());
        // Generous residual deadline: the incumbent suffix must stay
        // acceptable (re-planning without drift never hurts under the
        // model).
        let loose =
            plan_residual(&sim, &residual, SimDuration::from_mins(55), &warm, &cfg).unwrap();
        assert!(loose.feasible);
        let warm_pred = sim.predict(&residual, &warm).unwrap();
        assert!(loose.prediction.cost <= warm_pred.cost);
        // Tight residual deadline: the re-planner must spend more to go
        // faster than the incumbent suffix would.
        let tight_deadline = SimDuration::from_secs_f64(warm_pred.jct.as_secs_f64() * 0.7);
        let tight = plan_residual(&sim, &residual, tight_deadline, &warm, &cfg).unwrap();
        assert!(
            tight.prediction.jct < warm_pred.jct,
            "residual re-plan {} not faster than incumbent {}",
            tight.prediction.jct,
            warm_pred.jct
        );
        // Feasible or not, it returns a plan rather than erroring.
        assert_eq!(tight.plan.num_stages(), residual.num_stages());
    }

    #[test]
    fn residual_replanning_rejects_mismatched_warm_start() {
        let sim = sublinear_sim();
        let residual = spec().suffix(2).unwrap();
        let warm = AllocationPlan::new(vec![4, 2]); // 2 stages vs 3
        assert!(matches!(
            plan_residual(
                &sim,
                &residual,
                SimDuration::from_mins(30),
                &warm,
                &PlannerConfig::default()
            ),
            Err(RbError::InvalidPlan(_))
        ));
    }

    #[test]
    fn planning_is_deterministic() {
        let sim = sublinear_sim();
        let cfg = PlannerConfig::default();
        let a = plan_rubberband(&sim, &spec(), SimDuration::from_mins(60), &cfg).unwrap();
        let b = plan_rubberband(&sim, &spec(), SimDuration::from_mins(60), &cfg).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.prediction, b.prediction);
    }
}
