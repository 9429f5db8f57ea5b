//! The dual planning problem: minimize JCT subject to a cost budget.
//!
//! The paper focuses on minimizing cost under a time constraint but notes
//! that "many of the techniques presented extend naturally to the related
//! problem of minimizing job completion time subject to cost" (§2,
//! footnote 1). This module is that extension: the same simulator and
//! fair-allocation ladder, with the greedy direction reversed — start
//! from the *cheapest* plan and repeatedly buy the increment with the
//! best JCT-marginal benefit
//!
//! ```text
//! m_i = (T(a*) − T(a_i)) / (C(a_i) − C(a*))
//! ```
//!
//! until no candidate both fits the budget and improves completion time.

use crate::descent::{batch_select, descend, Descent};
use crate::greedy::MAX_GPUS_PER_TRIAL;
use rb_core::{Cost, RbError, Result};
use rb_hpo::ExperimentSpec;
use rb_sim::{AllocationPlan, Prediction, Simulator};

/// Minimum JCT improvement per greedy step, in seconds.
const MIN_JCT_GAIN_SECS: f64 = 1.0;

/// The next fair allocation strictly above `alloc` for `trials`, if one
/// exists below the per-trial cap [`MAX_GPUS_PER_TRIAL`] (the mirror
/// image of [`AllocationPlan::decrement_fair`]).
fn increment_fair(alloc: u32, trials: u32) -> Option<u32> {
    let cap = trials.saturating_mul(MAX_GPUS_PER_TRIAL);
    if alloc >= cap {
        return None;
    }
    // Smallest fair value strictly above `alloc`.
    if alloc >= trials {
        // Multiples of the trial count.
        let next = ((alloc / trials) + 1) * trials;
        (next <= cap).then_some(next)
    } else {
        // Divisors of the trial count (or jump up to `trials` itself).
        ((alloc + 1)..=trials).find(|d| trials % d == 0)
    }
}

/// Jump to the next fair allocation that needs strictly more instances —
/// where per-instance spending (and meaningful speedup) actually changes.
fn increment_to_more_instances(alloc: u32, trials: u32, gpus_per_instance: u32) -> Option<u32> {
    let current = AllocationPlan::effective_instances(alloc, trials, gpus_per_instance);
    let mut a = alloc;
    while let Some(next) = increment_fair(a, trials) {
        if AllocationPlan::effective_instances(next, trials, gpus_per_instance) > current {
            return Some(next);
        }
        a = next;
    }
    None
}

/// Finds an allocation plan minimizing predicted JCT subject to
/// `budget`.
///
/// The warm start is the all-ones plan (cheapest possible execution);
/// greedy steps grow one stage at a time along the fair ladder, keeping
/// the candidate with the largest JCT reduction per dollar.
///
/// # Errors
///
/// Returns [`RbError::Infeasible`] if even the cheapest plan exceeds the
/// budget; propagates simulator errors.
pub fn plan_min_jct(
    sim: &Simulator,
    spec: &ExperimentSpec,
    budget: Cost,
) -> Result<(AllocationPlan, Prediction)> {
    let gpg = sim.cloud().gpus_per_instance();
    // Warm start: the cheapest static plan, ignoring time entirely. (The
    // all-ones plan is *not* cheapest — a tiny cluster holds its
    // instances for the whole serialized job.)
    let mut starts = vec![AllocationPlan::flat(1, spec.num_stages())];
    starts.extend(
        crate::static_planner::static_candidates(spec, MAX_GPUS_PER_TRIAL)
            .into_iter()
            .map(|g| AllocationPlan::flat(g, spec.num_stages())),
    );
    // Batched warm-start screening: cheapest start wins, earlier index
    // breaking ties (the classic scan's strict `<`).
    let (start_idx, start_pred) =
        batch_select(sim, spec, &starts, |_| true, |a, b| a.cost < b.cost)?
            .expect("at least the all-ones start was predicted");
    let start_plan = starts.swap_remove(start_idx);
    if start_pred.cost > budget {
        return Err(RbError::Infeasible {
            reason: format!(
                "cheapest plan costs {}, budget is {budget}",
                start_pred.cost
            ),
        });
    }
    let descent = Descent {
        sim,
        spec,
        accept_event: "budget.accept",
    };
    let (plan, pred, _steps) = descend(
        &descent,
        start_plan,
        start_pred,
        |plan, out| {
            for i in 0..spec.num_stages() {
                let trials = spec.get_stage(i)?.0;
                let cur = plan.gpus(i);
                let mut nexts = Vec::with_capacity(2);
                if let Some(n) = increment_fair(cur, trials) {
                    nexts.push(n);
                }
                if let Some(n) = increment_to_more_instances(cur, trials, gpg) {
                    if !nexts.contains(&n) {
                        nexts.push(n);
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
            if pred.cost > budget {
                return None;
            }
            let gained = parent.jct.as_secs_f64() - pred.jct.as_secs_f64();
            if gained < MIN_JCT_GAIN_SECS {
                return None;
            }
            let dc = (pred.cost - parent.cost).as_dollars();
            Some(if dc <= 0.0 {
                f64::INFINITY
            } else {
                gained / dc
            })
        },
    )?;
    Ok((plan, pred))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_cloud::catalog::P3_8XLARGE;
    use rb_cloud::CloudPricing;
    use rb_core::SimDuration;
    use rb_profile::{CloudProfile, ModelProfile};
    use rb_scaling::zoo::RESNET50;
    use rb_scaling::AnalyticScaling;
    use rb_sim::SimConfig;
    use std::sync::Arc;

    fn sim() -> Simulator {
        let scaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4));
        let model = ModelProfile::from_scaling("rn50", scaling, 10, 2.0, 0.0);
        let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
            .with_provision_delay(SimDuration::from_secs(15))
            .with_init_latency(SimDuration::from_secs(15));
        Simulator::new(model, cloud).with_config(SimConfig {
            samples: 3,
            seed: 5,
        })
    }

    fn spec() -> ExperimentSpec {
        ExperimentSpec::from_stages(&[(16, 4), (8, 8), (4, 16), (2, 32), (1, 64)]).unwrap()
    }

    #[test]
    fn increment_fair_mirrors_decrement() {
        // Above the trial count: multiples.
        assert_eq!(increment_fair(10, 10), Some(20));
        assert_eq!(increment_fair(20, 10), Some(30));
        // Below: divisors.
        assert_eq!(increment_fair(2, 10), Some(5));
        assert_eq!(increment_fair(5, 10), Some(10));
        assert_eq!(increment_fair(1, 7), Some(7), "prime counts jump to n");
        // Capped.
        assert_eq!(increment_fair(160, 10), None);
    }

    #[test]
    fn bigger_budget_buys_smaller_jct() {
        let s = sim();
        let tight = plan_min_jct(&s, &spec(), Cost::from_dollars(3.0)).unwrap();
        let roomy = plan_min_jct(&s, &spec(), Cost::from_dollars(8.0)).unwrap();
        assert!(tight.1.cost <= Cost::from_dollars(3.0));
        assert!(roomy.1.cost <= Cost::from_dollars(8.0));
        assert!(
            roomy.1.jct <= tight.1.jct,
            "more budget should not slow the job: {} vs {}",
            roomy.1.jct,
            tight.1.jct
        );
        assert!(roomy.1.jct < tight.1.jct, "budget should buy speed here");
    }

    #[test]
    fn budget_is_respected() {
        let s = sim();
        for dollars in [2.5, 4.0, 10.0] {
            let budget = Cost::from_dollars(dollars);
            let (_, pred) = plan_min_jct(&s, &spec(), budget).unwrap();
            assert!(pred.cost <= budget, "{} > {budget}", pred.cost);
        }
    }

    #[test]
    fn impossible_budget_is_infeasible() {
        let s = sim();
        let err = plan_min_jct(&s, &spec(), Cost::from_dollars(0.01)).unwrap_err();
        assert!(matches!(err, RbError::Infeasible { .. }));
    }

    #[test]
    fn grown_plans_stay_fair() {
        let s = sim();
        let (plan, _) = plan_min_jct(&s, &spec(), Cost::from_dollars(8.0)).unwrap();
        assert!(plan.is_fair(&spec()), "{plan} is unfair");
    }
}
