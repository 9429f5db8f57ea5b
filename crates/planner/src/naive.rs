//! The naive elastic baseline (§6.3.1).
//!
//! "The naive elastic baseline … finds the cost-optimal allocation plan
//! within the constrained space of fixed allocations per-trial. That is,
//! although the cluster size is elastically adjusted, the number of
//! resources allocated to each trial remains constant across stages" —
//! the strategy of prior systems such as ASHA's elastic deployments. The
//! flaw: to meet a tight deadline the (long) final stage forces a large
//! per-trial allocation, which then multiplies across the many trials of
//! the early stages ("512 GPUs in the first stage of the 20-minute
//! experiment", Table 2 footnote).

use crate::descent::batch_select;
use rb_core::{RbError, Result, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_sim::{AllocationPlan, Prediction, Simulator};

/// Builds the naive-elastic plan for a fixed `gpus_per_trial`: stage `i`
/// gets `trials_i × gpus_per_trial` GPUs.
pub fn naive_plan(spec: &ExperimentSpec, gpus_per_trial: u32) -> AllocationPlan {
    let v = spec
        .stages()
        .map(|s| s.num_trials * gpus_per_trial)
        .collect();
    AllocationPlan::new(v)
}

/// Finds the cost-optimal naive-elastic plan meeting `deadline`, sweeping
/// the per-trial allocation over 1..=`max_gpus_per_trial`.
///
/// # Errors
///
/// Returns [`RbError::Infeasible`] if no per-trial allocation meets the
/// deadline; propagates simulator errors.
pub fn plan_naive_elastic(
    sim: &Simulator,
    spec: &ExperimentSpec,
    deadline: SimDuration,
    max_gpus_per_trial: u32,
) -> Result<(AllocationPlan, Prediction)> {
    let mut plans: Vec<AllocationPlan> = (1..=max_gpus_per_trial.max(1))
        .map(|g| naive_plan(spec, g))
        .collect();
    // One batched prediction across the per-trial sweep; cheapest
    // feasible plan wins, earlier (smaller) allocation breaking ties.
    batch_select(
        sim,
        spec,
        &plans,
        |pred| pred.feasible(deadline),
        |a, b| a.cost < b.cost,
    )?
    .map(|(i, pred)| (plans.swap_remove(i), pred))
    .ok_or_else(|| RbError::Infeasible {
        reason: format!(
            "no fixed per-trial allocation up to {max_gpus_per_trial} GPUs meets {deadline}"
        ),
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
    fn naive_plan_tracks_trial_count() {
        let p = naive_plan(&spec(), 2);
        assert_eq!(p.as_slice(), &[32, 16, 8, 4, 2]);
        assert!(p.is_fair(&spec()));
    }

    #[test]
    fn picks_cheapest_feasible_per_trial_allocation() {
        // The chosen plan must match a brute-force sweep over per-trial
        // sizes. (It is not necessarily g = 1: a larger share can amortize
        // minimum charges and per-stage overheads.)
        let s = sim();
        let deadline = SimDuration::from_hours(3);
        let (plan, pred) = plan_naive_elastic(&s, &spec(), deadline, 8).unwrap();
        let mut best: Option<(u32, rb_core::Cost)> = None;
        for g in 1..=8 {
            let p = s.predict(&spec(), &naive_plan(&spec(), g)).unwrap();
            if p.feasible(deadline) && best.map_or(true, |(_, c)| p.cost < c) {
                best = Some((g, p.cost));
            }
        }
        let (best_g, best_cost) = best.unwrap();
        assert_eq!(plan.as_slice(), naive_plan(&spec(), best_g).as_slice());
        assert_eq!(pred.cost, best_cost);
        assert!(pred.feasible(deadline));
    }

    #[test]
    fn tight_deadline_forces_bigger_per_trial_share() {
        let s = sim();
        let lax = plan_naive_elastic(&s, &spec(), SimDuration::from_hours(3), 8)
            .unwrap()
            .0;
        // 280 s is only satisfiable with ≥6 GPUs per trial.
        let (tight, _) = plan_naive_elastic(&s, &spec(), SimDuration::from_secs(280), 8).unwrap();
        assert!(tight.gpus(0) > lax.gpus(0), "tight {tight} vs lax {lax}");
        let impossible = plan_naive_elastic(&s, &spec(), SimDuration::from_secs(30), 8);
        assert!(matches!(impossible, Err(RbError::Infeasible { .. })));
    }
}
