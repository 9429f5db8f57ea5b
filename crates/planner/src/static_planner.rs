//! The cost-optimal static (fixed-cluster) baseline (§3.2).
//!
//! "A naive method to minimize cost within the limitations of using a
//! fixed-size cluster is to provision the smallest static cluster such
//! that the expected JCT of the input job fits within the time constraint."
//! Because the search space is one-dimensional, candidate sizes are simply
//! enumerated and predicted; the cheapest feasible size wins. This also
//! provides the warm start for the greedy elastic planner (§4.3).

use crate::descent::batch_select;
use rb_core::{RbError, Result, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_sim::{AllocationPlan, Prediction, Simulator};
use std::collections::BTreeSet;

/// The cluster sizes worth trying for a static plan: divisors of each
/// stage's trial count (full utilization below it) and multiples of the
/// first stage's trial count (whole GPUs per trial above it), up to
/// `max_gpus_per_trial` per first-stage trial. Sizes in between only add
/// idle GPUs, so they are never cheaper than the next size down.
pub fn static_candidates(spec: &ExperimentSpec, max_gpus_per_trial: u32) -> Vec<u32> {
    let mut set = BTreeSet::new();
    for stage in spec.stages() {
        let t = stage.num_trials;
        for d in 1..=t {
            if t % d == 0 {
                set.insert(d);
            }
        }
    }
    let t0 = spec.initial_trials();
    for k in 1..=max_gpus_per_trial.max(1) {
        set.insert(t0 * k);
    }
    set.into_iter().collect()
}

/// Finds the cost-optimal static allocation meeting `deadline`.
///
/// Returns the plan and its prediction.
///
/// # Errors
///
/// Returns [`RbError::Infeasible`] when no candidate size fits the
/// deadline (the message reports the best JCT found), and propagates
/// simulator errors.
pub fn plan_static_optimal(
    sim: &Simulator,
    spec: &ExperimentSpec,
    deadline: SimDuration,
    max_gpus_per_trial: u32,
) -> Result<(AllocationPlan, Prediction)> {
    let mut plans: Vec<AllocationPlan> = static_candidates(spec, max_gpus_per_trial)
        .into_iter()
        .map(|g| AllocationPlan::flat(g, spec.num_stages()))
        .collect();
    // One batched prediction over all candidate sizes; the keep filter
    // doubles as the pass that tracks the fastest (possibly infeasible)
    // candidate for the error message.
    let mut fastest: Option<Prediction> = None;
    let picked = batch_select(
        sim,
        spec,
        &plans,
        |pred| {
            if fastest.map_or(true, |f| pred.jct < f.jct) {
                fastest = Some(*pred);
            }
            pred.feasible(deadline)
        },
        |a, b| a.cost < b.cost,
    )?;
    match picked {
        Some((i, pred)) => Ok((plans.swap_remove(i), pred)),
        None => Err(RbError::Infeasible {
            reason: format!(
                "no static cluster meets {deadline}; fastest candidate finishes in {}",
                fastest.map_or_else(|| "?".to_string(), |p| p.jct.to_string())
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_cloud::catalog::P3_2XLARGE;
    use rb_cloud::CloudPricing;
    use rb_profile::{CloudProfile, ModelProfile};
    use rb_scaling::IdealScaling;
    use rb_sim::SimConfig;
    use std::sync::Arc;

    fn sim() -> Simulator {
        let model =
            ModelProfile::from_scaling("ideal", Arc::new(IdealScaling::new(4.0, 512)), 1, 0.0, 0.0);
        let cloud = CloudProfile::new(CloudPricing::on_demand(P3_2XLARGE))
            .with_provision_delay(SimDuration::from_secs(10))
            .with_init_latency(SimDuration::from_secs(20));
        Simulator::new(model, cloud).with_config(SimConfig {
            samples: 1,
            seed: 0,
        })
    }

    fn spec() -> ExperimentSpec {
        ExperimentSpec::from_stages(&[(8, 10), (4, 20), (2, 40), (1, 80)]).unwrap()
    }

    #[test]
    fn candidates_cover_divisors_and_multiples() {
        let c = static_candidates(&spec(), 4);
        // Divisors of 8, 4, 2, 1 → {1, 2, 4, 8}; multiples of 8 up to 32.
        assert_eq!(c, vec![1, 2, 4, 8, 16, 24, 32]);
    }

    #[test]
    fn lax_deadline_picks_small_cheap_cluster() {
        // With ideal scaling every size does the same GPU-work; smaller
        // clusters waste less at barriers/minimum charges, so the
        // cost-optimal feasible plan under a huge deadline is tiny.
        let (plan, pred) =
            plan_static_optimal(&sim(), &spec(), SimDuration::from_hours(10), 8).unwrap();
        assert!(plan.gpus(0) <= 2, "picked {plan}");
        assert!(pred.feasible(SimDuration::from_hours(10)));
    }

    #[test]
    fn tight_deadline_forces_larger_cluster() {
        let (lax_plan, _) =
            plan_static_optimal(&sim(), &spec(), SimDuration::from_hours(10), 8).unwrap();
        // Serial-ish JCT at 1 GPU: 8·40+4·80+2·160+320 s ≈ 1280 s; force
        // parallelism with a ~400 s deadline.
        let (tight_plan, pred) =
            plan_static_optimal(&sim(), &spec(), SimDuration::from_secs(400), 8).unwrap();
        assert!(tight_plan.gpus(0) > lax_plan.gpus(0));
        assert!(pred.feasible(SimDuration::from_secs(400)));
    }

    #[test]
    fn impossible_deadline_reports_infeasible() {
        let err = plan_static_optimal(&sim(), &spec(), SimDuration::from_secs(5), 4).unwrap_err();
        match err {
            RbError::Infeasible { reason } => {
                assert!(reason.contains("fastest"), "{reason}");
            }
            other => panic!("expected Infeasible, got {other}"),
        }
    }

    #[test]
    fn static_plans_are_flat() {
        let (plan, _) =
            plan_static_optimal(&sim(), &spec(), SimDuration::from_hours(1), 8).unwrap();
        assert!(plan.is_static());
        assert_eq!(plan.num_stages(), 4);
    }
}
