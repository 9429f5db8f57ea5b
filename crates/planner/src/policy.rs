//! The three allocation policies evaluated in §6, behind one interface.

use crate::greedy::{plan_rubberband, PlannerConfig, MAX_GPUS_PER_TRIAL};
use crate::naive::plan_naive_elastic;
use crate::static_planner::plan_static_optimal;
use rb_core::{Result, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_sim::{AllocationPlan, Prediction, Simulator};
use std::fmt;

/// Which planner produces the allocation plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Cost-optimal fixed-size cluster (§3.2).
    Static,
    /// Elastic cluster with a fixed per-trial allocation (§6.3.1).
    NaiveElastic,
    /// RubberBand's greedy elastic planner (§4.3).
    RubberBand,
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Static => write!(f, "static"),
            Policy::NaiveElastic => write!(f, "naive-elastic"),
            Policy::RubberBand => write!(f, "rubberband"),
        }
    }
}

/// A planned execution: the plan, its prediction, and which policy made it.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The policy that produced the plan.
    pub policy: Policy,
    /// The allocation plan.
    pub plan: AllocationPlan,
    /// Predicted JCT and cost.
    pub prediction: Prediction,
}

/// Plans `spec` under `policy`.
///
/// # Errors
///
/// Returns [`rb_core::RbError::Infeasible`] when the policy cannot meet
/// the deadline; propagates simulator errors.
pub fn plan_with_policy(
    policy: Policy,
    sim: &Simulator,
    spec: &ExperimentSpec,
    deadline: SimDuration,
    config: &PlannerConfig,
) -> Result<PlanOutcome> {
    let (plan, prediction) = match policy {
        Policy::Static => plan_static_optimal(sim, spec, deadline, MAX_GPUS_PER_TRIAL)?,
        Policy::NaiveElastic => plan_naive_elastic(sim, spec, deadline, MAX_GPUS_PER_TRIAL)?,
        Policy::RubberBand => {
            let out = plan_rubberband(sim, spec, deadline, config)?;
            (out.plan, out.prediction)
        }
    };
    Ok(PlanOutcome {
        policy,
        plan,
        prediction,
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
    fn all_policies_produce_feasible_plans() {
        let s = sim();
        let deadline = SimDuration::from_mins(90);
        for policy in [Policy::Static, Policy::NaiveElastic, Policy::RubberBand] {
            let out =
                plan_with_policy(policy, &s, &spec(), deadline, &PlannerConfig::default()).unwrap();
            assert!(out.prediction.feasible(deadline), "{policy} infeasible");
            assert_eq!(out.policy, policy);
        }
    }

    #[test]
    fn rubberband_is_cheapest_policy() {
        // The paper's headline ordering at a moderately tight deadline:
        // RubberBand ≤ static, RubberBand ≤ naive elastic.
        let s = sim();
        let deadline = SimDuration::from_mins(60);
        let cfg = PlannerConfig::default();
        let rb = plan_with_policy(Policy::RubberBand, &s, &spec(), deadline, &cfg).unwrap();
        let st = plan_with_policy(Policy::Static, &s, &spec(), deadline, &cfg).unwrap();
        let ne = plan_with_policy(Policy::NaiveElastic, &s, &spec(), deadline, &cfg).unwrap();
        assert!(rb.prediction.cost <= st.prediction.cost);
        assert!(rb.prediction.cost <= ne.prediction.cost);
    }

    #[test]
    fn policy_display_names() {
        assert_eq!(Policy::Static.to_string(), "static");
        assert_eq!(Policy::NaiveElastic.to_string(), "naive-elastic");
        assert_eq!(Policy::RubberBand.to_string(), "rubberband");
    }
}
