//! Planning for the paper's multi-job (Fig. 6): a Hyperband run as a
//! collection of SHA brackets executed side by side, each on its own
//! cluster. Every bracket is planned under the full shared deadline, so
//! the group's JCT is the slowest bracket's.

use rb_core::{Result, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_planner::{plan_rubberband, GreedyOutcome, PlannerConfig};
use rb_sim::Simulator;

/// Plans each of `brackets` with [`plan_rubberband`] under `deadline`, in
/// input order on the one simulator `sim`: later brackets start from the
/// caches earlier ones warmed, which never changes a selection.
///
/// # Errors
///
/// Propagates the first bracket's planning error (one that cannot meet
/// the deadline).
pub(crate) fn plan_brackets(
    sim: &Simulator,
    brackets: &[ExperimentSpec],
    deadline: SimDuration,
) -> Result<Vec<GreedyOutcome>> {
    brackets
        .iter()
        .map(|spec| plan_rubberband(sim, spec, deadline, &PlannerConfig::default()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_cloud::catalog::P3_8XLARGE;
    use rb_cloud::CloudPricing;
    use rb_hpo::hyperband_brackets;
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

    fn brackets() -> Vec<ExperimentSpec> {
        hyperband_brackets(1, 27, 3)
            .unwrap()
            .into_iter()
            .map(|(_, s)| s)
            .collect()
    }

    #[test]
    fn concurrent_multi_job_fits_deadline_per_bracket() {
        let deadline = SimDuration::from_mins(90);
        let plans = plan_brackets(&sim(), &brackets(), deadline).unwrap();
        assert_eq!(plans.len(), 4);
        // Side by side, the group finishes with its slowest bracket.
        let jct = plans.iter().map(|o| o.prediction.jct).max().unwrap();
        assert!(jct <= deadline);
        for out in &plans {
            assert!(out.prediction.feasible(deadline));
        }
    }

    #[test]
    fn each_bracket_plans_as_it_would_alone() {
        // The brackets share one simulator's warm caches, in input order;
        // each must still select what a fresh simulator selects for it
        // under the same deadline.
        let deadline = SimDuration::from_mins(90);
        let config = PlannerConfig::default();
        let plans = plan_brackets(&sim(), &brackets(), deadline).unwrap();
        assert_eq!(plans.len(), brackets().len());
        for (i, (bracket, out)) in brackets().iter().zip(&plans).enumerate() {
            let alone = plan_rubberband(&sim(), bracket, deadline, &config).unwrap();
            assert_eq!(out.plan, alone.plan, "bracket {i}");
            assert_eq!(out.prediction, alone.prediction, "bracket {i}");
            assert_eq!(out.steps, alone.steps, "bracket {i}");
        }
    }
}
