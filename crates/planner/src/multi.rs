//! Multi-job planning: Hyperband bracket collections (Fig. 6).
//!
//! "A single specification can express a successive halving job, whereas a
//! collection of them can specify Hyperband-based methods as a multi-job."
//! Each bracket is an independent SHA job; RubberBand plans each one
//! separately. Two execution disciplines are supported:
//!
//! * **concurrent** — brackets run side by side on disjoint clusters, all
//!   meeting the shared deadline; total cost is the sum and JCT the max.
//! * **sequential** — brackets run back to back on one (elastic) cluster;
//!   the shared deadline is split across brackets in proportion to each
//!   bracket's cheapest-feasible JCT, then each bracket is planned within
//!   its slice.
//!
//! Brackets are planned one after another, in input order, on one
//! simulator: later brackets start from the caches earlier ones warmed,
//! which never changes a selection.

use crate::greedy::{plan_rubberband, GreedyOutcome, PlannerConfig};
use rb_core::{Cost, RbError, Result, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_sim::Simulator;

/// How the brackets of a multi-job share the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiJobDiscipline {
    /// All brackets run concurrently; each gets the full deadline.
    Concurrent,
    /// Brackets run one after another; the deadline is divided between
    /// them in proportion to their minimal feasible completion times.
    Sequential,
}

/// A planned multi-job.
#[derive(Debug, Clone)]
pub struct MultiJobPlan {
    /// Per-bracket planning outcomes, in input order.
    pub brackets: Vec<GreedyOutcome>,
    /// Per-bracket deadlines used (equal to the shared deadline when
    /// concurrent).
    pub bracket_deadlines: Vec<SimDuration>,
    /// Total predicted cost across brackets.
    pub total_cost: Cost,
    /// Predicted completion time of the whole multi-job.
    pub jct: SimDuration,
}

/// Plans every bracket of a Hyperband-style multi-job under a shared
/// deadline.
///
/// # Errors
///
/// Returns [`RbError::InvalidSpec`] for an empty bracket list and
/// [`RbError::Infeasible`] when a bracket cannot meet its share of the
/// deadline.
pub fn plan_multi_job(
    sim: &Simulator,
    brackets: &[ExperimentSpec],
    deadline: SimDuration,
    discipline: MultiJobDiscipline,
    config: &PlannerConfig,
) -> Result<MultiJobPlan> {
    if brackets.is_empty() {
        return Err(RbError::InvalidSpec("multi-job has no brackets".into()));
    }
    let deadlines: Vec<SimDuration> = match discipline {
        MultiJobDiscipline::Concurrent => vec![deadline; brackets.len()],
        MultiJobDiscipline::Sequential => {
            // Split the deadline proportionally to each bracket's minimal
            // feasible JCT (probed by planning under the full deadline).
            // The first bracket that cannot meet it fails the multi-job.
            let mins = brackets
                .iter()
                .map(|bracket| {
                    let probe = plan_rubberband(sim, bracket, deadline, config)?;
                    Ok(probe.prediction.jct.as_secs_f64().max(1.0))
                })
                .collect::<Result<Vec<f64>>>()?;
            let total: f64 = mins.iter().sum();
            if total > deadline.as_secs_f64() {
                return Err(RbError::Infeasible {
                    reason: format!(
                        "brackets need at least {:.0} s back to back, deadline is {deadline}",
                        total
                    ),
                });
            }
            mins.iter().map(|m| deadline.mul_f64(m / total)).collect()
        }
    };
    let outs = brackets
        .iter()
        .zip(&deadlines)
        .map(|(bracket, &d)| plan_rubberband(sim, bracket, d, config))
        .collect::<Result<Vec<GreedyOutcome>>>()?;
    let total_cost = outs.iter().map(|o| o.prediction.cost).sum();
    let jcts = outs.iter().map(|o| o.prediction.jct);
    let jct = match discipline {
        MultiJobDiscipline::Concurrent => jcts.max().unwrap_or(SimDuration::ZERO),
        MultiJobDiscipline::Sequential => jcts.sum(),
    };
    Ok(MultiJobPlan {
        brackets: outs,
        bracket_deadlines: deadlines,
        total_cost,
        jct,
    })
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
        let plan = plan_multi_job(
            &sim(),
            &brackets(),
            SimDuration::from_mins(90),
            MultiJobDiscipline::Concurrent,
            &PlannerConfig::default(),
        )
        .unwrap();
        assert_eq!(plan.brackets.len(), 4);
        assert!(plan.jct <= SimDuration::from_mins(90));
        for out in &plan.brackets {
            assert!(out.prediction.feasible(SimDuration::from_mins(90)));
        }
        let sum: Cost = plan.brackets.iter().map(|o| o.prediction.cost).sum();
        assert_eq!(plan.total_cost, sum);
    }

    #[test]
    fn sequential_multi_job_splits_the_deadline() {
        let plan = plan_multi_job(
            &sim(),
            &brackets(),
            SimDuration::from_hours(6),
            MultiJobDiscipline::Sequential,
            &PlannerConfig::default(),
        )
        .unwrap();
        let split: SimDuration = plan.bracket_deadlines.iter().copied().sum();
        assert!(split <= SimDuration::from_hours(6) + SimDuration::from_secs(1));
        // End-to-end JCT is the sum of the brackets'.
        let sum: SimDuration = plan.brackets.iter().map(|o| o.prediction.jct).sum();
        assert_eq!(plan.jct, sum);
        assert!(plan.jct <= SimDuration::from_hours(6));
    }

    #[test]
    fn each_bracket_plans_as_it_would_alone() {
        // The brackets share one simulator's warm caches, in input order;
        // each must still select what a fresh simulator selects for it
        // under the same bracket deadline.
        for (discipline, deadline) in [
            (MultiJobDiscipline::Concurrent, SimDuration::from_mins(90)),
            (MultiJobDiscipline::Sequential, SimDuration::from_hours(6)),
        ] {
            let config = PlannerConfig::default();
            let multi = plan_multi_job(&sim(), &brackets(), deadline, discipline, &config).unwrap();
            assert_eq!(multi.brackets.len(), brackets().len());
            for ((bracket, out), &d) in brackets()
                .iter()
                .zip(&multi.brackets)
                .zip(&multi.bracket_deadlines)
            {
                let alone = plan_rubberband(&sim(), bracket, d, &config).unwrap();
                assert_eq!(out.plan, alone.plan, "{discipline:?}");
                assert_eq!(out.prediction, alone.prediction, "{discipline:?}");
                assert_eq!(out.steps, alone.steps, "{discipline:?}");
            }
        }
    }

    #[test]
    fn sequential_infeasible_when_brackets_cannot_chain() {
        let err = plan_multi_job(
            &sim(),
            &brackets(),
            SimDuration::from_mins(6),
            MultiJobDiscipline::Sequential,
            &PlannerConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RbError::Infeasible { .. } | RbError::InvalidSpec(_)
        ));
    }

    #[test]
    fn empty_bracket_list_is_rejected() {
        assert!(plan_multi_job(
            &sim(),
            &[],
            SimDuration::from_mins(10),
            MultiJobDiscipline::Concurrent,
            &PlannerConfig::default(),
        )
        .is_err());
    }
}
