//! Instance-type selection (extension).
//!
//! §3 assumes the user names the instance type; §7 points at Ernest and
//! CherryPick for choosing cloud configurations automatically. Because
//! RubberBand already predicts JCT and cost for any (model profile, cloud
//! profile) pair, selection falls out naturally: plan the job on every
//! candidate type and keep the cheapest feasible result. The scaling
//! profile differs per type (GPUs per node move the communication cliff;
//! accelerator generation moves per-GPU throughput), so each candidate
//! carries its own fitted [`ModelProfile`].

use crate::greedy::{plan_rubberband, GreedyOutcome, PlannerConfig};
use rb_core::{RbError, Result, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_profile::{CloudProfile, ModelProfile};
use rb_sim::{SimConfig, Simulator};

/// One candidate cloud configuration: the machine shape plus the model's
/// fitted scaling on it.
#[derive(Debug, Clone)]
pub struct InstanceCandidate {
    /// Display name (usually the SKU).
    pub name: String,
    /// The model's scaling/latency profile on this machine shape.
    pub model: ModelProfile,
    /// Pricing and provider latencies for this shape.
    pub cloud: CloudProfile,
}

/// The outcome of instance selection: which candidate won and the plans
/// produced for every candidate (for reporting).
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// Index of the winning candidate.
    pub winner: usize,
    /// Per-candidate planning results (`None` when infeasible).
    pub outcomes: Vec<Option<GreedyOutcome>>,
}

/// Plans `spec` on every candidate and returns the cheapest feasible one.
///
/// # Errors
///
/// Returns [`RbError::Infeasible`] when no candidate can meet the
/// deadline; propagates simulator errors.
pub fn select_instance_type(
    candidates: &[InstanceCandidate],
    spec: &ExperimentSpec,
    deadline: SimDuration,
    config: &PlannerConfig,
    sim_config: &SimConfig,
) -> Result<SelectionOutcome> {
    if candidates.is_empty() {
        return Err(RbError::InvalidConfig("no instance candidates".into()));
    }
    let mut outcomes: Vec<Option<GreedyOutcome>> = Vec::with_capacity(candidates.len());
    let mut winner: Option<usize> = None;
    for (i, cand) in candidates.iter().enumerate() {
        let sim =
            Simulator::new(cand.model.clone(), cand.cloud.clone()).with_config(sim_config.clone());
        match plan_rubberband(&sim, spec, deadline, config) {
            Ok(out) => {
                let better = match winner {
                    None => true,
                    Some(w) => {
                        let best: &GreedyOutcome =
                            outcomes[w].as_ref().expect("winner has an outcome");
                        out.prediction.cost < best.prediction.cost
                    }
                };
                outcomes.push(Some(out));
                if better {
                    winner = Some(i);
                }
            }
            Err(RbError::Infeasible { .. }) => outcomes.push(None),
            Err(e) => return Err(e),
        }
    }
    let winner = winner.ok_or_else(|| RbError::Infeasible {
        reason: format!(
            "none of the {} candidate instance types meets {deadline}",
            candidates.len()
        ),
    })?;
    Ok(SelectionOutcome { winner, outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_cloud::catalog::{P3_16XLARGE, P3_2XLARGE, P3_8XLARGE};
    use rb_cloud::CloudPricing;
    use rb_hpo::ShaParams;
    use rb_scaling::zoo::RESNET50;
    use rb_scaling::AnalyticScaling;
    use std::sync::Arc;

    fn candidate(name: &str, ty: rb_cloud::InstanceType, node_gpus: u32) -> InstanceCandidate {
        let scaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, node_gpus));
        InstanceCandidate {
            name: name.into(),
            model: ModelProfile::from_scaling(name, scaling, 10, 2.0, 0.0),
            cloud: CloudProfile::new(CloudPricing::on_demand(ty))
                .with_provision_delay(SimDuration::from_secs(15))
                .with_init_latency(SimDuration::from_secs(15)),
        }
    }

    fn candidates() -> Vec<InstanceCandidate> {
        vec![
            candidate("p3.2xlarge", P3_2XLARGE, 1),
            candidate("p3.8xlarge", P3_8XLARGE, 4),
            candidate("p3.16xlarge", P3_16XLARGE, 8),
        ]
    }

    fn spec() -> ExperimentSpec {
        ShaParams::new(16, 4, 124).generate().unwrap()
    }

    #[test]
    fn selection_returns_cheapest_feasible_candidate() {
        let cands = candidates();
        let out = select_instance_type(
            &cands,
            &spec(),
            SimDuration::from_mins(60),
            &PlannerConfig::default(),
            &SimConfig {
                samples: 3,
                seed: 1,
            },
        )
        .unwrap();
        let costs: Vec<Option<f64>> = out
            .outcomes
            .iter()
            .map(|o| o.as_ref().map(|g| g.prediction.cost.as_dollars()))
            .collect();
        let winner_cost = costs[out.winner].unwrap();
        for c in costs.iter().flatten() {
            assert!(winner_cost <= *c + 1e-9);
        }
    }

    #[test]
    fn impossible_deadline_is_infeasible_for_all() {
        let err = select_instance_type(
            &candidates(),
            &spec(),
            SimDuration::from_secs(5),
            &PlannerConfig::default(),
            &SimConfig {
                samples: 1,
                seed: 1,
            },
        )
        .unwrap_err();
        assert!(matches!(err, RbError::Infeasible { .. }));
    }

    #[test]
    fn empty_candidate_list_is_rejected() {
        let err = select_instance_type(
            &[],
            &spec(),
            SimDuration::from_mins(60),
            &PlannerConfig::default(),
            &SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RbError::InvalidConfig(_)));
    }
}
