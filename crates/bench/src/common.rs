//! Shared construction helpers for the simulated experiments (§6.1).

use rb_cloud::catalog::P3_8XLARGE;
use rb_cloud::CloudPricing;
use rb_core::{Result, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_planner::{plan_with_policy, PlannerConfig, Policy};
use rb_profile::{CloudProfile, ModelProfile};
use rb_scaling::zoo::RESNET50;
use rb_scaling::AnalyticScaling;
use rb_sim::{Prediction, SimConfig, Simulator};
use std::sync::Arc;

/// The simulated experiments' cloud: on-demand p3.8xlarge with a 15 s
/// provisioning delay and a configurable instance-initialization latency.
pub fn fig_cloud(init_secs: f64) -> CloudProfile {
    CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs_f64(init_secs))
}

/// The "scaling performance of a ResNet-50 model with a batch size of
/// `batch`" (§6.1) with the per-iteration latency pinned to
/// `mean_unit_secs` and straggler noise `noise_std_secs` — how Figs. 9–12
/// define their workloads.
pub fn synthetic_rn50(batch: u32, mean_unit_secs: f64, noise_std_secs: f64) -> ModelProfile {
    let reference = Arc::new(AnalyticScaling::for_arch(&RESNET50, batch, 4));
    ModelProfile::synthetic(
        format!("ResNet-50 bs={batch} sim"),
        reference,
        mean_unit_secs,
        noise_std_secs,
    )
}

/// Plans `spec` under `policy` and returns its prediction, with a
/// benchmark-friendly Monte-Carlo configuration.
///
/// # Errors
///
/// Propagates planner errors (including infeasibility).
pub fn policy_prediction(
    policy: Policy,
    spec: &ExperimentSpec,
    model: &ModelProfile,
    cloud: &CloudProfile,
    deadline: SimDuration,
) -> Result<Prediction> {
    let sim = Simulator::new(model.clone(), cloud.clone()).with_config(SimConfig {
        samples: 10,
        seed: 0xF16,
    });
    Ok(plan_with_policy(policy, &sim, spec, deadline, &PlannerConfig::default())?.prediction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_hpo::ShaParams;
    use rb_scaling::PlacementQuality;

    #[test]
    fn synthetic_model_pins_latency() {
        let m = synthetic_rn50(512, 4.0, 1.0);
        assert!((m.unit_mean_secs(1, PlacementQuality::Packed) - 4.0).abs() < 1e-9);
        assert_eq!(m.scaling.batch_size(), 512);
    }

    #[test]
    fn policy_prediction_runs_for_all_policies() {
        let spec = ShaParams::new(16, 4, 124).generate().unwrap();
        let m = synthetic_rn50(512, 4.0, 1.0);
        let c = fig_cloud(15.0);
        for p in [Policy::Static, Policy::NaiveElastic, Policy::RubberBand] {
            let pred = policy_prediction(p, &spec, &m, &c, SimDuration::from_mins(60)).unwrap();
            assert!(pred.jct > SimDuration::ZERO);
        }
    }
}
