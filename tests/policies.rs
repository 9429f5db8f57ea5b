//! Policy-comparison shape tests: the qualitative claims of §6, asserted
//! at test scale. Each test mirrors one simulated-experiment mechanism
//! (Figs. 9–12) so regressions in the planner or cost model surface as
//! shape violations, not just number drift.

use rubberband::prelude::*;
use rubberband::rb_cloud::catalog::P3_8XLARGE;
use rubberband::rb_hpo::ShaParams;
use rubberband::rb_scaling::zoo::RESNET50;
use std::sync::Arc;

fn cloud() -> CloudProfile {
    CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15))
}

/// A synthetic ResNet-50-shaped workload with a pinned unit latency, as
/// the paper's simulated experiments construct them (§6.1: "training
/// latency sampled from a normal distribution with μ = 4 seconds").
fn model(mean_unit_secs: f64, noise_std: f64) -> ModelProfile {
    let reference = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4));
    ModelProfile::synthetic("sha-sim", reference, mean_unit_secs, noise_std)
}

/// The Fig. 9 / Fig. 11 workload: SHA(n=64, r=4, R=508).
fn fig_spec(n: u32) -> ExperimentSpec {
    ShaParams::new(n, 4, 508).generate().unwrap()
}

fn plan_cost(
    policy: Policy,
    spec: &ExperimentSpec,
    m: &ModelProfile,
    c: &CloudProfile,
    deadline: SimDuration,
) -> Cost {
    rubberband::compile_plan_with(policy, spec, m, c, deadline, &PlannerConfig::default())
        .unwrap()
        .prediction
        .cost
}

/// RubberBand never does worse than the optimal static allocation — the
/// §4.3 guarantee — across a sweep of deadlines.
#[test]
fn rubberband_dominates_static_across_deadlines() {
    let spec = fig_spec(64);
    let m = model(4.0, 1.0);
    let c = cloud();
    for mins in [15u64, 20, 30, 60, 120] {
        let d = SimDuration::from_mins(mins);
        let rb = plan_cost(Policy::RubberBand, &spec, &m, &c, d);
        let st = plan_cost(Policy::Static, &spec, &m, &c, d);
        assert!(rb <= st, "{mins} min: rubberband {rb} > static {st}");
    }
}

/// The elastic advantage grows as the deadline tightens and shrinks as it
/// relaxes (Table 2 / Fig. 12's trend).
#[test]
fn elastic_advantage_grows_with_tightness() {
    let spec = fig_spec(64);
    let m = model(4.0, 1.0);
    let c = cloud();
    let ratio = |mins: u64| {
        let d = SimDuration::from_mins(mins);
        let st = plan_cost(Policy::Static, &spec, &m, &c, d).as_dollars();
        let rb = plan_cost(Policy::RubberBand, &spec, &m, &c, d).as_dollars();
        st / rb
    };
    let tight = ratio(15);
    let lax = ratio(120);
    assert!(
        tight >= lax - 1e-9,
        "tight-deadline ratio {tight} < lax ratio {lax}"
    );
    assert!(tight > 1.15, "no meaningful advantage at 15 min: {tight}");
}

/// Fig. 11's mechanism: the gap between static and elastic widens as the
/// number of trials (available parallelism) grows.
#[test]
fn advantage_grows_with_trial_count() {
    let m = model(4.0, 1.0);
    let c = cloud();
    let gap = |n: u32| {
        let spec = fig_spec(n);
        let d = SimDuration::from_mins(40);
        let st = plan_cost(Policy::Static, &spec, &m, &c, d).as_dollars();
        let rb = plan_cost(Policy::RubberBand, &spec, &m, &c, d).as_dollars();
        st - rb
    };
    let small = gap(16);
    let large = gap(128);
    assert!(
        large > small,
        "absolute saving should grow with trials: {small} vs {large}"
    );
}

/// Fig. 10's mechanism: as data-ingress pricing rises, the *relative*
/// benefit of elasticity shrinks (data cost hits both policies roughly
/// equally), yet the elastic policy never loses.
#[test]
fn data_price_dilutes_but_never_inverts_benefit() {
    let spec = fig_spec(64);
    let m = model(4.0, 1.0);
    let d = SimDuration::from_mins(20);
    let ratio = |price_per_gb: f64, gb: f64| {
        let mut c = cloud().with_dataset_gb(gb);
        c.pricing = c.pricing.with_data_price(Cost::from_dollars(price_per_gb));
        let st = plan_cost(Policy::Static, &spec, &m, &c, d).as_dollars();
        let rb = plan_cost(Policy::RubberBand, &spec, &m, &c, d).as_dollars();
        st / rb
    };
    let free_data = ratio(0.0, 150.0);
    let pricey_imagenet = ratio(0.16, 150.0);
    let pricey_cifar = ratio(0.16, 0.15);
    assert!(
        pricey_imagenet < free_data,
        "ImageNet at $0.16/GB should dilute the ratio: {pricey_imagenet} vs {free_data}"
    );
    assert!(pricey_imagenet >= 0.999, "elastic never loses");
    // A small dataset leaves the benefit intact.
    assert!(pricey_cifar > pricey_imagenet);
}

/// Fig. 12's mechanism: initialization latency erodes the elastic
/// advantage because mid-job scale-ups (and big short-lived clusters)
/// price in the overhead.
#[test]
fn init_latency_erodes_elastic_advantage() {
    let spec = fig_spec(64);
    let d = SimDuration::from_mins(20);
    let ratio = |init_secs: u64| {
        let c = cloud()
            .with_provision_delay(SimDuration::from_secs(15))
            .with_init_latency(SimDuration::from_secs(init_secs));
        let m = model(4.0, 1.0);
        let st = plan_cost(Policy::Static, &spec, &m, &c, d).as_dollars();
        let rb = plan_cost(Policy::RubberBand, &spec, &m, &c, d).as_dollars();
        st / rb
    };
    let fast = ratio(1);
    let slow = ratio(100);
    assert!(
        fast >= slow - 1e-9,
        "ratio should not grow with init latency: {fast} vs {slow}"
    );
    assert!(
        slow >= 0.999,
        "elastic never loses (it can fall back to static)"
    );
}

/// The naive elastic baseline (fixed GPUs per trial) is never better than
/// RubberBand, and at tight deadlines it over-provisions early stages
/// (§6.3.1's 512-GPU pathology).
#[test]
fn naive_elastic_is_dominated_and_overprovisions() {
    let spec = fig_spec(64);
    let m = model(4.0, 1.0);
    let c = cloud();
    let d = SimDuration::from_mins(15);
    let cfg = PlannerConfig::default();
    let rb = rubberband::compile_plan_with(Policy::RubberBand, &spec, &m, &c, d, &cfg).unwrap();
    let ne = rubberband::compile_plan_with(Policy::NaiveElastic, &spec, &m, &c, d, &cfg).unwrap();
    assert!(rb.prediction.cost <= ne.prediction.cost);
    // The naive plan buys the final stage's per-trial share for every one
    // of the 64 first-stage trials.
    assert!(ne.plan.gpus(0) >= rb.plan.gpus(0));
}

/// Per-function billing collapses the straggler penalty (Fig. 9): with
/// heavy latency variance, per-instance bills grow sharply while
/// per-function bills barely move. Tested against a fixed full-parallel
/// plan so the mechanism is isolated from planner choices.
#[test]
fn billing_model_controls_straggler_penalty() {
    let spec = fig_spec(64);
    let plan = AllocationPlan::flat(64, spec.num_stages());
    let cost = |noise: f64, per_function: bool| {
        let mut c = cloud().with_init_latency(SimDuration::from_secs(0));
        if per_function {
            c.pricing = c.pricing.with_per_function_billing();
        }
        let sim = Simulator::new(model(4.0, noise), c).with_config(SimConfig {
            samples: 40,
            seed: 17,
        });
        sim.predict(&spec, &plan).unwrap().cost.as_dollars()
    };
    let pi_growth = cost(8.0, false) / cost(1.0, false);
    let pf_growth = cost(8.0, true) / cost(1.0, true);
    assert!(
        pi_growth > pf_growth + 0.15,
        "per-instance growth {pi_growth} not clearly above per-function {pf_growth}"
    );
}
