//! Extensions tour: pre-emptible spot capacity and the dual planning
//! problem (minimum JCT under a cost budget).
//!
//! Run with: `cargo run --release --example spot_and_budget`

use rubberband::prelude::*;
use rubberband::rb_cloud::catalog::P3_8XLARGE;
use rubberband::rb_hpo::{Dim, ShaParams};
use rubberband::rb_planner::plan_min_jct;
use rubberband::rb_scaling::zoo::RESNET50;
use std::sync::Arc;

fn main() {
    let task = rubberband::rb_train::task::resnet101_cifar10();
    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate().unwrap();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let space = SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .add("weight_decay", Dim::LogUniform { lo: 1e-5, hi: 1e-2 })
        .build()
        .unwrap();

    // --- Part 1: spot capacity -------------------------------------------
    println!("=== spot capacity under interruptions ===\n");
    let base = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15));
    let outcome =
        rubberband::compile_plan(&spec, &physics, &base, SimDuration::from_mins(30)).unwrap();
    for (label, spot, rate) in [
        ("on-demand", false, 0.0),
        ("spot, calm market (0.2/h)", true, 0.2),
        ("spot, volatile market (2/h)", true, 2.0),
    ] {
        let mut cloud = base.clone().with_spot_interruptions(rate);
        if spot {
            cloud.pricing = cloud.pricing.with_spot();
        }
        let report =
            rubberband::execute(&spec, &outcome.plan, &task, &physics, &cloud, &space, 7).unwrap();
        println!(
            "{label:<30} JCT {} cost {} ({} interruptions absorbed)",
            report.jct,
            report.total_cost(),
            report.preemptions
        );
    }

    // --- Part 2: minimum JCT under a budget ------------------------------
    println!("\n=== minimum JCT under a cost budget (dual problem) ===\n");
    let reference: rubberband::rb_scaling::SharedScaling =
        Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4));
    let model = ModelProfile::synthetic("rn50-sim", reference, 4.0, 1.0);
    let sim = Simulator::new(model, base.clone());
    let sweep_spec = ShaParams::new(64, 4, 508).generate().unwrap();
    for budget in [7.0, 10.0, 20.0, 40.0] {
        match plan_min_jct(&sim, &sweep_spec, Cost::from_dollars(budget)) {
            Ok((plan, pred)) => println!(
                "budget ${budget:>5.2}: JCT {} at {} with plan {plan}",
                pred.jct, pred.cost
            ),
            Err(e) => println!("budget ${budget:>5.2}: {e}"),
        }
    }
}
