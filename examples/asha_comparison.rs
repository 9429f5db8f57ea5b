//! RubberBand vs ASHA (§7): the same tuning problem, same budget, run
//! through RubberBand's planned elastic execution and through ASHA's
//! asynchronous promotion over fixed clusters.
//!
//! Run with: `cargo run --release --example asha_comparison`

use rubberband::prelude::*;
use rubberband::rb_cloud::catalog::P3_8XLARGE;
use rubberband::rb_exec::{run_asha, AshaConfig};
use rubberband::rb_hpo::{Dim, ShaParams};

fn main() {
    let task = rubberband::rb_train::task::resnet101_cifar10();
    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate().unwrap();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15));
    let space = SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .add("weight_decay", Dim::LogUniform { lo: 1e-5, hi: 1e-2 })
        .build()
        .unwrap();
    let deadline = SimDuration::from_mins(20);

    // RubberBand: plan, then execute elastically.
    let outcome = rubberband::compile_plan(&spec, &physics, &cloud, deadline).unwrap();
    let rb = rubberband::execute(&spec, &outcome.plan, &task, &physics, &cloud, &space, 1).unwrap();
    println!(
        "RubberBand {:<18} -> {:>6.1}% for {} ({} trials, util {:.0}%)",
        outcome.plan.to_string(),
        rb.best_accuracy * 100.0,
        rb.total_cost(),
        32,
        rb.utilization.unwrap_or(0.0) * 100.0
    );

    // ASHA on fixed clusters.
    for (gpus, gpt) in [(32u32, 1u32), (32, 4), (64, 4)] {
        let report = run_asha(
            &task,
            &physics,
            &cloud,
            &space,
            &AshaConfig {
                eta: 3,
                r: 1,
                big_r: 50,
                gpus_per_trial: gpt,
                cluster_gpus: gpus,
                deadline,
                initial_trials: 32,
                seed: 1,
            },
        )
        .unwrap();
        println!(
            "ASHA {gpus:>3} GPUs x {gpt}/trial    -> {:>6.1}% for {} ({} trials, busy {:.0}%)",
            report.best_accuracy * 100.0,
            report.cost,
            report.trials_sampled,
            report.busy_fraction * 100.0
        );
    }
    println!("\nASHA keeps its fixed pool busy by sampling ever more configurations,");
    println!("but under a deadline that budget is better spent finishing the top");
    println!("tier — which the elastic plan does at a fraction of the cost (§7).");
}
