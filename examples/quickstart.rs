//! Quickstart: the Fig. 6 workflow end to end.
//!
//! Build an SHA experiment spec, profile the model, compile a
//! cost-efficient elastic plan under a deadline, execute it on the
//! simulated cloud, and print the resulting schedule, bill and winner.
//!
//! Run with: `cargo run --release --example quickstart`

use rubberband::prelude::*;
use rubberband::rb_cloud::catalog::P3_8XLARGE;
use rubberband::rb_hpo::{Dim, ShaParams};
use rubberband::rb_planner::render_schedule;
use rubberband::rb_profile::{profile_training, ProfilerConfig};
use rubberband::rb_train::task::resnet101_cifar10;

fn main() {
    // 1. The tuning job: SHA(n=32, r=1, R=50, η=3) — Table 2's workload.
    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate().unwrap();
    println!(
        "experiment: {} stages, {} initial trials, survivor trains {} epochs",
        spec.num_stages(),
        spec.initial_trials(),
        spec.max_iters()
    );

    // 2. Profile the model's scaling (the paper's pre-execution step).
    let task = resnet101_cifar10();
    let truth = AnalyticScaling::for_arch(&task.arch, 1024, 4);
    let profiled = profile_training(
        &truth,
        task.steps_per_iter(1024),
        5.0,
        &ProfilerConfig {
            max_gpus: 32,
            ..ProfilerConfig::default()
        },
    )
    .unwrap();
    println!(
        "profiling took {:.0} GPU-seconds ({:.0} s wall)",
        profiled.profiling_gpu_seconds, profiled.profiling_wall_seconds
    );
    let mut model = profiled.profile;
    model.train_startup_secs = 5.0;

    // 3. The target cloud: on-demand p3.8xlarge, 15 s provision + 15 s init.
    let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15));

    // 4. Compile a plan under a 20-minute deadline.
    let deadline = SimDuration::from_mins(20);
    let outcome = rubberband::compile_plan(&spec, &model, &cloud, deadline).unwrap();
    println!("\nplan: {}", outcome.plan);
    println!(
        "predicted: JCT {} at {}",
        outcome.prediction.jct, outcome.prediction.cost
    );
    println!("\ncluster schedule (cf. paper Table 3):");
    println!(
        "{:>11} {:>6} {:>9} {:>12}",
        "epochs", "trials", "GPUs/trial", "cluster size"
    );
    for row in render_schedule(&spec, &outcome.plan, 4) {
        let (from, to) = row.epoch_range;
        println!(
            "{from:>5}-{to:<5} {:>6} {:>9} {:>12}",
            row.trials, row.gpus_per_trial, row.cluster_size
        );
    }

    // 5. Execute it for real (event-accurate simulation) on a search space.
    let space = SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .add("weight_decay", Dim::LogUniform { lo: 1e-5, hi: 1e-2 })
        .build()
        .unwrap();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let report =
        rubberband::execute(&spec, &outcome.plan, &task, &physics, &cloud, &space, 42).unwrap();
    println!("\nexecuted: JCT {} at {}", report.jct, report.total_cost());
    println!(
        "winner: {} with accuracy {:.1}% (config {})",
        report.best_trial,
        report.best_accuracy * 100.0,
        report.best_config
    );
    println!(
        "instances provisioned: {}, migrations: {}, utilization: {:.0}%",
        report.instances_provisioned,
        report.migrations,
        report.utilization.unwrap_or(0.0) * 100.0
    );
    println!("\n{}", rubberband::rb_exec::render_timeline(&report, 48));
}
