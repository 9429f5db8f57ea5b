//! Hyperband as a multi-job (Fig. 6's "collection of specifications"):
//! plan every bracket, run them side by side in the tuning service as one
//! tenant's job group, then report the best configuration found and the
//! total bill.
//!
//! Run with: `cargo run --release --example hyperband_multi_job`

use rubberband::prelude::*;
use rubberband::rb_cloud::catalog::P3_8XLARGE;
use rubberband::rb_hpo::{hyperband_brackets, Dim};
use rubberband::rb_train::task::resnet152_cifar100;

fn main() {
    let task = resnet152_cifar100();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15));
    let space = SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .add("weight_decay", Dim::LogUniform { lo: 1e-5, hi: 1e-2 })
        .build()
        .unwrap();

    // Hyperband(R=27, η=3): four brackets from exploratory to committed.
    let brackets = hyperband_brackets(1, 27, 3).unwrap();
    println!(
        "hyperband: {} brackets, R = 27 epochs, η = 3\n",
        brackets.len()
    );

    let jobs = rubberband::hyperband_group_jobs(
        1,
        27,
        3,
        &task,
        &physics,
        &cloud,
        &space,
        SimDuration::from_mins(45),
        0,
        SimTime::ZERO,
        7,
    )
    .unwrap();
    let service = TuningService::new(
        vec![TenantSpec::new("hyperband", 1.0)],
        ServeOptions {
            max_concurrent: jobs.len(),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut outcomes = service.run(jobs).unwrap().outcomes;
    // Jobs are submitted in bracket order.
    outcomes.sort_by_key(|o| o.job);
    for (o, (params, _)) in outcomes.iter().zip(&brackets) {
        println!(
            "bracket {}: SHA(n={}, r={}, R={}) -> JCT {} cost {} best {:.1}%",
            o.job,
            params.n,
            params.r,
            params.big_r,
            o.report.jct,
            o.report.total_cost(),
            o.report.best_accuracy * 100.0
        );
    }
    let winner = outcomes
        .iter()
        .max_by(|a, b| a.report.best_accuracy.total_cmp(&b.report.best_accuracy))
        .unwrap();
    println!(
        "\noverall winner from bracket {}: {:.1}% with {}",
        winner.job,
        winner.report.best_accuracy * 100.0,
        winner.report.best_config
    );
    let total: Cost = outcomes.iter().map(|o| o.report.total_cost()).sum();
    println!("total spend across brackets: {total}");
}
