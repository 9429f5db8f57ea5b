//! End-to-end integration: profile → plan → execute, across the whole
//! workspace, through the public `rubberband` facade.

use rubberband::prelude::*;
use rubberband::rb_cloud::catalog::P3_8XLARGE;
use rubberband::rb_exec::NoopHook;
use rubberband::rb_hpo::{hyperband_brackets, Dim, ShaParams};
use rubberband::rb_profile::{profile_training, ProfilerConfig};
use rubberband::rb_train::task::resnet101_cifar10;

fn search_space() -> SearchSpace {
    SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .add("weight_decay", Dim::LogUniform { lo: 1e-5, hi: 1e-2 })
        .build()
        .unwrap()
}

fn cloud() -> CloudProfile {
    CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15))
}

/// The full pipeline the paper describes: a profiling step fits the
/// scaling function, the planner compiles a plan from the *fitted*
/// profile, and execution runs on the ground truth.
#[test]
fn profile_plan_execute_pipeline() {
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
    let mut model = profiled.profile;
    model.train_startup_secs = 5.0;

    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate().unwrap();
    let deadline = SimDuration::from_mins(20);
    let outcome = rubberband::compile_plan(&spec, &model, &cloud(), deadline).unwrap();
    assert!(outcome.prediction.feasible(deadline));

    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let report = rubberband::execute(
        &spec,
        &outcome.plan,
        &task,
        &physics,
        &cloud(),
        &search_space(),
        1,
    )
    .unwrap();

    // The executed run should land close to the planner's prediction
    // (Table 2's sim-vs-real fidelity): within 10% on both axes.
    let jct_err = (report.jct.as_secs_f64() - outcome.prediction.jct.as_secs_f64()).abs()
        / outcome.prediction.jct.as_secs_f64();
    let cost_err = (report.total_cost().as_dollars() - outcome.prediction.cost.as_dollars()).abs()
        / outcome.prediction.cost.as_dollars();
    assert!(jct_err < 0.10, "JCT error {jct_err}");
    assert!(cost_err < 0.10, "cost error {cost_err}");

    // And the tuning result is a good model: high-80s accuracy with a
    // near-optimal learning rate (Table 2's accuracy column).
    assert!(
        (0.85..0.95).contains(&report.best_accuracy),
        "accuracy {}",
        report.best_accuracy
    );
    let lr = report.best_config.get_f64("lr").unwrap();
    assert!((lr / task.lr_opt).log10().abs() < 1.0);
}

/// The planner's Table 3 artifact: for the paper's exact workload the
/// greedy planner reproduces the published front-loaded schedule.
#[test]
fn planner_recovers_table3_schedule() {
    let task = resnet101_cifar10();
    // Plan from the *profiled* model, exactly as the system runs (§5).
    let truth = AnalyticScaling::for_arch(&task.arch, 1024, 4);
    let mut model = profile_training(
        &truth,
        task.steps_per_iter(1024),
        5.0,
        &ProfilerConfig {
            max_gpus: 32,
            ..ProfilerConfig::default()
        },
    )
    .unwrap()
    .profile;
    model.train_startup_secs = 5.0;
    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate().unwrap();
    let outcome =
        rubberband::compile_plan(&spec, &model, &cloud(), SimDuration::from_mins(20)).unwrap();
    // Paper Table 3: 32, 20, 12, 8 GPUs (8, 5, 3, 2 p3.8xlarge instances).
    assert_eq!(outcome.plan.as_slice(), &[32, 20, 12, 8]);
    let rows = rubberband::rb_planner::render_schedule(&spec, &outcome.plan, 4);
    let gpt: Vec<u32> = rows.iter().map(|r| r.gpus_per_trial).collect();
    assert_eq!(gpt, vec![1, 2, 4, 8]);
}

/// Hyperband runs as a multi-job: every bracket is planned and executed
/// independently, and the overall winner comes from some bracket.
#[test]
fn hyperband_multi_job_execution() {
    let task = resnet101_cifar10();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let cloud = cloud();
    let space = search_space();
    let brackets = hyperband_brackets(1, 27, 3).unwrap();
    assert_eq!(brackets.len(), 4);
    let mut best: Option<(f64, Config)> = None;
    let mut total_cost = Cost::ZERO;
    for (i, (_, spec)) in brackets.iter().enumerate() {
        let outcome =
            rubberband::compile_plan(spec, &physics, &cloud, SimDuration::from_mins(30)).unwrap();
        let report = rubberband::execute(
            spec,
            &outcome.plan,
            &task,
            &physics,
            &cloud,
            &space,
            100 + i as u64,
        )
        .unwrap();
        total_cost += report.total_cost();
        if best
            .as_ref()
            .map_or(true, |(a, _)| report.best_accuracy > *a)
        {
            best = Some((report.best_accuracy, report.best_config.clone()));
        }
    }
    let (acc, cfg) = best.unwrap();
    assert!(acc > 0.75, "hyperband winner reached {acc}");
    assert!(cfg.get_f64("lr").is_some());
    assert!(total_cost > Cost::ZERO);
}

/// Checkpoint/migrate/restore does not corrupt learning curves: a plan
/// with heavy reallocation reaches the same winner accuracy as a static
/// one (same seed ⇒ same configurations and noise streams).
#[test]
fn migration_preserves_training_state() {
    let task = resnet101_cifar10();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let spec = ShaParams::new(8, 1, 8).generate().unwrap();
    let space = search_space();
    let run = |plan: Vec<u32>| {
        rubberband::execute(
            &spec,
            &AllocationPlan::new(plan),
            &task,
            &physics,
            &cloud(),
            &space,
            9,
        )
        .unwrap()
    };
    let static_run = run(vec![8, 8, 8, 8]);
    let elastic_run = run(vec![8, 8, 4, 4]);
    assert_eq!(static_run.best_trial, elastic_run.best_trial);
    assert_eq!(static_run.best_accuracy, elastic_run.best_accuracy);
}

/// Spot pricing scales every bill down by the spot/on-demand ratio
/// without changing schedules.
#[test]
fn spot_pricing_scales_cost() {
    let task = resnet101_cifar10();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let spec = ShaParams::new(8, 1, 8).generate().unwrap();
    let space = search_space();
    let run = |spot: bool| {
        let mut c = cloud();
        if spot {
            c.pricing = c.pricing.with_spot();
        }
        rubberband::execute(
            &spec,
            &AllocationPlan::new(vec![8, 4, 4, 4]),
            &task,
            &physics,
            &c,
            &space,
            9,
        )
        .unwrap()
    };
    let od = run(false);
    let spot = run(true);
    assert_eq!(od.jct, spot.jct);
    let ratio = spot.total_cost().as_dollars() / od.total_cost().as_dollars();
    assert!((ratio - 0.30).abs() < 0.01, "spot ratio {ratio}");
}

/// Spot capacity with aggressive interruptions still finishes the job,
/// counts its preemptions, and remains cheaper than on-demand at these
/// rates; the tuning outcome is unchanged.
#[test]
fn spot_interruptions_end_to_end() {
    use rubberband::rb_exec::ExecOptions;
    let task = resnet101_cifar10();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let spec = ShaParams::new(8, 1, 8).generate().unwrap();
    let space = search_space();
    let run = |rate: f64, spot: bool| {
        let mut c = cloud().with_spot_interruptions(rate);
        if spot {
            c.pricing = c.pricing.with_spot();
        }
        Run {
            spec: &spec,
            plan: &AllocationPlan::new(vec![8, 4, 4, 4]),
            task: &task,
            physics: &physics,
            cloud: &c,
            space: &space,
            options: ExecOptions {
                seed: 5,
                ..ExecOptions::default()
            },
        }
        .execute(&mut NoopHook, &RecorderHandle::noop())
        .unwrap()
    };
    let od = run(0.0, false);
    let calm = run(0.5, true);
    let stormy = run(25.0, true);
    assert!(stormy.preemptions > 0);
    assert!(stormy.jct >= od.jct);
    // A calm spot market keeps most of the 70% discount...
    assert!(
        calm.total_cost() < od.total_cost() * 0.5,
        "calm spot {} vs on-demand {}",
        calm.total_cost(),
        od.total_cost()
    );
    // ...while a stormy one pays for lost work and replacements.
    assert!(stormy.total_cost() > calm.total_cost());
    // The tuning outcome is unchanged either way.
    assert_eq!(stormy.best_trial, od.best_trial);
    assert_eq!(stormy.best_accuracy, od.best_accuracy);
}

/// The warm pool accelerates re-growth without changing tuning results.
#[test]
fn warm_pool_end_to_end() {
    use rubberband::rb_exec::ExecOptions;
    let task = resnet101_cifar10();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    // Shrink then re-grow.
    let spec = rubberband::rb_hpo::ExperimentSpec::from_stages(&[(8, 2), (4, 4), (2, 8)]).unwrap();
    let plan = AllocationPlan::new(vec![8, 2, 8]);
    let space = search_space();
    let cloud = cloud()
        .with_provision_delay(SimDuration::from_secs(30))
        .with_init_latency(SimDuration::from_secs(60));
    let run = |warm: usize| {
        Run {
            spec: &spec,
            plan: &plan,
            task: &task,
            physics: &physics,
            cloud: &cloud,
            space: &space,
            options: ExecOptions {
                seed: 2,
                warm_pool: warm,
                warm_hold_secs: 3600.0,
                ..ExecOptions::default()
            },
        }
        .execute(&mut NoopHook, &RecorderHandle::noop())
        .unwrap()
    };
    let cold = run(0);
    let warm = run(2);
    assert!(
        warm.jct.as_secs_f64() < cold.jct.as_secs_f64() - 60.0,
        "warm {} vs cold {}",
        warm.jct,
        cold.jct
    );
    assert!(warm.instances_provisioned < cold.instances_provisioned);
    assert_eq!(warm.best_accuracy, cold.best_accuracy);
}
