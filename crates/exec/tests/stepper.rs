//! Bit-identity suite for the steppable executor core.
//!
//! `Executor::run_observed` (and `Executor::run`, which calls it with a
//! no-op hook and recorder) is a thin driver over [`ExecutorCore`]:
//! construct, step until [`StepOutcome::Finished`], finish. So a
//! manually driven core must be **byte-equal** to the driver — same
//! report, same trace, same counters — in every cell: plain, hook-armed,
//! recorded, and chaos-enabled. These tests pin that contract; the multi-tenant
//! service (`rb-serve`) depends on it to interleave jobs without
//! perturbing them.

use rb_cloud::catalog::P3_8XLARGE;
use rb_cloud::{CloudPricing, FaultPlan};
use rb_core::{Prng, SimDuration, SimTime};
use rb_exec::{
    BarrierHook, BarrierSnapshot, ExecOptions, ExecutionReport, Executor, ExecutorCore, NoopHook,
    RetryPolicy, StepOutcome, WatchdogSnapshot,
};
use rb_hpo::{Config, Dim, ExperimentSpec, SearchSpace};
use rb_obs::export::export_jsonl;
use rb_obs::{MemoryRecorder, RecorderHandle};
use rb_profile::{CloudProfile, ModelProfile};
use rb_sim::AllocationPlan;
use rb_train::task::resnet101_cifar10;
use rb_train::TaskModel;
use std::sync::Arc;

fn cloud() -> CloudProfile {
    CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15))
}

fn physics(task: &TaskModel) -> ModelProfile {
    let scaling = Arc::new(rb_scaling::AnalyticScaling::for_arch(&task.arch, 1024, 4));
    let mut p =
        ModelProfile::from_scaling(task.name, scaling, task.steps_per_iter(1024), 2.0, 0.02);
    p.train_startup_secs = 2.0;
    p
}

fn configs(n: usize, seed: u64) -> Vec<Config> {
    let space = SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .add("weight_decay", Dim::LogUniform { lo: 1e-5, hi: 1e-2 })
        .build()
        .unwrap();
    space.sample_n(n, &mut Prng::seed_from_u64(seed))
}

fn executor(plan: Vec<u32>, options: ExecOptions) -> Executor {
    let task = resnet101_cifar10();
    let spec = ExperimentSpec::from_stages(&[(8, 1), (4, 2), (2, 4), (1, 8)]).unwrap();
    Executor::new(
        spec,
        AllocationPlan::new(plan),
        task.clone(),
        physics(&task),
        cloud(),
    )
    .unwrap()
    .with_options(options)
}

/// Drives a core by hand, exactly as `Executor::run_observed` does.
fn drive(
    exec: &Executor,
    configs: &[Config],
    hook: &mut dyn BarrierHook,
    recorder: RecorderHandle,
) -> ExecutionReport {
    let mut core = ExecutorCore::new(exec, configs, recorder).unwrap();
    let total = core.num_stages();
    let mut barriers = 0usize;
    while !core.is_finished() {
        let before = core.now();
        match core.step(before, &mut *hook).unwrap() {
            StepOutcome::Barrier { stage, at } => {
                assert_eq!(stage, barriers, "barriers arrive in stage order");
                assert!(at >= before, "virtual time is monotone");
                assert_eq!(core.now(), at);
                barriers += 1;
            }
            StepOutcome::Finished { at } => {
                assert!(core.is_finished());
                assert_eq!(core.now(), at);
            }
        }
    }
    assert!(barriers < total, "the final stage reports Finished");
    core.finish().unwrap()
}

#[test]
fn manual_drive_matches_run_byte_for_byte() {
    let exec = executor(
        vec![8, 8, 4, 4],
        ExecOptions {
            seed: 42,
            ..ExecOptions::default()
        },
    );
    let cfgs = configs(8, 1);
    let driven = exec.run(&cfgs).unwrap();
    let manual = drive(&exec, &cfgs, &mut NoopHook, RecorderHandle::noop());
    assert_eq!(driven.trace, manual.trace);
    assert_eq!(format!("{driven:?}"), format!("{manual:?}"));
}

#[test]
fn manual_drive_matches_run_observed_with_armed_watchdog() {
    /// Arms a generous budget on every stage: the watchdog is armed and
    /// checked but never fires — the bit-identity contract's hard case.
    struct Armed(Vec<usize>);
    impl BarrierHook for Armed {
        fn at_barrier(&mut self, _s: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
            None
        }
        fn stage_budget_secs(&mut self, stage: usize) -> Option<f64> {
            self.0.push(stage);
            Some(1e9)
        }
        fn at_watchdog(&mut self, _s: &WatchdogSnapshot<'_>) -> Option<Vec<u32>> {
            panic!("a 1e9 s budget must never fire");
        }
    }
    let exec = executor(
        vec![8, 8, 8, 8],
        ExecOptions {
            seed: 7,
            ..ExecOptions::default()
        },
    );
    let cfgs = configs(8, 2);
    let mut driven_hook = Armed(Vec::new());
    let driven = exec
        .run_observed(&cfgs, &mut driven_hook, RecorderHandle::noop())
        .unwrap();
    let mut manual_hook = Armed(Vec::new());
    let manual = drive(&exec, &cfgs, &mut manual_hook, RecorderHandle::noop());
    assert_eq!(driven_hook.0, manual_hook.0, "same budget queries");
    assert_eq!(driven.trace, manual.trace);
    assert_eq!(format!("{driven:?}"), format!("{manual:?}"));
}

#[test]
fn manual_drive_matches_run_observed_with_replanning_barrier_hook() {
    /// Re-plans the remaining stages at the first barrier (widens the
    /// tail), exercising the plan-splice path through `step`.
    struct Replan;
    impl BarrierHook for Replan {
        fn at_barrier(&mut self, s: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
            (s.stage == 0).then(|| vec![8; s.num_stages - s.stage - 1])
        }
    }
    let exec = executor(
        vec![8, 4, 4, 4],
        ExecOptions {
            seed: 11,
            ..ExecOptions::default()
        },
    );
    let cfgs = configs(8, 3);
    let driven = exec
        .run_observed(&cfgs, &mut Replan, RecorderHandle::noop())
        .unwrap();
    let manual = drive(&exec, &cfgs, &mut Replan, RecorderHandle::noop());
    assert_eq!(driven.trace, manual.trace);
    assert_eq!(format!("{driven:?}"), format!("{manual:?}"));
}

#[test]
fn manual_drive_matches_run_observed_traces_and_counters() {
    let exec = executor(
        vec![8, 8, 4, 4],
        ExecOptions {
            seed: 42,
            ..ExecOptions::default()
        },
    );
    let cfgs = configs(8, 1);

    let driven_sink = Arc::new(MemoryRecorder::new());
    let driven = exec
        .run_observed(
            &cfgs,
            &mut NoopHook,
            RecorderHandle::new(driven_sink.clone()),
        )
        .unwrap();
    let manual_sink = Arc::new(MemoryRecorder::new());
    let manual = drive(
        &exec,
        &cfgs,
        &mut NoopHook,
        RecorderHandle::new(manual_sink.clone()),
    );

    assert_eq!(format!("{driven:?}"), format!("{manual:?}"));
    // The full export — events, counters, histograms — must match byte
    // for byte, not just the reports.
    assert_eq!(
        export_jsonl(&driven_sink.finish()),
        export_jsonl(&manual_sink.finish())
    );
}

#[test]
fn manual_drive_matches_run_under_chaos() {
    let options = ExecOptions {
        seed: 1337,
        faults: FaultPlan {
            capacity_failure_prob: 0.2,
            straggler_prob: 0.3,
            straggler_factor: 3.0,
            degraded_prob: 0.2,
            degraded_factor: 1.5,
            checkpoint_corruption_prob: 0.3,
            ..FaultPlan::none()
        },
        retry: Some(RetryPolicy {
            max_retries: 8,
            ..RetryPolicy::default()
        }),
        checkpoint_retention: 2,
        ..ExecOptions::default()
    };
    let exec = executor(vec![8, 8, 4, 4], options);
    let cfgs = configs(8, 9);
    let driven = exec.run(&cfgs).unwrap();
    assert!(
        driven.faults_injected > 0,
        "the chaos cell must actually inject faults"
    );
    let manual = drive(&exec, &cfgs, &mut NoopHook, RecorderHandle::noop());
    assert_eq!(driven.trace, manual.trace);
    assert_eq!(format!("{driven:?}"), format!("{manual:?}"));
}

#[test]
fn stepping_past_the_end_is_a_typed_error() {
    let exec = executor(
        vec![2, 2, 2, 2],
        ExecOptions {
            seed: 5,
            ..ExecOptions::default()
        },
    );
    let cfgs = configs(8, 4);
    // Finishing before the run completes is refused.
    let early = ExecutorCore::new(&exec, &cfgs, RecorderHandle::noop()).unwrap();
    assert!(early.finish().is_err());
    let mut core = ExecutorCore::new(&exec, &cfgs, RecorderHandle::noop()).unwrap();
    assert!(!core.is_finished());
    while !core.is_finished() {
        let now = core.now();
        core.step(now, &mut NoopHook).unwrap();
    }
    let err = core.step(core.now(), &mut NoopHook).unwrap_err();
    assert!(matches!(err, rb_core::RbError::Execution(_)), "{err:?}");
    core.finish().unwrap();
}

#[test]
fn interleaved_cores_share_one_pool_and_the_ledger_balances() {
    use rb_cloud::{InstancePool, PoolConfig, SharedPool};

    // Two jobs on down-up plans (instances 2/1/2/1): each parks an
    // instance at barrier 0 and scales back up at barrier 1, so with a
    // hold long enough to span a stage the scale-ups adopt parked
    // capacity — including the peer's — instead of provisioning fresh.
    let run = || {
        let pool = SharedPool::new(
            InstancePool::new(
                PoolConfig {
                    capacity: 8,
                    max_hold_secs: 1e7,
                },
                CloudPricing::on_demand(P3_8XLARGE),
            )
            .unwrap(),
        );
        let execs: Vec<Executor> = (0..2u64)
            .map(|k| {
                executor(
                    vec![8, 4, 8, 4],
                    ExecOptions {
                        seed: 40 + k,
                        ..ExecOptions::default()
                    },
                )
            })
            .collect();
        let cfg_sets: Vec<Vec<Config>> = (0..2u64).map(|k| configs(8, 100 + k)).collect();
        let sinks: Vec<Arc<MemoryRecorder>> =
            (0..2).map(|_| Arc::new(MemoryRecorder::new())).collect();
        let mut cores: Vec<ExecutorCore> = execs
            .iter()
            .zip(&cfg_sets)
            .enumerate()
            .map(|(k, (e, c))| {
                let recorder = RecorderHandle::new(sinks[k].clone());
                let mut core = ExecutorCore::new(e, c, recorder).unwrap();
                core.attach_shared_pool(pool.clone(), k as u64, None);
                core
            })
            .collect();
        // Interleave exactly as the service does: always step the core
        // whose clock is furthest behind (ties to the lower id), so
        // both jobs reach the contended barriers in lockstep.
        loop {
            let pick = cores
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.is_finished())
                .min_by_key(|&(i, c)| (c.now(), i))
                .map(|(i, _)| i);
            let Some(i) = pick else { break };
            let now = cores[i].now();
            cores[i].step(now, &mut NoopHook).unwrap();
        }
        let end = cores.iter().map(ExecutorCore::now).max().unwrap();
        let reports: Vec<ExecutionReport> =
            cores.into_iter().map(|c| c.finish().unwrap()).collect();
        pool.with(|p| p.drain(end));
        let stats = pool.with(|p| p.stats());
        // Every meter lifetime starts at a hand-over from the provider
        // or at an adoption from the pool.
        let meter_starts: usize = sinks
            .iter()
            .map(|sink| {
                let log = sink.finish();
                log.events_named("cloud", "instance.running").count()
                    + log.events_named("cloud", "instance.adopt").count()
            })
            .sum();
        (reports, stats, meter_starts)
    };

    let (reports, stats, meter_starts) = run();
    assert!(
        stats.handoffs > 0,
        "interleaved barriers must hand capacity across the pool: {stats:?}"
    );
    assert_eq!(stats.double_releases, 0, "{stats:?}");
    assert_eq!(stats.conflicts, 0, "{stats:?}");
    assert!(
        stats.balances(0),
        "pool ledger out of balance after drain: {stats:?}"
    );
    // `instances_provisioned` counts provider provisions only: the
    // adopted lifetimes are the pool's handoffs.
    let provisioned: usize = reports.iter().map(|r| r.instances_provisioned).sum();
    assert_eq!(provisioned + stats.handoffs as usize, meter_starts);

    // The interleaving is a pure function of the workload: a second
    // run is bit-identical, reports and ledger alike.
    let (again, stats_again, _) = run();
    assert_eq!(format!("{reports:?}"), format!("{again:?}"));
    assert_eq!(format!("{stats:?}"), format!("{stats_again:?}"));
}

#[test]
fn admission_time_shifts_the_clock_but_not_the_outcome() {
    let mk = || {
        executor(
            vec![8, 8, 4, 4],
            ExecOptions {
                seed: 21,
                ..ExecOptions::default()
            },
        )
    };
    let cfgs = configs(8, 6);
    let base = mk().run(&cfgs).unwrap();

    let start = SimTime::from_secs(500);
    let exec = mk();
    let mut core = ExecutorCore::from_parts(exec, cfgs, RecorderHandle::noop(), start).unwrap();
    assert_eq!(core.now(), start);
    while !core.is_finished() {
        let now = core.now();
        core.step(now, &mut NoopHook).unwrap();
    }
    let shifted = core.finish().unwrap();

    // Same randomness, same training timeline: JCT and economics are
    // unchanged; only absolute stamps move.
    assert_eq!(base.jct, shifted.jct);
    assert_eq!(base.compute_cost, shifted.compute_cost);
    assert_eq!(base.best_trial, shifted.best_trial);
    assert_eq!(base.best_accuracy, shifted.best_accuracy);
    for (b, s) in base.stages.iter().zip(&shifted.stages) {
        assert_eq!(s.train_start, b.train_start + (start - SimTime::ZERO));
        assert_eq!(s.sync_end, b.sync_end + (start - SimTime::ZERO));
    }
}
