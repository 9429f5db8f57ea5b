//! End-to-end service tests: fair-share scheduling, admission control,
//! pool economics, and byte-stable determinism from plan to render.

use rb_cloud::catalog::P3_8XLARGE;
use rb_cloud::{CloudPricing, PoolConfig};
use rb_core::{Cost, Prng, SimDuration, SimTime};
use rb_exec::{ExecOptions, Executor};
use rb_hpo::{Config, Dim, ExperimentSpec, SearchSpace};
use rb_planner::{plan_with_policy, PlannerConfig, Policy};
use rb_profile::{CloudProfile, ModelProfile};
use rb_serve::{JobRequest, RejectReason, ServeOptions, TenantSpec, TuningService};
use rb_sim::{AllocationPlan, Simulator};
use rb_train::task::resnet101_cifar10;
use rb_train::TaskModel;
use std::sync::Arc;

fn cloud() -> CloudProfile {
    // Paid ingress and a real provision + init cycle: exactly the costs
    // a shared pool exists to avoid.
    CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE).with_data_price(Cost::from_dollars(0.02)))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15))
        .with_dataset_gb(100.0)
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
        .build()
        .unwrap();
    space.sample_n(n, &mut Prng::seed_from_u64(seed))
}

fn spec() -> ExperimentSpec {
    ExperimentSpec::from_stages(&[(8, 1), (4, 2), (2, 4), (1, 8)]).unwrap()
}

/// A job running the fixture spec on a fixed plan, arriving at `arrival`.
fn job(plan: &[u32], seed: u64, arrival: SimTime, tenant: usize) -> JobRequest {
    let task = resnet101_cifar10();
    let executor = Executor::new(
        spec(),
        AllocationPlan::new(plan.to_vec()),
        task.clone(),
        physics(&task),
        cloud(),
    )
    .unwrap()
    .with_options(ExecOptions {
        seed,
        ..ExecOptions::default()
    });
    JobRequest::new(executor, configs(8, seed ^ 0xC0FFEE), arrival, tenant)
}

fn serial_service(pool: Option<PoolConfig>) -> TuningService {
    TuningService::new(
        vec![TenantSpec::new("alpha", 1.0), TenantSpec::new("beta", 1.0)],
        ServeOptions {
            max_concurrent: 1,
            max_queue: 16,
            pool,
            pool_admission: false,
        },
    )
    .unwrap()
}

/// Four alternating-tenant jobs arriving at t=0, forced serial so each
/// successor can adopt its predecessor's entire fleet.
fn back_to_back_jobs() -> Vec<JobRequest> {
    (0u64..4)
        .map(|k| job(&[8, 8, 8, 8], 100 + k, SimTime::ZERO, (k % 2) as usize))
        .collect()
}

#[test]
fn shared_pool_saves_cost_at_equal_or_better_queue_wait() {
    let off = serial_service(None).run(back_to_back_jobs()).unwrap();
    let on = serial_service(Some(PoolConfig::default()))
        .run(back_to_back_jobs())
        .unwrap();

    assert_eq!(off.outcomes.len(), 4);
    assert_eq!(on.outcomes.len(), 4);
    assert!(off.pool.is_none());
    let stats = on.pool.as_ref().expect("pool stats present");
    assert!(
        stats.handoffs > 0,
        "handoffs must actually happen: {stats:?}"
    );
    assert_eq!(stats.double_releases, 0);
    assert!(stats.ingress_gb_saved > 0.0, "adopters skip re-ingress");

    // The headline acceptance: pool-on costs less than pool-off on the
    // same seed, both on the raw bill (ingress + shorter startups) and
    // net of the minimum-charge credit.
    assert_eq!(off.net_cost, off.billed_cost, "no pool, no credit");
    assert!(
        on.billed_cost < off.billed_cost,
        "pool-on billed {} >= pool-off {}",
        on.billed_cost,
        off.billed_cost
    );
    assert!(on.net_cost <= on.billed_cost);
    assert!(on.net_cost < off.billed_cost);

    // ... and the queue does not pay for it: adopted instances come up
    // faster, so waits can only improve.
    assert!(on.queue_wait_p50() <= off.queue_wait_p50());
    assert!(on.makespan <= off.makespan);
}

/// Six jobs on a down-scaling plan racing for two slots: both running
/// jobs park capacity at their barriers while the queue is non-empty,
/// so cross-job handoffs and pool-aware admission both fire.
fn contended_jobs() -> Vec<JobRequest> {
    (0u64..6)
        .map(|k| job(&[16, 8, 4, 4], 500 + k, SimTime::ZERO, (k % 2) as usize))
        .collect()
}

fn contended_service(pool_admission: bool) -> TuningService {
    TuningService::new(
        vec![TenantSpec::new("alpha", 1.0), TenantSpec::new("beta", 1.0)],
        ServeOptions {
            max_concurrent: 2,
            max_queue: 16,
            pool: Some(PoolConfig::default()),
            pool_admission,
        },
    )
    .unwrap()
}

#[test]
fn contended_cell_conserves_the_pool_ledger_and_admits_from_it() {
    let report = contended_service(true).run(contended_jobs()).unwrap();
    assert_eq!(report.outcomes.len(), 6);

    let stats = report.pool.as_ref().expect("pool stats present");
    assert!(stats.handoffs > 0, "{stats:?}");
    assert_eq!(stats.double_releases, 0, "{stats:?}");
    assert_eq!(stats.conflicts, 0, "{stats:?}");
    // The pool was drained at wind-down: every offer and every parked
    // instance is accounted for exactly once.
    assert!(stats.balances(0), "pool ledger out of balance: {stats:?}");

    // Billing invariant: the service bill is the job meters plus the
    // park bill — nothing double-counted, nothing dropped.
    let job_cost: Cost = report
        .outcomes
        .iter()
        .fold(Cost::ZERO, |acc, o| acc + o.report.total_cost());
    assert_eq!(report.billed_cost, job_cost + stats.park_cost);
    assert_eq!(report.net_cost, report.billed_cost - stats.min_charge_saved);

    // Pool-aware admission actually fired, and the flags agree with
    // the counter.
    assert!(report.pool_admits > 0, "no job was admitted from the pool");
    let flagged = report.outcomes.iter().filter(|o| o.pool_admitted).count();
    assert_eq!(flagged as u64, report.pool_admits);

    // Admission must help, not hurt: same cell without it queues jobs
    // at least as long at the median.
    let plain = contended_service(false).run(contended_jobs()).unwrap();
    assert_eq!(plain.pool_admits, 0);
    assert!(report.queue_wait_p50() <= plain.queue_wait_p50());
}

#[test]
fn same_seed_is_byte_identical_from_plan_to_render() {
    // Plan twice with the real planner, each time on a fresh simulator:
    // the engine's determinism contract says the plans are identical,
    // and the service must preserve that all the way to the rendered
    // report.
    let task = resnet101_cifar10();
    let physics = physics(&task);
    let deadline = SimDuration::from_hours(2);
    let plan_fresh = || {
        let sim = Simulator::new(physics.clone(), cloud());
        plan_with_policy(
            Policy::RubberBand,
            &sim,
            &spec(),
            deadline,
            &PlannerConfig::default(),
        )
        .unwrap()
        .plan
    };
    let p1 = plan_fresh();
    let p2 = plan_fresh();
    assert_eq!(p1, p2, "the same seed must plan the same");

    let run = |plan: &AllocationPlan| {
        let jobs: Vec<JobRequest> = (0u64..4)
            .map(|k| {
                let mut j = job(
                    &[8, 8, 8, 8],
                    300 + k,
                    SimTime::from_secs(k * 180),
                    (k % 2) as usize,
                );
                j.executor = Executor::new(
                    spec(),
                    plan.clone(),
                    task.clone(),
                    self::physics(&task),
                    cloud(),
                )
                .unwrap()
                .with_options(ExecOptions {
                    seed: 300 + k,
                    ..ExecOptions::default()
                });
                j
            })
            .collect();
        TuningService::new(
            vec![TenantSpec::new("alpha", 2.0), TenantSpec::new("beta", 1.0)],
            ServeOptions {
                max_concurrent: 2,
                max_queue: 8,
                pool: Some(PoolConfig::default()),
                pool_admission: false,
            },
        )
        .unwrap()
        .run(jobs)
        .unwrap()
        .render()
    };
    let a = run(&p1);
    let b = run(&p2);
    let c = run(&p1);
    assert_eq!(
        a, b,
        "ServeReport must not depend on which planning run made the plan"
    );
    assert_eq!(a, c, "ServeReport must be reproducible from the seed");

    // The contended + pool-admission path holds to the same contract:
    // jobs racing for parked capacity at interleaved barriers, two of
    // them on the planner's plan so any planner nondeterminism would
    // surface in the render.
    let run_contended = |plan: &AllocationPlan| {
        let mut jobs = contended_jobs();
        for (k, j) in jobs.iter_mut().take(2).enumerate() {
            j.executor = Executor::new(
                spec(),
                plan.clone(),
                task.clone(),
                self::physics(&task),
                cloud(),
            )
            .unwrap()
            .with_options(ExecOptions {
                seed: 500 + k as u64,
                ..ExecOptions::default()
            });
        }
        contended_service(true).run(jobs).unwrap().render()
    };
    let a = run_contended(&p1);
    let b = run_contended(&p2);
    let c = run_contended(&p1);
    assert_eq!(
        a, b,
        "contended render must not depend on which planning run made the plan"
    );
    assert_eq!(a, c, "contended render must be reproducible from the seed");
}

#[test]
fn fair_share_dispatches_the_underweighted_tenant_first() {
    // Serial service; alpha's first job runs immediately. While it runs,
    // alpha queues a second job (earlier arrival) and beta queues its
    // first. Beta has zero spend when the slot frees, so beta's job
    // dispatches before alpha's earlier-arrived one.
    let jobs = vec![
        job(&[8, 8, 8, 8], 1, SimTime::ZERO, 0),
        job(&[8, 8, 8, 8], 2, SimTime::from_secs(10), 0),
        job(&[8, 8, 8, 8], 3, SimTime::from_secs(20), 1),
    ];
    let report = serial_service(None).run(jobs).unwrap();
    let order: Vec<u64> = report.outcomes.iter().map(|o| o.job).collect();
    assert_eq!(order, vec![0, 2, 1], "spend/weight beats arrival order");
    assert_eq!(report.tenants[0].completed, 2);
    assert_eq!(report.tenants[1].completed, 1);
}

#[test]
fn queue_overflow_rejects_with_a_typed_reason() {
    let jobs: Vec<JobRequest> = (0u64..4)
        .map(|k| job(&[2, 2, 2, 2], 10 + k, SimTime::ZERO, 0))
        .collect();
    let svc = TuningService::new(
        vec![TenantSpec::new("alpha", 1.0)],
        ServeOptions {
            max_concurrent: 1,
            max_queue: 1,
            pool: None,
            pool_admission: false,
        },
    )
    .unwrap();
    let report = svc.run(jobs).unwrap();
    // All four arrive at t=0 before anything dispatches: one queues,
    // the rest bounce off the full queue; the queued one then runs.
    assert_eq!(report.outcomes.len(), 1);
    assert_eq!(report.rejected.len(), 3);
    assert!(report
        .rejected
        .iter()
        .all(|r| r.reason == RejectReason::QueueFull));
    assert_eq!(report.tenants[0].rejected, 3);
}

#[test]
fn budget_exhaustion_rejects_later_arrivals() {
    // A budget below one job's cost: the first job is admitted (spend is
    // zero at its arrival) and runs; by the time the second arrives the
    // tenant is over budget and it is rejected.
    let jobs = vec![
        job(&[2, 2, 2, 2], 50, SimTime::ZERO, 0),
        job(&[2, 2, 2, 2], 51, SimTime::from_secs(72_000), 0),
    ];
    let svc = TuningService::new(
        vec![TenantSpec::new("alpha", 1.0).with_budget(Cost::from_dollars(0.01))],
        ServeOptions::default(),
    )
    .unwrap();
    let report = svc.run(jobs).unwrap();
    assert_eq!(report.outcomes.len(), 1);
    assert_eq!(report.rejected.len(), 1);
    assert_eq!(report.rejected[0].reason, RejectReason::BudgetExhausted);
    assert!(report.tenants[0].spend > Cost::from_dollars(0.01));
}

#[test]
fn unknown_tenant_is_a_typed_error() {
    let svc = serial_service(None);
    let err = svc
        .run(vec![job(&[2, 2, 2, 2], 1, SimTime::ZERO, 9)])
        .unwrap_err();
    assert!(matches!(err, rb_core::RbError::InvalidConfig(_)), "{err:?}");
}

#[test]
fn queue_waits_and_timelines_are_consistent() {
    let report = serial_service(None).run(back_to_back_jobs()).unwrap();
    assert_eq!(report.outcomes.len(), 4);
    let mut finishes = Vec::new();
    for o in &report.outcomes {
        assert_eq!(o.queue_wait, o.dispatched.saturating_since(o.arrival));
        assert!(o.finished >= o.dispatched);
        assert_eq!(
            o.finished.saturating_since(o.dispatched),
            o.report.jct,
            "JCT is measured from dispatch"
        );
        finishes.push(o.finished);
    }
    // Serial service: completions are ordered and the last one is the
    // makespan.
    assert!(finishes.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(report.makespan, *finishes.last().unwrap());
    assert!(report.queue_wait_p90() >= report.queue_wait_p50());
    // First job never waits under an empty service.
    assert_eq!(report.outcomes[0].queue_wait, SimDuration::ZERO);
    let billed: Cost = report
        .outcomes
        .iter()
        .fold(Cost::ZERO, |acc, o| acc + o.report.total_cost());
    assert_eq!(report.billed_cost, billed, "no pool, no park cost");
}

/// A job run through the service reports what the same request reports
/// run alone: the service moves the request's executor and
/// configurations into its core instead of copying them, and without a
/// pool nothing couples the jobs, so only the clock shifts — by the
/// dispatch time (the service admits an arrival at its next event, so
/// that can trail the arrival even with a slot free).
#[test]
fn a_job_through_the_service_equals_the_same_job_alone() {
    let requests = || {
        vec![
            job(&[8, 8, 4, 4], 11, SimTime::ZERO, 0),
            job(&[4, 4, 2, 2], 12, SimTime::from_secs(300), 1),
            job(&[8, 4, 2, 1], 13, SimTime::from_secs(900), 0),
            job(&[2, 4, 4, 2], 14, SimTime::from_secs(1_500), 1),
        ]
    };
    let service = TuningService::new(
        vec![TenantSpec::new("alpha", 1.0), TenantSpec::new("beta", 2.0)],
        ServeOptions {
            max_concurrent: 4,
            max_queue: 16,
            pool: None,
            pool_admission: false,
        },
    )
    .unwrap();
    let served = service.run(requests()).unwrap();
    assert_eq!(served.outcomes.len(), 4);
    let alone = requests();
    for o in &served.outcomes {
        let req = &alone[o.job as usize];
        let solo = req.executor.run(&req.configs).unwrap();
        let got = &o.report;
        let shift = o.dispatched - SimTime::ZERO;
        assert_eq!(got.jct, solo.jct, "job {}", o.job);
        assert_eq!(got.compute_cost, solo.compute_cost, "job {}", o.job);
        assert_eq!(got.best_trial, solo.best_trial, "job {}", o.job);
        assert_eq!(
            got.best_accuracy.to_bits(),
            solo.best_accuracy.to_bits(),
            "job {}",
            o.job
        );
        let bits = |r: &rb_exec::ExecutionReport| -> Vec<(u64, u64)> {
            r.trial_throughput
                .iter()
                .map(|(t, v)| (t.raw(), v.to_bits()))
                .collect()
        };
        assert_eq!(bits(got), bits(&solo), "job {}", o.job);
        assert_eq!(got.stages.len(), solo.stages.len());
        for (g, s) in got.stages.iter().zip(&solo.stages) {
            assert_eq!(g.train_start, s.train_start + shift, "job {}", o.job);
            assert_eq!(g.sync_end, s.sync_end + shift, "job {}", o.job);
            assert_eq!(
                (
                    g.stage,
                    g.trials,
                    g.gpus_per_trial,
                    g.instances,
                    g.migrations
                ),
                (
                    s.stage,
                    s.trials,
                    s.gpus_per_trial,
                    s.instances,
                    s.migrations
                ),
                "job {}",
                o.job
            );
        }
    }
}
