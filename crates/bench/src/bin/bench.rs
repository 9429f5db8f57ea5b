//! Std-only micro-benchmark harness (`cargo run -p rb-bench --release
//! --bin bench`).
//!
//! Replaces the former external-framework benches with plain
//! `std::time::Instant` timings over the four hot subsystems — planner,
//! simulator, placement, executor — and writes two machine-readable
//! reports into the working directory:
//!
//! * `BENCH_planner.json` — `plan_rubberband` wall time under the
//!   sequential baseline engine vs the parallel, memoized engine (cold
//!   and warm caches) plus the speedup ratios, and the sustained-churn
//!   section: `plans_per_sec` over a churning multi-job workload (mixed
//!   specs, warm/cold cache ratio sweep, 1 and N worker threads);
//! * `BENCH_sim.json` — raw prediction throughput at 1 thread and at the
//!   host's available parallelism, the adaptive-execution overhead, the
//!   multi-tenant service throughput (jobs/sec through `rb-serve` with
//!   pool handoffs), and the tracing overhead (no-op recorder vs
//!   recording + JSONL export).
//!
//! Pass `--smoke` to run every section once with tiny workloads (used by
//! `scripts/verify.sh` to keep the harness honest without burning CI
//! time); a smoke run prints both reports to stdout and writes no file.
//! Pass `--churn` to run only the planner + churn sections (writes only
//! `BENCH_planner.json`). Built with `--features alloc-counter`,
//! the binary installs a counting global allocator and asserts the arena
//! engine's zero-allocation warm prediction path before benchmarking.

use rb_cloud::catalog::P3_8XLARGE;
use rb_cloud::CloudPricing;
use rb_core::par::auto_threads;
use rb_core::{Prng, SimDuration, TrialId};
use rb_hpo::{Dim, ExperimentSpec, SearchSpace, ShaParams};
use rb_placement::{ClusterState, PlacementController};
use rb_planner::{plan_rubberband, PlannerConfig};
use rb_profile::{CloudProfile, ModelProfile};
use rb_scaling::zoo::RESNET50;
use rb_scaling::AnalyticScaling;
use rb_sim::{AllocationPlan, EngineConfig, Simulator};
use rb_train::task::resnet101_cifar10;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

#[cfg(feature = "alloc-counter")]
#[global_allocator]
static ALLOC: rb_sim::alloc_counter::CountingAlloc = rb_sim::alloc_counter::CountingAlloc;

/// The planner benchmark workload: the greedy-planner test spec (five
/// shrinking SHA stages) on sublinear ResNet-50 scaling.
fn bench_sim() -> Simulator {
    let scaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4));
    let model = ModelProfile::from_scaling("rn50", scaling, 10, 2.0, 0.0);
    let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15));
    Simulator::new(model, cloud)
}

fn bench_spec() -> ExperimentSpec {
    ExperimentSpec::from_stages(&[(16, 4), (8, 8), (4, 16), (2, 32), (1, 64)]).unwrap()
}

/// Times `f` over `iters` runs (after one untimed warm-up) and returns the
/// median milliseconds per run. The median is the usual robust estimator
/// for wall-clock microbenchmarks on a shared host, where a single
/// scheduler hiccup can skew a mean badly.
fn time_ms<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f(); // warm-up: page faults, allocator state, branch predictors
    let mut runs: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// plan_rubberband under the sequential baseline vs the engine.
fn bench_planner(smoke: bool) -> String {
    let spec = bench_spec();
    let deadline = SimDuration::from_mins(60);
    let config = PlannerConfig::default();
    let iters = if smoke { 1 } else { 9 };

    // Sequential reference: one thread, no caches, fresh DAG per predict.
    let baseline_ms = time_ms(iters, || {
        let sim = bench_sim().with_engine(EngineConfig::sequential_baseline());
        plan_rubberband(&sim, &spec, deadline, &config).unwrap();
    });

    // Engine, cold: fresh caches every iteration (what a new planning
    // problem pays).
    let cold_ms = time_ms(iters, || {
        let sim = bench_sim();
        plan_rubberband(&sim, &spec, deadline, &config).unwrap();
    });

    // Engine, warm: caches shared across iterations (what re-planning
    // during execution pays).
    let warm_sim = bench_sim();
    plan_rubberband(&warm_sim, &spec, deadline, &config).unwrap();
    let warm_ms = time_ms(iters, || {
        plan_rubberband(&warm_sim, &spec, deadline, &config).unwrap();
    });

    // The determinism contract, re-checked where it matters most.
    let a = plan_rubberband(
        &bench_sim().with_engine(EngineConfig::sequential_baseline()),
        &spec,
        deadline,
        &config,
    )
    .unwrap();
    let b = plan_rubberband(&bench_sim(), &spec, deadline, &config).unwrap();
    let identical = a.plan == b.plan && a.prediction == b.prediction;
    assert!(identical, "engine diverged from the sequential baseline");

    let speedup_cold = baseline_ms / cold_ms.max(1e-9);
    let speedup_warm = baseline_ms / warm_ms.max(1e-9);
    println!("planner: plan_rubberband (5-stage spec, default config)");
    println!("  sequential baseline : {baseline_ms:9.2} ms");
    println!("  engine, cold caches : {cold_ms:9.2} ms   ({speedup_cold:5.1}x)");
    println!("  engine, warm caches : {warm_ms:9.2} ms   ({speedup_warm:5.1}x)");

    format!(
        "{{\n  \"benchmark\": \"plan_rubberband\",\n  \"spec_stages\": {},\n  \"deadline_mins\": 60,\n  \"iters\": {},\n  \"threads\": {},\n  \"sequential_baseline_ms\": {:.3},\n  \"engine_cold_ms\": {:.3},\n  \"engine_warm_ms\": {:.3},\n  \"speedup_cold\": {:.2},\n  \"speedup_warm\": {:.2},\n  \"bit_identical_to_baseline\": {}\n}}\n",
        bench_spec().num_stages(),
        iters,
        auto_threads(),
        baseline_ms,
        cold_ms,
        warm_ms,
        speedup_cold,
        speedup_warm,
        identical
    )
}

/// The churn workload: four SHA jobs of different shapes and deadlines,
/// cycled round-robin so the planner keeps switching specs.
fn churn_specs() -> Vec<(ExperimentSpec, SimDuration)> {
    vec![
        (
            ExperimentSpec::from_stages(&[(16, 4), (8, 8), (4, 16), (2, 32), (1, 64)]).unwrap(),
            SimDuration::from_mins(60),
        ),
        (
            ExperimentSpec::from_stages(&[(27, 3), (9, 9), (3, 27), (1, 81)]).unwrap(),
            SimDuration::from_mins(90),
        ),
        (
            ExperimentSpec::from_stages(&[(8, 6), (4, 12), (2, 24), (1, 48)]).unwrap(),
            SimDuration::from_mins(75),
        ),
        (
            ExperimentSpec::from_stages(&[(32, 2), (16, 4), (8, 8), (4, 16)]).unwrap(),
            SimDuration::from_mins(45),
        ),
    ]
}

/// Plans `jobs` churning jobs on `threads` workers. Job `i` reuses the
/// shared (warm) simulator when `i % 10 < warm_pct / 10`, otherwise it
/// pays a cold simulator — fresh plan cache, DAG templates, and stage
/// memos — modelling a tuning service where only some arrivals repeat a
/// recently planned shape. Returns elapsed seconds and the selected
/// plans in job order.
fn run_churn_cell(
    threads: usize,
    warm_pct: usize,
    jobs: usize,
    specs: &[(ExperimentSpec, SimDuration)],
    config: &PlannerConfig,
) -> (f64, Vec<Vec<u32>>) {
    let shared = bench_sim().with_engine(EngineConfig::default().with_threads(threads));
    let mut selections = Vec::with_capacity(jobs);
    let start = Instant::now();
    for i in 0..jobs {
        let (spec, deadline) = &specs[i % specs.len()];
        let out = if i % 10 < warm_pct / 10 {
            plan_rubberband(&shared, spec, *deadline, config).unwrap()
        } else {
            let cold = bench_sim().with_engine(EngineConfig::default().with_threads(threads));
            plan_rubberband(&cold, spec, *deadline, config).unwrap()
        };
        selections.push(out.plan.as_slice().to_vec());
    }
    (start.elapsed().as_secs_f64(), selections)
}

/// Sustained planner throughput over a churning multi-job workload: the
/// plans/second figure, swept over warm/cold ratios at 1 thread and at
/// the host's parallelism, asserting thread count never changes which
/// plans get selected.
fn bench_churn(smoke: bool) -> String {
    let specs = churn_specs();
    let config = PlannerConfig {
        beam_width: 4,
        ..PlannerConfig::default()
    };
    let jobs = if smoke { 8 } else { 120 };
    let auto = auto_threads();
    println!(
        "churn    : {jobs} jobs/cell over {} specs, beam width {}",
        specs.len(),
        config.beam_width
    );
    let mut cells = Vec::new();
    let mut all_identical = true;
    for warm_pct in [0usize, 50, 90] {
        let (el_1, sel_1) = run_churn_cell(1, warm_pct, jobs, &specs, &config);
        let (el_n, sel_n) = run_churn_cell(auto, warm_pct, jobs, &specs, &config);
        let pps_1 = jobs as f64 / el_1.max(1e-9);
        let pps_n = jobs as f64 / el_n.max(1e-9);
        all_identical &= sel_1 == sel_n;
        println!(
            "  warm {warm_pct:2}% : 1 thread {pps_1:8.1} plans/s | {auto} threads {pps_n:8.1} plans/s"
        );
        for (threads, el, pps) in [(1, el_1, pps_1), (auto, el_n, pps_n)] {
            cells.push(format!(
                "    {{ \"warm_pct\": {warm_pct}, \"threads\": {threads}, \"elapsed_ms\": {:.1}, \"plans_per_sec\": {pps:.2} }}",
                el * 1e3
            ));
        }
    }
    println!("  plan selection identical across thread counts: {all_identical}");
    assert!(
        all_identical,
        "churn plan selection diverged across thread counts"
    );
    format!(
        "{{\n  \"benchmark\": \"churn_plans_per_sec\",\n  \"jobs_per_cell\": {jobs},\n  \"specs\": {},\n  \"beam_width\": {},\n  \"threads_auto\": {auto},\n  \"selection_identical_across_threads\": {all_identical},\n  \"cells\": [\n{}\n  ]\n}}",
        specs.len(),
        config.beam_width,
        cells.join(",\n")
    )
}

/// Asserts the arena engine's allocation contract under the counting
/// global allocator: a warmed-up sequential `predict` never touches the
/// allocator, and an all-hit `predict_batch` allocates at most its
/// output vector.
#[cfg(feature = "alloc-counter")]
fn assert_warm_path_zero_alloc() {
    use rb_sim::alloc_counter::allocations;
    let spec = bench_spec();
    let plan = AllocationPlan::new(vec![32, 16, 8, 4, 4]);
    // Cache off so every predict exercises the full simulation path.
    let sim = bench_sim().with_engine(EngineConfig {
        threads: 1,
        plan_cache: false,
        dag_templates: true,
        ..EngineConfig::default()
    });
    // Warm up: arena high-water marks, the DAG template, stage memos.
    sim.predict(&spec, &plan).unwrap();
    sim.predict(&spec, &plan).unwrap();
    let before = allocations();
    for _ in 0..32 {
        std::hint::black_box(sim.predict(&spec, &plan).unwrap());
    }
    let delta = allocations() - before;
    println!("alloc-counter: warm predict allocations over 32 calls: {delta}");
    assert_eq!(delta, 0, "warm sequential predict must not allocate");

    let sim = bench_sim().with_engine(EngineConfig::default().with_threads(1));
    let plans: Vec<AllocationPlan> = (0..8)
        .map(|i| AllocationPlan::new(vec![32 - 2 * i, 16, 8, 4, 4]))
        .collect();
    for warmup in [0, 1] {
        let _ = warmup;
        for pred in sim.predict_batch(&spec, &plans) {
            pred.unwrap();
        }
    }
    let before = allocations();
    let calls = 16u64;
    for _ in 0..calls {
        for pred in std::hint::black_box(sim.predict_batch(&spec, &plans)) {
            pred.unwrap();
        }
    }
    let delta = allocations() - before;
    println!(
        "alloc-counter: warm all-hit predict_batch allocations over {calls} calls: {delta} (output vector only)"
    );
    assert!(
        delta <= calls,
        "all-hit predict_batch must allocate at most its output vector"
    );
}

#[cfg(not(feature = "alloc-counter"))]
fn assert_warm_path_zero_alloc() {
    println!("alloc-counter: disabled (rebuild with --features alloc-counter to assert)");
}

/// Raw prediction throughput (cache off: every prediction simulates).
fn bench_simulator(smoke: bool) -> String {
    let spec = bench_spec();
    let plan = AllocationPlan::new(vec![32, 16, 8, 4, 4]);
    let n = if smoke { 5 } else { 200 };
    let run = |threads: usize| {
        let sim = bench_sim().with_engine(EngineConfig {
            threads,
            plan_cache: false,
            dag_templates: true,
            ..EngineConfig::default()
        });
        let ms = time_ms(n, || {
            sim.predict(&spec, &plan).unwrap();
        });
        (ms, 1e3 / ms.max(1e-9))
    };
    let (ms_1, per_sec_1) = run(1);
    let auto = auto_threads();
    let (ms_n, per_sec_n) = run(0);
    println!(
        "simulator: predict (uncached, {} samples)",
        bench_sim().config().samples
    );
    println!("  1 thread   : {ms_1:7.3} ms/prediction ({per_sec_1:8.0}/s)");
    println!("  {auto} thread(s): {ms_n:7.3} ms/prediction ({per_sec_n:8.0}/s)");

    format!(
        "{{\n  \"benchmark\": \"predict_uncached\",\n  \"samples\": {},\n  \"predictions\": {},\n  \"threads_1\": {{ \"ms_per_prediction\": {:.4}, \"predictions_per_sec\": {:.0} }},\n  \"threads_auto\": {{ \"threads\": {}, \"ms_per_prediction\": {:.4}, \"predictions_per_sec\": {:.0} }}\n}}\n",
        bench_sim().config().samples,
        n,
        ms_1,
        per_sec_1,
        auto,
        ms_n,
        per_sec_n
    )
}

/// Placement-controller churn (the former placement bench).
fn bench_placement(smoke: bool) {
    let iters = if smoke { 2 } else { 200 };
    let gpn = 4;
    let cluster = ClusterState::with_n_nodes(64, gpn);
    let mut rng = Prng::seed_from_u64(0xBE9C);
    let ms = time_ms(iters, || {
        let mut pc = PlacementController::new();
        for _ in 0..8 {
            let n = 1 + rng.next_below(12) as usize;
            let allocs: BTreeMap<TrialId, u32> = (0..n)
                .map(|i| (TrialId::new(i as u64), 1 + rng.next_below(8) as u32))
                .collect();
            pc.update(&allocs, &cluster).unwrap();
        }
    });
    println!("placement: 8 reallocation rounds : {ms:7.3} ms");
}

/// The executor bench workload: a 16-trial SHA job on exact ResNet-101
/// physics (shared by the executor and tracing-overhead sections).
fn exec_workload() -> (
    rb_hpo::ExperimentSpec,
    AllocationPlan,
    rb_train::TaskModel,
    ModelProfile,
    CloudProfile,
    SearchSpace,
) {
    let task = resnet101_cifar10();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15));
    let space = SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .build()
        .unwrap();
    let spec = ShaParams::new(16, 1, 20).with_eta(2).generate().unwrap();
    let plan = AllocationPlan::new(vec![16, 8, 4, 4, 4]);
    (spec, plan, task, physics, cloud, space)
}

/// End-to-end event-driven execution (the former executor bench).
fn bench_executor(smoke: bool) {
    let iters = if smoke { 1 } else { 10 };
    let (spec, plan, task, physics, cloud, space) = exec_workload();
    let ms = time_ms(iters, || {
        rubberband::execute(&spec, &plan, &task, &physics, &cloud, &space, 7).unwrap();
    });
    println!("executor : 16-trial SHA run        : {ms:7.3} ms");
}

/// Wall-clock service throughput: a four-job two-tenant workload with
/// the shared instance pool enabled, measured end to end — admission,
/// fair-share dispatch, interleaved stepping, and pool handoffs.
fn bench_serve(smoke: bool) -> String {
    use rb_cloud::PoolConfig;
    use rb_serve::{JobRequest, ServeOptions, TenantSpec, TuningService};

    let iters = if smoke { 1 } else { 10 };
    let jobs = 4usize;
    let (spec, plan, task, physics, cloud, space) = exec_workload();
    let service = TuningService::new(
        vec![TenantSpec::new("alpha", 2.0), TenantSpec::new("beta", 1.0)],
        ServeOptions {
            max_concurrent: 2,
            max_queue: 16,
            pool: Some(PoolConfig::default()),
            pool_admission: false,
        },
    )
    .unwrap();
    let mut handoffs = 0u64;
    let ms = time_ms(iters, || {
        let workload: Vec<JobRequest> = (0..jobs)
            .map(|k| {
                let executor = rb_exec::Executor::new(
                    spec.clone(),
                    plan.clone(),
                    task.clone(),
                    physics.clone(),
                    cloud.clone(),
                )
                .unwrap()
                .with_options(rb_exec::ExecOptions {
                    seed: 7 + k as u64,
                    ..rb_exec::ExecOptions::default()
                });
                JobRequest::new(
                    executor,
                    space.sample_n(16, &mut Prng::seed_from_u64(7 + k as u64)),
                    rb_core::SimTime::ZERO,
                    k % 2,
                )
            })
            .collect();
        let report = service.run(workload).unwrap();
        assert_eq!(report.outcomes.len(), jobs);
        handoffs = report.pool.as_ref().map_or(0, |p| p.handoffs);
    });
    let jobs_per_sec = jobs as f64 / (ms / 1e3).max(1e-9);
    println!("serve    : 4-job multi-tenant run  : {ms:7.3} ms   ({jobs_per_sec:7.1} jobs/s, {handoffs} handoffs)");
    format!(
        "{{\n  \"benchmark\": \"serve_throughput\",\n  \"iters\": {iters},\n  \"jobs\": {jobs},\n  \"tenants\": 2,\n  \"ms_per_run\": {ms:.3},\n  \"jobs_per_sec\": {jobs_per_sec:.1},\n  \"handoffs\": {handoffs}\n}}"
    )
}

/// What recording costs: the executor workload with the default no-op
/// recorder vs a `MemoryRecorder` sink *including* the JSONL export.
/// The no-op path must stay free; the recording path bounds what a user
/// pays for a full trace.
fn bench_tracing(smoke: bool) -> String {
    let iters = if smoke { 1 } else { 10 };
    let (spec, plan, task, physics, cloud, space) = exec_workload();
    let noop_ms = time_ms(iters, || {
        rubberband::execute(&spec, &plan, &task, &physics, &cloud, &space, 7).unwrap();
    });
    let mut events = 0usize;
    let run = rubberband::Run {
        spec: &spec,
        plan: &plan,
        task: &task,
        physics: &physics,
        cloud: &cloud,
        space: &space,
        options: rb_exec::ExecOptions {
            seed: 7,
            ..rb_exec::ExecOptions::default()
        },
    };
    let recorded_ms = time_ms(iters, || {
        let sink = Arc::new(rb_obs::MemoryRecorder::new());
        run.execute(
            &mut rb_exec::NoopHook,
            &rb_obs::RecorderHandle::new(sink.clone()),
        )
        .unwrap();
        let log = sink.finish();
        events = log.events.len();
        std::hint::black_box(rb_obs::export::export_jsonl(&log));
    });
    let overhead = recorded_ms / noop_ms.max(1e-9);
    println!(
        "tracing  : record + JSONL export   : {recorded_ms:7.3} ms   ({overhead:5.2}x no-op, {events} events)"
    );
    format!(
        "{{\n  \"benchmark\": \"tracing_overhead\",\n  \"iters\": {iters},\n  \"noop_recorder_ms\": {noop_ms:.3},\n  \"recording_plus_export_ms\": {recorded_ms:.3},\n  \"overhead_ratio\": {overhead:.3},\n  \"events\": {events}\n}}"
    )
}

/// Closed-loop adaptive execution vs open loop: what the rb-ctrl barrier
/// hook (drift monitoring + mid-job residual re-planning) costs on a run
/// that actually re-plans.
fn bench_exec_adaptive(smoke: bool) -> String {
    let iters = if smoke { 1 } else { 10 };
    let task = resnet101_cifar10();
    let model = ModelProfile::exact_for_task(&task, 1024, 4);
    // Ground truth runs 1.5x slower than the model: drift is guaranteed.
    let mut physics = model.clone();
    physics.scaling = Arc::new(rb_scaling::RescaledScaling::new(
        physics.scaling.clone(),
        1.5,
    ));
    let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15));
    let space = SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .build()
        .unwrap();
    let spec = ShaParams::new(16, 1, 20).with_eta(2).generate().unwrap();
    let plan = AllocationPlan::new(vec![16, 8, 4, 4, 4]);

    let open_ms = time_ms(iters, || {
        rubberband::execute(&spec, &plan, &task, &physics, &cloud, &space, 7).unwrap();
    });
    // A deadline the slowed open loop misses, so the controller re-plans.
    let open = rubberband::execute(&spec, &plan, &task, &physics, &cloud, &space, 7).unwrap();
    let deadline = SimDuration::from_secs_f64(open.jct.as_secs_f64() * 0.8);
    let config = rb_ctrl::ControllerConfig::default();
    let mut replans = 0usize;
    let adaptive_ms = time_ms(iters, || {
        let r = rubberband::execute_adaptive(
            &spec,
            &plan,
            &task,
            &physics,
            &model,
            &cloud,
            &space,
            deadline,
            rb_exec::ExecOptions {
                seed: 7,
                ..rb_exec::ExecOptions::default()
            },
            &config,
        )
        .unwrap();
        replans = r.adaptation.applied();
    });
    let overhead = adaptive_ms / open_ms.max(1e-9);
    println!("executor : adaptive (rb-ctrl)      : {adaptive_ms:7.3} ms   ({overhead:5.2}x open loop, {replans} replans)");

    format!(
        "{{\n  \"benchmark\": \"execute_adaptive\",\n  \"iters\": {iters},\n  \"open_loop_ms\": {open_ms:.3},\n  \"adaptive_ms\": {adaptive_ms:.3},\n  \"overhead_ratio\": {overhead:.3},\n  \"applied_replans\": {replans}\n}}"
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let churn_only = std::env::args().any(|a| a == "--churn");
    if smoke {
        println!("bench: smoke mode (1 iteration, tiny workloads)");
    }
    assert_warm_path_zero_alloc();
    let planner_json = bench_planner(smoke);
    let churn_json = bench_churn(smoke);
    let planner_file = format!(
        "{{\n\"plan_rubberband\": {},\n\"churn\": {}\n}}\n",
        planner_json.trim_end(),
        churn_json
    );
    emit("BENCH_planner.json", &planner_file, smoke);
    if churn_only {
        return;
    }
    let sim_json = bench_simulator(smoke);
    bench_placement(smoke);
    bench_executor(smoke);
    let adaptive_json = bench_exec_adaptive(smoke);
    let serve_json = bench_serve(smoke);
    let tracing_json = bench_tracing(smoke);
    let sim_file = format!(
        "{{\n\"predict_uncached\": {},\n\"exec_adaptive\": {},\n\"serve\": {},\n\"tracing_overhead\": {}\n}}\n",
        sim_json.trim_end(),
        adaptive_json,
        serve_json,
        tracing_json
    );
    emit("BENCH_sim.json", &sim_file, smoke);
}

/// Writes a report into the working directory. A smoke run prints it
/// instead, so its 1-iteration numbers never replace a full run's.
fn emit(path: &str, json: &str, smoke: bool) {
    if smoke {
        print!("{path} (smoke run, not written):\n{json}");
    } else {
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}
