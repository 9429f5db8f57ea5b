//! The four workloads. Each is built from a seed — the same seed gives
//! the same inputs — and runs one *pass* of `pass_len()` operations in a
//! fixed order. An operation returns its host time and an FNV digest of
//! its virtual-time outputs, so every repetition of a pass can be
//! checked against the first.
//!
//! The `run_traced` variant performs the same operation through
//! the layers' public seams — a timing [`BarrierHook`] around the
//! controller, a timing [`Recorder`] around the streaming sink, a kept
//! `Simulator` clone for cache counters, and `ExecutorCore` stepped from
//! here — and adds what it saw to [`Layers`]. It must produce the same
//! digest as `run`.

use crate::stats::{percentile, sorted, Fnv};
use rb_bench::adapt::{drifted_physics, DriftScenario};
use rb_bench::tables::{e2e_cloud, physics_for, profiled_model, search_space};
use rb_bench::{fig_cloud, synthetic_rn50};
use rb_cloud::{FaultPlan, PoolConfig};
use rb_core::{mix_seed, Prng, SimDuration};
use rb_ctrl::{AdaptationLog, AdaptiveController, ControllerConfig, ReplanTrigger, WatchdogConfig};
use rb_exec::{
    BarrierHook, BarrierSnapshot, ExecOptions, ExecutionReport, Executor, ExecutorCore, NoopHook,
    RetryPolicy, SwitchDirective, WatchdogSnapshot,
};
use rb_hpo::{Config, ExperimentSpec, SearchSpace, ShaParams};
use rb_obs::{Event, Recorder, RecorderHandle, StreamingRecorder};
use rb_planner::{plan_with_policy, PlanOutcome, PlannerConfig, Policy};
use rb_profile::{CloudProfile, ModelProfile};
use rb_serve::{JobRequest, ServeOptions, ServeReport, TenantSpec, TuningService};
use rb_sim::{AllocationPlan, SimCacheStats, Simulator};
use rb_train::TaskModel;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// The config-sampling salt `rubberband::execute_*` apply to the run
/// seed; the traced adaptive path re-implements `execute_adaptive` from
/// its parts and must sample the same trials.
const CONFIG_SALT: u64 = 0x005A_3CE0;

/// The execution seeds of `count` runs drawn from the workload seed.
fn run_seeds(seed: u64, count: usize) -> Vec<u64> {
    (0..count as u64).map(|k| mix_seed(seed, k)).collect()
}

/// One timed operation: host nanoseconds and the output digest.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub nanos: u64,
    pub digest: u64,
}

pub trait Workload {
    /// Operations in one pass.
    fn pass_len(&self) -> usize;
    /// Work items one operation completes (plans, runs, or jobs).
    fn items_per_op(&self) -> f64;
    /// Operation `i` of the pass, as a user would call it.
    fn run(&mut self, i: usize) -> Res<Op>;
    /// Operation `i` driven through the layer seams, recording into
    /// `layers`. `Op::nanos` covers only the work `run` also does.
    fn run_traced(&mut self, i: usize, layers: &mut Layers) -> Res<Op>;
    /// Operation `i` plus the invariants too costly to check on every
    /// timed repetition; returns its digest.
    fn verify(&mut self, i: usize) -> Res<u64> {
        self.run(i).map(|op| op.digest)
    }
}

/// Builds workload `name` from `seed`. `quick` shrinks it to a smoke
/// size whose operations are a prefix of the full pass.
pub fn setup(name: &str, seed: u64, quick: bool) -> Res<Box<dyn Workload>> {
    Ok(match name {
        "plan_cold" => Box::new(PlanCold::new(seed, quick)?),
        "adaptive_drift" => Box::new(AdaptiveDrift::new(seed, quick)?),
        "serve_fleet" => Box::new(ServeFleet::new(seed, quick)?),
        "trace_replay" => Box::new(TraceReplay::new(seed, quick)?),
        _ => return Err(format!("unknown workload `{name}`")),
    })
}

/// Per-layer tallies from traced operations: sums keyed by layer
/// quantity, plus raw samples for percentiles.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_default() += v;
    }

    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Traced operations tallied so far.
    pub fn ops(&self) -> usize {
        self.sum("ops") as usize
    }

    /// The per-layer metrics these tallies define; a layer the workload
    /// never entered reads 0.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let per_op = |k: &str| ratio(self.sum(k), self.sum("ops"));
        let share = |k: &str| ratio(self.sum(k), self.sum("op_ns"));
        let hit_ratio = |h: &str, m: &str| ratio(self.sum(h), self.sum(h) + self.sum(m));
        let p50 = |k: &str| {
            percentile(
                &sorted(self.samples.get(k).map_or(&[][..], Vec::as_slice)),
                0.5,
            )
        };
        vec![
            ("sim.predict_cold_us.p50", p50("sim.predict_cold_us")),
            ("sim.predict_calls", per_op("sim.predict_calls")),
            (
                "sim.plan_cache.hit_ratio",
                hit_ratio("sim.plan_hits", "sim.plan_misses"),
            ),
            (
                "sim.stage_memo.hit_ratio",
                hit_ratio("sim.memo_hits", "sim.memo_misses"),
            ),
            ("sim.arena.grows", per_op("sim.arena_grows")),
            ("ctrl.calls", per_op("ctrl.calls")),
            (
                "ctrl.share",
                ratio(self.sum("ctrl.ns"), self.sum("exec.step_ns")),
            ),
            ("ctrl.replans_applied", per_op("ctrl.replans_applied")),
            ("ctrl.watchdog_fires", per_op("ctrl.watchdog_fires")),
            ("exec.steps", per_op("exec.steps")),
            ("exec.self_share", share("exec.self_ns")),
            ("serve.loop_share", share("serve.loop_ns")),
            ("serve.completed", per_op("serve.completed")),
            ("serve.rejected", per_op("serve.rejected")),
            ("serve.pool_admits", per_op("serve.pool_admits")),
            ("pool.handoffs", per_op("pool.handoffs")),
            ("pool.expirations", per_op("pool.expirations")),
            ("pool.conflicts", per_op("pool.conflicts")),
            ("pool.double_releases", per_op("pool.double_releases")),
            ("obs.record_share", share("obs.record_ns")),
            ("obs.overhead_share", share("obs.overhead_ns")),
            ("obs.lines", per_op("obs.lines")),
            ("obs.bytes", per_op("obs.bytes")),
            ("report.preemptions", per_op("report.preemptions")),
            (
                "report.provision_retries",
                per_op("report.provision_retries"),
            ),
            ("report.faults_injected", per_op("report.faults_injected")),
            ("replay.share", share("replay.ns")),
        ]
    }
}

/// Times a fresh-simulator prediction of `plan`: the cold Monte-Carlo
/// cost every layer above the simulator ultimately pays.
fn probe_cold_predict(
    layers: &mut Layers,
    model: &ModelProfile,
    cloud: &CloudProfile,
    spec: &ExperimentSpec,
    plan: &AllocationPlan,
) -> Res<()> {
    let (pred, ns) = timed(|| Simulator::new(model.clone(), cloud.clone()).predict(spec, plan));
    pred.map_err(err)?;
    layers.sample("sim.predict_cold_us", ns as f64 / 1e3);
    Ok(())
}

/// Adds one simulator's cache counters; `arena_before` is the
/// process-wide arena miss count when the operation started.
fn add_sim_stats(layers: &mut Layers, stats: &SimCacheStats, arena_before: u64) {
    let (plan, memo) = (&stats.plan, &stats.stage_memo);
    layers.add("sim.predict_calls", (plan.hits + plan.misses) as f64);
    layers.add("sim.plan_hits", plan.hits as f64);
    layers.add("sim.plan_misses", plan.misses as f64);
    layers.add("sim.memo_hits", memo.hits as f64);
    layers.add("sim.memo_misses", memo.misses as f64);
    layers.add(
        "sim.arena_grows",
        (stats.arena.misses - arena_before) as f64,
    );
}

fn digest_plan(out: &PlanOutcome) -> u64 {
    let mut h = Fnv::default();
    for &g in out.plan.as_slice() {
        h.u64(u64::from(g));
    }
    let p = &out.prediction;
    h.u64(p.jct.as_millis())
        .f64(p.jct_std_secs)
        .u64(p.cost.as_micros() as u64)
        .u64(p.cost_std.as_micros() as u64)
        .u64(u64::from(p.samples));
    h.finish()
}

fn digest_report_into(h: &mut Fnv, r: &ExecutionReport) {
    h.u64(r.jct.as_millis())
        .u64(r.compute_cost.as_micros() as u64)
        .u64(r.data_cost.as_micros() as u64)
        .u64(r.best_trial.raw())
        .f64(r.best_accuracy)
        .u64(u64::from(r.migrations))
        .u64(u64::from(r.preemptions))
        .u64(r.instances_provisioned as u64)
        .f64(r.utilization.unwrap_or(-1.0))
        .u64(r.faults_injected)
        .u64(r.provision_retries)
        .u64(r.checkpoint_fallbacks)
        .u64(u64::from(r.degraded_stages))
        .u64(r.trace.events.len() as u64);
    for s in &r.stages {
        h.u64(s.stage as u64)
            .u64(s.train_start.as_millis())
            .u64(s.sync_end.as_millis())
            .u64(u64::from(s.trials))
            .u64(u64::from(s.gpus_per_trial))
            .u64(u64::from(s.instances))
            .u64(u64::from(s.migrations));
    }
}

fn digest_report(r: &ExecutionReport) -> u64 {
    let mut h = Fnv::default();
    digest_report_into(&mut h, r);
    h.finish()
}

fn digest_adaptive(r: &ExecutionReport, log: &AdaptationLog) -> u64 {
    let mut h = Fnv::default();
    digest_report_into(&mut h, r);
    for e in &log.events {
        h.u64(e.stage as u64)
            .u64(u64::from(e.applied))
            .u64(u64::from(e.feasible))
            .u64(e.predicted_jct.as_millis())
            .u64(e.predicted_cost.as_micros() as u64);
        for &g in &e.new_suffix {
            h.u64(u64::from(g));
        }
    }
    h.u64(log.refits.len() as u64);
    h.finish()
}

fn digest_serve(r: &ServeReport) -> u64 {
    let mut h = Fnv::default();
    h.bytes(r.render().as_bytes());
    for o in &r.outcomes {
        h.u64(o.job)
            .u64(o.dispatched.as_millis())
            .u64(o.finished.as_millis())
            .u64(o.report.total_cost().as_micros() as u64);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// plan_cold
// ---------------------------------------------------------------------------

struct PlanCase {
    spec: ExperimentSpec,
    model: ModelProfile,
    cloud: CloudProfile,
    deadline: SimDuration,
}

/// `compile_plan` on a fresh simulator for every cell of a SHA shape
/// grid spanning the paper's Fig. 9–12 sizes. The grid is fixed, so
/// seeds differ only in the drawn latencies, noise and deadline slack,
/// and every seed loads the planner with the same mix of shapes.
pub struct PlanCold {
    cases: Vec<PlanCase>,
}

impl PlanCold {
    const TRIALS: [u32; 6] = [16, 32, 64, 128, 256, 512];
    const MIN_ITERS: [u64; 2] = [1, 4];
    const ETAS: [u32; 3] = [2, 3, 4];
    const INIT_SECS: [f64; 3] = [1.0, 10.0, 100.0];

    /// The grid with its seeded draws: `(n, r, η, init latency s, μ s/iter,
    /// noise std s, deadline slack)` per cell. Within each trial count the
    /// draws are a Latin hypercube: every seed uses the same strata of μ,
    /// noise and slack, and the seed decides which cell gets which stratum
    /// and where in it the value falls. Seeds thus vary the inputs without
    /// moving the mix of planning difficulty.
    fn draw(seed: u64) -> Vec<(u32, u64, u32, f64, f64, f64, f64)> {
        let mut rng = Prng::seed_from_u64(seed ^ 0x91A4_C01D);
        let cells = Self::MIN_ITERS.len() * Self::ETAS.len() * Self::INIT_SECS.len();
        let mut drawn = Vec::new();
        for n in Self::TRIALS {
            let mut strata = [(); 3].map(|_| {
                let mut order: Vec<usize> = (0..cells).collect();
                rng.shuffle(&mut order);
                order.into_iter()
            });
            let mut level = |rng: &mut Prng, axis: usize| {
                let k = strata[axis].next().expect("one stratum per cell");
                (k as f64 + rng.next_f64()) / cells as f64
            };
            for r in Self::MIN_ITERS {
                for eta in Self::ETAS {
                    for init in Self::INIT_SECS {
                        let mu = 2.0 + 9.0 * level(&mut rng, 0);
                        let noise = mu * 0.3 * level(&mut rng, 1);
                        let slack = 1.05 + 0.95 * level(&mut rng, 2);
                        drawn.push((n, r, eta, init, mu, noise, slack));
                    }
                }
            }
        }
        drawn
    }

    fn new(seed: u64, quick: bool) -> Res<Self> {
        let mut drawn = Self::draw(seed);
        if quick {
            drawn.truncate(2);
        }
        let cases = drawn
            .into_iter()
            .map(|(n, r, eta, init, mu, noise, slack)| {
                // R = the full ladder: the last rung trains one trial.
                let mut big_r = 0;
                let (mut trials, mut iters) = (n, r);
                loop {
                    big_r += iters;
                    if trials <= 1 {
                        break;
                    }
                    trials /= eta;
                    iters *= u64::from(eta);
                }
                let spec = ShaParams::new(n, r, big_r)
                    .with_eta(eta)
                    .generate()
                    .map_err(err)?;
                let model = synthetic_rn50(512, mu, noise);
                let cloud = fig_cloud(init);
                // The one-GPU-per-trial static cluster is a candidate of
                // the planner's static scan, so a deadline above its
                // predicted JCT is always feasible.
                let flat = AllocationPlan::flat(n, spec.num_stages());
                let jct = Simulator::new(model.clone(), cloud.clone())
                    .predict(&spec, &flat)
                    .map_err(err)?
                    .jct;
                let deadline = SimDuration::from_secs_f64(jct.as_secs_f64() * slack);
                Ok(PlanCase {
                    spec,
                    model,
                    cloud,
                    deadline,
                })
            })
            .collect::<Res<_>>()?;
        Ok(PlanCold { cases })
    }
}

impl Workload for PlanCold {
    fn pass_len(&self) -> usize {
        self.cases.len()
    }

    fn items_per_op(&self) -> f64 {
        1.0
    }

    fn run(&mut self, i: usize) -> Res<Op> {
        let c = &self.cases[i];
        let (out, nanos) =
            timed(|| rubberband::compile_plan(&c.spec, &c.model, &c.cloud, c.deadline));
        Ok(Op {
            nanos,
            digest: digest_plan(&out.map_err(err)?),
        })
    }

    fn run_traced(&mut self, i: usize, layers: &mut Layers) -> Res<Op> {
        let c = &self.cases[i];
        let arena_before = Simulator::new(c.model.clone(), c.cloud.clone())
            .cache_stats()
            .arena
            .misses;
        // `compile_plan` is exactly this call on a fresh simulator; the
        // kept handle exposes the simulator's cache counters.
        let ((out, stats), nanos) = timed(|| {
            let sim = Simulator::new(c.model.clone(), c.cloud.clone());
            let out = plan_with_policy(
                Policy::RubberBand,
                &sim,
                &c.spec,
                c.deadline,
                &PlannerConfig::default(),
            );
            (out, sim.cache_stats())
        });
        let out = out.map_err(err)?;
        add_sim_stats(layers, &stats, arena_before);
        probe_cold_predict(layers, &c.model, &c.cloud, &c.spec, &out.plan)?;
        Ok(Op {
            nanos,
            digest: digest_plan(&out),
        })
    }
}

// ---------------------------------------------------------------------------
// adaptive_drift
// ---------------------------------------------------------------------------

struct AdaptCell {
    physics: ModelProfile,
    cloud: CloudProfile,
    config: ControllerConfig,
}

/// `execute_adaptive` of the Table 2 job, SHA(32, 1, 50, η=3) planned
/// once under a 30-minute deadline, over every drift scenario × spot
/// rate × watchdog cell of the `ext-adapt` sweep's kind. Seeds vary the
/// execution noise only.
pub struct AdaptiveDrift {
    task: TaskModel,
    spec: ExperimentSpec,
    model: ModelProfile,
    space: SearchSpace,
    deadline: SimDuration,
    plan: AllocationPlan,
    cells: Vec<AdaptCell>,
    seeds: Vec<u64>,
}

impl AdaptiveDrift {
    const REPS: usize = 8;

    fn new(seed: u64, quick: bool) -> Res<Self> {
        let task = rb_train::task::resnet101_cifar10();
        let spec = ShaParams::new(32, 1, 50)
            .with_eta(3)
            .generate()
            .map_err(err)?;
        let model = profiled_model(&task, 1024, 4, 32);
        let deadline = SimDuration::from_mins(30);
        let plan = rubberband::compile_plan(&spec, &model, &e2e_cloud(), deadline)
            .map_err(err)?
            .plan;
        let scenarios = [
            DriftScenario::calm(),
            DriftScenario::uniform(1.25),
            DriftScenario::uniform(1.5),
            DriftScenario::contention(6.0),
            DriftScenario::straggler(4, 3.0),
            DriftScenario::straggler(4, 6.0),
        ];
        let mut cells = Vec::new();
        for scenario in scenarios {
            let physics = drifted_physics(&task, 1024, 4, scenario);
            for rate in [0.0, 0.5, 2.0] {
                let mut cloud = e2e_cloud().with_spot_interruptions(rate);
                if rate > 0.0 {
                    cloud.pricing = cloud.pricing.with_spot();
                }
                for enabled in [false, true] {
                    cells.push(AdaptCell {
                        physics: physics.clone(),
                        cloud: cloud.clone(),
                        config: ControllerConfig {
                            watchdog: WatchdogConfig {
                                enabled,
                                ..WatchdogConfig::default()
                            },
                            ..ControllerConfig::default()
                        },
                    });
                }
            }
        }
        let runs = if quick { 2 } else { cells.len() * Self::REPS };
        let seeds = run_seeds(seed, runs);
        Ok(AdaptiveDrift {
            task,
            spec,
            model,
            space: search_space(),
            deadline,
            plan,
            cells,
            seeds,
        })
    }

    fn options(&self, i: usize) -> ExecOptions {
        ExecOptions {
            seed: self.seeds[i],
            ..ExecOptions::default()
        }
    }
}

/// Times every controller callback the executor makes.
struct TimedHook<'a, H> {
    inner: &'a mut H,
    ns: u64,
    calls: u64,
}

impl<H> TimedHook<'_, H> {
    fn charge(&mut self, start: Instant) {
        self.ns += start.elapsed().as_nanos() as u64;
    }
}

impl<H: BarrierHook> BarrierHook for TimedHook<'_, H> {
    fn at_barrier(&mut self, snapshot: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
        let start = Instant::now();
        let out = self.inner.at_barrier(snapshot);
        self.charge(start);
        self.calls += 1;
        out
    }

    fn stage_budget_secs(&mut self, stage: usize) -> Option<f64> {
        let start = Instant::now();
        let out = self.inner.stage_budget_secs(stage);
        self.charge(start);
        out
    }

    fn at_watchdog(&mut self, snapshot: &WatchdogSnapshot<'_>) -> Option<Vec<u32>> {
        let start = Instant::now();
        let out = self.inner.at_watchdog(snapshot);
        self.charge(start);
        self.calls += 1;
        out
    }

    fn pending_switch(&mut self) -> Option<SwitchDirective> {
        let start = Instant::now();
        let out = self.inner.pending_switch();
        self.charge(start);
        out
    }
}

impl Workload for AdaptiveDrift {
    fn pass_len(&self) -> usize {
        self.seeds.len()
    }

    fn items_per_op(&self) -> f64 {
        1.0
    }

    fn run(&mut self, i: usize) -> Res<Op> {
        let cell = &self.cells[i % self.cells.len()];
        let options = self.options(i);
        let (out, nanos) = timed(|| {
            rubberband::execute_adaptive(
                &self.spec,
                &self.plan,
                &self.task,
                &cell.physics,
                &self.model,
                &cell.cloud,
                &self.space,
                self.deadline,
                options,
                &cell.config,
            )
        });
        let out = out.map_err(err)?;
        Ok(Op {
            nanos,
            digest: digest_adaptive(&out.report, &out.adaptation),
        })
    }

    fn run_traced(&mut self, i: usize, layers: &mut Layers) -> Res<Op> {
        let cell = &self.cells[i % self.cells.len()];
        let options = self.options(i);
        let arena_before = Simulator::new(self.model.clone(), cell.cloud.clone())
            .cache_stats()
            .arena
            .misses;
        // `execute_adaptive` from its parts, with the controller behind a
        // timing hook and the executor stepped from here.
        let start = Instant::now();
        let sim = Simulator::new(self.model.clone(), cell.cloud.clone());
        let view = sim.clone();
        let mut controller = AdaptiveController::new(
            sim,
            self.spec.clone(),
            &self.plan,
            self.deadline,
            cell.config.clone(),
        )
        .map_err(err)?;
        let mut rng = Prng::seed_from_u64(options.seed ^ CONFIG_SALT);
        let configs = self
            .space
            .sample_n(self.spec.initial_trials() as usize, &mut rng);
        let exec = Executor::new(
            self.spec.clone(),
            self.plan.clone(),
            self.task.clone(),
            cell.physics.clone(),
            cell.cloud.clone(),
        )
        .map_err(err)?
        .with_options(options);
        let mut hook = TimedHook {
            inner: &mut controller,
            ns: 0,
            calls: 0,
        };
        let mut core = ExecutorCore::new(&exec, &configs, RecorderHandle::noop()).map_err(err)?;
        let (mut steps, mut step_ns) = (0u64, 0u64);
        while !core.is_finished() {
            let now = core.now();
            let (stepped, ns) = timed(|| core.step(now, &mut hook));
            stepped.map_err(err)?;
            steps += 1;
            step_ns += ns;
        }
        let report = core.finish().map_err(err)?;
        let (hook_ns, calls) = (hook.ns, hook.calls);
        let log = controller.into_log();
        let stats = view.cache_stats();
        drop(view);
        let nanos = start.elapsed().as_nanos() as u64;

        add_sim_stats(layers, &stats, arena_before);
        layers.add("ctrl.calls", calls as f64);
        layers.add("ctrl.ns", hook_ns as f64);
        layers.add("ctrl.replans_applied", log.applied() as f64);
        let fires = log
            .events
            .iter()
            .filter(|e| e.trigger == ReplanTrigger::Watchdog)
            .count();
        layers.add("ctrl.watchdog_fires", fires as f64);
        layers.add("exec.steps", steps as f64);
        layers.add("exec.step_ns", step_ns as f64);
        layers.add("exec.self_ns", step_ns.saturating_sub(hook_ns) as f64);
        layers.add("report.preemptions", f64::from(report.preemptions));
        probe_cold_predict(layers, &self.model, &cell.cloud, &self.spec, &self.plan)?;
        Ok(Op {
            nanos,
            digest: digest_adaptive(&report, &log),
        })
    }
}

// ---------------------------------------------------------------------------
// serve_fleet
// ---------------------------------------------------------------------------

/// `TuningService::run` over one 1024-job list — four tenants weighted
/// 3/2/1/1, Poisson arrivals 120 s apart on average, SHA(16, 1, 20, η=2)
/// — with the shared pool and pool-aware admission on. The list is built
/// (and its plan simulated) once in setup and cloned untimed per run.
pub struct ServeFleet {
    service: TuningService,
    jobs: Vec<JobRequest>,
    spec: ExperimentSpec,
    physics: ModelProfile,
    cloud: CloudProfile,
    plan: Option<AllocationPlan>,
}

impl ServeFleet {
    const DEADLINE: SimDuration = SimDuration::from_hours(2);

    fn new(seed: u64, quick: bool) -> Res<Self> {
        let task = rb_train::task::resnet101_cifar10();
        let physics = physics_for(&task, 1024, 4);
        let cloud = e2e_cloud();
        let spec = ShaParams::new(16, 1, 20)
            .with_eta(2)
            .generate()
            .map_err(err)?;
        let tenants = vec![
            TenantSpec::new("a", 3.0),
            TenantSpec::new("b", 2.0),
            TenantSpec::new("c", 1.0),
            TenantSpec::new("d", 1.0),
        ];
        let workload = rubberband::ServeWorkload {
            tenants: tenants.clone(),
            jobs_per_tenant: if quick { 2 } else { 256 },
            mean_interarrival_secs: 120.0,
            seed,
        };
        let jobs = rubberband::serve_workload_jobs(
            &workload,
            &spec,
            &task,
            &physics,
            &cloud,
            &search_space(),
            Self::DEADLINE,
        )
        .map_err(err)?;
        let service = TuningService::new(
            tenants,
            ServeOptions {
                max_concurrent: 8,
                pool: Some(PoolConfig::default()),
                pool_admission: true,
                ..ServeOptions::default()
            },
        )
        .map_err(err)?;
        Ok(ServeFleet {
            service,
            jobs,
            spec,
            physics,
            cloud,
            plan: None,
        })
    }

    /// The pool ledger must balance exactly, with no conflicting or
    /// duplicated releases.
    fn check_pool(report: &ServeReport) -> Res<()> {
        let pool = report
            .pool
            .as_ref()
            .ok_or("serve report lacks pool stats")?;
        if !pool.balances(0) || pool.conflicts != 0 || pool.double_releases != 0 {
            return Err(format!("pool ledger broken: {pool:?}"));
        }
        Ok(())
    }

    /// One service run over an untimed clone of the job list.
    fn serve_once(&self) -> Res<(ServeReport, Op)> {
        let jobs = self.jobs.clone();
        let (report, nanos) = timed(|| self.service.run(jobs));
        let report = report.map_err(err)?;
        Self::check_pool(&report)?;
        let digest = digest_serve(&report);
        Ok((report, Op { nanos, digest }))
    }
}

impl Workload for ServeFleet {
    fn pass_len(&self) -> usize {
        1
    }

    fn items_per_op(&self) -> f64 {
        self.jobs.len() as f64
    }

    fn run(&mut self, _i: usize) -> Res<Op> {
        self.serve_once().map(|(_, op)| op)
    }

    fn run_traced(&mut self, _i: usize, layers: &mut Layers) -> Res<Op> {
        let (report, op) = self.serve_once()?;
        let pool = report.pool.clone().unwrap_or_default();
        layers.add("serve.completed", report.outcomes.len() as f64);
        layers.add("serve.rejected", report.rejected.len() as f64);
        layers.add("serve.pool_admits", report.pool_admits as f64);
        layers.add("pool.handoffs", pool.handoffs as f64);
        layers.add("pool.expirations", pool.expirations as f64);
        layers.add("pool.conflicts", pool.conflicts as f64);
        layers.add("pool.double_releases", pool.double_releases as f64);

        // The same jobs stepped alone, without the service or the pool:
        // what the executor costs by itself.
        let (steps, alone_ns) = timed(|| -> Res<u64> {
            let mut steps = 0;
            for job in &self.jobs {
                let mut core =
                    ExecutorCore::new(&job.executor, &job.configs, RecorderHandle::noop())
                        .map_err(err)?;
                while !core.is_finished() {
                    let now = core.now();
                    core.step(now, &mut NoopHook).map_err(err)?;
                    steps += 1;
                }
                core.finish().map_err(err)?;
            }
            Ok(steps)
        });
        layers.add("exec.steps", steps? as f64);
        layers.add("exec.self_ns", alone_ns as f64);
        layers.add("serve.loop_ns", op.nanos as f64 - alone_ns as f64);

        if self.plan.is_none() {
            let out =
                rubberband::compile_plan(&self.spec, &self.physics, &self.cloud, Self::DEADLINE)
                    .map_err(err)?;
            self.plan = Some(out.plan);
        }
        let plan = self.plan.as_ref().expect("set above");
        probe_cold_predict(layers, &self.physics, &self.cloud, &self.spec, plan)?;
        Ok(op)
    }
}

// ---------------------------------------------------------------------------
// trace_replay
// ---------------------------------------------------------------------------

/// A [`Recorder`] that forwards to the streaming sink and keeps the host
/// time spent inside it.
#[derive(Debug)]
struct TimedRecorder {
    inner: StreamingRecorder<Vec<u8>>,
    ns: AtomicU64,
}

impl TimedRecorder {
    fn charge(&self, start: Instant) {
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl Recorder for TimedRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        let start = Instant::now();
        self.inner.record(event);
        self.charge(start);
    }

    fn counter_add(&self, scope: &'static str, name: &'static str, delta: u64) {
        let start = Instant::now();
        self.inner.counter_add(scope, name, delta);
        self.charge(start);
    }

    fn histogram(&self, scope: &'static str, name: &'static str, value: f64) {
        let start = Instant::now();
        self.inner.histogram(scope, name, value);
        self.charge(start);
    }

    fn flush(&self) {
        let start = Instant::now();
        Recorder::flush(&self.inner);
        self.charge(start);
    }
}

/// An open-loop run of SHA(64, 1, 64, η=2) on spot capacity (2
/// interruptions per instance-hour) with capacity, straggler and
/// degraded-node faults and a retry policy, recorded into an in-memory
/// streaming JSONL sink and replayed from that text alone.
pub struct TraceReplay {
    spec: ExperimentSpec,
    physics: ModelProfile,
    cloud: CloudProfile,
    plan: AllocationPlan,
    runs: Vec<(Executor, Vec<Config>)>,
}

/// One recorded run: the live report and the report replayed from its
/// trace.
struct RoundTrip {
    live: ExecutionReport,
    replayed: ExecutionReport,
}

impl TraceReplay {
    const RUNS: usize = 256;

    fn new(seed: u64, quick: bool) -> Res<Self> {
        let task = rb_train::task::resnet101_cifar10();
        let physics = physics_for(&task, 1024, 4);
        let spec = ShaParams::new(64, 1, 64)
            .with_eta(2)
            .generate()
            .map_err(err)?;
        let plan =
            rubberband::compile_plan(&spec, &physics, &e2e_cloud(), SimDuration::from_hours(1))
                .map_err(err)?
                .plan;
        let mut cloud = e2e_cloud().with_spot_interruptions(2.0);
        cloud.pricing = cloud.pricing.with_spot();
        let options = ExecOptions {
            faults: FaultPlan {
                capacity_failure_prob: 0.3,
                straggler_prob: 0.2,
                straggler_factor: 20.0,
                degraded_prob: 0.2,
                degraded_factor: 1.5,
                ..FaultPlan::none()
            },
            retry: Some(RetryPolicy {
                max_retries: 12,
                base_backoff_secs: 5.0,
                max_backoff_secs: 60.0,
                request_timeout_secs: 60.0,
            }),
            checkpoint_retention: 3,
            ..ExecOptions::default()
        };
        let space = search_space();
        let count = if quick { 2 } else { Self::RUNS };
        let runs = run_seeds(seed, count)
            .into_iter()
            .map(|run_seed| {
                let configs = space.sample_n(
                    spec.initial_trials() as usize,
                    &mut Prng::seed_from_u64(run_seed ^ CONFIG_SALT),
                );
                let exec = Executor::new(
                    spec.clone(),
                    plan.clone(),
                    task.clone(),
                    physics.clone(),
                    cloud.clone(),
                )
                .map_err(err)?
                .with_options(ExecOptions {
                    seed: run_seed,
                    ..options.clone()
                });
                Ok((exec, configs))
            })
            .collect::<Res<_>>()?;
        Ok(TraceReplay {
            spec,
            physics,
            cloud,
            plan,
            runs,
        })
    }

    fn round_trip(&self, i: usize) -> Res<(RoundTrip, u64)> {
        let (exec, configs) = &self.runs[i];
        let (out, nanos) = timed(|| -> Res<RoundTrip> {
            let sink = Arc::new(StreamingRecorder::in_memory());
            let live = exec
                .run_observed(configs, &mut NoopHook, RecorderHandle::new(sink.clone()))
                .map_err(err)?;
            let jsonl = Arc::try_unwrap(sink)
                .map_err(|_| "trace sink still shared after the run")?
                .into_jsonl();
            let replayed = rb_replay::replay_jsonl(&jsonl)?.report;
            Ok(RoundTrip { live, replayed })
        });
        Ok((out?, nanos))
    }

    /// Replay must rebuild the live run exactly.
    fn checked_digest(live: &ExecutionReport, replayed: &ExecutionReport) -> Res<u64> {
        let digest = digest_report(replayed);
        if digest != digest_report(live) {
            return Err("replayed report differs from the live run".into());
        }
        Ok(digest)
    }
}

impl Workload for TraceReplay {
    fn pass_len(&self) -> usize {
        self.runs.len()
    }

    fn items_per_op(&self) -> f64 {
        1.0
    }

    fn run(&mut self, i: usize) -> Res<Op> {
        let (rt, nanos) = self.round_trip(i)?;
        Ok(Op {
            nanos,
            digest: Self::checked_digest(&rt.live, &rt.replayed)?,
        })
    }

    fn verify(&mut self, i: usize) -> Res<u64> {
        let (rt, _) = self.round_trip(i)?;
        let (exec, configs) = &self.runs[i];
        let plain = exec.run(configs).map_err(err)?;
        let live = format!("{:?}", rt.live);
        if format!("{plain:?}") != live {
            return Err("recording changed the run".into());
        }
        if format!("{:?}", rt.replayed) != live {
            return Err("replayed report differs from the live run".into());
        }
        Self::checked_digest(&rt.live, &rt.replayed)
    }

    fn run_traced(&mut self, i: usize, layers: &mut Layers) -> Res<Op> {
        let (exec, configs) = &self.runs[i];
        let (plain, untraced_ns) = timed(|| exec.run(configs));
        let plain = plain.map_err(err)?;

        let sink = Arc::new(TimedRecorder {
            inner: StreamingRecorder::in_memory(),
            ns: AtomicU64::new(0),
        });
        let start = Instant::now();
        let mut core =
            ExecutorCore::new(exec, configs, RecorderHandle::new(sink.clone())).map_err(err)?;
        let mut steps = 0u64;
        while !core.is_finished() {
            let now = core.now();
            core.step(now, &mut NoopHook).map_err(err)?;
            steps += 1;
        }
        let live = core.finish().map_err(err)?;
        let observed_ns = start.elapsed().as_nanos() as u64;
        let (jsonl, finish_ns) = timed(|| {
            Arc::try_unwrap(sink)
                .map(|s| (s.ns.into_inner(), s.inner.into_jsonl()))
                .map_err(|_| "trace sink still shared after the run")
        });
        let (record_ns, jsonl) = jsonl?;
        let (replayed, replay_ns) = timed(|| rb_replay::replay_jsonl(&jsonl));
        let replayed = replayed?.report;
        let digest = Self::checked_digest(&live, &replayed)?;
        if digest != digest_report(&plain) {
            return Err("recording changed the run".into());
        }

        layers.add("exec.steps", steps as f64);
        layers.add("exec.self_ns", observed_ns.saturating_sub(record_ns) as f64);
        layers.add("obs.record_ns", (record_ns + finish_ns) as f64);
        layers.add(
            "obs.overhead_ns",
            (observed_ns + finish_ns) as f64 - untraced_ns as f64,
        );
        layers.add("obs.lines", jsonl.lines().count() as f64);
        layers.add("obs.bytes", jsonl.len() as f64);
        layers.add("replay.ns", replay_ns as f64);
        layers.add("report.preemptions", f64::from(live.preemptions));
        layers.add("report.provision_retries", live.provision_retries as f64);
        layers.add("report.faults_injected", live.faults_injected as f64);
        probe_cold_predict(layers, &self.physics, &self.cloud, &self.spec, &self.plan)?;
        Ok(Op {
            nanos: observed_ns + finish_ns + replay_ns,
            digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::SimTime;

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        let a = PlanCold::draw(1);
        assert_eq!(a.len(), 108);
        assert_eq!(a, PlanCold::draw(1));
        let b = PlanCold::draw(2);
        // Same grid of shapes, different drawn latencies and slack.
        let grid = |d: &[(u32, u64, u32, f64, f64, f64, f64)]| {
            d.iter().map(|x| (x.0, x.1, x.2)).collect::<Vec<_>>()
        };
        assert_eq!(grid(&a), grid(&b));
        assert_ne!(a, b);

        // adaptive_drift and trace_replay draw only their run seeds.
        let seeds = run_seeds(1, 8);
        assert_eq!(seeds, run_seeds(1, 8));
        assert_ne!(seeds, run_seeds(2, 8));

        // serve_fleet's arrivals come from `serve_workload_jobs`, which
        // also plans the (small) job once per build.
        let serve = |seed| {
            let w = ServeFleet::new(seed, true).unwrap();
            w.jobs.iter().map(|j| j.arrival).collect::<Vec<SimTime>>()
        };
        let arrivals = serve(1);
        assert_eq!(arrivals, serve(1));
        assert_ne!(arrivals, serve(2));
    }
}
