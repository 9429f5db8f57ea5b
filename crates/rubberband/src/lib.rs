//! # RubberBand: cost-efficient, elastic hyperparameter tuning in the cloud
//!
//! A from-scratch Rust reproduction of *RubberBand: Cloud-based
//! Hyperparameter Tuning* (EuroSys '21). Given a declarative
//! early-stopping experiment (Successive Halving / Hyperband), a profiled
//! model scaling function, and a cloud cost/latency profile, RubberBand
//!
//! 1. **models** the job's execution as a DAG of SCALE / INIT / TRAIN /
//!    SYNC tasks and predicts completion time and dollar cost by
//!    Monte-Carlo simulation ([`rb_sim`]);
//! 2. **plans** a per-stage elastic GPU allocation that minimizes
//!    predicted cost subject to a deadline ([`rb_planner`]);
//! 3. **executes** the plan over an elastic (simulated) cluster with
//!    locality-preserving worker placement, checkpoint-based migration
//!    and stage-wise early stopping ([`rb_exec`], [`rb_placement`]).
//!
//! The crate mirrors the paper's user-facing API (Fig. 6): build an
//! [`ExperimentSpec`], [`compile_plan`] it against profiles and a
//! deadline, then [`execute`] it. Every run launches through one driver,
//! [`Run::execute`], which takes a barrier hook (the adaptation
//! controller, or none) and a recorder (a trace sink, or none).
//!
//! # Examples
//!
//! ```
//! use rubberband::prelude::*;
//! use std::sync::Arc;
//!
//! // An SHA(n=8, r=1, R=8, η=2) tuning job.
//! let spec = ShaParams::new(8, 1, 8).generate().unwrap();
//!
//! // Profiles: ResNet-50 physics on 4-GPU instances, profiled scaling.
//! let task = rb_train::task::resnet50_cifar10();
//! let physics = ModelProfile::exact_for_task(&task, 512, 4);
//! let cloud = CloudProfile::new(CloudPricing::on_demand(
//!     rb_cloud::catalog::P3_8XLARGE,
//! ));
//!
//! // Plan a cost-efficient elastic allocation under a 2-hour deadline.
//! let outcome = rubberband::compile_plan(
//!     &spec,
//!     &physics,
//!     &cloud,
//!     SimDuration::from_hours(2),
//! )
//! .unwrap();
//!
//! // Execute it on a random-search space.
//! let space = SearchSpace::new()
//!     .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
//!     .build()
//!     .unwrap();
//! let report =
//!     rubberband::execute(&spec, &outcome.plan, &task, &physics, &cloud, &space, 7)
//!         .unwrap();
//! assert!(report.best_accuracy > 0.1);
//!
//! // The same run, recorded: the trace lands in memory and rolls up
//! // into a byte-stable summary.
//! let sink = Arc::new(MemoryRecorder::new());
//! let run = Run {
//!     spec: &spec,
//!     plan: &outcome.plan,
//!     task: &task,
//!     physics: &physics,
//!     cloud: &cloud,
//!     space: &space,
//!     options: ExecOptions { seed: 7, ..ExecOptions::default() },
//! };
//! let recorded = run
//!     .execute(&mut rb_exec::NoopHook, &RecorderHandle::new(sink.clone()))
//!     .unwrap();
//! let log = sink.finish();
//! let summary =
//!     recorded.summary(CacheStats::default(), CacheStats::default(), 0, 0, log.events.len());
//! assert_eq!(summary.jct, report.jct);
//! ```

pub use rb_cloud;
pub use rb_core;
pub use rb_ctrl;
pub use rb_exec;
pub use rb_hpo;
pub use rb_obs;
pub use rb_placement;
pub use rb_planner;
pub use rb_profile;
pub use rb_scaling;
pub use rb_serve;
pub use rb_sim;
pub use rb_train;

use rb_core::{Cost, Prng, Result, SimDuration, SimTime};
use rb_ctrl::{AdaptationLog, AdaptiveController, ControllerConfig};
use rb_exec::{BarrierHook, ExecOptions, ExecutionReport, Executor, NoopHook};
use rb_hpo::{Config, ExperimentSpec, SearchSpace};
use rb_obs::{JobScopedRecorder, Lane, RecorderHandle, SpanTracker};
use rb_planner::{plan_with_policy, MultiJobDiscipline, PlanOutcome, PlannerConfig, Policy};
use rb_profile::{CloudProfile, ModelProfile};
use rb_serve::JobRequest;
use rb_sim::{AllocationPlan, Simulator};
use rb_train::TaskModel;
use std::sync::Arc;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use crate::Run;
    pub use rb_cloud::{BillingModel, CloudPricing, FaultPlan, PricingTier, ZonePlan, ZoneWindow};
    pub use rb_core::{Cost, Distribution, Prng, RbError, Result, SimDuration, SimTime};
    pub use rb_ctrl::{
        AdaptationLog, AdaptiveController, ControllerConfig, DriftConfig, MarketChoice,
        MarketConfig, RefitConfig, RefitEvent, ReplanEvent, ReplanTrigger, WatchdogConfig,
    };
    pub use rb_exec::{ExecOptions, ExecutionReport, Executor, RetryPolicy};
    pub use rb_hpo::{Config, Dim, ExperimentSpec, SearchSpace, ShaParams};
    pub use rb_obs::{CacheStats, MemoryRecorder, RecorderHandle, RunSummary, TraceLog};
    pub use rb_planner::{PlanOutcome, PlannerConfig, Policy};
    pub use rb_profile::{CloudProfile, ModelProfile};
    pub use rb_scaling::{
        AnalyticScaling, IdealScaling, InterpolatedScaling, PlacementQuality, ScalingModel,
    };
    pub use rb_serve::{JobRequest, ServeOptions, ServeReport, TenantSpec, TuningService};
    pub use rb_sim::{AllocationPlan, Prediction, SimConfig, Simulator};
    pub use rb_train::TaskModel;
}

/// Profiles a training task on a ground-truth scaling model and compiles
/// a plan in one call — the full pre-execution flow of §5 (profile →
/// fit → plan).
///
/// # Errors
///
/// Propagates profiling and planning errors.
pub fn profile_and_plan(
    spec: &ExperimentSpec,
    truth: &dyn rb_scaling::ScalingModel,
    steps_per_iter: u64,
    cloud: &CloudProfile,
    deadline: SimDuration,
) -> Result<(ModelProfile, PlanOutcome)> {
    let mut model = rb_profile::profile_training(
        truth,
        steps_per_iter,
        5.0,
        &rb_profile::ProfilerConfig::default(),
    )?
    .profile;
    model.train_startup_secs = 5.0;
    let outcome = compile_plan(spec, &model, cloud, deadline)?;
    Ok((model, outcome))
}

/// Compiles a cost-minimizing elastic allocation plan for `spec` under
/// `deadline`, using RubberBand's greedy planner with default settings
/// (the paper's `rb.compile_plan(spec, model_profile, cloud_profile,
/// deadline)`).
///
/// # Errors
///
/// Returns [`rb_core::RbError::Infeasible`] when no plan meets the
/// deadline.
pub fn compile_plan(
    spec: &ExperimentSpec,
    model: &ModelProfile,
    cloud: &CloudProfile,
    deadline: SimDuration,
) -> Result<PlanOutcome> {
    compile_plan_with(
        Policy::RubberBand,
        spec,
        model,
        cloud,
        deadline,
        &PlannerConfig::default(),
    )
}

/// [`compile_plan`] with an explicit policy (static / naive-elastic /
/// RubberBand) and planner configuration — how the paper's baselines are
/// produced.
///
/// # Errors
///
/// Returns [`rb_core::RbError::Infeasible`] when the policy cannot meet
/// the deadline.
pub fn compile_plan_with(
    policy: Policy,
    spec: &ExperimentSpec,
    model: &ModelProfile,
    cloud: &CloudProfile,
    deadline: SimDuration,
    config: &PlannerConfig,
) -> Result<PlanOutcome> {
    let sim = Simulator::new(model.clone(), cloud.clone());
    plan_with_policy(policy, &sim, spec, deadline, config)
}

/// One run of an experiment: everything needed to execute `spec` under
/// `plan` except the barrier hook and the recorder. Every entry point in
/// this crate launches through it, so configuration sampling and
/// executor construction happen in one place.
///
/// `physics` provides the ground-truth training latencies and `task` the
/// learning curves; `options.seed` seeds both the execution noise and
/// the sampled configurations.
#[derive(Debug, Clone)]
pub struct Run<'a> {
    /// The early-stopping experiment.
    pub spec: &'a ExperimentSpec,
    /// The per-stage allocation to execute.
    pub plan: &'a AllocationPlan,
    /// The training task (learning curves).
    pub task: &'a TaskModel,
    /// Ground-truth training latencies.
    pub physics: &'a ModelProfile,
    /// The cloud the run provisions from and bills against.
    pub cloud: &'a CloudProfile,
    /// The search space the initial trials are drawn from.
    pub space: &'a SearchSpace,
    /// Executor options, seed included.
    pub options: ExecOptions,
}

impl Run<'_> {
    /// One configuration per initial trial, drawn from `space` by seeded
    /// random search. The salt keeps the draw independent of the
    /// executor's noise streams; every run of one seed, open loop or
    /// adaptive, recorded or not, tunes the same trials.
    pub fn configs(&self) -> Vec<Config> {
        let mut rng = Prng::seed_from_u64(self.options.seed ^ 0x005A_3CE0);
        self.space
            .sample_n(self.spec.initial_trials() as usize, &mut rng)
    }

    /// The executor for this run.
    ///
    /// # Errors
    ///
    /// Returns [`rb_core::RbError::InvalidPlan`] when the plan does not
    /// match the spec.
    pub fn executor(&self) -> Result<Executor> {
        Ok(Executor::new(
            self.spec.clone(),
            self.plan.clone(),
            self.task.clone(),
            self.physics.clone(),
            self.cloud.clone(),
        )?
        .with_options(self.options.clone()))
    }

    /// Executes the run over [`Run::configs`] (the paper's
    /// `rb.execute(plan, trainer, search_space)`). `hook` observes every
    /// stage barrier and may re-plan the remaining stages: pass
    /// [`NoopHook`] for open loop or an [`AdaptiveController`] to close
    /// the loop. `recorder` receives the structured trace; pass
    /// [`RecorderHandle::noop`] to record nothing. Recording never
    /// perturbs execution.
    ///
    /// # Errors
    ///
    /// Propagates executor errors (invalid plan, placement failure,
    /// a hook's invalid re-plan, ...).
    pub fn execute(
        &self,
        hook: &mut dyn BarrierHook,
        recorder: &RecorderHandle,
    ) -> Result<ExecutionReport> {
        self.executor()?
            .run_observed(&self.configs(), hook, recorder.clone())
    }
}

/// The seed of the `k`-th (0-based) job derived from a root `seed`: the
/// brackets of [`execute_multi_job`] and [`hyperband_group_jobs`], and
/// the jobs of a [`ServeWorkload`]. Jobs draw independent noise and
/// configurations while the whole set stays reproducible from `seed`.
pub fn job_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9)
}

/// Default executor options with `seed`.
fn seeded(seed: u64) -> ExecOptions {
    ExecOptions {
        seed,
        ..ExecOptions::default()
    }
}

/// Executes `spec` under `plan`: samples one configuration per initial
/// trial from `space` (seeded random search) and runs the full elastic
/// execution, open loop and unrecorded (the paper's
/// `rb.execute(plan, trainer, search_space)`). [`Run::execute`] is the
/// same with executor options, a barrier hook, and a recorder.
///
/// `physics` provides the ground-truth training latencies; `task` the
/// learning curves.
///
/// # Errors
///
/// Propagates executor errors (invalid plan, placement failure, ...).
pub fn execute(
    spec: &ExperimentSpec,
    plan: &AllocationPlan,
    task: &TaskModel,
    physics: &ModelProfile,
    cloud: &CloudProfile,
    space: &SearchSpace,
    seed: u64,
) -> Result<ExecutionReport> {
    Run {
        spec,
        plan,
        task,
        physics,
        cloud,
        space,
        options: seeded(seed),
    }
    .execute(&mut NoopHook, &RecorderHandle::noop())
}

/// The outcome of a closed-loop, adaptively executed experiment.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// The execution report (JCT, cost, winner, trace).
    pub report: ExecutionReport,
    /// Drift readings and re-planning decisions, in barrier order.
    pub adaptation: AdaptationLog,
    /// The deadline the controller defended.
    pub deadline: SimDuration,
}

impl AdaptiveReport {
    /// True when the executed JCT fit the deadline.
    pub fn deadline_met(&self) -> bool {
        self.report.jct <= self.deadline
    }
}

/// A [`Run`] wrapped in the online adaptation loop (rb-ctrl): the
/// controller watches every stage barrier, compares observed stage spans
/// with `model`'s Monte-Carlo envelope, and re-plans the remaining stages
/// — through the executor's checkpoint-safe barrier splice — when drift
/// or spot preemptions threaten `deadline`.
///
/// `physics` is ground truth (what the executor runs); `model` is the
/// planner's fitted view (what the plan and the drift envelope are
/// computed from). With `physics == model`, no spot churn, and a sane
/// deadline the controller never intervenes and the result equals the
/// open-loop run bit for bit.
///
/// To record an adaptive run, build the controller over a simulator
/// carrying the recorder ([`Simulator::with_recorder`]) and pass both to
/// [`Run::execute`]; [`Simulator::record_cache_stats`] and
/// [`ExecutionReport::summary`] then give the run's rollup.
///
/// # Errors
///
/// Propagates controller construction errors (a plan that does not match
/// the spec) and executor errors.
#[allow(clippy::too_many_arguments)] // Mirrors `execute` plus the control-loop inputs.
pub fn execute_adaptive(
    spec: &ExperimentSpec,
    plan: &AllocationPlan,
    task: &TaskModel,
    physics: &ModelProfile,
    model: &ModelProfile,
    cloud: &CloudProfile,
    space: &SearchSpace,
    deadline: SimDuration,
    options: ExecOptions,
    config: &ControllerConfig,
) -> Result<AdaptiveReport> {
    let sim = Simulator::new(model.clone(), cloud.clone());
    let mut controller =
        AdaptiveController::new(sim, spec.clone(), plan, deadline, config.clone())?;
    let run = Run {
        spec,
        plan,
        task,
        physics,
        cloud,
        space,
        options,
    };
    let report = run.execute(&mut controller, &RecorderHandle::noop())?;
    Ok(AdaptiveReport {
        report,
        adaptation: controller.into_log(),
        deadline,
    })
}

/// The outcome of executing a Hyperband-style multi-job.
#[derive(Debug, Clone)]
pub struct MultiJobReport {
    /// Per-bracket execution reports, in bracket order.
    pub reports: Vec<ExecutionReport>,
    /// Total spend across brackets.
    pub total_cost: Cost,
    /// End-to-end completion time (max of brackets when concurrent, sum
    /// when sequential).
    pub jct: SimDuration,
    /// The best accuracy found across brackets.
    pub best_accuracy: f64,
    /// Its configuration.
    pub best_config: Config,
}

/// Plans and executes a Hyperband-style multi-job: every bracket is
/// planned under the shared deadline (per the discipline) and executed on
/// its own elastic cluster, bracket `i` seeded with
/// [`job_seed`]`(seed, i)`.
///
/// `recorder` receives one shared trace ([`RecorderHandle::noop`]
/// records nothing). Every bracket gets its own lane: the facade
/// brackets the bracket's whole execution in a `bracket` span pair on
/// `Lane::Bracket(i)`, and the bracket's executor reports through a
/// [`JobScopedRecorder`] (job `i + 1`) so trial/node/stage lanes and
/// span ids from different brackets never collide in the shared stream.
/// Recording never perturbs execution.
///
/// # Errors
///
/// Propagates planning and execution errors (a bracket that cannot meet
/// its deadline share fails the multi-job).
#[allow(clippy::too_many_arguments)] // Mirrors `execute` plus the multi-job knobs.
pub fn execute_multi_job(
    brackets: &[ExperimentSpec],
    task: &TaskModel,
    physics: &ModelProfile,
    cloud: &CloudProfile,
    space: &SearchSpace,
    deadline: SimDuration,
    discipline: MultiJobDiscipline,
    seed: u64,
    recorder: &RecorderHandle,
) -> Result<MultiJobReport> {
    let sim = Simulator::new(physics.clone(), cloud.clone());
    let plan = rb_planner::plan_multi_job(
        &sim,
        brackets,
        deadline,
        discipline,
        &PlannerConfig::default(),
    )?;
    // The facade's own spans use the caller's recorder (job-0 id range);
    // bracket executors are scoped to jobs 1..=n, so ids stay disjoint.
    let mut spans = SpanTracker::new();
    let mut reports = Vec::with_capacity(brackets.len());
    let mut total_cost = Cost::ZERO;
    let mut jct = SimDuration::ZERO;
    let mut best: Option<(f64, Config)> = None;
    for (i, (spec, out)) in brackets.iter().zip(&plan.brackets).enumerate() {
        let lane = Lane::Bracket(i as u32);
        let (bracket_span, parent) = spans.open();
        recorder.span_start(
            SimTime::ZERO,
            "exec",
            "bracket",
            lane,
            bracket_span,
            parent,
            vec![
                ("bracket", (i as u64).into()),
                ("trials", spec.initial_trials().into()),
            ],
        );
        let scoped = RecorderHandle::new(Arc::new(JobScopedRecorder::new(
            recorder.share(),
            i as u64 + 1,
        )));
        let run = Run {
            spec,
            plan: &out.plan,
            task,
            physics,
            cloud,
            space,
            options: seeded(job_seed(seed, i)),
        };
        let report = run.execute(&mut NoopHook, &scoped)?;
        recorder.span_end(
            SimTime::ZERO + report.jct,
            "exec",
            "bracket",
            lane,
            spans.close(),
            vec![
                ("bracket", (i as u64).into()),
                ("jct_ms", report.jct.as_millis().into()),
                ("cost_micros", report.total_cost().as_micros().into()),
                ("best_accuracy", report.best_accuracy.into()),
            ],
        );
        total_cost += report.total_cost();
        jct = match discipline {
            MultiJobDiscipline::Concurrent => jct.max(report.jct),
            MultiJobDiscipline::Sequential => jct + report.jct,
        };
        if best
            .as_ref()
            .map_or(true, |(a, _)| report.best_accuracy > *a)
        {
            best = Some((report.best_accuracy, report.best_config.clone()));
        }
        reports.push(report);
    }
    let (best_accuracy, best_config) = best.expect("at least one bracket");
    Ok(MultiJobReport {
        reports,
        total_cost,
        jct,
        best_accuracy,
        best_config,
    })
}

/// Builds one tenant's Hyperband **job group** for the tuning service:
/// one bracket-tagged [`rb_serve::JobRequest`] per bracket of
/// [`rb_hpo::hyperband_brackets`]`(r, R, eta)`, planned together under
/// the shared deadline ([`rb_planner::plan_multi_job`], concurrent
/// discipline) and all arriving at `arrival`.
///
/// Bracket-tagged jobs get a [`rb_obs::Lane::Bracket`] span each in the
/// service trace, and under a shared pool the group keeps affinity for
/// its own barrier-released capacity: instances parked by one bracket
/// flow to sibling brackets of the same tenant before being offered
/// cross-tenant. Per-bracket seeds match [`execute_multi_job`]'s, so a
/// group run through the service tunes the same trials as the
/// standalone multi-job of the same seed.
///
/// # Errors
///
/// Propagates bracket-generation, planning, and executor-construction
/// errors.
#[allow(clippy::too_many_arguments)] // Mirrors `execute_multi_job` plus the service coordinates.
pub fn hyperband_group_jobs(
    r: u64,
    big_r: u64,
    eta: u32,
    task: &TaskModel,
    physics: &ModelProfile,
    cloud: &CloudProfile,
    space: &SearchSpace,
    deadline: SimDuration,
    tenant: usize,
    arrival: SimTime,
    seed: u64,
) -> Result<Vec<JobRequest>> {
    let brackets = rb_hpo::hyperband_brackets(r, big_r, eta)?;
    let specs: Vec<ExperimentSpec> = brackets.into_iter().map(|(_, s)| s).collect();
    let sim = Simulator::new(physics.clone(), cloud.clone());
    let plan = rb_planner::plan_multi_job(
        &sim,
        &specs,
        deadline,
        MultiJobDiscipline::Concurrent,
        &PlannerConfig::default(),
    )?;
    specs
        .iter()
        .zip(&plan.brackets)
        .enumerate()
        .map(|(i, (spec, out))| {
            let run = Run {
                spec,
                plan: &out.plan,
                task,
                physics,
                cloud,
                space,
                options: seeded(job_seed(seed, i)),
            };
            Ok(
                JobRequest::new(run.executor()?, run.configs(), arrival, tenant)
                    .with_bracket(i as u32),
            )
        })
        .collect()
}

/// A synthetic multi-tenant workload for [`serve`]: each tenant submits
/// `jobs_per_tenant` copies of the experiment, arriving round-robin
/// with seeded exponential inter-arrival gaps. Every job gets its own
/// derived seed ([`job_seed`]), so trials across jobs draw independent
/// noise while the whole workload stays reproducible from `seed`.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// The tenants (weights and budgets).
    pub tenants: Vec<rb_serve::TenantSpec>,
    /// Jobs each tenant submits.
    pub jobs_per_tenant: usize,
    /// Mean gap between consecutive arrivals, in virtual seconds; must
    /// be finite and positive.
    pub mean_interarrival_secs: f64,
    /// Root seed for arrivals and per-job execution noise.
    pub seed: u64,
}

/// Builds the [`rb_serve::JobRequest`] list for a [`ServeWorkload`]:
/// one plan compiled under `deadline` (all jobs share the spec, so they
/// share the plan), per-job configs sampled from `space`, arrivals from
/// the workload's seeded Poisson process.
///
/// Exposed so callers can inspect or perturb the workload before
/// running it; [`serve`] is the one-call path.
///
/// # Errors
///
/// Returns [`rb_core::RbError::InvalidConfig`] for a non-positive mean
/// inter-arrival gap; propagates planning and executor-construction
/// errors.
#[allow(clippy::too_many_arguments)] // Mirrors `execute` plus the service knobs.
pub fn serve_workload_jobs(
    workload: &ServeWorkload,
    spec: &ExperimentSpec,
    task: &TaskModel,
    physics: &ModelProfile,
    cloud: &CloudProfile,
    space: &SearchSpace,
    deadline: SimDuration,
) -> Result<Vec<JobRequest>> {
    if !workload.mean_interarrival_secs.is_finite() || workload.mean_interarrival_secs <= 0.0 {
        return Err(rb_core::RbError::InvalidConfig(format!(
            "serve workload: mean_interarrival_secs must be finite and > 0, got {}",
            workload.mean_interarrival_secs
        )));
    }
    let outcome = compile_plan(spec, physics, cloud, deadline)?;
    let total = workload.tenants.len() * workload.jobs_per_tenant;
    let mut arrivals = Prng::seed_from_u64(workload.seed ^ 0x5E87_E0FF);
    let gap = rb_core::Distribution::Exponential {
        rate: 1.0 / workload.mean_interarrival_secs,
    };
    let mut at = SimTime::ZERO;
    let mut jobs = Vec::with_capacity(total);
    for k in 0..total {
        let run = Run {
            spec,
            plan: &outcome.plan,
            task,
            physics,
            cloud,
            space,
            options: seeded(job_seed(workload.seed, k)),
        };
        let tenant = k % workload.tenants.len();
        jobs.push(JobRequest::new(run.executor()?, run.configs(), at, tenant));
        at += SimDuration::from_secs_f64(gap.sample(&mut arrivals));
    }
    Ok(jobs)
}

/// Runs a seeded multi-tenant workload through the tuning service: many
/// concurrent jobs interleaved in one discrete-event loop, fair-share
/// scheduled, optionally sharing an elastic instance pool
/// ([`rb_serve::ServeOptions::pool`]). Per-job results ride inside the
/// returned [`rb_serve::ServeReport`]. To record the service trace, run
/// [`serve_workload_jobs`] through
/// [`rb_serve::TuningService::run_with_recorder`].
///
/// # Errors
///
/// Propagates workload-construction ([`serve_workload_jobs`]), service
/// validation, and execution errors.
#[allow(clippy::too_many_arguments)] // Mirrors `execute` plus the service knobs.
pub fn serve(
    workload: &ServeWorkload,
    spec: &ExperimentSpec,
    task: &TaskModel,
    physics: &ModelProfile,
    cloud: &CloudProfile,
    space: &SearchSpace,
    deadline: SimDuration,
    options: &rb_serve::ServeOptions,
) -> Result<rb_serve::ServeReport> {
    let jobs = serve_workload_jobs(workload, spec, task, physics, cloud, space, deadline)?;
    rb_serve::TuningService::new(workload.tenants.clone(), options.clone())?.run(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_cloud::catalog::P3_8XLARGE;
    use rb_cloud::CloudPricing;
    use rb_hpo::{Dim, ShaParams};
    use rb_obs::{CacheStats, MemoryRecorder, RunSummary, TraceLog};

    /// SHA(8, 1, 8) on ResNet-50 physics, planned under a 2-hour deadline.
    struct Fixture {
        spec: ExperimentSpec,
        task: TaskModel,
        physics: ModelProfile,
        cloud: CloudProfile,
        space: SearchSpace,
        plan: AllocationPlan,
    }

    const DEADLINE: SimDuration = SimDuration::from_hours(2);

    fn fixture() -> Fixture {
        let spec = ShaParams::new(8, 1, 8).generate().unwrap();
        let task = rb_train::task::resnet50_cifar10();
        let physics = ModelProfile::exact_for_task(&task, 512, 4);
        let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE));
        let space = SearchSpace::new()
            .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
            .build()
            .unwrap();
        let plan = compile_plan(&spec, &physics, &cloud, DEADLINE)
            .unwrap()
            .plan;
        Fixture {
            spec,
            task,
            physics,
            cloud,
            space,
            plan,
        }
    }

    impl Fixture {
        fn run(&self, options: ExecOptions) -> Run<'_> {
            Run {
                spec: &self.spec,
                plan: &self.plan,
                task: &self.task,
                physics: &self.physics,
                cloud: &self.cloud,
                space: &self.space,
                options,
            }
        }
    }

    /// An open-loop run recorded into memory, with its rollup.
    fn recorded(run: &Run) -> (ExecutionReport, RunSummary, TraceLog) {
        let sink = Arc::new(MemoryRecorder::new());
        let report = run
            .execute(&mut NoopHook, &RecorderHandle::new(sink.clone()))
            .unwrap();
        let log = sink.finish();
        let summary = report.summary(
            CacheStats::default(),
            CacheStats::default(),
            0,
            0,
            log.events.len(),
        );
        (report, summary, log)
    }

    /// An adaptive run (model == physics) with one recorder on the
    /// executor and the controller's simulator, and its rollup.
    fn recorded_adaptive(
        run: &Run,
        config: &ControllerConfig,
    ) -> (ExecutionReport, AdaptationLog, RunSummary, TraceLog) {
        let sink = Arc::new(MemoryRecorder::new());
        let recorder = RecorderHandle::new(sink.clone());
        // Clones share the cache counters; keep one to read totals after
        // the controller consumes its simulator.
        let sim =
            Simulator::new(run.physics.clone(), run.cloud.clone()).with_recorder(recorder.clone());
        let mut controller = AdaptiveController::new(
            sim.clone(),
            run.spec.clone(),
            run.plan,
            DEADLINE,
            config.clone(),
        )
        .unwrap();
        let report = run.execute(&mut controller, &recorder).unwrap();
        let adaptation = controller.into_log();
        let caches = sim.record_cache_stats();
        let log = sink.finish();
        let summary = report.summary(
            caches.plan,
            caches.stage_memo,
            adaptation.applied(),
            adaptation.events.len() - adaptation.applied(),
            log.events.len(),
        );
        (report, adaptation, summary, log)
    }

    #[test]
    fn compile_then_execute_round_trip() {
        let fx = fixture();
        let outcome = compile_plan(&fx.spec, &fx.physics, &fx.cloud, DEADLINE).unwrap();
        assert!(outcome.prediction.feasible(DEADLINE));
        let report = execute(
            &fx.spec,
            &outcome.plan,
            &fx.task,
            &fx.physics,
            &fx.cloud,
            &fx.space,
            3,
        )
        .unwrap();
        assert!(report.jct > SimDuration::ZERO);
        assert_eq!(report.stages.len(), fx.spec.num_stages());
    }

    #[test]
    fn profile_and_plan_composes() {
        let spec = ShaParams::new(8, 1, 8).generate().unwrap();
        let task = rb_train::task::resnet50_cifar10();
        let truth = rb_scaling::AnalyticScaling::for_arch(&task.arch, 512, 4);
        let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE));
        let (model, outcome) =
            profile_and_plan(&spec, &truth, task.steps_per_iter(512), &cloud, DEADLINE).unwrap();
        assert!(model.steps_per_iter > 0);
        assert!(outcome.prediction.feasible(DEADLINE));
    }

    #[test]
    fn run_configs_follow_the_sampling_contract() {
        // The salt is a compatibility contract: pinned fixtures and the
        // perf benchmark sample the same trials from the same seed.
        let fx = fixture();
        for seed in [0, 1, 7, 0xDEAD_BEEF] {
            let expected = fx.space.sample_n(
                fx.spec.initial_trials() as usize,
                &mut Prng::seed_from_u64(seed ^ 0x005A_3CE0),
            );
            assert_eq!(fx.run(seeded(seed)).configs(), expected, "seed {seed}");
        }
    }

    #[test]
    fn service_jobs_tune_run_configs_at_job_seeds() {
        let fx = fixture();
        let workload = ServeWorkload {
            tenants: vec![rb_serve::TenantSpec::new("solo", 1.0)],
            jobs_per_tenant: 3,
            mean_interarrival_secs: 60.0,
            seed: 17,
        };
        let jobs = serve_workload_jobs(
            &workload,
            &fx.spec,
            &fx.task,
            &fx.physics,
            &fx.cloud,
            &fx.space,
            DEADLINE,
        )
        .unwrap();
        assert_eq!(jobs.len(), 3);
        for (k, job) in jobs.iter().enumerate() {
            assert_eq!(job.executor.options().seed, job_seed(17, k));
            assert_eq!(job.configs, fx.run(seeded(job_seed(17, k))).configs());
        }

        let group = hyperband_group_jobs(
            1,
            9,
            3,
            &fx.task,
            &fx.physics,
            &fx.cloud,
            &fx.space,
            DEADLINE,
            0,
            SimTime::ZERO,
            5,
        )
        .unwrap();
        let specs = hyperband_1_9_3();
        assert_eq!(group.len(), specs.len());
        for (i, (job, spec)) in group.iter().zip(&specs).enumerate() {
            assert_eq!(job.executor.spec(), spec);
            assert_eq!(job.executor.options().seed, job_seed(5, i));
            let run = Run {
                spec,
                ..fx.run(seeded(job_seed(5, i)))
            };
            assert_eq!(job.configs, run.configs());
        }
    }

    fn hyperband_1_9_3() -> Vec<ExperimentSpec> {
        rb_hpo::hyperband_brackets(1, 9, 3)
            .unwrap()
            .into_iter()
            .map(|(_, s)| s)
            .collect()
    }

    #[test]
    fn multi_job_executes_all_brackets() {
        let fx = fixture();
        let brackets = hyperband_1_9_3();
        let report = execute_multi_job(
            &brackets,
            &fx.task,
            &fx.physics,
            &fx.cloud,
            &fx.space,
            DEADLINE,
            MultiJobDiscipline::Concurrent,
            1,
            &RecorderHandle::noop(),
        )
        .unwrap();
        assert_eq!(report.reports.len(), brackets.len());
        assert!(report.jct <= DEADLINE);
        assert!(report.best_accuracy > 0.1);
        let sum: Cost = report.reports.iter().map(|r| r.total_cost()).sum();
        assert_eq!(report.total_cost, sum);
    }

    #[test]
    fn recorded_multi_job_matches_and_traces_each_bracket() {
        let fx = fixture();
        let brackets = hyperband_1_9_3();
        let multi = |recorder: &RecorderHandle| {
            execute_multi_job(
                &brackets,
                &fx.task,
                &fx.physics,
                &fx.cloud,
                &fx.space,
                DEADLINE,
                MultiJobDiscipline::Concurrent,
                1,
                recorder,
            )
            .unwrap()
        };
        let plain = multi(&RecorderHandle::noop());
        let sink = Arc::new(MemoryRecorder::new());
        let observed = multi(&RecorderHandle::new(sink.clone()));
        // Recording must not perturb any bracket.
        assert_eq!(format!("{observed:?}"), format!("{plain:?}"));
        let log = sink.finish();
        let jsonl = rb_obs::export::export_jsonl(&log);
        rb_obs::schema::validate_jsonl(&jsonl).expect("multi-job trace validates");
        for i in 0..brackets.len() {
            let on_lane = |kind: fn(&rb_obs::EventKind) -> bool| {
                log.events_named("exec", "bracket")
                    .filter(|e| e.lane == Lane::Bracket(i as u32) && kind(&e.kind))
                    .count()
            };
            let starts = on_lane(|k| matches!(k, rb_obs::EventKind::SpanStart { .. }));
            let ends = on_lane(|k| matches!(k, rb_obs::EventKind::SpanEnd { .. }));
            assert_eq!((starts, ends), (1, 1), "bracket {i}");
        }
    }

    #[test]
    fn execute_adaptive_matches_execute_when_calibrated() {
        let fx = fixture();
        let open = execute(
            &fx.spec,
            &fx.plan,
            &fx.task,
            &fx.physics,
            &fx.cloud,
            &fx.space,
            3,
        )
        .unwrap();
        let adaptive = execute_adaptive(
            &fx.spec,
            &fx.plan,
            &fx.task,
            &fx.physics,
            &fx.physics, // model == physics: calibrated
            &fx.cloud,
            &fx.space,
            DEADLINE,
            seeded(3),
            &ControllerConfig::default(),
        )
        .unwrap();
        assert!(adaptive.deadline_met());
        assert_eq!(adaptive.adaptation.applied(), 0);
        assert_eq!(adaptive.report.jct, open.jct);
        assert_eq!(adaptive.report.compute_cost, open.compute_cost);
        assert_eq!(adaptive.report.best_accuracy, open.best_accuracy);
    }

    #[test]
    fn observed_run_matches_plain_execute() {
        let fx = fixture();
        let plain = execute(
            &fx.spec,
            &fx.plan,
            &fx.task,
            &fx.physics,
            &fx.cloud,
            &fx.space,
            11,
        )
        .unwrap();
        let (report, summary, log) = recorded(&fx.run(seeded(11)));
        // Recording must not perturb execution in any way.
        assert_eq!(report.jct, plain.jct);
        assert_eq!(report.compute_cost, plain.compute_cost);
        assert_eq!(report.data_cost, plain.data_cost);
        assert_eq!(report.best_accuracy, plain.best_accuracy);
        assert_eq!(report.trace, plain.trace);
        // The summary is a faithful rollup of the report.
        assert_eq!(summary.jct, plain.jct);
        assert_eq!(summary.total_cost(), plain.total_cost());
        assert_eq!(summary.stages, plain.stages.len());
        assert_eq!(summary.trace_events, log.events.len());
        assert!(!log.events.is_empty());
        assert!(summary.gpu_busy_secs > 0.0);
    }

    #[test]
    fn disabled_fault_injector_is_bit_identical() {
        use rb_cloud::FaultPlan;
        use rb_exec::RetryPolicy;
        let fx = fixture();
        let (plain, plain_summary, plain_log) = recorded(&fx.run(seeded(7)));
        // Hardening knobs set but the injector disabled: the run must be
        // indistinguishable from today's, down to the exported bytes.
        let (armed, armed_summary, armed_log) = recorded(&fx.run(ExecOptions {
            seed: 7,
            faults: FaultPlan::none(),
            retry: Some(RetryPolicy::default()),
            checkpoint_retention: 1,
            ..ExecOptions::default()
        }));
        assert_eq!(armed.jct, plain.jct);
        assert_eq!(armed.compute_cost, plain.compute_cost);
        assert_eq!(armed.best_accuracy, plain.best_accuracy);
        assert_eq!(armed.trace, plain.trace);
        assert_eq!(armed.faults_injected, 0);
        assert_eq!(armed_summary.render(), plain_summary.render());
        assert_eq!(
            rb_obs::export::export_jsonl(&armed_log),
            rb_obs::export::export_jsonl(&plain_log),
            "disabled injector leaves the trace byte-identical"
        );
    }

    #[test]
    fn windowless_zone_plan_is_bit_identical() {
        // A multi-zone topology with no brownout or outage window is an
        // inactive injector: open-loop and adaptive runs must match the
        // zoneless run down to the exported bytes (the cardinal
        // invariant extended to correlated failure domains).
        use rb_cloud::{FaultPlan, ZonePlan};
        use rb_exec::RetryPolicy;
        let fx = fixture();
        let zoned = || ExecOptions {
            seed: 7,
            faults: FaultPlan {
                zones: ZonePlan {
                    zones: 3,
                    ..ZonePlan::none()
                },
                ..FaultPlan::none()
            },
            retry: Some(RetryPolicy::default()),
            ..ExecOptions::default()
        };
        let (plain, _, plain_log) = recorded(&fx.run(seeded(7)));
        let (armed, _, armed_log) = recorded(&fx.run(zoned()));
        assert_eq!(armed.jct, plain.jct);
        assert_eq!(armed.compute_cost, plain.compute_cost);
        assert_eq!(armed.trace, plain.trace);
        assert_eq!(armed.faults_injected, 0);
        assert_eq!(
            rb_obs::export::export_jsonl(&armed_log),
            rb_obs::export::export_jsonl(&plain_log),
            "windowless zones leave the open-loop trace byte-identical"
        );
        // Adaptive, with execute-mode switching armed: the market probe
        // may well drain the fleet onto cheaper capacity, but the
        // inactive zone plan must not change a single decision or byte
        // relative to the zoneless run.
        let config = ControllerConfig {
            market: rb_ctrl::MarketConfig {
                execute: true,
                ..rb_ctrl::MarketConfig::default()
            },
            ..ControllerConfig::default()
        };
        let (base, base_log, _, base_trace) = recorded_adaptive(&fx.run(seeded(7)), &config);
        let (zoned_run, zoned_log, _, zoned_trace) = recorded_adaptive(&fx.run(zoned()), &config);
        assert_eq!(zoned_run.jct, base.jct);
        assert_eq!(zoned_run.compute_cost, base.compute_cost);
        assert_eq!(
            zoned_log.executed_switches(),
            base_log.executed_switches(),
            "inactive zone plan changed the controller's drain decisions"
        );
        assert_eq!(
            rb_obs::export::export_jsonl(&zoned_trace),
            rb_obs::export::export_jsonl(&base_trace),
            "windowless zones leave the adaptive trace byte-identical"
        );
    }

    #[test]
    fn hardened_run_survives_injected_faults() {
        use rb_cloud::FaultPlan;
        use rb_exec::RetryPolicy;
        let fx = fixture();
        let faults = FaultPlan {
            capacity_failure_prob: 0.8,
            straggler_prob: 0.2,
            straggler_factor: 25.0,
            degraded_prob: 0.25,
            degraded_factor: 1.5,
            checkpoint_corruption_prob: 0.1,
            ..FaultPlan::none()
        };
        let (report, summary, log) = recorded(&fx.run(ExecOptions {
            seed: 5,
            faults,
            retry: Some(RetryPolicy {
                max_retries: 12,
                ..RetryPolicy::default()
            }),
            checkpoint_retention: 3,
            ..ExecOptions::default()
        }));
        assert!(summary.faults_injected > 0, "the injector fired");
        assert_eq!(summary.faults_injected, report.faults_injected);
        assert!(
            summary.provision_retries > 0,
            "capacity denials forced retries"
        );
        assert!(report.best_accuracy > 0.1, "the run still finished");
        // Recovery counters surface on the bus only for faulty runs.
        assert_eq!(
            log.counter("exec", "faults_injected"),
            report.faults_injected
        );
    }

    #[test]
    fn adaptive_observed_is_bit_identical_and_exports_deterministically() {
        let fx = fixture();
        let config = ControllerConfig::default();
        let (a, a_adapt, a_summary, a_log) = recorded_adaptive(&fx.run(seeded(5)), &config);
        // The no-op-recorder adaptive run is the baseline; the recording
        // run must match it bit for bit.
        let noop = execute_adaptive(
            &fx.spec,
            &fx.plan,
            &fx.task,
            &fx.physics,
            &fx.physics,
            &fx.cloud,
            &fx.space,
            DEADLINE,
            seeded(5),
            &config,
        )
        .unwrap();
        assert_eq!(a.jct, noop.report.jct);
        assert_eq!(a.compute_cost, noop.report.compute_cost);
        assert_eq!(a.trace, noop.report.trace);
        assert_eq!(a_adapt.events.len(), noop.adaptation.events.len());
        // Same seed -> byte-identical exports, and the JSONL passes the
        // schema validator.
        let (_, _, b_summary, b_log) = recorded_adaptive(&fx.run(seeded(5)), &config);
        let jsonl_a = rb_obs::export::export_jsonl(&a_log);
        assert_eq!(jsonl_a, rb_obs::export::export_jsonl(&b_log));
        assert_eq!(
            rb_obs::export::export_chrome(&a_log),
            rb_obs::export::export_chrome(&b_log)
        );
        rb_obs::schema::validate_jsonl(&jsonl_a).expect("exported trace validates");
        assert_eq!(a_summary.render(), b_summary.render());
        // Building the drift envelope exercised the stage-sample memo
        // (the plan cache is only consulted when a replan is scored).
        assert!(a_summary.stage_memo.hits + a_summary.stage_memo.misses > 0);
        assert_eq!(
            a_log.counter("sim", "stage_memo_misses"),
            a_summary.stage_memo.misses
        );
        // Drift gauges flow from the controller onto the same bus.
        assert!(a_log.events_named("ctrl", "drift_factor").count() > 0);
    }

    #[test]
    fn policies_are_selectable() {
        let fx = fixture();
        for policy in [Policy::Static, Policy::NaiveElastic, Policy::RubberBand] {
            let out = compile_plan_with(
                policy,
                &fx.spec,
                &fx.physics,
                &fx.cloud,
                DEADLINE,
                &PlannerConfig::default(),
            )
            .unwrap();
            assert_eq!(out.policy, policy);
        }
    }

    #[test]
    fn serve_runs_a_multi_tenant_workload() {
        let fx = fixture();
        let workload = ServeWorkload {
            tenants: vec![
                rb_serve::TenantSpec::new("research", 2.0),
                rb_serve::TenantSpec::new("prod", 1.0),
            ],
            jobs_per_tenant: 2,
            mean_interarrival_secs: 600.0,
            seed: 17,
        };
        let options = rb_serve::ServeOptions {
            max_concurrent: 2,
            max_queue: 8,
            pool: Some(rb_cloud::PoolConfig::default()),
            pool_admission: false,
        };
        let jobs = serve_workload_jobs(
            &workload,
            &fx.spec,
            &fx.task,
            &fx.physics,
            &fx.cloud,
            &fx.space,
            DEADLINE,
        )
        .unwrap();
        let sink = Arc::new(MemoryRecorder::new());
        let report = rb_serve::TuningService::new(workload.tenants.clone(), options.clone())
            .unwrap()
            .run_with_recorder(jobs, &RecorderHandle::new(sink.clone()))
            .unwrap();
        let log = sink.finish();
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.rejected.is_empty());
        assert!(report.billed_cost > Cost::ZERO);
        assert!(report.net_cost <= report.billed_cost);
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants.iter().map(|t| t.completed).sum::<usize>(), 4);
        // Per-job lanes land in the unified trace, and the export still
        // validates against the schema.
        assert_eq!(log.counter("serve", "jobs_completed"), 4);
        let jsonl = rb_obs::export::export_jsonl(&log);
        rb_obs::schema::validate_jsonl(&jsonl).expect("serve trace validates");
        assert!(jsonl.contains("\"lane\":\"job:0\""));
        assert!(jsonl.contains("job.dispatch"));
        // Same workload, same seed, unrecorded: byte-identical report.
        let again = serve(
            &workload,
            &fx.spec,
            &fx.task,
            &fx.physics,
            &fx.cloud,
            &fx.space,
            DEADLINE,
            &options,
        )
        .unwrap();
        assert_eq!(report.render(), again.render());
    }
}
