//! The stage-by-stage execution engine (§5).
//!
//! The executor owns the control loop: per stage it scales the cluster to
//! the plan's allocation, places (or migrates) trial workers, runs every
//! trial for the stage's iterations with noisy per-iteration latencies,
//! synchronizes, ranks trials and promotes the top performers. All time
//! is virtual; all money flows through the cluster manager's billing
//! meter. Noise streams are per-trial, so results are independent of
//! scheduling order and bit-reproducible from the seed.

use crate::cluster::{ClusterManager, RetryPolicy, SwitchDirective};
use crate::codec;
use crate::report::{ExecutionReport, ExecutionTrace, StageRecord, TraceEvent};
use rb_cloud::{FaultPlan, PoolConfig, PricingTier};
use rb_core::{
    mix_seed, Cost, Distribution, NodeId, Prng, RbError, Result, SimDuration, SimTime, TrialId,
};
use rb_hpo::{select_survivors, Config, ExperimentSpec};
use rb_obs::{Lane, RecorderHandle, SpanTracker, Value};
use rb_placement::{scatter_placement, ClusterState, PlacementController, PlacementPlan};
use rb_profile::{CapacityEvents, CloudProfile, ModelProfile};
use rb_scaling::PlacementQuality;
use rb_sim::{AllocationPlan, SYNC_OVERHEAD_SECS};
use rb_train::checkpoint::{CheckpointStore, VerifiedFetch};
use rb_train::{Curve, TaskModel, Trial, TrialStatus};

/// Executor knobs.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Root seed for all execution randomness.
    pub seed: u64,
    /// Use the placement controller (§4.4). When false, workers are
    /// scattered with no locality — the Table 1 ablation baseline.
    pub use_placement_controller: bool,
    /// Warm-pool capacity (§6.3.1 runs with a warm pool): a nonzero
    /// value gives the job a private [`rb_cloud::InstancePool`] of this
    /// capacity. Released instances leave the job's meter and park
    /// there for up to `warm_hold_secs`, and a later scale-up adopts
    /// them after the pool's 2 s handoff instead of a provision + init
    /// cycle. Under per-instance billing the pool's park cost, less its
    /// minimum-charge credit, is added to the job's bill (per-function
    /// billing bills no held capacity, parked or not). Zero disables
    /// the pool; a service's shared pool replaces it.
    pub warm_pool: usize,
    /// How long the warm pool holds a parked instance before
    /// terminating it (the pool's `max_hold_secs`).
    pub warm_hold_secs: f64,
    /// Fault-injection plan, seeded from `seed` like the spot stream. The
    /// default ([`FaultPlan::none`]) injects nothing and leaves execution
    /// bit-identical to a build without the chaos layer.
    pub faults: FaultPlan,
    /// Provisioning retry/backoff policy. `None` (the default) keeps the
    /// legacy fail-fast path: a capacity denial aborts the run. The
    /// resilient path only engages when a fault plan is active, so a
    /// policy configured against a clean provider changes nothing.
    pub retry: Option<RetryPolicy>,
    /// Checkpoint generations retained per trial (last K, at least 1).
    /// The default of 1 matches the original store; raising it lets a
    /// corrupted latest generation fall back to the previous one.
    pub checkpoint_retention: usize,
}

/// Bandwidth for moving checkpoints during migration, in GB/s.
const CHECKPOINT_BW_GBPS: f64 = 1.0;

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            seed: 0x5EED,
            use_placement_controller: true,
            warm_pool: 0,
            warm_hold_secs: 300.0,
            faults: FaultPlan::none(),
            retry: None,
            checkpoint_retention: 1,
        }
    }
}

impl ExecOptions {
    /// Checks the knobs for values that would otherwise corrupt a run
    /// silently: a NaN or negative warm hold reaches the pool's expiry
    /// times, and a retention of 0 would keep no checkpoint at all.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<()> {
        let hold = self.warm_hold_secs;
        if !hold.is_finite() || hold < 0.0 {
            return Err(RbError::InvalidConfig(format!(
                "exec options: warm_hold_secs must be finite and non-negative, got {hold}"
            )));
        }
        if self.checkpoint_retention == 0 {
            return Err(RbError::InvalidConfig(
                "exec options: checkpoint_retention must be at least 1, got 0".into(),
            ));
        }
        if let Some(retry) = &self.retry {
            retry.validate()?;
        }
        Ok(())
    }
}

/// Everything an online controller can observe at a completed stage
/// barrier. All survivors are paused and checkpointed at this point, so a
/// plan change applied here never strands a trial without a checkpoint —
/// the barrier is the executor's only safe reallocation point.
#[derive(Debug, Clone)]
pub struct BarrierSnapshot<'a> {
    /// The stage that just completed (0-based).
    pub stage: usize,
    /// Total stages in the specification.
    pub num_stages: usize,
    /// Virtual time at the barrier (after sync overhead).
    pub now: SimTime,
    /// Wall-clock span of the completed stage, barrier to barrier — it
    /// includes scaling, provisioning waits, training, and the sync
    /// overhead, matching the per-stage spans the planner's Monte-Carlo
    /// model predicts.
    pub stage_span: SimDuration,
    /// Compute + data bill accrued so far.
    pub cost_to_date: Cost,
    /// Spot preemptions absorbed so far.
    pub preemptions: u32,
    /// Instances currently held.
    pub instances: usize,
    /// Trials promoted into the next stage.
    pub survivors: usize,
    /// GPUs each of this stage's trials ran on (1 for wave-scheduled
    /// stages).
    pub gpus_per_trial: u32,
    /// Observed per-allocation work-unit latencies for the completed
    /// stage — the raw material for online profile refitting.
    pub unit_obs: &'a [UnitObservation],
    /// Instances the completed stage wanted but could not get after
    /// provisioning retries were exhausted (zero on a healthy cloud).
    /// The stage ran degraded on the reduced allocation; a controller
    /// should treat this as a replan trigger.
    pub capacity_shortfall: u32,
    /// Provisioning requests, denials, retries, and correlated outage
    /// kills observed since the run started. A controller that wants a
    /// *window* diffs against the previous barrier's totals; feeding
    /// the window to `CloudProfile::risk_from_events` re-prices the
    /// residual plan against the capacity the run is actually seeing.
    pub capacity_events: CapacityEvents,
    /// The provider zone new capacity is currently requested from.
    pub home_zone: u32,
    /// Zones the active fault plan declares (1 when zones are off).
    pub num_zones: u32,
    /// The plan currently in force (full job, all stages).
    pub plan: &'a AllocationPlan,
}

/// Observed mean latency of one work unit at one allocation shape,
/// averaged over `units` completed units of one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitObservation {
    /// GPUs per trial the units ran on.
    pub gpus: u32,
    /// Placement quality the gangs ran under.
    pub placement: PlacementQuality,
    /// Mean observed wall-clock seconds per unit.
    pub mean_secs: f64,
    /// Units the mean was taken over.
    pub units: u64,
}

/// What a watchdog hook sees when a stage overruns its virtual-time
/// budget mid-stage. Every live trial has been paused and checkpointed
/// at a forced early barrier, so a plan splice here is transition-safe
/// exactly like one at a normal barrier.
#[derive(Debug, Clone)]
pub struct WatchdogSnapshot<'a> {
    /// The stage that overran (0-based). It is *not* finished: its
    /// residual units re-run under whatever the hook splices in.
    pub stage: usize,
    /// Total stages in the specification.
    pub num_stages: usize,
    /// Virtual time at the forced barrier (after sync overhead).
    pub now: SimTime,
    /// When the stage's training round started.
    pub stage_start: SimTime,
    /// The budget that was exceeded, in seconds of training time.
    pub budget_secs: f64,
    /// Work units the stage owes per trial in total.
    pub units: u64,
    /// The largest number of units any live trial still has to run.
    pub max_remaining_units: u64,
    /// Observed per-allocation unit latencies from the truncated round.
    pub unit_obs: &'a [UnitObservation],
    /// Compute + data bill accrued so far.
    pub cost_to_date: Cost,
    /// Spot preemptions absorbed so far.
    pub preemptions: u32,
    /// Instances currently held.
    pub instances: usize,
    /// Trials live in the interrupted stage.
    pub survivors: usize,
    /// Cumulative capacity-fault tallies, as in
    /// [`BarrierSnapshot::capacity_events`].
    pub capacity_events: CapacityEvents,
    /// The provider zone new capacity is currently requested from.
    pub home_zone: u32,
    /// Zones the active fault plan declares (1 when zones are off).
    pub num_zones: u32,
    /// The plan currently in force (full job, all stages).
    pub plan: &'a AllocationPlan,
}

/// A controller invoked at every non-final stage barrier. Returning
/// `Some(gpus)` — one GPU count per *remaining* stage — splices a new
/// allocation suffix into the plan before the next stage is scheduled;
/// `None` leaves the plan untouched.
///
/// The hook runs outside the executor's noise streams: a hook that
/// returns `None` from every method must leave execution bit-identical
/// to [`Executor::run`]. Arming a watchdog budget that never fires also
/// keeps the run bit-identical — the deadline check consumes no noise
/// samples.
pub trait BarrierHook {
    /// Observes a completed barrier; optionally re-plans the remainder.
    fn at_barrier(&mut self, snapshot: &BarrierSnapshot<'_>) -> Option<Vec<u32>>;

    /// Arms a virtual-time watchdog for `stage`: when the stage's
    /// training round runs past `stage_start + budget` seconds, the
    /// executor forces an early barrier at the next per-trial unit
    /// boundary instead of letting the overrun go undetected until the
    /// stage drains. `None` (the default) disables the watchdog.
    fn stage_budget_secs(&mut self, _stage: usize) -> Option<f64> {
        None
    }

    /// Observes a fired watchdog; optionally re-plans from the
    /// *current* stage onward. Unlike [`BarrierHook::at_barrier`], the
    /// suffix covers the interrupted stage too: its length must be
    /// `num_stages - stage`, and `suffix[0]` re-allocates the residual
    /// units of the stage that overran.
    fn at_watchdog(&mut self, _snapshot: &WatchdogSnapshot<'_>) -> Option<Vec<u32>> {
        None
    }

    /// A market/zone switch for the executor to *execute* at the safe
    /// point that just completed (a barrier or a watchdog splice). The
    /// executor drains the fleet through
    /// [`ClusterManager::switch_market`] — in-flight lifetimes pinned at
    /// their contracted tier, billed nodes terminated and offered to no
    /// pool — before the next scale-up provisions on the new market.
    /// Polled after the corresponding re-plan callback, so a hook can
    /// decide the switch and the suffix together. The default
    /// never switches; returning `None` (or an empty directive)
    /// consumes no noise and leaves execution bit-identical.
    fn pending_switch(&mut self) -> Option<SwitchDirective> {
        None
    }
}

/// The open-loop hook: never re-plans.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopHook;

impl BarrierHook for NoopHook {
    fn at_barrier(&mut self, _snapshot: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
        None
    }
}

/// Executes one experiment specification under one allocation plan.
#[derive(Debug, Clone)]
pub struct Executor {
    spec: ExperimentSpec,
    plan: AllocationPlan,
    task: TaskModel,
    /// Ground-truth training physics (the executor's reality; the planner
    /// sees only the *profiled* approximation of this).
    physics: ModelProfile,
    cloud: CloudProfile,
    options: ExecOptions,
}

struct RunningTrial {
    trial: Trial,
    /// The trial's learning curve, resolved once from its configuration.
    curve: Curve,
    rng: Prng,
    busy_secs: f64,
    units_done: u64,
}

/// Where a training round's trials find their hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Rotating waves of single-GPU workers: live trial `i` runs on
    /// `wave_nodes[(i % slots) % wave_nodes.len()]`.
    Waves,
    /// The placement controller's plan.
    Controller,
    /// The placement-unaware baseline's plan (`StageSetup::scattered`).
    Scattered,
}

/// Everything the scaling + placement pass produces for one training
/// round: the cluster view, where every trial's workers sit, and the
/// wave-scheduling shape. A watchdog-split stage runs this pass twice.
/// The core keeps one and refills it, so its buffers are reused.
struct StageSetup {
    cluster: ClusterState,
    layout: Layout,
    /// The cluster's nodes when the waves were laid out.
    wave_nodes: Vec<NodeId>,
    scattered: PlacementPlan,
    /// GPUs each trial runs on.
    gpus_per_trial: u32,
    moved: Vec<TrialId>,
    slots: usize,
    needed: usize,
    migrations: u32,
    /// Instances wanted but not acquired; when non-zero the stage runs
    /// degraded on a shrunken allocation.
    capacity_shortfall: usize,
}

impl StageSetup {
    fn new(gpus_per_node: u32) -> Self {
        StageSetup {
            cluster: ClusterState::new(Vec::new(), gpus_per_node),
            layout: Layout::Waves,
            wave_nodes: Vec::new(),
            scattered: PlacementPlan::new(),
            gpus_per_trial: 1,
            moved: Vec::new(),
            slots: 0,
            needed: 0,
            migrations: 0,
            capacity_shortfall: 0,
        }
    }
}

/// The outcome of one training round over the live trials.
struct RoundOutcome {
    /// When the last trial's last segment ended.
    stage_end: SimTime,
    /// Whether the watchdog cut the round short (some trial owes units
    /// in [`RoundBuffers::remaining`]).
    cut: bool,
}

/// A training round's working storage, kept on the core so a round
/// reuses it.
#[derive(Default)]
struct RoundBuffers {
    /// Units each live trial still owes after a watchdog cut, by
    /// position in `live` (zero when it finished).
    remaining: Vec<u64>,
    slot_free: Vec<SimTime>,
    /// Spot interruption instants of the round's nodes.
    node_preempt: Vec<(NodeId, SimTime)>,
    hosting: Vec<NodeId>,
    dead: Vec<NodeId>,
    boundaries: Vec<f64>,
}

/// Completed-unit latency sums keyed by `(gpus, packed)`:
/// `(total_secs, units)`, ordered by key.
#[derive(Default)]
struct UnitObs(Vec<((u32, bool), (f64, u64))>);

impl UnitObs {
    fn clear(&mut self) {
        self.0.clear();
    }

    fn entry(&mut self, key: (u32, bool)) -> &mut (f64, u64) {
        let i = match self.0.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => i,
            Err(i) => {
                self.0.insert(i, (key, (0.0, 0)));
                i
            }
        };
        &mut self.0[i].1
    }

    fn merge(&mut self, from: &UnitObs) {
        for &(k, (sum, n)) in &from.0 {
            let e = self.entry(k);
            e.0 += sum;
            e.1 += n;
        }
    }

    /// The per-allocation means, into `out`.
    fn observations(&self, out: &mut Vec<UnitObservation>) {
        out.clear();
        out.extend(self.0.iter().filter(|&&(_, (_, n))| n > 0).map(
            |&((gpus, packed), (sum, n))| UnitObservation {
                gpus,
                placement: if packed {
                    PlacementQuality::Packed
                } else {
                    PlacementQuality::Scattered
                },
                mean_secs: sum / n as f64,
                units: n,
            },
        ));
    }
}

/// Per-step working storage of an [`ExecutorCore`], reused from step to
/// step.
#[derive(Default)]
struct Scratch {
    round: RoundBuffers,
    /// Units each live trial owes the next round, by position in `live`.
    owed: Vec<u64>,
    /// Latency sums of the stage's round, and of a watchdog's residual
    /// round.
    unit_obs: UnitObs,
    resumed_obs: UnitObs,
    observations: Vec<UnitObservation>,
    /// `(trial, GPUs)` requests handed to the placement controller.
    allocations: Vec<(TrialId, u32)>,
    nodes: Vec<NodeId>,
    results: Vec<(TrialId, f64)>,
    survivors: Vec<TrialId>,
}

/// Appends `ev` to the local trace and mirrors it onto the unified bus.
/// The local [`ExecutionTrace`] stays the report's canonical event log;
/// the recorder stream is a superset of it (tests assert
/// [`codec::Decoder`] recovers the trace exactly).
fn emit(trace: &mut ExecutionTrace, recorder: &RecorderHandle, ev: TraceEvent) {
    if recorder.enabled() {
        recorder.record(ev.to_obs());
    }
    trace.events.push(ev);
}

impl Executor {
    /// Creates an executor with default options.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidPlan`] if the plan does not match the
    /// spec.
    pub fn new(
        spec: ExperimentSpec,
        plan: AllocationPlan,
        task: TaskModel,
        physics: ModelProfile,
        cloud: CloudProfile,
    ) -> Result<Self> {
        plan.validate(&spec)?;
        Ok(Executor {
            spec,
            plan,
            task,
            physics,
            cloud,
            options: ExecOptions::default(),
        })
    }

    /// Overrides the executor options.
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the experiment over the given configurations (one per initial
    /// trial) and returns the execution report: [`Executor::run_observed`]
    /// with [`NoopHook`] and [`RecorderHandle::noop`].
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] when fewer configurations than
    /// initial trials are supplied; placement/provider/execution errors
    /// propagate.
    pub fn run(&self, configs: &[Config]) -> Result<ExecutionReport> {
        self.run_observed(configs, &mut NoopHook, RecorderHandle::noop())
    }

    /// [`Executor::run`] with a [`BarrierHook`] observing every non-final
    /// stage barrier and optionally re-planning the remaining stages, and
    /// a [`Recorder`](rb_obs::Recorder) attached: every trace event is
    /// mirrored onto the unified bus, plus stage spans, cost/instance
    /// gauges at each barrier, the billing meter's spend curve, and
    /// run-level counters. The recorder is also installed on the cloud
    /// provider, so provision / terminate / preempt events appear on the
    /// `cloud` lane.
    ///
    /// Recording never influences execution: a run with a recording sink
    /// is bit-identical to the same run with [`RecorderHandle::noop`].
    ///
    /// # Errors
    ///
    /// As [`Executor::run`]; additionally [`RbError::InvalidPlan`] when a
    /// hook returns a suffix of the wrong length or one that fails plan
    /// validation against the spec.
    pub fn run_observed(
        &self,
        configs: &[Config],
        hook: &mut dyn BarrierHook,
        recorder: RecorderHandle,
    ) -> Result<ExecutionReport> {
        let mut core = ExecutorCore::new(self, configs, recorder)?;
        while !core.is_finished() {
            let now = core.now();
            core.step(now, hook)?;
        }
        core.finish()
    }

    /// The experiment specification this executor runs.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The cloud profile this executor bills against.
    pub fn cloud(&self) -> &CloudProfile {
        &self.cloud
    }

    /// The executor options in force.
    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// Instances stage 0 will request when this executor dispatches
    /// with no capacity live. A service doing pool-aware admission
    /// compares this against parked pool capacity: when the whole
    /// first stage can be served warm, the job skips the
    /// provision + init cycle entirely.
    pub fn first_stage_instance_demand(&self) -> u32 {
        self.plan
            .instances_for_stage(0, &self.spec, self.cloud.gpus_per_instance())
    }
}

/// Where one [`ExecutorCore::step`] call left the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A stage completed its synchronization barrier; more stages remain.
    Barrier {
        /// The 0-based stage that just finished.
        stage: usize,
        /// Virtual time at the barrier (after sync overhead).
        at: SimTime,
    },
    /// The final stage's barrier completed; call [`ExecutorCore::finish`]
    /// to tear down and collect the [`ExecutionReport`].
    Finished {
        /// Virtual time at the final barrier.
        at: SimTime,
    },
}

/// The executor's control loop as an explicit, steppable state machine.
///
/// One [`ExecutorCore::step`] advances the run by exactly one stage — up
/// to and including that stage's synchronization barrier (scaling,
/// placement, training, watchdog handling, ranking and promotion) — and
/// returns where virtual time landed. [`Executor::run_observed`] is a
/// thin driver over this (construct, step until
/// [`StepOutcome::Finished`], [`ExecutorCore::finish`]); a multi-job
/// service interleaves many cores in one discrete-event loop by always
/// stepping the core whose clock is furthest behind.
///
/// A core stepped by hand to completion is bit-identical to
/// [`Executor::run_observed`] — same reports, same traces, same counters
/// (pinned by `crates/exec/tests/stepper.rs`).
pub struct ExecutorCore {
    exec: Executor,
    plan: AllocationPlan,
    gpg: u32,
    cm: ClusterManager,
    pc: PlacementController,
    store: CheckpointStore,
    /// Every trial of the run, indexed by trial id (ids are `0..n`).
    trials: Vec<RunningTrial>,
    live: Vec<TrialId>,
    /// Virtual time the run started (admission time under a service;
    /// [`SimTime::ZERO`] for a run started by [`ExecutorCore::new`]).
    t0: SimTime,
    now: SimTime,
    /// The next stage to run; `spec.num_stages()` once the run is done.
    stage: usize,
    stages: Vec<StageRecord>,
    total_migrations: u32,
    total_preemptions: u32,
    total_retries: u64,
    checkpoint_fallbacks: u64,
    degraded_stages: u32,
    trace: ExecutionTrace,
    recorder: RecorderHandle,
    /// Explicit span ids for the run/stage span pairs (only advanced
    /// when a recording sink is attached; ids are trace data, not
    /// execution state).
    spans: SpanTracker,
    setup: StageSetup,
    scratch: Scratch,
}

impl ExecutorCore {
    /// Prepares a run starting at virtual time zero, copying the first
    /// `spec.initial_trials()` configurations. All noise streams derive
    /// from the executor's seed, so the same job started at another time
    /// ([`ExecutorCore::from_parts`]) replays the same training
    /// randomness.
    ///
    /// # Errors
    ///
    /// As [`ExecutorCore::from_parts`].
    pub fn new(exec: &Executor, configs: &[Config], recorder: RecorderHandle) -> Result<Self> {
        let n = (exec.spec.initial_trials() as usize).min(configs.len());
        Self::from_parts(exec.clone(), configs[..n].to_vec(), recorder, SimTime::ZERO)
    }

    /// Prepares a run whose clock starts at `start`, taking the executor
    /// and the configurations by value: a job admitted into a shared
    /// service begins when the scheduler dispatches it, not at zero, and
    /// the service owns the job it was handed, so nothing is copied.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] for malformed options or when
    /// fewer configurations than initial trials are supplied.
    pub fn from_parts(
        exec: Executor,
        configs: Vec<Config>,
        recorder: RecorderHandle,
        start: SimTime,
    ) -> Result<Self> {
        exec.options.validate()?;
        let plan = exec.plan.clone();
        let n = exec.spec.initial_trials() as usize;
        if configs.len() < n {
            return Err(RbError::InvalidConfig(format!(
                "spec needs {n} configs, got {}",
                configs.len()
            )));
        }
        let opts = &exec.options;
        let gpg = exec.cloud.gpus_per_instance().max(1);
        let mut cm = ClusterManager::new(exec.cloud.clone(), opts.seed);
        cm.set_recorder(recorder.clone());
        if opts.warm_pool > 0 {
            cm.set_private_pool(PoolConfig {
                capacity: opts.warm_pool,
                max_hold_secs: opts.warm_hold_secs,
            })?;
        }
        if opts.faults.is_active() {
            cm.set_fault_plan(opts.faults.clone(), opts.seed);
        }
        let pc = PlacementController::new();
        let mut store = CheckpointStore::new().with_retention(opts.checkpoint_retention);
        if opts.faults.checkpoint_corruption_prob > 0.0 {
            store.set_corruption(
                opts.faults.checkpoint_corruption_prob,
                mix_seed(opts.seed, 0xC0_55_C4_A5),
            );
        }

        let trials: Vec<RunningTrial> = configs
            .into_iter()
            .take(n)
            .enumerate()
            .map(|(i, cfg)| {
                let id = TrialId::new(i as u64);
                let trial_seed = opts.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                RunningTrial {
                    curve: exec.task.curve(&cfg),
                    trial: Trial::new(id, cfg, trial_seed),
                    rng: Prng::seed_from_u64(trial_seed ^ 0x7A1A_11CE),
                    busy_secs: 0.0,
                    units_done: 0,
                }
            })
            .collect();
        let live: Vec<TrialId> = (0..n as u64).map(TrialId::new).collect();
        // Room for one segment per trial and stage plus each stage's
        // barrier and scaling events, so a calm run never regrows it.
        let num_stages = exec.spec.num_stages();
        let events = exec
            .spec
            .stages()
            .map(|s| s.num_trials as usize)
            .sum::<usize>()
            + 2 * num_stages;
        let mut core = ExecutorCore {
            exec,
            plan,
            gpg,
            cm,
            pc,
            store,
            trials,
            live,
            t0: start,
            now: start,
            stage: 0,
            stages: Vec::with_capacity(num_stages),
            total_migrations: 0,
            total_preemptions: 0,
            total_retries: 0,
            checkpoint_fallbacks: 0,
            degraded_stages: 0,
            trace: ExecutionTrace {
                events: Vec::with_capacity(events),
            },
            recorder,
            spans: SpanTracker::new(),
            setup: StageSetup::new(gpg),
            scratch: Scratch::default(),
        };
        if core.recorder.enabled() {
            // The run span opens the moment the core exists (admission
            // time under a service) so a streaming sink carries the
            // start long before the outcome is known; `finish` closes
            // it with the run's results.
            let (run, parent) = core.spans.open();
            core.recorder
                .span_start(start, "exec", "run", Lane::Global, run, parent, Vec::new());
        }
        Ok(core)
    }

    /// The core's virtual clock: the last completed barrier (or the start
    /// time before the first step).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The next stage [`ExecutorCore::step`] will run (0-based).
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Total stages in the specification.
    pub fn num_stages(&self) -> usize {
        self.exec.spec.num_stages()
    }

    /// Whether every stage has run its barrier.
    pub fn is_finished(&self) -> bool {
        self.stage >= self.exec.spec.num_stages()
    }

    /// Compute + data bill accrued so far.
    pub fn cost_to_date(&self) -> Cost {
        self.cm.total_cost(self.now)
    }

    /// Routes this run's instance churn through a shared elastic pool:
    /// capacity released at barriers is offered to the pool instead of
    /// terminated outright, and scale-ups adopt pooled capacity before
    /// provisioning fresh instances. `job` tags this core's releases so
    /// the pool's double-release guard can tell donors apart; `group`
    /// (e.g. one tenant's Hyperband bracket set) gives the job
    /// affinity for same-group parked capacity at acquisition. The
    /// shared pool replaces a private warm pool (`warm_pool`), so no
    /// job runs two pools; attach before the first step.
    pub fn attach_shared_pool(&mut self, pool: rb_cloud::SharedPool, job: u64, group: Option<u64>) {
        self.cm.set_shared_pool(pool, job, group);
    }

    /// Advances the run to the next stage barrier. `now` lower-bounds the
    /// clock (a service stepping an idle job forward passes its event
    /// time; the single-job drivers pass [`ExecutorCore::now`], a no-op).
    ///
    /// # Errors
    ///
    /// As [`Executor::run_observed`]; additionally [`RbError::Execution`]
    /// when stepped past [`StepOutcome::Finished`].
    pub fn step(&mut self, now: SimTime, hook: &mut dyn BarrierHook) -> Result<StepOutcome> {
        if self.is_finished() {
            return Err(RbError::Execution(
                "executor core stepped past the final stage".into(),
            ));
        }
        self.now = self.now.max(now);
        let stage = self.stage;
        let stage_start = self.now;
        if self.recorder.enabled() {
            let (span, parent) = self.spans.open();
            self.recorder.span_start(
                stage_start,
                "exec",
                "stage",
                Lane::Stage(stage as u32),
                span,
                parent,
                vec![("stage", (stage as u64).into())],
            );
        }
        let (stage_trials, units) = self.exec.spec.get_stage(stage)?;

        // --- Training rounds ------------------------------------------------
        // A stage normally trains in one round. A round that overruns the
        // hook's watchdog budget is cut at the next unit boundaries; the
        // hook re-plans from this stage on, and the residual units run
        // as a second, unwatched round through the same scale, place and
        // train path.
        let mut stage_migrations = 0;
        let mut stage_shortfall = 0;
        let mut train_start = stage_start;
        let mut resumed = false;
        self.scratch.owed.clear();
        self.scratch.owed.resize(self.live.len(), units);
        let stage_end = loop {
            self.scale_and_place(stage)?;
            stage_migrations += self.setup.migrations;
            stage_shortfall = stage_shortfall.max(self.setup.capacity_shortfall);
            // The first round starts the stage's training and is the
            // only one watched.
            let budget = if resumed {
                None
            } else {
                train_start = self.now;
                hook.stage_budget_secs(stage)
            };
            let watchdog_deadline = budget.and_then(|b| {
                (b.is_finite() && b > 0.0).then(|| self.now + SimDuration::from_secs_f64(b))
            });
            let round = self.train_round(stage, resumed, watchdog_deadline)?;
            if !round.cut {
                break round.stage_end;
            }

            // --- Watchdog: forced early barrier on a budget overrun ---------
            // Every trial stopped at a unit boundary inside the round;
            // checkpoint them all before the hook may re-plan.
            self.now = round.stage_end + SimDuration::from_secs_f64(SYNC_OVERHEAD_SECS);
            for &tid in &self.live {
                let rt = &mut self.trials[tid.raw() as usize];
                if rt.trial.status() == TrialStatus::Running {
                    rt.trial.pause()?;
                    self.store.save(&rt.trial, &self.exec.task.arch);
                }
            }
            let scratch = &mut self.scratch;
            let max_remaining = scratch.round.remaining.iter().copied().max().unwrap_or(0);
            self.recorder.counter_add("exec", "watchdog_fires", 1);
            if self.recorder.enabled() {
                self.recorder.instant(
                    self.now,
                    "exec",
                    "watchdog.barrier",
                    Lane::Stage(stage as u32),
                    vec![
                        ("stage", (stage as u64).into()),
                        ("remaining_units", max_remaining.into()),
                    ],
                );
            }
            scratch.unit_obs.observations(&mut scratch.observations);
            let snapshot = WatchdogSnapshot {
                stage,
                num_stages: self.exec.spec.num_stages(),
                now: self.now,
                stage_start,
                budget_secs: budget.unwrap_or(f64::INFINITY),
                units,
                max_remaining_units: max_remaining,
                unit_obs: &scratch.observations,
                cost_to_date: self.cm.total_cost(self.now),
                preemptions: self.total_preemptions,
                instances: self.cm.ready_count(),
                survivors: self.live.len(),
                capacity_events: self.cm.capacity_events(),
                home_zone: self.cm.home_zone(),
                num_zones: self.cm.num_zones(),
                plan: &self.plan,
            };
            let suffix = hook.at_watchdog(&snapshot);
            // Every live trial is paused and checkpointed, so a market
            // switch drains nothing that cannot restore; the re-scale of
            // the residual round provisions on the new market.
            self.splice(hook, stage, stage, suffix)?;
            let scratch = &mut self.scratch;
            scratch.owed.clone_from(&scratch.round.remaining);
            resumed = true;
        };
        // Idle spot nodes reclaimed before the barrier stop billing at
        // their interruption instant and leave the cluster.
        let nodes = &mut self.scratch.nodes;
        nodes.clear();
        nodes.extend_from_slice(self.setup.cluster.nodes());
        for &node in nodes.iter() {
            if self
                .cm
                .preemption_time(node)
                .is_some_and(|t| t <= stage_end)
            {
                let _ = self.cm.preempt_node(node);
                self.setup.cluster.remove(node);
            }
        }
        self.now = stage_end + SimDuration::from_secs_f64(SYNC_OVERHEAD_SECS);
        emit(
            &mut self.trace,
            &self.recorder,
            TraceEvent::Barrier {
                stage,
                at: self.now,
            },
        );
        if self.recorder.enabled() {
            self.recorder.gauge(
                self.now,
                "exec",
                "cost_to_date_usd",
                Lane::Cloud,
                self.cm.total_cost(self.now).as_dollars(),
            );
            self.recorder.gauge(
                self.now,
                "exec",
                "instances_ready",
                Lane::Cloud,
                self.cm.ready_count() as f64,
            );
        }

        // --- Synchronization barrier: rank, promote, terminate -------------
        let scratch = &mut self.scratch;
        scratch.results.clear();
        scratch.results.extend(self.live.iter().map(|&t| {
            let acc = self.trials[t.raw() as usize]
                .trial
                .latest_accuracy()
                .expect("trained trials have metrics");
            (t, acc)
        }));
        let keep = self
            .exec
            .spec
            .stages()
            .nth(stage + 1)
            .map_or(0, |s| s.num_trials as usize);
        select_survivors(&mut scratch.results, keep.max(1).min(self.live.len()));
        let survivors = &mut scratch.survivors;
        survivors.clear();
        survivors.extend(scratch.results.iter().map(|&(t, _)| t));
        let is_last = stage + 1 == self.exec.spec.num_stages();
        for &tid in &self.live {
            let rt = &mut self.trials[tid.raw() as usize];
            if is_last || !survivors.contains(&tid) {
                // Completed survivors and terminated losers both stop.
                if is_last && survivors.contains(&tid) {
                    rt.trial.complete()?;
                } else {
                    rt.trial.terminate()?;
                    self.store.evict(tid);
                }
            } else {
                // A watchdog barrier may have left the trial paused
                // already (zero residual units); its checkpoint is
                // fresh either way.
                if rt.trial.status() == TrialStatus::Running {
                    rt.trial.pause()?;
                }
                self.store.save(&rt.trial, &self.exec.task.arch);
            }
        }
        let record = StageRecord {
            stage,
            train_start,
            sync_end: self.now,
            trials: stage_trials,
            gpus_per_trial: self.setup.gpus_per_trial,
            instances: self.setup.needed as u32,
            migrations: stage_migrations,
        };
        if self.recorder.enabled() {
            // The stage span closes with the full StageRecord payload,
            // so a replay can rebuild the per-stage timeline from the
            // trace alone.
            self.recorder.span_end(
                self.now,
                "exec",
                "stage",
                Lane::Stage(stage as u32),
                self.spans.close(),
                codec::stage_fields(&record),
            );
            // Stage barriers are the stream's durability points.
            self.recorder.flush();
        }
        self.stages.push(record);
        if stage_shortfall > 0 {
            self.degraded_stages += 1;
        }
        std::mem::swap(&mut self.live, survivors);

        // --- Barrier hook: observe, optionally re-plan the suffix ----------
        // Every survivor is paused with a fresh checkpoint and the
        // placement confirmed, so a plan splice here is transition-safe:
        // the next stage's scaling/placement machinery absorbs it.
        if stage + 1 < self.exec.spec.num_stages() {
            scratch.unit_obs.observations(&mut scratch.observations);
            let snapshot = BarrierSnapshot {
                stage,
                num_stages: self.exec.spec.num_stages(),
                now: self.now,
                stage_span: self.now - stage_start,
                cost_to_date: self.cm.total_cost(self.now),
                preemptions: self.total_preemptions,
                instances: self.cm.ready_count(),
                survivors: self.live.len(),
                gpus_per_trial: self.setup.gpus_per_trial,
                unit_obs: &scratch.observations,
                capacity_shortfall: stage_shortfall as u32,
                capacity_events: self.cm.capacity_events(),
                home_zone: self.cm.home_zone(),
                num_zones: self.cm.num_zones(),
                plan: &self.plan,
            };
            let suffix = hook.at_barrier(&snapshot);
            // The switch executes after the suffix splice so the next
            // stage's scale-up — which absorbs both — provisions on the
            // new market in one pass.
            self.splice(hook, stage, stage + 1, suffix)?;
        }

        self.stage += 1;
        if self.is_finished() {
            Ok(StepOutcome::Finished { at: self.now })
        } else {
            Ok(StepOutcome::Barrier {
                stage,
                at: self.now,
            })
        }
    }

    /// Splices a hook's re-planned allocations into the plan from stage
    /// `from` on — the next stage at a barrier, the interrupted `stage`
    /// itself after a watchdog cut — then executes any switch the hook
    /// armed for this safe point. `None` keeps the plan.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidPlan`] for a suffix of the wrong length
    /// or one that fails plan validation; switch errors propagate.
    fn splice(
        &mut self,
        hook: &mut dyn BarrierHook,
        stage: usize,
        from: usize,
        suffix: Option<Vec<u32>>,
    ) -> Result<()> {
        if let Some(suffix) = suffix {
            let remaining = self.exec.spec.num_stages() - from;
            if suffix.len() != remaining {
                let (caller, current) = if from == stage {
                    ("watchdog", " (current included)")
                } else {
                    ("barrier", "")
                };
                return Err(RbError::InvalidPlan(format!(
                    "{caller} hook returned {} stage allocations; {remaining} stages remain{current}",
                    suffix.len()
                )));
            }
            let mut next = self.plan.clone();
            for (j, &gpus) in suffix.iter().enumerate() {
                next.set_gpus(from + j, gpus);
            }
            next.validate(&self.exec.spec)?;
            self.plan = next;
        }
        self.apply_pending_switch(hook, stage)
    }

    /// Polls the hook for an executed market/zone switch and drains the
    /// fleet through [`ClusterManager::switch_market`]. Called only at
    /// transition-safe points — a completed barrier or a watchdog
    /// splice — where every survivor holds a fresh checkpoint, so
    /// terminating the old market's capacity strands nothing. `None`
    /// and empty directives are no-ops (no draws, no events), keeping
    /// passive hooks bit-identical.
    fn apply_pending_switch(&mut self, hook: &mut dyn BarrierHook, stage: usize) -> Result<()> {
        let Some(directive) = hook.pending_switch() else {
            return Ok(());
        };
        if directive.is_empty() {
            return Ok(());
        }
        let outcome = self.cm.switch_market(&directive, self.now)?;
        self.recorder.counter_add("exec", "market_switches", 1);
        if self.recorder.enabled() {
            let mut args: Vec<(&'static str, Value)> = vec![
                ("stage", (stage as u64).into()),
                ("drained", (outcome.drained as u64).into()),
                ("cancelled", (outcome.cancelled as u64).into()),
            ];
            if let Some(tier) = directive.market {
                let name = match tier {
                    PricingTier::OnDemand => "on_demand",
                    PricingTier::Spot => "spot",
                };
                args.push(("market", name.to_string().into()));
            }
            if let Some(zone) = directive.zone {
                args.push(("zone", u64::from(zone).into()));
            }
            // The switch is instantaneous in virtual time (draining
            // happens at the barrier the fleet already reached), so the
            // span opens and closes at `now`; it exists to carry the
            // outcome args on the cloud lane.
            let (span, parent) = self.spans.open();
            self.recorder.span_start(
                self.now,
                "exec",
                "market.switch",
                Lane::Cloud,
                span,
                parent,
                args,
            );
            self.recorder.span_end(
                self.now,
                "exec",
                "market.switch",
                Lane::Cloud,
                self.spans.close(),
                Vec::new(),
            );
        }
        Ok(())
    }

    /// Consumes the core after the final barrier and assembles the
    /// [`ExecutionReport`]: terminates remaining capacity, settles
    /// billing, and emits the teardown counters/spans.
    pub fn finish(mut self) -> Result<ExecutionReport> {
        if !self.is_finished() {
            return Err(RbError::Execution(format!(
                "executor core finished at stage {}/{}",
                self.stage,
                self.exec.spec.num_stages()
            )));
        }
        // --- Teardown and report ------------------------------------------------
        // Utilization is read before teardown releases the held capacity.
        let utilization = self.cm.utilization(self.now);
        self.cm.terminate_all(self.now);
        let best_trial = *self
            .live
            .first()
            .ok_or_else(|| RbError::Execution("no surviving trial at job end".into()))?;
        let winner = &self.trials[best_trial.raw() as usize].trial;
        let batch = f64::from(self.exec.physics.scaling.batch_size());
        let report = ExecutionReport {
            jct: self.now - self.t0,
            compute_cost: self.cm.compute_cost(self.now),
            data_cost: self.cm.data_cost(),
            best_trial,
            best_config: winner.config.clone(),
            best_accuracy: winner.latest_accuracy().expect("winner has metrics"),
            stages: self.stages,
            migrations: self.total_migrations,
            preemptions: self.total_preemptions,
            instances_provisioned: self.cm.instances_provisioned(),
            utilization,
            trial_throughput: self
                .trials
                .iter()
                .filter(|rt| rt.busy_secs > 0.0 && rt.units_done > 0)
                .map(|rt| {
                    let samples =
                        rt.units_done as f64 * self.exec.physics.steps_per_iter as f64 * batch;
                    (rt.trial.id, samples / rt.busy_secs)
                })
                .collect(),
            faults_injected: self.cm.fault_counts().total() + self.store.corruptions_injected(),
            provision_retries: self.total_retries,
            checkpoint_fallbacks: self.checkpoint_fallbacks,
            degraded_stages: self.degraded_stages,
            trace: self.trace,
        };
        if self.recorder.enabled() {
            // The spend curve: cumulative compute cost at each instance
            // release (and a private pool's share at the end), on the
            // cloud lane.
            for (t, c) in self.cm.cost_timeline(self.now) {
                self.recorder
                    .gauge(t, "cloud", "spend_usd", Lane::Cloud, c.as_dollars());
            }
            codec::record_run(&self.recorder, self.now, self.spans.close(), &report);
            self.recorder.flush();
        }
        self.recorder
            .counter_add("exec", "migrations", u64::from(report.migrations));
        self.recorder
            .counter_add("exec", "preemptions", u64::from(report.preemptions));
        self.recorder.counter_add(
            "exec",
            "instances_provisioned",
            report.instances_provisioned as u64,
        );
        if report.faults_injected > 0 {
            // Recovery rollup, emitted only when the injector actually
            // fired so calm traces stay byte-stable.
            self.recorder
                .counter_add("exec", "faults_injected", report.faults_injected);
            self.recorder
                .counter_add("exec", "provision_retries", report.provision_retries);
            self.recorder
                .counter_add("exec", "checkpoint_fallbacks", report.checkpoint_fallbacks);
            self.recorder
                .counter_add("exec", "degraded_stages", u64::from(report.degraded_stages));
        }
        #[cfg(debug_assertions)]
        if let Err(violation) = report.trace.check_invariants() {
            panic!("execution trace ordering contract violated: {violation}");
        }
        Ok(report)
    }
}

impl ExecutorCore {
    /// Scales the cluster to the plan's allocation for `stage` and places
    /// (or migrates) every live trial's workers, refilling `setup`. Every
    /// training round runs this first; after a watchdog cut it absorbs
    /// whatever the hook spliced in.
    fn scale_and_place(&mut self, stage: usize) -> Result<()> {
        let ExecutorCore {
            exec,
            plan,
            gpg,
            cm,
            pc,
            live,
            now,
            total_migrations,
            total_retries,
            trace,
            recorder,
            setup,
            scratch,
            ..
        } = self;
        let (plan, live, gpg, recorder) = (&*plan, &*live, *gpg, &*recorder);
        let allocations = &mut scratch.allocations;
        let opts = &exec.options;
        // The scheduler decides; the rest of the pass carries it out.
        let mut schedule = crate::scheduler::schedule_stage(&exec.spec, plan, stage, live, gpg)?;
        let mut needed = schedule.target_instances as usize;

        // --- Cluster scaling ------------------------------------------------
        let current = cm.ready_count();
        let mut capacity_shortfall = 0usize;
        let mut degraded_acquired = 0usize;
        if needed > current {
            // The retry policy engages only under an active fault plan;
            // on a clean provider the fail-fast request keeps the run
            // bit-identical.
            let policy = opts.retry.as_ref().filter(|_| opts.faults.is_active());
            let out = cm.request_nodes(needed - current, *now, policy)?;
            *total_retries += out.retries;
            if out.shortfall > 0 {
                // Capacity stayed short after the retry budget: run
                // the stage degraded on what we actually hold instead
                // of aborting. The controller sees the shortfall at
                // the barrier and can re-plan the remaining stages.
                let available = current + out.acquired;
                capacity_shortfall = needed - available;
                degraded_acquired = out.acquired;
                schedule = exec.degrade_schedule(plan, stage, live, gpg, available)?;
                needed = schedule.target_instances as usize;
                recorder.counter_add("exec", "capacity_shortfall", capacity_shortfall as u64);
                if recorder.enabled() {
                    recorder.instant(
                        *now,
                        "exec",
                        "capacity.degraded",
                        Lane::Stage(stage as u32),
                        vec![
                            ("stage", (stage as u64).into()),
                            ("shortfall", (capacity_shortfall as u64).into()),
                            ("instances", (needed as u64).into()),
                        ],
                    );
                }
            }
        }
        let cluster = &mut setup.cluster;
        cluster.set_nodes(cm.node_ids());
        let moved = &mut setup.moved;
        moved.clear();
        if needed < current && capacity_shortfall == 0 {
            let k = current - needed;
            if opts.use_placement_controller && !pc.plan().is_empty() {
                // Bin-pack survivors off the victim nodes, then release.
                allocations.clear();
                allocations.extend(
                    live.iter()
                        .map(|&t| (t, pc.plan().assigned_gpus(t).max(1)))
                        .filter(|&(t, _)| pc.plan().get(t).is_some()),
                );
                allocations.sort_unstable_by_key(|&(t, _)| t);
                pc.update(allocations, cluster)?;
                match pc.plan_scale_down(cluster, k) {
                    Ok((freed, relocated)) => {
                        moved.extend(relocated);
                        for nid in &freed {
                            cluster.remove(*nid);
                            emit(
                                trace,
                                recorder,
                                TraceEvent::NodeDown {
                                    node: *nid,
                                    at: *now,
                                    preempted: false,
                                },
                            );
                        }
                        cm.terminate_nodes(&freed, *now)?;
                    }
                    Err(_) => {
                        // Bin-packing could not relocate (e.g. trials
                        // spanning nodes). Preservation is best-effort
                        // (§4.4): fall back to a full re-placement —
                        // everything checkpoints at the barrier anyway.
                        *pc = PlacementController::new();
                        let nodes = cm.nodes();
                        let victims: Vec<_> = nodes[nodes.len() - k..].to_vec();
                        for nid in &victims {
                            cluster.remove(*nid);
                            emit(
                                trace,
                                recorder,
                                TraceEvent::NodeDown {
                                    node: *nid,
                                    at: *now,
                                    preempted: false,
                                },
                            );
                        }
                        cm.terminate_nodes(&victims, *now)?;
                        moved.extend(live.iter().copied());
                    }
                }
            } else {
                // Scatter baseline: drop the emptiest-by-id tail nodes.
                let nodes = cm.nodes();
                let victims: Vec<_> = nodes[nodes.len() - k..].to_vec();
                for nid in &victims {
                    cluster.remove(*nid);
                    emit(
                        trace,
                        recorder,
                        TraceEvent::NodeDown {
                            node: *nid,
                            at: *now,
                            preempted: false,
                        },
                    );
                }
                cm.terminate_nodes(&victims, *now)?;
            }
        }
        if needed > current || degraded_acquired > 0 {
            // Barrier: wait for the whole new cluster (§4.2 semantics).
            if let Some(ready) = cm.pending_ready_time() {
                *now = (*now).max(ready);
            }
            for nid in cm.absorb_ready(*now) {
                cluster.add(nid);
                emit(
                    trace,
                    recorder,
                    TraceEvent::NodeUp {
                        node: nid,
                        at: *now,
                    },
                );
            }
        }

        // --- Placement ------------------------------------------------------
        // Wave-scheduled stages run single-GPU trials over the slots;
        // a 1-GPU worker is trivially packed, so the controller is
        // bypassed and trials rotate churn-free.
        if schedule.waves {
            setup.layout = Layout::Waves;
            setup.wave_nodes.clear();
            setup.wave_nodes.extend_from_slice(cluster.nodes());
        } else {
            allocations.clear();
            allocations.extend(live.iter().map(|&t| (t, schedule.gpus_per_trial)));
            allocations.sort_unstable_by_key(|&(t, _)| t);
            if opts.use_placement_controller {
                let diff = pc.update(allocations, cluster)?;
                moved.extend(diff.moved.iter().copied());
                setup.layout = Layout::Controller;
            } else {
                setup.scattered = scatter_placement(allocations, cluster).ok_or_else(|| {
                    RbError::Placement("scatter baseline: cluster too small".into())
                })?;
                setup.layout = Layout::Scattered;
            }
        }
        moved.sort();
        moved.dedup();
        let migrations = moved.len() as u32;
        for &t in moved.iter() {
            emit(
                trace,
                recorder,
                TraceEvent::Migration { trial: t, at: *now },
            );
        }
        setup.gpus_per_trial = schedule.gpus_per_trial;
        setup.slots = schedule.slots as usize;
        setup.needed = needed;
        setup.migrations = migrations;
        setup.capacity_shortfall = capacity_shortfall;
        *total_migrations += migrations;
        Ok(())
    }

    /// Runs every live trial for its share of the stage's work units
    /// (`scratch.owed`, by position in `live`) from `now` on and returns
    /// when the last segment ends. With `watchdog_deadline` set, a trial
    /// whose attempt would run past the deadline is stopped at the end
    /// of the unit in flight (a spot preemption striking earlier wins
    /// and is handled normally); its residual unit count is left in
    /// [`RoundBuffers::remaining`]. The deadline check consumes no noise
    /// samples, so an armed watchdog that never fires leaves the round
    /// bit-identical to an unarmed one. A `resumed` round (the residual
    /// round after a cut) fetches every checkpoint. Completed-unit
    /// latencies become the stage's `unit_obs`; a resumed round sums
    /// them apart and merges them in.
    fn train_round(
        &mut self,
        stage: usize,
        resumed: bool,
        watchdog_deadline: Option<SimTime>,
    ) -> Result<RoundOutcome> {
        let ExecutorCore {
            exec,
            gpg,
            cm,
            pc,
            store,
            trials,
            live,
            now,
            total_preemptions,
            total_retries,
            checkpoint_fallbacks,
            trace,
            recorder,
            setup,
            scratch,
            ..
        } = self;
        let (gpg, train_start, live, store, recorder) = (*gpg, *now, &*live, &*store, &*recorder);
        let Scratch {
            round: buf,
            owed,
            unit_obs: stage_obs,
            resumed_obs,
            ..
        } = scratch;
        let unit_obs = if resumed {
            &mut *resumed_obs
        } else {
            &mut *stage_obs
        };
        let opts = &exec.options;
        let StageSetup {
            cluster,
            layout,
            wave_nodes,
            scattered,
            gpus_per_trial: gpus,
            moved,
            slots,
            ..
        } = setup;
        let (gpus, slots) = (*gpus, *slots);
        let placement = match layout {
            Layout::Waves => None,
            Layout::Controller => Some(pc.plan()),
            Layout::Scattered => Some(&*scattered),
        };
        let RoundBuffers {
            remaining,
            slot_free,
            node_preempt,
            hosting,
            dead,
            boundaries,
        } = buf;
        remaining.clear();
        remaining.resize(live.len(), 0);
        slot_free.clear();
        slot_free.resize(slots.max(1), train_start);
        unit_obs.clear();
        let mut outcome = RoundOutcome {
            stage_end: train_start,
            cut: false,
        };
        let retry_policy = opts.retry.as_ref().filter(|_| opts.faults.is_active());
        // Spot interruption instants of the round's nodes, captured
        // up-front so that colocated trials observe the same event
        // even after the first of them reclaims the node.
        node_preempt.clear();
        node_preempt.extend(
            cluster
                .nodes()
                .iter()
                .filter_map(|&n| cm.preemption_time(n).map(|t| (n, t))),
        );
        let node_preempt = &*node_preempt;
        let preemption_time = |n: NodeId, cm: &ClusterManager| {
            node_preempt
                .iter()
                .find(|&&(m, _)| m == n)
                .map(|&(_, t)| t)
                .or_else(|| cm.preemption_time(n))
        };
        for (wave_idx, &tid) in live.iter().enumerate() {
            let units = owed[wave_idx];
            if units == 0 {
                // Nothing owed (residual round after a full first round).
                continue;
            }
            let slot = wave_idx % slots.max(1);
            let mut start = slot_free[slot];
            if let Some(wd) = watchdog_deadline {
                if start >= wd {
                    // A cut earlier in this wave slot pushed the start
                    // past the deadline: don't even begin the attempt.
                    remaining[wave_idx] = units;
                    outcome.cut = true;
                    continue;
                }
            }
            let rt = &mut trials[tid.raw() as usize];
            if rt.trial.status() != TrialStatus::Running {
                rt.trial.start()?;
            }
            // One evaluation per unit: grow the history once per round.
            rt.trial.reserve_history(units as usize);
            // Without placement control, even single-GPU workers lose
            // data locality and scheduler affinity (Table 1's 1-GPU
            // rows differ); with it, quality comes from the plan (a
            // wave's single-GPU worker sits on one node: packed).
            let quality = if opts.use_placement_controller {
                placement
                    .and_then(|p| p.quality(tid, gpg))
                    .unwrap_or(PlacementQuality::Packed)
            } else {
                PlacementQuality::Scattered
            };
            hosting.clear();
            match placement {
                None => hosting.push(wave_nodes[(wave_idx % slots) % wave_nodes.len()]),
                Some(p) => hosting.extend(p.get(tid).unwrap_or_default().iter().map(|c| c.node)),
            }
            // A degraded node slows the whole gang: data-parallel steps
            // synchronize every iteration, so the slowest host sets the
            // pace. Healthy clusters report 1.0 and the multiply is
            // exact — bit-identical to a build without the chaos layer.
            let slowdown = hosting
                .iter()
                .map(|n| cm.node_slowdown(*n))
                .fold(1.0, f64::max);
            let unit_mean = exec.physics.unit_mean_secs(gpus, quality) * slowdown;
            let dist = if exec.physics.unit_noise_frac > 0.0 {
                Distribution::Normal {
                    mean: unit_mean,
                    std: exec.physics.unit_noise_frac * unit_mean,
                    floor: 0.05 * unit_mean,
                }
            } else {
                Distribution::Constant(unit_mean)
            };
            let mut needs_fetch = resumed || stage > 0 || moved.contains(&tid);
            let obs_key = (gpus, quality == PlacementQuality::Packed);
            // Attempt loop: a spot interruption of any hosting node
            // loses the attempt's progress (checkpoints happen only at
            // stage barriers); the trial restarts on a replacement.
            let finish = loop {
                let mut work = exec.physics.train_startup_secs;
                if needs_fetch && store.get(tid).is_some() {
                    // Verify generations newest-first, fall back past
                    // corrupted ones, and re-run the iterations the older
                    // generation is missing. Total loss (every retained
                    // generation corrupt) aborts a single-generation store
                    // but cold-restarts the trial when more are kept:
                    // nothing to transfer, every recorded iteration redone.
                    let vf = match store.fetch_verified(tid) {
                        Ok(vf) => vf,
                        Err(_) if opts.checkpoint_retention > 1 => {
                            let latest = store.get(tid).expect("presence checked above");
                            VerifiedFetch {
                                bytes: 0,
                                redo_iters: latest.iters_done,
                                fallbacks: store.retention() as u64,
                            }
                        }
                        Err(e) => return Err(e),
                    };
                    work += vf.bytes as f64 / (CHECKPOINT_BW_GBPS * 1e9);
                    if vf.fallbacks > 0 {
                        *checkpoint_fallbacks += 1;
                        work += vf.redo_iters as f64 * unit_mean;
                        recorder.counter_add("train", "checkpoint_fallbacks", 1);
                        if recorder.enabled() {
                            recorder.instant(
                                start,
                                "train",
                                "checkpoint.fallback",
                                Lane::Trial(tid.raw()),
                                vec![
                                    ("trial", tid.raw().into()),
                                    ("skipped_generations", vf.fallbacks.into()),
                                    ("redo_iters", vf.redo_iters.into()),
                                ],
                            );
                        }
                    }
                }
                let base = work;
                boundaries.clear();
                for _ in 0..units {
                    work += dist.sample(&mut rt.rng);
                    if watchdog_deadline.is_some() {
                        boundaries.push(work);
                    }
                }
                let end = start + SimDuration::from_secs_f64(work);
                let preempt = hosting
                    .iter()
                    .filter_map(|&n| preemption_time(n, cm))
                    .filter(|&t| t > start && t < end)
                    .min();
                // Watchdog cut candidate: the end of the unit in flight
                // at the deadline. An attempt finishing exactly at its
                // last boundary is a normal completion, not a cut.
                let wd_cut: Option<(u64, f64)> = watchdog_deadline.and_then(|wd| {
                    if end <= wd {
                        return None;
                    }
                    let (k, cut_work) = if wd <= start + SimDuration::from_secs_f64(base) {
                        (0u64, base)
                    } else {
                        let i = boundaries
                            .iter()
                            .position(|&b| start + SimDuration::from_secs_f64(b) >= wd)
                            .expect("attempt runs past the deadline");
                        (i as u64 + 1, boundaries[i])
                    };
                    (k < units).then_some((k, cut_work))
                });
                let preempt = preempt.filter(|&p| {
                    wd_cut.map_or(true, |(_, w)| p < start + SimDuration::from_secs_f64(w))
                });
                let Some(cut) = preempt else {
                    if let Some((k, cut_work)) = wd_cut {
                        // Stop at the boundary: bank the completed units,
                        // bill the work actually done, leave the rest to
                        // the post-watchdog residual round.
                        let done = SimDuration::from_secs_f64(cut_work);
                        let t = start + done;
                        rt.busy_secs += cut_work;
                        cm.record_usage(gpus, done);
                        emit(
                            trace,
                            recorder,
                            TraceEvent::TrialSegment {
                                trial: tid,
                                stage,
                                start,
                                end: t,
                                gpus,
                            },
                        );
                        if k > 0 {
                            let e = unit_obs.entry(obs_key);
                            e.0 += cut_work - base;
                            e.1 += k;
                        }
                        rt.units_done += k;
                        for _ in 0..k {
                            rt.trial.advance_on(&rt.curve, 1)?;
                        }
                        remaining[wave_idx] = units - k;
                        outcome.cut = true;
                        break t;
                    }
                    rt.busy_secs += work;
                    cm.record_usage(gpus, SimDuration::from_secs_f64(work));
                    emit(
                        trace,
                        recorder,
                        TraceEvent::TrialSegment {
                            trial: tid,
                            stage,
                            start,
                            end,
                            gpus,
                        },
                    );
                    let e = unit_obs.entry(obs_key);
                    e.0 += work - base;
                    e.1 += units;
                    rt.units_done += units;
                    for _ in 0..units {
                        rt.trial.advance_on(&rt.curve, 1)?;
                    }
                    break end;
                };
                // Pay for the lost work, reclaim the dead node(s), and
                // bring up replacements.
                *total_preemptions += 1;
                let lost = cut - start;
                rt.busy_secs += lost.as_secs_f64();
                cm.record_usage(gpus, lost);
                emit(
                    trace,
                    recorder,
                    TraceEvent::TrialSegment {
                        trial: tid,
                        stage,
                        start,
                        end: cut,
                        gpus,
                    },
                );
                dead.clear();
                dead.extend(
                    hosting
                        .iter()
                        .copied()
                        .filter(|&n| preemption_time(n, cm).is_some_and(|t| t <= cut)),
                );
                for n in dead.iter() {
                    // Colocated trials race to reclaim; losing is fine.
                    if cm.preempt_node(*n).is_ok() {
                        emit(
                            trace,
                            recorder,
                            TraceEvent::NodeDown {
                                node: *n,
                                at: cut,
                                preempted: true,
                            },
                        );
                    }
                    cluster.remove(*n);
                    hosting.retain(|h| h != n);
                }
                *total_retries += cm.request_nodes(dead.len(), cut, retry_policy)?.retries;
                let ready = cm.pending_ready_time().unwrap_or(cut);
                for n in cm.absorb_ready(ready) {
                    cluster.add(n);
                    hosting.push(n);
                    emit(trace, recorder, TraceEvent::NodeUp { node: n, at: ready });
                }
                start = cut.max(ready);
                needs_fetch = true;
            };
            slot_free[slot] = finish;
            outcome.stage_end = outcome.stage_end.max(finish);
        }
        if resumed {
            stage_obs.merge(resumed_obs);
        }
        Ok(outcome)
    }
}

impl Executor {
    /// Shrinks `stage`'s allocation until it fits on `available`
    /// instances: the largest valid GPU count whose fragmentation-aware
    /// instance demand is within what the cluster actually holds.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Execution`] when no allocation fits (no
    /// capacity at all after retries).
    fn degrade_schedule(
        &self,
        plan: &AllocationPlan,
        stage: usize,
        live: &[TrialId],
        gpg: u32,
        available: usize,
    ) -> Result<crate::scheduler::StageSchedule> {
        let trials = live.len() as u32;
        let mut g = (available as u32 * gpg).min(plan.gpus(stage));
        loop {
            if g == 0 {
                return Err(RbError::Execution(format!(
                    "stage {stage}: no capacity available after provisioning retries"
                )));
            }
            if g > trials {
                // Keep trial allocations even: round down to a multiple.
                g -= g % trials;
            }
            let mut degraded = plan.clone();
            degraded.set_gpus(stage, g);
            if degraded.validate(&self.spec).is_ok() {
                let s = crate::scheduler::schedule_stage(&self.spec, &degraded, stage, live, gpg)?;
                if (s.target_instances as usize) <= available {
                    return Ok(s);
                }
            }
            g -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_cloud::catalog::P3_8XLARGE;
    use rb_cloud::CloudPricing;
    use rb_hpo::{Dim, SearchSpace};
    use rb_scaling::AnalyticScaling;
    use rb_train::task::resnet101_cifar10;
    use std::sync::Arc;

    fn cloud() -> CloudProfile {
        CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
            .with_provision_delay(SimDuration::from_secs(15))
            .with_init_latency(SimDuration::from_secs(15))
    }

    fn physics(task: &TaskModel, batch: u32) -> ModelProfile {
        let scaling = Arc::new(AnalyticScaling::for_arch(&task.arch, batch, 4));
        let mut p =
            ModelProfile::from_scaling(task.name, scaling, task.steps_per_iter(batch), 2.0, 0.02);
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

    fn small_spec() -> ExperimentSpec {
        ExperimentSpec::from_stages(&[(8, 1), (4, 2), (2, 4), (1, 8)]).unwrap()
    }

    #[test]
    fn end_to_end_run_produces_consistent_report() {
        let task = resnet101_cifar10();
        let exec = Executor::new(
            small_spec(),
            AllocationPlan::new(vec![8, 8, 8, 8]),
            task.clone(),
            physics(&task, 1024),
            cloud(),
        )
        .unwrap();
        let report = exec.run(&configs(8, 1)).unwrap();
        assert_eq!(report.stages.len(), 4);
        assert!(report.jct > SimDuration::ZERO);
        assert!(report.compute_cost > rb_core::Cost::ZERO);
        assert!(report.best_accuracy > 0.1, "better than chance");
        // Stage timeline is monotone.
        for w in report.stages.windows(2) {
            assert!(w[1].train_start >= w[0].sync_end);
        }
        // The winner survived all stages: 1 + 2 + 4 + 8 = 15 units.
        assert!(report.trial_throughput.contains_key(&report.best_trial));
    }

    #[test]
    fn execution_is_deterministic_per_seed() {
        let task = resnet101_cifar10();
        let mk = || {
            Executor::new(
                small_spec(),
                AllocationPlan::new(vec![8, 8, 4, 4]),
                task.clone(),
                physics(&task, 1024),
                cloud(),
            )
            .unwrap()
            .with_options(ExecOptions {
                seed: 42,
                ..ExecOptions::default()
            })
        };
        let a = mk().run(&configs(8, 1)).unwrap();
        let b = mk().run(&configs(8, 1)).unwrap();
        assert_eq!(a.jct, b.jct);
        assert_eq!(a.compute_cost, b.compute_cost);
        assert_eq!(a.best_trial, b.best_trial);
        assert_eq!(a.best_accuracy, b.best_accuracy);
    }

    #[test]
    fn different_seeds_differ() {
        let task = resnet101_cifar10();
        let mk = |seed| {
            Executor::new(
                small_spec(),
                AllocationPlan::new(vec![8, 8, 4, 4]),
                task.clone(),
                physics(&task, 1024),
                cloud(),
            )
            .unwrap()
            .with_options(ExecOptions {
                seed,
                ..ExecOptions::default()
            })
        };
        let a = mk(1).run(&configs(8, 1)).unwrap();
        let b = mk(2).run(&configs(8, 1)).unwrap();
        assert_ne!(a.jct, b.jct);
    }

    #[test]
    fn elastic_plan_is_cheaper_than_static_in_execution() {
        // The headline end-to-end effect (Table 2), at miniature scale:
        // shrinking with the trial count beats holding 2 instances.
        let task = resnet101_cifar10();
        let run = |plan: Vec<u32>| {
            Executor::new(
                small_spec(),
                AllocationPlan::new(plan),
                task.clone(),
                physics(&task, 1024),
                cloud(),
            )
            .unwrap()
            .run(&configs(8, 1))
            .unwrap()
        };
        let static_report = run(vec![8, 8, 8, 8]);
        let elastic_report = run(vec![8, 8, 4, 4]);
        assert!(
            elastic_report.total_cost() < static_report.total_cost(),
            "elastic {} vs static {}",
            elastic_report.total_cost(),
            static_report.total_cost()
        );
    }

    #[test]
    fn scale_down_releases_instances_and_migrates() {
        let task = resnet101_cifar10();
        let exec = Executor::new(
            small_spec(),
            AllocationPlan::new(vec![8, 4, 4, 4]),
            task.clone(),
            physics(&task, 1024),
            cloud(),
        )
        .unwrap();
        let report = exec.run(&configs(8, 1)).unwrap();
        assert_eq!(report.stages[0].instances, 2);
        assert_eq!(report.stages[1].instances, 1);
        assert_eq!(report.instances_provisioned, 2);
    }

    #[test]
    fn warm_pool_bills_a_private_ledger_that_a_service_pool_replaces() {
        use rb_cloud::{InstancePool, SharedPool};
        let task = resnet101_cifar10();
        // A down-up plan (2/1/2/1 instances): each scale-down parks an
        // instance that the next scale-up adopts back.
        let mk = |warm_pool| {
            Executor::new(
                small_spec(),
                AllocationPlan::new(vec![8, 4, 8, 4]),
                task.clone(),
                physics(&task, 1024),
                cloud(),
            )
            .unwrap()
            .with_options(ExecOptions {
                seed: 40,
                warm_pool,
                ..ExecOptions::default()
            })
        };
        let cfgs = configs(8, 100);
        let run = |mut core: ExecutorCore| {
            while !core.is_finished() {
                let now = core.now();
                core.step(now, &mut NoopHook).unwrap();
            }
            core.finish().unwrap()
        };

        // Alone, the job parks in its own pool, and teardown leaves that
        // ledger drained and balanced.
        let (warm_exec, cold_exec) = (mk(2), mk(0));
        let core = ExecutorCore::new(&warm_exec, &cfgs, RecorderHandle::noop()).unwrap();
        let private = core.cm.pool().expect("warm_pool > 0 gives a pool").clone();
        let warm = run(core);
        let cold = cold_exec.run(&cfgs).unwrap();
        let stats = private.with(|p| p.stats());
        assert!(stats.handoffs > 0, "{stats:?}");
        assert_eq!(private.with(|p| p.parked_count()), 0);
        assert!(stats.balances(0), "{stats:?}");
        // Each adoption stands in for one provision of the cold run.
        assert!(warm.jct < cold.jct);
        assert_eq!(
            warm.instances_provisioned + stats.handoffs as usize,
            cold.instances_provisioned
        );
        // The spend curve on the trace bus ends at the reported bill,
        // the private pool's share included.
        let sink = Arc::new(rb_obs::MemoryRecorder::new());
        let observed = warm_exec
            .run_observed(&cfgs, &mut NoopHook, RecorderHandle::new(sink.clone()))
            .unwrap();
        assert_eq!(observed.compute_cost, warm.compute_cost);
        let log = sink.finish();
        let spend = log
            .events_named("cloud", "spend_usd")
            .last()
            .map(|e| e.kind);
        assert_eq!(
            spend,
            Some(rb_obs::EventKind::Gauge {
                value: warm.compute_cost.as_dollars()
            })
        );

        // Under a service the shared pool replaces the private one: the
        // run is the warm_pool = 0 run on the same shared pool, and the
        // private ledger never sees an offer.
        let shared = || {
            SharedPool::new(
                InstancePool::new(
                    PoolConfig {
                        max_hold_secs: 1e7,
                        ..PoolConfig::default()
                    },
                    CloudPricing::on_demand(P3_8XLARGE),
                )
                .unwrap(),
            )
        };
        let served = |exec: &Executor| {
            let pool = shared();
            let mut core = ExecutorCore::new(exec, &cfgs, RecorderHandle::noop()).unwrap();
            let private = core.cm.pool().cloned();
            core.attach_shared_pool(pool.clone(), 0, None);
            let report = run(core);
            let private_offers = private.map_or(0, |p| p.with(|p| p.stats().offers));
            (report, pool.with(|p| p.stats()), private_offers)
        };
        let (warm_served, warm_stats, private_offers) = served(&warm_exec);
        let (cold_served, cold_stats, _) = served(&cold_exec);
        assert_eq!(private_offers, 0);
        assert!(warm_stats.handoffs > 0, "{warm_stats:?}");
        assert_eq!(format!("{warm_served:?}"), format!("{cold_served:?}"));
        assert_eq!(warm_stats, cold_stats);
    }

    #[test]
    fn waves_run_when_gpus_are_scarce() {
        let task = resnet101_cifar10();
        // 2 GPUs for 8 trials in stage 0: four waves of two.
        let exec = Executor::new(
            small_spec(),
            AllocationPlan::new(vec![2, 2, 2, 2]),
            task.clone(),
            physics(&task, 1024),
            cloud(),
        )
        .unwrap();
        let report = exec.run(&configs(8, 1)).unwrap();
        assert_eq!(report.stages[0].gpus_per_trial, 1);
        // Wave stages take roughly 4× the single-wave duration; just check
        // the run completed with one instance.
        assert_eq!(report.instances_provisioned, 1);
    }

    #[test]
    fn too_few_configs_is_an_error() {
        let task = resnet101_cifar10();
        let exec = Executor::new(
            small_spec(),
            AllocationPlan::new(vec![8, 8, 8, 8]),
            task.clone(),
            physics(&task, 1024),
            cloud(),
        )
        .unwrap();
        assert!(matches!(
            exec.run(&configs(3, 1)),
            Err(RbError::InvalidConfig(_))
        ));
    }

    #[test]
    fn out_of_range_options_are_typed_errors() {
        let task = resnet101_cifar10();
        let run = |options: ExecOptions| {
            Executor::new(
                small_spec(),
                AllocationPlan::new(vec![8, 8, 8, 8]),
                task.clone(),
                physics(&task, 1024),
                cloud(),
            )
            .unwrap()
            .with_options(options)
            .run(&configs(8, 1))
        };
        for (what, options) in [
            (
                "checkpoint_retention",
                ExecOptions {
                    checkpoint_retention: 0,
                    ..ExecOptions::default()
                },
            ),
            (
                "warm_hold_secs",
                ExecOptions {
                    warm_hold_secs: f64::NAN,
                    ..ExecOptions::default()
                },
            ),
            (
                "warm_hold_secs",
                ExecOptions {
                    warm_hold_secs: -1.0,
                    ..ExecOptions::default()
                },
            ),
        ] {
            match run(options) {
                Err(RbError::InvalidConfig(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("{what}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn placement_ablation_slows_training() {
        // Table 1's effect end-to-end: scattered workers pay degraded
        // bandwidth, so the same plan takes longer and costs more.
        let task = resnet101_cifar10();
        let run = |use_placement| {
            Executor::new(
                ExperimentSpec::from_stages(&[(4, 2), (2, 4), (1, 8)]).unwrap(),
                AllocationPlan::new(vec![8, 8, 8]),
                task.clone(),
                physics(&task, 1024),
                cloud(),
            )
            .unwrap()
            .with_options(ExecOptions {
                use_placement_controller: use_placement,
                ..ExecOptions::default()
            })
            .run(&configs(4, 1))
            .unwrap()
        };
        let placed = run(true);
        let scattered = run(false);
        assert!(
            scattered.jct > placed.jct,
            "scattered {} !> placed {}",
            scattered.jct,
            placed.jct
        );
        assert!(scattered.mean_throughput().unwrap() < placed.mean_throughput().unwrap());
    }

    #[test]
    fn per_function_billing_charges_less_than_per_instance_with_stragglers() {
        let task = resnet101_cifar10();
        let mut noisy = physics(&task, 1024);
        noisy.unit_noise_frac = 0.6;
        let run = |per_function: bool| {
            let mut c = cloud();
            if per_function {
                c.pricing = c.pricing.with_per_function_billing();
            }
            Executor::new(
                ExperimentSpec::from_stages(&[(8, 2), (4, 4)]).unwrap(),
                AllocationPlan::new(vec![8, 4]),
                task.clone(),
                noisy.clone(),
                c,
            )
            .unwrap()
            .run(&configs(8, 3))
            .unwrap()
        };
        let pi = run(false);
        let pf = run(true);
        assert!(
            pf.compute_cost < pi.compute_cost,
            "per-function {} !< per-instance {}",
            pf.compute_cost,
            pi.compute_cost
        );
    }

    #[test]
    fn accuracy_winner_has_good_learning_rate() {
        // With enough trials, SHA should land near the response surface's
        // optimum.
        let task = resnet101_cifar10();
        let spec = ExperimentSpec::from_stages(&[(16, 2), (8, 4), (4, 8), (1, 16)]).unwrap();
        let exec = Executor::new(
            spec,
            AllocationPlan::new(vec![16, 16, 16, 8]),
            task.clone(),
            physics(&task, 1024),
            cloud(),
        )
        .unwrap();
        let report = exec.run(&configs(16, 7)).unwrap();
        let lr = report.best_config.get_f64("lr").unwrap();
        let dist = (lr / task.lr_opt).log10().abs();
        assert!(
            dist < 1.0,
            "winner's lr {lr} is {dist} decades from optimal"
        );
        assert!(report.best_accuracy > 0.8);
    }

    #[test]
    fn spot_interruptions_are_absorbed_and_counted() {
        let task = resnet101_cifar10();
        // Aggressive reclaim rate so a short job sees several interruptions.
        let run = |rate: f64| {
            let mut c = cloud().with_spot_interruptions(rate);
            c.pricing = c.pricing.with_spot();
            Executor::new(
                small_spec(),
                AllocationPlan::new(vec![8, 8, 4, 4]),
                task.clone(),
                physics(&task, 1024),
                c,
            )
            .unwrap()
            .with_options(ExecOptions {
                seed: 21,
                ..ExecOptions::default()
            })
            .run(&configs(8, 1))
            .unwrap()
        };
        let calm = run(0.0);
        let stormy = run(30.0);
        assert_eq!(calm.preemptions, 0);
        assert!(
            stormy.preemptions > 0,
            "expected interruptions at rate 30/h"
        );
        // Interruptions cost wall-clock time (lost work + re-provisioning).
        assert!(stormy.jct > calm.jct);
        // The tuning outcome is unaffected: learning curves depend only on
        // (config, iterations, seed).
        assert_eq!(stormy.best_trial, calm.best_trial);
        assert_eq!(stormy.best_accuracy, calm.best_accuracy);
    }

    #[test]
    fn spot_execution_is_deterministic() {
        let task = resnet101_cifar10();
        let run = || {
            let mut c = cloud().with_spot_interruptions(20.0);
            c.pricing = c.pricing.with_spot();
            Executor::new(
                small_spec(),
                AllocationPlan::new(vec![8, 8, 4, 4]),
                task.clone(),
                physics(&task, 1024),
                c,
            )
            .unwrap()
            .with_options(ExecOptions {
                seed: 4,
                ..ExecOptions::default()
            })
            .run(&configs(8, 1))
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.jct, b.jct);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.compute_cost, b.compute_cost);
    }

    #[test]
    fn trace_invariants_hold() {
        use crate::report::TraceEvent;
        let task = resnet101_cifar10();
        let report = Executor::new(
            small_spec(),
            AllocationPlan::new(vec![8, 8, 4, 4]),
            task.clone(),
            physics(&task, 1024),
            cloud(),
        )
        .unwrap()
        .run(&configs(8, 1))
        .unwrap();
        let trace = &report.trace;
        // Every training segment is well-formed and inside the run.
        let jct_end = rb_core::SimTime::ZERO + report.jct;
        for (_, stage, start, end, gpus) in trace.segments() {
            assert!(start < end, "empty segment");
            assert!(end <= jct_end, "segment past JCT");
            assert!(stage < 4);
            assert!(gpus >= 1);
        }
        // Per-trial segments never overlap (a trial trains one place at a
        // time).
        use std::collections::BTreeMap;
        let mut per_trial: BTreeMap<u64, Vec<(rb_core::SimTime, rb_core::SimTime)>> =
            BTreeMap::new();
        for (t, _, s, e, _) in trace.segments() {
            per_trial.entry(t.raw()).or_default().push((s, e));
        }
        for (trial, mut segs) in per_trial {
            segs.sort();
            for w in segs.windows(2) {
                assert!(w[0].1 <= w[1].0, "trial-{trial} segments overlap");
            }
        }
        // Barriers are one per stage, strictly increasing, last one at JCT.
        let barriers = trace.barriers();
        assert_eq!(barriers.len(), 4);
        for (i, w) in barriers.windows(2).enumerate() {
            assert!(w[0].1 < w[1].1, "barriers out of order at {i}");
        }
        assert_eq!(barriers.last().unwrap().1, jct_end);
        // Node lifecycle balances: ups == provisioned; downs ≤ ups.
        let ups = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::NodeUp { .. }))
            .count();
        let downs = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::NodeDown { .. }))
            .count();
        assert_eq!(ups, report.instances_provisioned);
        assert!(downs <= ups);
        // Migration events match the report's counter.
        let migs = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Migration { .. }))
            .count();
        assert_eq!(migs as u32, report.migrations);
    }

    /// Records every snapshot it sees; re-plans once at `replan_after`.
    struct RecordingHook {
        snapshots: Vec<(usize, SimTime, SimDuration, rb_core::Cost)>,
        replan_after: Option<(usize, Vec<u32>)>,
    }

    impl BarrierHook for RecordingHook {
        fn at_barrier(&mut self, s: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
            self.snapshots
                .push((s.stage, s.now, s.stage_span, s.cost_to_date));
            match &self.replan_after {
                Some((stage, suffix)) if *stage == s.stage => Some(suffix.clone()),
                _ => None,
            }
        }
    }

    #[test]
    fn noop_hooked_run_is_bit_identical_to_run() {
        let task = resnet101_cifar10();
        let mk = || {
            Executor::new(
                small_spec(),
                AllocationPlan::new(vec![8, 8, 4, 4]),
                task.clone(),
                physics(&task, 1024),
                cloud(),
            )
            .unwrap()
        };
        let open = mk().run(&configs(8, 1)).unwrap();
        let mut hook = RecordingHook {
            snapshots: Vec::new(),
            replan_after: None,
        };
        let hooked = mk()
            .run_observed(&configs(8, 1), &mut hook, RecorderHandle::noop())
            .unwrap();
        assert_eq!(open.jct, hooked.jct);
        assert_eq!(open.compute_cost, hooked.compute_cost);
        assert_eq!(open.best_trial, hooked.best_trial);
        assert_eq!(open.best_accuracy, hooked.best_accuracy);
        // One snapshot per non-final barrier, in order, with sane readings.
        assert_eq!(hook.snapshots.len(), 3);
        for (i, (stage, now, span, cost)) in hook.snapshots.iter().enumerate() {
            assert_eq!(*stage, i);
            assert!(*span > SimDuration::ZERO);
            assert!(*cost > rb_core::Cost::ZERO);
            assert_eq!(*now, open.stages[i].sync_end);
        }
    }

    #[test]
    fn barrier_hook_splices_the_remaining_stages() {
        let task = resnet101_cifar10();
        let mk = || {
            Executor::new(
                small_spec(),
                AllocationPlan::new(vec![8, 8, 8, 8]),
                task.clone(),
                physics(&task, 1024),
                cloud(),
            )
            .unwrap()
        };
        let open = mk().run(&configs(8, 1)).unwrap();
        assert!(open.stages.iter().all(|s| s.instances == 2));
        // Shrink stages 1..4 to 4 GPUs (one instance) at the first barrier.
        let mut hook = RecordingHook {
            snapshots: Vec::new(),
            replan_after: Some((0, vec![4, 4, 4])),
        };
        let adapted = mk()
            .run_observed(&configs(8, 1), &mut hook, RecorderHandle::noop())
            .unwrap();
        assert_eq!(adapted.stages[0].instances, 2, "splice is suffix-only");
        for s in &adapted.stages[1..] {
            assert_eq!(s.instances, 1, "stage {} kept the old plan", s.stage);
        }
        // Half the cluster from stage 1 on: cheaper, slower, same winner.
        assert!(adapted.total_cost() < open.total_cost());
        assert_eq!(adapted.best_trial, open.best_trial);
        assert_eq!(adapted.best_accuracy, open.best_accuracy);
    }

    #[test]
    fn barrier_hook_bad_suffixes_are_rejected() {
        let task = resnet101_cifar10();
        let mk = || {
            Executor::new(
                small_spec(),
                AllocationPlan::new(vec![8, 8, 8, 8]),
                task.clone(),
                physics(&task, 1024),
                cloud(),
            )
            .unwrap()
        };
        struct BadLen;
        impl BarrierHook for BadLen {
            fn at_barrier(&mut self, _: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
                Some(vec![4]) // three stages remain after the first barrier
            }
        }
        assert!(matches!(
            mk().run_observed(&configs(8, 1), &mut BadLen, RecorderHandle::noop()),
            Err(RbError::InvalidPlan(_))
        ));
        struct ZeroGpus;
        impl BarrierHook for ZeroGpus {
            fn at_barrier(&mut self, _: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
                Some(vec![0, 4, 4])
            }
        }
        assert!(matches!(
            mk().run_observed(&configs(8, 1), &mut ZeroGpus, RecorderHandle::noop()),
            Err(RbError::InvalidPlan(_))
        ));
    }

    #[test]
    fn trace_busy_time_matches_recorded_usage() {
        // The trace's GPU-seconds must equal what the billing meter saw
        // (per-function billing bills exactly the traced segments).
        let task = resnet101_cifar10();
        let mut c = cloud();
        c.pricing = c.pricing.with_per_function_billing();
        let report = Executor::new(
            small_spec(),
            AllocationPlan::new(vec![8, 4, 4, 4]),
            task.clone(),
            physics(&task, 1024),
            c.clone(),
        )
        .unwrap()
        .run(&configs(8, 2))
        .unwrap();
        let traced_gpu_secs = report.trace.busy_gpu_seconds();
        let billed = report.compute_cost.as_dollars();
        let expected = c.pricing.gpu_hourly().as_dollars() * traced_gpu_secs / 3600.0;
        assert!(
            (billed - expected).abs() / expected < 0.01,
            "billed {billed} vs traced {expected}"
        );
    }

    /// A spot-heavy executor: enough interruptions that preemption
    /// recovery paths (NodeDown/NodeUp mid-stage, segment cuts) all fire.
    fn stormy_executor(task: &TaskModel) -> Executor {
        let mut c = cloud().with_spot_interruptions(30.0);
        c.pricing = c.pricing.with_spot();
        Executor::new(
            small_spec(),
            AllocationPlan::new(vec![8, 8, 4, 4]),
            task.clone(),
            physics(task, 1024),
            c,
        )
        .unwrap()
        .with_options(ExecOptions {
            seed: 21,
            ..ExecOptions::default()
        })
    }

    #[test]
    fn trace_ordering_contract_holds_under_preemption() {
        // The satellite contract: per-entity non-decreasing timestamps and
        // balanced node lifecycles, for both run() and a hooked run, on a
        // run that actually exercises the preemption recovery paths.
        let task = resnet101_cifar10();
        let open = stormy_executor(&task).run(&configs(8, 1)).unwrap();
        assert!(open.preemptions > 0, "test needs spot interruptions");
        open.trace.check_invariants().unwrap();
        let mut hook = RecordingHook {
            snapshots: Vec::new(),
            replan_after: Some((0, vec![8, 4, 4])),
        };
        let hooked = stormy_executor(&task)
            .run_observed(&configs(8, 1), &mut hook, RecorderHandle::noop())
            .unwrap();
        assert!(hooked.preemptions > 0);
        hooked.trace.check_invariants().unwrap();
    }

    #[test]
    fn check_invariants_rejects_malformed_traces() {
        use rb_core::NodeId;
        let down = |at| TraceEvent::NodeDown {
            node: NodeId::new(1),
            at,
            preempted: false,
        };
        let up = |at| TraceEvent::NodeUp {
            node: NodeId::new(1),
            at,
        };
        // A NodeDown with no prior NodeUp.
        let t = ExecutionTrace {
            events: vec![down(SimTime::from_secs(1))],
        };
        assert!(t.check_invariants().is_err());
        // A node coming up twice without going down.
        let t = ExecutionTrace {
            events: vec![up(SimTime::from_secs(1)), up(SimTime::from_secs(2))],
        };
        assert!(t.check_invariants().is_err());
        // Time running backwards on one node's lane.
        let t = ExecutionTrace {
            events: vec![up(SimTime::from_secs(5)), down(SimTime::from_secs(3))],
        };
        assert!(t.check_invariants().is_err());
        // A well-formed lifecycle passes.
        let t = ExecutionTrace {
            events: vec![
                up(SimTime::from_secs(1)),
                down(SimTime::from_secs(3)),
                up(SimTime::from_secs(4)),
            ],
        };
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn recording_does_not_change_execution() {
        // The recorder discipline end-to-end: a run observed by a real
        // sink is bit-identical to the unobserved run, including under
        // spot preemption.
        let task = resnet101_cifar10();
        let plain = stormy_executor(&task).run(&configs(8, 1)).unwrap();
        let sink = Arc::new(rb_obs::MemoryRecorder::new());
        let observed = stormy_executor(&task)
            .run_observed(
                &configs(8, 1),
                &mut NoopHook,
                RecorderHandle::new(sink.clone()),
            )
            .unwrap();
        assert_eq!(plain.jct, observed.jct);
        assert_eq!(plain.compute_cost, observed.compute_cost);
        assert_eq!(plain.data_cost, observed.data_cost);
        assert_eq!(plain.best_trial, observed.best_trial);
        assert_eq!(plain.best_accuracy, observed.best_accuracy);
        assert_eq!(plain.preemptions, observed.preemptions);
        assert_eq!(plain.trace, observed.trace, "trace is recorder-invariant");
        assert!(
            !sink.finish().events.is_empty(),
            "the sink actually recorded"
        );
    }

    #[test]
    fn execution_trace_is_a_derived_view_of_the_bus() {
        // Every local trace event also went over the unified bus, and the
        // codec decodes the exported stream back to the whole report.
        let task = resnet101_cifar10();
        let sink = Arc::new(rb_obs::MemoryRecorder::new());
        let report = stormy_executor(&task)
            .run_observed(
                &configs(8, 1),
                &mut NoopHook,
                RecorderHandle::new(sink.clone()),
            )
            .unwrap();
        let log = sink.finish();
        let mut decoder = codec::Decoder::default();
        let mut schema = rb_obs::schema::JsonlValidator::default();
        for (i, line) in rb_obs::export::export_jsonl(&log).lines().enumerate() {
            let line = schema.line(line).unwrap();
            if let rb_obs::schema::LineKind::Event(event) = line.kind {
                decoder.event(i + 1, &event).unwrap();
            }
        }
        let decoded = decoder.finish().unwrap();
        assert_eq!(decoded.trace, report.trace);
        assert_eq!(format!("{decoded:?}"), format!("{report:?}"));
        // The bus carries more than the trace: stage span pairs, gauges,
        // and the cloud provider's own lifecycle events.
        assert!(log.events_named("exec", "stage").count() == 2 * report.stages.len());
        assert!(log.events_named("cloud", "provision").count() > 0);
        // Instance-level preemptions (cloud lane) need not equal the
        // trial-level count (colocated trials each count the same node),
        // but a stormy run sees at least one.
        assert!(log.counter("cloud", "preempted") > 0);
        assert_eq!(
            log.counter("exec", "migrations"),
            u64::from(report.migrations)
        );
        assert_eq!(
            log.counter("exec", "instances_provisioned"),
            report.instances_provisioned as u64
        );
    }

    /// A hook that arms a watchdog budget on one stage and records every
    /// firing; `suffix` is spliced back when the watchdog trips.
    struct WatchdogHook {
        armed_stage: usize,
        budget_secs: f64,
        suffix: Option<Vec<u32>>,
        fires: Vec<(usize, u64, u64)>,
    }

    impl BarrierHook for WatchdogHook {
        fn at_barrier(&mut self, _snapshot: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
            None
        }

        fn stage_budget_secs(&mut self, stage: usize) -> Option<f64> {
            (stage == self.armed_stage).then_some(self.budget_secs)
        }

        fn at_watchdog(&mut self, snapshot: &WatchdogSnapshot<'_>) -> Option<Vec<u32>> {
            self.fires
                .push((snapshot.stage, snapshot.max_remaining_units, snapshot.units));
            self.suffix.clone()
        }
    }

    #[test]
    fn armed_watchdog_that_never_fires_is_bit_identical() {
        let task = resnet101_cifar10();
        let mk = || {
            Executor::new(
                small_spec(),
                AllocationPlan::new(vec![8, 8, 4, 4]),
                task.clone(),
                physics(&task, 1024),
                cloud(),
            )
            .unwrap()
        };
        let open = mk().run(&configs(8, 1)).unwrap();
        // A generous budget on every stage: armed, checked, never hit.
        struct GenerousHook(Vec<usize>);
        impl BarrierHook for GenerousHook {
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
        let mut hook = GenerousHook(Vec::new());
        let armed = mk()
            .run_observed(&configs(8, 1), &mut hook, RecorderHandle::noop())
            .unwrap();
        assert_eq!(hook.0, vec![0, 1, 2, 3], "budget queried once per stage");
        assert_eq!(open.jct, armed.jct);
        assert_eq!(open.compute_cost, armed.compute_cost);
        assert_eq!(open.best_accuracy, armed.best_accuracy);
        assert_eq!(open.trace, armed.trace, "armed-but-quiet watchdog is free");
    }

    #[test]
    fn watchdog_cuts_an_overrunning_stage_and_resumes() {
        let task = resnet101_cifar10();
        let mk = || {
            Executor::new(
                small_spec(),
                AllocationPlan::new(vec![8, 8, 4, 4]),
                task.clone(),
                physics(&task, 1024),
                cloud(),
            )
            .unwrap()
        };
        let open = mk().run(&configs(8, 1)).unwrap();
        let last = open.stages.last().unwrap();
        let train_secs = (last.sync_end - last.train_start).as_secs_f64() - 1.0;
        // Half the observed training time: the final stage must overrun.
        let mut hook = WatchdogHook {
            armed_stage: 3,
            budget_secs: train_secs * 0.5,
            suffix: Some(vec![8]),
            fires: Vec::new(),
        };
        let cut = mk()
            .run_observed(&configs(8, 1), &mut hook, RecorderHandle::noop())
            .unwrap();
        assert_eq!(hook.fires.len(), 1, "the watchdog fires exactly once");
        let (stage, remaining, units) = hook.fires[0];
        assert_eq!(stage, 3);
        assert_eq!(units, 8);
        assert!(
            remaining > 0 && remaining < units,
            "cut mid-stage: {remaining}"
        );
        // The winner still trained all its units, split across segments
        // before and after the forced barrier.
        assert_eq!(cut.stages.len(), 4);
        let final_segments = cut
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::TrialSegment { stage: 3, .. }))
            .count();
        assert!(final_segments >= 2, "split stage leaves two segments");
        // The residual ran on the spliced 8-GPU allocation and the run
        // finished sooner than letting the slow 4-GPU stage drain.
        assert_eq!(cut.stages[3].gpus_per_trial, 8);
        assert!(
            cut.jct < open.jct,
            "cut {:?} < open {:?}",
            cut.jct,
            open.jct
        );
        assert_eq!(cut.best_accuracy, open.best_accuracy, "same training units");
        // Deterministic: the same seed reproduces the cut run exactly.
        let mut hook2 = WatchdogHook {
            armed_stage: 3,
            budget_secs: train_secs * 0.5,
            suffix: Some(vec![8]),
            fires: Vec::new(),
        };
        let again = mk()
            .run_observed(&configs(8, 1), &mut hook2, RecorderHandle::noop())
            .unwrap();
        assert_eq!(cut.jct, again.jct);
        assert_eq!(cut.trace, again.trace);
    }

    #[test]
    fn watchdog_bad_suffix_is_rejected() {
        let task = resnet101_cifar10();
        let exec = Executor::new(
            small_spec(),
            AllocationPlan::new(vec![8, 8, 4, 4]),
            task.clone(),
            physics(&task, 1024),
            cloud(),
        )
        .unwrap();
        let mut hook = WatchdogHook {
            armed_stage: 3,
            budget_secs: 1.0,
            // One stage remains (the current one); two entries is wrong.
            suffix: Some(vec![8, 8]),
            fires: Vec::new(),
        };
        let err = exec
            .run_observed(&configs(8, 1), &mut hook, RecorderHandle::noop())
            .unwrap_err();
        assert!(matches!(err, RbError::InvalidPlan(_)), "{err:?}");
    }

    #[test]
    fn barrier_snapshot_carries_unit_observations() {
        let task = resnet101_cifar10();
        let exec = Executor::new(
            small_spec(),
            AllocationPlan::new(vec![8, 8, 4, 4]),
            task.clone(),
            physics(&task, 1024),
            cloud(),
        )
        .unwrap();
        struct ObsHook {
            rows: Vec<(usize, u32, Vec<UnitObservation>)>,
        }
        impl BarrierHook for ObsHook {
            fn at_barrier(&mut self, s: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
                self.rows
                    .push((s.stage, s.gpus_per_trial, s.unit_obs.to_vec()));
                None
            }
        }
        let mut hook = ObsHook { rows: Vec::new() };
        exec.run_observed(&configs(8, 1), &mut hook, RecorderHandle::noop())
            .unwrap();
        let phys = physics(&task, 1024);
        assert_eq!(hook.rows.len(), 3);
        for (stage, gpus, obs) in &hook.rows {
            assert_eq!(obs.len(), 1, "uniform allocation: one observation row");
            let o = obs[0];
            assert_eq!(o.gpus, *gpus);
            assert!(o.units > 0);
            let expect = phys.unit_mean_secs(o.gpus, o.placement);
            let err = (o.mean_secs - expect).abs() / expect;
            assert!(
                err < 0.05,
                "stage {stage}: observed {} vs {expect}",
                o.mean_secs
            );
        }
    }

    /// Arms one market switch after the `switch_after` barrier and
    /// records the capacity fields every barrier exposes.
    struct SwitchHook {
        switch_after: usize,
        directive: SwitchDirective,
        armed: bool,
        issued: bool,
        capacity: Vec<(CapacityEvents, u32, u32)>,
    }

    impl BarrierHook for SwitchHook {
        fn at_barrier(&mut self, s: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
            self.capacity
                .push((s.capacity_events, s.home_zone, s.num_zones));
            if s.stage == self.switch_after {
                self.armed = true;
            }
            None
        }

        fn pending_switch(&mut self) -> Option<SwitchDirective> {
            if self.armed && !self.issued {
                self.issued = true;
                return Some(self.directive);
            }
            None
        }
    }

    #[test]
    fn empty_switch_directives_are_bit_identical_to_run() {
        // A hook that keeps answering the pending-switch poll with an
        // empty directive must not perturb the run: the poll is outside
        // every noise stream and the empty directive short-circuits.
        struct EmptySwitch;
        impl BarrierHook for EmptySwitch {
            fn at_barrier(&mut self, _: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
                None
            }
            fn pending_switch(&mut self) -> Option<SwitchDirective> {
                Some(SwitchDirective::default())
            }
        }
        let task = resnet101_cifar10();
        let mk = || {
            Executor::new(
                small_spec(),
                AllocationPlan::new(vec![8, 8, 4, 4]),
                task.clone(),
                physics(&task, 1024),
                cloud(),
            )
            .unwrap()
        };
        let open = mk().run(&configs(8, 1)).unwrap();
        let polled = mk()
            .run_observed(&configs(8, 1), &mut EmptySwitch, RecorderHandle::noop())
            .unwrap();
        assert_eq!(open.jct, polled.jct);
        assert_eq!(open.compute_cost, polled.compute_cost);
        assert_eq!(open.best_trial, polled.best_trial);
        assert_eq!(open.best_accuracy, polled.best_accuracy);
    }

    #[test]
    fn executed_market_switch_redeploys_the_fleet_on_the_new_tier() {
        // Start on spot, switch to on-demand at the first barrier: the
        // fleet drains (old lifetimes pinned at the spot price) and the
        // next stage re-provisions on-demand — a fresh scale-up cycle,
        // more instances ever provisioned, and a pricier bill than
        // riding spot the whole way.
        let task = resnet101_cifar10();
        let spot_cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE).with_spot())
            .with_provision_delay(SimDuration::from_secs(15))
            .with_init_latency(SimDuration::from_secs(15));
        let mk = || {
            Executor::new(
                small_spec(),
                AllocationPlan::new(vec![8, 8, 8, 8]),
                task.clone(),
                physics(&task, 1024),
                spot_cloud.clone(),
            )
            .unwrap()
        };
        let open = mk().run(&configs(8, 1)).unwrap();
        let mut hook = SwitchHook {
            switch_after: 0,
            directive: SwitchDirective {
                market: Some(PricingTier::OnDemand),
                interruption_rate_per_hour: Some(0.0),
                zone: None,
            },
            armed: false,
            issued: false,
            capacity: Vec::new(),
        };
        let switched = mk()
            .run_observed(&configs(8, 1), &mut hook, RecorderHandle::noop())
            .unwrap();
        assert!(hook.issued, "the switch was polled and taken");
        assert!(
            switched.instances_provisioned > open.instances_provisioned,
            "drain + re-provision: {} vs {}",
            switched.instances_provisioned,
            open.instances_provisioned
        );
        assert!(
            switched.jct > open.jct,
            "the new market pays another scale-up cycle"
        );
        assert!(
            switched.compute_cost > open.compute_cost,
            "on-demand residual beats spot: {} vs {}",
            switched.compute_cost,
            open.compute_cost
        );
        // Training noise is per-trial and untouched by the move.
        assert_eq!(switched.best_trial, open.best_trial);
        assert_eq!(switched.best_accuracy, open.best_accuracy);
        // Barrier snapshots exposed the capacity telemetry: a calm,
        // zoneless cloud — requests happened, nothing was denied.
        assert_eq!(hook.capacity.len(), 3);
        for (ev, home, zones) in &hook.capacity {
            assert!(ev.requests > 0);
            assert!(ev.is_calm());
            assert_eq!((*home, *zones), (0, 1));
        }
    }
}
