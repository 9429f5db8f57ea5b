//! The RubberBand executor: event-accurate execution of an allocation plan.
//!
//! Where [`rb_sim`] is the *planner's* coarse DAG model, this crate
//! is the reproduction's "reality": a fine-grained, discrete-event runtime
//! that drives the actual control loop of §5 —
//!
//! * the **cluster manager** ([`cluster`]) services ad-hoc scale requests
//!   against the simulated provider, pays provisioning and initialization
//!   latencies, and tracks every billable second;
//! * the **executor** ([`executor`]) schedules trials stage by stage:
//!   fair allocation, wave scheduling when GPUs are scarce, placement via
//!   the placement controller (or the scattered baseline for the Table 1
//!   ablation), checkpoint/migrate/restore between reallocations, noisy
//!   per-iteration training latencies, synchronization barriers, and
//!   survivor promotion;
//! * the **report** ([`report`]) collects what the paper's tables report:
//!   JCT, dollar cost under the billing model, final accuracy, per-stage
//!   timeline, migrations, utilization, and per-trial throughput;
//! * the **codec** ([`codec`]) is the run's trace format in both
//!   directions: what the executor records and the one decoder that
//!   rebuilds the report from a trace.
//!
//! Because the executor samples its own noise independently of the
//! planner's Monte-Carlo model, comparing a plan's predicted JCT/cost with
//! the executed outcome is a genuine fidelity test (Table 2 "sim" vs
//! "real").
//!
//! [`asha`] additionally implements the ASHA baseline the paper compares
//! against in §7: asynchronous successive halving over a fixed worker
//! pool, with optional new-configuration sampling on free workers.

pub mod asha;
pub mod cluster;
pub mod codec;
pub mod executor;
pub mod report;
pub mod scheduler;

pub use asha::{run_asha, AshaConfig, AshaReport};
pub use cluster::{ClusterManager, RetryOutcome, RetryPolicy, SwitchDirective, SwitchOutcome};
pub use executor::{
    BarrierHook, BarrierSnapshot, ExecOptions, Executor, ExecutorCore, NoopHook, StepOutcome,
    UnitObservation, WatchdogSnapshot,
};
pub use report::{render_timeline, ExecutionReport, ExecutionTrace, StageRecord, TraceEvent};
pub use scheduler::{schedule_stage, StageSchedule};
