//! rb-ctrl: the online adaptation controller (§6's "what if reality
//! disagrees with the plan").
//!
//! RubberBand's plan is compiled *before* the job starts, from a fitted
//! model and cloud profile. This crate closes the loop at runtime:
//!
//! * the [`DriftMonitor`] compares every completed stage's observed
//!   barrier-to-barrier span against the plan's Monte-Carlo per-stage
//!   quantile envelope and maintains a smoothed **drift factor**;
//! * the [`AdaptiveController`] — an executor
//!   [`BarrierHook`](rb_exec::BarrierHook) — re-plans the remaining
//!   stages when drift trips the configured threshold or a stage absorbs
//!   spot preemptions, warm-starting the greedy planner on the residual
//!   spec under a drift-dilated residual deadline;
//! * plan changes are applied only at stage barriers, where every
//!   surviving trial is paused with a fresh checkpoint — the executor's
//!   safe transition point — so adaptation never strands a trial.
//!
//! With no drift and no preemptions the controller never intervenes and
//! execution is bit-identical to the open-loop [`Executor::run`]
//! (rb-exec's contract for a hook that returns `None`).
//!
//! [`Executor::run`]: rb_exec::Executor::run

pub mod controller;
pub mod drift;

pub use controller::{
    AdaptationLog, AdaptiveController, ControllerConfig, MarketChoice, MarketConfig, RefitEvent,
    ReplanEvent, ReplanTrigger, WatchdogConfig,
};
pub use drift::{DriftConfig, DriftMonitor, DriftObservation};
