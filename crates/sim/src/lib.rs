//! The DAG-based execution model and Monte-Carlo simulator (§4.2).
//!
//! RubberBand models the execution of a hyperparameter tuning job over a
//! resource allocation plan as a directed acyclic graph of tasks:
//!
//! * `SCALE` — provision instances from the provider,
//! * `INIT_INSTANCE` — initialize an instance after hand-over,
//! * `TRAIN` — train one trial for a number of iterations on an allocation,
//! * `SYNC` — the end-of-stage barrier that ranks trials.
//!
//! Each node carries a latency distribution parameterized by the fitted
//! [`ModelProfile`](rb_profile::ModelProfile) and
//! [`CloudProfile`](rb_profile::CloudProfile). Sampling latencies and
//! propagating finish times along edges (Algorithm 1) yields one execution
//! sample; averaging over samples predicts job completion time. Cost is
//! derived per sample under either billing model: per-function bills each
//! TRAIN task for exactly its duration, per-instance bills reconstructed
//! instance lifetimes — including time held idle at barriers behind
//! stragglers — with per-second granularity and a 60 s minimum charge.

#[cfg(feature = "alloc-counter")]
pub mod alloc_counter;
pub(crate) mod arena;
pub mod counters;
pub mod dag;
pub mod plan;
pub mod simulate;

pub use counters::CacheCounters;
pub use dag::{DagNode, DagTemplate, ExecDag, Latency, NodeKind, StageSample};
pub use plan::AllocationPlan;
pub use simulate::{
    EngineConfig, Prediction, RunSample, SimCacheStats, SimConfig, Simulator, StageBreakdown,
    StageQuantiles, PAR_MIN_WORK,
};
