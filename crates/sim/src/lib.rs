//! The execution model and Monte-Carlo simulator (§4.2).
//!
//! RubberBand models the execution of a hyperparameter tuning job over a
//! resource allocation plan as a directed acyclic graph of tasks:
//!
//! * `SCALE` — provision instances from the provider,
//! * `INIT_INSTANCE` — initialize an instance after hand-over,
//! * `TRAIN` — train one trial for a number of iterations on an allocation,
//! * `SYNC` — the end-of-stage barrier that ranks trials.
//!
//! Each task's latency is drawn from a distribution parameterized by the
//! fitted [`ModelProfile`](rb_profile::ModelProfile) and
//! [`CloudProfile`](rb_profile::CloudProfile); propagating finish times
//! along the edges (Algorithm 1) yields one execution sample, and
//! averaging over samples predicts job completion time. Because every
//! stage ends in a SYNC barrier, a sample is the concatenation of
//! independently drawn stage samples, which [`DagTemplate`] memoizes and
//! [`Simulator`] composes; `tests/algorithm1.rs` keeps the node-by-node
//! walk as the oracle the composition is checked against. Cost is
//! derived per sample under either billing model: per-function bills
//! each TRAIN task for exactly its duration, per-instance bills
//! reconstructed instance lifetimes — including time held idle at
//! barriers behind stragglers — with per-second granularity and a 60 s
//! minimum charge.

pub(crate) mod arena;
mod counters;
pub mod dag;
mod fxhash;
pub mod plan;
pub mod simulate;

pub use dag::{DagTemplate, SYNC_OVERHEAD_SECS};
pub use plan::AllocationPlan;
pub use simulate::{
    Prediction, SimCacheStats, SimConfig, Simulator, StageBreakdown, StageQuantiles,
};
