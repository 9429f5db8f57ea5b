//! The training substrate: synthetic models that RubberBand tunes.
//!
//! The original system trains PyTorch models on V100 clusters; RubberBand
//! itself only interacts with training through a narrow interface — start a
//! trial, advance it by some iterations, read back an intermediate metric,
//! checkpoint/restore it (§3, §5). This crate implements that interface
//! over an analytic substrate:
//!
//! * [`dataset`] — dataset descriptors (sample counts drive epoch
//!   accounting; sizes drive ingress pricing, Fig. 10),
//! * [`task`] — a learning-curve model with a hyperparameter response
//!   surface, so early-stopping decisions rank configurations meaningfully
//!   and final accuracies land in realistic ranges (Table 2),
//! * [`trial`] — the trial state machine (pending → running ⇄ paused →
//!   completed/terminated) and metric history,
//! * [`checkpoint`] — the checkpoint store standing in for Ray's shared
//!   object store, with real byte-level serialization so migration costs
//!   are proportional to actual state size.

pub mod checkpoint;
pub mod dataset;
pub mod task;
pub mod trial;

pub use checkpoint::{Checkpoint, CheckpointStore, VerifiedFetch};
pub use dataset::Dataset;
pub use task::{Curve, TaskModel};
pub use trial::{Trial, TrialStatus};
