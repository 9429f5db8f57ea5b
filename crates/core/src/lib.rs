//! Foundation types shared by every RubberBand crate.
//!
//! This crate deliberately has **no external dependencies**. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — millisecond-resolution virtual time used
//!   by the discrete-event cloud and executor simulators.
//! * [`Cost`] — exact money arithmetic in integer micro-dollars.
//! * Typed identifiers ([`TrialId`], [`NodeId`], ...) so that the many
//!   integer-indexed entities in the system cannot be confused for one
//!   another.
//! * A deterministic PRNG ([`rng::Prng`]) and the latency distributions
//!   ([`rng::Distribution`]) that parameterize the execution model. Keeping
//!   the PRNG local makes every experiment bit-reproducible from a seed and
//!   avoids a dependency on `rand`/`rand_distr`.
//! * [`RbError`] — the shared error type.

pub mod error;
pub mod ids;
pub mod money;
pub mod rng;
pub mod stats;
pub mod time;

pub use error::{RbError, Result};
pub use ids::{InstanceId, NodeId, PlanId, StageId, TrialId, WorkerId};
pub use money::Cost;
pub use rng::{mix_seed, Distribution, Prng};
pub use time::{SimDuration, SimTime};
