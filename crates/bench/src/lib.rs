//! The reproduction harness: one function per figure/table of the paper's
//! evaluation (§6), shared by the `repro` binary and the test suite.
//!
//! Every experiment returns structured rows (so tests can assert the
//! *shape* of each result), and a `*_table` function turns them into a
//! [`table::Table`], which the binary prints and, for the figures, writes
//! as CSV. Paper parameters are the defaults; tests may scale the
//! workloads down.

pub mod adapt;
pub mod chaos;
pub mod common;
pub mod ext;
pub mod figures;
pub mod fleet;
pub mod serve;
pub mod table;
pub mod tables;
pub mod trace;

pub use common::{fig_cloud, policy_prediction, synthetic_rn50};
