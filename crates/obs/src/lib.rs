//! # rb-obs — deterministic observability for RubberBand
//!
//! A zero-dependency tracing, metrics and export layer threaded through
//! every crate in the workspace:
//!
//! * [`Recorder`] — the sink trait: structured events (instant / span /
//!   gauge) on per-node, per-trial and per-subsystem [`Lane`]s, plus
//!   order-insensitive counters and histograms. [`NoopRecorder`] is the
//!   default everywhere and is observationally free: executor and
//!   simulator output is bit-identical with or without it (the same
//!   contract as `run()` vs `run_observed()` in `rb-exec`).
//! * [`MemoryRecorder`] — the in-memory sink; [`TraceLog`] is its
//!   snapshot.
//! * [`export::export_jsonl`] — a JSONL event stream stamped in virtual
//!   time, validated by [`schema::validate_jsonl`].
//! * [`export::export_chrome`] — a Chrome `trace_event` document
//!   loadable in `chrome://tracing` / Perfetto, with lanes per node,
//!   trial, stage and controller.
//! * [`RunSummary`] — the end-of-run rollup (JCT, cost, cache hit
//!   rates, re-plan counts, GPU busy/idle split), built by
//!   `rb_exec::ExecutionReport::summary` for live and replayed runs.
//!
//! Everything is stamped in **virtual time** and consumes no
//! randomness, so traces are byte-reproducible from a seed.

pub mod export;
pub mod job;
pub mod json;
pub mod memory;
pub mod recorder;
pub mod schema;
pub mod streaming;
pub mod summary;

pub use job::{JobScopedRecorder, JOB_LANE_STRIDE};
pub use memory::{CounterEntry, HistogramEntry, MemoryRecorder, MetricsRegistry, TraceLog};
pub use recorder::{
    Event, EventKind, Lane, NoopRecorder, Recorder, RecorderHandle, SpanId, SpanTracker, Value,
};
pub use streaming::StreamingRecorder;
pub use summary::{CacheStats, RunSummary};
