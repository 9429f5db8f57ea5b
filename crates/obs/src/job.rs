//! Job-scoped lane remapping for multi-job traces.
//!
//! A multi-tenant service (`rb-serve`) interleaves many executors in
//! one discrete-event loop, all reporting into one recorder. Without
//! remapping their traces collide: every job has a trial 0, a node 0,
//! a stage 0, and a `Global` run span. [`JobScopedRecorder`] wraps the
//! shared sink and rewrites lanes so each job's timeline stays
//! separable:
//!
//! * `Global` → `Job(j)` — the job's own lane (pid 5 in the Chrome
//!   export), so run spans and barriers from different jobs sit on
//!   different rows;
//! * `Trial(t)` → `Trial(j·stride + t)` and `Node(n)` →
//!   `Node(j·stride + n)` — disjoint id ranges per job;
//! * `Stage(s)` → `Stage(j·stride + s)` and `Bracket(b)` →
//!   `Bracket(j·stride + b)` — likewise;
//! * `Cloud`, `Controller`, `Planner` stay shared: they are genuinely
//!   global subsystems (the pool handoff events on the cloud lane are
//!   exactly the cross-job story the trace should show in one place).
//!
//! Explicit span ids get the same treatment: each job numbers its spans
//! from 0 with its own [`crate::recorder::SpanTracker`], so ids are
//! offset by `j·stride` to stay unique in the shared stream (the JSONL
//! schema rejects reused span ids).
//!
//! Counters and histograms pass through unscoped — they are already
//! order-insensitive aggregates.
//!
//! Like every recorder, this wrapper only *receives* data; it consumes
//! no randomness and cannot perturb the run it observes.

use crate::recorder::{Event, EventKind, Lane, Recorder, SpanId};
use std::fmt;
use std::sync::Arc;

/// The id stride between jobs' trial/node/stage lanes. Wide enough that
/// no realistic job overflows into its neighbor's range.
pub const JOB_LANE_STRIDE: u64 = 1_000_000;

/// A [`Recorder`] adapter that prefixes every lane with a job identity.
pub struct JobScopedRecorder {
    inner: Arc<dyn Recorder>,
    job: u64,
}

impl JobScopedRecorder {
    /// Wraps `inner`, scoping lanes to `job`.
    pub fn new(inner: Arc<dyn Recorder>, job: u64) -> Self {
        JobScopedRecorder { inner, job }
    }

    fn remap(&self, lane: Lane) -> Lane {
        let base = self.job * JOB_LANE_STRIDE;
        match lane {
            Lane::Global => Lane::Job(self.job),
            Lane::Trial(t) => Lane::Trial(base + t),
            Lane::Node(n) => Lane::Node(base + n),
            Lane::Stage(s) => Lane::Stage((base as u32).saturating_add(s)),
            Lane::Bracket(b) => Lane::Bracket((base as u32).saturating_add(b)),
            shared => shared,
        }
    }

    fn remap_span(&self, span: SpanId) -> SpanId {
        SpanId(self.job * JOB_LANE_STRIDE + span.0)
    }
}

impl fmt::Debug for JobScopedRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JobScopedRecorder(job {})", self.job)
    }
}

impl Recorder for JobScopedRecorder {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&self, mut event: Event) {
        event.lane = self.remap(event.lane);
        match &mut event.kind {
            EventKind::SpanStart { span, parent } => {
                *span = self.remap_span(*span);
                *parent = parent.map(|p| self.remap_span(p));
            }
            EventKind::SpanEnd { span } => *span = self.remap_span(*span),
            _ => {}
        }
        self.inner.record(event);
    }

    fn counter_add(&self, scope: &'static str, name: &'static str, delta: u64) {
        self.inner.counter_add(scope, name, delta);
    }

    fn histogram(&self, scope: &'static str, name: &'static str, value: f64) {
        self.inner.histogram(scope, name, value);
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryRecorder;
    use rb_core::SimTime;

    #[test]
    fn lanes_are_scoped_per_job() {
        let shared = Arc::new(MemoryRecorder::new());
        let j0 = JobScopedRecorder::new(shared.clone(), 0);
        let j3 = JobScopedRecorder::new(shared.clone(), 3);
        j0.instant(SimTime::ZERO, "exec", "e", Lane::Global, Vec::new());
        j0.instant(SimTime::ZERO, "exec", "e", Lane::Trial(7), Vec::new());
        j3.instant(SimTime::ZERO, "exec", "e", Lane::Global, Vec::new());
        j3.instant(SimTime::ZERO, "exec", "e", Lane::Trial(7), Vec::new());
        j3.instant(SimTime::ZERO, "exec", "e", Lane::Node(2), Vec::new());
        j3.instant(SimTime::ZERO, "exec", "e", Lane::Stage(1), Vec::new());
        j3.instant(SimTime::ZERO, "cloud", "e", Lane::Cloud, Vec::new());
        let log = shared.finish();
        let lanes: Vec<Lane> = log.events.iter().map(|e| e.lane).collect();
        let base = 3 * JOB_LANE_STRIDE;
        assert_eq!(
            lanes,
            vec![
                Lane::Job(0),
                Lane::Trial(7),
                Lane::Job(3),
                Lane::Trial(base + 7),
                Lane::Node(base + 2),
                Lane::Stage(base as u32 + 1),
                Lane::Cloud,
            ]
        );
    }

    #[test]
    fn span_ids_are_scoped_per_job() {
        use crate::recorder::SpanTracker;
        let shared = Arc::new(MemoryRecorder::new());
        let j0 = JobScopedRecorder::new(shared.clone(), 0);
        let j3 = JobScopedRecorder::new(shared.clone(), 3);
        for rec in [&j0, &j3] {
            let mut spans = SpanTracker::new();
            let (run, _) = spans.open();
            rec.span_start(
                SimTime::ZERO,
                "exec",
                "run",
                Lane::Global,
                run,
                None,
                vec![],
            );
            let (stage, parent) = spans.open();
            rec.span_start(
                SimTime::ZERO,
                "exec",
                "stage",
                Lane::Stage(0),
                stage,
                parent,
                vec![],
            );
        }
        let log = shared.finish();
        let ids: Vec<_> = log
            .events
            .iter()
            .map(|e| match e.kind {
                crate::recorder::EventKind::SpanStart { span, parent } => (span, parent),
                _ => panic!("span starts only"),
            })
            .collect();
        let base = 3 * JOB_LANE_STRIDE;
        assert_eq!(
            ids,
            vec![
                (SpanId(0), None),
                (SpanId(1), Some(SpanId(0))),
                (SpanId(base), None),
                (SpanId(base + 1), Some(SpanId(base))),
            ]
        );
    }

    #[test]
    fn counters_pass_through_unscoped() {
        let shared = Arc::new(MemoryRecorder::new());
        let j1 = JobScopedRecorder::new(shared.clone(), 1);
        let j2 = JobScopedRecorder::new(shared.clone(), 2);
        j1.counter_add("exec", "migrations", 2);
        j2.counter_add("exec", "migrations", 3);
        let log = shared.finish();
        let c = log
            .counters
            .iter()
            .find(|c| c.name == "migrations")
            .unwrap();
        assert_eq!(c.value, 5);
    }

    #[test]
    fn disabled_inner_stays_disabled() {
        let rec = JobScopedRecorder::new(Arc::new(crate::recorder::NoopRecorder), 4);
        assert!(!rec.enabled());
        assert_eq!(format!("{rec:?}"), "JobScopedRecorder(job 4)");
    }
}
