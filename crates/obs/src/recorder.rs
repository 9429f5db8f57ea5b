//! The [`Recorder`] trait: the single sink every crate reports into.
//!
//! The recorder follows the same discipline as `run()` vs
//! `run_observed()` in `rb-exec`: instrumentation must never influence the computation it
//! observes. Recorders only *receive* data — they consume no randomness,
//! mutate no simulation state, and are consulted behind
//! [`Recorder::enabled`] guards so the no-op recorder costs a single
//! dynamic call on the hot path. Executor and simulator output is
//! bit-identical whether a [`NoopRecorder`] or a recording sink is
//! attached; tests assert this.
//!
//! All timestamps are **virtual** ([`SimTime`]): the observability layer
//! never reads the wall clock, so traces are reproducible byte-for-byte
//! from a seed.

use rb_core::SimTime;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Which timeline an event belongs to. Lanes become rows ("threads") in
/// the Chrome trace export: one per node, per trial, plus fixed lanes
/// for the controller, the planner, the cloud provider, and per-stage
/// structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Whole-run events (barriers, run start/end).
    Global,
    /// A cluster node's lifecycle and placements.
    Node(u64),
    /// One trial's training segments.
    Trial(u64),
    /// Per-stage structure (stage spans).
    Stage(u32),
    /// The online adaptation controller (`rb-ctrl`).
    Controller,
    /// The allocation planner (`rb-planner`). Planning happens before
    /// virtual time starts, so planner events are stamped at t=0 and
    /// ordered by sequence number.
    Planner,
    /// The cloud provider (`rb-cloud`): provisioning, billing.
    Cloud,
    /// One tuning job inside a multi-job service (`rb-serve`): its
    /// admission, dispatch, barriers and completion. Interleaved jobs
    /// stay separable because each gets its own lane.
    Job(u64),
    /// One Hyperband bracket inside a multi-bracket run: the bracket's
    /// SHA sub-experiment gets its own lane so bracket sets stay
    /// separable in fleet traces.
    Bracket(u32),
}

/// The stable label used by the JSONL export (`node:3`, `trial:7`,
/// `stage:2`, `global`, `controller`, `planner`, `cloud`).
impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lane::Global => f.write_str("global"),
            Lane::Node(id) => write!(f, "node:{id}"),
            Lane::Trial(id) => write!(f, "trial:{id}"),
            Lane::Stage(s) => write!(f, "stage:{s}"),
            Lane::Controller => f.write_str("controller"),
            Lane::Planner => f.write_str("planner"),
            Lane::Cloud => f.write_str("cloud"),
            Lane::Job(id) => write!(f, "job:{id}"),
            Lane::Bracket(b) => write!(f, "bracket:{b}"),
        }
    }
}

/// A lane label that [`Lane`]'s `Display` could not have written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadLane;

/// The exact inverse of `Display`: an id is canonical decimal (digits
/// only, no sign, no leading zero except `0`) and must fit the
/// variant's id type, so every accepted label prints back unchanged.
impl FromStr for Lane {
    type Err = BadLane;

    fn from_str(s: &str) -> Result<Lane, BadLane> {
        fn id<T: FromStr>(digits: &str) -> Result<T, BadLane> {
            let canonical = digits.bytes().all(|b| b.is_ascii_digit())
                && (digits == "0" || !digits.starts_with('0'));
            // `parse` rejects the empty string and out-of-range values.
            match digits.parse() {
                Ok(id) if canonical => Ok(id),
                _ => Err(BadLane),
            }
        }
        Ok(match s {
            "global" => Lane::Global,
            "controller" => Lane::Controller,
            "planner" => Lane::Planner,
            "cloud" => Lane::Cloud,
            _ => match s.split_once(':').ok_or(BadLane)? {
                ("node", digits) => Lane::Node(id(digits)?),
                ("trial", digits) => Lane::Trial(id(digits)?),
                ("stage", digits) => Lane::Stage(id(digits)?),
                ("job", digits) => Lane::Job(id(digits)?),
                ("bracket", digits) => Lane::Bracket(id(digits)?),
                _ => return Err(BadLane),
            },
        })
    }
}

/// Identity of one explicit span: monotonically assigned by a
/// [`SpanTracker`], unique within a trace. Explicit spans are emitted as
/// `span_start`/`span_end` *pairs* ([`EventKind::SpanStart`] /
/// [`EventKind::SpanEnd`]), unlike the closed [`EventKind::Span`] which
/// is a single retrospective event. Pairs let a streaming sink flush the
/// start before the outcome is known, and parent links reconstruct the
/// span tree offline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// Assigns [`SpanId`]s monotonically and tracks the open-span stack so
/// nested spans get parent links. Lives in the instrumented code (one
/// per deterministic emission path), not in the recorder: ids are part
/// of the trace contract, so they must not depend on which sink is
/// attached.
#[derive(Debug, Default, Clone)]
pub struct SpanTracker {
    next: u64,
    stack: Vec<SpanId>,
}

impl SpanTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span: returns its fresh id plus the enclosing open span
    /// (the parent), and pushes it on the stack.
    pub fn open(&mut self) -> (SpanId, Option<SpanId>) {
        let id = SpanId(self.next);
        self.next += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        (id, parent)
    }

    /// Closes the innermost open span and returns its id.
    ///
    /// # Panics
    ///
    /// Panics when no span is open — an unbalanced close is an
    /// instrumentation bug, not a data condition.
    pub fn close(&mut self) -> SpanId {
        self.stack.pop().expect("span close without open")
    }
}

/// A structured field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

/// The shape of an event on its lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A point-in-time occurrence.
    Instant,
    /// An interval `[at, end]` in virtual time (e.g. a training
    /// segment, a stage).
    Span { end: SimTime },
    /// A sampled value on a time series (drift factor, cost-to-date).
    Gauge { value: f64 },
    /// Opens explicit span `span` (closed later by a matching
    /// [`EventKind::SpanEnd`] with the same id). `parent` is the
    /// enclosing open span, if any.
    SpanStart {
        span: SpanId,
        parent: Option<SpanId>,
    },
    /// Closes explicit span `span`.
    SpanEnd { span: SpanId },
}

/// One structured observation, stamped in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual timestamp (span start for [`EventKind::Span`]).
    pub at: SimTime,
    /// Emitting subsystem: `"exec"`, `"sim"`, `"planner"`, `"cloud"`,
    /// `"ctrl"`.
    pub scope: &'static str,
    /// Dotted event name, e.g. `"node.up"`, `"replan.apply"`.
    pub name: &'static str,
    /// Timeline the event belongs to.
    pub lane: Lane,
    pub kind: EventKind,
    /// Structured payload, in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

/// Sink for structured events, counters and histograms.
///
/// Implementations must be order-insensitive for counters and
/// histograms; the event stream is fed from deterministic
/// single-threaded code paths so that exports are byte-stable.
///
/// The engine records from one thread, yet a recorder stays
/// `Send + Sync` (and [`MemoryRecorder`](crate::MemoryRecorder) and
/// [`StreamingRecorder`](crate::StreamingRecorder) keep their
/// `Mutex`es): [`RecorderHandle::new`] takes an `Arc<dyn Recorder>`,
/// which the `perf` benchmark builds from an `Arc` of a concrete
/// recorder, and clippy's `arc_with_non_send_sync` rejects an `Arc` of
/// a type that is not `Send + Sync`.
pub trait Recorder: fmt::Debug + Send + Sync {
    /// Whether events are being kept. Call sites use this to skip
    /// payload construction entirely when a no-op recorder is attached.
    fn enabled(&self) -> bool;

    /// Records a structured event.
    fn record(&self, event: Event);

    /// Adds `delta` to the counter `scope.name`.
    fn counter_add(&self, scope: &'static str, name: &'static str, delta: u64);

    /// Records one observation of the histogram `scope.name`.
    /// Non-finite values are dropped.
    fn histogram(&self, scope: &'static str, name: &'static str, value: f64);

    /// A durability point: sinks that buffer into external storage (the
    /// streaming JSONL sink) push everything written so far through.
    /// In-memory sinks ignore it. The executor calls this at stage
    /// barriers and the service at job completions.
    fn flush(&self) {}

    /// Convenience: records an instant event.
    fn instant(
        &self,
        at: SimTime,
        scope: &'static str,
        name: &'static str,
        lane: Lane,
        fields: Vec<(&'static str, Value)>,
    ) {
        if self.enabled() {
            self.record(Event {
                at,
                scope,
                name,
                lane,
                kind: EventKind::Instant,
                fields,
            });
        }
    }

    /// Convenience: records a `[start, end]` span.
    fn span(
        &self,
        start: SimTime,
        end: SimTime,
        scope: &'static str,
        name: &'static str,
        lane: Lane,
        fields: Vec<(&'static str, Value)>,
    ) {
        if self.enabled() {
            self.record(Event {
                at: start,
                scope,
                name,
                lane,
                kind: EventKind::Span { end },
                fields,
            });
        }
    }

    /// Convenience: opens explicit span `span` (pair it with a later
    /// [`Recorder::span_end`] carrying the same id).
    #[allow(clippy::too_many_arguments)]
    fn span_start(
        &self,
        at: SimTime,
        scope: &'static str,
        name: &'static str,
        lane: Lane,
        span: SpanId,
        parent: Option<SpanId>,
        fields: Vec<(&'static str, Value)>,
    ) {
        if self.enabled() {
            self.record(Event {
                at,
                scope,
                name,
                lane,
                kind: EventKind::SpanStart { span, parent },
                fields,
            });
        }
    }

    /// Convenience: closes explicit span `span`.
    fn span_end(
        &self,
        at: SimTime,
        scope: &'static str,
        name: &'static str,
        lane: Lane,
        span: SpanId,
        fields: Vec<(&'static str, Value)>,
    ) {
        if self.enabled() {
            self.record(Event {
                at,
                scope,
                name,
                lane,
                kind: EventKind::SpanEnd { span },
                fields,
            });
        }
    }

    /// Convenience: records a gauge sample.
    fn gauge(&self, at: SimTime, scope: &'static str, name: &'static str, lane: Lane, value: f64) {
        if self.enabled() {
            self.record(Event {
                at,
                scope,
                name,
                lane,
                kind: EventKind::Gauge { value },
                fields: Vec::new(),
            });
        }
    }
}

/// The do-nothing recorder: every method returns immediately. Attaching
/// it is observationally identical to attaching nothing at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&self, _event: Event) {}
    fn counter_add(&self, _scope: &'static str, _name: &'static str, _delta: u64) {}
    fn histogram(&self, _scope: &'static str, _name: &'static str, _value: f64) {}
}

/// A cloneable, `Debug`-friendly handle to a shared recorder.
///
/// Structs that derive `Clone`/`Debug` (the simulator, the cloud
/// provider) embed this instead of a bare `Arc<dyn Recorder>` so the
/// derive keeps working and the no-op default stays a one-liner.
#[derive(Clone)]
pub struct RecorderHandle {
    inner: Arc<dyn Recorder>,
}

impl RecorderHandle {
    /// Wraps an existing shared recorder.
    pub fn new(inner: Arc<dyn Recorder>) -> Self {
        Self { inner }
    }

    /// A handle to the process-wide no-op recorder.
    pub fn noop() -> Self {
        static NOOP: std::sync::OnceLock<Arc<NoopRecorder>> = std::sync::OnceLock::new();
        let arc = NOOP.get_or_init(|| Arc::new(NoopRecorder)).clone();
        Self { inner: arc }
    }

    /// The underlying recorder.
    pub fn get(&self) -> &dyn Recorder {
        &*self.inner
    }

    /// Clones the underlying `Arc`.
    pub fn share(&self) -> Arc<dyn Recorder> {
        Arc::clone(&self.inner)
    }
}

impl Default for RecorderHandle {
    fn default() -> Self {
        Self::noop()
    }
}

impl fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RecorderHandle({})",
            if self.inner.enabled() {
                "recording"
            } else {
                "noop"
            }
        )
    }
}

impl std::ops::Deref for RecorderHandle {
    type Target = dyn Recorder;
    fn deref(&self) -> &Self::Target {
        &*self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.instant(SimTime::ZERO, "t", "x", Lane::Global, Vec::new());
        rec.counter_add("t", "c", 1);
        rec.histogram("t", "h", 1.0);
    }

    #[test]
    fn lane_labels_are_stable() {
        assert_eq!(Lane::Node(3).to_string(), "node:3");
        assert_eq!(Lane::Trial(7).to_string(), "trial:7");
        assert_eq!(Lane::Stage(2).to_string(), "stage:2");
        assert_eq!(Lane::Global.to_string(), "global");
        assert_eq!(Lane::Controller.to_string(), "controller");
        assert_eq!(Lane::Job(5).to_string(), "job:5");
        assert_eq!(Lane::Bracket(4).to_string(), "bracket:4");
    }

    #[test]
    fn lane_labels_parse_back_exactly() {
        let lanes = [
            Lane::Global,
            Lane::Node(0),
            Lane::Node(u64::MAX),
            Lane::Trial(7),
            Lane::Trial(u64::MAX),
            Lane::Stage(2),
            Lane::Stage(u32::MAX),
            Lane::Controller,
            Lane::Planner,
            Lane::Cloud,
            Lane::Job(5),
            Lane::Job(u64::MAX),
            Lane::Bracket(0),
            Lane::Bracket(u32::MAX),
        ];
        for lane in lanes {
            assert_eq!(lane.to_string().parse::<Lane>(), Ok(lane));
        }
        for bad in [
            "node:18446744073709551616",
            "stage:4294967296",
            "bracket:4294967296",
            "node:01",
            "trial:00",
            "node:+1",
            "job:-1",
            "node:",
            "node:x",
            "node:1:2",
            "node",
            "worker:1",
            "Global",
            "",
        ] {
            assert_eq!(bad.parse::<Lane>(), Err(BadLane), "{bad}");
        }
    }

    #[test]
    fn span_tracker_assigns_monotonic_ids_with_parent_links() {
        let mut t = SpanTracker::new();
        let (run, run_parent) = t.open();
        assert_eq!(run, SpanId(0));
        assert_eq!(run_parent, None);
        let (stage, stage_parent) = t.open();
        assert_eq!(stage, SpanId(1));
        assert_eq!(stage_parent, Some(run));
        assert_eq!(t.close(), stage);
        let (next_stage, p) = t.open();
        assert_eq!(next_stage, SpanId(2), "ids never reused");
        assert_eq!(p, Some(run));
        assert_eq!(t.close(), next_stage);
        assert_eq!(t.close(), run);
    }

    #[test]
    #[should_panic(expected = "span close without open")]
    fn unbalanced_close_panics() {
        SpanTracker::new().close();
    }

    #[test]
    fn handle_defaults_to_noop() {
        let h = RecorderHandle::default();
        assert!(!h.enabled());
        assert_eq!(format!("{h:?}"), "RecorderHandle(noop)");
    }
}
