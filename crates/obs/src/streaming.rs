//! The streaming sink: schema-valid JSONL written incrementally.
//!
//! [`MemoryRecorder`](crate::memory::MemoryRecorder) buffers everything
//! and exports once the run completes. [`StreamingRecorder`] is the
//! other side of that trade: every event is rendered to its JSONL line
//! the moment it is recorded and pushed into the writer, so the sink
//! keeps **full fidelity** while holding only one line in memory at a
//! time. The rendering is shared byte-for-byte with
//! [`crate::export::export_jsonl`], so a streamed trace of a run is
//! identical to the batch export of the same run's `TraceLog` — the
//! round-trip tests in `rubberband` pin this.
//!
//! The writer is buffered; [`flush`](StreamingRecorder::flush) defines
//! the explicit durability points (the executor calls it at stage
//! barriers), so a crash loses at most the current stage's tail.
//! [`finish`](StreamingRecorder::finish) appends the metric lines
//! (counters, then histograms) and returns the writer.
//!
//! Like every recorder, the sink only *receives* data: it consumes no
//! randomness and never influences the computation it observes.

use crate::export::{write_event_line, write_metric_lines};
use crate::memory::MetricsRegistry;
use crate::recorder::{Event, Recorder};
use std::fmt;
use std::io::{self, BufWriter, Write};
use std::sync::Mutex;

/// Initial capacity of the per-event line buffer. An executor trace's
/// event lines run about 65–210 bytes (median near 140), so almost
/// every line is rendered without growing the buffer.
const LINE_CAPACITY: usize = 256;

struct StreamState<W: Write> {
    out: BufWriter<W>,
    seq: usize,
    /// First write error, reported at `finish` (recorders are
    /// infallible by trait contract, so errors are deferred, never
    /// allowed to influence the observed computation).
    error: Option<io::Error>,
}

/// A [`Recorder`] that renders each event to its JSONL line on arrival
/// and writes it through a buffered writer. Metrics stay in an
/// order-insensitive registry until [`finish`](Self::finish). The
/// writer is behind a `Mutex` because a recorder must be `Sync` (see
/// [`Recorder`]).
pub struct StreamingRecorder<W: Write + Send> {
    state: Mutex<StreamState<W>>,
    metrics: MetricsRegistry,
}

impl<W: Write + Send> fmt::Debug for StreamingRecorder<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StreamingRecorder({} events)", self.event_count())
    }
}

impl StreamingRecorder<Vec<u8>> {
    /// A streaming sink over an in-memory buffer — the common case for
    /// tests and for builds that write the file themselves.
    pub fn in_memory() -> Self {
        Self::new(Vec::new())
    }

    /// Finishes an in-memory sink and returns the complete JSONL text.
    ///
    /// # Panics
    ///
    /// Panics when a write failed (impossible for `Vec<u8>`) or the
    /// stream is not UTF-8 (impossible: the renderer emits JSON).
    pub fn into_jsonl(self) -> String {
        let bytes = self.finish().expect("in-memory writes cannot fail");
        String::from_utf8(bytes).expect("JSONL is UTF-8")
    }
}

impl<W: Write + Send> StreamingRecorder<W> {
    /// Wraps `writer` in a buffered streaming sink.
    pub fn new(writer: W) -> Self {
        Self {
            state: Mutex::new(StreamState {
                out: BufWriter::new(writer),
                seq: 0,
                error: None,
            }),
            metrics: MetricsRegistry::default(),
        }
    }

    /// Number of event lines written so far.
    fn event_count(&self) -> usize {
        self.state.lock().expect("stream lock poisoned").seq
    }

    /// Flushes buffered lines through to the writer — the explicit
    /// durability points of the stream (stage barriers, job
    /// completions). Errors are deferred to [`finish`](Self::finish).
    pub fn flush(&self) {
        let mut state = self.state.lock().expect("stream lock poisoned");
        if state.error.is_none() {
            if let Err(e) = state.out.flush() {
                state.error = Some(e);
            }
        }
    }

    /// Appends the metric lines, flushes, and returns the inner writer.
    /// The first deferred write error, if any, surfaces here.
    ///
    /// # Errors
    ///
    /// Returns the first write or flush error the stream encountered.
    pub fn finish(self) -> io::Result<W> {
        let state = self.state.into_inner().expect("stream lock poisoned");
        let StreamState {
            mut out,
            seq: _,
            error,
        } = state;
        if let Some(e) = error {
            return Err(e);
        }
        let (counters, histograms) = self.metrics.snapshot();
        let mut tail = String::new();
        write_metric_lines(&mut tail, &counters, &histograms);
        out.write_all(tail.as_bytes())?;
        out.flush()?;
        out.into_inner().map_err(|e| e.into_error())
    }
}

impl<W: Write + Send> Recorder for StreamingRecorder<W> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        let mut line = String::with_capacity(LINE_CAPACITY);
        let mut state = self.state.lock().expect("stream lock poisoned");
        write_event_line(&mut line, state.seq, &event);
        line.push('\n');
        state.seq += 1;
        if state.error.is_none() {
            if let Err(e) = state.out.write_all(line.as_bytes()) {
                state.error = Some(e);
            }
        }
    }

    fn counter_add(&self, scope: &'static str, name: &'static str, delta: u64) {
        self.metrics.counter_add(scope, name, delta);
    }

    fn histogram(&self, scope: &'static str, name: &'static str, value: f64) {
        self.metrics.histogram(scope, name, value);
    }

    fn flush(&self) {
        StreamingRecorder::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::export_jsonl;
    use crate::memory::MemoryRecorder;
    use crate::recorder::{Lane, SpanTracker};
    use crate::schema::validate_jsonl;
    use rb_core::SimTime;

    fn drive(rec: &dyn Recorder) {
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
        rec.instant(
            SimTime::from_millis(3),
            "exec",
            "node.up",
            Lane::Node(0),
            vec![("preempted", false.into())],
        );
        rec.span(
            SimTime::from_millis(3),
            SimTime::from_millis(8),
            "exec",
            "trial.segment",
            Lane::Trial(1),
            vec![("stage", 0u64.into())],
        );
        rec.gauge(
            SimTime::from_millis(8),
            "ctrl",
            "drift",
            Lane::Controller,
            1.5,
        );
        rec.span_end(
            SimTime::from_millis(9),
            "exec",
            "run",
            Lane::Global,
            spans.close(),
            vec![],
        );
        rec.counter_add("sim", "hits", 4);
        rec.histogram("sim", "h", 2.5);
    }

    #[test]
    fn stream_matches_batch_export_byte_for_byte() {
        let streaming = StreamingRecorder::in_memory();
        let memory = MemoryRecorder::new();
        drive(&streaming);
        drive(&memory);
        let streamed = streaming.into_jsonl();
        let batch = export_jsonl(&memory.finish());
        assert_eq!(streamed, batch);
        validate_jsonl(&streamed).expect("streamed trace validates");
    }

    #[test]
    fn flush_makes_event_lines_visible_mid_run() {
        // A shared Vec the test can observe mid-stream.
        #[derive(Debug, Clone, Default)]
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared::default();
        let rec = StreamingRecorder::new(shared.clone());
        rec.instant(SimTime::ZERO, "t", "a", Lane::Global, Vec::new());
        rec.flush();
        let visible = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        assert!(
            visible.contains("\"name\":\"a\""),
            "flushed line visible before finish"
        );
        assert_eq!(rec.event_count(), 1);
        rec.finish().expect("finish succeeds");
    }
}
