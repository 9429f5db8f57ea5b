//! The in-memory recording sink: an event bus plus a metrics registry.
//!
//! Events, counters and histograms all arrive from the engine's one
//! thread (the executor loop, the controller, the planner driver), in
//! a deterministic order, so the event vector order is reproducible.
//! The registry is also **order-insensitive**: counters are sums,
//! histograms keep a value multiset whose exported statistics
//! (count/min/max/quantiles) do not depend on arrival order. This is
//! what makes JSONL exports byte-identical across runs. The `Mutex`es
//! are there only because a [`Recorder`] must be `Send + Sync`.

use crate::recorder::{Event, Recorder};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Cap on retained raw histogram values; beyond this, observations
/// still update `count`/`min`/`max` but quantiles become approximate
/// (computed over the first `HIST_CAP` values).
const HIST_CAP: usize = 65_536;

#[derive(Debug, Default, Clone)]
struct HistogramData {
    count: u64,
    min: f64,
    max: f64,
    values: Vec<f64>,
    overflow: u64,
}

impl HistogramData {
    fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        if self.values.len() < HIST_CAP {
            self.values.push(value);
        } else {
            self.overflow += 1;
        }
    }
}

/// Order-insensitive registry of named counters and histograms. Behind
/// `Mutex`es because a recorder must be `Sync` (see [`Recorder`]).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<(&'static str, &'static str), u64>>,
    histograms: Mutex<BTreeMap<(&'static str, &'static str), HistogramData>>,
}

impl MetricsRegistry {
    pub fn counter_add(&self, scope: &'static str, name: &'static str, delta: u64) {
        let mut counters = self.counters.lock().expect("metrics lock poisoned");
        *counters.entry((scope, name)).or_insert(0) += delta;
    }

    pub fn histogram(&self, scope: &'static str, name: &'static str, value: f64) {
        if !value.is_finite() {
            return;
        }
        let mut hists = self.histograms.lock().expect("metrics lock poisoned");
        hists.entry((scope, name)).or_default().observe(value);
    }

    /// Snapshots every counter and histogram, sorted by `(scope, name)`;
    /// histogram quantiles are computed here over sorted values
    /// (nearest-rank, deterministic regardless of observation order).
    pub fn snapshot(&self) -> (Vec<CounterEntry>, Vec<HistogramEntry>) {
        let counters = self
            .counters
            .lock()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(&(scope, name), &value)| CounterEntry { scope, name, value })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(&(scope, name), data)| {
                let mut sorted = data.values.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("histograms hold no NaN"));
                HistogramEntry {
                    scope,
                    name,
                    count: data.count,
                    min: data.min,
                    max: data.max,
                    p50: quantile(&sorted, 50),
                    p90: quantile(&sorted, 90),
                }
            })
            .collect();
        (counters, histograms)
    }
}

/// A counter at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterEntry {
    pub scope: &'static str,
    pub name: &'static str,
    pub value: u64,
}

/// A histogram at snapshot time. Quantiles use the nearest-rank method
/// over the sorted retained values, so they are exact while the
/// histogram holds fewer than its retention cap and deterministic
/// regardless of observation order.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramEntry {
    pub scope: &'static str,
    pub name: &'static str,
    pub count: u64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p90: f64,
}

/// Everything a [`MemoryRecorder`] captured: the ordered event stream
/// plus final counter and histogram values (sorted by name).
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    pub events: Vec<Event>,
    pub counters: Vec<CounterEntry>,
    pub histograms: Vec<HistogramEntry>,
}

impl TraceLog {
    /// The final value of counter `scope.name` (0 if never touched).
    pub fn counter(&self, scope: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.scope == scope && c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Events with the given scope and name, in emission order. Public
    /// for tests that read a run's trace (`crates/exec/tests/stepper.rs`
    /// and `rubberband`'s tests); no library code calls it.
    pub fn events_named<'a>(
        &'a self,
        scope: &'a str,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Event> {
        self.events
            .iter()
            .filter(move |e| e.scope == scope && e.name == name)
    }

    /// The histogram `scope.name`, if any observation was recorded.
    pub fn histogram(&self, scope: &str, name: &str) -> Option<&HistogramEntry> {
        self.histograms
            .iter()
            .find(|h| h.scope == scope && h.name == name)
    }
}

/// The standard recording sink: buffers every event and metric in
/// memory for export once the run completes. A run too long to buffer
/// streams to a [`StreamingRecorder`](crate::StreamingRecorder)
/// instead. The event buffer is behind a `Mutex` for the reason its
/// metrics are ([`MetricsRegistry`]).
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Mutex<Vec<Event>>,
    metrics: MetricsRegistry,
}

impl MemoryRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots everything captured so far into an exportable log.
    /// Counters and histograms come out sorted by `(scope, name)`;
    /// histogram quantiles are computed here, over sorted values.
    pub fn finish(&self) -> TraceLog {
        let events = self.events.lock().expect("event lock poisoned").clone();
        let (counters, histograms) = self.metrics.snapshot();
        TraceLog {
            events,
            counters,
            histograms,
        }
    }
}

/// Nearest-rank quantile over pre-sorted values.
fn quantile(sorted: &[f64], pct: u64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as u64 - 1) * pct / 100) as usize;
    sorted[idx]
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        self.events.lock().expect("event lock poisoned").push(event);
    }

    fn counter_add(&self, scope: &'static str, name: &'static str, delta: u64) {
        self.metrics.counter_add(scope, name, delta);
    }

    fn histogram(&self, scope: &'static str, name: &'static str, value: f64) {
        self.metrics.histogram(scope, name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Lane, Recorder};
    use rb_core::SimTime;

    #[test]
    fn counters_accumulate_and_sort() {
        let rec = MemoryRecorder::new();
        rec.counter_add("b", "y", 2);
        rec.counter_add("a", "x", 1);
        rec.counter_add("b", "y", 3);
        let log = rec.finish();
        assert_eq!(log.counter("b", "y"), 5);
        assert_eq!(log.counter("a", "x"), 1);
        assert_eq!(log.counter("a", "missing"), 0);
        assert_eq!(log.counters[0].scope, "a", "sorted by (scope, name)");
    }

    #[test]
    fn histogram_stats_are_order_insensitive() {
        let forward = MemoryRecorder::new();
        let backward = MemoryRecorder::new();
        let values: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.5).collect();
        for &v in &values {
            forward.histogram("s", "h", v);
        }
        for &v in values.iter().rev() {
            backward.histogram("s", "h", v);
        }
        let (f, b) = (forward.finish(), backward.finish());
        assert_eq!(f.histogram("s", "h"), b.histogram("s", "h"));
        let h = f.histogram("s", "h").unwrap();
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 49.5);
        assert_eq!(h.p50, 24.5);
        assert_eq!(h.p90, 44.5);
    }

    #[test]
    fn non_finite_histogram_values_are_dropped() {
        let rec = MemoryRecorder::new();
        rec.histogram("s", "h", f64::NAN);
        rec.histogram("s", "h", f64::INFINITY);
        rec.histogram("s", "h", 1.0);
        let h = rec.finish();
        assert_eq!(h.histogram("s", "h").unwrap().count, 1);
    }

    #[test]
    fn events_keep_emission_order() {
        let rec = MemoryRecorder::new();
        rec.instant(SimTime::from_millis(5), "t", "b", Lane::Global, Vec::new());
        rec.instant(SimTime::from_millis(1), "t", "a", Lane::Global, Vec::new());
        let log = rec.finish();
        assert_eq!(log.events.len(), 2);
        assert_eq!(
            log.events[0].name, "b",
            "bus preserves emission order, not time order"
        );
        assert_eq!(log.events_named("t", "a").count(), 1);
    }
}
