//! Trace exporters: a JSONL event stream and a Chrome `trace_event`
//! JSON document.
//!
//! **JSONL** — one JSON object per line. Event lines first, in
//! emission order, each carrying a strictly increasing `seq` and a
//! virtual timestamp `t_ms`; then one `metric` line per counter and
//! histogram (sorted by name). The format is documented and enforced by
//! [`crate::schema::validate_jsonl`].
//!
//! **Chrome trace** — a `{"traceEvents": [...]}` document loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>. Lanes map to
//! process/thread rows:
//!
//! | pid | process      | tid                    |
//! |-----|--------------|------------------------|
//! | 1   | trials       | trial id + 1           |
//! | 2   | nodes        | node id + 1            |
//! | 3   | control      | 1 ctrl, 2 planner, 3 cloud, 4 global |
//! | 4   | stages       | stage index + 1        |
//! | 5   | jobs         | job id + 1             |
//! | 6   | brackets     | bracket index + 1      |
//!
//! Closed spans become `ph:"X"` complete events, explicit
//! `span_start`/`span_end` pairs become `ph:"B"`/`ph:"E"` begin/end
//! events, instants `ph:"i"`, gauges `ph:"C"` counter tracks.
//! Timestamps are microseconds of virtual time.

use crate::json::{write_json_f64, write_json_str};
use crate::memory::{CounterEntry, HistogramEntry, TraceLog};
use crate::recorder::{Event, EventKind, Lane, Value};
use std::fmt::Write as _;

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => write_json_f64(out, *v),
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Str(s) => write_json_str(out, s),
    }
}

fn write_fields(out: &mut String, fields: &[(&'static str, Value)]) {
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(out, key);
        out.push(':');
        write_value(out, value);
    }
    out.push('}');
}

/// Renders one event as its JSONL line (no trailing newline). Shared by
/// the batch exporter and [`crate::streaming::StreamingRecorder`], so
/// both produce identical bytes for the same event stream.
pub(crate) fn write_event_line(out: &mut String, seq: usize, event: &Event) {
    let _ = write!(out, "{{\"seq\":{seq},\"t_ms\":{}", event.at.as_millis());
    out.push_str(",\"scope\":");
    write_json_str(out, event.scope);
    out.push_str(",\"name\":");
    write_json_str(out, event.name);
    // A lane label is a word or `word:digits`, so it needs no escaping
    // and is written straight into the line.
    let _ = write!(out, ",\"lane\":\"{}\"", event.lane);
    match &event.kind {
        EventKind::Instant => out.push_str(",\"kind\":\"instant\""),
        EventKind::Span { end } => {
            let _ = write!(out, ",\"kind\":\"span\",\"end_ms\":{}", end.as_millis());
        }
        EventKind::Gauge { value } => {
            out.push_str(",\"kind\":\"gauge\",\"value\":");
            write_json_f64(out, *value);
        }
        EventKind::SpanStart { span, parent } => {
            let _ = write!(out, ",\"kind\":\"span_start\",\"span_id\":{}", span.0);
            if let Some(parent) = parent {
                let _ = write!(out, ",\"parent_id\":{}", parent.0);
            }
        }
        EventKind::SpanEnd { span } => {
            let _ = write!(out, ",\"kind\":\"span_end\",\"span_id\":{}", span.0);
        }
    }
    out.push_str(",\"fields\":");
    write_fields(out, &event.fields);
    out.push('}');
}

/// Exports a [`TraceLog`] as a JSONL document: event lines stamped in
/// virtual time followed by final `metric` lines. Byte-deterministic
/// for a given log.
pub fn export_jsonl(log: &TraceLog) -> String {
    let mut out = String::new();
    for (seq, event) in log.events.iter().enumerate() {
        write_event_line(&mut out, seq, event);
        out.push('\n');
    }
    write_metric_lines(&mut out, &log.counters, &log.histograms);
    out
}

/// Renders the trailing metric lines (counters sorted, then
/// histograms). Shared by [`export_jsonl`] and the
/// streaming sink's `finish`, so the metric tail is byte-identical
/// regardless of which sink produced the stream.
pub(crate) fn write_metric_lines(
    out: &mut String,
    counters: &[CounterEntry],
    histograms: &[HistogramEntry],
) {
    for counter in counters {
        let _ = write!(out, "{{\"metric\":\"counter\",\"scope\":");
        write_json_str(out, counter.scope);
        out.push_str(",\"name\":");
        write_json_str(out, counter.name);
        let _ = write!(out, ",\"value\":{}}}", counter.value);
        out.push('\n');
    }
    for hist in histograms {
        out.push_str("{\"metric\":\"histogram\",\"scope\":");
        write_json_str(out, hist.scope);
        out.push_str(",\"name\":");
        write_json_str(out, hist.name);
        let _ = write!(out, ",\"count\":{}", hist.count);
        out.push_str(",\"min\":");
        write_json_f64(out, hist.min);
        out.push_str(",\"max\":");
        write_json_f64(out, hist.max);
        out.push_str(",\"p50\":");
        write_json_f64(out, hist.p50);
        out.push_str(",\"p90\":");
        write_json_f64(out, hist.p90);
        out.push_str("}\n");
    }
}

/// (pid, tid) placement of a lane in the Chrome trace.
fn lane_track(lane: &Lane) -> (u64, u64) {
    match lane {
        Lane::Trial(id) => (1, id + 1),
        Lane::Node(id) => (2, id + 1),
        Lane::Controller => (3, 1),
        Lane::Planner => (3, 2),
        Lane::Cloud => (3, 3),
        Lane::Global => (3, 4),
        Lane::Stage(s) => (4, u64::from(*s) + 1),
        Lane::Job(id) => (5, id + 1),
        Lane::Bracket(b) => (6, u64::from(*b) + 1),
    }
}

fn lane_thread_name(lane: &Lane) -> String {
    match lane {
        Lane::Trial(id) => format!("trial {id}"),
        Lane::Node(id) => format!("node {id}"),
        Lane::Controller => "controller".to_owned(),
        Lane::Planner => "planner".to_owned(),
        Lane::Cloud => "cloud".to_owned(),
        Lane::Global => "run".to_owned(),
        Lane::Stage(s) => format!("stage {s}"),
        Lane::Job(id) => format!("job {id}"),
        Lane::Bracket(b) => format!("bracket {b}"),
    }
}

fn push_metadata(events: &mut Vec<String>, name: &str, pid: u64, tid: Option<u64>, label: &str) {
    let mut line = String::new();
    let _ = write!(line, "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid}");
    if let Some(tid) = tid {
        let _ = write!(line, ",\"tid\":{tid}");
    }
    line.push_str(",\"args\":{\"name\":");
    write_json_str(&mut line, label);
    line.push_str("}}");
    events.push(line);
}

/// Exports a [`TraceLog`] as a Chrome `trace_event` JSON document with
/// one lane per node, trial, stage, and control subsystem.
pub fn export_chrome(log: &TraceLog) -> String {
    let mut entries: Vec<String> = Vec::new();

    // Process names, then one thread_name per lane actually used
    // (sorted for determinism).
    for (pid, name) in [
        (1, "trials"),
        (2, "nodes"),
        (3, "control"),
        (4, "stages"),
        (5, "jobs"),
        (6, "brackets"),
    ] {
        push_metadata(&mut entries, "process_name", pid, None, name);
    }
    let mut lanes: Vec<Lane> = log.events.iter().map(|e| e.lane).collect();
    lanes.sort();
    lanes.dedup();
    for lane in &lanes {
        let (pid, tid) = lane_track(lane);
        push_metadata(
            &mut entries,
            "thread_name",
            pid,
            Some(tid),
            &lane_thread_name(lane),
        );
    }

    for event in &log.events {
        let (pid, tid) = lane_track(&event.lane);
        let ts_us = event.at.as_millis() * 1000;
        let mut line = String::new();
        line.push_str("{\"name\":");
        let full = format!("{}.{}", event.scope, event.name);
        match &event.kind {
            EventKind::Gauge { value } => {
                // Counter tracks chart the time series per (name, pid).
                write_json_str(&mut line, &full);
                let _ = write!(
                    line,
                    ",\"cat\":\"{}\",\"ph\":\"C\",\"ts\":{ts_us},\"pid\":{pid}",
                    event.scope
                );
                line.push_str(",\"args\":{\"value\":");
                write_json_f64(&mut line, *value);
                line.push_str("}}");
            }
            EventKind::Span { end } => {
                write_json_str(&mut line, &full);
                let dur_us = end.saturating_since(event.at).as_millis() * 1000;
                let _ = write!(
                    line,
                    ",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{dur_us},\"pid\":{pid},\"tid\":{tid},\"args\":",
                    event.scope
                );
                write_fields(&mut line, &event.fields);
                line.push('}');
            }
            EventKind::Instant => {
                write_json_str(&mut line, &full);
                let _ = write!(
                    line,
                    ",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us},\"pid\":{pid},\"tid\":{tid},\"args\":",
                    event.scope
                );
                write_fields(&mut line, &event.fields);
                line.push('}');
            }
            EventKind::SpanStart { span, parent } => {
                write_json_str(&mut line, &full);
                let _ = write!(
                    line,
                    ",\"cat\":\"{}\",\"ph\":\"B\",\"ts\":{ts_us},\"pid\":{pid},\"tid\":{tid},\"args\":",
                    event.scope
                );
                let mut args = event.fields.clone();
                args.push(("span_id", Value::U64(span.0)));
                if let Some(parent) = parent {
                    args.push(("parent_id", Value::U64(parent.0)));
                }
                write_fields(&mut line, &args);
                line.push('}');
            }
            EventKind::SpanEnd { span } => {
                write_json_str(&mut line, &full);
                let _ = write!(
                    line,
                    ",\"cat\":\"{}\",\"ph\":\"E\",\"ts\":{ts_us},\"pid\":{pid},\"tid\":{tid},\"args\":",
                    event.scope
                );
                let mut args = event.fields.clone();
                args.push(("span_id", Value::U64(span.0)));
                write_fields(&mut line, &args);
                line.push('}');
            }
        }
        entries.push(line);
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, entry) in entries.iter().enumerate() {
        out.push_str(entry);
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::memory::MemoryRecorder;
    use crate::recorder::Recorder;
    use rb_core::SimTime;

    fn sample_log() -> TraceLog {
        let rec = MemoryRecorder::new();
        rec.instant(
            SimTime::from_millis(10),
            "exec",
            "node.up",
            Lane::Node(0),
            vec![("preempted", false.into())],
        );
        rec.span(
            SimTime::from_millis(10),
            SimTime::from_millis(510),
            "exec",
            "trial.segment",
            Lane::Trial(3),
            vec![("stage", 0u64.into()), ("gpus", 8u64.into())],
        );
        rec.gauge(
            SimTime::from_millis(510),
            "ctrl",
            "drift",
            Lane::Controller,
            1.25,
        );
        rec.counter_add("sim", "plan_cache.hits", 7);
        rec.histogram("sim", "sample_jct_secs", 12.5);
        rec.finish()
    }

    #[test]
    fn jsonl_lines_parse_and_count() {
        let text = export_jsonl(&sample_log());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "3 events + 1 counter + 1 histogram");
        for line in &lines {
            parse_json(line).expect("every JSONL line is valid JSON");
        }
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"end_ms\":510"));
        assert!(lines[3].contains("\"metric\":\"counter\""));
    }

    #[test]
    fn chrome_export_is_valid_json_with_lanes() {
        let doc = export_chrome(&sample_log());
        let parsed = parse_json(&doc).expect("chrome export parses");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // 6 process_name + 3 thread_name + 3 events
        assert_eq!(events.len(), 12);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("span event present");
        assert_eq!(span.get("ts").unwrap().as_u64(), Some(10_000));
        assert_eq!(span.get("dur").unwrap().as_u64(), Some(500_000));
        assert_eq!(span.get("pid").unwrap().as_u64(), Some(1), "trials process");
        let counter = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .expect("gauge becomes counter track");
        assert_eq!(
            counter.get("args").unwrap().get("value").unwrap().as_f64(),
            Some(1.25)
        );
    }

    #[test]
    fn explicit_span_pairs_export_to_both_formats() {
        use crate::recorder::{SpanId, SpanTracker};
        let rec = MemoryRecorder::new();
        let mut spans = SpanTracker::new();
        let (run, _) = spans.open();
        rec.span_start(
            SimTime::ZERO,
            "exec",
            "run",
            Lane::Global,
            run,
            None,
            Vec::new(),
        );
        let (stage, parent) = spans.open();
        rec.span_start(
            SimTime::from_millis(5),
            "exec",
            "stage",
            Lane::Stage(0),
            stage,
            parent,
            vec![("stage", 0u64.into())],
        );
        rec.span_end(
            SimTime::from_millis(9),
            "exec",
            "stage",
            Lane::Stage(0),
            spans.close(),
            Vec::new(),
        );
        rec.span_end(
            SimTime::from_millis(10),
            "exec",
            "run",
            Lane::Global,
            spans.close(),
            Vec::new(),
        );
        assert_eq!(stage, SpanId(1));
        let log = rec.finish();
        let jsonl = export_jsonl(&log);
        assert!(jsonl.contains("\"kind\":\"span_start\",\"span_id\":1,\"parent_id\":0"));
        assert!(jsonl.contains("\"kind\":\"span_end\",\"span_id\":1"));
        crate::schema::validate_jsonl(&jsonl).expect("span pairs validate");
        let chrome = export_chrome(&log);
        let parsed = parse_json(&chrome).expect("chrome export parses");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let begins: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("B"))
            .collect();
        let ends: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("E"))
            .collect();
        assert_eq!(begins.len(), 2);
        assert_eq!(ends.len(), 2);
        assert_eq!(
            begins[1]
                .get("args")
                .unwrap()
                .get("parent_id")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }

    #[test]
    fn export_is_deterministic() {
        let log = sample_log();
        assert_eq!(export_jsonl(&log), export_jsonl(&log));
        assert_eq!(export_chrome(&log), export_chrome(&log));
    }
}
