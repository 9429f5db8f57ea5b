//! Schema validation for the JSONL trace export.
//!
//! The schema (enforced here, produced by [`crate::export::export_jsonl`]):
//!
//! * Every line is a standalone JSON object.
//! * **Event lines** carry `seq` (integer, strictly increasing from 0),
//!   `t_ms` (non-negative integer virtual time), `scope`/`name`/`lane`
//!   (non-empty strings, `lane` one of `global|controller|planner|cloud`
//!   or `node:<n>|trial:<n>|stage:<n>|job:<n>|bracket:<n>` with `<n>` in
//!   canonical decimal that fits the id type, i.e. what
//!   [`Lane`]'s `FromStr` accepts), `kind`
//!   (`instant`, `span`, `gauge`, `span_start`, or `span_end`), and
//!   `fields` (object). `span` lines add `end_ms >= t_ms`; `gauge`
//!   lines add a *finite* numeric or null `value` (non-finite readings
//!   must be exported as `null`; a numeric literal that overflows to
//!   infinity is rejected).
//! * **Explicit span pairs** — `span_start` lines carry a fresh,
//!   never-reused `span_id` (and optionally a `parent_id` naming an
//!   earlier `span_id`); `span_end` lines carry the `span_id` of an
//!   open span and must not be stamped earlier than its start
//!   (non-monotone span timestamps are rejected). A `span_end` whose
//!   start was never seen is *unpaired* and rejected: every sink keeps
//!   the whole stream, so no start can be missing.
//! * **Service job events** (`job.submit`/`job.queued`/`job.dispatch`/
//!   `job.reject`/`job.done`) must sit on a `job:<n>` lane.
//! * **Metric lines** carry `metric` (`counter` or `histogram`) and
//!   follow all event lines. Counters carry an integer `value`;
//!   histograms carry `count`/`min`/`max`/`p50`/`p90` (same finite-or-
//!   null rule).

use crate::json::{parse_json, Json};
use crate::recorder::Lane;
use std::collections::BTreeMap;

/// Counts from a successful validation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonlStats {
    pub events: usize,
    pub counters: usize,
    pub histograms: usize,
}

fn require_str<'a>(obj: &'a Json, key: &str, line_no: usize) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| format!("line {line_no}: missing or empty string `{key}`"))
}

fn require_u64(obj: &Json, key: &str, line_no: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {line_no}: missing or non-integer `{key}`"))
}

fn require_num_or_null(obj: &Json, key: &str, line_no: usize) -> Result<(), String> {
    match obj.get(key) {
        // Finite only: JSON has no NaN/inf, but an overflowing literal
        // like 1e999 parses to f64::INFINITY. Producers must map
        // non-finite values to null (write_json_f64 does).
        Some(Json::Num(v)) if v.is_finite() => Ok(()),
        Some(Json::Num(_)) => Err(format!("line {line_no}: non-finite number in `{key}`")),
        Some(Json::Null) => Ok(()),
        _ => Err(format!("line {line_no}: missing or non-numeric `{key}`")),
    }
}

/// Pairing state for explicit `span_start`/`span_end` spans, threaded
/// through the event lines of one stream.
#[derive(Debug, Default)]
struct SpanState {
    /// `span_id` → start `t_ms` for spans opened and not yet closed.
    open: BTreeMap<u64, u64>,
    /// Every `span_id` ever opened (ids must never be reused).
    seen: std::collections::BTreeSet<u64>,
}

fn validate_event_line(
    obj: &Json,
    line_no: usize,
    expected_seq: usize,
    spans: &mut SpanState,
) -> Result<(), String> {
    let seq = require_u64(obj, "seq", line_no)?;
    if seq != expected_seq as u64 {
        return Err(format!(
            "line {line_no}: seq {seq} out of order (expected {expected_seq})"
        ));
    }
    let t_ms = require_u64(obj, "t_ms", line_no)?;
    require_str(obj, "scope", line_no)?;
    let name = require_str(obj, "name", line_no)?;
    let label = require_str(obj, "lane", line_no)?;
    let lane: Lane = label
        .parse()
        .map_err(|_| format!("line {line_no}: bad lane `{label}`"))?;
    if matches!(
        name,
        "job.submit" | "job.queued" | "job.dispatch" | "job.reject" | "job.done"
    ) && !matches!(lane, Lane::Job(_))
    {
        return Err(format!(
            "line {line_no}: service event `{name}` on non-job lane `{label}`"
        ));
    }
    if !obj.get("fields").is_some_and(Json::is_obj) {
        return Err(format!("line {line_no}: `fields` must be an object"));
    }
    match require_str(obj, "kind", line_no)? {
        "instant" => Ok(()),
        "span" => {
            let end_ms = require_u64(obj, "end_ms", line_no)?;
            if end_ms < t_ms {
                return Err(format!("line {line_no}: span ends before it starts"));
            }
            Ok(())
        }
        "gauge" => require_num_or_null(obj, "value", line_no),
        "span_start" => {
            let id = require_u64(obj, "span_id", line_no)?;
            if !spans.seen.insert(id) {
                return Err(format!("line {line_no}: span_id {id} reused"));
            }
            if let Some(parent) = obj.get("parent_id") {
                let parent = parent
                    .as_u64()
                    .ok_or_else(|| format!("line {line_no}: non-integer `parent_id`"))?;
                if !spans.seen.contains(&parent) {
                    return Err(format!(
                        "line {line_no}: parent_id {parent} names an unknown span"
                    ));
                }
            }
            spans.open.insert(id, t_ms);
            Ok(())
        }
        "span_end" => {
            let id = require_u64(obj, "span_id", line_no)?;
            match spans.open.remove(&id) {
                Some(start_ms) if t_ms < start_ms => Err(format!(
                    "line {line_no}: non-monotone span timestamps (span {id} ends at \
                     {t_ms}ms before its {start_ms}ms start)"
                )),
                Some(_) => Ok(()),
                None if spans.seen.contains(&id) => {
                    Err(format!("line {line_no}: span_id {id} closed twice"))
                }
                None => Err(format!("line {line_no}: unpaired span_end")),
            }
        }
        other => Err(format!("line {line_no}: unknown kind `{other}`")),
    }
}

fn validate_metric_line(obj: &Json, line_no: usize) -> Result<bool, String> {
    let metric = require_str(obj, "metric", line_no)?;
    require_str(obj, "scope", line_no)?;
    require_str(obj, "name", line_no)?;
    match metric {
        "counter" => {
            require_u64(obj, "value", line_no)?;
            Ok(true)
        }
        "histogram" => {
            require_u64(obj, "count", line_no)?;
            for key in ["min", "max", "p50", "p90"] {
                require_num_or_null(obj, key, line_no)?;
            }
            Ok(false)
        }
        other => Err(format!("line {line_no}: unknown metric kind `{other}`")),
    }
}

/// Validates a JSONL trace export one line at a time, so a reader
/// that needs each parsed line (replay) validates and decodes in one
/// pass. Feed every line to [`line`](Self::line), then call
/// [`finish`](Self::finish) for the counts. After an error the validator's state is unspecified; stop feeding it.
#[derive(Debug, Default)]
pub struct JsonlValidator {
    stats: JsonlStats,
    /// Lines fed so far (the 1-based number of the last one).
    lines: usize,
    in_metrics: bool,
    spans: SpanState,
}

impl JsonlValidator {
    /// Parses and checks the next line, then hands back the parsed
    /// document.
    ///
    /// # Errors
    ///
    /// Describes the line's first schema violation, prefixed with its
    /// line number.
    pub fn line(&mut self, line: &str) -> Result<Json, String> {
        self.lines += 1;
        let line_no = self.lines;
        if line.trim().is_empty() {
            return Err(format!("line {line_no}: blank line"));
        }
        let obj = parse_json(line).map_err(|e| format!("line {line_no}: {e}"))?;
        if obj.get("metric").is_some() {
            self.in_metrics = true;
            if validate_metric_line(&obj, line_no)? {
                self.stats.counters += 1;
            } else {
                self.stats.histograms += 1;
            }
        } else {
            if self.in_metrics {
                return Err(format!("line {line_no}: event line after metric lines"));
            }
            validate_event_line(&obj, line_no, self.stats.events, &mut self.spans)?;
            self.stats.events += 1;
        }
        Ok(obj)
    }

    /// The counts of the stream fed so far. Every check runs per line,
    /// so a stream whose lines all passed is valid.
    pub fn finish(self) -> JsonlStats {
        self.stats
    }
}

/// Validates a JSONL trace export against the schema above.
pub fn validate_jsonl(text: &str) -> Result<JsonlStats, String> {
    let mut validator = JsonlValidator::default();
    for line in text.lines() {
        validator.line(line)?;
    }
    Ok(validator.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::export_jsonl;
    use crate::memory::MemoryRecorder;
    use crate::recorder::Recorder;
    use rb_core::SimTime;

    fn sample_export() -> String {
        let rec = MemoryRecorder::new();
        rec.instant(
            SimTime::from_millis(1),
            "exec",
            "a",
            Lane::Global,
            Vec::new(),
        );
        rec.span(
            SimTime::from_millis(1),
            SimTime::from_millis(2),
            "exec",
            "b",
            Lane::Node(1),
            vec![("k", 1u64.into())],
        );
        rec.gauge(SimTime::from_millis(2), "ctrl", "c", Lane::Controller, 0.5);
        rec.counter_add("sim", "hits", 3);
        rec.histogram("sim", "h", 2.0);
        export_jsonl(&rec.finish())
    }

    #[test]
    fn accepts_own_exports() {
        let stats = validate_jsonl(&sample_export()).expect("export validates");
        assert_eq!(
            stats,
            JsonlStats {
                events: 3,
                counters: 1,
                histograms: 1
            }
        );
    }

    #[test]
    fn rejects_corruption() {
        let good = sample_export();
        // Truncated JSON on the first line.
        let bad = good.replacen("{\"seq\":0", "{\"seq\":", 1);
        assert!(validate_jsonl(&bad).is_err());
        // Out-of-order sequence numbers.
        let bad = good.replace("\"seq\":2", "\"seq\":7");
        assert!(validate_jsonl(&bad).unwrap_err().contains("out of order"));
        // Unknown lane.
        let bad = good.replace("\"lane\":\"node:1\"", "\"lane\":\"gpu:1\"");
        assert!(validate_jsonl(&bad).unwrap_err().contains("bad lane"));
        // Span ending before it starts.
        let bad = good.replace("\"end_ms\":2", "\"end_ms\":0");
        assert!(validate_jsonl(&bad).unwrap_err().contains("ends before"));
        // Event after metrics.
        let mut lines: Vec<&str> = good.lines().collect();
        let event = lines[0];
        lines.push(event);
        let shuffled: String = lines.join("\n");
        assert!(validate_jsonl(&shuffled)
            .unwrap_err()
            .contains("after metric"));
    }

    #[test]
    fn non_finite_gauges_round_trip_as_null() {
        // A NaN drift factor (the pre-fix rb-ctrl bug) must export as
        // null and still validate.
        let rec = MemoryRecorder::new();
        rec.gauge(
            SimTime::ZERO,
            "ctrl",
            "drift_factor",
            Lane::Controller,
            f64::NAN,
        );
        rec.gauge(
            SimTime::from_millis(1),
            "ctrl",
            "drift_factor",
            Lane::Controller,
            f64::INFINITY,
        );
        rec.histogram("sim", "h", f64::NEG_INFINITY);
        let text = export_jsonl(&rec.finish());
        assert!(text.contains("\"value\":null"), "NaN gauge exports as null");
        assert!(
            !text.contains("NaN") && !text.contains("inf"),
            "no bare non-finite literals"
        );
        let stats = validate_jsonl(&text).expect("null-mapped export validates");
        assert_eq!(stats.events, 2);
    }

    #[test]
    fn rejects_non_finite_numbers() {
        let good = sample_export();
        // An overflowing literal parses to f64::INFINITY — the schema
        // must reject it rather than accept an unreadable value.
        let bad = good.replace("\"value\":0.5", "\"value\":1e999");
        assert!(validate_jsonl(&bad).unwrap_err().contains("non-finite"));
    }

    #[test]
    fn lane_grammar() {
        // The schema's lane grammar is `Lane`'s own label grammar.
        let good = sample_export();
        for bad in [
            "node:",
            "node:x",
            "worker:1",
            "node:01",
            "node:+1",
            "node:18446744073709551616",
        ] {
            let text = good.replace("\"lane\":\"node:1\"", &format!("\"lane\":\"{bad}\""));
            assert!(
                validate_jsonl(&text).unwrap_err().contains("bad lane"),
                "{bad}"
            );
        }
        let max = good.replace(
            "\"lane\":\"node:1\"",
            "\"lane\":\"node:18446744073709551615\"",
        );
        validate_jsonl(&max).expect("u64::MAX is a node id");
    }

    fn span_pair_export() -> String {
        use crate::recorder::SpanTracker;
        let rec = MemoryRecorder::new();
        let mut spans = SpanTracker::new();
        let (run, _) = spans.open();
        rec.span_start(
            SimTime::from_millis(1),
            "exec",
            "run",
            Lane::Global,
            run,
            None,
            Vec::new(),
        );
        let (stage, parent) = spans.open();
        rec.span_start(
            SimTime::from_millis(2),
            "exec",
            "stage",
            Lane::Stage(0),
            stage,
            parent,
            Vec::new(),
        );
        rec.span_end(
            SimTime::from_millis(5),
            "exec",
            "stage",
            Lane::Stage(0),
            spans.close(),
            Vec::new(),
        );
        rec.span_end(
            SimTime::from_millis(6),
            "exec",
            "run",
            Lane::Global,
            spans.close(),
            Vec::new(),
        );
        export_jsonl(&rec.finish())
    }

    #[test]
    fn accepts_explicit_span_pairs() {
        let stats = validate_jsonl(&span_pair_export()).expect("span pairs validate");
        assert_eq!(stats.events, 4);
    }

    #[test]
    fn rejects_span_pairing_violations() {
        let good = span_pair_export();
        // An end whose start was never emitted.
        let unpaired: String = good
            .lines()
            .filter(|l| !(l.contains("span_start") && l.contains("\"span_id\":1")))
            .collect::<Vec<_>>()
            .join("\n")
            .replace("\"seq\":2", "\"seq\":1")
            .replace("\"seq\":3", "\"seq\":2");
        assert!(validate_jsonl(&unpaired)
            .unwrap_err()
            .contains("unpaired span_end"));
        // A trailing `obs.dropped_events` counter does not excuse it.
        let noted = format!(
            "{unpaired}\n{{\"metric\":\"counter\",\"scope\":\"obs\",\"name\":\"dropped_events\",\"value\":1}}"
        );
        assert_eq!(
            validate_jsonl(&noted).unwrap_err(),
            "line 2: unpaired span_end"
        );
        // Reused span id.
        let reused = good.replace("\"span_id\":1,\"parent_id\":0", "\"span_id\":0");
        assert!(validate_jsonl(&reused).unwrap_err().contains("reused"));
        // Non-monotone: the stage span ends before it starts.
        let bad = good.replace("{\"seq\":2,\"t_ms\":5", "{\"seq\":2,\"t_ms\":1");
        assert!(validate_jsonl(&bad)
            .unwrap_err()
            .contains("non-monotone span timestamps"));
        // Double close.
        let double = good.replace(
            "{\"seq\":3,\"t_ms\":6,\"scope\":\"exec\",\"name\":\"run\",\"lane\":\"global\",\"kind\":\"span_end\",\"span_id\":0",
            "{\"seq\":3,\"t_ms\":6,\"scope\":\"exec\",\"name\":\"stage\",\"lane\":\"stage:0\",\"kind\":\"span_end\",\"span_id\":1",
        );
        assert!(validate_jsonl(&double)
            .unwrap_err()
            .contains("closed twice"));
        // Parent naming an unknown span.
        let orphan = good.replace("\"parent_id\":0", "\"parent_id\":9");
        assert!(validate_jsonl(&orphan)
            .unwrap_err()
            .contains("unknown span"));
    }

    #[test]
    fn service_job_events_must_sit_on_job_lanes() {
        let rec = MemoryRecorder::new();
        rec.instant(
            SimTime::from_millis(1),
            "serve",
            "job.dispatch",
            Lane::Job(2),
            vec![("tenant", 0u64.into())],
        );
        let good = export_jsonl(&rec.finish());
        validate_jsonl(&good).expect("job event on job lane validates");
        let bad = good.replace("\"lane\":\"job:2\"", "\"lane\":\"global\"");
        assert!(validate_jsonl(&bad).unwrap_err().contains("non-job lane"));
    }
}
