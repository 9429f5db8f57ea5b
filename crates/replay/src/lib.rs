//! # rb-replay: deterministic trace replay for RubberBand runs
//!
//! A recorded run's JSONL trace (see [`rb_obs::schema`]) carries every
//! result-bearing event the executor emits: the `run` span pair with
//! the billing meters and winner, one `stage` span pair per executed
//! stage, the node/trial lifecycle events that make up the
//! [`ExecutionTrace`](rb_exec::ExecutionTrace), per-trial throughput
//! instants, and the winning hyperparameter configuration.
//! [`replay_jsonl`] reads a trace file **alone** — no planner, no
//! simulator, no re-execution — and reconstructs the
//! [`ExecutionReport`] and [`rb_obs::RunSummary`] of the run that
//! produced it, bit for bit.
//!
//! There is one codec, in [`rb_exec::codec`]: the executor records
//! through it and its decoder is the only reader of the format. Replay
//! is the schema's [`JsonlValidator`] plus that decoder, plus the
//! metric-counter tail that feeds [`ExecutionReport::summary`]; it then
//! checks the rebuilt trace's ordering contract, so a dropped or renamed
//! lifecycle event is an error rather than a different run.
//!
//! The `repro replay` subcommand uses this to close the provenance
//! loop in CI: replay `repro_out/trace.jsonl`, re-run the live
//! workload, and assert the two reports render identically.
//!
//! The crate also ships the `rollup` binary (see [`rollup`]): a
//! fleet-analytics CLI that walks a directory of per-run manifest
//! files and aggregates cost/JCT/queue-wait/recovery distributions
//! into a byte-stable report.

pub mod rollup;

use rb_exec::{codec, ExecutionReport};
use rb_obs::json::Json;
use rb_obs::schema::JsonlValidator;
use rb_obs::{CacheStats, RunSummary};
use std::collections::BTreeMap;

/// A run reconstructed from its trace: the execution report and the
/// rollup summary, both bit-identical to the live run's (for a trace
/// produced by a recording-on single-job run).
#[derive(Debug)]
pub struct ReplayedRun {
    /// The reconstructed execution report.
    pub report: ExecutionReport,
    /// The reconstructed end-of-run rollup.
    pub summary: RunSummary,
}

/// Replays a JSONL trace into the run's [`ExecutionReport`] and
/// [`RunSummary`] without re-executing anything. The trace must contain
/// exactly one `exec`/`run` span pair on the global lane (i.e. a
/// single-job, recording-on run — the `repro trace` artifact's shape).
///
/// Validation and decoding share one pass: each line is parsed once by
/// the schema's [`JsonlValidator`], which hands the document on to the
/// decoder. Schema errors still take precedence, as if the whole
/// stream were validated first: a decode error is held back until
/// every later line has passed.
///
/// # Errors
///
/// Returns a human-readable description of the first problem: schema
/// violations (prefixed `schema: `), a missing or duplicated run span,
/// result fields that are absent, mistyped or out of range, or a
/// rebuilt trace that breaks its ordering contract (prefixed `trace: `).
pub fn replay_jsonl(text: &str) -> Result<ReplayedRun, String> {
    let mut schema = JsonlValidator::default();
    let mut decoder = codec::Decoder::default();
    let mut counters = BTreeMap::new();
    let mut decode_error = None;
    for (idx, line) in text.lines().enumerate() {
        let doc = schema.line(line).map_err(|e| format!("schema: {e}"))?;
        if decode_error.is_none() {
            decode_error = match doc.get("metric") {
                None => decoder.event(idx + 1, &doc),
                Some(_) => metric(idx + 1, &doc, &mut counters),
            }
            .err();
        }
    }
    let stats = schema.finish();
    if let Some(e) = decode_error {
        return Err(e);
    }
    let report = decoder.finish()?;
    report
        .trace
        .check_invariants()
        .map_err(|e| format!("trace: {e}"))?;

    // The live run's rollup, fed from the reconstructed report and the
    // trace's own metric lines.
    let counter = |scope: &str, name: &str| -> u64 {
        counters
            .get(&(scope.to_owned(), name.to_owned()))
            .copied()
            .unwrap_or(0)
    };
    let summary = report.summary(
        CacheStats {
            hits: counter("sim", "plan_cache_hits"),
            misses: counter("sim", "plan_cache_misses"),
            evictions: counter("sim", "plan_cache_evictions"),
        },
        CacheStats {
            hits: counter("sim", "stage_memo_hits"),
            misses: counter("sim", "stage_memo_misses"),
            evictions: counter("sim", "stage_memo_evictions"),
        },
        counter("ctrl", "replans_applied") as usize,
        counter("ctrl", "replans_rejected") as usize,
        stats.events,
    );
    Ok(ReplayedRun { report, summary })
}

/// Folds metric line `lineno` into `counters`; histograms carry no
/// report state.
fn metric(
    lineno: usize,
    doc: &Json,
    counters: &mut BTreeMap<(String, String), u64>,
) -> Result<(), String> {
    if doc.get("metric").and_then(Json::as_str) != Some("counter") {
        return Ok(());
    }
    let scope = doc
        .get("scope")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("line {lineno}: counter without scope"))?;
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("line {lineno}: counter without name"))?;
    let value = doc
        .get("value")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {lineno}: counter without value"))?;
    counters.insert((scope.to_owned(), name.to_owned()), value);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::{Cost, SimDuration, SimTime, TrialId};
    use rb_exec::StageRecord;
    use rb_hpo::ConfigValue;
    use rb_obs::{export::export_jsonl, Lane, MemoryRecorder, Recorder, SpanTracker, Value};

    /// Drives a miniature "executor run" over a recorder: run span,
    /// one stage span pair, the trace events, and the result payload.
    fn record_mini_run(rec: &dyn Recorder) {
        let mut spans = SpanTracker::new();
        let t = SimTime::from_millis;
        let (run, _) = spans.open();
        rec.span_start(t(0), "exec", "run", Lane::Global, run, None, vec![]);
        let (stage, parent) = spans.open();
        rec.span_start(
            t(0),
            "exec",
            "stage",
            Lane::Stage(0),
            stage,
            parent,
            vec![("stage", 0u64.into())],
        );
        rec.instant(t(5), "exec", "node.up", Lane::Node(0), vec![]);
        rec.instant(t(5), "exec", "migration", Lane::Trial(3), vec![]);
        rec.span(
            t(5),
            t(105),
            "exec",
            "trial.segment",
            Lane::Trial(3),
            vec![("stage", 0u64.into()), ("gpus", 2u64.into())],
        );
        rec.instant(
            t(110),
            "exec",
            "barrier",
            Lane::Global,
            vec![("stage", 0u64.into())],
        );
        rec.instant(
            t(110),
            "exec",
            "node.down",
            Lane::Node(0),
            vec![("preempted", true.into())],
        );
        rec.span_end(
            t(110),
            "exec",
            "stage",
            Lane::Stage(0),
            spans.close(),
            vec![
                ("stage", 0u64.into()),
                ("train_start_ms", 5u64.into()),
                ("trials", 1u64.into()),
                ("gpus_per_trial", 2u64.into()),
                ("instances", 1u64.into()),
                ("migrations", 1u64.into()),
            ],
        );
        rec.instant(
            t(110),
            "exec",
            "trial.throughput",
            Lane::Trial(3),
            vec![("sps", 123.456.into())],
        );
        rec.instant(
            t(110),
            "exec",
            "run.best_param",
            Lane::Global,
            vec![("param", "lr".into()), ("float", 0.0625.into())],
        );
        rec.instant(
            t(110),
            "exec",
            "run.best_param",
            Lane::Global,
            vec![("param", "opt".into()), ("choice", "sgd".into())],
        );
        let result: Vec<(&'static str, Value)> = vec![
            ("compute_cost_micros", 1_500_000i64.into()),
            ("data_cost_micros", 20_000i64.into()),
            ("best_trial", 3u64.into()),
            ("best_accuracy", 0.875.into()),
            ("migrations", 1u64.into()),
            ("preemptions", 1u64.into()),
            ("instances_provisioned", 1u64.into()),
            ("faults_injected", 0u64.into()),
            ("provision_retries", 0u64.into()),
            ("checkpoint_fallbacks", 0u64.into()),
            ("degraded_stages", 0u64.into()),
            ("utilization", 0.8.into()),
        ];
        rec.span_end(t(110), "exec", "run", Lane::Global, spans.close(), result);
        rec.counter_add("sim", "plan_cache_hits", 4);
        rec.counter_add("sim", "plan_cache_misses", 2);
        rec.counter_add("ctrl", "replans_applied", 1);
        rec.counter_add("ctrl", "replans_rejected", 2);
    }

    #[test]
    fn replays_a_recorded_run_exactly() {
        let rec = MemoryRecorder::new();
        record_mini_run(&rec);
        let jsonl = export_jsonl(&rec.finish());
        let run = replay_jsonl(&jsonl).expect("replays");

        let r = &run.report;
        assert_eq!(r.jct, SimDuration::from_millis(110));
        assert_eq!(r.compute_cost, Cost::from_micros(1_500_000));
        assert_eq!(r.data_cost, Cost::from_micros(20_000));
        assert_eq!(r.best_trial, TrialId::new(3));
        assert_eq!(r.best_accuracy, 0.875);
        assert_eq!(r.stages.len(), 1);
        assert_eq!(
            r.stages[0],
            StageRecord {
                stage: 0,
                train_start: SimTime::from_millis(5),
                sync_end: SimTime::from_millis(110),
                trials: 1,
                gpus_per_trial: 2,
                instances: 1,
                migrations: 1,
            }
        );
        assert_eq!(r.utilization, Some(0.8));
        assert_eq!(r.trial_throughput[&TrialId::new(3)], 123.456);
        assert_eq!(r.best_config.get_f64("lr"), Some(0.0625));
        assert_eq!(
            r.best_config.get("opt"),
            Some(&ConfigValue::Choice("sgd".into()))
        );
        assert_eq!(r.trace.events.len(), 5);
        assert!(r.trace.check_invariants().is_ok());
        // busy = 100 ms × 2 GPUs = 0.2 GPU-seconds; held = busy / 0.8.
        assert_eq!(run.summary.gpu_busy_secs, 0.2);
        assert_eq!(run.summary.gpu_held_secs, 0.25);
        assert_eq!(run.summary.plan_cache.hits, 4);
        assert_eq!(run.summary.replans_applied, 1);
        assert_eq!(run.summary.replans_rejected, 2);
        assert_eq!(run.summary.trace_events, 12);
    }

    #[test]
    fn rejects_traces_without_a_run_span() {
        let rec = MemoryRecorder::new();
        rec.instant(SimTime::ZERO, "exec", "node.up", Lane::Node(0), Vec::new());
        let jsonl = export_jsonl(&rec.finish());
        let e = replay_jsonl(&jsonl).unwrap_err();
        assert!(e.contains("no exec/run span start"), "{e}");
    }

    #[test]
    fn schema_errors_outrank_earlier_decode_errors() {
        let rec = MemoryRecorder::new();
        record_mini_run(&rec);
        let jsonl = export_jsonl(&rec.finish());
        // Schema-valid, but the run span end lacks a result field.
        let undecodable = jsonl.replace("\"best_trial\"", "\"best_trail\"");
        let e = replay_jsonl(&undecodable).unwrap_err();
        assert!(
            e.contains("missing or non-integer field `best_trial`"),
            "{e}"
        );
        // A blank line after it breaks the schema, which wins.
        let e = replay_jsonl(&format!("{undecodable}\n")).unwrap_err();
        assert!(
            e.starts_with("schema: line ") && e.ends_with("blank line"),
            "{e}"
        );
    }

    #[test]
    fn repeated_or_misplaced_result_events_are_errors() {
        let replay_with = |extra: &dyn Fn(&MemoryRecorder)| {
            let rec = MemoryRecorder::new();
            record_mini_run(&rec);
            extra(&rec);
            replay_jsonl(&export_jsonl(&rec.finish())).unwrap_err()
        };
        let t = SimTime::from_millis(110);
        let e = replay_with(&|rec| {
            let sps = vec![("sps", 1.0.into())];
            rec.instant(t, "exec", "trial.throughput", Lane::Trial(3), sps);
        });
        assert!(
            e.ends_with("trial.throughput: second throughput for `trial:3`"),
            "{e}"
        );
        let e = replay_with(&|rec| {
            let param = vec![("param", "lr".into()), ("float", 0.5.into())];
            rec.instant(t, "exec", "run.best_param", Lane::Global, param);
        });
        assert!(
            e.ends_with("run.best_param: second value for param `lr`"),
            "{e}"
        );
        let e = replay_with(&|rec| {
            rec.instant(
                t,
                "exec",
                "barrier",
                Lane::Stage(0),
                vec![("stage", 1u64.into())],
            );
        });
        assert!(
            e.ends_with("barrier: unexpected instant on lane `stage:0`"),
            "{e}"
        );

        // A stage span end must sit on its own stage's lane.
        let rec = MemoryRecorder::new();
        record_mini_run(&rec);
        let jsonl = export_jsonl(&rec.finish());
        let moved = jsonl.replace(
            "\"lane\":\"stage:0\",\"kind\":\"span_end\"",
            "\"lane\":\"stage:1\",\"kind\":\"span_end\"",
        );
        assert_ne!(moved, jsonl);
        let e = replay_jsonl(&moved).unwrap_err();
        assert!(e.ends_with("stage: stage 0 on lane `stage:1`"), "{e}");
    }

    #[test]
    fn rejects_malformed_streams() {
        assert!(replay_jsonl("not json\n").unwrap_err().contains("schema"));
    }
}
