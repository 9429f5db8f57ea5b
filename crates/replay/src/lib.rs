//! # rb-replay: deterministic trace replay for RubberBand runs
//!
//! A recorded run's JSONL trace (see [`rb_obs::schema`]) carries every
//! result-bearing event the executor emits: the `run` span pair with
//! the billing meters and winner, one `stage` span pair per executed
//! stage, the node/trial lifecycle events that make up the
//! [`ExecutionTrace`], per-trial throughput instants, and the winning
//! hyperparameter configuration. This crate inverts that encoding:
//! [`replay_jsonl`] parses a trace file **alone** — no planner, no
//! simulator, no re-execution — and reconstructs the
//! [`ExecutionReport`] and [`rb_obs::RunSummary`] of the run that
//! produced it, bit for bit.
//!
//! Exactness is by construction, not luck:
//!
//! * virtual time is integer milliseconds, so `t_ms`/`end_ms` fields
//!   round-trip timestamps exactly;
//! * money travels as integer micro-dollars (`*_cost_micros` fields);
//! * `f64` metrics (accuracy, throughput, utilization, float
//!   hyperparameters) rely on the exporter's shortest-roundtrip
//!   formatting, which `str::parse::<f64>` inverts exactly.
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

use rb_core::{Cost, NodeId, SimTime, TrialId};
use rb_exec::{ExecutionReport, ExecutionTrace, StageRecord, TraceEvent};
use rb_hpo::{Config, ConfigValue};
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

/// Typed access to one event line's `fields` object.
struct Fields<'a>(&'a Json);

impl Fields<'_> {
    fn get(&self, key: &str) -> Option<&Json> {
        self.0.get(key)
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field `{key}`"))
    }

    fn i64(&self, key: &str) -> Result<i64, String> {
        self.get(key)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("missing or non-integer field `{key}`"))
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
    }
}

/// The numeric id of a `prefix:id` lane label.
fn lane_id(label: &str, prefix: &str) -> Option<u64> {
    label
        .strip_prefix(prefix)
        .and_then(|rest| rest.strip_prefix(':'))
        .and_then(|id| id.parse::<u64>().ok())
}

/// What the `exec`/`run` span end carries: everything only the
/// executor knew at teardown.
struct RunResult {
    end: SimTime,
    compute_cost: Cost,
    data_cost: Cost,
    best_trial: TrialId,
    best_accuracy: f64,
    migrations: u32,
    preemptions: u32,
    instances_provisioned: usize,
    faults_injected: u64,
    provision_retries: u64,
    checkpoint_fallbacks: u64,
    degraded_stages: u32,
    utilization: Option<f64>,
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
/// every later line and the end-of-stream checks have passed.
///
/// # Errors
///
/// Returns a human-readable description of the first problem: schema
/// violations (prefixed `schema: `), a missing or duplicated run span,
/// or result fields that are absent or mistyped.
pub fn replay_jsonl(text: &str) -> Result<ReplayedRun, String> {
    let mut schema = JsonlValidator::default();
    let mut decoder = RunDecoder::default();
    let mut decode_error = None;
    for (idx, line) in text.lines().enumerate() {
        let doc = schema.line(line).map_err(|e| format!("schema: {e}"))?;
        if decode_error.is_none() {
            decode_error = decoder.line(idx + 1, &doc).err();
        }
    }
    schema.finish().map_err(|e| format!("schema: {e}"))?;
    match decode_error {
        Some(e) => Err(e),
        None => decoder.finish(),
    }
}

/// Replay's state, fed one schema-valid line at a time.
#[derive(Default)]
struct RunDecoder {
    trace: ExecutionTrace,
    stages: Vec<StageRecord>,
    run_start: Option<SimTime>,
    run_result: Option<RunResult>,
    trial_throughput: BTreeMap<TrialId, f64>,
    best_config: Config,
    counters: BTreeMap<(String, String), u64>,
    event_lines: usize,
}

impl RunDecoder {
    /// Decodes line `lineno`, already parsed and schema-checked.
    fn line(&mut self, lineno: usize, doc: &Json) -> Result<(), String> {
        if let Some(metric) = doc.get("metric").and_then(Json::as_str) {
            if metric == "counter" {
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
                self.counters
                    .insert((scope.to_owned(), name.to_owned()), value);
            }
            return Ok(()); // Histograms carry no report state.
        }
        self.event_lines += 1;
        let at = SimTime::from_millis(
            doc.get("t_ms")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("line {lineno}: event without t_ms"))?,
        );
        let scope = doc.get("scope").and_then(Json::as_str).unwrap_or("");
        if scope != "exec" {
            return Ok(());
        }
        let name = doc.get("name").and_then(Json::as_str).unwrap_or("");
        let lane = doc.get("lane").and_then(Json::as_str).unwrap_or("");
        let kind = doc.get("kind").and_then(Json::as_str).unwrap_or("");
        let empty = Json::Obj(Vec::new());
        let fields = Fields(doc.get("fields").unwrap_or(&empty));
        let err = |e: String| format!("line {lineno}: {name}: {e}");

        match (name, kind) {
            ("node.up", "instant") => {
                if let Some(node) = lane_id(lane, "node") {
                    self.trace.events.push(TraceEvent::NodeUp {
                        node: NodeId::new(node),
                        at,
                    });
                }
            }
            ("node.down", "instant") => {
                if let Some(node) = lane_id(lane, "node") {
                    self.trace.events.push(TraceEvent::NodeDown {
                        node: NodeId::new(node),
                        at,
                        preempted: fields
                            .get("preempted")
                            .and_then(Json::as_bool)
                            .unwrap_or(false),
                    });
                }
            }
            ("trial.segment", "span") => {
                if let Some(trial) = lane_id(lane, "trial") {
                    let end = doc
                        .get("end_ms")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| err("span without end_ms".into()))?;
                    self.trace.events.push(TraceEvent::TrialSegment {
                        trial: TrialId::new(trial),
                        stage: fields.u64("stage").map_err(err)? as usize,
                        start: at,
                        end: SimTime::from_millis(end),
                        gpus: fields.u64("gpus").map_err(err)? as u32,
                    });
                }
            }
            ("migration", "instant") => {
                if let Some(trial) = lane_id(lane, "trial") {
                    self.trace.events.push(TraceEvent::Migration {
                        trial: TrialId::new(trial),
                        at,
                    });
                }
            }
            ("barrier", "instant") if lane == "global" => {
                self.trace.events.push(TraceEvent::Barrier {
                    stage: fields.u64("stage").map_err(err)? as usize,
                    at,
                });
            }
            ("stage", "span_end") => {
                self.stages.push(StageRecord {
                    stage: fields.u64("stage").map_err(err)? as usize,
                    train_start: SimTime::from_millis(fields.u64("train_start_ms").map_err(err)?),
                    sync_end: at,
                    trials: fields.u64("trials").map_err(err)? as u32,
                    gpus_per_trial: fields.u64("gpus_per_trial").map_err(err)? as u32,
                    instances: fields.u64("instances").map_err(err)? as u32,
                    migrations: fields.u64("migrations").map_err(err)? as u32,
                });
            }
            ("run", "span_start") if lane == "global" => {
                let previous = self.run_start.replace(at);
                if previous.is_some() {
                    return Err(err(
                        "second run span (multi-job traces not replayable)".into()
                    ));
                }
            }
            ("run", "span_end") if lane == "global" => {
                let result = RunResult {
                    end: at,
                    compute_cost: Cost::from_micros(
                        fields.i64("compute_cost_micros").map_err(err)?,
                    ),
                    data_cost: Cost::from_micros(fields.i64("data_cost_micros").map_err(err)?),
                    best_trial: TrialId::new(fields.u64("best_trial").map_err(err)?),
                    best_accuracy: fields.f64("best_accuracy").map_err(err)?,
                    migrations: fields.u64("migrations").map_err(err)? as u32,
                    preemptions: fields.u64("preemptions").map_err(err)? as u32,
                    instances_provisioned: fields.u64("instances_provisioned").map_err(err)?
                        as usize,
                    faults_injected: fields.u64("faults_injected").map_err(err)?,
                    provision_retries: fields.u64("provision_retries").map_err(err)?,
                    checkpoint_fallbacks: fields.u64("checkpoint_fallbacks").map_err(err)?,
                    degraded_stages: fields.u64("degraded_stages").map_err(err)? as u32,
                    utilization: fields.get("utilization").and_then(Json::as_f64),
                };
                if self.run_result.replace(result).is_some() {
                    return Err(err("second run span end".into()));
                }
            }
            ("trial.throughput", "instant") => {
                if let Some(trial) = lane_id(lane, "trial") {
                    self.trial_throughput
                        .insert(TrialId::new(trial), fields.f64("sps").map_err(err)?);
                }
            }
            ("run.best_param", "instant") => {
                let param = fields
                    .get("param")
                    .and_then(Json::as_str)
                    .ok_or_else(|| err("missing param name".into()))?
                    .to_owned();
                let value = if let Some(v) = fields.get("float") {
                    ConfigValue::Float(v.as_f64().ok_or_else(|| err("bad float".into()))?)
                } else if let Some(v) = fields.get("int") {
                    ConfigValue::Int(v.as_i64().ok_or_else(|| err("bad int".into()))?)
                } else if let Some(v) = fields.get("choice") {
                    ConfigValue::Choice(
                        v.as_str()
                            .ok_or_else(|| err("bad choice".into()))?
                            .to_owned(),
                    )
                } else {
                    return Err(err("param without a typed value".into()));
                };
                self.best_config.set(param, value);
            }
            _ => {}
        }
        Ok(())
    }

    /// Assembles the report and summary once every line is decoded.
    fn finish(self) -> Result<ReplayedRun, String> {
        let start = self
            .run_start
            .ok_or("trace has no exec/run span start on the global lane")?;
        let result = self
            .run_result
            .ok_or("trace has no exec/run span end on the global lane")?;
        let counter = |scope: &str, name: &str| -> u64 {
            self.counters
                .get(&(scope.to_owned(), name.to_owned()))
                .copied()
                .unwrap_or(0)
        };

        let report = ExecutionReport {
            jct: result.end - start,
            compute_cost: result.compute_cost,
            data_cost: result.data_cost,
            best_trial: result.best_trial,
            best_config: self.best_config,
            best_accuracy: result.best_accuracy,
            stages: self.stages,
            migrations: result.migrations,
            preemptions: result.preemptions,
            instances_provisioned: result.instances_provisioned,
            utilization: result.utilization,
            trial_throughput: self.trial_throughput,
            faults_injected: result.faults_injected,
            provision_retries: result.provision_retries,
            checkpoint_fallbacks: result.checkpoint_fallbacks,
            degraded_stages: result.degraded_stages,
            trace: self.trace,
        };

        // The live run's rollup, fed from the reconstructed report and the
        // trace's own metric lines.
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
            self.event_lines,
        );

        Ok(ReplayedRun { report, summary })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::SimDuration;
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
    fn rejects_malformed_streams() {
        assert!(replay_jsonl("not json\n").unwrap_err().contains("schema"));
    }
}
