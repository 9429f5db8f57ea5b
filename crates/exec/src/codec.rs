//! The executor's trace format, both directions. Everything a replay
//! needs is encoded here — the [`ExecutionTrace`] lifecycle events
//! ([`TraceEvent::to_obs`]), the `stage` span end ([`stage_fields`]) and
//! the run's result tail ([`record_run`]) — and [`Decoder`] is the only
//! reader of it. Encoder and decoder map the same structs, so a trace
//! decodes to the report of the run that wrote it, bit for bit: virtual
//! time is integer milliseconds, money travels as integer micro-dollars,
//! and `f64` metrics rely on the exporter's shortest-roundtrip
//! formatting. The decoder is strict where the encoder is fixed: a known
//! event on a kind or lane its encoder never uses, a missing field the
//! encoder always writes, or an integer that does not fit its field is
//! an error, never a silently different report.

use crate::report::{ExecutionReport, ExecutionTrace, StageRecord, TraceEvent};
use rb_core::{Cost, NodeId, SimDuration, SimTime, TrialId};
use rb_hpo::{Config, ConfigValue};
use rb_obs::json::JsonView;
use rb_obs::schema::EventLine;
use rb_obs::{Event, EventKind, Lane, RecorderHandle, SpanId, Value};
use std::collections::BTreeMap;

impl TraceEvent {
    /// The unified-bus form of this event (scope `"exec"`). The mapping
    /// is lossless: [`Decoder`] inverts it.
    pub fn to_obs(&self) -> Event {
        match *self {
            TraceEvent::NodeUp { node, at } => Event {
                at,
                scope: "exec",
                name: "node.up",
                lane: Lane::Node(node.raw()),
                kind: EventKind::Instant,
                fields: Vec::new(),
            },
            TraceEvent::NodeDown {
                node,
                at,
                preempted,
            } => Event {
                at,
                scope: "exec",
                name: "node.down",
                lane: Lane::Node(node.raw()),
                kind: EventKind::Instant,
                fields: vec![("preempted", Value::Bool(preempted))],
            },
            TraceEvent::TrialSegment {
                trial,
                stage,
                start,
                end,
                gpus,
            } => Event {
                at: start,
                scope: "exec",
                name: "trial.segment",
                lane: Lane::Trial(trial.raw()),
                kind: EventKind::Span { end },
                fields: vec![
                    ("stage", Value::U64(stage as u64)),
                    ("gpus", Value::U64(u64::from(gpus))),
                ],
            },
            TraceEvent::Migration { trial, at } => Event {
                at,
                scope: "exec",
                name: "migration",
                lane: Lane::Trial(trial.raw()),
                kind: EventKind::Instant,
                fields: Vec::new(),
            },
            TraceEvent::Barrier { stage, at } => Event {
                at,
                scope: "exec",
                name: "barrier",
                lane: Lane::Global,
                kind: EventKind::Instant,
                fields: vec![("stage", Value::U64(stage as u64))],
            },
        }
    }
}

/// The fields of a `stage` span end: the executed [`StageRecord`], whose
/// `sync_end` is the span end's own timestamp.
pub fn stage_fields(record: &StageRecord) -> Vec<(&'static str, Value)> {
    vec![
        ("stage", (record.stage as u64).into()),
        ("train_start_ms", record.train_start.as_millis().into()),
        ("trials", record.trials.into()),
        ("gpus_per_trial", record.gpus_per_trial.into()),
        ("instances", record.instances.into()),
        ("migrations", record.migrations.into()),
    ]
}

/// Records the result tail of a finished run at `at`: one
/// `trial.throughput` instant per trial that trained, one
/// `run.best_param` instant per hyperparameter of the winner, and the
/// end of the `run` span `span`, which carries every other report field
/// only the executor knows.
pub fn record_run(recorder: &RecorderHandle, at: SimTime, span: SpanId, report: &ExecutionReport) {
    for (&trial, &sps) in &report.trial_throughput {
        recorder.instant(
            at,
            "exec",
            "trial.throughput",
            Lane::Trial(trial.raw()),
            vec![("sps", sps.into())],
        );
    }
    for (name, value) in report.best_config.iter() {
        let typed: (&'static str, Value) = match value {
            ConfigValue::Float(v) => ("float", (*v).into()),
            ConfigValue::Int(v) => ("int", (*v).into()),
            ConfigValue::Choice(s) => ("choice", s.clone().into()),
        };
        recorder.instant(
            at,
            "exec",
            "run.best_param",
            Lane::Global,
            vec![("param", name.clone().into()), typed],
        );
    }
    let mut result: Vec<(&'static str, Value)> = vec![
        (
            "compute_cost_micros",
            report.compute_cost.as_micros().into(),
        ),
        ("data_cost_micros", report.data_cost.as_micros().into()),
        ("best_trial", report.best_trial.raw().into()),
        ("best_accuracy", report.best_accuracy.into()),
        ("migrations", report.migrations.into()),
        ("preemptions", report.preemptions.into()),
        ("instances_provisioned", report.instances_provisioned.into()),
        ("faults_injected", report.faults_injected.into()),
        ("provision_retries", report.provision_retries.into()),
        ("checkpoint_fallbacks", report.checkpoint_fallbacks.into()),
        ("degraded_stages", report.degraded_stages.into()),
    ];
    if let Some(u) = report.utilization {
        result.push(("utilization", u.into()));
    }
    recorder.span_end(at, "exec", "run", Lane::Global, span, result);
}

/// Typed access to one event line's `fields` object.
struct Fields<'a>(JsonView<'a>);

impl<'a> Fields<'a> {
    fn get(&self, key: &str) -> Option<JsonView<'a>> {
        self.0.get(key)
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(JsonView::as_u64)
            .ok_or_else(|| format!("missing or non-integer field `{key}`"))
    }

    /// A `u64` field narrowed to `T`, which must hold it.
    fn narrow<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        T::try_from(self.u64(key)?).map_err(|_| format!("field `{key}` out of range"))
    }

    fn i64(&self, key: &str) -> Result<i64, String> {
        self.get(key)
            .and_then(JsonView::as_i64)
            .ok_or_else(|| format!("missing or non-integer field `{key}`"))
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(JsonView::as_f64)
            .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        self.get(key)
            .and_then(JsonView::as_bool)
            .ok_or_else(|| format!("missing or non-boolean field `{key}`"))
    }
}

/// Rebuilds a run's [`ExecutionReport`] from its trace's event lines,
/// fed one line at a time as [`rb_obs::schema::JsonlValidator`] read
/// it. Events of other scopes, and `exec` events that carry no report
/// state, are skipped. The trace must hold exactly one `run` span pair
/// on the global lane: a single-job, recording-on run.
#[derive(Debug, Default)]
pub struct Decoder {
    trace: ExecutionTrace,
    stages: Vec<StageRecord>,
    run_start: Option<SimTime>,
    /// The `run` span end's time and the report as its fields state it;
    /// [`Decoder::finish`] fills in what the other events carry.
    run_end: Option<(SimTime, ExecutionReport)>,
    trial_throughput: BTreeMap<TrialId, f64>,
    best_config: Config,
}

impl Decoder {
    /// Decodes event line `lineno` (1-based, for error messages), as
    /// the schema validator read it.
    ///
    /// # Errors
    ///
    /// `line N: <name>: …` for an `exec` event off its encoder's kind or
    /// lane, with a field missing, mistyped or out of range, or
    /// repeating what a run records once.
    pub fn event(&mut self, lineno: usize, event: &EventLine<'_>) -> Result<(), String> {
        let &EventLine {
            t_ms,
            scope,
            name,
            label,
            lane,
            kind,
            end_ms,
            fields,
        } = event;
        if scope != "exec" {
            return Ok(());
        }
        let at = SimTime::from_millis(t_ms);
        let fields = Fields(fields);
        let err = |e: String| format!("line {lineno}: {name}: {e}");

        match (name, kind, lane) {
            ("node.up", "instant", Lane::Node(node)) => {
                self.trace.events.push(TraceEvent::NodeUp {
                    node: NodeId::new(node),
                    at,
                });
            }
            ("node.down", "instant", Lane::Node(node)) => {
                self.trace.events.push(TraceEvent::NodeDown {
                    node: NodeId::new(node),
                    at,
                    preempted: fields.bool("preempted").map_err(err)?,
                });
            }
            ("trial.segment", "span", Lane::Trial(trial)) => {
                let end = end_ms.ok_or_else(|| err("span without end_ms".into()))?;
                self.trace.events.push(TraceEvent::TrialSegment {
                    trial: TrialId::new(trial),
                    stage: fields.narrow("stage").map_err(err)?,
                    start: at,
                    end: SimTime::from_millis(end),
                    gpus: fields.narrow("gpus").map_err(err)?,
                });
            }
            ("migration", "instant", Lane::Trial(trial)) => {
                self.trace.events.push(TraceEvent::Migration {
                    trial: TrialId::new(trial),
                    at,
                });
            }
            ("barrier", "instant", Lane::Global) => {
                self.trace.events.push(TraceEvent::Barrier {
                    stage: fields.narrow("stage").map_err(err)?,
                    at,
                });
            }
            ("stage", "span_start", Lane::Stage(_)) => {}
            ("stage", "span_end", Lane::Stage(lane_stage)) => {
                let record = StageRecord {
                    stage: fields.narrow("stage").map_err(err)?,
                    train_start: SimTime::from_millis(fields.u64("train_start_ms").map_err(err)?),
                    sync_end: at,
                    trials: fields.narrow("trials").map_err(err)?,
                    gpus_per_trial: fields.narrow("gpus_per_trial").map_err(err)?,
                    instances: fields.narrow("instances").map_err(err)?,
                    migrations: fields.narrow("migrations").map_err(err)?,
                };
                if record.stage as u64 != u64::from(lane_stage) {
                    return Err(err(format!("stage {} on lane `{label}`", record.stage)));
                }
                self.stages.push(record);
            }
            ("run", "span_start", Lane::Global) => {
                let previous = self.run_start.replace(at);
                if previous.is_some() {
                    return Err(err(
                        "second run span (multi-job traces not replayable)".into()
                    ));
                }
            }
            ("run", "span_end", Lane::Global) => {
                let utilization = match fields.get("utilization") {
                    None => None,
                    Some(_) => Some(fields.f64("utilization").map_err(err)?),
                };
                let stated = ExecutionReport {
                    jct: SimDuration::ZERO,
                    compute_cost: Cost::from_micros(
                        fields.i64("compute_cost_micros").map_err(err)?,
                    ),
                    data_cost: Cost::from_micros(fields.i64("data_cost_micros").map_err(err)?),
                    best_trial: TrialId::new(fields.u64("best_trial").map_err(err)?),
                    best_config: Config::new(),
                    best_accuracy: fields.f64("best_accuracy").map_err(err)?,
                    stages: Vec::new(),
                    migrations: fields.narrow("migrations").map_err(err)?,
                    preemptions: fields.narrow("preemptions").map_err(err)?,
                    instances_provisioned: fields.narrow("instances_provisioned").map_err(err)?,
                    utilization,
                    trial_throughput: BTreeMap::new(),
                    faults_injected: fields.u64("faults_injected").map_err(err)?,
                    provision_retries: fields.u64("provision_retries").map_err(err)?,
                    checkpoint_fallbacks: fields.u64("checkpoint_fallbacks").map_err(err)?,
                    degraded_stages: fields.narrow("degraded_stages").map_err(err)?,
                    trace: ExecutionTrace::default(),
                };
                if self.run_end.replace((at, stated)).is_some() {
                    return Err(err("second run span end".into()));
                }
            }
            ("trial.throughput", "instant", Lane::Trial(trial)) => {
                let sps = fields.f64("sps").map_err(err)?;
                if self
                    .trial_throughput
                    .insert(TrialId::new(trial), sps)
                    .is_some()
                {
                    return Err(err(format!("second throughput for `{label}`")));
                }
            }
            ("run.best_param", "instant", Lane::Global) => {
                let param = fields
                    .get("param")
                    .and_then(JsonView::as_str)
                    .ok_or_else(|| err("missing param name".into()))?;
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
                if self.best_config.get(param).is_some() {
                    return Err(err(format!("second value for param `{param}`")));
                }
                self.best_config.set(param, value);
            }
            (
                "node.up" | "node.down" | "trial.segment" | "migration" | "barrier" | "stage"
                | "run" | "trial.throughput" | "run.best_param",
                _,
                _,
            ) => return Err(err(format!("unexpected {kind} on lane `{label}`"))),
            _ => {}
        }
        Ok(())
    }

    /// Assembles the report once every event line is decoded.
    ///
    /// # Errors
    ///
    /// When the trace lacks the `run` span start or end.
    pub fn finish(self) -> Result<ExecutionReport, String> {
        let start = self
            .run_start
            .ok_or("trace has no exec/run span start on the global lane")?;
        let (end, stated) = self
            .run_end
            .ok_or("trace has no exec/run span end on the global lane")?;
        Ok(ExecutionReport {
            jct: end - start,
            best_config: self.best_config,
            stages: self.stages,
            trial_throughput: self.trial_throughput,
            trace: self.trace,
            ..stated
        })
    }
}
