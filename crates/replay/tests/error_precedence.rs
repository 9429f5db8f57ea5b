//! Replay validates and decodes a trace in one pass, yet must report
//! the error a validate-first reader would: any schema violation wins
//! over a decode error, wherever the two sit in the stream. A faulted
//! run's trace is mutated a few hundred ways from a fixed seed (byte
//! flips, truncations, duplicated lines) and every mutant is checked
//! against [`validate_jsonl`]. Hand-made mutants that each change one
//! event the report depends on must fail rather than replay to a
//! different run.

use rb_obs::schema::validate_jsonl;
use rb_replay::replay_jsonl;
use rubberband::prelude::*;
use rubberband::rb_cloud::catalog::P3_8XLARGE;
use rubberband::rb_exec::NoopHook;
use rubberband::rb_obs::StreamingRecorder;
use std::sync::Arc;

/// A spot run with capacity, straggler, degraded-node and checkpoint
/// faults under a retry policy, streamed to JSONL.
fn faulted_trace() -> String {
    let task = rubberband::rb_train::task::resnet101_cifar10();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let spec = ExperimentSpec::from_stages(&[(8, 1), (4, 2), (2, 4)]).unwrap();
    let mut cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15))
        .with_spot_interruptions(2.0);
    cloud.pricing = cloud.pricing.with_spot();
    let configs = SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .build()
        .unwrap()
        .sample_n(8, &mut Prng::seed_from_u64(7));
    let sink = Arc::new(StreamingRecorder::in_memory());
    let report = Executor::new(
        spec,
        AllocationPlan::new(vec![8, 4, 4]),
        task,
        physics,
        cloud,
    )
    .unwrap()
    .with_options(ExecOptions {
        seed: 7,
        faults: FaultPlan {
            capacity_failure_prob: 0.3,
            straggler_prob: 0.2,
            straggler_factor: 20.0,
            degraded_prob: 0.2,
            degraded_factor: 1.5,
            checkpoint_corruption_prob: 0.2,
            ..FaultPlan::none()
        },
        retry: Some(RetryPolicy {
            max_retries: 12,
            base_backoff_secs: 5.0,
            max_backoff_secs: 60.0,
            request_timeout_secs: 60.0,
        }),
        checkpoint_retention: 3,
        ..ExecOptions::default()
    })
    .run_observed(&configs, &mut NoopHook, RecorderHandle::new(sink.clone()))
    .unwrap();
    assert!(report.faults_injected > 0, "the cell injects faults");
    Arc::try_unwrap(sink).unwrap().into_jsonl()
}

/// One seeded mutation of `trace`: a byte flip, a truncation, or a
/// duplicated line. The trace is ASCII and flips write ASCII, so every
/// mutant is still a `&str`.
fn mutate(trace: &str, rng: &mut Prng) -> String {
    let mut bytes = trace.as_bytes().to_vec();
    match rng.next_below(3) {
        0 => {
            let at = rng.next_below(bytes.len() as u64) as usize;
            // Mostly the bytes JSON and the schema care about.
            const PICKS: &[u8] = b"\n\"{}[],:-.0123456789etnsk_ ";
            bytes[at] = if rng.next_below(2) == 0 {
                PICKS[rng.next_below(PICKS.len() as u64) as usize]
            } else {
                0x20 + rng.next_below(0x5f) as u8
            };
        }
        1 => bytes.truncate(rng.next_below(bytes.len() as u64) as usize),
        _ => {
            let lines: Vec<&str> = trace.lines().collect();
            let dup = rng.next_below(lines.len() as u64) as usize;
            let mut out = String::new();
            for (i, line) in lines.iter().enumerate() {
                for _ in 0..1 + usize::from(i == dup) {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            return out;
        }
    }
    String::from_utf8(bytes).expect("ASCII stays UTF-8")
}

/// `text` with its last line cut in half: a schema violation at the
/// very end of the stream.
fn cut_last_line(text: &str) -> String {
    let body = text.trim_end_matches('\n');
    let last = body.rfind('\n').map_or(0, |i| i + 1);
    let half = last + (body.len() - last) / 2;
    format!("{}\n", &body[..half])
}

#[test]
fn schema_errors_take_precedence_over_decode_errors_in_mutated_traces() {
    let trace = faulted_trace();
    replay_jsonl(&trace).expect("the unmutated trace replays");

    let mut rng = Prng::seed_from_u64(0x5eed_7ace);
    let (mut schema_errors, mut decode_errors, mut replayed) = (0, 0, 0);
    for i in 0..300 {
        let mutant = mutate(&trace, &mut rng);
        let replay = replay_jsonl(&mutant).map(|_| ());
        match validate_jsonl(&mutant) {
            Err(e) => {
                assert_eq!(replay, Err(format!("schema: {e}")), "mutant {i}");
                schema_errors += 1;
            }
            Ok(_) => match replay {
                Ok(()) => replayed += 1,
                Err(e) => {
                    assert!(!e.starts_with("schema:"), "mutant {i}: {e}");
                    // A schema violation after the decode error still
                    // outranks it.
                    let cut = cut_last_line(&mutant);
                    let schema = validate_jsonl(&cut).expect_err("half a line is invalid");
                    assert_eq!(
                        replay_jsonl(&cut).map(|_| ()),
                        Err(format!("schema: {schema}")),
                        "mutant {i}, last line cut"
                    );
                    decode_errors += 1;
                }
            },
        }
    }
    // Every outcome class is exercised, so none of the checks is vacuous.
    assert!(schema_errors > 0, "no schema-invalid mutant");
    assert!(decode_errors > 0, "no schema-valid mutant failed to decode");
    assert!(replayed > 0, "no mutant replayed");
    println!("{schema_errors} schema errors, {decode_errors} decode errors, {replayed} replayed");
}

#[test]
fn hostile_nesting_is_an_error_for_every_reader() {
    let line = "[".repeat(1_000_000);
    assert!(rb_obs::json::parse_json(&line).is_err());
    let e = replay_jsonl(&format!("{line}\n")).map(|_| ()).unwrap_err();
    assert!(e.starts_with("schema: line 1: nesting deeper"), "{e}");
    let e = rb_replay::rollup::parse_run_record(&line).unwrap_err();
    assert!(e.contains("nesting deeper"), "{e}");
}

/// `trace` with `edit` applied to the first line containing `marker`.
fn edit_first(trace: &str, marker: &str, edit: impl Fn(&str) -> String) -> String {
    let at = trace.find(marker).expect("marker present");
    let start = trace[..at].rfind('\n').map_or(0, |i| i + 1);
    let end = at + trace[at..].find('\n').expect("lines end in a newline");
    format!(
        "{}{}{}",
        &trace[..start],
        edit(&trace[start..end]),
        &trace[end..]
    )
}

/// `line` with the scalar value of `key` replaced by `value` (raw JSON).
fn set(line: &str, key: &str, value: &str) -> String {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag).expect("key present") + tag.len();
    let end = start + line[start..].find([',', '}']).expect("value ends");
    format!("{}{value}{}", &line[..start], &line[end..])
}

const NODE_UP: &str = "\"name\":\"node.up\"";

#[test]
fn corrupted_exec_events_are_errors_not_a_different_run() {
    let trace = faulted_trace();
    let mutants = [
        (
            "node id overflowing u64",
            edit_first(&trace, NODE_UP, |l| {
                set(l, "lane", "\"node:18446744073709551616\"")
            }),
            "bad lane `node:18446744073709551616`",
        ),
        (
            "node.up on a trial lane",
            edit_first(&trace, NODE_UP, |l| set(l, "lane", "\"trial:0\"")),
            "node.up: unexpected instant on lane `trial:0`",
        ),
        (
            "node.down without `preempted`",
            edit_first(&trace, "\"name\":\"node.down\"", |l| {
                l.replace("\"preempted\":true", "")
                    .replace("\"preempted\":false", "")
            }),
            "node.down: missing or non-boolean field `preempted`",
        ),
        (
            "segment gpus overflowing u32",
            edit_first(&trace, "\"name\":\"trial.segment\"", |l| {
                set(l, "gpus", "4294967297")
            }),
            "trial.segment: field `gpus` out of range",
        ),
        (
            "node.up renamed",
            edit_first(&trace, NODE_UP, |l| l.replace("node.up", "node.uq")),
            "trace: event ",
        ),
    ];
    for (what, mutant, expected) in mutants {
        assert_ne!(mutant, trace, "{what}: the mutant differs");
        let e = replay_jsonl(&mutant).map(|_| ()).unwrap_err();
        assert!(e.contains(expected), "{what}: {e}");
    }
}

#[test]
fn an_unpaired_span_end_is_a_schema_error_even_with_a_drop_note() {
    let trace = faulted_trace();
    // Drop the last stage's span start and renumber the events after
    // it, so only the pairing is wrong; then append the counter a
    // bounded recorder ring once noted evicted events with.
    let is_start =
        |l: &str| l.contains("\"lane\":\"stage:2\"") && l.contains("\"kind\":\"span_start\"");
    let mut edited = String::new();
    let mut unpaired = None;
    for (seq, line) in trace.lines().filter(|l| !is_start(l)).enumerate() {
        if line.starts_with("{\"metric\"") {
            edited.push_str(line);
        } else {
            edited.push_str(&set(line, "seq", &seq.to_string()));
            if line.contains("\"lane\":\"stage:2\"") && line.contains("\"kind\":\"span_end\"") {
                unpaired = Some(seq + 1);
            }
        }
        edited.push('\n');
    }
    edited.push_str(
        "{\"metric\":\"counter\",\"scope\":\"obs\",\"name\":\"dropped_events\",\"value\":1}\n",
    );
    let line = unpaired.expect("the trace closes the last stage's span");
    assert_eq!(
        replay_jsonl(&edited).map(|_| ()),
        Err(format!("schema: line {line}: unpaired span_end"))
    );
}
