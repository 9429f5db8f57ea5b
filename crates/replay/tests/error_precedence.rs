//! Replay validates and decodes a trace in one pass, yet must report
//! the error a validate-first reader would: any schema violation wins
//! over a decode error, wherever the two sit in the stream. A faulted
//! run's trace is mutated a few hundred ways from a fixed seed (byte
//! flips, truncations, duplicated lines) and every mutant is checked
//! against [`validate_jsonl`]. Hand-made mutants that each change one
//! event the report depends on must fail rather than replay to a
//! different run. Validator and replay share one JSON reader, so what
//! both make of hostile input is also pinned by digest.

mod common;

use common::faulted_trace;
use rb_obs::json::parse_json;
use rb_obs::schema::validate_jsonl;
use rb_replay::replay_jsonl;
use rubberband::prelude::*;

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

/// FNV-1a/64 of `bytes`, continuing from `h`.
fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One seeded edit of `line`, an ASCII trace line, aimed at the JSON
/// reader: an inserted backslash, `\u` sequence, raw control byte or
/// non-ASCII text, a deep `[`/`{` run, an edited number, a truncation,
/// or a structural byte written over another.
fn hostile(line: &str, rng: &mut Prng) -> String {
    let at = rng.next_below(line.len() as u64 + 1) as usize;
    let (head, tail) = line.split_at(at);
    let pick =
        |rng: &mut Prng, from: &[&'static str]| from[rng.next_below(from.len() as u64) as usize];
    match rng.next_below(8) {
        0 | 1 => {
            // An escape, left open at the end of the line half the time.
            let mut esc = String::from('\\');
            if rng.next_below(2) == 0 {
                const NEXT: &[u8] = b"\"\\/bfnrtu\xe9x";
                // One past the end: a lone backslash.
                if let Some(&b) = NEXT.get(rng.next_below(NEXT.len() as u64 + 1) as usize) {
                    esc.push(char::from(b));
                }
            } else {
                const AFTER: &str = "0123456789abcdefABCDEF+- gz\"\\\u{e9}";
                esc.push('u');
                for _ in 0..rng.next_below(6) {
                    let n = rng.next_below(AFTER.chars().count() as u64) as usize;
                    esc.push(AFTER.chars().nth(n).expect("in range"));
                }
            }
            let tail = if rng.next_below(2) == 0 { tail } else { "" };
            format!("{head}{esc}{tail}")
        }
        2 => format!("{head}{}{tail}", char::from(rng.next_below(0x20) as u8)),
        3 => {
            let text = pick(
                rng,
                &[
                    "\u{e9}",
                    "\u{65e5}\u{672c}",
                    "\u{1f980}",
                    "\u{fffd}",
                    "\u{80}",
                ],
            );
            format!("{head}{text}{tail}")
        }
        4 => {
            // Around MAX_DEPTH (128): the whole line wrapped in a run,
            // or a run dropped in anywhere.
            let n = 118 + rng.next_below(16) as usize;
            let (open, close) = if rng.next_below(2) == 0 {
                ("[".repeat(n), "]".repeat(n))
            } else {
                ("{\"k\":".repeat(n), "}".repeat(n))
            };
            if rng.next_below(2) == 0 {
                format!("{open}{line}{close}")
            } else {
                format!("{head}{open}{tail}")
            }
        }
        5 => {
            // A number token, cut where its digits end, replaced by
            // another form.
            let digits: Vec<usize> = (0..line.len())
                .filter(|&i| line.as_bytes()[i].is_ascii_digit())
                .collect();
            if digits.is_empty() {
                return line.to_owned();
            }
            let start = digits[rng.next_below(digits.len() as u64) as usize];
            let end = start
                + line[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(line.len() - start);
            let form = pick(
                rng,
                &[
                    "+1",
                    "00",
                    "-0",
                    "007",
                    "-007",
                    "1e999",
                    "-1e999",
                    "1.5e",
                    "1e",
                    "-",
                    "--1",
                    ".5",
                    "1.",
                    "9007199254740991",
                    "9007199254740993",
                    "-9007199254740993",
                    "18446744073709551616",
                    "1e-400",
                    "0x10",
                    "1_000",
                    "2.5E+3",
                    "-0.0",
                    "1e+",
                    "999999999999999",
                    "9999999999999999",
                    "4294967297",
                    "1.0",
                    "3e2",
                ],
            );
            format!("{}{form}{}", &line[..start], &line[end..])
        }
        6 => head.to_owned(),
        _ => {
            const PICKS: &[u8] = b"\"{}[],:-.0 tfn\\";
            let mut bytes = line.as_bytes().to_vec();
            if let Some(b) = bytes.get_mut(at) {
                *b = PICKS[rng.next_below(PICKS.len() as u64) as usize];
            }
            String::from_utf8(bytes).expect("ASCII stays UTF-8")
        }
    }
}

/// Pins what the JSON reader and replay make of hostile input, so a
/// change to either shows even where both sides of the precedence test
/// above would move together: every error string with its byte offset,
/// every value parsed, every replayed report.
#[test]
fn parser_and_replay_outputs_are_pinned() {
    let trace = faulted_trace();
    let lines: Vec<&str> = trace.lines().collect();
    let mut rng = Prng::seed_from_u64(0x0b5e_55ed);
    let (mut parsed, mut failed) = (0, 0);
    let mut h = FNV_OFFSET;
    for _ in 0..5_000 {
        let line = lines[rng.next_below(lines.len() as u64) as usize];
        let mutant = hostile(line, &mut rng);
        let result = parse_json(&mutant);
        match &result {
            Ok(_) => parsed += 1,
            Err(_) => failed += 1,
        }
        h = fnv1a64(h, format!("{result:?}").as_bytes());
    }
    println!("{parsed} mutants parsed, {failed} failed: parse digest {h:#018x}");
    assert!(parsed > 0 && failed > 0, "both outcomes are exercised");
    assert_eq!(h, PARSE_DIGEST, "parse_json over 5,000 hostile lines");

    // The precedence test's 300 mutants, replayed.
    let mut rng = Prng::seed_from_u64(0x5eed_7ace);
    let mut h = FNV_OFFSET;
    for _ in 0..300 {
        let outcome = match replay_jsonl(&mutate(&trace, &mut rng)) {
            Ok(run) => format!("{run:?}"),
            Err(e) => e,
        };
        h = fnv1a64(h, outcome.as_bytes());
    }
    println!("replay digest {h:#018x}");
    assert_eq!(h, REPLAY_DIGEST, "replay_jsonl over 300 trace mutants");
}

/// The digests of both loops above. A changed error string or byte
/// offset, parsed value or replayed report moves one of them.
const PARSE_DIGEST: u64 = 0x71f5_0b21_08f7_cf78;
const REPLAY_DIGEST: u64 = 0x5fa1_e4f6_68bf_47b7;

#[test]
fn hostile_nesting_is_an_error_for_every_reader() {
    let line = "[".repeat(1_000_000);
    assert!(parse_json(&line).is_err());
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
