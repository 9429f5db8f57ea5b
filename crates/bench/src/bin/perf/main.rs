//! `perf`: the end-to-end and per-layer benchmark. The workloads,
//! metrics and regression bounds are defined in the repository's
//! `BENCHMARK.json`; see `README.md` next to this file.
//!
//! ```text
//! perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//!     one workload in this process; the last stdout line is the result
//! perf run [--seed N] [--seconds S] [--traced] [--quick] [--out FILE]
//!     every workload, each in its own child process; writes FILE
//!     (default target/perf/latest.json)
//! perf compare BASE.json NEW.json
//!     one row per workload x end-to-end metric; fails on "worse"
//! ```

mod compare;
mod measure;
mod spec;
mod stats;
mod workloads;

use measure::{Opts, DEFAULT_SEED};
use rb_obs::json::{parse_json, Json};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Prefix of the stdout line that carries a run's detail record.
const DETAIL: &str = "perf-detail ";

fn usage() -> String {
    "usage: perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]\n       \
     perf run [--seed N] [--seconds S] [--traced] [--quick] [--out FILE]\n       \
     perf compare BASE.json NEW.json"
        .to_string()
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
    v.and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{flag} needs a numeric value"))
}

/// One workload, in this process.
fn cmd_workload(args: &[String]) -> Result<bool, String> {
    let spec = spec::load();
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds as f64,
        traced: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => opts.workload = it.next().cloned().unwrap_or_default(),
            "--seed" => opts.seed = parse_num(flag, it.next())?,
            "--seconds" => opts.seconds = parse_num(flag, it.next())?,
            "--trace" => opts.traced = parse_num::<u8>(flag, it.next())? != 0,
            "--quick" => opts.quick = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !spec.workloads.contains(&opts.workload) {
        return Err(format!(
            "--workload must be one of {}",
            spec.workloads.join(", ")
        ));
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let out = measure::measure(&opts, &spec)?;
    for e in &out.errors {
        eprintln!("perf: {}: {e}", opts.workload);
    }
    println!("{DETAIL}{}", out.detail_json());
    println!("{}", out.result_json());
    Ok(out.correct())
}

/// Every workload, each in a child process of this binary.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let spec = spec::load();
    let (mut seed, mut seconds) = (DEFAULT_SEED, spec.run_seconds as f64);
    let (mut traced, mut quick) = (false, false);
    let mut out_path = PathBuf::from("target/perf/latest.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => seed = parse_num(flag, it.next())?,
            "--seconds" => seconds = parse_num(flag, it.next())?,
            "--traced" => traced = true,
            "--quick" => quick = true,
            "--out" => out_path = it.next().ok_or("--out needs a file")?.into(),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut all_ok = true;
    let mut runs = Vec::new();
    for w in &spec.workloads {
        for trace in [false, true].into_iter().filter(|&t| !t || traced) {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if quick {
                cmd.arg("--quick");
            }
            let output = cmd
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let Some(detail) = stdout.lines().find_map(|l| l.strip_prefix(DETAIL)) else {
                all_ok = false;
                eprintln!(
                    "perf: {w}: child exited with {} and no result",
                    output.status
                );
                continue;
            };
            let doc = parse_json(detail).map_err(|e| format!("{w}: bad detail record: {e}"))?;
            all_ok &= output.status.success();
            print_run(&doc);
            runs.push(detail.to_string());
        }
    }
    let results = format!(
        "{{\"nproc\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"traced\": {traced}, \
         \"quick\": {quick}, \"runs\": [\n{}\n]}}\n",
        measure::nproc(),
        runs.join(",\n")
    );
    if let Some(dir) = out_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, results).map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("wrote {}", out_path.display());
    Ok(all_ok)
}

/// Prints one child's metrics as `value unit [round min, round max] n=rounds`.
fn print_run(doc: &Json) {
    let s = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    let n = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "{} ({}, seed {}, nproc {}): correct={} attempted={} failed={} ops/round={}",
        s("workload"),
        if doc.get("traced").and_then(Json::as_bool) == Some(true) {
            "traced"
        } else {
            "e2e"
        },
        n("seed"),
        n("nproc"),
        doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        n("attempted"),
        n("failed"),
        doc.get("ops_per_round")
            .and_then(Json::as_arr)
            .map(|a| a
                .iter()
                .filter_map(Json::as_f64)
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("/"))
            .unwrap_or_default(),
    );
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return;
    };
    for (name, m) in metrics {
        let f = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "  {name:<26} {:>14.4} {:<6} [{:.4}, {:.4}] n={}",
            f("value"),
            m.get("unit").and_then(Json::as_str).unwrap_or(""),
            f("min"),
            f("max"),
            f("n"),
        );
    }
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [base, new] = args else {
        return Err("compare needs BASE.json and NEW.json".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, ok) = compare::compare(&read(base)?, &read(new)?, &spec::load())?;
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some(_) => cmd_workload(&args),
        None => Err("no arguments".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
