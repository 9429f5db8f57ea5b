//! Regenerates every table and figure of the paper's evaluation (§6).
//!
//! Usage:
//!
//! ```text
//! repro <artifact>...        # trace fig4 fig9 fig10 fig11 fig12 table1 table2 table3 table4
//! repro all                  # everything (several minutes in release mode)
//! repro quick                # reduced sweeps for a fast smoke run
//! repro replay               # replay repro_out/trace.jsonl, assert bit-equality
//! repro fleet                # write per-run manifests for the rollup CLI
//! ```

use rb_bench::csv;
use rb_bench::ext;
use rb_bench::figures::{self};
use rb_bench::tables::{self};
use rb_core::SimDuration;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set when any requested artifact fails; `main` then exits 1 after
/// running the rest, so one failure neither hides nor stops the others.
static FAILED: AtomicBool = AtomicBool::new(false);

/// Logs an artifact failure and marks the run as failed.
macro_rules! fail {
    ($($arg:tt)*) => {{
        rb_obs::log_error!("repro", $($arg)*);
        FAILED.store(true, Ordering::Relaxed);
    }};
}

fn fig4(csv_dir: Option<&Path>) {
    let rows = figures::fig4(&[1, 2, 4, 8, 16]);
    figures::print_fig4(&rows);
    if let Some(dir) = csv_dir {
        csv::export_fig4(dir, &rows).unwrap_or_else(|e| fail!("{e}"));
    }
}

fn fig9(quick: bool, csv_dir: Option<&Path>) {
    let sigmas: Vec<f64> = if quick {
        vec![1.0, 4.0, 10.0]
    } else {
        (1..=10).map(f64::from).collect()
    };
    let rows = figures::fig9(&sigmas, SimDuration::from_mins(20));
    figures::print_fig9(&rows);
    if let Some(dir) = csv_dir {
        csv::export_fig9(dir, &rows).unwrap_or_else(|e| fail!("{e}"));
    }
}

fn fig10(quick: bool, csv_dir: Option<&Path>) {
    let prices: &[f64] = if quick {
        &[0.0, 0.04, 0.16]
    } else {
        &[0.0, 0.01, 0.02, 0.04, 0.08, 0.16]
    };
    for (name, gb) in [("ImageNet", 150.0), ("CIFAR-10", 0.15)] {
        let rows = figures::fig10(gb, prices, SimDuration::from_mins(20));
        figures::print_fig10(name, gb, &rows);
        if let Some(dir) = csv_dir {
            csv::export_fig10(dir, name, &rows).unwrap_or_else(|e| fail!("{e}"));
        }
        println!();
    }
}

fn fig11(quick: bool, csv_dir: Option<&Path>) {
    let ks: &[u32] = if quick {
        &[16, 64, 256]
    } else {
        &[16, 32, 64, 128, 256, 512]
    };
    for (name, key, per_function) in [
        ("pay-per-instance", "per_instance", false),
        ("pay-per-function", "per_function", true),
    ] {
        let rows = figures::fig11(ks, per_function, SimDuration::from_mins(20));
        figures::print_fig11(name, &rows);
        if let Some(dir) = csv_dir {
            csv::export_fig11(dir, key, &rows).unwrap_or_else(|e| fail!("{e}"));
        }
        println!();
    }
}

fn fig12(quick: bool, csv_dir: Option<&Path>) {
    let deadlines: Vec<u64> = if quick {
        vec![90, 120, 160]
    } else {
        (9..=16).map(|d| d * 10).collect()
    };
    for init in [1.0, 10.0, 100.0] {
        let rows = figures::fig12(init, &deadlines);
        figures::print_fig12(init, &rows);
        if let Some(dir) = csv_dir {
            csv::export_fig12(dir, init, &rows).unwrap_or_else(|e| fail!("{e}"));
        }
        println!();
    }
}

fn seeds(quick: bool) -> Vec<u64> {
    if quick {
        vec![1]
    } else {
        vec![1, 2, 3]
    }
}

fn table1(quick: bool) {
    match tables::table1(&seeds(quick)) {
        Ok(rows) => tables::print_table1(&rows),
        Err(e) => fail!("table1 failed: {e}"),
    }
}

fn table2_and_3(quick: bool) {
    let deadlines: &[u64] = &[20, 30, 40];
    match tables::table2(deadlines, &seeds(quick)) {
        Ok(rows) => {
            tables::print_table2(&rows);
            println!();
            match tables::table3(&rows) {
                Some(schedule) => tables::print_table3(&schedule),
                None => rb_obs::log_warn!("repro", "table3: no feasible RubberBand plan"),
            }
        }
        Err(e) => fail!("table2 failed: {e}"),
    }
}

fn table4(quick: bool) {
    match tables::table4(&seeds(quick)) {
        Ok(rows) => tables::print_table4(&rows),
        Err(e) => fail!("table4 failed: {e}"),
    }
}

fn ext_spot(quick: bool) {
    let rates: &[f64] = if quick {
        &[0.2, 2.0]
    } else {
        &[0.1, 0.2, 0.5, 1.0, 2.0, 4.0]
    };
    match ext::ext_spot(rates, 1) {
        Ok((od, rows)) => ext::print_ext_spot(&od, &rows),
        Err(e) => fail!("ext-spot failed: {e}"),
    }
}

fn ext_adapt(quick: bool) {
    use rb_bench::adapt::DriftScenario;
    let (scenarios, rates, thresholds, watchdogs): (Vec<DriftScenario>, &[f64], &[f64], &[bool]) =
        if quick {
            (
                vec![
                    DriftScenario::calm(),
                    DriftScenario::uniform(1.5),
                    DriftScenario::straggler(4, 6.0),
                ],
                &[0.0, 1.0],
                &[1.15],
                &[false, true],
            )
        } else {
            (
                vec![
                    DriftScenario::calm(),
                    DriftScenario::uniform(1.25),
                    DriftScenario::uniform(1.5),
                    DriftScenario::contention(6.0),
                    DriftScenario::straggler(4, 3.0),
                    DriftScenario::straggler(4, 6.0),
                ],
                &[0.0, 0.5, 2.0],
                &[1.1, 1.25],
                &[false, true],
            )
        };
    match rb_bench::adapt::ext_adapt(&scenarios, rates, thresholds, watchdogs, 1) {
        Ok((deadline, rows)) => rb_bench::adapt::print_ext_adapt(deadline, &rows),
        Err(e) => fail!("ext-adapt failed: {e}"),
    }
}

fn ext_chaos(_quick: bool) {
    // The default sweep is already one execution pair per fault class;
    // quick and full runs share it.
    let scenarios = rb_bench::chaos::ChaosScenario::default_sweep();
    match rb_bench::chaos::ext_chaos(&scenarios, 1) {
        Ok((deadline, rows)) => rb_bench::chaos::print_ext_chaos(deadline, &rows),
        Err(e) => fail!("ext-chaos failed: {e}"),
    }
    // Correlated failure domains ride along: zone outage timing × the
    // controller's executed switch.
    match rb_bench::chaos::ext_chaos_zones(1) {
        Ok((deadline, rows)) => rb_bench::chaos::print_ext_chaos_zones(deadline, &rows),
        Err(e) => fail!("ext-chaos zones failed: {e}"),
    }
}

fn ext_serve(quick: bool) {
    let (tenant_counts, gaps): (&[usize], &[u64]) = if quick {
        (&[2], &[0, 300])
    } else {
        (&[1, 2, 3], &[0, 300])
    };
    match rb_bench::serve::ext_serve(tenant_counts, gaps, 1) {
        Ok(cells) => rb_bench::serve::print_ext_serve(&cells),
        Err(e) => fail!("ext-serve failed: {e}"),
    }
    match rb_bench::serve::ext_serve_contended(tenant_counts, &[0], 1) {
        Ok(cells) => rb_bench::serve::print_ext_serve_contended(&cells),
        Err(e) => fail!("ext-serve contended failed: {e}"),
    }
    match rb_bench::serve::ext_serve_hyperband(1) {
        Ok(cells) => rb_bench::serve::print_ext_serve_hyperband(&cells),
        Err(e) => fail!("ext-serve hyperband failed: {e}"),
    }
}

fn ext_budget(quick: bool) {
    let budgets: &[f64] = if quick {
        &[7.0, 20.0]
    } else {
        &[6.5, 7.0, 8.0, 10.0, 15.0, 25.0, 50.0]
    };
    match ext::ext_budget(budgets) {
        Ok(rows) => ext::print_ext_budget(&rows),
        Err(e) => fail!("ext-budget failed: {e}"),
    }
}

fn ext_asha(_quick: bool) {
    match ext::ext_asha(20, 1) {
        Ok(rows) => ext::print_ext_asha(20, &rows),
        Err(e) => fail!("ext-asha failed: {e}"),
    }
}

fn ext_instances(_quick: bool) {
    match ext::ext_instances(30) {
        Ok(rows) => ext::print_ext_instances(30, &rows),
        Err(e) => fail!("ext-instances failed: {e}"),
    }
}

fn ablations() {
    let d = rb_core::SimDuration::from_mins(20);
    match ext::ablation_warm_starts(d) {
        Ok(rows) => ext::print_ablation("warm-start multipliers (SHA(64,4,508), 20 min)", &rows),
        Err(e) => fail!("ablation failed: {e}"),
    }
    println!();
    match ext::ablation_instance_jump(d) {
        Ok(rows) => ext::print_ablation(
            "instance-boundary jump candidate (SHA(512,4,508), 20 min)",
            &rows,
        ),
        Err(e) => fail!("ablation failed: {e}"),
    }
    println!();
    match ext::ablation_mc_samples(d) {
        Ok(rows) => ext::print_ablation(
            "Monte-Carlo samples vs plan quality (scored at 200 samples)",
            &rows,
        ),
        Err(e) => fail!("ablation failed: {e}"),
    }
    println!();
    match ext::ablation_warm_pool(1) {
        Ok(rows) => ext::print_warm_pool(&rows),
        Err(e) => fail!("ablation failed: {e}"),
    }
}

fn replay_artifact() {
    // Replay closure: rebuild the run from repro_out/trace.jsonl ALONE
    // (no planner, no simulator), then check bit-equality against a
    // fresh live run at the trace seed.
    let path = Path::new("repro_out").join("trace.jsonl");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            rb_obs::log_error!("repro", "replay: cannot read {}: {e}", path.display());
            rb_obs::log_error!("repro", "replay: run `repro trace` first");
            std::process::exit(1);
        }
    };
    let replayed = match rb_replay::replay_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            rb_obs::log_error!("repro", "replay: {e}");
            std::process::exit(1);
        }
    };
    let live = match rb_bench::trace::run_trace(1) {
        Ok(art) => art,
        Err(e) => {
            rb_obs::log_error!("repro", "replay: live reference run failed: {e}");
            std::process::exit(1);
        }
    };
    let report_ok = format!("{:?}", replayed.report) == format!("{:?}", live.report);
    let summary_ok = replayed.summary.render() == live.summary.render();
    if !report_ok || !summary_ok {
        rb_obs::log_error!(
            "repro",
            "replay: MISMATCH vs live run (report {}, summary {})",
            if report_ok { "ok" } else { "differs" },
            if summary_ok { "ok" } else { "differs" }
        );
        std::process::exit(1);
    }
    println!(
        "replay: repro_out/trace.jsonl reproduces the live run bit-for-bit \
         ({} stages, {} trace events; report ok, summary ok)\n",
        replayed.report.stages.len(),
        replayed.report.trace.events.len()
    );
    // The summary goes last, mirroring `repro trace`: scripts/verify.sh
    // diffs `run summary:` to end-of-output for both artifacts.
    print!("{}", replayed.summary.render());
}

fn fleet_artifact(seed: u64) {
    match rb_bench::fleet::build_fleet(seed) {
        Ok(records) => {
            let dir = Path::new("repro_out").join("fleet");
            match rb_bench::fleet::write_fleet(&dir, &records) {
                Ok(n) => {
                    let sweeps: std::collections::BTreeSet<&str> =
                        records.iter().map(|r| r.sweep.as_str()).collect();
                    println!(
                        "fleet: wrote {n} run manifests across {} sweeps under repro_out/fleet/",
                        sweeps.len()
                    );
                    println!("fleet: aggregate with `rollup repro_out/fleet`");
                }
                Err(e) => fail!("fleet: writing manifests failed: {e}"),
            }
        }
        Err(e) => fail!("fleet failed: {e}"),
    }
}

fn trace_artifact() {
    match rb_bench::trace::run_trace(1) {
        Ok(art) => {
            let dir = Path::new("repro_out");
            match rb_bench::trace::write_artifacts(dir, &art) {
                Ok(()) => {
                    println!(
                        "trace: wrote repro_out/trace.jsonl ({} events, {} counters, {} histograms; schema ok)",
                        art.jsonl_stats.events, art.jsonl_stats.counters, art.jsonl_stats.histograms
                    );
                    println!(
                        "trace: wrote repro_out/trace.chrome.json (load in Perfetto or chrome://tracing)"
                    );
                }
                Err(e) => fail!("trace: writing artifacts failed: {e}"),
            }
            println!(
                "trace: {} preemptions absorbed, {} replans applied\n",
                art.report.preemptions, art.replans
            );
            // The summary goes last: scripts/verify.sh extracts it from
            // `run summary:` to end-of-output and diffs it against
            // scripts/expected_summary.txt.
            print!("{}", art.summary.render());
        }
        Err(e) => fail!("trace failed: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: repro [quick] [--csv] <trace|replay|fleet|fig4|fig9|fig10|fig11|fig12|table1|table2|table3|table4|ext-spot|ext-budget|ext-asha|ext-instances|ext-adapt|ext-chaos|ext-serve|ablations|all>..."
        );
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "quick");
    let csv_dir: Option<PathBuf> = args
        .iter()
        .any(|a| a == "--csv")
        .then(|| PathBuf::from("repro_out"));
    let mut artifacts: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|&a| a != "quick" && a != "--csv")
        .collect();
    if artifacts.is_empty() || artifacts.contains(&"all") {
        artifacts = vec![
            "fig4",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "table1",
            "table2",
            "table4",
            "ext-spot",
            "ext-budget",
            "ext-asha",
            "ext-instances",
            "ext-adapt",
            "ext-chaos",
            "ext-serve",
            "ablations",
            "trace",
        ];
    }
    for (i, artifact) in artifacts.iter().enumerate() {
        if i > 0 {
            println!("\n{}\n", "=".repeat(72));
        }
        match *artifact {
            "fig4" => fig4(csv_dir.as_deref()),
            "fig9" => fig9(quick, csv_dir.as_deref()),
            "fig10" => fig10(quick, csv_dir.as_deref()),
            "fig11" => fig11(quick, csv_dir.as_deref()),
            "fig12" => fig12(quick, csv_dir.as_deref()),
            "table1" => table1(quick),
            "table2" | "table3" => table2_and_3(quick),
            "table4" => table4(quick),
            "ext-spot" => ext_spot(quick),
            "ext-budget" => ext_budget(quick),
            "ext-asha" => ext_asha(quick),
            "ext-instances" => ext_instances(quick),
            "ext-adapt" => ext_adapt(quick),
            "ext-chaos" => ext_chaos(quick),
            "ext-serve" => ext_serve(quick),
            "ablations" => ablations(),
            "trace" => trace_artifact(),
            "replay" => replay_artifact(),
            "fleet" => fleet_artifact(1),
            other => {
                eprintln!("unknown artifact `{other}`");
                std::process::exit(2);
            }
        }
    }
    if FAILED.load(Ordering::Relaxed) {
        std::process::exit(1);
    }
}
