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

use rb_bench::adapt;
use rb_bench::chaos::{self, ChaosScenario};
use rb_bench::table::Table;
use rb_bench::{ext, figures, serve, tables};
use rb_core::SimDuration;
use std::path::Path;

/// An artifact's outcome: a library error or an I/O error while writing.
type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// The panels of figure `name`, over the paper's sweep or the quick one.
fn figure_tables(quick: bool, name: &str) -> Vec<Table> {
    let twenty = SimDuration::from_mins(20);
    match name {
        "fig4" => vec![figures::fig4_table(&figures::fig4(&[1, 2, 4, 8, 16]))],
        "fig9" => {
            let sigmas: Vec<f64> = if quick {
                vec![1.0, 4.0, 10.0]
            } else {
                (1..=10).map(f64::from).collect()
            };
            vec![figures::fig9_table(&figures::fig9(&sigmas, twenty))]
        }
        "fig10" => {
            let prices: &[f64] = if quick {
                &[0.0, 0.04, 0.16]
            } else {
                &[0.0, 0.01, 0.02, 0.04, 0.08, 0.16]
            };
            [("ImageNet", 150.0), ("CIFAR-10", 0.15)]
                .into_iter()
                .map(|(name, gb)| {
                    figures::fig10_table(name, gb, &figures::fig10(gb, prices, twenty))
                })
                .collect()
        }
        "fig11" => {
            let ks: &[u32] = if quick {
                &[16, 64, 256]
            } else {
                &[16, 32, 64, 128, 256, 512]
            };
            [false, true]
                .into_iter()
                .map(|per_function| {
                    figures::fig11_table(per_function, &figures::fig11(ks, per_function, twenty))
                })
                .collect()
        }
        _ => {
            let deadlines: Vec<u64> = if quick {
                vec![90, 120, 160]
            } else {
                (9..=16).map(|d| d * 10).collect()
            };
            [1.0, 10.0, 100.0]
                .into_iter()
                .map(|init| figures::fig12_table(init, &figures::fig12(init, &deadlines)))
                .collect()
        }
    }
}

fn seeds(quick: bool) -> Vec<u64> {
    if quick {
        vec![1]
    } else {
        vec![1, 2, 3]
    }
}

fn table2_and_3(quick: bool) -> Result<Vec<Table>> {
    let rows = tables::table2(&[20, 30, 40], &seeds(quick))?;
    let mut out = vec![tables::table2_table(&rows)];
    match tables::table3(&rows) {
        Some(schedule) => out.push(tables::table3_table(&schedule)),
        None => eprintln!("[WARN repro] table3: no feasible RubberBand plan"),
    }
    Ok(out)
}

fn ext_spot(quick: bool) -> Result<Vec<Table>> {
    let rates: &[f64] = if quick {
        &[0.2, 2.0]
    } else {
        &[0.1, 0.2, 0.5, 1.0, 2.0, 4.0]
    };
    let (on_demand, rows) = ext::ext_spot(rates, 1)?;
    Ok(vec![ext::ext_spot_table(&on_demand, &rows)])
}

fn ext_adapt(quick: bool) -> Result<Vec<Table>> {
    let sweep = if quick {
        adapt::AdaptSweep::QUICK
    } else {
        adapt::AdaptSweep::FULL
    };
    let (deadline, rows) = sweep.run(1)?;
    Ok(vec![adapt::ext_adapt_table(deadline, &rows)])
}

fn ext_chaos() -> Result<Vec<Table>> {
    // The default sweep is already one execution pair per fault class;
    // quick and full runs share it. Correlated failure domains ride
    // along: zone outage timing × the controller's executed switch.
    let (deadline, rows) = chaos::ext_chaos(&ChaosScenario::default_sweep(), 1)?;
    let (zone_deadline, zone_rows) = chaos::ext_chaos_zones(1)?;
    Ok(vec![
        chaos::ext_chaos_table(deadline, &rows),
        chaos::ext_chaos_zones_table(zone_deadline, &zone_rows),
    ])
}

fn ext_serve(quick: bool) -> Result<Vec<Table>> {
    let sweep = if quick {
        serve::ServeSweep::QUICK
    } else {
        serve::ServeSweep::FULL
    };
    Ok(vec![
        serve::ext_serve_table(&serve::ext_serve(sweep.tenants, sweep.gaps, 1)?),
        serve::ext_serve_contended_table(&serve::ext_serve_contended(
            sweep.tenants,
            sweep.contended_gaps,
            1,
        )?),
        serve::ext_serve_hyperband_table(&serve::ext_serve_hyperband(1)?),
    ])
}

fn ext_budget(quick: bool) -> Result<Vec<Table>> {
    let budgets: &[f64] = if quick {
        &[7.0, 20.0]
    } else {
        &[6.5, 7.0, 8.0, 10.0, 15.0, 25.0, 50.0]
    };
    Ok(vec![ext::ext_budget_table(&ext::ext_budget(budgets)?)])
}

/// Runs one artifact: the tables to print, or the error that failed it.
/// `trace` and `fleet` print their own lines and return no table.
fn run(artifact: &str, quick: bool) -> Result<Vec<Table>> {
    match artifact {
        "fig4" | "fig9" | "fig10" | "fig11" | "fig12" => Ok(figure_tables(quick, artifact)),
        "table1" => Ok(vec![tables::table1_table(&tables::table1(&seeds(quick))?)]),
        "table2" | "table3" => table2_and_3(quick),
        "table4" => Ok(vec![tables::table4_table(&tables::table4(&seeds(quick))?)]),
        "ext-spot" => ext_spot(quick),
        "ext-budget" => ext_budget(quick),
        "ext-asha" => Ok(vec![ext::ext_asha_table(20, &ext::ext_asha(20, 1)?)]),
        "ext-instances" => Ok(vec![ext::ext_instances_table(30, &ext::ext_instances(30)?)]),
        "ext-adapt" => ext_adapt(quick),
        "ext-chaos" => ext_chaos(),
        "ext-serve" => ext_serve(quick),
        "ablations" => Ok(ext::ablations()?),
        "trace" => trace_artifact().map(|()| vec![]),
        "fleet" => fleet_artifact(1).map(|()| vec![]),
        "replay" => replay_artifact().map(|()| vec![]),
        other => {
            eprintln!("unknown artifact `{other}`");
            std::process::exit(2);
        }
    }
}

/// Writes `table` to `repro_out/<name>`, creating the directory.
fn write_csv(name: &str, table: &Table) -> Result<()> {
    let dir = Path::new("repro_out");
    std::fs::create_dir_all(dir)?;
    Ok(std::fs::write(dir.join(name), table.csv())?)
}

fn replay_artifact() -> Result<()> {
    // Replay closure: rebuild the run from repro_out/trace.jsonl ALONE
    // (no planner, no simulator), then check bit-equality against a
    // fresh live run at the trace seed.
    let path = Path::new("repro_out").join("trace.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {}: {e}; run `repro trace` first",
            path.display()
        )
    })?;
    let replayed = rb_replay::replay_jsonl(&text)?;
    let live =
        rb_bench::trace::run_trace(1).map_err(|e| format!("live reference run failed: {e}"))?;
    let report_ok = format!("{:?}", replayed.report) == format!("{:?}", live.report);
    let summary_ok = replayed.summary.render() == live.summary.render();
    if !report_ok || !summary_ok {
        let verdict = |ok| if ok { "ok" } else { "differs" };
        return Err(format!(
            "MISMATCH vs live run (report {}, summary {})",
            verdict(report_ok),
            verdict(summary_ok)
        )
        .into());
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
    Ok(())
}

fn fleet_artifact(seed: u64) -> Result<()> {
    let records = rb_bench::fleet::build_fleet(seed)?;
    let dir = Path::new("repro_out").join("fleet");
    let n = rb_bench::fleet::write_fleet(&dir, &records)?;
    let sweeps: std::collections::BTreeSet<&str> =
        records.iter().map(|r| r.sweep.as_str()).collect();
    println!(
        "fleet: wrote {n} run manifests across {} sweeps under repro_out/fleet/",
        sweeps.len()
    );
    println!("fleet: aggregate with `rollup repro_out/fleet`");
    Ok(())
}

fn trace_artifact() -> Result<()> {
    let art = rb_bench::trace::run_trace(1)?;
    // A failed write still prints the run, then fails the artifact.
    let written = rb_bench::trace::write_artifacts(Path::new("repro_out"), &art);
    if written.is_ok() {
        println!(
            "trace: wrote repro_out/trace.jsonl ({} events, {} counters, {} histograms; schema ok)",
            art.jsonl_stats.events, art.jsonl_stats.counters, art.jsonl_stats.histograms
        );
        println!("trace: wrote repro_out/trace.chrome.json (load in Perfetto or chrome://tracing)");
    }
    println!(
        "trace: {} preemptions absorbed, {} replans applied\n",
        art.report.preemptions, art.replans
    );
    // The summary goes last: scripts/verify.sh extracts it from
    // `run summary:` to end-of-output and diffs it against
    // scripts/expected_summary.txt.
    print!("{}", art.summary.render());
    Ok(written?)
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
    let csv = args.iter().any(|a| a == "--csv");
    let mut artifacts: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|&a| a != "quick" && a != "--csv")
        .collect();
    if artifacts.is_empty() || artifacts.contains(&"all") {
        artifacts =
            "fig4 fig9 fig10 fig11 fig12 table1 table2 table4 ext-spot ext-budget ext-asha \
             ext-instances ext-adapt ext-chaos ext-serve ablations trace"
                .split_whitespace()
                .collect();
    }
    // Set when any artifact fails; the rest still run, and `repro`
    // exits 1 at the end, so one failure neither hides nor stops others.
    let mut failed = false;
    for (i, artifact) in artifacts.iter().enumerate() {
        if i > 0 {
            println!("\n{}\n", "=".repeat(72));
        }
        let tables = run(artifact, quick).unwrap_or_else(|e| {
            eprintln!("[ERROR repro] {artifact}: {e}");
            failed = true;
            vec![]
        });
        for table in &tables {
            print!("{}", table.text());
            if let (true, Some(name)) = (csv, &table.csv) {
                if let Err(e) = write_csv(name, table) {
                    eprintln!("[ERROR repro] csv {name}: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
