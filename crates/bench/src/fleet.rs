//! Fleet artifact (`repro fleet`) — one run manifest per executed run.
//!
//! Re-runs the quick-shape ext-adapt, ext-chaos, and ext-serve sweeps
//! and flattens every executed run into an [`rb_replay::rollup::RunRecord`]
//! manifest under `repro_out/fleet/<sweep>/run_NNN.json`. The `rollup`
//! binary (crate `rb-replay`) then walks that tree and renders the
//! fleet-analytics report `scripts/verify.sh` diffs against
//! `scripts/expected_rollup.txt`.
//!
//! The converters are exact where the sources are exact (serve meters
//! are integer micro-dollars and milliseconds) and round once where the
//! sweep rows already hold floats (adapt/chaos report dollars and
//! seconds as `f64`); either way the manifests are deterministic for a
//! given seed, so the rollup is byte-stable.

use crate::adapt::{AdaptRow, AdaptSweep};
use crate::chaos::{ChaosRow, ChaosScenario, ZoneChaosRow};
use crate::serve::{ServeJobRow, ServeSweep};
use rb_core::Result;
use rb_replay::rollup::RunRecord;
use std::io::Write as _;
use std::path::Path;

/// Dollars (sweep-row floats) to integer micro-dollars, rounded once.
fn dollars_to_micros(dollars: f64) -> i64 {
    (dollars * 1e6).round() as i64
}

/// Seconds (sweep-row floats) to integer milliseconds, rounded once.
fn secs_to_ms(secs: f64) -> u64 {
    (secs * 1e3).round() as u64
}

/// Scenario label for an adapt cell: the drift kind, then the sweep
/// coordinates that distinguish cells within it.
fn adapt_scenario(row: &AdaptRow) -> String {
    let base = if let Some((gang, factor)) = row.straggler {
        format!("straggler-{gang}x{factor:.2}")
    } else if row.comm_slowdown != 1.0 {
        format!("contention-{:.2}", row.comm_slowdown)
    } else if row.slowdown != 1.0 {
        format!("uniform-{:.2}", row.slowdown)
    } else {
        "calm".to_owned()
    };
    format!(
        "{base} rate{:.1} thr{:.2} {}",
        row.rate_per_hour,
        row.threshold,
        if row.watchdog { "wd-on" } else { "wd-off" }
    )
}

/// The adaptive run of one ext-adapt cell as a manifest. The adapt
/// sweep has no chaos layer or admission queue, so those meters are 0.
pub fn adapt_record(row: &AdaptRow) -> RunRecord {
    RunRecord {
        sweep: "ext-adapt".to_owned(),
        scenario: adapt_scenario(row),
        tenant: None,
        jct_ms: secs_to_ms(row.adaptive_jct_secs),
        cost_micros: dollars_to_micros(row.adaptive_cost),
        queue_wait_ms: 0,
        faults: 0,
        retries: 0,
        fallbacks: 0,
        degraded: 0,
        replans: row.replans as u64,
        preemptions: u64::from(row.preemptions),
        pool_admits: 0,
        // Advisory recommendations: the adapt sweep never executes.
        market_switches: row.market_switches as u64,
    }
}

/// The hardened run of one ext-chaos cell as a manifest, or `None` if
/// the hardened run aborted (nothing billable to roll up).
pub fn chaos_record(row: &ChaosRow) -> Option<RunRecord> {
    let (jct, cost) = (row.hardened_jct_secs?, row.hardened_cost?);
    Some(RunRecord {
        sweep: "ext-chaos".to_owned(),
        scenario: row.name.to_owned(),
        tenant: None,
        jct_ms: secs_to_ms(jct),
        cost_micros: dollars_to_micros(cost),
        queue_wait_ms: 0,
        faults: row.faults_injected,
        retries: row.retries,
        fallbacks: row.fallbacks,
        degraded: u64::from(row.degraded_stages),
        replans: 0,
        preemptions: u64::from(row.preemptions),
        pool_admits: 0,
        market_switches: 0,
    })
}

/// One correlated-failure (zones) cell as a manifest. The two arms are
/// separate scenarios, so the rollup contrasts open loop against the
/// executed switch; `market_switches` counts executed fleet drains.
pub fn zones_record(row: &ZoneChaosRow) -> RunRecord {
    RunRecord {
        sweep: "ext-chaos".to_owned(),
        scenario: format!(
            "zones-{} switch-{}",
            row.name,
            if row.switch { "on" } else { "off" }
        ),
        tenant: None,
        jct_ms: secs_to_ms(row.jct_secs),
        cost_micros: dollars_to_micros(row.cost),
        queue_wait_ms: 0,
        faults: row.faults_injected,
        retries: row.retries,
        fallbacks: 0,
        degraded: 0,
        replans: row.replans as u64,
        preemptions: 0,
        pool_admits: 0,
        market_switches: row.executed_switches as u64,
    }
}

/// One completed ext-serve job as a manifest — the only sweep with a
/// billing tenant and a real admission queue, so its meters are exact
/// integers end to end.
pub fn serve_record(row: &ServeJobRow) -> RunRecord {
    // Serial cells keep their original label; contended cells (more
    // than one slot) carry the slot count so the rollup separates the
    // two sub-sweeps' scenarios.
    let slots = if row.max_concurrent > 1 {
        format!(" mc{}", row.max_concurrent)
    } else {
        String::new()
    };
    RunRecord {
        sweep: "ext-serve".to_owned(),
        scenario: format!(
            "t{} gap{}{slots} pool-{}",
            row.tenants,
            row.gap_secs,
            if row.pool { "on" } else { "off" }
        ),
        tenant: Some(row.tenant.clone()),
        jct_ms: row.jct_ms,
        cost_micros: row.cost_micros,
        queue_wait_ms: row.queue_wait_ms,
        faults: row.faults,
        retries: row.retries,
        fallbacks: row.fallbacks,
        degraded: u64::from(row.degraded),
        replans: 0,
        preemptions: u64::from(row.preemptions),
        pool_admits: u64::from(row.pool_admitted),
        market_switches: 0,
    }
}

/// Runs the three quick-shape sweeps and returns every run's manifest
/// (adapt cells, surviving chaos cells, serve jobs), in sweep order.
///
/// # Errors
///
/// Propagates planner/executor/service errors.
pub fn build_fleet(seed: u64) -> Result<Vec<RunRecord>> {
    let mut records = Vec::new();

    let (_, rows) = AdaptSweep::QUICK.run(seed)?;
    records.extend(rows.iter().map(adapt_record));

    let (_, rows) = crate::chaos::ext_chaos(&ChaosScenario::default_sweep(), seed)?;
    records.extend(rows.iter().filter_map(chaos_record));

    let (_, rows) = crate::chaos::ext_chaos_zones(seed)?;
    records.extend(rows.iter().map(zones_record));

    let serve = ServeSweep::QUICK;
    let (_, jobs) = crate::serve::ext_serve_with_jobs(serve.tenants, serve.gaps, seed)?;
    records.extend(jobs.iter().map(serve_record));

    let (_, jobs) =
        crate::serve::ext_serve_contended_with_jobs(serve.tenants, serve.contended_gaps, seed)?;
    records.extend(jobs.iter().map(serve_record));

    Ok(records)
}

/// Writes one `run_NNN.json` per record under `dir/<sweep>/`, numbering
/// within each sweep in record order. Returns how many were written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_fleet(dir: &Path, records: &[RunRecord]) -> std::io::Result<usize> {
    let mut per_sweep: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for record in records {
        let n = per_sweep.entry(record.sweep.as_str()).or_insert(0);
        let sweep_dir = dir.join(&record.sweep);
        std::fs::create_dir_all(&sweep_dir)?;
        let mut f = std::fs::File::create(sweep_dir.join(format!("run_{n:03}.json")))?;
        writeln!(f, "{}", record.to_json())?;
        *n += 1;
    }
    Ok(records.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_replay::rollup::parse_run_record;

    #[test]
    fn converters_label_scenarios_and_preserve_meters() {
        let adapt = AdaptRow {
            slowdown: 1.0,
            comm_slowdown: 1.0,
            straggler: Some((4, 6.0)),
            rate_per_hour: 1.0,
            threshold: 1.15,
            watchdog: true,
            open_jct_secs: 2000.0,
            open_cost: 10.0,
            open_hit: false,
            adaptive_jct_secs: 1700.5,
            adaptive_cost: 8.25,
            adaptive_hit: true,
            replans: 2,
            watchdog_fires: 1,
            refits: 3,
            market_switches: 0,
            preemptions: 4,
        };
        let r = adapt_record(&adapt);
        assert_eq!(r.scenario, "straggler-4x6.00 rate1.0 thr1.15 wd-on");
        assert_eq!(r.jct_ms, 1_700_500);
        assert_eq!(r.cost_micros, 8_250_000);
        assert_eq!((r.replans, r.preemptions), (2, 4));

        let serve = ServeJobRow {
            tenants: 2,
            gap_secs: 300,
            pool: true,
            max_concurrent: 1,
            tenant: "tenant-1".to_owned(),
            jct_ms: 123,
            cost_micros: 456,
            queue_wait_ms: 7,
            pool_admitted: false,
            preemptions: 0,
            faults: 0,
            retries: 0,
            fallbacks: 0,
            degraded: 0,
        };
        let r = serve_record(&serve);
        assert_eq!(r.scenario, "t2 gap300 pool-on");
        assert_eq!(r.tenant.as_deref(), Some("tenant-1"));
        assert_eq!((r.jct_ms, r.cost_micros, r.queue_wait_ms), (123, 456, 7));
        assert_eq!(r.pool_admits, 0);

        // Contended cells label their slot count and carry the
        // pool-admission flag through to the manifest.
        let contended = ServeJobRow {
            max_concurrent: 2,
            pool_admitted: true,
            ..serve
        };
        let r = serve_record(&contended);
        assert_eq!(r.scenario, "t2 gap300 mc2 pool-on");
        assert_eq!(r.pool_admits, 1);

        // Zones cells label the arm and carry executed drains through.
        let zones = ZoneChaosRow {
            name: "early",
            switch: true,
            jct_secs: 1300.25,
            cost: 12.5,
            hit: true,
            faults_injected: 8,
            retries: 5,
            replans: 2,
            executed_switches: 1,
        };
        let r = zones_record(&zones);
        assert_eq!(r.scenario, "zones-early switch-on");
        assert_eq!(r.jct_ms, 1_300_250);
        assert_eq!((r.faults, r.retries, r.replans), (8, 5, 2));
        assert_eq!(r.market_switches, 1);
    }

    #[test]
    fn chaos_records_skip_aborted_runs() {
        let row = ChaosRow {
            name: "spot-storm",
            baseline_jct_secs: None,
            baseline_cost: None,
            baseline_hit: false,
            hardened_jct_secs: None,
            hardened_cost: None,
            hardened_hit: false,
            faults_injected: 9,
            retries: 1,
            fallbacks: 0,
            degraded_stages: 2,
            preemptions: 3,
        };
        assert!(chaos_record(&row).is_none());
        let survived = ChaosRow {
            hardened_jct_secs: Some(1500.0),
            hardened_cost: Some(6.5),
            ..row
        };
        let r = chaos_record(&survived).expect("billable");
        assert_eq!(r.sweep, "ext-chaos");
        assert_eq!((r.faults, r.degraded, r.preemptions), (9, 2, 3));
    }

    #[test]
    fn written_manifests_parse_back() {
        let dir = std::env::temp_dir().join(format!("rb_fleet_test_{}", std::process::id()));
        let records = vec![
            serve_record(&ServeJobRow {
                tenants: 2,
                gap_secs: 0,
                pool: false,
                max_concurrent: 1,
                tenant: "tenant-0".to_owned(),
                jct_ms: 10,
                cost_micros: 20,
                queue_wait_ms: 0,
                pool_admitted: false,
                preemptions: 0,
                faults: 0,
                retries: 0,
                fallbacks: 0,
                degraded: 0,
            }),
            serve_record(&ServeJobRow {
                tenants: 2,
                gap_secs: 0,
                pool: true,
                max_concurrent: 1,
                tenant: "tenant-1".to_owned(),
                jct_ms: 30,
                cost_micros: 40,
                queue_wait_ms: 5,
                pool_admitted: false,
                preemptions: 0,
                faults: 0,
                retries: 0,
                fallbacks: 0,
                degraded: 0,
            }),
        ];
        let n = write_fleet(&dir, &records).expect("write");
        assert_eq!(n, 2);
        for (i, record) in records.iter().enumerate() {
            let path = dir.join("ext-serve").join(format!("run_{i:03}.json"));
            let text = std::fs::read_to_string(&path).expect("read back");
            assert_eq!(&parse_run_record(&text).expect("parse back"), record);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
