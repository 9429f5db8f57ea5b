//! Fleet analytics: aggregate many runs' manifests into one
//! byte-stable report.
//!
//! A *run manifest* is a one-object JSON file describing a single
//! executed run — which sweep produced it, its scenario label, the
//! tenant it billed to (multi-tenant sweeps only), and its headline
//! numbers. The `repro fleet` artifact writes one manifest per run
//! under `repro_out/fleet/<sweep>/`, and the `rollup` binary in this
//! crate walks such a directory and renders cost/JCT/queue-wait
//! distributions with per-scenario and per-tenant breakdowns.
//!
//! Everything here is deterministic: records sort by (sweep, scenario,
//! tenant, cost, jct), distributions use nearest-rank percentiles (no
//! averaging of floats), and money stays in integer micro-dollars until
//! the final exact-decimal rendering.

use rb_obs::json::{parse_json, write_json_str, Json};
use std::fmt::Write as _;

/// One run's manifest: the unit the fleet rollup aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Sweep that produced the run (e.g. `ext-serve`).
    pub sweep: String,
    /// Scenario label within the sweep (e.g. `uniform-1.50 spot-2.0`).
    pub scenario: String,
    /// Billing tenant, for multi-tenant sweeps.
    pub tenant: Option<String>,
    /// Job completion time in virtual milliseconds.
    pub jct_ms: u64,
    /// Total billed cost in micro-dollars.
    pub cost_micros: i64,
    /// Queue wait before dispatch in virtual milliseconds (0 for
    /// sweeps without an admission queue).
    pub queue_wait_ms: u64,
    /// Faults injected by the chaos layer.
    pub faults: u64,
    /// Provisioning retry rounds.
    pub retries: u64,
    /// Checkpoint fetches that fell back a generation.
    pub fallbacks: u64,
    /// Stages run on degraded capacity.
    pub degraded: u64,
    /// Re-plans the controller applied.
    pub replans: u64,
    /// Spot preemptions absorbed.
    pub preemptions: u64,
    /// Whether pool-aware admission dispatched this run early (0 or 1;
    /// summed per group). Manifests written before the field existed
    /// parse as 0.
    pub pool_admits: u64,
    /// Market/zone switch decisions the controller made — advisory
    /// recommendations in open-advice sweeps, executed fleet drains in
    /// execute-mode sweeps. Manifests written before the field existed
    /// parse as 0.
    pub market_switches: u64,
}

impl RunRecord {
    /// Serializes the manifest as its one-line JSON document (the
    /// inverse of [`parse_run_record`]).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"sweep\":");
        write_json_str(&mut out, &self.sweep);
        out.push_str(",\"scenario\":");
        write_json_str(&mut out, &self.scenario);
        out.push_str(",\"tenant\":");
        match &self.tenant {
            Some(t) => write_json_str(&mut out, t),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"jct_ms\":{},\"cost_micros\":{},\"queue_wait_ms\":{},\"faults\":{},\
             \"retries\":{},\"fallbacks\":{},\"degraded\":{},\"replans\":{},\"preemptions\":{},\
             \"pool_admits\":{},\"market_switches\":{}}}",
            self.jct_ms,
            self.cost_micros,
            self.queue_wait_ms,
            self.faults,
            self.retries,
            self.fallbacks,
            self.degraded,
            self.replans,
            self.preemptions,
            self.pool_admits,
            self.market_switches
        );
        out
    }
}

/// Parses one manifest document.
///
/// # Errors
///
/// Describes the first missing or mistyped field.
pub fn parse_run_record(text: &str) -> Result<RunRecord, String> {
    let doc = parse_json(text.trim())?;
    let str_field = |key: &str| -> Result<String, String> {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing or non-string `{key}`"))
    };
    let u64_field = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer `{key}`"))
    };
    Ok(RunRecord {
        sweep: str_field("sweep")?,
        scenario: str_field("scenario")?,
        tenant: match doc.get("tenant") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| "non-string `tenant`".to_owned())?
                    .to_owned(),
            ),
        },
        jct_ms: u64_field("jct_ms")?,
        cost_micros: doc
            .get("cost_micros")
            .and_then(Json::as_i64)
            .ok_or_else(|| "missing or non-integer `cost_micros`".to_owned())?,
        queue_wait_ms: u64_field("queue_wait_ms")?,
        faults: u64_field("faults")?,
        retries: u64_field("retries")?,
        fallbacks: u64_field("fallbacks")?,
        degraded: u64_field("degraded")?,
        replans: u64_field("replans")?,
        preemptions: u64_field("preemptions")?,
        // Absent in manifests written before pool-aware admission
        // existed; treat those as "never admitted from the pool".
        pool_admits: doc.get("pool_admits").and_then(Json::as_u64).unwrap_or(0),
        // Absent in manifests written before market execution existed;
        // treat those as "no switch decisions".
        market_switches: doc
            .get("market_switches")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    })
}

/// Exact dollars with six decimals from integer micro-dollars.
fn fmt_micros(micros: i64) -> String {
    let sign = if micros < 0 { "-" } else { "" };
    let abs = micros.unsigned_abs();
    format!("{sign}{}.{:06}", abs / 1_000_000, abs % 1_000_000)
}

/// Seconds with three decimals from exact milliseconds.
fn fmt_ms_as_secs(ms: u64) -> String {
    format!("{}.{:03}", ms / 1000, ms % 1000)
}

/// Nearest-rank percentile over an ascending-sorted slice (p in 0..=1).
fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    debug_assert!(!sorted.is_empty());
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// min/p50/p90/max of an integer distribution, rendered by `fmt`.
fn dist_line<T: Copy + Ord>(values: &mut [T], fmt: impl Fn(T) -> String) -> String {
    values.sort_unstable();
    format!(
        "min {} p50 {} p90 {} max {}",
        fmt(values[0]),
        fmt(percentile(values, 0.50)),
        fmt(percentile(values, 0.90)),
        fmt(*values.last().expect("non-empty")),
    )
}

struct GroupStats {
    runs: usize,
    cost_total: i64,
    costs: Vec<i64>,
    jcts: Vec<u64>,
    waits: Vec<u64>,
    faults: u64,
    retries: u64,
    fallbacks: u64,
    degraded: u64,
    replans: u64,
    preemptions: u64,
    pool_admits: u64,
    market_switches: u64,
}

impl GroupStats {
    fn collect<'a>(records: impl Iterator<Item = &'a RunRecord>) -> GroupStats {
        let mut g = GroupStats {
            runs: 0,
            cost_total: 0,
            costs: Vec::new(),
            jcts: Vec::new(),
            waits: Vec::new(),
            faults: 0,
            retries: 0,
            fallbacks: 0,
            degraded: 0,
            replans: 0,
            preemptions: 0,
            pool_admits: 0,
            market_switches: 0,
        };
        for r in records {
            g.runs += 1;
            g.cost_total += r.cost_micros;
            g.costs.push(r.cost_micros);
            g.jcts.push(r.jct_ms);
            g.waits.push(r.queue_wait_ms);
            g.faults += r.faults;
            g.retries += r.retries;
            g.fallbacks += r.fallbacks;
            g.degraded += r.degraded;
            g.replans += r.replans;
            g.preemptions += r.preemptions;
            g.pool_admits += r.pool_admits;
            g.market_switches += r.market_switches;
        }
        g
    }

    fn render(&mut self, out: &mut String, indent: &str) {
        let _ = writeln!(
            out,
            "{indent}cost_usd     total {}  {}",
            fmt_micros(self.cost_total),
            dist_line(&mut self.costs, fmt_micros)
        );
        let _ = writeln!(
            out,
            "{indent}jct_s        {}",
            dist_line(&mut self.jcts, fmt_ms_as_secs)
        );
        let _ = writeln!(
            out,
            "{indent}queue_wait_s {}",
            dist_line(&mut self.waits, fmt_ms_as_secs)
        );
        let _ = writeln!(
            out,
            "{indent}recovery     faults {} retries {} fallbacks {} degraded {} \
             replans {} preemptions {} pool_admits {} market_switches {}",
            self.faults,
            self.retries,
            self.fallbacks,
            self.degraded,
            self.replans,
            self.preemptions,
            self.pool_admits,
            self.market_switches
        );
    }
}

/// Renders the fleet report for `records`: overall totals, then one
/// block per sweep with per-scenario rows, then the per-tenant
/// breakdown across all multi-tenant runs. Byte-stable: records are
/// sorted internally, so input order does not matter.
pub fn render_rollup(records: &[RunRecord]) -> String {
    let mut records: Vec<&RunRecord> = records.iter().collect();
    records.sort_by(|a, b| {
        (&a.sweep, &a.scenario, &a.tenant, a.cost_micros, a.jct_ms).cmp(&(
            &b.sweep,
            &b.scenario,
            &b.tenant,
            b.cost_micros,
            b.jct_ms,
        ))
    });

    let sweeps: Vec<&str> = {
        let mut s: Vec<&str> = records.iter().map(|r| r.sweep.as_str()).collect();
        s.dedup();
        s
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet rollup: {} runs across {} sweeps",
        records.len(),
        sweeps.len()
    );
    if records.is_empty() {
        return out;
    }
    GroupStats::collect(records.iter().copied()).render(&mut out, "  ");

    for sweep in sweeps {
        let in_sweep: Vec<&RunRecord> = records
            .iter()
            .copied()
            .filter(|r| r.sweep == sweep)
            .collect();
        let _ = writeln!(out, "\nsweep {sweep}: {} runs", in_sweep.len());
        GroupStats::collect(in_sweep.iter().copied()).render(&mut out, "  ");
        let mut scenarios: Vec<&str> = in_sweep.iter().map(|r| r.scenario.as_str()).collect();
        scenarios.dedup();
        for scenario in scenarios {
            let mut g =
                GroupStats::collect(in_sweep.iter().copied().filter(|r| r.scenario == scenario));
            g.costs.sort_unstable();
            g.jcts.sort_unstable();
            let _ = writeln!(
                out,
                "  scenario {scenario}: runs {} cost_usd total {} p50 {} jct_s p50 {} \
                 faults {} replans {} preemptions {}",
                g.runs,
                fmt_micros(g.cost_total),
                fmt_micros(percentile(&g.costs, 0.50)),
                fmt_ms_as_secs(percentile(&g.jcts, 0.50)),
                g.faults,
                g.replans,
                g.preemptions
            );
        }
    }

    let mut tenants: Vec<&str> = records.iter().filter_map(|r| r.tenant.as_deref()).collect();
    tenants.sort_unstable();
    tenants.dedup();
    if !tenants.is_empty() {
        let _ = writeln!(out, "\nper-tenant ({} tenants)", tenants.len());
        for tenant in tenants {
            let mut g = GroupStats::collect(
                records
                    .iter()
                    .copied()
                    .filter(|r| r.tenant.as_deref() == Some(tenant)),
            );
            g.costs.sort_unstable();
            g.jcts.sort_unstable();
            g.waits.sort_unstable();
            let _ = writeln!(
                out,
                "  tenant {tenant}: runs {} cost_usd total {} p50 {} jct_s p50 {} \
                 queue_wait_s p50 {}",
                g.runs,
                fmt_micros(g.cost_total),
                fmt_micros(percentile(&g.costs, 0.50)),
                fmt_ms_as_secs(percentile(&g.jcts, 0.50)),
                fmt_ms_as_secs(percentile(&g.waits, 0.50)),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sweep: &str, scenario: &str, tenant: Option<&str>, cost: i64, jct: u64) -> RunRecord {
        RunRecord {
            sweep: sweep.into(),
            scenario: scenario.into(),
            tenant: tenant.map(str::to_owned),
            jct_ms: jct,
            cost_micros: cost,
            queue_wait_ms: jct / 10,
            faults: 1,
            retries: 0,
            fallbacks: 0,
            degraded: 0,
            replans: 2,
            preemptions: 3,
            pool_admits: 0,
            market_switches: 0,
        }
    }

    #[test]
    fn manifests_round_trip() {
        for r in [
            rec(
                "ext-serve",
                "t2 gap300 pool",
                Some("tenant-0"),
                1_234_567,
                90_000,
            ),
            rec("ext-chaos", "spot-storm", None, -5, 1),
        ] {
            let parsed = parse_run_record(&r.to_json()).expect("parses");
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn parse_rejects_missing_fields() {
        assert!(parse_run_record("{\"sweep\":\"s\"}").is_err());
        assert!(parse_run_record("nope").is_err());
    }

    #[test]
    fn manifests_without_pool_admits_parse_as_zero() {
        // Fleet manifests written before pool-aware admission existed
        // lack the field; they must keep parsing (as "never admitted").
        let mut r = rec("ext-serve", "t2 gap0 pool-on", Some("tenant-0"), 10, 20);
        r.pool_admits = 3;
        let old = r.to_json().replace(",\"pool_admits\":3", "");
        let parsed = parse_run_record(&old).expect("old manifest parses");
        assert_eq!(parsed.pool_admits, 0);
        assert_eq!(parse_run_record(&r.to_json()).expect("round trip"), r);
    }

    #[test]
    fn manifests_without_market_switches_parse_as_zero() {
        // Fleet manifests written before market execution existed lack
        // the field; they must keep parsing (as "no switch decisions").
        let mut r = rec("ext-chaos", "zones-early switch-on", None, 10, 20);
        r.market_switches = 2;
        let old = r.to_json().replace(",\"market_switches\":2", "");
        let parsed = parse_run_record(&old).expect("old manifest parses");
        assert_eq!(parsed.market_switches, 0);
        assert_eq!(parse_run_record(&r.to_json()).expect("round trip"), r);
    }

    #[test]
    fn rollup_is_input_order_invariant_and_stable() {
        let a = rec("ext-adapt", "calm", None, 100, 10);
        let b = rec("ext-adapt", "drift", None, 300, 30);
        let c = rec("ext-serve", "t2", Some("tenant-1"), 200, 20);
        let d = rec("ext-serve", "t2", Some("tenant-0"), 400, 40);
        let fwd = render_rollup(&[a.clone(), b.clone(), c.clone(), d.clone()]);
        let rev = render_rollup(&[d, c, b, a]);
        assert_eq!(fwd, rev);
        assert!(fwd.starts_with("fleet rollup: 4 runs across 2 sweeps"));
        assert!(fwd.contains("sweep ext-adapt: 2 runs"));
        assert!(fwd.contains("scenario calm: runs 1"));
        assert!(fwd.contains("tenant tenant-0: runs 1"));
        assert!(fwd.contains("cost_usd     total 0.001000"), "{fwd}");
    }

    #[test]
    fn empty_fleet_renders_a_header_only() {
        assert_eq!(render_rollup(&[]), "fleet rollup: 0 runs across 0 sweeps\n");
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted = [1u64, 2, 3, 4];
        assert_eq!(percentile(&sorted, 0.5), 2);
        assert_eq!(percentile(&sorted, 0.9), 4);
        assert_eq!(fmt_micros(-1_500_000), "-1.500000");
        assert_eq!(fmt_ms_as_secs(90_123), "90.123");
    }
}
