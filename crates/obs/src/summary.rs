//! The [`RunSummary`] rollup: one screen of numbers answering "where
//! did the time and money go" for a single execution.
//!
//! Built by `rb_exec::ExecutionReport::summary` from the execution
//! report, the simulator cache statistics, and the controller's re-plan
//! tallies; a live run and its replayed trace both roll up there. Every
//! field is
//! either an exact integer (virtual milliseconds, micro-dollars,
//! counts) or an f64 computed in a deterministic order, so the rendered
//! text is byte-stable across machines for a given seed and can be
//! diffed in CI (see `scripts/verify.sh`).

use rb_core::{Cost, SimDuration};
use std::fmt::Write as _;

/// Hit/miss/eviction counts for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise sum.
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }
}

/// End-of-run rollup built by `rb_exec::ExecutionReport::summary` and
/// printed by the `repro` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Job completion time.
    pub jct: SimDuration,
    /// Instance-hours (or function) compute charges.
    pub compute_cost: Cost,
    /// Data ingress charges.
    pub data_cost: Cost,
    /// Best accuracy reached by the surviving trial.
    pub best_accuracy: f64,
    /// Number of executed stages.
    pub stages: usize,
    /// Checkpoint migrations performed.
    pub migrations: usize,
    /// Spot preemptions absorbed.
    pub preemptions: usize,
    /// Instances provisioned over the whole run.
    pub instances_provisioned: usize,
    /// GPU-seconds spent training.
    pub gpu_busy_secs: f64,
    /// GPU-seconds paid for (busy + idle); 0 if unknown.
    pub gpu_held_secs: f64,
    /// Prediction (plan) cache counters from the simulator.
    pub plan_cache: CacheStats,
    /// Stage-sample memo counters from the simulator.
    pub stage_memo: CacheStats,
    /// Re-plans proposed and applied by the controller.
    pub replans_applied: usize,
    /// Re-plans proposed but rejected (infeasible or not better).
    pub replans_rejected: usize,
    /// Faults injected by the chaos layer (all zero without a fault
    /// plan): capacity denials, stragglers, hardware failures, degraded
    /// nodes, corrupted checkpoint writes.
    pub faults_injected: u64,
    /// Provisioning retry rounds issued by the resilient executor.
    pub provision_retries: u64,
    /// Checkpoint fetches that fell back to an older generation.
    pub checkpoint_fallbacks: u64,
    /// Stages that ran degraded on reduced capacity.
    pub degraded_stages: u32,
    /// Structured events captured by the recorder (0 with the no-op).
    pub trace_events: usize,
}

impl RunSummary {
    /// GPU-seconds paid for but not training.
    pub fn gpu_idle_secs(&self) -> f64 {
        (self.gpu_held_secs - self.gpu_busy_secs).max(0.0)
    }

    /// Busy fraction of held GPU time, if any time was held.
    pub fn utilization(&self) -> Option<f64> {
        if self.gpu_held_secs > 0.0 {
            Some(self.gpu_busy_secs / self.gpu_held_secs)
        } else {
            None
        }
    }

    /// Total cost (compute + data).
    pub fn total_cost(&self) -> Cost {
        self.compute_cost + self.data_cost
    }

    /// Renders the summary as stable, diffable text.
    pub fn render(&self) -> String {
        let mut out = String::from("run summary:\n");
        let _ = writeln!(out, "  jct_ms              = {}", self.jct.as_millis());
        let _ = writeln!(
            out,
            "  compute_cost_usd    = {}",
            fmt_micros(self.compute_cost)
        );
        let _ = writeln!(
            out,
            "  data_cost_usd       = {}",
            fmt_micros(self.data_cost)
        );
        let _ = writeln!(out, "  best_accuracy       = {:.4}", self.best_accuracy);
        let _ = writeln!(out, "  stages              = {}", self.stages);
        let _ = writeln!(out, "  migrations          = {}", self.migrations);
        let _ = writeln!(out, "  preemptions         = {}", self.preemptions);
        let _ = writeln!(
            out,
            "  instances           = {}",
            self.instances_provisioned
        );
        let _ = writeln!(out, "  gpu_busy_secs       = {:.3}", self.gpu_busy_secs);
        let _ = writeln!(out, "  gpu_idle_secs       = {:.3}", self.gpu_idle_secs());
        match self.utilization() {
            Some(u) => {
                let _ = writeln!(out, "  gpu_utilization     = {u:.3}");
            }
            None => {
                let _ = writeln!(out, "  gpu_utilization     = n/a");
            }
        }
        let _ = writeln!(
            out,
            "  plan_cache          = {}",
            fmt_cache(&self.plan_cache)
        );
        let _ = writeln!(
            out,
            "  stage_memo          = {}",
            fmt_cache(&self.stage_memo)
        );
        let _ = writeln!(
            out,
            "  replans             = applied {} rejected {}",
            self.replans_applied, self.replans_rejected
        );
        let _ = writeln!(
            out,
            "  faults              = injected {} retries {} fallbacks {} degraded_stages {}",
            self.faults_injected,
            self.provision_retries,
            self.checkpoint_fallbacks,
            self.degraded_stages
        );
        let _ = writeln!(out, "  trace_events        = {}", self.trace_events);
        out
    }

    /// The summary as one JSON object (single line).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"jct_ms\":{}", self.jct.as_millis());
        let _ = write!(
            out,
            ",\"compute_cost_micros\":{}",
            self.compute_cost.as_micros()
        );
        let _ = write!(out, ",\"data_cost_micros\":{}", self.data_cost.as_micros());
        let _ = write!(out, ",\"best_accuracy\":{}", self.best_accuracy);
        let _ = write!(out, ",\"stages\":{}", self.stages);
        let _ = write!(out, ",\"migrations\":{}", self.migrations);
        let _ = write!(out, ",\"preemptions\":{}", self.preemptions);
        let _ = write!(out, ",\"instances\":{}", self.instances_provisioned);
        let _ = write!(out, ",\"gpu_busy_secs\":{}", self.gpu_busy_secs);
        let _ = write!(out, ",\"gpu_idle_secs\":{}", self.gpu_idle_secs());
        let _ = write!(
            out,
            ",\"plan_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{}}}",
            self.plan_cache.hits, self.plan_cache.misses, self.plan_cache.evictions
        );
        let _ = write!(
            out,
            ",\"stage_memo\":{{\"hits\":{},\"misses\":{},\"evictions\":{}}}",
            self.stage_memo.hits, self.stage_memo.misses, self.stage_memo.evictions
        );
        let _ = write!(
            out,
            ",\"replans_applied\":{},\"replans_rejected\":{}",
            self.replans_applied, self.replans_rejected
        );
        let _ = write!(
            out,
            ",\"faults_injected\":{},\"provision_retries\":{},\"checkpoint_fallbacks\":{},\
             \"degraded_stages\":{}",
            self.faults_injected,
            self.provision_retries,
            self.checkpoint_fallbacks,
            self.degraded_stages
        );
        let _ = write!(out, ",\"trace_events\":{}", self.trace_events);
        out.push('}');
        out
    }
}

/// Exact dollars with six decimals from integer micro-dollars (no
/// float round-trip, so the text cannot drift across platforms).
fn fmt_micros(cost: Cost) -> String {
    let micros = cost.as_micros();
    let sign = if micros < 0 { "-" } else { "" };
    let abs = micros.unsigned_abs();
    format!("{sign}{}.{:06}", abs / 1_000_000, abs % 1_000_000)
}

fn fmt_cache(stats: &CacheStats) -> String {
    format!(
        "hits {} misses {} evictions {} (hit rate {:.3})",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.hit_rate()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunSummary {
        RunSummary {
            jct: SimDuration::from_millis(1_234_567),
            compute_cost: Cost::from_micros(12_345_678),
            data_cost: Cost::ZERO,
            best_accuracy: 0.91234,
            stages: 4,
            migrations: 3,
            preemptions: 1,
            instances_provisioned: 16,
            gpu_busy_secs: 100.0,
            gpu_held_secs: 125.0,
            plan_cache: CacheStats {
                hits: 30,
                misses: 10,
                evictions: 0,
            },
            stage_memo: CacheStats {
                hits: 90,
                misses: 10,
                evictions: 2,
            },
            replans_applied: 1,
            replans_rejected: 0,
            faults_injected: 5,
            provision_retries: 2,
            checkpoint_fallbacks: 1,
            degraded_stages: 1,
            trace_events: 123,
        }
    }

    #[test]
    fn render_is_stable_and_exact() {
        let text = sample().render();
        assert!(text.contains("jct_ms              = 1234567"));
        assert!(text.contains("compute_cost_usd    = 12.345678"));
        assert!(text.contains("data_cost_usd       = 0.000000"));
        assert!(text.contains("gpu_idle_secs       = 25.000"));
        assert!(text.contains("gpu_utilization     = 0.800"));
        assert!(
            text.contains("plan_cache          = hits 30 misses 10 evictions 0 (hit rate 0.750)")
        );
        assert!(text
            .contains("faults              = injected 5 retries 2 fallbacks 1 degraded_stages 1"));
        assert_eq!(text, sample().render());
    }

    #[test]
    fn json_form_parses() {
        let json = sample().to_json();
        let parsed = crate::json::parse_json(&json).expect("summary json parses");
        assert_eq!(parsed.get("jct_ms").unwrap().as_u64(), Some(1_234_567));
        assert_eq!(
            parsed
                .get("plan_cache")
                .unwrap()
                .get("hits")
                .unwrap()
                .as_u64(),
            Some(30)
        );
    }

    #[test]
    fn cache_rates() {
        let empty = CacheStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
        let merged = sample().plan_cache.merged(&sample().stage_memo);
        assert_eq!(merged.hits, 120);
        assert_eq!(merged.evictions, 2);
    }

    #[test]
    fn negative_costs_format_exactly() {
        assert_eq!(fmt_micros(Cost::from_micros(-1_500_000)), "-1.500000");
        assert_eq!(fmt_micros(Cost::from_micros(1)), "0.000001");
    }
}
