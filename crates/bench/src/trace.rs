//! The `repro trace` artifact: one fully observed adaptive run under
//! injected drift and spot churn, exported as virtual-time JSONL and a
//! Chrome `trace_event` file (loadable in Perfetto / `chrome://tracing`),
//! plus the byte-stable [`RunSummary`] that `scripts/verify.sh` diffs
//! against `scripts/expected_summary.txt`.

use crate::adapt::slowed_physics;
use crate::tables::{e2e_cloud, profiled_model, search_space};
use rb_core::{RbError, Result, SimDuration};
use rb_ctrl::{AdaptiveController, ControllerConfig};
use rb_exec::{ExecOptions, ExecutionReport};
use rb_hpo::ShaParams;
use rb_obs::{export, schema, MemoryRecorder, RecorderHandle, RunSummary};
use rb_planner::{plan_rubberband, PlannerConfig};
use rb_sim::Simulator;
use rubberband::Run;
use std::path::Path;
use std::sync::Arc;

/// Everything the trace artifact produces.
#[derive(Debug)]
pub struct TraceArtifact {
    /// The execution report the trace describes.
    pub report: ExecutionReport,
    /// The byte-stable rollup (diffed in CI).
    pub summary: RunSummary,
    /// The JSONL export, already schema-validated.
    pub jsonl: String,
    /// Schema-validation statistics for the JSONL export.
    pub jsonl_stats: schema::JsonlStats,
    /// The Chrome `trace_event` export.
    pub chrome: String,
    /// Re-plans the controller applied during the run.
    pub replans: usize,
}

/// Runs the seeded trace workload: the exec-bench SHA job planned from
/// the nominal profiled model, executed 1.5× slower than planned on
/// spot capacity (1 interruption per instance-hour) with the rb-ctrl
/// controller closing the loop — so the trace exercises planner,
/// simulator, cloud, executor, and controller lanes all at once.
///
/// # Errors
///
/// Propagates planner/controller/executor errors; a trace that fails
/// JSONL schema validation is an [`RbError::Execution`].
pub fn run_trace(seed: u64) -> Result<TraceArtifact> {
    let task = rb_train::task::resnet101_cifar10();
    let spec = ShaParams::new(16, 1, 20).with_eta(2).generate()?;
    let model = profiled_model(&task, 1024, 4, 16);
    let physics = slowed_physics(&task, 1024, 4, 1.5);
    let mut cloud = e2e_cloud().with_spot_interruptions(1.0);
    cloud.pricing = cloud.pricing.with_spot();
    let space = search_space();
    let deadline = SimDuration::from_mins(30);

    let sink = Arc::new(MemoryRecorder::new());
    let recorder = RecorderHandle::new(sink.clone());
    let sim = Simulator::new(model.clone(), cloud.clone()).with_recorder(recorder.clone());
    let out = plan_rubberband(&sim, &spec, deadline, &PlannerConfig::default())?;
    let mut controller = AdaptiveController::new(
        sim.clone(),
        spec.clone(),
        &out.plan,
        deadline,
        ControllerConfig::default(),
    )?;

    let report = Run {
        spec: &spec,
        plan: &out.plan,
        task: &task,
        physics: &physics,
        cloud: &cloud,
        space: &space,
        options: ExecOptions {
            seed,
            ..ExecOptions::default()
        },
    }
    .execute(&mut controller, &recorder)?;
    let adaptation = controller.into_log();

    // The cache tallies go onto the bus too, so the exported trace is
    // self-contained.
    let caches = sim.record_cache_stats();
    let log = sink.finish();
    let summary = report.summary(
        caches.plan,
        caches.stage_memo,
        adaptation.applied(),
        adaptation.events.len() - adaptation.applied(),
        log.events.len(),
    );
    let jsonl = export::export_jsonl(&log);
    let jsonl_stats = schema::validate_jsonl(&jsonl)
        .map_err(|e| RbError::Execution(format!("trace JSONL failed schema validation: {e}")))?;
    let chrome = export::export_chrome(&log);
    Ok(TraceArtifact {
        report,
        summary,
        jsonl,
        jsonl_stats,
        chrome,
        replans: adaptation.applied(),
    })
}

/// Writes `trace.jsonl`, `trace.chrome.json`, and `run_summary.txt`
/// under `dir` (created if missing).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_artifacts(dir: &Path, artifact: &TraceArtifact) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("trace.jsonl"), &artifact.jsonl)?;
    std::fs::write(dir.join("trace.chrome.json"), &artifact.chrome)?;
    std::fs::write(dir.join("run_summary.txt"), artifact.summary.render())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_artifact_is_deterministic_and_consistent() {
        let a = run_trace(1).expect("trace workload runs");
        // The rollup agrees with the report it summarizes.
        assert_eq!(a.summary.jct, a.report.jct);
        assert_eq!(a.summary.total_cost(), a.report.total_cost());
        assert_eq!(a.summary.preemptions, a.report.preemptions as usize);
        // The drift + spot workload actually exercises the controller.
        assert!(a.report.preemptions > 0, "spot churn must preempt");
        assert!(a.jsonl_stats.events > 0 && a.jsonl_stats.counters > 0);
        // Same seed, same bytes — the determinism the CI diff relies on.
        let b = run_trace(1).expect("trace workload runs twice");
        assert_eq!(a.jsonl, b.jsonl);
        assert_eq!(a.chrome, b.chrome);
        assert_eq!(a.summary.render(), b.summary.render());
    }
}
