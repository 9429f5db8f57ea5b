//! Execution reports: what the paper's tables read off a run.

use rb_core::{Cost, NodeId, SimDuration, SimTime, TrialId};
use rb_hpo::Config;
use rb_obs::{CacheStats, RunSummary};
use std::collections::BTreeMap;

/// One observable event during execution, in virtual time. Its trace
/// encoding, [`TraceEvent::to_obs`], lives in [`crate::codec`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A node finished initialization and joined the cluster.
    NodeUp {
        /// The node.
        node: rb_core::NodeId,
        /// When it became usable.
        at: SimTime,
    },
    /// A node left the cluster.
    NodeDown {
        /// The node.
        node: rb_core::NodeId,
        /// When it was released or reclaimed.
        at: SimTime,
        /// True when the spot market reclaimed it (vs a planned release).
        preempted: bool,
    },
    /// A contiguous interval of one trial training on one allocation.
    TrialSegment {
        /// The trial.
        trial: TrialId,
        /// Stage index.
        stage: usize,
        /// Segment start.
        start: SimTime,
        /// Segment end.
        end: SimTime,
        /// GPUs used.
        gpus: u32,
    },
    /// A trial's workers were torn down and recreated elsewhere.
    Migration {
        /// The trial.
        trial: TrialId,
        /// When the migration was initiated.
        at: SimTime,
    },
    /// A stage's synchronization barrier completed.
    Barrier {
        /// Stage index.
        stage: usize,
        /// Barrier completion time.
        at: SimTime,
    },
}

/// The ordered event log of one execution (useful for visualization and
/// for asserting runtime invariants in tests).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionTrace {
    /// Events in emission order (non-decreasing per entity; globally the
    /// stage structure orders them).
    pub events: Vec<TraceEvent>,
}

impl ExecutionTrace {
    /// All training segments, in emission order.
    pub fn segments(&self) -> impl Iterator<Item = (&TrialId, usize, SimTime, SimTime, u32)> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::TrialSegment {
                trial,
                stage,
                start,
                end,
                gpus,
            } => Some((trial, *stage, *start, *end, *gpus)),
            _ => None,
        })
    }

    /// Total trained GPU-seconds across segments.
    pub fn busy_gpu_seconds(&self) -> f64 {
        self.segments()
            .map(|(_, _, s, e, g)| (e - s).as_secs_f64() * f64::from(g))
            .sum()
    }

    /// Checks the trace's ordering contract:
    ///
    /// * per-entity timestamps are non-decreasing in emission order
    ///   (per node, per trial, and across barriers);
    /// * every `NodeDown` matches a node that is currently up, and no
    ///   node comes up twice without going down in between;
    /// * trial segments do not overlap (each starts no earlier than the
    ///   previous segment of the same trial ended);
    /// * barrier stages strictly increase.
    ///
    /// Returns the first violation found, described for humans.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        use std::collections::BTreeSet;
        let mut up: BTreeSet<NodeId> = BTreeSet::new();
        let mut node_last: BTreeMap<NodeId, SimTime> = BTreeMap::new();
        let mut trial_last: BTreeMap<TrialId, SimTime> = BTreeMap::new();
        let mut last_barrier: Option<(usize, SimTime)> = None;
        for (i, e) in self.events.iter().enumerate() {
            match e {
                TraceEvent::NodeUp { node, at } => {
                    if !up.insert(*node) {
                        return Err(format!("event {i}: {node} came up while already up"));
                    }
                    let last = node_last.entry(*node).or_insert(SimTime::ZERO);
                    if *at < *last {
                        return Err(format!(
                            "event {i}: {node} up at {at} before its last event at {last}"
                        ));
                    }
                    *last = *at;
                }
                TraceEvent::NodeDown { node, at, .. } => {
                    if !up.remove(node) {
                        return Err(format!("event {i}: {node} went down without a prior up"));
                    }
                    let last = node_last.entry(*node).or_insert(SimTime::ZERO);
                    if *at < *last {
                        return Err(format!(
                            "event {i}: {node} down at {at} before its last event at {last}"
                        ));
                    }
                    *last = *at;
                }
                TraceEvent::TrialSegment {
                    trial, start, end, ..
                } => {
                    if end < start {
                        return Err(format!("event {i}: {trial} segment ends before it starts"));
                    }
                    let last = trial_last.entry(*trial).or_insert(SimTime::ZERO);
                    if *start < *last {
                        return Err(format!(
                            "event {i}: {trial} segment starts at {start} before its last \
                             event at {last}"
                        ));
                    }
                    *last = *end;
                }
                TraceEvent::Migration { trial, at } => {
                    let last = trial_last.entry(*trial).or_insert(SimTime::ZERO);
                    if *at < *last {
                        return Err(format!(
                            "event {i}: {trial} migration at {at} before its last event at {last}"
                        ));
                    }
                    *last = *at;
                }
                TraceEvent::Barrier { stage, at } => {
                    if let Some((ps, pt)) = last_barrier {
                        if *stage <= ps {
                            return Err(format!(
                                "event {i}: barrier stage {stage} after stage {ps}"
                            ));
                        }
                        if *at < pt {
                            return Err(format!(
                                "event {i}: barrier at {at} before previous barrier at {pt}"
                            ));
                        }
                    }
                    last_barrier = Some((*stage, *at));
                }
            }
        }
        Ok(())
    }
}

/// Timeline record for one executed stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage index.
    pub stage: usize,
    /// When the stage's trials actually began training (after any
    /// scale-up barrier and migrations).
    pub train_start: SimTime,
    /// When the stage's synchronization barrier completed.
    pub sync_end: SimTime,
    /// Trials that ran.
    pub trials: u32,
    /// GPUs each trial received.
    pub gpus_per_trial: u32,
    /// Instances held during the stage.
    pub instances: u32,
    /// Trials whose workers had to be migrated at stage entry.
    pub migrations: u32,
}

/// The outcome of one executed experiment.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Job completion time (the final barrier's finish).
    pub jct: SimDuration,
    /// Compute bill under the configured billing model.
    pub compute_cost: Cost,
    /// Data-ingress bill.
    pub data_cost: Cost,
    /// The winning trial.
    pub best_trial: TrialId,
    /// Its hyperparameter configuration.
    pub best_config: Config,
    /// Its final observed validation accuracy.
    pub best_accuracy: f64,
    /// Per-stage timeline.
    pub stages: Vec<StageRecord>,
    /// Total worker migrations performed.
    pub migrations: u32,
    /// Spot interruptions absorbed during execution (zero on on-demand
    /// capacity).
    pub preemptions: u32,
    /// Instances provisioned over the job's lifetime.
    pub instances_provisioned: usize,
    /// Cluster GPU utilization over the run (busy / held), if anything
    /// was held.
    pub utilization: Option<f64>,
    /// Mean training throughput per trial, in samples per second.
    pub trial_throughput: BTreeMap<TrialId, f64>,
    /// Faults injected by the chaos layer over the run (capacity
    /// denials, stragglers, hardware failures, degraded nodes, and
    /// corrupted checkpoint writes). Zero without a fault plan.
    pub faults_injected: u64,
    /// Provisioning retry rounds issued under the configured
    /// [`RetryPolicy`](crate::cluster::RetryPolicy).
    pub provision_retries: u64,
    /// Checkpoint fetches that fell back to an older generation after
    /// the newest failed verification.
    pub checkpoint_fallbacks: u64,
    /// Stages that ran on a reduced allocation because capacity stayed
    /// short after retries.
    pub degraded_stages: u32,
    /// The ordered event log of the run.
    pub trace: ExecutionTrace,
}

impl ExecutionReport {
    /// Compute plus data cost.
    pub fn total_cost(&self) -> Cost {
        self.compute_cost + self.data_cost
    }

    /// The [`RunSummary`] rollup of this run. The report supplies the
    /// timing, billing, recovery and GPU busy/held figures; the caller
    /// supplies what other layers know: the simulator's plan-cache and
    /// stage-memo counters, the controller's applied and rejected
    /// re-plans, and the number of recorded trace events. A live run and
    /// its replayed trace both roll up through here, so the two agree.
    pub fn summary(
        &self,
        plan_cache: CacheStats,
        stage_memo: CacheStats,
        replans_applied: usize,
        replans_rejected: usize,
        trace_events: usize,
    ) -> RunSummary {
        let gpu_busy_secs = self.trace.busy_gpu_seconds();
        // The report keeps utilization = busy / held; invert it to
        // recover held GPU-seconds (0 when nothing was held or
        // utilization is unknown).
        let gpu_held_secs = match self.utilization {
            Some(u) if u > 0.0 => gpu_busy_secs / u,
            _ => 0.0,
        };
        RunSummary {
            jct: self.jct,
            compute_cost: self.compute_cost,
            data_cost: self.data_cost,
            best_accuracy: self.best_accuracy,
            stages: self.stages.len(),
            migrations: self.migrations as usize,
            preemptions: self.preemptions as usize,
            instances_provisioned: self.instances_provisioned,
            gpu_busy_secs,
            gpu_held_secs,
            plan_cache,
            stage_memo,
            replans_applied,
            replans_rejected,
            faults_injected: self.faults_injected,
            provision_retries: self.provision_retries,
            checkpoint_fallbacks: self.checkpoint_fallbacks,
            degraded_stages: self.degraded_stages,
            trace_events,
        }
    }
}

/// Renders the execution timeline as a text Gantt chart: one row per
/// stage, bar length proportional to wall-clock duration, bar height
/// (the digit) showing the instances held — a quick visual of the
/// front-loaded shape elastic plans produce.
///
/// # Examples
///
/// ```text
/// stage 0 |■■■■■■■■■■■■■■■■| 8 inst × 32 trials × 1 GPU   (00:58)
/// stage 1 |■■■■■■■■■■|       5 inst × 10 trials × 2 GPUs  (02:31)
/// ```
pub fn render_timeline(report: &ExecutionReport, width: usize) -> String {
    use std::fmt::Write as _;
    let total = report.jct.as_secs_f64().max(1e-9);
    let width = width.max(10);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline ({} total, {} instances provisioned, {} migrations)",
        report.jct, report.instances_provisioned, report.migrations
    );
    let mut prev_end = 0.0_f64;
    for s in &report.stages {
        let start = s.train_start.as_millis() as f64 / 1000.0;
        let end = s.sync_end.as_millis() as f64 / 1000.0;
        let lead = (((start - prev_end).max(0.0) / total) * width as f64).round() as usize;
        let bar = ((((end - start) / total) * width as f64).round() as usize).max(1);
        prev_end = end;
        let _ = writeln!(
            out,
            "stage {:<2} {}{} {} inst x {} trials x {} GPU{} ({})",
            s.stage,
            " ".repeat(lead),
            "#".repeat(bar),
            s.instances,
            s.trials,
            s.gpus_per_trial,
            if s.gpus_per_trial == 1 { "" } else { "s" },
            rb_core::SimDuration::from_secs_f64(end - start),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_means() {
        let mut tp = BTreeMap::new();
        tp.insert(TrialId::new(0), 100.0);
        tp.insert(TrialId::new(1), 300.0);
        let r = ExecutionReport {
            jct: SimDuration::from_secs(10),
            compute_cost: Cost::from_dollars(2.0),
            data_cost: Cost::from_dollars(0.5),
            best_trial: TrialId::new(0),
            best_config: Config::new(),
            best_accuracy: 0.9,
            stages: vec![],
            migrations: 0,
            preemptions: 0,
            instances_provisioned: 1,
            utilization: None,
            trial_throughput: tp,
            faults_injected: 0,
            provision_retries: 0,
            checkpoint_fallbacks: 0,
            degraded_stages: 0,
            trace: ExecutionTrace::default(),
        };
        assert_eq!(r.total_cost(), Cost::from_dollars(2.5));
    }

    #[test]
    fn timeline_renders_one_row_per_stage() {
        let r = ExecutionReport {
            jct: SimDuration::from_secs(100),
            compute_cost: Cost::ZERO,
            data_cost: Cost::ZERO,
            best_trial: TrialId::new(0),
            best_config: Config::new(),
            best_accuracy: 0.5,
            stages: vec![
                StageRecord {
                    stage: 0,
                    train_start: SimTime::from_secs(10),
                    sync_end: SimTime::from_secs(50),
                    trials: 8,
                    gpus_per_trial: 1,
                    instances: 2,
                    migrations: 0,
                },
                StageRecord {
                    stage: 1,
                    train_start: SimTime::from_secs(50),
                    sync_end: SimTime::from_secs(100),
                    trials: 4,
                    gpus_per_trial: 2,
                    instances: 2,
                    migrations: 4,
                },
            ],
            migrations: 4,
            preemptions: 0,
            instances_provisioned: 2,
            utilization: None,
            trial_throughput: BTreeMap::new(),
            faults_injected: 0,
            provision_retries: 0,
            checkpoint_fallbacks: 0,
            degraded_stages: 0,
            trace: ExecutionTrace::default(),
        };
        let text = render_timeline(&r, 40);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 stages");
        assert!(lines[1].contains("stage 0"));
        assert!(lines[1].contains("8 trials"));
        assert!(lines[2].contains("2 GPUs"));
        // Stage 1 covers half the job: its bar is about half the width.
        let bar1 = lines[2].matches('#').count();
        assert!((15..=25).contains(&bar1), "bar {bar1}");
    }
}
