//! Extension — online adaptation (`repro ext-adapt`).
//!
//! The paper plans once, before execution; this extension measures what
//! closing the loop buys. The Table 2 workload is planned under a 30 min
//! deadline from the *profiled* model, then executed under injected
//! model error the planner never saw — a uniform iteration slowdown,
//! communication contention, or a straggling node under one gang size —
//! plus spot interruptions, both open loop and with the rb-ctrl
//! adaptation controller. Each cell of the scenario × interruption-rate
//! × threshold × watchdog sweep reports deadline-hit and cost for both
//! modes plus the applied re-plans, watchdog fires, profile refits and
//! advisory market switches. The straggler cells are the watchdog's
//! reason to exist: drift confined to the late long rungs crosses no
//! barrier in time, so only a mid-stage cut can recover the deadline.

use crate::tables::{e2e_cloud, physics_for, profiled_model, search_space};
use rb_core::{Result, SimDuration};
use rb_ctrl::{ControllerConfig, DriftConfig, ReplanTrigger, WatchdogConfig};
use rb_exec::{ExecOptions, NoopHook};
use rb_hpo::ShaParams;
use rb_obs::RecorderHandle;
use rb_planner::{plan_rubberband, PlannerConfig};
use rb_profile::ModelProfile;
use rb_scaling::{PlacementQuality, RefitScaling, RescaledScaling, ScalingModel};
use rb_train::TaskModel;
use rubberband::Run;
use std::sync::Arc;

/// One injected model-error scenario the planner never sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftScenario {
    /// Uniform slowdown of every iteration (1.0 = calibrated). Visible
    /// from the first stage barrier onward.
    pub slowdown: f64,
    /// Extra slowdown of the *communication* share only (1.0 = none) —
    /// parallelism-dependent contention the component refit can pin on
    /// the communication term instead of diluting into a scalar.
    pub comm_slowdown: f64,
    /// A degraded node pinned under every gang of exactly this size, as
    /// `(gang_gpus, factor)`: iterations on those gangs run `factor`×
    /// slow, every other gang size is untouched. Keyed to the plan's
    /// late-rung gang, this is drift that no barrier before the afflicted
    /// stage can see — and that a re-planned residual escapes, because a
    /// different gang size provisions fresh capacity.
    pub straggler: Option<(u32, f64)>,
}

impl DriftScenario {
    /// A calibrated scenario (no injected error).
    pub fn calm() -> Self {
        DriftScenario {
            slowdown: 1.0,
            comm_slowdown: 1.0,
            straggler: None,
        }
    }

    /// Uniform slowdown only.
    pub fn uniform(slowdown: f64) -> Self {
        DriftScenario {
            slowdown,
            comm_slowdown: 1.0,
            straggler: None,
        }
    }

    /// Communication contention only.
    pub fn contention(comm_slowdown: f64) -> Self {
        DriftScenario {
            slowdown: 1.0,
            comm_slowdown,
            straggler: None,
        }
    }

    /// A degraded node under every `gang_gpus`-GPU gang only.
    pub fn straggler(gang_gpus: u32, factor: f64) -> Self {
        DriftScenario {
            slowdown: 1.0,
            comm_slowdown: 1.0,
            straggler: Some((gang_gpus, factor)),
        }
    }
}

/// Ground-truth wrapper for [`DriftScenario::straggler`]: one gang size
/// is served by a degraded node and runs `factor`× slow end to end.
#[derive(Debug)]
struct StragglerScaling {
    inner: rb_scaling::SharedScaling,
    gang_gpus: u32,
    factor: f64,
}

impl ScalingModel for StragglerScaling {
    fn iter_latency_secs(&self, gpus: u32, placement: PlacementQuality) -> f64 {
        let l = self.inner.iter_latency_secs(gpus, placement);
        if gpus == self.gang_gpus {
            self.factor * l
        } else {
            l
        }
    }

    fn batch_size(&self) -> u32 {
        self.inner.batch_size()
    }

    fn latency_components(&self, gpus: u32, placement: PlacementQuality) -> (f64, f64) {
        let (c, m) = self.inner.latency_components(gpus, placement);
        if gpus == self.gang_gpus {
            (self.factor * c, self.factor * m)
        } else {
            (c, m)
        }
    }
}

/// One sweep cell: open-loop vs adaptive execution of the same plan.
#[derive(Debug, Clone)]
pub struct AdaptRow {
    /// Injected uniform ground-truth slowdown (1.0 = calibrated).
    pub slowdown: f64,
    /// Injected communication-share slowdown (1.0 = none).
    pub comm_slowdown: f64,
    /// Injected straggler as `(gang_gpus, factor)`, or `None`.
    pub straggler: Option<(u32, f64)>,
    /// Spot interruptions per instance-hour (0 = on-demand).
    pub rate_per_hour: f64,
    /// The controller's drift re-plan threshold.
    pub threshold: f64,
    /// Whether the intra-stage watchdog was armed.
    pub watchdog: bool,
    /// Open-loop executed JCT in seconds.
    pub open_jct_secs: f64,
    /// Open-loop executed cost in dollars.
    pub open_cost: f64,
    /// Open loop met the deadline.
    pub open_hit: bool,
    /// Adaptive executed JCT in seconds.
    pub adaptive_jct_secs: f64,
    /// Adaptive executed cost in dollars.
    pub adaptive_cost: f64,
    /// Adaptive met the deadline.
    pub adaptive_hit: bool,
    /// Re-plans the controller actually spliced into the plan.
    pub replans: usize,
    /// Mid-stage watchdog interruptions.
    pub watchdog_fires: usize,
    /// Profile refits the controller applied.
    pub refits: usize,
    /// Re-plans where the Monte-Carlo evaluation preferred the other
    /// market (advisory).
    pub market_switches: usize,
    /// Preemptions absorbed by the adaptive run.
    pub preemptions: u32,
}

/// Ground-truth physics with every iteration `slowdown`× the nominal
/// latency — the injected model error the planner cannot see.
pub fn slowed_physics(task: &TaskModel, batch: u32, node_gpus: u32, slowdown: f64) -> ModelProfile {
    let mut p = physics_for(task, batch, node_gpus);
    if slowdown != 1.0 {
        p.scaling = Arc::new(RescaledScaling::new(p.scaling.clone(), slowdown));
    }
    p
}

/// Ground-truth physics under a full [`DriftScenario`]: the uniform
/// slowdown applied first, then the communication share rescaled, then
/// the straggled gang size degraded on top.
pub fn drifted_physics(
    task: &TaskModel,
    batch: u32,
    node_gpus: u32,
    scenario: DriftScenario,
) -> ModelProfile {
    let mut p = slowed_physics(task, batch, node_gpus, scenario.slowdown);
    if scenario.comm_slowdown != 1.0 {
        p.scaling = Arc::new(RefitScaling::new(
            p.scaling.clone(),
            1.0,
            scenario.comm_slowdown,
        ));
    }
    if let Some((gang_gpus, factor)) = scenario.straggler {
        p.scaling = Arc::new(StragglerScaling {
            inner: p.scaling.clone(),
            gang_gpus,
            factor,
        });
    }
    p
}

/// Runs the adaptation sweep. The plan is compiled once (nominal model,
/// 30 min deadline); every `scenario × rate × threshold × watchdog` cell
/// executes it open loop and with the adaptation controller, from the
/// same seed.
///
/// # Errors
///
/// Propagates planner/executor errors.
pub fn ext_adapt(
    scenarios: &[DriftScenario],
    rates: &[f64],
    thresholds: &[f64],
    watchdogs: &[bool],
    seed: u64,
) -> Result<(SimDuration, Vec<AdaptRow>)> {
    let task = rb_train::task::resnet101_cifar10();
    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate()?;
    let model = profiled_model(&task, 1024, 4, 32);
    let space = search_space();
    let deadline = SimDuration::from_mins(30);
    let sim = rb_sim::Simulator::new(model.clone(), e2e_cloud());
    let out = plan_rubberband(&sim, &spec, deadline, &PlannerConfig::default())?;

    let mut rows = Vec::new();
    for &scenario in scenarios {
        let physics = drifted_physics(&task, 1024, 4, scenario);
        for &rate in rates {
            let mut cloud = e2e_cloud().with_spot_interruptions(rate);
            if rate > 0.0 {
                cloud.pricing = cloud.pricing.with_spot();
            }
            let options = || ExecOptions {
                seed,
                ..ExecOptions::default()
            };
            let open = Run {
                spec: &spec,
                plan: &out.plan,
                task: &task,
                physics: &physics,
                cloud: &cloud,
                space: &space,
                options: options(),
            }
            .execute(&mut NoopHook, &RecorderHandle::noop())?;
            for &threshold in thresholds {
                for &watchdog in watchdogs {
                    let config = ControllerConfig {
                        drift: DriftConfig {
                            replan_threshold: threshold,
                            ..DriftConfig::default()
                        },
                        watchdog: WatchdogConfig {
                            enabled: watchdog,
                            ..WatchdogConfig::default()
                        },
                        ..ControllerConfig::default()
                    };
                    let adaptive = rubberband::execute_adaptive(
                        &spec,
                        &out.plan,
                        &task,
                        &physics,
                        &model,
                        &cloud,
                        &space,
                        deadline,
                        options(),
                        &config,
                    )?;
                    let log = &adaptive.adaptation;
                    rows.push(AdaptRow {
                        slowdown: scenario.slowdown,
                        comm_slowdown: scenario.comm_slowdown,
                        straggler: scenario.straggler,
                        rate_per_hour: rate,
                        threshold,
                        watchdog,
                        open_jct_secs: open.jct.as_secs_f64(),
                        open_cost: open.total_cost().as_dollars(),
                        open_hit: open.jct <= deadline,
                        adaptive_jct_secs: adaptive.report.jct.as_secs_f64(),
                        adaptive_cost: adaptive.report.total_cost().as_dollars(),
                        adaptive_hit: adaptive.deadline_met(),
                        replans: log.applied(),
                        watchdog_fires: log
                            .events
                            .iter()
                            .filter(|e| e.trigger == ReplanTrigger::Watchdog)
                            .count(),
                        refits: log.refits.len(),
                        market_switches: log.events.iter().filter(|e| e.market_switched).count(),
                        preemptions: adaptive.report.preemptions,
                    });
                }
            }
        }
    }
    Ok((deadline, rows))
}

/// Renders the adaptation sweep, ending with a machine-checkable summary
/// line (counts only, so it is stable across platforms —
/// `scripts/verify.sh` diffs it against a checked-in expectation).
pub fn print_ext_adapt(deadline: SimDuration, rows: &[AdaptRow]) {
    println!("Extension — online adaptation (rb-ctrl) under injected drift");
    println!(
        "(Table 2 workload, RubberBand plan @ {deadline} deadline; slowdown is \
         hidden from the planner)\n"
    );
    println!(
        "{:>8} {:>6} {:>7} {:>7} {:>9} {:>3} | {:>10} {:>9} {:>5} | {:>10} {:>9} {:>5} {:>7} {:>3} {:>5} {:>4} {:>6}",
        "slowdown", "comm", "strag", "spot/h", "threshold", "wd", "open JCT", "cost", "hit",
        "adapt JCT", "cost", "hit", "replans", "wdf", "refit", "mkt", "preempt"
    );
    for r in rows {
        println!(
            "{:>8.2} {:>6.2} {:>7} {:>7.1} {:>9.2} {:>3} | {:>10} {:>9} {:>5} | {:>10} {:>9} {:>5} {:>7} {:>3} {:>5} {:>4} {:>6}",
            r.slowdown,
            r.comm_slowdown,
            r.straggler
                .map_or_else(|| "-".to_string(), |(g, f)| format!("{f}x@{g}")),
            r.rate_per_hour,
            r.threshold,
            if r.watchdog { "on" } else { "off" },
            SimDuration::from_secs_f64(r.open_jct_secs).to_string(),
            format!("${:.2}", r.open_cost),
            if r.open_hit { "yes" } else { "MISS" },
            SimDuration::from_secs_f64(r.adaptive_jct_secs).to_string(),
            format!("${:.2}", r.adaptive_cost),
            if r.adaptive_hit { "yes" } else { "MISS" },
            r.replans,
            r.watchdog_fires,
            r.refits,
            r.market_switches,
            r.preemptions
        );
    }
    let open_hits = rows.iter().filter(|r| r.open_hit).count();
    let adaptive_hits = rows.iter().filter(|r| r.adaptive_hit).count();
    let replans: usize = rows.iter().map(|r| r.replans).sum();
    let watchdog_fires: usize = rows.iter().map(|r| r.watchdog_fires).sum();
    let refits: usize = rows.iter().map(|r| r.refits).sum();
    let market_switches: usize = rows.iter().map(|r| r.market_switches).sum();
    // Cells the armed watchdog saved: same scenario/rate/threshold, the
    // watchdog-off run missed the deadline, the watchdog-on run met it —
    // drift that barrier-only adaptation could not recover.
    let wd_recoveries = rows
        .iter()
        .filter(|r| r.watchdog && r.adaptive_hit)
        .filter(|r| {
            rows.iter().any(|o| {
                !o.watchdog
                    && !o.adaptive_hit
                    && o.slowdown == r.slowdown
                    && o.comm_slowdown == r.comm_slowdown
                    && o.straggler == r.straggler
                    && o.rate_per_hour == r.rate_per_hour
                    && o.threshold == r.threshold
            })
        })
        .count();
    // Calm cells (no injected drift, no spot churn) must be bit-identical
    // to open loop — with the watchdog armed or not: the controller (and
    // the armed-but-silent watchdog) observed but never intervened.
    let calm_mismatches = rows
        .iter()
        .filter(|r| {
            r.slowdown == 1.0
                && r.comm_slowdown == 1.0
                && r.straggler.is_none()
                && r.rate_per_hour == 0.0
        })
        .filter(|r| r.replans != 0 || r.adaptive_cost != r.open_cost)
        .count();
    println!(
        "\next-adapt summary: cells={} open_hits={open_hits} adaptive_hits={adaptive_hits} \
         applied_replans={replans} watchdog_fires={watchdog_fires} refits={refits} \
         market_switches={market_switches} wd_recoveries={wd_recoveries} \
         calm_mismatches={calm_mismatches}",
        rows.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_drift_cell_never_replans_and_keeps_cost() {
        // The watchdog is armed in one of the two cells: a calibrated run
        // must stay bit-identical to open loop either way.
        let (deadline, rows) =
            ext_adapt(&[DriftScenario::calm()], &[0.0], &[1.15], &[false, true], 1).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(
                r.replans, 0,
                "calibrated run re-planned (wd={})",
                r.watchdog
            );
            assert_eq!(r.watchdog_fires, 0, "watchdog fired on a calm run");
            assert_eq!(r.adaptive_cost, r.open_cost, "controller changed cost");
            assert_eq!(r.adaptive_jct_secs, r.open_jct_secs);
            assert!(r.open_hit && r.adaptive_hit);
            assert!(SimDuration::from_secs_f64(r.open_jct_secs) <= deadline);
        }
    }

    #[test]
    fn adaptation_recovers_the_deadline_under_injected_slowdown() {
        let (_, rows) =
            ext_adapt(&[DriftScenario::uniform(1.5)], &[0.0], &[1.15], &[true], 1).unwrap();
        let r = &rows[0];
        assert!(
            !r.open_hit,
            "open loop unexpectedly met the deadline (jct {}s)",
            r.open_jct_secs
        );
        assert!(r.replans > 0, "no re-plan under 1.5x slowdown");
        assert!(
            r.adaptive_hit,
            "adaptive missed: jct {}s after {} replans",
            r.adaptive_jct_secs, r.replans
        );
        assert!(r.adaptive_jct_secs < r.open_jct_secs);
    }

    #[test]
    fn watchdog_recovers_a_hidden_straggler_that_barriers_cannot() {
        // A degraded node under the plan's 4-GPU gangs: the 1- and 2-GPU
        // early rungs cross their barriers exactly on schedule, then the
        // long straggled rungs overrun with no clean barrier signal in
        // time. Barrier-only adaptation learns the truth only when the
        // straggled stage finally completes — too late to recover — while
        // the armed watchdog cuts the overrun mid-stage and re-plans the
        // residual onto fresh (un-straggled) gang sizes.
        let (_, rows) = ext_adapt(
            &[DriftScenario::straggler(4, 6.0)],
            &[0.0],
            &[1.15],
            &[false, true],
            1,
        )
        .unwrap();
        let off = rows.iter().find(|r| !r.watchdog).unwrap();
        let on = rows.iter().find(|r| r.watchdog).unwrap();
        assert!(
            !off.open_hit,
            "open loop met the deadline under a straggler"
        );
        assert!(
            !off.adaptive_hit,
            "barrier-only adaptation recovered an overrun it should only \
             have seen after the straggled stage ended (jct {}s)",
            off.adaptive_jct_secs
        );
        assert!(on.watchdog_fires > 0, "watchdog never fired");
        assert!(on.refits > 0, "watchdog evidence produced no refit");
        assert!(
            on.adaptive_hit,
            "watchdog missed: jct {}s after {} fires / {} replans",
            on.adaptive_jct_secs, on.watchdog_fires, on.replans
        );
        assert!(on.adaptive_jct_secs < off.adaptive_jct_secs);
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let run = || {
            ext_adapt(&[DriftScenario::uniform(1.5)], &[1.0], &[1.25], &[true], 7)
                .unwrap()
                .1
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.adaptive_jct_secs, y.adaptive_jct_secs);
            assert_eq!(x.adaptive_cost, y.adaptive_cost);
            assert_eq!(x.replans, y.replans);
            assert_eq!(x.watchdog_fires, y.watchdog_fires);
            assert_eq!(x.refits, y.refits);
            assert_eq!(x.preemptions, y.preemptions);
        }
    }
}
