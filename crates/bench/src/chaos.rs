//! Extension — fault injection and recovery (`repro ext-chaos`).
//!
//! The paper assumes the cloud hands over capacity on request and that
//! checkpoints read back what was written. This extension measures what
//! the hardened executor buys when neither holds: each cell executes
//! the same plan under a seeded [`FaultPlan`] — insufficient-capacity
//! denials, provisioning stragglers, degraded (slow) nodes, hardware
//! failures, corrupted checkpoint generations — once as an unhardened
//! baseline (no retry, single checkpoint generation) and once hardened
//! (capped-exponential provisioning retry with request timeouts,
//! graceful capacity degradation, checkpoint retention + verified
//! reads). The baseline aborts on the first capacity denial or
//! unrecoverable checkpoint; the hardened run absorbs the same faults
//! and reports how (retries, fallbacks, degraded stages).
//!
//! The calm cell doubles as the cardinal-invariant check: with the
//! injector disabled, the hardened executor must be bit-identical to
//! the unhardened one.

use crate::table::{right, Cell, Table};
use crate::tables::{e2e_cloud, profiled_model, search_space};
use rb_cloud::{FaultPlan, ZonePlan, ZoneWindow};
use rb_core::{Result, SimDuration};
use rb_ctrl::{AdaptiveController, ControllerConfig, MarketConfig, WatchdogConfig};
use rb_exec::{ExecOptions, NoopHook, RetryPolicy};
use rb_hpo::ShaParams;
use rb_obs::RecorderHandle;
use rb_planner::{plan_rubberband, PlannerConfig};
use rb_sim::Simulator;
use rubberband::Run;

/// One named fault scenario for the sweep.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Short label printed in the table (e.g. `capacity`, `storm`).
    pub name: &'static str,
    /// The fault plan injected into both runs of the cell.
    pub faults: FaultPlan,
}

impl ChaosScenario {
    /// The default sweep: calm control cell, then each fault class in
    /// isolation, then everything at once.
    pub fn default_sweep() -> Vec<ChaosScenario> {
        vec![
            ChaosScenario {
                name: "calm",
                faults: FaultPlan::none(),
            },
            ChaosScenario {
                name: "capacity",
                faults: FaultPlan {
                    capacity_failure_prob: 0.6,
                    ..FaultPlan::none()
                },
            },
            ChaosScenario {
                name: "straggler",
                faults: FaultPlan {
                    straggler_prob: 0.5,
                    straggler_factor: 80.0,
                    ..FaultPlan::none()
                },
            },
            ChaosScenario {
                name: "degraded",
                faults: FaultPlan {
                    degraded_prob: 0.5,
                    degraded_factor: 2.0,
                    ..FaultPlan::none()
                },
            },
            ChaosScenario {
                name: "squeeze",
                faults: FaultPlan {
                    capacity_failure_prob: 0.85,
                    straggler_prob: 0.6,
                    straggler_factor: 80.0,
                    ..FaultPlan::none()
                },
            },
            ChaosScenario {
                name: "corrupt",
                faults: FaultPlan {
                    checkpoint_corruption_prob: 0.25,
                    ..FaultPlan::none()
                },
            },
            ChaosScenario {
                name: "storm",
                faults: FaultPlan {
                    capacity_failure_prob: 0.5,
                    straggler_prob: 0.25,
                    straggler_factor: 40.0,
                    degraded_prob: 0.25,
                    degraded_factor: 1.5,
                    hw_failure_rate_per_hour: 0.2,
                    checkpoint_corruption_prob: 0.2,
                    zones: ZonePlan::none(),
                },
            },
        ]
    }
}

/// One sweep cell: the unhardened baseline vs the hardened executor
/// under the same seeded faults.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Scenario label.
    pub name: &'static str,
    /// Baseline executed JCT in seconds (`None` = aborted).
    pub baseline_jct_secs: Option<f64>,
    /// Baseline executed cost in dollars (`None` = aborted).
    pub baseline_cost: Option<f64>,
    /// Baseline completed within the deadline.
    pub baseline_hit: bool,
    /// Hardened executed JCT in seconds (`None` = aborted).
    pub hardened_jct_secs: Option<f64>,
    /// Hardened executed cost in dollars (`None` = aborted).
    pub hardened_cost: Option<f64>,
    /// Hardened run completed within the deadline.
    pub hardened_hit: bool,
    /// Faults the injector actually fired in the hardened run.
    pub faults_injected: u64,
    /// Provisioning retries the hardened executor issued.
    pub retries: u64,
    /// Checkpoint reads that fell back to an older generation.
    pub fallbacks: u64,
    /// Stages the hardened run executed on reduced capacity.
    pub degraded_stages: u32,
    /// Spot/hardware preemptions the hardened run absorbed.
    pub preemptions: u32,
}

/// Runs the chaos sweep: one plan (Table 2 workload, 30 min deadline),
/// every scenario executed unhardened and hardened from the same seed.
///
/// # Errors
///
/// Propagates planner errors and *hardened* executor errors; baseline
/// aborts are expected outcomes and recorded in the row.
pub fn ext_chaos(scenarios: &[ChaosScenario], seed: u64) -> Result<(SimDuration, Vec<ChaosRow>)> {
    let task = rb_train::task::resnet101_cifar10();
    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate()?;
    let model = profiled_model(&task, 1024, 4, 32);
    let physics = model.clone();
    let space = search_space();
    let deadline = SimDuration::from_mins(30);
    let cloud = e2e_cloud();
    let sim = rb_sim::Simulator::new(model, cloud.clone());
    // Plan with 20% slack: a plan that spends the whole deadline has no
    // headroom to absorb retry backoff or a degraded stage, so recovery
    // would be unobservable — every faulted run would miss regardless.
    let out = plan_rubberband(
        &sim,
        &spec,
        SimDuration::from_mins(24),
        &PlannerConfig::default(),
    )?;

    let run = |options| {
        Run {
            spec: &spec,
            plan: &out.plan,
            task: &task,
            physics: &physics,
            cloud: &cloud,
            space: &space,
            options,
        }
        .execute(&mut NoopHook, &RecorderHandle::noop())
    };
    let mut rows = Vec::new();
    for scenario in scenarios {
        let baseline = run(ExecOptions {
            seed,
            faults: scenario.faults.clone(),
            ..ExecOptions::default()
        });
        let hardened = run(ExecOptions {
            seed,
            faults: scenario.faults.clone(),
            retry: Some(RetryPolicy {
                max_retries: 12,
                base_backoff_secs: 5.0,
                max_backoff_secs: 60.0,
                // Healthy hand-overs land in ~30 s here; a minute of
                // silence means a straggler worth abandoning.
                request_timeout_secs: 60.0,
            }),
            checkpoint_retention: 3,
            ..ExecOptions::default()
        });
        let (baseline_jct_secs, baseline_cost, baseline_hit) = match &baseline {
            Ok(r) => (
                Some(r.jct.as_secs_f64()),
                Some(r.total_cost().as_dollars()),
                r.jct <= deadline,
            ),
            Err(_) => (None, None, false),
        };
        // A hardened abort (e.g. zero capacity acquired after every
        // retry) is a recorded outcome, not a sweep failure.
        let (hardened_jct_secs, hardened_cost, hardened_hit) = match &hardened {
            Ok(r) => (
                Some(r.jct.as_secs_f64()),
                Some(r.total_cost().as_dollars()),
                r.jct <= deadline,
            ),
            Err(_) => (None, None, false),
        };
        let counters = hardened.as_ref().ok();
        rows.push(ChaosRow {
            name: scenario.name,
            baseline_jct_secs,
            baseline_cost,
            baseline_hit,
            hardened_jct_secs,
            hardened_cost,
            hardened_hit,
            faults_injected: counters.map_or(0, |r| r.faults_injected),
            retries: counters.map_or(0, |r| r.provision_retries),
            fallbacks: counters.map_or(0, |r| r.checkpoint_fallbacks),
            degraded_stages: counters.map_or(0, |r| r.degraded_stages),
            preemptions: counters.map_or(0, |r| r.preemptions),
        });
    }
    Ok((deadline, rows))
}

/// A run's JCT, or `-` if it aborted.
fn jct_cell(jct: Option<f64>) -> Cell {
    jct.map_or(Cell::Missing("-"), Cell::secs)
}

/// A run's cost, or `-` if it aborted.
fn cost_cell(cost: Option<f64>) -> Cell {
    cost.map_or(Cell::Missing("-"), Cell::Money)
}

/// Whether a run met its deadline, or `ABORT` if it aborted.
fn hit_cell(jct: Option<f64>, hit: bool) -> Cell {
    match jct {
        Some(_) => Cell::flag(hit, "yes", "MISS"),
        None => Cell::Missing("ABORT"),
    }
}

/// The chaos sweep as a table, ending with a machine-checkable summary
/// line (counts only — `scripts/verify.sh` diffs it against a
/// checked-in expectation).
pub fn ext_chaos_table(deadline: SimDuration, rows: &[ChaosRow]) -> Table {
    let baseline_hits = rows.iter().filter(|r| r.baseline_hit).count();
    let baseline_aborts = rows
        .iter()
        .filter(|r| r.baseline_jct_secs.is_none())
        .count();
    let hardened_hits = rows.iter().filter(|r| r.hardened_hit).count();
    let faults: u64 = rows.iter().map(|r| r.faults_injected).sum();
    let retries: u64 = rows.iter().map(|r| r.retries).sum();
    let fallbacks: u64 = rows.iter().map(|r| r.fallbacks).sum();
    let degraded: u32 = rows.iter().map(|r| r.degraded_stages).sum();
    // The calm cell must be bit-identical across the two executors: the
    // disabled injector makes the hardening knobs unobservable.
    let calm_mismatches = rows
        .iter()
        .filter(|r| r.faults_injected == 0 && r.baseline_jct_secs.is_some())
        .filter(|r| {
            r.baseline_jct_secs != r.hardened_jct_secs || r.baseline_cost != r.hardened_cost
        })
        .count();
    let notes = format!(
        "\next-chaos summary: cells={} baseline_hits={baseline_hits} \
         baseline_aborts={baseline_aborts} hardened_hits={hardened_hits} \
         faults={faults} retries={retries} fallbacks={fallbacks} \
         degraded_stages={degraded} calm_mismatches={calm_mismatches}\n",
        rows.len()
    );
    Table::of(
        format!(
            "Extension — fault injection and recovery (rb-chaos)\n\
             (Table 2 workload, RubberBand plan @ {deadline} deadline; baseline has no \
             retry and a single checkpoint generation)"
        ),
        rows,
        &[
            (right("scenario", 10), |r| Cell::text(r.name)),
            (right("base JCT", 10).bar(), |r| {
                jct_cell(r.baseline_jct_secs)
            }),
            (right("cost", 9), |r| cost_cell(r.baseline_cost)),
            (right("hit", 5), |r| {
                hit_cell(r.baseline_jct_secs, r.baseline_hit)
            }),
            (right("hard JCT", 10).bar(), |r| {
                jct_cell(r.hardened_jct_secs)
            }),
            (right("cost", 9), |r| cost_cell(r.hardened_cost)),
            (right("hit", 5), |r| {
                hit_cell(r.hardened_jct_secs, r.hardened_hit)
            }),
            (right("faults", 6), |r| Cell::int(r.faults_injected)),
            (right("retries", 7), |r| Cell::int(r.retries)),
            (right("fallbacks", 9), |r| Cell::int(r.fallbacks)),
            (right("degraded", 8), |r| Cell::int(r.degraded_stages)),
            (right("preempt", 7), |r| Cell::int(r.preemptions)),
        ],
    )
    .with_notes(notes)
}

/// One cell of the correlated-failure sub-sweep: the Table 2 workload
/// executed under a zone outage, either open loop (hardened retry only —
/// every post-outage scale-up pays dead-zone denial backoff before the
/// transient retry rotation finds the healthy zone) or with the
/// controller's *executed* zone switch (the fleet's home zone moves
/// permanently at the next barrier).
#[derive(Debug, Clone)]
pub struct ZoneChaosRow {
    /// Outage-timing label (`early`, `late`).
    pub name: &'static str,
    /// Whether the controller executed switches (vs open loop).
    pub switch: bool,
    /// Executed JCT in seconds.
    pub jct_secs: f64,
    /// Executed cost in dollars.
    pub cost: f64,
    /// Completed within the deadline.
    pub hit: bool,
    /// Faults the injector fired (zone denials + outage kills included).
    pub faults_injected: u64,
    /// Provisioning retry rounds issued.
    pub retries: u64,
    /// Re-plans the controller spliced in (zero open loop).
    pub replans: usize,
    /// Drains the controller executed through a market/zone directive.
    pub executed_switches: usize,
}

/// Runs the correlated-failure sub-sweep: outage timing × switch on/off
/// under a two-zone cloud whose zone 0 goes dark mid-run. Both arms use
/// the same hardened retry policy; only the switch arm is allowed to
/// move the fleet's home zone.
///
/// # Errors
///
/// Propagates planner, executor, and controller errors.
pub fn ext_chaos_zones(seed: u64) -> Result<(SimDuration, Vec<ZoneChaosRow>)> {
    let task = rb_train::task::resnet101_cifar10();
    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate()?;
    let model = profiled_model(&task, 1024, 4, 32);
    let physics = model.clone();
    let space = search_space();
    let deadline = SimDuration::from_mins(26);
    let cloud = e2e_cloud();
    let sim = Simulator::new(model.clone(), cloud.clone());
    let out = plan_rubberband(
        &sim,
        &spec,
        SimDuration::from_mins(24),
        &PlannerConfig::default(),
    )?;

    // Backoff heavy enough that every dead-zone denial round costs real
    // wall clock: the open loop pays it at every post-outage scale-up,
    // the executed switch pays it once and leaves.
    let retry = RetryPolicy {
        max_retries: 6,
        base_backoff_secs: 300.0,
        max_backoff_secs: 600.0,
        request_timeout_secs: 900.0,
    };
    let mut rows = Vec::new();
    // An early outage leaves stage boundaries for the controller to
    // observe and exploit; the late outage falls after the last useful
    // barrier, so the switch arm must stay bit-identical to open loop —
    // the sub-sweep's no-gratuitous-switching control.
    for (name, start_secs) in [("early", 240.0), ("late", 600.0)] {
        let faults = FaultPlan {
            zones: ZonePlan {
                zones: 2,
                outage: Some(ZoneWindow {
                    zone: 0,
                    start_secs,
                    duration_secs: 100_000.0,
                }),
                ..ZonePlan::none()
            },
            ..FaultPlan::none()
        };
        // Both arms of a cell run the same `Run`, so they tune the same
        // trials; only the barrier hook differs.
        let run = Run {
            spec: &spec,
            plan: &out.plan,
            task: &task,
            physics: &physics,
            cloud: &cloud,
            space: &space,
            options: ExecOptions {
                seed,
                faults,
                retry: Some(retry.clone()),
                checkpoint_retention: 3,
                ..ExecOptions::default()
            },
        };
        let open = run.execute(&mut NoopHook, &RecorderHandle::noop())?;
        rows.push(ZoneChaosRow {
            name,
            switch: false,
            jct_secs: open.jct.as_secs_f64(),
            cost: open.total_cost().as_dollars(),
            hit: open.jct <= deadline,
            faults_injected: open.faults_injected,
            retries: open.provision_retries,
            replans: 0,
            executed_switches: 0,
        });

        // Zone recovery in isolation: the advisory market probe is off,
        // so every executed drain is a ZoneDegraded response.
        let config = ControllerConfig {
            watchdog: WatchdogConfig {
                enabled: false,
                ..WatchdogConfig::default()
            },
            market: MarketConfig {
                enabled: false,
                execute: true,
            },
            ..ControllerConfig::default()
        };
        let ctrl_sim = Simulator::new(model.clone(), cloud.clone());
        let mut controller =
            AdaptiveController::new(ctrl_sim, spec.clone(), &out.plan, deadline, config)?;
        let switched = run.execute(&mut controller, &RecorderHandle::noop())?;
        let log = controller.into_log();
        rows.push(ZoneChaosRow {
            name,
            switch: true,
            jct_secs: switched.jct.as_secs_f64(),
            cost: switched.total_cost().as_dollars(),
            hit: switched.jct <= deadline,
            faults_injected: switched.faults_injected,
            retries: switched.provision_retries,
            replans: log.applied(),
            executed_switches: log.executed_switches(),
        });
    }
    Ok((deadline, rows))
}

/// The correlated-failure sub-sweep as a table, after a blank line,
/// ending with a machine-checkable summary line (counts only —
/// `scripts/verify.sh` diffs it against a checked-in expectation).
pub fn ext_chaos_zones_table(deadline: SimDuration, rows: &[ZoneChaosRow]) -> Table {
    let open_hits = rows.iter().filter(|r| !r.switch && r.hit).count();
    let switch_hits = rows.iter().filter(|r| r.switch && r.hit).count();
    let faults: u64 = rows.iter().map(|r| r.faults_injected).sum();
    let retries: u64 = rows.iter().map(|r| r.retries).sum();
    let replans: usize = rows.iter().map(|r| r.replans).sum();
    let executed: usize = rows.iter().map(|r| r.executed_switches).sum();
    // Cells where the executed switch recovered a deadline the open loop
    // lost to dead-zone backoff.
    let recoveries = rows
        .iter()
        .filter(|r| r.switch && r.hit)
        .filter(|r| rows.iter().any(|o| !o.switch && !o.hit && o.name == r.name))
        .count();
    let notes = format!(
        "\next-chaos zones summary: cells={} open_hits={open_hits} \
         switch_hits={switch_hits} faults={faults} retries={retries} \
         replans={replans} executed_switches={executed} recoveries={recoveries}\n",
        rows.len()
    );
    Table::of(
        format!(
            "\nExtension — correlated failure domains (zone outage × executed switch)\n\
             (two-zone cloud @ {deadline} deadline, zone 0 dark from t onward; both arms \
             share the hardened retry policy, only `switch on` may move the fleet's \
             home zone)"
        ),
        rows,
        &[
            (right("outage", 8), |r| Cell::text(r.name)),
            (right("switch", 6), |r| Cell::flag(r.switch, "on", "off")),
            (right("JCT", 10).bar(), |r| Cell::secs(r.jct_secs)),
            (right("cost", 9), |r| Cell::Money(r.cost)),
            (right("hit", 5), |r| Cell::flag(r.hit, "yes", "MISS")),
            (right("faults", 6), |r| Cell::int(r.faults_injected)),
            (right("retries", 7), |r| Cell::int(r.retries)),
            (right("replans", 7), |r| Cell::count(r.replans)),
            (right("executed", 8), |r| Cell::count(r.executed_switches)),
        ],
    )
    .with_notes(notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_cell_is_bit_identical_across_hardening() {
        let (deadline, rows) = ext_chaos(
            &[ChaosScenario {
                name: "calm",
                faults: FaultPlan::none(),
            }],
            1,
        )
        .unwrap();
        let r = &rows[0];
        assert_eq!(r.baseline_jct_secs, r.hardened_jct_secs);
        assert_eq!(r.baseline_cost, r.hardened_cost);
        assert_eq!(r.faults_injected, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.fallbacks, 0);
        assert!(r.baseline_hit && r.hardened_hit);
        assert!(SimDuration::from_secs_f64(r.hardened_jct_secs.unwrap()) <= deadline);
    }

    #[test]
    fn hardened_executor_survives_capacity_failures_the_baseline_cannot() {
        let (_, rows) = ext_chaos(
            &[ChaosScenario {
                name: "capacity",
                faults: FaultPlan {
                    capacity_failure_prob: 0.6,
                    ..FaultPlan::none()
                },
            }],
            1,
        )
        .unwrap();
        let r = &rows[0];
        assert!(
            r.baseline_jct_secs.is_none(),
            "no-retry baseline should abort on the first capacity denial"
        );
        assert!(r.hardened_jct_secs.is_some(), "hardened run completed");
        assert!(r.hardened_hit, "hardened run met the deadline");
        assert!(r.retries > 0, "denials were retried");
        assert!(r.faults_injected > 0);
    }

    #[test]
    fn executed_zone_switch_recovers_deadlines_the_open_loop_loses() {
        let (deadline, rows) = ext_chaos_zones(1).unwrap();
        assert_eq!(rows.len(), 4);
        let cell = |name: &str, switch: bool| {
            rows.iter()
                .find(|r| r.name == name && r.switch == switch)
                .unwrap()
        };
        for r in &rows {
            assert!(r.faults_injected > 0, "{} saw no zone faults", r.name);
            if !r.switch {
                assert_eq!(r.executed_switches, 0);
                assert_eq!(r.replans, 0);
            }
        }
        // The acceptance contrast: the early outage leaves barriers the
        // controller can exploit — the open loop misses the deadline on
        // dead-zone backoff, the executed zone switch recovers it.
        let (early_off, early_on) = (cell("early", false), cell("early", true));
        assert!(
            !early_off.hit,
            "open loop met the deadline through a zone outage (jct {}s)",
            early_off.jct_secs
        );
        assert!(early_on.executed_switches >= 1, "no drain was executed");
        assert!(early_on.replans >= 1);
        assert!(
            early_on.hit,
            "executed switch missed: jct {}s after {} switches",
            early_on.jct_secs, early_on.executed_switches
        );
        assert!(SimDuration::from_secs_f64(early_on.jct_secs) <= deadline);
        // The late outage falls after the last useful barrier: the
        // controller stays silent and the switch arm must be
        // bit-identical to open loop.
        let (late_off, late_on) = (cell("late", false), cell("late", true));
        assert_eq!(late_on.executed_switches, 0);
        assert_eq!(late_on.jct_secs, late_off.jct_secs);
        assert_eq!(late_on.cost, late_off.cost);
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let cell = || {
            ext_chaos(
                &[ChaosScenario {
                    name: "storm",
                    faults: FaultPlan {
                        capacity_failure_prob: 0.5,
                        straggler_prob: 0.25,
                        straggler_factor: 40.0,
                        degraded_prob: 0.25,
                        degraded_factor: 1.5,
                        hw_failure_rate_per_hour: 0.2,
                        checkpoint_corruption_prob: 0.2,
                        zones: ZonePlan::none(),
                    },
                }],
                7,
            )
            .unwrap()
            .1
        };
        let (a, b) = (cell(), cell());
        assert_eq!(a[0].hardened_jct_secs, b[0].hardened_jct_secs);
        assert_eq!(a[0].hardened_cost, b[0].hardened_cost);
        assert_eq!(a[0].faults_injected, b[0].faults_injected);
        assert_eq!(a[0].retries, b[0].retries);
        assert_eq!(a[0].fallbacks, b[0].fallbacks);
        assert_eq!(a[0].degraded_stages, b[0].degraded_stages);
    }
}
