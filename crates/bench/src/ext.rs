//! Extension experiments and design-choice ablations.
//!
//! These go beyond the paper's evaluation:
//!
//! * [`ext_spot`] — pre-emptible (spot) capacity, which §2.2 identifies
//!   and defers: how interruption rates trade the 70% price discount
//!   against lost work and re-provisioning.
//! * [`ext_budget`] — the dual problem of §2's footnote 1: minimum JCT
//!   under a cost budget.
//! * [`ablation_warm_starts`] — how many warm-start multipliers the
//!   greedy planner needs (§4.3 suggests "1x, 2x, 3x").
//! * [`ablation_instance_jump`] — the instance-boundary jump candidate
//!   that keeps the fair ladder from stalling on fragmentation plateaus.
//! * [`ablation_mc_samples`] — Monte-Carlo sample count versus plan
//!   quality, the planning-speed/accuracy trade-off §5 describes.

use crate::common::{fig_cloud, synthetic_rn50};
use crate::table::{left, right, Cell, Table};
use crate::tables::{e2e_cloud, physics_for, profiled_model, search_space};
use rb_core::{Cost, Prng, Result, SimDuration};
use rb_exec::{run_asha, AshaConfig, ExecOptions, Executor};
use rb_hpo::ShaParams;
use rb_planner::{plan_min_jct, plan_rubberband, PlannerConfig};
use rb_sim::{SimConfig, Simulator};

/// One spot-rate setting's executed outcome.
#[derive(Debug, Clone)]
pub struct SpotRow {
    /// Interruptions per instance-hour (0 = on-demand reliability).
    pub rate_per_hour: f64,
    /// Executed cost in dollars.
    pub cost: f64,
    /// Executed JCT in seconds.
    pub jct_secs: f64,
    /// Interruptions absorbed.
    pub preemptions: u32,
}

/// Spot extension: execute the Table 2 RubberBand plan on spot capacity
/// across interruption rates, plus the on-demand reference.
///
/// # Errors
///
/// Propagates planner/executor errors.
pub fn ext_spot(rates: &[f64], seed: u64) -> Result<(SpotRow, Vec<SpotRow>)> {
    let task = rb_train::task::resnet101_cifar10();
    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate()?;
    let model = profiled_model(&task, 1024, 4, 32);
    let physics = physics_for(&task, 1024, 4);
    let space = search_space();
    let sim = Simulator::new(model, e2e_cloud());
    let out = plan_rubberband(
        &sim,
        &spec,
        SimDuration::from_mins(30),
        &PlannerConfig::default(),
    )?;
    let run = |spot: bool, rate: f64| -> Result<SpotRow> {
        let mut cloud = e2e_cloud().with_spot_interruptions(rate);
        if spot {
            cloud.pricing = cloud.pricing.with_spot();
        }
        let report = Executor::new(
            spec.clone(),
            out.plan.clone(),
            task.clone(),
            physics.clone(),
            cloud,
        )?
        .with_options(ExecOptions {
            seed,
            ..ExecOptions::default()
        })
        .run(&space.sample_n(32, &mut Prng::seed_from_u64(seed)))?;
        Ok(SpotRow {
            rate_per_hour: rate,
            cost: report.total_cost().as_dollars(),
            jct_secs: report.jct.as_secs_f64(),
            preemptions: report.preemptions,
        })
    };
    let on_demand = run(false, 0.0)?;
    let spot_rows = rates
        .iter()
        .map(|&r| run(true, r))
        .collect::<Result<Vec<_>>>()?;
    Ok((on_demand, spot_rows))
}

/// The spot extension as a table, the on-demand reference first.
pub fn ext_spot_table(on_demand: &SpotRow, rows: &[SpotRow]) -> Table {
    let mut labelled = vec![("on-demand".to_string(), on_demand.clone())];
    labelled.extend(
        rows.iter()
            .map(|r| (format!("spot @ {:.1}/h", r.rate_per_hour), r.clone())),
    );
    Table::of(
        "Extension — spot capacity under interruptions\n\
         (Table 2 workload, RubberBand plan, spot = 30% of on-demand price)",
        &labelled,
        &[
            (left("capacity", 22), |(c, _)| Cell::text(c.as_str())),
            (right("JCT", 10), |(_, r)| Cell::secs(r.jct_secs)),
            (right("cost", 12), |(_, r)| Cell::Money(r.cost)),
            (right("preemptions", 12), |(_, r)| Cell::int(r.preemptions)),
        ],
    )
}

/// One budget setting's outcome for the dual problem.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    /// The cost budget in dollars.
    pub budget: f64,
    /// Predicted JCT in seconds of the min-JCT plan.
    pub jct_secs: f64,
    /// Predicted cost of the chosen plan.
    pub cost: f64,
}

/// The dual problem: minimum JCT across a sweep of cost budgets, on the
/// Fig. 9 workload.
///
/// # Errors
///
/// Propagates planner errors (budgets below the cheapest plan skip the
/// row).
pub fn ext_budget(budgets: &[f64]) -> Result<Vec<BudgetRow>> {
    let spec = ShaParams::new(64, 4, 508).generate()?;
    let model = synthetic_rn50(512, 4.0, 1.0);
    let sim = Simulator::new(model, fig_cloud(15.0)).with_config(SimConfig {
        samples: 10,
        seed: 0xF16,
    });
    let mut rows = Vec::new();
    for &b in budgets {
        match plan_min_jct(&sim, &spec, Cost::from_dollars(b)) {
            Ok((_, pred)) => rows.push(BudgetRow {
                budget: b,
                jct_secs: pred.jct.as_secs_f64(),
                cost: pred.cost.as_dollars(),
            }),
            Err(_) => continue,
        }
    }
    Ok(rows)
}

/// The budget extension as a table.
pub fn ext_budget_table(rows: &[BudgetRow]) -> Table {
    Table::of(
        "Extension — minimum JCT subject to a cost budget (§2 footnote 1)\n\
         (SHA(64, 4, 508), ResNet-50 bs=512, μ = 4 s/iter)",
        rows,
        &[
            (right("budget", 10), |r| Cell::Money(r.budget)),
            (right("JCT", 12), |r| Cell::secs(r.jct_secs)),
            (right("cost", 12), |r| Cell::Money(r.cost)),
        ],
    )
}

/// One row of the ASHA-vs-RubberBand comparison.
#[derive(Debug, Clone)]
pub struct AshaVsRbRow {
    /// System label.
    pub system: String,
    /// Executed cost in dollars.
    pub cost: f64,
    /// Best accuracy at the deadline (percent).
    pub accuracy: f64,
    /// Configurations evaluated.
    pub trials: u32,
    /// GPU busy fraction (utilization proxy).
    pub busy_fraction: Option<f64>,
}

/// ASHA baseline comparison (§7): RubberBand's planned elastic run versus
/// ASHA on fixed clusters of 1× and 2× the optimal static size, same
/// task, search space, and deadline.
///
/// # Errors
///
/// Propagates planner/executor errors.
pub fn ext_asha(deadline_mins: u64, seed: u64) -> Result<Vec<AshaVsRbRow>> {
    let task = rb_train::task::resnet101_cifar10();
    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate()?;
    let model = profiled_model(&task, 1024, 4, 32);
    let physics = physics_for(&task, 1024, 4);
    let cloud = e2e_cloud();
    let space = search_space();
    let deadline = SimDuration::from_mins(deadline_mins);
    let sim = Simulator::new(model, cloud.clone());
    let out = plan_rubberband(&sim, &spec, deadline, &PlannerConfig::default())?;

    let mut rows = Vec::new();
    let report = Executor::new(
        spec.clone(),
        out.plan.clone(),
        task.clone(),
        physics.clone(),
        cloud.clone(),
    )?
    .with_options(ExecOptions {
        seed,
        ..ExecOptions::default()
    })
    .run(&space.sample_n(32, &mut Prng::seed_from_u64(seed)))?;
    rows.push(AshaVsRbRow {
        system: "RubberBand (elastic)".into(),
        cost: report.total_cost().as_dollars(),
        accuracy: report.best_accuracy * 100.0,
        trials: 32,
        busy_fraction: report.utilization,
    });

    let static_gpus = out.static_plan.gpus(0);
    for (gpt, mult) in [(1u32, 1u32), (4, 1), (4, 2)] {
        let cluster_gpus = static_gpus * mult;
        let cfg = AshaConfig {
            eta: 3,
            r: 1,
            big_r: 50,
            gpus_per_trial: gpt,
            cluster_gpus,
            deadline,
            initial_trials: 32,
            seed,
        };
        let asha = run_asha(&task, &physics, &cloud, &space, &cfg)?;
        rows.push(AshaVsRbRow {
            system: format!("ASHA ({cluster_gpus} GPUs, {gpt}/trial)"),
            cost: asha.cost.as_dollars(),
            accuracy: asha.best_accuracy * 100.0,
            trials: asha.trials_sampled,
            busy_fraction: Some(asha.busy_fraction),
        });
    }
    Ok(rows)
}

/// The ASHA comparison as a table.
pub fn ext_asha_table(deadline_mins: u64, rows: &[AshaVsRbRow]) -> Table {
    Table::of(
        format!(
            "Extension — ASHA baseline comparison (§7)\n\
             (ResNet-101 / CIFAR-10, {deadline_mins}-minute budget, same search space and seeds)"
        ),
        rows,
        &[
            (left("system", 24), |r| Cell::text(r.system.as_str())),
            (right("cost", 10), |r| Cell::Money(r.cost)),
            (right("accuracy", 10), |r| Cell::Real(r.accuracy, 1, "%")),
            (right("trials", 8), |r| Cell::int(r.trials)),
            (right("busy", 8), |r| {
                r.busy_fraction
                    .map_or(Cell::Missing("—"), |b| Cell::Real(b * 100.0, 0, "%"))
            }),
        ],
    )
}

/// One candidate's row in the instance-selection extension.
#[derive(Debug, Clone)]
pub struct InstanceRow {
    /// SKU name.
    pub name: String,
    /// Predicted plan cost (`None` = infeasible under the deadline).
    pub cost: Option<f64>,
    /// Predicted JCT in seconds.
    pub jct_secs: Option<f64>,
    /// Whether this candidate won.
    pub chosen: bool,
}

/// Instance-type selection (§7's Ernest/CherryPick direction): plan the
/// Table 2 workload on several machine shapes and pick the cheapest
/// feasible one. The g4dn (T4) candidate runs at ~40% of V100 per-GPU
/// throughput, trading a lower price for slower epochs.
///
/// # Errors
///
/// Propagates planner errors other than per-candidate infeasibility.
pub fn ext_instances(deadline_mins: u64) -> Result<Vec<InstanceRow>> {
    use rb_cloud::catalog::{G4DN_12XLARGE, P3_16XLARGE, P3_2XLARGE, P3_8XLARGE};
    use rb_cloud::CloudPricing;
    use rb_planner::{select_instance_type, InstanceCandidate};
    use rb_profile::ModelProfile;
    use rb_scaling::{AnalyticScaling, RescaledScaling, SharedScaling};
    use std::sync::Arc;

    let task = rb_train::task::resnet101_cifar10();
    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate()?;
    let mk = |name: &str, ty: rb_cloud::InstanceType, node_gpus: u32, slowdown: f64| {
        let base: SharedScaling = Arc::new(AnalyticScaling::for_arch(&task.arch, 1024, node_gpus));
        let scaling: SharedScaling = if slowdown != 1.0 {
            Arc::new(RescaledScaling::new(base, slowdown))
        } else {
            base
        };
        InstanceCandidate {
            name: name.into(),
            model: ModelProfile::from_scaling(name, scaling, task.steps_per_iter(1024), 5.0, 0.03),
            cloud: rb_profile::CloudProfile::new(CloudPricing::on_demand(ty))
                .with_provision_delay(SimDuration::from_secs(15))
                .with_init_latency(SimDuration::from_secs(15)),
        }
    };
    let candidates = vec![
        mk("p3.2xlarge", P3_2XLARGE, 1, 1.0),
        mk("p3.8xlarge", P3_8XLARGE, 4, 1.0),
        mk("p3.16xlarge", P3_16XLARGE, 8, 1.0),
        // T4s run the model ~2.5x slower per GPU.
        mk("g4dn.12xlarge", G4DN_12XLARGE, 4, 2.5),
    ];
    let sel = select_instance_type(
        &candidates,
        &spec,
        SimDuration::from_mins(deadline_mins),
        &PlannerConfig::default(),
        &SimConfig {
            samples: 10,
            seed: 0xF16,
        },
    )?;
    Ok(candidates
        .iter()
        .zip(sel.outcomes.iter())
        .enumerate()
        .map(|(i, (c, o))| InstanceRow {
            name: c.name.clone(),
            cost: o.as_ref().map(|g| g.prediction.cost.as_dollars()),
            jct_secs: o.as_ref().map(|g| g.prediction.jct.as_secs_f64()),
            chosen: i == sel.winner,
        })
        .collect())
}

/// The instance-selection extension as a table.
pub fn ext_instances_table(deadline_mins: u64, rows: &[InstanceRow]) -> Table {
    Table::of(
        format!(
            "Extension — instance-type selection (§7, Ernest/CherryPick direction)\n\
             (Table 2 workload under a {deadline_mins}-minute deadline)"
        ),
        rows,
        &[
            (left("instance", 16), |r| Cell::text(r.name.as_str())),
            (right("cost", 12), |r| {
                r.cost.map_or(Cell::Missing("infeasible"), Cell::Money)
            }),
            (right("JCT", 12), |r| {
                r.jct_secs.map_or(Cell::Missing("—"), Cell::secs)
            }),
            (right("chosen", 8), |r| Cell::flag(r.chosen, "✓", "")),
        ],
    )
}

/// One planner-ablation cell.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The variant's label.
    pub variant: String,
    /// Predicted plan cost in dollars.
    pub cost: f64,
    /// Greedy steps taken.
    pub steps: usize,
}

fn fig_sim(samples: u32) -> Simulator {
    Simulator::new(synthetic_rn50(512, 4.0, 1.0), fig_cloud(15.0)).with_config(SimConfig {
        samples,
        seed: 0xF16,
    })
}

/// Ablation: warm-start multiplier sets (§4.3's "1x, 2x, 3x").
///
/// # Errors
///
/// Propagates planner errors.
pub fn ablation_warm_starts(deadline: SimDuration) -> Result<Vec<AblationRow>> {
    let spec = ShaParams::new(64, 4, 508).generate()?;
    let sim = fig_sim(10);
    let mut rows = Vec::new();
    for (label, mults) in [
        ("1x only", vec![1]),
        ("1x-3x (paper)", vec![1, 2, 3]),
        ("1x-6x", vec![1, 2, 3, 4, 6]),
    ] {
        let cfg = PlannerConfig {
            warm_start_multipliers: mults,
            ..PlannerConfig::default()
        };
        let out = plan_rubberband(&sim, &spec, deadline, &cfg)?;
        rows.push(AblationRow {
            variant: label.to_string(),
            cost: out.prediction.cost.as_dollars(),
            steps: out.steps,
        });
    }
    Ok(rows)
}

/// Ablation: the instance-boundary jump candidate on/off.
///
/// # Errors
///
/// Propagates planner errors.
pub fn ablation_instance_jump(deadline: SimDuration) -> Result<Vec<AblationRow>> {
    let spec = ShaParams::new(512, 4, 508).generate()?;
    let sim = fig_sim(10);
    let mut rows = Vec::new();
    for (label, jump) in [("ladder only", false), ("ladder + jump", true)] {
        let cfg = PlannerConfig {
            use_instance_jump: jump,
            ..PlannerConfig::default()
        };
        let out = plan_rubberband(&sim, &spec, deadline, &cfg)?;
        rows.push(AblationRow {
            variant: label.to_string(),
            cost: out.prediction.cost.as_dollars(),
            steps: out.steps,
        });
    }
    Ok(rows)
}

/// Ablation: Monte-Carlo sample count versus plan quality. Plan quality
/// is scored by re-predicting the chosen plan with a high-sample
/// reference simulator.
///
/// # Errors
///
/// Propagates planner errors.
pub fn ablation_mc_samples(deadline: SimDuration) -> Result<Vec<AblationRow>> {
    let spec = ShaParams::new(64, 4, 508).generate()?;
    let reference = fig_sim(200);
    let mut rows = Vec::new();
    for samples in [1u32, 5, 20, 100] {
        let sim = fig_sim(samples);
        let out = plan_rubberband(&sim, &spec, deadline, &PlannerConfig::default())?;
        let scored = reference.predict(&spec, &out.plan)?;
        rows.push(AblationRow {
            variant: format!("{samples} samples"),
            cost: scored.cost.as_dollars(),
            steps: out.steps,
        });
    }
    Ok(rows)
}

/// One warm-pool ablation row.
#[derive(Debug, Clone)]
pub struct WarmPoolRow {
    /// Pool capacity (0 = disabled).
    pub capacity: usize,
    /// Executed JCT seconds.
    pub jct_secs: f64,
    /// Executed cost dollars.
    pub cost: f64,
    /// Instances provisioned from the provider (reattaches don't count).
    pub instances: usize,
}

/// Warm-pool ablation: execute a plan that releases capacity mid-job and
/// re-grows later (the §6.3.1 "warm pool of instances" device), with the
/// pool disabled and enabled. Reattaching skips the provision + init
/// cycle at the price of holding parked instances.
///
/// # Errors
///
/// Propagates executor errors.
pub fn ablation_warm_pool(seed: u64) -> Result<Vec<WarmPoolRow>> {
    use rb_hpo::ExperimentSpec;
    use rb_sim::AllocationPlan;

    let task = rb_train::task::resnet101_cifar10();
    let physics = physics_for(&task, 1024, 4);
    // A zig-zag allocation: shed 3 instances after stage 0, re-grow for
    // stage 2 — the shape sequential multi-jobs and re-expanding plans
    // produce.
    let spec = ExperimentSpec::from_stages(&[(16, 2), (8, 1), (4, 8), (2, 16)])?;
    let plan = AllocationPlan::new(vec![16, 4, 16, 4]);
    let space = search_space();
    let mut rows = Vec::new();
    for capacity in [0usize, 4] {
        let cloud = e2e_cloud()
            .with_provision_delay(SimDuration::from_secs(30))
            .with_init_latency(SimDuration::from_secs(60));
        let report = Executor::new(
            spec.clone(),
            plan.clone(),
            task.clone(),
            physics.clone(),
            cloud,
        )?
        .with_options(ExecOptions {
            seed,
            warm_pool: capacity,
            warm_hold_secs: 300.0,
            ..ExecOptions::default()
        })
        .run(&space.sample_n(16, &mut Prng::seed_from_u64(seed)))?;
        rows.push(WarmPoolRow {
            capacity,
            jct_secs: report.jct.as_secs_f64(),
            cost: report.total_cost().as_dollars(),
            instances: report.instances_provisioned,
        });
    }
    Ok(rows)
}

/// The four ablations as tables: warm-start multipliers, the
/// instance-boundary jump and Monte-Carlo samples (at a 20-minute
/// deadline), then the warm pool; a blank line separates them.
///
/// # Errors
///
/// Propagates planner and executor errors.
pub fn ablations() -> Result<Vec<Table>> {
    let d = SimDuration::from_mins(20);
    let ablation = |title: &str, rows: &[AblationRow]| {
        Table::of(
            title,
            rows,
            &[
                (left("variant", 18), |r| Cell::text(r.variant.as_str())),
                (right("plan cost", 12), |r| Cell::Money(r.cost)),
                (right("steps", 8), |r| Cell::count(r.steps)),
            ],
        )
    };
    Ok(vec![
        ablation(
            "Ablation — warm-start multipliers (SHA(64,4,508), 20 min)",
            &ablation_warm_starts(d)?,
        ),
        ablation(
            "\nAblation — instance-boundary jump candidate (SHA(512,4,508), 20 min)",
            &ablation_instance_jump(d)?,
        ),
        ablation(
            "\nAblation — Monte-Carlo samples vs plan quality (scored at 200 samples)",
            &ablation_mc_samples(d)?,
        ),
        Table::of(
            "\nAblation — warm instance pool (zig-zag allocation, 90 s scale-up)",
            &ablation_warm_pool(1)?,
            &[
                (left("pool", 14), |r| match r.capacity {
                    0 => Cell::text("disabled"),
                    n => Cell::Text(format!("{n} instances")),
                }),
                (right("JCT", 10), |r| Cell::secs(r.jct_secs)),
                (right("cost", 10), |r| Cell::Money(r.cost)),
                (right("provisioned", 12), |r| Cell::count(r.instances)),
            ],
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spot_is_cheaper_at_low_interruption_rates() {
        let (od, rows) = ext_spot(&[0.2], 1).unwrap();
        assert_eq!(od.preemptions, 0);
        let calm_spot = &rows[0];
        assert!(
            calm_spot.cost < od.cost * 0.6,
            "spot {} not clearly cheaper than on-demand {}",
            calm_spot.cost,
            od.cost
        );
    }

    #[test]
    fn heavy_interruptions_erode_spot_and_slow_the_job() {
        let (_, rows) = ext_spot(&[0.2, 20.0], 1).unwrap();
        let calm = &rows[0];
        let stormy = &rows[1];
        assert!(stormy.preemptions > calm.preemptions);
        assert!(stormy.jct_secs > calm.jct_secs);
        assert!(stormy.cost > calm.cost);
    }

    #[test]
    fn budget_rows_trade_money_for_time() {
        let rows = ext_budget(&[8.0, 30.0]).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[1].jct_secs <= rows[0].jct_secs);
        for r in &rows {
            assert!(r.cost <= r.budget + 1e-9);
        }
    }

    #[test]
    fn rubberband_beats_asha_on_cost_at_comparable_accuracy() {
        let rows = ext_asha(20, 1).unwrap();
        let rb = &rows[0];
        // RubberBand is cheaper than every fixed-cluster ASHA variant.
        for asha in &rows[1..] {
            assert!(
                rb.cost < asha.cost,
                "rubberband {} !< {} at {}",
                rb.cost,
                asha.system,
                asha.cost
            );
            // ASHA keeps sampling beyond the initial cohort.
            assert!(asha.trials >= 32, "{}", asha.system);
        }
        // And at least matches the best ASHA variant's accuracy.
        let best_asha = rows[1..]
            .iter()
            .map(|r| r.accuracy)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            rb.accuracy >= best_asha - 2.0,
            "rb {} vs best asha {best_asha}",
            rb.accuracy
        );
    }

    #[test]
    fn warm_pool_cuts_regrowth_latency() {
        let rows = ablation_warm_pool(3).unwrap();
        let (off, on) = (&rows[0], &rows[1]);
        // Reattaching skips the 90 s scale-up at stage 2.
        assert!(
            on.jct_secs < off.jct_secs - 60.0,
            "warm {} !<< cold {}",
            on.jct_secs,
            off.jct_secs
        );
        // And avoids re-provisioning.
        assert!(on.instances < off.instances);
    }

    #[test]
    fn instance_selection_picks_the_cheapest_feasible_type() {
        let rows = ext_instances(30).unwrap();
        assert_eq!(rows.len(), 4);
        let winner = rows.iter().find(|r| r.chosen).unwrap();
        for r in &rows {
            if let Some(c) = r.cost {
                assert!(
                    winner.cost.unwrap() <= c + 1e-9,
                    "{} beat the winner",
                    r.name
                );
            }
        }
    }

    #[test]
    fn instance_jump_never_hurts() {
        let rows = ablation_instance_jump(SimDuration::from_mins(20)).unwrap();
        let (off, on) = (&rows[0], &rows[1]);
        assert!(
            on.cost <= off.cost + 1e-9,
            "jump {} > ladder {}",
            on.cost,
            off.cost
        );
    }

    #[test]
    fn more_warm_starts_never_hurt() {
        let rows = ablation_warm_starts(SimDuration::from_mins(20)).unwrap();
        assert!(rows[1].cost <= rows[0].cost + 1e-9);
        assert!(rows[2].cost <= rows[1].cost + 1e-9);
    }
}
