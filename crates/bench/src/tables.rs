//! The ablation and end-to-end experiments: Tables 1–4 of the paper.
//!
//! Unlike the simulated figures, these run the *executor* — the
//! event-accurate runtime — so "real" columns reflect independently
//! sampled noise, migrations, provisioning and billing, not the planner's
//! model.

use crate::table::{left, right, Cell, Table};
use rb_cloud::catalog::{P3_16XLARGE, P3_8XLARGE};
use rb_cloud::CloudPricing;
use rb_core::stats::OnlineStats;
use rb_core::{Prng, Result, SimDuration};
use rb_exec::{ExecOptions, Executor};
use rb_hpo::{Dim, ExperimentSpec, SearchSpace, ShaParams};
use rb_planner::{plan_with_policy, render_schedule, PlannerConfig, Policy, ScheduleRow};
use rb_profile::{profile_training, CloudProfile, ModelProfile, ProfilerConfig};
use rb_scaling::AnalyticScaling;
use rb_sim::{AllocationPlan, Prediction, SimConfig, Simulator};
use rb_train::TaskModel;

/// The standard search space for the end-to-end workloads.
pub fn search_space() -> SearchSpace {
    SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .add("weight_decay", Dim::LogUniform { lo: 1e-5, hi: 1e-2 })
        .build()
        .expect("static space is valid")
}

/// Ground-truth physics for a task (what the executor runs on).
pub fn physics_for(task: &TaskModel, batch: u32, node_gpus: u32) -> ModelProfile {
    let mut p = ModelProfile::exact_for_task(task, batch, node_gpus);
    p.train_startup_secs = 5.0;
    p
}

/// Profile a task the way the system does pre-execution (§5), returning
/// the fitted model the planner sees.
pub fn profiled_model(task: &TaskModel, batch: u32, node_gpus: u32, max_gpus: u32) -> ModelProfile {
    let truth = AnalyticScaling::for_arch(&task.arch, batch, node_gpus);
    let mut m = profile_training(
        &truth,
        task.steps_per_iter(batch),
        5.0,
        &ProfilerConfig {
            max_gpus,
            ..ProfilerConfig::default()
        },
    )
    .expect("profiling a valid scaling model succeeds")
    .profile;
    m.train_startup_secs = 5.0;
    m
}

/// The Table 2 cloud: on-demand p3.8xlarge with 15 s scale-up latencies
/// ("using a warm pool of instances", §6.3.1).
pub fn e2e_cloud() -> CloudProfile {
    CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15))
}

// --------------------------------------------------------------------------
// Table 1 — placement controller ablation
// --------------------------------------------------------------------------

/// One row of Table 1: per-trial sample throughput at a worker size.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// GPUs per trial.
    pub gpus: u32,
    /// Mean samples/second with the placement controller.
    pub placed_mean: f64,
    /// Std across trials and seeds, placed.
    pub placed_std: f64,
    /// Mean samples/second with scattered placement.
    pub scattered_mean: f64,
    /// Std across trials and seeds, scattered.
    pub scattered_std: f64,
}

/// Table 1: ResNet-50 (batch 1024) sample throughput at 1/2/4 GPUs per
/// trial on p3.16xlarge instances, with and without the placement
/// controller.
pub fn table1(seeds: &[u64]) -> Result<Vec<Table1Row>> {
    let task = rb_train::task::resnet50_cifar10();
    // Batch 1024 as in the paper's measurement; the table workload trains
    // 4 concurrent trials for 20 work units on a fixed cluster.
    let physics = physics_for(&task, 1024, 8);
    let cloud = CloudProfile::new(CloudPricing::on_demand(P3_16XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15));
    let spec = ExperimentSpec::from_stages(&[(4, 20)])?;
    let space = search_space();
    let mut rows = Vec::new();
    for gpus in [1u32, 2, 4] {
        let plan = AllocationPlan::flat(4 * gpus, 1);
        let mut placed = OnlineStats::new();
        let mut scattered = OnlineStats::new();
        for &seed in seeds {
            for use_placement in [true, false] {
                let exec = Executor::new(
                    spec.clone(),
                    plan.clone(),
                    task.clone(),
                    physics.clone(),
                    cloud.clone(),
                )?
                .with_options(ExecOptions {
                    seed,
                    use_placement_controller: use_placement,
                    ..ExecOptions::default()
                });
                let mut rng = Prng::seed_from_u64(seed);
                let report = exec.run(&space.sample_n(4, &mut rng))?;
                for tput in report.trial_throughput.values() {
                    if use_placement {
                        placed.push(*tput);
                    } else {
                        scattered.push(*tput);
                    }
                }
            }
        }
        rows.push(Table1Row {
            gpus,
            placed_mean: placed.mean(),
            placed_std: placed.std(),
            scattered_mean: scattered.mean(),
            scattered_std: scattered.std(),
        });
    }
    Ok(rows)
}

/// Table 1 as a table, ending with the 1→N GPU scaling line.
pub fn table1_table(rows: &[Table1Row]) -> Table {
    fn pm(mean: f64, std: f64) -> Cell {
        Cell::Pm(Box::new([Cell::real(mean, 2), Cell::real(std, 2)]), [9, 8])
    }
    let notes = match (rows.first(), rows.last()) {
        (Some(first), Some(last)) => format!(
            "\nscaling 1→{} GPUs: {:.1}x with placement, {:.1}x without\n",
            last.gpus,
            last.placed_mean / first.placed_mean,
            last.scattered_mean / first.scattered_mean
        ),
        _ => String::new(),
    };
    Table::of(
        "Table 1 — placement controller sample throughput (samples/s)\n\
         (ResNet-50, batch 1024, p3.16xlarge)",
        rows,
        &[
            (right("# GPUs", 7), |r| Cell::int(r.gpus)),
            (right("placement", 20).bar(), |r| {
                pm(r.placed_mean, r.placed_std)
            }),
            (right("no placement", 20).bar(), |r| {
                pm(r.scattered_mean, r.scattered_std)
            }),
        ],
    )
    .with_notes(notes)
}

// --------------------------------------------------------------------------
// Tables 2 & 3 — end-to-end across time constraints, and the schedule
// --------------------------------------------------------------------------

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The allocation policy.
    pub policy: Policy,
    /// The deadline in minutes.
    pub max_time_mins: u64,
    /// Planner prediction (the "sim" columns).
    pub sim: Option<Prediction>,
    /// The compiled plan (for Table 3).
    pub plan: Option<AllocationPlan>,
    /// Executed JCT mean/std in seconds across seeds.
    pub real_jct: Option<(f64, f64)>,
    /// Executed cost mean/std in dollars across seeds.
    pub real_cost: Option<(f64, f64)>,
    /// Final accuracy mean/std across seeds (percent).
    pub accuracy: Option<(f64, f64)>,
}

/// Table 2: tuning ResNet-101 on CIFAR-10 (SHA(32, 1, 50, η=3)) across
/// 20/30/40-minute deadlines under all three policies, executed for each
/// seed.
pub fn table2(deadlines_mins: &[u64], seeds: &[u64]) -> Result<Vec<Table2Row>> {
    let task = rb_train::task::resnet101_cifar10();
    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate()?;
    let model = profiled_model(&task, 1024, 4, 32);
    let physics = physics_for(&task, 1024, 4);
    let cloud = e2e_cloud();
    let space = search_space();
    let sim = Simulator::new(model, cloud.clone()).with_config(SimConfig {
        samples: 20,
        seed: 0xF16,
    });
    let mut rows = Vec::new();
    for &mins in deadlines_mins {
        let deadline = SimDuration::from_mins(mins);
        for policy in [Policy::Static, Policy::NaiveElastic, Policy::RubberBand] {
            let planned =
                plan_with_policy(policy, &sim, &spec, deadline, &PlannerConfig::default());
            let Ok(outcome) = planned else {
                rows.push(Table2Row {
                    policy,
                    max_time_mins: mins,
                    sim: None,
                    plan: None,
                    real_jct: None,
                    real_cost: None,
                    accuracy: None,
                });
                continue;
            };
            let mut jct = OnlineStats::new();
            let mut cost = OnlineStats::new();
            let mut acc = OnlineStats::new();
            for &seed in seeds {
                let exec = Executor::new(
                    spec.clone(),
                    outcome.plan.clone(),
                    task.clone(),
                    physics.clone(),
                    cloud.clone(),
                )?
                .with_options(ExecOptions {
                    seed,
                    ..ExecOptions::default()
                });
                let mut rng = Prng::seed_from_u64(seed ^ 0xC0FFEE);
                let report = exec.run(&space.sample_n(32, &mut rng))?;
                jct.push(report.jct.as_secs_f64());
                cost.push(report.total_cost().as_dollars());
                acc.push(report.best_accuracy * 100.0);
            }
            rows.push(Table2Row {
                policy,
                max_time_mins: mins,
                sim: Some(outcome.prediction),
                plan: Some(outcome.plan),
                real_jct: Some((jct.mean(), jct.std())),
                real_cost: Some((cost.mean(), cost.std())),
                accuracy: Some((acc.mean(), acc.std())),
            });
        }
    }
    Ok(rows)
}

/// Table 2 as a table.
pub fn table2_table(rows: &[Table2Row]) -> Table {
    Table::of(
        "Table 2 — cost to complete workload across time constraints\n\
         (ResNet-101 / CIFAR-10, SHA(n=32, r=1, R=50, η=3), p3.8xlarge)",
        rows,
        &[
            (left("policy", 14), |r| Cell::text(r.policy.to_string())),
            (right("max", 5), |r| Cell::Int(r.max_time_mins, "m")),
            (right("JCT (sim)", 22), |r| {
                r.sim.map_or(Cell::Missing("infeasible"), |p| {
                    Cell::time_pm((p.jct.as_secs_f64(), p.jct_std_secs))
                })
            }),
            (right("cost (sim)", 16), |r| {
                r.sim.map_or(Cell::Missing(""), |p| {
                    Cell::money_pm((p.cost.as_dollars(), p.cost_std.as_dollars()))
                })
            }),
            (right("JCT (real)", 22), |r| {
                r.real_jct.map_or(Cell::Missing("*"), Cell::time_pm)
            }),
            (right("cost (real)", 16), |r| {
                r.real_cost.map_or(Cell::Missing("*"), Cell::money_pm)
            }),
            (right("acc (%)", 14), |r| {
                r.accuracy.map_or(Cell::Missing("*"), |(m, s)| {
                    Cell::Pm(Box::new([Cell::real(m, 1), Cell::real(s, 1)]), [0, 0])
                })
            }),
        ],
    )
}

/// Table 3: the cluster schedule of the RubberBand plan at the tightest
/// Table 2 deadline.
pub fn table3(rows: &[Table2Row]) -> Option<Vec<ScheduleRow>> {
    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate().ok()?;
    let tightest = rows
        .iter()
        .filter(|r| r.policy == Policy::RubberBand && r.plan.is_some())
        .min_by_key(|r| r.max_time_mins)?;
    Some(render_schedule(&spec, tightest.plan.as_ref()?, 4))
}

/// Table 3 as a table; it follows Table 2 after a blank line.
pub fn table3_table(rows: &[ScheduleRow]) -> Table {
    Table::of(
        "\nTable 3 — example cluster schedule for elastic training\n\
         (the RubberBand plan at the tightest deadline)",
        rows,
        &[
            (right("epoch range", 11), |r| {
                Cell::Text(format!("{:>5}-{:<5}", r.epoch_range.0, r.epoch_range.1))
            }),
            (right("trials", 6), |r| Cell::int(r.trials)),
            (right("GPUs/trial", 9), |r| Cell::int(r.gpus_per_trial)),
            (right("cluster size", 12), |r| Cell::int(r.cluster_size)),
        ],
    )
}

// --------------------------------------------------------------------------
// Table 4 — across models
// --------------------------------------------------------------------------

/// One row of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Workload name.
    pub model: &'static str,
    /// The deadline in minutes.
    pub max_time_mins: u64,
    /// Fixed-cluster executed cost mean/std (dollars).
    pub fixed_cost: Option<(f64, f64)>,
    /// RubberBand executed cost mean/std (dollars).
    pub rubberband_cost: Option<(f64, f64)>,
}

/// Table 4: fixed-cluster vs RubberBand executed cost for ResNet-101 /
/// CIFAR-10 (20 min), ResNet-152 / CIFAR-100 (60 min), BERT / RTE
/// (20 min).
pub fn table4(seeds: &[u64]) -> Result<Vec<Table4Row>> {
    let workloads: [(&'static str, TaskModel, u32, u64); 3] = [
        (
            "ResNet-101 / CIFAR-10",
            rb_train::task::resnet101_cifar10(),
            1024,
            20,
        ),
        (
            "ResNet-152 / CIFAR-100",
            rb_train::task::resnet152_cifar100(),
            1024,
            60,
        ),
        ("BERT / RTE", rb_train::task::bert_rte(), 256, 20),
    ];
    let spec = ShaParams::new(32, 1, 50).with_eta(3).generate()?;
    let cloud = e2e_cloud();
    let space = search_space();
    let mut rows = Vec::new();
    for (name, task, batch, mins) in workloads {
        let model = profiled_model(&task, batch, 4, 32);
        let physics = physics_for(&task, batch, 4);
        let sim = Simulator::new(model, cloud.clone());
        let deadline = SimDuration::from_mins(mins);
        let mut fixed: Option<(f64, f64)> = None;
        let mut elastic: Option<(f64, f64)> = None;
        for policy in [Policy::Static, Policy::RubberBand] {
            let Ok(outcome) =
                plan_with_policy(policy, &sim, &spec, deadline, &PlannerConfig::default())
            else {
                continue;
            };
            let mut cost = OnlineStats::new();
            for &seed in seeds {
                let exec = Executor::new(
                    spec.clone(),
                    outcome.plan.clone(),
                    task.clone(),
                    physics.clone(),
                    cloud.clone(),
                )?
                .with_options(ExecOptions {
                    seed,
                    ..ExecOptions::default()
                });
                let mut rng = Prng::seed_from_u64(seed ^ 0xBEEF);
                let report = exec.run(&space.sample_n(32, &mut rng))?;
                cost.push(report.total_cost().as_dollars());
            }
            let stat = Some((cost.mean(), cost.std()));
            match policy {
                Policy::Static => fixed = stat,
                Policy::RubberBand => elastic = stat,
                Policy::NaiveElastic => unreachable!(),
            }
        }
        rows.push(Table4Row {
            model: name,
            max_time_mins: mins,
            fixed_cost: fixed,
            rubberband_cost: elastic,
        });
    }
    Ok(rows)
}

/// Table 4 as a table.
pub fn table4_table(rows: &[Table4Row]) -> Table {
    fn cost(c: Option<(f64, f64)>) -> Cell {
        c.map_or(Cell::Missing("infeasible"), Cell::money_pm)
    }
    Table::of(
        "Table 4 — cost to complete workload across models (executed, 3 seeds)",
        rows,
        &[
            (left("model", 24), |r| Cell::text(r.model)),
            (right("time", 6), |r| Cell::Int(r.max_time_mins, "m")),
            (right("fixed", 18), |r| cost(r.fixed_cost)),
            (right("rubberband", 18), |r| cost(r.rubberband_cost)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_placement_beats_scatter() {
        let rows = table1(&[1]).unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.placed_mean > r.scattered_mean,
                "{} GPUs: placed {} !> scattered {}",
                r.gpus,
                r.placed_mean,
                r.scattered_mean
            );
        }
        // Scaling factor gap (paper: ~3.8x vs ~1.8x).
        let placed_scale = rows[2].placed_mean / rows[0].placed_mean;
        let scattered_scale = rows[2].scattered_mean / rows[0].scattered_mean;
        assert!(placed_scale > 3.0, "placed scaling {placed_scale}");
        assert!(scattered_scale < 2.5, "scattered scaling {scattered_scale}");
    }

    #[test]
    fn table2_single_row_has_fidelity() {
        let rows = table2(&[30], &[1]).unwrap();
        let rb = rows
            .iter()
            .find(|r| r.policy == Policy::RubberBand)
            .unwrap();
        let sim = rb.sim.unwrap();
        let (real_jct, _) = rb.real_jct.unwrap();
        let err = (real_jct - sim.jct.as_secs_f64()).abs() / sim.jct.as_secs_f64();
        assert!(err < 0.10, "JCT fidelity error {err}");
        let st = rows.iter().find(|r| r.policy == Policy::Static).unwrap();
        assert!(
            rb.real_cost.unwrap().0 <= st.real_cost.unwrap().0 + 0.01,
            "rubberband not cheaper"
        );
        // Table 3 derives from these rows.
        let schedule = table3(&rows).unwrap();
        assert_eq!(schedule.len(), 4);
    }
}
