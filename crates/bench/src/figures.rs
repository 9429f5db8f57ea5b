//! The simulated experiments: Figs. 4 and 9–12 of the paper.
//!
//! Each function takes the sweep parameters (paper defaults live in the
//! `repro` binary), runs the static and elastic planners through the
//! simulator, and returns structured rows; `*_table` turns them into the
//! figure's [`Table`]. Infeasible configurations yield `None` entries.

use crate::common::{fig_cloud, policy_prediction, synthetic_rn50};
use crate::table::{left, right, Cell, Column, Table};
use rb_core::{Cost, SimDuration};
use rb_hpo::ShaParams;
use rb_planner::Policy;
use rb_scaling::zoo::ZOO;
use rb_scaling::{AnalyticScaling, PlacementQuality, ScalingModel};

/// One model's normalized-throughput curve (Fig. 4).
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Architecture name.
    pub model: &'static str,
    /// `(gpus, speedup over 1 GPU)` points.
    pub speedups: Vec<(u32, f64)>,
}

/// Fig. 4: sub-linear scaling of the model zoo with increasing GPUs
/// (batch 512, 8-GPU machines).
pub fn fig4(gpus: &[u32]) -> Vec<Fig4Row> {
    ZOO.iter()
        .map(|arch| {
            let m = AnalyticScaling::for_arch(arch, 512, 8);
            Fig4Row {
                model: arch.name,
                speedups: gpus
                    .iter()
                    .map(|&g| (g, m.speedup(g, PlacementQuality::Packed)))
                    .collect(),
            }
        })
        .collect()
}

/// Fig. 4 as a table of normalized throughputs, one row per model.
pub fn fig4_table(rows: &[Fig4Row]) -> Table {
    let gpus: Vec<u32> = rows[0].speedups.iter().map(|&(g, _)| g).collect();
    let mut columns = vec![left("model", 14)];
    columns.extend(gpus.iter().map(|g| right(&format!("{g} GPU"), 7)));
    let keys = gpus.iter().map(|g| format!("speedup_{g}gpu"));
    Table {
        title: "Figure 4 — scaling of deep learning models with increasing GPUs\n\
                (throughput normalized to 1 GPU; batch 512, 8-GPU nodes)"
            .into(),
        columns,
        rows: rows
            .iter()
            .map(|r| {
                let mut cells = vec![Cell::text(r.model)];
                cells.extend(r.speedups.iter().map(|&(_, s)| Cell::real(s, 2)));
                cells
            })
            .collect(),
        ..Table::default()
    }
    .with_csv(
        "fig4.csv".into(),
        std::iter::once("model".into()).chain(keys),
    )
}

/// One straggler setting's costs (Fig. 9).
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Straggler σ in seconds (on a 4 s mean iteration).
    pub sigma: f64,
    /// Static policy, per-instance billing.
    pub static_per_instance: Option<f64>,
    /// Static policy, per-function billing.
    pub static_per_function: Option<f64>,
    /// Elastic (RubberBand) policy, per-instance billing.
    pub elastic_per_instance: Option<f64>,
    /// Elastic policy, per-function billing.
    pub elastic_per_function: Option<f64>,
}

/// Fig. 9: impact of stragglers on cost under both billing regimes.
/// `SHA(n=64, r=4, R=508)`, ResNet-50 bs=512, μ = 4 s, init = 0 s.
pub fn fig9(sigmas: &[f64], deadline: SimDuration) -> Vec<Fig9Row> {
    let spec = ShaParams::new(64, 4, 508).generate().expect("paper spec");
    sigmas
        .iter()
        .map(|&sigma| {
            let model = synthetic_rn50(512, 4.0, sigma);
            let cost = |policy: Policy, per_function: bool| -> Option<f64> {
                let mut cloud = fig_cloud(0.0);
                if per_function {
                    cloud.pricing = cloud.pricing.with_per_function_billing();
                }
                policy_prediction(policy, &spec, &model, &cloud, deadline)
                    .ok()
                    .map(|p| p.cost.as_dollars())
            };
            Fig9Row {
                sigma,
                static_per_instance: cost(Policy::Static, false),
                static_per_function: cost(Policy::Static, true),
                elastic_per_instance: cost(Policy::RubberBand, false),
                elastic_per_function: cost(Policy::RubberBand, true),
            }
        })
        .collect()
}

/// A cost, or `—` when the plan was infeasible.
fn cost_cell(v: Option<f64>) -> Cell {
    v.map_or(Cell::Missing("—"), Cell::Money)
}

/// Fig. 9 as a table.
pub fn fig9_table(rows: &[Fig9Row]) -> Table {
    Table::of(
        "Figure 9 — impact of stragglers on simulated cost under billing regimes\n\
         (SHA(n=64, r=4, R=508), ResNet-50 bs=512, μ = 4 s/iter, p3.8xlarge)",
        rows,
        &[
            (right("σ (s)", 6), |r| Cell::real(r.sigma, 1)),
            (right("static/inst", 12).bar(), |r| {
                cost_cell(r.static_per_instance)
            }),
            (right("static/func", 12), |r| {
                cost_cell(r.static_per_function)
            }),
            (right("elastic/inst", 12).bar(), |r| {
                cost_cell(r.elastic_per_instance)
            }),
            (right("elastic/func", 12), |r| {
                cost_cell(r.elastic_per_function)
            }),
        ],
    )
    .with_csv(
        "fig9.csv".into(),
        [
            "sigma_secs",
            "static_per_instance",
            "static_per_function",
            "elastic_per_instance",
            "elastic_per_function",
        ],
    )
}

/// One Fig. 10–12 panel: a first column with its CSV key, then the
/// static and elastic costs and their ratio; each panel ends with a
/// blank line.
fn cost_table(
    title: String,
    (first, key): (Column, &str),
    rows: &[(Cell, Option<f64>, Option<f64>)],
    csv: String,
) -> Table {
    Table::of(
        title,
        rows,
        &[
            (first, |r| r.0.clone()),
            (right("static", 12).bar(), |r| cost_cell(r.1)),
            (right("elastic", 12), |r| cost_cell(r.2)),
            (right("ratio", 8), |r| match (r.1, r.2) {
                (Some(s), Some(e)) if e > 0.0 => Cell::Real(s / e, 2, "x"),
                _ => Cell::Missing("—"),
            }),
        ],
    )
    .with_notes("\n")
    .with_csv(csv, [key, "static_cost", "elastic_cost", "ratio"])
}

/// One data-price setting's costs (Fig. 10).
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Ingress price in $/GB.
    pub price_per_gb: f64,
    /// Static policy total cost.
    pub static_cost: Option<f64>,
    /// Elastic policy total cost.
    pub elastic_cost: Option<f64>,
}

/// Fig. 10: impact of data-I/O pricing for a dataset of `dataset_gb`
/// downloaded once per instance. Same SHA workload as Fig. 9.
pub fn fig10(dataset_gb: f64, prices: &[f64], deadline: SimDuration) -> Vec<Fig10Row> {
    let spec = ShaParams::new(64, 4, 508).generate().expect("paper spec");
    let model = synthetic_rn50(512, 4.0, 1.0);
    prices
        .iter()
        .map(|&price| {
            let cost = |policy: Policy| -> Option<f64> {
                let mut cloud = fig_cloud(15.0).with_dataset_gb(dataset_gb);
                cloud.pricing = cloud.pricing.with_data_price(Cost::from_dollars(price));
                policy_prediction(policy, &spec, &model, &cloud, deadline)
                    .ok()
                    .map(|p| p.cost.as_dollars())
            };
            Fig10Row {
                price_per_gb: price,
                static_cost: cost(Policy::Static),
                elastic_cost: cost(Policy::RubberBand),
            }
        })
        .collect()
}

/// One Fig. 10 panel as a table.
pub fn fig10_table(dataset: &str, gb: f64, rows: &[Fig10Row]) -> Table {
    let rows: Vec<_> = rows
        .iter()
        .map(|r| (Cell::real(r.price_per_gb, 3), r.static_cost, r.elastic_cost))
        .collect();
    cost_table(
        format!("Figure 10 ({dataset}, {gb} GB) — impact of data I/O pricing"),
        (right("$/GB", 10), "price_per_gb"),
        &rows,
        format!("fig10_{}.csv", dataset.to_lowercase().replace('-', "")),
    )
}

/// One job-size setting's costs (Fig. 11).
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Number of trials `k` in `SHA(n=k, r=4, R=508)`.
    pub trials: u32,
    /// Static policy cost under the billing model.
    pub static_cost: Option<f64>,
    /// Elastic policy cost.
    pub elastic_cost: Option<f64>,
}

/// Fig. 11: cost versus number of trials under one billing model
/// (20-minute constraint in the paper).
pub fn fig11(trial_counts: &[u32], per_function: bool, deadline: SimDuration) -> Vec<Fig11Row> {
    let model = synthetic_rn50(512, 4.0, 1.0);
    trial_counts
        .iter()
        .map(|&k| {
            let spec = ShaParams::new(k, 4, 508).generate().expect("valid spec");
            let cost = |policy: Policy| -> Option<f64> {
                let mut cloud = fig_cloud(15.0);
                if per_function {
                    cloud.pricing = cloud.pricing.with_per_function_billing();
                }
                policy_prediction(policy, &spec, &model, &cloud, deadline)
                    .ok()
                    .map(|p| p.cost.as_dollars())
            };
            Fig11Row {
                trials: k,
                static_cost: cost(Policy::Static),
                elastic_cost: cost(Policy::RubberBand),
            }
        })
        .collect()
}

/// One Fig. 11 panel as a table.
pub fn fig11_table(per_function: bool, rows: &[Fig11Row]) -> Table {
    let billing = if per_function { "function" } else { "instance" };
    let rows: Vec<_> = rows
        .iter()
        .map(|r| (Cell::int(r.trials), r.static_cost, r.elastic_cost))
        .collect();
    cost_table(
        format!(
            "Figure 11 (pay-per-{billing}) — cost vs number of trials (SHA(k, 4, 508), 20 min)"
        ),
        (right("trials", 8), "trials"),
        &rows,
        format!("fig11_per_{billing}.csv"),
    )
}

/// One (init latency, deadline) cell (Fig. 12).
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Time constraint in minutes.
    pub deadline_mins: u64,
    /// Static policy cost.
    pub static_cost: Option<f64>,
    /// Elastic policy cost.
    pub elastic_cost: Option<f64>,
}

/// Fig. 12: cost versus time constraint for one instance-initialization
/// latency. `SHA(n=512, r=4, R=4096)`, ResNet-50 bs=2048, μ = 12 s/iter.
pub fn fig12(init_secs: f64, deadline_mins: &[u64]) -> Vec<Fig12Row> {
    let spec = ShaParams::new(512, 4, 4096).generate().expect("paper spec");
    let model = synthetic_rn50(2048, 12.0, 1.0);
    deadline_mins
        .iter()
        .map(|&mins| {
            let deadline = SimDuration::from_mins(mins);
            let cloud = fig_cloud(init_secs);
            let cost = |policy: Policy| -> Option<f64> {
                policy_prediction(policy, &spec, &model, &cloud, deadline)
                    .ok()
                    .map(|p| p.cost.as_dollars())
            };
            Fig12Row {
                deadline_mins: mins,
                static_cost: cost(Policy::Static),
                elastic_cost: cost(Policy::RubberBand),
            }
        })
        .collect()
}

/// One Fig. 12 panel as a table.
pub fn fig12_table(init_secs: f64, rows: &[Fig12Row]) -> Table {
    let rows: Vec<_> = rows
        .iter()
        .map(|r| {
            (
                Cell::Int(r.deadline_mins, "m"),
                r.static_cost,
                r.elastic_cost,
            )
        })
        .collect();
    cost_table(
        format!(
            "Figure 12 ({init_secs:.0} s init latency) — cost vs time constraint \
             (SHA(512, 4, 4096), μ = 12 s/iter)"
        ),
        (right("deadline", 10), "deadline_mins"),
        &rows,
        format!("fig12_init{init_secs:.0}s.csv"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_curves_are_sublinear_and_ordered() {
        let rows = fig4(&[1, 2, 4, 8, 16]);
        assert_eq!(rows.len(), rb_scaling::zoo::ZOO.len());
        for row in &rows {
            assert!((row.speedups[0].1 - 1.0).abs() < 1e-12, "{}", row.model);
            for &(g, s) in &row.speedups {
                assert!(s <= f64::from(g) + 1e-9, "{} superlinear at {g}", row.model);
            }
        }
        // ResNet-50 (light communication) outscales VGG-16 (heavy) at 16.
        let sp = |name: &str| {
            rows.iter()
                .find(|r| r.model == name)
                .unwrap()
                .speedups
                .last()
                .unwrap()
                .1
        };
        assert!(sp("ResNet-50") > sp("VGG-16"));
    }

    #[test]
    fn fig9_straggler_shape_holds_at_small_scale() {
        let rows = fig9(&[1.0, 6.0], SimDuration::from_mins(20));
        let calm = &rows[0];
        let stormy = &rows[1];
        // Per-instance cost grows clearly with σ.
        let pi_growth = stormy.static_per_instance.unwrap() / calm.static_per_instance.unwrap();
        let pf_growth = stormy.static_per_function.unwrap() / calm.static_per_function.unwrap();
        assert!(pi_growth > pf_growth, "{pi_growth} vs {pf_growth}");
        // Elastic never worse than static under either billing model.
        for r in &rows {
            assert!(r.elastic_per_instance.unwrap() <= r.static_per_instance.unwrap() + 1e-9);
        }
    }

    #[test]
    fn fig10_shape_holds_at_small_scale() {
        let rows = fig10(150.0, &[0.0, 0.16], SimDuration::from_mins(20));
        let (free, pricey) = (&rows[0], &rows[1]);
        let ratio = |r: &Fig10Row| r.static_cost.unwrap() / r.elastic_cost.unwrap();
        assert!(
            ratio(pricey) < ratio(free),
            "I/O cost should dilute the benefit"
        );
        assert!(pricey.elastic_cost.unwrap() <= pricey.static_cost.unwrap() + 1e-9);
    }

    #[test]
    fn fig11_gap_grows_with_trials() {
        let rows = fig11(&[16, 128], false, SimDuration::from_mins(20));
        let gap = |r: &Fig11Row| r.static_cost.unwrap() - r.elastic_cost.unwrap();
        assert!(gap(&rows[1]) > gap(&rows[0]));
    }
}
