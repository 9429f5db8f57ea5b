//! Rendering a plan as a cluster schedule (Table 3).
//!
//! "RubberBand will leverage a given allocation plan to create a cluster
//! resource schedule" — epoch ranges, trials, GPUs per trial, and cluster
//! size per stage.

use rb_hpo::ExperimentSpec;
use rb_sim::AllocationPlan;

/// One stage of the rendered schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleRow {
    /// Work-unit (epoch) range `[from, to)` covered by the stage.
    pub epoch_range: (u64, u64),
    /// Trials running.
    pub trials: u32,
    /// GPUs allocated to each trial.
    pub gpus_per_trial: u32,
    /// Instances provisioned.
    pub cluster_size: u32,
}

/// Renders `plan` for `spec` on instances with `gpus_per_instance` GPUs.
pub fn render_schedule(
    spec: &ExperimentSpec,
    plan: &AllocationPlan,
    gpus_per_instance: u32,
) -> Vec<ScheduleRow> {
    let mut rows = Vec::with_capacity(spec.num_stages());
    let mut epoch = 0u64;
    for (i, stage) in spec.stages().enumerate() {
        let from = epoch;
        epoch += stage.iters;
        rows.push(ScheduleRow {
            epoch_range: (from, epoch),
            trials: stage.num_trials,
            gpus_per_trial: plan.gpus_per_trial(i, spec),
            cluster_size: plan.instances(i, gpus_per_instance),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape() {
        // Table 3 renders SHA(n=32, r=1, R=50, η=3) under the 20-minute
        // RubberBand plan: 32×1, 10×2, 3×4, 1×8 GPUs on p3.8xlarge.
        let spec = ExperimentSpec::from_stages(&[(32, 1), (10, 3), (3, 9), (1, 37)]).unwrap();
        let plan = AllocationPlan::new(vec![32, 20, 12, 8]);
        let rows = render_schedule(&spec, &plan, 4);
        assert_eq!(
            rows,
            vec![
                ScheduleRow {
                    epoch_range: (0, 1),
                    trials: 32,
                    gpus_per_trial: 1,
                    cluster_size: 8
                },
                ScheduleRow {
                    epoch_range: (1, 4),
                    trials: 10,
                    gpus_per_trial: 2,
                    cluster_size: 5
                },
                ScheduleRow {
                    epoch_range: (4, 13),
                    trials: 3,
                    gpus_per_trial: 4,
                    cluster_size: 3
                },
                ScheduleRow {
                    epoch_range: (13, 50),
                    trials: 1,
                    gpus_per_trial: 8,
                    cluster_size: 2
                },
            ]
        );
    }

    #[test]
    fn rows_display_cleanly() {
        // A row holds the cells Table 3 prints: one stage of 32 one-GPU
        // trials over epochs [0, 1) on eight 4-GPU instances.
        let spec = ExperimentSpec::from_stages(&[(32, 1)]).unwrap();
        let rows = render_schedule(&spec, &AllocationPlan::new(vec![32]), 4);
        let row = rows[0];
        assert_eq!(
            (
                row.epoch_range,
                row.trials,
                row.gpus_per_trial,
                row.cluster_size
            ),
            ((0, 1), 32, 1, 8)
        );
    }
}
