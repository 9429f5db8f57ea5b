//! The stage scheduler: the decision core of the driver's control loop.
//!
//! Fig. 8 shows the driver as a scheduler + placement controller + cluster
//! manager. This module is the scheduler's *policy*, kept pure so it can
//! be tested exhaustively: given the specification, the allocation plan,
//! the stage index and the live trials, it decides the target cluster
//! size, each trial's GPU share, and whether the stage runs all-parallel
//! or in waves ("if the cluster size is too small … each resource is
//! assigned to a single trial until it is completed, queuing unscheduled
//! trials until resources are freed", §5). The executor merely carries
//! these decisions out against the cluster manager and placement
//! controller.

use rb_core::{RbError, Result, TrialId};
use rb_hpo::ExperimentSpec;
use rb_sim::AllocationPlan;

/// The scheduler's decisions for one stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSchedule {
    /// Stage index.
    pub stage: usize,
    /// Instances the cluster must hold (placement-fragmentation aware).
    pub target_instances: u32,
    /// GPUs each live trial runs on (every trial of a stage gets the
    /// same share).
    pub gpus_per_trial: u32,
    /// True when trials outnumber GPUs and run in rotating waves of
    /// single-GPU workers.
    pub waves: bool,
    /// Concurrent execution slots (equals the trial count when fully
    /// parallel; the GPU count when waved).
    pub slots: u32,
}

/// Computes the schedule for `stage` with the given `live` trials.
///
/// # Errors
///
/// Returns [`RbError::Execution`] when the live-trial count does not
/// match the specification (the barrier must promote exactly the spec's
/// next-stage count), and [`RbError::InvalidPlan`] for out-of-range
/// stages.
pub fn schedule_stage(
    spec: &ExperimentSpec,
    plan: &AllocationPlan,
    stage: usize,
    live: &[TrialId],
    gpus_per_instance: u32,
) -> Result<StageSchedule> {
    if stage >= spec.num_stages() || stage >= plan.num_stages() {
        return Err(RbError::InvalidPlan(format!("stage {stage} out of range")));
    }
    let (trials, _) = spec.get_stage(stage)?;
    if live.len() != trials as usize {
        return Err(RbError::Execution(format!(
            "stage {stage} expects {trials} live trials, scheduler saw {}",
            live.len()
        )));
    }
    let alloc = plan.gpus(stage);
    let waves = alloc < trials;
    let gpt = if waves {
        1
    } else {
        plan.gpus_per_trial(stage, spec)
    };
    Ok(StageSchedule {
        stage,
        target_instances: plan.instances_for_stage(stage, spec, gpus_per_instance),
        gpus_per_trial: gpt,
        waves,
        slots: if waves { alloc } else { trials },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ExperimentSpec {
        ExperimentSpec::from_stages(&[(32, 1), (10, 3), (3, 9), (1, 37)]).unwrap()
    }

    fn trials(n: u64) -> Vec<TrialId> {
        (0..n).map(TrialId::new).collect()
    }

    #[test]
    fn parallel_stage_divides_fairly() {
        let plan = AllocationPlan::new(vec![32, 20, 12, 8]);
        let s = schedule_stage(&spec(), &plan, 1, &trials(10), 4).unwrap();
        assert!(!s.waves);
        assert_eq!(s.slots, 10);
        assert_eq!(s.target_instances, 5);
        assert_eq!(s.gpus_per_trial, 2);
    }

    #[test]
    fn scarce_gpus_trigger_waves() {
        let plan = AllocationPlan::new(vec![8, 5, 3, 1]);
        let s = schedule_stage(&spec(), &plan, 0, &trials(32), 4).unwrap();
        assert!(s.waves);
        assert_eq!(s.slots, 8);
        assert_eq!(s.target_instances, 2);
        assert_eq!(s.gpus_per_trial, 1);
    }

    #[test]
    fn fragmentation_inflates_target_instances() {
        // 3-GPU trials on 4-GPU machines: one machine each.
        let spec = ExperimentSpec::from_stages(&[(8, 4)]).unwrap();
        let plan = AllocationPlan::new(vec![24]);
        let s = schedule_stage(&spec, &plan, 0, &trials(8), 4).unwrap();
        assert_eq!(s.gpus_per_trial, 3);
        assert_eq!(s.target_instances, 8, "3-GPU trials cannot share nodes");
    }

    #[test]
    fn mismatched_live_count_is_an_execution_error() {
        let plan = AllocationPlan::new(vec![32, 20, 12, 8]);
        let err = schedule_stage(&spec(), &plan, 1, &trials(9), 4).unwrap_err();
        assert!(matches!(err, RbError::Execution(_)));
    }

    #[test]
    fn out_of_range_stage_is_rejected() {
        let plan = AllocationPlan::new(vec![32, 20, 12, 8]);
        assert!(matches!(
            schedule_stage(&spec(), &plan, 4, &trials(1), 4),
            Err(RbError::InvalidPlan(_))
        ));
    }

    #[test]
    fn final_stage_single_trial_gets_everything() {
        let plan = AllocationPlan::new(vec![32, 20, 12, 8]);
        let s = schedule_stage(&spec(), &plan, 3, &trials(1), 4).unwrap();
        assert_eq!(s.gpus_per_trial, 8);
        assert_eq!(s.target_instances, 2);
        assert!(!s.waves);
    }
}
