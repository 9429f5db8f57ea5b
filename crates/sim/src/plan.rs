//! Resource allocation plans.
//!
//! A plan is the vector `a ∈ ℕ^|E|` of §4: `a[i]` GPUs are allocated to the
//! job during stage `i`, shared fairly among that stage's trials. Fairness
//! requires each stage's allocation to be a factor or a multiple of its
//! trial count — the invariant the planner's candidate generation maintains.

use rb_core::{RbError, Result};
use rb_hpo::ExperimentSpec;
use std::fmt;

/// GPUs allocated per stage.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AllocationPlan {
    gpus_per_stage: Vec<u32>,
}

impl AllocationPlan {
    /// Wraps a raw per-stage GPU vector (validated against a spec via
    /// [`AllocationPlan::validate`]).
    pub fn new(gpus_per_stage: Vec<u32>) -> Self {
        AllocationPlan { gpus_per_stage }
    }

    /// The static plan: the same `gpus` at every one of `stages` stages.
    pub fn flat(gpus: u32, stages: usize) -> Self {
        AllocationPlan {
            gpus_per_stage: vec![gpus; stages],
        }
    }

    /// GPUs allocated to stage `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn gpus(&self, i: usize) -> u32 {
        self.gpus_per_stage[i]
    }

    /// Number of stages covered.
    pub fn num_stages(&self) -> usize {
        self.gpus_per_stage.len()
    }

    /// The raw per-stage vector.
    pub fn as_slice(&self) -> &[u32] {
        &self.gpus_per_stage
    }

    /// Mutable access for the planner's decrement steps.
    pub fn set_gpus(&mut self, i: usize, gpus: u32) {
        self.gpus_per_stage[i] = gpus;
    }

    /// Instances needed for stage `i` on machines with `gpus_per_instance`
    /// GPUs, by raw GPU count (ignores placement fragmentation; see
    /// [`AllocationPlan::instances_for_stage`]).
    pub fn instances(&self, i: usize, gpus_per_instance: u32) -> u32 {
        self.gpus_per_stage[i].div_ceil(gpus_per_instance.max(1))
    }

    /// Instances an allocation of `alloc` GPUs over `trials` trials
    /// actually needs once trial colocation is accounted for. A 3-GPU
    /// trial on 4-GPU machines occupies a machine alone (locality forbids
    /// splitting it), so e.g. 32 such trials need 32 machines even though
    /// 96 GPUs fit on 24 — the bin-packing reality the placement
    /// controller enforces (§4.4.1).
    pub fn effective_instances(alloc: u32, trials: u32, gpus_per_instance: u32) -> u32 {
        let gpg = gpus_per_instance.max(1);
        let raw = alloc.div_ceil(gpg);
        if alloc < trials {
            // Waves of single-GPU trials pack perfectly.
            return raw;
        }
        let gpt = (alloc / trials.max(1)).max(1);
        let full_per_trial = gpt / gpg;
        let rem = gpt % gpg;
        let packed = match gpg.checked_div(rem) {
            None => trials * full_per_trial,
            Some(rems_per_node) => trials * full_per_trial + trials.div_ceil(rems_per_node),
        };
        packed.max(raw)
    }

    /// [`AllocationPlan::effective_instances`] for stage `i` of `spec`.
    pub fn instances_for_stage(
        &self,
        i: usize,
        spec: &ExperimentSpec,
        gpus_per_instance: u32,
    ) -> u32 {
        let trials = spec.get_stage(i).expect("index in range").0;
        Self::effective_instances(self.gpus_per_stage[i], trials, gpus_per_instance)
    }

    /// GPUs each trial receives in stage `i` of `spec`: the floor of fair
    /// sharing (1 when trials outnumber GPUs and run in waves). When the
    /// allocation does not divide evenly, the remainder idles — exactly the
    /// waste a static cluster suffers (§3.2).
    pub fn gpus_per_trial(&self, i: usize, spec: &ExperimentSpec) -> u32 {
        let trials = spec
            .get_stage(i)
            .expect("plan/stage index must be in range")
            .0;
        let alloc = self.gpus_per_stage[i];
        if alloc >= trials {
            alloc / trials
        } else {
            1
        }
    }

    /// True when every stage's allocation divides fairly (a factor or
    /// multiple of the stage's trial count) — the invariant the elastic
    /// planner maintains while stepping (§4.3). Static plans generally do
    /// *not* satisfy this across all stages. A test oracle: the planner
    /// keeps fairness by construction, so no library code calls it; the
    /// planner tests assert it of every elastic plan they produce.
    pub fn is_fair(&self, spec: &ExperimentSpec) -> bool {
        (0..self.num_stages().min(spec.num_stages())).all(|i| {
            let trials = spec.get_stage(i).expect("index in range").0;
            let alloc = self.gpus_per_stage[i];
            if alloc >= trials {
                alloc % trials == 0
            } else {
                trials % alloc == 0
            }
        })
    }

    /// True when the plan allocates the same amount to every stage.
    /// Public for tests: `rb-planner`'s `static_plans_are_flat` and this
    /// module's `flat_plan_is_static` read it; no library code calls it.
    pub fn is_static(&self) -> bool {
        self.gpus_per_stage.windows(2).all(|w| w[0] == w[1])
    }

    /// Checks structural validity against `spec`: one entry per stage and
    /// every entry positive. (Fairness is *not* required — uneven static
    /// allocations simply leave GPUs idle; see
    /// [`AllocationPlan::is_fair`].)
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidPlan`] describing the first violation.
    pub fn validate(&self, spec: &ExperimentSpec) -> Result<()> {
        if self.gpus_per_stage.len() != spec.num_stages() {
            return Err(RbError::InvalidPlan(format!(
                "plan has {} stages, spec has {}",
                self.gpus_per_stage.len(),
                spec.num_stages()
            )));
        }
        for (i, &alloc) in self.gpus_per_stage.iter().enumerate() {
            let _ = spec.get_stage(i)?;
            if alloc == 0 {
                return Err(RbError::InvalidPlan(format!(
                    "stage {i} allocates zero GPUs"
                )));
            }
        }
        Ok(())
    }

    /// Rounds `alloc` down to the nearest fair allocation for `trials`
    /// (a factor or multiple of it). Returns at least 1.
    pub fn round_down_fair(alloc: u32, trials: u32) -> u32 {
        debug_assert!(trials > 0);
        if alloc >= trials {
            (alloc / trials) * trials
        } else {
            // Largest divisor of `trials` that is <= alloc.
            (1..=alloc).rev().find(|d| trials % d == 0).unwrap_or(1)
        }
    }

    /// The next fair allocation strictly below `alloc` for `trials`, if
    /// one exists. This is the planner's decrement step: "the smallest
    /// integer value such that the new stage allocation is either a factor
    /// or multiple of the number of trials" (§4.3).
    pub fn decrement_fair(alloc: u32, trials: u32) -> Option<u32> {
        if alloc <= 1 {
            return None;
        }
        Some(Self::round_down_fair(alloc - 1, trials))
    }

    /// The largest fair allocation below `alloc` that needs strictly fewer
    /// instances of `gpus_per_instance` GPUs, if one exists.
    ///
    /// Cost under per-instance billing only changes at instance
    /// boundaries, so single-GPU fair decrements (e.g. 16 → 15 for a
    /// 1-trial stage) can show zero improvement and stall a purely
    /// ladder-based greedy search. This jump candidate lands directly on
    /// the next boundary.
    pub fn decrement_to_fewer_instances(
        alloc: u32,
        trials: u32,
        gpus_per_instance: u32,
    ) -> Option<u32> {
        let current = Self::effective_instances(alloc, trials, gpus_per_instance);
        let mut a = alloc;
        while let Some(next) = Self::decrement_fair(a, trials) {
            if Self::effective_instances(next, trials, gpus_per_instance) < current {
                return Some(next);
            }
            a = next;
        }
        None
    }
}

impl fmt::Display for AllocationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, g) in self.gpus_per_stage.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{g}")?;
        }
        write!(f, "] GPUs/stage")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ExperimentSpec {
        ExperimentSpec::from_stages(&[(32, 1), (10, 3), (3, 9), (1, 37)]).unwrap()
    }

    #[test]
    fn validate_accepts_structurally_sound_plans() {
        // Table 3's plan: 32, 20, 12, 8 GPUs.
        let p = AllocationPlan::new(vec![32, 20, 12, 8]);
        p.validate(&spec()).unwrap();
        assert!(p.is_fair(&spec()));
        // Waves: 8 GPUs for 32 trials (4 waves), 5 for 10, 3 for 3, 1 for 1.
        let p = AllocationPlan::new(vec![8, 5, 3, 1]);
        p.validate(&spec()).unwrap();
        assert!(p.is_fair(&spec()));
        // Uneven static plans are valid (GPUs idle) but not fair.
        let p = AllocationPlan::flat(24, 4);
        p.validate(&spec()).unwrap();
        assert!(!p.is_fair(&spec()));
    }

    #[test]
    fn validate_rejects_malformed_plans() {
        let s = spec();
        assert!(
            AllocationPlan::new(vec![32, 20, 12]).validate(&s).is_err(),
            "wrong length"
        );
        assert!(
            AllocationPlan::new(vec![0, 10, 3, 1]).validate(&s).is_err(),
            "zero alloc"
        );
    }

    #[test]
    fn unfair_plans_floor_their_per_trial_share() {
        let s = spec();
        // 48 GPUs over 32 trials → 1 GPU each, 16 idle.
        let p = AllocationPlan::new(vec![48, 10, 3, 1]);
        assert_eq!(p.gpus_per_trial(0, &s), 1);
        // 24 GPUs over 10 trials → 2 each, 4 idle.
        let p = AllocationPlan::flat(24, 4);
        assert_eq!(p.gpus_per_trial(1, &s), 2);
    }

    #[test]
    fn gpus_per_trial_divides_or_is_one() {
        let s = spec();
        let p = AllocationPlan::new(vec![64, 20, 12, 8]);
        assert_eq!(p.gpus_per_trial(0, &s), 2);
        assert_eq!(p.gpus_per_trial(1, &s), 2);
        assert_eq!(p.gpus_per_trial(2, &s), 4);
        assert_eq!(p.gpus_per_trial(3, &s), 8);
        let waves = AllocationPlan::new(vec![8, 5, 3, 1]);
        assert_eq!(waves.gpus_per_trial(0, &s), 1);
    }

    #[test]
    fn instance_math_rounds_up() {
        let p = AllocationPlan::new(vec![32, 20, 12, 8]);
        assert_eq!(p.instances(0, 4), 8);
        assert_eq!(p.instances(1, 4), 5);
        assert_eq!(p.instances(2, 8), 2);
    }

    #[test]
    fn round_down_fair_cases() {
        // Above the trial count: multiples of it.
        assert_eq!(AllocationPlan::round_down_fair(63, 10), 60);
        assert_eq!(AllocationPlan::round_down_fair(60, 10), 60);
        // Below: divisors.
        assert_eq!(AllocationPlan::round_down_fair(7, 10), 5);
        assert_eq!(AllocationPlan::round_down_fair(4, 10), 2);
        assert_eq!(AllocationPlan::round_down_fair(1, 10), 1);
        // Prime trial counts fall to 1 below the count.
        assert_eq!(AllocationPlan::round_down_fair(6, 7), 1);
    }

    #[test]
    fn decrement_fair_steps_down_through_fair_ladder() {
        // For 10 trials the fair ladder is …, 30, 20, 10, 5, 2, 1.
        let mut a = 30;
        let mut seen = vec![a];
        while let Some(next) = AllocationPlan::decrement_fair(a, 10) {
            assert!(next < a);
            a = next;
            seen.push(a);
        }
        assert_eq!(seen, vec![30, 20, 10, 5, 2, 1]);
    }

    #[test]
    fn decrement_at_one_is_none() {
        assert_eq!(AllocationPlan::decrement_fair(1, 10), None);
    }

    #[test]
    fn flat_plan_is_static() {
        assert!(AllocationPlan::flat(24, 4).is_static());
        assert!(!AllocationPlan::new(vec![32, 16, 8, 8]).is_static());
    }

    #[test]
    fn display_lists_stages() {
        let p = AllocationPlan::new(vec![32, 20]);
        assert_eq!(p.to_string(), "[32, 20] GPUs/stage");
    }
}
