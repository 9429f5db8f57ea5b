//! The experiment specification API (Fig. 6).
//!
//! An [`ExperimentSpec`] is the declarative contract between an
//! early-stopping algorithm and RubberBand: an ordered list of stages, each
//! saying how many trials run and how many *additional* iterations each of
//! them executes during that stage. Because the whole structure is known
//! before runtime, resource allocation can be planned offline (§3.1).

use rb_core::{RbError, Result};

/// One stage of an experiment: `num_trials` trials each advance by `iters`
/// iterations, then a synchronization barrier ranks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpec {
    /// Trials running during this stage.
    pub num_trials: u32,
    /// Additional training iterations each trial performs in this stage.
    pub iters: u64,
}

/// A declarative early-stopping experiment specification.
///
/// # Examples
///
/// The Fig. 6 API shape:
///
/// ```
/// use rb_hpo::spec::ExperimentSpec;
///
/// let spec = ExperimentSpec::empty()
///     .add_stage(81, 1)
///     .add_stage(27, 3)
///     .add_stage(9, 9)
///     .build()
///     .unwrap();
/// assert_eq!(spec.num_stages(), 3);
/// assert_eq!(spec.get_stage(1).unwrap(), (27, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentSpec {
    stages: Vec<StageSpec>,
}

/// Builder returned by [`ExperimentSpec::empty`].
#[derive(Debug, Clone, Default)]
pub struct ExperimentSpecBuilder {
    stages: Vec<StageSpec>,
}

impl ExperimentSpec {
    /// Starts an empty specification (Fig. 6's `EmptyExperimentSpec()`).
    pub fn empty() -> ExperimentSpecBuilder {
        ExperimentSpecBuilder::default()
    }

    /// Builds directly from stage tuples `(num_trials, iters)`.
    ///
    /// # Errors
    ///
    /// See [`ExperimentSpecBuilder::build`].
    pub fn from_stages(stages: &[(u32, u64)]) -> Result<Self> {
        let mut b = ExperimentSpec::empty();
        for &(n, i) in stages {
            b = b.add_stage(n, i);
        }
        b.build()
    }

    /// Number of stages (`|E|` in the paper).
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Returns `(num_trials, iters)` for stage `index` (Fig. 6's
    /// `get_stage`).
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidSpec`] when `index` is out of range.
    pub fn get_stage(&self, index: usize) -> Result<(u32, u64)> {
        self.stages
            .get(index)
            .map(|s| (s.num_trials, s.iters))
            .ok_or_else(|| {
                RbError::InvalidSpec(format!(
                    "stage {index} out of range (spec has {})",
                    self.stages.len()
                ))
            })
    }

    /// Iterates over the stages in order.
    pub fn stages(&self) -> impl Iterator<Item = &StageSpec> {
        self.stages.iter()
    }

    /// Trials in the first stage — the number of configurations sampled.
    pub fn initial_trials(&self) -> u32 {
        self.stages[0].num_trials
    }

    /// Total work in trial-iterations: `Σ num_trials · iters`. A measure of
    /// the job's size independent of parallelization. A user entry point
    /// for describing a spec; no library code calls it, and this module's
    /// tests pin it.
    pub fn total_trial_iters(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| u64::from(s.num_trials) * s.iters)
            .sum()
    }

    /// Cumulative iterations completed by a surviving trial after each
    /// stage; the final entry is the paper's `R`. A user entry point for
    /// describing a spec; no library code calls it, and the spec tests
    /// pin it against Table 3's epoch ranges.
    pub fn cumulative_iters(&self) -> Vec<u64> {
        let mut acc = 0;
        self.stages
            .iter()
            .map(|s| {
                acc += s.iters;
                acc
            })
            .collect()
    }

    /// Iterations the final survivor completes in total (`R`).
    pub fn max_iters(&self) -> u64 {
        self.stages.iter().map(|s| s.iters).sum()
    }

    /// Trials terminated at the end of stage `i` (the bottom performers).
    /// A user entry point for describing a spec; no library code calls
    /// it, and this module's tests pin it.
    pub fn terminated_after(&self, i: usize) -> u32 {
        let cur = self.stages[i].num_trials;
        let next = self.stages.get(i + 1).map(|s| s.num_trials).unwrap_or(0);
        cur - next
    }

    /// The residual specification from stage `start` onward: the suffix
    /// an online controller re-plans when stages `0..start` have already
    /// executed. Stage `start` of this spec becomes stage 0 of the
    /// residual; survivors carry their checkpointed progress, so the
    /// residual's iteration counts are unchanged (stage iterations are
    /// *additional* work, not cumulative).
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidSpec`] when `start` is out of range
    /// (there is no residual work once every stage has run).
    pub fn suffix(&self, start: usize) -> Result<ExperimentSpec> {
        if start >= self.stages.len() {
            return Err(RbError::InvalidSpec(format!(
                "suffix start {start} out of range (spec has {} stages)",
                self.stages.len()
            )));
        }
        // A suffix of a valid spec is valid: non-empty by the bound
        // check, and per-stage/monotonicity invariants are inherited.
        Ok(ExperimentSpec {
            stages: self.stages[start..].to_vec(),
        })
    }
}

impl ExperimentSpecBuilder {
    /// Appends a stage (Fig. 6's `add_stage(num_trials=…, iters=…)`).
    pub fn add_stage(mut self, num_trials: u32, iters: u64) -> Self {
        self.stages.push(StageSpec { num_trials, iters });
        self
    }

    /// Validates and builds the specification.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidSpec`] if there are no stages, any stage
    /// has zero trials or zero iterations, or trial counts ever increase
    /// (early stopping only terminates trials; it never adds more, §3.1).
    pub fn build(self) -> Result<ExperimentSpec> {
        if self.stages.is_empty() {
            return Err(RbError::InvalidSpec("no stages".into()));
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.num_trials == 0 {
                return Err(RbError::InvalidSpec(format!("stage {i} has zero trials")));
            }
            if s.iters == 0 {
                return Err(RbError::InvalidSpec(format!(
                    "stage {i} has zero iterations"
                )));
            }
        }
        for w in self.stages.windows(2) {
            if w[1].num_trials > w[0].num_trials {
                return Err(RbError::InvalidSpec(format!(
                    "trial count increases from {} to {}",
                    w[0].num_trials, w[1].num_trials
                )));
            }
        }
        Ok(ExperimentSpec {
            stages: self.stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ExperimentSpec {
        ExperimentSpec::from_stages(&[(32, 1), (10, 3), (3, 9), (1, 37)]).unwrap()
    }

    #[test]
    fn accessors_match_construction() {
        let s = spec();
        assert_eq!(s.num_stages(), 4);
        assert_eq!(s.get_stage(0).unwrap(), (32, 1));
        assert_eq!(s.get_stage(3).unwrap(), (1, 37));
        assert!(s.get_stage(4).is_err());
        assert_eq!(s.initial_trials(), 32);
    }

    #[test]
    fn cumulative_iters_matches_table3_epoch_ranges() {
        // Table 3: epoch boundaries 1, 4, 13, 50.
        assert_eq!(spec().cumulative_iters(), vec![1, 4, 13, 50]);
        assert_eq!(spec().max_iters(), 50);
    }

    #[test]
    fn total_work_sums_stage_products() {
        // 32·1 + 10·3 + 3·9 + 1·37 = 126.
        assert_eq!(spec().total_trial_iters(), 126);
    }

    #[test]
    fn terminated_counts() {
        let s = spec();
        assert_eq!(s.terminated_after(0), 22);
        assert_eq!(s.terminated_after(1), 7);
        assert_eq!(s.terminated_after(2), 2);
        assert_eq!(s.terminated_after(3), 1);
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        assert!(ExperimentSpec::empty().build().is_err());
        assert!(ExperimentSpec::from_stages(&[(0, 5)]).is_err());
        assert!(ExperimentSpec::from_stages(&[(4, 0)]).is_err());
        assert!(ExperimentSpec::from_stages(&[(4, 1), (8, 1)]).is_err());
    }

    #[test]
    fn single_stage_spec_is_valid() {
        // Plain random search (no early stopping) is a one-stage spec.
        let s = ExperimentSpec::from_stages(&[(16, 100)]).unwrap();
        assert_eq!(s.num_stages(), 1);
        assert_eq!(s.total_trial_iters(), 1600);
        assert_eq!(s.terminated_after(0), 16);
    }

    #[test]
    fn suffix_truncates_completed_stages() {
        let s = spec();
        let tail = s.suffix(1).unwrap();
        assert_eq!(tail.num_stages(), 3);
        assert_eq!(tail.get_stage(0).unwrap(), (10, 3));
        assert_eq!(tail.get_stage(2).unwrap(), (1, 37));
        assert_eq!(tail.total_trial_iters(), 10 * 3 + 3 * 9 + 37);
        // Whole spec and single-stage tail are both valid suffixes.
        assert_eq!(s.suffix(0).unwrap(), s);
        assert_eq!(s.suffix(3).unwrap().num_stages(), 1);
        // Past the end there is no residual work.
        assert!(s.suffix(4).is_err());
    }

    #[test]
    fn constant_trial_count_is_allowed() {
        // Stages that keep all trials (η = 1 segments) are legal.
        let s = ExperimentSpec::from_stages(&[(8, 1), (8, 2), (4, 4)]).unwrap();
        assert_eq!(s.terminated_after(0), 0);
    }
}
