//! Successive Halving and Hyperband specification generators.
//!
//! Successive Halving (SHA, Jamieson & Talwalkar) runs `n` trials in
//! stages; after each stage the best `1/η` survive and the per-trial work
//! grows by `η`. Hyperband hedges over SHA's aggressiveness by running a
//! collection of SHA *brackets* with different trade-offs — expressed here,
//! as in the paper (Fig. 6), as a multi-job: one [`ExperimentSpec`] per
//! bracket.

use crate::spec::ExperimentSpec;
use rb_core::{RbError, Result, TrialId};

/// Parameters of a Successive Halving job, matching the paper's notation
/// (§6): `n` initial trials, `r` minimum iterations, `R` maximum (total)
/// iterations for the surviving trial, and termination rate `eta`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShaParams {
    /// Initial number of trials (`n`).
    pub n: u32,
    /// Iterations assigned to every trial in the first stage (`r`).
    pub r: u64,
    /// Total iterations the final survivor reaches (`R`).
    pub big_r: u64,
    /// Fraction kept per stage is `1/eta` (`η`, fixed to 2 in most paper
    /// experiments).
    pub eta: u32,
    /// Optional cap on the number of stages. Hyperband bracket `s` runs
    /// exactly `s + 1` stages; plain SHA leaves this `None` and halves
    /// until one trial remains.
    pub max_stages: Option<usize>,
}

impl ShaParams {
    /// Convenience constructor using the paper's `SHA(n, r, R)` notation
    /// with the default `η = 2`.
    pub fn new(n: u32, r: u64, big_r: u64) -> Self {
        ShaParams {
            n,
            r,
            big_r,
            eta: 2,
            max_stages: None,
        }
    }

    /// Sets the termination rate `η`.
    pub fn with_eta(mut self, eta: u32) -> Self {
        self.eta = eta;
        self
    }

    /// Stable one-line description in the paper's notation, for tables
    /// and trace fields: `SHA(n=32, r=1, R=50, eta=3)`, with `/s` for a
    /// stage-capped Hyperband bracket.
    pub fn describe(&self) -> String {
        match self.max_stages {
            Some(s) => format!(
                "SHA(n={}, r={}, R={}, eta={})/{}",
                self.n, self.r, self.big_r, self.eta, s
            ),
            None => format!(
                "SHA(n={}, r={}, R={}, eta={})",
                self.n, self.r, self.big_r, self.eta
            ),
        }
    }

    /// Generates the stage-by-stage [`ExperimentSpec`].
    ///
    /// The ladder is *work-driven*: stage `k` assigns `r·η^k` additional
    /// iterations (the final stage absorbs whatever remains so the
    /// survivor ends at exactly `R` total iterations — e.g. Table 3's
    /// `13→50` final stage for `SHA(n=32, r=1, R=50, η=3)`), while the
    /// trial count `⌊n/η^k⌋` floors at one. Ladders whose trial count hits
    /// one early merge the single-trial tail into one final stage; ladders
    /// with many trials may finish with more than one survivor (`R` is the
    /// work given "to at least 1 trial", §6).
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidSpec`] if `n` or `r` is zero, `η < 2`,
    /// `R < r`, or `max_stages` is zero.
    pub fn generate(&self) -> Result<ExperimentSpec> {
        if self.n == 0 {
            return Err(RbError::InvalidSpec("SHA needs n >= 1".into()));
        }
        if self.r == 0 {
            return Err(RbError::InvalidSpec("SHA needs r >= 1".into()));
        }
        if self.eta < 2 {
            return Err(RbError::InvalidSpec(format!(
                "SHA needs eta >= 2, got {}",
                self.eta
            )));
        }
        if self.big_r < self.r {
            return Err(RbError::InvalidSpec(format!(
                "SHA needs R >= r, got R = {} < r = {}",
                self.big_r, self.r
            )));
        }
        if self.max_stages == Some(0) {
            return Err(RbError::InvalidSpec("max_stages must be >= 1".into()));
        }
        let mut stages: Vec<(u32, u64)> = Vec::new();
        let mut trials = self.n;
        let mut planned = self.r;
        let mut cumulative = 0u64;
        loop {
            let remaining = self.big_r - cumulative;
            let is_last = planned >= remaining || self.max_stages == Some(stages.len() + 1);
            let add = if is_last { remaining } else { planned };
            // Merge a single-trial rung into a preceding single-trial stage.
            match stages.last_mut() {
                Some(last) if last.0 == 1 && trials == 1 => last.1 += add,
                _ => stages.push((trials, add)),
            }
            cumulative += add;
            if is_last {
                break;
            }
            trials = (trials / self.eta).max(1);
            planned = planned.saturating_mul(u64::from(self.eta));
        }
        ExperimentSpec::from_stages(&stages)
    }
}

/// Generates the Hyperband bracket collection for a maximum resource `R`,
/// minimum resource `r`, and rate `η`: bracket `s` runs
/// `SHA(n_s, R/η^s, R, η)` with `n_s = ⌈(s_max+1)·η^s / (s+1)⌉`.
///
/// Returns the brackets most-aggressive first (most trials, least initial
/// work). A Hyperband job is executed as a multi-job: each bracket is an
/// independent spec whose plans can be optimized separately.
///
/// # Errors
///
/// Returns [`RbError::InvalidSpec`] for zero `r`/`R`, `η < 2`, or `R < r`.
pub fn hyperband_brackets(
    r: u64,
    big_r: u64,
    eta: u32,
) -> Result<Vec<(ShaParams, ExperimentSpec)>> {
    if r == 0 || big_r < r {
        return Err(RbError::InvalidSpec(format!(
            "hyperband needs 0 < r <= R, got r={r}, R={big_r}"
        )));
    }
    if eta < 2 {
        return Err(RbError::InvalidSpec(format!("eta must be >= 2, got {eta}")));
    }
    let s_max = ((big_r as f64 / r as f64).ln() / f64::from(eta).ln()).floor() as u32;
    let mut brackets = Vec::new();
    for s in (0..=s_max).rev() {
        let eta_s = f64::from(eta).powi(s as i32);
        let n = (f64::from(s_max + 1) * eta_s / f64::from(s + 1)).ceil() as u32;
        // The bracket's first-stage work is R/η^s (at least r).
        let r0 = ((big_r as f64 / eta_s).floor() as u64).max(r);
        let params = ShaParams {
            n,
            r: r0,
            big_r,
            eta,
            max_stages: Some(s as usize + 1),
        };
        brackets.push((params, params.generate()?));
    }
    Ok(brackets)
}

/// Ranks stage results in place, best first, and keeps the `keep` best
/// trials (highest metric first). Ties break toward the lower trial id
/// so that promotion is deterministic. In place, so a caller that ranks
/// every stage reuses one buffer.
///
/// This is the synchronization-barrier step of Fig. 3: the top `1/η`
/// fraction survives into the next stage.
pub fn select_survivors(results: &mut Vec<(TrialId, f64)>, keep: usize) {
    results.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    results.truncate(keep);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_uses_the_paper_notation() {
        let params = ShaParams::new(32, 1, 50).with_eta(3);
        assert_eq!(params.describe(), "SHA(n=32, r=1, R=50, eta=3)");
        assert_eq!(
            ShaParams {
                max_stages: Some(2),
                ..params
            }
            .describe(),
            "SHA(n=32, r=1, R=50, eta=3)/2"
        );
    }

    #[test]
    fn table3_spec_from_paper_params() {
        // SHA(n=32, r=1, R=50, η=3) → stages (32,1), (10,3), (3,9), (1,37);
        // epoch boundaries 0-1, 1-4, 4-13, 13-50 (Table 3).
        let spec = ShaParams::new(32, 1, 50).with_eta(3).generate().unwrap();
        let stages: Vec<(u32, u64)> = (0..spec.num_stages())
            .map(|i| spec.get_stage(i).unwrap())
            .collect();
        assert_eq!(stages, vec![(32, 1), (10, 3), (3, 9), (1, 37)]);
        assert_eq!(spec.cumulative_iters(), vec![1, 4, 13, 50]);
    }

    #[test]
    fn fig9_spec_from_paper_params() {
        // SHA(n=64, r=4, R=508, η=2) → 7 stages, trials 64..1, additional
        // work 4, 8, …, 256; survivor ends at 4·(2⁷−1) = 508.
        let spec = ShaParams::new(64, 4, 508).generate().unwrap();
        assert_eq!(spec.num_stages(), 7);
        let stages: Vec<(u32, u64)> = (0..7).map(|i| spec.get_stage(i).unwrap()).collect();
        assert_eq!(
            stages,
            vec![
                (64, 4),
                (32, 8),
                (16, 16),
                (8, 32),
                (4, 64),
                (2, 128),
                (1, 256)
            ]
        );
        assert_eq!(spec.max_iters(), 508);
    }

    #[test]
    fn fig12_spec_survivor_reaches_r() {
        // SHA(n=512, r=4, R=4096, η=2).
        let spec = ShaParams::new(512, 4, 4096).generate().unwrap();
        assert_eq!(spec.num_stages(), 10);
        assert_eq!(spec.initial_trials(), 512);
        assert_eq!(spec.max_iters(), 4096);
    }

    #[test]
    fn non_power_of_eta_trial_counts_floor() {
        let spec = ShaParams::new(100, 1, 1000).with_eta(3).generate().unwrap();
        let trials: Vec<u32> = spec.stages().map(|s| s.num_trials).collect();
        assert_eq!(trials, vec![100, 33, 11, 3, 1]);
    }

    #[test]
    fn invalid_params_are_rejected() {
        assert!(ShaParams::new(0, 1, 10).generate().is_err());
        assert!(ShaParams::new(8, 0, 10).generate().is_err());
        assert!(ShaParams::new(8, 1, 10).with_eta(1).generate().is_err());
        assert!(ShaParams::new(8, 10, 5).generate().is_err(), "R < r");
    }

    #[test]
    fn small_r_clips_the_ladder_with_multiple_survivors() {
        // SHA(n=64, r=4, R=100, η=2): the work budget runs out while four
        // trials remain — "R is assigned to at least 1 trial" (§6).
        let spec = ShaParams::new(64, 4, 100).generate().unwrap();
        let stages: Vec<(u32, u64)> = spec.stages().map(|s| (s.num_trials, s.iters)).collect();
        assert_eq!(stages, vec![(64, 4), (32, 8), (16, 16), (8, 32), (4, 40)]);
        assert_eq!(spec.max_iters(), 100);
    }

    #[test]
    fn single_trial_tail_is_merged() {
        // n=100, η=3: trials floor to 1 at rung 4; rungs 4–6 (work 81,
        // 243, and the 636 remainder) merge into one 960-iteration final
        // stage rather than three barriers around a lone trial.
        let spec = ShaParams::new(100, 1, 1000).with_eta(3).generate().unwrap();
        assert_eq!(spec.num_stages(), 5);
        assert_eq!(spec.get_stage(4).unwrap(), (1, 960));
        assert_eq!(spec.max_iters(), 1000);
    }

    #[test]
    fn single_trial_sha_is_one_stage() {
        let spec = ShaParams::new(1, 4, 100).generate().unwrap();
        assert_eq!(spec.num_stages(), 1);
        assert_eq!(spec.get_stage(0).unwrap(), (1, 100));
    }

    #[test]
    fn hyperband_brackets_cover_aggressiveness_spectrum() {
        let brackets = hyperband_brackets(1, 81, 3).unwrap();
        // s_max = 4 → 5 brackets.
        assert_eq!(brackets.len(), 5);
        // First bracket: most trials, minimal initial work.
        let (p0, s0) = &brackets[0];
        assert_eq!(p0.n, 81);
        assert_eq!(s0.get_stage(0).unwrap().1, 1);
        // Last bracket: a single stage running few trials to completion.
        let (pl, sl) = &brackets[brackets.len() - 1];
        assert_eq!(pl.n, 5);
        assert_eq!(sl.num_stages(), 1);
        assert_eq!(sl.get_stage(0).unwrap(), (5, 81));
        // Every bracket's survivor reaches R.
        for (_, s) in &brackets {
            assert_eq!(s.max_iters(), 81);
        }
    }

    #[test]
    fn hyperband_rejects_bad_params() {
        assert!(hyperband_brackets(0, 81, 3).is_err());
        assert!(hyperband_brackets(10, 5, 3).is_err());
        assert!(hyperband_brackets(1, 81, 1).is_err());
    }

    /// The ids [`select_survivors`] keeps.
    fn survivors(mut results: Vec<(TrialId, f64)>, keep: usize) -> Vec<TrialId> {
        select_survivors(&mut results, keep);
        results.into_iter().map(|(id, _)| id).collect()
    }

    #[test]
    fn survivors_are_top_k_by_metric() {
        let results = vec![
            (TrialId::new(0), 0.70),
            (TrialId::new(1), 0.90),
            (TrialId::new(2), 0.80),
            (TrialId::new(3), 0.60),
        ];
        assert_eq!(
            survivors(results, 2),
            vec![TrialId::new(1), TrialId::new(2)]
        );
    }

    #[test]
    fn survivor_ties_break_by_id() {
        let results = vec![
            (TrialId::new(5), 0.8),
            (TrialId::new(2), 0.8),
            (TrialId::new(9), 0.8),
        ];
        assert_eq!(
            survivors(results, 2),
            vec![TrialId::new(2), TrialId::new(5)]
        );
    }

    #[test]
    fn survivors_handles_nan_and_overflow_keep() {
        let results = vec![(TrialId::new(0), f64::NAN), (TrialId::new(1), 0.5)];
        // NaN ranks as equal; selection still returns `keep` items
        // deterministically and never panics.
        let s = survivors(results, 5);
        assert_eq!(s.len(), 2);
    }
}
