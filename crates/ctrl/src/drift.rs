//! The drift monitor: observed stage spans vs the plan's Monte-Carlo
//! envelope.
//!
//! The planner's model is fitted once, before the job starts; reality can
//! diverge from it (mispredicted scaling, a slow dataset shard, noisy
//! neighbours, spot churn). The monitor compares each completed stage's
//! barrier-to-barrier span against the per-stage quantiles exported by
//! the simulator ([`Simulator::stage_quantiles`]) and maintains an
//! exponentially-weighted estimate of the *drift factor* — the ratio of
//! observed to predicted stage time. A factor near 1.0 means the model is
//! calibrated; a sustained factor beyond the configured threshold means
//! every remaining prediction is suspect and the plan should be
//! reconsidered.
//!
//! [`Simulator::stage_quantiles`]: rb_sim::Simulator::stage_quantiles

use rb_core::SimDuration;
use rb_sim::StageQuantiles;

/// Drift-detection knobs.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Re-plan when the smoothed drift factor leaves
    /// `[1/replan_threshold, replan_threshold]`. Must be > 1.
    pub replan_threshold: f64,
}

/// EWMA smoothing weight for new observations: each stage moves the
/// drift factor halfway to its own ratio, so one outlier stage counts
/// for half and sustained drift for nearly all of it.
const EWMA_ALPHA: f64 = 0.5;

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            // Wide enough that the executor's ordinary model mismatch
            // (noise, provisioning jitter) stays inside the band.
            replan_threshold: 1.15,
        }
    }
}

/// One barrier's drift reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftObservation {
    /// The completed stage (absolute index into the original spec).
    pub stage: usize,
    /// Observed barrier-to-barrier span, in seconds.
    pub observed_secs: f64,
    /// The model's mean span for this stage.
    pub predicted_mean_secs: f64,
    /// The model's p90 span for this stage.
    pub predicted_p90_secs: f64,
    /// `observed / predicted_mean` for this stage alone.
    pub ratio: f64,
    /// The smoothed drift factor after folding this observation in.
    pub drift_factor: f64,
    /// True when the observation fell outside the p10–p90 envelope.
    pub outside_envelope: bool,
}

/// Tracks observed-vs-predicted stage spans across a job.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    config: DriftConfig,
    /// Per-stage prediction envelope, absolute stage index.
    expected: Vec<StageQuantiles>,
    factor: f64,
    observations: Vec<DriftObservation>,
}

impl DriftMonitor {
    /// Creates a monitor over the plan's per-stage envelope (one entry
    /// per stage of the full spec, in order).
    pub fn new(expected: Vec<StageQuantiles>, config: DriftConfig) -> Self {
        DriftMonitor {
            config,
            expected,
            factor: 1.0,
            observations: Vec::new(),
        }
    }

    /// Folds a completed stage's observed span into the drift estimate.
    ///
    /// Contract: the EWMA factor is only ever updated with a **finite**
    /// ratio, so it stays finite forever. Three cases record a neutral
    /// observation (ratio 1.0) and leave the estimate untouched:
    ///
    /// * stages without an envelope entry (index out of range),
    /// * envelopes with `mean_secs <= 0` (a zero-length stage — e.g. a
    ///   degenerate spec with zero iterations — would otherwise divide
    ///   by zero and poison the factor with inf/NaN permanently),
    /// * a non-finite ratio from a non-finite observed span.
    pub fn observe(&mut self, stage: usize, observed: SimDuration) -> DriftObservation {
        let observed_secs = observed.as_secs_f64();
        let obs = match self.expected.get(stage) {
            Some(q) if q.mean_secs > 0.0 && (observed_secs / q.mean_secs).is_finite() => {
                let ratio = observed_secs / q.mean_secs;
                self.factor += EWMA_ALPHA * (ratio - self.factor);
                DriftObservation {
                    stage,
                    observed_secs,
                    predicted_mean_secs: q.mean_secs,
                    predicted_p90_secs: q.p90_secs,
                    ratio,
                    drift_factor: self.factor,
                    outside_envelope: observed_secs < q.p10_secs || observed_secs > q.p90_secs,
                }
            }
            _ => DriftObservation {
                stage,
                observed_secs,
                predicted_mean_secs: 0.0,
                predicted_p90_secs: 0.0,
                ratio: 1.0,
                drift_factor: self.factor,
                outside_envelope: false,
            },
        };
        self.observations.push(obs);
        obs
    }

    /// Replaces the envelope for stages `start..` with freshly computed
    /// quantiles (whose `stage` fields are relative to `start`) — called
    /// after a re-plan changes the remaining allocation.
    pub fn retarget(&mut self, start: usize, quantiles: Vec<StageQuantiles>) {
        for q in quantiles {
            let absolute = start + q.stage;
            if let Some(slot) = self.expected.get_mut(absolute) {
                *slot = StageQuantiles {
                    stage: absolute,
                    ..q
                };
            }
        }
    }

    /// Folds a projected ratio into the EWMA without recording a stage
    /// observation — used by the mid-stage watchdog, whose evidence is a
    /// partial stage rather than a completed barrier span. Non-finite or
    /// non-positive ratios are ignored (same contract as
    /// [`DriftMonitor::observe`]).
    pub fn nudge(&mut self, ratio: f64) {
        if ratio.is_finite() && ratio > 0.0 {
            self.factor += EWMA_ALPHA * (ratio - self.factor);
        }
    }

    /// Marks one stage's envelope as unusable so its eventual barrier
    /// observation takes the neutral path. Called after a watchdog fires
    /// mid-stage: the barrier-to-barrier span of that stage now includes
    /// a checkpoint/re-plan detour and would double-count drift the
    /// watchdog already folded in via [`DriftMonitor::nudge`].
    pub fn invalidate(&mut self, stage: usize) {
        if let Some(slot) = self.expected.get_mut(stage) {
            slot.mean_secs = 0.0;
        }
    }

    /// The per-stage envelope currently in force (absolute stage index).
    pub fn expected(&self) -> &[StageQuantiles] {
        &self.expected
    }

    /// The smoothed observed/predicted ratio (1.0 = calibrated).
    pub fn drift_factor(&self) -> f64 {
        self.factor
    }

    /// Resets the smoothed factor (used after a profile refit absorbs
    /// the observed drift into the model itself — keeping the old factor
    /// would dilate deadlines twice for the same slowdown).
    pub fn reset_factor(&mut self, factor: f64) {
        if factor.is_finite() && factor > 0.0 {
            self.factor = factor;
        }
    }

    /// True when the smoothed factor is outside the configured band.
    pub fn drifted(&self) -> bool {
        let t = self.config.replan_threshold.max(1.0);
        self.factor > t || self.factor < 1.0 / t
    }

    /// Every reading so far, in barrier order.
    pub fn observations(&self) -> &[DriftObservation] {
        &self.observations
    }

    /// Consumes the monitor, returning its readings.
    pub fn into_observations(self) -> Vec<DriftObservation> {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(means: &[f64]) -> Vec<StageQuantiles> {
        means
            .iter()
            .enumerate()
            .map(|(stage, &m)| StageQuantiles {
                stage,
                samples: 16,
                mean_secs: m,
                p10_secs: 0.9 * m,
                p50_secs: m,
                p90_secs: 1.1 * m,
            })
            .collect()
    }

    #[test]
    fn calibrated_observations_do_not_trip() {
        let mut mon = DriftMonitor::new(envelope(&[100.0, 200.0]), DriftConfig::default());
        let o = mon.observe(0, SimDuration::from_secs_f64(103.0));
        assert!(!mon.drifted());
        assert!(!o.outside_envelope);
        mon.observe(1, SimDuration::from_secs_f64(195.0));
        assert!(!mon.drifted());
        assert!((mon.drift_factor() - 1.0).abs() < 0.05);
    }

    #[test]
    fn sustained_slowdown_trips_the_threshold() {
        let mut mon = DriftMonitor::new(envelope(&[100.0, 100.0]), DriftConfig::default());
        let o = mon.observe(0, SimDuration::from_secs_f64(150.0));
        assert!(o.outside_envelope);
        // α = 0.5: one 1.5× stage lifts the factor to 1.25 > 1.15.
        assert!(mon.drifted());
        assert!((mon.drift_factor() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn speedup_drift_trips_symmetrically() {
        let mut mon = DriftMonitor::new(envelope(&[100.0]), DriftConfig::default());
        // α = 0.5: one 0.6× stage drops the factor to 0.8 < 1/1.15.
        mon.observe(0, SimDuration::from_secs_f64(60.0));
        assert!(mon.drift_factor() < 1.0 / 1.15);
        assert!(mon.drifted(), "running fast is drift too");
    }

    #[test]
    fn retarget_replaces_the_tail_envelope() {
        let mut mon = DriftMonitor::new(envelope(&[100.0, 100.0, 100.0]), DriftConfig::default());
        // Re-plan after stage 0: stages 1..3 now expect 50 s.
        let fresh = envelope(&[50.0, 50.0]);
        mon.retarget(1, fresh);
        let o = mon.observe(1, SimDuration::from_secs_f64(50.0));
        assert!((o.ratio - 1.0).abs() < 1e-12);
        assert_eq!(o.predicted_mean_secs, 50.0);
        // Absolute stage indices were rewritten.
        let o2 = mon.observe(2, SimDuration::from_secs_f64(50.0));
        assert_eq!(o2.predicted_mean_secs, 50.0);
    }

    #[test]
    fn zero_length_stage_does_not_poison_the_factor() {
        // A degenerate envelope (mean 0) must not divide the observation
        // into inf/NaN: regression for the EWMA-poisoning bug.
        let mut mon = DriftMonitor::new(envelope(&[0.0, 100.0]), DriftConfig::default());
        let o = mon.observe(0, SimDuration::from_secs_f64(42.0));
        assert_eq!(o.ratio, 1.0);
        assert!(mon.drift_factor().is_finite());
        assert_eq!(mon.drift_factor(), 1.0);
        assert!(!mon.drifted());
        // The monitor still works on later, well-formed stages.
        mon.observe(1, SimDuration::from_secs_f64(150.0));
        assert!(mon.drift_factor().is_finite());
        assert!(mon.drifted());
    }

    #[test]
    fn non_finite_ratio_is_clamped_to_neutral() {
        // SimDuration saturates rather than carrying inf, so the worst
        // observable span is huge-but-finite; the factor must stay
        // finite through it. A subnormal envelope mean that would push
        // the ratio over f64::MAX is clamped to neutral.
        let mut mon = DriftMonitor::new(envelope(&[100.0]), DriftConfig::default());
        let o = mon.observe(0, SimDuration::from_millis(u64::MAX));
        assert!(o.ratio.is_finite());
        assert!(mon.drift_factor().is_finite());

        let mut tiny = envelope(&[100.0]);
        tiny[0].mean_secs = f64::MIN_POSITIVE;
        let mut mon = DriftMonitor::new(tiny, DriftConfig::default());
        let o = mon.observe(0, SimDuration::from_millis(u64::MAX));
        assert_eq!(o.ratio, 1.0, "overflowing ratio takes the neutral path");
        assert!(mon.drift_factor().is_finite());
        assert_eq!(mon.drift_factor(), 1.0);
    }

    #[test]
    fn nudge_moves_the_factor_and_rejects_non_finite() {
        let mut mon = DriftMonitor::new(envelope(&[100.0]), DriftConfig::default());
        mon.nudge(2.0);
        assert!((mon.drift_factor() - 1.5).abs() < 1e-12);
        mon.nudge(f64::NAN);
        mon.nudge(f64::INFINITY);
        mon.nudge(-1.0);
        assert!((mon.drift_factor() - 1.5).abs() < 1e-12);
        assert!(mon.observations().is_empty(), "nudges are not observations");
    }

    #[test]
    fn invalidate_makes_a_stage_neutral() {
        let mut mon = DriftMonitor::new(envelope(&[100.0, 100.0]), DriftConfig::default());
        mon.invalidate(0);
        let o = mon.observe(0, SimDuration::from_secs_f64(1e6));
        assert_eq!(o.ratio, 1.0);
        assert_eq!(mon.drift_factor(), 1.0);
    }

    #[test]
    fn unknown_stage_is_neutral() {
        let mut mon = DriftMonitor::new(envelope(&[100.0]), DriftConfig::default());
        let before = mon.drift_factor();
        let o = mon.observe(7, SimDuration::from_secs_f64(1e6));
        assert_eq!(o.ratio, 1.0);
        assert_eq!(mon.drift_factor(), before);
        assert!(!mon.drifted());
    }
}
