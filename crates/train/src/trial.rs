//! The trial state machine.
//!
//! A trial trains one hyperparameter configuration. The scheduler may
//! start, pause (checkpoint), resume (restore, possibly on different
//! resources) or terminate it between iterations (§3, §5). The state
//! machine enforces those lifecycle rules; training progress itself is
//! delegated to [`TaskModel`].

use crate::task::{Curve, TaskModel};
use rb_core::{RbError, Result, TrialId};
use rb_hpo::Config;

/// Lifecycle state of a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialStatus {
    /// Created but never scheduled.
    Pending,
    /// Currently training on some allocation.
    Running,
    /// Checkpointed and waiting (between stages, or displaced).
    Paused,
    /// Finished all assigned work.
    Completed,
    /// Early-stopped by the tuning algorithm.
    Terminated,
}

/// One observed metric point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricPoint {
    /// Cumulative work units completed when the metric was observed.
    pub iters: u64,
    /// Observed validation accuracy.
    pub accuracy: f64,
}

/// A trial: configuration, progress, metric history and lifecycle state.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// The trial's identity.
    pub id: TrialId,
    /// The hyperparameter configuration under evaluation.
    pub config: Config,
    /// Seed for this trial's evaluation-noise stream.
    pub seed: u64,
    status: TrialStatus,
    iters_done: u64,
    history: Vec<MetricPoint>,
}

impl Trial {
    /// Creates a pending trial.
    pub fn new(id: TrialId, config: Config, seed: u64) -> Self {
        Trial {
            id,
            config,
            seed,
            status: TrialStatus::Pending,
            iters_done: 0,
            history: Vec::new(),
        }
    }

    /// Current lifecycle state.
    pub fn status(&self) -> TrialStatus {
        self.status
    }

    /// Cumulative work units completed.
    pub fn iters_done(&self) -> u64 {
        self.iters_done
    }

    /// The full metric history, oldest first.
    pub fn history(&self) -> &[MetricPoint] {
        &self.history
    }

    /// The most recent observed accuracy, if any evaluation has happened.
    pub fn latest_accuracy(&self) -> Option<f64> {
        self.history.last().map(|p| p.accuracy)
    }

    /// The best observed accuracy so far.
    pub fn best_accuracy(&self) -> Option<f64> {
        self.history
            .iter()
            .map(|p| p.accuracy)
            .fold(None, |best, a| Some(best.map_or(a, |b: f64| b.max(a))))
    }

    /// True if the trial can still do work.
    pub fn is_live(&self) -> bool {
        matches!(
            self.status,
            TrialStatus::Pending | TrialStatus::Running | TrialStatus::Paused
        )
    }

    /// Transitions to `Running`.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Execution`] unless the trial is pending or
    /// paused.
    pub fn start(&mut self) -> Result<()> {
        match self.status {
            TrialStatus::Pending | TrialStatus::Paused => {
                self.status = TrialStatus::Running;
                Ok(())
            }
            s => Err(RbError::Execution(format!(
                "cannot start {} from {s:?}",
                self.id
            ))),
        }
    }

    /// Transitions to `Paused` (the scheduler checkpointed it).
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Execution`] unless the trial is running.
    pub fn pause(&mut self) -> Result<()> {
        match self.status {
            TrialStatus::Running => {
                self.status = TrialStatus::Paused;
                Ok(())
            }
            s => Err(RbError::Execution(format!(
                "cannot pause {} from {s:?}",
                self.id
            ))),
        }
    }

    /// Marks the trial as having finished all its assigned work.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Execution`] unless the trial is running or
    /// paused.
    pub fn complete(&mut self) -> Result<()> {
        match self.status {
            TrialStatus::Running | TrialStatus::Paused => {
                self.status = TrialStatus::Completed;
                Ok(())
            }
            s => Err(RbError::Execution(format!(
                "cannot complete {} from {s:?}",
                self.id
            ))),
        }
    }

    /// Early-stops the trial (bottom performer at a barrier).
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Execution`] if the trial already finished.
    pub fn terminate(&mut self) -> Result<()> {
        match self.status {
            TrialStatus::Completed | TrialStatus::Terminated => Err(RbError::Execution(format!(
                "cannot terminate {} from {:?}",
                self.id, self.status
            ))),
            _ => {
                self.status = TrialStatus::Terminated;
                Ok(())
            }
        }
    }

    /// Advances the trial by `units` work units under `task`, recording
    /// one metric observation at the end (training APIs evaluate at
    /// iteration boundaries, §3). Returns the observed accuracy.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Execution`] unless the trial is running.
    pub fn advance(&mut self, task: &TaskModel, units: u64) -> Result<f64> {
        self.advance_on(&task.curve(&self.config), units)
    }

    /// [`Trial::advance`] on this trial's already-resolved learning curve
    /// ([`TaskModel::curve`] of its configuration), for callers that
    /// advance one trial many times.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Execution`] unless the trial is running.
    pub fn advance_on(&mut self, curve: &Curve, units: u64) -> Result<f64> {
        if self.status != TrialStatus::Running {
            return Err(RbError::Execution(format!(
                "cannot train {}: status {:?}",
                self.id, self.status
            )));
        }
        self.iters_done += units;
        let acc = curve.accuracy(self.iters_done, self.seed);
        self.history.push(MetricPoint {
            iters: self.iters_done,
            accuracy: acc,
        });
        Ok(acc)
    }

    /// Reserves room for at least `additional` more metric observations,
    /// so a caller that knows how many evaluations lie ahead grows the
    /// history at most once for them.
    pub fn reserve_history(&mut self, additional: usize) {
        self.history.reserve(additional);
    }

    /// Restores progress and history from a checkpoint snapshot (used by
    /// the checkpoint store; not public API for schedulers).
    pub(crate) fn restore_progress(&mut self, iters_done: u64, history: Vec<MetricPoint>) {
        self.iters_done = iters_done;
        self.history = history;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::resnet101_cifar10;

    fn trial() -> Trial {
        Trial::new(TrialId::new(0), Config::new().with_f64("lr", 0.1), 42)
    }

    #[test]
    fn lifecycle_happy_path() {
        let t = resnet101_cifar10();
        let mut tr = trial();
        assert_eq!(tr.status(), TrialStatus::Pending);
        tr.start().unwrap();
        tr.advance(&t, 1).unwrap();
        tr.pause().unwrap();
        tr.start().unwrap();
        tr.advance(&t, 3).unwrap();
        assert_eq!(tr.iters_done(), 4);
        tr.complete().unwrap();
        assert_eq!(tr.status(), TrialStatus::Completed);
        assert!(!tr.is_live());
    }

    #[test]
    fn history_accumulates_monotonic_iters() {
        let t = resnet101_cifar10();
        let mut tr = trial();
        tr.start().unwrap();
        for units in [1, 3, 9] {
            tr.advance(&t, units).unwrap();
        }
        let iters: Vec<u64> = tr.history().iter().map(|p| p.iters).collect();
        assert_eq!(iters, vec![1, 4, 13]);
        assert!(tr.latest_accuracy().is_some());
        assert!(tr.best_accuracy().unwrap() >= tr.history()[0].accuracy.min(0.0));
    }

    #[test]
    fn invalid_transitions_error() {
        let t = resnet101_cifar10();
        let mut tr = trial();
        assert!(tr.pause().is_err(), "pause pending");
        assert!(tr.advance(&t, 1).is_err(), "train pending");
        assert!(tr.complete().is_err(), "complete pending");
        tr.start().unwrap();
        assert!(tr.start().is_err(), "start running");
        tr.terminate().unwrap();
        assert!(tr.start().is_err(), "start terminated");
        assert!(tr.terminate().is_err(), "terminate terminated");
    }

    #[test]
    fn terminate_from_pending_running_paused() {
        for setup in 0..3 {
            let mut tr = trial();
            if setup >= 1 {
                tr.start().unwrap();
            }
            if setup == 2 {
                tr.pause().unwrap();
            }
            tr.terminate().unwrap();
            assert_eq!(tr.status(), TrialStatus::Terminated);
        }
    }

    #[test]
    fn best_accuracy_tracks_maximum_not_latest() {
        let t = resnet101_cifar10();
        let mut tr = trial();
        tr.start().unwrap();
        for _ in 0..20 {
            tr.advance(&t, 5).unwrap();
        }
        let best = tr.best_accuracy().unwrap();
        for p in tr.history() {
            assert!(best >= p.accuracy);
        }
    }
}
