//! ASHA: asynchronous successive halving on a fixed cluster (§7).
//!
//! ASHA (Li et al., "Massively parallel hyperparameter tuning") is the
//! elastically-deployed baseline the paper argues against: it removes
//! SHA's synchronization barriers by promoting trials *asynchronously* —
//! whenever a worker frees up, it either continues a trial that is in the
//! top `1/η` of its rung, or samples a brand-new configuration. The paper
//! observes that on a time budget, sampling new configurations is an
//! ineffective use of resources (§7, citing HyperSched), and that ASHA's
//! fixed-cluster deployment cannot shed capacity as parallelism decays.
//!
//! This executor reproduces ASHA faithfully enough to measure both
//! effects: an event-driven loop over a fixed pool of worker slots, rung
//! bookkeeping with top-`1/η` promotion, new-configuration
//! sampling, and the same billing/physics substrate as the RubberBand
//! executor — so cost and accuracy-at-deadline are directly comparable.

use crate::cluster::ClusterManager;
use rb_core::{Cost, Distribution, Prng, RbError, Result, SimDuration, SimTime, TrialId};
use rb_hpo::{Config, SearchSpace};
use rb_profile::{CloudProfile, ModelProfile};
use rb_scaling::PlacementQuality;
use rb_train::{TaskModel, Trial};
use std::collections::BTreeMap;

/// ASHA configuration.
#[derive(Debug, Clone)]
pub struct AshaConfig {
    /// Reduction factor η.
    pub eta: u32,
    /// Work units per trial at rung 0 (`r`).
    pub r: u64,
    /// Maximum cumulative units (`R`); reaching it completes a trial.
    pub big_r: u64,
    /// GPUs allocated to every trial (fixed, as in ASHA deployments).
    pub gpus_per_trial: u32,
    /// Total GPUs in the fixed cluster.
    pub cluster_gpus: u32,
    /// Wall-clock budget; the experiment stops at this deadline.
    pub deadline: SimDuration,
    /// Configurations sampled up-front as the initial cohort; once it is
    /// exhausted, a freed worker with nothing to promote samples a new
    /// configuration.
    pub initial_trials: u32,
    /// Root seed.
    pub seed: u64,
}

/// Outcome of an ASHA run.
#[derive(Debug, Clone)]
pub struct AshaReport {
    /// Best observed accuracy when the deadline hit.
    pub best_accuracy: f64,
    /// The best configuration.
    pub best_config: Config,
    /// Units completed by the best trial.
    pub best_trial_units: u64,
    /// Configurations sampled over the run.
    pub trials_sampled: u32,
    /// Rung promotions performed.
    pub promotions: u32,
    /// Compute + data bill for the fixed cluster over the run.
    pub cost: Cost,
    /// Wall-clock time used (the deadline, or earlier if work ran out).
    pub elapsed: SimDuration,
    /// Fraction of slot-time spent training; a slot idles only after its
    /// promoted trial has already reached `R`.
    pub busy_fraction: f64,
}

/// One rung's records: `(trial, accuracy)` of everyone who completed it.
type Rung = Vec<(TrialId, f64)>;

struct AshaState {
    rungs: Vec<Rung>,
    /// Highest rung each trial has completed.
    completed_rung: BTreeMap<TrialId, usize>,
    /// Trials currently running or already promoted out of a rung.
    promoted: BTreeMap<TrialId, usize>,
}

impl AshaState {
    fn new() -> Self {
        AshaState {
            rungs: Vec::new(),
            completed_rung: BTreeMap::new(),
            promoted: BTreeMap::new(),
        }
    }

    fn record(&mut self, rung: usize, trial: TrialId, acc: f64) {
        while self.rungs.len() <= rung {
            self.rungs.push(Vec::new());
        }
        self.rungs[rung].push((trial, acc));
        self.completed_rung.insert(trial, rung);
    }

    /// ASHA's `get_job`: scan rungs top-down for a trial in the top `1/η`
    /// of its rung that has not been promoted yet.
    fn promotable(&mut self, eta: u32) -> Option<(TrialId, usize)> {
        for rung in (0..self.rungs.len()).rev() {
            let records = &self.rungs[rung];
            let k = records.len() / eta as usize;
            if k == 0 {
                continue;
            }
            let mut ranked: Vec<(TrialId, f64)> = records.clone();
            ranked.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            for &(trial, _) in ranked.iter().take(k) {
                let already = self.promoted.get(&trial).copied().unwrap_or(0);
                if already <= rung {
                    self.promoted.insert(trial, rung + 1);
                    return Some((trial, rung + 1));
                }
            }
        }
        None
    }
}

/// Runs ASHA on a fixed cluster until the deadline.
///
/// # Errors
///
/// Returns [`RbError::InvalidConfig`] for degenerate configurations
/// (zero GPUs, η < 2, cluster smaller than one trial); provider errors
/// propagate.
pub fn run_asha(
    task: &TaskModel,
    physics: &ModelProfile,
    cloud: &CloudProfile,
    space: &SearchSpace,
    cfg: &AshaConfig,
) -> Result<AshaReport> {
    if cfg.eta < 2 {
        return Err(RbError::InvalidConfig("ASHA needs eta >= 2".into()));
    }
    if cfg.gpus_per_trial == 0 || cfg.cluster_gpus < cfg.gpus_per_trial {
        return Err(RbError::InvalidConfig(format!(
            "cluster of {} GPUs cannot run {}-GPU trials",
            cfg.cluster_gpus, cfg.gpus_per_trial
        )));
    }
    if cfg.r == 0 || cfg.big_r < cfg.r {
        return Err(RbError::InvalidConfig("ASHA needs 0 < r <= R".into()));
    }
    let gpg = cloud.gpus_per_instance().max(1);
    let slots = (cfg.cluster_gpus / cfg.gpus_per_trial) as usize;
    let instances =
        rb_sim::AllocationPlan::effective_instances(cfg.cluster_gpus, slots as u32, gpg);

    let mut cm = ClusterManager::new(cloud.clone(), cfg.seed);
    cm.request_nodes(instances as usize, SimTime::ZERO, None)?;
    let start = cm.pending_ready_time().unwrap_or(SimTime::ZERO);
    cm.absorb_ready(start);
    let end_at = SimTime::ZERO + cfg.deadline;

    let mut rng = Prng::seed_from_u64(cfg.seed ^ 0xA5AA_0001);
    let mut state = AshaState::new();
    let mut trials: BTreeMap<TrialId, Trial> = BTreeMap::new();
    let mut trial_rngs: BTreeMap<TrialId, Prng> = BTreeMap::new();
    let mut next_id = 0u64;
    let mut promotions = 0u32;
    let mut busy_secs = 0.0_f64;
    // The initial cohort, waiting for a free worker.
    let mut pending: Vec<TrialId> = Vec::new();
    for _ in 0..cfg.initial_trials {
        let id = TrialId::new(next_id);
        next_id += 1;
        let config = space.sample(&mut rng);
        let seed = cfg.seed ^ id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        trials.insert(id, Trial::new(id, config, seed));
        trial_rngs.insert(id, Prng::seed_from_u64(seed ^ 0x7A1A_11CE));
        pending.push(id);
    }
    pending.reverse(); // pop() takes the lowest id first

    let unit_mean = physics.unit_mean_secs(cfg.gpus_per_trial, PlacementQuality::Packed);
    let dist = if physics.unit_noise_frac > 0.0 {
        Distribution::Normal {
            mean: unit_mean,
            std: physics.unit_noise_frac * unit_mean,
            floor: 0.05 * unit_mean,
        }
    } else {
        Distribution::Constant(unit_mean)
    };

    // Cumulative units a trial must reach to complete rung `k`.
    let rung_target =
        |k: usize| -> u64 { (cfg.r * u64::from(cfg.eta).pow(k as u32)).min(cfg.big_r) };

    // Assign work to a freed slot: promote if possible, else start the
    // next cohort member, else sample a new configuration.
    let assign = |state: &mut AshaState,
                  trials: &mut BTreeMap<TrialId, Trial>,
                  trial_rngs: &mut BTreeMap<TrialId, Prng>,
                  pending: &mut Vec<TrialId>,
                  rng: &mut Prng,
                  next_id: &mut u64,
                  promotions: &mut u32|
     -> Option<(TrialId, usize)> {
        if let Some((trial, rung)) = state.promotable(cfg.eta) {
            if rung_target(rung) > rung_target(rung - 1) {
                *promotions += 1;
                return Some((trial, rung));
            }
            // The trial already hit R; it is complete.
            return None;
        }
        if let Some(id) = pending.pop() {
            return Some((id, 0));
        }
        let id = TrialId::new(*next_id);
        *next_id += 1;
        let config = space.sample(rng);
        let seed = cfg.seed ^ id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        trials.insert(id, Trial::new(id, config, seed));
        trial_rngs.insert(id, Prng::seed_from_u64(seed ^ 0x7A1A_11CE));
        Some((id, 0))
    };

    // Event loop: a min-heap of (finish_time, slot) would do, but with a
    // fixed slot count a simple vector scan per event is just as clear.
    let mut slot_state: Vec<Option<(TrialId, usize, SimTime)>> = vec![None; slots];
    // Prime every slot at the cluster-ready instant.
    for slot in slot_state.iter_mut() {
        if let Some((trial, rung)) = assign(
            &mut state,
            &mut trials,
            &mut trial_rngs,
            &mut pending,
            &mut rng,
            &mut next_id,
            &mut promotions,
        ) {
            let t = trials.get_mut(&trial).expect("assigned trial exists");
            t.start()?;
            *slot = Some((trial, rung, start));
        }
    }

    // Event loop: repeatedly take the earliest-finishing slot. Ends when
    // the deadline hits, or earlier if every slot idles.
    while let Some((slot, (trial, rung, seg_start))) = slot_state
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.map(|v| (i, v)))
        .min_by_key(|&(_, (_, _, t))| t)
    {
        // Train the segment: from the trial's current units to the rung
        // target.
        let t = trials.get_mut(&trial).expect("assigned trial exists");
        let target = rung_target(rung);
        let units = target.saturating_sub(t.iters_done());
        let trng = trial_rngs.get_mut(&trial).expect("trial rng exists");
        let mut work = physics.train_startup_secs;
        for _ in 0..units {
            work += dist.sample(trng);
        }
        let finish = seg_start + SimDuration::from_secs_f64(work);
        if finish > end_at {
            // Deadline hits mid-segment: the partial work is paid for but
            // yields no rung record (ASHA evaluates at rung boundaries).
            let paid = end_at.saturating_since(seg_start);
            busy_secs += paid.as_secs_f64();
            cm.record_usage(cfg.gpus_per_trial, paid);
            slot_state[slot] = None;
            // Other in-flight slots also run out the clock.
            for other in slot_state.iter_mut() {
                if let Some((tid, _, s0)) = *other {
                    let paid = end_at.saturating_since(s0);
                    busy_secs += paid.as_secs_f64();
                    cm.record_usage(cfg.gpus_per_trial, paid);
                    let _ = tid;
                    *other = None;
                }
            }
            break;
        }
        busy_secs += work;
        cm.record_usage(cfg.gpus_per_trial, SimDuration::from_secs_f64(work));
        for _ in 0..units {
            t.advance(task, 1)?;
        }
        let acc = t.latest_accuracy().unwrap_or(0.0);
        state.record(rung, trial, acc);
        if t.iters_done() < cfg.big_r {
            t.pause()?;
        }
        // Refill this slot.
        slot_state[slot] = assign(
            &mut state,
            &mut trials,
            &mut trial_rngs,
            &mut pending,
            &mut rng,
            &mut next_id,
            &mut promotions,
        )
        .map(|(tid, rg)| {
            let tr = trials.get_mut(&tid).expect("assigned trial exists");
            if tr.is_live() && tr.status() != rb_train::TrialStatus::Running {
                tr.start().expect("paused/pending trial can start");
            }
            (tid, rg, finish)
        });
    }

    let elapsed = {
        // The cluster is held until the deadline (ASHA holds its fixed
        // pool) unless every slot drained early.
        let last = end_at;
        cm.terminate_all(last);
        last - SimTime::ZERO
    };
    let cost = cm.total_cost(end_at);
    let held =
        instances as f64 * cfg.cluster_gpus as f64 / instances as f64 * elapsed.as_secs_f64();
    let busy_fraction = if held > 0.0 {
        (busy_secs * cfg.gpus_per_trial as f64 / (cfg.cluster_gpus as f64 * elapsed.as_secs_f64()))
            .min(1.0)
    } else {
        0.0
    };

    let best = trials
        .values()
        .filter_map(|t| t.best_accuracy().map(|a| (t, a)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let (best_trial, best_accuracy) = best
        .ok_or_else(|| RbError::Execution("ASHA finished no trial before the deadline".into()))?;
    Ok(AshaReport {
        best_accuracy,
        best_config: best_trial.config.clone(),
        best_trial_units: best_trial.iters_done(),
        trials_sampled: next_id as u32,
        promotions,
        cost,
        elapsed,
        busy_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_cloud::catalog::P3_8XLARGE;
    use rb_cloud::CloudPricing;
    use rb_hpo::Dim;

    fn setup() -> (TaskModel, ModelProfile, CloudProfile, SearchSpace) {
        let task = rb_train::task::resnet101_cifar10();
        let physics = ModelProfile::exact_for_task(&task, 1024, 4);
        let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
            .with_provision_delay(SimDuration::from_secs(15))
            .with_init_latency(SimDuration::from_secs(15));
        let space = SearchSpace::new()
            .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
            .add("weight_decay", Dim::LogUniform { lo: 1e-5, hi: 1e-2 })
            .build()
            .unwrap();
        (task, physics, cloud, space)
    }

    fn config(deadline_mins: u64) -> AshaConfig {
        AshaConfig {
            eta: 3,
            r: 1,
            big_r: 50,
            gpus_per_trial: 1,
            cluster_gpus: 8,
            deadline: SimDuration::from_mins(deadline_mins),
            initial_trials: 16,
            seed: 11,
        }
    }

    #[test]
    fn asha_finds_a_good_configuration() {
        let (task, physics, cloud, space) = setup();
        let report = run_asha(&task, &physics, &cloud, &space, &config(30)).unwrap();
        assert!(report.trials_sampled > 16, "should keep sampling");
        assert!(report.promotions > 0, "should promote top performers");
        assert!(report.best_accuracy > 0.5, "got {}", report.best_accuracy);
        assert!(report.cost > Cost::ZERO);
        assert!(report.busy_fraction > 0.5, "fixed pool should stay busy");
    }

    #[test]
    fn asha_is_deterministic() {
        let (task, physics, cloud, space) = setup();
        let a = run_asha(&task, &physics, &cloud, &space, &config(20)).unwrap();
        let b = run_asha(&task, &physics, &cloud, &space, &config(20)).unwrap();
        assert_eq!(a.best_accuracy, b.best_accuracy);
        assert_eq!(a.trials_sampled, b.trials_sampled);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn longer_deadlines_do_not_hurt() {
        let (task, physics, cloud, space) = setup();
        let short = run_asha(&task, &physics, &cloud, &space, &config(10)).unwrap();
        let long = run_asha(&task, &physics, &cloud, &space, &config(40)).unwrap();
        assert!(long.best_accuracy >= short.best_accuracy - 0.02);
        assert!(long.cost > short.cost, "holding the pool longer costs more");
        assert!(long.trials_sampled >= short.trials_sampled);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let (task, physics, cloud, space) = setup();
        let bad_eta = AshaConfig {
            eta: 1,
            ..config(10)
        };
        assert!(run_asha(&task, &physics, &cloud, &space, &bad_eta).is_err());
        let bad_cluster = AshaConfig {
            cluster_gpus: 2,
            gpus_per_trial: 4,
            ..config(10)
        };
        assert!(run_asha(&task, &physics, &cloud, &space, &bad_cluster).is_err());
        let bad_r = AshaConfig { r: 0, ..config(10) };
        assert!(run_asha(&task, &physics, &cloud, &space, &bad_r).is_err());
    }
}
