//! The learning-curve model: what "training" means in this reproduction.
//!
//! A [`TaskModel`] maps a hyperparameter configuration and an iteration
//! count to a validation accuracy. Two properties matter for fidelity:
//!
//! 1. **Diminishing returns** (§2): accuracy follows a saturating curve, so
//!    most of the signal about a configuration's quality arrives early —
//!    the premise of early stopping.
//! 2. **A meaningful response surface**: the asymptotic accuracy is a bowl
//!    in log-learning-rate (with secondary weight-decay and momentum
//!    terms), and configurations far from the optimum also *learn slower*.
//!    Intermediate metrics are therefore imperfect predictors of final
//!    quality, which is exactly why SHA keeps a top tier training longer
//!    rather than committing after one stage (§2).
//!
//! Evaluation noise is deterministic in `(trial seed, iteration)`, so
//! repeated runs with the same seeds reproduce accuracy tables exactly.

use crate::dataset::Dataset;
use rb_core::Prng;
use rb_hpo::Config;
use rb_scaling::zoo::{self, ModelArch};

/// A tunable training task: dataset + architecture + response surface.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskModel {
    /// Task name, e.g. `"ResNet-101 / CIFAR-10"`.
    pub name: &'static str,
    /// The dataset trained on.
    pub dataset: Dataset,
    /// The model architecture (links to the scaling model zoo).
    pub arch: ModelArch,
    /// Best achievable validation accuracy at the ideal configuration and
    /// full convergence.
    pub peak_acc: f64,
    /// Learning rate at the bottom of the response-surface bowl.
    pub lr_opt: f64,
    /// Accuracy lost per squared decade of log-lr distance from `lr_opt`.
    pub lr_sensitivity: f64,
    /// Optimal weight decay (secondary dimension; zero disables).
    pub wd_opt: f64,
    /// Accuracy lost per squared decade of log-wd distance from `wd_opt`.
    pub wd_sensitivity: f64,
    /// Work units (spec "iterations") to reach half of the asymptotic
    /// improvement, at the optimal configuration.
    pub halflife_iters: f64,
    /// Hill-curve exponent controlling how sharp the saturation is.
    pub shape_p: f64,
    /// How much slower far-from-optimal configurations converge: the
    /// half-life is multiplied by `1 + slowdown · |log10(lr/lr_opt)|`.
    pub convergence_slowdown: f64,
    /// Accuracy recovered by an annealing learning-rate schedule
    /// (`schedule = "cosine"` in the configuration); the §6.3.1 footnote's
    /// "standard (compatible) techniques".
    pub schedule_bonus: f64,
    /// Standard deviation of per-evaluation accuracy noise.
    pub eval_noise_std: f64,
    /// Training samples consumed by one work unit (one spec "iteration").
    /// For epoch-granularity specs this equals the dataset size.
    pub samples_per_iter: u64,
}

impl TaskModel {
    /// SGD steps needed for one work unit at global batch `batch_size`.
    pub fn steps_per_iter(&self, batch_size: u32) -> u64 {
        self.samples_per_iter.div_ceil(u64::from(batch_size))
    }

    /// The asymptotic (fully converged) accuracy of a configuration,
    /// before noise. Reads `lr` and optionally `weight_decay` from the
    /// configuration; a missing `lr` is treated as `lr_opt` (useful for
    /// workloads where the surface is irrelevant, e.g. the cost-model
    /// figures). A test oracle: trials evaluate through
    /// [`TaskModel::curve`], so no library code calls it; the task tests
    /// check the accuracy surface with it.
    pub fn asymptotic_accuracy(&self, config: &Config) -> f64 {
        self.asymptote(config, self.lr_decades(config))
    }

    /// Signed decades between the configuration's learning rate and
    /// `lr_opt`: `log10(lr / lr_opt)`.
    fn lr_decades(&self, config: &Config) -> f64 {
        let lr = config.get_f64_or("lr", self.lr_opt).max(1e-12);
        (lr / self.lr_opt).log10()
    }

    /// [`TaskModel::asymptotic_accuracy`] given the configuration's
    /// [`TaskModel::lr_decades`].
    fn asymptote(&self, config: &Config, d_lr: f64) -> f64 {
        let chance = self.dataset.chance_accuracy();
        let mut acc = self.peak_acc - self.lr_sensitivity * d_lr * d_lr;
        if self.wd_sensitivity > 0.0 {
            let wd = config.get_f64_or("weight_decay", self.wd_opt).max(1e-12);
            let d_wd = (wd / self.wd_opt.max(1e-12)).log10();
            acc -= self.wd_sensitivity * d_wd * d_wd;
        }
        // Learning-rate schedules: "standard (compatible) techniques such
        // as using an lr-schedule" recover extra accuracy (§6.3.1
        // footnote). Annealing also widens the tolerance to an over-large
        // initial learning rate.
        acc += match config.get("schedule") {
            Some(rb_hpo::ConfigValue::Choice(s)) if s == "cosine" => {
                self.schedule_bonus + 0.25 * self.lr_sensitivity * d_lr.max(0.0).powi(2)
            }
            Some(rb_hpo::ConfigValue::Choice(s)) if s == "step" => 0.6 * self.schedule_bonus,
            _ => 0.0,
        };
        acc.clamp(chance, self.peak_acc + self.schedule_bonus)
    }

    /// The effective convergence half-life, in work units, of a
    /// configuration [`TaskModel::lr_decades`] away from `lr_opt`.
    fn halflife_at(&self, d_lr: f64) -> f64 {
        self.halflife_iters * (1.0 + self.convergence_slowdown * d_lr.abs())
    }

    /// The learning curve of one configuration: every per-config
    /// constant resolved once, so a trial that evaluates after every work
    /// unit redoes no configuration lookups.
    pub fn curve(&self, config: &Config) -> Curve {
        let d_lr = self.lr_decades(config);
        Curve {
            chance: self.dataset.chance_accuracy(),
            a_inf: self.asymptote(config, d_lr),
            h: self.halflife_at(d_lr),
            shape_p: self.shape_p,
            noise_std: self.eval_noise_std,
        }
    }
}

/// One configuration's learning curve under a [`TaskModel`]: a Hill
/// curve from chance accuracy towards the configuration's asymptote,
/// plus deterministic evaluation noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Curve {
    /// Accuracy before any training (the dataset's chance level).
    pub chance: f64,
    /// Asymptotic (fully converged) accuracy of the configuration.
    pub a_inf: f64,
    /// Convergence half-life of the configuration, in work units.
    pub h: f64,
    /// Hill-curve exponent.
    pub shape_p: f64,
    /// Standard deviation of per-evaluation accuracy noise.
    pub noise_std: f64,
}

impl Curve {
    /// Noise-free validation accuracy after `iters` work units.
    pub fn clean(&self, iters: u64) -> f64 {
        if iters == 0 {
            return self.chance;
        }
        let x = (iters as f64 / self.h).powf(self.shape_p);
        self.chance + (self.a_inf - self.chance) * x / (1.0 + x)
    }

    /// Observed validation accuracy after `iters` work units: the clean
    /// curve plus evaluation noise, deterministic in `(trial_seed, iters)`.
    pub fn accuracy(&self, iters: u64, trial_seed: u64) -> f64 {
        let clean = self.clean(iters);
        if self.noise_std == 0.0 || iters == 0 {
            return clean;
        }
        let mut rng = Prng::seed_from_u64(trial_seed ^ iters.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (clean + self.noise_std * rng.standard_normal()).clamp(0.0, 1.0)
    }
}

/// ResNet-101 on CIFAR-10 — the Table 2/3 end-to-end workload. The paper
/// reaches 88–92% under its 50-epoch SHA budget (94% state-of-the-art is
/// out of scope, §6.3.1 footnote).
///
/// The architecture descriptor is a CIFAR-calibrated variant of the zoo's
/// ImageNet-224 entry: 32×32 inputs raise per-GPU throughput by ~1.5×
/// while the gradient volume (parameter count) is unchanged, which makes
/// the model distinctly communication-bound beyond one machine — the
/// regime where elastic shrinking pays (Tables 2/3).
pub fn resnet101_cifar10() -> TaskModel {
    TaskModel {
        name: "ResNet-101 / CIFAR-10",
        dataset: crate::dataset::CIFAR10,
        arch: ModelArch {
            name: "ResNet-101 (CIFAR)",
            params_millions: 44.5,
            per_gpu_samples_per_sec: 500.0,
            max_samples_per_gpu: 512,
            fixed_overhead_secs: 0.012,
            microstep_overhead_secs: 0.005,
        },
        peak_acc: 0.945,
        lr_opt: 0.1,
        lr_sensitivity: 0.045,
        wd_opt: 5e-4,
        wd_sensitivity: 0.010,
        halflife_iters: 5.5,
        shape_p: 1.3,
        convergence_slowdown: 0.45,
        schedule_bonus: 0.012,
        eval_noise_std: 0.008,
        samples_per_iter: 50_000,
    }
}

/// ResNet-152 on CIFAR-100 — the Table 4 middle row.
pub fn resnet152_cifar100() -> TaskModel {
    TaskModel {
        name: "ResNet-152 / CIFAR-100",
        dataset: crate::dataset::CIFAR100,
        arch: ModelArch {
            name: "ResNet-152 (CIFAR)",
            params_millions: 60.2,
            per_gpu_samples_per_sec: 450.0,
            max_samples_per_gpu: 384,
            fixed_overhead_secs: 0.014,
            microstep_overhead_secs: 0.006,
        },
        peak_acc: 0.74,
        lr_opt: 0.08,
        lr_sensitivity: 0.06,
        wd_opt: 5e-4,
        wd_sensitivity: 0.015,
        halflife_iters: 9.0,
        shape_p: 1.3,
        convergence_slowdown: 0.5,
        schedule_bonus: 0.012,
        eval_noise_std: 0.01,
        samples_per_iter: 50_000,
    }
}

/// BERT-base fine-tuned on RTE — the Table 4 bottom row. Fine-tuning
/// converges in a handful of epochs and is noisy.
/// The fp32 fine-tuning throughput (~45 samples/s on a V100 at sequence
/// length 128) is well below the zoo's mixed-precision figure, so the
/// arch is a task-specific variant.
pub fn bert_rte() -> TaskModel {
    TaskModel {
        name: "BERT / RTE",
        dataset: crate::dataset::RTE,
        arch: ModelArch {
            name: "BERT-base (fine-tune)",
            params_millions: 110.0,
            per_gpu_samples_per_sec: 45.0,
            max_samples_per_gpu: 32,
            fixed_overhead_secs: 0.015,
            microstep_overhead_secs: 0.008,
        },
        peak_acc: 0.71,
        lr_opt: 3e-5,
        lr_sensitivity: 0.05,
        wd_opt: 1e-2,
        wd_sensitivity: 0.004,
        halflife_iters: 2.0,
        shape_p: 1.5,
        convergence_slowdown: 0.6,
        schedule_bonus: 0.012,
        eval_noise_std: 0.015,
        samples_per_iter: 2_490,
    }
}

/// ResNet-50 on CIFAR-10 — the workhorse of the simulated cost experiments
/// (Figs. 9–12), where one spec "iteration" is a fixed block of samples
/// rather than an epoch.
pub fn resnet50_cifar10() -> TaskModel {
    TaskModel {
        name: "ResNet-50 / CIFAR-10",
        dataset: crate::dataset::CIFAR10,
        arch: zoo::RESNET50,
        peak_acc: 0.945,
        lr_opt: 0.1,
        lr_sensitivity: 0.05,
        wd_opt: 5e-4,
        wd_sensitivity: 0.012,
        halflife_iters: 40.0,
        shape_p: 1.3,
        convergence_slowdown: 0.45,
        schedule_bonus: 0.012,
        eval_noise_std: 0.006,
        samples_per_iter: 2_048,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_cfg(task: &TaskModel) -> Config {
        Config::new()
            .with_f64("lr", task.lr_opt)
            .with_f64("weight_decay", task.wd_opt)
    }

    #[test]
    fn accuracy_is_monotonic_in_iterations_without_noise() {
        let t = resnet101_cifar10();
        let cfg = good_cfg(&t);
        let mut prev = 0.0;
        for iters in [0, 1, 2, 4, 8, 16, 32, 64] {
            let a = t.curve(&cfg).clean(iters);
            assert!(a >= prev, "accuracy dipped at {iters}");
            prev = a;
        }
    }

    #[test]
    fn accuracy_starts_at_chance_and_approaches_asymptote() {
        let t = resnet101_cifar10();
        let cfg = good_cfg(&t);
        assert_eq!(t.curve(&cfg).clean(0), 0.1);
        let near = t.curve(&cfg).clean(10_000);
        assert!((near - t.asymptotic_accuracy(&cfg)).abs() < 0.01);
    }

    #[test]
    fn optimal_lr_beats_bad_lrs_asymptotically() {
        let t = resnet101_cifar10();
        let best = t.asymptotic_accuracy(&good_cfg(&t));
        for lr in [1e-4, 1e-3, 1.0, 10.0] {
            let cfg = Config::new()
                .with_f64("lr", lr)
                .with_f64("weight_decay", t.wd_opt);
            assert!(t.asymptotic_accuracy(&cfg) < best, "lr={lr}");
        }
    }

    #[test]
    fn terrible_configs_sit_at_chance() {
        let t = resnet101_cifar10();
        let cfg = Config::new().with_f64("lr", 1e4);
        assert!((t.asymptotic_accuracy(&cfg) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn far_configs_converge_slower() {
        let t = resnet101_cifar10();
        let near = good_cfg(&t);
        let far = Config::new().with_f64("lr", t.lr_opt / 100.0);
        assert!(t.curve(&far).h > t.curve(&near).h);
    }

    #[test]
    fn table2_accuracy_band_is_reachable() {
        // Under the 50-epoch SHA budget the best configuration should land
        // in the high-80s/low-90s, matching Table 2's 88–92% band.
        let t = resnet101_cifar10();
        let a50 = t.curve(&good_cfg(&t)).clean(50);
        assert!((0.87..0.94).contains(&a50), "a50 = {a50}");
    }

    #[test]
    fn evaluation_noise_is_deterministic_and_bounded() {
        let t = resnet101_cifar10();
        let cfg = good_cfg(&t);
        let a1 = t.curve(&cfg).accuracy(10, 7);
        let a2 = t.curve(&cfg).accuracy(10, 7);
        assert_eq!(a1, a2);
        // Different seeds give different observations.
        let a3 = t.curve(&cfg).accuracy(10, 8);
        assert_ne!(a1, a3);
        // Noise stays near the clean curve.
        let clean = t.curve(&cfg).clean(10);
        assert!((a1 - clean).abs() < 6.0 * t.eval_noise_std);
    }

    #[test]
    fn noise_free_at_zero_iters() {
        let t = resnet101_cifar10();
        assert_eq!(t.curve(&good_cfg(&t)).accuracy(0, 3), 0.1);
    }

    #[test]
    fn steps_per_iter_rounds_up() {
        let t = resnet101_cifar10();
        // 50 000 samples at batch 1024 → 49 steps.
        assert_eq!(t.steps_per_iter(1024), 49);
        assert_eq!(t.steps_per_iter(50_000), 1);
        assert_eq!(t.steps_per_iter(33_333), 2);
    }

    #[test]
    fn missing_lr_defaults_to_optimal() {
        let t = resnet50_cifar10();
        let empty = Config::new();
        assert_eq!(
            t.asymptotic_accuracy(&empty),
            t.asymptotic_accuracy(
                &Config::new()
                    .with_f64("lr", t.lr_opt)
                    .with_f64("weight_decay", t.wd_opt)
            )
        );
    }

    #[test]
    fn all_tasks_have_sane_surfaces() {
        for t in [
            resnet101_cifar10(),
            resnet152_cifar100(),
            bert_rte(),
            resnet50_cifar10(),
        ] {
            let chance = t.dataset.chance_accuracy();
            assert!(t.peak_acc > chance, "{}", t.name);
            let best = t.asymptotic_accuracy(
                &Config::new()
                    .with_f64("lr", t.lr_opt)
                    .with_f64("weight_decay", t.wd_opt),
            );
            assert!((best - t.peak_acc).abs() < 1e-9, "{}", t.name);
        }
    }

    #[test]
    fn lr_schedules_recover_accuracy() {
        use rb_hpo::ConfigValue;
        let t = resnet101_cifar10();
        let base = good_cfg(&t);
        let mut cosine = base.clone();
        cosine.set("schedule", ConfigValue::Choice("cosine".into()));
        let mut step = base.clone();
        step.set("schedule", ConfigValue::Choice("step".into()));
        let a_base = t.asymptotic_accuracy(&base);
        let a_cos = t.asymptotic_accuracy(&cosine);
        let a_step = t.asymptotic_accuracy(&step);
        assert!(a_cos > a_base, "cosine should help: {a_cos} vs {a_base}");
        assert!(a_step > a_base && a_step < a_cos, "step in between");
        assert!(a_cos <= t.peak_acc + t.schedule_bonus + 1e-12);
    }

    /// The response surface and curve arithmetic, written out as
    /// `TaskModel` computed them before per-config constants were
    /// resolved once per trial.
    fn reference_accuracy(t: &TaskModel, cfg: &Config, iters: u64, seed: u64) -> f64 {
        use rb_hpo::ConfigValue;
        let chance = t.dataset.chance_accuracy();
        let clean = if iters == 0 {
            chance
        } else {
            let lr = cfg.get_f64_or("lr", t.lr_opt).max(1e-12);
            let d_lr = (lr / t.lr_opt).log10();
            let mut a_inf = t.peak_acc - t.lr_sensitivity * d_lr * d_lr;
            if t.wd_sensitivity > 0.0 {
                let wd = cfg.get_f64_or("weight_decay", t.wd_opt).max(1e-12);
                let d_wd = (wd / t.wd_opt.max(1e-12)).log10();
                a_inf -= t.wd_sensitivity * d_wd * d_wd;
            }
            a_inf += match cfg.get("schedule") {
                Some(ConfigValue::Choice(s)) if s == "cosine" => {
                    t.schedule_bonus + 0.25 * t.lr_sensitivity * d_lr.max(0.0).powi(2)
                }
                Some(ConfigValue::Choice(s)) if s == "step" => 0.6 * t.schedule_bonus,
                _ => 0.0,
            };
            let a_inf = a_inf.clamp(chance, t.peak_acc + t.schedule_bonus);
            let lr = cfg.get_f64_or("lr", t.lr_opt).max(1e-12);
            let h =
                t.halflife_iters * (1.0 + t.convergence_slowdown * (lr / t.lr_opt).log10().abs());
            let x = (iters as f64 / h).powf(t.shape_p);
            chance + (a_inf - chance) * x / (1.0 + x)
        };
        if t.eval_noise_std == 0.0 || iters == 0 {
            return clean;
        }
        let mut rng = Prng::seed_from_u64(seed ^ iters.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (clean + t.eval_noise_std * rng.standard_normal()).clamp(0.0, 1.0)
    }

    #[test]
    fn curve_is_bit_identical_to_the_inline_formula() {
        use rb_hpo::ConfigValue;
        let noisy = resnet101_cifar10();
        let quiet = TaskModel {
            eval_noise_std: 0.0,
            ..resnet152_cifar100()
        };
        for t in [noisy, quiet, bert_rte()] {
            let mut cosine = Config::new().with_f64("lr", t.lr_opt * 3.0);
            cosine.set("schedule", ConfigValue::Choice("cosine".into()));
            let mut step = Config::new()
                .with_f64("lr", t.lr_opt / 7.0)
                .with_f64("weight_decay", 3e-3);
            step.set("schedule", ConfigValue::Choice("step".into()));
            let cfgs = [
                Config::new(),
                Config::new().with_f64("lr", 0.013),
                Config::new()
                    .with_f64("lr", 0.42)
                    .with_f64("weight_decay", 2e-5),
                cosine,
                step,
            ];
            for cfg in &cfgs {
                let curve = t.curve(cfg);
                for seed in [0u64, 7, 0xDEAD_BEEF] {
                    for iters in 0..=64u64 {
                        let want = reference_accuracy(&t, cfg, iters, seed);
                        assert_eq!(
                            curve.accuracy(iters, seed).to_bits(),
                            want.to_bits(),
                            "{} {cfg:?} iters={iters} seed={seed}",
                            t.name
                        );
                        assert_eq!(t.curve(cfg).accuracy(iters, seed).to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn cosine_schedule_tolerates_hot_learning_rates() {
        use rb_hpo::ConfigValue;
        let t = resnet101_cifar10();
        // 0.5 decades above optimal: annealing recovers part of the loss.
        let hot = Config::new()
            .with_f64("lr", t.lr_opt * 3.16)
            .with_f64("weight_decay", t.wd_opt);
        let mut hot_cos = hot.clone();
        hot_cos.set("schedule", ConfigValue::Choice("cosine".into()));
        let gain_hot = t.asymptotic_accuracy(&hot_cos) - t.asymptotic_accuracy(&hot);
        let cold = Config::new()
            .with_f64("lr", t.lr_opt / 3.16)
            .with_f64("weight_decay", t.wd_opt);
        let mut cold_cos = cold.clone();
        cold_cos.set("schedule", ConfigValue::Choice("cosine".into()));
        let gain_cold = t.asymptotic_accuracy(&cold_cos) - t.asymptotic_accuracy(&cold);
        assert!(
            gain_hot > gain_cold,
            "annealing helps hot LRs more: {gain_hot} vs {gain_cold}"
        );
    }
}
