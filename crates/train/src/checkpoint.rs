//! The checkpoint store.
//!
//! Between iterations a trial can be checkpointed, migrated and restored
//! (§5): one worker serializes the model/optimizer state into a shared
//! object store; new workers fetch it and resume. A trial's state never
//! leaves the executor here, so the store keeps only what a migration
//! pays for: each generation's size, which sets the transfer time, and
//! whether (injected) storage corruption spoiled it, which decides the
//! fallback on a verified read.

use crate::trial::Trial;
use rb_core::{Prng, RbError, Result, TrialId};
use rb_hpo::ConfigValue;
use rb_scaling::zoo::ModelArch;

/// The size of one trial snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which trial this snapshot belongs to.
    pub trial_id: TrialId,
    /// Work units completed at snapshot time.
    pub iters_done: u64,
    /// Bytes of trial metadata the snapshot serializes: a 45-byte
    /// header, each config entry, and 16 bytes per metric point.
    pub meta_bytes: u64,
    /// Size of the model + optimizer tensors this checkpoint represents,
    /// in bytes. Not materialized (the learning curve is analytic), but
    /// charged when the checkpoint moves across the network.
    pub model_state_bytes: u64,
}

impl Checkpoint {
    /// Total bytes a migration must move.
    pub fn total_bytes(&self) -> u64 {
        self.model_state_bytes + self.meta_bytes
    }
}

/// Model + optimizer state size for an architecture: fp32 weights plus SGD
/// momentum buffers (2 tensors of `params` floats).
pub fn model_state_bytes(arch: &ModelArch) -> u64 {
    (arch.params_millions * 1e6 * 4.0 * 2.0) as u64
}

/// Serialized size of a trial's resumable metadata: a 45-byte header
/// (magic, version, id, seed, progress, the two entry counts), each
/// config entry as a length-prefixed name, a tag byte and its value, and
/// 16 bytes per metric point.
fn meta_bytes(trial: &Trial) -> u64 {
    let config: usize = trial
        .config
        .iter()
        .map(|(name, value)| {
            8 + name.len()
                + 1
                + match value {
                    ConfigValue::Float(_) | ConfigValue::Int(_) => 8,
                    ConfigValue::Choice(s) => 8 + s.len(),
                }
        })
        .sum();
    (45 + config + 16 * trial.history().len()) as u64
}

/// One stored checkpoint generation.
#[derive(Debug, Clone, PartialEq)]
struct Generation {
    ck: Checkpoint,
    /// Whether injected storage corruption spoiled this generation; a
    /// verified read rejects exactly these.
    corrupted: bool,
}

/// The result of a verified checkpoint read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifiedFetch {
    /// Bytes a migration must move for the generation actually used.
    pub bytes: u64,
    /// Work units lost to falling back: latest generation's progress
    /// minus the used generation's (zero when the latest verifies).
    pub redo_iters: u64,
    /// Newer generations skipped because they failed verification.
    pub fallbacks: u64,
}

/// The in-memory object store holding the last `retain` checkpoint
/// generations per trial (one by default — the paper's model).
///
/// A verified read rejects a corrupted generation and falls back to the
/// newest older one that is intact. Corruption can be injected
/// deterministically (seeded per put, like the spot stream) for chaos
/// testing.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    /// Every retained generation, ordered by trial and, within a trial,
    /// oldest first.
    gens: Vec<Generation>,
    puts: u64,
    retain: usize,
    /// (probability, seed) for injected storage corruption.
    corrupt: Option<(f64, u64)>,
    corrupted: u64,
}

impl Default for CheckpointStore {
    fn default() -> Self {
        CheckpointStore {
            gens: Vec::new(),
            puts: 0,
            retain: 1,
            corrupt: None,
            corrupted: 0,
        }
    }
}

impl CheckpointStore {
    /// Creates an empty store retaining one generation per trial.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// The positions of `id`'s generations in `gens` (empty when none
    /// are stored; the start is where they would go).
    fn range(&self, id: TrialId) -> std::ops::Range<usize> {
        let start = self.gens.partition_point(|g| g.ck.trial_id < id);
        let len = self.gens[start..].partition_point(|g| g.ck.trial_id == id);
        start..start + len
    }

    /// `id`'s generations, oldest first.
    fn generations(&self, id: TrialId) -> &[Generation] {
        &self.gens[self.range(id)]
    }

    /// Sets how many generations to keep per trial (hardened mode uses
    /// at least 2 so a corrupted write has a fallback).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn with_retention(mut self, k: usize) -> Self {
        assert!(k >= 1, "retention must keep at least one generation");
        self.retain = k;
        self
    }

    /// Generations kept per trial.
    pub fn retention(&self) -> usize {
        self.retain
    }

    /// Arms deterministic storage-corruption injection: each put is
    /// corrupted with probability `prob`, drawn from a per-put counter
    /// stream of `seed`. A zero probability draws nothing.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not a probability.
    pub fn set_corruption(&mut self, prob: f64, seed: u64) {
        assert!(
            (0.0..=1.0).contains(&prob),
            "corruption probability must be in [0, 1], got {prob}"
        );
        self.corrupt = if prob > 0.0 { Some((prob, seed)) } else { None };
    }

    /// Storage corruptions injected so far.
    pub fn corruptions_injected(&self) -> u64 {
        self.corrupted
    }

    /// Checkpoints a trial, retiring the oldest generation beyond the
    /// retention limit.
    pub fn save(&mut self, trial: &Trial, arch: &ModelArch) {
        // Per-put counter stream: whether put #k corrupts is a pure
        // function of (seed, k), independent of which trial or how many
        // stores share the seed.
        let puts = self.puts;
        let corrupted = self
            .corrupt
            .is_some_and(|(prob, seed)| Prng::for_stream(seed, puts).next_f64() < prob);
        self.puts += 1;
        self.corrupted += u64::from(corrupted);
        let ck = Checkpoint {
            trial_id: trial.id,
            iters_done: trial.iters_done(),
            meta_bytes: meta_bytes(trial),
            model_state_bytes: model_state_bytes(arch),
        };
        let mut r = self.range(trial.id);
        self.gens.insert(r.end, Generation { ck, corrupted });
        r.end += 1;
        while r.len() > self.retain {
            self.gens.remove(r.start);
            r.end -= 1;
        }
    }

    /// Fetches the latest checkpoint for a trial (unverified — size and
    /// metadata lookups; reads that matter go through
    /// [`CheckpointStore::fetch_verified`]).
    pub fn get(&self, id: TrialId) -> Option<&Checkpoint> {
        self.generations(id).last().map(|g| &g.ck)
    }

    /// Verifies generations newest-first and reports the one a reader
    /// should use: its transfer size, the work units lost to falling
    /// back, and how many corrupted generations were skipped.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Execution`] if no checkpoint exists or every
    /// retained generation fails verification.
    pub fn fetch_verified(&self, id: TrialId) -> Result<VerifiedFetch> {
        let gens = Some(self.generations(id))
            .filter(|g| !g.is_empty())
            .ok_or_else(|| RbError::Execution(format!("no checkpoint for {id}")))?;
        let latest_iters = gens.last().expect("non-empty").ck.iters_done;
        let mut fallbacks = 0;
        for gen in gens.iter().rev() {
            if !gen.corrupted {
                return Ok(VerifiedFetch {
                    bytes: gen.ck.total_bytes(),
                    redo_iters: latest_iters - gen.ck.iters_done,
                    fallbacks,
                });
            }
            fallbacks += 1;
        }
        Err(RbError::Execution(format!(
            "checkpoint for {id} corrupted beyond recovery \
             ({fallbacks} generation(s) failed verification)"
        )))
    }

    /// Drops a trial's checkpoints (e.g. after termination).
    pub fn evict(&mut self, id: TrialId) {
        let r = self.range(id);
        self.gens.drain(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::resnet101_cifar10;
    use rb_hpo::Config;
    use rb_scaling::zoo::RESNET101;

    fn trained_trial() -> Trial {
        let task = resnet101_cifar10();
        let mut tr = Trial::new(
            TrialId::new(3),
            Config::new()
                .with_f64("lr", 0.05)
                .with_f64("weight_decay", 1e-4),
            99,
        );
        tr.start().unwrap();
        tr.advance(&task, 1).unwrap();
        tr.advance(&task, 3).unwrap();
        tr.pause().unwrap();
        tr
    }

    /// Trains `tr` `units` more and checkpoints it.
    fn train_and_save(store: &mut CheckpointStore, tr: &mut Trial, units: u64) {
        tr.start().unwrap();
        tr.advance(&resnet101_cifar10(), units).unwrap();
        tr.pause().unwrap();
        store.save(tr, &RESNET101);
    }

    #[test]
    fn store_bookkeeping() {
        let mut store = CheckpointStore::new();
        let tr = trained_trial();
        assert!(store.get(tr.id).is_none());
        store.save(&tr, &RESNET101);
        store.save(&tr, &RESNET101); // overwrite
        let ck = store.get(tr.id).unwrap();
        assert_eq!((ck.trial_id, ck.iters_done), (tr.id, 4));
        assert_eq!(
            store.fetch_verified(tr.id).unwrap().bytes,
            ck.total_bytes(),
            "an intact read moves the latest generation"
        );
        store.evict(tr.id);
        assert!(store.get(tr.id).is_none());
        assert!(store.fetch_verified(tr.id).is_err());
    }

    #[test]
    fn retention_keeps_the_last_k_generations() {
        let mut store = CheckpointStore::new().with_retention(2);
        assert_eq!(store.retention(), 2);
        let mut tr = trained_trial(); // 4 iters done
        store.save(&tr, &RESNET101);
        train_and_save(&mut store, &mut tr, 2); // 6 iters
        store.set_corruption(1.0, 0xBAD);
        train_and_save(&mut store, &mut tr, 2); // 8 iters; the 4-iter gen retires
        assert_eq!(store.get(tr.id).unwrap().iters_done, 8, "get = latest");
        let fetch = store.fetch_verified(tr.id).unwrap();
        assert_eq!((fetch.fallbacks, fetch.redo_iters), (1, 2));
        // A third corrupted save retires the intact 6-iter generation:
        // two corrupted generations are kept, not three.
        train_and_save(&mut store, &mut tr, 2);
        let err = store.fetch_verified(tr.id).unwrap_err();
        assert!(err.to_string().contains("(2 generation(s)"), "{err}");
    }

    #[test]
    fn corrupted_latest_falls_back_to_previous_generation() {
        let mut store = CheckpointStore::new().with_retention(2);
        let mut tr = trained_trial(); // 4 iters
        store.save(&tr, &RESNET101); // clean generation
        let clean_bytes = store.get(tr.id).unwrap().total_bytes();
        store.set_corruption(1.0, 0xBAD);
        train_and_save(&mut store, &mut tr, 3); // 7 iters, corrupted in storage
        assert_eq!(store.corruptions_injected(), 1);

        let fetch = store.fetch_verified(tr.id).unwrap();
        assert_eq!(fetch.fallbacks, 1, "latest generation skipped");
        assert_eq!(fetch.redo_iters, 3, "work since the clean barrier");
        assert_eq!(fetch.bytes, clean_bytes, "the clean generation moves");
    }

    #[test]
    fn single_generation_corruption_is_unrecoverable() {
        let mut store = CheckpointStore::new(); // baseline: retain 1
        store.set_corruption(1.0, 0xBAD);
        let tr = trained_trial();
        store.save(&tr, &RESNET101);
        let err = store.fetch_verified(tr.id).unwrap_err();
        assert!(
            err.to_string().contains("corrupted beyond recovery"),
            "{err}"
        );
    }

    #[test]
    fn corruption_injection_is_deterministic_and_optional() {
        let tr = trained_trial();
        let run = |prob: f64| {
            let mut store = CheckpointStore::new().with_retention(4);
            store.set_corruption(prob, 42);
            for _ in 0..8 {
                store.save(&tr, &RESNET101);
            }
            (
                store.corruptions_injected(),
                store.fetch_verified(tr.id).map(|f| f.fallbacks),
            )
        };
        assert_eq!(run(0.5), run(0.5), "same seed, same corruptions");
        let (none, fetch) = run(0.0);
        assert_eq!(none, 0, "zero probability never corrupts");
        assert_eq!(fetch.unwrap(), 0);
    }

    #[test]
    fn model_state_bytes_scale_with_params() {
        // ResNet-101: 44.5 M params × 4 B × 2 (weights + momentum).
        let b = model_state_bytes(&RESNET101);
        assert_eq!(b, (44.5e6 * 8.0) as u64);
        let ck = Checkpoint {
            trial_id: TrialId::new(0),
            iters_done: 0,
            meta_bytes: 100,
            model_state_bytes: b,
        };
        assert_eq!(ck.total_bytes(), b + 100);
    }
}
