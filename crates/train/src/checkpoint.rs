//! The checkpoint store.
//!
//! Between iterations a trial can be checkpointed, migrated and restored
//! (§5): one worker serializes the model/optimizer state into a shared
//! object store; new workers fetch the blob and resume. This module
//! reproduces that mechanism with a real byte-level format so that
//! checkpoint sizes (and hence migration latencies) reflect actual state,
//! and restore is an honest inverse of save.

use crate::trial::{MetricPoint, Trial, TrialStatus};
use rb_core::{Prng, RbError, Result, TrialId};
use rb_hpo::{Config, ConfigValue};
use rb_scaling::zoo::ModelArch;

const MAGIC: &[u8; 4] = b"RBCK";
const VERSION: u8 = 1;

/// FNV-1a over the blob: the store's out-of-band integrity check. Kept
/// outside the encoded format so checkpoint byte sizes — and hence
/// migration latencies — are unchanged by hardening.
fn blob_checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A serialized trial snapshot plus the model-state payload size.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which trial this snapshot belongs to.
    pub trial_id: TrialId,
    /// Work units completed at snapshot time.
    pub iters_done: u64,
    /// Serialized trial metadata (config, metric history).
    pub blob: Vec<u8>,
    /// Size of the model + optimizer tensors this checkpoint represents,
    /// in bytes. Not materialized (the learning curve is analytic), but
    /// charged when the checkpoint moves across the network.
    pub model_state_bytes: u64,
}

impl Checkpoint {
    /// Total bytes a migration must move.
    pub fn total_bytes(&self) -> u64 {
        self.model_state_bytes + self.blob.len() as u64
    }
}

/// Model + optimizer state size for an architecture: fp32 weights plus SGD
/// momentum buffers (2 tensors of `params` floats).
pub fn model_state_bytes(arch: &ModelArch) -> u64 {
    (arch.params_millions * 1e6 * 4.0 * 2.0) as u64
}

// --- binary encoding helpers -------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(RbError::Execution("truncated checkpoint".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u64()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| RbError::Execution("invalid utf-8 in checkpoint".into()))
    }
}

/// Serializes a trial's resumable state (id, progress, config, history).
/// A test oracle: the store encodes into a reused buffer, so no library
/// code calls this allocating form; the checkpoint tests and
/// `tests/plan_fidelity.rs` round-trip through it.
pub fn encode_trial(trial: &Trial) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_trial_into(trial, &mut buf);
    buf
}

/// Bytes [`encode_trial`] produces for `trial`.
fn encoded_len(trial: &Trial) -> usize {
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
    MAGIC.len() + 1 + 3 * 8 + 8 + config + 8 + 16 * trial.history().len()
}

/// [`encode_trial`] into `buf`, replacing its contents and growing it at
/// most once, so a caller that re-encodes into the same buffer reuses
/// its allocation.
fn encode_trial_into(trial: &Trial, buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve(encoded_len(trial));
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    put_u64(buf, trial.id.raw());
    put_u64(buf, trial.seed);
    put_u64(buf, trial.iters_done());
    // Config.
    put_u64(buf, trial.config.len() as u64);
    for (name, value) in trial.config.iter() {
        put_str(buf, name);
        match value {
            ConfigValue::Float(v) => {
                buf.push(0);
                put_f64(buf, *v);
            }
            ConfigValue::Int(v) => {
                buf.push(1);
                put_u64(buf, *v as u64);
            }
            ConfigValue::Choice(s) => {
                buf.push(2);
                put_str(buf, s);
            }
        }
    }
    // History.
    put_u64(buf, trial.history().len() as u64);
    for p in trial.history() {
        put_u64(buf, p.iters);
        put_f64(buf, p.accuracy);
    }
    debug_assert_eq!(buf.len(), encoded_len(trial));
}

/// Decoded checkpoint contents.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSnapshot {
    /// Trial identity.
    pub id: TrialId,
    /// Noise-stream seed.
    pub seed: u64,
    /// Work units completed.
    pub iters_done: u64,
    /// The hyperparameter configuration.
    pub config: Config,
    /// Metric history.
    pub history: Vec<MetricPoint>,
}

/// Deserializes a blob produced by [`encode_trial`].
///
/// # Errors
///
/// Returns [`RbError::Execution`] on truncation, bad magic, or an
/// unsupported version.
pub fn decode_trial(blob: &[u8]) -> Result<TrialSnapshot> {
    let mut r = Reader::new(blob);
    if r.take(4)? != MAGIC {
        return Err(RbError::Execution("bad checkpoint magic".into()));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(RbError::Execution(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let id = TrialId::new(r.u64()?);
    let seed = r.u64()?;
    let iters_done = r.u64()?;
    let n_cfg = r.u64()? as usize;
    let mut config = Config::new();
    for _ in 0..n_cfg {
        let name = r.str()?;
        let tag = r.u8()?;
        let value = match tag {
            0 => ConfigValue::Float(r.f64()?),
            1 => ConfigValue::Int(r.u64()? as i64),
            2 => ConfigValue::Choice(r.str()?),
            t => return Err(RbError::Execution(format!("unknown config value tag {t}"))),
        };
        config.set(name, value);
    }
    let n_hist = r.u64()? as usize;
    let mut history = Vec::with_capacity(n_hist);
    for _ in 0..n_hist {
        let iters = r.u64()?;
        let accuracy = r.f64()?;
        history.push(MetricPoint { iters, accuracy });
    }
    Ok(TrialSnapshot {
        id,
        seed,
        iters_done,
        config,
        history,
    })
}

/// One stored checkpoint generation plus the checksum captured at save
/// time, before any (injected) storage corruption.
#[derive(Debug, Clone, PartialEq)]
struct Generation {
    ck: Checkpoint,
    /// Captured only while corruption injection is armed: the store
    /// alters no blob otherwise, so an unarmed generation's blob matches
    /// its checksum by construction and `None` stands for that match.
    checksum: Option<u64>,
}

impl Generation {
    /// Whether the blob still matches the checksum taken at save time.
    fn checksum_holds(&self) -> bool {
        self.checksum
            .map_or(true, |sum| sum == blob_checksum(&self.ck.blob))
    }

    fn verifies(&self) -> bool {
        self.checksum_holds() && decode_trial(&self.ck.blob).is_ok()
    }
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
/// Reads verify an out-of-band checksum plus a full decode; a corrupted
/// latest generation falls back to the newest older one that verifies.
/// Corruption can be injected deterministically (seeded per put, like
/// the spot stream) for chaos testing; with injection off and retention
/// 1 the store behaves bit-identically to the unhardened original.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    /// Every retained generation, ordered by trial and, within a trial,
    /// oldest first. Flat, so saving and evicting reuse its storage.
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

    /// Arms deterministic storage-corruption injection: each put flips
    /// one random bit of the stored blob with probability `prob`, using
    /// a per-put counter stream from `seed`. The checksum is captured
    /// before the flip, so verification catches every injected fault.
    /// A zero probability draws nothing.
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
    /// retention limit. The retired generation's buffer is reused for
    /// the new blob.
    pub fn save(&mut self, trial: &Trial, arch: &ModelArch) -> &Checkpoint {
        let r = self.range(trial.id);
        let mut blob = if r.len() >= self.retain {
            self.gens.remove(r.start).ck.blob
        } else {
            // Room for the history to double before a later save of
            // this trial regrows the buffer.
            Vec::with_capacity(2 * encoded_len(trial))
        };
        encode_trial_into(trial, &mut blob);
        let mut ck = Checkpoint {
            trial_id: trial.id,
            iters_done: trial.iters_done(),
            blob,
            model_state_bytes: model_state_bytes(arch),
        };
        let checksum = self.corrupt.map(|_| blob_checksum(&ck.blob));
        if let Some((prob, seed)) = self.corrupt {
            // Per-put counter stream: whether (and where) put #k corrupts
            // is a pure function of (seed, k), independent of which trial
            // or how many stores share the seed.
            let mut rng = Prng::for_stream(seed, self.puts);
            if rng.next_f64() < prob {
                let bit = rng.next_below(ck.blob.len() as u64 * 8);
                ck.blob[(bit / 8) as usize] ^= 1 << (bit % 8);
                self.corrupted += 1;
            }
        }
        self.puts += 1;
        let mut r = self.range(trial.id);
        self.gens.insert(r.end, Generation { ck, checksum });
        r.end += 1;
        while r.len() > self.retain {
            self.gens.remove(r.start);
            r.end -= 1;
        }
        &self.gens[r.end - 1].ck
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
            if gen.verifies() {
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

    /// Restores a trial's progress from its newest checkpoint generation
    /// that passes verification. The trial must be paused or pending (a
    /// freshly created replacement); it is left paused, ready to be
    /// started.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Execution`] if no checkpoint exists, every
    /// generation fails verification, or the snapshot belongs to a
    /// different trial.
    pub fn restore(&self, trial: &mut Trial) -> Result<()> {
        let gens = Some(self.generations(trial.id))
            .filter(|g| !g.is_empty())
            .ok_or_else(|| RbError::Execution(format!("no checkpoint for {}", trial.id)))?;
        if trial.status() == TrialStatus::Running {
            return Err(RbError::Execution(format!(
                "cannot restore running trial {}",
                trial.id
            )));
        }
        let mut failed = 0;
        for gen in gens.iter().rev() {
            if !gen.checksum_holds() {
                failed += 1;
                continue;
            }
            let Ok(snap) = decode_trial(&gen.ck.blob) else {
                failed += 1;
                continue;
            };
            if snap.id != trial.id {
                return Err(RbError::Execution(format!(
                    "checkpoint for {} offered to {}",
                    snap.id, trial.id
                )));
            }
            trial.restore_progress(snap.iters_done, snap.history);
            return Ok(());
        }
        Err(RbError::Execution(format!(
            "checkpoint for {} corrupted beyond recovery \
             ({failed} generation(s) failed verification)",
            trial.id
        )))
    }

    /// Drops a trial's checkpoints (e.g. after termination).
    pub fn evict(&mut self, id: TrialId) {
        let r = self.range(id);
        self.gens.drain(r);
    }

    /// Number of trials with at least one stored checkpoint.
    pub fn len(&self) -> usize {
        self.gens
            .iter()
            .enumerate()
            .filter(|&(i, g)| i == 0 || self.gens[i - 1].ck.trial_id != g.ck.trial_id)
            .count()
    }

    /// True when no checkpoints are stored.
    pub fn is_empty(&self) -> bool {
        self.gens.is_empty()
    }

    /// Total bytes currently resident across all retained generations
    /// (metadata blobs only; model tensors are accounted virtually).
    /// Public because `retention_keeps_the_last_k_generations` checks
    /// through it that retention bounds what the store holds; no library
    /// code calls it.
    pub fn resident_blob_bytes(&self) -> u64 {
        self.gens.iter().map(|g| g.ck.blob.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::resnet101_cifar10;
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

    #[test]
    fn encode_decode_round_trip() {
        let tr = trained_trial();
        let snap = decode_trial(&encode_trial(&tr)).unwrap();
        assert_eq!(snap.id, tr.id);
        assert_eq!(snap.seed, tr.seed);
        assert_eq!(snap.iters_done, tr.iters_done());
        assert_eq!(snap.config, tr.config);
        assert_eq!(snap.history, tr.history().to_vec());
    }

    #[test]
    fn round_trip_preserves_all_value_kinds() {
        let mut cfg = Config::new();
        cfg.set("lr", ConfigValue::Float(0.1));
        cfg.set("layers", ConfigValue::Int(-3));
        cfg.set("opt", ConfigValue::Choice("adam".into()));
        let tr = Trial::new(TrialId::new(1), cfg.clone(), 5);
        let snap = decode_trial(&encode_trial(&tr)).unwrap();
        assert_eq!(snap.config, cfg);
    }

    #[test]
    fn decode_rejects_every_truncation() {
        // The encoding is exactly self-describing: decode consumes every
        // byte encode wrote, so *any* proper prefix must fail — whether
        // the cut lands mid-magic, mid-length-prefix, or mid-payload.
        let tr = trained_trial();
        let blob = encode_trial(&tr);
        for cut in 0..blob.len() {
            let err = decode_trial(&blob[..cut]).expect_err("prefix decoded");
            assert!(
                matches!(err, RbError::Execution(_)),
                "cut at {cut}: {err:?}"
            );
        }
        assert!(decode_trial(&blob).is_ok());
    }

    #[test]
    fn decode_rejects_header_bit_flips() {
        let tr = trained_trial();
        let blob = encode_trial(&tr);
        // Every bit of every MAGIC byte.
        for byte in 0..4 {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[byte] ^= 1 << bit;
                let err = decode_trial(&bad).unwrap_err();
                assert!(
                    err.to_string().contains("magic"),
                    "byte {byte} bit {bit}: {err}"
                );
            }
        }
        // Every bit of the VERSION byte.
        for bit in 0..8 {
            let mut bad = blob.clone();
            bad[4] ^= 1 << bit;
            let err = decode_trial(&bad).unwrap_err();
            assert!(err.to_string().contains("version"), "bit {bit}: {err}");
        }
    }

    #[test]
    fn decode_rejects_corrupted_length_prefixes_and_tags() {
        let tr = trained_trial();
        let blob = encode_trial(&tr);
        // Layout: MAGIC(4) VERSION(1) id(8) seed(8) iters(8) n_cfg(8) ...
        // Flipping the high bit of n_cfg's length prefix demands ~2^63
        // config entries — the reader must run out of bytes, not OOM.
        let mut huge_count = blob.clone();
        huge_count[29 + 7] ^= 0x80;
        let err = decode_trial(&huge_count).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Same for the first config name's string length prefix.
        let mut huge_str = blob.clone();
        huge_str[37 + 7] ^= 0x80;
        assert!(decode_trial(&huge_str).is_err());
        // The first config entry is ("lr", Float): its tag byte sits
        // right after the 8-byte length prefix and the 2-byte name.
        let tag_pos = 37 + 8 + 2;
        assert_eq!(blob[tag_pos], 0, "expected a Float tag");
        let mut bad_tag = blob.clone();
        bad_tag[tag_pos] = 7;
        let err = decode_trial(&bad_tag).unwrap_err();
        assert!(
            err.to_string().contains("unknown config value tag"),
            "{err}"
        );
    }

    #[test]
    fn silent_payload_flips_decode_but_fail_the_checksum() {
        // A bit flip in a metric payload produces a structurally valid
        // blob — exactly the corruption class decode alone cannot catch
        // and the store's out-of-band checksum exists for.
        let tr = trained_trial();
        let blob = encode_trial(&tr);
        let pristine = blob_checksum(&blob);
        let mut flipped = blob.clone();
        let last = flipped.len() - 1; // low-order byte of the final accuracy
        flipped[last] ^= 0x01;
        assert!(
            decode_trial(&flipped).is_ok(),
            "flip is structurally silent"
        );
        assert_ne!(blob_checksum(&flipped), pristine);
    }

    #[test]
    fn save_restore_resumes_training_seamlessly() {
        let task = resnet101_cifar10();
        let mut store = CheckpointStore::new();
        let mut tr = trained_trial();
        store.save(&tr, &RESNET101);

        // Simulate migration: a fresh replacement trial object.
        let mut replacement = Trial::new(tr.id, tr.config.clone(), tr.seed);
        store.restore(&mut replacement).unwrap();
        assert_eq!(replacement.iters_done(), 4);
        assert_eq!(replacement.history(), tr.history());

        // Continuing from the restore matches continuing the original:
        // the learning curve is a function of (config, iters, seed).
        replacement.start().unwrap();
        let a_restored = replacement.advance(&task, 9).unwrap();
        tr.start().unwrap();
        let a_original = tr.advance(&task, 9).unwrap();
        assert_eq!(a_restored, a_original);
    }

    #[test]
    fn preemption_recovery_is_bit_identical_to_uninterrupted_training() {
        // The executor's spot-recovery path in miniature: checkpoint at a
        // barrier, lose mid-stage progress to a reclaim, restore on a
        // replacement, retrain the stage. The recovered trial must be
        // bit-identical — iteration count, per-point history, final
        // accuracy — to one that was never preempted.
        let task = resnet101_cifar10();
        let cfg = Config::new()
            .with_f64("lr", 0.05)
            .with_f64("weight_decay", 1e-4);

        // Uninterrupted reference: stage of 4 iters, then a stage of 9.
        let mut reference = Trial::new(TrialId::new(7), cfg.clone(), 0x5EED);
        reference.start().unwrap();
        reference.advance(&task, 4).unwrap();
        let ref_acc = reference.advance(&task, 9).unwrap();

        // Victim: barrier checkpoint after 4 iters, 5 in-flight iters lost
        // to the preemption (never checkpointed), worker migrates.
        let mut store = CheckpointStore::new();
        let mut victim = Trial::new(TrialId::new(7), cfg.clone(), 0x5EED);
        victim.start().unwrap();
        victim.advance(&task, 4).unwrap();
        victim.pause().unwrap();
        store.save(&victim, &RESNET101);
        victim.start().unwrap();
        victim.advance(&task, 5).unwrap();
        drop(victim); // the node is gone

        // Replacement restores from the barrier checkpoint and retrains.
        let mut replacement = Trial::new(TrialId::new(7), cfg, 0x5EED);
        store.restore(&mut replacement).unwrap();
        assert_eq!(replacement.iters_done(), 4, "resumes at the barrier");
        replacement.start().unwrap();
        let rec_acc = replacement.advance(&task, 9).unwrap();

        assert_eq!(rec_acc.to_bits(), ref_acc.to_bits(), "accuracy diverged");
        assert_eq!(replacement.iters_done(), reference.iters_done());
        assert_eq!(replacement.history(), reference.history());
    }

    #[test]
    fn restore_requires_matching_checkpoint() {
        let store = CheckpointStore::new();
        let mut tr = trained_trial();
        assert!(store.restore(&mut tr).is_err(), "empty store");
    }

    #[test]
    fn restore_refuses_running_trial() {
        let mut store = CheckpointStore::new();
        let mut tr = trained_trial();
        store.save(&tr, &RESNET101);
        tr.start().unwrap();
        assert!(store.restore(&mut tr).is_err());
    }

    #[test]
    fn store_bookkeeping() {
        let mut store = CheckpointStore::new();
        assert!(store.is_empty());
        let tr = trained_trial();
        store.save(&tr, &RESNET101);
        store.save(&tr, &RESNET101); // overwrite
        assert_eq!(store.len(), 1);
        assert!(store.resident_blob_bytes() > 0);
        store.evict(tr.id);
        assert!(store.is_empty());
        assert!(store.get(tr.id).is_none());
    }

    #[test]
    fn retention_keeps_the_last_k_generations() {
        let task = resnet101_cifar10();
        let mut store = CheckpointStore::new().with_retention(2);
        assert_eq!(store.retention(), 2);
        let mut tr = trained_trial(); // 4 iters done
        store.save(&tr, &RESNET101);
        tr.start().unwrap();
        tr.advance(&task, 2).unwrap();
        tr.pause().unwrap();
        store.save(&tr, &RESNET101); // 6 iters
        tr.start().unwrap();
        tr.advance(&task, 2).unwrap();
        tr.pause().unwrap();
        store.save(&tr, &RESNET101); // 8 iters; the 4-iter gen retires
        assert_eq!(store.len(), 1, "one trial, many generations");
        assert_eq!(store.get(tr.id).unwrap().iters_done, 8, "get = latest");
        let fetch = store.fetch_verified(tr.id).unwrap();
        assert_eq!(fetch.fallbacks, 0);
        assert_eq!(fetch.redo_iters, 0);
        // Two resident generations' blobs, not three.
        let one_blob = store.get(tr.id).unwrap().blob.len() as u64;
        assert!(store.resident_blob_bytes() >= 2 * one_blob - 64);
        assert!(store.resident_blob_bytes() < 3 * one_blob);
    }

    #[test]
    fn corrupted_latest_falls_back_to_previous_generation() {
        let task = resnet101_cifar10();
        let mut store = CheckpointStore::new().with_retention(2);
        let mut tr = trained_trial(); // 4 iters
        store.save(&tr, &RESNET101); // clean generation
        tr.start().unwrap();
        tr.advance(&task, 3).unwrap();
        tr.pause().unwrap();
        store.set_corruption(1.0, 0xBAD);
        store.save(&tr, &RESNET101); // 7 iters, corrupted in storage
        assert_eq!(store.corruptions_injected(), 1);

        let fetch = store.fetch_verified(tr.id).unwrap();
        assert_eq!(fetch.fallbacks, 1, "latest generation skipped");
        assert_eq!(fetch.redo_iters, 3, "work since the clean barrier");

        // Restore lands on the clean 4-iter generation, and retraining
        // from it reproduces the original curve bit-for-bit.
        let mut replacement = Trial::new(tr.id, tr.config.clone(), tr.seed);
        store.restore(&mut replacement).unwrap();
        assert_eq!(replacement.iters_done(), 4);
        replacement.start().unwrap();
        let acc = replacement.advance(&task, 3).unwrap();
        assert_eq!(acc.to_bits(), tr.latest_accuracy().unwrap().to_bits());
    }

    #[test]
    fn single_generation_corruption_is_unrecoverable() {
        let mut store = CheckpointStore::new(); // baseline: retain 1
        store.set_corruption(1.0, 0xBAD);
        let tr = trained_trial();
        store.save(&tr, &RESNET101);
        assert!(store.fetch_verified(tr.id).is_err());
        let mut replacement = Trial::new(tr.id, tr.config.clone(), tr.seed);
        let err = store.restore(&mut replacement).unwrap_err();
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
            blob: vec![0; 100],
            model_state_bytes: b,
        };
        assert_eq!(ck.total_bytes(), b + 100);
    }
}
