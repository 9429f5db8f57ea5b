//! A fixed multiplicative hasher for the engine's memo maps.
//!
//! The plan cache, the templates and a template's train-draw, stage and
//! noise memos are looked up on every prediction, keyed by the engine's
//! own integers: stage indices, GPU counts, seeds, spec fingerprints and
//! plan vectors. SipHash's protection against crafted collisions buys
//! nothing for such keys, and the Fx hash (one rotate, xor and multiply
//! per word, as in rustc) costs far less per lookup. No result depends on
//! a map's iteration order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` with the Fx hash.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The Fx hash state: each word is folded in as `(h.rotl(5) ^ w) · K`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(
                word.try_into().expect("an 8-byte chunk"),
            ));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, w: u32) {
        self.write_u64(u64::from(w));
    }

    #[inline]
    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}
