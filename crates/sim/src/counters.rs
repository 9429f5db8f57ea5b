//! Always-on cache instrumentation for the prediction engine.
//!
//! The plan cache and the stage-sample memo were previously
//! unobservable: a warm-path speedup in the benchmarks could not be
//! attributed to an actual hit rate. These counters are plain `Cell`s —
//! the engine runs on its caller's thread, so a tally is one add — owned
//! by the cache they describe (a template's memos) or shared by a
//! simulator's clones through the same `Rc` as its plan cache. They feed
//! the [`rb_obs::CacheStats`] snapshots surfaced in `RunSummary`.
//!
//! Counting is strictly passive: no counter value ever influences a
//! cache decision, so predictions stay bit-identical whether anyone
//! reads them or not.

use rb_obs::CacheStats;
use std::cell::Cell;

/// Hit/miss/eviction tallies for one cache.
#[derive(Debug, Default)]
pub(crate) struct CacheCounters {
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
}

impl CacheCounters {
    /// Records `n` lookups served from the cache.
    pub fn hits_add(&self, n: u64) {
        self.hits.set(self.hits.get() + n);
    }

    /// Records `n` lookups that had to compute.
    pub fn misses_add(&self, n: u64) {
        self.misses.set(self.misses.get() + n);
    }

    /// Records `n` entries dropped by eviction.
    pub fn evictions_add(&self, n: u64) {
        self.evictions.set(self.evictions.get() + n);
    }

    /// Current totals.
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = CacheCounters::default();
        c.hits_add(2);
        c.misses_add(1);
        c.hits_add(3);
        c.evictions_add(10);
        c.hits_add(0); // no-op
        let snap = c.snapshot();
        assert_eq!(snap.hits, 5);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.evictions, 10);
        assert!((snap.hit_rate() - 5.0 / 6.0).abs() < 1e-12);
    }
}
