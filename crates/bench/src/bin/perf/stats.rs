//! Order statistics and the output digest.

/// Nearest-rank percentile of an ascending-sorted slice: the value at
/// 1-based rank `⌈p·n⌉`, so every reported value is one that was
/// actually measured. Zero for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank `p` percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of the usual reporting percentiles that still has at
/// least `min_beyond` samples above it — the tail a sample of size `n`
/// can resolve. `None` when even the median cannot.
pub fn resolvable_tail(n: usize, min_beyond: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| beyond(n, p) >= min_beyond)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank), minimum and maximum of a set of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        Summary {
            median: percentile(&s, 0.5),
            min: s.first().copied().unwrap_or(0.0),
            max: s.last().copied().unwrap_or(0.0),
        }
    }

    /// `(max - min) / median`: how far apart the values lie, relative to
    /// their median (0 for a single value or a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

/// FNV-1a/64 over the little-endian bytes of every word written: a
/// cheap, dependency-free fingerprint of a workload's virtual-time
/// outputs. Floats are folded by their bit patterns, so the digest pins
/// outputs bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // Two samples: the median is the first, not an interpolation.
        assert_eq!(percentile(&[1.0, 3.0], 0.5), 1.0);
    }

    #[test]
    fn resolvable_tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(resolvable_tail(19, 10), None);
        assert_eq!(resolvable_tail(20, 10), Some(0.5));
        assert_eq!(resolvable_tail(99, 10), Some(0.5));
        assert_eq!(resolvable_tail(100, 10), Some(0.9));
        assert_eq!(resolvable_tail(999, 10), Some(0.9));
        assert_eq!(resolvable_tail(1000, 10), Some(0.99));
        assert_eq!(resolvable_tail(10_000, 10), Some(0.999));
    }

    #[test]
    fn summary_and_spread() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!((s.median, s.min, s.max), (3.0, 1.0, 5.0));
        assert!((s.spread() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[2.0]).spread(), 0.0);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }
}
