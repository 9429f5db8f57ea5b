//! Small statistics helpers used by the profiler and the benchmark harness.

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use rb_core::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Sample mean; zero if empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; zero with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Computes the sample mean of a slice; zero if empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Computes the unbiased sample standard deviation; zero if fewer than two
/// observations.
pub fn std(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Linearly interpolates `y` at `x` over sorted `(x, y)` knots, clamping
/// outside the knot range to the nearest endpoint value.
///
/// # Panics
///
/// Panics if `knots` is empty or not sorted by `x`.
pub fn lerp_clamped(knots: &[(f64, f64)], x: f64) -> f64 {
    assert!(!knots.is_empty(), "need at least one knot");
    debug_assert!(
        knots.windows(2).all(|w| w[0].0 <= w[1].0),
        "knots must be sorted by x"
    );
    if x <= knots[0].0 {
        return knots[0].1;
    }
    if x >= knots[knots.len() - 1].0 {
        return knots[knots.len() - 1].1;
    }
    let idx = knots.partition_point(|&(kx, _)| kx <= x);
    let (x0, y0) = knots[idx - 1];
    let (x1, y1) = knots[idx];
    if x1 == x0 {
        return y0;
    }
    y0 + (y1 - y0) * (x - x0) / (x1 - x0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_batch() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert!((s.mean() - mean(&xs)).abs() < 1e-12);
        assert!((s.std() - std(&xs)).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s = OnlineStats::new();
        s.push(5.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std(), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std(&[2.0]), 0.0);
    }

    #[test]
    fn lerp_interpolates_and_clamps() {
        let knots = [(1.0, 10.0), (2.0, 20.0), (4.0, 40.0)];
        assert_eq!(lerp_clamped(&knots, 1.5), 15.0);
        assert_eq!(lerp_clamped(&knots, 3.0), 30.0);
        assert_eq!(lerp_clamped(&knots, 0.0), 10.0);
        assert_eq!(lerp_clamped(&knots, 9.0), 40.0);
        assert_eq!(lerp_clamped(&knots, 2.0), 20.0);
    }

    #[test]
    fn lerp_single_knot_is_constant() {
        assert_eq!(lerp_clamped(&[(2.0, 7.0)], -1.0), 7.0);
        assert_eq!(lerp_clamped(&[(2.0, 7.0)], 99.0), 7.0);
    }
}
