//! Streaming mean/variance accumulator.

/// Streaming statistics over a sequence of `f64` samples using Welford's
/// online algorithm (numerically stable, O(1) memory).
///
/// # Examples
///
/// ```
/// use punchsim_stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// s.extend([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.sum(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    sum: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
    }

    /// Records every sample of an iterator.
    pub fn extend(&mut self, it: impl IntoIterator<Item = f64>) {
        for v in it {
            self.record(v);
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroed() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn basic_moments() {
        let mut s = RunningStats::new();
        s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), 5.0);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.sum(), 40.0);
    }
}
