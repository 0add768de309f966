//! Log-bucketed u64 histogram (HdrHistogram-style) with exact
//! min/max/sum/count side-channels, deterministic integer arithmetic
//! only, and elementwise merge.

/// Sub-bucket resolution: each power-of-two major group is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative quantile error
/// at `1 / 2^SUB_BITS` (6.25%).
pub const SUB_BITS: u32 = 4;

const SUB: usize = 1 << SUB_BITS; // 16 sub-buckets per group

/// Total bucket count covering the full `0..=u64::MAX` range: group 0
/// holds the 16 exact values `0..16`; groups `1..=60` each hold 16
/// linear sub-buckets spanning `[16 << (g-1), 32 << (g-1))`.
pub const BUCKETS: usize = SUB * 61; // 976

/// A log-bucketed histogram of `u64` samples.
///
/// Bucket boundaries are fixed powers-of-two edges (independent of the
/// data), so two histograms built from the same multiset of samples are
/// bit-identical regardless of insertion order — the property the
/// deterministic cross-worker registry merge relies on. `min`, `max`,
/// `sum` and `count` are tracked exactly; quantiles are answered from
/// the bucket lower bound, clamped into `[min, max]`, so `p50/p95/p99`
/// are within one sub-bucket (≤6.25% relative) of the true order
/// statistic and `percentile(1.0)` returns the exact maximum.
#[derive(Clone, Default)]
pub struct LogHistogram {
    /// Per-bucket sample counts; empty until the first record so a
    /// default histogram costs nothing.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Bucket index for value `v`.
#[inline]
fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        // m = floor(log2 v) >= 4; group g = m - 3 in 1..=60; the top
        // SUB_BITS bits below the leading one select the sub-bucket.
        let m = 63 - v.leading_zeros();
        let g = (m - 3) as usize;
        let sub = ((v >> (m - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        g * SUB + sub
    }
}

/// Smallest value mapping to bucket `idx`.
#[inline]
fn lower_bound(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let g = idx / SUB;
        let s = (idx % SUB) as u64;
        (SUB as u64 + s) << (g - 1)
    }
}

/// Largest value mapping to bucket `idx` (inclusive).
#[inline]
fn upper_bound(idx: usize) -> u64 {
    if idx + 1 == BUCKETS {
        u64::MAX
    } else {
        lower_bound(idx + 1) - 1
    }
}

impl LogHistogram {
    /// An empty histogram. No bucket storage is allocated until the
    /// first [`record`](Self::record).
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.counts[index_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`): the lower bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`, clamped
    /// into `[min, max]`. `q >= 1` returns the exact maximum; an empty
    /// histogram returns 0.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return lower_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges `other` into `self` (elementwise; exact side-channels
    /// combine exactly). Merging is commutative and associative, so any
    /// merge order over the same histogram set yields identical state.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            *self = other.clone();
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(inclusive_upper_bound, cumulative_count)`
    /// pairs in increasing order — the exact shape of a Prometheus
    /// histogram's `_bucket{le=...}` series (the `+Inf` bucket is the
    /// caller's to add with `count()`).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            out.push((upper_bound(i), cum));
        }
        out
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max())
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for v in 0..16usize {
            assert_eq!(index_of(v as u64), v);
            assert_eq!(lower_bound(v), v as u64);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn power_of_two_edges_split_buckets() {
        // 2^k - 1 and 2^k land in different buckets at every group edge.
        for k in 4..64u32 {
            let lo = (1u64 << k) - 1;
            let hi = 1u64 << k;
            assert_ne!(index_of(lo), index_of(hi), "edge 2^{k}");
            assert_eq!(lower_bound(index_of(hi)), hi, "2^{k} starts a bucket");
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every bucket's lower/upper bounds map back to that bucket and
        // tile the u64 range without gaps.
        for idx in 0..BUCKETS {
            let lo = lower_bound(idx);
            let hi = upper_bound(idx);
            assert!(lo <= hi);
            assert_eq!(index_of(lo), idx);
            assert_eq!(index_of(hi), idx);
            if idx + 1 < BUCKETS {
                assert_eq!(lower_bound(idx + 1), hi + 1);
            }
        }
        assert_eq!(upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn extremes_zero_and_max() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(index_of(0), 0);
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
        assert_eq!(h.sum(), u64::MAX as u128);
    }

    #[test]
    fn percentiles_within_one_subbucket() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.50, 5_000u64), (0.95, 9_500), (0.99, 9_900)] {
            let got = h.percentile(q);
            assert!(got <= exact, "p{q} overshot: {got} > {exact}");
            let err = (exact - got) as f64 / exact as f64;
            assert!(err <= 1.0 / SUB as f64, "p{q} err {err}");
        }
        assert_eq!(h.percentile(1.0), 10_000);
        assert_eq!(h.percentile(0.0), 1);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn merge_matches_direct_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in [0u64, 3, 17, 255, 256, 1 << 20, u64::MAX] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 16, 1023, 1 << 40] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.cumulative_buckets(), all.cumulative_buckets());

        // Merging into an empty histogram clones; merging an empty one
        // is a no-op.
        let mut empty = LogHistogram::new();
        empty.merge(&all);
        assert_eq!(empty.cumulative_buckets(), all.cumulative_buckets());
        all.merge(&LogHistogram::new());
        assert_eq!(empty.count(), all.count());
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let mut h = LogHistogram::new();
        for v in [1u64, 1, 2, 40, 40, 40, 9_000, 1 << 33] {
            h.record(v);
        }
        let bs = h.cumulative_buckets();
        assert!(bs.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(bs.last().unwrap().1, h.count());
    }
}
