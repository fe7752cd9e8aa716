//! Fixed-bucket histograms.
//!
//! One bucket layout serves the whole workspace: powers of four from 1 to
//! 2³⁰ (≈1.07 s in nanoseconds), plus an overflow bucket. The same bounds
//! work for set sizes (`|D(i,r)|` lives in the first few buckets) and for
//! round latencies (microseconds to a second). Fixed bounds are what make
//! snapshots mergeable and byte-identical across runs — there is no
//! adaptive state to diverge.

/// Upper bounds (inclusive) of the non-overflow buckets: `4^k` for
/// `k = 0..=15`.
pub const BUCKET_BOUNDS: [u64; 16] = [
    1,
    4,
    16,
    64,
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
    4_194_304,
    16_777_216,
    67_108_864,
    268_435_456,
    1_073_741_824,
];

/// The bucket of `value`: the smallest `k` with `value ≤ 4^k`, or the
/// overflow slot. `4^k ≥ value` exactly when `2k ≥ bits(value − 1)`, so the
/// index is half the bit length of `value − 1`, rounded up.
fn bucket_index(value: u64) -> usize {
    let bits = (u64::BITS - value.saturating_sub(1).leading_zeros()) as usize;
    bits.div_ceil(2).min(BUCKET_BOUNDS.len())
}

/// A live histogram: per-bucket counts plus total count and sum. The last
/// slot counts observations above [`BUCKET_BOUNDS`]'s largest bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKET_BOUNDS.len() + 1],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKET_BOUNDS.len() + 1],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Adds every observation of `other` into `self`, bucket by bucket.
    /// Count and sum saturate, so merging the histograms of any split of
    /// a sample equals observing the whole sample.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Freezes the histogram into its serializable form, dropping empty
    /// buckets.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .counts
            .iter()
            .take(BUCKET_BOUNDS.len())
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (BUCKET_BOUNDS[i], c))
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count,
            sum: self.sum,
        }
    }
}

/// A frozen histogram: `(upper_bound, count)` pairs for the non-empty
/// finite buckets. Observations beyond the largest bound are only in
/// `count` (Prometheus's `+Inf` bucket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-empty finite buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations, including overflow.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`): the bound of
    /// the first bucket whose cumulative count reaches it. `None` when the
    /// histogram is empty or the quantile falls in the overflow bucket.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let clamped = q.clamp(0.0, 1.0);
        // ceil(q * count) computed in integers where possible.
        let rank = ((clamped * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(bound, bucket_count) in &self.buckets {
            cumulative += bucket_count;
            if cumulative >= rank {
                return Some(bound);
            }
        }
        None // falls in the overflow bucket
    }

    /// The mean observed value, `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum / self.count)
    }

    /// Adds `other`'s observations into `self`, keeping the buckets
    /// ascending and non-empty. Bucket bounds are fixed workspace-wide
    /// ([`BUCKET_BOUNDS`]), so two snapshots merge bound by bound.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for &(bound, count) in &other.buckets {
            match self.buckets.binary_search_by_key(&bound, |&(b, _)| b) {
                Ok(at) => self.buckets[at].1 += count,
                Err(at) => self.buckets.insert(at, (bound, count)),
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_buckets() {
        let mut h = Histogram::new();
        h.observe(0); // ≤ 1
        h.observe(1); // ≤ 1
        h.observe(2); // ≤ 4
        h.observe(100); // ≤ 256
        h.observe(u64::MAX); // overflow
        assert_eq!(h.count(), 5);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(1, 2), (4, 1), (256, 1)]);
        assert_eq!(snap.count, 5);
    }

    #[test]
    fn quantiles_are_bucket_bounds() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 1, 100, 100, 5000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), Some(1));
        assert_eq!(snap.quantile(0.75), Some(256));
        assert_eq!(snap.quantile(1.0), Some(16_384));
        assert_eq!(snap.quantile(0.0), Some(1));
    }

    #[test]
    fn overflow_quantile_is_none() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.count, 1);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.mean(), None);
    }

    #[test]
    fn bucket_index_agrees_with_a_scan_of_the_bounds() {
        let scan = |value: u64| {
            BUCKET_BOUNDS
                .iter()
                .position(|&bound| value <= bound)
                .unwrap_or(BUCKET_BOUNDS.len())
        };
        for &bound in &BUCKET_BOUNDS {
            for value in [bound - 1, bound, bound + 1, bound * 2] {
                assert_eq!(bucket_index(value), scan(value), "value {value}");
            }
        }
        for value in [0, u64::MAX, u64::MAX - 1, 1 << 62] {
            assert_eq!(bucket_index(value), scan(value), "value {value}");
        }
    }

    #[test]
    fn merge_saturates_count_and_sum() {
        let mut a = Histogram::new();
        a.observe(u64::MAX);
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), u64::MAX);
    }

    #[test]
    fn mean_is_integer_division() {
        let mut h = Histogram::new();
        h.observe(10);
        h.observe(5);
        assert_eq!(h.snapshot().mean(), Some(7));
    }
}
