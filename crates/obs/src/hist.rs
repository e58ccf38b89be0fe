//! A zero-dependency, power-of-two-bucketed integer latency histogram.

/// Buckets: value `0` in bucket 0, value `v > 0` in bucket
/// `64 - v.leading_zeros()`, i.e. bucket `k >= 1` covers `[2^(k-1), 2^k)`.
const BUCKETS: usize = 65;

/// A power-of-two-bucketed histogram of `u64` samples (latencies in
/// cycles, queue depths, ...).
///
/// All state is integral — per-bucket counts plus exact `count`, `sum`,
/// `min` and `max` — so recording and [`merge`](Histogram::merge) are
/// exact and deterministic: merge is associative and commutative, and two
/// histograms fed the same multiset of samples compare equal regardless
/// of insertion order. Quantiles ([`percentile`](Histogram::percentile))
/// use the same nearest-rank rule as `ServeReport`'s exact percentiles
/// and return the selected bucket's inclusive upper bound, so the
/// reported quantile `q` brackets the exact value `e` as `e <= q < 2e`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index of `value`: 0 for 0, else `floor(log2(value)) + 1`.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// The inclusive upper bound of bucket `bucket` (`0` for bucket 0,
    /// `2^bucket - 1` otherwise, saturating at `u64::MAX`).
    pub fn bucket_upper_bound(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else if bucket >= 64 {
            u64::MAX
        } else {
            (1u64 << bucket) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(c) = self.counts.get_mut(Self::bucket_of(value)) {
            *c += n;
        }
        self.count += n;
        self.sum += u128::from(value) * u128::from(n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Exact: merging is associative and
    /// commutative, and `a.merge(&b)` equals recording both sample sets
    /// into one histogram in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Exact largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Exact integer mean (sum / count; zero when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / u128::from(self.count)) as u64
        }
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`): the inclusive upper
    /// bound of the bucket holding the sample of rank
    /// `ceil(p * count / 100)` (clamped to `[1, count]`), zero when empty.
    ///
    /// The rank rule matches `ServeReport::latency_percentile`, so for
    /// identical samples the returned bound always lands in the same
    /// power-of-two bucket as the exact percentile.
    pub fn percentile(&self, p: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (u64::from(p) * self.count)
            .div_ceil(100)
            .clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_bound(bucket);
            }
        }
        // Unreachable: bucket counts sum to `count >= rank`.
        Self::bucket_upper_bound(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        for k in 1..63 {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(Histogram::bucket_of(lo), k as usize, "2^{}", k - 1);
            assert_eq!(Histogram::bucket_of(hi), k as usize, "2^{k}-1");
            assert_eq!(Histogram::bucket_of(hi + 1), k as usize + 1);
        }
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(10), 1023);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn exact_aggregates_survive_bucketing() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 100, 100, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 208 + u128::from(u64::MAX));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert!(Histogram::new().min().is_none());
        assert_eq!(Histogram::new().percentile(50), 0);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let feed = |values: &[u64]| {
            let mut h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h
        };
        let a = feed(&[1, 2, 3]);
        let b = feed(&[1000, 0]);
        let c = feed(&[u64::MAX, 17, 17]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut a_bc = {
            let mut bc = b.clone();
            bc.merge(&c);
            bc
        };
        a_bc.merge(&a);
        let mut all_at_once = feed(&[1, 2, 3, 1000, 0, u64::MAX, 17, 17]);
        assert_eq!(ab_c, a_bc, "associative + commutative");
        assert_eq!(ab_c, all_at_once, "merge == recording the union");
        all_at_once.merge(&Histogram::new());
        assert_eq!(ab_c, all_at_once, "empty is the identity");
    }

    #[test]
    fn percentile_brackets_the_exact_value() {
        let samples: Vec<u64> = (1..=200).map(|i| i * 37).collect();
        let mut h = Histogram::new();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for &v in &samples {
            h.record(v);
        }
        for p in [0u32, 1, 25, 50, 95, 99, 100] {
            let n = sorted.len() as u64;
            let rank = (u64::from(p) * n).div_ceil(100).clamp(1, n);
            let exact = sorted[(rank - 1) as usize];
            let q = h.percentile(p);
            assert!(exact <= q, "p{p}: exact {exact} <= hist {q}");
            assert_eq!(
                Histogram::bucket_of(exact),
                Histogram::bucket_of(q),
                "p{p}: same power-of-two bucket"
            );
        }
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = Histogram::new();
        a.record_n(12, 5);
        a.record_n(9, 0);
        let mut b = Histogram::new();
        for _ in 0..5 {
            b.record(12);
        }
        assert_eq!(a, b);
        assert_eq!((a.count(), a.sum(), a.percentile(100)), (5, 60, 15));
    }
}
