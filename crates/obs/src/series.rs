//! Cycle-bucketed time series, and the owner-side sums that feed them.

use gps_types::Cycle;

use crate::recorder::BUCKET_CYCLES;

/// A dense, cycle-bucketed series of `f64` samples.
///
/// Simulated time is divided into fixed-width buckets of `bucket_cycles`;
/// the vector grows on demand to cover the latest sample, so memory is
/// proportional to simulated time / bucket width regardless of event rate.
/// Two accumulation modes share the storage:
///
/// * [`add`](TimeSeries::add) — counters: deltas within a bucket sum.
/// * [`sample`](TimeSeries::sample) — gauges: the last level per bucket
///   wins.
///
/// ```
/// use gps_obs::TimeSeries;
/// use gps_types::Cycle;
///
/// let mut s = TimeSeries::new(100);
/// s.add(Cycle::new(10), 1.0);
/// s.add(Cycle::new(90), 2.0);
/// s.add(Cycle::new(150), 4.0);
/// assert_eq!(s.bucket(0), 3.0);
/// assert_eq!(s.bucket(1), 4.0);
/// assert_eq!(s.total(), 7.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bucket_cycles: u64,
    buckets: Vec<f64>,
    total: f64,
    samples: u64,
}

impl TimeSeries {
    /// Creates an empty series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_cycles` is zero.
    pub fn new(bucket_cycles: u64) -> Self {
        assert!(bucket_cycles > 0, "bucket width must be positive");
        Self {
            bucket_cycles,
            buckets: Vec::new(),
            total: 0.0,
            samples: 0,
        }
    }

    fn index(&mut self, now: Cycle) -> usize {
        let idx = (now.as_u64() / self.bucket_cycles) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        idx
    }

    /// Adds `delta` to the bucket containing `now` (counter mode).
    pub fn add(&mut self, now: Cycle, delta: f64) {
        let idx = self.index(now);
        // gps-lint: allow(no_slice_index) -- index() just resized buckets to cover idx
        self.buckets[idx] += delta;
        self.total += delta;
        self.samples += 1;
    }

    /// Overwrites the bucket containing `now` with `value` (gauge mode:
    /// last sample per bucket wins).
    pub fn sample(&mut self, now: Cycle, value: f64) {
        let idx = self.index(now);
        // gps-lint: allow(no_slice_index) -- index() just resized buckets to cover idx
        self.buckets[idx] = value;
        self.samples += 1;
    }

    /// Bucket width in cycles.
    pub fn bucket_cycles(&self) -> u64 {
        self.bucket_cycles
    }

    /// Number of buckets covered (up to the latest sample).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Value of bucket `idx` (zero for never-touched buckets in range).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bucket(&self, idx: usize) -> f64 {
        // gps-lint: allow(no_slice_index) -- documented panic contract: caller promises idx < len()
        self.buckets[idx]
    }

    /// Sum of all deltas ever added (counter mode; meaningless for gauges).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Emissions recorded: for a counter fed from [`BucketSums`], one per
    /// flushed bucket, not one per counted access.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Iterates `(bucket_start, value)` over non-zero buckets.
    pub fn points(&self) -> impl Iterator<Item = (Cycle, f64)> + '_ {
        let width = self.bucket_cycles;
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0.0)
            .map(move |(i, &v)| (Cycle::new(i as u64 * width), v))
    }

    /// Sum of bucket values whose bucket start lies in `[start, end)` —
    /// the per-phase aggregation used by the text breakdown. Boundary
    /// buckets attribute to the phase containing their start.
    pub fn sum_range(&self, start: Cycle, end: Cycle) -> f64 {
        self.points()
            .filter(|&(t, _)| t >= start && t < end)
            .map(|(_, v)| v)
            .sum()
    }
}

/// Per-bucket `u64` sums of one hot counter, kept by the component that
/// counts it and handed to a probe once per phase.
///
/// A per-access [`ProbeHandle::counter`](crate::ProbeHandle::counter)
/// call takes a lock and looks up a row. The TLBs, DRAM channels and
/// fabric links of a simulated machine count millions of accesses per
/// run, so they [`add`](BucketSums::add) into their own sums instead, and
/// the engine [`drain`](BucketSums::drain)s those into the run's probe at
/// each phase end with one counter call per touched bucket of
/// [`BUCKET_CYCLES`]. Disabled (the default), `add` is one branch.
///
/// **Why the recording is exact.** Every exported number of a counter
/// series is a per-bucket sum: the bucket values, their count (`len`,
/// one past the latest touched bucket), the total, and whether the row
/// exists at all. A drained sum lands in the same bucket its deltas
/// would have, and a touch with a zero delta still drains, so the row
/// and `len` match. Every delta here is a non-negative integer (a count
/// or a byte count) and every sum stays below 2^53, so each `f64` bucket
/// and total is an exactly represented integer whichever way its deltas
/// are grouped: summing per access or per drained bucket, over one phase
/// or several, gives the same bits.
///
/// ```
/// use gps_obs::{BucketSums, BUCKET_CYCLES};
/// use gps_types::Cycle;
///
/// let mut hits = BucketSums::enabled();
/// hits.add(Cycle::new(5), 1);
/// hits.add(Cycle::new(9), 1);
/// hits.add(Cycle::new(BUCKET_CYCLES), 0); // touched, nothing counted
/// let drained: Vec<_> = hits.drain().collect();
/// assert_eq!(drained, vec![(Cycle::ZERO, 2), (Cycle::new(BUCKET_CYCLES), 0)]);
/// assert_eq!(hits.drain().count(), 0, "a drain clears");
///
/// let mut off = BucketSums::default();
/// off.add(Cycle::ZERO, 1);
/// assert_eq!(off.drain().count(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BucketSums {
    enabled: bool,
    /// Bucket index of `slots[0]`.
    base: usize,
    /// One slot per bucket from `base` on: 0 if untouched since the last
    /// drain, else 1 + the bucket's sum.
    slots: Vec<u64>,
}

impl BucketSums {
    /// Empty sums that count what they are given.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Adds `delta` to the bucket containing `now`.
    #[inline]
    pub fn add(&mut self, now: Cycle, delta: u64) {
        if self.enabled {
            self.add_enabled(now, delta);
        }
    }

    /// The enabled half of [`add`](BucketSums::add), kept out of line so
    /// that an unprobed run's call sites inline only the flag check.
    #[inline(never)]
    fn add_enabled(&mut self, now: Cycle, delta: u64) {
        let at = (now.as_u64() / BUCKET_CYCLES) as usize;
        match self.slots.get_mut(at.wrapping_sub(self.base)) {
            Some(slot) => *slot = (*slot).max(1) + delta,
            None => self.add_outside(at, delta),
        }
    }

    /// [`add`](BucketSums::add) to bucket `at` outside the slots: the
    /// first touch since a drain, a later bucket, or an earlier one.
    #[cold]
    fn add_outside(&mut self, at: usize, delta: u64) {
        if self.slots.is_empty() {
            self.base = at;
        } else if at < self.base {
            self.slots
                .splice(0..0, std::iter::repeat_n(0, self.base - at));
            self.base = at;
        }
        let i = at - self.base;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, 0);
        }
        if let Some(slot) = self.slots.get_mut(i) {
            *slot = (*slot).max(1) + delta;
        }
    }

    /// Hands back `(bucket start, sum)` for every bucket touched since the
    /// last drain, in time order, and clears the sums (keeping their
    /// capacity).
    pub fn drain(&mut self) -> impl Iterator<Item = (Cycle, u64)> + '_ {
        let base = self.base;
        self.slots
            .drain(..)
            .enumerate()
            .filter(|&(_, slot)| slot != 0)
            .map(move |(i, slot)| (Cycle::new((base + i) as u64 * BUCKET_CYCLES), slot - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProbeHandle, Telemetry, Track};
    use gps_types::rng::SmallRng;

    #[test]
    fn counters_accumulate_per_bucket() {
        let mut s = TimeSeries::new(10);
        s.add(Cycle::new(0), 1.0);
        s.add(Cycle::new(9), 1.0);
        s.add(Cycle::new(10), 5.0);
        assert_eq!(s.bucket(0), 2.0);
        assert_eq!(s.bucket(1), 5.0);
        assert_eq!(s.total(), 7.0);
        assert_eq!(s.samples(), 3);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn gauges_keep_last_sample() {
        let mut s = TimeSeries::new(10);
        s.sample(Cycle::new(3), 7.0);
        s.sample(Cycle::new(8), 2.0);
        assert_eq!(s.bucket(0), 2.0);
    }

    #[test]
    fn sparse_series_grow_on_demand() {
        let mut s = TimeSeries::new(100);
        s.add(Cycle::new(10_000), 1.0);
        assert_eq!(s.len(), 101);
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts, vec![(Cycle::new(10_000), 1.0)]);
    }

    #[test]
    fn range_sum_is_half_open() {
        let mut s = TimeSeries::new(10);
        for t in [0u64, 10, 20, 30] {
            s.add(Cycle::new(t), 1.0);
        }
        assert_eq!(s.sum_range(Cycle::new(10), Cycle::new(30)), 2.0);
        assert_eq!(s.sum_range(Cycle::ZERO, Cycle::new(40)), 4.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_width_rejected() {
        let _ = TimeSeries::new(0);
    }

    /// Every counter row of `t`: `(track, name, buckets, total)`.
    type Row = (Track, &'static str, Vec<f64>, f64);

    fn rows(t: &Telemetry) -> Vec<Row> {
        t.counters
            .iter()
            .map(|s| {
                let buckets = (0..s.series.len()).map(|i| s.series.bucket(i)).collect();
                (s.track, s.name, buckets, s.series.total())
            })
            .collect()
    }

    #[test]
    fn drained_sums_record_like_per_emission_counters() {
        const NAMES: [&str; 3] = ["tlb_hit", "dram_read_bytes", "link_egress_bytes"];
        let key = |k: usize| (Track::gpu(k / NAMES.len()), NAMES[k % NAMES.len()]);
        let mut rng = SmallRng::seed_from_u64(0xb0c3);
        for _ in 0..200 {
            let keys = rng.gen_range_usize(1..7);
            let (direct, summed) = (ProbeHandle::recording(), ProbeHandle::recording());
            let mut sums: Vec<BucketSums> = (0..keys).map(|_| BucketSums::enabled()).collect();
            let mut clock = 0u64;
            for _phase in 0..rng.gen_range(1..5) {
                for _ in 0..rng.gen_range(0..300) {
                    let k = rng.gen_range_usize(0..keys);
                    // Mostly forward, sometimes far ahead, sometimes back
                    // across bucket edges.
                    clock = match rng.gen_range(0..10) {
                        0 | 1 => clock.saturating_sub(rng.gen_range(0..3 * BUCKET_CYCLES)),
                        2 => clock + rng.gen_range(0..20 * BUCKET_CYCLES),
                        _ => clock + rng.gen_range(0..BUCKET_CYCLES / 2),
                    };
                    // Key 0 only ever sees zero deltas: its row and its
                    // length come from touches alone.
                    let delta = if k == 0 || rng.gen_bool(0.2) {
                        0
                    } else {
                        rng.gen_range(1..4096)
                    };
                    let (track, name) = key(k);
                    direct.counter(track, name, Cycle::new(clock), delta as f64);
                    sums[k].add(Cycle::new(clock), delta);
                }
                for (k, s) in sums.iter_mut().enumerate() {
                    let (track, name) = key(k);
                    for (at, sum) in s.drain() {
                        summed.counter(track, name, at, sum as f64);
                    }
                }
            }
            let (direct, summed) = (direct.finish().unwrap(), summed.finish().unwrap());
            assert_eq!(rows(&direct), rows(&summed));
        }
    }

    #[test]
    fn sums_reach_back_to_earlier_buckets() {
        let mut s = BucketSums::enabled();
        s.add(Cycle::new(5 * BUCKET_CYCLES), 2);
        s.add(Cycle::new(2 * BUCKET_CYCLES + 1), 3);
        s.add(Cycle::new(5 * BUCKET_CYCLES + 9), 4);
        let drained: Vec<_> = s.drain().collect();
        assert_eq!(
            drained,
            vec![
                (Cycle::new(2 * BUCKET_CYCLES), 3),
                (Cycle::new(5 * BUCKET_CYCLES), 6)
            ]
        );
    }
}
