//! Order statistics over host-time samples.

/// The nearest-rank percentile of `samples`: the smallest sample such that
/// at least `p` percent of all samples are at or below it. `None` for an
/// empty sample or a `p` outside `(0, 100]`.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted.get(rank.clamp(1, n) - 1).copied()
}

/// The nearest-rank median (the lower middle sample for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 50.0)
}

/// A timing summary: median, 75th percentile and the sample count they
/// rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 75th percentile.
    pub p75: f64,
}

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    Some(Summary {
        n: samples.len(),
        p50: median(samples)?,
        p75: nearest_rank(samples, 75.0)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), Some(3.0));
        assert_eq!(nearest_rank(&s, 75.0), Some(4.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(1.0));
        // Even counts take the lower middle sample, never an average.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.5]), Some(7.5));
    }

    #[test]
    fn p75_of_48_samples_leaves_12_beyond_it() {
        let s: Vec<f64> = (1..=48).map(f64::from).collect();
        let sum = summarize(&s).unwrap();
        assert_eq!(sum.n, 48);
        assert_eq!(sum.p50, 24.0);
        assert_eq!(sum.p75, 36.0);
        assert_eq!(s.iter().filter(|&&v| v > sum.p75).count(), 12);
    }

    #[test]
    fn empty_and_out_of_range_requests_have_no_answer() {
        assert_eq!(median(&[]), None);
        assert_eq!(summarize(&[]), None);
        assert_eq!(nearest_rank(&[1.0], 0.0), None);
        assert_eq!(nearest_rank(&[1.0], 100.5), None);
    }
}
