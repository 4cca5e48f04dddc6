//! Order statistics shared by the workloads and the comparison mode.

/// Percentiles the report may quote, highest first.
const LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before the report quotes it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of `p` among `n` samples. The epsilon keeps
/// products like `0.9999 * 100000` from rounding up a whole rank.
fn rank(n: usize, p: f64) -> usize {
    let r = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    r.min(n)
}

/// Samples strictly beyond the nearest-rank position of `p`.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median (mean of the middle pair for even counts); `None` if empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match those computed from the
/// result lines with Python. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: i64| -> f64 {
        // Clamp the rank first, then take the remainder against the
        // clamped rank: at the ends this extrapolates, as Python does.
        let j = ((i * m).div_euclid(4)).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        let k = j as usize;
        (v[k - 1] * (4 - delta) as f64 + v[k] * delta as f64) / 4.0
    };
    Some((q(1), q(3)))
}

/// A sample summarised the way the report prints it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples taken.
    pub n: usize,
    /// Median of the samples.
    pub median: f64,
    /// The highest supported percentile and its nearest-rank value.
    pub tail: Option<(f64, f64)>,
}

/// Summarises `values`; `None` if there are none.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let median = median(values)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let tail = highest_supported(v.len()).and_then(|p| Some((p, nearest_rank(&v, p)?)));
    Some(Summary {
        n: v.len(),
        median,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 99.5), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99.9), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // Ranks round up: 4 samples, p30 covers 1.2 samples -> the 2nd.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 30.0), Some(2.0));
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let s = summarize(&v).expect("non-empty");
        assert_eq!(s.n, 1_000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(
            summarize(&[2.0, 4.0]).map(|s| (s.median, s.tail)),
            Some((3.0, None))
        );
    }
}
