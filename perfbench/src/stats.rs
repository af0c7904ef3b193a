//! Order statistics for the benchmark's reports.

/// Percentiles the tail metric may report, in tenths of a percent, highest
/// first.
const TAIL_LADDER: [usize; 8] = [999, 995, 990, 980, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `v`; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `p`-th percentile of `v` by linear interpolation between closest
/// ranks (the definition numpy uses by default). Infinite samples sort
/// last, so a percentile that reaches a failed request reads infinite.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi || s[lo] == s[hi] {
        return s[lo];
    }
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, or `None` when `n` is too
/// small for even the median.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .find(|&&p| n * (1000 - p) / 1000 >= TAIL_MIN_BEYOND)
        .map(|&p| p as f64 / 10.0)
}

/// Smallest of `v`; 0 for an empty slice.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Folds latency sample `v` into the fastest sample so far, `acc` (`NaN`
/// before the first): a failure (`+inf`) sticks, so a request that failed
/// once misses every latency limit however often it succeeded.
pub fn floor(acc: f64, v: f64) -> f64 {
    if acc.is_nan() || acc == f64::INFINITY {
        acc.max(v)
    } else if v == f64::INFINITY {
        v
    } else {
        acc.min(v)
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// One request's latency in milliseconds, or `+inf` when it failed or was
/// refused: a request that got no valid answer misses every latency limit.
pub fn latency_sample(ms: f64, ok: bool) -> f64 {
    if ok {
        ms
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.5));
        assert_eq!(tail_percentile(1_056), Some(99.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(504), Some(98.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            let beyond = n - (n as f64 * p / 100.0).ceil() as usize;
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 75.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failed_requests_count_as_missing_latency_limits() {
        let ok: Vec<f64> = (1..=100).map(|i| latency_sample(i as f64, true)).collect();
        let mut with_failures = ok.clone();
        // Replace the 20 fastest answers by failures: the median and the tail
        // must not improve, and the tail now reads infinite.
        for s in with_failures.iter_mut().take(20) {
            *s = latency_sample(0.001, false);
        }
        assert!(median(&with_failures) >= median(&ok));
        assert_eq!(percentile(&with_failures, 90.0), f64::INFINITY);
        assert!(percentile(&ok, 90.0).is_finite());
        assert_eq!(latency_sample(3.0, false), f64::INFINITY);
    }

    #[test]
    fn floors_keep_the_fastest_answer_and_every_failure() {
        let fold = |v: &[f64]| v.iter().fold(f64::NAN, |acc, &x| floor(acc, x));
        assert_eq!(fold(&[3.0, 1.5, 2.0]), 1.5);
        let inf = latency_sample(0.1, false);
        assert_eq!(fold(&[3.0, inf, 1.0]), f64::INFINITY);
        assert_eq!(fold(&[inf, 1.0]), f64::INFINITY);
        assert_eq!(fastest(&[2.0, 0.5, 1.0]), 0.5);
        assert_eq!(fastest(&[]), 0.0);
    }
}
