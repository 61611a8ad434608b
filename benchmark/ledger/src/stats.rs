//! Order statistics: percentiles with the ten-samples-beyond rule, and
//! the quartiles `ledger agree` compares run sets with.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the rule the acceptance driver applies to ten runs. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail percentile a sample of `n` supports: 0.99 while at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it (n ≥ 1000), otherwise the
/// highest percentile that still has ten beyond it; `None` below twenty
/// samples, where even the median has fewer than ten on its far side.
pub fn supported_tail(n: usize) -> Option<f64> {
    if n < 2 * TAIL_MIN_BEYOND {
        None
    } else {
        Some((1.0 - TAIL_MIN_BEYOND as f64 / n as f64).min(0.99))
    }
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample (sorted in place);
/// `None` when it is empty.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    samples.sort_unstable();
    (!samples.is_empty()).then(|| percentile_sorted(samples, p))
}

/// A latency sample's reported order statistics, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples summarised.
    pub count: usize,
    /// Median.
    pub p50_ns: f64,
    /// The tail value at [`tail_p`](Self::tail_p).
    pub tail_ns: f64,
    /// The percentile `tail_ns` was read at (0.99 when supported).
    pub tail_p: f64,
}

/// Summarise `samples` (sorted in place); `None` when there are none.
/// A sample too small for any tail percentile ([`supported_tail`]) reports
/// its maximum as the tail, marked `tail_p` = 1.
pub fn summarize(samples: &mut [u64]) -> Option<LatencySummary> {
    let p50_ns = percentile(samples, 0.50)? as f64;
    let tail_p = supported_tail(samples.len()).unwrap_or(1.0);
    Some(LatencySummary {
        count: samples.len(),
        p50_ns,
        tail_ns: percentile_sorted(samples, tail_p) as f64,
        tail_p,
    })
}

/// Least-squares slope of `y` over `x` (0 with fewer than two points or
/// no spread in `x`).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        return 0.0;
    }
    points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>() / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(5000), Some(0.99));
        // 999 samples: p99 would leave only 9.99 beyond it.
        let p = supported_tail(999).unwrap();
        assert!(p < 0.99 && (999.0 * (1.0 - p) - 10.0).abs() < 1e-9);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(19), None);
    }

    #[test]
    fn summary_reads_nearest_rank() {
        let mut s: Vec<u64> = (1..=2000).rev().collect();
        let sum = summarize(&mut s).unwrap();
        assert_eq!(sum.count, 2000);
        assert_eq!(sum.p50_ns, 1000.0);
        assert_eq!(sum.tail_ns, 1980.0);
        assert_eq!(sum.tail_p, 0.99);
        // Too few for any percentile: the maximum stands in for the tail.
        let small = summarize(&mut [3, 1, 2]).unwrap();
        assert_eq!((small.p50_ns, small.tail_ns, small.tail_p), (2.0, 3.0, 1.0));
        assert!(summarize(&mut []).is_none());
    }

    #[test]
    fn slope_of_a_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-12);
        assert_eq!(slope(&[(1.0, 2.0)]), 0.0);
    }
}
