//! Order statistics for the result lines: median, nearest-rank percentile,
//! the "at least ten samples beyond it" rule and Python's quartiles.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts ascending; NaN never occurs in a duration.
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty slice. Sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    sort(v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples of `n` that lie strictly beyond the `q` nearest-rank percentile.
fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Whether the `q` percentile of `n` samples may be reported: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supported(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// First and third quartile by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, so `--selfcheck` computes the
/// spread the way the acceptance procedure does. Needs two samples.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, linearly interpolated and
        // clamped to the sample range.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v[..1], 0.99), 1.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supported(99, 0.90) && supported(100, 0.90));
        assert!(!supported(999, 0.99) && supported(1_000, 0.99));
        assert!(!supported(9_999, 0.999) && supported(10_000, 0.999));
        assert_eq!(beyond(10_000, 0.999), 10);
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
    }
}
