//! Order statistics over samples.

/// Nearest-rank percentile `q` (0–100] of `samples`: the smallest sample
/// with at least `q`% of the samples at or below it, so the result is a
/// measured value. `None` when there are no samples.
pub fn percentile(samples: &[u64], q: f64) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

/// First quartile, median and third quartile of `values` (at least one),
/// computed as Python's `statistics.quantiles(values, n=4)` and
/// `statistics.median` compute them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return (v[0], median, v[0]);
    }
    // The "exclusive" method: position i·(n+1)/4, interpolated, with the
    // index clamped to 1..=n-1.
    let quantile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quantile(1), median, quantile(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&xs, 50.0), Some(50));
        assert_eq!(percentile(&xs, 99.0), Some(99));
        assert_eq!(percentile(&xs, 100.0), Some(100));
        assert_eq!(percentile(&[7], 90.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
    }
}
