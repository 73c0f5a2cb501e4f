//! Order statistics and means shared by every workload.

/// Nearest-rank quantile of a sample given as `(value, count)` pairs: the
/// `⌈p·n⌉`-th smallest of the `n = Σ count` values, with `p = 0` mapping to
/// the minimum. Always an observed value, never an interpolation. `p` is
/// clamped to `[0, 1]`.
pub fn nearest_rank(sample: &[(f64, u64)], p: f64) -> f64 {
    let n: u64 = sample.iter().map(|&(_, c)| c).sum();
    assert!(n > 0, "quantile of an empty sample");
    let rank = ((p.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut seen = 0;
    for (value, count) in sorted {
        seen += count;
        if seen >= rank {
            return value;
        }
    }
    unreachable!("the ranks sum to n")
}

/// Conventional median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty sample");
    assert!(
        values.iter().all(|v| *v > 0.0 && v.is_finite()),
        "geometric mean needs positive finite values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(values: impl IntoIterator<Item = f64>) -> Vec<(f64, u64)> {
        values.into_iter().map(|v| (v, 1)).collect()
    }

    #[test]
    fn nearest_rank_returns_observed_values() {
        let xs = ones((1..=100).rev().map(f64::from));
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
        assert_eq!(nearest_rank(&xs, 0.5), 50.0);
        assert_eq!(nearest_rank(&xs, 0.99), 99.0);
        assert_eq!(nearest_rank(&xs, 1.0), 100.0);
        // 1000 samples: p99 is the 990th smallest, so ten samples lie beyond it.
        let xs = ones((1..=1000).map(f64::from));
        assert_eq!(nearest_rank(&xs, 0.99), 990.0);
        assert_eq!(nearest_rank(&ones([7.0]), 0.99), 7.0);
        assert_eq!(nearest_rank(&ones([3.0, 1.0, 2.0]), 0.5), 2.0);
    }

    #[test]
    fn nearest_rank_weighs_counts() {
        // Expanded: 1×3, 2×1, 9×6 — ten values.
        let xs = [(9.0, 6), (1.0, 3), (2.0, 1)];
        assert_eq!(nearest_rank(&xs, 0.29), 1.0);
        assert_eq!(nearest_rank(&xs, 0.35), 2.0);
        assert_eq!(nearest_rank(&xs, 0.41), 9.0);
        assert_eq!(nearest_rank(&xs, 0.99), 9.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }
}
