//! Order statistics over timing samples.

/// Nearest-rank quantile (`q ∈ [0, 1]`) of unsorted samples, with the
/// same rank convention as `edgesim::percentile_sorted`; NaN when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    edgesim::percentile_sorted(&sorted, q)
}

/// Median of unsorted samples; NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Largest sample (the fastest rate); NaN when empty.
pub fn best(samples: &[f64]) -> f64 {
    quantile(samples, 1.0)
}

/// Smallest sample (the shortest time); NaN when empty.
pub fn least(samples: &[f64]) -> f64 {
    quantile(samples, 0.0)
}

/// `(p90, p99, count)` of a sample set — the reference tail figures
/// printed beside the gated medians.
pub fn tails(samples: &[f64]) -> (f64, f64, usize) {
    (
        quantile(samples, 0.90),
        quantile(samples, 0.99),
        samples.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ignores_order_and_outliers() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 1000.0, 2.5]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tails_count_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p90, p99, n) = tails(&v);
        assert_eq!(n, 100);
        assert!(p90 < p99);
    }
}
