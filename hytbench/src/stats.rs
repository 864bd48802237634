//! Order statistics and the percentile rule.

/// Median of `xs` (mean of the middle pair for even counts; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between closest
/// ranks (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Samples strictly above the `q`-quantile's rank among `n` samples: the
/// ones the percentile does not speak for.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The percentile rule: a latency percentile is reported only when at
/// least this many samples lie beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Whether `n` samples support reporting the `q`-quantile.
pub fn supports_quantile(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_SAMPLES_BEYOND
}

/// Largest relative error `|a − b| / max(|b|, floor)` over two
/// equal-length slices.
pub fn max_rel_error(got: &[f64], want: &[f64], floor: f64) -> f64 {
    got.iter().zip(want).map(|(&a, &b)| (a - b).abs() / b.abs().max(floor)).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9), 10.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 11.0);
    }

    #[test]
    fn p90_needs_at_least_ten_samples_beyond_it() {
        // 100 samples leave exactly 10 above p90; 99 leave only 9.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(supports_quantile(100, 0.9));
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert!(!supports_quantile(99, 0.9));
        // The median of 20 samples has 10 beyond it.
        assert!(supports_quantile(20, 0.5));
        assert!(!supports_quantile(19, 0.5));
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn relative_error_uses_the_floor_for_tiny_references() {
        assert!((max_rel_error(&[1.01, 2.0], &[1.0, 2.0], 1e-9) - 0.01).abs() < 1e-12);
        assert_eq!(max_rel_error(&[1e-12], &[0.0], 1.0), 1e-12);
    }
}
