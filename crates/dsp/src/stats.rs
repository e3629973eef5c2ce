//! Elementary statistics used across the analysis pipeline and benches.

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (0.0 for fewer than two samples).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Coefficient of variation σ/µ (0.0 when the mean is zero).
pub fn coefficient_of_variation(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        0.0
    } else {
        std_dev(xs) / m.abs()
    }
}

/// `p`-th percentile (0–100) by linear interpolation on the sorted data.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Robust standard-deviation estimate via the median absolute deviation
/// (MAD × 1.4826). Insensitive to a minority of outliers such as particle
/// peaks riding on a noise floor. Returns 0.0 for empty input.
pub fn robust_sigma(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let mut deviations: Vec<f64> = xs.iter().map(|x| (x - median).abs()).collect();
    deviations.sort_by(f64::total_cmp);
    1.4826 * deviations[deviations.len() / 2]
}

/// Result of an ordinary least-squares straight-line fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
}

impl LinearFit {
    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Ordinary least-squares regression of `ys` on `xs`.
///
/// # Panics
///
/// Panics if the slices differ in length or hold fewer than two points.
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    assert!(xs.len() >= 2, "regression needs at least two points");
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
        syy += (y - my) * (y - my);
    }
    assert!(sxx > 0.0, "regression needs x variation");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LinearFit {
        slope,
        intercept,
        r_squared,
    }
}

/// Fixed-width histogram over `[lo, hi)` with `bins` buckets.
/// Out-of-range samples are clamped into the end buckets.
///
/// # Panics
///
/// Panics if `bins == 0` or `hi <= lo`.
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    assert!(bins > 0, "histogram needs at least one bin");
    assert!(hi > lo, "histogram range must be non-empty");
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for &x in xs {
        let idx = ((x - lo) / width).floor();
        let idx = idx.clamp(0.0, (bins - 1) as f64) as usize;
        counts[idx] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[]), 0.0);
    }

    #[test]
    fn perfect_line_regression() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 2.0).collect();
        let fit = linear_regression(&xs, &ys);
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 2.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!((fit.predict(20.0) - 58.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_has_sub_unity_r2() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + if i % 2 == 0 { 5.0 } else { -5.0 })
            .collect();
        let fit = linear_regression(&xs, &ys);
        assert!(fit.r_squared < 1.0);
        assert!(fit.r_squared > 0.9);
        assert!((fit.slope - 2.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn regression_rejects_single_point() {
        let _ = linear_regression(&[1.0], &[1.0]);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let xs = [-1.0, 0.1, 0.2, 0.55, 0.9, 2.0];
        let h = histogram(&xs, 0.0, 1.0, 2);
        assert_eq!(h, vec![3, 3]);
    }

    #[test]
    fn robust_sigma_matches_stddev_on_clean_gaussianish_data() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| ((i * 37) % 100) as f64 / 100.0 - 0.5)
            .collect();
        let classic = std_dev(&xs);
        let robust = robust_sigma(&xs);
        assert!(
            (robust / classic - 1.0).abs() < 0.35,
            "{robust} vs {classic}"
        );
    }

    #[test]
    fn robust_sigma_ignores_outliers() {
        let mut xs: Vec<f64> = (0..1000)
            .map(|i| ((i * 37) % 100) as f64 / 1000.0)
            .collect();
        for i in 0..20 {
            xs[i * 50] = 100.0; // 2% wild outliers
        }
        assert!(robust_sigma(&xs) < 0.2);
        assert!(std_dev(&xs) > 1.0);
        assert_eq!(robust_sigma(&[]), 0.0);
    }

    #[test]
    fn cv_scales_with_spread() {
        let tight = [10.0, 10.1, 9.9];
        let wide = [10.0, 15.0, 5.0];
        assert!(coefficient_of_variation(&tight) < coefficient_of_variation(&wide));
    }
}
