//! Simple smoothing filters used ahead of peak detection.

/// Centred moving average with an odd window of `2·half + 1` samples.
/// Edges use a shrunken window.
pub fn moving_average(xs: &[f64], half: usize) -> Vec<f64> {
    if xs.is_empty() || half == 0 {
        return xs.to_vec();
    }
    let n = xs.len();
    // Prefix sums for O(n).
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    for &x in xs {
        prefix.push(prefix.last().expect("non-empty prefix") + x);
    }
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            (prefix[hi] - prefix[lo]) / (hi - lo) as f64
        })
        .collect()
}

/// Centred median filter with an odd window of `2·half + 1` samples.
/// Edges use a shrunken window. Good at removing single-sample glitches
/// without widening peaks.
pub fn median_filter(xs: &[f64], half: usize) -> Vec<f64> {
    if xs.is_empty() || half == 0 {
        return xs.to_vec();
    }
    let n = xs.len();
    let mut scratch = Vec::with_capacity(2 * half + 1);
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            scratch.clear();
            scratch.extend_from_slice(&xs[lo..hi]);
            scratch.sort_by(f64::total_cmp);
            scratch[scratch.len() / 2]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_preserves_constants() {
        let xs = vec![3.0; 50];
        assert_eq!(moving_average(&xs, 4), xs);
    }

    #[test]
    fn moving_average_smooths_alternation() {
        let xs: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let smoothed = moving_average(&xs, 2);
        let peak = smoothed[10..90].iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(peak < 0.25, "peak {peak}");
    }

    #[test]
    fn moving_average_zero_half_is_identity() {
        let xs = vec![1.0, 5.0, -2.0];
        assert_eq!(moving_average(&xs, 0), xs);
    }

    #[test]
    fn median_removes_single_glitch() {
        let mut xs = vec![0.0; 21];
        xs[10] = 100.0;
        let filtered = median_filter(&xs, 2);
        assert!(filtered.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn median_preserves_wide_step() {
        let mut xs = vec![0.0; 40];
        for x in xs.iter_mut().skip(20) {
            *x = 1.0;
        }
        let filtered = median_filter(&xs, 2);
        assert_eq!(filtered[10], 0.0);
        assert_eq!(filtered[30], 1.0);
    }

    #[test]
    fn filters_handle_empty_input() {
        assert!(moving_average(&[], 3).is_empty());
        assert!(median_filter(&[], 3).is_empty());
    }

    #[test]
    fn output_lengths_match_input() {
        let xs: Vec<f64> = (0..123).map(|i| i as f64).collect();
        assert_eq!(moving_average(&xs, 5).len(), xs.len());
        assert_eq!(median_filter(&xs, 5).len(), xs.len());
    }
}
