//! Segmented polynomial detrending (Sec. VI-C).
//!
//! "By partitioning the signal sequence into a smaller train of data
//! sub-sequences, the second order polynomial fitting line would be
//! sufficient to conform the baseline drifting of each section... The
//! sub-sequences of the signal are detrended with overlap sections to
//! minimize the error of the fitted polynomial at both ends... After fitting
//! the sub-sequence with a second order polynomial, the data section is
//! detrended and normalized by dividing the subsection of data by the fitted
//! polynomial. The baseline of the detrended sub-sequences has a mean value
//! of one. Peak detection is achieved by setting a minimum threshold on the
//! data section of one minus the detrended subsequence."
//!
//! [`detrend_segmented`] returns exactly that final quantity: the *depth
//! signal* `1 − (signal / fitted baseline)`, which is ≈ 0 on the baseline and
//! positive inside particle dips.

use crate::polyfit::{polyfit, polyfit_weighted, Polynomial};

/// Robust two-pass fit: an initial fit, then a refit with samples that dip
/// more than 3 robust σ below the baseline masked out, so particle dips do
/// not drag the baseline estimate down (which otherwise manufactures
/// spurious "peaks" near segment edges).
fn robust_fit(ys: &[f64], order: usize) -> Polynomial {
    let first = polyfit(ys, order);
    // Depth residuals relative to the first fit.
    let residuals: Vec<f64> = ys
        .iter()
        .enumerate()
        .map(|(i, &y)| 1.0 - y / first.eval_at_index(i))
        .collect();
    // Robust scale: median absolute deviation.
    let mut abs: Vec<f64> = residuals.iter().map(|r| r.abs()).collect();
    abs.sort_by(f64::total_cmp);
    let mad = abs[abs.len() / 2];
    let sigma = (1.4826 * mad).max(1e-9);
    let weights: Vec<f64> = residuals
        .iter()
        .map(|&r| if r > 3.0 * sigma { 0.0 } else { 1.0 })
        .collect();
    let effective = weights.iter().filter(|&&w| w > 0.0).count();
    if effective > order {
        polyfit_weighted(ys, order, Some(&weights))
    } else {
        first
    }
}

/// Configuration for segmented detrending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetrendConfig {
    /// Polynomial order per segment (paper: 2).
    pub order: usize,
    /// Segment length in samples.
    pub window: usize,
    /// Extra samples borrowed on each side of a segment for the fit.
    pub overlap: usize,
}

impl DetrendConfig {
    /// The paper's choice: order 2 on ~4.4 s windows (2000 samples at
    /// 450 Hz) with 10 % overlap.
    pub fn paper_default() -> Self {
        Self {
            order: 2,
            window: 2000,
            overlap: 200,
        }
    }

    /// A config with a different polynomial order (for the ablation bench).
    pub fn with_order(order: usize) -> Self {
        Self {
            order,
            ..Self::paper_default()
        }
    }
}

impl Default for DetrendConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Whole-trace detrend (no segmentation) — the under-fitting baseline the
/// paper rejects for long traces; kept for the ablation bench.
///
/// Returns the depth signal `1 − signal/fit`.
///
/// # Panics
///
/// Panics if the signal has fewer than `order + 1` samples.
pub fn detrend_whole(signal: &[f64], order: usize) -> Vec<f64> {
    let poly = robust_fit(signal, order);
    signal
        .iter()
        .enumerate()
        .map(|(i, &y)| {
            let base = poly.eval_at_index(i);
            1.0 - y / base
        })
        .collect()
}

/// Segmented detrend with overlap: the paper's algorithm.
///
/// Each `config.window`-sample segment is fitted (order `config.order`)
/// over the segment *plus* `config.overlap` samples on each side, then only
/// the segment itself is normalized by its fit and emitted. Returns the depth
/// signal `1 − signal/fit`, concatenated over all segments.
///
/// Signals shorter than one window fall back to a whole-trace fit.
pub fn detrend_segmented(signal: &[f64], config: &DetrendConfig) -> Vec<f64> {
    assert!(
        config.window > config.order,
        "window too small for the order"
    );
    if signal.len() <= config.window + config.order + 1 {
        if signal.len() > config.order + 1 {
            return detrend_whole(signal, config.order);
        }
        // Degenerate tiny input: normalize by its mean.
        let m = crate::stats::mean(signal);
        return signal
            .iter()
            .map(|&y| if m == 0.0 { 0.0 } else { 1.0 - y / m })
            .collect();
    }

    let n = signal.len();
    let mut depth = Vec::with_capacity(n);
    let mut start = 0usize;
    while start < n {
        let end = (start + config.window).min(n);
        let fit_start = start.saturating_sub(config.overlap);
        let fit_end = (end + config.overlap).min(n);
        let poly = robust_fit(&signal[fit_start..fit_end], config.order);
        for (i, &y) in signal.iter().enumerate().take(end).skip(start) {
            let base = poly.eval_at_index(i - fit_start);
            depth.push(1.0 - y / base);
        }
        start = end;
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slow quadratic + sinusoidal baseline with dips at known locations.
    fn synthetic(n: usize, dip_at: &[usize], dip_depth: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64;
                let baseline = 1.0 + 4e-5 * x - 1e-9 * x * x + 2e-3 * (x / 2_000.0).sin();
                let dip: f64 = dip_at
                    .iter()
                    .map(|&c| {
                        let d = (x - c as f64) / 3.0;
                        dip_depth * (-d * d).exp()
                    })
                    .sum();
                baseline * (1.0 - dip)
            })
            .collect()
    }

    #[test]
    fn baseline_detrends_to_near_zero() {
        let sig = synthetic(20_000, &[], 0.0);
        let depth = detrend_segmented(&sig, &DetrendConfig::paper_default());
        let worst = depth.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(worst < 5e-4, "residual baseline {worst}");
    }

    #[test]
    fn an_all_zero_signal_detrends_without_panicking() {
        // A zero baseline makes every depth 0/0: NaN out, not a panic.
        let depth = detrend_segmented(&[0.0; 5_000], &DetrendConfig::paper_default());
        assert_eq!(depth.len(), 5_000);
        assert!(depth.iter().all(|d| d.is_nan()));
    }

    #[test]
    fn dips_survive_detrending_with_correct_depth() {
        let sig = synthetic(10_000, &[2_500, 7_500], 0.01);
        let depth = detrend_segmented(&sig, &DetrendConfig::paper_default());
        assert!((depth[2_500] - 0.01).abs() < 2e-3, "depth {}", depth[2_500]);
        assert!((depth[7_500] - 0.01).abs() < 2e-3, "depth {}", depth[7_500]);
    }

    #[test]
    fn whole_trace_order2_underfits_long_drift() {
        // The paper: "for the large sequence of the signal, a second order
        // polynomial line clearly under-fits the baseline drift".
        let sig = synthetic(100_000, &[], 0.0);
        let whole = detrend_whole(&sig, 2);
        let segmented = detrend_segmented(&sig, &DetrendConfig::paper_default());
        let worst = |d: &[f64]| d.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(
            worst(&whole) > 3.0 * worst(&segmented),
            "whole {} vs segmented {}",
            worst(&whole),
            worst(&segmented)
        );
    }

    #[test]
    fn high_order_deforms_peaks_more_than_order2() {
        // The paper rejects high orders because over-fitting "would cause the
        // peaks of the signal to deform to a larger degree": with short
        // windows the fit starts absorbing the dip itself.
        let sig = synthetic(4_000, &[2_000], 0.01);
        let cfg2 = DetrendConfig {
            order: 2,
            window: 500,
            overlap: 50,
        };
        let cfg12 = DetrendConfig {
            order: 12,
            window: 500,
            overlap: 50,
        };
        let d2 = detrend_segmented(&sig, &cfg2)[2_000];
        let d12 = detrend_segmented(&sig, &cfg12)[2_000];
        assert!(
            d12 < d2,
            "order 12 should absorb peak energy: d2={d2}, d12={d12}"
        );
    }

    #[test]
    fn short_signal_falls_back_to_whole_fit() {
        let sig = synthetic(500, &[250], 0.01);
        let depth = detrend_segmented(&sig, &DetrendConfig::paper_default());
        assert_eq!(depth.len(), 500);
        assert!(depth[250] > 0.005);
    }

    #[test]
    fn tiny_signal_normalizes_by_mean() {
        let sig = vec![2.0, 2.0];
        let depth = detrend_segmented(&sig, &DetrendConfig::paper_default());
        assert_eq!(depth, vec![0.0, 0.0]);
    }

    #[test]
    fn output_length_always_matches_input() {
        for n in [1usize, 2, 100, 1_999, 2_000, 2_001, 5_432] {
            let sig = synthetic(n, &[], 0.0);
            let depth = detrend_segmented(&sig, &DetrendConfig::paper_default());
            assert_eq!(depth.len(), n, "length mismatch at n={n}");
        }
    }

    #[test]
    fn segment_boundaries_do_not_create_spurious_peaks() {
        let sig = synthetic(10_000, &[], 0.0);
        let depth = detrend_segmented(&sig, &DetrendConfig::paper_default());
        // Check samples right at window boundaries.
        for b in [2_000usize, 4_000, 6_000, 8_000] {
            assert!(
                depth[b].abs() < 1e-3,
                "boundary artifact at {b}: {}",
                depth[b]
            );
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn pure_quadratic_baselines_detrend_to_zero(
                a in 0.5f64..2.0,
                b in -1e-5f64..1e-5,
                c in -1e-9f64..1e-9,
                n in 3_000usize..12_000,
            ) {
                let sig: Vec<f64> = (0..n)
                    .map(|i| {
                        let x = i as f64;
                        a + b * x + c * x * x
                    })
                    .collect();
                let depth = detrend_segmented(&sig, &DetrendConfig::paper_default());
                let worst = depth.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
                prop_assert!(worst < 1e-6, "worst residual {worst}");
            }
        }
    }
}
