//! Threshold peak detection on the detrended depth signal.
//!
//! "Peak detection is achieved by setting a minimum threshold on the data
//! section of one minus the detrended subsequence" (Sec. VI-C). A peak is a
//! contiguous run of depth samples above the threshold; the detector reports
//! its amplitude (maximum depth), width, and timestamp — the three
//! characteristics the cipher deliberately randomizes.

/// One detected peak in the depth signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Sample index of the maximum depth.
    pub index: usize,
    /// Timestamp of the maximum (seconds), given the caller's sample rate.
    pub time_s: f64,
    /// Maximum depth (normalized units; e.g. 0.004 = 0.4 % dip).
    pub amplitude: f64,
    /// Width in samples (run length above threshold).
    pub width_samples: usize,
    /// Width in seconds.
    pub width_s: f64,
}

/// Threshold-based peak detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdDetector {
    /// Minimum depth a sample must exceed to be inside a peak.
    pub threshold: f64,
    /// Minimum run length (samples) for a run to count as a peak — rejects
    /// single-sample noise spikes.
    pub min_width: usize,
    /// Minimum gap (samples) below threshold required to split two peaks;
    /// shorter gaps are merged into one peak.
    pub merge_gap: usize,
    /// Valley split ratio: an above-threshold run is cut at an interior
    /// local minimum when the valley is below `split_ratio` × the smaller of
    /// the two flanking maxima. Deep peaks' filter tails can hold the signal
    /// above the absolute threshold between two genuine dips; prominence
    /// splitting recovers them.
    pub split_ratio: f64,
}

impl ThresholdDetector {
    /// Detector tuned to the synthesiser's noise floor (σ = 3 × 10⁻⁴):
    /// a 3.3 σ threshold with a 2-sample width requirement (the width
    /// requirement suppresses the residual single-sample noise crossings, so
    /// the effective false-positive rate stays negligible while the smallest
    /// bead's LPF-attenuated dips remain detectable).
    pub fn paper_default() -> Self {
        Self {
            threshold: 1.0e-3,
            min_width: 2,
            merge_gap: 1,
            split_ratio: 0.5,
        }
    }

    /// A detector with a custom threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not strictly positive.
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        Self {
            threshold,
            ..Self::paper_default()
        }
    }

    /// Detects peaks in a depth signal sampled at `sample_rate` Hz.
    pub fn detect(&self, depth: &[f64], sample_rate: f64) -> Vec<Peak> {
        let mut runs: Vec<(usize, usize)> = Vec::new(); // [start, end)
        let mut run_start: Option<usize> = None;
        for (i, &d) in depth.iter().enumerate() {
            if d > self.threshold {
                if run_start.is_none() {
                    run_start = Some(i);
                }
            } else if let Some(s) = run_start.take() {
                runs.push((s, i));
            }
        }
        if let Some(s) = run_start {
            runs.push((s, depth.len()));
        }

        // Merge runs separated by less than merge_gap.
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(runs.len());
        for run in runs {
            match merged.last_mut() {
                Some(last) if run.0 - last.1 <= self.merge_gap => last.1 = run.1,
                _ => merged.push(run),
            }
        }

        // Split runs at deep interior valleys (prominence segmentation).
        let mut segments: Vec<(usize, usize)> = Vec::with_capacity(merged.len());
        for (s, e) in merged {
            self.split_run(depth, s, e, &mut segments);
        }

        segments
            .into_iter()
            .filter(|&(s, e)| e - s >= self.min_width)
            .map(|(s, e)| {
                let (index, amplitude) = depth[s..e]
                    .iter()
                    .enumerate()
                    .map(|(k, &v)| (s + k, v))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("non-empty run");
                let width_samples = e - s;
                Peak {
                    index,
                    time_s: index as f64 / sample_rate,
                    amplitude,
                    width_samples,
                    width_s: width_samples as f64 / sample_rate,
                }
            })
            .collect()
    }

    /// Convenience: just the number of peaks.
    pub fn count(&self, depth: &[f64], sample_rate: f64) -> usize {
        self.detect(depth, sample_rate).len()
    }

    /// Recursively splits `[s, e)` at its deepest qualifying valley: an
    /// interior minimum whose flanks on both sides rise to at least
    /// `valley / split_ratio`.
    fn split_run(&self, depth: &[f64], s: usize, e: usize, out: &mut Vec<(usize, usize)>) {
        if e - s < 2 * self.min_width + 1 {
            out.push((s, e));
            return;
        }
        let run = &depth[s..e];
        let n = run.len();
        // Prefix/suffix running maxima for O(n) flank lookups.
        let mut prefix_max = vec![0.0f64; n];
        let mut acc = f64::NEG_INFINITY;
        for (i, &v) in run.iter().enumerate() {
            acc = acc.max(v);
            prefix_max[i] = acc;
        }
        let mut suffix_max = vec![0.0f64; n];
        let mut acc = f64::NEG_INFINITY;
        for (i, &v) in run.iter().enumerate().rev() {
            acc = acc.max(v);
            suffix_max[i] = acc;
        }
        let mut best: Option<(usize, f64)> = None;
        for i in 1..n - 1 {
            let flank = prefix_max[i - 1].min(suffix_max[i + 1]);
            if run[i] < self.split_ratio * flank {
                match best {
                    Some((_, bv)) if bv <= run[i] => {}
                    _ => best = Some((i, run[i])),
                }
            }
        }
        if let Some((vi, _)) = best {
            self.split_run(depth, s, s + vi, out);
            self.split_run(depth, s + vi + 1, e, out);
        } else {
            out.push((s, e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Places Gaussian bumps of `depth` at the given centres.
    fn depth_signal(n: usize, centers: &[usize], depth: f64, sigma: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                centers
                    .iter()
                    .map(|&c| {
                        let d = (i as f64 - c as f64) / sigma;
                        depth * (-0.5 * d * d).exp()
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn finds_isolated_peaks() {
        let sig = depth_signal(2_000, &[400, 1_200, 1_700], 0.01, 3.0);
        let peaks = ThresholdDetector::paper_default().detect(&sig, 450.0);
        assert_eq!(peaks.len(), 3);
        assert_eq!(peaks[0].index, 400);
        assert!((peaks[1].time_s - 1_200.0 / 450.0).abs() < 1e-9);
        assert!((peaks[2].amplitude - 0.01).abs() < 1e-6);
    }

    #[test]
    fn empty_and_flat_signals_have_no_peaks() {
        let det = ThresholdDetector::paper_default();
        assert_eq!(det.count(&[], 450.0), 0);
        assert_eq!(det.count(&vec![0.0; 1_000], 450.0), 0);
        assert_eq!(det.count(&vec![0.9e-3; 1_000], 450.0), 0); // below threshold
    }

    #[test]
    fn sub_threshold_peaks_are_ignored() {
        let sig = depth_signal(1_000, &[500], 0.9e-3, 3.0);
        assert_eq!(ThresholdDetector::paper_default().count(&sig, 450.0), 0);
    }

    #[test]
    fn single_sample_spikes_are_rejected() {
        let mut sig = vec![0.0; 1_000];
        sig[500] = 0.05; // one-sample glitch
        assert_eq!(ThresholdDetector::paper_default().count(&sig, 450.0), 0);
    }

    #[test]
    fn close_peaks_merge_while_separated_peaks_do_not() {
        let det = ThresholdDetector {
            merge_gap: 5,
            ..ThresholdDetector::paper_default()
        };
        // Two bumps 4 samples apart (gap below merge_gap after thresholding).
        let close = depth_signal(200, &[100, 104], 0.01, 1.5);
        // Two bumps 50 samples apart.
        let apart = depth_signal(400, &[100, 150], 0.01, 1.5);
        assert_eq!(det.count(&close, 450.0), 1);
        assert_eq!(det.count(&apart, 450.0), 2);
    }

    #[test]
    fn width_scales_with_pulse_sigma() {
        let det = ThresholdDetector::paper_default();
        let narrow = depth_signal(2_000, &[1_000], 0.01, 2.0);
        let wide = depth_signal(2_000, &[1_000], 0.01, 8.0);
        let wn = det.detect(&narrow, 450.0)[0].width_samples;
        let ww = det.detect(&wide, 450.0)[0].width_samples;
        assert!(ww > 2 * wn, "wide {ww} vs narrow {wn}");
    }

    #[test]
    fn peak_running_to_signal_end_is_captured() {
        let mut sig = vec![0.0; 100];
        for s in sig.iter_mut().skip(95) {
            *s = 0.01;
        }
        let peaks = ThresholdDetector::paper_default().detect(&sig, 450.0);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].width_samples, 5);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn rejects_non_positive_threshold() {
        let _ = ThresholdDetector::with_threshold(0.0);
    }

    #[test]
    fn amplitudes_are_reported_per_peak() {
        let det = ThresholdDetector::paper_default();
        let mut sig = depth_signal(1_000, &[300], 0.004, 3.0);
        let big = depth_signal(1_000, &[700], 0.016, 3.0);
        for (a, b) in sig.iter_mut().zip(big) {
            *a += b;
        }
        let peaks = det.detect(&sig, 450.0);
        assert_eq!(peaks.len(), 2);
        assert!(peaks[1].amplitude > 3.0 * peaks[0].amplitude);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn count_matches_planted_peaks(n_peaks in 1usize..20) {
                // Plant n well-separated peaks and verify exact recovery.
                let spacing = 100;
                let n = (n_peaks + 2) * spacing;
                let centers: Vec<usize> =
                    (1..=n_peaks).map(|k| k * spacing).collect();
                let sig = depth_signal(n, &centers, 0.01, 3.0);
                let det = ThresholdDetector::paper_default();
                prop_assert_eq!(det.count(&sig, 450.0), n_peaks);
            }
        }
    }
}
