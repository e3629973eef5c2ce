//! Multi-frequency feature extraction for particle classification.
//!
//! "All those impedance measurements for different bead types at different
//! frequencies are considered as features. MedSen uses the features for its
//! classification procedures to distinguish between different particles"
//! (Sec. VII-C). A feature vector is the peak's depth on every carrier
//! channel, measured in a small window around the peak's timestamp.

use crate::peaks::Peak;

/// One peak's amplitudes across all carrier channels.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    /// Sample index of the peak (on the reference channel).
    pub index: usize,
    /// Depth on each carrier channel, in channel order.
    pub amplitudes: Vec<f64>,
}

impl FeatureVector {
    /// Number of feature dimensions.
    pub fn dims(&self) -> usize {
        self.amplitudes.len()
    }

    /// Amplitude ratio between two channels (∞-safe: returns 0 when the
    /// denominator is 0).
    pub fn ratio(&self, num: usize, den: usize) -> f64 {
        let d = self.amplitudes[den];
        if d == 0.0 {
            0.0
        } else {
            self.amplitudes[num] / d
        }
    }
}

/// For each peak found on a reference channel, measures the maximum depth of
/// every channel in a ±`half_window` window around the peak index.
///
/// `channels` are depth signals (already detrended), all the same length.
///
/// # Panics
///
/// Panics if `channels` is empty or lengths differ.
pub fn match_amplitudes(
    channels: &[Vec<f64>],
    peaks: &[Peak],
    half_window: usize,
) -> Vec<FeatureVector> {
    assert!(!channels.is_empty(), "need at least one channel");
    let n = channels[0].len();
    assert!(
        channels.iter().all(|c| c.len() == n),
        "all channels must be equally long"
    );
    peaks
        .iter()
        .map(|p| {
            let lo = p.index.saturating_sub(half_window);
            let hi = (p.index + half_window + 1).min(n);
            let amplitudes = channels
                .iter()
                .map(|c| c[lo..hi].iter().copied().fold(0.0f64, f64::max))
                .collect();
            FeatureVector {
                index: p.index,
                amplitudes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peak_at(index: usize) -> Peak {
        Peak {
            index,
            time_s: index as f64 / 450.0,
            amplitude: 0.0,
            width_samples: 5,
            width_s: 5.0 / 450.0,
        }
    }

    fn bump(n: usize, c: usize, depth: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let d = (i as f64 - c as f64) / 2.0;
                depth * (-0.5 * d * d).exp()
            })
            .collect()
    }

    #[test]
    fn amplitudes_read_from_every_channel() {
        let ch0 = bump(200, 100, 0.010);
        let ch1 = bump(200, 100, 0.004);
        let fv = match_amplitudes(&[ch0, ch1], &[peak_at(100)], 5);
        assert_eq!(fv.len(), 1);
        assert!((fv[0].amplitudes[0] - 0.010).abs() < 1e-9);
        assert!((fv[0].amplitudes[1] - 0.004).abs() < 1e-9);
        assert_eq!(fv[0].dims(), 2);
    }

    #[test]
    fn window_tolerates_small_channel_misalignment() {
        // LPF group delay can shift channels by a sample or two.
        let ch0 = bump(200, 100, 0.010);
        let ch1 = bump(200, 103, 0.004);
        let fv = match_amplitudes(&[ch0, ch1], &[peak_at(100)], 5);
        assert!((fv[0].amplitudes[1] - 0.004).abs() < 1e-6);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let fv = FeatureVector {
            index: 0,
            amplitudes: vec![0.5, 0.0],
        };
        assert_eq!(fv.ratio(0, 1), 0.0);
        assert_eq!(fv.ratio(1, 0), 0.0);
    }

    #[test]
    fn window_clamps_at_signal_edges() {
        let ch = bump(50, 2, 0.01);
        let fv = match_amplitudes(&[ch], &[peak_at(2)], 10);
        assert!((fv[0].amplitudes[0] - 0.01).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "equally long")]
    fn mismatched_channel_lengths_panic() {
        let _ = match_amplitudes(&[vec![0.0; 10], vec![0.0; 11]], &[peak_at(5)], 2);
    }

    #[test]
    fn multiple_peaks_produce_multiple_vectors() {
        let mut ch = bump(400, 100, 0.01);
        for (a, b) in ch.iter_mut().zip(bump(400, 300, 0.02)) {
            *a += b;
        }
        let fvs = match_amplitudes(&[ch], &[peak_at(100), peak_at(300)], 5);
        assert_eq!(fvs.len(), 2);
        assert!(fvs[1].amplitudes[0] > fvs[0].amplitudes[0]);
    }
}
