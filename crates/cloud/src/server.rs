//! The cloud analysis server: the paper's Matlab pipeline.
//!
//! The server receives an encrypted trace and runs the Sec. VI-C pipeline —
//! segmented second-order detrending, then threshold peak detection on the
//! reference (lowest) carrier, then per-carrier feature extraction for every
//! peak. It returns a [`PeakReport`]; it never learns the true cell count.

use crate::api::{AnalyzedPeak, PeakReport};
use medsen_dsp::detrend::{detrend_segmented, DetrendConfig};
use medsen_dsp::features::match_amplitudes;
use medsen_dsp::peaks::ThresholdDetector;
use medsen_dsp::stats::robust_sigma;
use medsen_impedance::SignalTrace;

/// The analysis server configuration.
///
/// # Examples
///
/// ```
/// use medsen_cloud::AnalysisServer;
/// use medsen_impedance::{PulseSpec, TraceSynthesizer};
/// use medsen_units::Seconds;
///
/// let mut synth = TraceSynthesizer::paper_default(1);
/// let dip = PulseSpec::unipolar(Seconds::new(0.5), Seconds::new(0.02), 0.01);
/// let trace = synth.render(&[dip], Seconds::new(1.0));
/// let report = AnalysisServer::paper_default().analyze(&trace);
/// assert_eq!(report.peak_count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisServer {
    /// Detrending configuration (paper: segmented order 2 with overlap).
    pub detrend: DetrendConfig,
    /// Peak detector settings.
    pub detector: ThresholdDetector,
    /// Half-width (samples) of the window used to read per-carrier features.
    pub feature_half_window: usize,
    /// Noise adaptation: the effective detection threshold is
    /// `max(detector.threshold, adaptive_sigma_factor × σ̂)` with σ̂ the
    /// robust (MAD) noise estimate of the reference depth signal. Keeps the
    /// false-positive rate bounded when a sensor degrades.
    pub adaptive_sigma_factor: f64,
}

impl AnalysisServer {
    /// The deployed configuration.
    pub fn paper_default() -> Self {
        Self {
            detrend: DetrendConfig::paper_default(),
            detector: ThresholdDetector::paper_default(),
            feature_half_window: 4,
            adaptive_sigma_factor: 5.0,
        }
    }

    /// Runs the full analysis on a trace.
    ///
    /// Peaks are detected on the lowest carrier (strongest response for every
    /// particle class); features are read from every carrier.
    ///
    /// # Panics
    ///
    /// Panics if the trace has no channels.
    pub fn analyze(&self, trace: &SignalTrace) -> PeakReport {
        assert!(
            !trace.channels().is_empty(),
            "cannot analyze a trace without channels"
        );
        let sample_rate = trace.sample_rate.value();

        // Detrend every channel into its depth signal.
        let depths: Vec<Vec<f64>> = trace
            .channels()
            .iter()
            .map(|c| detrend_segmented(&c.samples, &self.detrend))
            .collect();

        // Reference = lowest carrier.
        let reference = trace
            .channels()
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.carrier.value().total_cmp(&b.carrier.value()))
            .map(|(i, _)| i)
            .expect("non-empty channels");

        let noise_sigma = robust_sigma(&depths[reference]);
        let mut detector = self.detector;
        detector.threshold = detector
            .threshold
            .max(self.adaptive_sigma_factor * noise_sigma);
        let peaks = detector.detect(&depths[reference], sample_rate);
        let features = match_amplitudes(&depths, &peaks, self.feature_half_window);

        let analyzed = peaks
            .iter()
            .zip(&features)
            .map(|(p, f)| AnalyzedPeak {
                time_s: p.time_s,
                amplitude: p.amplitude,
                width_s: p.width_s,
                features: f.amplitudes.clone(),
            })
            .collect();

        PeakReport {
            peaks: analyzed,
            carriers_hz: trace.channels().iter().map(|c| c.carrier.value()).collect(),
            sample_rate_hz: sample_rate,
            duration_s: trace.duration().value(),
            noise_sigma,
        }
    }
}

impl Default for AnalysisServer {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_impedance::{PulseSpec, TraceSynthesizer};
    use medsen_units::Seconds;

    fn pulses_at(times: &[f64], depth: f64) -> Vec<PulseSpec> {
        times
            .iter()
            .map(|&t| PulseSpec::unipolar(Seconds::new(t), Seconds::new(0.02), depth))
            .collect()
    }

    #[test]
    fn analysis_counts_clean_pulses_exactly() {
        let mut synth = TraceSynthesizer::clean(1);
        let trace = synth.render(&pulses_at(&[0.5, 1.5, 2.5], 0.01), Seconds::new(4.0));
        let report = AnalysisServer::paper_default().analyze(&trace);
        assert_eq!(report.peak_count(), 3);
        assert_eq!(report.carriers_hz.len(), 8);
        assert!((report.duration_s - 4.0).abs() < 0.01);
    }

    #[test]
    fn analysis_counts_noisy_drifting_pulses() {
        let mut synth = TraceSynthesizer::paper_default(2);
        let times: Vec<f64> = (0..20).map(|i| 1.0 + i as f64 * 1.3).collect();
        let trace = synth.render(&pulses_at(&times, 0.01), Seconds::new(30.0));
        let report = AnalysisServer::paper_default().analyze(&trace);
        assert_eq!(
            report.peak_count(),
            20,
            "noise/drift must not break counting"
        );
    }

    #[test]
    fn features_cover_every_carrier() {
        let mut synth = TraceSynthesizer::clean(3);
        let trace = synth.render(&pulses_at(&[0.5], 0.01), Seconds::new(1.0));
        let report = AnalysisServer::paper_default().analyze(&trace);
        assert_eq!(report.peaks[0].features.len(), 8);
        // Uniform pulse → all features equal the reference amplitude.
        let f0 = report.peaks[0].features[0];
        assert!(report.peaks[0]
            .features
            .iter()
            .all(|&f| (f - f0).abs() < 1e-6));
    }

    #[test]
    fn report_times_match_pulse_centres() {
        let mut synth = TraceSynthesizer::clean(4);
        let trace = synth.render(&pulses_at(&[0.7, 2.1], 0.008), Seconds::new(3.0));
        let report = AnalysisServer::paper_default().analyze(&trace);
        assert!((report.peaks[0].time_s - 0.7).abs() < 0.01);
        assert!((report.peaks[1].time_s - 2.1).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "without channels")]
    fn empty_trace_panics() {
        use medsen_units::Hertz;
        let trace = SignalTrace::new(Hertz::new(450.0), vec![]);
        let _ = AnalysisServer::paper_default().analyze(&trace);
    }

    #[test]
    fn sub_noise_pulses_are_not_reported() {
        let mut synth = TraceSynthesizer::paper_default(5);
        let trace = synth.render(&pulses_at(&[0.5], 2.0e-4), Seconds::new(1.0));
        let report = AnalysisServer::paper_default().analyze(&trace);
        assert_eq!(report.peak_count(), 0);
    }
}
