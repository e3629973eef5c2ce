//! Streaming analysis for long acquisitions.
//!
//! The paper stress-tests MedSen with 3-hour runs producing ~600 MB of CSV
//! (Sec. VII-B). Holding such a trace in memory is wasteful; the cloud can
//! process it chunk by chunk instead. [`StreamingAnalyzer`] consumes sample
//! chunks of any size and emits peaks incrementally, producing the *same*
//! peaks as the batch pipeline: it buffers one detrend window plus overlap,
//! detrends each window exactly as [`detrend_segmented`] would, and carries
//! peak runs across window boundaries.
//!
//! [`detrend_segmented`]: crate::detrend::detrend_segmented

use crate::detrend::DetrendConfig;
use crate::peaks::{Peak, ThresholdDetector};
use crate::polyfit::{polyfit, polyfit_weighted};

/// Incremental, constant-memory peak analyzer.
///
/// Feed samples with [`push`](Self::push); collect emitted peaks from the
/// returned vectors; call [`finish`](Self::finish) at end of stream.
///
/// # Examples
///
/// ```
/// use medsen_dsp::StreamingAnalyzer;
///
/// // One dip at sample 2500 in a flat baseline.
/// let signal: Vec<f64> = (0..5000)
///     .map(|i| if (2498..2502).contains(&i) { 0.99 } else { 1.0 })
///     .collect();
/// let mut analyzer = StreamingAnalyzer::paper_default();
/// let mut peaks = Vec::new();
/// for chunk in signal.chunks(512) {
///     peaks.extend(analyzer.push(chunk));
/// }
/// peaks.extend(analyzer.finish());
/// assert_eq!(peaks.len(), 1);
/// assert!((2496..=2503).contains(&peaks[0].index));
/// ```
#[derive(Debug)]
pub struct StreamingAnalyzer {
    config: DetrendConfig,
    detector: ThresholdDetector,
    sample_rate: f64,
    /// Raw samples not yet emitted as depth (window + trailing overlap).
    buffer: Vec<f64>,
    /// Leading overlap carried from the previous window (fit context only).
    lead: Vec<f64>,
    /// Absolute index of buffer[0].
    buffer_start: usize,
    /// Depth samples pending peak detection (with run continuation state).
    pending_depth: Vec<f64>,
    /// Absolute index of pending_depth[0].
    pending_start: usize,
    total_pushed: usize,
}

impl StreamingAnalyzer {
    /// Creates a streaming analyzer.
    pub fn new(config: DetrendConfig, detector: ThresholdDetector, sample_rate: f64) -> Self {
        Self {
            config,
            detector,
            sample_rate,
            buffer: Vec::new(),
            lead: Vec::new(),
            buffer_start: 0,
            pending_depth: Vec::new(),
            pending_start: 0,
            total_pushed: 0,
        }
    }

    /// The paper-default streaming analyzer at 450 Hz.
    pub fn paper_default() -> Self {
        Self::new(
            DetrendConfig::paper_default(),
            ThresholdDetector::paper_default(),
            450.0,
        )
    }

    /// Total samples consumed so far.
    pub fn samples_consumed(&self) -> usize {
        self.total_pushed
    }

    /// Pushes a chunk of samples; returns any peaks finalized by this chunk.
    pub fn push(&mut self, samples: &[f64]) -> Vec<Peak> {
        self.total_pushed += samples.len();
        self.buffer.extend_from_slice(samples);
        let mut peaks = Vec::new();
        // Emit full windows while we have window + overlap lookahead.
        while self.buffer.len() >= self.config.window + self.config.overlap {
            let window_depth = self.detrend_window(self.config.window);
            self.append_depth(&window_depth, &mut peaks, false);
        }
        peaks
    }

    /// Flushes the tail of the stream, returning the final peaks.
    pub fn finish(mut self) -> Vec<Peak> {
        let mut peaks = Vec::new();
        while !self.buffer.is_empty() {
            let emit = self.buffer.len().min(self.config.window);
            let window_depth = self.detrend_window(emit);
            self.append_depth(&window_depth, &mut peaks, false);
        }
        // Final detection pass over any remaining pending depth.
        self.flush_pending(&mut peaks);
        peaks
    }

    /// Detrends the first `emit` samples of the buffer using lead + trailing
    /// overlap context, consumes them, and returns their depth values.
    fn detrend_window(&mut self, emit: usize) -> Vec<f64> {
        let trail = self
            .config
            .overlap
            .min(self.buffer.len().saturating_sub(emit));
        // Fit region: lead ++ buffer[..emit + trail].
        let mut fit: Vec<f64> = Vec::with_capacity(self.lead.len() + emit + trail);
        fit.extend_from_slice(&self.lead);
        fit.extend_from_slice(&self.buffer[..emit + trail]);
        let order = self.config.order;
        let poly = if fit.len() > order + 1 {
            // Robust two-pass fit, mirroring the batch detrender.
            let first = polyfit(&fit, order);
            let residuals: Vec<f64> = fit
                .iter()
                .enumerate()
                .map(|(i, &y)| 1.0 - y / first.eval_at_index(i))
                .collect();
            let mut abs: Vec<f64> = residuals.iter().map(|r| r.abs()).collect();
            abs.sort_by(f64::total_cmp);
            let sigma = (1.4826 * abs[abs.len() / 2]).max(1e-9);
            let weights: Vec<f64> = residuals
                .iter()
                .map(|&r| if r > 3.0 * sigma { 0.0 } else { 1.0 })
                .collect();
            if weights.iter().filter(|&&w| w > 0.0).count() > order {
                polyfit_weighted(&fit, order, Some(&weights))
            } else {
                first
            }
        } else {
            // Degenerate tail: normalize by mean.
            let m = crate::stats::mean(&fit).max(1e-12);
            let depth: Vec<f64> = self.buffer[..emit].iter().map(|&y| 1.0 - y / m).collect();
            self.consume(emit);
            return depth;
        };
        let lead_len = self.lead.len();
        let depth: Vec<f64> = (0..emit)
            .map(|i| {
                let base = poly.eval_at_index(lead_len + i);
                1.0 - self.buffer[i] / base
            })
            .collect();
        self.consume(emit);
        depth
    }

    fn consume(&mut self, emit: usize) {
        // New lead = last `overlap` samples of the emitted region.
        let lead_from = emit.saturating_sub(self.config.overlap);
        self.lead = self.buffer[lead_from..emit].to_vec();
        self.buffer.drain(..emit);
        self.buffer_start += emit;
    }

    /// Appends depth samples to the pending run buffer and extracts every
    /// peak that is certainly complete (followed by a below-threshold gap).
    fn append_depth(&mut self, depth: &[f64], peaks: &mut Vec<Peak>, _final: bool) {
        if self.pending_depth.is_empty() {
            self.pending_start = self.buffer_start - depth.len();
        }
        self.pending_depth.extend_from_slice(depth);
        // Find the last below-threshold index; everything before it can be
        // finalized (no run can straddle past it).
        let cutoff = self
            .pending_depth
            .iter()
            .rposition(|&d| d <= self.detector.threshold);
        if let Some(cut) = cutoff {
            let (head, tail) = self.pending_depth.split_at(cut + 1);
            let mut found = self.detector.detect(head, self.sample_rate);
            for p in &mut found {
                p.index += self.pending_start;
                p.time_s = p.index as f64 / self.sample_rate;
            }
            peaks.extend(found);
            let tail: Vec<f64> = tail.to_vec();
            self.pending_start += cut + 1;
            self.pending_depth = tail;
        }
    }

    fn flush_pending(&mut self, peaks: &mut Vec<Peak>) {
        if self.pending_depth.is_empty() {
            return;
        }
        let mut found = self.detector.detect(&self.pending_depth, self.sample_rate);
        for p in &mut found {
            p.index += self.pending_start;
            p.time_s = p.index as f64 / self.sample_rate;
        }
        peaks.extend(found);
        self.pending_depth.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detrend::detrend_segmented;

    fn synthetic(n: usize, dip_every: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64;
                let baseline = 1.0 + 3e-8 * x + 1.5e-3 * (x / 4_000.0).sin();
                let phase = i % dip_every;
                let dip = if (dip_every / 2..dip_every / 2 + 4).contains(&phase) {
                    8e-3
                } else {
                    0.0
                };
                baseline * (1.0 - dip)
            })
            .collect()
    }

    fn run_streaming(signal: &[f64], chunk: usize) -> Vec<Peak> {
        let mut analyzer = StreamingAnalyzer::paper_default();
        let mut peaks = Vec::new();
        for c in signal.chunks(chunk) {
            peaks.extend(analyzer.push(c));
        }
        peaks.extend(analyzer.finish());
        peaks
    }

    #[test]
    fn streaming_matches_batch_peak_count() {
        let signal = synthetic(30_000, 900);
        let batch_depth = detrend_segmented(&signal, &DetrendConfig::paper_default());
        let batch = ThresholdDetector::paper_default().detect(&batch_depth, 450.0);
        let streamed = run_streaming(&signal, 1_024);
        assert_eq!(streamed.len(), batch.len());
    }

    #[test]
    fn streaming_is_chunk_size_invariant() {
        let signal = synthetic(20_000, 700);
        let a = run_streaming(&signal, 64);
        let b = run_streaming(&signal, 4_096);
        let c = run_streaming(&signal, 19_999);
        assert_eq!(a.len(), b.len());
        assert_eq!(b.len(), c.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.index, y.index);
        }
    }

    #[test]
    fn streamed_peak_indices_are_absolute() {
        let signal = synthetic(15_000, 1_000);
        let peaks = run_streaming(&signal, 512);
        // Dips planted at i % 1000 in [500, 504).
        for p in &peaks {
            assert!(
                (p.index % 1_000).abs_diff(501) <= 4,
                "peak at {} not on the grid",
                p.index
            );
        }
        assert!(peaks.len() >= 13, "found {}", peaks.len());
    }

    #[test]
    fn short_streams_still_work() {
        let signal = synthetic(500, 200);
        let peaks = run_streaming(&signal, 100);
        assert!(!peaks.is_empty());
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let analyzer = StreamingAnalyzer::paper_default();
        assert!(analyzer.finish().is_empty());
    }

    #[test]
    fn constant_memory_for_long_streams() {
        // The buffer never grows beyond window + 2×overlap + chunk.
        let mut analyzer = StreamingAnalyzer::paper_default();
        let chunk = vec![1.0f64; 1_000];
        for _ in 0..200 {
            let _ = analyzer.push(&chunk);
            assert!(
                analyzer.buffer.len() <= 2_000 + 400 + 1_000,
                "buffer grew to {}",
                analyzer.buffer.len()
            );
            assert!(analyzer.pending_depth.len() <= 3_400);
        }
        assert_eq!(analyzer.samples_consumed(), 200_000);
    }
}
