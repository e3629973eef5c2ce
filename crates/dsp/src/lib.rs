//! Signal-processing toolkit for MedSen's cloud-side analysis.
//!
//! Section VI-C describes the paper's Matlab pipeline: the acquired signal is
//! *detrended* by fitting second-order polynomials to overlapping
//! sub-sequences (whole-trace fits under-fit; high orders over-fit and deform
//! peaks), then peaks are detected by *thresholding* "the data section of one
//! minus the detrended subsequence". This crate implements that pipeline from
//! scratch, plus the feature extraction and classification used to separate
//! bead types from blood cells (Figs. 15–16):
//!
//! * [`mod@polyfit`] — least-squares polynomial fitting (normal equations);
//! * [`detrend`] — segmented polynomial detrending with overlap;
//! * [`peaks`] — threshold peak detection with amplitude/width/timestamps;
//! * [`features`] — per-carrier amplitude feature vectors;
//! * [`classify`] — Gaussian nearest-centroid classifier;
//! * [`stats`] — means, variances, robust σ, linear regression, histograms;
//! * [`streaming`] — constant-memory chunked analysis for the paper's
//!   3-hour/600 MB stress regime.
//!
//! # Examples
//!
//! ```
//! use medsen_dsp::detrend::{detrend_segmented, DetrendConfig};
//! use medsen_dsp::peaks::ThresholdDetector;
//!
//! // A drifting baseline with one dip at sample 500.
//! let signal: Vec<f64> = (0..1000)
//!     .map(|i| {
//!         let drift = 1.0 + 1e-4 * i as f64;
//!         let dip = if (495..505).contains(&i) { 0.01 } else { 0.0 };
//!         drift - dip
//!     })
//!     .collect();
//! let depth = detrend_segmented(&signal, &DetrendConfig::paper_default());
//! let peaks = ThresholdDetector::paper_default().detect(&depth, 450.0);
//! assert_eq!(peaks.len(), 1);
//! ```

pub mod classify;
pub mod detrend;
pub mod features;
pub mod peaks;
pub mod polyfit;
pub mod stats;
pub mod streaming;

pub use classify::{ClassStats, Classifier, ConfusionMatrix};
pub use detrend::{detrend_segmented, detrend_whole, DetrendConfig};
pub use features::{match_amplitudes, FeatureVector};
pub use peaks::{Peak, ThresholdDetector};
pub use polyfit::{polyfit, Polynomial};
pub use stats::{histogram, linear_regression, mean, robust_sigma, std_dev, variance, LinearFit};
pub use streaming::StreamingAnalyzer;
