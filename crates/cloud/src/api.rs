//! Wire types between the phone/cloud and the sensor.
//!
//! These types are the *entire* vocabulary the untrusted side speaks: note
//! the absence of any key material, electrode identity, or plaintext count —
//! the server can only ever hand back peak statistics.

use medsen_wire::json::required;
use medsen_wire::{Json, JsonReader, JsonWriter, Reader, Wire, WireError, Writer};

/// One peak as analyzed by the server: timing, shape, and per-carrier
/// amplitudes (the classification features of Fig. 16).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedPeak {
    /// Peak timestamp, seconds from acquisition start.
    pub time_s: f64,
    /// Depth on the reference (lowest) carrier.
    pub amplitude: f64,
    /// Width in seconds.
    pub width_s: f64,
    /// Depth on every carrier channel, in channel order.
    pub features: Vec<f64>,
}

impl AnalyzedPeak {
    /// Converts to the minimal peak form the sensor-side decryptor consumes.
    pub fn to_reported(&self) -> medsen_sensor::ReportedPeak {
        medsen_sensor::ReportedPeak {
            time_s: self.time_s,
            amplitude: self.amplitude,
            width_s: self.width_s,
        }
    }
}

/// The server's full analysis result for one acquisition.
#[derive(Debug, Clone, PartialEq)]
pub struct PeakReport {
    /// All detected peaks, in time order.
    pub peaks: Vec<AnalyzedPeak>,
    /// Carrier frequencies (Hz) the features are indexed by.
    pub carriers_hz: Vec<f64>,
    /// Output sampling rate of the analyzed trace.
    pub sample_rate_hz: f64,
    /// Analyzed duration in seconds.
    pub duration_s: f64,
    /// Robust noise-floor estimate (σ) of the reference channel's depth
    /// signal. A deployment alarms when this leaves the sensor's normal
    /// band — the explicit failure signature for a degraded sensor.
    pub noise_sigma: f64,
}

impl PeakReport {
    /// Number of detected peaks — the only "count" the cloud ever knows.
    pub fn peak_count(&self) -> usize {
        self.peaks.len()
    }

    /// Peaks converted for the sensor-side decryptor.
    pub fn reported_peaks(&self) -> Vec<medsen_sensor::ReportedPeak> {
        self.peaks.iter().map(AnalyzedPeak::to_reported).collect()
    }

    /// Index of the carrier nearest `hz`, if any.
    pub fn carrier_index(&self, hz: f64) -> Option<usize> {
        self.carriers_hz
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| (*a - hz).abs().total_cmp(&(*b - hz).abs()))
            .map(|(i, _)| i)
    }

    /// Whether every number in the report is finite. JSON cannot carry a
    /// NaN or ±∞, so only a finite report reads the same in both wire
    /// formats.
    pub fn is_finite(&self) -> bool {
        let finite = |xs: &[f64]| xs.iter().all(|x| x.is_finite());
        finite(&[self.sample_rate_hz, self.duration_s, self.noise_sigma])
            && finite(&self.carriers_hz)
            && self
                .peaks
                .iter()
                .all(|p| finite(&[p.time_s, p.amplitude, p.width_s]) && finite(&p.features))
    }
}

impl Wire for AnalyzedPeak {
    fn wire_encode(&self, w: &mut Writer) {
        w.put_f64(self.time_s);
        w.put_f64(self.amplitude);
        w.put_f64(self.width_s);
        self.features.wire_encode(w);
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AnalyzedPeak {
            time_s: r.get_f64()?,
            amplitude: r.get_f64()?,
            width_s: r.get_f64()?,
            features: Vec::wire_decode(r)?,
        })
    }
}

impl Wire for PeakReport {
    fn wire_encode(&self, w: &mut Writer) {
        self.peaks.wire_encode(w);
        self.carriers_hz.wire_encode(w);
        w.put_f64(self.sample_rate_hz);
        w.put_f64(self.duration_s);
        w.put_f64(self.noise_sigma);
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PeakReport {
            peaks: Vec::wire_decode(r)?,
            carriers_hz: Vec::wire_decode(r)?,
            sample_rate_hz: r.get_f64()?,
            duration_s: r.get_f64()?,
            noise_sigma: r.get_f64()?,
        })
    }
}

impl Json for AnalyzedPeak {
    fn json_encode(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("time_s", &self.time_s);
            w.field("amplitude", &self.amplitude);
            w.field("width_s", &self.width_s);
            w.field("features", &self.features);
        });
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        let (mut time_s, mut amplitude, mut width_s, mut features) = (None, None, None, None);
        r.object(|key, r| {
            match key {
                "time_s" => time_s = Some(r.f64()?),
                "amplitude" => amplitude = Some(r.f64()?),
                "width_s" => width_s = Some(r.f64()?),
                "features" => features = Some(Vec::json_decode(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(AnalyzedPeak {
            time_s: required(time_s, "time_s")?,
            amplitude: required(amplitude, "amplitude")?,
            width_s: required(width_s, "width_s")?,
            features: required(features, "features")?,
        })
    }
}

/// A missing `noise_sigma` reads as 0: reports from before the field
/// existed still decode.
impl Json for PeakReport {
    fn json_encode(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("peaks", &self.peaks);
            w.field("carriers_hz", &self.carriers_hz);
            w.field("sample_rate_hz", &self.sample_rate_hz);
            w.field("duration_s", &self.duration_s);
            w.field("noise_sigma", &self.noise_sigma);
        });
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        let (mut peaks, mut carriers_hz, mut sample_rate_hz) = (None, None, None);
        let (mut duration_s, mut noise_sigma) = (None, None);
        r.object(|key, r| {
            match key {
                "peaks" => peaks = Some(Vec::json_decode(r)?),
                "carriers_hz" => carriers_hz = Some(Vec::json_decode(r)?),
                "sample_rate_hz" => sample_rate_hz = Some(r.f64()?),
                "duration_s" => duration_s = Some(r.f64()?),
                "noise_sigma" => noise_sigma = Some(r.f64()?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(PeakReport {
            peaks: required(peaks, "peaks")?,
            carriers_hz: required(carriers_hz, "carriers_hz")?,
            sample_rate_hz: required(sample_rate_hz, "sample_rate_hz")?,
            duration_s: required(duration_s, "duration_s")?,
            noise_sigma: noise_sigma.unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peak(t: f64) -> AnalyzedPeak {
        AnalyzedPeak {
            time_s: t,
            amplitude: 0.004,
            width_s: 0.02,
            features: vec![0.004, 0.003],
        }
    }

    #[test]
    fn report_counts_and_converts() {
        let report = PeakReport {
            peaks: vec![peak(0.1), peak(0.2)],
            carriers_hz: vec![5e5, 2.5e6],
            sample_rate_hz: 450.0,
            duration_s: 1.0,
            noise_sigma: 3.0e-4,
        };
        assert_eq!(report.peak_count(), 2);
        let reported = report.reported_peaks();
        assert_eq!(reported.len(), 2);
        assert_eq!(reported[0].time_s, 0.1);
    }

    #[test]
    fn carrier_lookup() {
        let report = PeakReport {
            peaks: vec![],
            carriers_hz: vec![5e5, 2.5e6],
            sample_rate_hz: 450.0,
            duration_s: 1.0,
            noise_sigma: 3.0e-4,
        };
        assert_eq!(report.carrier_index(2.4e6), Some(1));
        assert_eq!(report.carrier_index(1e3), Some(0));
    }

    #[test]
    fn report_is_wire_safe() {
        // The report crosses the network: it must encode and decode in
        // both wire formats and carry no key material by type (checked at
        // compile time — `PeakReport` cannot even name `CipherKey`).
        fn assert_wire<T: Wire + Json + Send + Sync>() {}
        assert_wire::<PeakReport>();
        assert_wire::<AnalyzedPeak>();
    }

    #[test]
    fn a_report_without_noise_sigma_reads_it_as_zero() {
        use medsen_wire::{JsonWire, WireCodec};
        let json = br#"{"peaks":[],"carriers_hz":[5e5],"sample_rate_hz":450,"duration_s":1}"#;
        let report: PeakReport = JsonWire.decode(json).expect("decodes");
        assert_eq!(report.noise_sigma, 0.0);
        assert_eq!(report.carriers_hz, vec![5e5]);
        let missing_peaks = br#"{"carriers_hz":[],"sample_rate_hz":450,"duration_s":1}"#;
        assert!(WireCodec::<PeakReport>::decode(&JsonWire, missing_peaks).is_err());
    }
}
