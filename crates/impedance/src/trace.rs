//! The sampled, demodulated, multi-channel output signal.
//!
//! The HF2IS demodulates each carrier independently, so one acquisition
//! yields one time series per carrier ("MedSen outputs the measurement from
//! eight channels corresponding to the carrier frequencies"). Samples are
//! normalized amplitudes: baseline ≈ 1.0, with particles producing dips.

use medsen_units::{Hertz, Seconds};
use medsen_wire::json::{required, unknown_variant};
use medsen_wire::{Json, JsonReader, JsonWriter, Reader, Wire, WireError, Writer};

/// Which lock-in output a channel carries. The single-channel (magnitude)
/// acquisition of the prototype uses only [`SignalComponent::InPhase`];
/// phase-sensitive acquisitions add one quadrature channel per carrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SignalComponent {
    /// The in-phase (X, or magnitude R in single-output mode) component.
    #[default]
    InPhase,
    /// The quadrature (Y) component.
    Quadrature,
}

impl SignalComponent {
    /// One-letter label used in CSV headers ("I"/"Q").
    pub fn label(self) -> &'static str {
        match self {
            SignalComponent::InPhase => "I",
            SignalComponent::Quadrature => "Q",
        }
    }
}

/// One demodulated carrier channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// The carrier frequency this channel was demodulated at.
    pub carrier: Hertz,
    /// Normalized samples (baseline ≈ 1.0).
    pub samples: Vec<f64>,
    /// Which lock-in output this channel carries.
    pub component: SignalComponent,
}

impl Channel {
    /// Creates an empty in-phase channel for a carrier.
    pub fn new(carrier: Hertz) -> Self {
        Self {
            carrier,
            samples: Vec::new(),
            component: SignalComponent::InPhase,
        }
    }

    /// Minimum sample value (the deepest dip).
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Maximum sample value.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }
}

/// A complete multi-channel acquisition.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalTrace {
    /// Output sampling rate (paper: 450 Hz).
    pub sample_rate: Hertz,
    channels: Vec<Channel>,
}

impl SignalTrace {
    /// Creates a trace with pre-filled channels.
    ///
    /// # Panics
    ///
    /// Panics if the channels have differing lengths.
    pub fn new(sample_rate: Hertz, channels: Vec<Channel>) -> Self {
        if let Some(first) = channels.first() {
            assert!(
                channels
                    .iter()
                    .all(|c| c.samples.len() == first.samples.len()),
                "all channels must have equal length"
            );
        }
        Self {
            sample_rate,
            channels,
        }
    }

    /// What a trace decoded from either wire format must satisfy. Those
    /// bytes cross a trust boundary, so a trace no sensor can produce is
    /// refused here rather than handed to the analysis: channels of
    /// unequal length (the constructor would panic), a sample rate that
    /// is not finite and positive, or a carrier or sample that is not
    /// finite. Binary and JSON both decode through this one check, so
    /// they refuse exactly the same traces with the same
    /// [`WireError::Invalid`].
    fn validate(sample_rate: Hertz, channels: &[Channel]) -> Result<(), WireError> {
        if !(sample_rate.value().is_finite() && sample_rate.value() > 0.0) {
            return Err(WireError::Invalid(
                "trace sample rate is not finite and positive",
            ));
        }
        if let Some(first) = channels.first() {
            if channels
                .iter()
                .any(|c| c.samples.len() != first.samples.len())
            {
                return Err(WireError::Invalid("trace channels have unequal lengths"));
            }
        }
        if channels.iter().any(|c| !c.carrier.value().is_finite()) {
            return Err(WireError::Invalid("trace carrier is not finite"));
        }
        if channels
            .iter()
            .any(|c| c.samples.iter().any(|x| !x.is_finite()))
        {
            return Err(WireError::Invalid("trace sample is not finite"));
        }
        Ok(())
    }

    /// All channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The in-phase channel demodulated at (nearest to) `carrier` (falls
    /// back to any component if no in-phase channel exists).
    pub fn channel_at(&self, carrier: Hertz) -> Option<&Channel> {
        fn nearest<'c>(
            channels: impl Iterator<Item = &'c Channel>,
            carrier: Hertz,
        ) -> Option<&'c Channel> {
            channels.min_by(|a, b| {
                (a.carrier.value() - carrier.value())
                    .abs()
                    .total_cmp(&(b.carrier.value() - carrier.value()).abs())
            })
        }
        let in_phase = self
            .channels
            .iter()
            .filter(|c| c.component == SignalComponent::InPhase);
        nearest(in_phase, carrier).or_else(|| nearest(self.channels.iter(), carrier))
    }

    /// The quadrature channel nearest `carrier`, if the trace carries one.
    pub fn quadrature_at(&self, carrier: Hertz) -> Option<&Channel> {
        self.channels
            .iter()
            .filter(|c| c.component == SignalComponent::Quadrature)
            .min_by(|a, b| {
                (a.carrier.value() - carrier.value())
                    .abs()
                    .total_cmp(&(b.carrier.value() - carrier.value()).abs())
            })
    }

    /// Samples per channel.
    pub fn len(&self) -> usize {
        self.channels.first().map_or(0, |c| c.samples.len())
    }

    /// Whether the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Acquisition duration.
    pub fn duration(&self) -> Seconds {
        Seconds::new(self.len() as f64 / self.sample_rate.value())
    }

    /// The timestamp of sample `i`.
    pub fn time_of(&self, i: usize) -> Seconds {
        Seconds::new(i as f64 / self.sample_rate.value())
    }

    /// The sample index closest to time `t` (clamped to the trace).
    pub fn index_of(&self, t: Seconds) -> usize {
        let i = (t.value() * self.sample_rate.value()).round();
        (i.max(0.0) as usize).min(self.len().saturating_sub(1))
    }

    /// Total stored samples across all channels.
    pub fn total_samples(&self) -> usize {
        self.channels.iter().map(|c| c.samples.len()).sum()
    }

    /// Rough in-memory size of the raw sample data, in bytes.
    pub fn raw_size_bytes(&self) -> usize {
        self.total_samples() * core::mem::size_of::<f64>()
    }

    /// Extracts the sub-trace covering `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn slice(&self, start: Seconds, end: Seconds) -> SignalTrace {
        assert!(start.value() <= end.value(), "start must not exceed end");
        let i0 = self.index_of(start);
        let i1 = self.index_of(end);
        let channels = self
            .channels
            .iter()
            .map(|c| Channel {
                carrier: c.carrier,
                samples: c.samples[i0..=i1.min(c.samples.len().saturating_sub(1))].to_vec(),
                component: c.component,
            })
            .collect();
        SignalTrace::new(self.sample_rate, channels)
    }
}

impl Wire for SignalComponent {
    fn wire_encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            SignalComponent::InPhase => 0,
            SignalComponent::Quadrature => 1,
        });
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(SignalComponent::InPhase),
            1 => Ok(SignalComponent::Quadrature),
            tag => Err(WireError::BadTag {
                what: "signal component",
                tag,
            }),
        }
    }
}

impl Wire for Channel {
    fn wire_encode(&self, w: &mut Writer) {
        w.put_f64(self.carrier.value());
        self.samples.wire_encode(w);
        self.component.wire_encode(w);
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Channel {
            carrier: Hertz::new(r.get_f64()?),
            samples: Vec::wire_decode(r)?,
            component: SignalComponent::wire_decode(r)?,
        })
    }
}

impl Wire for SignalTrace {
    fn wire_encode(&self, w: &mut Writer) {
        w.put_f64(self.sample_rate.value());
        self.channels.wire_encode(w);
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let sample_rate = Hertz::new(r.get_f64()?);
        let channels = Vec::<Channel>::wire_decode(r)?;
        SignalTrace::validate(sample_rate, &channels)?;
        Ok(SignalTrace {
            sample_rate,
            channels,
        })
    }
}

impl Json for SignalComponent {
    fn json_encode(&self, w: &mut JsonWriter) {
        w.str(match self {
            SignalComponent::InPhase => "InPhase",
            SignalComponent::Quadrature => "Quadrature",
        });
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        r.variant(|name, payload| match (name, payload) {
            ("InPhase", None) => Ok(SignalComponent::InPhase),
            ("Quadrature", None) => Ok(SignalComponent::Quadrature),
            (name, _) => Err(unknown_variant("signal component", name)),
        })
    }
}

/// `{"carrier":Hz,"samples":[..],"component":..}`; a missing `component`
/// reads as [`SignalComponent::InPhase`].
impl Json for Channel {
    fn json_encode(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("carrier", &self.carrier.value());
            w.field("samples", &self.samples);
            w.field("component", &self.component);
        });
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        let (mut carrier, mut samples, mut component) = (None, None, None);
        r.object(|key, r| {
            match key {
                "carrier" => carrier = Some(Hertz::new(r.f64()?)),
                "samples" => samples = Some(Vec::json_decode(r)?),
                "component" => component = Some(SignalComponent::json_decode(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(Channel {
            carrier: required(carrier, "carrier")?,
            samples: required(samples, "samples")?,
            component: component.unwrap_or_default(),
        })
    }
}

impl Json for SignalTrace {
    fn json_encode(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("sample_rate", &self.sample_rate.value());
            w.field("channels", &self.channels);
        });
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        let (mut sample_rate, mut channels) = (None, None);
        r.object(|key, r| {
            match key {
                "sample_rate" => sample_rate = Some(Hertz::new(r.f64()?)),
                "channels" => channels = Some(Vec::<Channel>::json_decode(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let sample_rate = required(sample_rate, "sample_rate")?;
        let channels = required(channels, "channels")?;
        SignalTrace::validate(sample_rate, &channels)?;
        Ok(SignalTrace {
            sample_rate,
            channels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(n: usize) -> SignalTrace {
        let mk = |f: f64| Channel {
            carrier: Hertz::from_khz(f),
            samples: (0..n).map(|i| 1.0 + i as f64 * 1e-6).collect(),
            component: SignalComponent::InPhase,
        };
        SignalTrace::new(Hertz::new(450.0), vec![mk(500.0), mk(2000.0)])
    }

    #[test]
    fn wire_round_trip_preserves_the_trace() {
        let t = trace(64);
        let mut w = Writer::new();
        t.wire_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = SignalTrace::wire_decode(&mut r).expect("decodes");
        r.finish().expect("fully consumed");
        assert_eq!(back, t);
    }

    #[test]
    fn wire_decode_rejects_ragged_channels_without_panicking() {
        // Hand-encode a trace whose channels disagree on length — the
        // constructor would panic on this, the decoder must error.
        let mut w = Writer::new();
        w.put_f64(450.0);
        w.put_u32(2);
        for samples in [2u32, 3u32] {
            w.put_f64(500_000.0);
            w.put_u32(samples);
            for _ in 0..samples {
                w.put_f64(1.0);
            }
            w.put_u8(0);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            SignalTrace::wire_decode(&mut r),
            Err(WireError::Invalid("trace channels have unequal lengths"))
        );
    }

    /// Decodes a hand-encoded one-channel trace.
    fn decode_raw(rate: f64, carrier: f64, samples: &[f64]) -> Result<SignalTrace, WireError> {
        let mut w = Writer::new();
        w.put_f64(rate);
        w.put_u32(1);
        w.put_f64(carrier);
        w.put_u32(samples.len() as u32);
        for &x in samples {
            w.put_f64(x);
        }
        w.put_u8(0);
        let bytes = w.into_bytes();
        SignalTrace::wire_decode(&mut Reader::new(&bytes))
    }

    #[test]
    fn wire_decode_rejects_non_finite_samples() {
        assert!(decode_raw(450.0, 5e5, &[1.0, 0.0, -1.0]).is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                decode_raw(450.0, 5e5, &[1.0, bad, 1.0]),
                Err(WireError::Invalid("trace sample is not finite")),
                "{bad}"
            );
        }
    }

    #[test]
    fn wire_decode_rejects_non_finite_carriers() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                decode_raw(450.0, bad, &[1.0]),
                Err(WireError::Invalid("trace carrier is not finite")),
                "{bad}"
            );
        }
    }

    #[test]
    fn wire_decode_rejects_non_physical_sample_rates() {
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -450.0,
        ] {
            assert_eq!(
                decode_raw(bad, 5e5, &[1.0]),
                Err(WireError::Invalid(
                    "trace sample rate is not finite and positive"
                )),
                "{bad}"
            );
        }
    }

    #[test]
    fn json_round_trip_preserves_the_trace_and_defaults_the_component() {
        use medsen_wire::{JsonWire, WireCodec};
        let t = trace(8);
        let bytes = JsonWire.encode(&t).expect("encodes");
        assert_eq!(JsonWire.decode(&bytes), Ok(t));
        let json = br#"{"channels":[{"samples":[1,0.5],"carrier":5e5}],"sample_rate":450}"#;
        let decoded: SignalTrace = JsonWire.decode(json).expect("decodes");
        assert_eq!(decoded.channels()[0].component, SignalComponent::InPhase);
        assert_eq!(decoded.channels()[0].samples, vec![1.0, 0.5]);
    }

    #[test]
    fn duration_follows_sample_rate() {
        let t = trace(900);
        assert!((t.duration().value() - 2.0).abs() < 1e-12);
        assert_eq!(t.len(), 900);
        assert!(!t.is_empty());
    }

    #[test]
    fn time_index_roundtrip() {
        let t = trace(4500);
        let idx = t.index_of(Seconds::new(3.0));
        assert_eq!(idx, 1350);
        assert!((t.time_of(idx).value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn index_of_clamps_to_trace() {
        let t = trace(100);
        assert_eq!(t.index_of(Seconds::new(1e9)), 99);
        assert_eq!(t.index_of(Seconds::new(-5.0)), 0);
    }

    #[test]
    fn channel_lookup_finds_nearest_carrier() {
        let t = trace(10);
        let c = t.channel_at(Hertz::from_khz(1900.0)).unwrap();
        assert_eq!(c.carrier.value(), 2.0e6);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn unequal_channel_lengths_panic() {
        let a = Channel {
            carrier: Hertz::from_khz(500.0),
            samples: vec![1.0; 5],
            component: SignalComponent::InPhase,
        };
        let b = Channel {
            carrier: Hertz::from_khz(800.0),
            samples: vec![1.0; 6],
            component: SignalComponent::InPhase,
        };
        let _ = SignalTrace::new(Hertz::new(450.0), vec![a, b]);
    }

    #[test]
    fn slice_extracts_window() {
        let t = trace(4500); // 10 s
        let s = t.slice(Seconds::new(2.0), Seconds::new(4.0));
        assert!((s.duration().value() - 2.0).abs() < 0.01);
        assert_eq!(s.channels().len(), 2);
    }

    #[test]
    fn raw_size_counts_all_channels() {
        let t = trace(1000);
        assert_eq!(t.total_samples(), 2000);
        assert_eq!(t.raw_size_bytes(), 2000 * 8);
    }

    #[test]
    fn channel_at_prefers_in_phase_and_quadrature_lookup_works() {
        let i_ch = Channel {
            carrier: Hertz::from_khz(500.0),
            samples: vec![1.0; 4],
            component: SignalComponent::InPhase,
        };
        let q_ch = Channel {
            carrier: Hertz::from_khz(500.0),
            samples: vec![1.0; 4],
            component: SignalComponent::Quadrature,
        };
        let t = SignalTrace::new(Hertz::new(450.0), vec![q_ch, i_ch]);
        assert_eq!(
            t.channel_at(Hertz::from_khz(500.0)).unwrap().component,
            SignalComponent::InPhase
        );
        assert_eq!(
            t.quadrature_at(Hertz::from_khz(500.0)).unwrap().component,
            SignalComponent::Quadrature
        );
    }

    #[test]
    fn channel_statistics() {
        let c = Channel {
            carrier: Hertz::from_khz(500.0),
            samples: vec![1.0, 0.5, 1.5],
            component: SignalComponent::InPhase,
        };
        assert_eq!(c.min(), Some(0.5));
        assert_eq!(c.max(), Some(1.5));
        assert!((c.mean() - 1.0).abs() < 1e-12);
        assert_eq!(Channel::new(Hertz::new(1.0)).min(), None);
    }
}
