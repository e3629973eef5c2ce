//! Multi-carrier AC excitation (Sec. VI-D).
//!
//! "The input electrode of the microfluidic channel is excited with a
//! combination of [500, 800, 1000, 1200, 1400, 2000, 3000, 4000] kHz carrier
//! frequencies. Excitation voltage is at 1 V per excitation signal. The
//! recovered signal is sampled at 450 Hz. The recovering low pass filter is
//! set to have cut off frequency at 120 Hz."

use medsen_units::{Hertz, Volts};

/// The excitation and acquisition settings of the impedance spectroscope.
#[derive(Debug, Clone, PartialEq)]
pub struct ExcitationConfig {
    carriers: Vec<Hertz>,
    /// Excitation amplitude per carrier.
    pub amplitude: Volts,
    /// Output (demodulated) sampling rate.
    pub sample_rate: Hertz,
    /// Low-pass cut-off of the recovery filter.
    pub lpf_cutoff: Hertz,
}

impl ExcitationConfig {
    /// Maximum simultaneous carriers of the HF2IS instrument.
    pub const MAX_CARRIERS: usize = 8;

    /// The paper's exact configuration.
    pub fn paper_default() -> Self {
        Self {
            carriers: [500.0, 800.0, 1000.0, 1200.0, 1400.0, 2000.0, 3000.0, 4000.0]
                .iter()
                .map(|&khz| Hertz::from_khz(khz))
                .collect(),
            amplitude: Volts::new(1.0),
            sample_rate: Hertz::new(450.0),
            lpf_cutoff: Hertz::new(120.0),
        }
    }

    /// The reduced carrier set shown in Fig. 15 (500/1000/2000/2500/3000 kHz).
    pub fn figure15() -> Self {
        let mut cfg = Self::paper_default();
        cfg.carriers = [500.0, 1000.0, 2000.0, 2500.0, 3000.0]
            .iter()
            .map(|&khz| Hertz::from_khz(khz))
            .collect();
        cfg
    }

    /// Builds a custom configuration.
    ///
    /// # Errors
    ///
    /// Fails when the carrier list is empty, exceeds [`Self::MAX_CARRIERS`],
    /// contains a duplicate or non-positive carrier, or when the LPF cut-off
    /// does not respect Nyquist (`lpf_cutoff < sample_rate / 2`).
    pub fn new(
        carriers: Vec<Hertz>,
        amplitude: Volts,
        sample_rate: Hertz,
        lpf_cutoff: Hertz,
    ) -> Result<Self, String> {
        if carriers.is_empty() {
            return Err("at least one carrier frequency is required".into());
        }
        if carriers.len() > Self::MAX_CARRIERS {
            return Err(format!(
                "HF2IS supports at most {} simultaneous carriers",
                Self::MAX_CARRIERS
            ));
        }
        if carriers.iter().any(|f| f.value() <= 0.0) {
            return Err("carrier frequencies must be positive".into());
        }
        for (i, a) in carriers.iter().enumerate() {
            if carriers[i + 1..].iter().any(|b| b == a) {
                return Err("carrier frequencies must be distinct".into());
            }
        }
        if lpf_cutoff.value() >= sample_rate.value() / 2.0 {
            return Err("LPF cut-off must be below the Nyquist frequency".into());
        }
        Ok(Self {
            carriers,
            amplitude,
            sample_rate,
            lpf_cutoff,
        })
    }

    /// The carrier frequencies.
    pub fn carriers(&self) -> &[Hertz] {
        &self.carriers
    }

    /// Index of the carrier closest to `f`, if any carrier is configured.
    pub fn carrier_index(&self, f: Hertz) -> Option<usize> {
        self.carriers
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (a.value() - f.value())
                    .abs()
                    .partial_cmp(&(b.value() - f.value()).abs())
                    .expect("frequencies are finite")
            })
            .map(|(i, _)| i)
    }

    /// Minimum resolvable peak width: the LPF smears any transient to at
    /// least ~1/(2·f_c) wide.
    pub fn min_peak_width_s(&self) -> f64 {
        1.0 / (2.0 * self.lpf_cutoff.value())
    }
}

impl Default for ExcitationConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_has_eight_carriers_at_1v() {
        let cfg = ExcitationConfig::paper_default();
        assert_eq!(cfg.carriers().len(), 8);
        assert_eq!(cfg.amplitude.value(), 1.0);
        assert_eq!(cfg.sample_rate.value(), 450.0);
        assert_eq!(cfg.lpf_cutoff.value(), 120.0);
        assert_eq!(cfg.carriers()[0].value(), 5.0e5);
        assert_eq!(cfg.carriers()[7].value(), 4.0e6);
    }

    #[test]
    fn rejects_too_many_carriers() {
        let carriers: Vec<Hertz> = (1..=9).map(|i| Hertz::from_khz(i as f64 * 100.0)).collect();
        let err = ExcitationConfig::new(
            carriers,
            Volts::new(1.0),
            Hertz::new(450.0),
            Hertz::new(120.0),
        )
        .unwrap_err();
        assert!(err.contains("at most 8"));
    }

    #[test]
    fn rejects_duplicate_carriers() {
        let err = ExcitationConfig::new(
            vec![Hertz::from_khz(500.0), Hertz::from_khz(500.0)],
            Volts::new(1.0),
            Hertz::new(450.0),
            Hertz::new(120.0),
        )
        .unwrap_err();
        assert!(err.contains("distinct"));
    }

    #[test]
    fn rejects_empty_and_nyquist_violation() {
        assert!(ExcitationConfig::new(
            vec![],
            Volts::new(1.0),
            Hertz::new(450.0),
            Hertz::new(120.0)
        )
        .is_err());
        assert!(ExcitationConfig::new(
            vec![Hertz::from_khz(500.0)],
            Volts::new(1.0),
            Hertz::new(200.0),
            Hertz::new(120.0)
        )
        .is_err());
    }

    #[test]
    fn carrier_index_finds_nearest() {
        let cfg = ExcitationConfig::paper_default();
        assert_eq!(cfg.carrier_index(Hertz::from_khz(2000.0)), Some(5));
        assert_eq!(cfg.carrier_index(Hertz::from_khz(1900.0)), Some(5));
        assert_eq!(cfg.carrier_index(Hertz::from_khz(490.0)), Some(0));
    }

    #[test]
    fn min_peak_width_follows_lpf() {
        let cfg = ExcitationConfig::paper_default();
        assert!((cfg.min_peak_width_s() - 1.0 / 240.0).abs() < 1e-12);
    }

    #[test]
    fn figure15_carrier_set() {
        let cfg = ExcitationConfig::figure15();
        assert_eq!(cfg.carriers().len(), 5);
        assert_eq!(cfg.carriers()[3].value(), 2.5e6);
    }
}
