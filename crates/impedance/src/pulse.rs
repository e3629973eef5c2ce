//! Particle-transit pulse shapes.
//!
//! A particle between an electrode pair partially occludes the ion path, so
//! the lock-in output voltage *drops* for the duration of the transit
//! (Fig. 7). On the multi-electrode sensor, the lead electrode produces a
//! single dip per particle while every other output electrode — flanked by
//! excitation electrodes on both sides — produces a characteristic *double*
//! dip (Sec. III-B, Fig. 5).

use medsen_units::Seconds;

/// Whether a pulse is a single dip or the double-dip signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Single dip — the lead electrode's response.
    Single,
    /// Double dip — non-lead output electrodes.
    Double,
}

/// One rendered pulse in normalized-amplitude units.
///
/// Amplitudes are fractions of the baseline: `depth = 0.004` means the
/// normalized signal dips to 0.996 at the pulse centre, matching the scale of
/// Fig. 15's normalized plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulseSpec {
    /// Pulse centre time.
    pub center: Seconds,
    /// Full width at half maximum of each dip.
    pub fwhm: Seconds,
    /// Fractional dip depth at the (first) centre.
    pub depth: f64,
    /// Single or double dip.
    pub polarity: Polarity,
    /// For double dips: separation between the two dip centres.
    pub separation: Seconds,
}

impl PulseSpec {
    /// A single-dip pulse.
    pub fn unipolar(center: Seconds, fwhm: Seconds, depth: f64) -> Self {
        Self {
            center,
            fwhm,
            depth,
            polarity: Polarity::Single,
            separation: Seconds::ZERO,
        }
    }

    /// A double-dip pulse with the given centre-to-centre separation.
    pub fn double(center: Seconds, fwhm: Seconds, depth: f64, separation: Seconds) -> Self {
        Self {
            center,
            fwhm,
            depth,
            polarity: Polarity::Double,
            separation,
        }
    }

    /// Gaussian σ corresponding to the FWHM.
    pub fn sigma(&self) -> f64 {
        self.fwhm.value() / (2.0 * (2.0 * core::f64::consts::LN_2).sqrt())
    }

    /// Number of individual dips this pulse contributes to the trace.
    pub fn dip_count(&self) -> usize {
        match self.polarity {
            Polarity::Single => 1,
            Polarity::Double => 2,
        }
    }

    /// The (first dip's) earliest time at which the pulse meaningfully
    /// affects the signal (±4σ support).
    pub fn support_start(&self) -> Seconds {
        Seconds::new(self.center.value() - 4.0 * self.sigma())
    }

    /// The latest time at which the pulse meaningfully affects the signal.
    pub fn support_end(&self) -> Seconds {
        let last_center = match self.polarity {
            Polarity::Single => self.center.value(),
            Polarity::Double => self.center.value() + self.separation.value(),
        };
        Seconds::new(last_center + 4.0 * self.sigma())
    }

    /// Signed contribution of this pulse to the normalized signal at time
    /// `t` (always ≤ 0: particles only *add* impedance).
    pub fn evaluate(&self, t: f64) -> f64 {
        let sigma = self.sigma();
        let gauss = |c: f64| {
            let dt = t - c;
            (-dt * dt / (2.0 * sigma * sigma)).exp()
        };
        let first = gauss(self.center.value());
        let total = match self.polarity {
            Polarity::Single => first,
            Polarity::Double => first + gauss(self.center.value() + self.separation.value()),
        };
        -self.depth * total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pulse_dips_to_depth_at_center() {
        let p = PulseSpec::unipolar(Seconds::new(1.0), Seconds::new(0.02), 0.005);
        assert!((p.evaluate(1.0) + 0.005).abs() < 1e-12);
    }

    #[test]
    fn pulse_is_negligible_outside_support() {
        let p = PulseSpec::unipolar(Seconds::new(1.0), Seconds::new(0.02), 0.005);
        assert!(p.evaluate(p.support_start().value() - 0.01).abs() < 1e-5 * 0.005);
        assert!(p.evaluate(p.support_end().value() + 0.01).abs() < 1e-5 * 0.005);
    }

    #[test]
    fn fwhm_is_respected() {
        let p = PulseSpec::unipolar(Seconds::new(0.0), Seconds::new(0.02), 0.01);
        // At ±FWHM/2 the dip should be at half depth.
        let half = p.evaluate(0.01);
        assert!((half + 0.005).abs() < 1e-9, "half-depth was {half}");
    }

    #[test]
    fn double_pulse_has_two_minima() {
        let p = PulseSpec::double(
            Seconds::new(1.0),
            Seconds::new(0.01),
            0.004,
            Seconds::new(0.05),
        );
        let at_first = p.evaluate(1.0);
        let at_second = p.evaluate(1.05);
        let between = p.evaluate(1.025);
        assert!(at_first < between && at_second < between);
        assert!((at_first - at_second).abs() < 1e-9);
        assert_eq!(p.dip_count(), 2);
    }

    #[test]
    fn double_pulse_support_covers_both_dips() {
        let p = PulseSpec::double(
            Seconds::new(1.0),
            Seconds::new(0.01),
            0.004,
            Seconds::new(0.05),
        );
        assert!(p.support_end().value() > 1.05);
    }

    #[test]
    fn pulses_never_go_positive() {
        let p = PulseSpec::double(
            Seconds::new(0.5),
            Seconds::new(0.02),
            0.003,
            Seconds::new(0.03),
        );
        for i in 0..200 {
            let t = i as f64 * 0.005;
            assert!(p.evaluate(t) <= 0.0);
        }
    }
}
