//! Measurement noise and baseline drift.
//!
//! Section VI-C: "in the long succession of data acquisition, the measured
//! signal changes in the baseline measurement. These changes can be caused by
//! many conditions such as the change in fluid concentration over long
//! acquisition time and the temperature drift of the fluid." The cloud-side
//! detrending exists precisely to remove this wander, so the synthesiser must
//! generate it.

use medsen_units::Seconds;
use rand::Rng;

/// White measurement noise at the lock-in output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// 1 σ of additive white noise, in normalized-amplitude units.
    pub sigma: f64,
}

impl NoiseModel {
    /// Noise floor calibrated so the smallest bead (≈ 0.25 % dip) has SNR ≈ 8
    /// while platelets sit near the detection threshold, as in the prototype.
    pub fn paper_default() -> Self {
        Self { sigma: 3.0e-4 }
    }

    /// A noiseless model for deterministic tests.
    pub fn none() -> Self {
        Self { sigma: 0.0 }
    }

    /// Draws one noise sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sigma == 0.0 {
            0.0
        } else {
            medsen_microfluidics::stochastic::sample_normal(rng, 0.0, self.sigma)
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Deterministic slow baseline drift: linear + quadratic + slow sinusoid.
///
/// The quadratic term models temperature drift; the sinusoid models slow
/// concentration cycling. Parameters are per-run constants (drawn once by
/// the synthesiser) so the drift is smooth, as in real acquisitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineDrift {
    /// Linear slope per second (normalized units).
    pub linear: f64,
    /// Quadratic coefficient per second².
    pub quadratic: f64,
    /// Amplitude of the slow sinusoidal component.
    pub wave_amplitude: f64,
    /// Period of the sinusoidal component.
    pub wave_period: Seconds,
    /// Phase offset of the sinusoid (radians).
    pub wave_phase: f64,
}

impl BaselineDrift {
    /// No drift at all.
    pub fn none() -> Self {
        Self {
            linear: 0.0,
            quadratic: 0.0,
            wave_amplitude: 0.0,
            wave_period: Seconds::new(1.0),
            wave_phase: 0.0,
        }
    }

    /// Drift magnitudes typical of a minutes-long acquisition: ~1 % wander
    /// over 100 s — large compared with the 0.25–1.5 % particle dips, which
    /// is why naive fixed-threshold detection fails without detrending.
    pub fn paper_default() -> Self {
        Self {
            linear: 4.0e-5,
            quadratic: -1.5e-7,
            wave_amplitude: 2.0e-3,
            wave_period: Seconds::new(60.0),
            wave_phase: 0.7,
        }
    }

    /// Randomises the drift constants for one run (keeps magnitudes in the
    /// paper_default envelope).
    pub fn randomized<R: Rng + ?Sized>(rng: &mut R) -> Self {
        use medsen_microfluidics::stochastic::sample_normal;
        let base = Self::paper_default();
        Self {
            linear: sample_normal(rng, 0.0, base.linear.abs()),
            quadratic: sample_normal(rng, 0.0, base.quadratic.abs()),
            wave_amplitude: sample_normal(rng, base.wave_amplitude, base.wave_amplitude / 4.0)
                .abs(),
            wave_period: Seconds::new(sample_normal(rng, base.wave_period.value(), 10.0).max(20.0)),
            wave_phase: sample_normal(rng, 0.0, 2.0),
        }
    }

    /// Baseline multiplier at time `t` (≈ 1.0 ± ~1 %).
    pub fn evaluate(&self, t: Seconds) -> f64 {
        let x = t.value();
        1.0 + self.linear * x
            + self.quadratic * x * x
            + self.wave_amplitude
                * (2.0 * core::f64::consts::PI * x / self.wave_period.value() + self.wave_phase)
                    .sin()
    }
}

impl Default for BaselineDrift {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn no_drift_is_unity() {
        let d = BaselineDrift::none();
        for t in [0.0, 1.0, 100.0, 10_000.0] {
            assert_eq!(d.evaluate(Seconds::new(t)), 1.0);
        }
    }

    #[test]
    fn paper_drift_wanders_but_stays_near_unity() {
        let d = BaselineDrift::paper_default();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for i in 0..10_000 {
            let v = d.evaluate(Seconds::new(i as f64 * 0.03));
            min = min.min(v);
            max = max.max(v);
        }
        assert!(max - min > 1.0e-3, "drift too small: {}", max - min);
        assert!((0.97..=1.03).contains(&min) && (0.97..=1.03).contains(&max));
    }

    #[test]
    fn drift_is_smooth_over_one_sample() {
        let d = BaselineDrift::paper_default();
        let dt = 1.0 / 450.0;
        for i in 0..5_000 {
            let t = i as f64 * dt;
            let step = (d.evaluate(Seconds::new(t + dt)) - d.evaluate(Seconds::new(t))).abs();
            assert!(step < 5.0e-5, "drift step {step} at t={t}");
        }
    }

    #[test]
    fn noiseless_model_returns_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(NoiseModel::none().sample(&mut rng), 0.0);
    }

    #[test]
    fn noise_sigma_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = NoiseModel::paper_default();
        let n = 50_000;
        let var: f64 = (0..n).map(|_| m.sample(&mut rng).powi(2)).sum::<f64>() / n as f64;
        let sigma = var.sqrt();
        assert!((sigma - 3.0e-4).abs() < 2.0e-5, "sigma {sigma}");
    }

    #[test]
    fn randomized_drift_is_reproducible_per_seed() {
        let a = BaselineDrift::randomized(&mut StdRng::seed_from_u64(3));
        let b = BaselineDrift::randomized(&mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }
}
