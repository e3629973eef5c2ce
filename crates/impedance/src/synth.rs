//! Renders a pulse plan into a realistic multi-channel acquisition.
//!
//! The synthesiser works at baseband: every demodulated channel starts as a
//! flat unit baseline, each [`PulseSpec`] subtracts its Gaussian dip(s)
//! (optionally with per-channel gain, which is how particle dispersion and
//! the cipher's electrode gains enter), then baseline drift multiplies the
//! signal, white noise is added, and the lock-in output filter band-limits
//! the result. [`LockInAmplifier::demodulate`]'s tests validate that this
//! shortcut matches true mix-and-filter demodulation.

use crate::excitation::ExcitationConfig;
use crate::lockin::LockInAmplifier;
use crate::noise::{BaselineDrift, NoiseModel};
use crate::pulse::PulseSpec;
use crate::trace::{Channel, SignalComponent, SignalTrace};
use medsen_units::{Hertz, Seconds};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A pulse with an explicit per-channel gain vector.
///
/// `channel_gains[i]` multiplies the pulse depth on carrier `i`. This is the
/// hook through which both physics (a blood cell's high-frequency roll-off)
/// and the cipher (the random electrode gains `G(t)`) reach the signal. In
/// phase-sensitive (I/Q) mode, `quadrature_gains[i]` sets the dip depth on
/// carrier `i`'s quadrature channel (zero for phase-neutral particles).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChannelPulse {
    /// The base pulse geometry and reference depth.
    pub spec: PulseSpec,
    /// Per-carrier depth multipliers (must match the carrier count).
    pub channel_gains: Vec<f64>,
    /// Per-carrier quadrature multipliers (only used in I/Q mode; when
    /// empty, quadrature channels see no dip from this pulse).
    pub quadrature_gains: Vec<f64>,
}

impl MultiChannelPulse {
    /// A pulse with unit gain on every one of `n_channels` carriers (no
    /// quadrature contribution).
    pub fn uniform(spec: PulseSpec, n_channels: usize) -> Self {
        Self {
            spec,
            channel_gains: vec![1.0; n_channels],
            quadrature_gains: Vec::new(),
        }
    }
}

/// Baseband trace synthesiser.
#[derive(Debug, Clone)]
pub struct TraceSynthesizer {
    /// Excitation / acquisition settings.
    pub excitation: ExcitationConfig,
    /// Output filter stage.
    pub lockin: LockInAmplifier,
    /// White-noise model.
    pub noise: NoiseModel,
    /// Baseline drift model.
    pub drift: BaselineDrift,
    seed: u64,
    renders: u64,
    iq: bool,
}

impl TraceSynthesizer {
    /// A synthesiser with the paper's excitation, filter, noise and drift.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            excitation: ExcitationConfig::paper_default(),
            lockin: LockInAmplifier::paper_default(),
            noise: NoiseModel::paper_default(),
            drift: BaselineDrift::paper_default(),
            seed,
            renders: 0,
            iq: false,
        }
    }

    /// A noiseless, drift-free synthesiser for deterministic tests.
    pub fn clean(seed: u64) -> Self {
        Self {
            excitation: ExcitationConfig::paper_default(),
            lockin: LockInAmplifier::paper_default(),
            noise: NoiseModel::none(),
            drift: BaselineDrift::none(),
            seed,
            renders: 0,
            iq: false,
        }
    }

    /// Enables phase-sensitive acquisition: each carrier gains a quadrature
    /// channel (baseline 1.0, dips per `quadrature_gains`). The prototype's
    /// single-output acquisition corresponds to `iq = false`.
    pub fn with_iq(mut self, iq: bool) -> Self {
        self.iq = iq;
        self
    }

    /// Whether phase-sensitive acquisition is enabled.
    pub fn is_iq(&self) -> bool {
        self.iq
    }

    /// Replaces the excitation configuration (builder style).
    pub fn with_excitation(mut self, excitation: ExcitationConfig) -> Self {
        self.excitation = excitation;
        self
    }

    /// Renders pulses applied identically to every carrier channel.
    pub fn render(&mut self, pulses: &[PulseSpec], duration: Seconds) -> SignalTrace {
        let n = self.excitation.carriers().len();
        let mc: Vec<MultiChannelPulse> = pulses
            .iter()
            .map(|&spec| MultiChannelPulse::uniform(spec, n))
            .collect();
        self.render_multichannel(&mc, duration)
    }

    /// Renders pulses with per-channel gains.
    ///
    /// # Panics
    ///
    /// Panics if any pulse's gain vector length differs from the carrier
    /// count.
    pub fn render_multichannel(
        &mut self,
        pulses: &[MultiChannelPulse],
        duration: Seconds,
    ) -> SignalTrace {
        let carriers = self.excitation.carriers().to_vec();
        for p in pulses {
            assert_eq!(
                p.channel_gains.len(),
                carriers.len(),
                "gain vector must match carrier count"
            );
            assert!(
                p.quadrature_gains.is_empty() || p.quadrature_gains.len() == carriers.len(),
                "quadrature gain vector must be empty or match carrier count"
            );
        }
        let rate = self.excitation.sample_rate;
        let n_samples = duration.samples_at(rate);
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(self.renders));
        self.renders += 1;

        // Channel plan: all in-phase channels, then (in IQ mode) all
        // quadrature channels.
        let mut plan: Vec<(Hertz, SignalComponent)> = carriers
            .iter()
            .map(|&c| (c, SignalComponent::InPhase))
            .collect();
        if self.iq {
            plan.extend(carriers.iter().map(|&c| (c, SignalComponent::Quadrature)));
        }

        let channels = plan
            .into_iter()
            .enumerate()
            .map(|(slot, (carrier, component))| {
                let ci = slot % carriers.len();
                let mut samples = vec![1.0f64; n_samples];
                // Add pulses over their ±4σ support only.
                for p in pulses {
                    let gain = match component {
                        SignalComponent::InPhase => p.channel_gains[ci],
                        SignalComponent::Quadrature => {
                            p.quadrature_gains.get(ci).copied().unwrap_or(0.0)
                        }
                    };
                    if gain == 0.0 {
                        continue;
                    }
                    let i0 = ((p.spec.support_start().value() * rate.value()).floor() as i64).max(0)
                        as usize;
                    let i1 = ((p.spec.support_end().value() * rate.value()).ceil() as i64).max(0)
                        as usize;
                    for (i, s) in samples
                        .iter_mut()
                        .enumerate()
                        .take(i1.min(n_samples.saturating_sub(1)) + 1)
                        .skip(i0.min(n_samples))
                    {
                        let t = i as f64 / rate.value();
                        *s += gain * p.spec.evaluate(t);
                    }
                }
                // Drift multiplies, noise adds.
                for (i, s) in samples.iter_mut().enumerate() {
                    let t = Seconds::new(i as f64 / rate.value());
                    *s *= self.drift.evaluate(t);
                    *s += self.noise.sample(&mut rng);
                }
                // Band-limit like the instrument.
                self.lockin.filter(&mut samples);
                Channel {
                    carrier,
                    samples,
                    component,
                }
            })
            .collect();

        SignalTrace::new(rate, channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_units::Hertz;

    #[test]
    fn clean_render_has_unit_baseline() {
        let mut s = TraceSynthesizer::clean(1);
        let t = s.render(&[], Seconds::new(1.0));
        let c = &t.channels()[0];
        assert!(c.samples.iter().all(|&v| (v - 1.0).abs() < 1e-9));
        assert_eq!(t.len(), 450);
    }

    #[test]
    fn single_pulse_produces_single_dip() {
        let mut s = TraceSynthesizer::clean(1);
        let p = PulseSpec::unipolar(Seconds::new(0.5), Seconds::new(0.02), 0.01);
        let t = s.render(&[p], Seconds::new(1.0));
        let c = t.channel_at(Hertz::from_khz(500.0)).unwrap();
        let min = c.min().unwrap();
        assert!(min < 0.995, "dip {min}");
        // Dip is centred near 0.5 s.
        let argmin = c
            .samples
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let t_min = argmin as f64 / 450.0;
        assert!((t_min - 0.5).abs() < 0.01, "dip at {t_min}");
    }

    #[test]
    fn channel_gains_scale_dips_independently() {
        let mut s = TraceSynthesizer::clean(1);
        let spec = PulseSpec::unipolar(Seconds::new(0.5), Seconds::new(0.02), 0.01);
        let n = s.excitation.carriers().len();
        let mut gains = vec![1.0; n];
        gains[0] = 1.0;
        gains[n - 1] = 0.25;
        let mc = MultiChannelPulse {
            spec,
            channel_gains: gains,
            quadrature_gains: Vec::new(),
        };
        let t = s.render_multichannel(&[mc], Seconds::new(1.0));
        let dip0 = 1.0 - t.channels()[0].min().unwrap();
        let dip7 = 1.0 - t.channels()[n - 1].min().unwrap();
        assert!((dip7 / dip0 - 0.25).abs() < 0.02, "ratio {}", dip7 / dip0);
    }

    #[test]
    fn zero_gain_channel_sees_no_pulse() {
        let mut s = TraceSynthesizer::clean(1);
        let spec = PulseSpec::unipolar(Seconds::new(0.5), Seconds::new(0.02), 0.01);
        let n = s.excitation.carriers().len();
        let mut gains = vec![0.0; n];
        gains[0] = 1.0;
        let t = s.render_multichannel(
            &[MultiChannelPulse {
                spec,
                channel_gains: gains,
                quadrature_gains: Vec::new(),
            }],
            Seconds::new(1.0),
        );
        assert!(t.channels()[1].min().unwrap() > 0.9999);
        assert!(t.channels()[0].min().unwrap() < 0.995);
    }

    #[test]
    fn noisy_render_varies_between_calls_but_is_seed_deterministic() {
        let mut a = TraceSynthesizer::paper_default(9);
        let t1 = a.render(&[], Seconds::new(0.5));
        let t2 = a.render(&[], Seconds::new(0.5));
        assert_ne!(t1, t2, "consecutive renders should use fresh noise");

        let mut b = TraceSynthesizer::paper_default(9);
        let t1b = b.render(&[], Seconds::new(0.5));
        assert_eq!(t1, t1b, "same seed + same render index must reproduce");
    }

    #[test]
    fn drift_moves_the_baseline() {
        let mut s = TraceSynthesizer::clean(1);
        s.drift = BaselineDrift::paper_default();
        let t = s.render(&[], Seconds::new(60.0));
        let c = &t.channels()[0];
        let spread = c.max().unwrap() - c.min().unwrap();
        assert!(spread > 1e-3, "drift spread {spread}");
    }

    #[test]
    #[should_panic(expected = "gain vector must match carrier count")]
    fn wrong_gain_length_panics() {
        let mut s = TraceSynthesizer::clean(1);
        let mc = MultiChannelPulse {
            spec: PulseSpec::unipolar(Seconds::new(0.1), Seconds::new(0.02), 0.01),
            channel_gains: vec![1.0; 3],
            quadrature_gains: Vec::new(),
        };
        let _ = s.render_multichannel(&[mc], Seconds::new(0.5));
    }

    #[test]
    fn iq_mode_adds_quadrature_channels() {
        let mut s = TraceSynthesizer::clean(1).with_iq(true);
        let n = s.excitation.carriers().len();
        let spec = PulseSpec::unipolar(Seconds::new(0.5), Seconds::new(0.02), 0.01);
        let mc = MultiChannelPulse {
            spec,
            channel_gains: vec![1.0; n],
            quadrature_gains: vec![0.5; n],
        };
        let t = s.render_multichannel(&[mc], Seconds::new(1.0));
        assert_eq!(t.channels().len(), 2 * n);
        let i_dip = 1.0 - t.channel_at(Hertz::from_khz(500.0)).unwrap().min().unwrap();
        let q_dip = 1.0
            - t.quadrature_at(Hertz::from_khz(500.0))
                .unwrap()
                .min()
                .unwrap();
        assert!(
            (q_dip / i_dip - 0.5).abs() < 0.05,
            "ratio {}",
            q_dip / i_dip
        );
    }

    #[test]
    fn non_iq_mode_has_no_quadrature_channels() {
        let mut s = TraceSynthesizer::clean(2);
        let t = s.render(&[], Seconds::new(0.5));
        assert!(t.quadrature_at(Hertz::from_khz(500.0)).is_none());
    }

    #[test]
    fn overlapping_pulses_superpose() {
        let mut s = TraceSynthesizer::clean(1);
        let p1 = PulseSpec::unipolar(Seconds::new(0.5), Seconds::new(0.02), 0.004);
        let p2 = PulseSpec::unipolar(Seconds::new(0.5), Seconds::new(0.02), 0.004);
        let t = s.render(&[p1, p2], Seconds::new(1.0));
        let dip = 1.0 - t.channels()[0].min().unwrap();
        assert!((dip - 0.008).abs() < 0.001, "superposed dip {dip}");
    }
}
