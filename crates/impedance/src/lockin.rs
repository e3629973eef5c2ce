//! Lock-in amplifier model (HF2IS + HF2TA).
//!
//! The instrument multiplies the measured current by each excitation carrier,
//! low-pass filters the product to recover the impedance envelope, and
//! decimates to 450 Hz. The trace synthesiser works directly at baseband for
//! efficiency, but applies this module's low-pass filter so rendered pulses
//! carry the same bandwidth limits as the real instrument — and
//! [`LockInAmplifier::demodulate`] implements the genuine mix-and-filter
//! operation, used in tests to validate the baseband shortcut.

use medsen_units::Hertz;

/// A single-carrier lock-in channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockInAmplifier {
    /// Low-pass cut-off of the output filter (paper: 120 Hz).
    pub cutoff: Hertz,
    /// Output sampling rate (paper: 450 Hz).
    pub sample_rate: Hertz,
}

impl LockInAmplifier {
    /// The paper's output stage: 120 Hz cut-off, 450 Hz sampling.
    pub fn paper_default() -> Self {
        Self {
            cutoff: Hertz::new(120.0),
            sample_rate: Hertz::new(450.0),
        }
    }

    /// Creates a lock-in stage.
    ///
    /// # Panics
    ///
    /// Panics if the cut-off violates Nyquist for the output rate.
    pub fn new(cutoff: Hertz, sample_rate: Hertz) -> Self {
        assert!(
            cutoff.value() < sample_rate.value() / 2.0,
            "cut-off must be below Nyquist"
        );
        Self {
            cutoff,
            sample_rate,
        }
    }

    /// Single-pole IIR smoothing coefficient for a given processing rate.
    fn alpha(&self, rate: Hertz) -> f64 {
        let dt = 1.0 / rate.value();
        let rc = 1.0 / (2.0 * core::f64::consts::PI * self.cutoff.value());
        dt / (rc + dt)
    }

    /// Applies the output low-pass filter in place at the output rate.
    ///
    /// Uses a forward+backward pass (zero-phase) so filtered peaks stay
    /// centred on their true transit times, as the instrument's symmetric
    /// FIR decimation filters do.
    pub fn filter(&self, samples: &mut [f64]) {
        self.filter_at_rate(samples, self.sample_rate);
    }

    /// Applies the low-pass filter in place for data sampled at `rate`.
    pub fn filter_at_rate(&self, samples: &mut [f64], rate: Hertz) {
        if samples.is_empty() {
            return;
        }
        let alpha = self.alpha(rate);
        // Forward pass.
        let mut y = samples[0];
        for s in samples.iter_mut() {
            y += alpha * (*s - y);
            *s = y;
        }
        // Backward pass (zero phase).
        let mut y = *samples.last().expect("non-empty");
        for s in samples.iter_mut().rev() {
            y += alpha * (*s - y);
            *s = y;
        }
    }

    /// Full demodulation: mixes a raw modulated waveform (sampled at
    /// `raw_rate`) with the `carrier`, low-pass filters the product, and
    /// decimates to the output rate. Returns the recovered envelope,
    /// normalized so a constant unit envelope demodulates to ≈ 1.0.
    ///
    /// # Panics
    ///
    /// Panics if the carrier is not well below the raw Nyquist rate.
    pub fn demodulate(&self, raw: &[f64], raw_rate: Hertz, carrier: Hertz) -> Vec<f64> {
        assert!(
            carrier.value() * 2.5 < raw_rate.value(),
            "carrier must be well below the raw Nyquist rate"
        );
        // Mix: multiply by the in-phase carrier; the DC term of the product
        // is envelope/2, so scale by 2.
        let mut mixed: Vec<f64> = raw
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let t = i as f64 / raw_rate.value();
                2.0 * s * (carrier.angular() * t).sin()
            })
            .collect();
        // Filter at the raw rate (removes the 2f image), twice for stronger
        // image rejection.
        self.filter_at_rate(&mut mixed, raw_rate);
        self.filter_at_rate(&mut mixed, raw_rate);
        // Decimate to the output rate.
        let step = (raw_rate.value() / self.sample_rate.value())
            .round()
            .max(1.0) as usize;
        mixed.iter().step_by(step).copied().collect()
    }
}

impl Default for LockInAmplifier {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_preserves_dc() {
        let li = LockInAmplifier::paper_default();
        let mut x = vec![1.0; 500];
        li.filter(&mut x);
        assert!(x.iter().all(|&v| (v - 1.0).abs() < 1e-9));
    }

    #[test]
    fn filter_attenuates_fast_wiggle_more_than_slow() {
        let li = LockInAmplifier::paper_default();
        let rate = 450.0;
        let amp_after = |f: f64| {
            let mut x: Vec<f64> = (0..2000)
                .map(|i| (2.0 * core::f64::consts::PI * f * i as f64 / rate).sin())
                .collect();
            li.filter(&mut x);
            x[500..1500].iter().fold(0.0f64, |m, &v| m.max(v.abs()))
        };
        let slow = amp_after(10.0);
        let fast = amp_after(200.0);
        assert!(slow > 0.9, "slow {slow}");
        assert!(fast < 0.55 * slow, "fast {fast}, slow {slow}");
    }

    #[test]
    fn filter_widens_sharp_pulse_to_lpf_limit() {
        let li = LockInAmplifier::paper_default();
        let mut x = vec![0.0; 450];
        x[225] = 1.0; // one-sample impulse
        li.filter(&mut x);
        // Energy spreads over ≈ 1/(2·120 Hz) ≈ 4 ms ≈ 2 samples each side.
        let above: usize = x.iter().filter(|&&v| v > 0.05).count();
        assert!(above >= 2, "impulse did not spread: {above}");
        assert!(x[225] < 1.0);
    }

    #[test]
    fn demodulate_recovers_constant_envelope() {
        let li = LockInAmplifier::paper_default();
        let raw_rate = Hertz::from_khz(90.0);
        let carrier = Hertz::from_khz(20.0);
        let raw: Vec<f64> = (0..9000)
            .map(|i| {
                let t = i as f64 / raw_rate.value();
                (carrier.angular() * t).sin()
            })
            .collect();
        let env = li.demodulate(&raw, raw_rate, carrier);
        let mid = &env[env.len() / 4..3 * env.len() / 4];
        let mean = mid.iter().sum::<f64>() / mid.len() as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean envelope {mean}");
    }

    #[test]
    fn demodulate_tracks_amplitude_dip() {
        // A 20 % dip in carrier amplitude must appear in the demodulated
        // envelope — this validates the synthesiser's baseband shortcut.
        let li = LockInAmplifier::paper_default();
        let raw_rate = Hertz::from_khz(90.0);
        let carrier = Hertz::from_khz(20.0);
        let n = 18_000; // 0.2 s
        let raw: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / raw_rate.value();
                let envelope = if (0.08..0.12).contains(&t) { 0.8 } else { 1.0 };
                envelope * (carrier.angular() * t).sin()
            })
            .collect();
        let env = li.demodulate(&raw, raw_rate, carrier);
        let dip = env
            .iter()
            .skip(10)
            .take(env.len() - 20)
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(dip < 0.9, "dip {dip}");
        assert!(dip > 0.7, "dip {dip}");
    }

    #[test]
    #[should_panic(expected = "below Nyquist")]
    fn rejects_cutoff_above_nyquist() {
        let _ = LockInAmplifier::new(Hertz::new(300.0), Hertz::new(450.0));
    }

    #[test]
    fn filter_handles_empty_input() {
        let li = LockInAmplifier::paper_default();
        let mut x: Vec<f64> = vec![];
        li.filter(&mut x);
        assert!(x.is_empty());
    }
}
