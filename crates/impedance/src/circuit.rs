//! The Fig. 3 equivalent circuit of a co-planar electrode pair.
//!
//! "The sensing electrode pair in the microfluidic channel can be modeled as
//! a series of capacitors and resistors": the electrode–electrolyte interface
//! forms a double-layer capacitance at each electrode, in series with the
//! resistance of the fluid column between the electrodes. At low frequency
//! (< 10 kHz) the capacitive reactance dominates and the measured impedance
//! is in the MΩ range; above ~100 kHz the capacitors short out and the
//! (particle-sensitive) ionic resistance dominates — which is why the paper
//! operates its carriers at 500 kHz and above.

use medsen_units::{Farads, Hertz, Micrometers, Ohms};

/// Which circuit element dominates the measured impedance at a frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Reactance of the double layer dominates (low frequency, MΩ scale).
    CapacitanceDominated,
    /// Ionic solution resistance dominates (high frequency) — the operating
    /// regime for particle detection.
    ResistanceDominated,
}

/// Series R–C model of one electrode pair bridged by electrolyte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectrodeCircuit {
    /// Ionic resistance of the fluid between the electrodes.
    pub solution_resistance: Ohms,
    /// Effective series double-layer capacitance (two interfaces in series).
    pub double_layer: Farads,
}

impl ElectrodeCircuit {
    /// Parameters representative of the paper's 20 µm gold electrodes in
    /// PBS 0.9 %: ≈ 50 kΩ solution resistance, ≈ 0.15 nF effective
    /// double-layer capacitance. These put the regime crossover near 21 kHz,
    /// consistent with the paper's "< 10 kHz capacitive / > 100 kHz
    /// resistive" description.
    pub fn paper_default() -> Self {
        Self {
            solution_resistance: Ohms::new(50_000.0),
            double_layer: Farads::from_nanofarads(0.15),
        }
    }

    /// Impedance magnitude |Z| = √(R² + (1/ωC)²) at frequency `f`.
    pub fn impedance_at(&self, f: Hertz) -> Ohms {
        let xc = self.double_layer.reactance_at(f).value();
        let r = self.solution_resistance.value();
        Ohms::new((r * r + xc * xc).sqrt())
    }

    /// The dominating element at frequency `f`.
    pub fn regime_at(&self, f: Hertz) -> Regime {
        if self.double_layer.reactance_at(f).value() > self.solution_resistance.value() {
            Regime::CapacitanceDominated
        } else {
            Regime::ResistanceDominated
        }
    }

    /// Crossover frequency where reactance equals resistance.
    pub fn crossover(&self) -> Hertz {
        Hertz::new(
            1.0 / (2.0
                * core::f64::consts::PI
                * self.solution_resistance.value()
                * self.double_layer.value()),
        )
    }

    /// Relative resistance perturbation ΔR/R caused by an insulating sphere
    /// of diameter `d` occluding a pore of the given cross-section and
    /// sensing length (Maxwell's approximation: ΔR/R ≈ d³ / (A·L)).
    pub fn occlusion_contrast(
        &self,
        d: Micrometers,
        pore_width: Micrometers,
        pore_height: Micrometers,
        sensing_length: Micrometers,
    ) -> f64 {
        let volume = d.value().powi(3);
        let sensed_volume = pore_width.area(pore_height) * sensing_length.value();
        volume / sensed_volume
    }

    /// Fraction of the excitation voltage change visible at the lock-in for
    /// a resistance perturbation ΔR/R at carrier frequency `f`. In the
    /// resistive regime this approaches ΔR/R; deep in the capacitive regime
    /// the perturbation is hidden behind the reactance.
    pub fn sensitivity_at(&self, f: Hertz) -> f64 {
        let r = self.solution_resistance.value();
        let z = self.impedance_at(f).value();
        (r / z).powi(2)
    }
}

impl Default for ElectrodeCircuit {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_frequency_is_capacitive_and_megaohm_scale() {
        let c = ElectrodeCircuit::paper_default();
        let f = Hertz::from_khz(1.0);
        assert_eq!(c.regime_at(f), Regime::CapacitanceDominated);
        assert!(c.impedance_at(f).to_megaohms() > 1.0);
    }

    #[test]
    fn high_frequency_is_resistive() {
        let c = ElectrodeCircuit::paper_default();
        let f = Hertz::from_khz(500.0);
        assert_eq!(c.regime_at(f), Regime::ResistanceDominated);
        // |Z| collapses to ≈ R.
        let z = c.impedance_at(f).value();
        assert!((z - 50_000.0) / 50_000.0 < 0.01);
    }

    #[test]
    fn crossover_sits_between_10_and_100_khz() {
        // Matches the paper's "<10 kHz capacitive, >100 kHz resistive" bands.
        let c = ElectrodeCircuit::paper_default();
        let fx = c.crossover().value();
        assert!(fx > 1.0e4 && fx < 1.0e5, "crossover {fx}");
    }

    #[test]
    fn impedance_decreases_with_frequency() {
        let c = ElectrodeCircuit::paper_default();
        let freqs = [1e3, 1e4, 1e5, 1e6, 4e6];
        let zs: Vec<f64> = freqs
            .iter()
            .map(|&f| c.impedance_at(Hertz::new(f)).value())
            .collect();
        assert!(zs.windows(2).all(|w| w[1] < w[0]), "{zs:?}");
    }

    #[test]
    fn occlusion_contrast_scales_with_volume() {
        let c = ElectrodeCircuit::paper_default();
        let w = Micrometers::new(30.0);
        let h = Micrometers::new(20.0);
        let l = Micrometers::new(45.0);
        let small = c.occlusion_contrast(Micrometers::new(3.58), w, h, l);
        let big = c.occlusion_contrast(Micrometers::new(7.8), w, h, l);
        let expected = (7.8f64 / 3.58).powi(3);
        assert!((big / small - expected).abs() < 1e-9);
    }

    #[test]
    fn occlusion_contrast_is_sub_percent_for_beads() {
        // A 7.8 µm bead in the paper's pore perturbs R by ~1–2 %.
        let c = ElectrodeCircuit::paper_default();
        let contrast = c.occlusion_contrast(
            Micrometers::new(7.8),
            Micrometers::new(30.0),
            Micrometers::new(20.0),
            Micrometers::new(45.0),
        );
        assert!(contrast > 0.005 && contrast < 0.03, "contrast {contrast}");
    }

    #[test]
    fn sensitivity_saturates_at_high_frequency() {
        let c = ElectrodeCircuit::paper_default();
        let s_low = c.sensitivity_at(Hertz::from_khz(1.0));
        let s_mid = c.sensitivity_at(Hertz::from_khz(100.0));
        let s_high = c.sensitivity_at(Hertz::from_mhz(2.0));
        assert!(s_low < s_mid && s_mid < s_high);
        assert!(s_high > 0.99);
        assert!(s_low < 0.01);
    }
}
