//! Sample composition: what is inside the mini-pipette.
//!
//! A MedSen test draws < 0.01 mL of blood, dilutes it in PBS 0.9 % (the
//! buffer used throughout the evaluation), and — for authenticated tests —
//! mixes in the user's cyto-coded password beads.

use crate::particle::ParticleKind;
use medsen_units::{Concentration, Microliters};

/// One species at one concentration inside a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleComponent {
    /// The particle species.
    pub kind: ParticleKind,
    /// Concentration in the final (post-dilution) sample.
    pub concentration: Concentration,
}

/// A fully specified pipette load.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSpec {
    /// Total liquid volume.
    pub volume: Microliters,
    /// All particle species present.
    components: Vec<SampleComponent>,
}

impl SampleSpec {
    /// An empty buffer-only sample (pure PBS).
    pub fn buffer(volume: Microliters) -> Self {
        Self {
            volume,
            components: Vec::new(),
        }
    }

    /// Whole blood diluted `dilution`-fold into PBS.
    ///
    /// Undiluted blood carries ≈ 5 × 10⁶ RBC/µL, ≈ 7 × 10³ WBC/µL and
    /// ≈ 3 × 10⁵ platelets/µL; impedance cytometry needs strong dilution to
    /// singulate particles.
    ///
    /// # Panics
    ///
    /// Panics if `dilution < 1`.
    pub fn whole_blood_dilution(volume: Microliters, dilution: f64) -> Self {
        assert!(dilution >= 1.0, "dilution must be >= 1");
        let mut s = Self::buffer(volume);
        s.add(
            ParticleKind::RedBloodCell,
            Concentration::new(5.0e6).diluted(dilution),
        );
        s.add(
            ParticleKind::WhiteBloodCell,
            Concentration::new(7.0e3).diluted(dilution),
        );
        s.add(
            ParticleKind::Platelet,
            Concentration::new(3.0e5).diluted(dilution),
        );
        s
    }

    /// A bead-only calibration sample, as used in Figs. 12–13.
    pub fn bead_calibration(volume: Microliters, kind: ParticleKind, c: Concentration) -> Self {
        let mut s = Self::buffer(volume);
        s.add(kind, c);
        s
    }

    /// Adds (or tops up) a species.
    pub fn add(&mut self, kind: ParticleKind, concentration: Concentration) -> &mut Self {
        if let Some(existing) = self.components.iter_mut().find(|c| c.kind == kind) {
            existing.concentration += concentration;
        } else {
            self.components.push(SampleComponent {
                kind,
                concentration,
            });
        }
        self
    }

    /// Concentration of one species (zero when absent).
    pub fn concentration_of(&self, kind: ParticleKind) -> Concentration {
        self.components
            .iter()
            .find(|c| c.kind == kind)
            .map(|c| c.concentration)
            .unwrap_or(Concentration::ZERO)
    }

    /// All components.
    pub fn components(&self) -> &[SampleComponent] {
        &self.components
    }

    /// Expected (mean) particle count of one species in the full volume.
    pub fn expected_count(&self, kind: ParticleKind) -> f64 {
        self.concentration_of(kind).expected_count(self.volume)
    }

    /// Expected total particle count across all species.
    pub fn expected_total(&self) -> f64 {
        self.components
            .iter()
            .map(|c| c.concentration.expected_count(self.volume))
            .sum()
    }

    /// Total event rate (particles/s) when pumped at a volumetric rate that
    /// processes the sample in `total_seconds`.
    pub fn event_rate(&self, total_seconds: f64) -> f64 {
        assert!(total_seconds > 0.0, "duration must be positive");
        self.expected_total() / total_seconds
    }

    /// Further dilutes every component by `factor` (volume unchanged —
    /// models drawing an aliquot into more buffer).
    pub fn diluted(&self, factor: f64) -> Self {
        Self {
            volume: self.volume,
            components: self
                .components
                .iter()
                .map(|c| SampleComponent {
                    kind: c.kind,
                    concentration: c.concentration.diluted(factor),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blood_dilution_scales_all_species() {
        let s = SampleSpec::whole_blood_dilution(Microliters::new(0.01), 100.0);
        assert_eq!(
            s.concentration_of(ParticleKind::RedBloodCell).value(),
            5.0e4
        );
        assert_eq!(
            s.concentration_of(ParticleKind::WhiteBloodCell).value(),
            70.0
        );
    }

    #[test]
    fn add_merges_same_species() {
        let mut s = SampleSpec::buffer(Microliters::new(1.0));
        s.add(ParticleKind::Bead78, Concentration::new(100.0));
        s.add(ParticleKind::Bead78, Concentration::new(50.0));
        assert_eq!(s.components().len(), 1);
        assert_eq!(s.concentration_of(ParticleKind::Bead78).value(), 150.0);
    }

    #[test]
    fn absent_species_has_zero_concentration() {
        let s = SampleSpec::buffer(Microliters::new(1.0));
        assert_eq!(s.concentration_of(ParticleKind::Bead358).value(), 0.0);
    }

    #[test]
    fn expected_counts() {
        let s = SampleSpec::bead_calibration(
            Microliters::new(2.0),
            ParticleKind::Bead358,
            Concentration::new(250.0),
        );
        assert_eq!(s.expected_count(ParticleKind::Bead358), 500.0);
        assert_eq!(s.expected_total(), 500.0);
    }

    #[test]
    fn event_rate_spreads_total_over_duration() {
        let s = SampleSpec::bead_calibration(
            Microliters::new(1.0),
            ParticleKind::Bead78,
            Concentration::new(600.0),
        );
        assert!((s.event_rate(300.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dilution_preserves_species_set() {
        let s = SampleSpec::whole_blood_dilution(Microliters::new(0.01), 10.0).diluted(5.0);
        assert_eq!(s.components().len(), 3);
        assert_eq!(
            s.concentration_of(ParticleKind::RedBloodCell).value(),
            1.0e5
        );
    }

    #[test]
    #[should_panic(expected = "dilution must be >= 1")]
    fn rejects_sub_unity_dilution() {
        let _ = SampleSpec::whole_blood_dilution(Microliters::new(0.01), 0.5);
    }
}
