//! Mixing cyto-coded password beads into a patient sample.
//!
//! "Each password consists of a specific secret ratio of micron-sized
//! synthetic beads, that will be mixed with individual's blood sample"
//! (Sec. I). This module is the wet-lab half of the password scheme: given a
//! list of [`BeadDose`]s it produces the sample the sensor will actually see.
//! The symbolic password machinery itself lives in `medsen-core`.

use crate::particle::ParticleKind;
use crate::sample::SampleSpec;
use medsen_units::Concentration;

/// A dose of one bead type, expressed as a concentration in the final sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeadDose {
    /// The synthetic bead species.
    pub kind: ParticleKind,
    /// Target concentration in the mixed sample.
    pub concentration: Concentration,
}

/// Errors from password mixing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixError {
    /// A dose used a non-bead species (blood cells cannot be dosed).
    NotAPasswordBead(ParticleKind),
    /// A dose had a non-positive concentration.
    NonPositiveDose(ParticleKind),
}

impl core::fmt::Display for MixError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MixError::NotAPasswordBead(kind) => {
                write!(f, "`{kind}` is not a synthetic password bead")
            }
            MixError::NonPositiveDose(kind) => {
                write!(f, "dose of `{kind}` must have positive concentration")
            }
        }
    }
}

impl std::error::Error for MixError {}

/// Mixes password beads into `sample`, returning the authenticated sample.
///
/// # Errors
///
/// Returns [`MixError::NotAPasswordBead`] if any dose names a biological
/// species and [`MixError::NonPositiveDose`] for empty doses.
///
/// # Examples
///
/// ```
/// use medsen_microfluidics::{mix_password_beads, BeadDose, ParticleKind, SampleSpec};
/// use medsen_units::{Concentration, Microliters};
///
/// let blood = SampleSpec::whole_blood_dilution(Microliters::new(0.01), 200.0);
/// let doses = [
///     BeadDose { kind: ParticleKind::Bead358, concentration: Concentration::new(120.0) },
///     BeadDose { kind: ParticleKind::Bead78, concentration: Concentration::new(60.0) },
/// ];
/// let mixed = mix_password_beads(&blood, &doses)?;
/// assert_eq!(mixed.concentration_of(ParticleKind::Bead78).value(), 60.0);
/// # Ok::<(), medsen_microfluidics::mixing::MixError>(())
/// ```
pub fn mix_password_beads(sample: &SampleSpec, doses: &[BeadDose]) -> Result<SampleSpec, MixError> {
    for dose in doses {
        if !dose.kind.is_password_bead() {
            return Err(MixError::NotAPasswordBead(dose.kind));
        }
        if dose.concentration.value() <= 0.0 {
            return Err(MixError::NonPositiveDose(dose.kind));
        }
    }
    let mut mixed = sample.clone();
    for dose in doses {
        mixed.add(dose.kind, dose.concentration);
    }
    Ok(mixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_units::Microliters;

    #[test]
    fn mixing_adds_bead_components() {
        let blood = SampleSpec::whole_blood_dilution(Microliters::new(0.01), 100.0);
        let mixed = mix_password_beads(
            &blood,
            &[BeadDose {
                kind: ParticleKind::Bead358,
                concentration: Concentration::new(500.0),
            }],
        )
        .unwrap();
        assert_eq!(mixed.concentration_of(ParticleKind::Bead358).value(), 500.0);
        // Blood composition untouched.
        assert_eq!(
            mixed.concentration_of(ParticleKind::RedBloodCell).value(),
            blood.concentration_of(ParticleKind::RedBloodCell).value()
        );
    }

    #[test]
    fn rejects_biological_species_as_password() {
        let blood = SampleSpec::buffer(Microliters::new(0.01));
        let err = mix_password_beads(
            &blood,
            &[BeadDose {
                kind: ParticleKind::WhiteBloodCell,
                concentration: Concentration::new(10.0),
            }],
        )
        .unwrap_err();
        assert_eq!(
            err,
            MixError::NotAPasswordBead(ParticleKind::WhiteBloodCell)
        );
    }

    #[test]
    fn rejects_zero_dose() {
        let blood = SampleSpec::buffer(Microliters::new(0.01));
        let err = mix_password_beads(
            &blood,
            &[BeadDose {
                kind: ParticleKind::Bead78,
                concentration: Concentration::ZERO,
            }],
        )
        .unwrap_err();
        assert_eq!(err, MixError::NonPositiveDose(ParticleKind::Bead78));
    }

    #[test]
    fn original_sample_is_not_mutated() {
        let blood = SampleSpec::buffer(Microliters::new(0.01));
        let _ = mix_password_beads(
            &blood,
            &[BeadDose {
                kind: ParticleKind::Bead78,
                concentration: Concentration::new(5.0),
            }],
        )
        .unwrap();
        assert_eq!(blood.concentration_of(ParticleKind::Bead78).value(), 0.0);
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert!(MixError::NotAPasswordBead(ParticleKind::Platelet)
            .to_string()
            .contains("not a synthetic password bead"));
    }
}
