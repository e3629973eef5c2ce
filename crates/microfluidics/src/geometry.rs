//! Channel geometry from Fig. 6 and the fabrication section.
//!
//! The measurement pore is a 30 µm-wide, 20 µm-high, 500 µm-long constriction
//! flanked by wide dispersion regions; electrodes are 20 µm wide on a 25 µm
//! pitch, so one electrode pair spans 45 µm of travel.

use medsen_units::{Microliters, Micrometers};

/// Errors raised when constructing an invalid channel geometry.
#[derive(Debug, Clone, PartialEq)]
pub enum GeometryError {
    /// A required dimension was zero or negative.
    NonPositiveDimension(&'static str),
    /// The pore is too small to pass the largest supported particle.
    PoreTooNarrow {
        /// The offending pore height/width in µm.
        pore_um: f64,
        /// The largest particle diameter that must fit, in µm.
        particle_um: f64,
    },
}

impl core::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GeometryError::NonPositiveDimension(name) => {
                write!(f, "channel dimension `{name}` must be positive")
            }
            GeometryError::PoreTooNarrow {
                pore_um,
                particle_um,
            } => write!(
                f,
                "pore dimension {pore_um} µm cannot pass a {particle_um} µm particle"
            ),
        }
    }
}

impl std::error::Error for GeometryError {}

/// The microfluidic channel's physical dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelGeometry {
    /// Measurement-pore width (paper: 30 µm).
    pub pore_width: Micrometers,
    /// Measurement-pore height, set by the SU-8 mold (paper: 20 µm).
    pub pore_height: Micrometers,
    /// Measurement-pore length (paper: 500 µm).
    pub pore_length: Micrometers,
    /// Electrode strip width (paper: 20 µm).
    pub electrode_width: Micrometers,
    /// Electrode pitch, centre to centre (paper: 25 µm).
    pub electrode_pitch: Micrometers,
    /// Depth of the inlet well that particles can sediment out of.
    pub inlet_well_depth: Micrometers,
}

impl ChannelGeometry {
    /// The geometry fabricated in the paper.
    pub fn paper_default() -> Self {
        Self {
            pore_width: Micrometers::new(30.0),
            pore_height: Micrometers::new(20.0),
            pore_length: Micrometers::new(500.0),
            electrode_width: Micrometers::new(20.0),
            electrode_pitch: Micrometers::new(25.0),
            inlet_well_depth: Micrometers::new(3000.0),
        }
    }

    /// Validates the dimensions and the ability to pass particles up to
    /// `max_particle` in diameter.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::NonPositiveDimension`] for zero/negative
    /// dimensions and [`GeometryError::PoreTooNarrow`] when the smallest pore
    /// dimension cannot pass `max_particle`.
    pub fn validate(&self, max_particle: Micrometers) -> Result<(), GeometryError> {
        let checks = [
            (self.pore_width, "pore_width"),
            (self.pore_height, "pore_height"),
            (self.pore_length, "pore_length"),
            (self.electrode_width, "electrode_width"),
            (self.electrode_pitch, "electrode_pitch"),
            (self.inlet_well_depth, "inlet_well_depth"),
        ];
        for (dim, name) in checks {
            if dim.value() <= 0.0 {
                return Err(GeometryError::NonPositiveDimension(name));
            }
        }
        let min_pore = self.pore_width.min(self.pore_height);
        if max_particle.value() >= min_pore.value() {
            return Err(GeometryError::PoreTooNarrow {
                pore_um: min_pore.value(),
                particle_um: max_particle.value(),
            });
        }
        Ok(())
    }

    /// Pore cross-sectional area in µm².
    pub fn cross_section(&self) -> f64 {
        self.pore_width.area(self.pore_height)
    }

    /// Total pore volume.
    pub fn pore_volume(&self) -> Microliters {
        Microliters::from_cubic_micrometers(self.cross_section() * self.pore_length.value())
    }

    /// Length of channel over which one electrode pair senses a particle:
    /// one pitch plus two half-electrodes (paper Sec. VII-A: 45 µm).
    pub fn sensing_span(&self) -> Micrometers {
        self.electrode_pitch + self.electrode_width
    }

    /// Distance between the first and last electrode of an `n_outputs`-output
    /// sensing region. Governs how often two particles occupy the region
    /// simultaneously (the coincidence problem in Sec. IV-A).
    pub fn array_span(&self, n_outputs: usize) -> Micrometers {
        if n_outputs == 0 {
            return Micrometers::ZERO;
        }
        // Each output electrode sits between input electrodes on the common
        // rake; the full region alternates input/output strips on one pitch.
        let strips = 2 * n_outputs + 1;
        Micrometers::new(strips as f64 * self.electrode_pitch.value()) + self.electrode_width
    }

    /// Whether a particle of diameter `d` effectively singulates (only one
    /// fits across the pore width at a time). A 30 µm pore singulates all
    /// blood-scale particles.
    pub fn singulates(&self, d: Micrometers) -> bool {
        2.0 * d.value() > self.pore_width.value().min(self.pore_height.value())
            || d.value() > 0.25 * self.pore_width.value()
    }
}

impl Default for ChannelGeometry {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_is_valid_for_all_particles() {
        let g = ChannelGeometry::paper_default();
        assert!(g.validate(Micrometers::new(12.0)).is_ok());
    }

    #[test]
    fn sensing_span_is_45_micrometers() {
        // Sec. VII-A: "the distance each bead travels through a pair of
        // electrodes ... is 45 µm (25 µm pitch, and 20 µm of two halves)".
        let g = ChannelGeometry::paper_default();
        assert_eq!(g.sensing_span().value(), 45.0);
    }

    #[test]
    fn pore_volume_matches_hand_calculation() {
        let g = ChannelGeometry::paper_default();
        // 30 × 20 × 500 µm³ = 3 × 10⁵ µm³ = 0.3 nL = 3 × 10⁻⁴ µL.
        let v = g.pore_volume();
        assert!((v.value() - 3.0e-4).abs() < 1e-12, "{v}");
    }

    #[test]
    fn rejects_zero_dimension() {
        let mut g = ChannelGeometry::paper_default();
        g.pore_width = Micrometers::ZERO;
        assert_eq!(
            g.validate(Micrometers::new(1.0)),
            Err(GeometryError::NonPositiveDimension("pore_width"))
        );
    }

    #[test]
    fn rejects_oversized_particle() {
        let g = ChannelGeometry::paper_default();
        let err = g.validate(Micrometers::new(25.0)).unwrap_err();
        assert!(matches!(err, GeometryError::PoreTooNarrow { .. }));
        assert!(err.to_string().contains("cannot pass"));
    }

    #[test]
    fn array_span_grows_with_output_count() {
        let g = ChannelGeometry::paper_default();
        let s2 = g.array_span(2);
        let s9 = g.array_span(9);
        assert!(s9.value() > s2.value());
        assert_eq!(g.array_span(0).value(), 0.0);
    }

    #[test]
    fn blood_cells_singulate_in_paper_pore() {
        let g = ChannelGeometry::paper_default();
        assert!(g.singulates(Micrometers::new(10.0)));
        assert!(g.singulates(Micrometers::new(7.8)));
    }
}
