//! Particle taxonomy: blood constituents and the synthetic password beads.
//!
//! The evaluation uses two MicroChem bead sizes — 7.8 µm and 3.58 µm —
//! "chosen as they approximate the dimension of various cells found in human
//! blood" (Sec. III-C), plus real blood cells. Section VI-B calibrates the
//! relative peak amplitudes: taking the 3.58 µm bead as the reference, blood
//! cells produce roughly 2× its amplitude and 7.8 µm beads roughly 4×.

use medsen_units::Micrometers;
use medsen_wire::json::unknown_variant;
use medsen_wire::{Json, JsonReader, JsonWriter, Reader, Wire, WireError, Writer};

/// Coarse particle classes used by server-side classification (Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParticleClass {
    /// A biological cell from the blood sample.
    Cell,
    /// A synthetic password bead.
    Bead,
}

/// Every particle species the simulated channel can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ParticleKind {
    /// 3.58 µm MicroChem synthetic bead — the paper's amplitude reference.
    Bead358,
    /// 7.8 µm MicroChem synthetic bead — ≈ 4× the reference amplitude.
    Bead78,
    /// A red blood cell (≈ 7 µm discoid; electrically ≈ 2× reference).
    RedBloodCell,
    /// A white blood cell (8–12 µm; the CD4 count target of HIV staging).
    WhiteBloodCell,
    /// A platelet (≈ 2.5 µm; small, often near the noise floor).
    Platelet,
}

impl ParticleKind {
    /// All kinds, in a stable order (useful for feature tables and tests).
    pub const ALL: [ParticleKind; 5] = [
        ParticleKind::Bead358,
        ParticleKind::Bead78,
        ParticleKind::RedBloodCell,
        ParticleKind::WhiteBloodCell,
        ParticleKind::Platelet,
    ];

    /// Nominal particle diameter.
    pub fn diameter(self) -> Micrometers {
        match self {
            ParticleKind::Bead358 => Micrometers::new(3.58),
            ParticleKind::Bead78 => Micrometers::new(7.8),
            ParticleKind::RedBloodCell => Micrometers::new(7.0),
            ParticleKind::WhiteBloodCell => Micrometers::new(10.0),
            ParticleKind::Platelet => Micrometers::new(2.5),
        }
    }

    /// Relative diameter spread (1 σ, fraction of diameter). Synthetic beads
    /// are monodisperse; cells vary more, which is what makes the Fig. 16
    /// blood-cell cluster wider than the bead clusters.
    pub fn diameter_cv(self) -> f64 {
        match self {
            ParticleKind::Bead358 | ParticleKind::Bead78 => 0.02,
            ParticleKind::RedBloodCell => 0.08,
            ParticleKind::WhiteBloodCell => 0.12,
            ParticleKind::Platelet => 0.15,
        }
    }

    /// Low-frequency (resistive-regime) peak amplitude relative to the
    /// 3.58 µm reference bead, per the Sec. VI-B calibration.
    pub fn relative_amplitude(self) -> f64 {
        match self {
            ParticleKind::Bead358 => 1.0,
            ParticleKind::Bead78 => 4.0,
            ParticleKind::RedBloodCell => 2.0,
            ParticleKind::WhiteBloodCell => 2.6,
            ParticleKind::Platelet => 0.35,
        }
    }

    /// High-frequency roll-off factor. Cell membranes become electrically
    /// transparent above ≈ 2 MHz (the β-dispersion), so "at the frequency of
    /// 2 MHz and higher, the blood cell has lower electrical impedance
    /// response comparing to ... synthetic beads" (Fig. 15). Solid polystyrene
    /// beads do not roll off.
    ///
    /// The returned value multiplies [`relative_amplitude`] at frequency `f_hz`.
    ///
    /// [`relative_amplitude`]: ParticleKind::relative_amplitude
    pub fn dispersion_factor(self, f_hz: f64) -> f64 {
        match self.class() {
            ParticleClass::Bead => 1.0,
            ParticleClass::Cell => {
                // Single-pole roll-off centred at ~1.2 MHz: at 500 kHz a cell
                // keeps ~92% of its low-frequency contrast, at 2.5 MHz ~43%,
                // at 4 MHz ~29%.
                let fc = 1.2e6;
                1.0 / (1.0 + (f_hz / fc).powi(2)).sqrt()
            }
        }
    }

    /// Phase angle φ(f) of the single-pole membrane response at `f_hz`,
    /// in radians, as a non-negative magnitude: `atan(f / fc)` for cells,
    /// 0 for solid beads. Together with [`dispersion_factor`] (= cos φ)
    /// this fully determines the complex dip response
    /// `H(f) = cos φ · e^{-jφ}` a phase-sensitive (I/Q) lock-in sees.
    ///
    /// [`dispersion_factor`]: ParticleKind::dispersion_factor
    pub fn dispersion_phase(self, f_hz: f64) -> f64 {
        match self.class() {
            ParticleClass::Bead => 0.0,
            ParticleClass::Cell => (f_hz / 1.2e6).atan(),
        }
    }

    /// Whether this species is a biological cell or a synthetic bead.
    pub fn class(self) -> ParticleClass {
        match self {
            ParticleKind::Bead358 | ParticleKind::Bead78 => ParticleClass::Bead,
            _ => ParticleClass::Cell,
        }
    }

    /// Whether the species can be used as a password symbol. Only synthetic
    /// beads qualify: their counts are controlled by the pipette manufacturer
    /// rather than the patient's physiology.
    pub fn is_password_bead(self) -> bool {
        self.class() == ParticleClass::Bead
    }

    /// Stokes sedimentation velocity (µm/s) in PBS, used by [`LossModel`] —
    /// `v = g·d²·Δρ / 18µ`. Larger beads sink faster, which is why the paper
    /// reports that "many beads sink to the bottom of the inlet well and never
    /// make it to the sensor" and why losses grow with run time.
    ///
    /// [`LossModel`]: crate::losses::LossModel
    pub fn sedimentation_velocity(self) -> f64 {
        let d = self.diameter().to_meters();
        // Density contrast vs PBS (kg/m³): polystyrene ≈ 50, cells ≈ 60–90.
        let delta_rho = match self.class() {
            ParticleClass::Bead => 50.0,
            ParticleClass::Cell => 80.0,
        };
        let g = 9.81;
        let mu = 1.0e-3; // Pa·s, water-like buffer
        let v_m_per_s = g * d * d * delta_rho / (18.0 * mu);
        v_m_per_s * 1e6 // µm/s
    }

    /// Probability that a single particle adheres to the channel wall during
    /// one pass ("beads being adsorbed to microfluidic channel walls",
    /// Sec. VII-B). Hydrophilic-treated PDMS keeps this small.
    pub fn adsorption_probability(self) -> f64 {
        match self.class() {
            ParticleClass::Bead => 0.03,
            ParticleClass::Cell => 0.05,
        }
    }

    /// Human-readable label used in reports and figure output.
    pub fn label(self) -> &'static str {
        match self {
            ParticleKind::Bead358 => "3.58um bead",
            ParticleKind::Bead78 => "7.8um bead",
            ParticleKind::RedBloodCell => "red blood cell",
            ParticleKind::WhiteBloodCell => "white blood cell",
            ParticleKind::Platelet => "platelet",
        }
    }

    /// The variant name, which is how JSON spells the kind (a bead
    /// signature's counts are keyed by it).
    pub fn name(self) -> &'static str {
        match self {
            ParticleKind::Bead358 => "Bead358",
            ParticleKind::Bead78 => "Bead78",
            ParticleKind::RedBloodCell => "RedBloodCell",
            ParticleKind::WhiteBloodCell => "WhiteBloodCell",
            ParticleKind::Platelet => "Platelet",
        }
    }

    /// The kind whose [`ParticleKind::name`] is `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

impl core::fmt::Display for ParticleKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

impl Wire for ParticleKind {
    fn wire_encode(&self, w: &mut Writer) {
        // Tags follow the `ALL` order and are frozen: they are part of
        // the cross-tier wire contract, not an implementation detail.
        w.put_u8(match self {
            ParticleKind::Bead358 => 0,
            ParticleKind::Bead78 => 1,
            ParticleKind::RedBloodCell => 2,
            ParticleKind::WhiteBloodCell => 3,
            ParticleKind::Platelet => 4,
        });
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(ParticleKind::Bead358),
            1 => Ok(ParticleKind::Bead78),
            2 => Ok(ParticleKind::RedBloodCell),
            3 => Ok(ParticleKind::WhiteBloodCell),
            4 => Ok(ParticleKind::Platelet),
            tag => Err(WireError::BadTag {
                what: "particle kind",
                tag,
            }),
        }
    }
}

impl Json for ParticleKind {
    fn json_encode(&self, w: &mut JsonWriter) {
        w.str(self.name());
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        r.variant(
            |name, payload| match (ParticleKind::from_name(name), payload) {
                (Some(kind), None) => Ok(kind),
                _ => Err(unknown_variant("particle kind", name)),
            },
        )
    }
}

/// One concrete particle instance flowing through the channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// The species.
    pub kind: ParticleKind,
    /// Actual diameter after manufacturing/biological variation.
    pub diameter: Micrometers,
}

impl Particle {
    /// A particle with the species' nominal diameter.
    pub fn nominal(kind: ParticleKind) -> Self {
        Self {
            kind,
            diameter: kind.diameter(),
        }
    }

    /// Volume-scaled amplitude factor: impedance contrast goes with particle
    /// volume (d³), so diameter jitter modulates the nominal relative
    /// amplitude cubically.
    pub fn amplitude_factor(self) -> f64 {
        let nominal = self.kind.diameter().value();
        let actual = self.diameter.value();
        self.kind.relative_amplitude() * (actual / nominal).powi(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_tags_are_frozen_and_round_trip() {
        for (tag, kind) in ParticleKind::ALL.iter().enumerate() {
            let mut w = Writer::new();
            kind.wire_encode(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(bytes, [tag as u8], "{kind}: tag drifted");
            let mut r = Reader::new(&bytes);
            assert_eq!(ParticleKind::wire_decode(&mut r), Ok(*kind));
        }
        let mut r = Reader::new(&[5]);
        assert!(ParticleKind::wire_decode(&mut r).is_err());
    }

    #[test]
    fn json_spells_each_kind_by_its_variant_name() {
        for kind in ParticleKind::ALL {
            let bytes =
                medsen_wire::WireCodec::encode(&medsen_wire::JsonWire, &kind).expect("encodes");
            assert_eq!(bytes, format!("\"{}\"", kind.name()).into_bytes());
            let back: ParticleKind =
                medsen_wire::WireCodec::decode(&medsen_wire::JsonWire, &bytes).expect("decodes");
            assert_eq!(back, kind);
        }
        for bad in [&br#""Bead""#[..], br#"{"Bead358":1}"#, b"2"] {
            let decoded: Result<ParticleKind, _> =
                medsen_wire::WireCodec::decode(&medsen_wire::JsonWire, bad);
            assert!(matches!(decoded, Err(WireError::Codec(_))), "{decoded:?}");
        }
    }

    #[test]
    fn amplitude_ordering_matches_paper_calibration() {
        // 7.8 µm ≈ 4×, blood cell ≈ 2×, 3.58 µm = 1× (Sec. VI-B).
        assert_eq!(ParticleKind::Bead358.relative_amplitude(), 1.0);
        assert_eq!(ParticleKind::RedBloodCell.relative_amplitude(), 2.0);
        assert_eq!(ParticleKind::Bead78.relative_amplitude(), 4.0);
    }

    #[test]
    fn cells_roll_off_at_high_frequency_but_beads_do_not() {
        let f = 2.5e6;
        assert_eq!(ParticleKind::Bead78.dispersion_factor(f), 1.0);
        let cell = ParticleKind::RedBloodCell.dispersion_factor(f);
        assert!(cell < 0.6, "cell factor at 2.5 MHz was {cell}");
    }

    #[test]
    fn cell_dispersion_is_monotonically_decreasing() {
        let freqs = [5e5, 8e5, 1e6, 2e6, 3e6, 4e6];
        let factors: Vec<f64> = freqs
            .iter()
            .map(|&f| ParticleKind::WhiteBloodCell.dispersion_factor(f))
            .collect();
        assert!(factors.windows(2).all(|w| w[1] < w[0]), "{factors:?}");
    }

    #[test]
    fn at_2mhz_cell_amplitude_falls_below_beads() {
        // Fig. 15: at ≥ 2 MHz the blood cell responds *below* both bead types
        // relative to its low-frequency amplitude ordering versus the large bead.
        let f = 2.0e6;
        let cell = ParticleKind::RedBloodCell.relative_amplitude()
            * ParticleKind::RedBloodCell.dispersion_factor(f);
        let big_bead =
            ParticleKind::Bead78.relative_amplitude() * ParticleKind::Bead78.dispersion_factor(f);
        assert!(cell < big_bead);
        // And the roll-off brings the cell close to the small-bead band.
        let small_bead = ParticleKind::Bead358.relative_amplitude();
        assert!(cell < 1.2 * small_bead + 0.5);
    }

    #[test]
    fn dispersion_phase_is_zero_for_beads_and_grows_for_cells() {
        assert_eq!(ParticleKind::Bead78.dispersion_phase(2.5e6), 0.0);
        assert_eq!(ParticleKind::Bead358.dispersion_phase(5.0e5), 0.0);
        let lo = ParticleKind::RedBloodCell.dispersion_phase(5.0e5);
        let hi = ParticleKind::RedBloodCell.dispersion_phase(4.0e6);
        assert!(lo > 0.0 && hi > lo);
        assert!(hi < core::f64::consts::FRAC_PI_2);
    }

    #[test]
    fn phase_and_magnitude_are_consistent() {
        // dispersion_factor must equal cos(dispersion_phase) — one pole.
        for f in [5e5, 1e6, 2.5e6, 4e6] {
            let kind = ParticleKind::WhiteBloodCell;
            let mag = kind.dispersion_factor(f);
            let phase = kind.dispersion_phase(f);
            assert!((mag - phase.cos()).abs() < 1e-12, "f={f}");
        }
    }

    #[test]
    fn sedimentation_scales_with_diameter_squared() {
        let v78 = ParticleKind::Bead78.sedimentation_velocity();
        let v358 = ParticleKind::Bead358.sedimentation_velocity();
        let expected_ratio = (7.8f64 / 3.58).powi(2);
        assert!((v78 / v358 - expected_ratio).abs() < 1e-9);
    }

    #[test]
    fn only_synthetic_beads_are_password_symbols() {
        assert!(ParticleKind::Bead358.is_password_bead());
        assert!(ParticleKind::Bead78.is_password_bead());
        assert!(!ParticleKind::RedBloodCell.is_password_bead());
        assert!(!ParticleKind::WhiteBloodCell.is_password_bead());
        assert!(!ParticleKind::Platelet.is_password_bead());
    }

    #[test]
    fn particle_amplitude_factor_is_cubic_in_diameter() {
        let mut p = Particle::nominal(ParticleKind::Bead358);
        p.diameter = Micrometers::new(3.58 * 2.0);
        assert!((p.amplitude_factor() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn beads_are_more_monodisperse_than_cells() {
        assert!(ParticleKind::Bead78.diameter_cv() < ParticleKind::RedBloodCell.diameter_cv());
    }

    #[test]
    fn display_labels() {
        assert_eq!(ParticleKind::Bead78.to_string(), "7.8um bead");
    }
}
