//! Multi-electrode sensing-region designs (Fig. 5).
//!
//! Each sensing region has one common excitation rake and `n` independent
//! output electrodes interleaved with it. The *lead* electrode (the lower
//! left one) is complemented by a single input electrode, so it responds with
//! one voltage dip per passing cell; every other output electrode is flanked
//! by excitation electrodes on both sides and responds with the
//! characteristic *double* dip. The fabricated prototype exposes this
//! asymmetry as its "ninth electrode" quirk (Sec. VII-A, limitation 1).

use medsen_microfluidics::ChannelGeometry;
use medsen_units::Micrometers;

/// A 1-based output-electrode identifier, as the paper numbers them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ElectrodeId(pub u8);

impl core::fmt::Display for ElectrodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "electrode {}", self.0)
    }
}

/// One sensing region's electrode layout.
///
/// # Examples
///
/// ```
/// use medsen_sensor::{ElectrodeArray, ElectrodeId};
///
/// // The fabricated 9-output prototype: the lead electrode single-dips,
/// // so all nine electrodes yield the Fig. 11d seventeen-peak train.
/// let array = ElectrodeArray::paper_prototype();
/// let all: Vec<ElectrodeId> = array.electrodes().collect();
/// assert_eq!(array.peak_multiplicity(&all), 17);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectrodeArray {
    n_outputs: u8,
    lead: ElectrodeId,
}

impl ElectrodeArray {
    /// The output-electrode counts fabricated in the paper (Fig. 5 shows
    /// 2/3/5/9; Sec. VI-B sizes the key for a 16-output device).
    pub const PAPER_DESIGNS: [u8; 5] = [2, 3, 5, 9, 16];

    /// Creates an array with `n_outputs` outputs whose lead electrode is the
    /// highest-numbered one, as in the Fig. 11 prototype ("the lead electrode
    /// (or electrode 9)").
    ///
    /// # Errors
    ///
    /// Fails for zero outputs or more than 16 (the MAX14661 mux limit).
    pub fn new(n_outputs: u8) -> Result<Self, String> {
        Self::with_lead(n_outputs, ElectrodeId(n_outputs))
    }

    /// Creates an array with an explicit lead electrode (the Fig. 8 device
    /// has its lead among electrodes 1–3).
    ///
    /// # Errors
    ///
    /// Fails for zero outputs, more than 16 outputs, or an out-of-range lead.
    pub fn with_lead(n_outputs: u8, lead: ElectrodeId) -> Result<Self, String> {
        if n_outputs == 0 {
            return Err("an electrode array needs at least one output".into());
        }
        if n_outputs > 16 {
            return Err("the 16:2 multiplexer supports at most 16 outputs".into());
        }
        if lead.0 == 0 || lead.0 > n_outputs {
            return Err(format!(
                "lead electrode {} out of range 1..={n_outputs}",
                lead.0
            ));
        }
        Ok(Self { n_outputs, lead })
    }

    /// The paper's 9-output prototype (lead = electrode 9).
    pub fn paper_prototype() -> Self {
        Self::new(9).expect("9 outputs is a valid design")
    }

    /// Number of output electrodes.
    pub fn n_outputs(&self) -> u8 {
        self.n_outputs
    }

    /// The lead electrode.
    pub fn lead(&self) -> ElectrodeId {
        self.lead
    }

    /// All electrode ids, 1-based.
    pub fn electrodes(&self) -> impl Iterator<Item = ElectrodeId> {
        (1..=self.n_outputs).map(ElectrodeId)
    }

    /// Dips one passing particle produces on electrode `e`: 1 on the lead,
    /// 2 elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn dips_per_particle(&self, e: ElectrodeId) -> usize {
        assert!(
            e.0 >= 1 && e.0 <= self.n_outputs,
            "electrode {e} out of range"
        );
        if e == self.lead {
            1
        } else {
            2
        }
    }

    /// Total dips per particle when the given electrodes are active — the
    /// cipher's *peak multiplication factor*. Fig. 11d: all nine outputs of
    /// the prototype yield 8 × 2 + 1 = 17 peaks per bead.
    pub fn peak_multiplicity(&self, active: &[ElectrodeId]) -> usize {
        active.iter().map(|&e| self.dips_per_particle(e)).sum()
    }

    /// Spacing between consecutive output electrodes' sensing regions, in
    /// electrode pitches. Fig. 5 spreads the sensing regions along the
    /// channel; generous spacing is also the hardening the paper suggests for
    /// its limitation 2 (adjacent regions blur one particle's dips together).
    pub const REGION_PITCH_SPACING: f64 = 8.0;

    /// Downstream position of electrode `e`'s sensing gap along the channel.
    /// Electrode 1 is the furthest downstream in the numbering of Fig. 11
    /// (the lead, highest-numbered, is hit first).
    pub fn position(&self, e: ElectrodeId, geometry: &ChannelGeometry) -> Micrometers {
        assert!(
            e.0 >= 1 && e.0 <= self.n_outputs,
            "electrode {e} out of range"
        );
        let slot = self.n_outputs - e.0; // lead (= n) at slot 0
        Micrometers::new(
            Self::REGION_PITCH_SPACING * geometry.electrode_pitch.value() * slot as f64,
        )
    }

    /// Full span from the first to the last sensing gap.
    pub fn span(&self, geometry: &ChannelGeometry) -> Micrometers {
        self.position(ElectrodeId(1), geometry) + geometry.sensing_span()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_prototype_has_nine_outputs_lead_nine() {
        let a = ElectrodeArray::paper_prototype();
        assert_eq!(a.n_outputs(), 9);
        assert_eq!(a.lead(), ElectrodeId(9));
    }

    #[test]
    fn lead_gives_single_dip_others_double() {
        let a = ElectrodeArray::paper_prototype();
        assert_eq!(a.dips_per_particle(ElectrodeId(9)), 1);
        for e in 1..=8 {
            assert_eq!(a.dips_per_particle(ElectrodeId(e)), 2);
        }
    }

    #[test]
    fn all_nine_active_gives_seventeen_peaks() {
        // Fig. 11d: "a relatively flat periodic train of 17 peaks".
        let a = ElectrodeArray::paper_prototype();
        let all: Vec<ElectrodeId> = a.electrodes().collect();
        assert_eq!(a.peak_multiplicity(&all), 17);
    }

    #[test]
    fn fig11_subset_multiplicities() {
        let a = ElectrodeArray::paper_prototype();
        // Fig. 11a: one non-lead output → 2? No: Fig 11a selects a single
        // output; with the lead selected it is 1 dip, with any other it is 2.
        assert_eq!(a.peak_multiplicity(&[ElectrodeId(9)]), 1);
        // Fig. 11b: lead + electrode 1 → 3 dips.
        assert_eq!(a.peak_multiplicity(&[ElectrodeId(9), ElectrodeId(1)]), 3);
        // Fig. 11c: lead + electrodes 1, 2 → 5 dips.
        assert_eq!(
            a.peak_multiplicity(&[ElectrodeId(9), ElectrodeId(1), ElectrodeId(2)]),
            5
        );
    }

    #[test]
    fn fig8_device_with_low_lead_gives_five_peaks_for_three_electrodes() {
        // Fig. 8: "output electrodes 1-3 turned on ... results in five peaks".
        let a = ElectrodeArray::with_lead(9, ElectrodeId(1)).unwrap();
        let sel = [ElectrodeId(1), ElectrodeId(2), ElectrodeId(3)];
        assert_eq!(a.peak_multiplicity(&sel), 5);
    }

    #[test]
    fn rejects_invalid_designs() {
        assert!(ElectrodeArray::new(0).is_err());
        assert!(ElectrodeArray::new(17).is_err());
        assert!(ElectrodeArray::with_lead(4, ElectrodeId(5)).is_err());
        assert!(ElectrodeArray::with_lead(4, ElectrodeId(0)).is_err());
    }

    #[test]
    fn paper_designs_all_construct() {
        for n in ElectrodeArray::PAPER_DESIGNS {
            assert!(ElectrodeArray::new(n).is_ok(), "design {n}");
        }
    }

    #[test]
    fn positions_decrease_with_electrode_number() {
        let a = ElectrodeArray::paper_prototype();
        let g = ChannelGeometry::paper_default();
        // Lead (9) is hit first (position 0), electrode 1 last.
        assert_eq!(a.position(ElectrodeId(9), &g).value(), 0.0);
        let p1 = a.position(ElectrodeId(1), &g).value();
        assert_eq!(p1, ElectrodeArray::REGION_PITCH_SPACING * 25.0 * 8.0);
        assert!(a.span(&g).value() > p1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn position_of_unknown_electrode_panics() {
        let a = ElectrodeArray::paper_prototype();
        let _ = a.position(ElectrodeId(10), &ChannelGeometry::paper_default());
    }
}
