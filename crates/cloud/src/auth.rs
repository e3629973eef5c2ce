//! Cyto-coded authentication (Sec. V).
//!
//! The server authenticates a user from the statistics of the synthetic
//! beads mixed into the sample: it classifies each peak's multi-frequency
//! feature vector as a bead type (or a blood cell, which is ignored), counts
//! beads per type, and matches the measured signature against the enrolled
//! identifiers within a tolerance band. The signature also doubles as the
//! ciphertext integrity check: a stored record whose recovered identifier no
//! longer matches was swapped or corrupted.

use crate::api::PeakReport;
use medsen_dsp::classify::Classifier;
use medsen_dsp::features::FeatureVector;
use medsen_microfluidics::ParticleKind;
use medsen_wire::json::{required, unknown_variant};
use medsen_wire::{Json, JsonReader, JsonWriter, Reader, Wire, WireError, Writer};
use std::collections::BTreeMap;

/// A measured or enrolled bead signature: counts per bead type.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BeadSignature {
    counts: BTreeMap<ParticleKind, u64>,
}

impl BeadSignature {
    /// An empty signature.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a signature from `(bead type, count)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a non-bead species is used.
    pub fn from_counts(counts: &[(ParticleKind, u64)]) -> Self {
        let mut sig = Self::new();
        for &(kind, n) in counts {
            sig.set(kind, n);
        }
        sig
    }

    /// Sets the count of one bead type.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a synthetic password bead.
    pub fn set(&mut self, kind: ParticleKind, count: u64) {
        assert!(
            kind.is_password_bead(),
            "`{kind}` cannot appear in a bead signature"
        );
        self.counts.insert(kind, count);
    }

    /// Increments one bead type.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a synthetic password bead.
    pub fn increment(&mut self, kind: ParticleKind) {
        assert!(
            kind.is_password_bead(),
            "`{kind}` cannot appear in a bead signature"
        );
        *self.counts.entry(kind).or_insert(0) += 1;
    }

    /// The count for one bead type (0 if absent).
    pub fn count(&self, kind: ParticleKind) -> u64 {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Total beads across all types.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// All `(kind, count)` pairs in stable order.
    pub fn entries(&self) -> impl Iterator<Item = (ParticleKind, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Whether `measured` matches this enrolled signature within a relative
    /// tolerance per bead type. Bead types enrolled at zero must measure at
    /// most the absolute slack (`max(2, tolerance × 10)` beads of
    /// contamination).
    ///
    /// The comparison is input-independent: every password-bead kind is
    /// always examined and the verdict accumulated without early exit, so
    /// the work done never encodes *which* bead count disagreed. An
    /// earlier version returned on the first mismatching kind — a classic
    /// password-oracle shape the audit battery's timing section measures
    /// and pins (see [`Self::matches_counted`]).
    pub fn matches(&self, measured: &BeadSignature, rel_tolerance: f64) -> bool {
        self.matches_counted(measured, rel_tolerance).0
    }

    /// [`Self::matches`] plus the number of per-kind comparisons executed.
    ///
    /// The count is the deterministic witness the security audit asserts
    /// on: a mismatch at the first bead kind and a mismatch at the last
    /// must report the same op count, which wall-clock measurements on a
    /// noisy CI runner cannot pin reliably.
    pub fn matches_counted(&self, measured: &BeadSignature, rel_tolerance: f64) -> (bool, u32) {
        let slack = (rel_tolerance * 10.0).max(2.0);
        let mut mismatches = 0u32;
        let mut ops = 0u32;
        for kind in ParticleKind::ALL {
            if !kind.is_password_bead() {
                continue;
            }
            ops += 1;
            let enrolled = self.count(kind) as f64;
            let got = measured.count(kind) as f64;
            // Evaluate both arms unconditionally and select arithmetically:
            // no data-dependent branch, no early exit.
            let zero_arm = u32::from(got > slack);
            let nonzero_arm = u32::from((got - enrolled).abs() > rel_tolerance * enrolled);
            let is_zero = u32::from(enrolled == 0.0);
            mismatches += is_zero * zero_arm + (1 - is_zero) * nonzero_arm;
        }
        (mismatches == 0, ops)
    }
}

impl Wire for BeadSignature {
    fn wire_encode(&self, w: &mut Writer) {
        let len = u32::try_from(self.counts.len()).expect("bead-kind count fits u32");
        w.put_u32(len);
        for (&kind, &count) in &self.counts {
            kind.wire_encode(w);
            w.put_u64(count);
        }
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let entries = r.get_count()?;
        let mut counts = BTreeMap::new();
        for _ in 0..entries {
            let kind = decoded_bead(ParticleKind::wire_decode(r)?)?;
            counts.insert(kind, r.get_u64()?);
        }
        Ok(Self { counts })
    }
}

/// The one check a signature key decoded from either wire format passes:
/// `set` panics on non-bead species, and these bytes cross a trust
/// boundary, so both decoders refuse one with the same error instead.
fn decoded_bead(kind: ParticleKind) -> Result<ParticleKind, WireError> {
    if kind.is_password_bead() {
        Ok(kind)
    } else {
        Err(WireError::Invalid("non-bead species in bead signature"))
    }
}

/// `{"counts":{"Bead358":40,..}}`: counts keyed by the bead's variant name.
impl Json for BeadSignature {
    fn json_encode(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("counts");
            w.object(|w| {
                for (kind, count) in &self.counts {
                    w.field(kind.name(), count);
                }
            });
        });
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        let mut counts = None;
        r.object(|key, r| {
            if key != "counts" {
                return r.skip();
            }
            let mut decoded = BTreeMap::new();
            r.object(|name, r| {
                let kind = ParticleKind::from_name(name)
                    .ok_or_else(|| unknown_variant("particle kind", name))?;
                decoded.insert(decoded_bead(kind)?, u64::json_decode(r)?);
                Ok(())
            })?;
            counts = Some(decoded);
            Ok(())
        })?;
        Ok(Self {
            counts: required(counts, "counts")?,
        })
    }
}

/// The server's authentication verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthDecision {
    /// The measured signature matched exactly one enrolled user.
    Accepted {
        /// The authenticated user.
        user_id: String,
    },
    /// No enrolled signature matched.
    Rejected,
    /// More than one enrolled signature matched — an enrollment collision
    /// (the dictionary was built with too-close concentration levels).
    Ambiguous {
        /// All matching users.
        candidates: Vec<String>,
    },
}

impl Wire for AuthDecision {
    fn wire_encode(&self, w: &mut Writer) {
        match self {
            AuthDecision::Accepted { user_id } => {
                w.put_u8(0);
                user_id.wire_encode(w);
            }
            AuthDecision::Rejected => w.put_u8(1),
            AuthDecision::Ambiguous { candidates } => {
                w.put_u8(2);
                candidates.wire_encode(w);
            }
        }
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(AuthDecision::Accepted {
                user_id: String::wire_decode(r)?,
            }),
            1 => Ok(AuthDecision::Rejected),
            2 => Ok(AuthDecision::Ambiguous {
                candidates: Vec::wire_decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "auth decision",
                tag,
            }),
        }
    }
}

impl Json for AuthDecision {
    fn json_encode(&self, w: &mut JsonWriter) {
        match self {
            AuthDecision::Accepted { user_id } => {
                w.variant("Accepted", |w| w.object(|w| w.field("user_id", user_id)));
            }
            AuthDecision::Rejected => w.str("Rejected"),
            AuthDecision::Ambiguous { candidates } => {
                w.variant("Ambiguous", |w| {
                    w.object(|w| w.field("candidates", candidates));
                });
            }
        }
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        r.variant(|name, payload| match (name, payload) {
            ("Accepted", Some(r)) => Ok(AuthDecision::Accepted {
                user_id: r.one_field("user_id")?,
            }),
            ("Rejected", None) => Ok(AuthDecision::Rejected),
            ("Ambiguous", Some(r)) => Ok(AuthDecision::Ambiguous {
                candidates: r.one_field("candidates")?,
            }),
            (name, _) => Err(unknown_variant("auth decision", name)),
        })
    }
}

/// Server-side enrollment database + authentication logic.
#[derive(Debug, Clone, Default)]
pub struct AuthService {
    enrolled: BTreeMap<String, BeadSignature>,
    /// Relative per-type count tolerance (default 30 %: Poisson arrival
    /// noise, coincidence losses, and classification slips on a few dozen
    /// beads per type stay inside this band).
    pub tolerance: f64,
}

impl AuthService {
    /// An empty service with the default tolerance.
    pub fn new() -> Self {
        Self {
            enrolled: BTreeMap::new(),
            tolerance: 0.30,
        }
    }

    /// Enrolls (or replaces) a user's expected signature.
    pub fn enroll(&mut self, user_id: impl Into<String>, signature: BeadSignature) {
        self.enrolled.insert(user_id.into(), signature);
    }

    /// Number of enrolled users.
    pub fn enrolled_count(&self) -> usize {
        self.enrolled.len()
    }

    /// All `(identifier, signature)` pairs in identifier order. This is
    /// the snapshot surface for durable storage: deterministic order
    /// makes two snapshots of the same state byte-identical.
    pub fn enrolled_entries(&self) -> impl Iterator<Item = (&str, &BeadSignature)> {
        self.enrolled.iter().map(|(id, sig)| (id.as_str(), sig))
    }

    /// Extracts the measured bead signature from a peak report using the
    /// given particle classifier. Peaks classified as blood cells are
    /// ignored; peaks classified as a bead type count toward that type.
    ///
    /// Measurement never consults the enrollment database; this method is
    /// a convenience wrapper around the free [`measure_signature`] so
    /// callers holding no lock (the sharded service) can measure too.
    pub fn measure_signature(&self, report: &PeakReport, classifier: &Classifier) -> BeadSignature {
        measure_signature(report, classifier)
    }

    /// All enrolled identifiers whose signature matches `measured` within
    /// this service's tolerance, in identifier order. This is the scan a
    /// sharded deployment runs per shard before merging candidates.
    pub fn matching_users(&self, measured: &BeadSignature) -> Vec<String> {
        self.enrolled
            .iter()
            .filter(|(_, sig)| sig.matches(measured, self.tolerance))
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Authenticates a measured signature against the enrollment database.
    pub fn authenticate(&self, measured: &BeadSignature) -> AuthDecision {
        decision_from_candidates(self.matching_users(measured))
    }

    /// The Sec. V integrity check: a stored ciphertext is intact iff the
    /// signature recovered from it still matches the identifier it was
    /// filed under.
    pub fn verify_integrity(&self, user_id: &str, recovered: &BeadSignature) -> bool {
        self.enrolled
            .get(user_id)
            .is_some_and(|sig| sig.matches(recovered, self.tolerance))
    }
}

/// Extracts the measured bead signature from a peak report: classify each
/// peak's feature vector, ignore blood cells, count password beads.
/// Measurement depends only on the report and the classifier — never on
/// enrollment state — so it needs no enrollment-database lock.
pub fn measure_signature(report: &PeakReport, classifier: &Classifier) -> BeadSignature {
    let mut sig = BeadSignature::new();
    for peak in &report.peaks {
        let fv = FeatureVector {
            index: 0,
            amplitudes: peak.features.clone(),
        };
        if let Ok(label) = classifier.predict(&fv) {
            if let Some(kind) = kind_for_label(label) {
                sig.increment(kind);
            }
        }
    }
    sig
}

/// Maps classifier labels to bead kinds. The conventional labels are the
/// particle [`label`]s ("3.58um bead", "7.8um bead").
///
/// [`label`]: ParticleKind::label
fn kind_for_label(label: &str) -> Option<ParticleKind> {
    ParticleKind::ALL
        .into_iter()
        .filter(|k| k.is_password_bead())
        .find(|k| k.label() == label)
}

/// Collapses a set of matching identifiers into the authentication
/// verdict: none → rejected, exactly one → accepted, several → ambiguous
/// (in the given candidate order). Shared by the single-map scan above and
/// the cross-shard candidate merge in [`crate::shard::ShardedAuth`].
pub(crate) fn decision_from_candidates(candidates: Vec<String>) -> AuthDecision {
    match candidates.len() {
        0 => AuthDecision::Rejected,
        1 => AuthDecision::Accepted {
            user_id: candidates.into_iter().next().expect("one candidate"),
        },
        _ => AuthDecision::Ambiguous { candidates },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(b358: u64, b78: u64) -> BeadSignature {
        BeadSignature::from_counts(&[(ParticleKind::Bead358, b358), (ParticleKind::Bead78, b78)])
    }

    #[test]
    fn both_formats_refuse_a_non_bead_key_with_the_same_error() {
        use medsen_wire::{JsonWire, WireCodec};
        let refused = Err(WireError::Invalid("non-bead species in bead signature"));
        for cell in [
            ParticleKind::RedBloodCell,
            ParticleKind::WhiteBloodCell,
            ParticleKind::Platelet,
        ] {
            // `set` refuses to build such a signature, so spell both
            // encodings out by hand.
            let json = format!(r#"{{"counts":{{"Bead358":3,"{}":5}}}}"#, cell.name());
            let decoded: Result<BeadSignature, _> = JsonWire.decode(json.as_bytes());
            assert_eq!(decoded, refused, "json {json}");

            let mut w = Writer::new();
            w.put_u32(2);
            ParticleKind::Bead358.wire_encode(&mut w);
            w.put_u64(3);
            cell.wire_encode(&mut w);
            w.put_u64(5);
            let bytes = w.into_bytes();
            assert_eq!(
                BeadSignature::wire_decode(&mut Reader::new(&bytes)),
                refused,
                "binary"
            );
        }
        // Bead keys still decode, in both formats alike.
        let json = br#"{"counts":{"Bead358":3,"Bead78":5}}"#;
        assert_eq!(JsonWire.decode(json), Ok(sig(3, 5)));
        let mut w = Writer::new();
        sig(3, 5).wire_encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            BeadSignature::wire_decode(&mut Reader::new(&bytes)),
            Ok(sig(3, 5))
        );
    }

    #[test]
    fn exact_signature_matches() {
        assert!(sig(100, 50).matches(&sig(100, 50), 0.2));
    }

    #[test]
    fn within_tolerance_matches_outside_rejects() {
        let enrolled = sig(100, 50);
        assert!(enrolled.matches(&sig(115, 45), 0.2));
        assert!(!enrolled.matches(&sig(150, 50), 0.2));
        assert!(!enrolled.matches(&sig(100, 10), 0.2));
    }

    #[test]
    fn zero_enrolled_type_rejects_large_contamination() {
        let enrolled = BeadSignature::from_counts(&[(ParticleKind::Bead358, 100)]);
        let mut clean = BeadSignature::from_counts(&[(ParticleKind::Bead358, 100)]);
        clean.set(ParticleKind::Bead78, 1); // trace contamination: ok
        assert!(enrolled.matches(&clean, 0.2));
        let mut dirty = BeadSignature::from_counts(&[(ParticleKind::Bead358, 100)]);
        dirty.set(ParticleKind::Bead78, 40); // someone else's beads: reject
        assert!(!enrolled.matches(&dirty, 0.2));
    }

    #[test]
    #[should_panic(expected = "cannot appear in a bead signature")]
    fn blood_cells_cannot_be_signature_symbols() {
        let mut s = BeadSignature::new();
        s.set(ParticleKind::RedBloodCell, 10);
    }

    #[test]
    fn compare_op_count_is_mismatch_position_independent() {
        let kinds: Vec<ParticleKind> = ParticleKind::ALL
            .into_iter()
            .filter(|k| k.is_password_bead())
            .collect();
        let enrolled = sig(100, 100);
        // Mismatch at the first kind vs the last kind vs a full match:
        // identical op counts in all three cases.
        let (ok_first, ops_first) = enrolled.matches_counted(&sig(500, 100), 0.2);
        let (ok_last, ops_last) = enrolled.matches_counted(&sig(100, 500), 0.2);
        let (ok_match, ops_match) = enrolled.matches_counted(&sig(100, 100), 0.2);
        assert!(!ok_first && !ok_last && ok_match);
        assert_eq!(ops_first, kinds.len() as u32);
        assert_eq!(ops_first, ops_last);
        assert_eq!(ops_first, ops_match);
    }

    #[test]
    fn authentication_accepts_the_right_user() {
        let mut svc = AuthService::new();
        svc.enroll("alice", sig(100, 20));
        svc.enroll("bob", sig(20, 100));
        assert_eq!(
            svc.authenticate(&sig(95, 22)),
            AuthDecision::Accepted {
                user_id: "alice".into()
            }
        );
        assert_eq!(
            svc.authenticate(&sig(18, 110)),
            AuthDecision::Accepted {
                user_id: "bob".into()
            }
        );
    }

    #[test]
    fn authentication_rejects_unknown_signatures() {
        let mut svc = AuthService::new();
        svc.enroll("alice", sig(100, 20));
        assert_eq!(svc.authenticate(&sig(300, 300)), AuthDecision::Rejected);
    }

    #[test]
    fn too_close_enrollments_are_flagged_ambiguous() {
        // "Keeping concentration levels of two patients too close to each
        // other may confuse MedSen" — the service surfaces this rather than
        // guessing.
        let mut svc = AuthService::new();
        svc.enroll("alice", sig(100, 20));
        svc.enroll("mallory", sig(105, 21));
        match svc.authenticate(&sig(102, 20)) {
            AuthDecision::Ambiguous { candidates } => {
                assert_eq!(candidates.len(), 2);
            }
            other => panic!("expected ambiguity, got {other:?}"),
        }
    }

    #[test]
    fn integrity_check_detects_swapped_records() {
        let mut svc = AuthService::new();
        svc.enroll("alice", sig(100, 20));
        assert!(svc.verify_integrity("alice", &sig(98, 21)));
        assert!(!svc.verify_integrity("alice", &sig(20, 100)));
        assert!(!svc.verify_integrity("nobody", &sig(98, 21)));
    }

    #[test]
    fn signature_totals_and_entries() {
        let s = sig(30, 12);
        assert_eq!(s.total(), 42);
        assert_eq!(s.count(ParticleKind::Bead78), 12);
        assert_eq!(s.entries().count(), 2);
    }
}
