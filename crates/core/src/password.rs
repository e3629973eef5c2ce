//! Cyto-coded passwords (Sec. V, Sec. VII-C).
//!
//! "In conceptual comparison to traditional password paradigms, the number of
//! password characters would correspond to the number of bead types involved,
//! and specific character value within the password would correspond to the
//! number (concentration) of beads of a particular type. Therefore, having
//! larger number of bead types would increase the cyto-coded password space
//! size and hence the overall security."
//!
//! A password is a vector of concentration *levels*, one per bead type in the
//! alphabet. Level 0 means the type is absent; the all-absent password is
//! invalid. Levels map linearly onto concentrations; the level *step* must be
//! wide enough that the measurement tolerance cannot confuse two levels —
//! the collision analysis in [`PasswordAlphabet::max_unambiguous_level`].

use medsen_microfluidics::{BeadDose, ParticleKind};
use medsen_units::{Concentration, Microliters};

/// Errors in password construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PasswordError {
    /// A level vector of the wrong arity for the alphabet.
    WrongArity {
        /// Expected number of bead types.
        expected: usize,
        /// Provided number of levels.
        got: usize,
    },
    /// A level exceeded the alphabet's maximum.
    LevelOutOfRange {
        /// The offending level.
        level: u8,
        /// The maximum allowed.
        max: u8,
    },
    /// All levels were zero — an empty password encodes nothing.
    Empty,
}

impl core::fmt::Display for PasswordError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PasswordError::WrongArity { expected, got } => {
                write!(f, "expected {expected} levels, got {got}")
            }
            PasswordError::LevelOutOfRange { level, max } => {
                write!(f, "level {level} exceeds maximum {max}")
            }
            PasswordError::Empty => write!(f, "password must use at least one bead type"),
        }
    }
}

impl std::error::Error for PasswordError {}

/// Errors decoding a wire-encoded credential.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CredentialDecodeError {
    /// Fewer bytes than the header + payload + checksum require.
    Truncated {
        /// Bytes the encoding needs (`usize::MAX` when even the header is
        /// missing, so the arity is unknown).
        expected: usize,
        /// Bytes provided.
        got: usize,
    },
    /// The version byte names a format this decoder does not speak.
    UnsupportedVersion(u8),
    /// The trailing CRC32 does not match the header + payload.
    ChecksumMismatch {
        /// Checksum recomputed from the bytes.
        computed: u32,
        /// Checksum stored in the encoding.
        stored: u32,
    },
    /// The encoding was made for a different alphabet geometry.
    AlphabetMismatch {
        /// `max_level` recorded in the encoding.
        encoded_max_level: u8,
        /// `max_level` of the alphabet decoding it.
        alphabet_max_level: u8,
    },
    /// The checksum held but the levels are not a valid password for the
    /// alphabet (wrong arity, out-of-range level, all-zero).
    Invalid(PasswordError),
}

impl core::fmt::Display for CredentialDecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CredentialDecodeError::Truncated { expected, got } => {
                if *expected == usize::MAX {
                    write!(f, "credential truncated: {got} bytes is shorter than the header")
                } else {
                    write!(f, "credential truncated: need {expected} bytes, got {got}")
                }
            }
            CredentialDecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported credential format version {v}")
            }
            CredentialDecodeError::ChecksumMismatch { computed, stored } => {
                write!(f, "credential checksum mismatch: computed {computed:#010x}, stored {stored:#010x}")
            }
            CredentialDecodeError::AlphabetMismatch {
                encoded_max_level,
                alphabet_max_level,
            } => write!(
                f,
                "credential encoded for max level {encoded_max_level}, alphabet has {alphabet_max_level}"
            ),
            CredentialDecodeError::Invalid(e) => write!(f, "decoded levels invalid: {e}"),
        }
    }
}

impl std::error::Error for CredentialDecodeError {}

/// Version byte leading every encoded credential.
pub const CREDENTIAL_FORMAT_VERSION: u8 = 1;

// CRC32 (IEEE, reflected) over the header + payload — the workspace's
// single implementation in `medsen-wire`, shared with the WAL frames and
// the cross-tier message envelope so the three checksums cannot drift.
use medsen_wire::crc32;

/// The password alphabet: which bead types exist and how concentration
/// levels map to physical doses.
#[derive(Debug, Clone, PartialEq)]
pub struct PasswordAlphabet {
    /// The bead types, in symbol order.
    bead_types: Vec<ParticleKind>,
    /// Concentration per level step (beads/µL).
    pub level_step: Concentration,
    /// Maximum level per bead type.
    pub max_level: u8,
}

impl PasswordAlphabet {
    /// The paper's two-bead alphabet (3.58 µm and 7.8 µm MicroChem beads)
    /// with 8 levels of 500 beads/µL — sized so that a one-minute
    /// acquisition (≈ 0.08 µL processed) sees ≈ 40 beads per level step,
    /// enough for Poisson-stable counting.
    pub fn paper_default() -> Self {
        Self {
            bead_types: vec![ParticleKind::Bead358, ParticleKind::Bead78],
            level_step: Concentration::new(500.0),
            max_level: 8,
        }
    }

    /// Builds an alphabet.
    ///
    /// # Errors
    ///
    /// Fails if a non-bead species is listed, the list is empty or has
    /// duplicates, or the step/levels are non-positive.
    pub fn new(
        bead_types: Vec<ParticleKind>,
        level_step: Concentration,
        max_level: u8,
    ) -> Result<Self, String> {
        if bead_types.is_empty() {
            return Err("alphabet needs at least one bead type".into());
        }
        for (i, kind) in bead_types.iter().enumerate() {
            if !kind.is_password_bead() {
                return Err(format!("`{kind}` is not a synthetic password bead"));
            }
            if bead_types[i + 1..].contains(kind) {
                return Err(format!("`{kind}` listed twice"));
            }
        }
        if level_step.value() <= 0.0 {
            return Err("level step must be positive".into());
        }
        if max_level == 0 {
            return Err("need at least one level".into());
        }
        Ok(Self {
            bead_types,
            level_step,
            max_level,
        })
    }

    /// The bead types in symbol order.
    pub fn bead_types(&self) -> &[ParticleKind] {
        &self.bead_types
    }

    /// Total number of valid passwords: `(max_level + 1)^types − 1`
    /// (every level combination except all-zero).
    pub fn password_space(&self) -> u64 {
        (u64::from(self.max_level) + 1)
            .pow(self.bead_types.len() as u32)
            .saturating_sub(1)
    }

    /// Password entropy in bits.
    pub fn entropy_bits(&self) -> f64 {
        (self.password_space() as f64).log2()
    }

    /// The minimum relative measurement tolerance at which two *adjacent*
    /// levels of the same type become confusable: adjacent levels `ℓ` and
    /// `ℓ+1` collide when `tol × ℓ_step × ℓ ≥ step / 2`. Returns the highest
    /// level that stays unambiguous at `rel_tolerance` — the quantitative
    /// form of the paper's observation that "lower bead concentrations have
    /// less variance and improved resolution", so low levels pack more
    /// distinguishable symbols.
    pub fn max_unambiguous_level(&self, rel_tolerance: f64) -> u8 {
        if rel_tolerance <= 0.0 {
            return self.max_level;
        }
        let mut level = 0u8;
        while level < self.max_level {
            let next = level + 1;
            // Measured band of level `next` is ± tol × next × step; bands of
            // next and next+1 overlap when tol × (2·next + 1) ≥ 1.
            if rel_tolerance * (2.0 * f64::from(next) + 1.0) >= 1.0 {
                break;
            }
            level = next;
        }
        level
    }

    /// Generates all valid passwords whose pairwise level distance (L∞) is
    /// at least `min_separation` — the collision-free dictionary the paper
    /// needs ("we carefully chose different types of beads as well as
    /// specific bead concentrations ... to avoid any undesired case").
    pub fn collision_free_dictionary(&self, min_separation: u8) -> Vec<CytoPassword> {
        let sep = min_separation.max(1);
        let mut dictionary: Vec<CytoPassword> = Vec::new();
        let arity = self.bead_types.len();
        let mut levels = vec![0u8; arity];
        loop {
            if levels.iter().any(|&l| l > 0) {
                let candidate = CytoPassword {
                    levels: levels.clone(),
                };
                let distinct = dictionary.iter().all(|existing| {
                    existing
                        .levels
                        .iter()
                        .zip(&candidate.levels)
                        .map(|(&a, &b)| a.abs_diff(b))
                        .max()
                        .unwrap_or(0)
                        >= sep
                });
                if distinct {
                    dictionary.push(candidate);
                }
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == arity {
                    return dictionary;
                }
                if levels[i] < self.max_level {
                    levels[i] += 1;
                    break;
                }
                levels[i] = 0;
                i += 1;
            }
        }
    }
}

impl Default for PasswordAlphabet {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One user's cyto-coded password: a level per alphabet bead type.
///
/// # Examples
///
/// ```
/// use medsen_core::{CytoPassword, PasswordAlphabet};
///
/// let alphabet = PasswordAlphabet::paper_default();
/// // "two parts 3.58 µm beads, six parts 7.8 µm beads"
/// let password = CytoPassword::new(&alphabet, vec![2, 6])?;
/// assert_eq!(password.to_doses(&alphabet).len(), 2);
/// # Ok::<(), medsen_core::PasswordError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CytoPassword {
    levels: Vec<u8>,
}

impl CytoPassword {
    /// Creates a password from levels (one per alphabet symbol).
    ///
    /// # Errors
    ///
    /// Returns a [`PasswordError`] on arity mismatch, out-of-range level, or
    /// the all-zero password.
    pub fn new(alphabet: &PasswordAlphabet, levels: Vec<u8>) -> Result<Self, PasswordError> {
        if levels.len() != alphabet.bead_types().len() {
            return Err(PasswordError::WrongArity {
                expected: alphabet.bead_types().len(),
                got: levels.len(),
            });
        }
        if let Some(&level) = levels.iter().find(|&&l| l > alphabet.max_level) {
            return Err(PasswordError::LevelOutOfRange {
                level,
                max: alphabet.max_level,
            });
        }
        if levels.iter().all(|&l| l == 0) {
            return Err(PasswordError::Empty);
        }
        Ok(Self { levels })
    }

    /// The level vector.
    pub fn levels(&self) -> &[u8] {
        &self.levels
    }

    /// The physical doses to mix into a pipette for this password.
    pub fn to_doses(&self, alphabet: &PasswordAlphabet) -> Vec<BeadDose> {
        alphabet
            .bead_types()
            .iter()
            .zip(&self.levels)
            .filter(|(_, &level)| level > 0)
            .map(|(&kind, &level)| BeadDose {
                kind,
                concentration: alphabet.level_step * f64::from(level),
            })
            .collect()
    }

    /// The expected bead counts when `processed_volume` of the mixed sample
    /// actually flows past the sensor.
    pub fn expected_signature(
        &self,
        alphabet: &PasswordAlphabet,
        processed_volume: Microliters,
    ) -> medsen_cloud::BeadSignature {
        let mut sig = medsen_cloud::BeadSignature::new();
        for dose in self.to_doses(alphabet) {
            let count = dose.concentration.expected_count(processed_volume);
            sig.set(dose.kind, count.round() as u64);
        }
        sig
    }

    /// Encodes the credential for the wire / enrollment records:
    ///
    /// ```text
    /// [version:1][arity:1][max_level:1][levels:arity][crc32:4 LE]
    /// ```
    ///
    /// The CRC covers everything before it, so truncation, bit flips, and
    /// splices are rejected by [`CytoPassword::decode`] before the levels
    /// are even looked at. The alphabet's `max_level` is carried so an
    /// encoding cannot be silently re-interpreted under a different
    /// geometry.
    pub fn encode(&self, alphabet: &PasswordAlphabet) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(3 + self.levels.len() + 4);
        bytes.push(CREDENTIAL_FORMAT_VERSION);
        bytes.push(self.levels.len() as u8);
        bytes.push(alphabet.max_level);
        bytes.extend_from_slice(&self.levels);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Decodes a credential produced by [`CytoPassword::encode`],
    /// validating version, length, checksum, alphabet geometry, and
    /// finally the levels themselves.
    ///
    /// # Errors
    ///
    /// Returns a [`CredentialDecodeError`] naming the first check that
    /// failed. Never panics, for any input bytes.
    pub fn decode(
        alphabet: &PasswordAlphabet,
        bytes: &[u8],
    ) -> Result<Self, CredentialDecodeError> {
        if bytes.len() < 3 {
            return Err(CredentialDecodeError::Truncated {
                expected: usize::MAX,
                got: bytes.len(),
            });
        }
        if bytes[0] != CREDENTIAL_FORMAT_VERSION {
            return Err(CredentialDecodeError::UnsupportedVersion(bytes[0]));
        }
        let arity = usize::from(bytes[1]);
        let expected = 3 + arity + 4;
        if bytes.len() != expected {
            return Err(CredentialDecodeError::Truncated {
                expected,
                got: bytes.len(),
            });
        }
        let (body, crc_bytes) = bytes.split_at(expected - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("split at 4"));
        let computed = crc32(body);
        if computed != stored {
            return Err(CredentialDecodeError::ChecksumMismatch { computed, stored });
        }
        if bytes[2] != alphabet.max_level {
            return Err(CredentialDecodeError::AlphabetMismatch {
                encoded_max_level: bytes[2],
                alphabet_max_level: alphabet.max_level,
            });
        }
        CytoPassword::new(alphabet, body[3..].to_vec()).map_err(CredentialDecodeError::Invalid)
    }

    /// L∞ distance between two passwords' level vectors.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn distance(&self, other: &CytoPassword) -> u8 {
        assert_eq!(self.levels.len(), other.levels.len(), "arity mismatch");
        self.levels
            .iter()
            .zip(&other.levels)
            .map(|(&a, &b)| a.abs_diff(b))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alphabet() -> PasswordAlphabet {
        PasswordAlphabet::paper_default()
    }

    #[test]
    fn paper_alphabet_space_and_entropy() {
        let a = alphabet();
        // Two types × 9 level values (0..=8) minus the empty password.
        assert_eq!(a.password_space(), 81 - 1);
        assert!((a.entropy_bits() - (80f64).log2()).abs() < 1e-12);
    }

    #[test]
    fn more_bead_types_enlarge_the_space() {
        // "having larger number of bead types would increase the cyto-coded
        // password space size and hence the overall security".
        let two = alphabet().password_space();
        // A hypothetical third bead type: reuse Bead358/Bead78 impossible
        // (duplicates rejected), so compare two-type/8-level vs one-type.
        let one = PasswordAlphabet::new(vec![ParticleKind::Bead78], Concentration::new(100.0), 8)
            .unwrap()
            .password_space();
        assert!(two > one * 8);
    }

    #[test]
    fn alphabet_rejects_bad_inputs() {
        assert!(PasswordAlphabet::new(vec![], Concentration::new(100.0), 8).is_err());
        assert!(PasswordAlphabet::new(
            vec![ParticleKind::RedBloodCell],
            Concentration::new(100.0),
            8
        )
        .is_err());
        assert!(PasswordAlphabet::new(
            vec![ParticleKind::Bead78, ParticleKind::Bead78],
            Concentration::new(100.0),
            8
        )
        .is_err());
        assert!(PasswordAlphabet::new(vec![ParticleKind::Bead78], Concentration::ZERO, 8).is_err());
        assert!(
            PasswordAlphabet::new(vec![ParticleKind::Bead78], Concentration::new(100.0), 0)
                .is_err()
        );
    }

    #[test]
    fn password_validation() {
        let a = alphabet();
        assert!(CytoPassword::new(&a, vec![3, 5]).is_ok());
        assert_eq!(
            CytoPassword::new(&a, vec![3]).unwrap_err(),
            PasswordError::WrongArity {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            CytoPassword::new(&a, vec![3, 9]).unwrap_err(),
            PasswordError::LevelOutOfRange { level: 9, max: 8 }
        );
        assert_eq!(
            CytoPassword::new(&a, vec![0, 0]).unwrap_err(),
            PasswordError::Empty
        );
    }

    #[test]
    fn doses_skip_zero_levels_and_scale_linearly() {
        let a = alphabet();
        let pw = CytoPassword::new(&a, vec![0, 4]).unwrap();
        let doses = pw.to_doses(&a);
        assert_eq!(doses.len(), 1);
        assert_eq!(doses[0].kind, ParticleKind::Bead78);
        assert_eq!(doses[0].concentration.value(), 2000.0);
    }

    #[test]
    fn expected_signature_scales_with_volume() {
        let a = alphabet();
        let pw = CytoPassword::new(&a, vec![2, 1]).unwrap();
        let sig = pw.expected_signature(&a, Microliters::new(0.5));
        assert_eq!(sig.count(ParticleKind::Bead358), 500);
        assert_eq!(sig.count(ParticleKind::Bead78), 250);
    }

    #[test]
    fn distance_is_linf() {
        let a = alphabet();
        let p = CytoPassword::new(&a, vec![3, 5]).unwrap();
        let q = CytoPassword::new(&a, vec![5, 4]).unwrap();
        assert_eq!(p.distance(&q), 2);
    }

    #[test]
    fn low_levels_resolve_better_than_high_levels() {
        // Paper: "lower bead concentrations have less variance and improved
        // resolution" — the unambiguous level count shrinks as tolerance
        // grows, because high levels' absolute bands widen.
        let a = alphabet();
        assert_eq!(a.max_unambiguous_level(0.0), 8);
        let tight = a.max_unambiguous_level(0.05);
        let loose = a.max_unambiguous_level(0.25);
        assert!(tight > loose, "tight {tight} loose {loose}");
        assert!(loose >= 1);
    }

    #[test]
    fn collision_free_dictionary_respects_separation() {
        let a = alphabet();
        let dict = a.collision_free_dictionary(2);
        assert!(!dict.is_empty());
        for (i, p) in dict.iter().enumerate() {
            for q in &dict[i + 1..] {
                assert!(p.distance(q) >= 2, "{p:?} vs {q:?}");
            }
        }
        // Separation 1 = every password.
        assert_eq!(
            a.collision_free_dictionary(1).len() as u64,
            a.password_space()
        );
    }

    #[test]
    fn credential_round_trips_through_the_codec() {
        let a = alphabet();
        for levels in [vec![2, 6], vec![0, 1], vec![8, 8]] {
            let pw = CytoPassword::new(&a, levels).unwrap();
            let bytes = pw.encode(&a);
            assert_eq!(bytes.len(), 3 + 2 + 4);
            assert_eq!(CytoPassword::decode(&a, &bytes).unwrap(), pw);
        }
    }

    #[test]
    fn codec_rejects_truncation_and_bit_flips() {
        let a = alphabet();
        let bytes = CytoPassword::new(&a, vec![2, 6]).unwrap().encode(&a);
        for len in 0..bytes.len() {
            assert!(
                CytoPassword::decode(&a, &bytes[..len]).is_err(),
                "accepted {len}-byte prefix"
            );
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                CytoPassword::decode(&a, &flipped).is_err(),
                "accepted flip of bit {bit}"
            );
        }
    }

    #[test]
    fn codec_rejects_foreign_alphabet_geometry() {
        let a = alphabet();
        let other = PasswordAlphabet::new(a.bead_types().to_vec(), a.level_step, 4).unwrap();
        let bytes = CytoPassword::new(&other, vec![2, 3])
            .unwrap()
            .encode(&other);
        assert_eq!(
            CytoPassword::decode(&a, &bytes),
            Err(CredentialDecodeError::AlphabetMismatch {
                encoded_max_level: 4,
                alphabet_max_level: 8,
            })
        );
    }

    #[test]
    fn dictionary_shrinks_with_separation() {
        let a = alphabet();
        let d1 = a.collision_free_dictionary(1).len();
        let d2 = a.collision_free_dictionary(2).len();
        let d4 = a.collision_free_dictionary(4).len();
        assert!(d1 > d2 && d2 > d4, "{d1} {d2} {d4}");
    }
}
