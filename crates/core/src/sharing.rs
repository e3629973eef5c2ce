//! Practitioner key sharing — the extension the paper describes but leaves
//! unimplemented: "MedSen's design also allows (not implemented) sharing of
//! the generated keys with trusted parties, e.g., the patient's
//! practitioners, so that they could also access the cloud-based analysis
//! outcomes remotely" (Sec. VII-B).
//!
//! Design: the controller never exports raw key material (`CipherKey` is not
//! even serializable). Instead it derives a **decryption capability** — the
//! per-period *multiplication factors* plus timing — which is the minimal
//! projection of the key needed to decrypt counts. The capability reveals
//! *how many* dips each period multiplies a particle into, but not *which
//! electrodes* were active, their gains, or the flow settings, so a leaked
//! capability does not let an attacker forge or re-shape ciphertexts.
//!
//! The capability travels inside a [`SealedCapability`]: an
//! authenticated stream-cipher envelope keyed by a secret shared between the
//! patient's controller and the practitioner. The envelope uses the ChaCha
//! keystream of Rust's `StdRng` plus a keyed Fletcher-style tag; it is a
//! faithful stand-in for an AEAD (the approved dependency set has no crypto
//! crate), and the sealing format is versioned so a real AEAD can replace it.

use crate::pipeline::SessionMode;
use medsen_sensor::{Controller, DecryptedCount, KeySchedule, ReportedPeak};
use medsen_units::Seconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The decryption capability: everything a practitioner needs to decrypt
/// counts, and nothing more.
#[derive(Debug, Clone, PartialEq)]
pub struct DecryptionCapability {
    /// Key rotation period (seconds); 0 encodes a static schedule.
    pub period_s: f64,
    /// Peak multiplication factor per period, in period order.
    pub multiplicities: Vec<u32>,
    /// Mean dip delay for period re-centring (seconds).
    pub dip_delay_s: f64,
}

impl DecryptionCapability {
    /// Derives the capability from a controller's installed schedule.
    ///
    /// # Panics
    ///
    /// Panics if the controller has no schedule installed.
    pub fn derive(controller: &Controller, dip_delay: Seconds) -> Self {
        let array = *controller.array();
        let schedule = controller
            .schedule()
            .expect("derive a capability after generating a schedule");
        match schedule {
            KeySchedule::Static(key) => Self {
                period_s: 0.0,
                multiplicities: vec![key.multiplicity(&array) as u32],
                dip_delay_s: dip_delay.value(),
            },
            KeySchedule::Periodic { period, keys } => Self {
                period_s: period.value(),
                multiplicities: keys.iter().map(|k| k.multiplicity(&array) as u32).collect(),
                dip_delay_s: dip_delay.value(),
            },
        }
    }

    /// Decrypts a peak report — the same per-period division the controller
    /// performs, reconstructed from the capability alone.
    pub fn decrypt(&self, peaks: &[ReportedPeak]) -> DecryptedCount {
        use std::collections::BTreeMap;
        let mut by_period: BTreeMap<usize, usize> = BTreeMap::new();
        for p in peaks {
            let t = (p.time_s - self.dip_delay_s).max(0.0);
            let idx = if self.period_s > 0.0 {
                (t / self.period_s).floor() as usize
            } else {
                0
            };
            *by_period.entry(idx).or_insert(0) += 1;
        }
        let mut estimated = 0.0;
        let mut periods = Vec::with_capacity(by_period.len());
        for (idx, count) in by_period {
            let multiplicity = if self.multiplicities.is_empty() {
                1
            } else {
                self.multiplicities[idx % self.multiplicities.len()].max(1) as usize
            };
            estimated += count as f64 / multiplicity as f64;
            periods.push((idx, count, multiplicity));
        }
        DecryptedCount { estimated, periods }
    }
}

/// Sealing/unsealing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealError {
    /// The envelope is too short to contain a header and tag.
    Truncated,
    /// Unknown envelope version.
    BadVersion(u8),
    /// Authentication tag mismatch (wrong secret or tampered envelope).
    BadTag,
    /// The plaintext did not decode as a capability.
    BadPayload,
}

impl core::fmt::Display for SealError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SealError::Truncated => write!(f, "sealed capability truncated"),
            SealError::BadVersion(v) => write!(f, "unsupported envelope version {v}"),
            SealError::BadTag => write!(f, "authentication failed (wrong secret or tampered)"),
            SealError::BadPayload => write!(f, "capability payload malformed"),
        }
    }
}

impl std::error::Error for SealError {}

/// An authenticated, encrypted capability envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedCapability {
    bytes: Vec<u8>,
}

const ENVELOPE_VERSION: u8 = 1;
const TAG_LEN: usize = 8;

fn keystream(secret: u64, nonce: u64, len: usize) -> Vec<u8> {
    // ChaCha12 keystream via StdRng, keyed by secret ⊕ nonce mixing.
    let mut rng = StdRng::seed_from_u64(secret ^ nonce.rotate_left(17));
    (0..len).map(|_| rng.random::<u8>()).collect()
}

fn tag(secret: u64, nonce: u64, data: &[u8]) -> [u8; TAG_LEN] {
    // Keyed tag: absorb the data into a second keystream-fed accumulator.
    let mut rng = StdRng::seed_from_u64(secret.rotate_left(31) ^ nonce);
    let mut acc = [0u8; TAG_LEN];
    for (i, &b) in data.iter().enumerate() {
        let k: u8 = rng.random();
        acc[i % TAG_LEN] = acc[i % TAG_LEN].wrapping_mul(31).wrapping_add(b ^ k);
    }
    // Final stir.
    for slot in acc.iter_mut() {
        let k: u8 = rng.random();
        *slot ^= k;
    }
    acc
}

fn encode_capability(cap: &DecryptionCapability) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&cap.period_s.to_be_bytes());
    out.extend_from_slice(&cap.dip_delay_s.to_be_bytes());
    out.extend_from_slice(&(cap.multiplicities.len() as u32).to_be_bytes());
    for m in &cap.multiplicities {
        out.extend_from_slice(&m.to_be_bytes());
    }
    out
}

fn decode_capability(bytes: &[u8]) -> Option<DecryptionCapability> {
    if bytes.len() < 20 {
        return None;
    }
    let period_s = f64::from_be_bytes(bytes[0..8].try_into().ok()?);
    let dip_delay_s = f64::from_be_bytes(bytes[8..16].try_into().ok()?);
    let n = u32::from_be_bytes(bytes[16..20].try_into().ok()?) as usize;
    if bytes.len() != 20 + 4 * n {
        return None;
    }
    let multiplicities = (0..n)
        .map(|i| {
            let s = 20 + 4 * i;
            u32::from_be_bytes(bytes[s..s + 4].try_into().expect("bounds checked"))
        })
        .collect();
    if !period_s.is_finite() || !dip_delay_s.is_finite() || period_s < 0.0 {
        return None;
    }
    Some(DecryptionCapability {
        period_s,
        multiplicities,
        dip_delay_s,
    })
}

impl SealedCapability {
    /// Seals a capability under a shared secret with a caller-chosen nonce
    /// (must be unique per seal; e.g. a session counter).
    pub fn seal(cap: &DecryptionCapability, shared_secret: u64, nonce: u64) -> Self {
        let plain = encode_capability(cap);
        let ks = keystream(shared_secret, nonce, plain.len());
        let cipher: Vec<u8> = plain.iter().zip(&ks).map(|(p, k)| p ^ k).collect();
        let mut bytes = Vec::with_capacity(1 + 8 + cipher.len() + TAG_LEN);
        bytes.push(ENVELOPE_VERSION);
        bytes.extend_from_slice(&nonce.to_be_bytes());
        bytes.extend_from_slice(&cipher);
        bytes.extend_from_slice(&tag(shared_secret, nonce, &cipher));
        Self { bytes }
    }

    /// Unseals with the shared secret.
    ///
    /// # Errors
    ///
    /// Returns a [`SealError`] on truncation, version mismatch, tag failure
    /// (wrong secret or tampering), or payload corruption.
    pub fn unseal(&self, shared_secret: u64) -> Result<DecryptionCapability, SealError> {
        if self.bytes.len() < 1 + 8 + TAG_LEN {
            return Err(SealError::Truncated);
        }
        let version = self.bytes[0];
        if version != ENVELOPE_VERSION {
            return Err(SealError::BadVersion(version));
        }
        let nonce = u64::from_be_bytes(self.bytes[1..9].try_into().expect("length checked"));
        let body = &self.bytes[9..self.bytes.len() - TAG_LEN];
        let got_tag = &self.bytes[self.bytes.len() - TAG_LEN..];
        if tag(shared_secret, nonce, body) != *got_tag {
            return Err(SealError::BadTag);
        }
        let ks = keystream(shared_secret, nonce, body.len());
        let plain: Vec<u8> = body.iter().zip(&ks).map(|(c, k)| c ^ k).collect();
        decode_capability(&plain).ok_or(SealError::BadPayload)
    }

    /// Envelope size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Envelopes are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Convenience: derive + seal a capability for a session mode, straight from
/// the controller.
///
/// # Panics
///
/// Panics if the controller has no schedule.
pub fn share_with_practitioner(
    controller: &Controller,
    dip_delay: Seconds,
    mode: SessionMode,
    shared_secret: u64,
    nonce: u64,
) -> SealedCapability {
    debug_assert!(
        mode == SessionMode::EncryptedDiagnosis,
        "plaintext sessions need no capability"
    );
    let cap = DecryptionCapability::derive(controller, dip_delay);
    SealedCapability::seal(&cap, shared_secret, nonce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_sensor::{ControllerConfig, ElectrodeArray};

    fn controller_with_schedule(seed: u64) -> Controller {
        let mut c = Controller::new(
            ElectrodeArray::paper_prototype(),
            ControllerConfig::paper_default(),
            seed,
        );
        c.generate_schedule(Seconds::new(20.0));
        c
    }

    fn peaks_at(times: &[f64]) -> Vec<ReportedPeak> {
        times
            .iter()
            .map(|&t| ReportedPeak {
                time_s: t,
                amplitude: 0.004,
                width_s: 0.01,
            })
            .collect()
    }

    #[test]
    fn capability_decrypts_like_the_controller() {
        let c = controller_with_schedule(1);
        let cap = DecryptionCapability::derive(&c, Seconds::new(0.3));
        let peaks = peaks_at(&[0.5, 1.0, 2.0, 6.0, 7.0, 11.0, 12.5, 16.0]);
        let own = c.decryptor_with_delay(Seconds::new(0.3)).decrypt(&peaks);
        let shared = cap.decrypt(&peaks);
        assert!((own.estimated - shared.estimated).abs() < 1e-9);
        assert_eq!(own.periods, shared.periods);
    }

    #[test]
    fn seal_unseal_round_trip() {
        let c = controller_with_schedule(2);
        let cap = DecryptionCapability::derive(&c, Seconds::new(0.37));
        let sealed = SealedCapability::seal(&cap, 0xDEADBEEF, 42);
        let opened = sealed.unseal(0xDEADBEEF).expect("correct secret");
        assert_eq!(opened, cap);
    }

    #[test]
    fn wrong_secret_is_rejected() {
        let c = controller_with_schedule(3);
        let cap = DecryptionCapability::derive(&c, Seconds::ZERO);
        let sealed = SealedCapability::seal(&cap, 111, 1);
        assert_eq!(sealed.unseal(222).unwrap_err(), SealError::BadTag);
    }

    #[test]
    fn tampered_envelope_is_rejected() {
        let c = controller_with_schedule(4);
        let cap = DecryptionCapability::derive(&c, Seconds::ZERO);
        let mut sealed = SealedCapability::seal(&cap, 99, 7);
        let mid = sealed.bytes.len() / 2;
        sealed.bytes[mid] ^= 0x10;
        assert_eq!(sealed.unseal(99).unwrap_err(), SealError::BadTag);
    }

    #[test]
    fn truncated_and_versioned_envelopes_are_rejected() {
        let c = controller_with_schedule(5);
        let cap = DecryptionCapability::derive(&c, Seconds::ZERO);
        let sealed = SealedCapability::seal(&cap, 99, 7);
        let short = SealedCapability {
            bytes: sealed.bytes[..8].to_vec(),
        };
        assert_eq!(short.unseal(99).unwrap_err(), SealError::Truncated);
        let mut wrong_version = sealed.clone();
        wrong_version.bytes[0] = 9;
        assert_eq!(
            wrong_version.unseal(99).unwrap_err(),
            SealError::BadVersion(9)
        );
    }

    #[test]
    fn capability_hides_electrode_identities() {
        // Two different selections with the same multiplicity produce
        // identical capabilities — the practitioner learns only the factor.
        use medsen_sensor::{CipherKey, ElectrodeId, ElectrodeSelection, FlowLevel, GainLevel};
        let array = ElectrodeArray::paper_prototype();
        let mk = |ids: &[u8]| {
            KeySchedule::Static(CipherKey {
                selection: ElectrodeSelection::new(
                    &array,
                    &ids.iter().map(|&i| ElectrodeId(i)).collect::<Vec<_>>(),
                )
                .expect("valid ids"),
                gains: vec![GainLevel::unity(); 9],
                flow: FlowLevel::nominal(),
            })
        };
        // Electrodes {1} and {5}: both non-lead, multiplicity 2.
        let cap_of = |schedule: &KeySchedule| match schedule {
            KeySchedule::Static(k) => DecryptionCapability {
                period_s: 0.0,
                multiplicities: vec![k.multiplicity(&array) as u32],
                dip_delay_s: 0.0,
            },
            KeySchedule::Periodic { .. } => unreachable!(),
        };
        assert_eq!(cap_of(&mk(&[1])), cap_of(&mk(&[5])));
    }

    #[test]
    fn different_nonces_give_different_ciphertexts() {
        let c = controller_with_schedule(6);
        let cap = DecryptionCapability::derive(&c, Seconds::ZERO);
        let a = SealedCapability::seal(&cap, 5, 1);
        let b = SealedCapability::seal(&cap, 5, 2);
        assert_ne!(a, b);
        assert_eq!(a.unseal(5).unwrap(), b.unseal(5).unwrap());
    }

    #[test]
    fn static_schedule_capability_works() {
        let mut c = Controller::new(
            ElectrodeArray::paper_prototype(),
            ControllerConfig::paper_default(),
            8,
        );
        c.plaintext_schedule();
        let cap = DecryptionCapability::derive(&c, Seconds::ZERO);
        assert_eq!(cap.period_s, 0.0);
        assert_eq!(cap.multiplicities, vec![1]);
        let d = cap.decrypt(&peaks_at(&[0.1, 0.2, 0.3]));
        assert_eq!(d.rounded(), 3);
    }
}
