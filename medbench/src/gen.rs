//! Seeded input generation for the three clinic workloads.
//!
//! Everything the program under test receives is built here from the
//! workload seed, together with the oracle answer for every request,
//! computed by calling the cloud tier directly (no gateway, no wire).
//! The same seed always yields byte-identical inputs; [`Digest`] folds
//! them into one number the run prints so two runs can be compared.

use medsen_cloud::auth::{measure_signature, AuthDecision, AuthService, BeadSignature};
use medsen_cloud::service::{CloudService, Request};
use medsen_cloud::{AnalysisServer, FlushPolicy, PeakReport};
use medsen_dsp::classify::Classifier;
use medsen_dsp::FeatureVector;
use medsen_impedance::SignalTrace;
use medsen_microfluidics::{ChannelGeometry, ParticleKind, PeristalticPump, TransportSimulator};
use medsen_sensor::{Controller, ControllerConfig, EncryptedAcquisition};
use medsen_units::Seconds;
use medsen_wire::WireFormat;
use std::path::Path;

/// Shards of every service the benchmark builds (the production default).
pub const SHARDS: usize = 8;
/// Group-commit policy of the durable workloads.
pub const FLUSH: FlushPolicy = FlushPolicy::EveryN(8);

/// Distinct `diagnose_long` traces: more than the cloud's 128-entry
/// response cache, so requests sent in pool order always miss it.
pub const DIAGNOSE_POOL: usize = 160;
/// Paper-length acquisition: 60 s at 450 Hz on 8 carriers.
pub const DIAGNOSE_SECONDS: f64 = 60.0;
/// Identities the `enroll_durable` data directory holds before the run.
pub const ENROLL_PRIOR: usize = 20_000;
/// Enrollments folded into the input digest (the stream is unbounded).
const ENROLL_DIGESTED: usize = 4096;
/// Distinct `clinic_mix` sessions before the plan repeats.
pub const CLINIC_POOL: usize = 256;
/// Short authentication acquisition per clinic session.
const CLINIC_SECONDS: f64 = 3.0;
/// Symbol drop rate of the one-way sessions and failure rate of the
/// flaky two-way links in `clinic_mix`.
pub const CLINIC_LOSS: f64 = 0.10;
/// Enrolled identities in the `clinic_mix` store that match no session
/// (they make the sharded auth scan realistic).
const CLINIC_PADDING: usize = 2000;

/// SplitMix64: a small, portable, seedable generator, so the inputs do
/// not depend on any library's RNG stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A seed for sub-stream `stream` of the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// FNV-1a over 64-bit words: a stable fingerprint of generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.word(u64::from_le_bytes(tail));
    }

    pub fn request(&mut self, request: &Request) {
        let body = medsen_cloud::wire::encode_request(WireFormat::Binary, request)
            .expect("generated requests encode");
        self.bytes(&body);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// One encrypted-diagnosis upload and the report a direct analysis of
/// the same trace produces.
pub struct DiagnoseCase {
    pub request: Request,
    pub expected: PeakReport,
}

/// Runs `f(i)` for `i in 0..n` on up to `threads` threads, keeping the
/// results in index order (each item depends only on its index).
fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.clamp(1, n.max(1));
    let mut parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                scope.spawn(move || (t..n).step_by(threads).map(|i| (i, f(i))).collect())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let mut all: Vec<(usize, T)> = parts.iter_mut().flat_map(std::mem::take).collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, item)| item).collect()
}

/// A 60 s encrypted-diagnosis trace from the dongle's own acquisition
/// path: transport → controller key schedule → encrypted acquisition.
fn diagnose_trace(seed: u64) -> SignalTrace {
    let mut rng = Rng::new(seed);
    let duration = Seconds::new(DIAGNOSE_SECONDS);
    let mut sim = TransportSimulator::new(
        ChannelGeometry::paper_default(),
        PeristalticPump::paper_default(),
        seed,
    );
    let mut events = sim.run_exact_count(
        ParticleKind::RedBloodCell,
        20 + rng.below(30) as usize,
        duration,
    );
    events.extend(sim.run_exact_count(ParticleKind::Bead78, 5 + rng.below(15) as usize, duration));
    events.sort_by(|a, b| a.time.value().total_cmp(&b.time.value()));
    let mut acq = EncryptedAcquisition::paper_default(seed);
    let mut controller = Controller::new(*acq.array(), ControllerConfig::paper_default(), seed);
    let schedule = controller.generate_schedule(duration).clone();
    acq.run(&events, &schedule, duration).trace
}

pub fn diagnose_inputs(seed: u64, threads: usize) -> (Vec<DiagnoseCase>, u64) {
    let server = AnalysisServer::paper_default();
    let cases = par_map(DIAGNOSE_POOL, threads, |i| {
        let trace = diagnose_trace(mix(seed, 0x100 + i as u64));
        let expected = server.analyze(&trace);
        DiagnoseCase {
            request: Request::Analyze {
                trace,
                authenticate: false,
            },
            expected,
        }
    });
    let mut digest = Digest::default();
    for case in &cases {
        digest.request(&case.request);
    }
    (cases, digest.value())
}

/// A bead signature for generated enrollments. Its 7.8 µm count sits
/// far above any clinic user's band, so no clinic trace matches it.
fn enroll_signature(rng: &mut Rng) -> BeadSignature {
    BeadSignature::from_counts(&[
        (ParticleKind::Bead358, 1 + rng.below(60)),
        (ParticleKind::Bead78, 50 + rng.below(50)),
    ])
}

/// The `k`-th enrollment of the `enroll_durable` storm: a fresh
/// identifier every time, about 100 bytes on the binary wire.
pub fn enroll_request(seed: u64, k: usize) -> Request {
    let mut rng = Rng::new(mix(seed, 0x200 + k as u64));
    Request::Enroll {
        identifier: format!("clinic-{:08x}-patient-{k:08}", seed as u32),
        signature: enroll_signature(&mut rng),
    }
}

fn prior_identifier(seed: u64, j: usize) -> String {
    format!("prior-{:08x}-patient-{j:08}", seed as u32)
}

/// Fills `dir` with a durable service's state: `prior` enrollments,
/// three quarters compacted into snapshots and the rest left in the
/// write-ahead log, so opening the directory recovers both.
fn populate(dir: &Path, entries: &[(String, BeadSignature)]) -> Result<(), String> {
    let service = CloudService::with_storage(dir, SHARDS, FLUSH).map_err(|e| e.to_string())?;
    let cut = entries.len() * 3 / 4;
    for (i, (identifier, signature)) in entries.iter().enumerate() {
        if i == cut {
            service.compact_storage().map_err(|e| e.to_string())?;
        }
        service.handle_shared(Request::Enroll {
            identifier: identifier.clone(),
            signature: signature.clone(),
        });
    }
    service.flush_storage();
    Ok(())
}

pub struct EnrollInputs {
    pub seed: u64,
    /// Identities per shard the pre-populated store holds.
    pub prior_per_shard: Vec<usize>,
}

pub fn enroll_inputs(seed: u64, pristine: &Path) -> Result<(EnrollInputs, u64), String> {
    let mut rng = Rng::new(mix(seed, 0x300));
    let entries: Vec<(String, BeadSignature)> = (0..ENROLL_PRIOR)
        .map(|j| (prior_identifier(seed, j), enroll_signature(&mut rng)))
        .collect();
    populate(pristine, &entries)?;
    let mut prior_per_shard = vec![0; SHARDS];
    let mut digest = Digest::default();
    for (identifier, signature) in &entries {
        prior_per_shard[medsen_cloud::shard_index(identifier, SHARDS)] += 1;
        digest.request(&Request::Enroll {
            identifier: identifier.clone(),
            signature: signature.clone(),
        });
    }
    for k in 0..ENROLL_DIGESTED {
        digest.request(&enroll_request(seed, k));
    }
    Ok((
        EnrollInputs {
            seed,
            prior_per_shard,
        },
        digest.value(),
    ))
}

/// How a clinic session reaches the gateway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Uplink {
    /// Two-way, binary wire, over a flaky link.
    Binary,
    /// Two-way, JSON wire, over a flaky link.
    Json,
    /// One-way fountain stream with dropped symbols.
    Fountain,
}

/// One clinic session: an authenticating upload of the user's bead
/// signature, then a fetch and an integrity check of the stored record.
pub struct ClinicSession {
    pub uplink: Uplink,
    pub request: Request,
    pub user: String,
    pub expected: PeakReport,
    pub signature: BeadSignature,
}

/// Clinic users and their enrolled bead signatures. The ±30 % bands are
/// pairwise disjoint, so a trace carrying one user's beads matches only
/// that user.
const CLINIC_USERS: [(&str, u64, u64); 8] = [
    ("ana", 5, 0),
    ("bo", 10, 0),
    ("cleo", 20, 0),
    ("dee", 0, 5),
    ("eli", 0, 10),
    ("fay", 0, 20),
    ("gus", 10, 10),
    ("hal", 10, 20),
];

pub struct ClinicInputs {
    pub classifier: Classifier,
    pub sessions: Vec<ClinicSession>,
    /// Every enrolled identity (users plus padding) with its signature.
    pub enrolled: Vec<(String, BeadSignature)>,
}

fn user_signature(b358: u64, b78: u64) -> BeadSignature {
    let mut counts = Vec::new();
    if b358 > 0 {
        counts.push((ParticleKind::Bead358, b358));
    }
    if b78 > 0 {
        counts.push((ParticleKind::Bead78, b78));
    }
    BeadSignature::from_counts(&counts)
}

/// A plaintext-authentication acquisition (lead electrode, unity gain:
/// one honest peak per particle) of the given particles.
fn plaintext_trace(seed: u64, particles: &[(ParticleKind, usize)], seconds: f64) -> SignalTrace {
    let duration = Seconds::new(seconds);
    let mut sim = TransportSimulator::new(
        ChannelGeometry::paper_default(),
        PeristalticPump::paper_default(),
        seed,
    );
    let mut events = Vec::new();
    for &(kind, count) in particles {
        events.extend(sim.run_exact_count(kind, count, duration));
    }
    events.sort_by(|a, b| a.time.value().total_cmp(&b.time.value()));
    let mut acq = EncryptedAcquisition::paper_default(seed);
    let mut controller = Controller::new(*acq.array(), ControllerConfig::paper_default(), seed);
    let schedule = controller.plaintext_schedule().clone();
    acq.run(&events, &schedule, duration).trace
}

/// Trains the bead/cell classifier from plaintext calibration runs, the
/// way the deployed pipeline calibrates.
fn train_classifier(seed: u64, server: &AnalysisServer) -> Result<Classifier, String> {
    let kinds = [
        ParticleKind::Bead358,
        ParticleKind::Bead78,
        ParticleKind::RedBloodCell,
        ParticleKind::WhiteBloodCell,
    ];
    let training: Vec<(&str, Vec<FeatureVector>)> = kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let trace = plaintext_trace(mix(seed, 0x400 + i as u64), &[(kind, 80)], 90.0);
            let vectors = server
                .analyze(&trace)
                .peaks
                .into_iter()
                .enumerate()
                .map(|(index, p)| FeatureVector {
                    index,
                    amplitudes: p.features,
                })
                .collect();
            (kind.label(), vectors)
        })
        .collect();
    Classifier::train(&training).map_err(|e| format!("classifier training failed: {e:?}"))
}

pub fn clinic_inputs(
    seed: u64,
    threads: usize,
    pristine: &Path,
) -> Result<(ClinicInputs, u64), String> {
    let server = AnalysisServer::paper_default();
    let classifier = train_classifier(seed, &server)?;
    let mut rng = Rng::new(mix(seed, 0x500));
    let mut enrolled: Vec<(String, BeadSignature)> = CLINIC_USERS
        .iter()
        .map(|&(user, b358, b78)| (user.to_string(), user_signature(b358, b78)))
        .collect();
    for j in 0..CLINIC_PADDING {
        enrolled.push((prior_identifier(seed, j), enroll_signature(&mut rng)));
    }
    let mut auth = AuthService::new();
    for (identifier, signature) in &enrolled {
        auth.enroll(identifier.clone(), signature.clone());
    }
    // Each distinct session draws traces until the direct pipeline
    // authenticates the intended user, so no request of the workload is
    // expected to be refused.
    let fresh = par_map(CLINIC_POOL, threads, |i| -> Result<ClinicSession, String> {
        let mut rng = Rng::new(mix(seed, 0x600 + i as u64));
        let (user, b358, b78) = CLINIC_USERS[rng.below(CLINIC_USERS.len() as u64) as usize];
        let uplink = match i % 4 {
            0 => Uplink::Fountain,
            1 => Uplink::Json,
            _ => Uplink::Binary,
        };
        for _ in 0..64 {
            let mut particles = vec![(ParticleKind::RedBloodCell, 2 + rng.below(4) as usize)];
            if b358 > 0 {
                particles.push((ParticleKind::Bead358, b358 as usize));
            }
            if b78 > 0 {
                particles.push((ParticleKind::Bead78, b78 as usize));
            }
            let trace = plaintext_trace(rng.next_u64(), &particles, CLINIC_SECONDS);
            let expected = server.analyze(&trace);
            let signature = measure_signature(&expected, &classifier);
            if auth.authenticate(&signature)
                == (AuthDecision::Accepted {
                    user_id: user.to_string(),
                })
            {
                return Ok(ClinicSession {
                    uplink,
                    request: Request::Analyze {
                        trace,
                        authenticate: true,
                    },
                    user: user.to_string(),
                    expected,
                    signature,
                });
            }
        }
        Err(format!("clinic session {i}: no trace authenticated {user}"))
    });
    let mut sessions = Vec::with_capacity(CLINIC_POOL);
    for (i, session) in fresh.into_iter().enumerate() {
        let mut session = session?;
        // One upload in eight repeats, byte for byte, the trace of the
        // session four before it (same uplink), so the cache can hit.
        if i % 8 == 7 {
            let earlier: &ClinicSession = &sessions[i - 4];
            session = ClinicSession {
                uplink: earlier.uplink,
                request: earlier.request.clone(),
                user: earlier.user.clone(),
                expected: earlier.expected.clone(),
                signature: earlier.signature.clone(),
            };
        }
        sessions.push(session);
    }
    let mut digest = Digest::default();
    for (identifier, signature) in &enrolled {
        digest.request(&Request::Enroll {
            identifier: identifier.clone(),
            signature: signature.clone(),
        });
    }
    for session in &sessions {
        digest.word(session.uplink as u64);
        digest.request(&session.request);
    }
    populate(pristine, &enrolled)?;
    Ok((
        ClinicInputs {
            classifier,
            sessions,
            enrolled,
        },
        digest.value(),
    ))
}
