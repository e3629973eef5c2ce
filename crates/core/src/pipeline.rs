//! The end-to-end diagnostic pipeline (Fig. 2).
//!
//! One session walks the full MedSen path: the patient's diluted blood is
//! mixed with their password beads, pumped through the channel, acquired
//! under the cipher, CSV-serialized and LZW-compressed on the phone,
//! uploaded (modeled 4G), peak-analyzed in the cloud, and the peak report is
//! returned to the controller for decryption and a threshold verdict — with
//! the paper's timing breakdown collected along the way.

use crate::diagnostics::{DiagnosticRule, Verdict};
use crate::password::{CytoPassword, PasswordAlphabet};
use medsen_cloud::{AnalysisServer, AuthDecision, AuthService, BeadSignature};
use medsen_dsp::classify::Classifier;
use medsen_microfluidics::{
    mix_password_beads, ChannelGeometry, ParticleClass, ParticleKind, PeristalticPump, SampleSpec,
    TransportSimulator,
};
use medsen_phone::profile::DeviceProfile;
use medsen_phone::{
    compress, trace_from_csv, trace_to_csv, CompressionStats, Frame, MessageType, NetworkLink,
};
use medsen_sensor::{Controller, ControllerConfig, EncryptedAcquisition};
use medsen_units::{Microliters, Seconds};
use medsen_wire::{JsonWire, WireCodec};
use std::time::Instant;

/// Whether a session runs the cipher (diagnosis) or the encryption-off
/// authentication path (Sec. V: "the bead sample is fed to MedSen's
/// bio-sensor with the bio-sensor level encryption turned off").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionMode {
    /// Encrypted acquisition; the controller decrypts the returned count.
    EncryptedDiagnosis,
    /// Plaintext acquisition; the server classifies beads and authenticates.
    PlaintextAuthentication,
}

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Deterministic seed for transport, noise, and key generation.
    pub seed: u64,
    /// Blood dilution into PBS before the run.
    pub dilution: f64,
    /// Acquisition window.
    pub duration: Seconds,
    /// Session mode.
    pub mode: SessionMode,
    /// Controller policy.
    pub controller: ControllerConfig,
}

impl PipelineConfig {
    /// A representative one-minute encrypted diagnostic run. The 20 000×
    /// dilution keeps the particle rate low enough that the multiplied,
    /// width-randomized dip trains of different particles rarely overlap —
    /// the regime impedance cytometry needs anyway.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            seed,
            dilution: 20_000.0,
            duration: Seconds::new(60.0),
            mode: SessionMode::EncryptedDiagnosis,
            controller: ControllerConfig::paper_default(),
        }
    }

    /// An authentication run (plaintext path).
    pub fn auth_default(seed: u64) -> Self {
        Self {
            mode: SessionMode::PlaintextAuthentication,
            ..Self::paper_default(seed)
        }
    }
}

/// Post-acquisition timing breakdown (the paper's ≈ 0.2 s claim covers the
/// signal-processing path, not the fluidics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingBreakdown {
    /// Acquisition (fluidics) window — excluded from the end-to-end figure.
    pub acquisition_s: f64,
    /// Measured wall-clock of CSV serialization + LZW compression.
    pub compression_s: f64,
    /// Modeled 4G upload of the compressed payload.
    pub upload_s: f64,
    /// Modeled cloud analysis time (Fig. 14 computer profile).
    pub analysis_s: f64,
    /// Modeled download of the peak report.
    pub download_s: f64,
    /// Measured wall-clock of controller-side decryption.
    pub decryption_s: f64,
}

impl TimingBreakdown {
    /// The paper's end-to-end metric: everything after acquisition.
    pub fn post_acquisition_s(&self) -> f64 {
        self.compression_s + self.upload_s + self.analysis_s + self.download_s + self.decryption_s
    }
}

/// Everything one session produces.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Session mode.
    pub mode: SessionMode,
    /// The user the pipette belongs to.
    pub user_id: String,
    /// Ground truth: blood cells that actually crossed the sensor.
    pub true_cells: usize,
    /// Ground truth: password beads that actually crossed the sensor.
    pub true_beads: usize,
    /// Peaks the cloud observed (the encrypted count).
    pub peak_count: usize,
    /// Decrypted particle count (encrypted mode only).
    pub decoded_total: Option<u64>,
    /// Decrypted *cell* count after subtracting the expected bead dose.
    pub decoded_cells: Option<u64>,
    /// Diagnostic verdict (encrypted mode only).
    pub verdict: Option<Verdict>,
    /// Authentication outcome (plaintext mode only).
    pub auth: Option<AuthDecision>,
    /// Bead signature the server measured (plaintext mode only).
    pub measured_signature: Option<BeadSignature>,
    /// Compression statistics of the uploaded payload.
    pub compression: CompressionStats,
    /// Timing breakdown.
    pub timing: TimingBreakdown,
}

/// The assembled MedSen system.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    alphabet: PasswordAlphabet,
    rule: DiagnosticRule,
    server: AnalysisServer,
    auth: AuthService,
    classifier: Option<Classifier>,
    link: NetworkLink,
    cloud_profile: DeviceProfile,
    session_counter: u64,
}

impl Pipeline {
    /// Builds a pipeline with the paper's defaults.
    pub fn new(config: PipelineConfig, alphabet: PasswordAlphabet, rule: DiagnosticRule) -> Self {
        Self {
            config,
            alphabet,
            rule,
            server: AnalysisServer::paper_default(),
            auth: AuthService::new(),
            classifier: None,
            link: NetworkLink::lte_uplink(),
            cloud_profile: DeviceProfile::paper_computer(),
            session_counter: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &PasswordAlphabet {
        &self.alphabet
    }

    /// The server-side auth service.
    pub fn auth(&self) -> &AuthService {
        &self.auth
    }

    /// Mutable access to the server-side auth service (for enrollment).
    pub fn auth_mut(&mut self) -> &mut AuthService {
        &mut self.auth
    }

    /// The volume of sample the pump processes during one session.
    pub fn processed_volume(&self) -> Microliters {
        PeristalticPump::paper_default()
            .profile()
            .rate_at(Seconds::ZERO)
            .volume_after(self.config.duration)
    }

    /// Trains the bead/cell classifier from plaintext calibration runs —
    /// the "training" the paper does when establishing Figs. 15–16. Must be
    /// called before authentication sessions.
    pub fn calibrate_classifier(&mut self) {
        let kinds = [
            ParticleKind::Bead358,
            ParticleKind::Bead78,
            ParticleKind::RedBloodCell,
            ParticleKind::WhiteBloodCell,
        ];
        let mut training: Vec<(&str, Vec<medsen_dsp::features::FeatureVector>)> = Vec::new();
        for (i, kind) in kinds.into_iter().enumerate() {
            let seed = self.config.seed.wrapping_add(1000 + i as u64);
            let mut sim = TransportSimulator::new(
                ChannelGeometry::paper_default(),
                PeristalticPump::paper_default(),
                seed,
            );
            let duration = Seconds::new(90.0);
            let events = sim.run_exact_count(kind, 80, duration);
            let mut controller = Controller::new(
                *EncryptedAcquisition::paper_default(seed).array(),
                self.config.controller,
                seed,
            );
            let schedule = controller.plaintext_schedule().clone();
            let mut acq = EncryptedAcquisition::paper_default(seed);
            let out = acq.run(&events, &schedule, duration);
            let report = self.server.analyze(&out.trace);
            let vectors: Vec<medsen_dsp::features::FeatureVector> = report
                .peaks
                .iter()
                .enumerate()
                .map(|(idx, p)| medsen_dsp::features::FeatureVector {
                    index: idx,
                    amplitudes: p.features.clone(),
                })
                .collect();
            training.push((kind.label(), vectors));
        }
        self.classifier = Some(Classifier::train(&training).expect("calibration produces peaks"));
    }

    /// Whether the classifier has been calibrated.
    pub fn is_calibrated(&self) -> bool {
        self.classifier.is_some()
    }

    /// Runs one complete diagnostic session for a user/password pair.
    ///
    /// # Panics
    ///
    /// Panics if an authentication session runs before
    /// [`Pipeline::calibrate_classifier`].
    pub fn run_session(&mut self, user_id: &str, password: &CytoPassword) -> SessionReport {
        self.session_counter += 1;
        let seed = self
            .config
            .seed
            .wrapping_add(self.session_counter.wrapping_mul(7919));

        // 1. Sample preparation: dilute blood, mix in the password beads.
        let blood = SampleSpec::whole_blood_dilution(Microliters::new(10.0), self.config.dilution);
        let doses = password.to_doses(&self.alphabet);
        let mixed = mix_password_beads(&blood, &doses).expect("password doses are valid beads");

        // 2. Fluidics: transport the sample through the channel.
        let mut sim = TransportSimulator::new(
            ChannelGeometry::paper_default(),
            PeristalticPump::paper_default(),
            seed,
        );
        let events = sim.run(&mixed, self.config.duration);

        // 3. Trusted acquisition under the session key schedule.
        let mut acq = EncryptedAcquisition::paper_default(seed);
        let mut controller = Controller::new(*acq.array(), self.config.controller, seed);
        let schedule = match self.config.mode {
            SessionMode::EncryptedDiagnosis => {
                controller.generate_schedule(self.config.duration).clone()
            }
            SessionMode::PlaintextAuthentication => controller.plaintext_schedule().clone(),
        };
        let output = acq.run(&events, &schedule, self.config.duration);
        let true_cells = output
            .true_counts()
            .iter()
            .filter(|(k, _)| k.class() == ParticleClass::Cell)
            .map(|(_, &n)| n)
            .sum();
        let true_beads = output
            .true_counts()
            .iter()
            .filter(|(k, _)| k.class() == ParticleClass::Bead)
            .map(|(_, &n)| n)
            .sum();

        // 4. Phone relay: CSV + LZW, modeled 4G upload.
        let t0 = Instant::now();
        let csv = trace_to_csv(&output.trace);
        let compressed = compress(csv.as_bytes());
        let compression_s = t0.elapsed().as_secs_f64();
        let compression = CompressionStats {
            raw_bytes: csv.len(),
            compressed_bytes: compressed.len(),
        };
        let upload_s = self.link.transfer_time(compressed.len()).value();

        // 5. Cloud: decompress, parse, analyze. Analysis wall time is
        //    measured here but the *reported* figure uses the Fig. 14 cloud
        //    profile so results are hardware-independent.
        let restored = medsen_phone::decompress(&compressed).expect("phone-encoded stream");
        let csv_text = String::from_utf8(restored).expect("CSV is UTF-8");
        let received = trace_from_csv(&csv_text).expect("phone-encoded CSV");
        let report = self.server.analyze(&received);
        let analysis_s = self.cloud_profile.predict(received.total_samples()).value();

        // The result travels back as a JSON body in an AnalysisResult frame
        // (cloud → phone → sensor), so the return path is as concrete as the
        // uplink.
        let result_json = JsonWire
            .encode(&report)
            .expect("peak reports are JSON-safe");
        let result_frame = Frame::new(MessageType::AnalysisResult, result_json);
        let wire = result_frame.encode();
        let download_s = self.link.transfer_time(wire.len()).value();
        let (received_frame, _) = Frame::decode(&wire).expect("frame round-trips");
        let report: medsen_cloud::PeakReport = JsonWire
            .decode(&received_frame.payload)
            .expect("phone-encoded report parses");

        // 6. Mode-specific tail: decrypt + diagnose, or authenticate.
        let mut decoded_total = None;
        let mut decoded_cells = None;
        let mut verdict = None;
        let mut auth = None;
        let mut measured_signature = None;
        let t1 = Instant::now();
        match self.config.mode {
            SessionMode::EncryptedDiagnosis => {
                // Re-centre dips onto their arrival period: mean dip delay is
                // half the electrode-array span at the nominal velocity.
                let geometry = ChannelGeometry::paper_default();
                let nominal_v = PeristalticPump::paper_default().velocity_at(
                    Seconds::ZERO,
                    geometry.pore_width,
                    geometry.pore_height,
                );
                let delay = Seconds::new(acq.array().span(&geometry).value() / (2.0 * nominal_v));
                let decryptor = controller.decryptor_with_delay(delay);
                let decrypted = decryptor.decrypt(&report.reported_peaks());
                let total = decrypted.rounded();
                // The controller knows the pipette's bead dose and removes it
                // from the decoded total before diagnosis.
                let expected_beads: f64 = doses
                    .iter()
                    .map(|d| d.concentration.expected_count(self.processed_volume()))
                    .sum();
                let cells = (total as f64 - expected_beads).max(0.0).round() as u64;
                verdict = Some(self.rule.evaluate_count(
                    cells,
                    self.processed_volume(),
                    self.config.dilution,
                ));
                decoded_total = Some(total);
                decoded_cells = Some(cells);
            }
            SessionMode::PlaintextAuthentication => {
                let classifier = self
                    .classifier
                    .as_ref()
                    .expect("calibrate_classifier before authentication sessions");
                let signature = self.auth.measure_signature(&report, classifier);
                auth = Some(self.auth.authenticate(&signature));
                measured_signature = Some(signature);
            }
        }
        let decryption_s = t1.elapsed().as_secs_f64();

        SessionReport {
            mode: self.config.mode,
            user_id: user_id.to_owned(),
            true_cells,
            true_beads,
            peak_count: report.peak_count(),
            decoded_total,
            decoded_cells,
            verdict,
            auth,
            measured_signature,
            compression,
            timing: TimingBreakdown {
                acquisition_s: self.config.duration.value(),
                compression_s,
                upload_s,
                analysis_s,
                download_s,
                decryption_s,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::password::PasswordAlphabet;

    fn pipeline(mode: SessionMode, seed: u64) -> Pipeline {
        // Encrypted-diagnosis tests use a low-dose identifier alphabet: the
        // multiplied, width-stretched dip trains of the cipher need a sparse
        // particle stream to stay separable at the 450 Hz output rate (the
        // paper's own encrypted traces carry one bead per frame).
        let (config, alphabet) = match mode {
            SessionMode::EncryptedDiagnosis => (
                PipelineConfig {
                    duration: Seconds::new(30.0),
                    ..PipelineConfig::paper_default(seed)
                },
                PasswordAlphabet::new(
                    vec![
                        medsen_microfluidics::ParticleKind::Bead358,
                        medsen_microfluidics::ParticleKind::Bead78,
                    ],
                    medsen_units::Concentration::new(100.0),
                    8,
                )
                .expect("valid low-dose alphabet"),
            ),
            SessionMode::PlaintextAuthentication => (
                PipelineConfig {
                    duration: Seconds::new(20.0),
                    ..PipelineConfig::auth_default(seed)
                },
                PasswordAlphabet::paper_default(),
            ),
        };
        Pipeline::new(config, alphabet, DiagnosticRule::cd4_staging())
    }

    fn password(p: &Pipeline, levels: Vec<u8>) -> CytoPassword {
        CytoPassword::new(p.alphabet(), levels).expect("valid test password")
    }

    #[test]
    fn encrypted_session_recovers_particle_count() {
        let mut p = pipeline(SessionMode::EncryptedDiagnosis, 42);
        let pw = password(&p, vec![1, 1]);
        let report = p.run_session("alice", &pw);
        let truth = (report.true_cells + report.true_beads) as f64;
        let decoded = report.decoded_total.expect("encrypted mode decodes") as f64;
        assert!(truth > 10.0, "expected a populated run, got {truth}");
        let rel_err = (decoded - truth).abs() / truth;
        assert!(
            rel_err < 0.30,
            "decoded {decoded} vs truth {truth} (err {rel_err:.2})"
        );
        assert!(report.verdict.is_some());
    }

    #[test]
    fn encrypted_peak_count_exceeds_true_count() {
        // The whole point of the cipher: the cloud sees multiplied peaks.
        let mut p = pipeline(SessionMode::EncryptedDiagnosis, 43);
        let pw = password(&p, vec![1, 1]);
        let report = p.run_session("alice", &pw);
        let truth = report.true_cells + report.true_beads;
        assert!(
            report.peak_count as f64 > 1.5 * truth as f64,
            "peaks {} vs truth {truth}",
            report.peak_count
        );
    }

    #[test]
    fn auth_session_accepts_the_enrolled_user() {
        let mut p = pipeline(SessionMode::PlaintextAuthentication, 44);
        p.calibrate_classifier();
        let alice = password(&p, vec![2, 4]);
        let bob = password(&p, vec![6, 1]);
        let volume = p.processed_volume();
        let alphabet = p.alphabet().clone();
        p.auth_mut()
            .enroll("alice", alice.expected_signature(&alphabet, volume));
        p.auth_mut()
            .enroll("bob", bob.expected_signature(&alphabet, volume));
        let report = p.run_session("alice", &alice);
        assert_eq!(
            report.auth,
            Some(AuthDecision::Accepted {
                user_id: "alice".into()
            })
        );
    }

    #[test]
    fn auth_session_rejects_a_wrong_password() {
        let mut p = pipeline(SessionMode::PlaintextAuthentication, 45);
        p.calibrate_classifier();
        let alice = password(&p, vec![2, 4]);
        let volume = p.processed_volume();
        let alphabet = p.alphabet().clone();
        p.auth_mut()
            .enroll("alice", alice.expected_signature(&alphabet, volume));
        // An attacker with buffer only (no beads → empty signature path) or
        // the wrong mixture must not authenticate as alice.
        let wrong = password(&p, vec![7, 1]);
        let report = p.run_session("mallory", &wrong);
        assert_ne!(
            report.auth,
            Some(AuthDecision::Accepted {
                user_id: "alice".into()
            })
        );
    }

    #[test]
    fn compression_achieves_paper_band() {
        let mut p = pipeline(SessionMode::EncryptedDiagnosis, 46);
        let pw = password(&p, vec![1, 1]);
        let report = p.run_session("alice", &pw);
        let ratio = report.compression.ratio();
        assert!(ratio > 2.0, "compression ratio {ratio}");
    }

    #[test]
    fn timing_breakdown_is_populated_and_positive() {
        let mut p = pipeline(SessionMode::EncryptedDiagnosis, 47);
        let pw = password(&p, vec![1, 1]);
        let report = p.run_session("alice", &pw);
        let t = report.timing;
        assert!(t.compression_s > 0.0);
        assert!(t.upload_s > 0.0);
        assert!(t.analysis_s > 0.0);
        assert!(t.decryption_s >= 0.0);
        assert!(
            t.post_acquisition_s() < 60.0,
            "post-acq {}",
            t.post_acquisition_s()
        );
    }

    #[test]
    #[should_panic(expected = "calibrate_classifier")]
    fn auth_without_calibration_panics() {
        let mut p = pipeline(SessionMode::PlaintextAuthentication, 48);
        let pw = password(&p, vec![2, 4]);
        let _ = p.run_session("alice", &pw);
    }

    #[test]
    fn processed_volume_matches_pump_math() {
        let p = pipeline(SessionMode::EncryptedDiagnosis, 49);
        let expected = 0.08 * p.config().duration.value() / 60.0;
        let v = p.processed_volume().value();
        assert!((v - expected).abs() < 1e-12, "v = {v}, expected {expected}");
    }
}
