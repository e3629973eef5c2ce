//! Integration: the practitioner key-sharing extension end to end.

use medsen::cloud::AnalysisServer;
use medsen::core::sharing::{DecryptionCapability, SealedCapability};
use medsen::microfluidics::{ChannelGeometry, ParticleKind, PeristalticPump, TransportSimulator};
use medsen::sensor::{Controller, ControllerConfig, EncryptedAcquisition};
use medsen::units::Seconds;

struct SessionArtifacts {
    truth: usize,
    report: medsen::cloud::PeakReport,
    controller: Controller,
    delay: Seconds,
}

fn run_encrypted_session(seed: u64) -> SessionArtifacts {
    let duration = Seconds::new(30.0);
    let mut sim = TransportSimulator::new(
        ChannelGeometry::paper_default(),
        PeristalticPump::paper_default(),
        seed,
    );
    let events = sim.run_exact_count(ParticleKind::Bead78, 18, duration);
    let mut acq = EncryptedAcquisition::paper_default(seed);
    let mut controller = Controller::new(*acq.array(), ControllerConfig::paper_default(), seed);
    let schedule = controller.generate_schedule(duration).clone();
    let out = acq.run(&events, &schedule, duration);
    let report = AnalysisServer::paper_default().analyze(&out.trace);
    let geometry = ChannelGeometry::paper_default();
    let v = PeristalticPump::paper_default().velocity_at(
        Seconds::ZERO,
        geometry.pore_width,
        geometry.pore_height,
    );
    let delay = Seconds::new(acq.array().span(&geometry).value() / (2.0 * v));
    SessionArtifacts {
        truth: out.true_total(),
        report,
        controller,
        delay,
    }
}

#[test]
fn shared_capability_decrypts_as_well_as_the_controller() {
    let session = run_encrypted_session(8080);
    let own = session
        .controller
        .decryptor_with_delay(session.delay)
        .decrypt(&session.report.reported_peaks());

    let capability = DecryptionCapability::derive(&session.controller, session.delay);
    let sealed = SealedCapability::seal(&capability, 0xFEED, 1);
    let practitioner_cap = sealed.unseal(0xFEED).expect("correct secret");
    let remote = practitioner_cap.decrypt(&session.report.reported_peaks());

    assert_eq!(own.rounded(), remote.rounded());
    let err = (remote.rounded() as f64 - session.truth as f64).abs() / session.truth as f64;
    assert!(err < 0.25, "remote decode error {err}");
}

#[test]
fn capability_survives_serialization_but_not_wrong_secrets() {
    let session = run_encrypted_session(8081);
    let capability = DecryptionCapability::derive(&session.controller, session.delay);
    let sealed = SealedCapability::seal(&capability, 42, 9);

    assert!(sealed.unseal(43).is_err());
    assert_eq!(sealed.unseal(42).expect("right secret"), capability);
}

#[test]
fn capability_is_strictly_less_powerful_than_the_key() {
    // The capability reveals only multiplicities: distinct same-multiplicity
    // schedules are indistinguishable through it, and it cannot reproduce
    // per-electrode gains (there is no gain data in its serialized form).
    let session = run_encrypted_session(8082);
    let capability = DecryptionCapability::derive(&session.controller, session.delay);
    // The number of distinct values in the capability is bounded by the
    // multiplicity range 1..=17 — far below the key space.
    for &m in &capability.multiplicities {
        assert!((1..=17).contains(&m));
    }
    assert!(capability.multiplicities.len() < 20);
}
