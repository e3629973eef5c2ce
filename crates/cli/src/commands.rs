//! The `medsen-cli` subcommands.

use crate::{parse, split_options};
use medsen_cloud::{
    AmplitudeGroupingAttack, AnalysisServer, BurstClusteringAttack, WidthGroupingAttack,
};
use medsen_core::{CytoPassword, DiagnosticRule, PasswordAlphabet, Pipeline, PipelineConfig};
use medsen_microfluidics::{ChannelGeometry, ParticleKind, PeristalticPump, TransportSimulator};
use medsen_phone::{trace_from_csv, trace_to_csv};
use medsen_sensor::{ideal_key_length_bits, Controller, ControllerConfig, EncryptedAcquisition};
use medsen_units::{Concentration, Seconds};
use std::io::Write;

type Out<'a> = &'a mut dyn Write;

fn wl(out: Out, text: impl AsRef<str>) {
    let _ = writeln!(out, "{}", text.as_ref());
}

/// `session`: run one full diagnostic session.
pub fn session(args: &[String], out: Out) -> Result<(), String> {
    let (positional, options) = split_options(args)?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`", positional[0]));
    }
    let seed: u64 = parse(&options, "seed", 2024)?;
    let duration: f64 = parse(&options, "duration", 30.0)?;
    if !(1.0..=600.0).contains(&duration) {
        return Err("--duration must be in 1..=600 seconds".into());
    }
    let auth = options.contains_key("auth");

    if auth {
        let alphabet = PasswordAlphabet::paper_default();
        let config = PipelineConfig {
            duration: Seconds::new(duration),
            ..PipelineConfig::auth_default(seed)
        };
        let mut pipeline = Pipeline::new(config, alphabet.clone(), DiagnosticRule::cd4_staging());
        wl(out, "calibrating classifier...");
        pipeline.calibrate_classifier();
        let volume = pipeline.processed_volume();
        let password = CytoPassword::new(&alphabet, vec![2, 6]).expect("valid levels");
        pipeline
            .auth_mut()
            .enroll("cli-user", password.expected_signature(&alphabet, volume));
        let report = pipeline.run_session("cli-user", &password);
        wl(
            out,
            format!("measured signature : {:?}", report.measured_signature),
        );
        wl(out, format!("auth decision      : {:?}", report.auth));
    } else {
        let alphabet = PasswordAlphabet::new(
            vec![ParticleKind::Bead358, ParticleKind::Bead78],
            Concentration::new(100.0),
            8,
        )
        .expect("valid alphabet");
        let password = CytoPassword::new(&alphabet, vec![1, 1]).expect("valid levels");
        let config = PipelineConfig {
            duration: Seconds::new(duration),
            ..PipelineConfig::paper_default(seed)
        };
        let mut pipeline = Pipeline::new(config, alphabet, DiagnosticRule::cd4_staging());
        let report = pipeline.run_session("cli-user", &password);
        wl(
            out,
            format!(
                "true particles     : {} cells + {} beads",
                report.true_cells, report.true_beads
            ),
        );
        wl(
            out,
            format!("cloud saw          : {} peaks", report.peak_count),
        );
        wl(
            out,
            format!(
                "decoded            : {:?} total, {:?} cells",
                report.decoded_total, report.decoded_cells
            ),
        );
        wl(out, format!("verdict            : {:?}", report.verdict));
        wl(
            out,
            format!("compression        : {:.2}x", report.compression.ratio()),
        );
        wl(
            out,
            format!(
                "post-acquisition   : {:.3} s",
                report.timing.post_acquisition_s()
            ),
        );
    }
    Ok(())
}

/// `enroll`: assign collision-free passwords to users.
pub fn enroll(args: &[String], out: Out) -> Result<(), String> {
    let (users, _) = split_options(args)?;
    if users.is_empty() {
        return Err("enroll needs at least one user name".into());
    }
    let alphabet = PasswordAlphabet::paper_default();
    let mut registry = medsen_core::UserRegistry::new(alphabet.clone(), 2);
    wl(
        out,
        format!(
            "password space: {} identifiers, {:.1} bits",
            alphabet.password_space(),
            alphabet.entropy_bits()
        ),
    );
    for user in &users {
        let pw = registry.enroll(user.clone()).map_err(|e| e.to_string())?;
        wl(out, format!("enrolled {user}: levels {:?}", pw.levels()));
    }
    wl(out, format!("capacity left: {}", registry.capacity_left()));
    Ok(())
}

/// `synth`: write a demo encrypted trace CSV.
pub fn synth(args: &[String], out: Out) -> Result<(), String> {
    let (positional, options) = split_options(args)?;
    let [path] = positional.as_slice() else {
        return Err("synth needs exactly one output path".into());
    };
    let seed: u64 = parse(&options, "seed", 7)?;
    let particles: usize = parse(&options, "particles", 12)?;
    if particles == 0 || particles > 200 {
        return Err("--particles must be in 1..=200".into());
    }
    let duration = Seconds::new(2.0 + particles as f64 * 1.5);
    let mut sim = TransportSimulator::new(
        ChannelGeometry::paper_default(),
        PeristalticPump::paper_default(),
        seed,
    );
    let events = sim.run_exact_count(ParticleKind::Bead78, particles, duration);
    let mut acq = EncryptedAcquisition::paper_default(seed);
    let mut controller = Controller::new(*acq.array(), ControllerConfig::paper_default(), seed);
    let schedule = controller.generate_schedule(duration).clone();
    let acquired = acq.run(&events, &schedule, duration);
    let csv = trace_to_csv(&acquired.trace);
    std::fs::write(path, &csv).map_err(|e| format!("cannot write {path}: {e}"))?;
    wl(
        out,
        format!(
            "wrote {} ({} samples/channel, {} true particles, {} scheduled dips)",
            path,
            acquired.trace.len(),
            particles,
            acquired.scheduled_dips
        ),
    );
    Ok(())
}

fn load_trace(path: &str) -> Result<medsen_impedance::SignalTrace, String> {
    let csv = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    trace_from_csv(&csv).map_err(|e| format!("{path}: {e}"))
}

/// `analyze`: run the cloud pipeline on a trace CSV.
pub fn analyze(args: &[String], out: Out) -> Result<(), String> {
    let (positional, _) = split_options(args)?;
    let [path] = positional.as_slice() else {
        return Err("analyze needs exactly one CSV path".into());
    };
    let trace = load_trace(path)?;
    let report = AnalysisServer::paper_default().analyze(&trace);
    wl(
        out,
        format!(
            "trace: {} channels x {} samples, {:.1} s",
            trace.channels().len(),
            trace.len(),
            report.duration_s
        ),
    );
    wl(
        out,
        format!("noise floor (sigma): {:.2e}", report.noise_sigma),
    );
    wl(out, format!("peaks: {}", report.peak_count()));
    for p in report.peaks.iter().take(20) {
        wl(
            out,
            format!(
                "  t={:.3}s amp={:.4} width={:.1}ms",
                p.time_s,
                p.amplitude,
                p.width_s * 1e3
            ),
        );
    }
    if report.peak_count() > 20 {
        wl(out, format!("  ... {} more", report.peak_count() - 20));
    }
    Ok(())
}

/// `attack`: run the three Sec. IV-A attacks on a trace CSV.
pub fn attack(args: &[String], out: Out) -> Result<(), String> {
    let (positional, _) = split_options(args)?;
    let [path] = positional.as_slice() else {
        return Err("attack needs exactly one CSV path".into());
    };
    let trace = load_trace(path)?;
    let report = AnalysisServer::paper_default().analyze(&trace);
    wl(out, format!("observed peaks: {}", report.peak_count()));
    let amp = AmplitudeGroupingAttack::paper_default().estimate(&report);
    let width = WidthGroupingAttack::paper_default().estimate(&report);
    let burst = BurstClusteringAttack::paper_default().estimate(&report);
    wl(
        out,
        format!(
            "amplitude-grouping estimate : {} cells",
            amp.estimated_cells
        ),
    );
    wl(
        out,
        format!(
            "width-grouping estimate     : {} cells",
            width.estimated_cells
        ),
    );
    wl(
        out,
        format!(
            "burst-clustering estimate   : {} cells",
            burst.estimated_cells
        ),
    );
    wl(
        out,
        "(only the key-holding controller can decrypt the true count)",
    );
    Ok(())
}

/// `capability`: demonstrate practitioner key sharing — derive, seal,
/// unseal, and decrypt with a shared secret.
pub fn capability(args: &[String], out: Out) -> Result<(), String> {
    let (positional, options) = split_options(args)?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`", positional[0]));
    }
    let seed: u64 = parse(&options, "seed", 99)?;
    let secret: u64 = parse(&options, "secret", 0x5EC2E7)?;
    let duration = Seconds::new(parse(&options, "duration", 20.0)?);

    let mut sim = TransportSimulator::new(
        ChannelGeometry::paper_default(),
        PeristalticPump::paper_default(),
        seed,
    );
    let events = sim.run_exact_count(ParticleKind::Bead78, 12, duration);
    let mut acq = EncryptedAcquisition::paper_default(seed);
    let mut controller = Controller::new(*acq.array(), ControllerConfig::paper_default(), seed);
    let schedule = controller.generate_schedule(duration).clone();
    let acquired = acq.run(&events, &schedule, duration);
    let report = medsen_cloud::AnalysisServer::paper_default().analyze(&acquired.trace);

    let geometry = ChannelGeometry::paper_default();
    let v = PeristalticPump::paper_default().velocity_at(
        Seconds::ZERO,
        geometry.pore_width,
        geometry.pore_height,
    );
    let delay = Seconds::new(acq.array().span(&geometry).value() / (2.0 * v));
    let cap = medsen_core::sharing::DecryptionCapability::derive(&controller, delay);
    let sealed = medsen_core::sharing::SealedCapability::seal(&cap, secret, 1);
    wl(
        out,
        format!(
            "sealed capability: {} bytes (per-period multiplicities {:?})",
            sealed.len(),
            cap.multiplicities
        ),
    );
    let opened = sealed
        .unseal(secret)
        .map_err(|e| format!("unseal failed: {e}"))?;
    let decoded = opened.decrypt(&report.reported_peaks());
    wl(
        out,
        format!(
            "practitioner decrypts: {} particles (ground truth {})",
            decoded.rounded(),
            acquired.true_total()
        ),
    );
    match sealed.unseal(secret.wrapping_add(1)) {
        Err(e) => wl(out, format!("wrong secret: {e}")),
        Ok(_) => return Err("wrong secret must not unseal".into()),
    }
    Ok(())
}

/// `keylen`: Eq. 2.
pub fn keylen(args: &[String], out: Out) -> Result<(), String> {
    let (positional, _) = split_options(args)?;
    let values: Vec<u64> = positional
        .iter()
        .map(|a| a.parse().map_err(|_| format!("`{a}` is not a number")))
        .collect::<Result<_, _>>()?;
    let [cells, electrodes, gain_bits, flow_bits] = values.as_slice() else {
        return Err("keylen needs: <cells> <electrodes> <gainbits> <flowbits>".into());
    };
    let bits = ideal_key_length_bits(*cells, *electrodes, *gain_bits, *flow_bits);
    wl(out, format!(
        "L = {cells} x ({electrodes} + {electrodes}/2 x {gain_bits} + {flow_bits}) = {bits} bits ({:.3} MB)",
        bits as f64 / 8.0 / 1e6
    ));
    Ok(())
}

/// `gateway`: serve a simulated clinic fleet through the concurrent
/// ingestion gateway and print its metrics.
/// What `gateway --telemetry` emits after the fleet drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TelemetryMode {
    /// No span machinery at all (the default).
    Off,
    /// Print the `name value` text exposition.
    Text,
    /// Print the span ring as JSON lines.
    Json,
}

pub fn gateway(args: &[String], out: Out) -> Result<(), String> {
    use medsen_cloud::auth::{AuthDecision, BeadSignature};
    use medsen_cloud::service::{CloudService, Response};
    use medsen_dsp::classify::Classifier;
    use medsen_dsp::FeatureVector;
    use medsen_gateway::{
        Gateway, GatewayConfig, RuntimeKind, SessionConfig, ShedPolicy, TelemetryConfig,
    };
    use medsen_impedance::{PulseSpec, SignalTrace, TraceSynthesizer};

    let (positional, options) = split_options(args)?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`", positional[0]));
    }
    for name in options.keys() {
        if ![
            "sessions",
            "workers",
            "queue",
            "flaky",
            "seed",
            "shards",
            "data-dir",
            "flush",
            "telemetry",
            "replicas",
            "uplink",
            "symbol-budget",
            "wire",
        ]
        .contains(&name.as_str())
        {
            return Err(format!("unknown option --{name}"));
        }
    }
    let sessions: usize = parse(&options, "sessions", 16)?;
    let workers: usize = parse(&options, "workers", 4)?;
    let queue: usize = parse(&options, "queue", 8)?;
    let flaky: f64 = parse(&options, "flaky", 0.1)?;
    let seed: u64 = parse(&options, "seed", 7)?;
    let shards: usize = parse(&options, "shards", medsen_cloud::DEFAULT_SHARD_COUNT)?;
    // `off` keeps the span machinery out of the hot path entirely;
    // counters and the end-of-run metrics block are always on.
    let telemetry_mode = match options.get("telemetry").map(String::as_str) {
        None | Some("off") => TelemetryMode::Off,
        Some("text") => TelemetryMode::Text,
        Some("json") => TelemetryMode::Json,
        Some(other) => {
            return Err(format!(
                "--telemetry got `{other}` (expected `text`, `json`, or `off`)"
            ))
        }
    };
    // `--uplink fountain` runs the fleet in one-way (data diode) mode:
    // no retries, no ACKs, budgeted fountain symbols instead.
    let fountain_uplink = match options.get("uplink").map(String::as_str) {
        None | Some("retry") => false,
        Some("fountain") => true,
        Some(other) => {
            return Err(format!(
                "--uplink got `{other}` (expected `retry` or `fountain`)"
            ))
        }
    };
    // `--wire json` switches the fleet to the JSON debug encoding; the
    // default is the compact binary wire format.
    let wire_format: medsen::wire::WireFormat = match options.get("wire") {
        Some(value) => value.parse().map_err(|e| format!("--wire: {e}"))?,
        None => medsen::wire::WireFormat::default(),
    };
    let budget_factor: Option<f64> = match options.get("symbol-budget") {
        Some(value) => {
            if !fountain_uplink {
                return Err("--symbol-budget needs --uplink fountain".into());
            }
            let factor: f64 = value.parse().map_err(|e| format!("--symbol-budget: {e}"))?;
            if !(1.0..=64.0).contains(&factor) {
                return Err("--symbol-budget must be in 1.0..=64.0".into());
            }
            Some(factor)
        }
        None => None,
    };
    let data_dir = options.get("data-dir").cloned();
    let replicas = options.contains_key("replicas");
    if replicas && data_dir.is_none() {
        return Err("--replicas needs --data-dir (replication pairs two durable services)".into());
    }
    let flush: medsen_cloud::FlushPolicy = match options.get("flush") {
        Some(value) => {
            if data_dir.is_none() {
                return Err("--flush needs --data-dir (a memory-only service has no WAL)".into());
            }
            value.parse().map_err(|e| format!("--flush: {e}"))?
        }
        None => medsen_cloud::FlushPolicy::default(),
    };
    if !(1..=512).contains(&sessions) {
        return Err("--sessions must be in 1..=512".into());
    }
    if !(1..=64).contains(&workers) {
        return Err("--workers must be in 1..=64".into());
    }
    if queue == 0 {
        return Err("--queue must be positive".into());
    }
    if !(0.0..=0.8).contains(&flaky) {
        return Err("--flaky must be in 0.0..=0.8".into());
    }
    if !(1..=64).contains(&shards) {
        return Err("--shards must be in 1..=64".into());
    }

    // Clinic users with disjoint ±30% bead-count bands.
    let users: [(&str, u64); 3] = [("ana", 3), ("bo", 6), ("cleo", 12)];

    fn fleet_trace(jitter_ms: u64, pulses: u64) -> SignalTrace {
        let mut synth = TraceSynthesizer::clean(1);
        let jitter = jitter_ms as f64 * 1e-3;
        let specs: Vec<PulseSpec> = (0..pulses)
            .map(|j| {
                PulseSpec::unipolar(
                    Seconds::new(0.5 + jitter + j as f64 * 0.25),
                    Seconds::new(0.02),
                    0.01,
                )
            })
            .collect();
        synth.render(
            &specs,
            Seconds::new(0.5 + jitter + pulses as f64 * 0.25 + 0.5),
        )
    }

    // Train a one-class bead classifier from the pipeline's own features.
    let mut service = match &data_dir {
        Some(dir) => CloudService::with_storage(dir, shards, flush)
            .map_err(|e| format!("--data-dir {dir}: {e}"))?,
        None => CloudService::with_shards(shards),
    };
    if let Some(dir) = &data_dir {
        let stats = service.storage_stats().expect("durable service has stats");
        wl(out, format!(
            "durable store: {dir} (flush policy {flush}); recovered {} entries, {} snapshot(s), truncated {} B",
            stats.recovered_entries, stats.recovered_snapshots, stats.recovered_truncated_bytes
        ));
    }
    let reference = medsen_cloud::AnalysisServer::paper_default().analyze(&fleet_trace(999, 8));
    let vectors: Vec<FeatureVector> = reference
        .peaks
        .iter()
        .map(|p| FeatureVector {
            index: 0,
            amplitudes: p.features.clone(),
        })
        .collect();
    let classifier = Classifier::train(&[(ParticleKind::Bead358.label(), vectors)])
        .map_err(|e| format!("classifier training failed: {e}"))?;
    service.install_classifier(classifier.clone());

    let gateway_config = GatewayConfig {
        queue_capacity: queue,
        workers,
        shed_policy: ShedPolicy::Reject {
            retry_after: Seconds::from_millis(50.0),
        },
    };
    let telemetry_config = if telemetry_mode == TelemetryMode::Off {
        TelemetryConfig::disabled()
    } else {
        TelemetryConfig::default()
    };
    // With --replicas, pair the primary with a warm standby persisting
    // next to it; the gateway then routes through the pair so a primary
    // loss would fail the fleet over mid-run.
    let (gateway, pair) = if replicas {
        let dir = data_dir.as_deref().expect("checked with --replicas");
        let standby_dir = format!("{dir}-standby");
        let mut standby = CloudService::with_storage(&standby_dir, shards, flush)
            .map_err(|e| format!("standby {standby_dir}: {e}"))?;
        standby.install_classifier(classifier);
        let pair = service
            .with_replication(standby)
            .map_err(|e| format!("replication pairing failed: {e}"))?;
        wl(
            out,
            format!(
                "replication: warm standby at {standby_dir}, epoch {}",
                pair.epoch()
            ),
        );
        let gateway = Gateway::with_replicas(
            std::sync::Arc::clone(&pair),
            gateway_config,
            RuntimeKind::Async,
            telemetry_config,
        );
        (gateway, Some(pair))
    } else {
        (
            Gateway::with_telemetry(
                service,
                gateway_config,
                RuntimeKind::Async,
                telemetry_config,
            ),
            None,
        )
    };

    // Enroll through the gateway itself.
    {
        let mut admin = gateway.connect(SessionConfig::reliable().with_wire(wire_format));
        for (user, count) in users {
            let response = admin
                .enroll(
                    user,
                    BeadSignature::from_counts(&[(ParticleKind::Bead358, count)]),
                )
                .map_err(|e| format!("enroll failed: {e}"))?;
            if response != Response::Enrolled {
                return Err(format!("unexpected enroll response: {response:?}"));
            }
        }
        admin
            .close()
            .map_err(|e| format!("admin close failed: {e}"))?;
    }

    // Connect deterministically, then run all sessions concurrently. In
    // fountain mode the budget defaults to the observed drop rate (plus
    // LT margin); `--symbol-budget` overrides the factor directly.
    let session_config = |i: usize| {
        let seed = seed.wrapping_add(i as u64);
        if fountain_uplink {
            let budget = match budget_factor {
                Some(factor) => medsen_phone::SymbolBudget { factor, floor: 24 },
                None => medsen_phone::SymbolBudget::for_drop_rate(flaky),
            };
            SessionConfig::fountain(flaky, seed, budget).with_wire(wire_format)
        } else {
            SessionConfig::flaky(flaky, seed).with_wire(wire_format)
        }
    };
    let connected: Vec<_> = (0..sessions)
        .map(|i| gateway.connect(session_config(i)))
        .collect();
    let outcomes = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (i, mut session) in connected.into_iter().enumerate() {
            let outcomes = &outcomes;
            let users = &users;
            scope.spawn(move || {
                let (user, count) = users[i % users.len()];
                let outcome = session.analyze(fleet_trace(i as u64, count), true);
                let stats = session.stats();
                outcomes.lock().unwrap().push((i, user, outcome, stats));
            });
        }
    });

    let mut outcomes = outcomes.into_inner().unwrap();
    outcomes.sort_by_key(|(i, ..)| *i);
    let (mut accepted, mut rejected, mut other, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let (mut link_retries, mut shed_retries) = (0u64, 0u64);
    let (mut symbols_emitted, mut symbols_dropped) = (0u64, 0u64);
    for (i, user, outcome, stats) in &outcomes {
        link_retries += stats.link_retries;
        shed_retries += stats.shed_retries;
        symbols_emitted += stats.symbols_emitted;
        symbols_dropped += stats.symbols_dropped;
        match outcome {
            Ok(Response::Analyzed {
                auth: Some(AuthDecision::Accepted { user_id }),
                ..
            }) if user_id == user => accepted += 1,
            Ok(Response::Analyzed {
                auth: Some(AuthDecision::Rejected),
                ..
            }) => rejected += 1,
            Ok(_) => other += 1,
            Err(e) => {
                errors += 1;
                wl(out, format!("session {i}: failed: {e}"));
            }
        }
    }
    let uplink_label = if fountain_uplink { "fountain" } else { "retry" };
    wl(out, format!(
        "fleet: {sessions} sessions via {workers} workers (queue depth {queue}, {:.0}% flaky uplink, {uplink_label} uplink, {wire_format} wire)",
        flaky * 100.0
    ));
    wl(
        out,
        format!(
            "cloud tier: {shards} shard(s), {} gateway lane(s)",
            gateway.lane_count()
        ),
    );
    wl(out, format!(
        "auth: {accepted} accepted as themselves, {rejected} rejected, {other} other, {errors} gave up"
    ));
    if fountain_uplink {
        wl(
            out,
            format!("one-way stream: {symbols_emitted} symbols emitted, {symbols_dropped} lost in transit"),
        );
    } else {
        wl(
            out,
            format!("client retries: {link_retries} link, {shed_retries} backpressure"),
        );
    }
    if data_dir.is_some() {
        // Stop admitting, finish in-flight work, and force the final
        // group-commit flush before the process exits.
        gateway.drain();
    }
    if let Some(pair) = &pair {
        let status = pair.status();
        wl(out, format!(
            "replication: epoch {} | shipped {} frames ({} B) | acked {} B | lag {} B | snapshots {} | standby applied {}",
            status.epoch,
            status.shipper.shipped_frames,
            status.shipper.shipped_bytes,
            status.shipper.acked_bytes,
            status.shipper.lag_bytes,
            status.shipper.snapshots_shipped,
            status.standby.applied_frames,
        ));
    }
    match telemetry_mode {
        TelemetryMode::Off => {}
        TelemetryMode::Text => {
            wl(out, "telemetry:");
            let _ = write!(out, "{}", gateway.telemetry_text());
        }
        TelemetryMode::Json => {
            let _ = write!(out, "{}", gateway.spans_json());
        }
    }
    let metrics = gateway.shutdown();
    wl(out, format!("{metrics}"));
    if metrics.lost() != 0 {
        return Err(format!("{} accepted requests were lost", metrics.lost()));
    }
    Ok(())
}

/// `replica-status`: spin up a demo replicated pair, push a small write
/// workload through it, and print the shipping/lag/epoch status an
/// operator would watch — optionally crashing the primary mid-run
/// (`--kill`) to show the fenced failover.
pub fn replica_status(args: &[String], out: Out) -> Result<(), String> {
    use medsen_cloud::service::{CloudService, Request, Response};
    use medsen_cloud::{BeadSignature, ReplicaStatus, StorageConfig};

    let (positional, options) = split_options(args)?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`", positional[0]));
    }
    for name in options.keys() {
        if !["shards", "writes", "kill"].contains(&name.as_str()) {
            return Err(format!("unknown option --{name}"));
        }
    }
    let shards: usize = parse(&options, "shards", 4)?;
    let writes: usize = parse(&options, "writes", 12)?;
    let kill = options.contains_key("kill");
    if !(1..=64).contains(&shards) {
        return Err("--shards must be in 1..=64".into());
    }
    if !(1..=10_000).contains(&writes) {
        return Err("--writes must be in 1..=10000".into());
    }

    fn print_status(out: Out, status: &ReplicaStatus) {
        wl(
            out,
            format!(
                "  epoch {} | promoted {} | primary {} | link {}",
                status.epoch,
                if status.promoted { "yes" } else { "no" },
                if status.primary_down { "down" } else { "up" },
                if status.link_down { "down" } else { "up" },
            ),
        );
        wl(
            out,
            format!(
                "  shipped {} frames ({} B) + {} snapshot(s) | acked {} B | lag {} B | failures {}",
                status.shipper.shipped_frames,
                status.shipper.shipped_bytes,
                status.shipper.snapshots_shipped,
                status.shipper.acked_bytes,
                status.shipper.lag_bytes,
                status.shipper.ship_failures,
            ),
        );
        wl(out, format!(
            "  standby: applied {} frames ({} B), {} snapshot(s) installed, {} stale ship(s) rejected",
            status.standby.applied_frames,
            status.standby.applied_bytes,
            status.standby.snapshots_installed,
            status.standby.stale_rejected,
        ));
        for lag in &status.shards {
            wl(
                out,
                format!(
                    "  shard {:>2}: produced {:>6} acked {:>6} {}",
                    lag.shard,
                    lag.produced,
                    lag.acked,
                    if lag.attached { "attached" } else { "DETACHED" },
                ),
            );
        }
        wl(
            out,
            format!(
                "  simulated uplink cost: {} µs (LTE model)",
                status.simulated_transfer_us
            ),
        );
    }

    let base = std::env::temp_dir().join(format!("medsen-replica-status-{}", std::process::id()));
    let dirs = [
        base.with_extension("primary"),
        base.with_extension("standby"),
    ];
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    let [primary, standby] = [&dirs[0], &dirs[1]].map(|dir| {
        CloudService::with_storage_config(StorageConfig::new(dir), shards)
            .map_err(|e| format!("{}: {e}", dir.display()))
    });
    let pair = primary?
        .with_replication(standby?)
        .map_err(|e| format!("pairing failed: {e}"))?;

    wl(
        out,
        format!(
            "replicated pair up: {shards} shard(s), epoch {}",
            pair.epoch()
        ),
    );
    for i in 0..writes {
        let serving = pair.serving();
        let response = serving.handle_shared(Request::Enroll {
            identifier: format!("patient-{i}"),
            signature: BeadSignature::from_counts(&[(
                ParticleKind::Bead358,
                10 + (i as u64 % 7) * 5,
            )]),
        });
        if response != Response::Enrolled {
            return Err(format!("write {i} failed: {response:?}"));
        }
        if kill && i == writes / 2 {
            wl(out, format!("-- killing the primary after write {i} --"));
            pair.kill_primary();
        }
    }
    wl(out, format!("after {writes} write(s):"));
    print_status(out, &pair.status());
    if kill {
        let serving = pair.serving();
        let enrolled: usize = serving.shard_stats().iter().map(|s| s.enrolled).sum();
        wl(
            out,
            format!(
                "promoted standby serves epoch {} with {enrolled} enrollment(s); \
             a resurrected primary's ships are now rejected as stale",
                pair.epoch()
            ),
        );
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}

/// `telemetry`: drive a small built-in workload through the gateway and
/// pretty-print the resulting snapshot — every registered instrument as
/// `name value` text, then the slowest requests with their per-stage
/// breakdowns. A fast way to see what the observability stack exports
/// without sizing a whole fleet run.
pub fn telemetry(args: &[String], out: Out) -> Result<(), String> {
    use medsen_cloud::service::{CloudService, Request};
    use medsen_gateway::{Gateway, GatewayConfig, ShedPolicy};
    use medsen_impedance::PulseSpec;
    use medsen_impedance::TraceSynthesizer;

    let (positional, options) = split_options(args)?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`", positional[0]));
    }
    for name in options.keys() {
        if name != "requests" {
            return Err(format!("unknown option --{name}"));
        }
    }
    let requests: usize = parse(&options, "requests", 24)?;
    if !(1..=512).contains(&requests) {
        return Err("--requests must be in 1..=512".into());
    }

    let gateway = Gateway::new(
        CloudService::new(),
        GatewayConfig {
            queue_capacity: 16,
            workers: 4,
            shed_policy: ShedPolicy::Block,
        },
    );
    let mut synth = TraceSynthesizer::clean(1);
    let trace = synth.render(
        &[PulseSpec::unipolar(
            Seconds::new(0.5),
            Seconds::new(0.02),
            0.01,
        )],
        Seconds::new(1.5),
    );
    let replies: Vec<_> = (0..requests)
        .map(|i| {
            // A mix of cheap pings and full DSP analyses, so both the
            // analysis span and the response cache show up in the dump.
            let request = if i % 4 == 0 {
                Request::Ping
            } else {
                Request::Analyze {
                    trace: trace.clone(),
                    authenticate: false,
                }
            };
            let json = medsen_cloud::wire::encode_request(medsen::wire::WireFormat::Json, &request)
                .map_err(|e| format!("encode failed: {e}"))?;
            gateway
                .submit(medsen_gateway::encode_upload_wire(
                    i as u64 + 1,
                    medsen::wire::WireFormat::Json,
                    &json,
                ))
                .map_err(|e| format!("submit failed: {e}"))
        })
        .collect::<Result<_, String>>()?;
    for reply in replies {
        reply.wait().map_err(|e| format!("reply failed: {e}"))?;
    }

    wl(out, format!("instruments after {requests} requests:"));
    let _ = write!(out, "{}", gateway.telemetry_text());
    wl(out, "slowest requests:");
    for slow in gateway.slow_traces() {
        wl(
            out,
            format!(
                "  trace {} total {:.1} µs",
                slow.trace,
                slow.total_ns as f64 / 1e3
            ),
        );
        for span in &slow.stages {
            wl(
                out,
                format!(
                    "    {:<10} tag={} {:>10.1} µs",
                    span.stage.name(),
                    span.tag,
                    span.duration_ns() as f64 / 1e3
                ),
            );
        }
    }
    gateway.shutdown();
    Ok(())
}

/// `audit`: run the adversarial self-audit battery and print its
/// scorecard. Exit status follows the overall verdict, so CI can gate on
/// the command directly.
pub fn audit(args: &[String], out: Out) -> Result<(), String> {
    let (positional, options) = split_options(args)?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`", positional[0]));
    }
    let seed: u64 = parse(&options, "seed", 2024)?;
    let config = if options.contains_key("quick") {
        medsen::selfaudit::AuditConfig::quick(seed)
    } else {
        medsen::selfaudit::AuditConfig::full(seed)
    };
    let scorecard = medsen::selfaudit::run(&config);
    let _ = write!(out, "{scorecard}");
    if scorecard.pass() {
        Ok(())
    } else {
        Err("security audit FAILED (see scorecard above)".into())
    }
}

/// `soak`: run the reconciling overload soak and print its report.
///
/// The soak storms every refusal path the gateway has — queue shed,
/// per-session rate limiting, fountain session eviction, one primary
/// failover — through an adaptively-sampled gateway, then checks the
/// exposition's overload counters against the driver's own attempt
/// ledger. Any reconciliation violation (a lost attempt, a counter that
/// drifted, a sampler ledger leak) exits non-zero, which is what makes
/// this runnable as a CI gate rather than a demo.
pub fn soak(args: &[String], out: Out) -> Result<(), String> {
    let (positional, options) = split_options(args)?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`", positional[0]));
    }
    for name in options.keys() {
        if name != "quick" {
            return Err(format!("unknown option --{name}"));
        }
    }
    let config = if options.contains_key("quick") {
        medsen::gateway::SoakConfig::quick()
    } else {
        medsen::gateway::SoakConfig::standard()
    };
    let report = medsen::gateway::soak::run(&config);
    let _ = writeln!(out, "{report}");
    report
        .reconcile()
        .map_err(|errors| format!("soak reconciliation FAILED:\n{}", errors.join("\n")))
}

/// `wire-golden`: verify the checked-in golden wire frames against the
/// deterministic fixture corpus — or, with `--write`, regenerate them.
///
/// Verification is the wire-format tripwire: each `<name>.bin` must
/// decode (with the *built* binary decoder) to exactly the corpus value
/// and re-encode to exactly the committed bytes, and each `<name>.json`
/// sidecar must decode to the same value, proving the two formats stay
/// observationally equivalent. Any codec change that shifts a byte
/// fails here before it can silently strand deployed dongles.
pub fn wire_golden(args: &[String], out: Out) -> Result<(), String> {
    use medsen::wire::WireFormat;
    use medsen_cloud::wire::{
        decode_request, decode_request_traced, decode_response, decode_response_traced,
        encode_request, encode_request_traced, encode_response, encode_response_traced, golden,
    };

    let (positional, options) = split_options(args)?;
    let [dir] = positional.as_slice() else {
        return Err("wire-golden needs: <fixture-dir> [--write]".into());
    };
    for name in options.keys() {
        if name != "write" {
            return Err(format!("unknown option --{name}"));
        }
    }
    let write = options.contains_key("write");
    let dir = std::path::Path::new(dir);
    if write {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }

    // One closure per side so the request and response corpora share the
    // identical read/decode/re-encode discipline.
    fn process<T: PartialEq + std::fmt::Debug>(
        dir: &std::path::Path,
        write: bool,
        name: &str,
        value: &T,
        encode: impl Fn(WireFormat, &T) -> Result<Vec<u8>, String>,
        decode: impl Fn(WireFormat, &[u8]) -> Result<T, String>,
    ) -> Result<(), String> {
        for (format, ext) in [(WireFormat::Binary, "bin"), (WireFormat::Json, "json")] {
            let path = dir.join(format!("{name}.{ext}"));
            let encoded = encode(format, value).map_err(|e| format!("{name}: encode: {e}"))?;
            if write {
                std::fs::write(&path, &encoded)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                continue;
            }
            let committed = std::fs::read(&path).map_err(|e| {
                format!("read {} (run with --write to create): {e}", path.display())
            })?;
            let decoded =
                decode(format, &committed).map_err(|e| format!("{name}.{ext}: decode: {e}"))?;
            if decoded != *value {
                return Err(format!(
                    "{name}.{ext}: decoded value drifted from the fixture corpus"
                ));
            }
            // Byte-exactness only for the binary frames: JSON field order
            // is the serializer's business, equality above is its check.
            if format == WireFormat::Binary && committed != encoded {
                return Err(format!(
                    "{name}.{ext}: re-encoding produced different bytes ({} committed vs {} built) — binary wire format drifted",
                    committed.len(),
                    encoded.len()
                ));
            }
        }
        Ok(())
    }

    let mut count = 0usize;
    for (name, request) in golden::requests() {
        process(
            dir,
            write,
            name,
            &request,
            |f, v| encode_request(f, v).map_err(|e| e.to_string()),
            |f, b| decode_request(f, b).map_err(|e| e.to_string()),
        )?;
        count += 1;
    }
    for (name, response) in golden::responses() {
        process(
            dir,
            write,
            name,
            &response,
            |f, v| encode_response(f, v).map_err(|e| e.to_string()),
            |f, b| decode_response(f, b).map_err(|e| e.to_string()),
        )?;
        count += 1;
    }
    // Trace-context fixtures: the traced twin frame kinds must stay as
    // stable as the plain ones, and the pinned trace id must survive the
    // round trip — a decoder that strips or shifts the trace field fails
    // here, not in a clinic's trace backend.
    let expect_trace = |trace: Option<u64>| -> Result<(), String> {
        match trace {
            Some(t) if t == golden::TRACE_ID => Ok(()),
            Some(t) => Err(format!(
                "trace id drifted: expected {:#018x}, decoded {t:#018x}",
                golden::TRACE_ID
            )),
            None => Err("traced fixture decoded without a trace id".into()),
        }
    };
    for (name, request) in golden::traced_requests() {
        process(
            dir,
            write,
            name,
            &request,
            |f, v| encode_request_traced(f, v, golden::TRACE_ID).map_err(|e| e.to_string()),
            |f, b| {
                let (value, trace) = decode_request_traced(f, b).map_err(|e| e.to_string())?;
                expect_trace(trace)?;
                Ok(value)
            },
        )?;
        count += 1;
    }
    for (name, response) in golden::traced_responses() {
        process(
            dir,
            write,
            name,
            &response,
            |f, v| encode_response_traced(f, v, golden::TRACE_ID).map_err(|e| e.to_string()),
            |f, b| {
                let (value, trace) = decode_response_traced(f, b).map_err(|e| e.to_string())?;
                expect_trace(trace)?;
                Ok(value)
            },
        )?;
        count += 1;
    }
    let action = if write { "wrote" } else { "verified" };
    wl(
        out,
        format!(
            "golden frames: {action} {count} fixtures (binary + JSON) in {}",
            dir.display()
        ),
    );
    Ok(())
}
