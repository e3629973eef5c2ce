//! Benchmarks the fleet gateway: end-to-end requests/second through the
//! bounded queue + worker pool, swept over worker-pool sizes *and* wire
//! formats, plus the framing layer on its own.
//!
//! The interesting question for clinic sizing is how close N workers get
//! to N× the single-worker throughput when every request carries a real
//! trace through decode → analysis → encode — and how much of each
//! request's budget the codec itself costs, which is why every
//! end-to-end group runs once per [`WireFormat`] in the same sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use medsen_cloud::auth::BeadSignature;
use medsen_cloud::identity_hash;
use medsen_cloud::service::{CloudService, Request, Response};
use medsen_gateway::{
    wire, Gateway, GatewayConfig, PendingReply, RuntimeKind, SamplerMode, ShedPolicy,
    TelemetryConfig,
};
use medsen_impedance::{PulseSpec, SignalTrace, TraceSynthesizer};
use medsen_microfluidics::ParticleKind;
use medsen_units::Seconds;
use medsen_wire::WireFormat;
use std::hint::black_box;

const FORMATS: [WireFormat; 2] = [WireFormat::Json, WireFormat::Binary];

/// Encodes one request as a complete framed upload in the given format.
fn upload_for(session: u64, format: WireFormat, request: &Request) -> Vec<u8> {
    let body = medsen_cloud::wire::encode_request(format, request).expect("encodes");
    wire::encode_upload_wire(session, format, &body)
}

fn bench_trace(pulses: u64) -> SignalTrace {
    let mut synth = TraceSynthesizer::clean(1);
    let specs: Vec<PulseSpec> = (0..pulses)
        .map(|j| {
            PulseSpec::unipolar(
                Seconds::new(0.5 + j as f64 * 0.25),
                Seconds::new(0.02),
                0.01,
            )
        })
        .collect();
    synth.render(&specs, Seconds::new(0.5 + pulses as f64 * 0.25 + 0.5))
}

fn analyze_upload(session: u64, format: WireFormat, trace: &SignalTrace) -> Vec<u8> {
    upload_for(
        session,
        format,
        &Request::Analyze {
            trace: trace.clone(),
            authenticate: false,
        },
    )
}

/// Requests/second through the full gateway, by worker-pool size and
/// wire format in one sweep — the json/binary delta at equal workers is
/// the end-to-end codec cost per request.
fn pool_scaling(c: &mut Criterion) {
    const BATCH: usize = 16;
    let trace = bench_trace(6);

    let mut group = c.benchmark_group("gateway_throughput");
    group.throughput(Throughput::Elements(BATCH as u64));
    for format in FORMATS {
        let upload = analyze_upload(1, format, &trace);
        for workers in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("analyze_batch16_{format}"), workers),
                &workers,
                |b, &workers| {
                    let gateway = Gateway::new(
                        CloudService::new(),
                        GatewayConfig {
                            queue_capacity: BATCH,
                            workers,
                            shed_policy: ShedPolicy::Block,
                        },
                    );
                    b.iter(|| {
                        let pending: Vec<PendingReply> = (0..BATCH)
                            .map(|_| gateway.submit(upload.clone()).expect("accepted"))
                            .collect();
                        for reply in pending {
                            match reply.wait().expect("reply") {
                                Response::Analyzed { report, .. } => {
                                    black_box(report.peak_count());
                                }
                                other => panic!("unexpected {other:?}"),
                            }
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

/// Enroll storm: concurrent sessions bursting distinct-identifier
/// enrollments — the pure multi-writer workload the shard split exists
/// for. One shard is the pre-sharding single-lock baseline: every
/// submitter and worker funnels through one queue lane and every
/// enrollment serializes on one writer lock, so with `N` truly parallel
/// writers each enroll pays a contended futex handoff on top of the
/// insert. With shards ≥ workers the gateway fans out into independent
/// lanes and locks and those handoffs disappear — `MetricsSnapshot::
/// shard_contention` counts exactly the acquisitions the split saves.
/// Route keys are the identifiers' shard hashes, exactly as
/// `DongleSession` computes them.
///
/// Caveat for single-vCPU containers: the separation between the
/// baseline and the sharded configurations scales with how many writers
/// actually run in parallel. On one hardware thread writers interleave
/// instead of overlapping, write locks are practically never observed
/// held, and all three curves collapse to the same CPU-bound figure —
/// compare the configurations on a multi-core host.
fn enroll_storm(c: &mut Criterion) {
    const SUBMITTERS: usize = 8;
    const PER_SUBMITTER: usize = 128;
    const WORKERS: usize = 8;
    // Pre-encoded uploads, partitioned by submitting session.
    let encode_uploads = |format: WireFormat| -> Vec<Vec<(Vec<u8>, u64)>> {
        (0..SUBMITTERS)
            .map(|s| {
                (0..PER_SUBMITTER)
                    .map(|i| {
                        let identifier = format!("clinic-user-{s}-{i}");
                        let request = Request::Enroll {
                            identifier: identifier.clone(),
                            signature: BeadSignature::from_counts(&[(
                                ParticleKind::Bead358,
                                10 + i as u64,
                            )]),
                        };
                        (
                            upload_for((s * PER_SUBMITTER + i) as u64, format, &request),
                            identity_hash(&identifier),
                        )
                    })
                    .collect()
            })
            .collect()
    };

    let mut group = c.benchmark_group("gateway_enroll_storm");
    group.throughput(Throughput::Elements((SUBMITTERS * PER_SUBMITTER) as u64));
    for format in FORMATS {
        let uploads = encode_uploads(format);
        for shards in [1usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("enroll_8x128_{format}"), shards),
                &shards,
                |b, &shards| {
                    let gateway = Gateway::new(
                        CloudService::with_shards(shards),
                        GatewayConfig {
                            queue_capacity: 256,
                            workers: WORKERS,
                            shed_policy: ShedPolicy::Block,
                        },
                    );
                    b.iter(|| {
                        std::thread::scope(|scope| {
                            for batch in &uploads {
                                let gateway = &gateway;
                                scope.spawn(move || {
                                    let pending: Vec<PendingReply> = batch
                                        .iter()
                                        .map(|(upload, key)| {
                                            gateway
                                                .submit_keyed(upload.clone(), *key)
                                                .expect("accepted")
                                        })
                                        .collect();
                                    for reply in pending {
                                        match reply.wait().expect("reply") {
                                            Response::Enrolled => {}
                                            other => panic!("unexpected {other:?}"),
                                        }
                                    }
                                });
                            }
                        });
                    });
                },
            );
        }
    }
    group.finish();
}

/// Telemetry overhead on the enroll storm: the identical 8×128
/// distinct-identifier burst with span tracing **on** (every request
/// records admission/queue/service/shard-lock/WAL spans into the seqlock
/// ring plus an exemplar offer) versus **off** (counters and histograms
/// only — the same instruments both configurations share). The delta is
/// the whole price of request tracing; the recording path is one
/// `fetch_add` plus plain stores per span, so the two curves should sit
/// within noise of each other.
fn telemetry_overhead(c: &mut Criterion) {
    const SUBMITTERS: usize = 8;
    const PER_SUBMITTER: usize = 128;
    const WORKERS: usize = 8;
    const SHARDS: usize = 4;
    // Spans on/off is the question here, so hold the codec fixed at the
    // default wire format rather than doubling the sweep.
    let uploads: Vec<Vec<(Vec<u8>, u64)>> = (0..SUBMITTERS)
        .map(|s| {
            (0..PER_SUBMITTER)
                .map(|i| {
                    let identifier = format!("storm-user-{s}-{i}");
                    let request = Request::Enroll {
                        identifier: identifier.clone(),
                        signature: BeadSignature::from_counts(&[(
                            ParticleKind::Bead358,
                            10 + i as u64,
                        )]),
                    };
                    (
                        upload_for(
                            (s * PER_SUBMITTER + i) as u64,
                            WireFormat::default(),
                            &request,
                        ),
                        identity_hash(&identifier),
                    )
                })
                .collect()
        })
        .collect();

    let mut group = c.benchmark_group("gateway_telemetry_overhead");
    group.throughput(Throughput::Elements((SUBMITTERS * PER_SUBMITTER) as u64));
    for (label, telemetry) in [
        ("spans_on", TelemetryConfig::default()),
        ("spans_off", TelemetryConfig::disabled()),
        // The sampler sweep: a fixed 100% head sampler (funnel price with
        // zero drops), and the adaptive AIMD controller (what production
        // runs). Both should hug the spans_on curve — sampling is meant
        // to cheapen *storage*, not cost admission throughput.
        (
            "sampler_100",
            TelemetryConfig {
                sampling: SamplerMode::Fixed(1000),
                ..TelemetryConfig::default()
            },
        ),
        ("sampler_adaptive", TelemetryConfig::adaptive()),
    ] {
        group.bench_function(BenchmarkId::new("enroll_8x128", label), |b| {
            let gateway = Gateway::with_telemetry(
                CloudService::with_shards(SHARDS),
                GatewayConfig {
                    queue_capacity: 256,
                    workers: WORKERS,
                    shed_policy: ShedPolicy::Block,
                },
                RuntimeKind::Async,
                telemetry,
            );
            b.iter(|| {
                std::thread::scope(|scope| {
                    for batch in &uploads {
                        let gateway = &gateway;
                        scope.spawn(move || {
                            let pending: Vec<PendingReply> = batch
                                .iter()
                                .map(|(upload, key)| {
                                    gateway
                                        .submit_keyed(upload.clone(), *key)
                                        .expect("accepted")
                                })
                                .collect();
                            for reply in pending {
                                match reply.wait().expect("reply") {
                                    Response::Enrolled => {}
                                    other => panic!("unexpected {other:?}"),
                                }
                            }
                        });
                    }
                });
            });
        });
    }
    group.finish();
}

/// The framing layer alone: encode + reassemble one upload per wire
/// format. The byte throughputs differ because the binary body is a
/// fraction of the JSON body for the same trace.
fn framing(c: &mut Criterion) {
    let trace = bench_trace(6);
    let request = Request::Analyze {
        trace,
        authenticate: false,
    };

    let mut group = c.benchmark_group("gateway_wire");
    for format in FORMATS {
        let body = medsen_cloud::wire::encode_request(format, &request).expect("encodes");
        let upload = wire::encode_upload_wire(7, format, &body);
        group.throughput(Throughput::Bytes(upload.len() as u64));
        group.bench_function(format!("encode_upload_{format}"), |b| {
            b.iter(|| black_box(wire::encode_upload_wire(7, format, black_box(&body))));
        });
        group.bench_function(format!("decode_upload_{format}"), |b| {
            b.iter(|| wire::decode_upload(black_box(&upload)).expect("decodes"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    pool_scaling,
    enroll_storm,
    telemetry_overhead,
    framing
);
criterion_main!(benches);
