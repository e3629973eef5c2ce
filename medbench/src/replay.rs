//! Layer replay: times each layer's public entry point, called from the
//! benchmark's own code, over the workload's generated inputs. This
//! fills in the stages the gateway's spans do not cover (encode,
//! reassembly, codec, CRC, digest, detrend, detect, auth).

use crate::gen;
use medsen_cloud::service::{Request, Response};
use medsen_cloud::{auth, trace_digest, AnalysisServer, RecordId, ShardedAuth, StoredRecord};
use medsen_dsp::classify::Classifier;
use medsen_dsp::detrend::detrend_segmented;
use medsen_dsp::features::match_amplitudes;
use medsen_dsp::stats::robust_sigma;
use medsen_phone::OneWayUploader;
use medsen_wire::WireFormat;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One request as a session would send it, with the reply it earns.
pub struct Item<'a> {
    pub request: &'a Request,
    pub format: WireFormat,
    pub fountain: bool,
    pub response: Response,
}

/// Auth state for replaying `measure_signature` + `authenticate`.
pub struct AuthReplay<'a> {
    pub classifier: &'a Classifier,
    pub db: ShardedAuth,
}

/// Timings per operation, in nanoseconds, plus byte and sample counts.
#[derive(Debug, Default)]
pub struct Replay {
    pub ns: BTreeMap<&'static str, Vec<u64>>,
    pub upload_bytes: u64,
    pub uploads: u64,
    pub crc_bytes: u64,
    pub samples: u64,
}

impl Replay {
    fn time<T>(&mut self, op: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = black_box(f());
        self.ns
            .entry(op)
            .or_default()
            .push(started.elapsed().as_nanos() as u64);
        out
    }

    /// p50 of `op` in milliseconds (0 when the workload never runs it).
    pub fn p50_ms(&self, op: &str) -> f64 {
        self.ns
            .get(op)
            .map_or(0.0, |ns| crate::spans::percentile_ms(ns, 50.0))
    }

    pub fn total_s(&self, op: &str) -> f64 {
        self.ns.get(op).map_or(0, |ns| ns.iter().sum::<u64>()) as f64 / 1e9
    }
}

/// Replays every item at least once, then keeps cycling until `budget`
/// is spent.
pub fn replay(items: &[Item<'_>], auth: Option<&AuthReplay<'_>>, budget: Duration) -> Replay {
    let server = AnalysisServer::paper_default();
    let uploader = OneWayUploader::with_budget(crate::serve::FOUNTAIN_BUDGET);
    let mut r = Replay::default();
    let started = Instant::now();
    let mut first_pass = true;
    while first_pass || started.elapsed() < budget {
        first_pass = false;
        for item in items {
            let (body, upload) = r.time("phone.encode", || {
                let body = medsen_cloud::wire::encode_request_traced(item.format, item.request, 1)
                    .expect("generated requests encode");
                let upload = medsen_gateway::wire::encode_upload_traced(7, item.format, &body, 1);
                (body, upload)
            });
            r.upload_bytes += upload.len() as u64;
            r.uploads += 1;
            r.time("wire.crc32", || medsen_wire::crc32(&upload));
            r.crc_bytes += upload.len() as u64;
            r.time("gateway.reassembly", || {
                medsen_gateway::wire::decode_upload_traced(&upload).expect("own upload decodes")
            });
            r.time("wire.request_decode", || {
                medsen_cloud::wire::decode_request_traced(item.format, &body)
                    .expect("own body decodes")
            });
            r.time("wire.response_encode", || {
                medsen_cloud::wire::encode_response_traced(item.format, &item.response, 1)
                    .expect("replies encode")
            });
            if item.fountain {
                r.time("phone.fountain_encode", || {
                    uploader
                        .encode_numbered(7, 0, &upload)
                        .expect("upload fits a block")
                });
            }
            if let Request::Analyze {
                trace,
                authenticate,
            } = item.request
            {
                r.time("cloud.digest", || trace_digest(trace));
                let depths: Vec<Vec<f64>> = r.time("dsp.detrend", || {
                    trace
                        .channels()
                        .iter()
                        .map(|c| detrend_segmented(&c.samples, &server.detrend))
                        .collect()
                });
                r.samples += trace.total_samples() as u64;
                // Mirror `AnalysisServer::analyze`: detect on the lowest
                // carrier with the noise-adapted threshold.
                let reference = trace
                    .channels()
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.carrier.value().total_cmp(&b.carrier.value()))
                    .map_or(0, |(i, _)| i);
                r.time("dsp.detect", || {
                    let mut detector = server.detector;
                    detector.threshold = detector
                        .threshold
                        .max(server.adaptive_sigma_factor * robust_sigma(&depths[reference]));
                    let peaks = detector.detect(&depths[reference], trace.sample_rate.value());
                    match_amplitudes(&depths, &peaks, server.feature_half_window)
                });
                if let (true, Some(auth_replay), Response::Analyzed { report, .. }) =
                    (*authenticate, auth, &item.response)
                {
                    r.time("cloud.auth", || {
                        let signature = auth::measure_signature(report, auth_replay.classifier);
                        auth_replay.db.authenticate(&signature)
                    });
                }
            }
        }
    }
    r
}

/// The replay set of `diagnose_long`: a few paper-length traces.
pub fn diagnose_items(cases: &[gen::DiagnoseCase]) -> Vec<Item<'_>> {
    cases
        .iter()
        .take(4)
        .map(|case| Item {
            request: &case.request,
            format: WireFormat::Binary,
            fountain: false,
            response: Response::Analyzed {
                report: case.expected.clone(),
                auth: None,
                stored_as: None,
            },
        })
        .collect()
}

/// The replay set of `enroll_durable`.
pub fn enroll_items(requests: &[Request]) -> Vec<Item<'_>> {
    requests
        .iter()
        .map(|request| Item {
            request,
            format: WireFormat::Binary,
            fountain: false,
            response: Response::Enrolled,
        })
        .collect()
}

/// The replay set of `clinic_mix`: each session's three requests, in
/// its own uplink's format.
pub fn clinic_items<'a>(
    sessions: &'a [gen::ClinicSession],
    [fetch, verify]: &'a [Request; 2],
) -> Vec<Item<'a>> {
    let mut items = Vec::new();
    for session in sessions {
        let (format, fountain) = match session.uplink {
            gen::Uplink::Binary => (WireFormat::Binary, false),
            gen::Uplink::Json => (WireFormat::Json, false),
            gen::Uplink::Fountain => (WireFormat::Binary, true),
        };
        let record = StoredRecord {
            user_id: session.user.clone(),
            report: session.expected.clone(),
            signature: session.signature.clone(),
        };
        let replies = [
            Response::Analyzed {
                report: session.expected.clone(),
                auth: Some(medsen_cloud::AuthDecision::Accepted {
                    user_id: session.user.clone(),
                }),
                stored_as: Some(RecordId(1)),
            },
            Response::Record(record),
            Response::Integrity { intact: true },
        ];
        for (request, response) in [&session.request, fetch, verify].into_iter().zip(replies) {
            items.push(Item {
                request,
                format,
                fountain,
                response,
            });
        }
    }
    items
}
