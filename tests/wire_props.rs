//! Property battery for the shared wire protocol (vendored proptest).
//!
//! Three laws, fuzzed over arbitrary message values and adversarial
//! byte streams:
//!
//! * **round-trip identity** — every [`Request`]/[`Response`] value
//!   survives binary encode→decode unchanged;
//! * **observational equivalence** — for every message, decoding the
//!   binary encoding and decoding the JSON encoding yield the *same*
//!   value, or both refuse it, so a binary-speaking dongle and a JSON
//!   debug client can never disagree about what was said;
//! * **the decoder never panics** — truncations, bit flips, and forged
//!   headers produce typed errors, never a crash.
//!
//! A gateway law rides along: any request a client can encode, its
//! traces full of NaN, ±∞, subnormals and huge finite values, gets a
//! reply, and the lane that served it keeps serving.
//!
//! A fourth, non-fuzzed section pins the fountain crate's frozen CRC-32
//! copy bit-equal to the shared `medsen-wire` implementation (the same
//! pin discipline the security audit applies to the keystream PRNG):
//! the fountain symbol frame is a wire contract with deployed one-way
//! dongles, so its checksum must never drift even though the crate
//! deliberately keeps its own copy.

use medsen::cloud::service::{CloudService, Request, Response};
use medsen::cloud::wire::{decode_request, decode_response, encode_request, encode_response};
use medsen::cloud::{
    AnalyzedPeak, AuthDecision, BeadSignature, PeakReport, RecordId, StoredRecord,
};
use medsen::gateway::{encode_upload_wire, Gateway, GatewayConfig, ShedPolicy};
use medsen::impedance::{Channel, SignalComponent, SignalTrace};
use medsen::microfluidics::ParticleKind;
use medsen::units::Hertz;
use medsen::wire::{WireError, WireFormat};
use proptest::prelude::*;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Finite, NaN-free doubles (wire equality is `PartialEq` on the decoded
/// values, so NaN payloads would vacuously fail the laws they ride in).
fn arb_f64() -> impl Strategy<Value = f64> {
    (any::<i32>(), 1u32..1000).prop_map(|(n, d)| n as f64 / d as f64)
}

/// Special doubles a forger can put in a trace. The first seven are
/// finite: decode accepts them as samples and carriers, and the positive
/// ones as a rate. Both decoders refuse the last three anywhere.
const EXTREMES: [f64; 10] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e300,
    -1e300,
    f64::MAX,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// One of `extremes` half the time, otherwise an [`arb_f64`].
fn extreme_f64(extremes: &'static [f64]) -> impl Strategy<Value = f64> {
    (0..extremes.len() * 2, arb_f64())
        .prop_map(move |(pick, ordinary)| extremes.get(pick).copied().unwrap_or(ordinary))
}

/// Arbitrary rectangular traces: 1–3 channels, all the same length (the
/// [`SignalTrace`] constructor enforces this, so the generator must too).
/// Rate, carriers and samples are drawn from `float`; with [`arb_f64`]
/// about half draw a sample rate ≤ 0, which both decoders must refuse.
fn arb_trace<S: Strategy<Value = f64>>(
    float: impl Fn() -> S + Copy,
) -> impl Strategy<Value = SignalTrace> {
    (1usize..4, 0usize..24).prop_flat_map(move |(channels, samples)| {
        (
            float(),
            proptest::collection::vec(
                (
                    float(),
                    proptest::collection::vec(float(), samples),
                    0usize..2,
                ),
                channels,
            ),
        )
            .prop_map(|(rate, specs)| {
                let channels = specs
                    .into_iter()
                    .map(|(carrier, samples, component)| {
                        let mut ch = Channel::new(Hertz::new(carrier));
                        ch.samples = samples;
                        if component == 1 {
                            ch.component = SignalComponent::Quadrature;
                        }
                        ch
                    })
                    .collect();
                SignalTrace::new(Hertz::new(rate), channels)
            })
    })
}

/// Arbitrary bead signatures over the two password-bead species.
fn arb_signature() -> impl Strategy<Value = BeadSignature> {
    (any::<u64>(), any::<u64>(), 0usize..3).prop_map(|(a, b, keep)| {
        let mut counts: Vec<(ParticleKind, u64)> = vec![];
        if keep != 0 {
            counts.push((ParticleKind::Bead358, a));
        }
        if keep != 1 {
            counts.push((ParticleKind::Bead78, b));
        }
        BeadSignature::from_counts(&counts)
    })
}

/// Unicode-bearing identifiers, empty string included.
fn arb_ident() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..5, 0..8).prop_map(|picks| {
        picks
            .into_iter()
            .map(|p| ["a", "Z", "7", "α", "試"][p])
            .collect()
    })
}

fn arb_report() -> impl Strategy<Value = PeakReport> {
    (
        proptest::collection::vec(
            (
                arb_f64(),
                arb_f64(),
                arb_f64(),
                proptest::collection::vec(arb_f64(), 0..4),
            ),
            0..4,
        ),
        proptest::collection::vec(arb_f64(), 0..3),
        arb_f64(),
        arb_f64(),
        arb_f64(),
    )
        .prop_map(
            |(peaks, carriers_hz, sample_rate_hz, duration_s, noise_sigma)| PeakReport {
                peaks: peaks
                    .into_iter()
                    .map(|(time_s, amplitude, width_s, features)| AnalyzedPeak {
                        time_s,
                        amplitude,
                        width_s,
                        features,
                    })
                    .collect(),
                carriers_hz,
                sample_rate_hz,
                duration_s,
                noise_sigma,
            },
        )
}

/// Whether a sensor could have sent `request`. [`arb_f64`] draws only
/// finite carriers and samples, so the sample rate is all that can make
/// a generated trace one that the decoders refuse.
fn sensor_could_send(request: &Request) -> bool {
    match request {
        Request::Analyze { trace, .. } => trace.sample_rate.value() > 0.0,
        _ => true,
    }
}

fn arb_request() -> impl Strategy<Value = Request> {
    arb_request_over(arb_f64)
}

/// Arbitrary requests whose traces draw their floats from `f`.
fn arb_request_over<S: Strategy<Value = f64> + 'static>(
    f: impl Fn() -> S + Copy + 'static,
) -> impl Strategy<Value = Request> {
    (0usize..5).prop_flat_map(move |variant| {
        let b: Box<dyn Strategy<Value = Request>> = match variant {
            0 => Box::new(
                (arb_trace(f), any::<bool>()).prop_map(|(trace, authenticate)| Request::Analyze {
                    trace,
                    authenticate,
                }),
            ),
            1 => Box::new(
                (arb_ident(), arb_signature()).prop_map(|(identifier, signature)| {
                    Request::Enroll {
                        identifier,
                        signature,
                    }
                }),
            ),
            2 => Box::new(any::<u64>().prop_map(|id| Request::Fetch {
                record_id: RecordId(id),
            })),
            3 => Box::new(any::<u64>().prop_map(|id| Request::VerifyIntegrity {
                record_id: RecordId(id),
            })),
            _ => Box::new(Just(Request::Ping)),
        };
        b
    })
}

fn arb_auth() -> impl Strategy<Value = Option<AuthDecision>> {
    (
        0usize..4,
        arb_ident(),
        proptest::collection::vec(arb_ident(), 0..3),
    )
        .prop_map(|(variant, user_id, candidates)| match variant {
            0 => None,
            1 => Some(AuthDecision::Accepted { user_id }),
            2 => Some(AuthDecision::Rejected),
            _ => Some(AuthDecision::Ambiguous { candidates }),
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (0usize..6).prop_flat_map(|variant| {
        let b: Box<dyn Strategy<Value = Response>> = match variant {
            0 => Box::new(
                (arb_report(), arb_auth(), any::<bool>(), any::<u64>()).prop_map(
                    |(report, auth, stored, id)| Response::Analyzed {
                        report,
                        auth,
                        stored_as: stored.then_some(RecordId(id)),
                    },
                ),
            ),
            1 => Box::new(Just(Response::Enrolled)),
            2 => Box::new((arb_ident(), arb_report(), arb_signature()).prop_map(
                |(user_id, report, signature)| {
                    Response::Record(StoredRecord {
                        user_id,
                        report,
                        signature,
                    })
                },
            )),
            3 => Box::new(any::<bool>().prop_map(|intact| Response::Integrity { intact })),
            4 => Box::new(Just(Response::Pong)),
            _ => Box::new(arb_ident().prop_map(|reason| Response::Error { reason })),
        };
        b
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Binary round-trip identity for every request variant; a trace no
    /// sensor could send is refused instead.
    #[test]
    fn requests_round_trip_in_binary(request in arb_request()) {
        let bytes = encode_request(WireFormat::Binary, &request).expect("encodes");
        let back = decode_request(WireFormat::Binary, &bytes).ok();
        prop_assert_eq!(back, sensor_could_send(&request).then_some(request));
    }

    /// Binary round-trip identity for every response variant.
    #[test]
    fn responses_round_trip_in_binary(response in arb_response()) {
        let bytes = encode_response(WireFormat::Binary, &response).expect("encodes");
        let back = decode_response(WireFormat::Binary, &bytes).expect("decodes");
        prop_assert_eq!(back, response);
    }

    /// Observational equivalence: the binary and JSON encodings of one
    /// request decode to the same value, or are both refused.
    #[test]
    fn request_formats_are_observationally_equivalent(request in arb_request()) {
        let binary = encode_request(WireFormat::Binary, &request).expect("binary encodes");
        let json = encode_request(WireFormat::Json, &request).expect("json encodes");
        let from_binary = decode_request(WireFormat::Binary, &binary).ok();
        let from_json = decode_request(WireFormat::Json, &json).ok();
        prop_assert_eq!(&from_binary, &from_json);
        prop_assert_eq!(from_binary, sensor_could_send(&request).then_some(request));
    }

    /// Observational equivalence for responses.
    #[test]
    fn response_formats_are_observationally_equivalent(response in arb_response()) {
        let binary = encode_response(WireFormat::Binary, &response).expect("binary encodes");
        let json = encode_response(WireFormat::Json, &response).expect("json encodes");
        let from_binary = decode_response(WireFormat::Binary, &binary).expect("binary decodes");
        let from_json = decode_response(WireFormat::Json, &json).expect("json decodes");
        prop_assert_eq!(&from_binary, &from_json);
        prop_assert_eq!(from_binary, response);
    }

    /// Truncating a valid frame anywhere yields a typed error, never a
    /// panic and never a silent partial decode.
    #[test]
    fn truncated_frames_error_typed(request in arb_request(), cut_seed in any::<u64>()) {
        let bytes = encode_request(WireFormat::Binary, &request).expect("encodes");
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(decode_request(WireFormat::Binary, &bytes[..cut]).is_err());
    }

    /// A single flipped bit anywhere is rejected (the frame CRC catches
    /// payload damage; header damage fails structurally) — decoding is
    /// total either way.
    #[test]
    fn bit_flips_never_panic(response in arb_response(), flip_seed in any::<u64>()) {
        let mut bytes = encode_response(WireFormat::Binary, &response).expect("encodes");
        let bit = (flip_seed % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Decoding must not panic; corruption is *detected* except in
        // the header's own length/crc fields where a structural error
        // fires instead — either way, never a wrong value silently.
        prop_assert!(decode_response(WireFormat::Binary, &bytes).is_err());
    }

    /// Forged headers — arbitrary kind bytes, version bytes, and length
    /// prefixes over random bodies — always produce typed errors.
    #[test]
    fn forged_frames_never_panic(
        kind in any::<u8>(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let framed = medsen::wire::frame_to_vec(kind, &body);
        // Whatever the forger built, both decoders stay total.
        let _ = decode_request(WireFormat::Binary, &framed);
        let _ = decode_response(WireFormat::Binary, &framed);
        let _ = decode_request(WireFormat::Json, &framed);
        let _ = decode_response(WireFormat::Json, &framed);
        // Raw garbage (no valid frame at all) too.
        let _ = decode_request(WireFormat::Binary, &body);
        let _ = decode_response(WireFormat::Binary, &body);
    }
}

/// Requests whose traces draw adversarial floats. In half of them the
/// traces hold only finite values, so those with a positive rate pass
/// decode and reach the DSP; the rest may also hold NaN and ±∞, which
/// the decoders refuse.
fn arb_hostile_request() -> impl Strategy<Value = Request> {
    any::<bool>().prop_flat_map(|finite| {
        let extremes: &'static [f64] = if finite { &EXTREMES[..7] } else { &EXTREMES };
        arb_request_over(move || extreme_f64(extremes))
    })
}

/// Runs `f` on its own thread and gives up on it after `limit`.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> Option<T> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A gateway lane survives any request a client can encode: each one,
    /// in binary and (when it encodes) in JSON, gets a reply within the
    /// limit, the lane's only worker then answers a `Ping`, and the
    /// gateway shuts down within the limit.
    #[test]
    fn any_request_gets_a_reply_and_the_lane_keeps_serving(
        request in arb_hostile_request(),
    ) {
        const LIMIT: Duration = Duration::from_secs(5);
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 4,
                workers: 1,
                shed_policy: ShedPolicy::Block,
            },
        );
        for format in [WireFormat::Binary, WireFormat::Json] {
            // JSON has no spelling for NaN or ±∞.
            let Ok(body) = encode_request(format, &request) else {
                continue;
            };
            let reply = gw.submit(encode_upload_wire(1, format, &body)).expect("accepted");
            let reply = within(LIMIT, move || reply.wait());
            prop_assert!(matches!(reply, Some(Ok(_))), "{}: {:?}", format, reply);
            let ping = encode_request(format, &Request::Ping).expect("encodes");
            let pong = gw.submit(encode_upload_wire(2, format, &ping)).expect("accepted");
            prop_assert_eq!(within(LIMIT, move || pong.wait()), Some(Ok(Response::Pong)));
        }
        prop_assert!(within(LIMIT, move || gw.shutdown()).is_some(), "shutdown hung");
    }
}

/// An Analyze request for two channels of three samples each: one at
/// `carrier` whose middle sample is `sample`, and one at 2 MHz.
fn analyze(rate: f64, carrier: f64, sample: f64) -> Request {
    let mut probe = Channel::new(Hertz::new(carrier));
    probe.samples = vec![1.0, sample, 1.0];
    let mut reference = Channel::new(Hertz::from_khz(2000.0));
    reference.samples = vec![1.0; 3];
    Request::Analyze {
        trace: SignalTrace::new(Hertz::new(rate), vec![probe, reference]),
        authenticate: false,
    }
}

/// The JSON decoder refuses the traces the binary one does, for the same
/// reason (the binary cases are unit tests of `SignalTrace`): ±1e999,
/// which parses to ±∞, as a rate, carrier or sample; ragged channels;
/// and a sample rate of zero or below, in both formats.
#[test]
fn both_formats_refuse_a_trace_no_sensor_can_produce() {
    const RATE: &str = "trace sample rate is not finite and positive";
    let json_text = |request: &Request| {
        String::from_utf8(encode_request(WireFormat::Json, request).expect("encodes"))
            .expect("json is utf-8")
    };
    let refused_in_json =
        |text: &str, why: &str| match decode_request(WireFormat::Json, text.as_bytes()) {
            Err(WireError::Codec(reason)) => assert!(reason.contains(why), "{text}: {reason}"),
            other => panic!("{text}: {other:?}"),
        };

    // Each marker value appears once in the JSON text.
    let good = analyze(451.25, 500_001.5, 0.8125);
    let text = json_text(&good);
    assert_eq!(decode_request(WireFormat::Json, text.as_bytes()), Ok(good));
    for huge in ["1e999", "-1e999"] {
        refused_in_json(&text.replace("451.25", huge), RATE);
        refused_in_json(
            &text.replace("500001.5", huge),
            "trace carrier is not finite",
        );
        refused_in_json(&text.replace("0.8125", huge), "trace sample is not finite");
    }
    refused_in_json(
        &text.replace("0.8125,", ""),
        "trace channels have unequal lengths",
    );
    for rate in [0.0, -0.0, -450.0] {
        let request = analyze(rate, 5e5, 1.0);
        let binary = encode_request(WireFormat::Binary, &request).expect("encodes");
        assert_eq!(
            decode_request(WireFormat::Binary, &binary),
            Err(WireError::Invalid(RATE))
        );
        refused_in_json(&json_text(&request), RATE);
    }
}

/// The fountain crate's deliberately-frozen CRC-32 copy must stay
/// bit-equal to the shared `medsen-wire` implementation, forever: the
/// symbol frame checksum is a wire contract with deployed one-way
/// dongles. Mirrors the keystream-PRNG pin in the security audit.
#[test]
fn fountain_crc_copy_is_pinned_to_the_shared_crc() {
    // Known IEEE vectors through both implementations.
    for (input, want) in [
        (&b""[..], 0u32),
        (b"123456789", 0xCBF4_3926),
        (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
    ] {
        assert_eq!(medsen::wire::crc32(input), want);
        assert_eq!(medsen::fountain::crc32(input), want);
    }
    // And bit-equality over a structured sweep: varied lengths, varied
    // alignments, every byte value represented.
    let mut payload = Vec::new();
    for i in 0..4096u32 {
        payload.push((i.wrapping_mul(0x9E37_79B9) >> 24) as u8);
    }
    for window in [1usize, 3, 7, 64, 255, 1024, 4096] {
        for start in (0..payload.len() - window).step_by(277) {
            let slice = &payload[start..start + window];
            assert_eq!(
                medsen::wire::crc32(slice),
                medsen::fountain::crc32(slice),
                "CRC drift at start {start} window {window}"
            );
        }
    }
    // The shared CRC folds whole blocks at a time and finishes the tail
    // byte by byte: every tail length at every alignment, then one
    // buffer the size of a paper-length upload and more.
    for start in 0..16 {
        for len in 0..=64 {
            let slice = &payload[start..start + len];
            assert_eq!(
                medsen::wire::crc32(slice),
                medsen::fountain::crc32(slice),
                "CRC drift at start {start} length {len}"
            );
        }
    }
    let large: Vec<u8> = (0..(2u32 << 20) + 13)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
        .collect();
    assert_eq!(
        medsen::wire::crc32(&large),
        medsen::fountain::crc32(&large),
        "CRC drift over {} bytes",
        large.len()
    );
}
