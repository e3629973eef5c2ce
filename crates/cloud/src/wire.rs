//! Binary and JSON wire encodings for the cross-tier message types, plus
//! the format-dispatch helpers every transport hop shares.
//!
//! [`Request`] and [`Response`] are the two root messages of the
//! phone↔gateway↔cloud protocol. Their [`Wire`] and [`Json`] impls live
//! here (orphan rules put them next to the types, not in `medsen-wire`),
//! the binary one under a frozen frame kind tag; the per-field encodings
//! of the payload types (traces, reports, signatures, records) live in
//! their owning modules and crates.
//!
//! The free functions at the bottom are the one place the
//! binary-vs-JSON choice is made: every encoder/decoder in the gateway
//! and cloud goes through [`encode_request`]/[`decode_request`]/
//! [`encode_response`]/[`decode_response`] with a [`WireFormat`], so no
//! call site can hardcode a format and drift from its peer.

use crate::service::{Request, Response};
use medsen_wire::json::{required, unknown_variant};
use medsen_wire::{
    decode_message, decode_message_traced, encode_message, encode_message_traced, BinaryWire, Json,
    JsonReader, JsonWire, JsonWriter, Reader, Wire, WireCodec, WireError, WireFormat, WireMessage,
    Writer, TRACED_KIND_BIT, WIRE_VERSION,
};

/// Frame kind tag for [`Request`] messages. Frozen: chosen clear of the
/// WAL entry kinds, the AOAP frame types (`0x10..=0x13`), and the
/// fountain symbol magic (`0xF7`), so a misrouted buffer fails on its
/// kind byte instead of half-decoding.
pub const REQUEST_KIND: u8 = 0x21;

/// Frame kind tag for [`Response`] messages.
pub const RESPONSE_KIND: u8 = 0x22;

/// Variant tags for [`Request`]. Frozen wire contract.
const REQ_ANALYZE: u8 = 0;
const REQ_ENROLL: u8 = 1;
const REQ_FETCH: u8 = 2;
const REQ_VERIFY_INTEGRITY: u8 = 3;
const REQ_PING: u8 = 4;

/// Variant tags for [`Response`]. Frozen wire contract.
const RESP_ANALYZED: u8 = 0;
const RESP_ENROLLED: u8 = 1;
const RESP_RECORD: u8 = 2;
const RESP_INTEGRITY: u8 = 3;
const RESP_PONG: u8 = 4;
const RESP_ERROR: u8 = 5;

impl Wire for Request {
    fn wire_encode(&self, w: &mut Writer) {
        match self {
            Request::Analyze {
                trace,
                authenticate,
            } => {
                w.put_u8(REQ_ANALYZE);
                trace.wire_encode(w);
                w.put_bool(*authenticate);
            }
            Request::Enroll {
                identifier,
                signature,
            } => {
                w.put_u8(REQ_ENROLL);
                identifier.wire_encode(w);
                signature.wire_encode(w);
            }
            Request::Fetch { record_id } => {
                w.put_u8(REQ_FETCH);
                record_id.wire_encode(w);
            }
            Request::VerifyIntegrity { record_id } => {
                w.put_u8(REQ_VERIFY_INTEGRITY);
                record_id.wire_encode(w);
            }
            Request::Ping => w.put_u8(REQ_PING),
        }
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            REQ_ANALYZE => Ok(Request::Analyze {
                trace: Wire::wire_decode(r)?,
                authenticate: r.get_bool()?,
            }),
            REQ_ENROLL => Ok(Request::Enroll {
                identifier: String::wire_decode(r)?,
                signature: Wire::wire_decode(r)?,
            }),
            REQ_FETCH => Ok(Request::Fetch {
                record_id: Wire::wire_decode(r)?,
            }),
            REQ_VERIFY_INTEGRITY => Ok(Request::VerifyIntegrity {
                record_id: Wire::wire_decode(r)?,
            }),
            REQ_PING => Ok(Request::Ping),
            tag => Err(WireError::BadTag {
                what: "request",
                tag,
            }),
        }
    }
}

impl WireMessage for Request {
    const KIND: u8 = REQUEST_KIND;
}

impl Wire for Response {
    fn wire_encode(&self, w: &mut Writer) {
        match self {
            Response::Analyzed {
                report,
                auth,
                stored_as,
            } => {
                w.put_u8(RESP_ANALYZED);
                report.wire_encode(w);
                auth.wire_encode(w);
                stored_as.wire_encode(w);
            }
            Response::Enrolled => w.put_u8(RESP_ENROLLED),
            Response::Record(record) => {
                w.put_u8(RESP_RECORD);
                record.wire_encode(w);
            }
            Response::Integrity { intact } => {
                w.put_u8(RESP_INTEGRITY);
                w.put_bool(*intact);
            }
            Response::Pong => w.put_u8(RESP_PONG),
            Response::Error { reason } => {
                w.put_u8(RESP_ERROR);
                reason.wire_encode(w);
            }
        }
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            RESP_ANALYZED => Ok(Response::Analyzed {
                report: Wire::wire_decode(r)?,
                auth: Option::wire_decode(r)?,
                stored_as: Option::wire_decode(r)?,
            }),
            RESP_ENROLLED => Ok(Response::Enrolled),
            RESP_RECORD => Ok(Response::Record(Wire::wire_decode(r)?)),
            RESP_INTEGRITY => Ok(Response::Integrity {
                intact: r.get_bool()?,
            }),
            RESP_PONG => Ok(Response::Pong),
            RESP_ERROR => Ok(Response::Error {
                reason: String::wire_decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "response",
                tag,
            }),
        }
    }
}

impl WireMessage for Response {
    const KIND: u8 = RESPONSE_KIND;
}

impl Json for Request {
    fn json_encode(&self, w: &mut JsonWriter) {
        match self {
            Request::Analyze {
                trace,
                authenticate,
            } => w.variant("Analyze", |w| {
                w.object(|w| {
                    w.field("trace", trace);
                    w.field("authenticate", authenticate);
                });
            }),
            Request::Enroll {
                identifier,
                signature,
            } => w.variant("Enroll", |w| {
                w.object(|w| {
                    w.field("identifier", identifier);
                    w.field("signature", signature);
                });
            }),
            Request::Fetch { record_id } => {
                w.variant("Fetch", |w| w.object(|w| w.field("record_id", record_id)));
            }
            Request::VerifyIntegrity { record_id } => w.variant("VerifyIntegrity", |w| {
                w.object(|w| w.field("record_id", record_id));
            }),
            Request::Ping => w.str("Ping"),
        }
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        r.variant(|name, payload| match (name, payload) {
            ("Analyze", Some(r)) => {
                let (mut trace, mut authenticate) = (None, None);
                r.object(|key, r| {
                    match key {
                        "trace" => trace = Some(Json::json_decode(r)?),
                        "authenticate" => authenticate = Some(r.bool()?),
                        _ => r.skip()?,
                    }
                    Ok(())
                })?;
                Ok(Request::Analyze {
                    trace: required(trace, "trace")?,
                    authenticate: required(authenticate, "authenticate")?,
                })
            }
            ("Enroll", Some(r)) => {
                let (mut identifier, mut signature) = (None, None);
                r.object(|key, r| {
                    match key {
                        "identifier" => identifier = Some(r.string()?),
                        "signature" => signature = Some(Json::json_decode(r)?),
                        _ => r.skip()?,
                    }
                    Ok(())
                })?;
                Ok(Request::Enroll {
                    identifier: required(identifier, "identifier")?,
                    signature: required(signature, "signature")?,
                })
            }
            ("Fetch", Some(r)) => Ok(Request::Fetch {
                record_id: r.one_field("record_id")?,
            }),
            ("VerifyIntegrity", Some(r)) => Ok(Request::VerifyIntegrity {
                record_id: r.one_field("record_id")?,
            }),
            ("Ping", None) => Ok(Request::Ping),
            (name, _) => Err(unknown_variant("request", name)),
        })
    }
}

impl Json for Response {
    fn json_encode(&self, w: &mut JsonWriter) {
        match self {
            Response::Analyzed {
                report,
                auth,
                stored_as,
            } => w.variant("Analyzed", |w| {
                w.object(|w| {
                    w.field("report", report);
                    w.field("auth", auth);
                    w.field("stored_as", stored_as);
                });
            }),
            Response::Enrolled => w.str("Enrolled"),
            Response::Record(record) => w.variant("Record", |w| record.json_encode(w)),
            Response::Integrity { intact } => {
                w.variant("Integrity", |w| w.object(|w| w.field("intact", intact)));
            }
            Response::Pong => w.str("Pong"),
            Response::Error { reason } => {
                w.variant("Error", |w| w.object(|w| w.field("reason", reason)));
            }
        }
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        r.variant(|name, payload| match (name, payload) {
            ("Analyzed", Some(r)) => {
                let (mut report, mut auth, mut stored_as) = (None, None, None);
                r.object(|key, r| {
                    match key {
                        "report" => report = Some(Json::json_decode(r)?),
                        "auth" => auth = Some(Json::json_decode(r)?),
                        "stored_as" => stored_as = Some(Json::json_decode(r)?),
                        _ => r.skip()?,
                    }
                    Ok(())
                })?;
                Ok(Response::Analyzed {
                    report: required(report, "report")?,
                    auth: required(auth, "auth")?,
                    stored_as: required(stored_as, "stored_as")?,
                })
            }
            ("Enrolled", None) => Ok(Response::Enrolled),
            ("Record", Some(r)) => Ok(Response::Record(Json::json_decode(r)?)),
            ("Integrity", Some(r)) => Ok(Response::Integrity {
                intact: r.one_field("intact")?,
            }),
            ("Pong", None) => Ok(Response::Pong),
            ("Error", Some(r)) => Ok(Response::Error {
                reason: r.one_field("reason")?,
            }),
            (name, _) => Err(unknown_variant("response", name)),
        })
    }
}

/// Encodes a [`Request`] body in the selected format.
pub fn encode_request(format: WireFormat, request: &Request) -> Result<Vec<u8>, WireError> {
    match format {
        WireFormat::Binary => BinaryWire.encode(request),
        WireFormat::Json => JsonWire.encode(request),
    }
}

/// Decodes a [`Request`] body in the selected format. Total: malformed
/// bytes return an error, never panic.
pub fn decode_request(format: WireFormat, bytes: &[u8]) -> Result<Request, WireError> {
    match format {
        WireFormat::Binary => BinaryWire.decode(bytes),
        WireFormat::Json => JsonWire.decode(bytes),
    }
}

/// Encodes a [`Response`] body in the selected format.
pub fn encode_response(format: WireFormat, response: &Response) -> Result<Vec<u8>, WireError> {
    match format {
        WireFormat::Binary => BinaryWire.encode(response),
        WireFormat::Json => JsonWire.encode(response),
    }
}

/// Decodes a [`Response`] body in the selected format.
pub fn decode_response(format: WireFormat, bytes: &[u8]) -> Result<Response, WireError> {
    match format {
        WireFormat::Binary => BinaryWire.decode(bytes),
        WireFormat::Json => JsonWire.decode(bytes),
    }
}

/// Encodes a [`Request`] body with trace context in the selected
/// format. Binary rides the traced twin frame kind
/// (`REQUEST_KIND | TRACED_KIND_BIT`); JSON mirrors the same optional
/// field as a `{"trace":N,"body":...}` wrapper object. A zero `trace`
/// falls back to the plain, byte-identical untraced encoding in both
/// formats.
pub fn encode_request_traced(
    format: WireFormat,
    request: &Request,
    trace: u64,
) -> Result<Vec<u8>, WireError> {
    match format {
        WireFormat::Binary => Ok(encode_message_traced(request, trace)),
        WireFormat::Json => Ok(json_wrap(JsonWire.encode(request)?, trace)),
    }
}

/// Decodes a [`Request`] body that may or may not carry trace context;
/// pre-trace-context bodies decode as `(request, None)` in both
/// formats.
pub fn decode_request_traced(
    format: WireFormat,
    bytes: &[u8],
) -> Result<(Request, Option<u64>), WireError> {
    match format {
        WireFormat::Binary => decode_message_traced(bytes),
        WireFormat::Json => {
            let (inner, trace) = json_unwrap(bytes)?;
            Ok((JsonWire.decode(inner)?, trace))
        }
    }
}

/// Encodes a [`Response`] body with trace context — the reply half of
/// [`encode_request_traced`], so a traced request's reply carries the
/// same trace id back to the phone.
pub fn encode_response_traced(
    format: WireFormat,
    response: &Response,
    trace: u64,
) -> Result<Vec<u8>, WireError> {
    match format {
        WireFormat::Binary => Ok(encode_message_traced(response, trace)),
        WireFormat::Json => Ok(json_wrap(JsonWire.encode(response)?, trace)),
    }
}

/// Decodes a [`Response`] body that may or may not carry trace context.
pub fn decode_response_traced(
    format: WireFormat,
    bytes: &[u8],
) -> Result<(Response, Option<u64>), WireError> {
    match format {
        WireFormat::Binary => decode_message_traced(bytes),
        WireFormat::Json => {
            let (inner, trace) = json_unwrap(bytes)?;
            Ok((JsonWire.decode(inner)?, trace))
        }
    }
}

/// The JSON mirror of the binary trace-context prefix: wraps a
/// canonical body in `{"trace":N,"body":...}`. Zero trace → the body
/// itself, unchanged.
fn json_wrap(body: Vec<u8>, trace: u64) -> Vec<u8> {
    if trace == 0 {
        return body;
    }
    let mut out = Vec::with_capacity(body.len() + 24);
    out.extend_from_slice(b"{\"trace\":");
    out.extend_from_slice(trace.to_string().as_bytes());
    out.extend_from_slice(b",\"body\":");
    out.extend_from_slice(&body);
    out.push(b'}');
    out
}

/// Splits a possibly-wrapped JSON body into `(inner, trace)`. The
/// wrapper prefix cannot collide with a real message: every root
/// message serializes as `{"<VariantName>":...}` or a bare string, so
/// `{"trace":` is unambiguous.
fn json_unwrap(bytes: &[u8]) -> Result<(&[u8], Option<u64>), WireError> {
    let Some(rest) = bytes.strip_prefix(b"{\"trace\":".as_slice()) else {
        return Ok((bytes, None));
    };
    let comma = rest
        .iter()
        .position(|&b| b == b',')
        .ok_or(WireError::Invalid("traced json wrapper missing body"))?;
    let trace: u64 = std::str::from_utf8(&rest[..comma])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(WireError::Invalid("traced json wrapper has a bad trace id"))?;
    if trace == 0 {
        return Err(WireError::Invalid("traced json wrapper with zero trace id"));
    }
    let inner = rest[comma + 1..]
        .strip_prefix(b"\"body\":".as_slice())
        .and_then(|r| r.strip_suffix(b"}".as_slice()))
        .ok_or(WireError::Invalid("traced json wrapper missing body"))?;
    Ok((inner, Some(trace)))
}

/// Encodes an error reply in the selected format. Infallible by design:
/// the gateway's reply channel must never starve because an *error*
/// could not be encoded.
pub fn encode_error(format: WireFormat, reason: &str) -> Vec<u8> {
    let response = Response::Error {
        reason: reason.to_string(),
    };
    encode_response(format, &response)
        .unwrap_or_else(|_| b"{\"Error\":{\"reason\":\"reply encoding failed\"}}".to_vec())
}

/// Whether an encoded reply is the standby's "node deposed" fencing
/// error, which tells the gateway to re-route to the promoted primary.
///
/// This runs on *every* reply on the submit path, so the binary arm
/// peeks the variant tag behind the version byte (and behind the trace
/// prefix on a traced frame) and only pays for a full decode when the
/// reply really is an error frame.
pub fn reply_is_deposed(format: WireFormat, bytes: &[u8]) -> bool {
    let deposed = |reason: &str| reason.contains("node deposed");
    match format {
        WireFormat::Json => std::str::from_utf8(bytes).is_ok_and(deposed),
        WireFormat::Binary => match medsen_wire::decode_frame(bytes) {
            Ok((kind, payload))
                if kind == RESPONSE_KIND || kind == (RESPONSE_KIND | TRACED_KIND_BIT) =>
            {
                // The variant tag sits after the version byte, plus the
                // 8-byte trace id on a traced frame.
                let tag_at = if kind & TRACED_KIND_BIT != 0 { 9 } else { 1 };
                payload.first() == Some(&WIRE_VERSION)
                    && payload.get(tag_at) == Some(&RESP_ERROR)
                    && matches!(
                        decode_response_traced(WireFormat::Binary, bytes),
                        Ok((Response::Error { reason }, _)) if deposed(&reason)
                    )
            }
            _ => false,
        },
    }
}

/// Binary convenience used by tests and fixtures: one framed request.
pub fn request_to_bytes(request: &Request) -> Vec<u8> {
    encode_message(request)
}

/// Binary convenience used by tests and fixtures: one framed response.
pub fn response_to_bytes(response: &Response) -> Vec<u8> {
    encode_message(response)
}

/// Binary convenience: decodes one framed request.
pub fn request_from_bytes(bytes: &[u8]) -> Result<Request, WireError> {
    decode_message(bytes)
}

/// Binary convenience: decodes one framed response.
pub fn response_from_bytes(bytes: &[u8]) -> Result<Response, WireError> {
    decode_message(bytes)
}

/// The deterministic fixture corpus behind the checked-in golden frames.
///
/// Every value is built from fixed literal data, so re-encoding it must
/// reproduce the committed `tests/golden/*.bin` bytes byte-for-byte —
/// that is the CI tripwire against silent wire-format drift. The corpus
/// covers every [`Request`] and [`Response`] variant, including
/// non-ASCII identifiers and the deposed-node error the failover path
/// string-matches on.
pub mod golden {
    use super::{Request, Response};
    use crate::api::{AnalyzedPeak, PeakReport};
    use crate::auth::{AuthDecision, BeadSignature};
    use crate::storage::{RecordId, StoredRecord};
    use medsen_impedance::{Channel, SignalComponent, SignalTrace};
    use medsen_microfluidics::ParticleKind;
    use medsen_units::Hertz;

    /// A small two-channel trace with fixed literal samples.
    pub fn trace() -> SignalTrace {
        let mut ch = Channel::new(Hertz::from_khz(500.0));
        ch.samples = vec![1.0, 0.97, 0.99];
        let mut quad = Channel::new(Hertz::from_khz(2000.0));
        quad.samples = vec![0.01, 0.02, 0.015];
        quad.component = SignalComponent::Quadrature;
        SignalTrace::new(Hertz::new(450.0), vec![ch, quad])
    }

    /// A one-peak analysis report with fixed literal statistics.
    pub fn report() -> PeakReport {
        PeakReport {
            peaks: vec![AnalyzedPeak {
                time_s: 0.5,
                amplitude: 0.03,
                width_s: 0.002,
                features: vec![0.03, 0.01],
            }],
            carriers_hz: vec![500_000.0, 2_000_000.0],
            sample_rate_hz: 450.0,
            duration_s: 2.0,
            noise_sigma: 0.001,
        }
    }

    /// One named fixture per [`Request`] variant.
    pub fn requests() -> Vec<(&'static str, Request)> {
        vec![
            (
                "req_analyze",
                Request::Analyze {
                    trace: trace(),
                    authenticate: true,
                },
            ),
            (
                "req_enroll",
                Request::Enroll {
                    identifier: "patient-α".into(),
                    signature: BeadSignature::from_counts(&[
                        (ParticleKind::Bead358, 40),
                        (ParticleKind::Bead78, 12),
                    ]),
                },
            ),
            (
                "req_fetch",
                Request::Fetch {
                    record_id: RecordId::compose(3, 8, 77),
                },
            ),
            (
                "req_verify",
                Request::VerifyIntegrity {
                    record_id: RecordId(u64::MAX >> 1),
                },
            ),
            ("req_ping", Request::Ping),
        ]
    }

    /// One named fixture per [`Response`] variant (two for `Analyzed`,
    /// covering both the accepted and the ambiguous auth arms).
    pub fn responses() -> Vec<(&'static str, Response)> {
        vec![
            (
                "resp_analyzed_accepted",
                Response::Analyzed {
                    report: report(),
                    auth: Some(AuthDecision::Accepted {
                        user_id: "patient-α".into(),
                    }),
                    stored_as: Some(RecordId::compose(0, 1, 0)),
                },
            ),
            (
                "resp_analyzed_ambiguous",
                Response::Analyzed {
                    report: report(),
                    auth: Some(AuthDecision::Ambiguous {
                        candidates: vec!["a".into(), "b".into()],
                    }),
                    stored_as: None,
                },
            ),
            ("resp_enrolled", Response::Enrolled),
            (
                "resp_record",
                Response::Record(StoredRecord {
                    user_id: "patient-α".into(),
                    report: report(),
                    signature: BeadSignature::from_counts(&[(ParticleKind::Bead78, 9)]),
                }),
            ),
            ("resp_integrity", Response::Integrity { intact: false }),
            ("resp_pong", Response::Pong),
            (
                "resp_error_deposed",
                Response::Error {
                    reason: "node deposed: a newer epoch is serving".into(),
                },
            ),
        ]
    }

    /// The fixed trace id every trace-context-bearing golden frame
    /// carries. Arbitrary but frozen: regenerated fixtures must
    /// reproduce the committed bytes.
    pub const TRACE_ID: u64 = 0x0000_BEEF_CAFE_0042;

    /// Trace-context-bearing fixtures: representative request variants
    /// under the traced twin frame kind (binary) / wrapper object
    /// (JSON), all carrying [`TRACE_ID`].
    pub fn traced_requests() -> Vec<(&'static str, Request)> {
        vec![
            (
                "req_enroll_traced",
                Request::Enroll {
                    identifier: "patient-α".into(),
                    signature: BeadSignature::from_counts(&[
                        (ParticleKind::Bead358, 40),
                        (ParticleKind::Bead78, 12),
                    ]),
                },
            ),
            ("req_ping_traced", Request::Ping),
        ]
    }

    /// Trace-context-bearing response fixtures, including the deposed
    /// fencing error (the failover path must see through the trace
    /// prefix).
    pub fn traced_responses() -> Vec<(&'static str, Response)> {
        vec![
            ("resp_pong_traced", Response::Pong),
            (
                "resp_error_deposed_traced",
                Response::Error {
                    reason: "node deposed: a newer epoch is serving".into(),
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> medsen_impedance::SignalTrace {
        golden::trace()
    }

    fn every_request() -> Vec<Request> {
        golden::requests().into_iter().map(|(_, r)| r).collect()
    }

    fn every_response() -> Vec<Response> {
        golden::responses().into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn every_request_round_trips_in_both_formats() {
        for request in every_request() {
            for format in [WireFormat::Binary, WireFormat::Json] {
                let bytes = encode_request(format, &request).expect("encodes");
                let back = decode_request(format, &bytes).expect("decodes");
                assert_eq!(back, request, "{format}");
            }
        }
    }

    #[test]
    fn every_response_round_trips_in_both_formats() {
        for response in every_response() {
            for format in [WireFormat::Binary, WireFormat::Json] {
                let bytes = encode_response(format, &response).expect("encodes");
                let back = decode_response(format, &bytes).expect("decodes");
                assert_eq!(back, response, "{format}");
            }
        }
    }

    #[test]
    fn request_and_response_kinds_do_not_cross_decode() {
        let req_bytes = request_to_bytes(&Request::Ping);
        assert!(matches!(
            response_from_bytes(&req_bytes),
            Err(WireError::WrongKind { .. })
        ));
        let resp_bytes = response_to_bytes(&Response::Pong);
        assert!(matches!(
            request_from_bytes(&resp_bytes),
            Err(WireError::WrongKind { .. })
        ));
    }

    #[test]
    fn deposed_detection_works_in_both_formats() {
        let deposed = Response::Error {
            reason: "node deposed: a newer epoch is serving".into(),
        };
        let healthy = Response::Pong;
        let plain_error = Response::Error {
            reason: "trace has no channels".into(),
        };
        for format in [WireFormat::Binary, WireFormat::Json] {
            let bytes = encode_response(format, &deposed).expect("encodes");
            assert!(reply_is_deposed(format, &bytes), "{format}");
            let bytes = encode_response(format, &healthy).expect("encodes");
            assert!(!reply_is_deposed(format, &bytes), "{format}");
            let bytes = encode_response(format, &plain_error).expect("encodes");
            assert!(!reply_is_deposed(format, &bytes), "{format}");
        }
        // Garbage is not deposed either.
        assert!(!reply_is_deposed(WireFormat::Binary, b"junk"));
        assert!(!reply_is_deposed(WireFormat::Json, &[0xFF, 0xFE]));
    }

    #[test]
    fn error_reply_encoding_is_infallible_and_decodable() {
        for format in [WireFormat::Binary, WireFormat::Json] {
            let bytes = encode_error(format, "queue full");
            match decode_response(format, &bytes).expect("decodes") {
                Response::Error { reason } => assert_eq!(reason, "queue full"),
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    #[test]
    fn traced_bodies_round_trip_in_both_formats() {
        for request in every_request() {
            for format in [WireFormat::Binary, WireFormat::Json] {
                let bytes = encode_request_traced(format, &request, 0xFACE).expect("encodes");
                let (back, trace) = decode_request_traced(format, &bytes).expect("decodes");
                assert_eq!(back, request, "{format}");
                assert_eq!(trace, Some(0xFACE), "{format}");
            }
        }
        for response in every_response() {
            for format in [WireFormat::Binary, WireFormat::Json] {
                let bytes = encode_response_traced(format, &response, 0xFACE).expect("encodes");
                let (back, trace) = decode_response_traced(format, &bytes).expect("decodes");
                assert_eq!(back, response, "{format}");
                assert_eq!(trace, Some(0xFACE), "{format}");
            }
        }
    }

    #[test]
    fn untraced_bodies_decode_through_the_traced_decoders() {
        // Backward compatibility: a pre-trace-context peer's bytes give
        // (value, None), and a zero trace encodes the identical bytes.
        for request in every_request() {
            for format in [WireFormat::Binary, WireFormat::Json] {
                let plain = encode_request(format, &request).expect("encodes");
                assert_eq!(
                    encode_request_traced(format, &request, 0).expect("encodes"),
                    plain,
                    "zero trace must be byte-identical ({format})"
                );
                let (back, trace) = decode_request_traced(format, &plain).expect("decodes");
                assert_eq!(back, request, "{format}");
                assert_eq!(trace, None, "{format}");
            }
        }
    }

    #[test]
    fn traced_json_wrapper_is_the_documented_shape() {
        let bytes = encode_request_traced(WireFormat::Json, &Request::Ping, 7).expect("encodes");
        assert_eq!(
            std::str::from_utf8(&bytes).expect("utf8"),
            "{\"trace\":7,\"body\":\"Ping\"}"
        );
    }

    #[test]
    fn malformed_traced_json_wrappers_are_rejected() {
        for bad in [
            &b"{\"trace\":"[..],
            b"{\"trace\":abc,\"body\":\"Ping\"}",
            b"{\"trace\":0,\"body\":\"Ping\"}",
            b"{\"trace\":7,\"payload\":\"Ping\"}",
            b"{\"trace\":7,\"body\":\"Ping\"",
        ] {
            assert!(
                decode_request_traced(WireFormat::Json, bad).is_err(),
                "{:?}",
                std::str::from_utf8(bad)
            );
        }
    }

    #[test]
    fn deposed_detection_sees_through_the_trace_prefix() {
        let deposed = Response::Error {
            reason: "node deposed: a newer epoch is serving".into(),
        };
        for format in [WireFormat::Binary, WireFormat::Json] {
            let bytes = encode_response_traced(format, &deposed, 0xAB).expect("encodes");
            assert!(reply_is_deposed(format, &bytes), "{format}");
            let bytes = encode_response_traced(format, &Response::Pong, 0xAB).expect("encodes");
            assert!(!reply_is_deposed(format, &bytes), "{format}");
        }
    }

    #[test]
    fn binary_bodies_are_much_smaller_than_json() {
        let request = Request::Analyze {
            trace: sample_trace(),
            authenticate: false,
        };
        let json = encode_request(WireFormat::Json, &request).expect("json");
        let binary = encode_request(WireFormat::Binary, &request).expect("binary");
        assert!(
            binary.len() < json.len(),
            "binary ({}) should undercut JSON ({})",
            binary.len(),
            json.len()
        );
    }
}
