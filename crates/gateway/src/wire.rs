//! The gateway's upload wire format.
//!
//! A dongle session ships one request as a burst of phone-style frames
//! (the same [`medsen_phone::frame`] encoding the accessory link uses):
//!
//! ```text
//! StartTest  { session_id: u64 BE, body_len: u32 BE, format: u8 }
//! StartTest  { session_id: u64 BE, body_len: u32 BE, format: u8, trace: u64 BE }
//! DataChunk  { body bytes ... }          (repeated)
//! ```
//!
//! The `StartTest` header declares exactly how many body bytes follow, so
//! the gateway can reassemble without an end-of-stream sentinel and can
//! reject short or oversized uploads before touching the codec layer.
//! The trailing `format` byte is the [`WireFormat`] tag: it names the
//! encoding of the body (binary frame or JSON text), so one gateway can
//! serve a mixed fleet of binary-speaking dongles and JSON debug clients
//! on the same ingest path.
//!
//! Two header sizes are legal: the original 13-byte header, and the
//! 21-byte traced header that appends the phone-minted trace id after
//! the existing fields (their offsets are unchanged). The 13-byte form
//! is what every pre-trace-context dongle sends — the gateway accepts
//! it forever and simply mints a gateway-local trace. Any *other*
//! header size is still [`UploadError::MalformedHeader`].

use medsen_phone::frame::{read_frame, write_frame, FrameError, MessageType, FRAME_OVERHEAD};
use medsen_wire::WireFormat;
use std::fmt;

/// Frame payload cap per chunk — small enough to exercise reassembly in
/// tests, large enough to keep header overhead negligible.
pub const CHUNK_SIZE: usize = 4096;

/// Hard cap on a declared upload body, guarding the reassembly buffer.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Size of the `StartTest` header payload: session id + body length +
/// wire-format tag.
pub const HEADER_BYTES: usize = 13;

/// Size of a trace-context-bearing `StartTest` header payload:
/// [`HEADER_BYTES`] plus the appended trace id (u64 BE).
pub const TRACED_HEADER_BYTES: usize = HEADER_BYTES + 8;

/// Why an upload could not be reassembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UploadError {
    /// A frame failed to decode.
    Frame(FrameError),
    /// The first frame was not a `StartTest` header.
    MissingHeader,
    /// The header payload had the wrong size.
    MalformedHeader,
    /// The header's wire-format tag named no known encoding.
    UnknownFormat {
        /// The unrecognized format byte.
        tag: u8,
    },
    /// The declared body length exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge {
        /// Declared body length in bytes.
        declared: usize,
    },
    /// The frames carried fewer body bytes than the header declared.
    ShortBody {
        /// Declared body length in bytes.
        declared: usize,
        /// Bytes actually received.
        received: usize,
    },
    /// The frames carried *more* body bytes than the header declared.
    /// Truncating to the declared length would silently drop data, so
    /// the mismatch is rejected instead.
    OversizedBody {
        /// Declared body length in bytes.
        declared: usize,
        /// Bytes actually received.
        received: usize,
    },
    /// Bytes remained on the wire after the declared body completed.
    /// Accepting the upload would silently discard them.
    TrailingData {
        /// Unconsumed bytes after the final body chunk.
        trailing: usize,
    },
    /// A JSON-format request body was not valid UTF-8.
    BodyNotUtf8,
}

impl fmt::Display for UploadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UploadError::Frame(e) => write!(f, "frame error: {e:?}"),
            UploadError::MissingHeader => write!(f, "upload does not start with a StartTest frame"),
            UploadError::MalformedHeader => write!(f, "StartTest header has the wrong size"),
            UploadError::UnknownFormat { tag } => {
                write!(f, "unknown wire-format tag {tag:#04x} in upload header")
            }
            UploadError::BodyTooLarge { declared } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds {MAX_BODY_BYTES}"
                )
            }
            UploadError::ShortBody { declared, received } => {
                write!(
                    f,
                    "body truncated: declared {declared} bytes, received {received}"
                )
            }
            UploadError::OversizedBody { declared, received } => {
                write!(
                    f,
                    "body overflow: declared {declared} bytes, received {received}"
                )
            }
            UploadError::TrailingData { trailing } => {
                write!(f, "{trailing} bytes of trailing data after the body")
            }
            UploadError::BodyNotUtf8 => write!(f, "JSON request body is not valid UTF-8"),
        }
    }
}

impl std::error::Error for UploadError {}

impl From<FrameError> for UploadError {
    fn from(e: FrameError) -> Self {
        UploadError::Frame(e)
    }
}

/// Encodes one request body as a framed upload for `session_id`, in the
/// given wire format.
pub fn encode_upload_wire(session_id: u64, format: WireFormat, body: &[u8]) -> Vec<u8> {
    encode_upload_traced(session_id, format, body, 0)
}

/// Encodes one request body as a framed upload carrying the
/// phone-minted trace id in the 21-byte header. A zero `trace` (the
/// reserved "no trace" value) produces the legacy 13-byte header,
/// byte-identical to every pre-trace-context release.
///
/// Every frame is written straight into one buffer sized exactly for
/// the upload, each chunk checksummed where it lies in `body`.
///
/// # Panics
///
/// Panics if `body` is longer than `u32::MAX` bytes, which the header
/// cannot declare.
pub fn encode_upload_traced(
    session_id: u64,
    format: WireFormat,
    body: &[u8],
    trace: u64,
) -> Vec<u8> {
    let body_len = u32::try_from(body.len()).expect("upload body exceeds u32::MAX bytes");
    let mut header = [0u8; TRACED_HEADER_BYTES];
    header[..8].copy_from_slice(&session_id.to_be_bytes());
    header[8..12].copy_from_slice(&body_len.to_be_bytes());
    header[12] = format.tag();
    header[HEADER_BYTES..].copy_from_slice(&trace.to_be_bytes());
    let header = if trace == 0 {
        &header[..HEADER_BYTES]
    } else {
        &header[..]
    };
    let frames = 1 + body.len().div_ceil(CHUNK_SIZE);
    let mut out = Vec::with_capacity(frames * FRAME_OVERHEAD + header.len() + body.len());
    write_frame(MessageType::StartTest, header, &mut out);
    for chunk in body.chunks(CHUNK_SIZE) {
        write_frame(MessageType::DataChunk, chunk, &mut out);
    }
    out
}

/// Encodes one JSON request body as a framed upload for `session_id`.
/// Convenience wrapper over [`encode_upload_wire`] for the debug/compat
/// path and the many tests that speak JSON directly.
pub fn encode_upload(session_id: u64, body: &str) -> Vec<u8> {
    encode_upload_wire(session_id, WireFormat::Json, body.as_bytes())
}

/// The fields of a `StartTest` header.
struct Header {
    session_id: u64,
    declared: usize,
    format_tag: u8,
    trace: u64,
}

/// Reads the `StartTest` frame at the front of an upload, returning its
/// fields and the bytes it occupies.
fn read_header(wire: &[u8]) -> Result<(Header, usize), UploadError> {
    let (msg_type, payload, used) = read_frame(wire)?;
    if msg_type != MessageType::StartTest {
        return Err(UploadError::MissingHeader);
    }
    if !matches!(payload.len(), HEADER_BYTES | TRACED_HEADER_BYTES) {
        return Err(UploadError::MalformedHeader);
    }
    let header = Header {
        session_id: u64::from_be_bytes(payload[..8].try_into().expect("8 bytes")),
        declared: u32::from_be_bytes(payload[8..12].try_into().expect("4 bytes")) as usize,
        format_tag: payload[12],
        // Empty for the legacy header, the trace id for the traced one.
        trace: <[u8; 8]>::try_from(&payload[HEADER_BYTES..]).map_or(0, u64::from_be_bytes),
    };
    Ok((header, used))
}

fn peek_header(wire: &[u8]) -> Option<(u64, WireFormat, u64)> {
    let (header, _) = read_header(wire).ok()?;
    let format = WireFormat::from_tag(header.format_tag)?;
    Some((header.session_id, format, header.trace))
}

/// Reads just the session id from a framed upload's `StartTest` header
/// without reassembling the body. The gateway uses this to pick a shard
/// lane for un-keyed submissions; any malformed upload yields `None` and
/// the caller falls back to a default lane (the full decode on the worker
/// side still reports the precise [`UploadError`]).
pub fn peek_session_id(wire: &[u8]) -> Option<u64> {
    peek_header(wire).map(|(session_id, _, _)| session_id)
}

/// Reads just the wire format from a framed upload's `StartTest` header.
/// The gateway uses this at submit time to know what encoding the reply
/// must carry; malformed uploads yield `None` and the reply falls back
/// to JSON (matching the worker-side error path).
pub fn peek_format(wire: &[u8]) -> Option<WireFormat> {
    peek_header(wire).map(|(_, format, _)| format)
}

/// Reads the phone-minted trace id from a framed upload's traced
/// `StartTest` header. `None` for malformed uploads *and* for legacy
/// 13-byte headers — either way the gateway mints its own trace.
pub fn peek_trace(wire: &[u8]) -> Option<u64> {
    peek_header(wire).and_then(|(_, _, trace)| (trace != 0).then_some(trace))
}

/// Reassembles a framed upload back into
/// `(session_id, wire_format, body)`. JSON-format bodies are verified
/// to be UTF-8 here (the typed [`UploadError::BodyNotUtf8`]); binary
/// bodies are opaque at this layer and validated by the message codec.
pub fn decode_upload(wire: &[u8]) -> Result<(u64, WireFormat, Vec<u8>), UploadError> {
    decode_upload_traced(wire).map(|(session_id, format, body, _)| (session_id, format, body))
}

/// Reassembles a framed upload into
/// `(session_id, wire_format, body, trace)`, where `trace` is the
/// phone-minted trace id from a 21-byte traced header, or 0 for a
/// legacy 13-byte header.
///
/// Each chunk is verified where it lies in `wire` and its payload is
/// copied once, into a body buffer sized from the header.
pub fn decode_upload_traced(wire: &[u8]) -> Result<(u64, WireFormat, Vec<u8>, u64), UploadError> {
    let (header, mut offset) = read_header(wire)?;
    let tag = header.format_tag;
    let format = WireFormat::from_tag(tag).ok_or(UploadError::UnknownFormat { tag })?;
    let declared = header.declared;
    if declared > MAX_BODY_BYTES {
        return Err(UploadError::BodyTooLarge { declared });
    }
    let mut body = Vec::with_capacity(declared);
    while body.len() < declared {
        if offset >= wire.len() {
            return Err(UploadError::ShortBody {
                declared,
                received: body.len(),
            });
        }
        let (msg_type, payload, used) = read_frame(&wire[offset..])?;
        offset += used;
        if msg_type != MessageType::DataChunk {
            // Interleaved non-data frame: tolerate progress/status chatter.
            continue;
        }
        let received = body.len() + payload.len();
        if received > declared {
            // A chunk ran past the declared length. Truncating here would
            // silently drop the overflow, so the mismatch is typed instead.
            return Err(UploadError::OversizedBody { declared, received });
        }
        body.extend_from_slice(payload);
    }
    if offset < wire.len() {
        // Leftover frames after the declared body completed; ignoring
        // them would be a silent truncation of whatever they carried.
        return Err(UploadError::TrailingData {
            trailing: wire.len() - offset,
        });
    }
    if format == WireFormat::Json && std::str::from_utf8(&body).is_err() {
        return Err(UploadError::BodyNotUtf8);
    }
    Ok((header.session_id, format, body, header.trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_phone::frame::{chunk_data, Frame};

    /// The upload as the public frame API composes it, one owned frame
    /// at a time.
    fn framed_by_parts(session_id: u64, format: WireFormat, body: &[u8], trace: u64) -> Vec<u8> {
        let mut header = Vec::new();
        header.extend_from_slice(&session_id.to_be_bytes());
        header.extend_from_slice(&(body.len() as u32).to_be_bytes());
        header.push(format.tag());
        if trace != 0 {
            header.extend_from_slice(&trace.to_be_bytes());
        }
        let mut out = Frame::new(MessageType::StartTest, header).encode().to_vec();
        for frame in chunk_data(body, CHUNK_SIZE) {
            out.extend_from_slice(&frame.encode());
        }
        out
    }

    #[test]
    fn single_buffer_encode_matches_frame_by_frame_composition() {
        for len in [
            0,
            1,
            CHUNK_SIZE - 1,
            CHUNK_SIZE,
            CHUNK_SIZE + 1,
            3 * CHUNK_SIZE + 17,
        ] {
            let body: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            for trace in [0, 0xFEED_F00D] {
                let wire = encode_upload_traced(9, WireFormat::Binary, &body, trace);
                assert_eq!(
                    wire,
                    framed_by_parts(9, WireFormat::Binary, &body, trace),
                    "{len} bytes, trace {trace:#x}"
                );
                assert_eq!(wire.capacity(), wire.len(), "buffer sized exactly");
                let (_, _, decoded, got_trace) = decode_upload_traced(&wire).expect("decodes");
                assert_eq!((decoded, got_trace), (body.clone(), trace));
            }
        }
    }

    #[test]
    fn round_trips_small_and_multi_chunk_bodies() {
        for body in [
            "{}".to_string(),
            "x".repeat(CHUNK_SIZE - 1),
            "y".repeat(CHUNK_SIZE * 3 + 17),
        ] {
            let wire = encode_upload(42, &body);
            let (session, format, decoded) = decode_upload(&wire).expect("decodes");
            assert_eq!(session, 42);
            assert_eq!(format, WireFormat::Json);
            assert_eq!(decoded, body.as_bytes());
        }
    }

    #[test]
    fn binary_bodies_round_trip_with_their_format_tag() {
        let body: Vec<u8> = (0..=255u8).cycle().take(CHUNK_SIZE + 99).collect();
        let wire = encode_upload_wire(7, WireFormat::Binary, &body);
        let (session, format, decoded) = decode_upload(&wire).expect("decodes");
        assert_eq!(session, 7);
        assert_eq!(format, WireFormat::Binary);
        assert_eq!(decoded, body);
    }

    #[test]
    fn peeks_the_session_id_and_format_without_a_full_decode() {
        let wire = encode_upload(0xDEAD_BEEF, "{}");
        assert_eq!(peek_session_id(&wire), Some(0xDEAD_BEEF));
        assert_eq!(peek_format(&wire), Some(WireFormat::Json));
        let wire = encode_upload_wire(9, WireFormat::Binary, b"\x01\x02");
        assert_eq!(peek_format(&wire), Some(WireFormat::Binary));
        // Malformed inputs peek to None, never an error.
        assert_eq!(peek_session_id(&[0xFF, 0x00]), None);
        assert_eq!(peek_format(&[0xFF, 0x00]), None);
        let frame = Frame::new(MessageType::DataChunk, b"oops".to_vec()).encode();
        assert_eq!(peek_session_id(&frame), None);
    }

    #[test]
    fn rejects_uploads_without_a_header() {
        let frame = Frame::new(MessageType::DataChunk, b"oops".to_vec()).encode();
        assert_eq!(decode_upload(&frame), Err(UploadError::MissingHeader));
    }

    #[test]
    fn rejects_unknown_format_tags() {
        let mut header = Vec::new();
        header.extend_from_slice(&1u64.to_be_bytes());
        header.extend_from_slice(&0u32.to_be_bytes());
        header.push(0x7F);
        let wire = Frame::new(MessageType::StartTest, header).encode().to_vec();
        assert_eq!(
            decode_upload(&wire),
            Err(UploadError::UnknownFormat { tag: 0x7F })
        );
        assert_eq!(peek_format(&wire), None);
    }

    #[test]
    fn rejects_truncated_bodies() {
        let wire = encode_upload(7, &"z".repeat(CHUNK_SIZE + 10));
        // Drop the final chunk frame: find its start by re-decoding.
        let (_, first) = Frame::decode(&wire).unwrap();
        let (_, second) = Frame::decode(&wire[first..]).unwrap();
        let truncated = &wire[..first + second];
        match decode_upload(truncated) {
            Err(UploadError::ShortBody { declared, received }) => {
                assert_eq!(declared, CHUNK_SIZE + 10);
                assert_eq!(received, CHUNK_SIZE);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_corrupt_frames() {
        let mut wire = encode_upload(1, "hello");
        let last = wire.len() - 1;
        wire[last] ^= 0xFF; // break the checksum of the data chunk
        assert!(matches!(
            decode_upload(&wire),
            Err(UploadError::Frame(FrameError::ChecksumMismatch))
        ));
    }

    #[test]
    fn rejects_oversized_declarations() {
        let mut header = Vec::new();
        header.extend_from_slice(&1u64.to_be_bytes());
        header.extend_from_slice(&(u32::MAX).to_be_bytes());
        header.push(WireFormat::Json.tag());
        let wire = Frame::new(MessageType::StartTest, header).encode().to_vec();
        assert!(matches!(
            decode_upload(&wire),
            Err(UploadError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_malformed_headers() {
        // StartTest with the legacy 12-byte payload: right type, wrong
        // size — a pre-format-tag peer fails typed, not garbled.
        let wire = Frame::new(MessageType::StartTest, vec![0u8; 12])
            .encode()
            .to_vec();
        assert_eq!(decode_upload(&wire), Err(UploadError::MalformedHeader));
        // Between the two legal sizes is malformed too: a truncated
        // trace id must not half-decode.
        for size in (HEADER_BYTES + 1)..TRACED_HEADER_BYTES {
            let wire = Frame::new(MessageType::StartTest, vec![0u8; size])
                .encode()
                .to_vec();
            assert_eq!(
                decode_upload(&wire),
                Err(UploadError::MalformedHeader),
                "{size}-byte header"
            );
        }
    }

    #[test]
    fn traced_uploads_round_trip_and_untraced_stay_byte_identical() {
        let body = b"hello";
        let traced = encode_upload_traced(42, WireFormat::Binary, body, 0xFEED_F00D);
        let (session, format, decoded, trace) = decode_upload_traced(&traced).expect("decodes");
        assert_eq!(
            (session, format, decoded.as_slice(), trace),
            (42, WireFormat::Binary, &body[..], 0xFEED_F00D)
        );
        assert_eq!(peek_trace(&traced), Some(0xFEED_F00D));
        assert_eq!(peek_session_id(&traced), Some(42));
        assert_eq!(peek_format(&traced), Some(WireFormat::Binary));
        // A zero trace encodes the legacy header, byte for byte.
        assert_eq!(
            encode_upload_traced(42, WireFormat::Binary, body, 0),
            encode_upload_wire(42, WireFormat::Binary, body)
        );
    }

    #[test]
    fn legacy_headers_decode_with_no_trace() {
        let wire = encode_upload_wire(7, WireFormat::Json, b"{}");
        let (_, _, _, trace) = decode_upload_traced(&wire).expect("decodes");
        assert_eq!(trace, 0, "legacy header carries no trace");
        assert_eq!(peek_trace(&wire), None);
    }

    #[test]
    fn overflowing_chunks_are_typed_not_truncated() {
        // Declare 5 bytes but ship a 9-byte chunk: accepting and cutting
        // at 5 would silently drop "-extra".
        let mut header = Vec::new();
        header.extend_from_slice(&3u64.to_be_bytes());
        header.extend_from_slice(&5u32.to_be_bytes());
        header.push(WireFormat::Json.tag());
        let mut wire = Frame::new(MessageType::StartTest, header).encode().to_vec();
        wire.extend_from_slice(&Frame::new(MessageType::DataChunk, b"abc-extra".to_vec()).encode());
        assert_eq!(
            decode_upload(&wire),
            Err(UploadError::OversizedBody {
                declared: 5,
                received: 9
            })
        );
    }

    #[test]
    fn trailing_frames_after_the_body_are_typed_not_dropped() {
        let mut wire = encode_upload(4, "hello");
        let extra = Frame::new(MessageType::DataChunk, b"late".to_vec()).encode();
        wire.extend_from_slice(&extra);
        assert_eq!(
            decode_upload(&wire),
            Err(UploadError::TrailingData {
                trailing: extra.len()
            })
        );
    }

    #[test]
    fn non_utf8_bodies_are_typed_for_json_only() {
        let mut header = Vec::new();
        header.extend_from_slice(&2u64.to_be_bytes());
        header.extend_from_slice(&2u32.to_be_bytes());
        header.push(WireFormat::Json.tag());
        let mut wire = Frame::new(MessageType::StartTest, header).encode().to_vec();
        wire.extend_from_slice(&Frame::new(MessageType::DataChunk, vec![0xFF, 0xFE]).encode());
        assert_eq!(decode_upload(&wire), Err(UploadError::BodyNotUtf8));

        // The same bytes under the binary tag are opaque and legal here;
        // the message codec downstream is what validates them.
        let wire = encode_upload_wire(2, WireFormat::Binary, &[0xFF, 0xFE]);
        let (_, format, body) = decode_upload(&wire).expect("binary body is opaque");
        assert_eq!(format, WireFormat::Binary);
        assert_eq!(body, vec![0xFF, 0xFE]);
    }

    #[test]
    fn every_variant_displays_distinctly() {
        let variants: Vec<UploadError> = vec![
            UploadError::Frame(FrameError::ChecksumMismatch),
            UploadError::MissingHeader,
            UploadError::MalformedHeader,
            UploadError::UnknownFormat { tag: 3 },
            UploadError::BodyTooLarge { declared: 1 },
            UploadError::ShortBody {
                declared: 2,
                received: 1,
            },
            UploadError::OversizedBody {
                declared: 1,
                received: 2,
            },
            UploadError::TrailingData { trailing: 4 },
            UploadError::BodyNotUtf8,
        ];
        let mut rendered: Vec<String> = variants.iter().map(|v| v.to_string()).collect();
        rendered.sort();
        rendered.dedup();
        assert_eq!(rendered.len(), variants.len());
    }
}
