//! The zero-copy binary codec: bounds-checked primitives, the [`Wire`]
//! trait, the versioned message envelope, and backend selection.
//!
//! # Layout rules
//!
//! Every field is little-endian and fixed-width at the primitive level:
//!
//! * integers — `u8`/`u16`/`u32`/`u64` as that many LE bytes;
//! * `f64` — IEEE 754 bit pattern as `u64` LE (NaN payloads survive);
//! * `bool` — one byte, `0` or `1` (anything else is a decode error);
//! * `String` / byte blobs — `u32` LE length prefix, then the bytes;
//! * `Vec<T>` — `u32` LE element count, then each element in order;
//! * `Option<T>` — one presence byte (`0`/`1`), then the value if `1`;
//! * enums — one `u8` variant tag, then the variant's fields in order.
//!
//! A full message is the frame from [`crate::frame`] whose payload is a
//! format-version byte ([`WIRE_VERSION`]) followed by the root value.
//! The same `[version][value]` payload without the frame is what
//! [`encode_versioned`] writes: the WAL stores its entries and
//! snapshots that way, so the disk and the wire share one encoding.
//! Decoders are total: every malformed input returns [`WireError`],
//! never panics, and a message that leaves undecoded payload bytes is
//! rejected ([`WireError::TrailingBytes`]) so two peers cannot disagree
//! about where a message ends.
//!
//! # Evolution policy
//!
//! The version byte names the *payload schema*, not the framing. Adding
//! a message kind is backward compatible (old peers reject the unknown
//! kind tag cleanly); changing any existing type's field order or width
//! requires bumping [`WIRE_VERSION`], and decoders reject versions they
//! do not know rather than guessing.

use crate::frame::{self, FrameError};

/// Version byte carried at the head of every message payload.
pub const WIRE_VERSION: u8 = 1;

/// Why a wire value failed to decode (or a backend failed to encode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value did.
    Truncated,
    /// Bytes remained after the root value was fully decoded.
    TrailingBytes,
    /// The frame's kind byte named a different message type.
    WrongKind { expected: u8, found: u8 },
    /// The payload's version byte is newer (or older) than this build.
    UnsupportedVersion { version: u8 },
    /// An enum/bool tag byte had no matching variant.
    BadTag { what: &'static str, tag: u8 },
    /// A string field held invalid UTF-8.
    NotUtf8,
    /// The bytes decoded but violated a structural invariant of the type.
    Invalid(&'static str),
    /// The transport frame itself was malformed.
    Frame(FrameError),
    /// A non-binary backend (the JSON codec) met malformed text or a
    /// value it cannot carry.
    Codec(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated mid-value"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
            WireError::WrongKind { expected, found } => {
                write!(
                    f,
                    "wrong message kind: expected {expected:#04x}, found {found:#04x}"
                )
            }
            WireError::UnsupportedVersion { version } => {
                write!(
                    f,
                    "unsupported wire version {version} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            WireError::NotUtf8 => write!(f, "string field is not UTF-8"),
            WireError::Invalid(what) => write!(f, "invalid value: {what}"),
            WireError::Frame(e) => write!(f, "frame error: {e}"),
            WireError::Codec(reason) => write!(f, "codec error: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

/// Append-only encode buffer with little-endian primitive writers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a `u32` length prefix followed by the raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than `u32::MAX` — such a value could
    /// never be decoded again.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        let len = u32::try_from(bytes.len()).expect("wire blob exceeds u32::MAX bytes");
        self.put_u32(len);
        self.buf.extend_from_slice(bytes);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Bounds-checked, zero-copy decode cursor. Every read returns
/// [`WireError::Truncated`] instead of panicking when bytes run out.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Errors unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.rest.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }

    /// Reads a `u32`-prefixed byte blob as a borrowed slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-prefixed UTF-8 string as a borrowed slice.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| WireError::NotUtf8)
    }

    /// Reads a `u32` element count, capped so a forged prefix cannot
    /// drive a huge allocation: every legal element occupies at least
    /// one byte, so a count above [`Reader::remaining`] is malformed.
    pub fn get_count(&mut self) -> Result<usize, WireError> {
        let count = self.get_u32()? as usize;
        if count > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(count)
    }
}

/// A type with a canonical binary wire encoding.
///
/// Implementations live in the crate that owns the type (orphan rules);
/// `medsen-wire` provides the primitive and container impls every
/// message is built from.
pub trait Wire: Sized {
    /// Appends this value's canonical encoding to `w`.
    fn wire_encode(&self, w: &mut Writer);
    /// Decodes one value, consuming exactly its bytes from `r`.
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// A root message type: a [`Wire`] value that travels as a whole frame,
/// identified by a fixed kind tag.
pub trait WireMessage: Wire {
    /// Frame kind byte identifying this message type on the wire.
    const KIND: u8;
}

macro_rules! wire_int {
    ($($ty:ty => $put:ident / $get:ident),* $(,)?) => {$(
        impl Wire for $ty {
            fn wire_encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    )*};
}

wire_int! {
    u8 => put_u8 / get_u8,
    u16 => put_u16 / get_u16,
    u32 => put_u32 / get_u32,
    u64 => put_u64 / get_u64,
    f64 => put_f64 / get_f64,
    bool => put_bool / get_bool,
}

impl Wire for String {
    fn wire_encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.get_str()?.to_owned())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn wire_encode(&self, w: &mut Writer) {
        let len = u32::try_from(self.len()).expect("wire vec exceeds u32::MAX elements");
        w.put_u32(len);
        for item in self {
            item.wire_encode(w);
        }
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = r.get_count()?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(T::wire_decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn wire_encode(&self, w: &mut Writer) {
        match self {
            None => w.put_bool(false),
            Some(v) => {
                w.put_bool(true);
                v.wire_encode(w);
            }
        }
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if r.get_bool()? {
            Ok(Some(T::wire_decode(r)?))
        } else {
            Ok(None)
        }
    }
}

/// Encodes a root message as one versioned, CRC-framed byte buffer.
pub fn encode_message<T: WireMessage>(value: &T) -> Vec<u8> {
    encode_envelope(T::KIND, None, value)
}

/// Encodes `[version][trace u64 LE, if any][value]` as the payload of a
/// `kind` frame, writing it straight into the frame's buffer.
fn encode_envelope<T: Wire>(kind: u8, trace: Option<u64>, value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    let start = frame::begin_frame(kind, &mut w.buf);
    w.put_u8(WIRE_VERSION);
    if let Some(trace) = trace {
        w.put_u64(trace);
    }
    value.wire_encode(&mut w);
    frame::seal_frame(&mut w.buf, start);
    w.buf
}

/// Decodes one versioned, CRC-framed root message. Total: every
/// malformed input — truncated, bit-flipped, forged header, wrong
/// kind, unknown version, trailing bytes — returns an error.
pub fn decode_message<T: WireMessage>(bytes: &[u8]) -> Result<T, WireError> {
    let (kind, payload) = frame::decode_frame(bytes)?;
    if kind != T::KIND {
        return Err(WireError::WrongKind {
            expected: T::KIND,
            found: kind,
        });
    }
    decode_versioned(payload)
}

/// Encodes `[version][value]` with no frame around it: the payload a
/// [`decode_message`] frame carries, and what the WAL stores as one
/// entry or one snapshot.
pub fn encode_versioned<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    value.wire_encode(&mut w);
    w.buf
}

/// Decodes a `[version][value]` payload written by [`encode_versioned`].
/// Total, like [`decode_message`]: an unknown version byte (a JSON
/// document's leading `{` included) is [`WireError::UnsupportedVersion`].
pub fn decode_versioned<T: Wire>(payload: &[u8]) -> Result<T, WireError> {
    let mut r = versioned_reader(payload)?;
    let value = T::wire_decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Checks the version byte at the head of a payload and returns a
/// reader positioned after it. Every decoder, for the wire and the
/// disk alike, applies the version rule through this function.
fn versioned_reader(payload: &[u8]) -> Result<Reader<'_>, WireError> {
    let mut r = Reader::new(payload);
    let version = r.get_u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { version });
    }
    Ok(r)
}

/// Kind-space bit marking a frame whose payload carries a trace-context
/// prefix: `[version u8][trace u64 LE][root value]` instead of
/// `[version u8][root value]`.
///
/// Per the evolution policy, an optional field cannot be spliced into an
/// existing payload (that changes field order under a frozen version),
/// but a **new message kind** is backward compatible: a pre-trace peer
/// sees `kind | TRACED_KIND_BIT` as an unknown kind and rejects the
/// frame cleanly with [`WireError::WrongKind`] instead of mis-decoding
/// it. Untraced frames stay byte-identical to every release since v1.
pub const TRACED_KIND_BIT: u8 = 0x80;

/// Encodes a root message with a trace-context prefix under the traced
/// twin kind (`T::KIND | TRACED_KIND_BIT`). A zero `trace` means "no
/// trace" ([`crate::codec`] reserves 0) and falls back to the plain,
/// byte-identical [`encode_message`] envelope.
pub fn encode_message_traced<T: WireMessage>(value: &T, trace: u64) -> Vec<u8> {
    if trace == 0 {
        return encode_message(value);
    }
    encode_envelope(T::KIND | TRACED_KIND_BIT, Some(trace), value)
}

/// Decodes a root message that may or may not carry trace context:
/// accepts both the plain kind (→ `None`) and its traced twin
/// (→ `Some(trace)`). Total, like [`decode_message`].
pub fn decode_message_traced<T: WireMessage>(bytes: &[u8]) -> Result<(T, Option<u64>), WireError> {
    let (kind, payload) = frame::decode_frame(bytes)?;
    if kind != T::KIND && kind != (T::KIND | TRACED_KIND_BIT) {
        return Err(WireError::WrongKind {
            expected: T::KIND,
            found: kind,
        });
    }
    let mut r = versioned_reader(payload)?;
    let trace = if kind & TRACED_KIND_BIT != 0 {
        match r.get_u64()? {
            0 => return Err(WireError::Invalid("traced frame with zero trace id")),
            t => Some(t),
        }
    } else {
        None
    };
    let value = T::wire_decode(&mut r)?;
    r.finish()?;
    Ok((value, trace))
}

/// Which end-to-end encoding a session, gateway, and cloud agree on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// Line-delimited JSON — the debug/compat path.
    Json,
    /// The CRC-framed binary codec — the default serving path.
    #[default]
    Binary,
}

impl WireFormat {
    /// Single-byte discriminant carried in transport headers.
    pub const fn tag(self) -> u8 {
        match self {
            WireFormat::Json => 0,
            WireFormat::Binary => 1,
        }
    }

    /// Inverse of [`WireFormat::tag`].
    pub const fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(WireFormat::Json),
            1 => Some(WireFormat::Binary),
            _ => None,
        }
    }

    pub const fn as_str(self) -> &'static str {
        match self {
            WireFormat::Json => "json",
            WireFormat::Binary => "binary",
        }
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for WireFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "json" => Ok(WireFormat::Json),
            "binary" => Ok(WireFormat::Binary),
            other => Err(format!(
                "unknown wire format {other:?} (expected binary or json)"
            )),
        }
    }
}

/// A pluggable message encoding: the binary codec here, or the JSON
/// backend ([`crate::JsonWire`]). Both ends of a connection must pick the
/// same backend; [`WireFormat`] is the negotiated selector.
pub trait WireCodec<T> {
    /// Which [`WireFormat`] this backend implements.
    fn format(&self) -> WireFormat;
    /// Encodes one message to bytes.
    fn encode(&self, value: &T) -> Result<Vec<u8>, WireError>;
    /// Decodes one message from bytes. Must be total (never panic).
    fn decode(&self, bytes: &[u8]) -> Result<T, WireError>;
}

/// The binary backend: versioned, CRC-framed, zero-copy decode.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryWire;

impl<T: WireMessage> WireCodec<T> for BinaryWire {
    fn format(&self) -> WireFormat {
        WireFormat::Binary
    }

    fn encode(&self, value: &T) -> Result<Vec<u8>, WireError> {
        Ok(encode_message(value))
    }

    fn decode(&self, bytes: &[u8]) -> Result<T, WireError> {
        decode_message(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;
    use crate::frame::FRAME_OVERHEAD;

    #[derive(Debug, Clone, PartialEq)]
    struct Probe {
        id: u64,
        label: String,
        samples: Vec<f64>,
        note: Option<String>,
        flag: bool,
    }

    impl Wire for Probe {
        fn wire_encode(&self, w: &mut Writer) {
            self.id.wire_encode(w);
            self.label.wire_encode(w);
            self.samples.wire_encode(w);
            self.note.wire_encode(w);
            self.flag.wire_encode(w);
        }
        fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(Probe {
                id: u64::wire_decode(r)?,
                label: String::wire_decode(r)?,
                samples: Vec::wire_decode(r)?,
                note: Option::wire_decode(r)?,
                flag: bool::wire_decode(r)?,
            })
        }
    }

    impl WireMessage for Probe {
        const KIND: u8 = 0x7E;
    }

    fn probe() -> Probe {
        Probe {
            id: u64::MAX - 3,
            label: "β-channel".into(),
            samples: vec![0.0, -1.5, f64::MIN_POSITIVE, 1e300],
            note: Some("fine".into()),
            flag: true,
        }
    }

    #[test]
    fn message_round_trips() {
        let encoded = encode_message(&probe());
        let decoded: Probe = decode_message(&encoded).expect("decodes");
        assert_eq!(decoded, probe());
    }

    #[test]
    fn layout_is_pinned_byte_for_byte() {
        // The envelope layout must never drift: len/crc/kind header,
        // version byte, then the root value. Pin it against an
        // explicitly constructed expectation.
        let encoded = encode_message(&42u64);
        let mut body = vec![0x7Fu8, WIRE_VERSION];
        body.extend_from_slice(&42u64.to_le_bytes());
        let mut expected = Vec::new();
        expected.extend_from_slice(&(body.len() as u32).to_le_bytes());
        expected.extend_from_slice(&crc32(&body).to_le_bytes());
        expected.extend_from_slice(&body);
        assert_eq!(encoded, expected);
        assert_eq!(encoded.len(), FRAME_OVERHEAD + 1 + 8);
    }

    impl WireMessage for u64 {
        const KIND: u8 = 0x7F;
    }

    #[test]
    fn traced_message_round_trips_with_its_trace() {
        let encoded = encode_message_traced(&probe(), 0xDEAD_BEEF);
        let (decoded, trace) = decode_message_traced::<Probe>(&encoded).expect("decodes");
        assert_eq!(decoded, probe());
        assert_eq!(trace, Some(0xDEAD_BEEF));
    }

    #[test]
    fn traced_layout_is_pinned_byte_for_byte() {
        // The traced twin kind carries `[version][trace u64 LE][value]`.
        let encoded = encode_message_traced(&42u64, 0x0102_0304_0506_0708);
        let mut body = vec![0x7Fu8 | TRACED_KIND_BIT, WIRE_VERSION];
        body.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        body.extend_from_slice(&42u64.to_le_bytes());
        let mut expected = Vec::new();
        expected.extend_from_slice(&(body.len() as u32).to_le_bytes());
        expected.extend_from_slice(&crc32(&body).to_le_bytes());
        expected.extend_from_slice(&body);
        assert_eq!(encoded, expected);
    }

    #[test]
    fn zero_trace_encodes_the_plain_byte_identical_envelope() {
        assert_eq!(encode_message_traced(&probe(), 0), encode_message(&probe()));
    }

    #[test]
    fn traced_decoder_accepts_pre_trace_context_frames() {
        // Envelope backward compatibility: a frame from a peer that has
        // never heard of trace context decodes as (value, None).
        let legacy = encode_message(&probe());
        let (decoded, trace) = decode_message_traced::<Probe>(&legacy).expect("decodes");
        assert_eq!(decoded, probe());
        assert_eq!(trace, None);
    }

    #[test]
    fn plain_decoder_rejects_traced_frames_as_an_unknown_kind() {
        // Forward direction of the evolution policy: an old peer sees a
        // clean WrongKind, never a mis-decoded value.
        let traced = encode_message_traced(&probe(), 9);
        let err = decode_message::<Probe>(&traced).expect_err("unknown kind to old peers");
        assert_eq!(
            err,
            WireError::WrongKind {
                expected: Probe::KIND,
                found: Probe::KIND | TRACED_KIND_BIT,
            }
        );
    }

    #[test]
    fn traced_frame_with_zero_trace_id_is_invalid() {
        // Hand-frame a traced-kind payload claiming trace 0 (reserved).
        let mut w = Writer::new();
        w.put_u8(WIRE_VERSION);
        w.put_u64(0);
        42u64.wire_encode(&mut w);
        let bytes = frame::frame_to_vec(u64::KIND | TRACED_KIND_BIT, &w.into_bytes());
        assert!(matches!(
            decode_message_traced::<u64>(&bytes),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn wrong_kind_and_version_are_rejected() {
        let encoded = encode_message(&7u64);
        let err = decode_message::<Probe>(&encoded).expect_err("wrong kind");
        assert_eq!(
            err,
            WireError::WrongKind {
                expected: Probe::KIND,
                found: u64::KIND
            }
        );

        // Re-frame the payload with a bumped version byte.
        let (kind, payload) = crate::frame::decode_frame(&encoded).expect("frame");
        let mut forged = payload.to_vec();
        forged[0] = WIRE_VERSION + 1;
        let reframed = crate::frame::frame_to_vec(kind, &forged);
        let err = decode_message::<u64>(&reframed).expect_err("bad version");
        assert_eq!(
            err,
            WireError::UnsupportedVersion {
                version: WIRE_VERSION + 1
            }
        );
    }

    #[test]
    fn versioned_pair_is_the_message_payload_without_its_frame() {
        let bytes = encode_versioned(&probe());
        let message = encode_message(&probe());
        let (_, payload) = crate::frame::decode_frame(&message).expect("frame");
        assert_eq!(bytes, payload);
        assert_eq!(decode_versioned::<Probe>(&bytes), Ok(probe()));

        // A JSON document's leading `{` is refused as a version byte.
        assert_eq!(
            decode_versioned::<Probe>(br#"{"id":1}"#),
            Err(WireError::UnsupportedVersion { version: b'{' })
        );
        assert_eq!(decode_versioned::<Probe>(&[]), Err(WireError::Truncated));
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(
            decode_versioned::<Probe>(&padded),
            Err(WireError::TrailingBytes)
        );
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let encoded = encode_message(&7u64);
        let (kind, payload) = crate::frame::decode_frame(&encoded).expect("frame");
        let mut padded = payload.to_vec();
        padded.push(0);
        let reframed = crate::frame::frame_to_vec(kind, &padded);
        assert_eq!(
            decode_message::<u64>(&reframed),
            Err(WireError::TrailingBytes)
        );
    }

    #[test]
    fn every_truncation_and_bit_flip_errors_cleanly() {
        let encoded = encode_message(&probe());
        for cut in 0..encoded.len() {
            assert!(
                decode_message::<Probe>(&encoded[..cut]).is_err(),
                "cut {cut}"
            );
        }
        for byte in 0..encoded.len() {
            let mut bad = encoded.clone();
            bad[byte] ^= 0x10;
            // A flip may surface as any WireError; it must never panic
            // and never silently decode to the original value.
            if let Ok(decoded) = decode_message::<Probe>(&bad) {
                panic!("flip at {byte} decoded to {decoded:?}");
            }
        }
    }

    #[test]
    fn forged_vec_count_cannot_force_allocation() {
        // A count prefix claiming u32::MAX elements on a short payload
        // must fail before reserving anything.
        let mut w = Writer::new();
        w.put_u8(WIRE_VERSION);
        w.put_u64(1); // id
        w.put_str("x"); // label
        w.put_u32(u32::MAX); // forged sample count
        let framed = crate::frame::frame_to_vec(Probe::KIND, &w.into_bytes());
        assert_eq!(decode_message::<Probe>(&framed), Err(WireError::Truncated));
    }

    #[test]
    fn nan_payload_survives_binary_round_trip() {
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let mut w = Writer::new();
        weird.wire_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = f64::wire_decode(&mut r).expect("decodes");
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn format_selector_round_trips() {
        for format in [WireFormat::Json, WireFormat::Binary] {
            assert_eq!(WireFormat::from_tag(format.tag()), Some(format));
            assert_eq!(format.as_str().parse::<WireFormat>(), Ok(format));
        }
        assert_eq!(WireFormat::from_tag(9), None);
        assert!("cbor".parse::<WireFormat>().is_err());
        assert_eq!(WireFormat::default(), WireFormat::Binary);
    }

    #[test]
    fn binary_backend_implements_the_codec_trait() {
        let codec = BinaryWire;
        assert_eq!(WireCodec::<Probe>::format(&codec), WireFormat::Binary);
        let bytes = codec.encode(&probe()).expect("encodes");
        let back: Probe = codec.decode(&bytes).expect("decodes");
        assert_eq!(back, probe());
    }
}
