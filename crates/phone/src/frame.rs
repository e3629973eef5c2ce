//! Android Open Accessory-style message framing.
//!
//! "The Raspberry Pi runs a daemon listening for events on the USB port.
//! When the phone is connected, the daemon exchanges information with the
//! device using the Android Open Accessory Protocol" (Sec. VI-D). Frames are
//! length-prefixed with a Fletcher-16 checksum so the relay notices USB
//! corruption; the message-type byte carries the AOAP handshake plus the
//! MedSen data channel.

/// Message types on the accessory link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MessageType {
    /// AOAP: protocol-version query.
    GetProtocol = 0x01,
    /// AOAP: identification string (manufacturer/model/version/URI).
    SendString = 0x02,
    /// AOAP: switch the device into accessory mode.
    StartAccessory = 0x03,
    /// MedSen: user pressed "start blood test".
    StartTest = 0x10,
    /// MedSen: a chunk of (compressed, encrypted) measurement data.
    DataChunk = 0x11,
    /// MedSen: test progression update for the UI.
    Progress = 0x12,
    /// MedSen: analysis outcome returning to the sensor for decryption.
    AnalysisResult = 0x13,
}

impl MessageType {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0x01 => Some(Self::GetProtocol),
            0x02 => Some(Self::SendString),
            0x03 => Some(Self::StartAccessory),
            0x10 => Some(Self::StartTest),
            0x11 => Some(Self::DataChunk),
            0x12 => Some(Self::Progress),
            0x13 => Some(Self::AnalysisResult),
            _ => None,
        }
    }
}

/// Framing/deframing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a minimal frame.
    Truncated,
    /// The length prefix disagrees with the available bytes.
    LengthMismatch {
        /// Declared payload length.
        declared: usize,
        /// Actually available payload bytes.
        available: usize,
    },
    /// Unknown message-type byte.
    UnknownType(u8),
    /// Checksum verification failed (corrupted frame).
    ChecksumMismatch,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame shorter than header"),
            FrameError::LengthMismatch {
                declared,
                available,
            } => write!(
                f,
                "declared {declared} payload bytes, {available} available"
            ),
            FrameError::UnknownType(t) => write!(f, "unknown message type 0x{t:02x}"),
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One framed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message type.
    pub msg_type: MessageType,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

/// Bytes a frame adds around its payload: the type byte, the `u32`
/// length prefix and the `u16` checksum.
pub const FRAME_OVERHEAD: usize = 1 + 4 + 2;

/// Longest run of bytes the checksum sums without reducing them. Both
/// sums start a block reduced (at most 254), so after `n` bytes of
/// `0xFF` the second sum is at most `254 + 254·n + 255·n(n+1)/2`, which
/// fits a `u32` up to `n = 5802` and overflows at 5803.
const FLETCHER_BLOCK: usize = 5802;

/// Fletcher-16 checksum over type + payload.
///
/// The checksum is defined with both sums reduced mod 255 after every
/// byte. Reduction commutes with addition, so carrying the sums in a
/// `u32` and reducing once per [`FLETCHER_BLOCK`] bytes gives the same
/// bits at a fraction of the cost.
fn fletcher16(msg_type: u8, payload: &[u8]) -> u16 {
    let mut a = u32::from(msg_type) % 255;
    let mut b = a;
    for block in payload.chunks(FLETCHER_BLOCK) {
        for &byte in block {
            a += u32::from(byte);
            b += a;
        }
        a %= 255;
        b %= 255;
    }
    u16::try_from((b << 8) | a).expect("both sums are reduced below 255")
}

/// Appends one frame to `out`, checksumming `payload` where it lies.
/// Wire layout: `[type: u8][len: u32 BE][payload][checksum: u16 BE]`.
///
/// # Panics
///
/// Panics if `payload` is longer than `u32::MAX` bytes, which the length
/// prefix cannot declare.
pub fn write_frame(msg_type: MessageType, payload: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX bytes");
    out.reserve(FRAME_OVERHEAD + payload.len());
    out.push(msg_type as u8);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fletcher16(msg_type as u8, payload).to_be_bytes());
}

/// Decodes the frame at the front of `bytes` without copying it,
/// returning its type, its payload as a borrowed slice, and the number
/// of bytes consumed.
///
/// # Errors
///
/// Returns a [`FrameError`] on truncation, bad type, or checksum failure.
pub fn read_frame(bytes: &[u8]) -> Result<(MessageType, &[u8], usize), FrameError> {
    if bytes.len() < FRAME_OVERHEAD {
        return Err(FrameError::Truncated);
    }
    let type_byte = bytes[0];
    let msg_type = MessageType::from_u8(type_byte).ok_or(FrameError::UnknownType(type_byte))?;
    let declared = u32::from_be_bytes(bytes[1..5].try_into().expect("4 bytes")) as usize;
    let available = bytes.len() - FRAME_OVERHEAD;
    if available < declared {
        return Err(FrameError::LengthMismatch {
            declared,
            available,
        });
    }
    let payload = &bytes[5..5 + declared];
    let checksum = u16::from_be_bytes([bytes[5 + declared], bytes[6 + declared]]);
    if checksum != fletcher16(type_byte, payload) {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok((msg_type, payload, FRAME_OVERHEAD + declared))
}

impl Frame {
    /// Creates a frame.
    pub fn new(msg_type: MessageType, payload: impl Into<Vec<u8>>) -> Self {
        Self {
            msg_type,
            payload: payload.into(),
        }
    }

    /// Wire layout: `[type: u8][len: u32 BE][payload][checksum: u16 BE]`
    /// (see [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_OVERHEAD + self.payload.len());
        write_frame(self.msg_type, &self.payload, &mut out);
        out
    }

    /// Decodes a frame from the front of `bytes`, returning it plus the
    /// number of bytes consumed. [`read_frame`] does the same without
    /// copying the payload.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] on truncation, bad type, or checksum failure.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), FrameError> {
        let (msg_type, payload, used) = read_frame(bytes)?;
        Ok((Self::new(msg_type, payload), used))
    }
}

/// Splits a data buffer into `DataChunk` frames of at most `chunk_size`
/// payload bytes (USB bulk transfers are size-limited).
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub fn chunk_data(data: &[u8], chunk_size: usize) -> Vec<Frame> {
    assert!(chunk_size > 0, "chunk size must be positive");
    data.chunks(chunk_size)
        .map(|c| Frame::new(MessageType::DataChunk, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checksum as defined: both sums reduced mod 255 after every
    /// byte. The reference [`fletcher16`] must match bit for bit.
    fn fletcher16_per_byte(msg_type: u8, payload: &[u8]) -> u16 {
        let mut a: u16 = 0;
        let mut b: u16 = 0;
        let mut step = |byte: u8| {
            a = (a + u16::from(byte)) % 255;
            b = (b + a) % 255;
        };
        step(msg_type);
        for &byte in payload {
            step(byte);
        }
        (b << 8) | a
    }

    #[test]
    fn deferred_fletcher_matches_the_per_byte_reference() {
        let patterned: Vec<u8> = (0..11_605u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        let all_ff = vec![0xFFu8; 11_605];
        // Every type byte a frame can carry, plus 0xFE, which starts the
        // sums at their largest reduced value: the tightest case for the
        // block bound.
        let type_bytes: Vec<u8> = (0..=u8::MAX)
            .filter(|&t| MessageType::from_u8(t).is_some())
            .chain([0xFE, 0xFF])
            .collect();
        let lengths = (0..=64).chain([5801, 5802, 5803, 11_604, 11_605]);
        for len in lengths {
            for payload in [&patterned[..len], &all_ff[..len]] {
                for &msg_type in &type_bytes {
                    assert_eq!(
                        fletcher16(msg_type, payload),
                        fletcher16_per_byte(msg_type, payload),
                        "type {msg_type:#04x}, {len} bytes, first byte {:?}",
                        payload.first()
                    );
                }
            }
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let frame = Frame::new(MessageType::StartTest, b"go");
        let wire = frame.encode();
        let (decoded, used) = Frame::decode(&wire).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn empty_payload_round_trip() {
        let frame = Frame::new(MessageType::GetProtocol, []);
        let (decoded, _) = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(decoded.payload.len(), 0);
    }

    #[test]
    fn corruption_is_detected() {
        let frame = Frame::new(MessageType::DataChunk, b"abcdef");
        let mut wire = frame.encode();
        wire[7] ^= 0x40; // flip a payload bit
        assert_eq!(
            Frame::decode(&wire).unwrap_err(),
            FrameError::ChecksumMismatch
        );
    }

    #[test]
    fn truncated_frames_are_rejected() {
        assert_eq!(
            Frame::decode(&[0x10, 0, 0]).unwrap_err(),
            FrameError::Truncated
        );
        let frame = Frame::new(MessageType::DataChunk, b"abcdef");
        let wire = frame.encode();
        let err = Frame::decode(&wire[..wire.len() - 4]).unwrap_err();
        assert!(matches!(err, FrameError::LengthMismatch { .. }));
    }

    #[test]
    fn unknown_type_is_rejected() {
        let mut wire = Frame::new(MessageType::Progress, []).encode();
        wire[0] = 0x7f;
        assert_eq!(
            Frame::decode(&wire).unwrap_err(),
            FrameError::UnknownType(0x7f)
        );
    }

    #[test]
    fn chunking_partitions_data_exactly() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let frames = chunk_data(&data, 256);
        assert_eq!(frames.len(), 4);
        let reassembled: Vec<u8> = frames.iter().flat_map(|f| f.payload.clone()).collect();
        assert_eq!(reassembled, data);
        assert_eq!(frames[3].payload.len(), 1000 - 3 * 256);
    }

    #[test]
    fn frames_decode_from_a_stream_sequentially() {
        let a = Frame::new(MessageType::Progress, b"50%").encode();
        let b = Frame::new(MessageType::Progress, b"99%").encode();
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        let (first, used) = Frame::decode(&stream).unwrap();
        let (second, _) = Frame::decode(&stream[used..]).unwrap();
        assert_eq!(first.payload, b"50%");
        assert_eq!(second.payload, b"99%");
    }

    #[test]
    fn checksum_differs_across_types() {
        // Same payload, different type byte → different checksum.
        let a = fletcher16(MessageType::DataChunk as u8, b"xyz");
        let b = fletcher16(MessageType::Progress as u8, b"xyz");
        assert_ne!(a, b);
    }
}
