//! The single-message transport frame.
//!
//! Every cross-tier message travels inside one length-prefixed,
//! CRC32-guarded frame. The WAL writes and scans its log with this same
//! code (`medsen-store` loops [`split_frame`] over a log file), because
//! the failure model is the same: a frame that fails its length or
//! checksum invariant is garbage and must be rejected without being
//! interpreted.
//!
//! ```text
//! ┌────────────┬────────────┬──────────┬─────────────────────┐
//! │ len: u32LE │ crc: u32LE │ kind: u8 │ payload: len-1 bytes│
//! └────────────┴────────────┴──────────┴─────────────────────┘
//! ```
//!
//! `len` counts the body (`kind` + payload, so `len >= 1`) and `crc`
//! is the CRC-32 (IEEE, reflected) of that body. [`split_frame`] takes
//! one frame off the front of a byte stream and hands back the rest;
//! the WAL scan calls it until a frame fails, then truncates that torn
//! tail. [`decode_frame`] expects exactly one frame and treats trailing
//! bytes as an error — a transport message has no legitimate
//! continuation.
//!
//! Decoding is zero-copy: [`decode_frame`] hands back a borrowed
//! payload slice, so dispatch can route on the kind byte and pass the
//! payload onward without allocating.

use crate::crc::crc32;

/// Bytes of framing overhead per message (`len` + `crc` + `kind`).
pub const FRAME_OVERHEAD: usize = 9;

/// Hard cap on one frame's body, so a corrupted length prefix cannot
/// make a receiver allocate gigabytes, or make the WAL scan treat the
/// rest of a large log as one frame.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer than [`FRAME_OVERHEAD`] header bytes were present.
    TruncatedHeader,
    /// The length prefix was zero or above [`MAX_FRAME_BYTES`].
    BadLength,
    /// The length prefix pointed past the end of the input.
    TruncatedBody,
    /// The body's CRC-32 did not match the header.
    BadChecksum,
    /// Bytes followed the frame; a transport message is exactly one.
    TrailingBytes,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TruncatedHeader => write!(f, "truncated frame header"),
            FrameError::BadLength => write!(f, "implausible frame length"),
            FrameError::TruncatedBody => write!(f, "truncated frame body"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::TrailingBytes => write!(f, "trailing bytes after frame"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame, appending to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_BYTES`] minus the kind byte —
/// such a frame could never be decoded again.
pub fn encode_frame(kind: u8, payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(FRAME_OVERHEAD + payload.len());
    let start = begin_frame(kind, out);
    out.extend_from_slice(payload);
    seal_frame(out, start);
}

/// Starts a frame at the end of `out`: a header whose length and CRC
/// are left blank, then `kind`. The caller appends the payload to `out`
/// and passes the returned offset to [`seal_frame`], so a payload can
/// be encoded straight into the frame's buffer.
pub(crate) fn begin_frame(kind: u8, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_OVERHEAD - 1]);
    out.push(kind);
    start
}

/// Fills in the length and CRC of the frame begun at `start`, whose
/// body runs to the end of `out`.
///
/// # Panics
///
/// Panics if the body exceeds [`MAX_FRAME_BYTES`] — such a frame could
/// never be decoded again.
pub(crate) fn seal_frame(out: &mut [u8], start: usize) {
    let (header, body) = out[start..].split_at_mut(FRAME_OVERHEAD - 1);
    let body_len = body.len();
    assert!(
        body_len <= MAX_FRAME_BYTES,
        "frame body of {body_len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
    );
    header[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(body).to_le_bytes());
}

/// Convenience: encodes one frame into a fresh buffer.
pub fn frame_to_vec(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    encode_frame(kind, payload, &mut out);
    out
}

/// Decodes the frame at the front of `bytes`, returning its kind tag,
/// a borrowed payload slice, and the bytes after it. Never panics on
/// malformed input, and never returns [`FrameError::TrailingBytes`].
pub fn split_frame(bytes: &[u8]) -> Result<(u8, &[u8], &[u8]), FrameError> {
    if bytes.len() < FRAME_OVERHEAD {
        return Err(FrameError::TruncatedHeader);
    }
    let body_len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    if body_len == 0 || body_len > MAX_FRAME_BYTES {
        return Err(FrameError::BadLength);
    }
    if bytes.len() < 8 + body_len {
        return Err(FrameError::TruncatedBody);
    }
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let (body, rest) = bytes[8..].split_at(body_len);
    if crc32(body) != crc {
        return Err(FrameError::BadChecksum);
    }
    Ok((body[0], &body[1..], rest))
}

/// Decodes exactly one frame, returning the kind tag and a borrowed
/// payload slice. Never panics on malformed input.
pub fn decode_frame(bytes: &[u8]) -> Result<(u8, &[u8]), FrameError> {
    let (kind, payload, rest) = split_frame(bytes)?;
    if !rest.is_empty() {
        return Err(FrameError::TrailingBytes);
    }
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_borrows_the_payload() {
        let encoded = frame_to_vec(0x21, b"payload bytes");
        let (kind, payload) = decode_frame(&encoded).expect("decodes");
        assert_eq!(kind, 0x21);
        assert_eq!(payload, b"payload bytes");
        // Zero-copy: the payload slice points into the encoded buffer.
        let base = encoded.as_ptr() as usize;
        let got = payload.as_ptr() as usize;
        assert_eq!(got - base, FRAME_OVERHEAD);
    }

    #[test]
    fn empty_payload_is_legal() {
        let encoded = frame_to_vec(7, b"");
        let (kind, payload) = decode_frame(&encoded).expect("decodes");
        assert_eq!(kind, 7);
        assert!(payload.is_empty());
    }

    #[test]
    fn every_truncation_is_rejected_not_panicked() {
        let encoded = frame_to_vec(0x22, b"truncate me");
        for cut in 0..encoded.len() {
            let err = decode_frame(&encoded[..cut]).expect_err("truncated");
            assert!(
                matches!(err, FrameError::TruncatedHeader | FrameError::TruncatedBody),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let encoded = frame_to_vec(0x21, b"flip me");
        for byte in 0..encoded.len() {
            for bit in 0..8 {
                let mut bad = encoded.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad).is_err(),
                    "flip at {byte}:{bit} decoded anyway"
                );
            }
        }
    }

    #[test]
    fn split_frame_hands_back_the_bytes_after_the_frame() {
        let mut stream = frame_to_vec(1, b"first");
        let second = frame_to_vec(2, b"second");
        stream.extend_from_slice(&second);
        let (kind, payload, rest) = split_frame(&stream).expect("first frame");
        assert_eq!((kind, payload), (1, &b"first"[..]));
        assert_eq!(rest, &second[..]);
        let (kind, payload, rest) = split_frame(rest).expect("second frame");
        assert_eq!((kind, payload), (2, &b"second"[..]));
        assert!(rest.is_empty());
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut encoded = frame_to_vec(1, b"one message");
        encoded.push(0);
        assert_eq!(decode_frame(&encoded), Err(FrameError::TrailingBytes));
    }

    #[test]
    fn zero_and_oversized_lengths_are_rejected() {
        let mut zero = vec![0u8; FRAME_OVERHEAD];
        zero[0..4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_frame(&zero), Err(FrameError::BadLength));

        let mut huge = vec![0u8; 64];
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&huge), Err(FrameError::BadLength));
    }
}
