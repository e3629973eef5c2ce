//! The torn-tail scan over a WAL log.
//!
//! A log is a flat byte stream of `medsen-wire` frames, written by
//! [`medsen_wire::encode_frame`]:
//!
//! ```text
//! ┌────────────┬────────────┬──────────┬─────────────────────┐
//! │ len: u32LE │ crc: u32LE │ kind: u8 │ payload: len-1 bytes│
//! └────────────┴────────────┴──────────┴─────────────────────┘
//! ```
//!
//! The scan is deliberately self-synchronization-free: a frame that
//! fails its length or checksum invariant ends the decodable region,
//! and everything from its first byte onward is a *torn tail* the
//! recovery path truncates. That is the right failure model for an
//! append-only log — the only writer ever in-flight is the last one, so
//! a bad frame can only be the final (possibly partially written or
//! bit-flipped) append.

use medsen_wire::FrameError;

/// One decoded log entry: a caller-defined kind tag plus opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Caller-defined entry discriminant (e.g. enroll / store / tamper).
    pub kind: u8,
    /// Opaque entry bytes.
    pub payload: Vec<u8>,
}

/// The result of decoding a log byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedLog {
    /// Every intact frame, in append order.
    pub frames: Vec<Frame>,
    /// Byte length of the intact prefix. Recovery truncates the file to
    /// this offset (plus any header the caller wrote before the frames).
    pub clean_len: usize,
    /// Why decoding stopped early, if it did. `None` means the whole
    /// input decoded cleanly. Never [`FrameError::TrailingBytes`].
    pub torn: Option<FrameError>,
}

/// Decodes a frame stream, stopping (never panicking) at the first frame
/// that is incomplete or fails its checksum.
pub fn decode_log(bytes: &[u8]) -> DecodedLog {
    let mut frames = Vec::new();
    let mut rest = bytes;
    let mut torn = None;
    while !rest.is_empty() {
        match medsen_wire::split_frame(rest) {
            Ok((kind, payload, tail)) => {
                frames.push(Frame {
                    kind,
                    payload: payload.to_vec(),
                });
                rest = tail;
            }
            Err(err) => {
                torn = Some(err);
                break;
            }
        }
    }
    DecodedLog {
        frames,
        clean_len: bytes.len() - rest.len(),
        torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_wire::{encode_frame, FRAME_OVERHEAD};

    #[test]
    fn frames_round_trip_in_order() {
        let mut log = Vec::new();
        encode_frame(1, b"alpha", &mut log);
        encode_frame(2, b"", &mut log);
        encode_frame(3, &[0u8; 300], &mut log);
        let decoded = decode_log(&log);
        assert_eq!(decoded.torn, None);
        assert_eq!(decoded.clean_len, log.len());
        assert_eq!(decoded.frames.len(), 3);
        assert_eq!(decoded.frames[0].kind, 1);
        assert_eq!(decoded.frames[0].payload, b"alpha");
        assert!(decoded.frames[1].payload.is_empty());
        assert_eq!(decoded.frames[2].payload.len(), 300);
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let mut log = Vec::new();
        encode_frame(1, b"kept", &mut log);
        let intact = log.len();
        encode_frame(2, b"torn away", &mut log);
        for cut in intact + 1..log.len() {
            let decoded = decode_log(&log[..cut]);
            assert_eq!(decoded.frames.len(), 1, "cut at {cut}");
            assert_eq!(decoded.clean_len, intact, "cut at {cut}");
            assert!(decoded.torn.is_some(), "cut at {cut}");
        }
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let mut log = Vec::new();
        encode_frame(1, b"kept", &mut log);
        let intact = log.len();
        encode_frame(7, b"payload under test", &mut log);
        // Flip one payload byte of the second frame.
        let victim = intact + FRAME_OVERHEAD + 3;
        log[victim] ^= 0x40;
        let decoded = decode_log(&log);
        assert_eq!(decoded.frames.len(), 1);
        assert_eq!(decoded.clean_len, intact);
        assert_eq!(decoded.torn, Some(FrameError::BadChecksum));
    }

    #[test]
    fn zero_and_oversized_lengths_stop_decoding() {
        let mut log = Vec::new();
        encode_frame(1, b"ok", &mut log);
        let intact = log.len();
        log.extend_from_slice(&0u32.to_le_bytes());
        log.extend_from_slice(&[0; 5]);
        let decoded = decode_log(&log);
        assert_eq!(decoded.clean_len, intact);
        assert_eq!(decoded.torn, Some(FrameError::BadLength));

        let mut log2 = Vec::new();
        log2.extend_from_slice(&(u32::MAX).to_le_bytes());
        log2.extend_from_slice(&[0; 64]);
        let decoded2 = decode_log(&log2);
        assert!(decoded2.frames.is_empty());
        assert_eq!(decoded2.torn, Some(FrameError::BadLength));
    }

    #[test]
    fn empty_input_is_a_clean_empty_log() {
        let decoded = decode_log(&[]);
        assert!(decoded.frames.is_empty());
        assert_eq!(decoded.clean_len, 0);
        assert_eq!(decoded.torn, None);
    }
}
