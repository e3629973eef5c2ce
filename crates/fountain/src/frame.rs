//! The symbol wire frame: length-prefixed + CRC32, with the header
//! layout of `medsen-wire`'s frame (which the WAL writes too), in a
//! frozen private copy.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [len: u32][crc: u32][kind: u8][header: 32 bytes][data: symbol_size bytes]
//!  \_ kind + header + data length   \_ session_id u64 | symbol_id u64
//!           \_ CRC32 of kind..end      | seed u64 | block_len u32
//!                                      | symbol_size u32
//! ```
//!
//! Every symbol is self-describing: it carries the stream parameters
//! (`block_len`, `symbol_size`, `seed`) alongside its id, so a decoder
//! can be bootstrapped from *any* symbol that survives the link — there
//! is no setup handshake to lose. On a one-way link corruption cannot be
//! re-requested, so a frame that fails its CRC is simply dropped, exactly
//! like a symbol the link ate; the codec's redundancy covers both.
//!
//! The CRC32 (IEEE, reflected) is a deliberate bytewise copy of
//! `medsen_wire::crc32`: the wire format must never drift with a
//! dependency, and the fountain crate takes none.

/// Frame kind for a fountain symbol. Chosen to collide with neither the
/// store WAL kinds nor the phone AOAP message types (0x10..0x13), so a
/// mis-routed buffer fails typed instead of decoding as garbage.
pub const SYMBOL_FRAME_KIND: u8 = 0xF7;

/// Bytes of symbol metadata inside the payload, before the XOR data.
pub const SYMBOL_HEADER_BYTES: usize = 32;

/// Fixed outer framing cost: length + CRC + kind byte.
pub const SYMBOL_FRAME_OVERHEAD: usize = 9;

/// Upper bound on a declared frame length; anything larger is treated as
/// corruption rather than an allocation request.
pub const MAX_SYMBOL_FRAME_BYTES: usize = 1 << 20;

/// One coded symbol plus the stream parameters needed to decode it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolFrame {
    /// Upload session this symbol belongs to.
    pub session_id: u64,
    /// Position in the rateless stream; determines the recipe.
    pub symbol_id: u64,
    /// Stream seed shared by encoder and decoder.
    pub seed: u64,
    /// Length of the source block in bytes (pre-padding).
    pub block_len: u32,
    /// Size of every symbol's XOR payload in bytes.
    pub symbol_size: u32,
    /// The XOR of this symbol's source-symbol neighbors.
    pub data: Vec<u8>,
}

/// Why a byte slice failed to decode as a symbol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolFrameError {
    /// Fewer bytes than the fixed length+CRC prefix.
    TruncatedPrefix,
    /// Declared length is zero or exceeds [`MAX_SYMBOL_FRAME_BYTES`].
    BadLength { declared: usize },
    /// Declared length runs past the end of the buffer.
    TruncatedBody { declared: usize, available: usize },
    /// CRC32 over kind+payload did not match.
    ChecksumMismatch,
    /// Kind byte is not [`SYMBOL_FRAME_KIND`].
    WrongKind { found: u8 },
    /// Payload shorter than the 32-byte symbol header.
    ShortHeader { len: usize },
    /// Data length disagrees with the declared `symbol_size`.
    DataSizeMismatch { declared: u32, actual: usize },
}

impl std::fmt::Display for SymbolFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TruncatedPrefix => write!(f, "symbol frame shorter than its prefix"),
            Self::BadLength { declared } => {
                write!(f, "symbol frame declares implausible length {declared}")
            }
            Self::TruncatedBody {
                declared,
                available,
            } => write!(
                f,
                "symbol frame declares {declared} bytes but only {available} remain"
            ),
            Self::ChecksumMismatch => write!(f, "symbol frame checksum mismatch"),
            Self::WrongKind { found } => {
                write!(f, "symbol frame kind {found:#04x} is not a fountain symbol")
            }
            Self::ShortHeader { len } => {
                write!(f, "symbol payload of {len} bytes cannot hold the header")
            }
            Self::DataSizeMismatch { declared, actual } => write!(
                f,
                "symbol declares size {declared} but carries {actual} bytes"
            ),
        }
    }
}

impl std::error::Error for SymbolFrameError {}

/// CRC32 (IEEE, reflected). Table built at compile time; the check value
/// is `crc32(b"123456789") == 0xCBF4_3926`.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ u32::MAX
}

/// Append `frame` to `out` in wire format.
pub fn encode_symbol_frame(frame: &SymbolFrame, out: &mut Vec<u8>) {
    let body_len = 1 + SYMBOL_HEADER_BYTES + frame.data.len();
    let start = out.len();
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // CRC placeholder
    out.push(SYMBOL_FRAME_KIND);
    out.extend_from_slice(&frame.session_id.to_le_bytes());
    out.extend_from_slice(&frame.symbol_id.to_le_bytes());
    out.extend_from_slice(&frame.seed.to_le_bytes());
    out.extend_from_slice(&frame.block_len.to_le_bytes());
    out.extend_from_slice(&frame.symbol_size.to_le_bytes());
    out.extend_from_slice(&frame.data);
    let crc = crc32(&out[start + 8..]);
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// `frame` as a standalone wire buffer.
pub fn symbol_frame_bytes(frame: &SymbolFrame) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(SYMBOL_FRAME_OVERHEAD + SYMBOL_HEADER_BYTES + frame.data.len());
    encode_symbol_frame(frame, &mut out);
    out
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

fn read_u64(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(b)
}

/// Decode one symbol frame from the front of `bytes`. On success returns
/// the frame and the number of bytes consumed, so callers can walk a
/// concatenated stream. Never panics, whatever the input.
pub fn decode_symbol_frame(bytes: &[u8]) -> Result<(SymbolFrame, usize), SymbolFrameError> {
    if bytes.len() < 8 {
        return Err(SymbolFrameError::TruncatedPrefix);
    }
    let declared = read_u32(bytes) as usize;
    if declared == 0 || declared > MAX_SYMBOL_FRAME_BYTES {
        return Err(SymbolFrameError::BadLength { declared });
    }
    let total = 8 + declared;
    if bytes.len() < total {
        return Err(SymbolFrameError::TruncatedBody {
            declared,
            available: bytes.len().saturating_sub(8),
        });
    }
    let expected = read_u32(&bytes[4..]);
    let body = &bytes[8..total];
    if crc32(body) != expected {
        return Err(SymbolFrameError::ChecksumMismatch);
    }
    if body[0] != SYMBOL_FRAME_KIND {
        return Err(SymbolFrameError::WrongKind { found: body[0] });
    }
    let payload = &body[1..];
    if payload.len() < SYMBOL_HEADER_BYTES {
        return Err(SymbolFrameError::ShortHeader { len: payload.len() });
    }
    let session_id = read_u64(payload);
    let symbol_id = read_u64(&payload[8..]);
    let seed = read_u64(&payload[16..]);
    let block_len = read_u32(&payload[24..]);
    let symbol_size = read_u32(&payload[24 + 4..]);
    let data = &payload[SYMBOL_HEADER_BYTES..];
    if data.len() != symbol_size as usize {
        return Err(SymbolFrameError::DataSizeMismatch {
            declared: symbol_size,
            actual: data.len(),
        });
    }
    Ok((
        SymbolFrame {
            session_id,
            symbol_id,
            seed,
            block_len,
            symbol_size,
            data: data.to_vec(),
        },
        total,
    ))
}

/// Whether `bytes` begins with a structurally valid symbol frame.
///
/// The gateway uses this to discriminate fountain traffic from legacy
/// framed uploads on the same ingress path: a full CRC check means a
/// legacy upload can never be misread as a symbol.
pub fn is_symbol_frame(bytes: &[u8]) -> bool {
    decode_symbol_frame(bytes).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> SymbolFrame {
        SymbolFrame {
            session_id: 0xDEAD_BEEF_0042,
            symbol_id: 17,
            seed: 0x5EED,
            block_len: 1000,
            symbol_size: 4,
            data: vec![1, 2, 3, 4],
        }
    }

    #[test]
    fn crc_check_value_is_pinned() {
        // The IEEE CRC32 check value; shared with `medsen_wire::crc32`,
        // which the wire and WAL frames use, and must never drift.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn round_trip() {
        let frame = sample_frame();
        let wire = symbol_frame_bytes(&frame);
        let (decoded, used) = decode_symbol_frame(&wire).expect("round trip");
        assert_eq!(decoded, frame);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn consumed_length_walks_a_concatenated_stream() {
        let mut wire = Vec::new();
        for id in 0..3u64 {
            let mut f = sample_frame();
            f.symbol_id = id;
            encode_symbol_frame(&f, &mut wire);
        }
        let mut offset = 0;
        for id in 0..3u64 {
            let (f, used) = decode_symbol_frame(&wire[offset..]).expect("stream walk");
            assert_eq!(f.symbol_id, id);
            offset += used;
        }
        assert_eq!(offset, wire.len());
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let wire = symbol_frame_bytes(&sample_frame());
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[byte] ^= 1 << bit;
                // A flip may corrupt the length prefix (truncation errors),
                // the CRC, or the body — but must never decode cleanly to
                // a different frame.
                if let Ok((frame, _)) = decode_symbol_frame(&bad) {
                    assert_eq!(frame, sample_frame(), "bit flip at {byte}:{bit} accepted");
                    panic!("bit flip at {byte}:{bit} produced an identical frame?");
                }
            }
        }
    }

    #[test]
    fn truncations_are_typed_not_panics() {
        let wire = symbol_frame_bytes(&sample_frame());
        for cut in 0..wire.len() {
            let err = decode_symbol_frame(&wire[..cut]).expect_err("truncated");
            assert!(
                matches!(
                    err,
                    SymbolFrameError::TruncatedPrefix | SymbolFrameError::TruncatedBody { .. }
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn zero_and_oversized_lengths_are_rejected() {
        let mut zero = vec![0u8; 16];
        assert_eq!(
            decode_symbol_frame(&zero),
            Err(SymbolFrameError::BadLength { declared: 0 })
        );
        zero[..4].copy_from_slice(&(MAX_SYMBOL_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert!(matches!(
            decode_symbol_frame(&zero),
            Err(SymbolFrameError::BadLength { .. })
        ));
    }

    #[test]
    fn wrong_kind_is_typed() {
        let mut wire = symbol_frame_bytes(&sample_frame());
        wire[8] = 0x10; // legacy AOAP StartTest kind
        let crc = crc32(&wire[8..]);
        wire[4..8].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_symbol_frame(&wire),
            Err(SymbolFrameError::WrongKind { found: 0x10 })
        );
    }

    #[test]
    fn size_mismatch_is_typed() {
        let mut frame = sample_frame();
        frame.symbol_size = 8; // but data is 4 bytes
        let wire = symbol_frame_bytes(&frame);
        assert_eq!(
            decode_symbol_frame(&wire),
            Err(SymbolFrameError::DataSizeMismatch {
                declared: 8,
                actual: 4
            })
        );
    }

    #[test]
    fn legacy_upload_bytes_are_not_symbol_frames() {
        // A phone AOAP frame starts with a message-type byte and a
        // big-endian length; the CRC gate rejects it long before the
        // kind check could be fooled.
        let legacy = [0x10, 0x00, 0x00, 0x00, 0x0C, 1, 2, 3, 4, 5, 6, 7, 8];
        assert!(!is_symbol_frame(&legacy));
        assert!(!is_symbol_frame(b""));
        assert!(!is_symbol_frame(&[0xF7; 64]));
    }
}
