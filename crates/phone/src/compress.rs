//! From-scratch LZW compression — the stand-in for the prototype's zip stage.
//!
//! "To improve the network transfer efficiency, MedSen implements zip data
//! compression on the smartphone. This reduced the sample size [600 MB of
//! CSV] to 240 MB" (Sec. VII-B) — a 2.5× ratio. An LZW codec with 12-bit
//! codes and dictionary reset achieves a comparable ratio on the same kind of
//! numeric CSV text, with no external dependency.
//!
//! Wire format: a stream of 12-bit codes packed big-endian into bytes,
//! preceded by the 8-byte original length.

use std::collections::HashMap;

const MAX_CODE_BITS: u32 = 12;
const MAX_DICT: usize = 1 << MAX_CODE_BITS; // 4096
const RESET_CODE: u16 = 256; // emitted when the dictionary resets
const FIRST_FREE: u16 = 257;

/// The longest output [`decompress`] will produce: 65 MiB, room for the
/// largest framed upload the gateway accepts (a 64 MiB body plus its
/// chunk framing). A stream declaring more is refused before anything is
/// allocated, since the length is read from the stream itself.
pub const MAX_DECOMPRESSED_BYTES: u64 = 65 << 20;

/// Compression statistics for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Uncompressed size in bytes.
    pub raw_bytes: usize,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
}

impl CompressionStats {
    /// Raw / compressed (the paper's 600 MB / 240 MB = 2.5).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            0.0
        } else {
            self.raw_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    n_bits: u32,
}

impl BitWriter {
    fn new() -> Self {
        Self {
            out: Vec::new(),
            acc: 0,
            n_bits: 0,
        }
    }

    fn push(&mut self, code: u16) {
        self.acc = (self.acc << MAX_CODE_BITS) | u64::from(code);
        self.n_bits += MAX_CODE_BITS;
        while self.n_bits >= 8 {
            self.n_bits -= 8;
            self.out.push((self.acc >> self.n_bits) as u8);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.n_bits > 0 {
            self.out.push((self.acc << (8 - self.n_bits)) as u8);
        }
        self.out
    }
}

struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    n_bits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            n_bits: 0,
        }
    }

    fn next(&mut self) -> Option<u16> {
        while self.n_bits < MAX_CODE_BITS {
            if self.pos >= self.data.len() {
                return None;
            }
            self.acc = (self.acc << 8) | u64::from(self.data[self.pos]);
            self.pos += 1;
            self.n_bits += 8;
        }
        self.n_bits -= MAX_CODE_BITS;
        Some(((self.acc >> self.n_bits) & 0xFFF) as u16)
    }
}

/// Compresses a byte slice.
///
/// # Examples
///
/// ```
/// use medsen_phone::{compress, decompress};
///
/// let data = b"measurement,measurement,measurement".repeat(40);
/// let packed = compress(&data);
/// assert!(packed.len() < data.len() / 2);
/// assert_eq!(decompress(&packed).unwrap(), data);
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(&(data.len() as u64).to_be_bytes());
    if data.is_empty() {
        return out;
    }

    let mut dict: HashMap<Vec<u8>, u16> = HashMap::with_capacity(MAX_DICT);
    let mut next_code = FIRST_FREE;
    let mut writer = BitWriter::new();
    let mut current: Vec<u8> = vec![data[0]];

    for &byte in &data[1..] {
        let mut candidate = current.clone();
        candidate.push(byte);
        if dict.contains_key(&candidate) {
            current = candidate;
        } else {
            writer.push(code_of(&dict, &current));
            if next_code as usize >= MAX_DICT {
                writer.push(RESET_CODE);
                dict.clear();
                next_code = FIRST_FREE;
            } else {
                dict.insert(candidate, next_code);
                next_code += 1;
            }
            current = vec![byte];
        }
    }
    writer.push(code_of(&dict, &current));
    out.extend_from_slice(&writer.finish());
    out
}

fn code_of(dict: &HashMap<Vec<u8>, u16>, seq: &[u8]) -> u16 {
    if seq.len() == 1 {
        u16::from(seq[0])
    } else {
        *dict
            .get(seq)
            .expect("sequence was inserted before being emitted")
    }
}

/// Decompression errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// Missing or short header.
    Truncated,
    /// A code referenced an entry that does not exist.
    BadCode(u16),
    /// The decoded output did not match the declared length.
    LengthMismatch {
        /// Length declared in the header.
        declared: u64,
        /// Length actually decoded.
        decoded: u64,
    },
    /// The header declared more than [`MAX_DECOMPRESSED_BYTES`].
    TooLarge {
        /// Length declared in the header.
        declared: u64,
    },
}

impl core::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream truncated"),
            DecompressError::BadCode(c) => write!(f, "invalid LZW code {c}"),
            DecompressError::LengthMismatch { declared, decoded } => {
                write!(f, "declared {declared} bytes but decoded {decoded}")
            }
            DecompressError::TooLarge { declared } => write!(
                f,
                "declared {declared} bytes exceeds the {MAX_DECOMPRESSED_BYTES}-byte limit"
            ),
        }
    }
}

impl std::error::Error for DecompressError {}

/// Decompresses a stream produced by [`compress`].
///
/// # Errors
///
/// Returns a [`DecompressError`] on malformed input.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DecompressError> {
    if data.len() < 8 {
        return Err(DecompressError::Truncated);
    }
    let declared = u64::from_be_bytes(data[..8].try_into().expect("8 bytes"));
    if declared > MAX_DECOMPRESSED_BYTES {
        return Err(DecompressError::TooLarge { declared });
    }
    let mut out: Vec<u8> = Vec::with_capacity(declared as usize);
    let mut reader = BitReader::new(&data[8..]);

    let mut dict: Vec<Vec<u8>> = Vec::with_capacity(MAX_DICT);
    let reset = |dict: &mut Vec<Vec<u8>>| {
        dict.clear();
        for b in 0..=255u8 {
            dict.push(vec![b]);
        }
        dict.push(Vec::new()); // RESET_CODE placeholder
    };
    reset(&mut dict);

    let mut prev: Option<Vec<u8>> = None;
    while (out.len() as u64) < declared {
        let code = reader.next().ok_or(DecompressError::Truncated)?;
        if code == RESET_CODE {
            reset(&mut dict);
            prev = None;
            continue;
        }
        let entry = if (code as usize) < dict.len() {
            dict[code as usize].clone()
        } else if code as usize == dict.len() {
            // The classic KwKwK case.
            let p = prev.clone().ok_or(DecompressError::BadCode(code))?;
            let mut e = p.clone();
            e.push(p[0]);
            e
        } else {
            return Err(DecompressError::BadCode(code));
        };
        out.extend_from_slice(&entry);
        if let Some(p) = prev {
            if dict.len() < MAX_DICT {
                let mut new_entry = p;
                new_entry.push(entry[0]);
                dict.push(new_entry);
            }
        }
        prev = Some(entry);
    }
    if out.len() as u64 != declared {
        return Err(DecompressError::LengthMismatch {
            declared,
            decoded: out.len() as u64,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> CompressionStats {
        let compressed = compress(data);
        let restored = decompress(&compressed).expect("valid stream");
        assert_eq!(restored, data, "round-trip mismatch");
        CompressionStats {
            raw_bytes: data.len(),
            compressed_bytes: compressed.len(),
        }
    }

    #[test]
    fn empty_input_round_trips() {
        let stats = roundtrip(b"");
        assert_eq!(stats.raw_bytes, 0);
    }

    #[test]
    fn short_inputs_round_trip() {
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"aaa");
        roundtrip(b"abcabcabc");
    }

    #[test]
    fn kwkwk_pattern_round_trips() {
        // The classic LZW edge case: code referencing the entry being built.
        roundtrip(b"abababababababab");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaa");
    }

    #[test]
    fn binary_data_round_trips() {
        let data: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2654435761)) as u8)
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn csv_like_text_compresses_well() {
        // Numeric CSV of the kind the prototype uploads.
        let mut csv = String::from("time,ch0,ch1,ch2\n");
        for i in 0..5_000 {
            let t = i as f64 / 450.0;
            csv.push_str(&format!(
                "{t:.6},{:.6},{:.6},{:.6}\n",
                1.0 + (i % 7) as f64 * 1e-6,
                1.0 + (i % 11) as f64 * 1e-6,
                1.0 + (i % 13) as f64 * 1e-6
            ));
        }
        let stats = roundtrip(csv.as_bytes());
        // The paper's zip achieved 2.5×; LZW on the same shape of data should
        // land in the same band.
        assert!(stats.ratio() > 2.0, "ratio {}", stats.ratio());
    }

    #[test]
    fn dictionary_reset_handles_long_inputs() {
        // Force multiple dictionary resets (>4096 entries of fresh material).
        let mut data = Vec::new();
        for i in 0..200_000u32 {
            data.extend_from_slice(&i.to_be_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn truncated_streams_are_rejected() {
        assert_eq!(
            decompress(&[1, 2, 3]).unwrap_err(),
            DecompressError::Truncated
        );
        let compressed = compress(b"hello world hello world");
        let err = decompress(&compressed[..compressed.len() - 2]).unwrap_err();
        assert!(matches!(
            err,
            DecompressError::Truncated | DecompressError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn forged_lengths_are_refused_before_allocating() {
        // 1 TiB once aborted the process on the allocation, and u64::MAX
        // panicked with "capacity overflow".
        for declared in [MAX_DECOMPRESSED_BYTES + 1, 1 << 40, u64::MAX] {
            let mut forged = declared.to_be_bytes().to_vec();
            forged.extend_from_slice(&[0x41; 8]);
            assert_eq!(
                decompress(&forged),
                Err(DecompressError::TooLarge { declared })
            );
        }
        // At the limit the length is legal; the stream is just short.
        let mut short = compress(b"abc");
        short[..8].copy_from_slice(&MAX_DECOMPRESSED_BYTES.to_be_bytes());
        assert_eq!(decompress(&short), Err(DecompressError::Truncated));
    }

    #[test]
    fn ratio_reports_zero_for_empty_compressed() {
        let stats = CompressionStats {
            raw_bytes: 0,
            compressed_bytes: 0,
        };
        assert_eq!(stats.ratio(), 0.0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn arbitrary_bytes_round_trip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
                let compressed = compress(&data);
                let restored = decompress(&compressed).unwrap();
                prop_assert_eq!(restored, data);
            }

            #[test]
            fn repetitive_text_round_trips(word in "[a-z]{1,8}", reps in 1usize..500) {
                let data = word.repeat(reps);
                let compressed = compress(data.as_bytes());
                let restored = decompress(&compressed).unwrap();
                prop_assert_eq!(restored, data.as_bytes());
            }
        }
    }
}
