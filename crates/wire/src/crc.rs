//! The workspace's one CRC-32 implementation.
//!
//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) guards three
//! independent durability/wire contracts in this codebase: the WAL frame
//! stream (`medsen-store`), the credential blob (`CytoPassword` in
//! `medsen-core`), and the cross-tier message frames defined here. All
//! three used to carry their own copy of the same const-fn table; this
//! module is now the single source the others delegate to.
//!
//! One deliberate exception: `medsen-fountain` keeps a frozen private
//! copy, because the fountain symbol frame is a wire contract with
//! embedded senders that must build the crate with zero dependencies.
//! A workspace-level test pins that copy bit-equal to this one, the same
//! way the PR 8 PRNG pin works.

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes`.
///
/// Implemented here rather than vendored: the checksum is part of both
/// the persistence and the wire contract and must never drift with a
/// dependency.
///
/// Slicing-by-16: each 16-byte block is folded in with one lookup per
/// byte into sixteen tables, so the lookups of a block do not wait on
/// each other the way the byte-at-a-time loop's do. The tail shorter
/// than a block takes the byte-at-a-time step. The result is bit-equal
/// to the classic one-table loop, which `tests/wire_props.rs` pins
/// through `medsen-fountain`'s frozen bytewise copy.
pub fn crc32(bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<SLICES>();
    let mut crc = !0u32;
    for block in blocks {
        let mut block = *block;
        for (byte, state) in block.iter_mut().zip(crc.to_le_bytes()) {
            *byte ^= state;
        }
        // Byte `i` still has `SLICES - 1 - i` bytes after it in the
        // block, so it is looked up in the table that shifts it that far.
        crc = block
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&byte, table)| acc ^ table[usize::from(byte)]);
    }
    for &byte in tail {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Bytes folded per step of the sliced loop.
const SLICES: usize = 16;

/// `CRC_TABLES[0]` is the classic byte table; `CRC_TABLES[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes. Built at
/// compile time.
static CRC_TABLES: [[u32; 256]; SLICES] = crc_tables();

const fn crc_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn is_sensitive_to_single_bit_flips() {
        let base = crc32(b"wire frame body");
        let mut flipped = b"wire frame body".to_vec();
        for byte in 0..flipped.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
                flipped[byte] ^= 1 << bit;
            }
        }
    }
}
