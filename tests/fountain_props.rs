//! Property tests for the fountain codec (vendored proptest).
//!
//! Two laws, fuzzed over arbitrary payloads, symbol sizes, and loss
//! patterns:
//!
//! * **any sufficient subset decodes** — for any block and any
//!   pseudo-random subset of the coded stream that the peeling decoder
//!   manages to complete on, the reassembled block is byte-identical to
//!   the source, in any arrival order;
//! * **the decoder never panics** — adversarial symbol streams (bit
//!   flips, truncations, forged headers, cross-wired streams) produce
//!   typed errors or rejected symbols, never a crash or a wrong block;
//!   nor does decompressing a reassembled block whose length prefix is
//!   forged.

use medsen::fountain::{
    decode_symbol_frame, encode_symbol_frame, source_symbol_count, Decoder, Encoder, SymbolFrame,
};
use medsen::phone::compress::{DecompressError, MAX_DECOMPRESSED_BYTES};
use proptest::prelude::*;

/// A deterministic index-shuffle so arrival order is arbitrary without
/// proptest having to generate a permutation.
fn shuffled(count: u64, salt: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..count).collect();
    let mut rng = medsen::audit::AuditRng::derive(salt, b"arrival-order");
    rng.shuffle(&mut ids);
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A reassembled block's 8-byte length prefix is the sender's word:
    /// over any tail, any declared length decompresses to exactly that
    /// many bytes or returns a typed error — never an abort on a forged
    /// allocation, and never a reservation past the limit.
    #[test]
    fn forged_block_lengths_decompress_or_error_typed(
        declared in any::<u64>(),
        range in 0usize..3,
        tail in proptest::collection::vec(any::<u8>(), 0..256),
        seed in any::<u64>(),
    ) {
        let declared = match range {
            0 => declared % 4096,
            1 => MAX_DECOMPRESSED_BYTES - 1 + declared % 3,
            _ => declared,
        };
        let mut block = declared.to_be_bytes().to_vec();
        block.extend_from_slice(&tail);
        let mut encoder = Encoder::new(5, seed, &block, 16).expect("encoder");
        let mut decoder = Decoder::new(block.len(), 16, seed).expect("decoder");
        let mut id = 0;
        while !decoder.push_frame(&encoder.symbol(id)).expect("same stream") {
            id += 1;
        }
        let reassembled = decoder.block().expect("complete");
        prop_assert_eq!(&reassembled, &block);
        match medsen::phone::decompress(&reassembled) {
            Ok(out) => prop_assert_eq!(out.len() as u64, declared),
            Err(DecompressError::TooLarge { declared: d }) => {
                prop_assert_eq!(d, declared);
                prop_assert!(declared > MAX_DECOMPRESSED_BYTES);
            }
            Err(_) => prop_assert!(declared <= MAX_DECOMPRESSED_BYTES),
        }
    }

    /// Stream 6x the source symbol count, drop a pseudo-random subset at
    /// `loss`%, deliver the survivors in shuffled order: whenever the
    /// decoder completes, the block equals the source bytes.
    #[test]
    fn any_sufficient_subset_reassembles_the_block(
        body in proptest::collection::vec(any::<u8>(), 0..2048),
        symbol_size in (0usize..3).prop_map(|i| [16usize, 64, 256][i]),
        loss_pct in 0u32..60,
        seed in any::<u64>(),
    ) {
        let k = source_symbol_count(body.len(), symbol_size);
        let budget = (k as u64) * 6 + 32;
        let mut encoder = Encoder::new(11, seed, &body, symbol_size).expect("encoder");
        let mut decoder = Decoder::new(body.len(), symbol_size, seed).expect("decoder");
        let mut completed = false;
        for id in shuffled(budget, seed ^ 0xA5A5) {
            // Pseudo-random per-symbol drop at `loss_pct`.
            let drop_draw = id
                .wrapping_add(seed)
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                >> 32;
            if (drop_draw % 100) < loss_pct as u64 {
                continue;
            }
            let frame = encoder.symbol(id);
            if decoder.push_frame(&frame).expect("same stream") {
                completed = true;
                break;
            }
        }
        if completed {
            prop_assert_eq!(decoder.block().expect("complete"), body);
            let stats = decoder.stats();
            prop_assert!(stats.overhead_ratio() >= 1.0 || k == 0);
        }
        // At ≤60% loss with a 6x budget the decode should essentially
        // always finish; tolerate the (astronomically rare) miss only by
        // not asserting completion when symbols ran out *and* loss was
        // extreme.
        if loss_pct < 40 {
            prop_assert!(completed, "6x budget at {}% loss failed to decode", loss_pct);
        }
    }

    /// Feed the decoder a mix of genuine, bit-flipped, truncated, and
    /// forged frames: every input either errors typed or is accepted,
    /// and a completed block is still byte-identical to the source.
    #[test]
    fn adversarial_streams_never_panic_or_corrupt(
        body in proptest::collection::vec(any::<u8>(), 1..1024),
        seed in any::<u64>(),
        flip_byte in any::<usize>(),
        flip_mask in 1u8..=255,
        truncate_to in any::<usize>(),
        forged_block_len in any::<u32>(),
    ) {
        let symbol_size = 32;
        let mut encoder = Encoder::new(3, seed, &body, symbol_size).expect("encoder");
        let mut decoder = Decoder::new(body.len(), symbol_size, seed).expect("decoder");
        let budget = (decoder.source_symbols() as u64) * 4 + 16;
        for id in 0..budget {
            let mut wire = encoder.symbol_bytes(id);
            match id % 4 {
                // Bit-flip anywhere in the frame: CRC or stream checks
                // must reject it (or, for the length prefix, a typed
                // parse error).
                1 => {
                    let at = flip_byte % wire.len();
                    wire[at] ^= flip_mask;
                }
                // Truncation mid-frame.
                2 => {
                    wire.truncate(truncate_to % (wire.len() + 1));
                }
                // Forged header: wrong stream seed, arbitrary geometry.
                // (The seed must differ — a same-seed forge with matching
                // geometry is an undetectably poisoned symbol by design.)
                3 => {
                    let frame = SymbolFrame {
                        session_id: 3,
                        symbol_id: id,
                        seed: seed ^ 1,
                        block_len: forged_block_len % (1 << 20),
                        symbol_size: symbol_size as u32,
                        data: vec![0xEE; symbol_size],
                    };
                    wire.clear();
                    encode_symbol_frame(&frame, &mut wire);
                }
                // Genuine symbol.
                _ => {}
            }
            let Ok((frame, _)) = decode_symbol_frame(&wire) else {
                continue; // typed parse/CRC rejection
            };
            if !decoder.matches_stream(&frame) {
                continue; // typed stream rejection path
            }
            let _ = decoder.push_frame(&frame);
            if decoder.is_complete() {
                break;
            }
        }
        if decoder.is_complete() {
            prop_assert_eq!(decoder.block().expect("complete"), body);
        }
    }
}
