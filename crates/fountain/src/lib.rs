//! # medsen-fountain — rateless one-way uploads
//!
//! An LT/fountain erasure codec for the RF-restricted clinic scenario:
//! the phone compresses a cytometry upload, cuts it into `k` source
//! symbols, and emits an endless stream of *coded* symbols — each the
//! XOR of a pseudo-random neighbor set drawn from a robust soliton
//! degree distribution. The gateway reassembles the block from **any**
//! sufficiently large subset of the stream via peeling, so the link
//! needs no back-channel at all: no ACKs, no retries, no RF downlink
//! into the clinic.
//!
//! The codec contract is deliberately self-contained:
//!
//! - [`prng`] — the seeded xorshift64* generator both sides share.
//!   Symbol recipes are derived from `(stream_seed, symbol_id)`, so no
//!   neighbor lists ever cross the wire.
//! - [`soliton`] — the robust soliton degree distribution and the
//!   per-symbol recipe sampler.
//! - [`encode`] — [`Encoder`]: flat-slab XOR symbol generation with
//!   [`EncoderStats`].
//! - [`decode`] — [`Decoder`]: the peeling/belief-propagation decoder
//!   with [`DecoderStats`] (including the decode overhead ratio).
//! - [`frame`] — the length-prefixed + CRC32 symbol wire frame, in the
//!   `medsen-wire` framing idiom. Corrupt frames are dropped like lost
//!   symbols; the code's redundancy covers both.
//!
//! Like `medsen-store`, `medsen-telemetry`, and `medsen-replica`, this
//! crate is std-only with zero dependencies (CI-enforced): the wire
//! format and PRNG are a cross-device contract that must never drift
//! with a dependency bump.

pub mod decode;
pub mod encode;
pub mod frame;
pub mod prng;
pub mod soliton;

pub use decode::{Decoder, DecoderStats, SymbolRejected};
pub use encode::{source_symbol_count, CodecError, Encoder, EncoderStats, MAX_BLOCK_BYTES};
pub use frame::{
    crc32, decode_symbol_frame, encode_symbol_frame, is_symbol_frame, symbol_frame_bytes,
    SymbolFrame, SymbolFrameError, MAX_SYMBOL_FRAME_BYTES, SYMBOL_FRAME_KIND,
    SYMBOL_FRAME_OVERHEAD, SYMBOL_HEADER_BYTES,
};
pub use prng::XorShift64;
pub use soliton::RobustSoliton;

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: encode → frame → lossy wire → parse → peel → block.
    #[test]
    fn framed_round_trip_over_a_lossy_wire() {
        let block: Vec<u8> = (0..3000u32).map(|i| (i * 131) as u8).collect();
        let mut enc = Encoder::new(0xC11_71C, 2024, &block, 128).expect("encoder");
        let mut dec: Option<Decoder> = None;
        let mut rng = XorShift64::new(55);
        for id in 0..10_000u64 {
            let wire = enc.symbol_bytes(id);
            if rng.next_f64() < 0.3 {
                continue; // the link ate it; nobody will ever know
            }
            let (frame, used) = decode_symbol_frame(&wire).expect("frame");
            assert_eq!(used, wire.len());
            let d = dec.get_or_insert_with(|| Decoder::for_frame(&frame).expect("bootstrap"));
            if d.push_frame(&frame).expect("push") {
                break;
            }
        }
        let d = dec.expect("at least one symbol survived");
        assert!(d.is_complete());
        assert_eq!(d.block().expect("block"), block);
        assert!(d.stats().overhead_ratio() >= 1.0);
    }
}
