//! The seeded PRNG shared by encoder and decoder.
//!
//! A fountain symbol's *recipe* — its degree and neighbor set — is never
//! carried on the wire. Both sides derive it from `(stream_seed,
//! symbol_id)` through the same deterministic generator, so the only
//! per-symbol metadata a frame needs is the 8-byte symbol id. That makes
//! the generator part of the codec contract: it is implemented here,
//! from scratch, and must never drift with a dependency (the same
//! reasoning that keeps the frame CRC in the zero-dependency
//! `medsen-wire`).
//!
//! The generator is xorshift64* — 3 shifts, 1 multiply, full 2^64−1
//! period — seeded through a SplitMix64 finalizer so that adjacent seeds
//! (symbol ids are sequential) land in uncorrelated streams.

/// SplitMix64 finalizer: a bijective avalanche over one 64-bit word.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed for symbol `symbol_id` of the stream seeded `stream_seed`.
///
/// Mixing happens *before* the xor so that streams whose seeds differ
/// only in low bits still produce unrelated symbol recipes.
#[inline]
pub fn symbol_seed(stream_seed: u64, symbol_id: u64) -> u64 {
    mix64(mix64(stream_seed) ^ mix64(symbol_id ^ 0xF0E1_D2C3_B4A5_9687))
}

/// xorshift64* with SplitMix64 seeding. Deterministic, dependency-free,
/// and identical on both ends of the one-way link.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// A generator whose stream is fully determined by `seed` (any value,
    /// including 0, is a valid seed — the mixer keeps the state nonzero).
    pub fn new(seed: u64) -> Self {
        let mut state = mix64(seed);
        if state == 0 {
            // xorshift fixes the all-zero state; mix64(x) == 0 only for
            // one input, which this constant displaces.
            state = 0x9E37_79B9_7F4A_7C15;
        }
        Self { state }
    }

    /// The next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`. `n` must be nonzero.
    ///
    /// Plain modulo: the bias for the `n` values this codec draws
    /// (degrees and indices, well under 2^32) is below 2^-32 and both
    /// sides share it, so it cancels out of the contract.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0) is meaningless");
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "adjacent seeds must not correlate");
    }

    #[test]
    fn zero_seed_is_valid() {
        let mut rng = XorShift64::new(0);
        let first = rng.next_u64();
        assert_ne!(first, 0);
        assert_ne!(first, rng.next_u64());
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = XorShift64::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn below_covers_the_range() {
        let mut rng = XorShift64::new(9);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "200 draws must hit all of 0..5");
    }

    #[test]
    fn symbol_seeds_are_distinct_across_ids_and_streams() {
        let mut seeds = std::collections::HashSet::new();
        for stream in 0..8u64 {
            for id in 0..64u64 {
                assert!(seeds.insert(symbol_seed(stream, id)), "collision");
            }
        }
    }
}
