//! Content-addressed response cache for the analysis pipeline.
//!
//! DSP analysis is a pure function of the uploaded trace (ROADMAP:
//! "analysis results could be cached by content digest"), so identical
//! trace bytes — a dongle retrying an upload after a flaky link, or a
//! duplicate submission — can skip the whole peak-extraction pipeline.
//! The cache maps a 64-bit digest of the trace's *content* (every
//! sample's bit pattern, carrier layout, components, sample rate) to the
//! [`PeakReport`] it produced, with LRU eviction at a fixed capacity.
//!
//! Only the report is cached. Authentication and record storage always
//! re-run: a cached report must be observationally identical to a fresh
//! analysis, and auth decisions depend on mutable enrollment state.

use crate::api::PeakReport;
use medsen_impedance::SignalTrace;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default number of reports retained by [`CloudService`]'s cache.
///
/// [`CloudService`]: crate::service::CloudService
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// 64-bit digest of a trace's analysis-relevant content: the cache key.
///
/// Folds in the sample rate, per-channel carrier/component, channel and
/// sample counts, and every sample's IEEE-754 bit pattern, one 64-bit
/// word at a time: `h = (h ^ word) · M`, then `h ^= h >> 32`. For a fixed
/// state each step is a bijection of the word, and for a fixed word a
/// bijection of the state, so changing any one word — any one sample —
/// always changes the digest. The shift carries the high bits of a word
/// (a sample's sign and exponent) into the low half of the state, where
/// the next multiply spreads them again. Without it, the multiply only
/// ever moves bits upward, and flipping the sign bits of two adjacent
/// samples cancels out, as it does under a plain word-wise FNV-1a step.
///
/// The digest keys the in-memory cache only; nothing persists or ships
/// it, so its values may change between builds. (Equal digests for
/// different traces are possible in principle — 64-bit hash — but the
/// inputs are physical measurements plus noise, not adversarial bytes,
/// and an attacker gains nothing: the cache only ever returns reports the
/// service itself computed.)
pub fn trace_digest(trace: &SignalTrace) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut hash = SEED;
    let mut fold = |word: u64| {
        hash = (hash ^ word).wrapping_mul(MULTIPLIER);
        hash ^= hash >> 32;
    };
    fold(trace.sample_rate.value().to_bits());
    fold(trace.channels().len() as u64);
    for channel in trace.channels() {
        fold(channel.carrier.value().to_bits());
        fold(channel.component as u64);
        fold(channel.samples.len() as u64);
        for sample in &channel.samples {
            fold(sample.to_bits());
        }
    }
    hash
}

/// Hit/miss counters copied out of a [`ResponseCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a fresh analysis.
    pub misses: u64,
    /// Reports currently retained.
    pub entries: usize,
}

/// Digest → report map with LRU eviction.
struct CacheMap {
    reports: HashMap<u64, PeakReport>,
    /// Digests in recency order, most recent at the back. May hold stale
    /// duplicates for a recently re-touched digest; eviction skips any
    /// digest that re-appears later in the queue.
    recency: VecDeque<u64>,
}

/// A bounded content-addressed LRU of analysis reports.
///
/// Lookups and inserts take one short mutex — the map is touched once per
/// *analysis* request, whose miss path runs a full DSP pipeline, so the
/// lock is never the bottleneck. Hit/miss counters are plain relaxed
/// atomics readable without the lock.
pub struct ResponseCache {
    capacity: usize,
    map: Mutex<CacheMap>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ResponseCache")
            .field("capacity", &self.capacity)
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl ResponseCache {
    /// A cache retaining up to `capacity` reports (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            map: Mutex::new(CacheMap {
                reports: HashMap::with_capacity(capacity),
                recency: VecDeque::with_capacity(capacity),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Maximum retained reports.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The cached report for `digest`, counting a hit or a miss.
    pub fn lookup(&self, digest: u64) -> Option<PeakReport> {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        match map.reports.get(&digest).cloned() {
            Some(report) => {
                map.recency.push_back(digest);
                drop(map);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            None => {
                drop(map);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `digest`'s report, evicting the least
    /// recently used entry if the cache is full.
    pub fn insert(&self, digest: u64, report: PeakReport) {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        map.reports.insert(digest, report);
        map.recency.push_back(digest);
        while map.reports.len() > self.capacity {
            let Some(oldest) = map.recency.pop_front() else {
                break; // unreachable: reports outgrowing recency is a bug
            };
            // A digest re-touched since this queue entry is still live;
            // only evict when this is its most recent appearance.
            if !map.recency.contains(&oldest) {
                map.reports.remove(&oldest);
            }
        }
        // Bound the recency queue's stale duplicates: compact once it is
        // far larger than the live set.
        if map.recency.len() > self.capacity.saturating_mul(4) {
            let mut seen = std::collections::HashSet::new();
            let mut compact: Vec<u64> = map
                .recency
                .iter()
                .rev()
                .filter(|d| map.reports.contains_key(*d) && seen.insert(**d))
                .copied()
                .collect();
            compact.reverse();
            map.recency = compact.into();
        }
    }

    /// Point-in-time hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self.map.lock().map(|m| m.reports.len()).unwrap_or_default();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_impedance::{Channel, SignalTrace};
    use medsen_units::Hertz;

    fn trace(samples: &[f64]) -> SignalTrace {
        let mut channel = Channel::new(Hertz::new(5e5));
        channel.samples = samples.to_vec();
        SignalTrace::new(Hertz::new(450.0), vec![channel])
    }

    fn report(peaks: usize) -> PeakReport {
        PeakReport {
            peaks: vec![],
            carriers_hz: vec![5e5; peaks.max(1)],
            sample_rate_hz: 450.0,
            duration_s: peaks as f64,
            noise_sigma: 3.0e-4,
        }
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let a = trace(&[1.0, 0.99, 1.0]);
        assert_eq!(trace_digest(&a), trace_digest(&a.clone()));
        // Any content change moves the digest.
        assert_ne!(trace_digest(&a), trace_digest(&trace(&[1.0, 0.99, 1.01])));
        assert_ne!(trace_digest(&a), trace_digest(&trace(&[1.0, 0.99])));
        let mut different_rate = a.clone();
        different_rate.sample_rate = Hertz::new(900.0);
        assert_ne!(trace_digest(&a), trace_digest(&different_rate));
        // -0.0 and 0.0 are different bit patterns: content, not value.
        assert_ne!(trace_digest(&trace(&[0.0])), trace_digest(&trace(&[-0.0])));
    }

    #[test]
    fn adjacent_sign_flips_do_not_cancel() {
        // Under a word-wise FNV-1a step, (h ^ w) · P, flipping bit 63 of a
        // word moves the state by exactly 2^63, so flipping the sign of
        // two adjacent samples restores it and these two traces collide.
        assert_ne!(
            trace_digest(&trace(&[1.0, 0.99, 1.01])),
            trace_digest(&trace(&[1.0, -0.99, -1.01]))
        );
    }

    #[test]
    fn every_single_bit_flip_of_every_sample_moves_the_digest() {
        let samples = [1.0, 0.99, 1.01, -0.0, 3.5e-4, f64::MAX];
        let base = trace_digest(&trace(&samples));
        for i in 0..samples.len() {
            for bit in 0..64 {
                let mut flipped = samples;
                flipped[i] = f64::from_bits(flipped[i].to_bits() ^ (1 << bit));
                assert_ne!(
                    trace_digest(&trace(&flipped)),
                    base,
                    "flip of bit {bit} in sample {i} went unseen"
                );
            }
        }
    }

    #[test]
    fn lookup_miss_then_hit_counts_both() {
        let cache = ResponseCache::new(4);
        let d = trace_digest(&trace(&[1.0]));
        assert!(cache.lookup(d).is_none());
        cache.insert(d, report(2));
        assert_eq!(cache.lookup(d).expect("cached").duration_s, 2.0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ResponseCache::new(2);
        cache.insert(1, report(1));
        cache.insert(2, report(2));
        // Touch 1 so 2 becomes the LRU, then overflow.
        assert!(cache.lookup(1).is_some());
        cache.insert(3, report(3));
        assert_eq!(cache.stats().entries, 2);
        assert!(cache.lookup(1).is_some(), "recently used survives");
        assert!(cache.lookup(2).is_none(), "LRU entry was evicted");
        assert!(cache.lookup(3).is_some());
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let cache = ResponseCache::new(2);
        cache.insert(1, report(1));
        cache.insert(1, report(9));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.lookup(1).expect("live").duration_s, 9.0);
        // The stale queue entry for the first insert must not evict the
        // refreshed one.
        cache.insert(2, report(2));
        cache.insert(3, report(3));
        assert_eq!(cache.stats().entries, 2);
        assert!(cache.lookup(3).is_some());
    }

    #[test]
    fn recency_queue_compaction_keeps_the_live_set() {
        let cache = ResponseCache::new(2);
        cache.insert(1, report(1));
        cache.insert(2, report(2));
        // Hammer lookups to grow the recency queue past 4× capacity.
        for _ in 0..50 {
            assert!(cache.lookup(1).is_some());
            assert!(cache.lookup(2).is_some());
        }
        cache.insert(3, report(3)); // triggers compaction
        assert_eq!(cache.stats().entries, 2);
        let live: Vec<bool> = (1..=3).map(|d| cache.lookup(d).is_some()).collect();
        assert_eq!(live.iter().filter(|&&l| l).count(), 2);
        assert!(live[2], "the fresh insert is always live");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let cache = ResponseCache::new(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert(1, report(1));
        cache.insert(2, report(2));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn concurrent_mixed_traffic_stays_bounded() {
        let cache = std::sync::Arc::new(ResponseCache::new(8));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let d = t * 16 + (i % 16);
                        if cache.lookup(d).is_none() {
                            cache.insert(d, report(d as usize));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.entries <= 8);
        assert_eq!(stats.hits + stats.misses, 800);
    }
}
