//! Identifier-hash sharding for the cloud write path.
//!
//! The monolithic service put every enrollment behind one
//! `RwLock<AuthService>` and every record behind one store lock, so an
//! enroll-heavy fleet serialized on a single writer no matter how many
//! gateway workers it had. This module splits that state into `N`
//! independent shards routed by a *stable* hash of the user identifier:
//! writers for different identifiers take different locks and proceed in
//! parallel, while the request/response API above stays unchanged.
//!
//! Routing stability is a correctness property, not a tuning knob: the
//! same identifier must land on the same shard for every call and for
//! every independently constructed service with the same shard count,
//! otherwise an enrollment could become unreachable to the
//! authentication scan that follows it. The hash is therefore a fixed
//! FNV-1a — never `std`'s randomly seeded hasher.

use crate::auth::{decision_from_candidates, AuthDecision, AuthService, BeadSignature};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// Hard cap on shard counts: the shard index and the shard count must
/// both fit the 8-bit fields [`RecordId`](crate::storage::RecordId)
/// reserves for them.
pub const MAX_SHARDS: usize = 256;

/// Stable 64-bit FNV-1a hash of an identifier.
///
/// This value is part of the persistence contract (record ids encode the
/// shard it selects), so the constants below must never change.
pub fn identity_hash(identifier: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in identifier.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The shard an identifier routes to in a `shard_count`-way split.
///
/// # Panics
///
/// Panics if `shard_count` is zero or exceeds [`MAX_SHARDS`].
pub fn shard_index(identifier: &str, shard_count: usize) -> usize {
    assert!(
        (1..=MAX_SHARDS).contains(&shard_count),
        "shard count {shard_count} outside 1..={MAX_SHARDS}"
    );
    (identity_hash(identifier) % shard_count as u64) as usize
}

/// Point-in-time per-shard occupancy and lock-contention counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Identifiers enrolled on this shard.
    pub enrolled: usize,
    /// Records stored on this shard.
    pub records: usize,
    /// Write-lock acquisitions on this shard's enrollment database.
    pub write_acquisitions: u64,
    /// Write-lock acquisitions that found the lock already held and had
    /// to wait. `contended_writes / write_acquisitions` is the direct
    /// measure of how much the shard split is (or is not) buying.
    pub contended_writes: u64,
}

#[derive(Debug)]
struct AuthShard {
    auth: RwLock<AuthService>,
    write_acquisitions: AtomicU64,
    contended_writes: AtomicU64,
}

impl AuthShard {
    fn new() -> Self {
        Self {
            auth: RwLock::new(AuthService::new()),
            write_acquisitions: AtomicU64::new(0),
            contended_writes: AtomicU64::new(0),
        }
    }

    /// Read-locks the shard. A panic under its write lock cannot leave
    /// the database half-written (the journal, the one hook that fails
    /// stop, runs before the single-insert mutation), so a poisoned lock
    /// is recovered rather than wedging every later request.
    fn read(&self) -> RwLockReadGuard<'_, AuthService> {
        self.auth.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Write-locks the shard, recovering from poisoning as
    /// [`AuthShard::read`] does.
    fn write(&self) -> RwLockWriteGuard<'_, AuthService> {
        self.auth.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// Write-ahead hook for enrollment mutations, invoked *inside* the
/// owning shard's write lock *before* the in-memory database changes —
/// the same contract as [`crate::storage::RecordJournal`].
pub trait EnrollJournal: Send + Sync + std::fmt::Debug {
    /// `user_id` is about to be enrolled (or re-enrolled) on `shard`.
    fn enrolled(&self, shard: usize, user_id: &str, signature: &BeadSignature);
}

/// The enrollment database split into independently locked shards.
///
/// Reads (authentication scans, integrity checks) take per-shard read
/// locks; writes (enrollment) touch exactly one shard. Authentication
/// still scans every shard — the measured signature does not reveal the
/// user, so no route exists until a match is found — but scans share the
/// locks and never block each other.
#[derive(Debug)]
pub struct ShardedAuth {
    shards: Vec<AuthShard>,
    journal: Option<Arc<dyn EnrollJournal>>,
}

impl ShardedAuth {
    /// `shard_count` independently locked shards, each with the default
    /// tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero or exceeds [`MAX_SHARDS`].
    pub fn new(shard_count: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shard_count),
            "shard count {shard_count} outside 1..={MAX_SHARDS}"
        );
        Self {
            shards: (0..shard_count).map(|_| AuthShard::new()).collect(),
            journal: None,
        }
    }

    /// Attaches a write-ahead journal. Must be called before the database
    /// is shared; enrollments from then on are journaled per the
    /// [`EnrollJournal`] contract.
    pub fn set_journal(&mut self, journal: Arc<dyn EnrollJournal>) {
        self.journal = Some(journal);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Write-locks one shard, counting acquisitions and contention.
    fn write(&self, index: usize) -> RwLockWriteGuard<'_, AuthService> {
        let shard = &self.shards[index];
        shard.write_acquisitions.fetch_add(1, Ordering::Relaxed);
        match shard.auth.try_write() {
            Ok(guard) => guard,
            // A poisoned lock was free: acquired, not contended.
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                shard.contended_writes.fetch_add(1, Ordering::Relaxed);
                shard.write()
            }
        }
    }

    /// Enrolls (or replaces) a user's expected signature on its shard.
    /// If a journal is attached, the entry is journaled under the shard's
    /// write lock before the database changes (write-ahead order).
    pub fn enroll(&self, user_id: impl Into<String>, signature: BeadSignature) {
        let user_id = user_id.into();
        let index = shard_index(&user_id, self.shards.len());
        // The shard-lock span covers acquire through guard release so
        // lock-wait *and* hold time (journal append included) land in it.
        let lock_started = std::time::Instant::now();
        let mut guard = self.write(index);
        if let Some(journal) = &self.journal {
            journal.enrolled(index, &user_id, &signature);
        }
        guard.enroll(user_id, signature);
        drop(guard);
        medsen_telemetry::record_since(
            medsen_telemetry::Stage::ShardLock,
            index as u32,
            lock_started,
        );
    }

    /// Re-enrolls a user recovered from durable storage. Bypasses the
    /// journal (the entry is already on disk) and the contention
    /// counters (recovery runs before the service takes traffic).
    pub(crate) fn restore_enroll(&self, shard: usize, user_id: String, signature: BeadSignature) {
        self.shards[shard].write().enroll(user_id, signature);
    }

    /// Write-locks one shard's enrollment database for the compactor,
    /// bypassing the contention counters (compaction pauses are reported
    /// through the WAL snapshot stats instead).
    pub(crate) fn write_shard(&self, index: usize) -> RwLockWriteGuard<'_, AuthService> {
        self.shards[index].write()
    }

    /// Authenticates a measured signature against every shard's
    /// enrollment database, merging candidates so cross-shard ambiguity
    /// is still detected. Candidates are sorted, matching the ordering a
    /// single global enrollment map would produce.
    pub fn authenticate(&self, measured: &BeadSignature) -> AuthDecision {
        let mut candidates: Vec<String> = Vec::new();
        for shard in &self.shards {
            candidates.extend(shard.read().matching_users(measured));
        }
        candidates.sort();
        decision_from_candidates(candidates)
    }

    /// The Sec. V integrity check, routed to the identifier's shard.
    pub fn verify_integrity(&self, user_id: &str, recovered: &BeadSignature) -> bool {
        let index = shard_index(user_id, self.shards.len());
        self.shards[index]
            .read()
            .verify_integrity(user_id, recovered)
    }

    /// Total identifiers enrolled across all shards.
    pub fn enrolled_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().enrolled_count()).sum()
    }

    /// Per-shard occupancy and contention counters (`records` left zero;
    /// the caller owning the record store fills it in).
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                enrolled: s.read().enrolled_count(),
                records: 0,
                write_acquisitions: s.write_acquisitions.load(Ordering::Relaxed),
                contended_writes: s.contended_writes.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_microfluidics::ParticleKind;

    fn sig(n: u64) -> BeadSignature {
        BeadSignature::from_counts(&[(ParticleKind::Bead358, n)])
    }

    #[test]
    fn hash_is_stable_across_calls_and_constructions() {
        // Golden values: these are part of the record-id contract. If
        // this test ever needs updating, stored record ids have been
        // invalidated.
        assert_eq!(identity_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(identity_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(identity_hash("pipette-7"), identity_hash("pipette-7"));
        for n in [1usize, 2, 8, 256] {
            let first = shard_index("pipette-7", n);
            assert_eq!(first, shard_index("pipette-7", n));
            assert!(first < n);
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        for id in ["", "a", "pipette-7", "very-long-identifier-string"] {
            assert_eq!(shard_index(id, 1), 0);
        }
    }

    #[test]
    fn shards_spread_identifiers() {
        let hit: std::collections::BTreeSet<usize> = (0..64)
            .map(|i| shard_index(&format!("user-{i}"), 8))
            .collect();
        assert!(
            hit.len() >= 4,
            "64 identifiers over 8 shards must not collapse onto {hit:?}"
        );
    }

    #[test]
    #[should_panic(expected = "outside 1..=256")]
    fn zero_shards_panics() {
        shard_index("x", 0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=256")]
    fn oversized_shard_count_panics() {
        ShardedAuth::new(MAX_SHARDS + 1);
    }

    #[test]
    fn enroll_authenticate_verify_round_trip() {
        let auth = ShardedAuth::new(8);
        auth.enroll("alice", sig(100));
        auth.enroll("bob", sig(300));
        assert_eq!(auth.enrolled_count(), 2);
        assert_eq!(
            auth.authenticate(&sig(102)),
            AuthDecision::Accepted {
                user_id: "alice".into()
            }
        );
        assert_eq!(auth.authenticate(&sig(5000)), AuthDecision::Rejected);
        assert!(auth.verify_integrity("bob", &sig(310)));
        assert!(!auth.verify_integrity("bob", &sig(100)));
        assert!(!auth.verify_integrity("nobody", &sig(100)));
    }

    #[test]
    fn cross_shard_ambiguity_is_detected_and_sorted() {
        // Find two identifiers on *different* shards, enroll them with
        // overlapping signatures, and check the merged verdict.
        let auth = ShardedAuth::new(8);
        let a = "user-a";
        let b = (0..64)
            .map(|i| format!("user-{i}"))
            .find(|c| shard_index(c, 8) != shard_index(a, 8))
            .expect("some identifier lands elsewhere");
        auth.enroll(a, sig(100));
        auth.enroll(b.clone(), sig(101));
        match auth.authenticate(&sig(100)) {
            AuthDecision::Ambiguous { candidates } => {
                let mut expected = vec![a.to_string(), b];
                expected.sort();
                assert_eq!(candidates, expected);
            }
            other => panic!("expected cross-shard ambiguity, got {other:?}"),
        }
    }

    #[test]
    fn reenrollment_replaces_on_the_same_shard() {
        let auth = ShardedAuth::new(4);
        auth.enroll("carol", sig(50));
        auth.enroll("carol", sig(200));
        assert_eq!(auth.enrolled_count(), 1);
        assert!(auth.verify_integrity("carol", &sig(200)));
        assert!(!auth.verify_integrity("carol", &sig(50)));
    }

    #[test]
    fn stats_count_writes_per_shard() {
        let auth = ShardedAuth::new(4);
        auth.enroll("alice", sig(10));
        auth.enroll("alice", sig(20));
        let stats = auth.stats();
        assert_eq!(stats.len(), 4);
        let index = shard_index("alice", 4);
        assert_eq!(stats[index].write_acquisitions, 2);
        assert_eq!(stats[index].enrolled, 1);
        let elsewhere: u64 = stats
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != index)
            .map(|(_, s)| s.write_acquisitions)
            .sum();
        assert_eq!(elsewhere, 0, "writes never touch foreign shards");
    }

    #[test]
    fn concurrent_enrolls_on_distinct_shards_all_land() {
        let auth = std::sync::Arc::new(ShardedAuth::new(8));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let auth = auth.clone();
                scope.spawn(move || {
                    for i in 0..50u64 {
                        auth.enroll(format!("user-{t}-{i}"), sig(10 + i));
                    }
                });
            }
        });
        assert_eq!(auth.enrolled_count(), 400);
    }

    /// A thread that panics while holding a shard's write lock poisons
    /// it; the shard must keep serving enrollments and authentications,
    /// and the poisoned lock must count as acquired, not contended.
    #[test]
    fn a_panic_under_a_shard_write_lock_does_not_wedge_the_shard() {
        let auth = ShardedAuth::new(4);
        let index = shard_index("alice", 4);
        let crashed = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = auth.write_shard(index);
                    panic!("crash while holding the shard write lock");
                })
                .join()
        });
        assert!(crashed.is_err());
        auth.enroll("alice", sig(100));
        assert_eq!(
            auth.authenticate(&sig(101)),
            AuthDecision::Accepted {
                user_id: "alice".into()
            }
        );
        assert!(auth.verify_integrity("alice", &sig(100)));
        assert_eq!(auth.enrolled_count(), 1);
        let stats = auth.stats()[index];
        assert_eq!(stats.write_acquisitions, 1);
        assert_eq!(stats.contended_writes, 0);
    }
}
