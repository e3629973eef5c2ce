//! Cloud record storage.
//!
//! "The diagnostic information can be returned to a patient or stored in
//! cloud for a later access by the patient's practitioner" (Sec. II).
//! Records are keyed by the cyto-coded identifier's owner and store only
//! ciphertext-side artifacts: the peak report and the signature that binds it
//! to an identity.
//!
//! The store is split into [`RecordStore::shard_count`] independently
//! locked shards routed by the stable identifier hash
//! ([`crate::shard::shard_index`]), so writers for different users never
//! contend. A [`RecordId`] encodes the shard it lives on *and* the shard
//! count of the store that minted it, so an id presented to a store with
//! a different layout fails closed (`None` / `false`) instead of
//! panicking or aliasing another user's record.

use crate::api::PeakReport;
use crate::auth::BeadSignature;
use crate::shard::{shard_index, MAX_SHARDS};
use medsen_wire::json::required;
use medsen_wire::{Json, JsonReader, JsonWriter, Reader, Wire, WireError, Writer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Bits of a [`RecordId`] holding the per-shard sequence number.
const SEQUENCE_BITS: u32 = 48;
/// Mask selecting the sequence field.
const SEQUENCE_MASK: u64 = (1 << SEQUENCE_BITS) - 1;
/// Bit offset of the `shard_count - 1` field.
const COUNT_SHIFT: u32 = SEQUENCE_BITS;
/// Bit offset of the shard-index field.
const SHARD_SHIFT: u32 = SEQUENCE_BITS + 8;

/// An opaque record identifier.
///
/// Layout (most significant first): 8 bits shard index, 8 bits
/// `shard_count - 1` of the minting store, 48 bits per-shard sequence
/// number. A single-shard store therefore mints plain sequential integers
/// `0, 1, 2, …`, bit-identical to the pre-sharding format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u64);

impl RecordId {
    /// Largest per-shard sequence number an id can carry.
    pub const MAX_SEQUENCE: u64 = SEQUENCE_MASK;

    /// Builds an id from its fields.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count`, `shard_count` is outside
    /// `1..=`[`MAX_SHARDS`], or `sequence` exceeds [`Self::MAX_SEQUENCE`].
    pub fn compose(shard: usize, shard_count: usize, sequence: u64) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shard_count),
            "shard count {shard_count} outside 1..={MAX_SHARDS}"
        );
        assert!(shard < shard_count, "shard {shard} >= count {shard_count}");
        assert!(sequence <= SEQUENCE_MASK, "sequence {sequence} overflows");
        Self(
            ((shard as u64) << SHARD_SHIFT)
                | (((shard_count - 1) as u64) << COUNT_SHIFT)
                | sequence,
        )
    }

    /// The shard index this id was minted on.
    pub fn shard(self) -> usize {
        (self.0 >> SHARD_SHIFT) as usize
    }

    /// The shard count of the store that minted this id.
    pub fn shard_count(self) -> usize {
        ((self.0 >> COUNT_SHIFT) & 0xFF) as usize + 1
    }

    /// The per-shard sequence number.
    pub fn sequence(self) -> u64 {
        self.0 & SEQUENCE_MASK
    }
}

/// One stored (still encrypted) diagnostic record.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    /// The user the record was filed under.
    pub user_id: String,
    /// The analysis result (encrypted-domain peak statistics).
    pub report: PeakReport,
    /// The bead signature recovered at submission time (integrity anchor).
    pub signature: BeadSignature,
}

impl Wire for RecordId {
    fn wire_encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RecordId(r.get_u64()?))
    }
}

impl Wire for StoredRecord {
    fn wire_encode(&self, w: &mut Writer) {
        self.user_id.wire_encode(w);
        self.report.wire_encode(w);
        self.signature.wire_encode(w);
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(StoredRecord {
            user_id: String::wire_decode(r)?,
            report: PeakReport::wire_decode(r)?,
            signature: BeadSignature::wire_decode(r)?,
        })
    }
}

/// The bare number, so ids above 2^53 survive.
impl Json for RecordId {
    fn json_encode(&self, w: &mut JsonWriter) {
        w.u64(self.0);
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        r.u64().map(RecordId)
    }
}

impl Json for StoredRecord {
    fn json_encode(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("user_id", &self.user_id);
            w.field("report", &self.report);
            w.field("signature", &self.signature);
        });
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        let (mut user_id, mut report, mut signature) = (None, None, None);
        r.object(|key, r| {
            match key {
                "user_id" => user_id = Some(String::json_decode(r)?),
                "report" => report = Some(PeakReport::json_decode(r)?),
                "signature" => signature = Some(BeadSignature::json_decode(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(StoredRecord {
            user_id: required(user_id, "user_id")?,
            report: required(report, "report")?,
            signature: required(signature, "signature")?,
        })
    }
}

/// Write-ahead hook for record mutations.
///
/// [`RecordStore`] invokes the journal *inside* the owning shard's write
/// lock, *before* the in-memory map changes. That ordering is the
/// durability contract: the log is always a superset of what any reader
/// has observed, and a compactor holding the shard's write lock can
/// never race a journaled-but-unapplied mutation. Implementations are
/// expected to fail stop (panic) if the journal cannot be written —
/// acknowledging a medical record that would evaporate on restart is
/// strictly worse than crashing.
pub trait RecordJournal: Send + Sync + std::fmt::Debug {
    /// A new record is about to be inserted under `id`.
    fn record_stored(&self, id: RecordId, record: &StoredRecord);
    /// An existing record at `id` is about to be overwritten in place.
    fn record_tampered(&self, id: RecordId, record: &StoredRecord);
}

/// One shard: its own lock, map, and sequence counter.
#[derive(Debug, Default)]
struct StoreShard {
    records: RwLock<HashMap<RecordId, StoredRecord>>,
    next_sequence: AtomicU64,
}

impl StoreShard {
    /// Read-locks the shard's map. A panic under its write lock cannot
    /// leave the map half-written (the journal, the one hook that fails
    /// stop, runs before the single-insert mutation), so a poisoned lock
    /// is recovered rather than wedging every later request.
    fn read(&self) -> RwLockReadGuard<'_, HashMap<RecordId, StoredRecord>> {
        self.records.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Write-locks the shard's map, recovering from poisoning as
    /// [`StoreShard::read`] does.
    fn write(&self) -> RwLockWriteGuard<'_, HashMap<RecordId, StoredRecord>> {
        self.records.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// A concurrent, identifier-hash-sharded record store.
#[derive(Debug)]
pub struct RecordStore {
    shards: Vec<StoreShard>,
    journal: Option<Arc<dyn RecordJournal>>,
}

impl Default for RecordStore {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordStore {
    /// A single-shard store — id-compatible with the pre-sharding format.
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// A store with `shard_count` independently locked shards.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero or exceeds [`MAX_SHARDS`].
    pub fn with_shards(shard_count: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shard_count),
            "shard count {shard_count} outside 1..={MAX_SHARDS}"
        );
        Self {
            shards: (0..shard_count).map(|_| StoreShard::default()).collect(),
            journal: None,
        }
    }

    /// Attaches a write-ahead journal. Must be called before the store is
    /// shared; mutations from then on are journaled per the
    /// [`RecordJournal`] contract.
    pub fn set_journal(&mut self, journal: Arc<dyn RecordJournal>) {
        self.journal = Some(journal);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether `id` could have been minted by this store's layout. Ids
    /// from a store with a different shard count (or hand-rolled ids with
    /// an out-of-range shard) fail this check and every lookup on them
    /// fails closed.
    fn owns(&self, id: RecordId) -> bool {
        id.shard_count() == self.shards.len() && id.shard() < self.shards.len()
    }

    /// Stores a record on its user's shard, returning its id.
    ///
    /// The sequence number is minted and the journal written under the
    /// shard's write lock, so the on-disk log observes ids in exactly the
    /// order the map does.
    pub fn store(&self, record: StoredRecord) -> RecordId {
        let shard = shard_index(&record.user_id, self.shards.len());
        let slot = &self.shards[shard];
        let mut records = slot.write();
        let sequence = slot.next_sequence.fetch_add(1, Ordering::Relaxed);
        let id = RecordId::compose(shard, self.shards.len(), sequence);
        if let Some(journal) = &self.journal {
            journal.record_stored(id, &record);
        }
        records.insert(id, record);
        id
    }

    /// Re-inserts a record recovered from durable storage. Bypasses the
    /// journal (the entry is already on disk) and bumps the shard's
    /// sequence allocator past the recovered id so new ids never collide.
    ///
    /// # Panics
    ///
    /// Panics if `id` was minted under a different shard layout.
    pub(crate) fn restore(&self, id: RecordId, record: StoredRecord) {
        assert!(
            self.owns(id),
            "restore of {id:?} into a {}-shard store",
            self.shards.len()
        );
        let slot = &self.shards[id.shard()];
        let mut records = slot.write();
        slot.next_sequence
            .fetch_max(id.sequence() + 1, Ordering::Relaxed);
        records.insert(id, record);
    }

    /// Write-locks one shard's record map for the compactor, which must
    /// quiesce the shard while it snapshots and resets the log.
    pub(crate) fn write_shard(
        &self,
        shard: usize,
    ) -> RwLockWriteGuard<'_, HashMap<RecordId, StoredRecord>> {
        self.shards[shard].write()
    }

    /// Fetches a record by id. Ids minted under a different shard layout
    /// return `None`.
    pub fn fetch(&self, id: RecordId) -> Option<StoredRecord> {
        if !self.owns(id) {
            return None;
        }
        self.shards[id.shard()].read().get(&id).cloned()
    }

    /// All record ids filed under a user, in id order.
    ///
    /// Scans every shard rather than only the user's home shard: a
    /// tampering insider ([`RecordStore::tamper`]) can overwrite a record
    /// in place with a foreign `user_id`, and the listing must still see
    /// it where it physically lives.
    pub fn records_of(&self, user_id: &str) -> Vec<RecordId> {
        let mut ids: Vec<RecordId> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .iter()
                    .filter(|(_, r)| r.user_id == user_id)
                    .map(|(&id, _)| id)
                    .collect::<Vec<_>>()
            })
            .collect();
        ids.sort();
        ids
    }

    /// Number of stored records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Records per shard, in shard order (for metrics).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().len()).collect()
    }

    /// Overwrites a record in place (models a tampering cloud insider for
    /// the integrity-check experiments). Returns `false` if the id is
    /// unknown — including ids minted under a different shard layout.
    pub fn tamper(&self, id: RecordId, record: StoredRecord) -> bool {
        if !self.owns(id) {
            return false;
        }
        let mut records = self.shards[id.shard()].write();
        if let std::collections::hash_map::Entry::Occupied(mut e) = records.entry(id) {
            if let Some(journal) = &self.journal {
                journal.record_tampered(id, &record);
            }
            e.insert(record);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_microfluidics::ParticleKind;

    fn record(user: &str) -> StoredRecord {
        StoredRecord {
            user_id: user.into(),
            report: PeakReport {
                peaks: vec![],
                carriers_hz: vec![5e5],
                sample_rate_hz: 450.0,
                duration_s: 1.0,
                noise_sigma: 3.0e-4,
            },
            signature: BeadSignature::from_counts(&[(ParticleKind::Bead358, 100)]),
        }
    }

    #[test]
    fn store_and_fetch_round_trip() {
        let store = RecordStore::new();
        let id = store.store(record("alice"));
        let fetched = store.fetch(id).expect("stored record");
        assert_eq!(fetched.user_id, "alice");
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn unknown_id_fetches_none() {
        let store = RecordStore::new();
        assert!(store.fetch(RecordId(42)).is_none());
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let store = RecordStore::new();
        let a = store.store(record("alice"));
        let b = store.store(record("bob"));
        assert_ne!(a, b);
        assert!(b.0 > a.0);
    }

    #[test]
    fn single_shard_ids_match_the_preshard_format() {
        let store = RecordStore::new();
        assert_eq!(store.store(record("alice")), RecordId(0));
        assert_eq!(store.store(record("bob")), RecordId(1));
        assert_eq!(store.store(record("alice")), RecordId(2));
    }

    #[test]
    fn per_user_listing() {
        let store = RecordStore::new();
        let a1 = store.store(record("alice"));
        let _b = store.store(record("bob"));
        let a2 = store.store(record("alice"));
        assert_eq!(store.records_of("alice"), vec![a1, a2]);
        assert!(store.records_of("carol").is_empty());
    }

    #[test]
    fn tampering_replaces_known_records_only() {
        let store = RecordStore::new();
        let id = store.store(record("alice"));
        assert!(store.tamper(id, record("mallory")));
        assert_eq!(store.fetch(id).unwrap().user_id, "mallory");
        assert!(!store.tamper(RecordId(999), record("mallory")));
    }

    #[test]
    fn store_is_usable_across_threads() {
        let store = std::sync::Arc::new(RecordStore::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        store.store(record(&format!("user{i}")));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(store.len(), 400);
    }

    #[test]
    fn record_id_fields_round_trip() {
        for (shard, count, seq) in [
            (0usize, 1usize, 0u64),
            (0, 1, RecordId::MAX_SEQUENCE),
            (7, 8, 12345),
            (255, 256, 1),
        ] {
            let id = RecordId::compose(shard, count, seq);
            assert_eq!(id.shard(), shard);
            assert_eq!(id.shard_count(), count);
            assert_eq!(id.sequence(), seq);
        }
    }

    #[test]
    #[should_panic(expected = "shard 3 >= count 2")]
    fn compose_rejects_out_of_range_shard() {
        RecordId::compose(3, 2, 0);
    }

    #[test]
    fn sharded_store_routes_by_user_and_round_trips() {
        let store = RecordStore::with_shards(8);
        let a1 = store.store(record("alice"));
        let b1 = store.store(record("bob"));
        let a2 = store.store(record("alice"));
        // Same user → same shard, consecutive sequence numbers.
        assert_eq!(a1.shard(), a2.shard());
        assert_eq!(a1.shard(), crate::shard::shard_index("alice", 8));
        assert_eq!(b1.shard(), crate::shard::shard_index("bob", 8));
        assert_eq!(a2.sequence(), a1.sequence() + 1);
        // Fetch, listing, and tamper all resolve through the encoding.
        assert_eq!(store.fetch(a1).unwrap().user_id, "alice");
        assert_eq!(store.fetch(b1).unwrap().user_id, "bob");
        assert_eq!(store.records_of("alice"), vec![a1, a2]);
        assert!(store.tamper(b1, record("mallory")));
        assert_eq!(store.fetch(b1).unwrap().user_id, "mallory");
        assert_eq!(store.records_of("mallory"), vec![b1]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.shard_lens().iter().sum::<usize>(), 3);
    }

    #[test]
    fn foreign_layout_ids_fail_closed() {
        // Mint ids under an 8-way layout, present them to a 2-way store
        // that has a record at every (shard, sequence) a foreign id could
        // alias — none may resolve, none may panic.
        let eight = RecordStore::with_shards(8);
        let two = RecordStore::with_shards(2);
        let foreign: Vec<RecordId> = (0..16)
            .map(|i| eight.store(record(&format!("user-{i}"))))
            .collect();
        for i in 0..16 {
            two.store(record(&format!("user-{i}")));
        }
        assert!(!two.is_empty());
        for id in foreign {
            assert!(
                two.fetch(id).is_none(),
                "{id:?} minted by an 8-shard store must not resolve in a 2-shard store"
            );
            assert!(!two.tamper(id, record("mallory")));
        }
        // Same in the other direction, including a shard index that is
        // simply out of range for the small store.
        let native = two.store(record("alice"));
        assert!(eight.fetch(native).is_none());
        let out_of_range = RecordId::compose(5, 8, 0);
        assert!(two.fetch(out_of_range).is_none());
    }

    #[derive(Debug, Default)]
    struct CountingJournal {
        stored: AtomicU64,
        tampered: AtomicU64,
    }

    impl RecordJournal for CountingJournal {
        fn record_stored(&self, _id: RecordId, _record: &StoredRecord) {
            self.stored.fetch_add(1, Ordering::Relaxed);
        }
        fn record_tampered(&self, _id: RecordId, _record: &StoredRecord) {
            self.tampered.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn journal_sees_stores_and_tampers_but_not_restores() {
        let journal = Arc::new(CountingJournal::default());
        let mut store = RecordStore::with_shards(4);
        store.set_journal(journal.clone());
        let id = store.store(record("alice"));
        assert!(store.tamper(id, record("mallory")));
        // Tampering an unknown id journals nothing (nothing changed).
        assert!(!store.tamper(RecordId::compose(0, 4, 999), record("x")));
        store.restore(RecordId::compose(id.shard(), 4, 7), record("bob"));
        assert_eq!(journal.stored.load(Ordering::Relaxed), 1);
        assert_eq!(journal.tampered.load(Ordering::Relaxed), 1);
        // The allocator jumped past the restored sequence, so the next
        // store on that shard cannot collide with it.
        let next = store.store(record("alice"));
        assert_eq!(next.sequence(), 8);
        assert_eq!(journal.stored.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[should_panic(expected = "restore of")]
    fn restore_rejects_foreign_layout_ids() {
        let store = RecordStore::with_shards(2);
        store.restore(RecordId::compose(3, 8, 0), record("alice"));
    }

    #[test]
    fn sharded_store_is_usable_across_threads() {
        let store = std::sync::Arc::new(RecordStore::with_shards(8));
        std::thread::scope(|scope| {
            for i in 0..8 {
                let store = &store;
                scope.spawn(move || {
                    for _ in 0..50 {
                        store.store(record(&format!("user{i}")));
                    }
                });
            }
        });
        assert_eq!(store.len(), 400);
        for i in 0..8 {
            assert_eq!(store.records_of(&format!("user{i}")).len(), 50);
        }
    }

    /// A thread that panics while holding a shard's write lock poisons
    /// it; storing and fetching on that shard must still work.
    #[test]
    fn a_panic_under_a_shard_write_lock_does_not_wedge_the_store() {
        let store = RecordStore::with_shards(4);
        let shard = shard_index("alice", 4);
        let crashed = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = store.write_shard(shard);
                    panic!("crash while holding the shard write lock");
                })
                .join()
        });
        assert!(crashed.is_err());
        let id = store.store(record("alice"));
        assert_eq!(id.shard(), shard);
        assert_eq!(store.fetch(id), Some(record("alice")));
        assert_eq!(store.records_of("alice"), vec![id]);
        assert_eq!(store.len(), 1);
    }
}
