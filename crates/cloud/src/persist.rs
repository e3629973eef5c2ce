//! Durable persistence for the cloud tier: the typed entry encoding
//! over `medsen-store`'s opaque per-shard WAL, recovery replay, and
//! snapshot compaction.
//!
//! ## Division of labor
//!
//! `medsen-store` knows nothing about enrollments or records — it
//! journals `(kind: u8, payload: bytes)` frames and opaque snapshot
//! blobs, stamped with the shard layout. This module owns the *meaning*
//! of those bytes: [`WalEntry`] is the typed log entry, and a snapshot
//! is the shortest entry list that rebuilds its shard. Both are stored
//! as `[WIRE_VERSION][value]` in the `medsen-wire` binary encoding the
//! requests and replies use, so one versioned, total decoder reads the
//! wire and the disk. `open_storage` is the replay that rebuilds a
//! [`ShardedAuth`] + [`RecordStore`] pair from disk.
//!
//! A directory written before this encoding holds JSON entries and
//! snapshots. Each starts with `{`, which is no wire version, so open
//! refuses it with [`StorageError::Corrupt`] and leaves its files as
//! they are.
//!
//! ## Fail-stop writes
//!
//! The journal hooks ([`RecordJournal`] / [`EnrollJournal`] impls on
//! [`CloudStore`]) panic if an append cannot be written. That is
//! deliberate: they run *before* the in-memory mutation, under the
//! shard's write lock, so panicking leaves memory and disk consistent —
//! whereas returning an error the caller cannot surface would let the
//! service acknowledge a medical record that evaporates on restart.
//!
//! ## Replay idempotence
//!
//! Recovery applies the snapshot, then every log frame, via restore
//! paths that are idempotent by construction: records land under their
//! explicit [`RecordId`] (re-inserting is a no-op overwrite with the
//! same bytes), enrollments are last-wins, and sequence allocators are
//! `fetch_max`ed past every restored id. This is what makes the
//! compactor's crash window safe — a crash after the snapshot renames
//! but before the log resets replays both, and converges to the same
//! state.

use crate::auth::BeadSignature;
use crate::shard::{shard_index, EnrollJournal, ShardedAuth, MAX_SHARDS};
use crate::storage::{RecordId, RecordJournal, RecordStore, StoredRecord};
use medsen_store::{FlushPolicy, Wal, WalError, WalStats};
use medsen_wire::{decode_versioned, encode_versioned, Reader, Wire, WireError, Writer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Frame kind (and wire variant tag) for an enrollment entry.
const KIND_ENROLL: u8 = 1;
/// Frame kind (and wire variant tag) for a new stored record.
const KIND_STORE: u8 = 2;
/// Frame kind (and wire variant tag) for an in-place record overwrite.
const KIND_TAMPER: u8 = 3;

/// One typed write-ahead log entry. Public so the fault-injection tests
/// can craft adversarial logs through the raw `medsen-store` API.
///
/// On disk an entry is the frame payload `[WIRE_VERSION][WalEntry]`,
/// whose wire variant tag equals the frame's kind byte.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// An identifier was enrolled (or re-enrolled, last-wins).
    Enroll {
        /// The enrolled identifier.
        identifier: String,
        /// Its expected bead signature.
        signature: BeadSignature,
    },
    /// A record was stored under a freshly minted id.
    Store {
        /// The minted id.
        id: RecordId,
        /// The stored record.
        record: StoredRecord,
    },
    /// A record was overwritten in place (insider-tampering model).
    Tamper {
        /// The overwritten id.
        id: RecordId,
        /// The replacement record.
        record: StoredRecord,
    },
}

impl WalEntry {
    /// The frame kind byte this entry is written under.
    pub fn kind(&self) -> u8 {
        match self {
            WalEntry::Enroll { .. } => KIND_ENROLL,
            WalEntry::Store { .. } => KIND_STORE,
            WalEntry::Tamper { .. } => KIND_TAMPER,
        }
    }
}

impl Wire for WalEntry {
    fn wire_encode(&self, w: &mut Writer) {
        w.put_u8(self.kind());
        match self {
            WalEntry::Enroll {
                identifier,
                signature,
            } => {
                identifier.wire_encode(w);
                signature.wire_encode(w);
            }
            WalEntry::Store { id, record } | WalEntry::Tamper { id, record } => {
                id.wire_encode(w);
                record.wire_encode(w);
            }
        }
    }
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            KIND_ENROLL => Ok(WalEntry::Enroll {
                identifier: String::wire_decode(r)?,
                signature: BeadSignature::wire_decode(r)?,
            }),
            KIND_STORE => Ok(WalEntry::Store {
                id: RecordId::wire_decode(r)?,
                record: StoredRecord::wire_decode(r)?,
            }),
            KIND_TAMPER => Ok(WalEntry::Tamper {
                id: RecordId::wire_decode(r)?,
                record: StoredRecord::wire_decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "WAL entry",
                tag,
            }),
        }
    }
}

/// Decodes one log frame's payload and checks it against the frame's
/// kind byte. Both recovery and the standby's replicated-frame apply
/// read entries through here.
pub(crate) fn decode_entry(shard: u32, kind: u8, payload: &[u8]) -> Result<WalEntry, StorageError> {
    let entry: WalEntry = decode_versioned(payload).map_err(|e| StorageError::Corrupt {
        shard,
        detail: format!("log entry does not decode: {e}"),
    })?;
    if entry.kind() != kind {
        return Err(StorageError::Corrupt {
            shard,
            detail: format!(
                "frame kind {kind} disagrees with its payload ({})",
                entry.kind()
            ),
        });
    }
    Ok(entry)
}

/// Errors opening or replaying durable storage.
#[derive(Debug)]
pub enum StorageError {
    /// The underlying WAL failed (IO, corrupt header, layout stamp).
    Wal(WalError),
    /// A frame or snapshot passed its checksum but does not decode as a
    /// known entry — a format version skew, not a crash artifact.
    Corrupt {
        /// The shard whose state is undecodable.
        shard: u32,
        /// What failed to decode.
        detail: String,
    },
    /// A replayed entry carries an id or identifier that does not belong
    /// to the shard/layout it was logged under. The log is internally
    /// inconsistent; replaying it would scatter state across the wrong
    /// shards.
    Layout {
        /// The shard being replayed.
        shard: u32,
        /// The inconsistency found.
        detail: String,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Wal(err) => write!(f, "{err}"),
            StorageError::Corrupt { shard, detail } => {
                write!(f, "shard {shard} storage is undecodable: {detail}")
            }
            StorageError::Layout { shard, detail } => {
                write!(f, "shard {shard} log is layout-inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Wal(err) => Some(err),
            _ => None,
        }
    }
}

impl From<WalError> for StorageError {
    fn from(err: WalError) -> Self {
        StorageError::Wal(err)
    }
}

/// Durable-storage configuration for [`crate::CloudService`].
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Directory holding the per-shard log and snapshot files.
    pub dir: PathBuf,
    /// When appended frames are fsynced (group commit).
    pub flush: FlushPolicy,
    /// Appends per shard between compaction snapshots; `0` disables
    /// automatic compaction (the log grows until an explicit
    /// [`crate::CloudService::compact_storage`]).
    pub snapshot_every: u64,
}

impl StorageConfig {
    /// Defaults: safest flush policy, snapshot every 256 appends/shard.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            flush: FlushPolicy::default(),
            snapshot_every: 256,
        }
    }

    /// Replaces the flush policy.
    pub fn flush(mut self, flush: FlushPolicy) -> Self {
        self.flush = flush;
        self
    }

    /// Replaces the compaction threshold.
    pub fn snapshot_every(mut self, snapshot_every: u64) -> Self {
        self.snapshot_every = snapshot_every;
        self
    }
}

/// Hook the replication layer installs on the journal. Called *after*
/// the local WAL append / snapshot install, inside a per-shard ship
/// lock, so implementations observe every shard's frames in exact
/// append order with offsets taken from the same log generation.
/// Implementations must not call back into the owning service — they
/// run under its shard locks.
pub(crate) trait ReplicationHook: Send + Sync {
    /// A frame spanning `start_offset..end_offset` of `shard`'s current
    /// log generation was just appended locally.
    fn frame_appended(
        &self,
        shard: u32,
        kind: u8,
        payload: &[u8],
        start_offset: u64,
        end_offset: u64,
    );
    /// `shard`'s snapshot was just installed, resetting its log
    /// generation (the stream re-bases at offset zero).
    fn snapshot_installed(&self, shard: u32, blob: &[u8]);
    /// Whether a higher epoch has deposed this node. A fenced node must
    /// stop serving (checked at the service's request entry point).
    fn is_fenced(&self) -> bool;
}

/// Replication state attached to a [`CloudStore`]: the hook plus one
/// ship lock per shard. The enroll path (auth shard lock) and the store
/// path (record shard lock) can append to the *same WAL shard*
/// concurrently under different locks, so the ship lock is what
/// guarantees the hook sees frames in append order.
struct ReplicationState {
    hook: Arc<dyn ReplicationHook>,
    ship_locks: Vec<Mutex<()>>,
}

impl std::fmt::Debug for ReplicationState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationState")
            .field("shards", &self.ship_locks.len())
            .finish()
    }
}

/// The cloud tier's handle on its WAL set: implements both journal
/// traits (so it can be attached to [`ShardedAuth`] and [`RecordStore`])
/// and tracks per-shard append counts for the compaction trigger.
#[derive(Debug)]
pub struct CloudStore {
    wal: Wal,
    appends_since_snapshot: Vec<AtomicU64>,
    replication: OnceLock<ReplicationState>,
}

impl CloudStore {
    /// Appends a typed entry to `shard`'s log, notifying the replication
    /// hook (if attached) under the shard's ship lock.
    ///
    /// # Panics
    ///
    /// Panics if the append fails — see the module docs on fail-stop
    /// writes.
    fn append(&self, shard: u32, entry: &WalEntry) {
        let payload = encode_versioned(entry);
        let _ship_guard = self.replication.get().map(|r| {
            r.ship_locks[shard as usize]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
        });
        let frame = self
            .wal
            .append(shard, entry.kind(), &payload)
            .unwrap_or_else(|e| {
                panic!("cannot journal to shard {shard}'s WAL (failing stop): {e}")
            });
        self.appends_since_snapshot[shard as usize].fetch_add(1, Ordering::Relaxed);
        if let Some(rep) = self.replication.get() {
            let started = std::time::Instant::now();
            rep.hook.frame_appended(
                shard,
                entry.kind(),
                &payload,
                frame.start_offset,
                frame.end_offset,
            );
            medsen_telemetry::record_since(medsen_telemetry::Stage::Replication, shard, started);
        }
    }

    /// Attaches the replication hook. May be called at most once, before
    /// the pair takes traffic.
    ///
    /// # Panics
    ///
    /// Panics on a second attach — two shippers racing one log would
    /// interleave their streams.
    pub(crate) fn attach_replication(&self, hook: Arc<dyn ReplicationHook>) {
        let shards = self.appends_since_snapshot.len();
        let state = ReplicationState {
            hook,
            ship_locks: (0..shards).map(|_| Mutex::new(())).collect(),
        };
        if self.replication.set(state).is_err() {
            panic!("replication hook already attached to this store");
        }
    }

    /// Whether the attached replication hook reports this node deposed.
    pub(crate) fn is_fenced(&self) -> bool {
        self.replication.get().is_some_and(|r| r.hook.is_fenced())
    }

    /// Appends an already-encoded replicated frame to `shard`'s log —
    /// the standby's write-ahead step. Bypasses the replication hook
    /// (the standby does not re-ship) but still feeds the compaction
    /// counter, so a promoted standby compacts on the usual cadence.
    pub(crate) fn append_replicated(
        &self,
        shard: u32,
        kind: u8,
        payload: &[u8],
    ) -> Result<(), String> {
        self.wal
            .append(shard, kind, payload)
            .map_err(|e| format!("standby WAL append failed: {e}"))?;
        self.appends_since_snapshot[shard as usize].fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Installs a replicated snapshot blob durably (tmp + fsync + rename
    /// via the store crate) and resets `shard`'s log generation — the
    /// standby's half of a snapshot catch-up.
    pub(crate) fn install_replicated_snapshot(
        &self,
        shard: u32,
        blob: &[u8],
    ) -> Result<(), String> {
        self.wal
            .install_snapshot(shard, blob)
            .map_err(|e| format!("standby snapshot install failed: {e}"))?;
        self.appends_since_snapshot[shard as usize].store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Appends on a shard since its last compaction snapshot.
    pub(crate) fn appends_since_snapshot(&self, shard: usize) -> u64 {
        self.appends_since_snapshot[shard].load(Ordering::Relaxed)
    }

    /// Forces all shards' unsynced appends to disk; returns fsyncs
    /// issued.
    ///
    /// # Panics
    ///
    /// Panics if the flush fails (fail-stop, as for appends).
    pub(crate) fn flush(&self) -> u64 {
        self.wal
            .flush()
            .unwrap_or_else(|e| panic!("cannot flush WAL (failing stop): {e}"))
    }

    /// Cumulative WAL counters.
    pub(crate) fn stats(&self) -> WalStats {
        self.wal.stats()
    }
}

impl EnrollJournal for CloudStore {
    fn enrolled(&self, shard: usize, user_id: &str, signature: &BeadSignature) {
        self.append(
            shard as u32,
            &WalEntry::Enroll {
                identifier: user_id.to_string(),
                signature: signature.clone(),
            },
        );
    }
}

impl RecordJournal for CloudStore {
    fn record_stored(&self, id: RecordId, record: &StoredRecord) {
        self.append(
            id.shard() as u32,
            &WalEntry::Store {
                id,
                record: record.clone(),
            },
        );
    }

    fn record_tampered(&self, id: RecordId, record: &StoredRecord) {
        self.append(
            id.shard() as u32,
            &WalEntry::Tamper {
                id,
                record: record.clone(),
            },
        );
    }
}

/// Applies one recovered entry to the in-memory state through the
/// journal-bypassing restore paths, validating that it belongs on
/// `shard` under this layout. Idempotent (restore-by-id, last-wins), so
/// recovery replay and the standby's replicated-frame apply both use it.
pub(crate) fn replay_entry(
    auth: &ShardedAuth,
    store: &RecordStore,
    shard: u32,
    shard_count: usize,
    entry: WalEntry,
) -> Result<(), StorageError> {
    match entry {
        WalEntry::Enroll {
            identifier,
            signature,
        } => {
            let expected = shard_index(&identifier, shard_count);
            if expected != shard as usize {
                return Err(StorageError::Layout {
                    shard,
                    detail: format!(
                        "identifier {identifier:?} routes to shard {expected} under this layout"
                    ),
                });
            }
            auth.restore_enroll(expected, identifier, signature);
        }
        WalEntry::Store { id, record } | WalEntry::Tamper { id, record } => {
            // The RecordId's own layout encoding is the second line of
            // defense behind the file-header stamp: an id minted under a
            // different shard count (or filed on the wrong shard's log)
            // is refused even if the header was forged or rewritten.
            if id.shard_count() != shard_count || id.shard() != shard as usize {
                return Err(StorageError::Layout {
                    shard,
                    detail: format!(
                        "{id:?} encodes shard {}/{} but was logged on shard {shard} of \
                         a {shard_count}-shard layout",
                        id.shard(),
                        id.shard_count()
                    ),
                });
            }
            store.restore(id, record);
        }
    }
    Ok(())
}

/// Decodes a snapshot blob — `[WIRE_VERSION][Vec<WalEntry>]`, as
/// [`compact_shard`] writes it — and replays its entries into the
/// in-memory state through the same idempotent path as log frames.
///
/// Used at recovery (the on-disk snapshot) and by the standby when a
/// snapshot catch-up arrives over the replication stream. The entries
/// overwrite last-wins by identifier/id and nothing in the system ever
/// deletes, so replaying a newer snapshot over older standby state
/// converges to exactly the primary's state at snapshot time.
pub(crate) fn replay_snapshot_blob(
    auth: &ShardedAuth,
    store: &RecordStore,
    shard: u32,
    shard_count: usize,
    bytes: &[u8],
) -> Result<(), StorageError> {
    let entries: Vec<WalEntry> = decode_versioned(bytes).map_err(|e| StorageError::Corrupt {
        shard,
        detail: format!("snapshot does not decode: {e}"),
    })?;
    for entry in entries {
        replay_entry(auth, store, shard, shard_count, entry)?;
    }
    Ok(())
}

/// Opens (or creates) durable storage under `config.dir` for a
/// `shard_count`-way layout, replays it, and returns the recovered
/// state plus the journal handle — with the journal *already attached*,
/// so no mutation can slip through unlogged between open and wire-up.
pub(crate) fn open_storage(
    config: &StorageConfig,
    shard_count: usize,
) -> Result<(ShardedAuth, RecordStore, Arc<CloudStore>), StorageError> {
    assert!(
        (1..=MAX_SHARDS).contains(&shard_count),
        "shard count {shard_count} outside 1..={MAX_SHARDS}"
    );
    let (wal, recoveries) = Wal::open(&config.dir, shard_count as u32, config.flush)?;

    let mut auth = ShardedAuth::new(shard_count);
    let mut store = RecordStore::with_shards(shard_count);

    for recovery in recoveries {
        let shard = recovery.shard;
        if let Some(bytes) = &recovery.snapshot {
            replay_snapshot_blob(&auth, &store, shard, shard_count, bytes)?;
        }
        for frame in recovery.frames {
            let entry = decode_entry(shard, frame.kind, &frame.payload)?;
            replay_entry(&auth, &store, shard, shard_count, entry)?;
        }
    }

    let cloud_store = Arc::new(CloudStore {
        wal,
        appends_since_snapshot: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
        replication: OnceLock::new(),
    });
    auth.set_journal(cloud_store.clone());
    store.set_journal(cloud_store.clone());
    Ok((auth, store, cloud_store))
}

/// Snapshots one shard's full state and resets its log.
///
/// The snapshot is the shortest log that rebuilds the shard: every
/// enrollment as an `Enroll` entry in identifier order, then every
/// record as a `Store` entry sorted by id, so equal states give
/// byte-identical snapshots.
///
/// Takes the shard's auth lock then its records lock — the only place in
/// the system that ever holds both. Regular writers hold at most one
/// shard lock at a time, so this fixed order cannot deadlock, and
/// holding both guarantees no journaled-but-unapplied entry exists while
/// the snapshot is cut (journal hooks run inside those same locks).
pub(crate) fn compact_shard(
    auth: &ShardedAuth,
    store: &RecordStore,
    cloud_store: &CloudStore,
    shard: usize,
) -> Result<(), StorageError> {
    let auth_guard = auth.write_shard(shard);
    let records_guard = store.write_shard(shard);

    let mut entries: Vec<WalEntry> = auth_guard
        .enrolled_entries()
        .map(|(identifier, signature)| WalEntry::Enroll {
            identifier: identifier.to_string(),
            signature: signature.clone(),
        })
        .collect();
    let mut records: Vec<_> = records_guard.iter().collect();
    records.sort_by_key(|&(&id, _)| id);
    entries.extend(records.into_iter().map(|(&id, record)| WalEntry::Store {
        id,
        record: record.clone(),
    }));
    let blob = encode_versioned(&entries);

    cloud_store.wal.install_snapshot(shard as u32, &blob)?;
    cloud_store.appends_since_snapshot[shard].store(0, Ordering::Relaxed);
    // Compaction reset the shard's log generation, so the replication
    // stream re-bases at offset zero: ship the same snapshot blob to the
    // standby. The dual shard locks keep appends out; the ship lock keeps
    // this ordered against the hook's view of other ships.
    if let Some(rep) = cloud_store.replication.get() {
        let _ship_guard = rep.ship_locks[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        rep.hook.snapshot_installed(shard as u32, &blob);
    }
    Ok(())
}

/// Stable path of `shard`'s log file under `dir` — the layout contract
/// the fault-injection tests corrupt files through.
pub fn log_path(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("wal-{shard:03}.log"))
}

/// Stable path of `shard`'s snapshot file under `dir`.
pub fn snapshot_path(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("snap-{shard:03}.bin"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PeakReport;
    use medsen_microfluidics::ParticleKind;

    fn sig(n: u64) -> BeadSignature {
        BeadSignature::from_counts(&[(ParticleKind::Bead358, n)])
    }

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
            signature: sig(100),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "medsen-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn wal_entry_binary_round_trips() {
        for entry in [
            WalEntry::Enroll {
                identifier: "alice".into(),
                signature: sig(40),
            },
            WalEntry::Store {
                id: RecordId::compose(3, 8, 17),
                record: record("alice"),
            },
            WalEntry::Tamper {
                id: RecordId::compose(0, 1, 0),
                record: record("mallory"),
            },
        ] {
            let payload = encode_versioned(&entry);
            assert_eq!(payload[1], entry.kind(), "variant tag is the frame kind");
            let back = decode_entry(0, entry.kind(), &payload).expect("decodes");
            assert_eq!(back, entry);
            assert!(matches!(
                decode_entry(0, entry.kind() % 3 + 1, &payload),
                Err(StorageError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn open_mutate_reopen_round_trips() {
        let dir = temp_dir("roundtrip");
        let config = StorageConfig::new(&dir);
        {
            let (auth, store, _cs) = open_storage(&config, 4).expect("open");
            auth.enroll("alice", sig(40));
            auth.enroll("bob", sig(80));
            let id = store.store(record("alice"));
            store.tamper(id, record("mallory"));
        }
        let (auth, store, cs) = open_storage(&config, 4).expect("reopen");
        assert_eq!(auth.enrolled_count(), 2);
        assert!(auth.verify_integrity("bob", &sig(80)));
        assert_eq!(store.len(), 1);
        let ids = store.records_of("mallory");
        assert_eq!(ids.len(), 1, "tamper must survive replay");
        assert_eq!(cs.stats().recovered_entries, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_resets_logs_and_preserves_state() {
        let dir = temp_dir("compact");
        let config = StorageConfig::new(&dir);
        {
            let (auth, store, cs) = open_storage(&config, 2).expect("open");
            auth.enroll("alice", sig(40));
            for _ in 0..5 {
                store.store(record("alice"));
            }
            for shard in 0..2 {
                compact_shard(&auth, &store, &cs, shard).expect("compact");
                assert_eq!(cs.appends_since_snapshot(shard), 0);
            }
            // Post-compaction appends land in the fresh log.
            store.store(record("alice"));
        }
        let (auth, store, cs) = open_storage(&config, 2).expect("reopen");
        assert_eq!(auth.enrolled_count(), 1);
        assert_eq!(store.len(), 6);
        let stats = cs.stats();
        assert_eq!(stats.recovered_snapshots, 2);
        assert_eq!(
            stats.recovered_entries, 1,
            "only the post-compaction append should be in the logs"
        );
        // New ids keep advancing past everything recovered.
        let next = store.store(record("alice"));
        let all = store.records_of("alice");
        assert_eq!(all.len(), 7);
        assert_eq!(all.last(), Some(&next));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_is_the_sorted_entry_list_of_the_state() {
        let snapshot_of = |tag: &str, enrollments: &[(&str, u64)]| {
            let dir = temp_dir(tag);
            let (auth, store, cs) = open_storage(&StorageConfig::new(&dir), 1).expect("open");
            for &(user, n) in enrollments {
                auth.enroll(user, sig(n));
            }
            store.store(record("alice"));
            store.store(record("bob"));
            compact_shard(&auth, &store, &cs, 0).expect("compact");
            let bytes = std::fs::read(snapshot_path(&dir, 0)).expect("snapshot written");
            let _ = std::fs::remove_dir_all(&dir);
            bytes
        };
        // Equal states reached by different histories: byte-identical.
        let snapshot = snapshot_of("snap-a", &[("bob", 80), ("alice", 40)]);
        let replayed = snapshot_of("snap-b", &[("alice", 10), ("alice", 40), ("bob", 80)]);
        assert_eq!(snapshot, replayed);

        // Past the 28-byte file header: enrollments in identifier order,
        // then records by id.
        let entries: Vec<WalEntry> = decode_versioned(&snapshot[28..]).expect("decodes");
        assert_eq!(
            entries,
            [
                WalEntry::Enroll {
                    identifier: "alice".into(),
                    signature: sig(40),
                },
                WalEntry::Enroll {
                    identifier: "bob".into(),
                    signature: sig(80),
                },
                WalEntry::Store {
                    id: RecordId::compose(0, 1, 0),
                    record: record("alice"),
                },
                WalEntry::Store {
                    id: RecordId::compose(0, 1, 1),
                    record: record("bob"),
                },
            ]
        );
    }

    #[test]
    fn reopening_under_a_different_layout_is_refused() {
        let dir = temp_dir("layout");
        let config = StorageConfig::new(&dir);
        {
            let (auth, _store, _cs) = open_storage(&config, 4).expect("open");
            auth.enroll("alice", sig(40));
        }
        match open_storage(&config, 2) {
            Err(StorageError::Wal(WalError::LayoutMismatch {
                expected, found, ..
            })) => {
                assert_eq!(expected, 2);
                assert_eq!(found, 4);
            }
            Err(other) => panic!("expected a layout mismatch, got {other}"),
            Ok(_) => panic!("expected a layout mismatch, got success"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_level_layout_skew_is_refused_even_with_a_valid_header() {
        // Forge a log whose header claims a 2-shard layout but whose
        // entry carries an id minted under 8 shards: the RecordId's own
        // encoding must refuse the replay.
        let dir = temp_dir("skew");
        {
            let (wal, _) = Wal::open(&dir, 2, FlushPolicy::EveryWrite).expect("open raw");
            let entry = WalEntry::Store {
                id: RecordId::compose(0, 8, 0),
                record: record("alice"),
            };
            wal.append(0, entry.kind(), &encode_versioned(&entry))
                .expect("append");
        }
        match open_storage(&StorageConfig::new(&dir), 2) {
            Err(StorageError::Layout { shard, detail }) => {
                assert_eq!(shard, 0);
                assert!(
                    detail.contains("8-shard") || detail.contains("shard 0/8"),
                    "{detail}"
                );
            }
            Err(other) => panic!("expected a layout error, got {other}"),
            Ok(_) => panic!("expected a layout error, got success"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
