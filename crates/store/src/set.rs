//! The per-layout WAL set: one [`ShardWal`] per shard, a shared stats
//! block, and the group-commit machinery.
//!
//! "Group commit" here is fsync batching: appends to one shard are
//! already serialized by the cloud tier's shard locks, so the expensive
//! operation to amortize is the `fsync`, not the `write`. The
//! [`FlushPolicy`] decides when a shard's accumulated appends are made
//! durable: on every write, once `N` appends have accumulated, or on a
//! fixed cadence driven by a background thread that parks between
//! sweeps.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::wal::{ShardRecovery, ShardWal, WalError};
use crate::FlushPolicy;

#[derive(Debug, Default)]
struct StatsCells {
    appends: AtomicU64,
    fsyncs: AtomicU64,
    bytes_written: AtomicU64,
    snapshots_written: AtomicU64,
    recovered_entries: AtomicU64,
    recovered_snapshots: AtomicU64,
    recovered_truncated_bytes: AtomicU64,
}

/// Point-in-time counters for the WAL set, cumulative since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Frames appended across all shards.
    pub appends: u64,
    /// `fsync` calls issued (group commit batches many appends into one).
    pub fsyncs: u64,
    /// Frame bytes written to log files (headers and snapshots excluded).
    pub bytes_written: u64,
    /// Compaction snapshots installed.
    pub snapshots_written: u64,
    /// Log frames replayed at open time.
    pub recovered_entries: u64,
    /// Snapshot files replayed at open time.
    pub recovered_snapshots: u64,
    /// Torn-tail bytes discarded at open time.
    pub recovered_truncated_bytes: u64,
    /// Bytes appended past the header, summed over every shard's current
    /// log generation (snapshot installs reset a shard's contribution).
    pub appended_bytes: u64,
    /// Prefix of `appended_bytes` covered by an fsync. The gap between
    /// the two is the in-memory loss window a crash would cost; replicas
    /// measure their lag against these same offsets.
    pub durable_bytes: u64,
}

/// Where one appended frame landed in its shard's current log
/// generation. Replication ships the frame against exactly these
/// offsets; a snapshot install resets the generation (and the offsets)
/// to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendedFrame {
    /// Byte offset past the header where the frame starts.
    pub start_offset: u64,
    /// Offset just past the frame (`start_offset + bytes`).
    pub end_offset: u64,
    /// Encoded frame length, framing overhead included.
    pub bytes: u64,
    /// Whether this append's group-commit threshold issued an fsync.
    pub synced: bool,
}

struct WalShared {
    shards: Vec<ShardWal>,
    stats: StatsCells,
    stop_flusher: AtomicBool,
}

impl WalShared {
    /// Flushes every shard, counting fsyncs. Used by the interval
    /// flusher, explicit flushes, and the drop path.
    fn flush_all(&self) -> std::io::Result<u64> {
        let mut synced = 0;
        for shard in &self.shards {
            if shard.flush()? {
                synced += 1;
            }
        }
        self.stats.fsyncs.fetch_add(synced, Ordering::Relaxed);
        Ok(synced)
    }
}

/// A set of per-shard write-ahead logs under one directory, opened for a
/// specific shard layout.
///
/// Dropping the set stops the interval flusher (if any) and issues a
/// best-effort final flush, so in-policy data loss on clean shutdown is
/// zero even under `FlushPolicy::EveryInterval`.
pub struct Wal {
    shared: Arc<WalShared>,
    policy: FlushPolicy,
    dir: PathBuf,
    flusher: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("shards", &self.shared.shards.len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl Wal {
    /// Opens (creating as needed) one log per shard under `dir`, replays
    /// each shard's snapshot and intact log tail, and truncates torn
    /// tails in place. Returns the recovered state per shard, in shard
    /// order, for the caller to apply before issuing new appends.
    ///
    /// Fails with [`WalError::LayoutMismatch`] if any existing file was
    /// written under a different `shard_count`.
    pub fn open(
        dir: &Path,
        shard_count: u32,
        policy: FlushPolicy,
    ) -> Result<(Self, Vec<ShardRecovery>), WalError> {
        assert!(shard_count > 0, "a WAL set needs at least one shard");
        if let FlushPolicy::EveryN(0) = policy {
            panic!("FlushPolicy::EveryN(0) would never flush; use EveryWrite");
        }
        std::fs::create_dir_all(dir).map_err(WalError::Io)?;

        let mut shards = Vec::with_capacity(shard_count as usize);
        let mut recoveries = Vec::with_capacity(shard_count as usize);
        let stats = StatsCells::default();
        for shard in 0..shard_count {
            let (wal, recovery) = ShardWal::open(dir, shard, shard_count)?;
            stats
                .recovered_entries
                .fetch_add(recovery.frames.len() as u64, Ordering::Relaxed);
            stats
                .recovered_truncated_bytes
                .fetch_add(recovery.truncated_bytes, Ordering::Relaxed);
            if recovery.snapshot.is_some() {
                stats.recovered_snapshots.fetch_add(1, Ordering::Relaxed);
            }
            shards.push(wal);
            recoveries.push(recovery);
        }

        let shared = Arc::new(WalShared {
            shards,
            stats,
            stop_flusher: AtomicBool::new(false),
        });

        let flusher = if let FlushPolicy::EveryInterval(interval) = policy {
            let interval = interval.max(Duration::from_millis(1));
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("medsen-wal-flush".into())
                    .spawn(move || run_flusher(shared, interval))
                    .map_err(WalError::Io)?,
            )
        } else {
            None
        };

        Ok((
            Self {
                shared,
                policy,
                dir: dir.to_path_buf(),
                flusher,
            },
            recoveries,
        ))
    }

    /// Directory the set was opened against.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shards in the layout this set was opened with.
    pub fn shard_count(&self) -> u32 {
        self.shared.shards.len() as u32
    }

    /// The flush policy the set was opened with.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Appends one frame to `shard`'s log, fsyncing per the policy.
    /// Returns where the frame landed in the shard's log generation.
    ///
    /// # Panics
    /// Panics if `shard` is out of range for the layout.
    pub fn append(&self, shard: u32, kind: u8, payload: &[u8]) -> Result<AppendedFrame, WalError> {
        let wal = &self.shared.shards[shard as usize];
        let threshold = match self.policy {
            FlushPolicy::EveryWrite => Some(1),
            FlushPolicy::EveryN(n) => Some(n),
            FlushPolicy::EveryInterval(_) => None,
        };
        let started = Instant::now();
        let outcome = wal.append(kind, payload, threshold)?;
        let finished = Instant::now();
        // Span per append against the active request's trace (no-op when
        // no context is installed, e.g. replay or the interval flusher).
        medsen_telemetry::record(medsen_telemetry::Stage::WalAppend, shard, started, finished);
        let stats = &self.shared.stats;
        stats.appends.fetch_add(1, Ordering::Relaxed);
        stats
            .bytes_written
            .fetch_add(outcome.bytes, Ordering::Relaxed);
        if outcome.synced {
            stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            // The fsync is the tail of the append: attribute it separately
            // so group-commit stalls name the guilty stage.
            let sync_started = finished
                .checked_sub(Duration::from_nanos(outcome.sync_ns))
                .unwrap_or(started);
            medsen_telemetry::record(
                medsen_telemetry::Stage::WalFsync,
                shard,
                sync_started,
                finished,
            );
        }
        Ok(AppendedFrame {
            start_offset: outcome.end_offset - outcome.bytes,
            end_offset: outcome.end_offset,
            bytes: outcome.bytes,
            synced: outcome.synced,
        })
    }

    /// Forces every shard's unsynced appends to disk, regardless of
    /// policy. Returns the number of fsyncs issued.
    pub fn flush(&self) -> Result<u64, WalError> {
        self.shared.flush_all().map_err(WalError::Io)
    }

    /// Atomically replaces `shard`'s snapshot with `payload` and resets
    /// its log. The caller must hold whatever locks make `shard` quiesce
    /// (see `ShardWal::install_snapshot`).
    ///
    /// # Panics
    /// Panics if `shard` is out of range for the layout.
    pub fn install_snapshot(&self, shard: u32, payload: &[u8]) -> Result<(), WalError> {
        self.shared.shards[shard as usize]
            .install_snapshot(payload)
            .map_err(WalError::Io)?;
        self.shared
            .stats
            .snapshots_written
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Cumulative counters since open (recovery counters are set once at
    /// open time).
    pub fn stats(&self) -> WalStats {
        let stats = &self.shared.stats;
        let (mut appended, mut durable) = (0, 0);
        for shard in &self.shared.shards {
            let (a, d) = shard.offsets();
            appended += a;
            durable += d;
        }
        WalStats {
            appends: stats.appends.load(Ordering::Relaxed),
            fsyncs: stats.fsyncs.load(Ordering::Relaxed),
            bytes_written: stats.bytes_written.load(Ordering::Relaxed),
            snapshots_written: stats.snapshots_written.load(Ordering::Relaxed),
            recovered_entries: stats.recovered_entries.load(Ordering::Relaxed),
            recovered_snapshots: stats.recovered_snapshots.load(Ordering::Relaxed),
            recovered_truncated_bytes: stats.recovered_truncated_bytes.load(Ordering::Relaxed),
            appended_bytes: appended,
            durable_bytes: durable,
        }
    }

    /// Byte offset past the header that appends to `shard` have reached
    /// in its current log generation. Replication ships frames against
    /// exactly these offsets, so lag is observable without reaching into
    /// file internals.
    ///
    /// # Panics
    /// Panics if `shard` is out of range for the layout.
    pub fn appended_offset(&self, shard: u32) -> u64 {
        self.shared.shards[shard as usize].offsets().0
    }

    /// Prefix of [`Wal::appended_offset`] made durable by an fsync.
    ///
    /// # Panics
    /// Panics if `shard` is out of range for the layout.
    pub fn durable_offset(&self, shard: u32) -> u64 {
        self.shared.shards[shard as usize].offsets().1
    }

    /// Current byte length of `shard`'s log file. Exposed for the
    /// fault-injection tests, which corrupt logs at precise offsets.
    pub fn log_len(&self, shard: u32) -> Result<u64, WalError> {
        self.shared.shards[shard as usize]
            .log_len()
            .map_err(WalError::Io)
    }

    /// Path of `shard`'s log file, likewise for test surgery.
    pub fn log_path(&self, shard: u32) -> &Path {
        self.shared.shards[shard as usize].log_path()
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.shared.stop_flusher.store(true, Ordering::Release);
        if let Some(handle) = self.flusher.take() {
            // Wake the flusher from its park so the drop does not wait
            // out the rest of its interval.
            handle.thread().unpark();
            let _ = handle.join();
        }
        // Best effort: a failed flush here has nowhere to report, but the
        // frames are still in the OS page cache and recovery tolerates a
        // torn tail, so ignoring the error cannot corrupt the log.
        let _ = self.shared.flush_all();
    }
}

/// Interval-flusher loop: parks for one interval between sweeps. A
/// spurious wake-up costs one early sweep.
fn run_flusher(shared: Arc<WalShared>, interval: Duration) {
    while !shared.stop_flusher.load(Ordering::Acquire) {
        std::thread::park_timeout(interval);
        if shared.stop_flusher.load(Ordering::Acquire) {
            break;
        }
        // An IO error here is retried on the next sweep; the writers'
        // fail-stop path reports persistent failures at append time.
        let _ = shared.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "medsen-walset-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn every_write_policy_syncs_each_append() {
        let dir = temp_dir("everywrite");
        let (wal, _) = Wal::open(&dir, 2, FlushPolicy::EveryWrite).expect("open");
        wal.append(0, 1, b"a").expect("append");
        wal.append(1, 1, b"b").expect("append");
        let stats = wal.stats();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.fsyncs, 2);
        assert!(stats.bytes_written > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_n_policy_batches_fsyncs() {
        let dir = temp_dir("everyn");
        let (wal, _) = Wal::open(&dir, 1, FlushPolicy::EveryN(4)).expect("open");
        for i in 0..10u8 {
            wal.append(0, 1, &[i]).expect("append");
        }
        let stats = wal.stats();
        assert_eq!(stats.appends, 10);
        assert_eq!(stats.fsyncs, 2, "10 appends at N=4 → syncs at 4 and 8");
        assert_eq!(wal.flush().expect("flush"), 1, "2 stragglers flushed");
        assert_eq!(wal.stats().fsyncs, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn offset_accessors_expose_replication_lag() {
        let dir = temp_dir("offsets");
        let (wal, _) = Wal::open(&dir, 2, FlushPolicy::EveryN(2)).expect("open");
        let first = wal.append(0, 1, b"one").expect("append");
        assert_eq!(first.start_offset, 0);
        assert_eq!(first.end_offset, first.bytes);
        assert!(!first.synced, "N=2 defers the fsync");
        assert_eq!(wal.appended_offset(0), first.end_offset);
        assert_eq!(wal.durable_offset(0), 0, "N=2 defers the fsync");
        assert_eq!(wal.appended_offset(1), 0, "untouched shard stays at zero");
        wal.append(0, 1, b"two").expect("append");
        assert_eq!(wal.durable_offset(0), wal.appended_offset(0));
        let stats = wal.stats();
        assert_eq!(stats.appended_bytes, wal.appended_offset(0));
        assert_eq!(stats.durable_bytes, stats.appended_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_stats_survive_reopen() {
        let dir = temp_dir("recovery");
        {
            let (wal, _) = Wal::open(&dir, 2, FlushPolicy::EveryWrite).expect("open");
            wal.append(0, 1, b"left").expect("append");
            wal.append(1, 2, b"right").expect("append");
            wal.install_snapshot(1, b"right-snap").expect("snapshot");
        }
        let (wal, recoveries) = Wal::open(&dir, 2, FlushPolicy::EveryWrite).expect("reopen");
        assert_eq!(recoveries.len(), 2);
        assert_eq!(recoveries[0].frames.len(), 1);
        assert!(
            recoveries[1].frames.is_empty(),
            "snapshot compacted shard 1"
        );
        assert_eq!(recoveries[1].snapshot.as_deref(), Some(&b"right-snap"[..]));
        let stats = wal.stats();
        assert_eq!(stats.recovered_entries, 1);
        assert_eq!(stats.recovered_snapshots, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_policy_flushes_in_background() {
        let dir = temp_dir("interval");
        let (wal, _) = Wal::open(
            &dir,
            1,
            FlushPolicy::EveryInterval(Duration::from_millis(5)),
        )
        .expect("open");
        wal.append(0, 1, b"pending").expect("append");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while wal.stats().fsyncs == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "interval flusher never fired"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_interval_wal_closes_without_waiting_out_its_interval() {
        let dir = temp_dir("intervaldrop");
        let (wal, _) =
            Wal::open(&dir, 1, FlushPolicy::EveryInterval(Duration::from_secs(10))).expect("open");
        wal.append(0, 1, b"parked").expect("append");
        // Let the flusher reach its park: a drop that lands before it
        // parks never had to wait.
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        drop(wal);
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "drop waited out the flush interval: {took:?}"
        );
        let (_, recoveries) = Wal::open(&dir, 1, FlushPolicy::EveryWrite).expect("reopen");
        assert_eq!(recoveries[0].frames.len(), 1);
        assert_eq!(recoveries[0].frames[0].payload, b"parked");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_flushes_stragglers() {
        let dir = temp_dir("dropflush");
        {
            let (wal, _) = Wal::open(&dir, 1, FlushPolicy::EveryN(100)).expect("open");
            wal.append(0, 1, b"unsynced").expect("append");
            assert_eq!(wal.stats().fsyncs, 0);
        }
        // The entry must be replayable after the graceful drop.
        let (_, recoveries) = Wal::open(&dir, 1, FlushPolicy::EveryWrite).expect("reopen");
        assert_eq!(recoveries[0].frames.len(), 1);
        assert_eq!(recoveries[0].frames[0].payload, b"unsynced");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
