//! One shard's durable state: an append-only log file plus an optional
//! snapshot file, both layout-stamped.
//!
//! ## Log file (`wal-NNN.log`)
//!
//! ```text
//! ┌──────────────────┬──────────────┬──────────────┬────────────┬────────────┐
//! │ magic "MSWAL01\n"│ shard: u32LE │ count: u32LE │ crc: u32LE │ frames ... │
//! └──────────────────┴──────────────┴──────────────┴────────────┴────────────┘
//! ```
//!
//! The header CRC covers the shard/count words. A log whose `count` does
//! not match the opening layout is refused outright ([`WalError::
//! LayoutMismatch`]): shard routing is a pure function of the shard
//! count, so replaying shard 3's log under a different layout would
//! scatter identities across the wrong locks and mint [`RecordId`]s that
//! fail their own layout check.
//!
//! ## Snapshot file (`snap-NNN.bin`)
//!
//! ```text
//! ┌──────────────────┬───────┬───────┬─────────────┬────────────┬─────────┐
//! │ magic "MSSNAP1\n"│ shard │ count │ len: u64LE  │ crc: u32LE │ payload │
//! └──────────────────┴───────┴───────┴─────────────┴────────────┴─────────┘
//! ```
//!
//! Snapshots are written to a temp file, fsynced, then renamed over the
//! final name, so a crash mid-snapshot leaves the previous snapshot (or
//! none) intact. The log is only truncated *after* the rename lands;
//! a crash in the gap replays snapshot + full log, which is harmless
//! because replay is idempotent (records restore by explicit id,
//! enrollments are last-wins).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::frame::{self, DecodedLog, Frame};
use medsen_wire::{crc32, frame_to_vec};

const LOG_MAGIC: &[u8; 8] = b"MSWAL01\n";
const SNAP_MAGIC: &[u8; 8] = b"MSSNAP1\n";
/// Magic + shard + count + crc.
const LOG_HEADER_LEN: u64 = 20;
/// Magic + shard + count + payload len + crc.
const SNAP_HEADER_LEN: usize = 28;

/// Errors surfaced while opening or writing durable shard state.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A log or snapshot file exists but its header is unreadable.
    CorruptHeader { path: PathBuf, detail: String },
    /// A log or snapshot was written under a different shard layout and
    /// must not be replayed into this one.
    LayoutMismatch {
        path: PathBuf,
        expected: u32,
        found: u32,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(err) => write!(f, "wal io error: {err}"),
            WalError::CorruptHeader { path, detail } => {
                write!(f, "corrupt header in {}: {detail}", path.display())
            }
            WalError::LayoutMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{} was written under a {found}-shard layout; refusing to replay it into \
                 a {expected}-shard service",
                path.display()
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(err: io::Error) -> Self {
        WalError::Io(err)
    }
}

/// What one shard's files yielded at open time, in replay order:
/// apply `snapshot` first, then every frame.
#[derive(Debug)]
pub struct ShardRecovery {
    /// Shard index the files were stamped with.
    pub shard: u32,
    /// The latest compaction snapshot, if one was ever written.
    pub snapshot: Option<Vec<u8>>,
    /// Intact log frames appended after that snapshot.
    pub frames: Vec<Frame>,
    /// Bytes of torn tail discarded from the log file.
    pub truncated_bytes: u64,
}

/// Outcome of a single append, fed into the stats counters by the set.
pub(crate) struct AppendOutcome {
    pub bytes: u64,
    pub synced: bool,
    /// Wall time the `sync_data` took when `synced`, else zero — lets the
    /// caller attribute the group-commit fsync separately from the write.
    pub sync_ns: u64,
    /// Offset past the header the frame ends at in this log generation
    /// (the frame spans `end_offset - bytes .. end_offset`).
    pub end_offset: u64,
}

struct ShardFile {
    file: File,
    /// Appends not yet covered by an fsync.
    pending: u64,
    /// Bytes appended past the header in the current log generation.
    appended: u64,
    /// Prefix of `appended` covered by an fsync (the durable offset).
    durable: u64,
}

/// One shard's log file handle. All file access funnels through the
/// inner mutex, so appends, flushes (including the background interval
/// flusher), and snapshot installs never interleave mid-operation.
///
/// The handle also tracks two byte offsets past the header into the
/// *current log generation*: how far appends have reached and how much
/// of that prefix an fsync has covered. Replication keys its shipped /
/// acked cursors off these offsets; a snapshot install starts a new
/// generation and resets both to zero.
pub(crate) struct ShardWal {
    shard: u32,
    shard_count: u32,
    log_path: PathBuf,
    snap_path: PathBuf,
    inner: Mutex<ShardFile>,
}

impl ShardWal {
    /// Opens (creating if absent) this shard's log, replays its snapshot
    /// and intact frames, and truncates any torn tail in place.
    pub(crate) fn open(
        dir: &Path,
        shard: u32,
        shard_count: u32,
    ) -> Result<(Self, ShardRecovery), WalError> {
        let log_path = dir.join(format!("wal-{shard:03}.log"));
        let snap_path = dir.join(format!("snap-{shard:03}.bin"));

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)?;
        let len = file.metadata()?.len();

        let mut truncated = 0u64;
        let mut recovered = 0u64;
        let frames = if len < LOG_HEADER_LEN {
            // Brand new (or hopelessly short) file: stamp a fresh header.
            // A file shorter than the header can only be a crash during
            // the very first header write — nothing decodable is lost.
            truncated = len;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&log_header(shard, shard_count))?;
            file.sync_data()?;
            Vec::new()
        } else {
            let mut bytes = Vec::with_capacity(len as usize);
            file.seek(SeekFrom::Start(0))?;
            file.read_to_end(&mut bytes)?;
            check_log_header(&log_path, &bytes, shard, shard_count)?;
            let DecodedLog {
                frames, clean_len, ..
            } = frame::decode_log(&bytes[LOG_HEADER_LEN as usize..]);
            let clean_end = LOG_HEADER_LEN + clean_len as u64;
            if clean_end < len {
                truncated = len - clean_end;
                file.set_len(clean_end)?;
                file.sync_data()?;
            }
            file.seek(SeekFrom::Start(clean_end))?;
            recovered = clean_end - LOG_HEADER_LEN;
            frames
        };

        let snapshot = read_snapshot(&snap_path, shard, shard_count)?;

        let recovery = ShardRecovery {
            shard,
            snapshot,
            frames,
            truncated_bytes: truncated,
        };
        Ok((
            Self {
                shard,
                shard_count,
                log_path,
                snap_path,
                inner: Mutex::new(ShardFile {
                    file,
                    pending: 0,
                    // Whatever survived on disk is durable by definition.
                    appended: recovered,
                    durable: recovered,
                }),
            },
            recovery,
        ))
    }

    /// Appends one frame, fsyncing if this write brings the unsynced
    /// count up to `sync_threshold` (`None` leaves syncing to the
    /// interval flusher).
    pub(crate) fn append(
        &self,
        kind: u8,
        payload: &[u8],
        sync_threshold: Option<u64>,
    ) -> io::Result<AppendOutcome> {
        let buf = frame_to_vec(kind, payload);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.file.write_all(&buf)?;
        inner.pending += 1;
        inner.appended += buf.len() as u64;
        let (synced, sync_ns) = match sync_threshold {
            Some(n) if inner.pending >= n.max(1) => {
                let sync_started = std::time::Instant::now();
                inner.file.sync_data()?;
                inner.pending = 0;
                inner.durable = inner.appended;
                let elapsed = sync_started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                (true, elapsed)
            }
            _ => (false, 0),
        };
        Ok(AppendOutcome {
            bytes: buf.len() as u64,
            synced,
            sync_ns,
            end_offset: inner.appended,
        })
    }

    /// Fsyncs any unsynced appends. Returns whether an fsync was issued.
    pub(crate) fn flush(&self) -> io::Result<bool> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.pending == 0 {
            return Ok(false);
        }
        inner.file.sync_data()?;
        inner.pending = 0;
        inner.durable = inner.appended;
        Ok(true)
    }

    /// Atomically replaces this shard's snapshot with `payload` and
    /// resets the log to an empty (header-only) file.
    ///
    /// The caller must guarantee no concurrent appends to this shard —
    /// in the cloud tier the compactor holds the shard's auth and record
    /// write locks across this call.
    pub(crate) fn install_snapshot(&self, payload: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());

        let tmp_path = self.snap_path.with_extension("tmp");
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(&snap_header(self.shard, self.shard_count, payload))?;
        tmp.write_all(payload)?;
        tmp.sync_data()?;
        drop(tmp);
        fs::rename(&tmp_path, &self.snap_path)?;

        // Only now that the snapshot is durable under its final name may
        // the log be emptied. A crash before this point replays the old
        // snapshot plus the full log; replay idempotence makes that safe.
        inner.file.set_len(LOG_HEADER_LEN)?;
        inner.file.seek(SeekFrom::Start(LOG_HEADER_LEN))?;
        inner.file.sync_data()?;
        inner.pending = 0;
        inner.appended = 0;
        inner.durable = 0;
        Ok(())
    }

    /// `(appended, durable)` byte offsets past the header in the current
    /// log generation. `durable ≤ appended` always; both reset to zero
    /// when a snapshot install starts a new generation.
    pub(crate) fn offsets(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (inner.appended, inner.durable)
    }

    /// Current log file length in bytes (header included). Test hook for
    /// the fault-injection battery's surgical corruption.
    pub(crate) fn log_len(&self) -> io::Result<u64> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        Ok(inner.file.metadata()?.len())
    }

    pub(crate) fn log_path(&self) -> &Path {
        &self.log_path
    }
}

fn log_header(shard: u32, shard_count: u32) -> [u8; LOG_HEADER_LEN as usize] {
    let mut header = [0u8; LOG_HEADER_LEN as usize];
    header[0..8].copy_from_slice(LOG_MAGIC);
    header[8..12].copy_from_slice(&shard.to_le_bytes());
    header[12..16].copy_from_slice(&shard_count.to_le_bytes());
    let crc = crc32(&header[8..16]);
    header[16..20].copy_from_slice(&crc.to_le_bytes());
    header
}

fn check_log_header(
    path: &Path,
    bytes: &[u8],
    shard: u32,
    shard_count: u32,
) -> Result<(), WalError> {
    debug_assert!(bytes.len() >= LOG_HEADER_LEN as usize);
    if &bytes[0..8] != LOG_MAGIC {
        return Err(WalError::CorruptHeader {
            path: path.to_path_buf(),
            detail: "bad log magic".into(),
        });
    }
    let file_shard = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let file_count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if crc32(&bytes[8..16]) != crc {
        return Err(WalError::CorruptHeader {
            path: path.to_path_buf(),
            detail: "log header checksum mismatch".into(),
        });
    }
    if file_count != shard_count {
        return Err(WalError::LayoutMismatch {
            path: path.to_path_buf(),
            expected: shard_count,
            found: file_count,
        });
    }
    if file_shard != shard {
        return Err(WalError::CorruptHeader {
            path: path.to_path_buf(),
            detail: format!("log stamped for shard {file_shard}, expected {shard}"),
        });
    }
    Ok(())
}

fn snap_header(shard: u32, shard_count: u32, payload: &[u8]) -> [u8; SNAP_HEADER_LEN] {
    let mut header = [0u8; SNAP_HEADER_LEN];
    header[0..8].copy_from_slice(SNAP_MAGIC);
    header[8..12].copy_from_slice(&shard.to_le_bytes());
    header[12..16].copy_from_slice(&shard_count.to_le_bytes());
    header[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let crc = crc32(payload);
    header[24..28].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Reads and validates a snapshot file. A snapshot that fails any check
/// is an error, not a silent skip: unlike a torn log tail (an expected
/// crash artifact), the snapshot was renamed into place atomically, so
/// damage to it means the base state is gone and replaying the post-
/// snapshot log alone would silently resurrect a partial history.
fn read_snapshot(path: &Path, shard: u32, shard_count: u32) -> Result<Option<Vec<u8>>, WalError> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(err.into()),
    };
    if bytes.len() < SNAP_HEADER_LEN || &bytes[0..8] != SNAP_MAGIC {
        return Err(WalError::CorruptHeader {
            path: path.to_path_buf(),
            detail: "bad snapshot magic".into(),
        });
    }
    let file_shard = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let file_count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes"));
    if file_count != shard_count {
        return Err(WalError::LayoutMismatch {
            path: path.to_path_buf(),
            expected: shard_count,
            found: file_count,
        });
    }
    if file_shard != shard {
        return Err(WalError::CorruptHeader {
            path: path.to_path_buf(),
            detail: format!("snapshot stamped for shard {file_shard}, expected {shard}"),
        });
    }
    // The length word is outside the payload CRC, so compare it in u64:
    // a forged length near u64::MAX must not overflow a sum.
    let actual_len = (bytes.len() - SNAP_HEADER_LEN) as u64;
    if payload_len != actual_len {
        return Err(WalError::CorruptHeader {
            path: path.to_path_buf(),
            detail: format!(
                "snapshot payload is {actual_len} bytes but its header says {payload_len}"
            ),
        });
    }
    let payload = bytes[SNAP_HEADER_LEN..].to_vec();
    if crc32(&payload) != crc {
        return Err(WalError::CorruptHeader {
            path: path.to_path_buf(),
            detail: "snapshot checksum mismatch".into(),
        });
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "medsen-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn append_and_reopen_replays_in_order() {
        let dir = temp_dir("roundtrip");
        {
            let (wal, rec) = ShardWal::open(&dir, 0, 4).expect("open");
            assert!(rec.frames.is_empty());
            assert!(rec.snapshot.is_none());
            wal.append(1, b"first", Some(1)).expect("append");
            wal.append(2, b"second", Some(1)).expect("append");
        }
        let (_, rec) = ShardWal::open(&dir, 0, 4).expect("reopen");
        assert_eq!(rec.frames.len(), 2);
        assert_eq!(rec.frames[0].payload, b"first");
        assert_eq!(rec.frames[1].kind, 2);
        assert_eq!(rec.truncated_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        let log_path;
        {
            let (wal, _) = ShardWal::open(&dir, 0, 1).expect("open");
            wal.append(1, b"kept", Some(1)).expect("append");
            log_path = wal.log_path().to_path_buf();
        }
        let clean_len = fs::metadata(&log_path).expect("meta").len();
        let mut file = OpenOptions::new()
            .append(true)
            .open(&log_path)
            .expect("open for garbage");
        file.write_all(&[0xAB; 13]).expect("write garbage");
        drop(file);

        let (_, rec) = ShardWal::open(&dir, 0, 1).expect("reopen");
        assert_eq!(rec.frames.len(), 1);
        assert_eq!(rec.truncated_bytes, 13);
        assert_eq!(fs::metadata(&log_path).expect("meta").len(), clean_len);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn layout_mismatch_is_refused() {
        let dir = temp_dir("layout");
        {
            let (wal, _) = ShardWal::open(&dir, 0, 4).expect("open");
            wal.append(1, b"entry", Some(1)).expect("append");
        }
        match ShardWal::open(&dir, 0, 2) {
            Err(WalError::LayoutMismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, 2);
                assert_eq!(found, 4);
            }
            Err(other) => panic!("expected layout mismatch, got {other:?}"),
            Ok(_) => panic!("expected layout mismatch, got success"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_install_compacts_the_log() {
        let dir = temp_dir("snap");
        {
            let (wal, _) = ShardWal::open(&dir, 3, 8).expect("open");
            wal.append(1, b"pre-snapshot", Some(1)).expect("append");
            wal.install_snapshot(b"snapshot-state").expect("snapshot");
            wal.append(2, b"post-snapshot", Some(1)).expect("append");
        }
        let (_, rec) = ShardWal::open(&dir, 3, 8).expect("reopen");
        assert_eq!(rec.snapshot.as_deref(), Some(&b"snapshot-state"[..]));
        assert_eq!(rec.frames.len(), 1);
        assert_eq!(rec.frames[0].payload, b"post-snapshot");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_snapshot_length_is_a_corrupt_header_not_an_overflow() {
        let dir = temp_dir("snaplen");
        drop(ShardWal::open(&dir, 0, 1).expect("open"));
        let payload = b"state";
        let mut file = snap_header(0, 1, payload).to_vec();
        file.extend_from_slice(payload);
        let snap_path = dir.join("snap-000.bin");
        for forged in [u64::MAX, u64::MAX - (SNAP_HEADER_LEN as u64 - 1), 6] {
            file[16..24].copy_from_slice(&forged.to_le_bytes());
            fs::write(&snap_path, &file).expect("write forged snapshot");
            match ShardWal::open(&dir, 0, 1) {
                Err(WalError::CorruptHeader { detail, .. }) => {
                    assert!(detail.contains(&forged.to_string()), "{detail}")
                }
                Err(other) => panic!("length {forged}: expected a corrupt header, got {other:?}"),
                Ok(_) => panic!("length {forged}: a forged snapshot length was accepted"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn offsets_track_appends_syncs_and_snapshot_resets() {
        let dir = temp_dir("offsets");
        let all;
        {
            let (wal, _) = ShardWal::open(&dir, 0, 1).expect("open");
            assert_eq!(wal.offsets(), (0, 0));
            let a = wal.append(1, b"abc", Some(2)).expect("append");
            assert!(!a.synced);
            assert_eq!(
                wal.offsets(),
                (a.bytes, 0),
                "unsynced appends are not durable"
            );
            let b = wal.append(1, b"defg", Some(2)).expect("append");
            assert!(b.synced);
            assert_eq!(wal.offsets(), (a.bytes + b.bytes, a.bytes + b.bytes));
            let c = wal.append(1, b"hi", None).expect("append");
            assert_eq!(wal.offsets().1, a.bytes + b.bytes);
            wal.flush().expect("flush");
            all = a.bytes + b.bytes + c.bytes;
            assert_eq!(
                wal.offsets(),
                (all, all),
                "flush promotes the durable offset"
            );
        }
        let (wal, _) = ShardWal::open(&dir, 0, 1).expect("reopen");
        assert_eq!(
            wal.offsets(),
            (all, all),
            "what survived on disk is durable"
        );
        wal.install_snapshot(b"snap").expect("snapshot");
        assert_eq!(wal.offsets(), (0, 0), "snapshot starts a new generation");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pending_appends_only_sync_at_threshold() {
        let dir = temp_dir("threshold");
        let (wal, _) = ShardWal::open(&dir, 0, 1).expect("open");
        let first = wal.append(1, b"a", Some(3)).expect("append");
        assert!(!first.synced);
        let second = wal.append(1, b"b", Some(3)).expect("append");
        assert!(!second.synced);
        let third = wal.append(1, b"c", Some(3)).expect("append");
        assert!(third.synced);
        assert!(!wal.flush().expect("flush"), "nothing pending after sync");
        let fourth = wal.append(1, b"d", None).expect("append");
        assert!(!fourth.synced);
        assert!(wal.flush().expect("flush"), "interval-style flush syncs");
        let _ = fs::remove_dir_all(&dir);
    }
}
