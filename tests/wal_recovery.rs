//! Crash-recovery fault injection for the durable cloud tier
//! (`CloudService::with_storage` over the `medsen-store` WAL).
//!
//! The battery, in the style of `shard_storm.rs`:
//!
//! * **Kill points** — a deterministic operation log runs against a
//!   durable service; at pseudo-random write boundaries the data
//!   directory is copied (the on-disk state an abrupt process death
//!   would leave behind, with all in-memory state gone). Each copy must
//!   recover into a service observationally equivalent to a
//!   single-threaded oracle that replayed exactly the acknowledged
//!   prefix.
//! * **Concurrent storm** — 8 threads hammer the durable service, the
//!   process "dies" (the service is dropped, memory discarded), and the
//!   reopened service must contain every acknowledged write. Directory
//!   copies taken *while the storm is running* must also recover
//!   cleanly into a consistent prefix.
//! * **Torn and corrupted tails** — garbage appended after the last
//!   frame, and a bit flipped inside the final frame, must both be
//!   truncated away without panicking, recovering the longest clean
//!   prefix.
//! * **Layout skew** — a log written under an M-shard layout refuses to
//!   open under N ≠ M.
//! * **JSON-era directories** — entries and snapshots written in the
//!   JSON encoding that preceded the binary one are refused at open with
//!   a typed error, and no file is rewritten.
//! * **Compaction and flush policies** — snapshots shrink the logs
//!   without changing the recovered state; group-commit policies batch
//!   fsyncs until `flush_storage` (or the interval flusher) forces them.

use medsen::cloud::auth::BeadSignature;
use medsen::cloud::persist;
use medsen::cloud::service::{CloudService, Request, Response};
use medsen::cloud::storage::StoredRecord;
use medsen::cloud::{FlushPolicy, PeakReport, RecordId, StorageConfig, StorageError};
use medsen::microfluidics::ParticleKind;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};

const SHARDS: usize = 4;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("medsen-wal-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read data dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
    }
}

fn sig(n: u64) -> BeadSignature {
    BeadSignature::from_counts(&[(ParticleKind::Bead358, n)])
}

fn record(user: &str, n: u64) -> StoredRecord {
    StoredRecord {
        user_id: user.to_string(),
        report: PeakReport {
            peaks: vec![],
            carriers_hz: vec![5e5],
            sample_rate_hz: 450.0,
            duration_s: n as f64,
            noise_sigma: 3.0e-4,
        },
        signature: sig(n),
    }
}

/// One step of the deterministic operation log. `Tamper(k)` rewrites the
/// k-th record created so far (skipped while fewer exist).
#[derive(Clone, Debug)]
enum Op {
    Enroll(String, u64),
    Store(String, u64),
    Tamper(usize),
}

/// A deterministic mixed workload: enrollments, record filings, and the
/// occasional tamper, spread over many identifiers (hence many shards).
fn op_log(len: usize) -> Vec<Op> {
    (0..len)
        .map(|i| match i % 5 {
            0 => Op::Enroll(format!("user-{}", i / 5), 3 + i as u64),
            1 | 2 => Op::Store(format!("user-{}", i / 5), 10 + i as u64),
            3 => Op::Store(format!("walkin-{i}"), 40 + i as u64),
            _ => Op::Tamper(i / 7),
        })
        .collect()
}

/// Applies one op, recording every record id it creates. Identical code
/// drives the durable service, the oracle, and the storm threads.
fn apply(svc: &CloudService, op: &Op, created: &mut Vec<(String, RecordId)>) {
    match op {
        Op::Enroll(user, n) => {
            let response = svc.handle_shared(Request::Enroll {
                identifier: user.clone(),
                signature: sig(*n),
            });
            assert_eq!(response, Response::Enrolled);
        }
        Op::Store(user, n) => {
            let id = svc.store().store(record(user, *n));
            created.push((user.clone(), id));
        }
        Op::Tamper(k) => {
            if let Some((_, id)) = created.get(*k) {
                assert!(svc.store().tamper(*id, record("mallory", 666)));
            }
        }
    }
}

fn total_enrolled(svc: &CloudService) -> usize {
    svc.shard_stats().iter().map(|s| s.enrolled).sum()
}

/// Observational equivalence over a set of record ids: identical record
/// contents (or identical absence), identical totals, and identical
/// integrity verdicts — tampered records must stay visibly tampered
/// after recovery.
fn assert_equiv(recovered: &CloudService, oracle: &CloudService, ids: &[(String, RecordId)]) {
    assert_eq!(
        recovered.store().len(),
        oracle.store().len(),
        "record count"
    );
    assert_eq!(
        total_enrolled(recovered),
        total_enrolled(oracle),
        "enrollments"
    );
    for (_, id) in ids {
        match (recovered.store().fetch(*id), oracle.store().fetch(*id)) {
            (Some(a), Some(b)) => assert_eq!(a, b, "record {id:?} diverged"),
            (None, None) => {}
            (a, b) => panic!("record {id:?}: recovered {a:?} vs oracle {b:?}"),
        }
        assert_eq!(
            recovered.handle_shared(Request::VerifyIntegrity { record_id: *id }),
            oracle.handle_shared(Request::VerifyIntegrity { record_id: *id }),
            "integrity verdict for {id:?} diverged"
        );
    }
}

fn durable(dir: &Path, policy: FlushPolicy) -> CloudService {
    CloudService::with_storage(dir, SHARDS, policy).expect("storage opens")
}

/// Replays `ops[..=k]` on a fresh memory-only service.
fn oracle_for_prefix(ops: &[Op], k: usize) -> (CloudService, Vec<(String, RecordId)>) {
    let oracle = CloudService::with_shards(SHARDS);
    let mut ids = Vec::new();
    for op in &ops[..=k] {
        apply(&oracle, op, &mut ids);
    }
    (oracle, ids)
}

#[test]
fn clean_reopen_round_trips_the_full_log() {
    let dir = temp_dir("clean-reopen");
    let ops = op_log(35);
    let mut ids = Vec::new();
    {
        let svc = durable(&dir, FlushPolicy::EveryWrite);
        for op in &ops {
            apply(&svc, op, &mut ids);
        }
    }
    let recovered = durable(&dir, FlushPolicy::EveryWrite);
    let stats = recovered.storage_stats().expect("durable");
    // Every op in this log journals exactly one entry (all Tamper
    // indices land on records that already exist).
    assert_eq!(stats.recovered_entries, ops.len() as u64);
    let (oracle, oracle_ids) = oracle_for_prefix(&ops, ops.len() - 1);
    assert_eq!(ids, oracle_ids, "sequential id allocation is deterministic");
    assert_equiv(&recovered, &oracle, &ids);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline kill-point harness: copy the data directory at
/// pseudo-random write boundaries (what a crash leaves on disk), recover
/// each copy, and compare against the oracle of exactly that prefix.
#[test]
fn recovery_at_every_sampled_kill_point_matches_the_prefix_oracle() {
    let dir = temp_dir("killpoints");
    let ops = op_log(40);
    let svc = durable(&dir, FlushPolicy::EveryWrite);
    let mut created = Vec::new();
    let mut kill_points = Vec::new();
    // The workspace's shared seeded RNG picks ~1/3 of the write
    // boundaries (deterministically — same sample every run).
    let mut rng = medsen::audit::AuditRng::derive(40, b"recovery-kill-points");
    for (k, op) in ops.iter().enumerate() {
        apply(&svc, op, &mut created);
        if rng.next_u64().is_multiple_of(3) || k + 1 == ops.len() {
            let copy = temp_dir(&format!("killpoint-{k}"));
            copy_dir(&dir, &copy);
            kill_points.push((k, copy));
        }
    }
    drop(svc); // the "crash": all in-memory state gone
    assert!(kill_points.len() >= 8, "sampled too few kill points");
    for (k, copy) in kill_points {
        let recovered = durable(&copy, FlushPolicy::EveryWrite);
        let (oracle, ids) = oracle_for_prefix(&ops, k);
        assert_equiv(&recovered, &oracle, &ids);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// 8 threads of concurrent writes, then an abrupt drop: the reopened
/// service must hold every acknowledged write, byte for byte. Mid-storm
/// directory copies must also recover without panicking into a
/// consistent prefix of the final state.
#[test]
fn concurrent_storm_survives_an_unclean_restart() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 24;
    let dir = temp_dir("storm");
    let svc = durable(&dir, FlushPolicy::EveryWrite);
    let barrier = Barrier::new(THREADS + 1);
    let created = Mutex::new(Vec::<(String, RecordId)>::new());
    let mut mid_copies = Vec::new();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let svc = &svc;
            let barrier = &barrier;
            let created = &created;
            scope.spawn(move || {
                barrier.wait();
                let mut mine = Vec::new();
                for i in 0..PER_THREAD {
                    // Stores carry the enrolled signature so the
                    // integrity probe holds for every record.
                    let user = format!("storm-{t}");
                    match i % 3 {
                        0 => apply(svc, &Op::Enroll(user, 3 + t as u64), &mut mine),
                        _ => apply(svc, &Op::Store(user, 3 + t as u64), &mut mine),
                    }
                }
                created.lock().unwrap().extend(mine);
            });
        }
        // The coordinator snapshots the directory while writers run.
        barrier.wait();
        for c in 0..3 {
            let copy = temp_dir(&format!("storm-mid-{c}"));
            copy_dir(&dir, &copy);
            mid_copies.push(copy);
        }
    });
    let created = created.into_inner().unwrap();
    let live_len = svc.store().len();
    let live_enrolled = total_enrolled(&svc);
    drop(svc); // crash

    let recovered = durable(&dir, FlushPolicy::EveryWrite);
    assert_eq!(recovered.store().len(), live_len);
    assert_eq!(recovered.store().len(), created.len());
    assert_eq!(total_enrolled(&recovered), live_enrolled);
    assert_eq!(total_enrolled(&recovered), THREADS);
    let mut distinct = BTreeSet::new();
    for (owner, id) in &created {
        let rec = recovered
            .store()
            .fetch(*id)
            .expect("no acknowledged record lost");
        assert_eq!(&rec.user_id, owner, "record {id:?} leaked across users");
        assert!(distinct.insert(*id), "duplicate id {id:?}");
        assert_eq!(
            recovered.handle_shared(Request::VerifyIntegrity { record_id: *id }),
            Response::Integrity { intact: true }
        );
    }

    // Every mid-storm copy opens cleanly into a prefix: anything it
    // holds must match the final recovered state exactly (records are
    // never rewritten in this storm).
    for copy in mid_copies {
        let partial = durable(&copy, FlushPolicy::EveryWrite);
        assert!(partial.store().len() <= created.len());
        for (owner, id) in &created {
            if let Some(rec) = partial.store().fetch(*id) {
                assert_eq!(&rec.user_id, owner);
                assert_eq!(Some(rec), recovered.store().fetch(*id));
            }
        }
        drop(partial);
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_after_the_last_frame_is_truncated_not_fatal() {
    let dir = temp_dir("torn-tail");
    let ops = op_log(20);
    let mut ids = Vec::new();
    {
        let svc = durable(&dir, FlushPolicy::EveryWrite);
        for op in &ops {
            apply(&svc, op, &mut ids);
        }
    }
    // A crash mid-append leaves a torn frame; fake one on every shard.
    for shard in 0..SHARDS {
        let path = persist::log_path(&dir, shard as u32);
        let mut garbage = vec![0xDE, 0xAD, 0xBE, 0xEF, 0x01];
        garbage.extend_from_slice(&[0u8; 3]); // half a frame header
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("log exists");
        f.write_all(&garbage).expect("append garbage");
    }
    let recovered = durable(&dir, FlushPolicy::EveryWrite);
    let stats = recovered.storage_stats().expect("durable");
    assert!(
        stats.recovered_truncated_bytes >= (SHARDS * 8) as u64,
        "all four torn tails must be measured: {stats:?}"
    );
    let (oracle, oracle_ids) = oracle_for_prefix(&ops, ops.len() - 1);
    assert_eq!(ids, oracle_ids);
    assert_equiv(&recovered, &oracle, &ids);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit flip inside the final frame fails its CRC; recovery truncates
/// back to the last clean frame, i.e. the state after N−1 operations.
#[test]
fn bit_flip_in_the_final_frame_recovers_the_previous_operation() {
    let dir = temp_dir("bit-flip");
    // One shard so "the last frame" is well defined.
    let ops: Vec<Op> = (0..10)
        .map(|i| Op::Enroll(format!("user-{i}"), 3 + i as u64))
        .collect();
    let len_before_last;
    {
        let svc = CloudService::with_storage(&dir, 1, FlushPolicy::EveryWrite).expect("opens");
        let mut ids = Vec::new();
        for op in &ops[..ops.len() - 1] {
            apply(&svc, op, &mut ids);
        }
        len_before_last = std::fs::metadata(persist::log_path(&dir, 0))
            .expect("log exists")
            .len();
        apply(&svc, &ops[ops.len() - 1], &mut ids);
    }
    let path = persist::log_path(&dir, 0);
    let mut bytes = std::fs::read(&path).expect("read log");
    let full_len = bytes.len() as u64;
    assert!(full_len > len_before_last, "final op appended nothing");
    // Flip one bit in the last frame's body.
    let target = len_before_last as usize + 8;
    bytes[target] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted log");

    let recovered = CloudService::with_storage(&dir, 1, FlushPolicy::EveryWrite).expect("reopens");
    let stats = recovered.storage_stats().expect("durable");
    assert_eq!(
        stats.recovered_truncated_bytes,
        full_len - len_before_last,
        "exactly the corrupted frame is dropped"
    );
    assert_eq!(stats.recovered_entries, ops.len() as u64 - 1);
    let oracle = CloudService::with_shards(1);
    let mut ids = Vec::new();
    for op in &ops[..ops.len() - 1] {
        apply(&oracle, op, &mut ids);
    }
    assert_equiv(&recovered, &oracle, &ids);
    // The dropped enrollment is really gone...
    assert_eq!(total_enrolled(&recovered), ops.len() - 1);
    // ...and the truncated log accepts new appends cleanly.
    apply(&recovered, &ops[ops.len() - 1], &mut Vec::new());
    assert_eq!(total_enrolled(&recovered), ops.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_log_written_under_m_shards_refuses_to_open_under_n() {
    let dir = temp_dir("layout");
    {
        let svc = durable(&dir, FlushPolicy::EveryWrite); // 4 shards
        apply(&svc, &Op::Enroll("ana".into(), 3), &mut Vec::new());
    }
    match CloudService::with_storage(&dir, 8, FlushPolicy::EveryWrite) {
        Err(StorageError::Wal(e)) => {
            let text = e.to_string();
            assert!(
                text.contains("4-shard layout") && text.contains("8-shard"),
                "unhelpful refusal: {text}"
            );
        }
        Err(other) => panic!("expected a layout refusal, got {other}"),
        Ok(_) => panic!("an 8-shard service replayed a 4-shard log"),
    }
    // The original layout still opens.
    let recovered = durable(&dir, FlushPolicy::EveryWrite);
    assert_eq!(total_enrolled(&recovered), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_shrinks_logs_and_preserves_the_recovered_state() {
    let dir = temp_dir("compaction");
    let ops = op_log(40);
    let mut ids = Vec::new();
    let config = || {
        StorageConfig::new(&dir)
            .flush(FlushPolicy::EveryN(4))
            .snapshot_every(5)
    };
    {
        let svc = CloudService::with_storage_config(config(), SHARDS).expect("opens");
        for op in &ops {
            apply(&svc, op, &mut ids);
        }
        let stats = svc.storage_stats().expect("durable");
        assert!(
            stats.snapshots_written > 0,
            "40 ops at snapshot_every=5 must compact: {stats:?}"
        );
    }
    let recovered = CloudService::with_storage_config(config(), SHARDS).expect("reopens");
    let stats = recovered.storage_stats().expect("durable");
    assert!(stats.recovered_snapshots > 0, "{stats:?}");
    assert!(
        stats.recovered_entries < ops.len() as u64,
        "snapshots must absorb most of the log: {stats:?}"
    );
    let (oracle, oracle_ids) = oracle_for_prefix(&ops, ops.len() - 1);
    assert_eq!(ids, oracle_ids);
    assert_equiv(&recovered, &oracle, &ids);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_batches_fsyncs_until_flushed() {
    let dir = temp_dir("group-commit");
    let svc = durable(&dir, FlushPolicy::EveryN(1_000));
    let mut ids = Vec::new();
    for op in op_log(10) {
        apply(&svc, &op, &mut ids);
    }
    let stats = svc.storage_stats().expect("durable");
    assert!(stats.appends >= 9, "{stats:?}");
    assert_eq!(
        stats.fsyncs, 0,
        "a 1000-append threshold must not sync 10: {stats:?}"
    );
    svc.flush_storage();
    let stats = svc.storage_stats().expect("durable");
    assert!(stats.fsyncs >= 1, "explicit flush must sync: {stats:?}");
    drop(svc);

    // Contrast: every-write syncs at least once per append.
    let dir2 = temp_dir("group-commit-everywrite");
    let svc = durable(&dir2, FlushPolicy::EveryWrite);
    let mut ids = Vec::new();
    for op in op_log(10) {
        apply(&svc, &op, &mut ids);
    }
    let stats = svc.storage_stats().expect("durable");
    assert_eq!(stats.fsyncs, stats.appends, "{stats:?}");
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn interval_policy_flushes_in_the_background() {
    let dir = temp_dir("interval");
    let svc = durable(
        &dir,
        FlushPolicy::EveryInterval(std::time::Duration::from_millis(5)),
    );
    apply(&svc, &Op::Enroll("ana".into(), 3), &mut Vec::new());
    // The background flusher owns the fsync; poll until it lands.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let stats = svc.storage_stats().expect("durable");
        if stats.fsyncs >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "interval flusher never fired: {stats:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    drop(svc);
    let recovered = durable(&dir, FlushPolicy::EveryWrite);
    assert_eq!(total_enrolled(&recovered), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log entry and a snapshot exactly as the JSON encoding wrote them
/// (`medsen_phone::to_json` of a `WalEntry`, and of the snapshot struct
/// that preceded the binary entry list), for a one-shard layout.
const JSON_ENROLL: &str =
    r#"{"Enroll":{"identifier":"ana","signature":{"counts":{"Bead358":40}}}}"#;
const JSON_STORE: &str = r#"{"Store":{"id":0,"record":{"user_id":"ana","report":{"peaks":[],"carriers_hz":[500000],"sample_rate_hz":450,"duration_s":1,"noise_sigma":0.0003},"signature":{"counts":{"Bead358":40}}}}}"#;
const JSON_SNAPSHOT: &str = r#"{"enrolled":[{"identifier":"bo","signature":{"counts":{"Bead358":80}}}],"records":[{"id":1,"record":{"user_id":"bo","report":{"peaks":[],"carriers_hz":[500000],"sample_rate_hz":450,"duration_s":1,"noise_sigma":0.0003},"signature":{"counts":{"Bead358":80}}}}]}"#;

fn dir_contents(dir: &Path) -> BTreeMap<std::ffi::OsString, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read data dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            (
                entry.file_name(),
                std::fs::read(entry.path()).expect("read file"),
            )
        })
        .collect()
}

/// Every JSON entry and snapshot starts with `{`, which no wire version
/// uses: opening such a directory fails with a typed error naming that
/// version before anything replays, and leaves every file as it was
/// (the frames pass their CRCs, so nothing is truncated either).
#[test]
fn a_json_era_directory_is_refused_and_left_untouched() {
    for with_snapshot in [false, true] {
        let dir = temp_dir(&format!("json-era-{with_snapshot}"));
        {
            let (wal, _) =
                medsen::store::Wal::open(&dir, 1, FlushPolicy::EveryWrite).expect("open raw");
            if with_snapshot {
                wal.install_snapshot(0, JSON_SNAPSHOT.as_bytes())
                    .expect("install snapshot");
            }
            // Frame kinds 1 (enroll) and 2 (store) are the same in both
            // encodings.
            wal.append(0, 1, JSON_ENROLL.as_bytes()).expect("append");
            wal.append(0, 2, JSON_STORE.as_bytes()).expect("append");
        }
        let before = dir_contents(&dir);
        match CloudService::with_storage(&dir, 1, FlushPolicy::EveryWrite) {
            Err(StorageError::Corrupt { shard, detail }) => {
                assert_eq!(shard, 0);
                let what = if with_snapshot {
                    "snapshot"
                } else {
                    "log entry"
                };
                assert!(detail.starts_with(what), "{detail}");
                assert!(
                    detail.contains(&format!("unsupported wire version {}", b'{')),
                    "{detail}"
                );
            }
            Err(other) => panic!("expected a typed refusal, got {other}"),
            Ok(_) => panic!("a JSON-era directory was replayed"),
        }
        assert_eq!(
            dir_contents(&dir),
            before,
            "the refused open changed a file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
