//! Kill-point fault battery for warm-standby replication
//! (`CloudService::with_replication` over `medsen-replica`).
//!
//! The battery, in the style of `wal_recovery.rs`:
//!
//! * **Kill points** — a deterministic operation log runs against a
//!   replicated pair; at pseudo-random write boundaries the primary is
//!   killed (routing stops returning it and the replication link drops,
//!   the in-process analogue of a machine death). The standby promoted
//!   at each kill point must serve history observationally equivalent
//!   to a single-node oracle that replayed exactly the acknowledged
//!   prefix — zero acknowledged writes lost.
//! * **Concurrent storm** — 8 threads of enrolls, record filings, and
//!   analyze reads hammer the pair while a coordinator kills the
//!   primary at a sampled progress point. Every write acknowledged
//!   strictly before the kill must be served by the promoted standby;
//!   writes acked after failover land on the standby directly and must
//!   survive too.
//! * **Stale-epoch fencing** — a resurrected old primary's first
//!   journaled write ships under the deposed epoch, is rejected by the
//!   standby, and fails stop; thereafter the node refuses every request
//!   and gateway routing never returns it.

use medsen::cloud::auth::BeadSignature;
use medsen::cloud::service::{CloudService, Request, Response};
use medsen::cloud::storage::StoredRecord;
use medsen::cloud::{FlushPolicy, PeakReport, RecordId, ReplicatedCloud, StorageConfig};
use medsen::microfluidics::ParticleKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

const SHARDS: usize = 4;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "medsen-replica-failover-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// One step of the deterministic operation log (same shape as the
/// crash-recovery battery's, so the two oracles agree on semantics).
#[derive(Clone, Debug)]
enum Op {
    Enroll(String, u64),
    Store(String, u64),
    Tamper(usize),
}

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

/// Observational equivalence: identical totals, identical record
/// contents (or identical absence), identical integrity verdicts.
fn assert_equiv(served: &CloudService, oracle: &CloudService, ids: &[(String, RecordId)]) {
    assert_eq!(served.store().len(), oracle.store().len(), "record count");
    assert_eq!(
        total_enrolled(served),
        total_enrolled(oracle),
        "enrollments"
    );
    for (_, id) in ids {
        match (served.store().fetch(*id), oracle.store().fetch(*id)) {
            (Some(a), Some(b)) => assert_eq!(a, b, "record {id:?} diverged"),
            (None, None) => {}
            (a, b) => panic!("record {id:?}: served {a:?} vs oracle {b:?}"),
        }
        assert_eq!(
            served.handle_shared(Request::VerifyIntegrity { record_id: *id }),
            oracle.handle_shared(Request::VerifyIntegrity { record_id: *id }),
            "integrity verdict for {id:?} diverged"
        );
    }
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

fn replicated_pair(tag: &str) -> (Arc<ReplicatedCloud>, [PathBuf; 2]) {
    let dirs = [temp_dir(&format!("{tag}-p")), temp_dir(&format!("{tag}-s"))];
    let [primary, standby] = dirs.each_ref().map(|dir| {
        CloudService::with_storage_config(
            StorageConfig::new(dir).flush(FlushPolicy::EveryWrite),
            SHARDS,
        )
        .expect("storage opens")
    });
    let pair = primary.with_replication(standby).expect("pair wires up");
    (pair, dirs)
}

/// The headline battery: for every sampled kill point k, a fresh pair
/// runs `ops[..=k]`, the primary dies, and the promoted standby must
/// serve exactly the prefix oracle's history. Every write acked before
/// the kill was shipped before it was acked, so nothing may be missing.
#[test]
fn promoted_standby_at_every_sampled_kill_point_serves_the_prefix_oracle() {
    let ops = op_log(40);
    // The workspace's shared seeded RNG picks ~1/3 of the write
    // boundaries (deterministically — same sample every run).
    let mut kill_points = Vec::new();
    let mut rng = medsen::audit::AuditRng::derive(40, b"failover-kill-points");
    for k in 0..ops.len() {
        if rng.next_u64().is_multiple_of(3) || k + 1 == ops.len() {
            kill_points.push(k);
        }
    }
    assert!(kill_points.len() >= 8, "sampled too few kill points");
    for k in kill_points {
        let (pair, dirs) = replicated_pair(&format!("killpoint-{k}"));
        let mut created = Vec::new();
        for op in &ops[..=k] {
            apply(&pair.serving(), op, &mut created);
        }
        pair.kill_primary();
        let serving = pair.serving();
        assert!(pair.is_promoted(), "kill point {k}: routing must promote");
        assert!(
            Arc::ptr_eq(&serving, pair.standby()),
            "kill point {k}: the standby serves"
        );
        assert_eq!(pair.epoch(), 2, "kill point {k}");
        let (oracle, oracle_ids) = oracle_for_prefix(&ops, k);
        assert_eq!(created, oracle_ids, "kill point {k}: id allocation");
        assert_equiv(&serving, &oracle, &created);
        // The promoted node is a full primary: it keeps taking writes.
        apply(
            &serving,
            &Op::Enroll("post-failover".into(), 99),
            &mut created,
        );
        assert_eq!(total_enrolled(&serving), total_enrolled(&oracle) + 1);
        drop(pair);
        for dir in dirs {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// 8 threads hammer the pair — enrolls, record filings, and analyze-ish
/// reads — while the coordinator kills the primary at a sampled
/// progress point. The protocol threads use to classify an op as
/// *must-survive* is sound because shipping happens before the ack:
/// if the kill flag was still clear after the ack, the link was up when
/// the frame shipped, so the standby already applied it.
#[test]
fn concurrent_storm_with_a_mid_storm_kill_loses_no_acknowledged_write() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 24;
    // Sampled kill points spread across the storm's progress by the
    // workspace's shared seeded RNG.
    let mut kill_at = Vec::new();
    let mut rng = medsen::audit::AuditRng::derive(0, b"storm-kill-points");
    for _ in 0..3 {
        kill_at.push(8 + rng.below((THREADS * PER_THREAD - 40) as u64) as usize);
    }
    for (round, kill_threshold) in kill_at.into_iter().enumerate() {
        let (pair, dirs) = replicated_pair(&format!("storm-{round}"));
        let barrier = Barrier::new(THREADS + 1);
        // Raised *before* the link drops: any op that observes the flag
        // clear after its ack is guaranteed to have shipped.
        let killed = AtomicBool::new(false);
        let completed = AtomicUsize::new(0);
        let must_survive = Mutex::new(Vec::<(String, Option<RecordId>, u64)>::new());

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let pair = &pair;
                let barrier = &barrier;
                let killed = &killed;
                let completed = &completed;
                let must_survive = &must_survive;
                scope.spawn(move || {
                    barrier.wait();
                    let mut mine = Vec::new();
                    for i in 0..PER_THREAD {
                        let serving = pair.serving();
                        let user = format!("storm-{t}-{i}");
                        let n = 3 + (t * PER_THREAD + i) as u64;
                        let stored = match i % 3 {
                            0 => {
                                let response = serving.handle_shared(Request::Enroll {
                                    identifier: user.clone(),
                                    signature: sig(n),
                                });
                                assert_eq!(response, Response::Enrolled);
                                None
                            }
                            1 => Some(serving.store().store(record(&user, n))),
                            _ => {
                                // A read keeps the analyze path in the mix
                                // without journaling anything.
                                let response = serving.handle_shared(Request::Ping);
                                assert_eq!(response, Response::Pong);
                                completed.fetch_add(1, Ordering::SeqCst);
                                continue;
                            }
                        };
                        completed.fetch_add(1, Ordering::SeqCst);
                        // Acked, and the kill had not happened yet: the
                        // frame shipped over a live link. Must survive.
                        if !killed.load(Ordering::SeqCst) {
                            mine.push((user, stored, n));
                        }
                    }
                    must_survive.lock().unwrap().extend(mine);
                });
            }
            barrier.wait();
            while completed.load(Ordering::SeqCst) < kill_threshold {
                std::hint::spin_loop();
            }
            killed.store(true, Ordering::SeqCst);
            pair.kill_primary();
        });

        let serving = pair.serving();
        assert!(
            pair.is_promoted(),
            "round {round}: the storm must fail over"
        );
        assert!(
            Arc::ptr_eq(&serving, pair.standby()),
            "round {round}: the standby serves"
        );
        let survivors = must_survive.into_inner().unwrap();
        assert!(
            !survivors.is_empty(),
            "round {round}: the kill fired before any write was acked"
        );
        for (user, stored, n) in &survivors {
            match stored {
                None => {
                    // Enrollment: a fresh record filed on the promoted
                    // standby carrying the enrolled signature must verify
                    // intact — it can't if the enrollment was lost.
                    let probe = serving.store().store(record(user, *n));
                    assert_eq!(
                        serving.handle_shared(Request::VerifyIntegrity { record_id: probe }),
                        Response::Integrity { intact: true },
                        "round {round}: acknowledged enrollment of {user} lost"
                    );
                }
                Some(id) => {
                    let rec = serving.store().fetch(*id).unwrap_or_else(|| {
                        panic!("round {round}: acknowledged record {id:?} of {user} lost")
                    });
                    assert_eq!(&rec.user_id, user, "round {round}: record {id:?} leaked");
                }
            }
        }
        drop(pair);
        for dir in dirs {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A resurrected deposed primary fails closed at every level: its first
/// journaled write panics (fail-stop, nothing acked), the standby counts
/// the stale rejection, the node refuses all requests afterwards, and
/// gateway routing never sends traffic back to it.
#[test]
fn resurrected_stale_primary_fails_closed_everywhere() {
    use medsen::cloud::wire::encode_request;
    use medsen::gateway::{
        encode_upload_wire, Gateway, GatewayConfig, RuntimeKind, ShedPolicy, TelemetryConfig,
    };
    use medsen::wire::WireFormat;

    let (pair, dirs) = replicated_pair("fence");
    let old_primary = Arc::clone(pair.primary());
    apply(
        &pair.serving(),
        &Op::Enroll("alice".into(), 40),
        &mut Vec::new(),
    );
    pair.kill_primary();
    let gateway = Gateway::with_replicas(
        Arc::clone(&pair),
        GatewayConfig {
            queue_capacity: 8,
            workers: 2,
            shed_policy: ShedPolicy::Block,
        },
        RuntimeKind::Async,
        TelemetryConfig::disabled(),
    );
    // Gateway traffic triggers the promotion.
    let json = encode_request(WireFormat::Json, &Request::Ping).expect("encodes");
    let reply = gateway
        .submit(encode_upload_wire(1, WireFormat::Json, &json))
        .expect("accepted");
    assert_eq!(reply.wait().expect("served"), Response::Pong);
    assert!(pair.is_promoted());

    pair.resurrect_primary();
    // The zombie's first write discovers the deposition and fails stop —
    // the enrollment is NOT acknowledged.
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        old_primary.handle_shared(Request::Enroll {
            identifier: "zombie".into(),
            signature: sig(70),
        })
    }));
    assert!(attempt.is_err(), "a deposed write must not return");
    assert!(old_primary.is_fenced());
    assert!(matches!(
        old_primary.handle_shared(Request::Ping),
        Response::Error { .. }
    ));
    assert!(pair.status().standby.stale_rejected >= 1);
    // Routing still serves from the standby, which never saw the zombie
    // write.
    assert!(Arc::ptr_eq(&pair.serving(), pair.standby()));
    assert_eq!(total_enrolled(&pair.serving()), 1);
    let reply = gateway
        .submit(encode_upload_wire(2, WireFormat::Json, &json))
        .expect("accepted");
    assert_eq!(reply.wait().expect("served"), Response::Pong);
    gateway.shutdown();
    drop(pair);
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Lag accrued during a partition drains through snapshot catch-up, and
/// the stream then resumes frame-by-frame — the pair ends byte-equal to
/// the no-partition oracle.
#[test]
fn partition_then_catch_up_converges_to_the_oracle() {
    let ops = op_log(30);
    let (pair, dirs) = replicated_pair("catchup");
    let mut created = Vec::new();
    for op in &ops[..10] {
        apply(&pair.serving(), op, &mut created);
    }
    // Partition only the link: the primary keeps serving and acking
    // (no failover), the shipper detaches the lagging shards, and lag
    // grows for the duration.
    pair.partition_link();
    for op in &ops[10..20] {
        apply(&pair.serving(), op, &mut created);
    }
    assert!(!pair.is_promoted(), "a link blip must not fail over");
    assert!(
        pair.status().shipper.lag_bytes > 0,
        "ten partitioned writes must show up as lag"
    );
    pair.heal_link();
    for op in &ops[20..] {
        apply(&pair.serving(), op, &mut created);
    }
    pair.catch_up().expect("snapshot transfer");
    let status = pair.status();
    assert_eq!(status.shipper.lag_bytes, 0, "catch-up drains all lag");
    assert!(status.shards.iter().all(|s| s.attached));
    let (oracle, oracle_ids) = oracle_for_prefix(&ops, ops.len() - 1);
    assert_eq!(created, oracle_ids);
    assert_equiv(pair.standby(), &oracle, &created);
    drop(pair);
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
