//! Warm-standby pairing for the cloud tier.
//!
//! [`ReplicatedCloud`] pairs two durable [`CloudService`]s: the primary
//! serves traffic and ships every journaled WAL frame to the standby
//! right after the local append (under the journal's per-shard ship
//! lock, so frames arrive in append order at exact log offsets); the
//! standby appends each frame to its *own* WAL first (write-ahead, so a
//! standby crash loses nothing it acked) and then replays it into its
//! in-memory shards through the same idempotent restore paths recovery
//! uses. Lagging or freshly attached shards catch up via snapshot
//! transfer: a primary-side compaction cuts the shard's snapshot under
//! both shard locks, installs it locally (tmp + fsync + rename), and
//! ships the same blob — re-basing the stream at offset zero of the new
//! log generation.
//!
//! ## Failover and fencing
//!
//! [`ReplicatedCloud::promote`] bumps the standby's epoch; from then on
//! every ship from the old primary is rejected as stale and the old
//! primary fences itself **fail-stop**: the write that discovers the
//! deposition panics before mutating memory (the same fail-closed
//! discipline as a journal write failure), and every later request is
//! refused at the service entry point. Routing ([`ReplicatedCloud::
//! serving`]) never returns a dead or fenced node — the first caller to
//! observe a dead primary promotes the standby, so gateway traffic
//! fails over without losing any acknowledged write: everything acked
//! before the kill was either applied on the standby or covered by a
//! shipped snapshot.
//!
//! The hop between the nodes is in-process, but its cost is accounted
//! against the simulated LTE uplink [`NetworkLink`] (the paper's phone
//! connectivity), so `replica-status` can report what the stream would
//! have cost on the wire without slowing the storm tests to 50 ms per
//! frame.

use crate::persist::ReplicationHook;
use crate::service::CloudService;
use crate::StorageError;
use medsen_phone::NetworkLink;
use medsen_replica::{
    ApplySink, FrameShip, ReplicaError, ShipTransport, Shipper, ShipperStats, SnapshotShip,
    Standby, StandbyStats,
};
use medsen_wire::FRAME_OVERHEAD;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Epoch a fresh pair starts serving under.
const INITIAL_EPOCH: u64 = 1;

/// [`ApplySink`] over a warm standby [`CloudService`].
pub struct StandbyApplier {
    service: Arc<CloudService>,
}

impl ApplySink for StandbyApplier {
    fn apply_frame(&self, shard: u32, kind: u8, payload: &[u8]) -> Result<(), String> {
        self.service.apply_replicated_frame(shard, kind, payload)
    }

    fn install_snapshot(&self, shard: u32, blob: &[u8]) -> Result<(), String> {
        self.service.install_replicated_snapshot(shard, blob)
    }
}

/// The primary → standby hop: delivers into the standby state machine
/// in-process, accounts simulated wire time against a [`NetworkLink`],
/// and carries the kill switch the failover battery uses to partition
/// the pair.
pub struct ReplicaLink {
    standby: Arc<Standby<StandbyApplier>>,
    link: NetworkLink,
    down: AtomicBool,
    simulated_transfer_ns: AtomicU64,
}

impl ReplicaLink {
    fn new(standby: Arc<Standby<StandbyApplier>>, link: NetworkLink) -> Self {
        Self {
            standby,
            link,
            down: AtomicBool::new(false),
            simulated_transfer_ns: AtomicU64::new(0),
        }
    }

    fn account(&self, bytes: usize) {
        let seconds = self.link.transfer_time(bytes).value();
        if seconds.is_finite() {
            self.simulated_transfer_ns
                .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
        }
    }

    fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    /// Whether the pair is partitioned.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Microseconds the shipped stream would have spent on the modeled
    /// wire (latency + serialization per ship).
    pub fn simulated_transfer_us(&self) -> u64 {
        self.simulated_transfer_ns.load(Ordering::Relaxed) / 1_000
    }
}

impl ShipTransport for ReplicaLink {
    fn ship_frame(&self, frame: &FrameShip) -> Result<u64, ReplicaError> {
        if self.is_down() {
            return Err(ReplicaError::LinkDown);
        }
        self.account(frame.payload.len() + FRAME_OVERHEAD);
        self.standby.apply(frame)
    }

    fn ship_snapshot(&self, snap: &SnapshotShip) -> Result<u64, ReplicaError> {
        if self.is_down() {
            return Err(ReplicaError::LinkDown);
        }
        self.account(snap.blob.len());
        self.standby.install(snap)
    }
}

/// The journal-side hook: forwards every append and snapshot install to
/// the shipper. Soft failures (link down, detached shard) are swallowed
/// — the shipper counts them and lag grows until catch-up, which is the
/// warm-standby availability contract. A stale-epoch rejection means
/// this node was deposed: the write fails stop before memory mutates,
/// exactly like a journal write failure.
struct ShipHook {
    shipper: Arc<Shipper<Arc<ReplicaLink>>>,
}

impl ReplicationHook for ShipHook {
    fn frame_appended(
        &self,
        shard: u32,
        kind: u8,
        payload: &[u8],
        start_offset: u64,
        end_offset: u64,
    ) {
        match self
            .shipper
            .ship(shard, kind, payload, start_offset, end_offset)
        {
            Ok(_) | Err(ReplicaError::Detached { .. }) | Err(ReplicaError::LinkDown) => {}
            Err(err @ ReplicaError::StaleEpoch { .. }) => {
                panic!("deposed primary refusing to acknowledge a write (failing stop): {err}")
            }
            // Apply/gap failures detached the shard inside the shipper;
            // the primary keeps serving and the lag metric grows.
            Err(_) => {}
        }
    }

    fn snapshot_installed(&self, shard: u32, blob: &[u8]) {
        if let Err(err @ ReplicaError::StaleEpoch { .. }) =
            self.shipper.ship_snapshot(shard, blob, 0)
        {
            panic!("deposed primary refusing to compact (failing stop): {err}")
        }
    }

    fn is_fenced(&self) -> bool {
        self.shipper.is_fenced()
    }
}

/// One shard's replication cursors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaShardLag {
    /// The shard.
    pub shard: u32,
    /// Stream offset the primary's log has produced through.
    pub produced: u64,
    /// Offset the standby has acked through.
    pub acked: u64,
    /// Whether frames are flowing (false = awaiting snapshot catch-up).
    pub attached: bool,
}

/// Point-in-time view of the whole pair, for metrics and the CLI's
/// `replica-status` subcommand.
#[derive(Debug, Clone)]
pub struct ReplicaStatus {
    /// Serving epoch (the standby's fence — authoritative).
    pub epoch: u64,
    /// Whether the standby has been promoted to serving primary.
    pub promoted: bool,
    /// Whether the original primary has been killed.
    pub primary_down: bool,
    /// Whether the pair is partitioned.
    pub link_down: bool,
    /// Primary-side ship counters.
    pub shipper: ShipperStats,
    /// Standby-side apply counters.
    pub standby: StandbyStats,
    /// Per-shard stream cursors, in shard order.
    pub shards: Vec<ReplicaShardLag>,
    /// Microseconds the stream would have cost on the modeled uplink.
    pub simulated_transfer_us: u64,
}

/// A primary + warm-standby pair of durable [`CloudService`]s. See the
/// module docs for the protocol; construct via
/// [`CloudService::with_replication`].
pub struct ReplicatedCloud {
    primary: Arc<CloudService>,
    standby: Arc<CloudService>,
    shipper: Arc<Shipper<Arc<ReplicaLink>>>,
    standby_ctl: Arc<Standby<StandbyApplier>>,
    link: Arc<ReplicaLink>,
    primary_down: AtomicBool,
    promoted: AtomicBool,
}

impl std::fmt::Debug for ReplicatedCloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedCloud")
            .field("epoch", &self.epoch())
            .field("promoted", &self.is_promoted())
            .field("shipper", &self.shipper)
            .finish()
    }
}

impl ReplicatedCloud {
    /// Wires `primary` and `standby` into a replicated pair and ships
    /// the initial base snapshot for every shard (a full compaction
    /// doubles as the base transfer).
    ///
    /// # Errors
    ///
    /// Fails if the base compaction cannot be cut.
    ///
    /// # Panics
    ///
    /// Panics if either service is memory-only or the shard layouts
    /// disagree.
    pub(crate) fn pair(
        primary: CloudService,
        standby: CloudService,
    ) -> Result<Arc<Self>, StorageError> {
        assert!(
            primary.is_durable() && standby.is_durable(),
            "replication pairs durable services; open both with storage"
        );
        assert_eq!(
            primary.shard_count(),
            standby.shard_count(),
            "primary and standby must share a shard layout"
        );
        let shards = primary.shard_count() as u32;
        let primary = Arc::new(primary);
        let standby = Arc::new(standby);
        let standby_ctl = Arc::new(Standby::new(
            StandbyApplier {
                service: Arc::clone(&standby),
            },
            shards,
            INITIAL_EPOCH,
        ));
        let link = Arc::new(ReplicaLink::new(
            Arc::clone(&standby_ctl),
            NetworkLink::lte_uplink(),
        ));
        let shipper = Arc::new(Shipper::new(Arc::clone(&link), shards, INITIAL_EPOCH));
        primary
            .cloud_store()
            .expect("primary checked durable above")
            .attach_replication(Arc::new(ShipHook {
                shipper: Arc::clone(&shipper),
            }));
        let pair = Arc::new(Self {
            primary,
            standby,
            shipper,
            standby_ctl,
            link,
            primary_down: AtomicBool::new(false),
            promoted: AtomicBool::new(false),
        });
        // Base every shard's stream: the compaction snapshot is the
        // initial transfer, attaching all shards at offset zero.
        pair.primary.compact_storage()?;
        debug_assert!(pair.shipper.detached_shards().is_empty());
        Ok(pair)
    }

    /// The original primary node (may be dead or fenced — route through
    /// [`ReplicatedCloud::serving`] instead for live traffic).
    pub fn primary(&self) -> &Arc<CloudService> {
        &self.primary
    }

    /// The standby node (the serving primary after promotion).
    pub fn standby(&self) -> &Arc<CloudService> {
        &self.standby
    }

    /// The pair's serving epoch: the standby's fence, which every ship
    /// must clear.
    pub fn epoch(&self) -> u64 {
        self.standby_ctl.epoch()
    }

    /// Whether the standby has taken over as serving primary.
    pub fn is_promoted(&self) -> bool {
        self.promoted.load(Ordering::SeqCst)
    }

    /// The node requests should route to right now. Never returns a
    /// dead or fenced node: the first caller to observe the primary
    /// down (or deposed) promotes the standby, which is the gateway's
    /// failover-on-error path.
    pub fn serving(&self) -> Arc<CloudService> {
        if !self.is_promoted()
            && (self.primary_down.load(Ordering::SeqCst) || self.shipper.is_fenced())
        {
            self.promote();
        }
        if self.is_promoted() {
            Arc::clone(&self.standby)
        } else {
            Arc::clone(&self.primary)
        }
    }

    /// Models a primary crash: routing stops returning it and the
    /// replication link drops mid-stream.
    pub fn kill_primary(&self) {
        self.primary_down.store(true, Ordering::SeqCst);
        self.link.set_down(true);
    }

    /// Models the old primary coming back after a failover: the
    /// partition heals, but the standby stays promoted — the next write
    /// the resurrected node journals ships under its stale epoch, is
    /// rejected by the standby, and fences the node closed.
    pub fn resurrect_primary(&self) {
        self.link.set_down(false);
        self.primary_down.store(false, Ordering::SeqCst);
    }

    /// Drops only the replication link (the primary keeps serving and
    /// acking): lag grows until [`ReplicatedCloud::heal_link`] and
    /// [`ReplicatedCloud::catch_up`] drain it. This is the
    /// partition-without-failover scenario.
    pub fn partition_link(&self) {
        self.link.set_down(true);
    }

    /// Heals a link dropped by [`ReplicatedCloud::partition_link`].
    pub fn heal_link(&self) {
        self.link.set_down(false);
    }

    /// Promotes the standby to serving primary, bumping the epoch so
    /// ships from the deposed primary fail closed. Idempotent: only the
    /// first promotion bumps.
    pub fn promote(&self) -> u64 {
        if !self.promoted.swap(true, Ordering::SeqCst) {
            self.standby_ctl.promote()
        } else {
            self.standby_ctl.epoch()
        }
    }

    /// Re-bases every detached shard with a snapshot transfer (a
    /// primary-side compaction, which ships its snapshot). No-op when
    /// nothing is detached; meaningless after promotion.
    ///
    /// # Errors
    ///
    /// Fails if a compaction snapshot cannot be cut.
    pub fn catch_up(&self) -> Result<(), StorageError> {
        for shard in self.shipper.detached_shards() {
            self.primary.compact_shard_now(shard as usize)?;
        }
        Ok(())
    }

    /// Point-in-time counters and cursors for the whole pair.
    pub fn status(&self) -> ReplicaStatus {
        let shards = (0..self.shipper.shard_count())
            .map(|shard| {
                let (produced, acked) = self.shipper.offsets(shard);
                ReplicaShardLag {
                    shard,
                    produced,
                    acked,
                    attached: self.shipper.is_attached(shard),
                }
            })
            .collect();
        ReplicaStatus {
            epoch: self.epoch(),
            promoted: self.is_promoted(),
            primary_down: self.primary_down.load(Ordering::SeqCst),
            link_down: self.link.is_down(),
            shipper: self.shipper.stats(),
            standby: self.standby_ctl.stats(),
            shards,
            simulated_transfer_us: self.link.simulated_transfer_us(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PeakReport;
    use crate::auth::BeadSignature;
    use crate::service::{Request, Response};
    use crate::storage::StoredRecord;
    use crate::{FlushPolicy, StorageConfig};
    use medsen_microfluidics::ParticleKind;
    use std::path::PathBuf;

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
            "medsen-replica-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable(dir: &PathBuf, shards: usize) -> CloudService {
        CloudService::with_storage_config(
            StorageConfig::new(dir).flush(FlushPolicy::EveryWrite),
            shards,
        )
        .expect("open")
    }

    fn pair_in(tag: &str, shards: usize) -> (Arc<ReplicatedCloud>, PathBuf, PathBuf) {
        let primary_dir = temp_dir(&format!("{tag}-p"));
        let standby_dir = temp_dir(&format!("{tag}-s"));
        let pair = durable(&primary_dir, shards)
            .with_replication(durable(&standby_dir, shards))
            .expect("pair");
        (pair, primary_dir, standby_dir)
    }

    #[test]
    fn every_write_reaches_the_standby_as_it_happens() {
        let (pair, pd, sd) = pair_in("mirror", 4);
        let primary = pair.serving();
        assert_eq!(
            primary.handle_shared(Request::Enroll {
                identifier: "alice".into(),
                signature: sig(40),
            }),
            Response::Enrolled
        );
        let id = primary.store().store(record("alice"));
        primary.store().tamper(id, record("mallory"));

        // No failover, no flush: the standby is already warm.
        let standby = pair.standby();
        assert_eq!(standby.store().len(), 1);
        assert_eq!(
            standby.store().fetch(id).expect("mirrored").user_id,
            "mallory"
        );
        assert_eq!(
            standby
                .shard_stats()
                .iter()
                .map(|s| s.enrolled)
                .sum::<usize>(),
            1
        );

        let status = pair.status();
        assert_eq!(status.epoch, 1);
        assert!(!status.promoted);
        assert_eq!(status.shipper.shipped_frames, 3);
        assert_eq!(status.shipper.lag_bytes, 0);
        assert_eq!(status.standby.applied_frames, 3);
        assert!(
            status.simulated_transfer_us > 0,
            "the modeled wire is accounted"
        );
        assert!(status.shards.iter().all(|s| s.attached));
        let _ = std::fs::remove_dir_all(&pd);
        let _ = std::fs::remove_dir_all(&sd);
    }

    #[test]
    fn killing_the_primary_promotes_the_standby_with_history_intact() {
        let (pair, pd, sd) = pair_in("failover", 2);
        let primary = pair.serving();
        primary.handle_shared(Request::Enroll {
            identifier: "alice".into(),
            signature: sig(100),
        });
        let id = primary.store().store(record("alice"));

        pair.kill_primary();
        let serving = pair.serving();
        assert!(pair.is_promoted(), "routing auto-promotes a dead primary");
        assert_eq!(pair.epoch(), 2);
        assert!(
            Arc::ptr_eq(&serving, pair.standby()),
            "the promoted standby serves"
        );
        // Every acknowledged write survives the failover.
        assert_eq!(
            serving.handle_shared(Request::VerifyIntegrity { record_id: id }),
            Response::Integrity { intact: true }
        );
        // And the promoted node keeps journaling its own writes.
        serving.handle_shared(Request::Enroll {
            identifier: "bob".into(),
            signature: sig(80),
        });
        assert_eq!(
            serving
                .shard_stats()
                .iter()
                .map(|s| s.enrolled)
                .sum::<usize>(),
            2
        );
        let _ = std::fs::remove_dir_all(&pd);
        let _ = std::fs::remove_dir_all(&sd);
    }

    #[test]
    fn resurrected_old_primary_fails_closed() {
        let (pair, pd, sd) = pair_in("fence", 2);
        let old_primary = Arc::clone(pair.primary());
        old_primary.handle_shared(Request::Enroll {
            identifier: "alice".into(),
            signature: sig(40),
        });
        pair.kill_primary();
        pair.serving(); // promotes
        pair.resurrect_primary();

        // The resurrected node's first journaled write ships under the
        // stale epoch, is rejected by the standby, and fails stop.
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            old_primary.handle_shared(Request::Enroll {
                identifier: "late".into(),
                signature: sig(90),
            })
        }));
        assert!(attempt.is_err(), "a deposed write must not be acknowledged");
        assert!(old_primary.is_fenced());
        // From then on every request is refused at the entry point,
        // reads included.
        for request in [
            Request::Ping,
            Request::VerifyIntegrity {
                record_id: crate::storage::RecordId(0),
            },
        ] {
            assert!(matches!(
                old_primary.handle_shared(request),
                Response::Error { .. }
            ));
        }
        // The deposed write never reached memory, and never reached the
        // standby.
        let status = pair.status();
        assert!(status.standby.stale_rejected >= 1);
        assert_eq!(
            pair.serving()
                .shard_stats()
                .iter()
                .map(|s| s.enrolled)
                .sum::<usize>(),
            1,
            "only the pre-failover enrollment exists"
        );
        // Routing still never returns the fenced node.
        assert!(Arc::ptr_eq(&pair.serving(), pair.standby()));
        let _ = std::fs::remove_dir_all(&pd);
        let _ = std::fs::remove_dir_all(&sd);
    }

    #[test]
    fn partition_grows_lag_and_snapshot_catch_up_drains_it() {
        let (pair, pd, sd) = pair_in("catchup", 2);
        let primary = pair.serving();
        primary.handle_shared(Request::Enroll {
            identifier: "alice".into(),
            signature: sig(40),
        });
        // Partition without killing: the primary keeps serving, lag grows.
        pair.link.set_down(true);
        primary.store().store(record("alice"));
        primary.store().store(record("alice"));
        let status = pair.status();
        assert!(
            status.shipper.lag_bytes > 0,
            "unshipped bytes are visible as lag"
        );
        assert!(status.shards.iter().any(|s| !s.attached));

        // Heal and catch up: one snapshot transfer per detached shard.
        pair.link.set_down(false);
        pair.catch_up().expect("catch up");
        let status = pair.status();
        assert_eq!(status.shipper.lag_bytes, 0);
        assert!(status.shards.iter().all(|s| s.attached));
        assert!(
            status.standby.snapshots_installed > 2,
            "base + catch-up snapshots"
        );
        assert_eq!(pair.standby().store().len(), 2);
        // The stream resumes frame-by-frame after the re-base.
        primary.store().store(record("alice"));
        assert_eq!(pair.standby().store().len(), 3);
        let _ = std::fs::remove_dir_all(&pd);
        let _ = std::fs::remove_dir_all(&sd);
    }

    #[test]
    fn primary_compaction_rebases_the_stream_transparently() {
        let (pair, pd, sd) = pair_in("compact", 1);
        let primary = pair.serving();
        for _ in 0..5 {
            primary.store().store(record("alice"));
        }
        primary.compact_storage().expect("compact");
        // The compaction shipped its snapshot; frames flow at the new
        // generation's offsets.
        primary.store().store(record("alice"));
        assert_eq!(pair.standby().store().len(), 6);
        let status = pair.status();
        assert_eq!(status.shipper.lag_bytes, 0);
        assert!(status.shards[0].attached);
        let _ = std::fs::remove_dir_all(&pd);
        let _ = std::fs::remove_dir_all(&sd);
    }

    #[test]
    #[should_panic(expected = "share a shard layout")]
    fn mismatched_layouts_are_refused() {
        let pd = temp_dir("layout-p");
        let sd = temp_dir("layout-s");
        let _ = durable(&pd, 4).with_replication(durable(&sd, 2));
    }

    #[test]
    #[should_panic(expected = "durable services")]
    fn memory_only_nodes_are_refused() {
        let sd = temp_dir("memonly-s");
        let _ = CloudService::with_shards(2).with_replication(durable(&sd, 2));
    }
}
