//! The cloud service façade: one request/response endpoint tying together
//! analysis, authentication, and record storage.
//!
//! The prototype's cloud is "a powerful server that runs Matlab"; a
//! deployable service needs an actual protocol. [`CloudService`] dispatches
//! [`Request`]s (binary or JSON bodies, as carried by the phone's
//! accessory/network frames) to the analysis server, the auth service, and
//! the record store, and returns [`Response`]s in the same format
//! ([`CloudService::handle_wire_shared`]). Everything stays inside the
//! curious-but-honest boundary: requests carry ciphertext traces and bead
//! statistics, never key material.

use crate::api::PeakReport;
use crate::auth::{self, AuthDecision, BeadSignature};
use crate::cache::{trace_digest, CacheStats, ResponseCache, DEFAULT_CACHE_CAPACITY};
use crate::persist::{self, CloudStore, StorageConfig, StorageError};
use crate::server::AnalysisServer;
use crate::shard::{shard_index, ShardStats, ShardedAuth};
use crate::storage::{RecordId, RecordStore, StoredRecord};
use medsen_dsp::classify::Classifier;
use medsen_impedance::SignalTrace;
use medsen_store::{FlushPolicy, WalStats};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;

/// A client request to the cloud service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Analyze an encrypted trace; optionally authenticate and store the
    /// result under the recovered identifier.
    Analyze {
        /// The encrypted multi-channel trace.
        trace: SignalTrace,
        /// Whether to classify beads and authenticate (plaintext sessions).
        authenticate: bool,
    },
    /// Enroll an identifier's expected bead signature.
    Enroll {
        /// Cloud-side identifier (an anonymous pipette alias or a user id).
        identifier: String,
        /// Expected bead counts.
        signature: BeadSignature,
    },
    /// Fetch a stored record by id.
    Fetch {
        /// The record to fetch.
        record_id: RecordId,
    },
    /// Verify a stored record's identifier binding (Sec. V integrity check).
    VerifyIntegrity {
        /// The record to verify.
        record_id: RecordId,
    },
    /// Service liveness probe.
    Ping,
}

/// The service's reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Analysis outcome (and, when requested, the auth decision and the id
    /// of the stored record).
    Analyzed {
        /// The peak statistics (the only thing the cloud ever "knows").
        report: PeakReport,
        /// Authentication outcome when `authenticate` was set.
        auth: Option<AuthDecision>,
        /// Record id when the result was stored (accepted auth only).
        stored_as: Option<RecordId>,
    },
    /// Enrollment acknowledged.
    Enrolled,
    /// A fetched record.
    Record(StoredRecord),
    /// Integrity verdict for a stored record.
    Integrity {
        /// Whether the record still matches its identifier.
        intact: bool,
    },
    /// Liveness reply.
    Pong,
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        reason: String,
    },
}

/// Default shard count for [`CloudService::new`]: enough independent
/// writer locks that a clinic-sized gateway worker pool never serializes
/// on enrollment, cheap enough that a single-dongle deployment does not
/// notice.
pub const DEFAULT_SHARD_COUNT: usize = 8;

/// The assembled cloud service.
///
/// Every stage is safe to drive from many threads at once through
/// [`CloudService::handle_shared`]: analysis is pure, and the enrollment
/// database and record store are split into [`CloudService::shard_count`]
/// independently locked shards routed by the stable identifier hash
/// ([`crate::shard::shard_index`]) — writers for different users take
/// different locks and proceed in parallel. The gateway worker pool
/// relies on this to serve concurrent dongle sessions against one shared
/// service instance, and aligns its per-shard worker lanes with the same
/// routing hash.
#[derive(Debug)]
pub struct CloudService {
    analysis: AnalysisServer,
    auth: ShardedAuth,
    store: RecordStore,
    classifier: Option<Classifier>,
    /// Durable-storage handle when the service was opened with
    /// [`CloudService::with_storage`]; `None` keeps the memory-only
    /// behavior (and cost) of the previous tiers.
    persist: Option<Arc<CloudStore>>,
    /// Appends per shard between automatic compaction snapshots
    /// (0 = never compact automatically).
    snapshot_every: u64,
    /// Content-addressed LRU of analysis reports: identical trace bytes
    /// (dongle retries, duplicate submissions) skip the DSP pipeline.
    cache: ResponseCache,
}

impl CloudService {
    /// Creates a service with the paper-default analysis pipeline and
    /// [`DEFAULT_SHARD_COUNT`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARD_COUNT)
    }

    /// Creates a service whose enrollment database and record store are
    /// split into `shard_count` independently locked shards.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero or exceeds
    /// [`MAX_SHARDS`](crate::shard::MAX_SHARDS).
    pub fn with_shards(shard_count: usize) -> Self {
        Self {
            analysis: AnalysisServer::paper_default(),
            auth: ShardedAuth::new(shard_count),
            store: RecordStore::with_shards(shard_count),
            classifier: None,
            persist: None,
            snapshot_every: 0,
            cache: ResponseCache::new(DEFAULT_CACHE_CAPACITY),
        }
    }

    /// Creates a durable service: every enrollment and record mutation is
    /// journaled to a per-shard write-ahead log under `dir` before it is
    /// applied, and any state already on disk is recovered first.
    ///
    /// `dir` must have been written by a `shard_count`-way service (or be
    /// empty/new); opening logs from a different layout fails with
    /// [`StorageError::Wal`] — see the `medsen-store` layout stamps.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be opened or the recovered state is
    /// undecodable / layout-inconsistent. After a successful open, write
    /// failures are **fail-stop** (panic) rather than silent — see
    /// [`crate::persist`].
    pub fn with_storage(
        dir: impl AsRef<Path>,
        shard_count: usize,
        policy: FlushPolicy,
    ) -> Result<Self, StorageError> {
        Self::with_storage_config(StorageConfig::new(dir.as_ref()).flush(policy), shard_count)
    }

    /// [`CloudService::with_storage`] with full control over the
    /// compaction threshold.
    pub fn with_storage_config(
        config: StorageConfig,
        shard_count: usize,
    ) -> Result<Self, StorageError> {
        let (auth, store, persist) = persist::open_storage(&config, shard_count)?;
        Ok(Self {
            analysis: AnalysisServer::paper_default(),
            auth,
            store,
            classifier: None,
            persist: Some(persist),
            snapshot_every: config.snapshot_every,
            cache: ResponseCache::new(DEFAULT_CACHE_CAPACITY),
        })
    }

    /// Pairs this durable service (as primary) with a durable `standby`:
    /// every journaled WAL frame ships to the standby after the local
    /// append, snapshot transfers catch up lagging shards, and the
    /// returned [`ReplicatedCloud`](crate::ReplicatedCloud) owns the
    /// fenced promotion path. See [`crate::replica`].
    ///
    /// # Errors
    ///
    /// Fails if the initial base snapshot transfer cannot be cut.
    ///
    /// # Panics
    ///
    /// Panics if either service is memory-only or the shard layouts
    /// disagree (wiring bugs, not runtime conditions).
    pub fn with_replication(
        self,
        standby: CloudService,
    ) -> Result<Arc<crate::replica::ReplicatedCloud>, StorageError> {
        crate::replica::ReplicatedCloud::pair(self, standby)
    }

    /// Whether the service journals to durable storage.
    pub fn is_durable(&self) -> bool {
        self.persist.is_some()
    }

    /// Whether replication has deposed this node: a ship was rejected
    /// for carrying a stale epoch, so a promoted standby is serving and
    /// this node's state can no longer be trusted. Always `false` for an
    /// unreplicated service.
    pub fn is_fenced(&self) -> bool {
        self.persist.as_ref().is_some_and(|p| p.is_fenced())
    }

    /// The durable-storage handle, for the replication wiring.
    pub(crate) fn cloud_store(&self) -> Option<&Arc<CloudStore>> {
        self.persist.as_ref()
    }

    /// Compacts one shard immediately (snapshot + log reset). With a
    /// replication hook attached this doubles as a snapshot transfer,
    /// which is how detached shards catch up.
    pub(crate) fn compact_shard_now(&self, shard: usize) -> Result<(), StorageError> {
        if let Some(persist) = &self.persist {
            persist::compact_shard(&self.auth, &self.store, persist, shard)?;
        }
        Ok(())
    }

    /// Applies one replicated WAL frame on a warm standby: decode,
    /// append to this node's own WAL (write-ahead), then replay into the
    /// in-memory shards through the idempotent restore paths.
    pub(crate) fn apply_replicated_frame(
        &self,
        shard: u32,
        kind: u8,
        payload: &[u8],
    ) -> Result<(), String> {
        let persist = self.persist.as_ref().ok_or("standby is not durable")?;
        let entry = persist::decode_entry(shard, kind, payload).map_err(|e| e.to_string())?;
        persist.append_replicated(shard, kind, payload)?;
        persist::replay_entry(&self.auth, &self.store, shard, self.shard_count(), entry)
            .map_err(|e| e.to_string())
    }

    /// Installs a replicated snapshot on a warm standby: durable first
    /// (tmp + fsync + rename, resetting this node's log generation),
    /// then replayed wholesale into the in-memory shards.
    pub(crate) fn install_replicated_snapshot(
        &self,
        shard: u32,
        blob: &[u8],
    ) -> Result<(), String> {
        let persist = self.persist.as_ref().ok_or("standby is not durable")?;
        persist.install_replicated_snapshot(shard, blob)?;
        persist::replay_snapshot_blob(&self.auth, &self.store, shard, self.shard_count(), blob)
            .map_err(|e| e.to_string())
    }

    /// Cumulative write-ahead-log counters, or `None` for a memory-only
    /// service.
    pub fn storage_stats(&self) -> Option<WalStats> {
        self.persist.as_ref().map(|p| p.stats())
    }

    /// Forces every shard's unsynced journal appends to disk regardless
    /// of the flush policy. Returns fsyncs issued (0 for a memory-only
    /// service or when nothing was pending).
    ///
    /// # Panics
    ///
    /// Panics if the flush fails (fail-stop, like the journal itself).
    pub fn flush_storage(&self) -> u64 {
        self.persist.as_ref().map_or(0, |p| p.flush())
    }

    /// Snapshots every shard's state and resets its log, regardless of
    /// the automatic threshold. No-op for a memory-only service.
    pub fn compact_storage(&self) -> Result<(), StorageError> {
        if let Some(persist) = &self.persist {
            for shard in 0..self.shard_count() {
                persist::compact_shard(&self.auth, &self.store, persist, shard)?;
            }
        }
        Ok(())
    }

    /// Compacts `shard` if its log has grown past the configured
    /// threshold. Called on the write paths after the shard lock is
    /// released, so the compactor can take both of the shard's locks.
    fn maybe_compact(&self, shard: usize) {
        let Some(persist) = &self.persist else { return };
        if self.snapshot_every == 0 {
            return;
        }
        if persist.appends_since_snapshot(shard) >= self.snapshot_every {
            // Compaction failure is fail-stop for the same reason journal
            // failure is: continuing would let the log grow unboundedly
            // on a disk that is already refusing writes.
            persist::compact_shard(&self.auth, &self.store, persist, shard)
                .unwrap_or_else(|e| panic!("cannot compact shard {shard} (failing stop): {e}"));
        }
    }

    /// How many ways the write path is sharded.
    pub fn shard_count(&self) -> usize {
        self.auth.shard_count()
    }

    /// Per-shard occupancy and lock-contention counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let mut stats = self.auth.stats();
        for (stat, records) in stats.iter_mut().zip(self.store.shard_lens()) {
            stat.records = records;
        }
        stats
    }

    /// Installs the bead/cell classifier (required for authentication).
    pub fn install_classifier(&mut self, classifier: Classifier) {
        self.classifier = Some(classifier);
    }

    /// Direct access to the record store (for operational tooling).
    pub fn store(&self) -> &RecordStore {
        &self.store
    }

    /// Response-cache hit/miss/occupancy counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Handles one request.
    pub fn handle(&mut self, request: Request) -> Response {
        self.handle_shared(request)
    }

    /// Handles one request through a shared reference.
    ///
    /// This is the entry point concurrent front-ends (the gateway worker
    /// pool) use; `handle` is the single-threaded convenience wrapper.
    pub fn handle_shared(&self, request: Request) -> Response {
        // A deposed primary fails closed on everything, reads included:
        // once a ship was rejected for a stale epoch, a promoted standby
        // may have moved past this node's state.
        if self.is_fenced() {
            return Response::Error {
                reason: "node deposed: a newer epoch is serving".into(),
            };
        }
        match request {
            Request::Ping => Response::Pong,
            Request::Enroll {
                identifier,
                signature,
            } => {
                let shard = shard_index(&identifier, self.shard_count());
                self.auth.enroll(identifier, signature);
                self.maybe_compact(shard);
                Response::Enrolled
            }
            Request::Fetch { record_id } => match self.store.fetch(record_id) {
                Some(record) => Response::Record(record),
                None => Response::Error {
                    reason: format!("no record {record_id:?}"),
                },
            },
            Request::VerifyIntegrity { record_id } => match self.store.fetch(record_id) {
                Some(record) => Response::Integrity {
                    intact: self
                        .auth
                        .verify_integrity(&record.user_id, &record.signature),
                },
                None => Response::Error {
                    reason: format!("no record {record_id:?}"),
                },
            },
            Request::Analyze {
                trace,
                authenticate,
            } => {
                if trace.channels().is_empty() {
                    return Response::Error {
                        reason: "trace has no channels".into(),
                    };
                }
                // Analysis is pure, so identical trace content yields the
                // cached report; only misses pay the DSP pipeline (and
                // only misses record an analysis span).
                let digest = trace_digest(&trace);
                let report = match self.cache.lookup(digest) {
                    Some(report) => report,
                    None => {
                        let started = std::time::Instant::now();
                        let report = self.analysis.analyze(&trace);
                        medsen_telemetry::record_since(
                            medsen_telemetry::Stage::Analysis,
                            0,
                            started,
                        );
                        // A finite trace can still divide by a zero
                        // baseline: an all-zero channel, which is what a
                        // disconnected electrode sends, detrends to NaN.
                        // Refuse it in both formats alike, and cache
                        // nothing for it.
                        if !report.is_finite() {
                            return Response::Error {
                                reason:
                                    "trace analysis is not finite: a channel has a zero baseline"
                                        .into(),
                            };
                        }
                        self.cache.insert(digest, report.clone());
                        report
                    }
                };
                if !authenticate {
                    return Response::Analyzed {
                        report,
                        auth: None,
                        stored_as: None,
                    };
                }
                let Some(classifier) = &self.classifier else {
                    return Response::Error {
                        reason: "no classifier installed for authentication".into(),
                    };
                };
                // Measurement is lock-free (pure function of the report);
                // authentication takes per-shard read locks only.
                let signature = auth::measure_signature(&report, classifier);
                let decision = self.auth.authenticate(&signature);
                let stored_as = if let AuthDecision::Accepted { user_id } = &decision {
                    let id = self.store.store(StoredRecord {
                        user_id: user_id.clone(),
                        report: report.clone(),
                        signature,
                    });
                    self.maybe_compact(id.shard());
                    Some(id)
                } else {
                    None
                };
                Response::Analyzed {
                    report,
                    auth: Some(decision),
                    stored_as,
                }
            }
        }
    }

    /// Handles one encoded request body in the selected wire format,
    /// returning the reply in the same format — the byte-level service
    /// entry the gateway drives. Total: a malformed body becomes an
    /// encoded `Error` reply, never a panic.
    ///
    /// Trace context is transparent end to end: a request carrying a
    /// trace id gets a reply carrying the same id, and an untraced
    /// request gets the byte-identical pre-trace-context reply.
    pub fn handle_wire_shared(&self, format: medsen_wire::WireFormat, body: &[u8]) -> Vec<u8> {
        let (response, trace) = match crate::wire::decode_request_traced(format, body) {
            Ok((request, trace)) => (self.handle_shared(request), trace.unwrap_or(0)),
            Err(e) => (
                Response::Error {
                    reason: format!("malformed request: {e}"),
                },
                0,
            ),
        };
        crate::wire::encode_response_traced(format, &response, trace)
            .unwrap_or_else(|e| crate::wire::encode_error(format, &format!("encode failure: {e}")))
    }
}

impl Default for CloudService {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_impedance::{PulseSpec, TraceSynthesizer};
    use medsen_microfluidics::ParticleKind;
    use medsen_units::Seconds;
    use medsen_wire::WireFormat;

    fn trace(n_pulses: usize) -> SignalTrace {
        let mut synth = TraceSynthesizer::clean(1);
        let pulses: Vec<PulseSpec> = (0..n_pulses)
            .map(|i| PulseSpec::unipolar(Seconds::new(0.5 + i as f64), Seconds::new(0.02), 0.01))
            .collect();
        synth.render(&pulses, Seconds::new(n_pulses as f64 + 1.0))
    }

    #[test]
    fn ping_pongs() {
        let mut svc = CloudService::new();
        assert_eq!(svc.handle(Request::Ping), Response::Pong);
    }

    #[test]
    fn analyze_without_auth_reports_peaks() {
        let mut svc = CloudService::new();
        let response = svc.handle(Request::Analyze {
            trace: trace(4),
            authenticate: false,
        });
        match response {
            Response::Analyzed {
                report,
                auth,
                stored_as,
            } => {
                assert_eq!(report.peak_count(), 4);
                assert!(auth.is_none());
                assert!(stored_as.is_none());
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn auth_without_classifier_errors() {
        let mut svc = CloudService::new();
        let response = svc.handle(Request::Analyze {
            trace: trace(1),
            authenticate: true,
        });
        assert!(matches!(response, Response::Error { .. }));
    }

    #[test]
    fn fetch_unknown_record_errors() {
        let mut svc = CloudService::new();
        assert!(matches!(
            svc.handle(Request::Fetch {
                record_id: RecordId(99)
            }),
            Response::Error { .. }
        ));
    }

    #[test]
    fn enroll_then_integrity_flow() {
        let mut svc = CloudService::new();
        let signature =
            BeadSignature::from_counts(&[(ParticleKind::Bead358, 40), (ParticleKind::Bead78, 10)]);
        assert_eq!(
            svc.handle(Request::Enroll {
                identifier: "pipette-7".into(),
                signature: signature.clone(),
            }),
            Response::Enrolled
        );
        // Store a record manually and verify it.
        let id = svc.store().store(StoredRecord {
            user_id: "pipette-7".into(),
            report: PeakReport {
                peaks: vec![],
                carriers_hz: vec![5e5],
                sample_rate_hz: 450.0,
                duration_s: 1.0,
                noise_sigma: 3.0e-4,
            },
            signature,
        });
        assert_eq!(
            svc.handle(Request::VerifyIntegrity { record_id: id }),
            Response::Integrity { intact: true }
        );
    }

    /// Serves one JSON request body through the byte-level entry point
    /// and decodes the JSON reply.
    fn serve_json(svc: &CloudService, request: &[u8]) -> Response {
        let reply = svc.handle_wire_shared(WireFormat::Json, request);
        crate::wire::decode_response(WireFormat::Json, &reply).expect("reply decodes")
    }

    fn json_request(request: &Request) -> Vec<u8> {
        crate::wire::encode_request(WireFormat::Json, request).expect("encodes")
    }

    #[test]
    fn json_interface_round_trips() {
        let svc = CloudService::new();
        let parsed = serve_json(&svc, &json_request(&Request::Ping));
        assert_eq!(parsed, Response::Pong);
    }

    #[test]
    fn json_interface_rejects_garbage_gracefully() {
        let svc = CloudService::new();
        let parsed = serve_json(&svc, b"not json at all");
        assert!(matches!(parsed, Response::Error { .. }));
    }

    #[test]
    fn reenroll_replaces_the_signature() {
        let mut svc = CloudService::new();
        let first = BeadSignature::from_counts(&[(ParticleKind::Bead358, 40)]);
        let second = BeadSignature::from_counts(&[(ParticleKind::Bead358, 80)]);
        svc.handle(Request::Enroll {
            identifier: "pipette-1".into(),
            signature: first.clone(),
        });
        let id = svc.store().store(StoredRecord {
            user_id: "pipette-1".into(),
            report: PeakReport {
                peaks: vec![],
                carriers_hz: vec![5e5],
                sample_rate_hz: 450.0,
                duration_s: 1.0,
                noise_sigma: 3.0e-4,
            },
            signature: first,
        });
        assert_eq!(
            svc.handle(Request::VerifyIntegrity { record_id: id }),
            Response::Integrity { intact: true }
        );
        // Re-enrolling the same identifier replaces the stored expectation:
        // the old record no longer verifies.
        assert_eq!(
            svc.handle(Request::Enroll {
                identifier: "pipette-1".into(),
                signature: second,
            }),
            Response::Enrolled
        );
        assert_eq!(
            svc.handle(Request::VerifyIntegrity { record_id: id }),
            Response::Integrity { intact: false }
        );
    }

    #[test]
    fn verify_integrity_of_unknown_record_errors() {
        let mut svc = CloudService::new();
        match svc.handle(Request::VerifyIntegrity {
            record_id: RecordId(12345),
        }) {
            Response::Error { reason } => assert!(reason.contains("12345")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn analyze_of_channelless_trace_errors() {
        let mut svc = CloudService::new();
        let empty = SignalTrace::new(medsen_units::Hertz::new(450.0), vec![]);
        match svc.handle(Request::Analyze {
            trace: empty,
            authenticate: false,
        }) {
            Response::Error { reason } => assert!(reason.contains("no channels")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn analyze_of_an_all_zero_trace_errors_and_caches_nothing() {
        let mut svc = CloudService::new();
        let mut electrode = medsen_impedance::Channel::new(medsen_units::Hertz::from_khz(500.0));
        electrode.samples = vec![0.0; 900];
        let zeros = SignalTrace::new(medsen_units::Hertz::new(450.0), vec![electrode]);
        for _ in 0..2 {
            match svc.handle(Request::Analyze {
                trace: zeros.clone(),
                authenticate: false,
            }) {
                Response::Error { reason } => assert!(reason.contains("not finite"), "{reason}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        let stats = svc.cache_stats();
        assert_eq!((stats.misses, stats.entries), (2, 0));
    }

    #[test]
    fn json_with_wrong_shape_yields_error_response() {
        let svc = CloudService::new();
        // Valid JSON, but not a valid Request: unknown variant and a
        // variant missing its payload fields.
        for bad in ["{\"Reboot\":{}}", "{\"Analyze\":{}}", "42", "[]"] {
            match serve_json(&svc, bad.as_bytes()) {
                Response::Error { reason } => {
                    assert!(
                        reason.contains("malformed request"),
                        "for input {bad}: {reason}"
                    )
                }
                other => panic!("for input {bad}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn handle_shared_serves_concurrent_callers() {
        let svc = CloudService::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..10 {
                        let sig =
                            BeadSignature::from_counts(&[(ParticleKind::Bead358, 10 + t * 10 + i)]);
                        assert_eq!(
                            svc.handle_shared(Request::Enroll {
                                identifier: format!("user-{t}"),
                                signature: sig,
                            }),
                            Response::Enrolled
                        );
                        assert_eq!(svc.handle_shared(Request::Ping), Response::Pong);
                    }
                });
            }
        });
        // Every thread's last enrollment is visible afterwards.
        for t in 0..8u64 {
            let sig = BeadSignature::from_counts(&[(ParticleKind::Bead358, 10 + t * 10 + 9)]);
            // Integrity check against the enrolled map via a fresh record.
            let id = svc.store().store(StoredRecord {
                user_id: format!("user-{t}"),
                report: PeakReport {
                    peaks: vec![],
                    carriers_hz: vec![5e5],
                    sample_rate_hz: 450.0,
                    duration_s: 1.0,
                    noise_sigma: 3.0e-4,
                },
                signature: sig,
            });
            assert_eq!(
                svc.handle_shared(Request::VerifyIntegrity { record_id: id }),
                Response::Integrity { intact: true },
                "thread {t}'s final enrollment must have won"
            );
        }
    }

    #[test]
    fn service_defaults_to_sharded_state() {
        let svc = CloudService::new();
        assert_eq!(svc.shard_count(), DEFAULT_SHARD_COUNT);
        assert_eq!(svc.shard_stats().len(), DEFAULT_SHARD_COUNT);
        assert_eq!(CloudService::with_shards(3).shard_count(), 3);
    }

    #[test]
    fn shard_stats_track_enrollments_and_records() {
        let svc = CloudService::with_shards(4);
        svc.handle_shared(Request::Enroll {
            identifier: "alice".into(),
            signature: BeadSignature::from_counts(&[(ParticleKind::Bead358, 40)]),
        });
        svc.store().store(StoredRecord {
            user_id: "alice".into(),
            report: PeakReport {
                peaks: vec![],
                carriers_hz: vec![5e5],
                sample_rate_hz: 450.0,
                duration_s: 1.0,
                noise_sigma: 3.0e-4,
            },
            signature: BeadSignature::from_counts(&[(ParticleKind::Bead358, 40)]),
        });
        let stats = svc.shard_stats();
        assert_eq!(stats.iter().map(|s| s.enrolled).sum::<usize>(), 1);
        assert_eq!(stats.iter().map(|s| s.records).sum::<usize>(), 1);
        assert_eq!(stats.iter().map(|s| s.write_acquisitions).sum::<u64>(), 1);
        // Enrollment and its record live on the same shard.
        let shard = crate::shard::shard_index("alice", 4);
        assert_eq!(stats[shard].enrolled, 1);
        assert_eq!(stats[shard].records, 1);
    }

    /// Regression for the `handle` / `handle_shared` unification: both
    /// entry points must be the same dispatch path, observable as equal
    /// responses for an identical request stream against identically
    /// prepared services.
    #[test]
    fn handle_and_handle_shared_produce_identical_responses() {
        let mut via_mut = CloudService::new();
        let via_shared = CloudService::new();
        let requests = [
            Request::Ping,
            Request::Enroll {
                identifier: "pipette-7".into(),
                signature: BeadSignature::from_counts(&[(ParticleKind::Bead358, 40)]),
            },
            Request::Analyze {
                trace: trace(3),
                authenticate: false,
            },
            Request::Analyze {
                trace: trace(2),
                authenticate: true, // no classifier → error path
            },
            Request::Fetch {
                record_id: RecordId(7),
            },
            Request::VerifyIntegrity {
                record_id: RecordId(7),
            },
        ];
        for request in requests {
            assert_eq!(
                via_mut.handle(request.clone()),
                via_shared.handle_shared(request.clone()),
                "dispatch paths diverged for {request:?}"
            );
        }
        // Both paths mutated the same state the same way.
        assert_eq!(via_mut.store().len(), via_shared.store().len());
    }

    /// Ids minted by a service with a different shard layout must fail
    /// closed through the request API: an error response, never a panic,
    /// never another user's record.
    #[test]
    fn foreign_shard_ids_error_through_the_service() {
        let eight = CloudService::with_shards(8);
        let two = CloudService::with_shards(2);
        let record = |user: &str| StoredRecord {
            user_id: user.into(),
            report: PeakReport {
                peaks: vec![],
                carriers_hz: vec![5e5],
                sample_rate_hz: 450.0,
                duration_s: 1.0,
                noise_sigma: 3.0e-4,
            },
            signature: BeadSignature::from_counts(&[(ParticleKind::Bead358, 40)]),
        };
        for i in 0..8 {
            two.store().store(record(&format!("user-{i}")));
        }
        let foreign = eight.store().store(record("alice"));
        for request in [
            Request::Fetch { record_id: foreign },
            Request::VerifyIntegrity { record_id: foreign },
        ] {
            assert!(
                matches!(two.handle_shared(request), Response::Error { .. }),
                "foreign id {foreign:?} must fail closed"
            );
        }
    }

    #[test]
    fn sharded_concurrent_enrolls_and_stores_do_not_collide() {
        let svc = CloudService::with_shards(8);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..20u64 {
                        let user = format!("user-{t}");
                        let sig =
                            BeadSignature::from_counts(&[(ParticleKind::Bead358, 10 + t + i)]);
                        assert_eq!(
                            svc.handle_shared(Request::Enroll {
                                identifier: user.clone(),
                                signature: sig.clone(),
                            }),
                            Response::Enrolled
                        );
                        let id = svc.store().store(StoredRecord {
                            user_id: user.clone(),
                            report: PeakReport {
                                peaks: vec![],
                                carriers_hz: vec![5e5],
                                sample_rate_hz: 450.0,
                                duration_s: 1.0,
                                noise_sigma: 3.0e-4,
                            },
                            signature: sig,
                        });
                        // Another user's traffic never aliases our id.
                        assert_eq!(svc.store().fetch(id).expect("stored").user_id, user);
                    }
                });
            }
        });
        assert_eq!(svc.store().len(), 160);
        for t in 0..8u64 {
            assert_eq!(svc.store().records_of(&format!("user-{t}")).len(), 20);
        }
    }

    /// Identical trace content must be answered from the response cache —
    /// and the cached report must be observationally identical to a fresh
    /// analysis.
    #[test]
    fn repeated_analyze_hits_the_response_cache() {
        let svc = CloudService::new();
        let request = Request::Analyze {
            trace: trace(3),
            authenticate: false,
        };
        let first = svc.handle_shared(request.clone());
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        let second = svc.handle_shared(request);
        assert_eq!(first, second, "cached report is byte-for-byte the same");
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // Different content misses again.
        svc.handle_shared(Request::Analyze {
            trace: trace(4),
            authenticate: false,
        });
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    fn analyze_request_survives_the_json_wire() {
        let svc = CloudService::new();
        let request = Request::Analyze {
            trace: trace(3),
            authenticate: false,
        };
        match serve_json(&svc, &json_request(&request)) {
            Response::Analyzed { report, .. } => assert_eq!(report.peak_count(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }
}
