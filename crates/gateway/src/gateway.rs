//! The bounded work-queue executor behind the gateway.
//!
//! [`Gateway`] fronts one shared [`CloudService`] with a bounded queue
//! and a pool of workers. Sessions submit framed uploads tagged with a
//! [`WireFormat`]; a worker reassembles each upload, drives the service
//! through [`CloudService::handle_wire_shared`] in that format, and
//! posts the encoded response back on a per-request reply channel
//! ([`PendingReply`]).
//!
//! The queue is split into **lanes** aligned with the cloud tier's
//! identifier-hash shards: `lanes = shards.min(workers).max(1)`, each
//! lane a bounded channel of `queue_capacity / lanes` slots with its own
//! worker group (worker *w* drains lane *w mod lanes*). Submissions
//! carry a route key ([`Gateway::submit_keyed`]) — enrollments route by
//! [`medsen_cloud::identity_hash`] of the identifier so writes to the
//! same auth shard serialize in the same lane, everything else routes by
//! session id. With one shard (or one worker) this degenerates to the
//! original single-queue gateway.
//!
//! The pool is M worker *tasks* multiplexed over a fixed pool of
//! `medsen-runtime` executor threads, each lane being one of the
//! runtime's async MPMC channels. Idle workers cost a task, not a
//! thread, which is what lets one gateway host thousands of
//! low-duty-cycle sessions.
//!
//! Backpressure is explicit: when the queue is full the [`ShedPolicy`]
//! either blocks the submitter or sheds the request with a retry-after
//! hint, and every outcome lands in [`GatewayMetrics`]. Retry-after and
//! backoff waits are paced in compressed simulated time (real time is the
//! wait ÷ `TIME_COMPRESSION`), so shed-heavy tests cost milliseconds of
//! real time, not seconds.

use crate::fountain::{
    FountainConfig, FountainIngestError, FountainIngress, FountainInstruments, IngestStep,
};
use crate::limit::{RateLimitConfig, RateLimiter};
use crate::metrics::{GatewayMetrics, MetricsSnapshot};
use crate::wire;
use medsen_cloud::service::{CloudService, Request, Response};
use medsen_cloud::ReplicatedCloud;
use medsen_fountain::{decode_symbol_frame, DecoderStats, SymbolFrameError};
use medsen_runtime as runtime;
use medsen_telemetry::{
    spans_json_lines, text_exposition, ActiveTrace, Exemplars, OverloadSignal, Registry,
    RegistrySnapshot, Sampler, SamplerMode, SlowTrace, SpanRecorder, Stage, TraceId,
    DEFAULT_EXEMPLARS, DEFAULT_RING_CAPACITY,
};
use medsen_units::Seconds;
use medsen_wire::WireFormat;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Simulated-to-real compression for retry-after and backoff pacing: a
/// 50 ms simulated shed wait parks the session for 1 ms of real time.
/// Drain pacing survives (sessions still retry at a bounded rate), but a
/// shed-heavy fleet test no longer burns wall-clock seconds.
const TIME_COMPRESSION: f64 = 50.0;

/// Upper bound on executor threads; worker *tasks* scale independently
/// of this.
const MAX_EXECUTOR_THREADS: usize = 8;

/// One adaptive-sampler feedback observation per this many arrivals
/// (submissions + fountain symbols). Power of two so the stride check is
/// a mask, not a modulo.
const SAMPLER_OBSERVE_STRIDE: u64 = 1024;

/// The worker engine argument of [`Gateway::with_telemetry`] and
/// [`Gateway::with_replicas`]. It selects nothing: the gateway has one
/// engine, worker tasks on the `medsen-runtime` executor, and this
/// single-variant type only keeps those two signatures stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Worker tasks on the `medsen-runtime` executor (fixed thread pool).
    Async,
}

/// What to do with a submission when the work queue is full.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedPolicy {
    /// Block the submitting session until a slot frees up.
    Block,
    /// Reject immediately, telling the client to retry after the given
    /// (simulated) interval.
    Reject {
        /// Retry-after hint returned with [`SubmitError::Busy`].
        retry_after: Seconds,
    },
}

/// Sizing and shedding knobs for a [`Gateway`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// Bounded work-queue capacity (must be > 0).
    pub queue_capacity: usize,
    /// Worker task count. `0` is allowed and means "never drain" —
    /// useful for deterministically exercising the backpressure path in
    /// tests.
    pub workers: usize,
    /// Full-queue behavior.
    pub shed_policy: ShedPolicy,
}

impl GatewayConfig {
    /// A small-clinic default: a few workers, a queue deep enough to absorb
    /// bursts, and shed-with-retry rather than blocking the dongle.
    pub fn clinic_default() -> Self {
        Self {
            queue_capacity: 64,
            workers: 4,
            shed_policy: ShedPolicy::Reject {
                retry_after: Seconds::from_millis(50.0),
            },
        }
    }
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self::clinic_default()
    }
}

/// Span-tracing knobs for a [`Gateway`], separate from [`GatewayConfig`]
/// so existing sizing literals keep compiling.
///
/// Counters and histograms are always on (they predate this config and
/// cost a handful of relaxed atomics); this only governs the *span*
/// machinery — trace minting, ring recording, and slow-request exemplars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Mint a [`TraceId`] per admitted request and record per-stage spans.
    pub spans: bool,
    /// Span ring capacity (rounded up to a power of two).
    pub ring_capacity: usize,
    /// How many worst end-to-end traces to retain as exemplars.
    pub exemplars: usize,
    /// Head-sampling policy for spans. [`SamplerMode::Always`] (the
    /// default) records everything with zero sampling machinery in the
    /// path; the other modes route every span through a [`Sampler`]
    /// funnel so `recorded + sampled_out == admitted` holds exactly.
    pub sampling: SamplerMode,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            spans: true,
            ring_capacity: DEFAULT_RING_CAPACITY,
            exemplars: DEFAULT_EXEMPLARS,
            sampling: SamplerMode::Always,
        }
    }
}

impl TelemetryConfig {
    /// Spans and exemplars off; counters and the registry stay live.
    pub fn disabled() -> Self {
        Self {
            spans: false,
            ..Self::default()
        }
    }

    /// Spans on with the overload-adaptive head sampler: keep
    /// probability starts at 100% and the AIMD controller halves it
    /// whenever the gateway sheds, rate-limits, or churns the span ring.
    pub fn adaptive() -> Self {
        Self {
            sampling: SamplerMode::Adaptive,
            ..Self::default()
        }
    }
}

/// The span-tracing half of the gateway's telemetry: the shared ring the
/// whole stack records into, plus the K-worst exemplar tracker fed on
/// completion. Present only when [`TelemetryConfig::spans`] is on.
#[derive(Debug)]
struct GatewayTracing {
    recorder: Arc<SpanRecorder>,
    exemplars: Exemplars,
    /// The head-sampling funnel; `None` under [`SamplerMode::Always`]
    /// (the zero-overhead record-everything path).
    sampler: Option<Arc<Sampler>>,
}

/// A submission that did not enter the queue. Carries the upload back so
/// the caller can retry without re-encoding.
pub enum SubmitError {
    /// The queue was full under [`ShedPolicy::Reject`].
    Busy {
        /// How long the client should (simulated-)wait before retrying.
        retry_after: Seconds,
        /// The rejected upload, returned for resubmission.
        upload: Vec<u8>,
    },
    /// The session is over its token-bucket rate. Distinct from
    /// [`SubmitError::Busy`] so callers (and the soak harness's exact
    /// reconciliation ledger) can tell "the gateway is full" from "this
    /// device is too loud" without consulting counters.
    RateLimited {
        /// Real time until the session's bucket refills.
        retry_after: Seconds,
        /// The refused upload, returned for resubmission.
        upload: Vec<u8>,
    },
    /// The gateway has shut down or been drained.
    Closed {
        /// The undeliverable upload.
        upload: Vec<u8>,
    },
}

impl fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy {
                retry_after,
                upload,
            } => f
                .debug_struct("Busy")
                .field("retry_after", retry_after)
                .field("upload_bytes", &upload.len())
                .finish(),
            SubmitError::RateLimited {
                retry_after,
                upload,
            } => f
                .debug_struct("RateLimited")
                .field("retry_after", retry_after)
                .field("upload_bytes", &upload.len())
                .finish(),
            SubmitError::Closed { upload } => f
                .debug_struct("Closed")
                .field("upload_bytes", &upload.len())
                .finish(),
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy { retry_after, .. } => {
                write!(f, "gateway queue full, retry after {retry_after}")
            }
            SubmitError::RateLimited { retry_after, .. } => {
                write!(f, "session rate limited, retry after {retry_after}")
            }
            SubmitError::Closed { .. } => write!(f, "gateway is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Bounded shed-retry budget for dispatching a reassembled one-way
/// upload into the queue. The phone cannot retry (no downlink), so the
/// gateway absorbs backpressure on its behalf — but a saturated queue
/// must surface as [`SymbolSubmitError::Shed`], not a hang.
const DISPATCH_ATTEMPTS: u32 = 32;

/// What one fountain symbol did on the gateway's one-way upload route
/// (see [`Gateway::ingest_symbol`]).
#[derive(Debug)]
pub enum SymbolIngest {
    /// Accepted; the session needs more symbols.
    Progress {
        /// The upload session the symbol belongs to.
        session_id: u64,
        /// Source symbols recovered so far.
        recovered: usize,
        /// Source symbols in the block (`k`).
        total: usize,
    },
    /// Accepted but linearly dependent on symbols already held.
    Redundant {
        /// The upload session the symbol belongs to.
        session_id: u64,
    },
    /// Straggler for a session that already completed and dispatched.
    AlreadyComplete {
        /// The upload session the symbol belongs to.
        session_id: u64,
    },
    /// This symbol finished the block: the reassembled request is now in
    /// the queue and `reply` will produce its response.
    Complete {
        /// The upload session that completed.
        session_id: u64,
        /// The dispatched request's reply handle.
        reply: PendingReply,
        /// Decoder counters for the completed session.
        stats: DecoderStats,
    },
}

/// Why a symbol was refused by [`Gateway::ingest_symbol`].
#[derive(Debug)]
pub enum SymbolSubmitError {
    /// The symbol frame failed to parse or verify (dropped before any
    /// session state was touched).
    Frame(SymbolFrameError),
    /// The session is over its token-bucket rate; the symbol was dropped.
    /// On a one-way link the phone never sees this — the hint sizes the
    /// *gateway-side* expectation of when the stream is worth resuming.
    RateLimited {
        /// The offending session.
        session_id: u64,
        /// Real time until the bucket refills.
        retry_after: Seconds,
    },
    /// The decoder refused the symbol (stream mismatch or buffer blowout).
    Ingest(FountainIngestError),
    /// The block decoded but its payload is not a valid request upload.
    CorruptUpload {
        /// The session whose block was bad.
        session_id: u64,
        /// What failed (decompression, UTF-8, or JSON decode).
        detail: String,
    },
    /// The reassembled request could not enter the queue within the
    /// bounded dispatch-retry budget; the decoded block is lost and the
    /// phone's next full stream will retry the upload.
    Shed {
        /// The session whose dispatch was shed.
        session_id: u64,
        /// The queue's final retry-after hint.
        retry_after: Seconds,
    },
    /// The gateway has shut down or been drained.
    Closed,
}

impl fmt::Display for SymbolSubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolSubmitError::Frame(e) => write!(f, "bad symbol frame: {e}"),
            SymbolSubmitError::RateLimited {
                session_id,
                retry_after,
            } => write!(
                f,
                "session {session_id} rate limited, retry after {retry_after}"
            ),
            SymbolSubmitError::Ingest(e) => write!(f, "symbol refused: {e}"),
            SymbolSubmitError::CorruptUpload { session_id, detail } => {
                write!(
                    f,
                    "session {session_id} reassembled a corrupt upload: {detail}"
                )
            }
            SymbolSubmitError::Shed {
                session_id,
                retry_after,
            } => write!(
                f,
                "session {session_id} decoded but the queue shed it, retry after {retry_after}"
            ),
            SymbolSubmitError::Closed => write!(f, "gateway is shut down"),
        }
    }
}

impl std::error::Error for SymbolSubmitError {}

impl From<SymbolFrameError> for SymbolSubmitError {
    fn from(e: SymbolFrameError) -> Self {
        SymbolSubmitError::Frame(e)
    }
}

impl From<FountainIngestError> for SymbolSubmitError {
    fn from(e: FountainIngestError) -> Self {
        SymbolSubmitError::Ingest(e)
    }
}

/// Why a reply never materialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyError {
    /// The gateway shut down before serving the request.
    Lost,
    /// The worker's response was not decodable in the reply's wire
    /// format.
    Malformed {
        /// Decoder diagnostics.
        reason: String,
    },
}

impl fmt::Display for ReplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplyError::Lost => write!(f, "gateway dropped the request before replying"),
            ReplyError::Malformed { reason } => write!(f, "malformed gateway response: {reason}"),
        }
    }
}

impl std::error::Error for ReplyError {}

/// A handle to one in-flight request's eventual response.
#[derive(Debug)]
pub struct PendingReply {
    rx: Receiver<Vec<u8>>,
    /// The wire format the reply is encoded in — peeked off the upload
    /// header at submit time, so `wait` knows which decoder to run
    /// without sniffing bytes.
    format: WireFormat,
    /// The request's trace context, so [`PendingReply::wait`] can close
    /// the chain with a phone-side `ReplyDecode` span. `None` when spans
    /// are off.
    trace: Option<ActiveTrace>,
}

impl PendingReply {
    /// Blocks until the worker replies, returning the raw response bytes
    /// (JSON text or a binary wire frame, per [`PendingReply::format`]).
    pub fn wait_raw(self) -> Result<Vec<u8>, ReplyError> {
        self.rx.recv().map_err(|_| ReplyError::Lost)
    }

    /// The wire format the reply will arrive in.
    pub fn format(&self) -> WireFormat {
        self.format
    }

    /// The trace id this reply will decode under, when spans are on.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.trace.as_ref().map(|t| t.id)
    }

    /// Blocks until the worker replies and decodes the [`Response`] —
    /// the phone-side terminus of the trace chain, recorded as a
    /// `ReplyDecode` span around the decode itself.
    pub fn wait(self) -> Result<Response, ReplyError> {
        let format = self.format;
        let trace = self.trace.clone();
        let bytes = self.wait_raw()?;
        let started = Instant::now();
        let decoded = medsen_cloud::wire::decode_response_traced(format, &bytes)
            .map(|(response, _)| response)
            .map_err(|e| ReplyError::Malformed {
                reason: e.to_string(),
            });
        if let Some(trace) = &trace {
            trace.record(Stage::ReplyDecode, 0, started, Instant::now());
        }
        decoded
    }
}

/// Where worker requests go: one shared service, or a replicated pair
/// routed through [`ReplicatedCloud::serving`] so traffic follows a
/// promotion without the workers being told.
#[derive(Clone)]
enum ServiceRoute {
    Single(Arc<CloudService>),
    Replicated(Arc<ReplicatedCloud>),
}

impl ServiceRoute {
    /// The node to dispatch the next request to. For a replicated pair
    /// this consults the pair every call — the first dispatch after a
    /// primary death (or deposition) promotes the standby and routes
    /// there, which is the gateway's failover path.
    fn serving(&self) -> Arc<CloudService> {
        match self {
            ServiceRoute::Single(service) => Arc::clone(service),
            ServiceRoute::Replicated(pair) => pair.serving(),
        }
    }

    /// Same routing decision, by reference (for snapshot paths that only
    /// read stats off the current node).
    fn serving_ref(&self) -> &Arc<CloudService> {
        match self {
            ServiceRoute::Single(service) => service,
            ServiceRoute::Replicated(pair) => {
                let _ = pair.serving(); // promote if the primary is gone
                if pair.is_promoted() {
                    pair.standby()
                } else {
                    pair.primary()
                }
            }
        }
    }

    fn replicas(&self) -> Option<&Arc<ReplicatedCloud>> {
        match self {
            ServiceRoute::Single(_) => None,
            ServiceRoute::Replicated(pair) => Some(pair),
        }
    }
}

struct WorkItem {
    upload: Vec<u8>,
    reply: SyncSender<Vec<u8>>,
    /// When the submitter entered `submit_keyed` — the start of the
    /// request's end-to-end latency (exemplar total).
    admitted: Instant,
    /// When the item landed in its lane (start of the queue span).
    enqueued: Instant,
    /// The lane the item was routed onto, as the queue span's tag.
    lane: u32,
    /// The request's trace context, carried across the queue so the
    /// worker records against the same [`TraceId`] the submitter minted.
    /// `None` when spans are disabled.
    trace: Option<ActiveTrace>,
}

/// The task engine: M worker tasks over N executor threads, one runtime
/// channel per lane.
struct AsyncEngine {
    executor: runtime::Executor,
    lanes: Vec<runtime::channel::Sender<WorkItem>>,
    // Keeps the channels connected even with a zero-worker pool (used by
    // tests to freeze the queue); workers hold their own clones.
    _rxs: Vec<runtime::channel::Receiver<WorkItem>>,
    tasks: Vec<runtime::JoinHandle<()>>,
}

impl AsyncEngine {
    /// Ordered teardown: stop intake on every lane, let tasks drain their
    /// queues, join them, then stop the executor pool (its `Drop` joins
    /// the threads).
    fn quiesce(&mut self) {
        for tx in &self.lanes {
            tx.close();
        }
        for task in self.tasks.drain(..) {
            task.join();
        }
    }
}

impl Drop for AsyncEngine {
    fn drop(&mut self) {
        self.quiesce();
    }
}

/// The multi-session ingestion gateway.
pub struct Gateway {
    route: ServiceRoute,
    metrics: Arc<GatewayMetrics>,
    /// The unified instrument registry every gateway counter/histogram is
    /// registered in; [`Gateway::registry_snapshot`] overlays the cloud
    /// tier's subsystem-owned stats on top of it.
    registry: Arc<Registry>,
    /// Span ring + exemplars, when [`TelemetryConfig::spans`] is on.
    tracing: Option<Arc<GatewayTracing>>,
    engine: AsyncEngine,
    shed_policy: ShedPolicy,
    next_session: AtomicU64,
    /// Admin drain state: once set, new submissions are refused with
    /// [`SubmitError::Closed`] while the workers keep serving what is
    /// already queued.
    drained: AtomicBool,
    /// Admin pause state: while set, workers hold admitted work (nothing
    /// dequeues) but submissions are still accepted — the opposite half
    /// of drain. Shared with the worker loops.
    paused: Arc<AtomicBool>,
    /// Per-session fountain decoder table for the one-way upload route.
    uplink: Mutex<FountainIngress>,
    /// `fountain.*` registry instruments, registered at build so the
    /// exposition always carries the subsystem.
    fountain: FountainInstruments,
    /// Optional per-session token-bucket limiter. `None` = unlimited.
    limiter: Mutex<Option<RateLimiter>>,
    /// Submission counter striding the adaptive sampler's feedback
    /// observations: every [`SAMPLER_OBSERVE_STRIDE`]-th arrival feeds the
    /// controller one [`OverloadSignal`], keeping the control loop off the
    /// per-request hot path.
    sampler_tick: AtomicU64,
}

impl Gateway {
    /// Spawns the worker pool in front of `service` with default
    /// telemetry (spans on, default ring and exemplar sizing).
    pub fn new(service: CloudService, config: GatewayConfig) -> Self {
        Self::with_telemetry(
            service,
            config,
            RuntimeKind::Async,
            TelemetryConfig::default(),
        )
    }

    /// Spawns the worker pool with explicit span-tracing knobs.
    /// `_runtime` selects nothing (see [`RuntimeKind`]).
    pub fn with_telemetry(
        service: CloudService,
        config: GatewayConfig,
        _runtime: RuntimeKind,
        telemetry: TelemetryConfig,
    ) -> Self {
        Self::build(ServiceRoute::Single(Arc::new(service)), config, telemetry)
    }

    /// Spawns the worker pool in front of a replicated pair. Requests
    /// route to the pair's current serving node on every dispatch, so a
    /// primary death fails the fleet over to the promoted standby without
    /// touching the sessions. `_runtime` selects nothing (see
    /// [`RuntimeKind`]).
    pub fn with_replicas(
        replicas: Arc<ReplicatedCloud>,
        config: GatewayConfig,
        _runtime: RuntimeKind,
        telemetry: TelemetryConfig,
    ) -> Self {
        Self::build(ServiceRoute::Replicated(replicas), config, telemetry)
    }

    fn build(route: ServiceRoute, config: GatewayConfig, telemetry: TelemetryConfig) -> Self {
        let lanes = lane_count_for(route.serving_ref().shard_count(), config.workers);
        // `queue_capacity` stays the *total* budget: splitting it across
        // lanes preserves the seed invariant that at most `queue_capacity`
        // items are queued gateway-wide.
        let per_lane_capacity = (config.queue_capacity / lanes).max(1);
        let registry = Arc::new(Registry::new());
        let metrics = Arc::new(GatewayMetrics::registered(lanes, &registry));
        let fountain = FountainInstruments::registered(&registry);
        let tracing = telemetry.spans.then(|| {
            // `Always` keeps the seed fast path: no sampler object, no
            // per-span funnel, every record goes straight to the ring.
            let sampler = match telemetry.sampling {
                SamplerMode::Always => None,
                mode => Some(Arc::new(Sampler::new(mode))),
            };
            Arc::new(GatewayTracing {
                recorder: Arc::new(SpanRecorder::with_capacity(telemetry.ring_capacity)),
                exemplars: Exemplars::new(telemetry.exemplars),
                sampler,
            })
        });
        let paused = Arc::new(AtomicBool::new(false));
        let executor = runtime::Executor::new(config.workers.clamp(1, MAX_EXECUTOR_THREADS));
        let mut txs = Vec::with_capacity(lanes);
        let mut rxs = Vec::with_capacity(lanes);
        for _ in 0..lanes {
            let (tx, rx) = runtime::channel::bounded::<WorkItem>(per_lane_capacity);
            txs.push(tx);
            rxs.push(rx);
        }
        let tasks = (0..config.workers)
            .map(|i| {
                let rx = rxs[i % lanes].clone();
                let route = route.clone();
                let metrics = Arc::clone(&metrics);
                let tracing = tracing.clone();
                let paused = Arc::clone(&paused);
                executor.spawn(worker_task(rx, route, metrics, tracing, paused))
            })
            .collect();
        let engine = AsyncEngine {
            executor,
            lanes: txs,
            _rxs: rxs,
            tasks,
        };
        Self {
            route,
            metrics,
            registry,
            tracing,
            engine,
            shed_policy: config.shed_policy,
            next_session: AtomicU64::new(1),
            drained: AtomicBool::new(false),
            paused,
            uplink: Mutex::new(FountainIngress::new(FountainConfig::default())),
            fountain,
            limiter: Mutex::new(None),
            sampler_tick: AtomicU64::new(0),
        }
    }

    /// The cloud service requests currently route to (for fleet-level
    /// setup like classifier installation checks or direct record-store
    /// access in tests). For a replicated gateway this follows the pair's
    /// promotion state.
    pub fn service(&self) -> &CloudService {
        self.route.serving_ref()
    }

    /// The replicated pair behind this gateway, when it fronts one.
    pub fn replicas(&self) -> Option<&Arc<ReplicatedCloud>> {
        self.route.replicas()
    }

    /// A point-in-time copy of the gateway's metrics, including the cloud
    /// tier's per-shard lock-contention counters and (for a durable
    /// service) the write-ahead-log counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        fill_service_snapshot(&mut snap, self.route.serving_ref(), self.is_drained());
        snap
    }

    /// The unified instrument registry behind [`Gateway::metrics`].
    /// Instruments registered here are live — the same `Arc` handles the
    /// workers mutate.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A registry snapshot with the cloud tier's subsystem-owned stats
    /// overlaid: `cloud.shard.<i>.contention`, the `wal.*` counters (for
    /// a durable service), `cache.*`, `gateway.drained`, and — when spans
    /// are on — `telemetry.spans_recorded`. This is the value
    /// [`Gateway::telemetry_text`] renders.
    pub fn registry_snapshot(&self) -> RegistrySnapshot {
        let mut snap = self.registry.snapshot();
        let service = self.route.serving_ref();
        for (i, s) in service.shard_stats().iter().enumerate() {
            snap.set_counter(&format!("cloud.shard.{i}.contention"), s.contended_writes);
        }
        if let Some(wal) = service.storage_stats() {
            snap.set_counter("wal.appends", wal.appends);
            snap.set_counter("wal.fsyncs", wal.fsyncs);
            snap.set_counter("wal.bytes_written", wal.bytes_written);
            snap.set_counter("wal.recovered_entries", wal.recovered_entries);
            snap.set_counter(
                "wal.recovered_truncated_bytes",
                wal.recovered_truncated_bytes,
            );
        }
        let cache = service.cache_stats();
        snap.set_counter("cache.hits", cache.hits);
        snap.set_counter("cache.misses", cache.misses);
        snap.set_gauge("cache.entries", cache.entries as u64);
        snap.set_gauge("gateway.drained", u64::from(self.is_drained()));
        snap.set_gauge("gateway.paused", u64::from(self.is_paused()));
        if let Some(pair) = self.route.replicas() {
            let status = pair.status();
            snap.set_counter("replica.shipped_frames", status.shipper.shipped_frames);
            snap.set_counter("replica.shipped_bytes", status.shipper.shipped_bytes);
            snap.set_counter("replica.acked_bytes", status.shipper.acked_bytes);
            snap.set_gauge("replica.lag_bytes", status.shipper.lag_bytes);
            snap.set_counter("replica.snapshots", status.shipper.snapshots_shipped);
            snap.set_counter("replica.ship_failures", status.shipper.ship_failures);
            snap.set_counter("replica.applied_frames", status.standby.applied_frames);
            snap.set_counter("replica.stale_rejected", status.standby.stale_rejected);
            snap.set_counter("replica.promotions", status.standby.promotions);
            snap.set_gauge("replica.epoch", status.epoch);
            snap.set_gauge("replica.promoted", u64::from(status.promoted));
        }
        if let Some(tracing) = &self.tracing {
            snap.set_counter("telemetry.spans_recorded", tracing.recorder.recorded());
            if let Some(sampler) = &tracing.sampler {
                snap.set_counter("telemetry.spans_admitted", sampler.admitted());
                snap.set_counter("telemetry.spans_sampled_out", sampler.sampled_out());
                snap.set_gauge(
                    "telemetry.sampler_permille",
                    u64::from(sampler.keep_permille()),
                );
            }
        }
        snap
    }

    /// The whole stack's metrics as line-oriented `name value` text
    /// (see `medsen_telemetry::text_exposition` for the grammar).
    pub fn telemetry_text(&self) -> String {
        text_exposition(&self.registry_snapshot())
    }

    /// Every span the ring currently retains, as JSON lines — one object
    /// per span, oldest claim first. Empty when spans are disabled.
    pub fn spans_json(&self) -> String {
        match &self.tracing {
            Some(tracing) => spans_json_lines(&tracing.recorder.snapshot()),
            None => String::new(),
        }
    }

    /// The K worst end-to-end requests seen so far, each joined with its
    /// per-stage breakdown. Empty when spans are disabled.
    pub fn slow_traces(&self) -> Vec<SlowTrace> {
        match &self.tracing {
            Some(tracing) => tracing.exemplars.report(&tracing.recorder),
            None => Vec::new(),
        }
    }

    /// The shared span ring, when spans are on (tests correlate traces).
    pub fn span_recorder(&self) -> Option<&Arc<SpanRecorder>> {
        self.tracing.as_ref().map(|t| &t.recorder)
    }

    /// How many queue lanes this gateway runs
    /// (`shards.min(workers).max(1)`).
    pub fn lane_count(&self) -> usize {
        self.engine.lanes.len()
    }

    pub(crate) fn metrics_handle(&self) -> &GatewayMetrics {
        &self.metrics
    }

    pub(crate) fn allocate_session_id(&self) -> u64 {
        self.next_session.fetch_add(1, Ordering::Relaxed)
    }

    /// Sleeps the calling session for `wait` of *simulated* time, that is
    /// `wait` ÷ [`TIME_COMPRESSION`] of real time. Used for shed
    /// retry-after hints and flaky-link backoffs: drain pacing is
    /// preserved without burning wall-clock seconds. A wait that is not
    /// finite and positive returns at once.
    pub(crate) fn pace(&self, wait: Seconds) {
        let secs = wait.value();
        if secs.is_finite() && secs > 0.0 {
            thread::sleep(Duration::from_secs_f64(secs / TIME_COMPRESSION));
        }
    }

    /// Submits a framed upload, applying the shed policy when the target
    /// lane is full. Routes by the upload's session id (peeked from the
    /// `StartTest` header; malformed uploads fall back to lane 0 and get
    /// their precise error from the worker-side decode). On success the
    /// request is owned by the gateway and the returned [`PendingReply`]
    /// will produce exactly one response.
    pub fn submit(&self, upload: Vec<u8>) -> Result<PendingReply, SubmitError> {
        let key = wire::peek_session_id(&upload).unwrap_or(0);
        self.submit_keyed(upload, key)
    }

    /// Puts the gateway in the `Drain` admin state: new submissions are
    /// refused with [`SubmitError::Closed`], in-flight and queued work is
    /// allowed to finish, and a final WAL flush forces everything the
    /// workers wrote to disk regardless of the flush policy. Unlike
    /// [`Gateway::shutdown`], the gateway stays alive afterwards — reads
    /// of its metrics and service keep working, which is what an operator
    /// wants between "stop taking traffic" and "kill the process".
    ///
    /// Idempotent. With a zero-worker pool (test configurations) queued
    /// work can never finish, so the wait is skipped and only intake is
    /// closed and the WAL flushed. A paused gateway is resumed first —
    /// drain's contract is "everything admitted gets served", which held
    /// work cannot satisfy.
    pub fn drain(&self) {
        self.resume();
        self.drained.store(true, Ordering::SeqCst);
        if self.worker_count() > 0 {
            loop {
                let snap = self.metrics.snapshot();
                if snap.completed >= snap.accepted {
                    break;
                }
                thread::sleep(Duration::from_millis(1));
            }
        }
        self.route.serving_ref().flush_storage();
    }

    /// Whether [`Gateway::drain`] has been called.
    pub fn is_drained(&self) -> bool {
        self.drained.load(Ordering::SeqCst)
    }

    /// Puts the gateway in the `Pause` admin state: workers stop
    /// dequeuing, holding everything admitted, while new submissions are
    /// still accepted into the queue (the shed policy applies once it
    /// fills). The complement of [`Gateway::drain`] — drain refuses new
    /// work and finishes the old; pause takes new work and sits on it.
    /// Operators use it to hold traffic across a cloud-side intervention
    /// (say, a replica promotion) without bouncing sessions.
    pub fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
    }

    /// Lifts [`Gateway::pause`]; held work resumes draining immediately.
    pub fn resume(&self) {
        self.paused.store(false, Ordering::SeqCst);
    }

    /// Whether the gateway is currently paused.
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    /// Submits a framed upload to the lane selected by `route_key % lanes`.
    /// Sessions pass [`medsen_cloud::identity_hash`] of the identifier for
    /// enrollments — aligning the queue lane with the auth shard the write
    /// will land on — and their session id for everything else.
    pub fn submit_keyed(
        &self,
        upload: Vec<u8>,
        route_key: u64,
    ) -> Result<PendingReply, SubmitError> {
        // The rate limit keys on the session id, not the route key: an
        // enrollment's route key is its identity hash, but the noisy
        // *device* is what the limiter must recognize.
        let session = wire::peek_session_id(&upload).unwrap_or(route_key);
        self.observe_sampler();
        if let Some(retry_after) = self.check_rate_limit(session) {
            self.metrics.on_rate_limited();
            return Err(SubmitError::RateLimited {
                retry_after,
                upload,
            });
        }
        let trace = self.trace_for_upload(&upload);
        self.submit_traced(upload, route_key, trace)
    }

    /// Mints the phone-side trace context for a session about to encode
    /// a request — the origin of the cross-tier chain. `None` when spans
    /// are off.
    pub(crate) fn phone_trace(&self) -> Option<ActiveTrace> {
        self.trace_with_id(TraceId::mint())
    }

    /// A trace context for an upload: joins the trace id embedded in the
    /// upload header (a phone that minted the trace at encode time), or
    /// mints a fresh one for legacy untraced frames. `None` when spans
    /// are off.
    fn trace_for_upload(&self, upload: &[u8]) -> Option<ActiveTrace> {
        let joined = wire::peek_trace(upload).and_then(TraceId::from_raw);
        self.trace_with_id(joined.unwrap_or_else(TraceId::mint))
    }

    /// Builds the context for `id` — through the sampler's head-verdict
    /// draw when one is installed, so every tier holding this id reaches
    /// the same keep/drop decision without coordination.
    fn trace_with_id(&self, id: TraceId) -> Option<ActiveTrace> {
        self.tracing.as_ref().map(|t| match &t.sampler {
            Some(sampler) => ActiveTrace::sampled(id, Arc::clone(&t.recorder), Arc::clone(sampler)),
            None => ActiveTrace::unsampled(id, Arc::clone(&t.recorder)),
        })
    }

    /// Every [`SAMPLER_OBSERVE_STRIDE`]-th arrival feeds the adaptive
    /// controller one overload observation: ring churn from the recorder,
    /// refusal pressure from the shed + rate-limit counters.
    fn observe_sampler(&self) {
        let Some(tracing) = &self.tracing else { return };
        let Some(sampler) = &tracing.sampler else {
            return;
        };
        let tick = self.sampler_tick.fetch_add(1, Ordering::Relaxed);
        if !tick.is_multiple_of(SAMPLER_OBSERVE_STRIDE) {
            return;
        }
        sampler.observe(OverloadSignal {
            recorded_total: tracing.recorder.recorded(),
            refused_total: self.metrics.refusals(),
            ring_capacity: tracing.recorder.capacity() as u64,
        });
    }

    /// One token from `session`'s bucket, when a limiter is installed.
    /// `Some(wait)` means the submission must be refused.
    fn check_rate_limit(&self, session: u64) -> Option<Seconds> {
        let mut guard = self.limiter.lock().expect("rate limiter lock");
        let limiter = guard.as_mut()?;
        limiter.try_take(session, Instant::now()).err()
    }

    /// The enqueue path shared by [`Gateway::submit_keyed`] and the
    /// fountain dispatch: the caller supplies the trace so a reassembled
    /// upload's `FountainDecode` span and its request spans join under
    /// one [`TraceId`].
    fn submit_traced(
        &self,
        upload: Vec<u8>,
        route_key: u64,
        trace: Option<ActiveTrace>,
    ) -> Result<PendingReply, SubmitError> {
        let admitted = Instant::now();
        if self.is_drained() {
            // A drained gateway sheds exactly like a full one, and the
            // turn-away shows up in the same counter.
            self.metrics.on_rejected();
            return Err(SubmitError::Closed { upload });
        }
        let lane = (route_key % self.lane_count() as u64) as usize;
        // Remember the upload's wire format so `wait` runs the matching
        // decoder. An upload too mangled to peek falls back to JSON —
        // the same fallback the worker's error path uses, so the reply
        // and the handle always agree on the encoding.
        let format = wire::peek_format(&upload).unwrap_or(WireFormat::Json);
        let (reply_tx, reply_rx) = sync_channel(1);
        let item = WorkItem {
            upload,
            reply: reply_tx,
            admitted,
            enqueued: Instant::now(),
            lane: lane as u32,
            trace: trace.clone(),
        };
        let tx = &self.engine.lanes[lane];
        match self.shed_policy {
            ShedPolicy::Block => {
                if let Err(e) = runtime::block_on(tx.send(item)) {
                    return Err(SubmitError::Closed { upload: e.0.upload });
                }
            }
            ShedPolicy::Reject { retry_after } => match tx.try_send(item) {
                Ok(()) => {}
                Err(runtime::channel::TrySendError::Full(item)) => {
                    self.metrics.on_rejected();
                    return Err(SubmitError::Busy {
                        retry_after,
                        upload: item.upload,
                    });
                }
                Err(runtime::channel::TrySendError::Closed(item)) => {
                    return Err(SubmitError::Closed {
                        upload: item.upload,
                    });
                }
            },
        }
        // One depth probe on the lane just written: the submit path stays
        // O(1) in the lane count instead of summing every lane's queue.
        self.metrics.on_accepted(lane, tx.len());
        if let Some(trace) = &trace {
            trace.record(Stage::Admission, lane as u32, admitted, Instant::now());
        }
        Ok(PendingReply {
            rx: reply_rx,
            format,
            trace,
        })
    }

    /// Installs (or replaces) the per-session token-bucket rate limit.
    /// Applies to both the two-way submit path and the fountain symbol
    /// route; refusals count under `gateway.rate_limited`. A gateway
    /// starts with no limit installed.
    pub fn set_rate_limit(&self, config: RateLimitConfig) {
        *self.limiter.lock().expect("rate limiter lock") = Some(RateLimiter::new(config));
    }

    /// Removes the rate limit installed by [`Gateway::set_rate_limit`].
    pub fn clear_rate_limit(&self) {
        *self.limiter.lock().expect("rate limiter lock") = None;
    }

    /// Replaces the fountain ingestion bounds (session cap, per-session
    /// buffer cap, idle timeout). Drops all half-decoded session state —
    /// call before traffic, not during it.
    pub fn set_fountain_config(&self, config: FountainConfig) {
        *self.uplink.lock().expect("fountain ingress lock") = FountainIngress::new(config);
    }

    /// Feeds one fountain symbol frame from a one-way (no-ACK) uplink.
    ///
    /// Each surviving symbol of a phone's rateless stream lands here
    /// individually; the gateway accumulates them in a bounded
    /// per-session peeling decoder and, the moment a session's block
    /// completes, decompresses it, reconstructs the request upload, and
    /// dispatches it into the same lane/shed/worker pipeline a two-way
    /// submission takes. The returned [`SymbolIngest::Complete`] carries
    /// the request's [`PendingReply`].
    ///
    /// Errors are per-symbol and non-fatal to the gateway: a corrupt
    /// frame, a rate-limited session, or an evicted stream refuses that
    /// symbol only. The sender, by design, is never told — overhead in
    /// the symbol budget is the phone's only defense, which is the
    /// fountain-coding bargain.
    pub fn ingest_symbol(&self, bytes: &[u8]) -> Result<SymbolIngest, SymbolSubmitError> {
        let frame = match decode_symbol_frame(bytes) {
            Ok((frame, _)) => frame,
            Err(e) => {
                self.fountain.symbols_rejected.incr();
                return Err(SymbolSubmitError::Frame(e));
            }
        };
        if self.is_drained() {
            self.metrics.on_rejected();
            return Err(SymbolSubmitError::Closed);
        }
        self.observe_sampler();
        // One token per symbol: a session spraying far past its budget
        // stops consuming decoder memory and lock time at the door.
        if let Some(retry_after) = self.check_rate_limit(frame.session_id) {
            self.metrics.on_rate_limited();
            return Err(SymbolSubmitError::RateLimited {
                session_id: frame.session_id,
                retry_after,
            });
        }
        let now = Instant::now();
        let step = {
            let mut uplink = self.uplink.lock().expect("fountain ingress lock");
            let stale = uplink.evict_stale(now);
            let (mut evicted, mut started) = (0u64, false);
            let step = uplink.ingest(&frame, now, &mut evicted, &mut started);
            // Every half-decoded session dropped — idle timeout or
            // capacity pressure — is this route's shed: the upload is
            // lost and the phone must re-stream. Count it alongside the
            // queue's own rejections so one counter answers "are we
            // turning work away?".
            let shed = stale + evicted;
            if shed > 0 {
                self.fountain.sessions_evicted.add(shed);
                for _ in 0..shed {
                    self.metrics.on_rejected();
                }
            }
            if started {
                self.fountain.sessions_started.incr();
            }
            self.fountain
                .active_sessions
                .set(uplink.session_count() as u64);
            step
        };
        let step = match step {
            Ok(step) => step,
            Err(e) => {
                self.fountain.symbols_rejected.incr();
                return Err(SymbolSubmitError::Ingest(e));
            }
        };
        self.fountain.symbols_received.incr();
        match step {
            IngestStep::Progress { recovered, total } => Ok(SymbolIngest::Progress {
                session_id: frame.session_id,
                recovered,
                total,
            }),
            IngestStep::Redundant => {
                self.fountain.symbols_redundant.incr();
                Ok(SymbolIngest::Redundant {
                    session_id: frame.session_id,
                })
            }
            IngestStep::AlreadyComplete => {
                self.fountain.symbols_redundant.incr();
                Ok(SymbolIngest::AlreadyComplete {
                    session_id: frame.session_id,
                })
            }
            IngestStep::Complete {
                block,
                stats,
                started,
            } => {
                self.fountain.sessions_completed.incr();
                self.fountain.peel_iterations.add(stats.peel_iterations);
                self.fountain
                    .overhead_permille
                    .set((stats.overhead_ratio() * 1000.0).round() as u64);
                let reply = self.dispatch_reassembled(frame.session_id, &block, started, now)?;
                Ok(SymbolIngest::Complete {
                    session_id: frame.session_id,
                    reply,
                    stats,
                })
            }
        }
    }

    /// Decompresses a completed fountain block — which carries the full
    /// framed upload, wire-format tag and all — derives the route key,
    /// and pushes the upload into the queue with a bounded paced
    /// shed-retry loop (the phone has no downlink, so the gateway does
    /// the retrying a two-way session would do itself).
    fn dispatch_reassembled(
        &self,
        session_id: u64,
        block: &[u8],
        decode_started: Instant,
        decode_finished: Instant,
    ) -> Result<PendingReply, SymbolSubmitError> {
        let corrupt = |detail: String| SymbolSubmitError::CorruptUpload { session_id, detail };
        // The fountain block carries the *complete framed upload* the
        // session would have submitted over a two-way link, so one-way
        // traffic rides the same format-tagged ingest path as everything
        // else. Decode it here only to derive the route key.
        let mut upload =
            medsen_phone::decompress(block).map_err(|e| corrupt(format!("decompress: {e}")))?;
        let (_, format, body, trace_raw) =
            wire::decode_upload_traced(&upload).map_err(|e| corrupt(format!("upload: {e}")))?;
        // Reassembled enrollments route by the identifier's shard hash,
        // exactly like two-way submissions; anything else (including a
        // body the worker will reject anyway) routes by session id.
        let route_key = match medsen_cloud::wire::decode_request_traced(format, &body) {
            Ok((Request::Enroll { ref identifier, .. }, _)) => {
                medsen_cloud::identity_hash(identifier)
            }
            Ok(_) => session_id,
            Err(e) => return Err(corrupt(format!("request decode: {e}"))),
        };
        // Join the trace the *phone* minted at encode time (carried
        // through the fountain stream inside the reassembled upload's
        // header) rather than minting a second one — a one-way request is
        // one trace, reassembly included. Legacy untraced uploads still
        // get a fresh id.
        let trace = self.trace_with_id(TraceId::from_raw(trace_raw).unwrap_or_else(TraceId::mint));
        if let Some(trace) = &trace {
            // The decode span and the request's admission/queue/service
            // spans share that one trace, so slow-trace reports show
            // reassembly time next to pipeline time.
            trace.record(
                Stage::FountainDecode,
                session_id as u32,
                decode_started,
                decode_finished,
            );
        }
        let mut last_hint = Seconds::ZERO;
        for _ in 0..DISPATCH_ATTEMPTS {
            match self.submit_traced(upload, route_key, trace.clone()) {
                Ok(reply) => return Ok(reply),
                Err(
                    SubmitError::Busy {
                        retry_after,
                        upload: returned,
                    }
                    | SubmitError::RateLimited {
                        retry_after,
                        upload: returned,
                    },
                ) => {
                    upload = returned;
                    last_hint = retry_after;
                    self.metrics.on_retried();
                    self.pace(retry_after);
                }
                Err(SubmitError::Closed { .. }) => return Err(SymbolSubmitError::Closed),
            }
        }
        self.metrics.on_failed();
        Err(SymbolSubmitError::Shed {
            session_id,
            retry_after: last_hint,
        })
    }

    /// Stops accepting work, drains the queue, joins the workers, and
    /// returns the final metrics. Outstanding [`PendingReply`] handles for
    /// queued work still resolve; anything submitted afterwards fails with
    /// [`SubmitError::Closed`].
    pub fn shutdown(self) -> MetricsSnapshot {
        // A paused pool would never drain its queues; shutdown implies
        // resume for the same reason drain does.
        self.resume();
        let Gateway {
            route,
            mut engine,
            metrics,
            drained,
            ..
        } = self;
        // Quiesce before the snapshot below so queued work is counted;
        // the subsequent `Drop` is an idempotent no-op.
        engine.quiesce();
        // A durable service's unsynced tail goes to disk before the final
        // numbers are reported — shutdown is a graceful exit, not a crash.
        let service = route.serving_ref();
        service.flush_storage();
        let mut snap = metrics.snapshot();
        fill_service_snapshot(&mut snap, service, drained.load(Ordering::SeqCst));
        snap
    }

    fn worker_count(&self) -> usize {
        self.engine.tasks.len()
    }

    fn queue_len(&self) -> usize {
        self.engine.lanes.iter().map(|t| t.len()).sum()
    }
}

/// Completes a bare metrics snapshot with the cloud-service-side stats
/// only the gateway can correlate: per-shard lock contention, the
/// durable service's WAL counters, and the drain flag.
fn fill_service_snapshot(snap: &mut MetricsSnapshot, service: &CloudService, drained: bool) {
    snap.shard_contention = service
        .shard_stats()
        .iter()
        .map(|s| s.contended_writes)
        .collect();
    if let Some(wal) = service.storage_stats() {
        snap.wal_appends = wal.appends;
        snap.wal_fsyncs = wal.fsyncs;
        snap.wal_bytes = wal.bytes_written;
        snap.wal_recovered_entries = wal.recovered_entries;
        snap.wal_truncated_bytes = wal.recovered_truncated_bytes;
    }
    let cache = service.cache_stats();
    snap.cache_hits = cache.hits;
    snap.cache_misses = cache.misses;
    snap.drained = drained;
}

/// Lane sizing: one lane per cloud shard, but never more lanes than
/// workers (an unstaffed lane would strand its queue) and never zero
/// (a zero-worker gateway still needs somewhere to park submissions for
/// the deterministic backpressure tests).
fn lane_count_for(shards: usize, workers: usize) -> usize {
    shards.min(workers).max(1)
}

impl fmt::Debug for Gateway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gateway")
            .field("workers", &self.worker_count())
            .field("lanes", &self.lane_count())
            .field("queue_len", &self.queue_len())
            .field("shed_policy", &self.shed_policy)
            .field("executor_threads", &self.engine.executor.threads())
            .finish()
    }
}

/// Decode → serve → reply for one work item.
///
/// When the item carries a trace, the worker records its queue span
/// (enqueue → dequeue) and service span, and installs the trace as the
/// thread's active context for the duration of the cloud call — that is
/// what lets the shard-lock, WAL, and analysis layers attribute their
/// spans to this request without any parameter threading.
fn handle_item(
    item: WorkItem,
    route: &ServiceRoute,
    metrics: &GatewayMetrics,
    tracing: Option<&GatewayTracing>,
) {
    let dequeued = Instant::now();
    metrics
        .queue_wait
        .record(dequeued.saturating_duration_since(item.enqueued));
    let _context = item.trace.clone().map(|trace| {
        trace.record(Stage::Queue, item.lane, item.enqueued, dequeued);
        medsen_telemetry::install(trace)
    });
    let started = Instant::now();
    let response = match wire::decode_upload(&item.upload) {
        Ok((_session_id, format, body)) => {
            let service = route.serving();
            let mut bytes = service.handle_wire_shared(format, &body);
            // Failover on error: the node was deposed between the routing
            // decision and the dispatch (a fenced node refuses everything
            // and applied nothing, so the retry is safe). The next
            // `serving()` call observes the fence and promotes.
            if service.is_fenced() && medsen_cloud::wire::reply_is_deposed(format, &bytes) {
                if let Some(pair) = route.replicas() {
                    bytes = pair.serving().handle_wire_shared(format, &body);
                }
            }
            bytes
        }
        Err(e) => {
            // An undecodable upload still gets a well-formed refusal, in
            // whatever format its header claimed (JSON when even the
            // header is gone — matching the submit-side peek fallback).
            let format = wire::peek_format(&item.upload).unwrap_or(WireFormat::Json);
            medsen_cloud::wire::encode_error(format, &format!("malformed upload: {e}"))
        }
    };
    let finished = Instant::now();
    metrics
        .service_time
        .record(finished.saturating_duration_since(started));
    medsen_telemetry::record(Stage::Service, item.lane, started, finished);
    metrics.on_completed();
    if let (Some(trace), Some(tracing)) = (&item.trace, tracing) {
        let total_ns = finished
            .saturating_duration_since(item.admitted)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        tracing.exemplars.offer(trace.id, total_ns);
    }
    // A session that gave up on the reply is not an error.
    let _ = item.reply.send(response);
}

/// One worker task: pull, serve, cooperatively yield so sibling workers
/// sharing the executor thread get a turn between requests.
async fn worker_task(
    rx: runtime::channel::Receiver<WorkItem>,
    route: ServiceRoute,
    metrics: Arc<GatewayMetrics>,
    tracing: Option<Arc<GatewayTracing>>,
    paused: Arc<AtomicBool>,
) {
    while let Ok(item) = rx.recv().await {
        // Paused workers briefly park the executor thread between polls:
        // every sibling task is paused too, so there is no useful work
        // being starved, and the 1 ms nap keeps the wait from spinning.
        while paused.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(1));
            runtime::yield_now().await;
        }
        handle_item(item, &route, &metrics, tracing.as_deref());
        runtime::yield_now().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_cloud::service::Request;

    fn ping_upload(session: u64) -> Vec<u8> {
        json_upload(session, &Request::Ping)
    }

    fn json_upload(session: u64, request: &Request) -> Vec<u8> {
        let body = medsen_cloud::wire::encode_request(WireFormat::Json, request).expect("encodes");
        wire::encode_upload_wire(session, WireFormat::Json, &body)
    }

    fn ping_upload_binary(session: u64) -> Vec<u8> {
        let body = medsen_cloud::wire::encode_request(WireFormat::Binary, &Request::Ping)
            .expect("encodes");
        wire::encode_upload_wire(session, WireFormat::Binary, &body)
    }

    #[test]
    fn serves_a_ping_through_the_pool() {
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 4,
                workers: 2,
                shed_policy: ShedPolicy::Block,
            },
        );
        let reply = gw.submit(ping_upload(1)).expect("accepted");
        assert_eq!(reply.wait().expect("reply"), Response::Pong);
        let m = gw.shutdown();
        assert_eq!(m.accepted, 1);
        assert_eq!(m.completed, 1);
        assert_eq!(m.lost(), 0);
    }

    #[test]
    fn serves_a_binary_ping_through_the_pool() {
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 4,
                workers: 2,
                shed_policy: ShedPolicy::Block,
            },
        );
        let reply = gw.submit(ping_upload_binary(1)).expect("accepted");
        assert_eq!(reply.format(), WireFormat::Binary);
        assert_eq!(reply.wait().expect("reply"), Response::Pong);
        let m = gw.shutdown();
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn rejects_with_retry_after_when_full() {
        // Zero workers: the queue never drains, so the overflow path is
        // deterministic.
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 2,
                workers: 0,
                shed_policy: ShedPolicy::Reject {
                    retry_after: Seconds::from_millis(25.0),
                },
            },
        );
        let _a = gw.submit(ping_upload(1)).expect("fits");
        let _b = gw.submit(ping_upload(2)).expect("fits");
        match gw.submit(ping_upload(3)) {
            Err(SubmitError::Busy {
                retry_after,
                upload,
            }) => {
                assert!((retry_after.value() - 0.025).abs() < 1e-12);
                assert!(!upload.is_empty());
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        let m = gw.metrics();
        assert_eq!(m.accepted, 2);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.queue_high_water, 2);
    }

    #[test]
    fn malformed_uploads_yield_error_responses_not_crashes() {
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 4,
                workers: 1,
                shed_policy: ShedPolicy::Block,
            },
        );
        let reply = gw.submit(vec![0xFF, 0x00, 0x01]).expect("accepted");
        match reply.wait().expect("reply decodes") {
            Response::Error { reason } => assert!(reason.contains("malformed upload")),
            other => panic!("unexpected {other:?}"),
        }
        gw.shutdown();
    }

    /// Runs `f` on a thread of its own and waits at most `limit` for it.
    /// The thread is left detached on timeout: a wedged gateway then
    /// fails the test instead of hanging it.
    fn within<T: Send + 'static>(
        limit: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Option<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(limit).ok()
    }

    /// An all-zero trace, which is what a disconnected electrode sends,
    /// fits a zero baseline, so every detrended residual is NaN. It must
    /// get the same refusal in both formats, and the lane's only worker
    /// must live to serve the next request.
    #[test]
    fn an_all_zero_trace_gets_a_reply_and_the_lane_keeps_serving() {
        use medsen_impedance::{Channel, SignalTrace};
        use medsen_units::Hertz;

        const LIMIT: Duration = Duration::from_secs(10);
        let mut electrode = Channel::new(Hertz::from_khz(500.0));
        electrode.samples = vec![0.0; 900];
        let zeros = Request::Analyze {
            trace: SignalTrace::new(Hertz::new(450.0), vec![electrode]),
            authenticate: false,
        };
        for format in [WireFormat::Json, WireFormat::Binary] {
            let upload = |session: u64, request: &Request| {
                let body = medsen_cloud::wire::encode_request(format, request).expect("encodes");
                wire::encode_upload_wire(session, format, &body)
            };
            let gw = Gateway::new(
                CloudService::new(),
                GatewayConfig {
                    queue_capacity: 4,
                    workers: 1,
                    shed_policy: ShedPolicy::Block,
                },
            );
            let analyzed = gw.submit(upload(1, &zeros)).expect("accepted");
            let analyzed = within(LIMIT, move || analyzed.wait());
            let ping = gw.submit(upload(2, &Request::Ping)).expect("accepted");
            let pong = within(LIMIT, move || ping.wait());
            let stopped = within(LIMIT, move || gw.shutdown()).is_some();
            match analyzed {
                Some(Ok(Response::Error { reason })) => {
                    assert!(reason.contains("not finite"), "{format}: {reason}")
                }
                other => panic!("{format}: {other:?}"),
            }
            assert_eq!(pong, Some(Ok(Response::Pong)), "{format}");
            assert!(stopped, "{format}: shutdown hung");
        }
    }

    #[test]
    fn shutdown_resolves_queued_work_then_closes() {
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 8,
                workers: 1,
                shed_policy: ShedPolicy::Block,
            },
        );
        let replies: Vec<PendingReply> = (0..5)
            .map(|i| gw.submit(ping_upload(i)).expect("accepted"))
            .collect();
        let m = gw.shutdown();
        for reply in replies {
            assert_eq!(reply.wait().expect("served before close"), Response::Pong);
        }
        assert_eq!(m.completed, 5);
        assert_eq!(m.lost(), 0);
    }

    #[test]
    fn a_request_dropped_unserved_reports_lost() {
        // Zero workers: the request sits in its lane until the gateway
        // is dropped, and its reply sender goes down with it.
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 4,
                workers: 0,
                shed_policy: ShedPolicy::Block,
            },
        );
        let reply = gw.submit(ping_upload(1)).expect("accepted");
        drop(gw);
        assert_eq!(reply.wait(), Err(ReplyError::Lost));
    }

    /// A paced shed wait must cost ~wait ÷ [`TIME_COMPRESSION`] of real
    /// time — compressed, but never skipped. The idle gap between the two
    /// `pace` calls is the regression half: a pacer that dated deadlines
    /// from a clock gone stale while idle would put post-idle deadlines in
    /// the past and turn retry-after waits into no-ops.
    #[test]
    fn pace_compresses_the_wait_without_skipping_it() {
        let gw = Gateway::new(CloudService::new(), GatewayConfig::clinic_default());
        // Pace once, then leave the pacer idle long enough that the gap
        // dwarfs the next wait (30 ms real = 1.5 s virtual at 50×).
        gw.pace(Seconds::from_millis(50.0));
        thread::sleep(Duration::from_millis(30));
        let started = Instant::now();
        // 1 simulated second at 50× ≈ 20 ms real.
        gw.pace(Seconds::from_millis(1000.0));
        let real = started.elapsed();
        assert!(
            real >= Duration::from_millis(15),
            "paced wait was skipped: {real:?}"
        );
        assert!(
            real < Duration::from_millis(1000),
            "paced wait was not compressed: {real:?}"
        );
        gw.shutdown();
    }

    /// A wait that is not finite and positive must return at once:
    /// `Duration::from_secs_f64` panics on NaN, ±∞ and negatives, and
    /// `pace`'s guard is all that keeps those hints away from it.
    #[test]
    fn pace_returns_at_once_for_waits_that_are_not_finite_and_positive() {
        let gw = Gateway::new(CloudService::new(), GatewayConfig::clinic_default());
        let started = Instant::now();
        for secs in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            gw.pace(Seconds::new(secs));
        }
        let real = started.elapsed();
        assert!(
            real < Duration::from_millis(50),
            "unpaceable waits slept: {real:?}"
        );
        gw.shutdown();
    }

    #[test]
    fn lane_sizing_follows_shards_and_workers() {
        assert_eq!(lane_count_for(8, 4), 4);
        assert_eq!(lane_count_for(8, 16), 8);
        assert_eq!(lane_count_for(1, 16), 1);
        assert_eq!(lane_count_for(8, 0), 1);
        assert_eq!(lane_count_for(0, 0), 1);
    }

    #[test]
    fn gateway_forms_one_lane_per_shard_up_to_workers() {
        let gw = Gateway::new(
            CloudService::with_shards(8),
            GatewayConfig {
                queue_capacity: 16,
                workers: 4,
                shed_policy: ShedPolicy::Block,
            },
        );
        assert_eq!(gw.lane_count(), 4);
        gw.shutdown();
    }

    #[test]
    fn keyed_submissions_land_on_their_lane() {
        // Zero workers so the queued items stay put and the per-lane
        // depth is observable deterministically.
        let gw = Gateway::new(
            CloudService::with_shards(4),
            GatewayConfig {
                queue_capacity: 16,
                workers: 0,
                shed_policy: ShedPolicy::Block,
            },
        );
        // workers = 0 clamps to a single lane; every key maps to it.
        assert_eq!(gw.lane_count(), 1);
        let _a = gw.submit_keyed(ping_upload(1), 7).expect("accepted");
        let m = gw.metrics();
        assert_eq!(m.shard_routed, vec![1]);
        drop(gw);
    }

    #[test]
    fn per_lane_routing_counters_split_by_key() {
        let gw = Gateway::new(
            CloudService::with_shards(4),
            GatewayConfig {
                queue_capacity: 16,
                workers: 4,
                shed_policy: ShedPolicy::Block,
            },
        );
        assert_eq!(gw.lane_count(), 4);
        let mut replies = Vec::new();
        for key in 0..8u64 {
            replies.push(gw.submit_keyed(ping_upload(key), key).expect("accepted"));
        }
        for reply in replies {
            assert_eq!(reply.wait().expect("reply"), Response::Pong);
        }
        let m = gw.shutdown();
        // key % 4 spreads 8 keys as exactly 2 per lane.
        assert_eq!(m.shard_routed, vec![2, 2, 2, 2]);
        // The default cloud service saw no enrollments, so no shard's
        // write lock was ever contended.
        assert_eq!(m.shard_contention.len(), 4);
        assert!(m.shard_contention.iter().all(|&c| c == 0));
    }

    #[test]
    fn unkeyed_submit_routes_by_peeked_session_id() {
        let gw = Gateway::new(
            CloudService::with_shards(2),
            GatewayConfig {
                queue_capacity: 8,
                workers: 0, // freeze the queues
                shed_policy: ShedPolicy::Block,
            },
        );
        // workers = 0 → one lane regardless; this test just proves the
        // peek path accepts both well-formed and malformed uploads.
        let _a = gw.submit(ping_upload(3)).expect("accepted");
        let _b = gw
            .submit(vec![0xFF, 0x00])
            .expect("malformed routes to lane 0");
        assert_eq!(gw.metrics().shard_routed, vec![2]);
        drop(gw);
    }

    #[test]
    fn drain_serves_queued_work_then_refuses_new_sessions() {
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 8,
                workers: 2,
                shed_policy: ShedPolicy::Block,
            },
        );
        let replies: Vec<PendingReply> = (0..4)
            .map(|i| gw.submit(ping_upload(i)).expect("accepted"))
            .collect();
        gw.drain();
        assert!(gw.is_drained());
        match gw.submit(ping_upload(99)) {
            Err(SubmitError::Closed { upload }) => assert!(!upload.is_empty()),
            other => panic!("expected Closed after drain, got {other:?}"),
        }
        // Everything admitted before the drain was still served.
        for reply in replies {
            assert_eq!(reply.wait().expect("served"), Response::Pong);
        }
        let m = gw.metrics();
        assert!(m.drained);
        assert_eq!(m.accepted, 4);
        assert_eq!(m.completed, 4);
        let m = gw.shutdown();
        assert!(m.drained, "flag survives shutdown");
        assert_eq!(m.rejected, 1);
    }

    #[test]
    fn drain_forces_a_final_wal_flush() {
        use medsen_cloud::{BeadSignature, FlushPolicy};
        use medsen_microfluidics::ParticleKind;

        let dir = std::env::temp_dir().join(format!(
            "medsen-gateway-drain-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // A batch threshold far above the workload: only the drain's
        // explicit flush can account for the fsync observed below.
        let service =
            CloudService::with_storage(&dir, 2, FlushPolicy::EveryN(1_000)).expect("opens");
        let gw = Gateway::new(
            service,
            GatewayConfig {
                queue_capacity: 8,
                workers: 2,
                shed_policy: ShedPolicy::Block,
            },
        );
        let upload = json_upload(
            1,
            &Request::Enroll {
                identifier: "alice".into(),
                signature: BeadSignature::from_counts(&[(ParticleKind::Bead358, 40)]),
            },
        );
        let reply = gw.submit(upload).expect("accepted");
        assert_eq!(reply.wait().expect("served"), Response::Enrolled);
        gw.drain();
        let m = gw.metrics();
        assert!(m.drained);
        assert_eq!(m.wal_appends, 1);
        assert!(
            m.wal_fsyncs >= 1,
            "drain must force the group-commit buffer out: {m:?}"
        );
        gw.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spans_chain_admission_queue_service_for_each_request() {
        let gw = Gateway::with_telemetry(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 8,
                workers: 2,
                shed_policy: ShedPolicy::Block,
            },
            RuntimeKind::Async,
            TelemetryConfig::default(),
        );
        let replies: Vec<PendingReply> = (0..4)
            .map(|i| gw.submit(ping_upload(i)).expect("accepted"))
            .collect();
        for reply in replies {
            assert_eq!(reply.wait().expect("reply"), Response::Pong);
        }
        let recorder = gw.span_recorder().expect("spans on");
        let spans = recorder.snapshot();
        let mut traces: Vec<TraceId> = spans.iter().map(|s| s.trace).collect();
        traces.sort_unstable();
        traces.dedup();
        assert_eq!(traces.len(), 4, "one trace per request");
        for trace in traces {
            let chain = recorder.spans_for(trace);
            let stages: Vec<Stage> = chain.iter().map(|s| s.stage).collect();
            for want in [Stage::Admission, Stage::Queue, Stage::Service] {
                assert!(stages.contains(&want), "missing {want:?}");
            }
            // Pipeline order: each stage starts no earlier than the
            // previous one (admission start ≤ queue start ≤ service).
            let mut ordered = chain.clone();
            ordered.sort_by_key(|s| s.stage);
            for pair in ordered.windows(2) {
                assert!(
                    pair[0].start_ns <= pair[1].start_ns,
                    "stage starts regress: {pair:?}"
                );
            }
        }
        gw.shutdown();
    }

    #[test]
    fn exemplars_retain_the_slowest_requests_with_breakdowns() {
        let gw = Gateway::with_telemetry(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 8,
                workers: 1,
                shed_policy: ShedPolicy::Block,
            },
            RuntimeKind::Async,
            TelemetryConfig {
                exemplars: 2,
                ..TelemetryConfig::default()
            },
        );
        let replies: Vec<PendingReply> = (0..6)
            .map(|i| gw.submit(ping_upload(i)).expect("accepted"))
            .collect();
        for reply in replies {
            reply.wait().expect("reply");
        }
        let slow = gw.slow_traces();
        assert!(!slow.is_empty() && slow.len() <= 2);
        assert!(slow[0].total_ns > 0);
        assert!(
            slow.windows(2).all(|w| w[0].total_ns >= w[1].total_ns),
            "worst first"
        );
        assert!(
            slow[0].stages.iter().any(|s| s.stage == Stage::Service),
            "breakdown joins the ring"
        );
        gw.shutdown();
    }

    #[test]
    fn telemetry_text_covers_every_legacy_counter_and_parses() {
        let gw = Gateway::new(CloudService::new(), GatewayConfig::clinic_default());
        let reply = gw.submit(ping_upload(1)).expect("accepted");
        reply.wait().expect("reply");
        let text = gw.telemetry_text();
        medsen_telemetry::parse_text_exposition(&text).expect("grammar-clean");
        for name in [
            "gateway.accepted",
            "gateway.rejected",
            "gateway.retried",
            "gateway.completed",
            "gateway.failed",
            "gateway.queue_high_water",
            "gateway.lane.0.routed",
            "gateway.queue_wait.count",
            "gateway.service_time.p99_us",
            "gateway.uplink_time.count",
            "cloud.shard.0.contention",
            "cache.hits",
            "cache.misses",
            "gateway.drained",
            "telemetry.spans_recorded",
        ] {
            assert!(
                text.lines().any(|l| l.starts_with(&format!("{name} "))),
                "missing {name} in:\n{text}"
            );
        }
        gw.shutdown();
    }

    #[test]
    fn disabled_telemetry_keeps_counters_but_drops_spans() {
        let gw = Gateway::with_telemetry(
            CloudService::new(),
            GatewayConfig::clinic_default(),
            RuntimeKind::Async,
            TelemetryConfig::disabled(),
        );
        let reply = gw.submit(ping_upload(1)).expect("accepted");
        assert_eq!(reply.wait().expect("reply"), Response::Pong);
        assert!(gw.span_recorder().is_none());
        assert!(gw.spans_json().is_empty());
        assert!(gw.slow_traces().is_empty());
        let text = gw.telemetry_text();
        assert!(text.contains("gateway.accepted 1"));
        assert!(!text.contains("telemetry.spans_recorded"));
        let m = gw.shutdown();
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn pause_holds_admitted_work_without_rejecting_new_sessions() {
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 8,
                workers: 2,
                shed_policy: ShedPolicy::Block,
            },
        );
        gw.pause();
        assert!(gw.is_paused());
        // New sessions are still admitted — pause is not drain.
        let replies: Vec<PendingReply> = (0..4)
            .map(|i| gw.submit(ping_upload(i)).expect("admitted while paused"))
            .collect();
        // Give the pool a moment: nothing may complete while paused.
        thread::sleep(Duration::from_millis(20));
        let m = gw.metrics();
        assert_eq!(m.accepted, 4);
        assert_eq!(m.completed, 0, "paused workers must hold work");
        assert!(!m.drained);
        gw.resume();
        assert!(!gw.is_paused());
        for reply in replies {
            assert_eq!(reply.wait().expect("served after resume"), Response::Pong);
        }
        assert_eq!(gw.metrics().completed, 4);
        gw.shutdown();
    }

    #[test]
    fn drain_implies_resume_so_held_work_still_finishes() {
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 8,
                workers: 2,
                shed_policy: ShedPolicy::Block,
            },
        );
        gw.pause();
        let reply = gw.submit(ping_upload(1)).expect("admitted");
        gw.drain(); // must not deadlock on the held item
        assert!(!gw.is_paused());
        assert_eq!(reply.wait().expect("served"), Response::Pong);
        gw.shutdown();
    }

    #[test]
    fn paused_gauge_lands_in_the_exposition() {
        let gw = Gateway::new(CloudService::new(), GatewayConfig::clinic_default());
        assert!(gw.telemetry_text().contains("gateway.paused 0"));
        gw.pause();
        let text = gw.telemetry_text();
        medsen_telemetry::parse_text_exposition(&text).expect("grammar-clean");
        assert!(text.contains("gateway.paused 1"));
        gw.shutdown();
    }

    fn replica_pair(tag: &str) -> (Arc<medsen_cloud::ReplicatedCloud>, [std::path::PathBuf; 2]) {
        use medsen_cloud::{FlushPolicy, StorageConfig};
        let dirs = ["p", "s"].map(|side| {
            let dir = std::env::temp_dir().join(format!(
                "medsen-gateway-replica-{tag}-{side}-{}-{:?}",
                std::process::id(),
                thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        });
        let [primary, standby] = dirs.each_ref().map(|dir| {
            CloudService::with_storage_config(
                StorageConfig::new(dir).flush(FlushPolicy::EveryWrite),
                2,
            )
            .expect("open")
        });
        (primary.with_replication(standby).expect("pair"), dirs)
    }

    #[test]
    fn replicated_gateway_fails_over_to_the_promoted_standby() {
        let (pair, dirs) = replica_pair("failover");
        let gw = Gateway::with_replicas(
            Arc::clone(&pair),
            GatewayConfig {
                queue_capacity: 8,
                workers: 2,
                shed_policy: ShedPolicy::Block,
            },
            RuntimeKind::Async,
            TelemetryConfig::default(),
        );
        let upload = json_upload(
            1,
            &Request::Enroll {
                identifier: "alice".into(),
                signature: medsen_cloud::BeadSignature::from_counts(&[(
                    medsen_microfluidics::ParticleKind::Bead358,
                    40,
                )]),
            },
        );
        let reply = gw.submit(upload).expect("accepted");
        assert_eq!(reply.wait().expect("served"), Response::Enrolled);

        pair.kill_primary();
        // The next dispatch promotes and routes to the standby, which
        // already holds the acknowledged enrollment.
        let reply = gw.submit(ping_upload(2)).expect("accepted");
        assert_eq!(reply.wait().expect("served"), Response::Pong);
        assert!(pair.is_promoted());
        assert!(Arc::ptr_eq(pair.standby(), &pair.serving()));
        assert_eq!(
            gw.service()
                .shard_stats()
                .iter()
                .map(|s| s.enrolled)
                .sum::<usize>(),
            1,
            "gateway accessors follow the promotion"
        );

        let text = gw.telemetry_text();
        medsen_telemetry::parse_text_exposition(&text).expect("grammar-clean");
        for name in [
            "replica.shipped_frames",
            "replica.shipped_bytes",
            "replica.acked_bytes",
            "replica.lag_bytes",
            "replica.promotions",
            "replica.stale_rejected",
            "replica.epoch",
        ] {
            assert!(
                text.lines().any(|l| l.starts_with(&format!("{name} "))),
                "missing {name} in:\n{text}"
            );
        }
        assert!(text.contains("replica.epoch 2"));
        assert!(text.contains("replica.promotions 1"));
        gw.shutdown();
        for dir in dirs {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The async engine multiplexes many more worker tasks than executor
    /// threads without losing work.
    #[test]
    fn async_engine_runs_more_tasks_than_threads() {
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 64,
                workers: 32, // tasks — far more than MAX_EXECUTOR_THREADS
                shed_policy: ShedPolicy::Block,
            },
        );
        let replies: Vec<PendingReply> = (0..64)
            .map(|i| gw.submit(ping_upload(i)).expect("accepted"))
            .collect();
        for reply in replies {
            assert_eq!(reply.wait().expect("reply"), Response::Pong);
        }
        let m = gw.shutdown();
        assert_eq!(m.completed, 64);
        assert_eq!(m.lost(), 0);
    }

    /// One noisy session exhausts its bucket; a second session on the
    /// same gateway is untouched — the satellite fairness guarantee.
    #[test]
    fn rate_limit_stops_one_session_without_starving_another() {
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 64,
                workers: 2,
                shed_policy: ShedPolicy::Block,
            },
        );
        gw.set_rate_limit(RateLimitConfig::per_session(3.0, 0.0));
        // Session 1 burns its burst, then gets refused.
        let mut refused = 0;
        let mut replies = Vec::new();
        for _ in 0..5 {
            match gw.submit(ping_upload(1)) {
                Ok(r) => replies.push(r),
                Err(SubmitError::RateLimited { retry_after, .. }) => {
                    refused += 1;
                    assert!(retry_after.value() > 0.0);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(refused, 2, "burst of 3 admits exactly 3 of 5");
        // Session 2 submits the same count and is never refused.
        for _ in 0..3 {
            replies.push(gw.submit(ping_upload(2)).expect("session 2 unaffected"));
        }
        for r in replies {
            assert_eq!(r.wait().expect("reply"), Response::Pong);
        }
        let m = gw.metrics();
        assert_eq!(m.rate_limited, 2);
        assert_eq!(m.accepted, 6);
        assert!(gw
            .telemetry_text()
            .contains(&format!("gateway.rate_limited {refused}")));
        gw.shutdown();
    }

    /// Fountain symbols pushed one at a time reassemble the request and
    /// dispatch it through the normal pipeline.
    #[test]
    fn fountain_symbols_reassemble_and_dispatch() {
        use medsen_phone::OneWayUploader;
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 8,
                workers: 2,
                shed_policy: ShedPolicy::Block,
            },
        );
        let session = 41;
        let upload = OneWayUploader::default()
            .encode(session, &ping_upload(session))
            .expect("encodes");
        let mut reply = None;
        // Feed every third symbol — any sufficient subset decodes.
        for wire in upload.frames.iter().step_by(3) {
            match gw.ingest_symbol(wire).expect("symbol accepted") {
                SymbolIngest::Complete {
                    session_id,
                    reply: r,
                    stats,
                } => {
                    assert_eq!(session_id, session);
                    assert!(stats.overhead_ratio() >= 1.0);
                    reply = Some(r);
                    break;
                }
                SymbolIngest::Progress { session_id, .. }
                | SymbolIngest::Redundant { session_id } => assert_eq!(session_id, session),
                other => panic!("unexpected {other:?}"),
            }
        }
        let reply = reply.expect("stream completed within budget");
        assert_eq!(reply.wait().expect("reply"), Response::Pong);
        let text = gw.telemetry_text();
        for name in [
            "fountain.symbols_received",
            "fountain.sessions_completed 1",
            "fountain.overhead_permille 1",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        // The decode span joins the request's spans in the ring.
        let spans = gw.spans_json();
        assert!(
            spans.contains("fountain_decode"),
            "no decode span in:\n{spans}"
        );
        let m = gw.shutdown();
        assert_eq!(m.accepted, 1);
        assert_eq!(m.completed, 1);
    }

    /// Stragglers after completion are redundant, never a second dispatch.
    #[test]
    fn straggler_symbols_after_completion_do_not_redispatch() {
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 8,
                workers: 1,
                shed_policy: ShedPolicy::Block,
            },
        );
        let upload = medsen_phone::OneWayUploader::default()
            .encode(11, &ping_upload(11))
            .expect("encodes");
        let mut completed = false;
        for wire in &upload.frames {
            match gw.ingest_symbol(wire).expect("accepted") {
                SymbolIngest::Complete { reply, .. } => {
                    assert!(!completed, "second Complete for one stream");
                    completed = true;
                    assert_eq!(reply.wait().expect("reply"), Response::Pong);
                }
                SymbolIngest::AlreadyComplete { .. } => assert!(completed),
                _ => {}
            }
        }
        assert!(completed);
        let m = gw.shutdown();
        assert_eq!(m.accepted, 1, "stragglers must not re-enqueue");
    }

    /// A one-symbol stream whose block declares an absurd decompressed
    /// length once aborted the process on the allocation (1 TiB) or
    /// panicked the ingesting thread (`u64::MAX`). Both are now a corrupt
    /// upload, and the gateway goes on serving.
    #[test]
    fn forged_decompressed_lengths_are_corrupt_uploads() {
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 4,
                workers: 1,
                shed_policy: ShedPolicy::Block,
            },
        );
        for (session, declared) in [(31u64, 1u64 << 40), (32, u64::MAX)] {
            let mut block = declared.to_be_bytes().to_vec();
            block.extend_from_slice(&[0x41; 8]);
            let mut encoder = medsen_fountain::Encoder::new(session, 0x5EED, &block, block.len())
                .expect("encoder");
            match gw.ingest_symbol(&encoder.symbol_bytes(0)) {
                Err(SymbolSubmitError::CorruptUpload { session_id, detail }) => {
                    assert_eq!(session_id, session);
                    assert!(detail.contains("decompress"), "{detail}");
                }
                other => panic!("declared {declared}: unexpected {other:?}"),
            }
        }
        let reply = gw.submit(ping_upload(33)).expect("accepted");
        assert_eq!(reply.wait().expect("served"), Response::Pong);
        gw.shutdown();
    }

    /// Frame-level garbage is typed and counted, and a drained gateway
    /// refuses symbols like it refuses submissions.
    #[test]
    fn symbol_route_rejects_garbage_and_respects_drain() {
        let gw = Gateway::new(
            CloudService::new(),
            GatewayConfig {
                queue_capacity: 4,
                workers: 1,
                shed_policy: ShedPolicy::Block,
            },
        );
        match gw.ingest_symbol(&[0xAB; 7]) {
            Err(SymbolSubmitError::Frame(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(gw.telemetry_text().contains("fountain.symbols_rejected 1"));
        let upload = medsen_phone::OneWayUploader::default()
            .encode(12, &ping_upload(12))
            .expect("encodes");
        gw.drain();
        match gw.ingest_symbol(&upload.frames[0]) {
            Err(SymbolSubmitError::Closed) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
