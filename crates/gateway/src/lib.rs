//! The clinic fleet gateway: concurrent multi-session ingestion in front
//! of the cloud service.
//!
//! The paper's prototype serves one dongle at a time — a Matlab process on
//! "a powerful server" fed by a single phone. A deployable point-of-care
//! system faces a clinic: dozens of dongle+phone pairs uploading framed,
//! encrypted traces at once. This crate adds that serving layer without
//! touching the science:
//!
//! * [`Gateway`] (`gateway` module) — a bounded work queue in front of a
//!   worker pool, each worker driving the shared
//!   [`CloudService`](medsen_cloud::service::CloudService) through its
//!   thread-safe `handle_wire_shared` entry point in whichever
//!   [`WireFormat`](medsen_wire::WireFormat) the upload's header names
//!   (compact binary by default, JSON for debugging). When the queue fills,
//!   an explicit [`ShedPolicy`] either blocks the submitter or rejects
//!   with a retry-after hint. The workers are *tasks* on the
//!   `medsen-runtime` async executor, so idle sessions cost a task, not a
//!   thread. The queue is split into
//!   per-shard *lanes* (`shards.min(workers).max(1)`, sharing the total
//!   `queue_capacity`): enrollments route by
//!   [`identity_hash`](medsen_cloud::identity_hash) of the identifier so
//!   same-shard writes serialize on one lane's worker group, other
//!   traffic spreads by session id ([`Gateway::submit_keyed`]). Admin
//!   states: [`Gateway::drain`] (refuse new work, finish the old) and
//!   [`Gateway::pause`] (admit new work, hold it until resume). A
//!   gateway built with [`Gateway::with_replicas`] fronts a
//!   warm-standby [`ReplicatedCloud`](medsen_cloud::ReplicatedCloud)
//!   pair instead of a single service: every dispatch routes to the
//!   pair's current serving node, so a primary death fails the fleet
//!   over to the promoted standby mid-stream, and the `replica.*`
//!   ship/lag/promotion counters join the exposition.
//! * [`DongleSession`] (`session` module) — the per-device lifecycle
//!   (connect → enroll/analyze stream → drain → close). Uploads ride the
//!   phone's frame format ([`wire`]) across a simulated
//!   [`NetworkLink`](medsen_phone::NetworkLink) that can be made flaky;
//!   failed transmissions retry with exponential backoff against a
//!   per-request **simulated** deadline, so behavior is deterministic
//!   under any host scheduling.
//! * [`GatewayMetrics`] (`metrics` module) — accepted / rejected /
//!   retried / completed / failed counters, a queue-depth high-water
//!   mark, per-stage latency histograms, and per-lane routing/depth
//!   counters; [`MetricsSnapshot`] additionally carries the cloud tier's
//!   per-shard write-lock contention so one snapshot answers "is the
//!   shard split buying anything?". Every instrument is registered in a
//!   `medsen-telemetry` registry under stable dotted names, and the
//!   gateway exposes the whole stack as text
//!   ([`Gateway::telemetry_text`]), JSON-lines span dumps
//!   ([`Gateway::spans_json`]), and K-worst slow-trace exemplars
//!   ([`Gateway::slow_traces`]). Per-request spans (admission → queue →
//!   service → shard lock → WAL → analysis) ride a minted
//!   `TraceId` through every layer; [`TelemetryConfig`] sizes or
//!   disables the span machinery.
//!
//! The load-bearing invariant, proven by the workspace's `gateway_fleet`
//! integration test: running N sessions concurrently through the gateway
//! yields exactly the per-session analysis reports and authentication
//! decisions that N sequential direct calls produce, with zero accepted
//! requests lost even when an undersized queue forces shedding.

pub mod fountain;
pub mod gateway;
pub mod limit;
pub mod metrics;
pub mod session;
pub mod soak;
pub mod wire;

pub use fountain::{FountainConfig, FountainIngestError};
pub use gateway::{
    Gateway, GatewayConfig, PendingReply, ReplyError, RuntimeKind, ShedPolicy, SubmitError,
    SymbolIngest, SymbolSubmitError, TelemetryConfig,
};
pub use limit::RateLimitConfig;
pub use metrics::{GatewayMetrics, LatencyHistogram, LatencySnapshot, MetricsSnapshot};
pub use session::{
    DongleSession, RetryPolicy, SessionConfig, SessionError, SessionReport, SessionState,
    SessionStats, UplinkMode,
};
pub use soak::{SoakConfig, SoakReport};
// The sampler mode is `TelemetryConfig`'s vocabulary; re-export it so
// gateway embedders configure sampling without a telemetry dependency.
pub use medsen_telemetry::SamplerMode;
pub use wire::{decode_upload, encode_upload, encode_upload_wire, peek_format, UploadError};
