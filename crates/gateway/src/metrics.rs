//! Gateway observability: lock-free counters and latency histograms.
//!
//! The instruments themselves live in `medsen-telemetry` — the gateway
//! holds `Arc` handles ([`Counter`], [`Gauge`], [`LatencyHistogram`])
//! that workers and sessions mutate concurrently through relaxed atomics
//! (the counters are independent monotone tallies — no cross-counter
//! invariant needs a stronger ordering). Built through
//! [`GatewayMetrics::registered`], the same handles are registered in a
//! unified [`Registry`] under stable dotted names (`gateway.accepted`,
//! `gateway.lane.0.routed`, `gateway.queue_wait`, …), so one text
//! exposition covers every counter this module tracks.

use medsen_telemetry::{Counter, Gauge, Registry};
use std::sync::Arc;

pub use medsen_telemetry::{LatencyHistogram, LatencySnapshot};

/// Per-lane counters for the gateway's sharded worker groups.
#[derive(Debug)]
struct LaneMetrics {
    routed: Arc<Counter>,
    high_water: Arc<Gauge>,
}

impl LaneMetrics {
    fn registered(lane: usize, registry: &Registry) -> Self {
        Self {
            routed: registry.counter(&format!("gateway.lane.{lane}.routed")),
            high_water: registry.gauge(&format!("gateway.lane.{lane}.depth_high_water")),
        }
    }
}

/// Shared counters for the whole gateway.
#[derive(Debug)]
pub struct GatewayMetrics {
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    rate_limited: Arc<Counter>,
    retried: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    queue_high_water: Arc<Gauge>,
    lanes: Vec<LaneMetrics>,
    /// Real time spent by accepted work items waiting in the queue.
    pub queue_wait: Arc<LatencyHistogram>,
    /// Real time spent by the worker handling one request.
    pub service_time: Arc<LatencyHistogram>,
    /// Simulated uplink time per successfully transmitted request.
    pub uplink_time: Arc<LatencyHistogram>,
}

impl GatewayMetrics {
    /// Fresh metrics whose instruments are registered in `registry` under
    /// the gateway's dotted names: `gateway.accepted`, `gateway.rejected`,
    /// `gateway.retried`, `gateway.completed`, `gateway.failed`,
    /// `gateway.queue_high_water`, `gateway.lane.<i>.routed`,
    /// `gateway.lane.<i>.depth_high_water`, and the `gateway.queue_wait` /
    /// `gateway.service_time` / `gateway.uplink_time` histograms. The
    /// returned handles and the registry's are the same instruments.
    pub fn registered(lanes: usize, registry: &Registry) -> Self {
        Self {
            accepted: registry.counter("gateway.accepted"),
            rejected: registry.counter("gateway.rejected"),
            rate_limited: registry.counter("gateway.rate_limited"),
            retried: registry.counter("gateway.retried"),
            completed: registry.counter("gateway.completed"),
            failed: registry.counter("gateway.failed"),
            queue_high_water: registry.gauge("gateway.queue_high_water"),
            lanes: (0..lanes.max(1))
                .map(|i| LaneMetrics::registered(i, registry))
                .collect(),
            queue_wait: registry.histogram("gateway.queue_wait"),
            service_time: registry.histogram("gateway.service_time"),
            uplink_time: registry.histogram("gateway.uplink_time"),
        }
    }

    /// Number of tracked lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Counts a request accepted into the queue and routed onto `lane`;
    /// `lane_depth` is that lane's queue depth right after the enqueue,
    /// feeding both the lane's and the gateway's high-water marks. One
    /// call, one depth probe: the submit path stays O(1) in the lane
    /// count. An out-of-range `lane` still counts globally but is ignored
    /// per-lane, never a panic.
    pub fn on_accepted(&self, lane: usize, lane_depth: usize) {
        self.accepted.incr();
        self.queue_high_water.record_max(lane_depth as u64);
        if let Some(metrics) = self.lanes.get(lane) {
            metrics.routed.incr();
            metrics.high_water.record_max(lane_depth as u64);
        }
    }

    /// Counts a request shed by the backpressure policy.
    pub fn on_rejected(&self) {
        self.rejected.incr();
    }

    /// Counts a submission refused by the per-session token-bucket rate
    /// limit (a noisy dongle being held back, not queue pressure).
    pub fn on_rate_limited(&self) {
        self.rate_limited.incr();
    }

    /// Total refusals so far — shed plus rate-limited. The adaptive span
    /// sampler's overload signal: any growth here means the gateway is
    /// turning work away and span volume should back off.
    pub fn refusals(&self) -> u64 {
        self.rejected.get() + self.rate_limited.get()
    }

    /// Counts one retry (link failure backoff or resubmission after shed).
    pub fn on_retried(&self) {
        self.retried.incr();
    }

    /// Counts a request fully served by a worker.
    pub fn on_completed(&self) {
        self.completed.incr();
    }

    /// Counts a request abandoned client-side (deadline or retry budget).
    pub fn on_failed(&self) {
        self.failed.incr();
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            accepted: self.accepted.get(),
            rejected: self.rejected.get(),
            rate_limited: self.rate_limited.get(),
            retried: self.retried.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            queue_high_water: self.queue_high_water.get(),
            shard_routed: self.lanes.iter().map(|l| l.routed.get()).collect(),
            shard_depth: self.lanes.iter().map(|l| l.high_water.get()).collect(),
            shard_contention: Vec::new(),
            wal_appends: 0,
            wal_fsyncs: 0,
            wal_bytes: 0,
            wal_recovered_entries: 0,
            wal_truncated_bytes: 0,
            cache_hits: 0,
            cache_misses: 0,
            drained: false,
            queue_wait: self.queue_wait.snapshot(),
            service_time: self.service_time.snapshot(),
            uplink_time: self.uplink_time.snapshot(),
        }
    }
}

/// An immutable copy of [`GatewayMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the work queue.
    pub accepted: u64,
    /// Requests shed with retry-after by the backpressure policy.
    pub rejected: u64,
    /// Submissions refused by the per-session token-bucket rate limit.
    /// Distinct from `rejected`: this is one session being too loud, not
    /// the queue being full.
    pub rate_limited: u64,
    /// Retries: link-failure backoffs plus resubmissions after shed.
    pub retried: u64,
    /// Requests fully served by workers.
    pub completed: u64,
    /// Requests abandoned client-side (deadline exceeded / retries spent).
    pub failed: u64,
    /// Deepest any worker lane ever got (post-enqueue). With one lane
    /// this is the classic whole-queue high-water mark; with several it
    /// is the worst single lane, which is what backpressure tuning needs.
    pub queue_high_water: u64,
    /// Requests routed to each worker lane, in lane order.
    pub shard_routed: Vec<u64>,
    /// Per-lane queue-depth high-water marks, in lane order.
    pub shard_depth: Vec<u64>,
    /// Contended enrollment-lock writes per *cloud* shard, in shard
    /// order. Filled by the gateway from
    /// [`CloudService::shard_stats`](medsen_cloud::service::CloudService::shard_stats)
    /// at snapshot time; empty on a bare [`GatewayMetrics::snapshot`].
    pub shard_contention: Vec<u64>,
    /// Write-ahead-log frames appended by the cloud tier. Zero on a bare
    /// [`GatewayMetrics::snapshot`] or a memory-only service; filled by
    /// the gateway from the service's storage stats, like
    /// [`MetricsSnapshot::shard_contention`].
    pub wal_appends: u64,
    /// Fsyncs issued by the write-ahead log (group commit batches many
    /// appends into one).
    pub wal_fsyncs: u64,
    /// Frame bytes written to the write-ahead log.
    pub wal_bytes: u64,
    /// Log entries replayed when the service recovered from disk.
    pub wal_recovered_entries: u64,
    /// Torn-tail bytes the recovery discarded.
    pub wal_truncated_bytes: u64,
    /// Analysis responses served from the cloud tier's content-addressed
    /// cache. Zero on a bare [`GatewayMetrics::snapshot`]; filled by the
    /// gateway from [`CloudService::cache_stats`](medsen_cloud::service::CloudService::cache_stats).
    pub cache_hits: u64,
    /// Analysis requests that ran the full DSP pipeline (cache misses).
    pub cache_misses: u64,
    /// Whether the gateway has been [drained](crate::Gateway::drain):
    /// no longer admitting sessions, in-flight work finished, final WAL
    /// flush forced.
    pub drained: bool,
    /// Queue-wait latency distribution.
    pub queue_wait: LatencySnapshot,
    /// Worker service-time distribution.
    pub service_time: LatencySnapshot,
    /// Simulated uplink-time distribution.
    pub uplink_time: LatencySnapshot,
}

impl MetricsSnapshot {
    /// Accepted requests not yet completed. Zero once the fleet has
    /// drained: nothing accepted into the queue was dropped.
    pub fn lost(&self) -> u64 {
        self.accepted.saturating_sub(self.completed)
    }
}

/// Every field, every time: operators diff snapshots across runs, and a
/// line that appears only when its counters are non-zero makes "is the
/// WAL idle or is the WAL missing?" ambiguous. The format is pinned by a
/// golden test below — extend it deliberately.
impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "accepted {} | rejected {} | rate-limited {} | retried {} | completed {} | failed {}",
            self.accepted,
            self.rejected,
            self.rate_limited,
            self.retried,
            self.completed,
            self.failed
        )?;
        writeln!(f, "queue high-water: {}", self.queue_high_water)?;
        writeln!(
            f,
            "shard lanes: routed {:?} depth-hw {:?} | lock contention {:?}",
            self.shard_routed, self.shard_depth, self.shard_contention
        )?;
        writeln!(
            f,
            "wal: appends {} | fsyncs {} | bytes {} | recovered {} (truncated {} B)",
            self.wal_appends,
            self.wal_fsyncs,
            self.wal_bytes,
            self.wal_recovered_entries,
            self.wal_truncated_bytes,
        )?;
        writeln!(
            f,
            "cache: hits {} | misses {} | drained {}",
            self.cache_hits,
            self.cache_misses,
            if self.drained { "yes" } else { "no" }
        )?;
        writeln!(
            f,
            "queue wait:   n={} mean={:.1}µs p99≤{}µs max={}µs",
            self.queue_wait.count,
            self.queue_wait.mean_us(),
            self.queue_wait.percentile_us(0.99),
            self.queue_wait.max_us
        )?;
        writeln!(
            f,
            "service time: n={} mean={:.1}µs p99≤{}µs max={}µs",
            self.service_time.count,
            self.service_time.mean_us(),
            self.service_time.percentile_us(0.99),
            self.service_time.max_us
        )?;
        write!(
            f,
            "uplink time:  n={} mean={:.1}µs p99≤{}µs max={}µs (simulated)",
            self.uplink_time.count,
            self.uplink_time.mean_us(),
            self.uplink_time.percentile_us(0.99),
            self.uplink_time.max_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_and_high_water() {
        let m = GatewayMetrics::registered(1, &Registry::new());
        m.on_accepted(0, 3);
        m.on_accepted(0, 7);
        m.on_accepted(0, 5);
        m.on_rejected();
        m.on_rate_limited();
        m.on_rate_limited();
        m.on_retried();
        m.on_completed();
        m.on_failed();
        let s = m.snapshot();
        assert_eq!(
            (s.accepted, s.rejected, s.retried, s.completed, s.failed),
            (3, 1, 1, 1, 1)
        );
        assert_eq!(s.rate_limited, 2);
        assert_eq!(s.queue_high_water, 7);
        assert_eq!(s.lost(), 2);
    }

    #[test]
    fn metrics_snapshot_round_trips_through_clone_and_eq() {
        let m = GatewayMetrics::registered(1, &Registry::new());
        m.on_accepted(0, 2);
        m.on_rejected();
        m.on_retried();
        m.on_completed();
        m.queue_wait.record(Duration::from_micros(17));
        m.service_time.record_seconds(0.002);
        m.uplink_time.record_seconds(0.05);
        let a = m.snapshot();
        let b = a.clone();
        assert_eq!(a, b, "snapshot is a value type: clone compares equal");
        // A later snapshot of the same live metrics also matches: snapshots
        // are coherent copies, not views.
        assert_eq!(a, m.snapshot());
        m.on_failed();
        assert_ne!(a, m.snapshot(), "new activity diverges from the copy");
        assert_eq!(a.lost(), 0, "one accepted, one completed");
        assert!(a.to_string().contains("accepted 1"));
    }

    #[test]
    fn empty_snapshot_is_sane() {
        let s = GatewayMetrics::registered(1, &Registry::new()).snapshot();
        assert_eq!(s.lost(), 0);
        assert_eq!(s.queue_wait.mean_us(), 0.0);
        assert_eq!(s.queue_wait.percentile_us(0.99), 0);
        assert_eq!(s.shard_routed, vec![0]);
        assert_eq!(s.shard_depth, vec![0]);
        assert!(s.shard_contention.is_empty());
        assert_eq!((s.cache_hits, s.cache_misses), (0, 0));
        let _ = s.to_string();
    }

    #[test]
    fn lane_counters_track_routing_and_depth() {
        let m = GatewayMetrics::registered(4, &Registry::new());
        assert_eq!(m.lane_count(), 4);
        m.on_accepted(0, 1);
        m.on_accepted(2, 3);
        m.on_accepted(2, 1);
        m.on_accepted(99, 7); // out-of-range lane: counted globally only
        let s = m.snapshot();
        assert_eq!(s.accepted, 4);
        assert_eq!(s.shard_routed, vec![1, 0, 2, 0]);
        assert_eq!(s.shard_depth, vec![1, 0, 3, 0]);
        assert_eq!(s.queue_high_water, 7, "global mark tracks every accept");
        assert!(s.to_string().contains("shard lanes"));
    }

    #[test]
    fn zero_lanes_clamps_to_one() {
        let m = GatewayMetrics::registered(0, &Registry::new());
        assert_eq!(m.lane_count(), 1);
        m.on_accepted(0, 5);
        assert_eq!(m.snapshot().shard_depth, vec![5]);
    }

    #[test]
    fn registered_metrics_share_instruments_with_the_registry() {
        let registry = Registry::new();
        let m = GatewayMetrics::registered(2, &registry);
        m.on_accepted(1, 4);
        m.on_completed();
        m.queue_wait.record(Duration::from_micros(10));
        let snap = registry.snapshot();
        assert_eq!(snap.scalar("gateway.accepted"), Some(1));
        assert_eq!(snap.scalar("gateway.completed"), Some(1));
        assert_eq!(snap.scalar("gateway.queue_high_water"), Some(4));
        assert_eq!(snap.scalar("gateway.lane.0.routed"), Some(0));
        assert_eq!(snap.scalar("gateway.lane.1.routed"), Some(1));
        assert_eq!(snap.scalar("gateway.lane.1.depth_high_water"), Some(4));
        assert!(matches!(
            snap.get("gateway.queue_wait"),
            Some(medsen_telemetry::MetricValue::Histogram(h)) if h.count == 1
        ));
        // Every legacy counter has a registered dotted name.
        for name in [
            "gateway.accepted",
            "gateway.rejected",
            "gateway.rate_limited",
            "gateway.retried",
            "gateway.completed",
            "gateway.failed",
            "gateway.queue_high_water",
            "gateway.queue_wait",
            "gateway.service_time",
            "gateway.uplink_time",
        ] {
            assert!(registry.names().iter().any(|n| n == name), "missing {name}");
        }
    }

    /// Golden format: the Display output includes every field
    /// unconditionally — an all-zero WAL still prints its line, an
    /// undrained gateway still says so.
    #[test]
    fn display_includes_every_field_unconditionally() {
        let m = GatewayMetrics::registered(1, &Registry::new());
        let empty = m.snapshot().to_string();
        for needle in [
            "accepted 0 | rejected 0 | rate-limited 0 | retried 0 | completed 0 | failed 0",
            "queue high-water: 0",
            "shard lanes: routed [0] depth-hw [0] | lock contention []",
            "wal: appends 0 | fsyncs 0 | bytes 0 | recovered 0 (truncated 0 B)",
            "cache: hits 0 | misses 0 | drained no",
            "queue wait:   n=0 mean=0.0µs p99≤0µs max=0µs",
            "service time: n=0 mean=0.0µs p99≤0µs max=0µs",
            "uplink time:  n=0 mean=0.0µs p99≤0µs max=0µs (simulated)",
        ] {
            assert!(empty.contains(needle), "missing {needle:?} in:\n{empty}");
        }

        // Pin the exact full rendering for a populated snapshot.
        let mut s = m.snapshot();
        s.accepted = 5;
        s.rejected = 1;
        s.rate_limited = 3;
        s.retried = 2;
        s.completed = 4;
        s.failed = 1;
        s.queue_high_water = 3;
        s.shard_routed = vec![3, 2];
        s.shard_depth = vec![2, 3];
        s.shard_contention = vec![0, 1];
        s.wal_appends = 7;
        s.wal_fsyncs = 2;
        s.wal_bytes = 512;
        s.wal_recovered_entries = 1;
        s.wal_truncated_bytes = 9;
        s.cache_hits = 6;
        s.cache_misses = 4;
        s.drained = true;
        let golden =
            "accepted 5 | rejected 1 | rate-limited 3 | retried 2 | completed 4 | failed 1\n\
                      queue high-water: 3\n\
                      shard lanes: routed [3, 2] depth-hw [2, 3] | lock contention [0, 1]\n\
                      wal: appends 7 | fsyncs 2 | bytes 512 | recovered 1 (truncated 9 B)\n\
                      cache: hits 6 | misses 4 | drained yes\n\
                      queue wait:   n=0 mean=0.0µs p99≤0µs max=0µs\n\
                      service time: n=0 mean=0.0µs p99≤0µs max=0µs\n\
                      uplink time:  n=0 mean=0.0µs p99≤0µs max=0µs (simulated)";
        assert_eq!(s.to_string(), golden);
    }
}
