//! Reconciling overload soak: a scaled-clock storm that drives every
//! refusal path the gateway has — queue shed, per-session rate limiting,
//! fountain session eviction, and one primary failover — and then proves
//! the books balance *exactly*.
//!
//! The harness is an accounting exercise, not a benchmark. The driver
//! keeps its own ledger from submission results alone (every attempt ends
//! in exactly one of completed / shed / rate-limited / evicted), then
//! checks it against the exposition's overload counters:
//!
//! * `completed + shed + rate_limited + evicted == submitted` — the
//!   driver's ledger is total;
//! * `gateway.rejected == shed + evicted` — fountain evictions
//!   intentionally double-count into the queue's shed counter (one
//!   counter answers "are we turning work away?"), so the exposition
//!   must agree with the sum;
//! * `gateway.rate_limited == rate_limited` and
//!   `fountain.sessions_evicted == evicted` — each refusal class maps to
//!   its own instrument with nothing lost or invented;
//! * `telemetry.spans_recorded + telemetry.spans_sampled_out ==
//!   telemetry.spans_admitted` — the adaptive sampler's ledger stays
//!   exact through the whole storm (the [`Sampler`](medsen_telemetry::Sampler)
//!   contract), while overload pressure visibly drags
//!   `telemetry.sampler_permille` below 1000.
//!
//! "Scaled clock" means shed retry-after hints sleep in the gateway's
//! compressed simulated time (see `TIME_COMPRESSION`), so a storm that
//! would pace out over minutes of simulated time runs in real seconds —
//! which is what lets the standard preset push ≥10⁶ requests through a
//! debug-profile test run.

use crate::fountain::FountainConfig;
use crate::gateway::{
    Gateway, GatewayConfig, PendingReply, RuntimeKind, ShedPolicy, SubmitError, SymbolIngest,
    TelemetryConfig,
};
use crate::limit::RateLimitConfig;
use medsen_cloud::service::{CloudService, Request};
use medsen_cloud::{FlushPolicy, StorageConfig};
use medsen_phone::{OneWayUploader, SymbolBudget};
use medsen_units::Seconds;
use medsen_wire::WireFormat;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Session id the rate-limit storm hammers (one noisy device).
const STORM_SESSION: u64 = 0xBAD;
/// Session id the shed storm routes on (pins one lane).
const SHED_SESSION: u64 = 0xF00D;
/// First session id of the fountain eviction phase.
const FOUNTAIN_SESSION_BASE: u64 = 0x4000;
/// First session id of the failover phase.
const FAILOVER_SESSION_BASE: u64 = 0x8000;
/// Pace the shed storm in compressed time every this many refusals —
/// enough to exercise the pacing without serializing the storm on it.
const SHED_PACE_STRIDE: u64 = 256;

/// Phase sizing for one soak run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakConfig {
    /// Requests served end to end before any overload is induced.
    pub normal_requests: u64,
    /// Submission attempts thrown against an exhausted token bucket.
    pub rate_limit_storm: u64,
    /// Submission attempts thrown against a paused (never-draining) full
    /// queue.
    pub shed_storm: u64,
    /// Fountain decoder table capacity for the eviction phase; the phase
    /// strands this many half-decoded sessions and completes this many
    /// more, evicting every stranded one.
    pub fountain_capacity: usize,
    /// Requests served after the primary is killed (across the failover).
    pub failover_requests: u64,
    /// Gateway worker count.
    pub workers: usize,
    /// Gateway total queue capacity.
    pub queue_capacity: usize,
}

impl SoakConfig {
    /// The acceptance preset: ≥ 10⁶ total submission attempts, the bulk
    /// of them cheap rate-limit refusals so the run fits a debug-profile
    /// test budget.
    pub fn standard() -> Self {
        Self {
            normal_requests: 4_096,
            rate_limit_storm: 1_000_000,
            shed_storm: 4_096,
            fountain_capacity: 64,
            failover_requests: 512,
            workers: 4,
            queue_capacity: 64,
        }
    }

    /// A seconds-scale preset for CI smoke runs and `medsen soak --quick`.
    pub fn quick() -> Self {
        Self {
            normal_requests: 256,
            rate_limit_storm: 20_000,
            shed_storm: 512,
            fountain_capacity: 16,
            failover_requests: 64,
            workers: 4,
            queue_capacity: 32,
        }
    }

    /// Total submission attempts the run will make (every one lands in
    /// exactly one ledger bucket).
    pub fn total_attempts(&self) -> u64 {
        self.normal_requests
            + self.rate_limit_storm
            + 1 // the storm's single admitted bucket token
            + self.shed_storm // shed attempts (the fill is extra, counted at run time)
            + 2 * self.fountain_capacity as u64
            + self.failover_requests
    }
}

/// The driver's ledger plus the exposition counters it must reconcile
/// against, captured after the final drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakReport {
    /// Every submission attempt (two-way submits + one-way streams).
    pub submitted: u64,
    /// Attempts that produced a reply the driver then received.
    pub completed: u64,
    /// Attempts refused by the full queue ([`SubmitError::Busy`]).
    pub shed: u64,
    /// Attempts refused by the token bucket ([`SubmitError::RateLimited`]).
    pub rate_limited: u64,
    /// One-way streams stranded half-decoded and capacity-evicted.
    pub evicted: u64,
    /// `gateway.rejected` from the exposition.
    pub exp_rejected: u64,
    /// `gateway.rate_limited` from the exposition.
    pub exp_rate_limited: u64,
    /// `fountain.sessions_evicted` from the exposition.
    pub exp_evicted: u64,
    /// `replica.promotions` from the exposition (the failover count).
    pub promotions: u64,
    /// `telemetry.spans_admitted` — spans offered to the sampler funnel.
    pub spans_admitted: u64,
    /// `telemetry.spans_recorded` — spans that reached the ring.
    pub spans_recorded: u64,
    /// `telemetry.spans_sampled_out` — spans the funnel dropped.
    pub spans_sampled_out: u64,
    /// `telemetry.sampler_permille` after the storm (1000 = keep all).
    pub sampler_permille: u64,
    /// Wall-clock duration of the run, in milliseconds.
    pub elapsed_ms: u64,
}

impl SoakReport {
    /// Checks every reconciliation invariant, returning the violated ones.
    pub fn reconcile(&self) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        let accounted = self.completed + self.shed + self.rate_limited + self.evicted;
        if accounted != self.submitted {
            errors.push(format!(
                "ledger leak: completed {} + shed {} + rate_limited {} + evicted {} = {} != submitted {}",
                self.completed, self.shed, self.rate_limited, self.evicted, accounted, self.submitted
            ));
        }
        if self.exp_rejected != self.shed + self.evicted {
            errors.push(format!(
                "gateway.rejected {} != shed {} + evicted {}",
                self.exp_rejected, self.shed, self.evicted
            ));
        }
        if self.exp_rate_limited != self.rate_limited {
            errors.push(format!(
                "gateway.rate_limited {} != rate_limited {}",
                self.exp_rate_limited, self.rate_limited
            ));
        }
        if self.exp_evicted != self.evicted {
            errors.push(format!(
                "fountain.sessions_evicted {} != evicted {}",
                self.exp_evicted, self.evicted
            ));
        }
        if self.promotions != 1 {
            errors.push(format!(
                "expected exactly one failover, saw {}",
                self.promotions
            ));
        }
        if self.spans_recorded + self.spans_sampled_out != self.spans_admitted {
            errors.push(format!(
                "sampler ledger: recorded {} + sampled_out {} != admitted {}",
                self.spans_recorded, self.spans_sampled_out, self.spans_admitted
            ));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "soak: {} attempts in {} ms",
            self.submitted, self.elapsed_ms
        )?;
        writeln!(
            f,
            "  ledger     completed {} | shed {} | rate-limited {} | evicted {}",
            self.completed, self.shed, self.rate_limited, self.evicted
        )?;
        writeln!(
            f,
            "  exposition gateway.rejected {} | gateway.rate_limited {} | fountain.sessions_evicted {} | replica.promotions {}",
            self.exp_rejected, self.exp_rate_limited, self.exp_evicted, self.promotions
        )?;
        writeln!(
            f,
            "  sampler    admitted {} | recorded {} | sampled-out {} | keep {}‰",
            self.spans_admitted, self.spans_recorded, self.spans_sampled_out, self.sampler_permille
        )?;
        match self.reconcile() {
            Ok(()) => write!(f, "  reconciled exactly"),
            Err(errors) => {
                for e in &errors {
                    writeln!(f, "  VIOLATION: {e}")?;
                }
                write!(f, "  reconciliation FAILED ({} invariants)", errors.len())
            }
        }
    }
}

/// Monotonic run counter so concurrent soaks in one process get distinct
/// storage directories without consulting the wall clock.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

fn storage_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "medsen-soak-{}-{}-{tag}",
        std::process::id(),
        RUN_SEQ.load(Ordering::Relaxed),
    ))
}

fn ping_upload(session: u64) -> Vec<u8> {
    let body = medsen_cloud::wire::encode_request(WireFormat::Binary, &Request::Ping)
        .expect("ping encodes");
    crate::wire::encode_upload_wire(session, WireFormat::Binary, &body)
}

/// Runs one soak and captures the reconciliation report. The run drives
/// a replicated durable pair through an adaptive-sampled gateway; every
/// phase's submission results feed the driver's ledger.
pub fn run(config: &SoakConfig) -> SoakReport {
    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let dirs = [
        storage_dir(&format!("{seq}-p")),
        storage_dir(&format!("{seq}-s")),
    ];
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    let [primary, standby] = dirs.each_ref().map(|dir| {
        CloudService::with_storage_config(
            // Batched flushing: the soak's few writes need durability
            // plumbing present, not per-write fsync latency.
            StorageConfig::new(dir).flush(FlushPolicy::EveryN(64)),
            2,
        )
        .expect("soak storage opens")
    });
    let pair = primary.with_replication(standby).expect("pair wires up");
    let gateway = Gateway::with_replicas(
        std::sync::Arc::clone(&pair),
        GatewayConfig {
            queue_capacity: config.queue_capacity,
            workers: config.workers,
            shed_policy: ShedPolicy::Reject {
                retry_after: Seconds::from_millis(5.0),
            },
        },
        RuntimeKind::Async,
        TelemetryConfig::adaptive(),
    );

    let mut submitted = 0u64;
    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut rate_limited = 0u64;

    let wait_all = |replies: Vec<PendingReply>, completed: &mut u64| {
        for reply in replies {
            reply.wait().expect("soak reply resolves");
            *completed += 1;
        }
    };

    // --- Phase 1: normal traffic, batches bounded well under the queue
    // so nothing sheds. ---
    let batch = (config.queue_capacity / 4).max(1) as u64;
    let mut replies = Vec::with_capacity(batch as usize);
    let mut sent = 0;
    while sent < config.normal_requests {
        for i in 0..batch.min(config.normal_requests - sent) {
            let session = sent + i + 1;
            match gateway.submit(ping_upload(session)) {
                Ok(reply) => replies.push(reply),
                // A full lane is still a counted attempt; the ledger and
                // the rejected counter move together.
                Err(SubmitError::Busy { .. }) => shed += 1,
                Err(e) => panic!("normal phase refused: {e}"),
            }
            submitted += 1;
        }
        sent += batch.min(config.normal_requests - sent);
        wait_all(std::mem::take(&mut replies), &mut completed);
    }

    // --- Phase 2: rate-limit storm. One noisy session with a one-token
    // bucket and no refill: the first attempt is admitted, every other
    // attempt is a cheap counted refusal. ---
    gateway.set_rate_limit(RateLimitConfig::per_session(1.0, 0.0));
    let storm_upload = ping_upload(STORM_SESSION);
    let mut storm_replies = Vec::new();
    for _ in 0..config.rate_limit_storm + 1 {
        match gateway.submit(storm_upload.clone()) {
            Ok(reply) => storm_replies.push(reply),
            Err(SubmitError::RateLimited { .. }) => rate_limited += 1,
            Err(e) => panic!("storm phase refused unexpectedly: {e}"),
        }
        submitted += 1;
    }
    gateway.clear_rate_limit();
    wait_all(storm_replies, &mut completed);

    // --- Phase 3: shed storm. Pause the workers, fill one lane to its
    // brim, then bounce attempts off it; resume and let the fill drain. ---
    gateway.pause();
    let mut fill_replies = Vec::new();
    loop {
        match gateway.submit(ping_upload(SHED_SESSION)) {
            Ok(reply) => {
                fill_replies.push(reply);
                submitted += 1;
            }
            Err(SubmitError::Busy { .. }) => {
                // The lane is full; the probe is the storm's first shed.
                submitted += 1;
                shed += 1;
                break;
            }
            Err(e) => panic!("fill phase refused unexpectedly: {e}"),
        }
    }
    for i in 0..config.shed_storm {
        match gateway.submit(ping_upload(SHED_SESSION)) {
            Ok(reply) => fill_replies.push(reply), // racing drain; still counted
            Err(SubmitError::Busy { retry_after, .. }) => {
                shed += 1;
                if i.is_multiple_of(SHED_PACE_STRIDE) {
                    // Wait in compressed time like a real session
                    // honoring the hint — the "scaled clock" in action.
                    gateway.pace(retry_after);
                }
            }
            Err(e) => panic!("shed storm refused unexpectedly: {e}"),
        }
        submitted += 1;
    }
    gateway.resume();
    wait_all(fill_replies, &mut completed);

    // --- Phase 4: fountain eviction. Strand `fountain_capacity` one-way
    // streams half-decoded, then push the same number of complete streams
    // through: each new stream capacity-evicts the stalest stranded one. ---
    gateway.set_fountain_config(FountainConfig {
        max_sessions: config.fountain_capacity,
        max_buffered_symbols: 1 << 16,
        session_timeout: Duration::from_secs(3_600),
    });
    let one_way = |session: u64| {
        let framed = ping_upload(session);
        // Tiny symbols force k ≥ 2 source symbols even for a ping, so
        // one buffered symbol provably leaves the stream half-decoded.
        let upload = OneWayUploader {
            symbol_bytes: 8,
            budget: SymbolBudget::paper_default(),
        }
        .encode_numbered(session, 0, &framed)
        .expect("one-way encode");
        assert!(
            upload.stats.encoder.source_symbols >= 2,
            "stranding requires a multi-symbol block"
        );
        upload
    };
    let evicted = config.fountain_capacity as u64;
    for i in 0..config.fountain_capacity as u64 {
        let upload = one_way(FOUNTAIN_SESSION_BASE + i);
        // One symbol only: the stream is now stranded half-decoded.
        match gateway.ingest_symbol(&upload.frames[0]) {
            Ok(SymbolIngest::Progress { .. }) => {}
            other => panic!("stranded stream should report progress, got {other:?}"),
        }
        submitted += 1;
    }
    let mut fountain_replies = Vec::new();
    for i in 0..config.fountain_capacity as u64 {
        let upload = one_way(FOUNTAIN_SESSION_BASE + 0x1000 + i);
        let mut reply = None;
        for frame in &upload.frames {
            match gateway.ingest_symbol(frame) {
                Ok(SymbolIngest::Complete { reply: r, .. }) => {
                    reply = Some(r);
                    break;
                }
                Ok(_) => {}
                Err(e) => panic!("completing stream refused: {e}"),
            }
        }
        fountain_replies.push(reply.expect("budgeted stream completes"));
        submitted += 1;
    }
    wait_all(fountain_replies, &mut completed);

    // --- Phase 5: kill the primary mid-fleet; traffic must fail over to
    // the promoted standby without the driver doing anything. ---
    pair.kill_primary();
    let mut failover_replies = Vec::new();
    for i in 0..config.failover_requests {
        match gateway.submit(ping_upload(FAILOVER_SESSION_BASE + i)) {
            Ok(reply) => failover_replies.push(reply),
            Err(SubmitError::Busy { .. }) => shed += 1,
            Err(e) => panic!("failover phase refused: {e}"),
        }
        submitted += 1;
        if failover_replies.len() >= (config.queue_capacity / 4).max(1) {
            wait_all(std::mem::take(&mut failover_replies), &mut completed);
        }
    }
    wait_all(failover_replies, &mut completed);

    // --- Drain and reconcile. ---
    gateway.drain();
    let snap = gateway.registry_snapshot();
    let scalar = |name: &str| snap.scalar(name).unwrap_or(0);
    let report = SoakReport {
        submitted,
        completed,
        shed,
        rate_limited,
        evicted,
        exp_rejected: scalar("gateway.rejected"),
        exp_rate_limited: scalar("gateway.rate_limited"),
        exp_evicted: scalar("fountain.sessions_evicted"),
        promotions: scalar("replica.promotions"),
        spans_admitted: scalar("telemetry.spans_admitted"),
        spans_recorded: scalar("telemetry.spans_recorded"),
        spans_sampled_out: scalar("telemetry.spans_sampled_out"),
        sampler_permille: scalar("telemetry.sampler_permille"),
        elapsed_ms: started.elapsed().as_millis() as u64,
    };
    gateway.shutdown();
    drop(pair);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick preset reconciles exactly — the full-size run lives in
    /// `tests/soak_overload.rs`.
    #[test]
    fn quick_soak_reconciles_exactly() {
        let report = run(&SoakConfig::quick());
        println!("{report}");
        if let Err(errors) = report.reconcile() {
            panic!("soak failed to reconcile:\n{}", errors.join("\n"));
        }
        let config = SoakConfig::quick();
        assert!(report.rate_limited >= 19_000, "storm mostly refused");
        // Workers already parked in `recv()` before `pause()` can each
        // steal one queued item mid-storm, so up to `workers` storm
        // attempts may be admitted instead of shed.
        assert!(
            report.shed >= config.shed_storm - config.workers as u64,
            "shed storm counted, got {}",
            report.shed
        );
        assert_eq!(report.evicted, 16);
        assert_eq!(report.promotions, 1);
        assert!(
            report.sampler_permille < 1000,
            "overload must drag the keep probability down, got {}",
            report.sampler_permille
        );
    }
}
