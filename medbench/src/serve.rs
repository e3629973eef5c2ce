//! Drives generated inputs through the real serving stack — phone encode
//! → gateway → sharded cloud → WAL → warm standby → reply decode — in a
//! closed loop and an open loop, checking every reply against its oracle.

use crate::gen::{self, ClinicInputs, DiagnoseCase, Uplink};
use crate::stats::{paced, Clock, WallClock};
use medsen_cloud::auth::AuthDecision;
use medsen_cloud::service::{CloudService, Request, Response};
use medsen_cloud::ReplicatedCloud;
use medsen_gateway::{
    DongleSession, FountainConfig, Gateway, GatewayConfig, RetryPolicy, RuntimeKind, SessionConfig,
    TelemetryConfig,
};
use medsen_phone::SymbolBudget;
use medsen_wire::WireFormat;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// What a workload sends, and how every reply is checked.
pub trait Plan: Sync {
    /// Whether each job needs a session of its own (clinic sessions
    /// differ in uplink); otherwise each closed-loop thread keeps one
    /// session for the whole phase.
    fn session_per_job(&self) -> bool;
    fn config(&self, job: usize) -> SessionConfig;
    fn first(&self, job: usize) -> Cow<'_, Request>;
    /// Checks the reply to step `step` of `job`, whose request was
    /// `sent`; returns the job's next request, if it has one.
    fn check(
        &self,
        job: usize,
        step: usize,
        sent: &Request,
        response: &Response,
    ) -> Result<Option<Request>, String>;
}

pub struct DiagnosePlan {
    pub cases: Vec<DiagnoseCase>,
}

impl Plan for DiagnosePlan {
    fn session_per_job(&self) -> bool {
        false
    }

    fn config(&self, _job: usize) -> SessionConfig {
        SessionConfig::reliable()
    }

    fn first(&self, job: usize) -> Cow<'_, Request> {
        // Pool order: every trace is 160 distinct uploads away from its
        // previous use, past the 128-entry cache.
        Cow::Borrowed(&self.cases[job % self.cases.len()].request)
    }

    fn check(
        &self,
        job: usize,
        _: usize,
        _: &Request,
        response: &Response,
    ) -> Result<Option<Request>, String> {
        let expected = &self.cases[job % self.cases.len()].expected;
        match response {
            Response::Analyzed {
                report,
                auth: None,
                stored_as: None,
            } if report == expected => Ok(None),
            Response::Analyzed { report, .. } => Err(format!(
                "diagnose job {job}: {} peaks served, the direct analysis found {}",
                report.peak_count(),
                expected.peak_count()
            )),
            other => Err(format!("diagnose job {job}: unexpected reply {other:?}")),
        }
    }
}

pub struct EnrollPlan {
    pub seed: u64,
    /// Identities per shard the pre-populated store holds.
    pub prior_per_shard: Vec<usize>,
    /// Enrollments acknowledged per shard during the run.
    pub enrolled: Vec<AtomicU64>,
}

impl EnrollPlan {
    pub fn new(inputs: gen::EnrollInputs) -> Self {
        Self {
            seed: inputs.seed,
            prior_per_shard: inputs.prior_per_shard,
            enrolled: (0..gen::SHARDS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Plan for EnrollPlan {
    fn session_per_job(&self) -> bool {
        false
    }

    fn config(&self, _job: usize) -> SessionConfig {
        SessionConfig::reliable()
    }

    fn first(&self, job: usize) -> Cow<'_, Request> {
        Cow::Owned(gen::enroll_request(self.seed, job))
    }

    fn check(
        &self,
        job: usize,
        _: usize,
        sent: &Request,
        response: &Response,
    ) -> Result<Option<Request>, String> {
        match (sent, response) {
            (Request::Enroll { identifier, .. }, Response::Enrolled) => {
                let shard = medsen_cloud::shard_index(identifier, gen::SHARDS);
                self.enrolled[shard].fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
            (_, other) => Err(format!("enroll job {job}: unexpected reply {other:?}")),
        }
    }
}

/// Symbol budget of the one-way clinic sessions. The budget
/// `SymbolBudget::for_drop_rate(0.1)` sizes, about 2.2 k symbols for a
/// k-symbol block, leaves the peeling decoder short for about one block
/// in 600 at 10 % drop (k = 150-220, 200 000 seeded trials; the worst
/// needed 3.1 k), so a run of thousands of uploads gave up on a few.
/// Five times k failed none of those trials. A stream stops the moment
/// its block completes, so the larger budget only makes the phone encode
/// more symbols up front.
pub const FOUNTAIN_BUDGET: SymbolBudget = SymbolBudget {
    factor: 5.0,
    floor: 24,
};

pub struct ClinicPlan {
    pub seed: u64,
    pub inputs: ClinicInputs,
}

impl ClinicPlan {
    fn session(&self, job: usize) -> &gen::ClinicSession {
        &self.inputs.sessions[job % self.inputs.sessions.len()]
    }
}

impl Plan for ClinicPlan {
    fn session_per_job(&self) -> bool {
        true
    }

    fn config(&self, job: usize) -> SessionConfig {
        let link_seed = gen::mix(self.seed, 0x800 + job as u64);
        let flaky = SessionConfig {
            // Ten attempts at 10 % loss: a request gives up with
            // probability 1e-10, so the workload runs without failures.
            retry: RetryPolicy {
                max_attempts: 10,
                ..RetryPolicy::paper_default()
            },
            ..SessionConfig::flaky(gen::CLINIC_LOSS, link_seed)
        };
        match self.session(job).uplink {
            Uplink::Binary => flaky,
            Uplink::Json => flaky.with_wire(WireFormat::Json),
            Uplink::Fountain => {
                SessionConfig::fountain(gen::CLINIC_LOSS, link_seed, FOUNTAIN_BUDGET)
            }
        }
    }

    fn first(&self, job: usize) -> Cow<'_, Request> {
        Cow::Borrowed(&self.session(job).request)
    }

    fn check(
        &self,
        job: usize,
        step: usize,
        sent: &Request,
        response: &Response,
    ) -> Result<Option<Request>, String> {
        let session = self.session(job);
        let wrong = |what: &str| {
            Err(format!(
                "clinic job {job} step {step}: {what}: {response:?}"
            ))
        };
        match (step, sent, response) {
            (
                0,
                _,
                Response::Analyzed {
                    report,
                    auth: Some(AuthDecision::Accepted { user_id }),
                    stored_as: Some(record_id),
                },
            ) if *report == session.expected && *user_id == session.user => {
                Ok(Some(Request::Fetch {
                    record_id: *record_id,
                }))
            }
            (0, _, _) => wrong("auth did not name the right user with the direct report"),
            (1, Request::Fetch { record_id }, Response::Record(record))
                if record.user_id == session.user
                    && record.report == session.expected
                    && record.signature == session.signature =>
            {
                Ok(Some(Request::VerifyIntegrity {
                    record_id: *record_id,
                }))
            }
            (1, _, _) => wrong("fetch did not return the stored record"),
            (2, _, Response::Integrity { intact: true }) => Ok(None),
            _ => wrong("stored record is not intact"),
        }
    }
}

/// Outcome counts of one phase.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    /// Requests that failed, were refused, or were given up.
    pub failed: u64,
    /// Replies that disagreed with the oracle.
    pub wrong: u64,
    pub first_problem: Option<String>,
}

impl Tally {
    fn note(&mut self, problem: String) {
        if self.first_problem.is_none() {
            self.first_problem = Some(problem);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.wrong += other.wrong;
        if let Some(p) = other.first_problem {
            self.note(p);
        }
    }

    /// Checks and counts one reply. `Ok` means the oracle agreed and
    /// carries the job's next request, if it has one.
    fn judge(
        &mut self,
        plan: &dyn Plan,
        job: usize,
        step: usize,
        sent: &Request,
        response: &Response,
    ) -> Result<Option<Request>, ()> {
        match plan.check(job, step, sent, response) {
            Ok(next) => {
                self.ok += 1;
                Ok(next)
            }
            Err(problem) => {
                self.wrong += 1;
                self.note(problem);
                Err(())
            }
        }
    }
}

/// Sends `request` as step `step` of `job` on a blocking session, then
/// the job's remaining steps, calling `on_reply` after each correct
/// reply. Returns whether the whole job completed correctly.
fn run_steps(
    session: &mut DongleSession<'_>,
    plan: &dyn Plan,
    job: usize,
    mut step: usize,
    mut request: Cow<'_, Request>,
    tally: &mut Tally,
    on_reply: &mut dyn FnMut(),
) -> bool {
    loop {
        tally.attempted += 1;
        let response = match session.request(&request) {
            Ok(response) => response,
            Err(e) => {
                tally.failed += 1;
                tally.note(format!("job {job} step {step}: {e}"));
                return false;
            }
        };
        match tally.judge(plan, job, step, &request, &response) {
            Ok(Some(next)) => {
                on_reply();
                request = Cow::Owned(next);
                step += 1;
            }
            Ok(None) => {
                on_reply();
                return true;
            }
            Err(()) => return false,
        }
    }
}

pub struct ClosedResult {
    pub tally: Tally,
    pub elapsed: Duration,
    /// When each correct reply arrived, from the start of the phase.
    pub completions: Vec<Duration>,
    pub next_job: usize,
}

/// `threads` blocking sessions, each sending its next request only after
/// its reply, until `seconds` pass or `max_jobs` jobs have started.
pub fn closed_loop(
    gateway: &Gateway,
    plan: &dyn Plan,
    threads: usize,
    seconds: f64,
    first_job: usize,
    max_jobs: usize,
) -> ClosedResult {
    let next = AtomicUsize::new(first_job);
    let limit = first_job + max_jobs;
    // Long-lived sessions connect here, in order, so their ids (and so
    // their link RNG streams) do not depend on thread scheduling.
    let sessions: Vec<Option<DongleSession<'_>>> = (0..threads)
        .map(|_| (!plan.session_per_job()).then(|| gateway.connect(plan.config(0))))
        .collect();
    let deadline = Duration::from_secs_f64(seconds);
    let clock = WallClock(Instant::now());
    let mut tally = Tally::default();
    let mut completions = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .map(|mut own| {
                let (next, clock) = (&next, &clock);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut done = Vec::new();
                    while clock.now() < deadline {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        if job >= limit {
                            break;
                        }
                        let mut fresh;
                        let session = match &mut own {
                            Some(session) => session,
                            None => {
                                fresh = gateway.connect(plan.config(job));
                                &mut fresh
                            }
                        };
                        let first = plan.first(job);
                        run_steps(session, plan, job, 0, first, &mut tally, &mut || {
                            done.push(clock.now())
                        });
                    }
                    (tally, done)
                })
            })
            .collect();
        for handle in handles {
            let (t, done) = handle.join().expect("closed-loop thread");
            tally.merge(t);
            completions.extend(done);
        }
    });
    completions.sort();
    ClosedResult {
        tally,
        elapsed: clock.now(),
        completions,
        next_job: next.load(Ordering::Relaxed).min(limit),
    }
}

/// A request on its way through the open loop.
struct InFlight<'g, 'p> {
    /// Index of the arrival in the schedule.
    arrival: usize,
    job: usize,
    step: usize,
    /// When the request was due: the arrival's time for its first
    /// request, the previous reply's for a follow-up.
    due: Duration,
    request: Cow<'p, Request>,
    session: DongleSession<'g>,
}

pub struct OpenResult {
    pub tally: Tally,
    /// Latency of every arrival's first request, in ms, from when it was
    /// due to its decoded reply, with the arrival's index.
    pub latencies_ms: Vec<(usize, f64)>,
    /// Latency of the follow-up requests, timed from when each was sent.
    pub follow_up_ms: Vec<f64>,
    /// How late the generator sent each arrival.
    pub lags: Vec<Duration>,
    pub elapsed: Duration,
}

/// Poisson arrivals at their due times, each a fresh dongle session (the
/// clinics are independent, so arrivals never wait on replies). One
/// thread submits on schedule; one collects replies in submission order
/// and sends each job's follow-up requests the moment a reply arrives.
/// The reported latency is the first request's: a clinic session's fetch
/// and integrity check are checked and timed on their own, since two
/// sub-millisecond round trips would make the median a measure of thread
/// wake-ups on a shared host.
/// Latency is per arrival: a clinic session's fetch and integrity check
/// count toward its turnaround instead of being timed as two round trips
/// of their own, which on a shared host would make the median a measure
/// of thread wake-ups.
pub fn open_loop(
    gateway: &Gateway,
    plan: &dyn Plan,
    dues: &[Duration],
    first_job: usize,
) -> OpenResult {
    let clock = WallClock(Instant::now());
    let (tx, rx) = mpsc::channel::<InFlight<'_, '_>>();
    let mut submitted = Tally::default();
    let (collected, (latencies_ms, follow_up_ms), lags) = std::thread::scope(|scope| {
        let collector = scope.spawn(|| collect(rx, plan, &clock));
        let lags = paced(&clock, dues, |i| {
            let job = first_job + i;
            let mut session = gateway.connect(plan.config(job));
            let request = plan.first(job);
            submitted.attempted += 1;
            match session.submit(&request) {
                Ok(()) => tx
                    .send(InFlight {
                        arrival: i,
                        job,
                        step: 0,
                        due: dues[i],
                        request,
                        session,
                    })
                    .expect("collector outlives the generator"),
                Err(e) => {
                    submitted.failed += 1;
                    submitted.note(format!("job {job} step 0: {e}"));
                }
            }
        });
        drop(tx);
        let (tally, latencies) = collector.join().expect("collector thread");
        (tally, latencies, lags)
    });
    submitted.merge(collected);
    OpenResult {
        tally: submitted,
        latencies_ms,
        follow_up_ms,
        lags,
        elapsed: clock.now(),
    }
}

/// First-request latencies (with their arrival) and follow-up latencies.
type Collected = (Vec<(usize, f64)>, Vec<f64>);

fn collect<'g, 'p>(
    rx: mpsc::Receiver<InFlight<'g, 'p>>,
    plan: &'p dyn Plan,
    clock: &WallClock,
) -> (Tally, Collected) {
    let mut tally = Tally::default();
    let (mut firsts, mut follow_ups) = (Vec::new(), Vec::new());
    let mut queue: VecDeque<InFlight<'g, 'p>> = VecDeque::new();
    loop {
        // Keep submission order: everything already submitted goes
        // behind the follow-ups sent earlier.
        queue.extend(rx.try_iter());
        let Some(mut item) = queue.pop_front().or_else(|| rx.recv().ok()) else {
            break;
        };
        let reply = item.session.drain();
        let done = clock.now();
        let response = match reply.map(|mut r| r.pop()) {
            Ok(Some(response)) => response,
            Ok(None) => unreachable!("one request was pending"),
            Err(e) => {
                tally.failed += 1;
                tally.note(format!("job {} step {}: {e}", item.job, item.step));
                continue;
            }
        };
        let ms = done.saturating_sub(item.due).as_secs_f64() * 1e3;
        if item.step == 0 {
            firsts.push((item.arrival, ms));
        } else {
            follow_ups.push(ms);
        }
        let Ok(Some(next)) = tally.judge(plan, item.job, item.step, &item.request, &response)
        else {
            continue;
        };
        tally.attempted += 1;
        match item.session.submit(&next) {
            Ok(()) => queue.push_back(InFlight {
                step: item.step + 1,
                due: clock.now(),
                request: Cow::Owned(next),
                ..item
            }),
            Err(e) => {
                tally.failed += 1;
                tally.note(format!("job {} step {}: {e}", item.job, item.step + 1));
            }
        }
    }
    (tally, (firsts, follow_ups))
}

/// Where a durable workload keeps its data: a pristine pre-populated
/// store and the working directories each set-up copies it into. The
/// whole tree is removed on drop.
pub struct DataDirs {
    pub root: PathBuf,
}

impl DataDirs {
    pub fn new(workload: &str) -> Result<Self, String> {
        let root = Path::new(".bench_data").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Self { root })
    }

    pub fn pristine(&self) -> PathBuf {
        self.root.join("pristine")
    }

    /// Fresh primary (a copy of the pristine store) and empty standby
    /// directories.
    fn prepare(&self) -> Result<(PathBuf, PathBuf), String> {
        let (primary, standby) = (self.root.join("primary"), self.root.join("standby"));
        for dir in [&primary, &standby] {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let entries = std::fs::read_dir(self.pristine()).map_err(|e| e.to_string())?;
        for entry in entries {
            let entry = entry.map_err(|e| e.to_string())?;
            std::fs::copy(entry.path(), primary.join(entry.file_name()))
                .map_err(|e| e.to_string())?;
        }
        Ok((primary, standby))
    }
}

impl Drop for DataDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        let _ = std::fs::remove_dir(".bench_data");
    }
}

/// A ready-to-serve stack: the gateway and, for durable workloads, the
/// replicated pair behind it.
pub struct Stack {
    pub gateway: Gateway,
    pub pair: Option<Arc<ReplicatedCloud>>,
}

/// Leaves a stack running idle until the process exits instead of
/// tearing it down. `Gateway::shutdown` (and drop) can hang: the
/// runtime's executor sets its shutdown flag and notifies without
/// holding the run-queue lock, so a worker between its flag check and
/// its wait misses the notification and the join never returns. Idle
/// workers end with the process.
pub fn leak(stack: Stack) {
    std::mem::forget(stack);
}

/// What a gateway fronts.
pub enum Backend {
    Memory(Box<CloudService>),
    Replicated(Arc<ReplicatedCloud>),
}

/// Idle time after which the gateway forgets a fountain stream. The
/// default 30 s keeps a tombstone of every completed upload that long;
/// at clinic_mix rates those fill the 256-entry table within seconds,
/// and a new stream then evicts a live, half-decoded one (tombstones go
/// only when no live stream is left), failing that upload. A 1 s
/// timeout keeps the table below its cap, so the workload runs without
/// failures at the default table size; evictions are still reported as
/// `fountain.sessions_evicted`.
const FOUNTAIN_IDLE: Duration = Duration::from_secs(1);

/// The production gateway shape: clinic defaults, async engine, 8
/// shards; only the fountain idle timeout is shortened (see above).
pub fn gateway_over(backend: Backend, telemetry: TelemetryConfig) -> Gateway {
    let config = GatewayConfig::clinic_default();
    let gateway = match backend {
        Backend::Memory(service) => {
            Gateway::with_telemetry(*service, config, RuntimeKind::Async, telemetry)
        }
        Backend::Replicated(pair) => {
            Gateway::with_replicas(pair, config, RuntimeKind::Async, telemetry)
        }
    };
    gateway.set_fountain_config(FountainConfig {
        session_timeout: FOUNTAIN_IDLE,
        ..FountainConfig::default()
    });
    gateway
}

/// Builds the stack once, timed from start to ready-to-serve: recovering
/// the durable store and opening the standby, installing the
/// classifier, pairing with its base snapshot, and spawning the gateway.
/// Copying the pristine store into place is not timed.
pub fn set_up(
    dirs: Option<&DataDirs>,
    classifier: Option<&medsen_dsp::classify::Classifier>,
    telemetry: TelemetryConfig,
) -> Result<(Stack, Duration), String> {
    let Some(dirs) = dirs else {
        let started = Instant::now();
        let gateway = gateway_over(Backend::Memory(Box::default()), telemetry);
        return Ok((
            Stack {
                gateway,
                pair: None,
            },
            started.elapsed(),
        ));
    };
    let (primary_dir, standby_dir) = dirs.prepare()?;
    let started = Instant::now();
    let open = |dir: &Path| -> Result<CloudService, String> {
        let mut service =
            CloudService::with_storage(dir, gen::SHARDS, gen::FLUSH).map_err(|e| e.to_string())?;
        if let Some(classifier) = classifier {
            service.install_classifier(classifier.clone());
        }
        Ok(service)
    };
    let pair = open(&primary_dir)?
        .with_replication(open(&standby_dir)?)
        .map_err(|e| e.to_string())?;
    let gateway = gateway_over(Backend::Replicated(Arc::clone(&pair)), telemetry);
    Ok((
        Stack {
            gateway,
            pair: Some(pair),
        },
        started.elapsed(),
    ))
}
