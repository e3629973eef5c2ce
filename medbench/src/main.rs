//! The MedSen serving benchmark.
//!
//! ```text
//! medbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! medbench steady --workload <name> --seed <n> --runs <r> --seconds <s> [--trace <0|1>] [--vary-seed]
//! ```
//!
//! A run generates the workload's inputs from the seed, drives them
//! through the serving stack, checks every reply against an oracle, and
//! prints each metric by name with its unit. `--trace 0` measures the
//! end-to-end metrics with spans off; `--trace 1` is a separate traced
//! pass that prints the per-layer metrics. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A wrong reply exits 1.
//!
//! `steady` repeats a run in child processes and prints, per metric, the
//! median, the quartiles and the spread against its bound in
//! `BENCHMARK.json`, flagging every metric whose spread exceeds a third
//! of its bound.

mod gen;
mod json;
mod replay;
mod serve;
mod spans;
mod stats;

use json::Json;
use medsen_cloud::service::Request;
use medsen_gateway::TelemetryConfig;
use medsen_telemetry::{RegistrySnapshot, Stage, STAGES};
use serve::{Backend, ClinicPlan, DataDirs, DiagnosePlan, EnrollPlan, Plan, Stack, Tally};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const CATALOGUE: &str = include_str!("../catalogue.json");
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Seed of the open-loop arrival schedule, the same for every `--seed`:
/// the seed varies what is served, not when it arrives. How a seeded
/// schedule happened to cluster its arrivals moved `latency_tail_ms` by
/// a quarter from seed to seed on its own.
const SCHEDULE_SEED: u64 = 0x700;
/// Idle time before each repeated set-up.
const SETUP_PAUSE: Duration = Duration::from_millis(2);
/// Untimed jobs before the open loop.
const WARMUP_JOBS: usize = 8;
/// Slices of the closed loop; `throughput_rps` is the median slice rate.
const THROUGHPUT_WINDOWS: usize = 8;
/// Closed-loop shares of a traced run: untraced, then traced.
const UNTRACED_SHARE: f64 = 0.2;
const TRACED_CLOSED_SHARE: f64 = 0.3;
/// Wall time the layer replay may take after a traced run.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);
/// Span-ring slots reserved per traced request.
const SPANS_PER_REQUEST: usize = 16;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("steady") => steady(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("medbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    vary_seed: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Options {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            runs: 5,
            vary_seed: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--vary-seed" {
                o.vary_seed = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => o.workload = value.clone(),
                "--seed" => o.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => o.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    o.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--runs" => o.runs = value.parse().map_err(|e| bad(&e))?,
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        if !(o.seconds.is_finite() && o.seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(o)
    }
}

/// One workload's entry in the catalogue.
struct Spec {
    name: String,
    /// Open-loop arrivals per second; each arrival is one job.
    rate: f64,
    /// Requests one job sends (clinic sessions send three).
    steps: usize,
    closed_share: f64,
    tail_percentile: f64,
    /// Consecutive runs of arrivals the tail is taken over (median).
    tail_segments: usize,
    latency_limit_ms: f64,
    traced_cap: usize,
    /// Set-ups per end-to-end run; `setup_s` is their median.
    setup_repeats: usize,
}

fn catalogue() -> Result<Json, String> {
    Json::parse(CATALOGUE).map_err(|e| format!("catalogue.json: {e}"))
}

fn spec(name: &str) -> Result<Spec, String> {
    let catalogue = catalogue()?;
    let w = catalogue
        .get("workloads")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    Ok(Spec {
        name: name.to_string(),
        rate: w.num_field("open_loop_rps")?,
        steps: w.num_field("requests_per_arrival")? as usize,
        closed_share: w.num_field("closed_share")?,
        tail_percentile: w.num_field("tail_percentile")?,
        tail_segments: w.num_field("tail_segments")? as usize,
        latency_limit_ms: w.num_field("latency_limit_ms")?,
        traced_cap: w.num_field("traced_request_cap")? as usize,
        setup_repeats: w.num_field("setup_repeats")? as usize,
    })
}

/// Units of every catalogued metric, with `stage.<stage>.*` expanded.
fn units() -> Result<Vec<(String, String)>, String> {
    let catalogue = catalogue()?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in catalogue
            .get(section)
            .map(Json::as_array)
            .unwrap_or_default()
        {
            let (name, unit) = (m.str_field("name")?, m.str_field("unit")?);
            if name.contains("<stage>") {
                for stage in STAGES {
                    out.push((name.replace("<stage>", stage.name()), unit.to_string()));
                }
            } else {
                out.push((name.to_string(), unit.to_string()));
            }
        }
    }
    Ok(out)
}

/// The metric names `BENCHMARK.json` lists for one mode.
fn benchmark_metrics(trace: bool) -> Result<Vec<(String, Json)>, String> {
    let doc = Json::parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let section = if trace { "per_layer" } else { "end_to_end" };
    doc.get(section)
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| Ok((m.str_field("name")?.to_string(), m.clone())))
        .collect()
}

/// A workload's generated inputs, as the plan the runs drive.
enum Loaded {
    Diagnose(DiagnosePlan),
    Enroll(EnrollPlan),
    Clinic(ClinicPlan),
}

impl Loaded {
    fn load(spec: &Spec, seed: u64, dirs: Option<&DataDirs>) -> Result<(Self, u64), String> {
        let threads = nproc();
        Ok(match (spec.name.as_str(), dirs) {
            ("diagnose_long", _) => {
                let (cases, digest) = gen::diagnose_inputs(seed, threads);
                (Loaded::Diagnose(DiagnosePlan { cases }), digest)
            }
            ("enroll_durable", Some(dirs)) => {
                let (inputs, digest) = gen::enroll_inputs(seed, &dirs.pristine())?;
                (Loaded::Enroll(EnrollPlan::new(inputs)), digest)
            }
            ("clinic_mix", Some(dirs)) => {
                let (inputs, digest) = gen::clinic_inputs(seed, threads, &dirs.pristine())?;
                (Loaded::Clinic(ClinicPlan { seed, inputs }), digest)
            }
            (name, _) => return Err(format!("no inputs for workload `{name}`")),
        })
    }

    fn durable(name: &str) -> bool {
        name != "diagnose_long"
    }

    fn plan(&self) -> &dyn Plan {
        match self {
            Loaded::Diagnose(p) => p,
            Loaded::Enroll(p) => p,
            Loaded::Clinic(p) => p,
        }
    }

    fn classifier(&self) -> Option<&medsen_dsp::classify::Classifier> {
        match self {
            Loaded::Clinic(p) => Some(&p.inputs.classifier),
            _ => None,
        }
    }

    /// Whole-run oracles beyond the per-reply checks.
    fn end_checks(&self, stack: &Stack) -> Vec<String> {
        let mut problems = Vec::new();
        let metrics = stack.gateway.metrics();
        if metrics.lost() != 0 {
            problems.push(format!(
                "{} accepted requests never completed",
                metrics.lost()
            ));
        }
        if let (Loaded::Enroll(plan), Some(pair)) = (self, &stack.pair) {
            // Every acknowledged enrollment is on its shard, on both nodes.
            let expected: Vec<usize> = plan
                .prior_per_shard
                .iter()
                .zip(&plan.enrolled)
                .map(|(prior, new)| prior + new.load(std::sync::atomic::Ordering::Relaxed) as usize)
                .collect();
            for (node, service) in [("primary", pair.primary()), ("standby", pair.standby())] {
                let occupancy: Vec<usize> =
                    service.shard_stats().iter().map(|s| s.enrolled).collect();
                if occupancy != expected {
                    problems.push(format!(
                        "{node} shard occupancy {occupancy:?} != pre-populated + enrolled {expected:?}"
                    ));
                }
            }
        }
        problems
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The result of one run: metrics by name, plus the outcome counts.
struct Outcome {
    metrics: Vec<(String, f64)>,
    tally: Tally,
    problems: Vec<String>,
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let opts = Options::parse(args)?;
    let spec = spec(&opts.workload)?;
    println!(
        "medbench workload={} seed={} seconds={} trace={} nproc={} profile={}",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        nproc(),
        profile()
    );
    let dirs = if Loaded::durable(&spec.name) {
        Some(DataDirs::new(&spec.name)?)
    } else {
        None
    };
    let generated = Instant::now();
    let (loaded, digest) = Loaded::load(&spec, opts.seed, dirs.as_ref())?;
    println!(
        "inputs: digest {digest:016x} (generated in {:.2} s)",
        generated.elapsed().as_secs_f64()
    );
    let outcome = if opts.trace {
        layers(&spec, &opts, &loaded, dirs.as_ref())?
    } else {
        end_to_end(&spec, &opts, &loaded, dirs.as_ref())?
    };
    drop(dirs);
    report(&opts, outcome)
}

/// Prints every metric by name with its unit, then the result line.
fn report(opts: &Options, outcome: Outcome) -> Result<ExitCode, String> {
    let units = units()?;
    let unit_of = |name: &str| {
        units
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, u)| u.as_str())
            .ok_or_else(|| format!("metric `{name}` is not in the catalogue"))
    };
    for (name, value) in &outcome.metrics {
        println!("{name} = {value} {}", unit_of(name)?);
    }
    let t = &outcome.tally;
    println!(
        "outcome: attempted={} ok={} failed={} wrong={}",
        t.attempted, t.ok, t.failed, t.wrong
    );
    if let Some(problem) = &t.first_problem {
        println!("first problem: {problem}");
    }
    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }
    let correct = t.wrong == 0 && outcome.problems.is_empty();
    let mut fields = Vec::new();
    for (name, _) in benchmark_metrics(opts.trace)? {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("run produced no `{name}`"))?;
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(&name),
            json::quote(unit_of(&name)?)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted.max(1),
        t.failed,
        fields.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn open_schedule(spec: &Spec, seconds: f64, cap: usize) -> Vec<Duration> {
    let n = ((spec.rate * seconds).round() as usize).clamp(1, cap.max(1));
    stats::poisson_schedule(&mut gen::Rng::new(SCHEDULE_SEED), spec.rate, n)
}

fn end_to_end(
    spec: &Spec,
    opts: &Options,
    loaded: &Loaded,
    dirs: Option<&DataDirs>,
) -> Result<Outcome, String> {
    let after_inputs = stats::read_status();
    let plan = loaded.plan();
    let set_up = || serve::set_up(dirs, loaded.classifier(), TelemetryConfig::disabled());
    let (stack, took) = set_up()?;
    let mut setups = vec![took.as_secs_f64()];
    // A few untimed jobs first, so the open loop does not time the
    // process's first page faults and cold caches.
    let warm = serve::closed_loop(&stack.gateway, plan, nproc(), 3600.0, 0, WARMUP_JOBS);
    // The open loop runs a fixed schedule, so the memory it takes is the
    // same work on every run; the closed loop's volume depends on speed.
    let dues = open_schedule(spec, opts.seconds * (1.0 - spec.closed_share), usize::MAX);
    let open = serve::open_loop(&stack.gateway, plan, &dues, warm.next_job);
    let peak_rss = stats::peak_rss_mb(&after_inputs, &stats::read_status()).unwrap_or(0.0);
    let closed_seconds = opts.seconds * spec.closed_share;
    let closed = serve::closed_loop(
        &stack.gateway,
        plan,
        nproc(),
        closed_seconds,
        warm.next_job + dues.len(),
        usize::MAX / 2,
    );
    let problems = loaded.end_checks(&stack);
    serve::leak(stack);
    // The remaining set-ups come after the measurements, so the stacks
    // they leave behind stay out of `peak_rss_mb`.
    for _ in 1..spec.setup_repeats {
        // Each set-up starts from an idle process, as a real start does,
        // not on the heels of the last one while its threads still start:
        // back to back, the memory-only set-up's median moved by a third
        // from run to run.
        std::thread::sleep(SETUP_PAUSE);
        let (extra, took) = set_up()?;
        setups.push(took.as_secs_f64());
        serve::leak(extra);
    }

    let ms: Vec<f64> = open.latencies_ms.iter().map(|&(_, ms)| ms).collect();
    let latencies = stats::sorted(&ms);
    let n = latencies.len();
    let (tail, segment_tails) = stats::segmented_tail(
        &open.latencies_ms,
        dues.len(),
        spec.tail_segments,
        spec.tail_percentile,
    );
    let per_segment = n / spec.tail_segments.max(1);
    let sorted_setups = stats::sorted(&setups);
    println!(
        "set-up: median of {} = {:.6} s (min {:.6}, max {:.6})",
        setups.len(),
        stats::percentile(&sorted_setups, 50.0),
        sorted_setups[0],
        sorted_setups[sorted_setups.len() - 1]
    );
    println!(
        "closed loop: {} threads, {} correct replies in {:.2} s",
        nproc(),
        closed.tally.ok,
        closed.elapsed.as_secs_f64()
    );
    println!(
        "open loop: {} arrivals at {}/s, {n} first replies timed in {:.2} s; {} follow-ups, p50 {:.3} ms",
        dues.len(),
        spec.rate,
        open.elapsed.as_secs_f64(),
        open.follow_up_ms.len(),
        stats::median(&open.follow_up_ms),
    );
    println!(
        "tail: median over {} segments of ~{per_segment} replies at p{} ({} beyond each; rule: {}): {:?} ms",
        spec.tail_segments,
        spec.tail_percentile,
        stats::beyond(per_segment, spec.tail_percentile),
        stats::tail_percentile(per_segment).map_or("too few samples".into(), |p| format!("p{p}")),
        segment_tails,
    );
    let lags_ms: Vec<f64> = open.lags.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    let throughput = stats::windowed_rate(
        &closed.completions,
        Duration::from_secs_f64(closed_seconds),
        THROUGHPUT_WINDOWS,
    );
    let mut tally = warm.tally;
    tally.merge(closed.tally);
    tally.merge(open.tally);
    let over_limit = latencies
        .iter()
        .filter(|&&l| l > spec.latency_limit_ms)
        .count() as u64;
    println!(
        "latency limit {} ms: {} of {} open-loop requests missed it (failures count as misses); p{} {}",
        spec.latency_limit_ms,
        over_limit + tally.failed,
        n as u64 + tally.failed,
        spec.tail_percentile,
        if tail <= spec.latency_limit_ms { "meets it" } else { "misses it" }
    );
    println!(
        "fail_ratio = {} ratio ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!(
        "harness.generator_lag_ms.p99 = {} ms",
        stats::percentile(&stats::sorted(&lags_ms), 99.0)
    );
    let metrics = vec![
        (
            "setup_s".to_string(),
            stats::percentile(&sorted_setups, 50.0),
        ),
        ("throughput_rps".into(), throughput),
        ("latency_p50_ms".into(), stats::percentile(&latencies, 50.0)),
        ("latency_tail_ms".into(), tail),
        ("peak_rss_mb".into(), peak_rss),
    ];
    Ok(Outcome {
        metrics,
        tally,
        problems,
    })
}

/// Counter movement between two registry snapshots.
fn delta(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> u64 {
    after
        .scalar(name)
        .unwrap_or(0)
        .saturating_sub(before.scalar(name).unwrap_or(0))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced pass: a closed loop with spans off, then a closed loop and
/// an open loop with every span recorded, then the layer replay.
fn layers(
    spec: &Spec,
    opts: &Options,
    loaded: &Loaded,
    dirs: Option<&DataDirs>,
) -> Result<Outcome, String> {
    let plan = loaded.plan();
    let threads = nproc();
    let (stack, _) = serve::set_up(dirs, loaded.classifier(), TelemetryConfig::disabled())?;
    let untraced = serve::closed_loop(
        &stack.gateway,
        plan,
        threads,
        opts.seconds * UNTRACED_SHARE,
        0,
        usize::MAX / 2,
    );
    let pair = stack.pair.clone();
    serve::leak(stack);

    let cap_jobs = spec.traced_cap / 2 / spec.steps;
    let telemetry = TelemetryConfig {
        ring_capacity: spec.traced_cap * SPANS_PER_REQUEST,
        ..TelemetryConfig::default()
    };
    let gateway = match &pair {
        Some(pair) => serve::gateway_over(Backend::Replicated(pair.clone()), telemetry),
        None => serve::gateway_over(Backend::Memory(Box::default()), telemetry),
    };
    let recorder = gateway.span_recorder().expect("spans are on").clone();
    let before = gateway.registry_snapshot();
    let traced = serve::closed_loop(
        &gateway,
        plan,
        threads,
        opts.seconds * TRACED_CLOSED_SHARE,
        untraced.next_job,
        cap_jobs,
    );
    let closed_spans = recorder.recorded() as usize;
    let open_seconds = opts.seconds * (1.0 - UNTRACED_SHARE - TRACED_CLOSED_SHARE);
    let dues = open_schedule(spec, open_seconds, cap_jobs);
    let open = serve::open_loop(&gateway, plan, &dues, traced.next_job);
    let recorded = recorder.recorded() as usize;
    let spans = recorder.snapshot();
    let after = gateway.registry_snapshot();
    let m = gateway.metrics();
    let stack = Stack { gateway, pair };
    let problems = loaded.end_checks(&stack);
    serve::leak(stack);
    if recorded > recorder.capacity() {
        return Err(format!(
            "span ring overflowed: {recorded} spans > {} slots",
            recorder.capacity()
        ));
    }
    // The ring never wrapped, so the snapshot is in claim order and the
    // open loop's spans are the ones claimed after the closed loop's.

    let b = spans::StageBreakdown::from_spans(&spans);
    let open_queue: Vec<u64> = spans[closed_spans.min(spans.len())..]
        .iter()
        .filter(|s| s.stage == Stage::Queue)
        .map(|s| s.duration_ns())
        .collect();
    let stage_ms = |stage: Stage, p: f64| {
        b.duration_ns
            .get(&stage)
            .map_or(0.0, |ns| spans::percentile_ms(ns, p))
    };
    let replay_items;
    let enroll_requests: Vec<Request>;
    let follow_ups: [Request; 2];
    let mut auth = None;
    match loaded {
        Loaded::Diagnose(p) => replay_items = replay::diagnose_items(&p.cases),
        Loaded::Enroll(p) => {
            enroll_requests = (0..256)
                .map(|k| gen::enroll_request(p.seed, usize::MAX / 4 + k))
                .collect();
            replay_items = replay::enroll_items(&enroll_requests);
        }
        Loaded::Clinic(p) => {
            let record_id = medsen_cloud::RecordId(1);
            follow_ups = [
                Request::Fetch { record_id },
                Request::VerifyIntegrity { record_id },
            ];
            replay_items = replay::clinic_items(&p.inputs.sessions, &follow_ups);
            let db = medsen_cloud::ShardedAuth::new(gen::SHARDS);
            for (identifier, signature) in &p.inputs.enrolled {
                db.enroll(identifier.clone(), signature.clone());
            }
            auth = Some(replay::AuthReplay {
                classifier: &p.inputs.classifier,
                db,
            });
        }
    }
    let r = replay::replay(&replay_items, auth.as_ref(), REPLAY_BUDGET);

    let d = |name: &str| delta(&before, &after, name) as f64;
    let abs = |name: &str| after.scalar(name).unwrap_or(0) as f64;
    let lookups = d("cache.hits") + d("cache.misses");
    let contention: f64 = (0..gen::SHARDS)
        .map(|i| d(&format!("cloud.shard.{i}.contention")))
        .sum();
    let routed = &m.shard_routed;
    let (max_routed, min_routed) = (
        routed.iter().copied().max().unwrap_or(0) as f64,
        routed.iter().copied().min().unwrap_or(0) as f64,
    );
    let traced_requests = (traced.tally.attempted + open.tally.attempted) as f64;
    let traced_rps = traced.tally.ok as f64 / traced.elapsed.as_secs_f64();
    let untraced_rps = untraced.tally.ok as f64 / untraced.elapsed.as_secs_f64();
    let lags_ms: Vec<f64> = open.lags.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    let us = |ms: f64| ms * 1e3;
    let mut metrics: Vec<(String, f64)> = vec![
        ("phone.encode_ms".into(), r.p50_ms("phone.encode")),
        (
            "phone.upload_bytes".into(),
            ratio(r.upload_bytes as f64, r.uploads as f64),
        ),
        (
            "phone.fountain_encode_ms".into(),
            r.p50_ms("phone.fountain_encode"),
        ),
        (
            "wire.crc32_mb_s".into(),
            ratio(r.crc_bytes as f64 / 1e6, r.total_s("wire.crc32")),
        ),
        (
            "wire.request_decode_ms".into(),
            r.p50_ms("wire.request_decode"),
        ),
        (
            "wire.response_encode_us".into(),
            us(r.p50_ms("wire.response_encode")),
        ),
        (
            "gateway.reassembly_ms".into(),
            r.p50_ms("gateway.reassembly"),
        ),
        (
            "gateway.admission_us".into(),
            us(stage_ms(Stage::Admission, 50.0)),
        ),
        (
            "gateway.queue_wait_ms.p50".into(),
            spans::percentile_ms(&open_queue, 50.0),
        ),
        (
            "gateway.queue_wait_ms.p99".into(),
            spans::percentile_ms(&open_queue, 99.0),
        ),
        ("gateway.service_ms".into(), stage_ms(Stage::Service, 50.0)),
        ("gateway.requests".into(), m.accepted as f64),
        ("gateway.retried".into(), m.retried as f64),
        ("gateway.rejected".into(), m.rejected as f64),
        ("gateway.queue_high_water".into(), m.queue_high_water as f64),
        (
            "gateway.lane_imbalance".into(),
            ratio(max_routed, min_routed.max(1.0)),
        ),
        (
            "fountain.decode_ms".into(),
            spans::mean_ms(
                b.duration_ns
                    .get(&Stage::FountainDecode)
                    .map_or(&[][..], Vec::as_slice),
            ),
        ),
        (
            "fountain.symbols_received".into(),
            abs("fountain.symbols_received"),
        ),
        (
            "fountain.useful_ratio".into(),
            if abs("fountain.symbols_received") > 0.0 {
                1.0 - abs("fountain.symbols_redundant") / abs("fountain.symbols_received")
            } else {
                0.0
            },
        ),
        (
            "fountain.overhead_permille".into(),
            abs("fountain.overhead_permille"),
        ),
        (
            "fountain.sessions_evicted".into(),
            abs("fountain.sessions_evicted"),
        ),
        ("cloud.digest_ms".into(), r.p50_ms("cloud.digest")),
        ("cloud.cache_lookups".into(), lookups),
        (
            "cloud.cache_hit_ratio".into(),
            ratio(d("cache.hits"), lookups),
        ),
        ("cloud.auth_us".into(), us(r.p50_ms("cloud.auth"))),
        (
            "cloud.shard_lock_wait_us".into(),
            us(stage_ms(Stage::ShardLock, 50.0)),
        ),
        ("cloud.shard_contention".into(), contention),
        ("cloud.unattributed_ms".into(), b.unattributed_ms()),
        (
            "cloud.service_accounted_ratio".into(),
            ratio(b.service_accounted_ns as f64, b.service_total_ns as f64),
        ),
        ("dsp.detrend_ms".into(), r.p50_ms("dsp.detrend")),
        ("dsp.detect_ms".into(), r.p50_ms("dsp.detect")),
        ("dsp.analysis_ms".into(), stage_ms(Stage::Analysis, 50.0)),
        (
            "dsp.msamples_per_s".into(),
            ratio(
                r.samples as f64 / 1e6,
                r.total_s("dsp.detrend") + r.total_s("dsp.detect"),
            ),
        ),
        ("store.wal_appends".into(), d("wal.appends")),
        (
            "store.wal_append_us.p50".into(),
            us(spans::percentile_ms(&b.primary_wal_append_ns, 50.0)),
        ),
        (
            "store.wal_append_us.p99".into(),
            us(spans::percentile_ms(&b.primary_wal_append_ns, 99.0)),
        ),
        (
            "store.wal_fsync_us.p50".into(),
            us(spans::percentile_ms(&b.primary_wal_fsync_ns, 50.0)),
        ),
        (
            "store.wal_fsync_us.p99".into(),
            us(spans::percentile_ms(&b.primary_wal_fsync_ns, 99.0)),
        ),
        (
            "store.fsyncs_per_append".into(),
            ratio(d("wal.fsyncs"), d("wal.appends")),
        ),
        (
            "store.bytes_per_append".into(),
            ratio(d("wal.bytes_written"), d("wal.appends")),
        ),
        (
            "store.recovered_entries".into(),
            abs("wal.recovered_entries"),
        ),
        ("replica.shipped_frames".into(), d("replica.shipped_frames")),
        (
            "replica.ship_us".into(),
            us(stage_ms(Stage::Replication, 50.0)),
        ),
        (
            "replica.bytes_per_frame".into(),
            ratio(d("replica.shipped_bytes"), d("replica.shipped_frames")),
        ),
        ("replica.lag_bytes".into(), abs("replica.lag_bytes")),
        ("replica.ship_failures".into(), d("replica.ship_failures")),
        (
            "telemetry.overhead_ratio".into(),
            ratio(untraced_rps, traced_rps) - 1.0,
        ),
        (
            "telemetry.spans_per_request".into(),
            ratio(recorded as f64, traced_requests),
        ),
        (
            "harness.generator_lag_ms.p99".into(),
            stats::percentile(&stats::sorted(&lags_ms), 99.0),
        ),
    ];
    for stage in STAGES {
        let self_ns = b.self_ns.get(&stage).map_or(&[][..], Vec::as_slice);
        metrics.push((
            format!("stage.{}.self_p50_ms", stage.name()),
            spans::percentile_ms(self_ns, 50.0),
        ));
        metrics.push((
            format!("stage.{}.self_p99_ms", stage.name()),
            spans::percentile_ms(self_ns, 99.0),
        ));
        metrics.push((format!("stage.{}.share", stage.name()), b.share(stage)));
    }
    println!(
        "traced: {} requests in {} traces, {recorded} spans; untraced {untraced_rps:.1} req/s vs traced {traced_rps:.1} req/s",
        traced_requests, b.traces
    );
    println!(
        "service accounting: {:.3} ms of service = {:.3} ms of stage self time under it (unattributed included)",
        b.service_total_ns as f64 / 1e6,
        b.service_accounted_ns as f64 / 1e6
    );
    println!(
        "analysis cross-check: span p50 {:.3} ms vs replay detrend+detect p50 {:.3} ms",
        stage_ms(Stage::Analysis, 50.0),
        r.p50_ms("dsp.detrend") + r.p50_ms("dsp.detect")
    );
    let mut tally = untraced.tally;
    tally.merge(traced.tally);
    tally.merge(open.tally);
    for (_, v) in &mut metrics {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    Ok(Outcome {
        metrics,
        tally,
        problems,
    })
}

/// Repeats a run in child processes and reports each metric's spread.
fn steady(args: &[String]) -> Result<ExitCode, String> {
    let opts = Options::parse(args)?;
    spec(&opts.workload)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results: Vec<Json> = Vec::new();
    for i in 0..opts.runs {
        let seed = if opts.vary_seed {
            opts.seed + i as u64
        } else {
            opts.seed
        };
        let out = std::process::Command::new(&exe)
            .args(["--workload", &opts.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let result =
            Json::parse(last).map_err(|e| format!("run {i} (seed {seed}): {e}: {last}"))?;
        println!(
            "run {i} seed {seed}: exit {:?}, correct {:?}",
            out.status.code(),
            result.get("correct")
        );
        if !out.status.success() {
            return Err(format!("run {i} (seed {seed}) failed:\n{stdout}"));
        }
        results.push(result);
    }
    let mut flagged = 0;
    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (name, entry) in benchmark_metrics(opts.trace)? {
        let values: Vec<f64> = results
            .iter()
            .filter_map(|r| r.get("metrics")?.get(&name)?.get("value")?.as_f64())
            .collect();
        let Some([q1, median, q3]) = stats::quartiles(&values) else {
            continue;
        };
        let spread = ratio(q3 - q1, median.abs());
        let bound = entry.get("bound").and_then(Json::as_f64);
        // The driver does not bound set-up time's spread, only its drift.
        let over = bound.is_some_and(|b| spread > b / 3.0) && name != "setup_s";
        flagged += usize::from(over);
        println!(
            "{name:<34} {q1:>12.4} {median:>12.4} {q3:>12.4} {spread:>8.4} {:>7} {}",
            bound.map_or("-".into(), |b| b.to_string()),
            if over { "SPREAD ABOVE bound/3" } else { "" }
        );
        let runs: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!("  runs: {}", runs.join(" "));
    }
    println!("{flagged} metric(s) flagged");
    Ok(if flagged == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> Json {
        Json::parse(BENCHMARK).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let catalogue = catalogue().unwrap();
        let units = units().unwrap();
        let directions: Vec<(String, String)> = ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|s| catalogue.get(s).unwrap().as_array().to_vec())
            .map(|m| {
                (
                    m.str_field("name").unwrap().to_string(),
                    m.str_field("better").unwrap().to_string(),
                )
            })
            .collect();
        for trace in [false, true] {
            for (name, entry) in benchmark_metrics(trace).unwrap() {
                let unit = units
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, u)| u.as_str());
                assert_eq!(unit, entry.get("unit").and_then(Json::as_str), "{name}");
                let template = STAGES.iter().fold(name.clone(), |n, s| {
                    n.replace(&format!("stage.{}.", s.name()), "stage.<stage>.")
                });
                let better = directions
                    .iter()
                    .find(|(n, _)| *n == template)
                    .map(|(_, b)| b.as_str());
                assert_eq!(better, entry.get("better").and_then(Json::as_str), "{name}");
            }
        }
        let bench = bench();
        let names: Vec<&str> = bench
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.str_field("name").unwrap())
            .collect();
        let bounded: Vec<&str> = catalogue
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .filter(|w| w.get("in_benchmark_json") != Some(&Json::Bool(false)))
            .map(|w| w.str_field("name").unwrap())
            .collect();
        assert_eq!(names, bounded);
        assert_eq!(names, ["diagnose_long", "clinic_mix"]);
    }

    #[test]
    fn pinned_tail_percentiles_follow_the_rule_at_run_seconds() {
        let run_seconds = bench().num_field("run_seconds").unwrap();
        for w in catalogue().unwrap().get("workloads").unwrap().as_array() {
            let spec = spec(w.str_field("name").unwrap()).unwrap();
            let arrivals = (spec.rate * run_seconds * (1.0 - spec.closed_share)).round() as usize;
            let samples = arrivals / spec.tail_segments;
            assert_eq!(
                samples as f64,
                w.num_field("tail_samples").unwrap(),
                "{}",
                spec.name
            );
            assert_eq!(
                stats::tail_percentile(samples),
                Some(spec.tail_percentile),
                "{}",
                spec.name
            );
        }
    }
}
