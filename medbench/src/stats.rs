//! The benchmark's own arithmetic: percentiles and the tail rule,
//! quartiles for the steadiness report, the open-loop pacer whose
//! latencies count from each request's due time, and the resident-set
//! baseline subtraction.

use std::time::{Duration, Instant};

/// Nearest-rank index (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products (95 % of 200 = 190) from rounding
    // up to the next rank through floating-point noise.
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 9] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99];

/// The highest ladder percentile with at least ten samples beyond it,
/// or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= 10)
}

/// The tail of a run cut into `segments` consecutive runs of arrivals:
/// each segment's latencies at `p`, and their median. One long stall
/// moves one segment's tail, not the reported one. `latencies` pairs
/// each sample with the index (in `0..arrivals`) of its arrival.
pub fn segmented_tail(
    latencies: &[(usize, f64)],
    arrivals: usize,
    segments: usize,
    p: f64,
) -> (f64, Vec<f64>) {
    let segments = segments.clamp(1, arrivals.max(1));
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); segments];
    for &(arrival, ms) in latencies {
        parts[(arrival * segments / arrivals.max(1)).min(segments - 1)].push(ms);
    }
    let tails: Vec<f64> = parts.iter().map(|v| percentile(&sorted(v), p)).collect();
    (median(&tails), tails)
}

/// The median, averaging the two middle values of an even count (0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorts a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Closed-loop throughput robust to a transient stall: the replies that
/// landed within the phase are cut into `groups` runs of equal count,
/// each run's rate is its count over the time it spanned, and the median
/// run rate is reported. Replies after the phase (jobs in flight at its
/// end) are not counted.
pub fn windowed_rate(completions: &[Duration], phase: Duration, groups: usize) -> f64 {
    let done: Vec<f64> = completions
        .iter()
        .filter(|t| **t <= phase)
        .map(Duration::as_secs_f64)
        .collect();
    let size = done.len() / groups.max(1);
    if size == 0 {
        return 0.0;
    }
    let mut start = 0.0;
    let rates: Vec<f64> = done
        .chunks_exact(size)
        .map(|run| {
            let end = run[run.len() - 1];
            let rate = run.len() as f64 / (end - start).max(1e-9);
            start = end;
            rate
        })
        .collect();
    median(&rates)
}

/// A time source for the open-loop pacer.
pub trait Clock {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Returns once `now() >= t`.
    fn sleep_until(&self, t: Duration);
}

/// The real clock. Sleeps in the kernel until shortly before the target,
/// then yields the processor until it arrives, so sends start close to
/// their due times without a spinning thread starving the server.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        const SPIN: Duration = Duration::from_micros(200);
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            let left = t - now;
            if left > SPIN {
                std::thread::sleep(left - SPIN);
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Drives an open loop: calls `send(i)` for each due time in order,
/// never before it is due. A send that stalls delays the sends behind
/// it; their latency must still count from their *due* times, which is
/// why the due time, not the send time, is what the caller records.
/// Returns how late each send started.
pub fn paced<C: Clock>(clock: &C, dues: &[Duration], mut send: impl FnMut(usize)) -> Vec<Duration> {
    let mut lags = Vec::with_capacity(dues.len());
    for (i, &due) in dues.iter().enumerate() {
        clock.sleep_until(due);
        lags.push(clock.now().saturating_sub(due));
        send(i);
    }
    lags
}

/// `n` Poisson arrival times at `rate` per second, starting near zero.
pub fn poisson_schedule(rng: &mut crate::gen::Rng, rate: f64, n: usize) -> Vec<Duration> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// A `/proc/self/status` field in kB.
pub fn status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of the serving phase in MiB: the end-of-run
/// high-water mark minus the resident set right after input
/// generation, so the input pool does not dilute program memory.
pub fn peak_rss_mb(after_inputs: &str, at_end: &str) -> Option<f64> {
    let base = status_kb(after_inputs, "VmRSS")?;
    let peak = status_kb(at_end, "VmHWM")?;
    Some(peak.saturating_sub(base) as f64 / 1024.0)
}

/// This process's `/proc/self/status` (empty where procfs is absent).
pub fn read_status() -> String {
    std::fs::read_to_string("/proc/self/status").unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(19), None, "9 samples beyond the median");
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0), "p95 leaves only 9");
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.5));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.99), "ladder tops out");
        for n in [20, 57, 200, 1234, 50_000] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn windowed_rate_is_the_median_run_and_ignores_a_stall() {
        let ms = Duration::from_millis;
        // A reply every 10 ms for 1 s, except a 100 ms stall after the
        // 30th; plus a straggler after the phase.
        let mut done: Vec<Duration> = (1..=100)
            .map(|i| ms(i * 10 + if i > 30 { 100 } else { 0 }))
            .filter(|t| *t <= ms(1000))
            .collect();
        let within = done.len();
        done.push(ms(1500));
        let rate = windowed_rate(&done, ms(1000), 9);
        assert!((rate - 100.0).abs() < 1e-6, "median run rate {rate}");
        let mean = within as f64 / 1.0;
        assert!(mean < 95.0, "the plain mean ({mean}/s) absorbs the stall");
        assert_eq!(windowed_rate(&[], ms(1000), 8), 0.0);
    }

    #[test]
    fn segmented_tail_is_the_median_of_segment_tails() {
        // 300 arrivals, one sample each; arrival 250 stalled.
        let lat: Vec<(usize, f64)> = (0..300)
            .map(|i| (i, if i == 250 { 500.0 } else { (i % 100) as f64 }))
            .collect();
        let (tail, parts) = segmented_tail(&lat, 300, 3, 90.0);
        assert_eq!(parts, vec![89.0, 89.0, 90.0]);
        assert_eq!(tail, 89.0);
        // Follow-up requests share their arrival's segment.
        let lat = [(0, 1.0), (0, 2.0), (1, 3.0), (1, 9.0)];
        assert_eq!(segmented_tail(&lat, 2, 2, 100.0), (5.5, vec![2.0, 9.0]));
        let one = segmented_tail(&lat, 2, 1, 50.0);
        assert_eq!(one, (2.0, vec![2.0]));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    /// A clock that only moves when told to.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    #[test]
    fn due_time_latency_charges_a_stall_to_the_requests_behind_it() {
        let ms = Duration::from_millis;
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let dues = [ms(0), ms(10), ms(20), ms(30)];
        let mut sent = Vec::new();
        // The first send stalls the generator for 25 ms; the rest are
        // instant. Each request completes 1 ms after it is sent.
        let lags = paced(&clock, &dues, |i| {
            sent.push(clock.now());
            if i == 0 {
                clock.0.set(clock.now() + ms(25));
            }
        });
        assert_eq!(lags, vec![ms(0), ms(15), ms(5), ms(0)]);
        let from_due: Vec<Duration> = sent
            .iter()
            .zip(&dues)
            .map(|(s, d)| *s + ms(1) - *d)
            .collect();
        let from_send: Vec<Duration> = sent.iter().map(|_| ms(1)).collect();
        assert_eq!(from_due, vec![ms(1), ms(16), ms(6), ms(1)]);
        assert_ne!(from_due, from_send, "timing from the send hides the stall");
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_requested_rate() {
        let a = poisson_schedule(&mut crate::gen::Rng::new(3), 100.0, 5000);
        let b = poisson_schedule(&mut crate::gen::Rng::new(3), 100.0, 5000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let span = a.last().unwrap().as_secs_f64();
        assert!(
            (span - 50.0).abs() < 3.0,
            "5000 arrivals at 100/s span {span}"
        );
    }

    #[test]
    fn peak_rss_subtracts_the_post_generation_baseline() {
        let after_inputs = "Name:\tmedbench\nVmHWM:\t  300000 kB\nVmRSS:\t  280000 kB\n";
        let at_end = "Name:\tmedbench\nVmHWM:\t  331200 kB\nVmRSS:\t  290000 kB\n";
        assert_eq!(status_kb(at_end, "VmHWM"), Some(331_200));
        assert_eq!(status_kb(at_end, "VmRSS"), Some(290_000));
        assert_eq!(status_kb(at_end, "VmSwap"), None);
        // 331200 - 280000 = 51200 kB = 50 MiB; the generation-time peak
        // (300000 kB) and the end-of-run RSS play no part.
        assert_eq!(peak_rss_mb(after_inputs, at_end), Some(50.0));
        assert_eq!(peak_rss_mb("", at_end), None);
    }
}
