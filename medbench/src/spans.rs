//! Per-stage self time from the gateway's span ring.
//!
//! Spans of one request share a trace id. Within a trace, a span's
//! parent is the smallest other span whose interval contains it; its
//! *self time* is its duration minus the part of it that its direct
//! children cover (children may nest and may overlap each other, so the
//! covered part is the length of their union). The `service` span's
//! self time is the cloud work no stage explains: the `unattributed`
//! residual.

use medsen_telemetry::{SpanRecord, Stage};
use std::collections::BTreeMap;

/// One span with its containment parent (an index into the same trace's
/// spans) and self time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attributed {
    pub stage: Stage,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub self_ns: u64,
}

/// Total length covered by a set of intervals.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = 0u64;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Attributes the spans of one trace: parent by smallest containing
/// interval (ties between identical intervals go to the earlier span),
/// self time by subtracting the union of the direct children.
pub fn attribute_trace(spans: &[SpanRecord]) -> Vec<Attributed> {
    let contains = |outer: &SpanRecord, inner: &SpanRecord| {
        outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns
    };
    let parents: Vec<Option<usize>> = (0..spans.len())
        .map(|i| {
            (0..spans.len())
                .filter(|&j| j != i && contains(&spans[j], &spans[i]))
                // An identical interval is a parent only if it came first,
                // so two equal spans cannot parent each other.
                .filter(|&j| !contains(&spans[i], &spans[j]) || j < i)
                .min_by_key(|&j| (spans[j].duration_ns(), std::cmp::Reverse(j)))
        })
        .collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, parent) in parents.iter().enumerate() {
        if let Some(p) = parent {
            children[*p].push((spans[i].start_ns, spans[i].end_ns));
        }
    }
    spans
        .iter()
        .zip(parents)
        .zip(children.iter_mut())
        .map(|((span, parent), kids)| Attributed {
            stage: span.stage,
            start_ns: span.start_ns,
            end_ns: span.end_ns,
            parent,
            self_ns: span.duration_ns().saturating_sub(union_ns(kids)),
        })
        .collect()
}

/// Self times and durations per stage across many traces.
#[derive(Debug, Default)]
pub struct StageBreakdown {
    /// Self time of every span, per stage, in nanoseconds.
    pub self_ns: BTreeMap<Stage, Vec<u64>>,
    /// Full duration of every span, per stage.
    pub duration_ns: BTreeMap<Stage, Vec<u64>>,
    /// WAL appends and fsyncs made by the serving node: those with no
    /// replication span above them (a ship covers the standby's own
    /// append and fsync).
    pub primary_wal_append_ns: Vec<u64>,
    pub primary_wal_fsync_ns: Vec<u64>,
    /// Sum over traces of first-span-start to last-span-end.
    pub end_to_end_ns: u64,
    /// Sum of `service` durations, and of the self time of every span
    /// nested under a `service` span (the residual included): equal when
    /// the attribution leaves nothing out and counts nothing twice.
    pub service_total_ns: u64,
    pub service_accounted_ns: u64,
    pub traces: usize,
}

impl StageBreakdown {
    pub fn from_spans(spans: &[SpanRecord]) -> Self {
        let mut by_trace: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
        for span in spans {
            by_trace.entry(span.trace.get()).or_default().push(*span);
        }
        let mut out = Self::default();
        for trace in by_trace.values() {
            out.add_trace(trace);
        }
        out
    }

    fn add_trace(&mut self, spans: &[SpanRecord]) {
        let attributed = attribute_trace(spans);
        let start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        self.end_to_end_ns += end - start;
        self.traces += 1;
        let under_replication = |mut i: usize| {
            while let Some(p) = attributed[i].parent {
                if attributed[p].stage == Stage::Replication {
                    return true;
                }
                i = p;
            }
            false
        };
        for (i, a) in attributed.iter().enumerate() {
            let duration = a.end_ns - a.start_ns;
            self.self_ns.entry(a.stage).or_default().push(a.self_ns);
            self.duration_ns.entry(a.stage).or_default().push(duration);
            match a.stage {
                Stage::WalAppend if !under_replication(i) => {
                    self.primary_wal_append_ns.push(duration)
                }
                Stage::WalFsync if !under_replication(i) => {
                    self.primary_wal_fsync_ns.push(duration)
                }
                _ => {}
            }
        }
        for service in attributed.iter().filter(|a| a.stage == Stage::Service) {
            self.service_total_ns += service.end_ns - service.start_ns;
            self.service_accounted_ns += attributed
                .iter()
                .filter(|a| service.start_ns <= a.start_ns && a.end_ns <= service.end_ns)
                .filter(|a| a.stage != Stage::Service || std::ptr::eq(*a, service))
                .map(|a| a.self_ns)
                .sum::<u64>();
        }
    }

    /// Share of the summed end-to-end time spent in `stage`'s self time.
    pub fn share(&self, stage: Stage) -> f64 {
        if self.end_to_end_ns == 0 {
            return 0.0;
        }
        self.self_ns
            .get(&stage)
            .map_or(0, |v| v.iter().sum::<u64>()) as f64
            / self.end_to_end_ns as f64
    }

    /// Mean `service` self time (the unattributed residual) in ms.
    pub fn unattributed_ms(&self) -> f64 {
        mean_ms(
            self.self_ns
                .get(&Stage::Service)
                .map_or(&[][..], Vec::as_slice),
        )
    }
}

/// Nearest-rank percentile of nanosecond samples, in milliseconds.
pub fn percentile_ms(ns: &[u64], p: f64) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    crate::stats::percentile(&crate::stats::sorted(&v), p)
}

/// Mean of nanosecond samples, in milliseconds (0 when empty).
pub fn mean_ms(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.iter().sum::<u64>() as f64 / ns.len() as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_telemetry::TraceId;

    fn span(trace: u64, stage: Stage, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId::from_raw(trace).unwrap(),
            stage,
            tag: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_gaps() {
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(&mut [(20, 25), (0, 10), (2, 3)]), 15);
        assert_eq!(union_ns(&mut [(4, 4)]), 0);
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children() {
        // service [0,100): a shard lock [10,60) holding a WAL append
        // [20,50) that holds an fsync [30,45); an analysis [55,80) that
        // overlaps the lock's tail; a replication ship [70,90) that
        // overlaps the analysis.
        let spans = [
            span(1, Stage::Service, 0, 100),
            span(1, Stage::ShardLock, 10, 60),
            span(1, Stage::WalAppend, 20, 50),
            span(1, Stage::WalFsync, 30, 45),
            span(1, Stage::Analysis, 55, 80),
            span(1, Stage::Replication, 70, 90),
        ];
        let a = attribute_trace(&spans);
        let by = |stage: Stage| *a.iter().find(|x| x.stage == stage).unwrap();
        let parent = |stage: Stage| by(stage).parent.map(|p| a[p].stage);
        assert_eq!(parent(Stage::WalFsync), Some(Stage::WalAppend));
        assert_eq!(parent(Stage::WalAppend), Some(Stage::ShardLock));
        assert_eq!(parent(Stage::ShardLock), Some(Stage::Service));
        assert_eq!(parent(Stage::Analysis), Some(Stage::Service));
        assert_eq!(parent(Stage::Replication), Some(Stage::Service));
        assert_eq!(parent(Stage::Service), None);
        assert_eq!(by(Stage::WalFsync).self_ns, 15);
        assert_eq!(by(Stage::WalAppend).self_ns, 30 - 15);
        assert_eq!(by(Stage::ShardLock).self_ns, 50 - 30);
        // Children of service cover [10,60) ∪ [55,80) ∪ [70,90) = [10,90).
        assert_eq!(by(Stage::Service).self_ns, 100 - 80);

        let b = StageBreakdown::from_spans(&spans);
        assert!((b.unattributed_ms() - 20e-6).abs() < 1e-12);
        // Overlapping siblings are each charged their own self time, so
        // the accounting exceeds the service span by the overlap:
        // [55,60) and [70,80).
        assert_eq!(b.service_total_ns, 100);
        assert_eq!(b.service_accounted_ns, 115);
    }

    #[test]
    fn properly_nested_children_account_for_the_service_span_exactly() {
        let spans = [
            span(7, Stage::PhoneEncode, 0, 5),
            span(7, Stage::Admission, 6, 7),
            span(7, Stage::Queue, 7, 12),
            span(7, Stage::Service, 12, 112),
            span(7, Stage::Analysis, 20, 90),
            span(7, Stage::ShardLock, 95, 105),
            span(7, Stage::WalAppend, 96, 104),
            span(7, Stage::ReplyDecode, 113, 115),
            // A second trace interleaved in time must not nest in the first.
            span(8, Stage::Service, 30, 40),
        ];
        let b = StageBreakdown::from_spans(&spans);
        assert_eq!(b.traces, 2);
        assert_eq!(b.end_to_end_ns, 115 + 10);
        assert_eq!(b.service_total_ns, 110);
        assert_eq!(b.service_accounted_ns, 110);
        // Residual of trace 7 is 100 - 70 - 10 = 20; trace 8 is all residual.
        assert_eq!(b.self_ns[&Stage::Service], vec![20, 10]);
        assert!((b.share(Stage::Analysis) - 70.0 / 125.0).abs() < 1e-12);
    }

    #[test]
    fn identical_intervals_do_not_parent_each_other() {
        let spans = [
            span(3, Stage::WalAppend, 10, 20),
            span(3, Stage::WalFsync, 10, 20),
        ];
        let a = attribute_trace(&spans);
        assert_eq!(a[0].parent, None);
        assert_eq!(a[1].parent, Some(0));
        assert_eq!(a[0].self_ns, 0);
        assert_eq!(a[1].self_ns, 10);
    }

    #[test]
    fn a_standby_append_inside_a_ship_is_not_a_primary_append() {
        let spans = [
            span(5, Stage::Service, 0, 100),
            span(5, Stage::WalAppend, 10, 30),
            span(5, Stage::WalFsync, 12, 28),
            span(5, Stage::Replication, 40, 80),
            span(5, Stage::WalAppend, 50, 60),
            span(5, Stage::WalFsync, 52, 58),
        ];
        let b = StageBreakdown::from_spans(&spans);
        assert_eq!(b.primary_wal_append_ns, vec![20]);
        assert_eq!(b.primary_wal_fsync_ns, vec![16]);
        assert_eq!(b.duration_ns[&Stage::WalAppend].len(), 2);
    }
}
