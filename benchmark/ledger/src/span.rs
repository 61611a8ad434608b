//! In-memory spans around the calls into each layer, kept until the run
//! ends and then written as a Chrome trace-event file.
//!
//! A span is `(name, start, end, parent, thread)`; the workload id is one
//! per process and rides on the file. A span's **self time** is its
//! duration minus the part of its interval its direct children cover —
//! children may overlap each other (two threads), so coverage is the
//! union, clipped to the parent.

use std::collections::BTreeMap;
use std::time::Instant;

use swag_metrics::Json;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// Spans kept per run; later ones are counted as dropped, so a long run
/// cannot grow the trace (and the heap the run is measuring) without bound.
pub const SPAN_CAP: usize = 200_000;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `stream.executor.push_batch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; ≥ `start_ns`.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Thread lane in the exported trace (0 = generator/main, 1 = watcher).
    pub lane: u32,
}

/// The span store. A disabled tracer records nothing and costs one branch
/// per call, so traced and untraced passes share their code.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span timestamps count from (threads recording their
    /// own interval lists share it).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished interval; `None` when disabled or over the cap.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        lane: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            lane,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Record on lane 0 an interval that started at `start_ns` and took
    /// `took`.
    pub fn record_elapsed(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        took: std::time::Duration,
    ) -> Option<SpanId> {
        self.record(name, parent, 0, start_ns, start_ns + took.as_nanos() as u64)
    }

    /// Open a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = self.now_ns();
        self.record(name, parent, 0, now, now)
    }

    /// Close a span opened with [`open`](Self::open) at the current time.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-span self time, indexed like [`spans`](Self::spans).
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// `name → (count, total ns, self ns)` over all spans.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self.self_ns();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(selfs) {
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.end_ns - span.start_ns;
            e.2 += own;
        }
        out
    }

    /// The trace as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete (`X`) event per span, microsecond times,
    /// span/parent ids and self time under `args`.
    pub fn to_chrome_json(&self, workload: &str) -> Json {
        let selfs = self.self_ns();
        let events = Json::arr(self.spans.iter().enumerate(), |(i, s)| {
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(u64::from(s.lane))),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::UInt(i as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(u64::from(p))),
                        ),
                        ("workload", Json::str(workload)),
                        ("self_us", Json::Num(selfs[i] as f64 / 1e3)),
                    ]),
                ),
            ])
        });
        Json::obj(vec![
            ("traceEvents", events),
            ("displayTimeUnit", Json::str("ns")),
            (
                "otherData",
                Json::obj(vec![
                    ("workload", Json::str(workload)),
                    ("spans", Json::UInt(self.spans.len() as u64)),
                    ("dropped_spans", Json::UInt(self.dropped)),
                ]),
            ),
        ])
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child
            span(60, 70, Some(0)),  // disjoint child
            span(22, 28, Some(2)),  // grandchild: charged to span 2 only
            span(90, 140, Some(0)), // sticks out of the parent: clipped
        ];
        let own = self_times(&spans);
        // Root: 100 − (10..50 ∪ 60..70 ∪ 90..100) = 100 − 60.
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 24);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 6);
        assert_eq!(own[5], 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None);
        t.close(id);
        assert!(id.is_none() && t.spans().is_empty());
    }

    #[test]
    fn chrome_export_round_trips_through_the_parser() {
        let mut t = Tracer::new(true);
        let root = t.record("root", None, 0, 0, 1_000);
        t.record("leaf", root, 1, 100, 400);
        let text = t.to_chrome_json("w").pretty();
        let json = Json::parse(&text).expect("valid JSON");
        let events = json.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("self_us").and_then(Json::as_f64), Some(0.7));
        let by = t.by_name();
        assert_eq!(by["root"], (1, 1_000, 700));
    }
}
