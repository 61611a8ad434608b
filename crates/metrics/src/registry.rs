//! A named metric registry: atomic counters and gauges plus a
//! log2-bucketed latency histogram, snapshotted for exposition.
//!
//! Instruments are cheap shared handles (an `Arc` around atomics): the
//! hot path holds the handle and updates it with relaxed atomic
//! operations; the registry remembers `(name, labels) → instrument` so a
//! scrape can snapshot every series at once. Registration is the only
//! locked operation and happens at setup time.
//!
//! Two expositions are supported from one [`RegistrySnapshot`]:
//! Prometheus text format ([`RegistrySnapshot::to_prometheus_text`]) and
//! JSON ([`ToJson`]), which back the engine's `/metrics` and
//! `/metrics.json` endpoints.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::gauge::QueueDepthGauge;
use crate::json::{Json, ToJson};

/// A monotonically increasing counter (wraps at `u64::MAX`).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    /// A free-standing counter at zero (registry-less use in tests and
    /// benches).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue sizes, key counts).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    v: Arc<AtomicU64>,
}

impl Gauge {
    /// A free-standing gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Increase by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrease by `n` (saturating via wrapping is the caller's problem;
    /// the engine's protocols never go below zero).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.v.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds values `v` with `2^(i-1) ≤ v < 2^i` (i.e. bit length
/// `i`), up to bucket 64 for values with the top bit set.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value lands in: its bit length (0 for 0).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the value reported for quantiles
/// that fall in the bucket).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A lock-free log2-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, queue depths, …).
///
/// Recording is a handful of relaxed atomic adds. The bucket layout is
/// coarse (one bucket per power of two) but mergeable across shards and
/// cheap enough for per-slide recording; exact `min`/`max` are tracked on
/// the side so the worst case — the paper's latency-spike statistic — is
/// never rounded.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of the same value `v`: the state `n` calls of
    /// [`record`](Self::record) leave, for the price of one.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let inner = &*self.inner;
        inner.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed); // check:allow bucket_index maps every u64 into the fixed bucket table
        inner.count.fetch_add(n, Ordering::Relaxed);
        // The sum wraps as n separate adds of `v` would.
        inner.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        inner.min.fetch_min(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy. Concurrent recording may leave the copy a
    /// sample ahead/behind across fields; each field is itself exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.inner;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| inner.buckets[i].load(Ordering::Relaxed)),
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            min: inner.min.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state: mergeable across shards and
/// queryable for quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Exact smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Exact largest sample (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Merge another snapshot into this one. Bucket-exact: merging the
    /// snapshots of two histograms equals the snapshot of one histogram
    /// fed both sample streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (0 < q ≤ 1) as the upper bound of the bucket the
    /// nearest-rank sample falls in, clamped to the exact observed `max`.
    /// Guarantees `true_quantile ≤ quantile(q) ≤ 2 × true_quantile` for
    /// positive samples (the log2-bucket bound) and `quantile(1.0) ==
    /// max` exactly. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The samples recorded between `earlier` and `self` (two snapshots
    /// of the *same* cumulative histogram): bucket-wise difference, used
    /// by the SLO evaluator to compute quantiles over one evaluation
    /// window rather than the whole run. `min`/`max` cannot be recovered
    /// for a window from cumulative state, so the delta carries the
    /// widest consistent bounds: the nonzero bucket range. Saturates if
    /// `earlier` is not actually earlier.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: u64::MAX,
            max: 0,
        };
        for (i, &c) in out.buckets.iter().enumerate() {
            if c > 0 {
                out.min = out
                    .min
                    .min(if i == 0 { 0 } else { bucket_upper(i - 1) + 1 });
                out.max = out.max.max(bucket_upper(i));
            }
        }
        // Tighten with the cumulative exact bounds where they still
        // apply: the window's samples are a subset of the run's.
        out.max = out.max.min(self.max);
        if out.count > 0 {
            out.min = out.min.max(self.min);
        }
        out
    }
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Json {
        let nonzero: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
        Json::obj(vec![
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            (
                "min",
                Json::UInt(if self.count == 0 { 0 } else { self.min }),
            ),
            ("max", Json::UInt(self.max)),
            ("mean", Json::Num(self.mean())),
            ("p50", Json::UInt(self.quantile(0.50))),
            ("p99", Json::UInt(self.quantile(0.99))),
            ("p999", Json::UInt(self.quantile(0.999))),
            (
                "buckets",
                Json::arr(nonzero, |(i, c)| {
                    Json::obj(vec![
                        ("le", Json::UInt(bucket_upper(i))),
                        ("count", Json::UInt(c)),
                    ])
                }),
            ),
        ])
    }
}

/// The instrument behind one registered series.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    /// Live occupancy of a [`QueueDepthGauge`].
    QueueDepth(QueueDepthGauge),
    /// High-watermark of a [`QueueDepthGauge`].
    QueueDepthMax(QueueDepthGauge),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// A registry of named instruments, snapshot-able for exposition.
///
/// Registration order is preserved in snapshots and renderings (the
/// byte-exact exposition tests rely on this). Registering the same
/// `(name, labels)` counter/gauge/histogram twice returns the existing
/// handle, so re-running an engine against one registry accumulates into
/// the same series (Prometheus semantics) instead of duplicating it.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    entries: Mutex<Vec<Entry>>,
}

fn labels_of(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        // A poisoned registry only means another thread panicked while
        // registering; the data (handles) is still coherent.
        self.entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Register (or fetch) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let labels = labels_of(labels);
        let mut entries = self.lock();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Instrument::Counter(c) = &e.instrument {
                    return c.clone();
                }
            }
        }
        let counter = Counter::new();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            instrument: Instrument::Counter(counter.clone()),
        });
        counter
    }

    /// Register (or fetch) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let labels = labels_of(labels);
        let mut entries = self.lock();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Instrument::Gauge(g) = &e.instrument {
                    return g.clone();
                }
            }
        }
        let gauge = Gauge::new();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            instrument: Instrument::Gauge(gauge.clone()),
        });
        gauge
    }

    /// Register (or fetch) a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        let labels = labels_of(labels);
        let mut entries = self.lock();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Instrument::Histogram(h) = &e.instrument {
                    return h.clone();
                }
            }
        }
        let histogram = Histogram::new();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            instrument: Instrument::Histogram(histogram.clone()),
        });
        histogram
    }

    /// Expose an existing [`QueueDepthGauge`] as two gauge series: the
    /// live occupancy under `name` and its high-watermark under
    /// `name_max`. The gauge stays the single source of truth — the
    /// registry reads the same atomics the router and worker update.
    pub fn queue_depth(
        &self,
        name: &str,
        name_max: &str,
        help: &str,
        labels: &[(&str, &str)],
        gauge: &QueueDepthGauge,
    ) {
        let labels = labels_of(labels);
        let mut entries = self.lock();
        entries.retain(|e| !((e.name == name || e.name == name_max) && e.labels == labels));
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels.clone(),
            instrument: Instrument::QueueDepth(gauge.clone()),
        });
        entries.push(Entry {
            name: name_max.to_string(),
            help: format!("{help} (high watermark)"),
            labels,
            instrument: Instrument::QueueDepthMax(gauge.clone()),
        });
    }

    /// Snapshot every registered series, in registration order.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let entries = self.lock();
        RegistrySnapshot {
            metrics: entries
                .iter()
                .map(|e| MetricSnapshot {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value: match &e.instrument {
                        Instrument::Counter(c) => MetricValue::Counter(c.get()),
                        Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                        Instrument::QueueDepth(g) => MetricValue::Gauge(g.depth()),
                        Instrument::QueueDepthMax(g) => MetricValue::Gauge(g.max_depth()),
                        Instrument::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                    },
                })
                .collect(),
        }
    }
}

/// One series' sampled value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Cumulative counter.
    Counter(u64),
    /// Point-in-time gauge.
    Gauge(u64),
    /// Bucketed distribution (boxed: a snapshot carries 65 buckets and
    /// would otherwise dominate the enum's size).
    Histogram(Box<HistogramSnapshot>),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One sampled series.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Series name (Prometheus-style, e.g. `swag_engine_tuples_total`).
    pub name: String,
    /// Human description.
    pub help: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: MetricValue,
}

/// A whole registry sampled at one point in time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// Every series, in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, String)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&v);
        out.push('"');
    }
    out.push('}');
}

impl RegistrySnapshot {
    /// Render in Prometheus text exposition format (version 0.0.4).
    /// `# HELP` / `# TYPE` headers are emitted at a name's first
    /// occurrence; histograms expose cumulative `_bucket{le=…}` series
    /// for non-empty buckets plus `le="+Inf"`, `_sum`, and `_count`.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for m in &self.metrics {
            if !seen.contains(&m.name.as_str()) {
                seen.push(&m.name);
                out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
                out.push_str(&format!("# TYPE {} {}\n", m.name, m.value.type_name()));
            }
            match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(&m.name);
                    render_labels(&mut out, &m.labels, None);
                    out.push_str(&format!(" {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cum += c;
                        out.push_str(&format!("{}_bucket", m.name));
                        render_labels(
                            &mut out,
                            &m.labels,
                            Some(("le", bucket_upper(i).to_string())),
                        );
                        out.push_str(&format!(" {cum}\n"));
                    }
                    out.push_str(&format!("{}_bucket", m.name));
                    render_labels(&mut out, &m.labels, Some(("le", "+Inf".to_string())));
                    out.push_str(&format!(" {}\n", h.count));
                    out.push_str(&format!("{}_sum", m.name));
                    render_labels(&mut out, &m.labels, None);
                    out.push_str(&format!(" {}\n", h.sum));
                    out.push_str(&format!("{}_count", m.name));
                    render_labels(&mut out, &m.labels, None);
                    out.push_str(&format!(" {}\n", h.count));
                }
            }
        }
        out
    }

    /// Merge every histogram series named `name` (across label sets,
    /// e.g. all shards) into one distribution.
    pub fn merged_histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let mut merged: Option<HistogramSnapshot> = None;
        for m in &self.metrics {
            if m.name == name {
                if let MetricValue::Histogram(h) = &m.value {
                    match merged.as_mut() {
                        Some(acc) => acc.merge(h),
                        None => merged = Some((**h).clone()),
                    }
                }
            }
        }
        merged
    }

    /// Sum every counter/gauge series named `name` across label sets.
    pub fn sum(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .map(|m| match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
                MetricValue::Histogram(h) => h.count,
            })
            .sum()
    }

    /// The subset of series carrying the label `key`=`value` — e.g. one
    /// pipeline's slice of a registry shared by many. Composes with
    /// [`sum`](Self::sum) / [`max`](Self::max) /
    /// [`merged_histogram`](Self::merged_histogram).
    pub fn labelled(&self, key: &str, value: &str) -> RegistrySnapshot {
        RegistrySnapshot {
            metrics: self
                .metrics
                .iter()
                .filter(|m| m.labels.iter().any(|(k, v)| k == key && v == value))
                .cloned()
                .collect(),
        }
    }

    /// The largest counter/gauge value named `name` across label sets
    /// (0 when absent). The right fold for per-shard gauges where the sum
    /// is meaningless — e.g. watermark lag, where the engine's lag is the
    /// worst shard's lag.
    pub fn max(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .map(|m| match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
                MetricValue::Histogram(h) => h.max,
            })
            .max()
            .unwrap_or(0)
    }
}

impl ToJson for RegistrySnapshot {
    fn to_json(&self) -> Json {
        Json::obj(vec![(
            "metrics",
            Json::arr(self.metrics.iter(), |m| {
                let labels = Json::Obj(
                    m.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.as_str())))
                        .collect(),
                );
                let mut pairs = vec![
                    ("name", Json::str(m.name.as_str())),
                    ("type", Json::str(m.value.type_name())),
                    ("labels", labels),
                ];
                match &m.value {
                    MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                        pairs.push(("value", Json::UInt(*v)));
                    }
                    MetricValue::Histogram(h) => {
                        pairs.push(("histogram", h.to_json()));
                    }
                }
                Json::obj(pairs)
            }),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — the workspace's seeded test generator, inlined so the
    /// metrics crate stays dependency-free.
    struct SplitMix64(u64);
    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn counters_and_gauges_register_and_dedup() {
        let reg = MetricRegistry::new();
        let c1 = reg.counter("tuples_total", "tuples", &[("shard", "0")]);
        let c2 = reg.counter("tuples_total", "tuples", &[("shard", "0")]);
        let c3 = reg.counter("tuples_total", "tuples", &[("shard", "1")]);
        c1.add(5);
        c2.inc();
        c3.add(10);
        assert_eq!(c1.get(), 6, "same series, same handle");
        let g = reg.gauge("keys", "distinct keys", &[]);
        g.set(7);
        g.add(3);
        g.sub(2);
        assert_eq!(g.get(), 8);
        let snap = reg.snapshot();
        assert_eq!(snap.metrics.len(), 3);
        assert_eq!(snap.sum("tuples_total"), 16);
    }

    /// Golden test pinning the exact bucket boundaries: bucket index is
    /// the value's bit length, bucket `i`'s inclusive upper bound is
    /// `2^i − 1`.
    #[test]
    fn bucket_boundaries_are_pinned() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);

        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(3), 7);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(63), (1u64 << 63) - 1);
        assert_eq!(bucket_upper(64), u64::MAX);

        // Every boundary is tight: the upper bound lands in its own
        // bucket and the next value in the next bucket.
        for i in 1..=62usize {
            let upper = bucket_upper(i);
            assert_eq!(bucket_index(upper), i);
            assert_eq!(bucket_index(upper + 1), i + 1);
        }
    }

    #[test]
    fn histogram_tracks_exact_min_max_and_quantile_one() {
        let h = Histogram::new();
        for v in [5u64, 900, 17, 0, 3_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 3_000_000);
        assert_eq!(s.sum, 5 + 900 + 17 + 3_000_000);
        assert_eq!(s.quantile(1.0), 3_000_000, "p100 is the exact max");
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    /// Element-wise nearest-rank quantile, the reference the histogram's
    /// bucketed estimate must bound.
    #[test]
    fn record_n_equals_n_single_records() {
        let (bulk, single) = (Histogram::new(), Histogram::new());
        for (v, n) in [
            (0, 3),
            (1, 1),
            (700, 5),
            (700, 0),
            (u64::MAX / 3, 4),
            (42, 1000),
        ] {
            bulk.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
        }
        assert_eq!(bulk.snapshot(), single.snapshot());
        let empty = Histogram::new();
        empty.record_n(9, 0);
        assert_eq!(empty.snapshot(), HistogramSnapshot::default());
    }

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Property: merged-histogram quantiles bound the element-wise
    /// quantiles of the combined sample set — `t ≤ estimate ≤ 2·t` — and
    /// merging is bucket-exact (merge of snapshots == snapshot of the
    /// union stream).
    #[test]
    fn merge_quantiles_bound_elementwise_quantiles() {
        let mut rng = SplitMix64(0xBEEF_2024);
        for round in 0..50 {
            let n1 = 1 + (rng.next() % 400) as usize;
            let n2 = 1 + (rng.next() % 400) as usize;
            let h1 = Histogram::new();
            let h2 = Histogram::new();
            let union = Histogram::new();
            let mut all: Vec<u64> = Vec::with_capacity(n1 + n2);
            for i in 0..n1 + n2 {
                // Spread samples across many octaves, including 0; cap
                // at 2^52 so the 800-sample sum stays far from u64::MAX
                // (merge saturates, live recording wraps — equal only
                // without overflow).
                let v = (rng.next() >> 12) >> (rng.next() % 52);
                let v = if v.is_multiple_of(97) { 0 } else { v };
                if i < n1 { &h1 } else { &h2 }.record(v);
                union.record(v);
                all.push(v);
            }
            all.sort_unstable();

            let mut merged = h1.snapshot();
            merged.merge(&h2.snapshot());
            assert_eq!(merged, union.snapshot(), "round {round}: merge is exact");

            for q in [0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let t = exact_quantile(&all, q);
                let est = merged.quantile(q);
                assert!(
                    t <= est,
                    "round {round} q={q}: estimate {est} below true {t}"
                );
                assert!(
                    est as u128 <= 2 * t.max(1) as u128,
                    "round {round} q={q}: estimate {est} above 2×true {t}"
                );
            }
        }
    }

    /// Golden test: byte-exact Prometheus text body for a fixed registry
    /// (the engine's `/metrics` endpoint serves exactly this rendering).
    #[test]
    fn prometheus_exposition_is_byte_exact() {
        let reg = MetricRegistry::new();
        let c0 = reg.counter(
            "swag_engine_tuples_total",
            "Tuples processed",
            &[("shard", "0")],
        );
        let c1 = reg.counter(
            "swag_engine_tuples_total",
            "Tuples processed",
            &[("shard", "1")],
        );
        let depth = QueueDepthGauge::new();
        depth.enqueued_n(5);
        depth.dequeued_n(2);
        reg.queue_depth(
            "swag_engine_queue_depth",
            "swag_engine_queue_depth_peak",
            "Inbound queue occupancy",
            &[("shard", "0")],
            &depth,
        );
        let h = reg.histogram("swag_slide_latency_ns", "Per-run slide latency", &[]);
        c0.add(100);
        c1.add(50);
        for v in [1u64, 2, 3, 900] {
            h.record(v);
        }
        let text = reg.snapshot().to_prometheus_text();
        let expected = "\
# HELP swag_engine_tuples_total Tuples processed
# TYPE swag_engine_tuples_total counter
swag_engine_tuples_total{shard=\"0\"} 100
swag_engine_tuples_total{shard=\"1\"} 50
# HELP swag_engine_queue_depth Inbound queue occupancy
# TYPE swag_engine_queue_depth gauge
swag_engine_queue_depth{shard=\"0\"} 3
# HELP swag_engine_queue_depth_peak Inbound queue occupancy (high watermark)
# TYPE swag_engine_queue_depth_peak gauge
swag_engine_queue_depth_peak{shard=\"0\"} 5
# HELP swag_slide_latency_ns Per-run slide latency
# TYPE swag_slide_latency_ns histogram
swag_slide_latency_ns_bucket{le=\"1\"} 1
swag_slide_latency_ns_bucket{le=\"3\"} 3
swag_slide_latency_ns_bucket{le=\"1023\"} 4
swag_slide_latency_ns_bucket{le=\"+Inf\"} 4
swag_slide_latency_ns_sum 906
swag_slide_latency_ns_count 4
";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_exposition_parses_back() {
        let reg = MetricRegistry::new();
        reg.counter("a_total", "a", &[("shard", "0")]).add(3);
        let h = reg.histogram("lat_ns", "latency", &[("shard", "0")]);
        h.record(10);
        h.record(1000);
        let json = reg.snapshot().to_json().pretty();
        let doc = Json::parse(&json).expect("exposition JSON parses");
        let metrics = doc.get("metrics").and_then(Json::as_array).unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].get("value").and_then(Json::as_u64), Some(3));
        let hist = metrics[1].get("histogram").unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(hist.get("max").and_then(Json::as_u64), Some(1000));
    }

    #[test]
    fn merged_histogram_spans_label_sets() {
        let reg = MetricRegistry::new();
        let h0 = reg.histogram("lat", "l", &[("shard", "0")]);
        let h1 = reg.histogram("lat", "l", &[("shard", "1")]);
        h0.record(1);
        h1.record(1_000_000);
        let merged = reg.snapshot().merged_histogram("lat").unwrap();
        assert_eq!(merged.count, 2);
        assert_eq!(merged.min, 1);
        assert_eq!(merged.max, 1_000_000);
        assert!(reg.snapshot().merged_histogram("absent").is_none());
    }
}
