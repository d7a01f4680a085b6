//! Workspace-wide observability: metrics, causal tracing, and a flight
//! recorder.
//!
//! Deliberately dependency-free so every crate in the workspace can link
//! it without cycles. Three pieces:
//!
//! * **Metrics** — named atomic [`Counter`]s, [`Gauge`]s,
//!   [`FloatGauge`]s, and fixed-bucket latency [`Histogram`]s, organized
//!   in [`Registry`] instances. The process-global default registry backs
//!   the [`counter`]/[`gauge`]/[`histogram`] free functions; per-site
//!   registries ([`Registry::with_parent`]) give each simulated site its
//!   own labeled counter set whose increments also propagate to the
//!   parent, so the default registry always holds the cross-site
//!   aggregate.
//! * **Tracing** — the [`trace`] module: a propagated
//!   [`trace::TraceContext`] per client operation, per-thread
//!   ring-buffer flight recorder, JSONL drain via [`trace::TraceSink`].
//! * **Snapshots** — [`MetricsSnapshot`] freezes a registry to JSON for
//!   `results/` sidecar artefacts; [`snapshot_reset`] captures and zeroes
//!   in one step so tests stop observing counters leaked by earlier
//!   tests.
//!
//! The [`json`] module is the workspace's one JSON reader and writer, and
//! [`crc32`] its one checksum (network and write-ahead-log frames).
//!
//! ```
//! sdds_obs::counter("demo.requests").inc();
//! let timer = sdds_obs::histogram("demo.latency_seconds").start_timer();
//! // ... do work ...
//! drop(timer);
//! let json = sdds_obs::MetricsSnapshot::capture().to_json();
//! assert!(json.contains("demo.requests"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

mod crc;
pub mod json;
pub mod trace;

pub use crc::crc32;

use json::{fmt_f64, quote};

/// A monotonically increasing event count. Increments propagate to the
/// same-named counter of the registry's parent (if any), so the default
/// registry aggregates across sites.
#[derive(Debug, Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
    parent: Option<Arc<Counter>>,
}

impl Counter {
    fn new(parent: Option<Counter>) -> Counter {
        Counter {
            value: Arc::new(AtomicU64::new(0)),
            parent: parent.map(Arc::new),
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (here and, transitively, in the parent registry).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if let Some(p) = &self.parent {
            p.add(n);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down. `set` propagates its *delta* to the
/// parent, so a parent gauge holds the sum of its children's values.
#[derive(Debug, Clone)]
pub struct Gauge {
    value: Arc<AtomicI64>,
    parent: Option<Arc<Gauge>>,
}

impl Gauge {
    fn new(parent: Option<Gauge>) -> Gauge {
        Gauge {
            value: Arc::new(AtomicI64::new(0)),
            parent: parent.map(Arc::new),
        }
    }

    /// Sets the value; the change (new − old) propagates to the parent.
    pub fn set(&self, v: i64) {
        let old = self.value.swap(v, Ordering::Relaxed);
        if let Some(p) = &self.parent {
            p.add(v - old);
        }
    }

    /// Adds (possibly negative) `delta`.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
        if let Some(p) = &self.parent {
            p.add(delta);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A floating-point gauge (f64 bits in an atomic), for statistics that
/// are not integer-valued — e.g. the leakage auditor's `leak.chi_square`
/// and `leak.top_ratio`. Plain last-write-wins; no parent propagation
/// (a chi-square of two sites does not sum).
#[derive(Debug, Clone)]
pub struct FloatGauge {
    bits: Arc<AtomicU64>,
}

impl FloatGauge {
    fn new() -> FloatGauge {
        FloatGauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Upper bounds (in seconds) of the fixed histogram buckets: exponential
/// from 1 µs to ~67 s, plus a +∞ overflow bucket. Chosen to straddle both
/// in-process pipeline stages (µs) and simulated network round trips (ms).
pub const BUCKET_BOUNDS: [f64; 27] = [
    1e-6, 2e-6, 4e-6, 8e-6, 16e-6, 32e-6, 64e-6, 128e-6, 256e-6, 512e-6, 1e-3, 2e-3, 4e-3, 8e-3,
    16e-3, 32e-3, 64e-3, 128e-3, 256e-3, 512e-3, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
];

/// A fixed-bucket histogram of seconds (atomic, lock-free on the record
/// path). `sum` is tracked in nanoseconds for lossless atomic addition.
#[derive(Debug, Default)]
pub struct HistogramInner {
    buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

/// Handle to a registered histogram. Observations propagate to the
/// same-named histogram of the registry's parent (if any).
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
    parent: Option<Arc<Histogram>>,
}

impl Histogram {
    fn new(parent: Option<Histogram>) -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner::default()),
            parent: parent.map(Arc::new),
        }
    }

    /// Records one observation of `seconds`.
    pub fn observe(&self, seconds: f64) {
        let seconds = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        let idx = BUCKET_BOUNDS.partition_point(|&b| b < seconds);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner
            .sum_nanos
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
        if let Some(p) = &self.parent {
            p.observe(seconds);
        }
    }

    /// Records a [`std::time::Duration`].
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Starts a timer that records into this histogram when dropped.
    pub fn start_timer(&self) -> HistogramTimer {
        HistogramTimer {
            histogram: self.clone(),
            start: Instant::now(),
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in seconds.
    pub fn sum(&self) -> f64 {
        self.inner.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// Guard recording elapsed time on drop.
pub struct HistogramTimer {
    histogram: Histogram,
    start: Instant,
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.histogram.observe_duration(self.start.elapsed());
    }
}

// ---------------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RegistryInner {
    label: String,
    parent: Option<Registry>,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    float_gauges: Mutex<BTreeMap<String, FloatGauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A named collection of metrics. The process-global *default* registry
/// ([`Registry::global`]) backs the [`counter`]/[`gauge`]/[`histogram`]
/// free functions; [`Registry::with_parent`] creates a labeled per-site
/// registry whose metric updates also flow into the parent, so the
/// default registry remains the cross-site aggregate while each site
/// keeps its own breakdown. [`Registry::new`] creates a standalone
/// scoped registry (no parent) for isolation in tests.
#[derive(Clone, Default)]
pub struct Registry(Arc<RegistryInner>);

/// The metric registered under `name`: looked up by `&str`, so that the
/// usual case — the name exists — neither allocates the key nor resolves
/// the parent's metric; `create` runs on first registration only.
fn lookup_or_register<M: Clone>(
    map: &Mutex<BTreeMap<String, M>>,
    name: &str,
    create: impl FnOnce() -> M,
) -> M {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(metric) = map.get(name) {
        return metric.clone();
    }
    map.entry(name.to_string()).or_insert_with(create).clone()
}

/// Every per-site registry, held weakly: a site's registry dies with its
/// site (a merged-away bucket, a stopped cluster). Its metrics' history
/// stays in the parent, which received every update.
fn site_registries() -> &'static Mutex<Vec<Weak<RegistryInner>>> {
    static SITES: OnceLock<Mutex<Vec<Weak<RegistryInner>>>> = OnceLock::new();
    SITES.get_or_init(|| Mutex::new(Vec::new()))
}

/// The per-site registries still alive, in creation order; the dead are
/// pruned from the list.
fn live_sites() -> Vec<Registry> {
    let mut sites = site_registries().lock().unwrap_or_else(|e| e.into_inner());
    sites.retain(|site| site.strong_count() > 0);
    sites
        .iter()
        .filter_map(Weak::upgrade)
        .map(Registry)
        .collect()
}

impl Registry {
    /// The process-global default registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Registry(Arc::new(RegistryInner {
                label: "global".to_string(),
                ..RegistryInner::default()
            }))
        })
    }

    /// A standalone scoped registry: metrics registered here are
    /// invisible to (and unaffected by) every other registry.
    pub fn new(label: impl Into<String>) -> Registry {
        Registry(Arc::new(RegistryInner {
            label: label.into(),
            ..RegistryInner::default()
        }))
    }

    /// A labeled child registry (one per simulated site). Updates to its
    /// metrics propagate to the same-named metric of `parent`. The child
    /// is also remembered process-wide, until its last handle drops, so
    /// [`capture_sites`] can list per-site snapshots.
    pub fn with_parent(label: impl Into<String>, parent: &Registry) -> Registry {
        let reg = Registry(Arc::new(RegistryInner {
            label: label.into(),
            parent: Some(parent.clone()),
            ..RegistryInner::default()
        }));
        let mut sites = site_registries().lock().unwrap_or_else(|e| e.into_inner());
        sites.retain(|site| site.strong_count() > 0);
        sites.push(Arc::downgrade(&reg.0));
        reg
    }

    /// The registry's label (`"global"` for the default registry).
    pub fn label(&self) -> &str {
        &self.0.label
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        lookup_or_register(&self.0.counters, name, || {
            Counter::new(self.0.parent.as_ref().map(|p| p.counter(name)))
        })
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        lookup_or_register(&self.0.gauges, name, || {
            Gauge::new(self.0.parent.as_ref().map(|p| p.gauge(name)))
        })
    }

    /// The float gauge registered under `name` (created on first use).
    pub fn float_gauge(&self, name: &str) -> FloatGauge {
        lookup_or_register(&self.0.float_gauges, name, FloatGauge::new)
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        lookup_or_register(&self.0.histograms, name, || {
            Histogram::new(self.0.parent.as_ref().map(|p| p.histogram(name)))
        })
    }

    /// Zeroes every metric in *this* registry (handles stay valid).
    /// Children are untouched; a parent *gauge* receives the negated old
    /// value, preserving its sum-of-children invariant (counters are
    /// cumulative, so their parents deliberately keep the history).
    pub fn reset_values(&self) {
        for c in self
            .0
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            c.value.store(0, Ordering::Relaxed);
        }
        for g in self
            .0
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            // One atomic exchange per gauge, not a raw store: a raw store
            // would discard any concurrent add() between read and write,
            // and — worse — leave the old value counted in the parent
            // forever. swap captures exactly the amount this gauge held,
            // and propagating its negation keeps parent == Σ children.
            let old = g.value.swap(0, Ordering::Relaxed);
            if let Some(p) = &g.parent {
                p.add(-old);
            }
        }
        for f in self
            .0
            .float_gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            f.set(0.0);
        }
        for h in self
            .0
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            for b in &h.inner.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.inner.count.store(0, Ordering::Relaxed);
            h.inner.sum_nanos.store(0, Ordering::Relaxed);
        }
    }

    /// Freezes this registry's current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .0
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .0
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let float_gauges = self
            .0
            .float_gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .0
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: h.count(),
                        sum_seconds: h.sum(),
                        buckets: h
                            .inner
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            label: self.0.label.clone(),
            counters,
            gauges,
            float_gauges,
            histograms,
        }
    }
}

/// The counter registered under `name` in the default registry.
pub fn counter(name: &str) -> Counter {
    Registry::global().counter(name)
}

/// The gauge registered under `name` in the default registry.
pub fn gauge(name: &str) -> Gauge {
    Registry::global().gauge(name)
}

/// The float gauge registered under `name` in the default registry.
pub fn float_gauge(name: &str) -> FloatGauge {
    Registry::global().float_gauge(name)
}

/// The histogram registered under `name` in the default registry.
pub fn histogram(name: &str) -> Histogram {
    Registry::global().histogram(name)
}

/// Zeroes every registered metric in the default registry *and* every
/// per-site child registry (benches measure per-phase deltas by resetting
/// between phases; resetting both keeps the aggregate equal to the sum of
/// the sites). Handles stay valid.
pub fn reset() {
    // Sites first: each child gauge reset propagates its negated value
    // into the global aggregate, so by the time the global registry is
    // zeroed it holds only direct (non-site) contributions. The reverse
    // order re-corrupts the aggregate — the children's values flow back
    // into freshly-zeroed parents as negative residue.
    for site in live_sites() {
        site.reset_values();
    }
    Registry::global().reset_values();
}

/// Captures the default registry, then zeroes it (and the per-site
/// children) — one step, so integration tests can assert on exactly the
/// metrics their own operations produced without observing counters
/// leaked by earlier tests in the same process.
pub fn snapshot_reset() -> MetricsSnapshot {
    let snap = MetricsSnapshot::capture();
    reset();
    snap
}

/// Point-in-time snapshots of every live per-site registry, in creation
/// order, each labeled with its site.
pub fn capture_sites() -> Vec<MetricsSnapshot> {
    live_sites().iter().map(Registry::snapshot).collect()
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Label of the registry this snapshot was taken from.
    pub label: String,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Float gauge values by name.
    pub float_gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Frozen histogram contents.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Sum of observations in seconds.
    pub sum_seconds: f64,
    /// Per-bucket counts; entry `i` counts observations ≤
    /// [`BUCKET_BOUNDS`]`[i]`, with one final overflow bucket.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Approximate quantile (0.0–1.0) from the bucket bounds; `None` when
    /// the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return Some(*BUCKET_BOUNDS.get(i).unwrap_or(&f64::INFINITY));
            }
        }
        Some(f64::INFINITY)
    }

    /// Mean observation in seconds (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_seconds / self.count as f64)
    }
}

impl MetricsSnapshot {
    /// Captures the current state of the default registry.
    pub fn capture() -> MetricsSnapshot {
        Registry::global().snapshot()
    }

    /// Serializes to a self-contained JSON document (see
    /// `docs/PROTOCOL.md` for the schema).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!("{{\n  \"label\": {},", quote(&self.label)));
        out.push_str("\n  \"counters\": {");
        join(&mut out, self.counters.iter(), |out, (k, v)| {
            out.push_str(&format!("\n    {}: {v}", quote(k)));
        });
        out.push_str("\n  },\n  \"gauges\": {");
        join(&mut out, self.gauges.iter(), |out, (k, v)| {
            out.push_str(&format!("\n    {}: {v}", quote(k)));
        });
        out.push_str("\n  },\n  \"float_gauges\": {");
        join(&mut out, self.float_gauges.iter(), |out, (k, v)| {
            out.push_str(&format!("\n    {}: {}", quote(k), fmt_f64(*v)));
        });
        out.push_str("\n  },\n  \"histograms\": {");
        join(&mut out, self.histograms.iter(), |out, (k, h)| {
            out.push_str(&format!(
                "\n    {}: {{ \"count\": {}, \"sum_seconds\": {}, \"mean_seconds\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"p999\": {}, \"buckets\": [{}] }}",
                quote(k),
                h.count,
                fmt_f64(h.sum_seconds),
                h.mean().map_or("null".into(), fmt_f64),
                h.quantile(0.50).map_or("null".into(), fmt_f64),
                h.quantile(0.95).map_or("null".into(), fmt_f64),
                h.quantile(0.99).map_or("null".into(), fmt_f64),
                h.quantile(0.999).map_or("null".into(), fmt_f64),
                h.buckets
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
            ));
        });
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a document produced by [`MetricsSnapshot::to_json`] back
    /// into a snapshot — the inverse used by the cluster scrape path,
    /// where each rank ships its registry as JSON over the control
    /// channel. Derived histogram fields (`mean_seconds`, `p50`, …) are
    /// ignored on input; they are recomputed from the buckets. Returns
    /// `None` on malformed input.
    pub fn from_json(text: &str) -> Option<MetricsSnapshot> {
        let value = json::parse(text)?;
        let top = value.as_object()?;
        let mut snap = MetricsSnapshot {
            label: top.get("label")?.as_str()?.to_string(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            float_gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        for (k, v) in top.get("counters")?.as_object()? {
            snap.counters.insert(k.clone(), v.as_u64()?);
        }
        for (k, v) in top.get("gauges")?.as_object()? {
            snap.gauges.insert(k.clone(), v.as_i64()?);
        }
        for (k, v) in top.get("float_gauges")?.as_object()? {
            // to_json writes non-finite values as null; read them back as 0
            snap.float_gauges
                .insert(k.clone(), v.as_f64().unwrap_or(0.0));
        }
        for (k, v) in top.get("histograms")?.as_object()? {
            let h = v.as_object()?;
            snap.histograms.insert(
                k.clone(),
                HistogramSnapshot {
                    count: h.get("count")?.as_u64()?,
                    sum_seconds: h.get("sum_seconds")?.as_f64()?,
                    buckets: h
                        .get("buckets")?
                        .as_array()?
                        .iter()
                        .map(json::Value::as_u64)
                        .collect::<Option<Vec<u64>>>()?,
                },
            );
        }
        Some(snap)
    }

    /// Merges per-rank snapshots into one cluster-wide aggregate labeled
    /// `label`. Counters and gauges sum (gauges already obey parent =
    /// Σ children semantics inside each process, so summing across ranks
    /// extends the same invariant); histograms merge element-wise
    /// (buckets, count, sum). Float gauges are deliberately *excluded* —
    /// a chi-square of two ranks does not sum; read them from the
    /// per-rank snapshots instead.
    pub fn merge(label: impl Into<String>, parts: &[MetricsSnapshot]) -> MetricsSnapshot {
        let mut out = MetricsSnapshot {
            label: label.into(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            float_gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        for part in parts {
            for (k, v) in &part.counters {
                *out.counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, v) in &part.gauges {
                *out.gauges.entry(k.clone()).or_insert(0) += v;
            }
            for (k, h) in &part.histograms {
                let agg = out
                    .histograms
                    .entry(k.clone())
                    .or_insert_with(|| HistogramSnapshot {
                        count: 0,
                        sum_seconds: 0.0,
                        buckets: vec![0; h.buckets.len()],
                    });
                agg.count += h.count;
                agg.sum_seconds += h.sum_seconds;
                if agg.buckets.len() < h.buckets.len() {
                    agg.buckets.resize(h.buckets.len(), 0);
                }
                for (slot, add) in agg.buckets.iter_mut().zip(&h.buckets) {
                    *slot += add;
                }
            }
        }
        out
    }
}

fn join<I: Iterator, F: FnMut(&mut String, I::Item)>(out: &mut String, items: I, mut f: F) {
    let mut first = true;
    for item in items {
        if !first {
            out.push(',');
        }
        first = false;
        f(out, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_accumulate() {
        let c = counter("test.obs.counter");
        c.inc();
        c.add(4);
        assert_eq!(counter("test.obs.counter").get(), 5);
        let g = gauge("test.obs.gauge");
        g.set(7);
        g.add(-2);
        assert_eq!(gauge("test.obs.gauge").get(), 5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = histogram("test.obs.hist");
        h.observe(3e-6); // bucket le=4e-6
        h.observe(3e-6);
        h.observe(1.5); // bucket le=2.0
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 1.500006).abs() < 1e-6);
        let snap = MetricsSnapshot::capture();
        let hs = &snap.histograms["test.obs.hist"];
        assert_eq!(hs.count, 3);
        assert_eq!(hs.quantile(0.5), Some(4e-6));
        assert_eq!(hs.quantile(0.99), Some(2.0));
        assert_eq!(hs.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn timer_records_on_drop() {
        let h = histogram("test.obs.timer");
        let before = h.count();
        drop(h.start_timer());
        assert_eq!(h.count(), before + 1);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        counter("test.obs.json").add(2);
        histogram("test.obs.json_hist").observe(0.001);
        float_gauge("test.obs.fgauge").set(1.25);
        let json = MetricsSnapshot::capture().to_json();
        assert!(json.contains("\"test.obs.json\": 2"));
        assert!(json.contains("\"test.obs.json_hist\""));
        assert!(json.contains("\"test.obs.fgauge\": 1.25"));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"float_gauges\""));
        // crude structural sanity: balanced braces
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn snapshot_json_round_trips_and_merges() {
        let reg = Registry::new("rank-0");
        reg.counter("rt.requests").add(7);
        reg.gauge("rt.depth").set(3);
        reg.float_gauge("rt.chi").set(2.5);
        reg.histogram("rt.lat").observe(0.001);
        reg.histogram("rt.lat").observe(0.004);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"p999\""), "snapshots expose p999: {json}");
        let back = MetricsSnapshot::from_json(&json).expect("own output parses");
        assert_eq!(back.label, "rank-0");
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.float_gauges, snap.float_gauges);
        assert_eq!(back.histograms["rt.lat"].count, 2);
        assert_eq!(
            back.histograms["rt.lat"].buckets,
            snap.histograms["rt.lat"].buckets
        );
        assert!(
            (back.histograms["rt.lat"].sum_seconds - snap.histograms["rt.lat"].sum_seconds).abs()
                < 1e-9
        );
        assert!(MetricsSnapshot::from_json("{oops").is_none());
        assert!(MetricsSnapshot::from_json("[1,2]").is_none());

        let other = Registry::new("rank-1");
        other.counter("rt.requests").add(5);
        other.gauge("rt.depth").set(2);
        other.float_gauge("rt.chi").set(9.0);
        other.histogram("rt.lat").observe(0.002);
        let merged = MetricsSnapshot::merge("cluster", &[snap, other.snapshot()]);
        assert_eq!(merged.label, "cluster");
        assert_eq!(merged.counters["rt.requests"], 12);
        assert_eq!(merged.gauges["rt.depth"], 5);
        assert_eq!(merged.histograms["rt.lat"].count, 3);
        assert_eq!(
            merged.histograms["rt.lat"].buckets.iter().sum::<u64>(),
            3,
            "bucket counts merge element-wise"
        );
        assert!(
            merged.float_gauges.is_empty(),
            "float gauges do not sum across ranks"
        );
    }

    /// A peer's report is untrusted text: nesting far past anything this
    /// workspace writes is rejected, not recursed into until the stack
    /// overflows.
    #[test]
    fn deep_nesting_fails_closed() {
        const DEPTH: usize = 200_000;
        let arrays = "[".repeat(DEPTH);
        let objects = "{\"a\":".repeat(DEPTH);
        for text in [&arrays, &objects] {
            assert!(MetricsSnapshot::from_json(text).is_none());
            assert!(trace::ParsedSpan::parse(text).is_none());
        }
    }

    #[test]
    fn per_site_registry_propagates_to_parent() {
        let parent = Registry::new("parent");
        let site_a = Registry::with_parent("site-a", &parent);
        let site_b = Registry::with_parent("site-b", &parent);
        site_a.counter("reg.test.ops").add(3);
        site_b.counter("reg.test.ops").add(4);
        assert_eq!(site_a.counter("reg.test.ops").get(), 3);
        assert_eq!(site_b.counter("reg.test.ops").get(), 4);
        assert_eq!(parent.counter("reg.test.ops").get(), 7);

        // Gauges: parent is the sum of child values, tracked by delta.
        site_a.gauge("reg.test.load").set(10);
        site_b.gauge("reg.test.load").set(5);
        site_a.gauge("reg.test.load").set(2);
        assert_eq!(parent.gauge("reg.test.load").get(), 7);

        // Histograms: observations land in both.
        site_a.histogram("reg.test.lat").observe(0.001);
        site_b.histogram("reg.test.lat").observe(0.002);
        assert_eq!(parent.histogram("reg.test.lat").count(), 2);
    }

    #[test]
    fn a_dropped_site_registry_leaves_the_site_list() {
        let parent = Registry::new("drop-parent");
        let labels = || -> Vec<String> { capture_sites().into_iter().map(|s| s.label).collect() };
        let site = Registry::with_parent("drop-site", &parent);
        site.counter("reg.drop.ops").add(2);
        assert!(labels().iter().any(|l| l == "drop-site"));
        drop(site);
        assert!(!labels().iter().any(|l| l == "drop-site"));
        // the parent keeps what the site reported
        assert_eq!(parent.counter("reg.drop.ops").get(), 2);
    }

    #[test]
    fn child_gauge_reset_propagates_to_parent() {
        let parent = Registry::new("reset-parent");
        let site_a = Registry::with_parent("reset-a", &parent);
        let site_b = Registry::with_parent("reset-b", &parent);
        site_a.gauge("reg.reset.load").set(10);
        site_b.gauge("reg.reset.load").set(5);
        assert_eq!(parent.gauge("reg.reset.load").get(), 15);
        site_a.reset_values();
        // the old raw-store reset left a's 10 in the parent forever
        assert_eq!(parent.gauge("reg.reset.load").get(), 5);
        assert_eq!(site_a.gauge("reg.reset.load").get(), 0);
        site_a.gauge("reg.reset.load").set(3);
        assert_eq!(parent.gauge("reg.reset.load").get(), 8);
    }

    #[test]
    fn gauge_reset_is_atomic_under_concurrent_adds() {
        let parent = Registry::new("race-parent");
        let site = Registry::with_parent("race-site", &parent);
        // touch the gauge so both registries hold the instrument
        site.gauge("reg.race.g").set(0);
        let adder = {
            let site = site.clone();
            std::thread::spawn(move || {
                for _ in 0..10_000 {
                    site.gauge("reg.race.g").add(1);
                }
            })
        };
        for _ in 0..1_000 {
            site.reset_values();
        }
        adder.join().unwrap();
        site.reset_values();
        // Quiescent invariant: every add was either wiped by a reset (and
        // then subtracted from the parent) or survives in the child; after
        // a final reset both must read zero. The old raw-store reset
        // leaked child values into the parent permanently.
        assert_eq!(site.gauge("reg.race.g").get(), 0);
        assert_eq!(parent.gauge("reg.race.g").get(), 0);
    }

    #[test]
    fn scoped_registry_is_isolated() {
        let scoped = Registry::new("scoped");
        scoped.counter("reg.test.isolated").add(9);
        assert_eq!(scoped.counter("reg.test.isolated").get(), 9);
        // The default registry never saw it.
        assert!(!MetricsSnapshot::capture()
            .counters
            .contains_key("reg.test.isolated"));
        // And scoped snapshots carry their label.
        assert_eq!(scoped.snapshot().label, "scoped");
    }
}
