//! The metric registry: the host's one set of counters, gauges and
//! log-bucketed latency histograms, and the request families it folds
//! from each closed record.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use seg_obs::RequestRecord;

use super::RecordView;
use crate::hist::{Histogram, HistogramSummary};

/// A metric's identity: compiled-in name plus compiled-in label pairs.
///
/// Both halves are `&'static str` on purpose: every label value is a
/// compiled-in name (an operation, an error code, a store, a check), so
/// an export cannot carry request content even by mistake. Labels are
/// kept sorted by key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    name: &'static str,
    labels: Vec<(&'static str, &'static str)>,
}

impl MetricId {
    fn new(name: &'static str, mut labels: Vec<(&'static str, &'static str)>) -> MetricId {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (k, v) in &labels {
            assert!(valid_name(k), "invalid label key {k:?} on {name:?}");
            assert!(
                valid_label_value(v),
                "invalid label value {v:?} for {k:?} on {name:?} \
                 (allowed charset: [a-z0-9_.])"
            );
        }
        labels.sort_unstable();
        MetricId { name, labels }
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sorted label pairs.
    pub fn labels(&self) -> &[(&'static str, &'static str)] {
        &self.labels
    }

    /// `name{k="v",...}` rendering (Prometheus-style).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let body: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{}{{{}}}", self.name, body.join(","))
    }
}

/// `[a-z_][a-z0-9_]*`: metric names and label keys.
fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// `[a-z0-9_.]+`: label values. Deliberately excludes `/` (paths),
/// uppercase and `@` (user ids/emails), and anything that could render
/// binary key material.
fn valid_label_value(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
}

/// A monotonically increasing counter handle (cheaply cloneable).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `total` if it is below it: how a mirror
    /// of a monotonic total kept elsewhere follows it, without
    /// double-counting when two mirrors race.
    pub fn advance_to(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle (cheaply cloneable).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<MetricId, Arc<AtomicU64>>,
    gauges: BTreeMap<MetricId, Arc<AtomicU64>>,
    histograms: BTreeMap<MetricId, Arc<Histogram>>,
}

/// The metric registry: owns every counter/gauge/histogram and
/// produces deterministic [`Snapshot`]s.
///
/// Handles returned by the `counter`/`gauge`/`histogram` methods are
/// interned: asking twice for the same id yields handles backed by the
/// same atomic, so call sites may either cache handles (hot paths) or
/// re-resolve by name (cold paths).
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
    /// Per-op handles of the request families, resolved on an
    /// operation's first record (see [`Registry::consume`]).
    requests: RwLock<Vec<(&'static str, Counter, Arc<Histogram>)>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Unlabeled counter.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_with(name, vec![])
    }

    /// Labeled counter.
    pub fn counter_with(
        &self,
        name: &'static str,
        labels: Vec<(&'static str, &'static str)>,
    ) -> Counter {
        let id = MetricId::new(name, labels);
        let mut inner = self.inner.lock().unwrap();
        Counter(Arc::clone(inner.counters.entry(id).or_default()))
    }

    /// Unlabeled gauge.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.gauge_with(name, vec![])
    }

    /// Labeled gauge.
    pub fn gauge_with(
        &self,
        name: &'static str,
        labels: Vec<(&'static str, &'static str)>,
    ) -> Gauge {
        let id = MetricId::new(name, labels);
        let mut inner = self.inner.lock().unwrap();
        Gauge(Arc::clone(inner.gauges.entry(id).or_default()))
    }

    /// Unlabeled histogram.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.histogram_with(name, vec![])
    }

    /// Labeled histogram.
    pub fn histogram_with(
        &self,
        name: &'static str,
        labels: Vec<(&'static str, &'static str)>,
    ) -> Arc<Histogram> {
        let id = MetricId::new(name, labels);
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(inner.histograms.entry(id).or_default())
    }

    /// Folds one closed request into the request families:
    /// `seg_requests_total{op}` and `seg_request_latency_ns{op}`
    /// through handles resolved once per operation, and — for a request
    /// that was denied or failed — `seg_request_errors_total{op,code}`.
    pub fn consume(&self, rec: &RequestRecord) {
        let count = |total: &Counter, latency: &Histogram| {
            total.inc();
            latency.record(rec.duration_ns);
        };
        let known = {
            let ops = self.requests.read().unwrap_or_else(|e| e.into_inner());
            ops.iter()
                .find(|(op, ..)| *op == rec.op)
                .map(|(_, total, latency)| count(total, latency))
        };
        if known.is_none() {
            let total = self.counter_with("seg_requests_total", vec![("op", rec.op)]);
            let latency = self.histogram_with("seg_request_latency_ns", vec![("op", rec.op)]);
            count(&total, &latency);
            // Two first requests of one op may both land here; interned
            // handles make the second entry a harmless duplicate.
            self.requests
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .push((rec.op, total, latency));
        }
        if !rec.ok() {
            self.counter_with(
                "seg_request_errors_total",
                vec![("op", rec.op), ("code", rec.code)],
            )
            .inc();
        }
    }

    /// Captures every metric's current value, deterministically
    /// ordered by metric id.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(id, v)| (id.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(id, v)| (id.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(id, h)| (id.clone(), h.summarize()))
                .collect(),
            buckets: inner
                .histograms
                .iter()
                .map(|(id, h)| (id.clone(), h.bucket_counts()))
                .collect(),
        }
    }
}

/// Point-in-time copy of the registry, ordered deterministically. Its
/// queries, window arithmetic and renderings are in `render.rs`.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauge values.
    pub gauges: Vec<(MetricId, u64)>,
    /// Histogram digests.
    pub histograms: Vec<(MetricId, HistogramSummary)>,
    /// Raw per-bucket histogram counts, parallel to `histograms`,
    /// kept so two snapshots can be differenced (see
    /// [`Snapshot::delta`]).
    pub buckets: Vec<(MetricId, Vec<u64>)>,
}
