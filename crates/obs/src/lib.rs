//! `seg-obs`: zero-dependency telemetry for the SeGShare reproduction.
//!
//! All of it is linked into the enclave: the [`Registry`] of atomic
//! counters, gauges and log-bucketed latency [`Histogram`]s, the
//! per-request [`RequestRecord`] with the [`RecordSink`] it is handed
//! out through ([`record`]) and the phase profiler that fills the
//! record's phase vector ([`prof`]).
//!
//! The renderers and queries of snapshots and records (JSON,
//! Prometheus, collapsed stacks, windows) are the untrusted host's and
//! live in `segshare::telemetry`. Their inputs already crossed the
//! boundary, so they need no trust. The host keeps no history of its
//! own: it exports state, and whoever scrapes the export keeps time.
//!
//! # Trust-boundary rule
//!
//! Telemetry crosses the enclave boundary, so it must carry **no
//! confidential request content** (paper §III threat model: the cloud
//! provider observes everything outside the enclave). Data flows one
//! way, enclave → host, as three kinds of value:
//!
//! - [`RequestRecord`] — pushed, one per closed request, through the
//!   one [`RecordSink`] (see [`record`] for why a record is safe);
//! - snapshots — pulled; a metric [`Snapshot`]'s names and label *keys*
//!   are `&'static str`, label *values* too and restricted to the
//!   charset `[a-z0-9_.]` (checked at registration), so file paths
//!   (contain `/`), user ids (arbitrary) and key material (binary) are
//!   unrepresentable by construction; a [`ProfSnapshot`] is compiled-in
//!   phase paths and aggregate times;
//! - `segshare`'s `ScrubReport` — pulled; per-check counts and finding
//!   fingerprints.
//!
//! # Naming scheme
//!
//! `seg_<layer>_<quantity>_<unit-or-total>{label=...}`, e.g.
//! `seg_requests_total{op="put_file"}`,
//! `seg_request_latency_ns{op="get"}`,
//! `seg_store_bytes_read_total{store="content"}`.

#![warn(missing_docs)]

mod hist;
pub mod prof;
pub mod record;

pub use hist::{Histogram, HistogramSummary};
pub use prof::{ProfEntry, ProfSnapshot, Profiler};
pub use record::{CostVector, Decision, Phase, PhaseTime, RecordSink, RequestRecord};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// A metric's identity: compiled-in name plus compiled-in label pairs.
///
/// Both halves are `&'static str` on purpose — see the crate docs'
/// trust-boundary rule. Labels are kept sorted by key.
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
    prof: OnceLock<Arc<Profiler>>,
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

    /// Attaches a phase profiler, so [`Registry::profile_root`] opens
    /// request roots against it. Attachable at most once (later calls
    /// return the first profiler).
    pub fn attach_profiler(&self, profiler: Arc<Profiler>) -> &Arc<Profiler> {
        self.prof.get_or_init(|| profiler)
    }

    /// The attached phase profiler, if any.
    pub fn profiler(&self) -> Option<&Arc<Profiler>> {
        self.prof.get()
    }

    /// Opens a profiler root for `op` on the current thread, so
    /// [`prof::phase`] calls anywhere below attribute into it. `None`
    /// without an attached profiler; an inert guard when the thread
    /// already has an active root.
    pub fn profile_root(&self, op: &'static str) -> Option<prof::OpGuard> {
        self.profiler().map(|p| prof::OpGuard::begin(p, op))
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
    ///
    /// This is the **declassification point**: the only sanctioned way
    /// aggregate telemetry leaves the enclave. Callers on the trusted
    /// side decide when to invoke it and where the text goes.
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

    /// Zeroes every registered metric (handles stay valid).
    pub fn reset(&self) {
        let inner = self.inner.lock().unwrap();
        for v in inner.counters.values() {
            v.store(0, Ordering::Relaxed);
        }
        for v in inner.gauges.values() {
            v.store(0, Ordering::Relaxed);
        }
        for h in inner.histograms.values() {
            h.reset();
        }
    }
}

/// Point-in-time copy of the registry, ordered deterministically. Its
/// queries, window arithmetic and renderings are host-side
/// (`segshare::telemetry`).
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
    /// [`HistogramSummary::window`]).
    pub buckets: Vec<(MetricId, Vec<u64>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The host's snapshot lookups (`segshare::telemetry`), re-stated
    /// for this crate's assertions.
    pub(crate) trait Lookup {
        fn counter(&self, rendered: &str) -> Option<u64>;
        fn gauge(&self, rendered: &str) -> Option<u64>;
        fn histogram(&self, rendered: &str) -> Option<&HistogramSummary>;
    }

    impl Lookup for Snapshot {
        fn counter(&self, rendered: &str) -> Option<u64> {
            let found = self.counters.iter().find(|(id, _)| id.render() == rendered);
            found.map(|&(_, v)| v)
        }
        fn gauge(&self, rendered: &str) -> Option<u64> {
            let found = self.gauges.iter().find(|(id, _)| id.render() == rendered);
            found.map(|&(_, v)| v)
        }
        fn histogram(&self, rendered: &str) -> Option<&HistogramSummary> {
            let found = self
                .histograms
                .iter()
                .find(|(id, _)| id.render() == rendered);
            found.map(|(_, s)| s)
        }
    }

    /// The host's profile lookups, likewise.
    pub(crate) trait ProfLookup {
        fn entry(&self, rendered: &str) -> Option<&ProfEntry>;
        fn op_entries<'s>(&'s self, op: &'s str) -> impl Iterator<Item = &'s ProfEntry>;
    }

    impl ProfLookup for ProfSnapshot {
        fn entry(&self, rendered: &str) -> Option<&ProfEntry> {
            self.entries.iter().find(|e| e.path.join(";") == rendered)
        }
        fn op_entries<'s>(&'s self, op: &'s str) -> impl Iterator<Item = &'s ProfEntry> {
            self.entries.iter().filter(move |e| e.path[0] == op)
        }
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::new();
        let c = r.counter("seg_frames_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("seg_epc_bytes");
        g.set(4096);
        g.set(8192);
        assert_eq!(g.get(), 8192);
        let snap = r.snapshot();
        assert_eq!(snap.counter("seg_frames_total"), Some(5));
        assert_eq!(snap.gauge("seg_epc_bytes"), Some(8192));
    }

    #[test]
    fn handles_are_interned() {
        let r = Registry::new();
        r.counter_with("seg_requests_total", vec![("op", "get")])
            .inc();
        r.counter_with("seg_requests_total", vec![("op", "get")])
            .inc();
        r.counter_with("seg_requests_total", vec![("op", "put_file")])
            .inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("seg_requests_total{op=\"get\"}"), Some(2));
        assert_eq!(snap.counter("seg_requests_total{op=\"put_file\"}"), Some(1));
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::new();
        r.counter_with("seg_x_total", vec![("op", "get"), ("code", "denied")])
            .inc();
        r.counter_with("seg_x_total", vec![("code", "denied"), ("op", "get")])
            .inc();
        let snap = r.snapshot();
        assert_eq!(
            snap.counter("seg_x_total{code=\"denied\",op=\"get\"}"),
            Some(2)
        );
        assert_eq!(snap.counters.len(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid label value")]
    fn path_like_label_values_are_rejected() {
        Registry::new().counter_with("seg_requests_total", vec![("op", "/home/alice/secret")]);
    }

    #[test]
    #[should_panic(expected = "invalid label value")]
    fn userid_like_label_values_are_rejected() {
        Registry::new().counter_with("seg_requests_total", vec![("user", "alice@example.com")]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn uppercase_metric_names_are_rejected() {
        Registry::new().counter("PutFile");
    }

    #[test]
    fn span_records_latency_and_outcome() {
        // A closed request — what used to be a finished span — lands in
        // the three request families.
        let r = Registry::new();
        let mut rec = RequestRecord::open(1, "put_file", 7, 9);
        rec.duration_ns = 1_000;
        r.consume(&rec);
        rec.decision = Decision::Deny;
        rec.code = "denied";
        r.consume(&rec);
        r.consume(&RequestRecord::open(2, "get", 7, 9));
        let snap = r.snapshot();
        assert_eq!(snap.counter("seg_requests_total{op=\"put_file\"}"), Some(2));
        assert_eq!(snap.counter("seg_requests_total{op=\"get\"}"), Some(1));
        assert_eq!(
            snap.counter("seg_request_errors_total{code=\"denied\",op=\"put_file\"}"),
            Some(1)
        );
        assert_eq!(snap.counters.len(), 3, "no error series for a clean op");
        let h = snap
            .histogram("seg_request_latency_ns{op=\"put_file\"}")
            .expect("latency histogram");
        assert_eq!((h.count, h.sum), (2, 2_000));
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        let r = std::sync::Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("seg_frames_total");
                    for _ in 0..10_000 {
                        c.inc();
                        r.counter_with("seg_requests_total", vec![("op", "get")])
                            .inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("seg_frames_total"), Some(80_000));
        assert_eq!(snap.counter("seg_requests_total{op=\"get\"}"), Some(80_000));
    }

    #[test]
    fn span_opens_profiler_root_when_attached() {
        let r = Registry::new();
        assert!(r.profile_root("put_file").is_none(), "nothing attached");
        r.attach_profiler(Arc::new(Profiler::new()));
        {
            let _root = r.profile_root("put_file");
            let _g = prof::phase(Phase::Pfs);
        }
        let snap = r.profiler().unwrap().snapshot();
        assert!(snap.entry("put_file;pfs").is_some());
        assert_eq!(snap.unbalanced, 0);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_live() {
        let r = Registry::new();
        let c = r.counter("seg_frames_total");
        c.add(9);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.snapshot().counter("seg_frames_total"), Some(1));
    }
}
