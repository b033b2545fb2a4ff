//! `seg-obs`: zero-dependency telemetry for the SeGShare reproduction.
//!
//! The crate has two halves, told apart by file (`seg_bench::tcb`
//! counts them on different sides of the enclave boundary).
//!
//! **Linked into the enclave:** the [`Registry`] of atomic counters,
//! gauges and log-bucketed latency [`Histogram`]s, the per-request
//! [`RequestRecord`] with the [`RecordSink`] it is handed out through
//! ([`record`]), the trace ring of nested events ([`trace`]) and the
//! phase profiler that fills the record's phase vector ([`prof`]).
//!
//! **Run by the untrusted host:** the pure consumers of records and
//! snapshots — the meter ([`meter`]) and the history clock with its
//! flight frames, headline levels, SLO burn rates and alert ring
//! ([`health`], [`flight`]). Their inputs already crossed the boundary,
//! so they need no trust: a host that lies in its own meter or alert
//! ring misleads only itself.
//!
//! # Trust-boundary rule
//!
//! Telemetry crosses the enclave boundary, so it must carry **no
//! confidential request content** (paper §III threat model: the cloud
//! provider observes everything outside the enclave). Data flows one
//! way, enclave → host, as four kinds of value:
//!
//! - [`RequestRecord`] — pushed, one per closed request, through the
//!   one [`RecordSink`] (see [`record`] for why a record is safe);
//! - snapshots — pulled; a metric [`Snapshot`]'s names and label *keys*
//!   are `&'static str`, label *values* too and restricted to the
//!   charset `[a-z0-9_.]` (checked at registration), so file paths
//!   (contain `/`), user ids (arbitrary) and key material (binary) are
//!   unrepresentable by construction; a [`ProfSnapshot`] is compiled-in
//!   phase paths and aggregate times;
//! - [`TraceEvent`]s — pulled; interned compiled-in labels and keyed
//!   fingerprints;
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

pub mod flight;
pub mod health;
mod hist;
pub mod meter;
pub mod prof;
pub mod record;
pub mod trace;

pub use flight::FlightRecorder;
pub use health::{Alert, AlertRing, BurnRule, HealthConfig, HealthMonitor, SloObjective};
pub use hist::{Histogram, HistogramSummary};
pub use meter::{Meter, MeterAxis, MeterSlot, Rollup, METER_AXES, METER_SLOTS};
pub use prof::{ProfEntry, ProfSnapshot, Profiler};
pub use record::{records_json, CostVector, PhaseTime, RecordSink, RequestRecord, PHASES};
pub use trace::{
    current_request_id, events_json, set_current_request, TraceDecision, TraceEvent, TraceRing,
};

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
    trace: OnceLock<Arc<TraceRing>>,
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

    /// Attaches the trace ring that nested layers (access control,
    /// store I/O) emit their events into. A ring can be attached at most
    /// once (later calls return the first ring).
    pub fn attach_trace(&self, ring: Arc<TraceRing>) -> &Arc<TraceRing> {
        self.trace.get_or_init(|| ring)
    }

    /// The attached trace ring, if any.
    pub fn trace(&self) -> Option<&Arc<TraceRing>> {
        self.trace.get()
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

/// Point-in-time copy of the registry, ordered deterministically.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauge values.
    pub gauges: Vec<(MetricId, u64)>,
    /// Histogram digests.
    pub histograms: Vec<(MetricId, HistogramSummary)>,
    /// Raw per-bucket histogram counts, parallel to `histograms`,
    /// kept so two snapshots can be differenced (see [`Snapshot::delta`]).
    pub buckets: Vec<(MetricId, Vec<u64>)>,
}

impl Snapshot {
    /// Looks up a counter by rendered id (`name` or `name{k="v"}`).
    pub fn counter(&self, rendered: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(id, _)| id.render() == rendered)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by rendered id.
    pub fn gauge(&self, rendered: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(id, _)| id.render() == rendered)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram digest by rendered id.
    pub fn histogram(&self, rendered: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(id, _)| id.render() == rendered)
            .map(|(_, s)| s)
    }

    /// The window `self − earlier`: what happened *between* the two
    /// snapshots. Counters subtract (saturating, so a reset in between
    /// degrades to the cumulative value rather than wrapping); gauges
    /// keep `self`'s last value (deltas of last-value-wins samples are
    /// meaningless); histograms are re-summarized from the per-bucket
    /// count differences, so windowed quantiles are real quantiles of
    /// the interval, not a mix with pre-window samples. Windowed
    /// `min`/`max` are approximated by the first/last non-empty diff
    /// bucket's midpoint (the exact extremes of only-the-window are not
    /// recoverable from cumulative state). Metrics absent from
    /// `earlier` (registered later) are treated as starting from zero.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(id, v)| {
                let before = earlier
                    .counters
                    .iter()
                    .find(|(eid, _)| eid == id)
                    .map_or(0, |&(_, ev)| ev);
                (id.clone(), v.saturating_sub(before))
            })
            .collect();
        let mut histograms = Vec::with_capacity(self.histograms.len());
        let mut buckets = Vec::with_capacity(self.buckets.len());
        for (id, counts) in &self.buckets {
            let diff: Vec<u64> = match earlier.buckets.iter().find(|(eid, _)| eid == id) {
                Some((_, before)) => counts
                    .iter()
                    .zip(before.iter().chain(std::iter::repeat(&0)))
                    .map(|(c, b)| c.saturating_sub(*b))
                    .collect(),
                None => counts.clone(),
            };
            let sum_now = self.histogram(&id.render()).map_or(0, |s| s.sum);
            let sum_before = earlier.histogram(&id.render()).map_or(0, |s| s.sum);
            let summary = hist::summarize_window(&diff, sum_now.saturating_sub(sum_before));
            histograms.push((id.clone(), summary));
            buckets.push((id.clone(), diff));
        }
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
            buckets,
        }
    }

    /// The union of two snapshots over disjoint metric sets, in id
    /// order: how the host appends the families it owns to the ones
    /// pulled from the enclave's registry.
    #[must_use]
    pub fn merge(mut self, other: Snapshot) -> Snapshot {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        self.buckets.extend(other.buckets);
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        self.buckets.sort_by(|a, b| a.0.cmp(&b.0));
        self
    }

    /// Hand-rolled JSON encoding (no external serializer).
    ///
    /// Names and label values are charset-restricted at registration;
    /// the only character needing JSON escaping is the `"` that
    /// `MetricId::render` itself puts around label values.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_scalar_map(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        push_scalar_map(&mut out, &self.gauges);
        out.push_str("},\n  \"histograms\": {");
        for (i, (id, s)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \
                 \"max_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
                json_key(id),
                s.count,
                s.sum,
                s.min,
                s.max,
                s.p50,
                s.p95,
                s.p99
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Prometheus exposition text. Histograms are emitted in summary
    /// form (`quantile` labels plus `_sum`/`_count` series).
    ///
    /// Entries are sorted by metric id, so all series of one metric
    /// are adjacent and each `# TYPE` header is emitted exactly once
    /// per metric name (the exposition format forbids repeats).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type_line: Option<&'static str> = None;
        let mut type_line = |out: &mut String, name: &'static str, kind: &str| {
            if last_type_line != Some(name) {
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_type_line = Some(name);
            }
        };
        for (id, v) in &self.counters {
            type_line(&mut out, id.name(), "counter");
            out.push_str(&format!("{} {}\n", id.render(), v));
        }
        for (id, v) in &self.gauges {
            type_line(&mut out, id.name(), "gauge");
            out.push_str(&format!("{} {}\n", id.render(), v));
        }
        for (id, s) in &self.histograms {
            type_line(&mut out, id.name(), "summary");
            for (q, v) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
                let mut labels = vec![format!("quantile=\"{q}\"")];
                labels.extend(id.labels().iter().map(|(k, v)| format!("{k}=\"{v}\"")));
                out.push_str(&format!("{}{{{}}} {}\n", id.name(), labels.join(","), v));
            }
            let suffix = |suffix: &str, v: u64| {
                let rendered = MetricId {
                    name: id.name(),
                    labels: id.labels.clone(),
                }
                .render();
                match rendered.find('{') {
                    Some(pos) => {
                        format!("{}{}{} {}\n", &rendered[..pos], suffix, &rendered[pos..], v)
                    }
                    None => format!("{rendered}{suffix} {v}\n"),
                }
            };
            out.push_str(&suffix("_sum", s.sum));
            out.push_str(&suffix("_count", s.count));
        }
        out
    }
}

fn push_scalar_map(out: &mut String, entries: &[(MetricId, u64)]) {
    for (i, (id, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", json_key(id), v));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

/// Rendered id with the label-value quotes JSON-escaped, e.g.
/// `seg_requests_total{op=\"get\"}`.
fn json_key(id: &MetricId) -> String {
    id.render().replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

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
        rec.decision = TraceDecision::Deny;
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
    fn snapshot_is_deterministic() {
        let build = || {
            let r = Registry::new();
            // Insertion order differs between the two closures' call
            // sites below; output order must not.
            r.counter_with("seg_requests_total", vec![("op", "get")])
                .inc();
            r.counter("seg_frames_total").add(7);
            r.gauge("seg_epc_bytes").set(11);
            r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
                .record(500);
            r.snapshot().to_json()
        };
        let build_reordered = || {
            let r = Registry::new();
            r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
                .record(500);
            r.gauge("seg_epc_bytes").set(11);
            r.counter("seg_frames_total").add(7);
            r.counter_with("seg_requests_total", vec![("op", "get")])
                .inc();
            r.snapshot().to_json()
        };
        assert_eq!(build(), build());
        assert_eq!(build(), build_reordered());
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
    fn json_output_shape() {
        let r = Registry::new();
        r.counter_with("seg_requests_total", vec![("op", "get")])
            .add(3);
        r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
            .record(1000);
        let json = r.snapshot().to_json();
        assert!(
            json.contains("\"seg_requests_total{op=\\\"get\\\"}\": 3"),
            "{json}"
        );
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"p99_ns\""));
        // Sanity: balanced braces.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn prometheus_output_shape() {
        let r = Registry::new();
        r.counter_with("seg_requests_total", vec![("op", "get")])
            .add(3);
        r.gauge("seg_epc_bytes").set(42);
        r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
            .record(1000);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE seg_requests_total counter"));
        assert!(text.contains("seg_requests_total{op=\"get\"} 3"));
        assert!(text.contains("seg_epc_bytes 42"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("seg_request_latency_ns_count{op=\"get\"} 1"));
        assert!(text.contains("seg_request_latency_ns_sum{op=\"get\"} "));
    }

    #[test]
    fn empty_registry_encodes_cleanly() {
        let snap = Registry::new().snapshot();
        let json = snap.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"gauges\": {}"), "{json}");
        assert!(json.contains("\"histograms\": {}"), "{json}");
        assert_eq!(snap.to_prometheus(), "");
    }

    #[test]
    fn zero_count_histogram_encodes_all_zero_summary() {
        let r = Registry::new();
        let _ = r.histogram_with("seg_request_latency_ns", vec![("op", "get")]);
        let snap = r.snapshot();
        let json = snap.to_json();
        assert!(
            json.contains("\"seg_request_latency_ns{op=\\\"get\\\"}\": {\"count\": 0, \"sum_ns\": 0, \"min_ns\": 0"),
            "{json}"
        );
        let text = snap.to_prometheus();
        assert!(text.contains("seg_request_latency_ns_count{op=\"get\"} 0"));
        assert!(text.contains("seg_request_latency_ns_sum{op=\"get\"} 0"));
        // min must render as 0, not the u64::MAX sentinel.
        assert!(!text.contains("18446744073709551615"), "{text}");
    }

    #[test]
    fn prometheus_type_header_appears_once_per_metric_name() {
        let r = Registry::new();
        r.counter_with("seg_requests_total", vec![("op", "get")])
            .inc();
        r.counter_with("seg_requests_total", vec![("op", "put_file")])
            .inc();
        r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
            .record(10);
        r.histogram_with("seg_request_latency_ns", vec![("op", "put_file")])
            .record(10);
        let text = r.snapshot().to_prometheus();
        assert_eq!(
            text.matches("# TYPE seg_requests_total counter").count(),
            1,
            "{text}"
        );
        assert_eq!(
            text.matches("# TYPE seg_request_latency_ns summary")
                .count(),
            1,
            "{text}"
        );
    }

    #[test]
    fn json_escapes_label_quotes_and_allows_dotted_values() {
        let r = Registry::new();
        r.counter_with("seg_host_info", vec![("host", "node.a_1")])
            .inc();
        let json = r.snapshot().to_json();
        assert!(
            json.contains("\"seg_host_info{host=\\\"node.a_1\\\"}\": 1"),
            "{json}"
        );
        // Every quote inside a JSON key is escaped: strip the \" pairs
        // and the remaining quotes must be structural (even count).
        let stripped = json.replace("\\\"", "");
        assert_eq!(stripped.matches('"').count() % 2, 0, "{json}");
    }

    #[test]
    fn single_sample_histogram_encodes_exact_quantiles() {
        let r = Registry::new();
        r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
            .record(1234);
        let snap = r.snapshot();
        let json = snap.to_json();
        assert!(
            json.contains(
                "\"count\": 1, \"sum_ns\": 1234, \"min_ns\": 1234, \"max_ns\": 1234, \
                 \"p50_ns\": 1234, \"p95_ns\": 1234, \"p99_ns\": 1234"
            ),
            "{json}"
        );
        let text = snap.to_prometheus();
        assert!(text.contains("seg_request_latency_ns{quantile=\"0.5\",op=\"get\"} 1234"));
        assert!(text.contains("seg_request_latency_ns_count{op=\"get\"} 1"));
        assert!(text.contains("seg_request_latency_ns_sum{op=\"get\"} 1234"));
    }

    #[test]
    fn prometheus_is_deterministic_across_identical_snapshots() {
        let build = || {
            let r = Registry::new();
            r.counter_with("seg_requests_total", vec![("op", "get")])
                .add(2);
            r.gauge("seg_epc_bytes").set(7);
            r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
                .record(999);
            r.snapshot().to_prometheus()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn delta_windows_counters_and_keeps_gauges() {
        let r = Registry::new();
        let c = r.counter_with("seg_requests_total", vec![("op", "get")]);
        let g = r.gauge("seg_epc_bytes");
        c.add(10);
        g.set(100);
        let before = r.snapshot();
        c.add(3);
        g.set(250);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.counter("seg_requests_total{op=\"get\"}"), Some(3));
        // Gauges are last-value-wins: the window reports the latest.
        assert_eq!(d.gauge("seg_epc_bytes"), Some(250));
    }

    #[test]
    fn delta_histogram_quantiles_cover_only_the_window() {
        let r = Registry::new();
        let h = r.histogram_with("seg_request_latency_ns", vec![("op", "get")]);
        // Warmup: large outliers that must not pollute the window.
        for _ in 0..100 {
            h.record(50_000_000);
        }
        let before = r.snapshot();
        for _ in 0..100 {
            h.record(1_000);
        }
        let d = r.snapshot().delta(&before);
        let s = d
            .histogram("seg_request_latency_ns{op=\"get\"}")
            .expect("windowed digest");
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 100_000);
        // All windowed quantiles sit near 1us, nowhere near 50ms.
        assert!(s.p99 < 10_000, "windowed p99 leaked warmup: {}", s.p99);
        // The cumulative view, by contrast, is dominated by warmup.
        let cum = r.snapshot();
        let cs = cum.histogram("seg_request_latency_ns{op=\"get\"}").unwrap();
        assert!(cs.p95 > 10_000_000, "cumulative p95: {}", cs.p95);
    }

    #[test]
    fn delta_handles_metrics_registered_after_the_baseline() {
        let r = Registry::new();
        let before = r.snapshot();
        r.counter("seg_frames_total").add(4);
        r.histogram("seg_pfs_encrypt_ns").record(77);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.counter("seg_frames_total"), Some(4));
        assert_eq!(d.histogram("seg_pfs_encrypt_ns").unwrap().count, 1);
    }

    #[test]
    fn delta_of_identical_snapshots_is_empty_window() {
        let r = Registry::new();
        r.counter("seg_frames_total").add(9);
        r.histogram("seg_pfs_encrypt_ns").record(123);
        let snap = r.snapshot();
        let d = snap.delta(&snap.clone());
        assert_eq!(d.counter("seg_frames_total"), Some(0));
        let s = d.histogram("seg_pfs_encrypt_ns").unwrap();
        assert_eq!((s.count, s.sum), (0, 0));
        // An empty window still encodes cleanly.
        let json = d.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn span_opens_profiler_root_when_attached() {
        let r = Registry::new();
        assert!(r.profile_root("put_file").is_none(), "nothing attached");
        r.attach_profiler(Arc::new(Profiler::new()));
        {
            let _root = r.profile_root("put_file");
            let _g = prof::phase("pfs");
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
