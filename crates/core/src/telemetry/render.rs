//! The host-side renderers: what turns a [`Snapshot`], a
//! [`ProfSnapshot`], a batch of [`RequestRecord`]s or exported
//! [`AuditRecord`]s into text, plus the snapshot queries and window
//! arithmetic the host's consumers run.
//!
//! The enclave hands out the values these are built from; it never
//! renders or queries them itself. They live here, outside the enclave
//! crate's dependency graph, so enclave code cannot call them.

use std::collections::BTreeMap;

use seg_obs::{Decision, Phase, PhaseTime, RequestRecord};

use super::profile::{ProfEntry, ProfSnapshot};
use super::registry::{MetricId, Snapshot};
use crate::enclave::audit::AuditRecord;
use crate::hist::HistogramSummary;

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
    #[must_use]
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
            let summary = HistogramSummary::window(&diff, sum_now.saturating_sub(sum_before));
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
                let rendered = id.render();
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

/// `op;phase;subphase` rendering of an entry's path.
fn rendered_path(e: &ProfEntry) -> String {
    e.path.join(";")
}

/// The operation an entry belongs to (path element 0).
fn op(e: &ProfEntry) -> &'static str {
    e.path.first().copied().unwrap_or("")
}

impl ProfSnapshot {
    /// Looks an entry up by its rendered path (`op;phase;subphase`).
    pub fn entry(&self, rendered: &str) -> Option<&ProfEntry> {
        self.entries.iter().find(|e| rendered_path(e) == rendered)
    }

    /// All entries belonging to operation `op`.
    pub fn op_entries<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s ProfEntry> {
        self.entries.iter().filter(move |e| op(e) == name)
    }

    /// Total wall-clock of operation `op` (its root frame's total).
    pub fn op_total_ns(&self, op: &str) -> u64 {
        self.entry(op).map_or(0, |e| e.total_ns)
    }

    /// Sums self time grouped by leaf phase name across the given
    /// operations — the "which layer dominates" view. Simulated time is
    /// folded into the leaf that charged it (real and simulated never
    /// overlap on one entry).
    pub fn phase_breakdown(&self, ops: &[&str]) -> Vec<(&'static str, u64)> {
        let mut by_leaf: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in &self.entries {
            if !ops.contains(&op(e)) {
                continue;
            }
            let leaf = e.path.last().copied().unwrap_or("");
            *by_leaf.entry(leaf).or_default() += e.self_ns + e.sim_ns;
        }
        let mut out: Vec<(&'static str, u64)> = by_leaf.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }

    /// Hand-rolled JSON encoding (no external serializer). Paths are
    /// charset-restricted compiled-in names, so no escaping is needed
    /// beyond what the renderer emits.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = &e.self_per_request;
            out.push_str(&format!(
                "\n    {{\"path\": \"{}\", \"count\": {}, \"requests\": {}, \
                 \"self_ns\": {}, \"total_ns\": {}, \"sim_ns\": {}, \
                 \"self_per_request\": {{\"count\": {}, \"p50_ns\": {}, \
                 \"p95_ns\": {}, \"p99_ns\": {}}}}}",
                rendered_path(e),
                e.count,
                e.requests,
                e.self_ns,
                e.total_ns,
                e.sim_ns,
                s.count,
                s.p50,
                s.p95,
                s.p99,
            ));
        }
        if !self.entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!("],\n  \"unbalanced\": {}\n}}\n", self.unbalanced));
        out
    }

    /// Flamegraph-collapsed text: one `op;phase;subphase value` line
    /// per path, value in nanoseconds — feedable straight into
    /// `flamegraph.pl`. The value is the path's self time; entries that
    /// carry only simulated time report that instead (an entry never
    /// has both).
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let value = e.self_ns + e.sim_ns;
            if value == 0 {
                continue;
            }
            out.push_str(&format!("{} {}\n", rendered_path(e), value));
        }
        out
    }
}

/// The host's reading of a [`RequestRecord`], which crosses as plain
/// data: outcome, duration and per-phase times.
pub trait RecordView {
    /// Whether the request was permitted and succeeded.
    fn ok(&self) -> bool;

    /// Duration in whole microseconds.
    fn duration_us(&self) -> u64;

    /// Whether the request took at least `threshold_us` (0 = never).
    fn slow(&self, threshold_us: u64) -> bool;

    /// The slot of `phase`.
    fn phase(&self, phase: Phase) -> PhaseTime;
}

impl RecordView for RequestRecord {
    fn ok(&self) -> bool {
        self.decision == Decision::Allow
    }

    fn duration_us(&self) -> u64 {
        self.duration_ns / 1_000
    }

    fn slow(&self, threshold_us: u64) -> bool {
        threshold_us > 0 && self.duration_us() >= threshold_us
    }

    fn phase(&self, phase: Phase) -> PhaseTime {
        self.phases[phase as usize]
    }
}

/// A decision's stable lowercase label (`allow`/`deny`/`error`).
fn label(decision: Decision) -> &'static str {
    match decision {
        Decision::Allow => "allow",
        Decision::Deny => "deny",
        Decision::Error => "error",
    }
}

/// JSON array of whole records. Fingerprints are 16 hex digits, labels
/// are compiled in, the rest is integers; zero phases are left out.
#[must_use]
pub fn records_json(records: &[RequestRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"request_id\": {}, \"op\": \"{}\", \"decision\": \"{}\", \"code\": \"{}\", \
             \"principal\": \"{:016x}\", \"object\": \"{:016x}\", \"group\": \"{:016x}\", \
             \"duration_us\": {}, \"phases\": {{",
            r.request_id,
            r.op,
            label(r.decision),
            r.code,
            r.principal,
            r.object,
            r.group,
            r.duration_us(),
        ));
        let spent = Phase::ALL
            .iter()
            .zip(&r.phases)
            .filter(|(_, p)| **p != PhaseTime::default());
        for (j, (phase, p)) in spent.enumerate() {
            let name = phase.name();
            let sep = if j > 0 { ", " } else { "" };
            out.push_str(&format!(
                "{sep}\"{name}\": {{\"self_ns\": {}, \"sim_ns\": {}}}",
                p.self_ns, p.sim_ns
            ));
        }
        let c = &r.cost;
        out.push_str(&format!(
            "}}, \"cost\": {{\"req_bytes\": {}, \"resp_bytes\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"store_reads\": {}, \"store_writes\": {}, \
             \"audit_bytes\": {}}}}}",
            c.req_bytes,
            c.resp_bytes,
            c.cache_hits,
            c.cache_misses,
            c.store_reads,
            c.store_writes,
            c.audit_bytes,
        ));
    }
    if !records.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// JSON array of exported audit records. Labels are compiled-in
/// operation and code names; principals and objects are hex
/// fingerprints — nothing here needs escaping.
#[must_use]
pub fn audit_json(records: &[AuditRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"seq\": {}, \"time\": {}, \"request_id\": {}, \"op\": \"{}\", \
             \"principal\": \"{:016x}\", \"object\": \"{:016x}\", \"decision\": \"{}\", \
             \"code\": \"{}\"}}",
            r.seq,
            r.time,
            r.request_id,
            r.op,
            r.principal,
            r.object,
            label(r.decision),
            r.code
        ));
    }
    if !records.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}
