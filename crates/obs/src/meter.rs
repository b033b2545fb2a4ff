//! `seg-meter`: cardinality-bounded per-fingerprint resource
//! accounting.
//!
//! The other consumers answer *what* the system is doing (metrics),
//! *what one request did* (trace), *where the time went* (prof), and
//! *whether the system is keeping up* (history). This one answers **who
//! is costing what**: every [`RequestRecord`] is rolled up — ops,
//! errors, slow requests, latency, bytes moved, crypto and lock-wait
//! nanoseconds, cache and store activity, audit bytes — against the
//! requesting principal and the touched object, group and path prefix.
//!
//! # Bounded memory under adversarial cardinality
//!
//! Principals, objects, groups, and prefixes are client-controlled in
//! number, so exact per-key tables would let a client grow the host's
//! memory without bound. Each attribution axis therefore keeps a
//! **SpaceSaving-style top-K sketch** ([`MeterAxis`]) of at most
//! [`METER_SLOTS`] tracked keys:
//!
//! - a tracked key's op **estimate** only over-counts, never under:
//!   `true ≤ est ≤ true + err`, with the per-slot error bound `err`
//!   inherited from the evicted minimum at takeover;
//! - `err` never exceeds the smallest tracked estimate, so heavy
//!   hitters are provably separated from the noise floor;
//! - the full rollup is **exact while tracked**; evicted rollups fold
//!   into the axis's overflow bucket, so totals are conserved:
//!   `Σ tracked + overflow = everything attributed`.
//!
//! # Trust boundary
//!
//! Runs on the untrusted host. Keys are the record's keyed
//! fingerprints, rendered as 16 hex digits; values are aggregate counts
//! and durations (see [`crate::record`]) — content-free by construction
//! of the record that crossed.

use std::sync::Mutex;

use crate::RequestRecord;

/// Hard cap on tracked keys per attribution axis. Memory per axis is
/// `METER_SLOTS × sizeof(slot)` regardless of how many distinct keys
/// ever appear.
pub const METER_SLOTS: usize = 64;

/// Dimension names of a [`Rollup`], in slot order. Compiled-in strings,
/// valid as metric label values (`[a-z0-9_.]`).
pub const METER_DIMS: [&str; 13] = [
    "ops",
    "errors",
    "slow",
    "latency_ns",
    "req_bytes",
    "resp_bytes",
    "crypto_ns",
    "lock_wait_ns",
    "cache_hits",
    "cache_misses",
    "store_reads",
    "store_writes",
    "audit_bytes",
];

/// The attribution axes, in the order of a record's four fingerprints
/// (`axis` label values of the `seg_meter_*` families).
pub const METER_AXES: [&str; 4] = ["principal", "object", "group", "prefix"];

/// The axes' section keys in [`Meter::report_json`].
const SECTIONS: [&str; 4] = ["principals", "objects", "groups", "prefixes"];

/// What a set of requests cost, one value per [`METER_DIMS`] name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rollup(pub [u64; METER_DIMS.len()]);

impl Rollup {
    /// The rollup of one record; `slow_us` is the slow threshold.
    #[must_use]
    pub fn of(rec: &RequestRecord, slow_us: u64) -> Rollup {
        let c = &rec.cost;
        Rollup([
            1,
            u64::from(!rec.ok()),
            u64::from(rec.slow(slow_us)),
            rec.duration_ns,
            c.req_bytes,
            c.resp_bytes,
            rec.phase("crypto_gcm").self_ns,
            rec.phase("lock_wait").sim_ns,
            c.cache_hits,
            c.cache_misses,
            c.store_reads,
            c.store_writes,
            c.audit_bytes,
        ])
    }

    /// Adds `other` into `self`, saturating per dimension.
    pub fn add(&mut self, other: &Rollup) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = a.saturating_add(*b);
        }
    }

    /// The value of dimension `name` (0 for a name not in
    /// [`METER_DIMS`]).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        METER_DIMS
            .iter()
            .position(|d| *d == name)
            .map_or(0, |i| self.0[i])
    }

    /// Completed requests (dimension 0).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.0[0]
    }

    fn push_json(&self, out: &mut String) {
        out.push('{');
        for (i, name) in METER_DIMS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{}", self.0[i]));
        }
        out.push('}');
    }
}

/// One tracked key of a [`MeterAxis`]: the SpaceSaving counter pair
/// plus the exact rollup accumulated while the key was tracked.
#[derive(Debug, Clone, Copy)]
pub struct MeterSlot {
    /// Keyed fingerprint of the principal / object / group / prefix.
    pub fp: u64,
    /// SpaceSaving op-count estimate: `true ≤ est ≤ true + err`.
    pub est: u64,
    /// Over-count bound inherited from the evicted minimum.
    pub err: u64,
    /// Exact rollup since this key was (last) admitted.
    pub costs: Rollup,
}

/// The SpaceSaving counters of one tracked key.
#[derive(Debug, Clone, Copy)]
struct Key {
    fp: u64,
    est: u64,
    err: u64,
}

/// One attribution axis: a SpaceSaving top-K sketch over keyed
/// fingerprints with exact rollups for tracked slots and an overflow
/// rollup conserving everything evicted.
#[derive(Debug)]
pub struct MeterAxis {
    /// The tracked keys, apart from their rollups (`costs`, same
    /// order): every update scans the keys, and a scan that drags 64
    /// whole rollups through the cache costs the request path more
    /// than everything else telemetry does.
    keys: Vec<Key>,
    costs: Vec<Rollup>,
    capacity: usize,
    overflow: Rollup,
    evictions: u64,
    updates: u64,
}

impl Default for MeterAxis {
    fn default() -> MeterAxis {
        MeterAxis::new(METER_SLOTS)
    }
}

impl MeterAxis {
    /// An empty axis tracking at most `capacity` keys.
    #[must_use]
    pub fn new(capacity: usize) -> MeterAxis {
        MeterAxis {
            keys: Vec::new(),
            costs: Vec::new(),
            capacity: capacity.max(1),
            overflow: Rollup::default(),
            evictions: 0,
            updates: 0,
        }
    }

    /// Attributes one request's costs to `fp` (0 = "no operand of this
    /// kind", skipped). The SpaceSaving update: tracked keys increment
    /// in place; new keys fill free slots; once full, the minimum
    /// estimate is evicted (its exact rollup folds into the overflow
    /// bucket) and the newcomer inherits `est = min + 1, err = min`.
    pub fn record(&mut self, fp: u64, cost: &Rollup) {
        if fp == 0 {
            return;
        }
        self.updates += 1;
        if let Some(i) = self.keys.iter().position(|k| k.fp == fp) {
            self.keys[i].est += 1;
            self.costs[i].add(cost);
            return;
        }
        if self.keys.len() < self.capacity {
            self.keys.push(Key { fp, est: 1, err: 0 });
            self.costs.push(*cost);
            return;
        }
        let (min_idx, min_est) = self
            .keys
            .iter()
            .enumerate()
            .min_by_key(|(_, k)| k.est)
            .map(|(i, k)| (i, k.est))
            .expect("a full axis has slots");
        self.overflow.add(&self.costs[min_idx]);
        self.evictions += 1;
        self.keys[min_idx] = Key {
            fp,
            est: min_est + 1,
            err: min_est,
        };
        self.costs[min_idx] = *cost;
    }

    /// Number of currently tracked keys (≤ capacity).
    #[must_use]
    pub fn tracked(&self) -> usize {
        self.keys.len()
    }

    /// Keys evicted from the sketch so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Attribution updates recorded (nonzero fingerprints only).
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The smallest tracked estimate — the noise floor every slot's
    /// error bound stays at or below. 0 while the axis has free slots.
    #[must_use]
    pub fn min_est(&self) -> u64 {
        if self.keys.len() < self.capacity {
            return 0;
        }
        self.keys.iter().map(|k| k.est).min().unwrap_or(0)
    }

    /// The overflow rollup: exact costs of every evicted key.
    #[must_use]
    pub fn overflow(&self) -> &Rollup {
        &self.overflow
    }

    /// The tracked slots, in no particular order.
    fn slots(&self) -> impl Iterator<Item = MeterSlot> + '_ {
        self.keys
            .iter()
            .zip(&self.costs)
            .map(|(k, costs)| MeterSlot {
                fp: k.fp,
                est: k.est,
                err: k.err,
                costs: *costs,
            })
    }

    /// A slot by fingerprint, if tracked.
    #[must_use]
    pub fn slot(&self, fp: u64) -> Option<MeterSlot> {
        self.slots().find(|s| s.fp == fp)
    }

    /// The top `k` tracked slots by dimension `dim` (index into
    /// [`METER_DIMS`]; 0 ranks by the op estimate, other dimensions by
    /// their exact rollup value), descending, ties broken by
    /// fingerprint for determinism.
    #[must_use]
    pub fn top(&self, dim: usize, k: usize) -> Vec<MeterSlot> {
        let mut sorted: Vec<MeterSlot> = self.slots().collect();
        sorted.sort_by_key(|s| {
            let v = if dim == 0 { s.est } else { s.costs.0[dim] };
            (std::cmp::Reverse(v), s.fp)
        });
        sorted.truncate(k);
        sorted
    }

    /// The exact rollup summed across tracked slots.
    #[must_use]
    pub fn tracked_costs(&self) -> Rollup {
        let mut sum = Rollup::default();
        for costs in &self.costs {
            sum.add(costs);
        }
        sum
    }
}

/// Per-axis summary for the metric families (`seg_meter_*`).
#[derive(Debug, Clone, Copy, Default)]
pub struct AxisStats {
    /// Currently tracked keys.
    pub tracked: u64,
    /// Keys evicted so far.
    pub evictions: u64,
    /// Ops attributed to evicted keys (the overflow bucket).
    pub overflow_ops: u64,
    /// The sketch's current noise floor (smallest tracked estimate).
    pub min_est: u64,
}

#[derive(Debug, Default)]
struct MeterInner {
    totals: Rollup,
    axes: [MeterAxis; METER_AXES.len()],
}

/// The metering consumer: four bounded attribution axes behind one
/// lock, fed once per closed request. All methods take `&self`; safe to
/// share via `Arc` across session threads.
#[derive(Debug)]
pub struct Meter {
    slow_us: u64,
    inner: Mutex<MeterInner>,
}

impl Meter {
    /// Creates a meter with [`METER_SLOTS`] slots per axis that counts
    /// a request as slow at `slow_us` microseconds (0 = never).
    #[must_use]
    pub fn new(slow_us: u64) -> Meter {
        Meter {
            slow_us,
            inner: Mutex::new(MeterInner::default()),
        }
    }

    /// Requests attributed so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.totals().ops()
    }

    /// Attributes one closed request to its principal, object, group
    /// and path-prefix fingerprints (0 = none: the request still counts
    /// toward the totals).
    pub fn consume(&self, rec: &RequestRecord) {
        let cost = Rollup::of(rec, self.slow_us);
        let mut inner = self.inner.lock().unwrap();
        inner.totals.add(&cost);
        let fps = [rec.principal, rec.object, rec.group, rec.prefix];
        for (axis, fp) in inner.axes.iter_mut().zip(fps) {
            axis.record(fp, &cost);
        }
    }

    /// Grand totals across every attributed request.
    #[must_use]
    pub fn totals(&self) -> Rollup {
        self.inner.lock().unwrap().totals
    }

    /// Per-axis summaries, in [`METER_AXES`] order.
    #[must_use]
    pub fn stats(&self) -> [AxisStats; METER_AXES.len()] {
        let inner = self.inner.lock().unwrap();
        std::array::from_fn(|i| {
            let a = &inner.axes[i];
            AxisStats {
                tracked: a.tracked() as u64,
                evictions: a.evictions(),
                overflow_ops: a.overflow().ops(),
                min_est: a.min_est(),
            }
        })
    }

    /// The top `k` keys of `axis` (a [`METER_AXES`] name) by op
    /// estimate; empty for an unknown axis.
    #[must_use]
    pub fn top(&self, axis: &str, k: usize) -> Vec<MeterSlot> {
        let inner = self.inner.lock().unwrap();
        METER_AXES
            .iter()
            .position(|a| *a == axis)
            .map_or_else(Vec::new, |i| inner.axes[i].top(0, k))
    }

    /// Hand-rolled JSON report: per-axis top-K with estimates, error
    /// bounds, and exact rollups; per-dimension leader boards; and a
    /// fairness summary (tracked vs overflow share per axis).
    #[must_use]
    pub fn report_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = format!(
            "{{\n\"samples\":{},\n\"slots\":{METER_SLOTS},\n\"totals\":",
            inner.totals.ops(),
        );
        inner.totals.push_json(&mut out);
        out.push_str(",\n");
        for (name, axis) in SECTIONS.iter().zip(&inner.axes) {
            out.push_str(&format!(
                "\"{name}\":{{\"tracked\":{},\"evictions\":{},\"min_tracked_ops\":{},\"overflow\":",
                axis.tracked(),
                axis.evictions(),
                axis.min_est(),
            ));
            axis.overflow().push_json(&mut out);
            out.push_str(",\n\"top\":[");
            for (i, s) in axis.top(0, 16).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n{{\"fp\":\"{:016x}\",\"ops_est\":{},\"err\":{},\"costs\":",
                    s.fp, s.est, s.err
                ));
                s.costs.push_json(&mut out);
                out.push('}');
            }
            out.push_str("\n],\n\"top_by\":{");
            for (d, dim) in METER_DIMS.iter().enumerate().skip(1) {
                if d > 1 {
                    out.push(',');
                }
                out.push_str(&format!("\n\"{dim}\":["));
                for (i, s) in axis.top(d, 5).iter().enumerate() {
                    if s.costs.0[d] == 0 {
                        break;
                    }
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"fp\":\"{:016x}\",\"value\":{}}}",
                        s.fp, s.costs.0[d]
                    ));
                }
                out.push(']');
            }
            out.push_str("\n}},\n");
        }
        out.push_str("\"fairness\":{");
        for (i, (name, axis)) in SECTIONS.iter().zip(&inner.axes).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let tracked = axis.tracked_costs().ops();
            let overflow = axis.overflow().ops();
            let total = (tracked + overflow).max(1);
            let top8: u64 = axis.top(0, 8).iter().map(|s| s.costs.ops()).sum();
            out.push_str(&format!(
                "\n\"{name}\":{{\"attributed_ops\":{},\"tracked_share_milli\":{},\
                 \"overflow_share_milli\":{},\"top8_share_milli\":{}}}",
                tracked + overflow,
                tracked * 1000 / total,
                overflow * 1000 / total,
                top8 * 1000 / total,
            ));
        }
        out.push_str("\n}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_cost() -> Rollup {
        let mut r = Rollup::default();
        r.0[0] = 1; // ops
        r.0[4] = 10; // req_bytes
        r
    }

    /// A closed request by `principal` (no other operand).
    fn request(principal: u64) -> RequestRecord {
        RequestRecord::open(1, "get", principal, 0)
    }

    #[test]
    fn tracked_keys_roll_up_exactly() {
        let mut axis = MeterAxis::new(4);
        for _ in 0..5 {
            axis.record(7, &unit_cost());
        }
        let s = axis.slot(7).unwrap();
        assert_eq!((s.est, s.err), (5, 0));
        assert_eq!(s.costs.ops(), 5);
        assert_eq!(s.costs.get("req_bytes"), 50);
        assert_eq!(axis.overflow().ops(), 0);
    }

    #[test]
    fn eviction_inherits_min_and_conserves_costs() {
        let mut axis = MeterAxis::new(2);
        for _ in 0..3 {
            axis.record(1, &unit_cost());
        }
        axis.record(2, &unit_cost());
        // Axis full; key 3 evicts the minimum (key 2, est 1).
        axis.record(3, &unit_cost());
        assert!(axis.slot(2).is_none());
        let s = axis.slot(3).unwrap();
        assert_eq!((s.est, s.err), (2, 1));
        assert_eq!(s.costs.ops(), 1, "rollup is exact since admission");
        assert_eq!(
            axis.overflow().ops(),
            1,
            "evicted rollup folds into overflow"
        );
        assert_eq!(axis.evictions(), 1);
        // Conservation: tracked + overflow == updates.
        assert_eq!(
            axis.tracked_costs().ops() + axis.overflow().ops(),
            axis.updates()
        );
    }

    #[test]
    fn estimates_upper_bound_true_counts() {
        let mut axis = MeterAxis::new(4);
        let mut truth = std::collections::BTreeMap::new();
        // Adversarial rotation: more keys than slots, skewed counts.
        for round in 0..200u64 {
            let fp = 1 + (round % 9);
            let reps = if fp <= 2 { 3 } else { 1 };
            for _ in 0..reps {
                axis.record(fp, &unit_cost());
                *truth.entry(fp).or_insert(0u64) += 1;
            }
        }
        let min = axis.min_est();
        for fp in 1..=9u64 {
            if let Some(s) = axis.slot(fp) {
                let t = truth[&fp];
                assert!(s.est >= t, "estimate {} under-counts true {}", s.est, t);
                assert!(
                    s.est - s.err <= t,
                    "lower bound {} exceeds true {t}",
                    s.est - s.err
                );
                assert!(s.err <= min, "error {} above noise floor {min}", s.err);
            }
        }
        assert_eq!(axis.tracked(), 4, "memory stays at capacity");
        assert_eq!(
            axis.tracked_costs().ops() + axis.overflow().ops(),
            axis.updates()
        );
    }

    #[test]
    fn zero_fingerprints_are_skipped() {
        let mut axis = MeterAxis::new(2);
        axis.record(0, &unit_cost());
        assert_eq!(axis.tracked(), 0);
        assert_eq!(axis.updates(), 0);
        let meter = Meter::new(0);
        meter.consume(&request(0));
        // The request still counts toward samples and grand totals.
        assert_eq!(meter.samples(), 1);
        assert_eq!(meter.totals().ops(), 1);
        assert!(meter.stats().iter().all(|s| s.tracked == 0));
    }

    #[test]
    fn every_axis_conserves_every_dimension() {
        // 3 × METER_SLOTS distinct keys on all four axes, a 100 µs slow
        // threshold, every third request failed, every second one slow:
        // only METER_SLOTS keys materialize per axis, the rest folds
        // into the overflow bucket, and nothing is lost in any
        // dimension — errors, slow and latency included.
        let meter = Meter::new(100);
        let n = (METER_SLOTS * 3) as u64;
        for i in 1..=n {
            let mut rec = RequestRecord::open(i, "put_file", i, i + n);
            rec.group = i + 2 * n;
            rec.prefix = i + 3 * n;
            rec.duration_ns = if i % 2 == 0 { 200_000 } else { 50_000 };
            rec.cost.req_bytes = i;
            rec.cost.store_writes = 2;
            if i % 3 == 0 {
                rec.decision = crate::TraceDecision::Deny;
                rec.code = "denied";
            }
            meter.consume(&rec);
        }
        let totals = meter.totals();
        assert_eq!(
            (totals.ops(), totals.get("errors"), totals.get("slow")),
            (n, n / 3, n / 2)
        );
        assert_eq!(totals.get("latency_ns"), n / 2 * 250_000);
        let inner = meter.inner.lock().unwrap();
        for axis in &inner.axes {
            assert_eq!(axis.tracked(), METER_SLOTS);
            let mut sum = axis.tracked_costs();
            sum.add(axis.overflow());
            assert_eq!(sum, totals, "tracked + overflow = totals");
        }
        // One principal's view: two requests, one failed and slow.
        drop(inner);
        let meter = Meter::new(100);
        let mut rec = request(7);
        rec.object = 9;
        rec.duration_ns = 50_000;
        meter.consume(&rec);
        rec.duration_ns = 200_000;
        rec.decision = crate::TraceDecision::Error;
        meter.consume(&rec);
        let p = meter.top("principal", 1)[0].costs;
        assert_eq!(
            (p.ops(), p.get("errors"), p.get("slow"), p.get("latency_ns")),
            (2, 1, 1, 250_000)
        );
        assert_eq!(meter.top("object", 1)[0].costs.ops(), 2);
    }

    #[test]
    fn zipf_workload_recovers_true_top_ten() {
        // Zipf(1.0) over 1,000 principals, 64 slots: the sketch must
        // recover at least 9 of the true top-10 by op count — the
        // tentpole's acceptance bar, at the sketch level.
        let n = 1_000usize;
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        // Deterministic xorshift so the test cannot flake.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let meter = Meter::new(0);
        let mut truth = vec![0u64; n + 1];
        for _ in 0..60_000 {
            let u = next();
            let rank = cdf.partition_point(|&c| c < u) + 1;
            let fp = rank as u64; // rank doubles as fingerprint
            truth[rank.min(n)] += 1;
            meter.consume(&request(fp));
        }
        let mut by_truth: Vec<usize> = (1..=n).collect();
        by_truth.sort_by_key(|&r| std::cmp::Reverse(truth[r]));
        let true_top: Vec<u64> = by_truth[..10].iter().map(|&r| r as u64).collect();
        let reported: Vec<u64> = meter.top("principal", 10).iter().map(|s| s.fp).collect();
        let recalled = true_top.iter().filter(|fp| reported.contains(fp)).count();
        assert!(
            recalled >= 9,
            "recovered {recalled}/10 true heavy hitters: {reported:?} vs {true_top:?}"
        );
        // The heavy hitters' estimates are near-exact under this skew.
        let inner = meter.inner.lock().unwrap();
        for &fp in &true_top[..3] {
            let s = inner.axes[0].slot(fp).unwrap();
            assert!(s.est - s.err <= truth[fp as usize] && truth[fp as usize] <= s.est);
        }
    }

    #[test]
    fn report_json_is_balanced_and_fingerprints_are_hex() {
        let meter = Meter::new(0);
        for i in 1..=100u64 {
            let mut rec = RequestRecord::open(i, "get", i, i % 11);
            rec.group = i % 7;
            rec.prefix = i % 3;
            rec.cost.req_bytes = i;
            meter.consume(&rec);
        }
        let json = meter.report_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        for section in [
            "\"samples\":100",
            "\"totals\"",
            "\"principals\"",
            "\"objects\"",
            "\"groups\"",
            "\"prefixes\"",
            "\"top_by\"",
            "\"fairness\"",
            "\"overflow\"",
            "\"min_tracked_ops\"",
        ] {
            assert!(json.contains(section), "missing {section} in {json}");
        }
        assert!(json.contains("\"0000000000000001\""), "{json}");
        assert!(!json.contains('/'), "no path separators in a report");
        assert!(!json.contains('@'), "no email-like tokens in a report");
    }

    #[test]
    fn empty_report_encodes_cleanly() {
        let json = Meter::new(0).report_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"samples\":0"), "{json}");
    }

    #[test]
    fn fairness_shares_sum_to_whole() {
        let meter = Meter::new(0);
        for i in 1..=300u64 {
            meter.consume(&request(i));
        }
        let json = meter.report_json();
        // 300 distinct principals over 64 slots: both buckets nonzero.
        let stats = meter.stats()[0];
        assert_eq!(stats.tracked, METER_SLOTS as u64);
        assert!(stats.evictions > 0);
        assert!(json.contains("\"tracked_share_milli\""), "{json}");
        assert!(json.contains("\"overflow_share_milli\""), "{json}");
    }
}
