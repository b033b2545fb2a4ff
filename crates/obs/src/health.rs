//! The history module: one clock over flight frames, multi-resolution
//! headline retention, SLO burn-rate evaluation, and the rate-limited
//! alert ring.
//!
//! [`HealthMonitor`] is the telemetry consumers' only notion of time.
//! Its tick — claimed by whichever request completion or background
//! runner gets there first ([`HealthMonitor::tick_if_due`]) — takes the
//! one metrics [`Snapshot`] of the interval from its caller and records
//! a flight frame from it ([`crate::flight`], ~16 s of windowed
//! history). On each
//! second boundary the same tick rolls the **headline** (requests,
//! errors, latency digest) into a ring-of-rings — 1 s slots for 10
//! minutes, 1 min slots for 2 hours, 1 h slots for 2 days, fixed-size
//! summaries only — and evaluates the **SLO engine**: declarative
//! objectives (availability, or latency-under-threshold) under the
//! standard multi-window multi-burn-rate rule, where an alert fires
//! only when both a fast window (default 5 min) and a slow window
//! (default 1 h) burn error budget faster than the configured
//! multiple. Alerts land in a bounded, per-source rate-limited
//! [`AlertRing`] that `segshare`'s host also raises scrub findings and
//! canary failure runs into.
//!
//! Headline and objectives are counted from [`RequestRecord`]s
//! ([`HealthMonitor::consume`], a handful of relaxed atomic adds), not
//! re-derived from metric names in a snapshot.
//!
//! # Trust boundary
//!
//! Runs on the untrusted host. Everything retained here comes from
//! snapshots (compiled-in names, charset-checked label values), from
//! records (see [`crate::record`]) and from fingerprints the enclave
//! already handed out. No request content can enter.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::flight::{FlightRecorder, FLIGHT_CAPACITY, FLIGHT_INTERVAL_US};
use crate::hist;
use crate::{Histogram, HistogramSummary, RequestRecord, Snapshot};

/// Per-level retention: (slot length in µs, slots kept).
const LEVELS: [(u64, usize); 3] = [
    (1_000_000, 600),    // 1 s × 600 → 10 minutes
    (60_000_000, 120),   // 1 min × 120 → 2 hours
    (3_600_000_000, 48), // 1 h × 48 → 2 days
];

/// Microseconds between two headline rolls (each with an SLO
/// evaluation); the burn windows are sized in these samples.
const SAMPLE_INTERVAL_US: u64 = 1_000_000;

/// Alerts retained in the ring.
const ALERT_CAP: usize = 64;

/// A declarative service-level objective over all operations.
#[derive(Debug, Clone, Copy)]
pub struct SloObjective {
    /// Compiled-in objective name (appears in alerts and exports).
    pub name: &'static str,
    /// Target good-fraction in parts per million (e.g. `999_000` for
    /// 99.9 %). The error budget is `1 - target`.
    pub target_ppm: u64,
    /// `None`: an availability objective (bad = request errors).
    /// `Some(t)`: a latency objective — a request is bad when its
    /// latency exceeds `t` nanoseconds.
    pub latency_threshold_ns: Option<u64>,
}

/// The multi-window burn-rate rule shared by all objectives.
#[derive(Debug, Clone, Copy)]
pub struct BurnRule {
    /// Fast window length in seconds (default 300).
    pub fast_secs: u64,
    /// Slow window length in seconds (default 3600).
    pub slow_secs: u64,
    /// Minimum burn rate ×1000 that must hold in *both* windows
    /// (default 14_400 = 14.4×, the classic page-worthy threshold).
    pub burn_threshold_milli: u64,
    /// Minimum bad events in the fast window (shields near-zero-traffic
    /// windows from division noise).
    pub min_bad_fast: u64,
}

impl Default for BurnRule {
    fn default() -> BurnRule {
        BurnRule {
            fast_secs: 300,
            slow_secs: 3600,
            burn_threshold_milli: 14_400,
            min_bad_fast: 5,
        }
    }
}

/// Configuration for a [`HealthMonitor`].
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// The SLO objectives to evaluate each sample.
    pub objectives: Vec<SloObjective>,
    /// The burn-rate rule applied to every objective.
    pub burn: BurnRule,
    /// Minimum microseconds between two alerts of the same
    /// (kind, source) pair (default 60 s).
    pub alert_min_interval_us: u64,
}

impl HealthConfig {
    /// The standard objectives — 99.9 % availability, and 95 % of
    /// requests within `latency_threshold_ns` — under the default burn
    /// rule.
    #[must_use]
    pub fn with_latency_threshold(latency_threshold_ns: u64) -> HealthConfig {
        HealthConfig {
            objectives: vec![
                SloObjective {
                    name: "availability",
                    target_ppm: 999_000,
                    latency_threshold_ns: None,
                },
                SloObjective {
                    name: "latency_p95",
                    target_ppm: 950_000,
                    latency_threshold_ns: Some(latency_threshold_ns),
                },
            ],
            burn: BurnRule::default(),
            alert_min_interval_us: 60_000_000,
        }
    }
}

impl Default for HealthConfig {
    /// [`HealthConfig::with_latency_threshold`] at 100 ms.
    fn default() -> HealthConfig {
        HealthConfig::with_latency_threshold(100_000_000)
    }
}

/// One alert raised into the [`AlertRing`]. Carries compiled-in kind
/// and source names, a keyed fingerprint (0 for none), and two
/// numbers — no request content can be represented.
#[derive(Debug, Clone, Copy)]
pub struct Alert {
    /// Monotonic sequence number (1-based, across the monitor's life).
    pub seq: u64,
    /// Raise time, microseconds since the monitor's epoch.
    pub at_us: u64,
    /// Alert class, e.g. `slo_burn`, `scrub_integrity`, `canary`.
    pub kind: &'static str,
    /// Alert source: objective name or scrubber check name.
    pub source: &'static str,
    /// Keyed fingerprint of the affected object/principal (0 if none).
    pub fingerprint: u64,
    /// Observed value (burn rate ×1000, findings count, latency µs...).
    pub value: u64,
    /// The limit the value violated.
    pub limit: u64,
}

/// Bounded, per-(kind, source) rate-limited alert ring.
#[derive(Debug)]
pub struct AlertRing {
    inner: Mutex<AlertInner>,
    total: AtomicU64,
    suppressed: AtomicU64,
    min_interval_us: u64,
}

#[derive(Debug, Default)]
struct AlertInner {
    ring: VecDeque<Alert>,
    /// Last raise time per (kind, source); both are compiled-in strings
    /// so the table is bounded by the set of alert sites.
    last: Vec<((&'static str, &'static str), u64)>,
    next_seq: u64,
}

impl AlertRing {
    fn new(min_interval_us: u64) -> AlertRing {
        AlertRing {
            inner: Mutex::new(AlertInner::default()),
            total: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            min_interval_us,
        }
    }

    /// Raises an alert at `now_us`, unless the same (kind, source) pair
    /// fired within the rate-limit interval. Returns whether it landed.
    pub fn raise(
        &self,
        now_us: u64,
        kind: &'static str,
        source: &'static str,
        fingerprint: u64,
        value: u64,
        limit: u64,
    ) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let key = (kind, source);
        if let Some((_, last)) = inner.last.iter().find(|(k, _)| *k == key) {
            if now_us.saturating_sub(*last) < self.min_interval_us {
                drop(inner);
                self.suppressed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        match inner.last.iter_mut().find(|(k, _)| *k == key) {
            Some((_, last)) => *last = now_us,
            None => inner.last.push((key, now_us)),
        }
        inner.next_seq += 1;
        let seq = inner.next_seq;
        inner.ring.push_back(Alert {
            seq,
            at_us: now_us,
            kind,
            source,
            fingerprint,
            value,
            limit,
        });
        while inner.ring.len() > ALERT_CAP {
            inner.ring.pop_front();
        }
        drop(inner);
        self.total.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Alerts raised over the ring's lifetime (landed, not suppressed).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Alerts dropped by the per-source rate limit.
    #[must_use]
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }

    /// Copies out up to `n` of the newest alerts, oldest first.
    #[must_use]
    pub fn tail(&self, n: usize) -> Vec<Alert> {
        let inner = self.inner.lock().unwrap();
        let skip = inner.ring.len().saturating_sub(n);
        inner.ring.iter().skip(skip).copied().collect()
    }

    /// Hand-rolled JSON array of the newest `n` alerts. Fingerprints
    /// render as fixed-width hex, matching the trace exports.
    #[must_use]
    pub fn to_json(&self, n: usize) -> String {
        let mut out = String::from("[");
        for (i, a) in self.tail(n).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"at_us\":{},\"kind\":\"{}\",\"source\":\"{}\",\
                 \"fingerprint\":\"{:016x}\",\"value\":{},\"limit\":{}}}",
                a.seq, a.at_us, a.kind, a.source, a.fingerprint, a.value, a.limit
            ));
        }
        out.push(']');
        out
    }
}

/// Fixed-size digest of one closed headline slot.
#[derive(Debug, Clone)]
struct Slot {
    seq: u64,
    at_us: u64,
    requests: u64,
    errors: u64,
    latency: HistogramSummary,
}

#[derive(Debug)]
struct Level {
    slot_us: u64,
    capacity: usize,
    next_seq: u64,
    /// The counts when the open slot began.
    opened: Counts,
    slots: VecDeque<Slot>,
}

/// Per-objective burn-rate evaluation state.
#[derive(Debug, Default)]
struct SloState {
    /// One (total, bad) pair per sample; capped at the slow window.
    window: VecDeque<(u64, u64)>,
    firing: bool,
    /// Latest burn rates ×1000 (fast, slow), for export.
    burn_fast_milli: u64,
    burn_slow_milli: u64,
}

/// What [`HealthMonitor::consume`] has counted since the monitor was
/// created. Cumulative and lock-free; the tick differences it against
/// the copy it kept from the previous roll.
#[derive(Debug, Default)]
struct Counted {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
    /// Bad events per objective (every request counts toward its total).
    bad: Vec<AtomicU64>,
}

/// [`Counted`] read at one instant. A missing vector entry reads 0,
/// so the default is the monitor's creation.
#[derive(Debug, Clone, Default)]
struct Counts {
    at_us: u64,
    requests: u64,
    errors: u64,
    lat_counts: Vec<u64>,
    lat_sum: u64,
    bad: Vec<u64>,
}

/// `now − earlier`, element-wise.
fn since<'a>(now: &'a [u64], earlier: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
    now.iter()
        .zip(earlier.iter().chain(std::iter::repeat(&0)))
        .map(|(n, e)| n - e)
}

#[derive(Debug)]
struct MonitorInner {
    flight: FlightRecorder,
    /// The counts at the last roll.
    rolled: Counts,
    levels: Vec<Level>,
    slo: Vec<SloState>,
}

/// The history clock and everything that advances on it: flight
/// frames, headline levels, SLO burn-rate states, and the alert ring.
///
/// One instance per server. [`HealthMonitor::consume`] and
/// [`HealthMonitor::tick_if_due`] are safe to call from every request
/// completion (relaxed atomics; a time check when no tick is due) and
/// from a background runner.
#[derive(Debug)]
pub struct HealthMonitor {
    config: HealthConfig,
    counted: Counted,
    inner: Mutex<MonitorInner>,
    alerts: AlertRing,
    last_tick_us: AtomicU64,
    samples: AtomicU64,
    active_alerts: AtomicU64,
    epoch: Instant,
}

impl HealthMonitor {
    /// Creates a monitor with the given configuration.
    #[must_use]
    pub fn new(config: HealthConfig) -> HealthMonitor {
        let levels = LEVELS
            .iter()
            .map(|&(slot_us, capacity)| Level {
                slot_us,
                capacity,
                next_seq: 0,
                opened: Counts::default(),
                slots: VecDeque::new(),
            })
            .collect();
        let objectives = config.objectives.len();
        HealthMonitor {
            alerts: AlertRing::new(config.alert_min_interval_us),
            counted: Counted {
                bad: (0..objectives).map(|_| AtomicU64::new(0)).collect(),
                ..Counted::default()
            },
            inner: Mutex::new(MonitorInner {
                flight: FlightRecorder::new(FLIGHT_CAPACITY),
                rolled: Counts::default(),
                levels,
                slo: (0..objectives).map(|_| SloState::default()).collect(),
            }),
            config,
            last_tick_us: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            active_alerts: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Microseconds since this monitor's epoch (≥ 1): the history
    /// clock.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.epoch
            .elapsed()
            .as_micros()
            .min(u64::MAX as u128)
            .max(1) as u64
    }

    /// The alert ring (scrubber and canary findings are raised here
    /// alongside SLO burn alerts).
    #[must_use]
    pub fn alerts(&self) -> &AlertRing {
        &self.alerts
    }

    /// Flight frames recorded so far (including evicted ones).
    #[must_use]
    pub fn frames_total(&self) -> u64 {
        self.inner.lock().unwrap().flight.frames_total()
    }

    /// Headline rolls (each with an SLO evaluation) so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Objectives currently in the firing state.
    #[must_use]
    pub fn active_alerts(&self) -> u64 {
        self.active_alerts.load(Ordering::Relaxed)
    }

    /// `(requests, errors)` counted from records so far.
    #[must_use]
    pub fn headline(&self) -> (u64, u64) {
        (
            self.counted.requests.load(Ordering::Relaxed),
            self.counted.errors.load(Ordering::Relaxed),
        )
    }

    /// Closed slots currently retained across all levels.
    #[must_use]
    pub fn rollup_slots(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.levels.iter().map(|l| l.slots.len() as u64).sum()
    }

    /// Counts one closed request toward the headline and toward every
    /// objective: a failed request is bad for an availability
    /// objective, one over the threshold for a latency objective.
    pub fn consume(&self, rec: &RequestRecord) {
        let c = &self.counted;
        c.requests.fetch_add(1, Ordering::Relaxed);
        if !rec.ok() {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        c.latency.record(rec.duration_ns);
        for (obj, bad) in self.config.objectives.iter().zip(&c.bad) {
            let is_bad = match obj.latency_threshold_ns {
                None => !rec.ok(),
                Some(threshold) => rec.duration_ns > threshold,
            };
            if is_bad {
                bad.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Ticks if a frame interval elapsed since the last tick, taking
    /// the interval's snapshot from `snapshot` only then. Exactly one
    /// caller wins per interval (compare-and-swap claim); losers return
    /// after one atomic load. Returns whether this call ticked.
    pub fn tick_if_due(&self, snapshot: impl FnOnce() -> Snapshot) -> bool {
        let now = self.now_us();
        let last = self.last_tick_us.load(Ordering::Relaxed);
        // `last == 0` means never ticked: the first call always wins,
        // so the first (cumulative) frame is taken promptly.
        if last != 0 && now.saturating_sub(last) < FLIGHT_INTERVAL_US {
            return false;
        }
        if self
            .last_tick_us
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        self.tick(snapshot(), now);
        true
    }

    /// Ticks unconditionally at an explicit time on the history clock:
    /// report assembly (so a bundle always holds the latest window),
    /// and tests driving virtual time through slot boundaries.
    pub fn tick_at(&self, snap: Snapshot, now_us: u64) {
        self.last_tick_us.store(now_us.max(1), Ordering::Relaxed);
        self.tick(snap, now_us.max(1));
    }

    /// One tick: the interval's one snapshot becomes a flight frame; on
    /// a sample boundary the headline rolls and the SLO rules are
    /// evaluated.
    fn tick(&self, snap: Snapshot, now_us: u64) {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.flight.record(now_us, snap);
        if now_us.saturating_sub(inner.rolled.at_us) < SAMPLE_INTERVAL_US {
            return;
        }
        let c = &self.counted;
        let now = Counts {
            at_us: now_us,
            requests: c.requests.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            lat_counts: c.latency.bucket_counts(),
            lat_sum: c.latency.sum(),
            bad: c.bad.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        };
        for level in &mut inner.levels {
            if now_us.saturating_sub(level.opened.at_us) < level.slot_us {
                continue;
            }
            let opened = std::mem::replace(&mut level.opened, now.clone());
            let window: Vec<u64> = since(&now.lat_counts, &opened.lat_counts).collect();
            level.next_seq += 1;
            if level.slots.len() == level.capacity {
                level.slots.pop_front();
            }
            level.slots.push_back(Slot {
                seq: level.next_seq,
                at_us: now_us,
                requests: now.requests - opened.requests,
                errors: now.errors - opened.errors,
                latency: hist::summarize_window(&window, now.lat_sum - opened.lat_sum),
            });
        }
        let before = std::mem::replace(&mut inner.rolled, now);
        let now = &inner.rolled;
        let bad = since(&now.bad, &before.bad);
        self.evaluate_slo(&mut inner.slo, now.requests - before.requests, bad, now_us);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    fn evaluate_slo(
        &self,
        slo: &mut [SloState],
        total: u64,
        bad: impl Iterator<Item = u64>,
        now_us: u64,
    ) {
        // One sample per second, so a window of N seconds is N samples.
        let fast_n = (self.config.burn.fast_secs as usize).max(1);
        let slow_n = (self.config.burn.slow_secs as usize).max(1);
        let mut firing_now = 0u64;
        for ((obj, state), bad) in self.config.objectives.iter().zip(slo).zip(bad) {
            state.window.push_back((total, bad));
            while state.window.len() > slow_n {
                state.window.pop_front();
            }
            let budget = (1_000_000u64.saturating_sub(obj.target_ppm)) as f64 / 1e6;
            let sum = |n: usize| -> (u64, u64) {
                state
                    .window
                    .iter()
                    .rev()
                    .take(n)
                    .fold((0, 0), |(t, b), &(wt, wb)| (t + wt, b + wb))
            };
            let burn = |t: u64, b: u64| -> f64 {
                if t == 0 || budget <= 0.0 {
                    0.0
                } else {
                    (b as f64 / t as f64) / budget
                }
            };
            let (t_fast, b_fast) = sum(fast_n);
            let (t_slow, b_slow) = sum(slow_n);
            let burn_fast = burn(t_fast, b_fast);
            let burn_slow = burn(t_slow, b_slow);
            state.burn_fast_milli = (burn_fast * 1000.0).min(u64::MAX as f64) as u64;
            state.burn_slow_milli = (burn_slow * 1000.0).min(u64::MAX as f64) as u64;
            let threshold = self.config.burn.burn_threshold_milli as f64 / 1000.0;
            let firing = burn_fast >= threshold
                && burn_slow >= threshold
                && b_fast >= self.config.burn.min_bad_fast;
            if firing {
                firing_now += 1;
                // Raise on entry and on rate-limited repeats.
                self.alerts.raise(
                    now_us,
                    "slo_burn",
                    obj.name,
                    0,
                    state.burn_fast_milli,
                    self.config.burn.burn_threshold_milli,
                );
            }
            state.firing = firing;
        }
        self.active_alerts.store(firing_now, Ordering::Relaxed);
    }

    /// The retained flight frames as JSON (see
    /// [`FlightRecorder::dump_json`]).
    #[must_use]
    pub fn flight_json(&self) -> String {
        self.inner.lock().unwrap().flight.dump_json()
    }

    /// The retained history as JSON: what records counted in total,
    /// then per level every closed slot's headline (requests, errors,
    /// latency digest). Bounded by the level capacities — ~770 rows at
    /// full retention.
    #[must_use]
    pub fn history_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let (requests, errors) = self.headline();
        let mut out = format!("{{\"requests\":{requests},\"errors\":{errors},\"levels\":[");
        for (li, level) in inner.levels.iter().enumerate() {
            if li > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"slot_s\":{},\"capacity\":{},\"slots\":[",
                level.slot_us / 1_000_000,
                level.capacity
            ));
            for (i, s) in level.slots.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"seq\":{},\"at_us\":{},\"requests\":{},\"errors\":{},\
                     \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
                    s.seq,
                    s.at_us,
                    s.requests,
                    s.errors,
                    s.latency.p50,
                    s.latency.p95,
                    s.latency.p99
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// The SLO engine's state as JSON: per objective, the window burn
    /// rates and firing flag.
    #[must_use]
    pub fn slo_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::from("[");
        for (i, (obj, state)) in self.config.objectives.iter().zip(&inner.slo).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"target_ppm\":{},\
                 \"latency_threshold_ns\":{},\"burn_fast_milli\":{},\
                 \"burn_slow_milli\":{},\"firing\":{}}}",
                obj.name,
                obj.target_ppm,
                obj.latency_threshold_ns.unwrap_or(0),
                state.burn_fast_milli,
                state.burn_slow_milli,
                state.firing
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Advances virtual time by 1 s per call (for `tick_at`).
    struct Clock(u64);

    impl Clock {
        fn tick(&mut self) -> u64 {
            self.0 += 1_000_000;
            self.0
        }
    }

    fn quick_config() -> HealthConfig {
        HealthConfig {
            objectives: vec![
                SloObjective {
                    name: "availability",
                    target_ppm: 999_000,
                    latency_threshold_ns: None,
                },
                SloObjective {
                    name: "latency",
                    target_ppm: 950_000,
                    latency_threshold_ns: Some(1_000_000),
                },
            ],
            burn: BurnRule {
                fast_secs: 1,
                slow_secs: 2,
                burn_threshold_milli: 10_000,
                min_bad_fast: 1,
            },
            alert_min_interval_us: 0,
        }
    }

    /// Feeds `n` closed requests of one outcome and latency.
    fn feed(m: &HealthMonitor, n: usize, ok: bool, duration_ns: u64) {
        let mut rec = RequestRecord::open(1, "get", 7, 9);
        rec.duration_ns = duration_ns;
        if !ok {
            rec.decision = crate::Decision::Error;
            rec.code = "integrity";
        }
        for _ in 0..n {
            m.consume(&rec);
        }
    }

    #[test]
    fn rollups_fill_and_stay_bounded() {
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        // 700 one-second samples: the 1 s level must cap at 600.
        for _ in 0..700 {
            feed(&m, 1, true, 5_000);
            m.tick_at(Snapshot::default(), clock.tick());
        }
        assert_eq!(m.samples(), 700);
        assert_eq!(m.frames_total(), 700, "every tick is a flight frame");
        let slots = m.rollup_slots();
        assert!(slots >= 600, "the finest level filled, got {slots}");
        assert!(slots <= 600 + 120 + 48, "retention bounded, got {slots}");
        let json = m.history_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"slot_s\":1"), "{json}");
        assert!(json.contains("\"requests\":1"), "{json}");
    }

    #[test]
    fn headline_counts_requests_and_errors() {
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        m.tick_at(Snapshot::default(), clock.tick());
        feed(&m, 7, true, 5_000);
        feed(&m, 3, false, 5_000);
        m.tick_at(Snapshot::default(), clock.tick());
        assert_eq!(m.headline(), (10, 3));
        let json = m.history_json();
        assert!(
            json.contains("\"requests\":10,\"errors\":3,\"p50_ns\""),
            "the closed slot holds the window: {json}"
        );
    }

    #[test]
    fn availability_burn_fires_and_clears() {
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        m.tick_at(Snapshot::default(), clock.tick());
        // 50% errors against a 0.1% budget: burn 500× in both windows.
        for _ in 0..3 {
            feed(&m, 5, true, 5_000);
            feed(&m, 5, false, 5_000);
            m.tick_at(Snapshot::default(), clock.tick());
        }
        assert!(m.active_alerts() >= 1, "burn alert fires");
        assert!(m.alerts().total() >= 1);
        let alert = m.alerts().tail(8)[0];
        assert_eq!(alert.kind, "slo_burn");
        assert_eq!(alert.source, "availability");
        // Healthy traffic flushes the (2-sample) slow window: clears.
        for _ in 0..4 {
            feed(&m, 10, true, 5_000);
            m.tick_at(Snapshot::default(), clock.tick());
        }
        assert_eq!(m.active_alerts(), 0, "burn clears after recovery");
    }

    #[test]
    fn latency_objective_counts_threshold_exceeds() {
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        m.tick_at(Snapshot::default(), clock.tick());
        // Sustained slow traffic: both windows must see threshold
        // exceeds (an idle fast window correctly clears the alert).
        for _ in 0..2 {
            feed(&m, 10, true, 50_000_000); // 50 ms >> 1 ms threshold
            m.tick_at(Snapshot::default(), clock.tick());
        }
        assert!(
            m.active_alerts() >= 1,
            "latency burn fires: {}",
            m.slo_json()
        );
        let json = m.slo_json();
        assert!(json.contains("\"name\":\"latency\""), "{json}");
        assert!(json.contains("\"firing\":true"), "{json}");
        assert!(
            json.contains("\"name\":\"availability\",\"target_ppm\":999000,\"latency_threshold_ns\":0,\"burn_fast_milli\":0"),
            "slow is not failed: {json}"
        );
    }

    #[test]
    fn quiet_registry_raises_nothing() {
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        for _ in 0..20 {
            m.tick_at(Snapshot::default(), clock.tick());
        }
        assert_eq!(m.active_alerts(), 0);
        assert_eq!(m.alerts().total(), 0);
    }

    #[test]
    fn alert_ring_rate_limits_per_source() {
        let ring = AlertRing::new(1_000_000);
        assert!(ring.raise(1, "scrub_integrity", "tree", 7, 1, 0));
        assert!(
            !ring.raise(2, "scrub_integrity", "tree", 7, 2, 0),
            "same source within the interval is suppressed"
        );
        assert!(
            ring.raise(3, "scrub_integrity", "audit", 7, 1, 0),
            "different source is independent"
        );
        assert!(ring.raise(1_000_002, "scrub_integrity", "tree", 7, 3, 0));
        assert_eq!(ring.total(), 3);
        assert_eq!(ring.suppressed(), 1);
        let json = ring.to_json(8);
        assert!(
            json.contains("\"fingerprint\":\"0000000000000007\""),
            "{json}"
        );
        assert!(!json.contains('/'), "no path-like content: {json}");
        assert!(!json.contains('@'), "no email-like content: {json}");
    }

    #[test]
    fn alert_ring_is_bounded() {
        let ring = AlertRing::new(0);
        for i in 0..200 {
            ring.raise(i, "canary", "probe", 0, i, 0);
        }
        assert_eq!(ring.total(), 200);
        assert_eq!(ring.tail(1000).len(), ALERT_CAP);
        // Oldest retained is the 136th raise (200 - 64).
        assert_eq!(ring.tail(1000)[0].seq, 137);
    }

    #[test]
    fn sample_if_due_claims_once_per_interval() {
        // Four frames a second, one headline sample: the roll waits for
        // the second boundary of the one clock.
        let m = HealthMonitor::new(quick_config());
        for quarter in 1..=8u64 {
            m.tick_at(Snapshot::default(), quarter * FLIGHT_INTERVAL_US);
        }
        assert_eq!(m.frames_total(), 8);
        assert_eq!(m.samples(), 2);
    }
}
