//! The health verdict: what the scrubber's reports and the canary add
//! up to.
//!
//! The scrubber's [`ScrubReport`]s are folded into per-check counters
//! and a bounded ring of the newest findings, as fingerprints; the
//! canary prober's outcomes are counted. Both fold into one
//! `healthy/degraded/failing` state machine. The host may compute the
//! verdict because the host is who displays it: every input is
//! something the enclave already handed out, and an operator reading a
//! lying host's dashboard learns nothing a lying host could not have
//! made up anyway. Request errors and latency are not inputs: the
//! scraper of `/metrics` keeps their history and evaluates the burn-rate
//! rules in OPERATIONS.md.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::config::EnclaveConfig;
use crate::enclave::health::{ScrubCheck, ScrubReport};

/// Consecutive canary failures before the canary degrades the state.
const CANARY_FAIL_LIMIT: u64 = 3;

/// Scrub findings kept for the report.
const FINDINGS_CAPACITY: usize = 32;

/// Health-plane state, one per server. Counters are plain atomics,
/// read lock-free by the metrics export.
pub struct HealthState {
    epoch: Instant,
    scrub_interval_us: u64,
    counted: Counted,
    /// The newest findings, oldest first, as `(check, fingerprint,
    /// at_us)`: what the report's `findings` shows.
    recent: Mutex<VecDeque<(ScrubCheck, u64, u64)>>,
}

#[derive(Default)]
struct Counted {
    scrub_passes: AtomicU64,
    scrub_last_pass_us: AtomicU64,
    last_scrub_us: AtomicU64,
    items: [AtomicU64; 4],
    findings: [AtomicU64; 4],
    canary_probes: AtomicU64,
    canary_failures: AtomicU64,
    canary_consecutive: AtomicU64,
    canary_last_latency_us: AtomicU64,
}

impl HealthState {
    /// Builds the health state for one server.
    #[must_use]
    pub fn new(config: &EnclaveConfig) -> HealthState {
        HealthState {
            epoch: Instant::now(),
            scrub_interval_us: config.scrub_interval_us,
            counted: Counted::default(),
            recent: Mutex::new(VecDeque::with_capacity(FINDINGS_CAPACITY)),
        }
    }

    /// Microseconds since this state was created (≥ 1): the clock of
    /// the scrub cadence, the canary interval and finding stamps.
    pub(crate) fn now_us(&self) -> u64 {
        self.epoch
            .elapsed()
            .as_micros()
            .clamp(1, u128::from(u64::MAX)) as u64
    }

    /// Completed scrub passes.
    #[must_use]
    pub fn scrub_passes(&self) -> u64 {
        self.counted.scrub_passes.load(Ordering::Relaxed)
    }

    /// Objects examined by `check` over the scrubber's lifetime.
    #[must_use]
    pub fn items(&self, check: ScrubCheck) -> u64 {
        self.counted.items[check.index()].load(Ordering::Relaxed)
    }

    /// Integrity findings from `check` over the scrubber's lifetime.
    #[must_use]
    pub fn findings(&self, check: ScrubCheck) -> u64 {
        self.counted.findings[check.index()].load(Ordering::Relaxed)
    }

    /// Total findings across all checks.
    #[must_use]
    pub fn findings_total(&self) -> u64 {
        ScrubCheck::ALL.iter().map(|c| self.findings(*c)).sum()
    }

    /// Canary probes issued.
    #[must_use]
    pub fn canary_probes(&self) -> u64 {
        self.counted.canary_probes.load(Ordering::Relaxed)
    }

    /// Canary probes that failed.
    #[must_use]
    pub fn canary_failures(&self) -> u64 {
        self.counted.canary_failures.load(Ordering::Relaxed)
    }

    /// Latency (µs) of the last successful canary probe.
    #[must_use]
    pub fn canary_last_latency_us(&self) -> u64 {
        self.counted.canary_last_latency_us.load(Ordering::Relaxed)
    }

    /// Records one canary probe outcome. A run of three consecutive
    /// failures degrades the health state until a probe succeeds again.
    pub fn canary_result(&self, ok: bool, latency_us: u64) {
        let c = &self.counted;
        c.canary_probes.fetch_add(1, Ordering::Relaxed);
        if ok {
            c.canary_consecutive.store(0, Ordering::Relaxed);
            c.canary_last_latency_us
                .store(latency_us, Ordering::Relaxed);
        } else {
            c.canary_failures.fetch_add(1, Ordering::Relaxed);
            c.canary_consecutive.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The state machine: `2` (failing) while any integrity finding is
    /// latched — corruption never heals by itself, so neither does this
    /// state; `1` (degraded) while the canary is in a failure run; `0`
    /// (healthy) otherwise.
    #[must_use]
    pub fn state_code(&self) -> u64 {
        if self.findings_total() > 0 {
            2
        } else if self.counted.canary_consecutive.load(Ordering::Relaxed) >= CANARY_FAIL_LIMIT {
            1
        } else {
            0
        }
    }

    /// The state as a compiled-in label.
    #[must_use]
    pub fn state_label(&self) -> &'static str {
        match self.state_code() {
            0 => "healthy",
            1 => "degraded",
            _ => "failing",
        }
    }

    /// Claims one scrub-cadence slot: true at most once per
    /// `scrub_interval_us` (CAS, first call always wins). An interval
    /// of 0 never claims — the scrubber is disabled.
    pub(super) fn scrub_due(&self) -> bool {
        if self.scrub_interval_us == 0 {
            return false;
        }
        let now_us = self.now_us();
        let last = self.counted.last_scrub_us.load(Ordering::Relaxed);
        if last != 0 && now_us.saturating_sub(last) < self.scrub_interval_us {
            return false;
        }
        self.counted
            .last_scrub_us
            .compare_exchange(last, now_us, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Folds one scrub step's report in: per-check item and finding
    /// counters, each finding into the ring (each latches `failing`),
    /// and the pass count.
    pub(super) fn fold(&self, report: &ScrubReport) {
        for (total, n) in self.counted.items.iter().zip(report.items) {
            total.fetch_add(n, Ordering::Relaxed);
        }
        let at_us = self.now_us();
        let mut recent = self
            .recent
            .lock()
            .expect("the ring is never left half-updated");
        for &(check, fingerprint) in &report.findings {
            self.counted.findings[check.index()].fetch_add(1, Ordering::Relaxed);
            if recent.len() == FINDINGS_CAPACITY {
                recent.pop_front();
            }
            recent.push_back((check, fingerprint, at_us));
        }
        drop(recent);
        if report.pass_completed {
            self.counted.scrub_passes.fetch_add(1, Ordering::Relaxed);
            self.counted
                .scrub_last_pass_us
                .store(at_us, Ordering::Relaxed);
        }
    }

    /// The `health` section of the report: the verdict, scrubber and
    /// canary counters, and the newest findings.
    pub(super) fn to_json(&self) -> String {
        let c = &self.counted;
        let checks: String = ScrubCheck::ALL
            .iter()
            .map(|&check| {
                let (items, findings) = (self.items(check), self.findings(check));
                format!(
                    ",\"{}\":{{\"items\":{items},\"findings\":{findings}}}",
                    check_label(check)
                )
            })
            .collect();
        let recent = self
            .recent
            .lock()
            .expect("the ring is never left half-updated");
        let findings: Vec<String> = recent
            .iter()
            .map(|(check, fingerprint, at_us)| {
                format!(
                    "{{\"check\":\"{}\",\"fingerprint\":\"{fingerprint:016x}\",\"at_us\":{at_us}}}",
                    check_label(*check)
                )
            })
            .collect();
        drop(recent);
        format!(
            "{{\n\"state\":\"{}\",\"state_code\":{},\n\
             \"scrub\":{{\"passes\":{},\"last_pass_us\":{},\"interval_us\":{}{checks}}},\n\
             \"canary\":{{\"probes\":{},\"failures\":{},\"consecutive_failures\":{},\
             \"last_latency_us\":{}}},\n\
             \"findings\":[{}]\n}}",
            self.state_label(),
            self.state_code(),
            self.scrub_passes(),
            c.scrub_last_pass_us.load(Ordering::Relaxed),
            self.scrub_interval_us,
            self.canary_probes(),
            self.canary_failures(),
            c.canary_consecutive.load(Ordering::Relaxed),
            self.canary_last_latency_us(),
            findings.join(","),
        )
    }
}

/// A scrub check's compiled-in `check` label value.
pub(crate) fn check_label(check: ScrubCheck) -> &'static str {
    match check {
        ScrubCheck::Audit => "audit",
        ScrubCheck::Tree => "tree",
        ScrubCheck::Cache => "cache",
        ScrubCheck::Orphan => "orphan",
    }
}
