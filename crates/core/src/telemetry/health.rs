//! The health verdict: what the scrubber's reports, the SLO engine and
//! the canary add up to.
//!
//! A [`seg_obs::HealthMonitor`] — the history clock — keeps flight
//! frames and multi-resolution headline retention and evaluates
//! burn-rate SLO rules; the scrubber's [`ScrubReport`]s are folded into
//! per-check counters and fingerprint-only alerts; the canary prober's
//! outcomes are counted. All three fold into one
//! `healthy/degraded/failing` state machine. The host may compute the
//! verdict because the host is who displays it: every input is
//! something the enclave already handed out, and an operator reading a
//! lying host's dashboard learns nothing a lying host could not have
//! made up anyway.

use std::sync::atomic::{AtomicU64, Ordering};

use seg_obs::{HealthConfig, HealthMonitor};

use crate::config::EnclaveConfig;
use crate::enclave::health::{ScrubCheck, ScrubReport};

/// Consecutive canary failures before the canary degrades the state.
const CANARY_FAIL_LIMIT: u64 = 3;

/// Health-plane state, one per server. Counters are plain atomics,
/// read lock-free by the metrics export.
pub struct HealthState {
    monitor: HealthMonitor,
    scrub_interval_us: u64,
    counted: Counted,
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
    /// Builds the health state for one server. The latency objective
    /// reuses the stall deadline when one is set — one source of truth
    /// for what "too slow" means.
    #[must_use]
    pub fn new(config: &EnclaveConfig) -> HealthState {
        let slo = match config.watch_deadline_us {
            0 => HealthConfig::default(),
            us => HealthConfig::with_latency_threshold(us.saturating_mul(1_000)),
        };
        HealthState {
            monitor: HealthMonitor::new(slo),
            scrub_interval_us: config.scrub_interval_us,
            counted: Counted::default(),
        }
    }

    /// The history clock (flight frames, headline levels, burn-rate
    /// evaluation, alert ring).
    #[must_use]
    pub fn monitor(&self) -> &HealthMonitor {
        &self.monitor
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
    /// failures raises a `canary` alert and degrades the health state
    /// until a probe succeeds again.
    pub fn canary_result(&self, ok: bool, latency_us: u64) {
        self.counted.canary_probes.fetch_add(1, Ordering::Relaxed);
        if ok {
            self.counted.canary_consecutive.store(0, Ordering::Relaxed);
            self.counted
                .canary_last_latency_us
                .store(latency_us, Ordering::Relaxed);
        } else {
            self.counted.canary_failures.fetch_add(1, Ordering::Relaxed);
            let run = self
                .counted
                .canary_consecutive
                .fetch_add(1, Ordering::Relaxed)
                + 1;
            if run >= CANARY_FAIL_LIMIT {
                self.monitor.alerts().raise(
                    self.monitor.now_us(),
                    "canary",
                    "probe",
                    0,
                    run,
                    CANARY_FAIL_LIMIT,
                );
            }
        }
    }

    /// The state machine: `2` (failing) while any integrity finding is
    /// latched — corruption never heals by itself, so neither does this
    /// state; `1` (degraded) while an SLO objective is burning budget
    /// or the canary is in a failure run; `0` (healthy) otherwise.
    #[must_use]
    pub fn state_code(&self) -> u64 {
        if self.findings_total() > 0 {
            return 2;
        }
        if self.monitor.active_alerts() > 0
            || self.counted.canary_consecutive.load(Ordering::Relaxed) >= CANARY_FAIL_LIMIT
        {
            return 1;
        }
        0
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
        let now_us = self.monitor.now_us();
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
    /// counters, one fingerprint-only `scrub_integrity` alert per
    /// finding (each latches `failing`), and the pass count.
    pub(super) fn fold(&self, report: &ScrubReport) {
        for (total, n) in self.counted.items.iter().zip(report.items) {
            total.fetch_add(n, Ordering::Relaxed);
        }
        let now_us = self.monitor.now_us();
        for &(check, fingerprint) in &report.findings {
            self.counted.findings[check.index()].fetch_add(1, Ordering::Relaxed);
            let alerts = self.monitor.alerts();
            alerts.raise(now_us, "scrub_integrity", check.label(), fingerprint, 0, 0);
        }
        if report.pass_completed {
            self.counted.scrub_passes.fetch_add(1, Ordering::Relaxed);
            self.counted
                .scrub_last_pass_us
                .store(now_us, Ordering::Relaxed);
        }
    }

    /// The `health` section of the report: the verdict, scrubber and
    /// canary counters, the alert-ring tail, per-objective burn rates,
    /// and the multi-resolution headline history.
    pub(super) fn to_json(&self) -> String {
        let c = &self.counted;
        let (monitor, alerts) = (&self.monitor, self.monitor.alerts());
        let checks: String = ScrubCheck::ALL
            .iter()
            .map(|&check| {
                let (items, findings) = (self.items(check), self.findings(check));
                format!(
                    ",\"{}\":{{\"items\":{items},\"findings\":{findings}}}",
                    check.label()
                )
            })
            .collect();
        format!(
            "{{\n\"state\":\"{}\",\"state_code\":{},\n\
             \"scrub\":{{\"passes\":{},\"last_pass_us\":{},\"interval_us\":{}{checks}}},\n\
             \"canary\":{{\"probes\":{},\"failures\":{},\"consecutive_failures\":{},\
             \"last_latency_us\":{}}},\n\
             \"alerts\":{{\"total\":{},\"suppressed\":{},\"active\":{},\"recent\":{}}},\n\
             \"slo\":{},\n\"history\":{}\n}}",
            self.state_label(),
            self.state_code(),
            self.scrub_passes(),
            c.scrub_last_pass_us.load(Ordering::Relaxed),
            self.scrub_interval_us,
            self.canary_probes(),
            self.canary_failures(),
            c.canary_consecutive.load(Ordering::Relaxed),
            self.canary_last_latency_us(),
            alerts.total(),
            alerts.suppressed(),
            monitor.active_alerts(),
            alerts.to_json(32),
            monitor.slo_json(),
            monitor.history_json(),
        )
    }
}
