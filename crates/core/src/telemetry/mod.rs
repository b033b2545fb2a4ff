//! Host-side telemetry: everything that consumes what the enclave hands
//! out, under one owner held by [`SegShareServer`](crate::SegShareServer).
//!
//! Data flows one way. The enclave pushes each closed
//! [`RequestRecord`] through the one [`RecordSink`] — [`Telemetry`] is
//! that sink — and answers pull-style declassification calls when the
//! host makes them (`metrics_snapshot`, `trace_tail`,
//! `profile_snapshot`, `scrub_step`, the lock manager's hold and
//! contended-stripe rows). From those, and from what the host sees for
//! itself (the reactor's gauges, store and boundary traffic), this
//! module builds the meter, the history clock, the slow log and stall
//! watchdog, canary bookkeeping, the health verdict, the report and the
//! host's share of the metrics export. The one thing the host sets
//! inside is the telemetry switch. None of it is trusted, and none
//! needs to be: it can only misreport to the operator of the same host.

mod export;
pub mod health;
pub mod watch;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use seg_net::reactor::ReactorStats;
use seg_obs::{events_json, records_json, Meter, RecordSink, Registry, RequestRecord};

use crate::enclave::health::ScrubReport;
use crate::enclave::SegShareEnclave;

use health::HealthState;
use watch::Watchdog;

/// What the front end lends the exporter once it runs: the reactor's
/// statistics and the dispatcher's in-flight gauge.
struct FrontEnd {
    stats: Arc<ReactorStats>,
    in_flight: Arc<AtomicU64>,
}

/// The host's telemetry owner: the record sink and every consumer
/// behind it.
pub struct Telemetry {
    /// Upgraded for pulls; alive whenever this value is reachable — it
    /// is reached through the server or from the enclave itself.
    enclave: Weak<SegShareEnclave>,
    meter: Meter,
    health: HealthState,
    watch: Watchdog,
    /// The families the host owns (`seg_net_*`, `seg_store_*`, …),
    /// brought up to date by each [`Telemetry::metrics_snapshot`].
    host: Registry,
    front_end: OnceLock<FrontEnd>,
}

impl Telemetry {
    /// Builds the consumers for `enclave` and attaches them as its
    /// record sink.
    #[must_use]
    pub fn attach(enclave: &Arc<SegShareEnclave>) -> Arc<Telemetry> {
        let config = enclave.config();
        let telemetry = Arc::new(Telemetry {
            enclave: Arc::downgrade(enclave),
            meter: Meter::new(config.watch_deadline_us),
            health: HealthState::new(config),
            watch: Watchdog::new(config.watch_deadline_us),
            host: Registry::new(),
            front_end: OnceLock::new(),
        });
        enclave.attach_sink(Arc::clone(&telemetry) as Arc<dyn RecordSink>);
        telemetry
    }

    fn enclave(&self) -> Arc<SegShareEnclave> {
        self.enclave
            .upgrade()
            .expect("telemetry is reached through its server or its enclave")
    }

    /// Lends the running front end's gauges to the exporter and the
    /// report's `saturation` section (first call wins).
    pub(crate) fn front_end_started(&self, stats: Arc<ReactorStats>, in_flight: Arc<AtomicU64>) {
        let _ = self.front_end.set(FrontEnd { stats, in_flight });
    }

    /// The meter (per-principal/object/group/prefix cost attribution).
    #[must_use]
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// The history clock, scrub and canary counters, and the verdict.
    #[must_use]
    pub fn health(&self) -> &HealthState {
        &self.health
    }

    /// The stall watchdog: stall counters, its stored dump
    /// ([`Watchdog::last_dump`]) and the slow log
    /// ([`Watchdog::slow_requests`]).
    #[must_use]
    pub fn watch(&self) -> &Watchdog {
        &self.watch
    }

    /// Runs one budgeted scrub step inside the enclave and folds what
    /// it reports into the counters, the alert ring and the verdict.
    pub fn scrub_step(&self) -> ScrubReport {
        let report = self.enclave().scrub_step();
        self.health.fold(&report);
        report
    }

    /// One background tick, driven by the server's health runner:
    /// advances the history clock even on an idle server, lets the stall
    /// watchdog look at a live exclusive hold of the global lock (which
    /// blocks every request but not this) and, when the scrub cadence
    /// elapsed, runs one scrub step. A no-op while telemetry is off.
    pub fn health_tick(&self) -> Option<ScrubReport> {
        let enclave = self.enclave();
        if !enclave.telemetry_enabled() {
            return None;
        }
        self.health
            .monitor()
            .tick_if_due(|| self.metrics_snapshot());
        let hold = enclave.locks().global_hold();
        if hold.is_some_and(|hold| self.watch.note_global_hold(hold)) {
            self.watch.store_dump(self.report());
        }
        // The scrubber takes read scopes: under a live exclusive hold it
        // would only block on it, and the watchdog's next look with it.
        (hold.is_none() && self.health.scrub_due()).then(|| self.scrub_step())
    }

    /// Every consumer's view at one instant, as one JSON document:
    /// `saturation`, `stalls`, `locks` (global-hold clock and the
    /// contended-stripe top-K), `flight` frames, `trace_tail`,
    /// `slow_requests` (whole records), the phase `profile`, `health`
    /// (verdict, scrubber, canary, alerts, SLO burn, headline history)
    /// and `meter` — correlated evidence instead of unsynchronized
    /// dumps; the stall watchdog stores the same bundle. Rendered from
    /// values that already crossed the boundary (see
    /// [`seg_obs::record`]): compiled-in names, aggregate numbers and
    /// keyed fingerprints.
    #[must_use]
    pub fn report(&self) -> String {
        let enclave = self.enclave();
        let monitor = self.health.monitor();
        // The bundle always holds the most recent window.
        monitor.tick_at(self.metrics_snapshot(), monitor.now_us());
        let fe = self.front_end.get();
        let stat = |read: fn(&ReactorStats) -> u64| fe.map_or(0, |fe| read(&fe.stats));
        let stripes = enclave.locks().contended_stripes(8);
        let stripes = stripes.iter().map(|row| {
            let (stripe, wait_ns, waits) = (row.stripe, row.wait_ns, row.waits);
            format!("{{\"stripe\":{stripe},\"wait_ns\":{wait_ns},\"waits\":{waits}}}")
        });
        let mut out = format!(
            "{{\n\"enabled\":{},\n\"saturation\":{{\"live_sessions\":{},\"in_flight\":{},\
             \"queued_bytes\":{},\"send_stalls\":{},\"send_stall_ns\":{},\"idle_us\":{}}},\n\
             \"stalls\":{{\"request\":{},\"global_lock\":{},\"dumps\":{}}},\n\
             \"locks\":{{\"global_held_us\":{},\"lock_top\":[{}]}},\n\"flight\":",
            enclave.telemetry_enabled(),
            stat(ReactorStats::live_conns),
            fe.map_or(0, |fe| fe.in_flight.load(Ordering::Relaxed)),
            stat(ReactorStats::outq_bytes),
            stat(ReactorStats::send_stalls_total),
            stat(ReactorStats::send_stall_ns_total),
            stat(ReactorStats::idle_us),
            self.watch.stalls_request(),
            self.watch.stalls_global(),
            self.watch.dumps(),
            enclave.locks().global_held_us(),
            stripes.collect::<Vec<_>>().join(","),
        );
        out.push_str(&monitor.flight_json());
        out.push_str(",\n\"trace_tail\":");
        out.push_str(events_json(&enclave.trace_tail(64)).trim_end());
        out.push_str(",\n\"slow_requests\":");
        out.push_str(records_json(&self.watch.slow_requests(32)).trim_end());
        out.push_str(",\n\"profile\":");
        out.push_str(enclave.profile_snapshot().to_json().trim_end());
        out.push_str(",\n\"health\":");
        out.push_str(&self.health.to_json());
        out.push_str(",\n\"meter\":");
        out.push_str(self.meter.report_json().trim_end());
        out.push_str("\n}\n");
        out
    }
}

impl RecordSink for Telemetry {
    /// One closed request reaches every host-side consumer: the meter,
    /// the SLO windows and headline history (whose clock it also
    /// ticks), the slow log and the stall watchdog.
    fn consume(&self, rec: &RequestRecord) {
        self.meter.consume(rec);
        let monitor = self.health.monitor();
        monitor.consume(rec);
        monitor.tick_if_due(|| self.metrics_snapshot());
        if self.watch.consume(rec) {
            self.watch.store_dump(self.report());
        }
    }
}
