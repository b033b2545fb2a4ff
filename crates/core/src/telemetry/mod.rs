//! Host-side telemetry: everything that consumes what the enclave hands
//! out, under one owner held by [`SegShareServer`](crate::SegShareServer).
//!
//! Data flows one way. The enclave pushes each closed profiler root —
//! its phase times, and a request's [`RequestRecord`] riding along —
//! through the one [`RecordSink`] ([`Telemetry`] is that sink), and
//! answers pull-style declassification calls when the host makes them
//! ([`SegShareEnclave::stats`], `scrub_step`). From those, and from
//! what the host sees for itself (the reactor's gauges, boundary
//! traffic, and each store call counted on the host's side of its
//! ocall), this module builds the
//! one metric [`Registry`] with its request families, the one phase
//! [`Profile`], the tail of recent records, the slow log and stall
//! watchdog, canary bookkeeping, the health verdict, the report and the
//! metrics export. It keeps no history: it exports state, and the
//! scraper of the export keeps time. The one thing the host sets inside
//! is the telemetry switch. None of it is trusted, and none needs to be:
//! it can only misreport to the operator of the same host.

mod export;
pub mod health;
mod profile;
mod registry;
mod render;
pub mod watch;

pub use crate::hist::{Histogram, HistogramSummary};
pub use profile::{ProfEntry, ProfSnapshot, Profile};
pub use registry::{Counter, Gauge, MetricId, Registry, Snapshot};
pub use render::{audit_json, records_json, RecordView};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use seg_net::reactor::ReactorStats;
use seg_obs::prof::{path_phases, PathTime};
use seg_obs::{ClosedRoot, Phase, RecordSink, RequestRecord};
use seg_store::{CountingStore, IoStats, ObjectStore, StoreStats};

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

/// The host's counters around one store it handed the enclave.
pub type CountedStore = Arc<CountingStore<Arc<dyn ObjectStore>>>;

/// The host's telemetry owner: the record sink and every consumer
/// behind it.
pub struct Telemetry {
    /// Upgraded for pulls; alive whenever this value is reachable — it
    /// is reached through the server or from the enclave itself.
    enclave: Weak<SegShareEnclave>,
    health: HealthState,
    watch: Watchdog,
    /// Every exported family: the request families, folded from each
    /// record, and the mirrored totals, brought up to date by each
    /// [`Telemetry::metrics_snapshot`].
    registry: Registry,
    /// The phase profile, folded from each closed root.
    profile: Profile,
    /// The enclave's content, group and dedup stores, as the host
    /// counts each call that reaches them.
    stores: [(&'static str, CountedStore); 3],
    front_end: OnceLock<FrontEnd>,
}

impl Telemetry {
    /// Builds the consumers for `enclave`, which runs on `stores`, and
    /// attaches them as its record sink.
    #[must_use]
    pub fn attach(
        enclave: &Arc<SegShareEnclave>,
        stores: [(&'static str, CountedStore); 3],
    ) -> Arc<Telemetry> {
        let config = enclave.config();
        let telemetry = Arc::new(Telemetry {
            enclave: Arc::downgrade(enclave),
            health: HealthState::new(config),
            watch: Watchdog::new(config.watch_deadline_us),
            registry: Registry::new(),
            profile: Profile::default(),
            stores,
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

    /// Operation, byte and fsync totals of each store, named, as the
    /// enclave's calls reached it. Views sharing one WAL backend each
    /// report the shared log's durability totals.
    #[must_use]
    pub fn store_io(&self) -> Vec<(&'static str, StoreStats, IoStats)> {
        let io = |(name, store): &(_, CountedStore)| (*name, store.stats(), store.io_stats());
        self.stores.iter().map(io).collect()
    }

    /// The scrub and canary counters, the newest findings, and the
    /// verdict.
    #[must_use]
    pub fn health(&self) -> &HealthState {
        &self.health
    }

    /// The per-(operation, phase-path) profile so far.
    #[must_use]
    pub fn profile_snapshot(&self) -> ProfSnapshot {
        self.profile.snapshot()
    }

    /// The stall watchdog: stall counters, its stored dump
    /// ([`Watchdog::last_dump`]), the slow log
    /// ([`Watchdog::slow_requests`]) and the tail of recent records
    /// ([`Watchdog::recent_requests`]).
    #[must_use]
    pub fn watch(&self) -> &Watchdog {
        &self.watch
    }

    /// Runs one budgeted scrub step inside the enclave and folds what
    /// it reports into the counters, the findings and the verdict.
    pub fn scrub_step(&self) -> ScrubReport {
        let report = self.enclave().scrub_step();
        self.health.fold(&report);
        report
    }

    /// One background tick, driven by the server's health runner: lets
    /// the stall watchdog look at a live exclusive hold of the global
    /// lock (which blocks every request but not this) and, when the scrub
    /// cadence elapsed, runs one scrub step. A no-op while telemetry is
    /// off.
    pub fn health_tick(&self) -> Option<ScrubReport> {
        let stats = self.enclave().stats();
        if !stats.telemetry_enabled {
            return None;
        }
        let hold = stats.global_hold;
        if hold.is_some_and(|hold| self.watch.note_global_hold(hold)) {
            self.watch.store_dump(self.report());
        }
        // The scrubber takes read scopes: under a live exclusive hold it
        // would only block on it, and the watchdog's next look with it.
        (hold.is_none() && self.health.scrub_due()).then(|| self.scrub_step())
    }

    /// Every consumer's view at one instant, as one JSON document:
    /// `enabled`, `saturation`, `stalls`, `locks` (the global-hold
    /// clock), `trace_tail` (the newest records of any duration) and
    /// `slow_requests` (both whole records), the phase
    /// `profile` and `health` (verdict, scrubber, canary, newest
    /// findings) — correlated evidence instead of unsynchronized dumps;
    /// the stall watchdog stores the same bundle. Rendered from
    /// values that already crossed the boundary (see
    /// [`seg_obs::record`]): compiled-in names, aggregate numbers and
    /// keyed fingerprints.
    #[must_use]
    pub fn report(&self) -> String {
        let stats = self.enclave().stats();
        let fe = self.front_end.get();
        let stat = |read: fn(&ReactorStats) -> u64| fe.map_or(0, |fe| read(&fe.stats));
        let mut out = format!(
            "{{\n\"enabled\":{},\n\"saturation\":{{\"live_sessions\":{},\"in_flight\":{},\
             \"queued_bytes\":{},\"send_stalls\":{},\"send_stall_ns\":{},\"idle_us\":{}}},\n\
             \"stalls\":{{\"request\":{},\"global_lock\":{},\"dumps\":{}}},\n\
             \"locks\":{{\"global_held_us\":{}}},\n\"trace_tail\":",
            stats.telemetry_enabled,
            stat(ReactorStats::live_conns),
            fe.map_or(0, |fe| fe.in_flight.load(Ordering::Relaxed)),
            stat(ReactorStats::outq_bytes),
            stat(ReactorStats::send_stalls_total),
            stat(ReactorStats::send_stall_ns_total),
            stat(ReactorStats::idle_us),
            self.watch.stalls_request(),
            self.watch.stalls_global(),
            self.watch.dumps(),
            stats.global_hold.map_or(0, |(_, us)| us),
        );
        out.push_str(records_json(&self.watch.recent_requests(usize::MAX)).trim_end());
        out.push_str(",\n\"slow_requests\":");
        out.push_str(records_json(&self.watch.slow_requests(32)).trim_end());
        out.push_str(",\n\"profile\":");
        out.push_str(self.profile.snapshot().to_json().trim_end());
        out.push_str(",\n\"health\":");
        out.push_str(&self.health.to_json());
        out.push_str("\n}\n");
        out
    }
}

impl RecordSink for Telemetry {
    /// One closed root reaches its host-side consumers: its phase times
    /// the profile; a request's record, timed by its root, the request
    /// families, the tail of recent records, the slow log and the stall
    /// watchdog.
    fn consume(&self, root: &ClosedRoot<'_>) {
        self.profile.consume(root);
        let Some(rec) = root.record else {
            return;
        };
        let rec = timed(rec, root.paths);
        self.registry.consume(&rec);
        if self.watch.consume(&rec) {
            self.watch.store_dump(self.report());
        }
    }
}

/// `rec` with its root's time: `duration_ns` is the root's own path's
/// total, and `phases` holds each path's self and charged time in the
/// slot of its innermost phase, so the self times sum to the duration.
fn timed(rec: &RequestRecord, paths: &[PathTime]) -> RequestRecord {
    let mut rec = *rec;
    for e in paths {
        if e.path == 0 {
            rec.duration_ns = e.total_ns;
        }
        let slot = &mut rec.phases[path_phases(e.path).last().unwrap_or(Phase::Own) as usize];
        slot.self_ns += e.self_ns;
        slot.sim_ns += e.sim_ns;
    }
    rec
}
