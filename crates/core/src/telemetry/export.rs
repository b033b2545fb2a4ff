//! The metrics export: the enclave's registry snapshot merged with the
//! families the host owns.

use std::sync::atomic::Ordering;

use seg_net::reactor::ConnState;
use seg_obs::{Snapshot, METER_AXES};

use crate::enclave::health::ScrubCheck;
use crate::enclave::SegShareEnclave;

use super::Telemetry;

impl Telemetry {
    /// A unified telemetry snapshot: the enclave's own families
    /// (requests, locks, pfs, rollback tree, cache, EPC, audit — pulled
    /// with [`SegShareEnclave::metrics_snapshot`]) plus what the host
    /// sees or derives for itself: boundary crossings, per-store I/O,
    /// the front end, and the watchdog, history, scrub, canary and
    /// meter families. The history clock's tick takes this same merged
    /// snapshot, so a flight frame covers the whole system whether or
    /// not anyone scrapes.
    #[must_use]
    pub fn metrics_snapshot(&self) -> Snapshot {
        let enclave = self.enclave();
        self.refresh(&enclave);
        enclave.metrics_snapshot().merge(self.host.snapshot())
    }

    /// Brings the host registry up to date with the totals kept
    /// elsewhere. Families export whether or not their subsystem is
    /// live — 0 beats a series that comes and goes — except the
    /// reactor's lifecycle families, which start with the reactor (the
    /// first connection or listener).
    fn refresh(&self, enclave: &SegShareEnclave) {
        let host = &self.host;
        let sync = |name: &'static str, labels: Vec<(&'static str, &'static str)>, total: u64| {
            host.counter_with(name, labels).advance_to(total);
        };
        let boundary = enclave.sgx().boundary().stats();
        let front_end = self.front_end.get();
        let reactor = front_end.map(|fe| &fe.stats);
        let (watch, health) = (&self.watch, &self.health);
        let (monitor, alerts) = (health.monitor(), health.monitor().alerts());

        for (name, total) in [
            ("seg_boundary_ecalls_total", boundary.ecalls),
            ("seg_boundary_ocalls_total", boundary.ocalls),
            ("seg_net_sheds_total", reactor.map_or(0, |r| r.shed_total())),
            (
                "seg_net_send_stalls_total",
                reactor.map_or(0, |r| r.send_stalls_total()),
            ),
            (
                "seg_net_send_stall_ns_total",
                reactor.map_or(0, |r| r.send_stall_ns_total()),
            ),
            ("seg_watch_dumps_total", watch.dumps()),
            ("seg_health_samples_total", monitor.samples()),
            ("seg_health_canary_probes_total", health.canary_probes()),
            ("seg_health_canary_failures_total", health.canary_failures()),
            ("seg_slo_alerts_total", alerts.total()),
            ("seg_slo_alerts_suppressed_total", alerts.suppressed()),
            ("seg_scrub_passes_total", health.scrub_passes()),
        ] {
            sync(name, vec![], total);
        }
        for (name, value) in [
            ("seg_boundary_simulated_ns", boundary.simulated_ns),
            (
                "seg_net_inflight_requests",
                front_end.map_or(0, |fe| fe.in_flight.load(Ordering::Relaxed)),
            ),
            ("seg_health_state", health.state_code()),
            ("seg_slo_alerts_active", monitor.active_alerts()),
            ("seg_health_rollup_slots", monitor.rollup_slots()),
            (
                "seg_health_canary_latency_us",
                health.canary_last_latency_us(),
            ),
        ] {
            host.gauge(name).set(value);
        }
        for (kind, total) in [
            ("request", watch.stalls_request()),
            ("global_lock", watch.stalls_global()),
        ] {
            sync("seg_watch_stalls_total", vec![("kind", kind)], total);
        }

        // Views sharing one WAL backend each report the shared log's
        // totals.
        for (store, s, io) in enclave.store_io() {
            for (op, total) in [
                ("get", s.gets),
                ("put", s.puts),
                ("delete", s.deletes),
                ("exists", s.exists),
                ("rename", s.renames),
                ("list", s.lists),
            ] {
                let labels = vec![("store", store), ("op", op)];
                sync("seg_store_ops_total", labels, total);
            }
            for (name, total) in [
                ("seg_store_bytes_read_total", s.bytes_read),
                ("seg_store_bytes_written_total", s.bytes_written),
                ("seg_store_batches_total", s.batches),
                ("seg_store_batch_ops_total", s.batch_ops),
                ("seg_store_fsyncs_total", io.fsyncs),
                ("seg_store_fsync_bytes_total", io.fsync_bytes),
            ] {
                sync(name, vec![("store", store)], total);
            }
        }

        if let Some(reactor) = reactor {
            // `Closed` is terminal: its gauge is definitionally 0.
            for state in ConnState::ALL
                .into_iter()
                .filter(|s| *s != ConnState::Closed)
            {
                host.gauge_with("seg_net_conns", vec![("state", state.label())])
                    .set(reactor.conns_in(state));
            }
            host.gauge("seg_net_dispatch_depth")
                .set(reactor.dispatch_depth());
            host.gauge("seg_net_outq_bytes").set(reactor.outq_bytes());
            for (name, total) in [
                ("seg_net_conns_accepted_total", reactor.accepted_total()),
                ("seg_net_conns_closed_total", reactor.closed_total()),
                (
                    "seg_net_conns_reaped_idle_total",
                    reactor.reaped_idle_total(),
                ),
                (
                    "seg_net_protocol_errors_total",
                    reactor.protocol_errors_total(),
                ),
            ] {
                sync(name, vec![], total);
            }
        }

        for check in ScrubCheck::ALL {
            let label = || vec![("check", check.label())];
            sync("seg_scrub_items_total", label(), health.items(check));
            sync("seg_scrub_findings_total", label(), health.findings(check));
        }
        for (axis, s) in METER_AXES.into_iter().zip(self.meter.stats()) {
            let label = || vec![("axis", axis)];
            host.gauge_with("seg_meter_tracked", label()).set(s.tracked);
            host.gauge_with("seg_meter_min_tracked_ops", label())
                .set(s.min_est);
            sync("seg_meter_evictions_total", label(), s.evictions);
            sync("seg_meter_overflow_ops_total", label(), s.overflow_ops);
        }
    }
}
