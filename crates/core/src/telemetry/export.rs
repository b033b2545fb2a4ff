//! The metrics export: the one registry, with the totals kept
//! elsewhere mirrored in at each scrape.

use std::sync::atomic::Ordering;

use seg_net::reactor::ConnState;

use crate::enclave::health::ScrubCheck;
use crate::enclave::SegShareEnclave;

use super::health::check_label;
use super::{Snapshot, Telemetry};

impl Telemetry {
    /// A unified telemetry snapshot: the request families folded from
    /// each record, the enclave-wide values pulled with
    /// [`SegShareEnclave::stats`] (cache, EPC, the global-hold clock,
    /// the switch, pfs decrypts, audit), and what the host sees or
    /// derives for itself: boundary crossings, per-store I/O, the front
    /// end, and the watchdog, scrub, canary and verdict families.
    /// Current values only: a scraper keeps the history.
    #[must_use]
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.refresh(&self.enclave());
        self.registry.snapshot()
    }

    /// Brings the registry up to date with the totals kept elsewhere.
    /// Families export whether or not their subsystem is live — 0 beats
    /// a series that comes and goes — except the reactor's lifecycle
    /// families, which start with the reactor (the first connection or
    /// listener), the object cache's counters, which exist only with
    /// the cache on (keeping cache-off exports identical to pre-cache
    /// builds), and the audit counters, which exist only with the
    /// audit trail on.
    fn refresh(&self, enclave: &SegShareEnclave) {
        let host = &self.registry;
        let sync = |name: &'static str, labels: Vec<(&'static str, &'static str)>, total: u64| {
            host.counter_with(name, labels).advance_to(total);
        };
        let stats = enclave.stats();
        if let Some(c) = &stats.cache {
            for (name, total) in [
                ("seg_cache_hits_total", c.hits),
                ("seg_cache_misses_total", c.misses),
                ("seg_cache_fills_total", c.fills),
                ("seg_cache_stale_fills_total", c.stale_fills),
                ("seg_cache_evictions_total", c.evictions),
                ("seg_cache_invalidations_total", c.invalidations),
            ] {
                sync(name, vec![], total);
            }
        }
        if let Some((records, bytes)) = stats.audit {
            sync("seg_audit_records_total", vec![], records);
            sync("seg_audit_bytes_total", vec![], bytes);
        }
        let boundary = enclave.sgx().boundary().stats();
        let front_end = self.front_end.get();
        let reactor = front_end.map(|fe| &fe.stats);
        let (watch, health) = (&self.watch, &self.health);

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
            ("seg_health_canary_probes_total", health.canary_probes()),
            ("seg_health_canary_failures_total", health.canary_failures()),
            ("seg_scrub_passes_total", health.scrub_passes()),
            ("seg_pfs_decrypts_total", stats.pfs_decrypts),
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
            (
                "seg_health_canary_latency_us",
                health.canary_last_latency_us(),
            ),
            ("seg_epc_bytes", stats.epc_bytes),
            ("seg_epc_peak_bytes", stats.epc_peak_bytes),
            ("seg_epc_paged_pages", stats.epc_paged_pages),
            ("seg_cache_entries", stats.cache.map_or(0, |c| c.entries)),
            ("seg_cache_bytes", stats.cache.map_or(0, |c| c.bytes)),
            (
                "seg_lock_global_held_us",
                stats.global_hold.map_or(0, |(_, us)| us),
            ),
            ("seg_telemetry_enabled", u64::from(stats.telemetry_enabled)),
        ] {
            host.gauge(name).set(value);
        }
        for (kind, total) in [
            ("request", watch.stalls_request()),
            ("global_lock", watch.stalls_global()),
        ] {
            sync("seg_watch_stalls_total", vec![("kind", kind)], total);
        }

        for (store, s, io) in self.store_io() {
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
            let label = || vec![("check", check_label(check))];
            sync("seg_scrub_items_total", label(), health.items(check));
            sync("seg_scrub_findings_total", label(), health.findings(check));
        }
    }
}
