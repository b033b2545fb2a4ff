//! seg-watch: saturation accounting and the stall watchdog.
//!
//! The watch plane is the always-on contention/saturation layer: lock
//! telemetry lives in [`locks`](super::locks), windowed history in the
//! flight recorder ([`seg_obs::FlightRecorder`]), and this module holds
//! the glue state — live-session / in-flight gauges fed by the
//! untrusted host, the shared [`seg_net::NetMeter`], stall
//! counters, and the rate-limited automatic dump slot the watchdog
//! writes its correlated bundle into.
//!
//! Everything here is aggregate numbers or already-declassified JSON
//! (the dump is assembled from snapshot/trace/profile exports, each of
//! which is itself a sanctioned declassification point); no request
//! content enters this module.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use seg_net::NetMeter;

/// Minimum microseconds between two automatic watchdog dumps. A
/// pathological workload where every request stalls must not turn the
/// request path into a dump generator.
const DUMP_MIN_INTERVAL_US: u64 = 1_000_000;

/// Shared mutable state of the watch plane. One instance per enclave,
/// shared with the untrusted reactor dispatcher (which feeds the
/// saturation gauges — they are load numbers, not secrets).
#[derive(Debug)]
pub struct WatchStats {
    enabled: AtomicBool,
    live_sessions: AtomicU64,
    in_flight: AtomicU64,
    sheds: AtomicU64,
    stalls_request: AtomicU64,
    stalls_global: AtomicU64,
    dumps: AtomicU64,
    last_dump_at_us: AtomicU64,
    last_dump: Mutex<Option<String>>,
    net: Arc<NetMeter>,
    /// The reactor front end's per-state gauges, once one is running
    /// (the metrics exporter reads them alongside the watch gauges).
    reactor: Mutex<Option<Arc<seg_net::reactor::ReactorStats>>>,
    epoch: Instant,
}

impl Default for WatchStats {
    fn default() -> WatchStats {
        WatchStats::new()
    }
}

impl WatchStats {
    /// Creates watch state with the plane enabled (it is always-on by
    /// default; [`WatchStats::set_enabled`] exists so benchmarks can
    /// measure its cost).
    #[must_use]
    pub fn new() -> WatchStats {
        WatchStats {
            enabled: AtomicBool::new(true),
            live_sessions: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            stalls_request: AtomicU64::new(0),
            stalls_global: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            last_dump_at_us: AtomicU64::new(0),
            last_dump: Mutex::new(None),
            net: Arc::new(NetMeter::new()),
            reactor: Mutex::new(None),
            epoch: Instant::now(),
        }
    }

    /// Whether the watch plane (flight ticks + watchdog checks) runs.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables the watch plane. Lock and net accounting
    /// stay on either way — they are passive counters; this only gates
    /// the per-request watchdog/flight work.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The byte-level saturation meter shared by all connections.
    #[must_use]
    pub fn net_meter(&self) -> &Arc<NetMeter> {
        &self.net
    }

    /// A connection's enclave session opened.
    pub fn session_started(&self) {
        self.live_sessions.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection's enclave session closed.
    pub fn session_ended(&self) {
        self.live_sessions.fetch_sub(1, Ordering::Relaxed);
    }

    /// Currently live enclave sessions.
    #[must_use]
    pub fn live_sessions(&self) -> u64 {
        self.live_sessions.load(Ordering::Relaxed)
    }

    /// A frame entered the enclave (ecall in progress).
    pub fn request_started(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// The frame's ecall returned.
    pub fn request_ended(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Frames currently inside the enclave across all sessions.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// A connection was refused at the front end's connection cap
    /// (reactor accept shedding).
    pub fn connection_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections shed at the front end's cap since start.
    #[must_use]
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Publishes the running reactor's statistics so the metrics
    /// exporter can fold them into the `seg_net_*` families.
    pub fn set_reactor_stats(&self, stats: Arc<seg_net::reactor::ReactorStats>) {
        *self.reactor.lock().unwrap() = Some(stats);
    }

    /// The reactor's statistics, when a reactor front end is running.
    #[must_use]
    pub fn reactor_stats(&self) -> Option<Arc<seg_net::reactor::ReactorStats>> {
        self.reactor.lock().unwrap().clone()
    }

    /// Records a watchdog stall of the given kind and reports whether
    /// the caller should capture an automatic dump (rate-limited to one
    /// per `DUMP_MIN_INTERVAL_US`).
    pub fn note_stall(&self, kind: StallKind) -> bool {
        match kind {
            StallKind::Request => self.stalls_request.fetch_add(1, Ordering::Relaxed),
            StallKind::GlobalLock => self.stalls_global.fetch_add(1, Ordering::Relaxed),
        };
        let now = self
            .epoch
            .elapsed()
            .as_micros()
            .min(u64::MAX as u128)
            .max(1) as u64;
        let last = self.last_dump_at_us.load(Ordering::Relaxed);
        if last != 0 && now.saturating_sub(last) < DUMP_MIN_INTERVAL_US {
            return false;
        }
        self.last_dump_at_us
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Stores the watchdog's correlated bundle (latest wins).
    pub fn store_dump(&self, bundle: String) {
        self.dumps.fetch_add(1, Ordering::Relaxed);
        *self.last_dump.lock().unwrap() = Some(bundle);
    }

    /// The most recent automatic dump, if the watchdog fired.
    #[must_use]
    pub fn last_dump(&self) -> Option<String> {
        self.last_dump.lock().unwrap().clone()
    }

    /// Request-deadline stalls observed.
    #[must_use]
    pub fn stalls_request(&self) -> u64 {
        self.stalls_request.load(Ordering::Relaxed)
    }

    /// Global-lock-budget stalls observed.
    #[must_use]
    pub fn stalls_global(&self) -> u64 {
        self.stalls_global.load(Ordering::Relaxed)
    }

    /// Automatic dumps captured.
    #[must_use]
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }
}

/// What tripped the stall watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// A request exceeded the watch deadline.
    Request,
    /// The exclusive global lock was held past its budget.
    GlobalLock,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_track_begin_end_pairs() {
        let w = WatchStats::new();
        w.session_started();
        w.session_started();
        w.request_started();
        assert_eq!((w.live_sessions(), w.in_flight()), (2, 1));
        w.request_ended();
        w.session_ended();
        assert_eq!((w.live_sessions(), w.in_flight()), (1, 0));
    }

    #[test]
    fn stall_dumps_are_rate_limited() {
        let w = WatchStats::new();
        assert!(w.note_stall(StallKind::Request), "first stall dumps");
        assert!(
            !w.note_stall(StallKind::Request),
            "second stall within the interval does not"
        );
        assert_eq!(w.stalls_request(), 2, "but both stalls are counted");
        w.store_dump("{}".to_string());
        assert_eq!(w.dumps(), 1);
        assert_eq!(w.last_dump().as_deref(), Some("{}"));
    }

    #[test]
    fn watch_plane_toggles() {
        let w = WatchStats::new();
        assert!(w.enabled(), "always-on by default");
        w.set_enabled(false);
        assert!(!w.enabled());
    }
}
