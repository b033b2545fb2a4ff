//! seg-watch: saturation accounting, the stall watchdog, and the
//! telemetry toggle.
//!
//! Lock telemetry lives in [`locks`](super::locks) and windowed history
//! in [`seg_obs::HealthMonitor`]; this module holds the glue state —
//! live-session / in-flight gauges fed by the untrusted host, the
//! shared [`seg_net::NetMeter`], the stall watchdog (a consumer of
//! [`RequestRecord`] like every other plane) with the rate-limited slot
//! it stores the correlated report in, and the one runtime switch every
//! consumer obeys.
//!
//! Everything here is aggregate numbers or already-declassified JSON
//! (the dump is [`SegShareEnclave::report`](super::SegShareEnclave::report));
//! no request content enters this module.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use seg_net::NetMeter;
use seg_obs::RequestRecord;

/// Minimum microseconds between two automatic watchdog dumps. A
/// pathological workload where every request stalls must not turn the
/// request path into a dump generator.
const DUMP_MIN_INTERVAL_US: u64 = 1_000_000;

/// How long (µs) the exclusive global lock may be held before the
/// watchdog reports a global-lock stall — the signature of a
/// `Move`/`DeleteGroup`/restore-rebuild starving every other session.
/// In force whenever `EnclaveConfig::watch_deadline_us` is non-zero.
pub const GLOBAL_LOCK_BUDGET_US: u64 = 500_000;

/// Saturation gauges, watchdog and switch state. One instance per enclave,
/// shared with the untrusted reactor dispatcher (which feeds the
/// saturation gauges — they are load numbers, not secrets).
#[derive(Debug)]
pub struct WatchStats {
    enabled: AtomicBool,
    deadline_us: u64,
    /// Start stamp of the live exclusive hold a tick already reported,
    /// so the holder's own record does not report it again; 0 = none.
    live_hold: AtomicU64,
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

impl WatchStats {
    /// Creates watch state with telemetry on and the watchdog armed at
    /// `deadline_us` (`EnclaveConfig::watch_deadline_us`; 0 = never).
    #[must_use]
    pub fn new(deadline_us: u64) -> WatchStats {
        WatchStats {
            enabled: AtomicBool::new(true),
            deadline_us,
            live_hold: AtomicU64::new(0),
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

    /// Whether telemetry runs: records are consumed and the history
    /// clock, scrubber and canary tick. On by default.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The one telemetry switch (see
    /// [`SegShareEnclave::set_telemetry`](super::SegShareEnclave::set_telemetry)).
    /// Lock, net and store accounting stay on either way — they are
    /// passive counters.
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

    /// The watchdog as a record consumer: a request at or over the
    /// deadline is a request stall, and one whose own exclusive hold of
    /// the global lock ran over [`GLOBAL_LOCK_BUDGET_US`] a global-lock
    /// stall (unless a tick already reported that hold while it was
    /// live). Returns whether the caller should store a dump.
    pub fn consume(&self, rec: &RequestRecord) -> bool {
        let mut dump = false;
        if rec.slow(self.deadline_us) {
            dump |= self.note_stall(StallKind::Request);
        }
        let held_us = rec.phase("global_hold").sim_ns / 1_000;
        if self.deadline_us > 0
            && held_us >= GLOBAL_LOCK_BUDGET_US
            && self.live_hold.swap(0, Ordering::Relaxed) == 0
        {
            dump |= self.note_stall(StallKind::GlobalLock);
        }
        dump
    }

    /// The watchdog's view from the history tick, which no lock blocks:
    /// a live exclusive hold of the global lock, begun at stamp `since`
    /// and `held_us` old. Reports each hold over the budget once.
    /// Returns whether the caller should store a dump.
    pub fn note_global_hold(&self, (since, held_us): (u64, u64)) -> bool {
        self.deadline_us > 0
            && held_us >= GLOBAL_LOCK_BUDGET_US
            && self.live_hold.swap(since, Ordering::Relaxed) != since
            && self.note_stall(StallKind::GlobalLock)
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
        let w = WatchStats::new(0);
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
        let w = WatchStats::new(0);
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
        let w = WatchStats::new(0);
        assert!(w.enabled(), "always-on by default");
        w.set_enabled(false);
        assert!(!w.enabled());
    }

    #[test]
    fn a_global_hold_over_budget_is_reported_once() {
        let w = WatchStats::new(1_000);
        let over = GLOBAL_LOCK_BUDGET_US + 1;
        // Seen live by two ticks, then closed by its holder: one stall.
        assert!(!w.note_global_hold((7, over - 2)), "inside the budget");
        assert!(w.note_global_hold((7, over)));
        assert!(!w.note_global_hold((7, over + 20_000)));
        let mut rec = RequestRecord::open(1, "move", 1, 2);
        let hold = seg_obs::PHASES
            .iter()
            .position(|p| *p == "global_hold")
            .unwrap();
        rec.phases[hold].sim_ns = over * 1_000;
        w.consume(&rec);
        assert_eq!(w.stalls_global(), 1);
        // No tick saw the next one: the holder's record reports it.
        w.consume(&rec);
        assert_eq!(w.stalls_global(), 2);
        assert_eq!(w.stalls_request(), 0, "the record itself was not slow");
        // A disarmed watchdog reports neither kind.
        let off = WatchStats::new(0);
        rec.duration_ns = u64::MAX;
        assert!(!off.consume(&rec) && !off.note_global_hold((9, over)));
        assert_eq!((off.stalls_request(), off.stalls_global()), (0, 0));
    }
}
