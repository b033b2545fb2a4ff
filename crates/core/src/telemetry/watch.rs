//! The stall watchdog, the slow log and the tail of recent records:
//! consumers of [`RequestRecord`].
//!
//! Every record is kept whole in the tail of the newest
//! [`RECENT_CAPACITY`], whatever its duration. A request at or over
//! `EnclaveConfig::watch_deadline_us` is also kept whole in the slow log
//! — phase and cost vectors included, so a rare outlier stays
//! explainable from one entry long after the tail moved on — and
//! counted as a request stall; an exclusive hold of the global lock over
//! [`GLOBAL_LOCK_BUDGET_US`] is a global-lock stall. On either the
//! owner stores [the report](super::Telemetry::report) in the
//! rate-limited dump slot here.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use seg_obs::{Phase, RequestRecord};

use super::RecordView;

/// Minimum time between two automatic watchdog dumps. A pathological
/// workload where every request stalls must not turn the request path
/// into a dump generator.
const DUMP_MIN_INTERVAL: Duration = Duration::from_secs(1);

/// Whole records kept in the slow log.
const SLOW_CAPACITY: usize = 256;

/// Whole records kept in the tail of recent requests (the report's
/// `trace_tail`).
pub const RECENT_CAPACITY: usize = 64;

/// A bounded log of whole records: the oldest entry makes room.
type RecordLog = Mutex<VecDeque<RequestRecord>>;

/// How long (µs) the exclusive global lock may be held before the
/// watchdog reports a global-lock stall — the signature of a
/// `Move`/`DeleteGroup`/restore-rebuild starving every other session.
/// In force whenever `EnclaveConfig::watch_deadline_us` is non-zero.
pub const GLOBAL_LOCK_BUDGET_US: u64 = 500_000;

/// Watchdog counters, the dump slot, the slow log and the tail of
/// recent records. One per server.
#[derive(Debug, Default)]
pub struct Watchdog {
    deadline_us: u64,
    /// Start stamp of the live exclusive hold a tick already reported,
    /// so the holder's own record does not report it again; 0 = none.
    live_hold: AtomicU64,
    stalls_request: AtomicU64,
    stalls_global: AtomicU64,
    dumps: AtomicU64,
    last_dump_at: Mutex<Option<Instant>>,
    last_dump: Mutex<Option<String>>,
    slow: RecordLog,
    recent: RecordLog,
}

impl Watchdog {
    /// Creates a watchdog armed at `deadline_us` (0 = never: no slow
    /// log, neither stall kind).
    #[must_use]
    pub fn new(deadline_us: u64) -> Watchdog {
        Watchdog {
            deadline_us,
            ..Watchdog::default()
        }
    }

    /// Takes one closed request: it goes into the tail of recent
    /// records; at or over the deadline also into the slow log, and it
    /// is a request stall; one whose own exclusive hold of the global
    /// lock ran over [`GLOBAL_LOCK_BUDGET_US`] is a global-lock stall
    /// (unless a tick already reported that hold while it was live).
    /// Returns whether the caller should store a dump.
    pub fn consume(&self, rec: &RequestRecord) -> bool {
        push_bounded(&self.recent, RECENT_CAPACITY, rec);
        let mut dump = false;
        if rec.slow(self.deadline_us) {
            push_bounded(&self.slow, SLOW_CAPACITY, rec);
            dump |= self.note_stall(&self.stalls_request);
        }
        let held_us = rec.phase(Phase::GlobalHold).sim_ns / 1_000;
        if self.deadline_us > 0
            && held_us >= GLOBAL_LOCK_BUDGET_US
            && self.live_hold.swap(0, Ordering::Relaxed) == 0
        {
            dump |= self.note_stall(&self.stalls_global);
        }
        dump
    }

    /// The watchdog's view from the health runner's tick, which no lock
    /// blocks: a live exclusive hold of the global lock, begun at stamp
    /// `since` and `held_us` old. Reports each hold over the budget
    /// once. Returns whether the caller should store a dump.
    pub fn note_global_hold(&self, (since, held_us): (u64, u64)) -> bool {
        self.deadline_us > 0
            && held_us >= GLOBAL_LOCK_BUDGET_US
            && self.live_hold.swap(since, Ordering::Relaxed) != since
            && self.note_stall(&self.stalls_global)
    }

    /// Counts a stall of the kind `stalls` holds and reports whether
    /// the caller should capture an automatic dump (rate-limited to one
    /// per [`DUMP_MIN_INTERVAL`]).
    fn note_stall(&self, stalls: &AtomicU64) -> bool {
        stalls.fetch_add(1, Ordering::Relaxed);
        let mut last = self.last_dump_at.lock().unwrap();
        if last.is_some_and(|at| at.elapsed() < DUMP_MIN_INTERVAL) {
            return false;
        }
        *last = Some(Instant::now());
        true
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

    /// Copies out up to `n` of the newest slow requests, oldest first —
    /// whole records.
    #[must_use]
    pub fn slow_requests(&self, n: usize) -> Vec<RequestRecord> {
        newest(&self.slow, n)
    }

    /// Copies out up to `n` of the newest requests of any duration (at
    /// most [`RECENT_CAPACITY`]), oldest first — whole records.
    #[must_use]
    pub fn recent_requests(&self, n: usize) -> Vec<RequestRecord> {
        newest(&self.recent, n)
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

/// Appends `rec` to `log`, dropping the oldest entry at `capacity`.
fn push_bounded(log: &RecordLog, capacity: usize, rec: &RequestRecord) {
    let mut log = log.lock().expect("a record log is never left half-updated");
    if log.len() == capacity {
        log.pop_front();
    }
    log.push_back(*rec);
}

/// Up to `n` of the newest entries of `log`, oldest first.
fn newest(log: &RecordLog, n: usize) -> Vec<RequestRecord> {
    let log = log.lock().expect("a record log is never left half-updated");
    log.iter()
        .skip(log.len().saturating_sub(n))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_dumps_are_rate_limited() {
        let w = Watchdog::new(1);
        let mut stalled = RequestRecord::open(1, "get", 7, 9);
        stalled.duration_ns = 1_000;
        assert!(w.consume(&stalled), "first stall dumps");
        assert!(
            !w.consume(&stalled),
            "second stall within the interval does not"
        );
        assert_eq!(w.stalls_request(), 2, "but both stalls are counted");
        w.store_dump("{}".to_string());
        assert_eq!(w.dumps(), 1);
        assert_eq!(w.last_dump().as_deref(), Some("{}"));
    }

    #[test]
    fn slow_log_captures_only_over_threshold() {
        let w = Watchdog::new(50);
        let request = |w: &Watchdog, id: u64, us: u64| {
            let mut rec = RequestRecord::open(id, "put_file", 7, 9);
            rec.duration_ns = us * 1_000;
            rec.cost.store_writes = id;
            w.consume(&rec);
        };
        for (id, us) in [(1, 10), (2, 49), (3, 50), (4, 900)] {
            request(&w, id, us);
        }
        // Only the slow ones are kept, whole, and each is a stall.
        let kept = |w: &Watchdog| -> Vec<(u64, u64)> {
            let slow = w.slow_requests(usize::MAX);
            slow.iter()
                .map(|r| (r.duration_us(), r.cost.store_writes))
                .collect()
        };
        assert_eq!(kept(&w), vec![(50, 3), (900, 4)]);
        assert_eq!(w.stalls_request(), 2);
        assert_eq!(w.slow_requests(1)[0].request_id, 4, "newest last");
        // The log is bounded: the oldest entries make room.
        for id in 5..5 + SLOW_CAPACITY as u64 {
            request(&w, id, 70);
        }
        assert_eq!(kept(&w).len(), SLOW_CAPACITY);
        assert_eq!(kept(&w)[0], (70, 5));
        // Deadline 0 disarms the slow log with the stalls.
        let off = Watchdog::new(0);
        request(&off, 6, 5_000);
        assert!(kept(&off).is_empty());
        // The tail keeps every record, fast or slow, newest last and
        // bounded the same way.
        let ids = |w: &Watchdog| -> Vec<u64> {
            w.recent_requests(usize::MAX)
                .iter()
                .map(|r| r.request_id)
                .collect()
        };
        assert_eq!(ids(&off), vec![6]);
        let last = 4 + SLOW_CAPACITY as u64;
        let first = last + 1 - RECENT_CAPACITY as u64;
        assert_eq!(ids(&w), (first..=last).collect::<Vec<_>>());
        assert_eq!(w.recent_requests(2)[1].request_id, last);
    }

    #[test]
    fn a_global_hold_over_budget_is_reported_once() {
        let w = Watchdog::new(1_000);
        let over = GLOBAL_LOCK_BUDGET_US + 1;
        // Seen live by two ticks, then closed by its holder: one stall.
        assert!(!w.note_global_hold((7, over - 2)), "inside the budget");
        assert!(w.note_global_hold((7, over)));
        assert!(!w.note_global_hold((7, over + 20_000)));
        let mut rec = RequestRecord::open(1, "move", 1, 2);
        rec.phases[Phase::GlobalHold as usize].sim_ns = over * 1_000;
        w.consume(&rec);
        assert_eq!(w.stalls_global(), 1);
        // No tick saw the next one: the holder's record reports it.
        w.consume(&rec);
        assert_eq!(w.stalls_global(), 2);
        assert_eq!(w.stalls_request(), 0, "the record itself was not slow");
        // A disarmed watchdog reports neither kind.
        let off = Watchdog::new(0);
        rec.duration_ns = u64::MAX;
        assert!(!off.consume(&rec) && !off.note_global_hold((9, over)));
        assert_eq!((off.stalls_request(), off.stalls_global()), (0, 0));
    }
}
