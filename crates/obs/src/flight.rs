//! Flight frames: a bounded host-side history of *system state over
//! time*, for post-hoc saturation diagnosis.
//!
//! The trace ring ([`crate::TraceRing`]) answers "what did request X
//! do"; the flight frames answer "what was the whole system doing in
//! the seconds before things went wrong": a fixed-size ring of
//! windowed [`Snapshot::delta`]s, so each frame carries real interval
//! quantiles and rates rather than cumulative blur.
//!
//! The recorder has no clock and takes no snapshot of its own: the
//! history clock ([`crate::HealthMonitor`]) is handed the one merged
//! snapshot of each tick — the enclave's registry plus the families the
//! host owns — and passes it on.
//!
//! # Trust boundary
//!
//! Runs on the untrusted host. A frame is a difference of two
//! snapshots that already crossed — compiled-in metric ids, aggregate
//! values.

use std::collections::VecDeque;

use crate::Snapshot;

/// Frames retained in the ring.
pub const FLIGHT_CAPACITY: usize = 64;

/// Frame interval in microseconds (250 ms: ~16 s of history).
pub const FLIGHT_INTERVAL_US: u64 = 250_000;

/// One recorded frame: the window of registry activity between the
/// previous tick and this one.
#[derive(Debug)]
struct FlightFrame {
    /// Monotonic frame number (1-based; survives ring eviction, so
    /// gaps at the front reveal how much history was dropped).
    seq: u64,
    /// Timestamp of the tick on the history clock, microseconds.
    at_us: u64,
    /// Windowed snapshot ([`Snapshot::delta`] against the previous
    /// tick's cumulative snapshot; the first frame is cumulative —
    /// since-boot context beats an empty window in a crash bundle).
    window: Snapshot,
}

/// The frame ring. Owned and locked by the history clock.
#[derive(Debug)]
pub struct FlightRecorder {
    frames: VecDeque<FlightFrame>,
    capacity: usize,
    prev: Option<Snapshot>,
    total: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding up to `capacity` frames.
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            frames: VecDeque::new(),
            capacity: capacity.max(1),
            prev: None,
            total: 0,
        }
    }

    /// Total frames ever recorded (including evicted ones).
    #[must_use]
    pub fn frames_total(&self) -> u64 {
        self.total
    }

    /// Records the frame for the tick at `at_us`, windowing the
    /// cumulative `snap` against the previous tick's.
    pub fn record(&mut self, at_us: u64, snap: Snapshot) {
        let window = match &self.prev {
            Some(prev) => snap.delta(prev),
            None => snap.clone(),
        };
        self.prev = Some(snap);
        self.total += 1;
        if self.frames.len() == self.capacity {
            self.frames.pop_front();
        }
        self.frames.push_back(FlightFrame {
            seq: self.total,
            at_us,
            window,
        });
    }

    /// Hand-rolled JSON export of the retained frames, oldest first.
    #[must_use]
    pub fn dump_json(&self) -> String {
        let mut out = String::from("{\"frames\":[");
        for (i, f) in self.frames.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"seq\":{},\"at_us\":{},\"window\":{}}}",
                f.seq,
                f.at_us,
                f.window.to_json().trim_end()
            ));
        }
        out.push_str("\n]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HealthConfig, HealthMonitor, Registry};

    /// The `"seq":N` values of a dump, in order.
    fn seqs(json: &str) -> Vec<u64> {
        json.split("\"seq\":")
            .skip(1)
            .map(|s| s[..s.find(',').unwrap()].parse().unwrap())
            .collect()
    }

    #[test]
    fn frames_are_windowed_deltas() {
        let r = Registry::new();
        let mut fr = FlightRecorder::new(8);
        r.counter("seg_frames_total").add(5);
        fr.record(1, r.snapshot());
        r.counter("seg_frames_total").add(3);
        fr.record(2, r.snapshot());
        let json = fr.dump_json();
        assert_eq!(seqs(&json), vec![1, 2]);
        // First frame is cumulative, second covers only the window.
        let second = json.rfind("\"seq\":2").unwrap();
        assert!(json[..second].contains("\"seg_frames_total\": 5"), "{json}");
        assert!(json[second..].contains("\"seg_frames_total\": 3"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_total() {
        let r = Registry::new();
        let mut fr = FlightRecorder::new(3);
        for at in 0..7 {
            fr.record(at, r.snapshot());
        }
        assert_eq!(fr.frames_total(), 7);
        assert_eq!(seqs(&fr.dump_json()), vec![5, 6, 7]);
    }

    #[test]
    fn tick_if_due_respects_interval() {
        // The history clock records one frame per interval, however
        // many request completions ask in between.
        let r = Registry::new();
        let m = HealthMonitor::new(HealthConfig::default());
        let snap = || r.snapshot();
        assert!(m.tick_if_due(snap), "the first tick is always due");
        assert!(!m.tick_if_due(snap), "inside the interval: no frame");
        assert_eq!(m.frames_total(), 1);
        m.tick_at(snap(), m.now_us() + FLIGHT_INTERVAL_US);
        assert!(
            !m.tick_if_due(snap),
            "an explicit tick restarts the interval"
        );
        assert_eq!(m.frames_total(), 2);
    }

    #[test]
    fn empty_dump_encodes_cleanly() {
        let json = FlightRecorder::new(FLIGHT_CAPACITY).dump_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"frames\":["));
    }
}
