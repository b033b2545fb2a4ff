//! Per-connection state shared by the event loop and the workers, and
//! the reactor's aggregate statistics.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use super::ConnId;
use crate::virtq::VirtQueue;

/// Connection lifecycle states (the `seg_net_conns{state=...}` gauge
/// family and the `Accepting → Handshaking → Streaming → Draining →
/// Closed` machine in `DESIGN.md` §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ConnState {
    /// Accepted (or virtually connected); no bytes seen yet.
    Accepting = 0,
    /// First frame seen; the TLS handshake is in flight.
    Handshaking = 1,
    /// The session authenticated; normal request/response traffic.
    Streaming = 2,
    /// Closing: flushing the outbound queue before teardown.
    Draining = 3,
    /// Fully torn down (terminal).
    Closed = 4,
}

/// Human-readable labels for each state, index-aligned with
/// [`ConnState`] (used for metric labels).
pub const CONN_STATE_LABELS: [&str; 5] = [
    "accepting",
    "handshaking",
    "streaming",
    "draining",
    "closed",
];

impl ConnState {
    /// Every state, index-aligned with [`CONN_STATE_LABELS`] (metric
    /// exporters iterate this to emit stable gauge families).
    pub const ALL: [ConnState; 5] = [
        ConnState::Accepting,
        ConnState::Handshaking,
        ConnState::Streaming,
        ConnState::Draining,
        ConnState::Closed,
    ];

    /// The state's metric label (`"accepting"`, `"streaming"`, ...).
    #[must_use]
    pub fn label(self) -> &'static str {
        CONN_STATE_LABELS[self as usize]
    }
}

/// Aggregate reactor statistics: per-state connection gauges plus
/// monotonic lifecycle and traffic counters — the one accounting of
/// every connection and outbound byte. All plain atomics — safe to read
/// from any thread, and exported as the `seg_net_*` families; byte
/// *counts* and *durations* only, never frame contents.
#[derive(Debug, Default)]
pub struct ReactorStats {
    state_gauges: [AtomicU64; 5],
    pub(super) accepted: AtomicU64,
    pub(super) shed: AtomicU64,
    pub(super) reaped_idle: AtomicU64,
    pub(super) closed: AtomicU64,
    pub(super) frames_in: AtomicU64,
    pub(super) frames_out: AtomicU64,
    pub(super) bytes_in: AtomicU64,
    pub(super) bytes_out: AtomicU64,
    pub(super) outq_bytes: AtomicU64,
    outq_highwater: AtomicU64,
    pub(super) dispatch_depth: AtomicU64,
    pub(super) protocol_errors: AtomicU64,
    pub(super) send_stalls: AtomicU64,
    pub(super) send_stall_ns: AtomicU64,
    /// µs since `epoch` (the first send) of the last completed send,
    /// stored +1 so that 0 means never.
    last_send_us: AtomicU64,
    epoch: OnceLock<Instant>,
}

impl ReactorStats {
    /// Live connections currently in `state`.
    #[must_use]
    pub fn conns_in(&self, state: ConnState) -> u64 {
        self.state_gauges[state as usize].load(Ordering::Relaxed)
    }

    /// Live connections in any non-terminal state.
    #[must_use]
    pub fn live_conns(&self) -> u64 {
        self.conns_in(ConnState::Accepting)
            + self.conns_in(ConnState::Handshaking)
            + self.conns_in(ConnState::Streaming)
            + self.conns_in(ConnState::Draining)
    }

    /// Connections ever admitted (TCP accepts + virtual connects).
    #[must_use]
    pub fn accepted_total(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections refused at the connection cap (or by `on_open`).
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Connections closed by the idle-timeout reaper.
    #[must_use]
    pub fn reaped_idle_total(&self) -> u64 {
        self.reaped_idle.load(Ordering::Relaxed)
    }

    /// Connections fully torn down.
    #[must_use]
    pub fn closed_total(&self) -> u64 {
        self.closed.load(Ordering::Relaxed)
    }

    /// Complete frames received from peers.
    #[must_use]
    pub fn frames_in_total(&self) -> u64 {
        self.frames_in.load(Ordering::Relaxed)
    }

    /// Frames fully delivered to peers.
    #[must_use]
    pub fn frames_out_total(&self) -> u64 {
        self.frames_out.load(Ordering::Relaxed)
    }

    /// Payload bytes received from peers.
    #[must_use]
    pub fn bytes_in_total(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    /// Payload bytes fully delivered to peers.
    #[must_use]
    pub fn bytes_out_total(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// Bytes currently queued outbound across all connections.
    #[must_use]
    pub fn outq_bytes(&self) -> u64 {
        self.outq_bytes.load(Ordering::Relaxed)
    }

    /// The largest outbound queue any single connection ever reached —
    /// the backpressure proof: it must stay at or below the configured
    /// cap plus one frame.
    #[must_use]
    pub fn outq_highwater_bytes(&self) -> u64 {
        self.outq_highwater.load(Ordering::Relaxed)
    }

    /// Connections currently queued for a worker.
    #[must_use]
    pub fn dispatch_depth(&self) -> u64 {
        self.dispatch_depth.load(Ordering::Relaxed)
    }

    /// Framing violations (oversized length prefixes) that closed a
    /// connection.
    #[must_use]
    pub fn protocol_errors_total(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
    }

    /// Sends that sat blocked on a peer for at least
    /// [`DEFAULT_SEND_STALL`](crate::DEFAULT_SEND_STALL).
    #[must_use]
    pub fn send_stalls_total(&self) -> u64 {
        self.send_stalls.load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent inside stalled sends.
    #[must_use]
    pub fn send_stall_ns_total(&self) -> u64 {
        self.send_stall_ns.load(Ordering::Relaxed)
    }

    /// Microseconds since the last completed send, or 0 before the
    /// first. A large value alongside live connections and queued bytes
    /// reads "wedged", not "idle".
    #[must_use]
    pub fn idle_us(&self) -> u64 {
        match self.last_send_us.load(Ordering::Relaxed) {
            0 => 0,
            last => self.now_us().saturating_sub(last),
        }
    }

    fn now_us(&self) -> u64 {
        let since = self.epoch.get_or_init(Instant::now).elapsed();
        since.as_micros().min(u64::MAX as u128) as u64 + 1
    }

    pub(super) fn stamp_send(&self) {
        self.last_send_us.store(self.now_us(), Ordering::Relaxed);
    }

    pub(super) fn enter(&self, state: ConnState) {
        self.state_gauges[state as usize].fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn transition(&self, from: ConnState, to: ConnState) {
        self.state_gauges[from as usize].fetch_sub(1, Ordering::Relaxed);
        self.state_gauges[to as usize].fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn note_highwater(&self, bytes: u64) {
        self.outq_highwater.fetch_max(bytes, Ordering::Relaxed);
    }
}

/// How a close was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum CloseMode {
    /// Flush the outbound queue first.
    Drain,
    /// Tear down immediately, dropping queued output.
    Abort,
}

/// The inbound side of a connection as workers see it.
pub(super) enum Inbound {
    /// Socket connection: the event loop parses frames into this inbox.
    Fd { inbox: Mutex<VecDeque<Vec<u8>>> },
    /// Virtual connection: the peer's send queue *is* the inbox.
    Virtual { q: Arc<VirtQueue> },
}

/// Where flushed outbound frames go.
pub(super) enum Sink {
    /// Socket: only the event loop may write; workers post flush notes.
    Fd,
    /// Virtual: workers push straight into the peer's receive queue.
    Virtual { peer: Arc<VirtQueue> },
}

/// Outbound queue guarded state.
#[derive(Default)]
pub(super) struct OutQ {
    pub(super) frames: VecDeque<Vec<u8>>,
    pub(super) bytes: usize,
    /// The event loop holds a frame it popped and has not finished
    /// writing: still undelivered output, though no longer in `frames`.
    pub(super) in_flight: bool,
    /// The sink reported "full"/`WouldBlock`; cleared when it drains.
    pub(super) blocked: bool,
    pub(super) blocked_since: Option<Instant>,
}

impl OutQ {
    pub(super) fn undelivered(&self) -> bool {
        self.in_flight || !self.frames.is_empty()
    }
}

/// Shared per-connection state (event loop + workers).
pub(super) struct Conn {
    pub(super) id: ConnId,
    pub(super) state: AtomicU8,
    pub(super) scheduled: AtomicBool,
    pub(super) wants_drain: AtomicBool,
    pub(super) closing: AtomicBool,
    pub(super) close_mode: Mutex<CloseMode>,
    pub(super) close_done: AtomicBool,
    pub(super) reading_paused: AtomicBool,
    pub(super) last_activity_ms: AtomicU64,
    /// When a blocked drain-close gives up (reactor ms; 0 = not armed).
    pub(super) drain_deadline_ms: AtomicU64,
    pub(super) inbound: Inbound,
    pub(super) sink: Sink,
    pub(super) out: Mutex<OutQ>,
}

impl Conn {
    pub(super) fn state(&self) -> ConnState {
        match self.state.load(Ordering::Relaxed) {
            0 => ConnState::Accepting,
            1 => ConnState::Handshaking,
            2 => ConnState::Streaming,
            3 => ConnState::Draining,
            _ => ConnState::Closed,
        }
    }

    pub(super) fn set_state(&self, stats: &ReactorStats, to: ConnState) {
        let from = self.state();
        if from == to || from == ConnState::Closed {
            return;
        }
        self.state.store(to as u8, Ordering::Relaxed);
        stats.transition(from, to);
    }
}
