//! Per-connection state shared by the event loop and the workers, the
//! one routine that writes a socket, and the reactor's aggregate
//! statistics.
//!
//! A socket connection's `TcpStream` lives here, in the shared [`Conn`]
//! (one fd per connection), because two threads reach it: the loop reads
//! it, and **whoever holds the connection's `out` lock writes it** — a
//! worker right after it queued a response, or the loop on `EPOLLOUT`
//! when the peer made a worker's write block. Everything a writer must
//! know to continue where the last one stopped is in [`OutQ`], under that
//! lock; [`OutQ::write_to`] is the only code that writes a socket.
//!
//! `out` is a leaf lock: it is never held across `inject`, `schedule`,
//! `request_close` or a handler call (only across the socket write and
//! the atomics of the accounting).

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use super::{ConnId, Inner};
use crate::framing::{self, PREFIX_LEN};
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
    pub(super) socket_reads: AtomicU64,
    pub(super) socket_writes: AtomicU64,
    pub(super) loop_wakes: AtomicU64,
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

    /// `read` calls made on connection sockets. A request that arrives
    /// in one segment costs one.
    #[must_use]
    pub fn socket_reads_total(&self) -> u64 {
        self.socket_reads.load(Ordering::Relaxed)
    }

    /// `write_vectored` calls made on connection sockets, by workers and
    /// the loop together. Against [`frames_out_total`] it reads "writes
    /// per frame out": at most 1 while peers keep up (the frames of one
    /// response leave in one call), above 1 when sockets block mid-frame.
    ///
    /// [`frames_out_total`]: ReactorStats::frames_out_total
    #[must_use]
    pub fn socket_writes_total(&self) -> u64 {
        self.socket_writes.load(Ordering::Relaxed)
    }

    /// Notes workers posted to the event loop, each waking it through
    /// the self-pipe: a blocked socket handed over, a paused read
    /// resumed, a drain deadline armed, a connection torn down. A
    /// request served to a peer that keeps reading posts none, so in
    /// steady state a rising count means peers are not reading.
    #[must_use]
    pub fn loop_wakes_total(&self) -> u64 {
        self.loop_wakes.load(Ordering::Relaxed)
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
    /// Socket: the loop reads it, the holder of `out` writes it
    /// ([`OutQ::write_to`]). The one fd of the connection; it closes
    /// with the last `Arc<Conn>`, after `Note::Destroy` shut it down.
    Fd { stream: TcpStream },
    /// Virtual: workers push straight into the peer's receive queue.
    Virtual { peer: Arc<VirtQueue> },
}

/// How a socket write pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Written {
    /// Every queued frame is with the kernel.
    Drained,
    /// The socket would block; `blocked` is set and the rest stays
    /// queued for whoever holds the lock after `EPOLLOUT`.
    Blocked,
    /// The socket failed; the connection is to be aborted.
    Broken,
}

/// Frames one `write_vectored` gathers (two slices each; far below the
/// kernel's `IOV_MAX` of 1024, and a hot response is two frames).
const GATHER_FRAMES: usize = 16;

/// Outbound queue guarded state.
#[derive(Default)]
pub(super) struct OutQ {
    /// Undelivered frames, oldest first. A frame stays at the front
    /// until its last byte is written.
    pub(super) frames: VecDeque<Vec<u8>>,
    /// Payload bytes of `frames`.
    pub(super) bytes: usize,
    /// Wire bytes (4-byte prefix, then payload) of the front frame a
    /// socket write already took: where the next writer continues.
    front_written: usize,
    /// The sink reported "full"/`WouldBlock`; cleared when it has room
    /// again (the loop on `EPOLLOUT`, the virtq push that succeeds).
    /// While set on a socket, workers leave writing to the loop.
    pub(super) blocked: bool,
    pub(super) blocked_since: Option<Instant>,
}

impl OutQ {
    pub(super) fn undelivered(&self) -> bool {
        !self.frames.is_empty()
    }

    /// The sink refused a frame: remember since when.
    pub(super) fn note_blocked(&mut self) {
        self.blocked = true;
        self.blocked_since.get_or_insert_with(Instant::now);
    }

    /// Drops every queued frame (a close that could not deliver them),
    /// a partly written front frame included.
    pub(super) fn discard(&mut self, inner: &Inner) {
        for frame in self.frames.drain(..) {
            inner.charge_dropped(frame.len());
        }
        self.bytes = 0;
        self.front_written = 0;
    }

    /// Writes queued frames to `stream` until the queue is empty or the
    /// socket refuses: the prefixes and payloads of up to
    /// [`GATHER_FRAMES`] frames go to the kernel in one `write_vectored`
    /// — no per-frame copy, one syscall for a whole response — and the
    /// queue advances across whatever the kernel took. Each frame that
    /// completes is charged as sent and ends a pending stall. The caller
    /// holds the connection's `out` lock, which is what makes it the
    /// socket's only writer.
    pub(super) fn write_to(&mut self, mut stream: impl Write, inner: &Inner) -> Written {
        while !self.frames.is_empty() {
            let mut prefixes = [[0u8; PREFIX_LEN]; GATHER_FRAMES];
            for (prefix, frame) in prefixes.iter_mut().zip(&self.frames) {
                let Ok(bytes) = framing::prefix(frame.len()) else {
                    return Written::Broken; // no prefix can carry it
                };
                *prefix = bytes;
            }
            let mut slices = [IoSlice::new(&[]); 2 * GATHER_FRAMES];
            let mut skip = self.front_written;
            for (i, (prefix, frame)) in prefixes.iter().zip(&self.frames).enumerate() {
                let head = skip.min(PREFIX_LEN);
                let body = skip - head;
                slices[2 * i] = IoSlice::new(&prefix[head..]);
                slices[2 * i + 1] = IoSlice::new(&frame[body..]);
                skip = 0;
            }
            let gathered = 2 * self.frames.len().min(GATHER_FRAMES);
            inner.stats.socket_writes.fetch_add(1, Ordering::Relaxed);
            match stream.write_vectored(&slices[..gathered]) {
                Ok(0) => return Written::Broken,
                Ok(n) => self.advance(n, inner),
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => {
                    self.note_blocked();
                    return Written::Blocked;
                }
                Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Written::Broken,
            }
        }
        Written::Drained
    }

    /// The kernel took `n` more wire bytes off the front of the queue.
    fn advance(&mut self, mut n: usize, inner: &Inner) {
        while let Some(front) = self.frames.front() {
            let left = PREFIX_LEN + front.len() - self.front_written;
            if n < left {
                self.front_written += n;
                return;
            }
            n -= left;
            let len = front.len();
            self.frames.pop_front();
            self.bytes -= len;
            self.front_written = 0;
            inner.charge_sent(len);
            inner.note_stall(self.blocked_since.take());
        }
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
    /// The socket of a socket connection.
    pub(super) fn stream(&self) -> Option<&TcpStream> {
        match &self.sink {
            Sink::Fd { stream } => Some(stream),
            Sink::Virtual { .. } => None,
        }
    }

    pub(super) fn state(&self) -> ConnState {
        decode_state(self.state.load(Ordering::Relaxed))
    }

    /// Moves the connection to `to` unless it is there already or
    /// closed. One compare-and-swap, so that a worker and the event loop
    /// changing the state at once move each gauge exactly once.
    pub(super) fn set_state(&self, stats: &ReactorStats, to: ConnState) {
        let moved = self
            .state
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                (s != to as u8 && s != ConnState::Closed as u8).then_some(to as u8)
            });
        if let Ok(from) = moved {
            stats.transition(decode_state(from), to);
        }
    }
}

fn decode_state(state: u8) -> ConnState {
    match state {
        0 => ConnState::Accepting,
        1 => ConnState::Handshaking,
        2 => ConnState::Streaming,
        3 => ConnState::Draining,
        _ => ConnState::Closed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{FrameHandler, FrameOutcome, ReactorConfig, ReactorHandle};
    use std::io;

    struct Unused;

    impl FrameHandler for Unused {
        fn on_frame(&self, _conn: ConnId, _frame: Vec<u8>) -> FrameOutcome {
            FrameOutcome::default()
        }
    }

    /// A socket that takes `step` bytes per call and refuses every other
    /// call.
    struct Dribble {
        got: Vec<u8>,
        step: usize,
        refuse: bool,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if std::mem::replace(&mut self.refuse, true) {
                self.refuse = false;
                return Err(ErrorKind::WouldBlock.into());
            }
            let mut left = self.step;
            for buf in bufs {
                let n = buf.len().min(left);
                self.got.extend_from_slice(&buf[..n]);
                left -= n;
            }
            Ok(self.step - left)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Wherever the kernel stops taking bytes — inside a prefix, inside
    /// a payload, on a frame boundary, across more frames than one call
    /// gathers — the next writer continues at exactly that byte, and the
    /// accounting ends where it started.
    #[test]
    fn a_write_continues_where_the_last_one_stopped() {
        let reactor = ReactorHandle::start(ReactorConfig::default(), Arc::new(Unused));
        let inner = &reactor.inner;
        let mut frames = vec![Vec::new(), b"a".to_vec(), vec![7u8; 100], Vec::new()];
        frames.extend((0..2 * GATHER_FRAMES).map(|i| vec![i as u8; i]));
        let wire = framing::wire(&frames);
        let payload: usize = frames.iter().map(Vec::len).sum();

        for step in (1..=PREFIX_LEN + 101).chain([wire.len()]) {
            let sent_before = inner.stats.frames_out_total();
            let mut out = OutQ {
                frames: frames.iter().cloned().collect(),
                bytes: payload,
                ..OutQ::default()
            };
            inner
                .stats
                .outq_bytes
                .fetch_add(payload as u64, Ordering::Relaxed);
            let mut socket = Dribble {
                got: Vec::new(),
                step,
                refuse: false,
            };
            loop {
                match out.write_to(&mut socket, inner) {
                    Written::Drained => break,
                    Written::Blocked => {
                        assert!(out.blocked && out.blocked_since.is_some());
                        assert!(out.undelivered());
                        out.blocked = false; // what EPOLLOUT does
                    }
                    Written::Broken => panic!("a dribbling socket is not a broken one"),
                }
            }
            assert!(socket.got == wire, "stream differs at {step} bytes a call");
            assert_eq!((out.bytes, out.front_written), (0, 0));
            assert_eq!(
                inner.stats.frames_out_total() - sent_before,
                frames.len() as u64
            );
            assert_eq!(inner.stats.outq_bytes(), 0);
        }
    }
}
