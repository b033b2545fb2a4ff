//! `seg-reactor`: the event-driven C10K front end.
//!
//! SeGShare's untrusted half is deliberately nothing but a TLS-record
//! mover (paper §IV): it owns sockets, shuttles opaque frames into the
//! enclave, and ships the enclave's frames back out. That makes it a
//! textbook fit for an event-driven reactor — no per-connection thread,
//! no blocking I/O, connection count O(file descriptors):
//!
//! * **one event loop** multiplexes every socket through `epoll`
//!   (raw-syscall shim in the private `sys` module; no `libc`
//!   dependency) plus the
//!   in-process virtual connections used by tests and benchmarks;
//! * **a bounded worker pool** runs the enclave work. Each connection
//!   is scheduled on at most one worker at a time, so frames of one
//!   TLS channel are processed strictly in order while different
//!   connections proceed in parallel — the pool size, not the
//!   connection count, is the concurrency knob;
//! * **per-connection state machine**: `Accepting → Handshaking →
//!   Streaming → Draining → Closed`, with byte-bounded outbound queues,
//!   lazy (pull-based) download production, inbound backpressure that
//!   closes the TCP window instead of buffering, a timer wheel for
//!   idle reaping and for the deadline of a drain-close whose peer has
//!   stopped reading, and accept shedding above a connection cap.
//!
//! The reactor knows nothing about TLS or the enclave: it moves opaque
//! frames between transports and a [`FrameHandler`] supplied by the
//! host (`segshare`'s untrusted dispatcher). Handler callbacks for one
//! connection never run concurrently — including `on_close`, which is
//! always the last callback a connection sees.

mod sys;
mod timer;

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::virtq::{TryPop, TryPush, VirtQueue};
use crate::{ChannelTransport, NetError, NetMeter, DEFAULT_SEND_STALL, MAX_FRAME};

pub use sys::EPOLL_AVAILABLE;

/// How long a drain-close may wait on its peer before it turns into an
/// abort (to the timer wheel's precision of one slot): a peer that never
/// reads cannot hold a connection slot for ever.
const DRAIN_DEADLINE_MS: u64 = 5_000;

/// Identifies one connection for the lifetime of a reactor. Never
/// reused within a run.
pub type ConnId = u64;

/// What a [`FrameHandler`] callback wants done with its connection.
#[derive(Debug, Default)]
pub struct FrameOutcome {
    /// Frames to enqueue outbound, in order.
    pub frames: Vec<Vec<u8>>,
    /// The session finished its handshake; move the connection to the
    /// `Streaming` state (idempotent).
    pub established: bool,
    /// The handler has more lazily-produced frames (a streaming
    /// download): call [`FrameHandler::on_drain`] again once the
    /// outbound queue falls below its low-water mark.
    pub more: bool,
    /// Fatal for the session: flush what is queued, then close.
    pub close: bool,
}

/// The host side of the reactor: receives opaque frames, returns
/// opaque frames. Implemented by `segshare`'s untrusted dispatcher,
/// which owns the per-connection enclave sessions.
///
/// Per connection, callbacks are strictly serialized (never two at
/// once, `on_close` always last); across connections they run
/// concurrently on the worker pool.
pub trait FrameHandler: Send + Sync + 'static {
    /// A connection was accepted and assigned `conn`. Returning `false`
    /// refuses it (counted as a shed).
    fn on_open(&self, conn: ConnId) -> bool {
        let _ = conn;
        true
    }

    /// One complete inbound frame arrived on `conn`.
    fn on_frame(&self, conn: ConnId, frame: Vec<u8>) -> FrameOutcome;

    /// The outbound queue drained below its low-water mark and the
    /// handler previously reported `more` — produce the next batch.
    fn on_drain(&self, conn: ConnId) -> FrameOutcome {
        let _ = conn;
        FrameOutcome::default()
    }

    /// The connection is gone (peer disconnect, idle reap, shed after
    /// open, fatal error, shutdown). Always the final callback.
    fn on_close(&self, conn: ConnId) {
        let _ = conn;
    }

    /// A connection was refused before `on_open` because the reactor is
    /// at its connection cap.
    fn on_shed(&self) {}
}

/// Reactor tuning. The defaults suit the TCP example and tests; the
/// perf gate and `OPERATIONS.md` discuss how each knob trades memory
/// for throughput.
#[derive(Clone)]
pub struct ReactorConfig {
    /// Worker threads running enclave work (the saturation knob).
    pub workers: usize,
    /// Hard cap on live connections; accepts beyond it are shed.
    pub max_conns: usize,
    /// Complete inbound frames buffered per connection before the
    /// reactor stops reading its socket (TCP backpressure).
    pub inbox_frames: usize,
    /// Outbound queue byte cap per connection. Responses always fit
    /// (inbound processing pauses at the cap); lazy download production
    /// resumes only below the low-water mark (half the cap).
    pub outbound_bytes: usize,
    /// Close connections idle this long; `Duration::ZERO` disables.
    pub idle_timeout: Duration,
    /// Frames buffered toward an in-process virtual peer before its
    /// reader backpressures the reactor.
    pub virtual_depth: usize,
    /// Saturation meter charged for every outbound byte.
    pub net_meter: Option<Arc<NetMeter>>,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            workers: std::thread::available_parallelism()
                .map_or(2, std::num::NonZeroUsize::get)
                .max(2),
            max_conns: 65_536,
            inbox_frames: 32,
            outbound_bytes: 1 << 20,
            idle_timeout: Duration::from_secs(300),
            virtual_depth: 64,
            net_meter: None,
        }
    }
}

impl std::fmt::Debug for ReactorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorConfig")
            .field("workers", &self.workers)
            .field("max_conns", &self.max_conns)
            .field("idle_timeout", &self.idle_timeout)
            .finish()
    }
}

/// Connection lifecycle states (the `seg_net_conns{state=...}` gauge
/// family and the `Accepting → Handshaking → Streaming → Draining →
/// Closed` machine in `DESIGN.md` §14).
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
/// monotonic lifecycle and traffic counters. All plain atomics — safe
/// to read from any thread, and exported as the `seg_net_*` families.
#[derive(Debug, Default)]
pub struct ReactorStats {
    state_gauges: [AtomicU64; 5],
    accepted: AtomicU64,
    shed: AtomicU64,
    reaped_idle: AtomicU64,
    closed: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    outq_bytes: AtomicU64,
    outq_highwater: AtomicU64,
    dispatch_depth: AtomicU64,
    protocol_errors: AtomicU64,
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

    fn enter(&self, state: ConnState) {
        self.state_gauges[state as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn transition(&self, from: ConnState, to: ConnState) {
        self.state_gauges[from as usize].fetch_sub(1, Ordering::Relaxed);
        self.state_gauges[to as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn note_highwater(&self, bytes: u64) {
        self.outq_highwater.fetch_max(bytes, Ordering::Relaxed);
    }
}

/// How a close was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseMode {
    /// Flush the outbound queue first.
    Drain,
    /// Tear down immediately, dropping queued output.
    Abort,
}

/// The inbound side of a connection as workers see it.
enum Inbound {
    /// Socket connection: the event loop parses frames into this inbox.
    Fd { inbox: Mutex<VecDeque<Vec<u8>>> },
    /// Virtual connection: the peer's send queue *is* the inbox.
    Virtual { q: Arc<VirtQueue> },
}

/// Where flushed outbound frames go.
enum Sink {
    /// Socket: only the event loop may write; workers post flush notes.
    Fd,
    /// Virtual: workers push straight into the peer's receive queue.
    Virtual { peer: Arc<VirtQueue> },
}

/// Outbound queue guarded state.
#[derive(Default)]
struct OutQ {
    frames: VecDeque<Vec<u8>>,
    bytes: usize,
    /// The event loop holds a frame it popped and has not finished
    /// writing: still undelivered output, though no longer in `frames`.
    in_flight: bool,
    /// The sink reported "full"/`WouldBlock`; cleared when it drains.
    blocked: bool,
    blocked_since: Option<Instant>,
}

impl OutQ {
    fn undelivered(&self) -> bool {
        self.in_flight || !self.frames.is_empty()
    }
}

/// Shared per-connection state (event loop + workers).
struct Conn {
    id: ConnId,
    state: AtomicU8,
    scheduled: AtomicBool,
    wants_drain: AtomicBool,
    closing: AtomicBool,
    close_mode: Mutex<CloseMode>,
    close_done: AtomicBool,
    reading_paused: AtomicBool,
    last_activity_ms: AtomicU64,
    /// When a blocked drain-close gives up (reactor ms; 0 = not armed).
    drain_deadline_ms: AtomicU64,
    inbound: Inbound,
    sink: Sink,
    out: Mutex<OutQ>,
}

impl Conn {
    fn state(&self) -> ConnState {
        match self.state.load(Ordering::Relaxed) {
            0 => ConnState::Accepting,
            1 => ConnState::Handshaking,
            2 => ConnState::Streaming,
            3 => ConnState::Draining,
            _ => ConnState::Closed,
        }
    }

    fn set_state(&self, stats: &ReactorStats, to: ConnState) {
        let from = self.state();
        if from == to || from == ConnState::Closed {
            return;
        }
        self.state.store(to as u8, Ordering::Relaxed);
        stats.transition(from, to);
    }
}

/// Notes workers inject for the event loop (socket work only the loop
/// may do).
enum Note {
    /// Try to write `conn`'s outbound queue to its socket.
    Flush(ConnId),
    /// The inbox drained; resume reading a paused socket.
    ReadResume(ConnId),
    /// Tear down the socket + epoll registration of a closed conn.
    Destroy(ConnId),
    /// A drain-close is waiting on its peer; put its deadline on the wheel.
    DrainDeadline(ConnId),
}

/// Everything shared between the event loop, workers, and handles.
struct Inner {
    cfg: ReactorConfig,
    stats: Arc<ReactorStats>,
    handler: Arc<dyn FrameHandler>,
    conns: Mutex<HashMap<ConnId, Arc<Conn>>>,
    conn_count: AtomicUsize,
    ready: Mutex<VecDeque<Arc<Conn>>>,
    ready_cv: Condvar,
    notes: Mutex<VecDeque<Note>>,
    /// New listeners/virtual conns handed to the loop.
    intake: Mutex<Vec<Intake>>,
    waker: Waker,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    epoch: Instant,
}

enum Intake {
    Listener(TcpListener),
    VirtualConn(Arc<Conn>),
}

/// Wakes the event loop out of its poll/park.
#[derive(Clone)]
struct Waker {
    kind: Arc<WakerKind>,
}

enum WakerKind {
    /// Condvar park (no sockets registered): flag + notify.
    Park { flag: Mutex<bool>, cv: Condvar },
    /// Epoll: write one byte into the self-pipe.
    Pipe {
        tx: Mutex<std::os::unix::net::UnixStream>,
        pending: AtomicBool,
    },
}

impl Waker {
    fn wake(&self) {
        match &*self.kind {
            WakerKind::Park { flag, cv } => {
                *flag.lock().unwrap() = true;
                cv.notify_one();
            }
            WakerKind::Pipe { tx, pending } => {
                if pending.swap(true, Ordering::AcqRel) {
                    return; // a wake byte is already in flight
                }
                let _ = tx.lock().unwrap().write(&[1u8]);
            }
        }
    }
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    /// Queues `conn` for a worker unless it is already queued/running.
    fn schedule(self: &Arc<Inner>, conn: &Arc<Conn>) {
        if conn.scheduled.swap(true, Ordering::AcqRel) {
            return;
        }
        self.stats.dispatch_depth.fetch_add(1, Ordering::Relaxed);
        self.ready.lock().unwrap().push_back(Arc::clone(conn));
        self.ready_cv.notify_one();
    }

    fn inject(&self, note: Note) {
        self.notes.lock().unwrap().push_back(note);
        self.waker.wake();
    }

    /// Whether a worker turn for `conn` could get anything done now.
    ///
    /// Output the sink refused is not such work: the sink says when it
    /// has room again (the virtq drain hook, or `EPOLLOUT` and then
    /// `write_ready`) and that reschedules the connection. A worker that
    /// re-armed itself instead would spin on the same full sink.
    fn has_work(&self, conn: &Conn) -> bool {
        if conn.close_done.load(Ordering::Acquire) {
            return false;
        }
        let (queued, queued_bytes) = {
            let out = conn.out.lock().unwrap();
            (out.undelivered(), out.bytes)
        };
        if conn.closing.load(Ordering::Acquire) {
            // An abort finalizes at once, a drain once the queue is empty.
            return !queued
                || *conn.close_mode.lock().unwrap() == CloseMode::Abort
                || self.sink_has_room(conn);
        }
        if queued_bytes >= self.cfg.outbound_bytes {
            // `service` consumes nothing at the cap.
            return self.sink_has_room(conn);
        }
        let inbound_ready = match &conn.inbound {
            Inbound::Fd { inbox } => !inbox.lock().unwrap().is_empty(),
            Inbound::Virtual { q } => !q.is_empty() || q.is_closed(),
        };
        if inbound_ready {
            return true;
        }
        conn.wants_drain.load(Ordering::Acquire) && queued_bytes < self.cfg.outbound_bytes / 2
    }

    /// Whether a worker's `flush` could move a queued frame right now.
    /// Checked after `scheduled` is cleared, so a drain hook that fired
    /// while the worker still held the connection is not lost.
    fn sink_has_room(&self, conn: &Conn) -> bool {
        match &conn.sink {
            // Only the loop writes sockets; it reschedules when the
            // queue empties.
            Sink::Fd => false,
            // A closed peer counts: the push fails and aborts the close.
            Sink::Virtual { peer } => !peer.is_full(),
        }
    }

    /// Requests a close; the worker path finalizes it (so `on_close`
    /// stays serialized with the other callbacks).
    fn request_close(self: &Arc<Inner>, conn: &Arc<Conn>, mode: CloseMode) {
        {
            let mut m = conn.close_mode.lock().unwrap();
            if mode == CloseMode::Abort {
                *m = CloseMode::Abort;
            }
        }
        conn.closing.store(true, Ordering::Release);
        conn.set_state(&self.stats, ConnState::Draining);
        self.schedule(conn);
    }

    /// Charges an outbound enqueue to the stats + meter.
    fn charge_queued(&self, len: usize) {
        self.stats
            .outq_bytes
            .fetch_add(len as u64, Ordering::Relaxed);
        if let Some(m) = &self.cfg.net_meter {
            m.charge_queued(len as u64);
        }
    }

    /// A frame finished its journey to the peer.
    fn charge_sent(&self, len: usize) {
        self.stats
            .outq_bytes
            .fetch_sub(len as u64, Ordering::Relaxed);
        self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_out
            .fetch_add(len as u64, Ordering::Relaxed);
        if let Some(m) = &self.cfg.net_meter {
            m.charge_sent(len as u64);
        }
    }

    /// Queued bytes evaporated (close with a non-empty queue).
    fn charge_dropped(&self, len: usize) {
        self.stats
            .outq_bytes
            .fetch_sub(len as u64, Ordering::Relaxed);
        if let Some(m) = &self.cfg.net_meter {
            m.charge_queued_gone(len as u64);
        }
    }

    fn note_stall(&self, since: Option<Instant>) {
        let Some(since) = since else { return };
        let blocked = since.elapsed();
        if blocked >= DEFAULT_SEND_STALL {
            if let Some(m) = &self.cfg.net_meter {
                m.charge_stall(blocked);
            }
        }
    }
}

// ------------------------------------------------------------ workers

/// Frames one worker turn may process before requeueing the connection
/// (fairness: a busy pipeline cannot starve other connections).
const FRAMES_PER_TURN: usize = 16;

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let conn = {
            let mut ready = inner.ready.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(conn) = ready.pop_front() {
                    inner.stats.dispatch_depth.fetch_sub(1, Ordering::Relaxed);
                    break conn;
                }
                ready = inner.ready_cv.wait(ready).unwrap();
            }
        };
        service(inner, &conn);
        conn.scheduled.store(false, Ordering::Release);
        if inner.has_work(&conn) {
            inner.schedule(&conn);
        }
    }
}

/// One scheduled turn for one connection. Never runs concurrently with
/// itself for the same connection (the `scheduled` flag guarantees it).
fn service(inner: &Arc<Inner>, conn: &Arc<Conn>) {
    let mut budget = FRAMES_PER_TURN;
    loop {
        if conn.close_done.load(Ordering::Acquire) {
            return;
        }
        flush(inner, conn);
        if conn.closing.load(Ordering::Acquire) {
            try_finalize(inner, conn);
            return;
        }
        if budget == 0 {
            return; // requeued by the caller's has_work check
        }
        let low_water = inner.cfg.outbound_bytes / 2;
        let out_bytes = conn.out.lock().unwrap().bytes;
        // Lazy production (streaming downloads) before new requests.
        if conn.wants_drain.swap(false, Ordering::AcqRel) {
            if out_bytes < low_water {
                let outcome = inner.handler.on_drain(conn.id);
                apply(inner, conn, outcome);
                budget -= 1;
                continue;
            }
            conn.wants_drain.store(true, Ordering::Release);
        }
        if out_bytes >= inner.cfg.outbound_bytes {
            // Outbound is at its cap: stop consuming requests until the
            // flush path drains it (the drain reschedules us).
            return;
        }
        match pop_inbound(conn) {
            InboundItem::Frame(frame) => {
                // Popping may reopen a paused socket (inbox was full).
                if conn.reading_paused.load(Ordering::Acquire) {
                    if let Inbound::Fd { inbox } = &conn.inbound {
                        if inbox.lock().unwrap().len() <= inner.cfg.inbox_frames / 2 {
                            inner.inject(Note::ReadResume(conn.id));
                        }
                    }
                }
                inner.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                inner
                    .stats
                    .bytes_in
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                conn.last_activity_ms
                    .store(inner.now_ms(), Ordering::Relaxed);
                if conn.state() == ConnState::Accepting {
                    conn.set_state(&inner.stats, ConnState::Handshaking);
                }
                let outcome = inner.handler.on_frame(conn.id, frame);
                apply(inner, conn, outcome);
                budget -= 1;
            }
            InboundItem::Empty => return,
            InboundItem::PeerGone => {
                inner.request_close(conn, CloseMode::Drain);
            }
        }
    }
}

enum InboundItem {
    Frame(Vec<u8>),
    Empty,
    PeerGone,
}

fn pop_inbound(conn: &Conn) -> InboundItem {
    match &conn.inbound {
        Inbound::Fd { inbox } => match inbox.lock().unwrap().pop_front() {
            Some(frame) => InboundItem::Frame(frame),
            None => InboundItem::Empty,
        },
        Inbound::Virtual { q } => match q.try_pop() {
            TryPop::Frame(frame) => InboundItem::Frame(frame),
            TryPop::Empty => InboundItem::Empty,
            TryPop::Closed => InboundItem::PeerGone,
        },
    }
}

/// Applies a handler outcome: enqueue frames, advance the state
/// machine, remember lazy production, honor a close request.
fn apply(inner: &Arc<Inner>, conn: &Arc<Conn>, outcome: FrameOutcome) {
    if !outcome.frames.is_empty() {
        let mut out = conn.out.lock().unwrap();
        for frame in outcome.frames {
            inner.charge_queued(frame.len());
            out.bytes += frame.len();
            out.frames.push_back(frame);
        }
        inner.stats.note_highwater(out.bytes as u64);
    }
    if outcome.established {
        conn.set_state(&inner.stats, ConnState::Streaming);
    }
    if outcome.more {
        conn.wants_drain.store(true, Ordering::Release);
    }
    if outcome.close {
        {
            let mut m = conn.close_mode.lock().unwrap();
            *m = CloseMode::Drain;
        }
        conn.closing.store(true, Ordering::Release);
        conn.set_state(&inner.stats, ConnState::Draining);
    }
}

/// Pushes the outbound queue toward the sink. For sockets this posts a
/// flush note (only the loop touches fds); for virtual peers it
/// delivers directly.
fn flush(inner: &Arc<Inner>, conn: &Arc<Conn>) {
    match &conn.sink {
        Sink::Fd => {
            let pending = {
                let out = conn.out.lock().unwrap();
                !out.frames.is_empty()
            };
            if pending {
                inner.inject(Note::Flush(conn.id));
            }
        }
        Sink::Virtual { peer } => {
            let mut out = conn.out.lock().unwrap();
            while let Some(frame) = out.frames.pop_front() {
                let len = frame.len();
                match peer.try_push(frame) {
                    TryPush::Pushed => {
                        out.bytes -= len;
                        out.blocked = false;
                        inner.note_stall(out.blocked_since.take());
                        inner.charge_sent(len);
                    }
                    TryPush::Full(frame) => {
                        out.frames.push_front(frame);
                        out.blocked = true;
                        if out.blocked_since.is_none() {
                            out.blocked_since = Some(Instant::now());
                        }
                        return;
                    }
                    TryPush::Closed => {
                        out.bytes -= len;
                        inner.charge_dropped(len);
                        drop(out);
                        inner.request_close(conn, CloseMode::Abort);
                        return;
                    }
                }
            }
        }
    }
}

/// Completes a requested close once the outbound queue has drained (or
/// immediately for aborts). Runs on a worker so `on_close` is
/// serialized after any in-flight callback.
fn try_finalize(inner: &Arc<Inner>, conn: &Arc<Conn>) {
    let mode = *conn.close_mode.lock().unwrap();
    if mode == CloseMode::Drain {
        flush(inner, conn);
        if conn.out.lock().unwrap().undelivered() {
            // Still draining; the flush path (loop write or the peer's
            // drain hook) reschedules us when it empties, and the
            // deadline does if it never will.
            let deadline = inner.now_ms() + DRAIN_DEADLINE_MS;
            if conn
                .drain_deadline_ms
                .compare_exchange(0, deadline, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                inner.inject(Note::DrainDeadline(conn.id));
            }
            return;
        }
    }
    if conn.close_done.swap(true, Ordering::AcqRel) {
        return;
    }
    // Drop whatever a drain could not deliver.
    {
        let mut out = conn.out.lock().unwrap();
        inner.note_stall(out.blocked_since.take());
        while let Some(frame) = out.frames.pop_front() {
            out.bytes -= frame.len();
            inner.charge_dropped(frame.len());
        }
    }
    conn.set_state(&inner.stats, ConnState::Closed);
    inner.stats.closed.fetch_add(1, Ordering::Relaxed);
    inner.conns.lock().unwrap().remove(&conn.id);
    inner.conn_count.fetch_sub(1, Ordering::Relaxed);
    inner.handler.on_close(conn.id);
    // Last, what an in-process peer can see: once its transport reports
    // the close, the gauges and the handler already agree.
    if let Inbound::Virtual { q } = &conn.inbound {
        q.close();
    }
    if let Sink::Virtual { peer } = &conn.sink {
        peer.close();
    }
    if matches!(conn.sink, Sink::Fd) {
        inner.inject(Note::Destroy(conn.id));
    }
}

// ---------------------------------------------------------- event loop

/// Socket-side per-connection state, owned exclusively by the loop.
struct FdConn {
    stream: TcpStream,
    shared: Arc<Conn>,
    /// Partial inbound frame assembly (length prefix + body).
    rbuf: Vec<u8>,
    /// Partially written outbound wire bytes (prefix + frame).
    wpend: Option<(Vec<u8>, usize)>,
    /// Frame payload length `wpend` carries (for accounting).
    wpend_payload: usize,
    /// Registered interest (EPOLLIN always unless paused; EPOLLOUT
    /// while write-blocked).
    want_write: bool,
}

enum Driver {
    /// Condvar park — virtual connections only.
    Park,
    /// Epoll over sockets plus a self-pipe waker.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Epoll {
        epfd: i32,
        wake_rx: std::os::unix::net::UnixStream,
    },
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl Drop for Driver {
    fn drop(&mut self) {
        #[allow(irrefutable_let_patterns)]
        if let Driver::Epoll { epfd, .. } = self {
            sys::close(*epfd);
        }
    }
}

/// Reserved waker token (connection ids start at 1).
const WAKE_TOKEN: u64 = 0;

struct EventLoop {
    inner: Arc<Inner>,
    driver: Driver,
    listeners: HashMap<u64, TcpListener>,
    fdconns: HashMap<u64, FdConn>,
    wheel: timer::TimerWheel,
    idle_ms: u64,
}

impl EventLoop {
    fn run(&mut self) {
        let mut expired: Vec<u64> = Vec::new();
        loop {
            // Tick only while the wheel can hold something: idle reaping
            // is on, or a draining connection may have a deadline armed.
            let ticking = self.idle_ms > 0 || self.inner.stats.conns_in(ConnState::Draining) > 0;
            self.wait(ticking.then(|| Duration::from_millis(self.wheel.granularity_ms())));
            if self.inner.shutdown.load(Ordering::Acquire) {
                break;
            }
            self.drain_intake();
            self.drain_notes();
            expired.clear();
            self.wheel.advance(self.inner.now_ms(), &mut expired);
            for id in std::mem::take(&mut expired) {
                self.check_timers(id);
            }
        }
        self.teardown();
    }

    fn wait(&mut self, timeout: Option<Duration>) {
        match &mut self.driver {
            Driver::Park => {
                let WakerKind::Park { flag, cv } = &*self.inner.waker.kind else {
                    unreachable!("park driver pairs with park waker");
                };
                let mut woken = flag.lock().unwrap();
                if !*woken {
                    match timeout {
                        Some(t) => {
                            let (guard, _) = cv.wait_timeout(woken, t).unwrap();
                            woken = guard;
                        }
                        None => {
                            woken = cv.wait(woken).unwrap();
                        }
                    }
                }
                *woken = false;
            }
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Driver::Epoll { epfd, wake_rx } => {
                let mut events = [sys::EpollEvent::zeroed(); 256];
                let timeout_ms = timeout.map_or(-1i32, |t| {
                    i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX)
                });
                let n = sys::epoll_pwait(*epfd, &mut events, timeout_ms).unwrap_or_default();
                let epfd = *epfd;
                let mut fired: Vec<(u64, u32)> = Vec::with_capacity(n);
                for ev in &events[..n] {
                    let (token, bits) = ({ ev.data }, { ev.events });
                    if token == WAKE_TOKEN {
                        // Drain the self-pipe and clear the pending flag
                        // so the next wake writes a fresh byte.
                        let mut sink = [0u8; 64];
                        while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
                        if let WakerKind::Pipe { pending, .. } = &*self.inner.waker.kind {
                            pending.store(false, Ordering::Release);
                        }
                        continue;
                    }
                    fired.push((token, bits));
                }
                let _ = epfd;
                for (token, bits) in fired {
                    self.dispatch_event(token, bits);
                }
            }
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn dispatch_event(&mut self, token: u64, bits: u32) {
        if self.listeners.contains_key(&token) {
            self.accept_ready(token);
            return;
        }
        if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.abort_fd(token);
            return;
        }
        if bits & sys::EPOLLOUT != 0 {
            self.write_ready(token);
        }
        if bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
            self.read_ready(token);
        }
    }

    fn drain_intake(&mut self) {
        let intake: Vec<Intake> = std::mem::take(&mut *self.inner.intake.lock().unwrap());
        for item in intake {
            match item {
                Intake::Listener(listener) => self.install_listener(listener),
                Intake::VirtualConn(conn) => {
                    if self.idle_ms > 0 {
                        self.wheel.insert(conn.id, self.idle_ms);
                    }
                }
            }
        }
    }

    fn drain_notes(&mut self) {
        loop {
            let note = self.inner.notes.lock().unwrap().pop_front();
            match note {
                Some(Note::Flush(id)) => self.write_ready(id),
                Some(Note::ReadResume(id)) => self.resume_reading(id),
                Some(Note::Destroy(id)) => {
                    if let Some(fc) = self.fdconns.remove(&id) {
                        self.deregister(&fc);
                        if fc.wpend.is_some() {
                            // An abort cut this frame off mid-write.
                            self.inner.charge_dropped(fc.wpend_payload);
                        }
                        // Socket closes on drop.
                    }
                }
                Some(Note::DrainDeadline(id)) => {
                    self.wheel.insert(id, DRAIN_DEADLINE_MS);
                }
                None => break,
            }
        }
    }

    /// A wheel entry for `id` surfaced: enforce its drain deadline if one
    /// is armed, its idle timeout otherwise.
    fn check_timers(&mut self, id: u64) {
        let conn = {
            let conns = self.inner.conns.lock().unwrap();
            match conns.get(&id) {
                Some(c) => Arc::clone(c),
                None => return, // already gone; lazy wheel entry
            }
        };
        let now = self.inner.now_ms();
        let deadline = conn.drain_deadline_ms.load(Ordering::Relaxed);
        if deadline != 0 {
            if now >= deadline {
                self.inner.request_close(&conn, CloseMode::Abort);
            } else {
                self.wheel.insert(id, deadline - now);
            }
            return;
        }
        if self.idle_ms == 0 {
            return;
        }
        let last = conn.last_activity_ms.load(Ordering::Relaxed);
        if now.saturating_sub(last) >= self.idle_ms {
            self.inner.stats.reaped_idle.fetch_add(1, Ordering::Relaxed);
            self.inner.request_close(&conn, CloseMode::Abort);
        } else {
            // Lazy re-arm one timeout after its most recent activity.
            let remaining = self.idle_ms - now.saturating_sub(last);
            self.wheel.insert(id, remaining.max(1));
        }
    }

    // ------------------------------------------------------- fd plumbing

    fn install_listener(&mut self, listener: TcpListener) {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Driver::Epoll { epfd, .. } = &self.driver {
            use std::os::unix::io::AsRawFd;
            let _ = listener.set_nonblocking(true);
            let token = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
            if sys::epoll_ctl(
                *epfd,
                sys::EPOLL_CTL_ADD,
                listener.as_raw_fd(),
                sys::EPOLLIN,
                token,
            )
            .is_ok()
            {
                self.listeners.insert(token, listener);
            }
            return;
        }
        // No epoll driver: TCP serving is unavailable; drop the listener
        // (the caller was already told via `serve_listener`'s Result).
        drop(listener);
    }

    fn accept_ready(&mut self, token: u64) {
        loop {
            let Some(listener) = self.listeners.get(&token) else {
                return;
            };
            match listener.accept() {
                Ok((stream, _addr)) => self.admit(stream),
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let inner = &self.inner;
        if inner.conn_count.load(Ordering::Relaxed) >= inner.cfg.max_conns {
            inner.stats.shed.fetch_add(1, Ordering::Relaxed);
            inner.handler.on_shed();
            return; // dropped: shed at the cap
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(Conn {
            id,
            state: AtomicU8::new(ConnState::Accepting as u8),
            scheduled: AtomicBool::new(false),
            wants_drain: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            close_mode: Mutex::new(CloseMode::Drain),
            close_done: AtomicBool::new(false),
            reading_paused: AtomicBool::new(false),
            last_activity_ms: AtomicU64::new(inner.now_ms()),
            drain_deadline_ms: AtomicU64::new(0),
            inbound: Inbound::Fd {
                inbox: Mutex::new(VecDeque::new()),
            },
            sink: Sink::Fd,
            out: Mutex::new(OutQ::default()),
        });
        if !inner.handler.on_open(id) {
            inner.stats.shed.fetch_add(1, Ordering::Relaxed);
            inner.handler.on_close(id);
            return;
        }
        inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
        inner.stats.enter(ConnState::Accepting);
        inner.conns.lock().unwrap().insert(id, Arc::clone(&conn));
        inner.conn_count.fetch_add(1, Ordering::Relaxed);
        let registered = {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            {
                use std::os::unix::io::AsRawFd;
                if let Driver::Epoll { epfd, .. } = &self.driver {
                    sys::epoll_ctl(
                        *epfd,
                        sys::EPOLL_CTL_ADD,
                        stream.as_raw_fd(),
                        sys::EPOLLIN | sys::EPOLLRDHUP,
                        id,
                    )
                    .is_ok()
                } else {
                    false
                }
            }
            #[cfg(not(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            )))]
            {
                false
            }
        };
        if !registered {
            self.inner.request_close(&conn, CloseMode::Abort);
            return;
        }
        self.fdconns.insert(
            id,
            FdConn {
                stream,
                shared: conn,
                rbuf: Vec::new(),
                wpend: None,
                wpend_payload: 0,
                want_write: false,
            },
        );
        if self.idle_ms > 0 {
            self.wheel.insert(id, self.idle_ms);
        }
    }

    fn reregister(&self, id: u64) {
        if let Some(fc) = self.fdconns.get(&id) {
            reregister_fc(&self.driver, fc, id);
        }
    }

    fn deregister(&mut self, fc: &FdConn) {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Driver::Epoll { epfd, .. } = &self.driver {
            use std::os::unix::io::AsRawFd;
            let _ = sys::epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fc.stream.as_raw_fd(), 0, 0);
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        let _ = fc;
    }

    fn abort_fd(&mut self, id: u64) {
        if let Some(fc) = self.fdconns.get(&id) {
            let shared = Arc::clone(&fc.shared);
            self.inner.request_close(&shared, CloseMode::Abort);
        }
    }

    fn resume_reading(&mut self, id: u64) {
        let was_paused = self
            .fdconns
            .get(&id)
            .map(|fc| fc.shared.reading_paused.swap(false, Ordering::AcqRel));
        if was_paused == Some(true) {
            self.reregister(id);
            // Level-triggered epoll re-reports buffered kernel data, but
            // bytes already sitting in rbuf need an explicit parse.
            self.read_ready(id);
        }
    }

    fn read_ready(&mut self, id: u64) {
        let Some(fc) = self.fdconns.get_mut(&id) else {
            return;
        };
        if fc.shared.closing.load(Ordering::Acquire) {
            return;
        }
        let mut peer_gone = false;
        let mut protocol_error = false;
        let mut got_frames = false;
        let mut buf = [0u8; 64 * 1024];
        'read: loop {
            // Parse complete frames out of rbuf first so the inbox cap
            // is honored before more bytes are pulled off the socket.
            loop {
                if fc.rbuf.len() < 4 {
                    break;
                }
                let len =
                    u32::from_le_bytes([fc.rbuf[0], fc.rbuf[1], fc.rbuf[2], fc.rbuf[3]]) as usize;
                if len > MAX_FRAME {
                    protocol_error = true;
                    break 'read;
                }
                if fc.rbuf.len() < 4 + len {
                    break;
                }
                let Inbound::Fd { inbox } = &fc.shared.inbound else {
                    unreachable!("fd conn has fd inbound");
                };
                let mut inbox = inbox.lock().unwrap();
                if inbox.len() >= self.inner.cfg.inbox_frames {
                    // Inbox full: pause socket reads; the worker resumes
                    // us once it drains.
                    drop(inbox);
                    fc.shared.reading_paused.store(true, Ordering::Release);
                    let shared = Arc::clone(&fc.shared);
                    reregister_fc(&self.driver, fc, id);
                    if got_frames {
                        self.inner.schedule(&shared);
                    }
                    return;
                }
                let frame = fc.rbuf[4..4 + len].to_vec();
                inbox.push_back(frame);
                drop(inbox);
                fc.rbuf.drain(..4 + len);
                got_frames = true;
            }
            match fc.stream.read(&mut buf) {
                Ok(0) => {
                    peer_gone = true;
                    break;
                }
                Ok(n) => {
                    fc.rbuf.extend_from_slice(&buf[..n]);
                    fc.shared
                        .last_activity_ms
                        .store(self.inner.now_ms(), Ordering::Relaxed);
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    peer_gone = true;
                    break;
                }
            }
        }
        if fc.rbuf.is_empty() && fc.rbuf.capacity() > 64 * 1024 {
            // Keep idle connections cheap: a burst that grew the buffer
            // must not pin its high-water memory forever.
            fc.rbuf = Vec::new();
        }
        let shared = Arc::clone(&fc.shared);
        if got_frames {
            self.inner.schedule(&shared);
        }
        if protocol_error {
            self.inner
                .stats
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            self.inner.request_close(&shared, CloseMode::Abort);
        } else if peer_gone {
            self.inner.request_close(&shared, CloseMode::Drain);
        }
    }

    fn write_ready(&mut self, id: u64) {
        let Some(fc) = self.fdconns.get_mut(&id) else {
            return;
        };
        let mut sink_broken = false;
        let mut drained = false;
        loop {
            if let Some((wire, off)) = &mut fc.wpend {
                match fc.stream.write(&wire[*off..]) {
                    Ok(n) => {
                        *off += n;
                        if *off < wire.len() {
                            continue;
                        }
                        let payload = fc.wpend_payload;
                        fc.wpend = None;
                        fc.wpend_payload = 0;
                        self.inner.charge_sent(payload);
                        let mut out = fc.shared.out.lock().unwrap();
                        let stall = out.blocked_since.take();
                        out.blocked = false;
                        out.in_flight = false;
                        drop(out);
                        self.inner.note_stall(stall);
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if !fc.want_write {
                            fc.want_write = true;
                            let mut out = fc.shared.out.lock().unwrap();
                            out.blocked = true;
                            if out.blocked_since.is_none() {
                                out.blocked_since = Some(Instant::now());
                            }
                            drop(out);
                            reregister_fc(&self.driver, fc, id);
                        }
                        return;
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        sink_broken = true;
                        break;
                    }
                }
            } else {
                let mut out = fc.shared.out.lock().unwrap();
                match out.frames.pop_front() {
                    Some(frame) => {
                        out.bytes -= frame.len();
                        out.in_flight = true;
                        drop(out);
                        let mut wire = Vec::with_capacity(4 + frame.len());
                        wire.extend_from_slice(&(frame.len() as u32).to_le_bytes());
                        wire.extend_from_slice(&frame);
                        fc.wpend_payload = frame.len();
                        fc.wpend = Some((wire, 0));
                    }
                    None => {
                        drained = true;
                        break;
                    }
                }
            }
        }
        if fc.want_write && (drained || sink_broken) {
            fc.want_write = false;
            reregister_fc(&self.driver, fc, id);
        }
        let shared = Arc::clone(&fc.shared);
        if sink_broken {
            self.inner.request_close(&shared, CloseMode::Abort);
            return;
        }
        if drained {
            // Below the low-water mark by definition: resume lazy
            // producers and any conn stalled on a full outbound queue.
            if self.inner.has_work(&shared) {
                self.inner.schedule(&shared);
            }
        }
    }

    fn teardown(&mut self) {
        // Workers are gone; close every connection from the loop so
        // blocked in-process peers unblock and handlers hear on_close.
        let conns: Vec<Arc<Conn>> = self.inner.conns.lock().unwrap().values().cloned().collect();
        for conn in conns {
            if conn.close_done.swap(true, Ordering::AcqRel) {
                continue;
            }
            {
                let mut out = conn.out.lock().unwrap();
                while let Some(frame) = out.frames.pop_front() {
                    out.bytes -= frame.len();
                    self.inner.charge_dropped(frame.len());
                }
            }
            if let Inbound::Virtual { q } = &conn.inbound {
                q.close();
            }
            if let Sink::Virtual { peer } = &conn.sink {
                peer.close();
            }
            conn.set_state(&self.inner.stats, ConnState::Closed);
            self.inner.stats.closed.fetch_add(1, Ordering::Relaxed);
            self.inner.handler.on_close(conn.id);
        }
        self.inner.conns.lock().unwrap().clear();
        self.fdconns.clear();
        self.listeners.clear();
    }
}

/// Updates `fc`'s epoll interest set from its pause/write flags. A free
/// function so callers holding a `&mut` into the fd map can still reach
/// the (disjoint) driver field.
fn reregister_fc(driver: &Driver, fc: &FdConn, id: u64) {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    if let Driver::Epoll { epfd, .. } = driver {
        use std::os::unix::io::AsRawFd;
        let mut mask = sys::EPOLLRDHUP;
        if !fc.shared.reading_paused.load(Ordering::Acquire) {
            mask |= sys::EPOLLIN;
        }
        if fc.want_write {
            mask |= sys::EPOLLOUT;
        }
        let _ = sys::epoll_ctl(*epfd, sys::EPOLL_CTL_MOD, fc.stream.as_raw_fd(), mask, id);
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    let _ = (driver, fc, id);
}

// ------------------------------------------------------------- handle

/// A running reactor: the event loop plus its worker pool.
///
/// Dropping the handle shuts the reactor down (connections are closed,
/// in-process peers unblock with [`NetError::Closed`], threads join).
pub struct ReactorHandle {
    inner: Arc<Inner>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ReactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHandle")
            .field("workers", &self.workers.len())
            .field("live_conns", &self.inner.stats.live_conns())
            .finish()
    }
}

impl ReactorHandle {
    /// Starts a reactor with `cfg` driving `handler`.
    ///
    /// On Linux the event loop multiplexes sockets through epoll; on
    /// other platforms only virtual connections are served (TCP
    /// listeners are rejected by [`ReactorHandle::serve_listener`]).
    #[must_use]
    pub fn start(cfg: ReactorConfig, handler: Arc<dyn FrameHandler>) -> ReactorHandle {
        let workers = cfg.workers.max(1);
        let idle_ms = cfg.idle_timeout.as_millis().min(u64::MAX as u128) as u64;

        let (driver, waker) = build_driver();
        let inner = Arc::new(Inner {
            cfg,
            stats: Arc::new(ReactorStats::default()),
            handler,
            conns: Mutex::new(HashMap::new()),
            conn_count: AtomicUsize::new(0),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            notes: Mutex::new(VecDeque::new()),
            intake: Mutex::new(Vec::new()),
            waker,
            next_id: AtomicU64::new(WAKE_TOKEN + 1),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
        });

        let loop_inner = Arc::clone(&inner);
        let loop_thread = std::thread::Builder::new()
            .name("seg-reactor".to_string())
            .spawn(move || {
                let idle = idle_ms;
                let mut ev = EventLoop {
                    // The wheel spans the idle timeout; with reaping off it
                    // still carries drain deadlines.
                    wheel: timer::TimerWheel::new(
                        if idle > 0 { idle } else { DRAIN_DEADLINE_MS },
                        loop_inner.now_ms(),
                    ),
                    inner: loop_inner,
                    driver,
                    listeners: HashMap::new(),
                    fdconns: HashMap::new(),
                    idle_ms: idle,
                };
                ev.run();
            })
            .expect("spawn reactor loop");

        let worker_threads = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("seg-reactor-w{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn reactor worker")
            })
            .collect();

        ReactorHandle {
            inner,
            loop_thread: Some(loop_thread),
            workers: worker_threads,
        }
    }

    /// Registers a TCP listener; every accepted connection is served by
    /// the reactor.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on platforms without the epoll driver.
    pub fn serve_listener(&self, listener: TcpListener) -> Result<(), NetError> {
        if !EPOLL_AVAILABLE {
            return Err(NetError::Io(
                "reactor TCP serving requires the Linux epoll driver".to_string(),
            ));
        }
        self.inner
            .intake
            .lock()
            .unwrap()
            .push(Intake::Listener(listener));
        self.inner.waker.wake();
        Ok(())
    }

    /// Opens an in-process connection served by the reactor, returning
    /// the peer's blocking transport (what a client hands to
    /// `Client::connect`). Works on every platform.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the reactor is at its connection
    /// cap (the in-process equivalent of an accept shed).
    pub fn connect_virtual(&self) -> Result<ChannelTransport, NetError> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        if inner.conn_count.load(Ordering::Relaxed) >= inner.cfg.max_conns {
            inner.stats.shed.fetch_add(1, Ordering::Relaxed);
            inner.handler.on_shed();
            return Err(NetError::Io("reactor at connection cap".to_string()));
        }
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);

        // Client -> reactor: the peer's sends land here; every push (and
        // the close on client drop) schedules the connection.
        let conn_slot: Arc<Mutex<Option<Arc<Conn>>>> = Arc::new(Mutex::new(None));
        let hook_inner = Arc::downgrade(inner);
        let hook_slot = Arc::clone(&conn_slot);
        let on_push: crate::virtq::QueueHook = Arc::new(move || {
            if let (Some(inner), Some(conn)) =
                (hook_inner.upgrade(), hook_slot.lock().unwrap().clone())
            {
                inner.schedule(&conn);
            }
        });
        let inbound_q = Arc::new(VirtQueue::new(inner.cfg.inbox_frames, Some(on_push), None));

        // Reactor -> client: the peer's blocking recv side. When a full
        // queue regains space (or closes), retry the flush.
        let drain_inner = Arc::downgrade(inner);
        let drain_slot = Arc::clone(&conn_slot);
        let on_drain: crate::virtq::QueueHook = Arc::new(move || {
            if let (Some(inner), Some(conn)) =
                (drain_inner.upgrade(), drain_slot.lock().unwrap().clone())
            {
                inner.schedule(&conn);
            }
        });
        let outbound_q = Arc::new(VirtQueue::new(
            inner.cfg.virtual_depth,
            None,
            Some(on_drain),
        ));

        let conn = Arc::new(Conn {
            id,
            state: AtomicU8::new(ConnState::Accepting as u8),
            scheduled: AtomicBool::new(false),
            wants_drain: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            close_mode: Mutex::new(CloseMode::Drain),
            close_done: AtomicBool::new(false),
            reading_paused: AtomicBool::new(false),
            last_activity_ms: AtomicU64::new(inner.now_ms()),
            drain_deadline_ms: AtomicU64::new(0),
            inbound: Inbound::Virtual {
                q: Arc::clone(&inbound_q),
            },
            sink: Sink::Virtual {
                peer: Arc::clone(&outbound_q),
            },
            out: Mutex::new(OutQ::default()),
        });
        *conn_slot.lock().unwrap() = Some(Arc::clone(&conn));

        if !inner.handler.on_open(id) {
            inner.stats.shed.fetch_add(1, Ordering::Relaxed);
            inner.handler.on_close(id);
            return Err(NetError::Io("connection refused by handler".to_string()));
        }
        inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
        inner.stats.enter(ConnState::Accepting);
        inner.conns.lock().unwrap().insert(id, Arc::clone(&conn));
        inner.conn_count.fetch_add(1, Ordering::Relaxed);
        inner.intake.lock().unwrap().push(Intake::VirtualConn(conn));
        inner.waker.wake();
        Ok(ChannelTransport::from_queues(inbound_q, outbound_q))
    }

    /// Aggregate reactor statistics (exported as `seg_net_*`).
    #[must_use]
    pub fn stats(&self) -> &Arc<ReactorStats> {
        &self.inner.stats
    }

    /// Stops the reactor: closes every connection, unblocks in-process
    /// peers, and joins the loop + worker threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.waker.wake();
        self.inner.ready_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // The loop exits its wait, sees shutdown, and tears down.
        self.inner.waker.wake();
        if let Some(l) = self.loop_thread.take() {
            let _ = l.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn build_driver() -> (Driver, Waker) {
    use std::os::unix::io::AsRawFd;
    if let Ok(epfd) = sys::epoll_create1() {
        if let Ok((tx, rx)) = std::os::unix::net::UnixStream::pair() {
            let _ = tx.set_nonblocking(true);
            let _ = rx.set_nonblocking(true);
            if sys::epoll_ctl(
                epfd,
                sys::EPOLL_CTL_ADD,
                rx.as_raw_fd(),
                sys::EPOLLIN,
                WAKE_TOKEN,
            )
            .is_ok()
            {
                return (
                    Driver::Epoll { epfd, wake_rx: rx },
                    Waker {
                        kind: Arc::new(WakerKind::Pipe {
                            tx: Mutex::new(tx),
                            pending: AtomicBool::new(false),
                        }),
                    },
                );
            }
        }
        sys::close(epfd);
    }
    park_driver()
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn build_driver() -> (Driver, Waker) {
    park_driver()
}

fn park_driver() -> (Driver, Waker) {
    (
        Driver::Park,
        Waker {
            kind: Arc::new(WakerKind::Park {
                flag: Mutex::new(false),
                cv: Condvar::new(),
            }),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameTransport;

    /// Echo with a twist: `more!` asks for N lazily-produced frames,
    /// `close!` ends the session, anything else echoes.
    struct Echo {
        lazy_left: Mutex<HashMap<ConnId, u32>>,
        closes: AtomicU64,
    }

    impl Echo {
        fn new() -> Echo {
            Echo {
                lazy_left: Mutex::new(HashMap::new()),
                closes: AtomicU64::new(0),
            }
        }
    }

    impl FrameHandler for Echo {
        fn on_frame(&self, conn: ConnId, frame: Vec<u8>) -> FrameOutcome {
            if frame == b"close!" {
                return FrameOutcome {
                    frames: vec![b"bye".to_vec()],
                    close: true,
                    ..FrameOutcome::default()
                };
            }
            if let Some(n) = frame
                .strip_prefix(b"more!")
                .and_then(|d| std::str::from_utf8(d).ok())
                .and_then(|s| s.parse::<u32>().ok())
            {
                self.lazy_left.lock().unwrap().insert(conn, n);
                return FrameOutcome {
                    more: true,
                    established: true,
                    ..FrameOutcome::default()
                };
            }
            FrameOutcome {
                frames: vec![frame],
                established: true,
                ..FrameOutcome::default()
            }
        }

        fn on_drain(&self, conn: ConnId) -> FrameOutcome {
            let mut lazy = self.lazy_left.lock().unwrap();
            let left = lazy.get_mut(&conn);
            match left {
                Some(0) | None => FrameOutcome::default(),
                Some(n) => {
                    *n -= 1;
                    let frame = format!("chunk{n}").into_bytes();
                    FrameOutcome {
                        frames: vec![frame],
                        more: true,
                        ..FrameOutcome::default()
                    }
                }
            }
        }

        fn on_close(&self, _conn: ConnId) {
            self.closes.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn small_cfg() -> ReactorConfig {
        ReactorConfig {
            workers: 2,
            idle_timeout: Duration::ZERO,
            ..ReactorConfig::default()
        }
    }

    #[test]
    fn virtual_echo_roundtrip() {
        let handler = Arc::new(Echo::new());
        let reactor = ReactorHandle::start(small_cfg(), handler);
        let mut t = reactor.connect_virtual().unwrap();
        for i in 0..50u32 {
            let msg = format!("ping{i}").into_bytes();
            t.send_frame(&msg).unwrap();
            assert_eq!(t.recv_frame().unwrap(), msg);
        }
        assert_eq!(reactor.stats().frames_in_total(), 50);
        // The delivery counter ticks just after the peer's queue push;
        // wait out that last sliver.
        let deadline = Instant::now() + Duration::from_secs(2);
        while reactor.stats().frames_out_total() < 50 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(reactor.stats().frames_out_total(), 50);
        assert_eq!(reactor.stats().conns_in(ConnState::Streaming), 1);
    }

    #[test]
    fn lazy_production_streams_through_bounded_queue() {
        let handler = Arc::new(Echo::new());
        let reactor = ReactorHandle::start(small_cfg(), handler);
        let mut t = reactor.connect_virtual().unwrap();
        t.send_frame(b"more!200").unwrap();
        for i in (0..200u32).rev() {
            assert_eq!(t.recv_frame().unwrap(), format!("chunk{i}").into_bytes());
        }
        // Bounded: high-water stays far below 200 frames' worth.
        assert!(reactor.stats().outq_highwater_bytes() < 64 * 1024);
    }

    #[test]
    fn handler_close_drains_then_closes() {
        let handler = Arc::new(Echo::new());
        let closes = handler as Arc<Echo>;
        let reactor =
            ReactorHandle::start(small_cfg(), Arc::clone(&closes) as Arc<dyn FrameHandler>);
        let mut t = reactor.connect_virtual().unwrap();
        t.send_frame(b"close!").unwrap();
        assert_eq!(t.recv_frame().unwrap(), b"bye".to_vec(), "drained first");
        assert_eq!(t.recv_frame().unwrap_err(), NetError::Closed);
        // on_close fired exactly once.
        let deadline = Instant::now() + Duration::from_secs(2);
        while closes.closes.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(closes.closes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn client_drop_reaches_on_close() {
        let handler = Arc::new(Echo::new());
        let reactor =
            ReactorHandle::start(small_cfg(), Arc::clone(&handler) as Arc<dyn FrameHandler>);
        let t = reactor.connect_virtual().unwrap();
        drop(t);
        let deadline = Instant::now() + Duration::from_secs(2);
        while handler.closes.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handler.closes.load(Ordering::Relaxed), 1);
        assert_eq!(reactor.stats().live_conns(), 0);
    }

    #[test]
    fn connection_cap_sheds() {
        let cfg = ReactorConfig {
            max_conns: 2,
            ..small_cfg()
        };
        let reactor = ReactorHandle::start(cfg, Arc::new(Echo::new()));
        let _a = reactor.connect_virtual().unwrap();
        let _b = reactor.connect_virtual().unwrap();
        assert!(reactor.connect_virtual().is_err());
        assert_eq!(reactor.stats().shed_total(), 1);
    }

    #[test]
    fn idle_connections_are_reaped() {
        let cfg = ReactorConfig {
            idle_timeout: Duration::from_millis(60),
            ..small_cfg()
        };
        let reactor = ReactorHandle::start(cfg, Arc::new(Echo::new()));
        let mut t = reactor.connect_virtual().unwrap();
        t.send_frame(b"hi").unwrap();
        assert_eq!(t.recv_frame().unwrap(), b"hi".to_vec());
        // Now idle: the reaper must close it.
        assert_eq!(t.recv_frame().unwrap_err(), NetError::Closed);
        assert_eq!(reactor.stats().reaped_idle_total(), 1);
        assert_eq!(reactor.stats().live_conns(), 0);
    }

    #[test]
    fn tcp_roundtrip_through_reactor() {
        if !EPOLL_AVAILABLE {
            return;
        }
        let handler = Arc::new(Echo::new());
        let reactor = ReactorHandle::start(small_cfg(), handler);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        reactor.serve_listener(listener).unwrap();
        let mut client = crate::TcpTransport::connect(&addr.to_string()).unwrap();
        for size in [0usize, 1, 1000, 200_000] {
            let payload = vec![7u8; size];
            client.send_frame(&payload).unwrap();
            assert_eq!(client.recv_frame().unwrap(), payload);
        }
        assert_eq!(reactor.stats().accepted_total(), 1);
    }

    #[test]
    fn tcp_many_concurrent_clients() {
        if !EPOLL_AVAILABLE {
            return;
        }
        let handler = Arc::new(Echo::new());
        let reactor = ReactorHandle::start(small_cfg(), handler);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        reactor.serve_listener(listener).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    let mut c = crate::TcpTransport::connect(&addr).unwrap();
                    for i in 0..20u32 {
                        let msg = format!("t{t}m{i}").into_bytes();
                        c.send_frame(&msg).unwrap();
                        assert_eq!(c.recv_frame().unwrap(), msg);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reactor.stats().accepted_total(), 8);
        assert_eq!(reactor.stats().frames_in_total(), 160);
    }

    #[test]
    fn shutdown_unblocks_waiting_peers() {
        let handler = Arc::new(Echo::new());
        let mut reactor = ReactorHandle::start(small_cfg(), handler);
        let mut t = reactor.connect_virtual().unwrap();
        let h = std::thread::spawn(move || t.recv_frame());
        std::thread::sleep(Duration::from_millis(30));
        reactor.shutdown();
        assert_eq!(h.join().unwrap().unwrap_err(), NetError::Closed);
    }
}
