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
//!   in-process virtual connections used by tests and benchmarks, and
//!   reads each request with one `read`;
//! * **a bounded worker pool** runs the enclave work. Each connection
//!   is scheduled on at most one worker at a time, so frames of one
//!   TLS channel are processed strictly in order while different
//!   connections proceed in parallel — the pool size, not the
//!   connection count, is the concurrency knob;
//! * **a frame crosses the host in one syscall per direction.** The
//!   worker that produced a response writes it to the socket itself,
//!   all its frames in one `write_vectored`: whoever holds the
//!   connection's `out` lock is the socket's one writer, and the
//!   position of a partial write lives under that lock, so the event
//!   loop — which takes over on `EPOLLOUT` when a peer made a worker's
//!   write block, and only then — continues at the exact byte. `out` is
//!   a leaf lock (never held across scheduling, a note to the loop, a
//!   close request or a handler call);
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

mod conn;
mod event_loop;
mod sys;
mod timer;
mod virt;
mod worker;

use std::collections::{HashMap, VecDeque};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use conn::{CloseMode, Conn, Inbound, Sink};
use event_loop::{build_driver, EventLoop, Intake, Note, Waker, WAKE_TOKEN};
use worker::worker_loop;

use crate::{NetError, DEFAULT_SEND_STALL};

pub use conn::{ConnState, ReactorStats, CONN_STATE_LABELS};
pub use sys::EPOLL_AVAILABLE;

/// How long a drain-close may wait on its peer before it turns into an
/// abort (to the timer wheel's precision of one slot): a peer that never
/// reads cannot hold a connection slot for ever.
const DRAIN_DEADLINE_MS: u64 = 5_000;

/// Complete inbound frames buffered per connection before the reactor
/// stops reading its socket (TCP backpressure); reading resumes below
/// half.
const INBOX_FRAMES: usize = 32;

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
}

/// Reactor tuning. The defaults suit the TCP example and tests; the
/// perf gate and `OPERATIONS.md` discuss how each knob trades memory
/// for throughput.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Worker threads running enclave work (the saturation knob).
    pub workers: usize,
    /// Hard cap on live connections; accepts beyond it are shed.
    pub max_conns: usize,
    /// Outbound queue byte cap per connection. Responses always fit
    /// (inbound processing pauses at the cap); lazy download production
    /// resumes only below the low-water mark (half the cap).
    pub outbound_bytes: usize,
    /// Close connections idle this long; `Duration::ZERO` disables.
    pub idle_timeout: Duration,
    /// Frames buffered toward an in-process virtual peer before its
    /// reader backpressures the reactor.
    pub virtual_depth: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            workers: std::thread::available_parallelism()
                .map_or(2, std::num::NonZeroUsize::get)
                .max(2),
            max_conns: 65_536,
            outbound_bytes: 1 << 20,
            idle_timeout: Duration::from_secs(300),
            virtual_depth: 64,
        }
    }
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
        self.stats.loop_wakes.fetch_add(1, Ordering::Relaxed);
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
        let (queued, queued_bytes, blocked) = {
            let out = conn.out.lock().unwrap();
            (out.undelivered(), out.bytes, out.blocked)
        };
        // Whether a worker's `flush` could move a queued frame right
        // now. Checked after `scheduled` is cleared, so a drain hook (or
        // an `EPOLLOUT`) that fired while the worker still held the
        // connection is not lost.
        let sink_has_room = || match &conn.sink {
            // A blocked socket is the loop's until `EPOLLOUT`.
            Sink::Fd { .. } => !blocked,
            // A closed peer counts: the push fails and aborts the close.
            Sink::Virtual { peer } => !peer.is_full(),
        };
        if conn.closing.load(Ordering::Acquire) {
            // An abort finalizes at once, a drain once the queue is empty.
            return !queued
                || *conn.close_mode.lock().unwrap() == CloseMode::Abort
                || sink_has_room();
        }
        if queued_bytes >= self.cfg.outbound_bytes {
            // `service` consumes nothing at the cap.
            return sink_has_room();
        }
        if queued && sink_has_room() {
            // The sink made room after the turn's last flush; its hook
            // found the connection still scheduled and did nothing.
            return true;
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

    /// A frame finished its journey to the peer.
    fn charge_sent(&self, len: usize) {
        self.stats
            .outq_bytes
            .fetch_sub(len as u64, Ordering::Relaxed);
        self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_out
            .fetch_add(len as u64, Ordering::Relaxed);
        self.stats.stamp_send();
    }

    /// Queued bytes evaporated (close with a non-empty queue).
    fn charge_dropped(&self, len: usize) {
        self.stats
            .outq_bytes
            .fetch_sub(len as u64, Ordering::Relaxed);
    }

    /// A write that sat blocked on peer backpressure since `since` just
    /// went through (or was given up): a send stall if it took at least
    /// [`DEFAULT_SEND_STALL`].
    fn note_stall(&self, since: Option<Instant>) {
        let Some(since) = since else { return };
        let blocked = since.elapsed();
        if blocked >= DEFAULT_SEND_STALL {
            self.stats.send_stalls.fetch_add(1, Ordering::Relaxed);
            self.stats.send_stall_ns.fetch_add(
                blocked.as_nanos().min(u64::MAX as u128) as u64,
                Ordering::Relaxed,
            );
        }
    }
}

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
                    rdbuf: vec![0u8; crate::framing::READ_CHUNK],
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virtq::TryPop;
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

    /// Streams frames lazily, one per `on_drain`, from the first request
    /// until told to stop; frame `i` is `Stream::frame(i)`.
    struct Stream {
        /// Frames produced so far, and whether to produce more.
        produced: Mutex<(usize, bool)>,
    }

    impl Stream {
        const LARGEST: usize = 48 * 1024;

        /// 1 B to 48 KiB, so that frame ends do not fall on the kernel's.
        fn frame(i: usize) -> Vec<u8> {
            vec![i as u8; 1 + (i * 7919) % Stream::LARGEST]
        }
    }

    impl FrameHandler for Stream {
        fn on_frame(&self, _conn: ConnId, _frame: Vec<u8>) -> FrameOutcome {
            FrameOutcome {
                established: true,
                more: true,
                ..FrameOutcome::default()
            }
        }

        fn on_drain(&self, _conn: ConnId) -> FrameOutcome {
            let mut produced = self.produced.lock().unwrap();
            if !produced.1 {
                return FrameOutcome::default();
            }
            produced.0 += 1;
            FrameOutcome {
                frames: vec![Stream::frame(produced.0 - 1)],
                more: true,
                ..FrameOutcome::default()
            }
        }
    }

    /// A peer stops reading while the handler streams: once the kernel's
    /// buffers are full a worker's write blocks in the middle of a frame,
    /// later turns queue more frames behind it, and the loop finishes
    /// what the worker began. Whatever the split between the two
    /// writers, the peer reads exactly prefix‖payload of every frame, in
    /// order; the stall is one stall; and the queue stays bounded
    /// throughout.
    #[test]
    fn a_slow_reader_gets_every_frame_in_order_across_the_hand_over() {
        use std::io::{Read, Write};
        if !EPOLL_AVAILABLE {
            return;
        }
        let cap = 128 * 1024;
        let cfg = ReactorConfig {
            outbound_bytes: cap,
            ..small_cfg()
        };
        let handler = Arc::new(Stream {
            produced: Mutex::new((0, true)),
        });
        let reactor = ReactorHandle::start(cfg, Arc::clone(&handler) as Arc<dyn FrameHandler>);
        let stats = Arc::clone(reactor.stats());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        reactor.serve_listener(listener).unwrap();

        let mut peer = std::net::TcpStream::connect(addr).unwrap();
        peer.write_all(&[2, 0, 0, 0, b'g', b'o']).unwrap();

        // Read nothing until the server is stuck on us for three stall
        // thresholds: the kernel's buffers full (however large this box
        // makes them), output queued behind them, none of it moving.
        let stuck_by = Instant::now() + Duration::from_secs(20);
        loop {
            let delivered = stats.frames_out_total();
            std::thread::sleep(3 * DEFAULT_SEND_STALL);
            if stats.outq_bytes() > 0 && stats.frames_out_total() == delivered {
                break;
            }
            assert!(Instant::now() < stuck_by, "the sender never blocked");
        }
        assert!(
            stats.loop_wakes_total() >= 1,
            "the worker handed the socket over"
        );
        assert_eq!(
            stats.send_stalls_total(),
            0,
            "a stall is counted when it ends"
        );
        let frames = {
            let mut produced = handler.produced.lock().unwrap();
            produced.1 = false;
            produced.0
        };
        let wire = crate::framing::wire(&(0..frames).map(Stream::frame).collect::<Vec<_>>());

        let draining = Instant::now();
        let mut got = vec![0u8; wire.len()];
        peer.read_exact(&mut got).unwrap();
        let drained_in = draining.elapsed();
        assert!(
            got == wire,
            "the byte stream is every frame, whole and in order"
        );

        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.frames_out_total() < frames as u64 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(stats.frames_out_total(), frames as u64);
        assert_eq!(stats.outq_bytes(), 0);
        // The stall we forced, once — plus at most one for every further
        // threshold's worth of time the drain itself took on a busy box.
        let stalls = stats.send_stalls_total();
        let slack = (drained_in.as_nanos() / DEFAULT_SEND_STALL.as_nanos()) as u64;
        assert!(
            (1..=1 + slack).contains(&stalls),
            "{stalls} stalls for one blocked stretch (drain took {drained_in:?})"
        );
        assert!(
            stats.outq_highwater_bytes() <= (cap + Stream::LARGEST) as u64,
            "queue high-water {} B above the cap plus one frame",
            stats.outq_highwater_bytes()
        );
    }

    /// Panics on the frame `panic!`, echoes anything else.
    struct Panicky;

    impl FrameHandler for Panicky {
        fn on_frame(&self, _conn: ConnId, frame: Vec<u8>) -> FrameOutcome {
            assert!(frame != b"panic!", "the handler panics on its marker");
            FrameOutcome {
                frames: vec![frame],
                established: true,
                ..FrameOutcome::default()
            }
        }
    }

    /// What `t` receives next, polled until `within` runs out: `None`
    /// if nothing came, so a reactor whose only worker died fails the
    /// test instead of hanging it.
    fn recv_within(t: &crate::ChannelTransport, within: Duration) -> Option<TryPop> {
        let deadline = Instant::now() + within;
        loop {
            match t.rx.try_pop() {
                TryPop::Empty if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                TryPop::Empty => return None,
                got => return Some(got),
            }
        }
    }

    #[test]
    fn a_panicking_handler_costs_its_connection_not_the_worker() {
        let cfg = ReactorConfig {
            workers: 1,
            ..small_cfg()
        };
        let reactor = ReactorHandle::start(cfg, Arc::new(Panicky));
        let within = Duration::from_secs(5);
        let mut doomed = reactor.connect_virtual().unwrap();
        doomed.send_frame(b"panic!").unwrap();
        assert!(
            matches!(recv_within(&doomed, within), Some(TryPop::Closed)),
            "the panicking connection closes"
        );
        // The one worker survived: a second connection is served.
        let mut next = reactor.connect_virtual().unwrap();
        next.send_frame(b"hi").unwrap();
        assert!(
            matches!(recv_within(&next, within), Some(TryPop::Frame(f)) if f == b"hi"),
            "the worker serves the next connection"
        );
        drop((doomed, next));
        let deadline = Instant::now() + within;
        while reactor.stats().live_conns() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(reactor.stats().live_conns(), 0);
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
