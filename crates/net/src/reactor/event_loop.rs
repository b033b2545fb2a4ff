//! The event loop: the epoll (or parked) driver, socket reads, the
//! writes a blocked socket hands over, the timer wheel, and the notes
//! workers leave for it.
//!
//! The loop is every socket's reader: one `read` per wake into its one
//! reusable buffer (a read shorter than the buffer ends the wake —
//! level-triggered epoll re-reports whatever arrives later), frames
//! parsed by the shared [`FrameBuf`]. It is a socket's *writer* only
//! while that socket is blocked: a worker whose write hit `WouldBlock`
//! posts [`Note::Flush`], the loop arms `EPOLLOUT` and continues the
//! queue with the same [`OutQ::write_to`](super::conn::OutQ::write_to)
//! the worker used, until it drains. A response to a peer that keeps
//! reading never passes through here.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use super::conn::{CloseMode, Conn, ConnState, Inbound, OutQ, Sink, Written};
use super::{sys, timer, ConnId, Inner, DRAIN_DEADLINE_MS};
use crate::framing::FrameBuf;

/// Notes workers inject for the event loop (what needs the epoll set or
/// the timer wheel, which only the loop touches).
pub(super) enum Note {
    /// A worker's write to `conn`'s socket would block: take over its
    /// outbound queue until `EPOLLOUT` has drained it.
    Flush(ConnId),
    /// The inbox drained; resume reading a paused socket.
    ReadResume(ConnId),
    /// Tear down the socket + epoll registration of a closed conn.
    Destroy(ConnId),
    /// A drain-close is waiting on its peer; put its deadline on the wheel.
    DrainDeadline(ConnId),
}

pub(super) enum Intake {
    Listener(TcpListener),
    VirtualConn(Arc<Conn>),
}

/// Wakes the event loop out of its poll/park.
#[derive(Clone)]
pub(super) struct Waker {
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
    pub(super) fn wake(&self) {
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

/// Socket-side per-connection state, owned exclusively by the loop.
pub(super) struct FdConn {
    /// Holds the socket (`Sink::Fd`) and the outbound queue.
    shared: Arc<Conn>,
    /// Received bytes that do not yet make a frame (or whose frames the
    /// full inbox has not taken yet).
    rbuf: FrameBuf,
    /// Registered interest (EPOLLIN always unless paused; EPOLLOUT
    /// while write-blocked).
    want_write: bool,
}

impl FdConn {
    fn stream(&self) -> &TcpStream {
        self.shared.stream().expect("fd conn has a socket sink")
    }
}

pub(super) enum Driver {
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
        /// Where `epoll_pwait` reports readiness, reused every wake.
        events: Vec<sys::EpollEvent>,
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
pub(super) const WAKE_TOKEN: u64 = 0;

pub(super) struct EventLoop {
    pub(super) inner: Arc<Inner>,
    pub(super) driver: Driver,
    pub(super) listeners: HashMap<u64, TcpListener>,
    pub(super) fdconns: HashMap<u64, FdConn>,
    /// Where every socket read lands ([`READ_CHUNK`] bytes, reused).
    ///
    /// [`READ_CHUNK`]: crate::framing::READ_CHUNK
    pub(super) rdbuf: Vec<u8>,
    pub(super) wheel: timer::TimerWheel,
    pub(super) idle_ms: u64,
}

impl EventLoop {
    pub(super) fn run(&mut self) {
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
            Driver::Epoll { epfd, events, .. } => {
                let timeout_ms = timeout.map_or(-1i32, |t| {
                    i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX)
                });
                let n = sys::epoll_pwait(*epfd, events, timeout_ms).unwrap_or_default();
                // Dispatching needs `&mut self`: borrow the buffer out
                // for the pass and put it back, rather than copy it.
                let fired = std::mem::take(events);
                for ev in &fired[..n] {
                    let (token, bits) = ({ ev.data }, { ev.events });
                    if token == WAKE_TOKEN {
                        self.drain_wake_pipe();
                    } else {
                        self.dispatch_event(token, bits);
                    }
                }
                if let Driver::Epoll { events, .. } = &mut self.driver {
                    *events = fired;
                }
            }
        }
    }

    /// Empties the self-pipe and clears the pending flag so the next
    /// wake writes a fresh byte. `pending` admits one byte at a time,
    /// so one read empties it.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn drain_wake_pipe(&mut self) {
        if let Driver::Epoll { wake_rx, .. } = &mut self.driver {
            let _ = wake_rx.read(&mut [0u8; 8]);
        }
        if let WakerKind::Pipe { pending, .. } = &*self.inner.waker.kind {
            pending.store(false, Ordering::Release);
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
                        // The fd closes with the last `Arc<Conn>`, which
                        // a worker may still hold; the peer is told now.
                        let _ = fc.stream().shutdown(Shutdown::Both);
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
            sink: Sink::Fd { stream },
            out: Mutex::new(OutQ::default()),
        });
        let stream = conn.stream().expect("just built with a socket sink");
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
                shared: conn,
                rbuf: FrameBuf::default(),
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
            let _ = sys::epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fc.stream().as_raw_fd(), 0, 0);
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
        let shared = Arc::clone(&fc.shared);
        if shared.closing.load(Ordering::Acquire) {
            return;
        }
        let (Inbound::Fd { inbox }, Some(mut stream)) = (&shared.inbound, shared.stream()) else {
            unreachable!("fd conn has fd inbound and a socket sink");
        };
        let inner = &self.inner;
        let mut got_frames = false;
        let mut socket_empty = false;
        // How the connection ends, if this wake ends it.
        let mut close = None;
        loop {
            // Parse complete frames out of rbuf first so the inbox cap
            // is honored before more bytes are pulled off the socket.
            let inbox_full = {
                let mut inbox = inbox.lock().unwrap();
                loop {
                    if inbox.len() >= inner.cfg.inbox_frames {
                        // Only look: the frame stays buffered.
                        break fc.rbuf.frame_ready();
                    }
                    match fc.rbuf.pop() {
                        Ok(Some(frame)) => {
                            inbox.push_back(frame);
                            got_frames = true;
                        }
                        Ok(None) => break Ok(false),
                        Err(e) => break Err(e),
                    }
                }
            };
            match inbox_full {
                Ok(true) => {
                    // Pause socket reads; the worker resumes us once it
                    // drains.
                    shared.reading_paused.store(true, Ordering::Release);
                    reregister_fc(&self.driver, fc, id);
                    break;
                }
                Ok(false) => {}
                Err(_) => {
                    inner.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    close = Some(CloseMode::Abort);
                    break;
                }
            }
            if socket_empty {
                break;
            }
            inner.stats.socket_reads.fetch_add(1, Ordering::Relaxed);
            match stream.read(&mut self.rdbuf) {
                Ok(0) => {
                    close = Some(CloseMode::Drain);
                    break;
                }
                Ok(n) => {
                    fc.rbuf.push(&self.rdbuf[..n]);
                    socket_empty = n < self.rdbuf.len();
                    shared
                        .last_activity_ms
                        .store(inner.now_ms(), Ordering::Relaxed);
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    close = Some(CloseMode::Drain);
                    break;
                }
            }
        }
        if got_frames {
            inner.schedule(&shared);
        }
        if let Some(mode) = close {
            inner.request_close(&shared, mode);
        }
    }

    /// The loop's turn as `id`'s socket writer: a worker handed the
    /// queue over ([`Note::Flush`]) or the socket reported room
    /// (`EPOLLOUT`). `EPOLLOUT` stays armed exactly while the queue is
    /// blocked.
    fn write_ready(&mut self, id: u64) {
        let Some(fc) = self.fdconns.get_mut(&id) else {
            return;
        };
        let shared = Arc::clone(&fc.shared);
        let written = {
            let mut out = shared.out.lock().unwrap();
            out.blocked = false;
            out.write_to(fc.stream(), &self.inner)
        };
        let blocked = written == Written::Blocked;
        if fc.want_write != blocked {
            fc.want_write = blocked;
            reregister_fc(&self.driver, fc, id);
        }
        match written {
            Written::Blocked => {}
            Written::Broken => self.inner.request_close(&shared, CloseMode::Abort),
            // Below the low-water mark by definition: resume lazy
            // producers and any conn stalled on a full outbound queue.
            Written::Drained => {
                if self.inner.has_work(&shared) {
                    self.inner.schedule(&shared);
                }
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
            conn.out.lock().unwrap().discard(&self.inner);
            if let Inbound::Virtual { q } = &conn.inbound {
                q.close();
            }
            match &conn.sink {
                Sink::Virtual { peer } => peer.close(),
                Sink::Fd { stream } => {
                    let _ = stream.shutdown(Shutdown::Both);
                }
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
        let _ = sys::epoll_ctl(*epfd, sys::EPOLL_CTL_MOD, fc.stream().as_raw_fd(), mask, id);
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    let _ = (driver, fc, id);
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(super) fn build_driver() -> (Driver, Waker) {
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
                    Driver::Epoll {
                        epfd,
                        wake_rx: rx,
                        events: vec![sys::EpollEvent::zeroed(); 256],
                    },
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
pub(super) fn build_driver() -> (Driver, Waker) {
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
