//! Connection-lifecycle edges of the event-driven reactor front end.
//!
//! These tests pin down the behaviors only an event-driven front end
//! has: partial frames dribbling in (slowloris), peers vanishing
//! mid-handshake, idle connections being reaped by the timer wheel,
//! bounded outbound queues under streaming downloads, a drain-close
//! against a peer that has stopped reading, and accept shedding at the
//! connection cap.
//!
//! The rest of the integration suite runs against the reactor too: it
//! is the only front end.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seg_net::reactor::{
    ConnId, ConnState, FrameHandler, FrameOutcome, ReactorConfig, ReactorHandle,
};
use seg_net::FrameTransport;
use seg_store::{MemStore, ObjectStore};
use segshare::{Client, EnclaveConfig, EnrolledUser, FsoSetup, SegShareServer};

fn rig(seed: u64) -> (FsoSetup, SegShareServer, EnrolledUser) {
    let setup = FsoSetup::with_stores(
        "ca",
        EnclaveConfig {
            cache: true,
            ..EnclaveConfig::paper_prototype()
        },
        seg_sgx::Platform::new_with_seed(seed),
        Arc::new(MemStore::new()) as Arc<dyn ObjectStore>,
        Arc::new(MemStore::new()) as Arc<dyn ObjectStore>,
        Arc::new(MemStore::new()) as Arc<dyn ObjectStore>,
    );
    let server = setup.server().unwrap();
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    (setup, server, alice)
}

/// Polls `cond` until it holds or the deadline passes.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------- edges

/// A slowloris peer dribbles a frame in one-byte pieces with long
/// pauses. The reactor must keep serving other clients at full speed —
/// the partial frame pins a read buffer, never a worker thread — and
/// must tear the connection down cleanly when the slow peer gives up.
#[test]
fn slowloris_partial_frames_do_not_starve_other_clients() {
    let (_setup, server, alice) = rig(1);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    server.serve_listener(listener).unwrap();

    // The slow peer: claims a 4 KiB frame, delivers 3 bytes of it.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.write_all(&4096u32.to_le_bytes()).unwrap();
    for b in [1u8, 2, 3] {
        slow.write_all(&[b]).unwrap();
        slow.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = Arc::clone(server.reactor().stats());
    eventually("slow conn accepted", || stats.accepted_total() >= 1);

    // Meanwhile a real client handshakes and works, over the same
    // reactor, without waiting on the slowloris.
    let mut c = server
        .connect_local(&alice)
        .expect("full client connects while slowloris holds a socket");
    c.mkdir("/fast").unwrap();
    c.put("/fast/doc", b"served").unwrap();
    assert_eq!(c.get("/fast/doc").unwrap(), b"served");

    // The dribbled bytes never formed a frame: no enclave work ran for
    // the slow connection (the real client's frames are the only ones).
    assert_eq!(stats.protocol_errors_total(), 0);

    // The slow peer gives up; its connection (which never completed a
    // single frame) is torn down and the session slot released.
    let live_before = stats.live_conns();
    drop(slow);
    eventually("slowloris torn down", || stats.live_conns() < live_before);
}

/// A peer that vanishes mid-handshake (partial frame on the wire, then
/// RST/FIN) must not leak the session slot, the connection, or the
/// live-session gauge.
#[test]
fn mid_handshake_disconnect_releases_everything() {
    let (_setup, server, alice) = rig(2);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    server.serve_listener(listener).unwrap();
    let stats = Arc::clone(server.reactor().stats());

    // One full client before, to prove the server state is live.
    let mut c = server.connect_local(&alice).unwrap();
    c.mkdir("/pre").unwrap();
    let baseline = stats.live_conns();

    for round in 0u32..3 {
        let mut doomed = TcpStream::connect(addr).unwrap();
        // A length prefix and half a "handshake" frame, never finished.
        doomed.write_all(&64u32.to_le_bytes()).unwrap();
        doomed.write_all(&round.to_le_bytes()).unwrap();
        doomed.flush().unwrap();
        eventually("doomed conn accepted", || {
            stats.accepted_total() >= 2 + u64::from(round)
        });
        drop(doomed);
        eventually("doomed conn cleaned", || stats.live_conns() == baseline);
    }
    // The surviving session still works — no collateral damage.
    c.put("/pre/doc", b"still here").unwrap();
    assert_eq!(c.get("/pre/doc").unwrap(), b"still here");
    assert_eq!(stats.live_conns(), 1, "only the real client remains");
}

/// A complete-but-garbage first frame is a failed TLS handshake:
/// session-fatal, counted, connection closed, gauge released.
#[test]
fn garbage_handshake_frame_closes_the_connection() {
    let (_setup, server, alice) = rig(3);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    server.serve_listener(listener).unwrap();

    let mut evil = TcpStream::connect(addr).unwrap();
    let garbage = [0xAAu8; 32];
    evil.write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    evil.write_all(&garbage).unwrap();
    evil.flush().unwrap();

    eventually("garbage conn closed", || {
        server.reactor().stats().closed_total() >= 1
    });
    eventually("session slot released", || {
        server.reactor().stats().live_conns() == 0
    });
    // The enclave is unharmed.
    let mut c = server.connect_local(&alice).unwrap();
    c.mkdir("/after").unwrap();
}

/// Idle connections are reaped by the timer wheel: after the idle
/// timeout the client's transport reads closed, the reap counter
/// ticks, and the gauges return to zero. An *active* client must not
/// be reaped.
#[test]
fn idle_timeout_reaps_only_idle_connections() {
    let (_setup, server, alice) = rig(4);
    server.set_reactor_config(ReactorConfig {
        idle_timeout: Duration::from_millis(200),
        ..ReactorConfig::default()
    });

    let mut idle = server.connect_local(&alice).unwrap();
    idle.mkdir("/was-here").unwrap();

    // The busy client keeps issuing requests across several timeout
    // periods — activity must keep resetting its reap deadline.
    let mut busy = server.connect_local(&alice).unwrap();
    for i in 0..8 {
        busy.put("/busy", format!("beat {i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }

    let stats = Arc::clone(server.reactor().stats());
    eventually("idle conn reaped", || stats.reaped_idle_total() >= 1);
    // The idle client's next request fails: its connection is gone.
    assert!(idle.get("/was-here").is_err(), "reaped transport is dead");
    // The busy client outlived every timeout period.
    assert_eq!(busy.get("/busy").unwrap(), b"beat 7");
    eventually("gauges settle to the busy conn", || stats.live_conns() == 1);
    assert_eq!(stats.reaped_idle_total(), 1, "only the idle conn reaped");
}

/// Streaming downloads stay constant-memory end to end (§VI): the
/// outbound queue's high-water mark must stay near its configured cap
/// no matter how large the file is, because chunks are produced lazily
/// and only below the low-water mark.
#[test]
fn download_backpressure_keeps_outbound_bounded() {
    let (_setup, server, alice) = rig(5);
    let cap = 256 * 1024;
    server.set_reactor_config(ReactorConfig {
        outbound_bytes: cap,
        ..ReactorConfig::default()
    });
    let mut c = server.connect_local(&alice).unwrap();
    let payload: Vec<u8> = (0..6_000_000u32).map(|i| (i ^ (i >> 11)) as u8).collect();
    c.put("/big", &payload).unwrap();
    assert_eq!(c.get("/big").unwrap(), payload);

    let high = server.reactor().stats().outq_highwater_bytes();
    assert!(high > 0, "the download actually queued frames");
    // One dispatcher turn may overshoot the cap by its drain budget
    // plus a frame; far below the 6 MB file proves streaming.
    assert!(
        high <= (cap + 700 * 1024) as u64,
        "outbound high-water {high} B must stay near the {cap} B cap"
    );
}

/// The frame path by exact count: a hot 4 KiB get over loopback TCP is
/// one socket write and one socket read on each side — the request in one
/// `write_vectored`, read by the loop in one `read`; the response's two
/// records (`FileStart`, `Data`) written by the worker that produced them
/// in one `write_vectored`, without waking the loop, and read by the
/// client in one `read` (two if the segment was split).
#[test]
fn a_hot_get_is_one_socket_write_and_one_read_each_way() {
    if !seg_net::reactor::EPOLL_AVAILABLE {
        return;
    }
    let (_setup, server, alice) = rig(8);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    server.serve_listener(listener).unwrap();
    let transport = seg_net::TcpTransport::connect(&addr.to_string()).unwrap();
    let client_calls = transport.socket_calls();
    let mut c = Client::connect(transport, &alice).unwrap();
    let body = vec![0x5au8; 4096];
    c.put("/hot", &body).unwrap();
    for _ in 0..4 {
        assert_eq!(c.get("/hot").unwrap(), body, "warm-up");
    }

    let stats = Arc::clone(server.reactor().stats());
    let counts = || {
        [
            stats.socket_writes_total(),
            stats.socket_reads_total(),
            stats.loop_wakes_total(),
            client_calls.writes(),
            client_calls.reads(),
        ]
    };
    let before = counts();
    const GETS: u64 = 200;
    for _ in 0..GETS {
        assert_eq!(c.get("/hot").unwrap(), body);
    }
    let [server_writes, server_reads, loop_wakes, client_writes, client_reads] = {
        let after = counts();
        std::array::from_fn(|i| after[i] - before[i])
    };
    assert_eq!(server_writes, GETS, "one write_vectored per response");
    assert_eq!(server_reads, GETS, "one read per request");
    assert_eq!(loop_wakes, 0, "the worker writes; the loop is not woken");
    assert_eq!(client_writes, GETS, "prefix and payload leave together");
    assert!(
        (GETS..=2 * GETS).contains(&client_reads),
        "{client_reads} client reads for {GETS} gets of two records each"
    );
}

/// Streams lazily until told to close; remembers which thread ran it.
struct StreamThenClose {
    chunk_len: usize,
    worker_tid: AtomicU64,
    closes: AtomicU64,
}

impl FrameHandler for StreamThenClose {
    fn on_frame(&self, _conn: ConnId, frame: Vec<u8>) -> FrameOutcome {
        // `/proc/thread-self/stat` starts with the thread id; elsewhere
        // the CPU half of the probe is skipped.
        let tid = std::fs::read_to_string("/proc/thread-self/stat")
            .ok()
            .and_then(|stat| stat.split(' ').next()?.parse().ok())
            .unwrap_or(0);
        self.worker_tid.store(tid, Ordering::Relaxed);
        FrameOutcome {
            frames: vec![b"ack".to_vec()],
            established: true,
            more: frame == b"stream",
            close: frame == b"close",
        }
    }

    fn on_drain(&self, _conn: ConnId) -> FrameOutcome {
        FrameOutcome {
            frames: vec![vec![0x5a; self.chunk_len]],
            more: true,
            ..FrameOutcome::default()
        }
    }

    fn on_close(&self, _conn: ConnId) {
        self.closes.fetch_add(1, Ordering::Relaxed);
    }
}

/// CPU ticks (10 ms each) thread `tid` of this process has used.
fn thread_cpu_ticks(tid: u64) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap();
    // Fields after the parenthesised name; utime and stime are the
    // 14th and 15th of the line.
    let rest: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
    rest[11].parse::<u64>().unwrap() + rest[12].parse::<u64>().unwrap()
}

/// A handler asks for a drain-close while its peer is not reading, so
/// the queued output cannot move. The one worker must go to sleep (the
/// sink wakes the connection, not the worker itself), and the drain
/// deadline must turn the close into an abort so the slot comes back.
/// `send` writes one frame to the peer end of either kind of sink.
fn blocked_drain_close_parks_then_aborts(
    reactor: &ReactorHandle,
    handler: &StreamThenClose,
    send: &mut dyn FnMut(&[u8]),
) {
    let stats = Arc::clone(reactor.stats());
    let low_water = handler.chunk_len as u64 * 64;
    send(b"stream");
    // Nobody reads: the sink fills, lazy production stops at the
    // low-water mark, and from then on nothing is delivered.
    let backed_up = Instant::now() + Duration::from_secs(10);
    loop {
        let delivered = stats.frames_out_total();
        std::thread::sleep(Duration::from_millis(200));
        if stats.frames_out_total() == delivered && stats.outq_bytes() >= low_water * 3 / 4 {
            break;
        }
        assert!(Instant::now() < backed_up, "output never backed up");
    }
    send(b"close");
    eventually("drain-close requested", || {
        stats.conns_in(ConnState::Draining) == 1
    });

    let tid = handler.worker_tid.load(Ordering::Relaxed);
    if tid != 0 {
        let before = thread_cpu_ticks(tid);
        std::thread::sleep(Duration::from_millis(500));
        let burned = thread_cpu_ticks(tid) - before;
        assert!(
            burned < 10,
            "worker burned {burned} of 50 CPU ticks waiting on a blocked drain-close"
        );
    }
    assert_eq!(stats.closed_total(), 0, "still inside the drain deadline");

    // 5 s deadline plus a wheel slot.
    let give_up = Instant::now() + Duration::from_secs(10);
    while stats.closed_total() == 0 {
        assert!(Instant::now() < give_up, "drain deadline never fired");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(handler.closes.load(Ordering::Relaxed), 1);
    assert_eq!(stats.live_conns(), 0);
    assert_eq!(stats.outq_bytes(), 0, "undelivered output is written off");
}

/// A one-worker reactor whose handler streams `outbound_bytes / 128`
/// byte frames, so a stuck connection ends up with about half of
/// `outbound_bytes` (the low-water mark) queued in user space.
fn drain_probe_reactor(outbound_bytes: usize) -> (ReactorHandle, Arc<StreamThenClose>) {
    let handler = Arc::new(StreamThenClose {
        chunk_len: outbound_bytes / 128,
        worker_tid: AtomicU64::new(0),
        closes: AtomicU64::new(0),
    });
    let cfg = ReactorConfig {
        workers: 1,
        outbound_bytes,
        idle_timeout: Duration::ZERO, // the drain deadline must not need it
        ..ReactorConfig::default()
    };
    let reactor = ReactorHandle::start(cfg, Arc::clone(&handler) as Arc<dyn FrameHandler>);
    (reactor, handler)
}

#[test]
fn blocked_drain_close_on_a_virtual_sink_parks_then_aborts() {
    let (reactor, handler) = drain_probe_reactor(256 * 1024);
    let mut peer = reactor.connect_virtual().unwrap();
    blocked_drain_close_parks_then_aborts(&reactor, &handler, &mut |frame| {
        peer.send_frame(frame).unwrap();
    });
}

#[test]
fn blocked_drain_close_on_a_socket_parks_then_aborts() {
    if !seg_net::reactor::EPOLL_AVAILABLE {
        return;
    }
    // The kernel's socket buffers grow as they like (a few MiB each way
    // by default), so "the peer stopped reading" only holds once far
    // more than that is queued behind them: 32 MiB here.
    let (reactor, handler) = drain_probe_reactor(64 << 20);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    reactor.serve_listener(listener).unwrap();
    let mut peer = TcpStream::connect(addr).unwrap();
    blocked_drain_close_parks_then_aborts(&reactor, &handler, &mut |frame| {
        peer.write_all(&(frame.len() as u32).to_le_bytes()).unwrap();
        peer.write_all(frame).unwrap();
    });
}

/// At the connection cap the reactor sheds new connections instead of
/// queueing them, and the shed is counted.
#[test]
fn accept_shedding_at_the_connection_cap() {
    let (_setup, server, alice) = rig(6);
    server.set_reactor_config(ReactorConfig {
        max_conns: 2,
        ..ReactorConfig::default()
    });
    let _a = server.connect_local(&alice).unwrap();
    let _b = server.connect_local(&alice).unwrap();
    let shed = server.connect_local(&alice);
    assert!(shed.is_err(), "third connection is shed at the cap");
    assert_eq!(server.reactor().stats().shed_total(), 1);

    // Dropping one admits the next.
    drop(_a);
    eventually("slot freed", || server.reactor().stats().live_conns() < 2);
    let _c = server.connect_local(&alice).unwrap();
}

/// Many concurrent sessions on one reactor: far more connections than
/// worker threads, all making progress, gauges exact at both ends.
#[test]
fn many_concurrent_sessions_share_the_worker_pool() {
    let (_setup, server, alice) = rig(7);
    server.set_reactor_config(ReactorConfig {
        workers: 2,
        ..ReactorConfig::default()
    });
    let mut clients: Vec<Client<seg_net::ChannelTransport>> = (0..24)
        .map(|_| server.connect_local(&alice).unwrap())
        .collect();
    assert_eq!(server.reactor().stats().live_conns(), 24);
    clients[0].mkdir("/shared").unwrap();
    for (i, c) in clients.iter_mut().enumerate() {
        c.put(&format!("/shared/f{i}"), format!("body {i}").as_bytes())
            .unwrap();
    }
    for (i, c) in clients.iter_mut().enumerate() {
        assert_eq!(
            c.get(&format!("/shared/f{i}")).unwrap(),
            format!("body {i}").as_bytes()
        );
    }
    drop(clients);
    eventually("all sessions released", || {
        server.reactor().stats().live_conns() == 0
    });
}
