//! One fd per connection, and none left behind.
//!
//! A connection's socket lives in state that workers and the event loop
//! share (a worker writes the response, the loop reads the next request),
//! so it closes when the *last* holder lets go. This test cycles a
//! thousand TCP connections through every way a connection ends and
//! checks that the process's fd table and the reactor's gauges come back
//! to where they started. It is alone in its binary on purpose: the fd
//! table is process-wide, and a sibling test opening sockets would make
//! the count meaningless.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seg_net::reactor::{
    ConnId, FrameHandler, FrameOutcome, ReactorConfig, ReactorHandle, EPOLL_AVAILABLE,
};
use seg_net::{FrameTransport, NetError, TcpTransport};

/// `bye` answers and closes from the server side, `flood` streams 64 KiB
/// frames for as long as the peer lets it, anything else echoes.
struct Endings;

impl FrameHandler for Endings {
    fn on_frame(&self, _conn: ConnId, frame: Vec<u8>) -> FrameOutcome {
        FrameOutcome {
            close: frame == b"bye",
            more: frame == b"flood",
            frames: vec![frame],
            established: true,
        }
    }

    fn on_drain(&self, _conn: ConnId) -> FrameOutcome {
        FrameOutcome {
            frames: vec![vec![0xf1; 64 * 1024]],
            more: true,
            ..FrameOutcome::default()
        }
    }
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn eventually(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_thousand_connections_leave_no_fd_and_no_gauge_behind() {
    if !EPOLL_AVAILABLE {
        return;
    }
    let cfg = ReactorConfig {
        workers: 2,
        idle_timeout: Duration::ZERO,
        ..ReactorConfig::default()
    };
    let reactor = ReactorHandle::start(cfg, Arc::new(Endings));
    let stats = Arc::clone(reactor.stats());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    reactor.serve_listener(listener).unwrap();
    // One warm-up connection, so that whatever the first accept sets up
    // for good is part of the starting count.
    drop(TcpTransport::connect(&addr).unwrap());
    eventually("the warm-up to close", || stats.closed_total() == 1);
    let fds_at_start = open_fds();

    const CYCLES: u64 = 1_000;
    for cycle in 0..CYCLES {
        match cycle % 4 {
            // The client hangs up after its answer.
            0 => {
                let mut c = TcpTransport::connect(&addr).unwrap();
                c.send_frame(b"ping").unwrap();
                assert_eq!(c.recv_frame().unwrap(), b"ping");
            }
            // The server hangs up after its answer (a drain-close).
            1 => {
                let mut c = TcpTransport::connect(&addr).unwrap();
                c.send_frame(b"bye").unwrap();
                assert_eq!(c.recv_frame().unwrap(), b"bye");
                assert_eq!(c.recv_frame().unwrap_err(), NetError::Closed);
            }
            // The client vanishes in the middle of a response that is
            // still being produced and written.
            2 => {
                let mut c = TcpTransport::connect(&addr).unwrap();
                c.send_frame(b"flood").unwrap();
                assert_eq!(c.recv_frame().unwrap(), b"flood");
                assert_eq!(c.recv_frame().unwrap().len(), 64 * 1024);
            }
            // The client vanishes in the middle of its own request.
            _ => {
                let mut c = TcpStream::connect(&addr).unwrap();
                c.write_all(&[200, 0, 0, 0, 1, 2, 3]).unwrap();
                c.shutdown(Shutdown::Both).unwrap();
            }
        }
    }

    eventually("every connection to close", || {
        stats.closed_total() == 1 + CYCLES
    });
    assert_eq!(stats.accepted_total(), 1 + CYCLES);
    assert_eq!(stats.live_conns(), 0);
    assert_eq!(stats.dispatch_depth(), 0);
    assert_eq!(stats.outq_bytes(), 0, "undelivered floods are written off");
    // The sockets go with the last holder of each connection, a moment
    // after the close is counted.
    eventually("the fd table to return to its starting size", || {
        open_fds() == fds_at_start
    });
}
