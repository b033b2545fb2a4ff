//! Transports and the WAN model for the SeGShare reproduction.
//!
//! SeGShare's evaluation runs a client in Azure's central-US region
//! against a server in east US (§VII-B). We have one machine, so:
//!
//! * [`FrameTransport`] — the byte-frame interface both the TLS substrate
//!   and the plaintext baselines speak.
//! * [`duplex`] — an in-memory transport pair (tests, benches).
//! * [`TcpTransport`] — real TCP with length framing, one socket write
//!   per frame (examples can run a server and client in separate
//!   processes). The framing itself lives once, in the private `framing`
//!   module, behind this transport and the reactor alike.
//! * [`simwan::WanProfile`] — a deterministic model of the testbed's
//!   network (RTT, bandwidth, per-request overhead) that the bench
//!   harness composes with *measured* processing time to reproduce the
//!   paper's end-to-end latency shape.
//! * [`reactor`] — the event-driven C10K front end: an epoll event loop
//!   plus a bounded worker pool.

#![warn(missing_docs)]

mod framing;
pub mod reactor;
pub mod simwan;
mod tcp;
mod virtq;

pub use seg_proto::NetError;
pub use tcp::{SocketCalls, TcpTransport};

use std::sync::Arc;
use std::time::Duration;

use virtq::VirtQueue;

/// Maximum accepted frame size (64 MiB) — a sanity bound against
/// attacker-supplied length prefixes.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// A blocking, message-framed, bidirectional byte channel.
pub trait FrameTransport: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] if the peer is gone.
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError>;

    /// Sends `frames` in order, handed to the peer together where the
    /// transport can ([`TcpTransport`]: one socket write). The default
    /// sends each with [`FrameTransport::send_frame`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] if the peer is gone.
    fn send_frames(&mut self, frames: &[&[u8]]) -> Result<(), NetError> {
        frames.iter().try_for_each(|frame| self.send_frame(frame))
    }

    /// Receives one frame, blocking until available.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] when the peer hangs up.
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError>;
}

/// One end of an in-memory duplex connection.
///
/// Backed by a pair of bounded in-memory frame queues, so the same
/// type serves
/// both the classic [`duplex`] pair (two blocking ends) and the
/// reactor's virtual connections (blocking client end, event-driven
/// server end). Dropping either end closes the connection.
#[derive(Debug)]
pub struct ChannelTransport {
    tx: Arc<VirtQueue>,
    rx: Arc<VirtQueue>,
}

/// Frames buffered per direction before `send_frame` blocks —
/// backpressure like a real socket, so streamed transfers keep bounded
/// memory (the paper's constant-buffer streaming, §VI, end to end).
const DUPLEX_DEPTH: usize = 64;

/// Creates a connected in-memory transport pair.
#[must_use]
pub fn duplex() -> (ChannelTransport, ChannelTransport) {
    let ab = Arc::new(VirtQueue::new(DUPLEX_DEPTH, None, None));
    let ba = Arc::new(VirtQueue::new(DUPLEX_DEPTH, None, None));
    (
        ChannelTransport {
            tx: Arc::clone(&ab),
            rx: Arc::clone(&ba),
        },
        ChannelTransport { tx: ba, rx: ab },
    )
}

impl ChannelTransport {
    /// Builds a transport whose sends land in `tx` and whose receives
    /// drain `rx` (how the reactor hands out virtual peer ends).
    pub(crate) fn from_queues(tx: Arc<VirtQueue>, rx: Arc<VirtQueue>) -> ChannelTransport {
        ChannelTransport { tx, rx }
    }
}

impl FrameTransport for ChannelTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.tx.push(frame.to_vec())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        self.rx.pop()
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.tx.close();
        self.rx.close();
    }
}

/// A send that blocks at least this long counts as a slow-client byte
/// stall: the peer (or the in-memory channel standing in for it) is not
/// draining its receive window.
pub const DEFAULT_SEND_STALL: Duration = Duration::from_millis(20);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{ConnId, FrameHandler, FrameOutcome, ReactorConfig, ReactorHandle};
    use std::time::Instant;

    #[test]
    fn duplex_roundtrip() {
        let (mut a, mut b) = duplex();
        a.send_frame(b"ping").unwrap();
        assert_eq!(b.recv_frame().unwrap(), b"ping");
        b.send_frame(b"pong").unwrap();
        assert_eq!(a.recv_frame().unwrap(), b"pong");
    }

    #[test]
    fn frames_preserve_boundaries() {
        let (mut a, mut b) = duplex();
        a.send_frame(b"one").unwrap();
        a.send_frame(b"").unwrap();
        a.send_frame(b"three").unwrap();
        assert_eq!(b.recv_frame().unwrap(), b"one");
        assert_eq!(b.recv_frame().unwrap(), b"");
        assert_eq!(b.recv_frame().unwrap(), b"three");
    }

    #[test]
    fn closed_peer_detected() {
        let (mut a, b) = duplex();
        drop(b);
        assert_eq!(a.send_frame(b"x").unwrap_err(), NetError::Closed);
        assert_eq!(a.recv_frame().unwrap_err(), NetError::Closed);
    }

    /// Echoes every frame; `burst` answers with `virtual_depth + 1`
    /// frames so the last one finds the peer's queue full.
    struct Echo;

    const BURST_DEPTH: usize = 4;

    impl FrameHandler for Echo {
        fn on_frame(&self, _conn: ConnId, frame: Vec<u8>) -> FrameOutcome {
            let frames = if frame == b"burst" {
                vec![b"fill".to_vec(); BURST_DEPTH + 1]
            } else {
                vec![frame]
            };
            FrameOutcome {
                frames,
                ..FrameOutcome::default()
            }
        }
    }

    fn burst_reactor() -> ReactorHandle {
        let cfg = ReactorConfig {
            workers: 2,
            idle_timeout: Duration::ZERO,
            virtual_depth: BURST_DEPTH,
            ..ReactorConfig::default()
        };
        ReactorHandle::start(cfg, Arc::new(Echo))
    }

    /// The stats are charged just after the peer's queue push; wait out
    /// that last sliver.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn reactor_stats_count_sent_bytes_and_pass_frames() {
        let reactor = burst_reactor();
        let stats = reactor.stats();
        let mut t = reactor.connect_virtual().unwrap();
        t.send_frame(b"hello").unwrap();
        assert_eq!(t.recv_frame().unwrap(), b"hello");
        wait_for("the echo to be charged", || stats.bytes_out_total() == 5);
        assert_eq!(stats.outq_bytes(), 0, "nothing queued after delivery");
        assert_eq!(stats.send_stalls_total(), 0);
    }

    #[test]
    fn blocked_send_is_detected_as_a_client_stall() {
        let reactor = burst_reactor();
        let stats = reactor.stats();
        let mut t = reactor.connect_virtual().unwrap();
        // The reply overflows the peer's bounded queue by one frame, which
        // stays queued in the reactor until the (slow) reader drains.
        t.send_frame(b"burst").unwrap();
        wait_for("the queue to fill", || {
            stats.bytes_out_total() == (BURST_DEPTH * 4) as u64
        });
        assert_eq!(stats.outq_bytes(), 4, "the overflow frame is waiting");
        std::thread::sleep(DEFAULT_SEND_STALL + Duration::from_millis(10));
        for _ in 0..=BURST_DEPTH {
            assert_eq!(t.recv_frame().unwrap(), b"fill");
        }
        wait_for("the stall to be charged", || stats.send_stalls_total() == 1);
        assert!(u128::from(stats.send_stall_ns_total()) >= DEFAULT_SEND_STALL.as_nanos());
        assert_eq!(stats.bytes_out_total(), ((BURST_DEPTH + 1) * 4) as u64);
        assert_eq!(stats.outq_bytes(), 0);
    }

    #[test]
    fn idle_tracking_follows_sends() {
        let reactor = burst_reactor();
        let stats = reactor.stats();
        let mut t = reactor.connect_virtual().unwrap();
        assert_eq!(stats.idle_us(), 0, "before any send it reads 0, not huge");
        t.send_frame(b"tick").unwrap();
        assert_eq!(t.recv_frame().unwrap(), b"tick");
        wait_for("the echo to be charged", || stats.bytes_out_total() == 4);
        assert!(stats.idle_us() < 1_000_000, "just sent: near-zero idle");
        std::thread::sleep(Duration::from_millis(10));
        assert!(stats.idle_us() >= 10_000, "idle grows while nothing sends");
    }

    #[test]
    fn works_across_threads() {
        let (mut a, mut b) = duplex();
        let handle = std::thread::spawn(move || {
            for i in 0u32..100 {
                b.send_frame(&i.to_le_bytes()).unwrap();
            }
            // Echo back what we receive.
            let frame = b.recv_frame().unwrap();
            b.send_frame(&frame).unwrap();
        });
        for i in 0u32..100 {
            assert_eq!(a.recv_frame().unwrap(), i.to_le_bytes());
        }
        a.send_frame(b"done").unwrap();
        assert_eq!(a.recv_frame().unwrap(), b"done");
        handle.join().unwrap();
    }
}
