//! TCP transport with u32 length framing: one socket write per frame
//! sent, and as few reads as the kernel's segmentation allows.
//!
//! * [`send_frame`](FrameTransport::send_frame) hands the 4-byte prefix
//!   and the payload to the kernel in one `write_vectored` (looping only
//!   on a partial write). `TCP_NODELAY` is on, so two writes would be two
//!   segments and two wake-ups of the peer.
//! * [`recv_frame`](FrameTransport::recv_frame) reads through the shared
//!   [`FrameBuf`] parser: whatever one `read` returns is parsed in place,
//!   so a response whose records arrived in one segment (a `FileStart`
//!   and its `Data`) costs one read, not four. A body larger than what
//!   is buffered is read straight into its frame. The read itself lands
//!   in a per-thread 64 KiB scratch and only unconsumed bytes are kept,
//!   in a buffer that is released when empty — ten thousand idle clients
//!   pin no receive memory.

use std::cell::RefCell;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::framing::{self, FrameBuf, PREFIX_LEN, READ_CHUNK};
use crate::{FrameTransport, NetError};

thread_local! {
    /// Where this thread's transports land their reads before parsing.
    static SCRATCH: RefCell<Vec<u8>> = RefCell::new(vec![0u8; READ_CHUNK]);
}

/// How many socket calls a [`TcpTransport`] has made: the frame path's
/// "one write per message" is asserted on these, not inferred.
#[derive(Debug, Default)]
pub struct SocketCalls {
    reads: AtomicU64,
    writes: AtomicU64,
}

impl SocketCalls {
    /// `read` calls so far.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// `write` / `write_vectored` calls so far.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

/// A [`FrameTransport`] over a TCP stream: each frame is a little-endian
/// `u32` length followed by the payload.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    /// Received bytes past the last frame handed out.
    rx: FrameBuf,
    calls: Arc<SocketCalls>,
}

impl TcpTransport {
    /// Wraps a connected stream.
    #[must_use]
    pub fn new(stream: TcpStream) -> TcpTransport {
        // A frame leaves in one write; Nagle would only delay it.
        let _ = stream.set_nodelay(true);
        TcpTransport {
            stream,
            rx: FrameBuf::default(),
            calls: Arc::default(),
        }
    }

    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the connection fails.
    pub fn connect(addr: &str) -> Result<TcpTransport, NetError> {
        Ok(TcpTransport::new(TcpStream::connect(addr)?))
    }

    /// The transport's socket-call counters; the handle stays readable
    /// after the transport has moved into a client.
    #[must_use]
    pub fn socket_calls(&self) -> Arc<SocketCalls> {
        Arc::clone(&self.calls)
    }

    /// One `read` into `buf`; `Closed` at end of stream.
    fn read_some(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        loop {
            self.calls.reads.fetch_add(1, Ordering::Relaxed);
            match self.stream.read(buf) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl FrameTransport for TcpTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let prefix = framing::prefix(frame.len())?;
        let mut sent = 0;
        while sent < PREFIX_LEN + frame.len() {
            self.calls.writes.fetch_add(1, Ordering::Relaxed);
            let wrote = if sent < PREFIX_LEN {
                self.stream
                    .write_vectored(&[IoSlice::new(&prefix[sent..]), IoSlice::new(frame)])
            } else {
                self.stream.write(&frame[sent - PREFIX_LEN..])
            };
            match wrote {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        loop {
            if let Some(frame) = self.rx.pop()? {
                return Ok(frame);
            }
            if let Some((mut frame, mut have)) = self.rx.take_partial()? {
                while have < frame.len() {
                    have += self.read_some(&mut frame[have..])?;
                }
                return Ok(frame);
            }
            SCRATCH.with_borrow_mut(|scratch| -> Result<(), NetError> {
                let n = self.read_some(scratch)?;
                self.rx.push(&scratch[..n]);
                Ok(())
            })?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn tcp_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream);
            loop {
                match t.recv_frame() {
                    Ok(frame) => t.send_frame(&frame).unwrap(),
                    Err(NetError::Closed) => break,
                    Err(e) => panic!("{e}"),
                }
            }
        });

        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        for payload in [&b""[..], b"x", &[7u8; 100_000]] {
            client.send_frame(payload).unwrap();
            assert_eq!(client.recv_frame().unwrap(), payload);
        }
        drop(client);
        server.join().unwrap();
    }

    /// One peer write carrying two frames (a small one and a 4 KiB one,
    /// the shape of a hot get's response) costs the receiver one read,
    /// and a frame sent costs one write whatever its size.
    #[test]
    fn a_segment_of_frames_is_one_read_and_a_frame_is_one_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = [0u8; 4 + 5];
            stream.read_exact(&mut request).unwrap();
            let response = [vec![1u8; 24], vec![2u8; 4096]];
            stream.write_all(&framing::wire(&response)).unwrap();
            // Then, asked again, one frame far larger than a read: its
            // body is read straight into the frame.
            let mut t = TcpTransport::new(stream);
            assert_eq!(t.recv_frame().unwrap(), b"more");
            t.send_frame(&[3u8; 300_000]).unwrap();
            t.socket_calls().writes()
        });

        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        let calls = client.socket_calls();
        client.send_frame(b"hello").unwrap();
        assert_eq!(calls.writes(), 1, "prefix and payload leave together");
        assert_eq!(client.recv_frame().unwrap(), [1u8; 24]);
        assert_eq!(client.recv_frame().unwrap(), [2u8; 4096]);
        assert_eq!(calls.reads(), 1, "both frames came in the one segment");
        assert!(client.rx.is_empty(), "and the receive buffer is released");
        client.send_frame(b"more").unwrap();
        assert_eq!(client.recv_frame().unwrap(), vec![3u8; 300_000]);
        assert!(client.rx.is_empty());
        let server_writes = server.join().unwrap();
        assert!(server_writes >= 1, "looping only on partial writes");
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Claim a 1 GiB frame.
            stream.write_all(&(1_073_741_824u32).to_le_bytes()).unwrap();
        });
        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        assert!(matches!(
            client.recv_frame(),
            Err(NetError::FrameTooLarge(_))
        ));
        server.join().unwrap();
    }
}
