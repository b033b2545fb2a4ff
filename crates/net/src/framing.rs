//! The wire framing, once: every frame is a little-endian `u32` length
//! followed by that many payload bytes.
//!
//! [`FrameBuf`] is the one parser both ends share — [`TcpTransport`]
//! behind its blocking reads and the reactor behind its nonblocking
//! ones: each socket read goes through [`FrameBuf::read_with`], complete
//! frames come out of [`FrameBuf::pop`]. The read lands in a shared
//! scratch buffer and is parsed from there, except for the body of a
//! large frame whose prefix and first read's worth of body are in but
//! whose body is not: the rest of that body is read straight into the
//! frame's own buffer, so most of a large frame's bytes are copied by
//! nobody. The parser does no I/O of its
//! own, so hostile input is a matter of bytes in, frames (or a refusal)
//! out:
//!
//! * a length prefix above [`MAX_FRAME`] is refused as soon as its four
//!   bytes are in, before anything is allocated for it;
//! * a body's buffer grows with the bytes that arrive, never with the
//!   announced length alone: a body gets a buffer of its own only once
//!   [`START`] of its bytes are in (until then they are buffered as they
//!   come), and that buffer runs at most [`AHEAD`] bytes (or as many as
//!   were received) ahead of them, so it holds at most about five times
//!   what the peer sent;
//! * consumed bytes are skipped with a cursor and the unconsumed tail is
//!   moved to the front at most once per read, so a peer that pipelines
//!   `k` small frames into one segment costs O(bytes), not
//!   O(bytes × k);
//! * the buffer is released the moment it is empty: an idle connection
//!   pins no receive memory.
//!
//! [`TcpTransport`]: crate::TcpTransport

use crate::{NetError, MAX_FRAME};

/// Bytes of the length prefix.
pub(crate) const PREFIX_LEN: usize = 4;

/// The size of the buffers both ends offer a `read`: the loopback MTU,
/// and many times a small request or its response. A read that returns
/// less has emptied the socket.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// The body bytes that must be in before the rest of a body is read
/// into a buffer of its own: what one full read delivers after the
/// prefix. A prefix followed by fewer bytes reserves nothing beyond
/// them.
pub(crate) const START: usize = READ_CHUNK - PREFIX_LEN;

/// How far a frame's buffer may run ahead of the body bytes its peer
/// has sent: this much, or as many bytes as were received, whichever is
/// more. With [`START`] bytes in first, that is at most about four
/// times what was received, and it covers every frame the protocol
/// sends in normal operation — a 256 KiB chunk's record, read after its
/// first 64 KiB — so those are read into one allocation.
pub(crate) const AHEAD: usize = 4 * READ_CHUNK;

/// The length prefix of a frame carrying `len` payload bytes.
///
/// # Errors
///
/// Returns [`NetError::FrameTooLarge`] when `len` does not fit the
/// prefix.
pub(crate) fn prefix(len: usize) -> Result<[u8; PREFIX_LEN], NetError> {
    u32::try_from(len)
        .map(u32::to_le_bytes)
        .map_err(|_| NetError::FrameTooLarge(len))
}

/// The byte stream that carries `frames` (what tests compare a peer's
/// reads against).
#[cfg(test)]
pub(crate) fn wire(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for frame in frames {
        out.extend_from_slice(&prefix(frame.len()).expect("test frames are small"));
        out.extend_from_slice(frame);
    }
    out
}

/// Received bytes not yet handed out as frames.
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` before this offset were already popped.
    head: usize,
    /// The frame whose body is being read into its own buffer. While it
    /// is set, `buf` is empty: the bytes after the body are still in the
    /// socket.
    body: Option<Body>,
    /// Bytes compaction has moved so far (what the cursor exists to
    /// keep small).
    #[cfg(test)]
    moved: usize,
}

/// A frame whose prefix is in but whose body is not.
#[derive(Debug)]
struct Body {
    /// The body so far, zero-filled from `have` to its reserved end.
    frame: Vec<u8>,
    /// Body bytes received.
    have: usize,
    /// The announced body length.
    len: usize,
}

impl Body {
    /// Where a buffer holding `have` of `len` body bytes may reserve up
    /// to: see [`AHEAD`].
    fn reach(have: usize, len: usize) -> usize {
        len.min(have + have.max(AHEAD))
    }

    fn is_complete(&self) -> bool {
        self.have == self.len
    }

    /// Where the next read lands, the buffer grown first if it is full.
    fn room(&mut self) -> &mut [u8] {
        debug_assert!(!self.is_complete(), "a complete body takes no read");
        if self.have == self.frame.len() {
            let reach = Body::reach(self.have, self.len);
            self.frame.reserve_exact(reach - self.have);
            self.frame.resize(reach, 0);
        }
        &mut self.frame[self.have..]
    }
}

impl FrameBuf {
    /// Appends bytes as the socket delivered them, first moving any
    /// unconsumed tail to the front of the buffer.
    fn push(&mut self, bytes: &[u8]) {
        debug_assert!(self.body.is_none(), "a body in flight reads for itself");
        if self.head > 0 {
            #[cfg(test)]
            {
                self.moved += self.buf.len() - self.head;
            }
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(self.buf.len() - self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Makes one socket read with `read`: into the body of a frame whose
    /// prefix announces more than is buffered — straight into the
    /// frame's own buffer, and no further than the body's end — else
    /// into `scratch`, whose bytes are then buffered. Returns how many
    /// bytes the read took and how many it was offered (a read that
    /// takes fewer has emptied the socket).
    ///
    /// # Errors
    ///
    /// Whatever `read` returns; nothing is buffered then.
    pub(crate) fn read_with<E>(
        &mut self,
        scratch: &mut [u8],
        read: impl FnOnce(&mut [u8]) -> Result<usize, E>,
    ) -> Result<(usize, usize), E> {
        if self.body.is_none() {
            self.body = self.start_body();
        }
        match &mut self.body {
            Some(body) => {
                let room = body.room();
                let offered = room.len();
                let n = read(room)?;
                body.have += n;
                Ok((n, offered))
            }
            None => {
                let n = read(scratch)?;
                self.push(&scratch[..n]);
                Ok((n, scratch.len()))
            }
        }
    }

    /// Moves the body bytes buffered so far into a frame of their own,
    /// once a prefix announces more than is buffered and at least
    /// [`START`] body bytes are in. (A complete frame is popped, and a
    /// refused prefix stays refused, not started.)
    fn start_body(&mut self) -> Option<Body> {
        let len = self.announced().ok()??;
        let have = self.pending().len() - PREFIX_LEN;
        if have >= len || have < START {
            return None;
        }
        let mut frame = Vec::with_capacity(Body::reach(have, len));
        frame.extend_from_slice(&self.pending()[PREFIX_LEN..]);
        self.consume(PREFIX_LEN + have);
        Some(Body { frame, have, len })
    }

    /// Whether no received byte is waiting to be handed out.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.buf.len() && self.body.is_none()
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    /// The payload length the buffered prefix announces, once all four
    /// of its bytes are in.
    fn announced(&self) -> Result<Option<usize>, NetError> {
        let Some(prefix) = self.pending().first_chunk::<PREFIX_LEN>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err(NetError::FrameTooLarge(len));
        }
        Ok(Some(len))
    }

    /// Whether [`pop`](FrameBuf::pop) would return a frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::FrameTooLarge`] for a prefix above
    /// [`MAX_FRAME`].
    pub(crate) fn frame_ready(&self) -> Result<bool, NetError> {
        if let Some(body) = &self.body {
            return Ok(body.is_complete());
        }
        Ok(self
            .announced()?
            .is_some_and(|len| self.pending().len() - PREFIX_LEN >= len))
    }

    /// Removes and returns the next complete frame, or `None` when the
    /// received bytes end inside a prefix or a body.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::FrameTooLarge`] for a prefix above
    /// [`MAX_FRAME`]; nothing is consumed, so every later call fails the
    /// same way.
    pub(crate) fn pop(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        if let Some(body) = self.body.take_if(|body| body.is_complete()) {
            return Ok(Some(body.frame));
        }
        if self.body.is_some() {
            return Ok(None);
        }
        let Some(len) = self.announced()? else {
            return Ok(None);
        };
        let body = &self.pending()[PREFIX_LEN..];
        if body.len() < len {
            return Ok(None);
        }
        let frame = body[..len].to_vec();
        self.consume(PREFIX_LEN + len);
        Ok(Some(frame))
    }

    fn consume(&mut self, n: usize) {
        self.head += n;
        if self.head == self.buf.len() {
            self.buf = Vec::new();
            self.head = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pop_all(buf: &mut FrameBuf, into: &mut Vec<Vec<u8>>) {
        while let Some(frame) = buf.pop().unwrap() {
            into.push(frame);
        }
    }

    /// One read of at most `most` bytes off the front of `rest`, through
    /// `read_with`, as a socket holding `rest` would answer it.
    fn read(buf: &mut FrameBuf, rest: &mut &[u8], most: usize) -> (usize, usize) {
        let mut scratch = vec![0u8; READ_CHUNK];
        buf.read_with(&mut scratch, |into| -> Result<usize, ()> {
            let n = into.len().min(most).min(rest.len());
            into[..n].copy_from_slice(&rest[..n]);
            *rest = &rest[n..];
            Ok(n)
        })
        .unwrap()
    }

    #[test]
    fn frames_come_back_whole_across_any_read_size() {
        let frames = vec![
            b"one".to_vec(),
            Vec::new(),
            vec![7u8; 300_000],
            b"x".to_vec(),
        ];
        let bytes = wire(&frames);
        for most in [1usize, 2, 3, 5, 4096, bytes.len()] {
            let mut buf = FrameBuf::default();
            let mut got = Vec::new();
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                read(&mut buf, &mut rest, most);
                pop_all(&mut buf, &mut got);
            }
            assert_eq!(got, frames, "read {most} bytes at a time");
            assert!(buf.is_empty());
            assert_eq!(buf.buf.capacity(), 0, "an empty buffer is released");
        }
    }

    #[test]
    fn frames_come_back_whole_across_any_split() {
        let frames = vec![
            b"one".to_vec(),
            Vec::new(),
            vec![7u8; 70_000],
            b"x".to_vec(),
        ];
        let bytes = wire(&frames);
        for step in [1usize, 2, 3, 5, 4096, bytes.len()] {
            let mut buf = FrameBuf::default();
            let mut got = Vec::new();
            for piece in bytes.chunks(step) {
                buf.push(piece);
                pop_all(&mut buf, &mut got);
            }
            assert_eq!(got, frames, "split into {step}-byte pieces");
            assert!(buf.is_empty());
            assert_eq!(buf.buf.capacity(), 0, "an empty buffer is released");
        }
    }

    /// 16 384 empty frames in one 64 KiB segment, consumed 32 at a time
    /// as an inbox of 32 would: the cursor moves no byte at all, and the
    /// next segment moves the unconsumed tail once. (One `drain(..)` per
    /// frame moved 64 KiB × 16 384 / 2 = 512 MiB here.)
    #[test]
    fn pipelined_small_frames_move_each_byte_at_most_once() {
        let segment = wire(&vec![Vec::new(); 16 * 1024]);
        assert_eq!(segment.len(), 64 * 1024);
        let mut buf = FrameBuf::default();
        buf.push(&segment);
        buf.push(&segment[..2]); // a second segment ends inside a prefix
        assert_eq!(buf.moved, 0, "nothing consumed yet, nothing to move");
        let mut popped = 0usize;
        while popped < 16 * 1024 - 32 {
            for _ in 0..32 {
                assert_eq!(buf.pop().unwrap(), Some(Vec::new()));
            }
            popped += 32;
        }
        assert_eq!(buf.moved, 0, "a parser pass is a cursor walk");
        let tail = 32 * PREFIX_LEN + 2;
        buf.push(&segment[2..]);
        assert_eq!(
            buf.moved, tail,
            "the next fill compacts once, the tail only"
        );
        let mut rest = Vec::new();
        pop_all(&mut buf, &mut rest);
        assert_eq!(rest.len(), 32 + 16 * 1024);
        assert_eq!(buf.moved, tail);
        assert!(buf.is_empty());
    }

    #[test]
    fn oversized_prefix_is_refused_before_any_allocation() {
        let mut buf = FrameBuf::default();
        buf.push(&((MAX_FRAME + 1) as u32).to_le_bytes()[..3]);
        assert_eq!(buf.pop(), Ok(None), "three bytes are no prefix yet");
        buf.push(&((MAX_FRAME + 1) as u32).to_le_bytes()[3..]);
        let cap = buf.buf.capacity();
        let refused = Err(NetError::FrameTooLarge(MAX_FRAME + 1));
        assert_eq!(buf.pop(), refused);
        assert_eq!(
            buf.frame_ready(),
            Err(NetError::FrameTooLarge(MAX_FRAME + 1))
        );
        assert_eq!(buf.buf.capacity(), cap, "nothing was reserved for it");
        // A read goes to the scratch buffer: no body is started for it.
        let mut rest = &[1u8, 2, 3][..];
        assert_eq!(read(&mut buf, &mut rest, 3), (3, READ_CHUNK));
        assert_eq!(buf.pop(), refused, "and it stays refused");
        // The largest legal prefix is accepted, and costs four bytes
        // until its body arrives.
        let mut buf = FrameBuf::default();
        buf.push(&(MAX_FRAME as u32).to_le_bytes());
        assert_eq!(buf.pop(), Ok(None));
        assert!(buf.buf.capacity() < 64);
    }

    /// A prefix alone, or a prefix and fewer than `START` body bytes,
    /// reserves nothing beyond the bytes received: they are buffered as
    /// they come. Once `START` body bytes are in, the rest of the body is
    /// read into the frame's own buffer, which runs no more than `AHEAD`
    /// (or the bytes received) ahead of what arrived: a 64 MiB
    /// announcement costs a small multiple of what its sender sends, not
    /// what it claims.
    #[test]
    fn a_body_is_read_into_its_own_frame_which_grows_with_the_bytes() {
        let reserved = |buf: &FrameBuf| {
            buf.buf.capacity() + buf.body.as_ref().map_or(0, |b| b.frame.capacity())
        };
        let mut buf = FrameBuf::default();
        let mut announced = (MAX_FRAME as u32).to_le_bytes().to_vec();
        announced.push(1);
        let mut rest = &announced[..];
        read(&mut buf, &mut rest, usize::MAX);
        assert_eq!(buf.pop(), Ok(None));
        let body = vec![9u8; 6 * AHEAD];
        let mut rest = &body[..];
        // The read after a prefix and one byte goes to the scratch
        // buffer: nothing is reserved for the announced body.
        let (n, offered) = read(&mut buf, &mut rest, 2);
        assert_eq!((n, offered), (2, READ_CHUNK));
        assert!(buf.body.is_none());
        assert!(
            reserved(&buf) <= 64,
            "7 bytes in, {} reserved",
            reserved(&buf)
        );
        // Still buffered as they come until START body bytes are in.
        let (n, _) = read(&mut buf, &mut rest, START - 4);
        assert_eq!(n, START - 4);
        assert!(buf.body.is_none());
        assert!(reserved(&buf) <= 2 * (PREFIX_LEN + START));
        // One byte more and the body starts: AHEAD more offered.
        read(&mut buf, &mut rest, 1);
        let (n, offered) = read(&mut buf, &mut rest, usize::MAX);
        assert_eq!((n, offered), (AHEAD, AHEAD), "START in, AHEAD more offered");
        assert!(
            buf.buf.is_empty(),
            "the buffered bytes moved into the frame"
        );
        let have = START + AHEAD;
        assert_eq!(reserved(&buf), have);
        // Past AHEAD the buffer at most doubles what has arrived.
        let (n, offered) = read(&mut buf, &mut rest, usize::MAX);
        assert_eq!((n, offered), (have, have));
        assert_eq!(reserved(&buf), 2 * have);
        assert_eq!(buf.pop(), Ok(None), "64 MiB announced, far from in");

        // A body ends where its frame does: the next frame's bytes stay
        // in the socket for the next read.
        let mut buf = FrameBuf::default();
        let frames = vec![vec![5u8; 100_000], b"next".to_vec()];
        let bytes = wire(&frames);
        let mut rest = &bytes[..];
        assert_eq!(
            read(&mut buf, &mut rest, READ_CHUNK),
            (READ_CHUNK, READ_CHUNK)
        );
        let left = 100_000 + PREFIX_LEN - READ_CHUNK;
        assert_eq!(read(&mut buf, &mut rest, usize::MAX), (left, left));
        assert_eq!(rest.len(), PREFIX_LEN + 4, "the next frame was not read");
        assert_eq!(buf.pop().unwrap().as_ref(), Some(&frames[0]));
        assert!(buf.is_empty());
        read(&mut buf, &mut rest, usize::MAX);
        assert_eq!(buf.pop().unwrap().as_ref(), Some(&frames[1]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One frame sequence, read in pieces of random size (a
        /// one-byte dribble up to the whole stream at once): the same
        /// frames come back, in order, whatever the segmentation.
        #[test]
        fn any_segmentation_yields_the_same_frames(
            frames in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..600), 0..24),
            cuts in proptest::collection::vec(1usize..2_000, 1..64),
        ) {
            let bytes = wire(&frames);
            let mut buf = FrameBuf::default();
            let mut got = Vec::new();
            let mut rest = &bytes[..];
            let mut cuts = cuts.iter().cycle();
            while !rest.is_empty() {
                read(&mut buf, &mut rest, *cuts.next().unwrap());
                pop_all(&mut buf, &mut got);
            }
            prop_assert_eq!(got, frames);
            prop_assert!(buf.is_empty());
        }

        /// Arbitrary bytes under arbitrary segmentation never panic, and
        /// never yield more payload than was read: each call returns a
        /// frame, asks for more, or refuses the prefix.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..4_096),
            cuts in proptest::collection::vec(1usize..512, 1..32),
        ) {
            let mut buf = FrameBuf::default();
            let mut rest = &bytes[..];
            let mut cuts = cuts.iter().cycle();
            let mut payload = 0usize;
            'feed: while !rest.is_empty() {
                let (n, offered) = read(&mut buf, &mut rest, *cuts.next().unwrap());
                prop_assert!(n <= offered);
                loop {
                    match buf.pop() {
                        Ok(Some(frame)) => payload += frame.len(),
                        Ok(None) => break,
                        Err(e) => {
                            prop_assert!(matches!(e, NetError::FrameTooLarge(n) if n > MAX_FRAME));
                            prop_assert!(buf.frame_ready().is_err());
                            break 'feed;
                        }
                    }
                }
            }
            prop_assert!(payload <= bytes.len());
        }
    }
}
