//! The wire framing, once: every frame is a little-endian `u32` length
//! followed by that many payload bytes.
//!
//! [`FrameBuf`] is the one parser both ends share — [`TcpTransport`]
//! behind its blocking reads and the reactor behind its nonblocking
//! ones: push whatever bytes the socket gave, pop complete frames. It
//! does no I/O, so hostile input is a matter of bytes in, frames (or a
//! refusal) out:
//!
//! * a length prefix above [`MAX_FRAME`] is refused as soon as its four
//!   bytes are in, before anything is allocated for it;
//! * consumed bytes are skipped with a cursor and the unconsumed tail is
//!   moved to the front at most once per [`push`](FrameBuf::push), so a
//!   peer that pipelines `k` small frames into one segment costs
//!   O(bytes), not O(bytes × k);
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
    /// Bytes compaction has moved so far (what the cursor exists to
    /// keep small).
    #[cfg(test)]
    moved: usize,
}

impl FrameBuf {
    /// Appends bytes as the socket delivered them, first moving any
    /// unconsumed tail to the front of the buffer.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
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

    /// Whether no unconsumed byte is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.buf.len()
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
        Ok(self
            .announced()?
            .is_some_and(|len| self.pending().len() - PREFIX_LEN >= len))
    }

    /// Removes and returns the next complete frame, or `None` when the
    /// buffered bytes end inside a prefix or a body. (Nothing is reserved
    /// for an announced body: the buffer grows with the bytes a peer
    /// actually sends, never with the length it claims.)
    ///
    /// # Errors
    ///
    /// Returns [`NetError::FrameTooLarge`] for a prefix above
    /// [`MAX_FRAME`]; nothing is consumed, so every later call fails the
    /// same way.
    pub(crate) fn pop(&mut self) -> Result<Option<Vec<u8>>, NetError> {
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

    /// For a reader that can block: once a prefix is in but its body is
    /// not, hands over a zero-filled frame of the announced length with
    /// the `have` body bytes received so far copied in, so the rest can
    /// be read straight into `frame[have..]`. The buffer is empty
    /// afterwards. `None` while the prefix is incomplete.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::FrameTooLarge`] for a prefix above
    /// [`MAX_FRAME`], before the frame is allocated.
    pub(crate) fn take_partial(&mut self) -> Result<Option<(Vec<u8>, usize)>, NetError> {
        let Some(len) = self.announced()? else {
            return Ok(None);
        };
        let body = &self.pending()[PREFIX_LEN..];
        debug_assert!(body.len() < len, "a complete frame is popped, not taken");
        let have = body.len().min(len);
        let mut frame = vec![0u8; len];
        frame[..have].copy_from_slice(&body[..have]);
        self.consume(PREFIX_LEN + have);
        Ok(Some((frame, have)))
    }

    fn consume(&mut self, n: usize) {
        self.head += n;
        if self.is_empty() {
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
        assert_eq!(
            buf.take_partial().map(|_| ()),
            Err(NetError::FrameTooLarge(MAX_FRAME + 1))
        );
        assert_eq!(buf.buf.capacity(), cap, "nothing was reserved for it");
        assert_eq!(buf.pop(), refused, "and it stays refused");
        // The largest legal prefix is accepted, and costs four bytes
        // until its body arrives.
        let mut buf = FrameBuf::default();
        buf.push(&(MAX_FRAME as u32).to_le_bytes());
        assert_eq!(buf.pop(), Ok(None));
        assert!(buf.buf.capacity() < 64);
    }

    #[test]
    fn take_partial_hands_over_the_body_so_far() {
        let mut buf = FrameBuf::default();
        buf.push(&65_536u32.to_le_bytes()[..2]);
        assert_eq!(buf.take_partial(), Ok(None), "prefix incomplete");
        buf.push(&65_536u32.to_le_bytes()[2..]);
        buf.push(b"abc");
        assert_eq!(buf.pop(), Ok(None));
        let (frame, have) = buf.take_partial().unwrap().unwrap();
        assert_eq!((frame.len(), have), (65_536, 3));
        assert_eq!(&frame[..3], b"abc");
        assert!(frame[3..].iter().all(|&b| b == 0));
        assert!(buf.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One frame sequence, cut at random places (a one-byte dribble
        /// up to the whole stream in one piece): the same frames come
        /// back, in order, whatever the segmentation.
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
                let (piece, tail) = rest.split_at((*cuts.next().unwrap()).min(rest.len()));
                buf.push(piece);
                pop_all(&mut buf, &mut got);
                rest = tail;
            }
            prop_assert_eq!(got, frames);
            prop_assert!(buf.is_empty());
        }

        /// Arbitrary bytes under arbitrary segmentation never panic, and
        /// never yield more payload than was pushed: each call returns a
        /// frame, asks for more, or refuses the prefix.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..4_096),
            cuts in proptest::collection::vec(1usize..512, 1..32),
            blocking in any::<bool>(),
        ) {
            let mut buf = FrameBuf::default();
            let mut rest = &bytes[..];
            let mut cuts = cuts.iter().cycle();
            let mut payload = 0usize;
            'feed: while !rest.is_empty() {
                let (piece, tail) = rest.split_at((*cuts.next().unwrap()).min(rest.len()));
                buf.push(piece);
                rest = tail;
                loop {
                    match buf.pop() {
                        Ok(Some(frame)) => payload += frame.len(),
                        Ok(None) if blocking => match buf.take_partial() {
                            // What a blocking reader would now read
                            // from the socket comes off the input.
                            Ok(Some((frame, have))) => {
                                payload += have;
                                rest = &rest[(frame.len() - have).min(rest.len())..];
                            }
                            Ok(None) => break,
                            Err(_) => break 'feed,
                        },
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
