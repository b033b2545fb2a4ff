//! The record layer: AES-128-GCM with sequence-number nonces.

use seg_crypto::gcm::{Gcm, IV_LEN, TAG_LEN};

use crate::TlsError;

/// Traffic keys for one direction.
#[derive(Clone)]
pub(crate) struct DirectionKeys {
    pub key: [u8; 16],
    pub iv_base: [u8; IV_LEN],
}

/// Bytes a record adds to its plaintext (the GCM tag). A plaintext
/// buffer with this much spare capacity seals without reallocating.
pub const RECORD_OVERHEAD: usize = TAG_LEN;

/// An established secure channel endpoint (one side).
///
/// Produced by a completed handshake. `seal` turns plaintext into an
/// opaque record; `open` authenticates and decrypts a peer record.
/// Both work in place on an owned buffer ([`seal_owned`],
/// [`open_owned`]); the borrowing forms copy once into one. Records
/// carry implicit sequence numbers: dropping, reordering, or replaying
/// records makes `open` fail.
///
/// [`seal_owned`]: TlsChannel::seal_owned
/// [`open_owned`]: TlsChannel::open_owned
pub struct TlsChannel {
    send: Gcm,
    recv: Gcm,
    send_iv: [u8; IV_LEN],
    recv_iv: [u8; IV_LEN],
    send_seq: u64,
    recv_seq: u64,
}

impl std::fmt::Debug for TlsChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsChannel")
            .field("send_seq", &self.send_seq)
            .field("recv_seq", &self.recv_seq)
            .finish()
    }
}

fn nonce(iv_base: &[u8; IV_LEN], seq: u64) -> [u8; IV_LEN] {
    let mut iv = *iv_base;
    for (slot, b) in iv[IV_LEN - 8..].iter_mut().zip(seq.to_be_bytes()) {
        *slot ^= b;
    }
    iv
}

fn record_aad(seq: u64) -> [u8; 11] {
    let mut aad = *b"rec\0\0\0\0\0\0\0\0";
    aad[3..].copy_from_slice(&seq.to_be_bytes());
    aad
}

impl TlsChannel {
    pub(crate) fn new(send: DirectionKeys, recv: DirectionKeys) -> TlsChannel {
        TlsChannel {
            send: Gcm::new(&send.key).expect("16-byte key"),
            recv: Gcm::new(&recv.key).expect("16-byte key"),
            send_iv: send.iv_base,
            recv_iv: recv.iv_base,
            send_seq: 0,
            recv_seq: 0,
        }
    }

    /// Encrypts one record: [`seal_owned`](Self::seal_owned) over a
    /// copy of `plaintext`.
    #[must_use]
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(plaintext.len() + RECORD_OVERHEAD);
        buf.extend_from_slice(plaintext);
        self.seal_owned(buf)
    }

    /// Encrypts one record in place: `buf` holds the plaintext and is
    /// handed back as the record, its tag appended.
    #[must_use]
    pub fn seal_owned(&mut self, mut buf: Vec<u8>) -> Vec<u8> {
        let _prof = seg_obs::prof::phase(seg_obs::Phase::TlsRecord);
        let seq = self.send_seq;
        self.send_seq += 1;
        let tag = self
            .send
            .seal_in_place(&nonce(&self.send_iv, seq), &record_aad(seq), &mut buf);
        buf.extend_from_slice(&tag);
        buf
    }

    /// Authenticates and decrypts one record:
    /// [`open_owned`](Self::open_owned) over a copy of `record`.
    ///
    /// # Errors
    ///
    /// Returns [`TlsError::RecordRejected`] on tampering, replay,
    /// reorder, or truncation.
    pub fn open(&mut self, record: &[u8]) -> Result<Vec<u8>, TlsError> {
        self.open_owned(record.to_vec())
    }

    /// Authenticates and decrypts one record in place: the buffer comes
    /// back as the plaintext. A rejected record is dropped whole, and
    /// the receive sequence stays where it was.
    ///
    /// # Errors
    ///
    /// Returns [`TlsError::RecordRejected`] on tampering, replay,
    /// reorder, or truncation.
    pub fn open_owned(&mut self, mut record: Vec<u8>) -> Result<Vec<u8>, TlsError> {
        let _prof = seg_obs::prof::phase(seg_obs::Phase::TlsRecord);
        let seq = self.recv_seq;
        let len = record
            .len()
            .checked_sub(TAG_LEN)
            .ok_or(TlsError::RecordRejected)?;
        let (data, tag) = record.split_at_mut(len);
        self.recv
            .open_in_place(&nonce(&self.recv_iv, seq), &record_aad(seq), data, tag)
            .map_err(|_| TlsError::RecordRejected)?;
        record.truncate(len);
        self.recv_seq += 1;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TlsChannel, TlsChannel) {
        let a = DirectionKeys {
            key: [1u8; 16],
            iv_base: [2u8; 12],
        };
        let b = DirectionKeys {
            key: [3u8; 16],
            iv_base: [4u8; 12],
        };
        (TlsChannel::new(a.clone(), b.clone()), TlsChannel::new(b, a))
    }

    #[test]
    fn seal_open_roundtrip() {
        let (mut c, mut s) = pair();
        for i in 0..10u32 {
            let msg = format!("message {i}");
            let rec = c.seal(msg.as_bytes());
            assert_eq!(s.open(&rec).unwrap(), msg.as_bytes());
        }
        // And the other direction.
        let rec = s.seal(b"reply");
        assert_eq!(c.open(&rec).unwrap(), b"reply");
    }

    #[test]
    fn replay_rejected() {
        let (mut c, mut s) = pair();
        let rec = c.seal(b"once");
        s.open(&rec).unwrap();
        assert_eq!(s.open(&rec).unwrap_err(), TlsError::RecordRejected);
    }

    #[test]
    fn reorder_rejected() {
        let (mut c, mut s) = pair();
        let r1 = c.seal(b"first");
        let r2 = c.seal(b"second");
        assert_eq!(s.open(&r2).unwrap_err(), TlsError::RecordRejected);
        // The failed open must not advance state: r1 still opens.
        assert_eq!(s.open(&r1).unwrap(), b"first");
        assert_eq!(s.open(&r2).unwrap(), b"second");
    }

    #[test]
    fn tamper_rejected() {
        let (mut c, mut s) = pair();
        let mut rec = c.seal(b"payload");
        rec[0] ^= 1;
        assert_eq!(s.open(&rec).unwrap_err(), TlsError::RecordRejected);
    }

    #[test]
    fn owned_and_borrowed_forms_make_the_same_records() {
        let (mut c1, mut s1) = pair();
        let (mut c2, mut s2) = pair();
        for msg in [&b""[..], b"x", &[9u8; 5000]] {
            let mut buf = Vec::with_capacity(msg.len() + RECORD_OVERHEAD);
            buf.extend_from_slice(msg);
            let cap = buf.capacity();
            let owned = c1.seal_owned(buf);
            assert_eq!(owned.capacity(), cap, "sealed without reallocating");
            assert_eq!(owned, c2.seal(msg));
            assert_eq!(s1.open(&owned).unwrap(), msg);
            assert_eq!(s2.open_owned(owned).unwrap(), msg);
        }
    }

    #[test]
    fn short_records_rejected_without_advancing() {
        let (mut c, mut s) = pair();
        let rec = c.seal(b"after");
        for len in 0..TAG_LEN {
            assert_eq!(
                s.open_owned(vec![0u8; len]).unwrap_err(),
                TlsError::RecordRejected
            );
        }
        assert_eq!(s.open_owned(rec).unwrap(), b"after");
    }

    #[test]
    fn direction_keys_differ() {
        let (mut c, mut s) = pair();
        // A record sealed by the client cannot be opened by the client's
        // own receive state (reflection attack).
        let rec = c.seal(b"to server");
        assert!(c.open(&rec).is_err());
        assert!(s.open(&rec).is_ok());
    }
}
