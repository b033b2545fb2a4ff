//! The record layer: AES-128-GCM with sequence-number nonces.

use seg_crypto::gcm::{Gcm, IV_LEN};

use crate::TlsError;

/// Traffic keys for one direction.
#[derive(Clone)]
pub(crate) struct DirectionKeys {
    pub key: [u8; 16],
    pub iv_base: [u8; IV_LEN],
}

/// An established secure channel endpoint (one side).
///
/// Produced by a completed handshake. `seal` turns plaintext into an
/// opaque record; `open` authenticates and decrypts a peer record.
/// Records carry implicit sequence numbers: dropping, reordering, or
/// replaying records makes `open` fail.
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

    /// Encrypts one record.
    #[must_use]
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let _prof = seg_obs::prof::phase(seg_obs::Phase::TlsRecord);
        let seq = self.send_seq;
        self.send_seq += 1;
        self.send
            .seal(&nonce(&self.send_iv, seq), &record_aad(seq), plaintext)
    }

    /// Authenticates and decrypts one record.
    ///
    /// # Errors
    ///
    /// Returns [`TlsError::RecordRejected`] on tampering, replay,
    /// reorder, or truncation.
    pub fn open(&mut self, record: &[u8]) -> Result<Vec<u8>, TlsError> {
        let _prof = seg_obs::prof::phase(seg_obs::Phase::TlsRecord);
        let seq = self.recv_seq;
        let plaintext = self
            .recv
            .open(&nonce(&self.recv_iv, seq), &record_aad(seq), record)
            .map_err(|_| TlsError::RecordRejected)?;
        self.recv_seq += 1;
        Ok(plaintext)
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
    fn direction_keys_differ() {
        let (mut c, mut s) = pair();
        // A record sealed by the client cannot be opened by the client's
        // own receive state (reflection attack).
        let rec = c.seal(b"to server");
        assert!(c.open(&rec).is_err());
        assert!(s.open(&rec).is_ok());
    }
}
