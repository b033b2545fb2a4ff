//! Probabilistic Authenticated Encryption (PAE), §II-B of the paper.
//!
//! The paper defines `PAE_Enc(SK, IV, v) -> c` and `PAE_Dec(SK, c) -> v`
//! with a random IV per encryption, instantiated as AES-128-GCM. This
//! module provides exactly that interface; the ciphertext is
//! `IV || ciphertext || tag` so decryption needs only the key.

use crate::gcm::{Gcm, IV_LEN, TAG_LEN};
use crate::rng::SecureRandom;
use crate::CryptoError;

/// Ciphertext expansion of PAE in bytes (IV plus tag).
pub const PAE_OVERHEAD: usize = IV_LEN + TAG_LEN;

/// A 128-bit PAE key (the paper's `SK`).
#[derive(Clone)]
pub struct PaeKey(Gcm);

impl std::fmt::Debug for PaeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PaeKey(..)")
    }
}

impl PaeKey {
    /// Wraps raw 16-byte key material.
    #[must_use]
    pub fn from_bytes(key: &[u8; 16]) -> Self {
        PaeKey(Gcm::new(key).expect("16 bytes is a valid AES key"))
    }

    /// Generates a fresh random key.
    #[must_use]
    pub fn generate<R: SecureRandom>(rng: &mut R) -> Self {
        PaeKey::from_bytes(&rng.array::<16>())
    }
}

/// `PAE_Enc`: encrypts `v` under `key` with a random IV, binding `aad`.
///
/// Probabilistic: every call produces a different ciphertext for the same
/// plaintext.
#[must_use]
pub fn pae_enc<R: SecureRandom>(key: &PaeKey, v: &[u8], aad: &[u8], rng: &mut R) -> Vec<u8> {
    let iv: [u8; IV_LEN] = rng.array();
    let mut out = Vec::with_capacity(v.len() + PAE_OVERHEAD);
    out.extend_from_slice(&iv);
    out.extend_from_slice(v);
    let tag = key.0.seal_in_place(&iv, aad, &mut out[IV_LEN..]);
    out.extend_from_slice(&tag);
    out
}

/// `PAE_Dec`: authenticates and decrypts a [`pae_enc`] ciphertext.
///
/// # Errors
///
/// Returns [`CryptoError::AeadAuthenticationFailed`] if the ciphertext is
/// malformed, truncated, tampered with, bound to different `aad`, or
/// encrypted under a different key.
pub fn pae_dec(key: &PaeKey, c: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
    if c.len() < PAE_OVERHEAD {
        return Err(CryptoError::AeadAuthenticationFailed);
    }
    let (iv, sealed) = c.split_at(IV_LEN);
    let iv: [u8; IV_LEN] = iv.try_into().expect("split at IV_LEN");
    key.0.open(&iv, aad, sealed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DeterministicRng;

    fn key() -> PaeKey {
        PaeKey::from_bytes(&[0x42; 16])
    }

    #[test]
    fn roundtrip() {
        let mut rng = DeterministicRng::seeded(1);
        let c = pae_enc(&key(), b"value", b"path:/a", &mut rng);
        assert_eq!(c.len(), 5 + PAE_OVERHEAD);
        assert_eq!(
            pae_dec(&key(), &c, b"path:/a").expect("authentic"),
            b"value"
        );
    }

    #[test]
    fn probabilistic_encryption() {
        let mut rng = DeterministicRng::seeded(2);
        let c1 = pae_enc(&key(), b"same", b"", &mut rng);
        let c2 = pae_enc(&key(), b"same", b"", &mut rng);
        assert_ne!(c1, c2, "PAE must be probabilistic (random IV)");
    }

    #[test]
    fn wrong_key_fails() {
        let mut rng = DeterministicRng::seeded(3);
        let c = pae_enc(&key(), b"v", b"", &mut rng);
        let other = PaeKey::from_bytes(&[0x43; 16]);
        assert_eq!(
            pae_dec(&other, &c, b"").unwrap_err(),
            CryptoError::AeadAuthenticationFailed
        );
    }

    #[test]
    fn wrong_aad_fails() {
        let mut rng = DeterministicRng::seeded(4);
        let c = pae_enc(&key(), b"v", b"file:/x", &mut rng);
        assert!(pae_dec(&key(), &c, b"file:/y").is_err());
    }

    #[test]
    fn truncated_and_empty_inputs_fail() {
        let mut rng = DeterministicRng::seeded(5);
        let c = pae_enc(&key(), b"v", b"", &mut rng);
        assert!(pae_dec(&key(), &c[..PAE_OVERHEAD - 1], b"").is_err());
        assert!(pae_dec(&key(), &[], b"").is_err());
    }

    #[test]
    fn empty_plaintext_roundtrips() {
        let mut rng = DeterministicRng::seeded(6);
        let c = pae_enc(&key(), b"", b"", &mut rng);
        assert_eq!(c.len(), PAE_OVERHEAD);
        assert_eq!(pae_dec(&key(), &c, b"").expect("authentic"), b"");
    }

    #[test]
    fn every_bit_flip_detected_small() {
        let mut rng = DeterministicRng::seeded(7);
        let c = pae_enc(&key(), b"secret", b"", &mut rng);
        for i in 0..c.len() {
            let mut bad = c.clone();
            bad[i] ^= 1;
            assert!(pae_dec(&key(), &bad, b"").is_err(), "flip at byte {i}");
        }
    }
}
