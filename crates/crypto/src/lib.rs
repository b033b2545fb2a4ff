//! From-scratch cryptographic substrate for the SeGShare reproduction.
//!
//! SeGShare (Fuhry et al., DSN 2020) relies on a handful of cryptographic
//! primitives: probabilistic authenticated encryption (AES-128-GCM, §II-B),
//! HMAC for deduplication names and path hiding (§V-A, §V-C), incremental
//! multiset hashes for the rollback-protection Merkle tree variant (§V-D),
//! and a TLS channel whose handshake needs a signature scheme and a
//! Diffie-Hellman exchange (§IV-A/B). This crate implements all of them from
//! first principles so the reproduction depends only on the allowed crate
//! list; every primitive is validated against published known-answer vectors
//! plus property-based tests.
//!
//! # Modules
//!
//! * [`sha256`] / [`sha512`] — FIPS 180-4 hash functions. Round constants
//!   are *derived* at compile time (integer cube/square roots of the first
//!   primes) rather than transcribed, and pinned by known-answer tests.
//!   SHA-256 runs on the x86-64 SHA extensions where the CPU has them.
//! * [`hmac`] — FIPS 198-1 HMAC over any [`digest::Digest`]; a keyed
//!   state can be kept and cloned per message.
//! * [`hkdf`] — RFC 5869 extract-and-expand KDF, used for the TLS key
//!   schedule and per-file key derivation ([`hkdf::RootPrk`] keeps the
//!   extracted root).
//! * [`aes`] — FIPS 197 AES-128/192/256 block cipher.
//! * [`gcm`] — NIST SP 800-38D Galois/Counter mode.
//! * [`pae`] — the paper's PAE abstraction (random-IV AES-128-GCM).
//! * [`mset`] — MSet-XOR-Hash incremental multiset hash (Clarke et al.,
//!   ASIACRYPT 2003), as named in §VI of the paper.
//! * [`curve25519`], [`ed25519`], [`x25519`] — Curve25519 arithmetic,
//!   RFC 8032 signatures and RFC 7748 Diffie-Hellman for the PKI and TLS
//!   substrates.
//! * [`ct`] — constant-time comparison helpers.
//! * [`rng`] — randomness plumbing (OS-backed and deterministic-for-test).
//!
//! # Example
//!
//! ```
//! use seg_crypto::pae::{PaeKey, pae_enc, pae_dec};
//! use seg_crypto::rng::SystemRng;
//!
//! # fn main() -> Result<(), seg_crypto::CryptoError> {
//! let key = PaeKey::generate(&mut SystemRng::new());
//! let ciphertext = pae_enc(&key, b"attack at dawn", b"", &mut SystemRng::new());
//! let plaintext = pae_dec(&key, &ciphertext, b"")?;
//! assert_eq!(plaintext, b"attack at dawn");
//! # Ok(())
//! # }
//! ```
//!
//! # Security note
//!
//! These implementations favour clarity and auditability over side-channel
//! hardening (table-based AES, variable-time curve arithmetic). That matches
//! the paper's threat model, which explicitly declares side channels out of
//! scope (§III-B).

#![warn(missing_docs)]

pub mod aes;
pub mod ct;
pub mod curve25519;
pub mod digest;
pub mod ed25519;
pub mod gcm;
pub mod hkdf;
pub mod hmac;
pub mod mset;
pub mod pae;
pub mod rng;
pub mod sha256;
mod sha2gen;
pub mod sha512;
pub mod x25519;

use std::error::Error;
use std::fmt;

/// Errors produced by the cryptographic primitives in this crate.
///
/// Deliberately coarse: authenticated decryption and signature verification
/// report *that* they failed, never *why*, so callers cannot build padding- or
/// format-oracle side channels out of the error value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CryptoError {
    /// An AEAD ciphertext failed authentication (wrong key, tampered data,
    /// or truncated input).
    AeadAuthenticationFailed,
    /// A signature did not verify under the given public key.
    SignatureInvalid,
    /// An encoded group element or key had an invalid encoding.
    InvalidEncoding,
    /// An input had an invalid length for the requested operation.
    InvalidLength,
    /// A Diffie-Hellman exchange produced an all-zero (low-order) output.
    WeakSharedSecret,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::AeadAuthenticationFailed => f.write_str("aead authentication failed"),
            CryptoError::SignatureInvalid => f.write_str("signature verification failed"),
            CryptoError::InvalidEncoding => f.write_str("invalid encoding"),
            CryptoError::InvalidLength => f.write_str("invalid input length"),
            CryptoError::WeakSharedSecret => f.write_str("weak diffie-hellman shared secret"),
        }
    }
}

impl Error for CryptoError {}
