//! A TLS-1.2-shaped, mutually-authenticated secure channel.
//!
//! The paper found public SGX TLS stacks inadequate and built its own
//! hybrid (§VI: Intel's crypto library plus OpenSSL's networking). The
//! architectural point — reproduced here — is the *split* of §IV-B:
//!
//! > "The untrusted TLS interface terminates the network connection
//! > (e.g., TCP), because the enclave cannot perform I/O. All TLS records
//! > are forwarded to the trusted TLS interface, which first performs the
//! > TLS handshake... Next, it decrypts/encrypts all incoming/outgoing
//! > TLS records."
//!
//! Accordingly the handshake ([`handshake`]) and record layer
//! ([`channel`]) are *sans-I/O* state machines that only ever consume and
//! produce opaque byte frames; the untrusted host pumps those frames
//! to and from its transport. The client's `SecureStream` (in
//! `segshare::client`) owns both halves.
//!
//! The handshake is ECDHE (X25519) with Ed25519 certificates on both
//! sides (mutual authentication, §IV-A), an HKDF-SHA-256 key schedule
//! bound to the handshake transcript, and AES-128-GCM records with
//! sequence-number nonces. The wire format is this crate's own — the
//! paper's guarantees need the handshake's properties, not RFC 5246
//! byte-compatibility.

pub mod channel;
pub mod handshake;
mod msg;

pub use channel::{TlsChannel, RECORD_OVERHEAD};
pub use handshake::{ClientHandshake, HandshakeStep, ServerHandshake};

use std::error::Error;
use std::fmt;

/// Errors from the secure channel.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TlsError {
    /// A handshake or record message was malformed.
    Malformed(String),
    /// The peer's certificate failed validation.
    CertificateInvalid(String),
    /// A handshake signature or finished MAC failed.
    HandshakeFailed(String),
    /// A record failed authentication (tamper, replay, reorder).
    RecordRejected,
    /// A message arrived in the wrong handshake state.
    UnexpectedMessage,
    /// Key agreement produced a weak secret.
    Crypto(seg_crypto::CryptoError),
}

impl fmt::Display for TlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TlsError::Malformed(msg) => write!(f, "malformed tls message: {msg}"),
            TlsError::CertificateInvalid(msg) => write!(f, "peer certificate invalid: {msg}"),
            TlsError::HandshakeFailed(msg) => write!(f, "handshake failed: {msg}"),
            TlsError::RecordRejected => f.write_str("record failed authentication"),
            TlsError::UnexpectedMessage => f.write_str("message in unexpected handshake state"),
            TlsError::Crypto(e) => write!(f, "crypto error: {e}"),
        }
    }
}

impl Error for TlsError {}

impl From<seg_crypto::CryptoError> for TlsError {
    fn from(e: seg_crypto::CryptoError) -> Self {
        TlsError::Crypto(e)
    }
}
