//! The crate-wide error type.

use std::error::Error;
use std::fmt;

use seg_proto::ErrorCode;

/// Errors surfaced by the SeGShare server and client.
#[derive(Debug)]
#[non_exhaustive]
pub enum SegShareError {
    /// The server refused a request (carries the protocol error code).
    Request {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Detail message.
        message: String,
    },
    /// Secure-channel failure.
    Tls(seg_tls::TlsError),
    /// Transport failure.
    Net(seg_proto::NetError),
    /// Storage failure in the untrusted store.
    Store(seg_store_api::StoreError),
    /// Simulated-SGX failure (sealing, counters, protected files).
    Sgx(seg_sgx::SgxError),
    /// PKI failure during setup.
    Pki(seg_pki::PkiError),
    /// Path/identifier/codec failure.
    Fs(seg_fs::FsError),
    /// Protocol codec failure.
    Proto(seg_proto::ProtoError),
    /// Stored data failed an integrity or rollback check.
    Integrity(String),
    /// The peer violated the protocol state machine.
    Protocol(String),
}

impl SegShareError {
    /// Convenience constructor for request refusals.
    #[must_use]
    pub fn request(code: ErrorCode, message: impl Into<String>) -> SegShareError {
        SegShareError::Request {
            code,
            message: message.into(),
        }
    }

    /// The protocol error code, if this is a request refusal.
    #[must_use]
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            SegShareError::Request { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl fmt::Display for SegShareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegShareError::Request { code, message } => write!(f, "{code}: {message}"),
            SegShareError::Tls(e) => write!(f, "tls: {e}"),
            SegShareError::Net(e) => write!(f, "net: {e}"),
            SegShareError::Store(e) => write!(f, "store: {e}"),
            SegShareError::Sgx(e) => write!(f, "sgx: {e}"),
            SegShareError::Pki(e) => write!(f, "pki: {e}"),
            SegShareError::Fs(e) => write!(f, "fs: {e}"),
            SegShareError::Proto(e) => write!(f, "proto: {e}"),
            SegShareError::Integrity(msg) => write!(f, "integrity violation: {msg}"),
            SegShareError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl Error for SegShareError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SegShareError::Tls(e) => Some(e),
            SegShareError::Net(e) => Some(e),
            SegShareError::Store(e) => Some(e),
            SegShareError::Sgx(e) => Some(e),
            SegShareError::Pki(e) => Some(e),
            SegShareError::Fs(e) => Some(e),
            SegShareError::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<seg_tls::TlsError> for SegShareError {
    fn from(e: seg_tls::TlsError) -> Self {
        SegShareError::Tls(e)
    }
}

impl From<seg_proto::NetError> for SegShareError {
    fn from(e: seg_proto::NetError) -> Self {
        SegShareError::Net(e)
    }
}

impl From<seg_store_api::StoreError> for SegShareError {
    fn from(e: seg_store_api::StoreError) -> Self {
        SegShareError::Store(e)
    }
}

impl From<seg_sgx::SgxError> for SegShareError {
    fn from(e: seg_sgx::SgxError) -> Self {
        SegShareError::Sgx(e)
    }
}

impl From<seg_pki::PkiError> for SegShareError {
    fn from(e: seg_pki::PkiError) -> Self {
        SegShareError::Pki(e)
    }
}

impl From<seg_fs::FsError> for SegShareError {
    fn from(e: seg_fs::FsError) -> Self {
        SegShareError::Fs(e)
    }
}

impl From<seg_proto::ProtoError> for SegShareError {
    fn from(e: seg_proto::ProtoError) -> Self {
        SegShareError::Proto(e)
    }
}
