//! # `seg-enclave` — the SeGShare enclave
//!
//! Everything inside the trusted boundary of *SeGShare: Secure Group
//! File Sharing in the Cloud using Enclaves* (Fuhry et al., DSN 2020):
//! the trusted TLS endpoint, the request handler, access control, the
//! trusted file manager with its rollback tree, and the audit trail
//! ([`enclave`]), plus the configuration compiled into it
//! ([`EnclaveConfig`]) and its error type ([`SegShareError`]).
//!
//! The crate boundary is the trust boundary. This crate's dependency
//! closure is what the enclave links, and no crate in it names the
//! host: it programs against the store interface (`seg-store-api`),
//! never a store backend, and against sans-I/O TLS state machines,
//! never a transport. The untrusted host, the client and the host's
//! telemetry live in `segshare`, which re-exports this crate.

#![warn(missing_docs)]

pub mod config;
pub mod enclave;
pub mod error;

pub use config::EnclaveConfig;
pub use enclave::audit::{AuditLog, AuditRecord};
pub use enclave::health::{ScrubCheck, ScrubReport};
pub use error::SegShareError;
