//! # SeGShare — secure group file sharing in the cloud using enclaves
//!
//! A comprehensive Rust reproduction of *SeGShare: Secure Group File
//! Sharing in the Cloud using Enclaves* (Fuhry, Hirschoff, Koesnadi,
//! Kerschbaum — DSN 2020), on top of a software-simulated SGX platform
//! ([`seg_sgx`]).
//!
//! SeGShare is a server-side enclave that terminates a mutually-
//! authenticated TLS channel, authorizes every request against encrypted
//! group-based access control lists, and stores all data *and all
//! management files* encrypted under keys derived from an enclave-sealed
//! root key. Its headline properties (Table II of the paper):
//!
//! * immediate permission/membership revocation without re-encrypting a
//!   single content file (P3/S4) — a revocation rewrites one small
//!   encrypted metadata file;
//! * constant ciphertexts per file regardless of groups (P4/P5);
//! * confidentiality and integrity of content, file-system structure,
//!   permissions, groups, and memberships (S1/S2);
//! * separation of authentication (CA certificates) from authorization
//!   (groups) (F8);
//! * optional extensions: server-side deduplication (§V-A), inherited
//!   permissions (§V-B), filename/structure hiding (§V-C), rollback
//!   protection for individual files (§V-D) and the whole file system
//!   (§V-E), replication (§V-F), and backup/restore (§V-G). All are
//!   implemented here and toggled via [`EnclaveConfig`].
//!
//! ## Architecture (paper Fig. 1)
//!
//! ```text
//!  user                     cloud provider
//! ┌───────────┐   TLS    ┌─────────────────────────────────────────┐
//! │ Client    │◄────────►│ untrusted host          SeGShare enclave │
//! │ (client   │  records │ ┌──────────────┐ ecall ┌───────────────┐│
//! │  cert +   │          │ │ TLS terminat.│──────►│ trusted TLS   ││
//! │  key)     │          │ │ record pump  │◄──────│ request handlr││
//! └───────────┘          │ │ object store │ ocall │ access control││
//!                        │ │ (encrypted   │◄──────│ trusted file  ││
//!                        │ │  blobs only) │──────►│ manager       ││
//!                        │ └──────────────┘       └───────────────┘│
//!                        └─────────────────────────────────────────┘
//! ```
//!
//! ## Quick start
//!
//! ```
//! use segshare::{SegShareServer, EnclaveConfig, FsoSetup};
//! use seg_fs::Perm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The file-system owner sets up a CA and a server (in-memory stores).
//! let mut setup = FsoSetup::new_in_memory("acme-ca", EnclaveConfig::default());
//! let server = setup.server()?;
//!
//! // Enroll users (the CA issues client certificates).
//! let alice = setup.enroll_user("alice", "alice@acme.example", "Alice")?;
//! let bob = setup.enroll_user("bob", "bob@acme.example", "Bob")?;
//!
//! // Alice connects, uploads, and shares with a group.
//! let mut c = server.connect_local(&alice)?;
//! c.mkdir("/plans/")?;
//! c.put("/plans/q3.txt", b"expand to mars")?;
//! c.add_user("alice", "strategy")?; // creates the group, alice as owner
//! c.add_user("bob", "strategy")?;
//! c.set_perm("/plans/q3.txt", "strategy", Perm::Read)?;
//!
//! // Bob can read it.
//! let mut b = server.connect_local(&bob)?;
//! assert_eq!(b.get("/plans/q3.txt")?, b"expand to mars");
//!
//! // Revocation is immediate — no re-encryption of the file.
//! c.remove_user("bob", "strategy")?;
//! assert!(b.get("/plans/q3.txt").is_err());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod enclave;
pub mod error;
pub mod server;
pub mod telemetry;
pub mod untrusted;

pub use client::Client;
pub use config::EnclaveConfig;
pub use enclave::audit::{AuditLog, AuditRecord};
pub use enclave::health::{ScrubCheck, ScrubReport};
pub use error::SegShareError;
pub use server::{wal_views, EnrolledUser, FsoSetup, HealthOptions, SegShareServer};
pub use telemetry::health::HealthState;
pub use telemetry::Telemetry;
