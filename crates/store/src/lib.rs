//! Untrusted object storage for the SeGShare reproduction.
//!
//! In the paper's architecture (Fig. 1), the *untrusted file manager*
//! performs the actual memory/disk accesses for the enclave; everything it
//! touches is attacker-controlled (§III-B). This crate models that storage
//! layer:
//!
//! * [`ObjectStore`] — the interface the untrusted file manager
//!   implements. It comes from `seg-store-api`, the part of storage the
//!   enclave links; this crate re-exports it whole.
//! * [`CountingStore`] — the op and byte counters the host wraps each
//!   store it hands an enclave with. Every store call the enclave makes
//!   is one ocall, so the host counts it here, on its side of that
//!   ocall, and exports the counts as `seg_store_*`.
//! * [`MemStore`] — an in-memory store (the common test/bench substrate).
//! * [`AdversaryStore`] — a malicious-cloud wrapper that can tamper with,
//!   roll back, or delete objects, used by the threat-model tests to show
//!   the enclave detects every such manipulation.
//! * [`WalStore`] — a write-ahead-logged, group-commit durable store
//!   (append-only checksummed segments, in-memory index, checkpoints,
//!   crash recovery).
//! * [`FaultStore`] — a crash/failpoint wrapper (fail, crash, or tear
//!   the Nth write) used by the crash-matrix tests.
//! * [`PrefixStore`] — a key-prefixed view of a shared store, so several
//!   logical stores can share one write-ahead log (and therefore one
//!   atomic commit unit).
//!
//! # Example
//!
//! ```
//! use seg_store::{MemStore, ObjectStore};
//!
//! # fn main() -> Result<(), seg_store::StoreError> {
//! let store = MemStore::new();
//! store.put("content/f", b"ciphertext")?;
//! assert_eq!(store.get("content/f")?, Some(b"ciphertext".to_vec()));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod adversary;
mod counting;
mod fault;
mod mem;
mod prefix;
mod wal;

pub use adversary::AdversaryStore;
pub use counting::{CountingStore, StoreStats};
pub use fault::{FaultAction, FaultPlan, FaultStore};
pub use mem::MemStore;
pub use prefix::PrefixStore;
pub use wal::{WalConfig, WalStore};

pub use seg_store_api::*;
