//! The object-store interface of the SeGShare reproduction: what the
//! enclave programs against.
//!
//! [`ObjectStore`] is the interface the untrusted file manager
//! implements (paper Fig. 1), with its [`WriteBatch`], [`CommitTicket`],
//! [`StoreError`] and [`IoStats`]. The backends themselves (in-memory,
//! write-ahead-logged, prefixed views, the counting, fault and adversary
//! wrappers) live in `seg-store`, on the untrusted side; it re-exports
//! this crate whole. This crate links no telemetry.

#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors from storage backends.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// An underlying I/O failure (message carries the OS error text).
    Io(String),
    /// `rename` was asked to move a key that does not exist.
    NotFound(String),
    /// Injected failure (`seg-store`'s adversary and fault wrappers).
    Injected,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "storage i/o error: {msg}"),
            StoreError::NotFound(key) => write!(f, "object not found: {key}"),
            StoreError::Injected => f.write_str("injected storage failure"),
        }
    }
}

impl Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        StoreError::Io(err.to_string())
    }
}

/// One mutation inside a [`WriteBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Create or replace the object at `key`.
    Put {
        /// Target key.
        key: String,
        /// New value.
        value: Vec<u8>,
    },
    /// Delete the object at `key` (absent keys are a no-op).
    Delete {
        /// Target key.
        key: String,
    },
}

/// An ordered group of mutations that a durable backend commits as one
/// atomic, singly-fsynced unit: after a crash, either every op in the
/// batch is visible or none is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    /// The mutations, in application order.
    pub ops: Vec<BatchOp>,
}

impl WriteBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Appends a put.
    pub fn put(&mut self, key: impl Into<String>, value: impl Into<Vec<u8>>) {
        self.ops.push(BatchOp::Put {
            key: key.into(),
            value: value.into(),
        });
    }

    /// Appends a delete.
    pub fn delete(&mut self, key: impl Into<String>) {
        self.ops.push(BatchOp::Delete { key: key.into() });
    }

    /// Number of ops in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no ops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Shared completion state behind a pending [`CommitTicket`]: the half
/// a durable backend keeps and completes once the batch is fsynced.
#[derive(Debug)]
pub struct TicketState {
    result: std::sync::Mutex<Option<Result<(), StoreError>>>,
    cond: std::sync::Condvar,
}

impl TicketState {
    /// A state no one has completed yet.
    #[must_use]
    pub fn new() -> Arc<TicketState> {
        Arc::new(TicketState {
            result: std::sync::Mutex::new(None),
            cond: std::sync::Condvar::new(),
        })
    }

    /// Completes the ticket, waking every waiter.
    pub fn complete(&self, result: Result<(), StoreError>) {
        let mut slot = self.result.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(result);
        }
        self.cond.notify_all();
    }
}

/// A handle to a submitted batch's durability: [`CommitTicket::wait`]
/// blocks until the batch is durable (fsynced) or the backend failed.
///
/// Volatile backends return already-completed tickets, so callers can
/// wait unconditionally.
#[derive(Debug, Clone)]
pub struct CommitTicket {
    inner: Option<Arc<TicketState>>,
}

impl CommitTicket {
    /// A ticket that is already durable (volatile or write-through
    /// backends).
    #[must_use]
    pub fn ready() -> CommitTicket {
        CommitTicket { inner: None }
    }

    /// A ticket that [`CommitTicket::wait`]s until `state` is
    /// completed.
    #[must_use]
    pub fn pending(state: Arc<TicketState>) -> CommitTicket {
        CommitTicket { inner: Some(state) }
    }

    /// Blocks until the batch behind this ticket is durable.
    ///
    /// # Errors
    ///
    /// Returns the backend failure that prevented durability (after
    /// which the batch's visibility is undefined until recovery).
    pub fn wait(&self) -> Result<(), StoreError> {
        let Some(state) = &self.inner else {
            return Ok(());
        };
        let mut slot = state.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = state.cond.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Durability counters reported by [`ObjectStore::io_stats`]: how many
/// batches and fsyncs the backend performed, and how many bytes each
/// fsync covered. Volatile backends report zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Batches committed (a plain `put`/`delete` on a batching backend
    /// counts as a one-op batch).
    pub batches: u64,
    /// Total ops across all committed batches.
    pub batch_ops: u64,
    /// Physical fsync calls issued.
    pub fsyncs: u64,
    /// Total log bytes made durable across all fsyncs.
    pub fsync_bytes: u64,
}

/// A flat keyed object store: the storage interface of the untrusted file
/// manager.
///
/// Keys are arbitrary UTF-8 strings (SeGShare uses file-system paths, or
/// HMAC hex strings when the filename-hiding extension is active, §V-C).
/// All methods take `&self`; implementations are internally synchronized
/// so the server host can serve concurrent sessions.
pub trait ObjectStore: Send + Sync {
    /// Reads the object at `key`, or `None` if absent.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError>;

    /// Reads the object at `key` as a shared, immutable buffer.
    ///
    /// Stores that keep bodies reference-counted internally (like
    /// `MemStore`) return them without copying; the default falls back
    /// to [`ObjectStore::get`] plus one conversion.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn get_arc(&self, key: &str) -> Result<Option<Arc<[u8]>>, StoreError> {
        Ok(self.get(key)?.map(Arc::from))
    }

    /// Creates or replaces the object at `key`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError>;

    /// Deletes the object at `key`; returns whether it existed.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn delete(&self, key: &str) -> Result<bool, StoreError>;

    /// Whether an object exists at `key`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn exists(&self, key: &str) -> Result<bool, StoreError> {
        Ok(self.get(key)?.is_some())
    }

    /// Atomically moves the object at `from` to `to` (replacing any
    /// existing object at `to`).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotFound`] if `from` does not exist.
    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        match self.get(from)? {
            Some(value) => {
                self.put(to, &value)?;
                self.delete(from)?;
                Ok(())
            }
            None => Err(StoreError::NotFound(from.to_string())),
        }
    }

    /// Lists all keys, in unspecified order.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn list(&self) -> Result<Vec<String>, StoreError>;

    /// Lists keys starting with `prefix`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        Ok(self
            .list()?
            .into_iter()
            .filter(|k| k.starts_with(prefix))
            .collect())
    }

    /// Number of stored objects.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn len(&self) -> Result<usize, StoreError> {
        Ok(self.list()?.len())
    }

    /// Whether the store holds no objects.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }

    /// Total bytes of stored object values (storage-overhead accounting).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn total_bytes(&self) -> Result<u64, StoreError> {
        let mut total = 0u64;
        for key in self.list()? {
            if let Some(v) = self.get(&key)? {
                total += v.len() as u64;
            }
        }
        Ok(total)
    }

    /// Applies every op in `batch`, atomically where the backend can
    /// (single lock hold on `MemStore`, single log frame on
    /// `WalStore`). The default applies op-by-op with no atomicity —
    /// acceptable for volatile stores, where there is no crash to tear
    /// the batch.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn apply_batch(&self, batch: &WriteBatch) -> Result<(), StoreError> {
        for op in &batch.ops {
            match op {
                BatchOp::Put { key, value } => self.put(key, value)?,
                BatchOp::Delete { key } => {
                    self.delete(key)?;
                }
            }
        }
        Ok(())
    }

    /// Applies `batch` and returns a durability ticket. Durable backends
    /// make the whole batch one atomic commit unit and complete the
    /// ticket when it is fsynced; the default applies immediately and
    /// returns a ready ticket.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn submit_batch(&self, batch: WriteBatch) -> Result<CommitTicket, StoreError> {
        self.apply_batch(&batch)?;
        Ok(CommitTicket::ready())
    }

    /// Begins a thread-local transaction: until [`ObjectStore::tx_seal`],
    /// this thread's writes (`put`, `delete`, `rename` and batches) are
    /// visible to this thread until the seal (read-your-own-writes) and
    /// to no other, and accumulate into one pending [`WriteBatch`]
    /// instead of becoming durable individually. Idempotent per thread;
    /// a no-op on backends without batching.
    ///
    /// Transactions on different threads may overlap. When two of them
    /// write one key, the later seal wins, in memory and on disk alike:
    /// the visible state after both seals is what recovery replays.
    fn tx_begin(&self) {}

    /// Seals this thread's open transaction (if any) into one atomic
    /// commit unit and returns its durability ticket. `Ok(None)` when no
    /// transaction is open — so callers can seal unconditionally — when
    /// the transaction holds no write, and on backends without batching.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on backend failure.
    fn tx_seal(&self) -> Result<Option<CommitTicket>, StoreError> {
        Ok(None)
    }

    /// Durability counters (zeros on volatile backends).
    fn io_stats(&self) -> IoStats {
        IoStats::default()
    }
}

impl<S: ObjectStore + ?Sized> ObjectStore for Arc<S> {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        (**self).get(key)
    }
    fn get_arc(&self, key: &str) -> Result<Option<Arc<[u8]>>, StoreError> {
        (**self).get_arc(key)
    }
    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        (**self).put(key, value)
    }
    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        (**self).delete(key)
    }
    fn exists(&self, key: &str) -> Result<bool, StoreError> {
        (**self).exists(key)
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        (**self).rename(from, to)
    }
    fn list(&self) -> Result<Vec<String>, StoreError> {
        (**self).list()
    }
    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        (**self).list_prefix(prefix)
    }
    fn len(&self) -> Result<usize, StoreError> {
        (**self).len()
    }
    fn is_empty(&self) -> Result<bool, StoreError> {
        (**self).is_empty()
    }
    fn total_bytes(&self) -> Result<u64, StoreError> {
        (**self).total_bytes()
    }
    fn apply_batch(&self, batch: &WriteBatch) -> Result<(), StoreError> {
        (**self).apply_batch(batch)
    }
    fn submit_batch(&self, batch: WriteBatch) -> Result<CommitTicket, StoreError> {
        (**self).submit_batch(batch)
    }
    fn tx_begin(&self) {
        (**self).tx_begin();
    }
    fn tx_seal(&self) -> Result<Option<CommitTicket>, StoreError> {
        (**self).tx_seal()
    }
    fn io_stats(&self) -> IoStats {
        (**self).io_stats()
    }
}
