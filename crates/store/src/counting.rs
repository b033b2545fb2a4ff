//! Instrumentation wrapper counting operations and bytes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::{CommitTicket, IoStats, ObjectStore, StoreError, WriteBatch};

/// Counters exported by [`CountingStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of `get` calls.
    pub gets: u64,
    /// Number of `put` calls.
    pub puts: u64,
    /// Number of `delete` calls.
    pub deletes: u64,
    /// Number of `exists` calls.
    pub exists: u64,
    /// Number of `rename` calls.
    pub renames: u64,
    /// Number of `list` calls.
    pub lists: u64,
    /// Total bytes returned by `get`.
    pub bytes_read: u64,
    /// Total bytes passed to `put`.
    pub bytes_written: u64,
    /// Number of write batches submitted or applied.
    pub batches: u64,
    /// Total operations carried inside those batches.
    pub batch_ops: u64,
}

impl StoreStats {
    /// Total operation count across every counted call type.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.gets + self.puts + self.deletes + self.exists + self.renames + self.lists
    }
}

/// Wraps any [`ObjectStore`], counting operations and transferred bytes.
///
/// The benchmark harness uses this to report the paper's storage-overhead
/// table and per-request I/O profiles; the enclave wraps its content,
/// group, and dedup stores with it so `seg-obs` snapshots can attribute
/// I/O per store.
#[derive(Debug)]
pub struct CountingStore<S> {
    inner: S,
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    exists: AtomicU64,
    renames: AtomicU64,
    lists: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    batches: AtomicU64,
    batch_ops: AtomicU64,
    // Transaction-window bookkeeping: `tx_begin`..`tx_seal` windows are
    // serialized by the caller (`SegShareEnclave::commit`, the enclave's
    // one commit window, under its commit mutex), so a flag plus a
    // pending-op counter is enough to attribute writes to the current
    // batch.
    tx_open: AtomicBool,
    tx_pending: AtomicU64,
}

impl<S: ObjectStore> CountingStore<S> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: S) -> Self {
        CountingStore {
            inner,
            gets: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            exists: AtomicU64::new(0),
            renames: AtomicU64::new(0),
            lists: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_ops: AtomicU64::new(0),
            tx_open: AtomicBool::new(false),
            tx_pending: AtomicU64::new(0),
        }
    }

    /// Current counter values.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            exists: self.exists.load(Ordering::Relaxed),
            renames: self.renames.load(Ordering::Relaxed),
            lists: self.lists.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_ops: self.batch_ops.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.gets.store(0, Ordering::Relaxed);
        self.puts.store(0, Ordering::Relaxed);
        self.deletes.store(0, Ordering::Relaxed);
        self.exists.store(0, Ordering::Relaxed);
        self.renames.store(0, Ordering::Relaxed);
        self.lists.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.batch_ops.store(0, Ordering::Relaxed);
    }

    fn count_batch(&self, batch: &WriteBatch) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_ops
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        for op in &batch.ops {
            match op {
                crate::BatchOp::Put { value, .. } => {
                    self.puts.fetch_add(1, Ordering::Relaxed);
                    self.bytes_written
                        .fetch_add(value.len() as u64, Ordering::Relaxed);
                }
                crate::BatchOp::Delete { .. } => {
                    self.deletes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// A reference to the wrapped store.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: ObjectStore> ObjectStore for CountingStore<S> {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let _prof = seg_obs::prof::phase("store_io");
        self.gets.fetch_add(1, Ordering::Relaxed);
        let result = self.inner.get(key)?;
        if let Some(v) = &result {
            self.bytes_read.fetch_add(v.len() as u64, Ordering::Relaxed);
        }
        Ok(result)
    }

    fn get_arc(&self, key: &str) -> Result<Option<std::sync::Arc<[u8]>>, StoreError> {
        let _prof = seg_obs::prof::phase("store_io");
        self.gets.fetch_add(1, Ordering::Relaxed);
        let result = self.inner.get_arc(key)?;
        if let Some(v) = &result {
            self.bytes_read.fetch_add(v.len() as u64, Ordering::Relaxed);
        }
        Ok(result)
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        let _prof = seg_obs::prof::phase("store_io");
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        if self.tx_open.load(Ordering::Relaxed) {
            self.tx_pending.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.put(key, value)
    }

    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        let _prof = seg_obs::prof::phase("store_io");
        self.deletes.fetch_add(1, Ordering::Relaxed);
        if self.tx_open.load(Ordering::Relaxed) {
            self.tx_pending.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.delete(key)
    }

    fn exists(&self, key: &str) -> Result<bool, StoreError> {
        let _prof = seg_obs::prof::phase("store_io");
        self.exists.fetch_add(1, Ordering::Relaxed);
        self.inner.exists(key)
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        let _prof = seg_obs::prof::phase("store_io");
        self.renames.fetch_add(1, Ordering::Relaxed);
        self.inner.rename(from, to)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        let _prof = seg_obs::prof::phase("store_io");
        self.lists.fetch_add(1, Ordering::Relaxed);
        self.inner.list()
    }

    fn len(&self) -> Result<usize, StoreError> {
        self.inner.len()
    }

    fn total_bytes(&self) -> Result<u64, StoreError> {
        self.inner.total_bytes()
    }

    fn apply_batch(&self, batch: &WriteBatch) -> Result<(), StoreError> {
        let _prof = seg_obs::prof::phase("store_io");
        self.count_batch(batch);
        self.inner.apply_batch(batch)
    }

    fn submit_batch(&self, batch: WriteBatch) -> Result<CommitTicket, StoreError> {
        let _prof = seg_obs::prof::phase("store_io");
        self.count_batch(&batch);
        self.inner.submit_batch(batch)
    }

    fn tx_begin(&self) {
        self.tx_open.store(true, Ordering::Relaxed);
        self.tx_pending.store(0, Ordering::Relaxed);
        self.inner.tx_begin();
    }

    fn tx_seal(&self) -> Result<Option<CommitTicket>, StoreError> {
        self.tx_open.store(false, Ordering::Relaxed);
        let pending = self.tx_pending.swap(0, Ordering::Relaxed);
        let sealed = self.inner.tx_seal()?;
        if sealed.is_some() {
            self.batches.fetch_add(1, Ordering::Relaxed);
        }
        self.batch_ops.fetch_add(pending, Ordering::Relaxed);
        Ok(sealed)
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    #[test]
    fn counts_operations_and_bytes() {
        let s = CountingStore::new(MemStore::new());
        s.put("a", &[0u8; 100]).unwrap();
        s.put("b", &[0u8; 50]).unwrap();
        let _ = s.get("a").unwrap();
        let _ = s.get("missing").unwrap();
        s.delete("b").unwrap();
        let stats = s.stats();
        assert_eq!(stats.puts, 2);
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.deletes, 1);
        assert_eq!(stats.bytes_written, 150);
        assert_eq!(stats.bytes_read, 100); // the miss reads nothing
    }

    #[test]
    fn counts_exists_rename_and_list() {
        let s = CountingStore::new(MemStore::new());
        s.put("x", b"v").unwrap();
        assert!(s.exists("x").unwrap());
        assert!(!s.exists("missing").unwrap());
        s.rename("x", "y").unwrap();
        assert_eq!(s.list().unwrap(), vec!["y".to_string()]);
        let stats = s.stats();
        assert_eq!(stats.exists, 2);
        assert_eq!(stats.renames, 1);
        assert_eq!(stats.lists, 1);
        assert_eq!(stats.total_ops(), 1 + 2 + 1 + 1); // put + exists*2 + rename + list
    }

    #[test]
    fn reset_zeroes_counters() {
        let s = CountingStore::new(MemStore::new());
        s.put("a", &[0u8; 10]).unwrap();
        s.rename("a", "b").unwrap();
        assert!(s.exists("b").unwrap());
        let _ = s.list().unwrap();
        s.reset();
        assert_eq!(s.stats(), StoreStats::default());
        // Store contents untouched (this exists call counts afresh).
        assert!(s.exists("b").unwrap());
        assert_eq!(s.stats().exists, 1);
    }

    #[test]
    fn passthrough_semantics() {
        let s = CountingStore::new(MemStore::new());
        s.put("x", b"v").unwrap();
        s.rename("x", "y").unwrap();
        assert_eq!(s.get("y").unwrap(), Some(b"v".to_vec()));
        assert_eq!(s.len().unwrap(), 1);
        assert_eq!(s.total_bytes().unwrap(), 1);
    }
}
