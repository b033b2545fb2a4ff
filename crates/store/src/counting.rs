//! Instrumentation wrapper counting operations and bytes.

use parking_lot::Mutex;

use crate::{BatchOp, CommitTicket, IoStats, ObjectStore, StoreError, WriteBatch};

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
    /// Number of write batches: each transaction sealed with a write in
    /// it, and each batch submitted or applied outside a transaction.
    pub batches: u64,
    /// Total operations carried inside those batches.
    pub batch_ops: u64,
}

/// Wraps any [`ObjectStore`], counting operations and transferred bytes.
///
/// The host wraps each store it hands an enclave with one, on its side
/// of the ocall, and exports the counts per store (`seg_store_*`); the
/// benchmark harness uses it for the paper's storage-overhead table.
#[derive(Debug)]
pub struct CountingStore<S> {
    inner: S,
    counts: Mutex<Counts>,
}

#[derive(Debug, Default)]
struct Counts {
    stats: StoreStats,
    /// Writes since `tx_begin`, while a transaction window is open. The
    /// caller serializes its windows (`SegShareEnclave::commit`, under
    /// its commit mutex), so one count attributes writes to the batch
    /// the window seals.
    tx_pending: Option<u64>,
}

impl<S: ObjectStore> CountingStore<S> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: S) -> Self {
        CountingStore {
            inner,
            counts: Mutex::default(),
        }
    }

    /// Current counter values.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.counts.lock().stats
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.counts.lock().stats = StoreStats::default();
    }

    fn count(&self, f: impl FnOnce(&mut StoreStats)) {
        f(&mut self.counts.lock().stats);
    }

    /// Counts a write, into the open transaction too.
    fn count_write(&self, f: impl FnOnce(&mut StoreStats)) {
        let mut counts = self.counts.lock();
        f(&mut counts.stats);
        if let Some(pending) = &mut counts.tx_pending {
            *pending += 1;
        }
    }

    /// Counts a get, and the bytes of what `call` found.
    fn read<T: AsRef<[u8]>>(
        &self,
        call: impl FnOnce() -> Result<Option<T>, StoreError>,
    ) -> Result<Option<T>, StoreError> {
        self.count(|s| s.gets += 1);
        let found = call()?;
        let len = found.as_ref().map_or(0, |v| v.as_ref().len());
        self.count(|s| s.bytes_read += len as u64);
        Ok(found)
    }

    /// Counts every op of `batch`. Inside an open transaction its ops
    /// join the transaction's pending count, and the seal counts the one
    /// batch; outside one it is a batch of its own.
    fn count_batch(&self, batch: &WriteBatch) {
        let mut counts = self.counts.lock();
        let Counts { stats, tx_pending } = &mut *counts;
        for op in &batch.ops {
            match op {
                BatchOp::Put { value, .. } => {
                    stats.puts += 1;
                    stats.bytes_written += value.len() as u64;
                }
                BatchOp::Delete { .. } => stats.deletes += 1,
            }
        }
        match tx_pending {
            Some(pending) => *pending += batch.len() as u64,
            None => {
                stats.batches += 1;
                stats.batch_ops += batch.len() as u64;
            }
        }
    }
}

impl<S: ObjectStore> ObjectStore for CountingStore<S> {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.read(|| self.inner.get(key))
    }

    fn get_arc(&self, key: &str) -> Result<Option<std::sync::Arc<[u8]>>, StoreError> {
        self.read(|| self.inner.get_arc(key))
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.count_write(|s| {
            s.puts += 1;
            s.bytes_written += value.len() as u64;
        });
        self.inner.put(key, value)
    }

    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        self.count_write(|s| s.deletes += 1);
        self.inner.delete(key)
    }

    fn exists(&self, key: &str) -> Result<bool, StoreError> {
        self.count(|s| s.exists += 1);
        self.inner.exists(key)
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        self.count(|s| s.renames += 1);
        self.inner.rename(from, to)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.count(|s| s.lists += 1);
        self.inner.list()
    }

    fn len(&self) -> Result<usize, StoreError> {
        self.inner.len()
    }

    fn total_bytes(&self) -> Result<u64, StoreError> {
        self.inner.total_bytes()
    }

    fn apply_batch(&self, batch: &WriteBatch) -> Result<(), StoreError> {
        self.count_batch(batch);
        self.inner.apply_batch(batch)
    }

    fn submit_batch(&self, batch: WriteBatch) -> Result<CommitTicket, StoreError> {
        self.count_batch(&batch);
        self.inner.submit_batch(batch)
    }

    fn tx_begin(&self) {
        self.counts.lock().tx_pending = Some(0);
        self.inner.tx_begin();
    }

    fn tx_seal(&self) -> Result<Option<CommitTicket>, StoreError> {
        let pending = self.counts.lock().tx_pending.take().unwrap_or(0);
        let sealed = self.inner.tx_seal()?;
        self.count(|s| {
            s.batches += u64::from(sealed.is_some());
            s.batch_ops += pending;
        });
        Ok(sealed)
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::{CountingStore, StoreStats};
    use crate::{MemStore, ObjectStore, WalStore, WriteBatch};

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
        assert_eq!(stats.puts, 1);
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

    /// Over a `WalStore`, the counted batches are the frames: a batch
    /// inside a transaction joins it, and the seal is the one batch.
    #[test]
    fn a_batch_inside_a_transaction_counts_no_batch_of_its_own() {
        let dir = std::env::temp_dir().join(format!("seg-counting-tx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = CountingStore::new(WalStore::open(&dir).unwrap());
        let batch = || {
            let mut batch = WriteBatch::new();
            batch.put("a", vec![0u8; 10]);
            batch.delete("b");
            batch
        };
        s.tx_begin();
        s.put("c", b"1").unwrap();
        s.submit_batch(batch()).unwrap().wait().unwrap();
        s.apply_batch(&batch()).unwrap();
        let counted = |s: StoreStats| (s.puts, s.deletes, s.bytes_written, s.batches, s.batch_ops);
        assert_eq!(
            counted(s.stats()),
            (3, 2, 21, 0, 0),
            "every op, no batch yet"
        );
        s.tx_seal().unwrap().expect("open tx seals").wait().unwrap();
        assert_eq!(counted(s.stats()), (3, 2, 21, 1, 5));
        s.submit_batch(batch()).unwrap().wait().unwrap();
        assert_eq!(counted(s.stats()), (4, 3, 31, 2, 7), "a batch of its own");
        let io = s.io_stats();
        assert_eq!((io.batches, io.batch_ops), (2, 7), "one batch per frame");
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
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
