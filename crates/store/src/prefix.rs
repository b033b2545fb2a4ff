//! A key-prefixed view over a shared store.
//!
//! SeGShare separates content, group, and dedup stores at the trait
//! boundary, but a durable deployment wants all three in *one*
//! write-ahead log so one request's writes across stores form a single
//! atomic commit unit. [`PrefixStore`] provides the separation: each
//! logical store is a distinct key-prefix view of the same backend, and
//! thread transactions ([`ObjectStore::tx_begin`]/[`ObjectStore::tx_seal`])
//! pass straight through — beginning a transaction on all three views
//! is idempotently beginning it once on the shared log, a batch any
//! view submits inside it joins it, and every view's reads on that
//! thread see the transaction's writes, which no other thread sees
//! before the seal.

use std::sync::Arc;

use crate::{BatchOp, CommitTicket, IoStats, ObjectStore, StoreError, WriteBatch};

/// A view of `inner` under a fixed key prefix.
#[derive(Debug, Clone)]
pub struct PrefixStore<S> {
    inner: S,
    prefix: String,
}

impl<S: ObjectStore> PrefixStore<S> {
    /// Wraps `inner`; every key this view touches is `prefix + key`.
    #[must_use]
    pub fn new(inner: S, prefix: impl Into<String>) -> PrefixStore<S> {
        PrefixStore {
            inner,
            prefix: prefix.into(),
        }
    }

    /// A reference to the shared backend.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn full(&self, key: &str) -> String {
        format!("{}{}", self.prefix, key)
    }
}

impl<S: ObjectStore> ObjectStore for PrefixStore<S> {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.get(&self.full(key))
    }

    fn get_arc(&self, key: &str) -> Result<Option<Arc<[u8]>>, StoreError> {
        self.inner.get_arc(&self.full(key))
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.inner.put(&self.full(key), value)
    }

    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        self.inner.delete(&self.full(key))
    }

    fn exists(&self, key: &str) -> Result<bool, StoreError> {
        self.inner.exists(&self.full(key))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        self.inner.rename(&self.full(from), &self.full(to))
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        Ok(self
            .inner
            .list_prefix(&self.prefix)?
            .into_iter()
            .map(|k| k[self.prefix.len()..].to_string())
            .collect())
    }

    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        Ok(self
            .inner
            .list_prefix(&self.full(prefix))?
            .into_iter()
            .map(|k| k[self.prefix.len()..].to_string())
            .collect())
    }

    fn apply_batch(&self, batch: &WriteBatch) -> Result<(), StoreError> {
        self.inner.apply_batch(&self.rewrite(batch.clone()))
    }

    fn submit_batch(&self, batch: WriteBatch) -> Result<CommitTicket, StoreError> {
        self.inner.submit_batch(self.rewrite(batch))
    }

    fn tx_begin(&self) {
        self.inner.tx_begin();
    }

    fn tx_seal(&self) -> Result<Option<CommitTicket>, StoreError> {
        self.inner.tx_seal()
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
}

impl<S: ObjectStore> PrefixStore<S> {
    /// `batch` with every key under this view's prefix; the values move
    /// across uncopied.
    fn rewrite(&self, batch: WriteBatch) -> WriteBatch {
        WriteBatch {
            ops: batch
                .ops
                .into_iter()
                .map(|op| match op {
                    BatchOp::Put { key, value } => BatchOp::Put {
                        key: self.full(&key),
                        value,
                    },
                    BatchOp::Delete { key } => BatchOp::Delete {
                        key: self.full(&key),
                    },
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    #[test]
    fn views_are_disjoint_over_one_backend() {
        let shared = Arc::new(MemStore::new());
        let a = PrefixStore::new(Arc::clone(&shared), "a/");
        let b = PrefixStore::new(Arc::clone(&shared), "b/");
        a.put("k", b"va").unwrap();
        b.put("k", b"vb").unwrap();
        assert_eq!(a.get("k").unwrap(), Some(b"va".to_vec()));
        assert_eq!(b.get("k").unwrap(), Some(b"vb".to_vec()));
        assert_eq!(a.list().unwrap(), vec!["k".to_string()]);
        assert_eq!(shared.len().unwrap(), 2);
        a.rename("k", "k2").unwrap();
        assert_eq!(a.get("k2").unwrap(), Some(b"va".to_vec()));
        assert!(a.delete("k2").unwrap());
        assert_eq!(b.get("k").unwrap(), Some(b"vb".to_vec()));
    }

    #[test]
    fn batches_are_rewritten() {
        let shared = Arc::new(MemStore::new());
        let a = PrefixStore::new(Arc::clone(&shared), "a/");
        let mut batch = WriteBatch::new();
        batch.put("x", b"1".to_vec());
        batch.delete("y");
        a.submit_batch(batch).unwrap().wait().unwrap();
        assert_eq!(shared.get("a/x").unwrap(), Some(b"1".to_vec()));
    }
}
