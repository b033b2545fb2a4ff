//! The malicious cloud provider of §III-B, as a store wrapper.
//!
//! The paper's attacker "can monitor and/or change data on disk or in
//! memory; rollback individual files or the whole file system". This
//! wrapper gives threat-model tests exactly those capabilities against
//! any inner store, plus injectable backend failures.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::{ObjectStore, StoreError};

/// A store wrapper with attacker controls: per-object snapshots and
/// rollbacks, byte tampering, deletion, and failure injection.
#[derive(Debug)]
pub struct AdversaryStore<S> {
    inner: S,
    snapshots: Mutex<HashMap<String, Option<Vec<u8>>>>,
    full_snapshot: Mutex<Option<HashMap<String, Vec<u8>>>>,
    fail_after: Mutex<Option<u64>>,
}

impl<S: ObjectStore> AdversaryStore<S> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: S) -> Self {
        AdversaryStore {
            inner,
            snapshots: Mutex::new(HashMap::new()),
            full_snapshot: Mutex::new(None),
            fail_after: Mutex::new(None),
        }
    }

    /// A reference to the wrapped store.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Records the current value (or absence) of `key` for a later
    /// [`rollback_object`](Self::rollback_object).
    ///
    /// # Errors
    ///
    /// Propagates inner-store failures.
    pub fn snapshot_object(&self, key: &str) -> Result<(), StoreError> {
        let value = self.inner.get(key)?;
        self.snapshots.lock().insert(key.to_string(), value);
        Ok(())
    }

    /// Rolls `key` back to its snapshotted state — the individual-file
    /// rollback attack of §V-D.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotFound`] if `key` was never snapshotted.
    pub fn rollback_object(&self, key: &str) -> Result<(), StoreError> {
        let snapshot = self
            .snapshots
            .lock()
            .get(key)
            .cloned()
            .ok_or_else(|| StoreError::NotFound(key.to_string()))?;
        match snapshot {
            Some(value) => self.inner.put(key, &value),
            None => self.inner.delete(key).map(|_| ()),
        }
    }

    /// Records the complete store state for a later
    /// [`rollback_everything`](Self::rollback_everything).
    ///
    /// # Errors
    ///
    /// Propagates inner-store failures.
    pub fn snapshot_everything(&self) -> Result<(), StoreError> {
        let mut snap = HashMap::new();
        for key in self.inner.list()? {
            if let Some(v) = self.inner.get(&key)? {
                snap.insert(key, v);
            }
        }
        *self.full_snapshot.lock() = Some(snap);
        Ok(())
    }

    /// Rolls the whole store back to the recorded state — the
    /// whole-file-system rollback attack of §V-E.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotFound`] if no full snapshot was taken.
    pub fn rollback_everything(&self) -> Result<(), StoreError> {
        let snap = self
            .full_snapshot
            .lock()
            .clone()
            .ok_or_else(|| StoreError::NotFound("<full snapshot>".to_string()))?;
        for key in self.inner.list()? {
            if !snap.contains_key(&key) {
                self.inner.delete(&key)?;
            }
        }
        for (key, value) in snap {
            self.inner.put(&key, &value)?;
        }
        Ok(())
    }

    /// Flips one bit of the object at `key`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotFound`] if the object is missing or empty.
    pub fn tamper(&self, key: &str, byte_index: usize, bit: u8) -> Result<(), StoreError> {
        let mut value = self
            .inner
            .get(key)?
            .ok_or_else(|| StoreError::NotFound(key.to_string()))?;
        if value.is_empty() {
            return Err(StoreError::NotFound(key.to_string()));
        }
        let idx = byte_index % value.len();
        value[idx] ^= 1 << (bit % 8);
        self.inner.put(key, &value)
    }

    /// Makes every store operation fail with [`StoreError::Injected`]
    /// after `ops` more successful operations. `None` disables injection.
    pub fn fail_after(&self, ops: Option<u64>) {
        *self.fail_after.lock() = ops;
    }

    fn check_injection(&self) -> Result<(), StoreError> {
        let mut guard = self.fail_after.lock();
        if let Some(remaining) = guard.as_mut() {
            if *remaining == 0 {
                return Err(StoreError::Injected);
            }
            *remaining -= 1;
        }
        Ok(())
    }
}

impl<S: ObjectStore> ObjectStore for AdversaryStore<S> {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.check_injection()?;
        self.inner.get(key)
    }

    fn get_arc(&self, key: &str) -> Result<Option<std::sync::Arc<[u8]>>, StoreError> {
        self.check_injection()?;
        self.inner.get_arc(key)
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.check_injection()?;
        self.inner.put(key, value)
    }

    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        self.check_injection()?;
        self.inner.delete(key)
    }

    fn exists(&self, key: &str) -> Result<bool, StoreError> {
        self.check_injection()?;
        self.inner.exists(key)
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        self.check_injection()?;
        self.inner.rename(from, to)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.check_injection()?;
        self.inner.list()
    }

    fn apply_batch(&self, batch: &crate::WriteBatch) -> Result<(), StoreError> {
        self.check_injection()?;
        self.inner.apply_batch(batch)
    }

    fn submit_batch(&self, batch: crate::WriteBatch) -> Result<crate::CommitTicket, StoreError> {
        self.check_injection()?;
        self.inner.submit_batch(batch)
    }

    fn tx_begin(&self) {
        self.inner.tx_begin();
    }

    fn tx_seal(&self) -> Result<Option<crate::CommitTicket>, StoreError> {
        self.inner.tx_seal()
    }

    fn io_stats(&self) -> crate::IoStats {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    #[test]
    fn object_rollback_restores_old_value() {
        let s = AdversaryStore::new(MemStore::new());
        s.put("f", b"version-1").unwrap();
        s.snapshot_object("f").unwrap();
        s.put("f", b"version-2").unwrap();
        s.rollback_object("f").unwrap();
        assert_eq!(s.get("f").unwrap(), Some(b"version-1".to_vec()));
    }

    #[test]
    fn object_rollback_can_resurrect_deletion() {
        let s = AdversaryStore::new(MemStore::new());
        s.snapshot_object("ghost").unwrap(); // absent at snapshot time
        s.put("ghost", b"now present").unwrap();
        s.rollback_object("ghost").unwrap();
        assert_eq!(s.get("ghost").unwrap(), None);
    }

    #[test]
    fn full_rollback_restores_everything() {
        let s = AdversaryStore::new(MemStore::new());
        s.put("a", b"1").unwrap();
        s.put("b", b"2").unwrap();
        s.snapshot_everything().unwrap();
        s.put("a", b"changed").unwrap();
        s.delete("b").unwrap();
        s.put("c", b"new").unwrap();
        s.rollback_everything().unwrap();
        assert_eq!(s.get("a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get("b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(s.get("c").unwrap(), None);
    }

    #[test]
    fn tamper_flips_exactly_one_bit() {
        let s = AdversaryStore::new(MemStore::new());
        s.put("f", &[0u8; 8]).unwrap();
        s.tamper("f", 3, 4).unwrap();
        let v = s.get("f").unwrap().unwrap();
        assert_eq!(v[3], 0x10);
        assert!(v.iter().enumerate().all(|(i, &b)| (i == 3) == (b != 0)));
        assert!(matches!(
            s.tamper("missing", 0, 0),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn a_batch_inside_a_transaction_adds_no_frame_until_the_seal() {
        crate::wal::tests::a_wrapped_batch_waits_for_the_seal(
            "adversary-store",
            AdversaryStore::new,
        );
    }

    #[test]
    fn failure_injection_counts_down() {
        let s = AdversaryStore::new(MemStore::new());
        s.put("a", b"1").unwrap();
        s.fail_after(Some(2));
        assert!(s.get("a").is_ok());
        assert!(s.exists("a").is_ok());
        assert_eq!(s.get("a").unwrap_err(), StoreError::Injected);
        assert_eq!(s.put("b", b"x").unwrap_err(), StoreError::Injected);
        s.fail_after(None);
        assert!(s.get("a").is_ok());
    }
}
