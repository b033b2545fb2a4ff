//! Tests of `seg-store-api`'s [`crate::CountingStore`] over a real
//! backend.

#[cfg(test)]
mod tests {
    use crate::{CountingStore, MemStore, ObjectStore, StoreStats};

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
