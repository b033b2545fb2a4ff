//! A plaintext-storing file server with SeGShare's request surface.
//!
//! Stands in for the WebDAV data path of the paper's Apache/nginx
//! baselines: no enclave, no encryption, no access control — just
//! moving bytes to and from an object store. The bench harness measures
//! this server's real processing time and adds a [`crate::ServerProfile`]
//! plus the WAN model.

use seg_store::{MemStore, ObjectStore, StoreError};

/// The plaintext baseline server.
pub struct PlainFileServer {
    store: MemStore,
}

impl std::fmt::Debug for PlainFileServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PlainFileServer(..)")
    }
}

impl Default for PlainFileServer {
    fn default() -> Self {
        PlainFileServer::new()
    }
}

impl PlainFileServer {
    /// An in-memory plaintext server.
    #[must_use]
    pub fn new() -> PlainFileServer {
        PlainFileServer {
            store: MemStore::new(),
        }
    }

    /// Stores a file (PUT).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn put(&self, path: &str, content: &[u8]) -> Result<(), StoreError> {
        self.store.put(path, content)
    }

    /// Retrieves a file (GET).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn get(&self, path: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.store.get(path)
    }

    /// Deletes a file (DELETE).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn remove(&self, path: &str) -> Result<bool, StoreError> {
        self.store.delete(path)
    }

    /// Moves a file (MOVE).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        self.store.rename(from, to)
    }

    /// Lists stored paths under a prefix (PROPFIND-ish).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        let mut v = self.store.list_prefix(prefix)?;
        v.sort();
        Ok(v)
    }

    /// Total stored bytes (the plaintext storage baseline for the
    /// overhead table).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn total_bytes(&self) -> Result<u64, StoreError> {
        self.store.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let s = PlainFileServer::new();
        s.put("/a/b.txt", b"plaintext!").unwrap();
        assert_eq!(s.get("/a/b.txt").unwrap().unwrap(), b"plaintext!");
        s.rename("/a/b.txt", "/a/c.txt").unwrap();
        assert_eq!(s.list("/a/").unwrap(), vec!["/a/c.txt"]);
        assert!(s.remove("/a/c.txt").unwrap());
        assert_eq!(s.get("/a/c.txt").unwrap(), None);
    }

    #[test]
    fn storage_is_exactly_plaintext_sized() {
        let s = PlainFileServer::new();
        s.put("/f", &vec![0u8; 123_456]).unwrap();
        assert_eq!(s.total_bytes().unwrap(), 123_456);
    }
}
