//! Object I/O through the tree: write, read, stream and delete, and the
//! scrubber's cache-bypassing reads.

use std::sync::Arc;

use seg_crypto::mset::MsetHash;
use seg_crypto::rng::SystemRng;
use seg_sgx::pfs::{pfs_decrypt, pfs_encrypt, PfsFile};

use crate::enclave::names::{ObjectId, StoreKind};
use crate::error::SegShareError;

use super::{CacheKey, CachedValue, TreeChange, TrustedStore, Walk, HOT_BODY_MAX};

impl TrustedStore {
    // --------------------------------------------------------- object io

    /// Writes an object body (non-streaming path).
    ///
    /// # Errors
    ///
    /// Propagates storage, crypto, and tree failures.
    pub fn write(&self, id: &ObjectId, body: &[u8]) -> Result<(), SegShareError> {
        let start = std::time::Instant::now();
        let blob = pfs_encrypt(&self.data_key(id), body, &mut SystemRng::new())?;
        self.pfs_encrypt_ns.record_duration(start.elapsed());
        self.commit_blob(id, &blob)
    }

    /// Commits an already-encrypted PFS blob (the streaming upload path
    /// finishes here).
    ///
    /// # Errors
    ///
    /// Propagates storage, crypto, and tree failures.
    pub fn commit_blob(&self, id: &ObjectId, blob: &[u8]) -> Result<(), SegShareError> {
        let start = std::time::Instant::now();
        let _tree = self.tree_exclusive(id);
        let result = self.commit_blob_inner(id, blob);
        // Second bump: a miss-fill that snapshotted its generation after
        // the pre-write bump but read the store before the put landed
        // would otherwise survive with the old body.
        self.cache_invalidate_object(id);
        self.trace_store("store_write", id, result.is_ok(), start);
        result
    }

    fn commit_blob_inner(&self, id: &ObjectId, blob: &[u8]) -> Result<(), SegShareError> {
        self.cache_invalidate_object(id);
        if !self.tree_enabled_for(id) {
            return self.raw_put(id, blob);
        }
        let head = Self::head_of(id, blob)?;
        let old = self.read_hash_record(id)?;
        // The new record is trusted when nothing stale can be in it: a
        // leaf's is a function of the header alone; an inner node's
        // carries its old buckets and their fold over, so those must
        // have been trusted (or the node is new and has none).
        let (fold, buckets, trusted) = match (&old, id.is_tree_inner()) {
            (Some(old), true) => (old.rec.fold, old.rec.buckets.clone(), old.trusted),
            (None, true) => {
                let buckets = vec![MsetHash::empty(); self.bucket_count()];
                (self.bucket_fold(id.store(), &buckets), buckets, true)
            }
            (_, false) => (MsetHash::empty(), Vec::new(), true),
        };
        let counter = old.as_ref().map_or(0, |old| old.rec.counter);
        let rec = self.record_of(id, &head, fold, buckets, counter);
        self.raw_put(id, blob)?;
        self.write_hash_record(id, &rec, trusted)?;
        let new = rec.main;
        self.apply_tree_change(
            id,
            match old {
                Some(old) => TreeChange::Replace {
                    old: old.rec.main,
                    new,
                },
                None => TreeChange::Insert { new },
            },
        )
    }

    /// Reads and fully verifies an object body.
    ///
    /// A cache hit serves the verified plaintext of the latest body
    /// this enclave wrote without touching the store (and without a
    /// `store_read` trace event — no store access happened).
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] on any tamper or rollback.
    pub fn read(&self, id: &ObjectId) -> Result<Option<Vec<u8>>, SegShareError> {
        if let Some(body) = self.cached_body(id) {
            return Ok(Some(body.to_vec()));
        }
        let gen = self.cache_gen(&CacheKey::Body(id.clone()));
        let start = std::time::Instant::now();
        let result = {
            let _tree = self.tree_shared(id);
            self.read_verified(id, Walk::Trusting)
        };
        self.trace_store("store_read", id, result.is_ok(), start);
        let body = result?;
        if let Some(body) = &body {
            if self.body_cacheable(id, body.len()) {
                self.cache_fill(
                    CacheKey::Body(id.clone()),
                    gen,
                    CachedValue::Body(Arc::from(body.as_slice())),
                    body.len(),
                );
            }
        }
        Ok(body)
    }

    /// Reads, verifies, and decodes an object, caching the *decoded*
    /// form so repeat readers skip both the GCM decrypt and the decode.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] on any tamper or rollback,
    /// and propagates `decode` failures.
    pub(crate) fn read_decoded<T, F>(
        &self,
        id: &ObjectId,
        decode: F,
    ) -> Result<Option<Arc<T>>, SegShareError>
    where
        T: Send + Sync + 'static,
        F: FnOnce(&[u8]) -> Result<T, SegShareError>,
    {
        let cache_key = CacheKey::Decoded(id.clone());
        if let Some(CachedValue::Decoded(any)) = self.cache_lookup(&cache_key) {
            if let Ok(value) = any.downcast::<T>() {
                return Ok(Some(value));
            }
        }
        let gen = self.cache_gen(&cache_key);
        let start = std::time::Instant::now();
        let result = {
            let _tree = self.tree_shared(id);
            self.read_verified(id, Walk::Trusting)
        };
        self.trace_store("store_read", id, result.is_ok(), start);
        let Some(body) = result? else {
            return Ok(None);
        };
        let value = Arc::new(decode(&body)?);
        self.cache_fill(
            cache_key,
            gen,
            CachedValue::Decoded(value.clone()),
            body.len(),
        );
        Ok(Some(value))
    }

    fn read_verified(&self, id: &ObjectId, walk: Walk) -> Result<Option<Vec<u8>>, SegShareError> {
        let Some(blob) = self.raw_get(id)? else {
            return Ok(None);
        };
        if self.tree_enabled_for(id) {
            self.verify_tree(id, &Self::head_of(id, &blob)?, walk)?;
        }
        let start = std::time::Instant::now();
        let body = pfs_decrypt(&self.data_key(id), &blob)?;
        self.pfs_decrypt_ns.record_duration(start.elapsed());
        Ok(Some(body))
    }

    /// Opens an object for streamed (chunk-at-a-time) reading, verifying
    /// the rollback tree up front.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] on any tamper or rollback.
    pub fn open_stream(&self, id: &ObjectId) -> Result<Option<PfsFile>, SegShareError> {
        let start = std::time::Instant::now();
        let _tree = self.tree_shared(id);
        let result = self.open_stream_inner(id);
        self.trace_store("store_read", id, result.is_ok(), start);
        result
    }

    fn open_stream_inner(&self, id: &ObjectId) -> Result<Option<PfsFile>, SegShareError> {
        let gen = self.cache_gen(&CacheKey::Body(id.clone()));
        let Some(blob) = self.raw_get(id)? else {
            return Ok(None);
        };
        if self.tree_enabled_for(id) {
            self.verify_tree(id, &Self::head_of(id, &blob)?, Walk::Trusting)?;
        }
        let file = PfsFile::open(&self.data_key(id), blob)?;
        // Hot-object fill: remember small verified bodies so the next
        // download is served from [`TrustedStore::cached_body`] with no
        // store access at all. Large files only ever stream.
        if self.cache.is_some()
            && file.data_len() <= HOT_BODY_MAX as u64
            && self.body_cacheable(id, file.data_len() as usize)
        {
            if let Ok(body) = file.read_all() {
                let len = body.len();
                self.cache_fill(
                    CacheKey::Body(id.clone()),
                    gen,
                    CachedValue::Body(Arc::from(body)),
                    len,
                );
            }
        }
        Ok(Some(file))
    }

    /// Deletes an object (and its tree node).
    ///
    /// # Errors
    ///
    /// Propagates storage and tree failures.
    pub fn delete(&self, id: &ObjectId) -> Result<bool, SegShareError> {
        let start = std::time::Instant::now();
        let _tree = self.tree_exclusive(id);
        let result = self.delete_inner(id);
        self.cache_invalidate_object(id);
        self.trace_store("store_delete", id, result.is_ok(), start);
        result
    }

    fn delete_inner(&self, id: &ObjectId) -> Result<bool, SegShareError> {
        self.cache_invalidate_object(id);
        let existed = self.raw_delete(id)?;
        if self.tree_enabled_for(id) {
            if let Some(old) = self.read_hash_record(id)? {
                self.delete_hash_record(id)?;
                self.apply_tree_change(id, TreeChange::Remove { old: old.rec.main })?;
            }
        }
        Ok(existed)
    }

    // -------------------------------------------------------- scrubbing

    /// A fully verified read that **bypasses the cache** on both lookup
    /// and fill — the integrity scrubber's read path. A cached body or
    /// trusted hash record would mask store-side tampering exactly
    /// where the scrubber must detect it (written-through records of
    /// hot ancestors are otherwise never read back), so this always
    /// walks raw-get → rollback-tree verify up to the root over store
    /// records → PFS decrypt, and reports a store record that differs
    /// from its trusted copy.
    pub(crate) fn scrub_read(&self, id: &ObjectId) -> Result<Option<Vec<u8>>, SegShareError> {
        let _tree = self.tree_shared(id);
        self.read_verified(id, Walk::StoreOnly)
    }

    /// Appends the untrusted-store keys `id` legitimately occupies (the
    /// body key, plus the hash-record key when the rollback tree covers
    /// it) — the expected-key side of the scrubber's orphan scan.
    pub(crate) fn expected_keys(&self, id: &ObjectId, out: &mut Vec<(StoreKind, String)>) {
        out.push((
            id.store(),
            self.keys.storage_key(id, self.config.hide_names),
        ));
        if self.tree_enabled_for(id) {
            out.push((
                id.store(),
                self.keys
                    .hash_record_storage_key(id, self.config.hide_names),
            ));
        }
    }

    /// Lists every key currently in one backing store (one ocall) —
    /// the observed-key side of the orphan scan.
    pub(crate) fn list_store(&self, kind: StoreKind) -> Result<Vec<String>, SegShareError> {
        let store = self.store_for(kind);
        Ok(self.sgx.boundary().ocall(|| store.list())?)
    }

    /// Samples up to `max` cache-resident content bodies and re-derives
    /// each from the backing store through the full verified path: the
    /// cache-generation coherence probe. A divergence with an unchanged
    /// generation means either the store was tampered under a live
    /// cache entry or the write-through invalidation protocol was
    /// violated — both scrub findings. Probes that race a legitimate
    /// writer (generation moved) are discarded, not reported.
    ///
    /// Returns `(bodies probed, ids that failed coherence)`; empty when
    /// the cache is disabled.
    pub(crate) fn scrub_cache_probe(&self, max: usize) -> (u64, Vec<ObjectId>) {
        let Some(cache) = &self.cache else {
            return (0, Vec::new());
        };
        let mut probed = 0u64;
        let mut mismatched = Vec::new();
        for key in cache.sample_keys(max) {
            let CacheKey::Body(id) = key else {
                continue;
            };
            let cache_key = CacheKey::Body(id.clone());
            let gen_before = cache.generation(&cache_key);
            let Some(CachedValue::Body(cached)) = cache.get(&cache_key) else {
                continue;
            };
            probed += 1;
            let fresh = self.scrub_read(&id);
            if cache.generation(&cache_key) != gen_before {
                continue;
            }
            match fresh {
                Ok(Some(body)) if body.as_slice() == &cached[..] => {}
                _ => mismatched.push(id),
            }
        }
        (probed, mismatched)
    }
}
