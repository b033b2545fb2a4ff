//! Object I/O through the tree: write, read, stream and delete, and the
//! scrubber's cache-bypassing reads.

use std::sync::Arc;

use seg_crypto::rng::SystemRng;
use seg_sgx::pfs::{pfs_encrypt, PfsFile};

use crate::enclave::names::{ObjectId, StoreKind};
use crate::error::SegShareError;

use super::{CacheKey, CachedValue, TrustedStore, Walk, HOT_BODY_MAX};

/// One object's change in a [`TrustedStore::commit`].
#[derive(Debug)]
pub enum Change<'a> {
    /// A new body, which the commit seals under the object's key.
    Body(&'a [u8]),
    /// A new body already sealed as a PFS blob (a finished upload),
    /// handed over whole: it moves into the store write uncopied.
    Blob(Vec<u8>),
    /// The object's removal.
    Delete,
}

/// A verified body opened for a reader.
// One lives per open download; boxing the big variant (the GCM key
// schedule) would only add an allocation to every download.
#[allow(clippy::large_enum_variant)]
pub enum StreamBody {
    /// The whole plaintext, already in the enclave: a cached body, or
    /// a small one its miss just decrypted into the cache.
    Plain(Arc<Vec<u8>>),
    /// The sealed blob, to decrypt slice by slice as chunks go out.
    Blob(PfsFile),
}

impl StreamBody {
    /// The whole plaintext, taken out of the cache's buffer or
    /// decrypted from the blob.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] if a node fails to decrypt.
    pub fn into_bytes(self) -> Result<Vec<u8>, SegShareError> {
        match self {
            StreamBody::Plain(body) => Ok(Arc::unwrap_or_clone(body)),
            StreamBody::Blob(file) => Ok(file.read_all()?),
        }
    }
}

impl TrustedStore {
    // --------------------------------------------------------- object io

    /// Writes an object body: a commit of one change.
    ///
    /// # Errors
    ///
    /// Propagates storage, crypto, and tree failures.
    pub fn write(&self, id: &ObjectId, body: &[u8]) -> Result<(), SegShareError> {
        self.commit([(id, Change::Body(body))])
    }

    /// Commits one request's changes — the one write path, and one store
    /// write. Bodies are sealed first; then, under one hold of the tree
    /// lock, one pass up the tree folds every change into the ancestors,
    /// reading, updating and sealing each touched record once, and the
    /// blobs, their leaf records and every updated record go to the
    /// store as one batch. Whatever the commit reads to decide its
    /// changes (a parent's directory file, say) the caller reads before,
    /// through the verified path. All changes must be in one store: a
    /// commit that mixes stores panics before it changes anything.
    ///
    /// The batch lands whole or not at all. The records the commit took
    /// out of the cache to update return only once it landed, so a
    /// failed commit leaves the store as it was, and no trusted record
    /// ahead of it.
    ///
    /// # Errors
    ///
    /// Propagates storage, crypto, and tree failures.
    pub fn commit<'c>(
        &self,
        changes: impl IntoIterator<Item = (&'c ObjectId, Change<'c>)>,
    ) -> Result<(), SegShareError> {
        let mut changes = changes
            .into_iter()
            .map(|(id, change)| {
                let blob = match change {
                    Change::Body(body) => Some(pfs_encrypt(
                        &self.data_key(id),
                        body,
                        &mut SystemRng::new(),
                    )?),
                    Change::Blob(blob) => Some(blob),
                    Change::Delete => None,
                };
                Ok((id, blob))
            })
            .collect::<Result<Vec<_>, SegShareError>>()?;
        let lock = changes.iter().find_map(|(id, _)| self.tree_lock_for(id));
        let _tree = lock.map(parking_lot::RwLock::write);
        let result = self.commit_locked(&mut changes);
        // Second bump: a miss-fill that snapshotted its generation after
        // the pre-write bump but read the store before the write landed
        // would otherwise survive with the old body.
        for (id, _) in &changes {
            self.cache_invalidate_object(id);
        }
        result
    }

    /// Reads and fully verifies an object body: [`TrustedStore::open_stream`],
    /// taken whole.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] on any tamper or rollback.
    pub fn read(&self, id: &ObjectId) -> Result<Option<Vec<u8>>, SegShareError> {
        self.open_stream(id)?
            .map(StreamBody::into_bytes)
            .transpose()
    }

    /// Reads, verifies, and decodes a metadata object, caching the
    /// *decoded* form so repeat readers skip both the GCM decrypt and
    /// the decode.
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
        Ok(self.lookup_or_read(id, decode)?.0)
    }

    /// [`TrustedStore::read_decoded`] of an object whose existence a
    /// verified registry decides: a member list, which exists iff the
    /// group-store root registers its user. When the store returns
    /// none, `registered` (a verified read of the registry) says whether
    /// it should exist. With the cache on:
    ///
    /// * not registered — the absence is cached as a negative entry, so
    ///   the next read asks neither the store nor the registry; the
    ///   object's first write drops the entry, as any write does;
    /// * registered — the object is read once more, since a commit may
    ///   have registered and written it between the two reads, and a
    ///   second miss is the store hiding it:
    ///   [`SegShareError::Integrity`].
    ///
    /// With the cache off nothing is kept, and an absence is read as
    /// absence, the registry unasked.
    ///
    /// # Errors
    ///
    /// As [`TrustedStore::read_decoded`], and the hidden object above.
    pub(crate) fn read_registered<T, F>(
        &self,
        id: &ObjectId,
        decode: F,
        registered: impl FnOnce() -> Result<bool, SegShareError>,
    ) -> Result<Option<Arc<T>>, SegShareError>
    where
        T: Send + Sync + 'static,
        F: Fn(&[u8]) -> Result<T, SegShareError>,
    {
        let (value, read) = self.lookup_or_read(id, &decode)?;
        let Some(gen) = read.filter(|_| value.is_none() && self.cache.is_some()) else {
            return Ok(value);
        };
        if !registered()? {
            // `gen` predates the store read: a write of the object since
            // then has moved it, and the fill is dropped.
            self.cache_fill(CacheKey::Object(id.clone()), gen, CachedValue::Absent, 0);
            return Ok(None);
        }
        match self.read_decoded(id, decode)? {
            Some(value) => Ok(Some(value)),
            None => Err(super::integrity(
                id,
                "registered, but missing from the store (hidden or deleted)",
            )),
        }
    }

    /// The cache's answer for `id` (a decoded value or a confirmed
    /// absence), or a verified store read decoded and cached, with the
    /// generation snapshotted before that read.
    fn lookup_or_read<T, F>(
        &self,
        id: &ObjectId,
        decode: F,
    ) -> Result<(Option<Arc<T>>, Option<u64>), SegShareError>
    where
        T: Send + Sync + 'static,
        F: FnOnce(&[u8]) -> Result<T, SegShareError>,
    {
        let cache_key = CacheKey::Object(id.clone());
        match self.cache_lookup(&cache_key) {
            Some(CachedValue::Decoded(any)) => {
                if let Ok(value) = any.downcast::<T>() {
                    return Ok((Some(value), None));
                }
            }
            Some(CachedValue::Absent) => return Ok((None, None)),
            _ => {}
        }
        let gen = self.cache_gen(&cache_key);
        let body = {
            let _tree = self.tree_shared(id);
            self.read_verified(id, Walk::Trusting)?
        };
        let Some(body) = body else {
            return Ok((None, Some(gen)));
        };
        let value = Arc::new(decode(&body)?);
        self.cache_fill(
            cache_key,
            gen,
            CachedValue::Decoded(value.clone()),
            body.len(),
        );
        Ok((Some(value), Some(gen)))
    }

    fn read_verified(&self, id: &ObjectId, walk: Walk) -> Result<Option<Vec<u8>>, SegShareError> {
        let Some(blob) = self.fetch_verified(id, walk)? else {
            return Ok(None);
        };
        Ok(Some(self.decrypt(id, &blob)?))
    }

    /// Fetches `id`'s stored blob and, where the rollback tree covers
    /// `id`, checks its header against the tree: the one place a body
    /// is fetched and verified. The caller holds the tree lock.
    fn fetch_verified(&self, id: &ObjectId, walk: Walk) -> Result<Option<Vec<u8>>, SegShareError> {
        let Some(blob) = self.raw_get(id)? else {
            return Ok(None);
        };
        if self.tree_enabled_for(id) {
            self.verify_tree(id, &Self::head_of(id, &blob)?, walk)?;
        }
        Ok(Some(blob))
    }

    /// Opens an object for reading: the one way a reader reaches a
    /// body. A cached plaintext is served without touching the store;
    /// a miss fetches and verifies the blob. A content file of at most
    /// `HOT_BODY_MAX` (64 KiB), the one kind of body the cache keeps, is
    /// then decrypted whole straight into the buffer the cache holds,
    /// so the reader that asked for it decrypts nothing again; any
    /// other body (or one with a node that fails: the reader reports
    /// it) is handed back sealed, to decrypt slice by slice.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] on any tamper or rollback.
    pub fn open_stream(&self, id: &ObjectId) -> Result<Option<StreamBody>, SegShareError> {
        let cache_key = CacheKey::Object(id.clone());
        // Only a content file's entry holds plaintext.
        let content = matches!(id, ObjectId::FileData(_));
        if content {
            if let Some(CachedValue::Plain(body)) = self.cache_lookup(&cache_key) {
                return Ok(Some(StreamBody::Plain(body)));
            }
        }
        let _tree = self.tree_shared(id);
        let gen = self.cache_gen(&cache_key);
        let Some(blob) = self.fetch_verified(id, Walk::Trusting)? else {
            return Ok(None);
        };
        let file = self.open_blob(id, blob)?;
        if self.cache.is_some() && content && file.data_len() <= HOT_BODY_MAX as u64 {
            if let Ok(body) = file.read_all() {
                let len = body.len();
                let body = Arc::new(body);
                self.cache_fill(cache_key, gen, CachedValue::Plain(Arc::clone(&body)), len);
                return Ok(Some(StreamBody::Plain(body)));
            }
        }
        Ok(Some(StreamBody::Blob(file)))
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
        self.store_for(kind).list()
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
        let Some(caches) = &self.cache else {
            return (0, Vec::new());
        };
        let mut probed = 0u64;
        let mut mismatched = Vec::new();
        for key in caches.bodies.sample_keys(max) {
            // A content file's entry holds its plaintext.
            let CacheKey::Object(id @ ObjectId::FileData(_)) = &key else {
                continue;
            };
            let cache = caches.route(&key);
            let gen_before = cache.generation(&key);
            let Some(CachedValue::Plain(cached)) = cache.peek(&key) else {
                continue;
            };
            probed += 1;
            let fresh = self.scrub_read(id);
            if cache.generation(&key) != gen_before {
                continue;
            }
            match fresh {
                Ok(Some(body)) if body.as_slice() == &cached[..] => {}
                _ => mismatched.push(id.clone()),
            }
        }
        (probed, mismatched)
    }
}
