//! The trusted file manager's persistence layer.
//!
//! Every logical object (content file, directory file, ACL, group list,
//! member list, dedup blob) is stored in the untrusted object store as a
//! Protected-FS blob (4 KiB nodes, per-node AES-GCM, per-file tag tree,
//! small objects whole in the header node — [`seg_sgx::pfs`]) under a
//! per-object key derived from `SK_r`. All
//! actual store accesses go through the enclave boundary as ocalls, so
//! the switchless-call cost model sees them (§II-A/§VI).
//!
//! # Rollback protection (§V-D)
//!
//! With `rollback_individual` enabled, each object additionally has an
//! encrypted *hash record* holding its tree node hash: an incremental
//! multiset hash over its path and the object's PFS header id (the
//! header's IV and GCM tag: the tag authenticates the header, the header
//! the whole blob through the tag tree, so binding 28 bytes pins the
//! exact stored version without rehashing anything). Directory nodes
//! also hold *bucket hashes*: children are assigned to buckets by path
//! hash, each bucket accumulating its children's node hashes, and the
//! node hash folds the buckets in. A record stores that *fold* beside
//! the buckets, so `main = binding + fold` checks in two short HMACs
//! whatever the bucket count. A record is sealed under an enclave-only
//! key with the object id as associated data, so an authentic record is
//! one the enclave wrote, with the fold it computed; a *stale* authentic
//! record has another `main` and is caught by its parent's bucket. The
//! two §V-D optimizations fall out:
//!
//! * **updates** touch one hash record per ancestor — the stale child
//!   hash is subtracted from its bucket and the new one added *without
//!   reading any sibling*, and the bucket's old and new elements are
//!   applied to `main` and `fold` alike;
//! * **leaf validation** recomputes one bucket per level, reading only
//!   the hash records of the (few) same-bucket siblings.
//!
//! The root node's hash record anchors the store; with
//! `rollback_whole_fs` (§V-E) it also carries the value of a TEE
//! monotonic counter, incremented on every update, so rolling back the
//! entire store (root included) is detected on the next read.
//!
//! # Trusted records (cache on)
//!
//! With `EnclaveConfig::cache` a hash record in the cache is *trusted*:
//! it equals the latest record this enclave wrote for the node. A record
//! read from the store is authentic (PAE under a per-node key) but may
//! be stale, so it never enters the cache on the read alone. It enters
//!
//! * **written through** by the mutator that computed it, after the
//!   store put succeeded, when everything it was computed from was
//!   trusted: a leaf record is a function of the blob header just
//!   written; an inner or ancestor record is trusted iff the record it
//!   was updated from was a cache hit, or the node is new;
//! * **after a walk** that read it, passed every check on it, and ended
//!   at an anchor: a trusted ancestor, or the tree root (whose counter,
//!   with §V-E, must match the hardware).
//!
//! Verification stops at the first trusted record on the way up: the
//! chain below it was checked against the latest bucket hash the enclave
//! computed, which is all the levels above it would re-establish. A
//! trusted entry is the record and nothing else: a header is held
//! against a trusted record and against a store record by the same rule.
//! With the cache off nothing is trusted and every walk ends at the
//! root, as in the paper. The integrity scrubber always takes that full
//! walk over store records (`TrustedStore::scrub_read`).

mod dedup;
mod io;
mod record;
mod tree;

pub use record::{GroupRootFile, HashRecord};

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use seg_crypto::mset::MsetHash;
use seg_sgx::Enclave;
use seg_store::ObjectStore;

use crate::config::EnclaveConfig;
use crate::error::SegShareError;

use super::commit::Anchor;
use super::keys::KeyHierarchy;
use super::names::{ObjectId, StoreKind};

/// How an update changes a node's hash in its parent's bucket.
enum TreeChange {
    Insert { new: MsetHash },
    Replace { old: MsetHash, new: MsetHash },
    Remove { old: MsetHash },
}

// ------------------------------------------------------ object cache

/// Content bodies above this size never enter the cache: large files
/// stream chunk-at-a-time and must not pin whole plaintexts in EPC.
const HOT_BODY_MAX: usize = 64 * 1024;

/// Namespaced cache key: one logical object may be cached in more than
/// one representation, and each is invalidated independently.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum CacheKey {
    /// Verified, decrypted object body ([`TrustedStore::read`]).
    Body(ObjectId),
    /// Decoded in-enclave object ([`TrustedStore::read_decoded`]).
    Decoded(ObjectId),
    /// Trusted rollback-tree hash record.
    Record(ObjectId),
}

#[derive(Clone)]
pub(crate) enum CachedValue {
    Body(Arc<[u8]>),
    Decoded(Arc<dyn std::any::Any + Send + Sync>),
    /// A trusted record: the latest this enclave wrote for its node
    /// (see the module docs for how a record earns that).
    Record(Arc<HashRecord>),
}

/// A hash record as [`TrustedStore::read_hash_record`] found it.
struct Fetched {
    rec: HashRecord,
    /// Whether the record came from the cache.
    trusted: bool,
    /// Cache generation of the record's key before the store read.
    gen: u64,
}

/// Whether a verification walk may start from, stop at and fill trusted
/// records, or must take every record from the store.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Walk {
    Trusting,
    StoreOnly,
}

type MetaCache = seg_cache::ObjectCache<CacheKey, CachedValue>;

/// The encrypted persistence layer shared by the access-control and
/// file-manager components.
pub struct TrustedStore {
    keys: KeyHierarchy,
    config: EnclaveConfig,
    sgx: Arc<Enclave>,
    content: Arc<dyn ObjectStore>,
    group: Arc<dyn ObjectStore>,
    dedup: Arc<dyn ObjectStore>,
    obs: Arc<seg_obs::Registry>,
    /// In-enclave cache of verified plaintext (decoded metadata, hash
    /// records, small hot content bodies), charged against the EPC
    /// tracker. `None` means byte-identical behavior to a build
    /// without the cache.
    cache: Option<MetaCache>,
    /// Per-store rollback-tree locks. A commit/delete rewrites shared
    /// ancestor hash records (and, with whole-FS protection, the root
    /// counter) in several non-atomic steps; a concurrent verifier
    /// observing the half-applied walk would report a false rollback.
    /// Mutators hold the store's tree lock exclusively for that short
    /// record-update section, verified reads hold it shared — so reads
    /// scale, and per-object dispatch locks stay correct without
    /// knowing tree internals. Never held across stores (except
    /// `rebuild_tree`, which takes content before group), never nested.
    content_tree: RwLock<()>,
    group_tree: RwLock<()>,
    /// The §V-E anchors of the content and group tree roots (counters
    /// 1 and 2), settled by the commit window.
    root_anchors: [Anchor; 2],
    /// Serializes read-modify-write cycles on the dedup refcount index.
    dedup_index: Mutex<()>,
    // Cached telemetry handles (hot path: one atomic add per record).
    pfs_encrypt_ns: Arc<seg_obs::Histogram>,
    pfs_decrypt_ns: Arc<seg_obs::Histogram>,
    tree_update_ns: Arc<seg_obs::Histogram>,
    tree_verify_ns: Arc<seg_obs::Histogram>,
    cache_hit_ns: Arc<seg_obs::Histogram>,
}

impl std::fmt::Debug for TrustedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustedStore")
            .field("config", &self.config)
            .finish()
    }
}

impl TrustedStore {
    /// Assembles the layer.
    pub(crate) fn new(
        keys: KeyHierarchy,
        config: EnclaveConfig,
        sgx: Arc<Enclave>,
        content: Arc<dyn ObjectStore>,
        group: Arc<dyn ObjectStore>,
        dedup: Arc<dyn ObjectStore>,
        obs: Arc<seg_obs::Registry>,
    ) -> TrustedStore {
        let cache = config
            .cache
            .then(|| MetaCache::new(seg_cache::CacheConfig::default(), sgx.epc().clone()));
        let root_anchors = [1, 2].map(|id| Anchor::new(Arc::clone(&sgx), id, &config));
        TrustedStore {
            keys,
            config,
            sgx,
            content,
            group,
            dedup,
            cache,
            content_tree: RwLock::new(()),
            group_tree: RwLock::new(()),
            root_anchors,
            dedup_index: Mutex::new(()),
            pfs_encrypt_ns: obs.histogram("seg_pfs_encrypt_ns"),
            pfs_decrypt_ns: obs.histogram("seg_pfs_decrypt_ns"),
            tree_update_ns: obs.histogram("seg_rollback_tree_update_ns"),
            tree_verify_ns: obs.histogram("seg_rollback_tree_verify_ns"),
            cache_hit_ns: obs.histogram("seg_cache_hit_ns"),
            obs,
        }
    }

    // ------------------------------------------------------ object cache

    /// Cache counters, or `None` when the cache is disabled.
    #[must_use]
    pub fn cache_stats(&self) -> Option<seg_cache::CacheStats> {
        self.cache.as_ref().map(MetaCache::stats)
    }

    /// Looks `key` up in the cache, recording the hit-path latency.
    fn cache_lookup(&self, key: &CacheKey) -> Option<CachedValue> {
        let cache = self.cache.as_ref()?;
        let start = std::time::Instant::now();
        let hit = {
            let _prof = seg_obs::prof::phase("cache_lookup");
            cache.get(key)
        };
        if hit.is_some() {
            self.cache_hit_ns.record_duration(start.elapsed());
        }
        hit
    }

    /// Snapshots `key`'s generation *before* the store read backing a
    /// miss-fill; [`TrustedStore::cache_fill`] discards the fill if a
    /// mutation bumped the generation in between.
    fn cache_gen(&self, key: &CacheKey) -> u64 {
        self.cache.as_ref().map_or(0, |c| c.generation(key))
    }

    fn cache_fill(&self, key: CacheKey, gen: u64, value: CachedValue, bytes: usize) {
        if let Some(cache) = &self.cache {
            cache.insert_if_current(key, gen, value, bytes as u64);
        }
    }

    /// Write-through invalidation: drops every cached representation of
    /// `id`'s body. Must run *before* the mutation's store write lands
    /// so that no concurrent miss-fill can publish the old value.
    fn cache_invalidate_object(&self, id: &ObjectId) {
        if let Some(cache) = &self.cache {
            cache.invalidate(&CacheKey::Body(id.clone()));
            cache.invalidate(&CacheKey::Decoded(id.clone()));
        }
    }

    fn cache_invalidate_record(&self, id: &ObjectId) {
        if let Some(cache) = &self.cache {
            cache.invalidate(&CacheKey::Record(id.clone()));
        }
    }

    /// Whether a verified body of `id` may be retained in the cache.
    fn body_cacheable(&self, id: &ObjectId, len: usize) -> bool {
        match id {
            // Content bodies only within the small hot-object budget.
            ObjectId::FileData(_) => len <= HOT_BODY_MAX,
            // Dedup blobs are content-addressed bulk data; never cached.
            ObjectId::DedupBlob(_) => false,
            // Metadata (dirfiles, ACLs, group/member lists) always.
            _ => true,
        }
    }

    /// Serves `id`'s verified body straight from the cache, without any
    /// store access. `None` on miss (or with the cache disabled) — the
    /// caller falls back to the verified store path.
    pub(crate) fn cached_body(&self, id: &ObjectId) -> Option<Arc<[u8]>> {
        match self.cache_lookup(&CacheKey::Body(id.clone())) {
            Some(CachedValue::Body(body)) => Some(body),
            _ => None,
        }
    }

    /// The key hierarchy (for dedup-name computation upstream).
    #[must_use]
    pub fn keys(&self) -> &KeyHierarchy {
        &self.keys
    }

    /// The telemetry registry this layer reports into.
    pub(crate) fn obs(&self) -> &Arc<seg_obs::Registry> {
        &self.obs
    }

    /// Emits one store-I/O event into the trace ring (if attached),
    /// correlated to the dispatching request via the thread-local
    /// request id. Objects appear as keyed fingerprints only.
    fn trace_store(&self, op: &'static str, id: &ObjectId, ok: bool, start: std::time::Instant) {
        if let Some(ring) = self.obs.trace() {
            ring.emit(
                seg_obs::current_request_id(),
                op,
                0,
                self.keys.fingerprint("object", id.canonical().as_bytes()),
                if ok {
                    seg_obs::TraceDecision::Event
                } else {
                    seg_obs::TraceDecision::Error
                },
                if ok { "ok" } else { "err" },
                start.elapsed().as_micros().min(u64::MAX as u128) as u64,
            );
        }
    }

    /// The enclave configuration.
    #[must_use]
    pub fn config(&self) -> &EnclaveConfig {
        &self.config
    }

    /// The §V-E anchors of both tree roots.
    pub(crate) fn root_anchors(&self) -> &[Anchor] {
        &self.root_anchors
    }

    /// The anchor of `store`'s tree root (dedup blobs have no tree).
    fn root_anchor(&self, store: StoreKind) -> &Anchor {
        match store {
            StoreKind::Content => &self.root_anchors[0],
            StoreKind::Group | StoreKind::Dedup => &self.root_anchors[1],
        }
    }

    fn store_for(&self, kind: StoreKind) -> &Arc<dyn ObjectStore> {
        match kind {
            StoreKind::Content => &self.content,
            StoreKind::Group => &self.group,
            StoreKind::Dedup => &self.dedup,
        }
    }

    // ------------------------------------------------------- tree locks

    fn tree_lock_for(&self, id: &ObjectId) -> Option<&RwLock<()>> {
        if !self.tree_enabled_for(id) {
            return None;
        }
        match id.store() {
            StoreKind::Content => Some(&self.content_tree),
            StoreKind::Group => Some(&self.group_tree),
            StoreKind::Dedup => None,
        }
    }

    /// Shared tree hold for a verified read of `id`; `None` (no lock)
    /// when the rollback tree does not cover `id`.
    fn tree_shared(&self, id: &ObjectId) -> Option<std::sync::RwLockReadGuard<'_, ()>> {
        self.tree_lock_for(id).map(RwLock::read)
    }

    /// Exclusive tree hold for a mutation of `id`; `None` when the
    /// rollback tree does not cover `id` (a bare `raw_put`/`raw_delete`
    /// is already atomic at the store layer).
    fn tree_exclusive(&self, id: &ObjectId) -> Option<std::sync::RwLockWriteGuard<'_, ()>> {
        self.tree_lock_for(id).map(RwLock::write)
    }

    /// The per-object AEAD key (dedup blobs use content-derived keys).
    fn data_key(&self, id: &ObjectId) -> [u8; 16] {
        match id {
            ObjectId::DedupBlob(name) => self.keys.dedup_blob_key(name),
            other => self.keys.file_key(other),
        }
    }

    // -------------------------------------------------- raw (ocall) io

    fn raw_get(&self, id: &ObjectId) -> Result<Option<Vec<u8>>, SegShareError> {
        let key = self.keys.storage_key(id, self.config.hide_names);
        let store = self.store_for(id.store());
        Ok(self.sgx.boundary().ocall(|| store.get(&key))?)
    }

    fn raw_put(&self, id: &ObjectId, blob: &[u8]) -> Result<(), SegShareError> {
        let key = self.keys.storage_key(id, self.config.hide_names);
        let store = self.store_for(id.store());
        Ok(self.sgx.boundary().ocall(|| store.put(&key, blob))?)
    }

    fn raw_delete(&self, id: &ObjectId) -> Result<bool, SegShareError> {
        let key = self.keys.storage_key(id, self.config.hide_names);
        let store = self.store_for(id.store());
        Ok(self.sgx.boundary().ocall(|| store.delete(&key))?)
    }

    /// Whether an object exists (Table IV `exists_f` / `exists_g`
    /// support).
    pub fn exists(&self, id: &ObjectId) -> Result<bool, SegShareError> {
        let key = self.keys.storage_key(id, self.config.hide_names);
        let store = self.store_for(id.store());
        Ok(self.sgx.boundary().ocall(|| store.exists(&key))?)
    }
}

fn integrity(id: &ObjectId, what: &str) -> SegShareError {
    SegShareError::Integrity(format!("{}: {what}", id.canonical()))
}

#[cfg(test)]
mod tests {
    use super::record::RECORD_TAG;
    use super::*;
    use crate::enclave::keys::KeyHierarchy;
    use seg_crypto::mset::MSET_HASH_LEN;
    use seg_fs::{DirFile, SegPath, UserId};
    use seg_sgx::pfs::{header_id, HEADER_ID_LEN};
    use seg_sgx::{EnclaveImage, Platform};
    use seg_store::MemStore;
    use std::collections::BTreeSet;

    struct Fixture {
        store: TrustedStore,
        content: Arc<MemStore>,
    }

    fn fixture(config: EnclaveConfig) -> Fixture {
        let content = Arc::new(MemStore::new());
        let store = store_on(config, Arc::clone(&content) as Arc<dyn ObjectStore>);
        Fixture { store, content }
    }

    /// A trusted store whose content store is `content` (a fault or
    /// counting wrapper, say).
    fn store_on(config: EnclaveConfig, content: Arc<dyn ObjectStore>) -> TrustedStore {
        let platform = Platform::new_with_seed(1);
        let sgx = Arc::new(platform.launch(&EnclaveImage::from_code(b"test-enclave")));
        TrustedStore::new(
            KeyHierarchy::new([7u8; 32]),
            config,
            sgx,
            content,
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            Arc::new(seg_obs::Registry::new()),
        )
    }

    fn root_id() -> ObjectId {
        ObjectId::DirData(SegPath::root())
    }

    fn file_id(path: &str) -> ObjectId {
        ObjectId::FileData(SegPath::parse(path).unwrap())
    }

    /// Initializes both store roots so leaves can hang off them (and
    /// `rebuild_tree`, which walks both, has roots to start from).
    fn init_root(f: &Fixture) {
        init_roots(&f.store);
    }

    fn init_roots(store: &TrustedStore) {
        store
            .write(&root_id(), &DirFile::new(SegPath::root()).encode())
            .unwrap();
        store
            .write(&ObjectId::GroupRoot, &GroupRootFile::new().encode())
            .unwrap();
        store
            .write(&ObjectId::GroupList, &seg_fs::GroupListFile::new().encode())
            .unwrap();
        store
            .write(
                &ObjectId::Acl(SegPath::root()),
                &seg_fs::AclFile::new().encode(),
            )
            .unwrap();
    }

    /// Registers a root child in the root directory file (the tree
    /// verifier reads the children list during bucket recompute) and
    /// gives it the ACL object every file-system entry carries.
    fn register_child(f: &Fixture, name: &str, kind: seg_fs::ChildKind) {
        register_in(&f.store, &SegPath::root(), name, kind);
    }

    /// [`register_child`] under any existing directory; a directory
    /// child also gets its (empty) directory file.
    fn register_in(store: &TrustedStore, parent: &SegPath, name: &str, kind: seg_fs::ChildKind) {
        try_register_in(store, parent, name, kind).unwrap();
    }

    fn try_register_in(
        store: &TrustedStore,
        parent: &SegPath,
        name: &str,
        kind: seg_fs::ChildKind,
    ) -> Result<(), SegShareError> {
        let parent_id = ObjectId::DirData(parent.clone());
        let body = store
            .read(&parent_id)?
            .ok_or_else(|| integrity(&parent_id, "missing directory"))?;
        let mut dir = DirFile::decode(&body)?;
        dir.add_child(name, kind);
        store.write(&parent_id, &dir.encode())?;
        let child_path = dir.child_path(name, kind)?;
        store.write(
            &ObjectId::Acl(child_path.clone()),
            &seg_fs::AclFile::new().encode(),
        )?;
        if kind == seg_fs::ChildKind::Directory {
            store.write(
                &ObjectId::DirData(child_path.clone()),
                &DirFile::new(child_path).encode(),
            )?;
        }
        Ok(())
    }

    /// Initializes the roots and creates `/a/b/c/d/` with files `f` and
    /// `g` in it: depth-5 leaves, so a full walk crosses five records.
    fn deep_tree(store: &TrustedStore) {
        init_roots(store);
        let mut dir = SegPath::root();
        for name in ["a", "b", "c", "d"] {
            register_in(store, &dir, name, seg_fs::ChildKind::Directory);
            dir = dir.join_dir(name).unwrap();
        }
        for name in ["f", "g"] {
            register_in(store, &dir, name, seg_fs::ChildKind::File);
            store
                .write(&file_id(&format!("/a/b/c/d/{name}")), b"version 1")
                .unwrap();
        }
    }

    fn dir_id(path: &str) -> ObjectId {
        ObjectId::DirData(SegPath::parse(path).unwrap())
    }

    /// Every node on the chain from `/a/b/c/d/f` to the root.
    fn deep_chain() -> Vec<ObjectId> {
        let mut chain = vec![file_id("/a/b/c/d/f")];
        while let Some(parent) = chain.last().unwrap().tree_parent() {
            chain.push(parent);
        }
        chain
    }

    impl TrustedStore {
        /// Drops `id`'s cached body and trusted record, as eviction would.
        fn evict(&self, id: &ObjectId) {
            self.cache_invalidate_object(id);
            self.cache_invalidate_record(id);
        }

        fn trusted_record(&self, id: &ObjectId) -> Option<HashRecord> {
            match self.cache.as_ref()?.get(&CacheKey::Record(id.clone()))? {
                CachedValue::Record(rec) => Some(HashRecord::clone(&rec)),
                _ => None,
            }
        }

        /// The store keys of `id`'s blob and hash record.
        fn store_keys(&self, id: &ObjectId) -> [String; 2] {
            [
                self.keys.storage_key(id, self.config.hide_names),
                self.keys
                    .hash_record_storage_key(id, self.config.hide_names),
            ]
        }
    }

    fn is_integrity<T: std::fmt::Debug>(result: Result<T, SegShareError>) -> bool {
        matches!(result, Err(SegShareError::Integrity(_)))
    }

    #[test]
    fn write_read_roundtrip_with_tree() {
        let f = fixture(EnclaveConfig::default());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"hello tree").unwrap();
        assert_eq!(
            f.store.read(&file_id("/a")).unwrap().unwrap(),
            b"hello tree"
        );
        assert!(f.store.read(&file_id("/missing")).unwrap().is_none());
    }

    #[test]
    fn whole_store_rollback_undetected_without_counter() {
        // The §V-D boundary: a *complete, consistent* old state (root
        // included) verifies when the counter extension is off.
        let f = fixture(EnclaveConfig::default());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"version 1").unwrap();
        let snapshot = f.content.snapshot();
        f.store.write(&file_id("/a"), b"version 2").unwrap();
        f.content.restore(snapshot);
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 1");
    }

    #[test]
    fn leaf_rollback_detected_via_parent_bucket() {
        let f = fixture(EnclaveConfig::default());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);

        f.store.write(&file_id("/a"), b"version 1").unwrap();
        // Capture exactly the leaf's two objects.
        let data_key = f.store.keys.storage_key(&file_id("/a"), true);
        let hrec_key = f.store.keys.hash_record_storage_key(&file_id("/a"), true);
        let old_data = f.content.get(&data_key).unwrap().unwrap();
        let old_hrec = f.content.get(&hrec_key).unwrap().unwrap();

        f.store.write(&file_id("/a"), b"version 2").unwrap();
        f.content.put(&data_key, &old_data).unwrap();
        f.content.put(&hrec_key, &old_hrec).unwrap();

        assert!(matches!(
            f.store.read(&file_id("/a")),
            Err(SegShareError::Integrity(_))
        ));
    }

    #[test]
    fn delete_unlinks_from_tree() {
        let f = fixture(EnclaveConfig::default());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        register_child(&f, "b", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"A").unwrap();
        f.store.write(&file_id("/b"), b"B").unwrap();

        assert!(f.store.delete(&file_id("/a")).unwrap());
        // Unregister from the directory body too.
        let body = f.store.read(&root_id()).unwrap().unwrap();
        let mut dir = DirFile::decode(&body).unwrap();
        dir.remove_child("a");
        f.store.write(&root_id(), &dir.encode()).unwrap();

        // The sibling still verifies.
        assert_eq!(f.store.read(&file_id("/b")).unwrap().unwrap(), b"B");
        assert!(f.store.read(&file_id("/a")).unwrap().is_none());
    }

    #[test]
    fn rebuild_tree_recovers_corrupted_hash_records() {
        let f = fixture(EnclaveConfig::default());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"content").unwrap();

        // Destroy the leaf's hash record (simulating a backup restored
        // onto a fresh platform, §V-G).
        let hrec_key = f.store.keys.hash_record_storage_key(&file_id("/a"), true);
        f.content.delete(&hrec_key).unwrap();
        assert!(f.store.read(&file_id("/a")).is_err());

        f.store.rebuild_tree().unwrap();
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"content");
    }

    #[test]
    fn no_tree_mode_skips_hash_records() {
        let f = fixture(EnclaveConfig::minimal());
        init_root(&f);
        f.store.write(&file_id("/a"), b"plain mode").unwrap();
        assert_eq!(
            f.store.read(&file_id("/a")).unwrap().unwrap(),
            b"plain mode"
        );
        // Only data objects, no hash records: root dir, root ACL, and
        // the file itself.
        assert_eq!(f.content.len().unwrap(), 3);
    }

    #[test]
    fn hidden_names_are_opaque() {
        let f = fixture(EnclaveConfig::default());
        init_root(&f);
        register_child(&f, "secret-name", seg_fs::ChildKind::File);
        f.store
            .write(&file_id("/secret-name"), b"secret-content")
            .unwrap();
        for key in f.content.list().unwrap() {
            assert!(!key.contains("secret"), "key {key} leaks the path");
            assert_eq!(key.len(), 64, "hidden keys are HMAC hex strings");
        }
    }

    #[test]
    fn group_root_file_roundtrip() {
        let mut root = GroupRootFile::new();
        assert!(root.add_user(UserId::new("alice").unwrap()));
        assert!(!root.add_user(UserId::new("alice").unwrap()));
        assert!(root.contains(&UserId::new("alice").unwrap()));
        let decoded = GroupRootFile::decode(&root.encode()).unwrap();
        assert_eq!(decoded, root);
        assert!(GroupRootFile::decode(b"junk").is_err());
    }

    /// An inner record over two buckets and a leaf record.
    fn sample_records() -> [HashRecord; 2] {
        let key = seg_crypto::mset::MsetKey::from_bytes([1u8; 32]);
        let inner = HashRecord {
            main: MsetHash::of(&key, b"x"),
            fold: MsetHash::of(&key, b"f"),
            buckets: vec![MsetHash::empty(), MsetHash::of(&key, b"c")],
            counter: 42,
        };
        let leaf = HashRecord {
            main: MsetHash::of(&key, b"y"),
            fold: MsetHash::empty(),
            buckets: Vec::new(),
            counter: 0,
        };
        [inner, leaf]
    }

    #[test]
    fn hash_record_codec_roundtrip() {
        for rec in sample_records() {
            let bytes = rec.encode();
            assert_eq!(HashRecord::decode(&bytes).unwrap(), rec);
            for cut in 0..bytes.len() {
                assert!(HashRecord::decode(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
        // A leaf stores no fold: tag, main, counter, a zero count.
        let [inner, leaf] = sample_records();
        assert_eq!(leaf.encode().len(), 4 + MSET_HASH_LEN + 8 + 4);
        assert_eq!(
            inner.encode().len(),
            leaf.encode().len() + (1 + inner.buckets.len()) * MSET_HASH_LEN
        );
    }

    #[test]
    fn a_version_1_hash_record_is_refused_by_name() {
        // What format version 1 stored for a leaf: no fold anywhere, so
        // the bytes after the tag even parse.
        let [_, leaf] = sample_records();
        let mut v1 = leaf.encode();
        v1[..4].copy_from_slice(b"HRC1");
        assert!(matches!(
            HashRecord::decode(&v1),
            Err(SegShareError::Integrity(msg)) if msg.contains("storage format version 1")
        ));
        // Any other tag is a malformed record, not a version.
        v1[..4].copy_from_slice(b"HRCx");
        assert!(matches!(HashRecord::decode(&v1), Err(SegShareError::Fs(_))));
    }

    mod hostile_records {
        use super::*;
        use proptest::prelude::*;

        /// Offsets of the fields that size what follows them: the tag
        /// (which selects the format) and the bucket count.
        const COUNT_AT: usize = 4 + MSET_HASH_LEN + 8;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn decode_survives_arbitrary_bytes(
                bytes in proptest::collection::vec(any::<u8>(), 0..400),
                tagged in any::<bool>(),
            ) {
                // Noise, and noise behind the right tag so the count
                // field is reached: an error or a record no bigger than
                // the input, never a panic or an allocation sized by
                // the input's claims.
                let mut bytes = bytes;
                if tagged && bytes.len() >= 4 {
                    bytes[..4].copy_from_slice(RECORD_TAG);
                }
                if let Ok(rec) = HashRecord::decode(&bytes) {
                    prop_assert!(rec.buckets.len() * MSET_HASH_LEN <= bytes.len());
                    prop_assert_eq!(rec.encode(), bytes);
                }
            }

            #[test]
            fn decode_survives_every_count_a_record_can_claim(
                count in any::<u32>(),
                leaf in any::<bool>(),
                grow in 0usize..3 * MSET_HASH_LEN,
            ) {
                let [inner, leaf_rec] = sample_records();
                let rec = if leaf { leaf_rec } else { inner };
                let mut bytes = rec.encode();
                bytes.resize(bytes.len() + grow, 0xa5);
                bytes[COUNT_AT..COUNT_AT + 4].copy_from_slice(&count.to_le_bytes());
                match HashRecord::decode(&bytes) {
                    // Only a count the bytes bear out decodes.
                    Ok(got) => {
                        prop_assert_eq!(got.buckets.len(), count as usize);
                        prop_assert_eq!(got.encode(), bytes);
                    }
                    Err(e) => prop_assert!(
                        matches!(e, SegShareError::Integrity(_) | SegShareError::Fs(_)),
                        "{e:?}"
                    ),
                }
            }
        }

        #[test]
        fn a_count_of_four_billion_allocates_nothing() {
            // `u32::MAX` buckets would be 160 GiB of hashes: the decoder
            // must refuse on the 80 bytes that are there.
            let [inner, _] = sample_records();
            let mut bytes = inner.encode();
            bytes[COUNT_AT..COUNT_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(
                HashRecord::decode(&bytes),
                Err(SegShareError::Integrity(msg)) if msg.contains("buckets")
            ));
        }
    }

    fn cached_config() -> EnclaveConfig {
        EnclaveConfig {
            cache: true,
            ..EnclaveConfig::default()
        }
    }

    #[test]
    fn cache_stats_absent_when_disabled() {
        let f = fixture(EnclaveConfig::default());
        assert!(f.store.cache_stats().is_none());
        assert!(fixture(cached_config()).store.cache_stats().is_some());
    }

    #[test]
    fn warm_read_is_served_without_any_store_access() {
        let f = fixture(cached_config());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"hot body").unwrap();
        // Miss-fill.
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"hot body");
        // Destroy the backing object outright: a warm read still serves
        // the verified body, proving the hit path does zero store I/O.
        let data_key = f.store.keys.storage_key(&file_id("/a"), true);
        f.content.delete(&data_key).unwrap();
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"hot body");
        let stats = f.store.cache_stats().unwrap();
        assert!(stats.hits >= 1, "expected a cache hit, got {stats:?}");
    }

    #[test]
    fn write_through_invalidation_supersedes_cached_body() {
        let f = fixture(cached_config());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"version 1").unwrap();
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 1");
        f.store.write(&file_id("/a"), b"version 2").unwrap();
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 2");
        assert!(f.store.cache_stats().unwrap().invalidations >= 1);
    }

    #[test]
    fn delete_drops_cached_body() {
        let f = fixture(cached_config());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"doomed").unwrap();
        assert!(f.store.read(&file_id("/a")).unwrap().is_some());
        assert!(f.store.delete(&file_id("/a")).unwrap());
        assert!(f.store.read(&file_id("/a")).unwrap().is_none());
    }

    #[test]
    fn rebuild_tree_clears_cache_after_external_restore() {
        let f = fixture(cached_config());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"version 1").unwrap();
        let snapshot = f.content.snapshot();
        f.store.write(&file_id("/a"), b"version 2").unwrap();
        // Warm the cache with version 2, then restore the version-1
        // backup out from under the enclave (§V-G).
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 2");
        f.content.restore(snapshot);
        f.store.rebuild_tree().unwrap();
        // The restoration path cleared the cache: the read reflects the
        // restored store, not the stale cached version 2.
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 1");
    }

    #[test]
    fn rolled_back_store_never_yields_stale_reads_warm_or_cold() {
        // With the cache on, an external whole-store rollback must
        // produce fresh data or an integrity error — never a stale body
        // accepted because of (or despite) cached state.
        let f = fixture(cached_config());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"version 1").unwrap();
        let snapshot = f.content.snapshot();
        f.store.write(&file_id("/a"), b"version 2").unwrap();
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 2");
        f.content.restore(snapshot);
        // Warm: the hit serves the latest enclave-written body.
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 2");
        // Body evicted (e.g. by pressure) while the authentic hash
        // records stay cached: the refetch reads the rolled-back blob,
        // which *mismatches* the cached latest records — detected, not
        // served.
        let cache = f.store.cache.as_ref().unwrap();
        cache.invalidate(&CacheKey::Body(file_id("/a")));
        let data_key = f.store.keys.storage_key(&file_id("/a"), true);
        assert!(f.content.get(&data_key).unwrap().is_some());
        assert!(matches!(
            f.store.read(&file_id("/a")),
            Err(SegShareError::Integrity(_))
        ));
    }

    #[test]
    fn whole_fs_counter_anchors_root() {
        let f = fixture(EnclaveConfig {
            rollback_whole_fs: true,
            ..EnclaveConfig::default()
        });
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"state 1").unwrap();
        let snapshot = f.content.snapshot();
        f.store.write(&file_id("/a"), b"state 2").unwrap();
        // Whole-store rollback (root included).
        f.content.restore(snapshot);
        assert!(matches!(
            f.store.read(&file_id("/a")),
            Err(SegShareError::Integrity(msg)) if msg.contains("counter")
        ));
    }

    // ---------------------------------------------------- trusted records

    #[test]
    fn stale_ancestor_record_never_becomes_an_anchor() {
        // Roll an evicted directory record and one child's blob + record
        // back to an older consistent pair, then write a *sibling*: the
        // directory record the write produces is computed from the stale
        // one and must not be trusted, or the child's stale pair would
        // verify against it.
        let f = fixture(cached_config());
        deep_tree(&f.store);
        let (child, sibling, dir) = (
            file_id("/a/b/c/d/f"),
            file_id("/a/b/c/d/g"),
            dir_id("/a/b/c/d/"),
        );
        let [child_blob, child_rec] = f.store.store_keys(&child);
        let [_, dir_rec] = f.store.store_keys(&dir);
        let old: Vec<(String, Vec<u8>)> = [child_blob, child_rec, dir_rec]
            .into_iter()
            .map(|k| {
                let v = f.content.get(&k).unwrap().unwrap();
                (k, v)
            })
            .collect();
        f.store.write(&child, b"version 2").unwrap();

        f.store.evict(&child);
        f.store.evict(&dir);
        for (k, v) in &old {
            f.content.put(k, v).unwrap();
        }
        f.store.write(&sibling, b"sibling 2").unwrap();

        assert!(
            f.store.trusted_record(&dir).is_none(),
            "a record updated from a store read is not trusted"
        );
        // Twice: the first, failing walk must not have cached anything
        // the second could stop at.
        for _ in 0..2 {
            assert!(is_integrity(f.store.read(&child)));
        }
        assert!(f.store.trusted_record(&child).is_none());
        assert!(f.store.trusted_record(&dir).is_none());
        // The sibling itself was written by the enclave just now.
        assert_eq!(f.store.read(&sibling).unwrap().unwrap(), b"sibling 2");
    }

    #[test]
    fn a_failed_walk_caches_nothing() {
        let f = fixture(cached_config());
        deep_tree(&f.store);
        let child = file_id("/a/b/c/d/f");
        let keys = f.store.store_keys(&child);
        let old: Vec<Vec<u8>> = keys
            .iter()
            .map(|k| f.content.get(k).unwrap().unwrap())
            .collect();
        f.store.write(&child, b"version 2").unwrap();
        let evict_three = || {
            f.store.evict(&child);
            f.store.evict(&dir_id("/a/b/c/d/"));
            f.store.evict(&dir_id("/a/b/c/"));
        };

        // Over an honest store the walk reads three records (leaf, `d/`,
        // `c/`), ends at the trusted `b/` and trusts what it read.
        evict_three();
        let before = f.store.cache_stats().unwrap();
        assert_eq!(f.store.read(&child).unwrap().unwrap(), b"version 2");
        // Three records plus the body.
        assert_eq!(f.store.cache_stats().unwrap().fills, before.fills + 4);
        assert!(f.store.trusted_record(&dir_id("/a/b/c/")).is_some());

        // With the leaf's pair rolled back the first records it reads are
        // each fine on their own; `d/`'s bucket gives the stale leaf away.
        evict_three();
        for (k, v) in keys.iter().zip(&old) {
            f.content.put(k, v).unwrap();
        }
        let before = f.store.cache_stats().unwrap();
        assert!(is_integrity(f.store.read(&child)));
        let after = f.store.cache_stats().unwrap();
        assert_eq!(
            after.fills, before.fills,
            "nothing read during it is cached"
        );
        assert_eq!(after.entries, before.entries);
    }

    #[test]
    fn a_failed_put_leaves_no_trusted_record_ahead_of_the_store() {
        use seg_store::{CountingStore, FaultAction, FaultStore};
        // Learn how many writes the set-up and the probed write take.
        let counting = Arc::new(CountingStore::new(MemStore::new()));
        let dry = store_on(
            cached_config(),
            Arc::clone(&counting) as Arc<dyn ObjectStore>,
        );
        deep_tree(&dry);
        let setup_puts = counting.stats().puts;
        dry.write(&file_id("/a/b/c/d/f"), b"version 2").unwrap();
        let write_puts = counting.stats().puts - setup_puts;
        assert_eq!(write_puts, 7, "blob, leaf record, five ancestor records");

        for failing in 1..=write_puts {
            let faulty = Arc::new(FaultStore::new(
                MemStore::new(),
                FaultAction::FailWrite,
                setup_puts + failing,
            ));
            let store = store_on(cached_config(), Arc::clone(&faulty) as Arc<dyn ObjectStore>);
            deep_tree(&store);
            assert!(store.write(&file_id("/a/b/c/d/f"), b"version 2").is_err());
            for id in deep_chain() {
                if let Some(trusted) = store.trusted_record(&id) {
                    assert_eq!(
                        store.store_hash_record(&id).unwrap(),
                        Some(trusted),
                        "put {failing} failed: {} is cached ahead of the store",
                        id.canonical()
                    );
                }
            }
            // The body the store holds (the old one only if the blob
            // put is what failed), or an integrity error.
            let stored: &[u8] = if failing == 1 {
                b"version 1"
            } else {
                b"version 2"
            };
            match store.read(&file_id("/a/b/c/d/f")) {
                Ok(body) => assert_eq!(body.unwrap(), stored, "put {failing}"),
                Err(e) => assert!(is_integrity::<()>(Err(e)), "put {failing}"),
            }
        }
    }

    #[test]
    fn scrub_read_walks_the_store_under_a_warm_cache() {
        let f = fixture(cached_config());
        deep_tree(&f.store);
        let child = file_id("/a/b/c/d/f");
        let [_, dir_rec] = f.store.store_keys(&dir_id("/a/b/"));
        let stale = f.content.get(&dir_rec).unwrap().unwrap();
        f.store.write(&child, b"version 2").unwrap();
        assert!(f.store.scrub_read(&child).unwrap().is_some());

        // An authentic but stale ancestor record: requests never read
        // it (the trusted copy answers), the scrubber must.
        f.content.put(&dir_rec, &stale).unwrap();
        assert_eq!(f.store.read(&child).unwrap().unwrap(), b"version 2");
        f.store.evict(&child);
        assert_eq!(f.store.read(&child).unwrap().unwrap(), b"version 2");
        let before = f.store.cache_stats().unwrap().fills;
        assert!(matches!(
            f.store.scrub_read(&child),
            Err(SegShareError::Integrity(msg)) if msg.contains("trusted copy")
        ));
        assert_eq!(f.store.cache_stats().unwrap().fills, before);
    }

    #[test]
    fn short_bucket_vector_is_an_integrity_error_not_a_panic() {
        // A store written with another `rollback_buckets` (or any record
        // whose bucket vector is shorter than the index asked of it).
        let content = Arc::new(MemStore::new());
        let small = store_on(
            EnclaveConfig {
                rollback_buckets: 1,
                ..EnclaveConfig::default()
            },
            Arc::clone(&content) as Arc<dyn ObjectStore>,
        );
        init_roots(&small);
        register_in(&small, &SegPath::root(), "a", seg_fs::ChildKind::File);
        small.write(&file_id("/a"), b"body").unwrap();
        let wide = store_on(EnclaveConfig::default(), content);
        assert!(matches!(
            wide.read(&file_id("/a")),
            Err(SegShareError::Integrity(msg)) if msg.contains("bucket count")
        ));
    }

    // -------------------------------------------------------------- fold

    /// `id`'s stored record carries the fold of its own buckets and
    /// binds its stored blob: `main = binding + fold`.
    fn assert_record_consistent(store: &TrustedStore, id: &ObjectId) {
        let rec = store.store_hash_record(id).unwrap().unwrap();
        assert_eq!(
            rec.fold,
            store.bucket_fold(id.store(), &rec.buckets),
            "{}",
            id.canonical()
        );
        let blob = store.raw_get(id).unwrap().unwrap();
        let head = header_id(&blob).unwrap();
        let derived = store.record_of(id, &head, rec.fold, rec.buckets.clone(), rec.counter);
        assert_eq!(rec, derived, "{}", id.canonical());
    }

    /// Every node of the tree under `id`, depth-first.
    fn tree_nodes(store: &TrustedStore, id: &ObjectId, out: &mut Vec<ObjectId>) {
        out.push(id.clone());
        if id.is_tree_inner() {
            let body = store.read(id).unwrap().unwrap();
            for child in store.tree_children(id, &body).unwrap() {
                tree_nodes(store, &child, out);
            }
        }
    }

    #[test]
    fn fold_equals_the_from_scratch_sum_after_random_updates() {
        use seg_crypto::rng::{DeterministicRng, SecureRandom};
        let f = fixture(EnclaveConfig::default());
        let s = &f.store;
        deep_tree(s);
        let dir = SegPath::parse("/a/b/c/d/").unwrap();
        let mut rng = DeterministicRng::seeded(7);
        let mut live = BTreeSet::new();
        let (mut inserts, mut replaces, mut removes) = (0, 0, 0);
        for _ in 0..150 {
            let [pick, what]: [u8; 2] = rng.array();
            // More names than buckets would be slow; twelve names and
            // their ACLs already share buckets with `f`, `g` and each other.
            let name = format!("r{}", pick % 12);
            let path = dir.join_file(&name).unwrap();
            let id = ObjectId::FileData(path.clone());
            if live.insert(name.clone()) {
                register_in(s, &dir, &name, seg_fs::ChildKind::File);
                s.write(&id, &[what; 9]).unwrap();
                inserts += 1;
            } else if what % 3 == 0 {
                s.delete(&id).unwrap();
                s.delete(&ObjectId::Acl(path)).unwrap();
                let dir_id = ObjectId::DirData(dir.clone());
                let mut listing = DirFile::decode(&s.read(&dir_id).unwrap().unwrap()).unwrap();
                listing.remove_child(&name);
                s.write(&dir_id, &listing.encode()).unwrap();
                live.remove(&name);
                removes += 1;
            } else {
                s.write(&id, &[what; 5]).unwrap();
                replaces += 1;
            }
            for node in deep_chain().iter().skip(1) {
                assert_record_consistent(s, node);
            }
        }
        assert!(inserts > 10 && replaces > 10 && removes > 10);
        // And the leaves: no buckets, the identity fold.
        let mut nodes = Vec::new();
        tree_nodes(s, &root_id(), &mut nodes);
        for node in &nodes {
            assert_record_consistent(s, node);
            assert!(s.read(node).unwrap().is_some());
        }
    }

    #[test]
    fn a_record_with_a_wrong_fold_fails_the_next_walk() {
        // Authentic (sealed with the enclave's own key, as a writer bug
        // would) but not `binding + fold == main`: with only the fold
        // off, the node's own check gives it away; with `main` moved
        // along, the parent's bucket does. Cache off and on.
        for config in [EnclaveConfig::default(), cached_config()] {
            for move_main in [false, true] {
                let f = fixture(config);
                deep_tree(&f.store);
                let (dir, child) = (dir_id("/a/b/c/d/"), file_id("/a/b/c/d/f"));
                let mut rec = f.store.store_hash_record(&dir).unwrap().unwrap();
                let key = f.store.keys.mset_key(StoreKind::Content);
                rec.fold.add(key, b"stray");
                if move_main {
                    rec.main.add(key, b"stray");
                }
                f.store.write_hash_record(&dir, &rec, false).unwrap();
                f.store.evict(&child);
                let expected = if move_main {
                    "bucket hash"
                } else {
                    "ancestor hash"
                };
                for _ in 0..2 {
                    assert!(matches!(
                        f.store.read(&child),
                        Err(SegShareError::Integrity(msg)) if msg.contains(expected)
                    ));
                }
                assert!(f.store.trusted_record(&dir).is_none());
                assert!(f.store.trusted_record(&child).is_none());
                assert!(is_integrity(f.store.scrub_read(&child)));
            }
        }
    }

    #[test]
    fn rebuild_on_an_untouched_store_rewrites_equal_records() {
        // Incremental updates (inserts, overwrites, a delete) and a
        // from-scratch rebuild must agree on every record — root `main`
        // included — or a restore would not verify against what the
        // running enclave maintains. Sealing differs by nonce only.
        let f = fixture(EnclaveConfig::default());
        let s = &f.store;
        deep_tree(s);
        s.write(&file_id("/a/b/c/d/f"), b"version 2").unwrap();
        register_in(
            s,
            &SegPath::parse("/a/").unwrap(),
            "x",
            seg_fs::ChildKind::File,
        );
        s.write(&file_id("/a/x"), &[7u8; 5000]).unwrap();
        s.delete(&file_id("/a/b/c/d/g")).unwrap();
        s.delete(&ObjectId::Acl(SegPath::parse("/a/b/c/d/g").unwrap()))
            .unwrap();
        let d = dir_id("/a/b/c/d/");
        let mut listing = DirFile::decode(&s.read(&d).unwrap().unwrap()).unwrap();
        listing.remove_child("g");
        s.write(&d, &listing.encode()).unwrap();

        let mut nodes = Vec::new();
        tree_nodes(s, &root_id(), &mut nodes);
        tree_nodes(s, &ObjectId::GroupRoot, &mut nodes);
        assert!(nodes.len() >= 14, "{}", nodes.len());
        let records = || -> Vec<HashRecord> {
            nodes
                .iter()
                .map(|id| s.store_hash_record(id).unwrap().unwrap())
                .collect()
        };
        let incremental = records();
        let sealed_before = f.content.snapshot();
        s.rebuild_tree().unwrap();
        assert_eq!(records(), incremental);
        // It did rewrite them: fresh nonces, other bytes.
        let [_, root_rec_key] = s.store_keys(&root_id());
        assert_ne!(
            f.content.get(&root_rec_key).unwrap().unwrap()[..],
            sealed_before[&root_rec_key][..]
        );
    }

    // --------------------------------------------------------- cost gate

    /// Store gets of: a read right after a write, the same read with the
    /// leaf's cache entries gone, and a put of the existing file — on
    /// the depth-5 tree, counted through a `CountingStore`.
    fn walk_costs(config: EnclaveConfig) -> [u64; 3] {
        let counting = Arc::new(seg_store::CountingStore::new(MemStore::new()));
        let store = store_on(config, Arc::clone(&counting) as Arc<dyn ObjectStore>);
        deep_tree(&store);
        let child = file_id("/a/b/c/d/f");
        let gets = |op: &dyn Fn()| {
            let before = counting.stats().gets;
            op();
            counting.stats().gets - before
        };
        store.write(&child, b"version 2").unwrap();
        let read_after_write = gets(&|| {
            store.read(&child).unwrap().unwrap();
        });
        store.evict(&child);
        let read_leaf_evicted = gets(&|| {
            store.read(&child).unwrap().unwrap();
        });
        let put_existing = gets(&|| store.write(&child, b"version 3").unwrap());
        [read_after_write, read_leaf_evicted, put_existing]
    }

    #[test]
    fn trusted_records_bound_the_store_reads_of_a_walk() {
        // Read after write: the blob, and nothing else — the leaf's
        // trusted record ends the walk, so no record is fetched (or
        // decrypted: every record decrypt follows a record get). Leaf
        // evicted: blob, leaf record, parent blob; the same-bucket
        // siblings' records are trusted. A put re-reads nothing.
        assert_eq!(walk_costs(cached_config()), [1, 3, 0]);
    }

    const PINNED_CACHE_OFF: [u64; 3] = [13, 13, 6];
    /// Was `[14, 14, 7]` until PR 19: with `cache` off a whole-FS walk
    /// fetched the root record a second time before reading its
    /// counter. The re-read detected nothing — the counter comes off the
    /// record the chain was checked against, and a store that answers
    /// the second get differently gains nothing the first answer did not
    /// already decide — so cache-off and cache-on walks are now one code
    /// path and a read costs what it costs without §V-E. The put keeps
    /// its seventh get: that one is `bump_root_counter` fetching the
    /// root record it re-issues under the new counter value, not a walk.
    const PINNED_CACHE_OFF_WHOLE_FS: [u64; 3] = [13, 13, 7];

    #[test]
    fn walk_store_reads_without_the_cache_are_pinned() {
        // Counted at PR 12 with this same scenario: `cache: false` must
        // stay count-identical.
        assert_eq!(walk_costs(EnclaveConfig::default()), PINNED_CACHE_OFF);
        assert_eq!(
            walk_costs(EnclaveConfig {
                rollback_whole_fs: true,
                ..EnclaveConfig::default()
            }),
            PINNED_CACHE_OFF_WHOLE_FS
        );
    }

    // ------------------------------------------- trust rule, as a property

    /// Random mutations, reads, evictions and store rollbacks against a
    /// model of what was acknowledged.
    mod trust_rule {
        use super::*;
        use proptest::prelude::*;
        use seg_fs::ChildKind;
        use std::collections::{HashMap, HashSet};

        /// `/` exists from the start; `MkDir(1)` and `MkDir(2)` make the
        /// other two.
        const DIRS: [&str; 3] = ["/", "/p/", "/p/q/"];
        const FILES_PER_DIR: usize = 2;

        #[derive(Debug, Clone)]
        enum Op {
            MkDir(usize),
            Put(usize, usize, u8),
            PutAcl(usize, usize, u8),
            Get(usize, usize, bool),
            /// Read every file and ACL.
            GetAll,
            Delete(usize, usize),
            Evict(usize),
            /// Remember an object's stored blob and record, and the
            /// records of that many ancestors: one consistent old chain.
            Capture(usize, usize),
            /// Put a remembered chain back — the single-object rollback —
            /// alone, or just as its nodes fell out of the cache.
            Replay(usize, bool),
            CaptureAll,
            ReplayAll,
        }

        impl Op {
            fn is_attack(&self) -> bool {
                matches!(
                    self,
                    Op::Capture(..) | Op::Replay(..) | Op::CaptureAll | Op::ReplayAll
                )
            }
        }

        fn op() -> impl Strategy<Value = Op> {
            let (d, f) = (0..DIRS.len(), 0..FILES_PER_DIR);
            prop_oneof![
                (1..DIRS.len()).prop_map(Op::MkDir),
                (d.clone(), f.clone(), any::<u8>()).prop_map(|(d, f, t)| Op::Put(d, f, t)),
                (d.clone(), f.clone(), any::<u8>()).prop_map(|(d, f, t)| Op::Put(d, f, t)),
                (d.clone(), f.clone(), any::<u8>()).prop_map(|(d, f, t)| Op::PutAcl(d, f, t)),
                (d.clone(), f.clone(), any::<bool>()).prop_map(|(d, f, a)| Op::Get(d, f, a)),
                Just(Op::GetAll),
                (d.clone(), f.clone()).prop_map(|(d, f)| Op::Delete(d, f)),
                (0usize..64).prop_map(Op::Evict),
                (0usize..64).prop_map(Op::Evict),
                (0usize..64, 0usize..3).prop_map(|(o, up)| Op::Capture(o, up)),
                (0usize..64, any::<bool>()).prop_map(|(c, evict)| Op::Replay(c, evict)),
                Just(Op::CaptureAll),
                Just(Op::ReplayAll),
            ]
        }

        fn dir_path(d: usize) -> SegPath {
            SegPath::parse(DIRS[d]).unwrap()
        }

        fn file_path(d: usize, f: usize) -> SegPath {
            dir_path(d).join_file(&format!("f{f}")).unwrap()
        }

        /// Every object an op can name: files, their ACLs, directories.
        fn universe() -> Vec<ObjectId> {
            let mut ids: Vec<ObjectId> = (0..DIRS.len())
                .map(|d| ObjectId::DirData(dir_path(d)))
                .collect();
            for d in 0..DIRS.len() {
                for f in 0..FILES_PER_DIR {
                    ids.push(ObjectId::FileData(file_path(d, f)));
                    ids.push(ObjectId::Acl(file_path(d, f)));
                }
            }
            ids
        }

        fn body(tag: u8) -> Vec<u8> {
            vec![tag; 1 + tag as usize]
        }

        /// What the enclave acknowledged, and what it may have written
        /// without acknowledging (a mutation that failed part-way).
        #[derive(Default)]
        struct Model {
            dirs: HashSet<usize>,
            listed: HashSet<(usize, usize)>,
            acked: HashMap<ObjectId, Vec<u8>>,
            unacked: HashMap<ObjectId, Vec<Vec<u8>>>,
            tampered: bool,
        }

        impl Model {
            fn wrote(&mut self, id: ObjectId, body: Vec<u8>, result: &Result<(), SegShareError>) {
                match result {
                    Ok(()) => {
                        self.unacked.remove(&id);
                        self.acked.insert(id, body);
                    }
                    Err(_) => self.unacked.entry(id).or_default().push(body),
                }
            }
        }

        struct Run {
            f: Fixture,
            model: Model,
            captures: Vec<Capture>,
            snapshot: Option<HashMap<String, Arc<[u8]>>>,
        }

        /// The nodes of a captured chain and their store entries then.
        type Capture = (Vec<ObjectId>, Vec<(String, Option<Vec<u8>>)>);

        /// What an op's reads returned, comparable across runs.
        type Seen = Vec<Result<Option<Vec<u8>>, String>>;

        impl Run {
            fn new(cache: bool) -> Run {
                let f = fixture(EnclaveConfig {
                    cache,
                    rollback_whole_fs: true,
                    ..EnclaveConfig::default()
                });
                init_root(&f);
                let mut model = Model::default();
                model.dirs.insert(0);
                Run {
                    f,
                    model,
                    captures: Vec::new(),
                    snapshot: None,
                }
            }

            fn unlist(&self, d: usize, f: usize) -> Result<(), SegShareError> {
                let store = &self.f.store;
                let path = file_path(d, f);
                store.delete(&ObjectId::FileData(path.clone()))?;
                store.delete(&ObjectId::Acl(path.clone()))?;
                let dir_id = ObjectId::DirData(dir_path(d));
                let dir_body = store
                    .read(&dir_id)?
                    .ok_or_else(|| integrity(&dir_id, "missing directory"))?;
                let mut dir = DirFile::decode(&dir_body)?;
                dir.remove_child(path.name());
                store.write(&dir_id, &dir.encode())
            }

            /// Reads `id` and checks the result against the model.
            fn get(&self, id: &ObjectId) -> Result<Seen, TestCaseError> {
                let seen = self.f.store.read(id);
                let acked = self.model.acked.get(id);
                if !self.model.tampered {
                    prop_assert_eq!(seen.as_ref().ok(), Some(&acked.cloned()));
                }
                // Absence is not a body: deleting a blob hides the
                // object with the cache off too.
                if let Ok(Some(body)) = &seen {
                    let unacked = self.model.unacked.get(id);
                    prop_assert!(
                        acked == Some(body) || unacked.is_some_and(|u| u.contains(body)),
                        "{} read a body that is not the last one written",
                        id.canonical()
                    );
                }
                Ok(vec![seen.map_err(|e| e.to_string())])
            }

            /// Applies `op`, returning what its reads saw.
            fn apply(&mut self, op: &Op) -> Result<Seen, TestCaseError> {
                let store = &self.f.store;
                match *op {
                    Op::MkDir(d) => {
                        if self.model.dirs.contains(&d) || !self.model.dirs.contains(&(d - 1)) {
                            return Ok(Vec::new());
                        }
                        let name = dir_path(d).name().to_string();
                        let made =
                            try_register_in(store, &dir_path(d - 1), &name, ChildKind::Directory);
                        prop_assert!(made.is_ok() || self.model.tampered, "mkdir: {made:?}");
                        if made.is_ok() {
                            self.model.dirs.insert(d);
                        }
                    }
                    Op::Put(d, f, tag) | Op::PutAcl(d, f, tag) => {
                        if !self.model.dirs.contains(&d) {
                            return Ok(Vec::new());
                        }
                        let path = file_path(d, f);
                        if !self.model.listed.contains(&(d, f)) {
                            if matches!(op, Op::PutAcl(..)) {
                                return Ok(Vec::new());
                            }
                            let listed =
                                try_register_in(store, &dir_path(d), path.name(), ChildKind::File);
                            prop_assert!(listed.is_ok() || self.model.tampered, "{listed:?}");
                            self.model.wrote(
                                ObjectId::Acl(path.clone()),
                                seg_fs::AclFile::new().encode(),
                                &listed,
                            );
                            if listed.is_err() {
                                return Ok(Vec::new());
                            }
                            self.model.listed.insert((d, f));
                        }
                        let id = match op {
                            Op::Put(..) => ObjectId::FileData(path),
                            _ => ObjectId::Acl(path),
                        };
                        let written = store.write(&id, &body(tag));
                        prop_assert!(written.is_ok() || self.model.tampered, "{written:?}");
                        self.model.wrote(id, body(tag), &written);
                    }
                    Op::Delete(d, f) => {
                        if !self.model.listed.contains(&(d, f)) {
                            return Ok(Vec::new());
                        }
                        let gone = self.unlist(d, f);
                        prop_assert!(gone.is_ok() || self.model.tampered, "{gone:?}");
                        if gone.is_ok() {
                            self.model.listed.remove(&(d, f));
                            for id in [
                                ObjectId::FileData(file_path(d, f)),
                                ObjectId::Acl(file_path(d, f)),
                            ] {
                                self.model.acked.remove(&id);
                                self.model.unacked.remove(&id);
                            }
                        }
                    }
                    Op::Get(d, f, acl) => {
                        let id = match acl {
                            true => ObjectId::Acl(file_path(d, f)),
                            false => ObjectId::FileData(file_path(d, f)),
                        };
                        return self.get(&id);
                    }
                    Op::GetAll => {
                        let mut seen = Vec::new();
                        for id in &universe()[DIRS.len()..] {
                            seen.extend(self.get(id)?);
                        }
                        return Ok(seen);
                    }
                    Op::Evict(pick) => {
                        let ids = universe();
                        store.evict(&ids[pick % ids.len()]);
                    }
                    Op::Capture(pick, up) => {
                        let ids = universe();
                        let mut chain = vec![ids[pick % ids.len()].clone()];
                        let [blob, record] = store.store_keys(&chain[0]);
                        let mut keys = vec![blob, record];
                        for _ in 0..up {
                            let Some(parent) = chain.last().unwrap().tree_parent() else {
                                break;
                            };
                            let [_, record] = store.store_keys(&parent);
                            keys.push(record);
                            chain.push(parent);
                        }
                        let entries = keys
                            .into_iter()
                            .map(|k| {
                                let v = self.f.content.get(&k).unwrap();
                                (k, v)
                            })
                            .collect();
                        self.captures.push((chain, entries));
                    }
                    Op::Replay(pick, evict) => {
                        if self.captures.is_empty() {
                            return Ok(Vec::new());
                        }
                        self.model.tampered = true;
                        // One of the three latest: old enough to be stale,
                        // recent enough that its directory still lists it.
                        let recent = self.captures.len().min(3);
                        let (chain, entries) =
                            &self.captures[self.captures.len() - 1 - pick % recent];
                        for (k, v) in entries {
                            match v {
                                Some(v) => self.f.content.put(k, v).unwrap(),
                                None => drop(self.f.content.delete(k).unwrap()),
                            }
                        }
                        if evict {
                            chain.iter().for_each(|id| store.evict(id));
                        }
                    }
                    Op::CaptureAll => self.snapshot = Some(self.f.content.snapshot()),
                    Op::ReplayAll => {
                        if let Some(snapshot) = &self.snapshot {
                            self.model.tampered = true;
                            self.f.content.restore(snapshot.clone());
                        }
                    }
                }
                Ok(Vec::new())
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: 192,
                max_shrink_iters: 0,
                ..ProptestConfig::default()
            })]

            #[test]
            fn reads_return_the_last_written_body_or_fail(
                ops in proptest::collection::vec(op(), 1..80)
            ) {
                // Under attack, with the cache on: never a stale body —
                // at the end not from a second read either, whatever the
                // first left behind.
                let mut attacked = Run::new(true);
                for (i, op) in ops.iter().chain([&Op::GetAll, &Op::GetAll]).enumerate() {
                    // The stand-in proptest reports the seed only; name
                    // the ops that led here.
                    if let Err(TestCaseError::Fail(why)) = attacked.apply(op) {
                        let ran = &ops[..i.min(ops.len())];
                        return Err(TestCaseError::fail(format!("{why}\nafter {ran:?}")));
                    }
                }
                // Without the attack ops the store is honest: every read
                // is exact, and the cache changes no result.
                let (mut on, mut off) = (Run::new(true), Run::new(false));
                for op in ops.iter().filter(|op| !op.is_attack()) {
                    prop_assert_eq!(on.apply(op)?, off.apply(op)?);
                }
            }
        }
    }

    // Same shape as `pfs::tests::blob_bytes_are_pinned`: the hex was
    // taken from this writer when storage format version 2 (`head:` over
    // the 28-byte header id) was introduced. Stored hash records hold
    // these bytes.
    #[test]
    fn root_main_of_a_fixed_tree_is_pinned() {
        let f = fixture(EnclaveConfig::default());
        let s = &f.store;
        let head = |seed: u8| -> [u8; HEADER_ID_LEN] {
            std::array::from_fn(|i| seed.wrapping_add(i as u8))
        };
        let key = s.keys.mset_key(StoreKind::Content);
        let mut buckets = vec![MsetHash::empty(); s.bucket_count()];
        let leaves = [
            file_id("/a"),
            ObjectId::Acl(SegPath::parse("/a").unwrap()),
            file_id("/b"),
        ];
        for (i, leaf) in leaves.iter().enumerate() {
            let leaf_rec = s.record_of(leaf, &head(i as u8 + 1), MsetHash::empty(), Vec::new(), 0);
            buckets[s.bucket_index(leaf)].add_parts(
                key,
                &TrustedStore::elem_child(&leaf.canonical(), &leaf_rec.main.to_bytes()),
            );
        }
        let fold = s.bucket_fold(StoreKind::Content, &buckets);
        let root = s.record_of(&root_id(), &head(0), fold, buckets, 0);
        assert_eq!(
            crate::enclave::keys::hex(&root.main.to_bytes()),
            "73894e63fc4126a25ece8f95bce357c4a358a6c65d6f4ca07a2b49a0010321374200000000000000"
        );
    }
}
