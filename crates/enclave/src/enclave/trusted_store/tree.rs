//! The rollback tree (§V-D/§V-E): hash records, bucket hashing, a
//! commit's update pass, the verification walk, the root counters, and
//! the from-scratch rebuild.

use std::sync::Arc;

use seg_crypto::mset::{MsetHash, MSET_HASH_LEN};
use seg_crypto::pae::{pae_dec, pae_enc_with, PaeKey};
use seg_crypto::rng::SystemRng;
use seg_crypto::sha256::Sha256;
use seg_fs::DirFile;
use seg_sgx::pfs::{header_id, HEADER_ID_LEN};
use seg_store_api::WriteBatch;

use crate::enclave::names::{ObjectId, StoreKind};
use crate::error::SegShareError;

use super::record::{GroupRootFile, HashRecord};
use super::{integrity, CacheKey, CachedValue, Fetched, TrustedStore, Walk};

/// What sealing a node's hash record takes, derived from its id once:
/// the record key (HKDF), the store name (an HMAC when names are
/// hidden), the associated data (the canonical id) and the node's bucket
/// in its parent (SHA-256). A trusted inner record keeps it beside
/// itself in the cache, since every write below the node rewrites that
/// record; a leaf derives it again at each write, its only one in a
/// request, so the many small leaf entries do not carry it.
#[derive(Clone)]
pub(super) struct SealCtx {
    key: PaeKey,
    name: String,
    canonical: String,
    bucket: usize,
}

impl SealCtx {
    fn cached_bytes(&self) -> usize {
        std::mem::size_of::<SealCtx>() + self.name.len() + self.canonical.len()
    }
}

/// A trusted record as the cache holds it (`CacheKey::Record`).
#[derive(Clone)]
pub(crate) struct TrustedRecord {
    pub(super) rec: HashRecord,
    /// An inner node's sealing inputs, once a write has derived them.
    seal: Option<Box<SealCtx>>,
}

impl TrustedRecord {
    /// Bytes a cached copy is charged for.
    fn cached_bytes(&self) -> usize {
        self.rec.cached_bytes() as usize + self.seal.as_ref().map_or(0, |s| s.cached_bytes())
    }
}

/// A record taken out of the cache, or read from the store, to update.
struct Taken {
    rec: HashRecord,
    seal: Option<Box<SealCtx>>,
    /// Whether it came from the cache: a record updated from a trusted
    /// one is trusted too.
    trusted: bool,
}

/// One child's change, for its parent to fold in: the element of `name`
/// with main hash `old` leaves bucket `bucket`, the one with `new` enters.
struct ChildChange {
    bucket: usize,
    name: String,
    old: Option<MsetHash>,
    new: Option<MsetHash>,
}

/// An inner node one commit updates: the changes of its children and,
/// when the commit rewrites the node itself, its new blob's header id.
struct Pending {
    id: ObjectId,
    depth: usize,
    head: Option<[u8; HEADER_ID_LEN]>,
    changes: Vec<ChildChange>,
}

/// One commit's pass: the inner nodes it updates, each once, deepest
/// first (every change below a node is folded in before the node's
/// record is sealed); the batch that is its one store write; and what
/// waits for that write to be in: the updated trusted records, which
/// return to the cache, and the root counter value the batch names.
#[derive(Default)]
struct Pass {
    nodes: Vec<Pending>,
    batch: WriteBatch,
    kept: Vec<(CacheKey, TrustedRecord)>,
    counter: Option<u64>,
}

impl Pass {
    fn node(&mut self, id: ObjectId) -> &mut Pending {
        let i = match self.nodes.iter().position(|n| n.id == id) {
            Some(i) => i,
            None => {
                self.nodes.push(Pending {
                    depth: id.tree_depth(),
                    id,
                    head: None,
                    changes: Vec::new(),
                });
                self.nodes.len() - 1
            }
        };
        &mut self.nodes[i]
    }

    /// Hands `child`'s change (its record sealed with `seal`) to its
    /// tree parent; a tree root has none.
    fn change(
        &mut self,
        child: &ObjectId,
        seal: &SealCtx,
        old: Option<MsetHash>,
        new: Option<MsetHash>,
    ) {
        if let Some(parent) = child.tree_parent() {
            self.node(parent).changes.push(ChildChange {
                bucket: seal.bucket,
                name: seal.canonical.clone(),
                old,
                new,
            });
        }
    }

    /// Keeps `id`'s updated trusted record, to put (back) in the cache
    /// once the commit's write is in.
    fn keep(&mut self, id: &ObjectId, rec: HashRecord, seal: Option<Box<SealCtx>>) {
        let trusted = TrustedRecord { rec, seal };
        self.kept.push((CacheKey::Record(id.clone()), trusted));
    }

    fn pop_deepest(&mut self) -> Option<Pending> {
        let deepest = (0..self.nodes.len()).max_by_key(|&i| self.nodes[i].depth)?;
        Some(self.nodes.swap_remove(deepest))
    }
}

/// An inner node's tree children grouped by bucket, decoded from the
/// body whose header id is `head` (`CacheKey::Children`). A walk uses it
/// in place of that body only while `head` checks against the node's
/// trusted record, that is while the body is still the node's latest.
pub(crate) struct ChildMap {
    pub(super) head: [u8; HEADER_ID_LEN],
    /// `buckets[b]`: the children in bucket `b`, each with its
    /// canonical name.
    pub(super) buckets: Vec<Vec<(ObjectId, String)>>,
}

impl ChildMap {
    /// Bytes a cached listing is charged for: what it keeps resident.
    fn cached_bytes(&self) -> usize {
        let child = std::mem::size_of::<(ObjectId, String)>();
        // Each name is held twice: in the id's path and as `canonical()`.
        let children: usize = self
            .buckets
            .iter()
            .flatten()
            .map(|(_, name)| child + 2 * name.len())
            .sum();
        HEADER_ID_LEN
            + self.buckets.len() * std::mem::size_of::<Vec<(ObjectId, String)>>()
            + children
    }
}

impl TrustedStore {
    // ------------------------------------------------------ hash records

    /// Fetches and authenticates `id`'s hash record from the store. The
    /// result may be stale: only a walk can tell.
    pub(super) fn store_hash_record(
        &self,
        id: &ObjectId,
    ) -> Result<Option<HashRecord>, SegShareError> {
        let key = self
            .keys
            .hash_record_storage_key(id, self.config.hide_names);
        self.open_record(id, &key, &self.keys.hash_record_key(id), &id.canonical())
    }

    /// The record stored under `name`, opened with `key` over `canonical`.
    fn open_record(
        &self,
        id: &ObjectId,
        name: &str,
        key: &PaeKey,
        canonical: &str,
    ) -> Result<Option<HashRecord>, SegShareError> {
        let Some(blob) = self.store_for(id.store()).get(name)? else {
            return Ok(None);
        };
        let body = pae_dec(key, &blob, canonical.as_bytes())
            .map_err(|_| integrity(id, "hash record authentication failed"))?;
        Ok(Some(HashRecord::decode(&body)?))
    }

    /// `id`'s sealing inputs, derived.
    pub(super) fn seal_ctx(&self, id: &ObjectId) -> SealCtx {
        let canonical = id.canonical();
        SealCtx {
            key: self.keys.hash_record_key(id),
            name: self
                .keys
                .hash_record_storage_key(id, self.config.hide_names),
            bucket: self.bucket_of(&canonical),
            canonical,
        }
    }

    /// `id`'s trusted hash record if the cache holds one, else the
    /// store's. A store read does not fill the cache.
    pub(super) fn read_hash_record(&self, id: &ObjectId) -> Result<Option<Fetched>, SegShareError> {
        let cache_key = CacheKey::Record(id.clone());
        if let Some(CachedValue::Record(trusted)) = self.cache_lookup(&cache_key) {
            return Ok(Some(Fetched {
                rec: trusted.rec.clone(),
                trusted: true,
                gen: 0,
            }));
        }
        let gen = self.cache_gen(&cache_key);
        Ok(self.store_hash_record(id)?.map(|rec| Fetched {
            rec,
            trusted: false,
            gen,
        }))
    }

    /// The record a walk checks `id` against. A [`Walk::StoreOnly`] walk
    /// reads the store whatever the cache holds, and fails if the two
    /// disagree: the store copy of a trusted record was replaced.
    fn walk_record(&self, id: &ObjectId, walk: Walk) -> Result<Option<Fetched>, SegShareError> {
        if walk == Walk::Trusting {
            return self.read_hash_record(id);
        }
        let rec = self.store_hash_record(id)?;
        let key = CacheKey::Record(id.clone());
        let cached = self.cache_for(&key).and_then(|c| c.peek(&key));
        if let Some(CachedValue::Record(trusted)) = cached {
            if rec.as_ref() != Some(&trusted.rec) {
                return Err(integrity(
                    id,
                    "stored hash record differs from the trusted copy (rollback or tamper)",
                ));
            }
        }
        Ok(rec.map(|rec| Fetched {
            rec,
            trusted: false,
            gen: 0,
        }))
    }

    /// Seals `rec` with `seal` into `batch`, encoding it straight into
    /// the ciphertext buffer.
    pub(super) fn put_record(batch: &mut WriteBatch, rec: &HashRecord, seal: &SealCtx) {
        let blob = pae_enc_with(
            &seal.key,
            rec.encoded_len(),
            seal.canonical.as_bytes(),
            &mut SystemRng::new(),
            |out| rec.encode_into(out),
        );
        batch.put(seal.name.clone(), blob);
    }

    /// Takes `id`'s trusted record out of the cache to update it in
    /// place, or reads the store's. A taken record is not put back
    /// until the commit's write is in ([`Pass::keep`]),
    /// so after a failed write no trusted record is ahead of the store.
    fn take_record(&self, id: &ObjectId) -> Result<Option<Taken>, SegShareError> {
        let key = CacheKey::Record(id.clone());
        if let Some(cache) = self.cache_for(&key) {
            let taken = {
                let _prof = seg_obs::prof::phase(seg_obs::Phase::CacheLookup);
                cache.take(&key)
            };
            if let Some((_, CachedValue::Record(trusted))) = taken {
                let TrustedRecord { rec, seal } = Arc::unwrap_or_clone(trusted);
                return Ok(Some(Taken {
                    rec,
                    seal,
                    trusted: true,
                }));
            }
        }
        let seal = self.seal_ctx(id);
        let stored = self.open_record(id, &seal.name, &seal.key, &seal.canonical)?;
        Ok(stored.map(|rec| Taken {
            rec,
            seal: Some(Box::new(seal)),
            trusted: false,
        }))
    }

    /// Caches the store-read records of a walk that reached an anchor.
    fn trust_walked(&self, walked: Vec<(ObjectId, u64, HashRecord)>) {
        for (id, gen, rec) in walked {
            let trusted = TrustedRecord { rec, seal: None };
            let bytes = trusted.cached_bytes();
            self.cache_fill(
                CacheKey::Record(id),
                gen,
                CachedValue::Record(Arc::new(trusted)),
                bytes,
            );
        }
    }

    // ---------------------------------------------------- tree hashing

    pub(super) fn tree_enabled_for(&self, id: &ObjectId) -> bool {
        // Dedup blobs are content-addressed (name = HMAC(SK_r, content),
        // key derived from the name), so a "rolled back" blob that still
        // decrypts necessarily has the same content — they need no tree.
        self.config.rollback_individual && id.store() != StoreKind::Dedup
    }

    pub(super) fn bucket_count(&self) -> usize {
        self.config.rollback_buckets as usize
    }

    pub(super) fn bucket_index(&self, id: &ObjectId) -> usize {
        self.bucket_of(&id.canonical())
    }

    /// The bucket of the child whose canonical name is `name`.
    fn bucket_of(&self, name: &str) -> usize {
        let digest = Sha256::digest(name.as_bytes());
        let v = u16::from_le_bytes([digest[0], digest[1]]) as usize;
        v % self.bucket_count()
    }

    /// The multiset element of bucket `index` of a node.
    fn elem_bucket(index: usize, bucket: &MsetHash) -> [u8; 7 + 4 + MSET_HASH_LEN] {
        let mut e = [0u8; 7 + 4 + MSET_HASH_LEN];
        e[..7].copy_from_slice(b"bucket:");
        e[7..11].copy_from_slice(&(index as u32).to_le_bytes());
        e[11..].copy_from_slice(&bucket.to_bytes());
        e
    }

    /// The multiset element of a child with main hash `main`, as the
    /// parts the keyed hash state absorbs in turn.
    pub(super) fn elem_child<'a>(
        canonical: &'a str,
        main: &'a [u8; MSET_HASH_LEN],
    ) -> [&'a [u8]; 4] {
        [b"child:", canonical.as_bytes(), &[0], main]
    }

    /// All the tree sees of `id`'s stored blob: the id of its header.
    pub(super) fn head_of(
        id: &ObjectId,
        blob: &[u8],
    ) -> Result<[u8; HEADER_ID_LEN], SegShareError> {
        header_id(blob).map_err(|_| integrity(id, "truncated blob"))
    }

    /// `H(path) + H(head)`: the part of a node's main hash that binds
    /// the stored version of its blob. Child updates never change it.
    fn node_binding(&self, id: &ObjectId, head: &[u8; HEADER_ID_LEN]) -> MsetHash {
        let key = self.keys.mset_key(id.store());
        let mut binding = MsetHash::empty();
        binding.add_parts(key, &[b"path:", id.canonical().as_bytes()]);
        binding.add_parts(key, &[b"head:", head]);
        binding
    }

    /// A node's bucket fold from scratch, one element per bucket: only
    /// where no record carries it yet (a new directory, a rebuild).
    pub(super) fn bucket_fold(&self, store: StoreKind, buckets: &[MsetHash]) -> MsetHash {
        let key = self.keys.mset_key(store);
        let mut fold = MsetHash::empty();
        for (i, b) in buckets.iter().enumerate() {
            fold.add(key, &Self::elem_bucket(i, b));
        }
        fold
    }

    /// A node's hash record: `main = binding + fold`, by construction.
    pub(super) fn record_of(
        &self,
        id: &ObjectId,
        head: &[u8; HEADER_ID_LEN],
        fold: MsetHash,
        buckets: Vec<MsetHash>,
        counter: u64,
    ) -> HashRecord {
        let mut main = self.node_binding(id, head);
        main.combine(&fold);
        HashRecord {
            main,
            fold,
            buckets,
            counter,
        }
    }

    // ------------------------------------------------------ the commit

    /// Applies one request's changes, all in one store, under the tree
    /// lock the caller holds, as that store's one write. Each blob enters
    /// the batch with its leaf record, then one pass folds every change
    /// into the ancestors bottom-up — O(depth) record updates for the
    /// whole request, no sibling reads (§V-D), each touched record read,
    /// updated and sealed once — and the batch is written. Only once the
    /// write is in do the updated trusted records return to the cache.
    /// `changes[i].1` is change `i`'s sealed blob, `None` for a removal;
    /// each blob moves into the batch.
    pub(super) fn commit_locked(
        &self,
        changes: &mut [(&ObjectId, Option<Vec<u8>>)],
    ) -> Result<(), SegShareError> {
        let Some(store) = changes.first().map(|(id, _)| id.store()) else {
            return Ok(());
        };
        // The batch goes to one store, so every change must be in it.
        assert!(changes.iter().all(|(id, _)| id.store() == store));
        for (id, _) in changes.iter() {
            self.cache_invalidate_object(id);
        }
        let mut pass = Pass::default();
        for (id, blob) in changes.iter_mut() {
            match blob.take() {
                Some(blob) => self.put_object(id, blob, &mut pass)?,
                None => self.delete_object(id, &mut pass)?,
            }
        }
        if !pass.nodes.is_empty() {
            let _prof = seg_obs::prof::phase(seg_obs::Phase::RollbackTree);
            while let Some(node) = pass.pop_deepest() {
                self.fold_node(node, &mut pass)?;
            }
        }
        self.store_for(store).write(pass.batch)?;
        if let Some(value) = pass.counter {
            self.root_anchor(store).written(value)?;
        }
        if let Some(cache) = &self.cache {
            for (key, trusted) in pass.kept {
                let bytes = trusted.cached_bytes() as u64;
                cache
                    .route(&key)
                    .put(key, CachedValue::Record(Arc::new(trusted)), bytes);
            }
        }
        Ok(())
    }

    /// Adds `id`'s new blob to the batch. A leaf's record, a function of
    /// the header alone, goes with it; an inner node's waits for the pass.
    fn put_object(
        &self,
        id: &ObjectId,
        blob: Vec<u8>,
        pass: &mut Pass,
    ) -> Result<(), SegShareError> {
        let name = self.keys.storage_key(id, self.config.hide_names);
        if !self.tree_enabled_for(id) {
            pass.batch.put(name, blob);
            return Ok(());
        }
        let head = Self::head_of(id, &blob)?;
        pass.batch.put(name, blob);
        if id.is_tree_inner() {
            pass.node(id.clone()).head = Some(head);
            return Ok(());
        }
        let old = self.take_record(id)?;
        let counter = old.as_ref().map_or(0, |old| old.rec.counter);
        let rec = self.record_of(id, &head, MsetHash::empty(), Vec::new(), counter);
        let old_main = old.as_ref().map(|old| old.rec.main);
        let seal = old.and_then(|old| old.seal);
        let seal = seal.unwrap_or_else(|| Box::new(self.seal_ctx(id)));
        Self::put_record(&mut pass.batch, &rec, &seal);
        pass.change(id, &seal, old_main, Some(rec.main));
        // Nothing stale can be in a leaf's record: it is trusted.
        pass.keep(id, rec, None);
        Ok(())
    }

    /// Adds the deletes of `id`'s blob and record to the batch.
    fn delete_object(&self, id: &ObjectId, pass: &mut Pass) -> Result<(), SegShareError> {
        pass.batch
            .delete(self.keys.storage_key(id, self.config.hide_names));
        if self.tree_enabled_for(id) {
            if let Some(old) = self.take_record(id)? {
                let seal = old.seal.unwrap_or_else(|| Box::new(self.seal_ctx(id)));
                pass.batch.delete(seal.name.clone());
                pass.change(id, &seal, Some(old.rec.main), None);
            }
        }
        Ok(())
    }

    /// Folds a pending inner node's child changes (and, when the commit
    /// rewrote it, its new header) into its record, issues the root
    /// counter at a tree root (§V-E), seals and stores the record, and
    /// hands the node's own change to its parent.
    fn fold_node(&self, node: Pending, pass: &mut Pass) -> Result<(), SegShareError> {
        let Pending {
            id, head, changes, ..
        } = node;
        let (mut rec, seal, trusted, old_main) = match self.take_record(&id)? {
            Some(old) => {
                let main = old.rec.main;
                (old.rec, old.seal, old.trusted, Some(main))
            }
            // A new directory: no buckets yet, so nothing stale in them.
            None if head.is_some() => {
                let buckets = vec![MsetHash::empty(); self.bucket_count()];
                let fold = self.bucket_fold(id.store(), &buckets);
                let rec = HashRecord {
                    main: MsetHash::empty(),
                    fold,
                    buckets,
                    counter: 0,
                };
                (rec, None, true, None)
            }
            None => return Err(integrity(&id, "missing ancestor hash record")),
        };
        if rec.buckets.len() != self.bucket_count() {
            return Err(integrity(&id, "bucket count mismatch"));
        }
        self.fold_changes(&id, &mut rec, &changes);
        if let Some(head) = head {
            // Rewritten: `main` binds the new body, `fold` carries over.
            rec.main = self.node_binding(&id, &head);
            rec.main.combine(&rec.fold);
        }
        let parent = id.tree_parent();
        if parent.is_none() && self.config.rollback_whole_fs {
            // The next counter value is issued under the root record only
            // if that record is the current one: trusted, or accepted by
            // the anchor. A record from a rolled-back store would
            // otherwise be blessed by a fresh value — the root has no
            // parent whose bucket could give it away.
            let anchor = self.root_anchor(id.store());
            if !trusted && old_main.is_some() && !anchor.accepts(rec.counter) {
                return Err(integrity(
                    &id,
                    "monotonic counter mismatch (whole file system rollback)",
                ));
            }
            rec.counter = anchor.issue();
            pass.counter = Some(rec.counter);
        }
        let seal = seal.unwrap_or_else(|| Box::new(self.seal_ctx(&id)));
        Self::put_record(&mut pass.batch, &rec, &seal);
        pass.change(&id, &seal, old_main, Some(rec.main));
        if trusted {
            pass.keep(&id, rec, Some(seal));
        }
        Ok(())
    }

    /// Applies child changes to `rec`'s buckets and moves `main` and
    /// `fold` by each touched bucket's element difference: the bucket's
    /// old and new elements are hashed once, however many of its
    /// children changed.
    fn fold_changes(&self, id: &ObjectId, rec: &mut HashRecord, changes: &[ChildChange]) {
        let key = self.keys.mset_key(id.store());
        let mut touched: Vec<(usize, MsetHash)> = Vec::with_capacity(changes.len());
        for change in changes {
            let b = change.bucket;
            if !touched.iter().any(|&(t, _)| t == b) {
                touched.push((b, MsetHash::of(key, &Self::elem_bucket(b, &rec.buckets[b]))));
            }
            let bucket = &mut rec.buckets[b];
            if let Some(old) = change.old {
                bucket.remove_parts(key, &Self::elem_child(&change.name, &old.to_bytes()));
            }
            if let Some(new) = change.new {
                bucket.add_parts(key, &Self::elem_child(&change.name, &new.to_bytes()));
            }
        }
        for (b, old_elem) in touched {
            let mut delta = MsetHash::of(key, &Self::elem_bucket(b, &rec.buckets[b]));
            delta.subtract(&old_elem);
            rec.main.combine(&delta);
            rec.fold.combine(&delta);
        }
    }

    /// Launch-time adoption (`Anchor::adopt`) of each root record's
    /// counter value, before the first verified read.
    pub(crate) fn adopt_root_counters(&self) -> Result<(), SegShareError> {
        if !self.config.rollback_whole_fs {
            return Ok(());
        }
        for root in [
            ObjectId::DirData(seg_fs::SegPath::root()),
            ObjectId::GroupRoot,
        ] {
            if let Some(rec) = self.store_hash_record(&root)? {
                self.root_anchor(root.store()).adopt(rec.counter)?;
            }
        }
        Ok(())
    }

    /// Enumerates a directory node's tree children from its decoded body.
    pub(super) fn tree_children(
        &self,
        parent: &ObjectId,
        parent_body: &[u8],
    ) -> Result<Vec<ObjectId>, SegShareError> {
        match parent {
            ObjectId::DirData(dir) => {
                let df = DirFile::decode(parent_body)?;
                let mut children = Vec::with_capacity(2 * df.len() + 1);
                for (name, kind) in df.children() {
                    let child_path = df.child_path(name, kind)?;
                    children.push(match kind {
                        seg_fs::ChildKind::Directory => ObjectId::DirData(child_path.clone()),
                        seg_fs::ChildKind::File => ObjectId::FileData(child_path.clone()),
                    });
                    children.push(ObjectId::Acl(child_path));
                }
                if dir.is_root() {
                    children.push(ObjectId::Acl(seg_fs::SegPath::root()));
                }
                Ok(children)
            }
            ObjectId::GroupRoot => {
                let root = GroupRootFile::decode(parent_body)?;
                let mut children = vec![ObjectId::GroupList];
                for user in root.users() {
                    children.push(ObjectId::MemberList(user.clone()));
                }
                Ok(children)
            }
            other => Err(integrity(other, "node cannot have children")),
        }
    }

    /// §V-D validation of `id` (whose stored blob has header id `head`):
    /// check its own hash record, then one bucket per ancestor level up
    /// to the first trusted record or the root, then the root counter.
    pub(super) fn verify_tree(
        &self,
        id: &ObjectId,
        head: &[u8; HEADER_ID_LEN],
        walk: Walk,
    ) -> Result<(), SegShareError> {
        let _prof = seg_obs::prof::phase(seg_obs::Phase::RollbackTree);
        self.verify_tree_inner(id, head, walk)
    }

    /// Checks the stored version `head` of `id` against its record,
    /// trusted or from the store: `H(path) + H(head) + fold == main`,
    /// two short HMACs.
    fn check_header(
        &self,
        id: &ObjectId,
        head: &[u8; HEADER_ID_LEN],
        rec: &HashRecord,
        mismatch: &str,
    ) -> Result<(), SegShareError> {
        if !self.header_matches(id, head, rec) {
            return Err(integrity(id, mismatch));
        }
        Ok(())
    }

    fn header_matches(&self, id: &ObjectId, head: &[u8; HEADER_ID_LEN], rec: &HashRecord) -> bool {
        let mut expected = self.node_binding(id, head);
        expected.combine(&rec.fold);
        expected == rec.main
    }

    /// `parent`'s cached listing, if it was decoded from the body that
    /// `parent`'s trusted record `rec` binds. A listing of an older body
    /// (the directory was rewritten since) is passed over, never an error.
    fn trusted_listing(&self, parent: &ObjectId, rec: &HashRecord) -> Option<Arc<ChildMap>> {
        match self.cache_lookup(&CacheKey::Children(parent.clone()))? {
            CachedValue::Children(map) if self.header_matches(parent, &map.head, rec) => Some(map),
            _ => None,
        }
    }

    /// Reads `parent`'s body, holds its header against `rec` and groups
    /// its tree children by bucket: all of them, or only bucket `only`'s.
    fn read_listing(
        &self,
        parent: &ObjectId,
        rec: &HashRecord,
        only: Option<usize>,
    ) -> Result<ChildMap, SegShareError> {
        let blob = self
            .raw_get(parent)?
            .ok_or_else(|| integrity(parent, "missing ancestor"))?;
        let head = Self::head_of(parent, &blob)?;
        self.check_header(parent, &head, rec, "ancestor hash mismatch")?;
        let body = self.decrypt(parent, &blob)?;
        let mut buckets = vec![Vec::new(); self.bucket_count()];
        for child in self.tree_children(parent, &body)? {
            let name = child.canonical();
            let b = self.bucket_of(&name);
            if only.is_none_or(|only| only == b) {
                buckets[b].push((child, name));
            }
        }
        Ok(ChildMap { head, buckets })
    }

    fn verify_tree_inner(
        &self,
        id: &ObjectId,
        head: &[u8; HEADER_ID_LEN],
        walk: Walk,
    ) -> Result<(), SegShareError> {
        let node = self
            .walk_record(id, walk)?
            .ok_or_else(|| integrity(id, "missing hash record (rollback or tamper)"))?;
        self.check_header(
            id,
            head,
            &node.rec,
            "node hash mismatch (rollback or tamper)",
        )?;
        if node.trusted {
            // `head` is what the enclave last wrote for `id`.
            return Ok(());
        }
        // Store records on the chain that passed every check so far;
        // trusted once the walk reaches an anchor, dropped if it fails.
        let mut walked = Vec::new();
        // `top` is `cur`'s store record.
        let mut cur = id.clone();
        let mut top = node;
        while let Some(parent) = cur.tree_parent() {
            let parent_rec = self
                .walk_record(&parent, walk)?
                .ok_or_else(|| integrity(&parent, "missing ancestor hash record"))?;
            if parent_rec.rec.buckets.len() != self.bucket_count() {
                return Err(integrity(&parent, "bucket count mismatch"));
            }
            let b = self.bucket_index(&cur);
            // A trusted parent's record names its latest body, so a
            // trusting walk may use (or keep) that body's listing. Any
            // other walk reads the body and lists `cur`'s bucket only.
            let trusting = walk == Walk::Trusting && parent_rec.trusted;
            let cached = trusting
                .then(|| self.trusted_listing(&parent, &parent_rec.rec))
                .flatten();
            let (listing, fill) = match cached {
                Some(listing) => (listing, None),
                None => {
                    let gen = trusting.then(|| self.cache_gen(&CacheKey::Children(parent.clone())));
                    let only = (!trusting).then_some(b);
                    let listing = self.read_listing(&parent, &parent_rec.rec, only)?;
                    (Arc::new(listing), gen)
                }
            };
            // Recompute the single bucket containing `cur` from the
            // same-bucket siblings' hash records.
            let key = self.keys.mset_key(parent.store());
            let mut recomputed = MsetHash::empty();
            let mut cur_listed = false;
            for (child, name) in &listing.buckets[b] {
                let child_main = if *child == cur {
                    cur_listed = true;
                    top.rec.main
                } else {
                    self.walk_record(child, walk)?
                        .ok_or_else(|| integrity(child, "missing sibling hash record"))?
                        .rec
                        .main
                };
                recomputed.add_parts(key, &Self::elem_child(name, &child_main.to_bytes()));
            }
            if !cur_listed {
                return Err(integrity(&cur, "not listed in parent (rollback or tamper)"));
            }
            if recomputed != parent_rec.rec.buckets[b] {
                return Err(integrity(
                    &parent,
                    "bucket hash mismatch (rollback or tamper)",
                ));
            }
            if let Some(gen) = fill {
                let bytes = listing.cached_bytes();
                self.cache_fill(
                    CacheKey::Children(parent.clone()),
                    gen,
                    CachedValue::Children(listing),
                    bytes,
                );
            }
            walked.push((cur, top.gen, top.rec));
            cur = parent;
            top = parent_rec;
            if top.trusted {
                // A trusted ancestor: its bucket is the latest the
                // enclave computed, so the chain below it is current.
                self.trust_walked(walked);
                return Ok(());
            }
        }
        // `cur` is the tree root and `top` its record, from the store.
        if self.config.rollback_whole_fs {
            // The counter is read off the very record the chain was
            // just checked against.
            if !self.root_anchor(cur.store()).accepts(top.rec.counter) {
                return Err(integrity(
                    &cur,
                    "monotonic counter mismatch (whole file system rollback)",
                ));
            }
        }
        if walk == Walk::Trusting {
            walked.push((cur, top.gen, top.rec));
            self.trust_walked(walked);
        }
        Ok(())
    }

    /// Rebuilds every hash record bottom-up from the stored objects and
    /// re-anchors the root counter — backup restoration (§V-G).
    ///
    /// # Errors
    ///
    /// Fails if any stored object is unreadable.
    pub fn rebuild_tree(&self) -> Result<(), SegShareError> {
        // Both trees rebuild under exclusive holds (content before
        // group — the one sanctioned two-lock ordering). The dispatch
        // layer additionally runs this in global lock mode, but direct
        // callers (benchmarks, white-box tests) get the same exclusion.
        let _content = self.content_tree.write();
        let _group = self.group_tree.write();
        // Restoration replaces store contents without going through the
        // write-through mutators, so nothing cached is trustworthy.
        for budget in self.cache.iter().flat_map(|c| c.all()) {
            budget.clear();
        }
        if !self.config.rollback_individual {
            return Ok(());
        }
        // Computed from restored store contents, so the cache keeps none
        // of them: the walks that follow re-anchor these records, the
        // rebuild does not vouch for them. Each tree is one write, its
        // root re-anchored under the next counter value (deferred values
        // settle when the caller's window is durable).
        for root in [
            ObjectId::DirData(seg_fs::SegPath::root()),
            ObjectId::GroupRoot,
        ] {
            let anchor = self.root_anchor(root.store());
            let counter = self.config.rollback_whole_fs.then(|| anchor.issue());
            let mut batch = WriteBatch::new();
            self.rebuild_node(&root, &mut |id, mut rec| {
                if let Some(counter) = counter.filter(|_| *id == root) {
                    rec.counter = counter;
                }
                Self::put_record(&mut batch, &rec, &self.seal_ctx(id));
                Ok(())
            })?;
            self.store_for(root.store()).write(batch)?;
            if let Some(counter) = counter {
                anchor.written(counter)?;
            }
        }
        Ok(())
    }

    /// Computes the records of `id`'s subtree from the stored objects,
    /// children first, handing each to `sink`; returns `id`'s main hash.
    pub(super) fn rebuild_node(
        &self,
        id: &ObjectId,
        sink: &mut impl FnMut(&ObjectId, HashRecord) -> Result<(), SegShareError>,
    ) -> Result<MsetHash, SegShareError> {
        let blob = self
            .raw_get(id)?
            .ok_or_else(|| integrity(id, "missing object during rebuild"))?;
        let head = Self::head_of(id, &blob)?;
        let mut buckets = Vec::new();
        if id.is_tree_inner() {
            buckets = vec![MsetHash::empty(); self.bucket_count()];
            let body = self.decrypt(id, &blob)?;
            let key = self.keys.mset_key(id.store());
            for child in self.tree_children(id, &body)? {
                let child_main = self.rebuild_node(&child, sink)?;
                let b = self.bucket_index(&child);
                buckets[b].add_parts(
                    key,
                    &Self::elem_child(&child.canonical(), &child_main.to_bytes()),
                );
            }
        }
        let fold = self.bucket_fold(id.store(), &buckets);
        let rec = self.record_of(id, &head, fold, buckets, 0);
        let main = rec.main;
        sink(id, rec)?;
        Ok(main)
    }
}
