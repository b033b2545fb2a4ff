//! The rollback tree (§V-D/§V-E): hash records, bucket hashing, the
//! incremental update walk, the verification walk, the root counters,
//! and the from-scratch rebuild.

use std::sync::Arc;

use seg_crypto::mset::{MsetHash, MSET_HASH_LEN};
use seg_crypto::pae::{pae_dec, pae_enc};
use seg_crypto::rng::SystemRng;
use seg_crypto::sha256::Sha256;
use seg_fs::DirFile;
use seg_sgx::pfs::{header_id, HEADER_ID_LEN};

use crate::enclave::names::{ObjectId, StoreKind};
use crate::error::SegShareError;

use super::record::{GroupRootFile, HashRecord};
use super::{integrity, CacheKey, CachedValue, Fetched, TreeChange, TrustedStore, Walk};

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
        let Some(blob) = self.store_for(id.store()).get(&key)? else {
            return Ok(None);
        };
        let pae_key = self.keys.hash_record_key(id);
        let body = pae_dec(&pae_key, &blob, id.canonical().as_bytes())
            .map_err(|_| integrity(id, "hash record authentication failed"))?;
        Ok(Some(HashRecord::decode(&body)?))
    }

    /// `id`'s trusted hash record if the cache holds one, else the
    /// store's. A store read does not fill the cache.
    pub(super) fn read_hash_record(&self, id: &ObjectId) -> Result<Option<Fetched>, SegShareError> {
        let cache_key = CacheKey::Record(id.clone());
        if let Some(CachedValue::Record(rec)) = self.cache_lookup(&cache_key) {
            return Ok(Some(Fetched {
                rec: HashRecord::clone(&rec),
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
            if rec.as_ref() != Some(&*trusted) {
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

    /// Seals and stores `rec`. `trusted` says `rec` was computed from
    /// trusted inputs only: the record is then written through to the
    /// cache once the put succeeded. Otherwise (and on a failed put) the
    /// key is left invalidated.
    pub(super) fn write_hash_record(
        &self,
        id: &ObjectId,
        rec: &HashRecord,
        trusted: bool,
    ) -> Result<(), SegShareError> {
        self.cache_invalidate_record(id);
        let key = self
            .keys
            .hash_record_storage_key(id, self.config.hide_names);
        let pae_key = self.keys.hash_record_key(id);
        let blob = pae_enc(
            &pae_key,
            &rec.encode(),
            id.canonical().as_bytes(),
            &mut SystemRng::new(),
        );
        self.store_for(id.store()).put(&key, &blob)?;
        let cache_key = CacheKey::Record(id.clone());
        match self.cache_for(&cache_key) {
            Some(cache) if trusted => cache.put(
                cache_key,
                CachedValue::Record(Arc::new(rec.clone())),
                rec.cached_bytes(),
            ),
            // Second bump — same fill-vs-landing race as `commit_blob`.
            _ => self.cache_invalidate_record(id),
        }
        Ok(())
    }

    /// Caches the store-read records of a walk that reached an anchor.
    fn trust_walked(&self, walked: Vec<(ObjectId, u64, HashRecord)>) {
        for (id, gen, rec) in walked {
            let bytes = rec.cached_bytes();
            self.cache_fill(
                CacheKey::Record(id),
                gen,
                CachedValue::Record(Arc::new(rec)),
                bytes as usize,
            );
        }
    }

    pub(super) fn delete_hash_record(&self, id: &ObjectId) -> Result<(), SegShareError> {
        self.cache_invalidate_record(id);
        let key = self
            .keys
            .hash_record_storage_key(id, self.config.hide_names);
        self.store_for(id.store()).delete(&key)?;
        self.cache_invalidate_record(id);
        Ok(())
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

    /// Walks ancestors applying an incremental child-hash change —
    /// O(depth) hash-record updates, no sibling reads (§V-D).
    pub(super) fn apply_tree_change(
        &self,
        id: &ObjectId,
        change: TreeChange,
    ) -> Result<(), SegShareError> {
        let _prof = seg_obs::prof::phase(seg_obs::Phase::RollbackTree);
        self.apply_tree_change_inner(id, change)
    }

    fn apply_tree_change_inner(
        &self,
        id: &ObjectId,
        change: TreeChange,
    ) -> Result<(), SegShareError> {
        let mut cur = id.clone();
        let mut cur_change = change;
        while let Some(parent) = cur.tree_parent() {
            // A trusted record updated by the enclave stays trusted.
            let Fetched {
                mut rec, trusted, ..
            } = self
                .read_hash_record(&parent)?
                .ok_or_else(|| integrity(&parent, "missing ancestor hash record"))?;
            let key = self.keys.mset_key(parent.store());
            let b = self.bucket_index(&cur);
            if rec.buckets.len() != self.bucket_count() {
                return Err(integrity(&parent, "bucket count mismatch"));
            }
            let old_elem = Self::elem_bucket(b, &rec.buckets[b]);
            let name = cur.canonical();
            let (old, new) = match &cur_change {
                TreeChange::Insert { new } => (None, Some(new)),
                TreeChange::Replace { old, new } => (Some(old), Some(new)),
                TreeChange::Remove { old } => (Some(old), None),
            };
            if let Some(old) = old {
                rec.buckets[b].remove_parts(key, &Self::elem_child(&name, &old.to_bytes()));
            }
            if let Some(new) = new {
                rec.buckets[b].add_parts(key, &Self::elem_child(&name, &new.to_bytes()));
            }
            // The bucket's element changed: hash old and new once, and
            // move `main` and `fold` by the same difference.
            let mut delta = MsetHash::of(key, &Self::elem_bucket(b, &rec.buckets[b]));
            delta.subtract(&MsetHash::of(key, &old_elem));
            let old_main = rec.main;
            rec.main.combine(&delta);
            rec.fold.combine(&delta);
            self.write_hash_record(&parent, &rec, trusted)?;
            cur_change = TreeChange::Replace {
                old: old_main,
                new: rec.main,
            };
            cur = parent;
        }
        // `cur` is now the store's tree root.
        if self.config.rollback_whole_fs {
            self.bump_root_counter(&cur, false)?;
        }
        Ok(())
    }

    /// Issues the store's next monotonic-counter value (§V-E, see
    /// `Anchor::issue`) and records it in the root hash record.
    ///
    /// An update (`reanchor` false) re-issues the root record under the
    /// new value only if the record is the current one: trusted, or
    /// accepted by the anchor. A record from a rolled-back store would
    /// otherwise leave this call blessed by a fresh counter — the root
    /// has no parent whose bucket could give it away.
    /// [`TrustedStore::rebuild_tree`] re-anchors whatever it rebuilt.
    fn bump_root_counter(&self, root: &ObjectId, reanchor: bool) -> Result<(), SegShareError> {
        let anchor = self.root_anchor(root.store());
        let Fetched {
            mut rec, trusted, ..
        } = self
            .read_hash_record(root)?
            .ok_or_else(|| integrity(root, "missing root hash record"))?;
        if !reanchor && !trusted && !anchor.accepts(rec.counter) {
            return Err(integrity(
                root,
                "monotonic counter mismatch (whole file system rollback)",
            ));
        }
        rec.counter = anchor.issue()?;
        self.write_hash_record(root, &rec, trusted)
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
        self.rebuild_node(&ObjectId::DirData(seg_fs::SegPath::root()))?;
        self.rebuild_node(&ObjectId::GroupRoot)?;
        if self.config.rollback_whole_fs {
            // Deferred values settle when the caller's window is durable.
            self.bump_root_counter(&ObjectId::DirData(seg_fs::SegPath::root()), true)?;
            self.bump_root_counter(&ObjectId::GroupRoot, true)?;
        }
        Ok(())
    }

    fn rebuild_node(&self, id: &ObjectId) -> Result<MsetHash, SegShareError> {
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
                let child_main = self.rebuild_node(&child)?;
                let b = self.bucket_index(&child);
                buckets[b].add_parts(
                    key,
                    &Self::elem_child(&child.canonical(), &child_main.to_bytes()),
                );
            }
        }
        let fold = self.bucket_fold(id.store(), &buckets);
        let rec = self.record_of(id, &head, fold, buckets, 0);
        // Computed from restored store contents: the walks that follow
        // re-anchor these records, the rebuild does not vouch for them.
        self.write_hash_record(id, &rec, false)?;
        Ok(rec.main)
    }
}
