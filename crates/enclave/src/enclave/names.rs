//! Logical object identities and their mapping to storage keys.
//!
//! The trusted file manager addresses everything by a *logical id*
//! (which store, which path, data vs. ACL vs. management file). The
//! mapping from logical id to the key used in the untrusted object store
//! is where the filename-hiding extension lives (§V-C): when enabled,
//! the key is the hex HMAC of the canonical id under a key derived from
//! `SK_r`, so the provider sees only a flat set of pseudorandom names.

use seg_fs::{SegPath, UserId};

/// Which untrusted store an object lives in (§IV-B/§V-A: content store,
/// group store, deduplication store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// Content files, directory files, and their ACLs.
    Content,
    /// Group list and member lists.
    Group,
    /// Deduplicated content blobs.
    Dedup,
}

impl StoreKind {
    /// Stable label used in key derivations.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StoreKind::Content => "content",
            StoreKind::Group => "group",
            StoreKind::Dedup => "dedup",
        }
    }
}

/// A logical object identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ObjectId {
    /// A directory file (`f_D`).
    DirData(SegPath),
    /// A content file (`f_C`) — possibly a dedup indirection.
    FileData(SegPath),
    /// The ACL file of the entry at `path` (dir or content file).
    Acl(SegPath),
    /// The group store's root file (lists all member-list users).
    GroupRoot,
    /// The single group-list file (`G` and `r_GO`).
    GroupList,
    /// One user's member-list file (`r_G`).
    MemberList(UserId),
    /// A deduplicated content blob, named by its content HMAC hex.
    DedupBlob(String),
    /// The dedup store's reference-count index: blob name → count of
    /// files whose indirection points at it. Enables garbage collection
    /// of unreferenced blobs without scanning the content store.
    DedupIndex,
}

impl ObjectId {
    /// The store this object belongs to.
    #[must_use]
    pub fn store(&self) -> StoreKind {
        match self {
            ObjectId::DirData(_) | ObjectId::FileData(_) | ObjectId::Acl(_) => StoreKind::Content,
            ObjectId::GroupRoot | ObjectId::GroupList | ObjectId::MemberList(_) => StoreKind::Group,
            ObjectId::DedupBlob(_) | ObjectId::DedupIndex => StoreKind::Dedup,
        }
    }

    /// Canonical string: the basis for storage keys, per-file key
    /// derivation, AEAD associated data, and tree hashing.
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            ObjectId::DirData(p) => format!("D:{}", p.as_str()),
            ObjectId::FileData(p) => format!("F:{}", p.as_str()),
            ObjectId::Acl(p) => format!("A:{}", p.as_str()),
            ObjectId::GroupRoot => "R:".to_string(),
            ObjectId::GroupList => "G:".to_string(),
            ObjectId::MemberList(u) => format!("M:{u}"),
            ObjectId::DedupBlob(name) => format!("B:{name}"),
            ObjectId::DedupIndex => "X:".to_string(),
        }
    }

    /// The parent node in the rollback-protection tree (§V-D), or `None`
    /// for a tree root.
    ///
    /// Content store: the directory files form the tree; a file's ACL is
    /// a sibling leaf of the file ("Each content file, ACL, and empty
    /// directory file is represented by a leaf node"); the root
    /// directory's own ACL hangs off the root. Group store: everything
    /// hangs off [`ObjectId::GroupRoot`]. Dedup blobs are
    /// content-addressed and self-authenticating, so they are outside
    /// the tree.
    #[must_use]
    pub fn tree_parent(&self) -> Option<ObjectId> {
        match self {
            ObjectId::DirData(p) => p.parent().map(ObjectId::DirData),
            ObjectId::FileData(p) => Some(ObjectId::DirData(
                p.parent().expect("files are never the root"),
            )),
            ObjectId::Acl(p) => match p.parent() {
                Some(parent) => Some(ObjectId::DirData(parent)),
                // The root directory's ACL is a child of the root itself.
                None => Some(ObjectId::DirData(SegPath::root())),
            },
            ObjectId::GroupRoot => None,
            ObjectId::GroupList | ObjectId::MemberList(_) => Some(ObjectId::GroupRoot),
            ObjectId::DedupBlob(_) | ObjectId::DedupIndex => None,
        }
    }

    /// How many [`ObjectId::tree_parent`] steps lead from this node to
    /// its tree root, counted without building the ancestors.
    #[must_use]
    pub fn tree_depth(&self) -> usize {
        // A directory path ends in `/`, so its slashes are its depth + 1.
        let slashes = |p: &SegPath| p.as_str().bytes().filter(|&b| b == b'/').count();
        match self {
            ObjectId::DirData(p) => slashes(p) - 1,
            ObjectId::FileData(p) => slashes(p),
            // An entry's ACL sits beside it; the root's hangs off the root.
            ObjectId::Acl(p) if p.is_dir() => (slashes(p) - 1).max(1),
            ObjectId::Acl(p) => slashes(p),
            ObjectId::GroupList | ObjectId::MemberList(_) => 1,
            ObjectId::GroupRoot | ObjectId::DedupBlob(_) | ObjectId::DedupIndex => 0,
        }
    }

    /// Whether this node carries children (and therefore bucket hashes).
    #[must_use]
    pub fn is_tree_inner(&self) -> bool {
        matches!(self, ObjectId::DirData(_) | ObjectId::GroupRoot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> SegPath {
        SegPath::parse(s).unwrap()
    }

    #[test]
    fn canonical_ids_are_distinct() {
        let ids = [
            ObjectId::DirData(p("/a/")),
            ObjectId::FileData(p("/a")),
            ObjectId::Acl(p("/a")),
            ObjectId::Acl(p("/a/")),
            ObjectId::GroupRoot,
            ObjectId::GroupList,
            ObjectId::MemberList(UserId::new("a").unwrap()),
            ObjectId::DedupBlob("abcd".to_string()),
            ObjectId::DedupIndex,
        ];
        for (i, a) in ids.iter().enumerate() {
            for (j, b) in ids.iter().enumerate() {
                assert_eq!(i == j, a.canonical() == b.canonical(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn tree_parentage() {
        assert_eq!(
            ObjectId::FileData(p("/a/b")).tree_parent(),
            Some(ObjectId::DirData(p("/a/")))
        );
        assert_eq!(
            ObjectId::Acl(p("/a/b")).tree_parent(),
            Some(ObjectId::DirData(p("/a/")))
        );
        assert_eq!(
            ObjectId::DirData(p("/a/")).tree_parent(),
            Some(ObjectId::DirData(p("/")))
        );
        assert_eq!(ObjectId::DirData(p("/")).tree_parent(), None);
        // Root's ACL hangs off the root.
        assert_eq!(
            ObjectId::Acl(p("/")).tree_parent(),
            Some(ObjectId::DirData(p("/")))
        );
        assert_eq!(ObjectId::GroupList.tree_parent(), Some(ObjectId::GroupRoot));
        assert_eq!(ObjectId::GroupRoot.tree_parent(), None);
        assert_eq!(ObjectId::DedupBlob("x".to_string()).tree_parent(), None);
        assert_eq!(ObjectId::DedupIndex.tree_parent(), None);
    }

    #[test]
    fn tree_depth_counts_the_steps_to_the_root() {
        let ids = [
            ObjectId::DirData(p("/")),
            ObjectId::DirData(p("/a/")),
            ObjectId::DirData(p("/a/b/c/")),
            ObjectId::FileData(p("/f")),
            ObjectId::FileData(p("/a/b/f")),
            ObjectId::Acl(p("/")),
            ObjectId::Acl(p("/a/")),
            ObjectId::Acl(p("/a/b/")),
            ObjectId::Acl(p("/f")),
            ObjectId::Acl(p("/a/b/f")),
            ObjectId::GroupRoot,
            ObjectId::GroupList,
            ObjectId::MemberList(UserId::new("u").unwrap()),
            ObjectId::DedupBlob("x".to_string()),
            ObjectId::DedupIndex,
        ];
        for id in ids {
            let mut steps = 0;
            let mut cur = id.clone();
            while let Some(parent) = cur.tree_parent() {
                steps += 1;
                cur = parent;
            }
            assert_eq!(id.tree_depth(), steps, "{id:?}");
        }
    }

    #[test]
    fn store_assignment() {
        assert_eq!(ObjectId::DirData(p("/")).store(), StoreKind::Content);
        assert_eq!(ObjectId::GroupList.store(), StoreKind::Group);
        assert_eq!(
            ObjectId::DedupBlob("x".to_string()).store(),
            StoreKind::Dedup
        );
        assert_eq!(ObjectId::DedupIndex.store(), StoreKind::Dedup);
    }

    #[test]
    fn inner_vs_leaf() {
        assert!(ObjectId::DirData(p("/a/")).is_tree_inner());
        assert!(ObjectId::GroupRoot.is_tree_inner());
        assert!(!ObjectId::FileData(p("/a")).is_tree_inner());
        assert!(!ObjectId::Acl(p("/a")).is_tree_inner());
        assert!(!ObjectId::MemberList(UserId::new("u").unwrap()).is_tree_inner());
    }
}
