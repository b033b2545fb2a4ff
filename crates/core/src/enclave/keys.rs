//! The enclave's key hierarchy.
//!
//! Everything descends from the root key `SK_r`, which the trusted file
//! manager "generates and seals on the first enclave start and unseals
//! on subsequent enclave starts" (§IV-B). Per-file keys, the
//! rollback-tree multiset-hash keys, the filename-hiding HMAC key
//! (§V-C), and the deduplication keys (§V-A) are all derived from it
//! with domain separation, so replicas sharing `SK_r` (§V-F) derive
//! identical keys.

use seg_crypto::hkdf;
use seg_crypto::hmac::hmac_sha256;
use seg_crypto::mset::MsetKey;
use seg_crypto::pae::PaeKey;

use super::names::{ObjectId, StoreKind};

/// Hex encoding (lowercase) of arbitrary bytes.
#[must_use]
pub fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(2 * bytes.len());
    for b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0x0f) as usize] as char);
    }
    out
}

/// The derived-key hierarchy rooted at `SK_r`.
#[derive(Clone)]
pub struct KeyHierarchy {
    root: [u8; 32],
    /// Per-store keys, derived once: every tree-hash update and every
    /// hidden storage key needs one, several times per request.
    mset: [MsetKey; 3],
    hide: [[u8; 32]; 3],
}

const STORES: [StoreKind; 3] = [StoreKind::Content, StoreKind::Group, StoreKind::Dedup];

fn store_index(store: StoreKind) -> usize {
    match store {
        StoreKind::Content => 0,
        StoreKind::Group => 1,
        StoreKind::Dedup => 2,
    }
}

impl std::fmt::Debug for KeyHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KeyHierarchy(..)")
    }
}

impl KeyHierarchy {
    /// Builds the hierarchy from the unsealed root key.
    #[must_use]
    pub fn new(root: [u8; 32]) -> KeyHierarchy {
        let derive = |label: &str, store: StoreKind| {
            hkdf::derive_key_256(&root, label, store.label().as_bytes())
        };
        KeyHierarchy {
            root,
            mset: STORES.map(|s| MsetKey::from_bytes(derive("mset", s))),
            hide: STORES.map(|s| derive("hide", s)),
        }
    }

    /// The raw root key (for sealing and replication transfer).
    #[must_use]
    pub fn root(&self) -> &[u8; 32] {
        &self.root
    }

    /// The unique file key `SK_f` for an object (§IV-B: "a unique file
    /// key SK_f per file ... derived from a root key SK_r").
    #[must_use]
    pub fn file_key(&self, id: &ObjectId) -> [u8; 16] {
        hkdf::derive_key_128(&self.root, "file", id.canonical().as_bytes())
    }

    /// The PAE key protecting an object's rollback-tree hash record.
    #[must_use]
    pub fn hash_record_key(&self, id: &ObjectId) -> PaeKey {
        PaeKey::from_bytes(&hkdf::derive_key_128(
            &self.root,
            "hash-record",
            id.canonical().as_bytes(),
        ))
    }

    /// The multiset-hash key for a store's rollback tree (§V-D).
    #[must_use]
    pub fn mset_key(&self, store: StoreKind) -> &MsetKey {
        &self.mset[store_index(store)]
    }

    /// The filename-hiding HMAC key for a store (§V-C: "it calculates
    /// the path's HMAC using SK_r").
    #[must_use]
    pub fn hide_key(&self, store: StoreKind) -> &[u8; 32] {
        &self.hide[store_index(store)]
    }

    /// The untrusted-store key for an object. With hiding enabled, "all
    /// files are stored in a flat directory structure at a pseudorandom
    /// location" (§V-C); otherwise the canonical id is used directly.
    #[must_use]
    pub fn storage_key(&self, id: &ObjectId, hide: bool) -> String {
        let canonical = id.canonical();
        if hide {
            hex(&hmac_sha256(
                self.hide_key(id.store()),
                canonical.as_bytes(),
            ))
        } else {
            canonical
        }
    }

    /// The untrusted-store key for an object's hash record.
    #[must_use]
    pub fn hash_record_storage_key(&self, id: &ObjectId, hide: bool) -> String {
        let canonical = format!("h!{}", id.canonical());
        if hide {
            hex(&hmac_sha256(
                self.hide_key(id.store()),
                canonical.as_bytes(),
            ))
        } else {
            canonical
        }
    }

    /// The PAE key sealing audit-trail records. Derived from `SK_r`
    /// with its own label so replicas sharing the root key can verify
    /// and extend the same chain, and so compromise of a file key
    /// never exposes history.
    #[must_use]
    pub fn audit_key(&self) -> PaeKey {
        PaeKey::from_bytes(&hkdf::derive_key_128(&self.root, "audit", b""))
    }

    /// A stable, keyed, non-invertible 64-bit fingerprint of an
    /// identity or object name, domain-separated by `domain` (e.g.
    /// `"user"` vs `"object"` so a user named like a path never
    /// collides). Fingerprints are what trace events and audit exports
    /// carry instead of raw ids: equal inputs correlate, but the cloud
    /// cannot reverse them without the enclave-resident key.
    #[must_use]
    pub fn fingerprint(&self, domain: &str, data: &[u8]) -> u64 {
        let key = hkdf::derive_key_256(&self.root, "fingerprint", domain.as_bytes());
        let mac = hmac_sha256(&key, data);
        u64::from_le_bytes(mac[..8].try_into().expect("8 bytes"))
    }

    /// The HMAC key for deduplication names (§V-A: "calculate an HMAC
    /// over the file's content using the root key SK_r").
    #[must_use]
    pub fn dedup_name_key(&self) -> [u8; 32] {
        hkdf::derive_key_256(&self.root, "dedup-name", b"")
    }

    /// The file key of a deduplicated blob, derived from its content
    /// HMAC name so every uploader of identical content derives the same
    /// key (server-side convergent encryption keyed by the enclave
    /// secret).
    #[must_use]
    pub fn dedup_blob_key(&self, hname: &str) -> [u8; 16] {
        hkdf::derive_key_128(&self.root, "dedup-blob", hname.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_fs::SegPath;

    fn kh() -> KeyHierarchy {
        KeyHierarchy::new([42u8; 32])
    }

    fn id(path: &str) -> ObjectId {
        ObjectId::FileData(SegPath::parse(path).unwrap())
    }

    #[test]
    fn file_keys_are_per_object() {
        let k = kh();
        assert_ne!(k.file_key(&id("/a")), k.file_key(&id("/b")));
        assert_ne!(
            k.file_key(&ObjectId::Acl(SegPath::parse("/a").unwrap())),
            k.file_key(&id("/a"))
        );
        assert_eq!(k.file_key(&id("/a")), k.file_key(&id("/a")));
    }

    #[test]
    fn replicas_derive_identical_keys() {
        let a = KeyHierarchy::new([7u8; 32]);
        let b = KeyHierarchy::new([7u8; 32]);
        assert_eq!(a.file_key(&id("/x")), b.file_key(&id("/x")));
        assert_eq!(
            a.storage_key(&id("/x"), true),
            b.storage_key(&id("/x"), true)
        );
    }

    #[test]
    fn hidden_keys_are_pseudorandom_and_flat() {
        let k = kh();
        let plain = k.storage_key(&id("/secret-project/plan"), false);
        let hidden = k.storage_key(&id("/secret-project/plan"), true);
        assert!(plain.contains("secret-project"));
        assert!(!hidden.contains("secret"));
        assert!(!hidden.contains('/'));
        assert_eq!(hidden.len(), 64);
        // Data and hash-record keys never collide.
        assert_ne!(
            hidden,
            k.hash_record_storage_key(&id("/secret-project/plan"), true)
        );
    }

    #[test]
    fn per_store_keys_are_the_hkdf_derivations() {
        // Derived once at construction, same bytes as deriving per call:
        // stored keys and tree hashes of existing deployments must not
        // move.
        let k = kh();
        for store in STORES {
            let label = store.label().as_bytes();
            assert_eq!(
                k.hide_key(store),
                &hkdf::derive_key_256(k.root(), "hide", label)
            );
            let direct = MsetKey::from_bytes(hkdf::derive_key_256(k.root(), "mset", label));
            assert_eq!(
                seg_crypto::mset::MsetHash::of(k.mset_key(store), b"e"),
                seg_crypto::mset::MsetHash::of(&direct, b"e")
            );
        }
        assert_ne!(k.hide_key(StoreKind::Content), k.hide_key(StoreKind::Group));
    }

    #[test]
    fn hex_is_lowercase_and_zero_padded() {
        assert_eq!(hex(&[]), "");
        assert_eq!(hex(&[0x00, 0x0f, 0xa0, 0xff]), "000fa0ff");
    }

    #[test]
    fn dedup_keys_depend_on_name() {
        let k = kh();
        assert_ne!(k.dedup_blob_key("aa"), k.dedup_blob_key("bb"));
    }

    #[test]
    fn fingerprints_are_stable_keyed_and_domain_separated() {
        let k = kh();
        assert_eq!(
            k.fingerprint("user", b"alice"),
            k.fingerprint("user", b"alice")
        );
        assert_ne!(
            k.fingerprint("user", b"alice"),
            k.fingerprint("user", b"bob")
        );
        // Same bytes, different domain: no cross-domain correlation.
        assert_ne!(
            k.fingerprint("user", b"alice"),
            k.fingerprint("object", b"alice")
        );
        // Different root key: the cloud can't precompute fingerprints.
        assert_ne!(
            k.fingerprint("user", b"alice"),
            KeyHierarchy::new([1u8; 32]).fingerprint("user", b"alice")
        );
    }
}
