//! The enclave's key hierarchy.
//!
//! Everything descends from the root key `SK_r`, which the trusted file
//! manager "generates and seals on the first enclave start and unseals
//! on subsequent enclave starts" (§IV-B). Per-file keys, the
//! rollback-tree multiset-hash keys, the filename-hiding HMAC key
//! (§V-C), and the deduplication keys (§V-A) are all derived from it
//! with domain separation, so replicas sharing `SK_r` (§V-F) derive
//! identical keys.

use seg_crypto::hkdf::RootPrk;
use seg_crypto::hmac::Hmac;
use seg_crypto::mset::MsetKey;
use seg_crypto::pae::PaeKey;
use seg_crypto::sha256::Sha256;

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
///
/// Everything a request needs several times is derived once and kept as
/// a keyed HMAC state — the extracted root, and the per-store and
/// per-domain MAC keys — so each derived key, storage name and
/// fingerprint costs one short HMAC. Those states are as secret as the
/// keys they stand for.
#[derive(Clone)]
pub struct KeyHierarchy {
    root: [u8; 32],
    prk: RootPrk,
    mset: [MsetKey; 3],
    hide: [Hmac<Sha256>; 3],
    fingerprint: [Hmac<Sha256>; 3],
}

const STORES: [StoreKind; 3] = [StoreKind::Content, StoreKind::Group, StoreKind::Dedup];

/// The fingerprint domains with a kept MAC state; any other domain
/// derives its key per call.
const FINGERPRINT_DOMAINS: [&str; 3] = ["user", "object", "orphan"];

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
        let prk = RootPrk::new(&root);
        let per_store = |label: &str, s: StoreKind| prk.derive_key_256(label, s.label().as_bytes());
        KeyHierarchy {
            root,
            mset: STORES.map(|s| MsetKey::from_bytes(per_store("mset", s))),
            hide: STORES.map(|s| Hmac::new(&per_store("hide", s))),
            fingerprint: FINGERPRINT_DOMAINS
                .map(|d| Hmac::new(&prk.derive_key_256("fingerprint", d.as_bytes()))),
            prk,
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
        self.prk.derive_key_128("file", id.canonical().as_bytes())
    }

    /// The PAE key protecting an object's rollback-tree hash record.
    #[must_use]
    pub fn hash_record_key(&self, id: &ObjectId) -> PaeKey {
        PaeKey::from_bytes(
            &self
                .prk
                .derive_key_128("hash-record", id.canonical().as_bytes()),
        )
    }

    /// The multiset-hash key for a store's rollback tree (§V-D).
    #[must_use]
    pub fn mset_key(&self, store: StoreKind) -> &MsetKey {
        &self.mset[store_index(store)]
    }

    /// The hidden name of `parts` concatenated (§V-C: "it calculates
    /// the path's HMAC using SK_r"), under the store's filename-hiding
    /// key.
    fn hidden_name(&self, store: StoreKind, parts: &[&[u8]]) -> String {
        hex(&self.hide[store_index(store)].mac_parts(parts))
    }

    /// The untrusted-store key for an object. With hiding enabled, "all
    /// files are stored in a flat directory structure at a pseudorandom
    /// location" (§V-C); otherwise the canonical id is used directly.
    #[must_use]
    pub fn storage_key(&self, id: &ObjectId, hide: bool) -> String {
        let canonical = id.canonical();
        if hide {
            self.hidden_name(id.store(), &[canonical.as_bytes()])
        } else {
            canonical
        }
    }

    /// The untrusted-store key for an object's hash record.
    #[must_use]
    pub fn hash_record_storage_key(&self, id: &ObjectId, hide: bool) -> String {
        let canonical = id.canonical();
        if hide {
            self.hidden_name(id.store(), &[b"h!", canonical.as_bytes()])
        } else {
            format!("h!{canonical}")
        }
    }

    /// The PAE key sealing audit-trail records. Derived from `SK_r`
    /// with its own label so replicas sharing the root key can verify
    /// and extend the same chain, and so compromise of a file key
    /// never exposes history.
    #[must_use]
    pub fn audit_key(&self) -> PaeKey {
        PaeKey::from_bytes(&self.prk.derive_key_128("audit", b""))
    }

    /// A stable, keyed, non-invertible 64-bit fingerprint of an
    /// identity or object name, domain-separated by `domain` (e.g.
    /// `"user"` vs `"object"` so a user named like a path never
    /// collides). Fingerprints are what trace events and audit exports
    /// carry instead of raw ids: equal inputs correlate, but the cloud
    /// cannot reverse them without the enclave-resident key.
    #[must_use]
    pub fn fingerprint(&self, domain: &str, data: &[u8]) -> u64 {
        let mac = match FINGERPRINT_DOMAINS.iter().position(|d| *d == domain) {
            Some(i) => self.fingerprint[i].mac_parts(&[data]),
            None => Hmac::new(&self.prk.derive_key_256("fingerprint", domain.as_bytes()))
                .mac_parts(&[data]),
        };
        u64::from_le_bytes(mac[..8].try_into().expect("8 bytes"))
    }

    /// The HMAC key for deduplication names (§V-A: "calculate an HMAC
    /// over the file's content using the root key SK_r").
    #[must_use]
    pub fn dedup_name_key(&self) -> [u8; 32] {
        self.prk.derive_key_256("dedup-name", b"")
    }

    /// The file key of a deduplicated blob, derived from its content
    /// HMAC name so every uploader of identical content derives the same
    /// key (server-side convergent encryption keyed by the enclave
    /// secret).
    #[must_use]
    pub fn dedup_blob_key(&self, hname: &str) -> [u8; 16] {
        self.prk.derive_key_128("dedup-blob", hname.as_bytes())
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
        // Everything is derived once at construction and kept as keyed
        // MAC states; the bytes must be those of deriving per call with
        // `hkdf::derive_key_*` and `hmac_sha256`, as before the states
        // were kept: keys, names and tree hashes of existing deployments
        // must not move.
        use seg_crypto::hkdf::{derive_key_128, derive_key_256};
        use seg_crypto::hmac::hmac_sha256;
        use seg_crypto::mset::MsetHash;
        use seg_crypto::rng::DeterministicRng;

        let k = kh();
        let root = *k.root();
        let ids = [
            id("/a"),
            id("/secret-project/plan"),
            ObjectId::DirData(SegPath::root()),
            ObjectId::Acl(SegPath::parse("/a").unwrap()),
            ObjectId::GroupRoot,
            ObjectId::GroupList,
            ObjectId::MemberList(seg_fs::UserId::new("alice").unwrap()),
            ObjectId::DedupBlob("00ff".to_string()),
            ObjectId::DedupIndex,
        ];
        // PAE keys are opaque: equal iff one opens what the other sealed.
        let same_pae_key = |a: &PaeKey, b: [u8; 16]| {
            let sealed =
                seg_crypto::pae::pae_enc(a, b"m", b"aad", &mut DeterministicRng::seeded(1));
            seg_crypto::pae::pae_dec(&PaeKey::from_bytes(&b), &sealed, b"aad").is_ok()
        };
        for id in &ids {
            let canonical = id.canonical();
            let label = id.store().label().as_bytes();
            assert_eq!(
                k.file_key(id),
                derive_key_128(&root, "file", canonical.as_bytes())
            );
            assert!(same_pae_key(
                &k.hash_record_key(id),
                derive_key_128(&root, "hash-record", canonical.as_bytes())
            ));
            let hide = derive_key_256(&root, "hide", label);
            assert_eq!(
                k.storage_key(id, true),
                hex(&hmac_sha256(&hide, canonical.as_bytes()))
            );
            assert_eq!(
                k.hash_record_storage_key(id, true),
                hex(&hmac_sha256(&hide, format!("h!{canonical}").as_bytes()))
            );
            assert_eq!(k.storage_key(id, false), canonical);
            assert_eq!(
                k.hash_record_storage_key(id, false),
                format!("h!{canonical}")
            );
            let direct = MsetKey::from_bytes(derive_key_256(&root, "mset", label));
            assert_eq!(
                MsetHash::of(k.mset_key(id.store()), canonical.as_bytes()),
                MsetHash::of(&direct, canonical.as_bytes())
            );
            for domain in ["user", "object", "orphan", "unlisted"] {
                let key = derive_key_256(&root, "fingerprint", domain.as_bytes());
                let mac = hmac_sha256(&key, canonical.as_bytes());
                assert_eq!(
                    k.fingerprint(domain, canonical.as_bytes()),
                    u64::from_le_bytes(mac[..8].try_into().unwrap()),
                    "{domain}"
                );
            }
        }
        assert_eq!(
            k.dedup_blob_key("00ff"),
            derive_key_128(&root, "dedup-blob", b"00ff")
        );
        assert_eq!(k.dedup_name_key(), derive_key_256(&root, "dedup-name", b""));
        assert!(same_pae_key(
            &k.audit_key(),
            derive_key_128(&root, "audit", b"")
        ));
        assert_ne!(
            k.storage_key(&ObjectId::GroupRoot, true),
            k.storage_key(&ObjectId::DedupIndex, true)
        );
    }

    #[test]
    fn derived_bytes_are_pinned() {
        // Taken from the commit before the MAC states were kept.
        let k = kh();
        assert_eq!(
            hex(&k.file_key(&id("/a"))),
            "5dd5d89128bb3201b60f51747bb65ec5"
        );
        assert_eq!(
            k.storage_key(&id("/a"), true),
            "2cab01247d0c91b0dc0ac4df7f839ee5befa182191663a78eb3712f4eaa8d210"
        );
        assert_eq!(
            k.hash_record_storage_key(&id("/a"), true),
            "90eba2b77c36590238caf87ac7c90d10fe7e8a2934ea1ad9ebba0e5830f3109b"
        );
        assert_eq!(k.fingerprint("user", b"alice"), 0xa5d1_6bab_61f3_64d3);
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
