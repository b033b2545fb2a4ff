//! Incremental multiset hashes (MSet-XOR-Hash, Clarke et al. ASIACRYPT
//! 2003), used by SeGShare's individual-file rollback protection (§V-D).
//!
//! The rollback-protection Merkle tree variant replaces plain hash
//! concatenation with multiset hashes so that a single child update can be
//! folded into an inner node *incrementally* — subtract the old child's
//! hash, add the new one — without touching any sibling file. XOR is its
//! own inverse, so addition and removal are the same operation; a separate
//! element count distinguishes multiplicities that XOR alone would cancel.
//!
//! The construction is keyed (the enclave keys it with a key derived from
//! the sealed root key `SK_r`), matching the secret-key setting of the
//! MSet-XOR-Hash security proof: an attacker who cannot evaluate
//! `HMAC(K, ·)` cannot craft a colliding multiset.

use crate::hmac::Hmac;
use crate::sha256::Sha256;

/// Serialized size of a [`MsetHash`] in bytes (32-byte accumulator plus
/// 8-byte count).
pub const MSET_HASH_LEN: usize = 40;

/// The key for a multiset hash domain, held as the keyed HMAC state so an
/// element hash does not pay for keying again.
#[derive(Clone)]
pub struct MsetKey(Hmac<Sha256>);

impl std::fmt::Debug for MsetKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MsetKey(..)")
    }
}

impl MsetKey {
    /// Wraps raw 32-byte key material.
    #[must_use]
    pub fn from_bytes(key: [u8; 32]) -> Self {
        MsetKey(Hmac::new(&key))
    }
}

/// An incremental multiset hash value.
///
/// The hash of the empty multiset is [`MsetHash::empty`]; elements are
/// [added](MsetHash::add) and [removed](MsetHash::remove) in O(1), and two
/// hashes [combine](MsetHash::combine) in O(1) independent of order.
///
/// # Examples
///
/// ```
/// use seg_crypto::mset::{MsetKey, MsetHash};
///
/// let key = MsetKey::from_bytes([7u8; 32]);
/// let mut a = MsetHash::empty();
/// a.add(&key, b"x");
/// a.add(&key, b"y");
/// let mut b = MsetHash::empty();
/// b.add(&key, b"y");
/// b.add(&key, b"x");
/// assert_eq!(a, b); // order independence
/// a.remove(&key, b"y");
/// let mut only_x = MsetHash::empty();
/// only_x.add(&key, b"x");
/// assert_eq!(a, only_x); // incremental removal
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsetHash {
    acc: [u8; 32],
    count: u64,
}

impl std::fmt::Debug for MsetHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MsetHash {{ count: {}, acc: {:02x}{:02x}{:02x}{:02x}.. }}",
            self.count, self.acc[0], self.acc[1], self.acc[2], self.acc[3]
        )
    }
}

impl Default for MsetHash {
    fn default() -> Self {
        MsetHash::empty()
    }
}

impl MsetHash {
    /// The hash of the empty multiset.
    #[must_use]
    pub fn empty() -> Self {
        MsetHash {
            acc: [0u8; 32],
            count: 0,
        }
    }

    /// Hash of a single-element multiset.
    #[must_use]
    pub fn of(key: &MsetKey, element: &[u8]) -> Self {
        let mut h = MsetHash::empty();
        h.add(key, element);
        h
    }

    /// XORs in the hash of the element that is the concatenation of
    /// `parts`.
    fn toggle(&mut self, key: &MsetKey, parts: &[&[u8]]) {
        let eh = key.0.mac_parts(parts);
        for (a, e) in self.acc.iter_mut().zip(eh.iter()) {
            *a ^= e;
        }
    }

    /// Adds one element occurrence.
    pub fn add(&mut self, key: &MsetKey, element: &[u8]) {
        self.add_parts(key, &[element]);
    }

    /// Adds one occurrence of the element that is the concatenation of
    /// `parts`, without the caller building it.
    pub fn add_parts(&mut self, key: &MsetKey, parts: &[&[u8]]) {
        self.toggle(key, parts);
        self.count = self.count.wrapping_add(1);
    }

    /// Removes one element occurrence.
    ///
    /// Removing an element that was never added silently corrupts the
    /// accumulator (as with any XOR accumulator); callers maintain that
    /// invariant — in SeGShare the trusted file manager only removes a
    /// child hash it previously stored.
    pub fn remove(&mut self, key: &MsetKey, element: &[u8]) {
        self.remove_parts(key, &[element]);
    }

    /// [`MsetHash::remove`] of the element that is the concatenation of
    /// `parts`.
    pub fn remove_parts(&mut self, key: &MsetKey, parts: &[&[u8]]) {
        self.toggle(key, parts);
        self.count = self.count.wrapping_sub(1);
    }

    /// Replaces one occurrence of `old` with `new` in O(1).
    pub fn replace(&mut self, key: &MsetKey, old: &[u8], new: &[u8]) {
        self.remove(key, old);
        self.add(key, new);
    }

    /// Multiset union: folds `other` into `self`.
    pub fn combine(&mut self, other: &MsetHash) {
        for (a, o) in self.acc.iter_mut().zip(other.acc.iter()) {
            *a ^= o;
        }
        self.count = self.count.wrapping_add(other.count);
    }

    /// Multiset difference: takes `other` out of `self`, the inverse of
    /// [`MsetHash::combine`]. As with [`MsetHash::remove`], `other` must
    /// have been folded in (or be folded in later, as in a delta that is
    /// combined into a hash already holding it).
    pub fn subtract(&mut self, other: &MsetHash) {
        for (a, o) in self.acc.iter_mut().zip(other.acc.iter()) {
            *a ^= o;
        }
        self.count = self.count.wrapping_sub(other.count);
    }

    /// Number of element occurrences folded into this hash.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Serializes to a fixed 40-byte encoding.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; MSET_HASH_LEN] {
        let mut out = [0u8; MSET_HASH_LEN];
        out[..32].copy_from_slice(&self.acc);
        out[32..].copy_from_slice(&self.count.to_le_bytes());
        out
    }

    /// Parses the [`MsetHash::to_bytes`] encoding.
    #[must_use]
    pub fn from_bytes(bytes: &[u8; MSET_HASH_LEN]) -> Self {
        let mut acc = [0u8; 32];
        acc.copy_from_slice(&bytes[..32]);
        let count = u64::from_le_bytes(bytes[32..].try_into().expect("8 bytes"));
        MsetHash { acc, count }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MsetKey {
        MsetKey::from_bytes([9u8; 32])
    }

    #[test]
    fn empty_is_identity_for_combine() {
        let k = key();
        let mut h = MsetHash::of(&k, b"a");
        let before = h;
        h.combine(&MsetHash::empty());
        assert_eq!(h, before);
    }

    #[test]
    fn order_independence() {
        let k = key();
        let elements: [&[u8]; 4] = [b"alpha", b"beta", b"gamma", b"delta"];
        let mut forward = MsetHash::empty();
        for e in elements {
            forward.add(&k, e);
        }
        let mut backward = MsetHash::empty();
        for e in elements.iter().rev() {
            backward.add(&k, e);
        }
        assert_eq!(forward, backward);
    }

    #[test]
    fn multiplicity_matters() {
        let k = key();
        let mut once = MsetHash::of(&k, b"x");
        let mut twice = MsetHash::of(&k, b"x");
        twice.add(&k, b"x");
        assert_ne!(once, twice, "counts must distinguish multiplicities");
        // XOR cancels the accumulator but not the count.
        assert_eq!(twice.to_bytes()[..32], MsetHash::empty().to_bytes()[..32]);
        once.add(&k, b"x");
        assert_eq!(once, twice);
    }

    #[test]
    fn add_then_remove_restores() {
        let k = key();
        let mut h = MsetHash::of(&k, b"base");
        let snapshot = h;
        h.add(&k, b"transient");
        assert_ne!(h, snapshot);
        h.remove(&k, b"transient");
        assert_eq!(h, snapshot);
    }

    #[test]
    fn replace_is_remove_plus_add() {
        let k = key();
        let mut h = MsetHash::of(&k, b"old");
        h.replace(&k, b"old", b"new");
        assert_eq!(h, MsetHash::of(&k, b"new"));
    }

    #[test]
    fn combine_matches_sequential_adds() {
        let k = key();
        let mut left = MsetHash::empty();
        left.add(&k, b"1");
        left.add(&k, b"2");
        let mut right = MsetHash::empty();
        right.add(&k, b"3");
        left.combine(&right);
        let mut all = MsetHash::empty();
        for e in [&b"1"[..], b"2", b"3"] {
            all.add(&k, e);
        }
        assert_eq!(left, all);
        assert_eq!(left.count(), 3);
    }

    #[test]
    fn subtract_undoes_combine_and_carries_a_replacement() {
        let k = key();
        let mut h = MsetHash::of(&k, b"kept");
        let other = MsetHash::of(&k, b"gone");
        h.combine(&other);
        h.subtract(&other);
        assert_eq!(h, MsetHash::of(&k, b"kept"));
        // new - old, combined into a hash holding old, replaces it.
        let mut delta = MsetHash::of(&k, b"new");
        delta.subtract(&MsetHash::of(&k, b"old"));
        let mut replaced = MsetHash::of(&k, b"kept");
        replaced.add(&k, b"old");
        replaced.combine(&delta);
        let mut expected = MsetHash::of(&k, b"kept");
        expected.add(&k, b"new");
        assert_eq!(replaced, expected);
    }

    #[test]
    fn different_keys_different_hashes() {
        let k1 = MsetKey::from_bytes([1u8; 32]);
        let k2 = MsetKey::from_bytes([2u8; 32]);
        assert_ne!(MsetHash::of(&k1, b"e"), MsetHash::of(&k2, b"e"));
    }

    #[test]
    fn kept_state_adds_the_hmac_of_the_element() {
        // The keyed state is an optimisation only: an element still
        // contributes HMAC-SHA-256(key, element), whole or in parts.
        let k = key();
        let element = [0x77u8; 72];
        let mut expected = [0u8; MSET_HASH_LEN];
        expected[..32].copy_from_slice(&crate::hmac::hmac_sha256(&[9u8; 32], &element));
        expected[32] = 1;
        assert_eq!(MsetHash::of(&k, &element).to_bytes(), expected);

        let mut parts = MsetHash::empty();
        parts.add_parts(&k, &[&element[..5], &element[5..]]);
        assert_eq!(parts.to_bytes(), expected);
        parts.remove_parts(&k, &[&element[..70], &element[70..]]);
        assert_eq!(parts, MsetHash::empty());

        // Bytes taken from the commit before the state was kept.
        let mut h = MsetHash::of(&k, b"alpha");
        h.add(&k, &element);
        let hex: String = h.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "4fcb5c8bf28fadd6c701e74c5aba6bc9418c1cb57e5db8dd07063d57bf7287a70200000000000000"
        );
    }

    #[test]
    fn serialization_roundtrip() {
        let k = key();
        let mut h = MsetHash::empty();
        h.add(&k, b"a");
        h.add(&k, b"b");
        assert_eq!(MsetHash::from_bytes(&h.to_bytes()), h);
    }
}
