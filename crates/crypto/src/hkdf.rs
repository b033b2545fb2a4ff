//! HKDF (RFC 5869) extract-and-expand key derivation.
//!
//! The SeGShare enclave derives one key per file from the sealed root key
//! `SK_r` (§IV-B "File Managers"); the TLS substrate derives record keys
//! from the ECDHE shared secret. Both use HKDF-SHA-256.

use crate::digest::Digest;
use crate::hmac::{hmac_sha256, Hmac};
use crate::sha256::Sha256;

/// HKDF-Extract: concentrates input keying material into a pseudorandom key.
#[must_use]
pub fn extract<D: Digest>(salt: &[u8], ikm: &[u8]) -> Vec<u8> {
    Hmac::<D>::mac(salt, ikm)
}

/// HKDF-Expand: expands `prk` into `len` bytes of output keying material
/// bound to `info`.
///
/// # Panics
///
/// Panics if `len > 255 * D::OUTPUT_LEN` (the RFC 5869 limit).
#[must_use]
pub fn expand<D: Digest>(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    assert!(
        len <= 255 * D::OUTPUT_LEN,
        "hkdf output length exceeds RFC 5869 limit"
    );
    let keyed = Hmac::<D>::new(prk);
    let mut okm = Vec::with_capacity(len);
    let mut previous: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while okm.len() < len {
        let mut h = keyed.clone();
        h.update(&previous);
        h.update(info);
        h.update(&[counter]);
        previous = h.finalize();
        let take = (len - okm.len()).min(previous.len());
        okm.extend_from_slice(&previous[..take]);
        counter = counter
            .checked_add(1)
            .expect("counter bounded by len check");
    }
    okm
}

/// One-shot extract-then-expand.
#[must_use]
pub fn hkdf<D: Digest>(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = extract::<D>(salt, ikm);
    expand::<D>(&prk, info, len)
}

/// A 32-byte root key HKDF-extracted once under the `segshare-v1` salt,
/// kept as the keyed HMAC state that HKDF-Expand runs under: each key
/// derived from it costs one short HMAC. As secret as the root key.
///
/// The enclave's key hierarchy keeps one for `SK_r`; [`derive_key_128`]
/// and [`derive_key_256`] are the same derivation for a root used once.
#[derive(Clone, Debug)]
pub struct RootPrk(Hmac<Sha256>);

impl RootPrk {
    /// Extracts `root`.
    #[must_use]
    pub fn new(root: &[u8; 32]) -> RootPrk {
        RootPrk(Hmac::new(&hmac_sha256(b"segshare-v1", root)))
    }

    /// Derives a 16-byte AES-128 key bound to a context label — the
    /// per-file key derivation used by the trusted file manager.
    #[must_use]
    pub fn derive_key_128(&self, label: &str, context: &[u8]) -> [u8; 16] {
        let okm = self.derive_key_256(label, context);
        okm[..16].try_into().expect("16 of 32 bytes")
    }

    /// Derives a 32-byte key, same construction as
    /// [`RootPrk::derive_key_128`].
    #[must_use]
    pub fn derive_key_256(&self, label: &str, context: &[u8]) -> [u8; 32] {
        // HKDF-Expand's first (here: only) block, T(1) = HMAC(PRK, info | 0x01)
        // with info = label | 0x00 | context; a shorter output is a prefix.
        self.0.mac_parts(&[label.as_bytes(), &[0], context, &[1]])
    }
}

/// Derives a 16-byte AES-128 key from a 32-byte root key and a context
/// label.
#[must_use]
pub fn derive_key_128(root: &[u8; 32], label: &str, context: &[u8]) -> [u8; 16] {
    RootPrk::new(root).derive_key_128(label, context)
}

/// Derives a 32-byte key, same construction as [`derive_key_128`].
#[must_use]
pub fn derive_key_256(root: &[u8; 32], label: &str, context: &[u8]) -> [u8; 32] {
    RootPrk::new(root).derive_key_256(label, context)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{blocks_compressed, PortableSha256};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0bu8; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = extract::<Sha256>(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = expand::<Sha256>(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
        // The same on the portable kernel.
        assert_eq!(extract::<PortableSha256>(&salt, &ikm), prk);
        assert_eq!(expand::<PortableSha256>(&prk, &info, 42), okm);
    }

    // RFC 5869 test case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case3() {
        let ikm = [0x0bu8; 22];
        let okm = hkdf::<Sha256>(&[], &ikm, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
        assert_eq!(hkdf::<PortableSha256>(&[], &ikm, &[], 42), okm);
    }

    /// `derive_key_*` as written before `RootPrk`: the generic
    /// extract-then-expand over a concatenated `info`.
    fn derive_generic(root: &[u8; 32], label: &str, context: &[u8], len: usize) -> Vec<u8> {
        let info = [label.as_bytes(), &[0], context].concat();
        hkdf::<Sha256>(b"segshare-v1", root, &info, len)
    }

    #[test]
    fn root_prk_is_hkdf_under_the_segshare_salt() {
        let root = [0x5au8; 32];
        let prk = RootPrk::new(&root);
        for (label, context) in [("file", &b"F:/a/b"[..]), ("audit", b""), ("x", &[9u8; 300])] {
            let k16 = derive_generic(&root, label, context, 16);
            let k32 = derive_generic(&root, label, context, 32);
            assert_eq!(prk.derive_key_128(label, context)[..], k16[..]);
            assert_eq!(prk.derive_key_256(label, context)[..], k32[..]);
            assert_eq!(derive_key_128(&root, label, context)[..], k16[..]);
            assert_eq!(derive_key_256(&root, label, context)[..], k32[..]);
        }
        // Bytes taken from the commit before `RootPrk`: sealed stores
        // hold keys derived this way.
        assert_eq!(
            hex(&derive_key_128(&[7u8; 32], "file", b"/a")),
            "7c1c5b876048cc7c939fa0b325c6f6a9"
        );
        assert_eq!(
            hex(&derive_key_256(&[7u8; 32], "mset", b"content")),
            "10bb6ec8675696e8c42e38d651edd88b4a032cf111e5d8df99abba9082aa40b7"
        );
    }

    // A key under a kept `RootPrk` is one short HMAC; extracting and
    // keying per call, as `derive_key_128` must, is six more.
    #[test]
    fn compressions_per_derived_key_are_exact() {
        let root = [1u8; 32];
        let prk = RootPrk::new(&root);
        let before = blocks_compressed();
        let _ = prk.derive_key_128("hash-record", &[b'p'; 40]);
        assert_eq!(blocks_compressed() - before, 2);
        let before = blocks_compressed();
        let _ = derive_key_128(&root, "hash-record", &[b'p'; 40]);
        assert_eq!(blocks_compressed() - before, 8);
    }

    #[test]
    fn expand_lengths() {
        let prk = extract::<Sha256>(b"salt", b"ikm");
        for len in [0usize, 1, 31, 32, 33, 64, 100] {
            assert_eq!(expand::<Sha256>(&prk, b"info", len).len(), len);
        }
        // Prefix property: shorter outputs are prefixes of longer ones.
        let long = expand::<Sha256>(&prk, b"info", 100);
        let short = expand::<Sha256>(&prk, b"info", 33);
        assert_eq!(&long[..33], &short[..]);
    }

    #[test]
    #[should_panic(expected = "hkdf output length exceeds")]
    fn expand_rejects_oversized_output() {
        let prk = extract::<Sha256>(b"salt", b"ikm");
        let _ = expand::<Sha256>(&prk, b"info", 255 * 32 + 1);
    }

    #[test]
    fn derived_keys_are_domain_separated() {
        let root = [7u8; 32];
        let k1 = derive_key_128(&root, "file", b"/a");
        let k2 = derive_key_128(&root, "file", b"/b");
        let k3 = derive_key_128(&root, "acl", b"/a");
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        // label/context boundary must matter: "ab"+"c" != "a"+"bc"
        let k4 = derive_key_128(&root, "ab", b"c");
        let k5 = derive_key_128(&root, "a", b"bc");
        assert_ne!(k4, k5);
        // Deterministic.
        assert_eq!(k1, derive_key_128(&root, "file", b"/a"));
    }
}
