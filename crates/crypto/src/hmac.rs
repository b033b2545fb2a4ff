//! HMAC (FIPS 198-1 / RFC 2104), generic over the crate's hash functions.
//!
//! SeGShare uses HMAC-SHA-256 keyed with the root key `SK_r` for two
//! purposes: deduplication names (§V-A) and pseudorandom storage paths when
//! hiding the directory structure (§V-C). The TLS substrate uses it inside
//! HKDF.

use crate::digest::Digest;
use crate::sha256::Sha256;

/// The largest block and digest this module sizes its stack buffers for
/// (SHA-512's).
const MAX_BLOCK_LEN: usize = 128;
const MAX_OUTPUT_LEN: usize = 64;

/// Streaming HMAC state over digest `D`.
///
/// Keying costs two compressions (the inner and outer pads); a caller
/// that MACs many messages under one key keeps the keyed state and
/// clones it per message instead of calling [`Hmac::new`] again. The
/// keyed state can forge MACs under the key, so it is as secret as the
/// key: `Debug` prints neither.
///
/// # Examples
///
/// ```
/// use seg_crypto::hmac::Hmac;
/// use seg_crypto::sha256::Sha256;
///
/// let tag = Hmac::<Sha256>::mac(b"key", b"message");
/// assert_eq!(tag.len(), 32);
///
/// let keyed = Hmac::<Sha256>::new(b"key");
/// let mut h = keyed.clone();
/// h.update(b"message");
/// assert_eq!(h.finalize(), tag);
/// ```
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    outer: D,
}

impl<D: Digest> std::fmt::Debug for Hmac<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Hmac(..)")
    }
}

impl<D: Digest> Hmac<D> {
    /// Creates an HMAC state keyed with `key` (any length).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        assert!(D::BLOCK_LEN <= MAX_BLOCK_LEN && D::OUTPUT_LEN <= MAX_OUTPUT_LEN);
        let mut pad = [0u8; MAX_BLOCK_LEN];
        let pad = &mut pad[..D::BLOCK_LEN];
        if key.len() > D::BLOCK_LEN {
            let mut d = D::new();
            d.update(key);
            d.finalize_into(&mut pad[..D::OUTPUT_LEN]);
        } else {
            pad[..key.len()].copy_from_slice(key);
        }

        pad.iter_mut().for_each(|b| *b ^= 0x36);
        let mut inner = D::new();
        inner.update(pad);

        pad.iter_mut().for_each(|b| *b ^= 0x36 ^ 0x5c);
        let mut outer = D::new();
        outer.update(pad);

        Hmac { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and writes the MAC into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != D::OUTPUT_LEN`.
    pub fn finalize_into(mut self, out: &mut [u8]) {
        let mut inner_digest = [0u8; MAX_OUTPUT_LEN];
        let inner_digest = &mut inner_digest[..D::OUTPUT_LEN];
        self.inner.finalize_into(inner_digest);
        self.outer.update(inner_digest);
        self.outer.finalize_into(out);
    }

    /// Finishes and returns the MAC.
    #[must_use]
    pub fn finalize(self) -> Vec<u8> {
        let mut out = vec![0u8; D::OUTPUT_LEN];
        self.finalize_into(&mut out);
        out
    }

    /// One-shot convenience.
    #[must_use]
    pub fn mac(key: &[u8], data: &[u8]) -> Vec<u8> {
        let mut h = Hmac::<D>::new(key);
        h.update(data);
        h.finalize()
    }

    /// Verifies `tag` against the MAC of `data` in constant time.
    #[must_use]
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        crate::ct::ct_eq(&Hmac::<D>::mac(key, data), tag)
    }
}

impl Hmac<Sha256> {
    /// The MAC of the concatenation of `parts` under this keyed state,
    /// which stays usable: the clone-per-message use the type docs name.
    #[must_use]
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut h = self.clone();
        for part in parts {
            h.update(part);
        }
        let mut out = [0u8; 32];
        h.finalize_into(&mut out);
        out
    }
}

/// One-shot HMAC-SHA-256 returning a fixed-size array, the common case in
/// SeGShare (dedup names, hidden paths).
#[must_use]
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    Hmac::<Sha256>::new(key).mac_parts(&[data])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{blocks_compressed, PortableSha256};
    use crate::sha512::Sha512;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// HMAC-SHA-256 over the kernel this CPU selects and over the
    /// portable one: every known answer must hold on both.
    fn both_kernels(key: &[u8], data: &[u8]) -> String {
        let mac = Hmac::<Sha256>::mac(key, data);
        assert_eq!(Hmac::<PortableSha256>::mac(key, data), mac);
        hex(&mac)
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1_sha256() {
        assert_eq!(
            both_kernels(&[0x0bu8; 20], b"Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case1_sha512() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            hex(&Hmac::<Sha512>::mac(&key, data)),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
                .replace(char::is_whitespace, "")
        );
    }

    // RFC 4231 test case 2: key "Jefe", data "what do ya want for nothing?".
    #[test]
    fn rfc4231_case2_sha256() {
        assert_eq!(
            both_kernels(b"Jefe", b"what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
    #[test]
    fn rfc4231_case3_sha256() {
        assert_eq!(
            both_kernels(&[0xaau8; 20], &[0xddu8; 50]),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case6_long_key_sha256() {
        assert_eq!(
            both_kernels(
                &[0xaau8; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            ),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let key = b"a moderately long key for streaming";
        let data: Vec<u8> = (0..500u32).map(|i| (i * 7 % 256) as u8).collect();
        let one_shot = Hmac::<Sha256>::mac(key, &data);
        let mut h = Hmac::<Sha256>::new(key);
        for chunk in data.chunks(11) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), one_shot);
    }

    #[test]
    fn kept_state_macs_like_a_fresh_one() {
        let keyed = Hmac::<Sha256>::new(b"kept");
        for msg in [&b""[..], b"a", &[7u8; 200]] {
            assert_eq!(keyed.mac_parts(&[msg]), hmac_sha256(b"kept", msg));
        }
        // Parts are concatenated, wherever they are cut.
        assert_eq!(
            keyed.mac_parts(&[b"he", b"", b"llo"]),
            hmac_sha256(b"kept", b"hello")
        );
        let mut out = [0u8; 32];
        let mut h = keyed.clone();
        h.update(b"hello");
        h.finalize_into(&mut out);
        assert_eq!(out, hmac_sha256(b"kept", b"hello"));
    }

    // The exact price of each way of MACing, in compressions: keying is
    // two, a message that fits one padded block two more. A hot path that
    // goes back to `Hmac::new(key)` per message shows up here as 4, not
    // in a benchmark.
    #[test]
    fn compressions_per_mac_are_exact() {
        let count = |f: &dyn Fn() -> [u8; 32]| {
            let before = blocks_compressed();
            f();
            blocks_compressed() - before
        };
        let keyed = Hmac::<Sha256>::new(&[3u8; 32]);
        assert_eq!(count(&|| keyed.mac_parts(&[&[0u8; 55]])), 2);
        assert_eq!(count(&|| keyed.mac_parts(&[&[0u8; 56]])), 3);
        assert_eq!(count(&|| hmac_sha256(&[3u8; 32], &[0u8; 55])), 4);
        // A rollback-tree `head:` element: the tag and a 4 KiB header.
        assert_eq!(count(&|| keyed.mac_parts(&[b"head:", &[0u8; 4096]])), 66);
    }

    #[test]
    fn debug_shows_no_key_material() {
        // Midstates and block buffers forge MACs as well as the key
        // does, and these states are long-lived inside the enclave.
        let mut h = Hmac::<Sha256>::new(&[0xabu8; 32]);
        h.update(&[0xcdu8; 7]);
        assert_eq!(format!("{h:?}"), "Hmac(..)");
        assert_eq!(format!("{:?}", Hmac::<Sha512>::new(b"k")), "Hmac(..)");
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = Hmac::<Sha256>::mac(b"k", b"m");
        assert!(Hmac::<Sha256>::verify(b"k", b"m", &tag));
        assert!(!Hmac::<Sha256>::verify(b"k", b"m2", &tag));
        assert!(!Hmac::<Sha256>::verify(b"k2", b"m", &tag));
        let mut bad = tag.clone();
        bad[0] ^= 1;
        assert!(!Hmac::<Sha256>::verify(b"k", b"m", &bad));
        assert!(!Hmac::<Sha256>::verify(b"k", b"m", &tag[..31]));
    }

    #[test]
    fn distinct_keys_give_distinct_tags() {
        let t1 = hmac_sha256(b"key1", b"data");
        let t2 = hmac_sha256(b"key2", b"data");
        assert_ne!(t1, t2);
    }
}
