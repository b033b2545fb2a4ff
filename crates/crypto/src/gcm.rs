//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! Three implementations sit behind [`Gcm`], producing identical bytes:
//!
//! * on x86-64 CPUs with VAES, VPCLMULQDQ, AVX-512F and AVX-512BW (on top
//!   of the AES-NI set), the kernel in the private `vaes` module: four
//!   blocks per instruction in 512-bit registers;
//! * on x86-64 CPUs with AES-NI and PCLMULQDQ, the kernel in the private
//!   `aesni` module: one block per instruction, eight in flight;
//! * everywhere else, the portable code: T-table AES and a GHASH over per-key
//!   byte tables. Multiplication by the hash subkey `H` is GF(2)-linear,
//!   so the product decomposes into 16 table lookups (one per byte
//!   position), each table built once per key. It is also the reference
//!   both hardware kernels are tested against.
//!
//! [`Gcm::new`] picks by CPUID, once per key, in that order. The two
//! hardware paths share one key schedule, which takes its S-box from the
//! AES instructions rather than a table and allocates nothing.

#[cfg(target_arch = "x86_64")]
mod aesni;
#[cfg(target_arch = "x86_64")]
mod vaes;

use crate::aes::{Aes, BLOCK_LEN};
use crate::ct::ct_eq;
use crate::CryptoError;

/// Authentication tag length in bytes.
pub const TAG_LEN: usize = 16;
/// The only IV length this implementation accepts (the GCM fast path).
pub const IV_LEN: usize = 12;

/// Bit-serial multiplication in GF(2^128) with the GCM reduction
/// polynomial. Blocks are interpreted big-endian, bit 0 = MSB (the GCM
/// "reflected" convention folded into the u128 representation).
///
/// The hot path uses the per-key tables below; this reference
/// implementation remains as the test oracle for them.
#[cfg_attr(not(test), allow(dead_code))]
fn gf_mul_slow(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

/// The portable implementation: the expanded AES key plus GHASH byte
/// tables.
#[derive(Clone)]
struct Portable {
    aes: Aes,
    /// `htable[pos][b]` = `(b << 8*pos) * H` in GF(2^128).
    ///
    /// Built incrementally: the product for a single operand bit is a
    /// shift-reduce of `H` (multiplication by the field's `X` is linear),
    /// and each byte entry is the XOR of its bits' products — so key
    /// setup needs 128 shift-reduces plus XORs, no generic multiplies.
    htable: Box<[[u128; 256]; 16]>,
}

impl Portable {
    fn new(aes: Aes) -> Portable {
        let h = u128::from_be_bytes(aes.encrypt_block([0u8; BLOCK_LEN]));
        // basis[j] = (1 << j) * H: u128 bit j is the coefficient of
        // X^(127-j), and multiplying by X is a right-shift with
        // reduction, so walk from the top bit down.
        const R: u128 = 0xe1 << 120;
        let mut basis = [0u128; 128];
        let mut v = h; // (1 << 127) * H = X^0 * H = H
        for j in (0..128).rev() {
            basis[j] = v;
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        let mut htable = Box::new([[0u128; 256]; 16]);
        for pos in 0..16 {
            for b in 1usize..256 {
                let low_bit = b.trailing_zeros() as usize;
                htable[pos][b] = htable[pos][b & (b - 1)] ^ basis[8 * pos + low_bit];
            }
        }
        Portable { aes, htable }
    }

    /// Table-driven multiplication by the hash subkey.
    fn mul_h(&self, x: u128) -> u128 {
        let mut z = 0u128;
        for pos in 0..16 {
            z ^= self.htable[pos][((x >> (8 * pos)) & 0xff) as usize];
        }
        z
    }

    fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> [u8; BLOCK_LEN] {
        let mut y = 0u128;
        for part in [aad, ciphertext] {
            for chunk in part.chunks(BLOCK_LEN) {
                let mut block = [0u8; BLOCK_LEN];
                block[..chunk.len()].copy_from_slice(chunk);
                y = self.mul_h(y ^ u128::from_be_bytes(block));
            }
        }
        let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
        y = self.mul_h(y ^ lengths);
        y.to_be_bytes()
    }

    /// CTR-mode keystream application starting at counter block `ctr`.
    fn ctr_xor(&self, mut ctr: [u8; BLOCK_LEN], data: &mut [u8]) {
        for chunk in data.chunks_mut(BLOCK_LEN) {
            inc32(&mut ctr);
            let keystream = self.aes.encrypt_block(ctr);
            for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                *b ^= k;
            }
        }
    }

    fn j0(iv: &[u8; IV_LEN]) -> [u8; BLOCK_LEN] {
        let mut j0 = [0u8; BLOCK_LEN];
        j0[..IV_LEN].copy_from_slice(iv);
        j0[15] = 1;
        j0
    }

    /// The tag over `aad` and the (already encrypted) `ciphertext`.
    fn tag(&self, j0: [u8; BLOCK_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let s = self.ghash(aad, ciphertext);
        let ekj0 = self.aes.encrypt_block(j0);
        let mut tag = [0u8; TAG_LEN];
        for i in 0..TAG_LEN {
            tag[i] = s[i] ^ ekj0[i];
        }
        tag
    }

    fn seal_in_place(&self, iv: &[u8; IV_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let j0 = Self::j0(iv);
        self.ctr_xor(j0, data);
        self.tag(j0, aad, data)
    }

    fn open_in_place(
        &self,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        let j0 = Self::j0(iv);
        if !ct_eq(&self.tag(j0, aad, data), tag) {
            return Err(CryptoError::AeadAuthenticationFailed);
        }
        self.ctr_xor(j0, data);
        Ok(())
    }
}

/// [`Gcm::backend`]'s names for the three implementations.
const PORTABLE: &str = "portable";
#[cfg(target_arch = "x86_64")]
const AESNI: &str = "aesni-pclmul";
#[cfg(target_arch = "x86_64")]
const VAES: &str = "vaes-avx512";

// The large variants are the ones that run: boxing them would put an
// allocation into every per-file `Gcm::new`.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Backend {
    Portable(Portable),
    #[cfg(target_arch = "x86_64")]
    Aesni(aesni::AesniGcm),
    #[cfg(target_arch = "x86_64")]
    Vaes(vaes::VaesGcm),
}

impl Backend {
    fn name(&self) -> &'static str {
        match self {
            Backend::Portable(_) => PORTABLE,
            #[cfg(target_arch = "x86_64")]
            Backend::Aesni(_) => AESNI,
            #[cfg(target_arch = "x86_64")]
            Backend::Vaes(_) => VAES,
        }
    }
}

/// A GCM key, expanded for whichever implementation this CPU runs (see
/// the module docs).
#[derive(Clone)]
pub struct Gcm {
    backend: Backend,
}

impl std::fmt::Debug for Gcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Gcm")
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl Gcm {
    /// Creates a GCM instance from a raw AES key (16, 24, or 32 bytes).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] for other key lengths.
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        if !matches!(key.len(), 16 | 24 | 32) {
            return Err(CryptoError::InvalidLength);
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(narrow) = aesni::AesniGcm::new(key) {
            let backend = match vaes::VaesGcm::new(&narrow) {
                Some(wide) => Backend::Vaes(wide),
                None => Backend::Aesni(narrow),
            };
            return Ok(Gcm { backend });
        }
        Ok(Gcm {
            backend: Backend::Portable(Portable::new(Aes::new(key)?)),
        })
    }

    /// The portable implementation whatever the CPU: the reference the
    /// hardware kernels are tested against.
    #[cfg(test)]
    pub(crate) fn new_portable(key: &[u8]) -> Result<Self, CryptoError> {
        Ok(Gcm {
            backend: Backend::Portable(Portable::new(Aes::new(key)?)),
        })
    }

    /// The AES-NI kernel even where [`Gcm::new`] would pick the wide one,
    /// or `None` on a CPU without it.
    #[cfg(all(test, target_arch = "x86_64"))]
    pub(crate) fn new_aesni(key: &[u8]) -> Option<Self> {
        Some(Gcm {
            backend: Backend::Aesni(aesni::AesniGcm::new(key)?),
        })
    }

    /// Which implementation [`Gcm::new`] selects on this CPU:
    /// `"vaes-avx512"`, `"aesni-pclmul"` (roughly 2.5x slower over large
    /// buffers) or `"portable"` (roughly 12x slower than `"aesni-pclmul"`).
    #[must_use]
    pub fn backend() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if vaes::available() {
            return VAES;
        }
        #[cfg(target_arch = "x86_64")]
        if aesni::available() {
            return AESNI;
        }
        PORTABLE
    }

    /// Encrypts `plaintext` in place and returns the authentication tag.
    pub fn seal_in_place(&self, iv: &[u8; IV_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let _prof = seg_obs::prof::phase(seg_obs::Phase::CryptoGcm);
        match &self.backend {
            Backend::Portable(p) => p.seal_in_place(iv, aad, data),
            #[cfg(target_arch = "x86_64")]
            Backend::Aesni(hw) => hw.seal_in_place(iv, aad, data),
            #[cfg(target_arch = "x86_64")]
            Backend::Vaes(hw) => hw.seal_in_place(iv, aad, data),
        }
    }

    /// Verifies `tag` and decrypts `data` in place.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AeadAuthenticationFailed`] on tag mismatch;
    /// in that case `data` is left *encrypted* (never releases unverified
    /// plaintext).
    pub fn open_in_place(
        &self,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        let _prof = seg_obs::prof::phase(seg_obs::Phase::CryptoGcm);
        match &self.backend {
            Backend::Portable(p) => p.open_in_place(iv, aad, data, tag),
            #[cfg(target_arch = "x86_64")]
            Backend::Aesni(hw) => hw.open_in_place(iv, aad, data, tag),
            #[cfg(target_arch = "x86_64")]
            Backend::Vaes(hw) => hw.open_in_place(iv, aad, data, tag),
        }
    }

    /// Convenience: encrypts `plaintext`, returning `ciphertext || tag`.
    #[must_use]
    pub fn seal(&self, iv: &[u8; IV_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place(iv, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Convenience: verifies and decrypts `ciphertext || tag`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AeadAuthenticationFailed`] if the input is
    /// shorter than a tag or fails authentication.
    pub fn open(
        &self,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let Some(ct_len) = sealed.len().checked_sub(TAG_LEN) else {
            return Err(CryptoError::AeadAuthenticationFailed);
        };
        let (ct, tag) = sealed.split_at(ct_len);
        let mut data = ct.to_vec();
        self.open_in_place(iv, aad, &mut data, tag)?;
        Ok(data)
    }
}

/// Increments the low 32 bits of a counter block (GCM `inc32`).
fn inc32(block: &mut [u8; BLOCK_LEN]) {
    let mut ctr = u32::from_be_bytes(block[12..16].try_into().expect("4 bytes"));
    ctr = ctr.wrapping_add(1);
    block[12..16].copy_from_slice(&ctr.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    fn iv12(s: &str) -> [u8; 12] {
        unhex(s).try_into().expect("12-byte iv")
    }

    /// The key under every implementation this CPU has, the portable
    /// reference first.
    fn kernels(key: &[u8]) -> Vec<Gcm> {
        let mut all = vec![Gcm::new_portable(key).expect("valid key")];
        #[cfg(target_arch = "x86_64")]
        all.extend(Gcm::new_aesni(key));
        let picked = Gcm::new(key).expect("valid key");
        if all
            .iter()
            .all(|k| k.backend.name() != picked.backend.name())
        {
            all.push(picked);
        }
        all
    }

    fn portable(gcm: &Gcm) -> &Portable {
        match &gcm.backend {
            Backend::Portable(p) => p,
            #[allow(unreachable_patterns)]
            _ => panic!("not the portable implementation"),
        }
    }

    #[test]
    fn new_selects_the_reported_backend() {
        let gcm = Gcm::new(&[0u8; 16]).expect("valid key");
        assert!(format!("{gcm:?}").contains(Gcm::backend()));
        let reference = Gcm::new_portable(&[0u8; 16]).expect("valid key");
        assert!(format!("{reference:?}").contains(PORTABLE));
        assert_eq!(
            Gcm::new(&[0u8; 20]).unwrap_err(),
            CryptoError::InvalidLength
        );
    }

    /// Names the kernels the differential tests here run on this CPU: a
    /// machine without AVX-512 or AES-NI shows which of them went
    /// untested (run with `--nocapture`).
    #[test]
    fn kernels_under_test() {
        let names: Vec<_> = kernels(&[0u8; 16])
            .iter()
            .map(|k| k.backend.name())
            .collect();
        println!(
            "Gcm::backend() = {}; kernels checked against the portable reference: {}",
            Gcm::backend(),
            names.join(", ")
        );
        assert!(names.contains(&Gcm::backend()));
    }

    // NIST GCM test case 1: zero key, zero IV, empty everything.
    #[test]
    fn nist_case_1() {
        for gcm in kernels(&[0u8; 16]) {
            let sealed = gcm.seal(&[0u8; 12], b"", b"");
            assert_eq!(hex(&sealed), "58e2fccefa7e3061367f1d57a4e7455a");
        }
    }

    // NIST GCM test case 2: zero key/IV, one zero block.
    #[test]
    fn nist_case_2() {
        for gcm in kernels(&[0u8; 16]) {
            let sealed = gcm.seal(&[0u8; 12], b"", &[0u8; 16]);
            assert_eq!(
                hex(&sealed),
                "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
            );
            let opened = gcm.open(&[0u8; 12], b"", &sealed).expect("authentic");
            assert_eq!(opened, [0u8; 16]);
        }
    }

    // NIST GCM test case 3: 4-block plaintext, no AAD.
    #[test]
    fn nist_case_3() {
        let iv = iv12("cafebabefacedbaddecaf888");
        let pt = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        for gcm in kernels(&unhex("feffe9928665731c6d6a8f9467308308")) {
            let sealed = gcm.seal(&iv, b"", &pt);
            assert_eq!(
                hex(&sealed[..64]),
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
            );
            assert_eq!(hex(&sealed[64..]), "4d5c2af327cd64a62cf35abd2ba6fab4");
            assert_eq!(gcm.open(&iv, b"", &sealed).expect("authentic"), pt);
        }
    }

    // NIST GCM test case 4: partial final block plus AAD.
    #[test]
    fn nist_case_4() {
        let iv = iv12("cafebabefacedbaddecaf888");
        let pt = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        for gcm in kernels(&unhex("feffe9928665731c6d6a8f9467308308")) {
            let sealed = gcm.seal(&iv, &aad, &pt);
            assert_eq!(
                hex(&sealed[..pt.len()]),
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            );
            assert_eq!(hex(&sealed[pt.len()..]), "5bc94fbc3221a5db94fae95ae7121a47");
            assert_eq!(gcm.open(&iv, &aad, &sealed).expect("authentic"), pt);
        }
    }

    // NIST GCM test case 16: case 4's inputs under a 256-bit key.
    #[test]
    fn nist_case_16_aes256() {
        let iv = iv12("cafebabefacedbaddecaf888");
        let pt = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let key = unhex("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
        for gcm in kernels(&key) {
            let sealed = gcm.seal(&iv, &aad, &pt);
            assert_eq!(
                hex(&sealed[..pt.len()]),
                "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
                 8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
            );
            assert_eq!(hex(&sealed[pt.len()..]), "76fc6ece0f4e1768cddf8853bb2d551b");
            assert_eq!(gcm.open(&iv, &aad, &sealed).expect("authentic"), pt);
        }
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        for gcm in kernels(&[1u8; 16]) {
            let iv = [2u8; 12];
            let mut sealed = gcm.seal(&iv, b"aad", b"hello world");
            for i in 0..sealed.len() {
                let mut bad = sealed.clone();
                bad[i] ^= 0x80;
                assert_eq!(
                    gcm.open(&iv, b"aad", &bad).unwrap_err(),
                    CryptoError::AeadAuthenticationFailed,
                    "flip at byte {i} not detected"
                );
            }
            // Wrong AAD, wrong IV, truncation.
            assert!(gcm.open(&iv, b"aad2", &sealed).is_err());
            assert!(gcm.open(&[3u8; 12], b"aad", &sealed).is_err());
            assert!(gcm.open(&iv, b"aad", &sealed[..10]).is_err());
            sealed.truncate(TAG_LEN - 1);
            assert!(gcm.open(&iv, b"aad", &sealed).is_err());
        }
    }

    // The tag is checked before any plaintext is written: a rejected
    // `open_in_place` must hand the buffer back exactly as it came.
    #[test]
    fn bad_tag_leaves_data_encrypted() {
        for gcm in kernels(&[5u8; 16]) {
            let iv = [6u8; 12];
            for len in [1usize, 16, 129, 255, 256, 257, 1000, 4068] {
                let mut data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
                let mut tag = gcm.seal_in_place(&iv, b"aad", &mut data);
                let sealed = data.clone();
                tag[TAG_LEN - 1] ^= 1;
                assert_eq!(
                    gcm.open_in_place(&iv, b"aad", &mut data, &tag).unwrap_err(),
                    CryptoError::AeadAuthenticationFailed
                );
                assert_eq!(data, sealed, "len {len}: buffer changed on a bad tag");
                // A short tag is a mismatch, not a prefix match.
                assert!(gcm
                    .open_in_place(&iv, b"aad", &mut data, &tag[..8])
                    .is_err());
                assert_eq!(data, sealed);
            }
        }
    }

    #[test]
    fn gf_mul_commutes_and_distributes() {
        let a = 0x0123456789abcdef0011223344556677u128;
        let b = 0xfedcba98765432100aa0bb0cc0dd0ee0u128;
        let c = 0xdeadbeefcafebabe1234567890abcdefu128;
        assert_eq!(gf_mul_slow(a, b), gf_mul_slow(b, a));
        assert_eq!(gf_mul_slow(a ^ b, c), gf_mul_slow(a, c) ^ gf_mul_slow(b, c));
        // 1 (the GCM "reflected one": MSB set) is the identity.
        let one = 1u128 << 127;
        assert_eq!(gf_mul_slow(a, one), a);
    }

    #[test]
    fn table_mul_matches_slow_mul() {
        let gcm = Gcm::new_portable(&[9u8; 16]).expect("valid key");
        let gcm = portable(&gcm);
        let h = u128::from_be_bytes(gcm.aes.encrypt_block([0u8; 16]));
        for x in [
            0u128,
            1,
            1 << 127,
            0x0123456789abcdef0011223344556677,
            u128::MAX,
        ] {
            assert_eq!(gcm.mul_h(x), gf_mul_slow(x, h));
        }
    }

    #[test]
    fn roundtrip_various_lengths() {
        for gcm in kernels(&[7u8; 32]) {
            let iv = [1u8; 12];
            for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 4096] {
                let pt: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
                let sealed = gcm.seal(&iv, b"ctx", &pt);
                assert_eq!(sealed.len(), len + TAG_LEN);
                assert_eq!(gcm.open(&iv, b"ctx", &sealed).expect("authentic"), pt);
            }
        }
    }

    #[test]
    fn inc32_wraps_only_low_word() {
        let mut block = [0xffu8; 16];
        inc32(&mut block);
        assert_eq!(&block[..12], &[0xff; 12]);
        assert_eq!(&block[12..], &[0, 0, 0, 0]);
    }

    // The kernels' masked and partial-block stores must write nothing
    // outside the slice they were given.
    #[test]
    fn sub_slice_leaves_neighbours_alone() {
        const GUARD: usize = 80;
        let iv = [4u8; 12];
        let all = kernels(&[3u8; 16]);
        for len in (0..=300).chain([4068]) {
            let pt: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let reference = all[0].seal(&iv, b"guard", &pt);
            for gcm in &all {
                let mut buf = vec![0xa5u8; GUARD + len + GUARD];
                buf[GUARD..GUARD + len].copy_from_slice(&pt);
                let tag = gcm.seal_in_place(&iv, b"guard", &mut buf[GUARD..GUARD + len]);
                let name = gcm.backend.name();
                assert_eq!(
                    &buf[GUARD..GUARD + len],
                    &reference[..len],
                    "{name}, len {len}"
                );
                assert_eq!(&tag[..], &reference[len..], "{name}, len {len}");
                gcm.open_in_place(&iv, b"guard", &mut buf[GUARD..GUARD + len], &tag)
                    .expect("authentic");
                assert_eq!(&buf[GUARD..GUARD + len], &pt[..], "{name}, len {len}");
                assert!(
                    buf[..GUARD]
                        .iter()
                        .chain(&buf[GUARD + len..])
                        .all(|&b| b == 0xa5),
                    "{name}, len {len}: a byte outside the slice changed"
                );
            }
        }
    }

    /// Lengths on both sides of every boundary a hardware kernel branches
    /// on: the block (16), the eight- and sixteen-block runs (128, 256),
    /// a pfs node (4 068), and a long run with a ragged end.
    fn boundary_len() -> impl Strategy<Value = usize> {
        const EDGES: [usize; 16] = [
            0,
            1,
            15,
            16,
            17,
            127,
            128,
            129,
            255,
            256,
            257,
            2_100,
            4_067,
            4_068,
            4_069,
            (256 << 10) + 13,
        ];
        prop_oneof![(0usize..EDGES.len()).prop_map(|i| EDGES[i]), 0usize..2_101,]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn hardware_matches_portable(
            key in proptest::array::uniform32(any::<u8>()),
            key_size in 0usize..3,
            iv in proptest::array::uniform12(any::<u8>()),
            aad in proptest::collection::vec(any::<u8>(), 0..301),
            len in boundary_len(),
            fill in any::<u8>(),
        ) {
            let all = kernels(&key[..[16, 24, 32][key_size]]);
            let pt: Vec<u8> = (0..len).map(|i| fill.wrapping_add((i * 7) as u8)).collect();

            let mut reference = pt.clone();
            let reference_tag = all[0].seal_in_place(&iv, &aad, &mut reference);
            for gcm in &all[1..] {
                let mut sealed = pt.clone();
                let tag = gcm.seal_in_place(&iv, &aad, &mut sealed);
                let name = gcm.backend.name();
                prop_assert!(sealed == reference, "{} ciphertext differs", name);
                prop_assert_eq!(tag, reference_tag, "{} tag differs", name);
            }
            // Each opens what every one sealed (they are all the same
            // bytes, so opening the reference's is opening each other's).
            for gcm in &all {
                let mut opened = reference.clone();
                gcm.open_in_place(&iv, &aad, &mut opened, &reference_tag)
                    .expect("each kernel opens the others' output");
                prop_assert!(opened == pt, "{} opened wrongly", gcm.backend.name());
            }
        }
    }
}
