//! AES-GCM on AES-NI and PCLMULQDQ (x86-64).
//!
//! Computes exactly what [`super::Portable`] computes, byte for byte:
//! CTR keeps eight counter blocks in flight through `AESENC`, and GHASH
//! folds eight blocks per reduction over precomputed powers of the hash
//! subkey. The key schedule takes its S-box from `AESENCLAST`. Nothing
//! here indexes memory by a secret, and nothing allocates.
//!
//! # GHASH representation
//!
//! A block is byte-reversed on load, which makes it one 128-bit integer
//! whose bit `j` is the coefficient of `x^(127-j)` — the field element
//! *bit-reflected*. The carry-less product of two reflected elements is
//! the reflected product shifted right by one bit. Instead of shifting
//! every product, the key powers are stored pre-multiplied by `x⁻¹`
//! (`h[k] = H^(k+1)·x⁻¹`), so `clmul(a, h[k])` read as a 256-bit
//! reflected value *is* the unreduced `a·H^(k+1)`. Unreduced products
//! are linear, so eight of them are XORed and reduced once.

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_clmulepi64_si128, _mm_insert_epi32,
    _mm_loadu_si128, _mm_set1_epi32, _mm_set_epi64x, _mm_set_epi8, _mm_setzero_si128,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_si128, _mm_srli_si128, _mm_storeu_si128,
    _mm_xor_si128,
};

use super::{IV_LEN, TAG_LEN};
use crate::aes::BLOCK_LEN;
use crate::ct::ct_eq;
use crate::CryptoError;

/// Blocks per CTR batch and per GHASH reduction.
const LANES: usize = 8;
const WIDE: usize = LANES * BLOCK_LEN;

/// Round keys of AES-256, the largest schedule.
pub(super) const MAX_ROUND_KEYS: usize = 15;

/// `x⁻¹ mod (x^128 + x^7 + x^2 + x + 1)` = `x^127 + x^6 + x + 1`, reflected.
const X_INVERSE: u128 = 0xc200_0000_0000_0000_0000_0000_0000_0001;

/// Whether this CPU has every instruction the kernel uses.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("aes")
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// A GCM key expanded for the hardware path.
///
/// Exists only on a CPU where [`available`] held (see [`AesniGcm::new`]);
/// that is what makes the safe methods below sound.
#[derive(Clone)]
pub(super) struct AesniGcm {
    /// Round keys `0..=rounds`; the rest stay zero and unused.
    pub(super) rk: [__m128i; MAX_ROUND_KEYS],
    pub(super) rounds: usize,
    /// `h[k] = H^(k+1)·x⁻¹`, reflected (see the module docs).
    pub(super) h: [__m128i; LANES],
}

fn load(block: &[u8; BLOCK_LEN]) -> __m128i {
    // SAFETY: `block` is 16 readable bytes and `loadu` accepts any
    // alignment; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

fn store(block: &mut [u8; BLOCK_LEN], v: __m128i) {
    // SAFETY: `block` is 16 writable bytes and `storeu` accepts any
    // alignment; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), v) }
}

#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
pub(super) fn bswap(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        v,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

/// The 256-bit carry-less product `a·b` as (low, middle, high) 128-bit
/// partial products; the middle one sits 64 bits up.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn clmul(a: __m128i, b: __m128i) -> (__m128i, __m128i, __m128i) {
    (
        _mm_clmulepi64_si128::<0x00>(a, b),
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(a, b),
            _mm_clmulepi64_si128::<0x01>(a, b),
        ),
        _mm_clmulepi64_si128::<0x11>(a, b),
    )
}

/// Reduces a 256-bit reflected value modulo the GCM polynomial.
///
/// In the reflected layout the low half holds `x^255..x^128`. Bit `b`
/// of the lowest 64-bit word is `x^128·x^(127-b)`, congruent to
/// `(x^7 + x^2 + x + 1)·x^(127-b)`: XOR the word in 128 bits up, and
/// its carry-less product with `0xc2 << 56` in 64 bits up. Two such
/// folds clear the low half.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
pub(super) fn reduce(lo: __m128i, mid: __m128i, hi: __m128i) -> __m128i {
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<8>(mid));
    let hi = _mm_xor_si128(hi, _mm_srli_si128::<8>(mid));
    let poly = _mm_set_epi64x(0, 0xc200_0000_0000_0000_u64 as i64);
    let fold = _mm_xor_si128(
        _mm_shuffle_epi32::<0x4e>(lo),
        _mm_clmulepi64_si128::<0x00>(lo, poly),
    );
    let fold = _mm_xor_si128(
        _mm_shuffle_epi32::<0x4e>(fold),
        _mm_clmulepi64_si128::<0x00>(fold, poly),
    );
    _mm_xor_si128(hi, fold)
}

/// `a·b·x` in the field: the GCM product when `b` carries the `x⁻¹`.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
pub(super) fn mul(a: __m128i, b: __m128i) -> __m128i {
    let (lo, mid, hi) = clmul(a, b);
    reduce(lo, mid, hi)
}

/// Counter block `IV || ctr` (big-endian counter in the last lane).
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
pub(super) fn counter_block(base: __m128i, ctr: u32) -> __m128i {
    _mm_insert_epi32::<3>(base, ctr.swap_bytes() as i32)
}

/// Each word `w[i]` of `v` XORed with every earlier one: the running
/// XOR that the key schedule's recurrence `w[i] = w[i-nk] ^ w[i-1]`
/// unrolls to across one block.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn prefix_xor(v: __m128i) -> __m128i {
    let v = _mm_xor_si128(v, _mm_slli_si128::<4>(v));
    _mm_xor_si128(v, _mm_slli_si128::<8>(v))
}

/// The 16 bytes of `schedule` at `at`.
fn block_at(schedule: &[u8], at: usize) -> __m128i {
    load(schedule[at..at + BLOCK_LEN].try_into().expect("16 bytes"))
}

/// The FIPS 197 key expansion of a 16-, 24- or 32-byte `key`, as
/// round-key blocks in cipher byte order, and the round count.
///
/// Each group of `key.len()` new bytes is the previous group's words
/// XORed into a running sum, plus `SubWord(RotWord(last word)) ^ rcon`
/// (and, for AES-256, `SubWord` of the group's fourth word halfway). The
/// S-box is the hardware's: when all four columns of an AES state are
/// the same word, `ShiftRows` moves nothing, so `AESENCLAST` of that
/// state is `SubWord` of the word in every column, XORed with the round
/// key given, here the round constant.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn expand_key(key: &[u8]) -> ([__m128i; MAX_ROUND_KEYS], usize) {
    let group = key.len();
    let rounds = group / 4 + 6;
    // The schedule's bytes, with room for the last group to overrun.
    let mut schedule = [0u8; BLOCK_LEN * (MAX_ROUND_KEYS + 1)];
    schedule[..group].copy_from_slice(key);
    // Word 3 of a block, rotated, in all four columns.
    let rotate_last = _mm_set_epi8(
        12, 15, 14, 13, 12, 15, 14, 13, 12, 15, 14, 13, 12, 15, 14, 13,
    );
    let mut rcon = 1;
    let mut at = group;
    while at < BLOCK_LEN * (rounds + 1) {
        let last = _mm_shuffle_epi8(block_at(&schedule, at - BLOCK_LEN), rotate_last);
        let f = _mm_aesenclast_si128(last, _mm_set1_epi32(rcon));
        let low = _mm_xor_si128(prefix_xor(block_at(&schedule, at - group)), f);
        store_at(&mut schedule, at, low);
        if group > BLOCK_LEN {
            // Words 4.. of the group (two for AES-192, whose last two
            // lanes are overwritten by the next group; four for AES-256).
            let carry = _mm_shuffle_epi32::<0xff>(low);
            let carry = if group == 32 {
                _mm_aesenclast_si128(carry, _mm_setzero_si128())
            } else {
                carry
            };
            let high = _mm_xor_si128(
                prefix_xor(block_at(&schedule, at + BLOCK_LEN - group)),
                carry,
            );
            store_at(&mut schedule, at + BLOCK_LEN, high);
        }
        // xtime: the round constants are public.
        rcon = (rcon << 1) ^ if rcon & 0x80 != 0 { 0x11b } else { 0 };
        at += group;
    }
    let mut rk = [_mm_setzero_si128(); MAX_ROUND_KEYS];
    for (round, k) in rk[..=rounds].iter_mut().enumerate() {
        *k = block_at(&schedule, round * BLOCK_LEN);
    }
    (rk, rounds)
}

/// Writes `v` to the 16 bytes of `schedule` at `at`.
fn store_at(schedule: &mut [u8], at: usize, v: __m128i) {
    store(
        (&mut schedule[at..at + BLOCK_LEN])
            .try_into()
            .expect("16 bytes"),
        v,
    );
}

impl AesniGcm {
    /// Expands a 16-, 24- or 32-byte `key` for the hardware path, or
    /// `None` on a CPU without the instructions.
    pub(super) fn new(key: &[u8]) -> Option<AesniGcm> {
        debug_assert!(matches!(key.len(), 16 | 24 | 32));
        if !available() {
            return None;
        }
        // SAFETY: `available` just confirmed every enabled feature.
        Some(unsafe { AesniGcm::expand(key) })
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn expand(key: &[u8]) -> AesniGcm {
        let (rk, rounds) = expand_key(key);
        let mut gcm = AesniGcm {
            rk,
            rounds,
            h: [_mm_setzero_si128(); LANES],
        };
        let mut h = [0u8; BLOCK_LEN];
        store(&mut h, gcm.encrypt1(_mm_setzero_si128()));
        // Multiply H by x⁻¹: one reflected left shift, and the `x^0`
        // term that falls off the top comes back as `x⁻¹` (by mask, not
        // by branch, since H is secret).
        let h = u128::from_be_bytes(h);
        let h = (h << 1) ^ (0u128.wrapping_sub(h >> 127) & X_INVERSE);
        gcm.h[0] = _mm_set_epi64x((h >> 64) as i64, h as i64);
        // H^(k+1) = H^p·H^(k+1-p) for the largest power of two p ≤ k:
        // three multiplications deep rather than seven.
        for k in 1..LANES {
            let p = 1 << k.ilog2();
            gcm.h[k] = mul(gcm.h[p - 1], gcm.h[k - p]);
        }
        gcm
    }

    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn encrypt1(&self, block: __m128i) -> __m128i {
        let mut b = _mm_xor_si128(block, self.rk[0]);
        for k in &self.rk[1..self.rounds] {
            b = _mm_aesenc_si128(b, *k);
        }
        _mm_aesenclast_si128(b, self.rk[self.rounds])
    }

    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn encrypt8(&self, mut b: [__m128i; LANES]) -> [__m128i; LANES] {
        for x in &mut b {
            *x = _mm_xor_si128(*x, self.rk[0]);
        }
        for k in &self.rk[1..self.rounds] {
            for x in &mut b {
                *x = _mm_aesenc_si128(*x, *k);
            }
        }
        for x in &mut b {
            *x = _mm_aesenclast_si128(*x, self.rk[self.rounds]);
        }
        b
    }

    /// XORs the keystream of counters `ctr..ctr+8` into `chunk`.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn ctr_xor8(&self, base: __m128i, ctr: u32, chunk: &mut [u8; WIDE]) {
        let mut ks = [base; LANES];
        for (i, k) in ks.iter_mut().enumerate() {
            *k = counter_block(base, ctr.wrapping_add(i as u32));
        }
        let ks = self.encrypt8(ks);
        let (blocks, _) = chunk.as_chunks_mut::<BLOCK_LEN>();
        for (block, k) in blocks.iter_mut().zip(ks) {
            let mixed = _mm_xor_si128(load(block), k);
            store(block, mixed);
        }
    }

    /// XORs the keystream starting at counter `ctr` into `data`.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn ctr_xor(&self, base: __m128i, mut ctr: u32, data: &mut [u8]) {
        let (wide, rest) = data.as_chunks_mut::<WIDE>();
        for chunk in wide {
            self.ctr_xor8(base, ctr, chunk);
            ctr = ctr.wrapping_add(LANES as u32);
        }
        for part in rest.chunks_mut(BLOCK_LEN) {
            let mut block = [0u8; BLOCK_LEN];
            block[..part.len()].copy_from_slice(part);
            let mixed = _mm_xor_si128(load(&block), self.encrypt1(counter_block(base, ctr)));
            ctr = ctr.wrapping_add(1);
            store(&mut block, mixed);
            part.copy_from_slice(&block[..part.len()]);
        }
    }

    /// Absorbs eight blocks into the GHASH state `y` with one reduction.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn ghash8(&self, y: __m128i, chunk: &[u8; WIDE]) -> __m128i {
        let (blocks, _) = chunk.as_chunks::<BLOCK_LEN>();
        // `y` rides along with the first block, which meets the highest
        // power.
        let first = _mm_xor_si128(y, bswap(load(&blocks[0])));
        let mut acc = clmul(first, self.h[LANES - 1]);
        for (block, h) in blocks[1..].iter().zip(self.h[..LANES - 1].iter().rev()) {
            let (lo, mid, hi) = clmul(bswap(load(block)), *h);
            acc = (
                _mm_xor_si128(acc.0, lo),
                _mm_xor_si128(acc.1, mid),
                _mm_xor_si128(acc.2, hi),
            );
        }
        reduce(acc.0, acc.1, acc.2)
    }

    /// Absorbs `bytes`, zero-padded to a whole block, into `y`.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn ghash(&self, mut y: __m128i, bytes: &[u8]) -> __m128i {
        let (wide, rest) = bytes.as_chunks::<WIDE>();
        for chunk in wide {
            y = self.ghash8(y, chunk);
        }
        for part in rest.chunks(BLOCK_LEN) {
            let mut block = [0u8; BLOCK_LEN];
            block[..part.len()].copy_from_slice(part);
            y = mul(_mm_xor_si128(y, bswap(load(&block))), self.h[0]);
        }
        y
    }

    /// Closes the GHASH with the length block and masks it with
    /// `E(K, J0)`.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    pub(super) fn tag(
        &self,
        base: __m128i,
        y: __m128i,
        aad_len: usize,
        data_len: usize,
    ) -> [u8; TAG_LEN] {
        // Bit lengths, AAD in the high half: already "byte-reversed".
        let lengths = _mm_set_epi64x((aad_len as u64 * 8) as i64, (data_len as u64 * 8) as i64);
        let s = mul(_mm_xor_si128(y, lengths), self.h[0]);
        let mut tag = [0u8; TAG_LEN];
        store(
            &mut tag,
            _mm_xor_si128(bswap(s), self.encrypt1(counter_block(base, 1))),
        );
        tag
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn seal_impl(&self, iv: &[u8; IV_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let base = iv_block(iv);
        // J0 is counter 1; the data starts at 2.
        self.ctr_xor(base, 2, data);
        let y = self.ghash(self.ghash(_mm_setzero_si128(), aad), data);
        self.tag(base, y, aad.len(), data.len())
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn open_impl(
        &self,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        let base = iv_block(iv);
        let y = self.ghash(self.ghash(_mm_setzero_si128(), aad), data);
        if !ct_eq(&self.tag(base, y, aad.len(), data.len()), tag) {
            return Err(CryptoError::AeadAuthenticationFailed);
        }
        self.ctr_xor(base, 2, data);
        Ok(())
    }

    /// Encrypts `data` in place and returns the tag.
    pub(super) fn seal_in_place(
        &self,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        data: &mut [u8],
    ) -> [u8; TAG_LEN] {
        // SAFETY: an `AesniGcm` exists only where `new` found the features.
        unsafe { self.seal_impl(iv, aad, data) }
    }

    /// Verifies `tag`, then decrypts `data` in place; on a mismatch
    /// `data` is untouched.
    pub(super) fn open_in_place(
        &self,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        // SAFETY: an `AesniGcm` exists only where `new` found the features.
        unsafe { self.open_impl(iv, aad, data, tag) }
    }
}

pub(super) fn iv_block(iv: &[u8; IV_LEN]) -> __m128i {
    let mut block = [0u8; BLOCK_LEN];
    block[..IV_LEN].copy_from_slice(iv);
    load(&block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes;

    fn schedule(key: &[u8]) -> Vec<[u8; BLOCK_LEN]> {
        // SAFETY: every caller checks `available` first.
        let (rk, rounds) = unsafe { expand_key(key) };
        rk[..=rounds]
            .iter()
            .map(|k| {
                let mut block = [0u8; BLOCK_LEN];
                store(&mut block, *k);
                block
            })
            .collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    #[test]
    fn key_schedule_matches_the_portable_one() {
        if !available() {
            return;
        }
        // FIPS 197 Appendices A.1–A.3 and C.1–C.3, then random keys of
        // every size.
        let mut keys: Vec<Vec<u8>> = [
            "2b7e151628aed2a6abf7158809cf4f3c",
            "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        ]
        .iter()
        .map(|k| unhex(k))
        .collect();
        keys.extend([16u8, 24, 32].map(|n| (0..n).collect()));
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for n in [16, 24, 32].repeat(20) {
            keys.push(
                (0..n)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect(),
            );
        }
        for key in keys {
            let portable: Vec<_> = Aes::new(&key)
                .expect("valid key")
                .round_key_blocks()
                .collect();
            assert_eq!(schedule(&key), portable, "key {key:02x?}");
        }
    }
}
