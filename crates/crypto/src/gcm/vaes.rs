//! AES-GCM on VAES and VPCLMULQDQ over 512-bit registers (x86-64).
//!
//! Computes exactly what [`super::Portable`] computes, byte for byte, and
//! is the AES-NI kernel ([`super::aesni`]) four blocks wide: one `zmm`
//! register holds four blocks, and one instruction runs an AES round or
//! a carry-less multiply on all four. It keeps that kernel's round keys,
//! its `x⁻¹`-premultiplied powers of the hash subkey (see its module
//! docs), its reduction and its tag, and adds only `H⁹..H¹⁶`.
//!
//! * CTR keeps sixteen counter blocks in flight in four registers. The
//!   counters are held byte-reversed, where the big-endian 32-bit counter
//!   of each block is the low dword of its lane, so a step is one
//!   `VPADDD` with `inc32`'s wrap.
//! * GHASH absorbs sixteen blocks against `H¹⁶..H¹` per reduction: the
//!   products are summed lane-wise, the four lanes folded into one, and
//!   that reduced once.
//! * A tail shorter than 256 bytes is one masked pass, with no per-block
//!   loop: masked loads zero-fill past the end (GCM's padding) and masked
//!   stores write only the tail. Its GHASH reads the power table from
//!   `H^nb` down, for `nb` tail blocks. A pfs node (4 068 bytes) ends in a
//!   228-byte tail.
//!
//! Round keys are broadcast to all four lanes at each call rather than
//! stored four times, so a key stays small to expand and to copy.

use core::arch::x86_64::{
    __m128i, __m256i, __m512i, __mmask64, _mm256_castsi256_si128, _mm256_extracti128_si256,
    _mm256_xor_si256, _mm512_add_epi32, _mm512_aesenc_epi128, _mm512_aesenclast_epi128,
    _mm512_broadcast_i32x4, _mm512_castsi512_si256, _mm512_clmulepi64_epi128,
    _mm512_extracti64x4_epi64, _mm512_loadu_si512, _mm512_mask_storeu_epi8,
    _mm512_maskz_loadu_epi8, _mm512_set_epi32, _mm512_setzero_si512, _mm512_shuffle_epi8,
    _mm512_storeu_si512, _mm512_xor_si512, _mm512_zextsi128_si512, _mm_set_epi32, _mm_set_epi8,
    _mm_setzero_si128, _mm_xor_si128,
};

use super::aesni::{self, AesniGcm, MAX_ROUND_KEYS};
use super::{IV_LEN, TAG_LEN};
use crate::aes::BLOCK_LEN;
use crate::ct::ct_eq;
use crate::CryptoError;

/// Blocks per register.
const PER_REG: usize = 4;
/// Bytes per register.
const REG: usize = PER_REG * BLOCK_LEN;
/// Registers per CTR batch and per GHASH reduction.
const REGS: usize = 4;
/// Blocks per batch and per reduction.
const LANES: usize = PER_REG * REGS;
const WIDE: usize = LANES * BLOCK_LEN;
/// `H¹⁶..H¹`, then zero blocks: a tail's window starts anywhere in the
/// powers and reads up to three blocks past `H¹`.
const TABLE: usize = LANES + PER_REG - 1;

/// Whether this CPU has every instruction the kernel uses.
pub(super) fn available() -> bool {
    aesni::available()
        && is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("vaes")
        && is_x86_feature_detected!("vpclmulqdq")
}

/// A GCM key expanded for the wide path.
///
/// Exists only on a CPU where [`available`] held (see [`VaesGcm::new`]);
/// that is what makes the safe methods below sound.
#[derive(Clone)]
pub(super) struct VaesGcm {
    /// Round keys, `H¹..H⁸` and the tag.
    narrow: AesniGcm,
    /// `h_hi[k] = H^(k+9)·x⁻¹`, reflected.
    h_hi: [__m128i; LANES / 2],
}

/// The key as one call uses it: round keys in every lane, and the
/// descending power table.
struct Wide {
    rk: [__m512i; MAX_ROUND_KEYS],
    rounds: usize,
    /// `pow[i] = H^(16-i)·x⁻¹` for `i < 16`, zero after.
    pow: [__m128i; TABLE],
}

/// The mask selecting the first `len` (1..=64) bytes of a register.
fn byte_mask(len: usize) -> __mmask64 {
    debug_assert!((1..=REG).contains(&len));
    u64::MAX >> (REG - len)
}

/// Up to 64 bytes, zero-filled past the end of `part`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn load_part(part: &[u8]) -> __m512i {
    // SAFETY: the mask selects exactly `part.len()` bytes from its start,
    // all readable; masked-off bytes are neither read nor faulted on.
    unsafe { _mm512_maskz_loadu_epi8(byte_mask(part.len()), part.as_ptr().cast()) }
}

/// Writes the first `part.len()` (up to 64) bytes of `v` to `part`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn store_part(part: &mut [u8], v: __m512i) {
    // SAFETY: the mask selects exactly `part.len()` bytes from its start,
    // all writable; nothing past `part` is written.
    unsafe { _mm512_mask_storeu_epi8(part.as_mut_ptr().cast(), byte_mask(part.len()), v) }
}

#[inline]
#[target_feature(enable = "avx512f")]
fn load(bytes: &[u8; REG]) -> __m512i {
    // SAFETY: `bytes` is 64 readable bytes and `loadu` accepts any
    // alignment.
    unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx512f")]
fn store(bytes: &mut [u8; REG], v: __m512i) {
    // SAFETY: `bytes` is 64 writable bytes and `storeu` accepts any
    // alignment.
    unsafe { _mm512_storeu_si512(bytes.as_mut_ptr().cast(), v) }
}

/// Four consecutive blocks of the power table as one register.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_blocks(blocks: &[__m128i; PER_REG]) -> __m512i {
    // SAFETY: `blocks` is 64 readable bytes and `loadu` accepts any
    // alignment.
    unsafe { _mm512_loadu_si512(blocks.as_ptr().cast()) }
}

/// Byte-reverses each of the four blocks.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn bswap(v: __m512i) -> __m512i {
    let reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    _mm512_shuffle_epi8(v, _mm512_broadcast_i32x4(reverse))
}

/// XORs the four lanes into one block.
#[inline]
#[target_feature(enable = "avx512f")]
fn fold_lanes(v: __m512i) -> __m128i {
    let halves: __m256i =
        _mm256_xor_si256(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
    _mm_xor_si128(
        _mm256_castsi256_si128(halves),
        _mm256_extracti128_si256::<1>(halves),
    )
}

impl VaesGcm {
    /// Widens `narrow`'s key, or `None` on a CPU without the
    /// instructions.
    pub(super) fn new(narrow: &AesniGcm) -> Option<VaesGcm> {
        if !available() {
            return None;
        }
        // SAFETY: `available` just confirmed every enabled feature.
        Some(unsafe { VaesGcm::expand(narrow) })
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx512f,avx512bw,vaes,vpclmulqdq")]
    fn expand(narrow: &AesniGcm) -> VaesGcm {
        // `H⁸·Hᵏ` for each k: eight independent products rather than a
        // chain.
        let mut h_hi = [_mm_setzero_si128(); LANES / 2];
        for (hi, h) in h_hi.iter_mut().zip(&narrow.h) {
            *hi = aesni::mul(narrow.h[LANES / 2 - 1], *h);
        }
        VaesGcm {
            narrow: narrow.clone(),
            h_hi,
        }
    }

    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx512f,avx512bw,vaes,vpclmulqdq")]
    fn widen(&self) -> Wide {
        let mut rk = [_mm512_setzero_si512(); MAX_ROUND_KEYS];
        for (wide, k) in rk.iter_mut().zip(&self.narrow.rk[..=self.narrow.rounds]) {
            *wide = _mm512_broadcast_i32x4(*k);
        }
        let mut pow = [_mm_setzero_si128(); TABLE];
        let descending = self.h_hi.iter().rev().chain(self.narrow.h.iter().rev());
        for (p, h) in pow.iter_mut().zip(descending) {
            *p = *h;
        }
        Wide {
            rk,
            rounds: self.narrow.rounds,
            pow,
        }
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx512f,avx512bw,vaes,vpclmulqdq")]
    fn seal_impl(&self, iv: &[u8; IV_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let wide = self.widen();
        let base = aesni::iv_block(iv);
        // J0 is counter 1; the data starts at 2.
        wide.ctr_xor(base, 2, data);
        let y = wide.ghash(wide.ghash(_mm_setzero_si128(), aad), data);
        self.narrow.tag(base, y, aad.len(), data.len())
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx512f,avx512bw,vaes,vpclmulqdq")]
    fn open_impl(
        &self,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        let wide = self.widen();
        let base = aesni::iv_block(iv);
        let y = wide.ghash(wide.ghash(_mm_setzero_si128(), aad), data);
        if !ct_eq(&self.narrow.tag(base, y, aad.len(), data.len()), tag) {
            return Err(CryptoError::AeadAuthenticationFailed);
        }
        wide.ctr_xor(base, 2, data);
        Ok(())
    }

    /// Encrypts `data` in place and returns the tag.
    pub(super) fn seal_in_place(
        &self,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        data: &mut [u8],
    ) -> [u8; TAG_LEN] {
        // SAFETY: a `VaesGcm` exists only where `new` found the features.
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
        // SAFETY: a `VaesGcm` exists only where `new` found the features.
        unsafe { self.open_impl(iv, aad, data, tag) }
    }
}

impl Wide {
    /// Encrypts sixteen (byte-reversed) counter blocks.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx512f,avx512bw,vaes,vpclmulqdq")]
    fn keystream(&self, counters: &[__m512i; REGS]) -> [__m512i; REGS] {
        let mut b = [_mm512_setzero_si512(); REGS];
        for (x, c) in b.iter_mut().zip(counters) {
            *x = _mm512_xor_si512(bswap(*c), self.rk[0]);
        }
        for k in &self.rk[1..self.rounds] {
            for x in &mut b {
                *x = _mm512_aesenc_epi128(*x, *k);
            }
        }
        for x in &mut b {
            *x = _mm512_aesenclast_epi128(*x, self.rk[self.rounds]);
        }
        b
    }

    /// XORs the keystream starting at counter `ctr` into `data`.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx512f,avx512bw,vaes,vpclmulqdq")]
    fn ctr_xor(&self, base: __m128i, ctr: u32, data: &mut [u8]) {
        let first = _mm512_broadcast_i32x4(aesni::bswap(aesni::counter_block(base, ctr)));
        let lanes = _mm512_set_epi32(0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0);
        let mut counters = [_mm512_setzero_si512(); REGS];
        for (j, c) in counters.iter_mut().enumerate() {
            let reg = _mm512_broadcast_i32x4(_mm_set_epi32(0, 0, 0, (j * PER_REG) as i32));
            *c = _mm512_add_epi32(_mm512_add_epi32(first, lanes), reg);
        }
        let step = _mm512_broadcast_i32x4(_mm_set_epi32(0, 0, 0, LANES as i32));

        let (wide, rest) = data.as_chunks_mut::<WIDE>();
        for chunk in wide {
            let ks = self.keystream(&counters);
            for (reg, k) in chunk.as_chunks_mut::<REG>().0.iter_mut().zip(ks) {
                store(reg, _mm512_xor_si512(load(reg), k));
            }
            for c in &mut counters {
                *c = _mm512_add_epi32(*c, step);
            }
        }
        if !rest.is_empty() {
            let ks = self.keystream(&counters);
            for (part, k) in rest.chunks_mut(REG).zip(ks) {
                store_part(part, _mm512_xor_si512(load_part(part), k));
            }
        }
    }

    /// Folds `regs` (byte-reversed, up to sixteen blocks, `y` already in
    /// the first) into one reduced value: block `i` meets
    /// `pow[first + i]`.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx512f,avx512bw,vaes,vpclmulqdq")]
    fn absorb(&self, regs: &[__m512i], first: usize) -> __m128i {
        let (mut lo, mut mid, mut hi) = (
            _mm512_setzero_si512(),
            _mm512_setzero_si512(),
            _mm512_setzero_si512(),
        );
        for (j, d) in regs.iter().enumerate() {
            let at = first + j * PER_REG;
            let h = load_blocks(self.pow[at..at + PER_REG].try_into().expect("4 blocks"));
            lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128::<0x00>(*d, h));
            mid = _mm512_xor_si512(
                mid,
                _mm512_xor_si512(
                    _mm512_clmulepi64_epi128::<0x10>(*d, h),
                    _mm512_clmulepi64_epi128::<0x01>(*d, h),
                ),
            );
            hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128::<0x11>(*d, h));
        }
        aesni::reduce(fold_lanes(lo), fold_lanes(mid), fold_lanes(hi))
    }

    /// Absorbs `bytes`, zero-padded to a whole block, into `y`.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx512f,avx512bw,vaes,vpclmulqdq")]
    fn ghash(&self, mut y: __m128i, bytes: &[u8]) -> __m128i {
        let (wide, rest) = bytes.as_chunks::<WIDE>();
        for chunk in wide {
            let mut regs = [_mm512_setzero_si512(); REGS];
            for (r, reg) in regs.iter_mut().zip(chunk.as_chunks::<REG>().0) {
                *r = bswap(load(reg));
            }
            // `y` rides along with the first block, which meets the
            // highest power.
            regs[0] = _mm512_xor_si512(regs[0], _mm512_zextsi128_si512(y));
            y = self.absorb(&regs, 0);
        }
        if !rest.is_empty() {
            let mut regs = [_mm512_setzero_si512(); REGS];
            let mut used = 0;
            for (r, part) in regs.iter_mut().zip(rest.chunks(REG)) {
                *r = bswap(load_part(part));
                used += 1;
            }
            regs[0] = _mm512_xor_si512(regs[0], _mm512_zextsi128_si512(y));
            // `nb` blocks meet `H^nb..H¹`, the table's last `nb` powers.
            y = self.absorb(&regs[..used], LANES - rest.len().div_ceil(BLOCK_LEN));
        }
        y
    }
}
