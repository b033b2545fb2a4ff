//! The SHA-256 compression function on the x86-64 SHA extensions.
//!
//! Computes exactly what [`super::compress_portable`] computes.
//! `SHA256RNDS2` runs two rounds on a state split across two registers as
//! `ABEF` and `CDGH` (high dword first), so the eight working variables
//! are shuffled into that layout once per run of blocks and back at the
//! end. `SHA256MSG1`/`SHA256MSG2` extend the message schedule four words
//! at a time; only the last four quads of it are kept.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::{BLOCK_LEN, K};

/// Proof that this CPU has every instruction the kernel uses: the only
/// way to get one is [`Shani::detect`], which is what makes the safe
/// [`Shani::compress`] sound.
#[derive(Clone, Copy)]
pub(super) struct Shani(());

impl Shani {
    pub(super) fn detect() -> Option<Shani> {
        (is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        .then_some(Shani(()))
    }

    /// Folds a run of whole blocks into `state`.
    pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        // SAFETY: a `Shani` exists only where `detect` found the features.
        unsafe { compress(state, blocks) }
    }
}

fn load(quad: &[u32; 4]) -> __m128i {
    // SAFETY: `quad` is 16 readable bytes and `loadu` accepts any
    // alignment; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(quad.as_ptr().cast()) }
}

fn load_bytes(quad: &[u8; 16]) -> __m128i {
    // SAFETY: `quad` is 16 readable bytes and `loadu` accepts any
    // alignment; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(quad.as_ptr().cast()) }
}

fn store(quad: &mut [u32; 4], v: __m128i) {
    // SAFETY: `quad` is 16 writable bytes and `storeu` accepts any
    // alignment; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_storeu_si128(quad.as_mut_ptr().cast(), v) }
}

/// Four rounds: `wk` holds `W[t] + K[t]` for the four of them.
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn rounds4(abef: __m128i, cdgh: __m128i, wk: __m128i) -> (__m128i, __m128i) {
    // Two rounds turn (ABEF, CDGH) into (new ABEF, old ABEF as CDGH);
    // the instruction returns the first and takes its `W + K` pair from
    // the low half of its third operand.
    let mid = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    let abef = _mm_sha256rnds2_epu32(abef, mid, _mm_shuffle_epi32::<0x0e>(wk));
    (abef, mid)
}

/// The next four schedule words from the previous sixteen, oldest quad
/// first: `W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2])`.
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn schedule(w: [__m128i; 4]) -> __m128i {
    let w16_s0 = _mm_sha256msg1_epu32(w[0], w[1]);
    let w7 = _mm_alignr_epi8::<4>(w[3], w[2]);
    _mm_sha256msg2_epu32(_mm_add_epi32(w16_s0, w7), w[3])
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn compress(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    let (k, _) = K.as_chunks::<4>();
    // Reverses the bytes of each dword: schedule words are big-endian.
    let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // Memory order is a,b,c,d | e,f,g,h, i.e. registers DCBA and HGFE.
    let (halves, _) = state.as_chunks_mut::<4>();
    let cdab = _mm_shuffle_epi32::<0xb1>(load(&halves[0]));
    let efgh = _mm_shuffle_epi32::<0x1b>(load(&halves[1]));
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

    for block in blocks {
        let (quads, _) = block.as_chunks::<16>();
        let mut w = [
            _mm_shuffle_epi8(load_bytes(&quads[0]), be),
            _mm_shuffle_epi8(load_bytes(&quads[1]), be),
            _mm_shuffle_epi8(load_bytes(&quads[2]), be),
            _mm_shuffle_epi8(load_bytes(&quads[3]), be),
        ];
        let (abef_in, cdgh_in) = (abef, cdgh);
        for (w, k) in w.iter().zip(&k[..4]) {
            (abef, cdgh) = rounds4(abef, cdgh, _mm_add_epi32(*w, load(k)));
        }
        // `w` is a ring of the last four quads: each new quad replaces
        // the oldest. Indices are literal so the ring stays in registers.
        let (k, _) = k[4..].as_chunks::<4>();
        for k in k {
            w[0] = schedule([w[0], w[1], w[2], w[3]]);
            (abef, cdgh) = rounds4(abef, cdgh, _mm_add_epi32(w[0], load(&k[0])));
            w[1] = schedule([w[1], w[2], w[3], w[0]]);
            (abef, cdgh) = rounds4(abef, cdgh, _mm_add_epi32(w[1], load(&k[1])));
            w[2] = schedule([w[2], w[3], w[0], w[1]]);
            (abef, cdgh) = rounds4(abef, cdgh, _mm_add_epi32(w[2], load(&k[2])));
            w[3] = schedule([w[3], w[0], w[1], w[2]]);
            (abef, cdgh) = rounds4(abef, cdgh, _mm_add_epi32(w[3], load(&k[3])));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    store(&mut halves[0], _mm_blend_epi16::<0xf0>(feba, dchg));
    store(&mut halves[1], _mm_alignr_epi8::<8>(dchg, feba));
}
