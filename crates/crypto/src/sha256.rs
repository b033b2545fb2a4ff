//! SHA-256 (FIPS 180-4).
//!
//! SeGShare uses SHA-256 everywhere a collision-resistant hash is needed:
//! enclave measurements, Merkle-tree leaves, deduplication HMAC names, and
//! the TLS transcript hash.
//!
//! Two compression functions sit behind [`Sha256`], producing identical
//! digests:
//!
//! * on x86-64 CPUs with the SHA extensions, the kernel in the private
//!   `shani` module;
//! * everywhere else, the portable scalar code below, which is also the
//!   reference the hardware kernel is tested against.
//!
//! [`Sha256::new`] picks by CPUID.

#[cfg(target_arch = "x86_64")]
mod shani;

use crate::digest::Digest;
use crate::sha2gen;

/// Digest length in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block length in bytes.
pub const BLOCK_LEN: usize = 64;

/// Round constants: the first 32 fractional bits of the cube roots of the
/// first 64 primes.
const K: [u32; 64] = {
    let primes = sha2gen::first_primes::<64>();
    let mut k = [0u32; 64];
    let mut i = 0;
    while i < 64 {
        k[i] = sha2gen::cbrt_frac32(primes[i]);
        i += 1;
    }
    k
};

/// Initial state: the first 32 fractional bits of the square roots of the
/// first 8 primes.
const H0: [u32; 8] = {
    let primes = sha2gen::first_primes::<8>();
    let mut h = [0u32; 8];
    let mut i = 0;
    while i < 8 {
        h[i] = sha2gen::sqrt_frac32(primes[i]);
        i += 1;
    }
    h
};

/// [`Sha256::backend`]'s names for the two implementations.
const PORTABLE: &str = "portable";
#[cfg(target_arch = "x86_64")]
const SHANI: &str = "sha-ni";

#[derive(Clone, Copy)]
enum Backend {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Shani(shani::Shani),
}

impl Backend {
    fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = shani::Shani::detect() {
            return Backend::Shani(hw);
        }
        Backend::Portable
    }

    /// Folds a run of whole blocks into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        if blocks.is_empty() {
            return;
        }
        #[cfg(test)]
        BLOCKS_COMPRESSED.set(BLOCKS_COMPRESSED.get() + blocks.len() as u64);
        match self {
            Backend::Portable => compress_portable(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Backend::Shani(hw) => hw.compress(state, blocks),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Backend::Portable => PORTABLE,
            #[cfg(target_arch = "x86_64")]
            Backend::Shani(_) => SHANI,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Blocks compressed on this thread, for the exact cost gates.
    static BLOCKS_COMPRESSED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Blocks this thread has compressed so far (either kernel).
#[cfg(test)]
pub(crate) fn blocks_compressed() -> u64 {
    BLOCKS_COMPRESSED.get()
}

/// Streaming SHA-256 state.
///
/// # Examples
///
/// ```
/// use seg_crypto::sha256::Sha256;
/// use seg_crypto::digest::Digest;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// # fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
    backend: Backend,
}

impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never the state or the buffer: under HMAC they are the keyed
        // midstate and key-derived bytes, as secret as the key.
        f.debug_struct("Sha256")
            .field("backend", &self.backend.name())
            .field("buffered", &self.buffered)
            .field("total_len", &self.total_len)
            .finish()
    }
}

impl Sha256 {
    /// Creates a fresh hash state.
    #[must_use]
    pub fn new() -> Self {
        Sha256::with_backend(Backend::detect())
    }

    /// The portable implementation whatever the CPU: the reference the
    /// hardware kernel is tested against.
    #[cfg(test)]
    pub(crate) fn new_portable() -> Self {
        Sha256::with_backend(Backend::Portable)
    }

    fn with_backend(backend: Backend) -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
            backend,
        }
    }

    /// Which implementation [`Sha256::new`] selects on this CPU:
    /// `"sha-ni"` or `"portable"` (roughly 5x slower).
    #[must_use]
    pub fn backend() -> &'static str {
        Backend::detect().name()
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            self.compress_buffer();
        }
        let (blocks, rest) = data.as_chunks::<BLOCK_LEN>();
        self.backend.compress(&mut self.state, blocks);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finishes hashing and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros, 64-bit big-endian bit length — in this
        // block if the length still fits behind the buffered bytes, else
        // in one more.
        const LEN_AT: usize = BLOCK_LEN - 8;
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= LEN_AT {
            self.compress_buffer();
            self.buffer[..LEN_AT].fill(0);
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[LEN_AT..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress_buffer();
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Folds the (full) buffer into the state and empties it.
    fn compress_buffer(&mut self) {
        self.backend
            .compress(&mut self.state, std::slice::from_ref(&self.buffer));
        self.buffered = 0;
    }
}

fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Digest for Sha256 {
    const BLOCK_LEN: usize = BLOCK_LEN;
    const OUTPUT_LEN: usize = DIGEST_LEN;

    fn new() -> Self {
        Sha256::new()
    }

    fn update(&mut self, data: &[u8]) {
        Sha256::update(self, data);
    }

    fn finalize_into(self, out: &mut [u8]) {
        assert_eq!(out.len(), DIGEST_LEN);
        out.copy_from_slice(&self.finalize());
    }
}

/// [`Sha256`] pinned to the portable kernel, so the generic HMAC and
/// HKDF code can be run over both kernels.
#[cfg(test)]
#[derive(Clone)]
pub(crate) struct PortableSha256(Sha256);

#[cfg(test)]
impl Digest for PortableSha256 {
    const BLOCK_LEN: usize = BLOCK_LEN;
    const OUTPUT_LEN: usize = DIGEST_LEN;

    fn new() -> Self {
        PortableSha256(Sha256::new_portable())
    }

    fn update(&mut self, data: &[u8]) {
        self.0.update(data);
    }

    fn finalize_into(self, out: &mut [u8]) {
        Digest::finalize_into(self.0, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// What [`Sha256::new`] picks on this CPU, and the portable
    /// reference. On a CPU without the SHA extensions both are portable.
    const KERNELS: [fn() -> Sha256; 2] = [Sha256::new, Sha256::new_portable];

    fn digest_with(new: fn() -> Sha256, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = new();
        h.update(data);
        h.finalize()
    }

    #[test]
    fn empty_message() {
        for new in KERNELS {
            assert_eq!(
                hex(&digest_with(new, b"")),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
            );
        }
    }

    #[test]
    fn abc() {
        for new in KERNELS {
            assert_eq!(
                hex(&digest_with(new, b"abc")),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
            );
        }
    }

    #[test]
    fn two_block_message() {
        for new in KERNELS {
            assert_eq!(
                hex(&digest_with(
                    new,
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
                )),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
            );
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        for new in KERNELS {
            assert_eq!(
                hex(&digest_with(new, &data)),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
            );
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for new in KERNELS {
            for split in [0usize, 1, 17, 63, 64, 65, 100, 999, 1000] {
                let mut h = new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
            }
        }
    }

    #[test]
    fn byte_at_a_time_matches() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for new in KERNELS {
            let mut h = new();
            for &b in data.iter() {
                h.update(&[b]);
            }
            assert_eq!(h.finalize(), Sha256::digest(data));
        }
    }

    #[test]
    fn lengths_around_block_boundary() {
        // Padding logic is most fragile at 55/56/57 and 63/64/65 bytes.
        for new in KERNELS {
            for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128, 129] {
                let data = vec![0xa5u8; len];
                let d1 = digest_with(new, &data);
                let mut h = new();
                for chunk in data.chunks(7) {
                    h.update(chunk);
                }
                assert_eq!(h.finalize(), d1, "len {len}");
            }
        }
    }

    #[test]
    fn padding_takes_at_most_two_compressions() {
        for (len, blocks) in [
            (0usize, 1u64),
            (55, 1),
            (56, 2),
            (63, 2),
            (64, 2),
            (119, 2),
            (120, 3),
        ] {
            let before = blocks_compressed();
            let _ = Sha256::digest(&vec![0u8; len]);
            assert_eq!(blocks_compressed() - before, blocks, "len {len}");
        }
    }

    #[test]
    fn debug_shows_no_state() {
        // Under HMAC the state is a keyed midstate and the buffer holds
        // key-derived bytes: `{:?}` must print neither.
        let mut h = Sha256::new();
        h.update(b"key");
        assert_eq!(
            format!("{h:?}"),
            format!(
                "Sha256 {{ backend: {:?}, buffered: 3, total_len: 3 }}",
                Sha256::backend()
            )
        );
        let mut h = crate::sha512::Sha512::new();
        h.update(b"key");
        assert_eq!(format!("{h:?}"), "Sha512 { buffered: 3, total_len: 3 }");
    }

    #[test]
    fn backend_names_the_kernel_new_selects() {
        let name = Sha256::backend();
        assert!(name == "sha-ni" || name == PORTABLE);
        assert!(format!("{:?}", Sha256::new()).contains(name));
        assert!(format!("{:?}", Sha256::new_portable()).contains(PORTABLE));
    }

    /// Lengths on both sides of every boundary the code branches on:
    /// the block (64) and where the padding spills into one more (56).
    fn boundary_len() -> impl Strategy<Value = usize> {
        prop_oneof![
            (0usize..11).prop_map(|i| [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128][i]),
            0usize..301,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn shani_matches_portable(
            prefix_blocks in 0usize..4,
            len in boundary_len(),
            splits in proptest::collection::vec(0usize..500, 0..4),
            fill in any::<u8>(),
        ) {
            // Whole blocks first so the kernel sees multi-block runs and a
            // state other than the initial one, then the boundary tail.
            let total = prefix_blocks * BLOCK_LEN + len;
            let data: Vec<u8> = (0..total).map(|i| fill.wrapping_add((i * 13) as u8)).collect();
            let mut cuts: Vec<usize> = splits.iter().map(|s| s % (total + 1)).collect();
            cuts.sort_unstable();

            let [mut hw, mut reference] = KERNELS.map(|new| new());
            let mut at = 0;
            for cut in cuts.into_iter().chain([total]) {
                hw.update(&data[at..cut]);
                reference.update(&data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(hw.finalize(), reference.finalize());
        }
    }
}
