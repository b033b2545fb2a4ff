//! SHA-512 (FIPS 180-4), required by Ed25519 (RFC 8032).

use crate::digest::Digest;
use crate::sha2gen;

/// Digest length in bytes.
pub const DIGEST_LEN: usize = 64;
/// Internal block length in bytes.
pub const BLOCK_LEN: usize = 128;

/// Round constants: the first 64 fractional bits of the cube roots of the
/// first 80 primes.
const K: [u64; 80] = {
    let primes = sha2gen::first_primes::<80>();
    let mut k = [0u64; 80];
    let mut i = 0;
    while i < 80 {
        k[i] = sha2gen::cbrt_frac64(primes[i]);
        i += 1;
    }
    k
};

/// Initial state: the first 64 fractional bits of the square roots of the
/// first 8 primes.
const H0: [u64; 8] = {
    let primes = sha2gen::first_primes::<8>();
    let mut h = [0u64; 8];
    let mut i = 0;
    while i < 8 {
        h[i] = sha2gen::sqrt_frac64(primes[i]);
        i += 1;
    }
    h
};

/// Streaming SHA-512 state.
///
/// # Examples
///
/// ```
/// use seg_crypto::sha512::Sha512;
///
/// let digest = Sha512::digest(b"abc");
/// assert_eq!(digest.len(), 64);
/// ```
#[derive(Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u128,
}

impl std::fmt::Debug for Sha512 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never the state or the buffer (see `Sha256`'s `Debug`).
        f.debug_struct("Sha512")
            .field("buffered", &self.buffered)
            .field("total_len", &self.total_len)
            .finish()
    }
}

impl Sha512 {
    /// Creates a fresh hash state.
    #[must_use]
    pub fn new() -> Self {
        Sha512 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while data.len() >= BLOCK_LEN {
            let (block, rest) = data.split_at(BLOCK_LEN);
            let mut b = [0u8; BLOCK_LEN];
            b.copy_from_slice(block);
            self.compress(&b);
            data = rest;
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Finishes hashing and returns the 64-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update_padding(&[0x80]);
        while self.buffered != 112 {
            self.update_padding(&[0]);
        }
        self.update_padding(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(8).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha512::new();
        h.update(data);
        h.finalize()
    }

    fn update_padding(&mut self, data: &[u8]) {
        for &byte in data {
            self.buffer[self.buffered] = byte;
            self.buffered += 1;
            if self.buffered == BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
    }

    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut w = [0u64; 80];
        for (i, chunk) in block.chunks_exact(8).enumerate() {
            w[i] = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
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
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

impl Default for Sha512 {
    fn default() -> Self {
        Sha512::new()
    }
}

impl Digest for Sha512 {
    const BLOCK_LEN: usize = BLOCK_LEN;
    const OUTPUT_LEN: usize = DIGEST_LEN;

    fn new() -> Self {
        Sha512::new()
    }

    fn update(&mut self, data: &[u8]) {
        Sha512::update(self, data);
    }

    fn finalize_into(self, out: &mut [u8]) {
        assert_eq!(out.len(), DIGEST_LEN);
        out.copy_from_slice(&self.finalize());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha512::digest(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&Sha512::digest(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn two_block_message() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                    hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        let msg: Vec<u8> = msg
            .iter()
            .copied()
            .filter(|b| !b.is_ascii_whitespace())
            .collect();
        assert_eq!(
            hex(&Sha512::digest(&msg)),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018\
             501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 253) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 128, 129, 1000, 4096] {
            let mut h = Sha512::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha512::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn lengths_around_block_boundary() {
        for len in [0usize, 1, 110, 111, 112, 113, 127, 128, 129, 255, 256, 257] {
            let data = vec![0x5au8; len];
            let d1 = Sha512::digest(&data);
            let mut h = Sha512::new();
            for chunk in data.chunks(13) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
