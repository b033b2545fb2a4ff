//! AES-128/192/256 block cipher (FIPS 197).
//!
//! Encryption uses the classic 32-bit T-table formulation for throughput
//! (file contents stream through AES-GCM in the trusted file manager);
//! decryption uses a straightforward byte-wise inverse cipher since GCM
//! only ever needs the forward direction. The S-box and tables are derived
//! programmatically and pinned by FIPS 197 known-answer tests.

use std::sync::OnceLock;

use crate::CryptoError;

/// Block size in bytes.
pub const BLOCK_LEN: usize = 16;

struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    /// The four round tables: `te[i]` is `te[0]` rotated right by `8*i`.
    te: [[u32; 256]; 4],
}

fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// GF(2^8) multiplication with the AES reduction polynomial.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    acc
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        // Generate the S-box from its algebraic definition: multiplicative
        // inverse in GF(2^8) followed by the affine transform. The loop
        // walks generator powers (p = 3^i) alongside inverse powers
        // (q = 3^-i), so q is always p's inverse.
        let mut sbox = [0u8; 256];
        sbox[0] = 0x63;
        let mut p: u8 = 1;
        let mut q: u8 = 1;
        loop {
            p = p ^ (p << 1) ^ (if p & 0x80 != 0 { 0x1b } else { 0 });
            q ^= q << 1;
            q ^= q << 2;
            q ^= q << 4;
            if q & 0x80 != 0 {
                q ^= 0x09;
            }
            let xformed =
                q ^ q.rotate_left(1) ^ q.rotate_left(2) ^ q.rotate_left(3) ^ q.rotate_left(4);
            sbox[p as usize] = xformed ^ 0x63;
            if p == 1 {
                break;
            }
        }
        let mut inv_sbox = [0u8; 256];
        for (i, &s) in sbox.iter().enumerate() {
            inv_sbox[s as usize] = i as u8;
        }
        // Te0[x] packs the MixColumns contribution of an S-boxed byte:
        // bytes (2s, s, s, 3s) big-endian; Te1..Te3 are byte rotations,
        // precomputed so the round loop is pure lookups and XORs.
        let mut te = [[0u32; 256]; 4];
        for i in 0..256 {
            let s = sbox[i];
            let s2 = xtime(s);
            let s3 = s2 ^ s;
            let t0 = u32::from_be_bytes([s2, s, s, s3]);
            te[0][i] = t0;
            te[1][i] = t0.rotate_right(8);
            te[2][i] = t0.rotate_right(16);
            te[3][i] = t0.rotate_right(24);
        }
        Tables { sbox, inv_sbox, te }
    })
}

/// Supported AES key sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }

    fn key_words(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes192 => 6,
            KeySize::Aes256 => 8,
        }
    }
}

/// An expanded AES key, usable for block encryption and decryption.
///
/// # Examples
///
/// ```
/// use seg_crypto::aes::Aes;
///
/// # fn main() -> Result<(), seg_crypto::CryptoError> {
/// let aes = Aes::new(&[0u8; 16])?;
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_eq!(aes.decrypt_block(ct), [0u8; 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Aes {
    round_keys: Vec<u32>,
    rounds: usize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes").field("rounds", &self.rounds).finish()
    }
}

impl Aes {
    /// Expands `key` (16, 24, or 32 bytes).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] for any other key length.
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        let size = match key.len() {
            16 => KeySize::Aes128,
            24 => KeySize::Aes192,
            32 => KeySize::Aes256,
            _ => return Err(CryptoError::InvalidLength),
        };
        let t = tables();
        let nk = size.key_words();
        let rounds = size.rounds();
        let total_words = 4 * (rounds + 1);
        let mut w = Vec::with_capacity(total_words);
        for chunk in key.chunks_exact(4) {
            w.push(u32::from_be_bytes(chunk.try_into().expect("4 bytes")));
        }
        let mut rcon: u8 = 1;
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(t, temp.rotate_left(8)) ^ ((rcon as u32) << 24);
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(t, temp);
            }
            w.push(w[i - nk] ^ temp);
        }
        Ok(Aes {
            round_keys: w,
            rounds,
        })
    }

    /// The round keys as 16-byte blocks in cipher byte order, round 0
    /// first — the form `AESENC` consumes: the reference the hardware key
    /// schedule is tested against.
    #[cfg(all(test, target_arch = "x86_64"))]
    pub(crate) fn round_key_blocks(&self) -> impl Iterator<Item = [u8; BLOCK_LEN]> + '_ {
        self.round_keys.chunks_exact(4).map(|words| {
            let mut block = [0u8; BLOCK_LEN];
            for (bytes, word) in block.chunks_exact_mut(4).zip(words) {
                bytes.copy_from_slice(&word.to_be_bytes());
            }
            block
        })
    }

    /// Encrypts one 16-byte block.
    #[must_use]
    pub fn encrypt_block(&self, block: [u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        let t = tables();
        let rk = &self.round_keys;
        let mut s = [0u32; 4];
        for (j, word) in s.iter_mut().enumerate() {
            *word =
                u32::from_be_bytes(block[4 * j..4 * j + 4].try_into().expect("4 bytes")) ^ rk[j];
        }
        let te = &t.te;
        for round in 1..self.rounds {
            let mut next = [0u32; 4];
            for (j, slot) in next.iter_mut().enumerate() {
                let a0 = (s[j] >> 24) as usize;
                let a1 = ((s[(j + 1) % 4] >> 16) & 0xff) as usize;
                let a2 = ((s[(j + 2) % 4] >> 8) & 0xff) as usize;
                let a3 = (s[(j + 3) % 4] & 0xff) as usize;
                *slot = te[0][a0] ^ te[1][a1] ^ te[2][a2] ^ te[3][a3] ^ rk[4 * round + j];
            }
            s = next;
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey.
        let mut out = [0u8; BLOCK_LEN];
        for j in 0..4 {
            let b0 = t.sbox[(s[j] >> 24) as usize];
            let b1 = t.sbox[((s[(j + 1) % 4] >> 16) & 0xff) as usize];
            let b2 = t.sbox[((s[(j + 2) % 4] >> 8) & 0xff) as usize];
            let b3 = t.sbox[(s[(j + 3) % 4] & 0xff) as usize];
            let word = u32::from_be_bytes([b0, b1, b2, b3]) ^ rk[4 * self.rounds + j];
            out[4 * j..4 * j + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Decrypts one 16-byte block.
    #[must_use]
    pub fn decrypt_block(&self, block: [u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        let t = tables();
        let mut state = block;
        self.add_round_key(&mut state, self.rounds);
        for round in (1..self.rounds).rev() {
            inv_shift_rows(&mut state);
            inv_sub_bytes(t, &mut state);
            self.add_round_key(&mut state, round);
            inv_mix_columns(&mut state);
        }
        inv_shift_rows(&mut state);
        inv_sub_bytes(t, &mut state);
        self.add_round_key(&mut state, 0);
        state
    }

    fn add_round_key(&self, state: &mut [u8; BLOCK_LEN], round: usize) {
        for j in 0..4 {
            let word = self.round_keys[4 * round + j].to_be_bytes();
            for r in 0..4 {
                state[4 * j + r] ^= word[r];
            }
        }
    }
}

fn sub_word(t: &Tables, w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        t.sbox[b[0] as usize],
        t.sbox[b[1] as usize],
        t.sbox[b[2] as usize],
        t.sbox[b[3] as usize],
    ])
}

fn inv_sub_bytes(t: &Tables, state: &mut [u8; BLOCK_LEN]) {
    for b in state.iter_mut() {
        *b = t.inv_sbox[*b as usize];
    }
}

/// Inverse ShiftRows: row `r` rotates right by `r` positions.
/// Byte layout: `state[4*col + row]`.
fn inv_shift_rows(state: &mut [u8; BLOCK_LEN]) {
    let old = *state;
    for row in 1..4 {
        for col in 0..4 {
            state[4 * col + row] = old[4 * ((col + 4 - row) % 4) + row];
        }
    }
}

fn inv_mix_columns(state: &mut [u8; BLOCK_LEN]) {
    for col in 0..4 {
        let a0 = state[4 * col];
        let a1 = state[4 * col + 1];
        let a2 = state[4 * col + 2];
        let a3 = state[4 * col + 3];
        state[4 * col] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9);
        state[4 * col + 1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13);
        state[4 * col + 2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11);
        state[4 * col + 3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex");
        }
        out
    }

    #[test]
    fn sbox_known_entries() {
        let t = tables();
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
        assert_eq!(t.inv_sbox[0x63], 0x00);
        // S-box must be a permutation.
        let mut seen = [false; 256];
        for &s in t.sbox.iter() {
            assert!(!seen[s as usize]);
            seen[s as usize] = true;
        }
    }

    // FIPS 197 Appendix C.1.
    #[test]
    fn fips197_aes128() {
        let key: Vec<u8> = (0u8..16).collect();
        let pt = unhex16("00112233445566778899aabbccddeeff");
        let aes = Aes::new(&key).expect("valid key");
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct, unhex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    // FIPS 197 Appendix C.2.
    #[test]
    fn fips197_aes192() {
        let key: Vec<u8> = (0u8..24).collect();
        let pt = unhex16("00112233445566778899aabbccddeeff");
        let aes = Aes::new(&key).expect("valid key");
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct, unhex16("dda97ca4864cdfe06eaf70a0ec0d7191"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    // FIPS 197 Appendix C.3.
    #[test]
    fn fips197_aes256() {
        let key: Vec<u8> = (0u8..32).collect();
        let pt = unhex16("00112233445566778899aabbccddeeff");
        let aes = Aes::new(&key).expect("valid key");
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct, unhex16("8ea2b7ca516745bfeafc49904b496089"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn rejects_bad_key_lengths() {
        for len in [0usize, 1, 15, 17, 23, 25, 31, 33, 64] {
            assert_eq!(
                Aes::new(&vec![0u8; len]).unwrap_err(),
                CryptoError::InvalidLength,
                "len {len}"
            );
        }
    }

    #[test]
    fn roundtrip_random_blocks() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for key_len in [16usize, 24, 32] {
            let mut key = vec![0u8; key_len];
            rng.fill(&mut key[..]);
            let aes = Aes::new(&key).expect("valid key");
            for _ in 0..50 {
                let block: [u8; 16] = rng.random();
                assert_eq!(aes.decrypt_block(aes.encrypt_block(block)), block);
            }
        }
    }

    #[test]
    fn gmul_matches_known_products() {
        assert_eq!(gmul(0x57, 0x83), 0xc1);
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xff), 0);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes::new(&[0u8; 16]).expect("valid key");
        let dbg = format!("{aes:?}");
        assert!(dbg.contains("rounds"));
        assert!(!dbg.contains("round_keys"));
    }
}
