//! Randomness plumbing.
//!
//! All key and IV generation in the workspace goes through the
//! [`SecureRandom`] trait so tests and benchmarks can substitute a
//! deterministic generator while production paths use the OS-seeded one.
//!
//! # The production generator
//!
//! [`SystemRng`] is a zero-sized handle to a **per-thread DRBG seeded
//! from the OS once**: an IV or a nonce is a few dozen nanoseconds of
//! hashing, not an `open`/`read`/`close` of `/dev/urandom` (three
//! syscalls a draw, several draws a request, before this generator).
//!
//! * **PRF: HMAC-SHA-256 in counter mode** (the SP 800-108 shape).
//!   Chosen over AES-CTR because [`Hmac<Sha256>`] is what this crate can
//!   reach at hardware speed through safe code: `Sha256::new()` already
//!   dispatches to SHA-NI, a keyed state is built once per refill and
//!   cloned per block, and it degrades to the portable code unchanged.
//!   The AES-NI kernel, by contrast, is private to [`gcm`](crate::gcm)
//!   and fused with GHASH, and the standalone [`Aes`](crate::aes::Aes) is
//!   the table-based one — slower, and its lookups are indexed by the key,
//!   which is the last thing an RNG's key should be.
//! * **Fast key erasure.** A refill computes `HMAC(key, counter)` for
//!   counters `0..=15`: block 0 overwrites the key, blocks 1–15 become
//!   480 bytes of buffered output, and every buffered byte is zeroed as
//!   it is handed out. By the time a caller sees an output, neither the
//!   key that produced it nor the output itself exists in the generator:
//!   a later compromise of the thread's state reveals nothing returned
//!   earlier.
//! * **Seeding.** On a thread's first draw 32 bytes are read from the
//!   OS source (`/dev/urandom`) and folded into the key as
//!   `HMAC(key, seed)`; the same fold runs again with fresh OS bytes after
//!   every 1 MiB of output. A thread that makes 10 000 draws reads the OS
//!   once. If the OS source cannot be read the draw **panics**: a key
//!   generator without entropy must not start, and there is no fallback
//!   to clocks or addresses.

use std::cell::RefCell;

use rand::{Rng, SeedableRng};

use crate::hmac::{hmac_sha256, Hmac};
use crate::sha256::Sha256;

/// A source of cryptographically strong random bytes.
pub trait SecureRandom {
    /// Fills `out` with random bytes.
    fn fill(&mut self, out: &mut [u8]);

    /// Returns a random array.
    fn array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill(&mut out);
        out
    }
}

/// OS-seeded randomness: a handle to the calling thread's DRBG (see the
/// [module docs](self)).
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemRng;

impl SystemRng {
    /// Creates a handle to the thread-local CSPRNG.
    #[must_use]
    pub fn new() -> Self {
        SystemRng
    }
}

impl SecureRandom for SystemRng {
    /// # Panics
    ///
    /// Panics if the OS entropy source cannot be read when the thread's
    /// generator needs its seed (first draw, and once per MiB of
    /// output).
    fn fill(&mut self, out: &mut [u8]) {
        DRBG.with_borrow_mut(|drbg| drbg.fill(out));
    }
}

const KEY_LEN: usize = 32;
/// Output bytes one refill buffers (15 HMAC blocks).
const BUF_LEN: usize = 15 * 32;
/// Output after which the OS source is read again.
const RESEED_AFTER: usize = 1 << 20;

thread_local! {
    static DRBG: RefCell<Drbg> = const { RefCell::new(Drbg::unseeded()) };
}

/// The per-thread generator behind [`SystemRng`].
struct Drbg {
    key: [u8; KEY_LEN],
    /// Output not yet handed out sits in `buf[used..]`; `buf[..used]` is
    /// already zeroed.
    buf: [u8; BUF_LEN],
    used: usize,
    /// Output bytes the current seed may still produce; zero before the
    /// first seed.
    budget: usize,
}

impl Drbg {
    const fn unseeded() -> Drbg {
        Drbg {
            key: [0; KEY_LEN],
            buf: [0; BUF_LEN],
            used: BUF_LEN,
            budget: 0,
        }
    }

    fn fill(&mut self, mut out: &mut [u8]) {
        while !out.is_empty() {
            if self.used == BUF_LEN {
                self.refill();
            }
            let n = out.len().min(BUF_LEN - self.used);
            let (now, later) = out.split_at_mut(n);
            let handed = &mut self.buf[self.used..self.used + n];
            now.copy_from_slice(handed);
            handed.fill(0);
            self.used += n;
            out = later;
        }
    }

    /// Replaces the key and the buffer with fresh PRF output, folding in
    /// OS entropy first when the seed's budget is spent.
    fn refill(&mut self) {
        if self.budget == 0 {
            self.key = hmac_sha256(&self.key, &os_entropy());
            self.budget = RESEED_AFTER;
        }
        self.budget = self.budget.saturating_sub(BUF_LEN);
        let prf = Hmac::<Sha256>::new(&self.key);
        self.key = prf.mac_parts(&[&[0]]);
        for (counter, block) in (1u8..).zip(self.buf.chunks_exact_mut(32)) {
            block.copy_from_slice(&prf.mac_parts(&[&[counter]]));
        }
        self.used = 0;
    }
}

#[cfg(test)]
thread_local! {
    /// How often this thread read the OS source.
    static OS_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// 32 bytes from the OS entropy source itself.
///
/// # Panics
///
/// Panics if `/dev/urandom` cannot be opened or read.
fn os_entropy() -> [u8; KEY_LEN] {
    use std::io::Read;
    #[cfg(test)]
    OS_READS.with(|reads| reads.set(reads.get() + 1));
    let mut seed = [0u8; KEY_LEN];
    std::fs::File::open("/dev/urandom")
        .and_then(|mut source| source.read_exact(&mut seed))
        .expect("the OS entropy source (/dev/urandom) must be readable to generate keys");
    seed
}

/// Deterministic randomness for tests and reproducible benchmarks.
///
/// Never use this for real keys: the entire stream is determined by a
/// 64-bit seed.
#[derive(Debug)]
pub struct DeterministicRng(rand::rngs::StdRng);

impl DeterministicRng {
    /// Creates a generator whose output is fully determined by `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        DeterministicRng(rand::rngs::StdRng::seed_from_u64(seed))
    }
}

impl SecureRandom for DeterministicRng {
    fn fill(&mut self, out: &mut [u8]) {
        self.0.fill_bytes(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_rng_reproduces() {
        let mut a = DeterministicRng::seeded(7);
        let mut b = DeterministicRng::seeded(7);
        assert_eq!(a.array::<32>(), b.array::<32>());
        let mut c = DeterministicRng::seeded(8);
        assert_ne!(a.array::<32>(), c.array::<32>());
    }

    /// Runs `f` on a thread of its own, i.e. on a generator nobody has
    /// drawn from.
    fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::spawn(f).join().unwrap()
    }

    #[test]
    fn threads_do_not_share_a_stream() {
        let first_kib = || on_fresh_thread(|| SystemRng::new().array::<1024>());
        assert_ne!(first_kib(), first_kib());
    }

    #[test]
    fn ten_thousand_draws_read_the_os_once() {
        let reads = on_fresh_thread(|| {
            assert_eq!(OS_READS.get(), 0, "no draw, no read");
            let mut rng = SystemRng::new();
            for _ in 0..10_000 {
                let _iv = rng.array::<12>();
            }
            OS_READS.get()
        });
        assert_eq!(reads, 1);
    }

    #[test]
    fn output_crosses_a_reseed_without_repeating_a_block() {
        let (blocks, reads) = on_fresh_thread(|| {
            let mut rng = SystemRng::new();
            // 1 MiB + 64 KiB in draws that straddle refills (480 is not
            // a multiple of 32 * 7).
            let mut blocks = std::collections::HashSet::new();
            let mut total = 0usize;
            while total < RESEED_AFTER + (64 << 10) {
                let draw = rng.array::<224>();
                total += draw.len();
                for block in draw.chunks_exact(32) {
                    assert!(blocks.insert(block.to_vec()), "a 32-byte block repeated");
                }
            }
            (blocks.len(), OS_READS.get())
        });
        assert_eq!(reads, 2, "the seed, and one reseed after 1 MiB");
        assert!(blocks > RESEED_AFTER / 32);
    }

    #[test]
    fn handed_out_bytes_and_their_key_are_gone() {
        on_fresh_thread(|| {
            let mut rng = SystemRng::new();
            let first = rng.array::<40>();
            DRBG.with_borrow(|drbg| {
                assert_eq!(drbg.used, 40);
                assert!(
                    drbg.buf[..40].iter().all(|&b| b == 0),
                    "erased on the way out"
                );
                // The key in place now cannot regenerate what was handed
                // out: the PRF block it yields differs from it.
                let again = Hmac::<Sha256>::new(&drbg.key).mac_parts(&[&[1]]);
                assert_ne!(again[..], first[..32]);
            });
            // Any draw size works, refills included.
            let mut big = vec![0u8; 3 * BUF_LEN + 7];
            rng.fill(&mut big);
            assert!(big.chunks(32).all(|c| c.iter().any(|&b| b != 0)));
        });
    }

    #[test]
    fn system_rng_is_not_constant() {
        let mut rng = SystemRng::new();
        let a = rng.array::<32>();
        let b = rng.array::<32>();
        assert_ne!(a, b, "two 256-bit draws collided; rng is broken");
    }
}
