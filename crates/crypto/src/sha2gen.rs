//! Derivation of the SHA-2 round constants and initial hash values.
//!
//! FIPS 180-4 defines the constants as the leading fractional bits of the
//! square/cube roots of the first primes. Rather than transcribing 144
//! magic numbers (an easy place to introduce a silent bug), we derive them
//! with exact integer arithmetic and pin the result with known-answer tests
//! in [`crate::sha256`] / [`crate::sha512`].

/// Returns the first `N` prime numbers.
pub(crate) const fn first_primes<const N: usize>() -> [u64; N] {
    let mut primes = [0u64; N];
    let mut found = 0;
    let mut candidate = 2u64;
    while found < N {
        let mut is_prime = true;
        let mut i = 0;
        while i < found {
            if candidate.is_multiple_of(primes[i]) {
                is_prime = false;
                break;
            }
            i += 1;
        }
        if is_prime {
            primes[found] = candidate;
            found += 1;
        }
        candidate += 1;
    }
    primes
}

/// A minimal unsigned 256-bit integer, just enough for exact root extraction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct U256 {
    hi: u128,
    lo: u128,
}

impl U256 {
    pub(crate) const fn new(hi: u128, lo: u128) -> Self {
        U256 { hi, lo }
    }

    /// `self <= other` (the derived comparison is not `const`).
    const fn le(self, other: U256) -> bool {
        self.hi < other.hi || (self.hi == other.hi && self.lo <= other.lo)
    }
}

/// Full 256-bit product of two 128-bit integers.
const fn mul_wide(a: u128, b: u128) -> U256 {
    const MASK: u128 = (1u128 << 64) - 1;
    let (a0, a1) = (a & MASK, a >> 64);
    let (b0, b1) = (b & MASK, b >> 64);
    let p00 = a0 * b0;
    let p01 = a0 * b1;
    let p10 = a1 * b0;
    let p11 = a1 * b1;
    let (mid, mid_carry) = p01.overflowing_add(p10);
    let (lo, lo_carry) = p00.overflowing_add(mid << 64);
    let hi = p11 + (mid >> 64) + ((mid_carry as u128) << 64) + lo_carry as u128;
    U256 { hi, lo }
}

/// `x * x` as a 256-bit value (`x` unrestricted).
const fn square(x: u128) -> U256 {
    mul_wide(x, x)
}

/// `x^3` as a 256-bit value. Requires `x < 2^85` so the result fits.
const fn cube(x: u128) -> U256 {
    debug_assert!(x < 1u128 << 85);
    let x2 = mul_wide(x, x);
    let lo_part = mul_wide(x2.lo, x);
    // x2.hi * x fits in u128: x2.hi < 2^(170-128) = 2^42, x < 2^85.
    let hi_part = x2.hi * x;
    U256 {
        hi: lo_part.hi + hi_part,
        lo: lo_part.lo,
    }
}

/// Largest `x` with `x^2 <= target`.
const fn isqrt_u256(target: U256) -> u128 {
    let mut lo = 0u128;
    let mut hi = 1u128 << 85;
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if square(mid).le(target) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Largest `x` with `x^3 <= target`.
const fn icbrt_u256(target: U256) -> u128 {
    let mut lo = 0u128;
    let mut hi = 1u128 << 85;
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if cube(mid).le(target) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// First 32 fractional bits of `sqrt(p)`.
pub(crate) const fn sqrt_frac32(p: u64) -> u32 {
    // sqrt(p) * 2^32 = sqrt(p * 2^64)
    (isqrt_u256(U256::new(0, (p as u128) << 64)) & 0xffff_ffff) as u32
}

/// First 32 fractional bits of `cbrt(p)`.
pub(crate) const fn cbrt_frac32(p: u64) -> u32 {
    // cbrt(p) * 2^32 = cbrt(p * 2^96)
    (icbrt_u256(U256::new(0, (p as u128) << 96)) & 0xffff_ffff) as u32
}

/// First 64 fractional bits of `sqrt(p)`.
pub(crate) const fn sqrt_frac64(p: u64) -> u64 {
    // sqrt(p) * 2^64 = sqrt(p * 2^128)
    (isqrt_u256(U256::new(p as u128, 0)) & 0xffff_ffff_ffff_ffff) as u64
}

/// First 64 fractional bits of `cbrt(p)`.
pub(crate) const fn cbrt_frac64(p: u64) -> u64 {
    // cbrt(p) * 2^64 = cbrt(p * 2^192); p * 2^192 has hi limb p << 64.
    (icbrt_u256(U256::new((p as u128) << 64, 0)) & 0xffff_ffff_ffff_ffff) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primes_are_correct() {
        assert_eq!(first_primes::<10>(), [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
        let p80 = first_primes::<80>();
        assert_eq!(p80.len(), 80);
        assert_eq!(p80[63], 311);
        assert_eq!(p80[79], 409);
    }

    #[test]
    fn known_sha256_leading_constants() {
        // Widely known values: h0 = frac(sqrt(2)), k0 = frac(cbrt(2)).
        assert_eq!(sqrt_frac32(2), 0x6a09_e667);
        assert_eq!(sqrt_frac32(3), 0xbb67_ae85);
        assert_eq!(cbrt_frac32(2), 0x428a_2f98);
    }

    #[test]
    fn known_sha512_leading_constants() {
        assert_eq!(sqrt_frac64(2), 0x6a09_e667_f3bc_c908);
        assert_eq!(cbrt_frac64(2), 0x428a_2f98_d728_ae22);
    }

    #[test]
    fn mul_wide_matches_native_for_small_inputs() {
        let cases = [
            (0u128, 0u128),
            (1, u64::MAX as u128),
            (u64::MAX as u128, u64::MAX as u128),
            (12345678901234567890, 9876543210987654321),
        ];
        for (a, b) in cases {
            let got = mul_wide(a, b);
            let expect = a.checked_mul(b).expect("fits in u128");
            assert_eq!(got, U256::new(0, expect));
        }
    }

    #[test]
    fn mul_wide_high_part() {
        // (2^127) * 2 = 2^128 -> hi = 1, lo = 0.
        assert_eq!(mul_wide(1u128 << 127, 2), U256::new(1, 0));
    }

    #[test]
    fn roots_are_exact_floors() {
        for p in first_primes::<20>() {
            let s = isqrt_u256(U256::new(0, (p as u128) << 64));
            assert!(square(s).le(U256::new(0, (p as u128) << 64)));
            assert!(!square(s + 1).le(U256::new(0, (p as u128) << 64)));
            let c = icbrt_u256(U256::new(0, (p as u128) << 96));
            assert!(cube(c).le(U256::new(0, (p as u128) << 96)));
            assert!(!cube(c + 1).le(U256::new(0, (p as u128) << 96)));
        }
    }
}
