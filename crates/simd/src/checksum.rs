//! CRC-32 kernels (IEEE 802.3: reflected, polynomial `0xEDB88320`) — the
//! checksum every `.slsnap` section and every wire frame carries.
//!
//! * **Scalar** — one table lookup per byte. It is the oracle the fold is
//!   tested against, and the only path under
//!   [`SimdLevel::Scalar`](crate::SimdLevel::Scalar), off x86-64, and for
//!   inputs shorter than one 64-byte block.
//! * **Every level above `Scalar`: the 128-bit fold** — the
//!   carry-less-multiply fold of Gopal et al., "Fast CRC Computation for
//!   Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009): four
//!   128-bit lanes fold 64 bytes per step, one lane folds each remaining 16
//!   bytes, a Barrett reduction takes the 128-bit remainder to 32 bits, and
//!   the last `len % 16` bytes continue on the scalar loop from that value.
//!
//! Both tiers compute the same function of the bytes (the polynomial is the
//! same; only the order of the algebra differs), so an image or frame never
//! depends on the host or level that checksummed it.

use crate::scalar;

/// Extend `crc`, the finished CRC-32 of the bytes before `bytes` (0 for
/// none), over `bytes`: `crc32_update(crc32_update(0, a), b)` is the
/// checksum of `a` followed by `b`.
///
/// The level is read once per call from
/// [`effective_level`](crate::effective_level); above `Scalar` the
/// carry-less-multiply fold runs when the CPU has `pclmulqdq` and at least
/// 64 bytes are given.
///
/// # Examples
///
/// ```
/// use slide_simd::crc32_update;
/// assert_eq!(crc32_update(0, b"123456789"), 0xCBF4_3926);
/// assert_eq!(crc32_update(crc32_update(0, b"1234"), b"56789"), 0xCBF4_3926);
/// ```
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64
        && crate::effective_level() != crate::SimdLevel::Scalar
        && std::arch::is_x86_feature_detected!("pclmulqdq")
    {
        // SAFETY: `pclmulqdq`, the only feature the fold enables, was
        // detected just above.
        return unsafe { clmul::crc32_update(crc, bytes) };
    }
    scalar::crc32_update(crc, bytes)
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use crate::scalar;
    use core::arch::x86_64::*;

    // Fold constants in the bit-reflected domain (the Intel paper's `k_i`):
    // `x^n mod P(x)`, reflected over 32 bits and shifted left by one. A
    // 128-bit lane folded forward by `d` bits multiplies its low (earlier)
    // half by `x^(d+32)` and its high half by `x^(d-32)`.
    const K1: i64 = 0x1_5444_2bd4; // x^(512+32): d = 64 bytes, four lanes ahead
    const K2: i64 = 0x1_c6e4_1596; // x^(512-32)
    const K3: i64 = 0x1_7519_97d0; // x^(128+32): d = 16 bytes, the next lane
    const K4: i64 = 0x0_ccaa_009e; // x^(128-32)
    const K5: i64 = 0x1_63cd_6124; // x^64: 96 -> 64 bits

    // Barrett reduction 64 -> 32 bits: P(x) and mu = floor(x^64 / P(x)),
    // each reflected over 33 bits.
    const P_REFLECTED: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Fold `x` across the distance `k` encodes and add the lane found there.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    #[inline]
    fn load(lane: &[u8; 16]) -> __m128i {
        // SAFETY: an unaligned 16-byte load from a 16-byte array.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// The first 64-byte block starts four lanes, `crc` (the checksum so
    /// far) folded into the first. They fold over every further 64-byte
    /// block, collapse into one, and that one folds over the remaining whole
    /// 16-byte lanes. The result is reduced to a CRC and the scalar loop runs
    /// over what is left.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
        let (blocks, rest) = bytes.as_chunks::<64>();
        let Some((first, blocks)) = blocks.split_first() else {
            return scalar::crc32_update(crc, bytes);
        };
        let (l, _) = first.as_chunks::<16>();
        let seed = _mm_cvtsi32_si128(!crc as i32);
        let mut x = [
            _mm_xor_si128(load(&l[0]), seed),
            load(&l[1]),
            load(&l[2]),
            load(&l[3]),
        ];
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks {
            let (l, _) = block.as_chunks::<16>();
            for (xi, li) in x.iter_mut().zip(l) {
                *xi = fold(*xi, k1k2, load(li));
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(fold(fold(x[0], k3k4, x[1]), k3k4, x[2]), k3k4, x[3]);
        let (lanes, tail) = rest.as_chunks::<16>();
        for lane in lanes {
            acc = fold(acc, k3k4, load(lane));
        }

        // 128 -> 96 bits (low half times x^(128-32)), then 96 -> 64 (low 32
        // bits times x^64).
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        acc = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        );
        acc = _mm_xor_si128(
            _mm_srli_si128::<4>(acc),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
        );
        // Barrett: q = (acc mod x^32) · mu, remainder = acc + (q mod x^32) · P.
        let poly_mu = _mm_set_epi64x(MU, P_REFLECTED);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), poly_mu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), poly_mu);
        let reg = (_mm_cvtsi128_si64(_mm_xor_si128(acc, qp)) >> 32) as u32;
        scalar::crc32_update(!reg, tail)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// `x^n mod P(x)` for the normal-order polynomial `0x04C11DB7`.
        fn x_pow_mod_p(n: u32) -> u64 {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r & 1 << 32 != 0 {
                    r ^= 0x1_04C1_1DB7;
                }
            }
            r
        }

        fn reflect(v: u64, bits: u32) -> u64 {
            (0..bits).fold(0, |o, i| o | (v >> i & 1) << (bits - 1 - i))
        }

        #[test]
        fn fold_constants_derive_from_the_polynomial() {
            let k = |n: u32| (reflect(x_pow_mod_p(n), 32) << 1) as i64;
            assert_eq!(K1, k(512 + 32));
            assert_eq!(K2, k(512 - 32));
            assert_eq!(K3, k(128 + 32));
            assert_eq!(K4, k(128 - 32));
            assert_eq!(K5, k(64));
            assert_eq!(P_REFLECTED, reflect(0x1_04C1_1DB7, 33) as i64);
            // floor(x^64 / P(x)) by long division over GF(2).
            let (mut rem, mut q) = (1u128 << 64, 0u64);
            for shift in (0..=32).rev() {
                if rem >> (32 + shift) & 1 == 1 {
                    rem ^= 0x1_04C1_1DB7u128 << shift;
                    q |= 1 << shift;
                }
            }
            assert_eq!(MU, reflect(q, 33) as i64);
        }
    }
}
