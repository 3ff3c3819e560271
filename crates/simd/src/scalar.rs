//! Portable scalar reference implementations of every kernel.
//!
//! These are the semantics against which the AVX2/AVX-512 paths are tested,
//! and the "Naive SLIDE"/"without AVX-512" code path of the paper's Table 4.
//! They are written as simple indexed loops; we deliberately do *not* rely on
//! the auto-vectorizer-friendly iterator forms so that forcing
//! `SimdLevel::Scalar` measures honest scalar throughput.

use crate::hashing::{DwtaSources, DWTA_EMPTY_BIN, DWTA_NO_SOURCE};
use crate::kernels::AdamStep;

#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0_f32;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for i in 0..x.len() {
        y[i] += alpha * x[i];
    }
}

#[inline]
pub fn scale(alpha: f32, x: &mut [f32]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

#[inline]
pub fn add(x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for i in 0..x.len() {
        y[i] += x[i];
    }
}

#[inline]
pub fn sum(x: &[f32]) -> f32 {
    let mut acc = 0.0_f32;
    for &v in x {
        acc += v;
    }
    acc
}

/// First-wins argmax: returns the smallest index attaining the maximum.
/// NaN values never win a comparison.
#[inline]
pub fn argmax(x: &[f32]) -> Option<(usize, f32)> {
    if x.is_empty() {
        return None;
    }
    let mut best = f32::NEG_INFINITY;
    let mut best_idx = 0usize;
    let mut seen_finite = false;
    for (i, &v) in x.iter().enumerate() {
        if v > best || !seen_finite && !v.is_nan() {
            best = v;
            best_idx = i;
            seen_finite = true;
        }
    }
    Some((best_idx, best))
}

/// SimHash reference: up to four hyperplane words (256 projections) per pass
/// over `x`, each projection summing `±x[i]` over the non-zero coordinates
/// in ascending `i` — the order every vector level reproduces. The 64 adds
/// of a word test independent bits (`word >> b`, not a running `bits >>= 1`),
/// which leaves the compiler free to use the target's baseline vector unit
/// for them; this is the only path non-x86_64 targets have.
pub fn simhash_sign_bits(x: &[f32], signs: &[u64], bits_out: &mut [u64]) {
    let words = bits_out.len();
    for (block, out) in bits_out.chunks_mut(4).enumerate() {
        let mut acc = [[0.0_f32; 64]; 4];
        let acc = &mut acc[..out.len()];
        for (i, &v) in x.iter().enumerate() {
            if v != 0.0 {
                let row = &signs[i * words + 4 * block..][..acc.len()];
                for (acc_w, &word) in acc.iter_mut().zip(row) {
                    for (b, slot) in acc_w.iter_mut().enumerate() {
                        *slot += if (word >> b) & 1 == 1 { v } else { -v };
                    }
                }
            }
        }
        for (acc_w, o) in acc.iter().zip(out) {
            *o = 0;
            for (b, &a) in acc_w.iter().enumerate() {
                *o |= ((a > 0.0) as u64) << b;
            }
        }
    }
}

/// DWTA reference: fold each slot's sources in map order, then take the
/// first strict maximum of the bin.
pub fn dwta_bin_codes(x: &[f32], sources: &DwtaSources, codes_out: &mut [u32]) {
    let (slots, bin_size) = (sources.slots(), sources.bin_size());
    let layers = sources.layers();
    for (b, code) in codes_out.iter_mut().enumerate() {
        let mut best = f32::NEG_INFINITY;
        *code = DWTA_EMPTY_BIN;
        for lane in 0..bin_size {
            let slot = b * bin_size + lane;
            let mut cur = f32::NEG_INFINITY;
            for f in 0..sources.fan_in() {
                let src = layers[f * slots + slot];
                if src == DWTA_NO_SOURCE {
                    break;
                }
                let v = x[src as usize];
                if cur == f32::NEG_INFINITY || v > cur {
                    cur = v;
                }
            }
            if cur > best {
                best = cur;
                *code = lane as u32;
            }
        }
    }
}

/// Multi-row gathered scoring: `out[i] = rows[i] · x`. Rows are walked in
/// 4-row blocks with one accumulator per row so the compiler can interleave
/// the independent chains; each row still sums in index order, making this
/// bit-identical to a per-row [`dot`] loop (the property suite relies on
/// that).
///
/// # Safety
///
/// Every `rows[i]` must be valid for `x.len()` f32 reads for the duration of
/// the call (HOGWILD-racy reads are fine).
pub unsafe fn score_rows(rows: &[*const f32], x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(rows.len(), out.len());
    let cols = x.len();
    let n = rows.len();
    let mut r = 0usize;
    while r + 4 <= n {
        let (p0, p1, p2, p3) = (rows[r], rows[r + 1], rows[r + 2], rows[r + 3]);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0_f32, 0.0_f32, 0.0_f32, 0.0_f32);
        for (i, &xv) in x.iter().enumerate() {
            a0 += unsafe { *p0.add(i) } * xv;
            a1 += unsafe { *p1.add(i) } * xv;
            a2 += unsafe { *p2.add(i) } * xv;
            a3 += unsafe { *p3.add(i) } * xv;
        }
        out[r] = a0;
        out[r + 1] = a1;
        out[r + 2] = a2;
        out[r + 3] = a3;
        r += 4;
    }
    while r < n {
        out[r] = dot(unsafe { core::slice::from_raw_parts(rows[r], cols) }, x);
        r += 1;
    }
}

/// Fused per-row backward pass: for every gathered row `i`,
/// `dx += deltas[i] * W[i]` and `grad[i] += deltas[i] * scale * h` in one
/// sweep over the columns, so each weight row is read exactly once.
///
/// # Safety
///
/// `w_rows[i]` must be valid for `h.len()` reads and `g_rows[i]` for
/// `h.len()` reads+writes; `dx` must not alias any gathered row (HOGWILD
/// races on the gradient rows themselves are the documented benign kind).
pub unsafe fn backward_rows(
    w_rows: &[*const f32],
    g_rows: &[*mut f32],
    deltas: &[f32],
    scale: f32,
    h: &[f32],
    dx: &mut [f32],
) {
    debug_assert_eq!(w_rows.len(), g_rows.len());
    debug_assert_eq!(w_rows.len(), deltas.len());
    debug_assert_eq!(h.len(), dx.len());
    let cols = h.len();
    for r in 0..w_rows.len() {
        let d = deltas[r];
        let gc = d * scale;
        let (wp, gp) = (w_rows[r], g_rows[r]);
        for i in 0..cols {
            dx[i] += d * unsafe { *wp.add(i) };
            unsafe { *gp.add(i) += gc * h[i] };
        }
    }
}

/// Blocked full gemv over a strided row-major matrix:
/// `out[r] = W[r] · x + bias[r]` for every row, where row `r` starts at
/// `w + r * stride` (`stride >= x.len()` allows cache-line row padding).
///
/// # Safety
///
/// `w` must be valid for `(rows - 1) * stride + x.len()` reads where
/// `rows = out.len()`.
pub unsafe fn gemv(w: *const f32, stride: usize, x: &[f32], bias: &[f32], out: &mut [f32]) {
    debug_assert_eq!(bias.len(), out.len());
    debug_assert!(stride >= x.len());
    for (r, o) in out.iter_mut().enumerate() {
        *o = dot(
            unsafe { core::slice::from_raw_parts(w.add(r * stride), x.len()) },
            x,
        ) + bias[r];
    }
}

/// Byte-indexed remainders of the reflected IEEE CRC-32 polynomial
/// `0xEDB88320`, built in const context.
static CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 reference: one table lookup per byte. `crc` is the finished
/// checksum of whatever came before `bytes` (0 for nothing).
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[inline]
pub fn adam_step(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], step: AdamStep) {
    debug_assert_eq!(w.len(), m.len());
    debug_assert_eq!(w.len(), v.len());
    debug_assert_eq!(w.len(), g.len());
    let AdamStep {
        lr_t,
        beta1,
        beta2,
        eps,
    } = step;
    let one_minus_b1 = 1.0 - beta1;
    let one_minus_b2 = 1.0 - beta2;
    for i in 0..w.len() {
        let gi = g[i];
        let mi = beta1 * m[i] + one_minus_b1 * gi;
        let vi = beta2 * v[i] + one_minus_b2 * gi * gi;
        m[i] = mi;
        v[i] = vi;
        w[i] -= lr_t * mi / (vi.sqrt() + eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn argmax_first_wins_on_ties() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), Some((1, 5.0)));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[-3.0]), Some((0, -3.0)));
    }

    #[test]
    fn argmax_ignores_nan() {
        assert_eq!(argmax(&[f32::NAN, 2.0, 1.0]), Some((1, 2.0)));
        // All-NaN input: index 0 reported with NEG_INFINITY sentinel never set,
        // falls back to first element position.
        let (idx, _) = argmax(&[f32::NAN, f32::NAN]).unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn adam_single_step_matches_formula() {
        let mut w = vec![1.0_f32];
        let mut m = vec![0.0_f32];
        let mut v = vec![0.0_f32];
        let g = vec![0.5_f32];
        let step = AdamStep {
            lr_t: 0.1,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        };
        adam_step(&mut w, &mut m, &mut v, &g, step);
        let mi = 0.1 * 0.5_f32;
        let vi = 0.001 * 0.25_f32;
        let expect = 1.0 - 0.1 * mi / (vi.sqrt() + 1e-8);
        assert!((w[0] - expect).abs() < 1e-5, "w={} expect={}", w[0], expect);
        assert!((m[0] - mi).abs() < 1e-7);
        // `1.0 - beta2` in f32 differs from the 0.001 literal by ~1e-9.
        assert!((v[0] - vi).abs() < 1e-8);
    }
}
