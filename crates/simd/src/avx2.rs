//! AVX2 + FMA (256-bit, 8-lane) kernel implementations.
//!
//! These mirror the AVX-512 paths at half register width, providing a useful
//! middle tier on hosts without AVX-512 and a second point for the Table 4
//! style ISA ablation.
//!
//! # Safety
//!
//! Every function here is `#[target_feature(enable = "avx2,fma")]` and must
//! only be called after `is_x86_feature_detected!("avx2")` and `("fma")`
//! succeed; the dispatcher in [`crate::kernels`] guarantees this.

#![allow(unsafe_op_in_unsafe_fn)]

use crate::hashing::{DwtaSources, DWTA_EMPTY_BIN, DWTA_NO_SOURCE};
use crate::kernels::AdamStep;
use core::arch::x86_64::*;

const LANES: usize = 8;

#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum256(v: __m256) -> f32 {
    let hi = _mm256_extractf128_ps::<1>(v);
    let lo = _mm256_castps256_ps128(v);
    let sum4 = _mm_add_ps(lo, hi);
    let shuf = _mm_movehdup_ps(sum4);
    let sum2 = _mm_add_ps(sum4, shuf);
    let hi2 = _mm_movehl_ps(shuf, sum2);
    let sum1 = _mm_add_ss(sum2, hi2);
    _mm_cvtss_f32(sum1)
}

#[target_feature(enable = "avx2,fma")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 2 * LANES <= n {
        let x0 = _mm256_loadu_ps(pa.add(i));
        let y0 = _mm256_loadu_ps(pb.add(i));
        acc0 = _mm256_fmadd_ps(x0, y0, acc0);
        let x1 = _mm256_loadu_ps(pa.add(i + LANES));
        let y1 = _mm256_loadu_ps(pb.add(i + LANES));
        acc1 = _mm256_fmadd_ps(x1, y1, acc1);
        i += 2 * LANES;
    }
    while i + LANES <= n {
        let x = _mm256_loadu_ps(pa.add(i));
        let y = _mm256_loadu_ps(pb.add(i));
        acc0 = _mm256_fmadd_ps(x, y, acc0);
        i += LANES;
    }
    let mut total = hsum256(_mm256_add_ps(acc0, acc1));
    while i < n {
        total += *pa.add(i) * *pb.add(i);
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2,fma")]
pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let va = _mm256_set1_ps(alpha);
    let mut i = 0usize;
    while i + LANES <= n {
        let xv = _mm256_loadu_ps(px.add(i));
        let yv = _mm256_loadu_ps(py.add(i));
        _mm256_storeu_ps(py.add(i), _mm256_fmadd_ps(va, xv, yv));
        i += LANES;
    }
    while i < n {
        *py.add(i) += alpha * *px.add(i);
        i += 1;
    }
}

#[target_feature(enable = "avx2,fma")]
pub unsafe fn scale(alpha: f32, x: &mut [f32]) {
    let n = x.len();
    let px = x.as_mut_ptr();
    let va = _mm256_set1_ps(alpha);
    let mut i = 0usize;
    while i + LANES <= n {
        let xv = _mm256_loadu_ps(px.add(i));
        _mm256_storeu_ps(px.add(i), _mm256_mul_ps(va, xv));
        i += LANES;
    }
    while i < n {
        *px.add(i) *= alpha;
        i += 1;
    }
}

#[target_feature(enable = "avx2,fma")]
pub unsafe fn add(x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let mut i = 0usize;
    while i + LANES <= n {
        let xv = _mm256_loadu_ps(px.add(i));
        let yv = _mm256_loadu_ps(py.add(i));
        _mm256_storeu_ps(py.add(i), _mm256_add_ps(xv, yv));
        i += LANES;
    }
    while i < n {
        *py.add(i) += *px.add(i);
        i += 1;
    }
}

#[target_feature(enable = "avx2,fma")]
pub unsafe fn sum(x: &[f32]) -> f32 {
    let n = x.len();
    let px = x.as_ptr();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + LANES <= n {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(px.add(i)));
        i += LANES;
    }
    let mut total = hsum256(acc);
    while i < n {
        total += *px.add(i);
        i += 1;
    }
    total
}

/// Rows per block in the multi-row gather kernels; also the prefetch
/// distance (see the AVX-512 sibling for the rationale — at 8 f32 lanes one
/// prefetch per row every *other* step would suffice, but redundant
/// prefetches to the same line are nearly free and keep the loop uniform).
const GATHER_BLOCK: usize = 4;

/// Dot one 4-row gather block against `x` (shared body of the gathered
/// scoring kernel and the strided gemv): one accumulator per row, scalar
/// tail, and — when `next` is given — prefetch of the next block's rows at
/// the matching column offset.
///
/// # Safety
///
/// Every pointer in `p` (and `next`, if any) must be valid for `x.len()`
/// f32 reads.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn block_dot4(
    p: [*const f32; GATHER_BLOCK],
    next: Option<[*const f32; GATHER_BLOCK]>,
    x: &[f32],
) -> [f32; GATHER_BLOCK] {
    let cols = x.len();
    let px = x.as_ptr();
    let mut acc = [_mm256_setzero_ps(); GATHER_BLOCK];
    let mut i = 0usize;
    while i + LANES <= cols {
        if let Some(np) = next {
            for q in np {
                _mm_prefetch::<_MM_HINT_T0>(q.add(i) as *const i8);
            }
        }
        let xv = _mm256_loadu_ps(px.add(i));
        for k in 0..GATHER_BLOCK {
            acc[k] = _mm256_fmadd_ps(_mm256_loadu_ps(p[k].add(i)), xv, acc[k]);
        }
        i += LANES;
    }
    let mut sums = [0.0_f32; GATHER_BLOCK];
    while i < cols {
        let xv = *px.add(i);
        for k in 0..GATHER_BLOCK {
            sums[k] += *p[k].add(i) * xv;
        }
        i += 1;
    }
    for k in 0..GATHER_BLOCK {
        sums[k] += hsum256(acc[k]);
    }
    sums
}

/// Multi-row gathered scoring with interleaved accumulators and next-block
/// prefetch: `out[i] = rows[i] · x`.
///
/// # Safety
///
/// Every `rows[i]` must be valid for `x.len()` f32 reads.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn score_rows(rows: &[*const f32], x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(rows.len(), out.len());
    let cols = x.len();
    let n = rows.len();
    let mut r = 0usize;
    while r + GATHER_BLOCK <= n {
        let p = [rows[r], rows[r + 1], rows[r + 2], rows[r + 3]];
        let next = if r + 2 * GATHER_BLOCK <= n {
            Some([rows[r + 4], rows[r + 5], rows[r + 6], rows[r + 7]])
        } else {
            None
        };
        let sums = block_dot4(p, next, x);
        out[r..r + GATHER_BLOCK].copy_from_slice(&sums);
        r += GATHER_BLOCK;
    }
    while r < n {
        out[r] = dot(core::slice::from_raw_parts(rows[r], cols), x);
        r += 1;
    }
}

/// Fused backward over gathered rows: one pass per 4-row block doing
/// `dx += deltas[k] * W[k]` and `grad[k] += deltas[k] * scale * h`. No
/// software prefetch, as in the AVX-512 sibling.
///
/// # Safety
///
/// `w_rows[i]` valid for `h.len()` reads, `g_rows[i]` for `h.len()`
/// reads+writes, `dx` disjoint from every gathered row.
#[target_feature(enable = "avx2,fma")]
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
    let n = w_rows.len();
    let ph = h.as_ptr();
    let pdx = dx.as_mut_ptr();
    let mut r = 0usize;
    while r + GATHER_BLOCK <= n {
        let wp = [w_rows[r], w_rows[r + 1], w_rows[r + 2], w_rows[r + 3]];
        let gp = [g_rows[r], g_rows[r + 1], g_rows[r + 2], g_rows[r + 3]];
        let mut vd = [_mm256_setzero_ps(); GATHER_BLOCK];
        let mut vg = [_mm256_setzero_ps(); GATHER_BLOCK];
        for k in 0..GATHER_BLOCK {
            vd[k] = _mm256_set1_ps(deltas[r + k]);
            vg[k] = _mm256_set1_ps(deltas[r + k] * scale);
        }
        let mut i = 0usize;
        while i + LANES <= cols {
            let hv = _mm256_loadu_ps(ph.add(i));
            let mut dxv = _mm256_loadu_ps(pdx.add(i));
            for k in 0..GATHER_BLOCK {
                dxv = _mm256_fmadd_ps(vd[k], _mm256_loadu_ps(wp[k].add(i)), dxv);
                let gv = _mm256_loadu_ps(gp[k].add(i));
                _mm256_storeu_ps(gp[k].add(i), _mm256_fmadd_ps(vg[k], hv, gv));
            }
            _mm256_storeu_ps(pdx.add(i), dxv);
            i += LANES;
        }
        while i < cols {
            let hv = *ph.add(i);
            let mut dxi = *pdx.add(i);
            for k in 0..GATHER_BLOCK {
                dxi += deltas[r + k] * *wp[k].add(i);
                *gp[k].add(i) += deltas[r + k] * scale * hv;
            }
            *pdx.add(i) = dxi;
            i += 1;
        }
        r += GATHER_BLOCK;
    }
    while r < n {
        axpy(deltas[r], core::slice::from_raw_parts(w_rows[r], cols), dx);
        axpy(
            deltas[r] * scale,
            h,
            core::slice::from_raw_parts_mut(g_rows[r], cols),
        );
        r += 1;
    }
}

/// Blocked full gemv over a strided row-major arena:
/// `out[r] = W[r] · x + bias[r]`, rows starting at `w + r * stride`.
///
/// # Safety
///
/// `w` valid for `(out.len() - 1) * stride + x.len()` reads.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn gemv(w: *const f32, stride: usize, x: &[f32], bias: &[f32], out: &mut [f32]) {
    debug_assert_eq!(bias.len(), out.len());
    debug_assert!(stride >= x.len());
    let cols = x.len();
    let n = out.len();
    let mut r = 0usize;
    while r + GATHER_BLOCK <= n {
        let p = [
            w.add(r * stride),
            w.add((r + 1) * stride),
            w.add((r + 2) * stride),
            w.add((r + 3) * stride),
        ];
        let next = if r + 2 * GATHER_BLOCK <= n {
            Some([
                w.add((r + 4) * stride),
                w.add((r + 5) * stride),
                w.add((r + 6) * stride),
                w.add((r + 7) * stride),
            ])
        } else {
            None
        };
        let sums = block_dot4(p, next, x);
        for k in 0..GATHER_BLOCK {
            out[r + k] = sums[k] + bias[r + k];
        }
        r += GATHER_BLOCK;
    }
    while r < n {
        out[r] = dot(core::slice::from_raw_parts(w.add(r * stride), cols), x) + bias[r];
        r += 1;
    }
}

/// Vectorized first-wins argmax. Lane-wise strict `>` keeps the earliest
/// index within a lane; the horizontal pass breaks cross-lane ties by index.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn argmax(x: &[f32]) -> Option<(usize, f32)> {
    let n = x.len();
    if n == 0 {
        return None;
    }
    if n < LANES {
        return crate::scalar::argmax(x);
    }
    let px = x.as_ptr();
    let mut best = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut best_idx = _mm256_setzero_si256();
    let mut cur_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let stride = _mm256_set1_epi32(LANES as i32);
    let mut i = 0usize;
    while i + LANES <= n {
        let v = _mm256_loadu_ps(px.add(i));
        let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(v, best);
        best = _mm256_blendv_ps(best, v, gt);
        best_idx = _mm256_blendv_epi8(best_idx, cur_idx, _mm256_castps_si256(gt));
        cur_idx = _mm256_add_epi32(cur_idx, stride);
        i += LANES;
    }
    let mut vals = [0.0_f32; LANES];
    let mut idxs = [0_i32; LANES];
    _mm256_storeu_ps(vals.as_mut_ptr(), best);
    _mm256_storeu_si256(idxs.as_mut_ptr() as *mut __m256i, best_idx);
    let mut best_v = f32::NEG_INFINITY;
    let mut best_i = 0usize;
    let mut found = false;
    for lane in 0..LANES {
        let (v, ix) = (vals[lane], idxs[lane] as usize);
        if v > best_v || (v == best_v && found && ix < best_i) {
            best_v = v;
            best_i = ix;
            found = true;
        } else if !found && v == f32::NEG_INFINITY && ix == 0 {
            // lane never matched anything (all-NaN column); keep defaults
        }
    }
    if !found {
        // Entire vector body was NaN; fall back to scalar semantics.
        return crate::scalar::argmax(x);
    }
    while i < n {
        let v = *px.add(i);
        if v > best_v {
            best_v = v;
            best_i = i;
        }
        i += 1;
    }
    Some((best_i, best_v))
}

#[target_feature(enable = "avx2,fma")]
pub unsafe fn adam_step(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], step: AdamStep) {
    debug_assert_eq!(w.len(), m.len());
    debug_assert_eq!(w.len(), v.len());
    debug_assert_eq!(w.len(), g.len());
    let n = w.len();
    let (pw, pm, pv, pg) = (w.as_mut_ptr(), m.as_mut_ptr(), v.as_mut_ptr(), g.as_ptr());
    let vb1 = _mm256_set1_ps(step.beta1);
    let vb2 = _mm256_set1_ps(step.beta2);
    let vo1 = _mm256_set1_ps(1.0 - step.beta1);
    let vo2 = _mm256_set1_ps(1.0 - step.beta2);
    let vlr = _mm256_set1_ps(step.lr_t);
    let veps = _mm256_set1_ps(step.eps);
    let mut i = 0usize;
    while i + LANES <= n {
        let gv = _mm256_loadu_ps(pg.add(i));
        let mv = _mm256_fmadd_ps(vb1, _mm256_loadu_ps(pm.add(i)), _mm256_mul_ps(vo1, gv));
        let g2 = _mm256_mul_ps(gv, gv);
        let vv = _mm256_fmadd_ps(vb2, _mm256_loadu_ps(pv.add(i)), _mm256_mul_ps(vo2, g2));
        _mm256_storeu_ps(pm.add(i), mv);
        _mm256_storeu_ps(pv.add(i), vv);
        let denom = _mm256_add_ps(_mm256_sqrt_ps(vv), veps);
        let upd = _mm256_div_ps(_mm256_mul_ps(vlr, mv), denom);
        let wv = _mm256_sub_ps(_mm256_loadu_ps(pw.add(i)), upd);
        _mm256_storeu_ps(pw.add(i), wv);
        i += LANES;
    }
    if i < n {
        crate::scalar::adam_step(&mut w[i..], &mut m[i..], &mut v[i..], &g[i..], step);
    }
}

/// See [`crate::simhash_sign_bits`]. One hyperplane word at a time: its 64
/// projections are 8 ymm accumulators that stay in registers across the
/// coordinate loop. A sign bit is moved into the f32 sign position with a
/// per-lane variable shift and xor-ed into `-v`, so each lane performs
/// exactly the scalar reference's `acc += ±v` in the same coordinate order.
///
/// # Safety
///
/// Requires AVX2 and `signs.len() == x.len() * bits_out.len()`.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn simhash_sign_bits(x: &[f32], signs: &[u64], bits_out: &mut [u64]) {
    debug_assert_eq!(signs.len(), x.len() * bits_out.len());
    let words = bits_out.len();
    let sign_bit = _mm256_set1_epi32(i32::MIN);
    // Lane `l` of byte `q` of a 32-bit half holds bit `8q + l`: shifting it
    // left by `31 - (8q + l)` lands it on the sign bit.
    let lane_shift = _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24);
    let shifts: [__m256i; 4] =
        core::array::from_fn(|q| _mm256_sub_epi32(lane_shift, _mm256_set1_epi32(8 * q as i32)));
    for (w, out) in bits_out.iter_mut().enumerate() {
        let mut acc = [_mm256_setzero_ps(); 8];
        for (i, &v) in x.iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            let neg = _mm256_castps_si256(_mm256_set1_ps(-v));
            let word = *signs.get_unchecked(i * words + w);
            let halves = [
                _mm256_set1_epi32(word as u32 as i32),
                _mm256_set1_epi32((word >> 32) as u32 as i32),
            ];
            for (q, a) in acc.iter_mut().enumerate() {
                let flip =
                    _mm256_and_si256(_mm256_sllv_epi32(halves[q / 4], shifts[q % 4]), sign_bit);
                *a = _mm256_add_ps(*a, _mm256_castsi256_ps(_mm256_xor_si256(neg, flip)));
            }
        }
        let zero = _mm256_setzero_ps();
        *out = 0;
        for (q, a) in acc.iter().enumerate() {
            let positive = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(*a, zero));
            *out |= (positive as u64) << (8 * q);
        }
    }
}

/// See [`crate::dwta_bin_codes`]. One ymm covers 8 slots: each source layer
/// is one masked gather folded into the running slot values, and the bin
/// winner is a horizontal max plus the first equal lane.
///
/// # Safety
///
/// Requires AVX2, `x.len() == sources.dim()` and `codes_out.len() ==
/// sources.bins()`.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn dwta_bin_codes(x: &[f32], sources: &DwtaSources, codes_out: &mut [u32]) {
    let bin_size = sources.bin_size();
    if !bin_size.is_multiple_of(LANES) {
        return crate::scalar::dwta_bin_codes(x, sources, codes_out);
    }
    let slots = sources.slots();
    let layers = sources.layers().as_ptr();
    let px = x.as_ptr();
    let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);
    // DWTA_NO_SOURCE is −1 as an i32; real coordinates are ≥ 0.
    let no_source = _mm256_set1_epi32(DWTA_NO_SOURCE as i32);
    for (b, code) in codes_out.iter_mut().enumerate() {
        let mut best = f32::NEG_INFINITY;
        *code = DWTA_EMPTY_BIN;
        for chunk in (0..bin_size).step_by(LANES) {
            let slot = layers.add(b * bin_size + chunk);
            let mut cur = neg_inf;
            for f in 0..sources.fan_in() {
                let idx = _mm256_loadu_si256(slot.add(f * slots) as *const __m256i);
                let live = _mm256_castsi256_ps(_mm256_cmpgt_epi32(idx, no_source));
                // Padding lanes are masked off (never dereferenced) and read
                // as −∞, which the fold below ignores.
                let v = _mm256_mask_i32gather_ps::<4>(neg_inf, px, idx, live);
                let take = _mm256_or_ps(
                    _mm256_cmp_ps::<_CMP_EQ_OQ>(cur, neg_inf),
                    _mm256_cmp_ps::<_CMP_GT_OQ>(v, cur),
                );
                cur = _mm256_blendv_ps(cur, v, take);
            }
            // NaN never wins: treat it as −∞ for the reduction.
            let vals = _mm256_blendv_ps(cur, neg_inf, _mm256_cmp_ps::<_CMP_UNORD_Q>(cur, cur));
            let m4 = _mm_max_ps(
                _mm256_castps256_ps128(vals),
                _mm256_extractf128_ps::<1>(vals),
            );
            let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
            let top = _mm_cvtss_f32(_mm_max_ss(m2, _mm_movehdup_ps(m2)));
            if top > best {
                best = top;
                let at = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_EQ_OQ>(vals, _mm256_set1_ps(top)));
                *code = (chunk as u32) + at.trailing_zeros();
            }
        }
    }
}
