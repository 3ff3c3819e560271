//! AVX-512F (512-bit, 16-lane) kernel implementations — the paper's target
//! ISA (§4.2–§4.3).
//!
//! Tails are handled with AVX-512 write/read masks (`__mmask16`), so even
//! ragged row lengths stay on the vector unit; this matters for SLIDE because
//! hidden widths (128, 200) are not always multiples of 64 floats.
//!
//! # Safety
//!
//! Every function is `#[target_feature(enable = "avx512f")]` and must only be
//! called after `is_x86_feature_detected!("avx512f")` succeeds; the dispatcher
//! in [`crate::kernels`] guarantees this.

#![allow(unsafe_op_in_unsafe_fn)]

use crate::hashing::{DwtaSources, DWTA_EMPTY_BIN, DWTA_NO_SOURCE};
use crate::kernels::AdamStep;
use core::arch::x86_64::*;

const LANES: usize = 16;

#[inline]
fn tail_mask(r: usize) -> __mmask16 {
    debug_assert!(r < LANES);
    ((1u32 << r) - 1) as __mmask16
}

#[target_feature(enable = "avx512f")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm512_setzero_ps();
    let mut acc1 = _mm512_setzero_ps();
    let mut acc2 = _mm512_setzero_ps();
    let mut acc3 = _mm512_setzero_ps();
    let mut i = 0usize;
    while i + 4 * LANES <= n {
        acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(pa.add(i)), _mm512_loadu_ps(pb.add(i)), acc0);
        acc1 = _mm512_fmadd_ps(
            _mm512_loadu_ps(pa.add(i + LANES)),
            _mm512_loadu_ps(pb.add(i + LANES)),
            acc1,
        );
        acc2 = _mm512_fmadd_ps(
            _mm512_loadu_ps(pa.add(i + 2 * LANES)),
            _mm512_loadu_ps(pb.add(i + 2 * LANES)),
            acc2,
        );
        acc3 = _mm512_fmadd_ps(
            _mm512_loadu_ps(pa.add(i + 3 * LANES)),
            _mm512_loadu_ps(pb.add(i + 3 * LANES)),
            acc3,
        );
        i += 4 * LANES;
    }
    while i + LANES <= n {
        acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(pa.add(i)), _mm512_loadu_ps(pb.add(i)), acc0);
        i += LANES;
    }
    if i < n {
        let k = tail_mask(n - i);
        let x = _mm512_maskz_loadu_ps(k, pa.add(i));
        let y = _mm512_maskz_loadu_ps(k, pb.add(i));
        acc0 = _mm512_fmadd_ps(x, y, acc0);
    }
    let acc = _mm512_add_ps(_mm512_add_ps(acc0, acc1), _mm512_add_ps(acc2, acc3));
    _mm512_reduce_add_ps(acc)
}

#[target_feature(enable = "avx512f")]
pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let va = _mm512_set1_ps(alpha);
    let mut i = 0usize;
    while i + LANES <= n {
        let xv = _mm512_loadu_ps(px.add(i));
        let yv = _mm512_loadu_ps(py.add(i));
        _mm512_storeu_ps(py.add(i), _mm512_fmadd_ps(va, xv, yv));
        i += LANES;
    }
    if i < n {
        let k = tail_mask(n - i);
        let xv = _mm512_maskz_loadu_ps(k, px.add(i));
        let yv = _mm512_maskz_loadu_ps(k, py.add(i));
        _mm512_mask_storeu_ps(py.add(i), k, _mm512_fmadd_ps(va, xv, yv));
    }
}

/// Rows per block in the multi-row gather kernels. Four interleaved
/// accumulators keep the FMA pipes busy without spilling zmm registers, and
/// one block is also the software-prefetch distance: while block `b` is
/// being consumed, block `b+1`'s rows are streamed into L1 at the matching
/// column offset (each 16-lane step covers exactly one 64-byte line per
/// row, so one `_mm_prefetch` per row per step stays one block ahead).
const GATHER_BLOCK: usize = 4;

/// Dot one 4-row gather block against `x` (shared body of the gathered
/// scoring kernel and the strided gemv): one accumulator per row, masked
/// tail, and — when `next` is given — prefetch of the next block's rows at
/// the matching column offset.
///
/// # Safety
///
/// Every pointer in `p` (and `next`, if any) must be valid for `x.len()`
/// f32 reads.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn block_dot4(
    p: [*const f32; GATHER_BLOCK],
    next: Option<[*const f32; GATHER_BLOCK]>,
    x: &[f32],
) -> [f32; GATHER_BLOCK] {
    let cols = x.len();
    let px = x.as_ptr();
    let mut acc = [_mm512_setzero_ps(); GATHER_BLOCK];
    let mut i = 0usize;
    while i + LANES <= cols {
        if let Some(np) = next {
            for q in np {
                _mm_prefetch::<_MM_HINT_T0>(q.add(i) as *const i8);
            }
        }
        let xv = _mm512_loadu_ps(px.add(i));
        for k in 0..GATHER_BLOCK {
            acc[k] = _mm512_fmadd_ps(_mm512_loadu_ps(p[k].add(i)), xv, acc[k]);
        }
        i += LANES;
    }
    if i < cols {
        let m = tail_mask(cols - i);
        let xv = _mm512_maskz_loadu_ps(m, px.add(i));
        for k in 0..GATHER_BLOCK {
            acc[k] = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, p[k].add(i)), xv, acc[k]);
        }
    }
    let mut sums = [0.0_f32; GATHER_BLOCK];
    for k in 0..GATHER_BLOCK {
        sums[k] = _mm512_reduce_add_ps(acc[k]);
    }
    sums
}

/// One `(row, vector)` pair in the order every lane of [`block_dot4`] sums
/// in: a single accumulator over 16-lane steps, the masked tail, then the
/// horizontal reduction. The gathered kernels use it for rows outside a full
/// block, so a row's score never depends on its position in the list.
///
/// # Safety
///
/// `a` and `b` must be valid for `cols` f32 reads.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn dot1(a: *const f32, b: *const f32, cols: usize) -> f32 {
    let mut acc = _mm512_setzero_ps();
    let mut i = 0usize;
    while i + LANES <= cols {
        acc = _mm512_fmadd_ps(_mm512_loadu_ps(a.add(i)), _mm512_loadu_ps(b.add(i)), acc);
        i += LANES;
    }
    if i < cols {
        let m = tail_mask(cols - i);
        acc = _mm512_fmadd_ps(
            _mm512_maskz_loadu_ps(m, a.add(i)),
            _mm512_maskz_loadu_ps(m, b.add(i)),
            acc,
        );
    }
    _mm512_reduce_add_ps(acc)
}

/// Multi-row gathered scoring with interleaved accumulators and next-block
/// prefetch: `out[i] = rows[i] · x`.
///
/// # Safety
///
/// Every `rows[i]` must be valid for `x.len()` f32 reads.
#[target_feature(enable = "avx512f")]
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
        out[r] = dot1(rows[r], x.as_ptr(), cols);
        r += 1;
    }
}

/// One weight row against many hidden vectors: `out[j] = w · h[samples[j]]`
/// (row `s` of `h` starts at `h + s * w.len()`). Four samples share each
/// 16-lane load of `w`; every pair sums exactly as [`score_rows`] sums that
/// row, so the logits are bit-identical to the per-sample gather.
///
/// # Safety
///
/// `h` must be valid for reads of every addressed sample row.
#[target_feature(enable = "avx512f")]
pub unsafe fn score_samples(w: &[f32], h: *const f32, samples: &[u32], out: &mut [f32]) {
    debug_assert_eq!(samples.len(), out.len());
    let cols = w.len();
    let pw = w.as_ptr();
    let n = samples.len();
    let at = |j: usize| h.add(samples[j] as usize * cols);
    let mut j = 0usize;
    while j + GATHER_BLOCK <= n {
        let p = [at(j), at(j + 1), at(j + 2), at(j + 3)];
        let mut acc = [_mm512_setzero_ps(); GATHER_BLOCK];
        let mut i = 0usize;
        while i + LANES <= cols {
            let wv = _mm512_loadu_ps(pw.add(i));
            for k in 0..GATHER_BLOCK {
                acc[k] = _mm512_fmadd_ps(wv, _mm512_loadu_ps(p[k].add(i)), acc[k]);
            }
            i += LANES;
        }
        if i < cols {
            let m = tail_mask(cols - i);
            let wv = _mm512_maskz_loadu_ps(m, pw.add(i));
            for k in 0..GATHER_BLOCK {
                acc[k] = _mm512_fmadd_ps(wv, _mm512_maskz_loadu_ps(m, p[k].add(i)), acc[k]);
            }
        }
        for k in 0..GATHER_BLOCK {
            out[j + k] = _mm512_reduce_add_ps(acc[k]);
        }
        j += GATHER_BLOCK;
    }
    while j < n {
        out[j] = dot1(pw, at(j), cols);
        j += 1;
    }
}

/// One weight row's backward over all of its samples, `w` loaded once per
/// 16-lane step: `g = Σ_j deltas[j]·scale·h[samples[j]]` (overwritten,
/// summed in list order from zero with the same fused step
/// [`backward_rows`] applies to a gradient row) and
/// `dx[samples[j]] += deltas[j]·w`.
///
/// # Safety
///
/// `h` must be valid for reads and `dx` for reads+writes of every addressed
/// sample row, and neither may overlap `w` or `g`.
#[target_feature(enable = "avx512f")]
pub unsafe fn backward_samples(
    w: &[f32],
    h: *const f32,
    dx: *mut f32,
    samples: &[u32],
    deltas: &[f32],
    scale: f32,
    g: &mut [f32],
) {
    debug_assert_eq!(samples.len(), deltas.len());
    debug_assert_eq!(w.len(), g.len());
    let cols = w.len();
    let (pw, pg) = (w.as_ptr(), g.as_mut_ptr());
    let mut i = 0usize;
    while i < cols {
        let m = if i + LANES <= cols {
            0xFFFF
        } else {
            tail_mask(cols - i)
        };
        let wv = _mm512_maskz_loadu_ps(m, pw.add(i));
        let mut gv = _mm512_setzero_ps();
        for (&s, &d) in samples.iter().zip(deltas) {
            let off = s as usize * cols + i;
            let hv = _mm512_maskz_loadu_ps(m, h.add(off));
            gv = _mm512_fmadd_ps(_mm512_set1_ps(d * scale), hv, gv);
            let dxv = _mm512_maskz_loadu_ps(m, dx.add(off));
            _mm512_mask_storeu_ps(dx.add(off), m, _mm512_fmadd_ps(_mm512_set1_ps(d), wv, dxv));
        }
        _mm512_mask_storeu_ps(pg.add(i), m, gv);
        i += LANES;
    }
}

/// Fused backward over gathered rows: one pass per 4-row block doing
/// `dx += deltas[k] * W[k]` and `grad[k] += deltas[k] * scale * h`, loading
/// `h` and `dx` once per block instead of once per row. No software
/// prefetch: every step already stores to four gradient rows, and prefetching
/// the next block's weight rows on top of that measured slower end to end
/// (DESIGN.md §6).
///
/// # Safety
///
/// `w_rows[i]` valid for `h.len()` reads, `g_rows[i]` for `h.len()`
/// reads+writes, `dx` disjoint from every gathered row.
#[target_feature(enable = "avx512f")]
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
        let mut vd = [_mm512_setzero_ps(); GATHER_BLOCK];
        let mut vg = [_mm512_setzero_ps(); GATHER_BLOCK];
        for k in 0..GATHER_BLOCK {
            vd[k] = _mm512_set1_ps(deltas[r + k]);
            vg[k] = _mm512_set1_ps(deltas[r + k] * scale);
        }
        let mut i = 0usize;
        while i + LANES <= cols {
            let hv = _mm512_loadu_ps(ph.add(i));
            let mut dxv = _mm512_loadu_ps(pdx.add(i));
            for k in 0..GATHER_BLOCK {
                dxv = _mm512_fmadd_ps(vd[k], _mm512_loadu_ps(wp[k].add(i)), dxv);
                let gv = _mm512_loadu_ps(gp[k].add(i));
                _mm512_storeu_ps(gp[k].add(i), _mm512_fmadd_ps(vg[k], hv, gv));
            }
            _mm512_storeu_ps(pdx.add(i), dxv);
            i += LANES;
        }
        if i < cols {
            let m = tail_mask(cols - i);
            let hv = _mm512_maskz_loadu_ps(m, ph.add(i));
            let mut dxv = _mm512_maskz_loadu_ps(m, pdx.add(i));
            for k in 0..GATHER_BLOCK {
                dxv = _mm512_fmadd_ps(vd[k], _mm512_maskz_loadu_ps(m, wp[k].add(i)), dxv);
                let gv = _mm512_maskz_loadu_ps(m, gp[k].add(i));
                _mm512_mask_storeu_ps(gp[k].add(i), m, _mm512_fmadd_ps(vg[k], hv, gv));
            }
            _mm512_mask_storeu_ps(pdx.add(i), m, dxv);
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
#[target_feature(enable = "avx512f")]
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

#[target_feature(enable = "avx512f")]
pub unsafe fn adam_step(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], step: AdamStep) {
    debug_assert_eq!(w.len(), m.len());
    debug_assert_eq!(w.len(), v.len());
    debug_assert_eq!(w.len(), g.len());
    let n = w.len();
    let (pw, pm, pv, pg) = (w.as_mut_ptr(), m.as_mut_ptr(), v.as_mut_ptr(), g.as_ptr());
    let vb1 = _mm512_set1_ps(step.beta1);
    let vb2 = _mm512_set1_ps(step.beta2);
    let vo1 = _mm512_set1_ps(1.0 - step.beta1);
    let vo2 = _mm512_set1_ps(1.0 - step.beta2);
    let vlr = _mm512_set1_ps(step.lr_t);
    let veps = _mm512_set1_ps(step.eps);
    let mut i = 0usize;
    while i + LANES <= n {
        let gv = _mm512_loadu_ps(pg.add(i));
        let mv = _mm512_fmadd_ps(vb1, _mm512_loadu_ps(pm.add(i)), _mm512_mul_ps(vo1, gv));
        let g2 = _mm512_mul_ps(gv, gv);
        let vv = _mm512_fmadd_ps(vb2, _mm512_loadu_ps(pv.add(i)), _mm512_mul_ps(vo2, g2));
        _mm512_storeu_ps(pm.add(i), mv);
        _mm512_storeu_ps(pv.add(i), vv);
        let denom = _mm512_add_ps(_mm512_sqrt_ps(vv), veps);
        let upd = _mm512_div_ps(_mm512_mul_ps(vlr, mv), denom);
        let wv = _mm512_sub_ps(_mm512_loadu_ps(pw.add(i)), upd);
        _mm512_storeu_ps(pw.add(i), wv);
        i += LANES;
    }
    if i < n {
        crate::scalar::adam_step(&mut w[i..], &mut m[i..], &mut v[i..], &g[i..], step);
    }
}

/// SimHash accumulation for `W` hyperplane words (`64 * W` projections, `4 *
/// W` zmm accumulators that stay in registers across the coordinate loop).
/// The 16-bit pieces of a sign word are used directly as `__mmask16`s to
/// pick `+v` or `-v` per lane, so each lane performs exactly the scalar
/// reference's `acc += ±v` in the same coordinate order.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn simhash_words<const W: usize>(
    x: &[f32],
    signs: *const u64,
    words: usize,
    out: &mut [u64],
) {
    let mut acc = [[_mm512_setzero_ps(); 4]; W];
    for (i, &v) in x.iter().enumerate() {
        if v == 0.0 {
            continue;
        }
        let pos = _mm512_set1_ps(v);
        let neg = _mm512_set1_ps(-v);
        let row = signs.add(i * words);
        for (j, acc_w) in acc.iter_mut().enumerate() {
            let word = *row.add(j);
            for (q, a) in acc_w.iter_mut().enumerate() {
                let k = (word >> (16 * q)) as __mmask16;
                *a = _mm512_add_ps(*a, _mm512_mask_blend_ps(k, neg, pos));
            }
        }
    }
    let zero = _mm512_setzero_ps();
    for (acc_w, o) in acc.iter().zip(out) {
        *o = 0;
        for (q, a) in acc_w.iter().enumerate() {
            *o |= (_mm512_cmp_ps_mask::<_CMP_GT_OQ>(*a, zero) as u64) << (16 * q);
        }
    }
}

/// See [`crate::simhash_sign_bits`].
///
/// # Safety
///
/// Requires AVX-512F and `signs.len() == x.len() * bits_out.len()`.
#[target_feature(enable = "avx512f")]
pub unsafe fn simhash_sign_bits(x: &[f32], signs: &[u64], bits_out: &mut [u64]) {
    debug_assert_eq!(signs.len(), x.len() * bits_out.len());
    let words = bits_out.len();
    let mut w = 0usize;
    // 4 words = 16 accumulators: K·L ≤ 256 (Text8's 225) is one pass over x.
    while w + 4 <= words {
        simhash_words::<4>(x, signs.as_ptr().add(w), words, &mut bits_out[w..w + 4]);
        w += 4;
    }
    while w < words {
        simhash_words::<1>(x, signs.as_ptr().add(w), words, &mut bits_out[w..w + 1]);
        w += 1;
    }
}

/// See [`crate::dwta_bin_codes`]. One zmm covers 16 slots: each source layer
/// is one masked gather folded into the running slot values, and the bin
/// winner is a horizontal max plus the first equal lane.
///
/// # Safety
///
/// Requires AVX-512F, `x.len() == sources.dim()` and `codes_out.len() ==
/// sources.bins()`.
#[target_feature(enable = "avx512f")]
pub unsafe fn dwta_bin_codes(x: &[f32], sources: &DwtaSources, codes_out: &mut [u32]) {
    let bin_size = sources.bin_size();
    if !bin_size.is_multiple_of(LANES) {
        return crate::scalar::dwta_bin_codes(x, sources, codes_out);
    }
    let slots = sources.slots();
    let layers = sources.layers().as_ptr();
    let px = x.as_ptr();
    let neg_inf = _mm512_set1_ps(f32::NEG_INFINITY);
    let no_source = _mm512_set1_epi32(DWTA_NO_SOURCE as i32);
    for (b, code) in codes_out.iter_mut().enumerate() {
        let mut best = f32::NEG_INFINITY;
        *code = DWTA_EMPTY_BIN;
        for chunk in (0..bin_size).step_by(LANES) {
            let slot = layers.add(b * bin_size + chunk);
            let mut cur = neg_inf;
            for f in 0..sources.fan_in() {
                let idx = _mm512_loadu_si512(slot.add(f * slots) as *const __m512i);
                let live = _mm512_cmpneq_epi32_mask(idx, no_source);
                // Padding lanes are masked off (never dereferenced) and read
                // as −∞, which the fold below ignores.
                let v = _mm512_mask_i32gather_ps::<4>(neg_inf, live, idx, px);
                let take = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(cur, neg_inf)
                    | _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, cur);
                cur = _mm512_mask_blend_ps(take, cur, v);
            }
            // NaN never wins: treat it as −∞ for the reduction.
            let vals =
                _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_UNORD_Q>(cur, cur), cur, neg_inf);
            let top = _mm512_reduce_max_ps(vals);
            if top > best {
                best = top;
                let at = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(vals, _mm512_set1_ps(top));
                *code = (chunk as u32) + at.trailing_zeros();
            }
        }
    }
}
