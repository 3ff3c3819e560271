//! Software brain-float16 (§4.4 of the paper).
//!
//! BF16 keeps f32's 8 exponent bits and truncates the mantissa to 7 bits, so
//! a bf16 is exactly the upper half of an IEEE-754 f32. The paper uses Cooper
//! Lake's native AVX512-BF16 instructions; we reproduce the *numerics*
//! bit-exactly in software (round-to-nearest-even narrowing, left-shift
//! widening) and the *memory behaviour* (half the parameter/activation
//! traffic) with AVX-512 integer kernels. Throughput gains are therefore
//! bandwidth-driven rather than FMA-driven — see EXPERIMENTS.md.
//!
//! Two training modes build on this module, matching the paper's Table 3:
//!
//! * **bf16 activations only** — activations are rounded through
//!   [`Bf16::from_f32`] while parameters stay f32 (paper mode 2),
//! * **bf16 weights + activations** — layer weights are stored as `u16`
//!   slices and updated through [`adam_step_bf16`] (paper mode 1).

use crate::policy::{effective_level, SimdLevel};
use crate::AdamStep;

/// A 16-bit brain float: the high half of an IEEE-754 single.
///
/// # Examples
///
/// ```
/// use slide_simd::Bf16;
/// let x = Bf16::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5); // 1.5 is exactly representable
/// assert!((Bf16::from_f32(0.1).to_f32() - 0.1).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bf16(u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0x0000);
    /// One.
    pub const ONE: Bf16 = Bf16(0x3F80);

    /// Convert from f32 with round-to-nearest-even (the IEEE narrowing the
    /// paper's BF16 hardware performs). NaNs stay NaN (quiet bit forced).
    #[inline]
    pub fn from_f32(x: f32) -> Bf16 {
        Bf16(f32_bits_to_bf16_rne(x.to_bits()))
    }

    /// Widen back to f32 (exact: appends 16 zero mantissa bits).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Raw bit pattern.
    #[inline]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Construct from a raw bit pattern.
    #[inline]
    pub fn from_bits(bits: u16) -> Bf16 {
        Bf16(bits)
    }
}

impl From<f32> for Bf16 {
    fn from(x: f32) -> Self {
        Bf16::from_f32(x)
    }
}

impl From<Bf16> for f32 {
    fn from(x: Bf16) -> Self {
        x.to_f32()
    }
}

impl PartialOrd for Bf16 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl std::fmt::Display for Bf16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[inline]
fn f32_bits_to_bf16_rne(bits: u32) -> u16 {
    if (bits & 0x7FFF_FFFF) > 0x7F80_0000 {
        // NaN: truncate and force the quiet bit so it stays NaN.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let rounding = 0x7FFF + ((bits >> 16) & 1);
    (bits.wrapping_add(rounding) >> 16) as u16
}

// ---------------------------------------------------------------------------
// Slice conversions
// ---------------------------------------------------------------------------

/// Narrow an f32 slice to bf16 bit patterns with round-to-nearest-even.
///
/// # Panics
///
/// Panics if `src.len() != dst.len()`.
#[inline]
pub fn f32_to_bf16_slice(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "f32_to_bf16_slice: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if effective_level() == SimdLevel::Avx512 {
        unsafe { x86::f32_to_bf16_slice(src, dst) };
        return;
    }
    let _ = effective_level();
    for i in 0..src.len() {
        dst[i] = f32_bits_to_bf16_rne(src[i].to_bits());
    }
}

/// Widen a bf16 bit-pattern slice to f32 (exact).
///
/// # Panics
///
/// Panics if `src.len() != dst.len()`.
#[inline]
pub fn bf16_to_f32_slice(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "bf16_to_f32_slice: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if effective_level() == SimdLevel::Avx512 {
        unsafe { x86::bf16_to_f32_slice(src, dst) };
        return;
    }
    for i in 0..src.len() {
        dst[i] = f32::from_bits((src[i] as u32) << 16);
    }
}

/// Round an f32 slice through bf16 precision in place (activation
/// quantization, paper mode 2: "BF16 only for activations").
#[inline]
pub fn quantize_f32_slice(x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if effective_level() == SimdLevel::Avx512 {
        unsafe { x86::quantize_f32_slice(x) };
        return;
    }
    for v in x.iter_mut() {
        *v = Bf16::from_f32(*v).to_f32();
    }
}

// ---------------------------------------------------------------------------
// bf16-weight kernels (paper mode 1: weights stored in 16 bits)
// ---------------------------------------------------------------------------

/// Inner product of bf16 weights against f32 activations (Algorithm 1 with a
/// bf16 weight matrix): weights are widened on the fly, halving weight-array
/// memory traffic.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot_bf16_f32(w: &[u16], x: &[f32]) -> f32 {
    assert_eq!(w.len(), x.len(), "dot_bf16_f32: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if effective_level() == SimdLevel::Avx512 {
        return unsafe { x86::dot_bf16_f32(w, x) };
    }
    dot_bf16_scalar(w, x)
}

/// Portable reference for [`dot_bf16_f32`] (also the `KernelSet` tier below
/// AVX-512, where no vector widen exists).
#[inline]
pub(crate) fn dot_bf16_scalar(w: &[u16], x: &[f32]) -> f32 {
    debug_assert_eq!(w.len(), x.len());
    let mut acc = 0.0_f32;
    for i in 0..w.len() {
        acc += f32::from_bits((w[i] as u32) << 16) * x[i];
    }
    acc
}

/// `y += alpha * widen(x)` with bf16 `x` (Algorithm 2 with bf16 weights).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn axpy_bf16_f32(alpha: f32, x: &[u16], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy_bf16_f32: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if effective_level() == SimdLevel::Avx512 {
        unsafe { x86::axpy_bf16_f32(alpha, x, y) };
        return;
    }
    axpy_bf16_scalar(alpha, x, y)
}

/// Portable reference for [`axpy_bf16_f32`].
#[inline]
pub(crate) fn axpy_bf16_scalar(alpha: f32, x: &[u16], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for i in 0..x.len() {
        y[i] += alpha * f32::from_bits((x[i] as u32) << 16);
    }
}

/// Multi-row gathered scoring over bf16 weight rows: `out[i] = rows[i] · x`
/// with on-the-fly widening. Portable reference; the AVX-512 tier lives in
/// the `x86` module and is selected through `KernelSet`.
///
/// # Safety
///
/// Every `rows[i]` must be valid for `x.len()` u16 reads.
pub(crate) unsafe fn score_rows_bf16_scalar(rows: &[*const u16], x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(rows.len(), out.len());
    let cols = x.len();
    for (o, &p) in out.iter_mut().zip(rows) {
        *o = dot_bf16_scalar(unsafe { core::slice::from_raw_parts(p, cols) }, x);
    }
}

/// Fused backward over gathered bf16 weight rows (gradients stay f32):
/// `dx += deltas[i] * widen(W[i])` and `grad[i] += deltas[i] * scale * h`.
///
/// # Safety
///
/// `w_rows[i]` valid for `h.len()` u16 reads, `g_rows[i]` for `h.len()` f32
/// reads+writes, `dx` disjoint from every gradient row.
pub(crate) unsafe fn backward_rows_bf16_scalar(
    w_rows: &[*const u16],
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
            dx[i] += d * f32::from_bits((unsafe { *wp.add(i) } as u32) << 16);
            unsafe { *gp.add(i) += gc * h[i] };
        }
    }
}

/// Fused ADAM step over bf16-stored weights: widen, update in f32 (moments
/// stay f32), narrow back with round-to-nearest-even.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn adam_step_bf16(w: &mut [u16], m: &mut [f32], v: &mut [f32], g: &[f32], step: AdamStep) {
    assert_eq!(w.len(), m.len(), "adam_step_bf16: m length mismatch");
    assert_eq!(w.len(), v.len(), "adam_step_bf16: v length mismatch");
    assert_eq!(w.len(), g.len(), "adam_step_bf16: g length mismatch");
    #[cfg(target_arch = "x86_64")]
    if effective_level() == SimdLevel::Avx512 {
        unsafe { x86::adam_step_bf16(w, m, v, g, step) };
        return;
    }
    adam_step_bf16_scalar(w, m, v, g, step);
}

#[inline]
fn adam_step_bf16_scalar(w: &mut [u16], m: &mut [f32], v: &mut [f32], g: &[f32], step: AdamStep) {
    let one_minus_b1 = 1.0 - step.beta1;
    let one_minus_b2 = 1.0 - step.beta2;
    for i in 0..w.len() {
        let gi = g[i];
        let mi = step.beta1 * m[i] + one_minus_b1 * gi;
        let vi = step.beta2 * v[i] + one_minus_b2 * gi * gi;
        m[i] = mi;
        v[i] = vi;
        let wi = f32::from_bits((w[i] as u32) << 16) - step.lr_t * mi / (vi.sqrt() + step.eps);
        w[i] = f32_bits_to_bf16_rne(wi.to_bits());
    }
}

// ---------------------------------------------------------------------------
// AVX-512 implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    #![allow(unsafe_op_in_unsafe_fn)]
    use super::AdamStep;
    use core::arch::x86_64::*;

    const LANES: usize = 16;

    /// Round 16 f32 lanes to bf16 bit patterns (RNE, NaN-preserving).
    ///
    /// The `target_feature` attribute matters: without it, a non-inlined
    /// instantiation would be compiled for the baseline target and LLVM
    /// would legalize the 512-bit ops into a slow scalar/128-bit emulation.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn round_lanes(v: __m512) -> __m256i {
        let bits = _mm512_castps_si512(v);
        let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(v, v);
        let lsb = _mm512_and_si512(_mm512_srli_epi32::<16>(bits), _mm512_set1_epi32(1));
        let bias = _mm512_add_epi32(lsb, _mm512_set1_epi32(0x7FFF));
        let rounded = _mm512_srli_epi32::<16>(_mm512_add_epi32(bits, bias));
        let nan_bits = _mm512_or_si512(_mm512_srli_epi32::<16>(bits), _mm512_set1_epi32(0x40));
        let sel = _mm512_mask_blend_epi32(nan, rounded, nan_bits);
        _mm512_cvtepi32_epi16(sel)
    }

    /// Widen 16 bf16 bit patterns to f32 lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn widen_lanes(p: *const u16) -> __m512 {
        let half = _mm256_loadu_si256(p as *const __m256i);
        let wide = _mm512_slli_epi32::<16>(_mm512_cvtepu16_epi32(half));
        _mm512_castsi512_ps(wide)
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn f32_to_bf16_slice(src: &[f32], dst: &mut [u16]) {
        let n = src.len();
        let ps = src.as_ptr();
        let pd = dst.as_mut_ptr();
        let mut i = 0usize;
        while i + LANES <= n {
            let v = _mm512_loadu_ps(ps.add(i));
            _mm256_storeu_si256(pd.add(i) as *mut __m256i, round_lanes(v));
            i += LANES;
        }
        while i < n {
            *pd.add(i) = super::f32_bits_to_bf16_rne((*ps.add(i)).to_bits());
            i += 1;
        }
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn bf16_to_f32_slice(src: &[u16], dst: &mut [f32]) {
        let n = src.len();
        let ps = src.as_ptr();
        let pd = dst.as_mut_ptr();
        let mut i = 0usize;
        while i + LANES <= n {
            _mm512_storeu_ps(pd.add(i), widen_lanes(ps.add(i)));
            i += LANES;
        }
        while i < n {
            *pd.add(i) = f32::from_bits((*ps.add(i) as u32) << 16);
            i += 1;
        }
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn quantize_f32_slice(x: &mut [f32]) {
        let n = x.len();
        let px = x.as_mut_ptr();
        let mut i = 0usize;
        while i + LANES <= n {
            let v = _mm512_loadu_ps(px.add(i));
            let narrowed = round_lanes(v);
            let wide = _mm512_slli_epi32::<16>(_mm512_cvtepu16_epi32(narrowed));
            _mm512_storeu_ps(px.add(i), _mm512_castsi512_ps(wide));
            i += LANES;
        }
        while i < n {
            *px.add(i) = super::Bf16::from_f32(*px.add(i)).to_f32();
            i += 1;
        }
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot_bf16_f32(w: &[u16], x: &[f32]) -> f32 {
        let n = w.len();
        let pw = w.as_ptr();
        let px = x.as_ptr();
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        let mut i = 0usize;
        while i + 2 * LANES <= n {
            acc0 = _mm512_fmadd_ps(widen_lanes(pw.add(i)), _mm512_loadu_ps(px.add(i)), acc0);
            acc1 = _mm512_fmadd_ps(
                widen_lanes(pw.add(i + LANES)),
                _mm512_loadu_ps(px.add(i + LANES)),
                acc1,
            );
            i += 2 * LANES;
        }
        while i + LANES <= n {
            acc0 = _mm512_fmadd_ps(widen_lanes(pw.add(i)), _mm512_loadu_ps(px.add(i)), acc0);
            i += LANES;
        }
        let mut total = _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
        while i < n {
            total += f32::from_bits((*pw.add(i) as u32) << 16) * *px.add(i);
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn axpy_bf16_f32(alpha: f32, x: &[u16], y: &mut [f32]) {
        let n = x.len();
        let px = x.as_ptr();
        let py = y.as_mut_ptr();
        let va = _mm512_set1_ps(alpha);
        let mut i = 0usize;
        while i + LANES <= n {
            let xv = widen_lanes(px.add(i));
            let yv = _mm512_loadu_ps(py.add(i));
            _mm512_storeu_ps(py.add(i), _mm512_fmadd_ps(va, xv, yv));
            i += LANES;
        }
        while i < n {
            *py.add(i) += alpha * f32::from_bits((*px.add(i) as u32) << 16);
            i += 1;
        }
    }

    /// Rows per block, also the prefetch distance (see
    /// [`crate::avx512`]'s `GATHER_BLOCK`). A bf16 row packs 32 weights per
    /// cache line, so each 16-lane step consumes half a line; prefetching
    /// every step simply touches each next-block line twice, which is
    /// harmless.
    const GATHER_BLOCK: usize = 4;

    /// Multi-row gathered scoring over bf16 rows with interleaved
    /// accumulators, on-the-fly widening, and next-block prefetch.
    ///
    /// # Safety
    ///
    /// Every `rows[i]` must be valid for `x.len()` u16 reads.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn score_rows_bf16(rows: &[*const u16], x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(rows.len(), out.len());
        let cols = x.len();
        let n = rows.len();
        let px = x.as_ptr();
        let mut r = 0usize;
        while r + GATHER_BLOCK <= n {
            let p = [rows[r], rows[r + 1], rows[r + 2], rows[r + 3]];
            let next = if r + 2 * GATHER_BLOCK <= n {
                Some([rows[r + 4], rows[r + 5], rows[r + 6], rows[r + 7]])
            } else {
                None
            };
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
                    acc[k] = _mm512_fmadd_ps(widen_lanes(p[k].add(i)), xv, acc[k]);
                }
                i += LANES;
            }
            let mut tails = [0.0_f32; GATHER_BLOCK];
            while i < cols {
                let xv = *px.add(i);
                for k in 0..GATHER_BLOCK {
                    tails[k] += f32::from_bits((*p[k].add(i) as u32) << 16) * xv;
                }
                i += 1;
            }
            for k in 0..GATHER_BLOCK {
                out[r + k] = _mm512_reduce_add_ps(acc[k]) + tails[k];
            }
            r += GATHER_BLOCK;
        }
        while r < n {
            out[r] = dot_bf16_f32(core::slice::from_raw_parts(rows[r], cols), x);
            r += 1;
        }
    }

    /// Fused backward over gathered bf16 weight rows (f32 gradient rows):
    /// one pass per 4-row block doing `dx += deltas[k] * widen(W[k])` and
    /// `grad[k] += deltas[k] * scale * h`. No software prefetch, as in the
    /// f32 sibling.
    ///
    /// # Safety
    ///
    /// `w_rows[i]` valid for `h.len()` u16 reads, `g_rows[i]` for `h.len()`
    /// f32 reads+writes, `dx` disjoint from every gradient row.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn backward_rows_bf16(
        w_rows: &[*const u16],
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
                    dxv = _mm512_fmadd_ps(vd[k], widen_lanes(wp[k].add(i)), dxv);
                    let gv = _mm512_loadu_ps(gp[k].add(i));
                    _mm512_storeu_ps(gp[k].add(i), _mm512_fmadd_ps(vg[k], hv, gv));
                }
                _mm512_storeu_ps(pdx.add(i), dxv);
                i += LANES;
            }
            while i < cols {
                let hv = *ph.add(i);
                let mut dxi = *pdx.add(i);
                for k in 0..GATHER_BLOCK {
                    dxi += deltas[r + k] * f32::from_bits((*wp[k].add(i) as u32) << 16);
                    *gp[k].add(i) += deltas[r + k] * scale * hv;
                }
                *pdx.add(i) = dxi;
                i += 1;
            }
            r += GATHER_BLOCK;
        }
        while r < n {
            axpy_bf16_f32(deltas[r], core::slice::from_raw_parts(w_rows[r], cols), dx);
            let g = core::slice::from_raw_parts_mut(g_rows[r], cols);
            let gc = deltas[r] * scale;
            for i in 0..cols {
                g[i] += gc * h[i];
            }
            r += 1;
        }
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn adam_step_bf16(
        w: &mut [u16],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        step: AdamStep,
    ) {
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
            let wv = _mm512_sub_ps(widen_lanes(pw.add(i)), upd);
            _mm256_storeu_si256(pw.add(i) as *mut __m256i, round_lanes(wv));
            i += LANES;
        }
        if i < n {
            super::adam_step_bf16_scalar(&mut w[i..], &mut m[i..], &mut v[i..], &g[i..], step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{set_policy, SimdPolicy};

    #[test]
    fn exact_values_roundtrip() {
        for x in [0.0_f32, 1.0, -1.0, 1.5, 0.5, 2.0, -0.25, 256.0] {
            assert_eq!(Bf16::from_f32(x).to_f32(), x, "{x}");
        }
    }

    #[test]
    fn known_rne_cases() {
        // 0x3F80_8000 is exactly halfway between 0x3F80 and 0x3F81: ties to even (down).
        assert_eq!(
            Bf16::from_f32(f32::from_bits(0x3F80_8000)).to_bits(),
            0x3F80
        );
        // 0x3F81_8000 halfway between 0x3F81 and 0x3F82: ties to even (up).
        assert_eq!(
            Bf16::from_f32(f32::from_bits(0x3F81_8000)).to_bits(),
            0x3F82
        );
        // Just above halfway rounds up.
        assert_eq!(
            Bf16::from_f32(f32::from_bits(0x3F80_8001)).to_bits(),
            0x3F81
        );
    }

    #[test]
    fn special_values_preserved() {
        assert_eq!(Bf16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
        assert_eq!(
            Bf16::from_f32(f32::NEG_INFINITY).to_f32(),
            f32::NEG_INFINITY
        );
        assert!(Bf16::from_f32(f32::NAN).to_f32().is_nan());
        assert_eq!(Bf16::from_f32(-0.0).to_bits(), 0x8000);
    }

    #[test]
    fn relative_error_bounded() {
        let mut x = 0.001_f32;
        while x < 1e6 {
            let err = (Bf16::from_f32(x).to_f32() - x).abs() / x;
            assert!(err <= 1.0 / 256.0, "x={x} err={err}");
            x *= 1.7;
        }
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        // Largest normal f32 is above the largest bf16-representable value's
        // midpoint, so RNE carries into the exponent and yields +inf.
        assert_eq!(Bf16::from_f32(f32::MAX).to_f32(), f32::INFINITY);
    }

    fn vals(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.37 - 3.0) * if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect()
    }

    fn with_level<R>(level: crate::SimdLevel, f: impl FnOnce() -> R) -> R {
        let _guard = crate::policy::test_guard();
        // Restore the prior policy (may be a forced SLIDE_SIMD CI leg).
        let prior = crate::policy::policy();
        set_policy(SimdPolicy::Force(level));
        let r = f();
        set_policy(prior);
        r
    }

    #[test]
    fn slice_conversion_vector_matches_scalar() {
        for n in [0usize, 1, 15, 16, 17, 33, 100] {
            let src = vals(n);
            let mut a = vec![0u16; n];
            let mut b = vec![0u16; n];
            with_level(crate::SimdLevel::Scalar, || f32_to_bf16_slice(&src, &mut a));
            with_level(crate::SimdLevel::Avx512, || f32_to_bf16_slice(&src, &mut b));
            assert_eq!(a, b, "narrow n={n}");
            let mut fa = vec![0f32; n];
            let mut fb = vec![0f32; n];
            with_level(crate::SimdLevel::Scalar, || bf16_to_f32_slice(&a, &mut fa));
            with_level(crate::SimdLevel::Avx512, || bf16_to_f32_slice(&a, &mut fb));
            assert_eq!(fa, fb, "widen n={n}");
        }
    }

    #[test]
    fn slice_conversion_handles_nan_lanes() {
        let mut src = vals(32);
        src[3] = f32::NAN;
        src[20] = f32::NAN;
        let mut a = vec![0u16; 32];
        let mut b = vec![0u16; 32];
        with_level(crate::SimdLevel::Scalar, || f32_to_bf16_slice(&src, &mut a));
        with_level(crate::SimdLevel::Avx512, || f32_to_bf16_slice(&src, &mut b));
        assert_eq!(a, b);
        assert!(Bf16::from_bits(a[3]).to_f32().is_nan());
    }

    #[test]
    fn quantize_in_place_matches_roundtrip() {
        let src = vals(50);
        let mut q = src.clone();
        quantize_f32_slice(&mut q);
        for i in 0..src.len() {
            assert_eq!(q[i], Bf16::from_f32(src[i]).to_f32(), "i={i}");
        }
    }

    #[test]
    fn dot_bf16_vector_matches_scalar() {
        for n in [0usize, 1, 16, 31, 64, 100] {
            let wf = vals(n);
            let x = vals(n).iter().map(|v| v * 0.5).collect::<Vec<_>>();
            let mut w = vec![0u16; n];
            f32_to_bf16_slice(&wf, &mut w);
            let a = with_level(crate::SimdLevel::Scalar, || dot_bf16_f32(&w, &x));
            let b = with_level(crate::SimdLevel::Avx512, || dot_bf16_f32(&w, &x));
            assert!(
                (a - b).abs() <= 1e-3 * (n.max(1) as f32),
                "n={n}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn axpy_bf16_vector_matches_scalar() {
        for n in [0usize, 1, 16, 31, 64] {
            let xf = vals(n);
            let mut x = vec![0u16; n];
            f32_to_bf16_slice(&xf, &mut x);
            let y0 = vals(n).iter().map(|v| v * 0.1).collect::<Vec<_>>();
            let mut ya = y0.clone();
            let mut yb = y0.clone();
            with_level(crate::SimdLevel::Scalar, || axpy_bf16_f32(1.3, &x, &mut ya));
            with_level(crate::SimdLevel::Avx512, || axpy_bf16_f32(1.3, &x, &mut yb));
            for i in 0..n {
                assert!((ya[i] - yb[i]).abs() < 1e-5, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn adam_bf16_vector_matches_scalar_bitexactly() {
        for n in [1usize, 16, 17, 48, 100] {
            let wf = vals(n);
            let mut w0 = vec![0u16; n];
            f32_to_bf16_slice(&wf, &mut w0);
            let g = vals(n).iter().map(|v| v * 0.01).collect::<Vec<_>>();
            let step = AdamStep::bias_corrected(1e-2, 0.9, 0.999, 1e-8, 3);
            let (mut wa, mut ma, mut va) = (w0.clone(), vec![0.0; n], vec![0.0; n]);
            let (mut wb, mut mb, mut vb) = (w0.clone(), vec![0.0; n], vec![0.0; n]);
            with_level(crate::SimdLevel::Scalar, || {
                adam_step_bf16(&mut wa, &mut ma, &mut va, &g, step)
            });
            with_level(crate::SimdLevel::Avx512, || {
                adam_step_bf16(&mut wb, &mut mb, &mut vb, &g, step)
            });
            assert_eq!(wa, wb, "weights diverge n={n}");
            for i in 0..n {
                assert!((ma[i] - mb[i]).abs() < 1e-6);
                assert!((va[i] - vb[i]).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn display_and_ordering() {
        assert_eq!(Bf16::from_f32(1.5).to_string(), "1.5");
        assert!(Bf16::from_f32(1.0) < Bf16::from_f32(2.0));
        assert_eq!(Bf16::ONE.to_f32(), 1.0);
        assert_eq!(Bf16::ZERO.to_f32(), 0.0);
    }
}
