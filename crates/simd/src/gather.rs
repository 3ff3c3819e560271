//! Multi-row fused gather kernels and the once-resolved dispatch table.
//!
//! SLIDE's hot loops walk an LSH-retrieved *active set* of weight rows —
//! 64–4096 rows scattered through a layer arena — and historically did so
//! one row at a time: one dispatched `dot`/`axpy` per row, each call
//! re-reading the global SIMD policy, each row a cache-cold dependent load
//! chain. This module is the §4.3-style fix, applied to gathers instead of
//! contiguous sweeps:
//!
//! * **[`KernelSet`]** — a function-pointer table resolved *once* (per
//!   training batch, per serve scratch) from the effective [`SimdLevel`],
//!   so the per-row policy load + match disappears from the inner loops.
//!   The dispatched free functions in [`crate::kernels`] remain the right
//!   tool for one-off calls.
//! * **multi-row scoring** (`score_rows_*`) — 4 gathered rows at a time
//!   with one accumulator per row and `_mm_prefetch` of the *next* block's
//!   rows at the matching column offset, hiding the gather latency behind
//!   the current block's FMAs.
//! * **fused backward** (`backward_rows_*`) — one pass per row computing
//!   both `dx += δ·W[r]` and `grad[r] += δ·scale·h`, reading `W[r]` once
//!   and loading `h`/`dx` once per 4-row block (previously two separate
//!   sweeps over disjoint arenas per row). No software prefetch: the loop
//!   already stores to four gradient rows per step.
//! * **blocked gemv** (`gemv`) — full-matrix scoring over a strided arena
//!   for exact top-k and the frozen serving path.
//!
//! [`RowGather`] owns the reusable pointer lists a caller needs to hand a
//! scattered active set to these kernels without allocating.

use crate::policy::{detected_level, effective_level, SimdLevel};
use crate::scalar;

/// Reusable pointer/staging lists for handing a gathered active set to the
/// multi-row kernels without per-sample allocation. One lives in each
/// worker/serve scratch; the pointers are only valid for the duration of a
/// single kernel call and are re-gathered every time.
///
/// The raw pointers follow the HOGWILD contract of the arenas they point
/// into; `Send`/`Sync` are sound because the buffers carry no ownership and
/// every use re-fills them from a live `&self` borrow of the owning layer.
#[derive(Debug, Default)]
pub struct RowGather {
    /// Gathered f32 weight-row pointers.
    pub w_f32: Vec<*const f32>,
    /// Gathered bf16 weight-row pointers.
    pub w_bf16: Vec<*const u16>,
    /// Gathered i8 weight-row pointers (quantized serving).
    pub w_i8: Vec<*const i8>,
    /// Per-row f32 dequantization scales staged alongside
    /// [`RowGather::w_i8`].
    pub scales: Vec<f32>,
    /// Gathered (always-f32) gradient-row pointers.
    pub grad: Vec<*mut f32>,
    /// Row ids staged by callers that filter rows before gathering
    /// (e.g. the dense backward pass skips zero deltas).
    pub rows: Vec<u32>,
    /// Per-row coefficients staged alongside [`RowGather::rows`].
    pub deltas: Vec<f32>,
}

// SAFETY: the vectors are plain reusable buffers; the pointees' thread-safety
// is governed by the HOGWILD contract of the arena each pointer was gathered
// from, exactly as for the raw-pointer scratch wrappers in slide-core.
unsafe impl Send for RowGather {}
unsafe impl Sync for RowGather {}

impl RowGather {
    /// Clear every staging list (capacity is kept).
    pub fn clear(&mut self) {
        self.w_f32.clear();
        self.w_bf16.clear();
        self.w_i8.clear();
        self.scales.clear();
        self.grad.clear();
        self.rows.clear();
        self.deltas.clear();
    }
}

type ScoreF32 = unsafe fn(&[*const f32], &[f32], &mut [f32]);
type ScoreBf16 = unsafe fn(&[*const u16], &[f32], &mut [f32]);
type BackwardF32 = unsafe fn(&[*const f32], &[*mut f32], &[f32], f32, &[f32], &mut [f32]);
type BackwardBf16 = unsafe fn(&[*const u16], &[*mut f32], &[f32], f32, &[f32], &mut [f32]);
type GemvF32 = unsafe fn(*const f32, usize, &[f32], &[f32], &mut [f32]);
type DotF32 = unsafe fn(&[f32], &[f32]) -> f32;
type AxpyF32 = unsafe fn(f32, &[f32], &mut [f32]);
type DotBf16 = unsafe fn(&[u16], &[f32]) -> f32;
type AxpyBf16 = unsafe fn(f32, &[u16], &mut [f32]);
type DotI8 = unsafe fn(&[i8], &[u8]) -> i32;
type ScoreI8 = unsafe fn(&[*const i8], &[f32], &[u8], f32, &mut [f32]);
type GemvI8 = unsafe fn(*const i8, usize, &[f32], &[u8], f32, &[f32], &mut [f32]);

fn dot_bf16_scalar_shim(w: &[u16], x: &[f32]) -> f32 {
    crate::bf16::dot_bf16_scalar(w, x)
}

fn axpy_bf16_scalar_shim(alpha: f32, x: &[u16], y: &mut [f32]) {
    crate::bf16::axpy_bf16_scalar(alpha, x, y)
}

/// A dispatch table of the hot-loop kernels, resolved once from the global
/// SIMD policy. Copy it into per-worker state and call through it: the only
/// per-call cost left is an indirect call.
///
/// # Examples
///
/// ```
/// let ks = slide_simd::KernelSet::resolve();
/// assert_eq!(ks.level(), slide_simd::effective_level());
/// assert_eq!(ks.dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct KernelSet {
    level: SimdLevel,
    int8_isa: crate::int8::Int8Isa,
    dot: DotF32,
    axpy: AxpyF32,
    dot_bf16: DotBf16,
    axpy_bf16: AxpyBf16,
    dot_i8: DotI8,
    score_f32: ScoreF32,
    score_bf16: ScoreBf16,
    score_i8: ScoreI8,
    backward_f32: BackwardF32,
    backward_bf16: BackwardBf16,
    gemv_f32: GemvF32,
    gemv_i8: GemvI8,
}

impl KernelSet {
    /// Resolve from the process-wide policy ([`effective_level`]). This is
    /// the one place the hot paths consult the global; everything
    /// downstream calls through the returned table.
    pub fn resolve() -> KernelSet {
        KernelSet::for_level(effective_level())
    }

    /// Build a table for an explicit level, clamped to the host's detected
    /// capability (a `Force` above it degrades rather than faulting,
    /// matching [`effective_level`]).
    pub fn for_level(level: SimdLevel) -> KernelSet {
        let level = level.min(detected_level());
        #[cfg(target_arch = "x86_64")]
        {
            match level {
                SimdLevel::Avx512 => Self::avx512(),
                SimdLevel::Avx2 => Self::avx2(),
                SimdLevel::Scalar => Self::scalar(),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self::scalar()
        }
    }

    fn scalar() -> KernelSet {
        KernelSet {
            level: SimdLevel::Scalar,
            int8_isa: crate::int8::Int8Isa::Scalar,
            dot: scalar::dot as DotF32,
            axpy: scalar::axpy as AxpyF32,
            dot_bf16: dot_bf16_scalar_shim as DotBf16,
            axpy_bf16: axpy_bf16_scalar_shim as AxpyBf16,
            dot_i8: crate::int8::dot_i8_scalar_shim as DotI8,
            score_f32: scalar::score_rows,
            score_bf16: crate::bf16::score_rows_bf16_scalar,
            score_i8: crate::int8::score_rows_i8_scalar,
            backward_f32: scalar::backward_rows,
            backward_bf16: crate::bf16::backward_rows_bf16_scalar,
            gemv_f32: scalar::gemv,
            gemv_i8: crate::int8::gemv_i8_scalar,
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn avx2() -> KernelSet {
        use crate::avx2;
        use crate::int8::x86 as i8x;
        KernelSet {
            level: SimdLevel::Avx2,
            int8_isa: crate::int8::Int8Isa::Avx2Maddubs,
            dot: avx2::dot as DotF32,
            axpy: avx2::axpy as AxpyF32,
            // bf16 widening is only vectorized at AVX-512; lower tiers use
            // the portable reference, exactly as the dispatched entry points.
            dot_bf16: dot_bf16_scalar_shim as DotBf16,
            axpy_bf16: axpy_bf16_scalar_shim as AxpyBf16,
            dot_i8: i8x::dot_i8,
            score_f32: avx2::score_rows,
            score_bf16: crate::bf16::score_rows_bf16_scalar,
            score_i8: i8x::score_rows,
            backward_f32: avx2::backward_rows,
            backward_bf16: crate::bf16::backward_rows_bf16_scalar,
            gemv_f32: avx2::gemv,
            gemv_i8: i8x::gemv,
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn avx512() -> KernelSet {
        use crate::avx512;
        use crate::bf16::x86 as bf16x;
        use crate::int8::{x86 as i8x, Int8Isa};
        // The useful 512-bit integer-dot instructions live beyond AVX-512F:
        // probe vnni/bw once here and fall back to the 256-bit maddubs path
        // on F-only hosts (correct everywhere, fastest where supported).
        let int8_isa = crate::int8::int8_isa(SimdLevel::Avx512);
        let (dot_i8, score_i8, gemv_i8): (DotI8, ScoreI8, GemvI8) = match int8_isa {
            Int8Isa::Avx512Vnni => (i8x::vnni::dot_i8, i8x::vnni::score_rows, i8x::vnni::gemv),
            Int8Isa::Avx512Bw => (i8x::bw::dot_i8, i8x::bw::score_rows, i8x::bw::gemv),
            _ => (i8x::dot_i8, i8x::score_rows, i8x::gemv),
        };
        KernelSet {
            level: SimdLevel::Avx512,
            int8_isa,
            dot_i8,
            score_i8,
            gemv_i8,
            dot: avx512::dot as DotF32,
            axpy: avx512::axpy as AxpyF32,
            dot_bf16: bf16x::dot_bf16_f32 as DotBf16,
            axpy_bf16: bf16x::axpy_bf16_f32 as AxpyBf16,
            score_f32: avx512::score_rows,
            score_bf16: bf16x::score_rows_bf16,
            backward_f32: avx512::backward_rows,
            backward_bf16: bf16x::backward_rows_bf16,
            gemv_f32: avx512::gemv,
        }
    }

    /// The instruction-set tier this table dispatches to.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// The integer-dot instruction path the i8 kernels resolved to (within
    /// `Avx512`, the `vpdpbusd` / `vpmaddubsw` / 256-bit fallback chain —
    /// see [`crate::int8::int8_isa`]).
    pub fn int8_isa(&self) -> crate::int8::Int8Isa {
        self.int8_isa
    }

    /// Exact integer dot product `Σ x[i]·w[i]` (u8 activations × i8
    /// weights) through the resolved tier. Bit-identical across tiers for
    /// 7-bit activation codes (the quantizer's contract — see
    /// [`crate::int8`]'s saturation policy).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn dot_i8(&self, w: &[i8], x: &[u8]) -> i32 {
        assert_eq!(w.len(), x.len(), "KernelSet::dot_i8: length mismatch");
        // SAFETY: construction clamps the level to the detected capability
        // and probes the avx512 sub-features at table build time.
        unsafe { (self.dot_i8)(w, x) }
    }

    /// Score a gathered i8 row list:
    /// `out[i] = (Σ_j x[j]·rows[i][j]) · scales[i] · x_scale` — the
    /// quantized sibling of [`KernelSet::score_rows_f32`] (callers add
    /// biases in f32 afterwards, exactly as there).
    ///
    /// # Panics
    ///
    /// Panics if `rows`, `scales`, and `out` lengths disagree.
    ///
    /// # Safety
    ///
    /// Every `rows[i]` must be valid for `x.len()` i8 reads for the
    /// duration of the call. Activation codes above 127 may saturate the
    /// pre-VNNI tiers (the quantizer never produces them).
    #[inline]
    pub unsafe fn score_rows_i8(
        &self,
        rows: &[*const i8],
        scales: &[f32],
        x: &[u8],
        x_scale: f32,
        out: &mut [f32],
    ) {
        assert_eq!(
            rows.len(),
            out.len(),
            "KernelSet::score_rows_i8: rows/out length mismatch"
        );
        assert_eq!(
            rows.len(),
            scales.len(),
            "KernelSet::score_rows_i8: rows/scales length mismatch"
        );
        // SAFETY: the pointers are the caller's contract (see `# Safety`);
        // construction clamped the level to what this host supports.
        unsafe { (self.score_i8)(rows, scales, x, x_scale, out) }
    }

    /// Blocked full i8 gemv over a strided row-major arena:
    /// `out[r] = (Σ_j x[j]·w[r·stride + j]) · scales[r] · x_scale + bias[r]`
    /// for every `r in 0..out.len()`. Safe: the arena is passed as a slice
    /// and bounds are checked up front, mirroring [`KernelSet::gemv`].
    ///
    /// # Panics
    ///
    /// Panics if `bias`/`scales` lengths disagree with `out`,
    /// `stride < x.len()`, or `w` is too short for `out.len()` rows.
    #[allow(clippy::too_many_arguments)] // mirrors the i8 kernel operand list
    pub fn gemv_i8(
        &self,
        w: &[i8],
        stride: usize,
        scales: &[f32],
        x: &[u8],
        x_scale: f32,
        bias: &[f32],
        out: &mut [f32],
    ) {
        let rows = out.len();
        assert_eq!(bias.len(), rows, "KernelSet::gemv_i8: bias length mismatch");
        assert_eq!(
            scales.len(),
            rows,
            "KernelSet::gemv_i8: scales length mismatch"
        );
        assert!(
            stride >= x.len(),
            "KernelSet::gemv_i8: stride {stride} < cols {}",
            x.len()
        );
        if rows == 0 {
            return;
        }
        assert!(
            w.len() >= (rows - 1) * stride + x.len(),
            "KernelSet::gemv_i8: arena too short for {rows} rows at stride {stride}"
        );
        // SAFETY: bounds checked above; ISA probed at construction.
        unsafe { (self.gemv_i8)(w.as_ptr(), stride, scales, x, x_scale, bias, out) }
    }

    /// Inner product `a · b` through the resolved tier (no policy load).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "KernelSet::dot: length mismatch");
        // SAFETY: construction clamps the level to the detected capability.
        unsafe { (self.dot)(a, b) }
    }

    /// `y += alpha * x` through the resolved tier.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), y.len(), "KernelSet::axpy: length mismatch");
        // SAFETY: as `dot`.
        unsafe { (self.axpy)(alpha, x, y) }
    }

    /// bf16-weight inner product through the resolved tier.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn dot_bf16(&self, w: &[u16], x: &[f32]) -> f32 {
        assert_eq!(w.len(), x.len(), "KernelSet::dot_bf16: length mismatch");
        // SAFETY: as `dot`.
        unsafe { (self.dot_bf16)(w, x) }
    }

    /// `y += alpha * widen(x)` with bf16 `x` through the resolved tier.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn axpy_bf16(&self, alpha: f32, x: &[u16], y: &mut [f32]) {
        assert_eq!(x.len(), y.len(), "KernelSet::axpy_bf16: length mismatch");
        // SAFETY: as `dot`.
        unsafe { (self.axpy_bf16)(alpha, x, y) }
    }

    /// Score a gathered row list: `out[i] = rows[i] · x`.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != out.len()`.
    ///
    /// # Safety
    ///
    /// Every `rows[i]` must be valid for `x.len()` f32 reads for the
    /// duration of the call (racy HOGWILD reads are the documented benign
    /// kind).
    #[inline]
    pub unsafe fn score_rows_f32(&self, rows: &[*const f32], x: &[f32], out: &mut [f32]) {
        assert_eq!(
            rows.len(),
            out.len(),
            "KernelSet::score_rows_f32: rows/out length mismatch"
        );
        // SAFETY: the pointers are the caller's contract (see `# Safety`);
        // construction clamped the level to what this host supports.
        unsafe { (self.score_f32)(rows, x, out) }
    }

    /// Score a gathered bf16 row list: `out[i] = widen(rows[i]) · x`.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != out.len()`.
    ///
    /// # Safety
    ///
    /// Every `rows[i]` must be valid for `x.len()` u16 reads.
    #[inline]
    pub unsafe fn score_rows_bf16(&self, rows: &[*const u16], x: &[f32], out: &mut [f32]) {
        assert_eq!(
            rows.len(),
            out.len(),
            "KernelSet::score_rows_bf16: rows/out length mismatch"
        );
        // SAFETY: the pointers are the caller's contract (see `# Safety`);
        // construction clamped the level to what this host supports.
        unsafe { (self.score_bf16)(rows, x, out) }
    }

    /// Fused backward over gathered rows: for every row `i`,
    /// `dx += deltas[i] * W[i]` and `grad[i] += deltas[i] * scale * h`.
    ///
    /// # Panics
    ///
    /// Panics if the row lists or `h`/`dx` lengths disagree.
    ///
    /// # Safety
    ///
    /// `w_rows[i]` must be valid for `h.len()` reads and `g_rows[i]` for
    /// `h.len()` reads+writes; `dx` must not alias any gathered weight row.
    #[inline]
    pub unsafe fn backward_rows_f32(
        &self,
        w_rows: &[*const f32],
        g_rows: &[*mut f32],
        deltas: &[f32],
        scale: f32,
        h: &[f32],
        dx: &mut [f32],
    ) {
        assert_eq!(
            w_rows.len(),
            g_rows.len(),
            "KernelSet::backward_rows_f32: w/g length mismatch"
        );
        assert_eq!(
            w_rows.len(),
            deltas.len(),
            "KernelSet::backward_rows_f32: deltas length mismatch"
        );
        assert_eq!(
            h.len(),
            dx.len(),
            "KernelSet::backward_rows_f32: h/dx length mismatch"
        );
        // SAFETY: the pointers are the caller's contract (see `# Safety`);
        // construction clamped the level to what this host supports.
        unsafe { (self.backward_f32)(w_rows, g_rows, deltas, scale, h, dx) }
    }

    /// Fused backward over gathered bf16 weight rows (gradients are f32).
    ///
    /// # Panics
    ///
    /// Panics if the row lists or `h`/`dx` lengths disagree.
    ///
    /// # Safety
    ///
    /// As [`KernelSet::backward_rows_f32`], with u16 weight reads.
    #[inline]
    pub unsafe fn backward_rows_bf16(
        &self,
        w_rows: &[*const u16],
        g_rows: &[*mut f32],
        deltas: &[f32],
        scale: f32,
        h: &[f32],
        dx: &mut [f32],
    ) {
        assert_eq!(
            w_rows.len(),
            g_rows.len(),
            "KernelSet::backward_rows_bf16: w/g length mismatch"
        );
        assert_eq!(
            w_rows.len(),
            deltas.len(),
            "KernelSet::backward_rows_bf16: deltas length mismatch"
        );
        assert_eq!(
            h.len(),
            dx.len(),
            "KernelSet::backward_rows_bf16: h/dx length mismatch"
        );
        // SAFETY: the pointers are the caller's contract (see `# Safety`);
        // construction clamped the level to what this host supports.
        unsafe { (self.backward_bf16)(w_rows, g_rows, deltas, scale, h, dx) }
    }

    /// Blocked full gemv over a strided row-major arena:
    /// `out[r] = w[r*stride..][..x.len()] · x + bias[r]` for every `r` in
    /// `0..out.len()`. Safe: the arena is passed as a slice and bounds are
    /// checked up front. `stride >= x.len()` allows cache-line row padding.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != out.len()`, `stride < x.len()`, or `w` is
    /// too short for `out.len()` rows at `stride`.
    ///
    /// # Examples
    ///
    /// ```
    /// let ks = slide_simd::KernelSet::resolve();
    /// let w = [1.0_f32, 0.0, 0.0, 2.0]; // 2x2 identity-ish, stride 2
    /// let mut out = [0.0_f32; 2];
    /// ks.gemv(&w, 2, &[3.0, 5.0], &[0.5, -0.5], &mut out);
    /// assert_eq!(out, [3.5, 9.5]);
    /// ```
    pub fn gemv(&self, w: &[f32], stride: usize, x: &[f32], bias: &[f32], out: &mut [f32]) {
        let rows = out.len();
        assert_eq!(bias.len(), rows, "KernelSet::gemv: bias length mismatch");
        assert!(
            stride >= x.len(),
            "KernelSet::gemv: stride {stride} < cols {}",
            x.len()
        );
        if rows == 0 {
            return;
        }
        assert!(
            w.len() >= (rows - 1) * stride + x.len(),
            "KernelSet::gemv: arena too short for {rows} rows at stride {stride}"
        );
        // SAFETY: bounds checked above; level clamped at construction.
        unsafe { (self.gemv_f32)(w.as_ptr(), stride, x, bias, out) }
    }
}

/// One-off dispatched wrapper around [`KernelSet::score_rows_f32`] (resolves
/// the policy per call; hot loops should hold a [`KernelSet`] instead).
///
/// # Safety
///
/// As [`KernelSet::score_rows_f32`].
pub unsafe fn score_rows_gather_f32(rows: &[*const f32], x: &[f32], out: &mut [f32]) {
    unsafe { KernelSet::resolve().score_rows_f32(rows, x, out) }
}

/// One-off dispatched wrapper around [`KernelSet::backward_rows_f32`].
///
/// # Safety
///
/// As [`KernelSet::backward_rows_f32`].
pub unsafe fn backward_rows_fused_f32(
    w_rows: &[*const f32],
    g_rows: &[*mut f32],
    deltas: &[f32],
    scale: f32,
    h: &[f32],
    dx: &mut [f32],
) {
    unsafe { KernelSet::resolve().backward_rows_f32(w_rows, g_rows, deltas, scale, h, dx) }
}

/// One-off dispatched wrapper around [`KernelSet::score_rows_i8`].
///
/// # Safety
///
/// As [`KernelSet::score_rows_i8`].
pub unsafe fn score_rows_gather_i8(
    rows: &[*const i8],
    scales: &[f32],
    x: &[u8],
    x_scale: f32,
    out: &mut [f32],
) {
    unsafe { KernelSet::resolve().score_rows_i8(rows, scales, x, x_scale, out) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf16;

    fn pseudo_random(n: usize, seed: u32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2654435761).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                (s as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    /// Every level the host can actually run.
    fn tables() -> Vec<KernelSet> {
        [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
            .into_iter()
            .filter(|&level| level <= detected_level())
            .map(KernelSet::for_level)
            .collect()
    }

    /// Row/column shapes covering empty lists, sub-block row counts, block
    /// remainders, and non-multiple-of-lane column lengths.
    const SHAPES: &[(usize, usize)] = &[
        (0, 16),
        (1, 1),
        (2, 7),
        (3, 33),
        (4, 16),
        (5, 128),
        (7, 100),
        (8, 64),
        (13, 17),
        (16, 31),
        (33, 48),
    ];

    fn matrix(rows: usize, cols: usize, seed: u32) -> Vec<Vec<f32>> {
        (0..rows)
            .map(|r| pseudo_random(cols, seed.wrapping_add(r as u32)))
            .collect()
    }

    #[test]
    fn score_rows_matches_scalar_reference_everywhere() {
        for &(rows, cols) in SHAPES {
            let m = matrix(rows, cols, 11);
            let x = pseudo_random(cols, 999);
            let expect: Vec<f32> = m.iter().map(|row| scalar::dot(row, &x)).collect();
            let ptrs: Vec<*const f32> = m.iter().map(|row| row.as_ptr()).collect();
            for ks in tables() {
                let mut out = vec![f32::NAN; rows];
                unsafe { ks.score_rows_f32(&ptrs, &x, &mut out) };
                for r in 0..rows {
                    let tol = 1e-4 * (cols.max(1) as f32).sqrt();
                    assert!(
                        (out[r] - expect[r]).abs() <= tol.max(1e-5),
                        "{}x{} r={r} {:?}: {} vs {}",
                        rows,
                        cols,
                        ks.level(),
                        out[r],
                        expect[r]
                    );
                }
            }
        }
    }

    #[test]
    fn score_rows_bf16_matches_scalar_reference_everywhere() {
        for &(rows, cols) in SHAPES {
            let m = matrix(rows, cols, 23);
            let mq: Vec<Vec<u16>> = m
                .iter()
                .map(|row| {
                    let mut q = vec![0u16; cols];
                    // Deterministic narrowing irrespective of global policy.
                    for (qi, &v) in q.iter_mut().zip(row) {
                        *qi = crate::Bf16::from_f32(v).to_bits();
                    }
                    q
                })
                .collect();
            let x = pseudo_random(cols, 777);
            let expect: Vec<f32> = mq
                .iter()
                .map(|row| bf16::dot_bf16_scalar(row, &x))
                .collect();
            let ptrs: Vec<*const u16> = mq.iter().map(|row| row.as_ptr()).collect();
            for ks in tables() {
                let mut out = vec![f32::NAN; rows];
                unsafe { ks.score_rows_bf16(&ptrs, &x, &mut out) };
                for r in 0..rows {
                    let tol = 1e-3 * (cols.max(1) as f32).sqrt();
                    assert!(
                        (out[r] - expect[r]).abs() <= tol.max(1e-4),
                        "bf16 {}x{} r={r} {:?}",
                        rows,
                        cols,
                        ks.level()
                    );
                }
            }
        }
    }

    #[test]
    fn backward_rows_matches_two_pass_reference_everywhere() {
        for &(rows, cols) in SHAPES {
            let w = matrix(rows, cols, 31);
            let g0 = matrix(rows, cols, 41);
            let h = pseudo_random(cols, 51);
            let dx0 = pseudo_random(cols, 61);
            let deltas = pseudo_random(rows, 71);
            let scale = 0.125_f32;

            // Reference: the pre-fusion shape — two scalar passes per row.
            let mut g_ref = g0.clone();
            let mut dx_ref = dx0.clone();
            for r in 0..rows {
                scalar::axpy(deltas[r], &w[r], &mut dx_ref);
                scalar::axpy(deltas[r] * scale, &h, &mut g_ref[r]);
            }

            let w_ptrs: Vec<*const f32> = w.iter().map(|row| row.as_ptr()).collect();
            for ks in tables() {
                let mut g = g0.clone();
                let mut dx = dx0.clone();
                let g_ptrs: Vec<*mut f32> = g.iter_mut().map(|row| row.as_mut_ptr()).collect();
                unsafe { ks.backward_rows_f32(&w_ptrs, &g_ptrs, &deltas, scale, &h, &mut dx) };
                for i in 0..cols {
                    assert!(
                        (dx[i] - dx_ref[i]).abs() <= 1e-4 * (rows.max(1) as f32),
                        "dx {}x{} i={i} {:?}",
                        rows,
                        cols,
                        ks.level()
                    );
                }
                for r in 0..rows {
                    for i in 0..cols {
                        assert!(
                            (g[r][i] - g_ref[r][i]).abs() <= 1e-5,
                            "grad {}x{} r={r} i={i} {:?}",
                            rows,
                            cols,
                            ks.level()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn backward_rows_bf16_matches_reference_everywhere() {
        for &(rows, cols) in SHAPES {
            let w = matrix(rows, cols, 81);
            let wq: Vec<Vec<u16>> = w
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|&v| crate::Bf16::from_f32(v).to_bits())
                        .collect()
                })
                .collect();
            let g0 = matrix(rows, cols, 91);
            let h = pseudo_random(cols, 101);
            let dx0 = pseudo_random(cols, 111);
            let deltas = pseudo_random(rows, 121);
            let scale = 0.5_f32;

            let mut g_ref = g0.clone();
            let mut dx_ref = dx0.clone();
            for r in 0..rows {
                bf16::axpy_bf16_scalar(deltas[r], &wq[r], &mut dx_ref);
                scalar::axpy(deltas[r] * scale, &h, &mut g_ref[r]);
            }

            let w_ptrs: Vec<*const u16> = wq.iter().map(|row| row.as_ptr()).collect();
            for ks in tables() {
                let mut g = g0.clone();
                let mut dx = dx0.clone();
                let g_ptrs: Vec<*mut f32> = g.iter_mut().map(|row| row.as_mut_ptr()).collect();
                unsafe { ks.backward_rows_bf16(&w_ptrs, &g_ptrs, &deltas, scale, &h, &mut dx) };
                for i in 0..cols {
                    assert!(
                        (dx[i] - dx_ref[i]).abs() <= 1e-4 * (rows.max(1) as f32),
                        "bf16 dx {}x{} i={i} {:?}",
                        rows,
                        cols,
                        ks.level()
                    );
                }
                for r in 0..rows {
                    for i in 0..cols {
                        assert!(
                            (g[r][i] - g_ref[r][i]).abs() <= 1e-5,
                            "bf16 grad {}x{} r={r} i={i}",
                            rows,
                            cols
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_matches_per_row_dot_with_padding() {
        for &(rows, cols) in SHAPES {
            // Pad rows to a 16-float stride the way FrozenLayer does.
            let stride = cols.div_ceil(16) * 16;
            let m = matrix(rows, cols, 131);
            let mut arena = vec![0.0_f32; rows * stride];
            for (r, row) in m.iter().enumerate() {
                arena[r * stride..r * stride + cols].copy_from_slice(row);
            }
            let x = pseudo_random(cols, 141);
            let bias = pseudo_random(rows, 151);
            let expect: Vec<f32> = m
                .iter()
                .zip(&bias)
                .map(|(row, &b)| scalar::dot(row, &x) + b)
                .collect();
            for ks in tables() {
                let mut out = vec![f32::NAN; rows];
                ks.gemv(&arena, stride, &x, &bias, &mut out);
                for r in 0..rows {
                    let tol = 1e-4 * (cols.max(1) as f32).sqrt();
                    assert!(
                        (out[r] - expect[r]).abs() <= tol.max(1e-5),
                        "gemv {}x{} r={r} {:?}",
                        rows,
                        cols,
                        ks.level()
                    );
                }
            }
        }
    }

    #[test]
    fn empty_row_list_is_a_no_op() {
        for ks in tables() {
            let x = [1.0_f32, 2.0];
            let mut out: [f32; 0] = [];
            unsafe { ks.score_rows_f32(&[], &x, &mut out) };
            unsafe { ks.score_rows_bf16(&[], &x, &mut out) };
            let mut dx = [0.5_f32, -0.5];
            unsafe { ks.backward_rows_f32(&[], &[], &[], 1.0, &x, &mut dx) };
            assert_eq!(dx, [0.5, -0.5]);
            ks.gemv(&[], 2, &x, &[], &mut []);
        }
    }

    #[test]
    fn resolve_follows_global_policy() {
        let _guard = crate::policy::test_guard();
        let prior_policy = crate::policy::policy();
        crate::policy::set_policy(crate::SimdPolicy::Force(SimdLevel::Scalar));
        let ks = KernelSet::resolve();
        assert_eq!(ks.level(), SimdLevel::Scalar);
        crate::policy::set_policy(prior_policy);
    }

    #[test]
    fn for_level_clamps_to_detected_capability() {
        let ks = KernelSet::for_level(SimdLevel::Avx512);
        assert!(ks.level() <= detected_level());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn score_rows_length_mismatch_panics() {
        let ks = KernelSet::for_level(SimdLevel::Scalar);
        let row = [1.0_f32; 4];
        let ptrs = [row.as_ptr()];
        let mut out = [0.0_f32; 2];
        unsafe { ks.score_rows_f32(&ptrs, &row, &mut out) };
    }

    #[test]
    fn row_gather_clear_keeps_capacity() {
        let mut g = RowGather::default();
        g.rows.extend([1, 2, 3]);
        g.deltas.extend([0.1, 0.2, 0.3]);
        let v = [1.0_f32; 2];
        g.w_f32.push(v.as_ptr());
        let cap = g.rows.capacity();
        g.clear();
        assert!(g.rows.is_empty() && g.w_f32.is_empty() && g.deltas.is_empty());
        assert_eq!(g.rows.capacity(), cap);
    }
}
