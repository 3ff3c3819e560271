//! Int8 post-training-quantization kernels — the "Quantizations" axis of the
//! paper's title taken past bf16, down to 8-bit integer serving.
//!
//! The serving workload is memory-bound: `predict_sparse` streams 64–4096
//! gathered weight rows per query and `predict_full`/hidden gemv sweep whole
//! arenas. Narrowing weight rows from f32 to i8 cuts that traffic 4× and
//! turns the inner loop into an integer dot product that modern x86 executes
//! with `vpmaddubsw` (AVX2), `vpmaddubsw`+`vpmaddwd` (AVX-512BW), or a single
//! `vpdpbusd` (AVX-512 VNNI) per 64 weights — the FullPack-style substrate
//! for general-purpose-CPU quantized inference.
//!
//! **Quantization scheme** (see DESIGN.md §7 for the full rationale):
//!
//! * **weights** — per-row symmetric: `q = round(w / s)` with
//!   `s = max|w| / 127`, clamped to `[-127, 127]`. The `-128` code is never
//!   produced, so `|q| ≤ 127` everywhere.
//! * **activations** — per-query unsigned 7-bit: post-ReLU activations are
//!   non-negative, so `q = round(a / s_a)` with `s_a = max(a) / 127`
//!   produces codes in `[0, 127]`.
//! * **saturation policy** — `vpmaddubsw` saturates its i16 pair sums; with
//!   both operands bounded by 127 the worst pair is `2·127·127 = 32258 <
//!   32767`, so the pre-VNNI tiers are *exact* by construction rather than
//!   "usually fine". VNNI's `vpdpbusd` accumulates quads in i32 and needs no
//!   such headroom, but keeping activations 7-bit makes every tier
//!   bit-identical. i32 accumulators cannot overflow below ~133k columns.
//!
//! The kernels here return/consume raw i32 dot products scaled back to f32
//! by `acc · row_scale · act_scale`; callers add biases in f32, exactly as
//! the f32 gather kernels do. Dispatch follows [`crate::KernelSet`]: the
//! [`SimdLevel`] picks the tier, and within `Avx512` the constructor probes
//! `avx512vnni`/`avx512bw` at runtime ([`int8_isa`]).

use crate::policy::SimdLevel;

/// Largest magnitude an i8 weight code may take (symmetric, `-128` unused).
pub const I8_WEIGHT_MAX: f32 = 127.0;

/// Largest u8 activation code the quantizer produces (7-bit policy: keeps
/// `vpmaddubsw` pair sums below i16 saturation on every tier).
pub const U8_ACT_MAX: f32 = 127.0;

// ---------------------------------------------------------------------------
// Quantization / dequantization helpers (portable; called off the hot path)
// ---------------------------------------------------------------------------

/// Quantize one weight row symmetrically to i8 codes, returning the scale
/// `s` such that `w ≈ s · q`. An all-zero row returns scale `1.0` (all-zero
/// codes). Reconstruction error is bounded by `s / 2` per element.
///
/// # Panics
///
/// Panics if `src.len() != dst.len()`.
pub fn quantize_row_i8(src: &[f32], dst: &mut [i8]) -> f32 {
    assert_eq!(src.len(), dst.len(), "quantize_row_i8: length mismatch");
    let max_abs = src.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 || !max_abs.is_finite() {
        dst.fill(0);
        return 1.0;
    }
    let scale = max_abs / I8_WEIGHT_MAX;
    let inv = I8_WEIGHT_MAX / max_abs;
    for (q, &v) in dst.iter_mut().zip(src) {
        *q = (v * inv).round().clamp(-I8_WEIGHT_MAX, I8_WEIGHT_MAX) as i8;
    }
    scale
}

/// Widen i8 codes back to f32 (`dst[i] = scale · q[i]`) — the reconstruction
/// the round-trip error bounds are stated against.
///
/// # Panics
///
/// Panics if `q.len() != dst.len()`.
pub fn dequantize_row_f32(q: &[i8], scale: f32, dst: &mut [f32]) {
    assert_eq!(q.len(), dst.len(), "dequantize_row_f32: length mismatch");
    for (d, &c) in dst.iter_mut().zip(q) {
        *d = scale * c as f32;
    }
}

/// Quantize a non-negative activation vector to unsigned 7-bit codes
/// (`[0, 127]`), returning the scale `s_a` such that `a ≈ s_a · q`.
/// Negative inputs clamp to 0 (the serving path only quantizes post-ReLU
/// activations); an all-zero vector returns scale `1.0`.
///
/// # Panics
///
/// Panics if `src.len() != dst.len()`.
pub fn quantize_acts_u8(src: &[f32], dst: &mut [u8]) -> f32 {
    assert_eq!(src.len(), dst.len(), "quantize_acts_u8: length mismatch");
    let max = src.iter().fold(0.0_f32, |m, &v| m.max(v));
    if max <= 0.0 || !max.is_finite() {
        dst.fill(0);
        return 1.0;
    }
    let scale = max / U8_ACT_MAX;
    let inv = U8_ACT_MAX / max;
    for (q, &v) in dst.iter_mut().zip(src) {
        *q = (v.max(0.0) * inv).round().min(U8_ACT_MAX) as u8;
    }
    scale
}

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

/// Exact integer dot product `Σ x[i] · w[i]` (u8 × i8 → i32) — the reference
/// semantics every vector tier must reproduce bit-exactly.
///
/// # Panics
///
/// Debug-asserts equal lengths (callers pass matched slices).
#[inline]
pub fn dot_i8_scalar(w: &[i8], x: &[u8]) -> i32 {
    debug_assert_eq!(w.len(), x.len());
    let mut acc = 0i32;
    for i in 0..w.len() {
        acc += w[i] as i32 * x[i] as i32;
    }
    acc
}

/// Multi-row gathered int8 scoring:
/// `out[i] = (Σ_j x[j] · rows[i][j]) · scales[i] · x_scale`. Rows walk in
/// 4-row blocks with independent i32 accumulators, mirroring the f32
/// scalar `score_rows`; integer accumulation makes every tier
/// bit-identical, not merely close.
///
/// # Safety
///
/// Every `rows[i]` must be valid for `x.len()` i8 reads for the duration of
/// the call.
pub unsafe fn score_rows_i8_scalar(
    rows: &[*const i8],
    scales: &[f32],
    x: &[u8],
    x_scale: f32,
    out: &mut [f32],
) {
    debug_assert_eq!(rows.len(), out.len());
    debug_assert_eq!(rows.len(), scales.len());
    let cols = x.len();
    let n = rows.len();
    let mut r = 0usize;
    while r + 4 <= n {
        let (p0, p1, p2, p3) = (rows[r], rows[r + 1], rows[r + 2], rows[r + 3]);
        let (mut a0, mut a1, mut a2, mut a3) = (0i32, 0i32, 0i32, 0i32);
        for (i, &xv) in x.iter().enumerate() {
            let xv = xv as i32;
            // SAFETY: `i < cols`; the caller guarantees `cols` codes per row.
            a0 += unsafe { *p0.add(i) } as i32 * xv;
            a1 += unsafe { *p1.add(i) } as i32 * xv;
            a2 += unsafe { *p2.add(i) } as i32 * xv;
            a3 += unsafe { *p3.add(i) } as i32 * xv;
        }
        out[r] = a0 as f32 * scales[r] * x_scale;
        out[r + 1] = a1 as f32 * scales[r + 1] * x_scale;
        out[r + 2] = a2 as f32 * scales[r + 2] * x_scale;
        out[r + 3] = a3 as f32 * scales[r + 3] * x_scale;
        r += 4;
    }
    while r < n {
        // SAFETY: as in the block above.
        let acc = dot_i8_scalar(unsafe { core::slice::from_raw_parts(rows[r], cols) }, x);
        out[r] = acc as f32 * scales[r] * x_scale;
        r += 1;
    }
}

/// Blocked full int8 gemv over a strided row-major arena:
/// `out[r] = (Σ_j x[j] · w[r·stride + j]) · scales[r] · x_scale + bias[r]`.
///
/// # Safety
///
/// `w` must be valid for `(out.len() - 1) * stride + x.len()` i8 reads.
pub unsafe fn gemv_i8_scalar(
    w: *const i8,
    stride: usize,
    scales: &[f32],
    x: &[u8],
    x_scale: f32,
    bias: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(bias.len(), out.len());
    debug_assert_eq!(scales.len(), out.len());
    debug_assert!(stride >= x.len());
    for (r, o) in out.iter_mut().enumerate() {
        let acc = dot_i8_scalar(
            // SAFETY: row `r < out.len()` lies inside the arena the caller guarantees.
            unsafe { core::slice::from_raw_parts(w.add(r * stride), x.len()) },
            x,
        );
        *o = acc as f32 * scales[r] * x_scale + bias[r];
    }
}

// ---------------------------------------------------------------------------
// ISA resolution within a SimdLevel
// ---------------------------------------------------------------------------

/// The integer-dot instruction path the i8 kernels resolve to at a given
/// [`SimdLevel`]. `Avx512` splits further than the f32 kernels because the
/// useful instructions live in extensions beyond AVX-512F: `vpmaddubsw` at
/// 512-bit needs `avx512bw`, and the fused quad-accumulate `vpdpbusd` needs
/// `avx512vnni`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Int8Isa {
    /// Portable scalar i32 loops.
    Scalar,
    /// 256-bit `vpmaddubsw` + `vpmaddwd` widening dot.
    Avx2Maddubs,
    /// 512-bit `vpmaddubsw` + `vpmaddwd` with masked tails.
    Avx512Bw,
    /// 512-bit `vpdpbusd` (VNNI): u8×i8 quads accumulated straight into i32.
    Avx512Vnni,
}

impl std::fmt::Display for Int8Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Int8Isa::Scalar => f.write_str("scalar"),
            Int8Isa::Avx2Maddubs => f.write_str("avx2_maddubs"),
            Int8Isa::Avx512Bw => f.write_str("avx512bw"),
            Int8Isa::Avx512Vnni => f.write_str("avx512vnni"),
        }
    }
}

/// Resolve the i8 instruction path for `level` on this host. The level is
/// taken at face value (callers clamp to [`crate::detected_level`] first, as
/// [`crate::KernelSet::for_level`] does); within `Avx512` the
/// `avx512vnni` → `avx512bw` → AVX2 fallback chain is probed at runtime, so
/// an AVX-512F-only host still gets a correct (256-bit) integer path.
pub fn int8_isa(level: SimdLevel) -> Int8Isa {
    #[cfg(target_arch = "x86_64")]
    {
        match level {
            SimdLevel::Scalar => Int8Isa::Scalar,
            SimdLevel::Avx2 => Int8Isa::Avx2Maddubs,
            SimdLevel::Avx512 => {
                if std::arch::is_x86_feature_detected!("avx512vnni")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                {
                    Int8Isa::Avx512Vnni
                } else if std::arch::is_x86_feature_detected!("avx512bw") {
                    Int8Isa::Avx512Bw
                } else {
                    Int8Isa::Avx2Maddubs
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = level;
        Int8Isa::Scalar
    }
}

// ---------------------------------------------------------------------------
// x86 vector kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    #![allow(unsafe_op_in_unsafe_fn)]

    use core::arch::x86_64::*;

    /// Rows per block, matching the f32 gather kernels (also the prefetch
    /// distance — i8 rows pack 64 weights per cache line, so the redundant-
    /// prefetch argument of the bf16 kernels applies 4× over; uniformity
    /// wins).
    const GATHER_BLOCK: usize = 4;

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32_256(v: __m256i) -> i32 {
        let hi = _mm256_extracti128_si256::<1>(v);
        let lo = _mm256_castsi256_si128(v);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b_01_00_11_10>(s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b_00_00_00_01>(s));
        _mm_cvtsi128_si32(s)
    }

    // -- AVX2: vpmaddubsw (u8×i8 → i16 pairs) + vpmaddwd (i16 → i32) -------

    /// 256-bit integer dot: `Σ x[i]·w[i]` with x unsigned, w signed. Exact
    /// for 7-bit activations (see the module saturation policy).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 support; slices must have equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8(w: &[i8], x: &[u8]) -> i32 {
        debug_assert_eq!(w.len(), x.len());
        let n = w.len();
        let pw = w.as_ptr();
        let px = x.as_ptr();
        let ones = _mm256_set1_epi16(1);
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 32 <= n {
            let xv = _mm256_loadu_si256(px.add(i) as *const __m256i);
            let wv = _mm256_loadu_si256(pw.add(i) as *const __m256i);
            let pairs = _mm256_maddubs_epi16(xv, wv);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
            i += 32;
        }
        let mut total = hsum_epi32_256(acc);
        while i < n {
            total += *pw.add(i) as i32 * *px.add(i) as i32;
            i += 1;
        }
        total
    }

    /// Dot one 4-row i8 gather block against `x`: one i32 accumulator vector
    /// per row, optional next-block prefetch at the matching byte offset.
    ///
    /// # Safety
    ///
    /// Every pointer in `p` (and `next`, if any) must be valid for `x.len()`
    /// i8 reads.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block_dot4_i8(
        p: [*const i8; GATHER_BLOCK],
        next: Option<[*const i8; GATHER_BLOCK]>,
        x: &[u8],
    ) -> [i32; GATHER_BLOCK] {
        let cols = x.len();
        let px = x.as_ptr();
        let ones = _mm256_set1_epi16(1);
        let mut acc = [_mm256_setzero_si256(); GATHER_BLOCK];
        let mut i = 0usize;
        while i + 32 <= cols {
            if let Some(np) = next {
                for q in np {
                    _mm_prefetch::<_MM_HINT_T0>(q.add(i));
                }
            }
            let xv = _mm256_loadu_si256(px.add(i) as *const __m256i);
            for k in 0..GATHER_BLOCK {
                let wv = _mm256_loadu_si256(p[k].add(i) as *const __m256i);
                let pairs = _mm256_maddubs_epi16(xv, wv);
                acc[k] = _mm256_add_epi32(acc[k], _mm256_madd_epi16(pairs, ones));
            }
            i += 32;
        }
        let mut sums = [0i32; GATHER_BLOCK];
        while i < cols {
            let xv = *px.add(i) as i32;
            for k in 0..GATHER_BLOCK {
                sums[k] += *p[k].add(i) as i32 * xv;
            }
            i += 1;
        }
        for k in 0..GATHER_BLOCK {
            sums[k] += hsum_epi32_256(acc[k]);
        }
        sums
    }

    /// Multi-row gathered i8 scoring with next-block prefetch (AVX2 tier).
    ///
    /// # Safety
    ///
    /// Every `rows[i]` valid for `x.len()` i8 reads; lengths as asserted by
    /// [`crate::KernelSet::score_rows_i8`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn score_rows(
        rows: &[*const i8],
        scales: &[f32],
        x: &[u8],
        x_scale: f32,
        out: &mut [f32],
    ) {
        debug_assert_eq!(rows.len(), out.len());
        debug_assert_eq!(rows.len(), scales.len());
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
            let sums = block_dot4_i8(p, next, x);
            for k in 0..GATHER_BLOCK {
                out[r + k] = sums[k] as f32 * scales[r + k] * x_scale;
            }
            r += GATHER_BLOCK;
        }
        while r < n {
            let acc = dot_i8(core::slice::from_raw_parts(rows[r], cols), x);
            out[r] = acc as f32 * scales[r] * x_scale;
            r += 1;
        }
    }

    /// Blocked strided i8 gemv with next-block prefetch (AVX2 tier).
    ///
    /// # Safety
    ///
    /// `w` valid for `(out.len() - 1) * stride + x.len()` i8 reads.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemv(
        w: *const i8,
        stride: usize,
        scales: &[f32],
        x: &[u8],
        x_scale: f32,
        bias: &[f32],
        out: &mut [f32],
    ) {
        debug_assert_eq!(bias.len(), out.len());
        debug_assert_eq!(scales.len(), out.len());
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
            let sums = block_dot4_i8(p, next, x);
            for k in 0..GATHER_BLOCK {
                out[r + k] = sums[k] as f32 * scales[r + k] * x_scale + bias[r + k];
            }
            r += GATHER_BLOCK;
        }
        while r < n {
            let acc = dot_i8(core::slice::from_raw_parts(w.add(r * stride), cols), x);
            out[r] = acc as f32 * scales[r] * x_scale + bias[r];
            r += 1;
        }
    }

    // -- AVX-512: maddubs at 512-bit (BW) or vpdpbusd (VNNI), masked tails --

    /// The 512-bit inner-step strategies share one generic skeleton; the
    /// monomorphized `DPBUSD` flag picks `vpdpbusd` vs `vpmaddubsw`+
    /// `vpmaddwd` without a per-step branch.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
    unsafe fn step_dpbusd(acc: __m512i, xv: __m512i, wv: __m512i) -> __m512i {
        _mm512_dpbusd_epi32(acc, xv, wv)
    }

    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    unsafe fn step_maddubs(acc: __m512i, xv: __m512i, wv: __m512i) -> __m512i {
        let pairs = _mm512_maddubs_epi16(xv, wv);
        _mm512_add_epi32(acc, _mm512_madd_epi16(pairs, _mm512_set1_epi16(1)))
    }

    macro_rules! avx512_i8_kernels {
        ($mod_name:ident, $step:ident, $($feat:literal),+) => {
            pub(crate) mod $mod_name {
                use super::*;

                /// Dot one 4-row i8 gather block against `x` at 64 bytes per
                /// step with a masked tail (ragged widths stay on the vector
                /// unit).
                ///
                /// # Safety
                ///
                /// Every pointer in `p` (and `next`) valid for `x.len()` i8
                /// reads.
                #[inline]
                #[target_feature($(enable = $feat),+)]
                unsafe fn block_dot4_i8(
                    p: [*const i8; GATHER_BLOCK],
                    next: Option<[*const i8; GATHER_BLOCK]>,
                    x: &[u8],
                ) -> [i32; GATHER_BLOCK] {
                    let cols = x.len();
                    let px = x.as_ptr();
                    let mut acc = [_mm512_setzero_si512(); GATHER_BLOCK];
                    let mut i = 0usize;
                    while i + 64 <= cols {
                        if let Some(np) = next {
                            for q in np {
                                _mm_prefetch::<_MM_HINT_T0>(q.add(i) as *const i8);
                            }
                        }
                        let xv = _mm512_loadu_si512(px.add(i) as *const __m512i);
                        for k in 0..GATHER_BLOCK {
                            let wv = _mm512_loadu_si512(p[k].add(i) as *const __m512i);
                            acc[k] = $step(acc[k], xv, wv);
                        }
                        i += 64;
                    }
                    if i < cols {
                        let m: __mmask64 = (1u64 << (cols - i)).wrapping_sub(1);
                        let xv = _mm512_maskz_loadu_epi8(m, px.add(i) as *const i8);
                        for k in 0..GATHER_BLOCK {
                            let wv = _mm512_maskz_loadu_epi8(m, p[k].add(i));
                            acc[k] = $step(acc[k], xv, wv);
                        }
                    }
                    let mut sums = [0i32; GATHER_BLOCK];
                    for k in 0..GATHER_BLOCK {
                        sums[k] = _mm512_reduce_add_epi32(acc[k]);
                    }
                    sums
                }

                /// Single-row 512-bit integer dot with masked tail.
                ///
                /// # Safety
                ///
                /// Caller must ensure the enabled features; equal lengths.
                #[target_feature($(enable = $feat),+)]
                pub unsafe fn dot_i8(w: &[i8], x: &[u8]) -> i32 {
                    debug_assert_eq!(w.len(), x.len());
                    let n = w.len();
                    let pw = w.as_ptr();
                    let px = x.as_ptr();
                    let mut acc = _mm512_setzero_si512();
                    let mut i = 0usize;
                    while i + 64 <= n {
                        let xv = _mm512_loadu_si512(px.add(i) as *const __m512i);
                        let wv = _mm512_loadu_si512(pw.add(i) as *const __m512i);
                        acc = $step(acc, xv, wv);
                        i += 64;
                    }
                    if i < n {
                        let m: __mmask64 = (1u64 << (n - i)).wrapping_sub(1);
                        let xv = _mm512_maskz_loadu_epi8(m, px.add(i) as *const i8);
                        let wv = _mm512_maskz_loadu_epi8(m, pw.add(i));
                        acc = $step(acc, xv, wv);
                    }
                    _mm512_reduce_add_epi32(acc)
                }

                /// Multi-row gathered i8 scoring with next-block prefetch at
                /// this tier.
                ///
                /// # Safety
                ///
                /// As the AVX2 sibling.
                #[target_feature($(enable = $feat),+)]
                pub unsafe fn score_rows(
                    rows: &[*const i8],
                    scales: &[f32],
                    x: &[u8],
                    x_scale: f32,
                    out: &mut [f32],
                ) {
                    debug_assert_eq!(rows.len(), out.len());
                    debug_assert_eq!(rows.len(), scales.len());
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
                        let sums = block_dot4_i8(p, next, x);
                        for k in 0..GATHER_BLOCK {
                            out[r + k] = sums[k] as f32 * scales[r + k] * x_scale;
                        }
                        r += GATHER_BLOCK;
                    }
                    while r < n {
                        let acc =
                            dot_i8(core::slice::from_raw_parts(rows[r], cols), x);
                        out[r] = acc as f32 * scales[r] * x_scale;
                        r += 1;
                    }
                }

                /// Blocked strided i8 gemv with next-block prefetch at this
                /// tier.
                ///
                /// # Safety
                ///
                /// `w` valid for `(out.len() - 1) * stride + x.len()` reads.
                #[target_feature($(enable = $feat),+)]
                pub unsafe fn gemv(
                    w: *const i8,
                    stride: usize,
                    scales: &[f32],
                    x: &[u8],
                    x_scale: f32,
                    bias: &[f32],
                    out: &mut [f32],
                ) {
                    debug_assert_eq!(bias.len(), out.len());
                    debug_assert_eq!(scales.len(), out.len());
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
                        let sums = block_dot4_i8(p, next, x);
                        for k in 0..GATHER_BLOCK {
                            out[r + k] = sums[k] as f32 * scales[r + k] * x_scale + bias[r + k];
                        }
                        r += GATHER_BLOCK;
                    }
                    while r < n {
                        let acc =
                            dot_i8(core::slice::from_raw_parts(w.add(r * stride), cols), x);
                        out[r] = acc as f32 * scales[r] * x_scale + bias[r];
                        r += 1;
                    }
                }
            }
        };
    }

    avx512_i8_kernels!(bw, step_maddubs, "avx512f", "avx512bw");
    avx512_i8_kernels!(vnni, step_dpbusd, "avx512f", "avx512bw", "avx512vnni");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_weights(n: usize, seed: u32) -> Vec<f32> {
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

    #[test]
    fn quantize_row_roundtrip_error_is_bounded() {
        let w = pseudo_weights(257, 3);
        let mut q = vec![0i8; w.len()];
        let scale = quantize_row_i8(&w, &mut q);
        let mut back = vec![0.0f32; w.len()];
        dequantize_row_f32(&q, scale, &mut back);
        for i in 0..w.len() {
            assert!(
                (w[i] - back[i]).abs() <= scale * 0.5 + 1e-7,
                "i={i}: {} vs {} (scale {scale})",
                w[i],
                back[i]
            );
        }
    }

    #[test]
    fn quantize_zero_and_nonfinite_rows_are_safe() {
        let mut q = vec![7i8; 4];
        assert_eq!(quantize_row_i8(&[0.0; 4], &mut q), 1.0);
        assert!(q.iter().all(|&c| c == 0));
        let mut q2 = vec![7i8; 2];
        assert_eq!(quantize_row_i8(&[f32::INFINITY, 1.0], &mut q2), 1.0);
        assert!(q2.iter().all(|&c| c == 0));
    }

    #[test]
    fn quantize_acts_clamps_to_seven_bits_and_zero_floor() {
        let acts = [0.0f32, 0.5, 1.0, 2.0, -3.0];
        let mut q = vec![0u8; acts.len()];
        let scale = quantize_acts_u8(&acts, &mut q);
        assert_eq!(q[3], 127, "max activation maps to the top code");
        assert_eq!(q[4], 0, "negatives clamp to zero");
        assert!(q.iter().all(|&c| c <= 127));
        for (i, &a) in acts.iter().enumerate() {
            let back = q[i] as f32 * scale;
            assert!((a.max(0.0) - back).abs() <= scale * 0.5 + 1e-7, "i={i}");
        }
        let mut qz = vec![9u8; 3];
        assert_eq!(quantize_acts_u8(&[0.0; 3], &mut qz), 1.0);
        assert!(qz.iter().all(|&c| c == 0));
    }

    #[test]
    fn scalar_dot_is_exact_integer_math() {
        let w: Vec<i8> = (0..130).map(|i| ((i * 37) % 255 - 127) as i8).collect();
        let x: Vec<u8> = (0..130).map(|i| ((i * 53) % 128) as u8).collect();
        let mut expect = 0i64;
        for i in 0..w.len() {
            expect += w[i] as i64 * x[i] as i64;
        }
        assert_eq!(dot_i8_scalar(&w, &x) as i64, expect);
    }

    #[test]
    fn int8_isa_is_consistent_with_detection() {
        assert_eq!(int8_isa(SimdLevel::Scalar), Int8Isa::Scalar);
        let a512 = int8_isa(SimdLevel::Avx512);
        // Whatever the host, the resolved path must print a stable label.
        assert!(!a512.to_string().is_empty());
        assert_eq!(Int8Isa::Avx512Vnni.to_string(), "avx512vnni");
        assert_eq!(Int8Isa::Avx2Maddubs.to_string(), "avx2_maddubs");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_tiers_match_scalar_bit_exactly() {
        // Saturation-safe operand ranges (|w| ≤ 127, x ≤ 127) make every
        // tier exact integer math — equality, not tolerance.
        for cols in [0usize, 1, 31, 32, 33, 63, 64, 65, 127, 200] {
            let w: Vec<i8> = (0..cols).map(|i| ((i * 89) % 255) as i32 as i8).collect();
            let x: Vec<u8> = (0..cols).map(|i| ((i * 41) % 128) as u8).collect();
            let expect = dot_i8_scalar(&w, &x);
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was detected just above.
                assert_eq!(unsafe { x86::dot_i8(&w, &x) }, expect, "avx2 cols={cols}");
            }
            if std::arch::is_x86_feature_detected!("avx512bw") {
                assert_eq!(
                    // SAFETY: AVX-512BW was detected just above.
                    unsafe { x86::bw::dot_i8(&w, &x) },
                    expect,
                    "avx512bw cols={cols}"
                );
            }
            if std::arch::is_x86_feature_detected!("avx512vnni")
                && std::arch::is_x86_feature_detected!("avx512bw")
            {
                assert_eq!(
                    // SAFETY: AVX-512 VNNI and BW were detected just above.
                    unsafe { x86::vnni::dot_i8(&w, &x) },
                    expect,
                    "vnni cols={cols}"
                );
            }
        }
    }
}
