//! Per-layer parameter block: weights (f32 or bf16), bias, and their ADAM
//! moments.
//!
//! This is where the paper's three optimization axes meet:
//!
//! * **memory layout** — weights and moments live in [`ParamStore`]s that
//!   are either contiguous arenas or per-neuron allocations (§4.1),
//! * **precision** — weights may be stored as bf16 with f32 moments (§4.4),
//! * **vectorized sparse ADAM** — only rows the current batch touches are
//!   updated, each with one fused [`slide_simd::adam_step_f32`] sweep by the
//!   worker that owns the row (§4.3.1), which realizes the paper's "only p²
//!   of weights updated".
//!
//! Reads take `&self` and are safe. The writes ([`LayerParams::step_row`]
//! and its callers) are `unsafe`: the caller owns the row, so no other
//! thread reads or writes it meanwhile.

use crate::config::Precision;
use slide_mem::{ByteReader, ParamArena, ParamArenaBf16, ParamLayout, ParamStore, ReadError};
use slide_simd::{AdamStep, KernelSet, RowGather};

/// Weight matrix storage: full-precision or brain-float16.
#[derive(Debug, Clone)]
pub enum WeightStorage {
    /// f32 weights in either memory layout.
    F32(ParamStore),
    /// bf16 weights (always a contiguous arena; see
    /// [`crate::NetworkConfig::validate`]).
    Bf16(ParamArenaBf16),
}

/// One layer's learnable state plus its ADAM moments.
///
/// `rows x cols` is the *storage* shape: row-major layers store one row per
/// output unit, the column-major sparse-input layer stores one row per input
/// feature (Lemma 1/2 of the paper — the transpose duality that keeps both
/// passes contiguous). `units` is the layer's output width, which owns the
/// bias vector. The bias and its moments are `units × 1` arenas, so a unit's
/// bias is reached as a row, like a weight row.
#[derive(Debug)]
pub struct LayerParams {
    weights: WeightStorage,
    bias: ParamArena,
    m_w: ParamStore,
    v_w: ParamStore,
    m_b: ParamArena,
    v_b: ParamArena,
    rows: usize,
    cols: usize,
    units: usize,
}

impl LayerParams {
    /// Allocate and initialize a parameter block.
    ///
    /// Weights are drawn uniformly from `±1/sqrt(cols)` (the standard SLIDE
    /// initialization); biases start at zero.
    pub fn new(
        rows: usize,
        cols: usize,
        units: usize,
        layout: ParamLayout,
        precision: Precision,
        seed: u64,
    ) -> Self {
        let scale = 1.0 / (cols as f32).sqrt();
        let init = |r: usize, c: usize| {
            let h = slide_hash::mix::mix3(seed, r as u64, c as u64);
            ((h >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0) * scale
        };
        let weights = match precision {
            Precision::Bf16Both => {
                let mut arena = ParamArenaBf16::zeroed(rows, cols);
                let flat = arena.flat_mut();
                for r in 0..rows {
                    for c in 0..cols {
                        flat[r * cols + c] = slide_simd::Bf16::from_f32(init(r, c)).to_bits();
                    }
                }
                WeightStorage::Bf16(arena)
            }
            _ => WeightStorage::F32(ParamStore::from_fn(layout, rows, cols, init)),
        };
        LayerParams {
            weights,
            bias: ParamArena::zeroed(units, 1),
            m_w: ParamStore::zeroed(layout, rows, cols),
            v_w: ParamStore::zeroed(layout, rows, cols),
            m_b: ParamArena::zeroed(units, 1),
            v_b: ParamArena::zeroed(units, 1),
            rows,
            cols,
            units,
        }
    }

    /// Storage rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Storage columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Output units (bias width).
    pub fn units(&self) -> usize {
        self.units
    }

    /// Whether weights are stored as bf16.
    pub fn is_bf16(&self) -> bool {
        matches!(self.weights, WeightStorage::Bf16(_))
    }

    /// Learnable parameter count (weights + bias).
    pub fn num_parameters(&self) -> u64 {
        self.rows as u64 * self.cols as u64 + self.units as u64
    }

    /// Bias value of unit `u` (shared read).
    #[inline]
    pub fn bias_at(&self, u: usize) -> f32 {
        self.bias.flat()[u]
    }

    /// Read-only view of the bias vector.
    pub fn bias_slice(&self) -> &[f32] {
        self.bias.flat()
    }

    /// Copy weight row `r` into an f32 buffer (widening bf16 if needed) —
    /// used by table rebuilds that hash weight vectors and by the serving
    /// snapshot's row writers.
    pub fn widen_row_into(&self, r: usize, out: &mut [f32]) {
        match &self.weights {
            WeightStorage::F32(store) => out.copy_from_slice(store.row(r)),
            WeightStorage::Bf16(arena) => slide_simd::bf16::bf16_to_f32_slice(arena.row(r), out),
        }
    }

    /// `out += alpha * W[r]` through a pre-resolved kernel table —
    /// Algorithm 2's kernel and the backward `∇x = Wᵀ∇y` accumulation.
    #[inline]
    pub fn w_axpy_into_ks(&self, ks: &KernelSet, r: usize, alpha: f32, out: &mut [f32]) {
        match &self.weights {
            WeightStorage::F32(store) => ks.axpy(alpha, store.row(r), out),
            WeightStorage::Bf16(arena) => ks.axpy_bf16(alpha, arena.row(r), out),
        }
    }

    /// Score the gathered weight rows `rows` against `x` into `out`
    /// (`out[i] = W[rows[i]] · x + b[rows[i]]`) with one fused multi-row
    /// kernel call instead of a dispatched dot per row. Only meaningful for
    /// row-major layers, where storage rows are output units.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows.len()`, `x.len() != self.cols()` or a
    /// row is out of range.
    pub fn score_rows_into(
        &self,
        ks: &KernelSet,
        rows: &[u32],
        x: &[f32],
        gather: &mut RowGather,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), rows.len(), "score_rows_into: out width");
        assert_eq!(x.len(), self.cols, "score_rows_into: x width");
        match &self.weights {
            WeightStorage::F32(store) => {
                gather.w_f32.clear();
                gather
                    .w_f32
                    .extend(rows.iter().map(|&r| store.row(r as usize).as_ptr()));
                // SAFETY: every pointer starts a full `cols`-wide row of this
                // layer, which `&self` keeps alive.
                unsafe { ks.score_rows_f32(&gather.w_f32, x, out) };
            }
            WeightStorage::Bf16(arena) => {
                gather.w_bf16.clear();
                gather
                    .w_bf16
                    .extend(rows.iter().map(|&r| arena.row(r as usize).as_ptr()));
                // SAFETY: as above.
                unsafe { ks.score_rows_bf16(&gather.w_bf16, x, out) };
            }
        }
        let bias = self.bias.flat();
        for (o, &r) in out.iter_mut().zip(rows) {
            *o += bias[r as usize];
        }
    }

    /// Score *every* storage row against `x` into `out`
    /// (`out[r] = W[r] · x + b[r]`). Coalesced f32 storage takes the blocked
    /// strided-gemv fast path; fragmented/bf16 storage falls back to a full
    /// row gather.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.rows()` or `x.len() != self.cols()`.
    pub fn score_all_into(
        &self,
        ks: &KernelSet,
        x: &[f32],
        gather: &mut RowGather,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), self.rows, "score_all_into: out width");
        assert_eq!(x.len(), self.cols, "score_all_into: x width");
        if let WeightStorage::F32(ParamStore::Arena(a)) = &self.weights {
            ks.gemv(a.flat(), self.cols, x, self.bias.flat(), out);
            return;
        }
        match &self.weights {
            WeightStorage::F32(store) => {
                gather.w_f32.clear();
                gather
                    .w_f32
                    .extend((0..self.rows).map(|r| store.row(r).as_ptr()));
                // SAFETY: every pointer starts a full `cols`-wide row of this
                // layer, which `&self` keeps alive.
                unsafe { ks.score_rows_f32(&gather.w_f32, x, out) };
            }
            WeightStorage::Bf16(arena) => {
                gather.w_bf16.clear();
                gather
                    .w_bf16
                    .extend((0..self.rows).map(|r| arena.row(r).as_ptr()));
                // SAFETY: as above.
                unsafe { ks.score_rows_bf16(&gather.w_bf16, x, out) };
            }
        }
        let bias = self.bias.flat();
        for (o, &b) in out.iter_mut().zip(bias) {
            *o += b;
        }
    }

    /// Score weight row `r` against the hidden vectors of the samples that
    /// selected it: `out[j] = W[r] · h[samples[j]] + b[r]`, with `h` the
    /// batch's row-major `n × cols` hidden matrix. The row is read once for
    /// all of its samples; each score is bit-identical to what
    /// [`LayerParams::score_rows_into`] gives that row for that sample.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != samples.len()` or a sample lies past `h`.
    pub(crate) fn score_row_samples(
        &self,
        ks: &KernelSet,
        r: usize,
        h: &[f32],
        samples: &[u32],
        out: &mut [f32],
    ) {
        match &self.weights {
            WeightStorage::F32(store) => ks.score_samples_f32(store.row(r), h, samples, out),
            WeightStorage::Bf16(arena) => ks.score_samples_bf16(arena.row(r), h, samples, out),
        }
        let b = self.bias.flat()[r];
        for o in out.iter_mut() {
            *o += b;
        }
    }

    /// Start loading row `r`'s weights and, with `moments`, its ADAM
    /// moments, for a row-owned pass that will reach it shortly.
    pub(crate) fn prefetch_row(&self, r: usize, moments: bool) {
        match &self.weights {
            WeightStorage::F32(store) => slide_simd::prefetch(store.row_ptr(r), self.cols),
            WeightStorage::Bf16(arena) => slide_simd::prefetch(arena.row_ptr(r), self.cols),
        }
        if moments {
            slide_simd::prefetch(self.m_w.row_ptr(r), self.cols);
            slide_simd::prefetch(self.v_w.row_ptr(r), self.cols);
        }
    }

    /// Backward and ADAM for weight row `r` in one visit: accumulate the
    /// row's gradient `g = Σ_j deltas[j]·scale·h[samples[j]]` in the
    /// row-local buffer `g`, add `deltas[j]·W[r]` into the batch's `n × cols`
    /// hidden-gradient matrix `dx` (unscaled), then step `W[r]`, its moments
    /// and its bias. `g` is bit-identical to feeding the same samples in the
    /// same order, one call each, to [`KernelSet::backward_rows_f32`] (or
    /// `_bf16`) on a zeroed row, and the bias gradient to summing
    /// `deltas[j]·scale` in that order.
    ///
    /// # Panics
    ///
    /// Panics if `deltas`/`samples` lengths or `g`'s width disagree with the
    /// layer, or a sample lies past `h` or `dx`.
    ///
    /// # Safety
    ///
    /// The calling thread owns row `r` for the call: no other thread reads
    /// or writes `W[r]`, its moments or `b[r]` meanwhile.
    #[allow(clippy::too_many_arguments)] // the row, its samples, and the step
    pub(crate) unsafe fn train_row_samples(
        &self,
        ks: &KernelSet,
        r: usize,
        h: &[f32],
        samples: &[u32],
        deltas: &[f32],
        scale: f32,
        dx: &mut [f32],
        g: &mut [f32],
        step: AdamStep,
    ) {
        match &self.weights {
            WeightStorage::F32(store) => {
                ks.backward_samples_f32(store.row(r), h, samples, deltas, scale, dx, g)
            }
            WeightStorage::Bf16(arena) => {
                ks.backward_samples_bf16(arena.row(r), h, samples, deltas, scale, dx, g)
            }
        }
        // SAFETY: row ownership (the caller's contract); `g` is the caller's.
        unsafe { self.step_row(r, g, step) };
        let gb = deltas.iter().fold(0.0_f32, |acc, &d| acc + d * scale);
        // SAFETY: row ownership covers bias unit `r` of an output layer.
        unsafe { self.adam_bias_with(r, gb, step) };
    }

    /// One fused ADAM step of weight row `r` (either precision) and its
    /// moments with the gradient `g`: the row step of
    /// [`LayerParams::train_row_samples`] and the trainer's input-row visit.
    ///
    /// # Safety
    ///
    /// The calling thread owns row `r` for the call: no other thread reads
    /// or writes `W[r]` or its moments meanwhile, and `g` is none of them.
    pub(crate) unsafe fn step_row(&self, r: usize, g: &[f32], step: AdamStep) {
        let cols = self.cols;
        // SAFETY: row ownership (the caller's contract) makes these the only
        // references to row `r` of the weight and moment arenas; `row_ptr`
        // is bounds-checked and the arenas are distinct allocations.
        let (m, v) = unsafe {
            (
                std::slice::from_raw_parts_mut(self.m_w.row_ptr(r), cols),
                std::slice::from_raw_parts_mut(self.v_w.row_ptr(r), cols),
            )
        };
        match &self.weights {
            WeightStorage::F32(store) => {
                // SAFETY: as above.
                let w = unsafe { std::slice::from_raw_parts_mut(store.row_ptr(r), cols) };
                slide_simd::adam_step_f32(w, m, v, g, step);
            }
            WeightStorage::Bf16(arena) => {
                // SAFETY: as above.
                let w = unsafe { std::slice::from_raw_parts_mut(arena.row_ptr(r), cols) };
                slide_simd::bf16::adam_step_bf16(w, m, v, g, step);
            }
        }
    }

    /// One scalar ADAM step of bias `u` with gradient `gi`.
    ///
    /// # Safety
    ///
    /// The calling thread owns unit `u` for the call: no other thread reads
    /// or writes its bias or moments meanwhile.
    unsafe fn adam_bias_with(&self, u: usize, gi: f32, step: AdamStep) {
        // SAFETY: unit ownership (the caller's contract); `row_ptr` is
        // bounds-checked and the three arenas are distinct allocations.
        let (b, m, v) = unsafe {
            (
                &mut *self.bias.row_ptr(u),
                &mut *self.m_b.row_ptr(u),
                &mut *self.v_b.row_ptr(u),
            )
        };
        *m = step.beta1 * *m + (1.0 - step.beta1) * gi;
        *v = step.beta2 * *v + (1.0 - step.beta2) * gi * gi;
        *b -= step.lr_t * *m / (v.sqrt() + step.eps);
    }

    /// ADAM over the whole bias vector with the gradient `g`, vectorized.
    ///
    /// # Safety
    ///
    /// No other thread reads or writes the bias or its moments meanwhile.
    pub(crate) unsafe fn step_bias(&self, g: &[f32], step: AdamStep) {
        let n = self.units;
        // SAFETY: the `units × 1` arenas hold `n` contiguous elements from
        // row 0; exclusivity is the caller's contract.
        let (b, m, v) = unsafe {
            (
                std::slice::from_raw_parts_mut(self.bias.row_ptr(0), n),
                std::slice::from_raw_parts_mut(self.m_b.row_ptr(0), n),
                std::slice::from_raw_parts_mut(self.v_b.row_ptr(0), n),
            )
        };
        slide_simd::adam_step_f32(b, m, v, g, step);
    }

    /// `W[r] += alpha · x` through `&mut` (bf16 weights widen, add and
    /// narrow): how tests nudge or step a layer by hand.
    #[cfg(test)]
    pub(crate) fn add_to_row(&mut self, r: usize, alpha: f32, x: &[f32]) {
        match &mut self.weights {
            WeightStorage::F32(store) => slide_simd::axpy_f32(alpha, x, store.row_mut(r)),
            WeightStorage::Bf16(arena) => {
                let mut row = vec![0.0; self.cols];
                slide_simd::bf16::bf16_to_f32_slice(arena.row(r), &mut row);
                slide_simd::axpy_f32(alpha, x, &mut row);
                slide_simd::bf16::f32_to_bf16_slice(&row, arena.row_mut(r));
            }
        }
    }

    /// Test/inspection access to a weight row widened to f32.
    pub fn row_f32(&self, r: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        self.widen_row_into(r, &mut out);
        out
    }

    /// Serialize weights, bias, and ADAM moments as little-endian f32 bytes
    /// (bf16 weights are widened; they re-quantize losslessly on import).
    pub fn export_into(&self, buf: &mut Vec<u8>) {
        let mut put = |xs: &[f32]| {
            for x in xs {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        };
        let mut row_buf = vec![0.0_f32; self.cols];
        for r in 0..self.rows {
            self.widen_row_into(r, &mut row_buf);
            put(&row_buf);
        }
        put(self.bias.flat());
        for store in [&self.m_w, &self.v_w] {
            for r in 0..self.rows {
                put(store.row(r));
            }
        }
        for arr in [&self.m_b, &self.v_b] {
            put(arr.flat());
        }
    }

    /// Number of bytes [`LayerParams::export_into`] produces.
    pub fn export_len(&self) -> usize {
        (3 * self.rows * self.cols + 3 * self.units) * 4
    }

    /// Restore state written by [`LayerParams::export_into`], reading
    /// [`LayerParams::export_len`] bytes from `r`.
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] if fewer bytes remain; the layer is left
    /// untouched then.
    pub fn import_from(&mut self, r: &mut ByteReader<'_>) -> Result<(), ReadError> {
        fn get(
            r: &mut ByteReader<'_>,
            out: &mut [f32],
            what: &'static str,
        ) -> Result<(), ReadError> {
            let words = r.words(out.len(), what)?;
            for (o, w) in out.iter_mut().zip(words) {
                *o = f32::from_bits(w);
            }
            Ok(())
        }
        // Take the whole block under one check, so every read below is in
        // bounds and a short input writes nothing.
        let r = &mut ByteReader::new(r.take(self.export_len(), "layer parameters")?);
        let mut row_buf = vec![0.0_f32; self.cols];
        for row in 0..self.rows {
            get(r, &mut row_buf, "weight row")?;
            match &mut self.weights {
                WeightStorage::F32(store) => store.row_mut(row).copy_from_slice(&row_buf),
                WeightStorage::Bf16(arena) => {
                    slide_simd::bf16::f32_to_bf16_slice(&row_buf, arena.row_mut(row))
                }
            }
        }
        get(r, self.bias.flat_mut(), "bias")?;
        for store in [&mut self.m_w, &mut self.v_w] {
            for row in 0..self.rows {
                get(r, store.row_mut(row), "weight moment row")?;
            }
        }
        for arr in [&mut self.m_b, &mut self.v_b] {
            get(r, arr.flat_mut(), "bias moment")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(precision: Precision, layout: ParamLayout) -> LayerParams {
        LayerParams::new(8, 32, 8, layout, precision, 42)
    }

    #[test]
    fn initialization_is_bounded_and_seeded() {
        let a = params(Precision::Fp32, ParamLayout::Coalesced);
        let b = params(Precision::Fp32, ParamLayout::Coalesced);
        let scale = 1.0 / 32f32.sqrt();
        for r in 0..8 {
            assert_eq!(a.row_f32(r), b.row_f32(r));
            assert!(a.row_f32(r).iter().all(|w| w.abs() <= scale));
        }
        assert!(a.bias_slice().iter().all(|&b| b == 0.0));
        assert_eq!(a.num_parameters(), 8 * 32 + 8);
    }

    #[test]
    fn layouts_share_initialization() {
        let a = params(Precision::Fp32, ParamLayout::Coalesced);
        let f = params(Precision::Fp32, ParamLayout::Fragmented);
        for r in 0..8 {
            assert_eq!(a.row_f32(r), f.row_f32(r));
        }
    }

    #[test]
    fn bf16_initialization_is_quantized_fp32() {
        let f = params(Precision::Fp32, ParamLayout::Coalesced);
        let q = params(Precision::Bf16Both, ParamLayout::Coalesced);
        assert!(q.is_bf16());
        for r in 0..8 {
            let fr = f.row_f32(r);
            let qr = q.row_f32(r);
            for c in 0..32 {
                assert_eq!(qr[c], slide_simd::Bf16::from_f32(fr[c]).to_f32());
            }
        }
    }

    #[test]
    fn dot_and_axpy_consistent_across_storage() {
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        for precision in [Precision::Fp32, Precision::Bf16Both] {
            let p = params(precision, ParamLayout::Coalesced);
            let ks = KernelSet::resolve();
            let row = p.row_f32(3);
            let expect = slide_simd::dot_f32(&row, &x);
            // Biases start at zero, so the gathered score is the bare dot.
            let mut got = [f32::NAN];
            p.score_rows_into(&ks, &[3], &x, &mut RowGather::default(), &mut got);
            assert!((got[0] - expect).abs() < 1e-4, "{precision:?}");

            let mut out = vec![0.0f32; 32];
            p.w_axpy_into_ks(&ks, 3, 2.0, &mut out);
            for c in 0..32 {
                assert!((out[c] - 2.0 * row[c]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn step_row_moves_weights_against_gradient() {
        for precision in [Precision::Fp32, Precision::Bf16Both] {
            let p = params(precision, ParamLayout::Coalesced);
            let before = p.row_f32(2);
            let step = AdamStep::bias_corrected(0.01, 0.9, 0.999, 1e-8, 1);
            // SAFETY: single-threaded; nothing else touches `p`.
            unsafe { p.step_row(2, &[1.0f32; 32], step) };
            let after = p.row_f32(2);
            // Positive gradient ⇒ weights decrease.
            let decreased = (0..32).filter(|&c| after[c] < before[c]).count();
            assert!(decreased >= 30, "{precision:?}: only {decreased} decreased");
            assert_eq!(
                p.row_f32(3),
                params(precision, ParamLayout::Coalesced).row_f32(3)
            );
        }
    }

    #[test]
    fn bias_adam_scalar_and_full_agree() {
        let a = params(Precision::Fp32, ParamLayout::Coalesced);
        let b = params(Precision::Fp32, ParamLayout::Coalesced);
        let step = AdamStep::bias_corrected(0.1, 0.9, 0.999, 1e-8, 1);
        let g: Vec<f32> = (0..8).map(|u| 0.25 - u as f32 * 0.1).collect();
        // SAFETY: single-threaded; nothing else touches `a` or `b`.
        unsafe {
            for (u, &gu) in g.iter().enumerate() {
                a.adam_bias_with(u, gu, step);
            }
            b.step_bias(&g, step);
        }
        for u in 0..8 {
            assert!((a.bias_at(u) - b.bias_at(u)).abs() < 1e-6, "unit {u}");
            assert_ne!(a.bias_at(u), 0.0, "unit {u} moved");
        }
    }
}
