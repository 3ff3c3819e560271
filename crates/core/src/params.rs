//! Per-layer parameter block: weights (f32 or bf16), bias, gradient
//! accumulators, ADAM moments, and batch-activity stamps.
//!
//! This is where the paper's three optimization axes meet:
//!
//! * **memory layout** — weights/gradients/moments live in [`ParamStore`]s
//!   that are either contiguous arenas or per-neuron allocations (§4.1),
//! * **precision** — weights may be stored as bf16 with f32 moments (§4.4),
//! * **vectorized sparse ADAM** — only rows the current batch touches are
//!   updated, each with one fused [`slide_simd::adam_step_f32`] sweep
//!   (§4.3.1), which realizes the paper's "only p² of weights updated".

use crate::config::Precision;
use slide_mem::{HogwildArray, ParamArenaBf16, ParamLayout, ParamStore};
use slide_simd::{AdamStep, KernelSet, RowGather};
use std::sync::atomic::{AtomicU32, Ordering};

/// Weight matrix storage: full-precision or brain-float16.
#[derive(Debug, Clone)]
pub enum WeightStorage {
    /// f32 weights in either memory layout.
    F32(ParamStore),
    /// bf16 weights (always a contiguous arena; see
    /// [`crate::NetworkConfig::validate`]).
    Bf16(ParamArenaBf16),
}

/// One layer's learnable state plus optimizer state.
///
/// `rows x cols` is the *storage* shape: row-major layers store one row per
/// output unit, the column-major sparse-input layer stores one row per input
/// feature (Lemma 1/2 of the paper — the transpose duality that keeps both
/// passes contiguous). `units` is the layer's output width, which owns the
/// bias vector.
#[derive(Debug)]
pub struct LayerParams {
    weights: WeightStorage,
    bias: HogwildArray<f32>,
    grad_w: ParamStore,
    grad_b: HogwildArray<f32>,
    m_w: ParamStore,
    v_w: ParamStore,
    m_b: HogwildArray<f32>,
    v_b: HogwildArray<f32>,
    stamps: Vec<AtomicU32>,
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
            bias: HogwildArray::zeroed(units),
            grad_w: ParamStore::zeroed(layout, rows, cols),
            grad_b: HogwildArray::zeroed(units),
            m_w: ParamStore::zeroed(layout, rows, cols),
            v_w: ParamStore::zeroed(layout, rows, cols),
            m_b: HogwildArray::zeroed(units),
            v_b: HogwildArray::zeroed(units),
            stamps: (0..rows).map(|_| AtomicU32::new(0)).collect(),
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
        self.bias.as_slice()[u]
    }

    /// Read-only view of the bias vector.
    pub fn bias_slice(&self) -> &[f32] {
        self.bias.as_slice()
    }

    /// Copy weight row `r` into an f32 buffer (widening bf16 if needed) —
    /// used by table rebuilds that hash weight vectors.
    pub fn widen_row_into(&self, r: usize, out: &mut [f32]) {
        match &self.weights {
            WeightStorage::F32(store) => out.copy_from_slice(store.row(r)),
            WeightStorage::Bf16(arena) => slide_simd::bf16::bf16_to_f32_slice(arena.row(r), out),
        }
    }

    /// Range-restricted snapshot: copy the gathered weight rows `rows` into
    /// `out` at `stride` elements per row (widening bf16), without ever
    /// materializing the rows in between. `stride >= cols` allows the
    /// cache-line row padding the frozen serving arenas use; padding
    /// elements are left untouched. This is the row-subset sibling of
    /// [`LayerParams::widen_row_into`], added so a sharded serving snapshot
    /// can build each shard's arena directly from the training layer
    /// instead of copying the whole layer first.
    ///
    /// # Panics
    ///
    /// Panics if `stride < self.cols()`, `out` is shorter than
    /// `rows.len() * stride`, or any row id is out of range.
    pub fn widen_rows_into(&self, rows: &[u32], stride: usize, out: &mut [f32]) {
        assert!(
            stride >= self.cols,
            "widen_rows_into: stride {stride} < cols {}",
            self.cols
        );
        assert!(
            out.len() >= rows.len() * stride,
            "widen_rows_into: out holds {} elements, need {}",
            out.len(),
            rows.len() * stride
        );
        for (i, &r) in rows.iter().enumerate() {
            self.widen_row_into(r as usize, &mut out[i * stride..i * stride + self.cols]);
        }
    }

    /// Range-restricted bias snapshot: `out[i] = bias[rows[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows.len()` or any row id is out of range.
    pub fn bias_gather_into(&self, rows: &[u32], out: &mut [f32]) {
        assert_eq!(out.len(), rows.len(), "bias_gather_into: out width");
        let bias = self.bias.as_slice();
        for (o, &r) in out.iter_mut().zip(rows) {
            *o = bias[r as usize];
        }
    }

    /// `grad_b[u] += delta`.
    ///
    /// # Safety
    ///
    /// HOGWILD contract, as [`LayerParams::grad_axpy_ks`].
    #[inline]
    pub unsafe fn grad_bias_add(&self, u: usize, delta: f32) {
        self.grad_b.ptr().add(u, delta);
    }

    /// `out += alpha * W[r]` through a pre-resolved kernel table —
    /// Algorithm 2's kernel and the backward `∇x = Wᵀ∇y` accumulation.
    ///
    /// # Safety
    ///
    /// HOGWILD contract (see [`slide_mem::HogwildPtr`]): the layer must
    /// outlive the call; racing writers may make the result slightly stale.
    #[inline]
    pub unsafe fn w_axpy_into_ks(&self, ks: &KernelSet, r: usize, alpha: f32, out: &mut [f32]) {
        match &self.weights {
            WeightStorage::F32(store) => ks.axpy(alpha, store.row(r), out),
            WeightStorage::Bf16(arena) => ks.axpy_bf16(alpha, arena.row(r), out),
        }
    }

    /// `grad_w[r] += alpha * x` through a pre-resolved kernel table
    /// (gradient accumulation; always f32).
    ///
    /// # Safety
    ///
    /// HOGWILD contract: concurrent accumulation into the same row may lose
    /// an addend — SLIDE's benign-race design.
    #[inline]
    pub unsafe fn grad_axpy_ks(&self, ks: &KernelSet, r: usize, alpha: f32, x: &[f32]) {
        ks.axpy(alpha, x, self.grad_w.row_racy(r));
    }

    /// `grad_b += scale * dy` over the whole bias vector through a
    /// pre-resolved kernel table.
    ///
    /// # Safety
    ///
    /// HOGWILD contract, as [`LayerParams::grad_axpy_ks`].
    #[inline]
    pub unsafe fn grad_bias_axpy_ks(&self, ks: &KernelSet, dy: &[f32], scale: f32) {
        let gb = self.grad_b.ptr().slice_mut(0, self.units);
        ks.axpy(scale, dy, gb);
    }

    /// Score the gathered weight rows `rows` against `x` into `out`
    /// (`out[i] = W[rows[i]] · x + b[rows[i]]`) with one fused multi-row
    /// kernel call instead of a dispatched dot per row. Only meaningful for
    /// row-major layers, where storage rows are output units.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows.len()` or `x.len() != self.cols()`.
    ///
    /// # Safety
    ///
    /// HOGWILD contract: the layer must outlive the call; racing writers may
    /// make the scores slightly stale.
    pub unsafe fn score_rows_into(
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
                ks.score_rows_f32(&gather.w_f32, x, out);
            }
            WeightStorage::Bf16(arena) => {
                let p = arena.ptr();
                gather.w_bf16.clear();
                gather
                    .w_bf16
                    .extend(rows.iter().map(|&r| p.row(r as usize, self.cols).as_ptr()));
                ks.score_rows_bf16(&gather.w_bf16, x, out);
            }
        }
        let bias = self.bias.as_slice();
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
    ///
    /// # Safety
    ///
    /// HOGWILD contract, as [`LayerParams::score_rows_into`].
    pub unsafe fn score_all_into(
        &self,
        ks: &KernelSet,
        x: &[f32],
        gather: &mut RowGather,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), self.rows, "score_all_into: out width");
        assert_eq!(x.len(), self.cols, "score_all_into: x width");
        if let WeightStorage::F32(ParamStore::Arena(a)) = &self.weights {
            let flat = a.ptr().slice(0, self.rows * self.cols);
            ks.gemv(flat, self.cols, x, self.bias.as_slice(), out);
            return;
        }
        match &self.weights {
            WeightStorage::F32(store) => {
                gather.w_f32.clear();
                gather
                    .w_f32
                    .extend((0..self.rows).map(|r| store.row(r).as_ptr()));
                ks.score_rows_f32(&gather.w_f32, x, out);
            }
            WeightStorage::Bf16(arena) => {
                let p = arena.ptr();
                gather.w_bf16.clear();
                gather
                    .w_bf16
                    .extend((0..self.rows).map(|r| p.row(r, self.cols).as_ptr()));
                ks.score_rows_bf16(&gather.w_bf16, x, out);
            }
        }
        let bias = self.bias.as_slice();
        for (o, &b) in out.iter_mut().zip(bias) {
            *o += b;
        }
    }

    /// Fused backward over the gathered rows: for every `rows[i]`, one pass
    /// reading `W[rows[i]]` once computes both `dx += deltas[i] · W[rows[i]]`
    /// and `grad[rows[i]] += deltas[i] · scale · h` (previously two separate
    /// dispatched sweeps per row over disjoint arenas).
    ///
    /// # Panics
    ///
    /// Panics if `deltas.len() != rows.len()` or `h`/`dx` widths disagree
    /// with the layer.
    ///
    /// # Safety
    ///
    /// HOGWILD contract: concurrent accumulation into the same gradient row
    /// may lose an addend (the documented benign race); `rows` must be
    /// duplicate-free within the call.
    #[allow(clippy::too_many_arguments)] // mirrors the fused kernel's operand list
    pub unsafe fn backward_rows_fused(
        &self,
        ks: &KernelSet,
        rows: &[u32],
        deltas: &[f32],
        scale: f32,
        h: &[f32],
        dx: &mut [f32],
        gather: &mut RowGather,
    ) {
        assert_eq!(deltas.len(), rows.len(), "backward_rows_fused: deltas");
        assert_eq!(h.len(), self.cols, "backward_rows_fused: h width");
        assert_eq!(dx.len(), self.cols, "backward_rows_fused: dx width");
        gather.grad.clear();
        gather.grad.extend(
            rows.iter()
                .map(|&r| self.grad_w.row_racy(r as usize).as_mut_ptr()),
        );
        match &self.weights {
            WeightStorage::F32(store) => {
                gather.w_f32.clear();
                gather
                    .w_f32
                    .extend(rows.iter().map(|&r| store.row(r as usize).as_ptr()));
                ks.backward_rows_f32(&gather.w_f32, &gather.grad, deltas, scale, h, dx);
            }
            WeightStorage::Bf16(arena) => {
                let p = arena.ptr();
                gather.w_bf16.clear();
                gather
                    .w_bf16
                    .extend(rows.iter().map(|&r| p.row(r as usize, self.cols).as_ptr()));
                ks.backward_rows_bf16(&gather.w_bf16, &gather.grad, deltas, scale, h, dx);
            }
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
    ///
    /// # Safety
    ///
    /// The calling thread owns row `r` for the call: no other thread writes
    /// `W[r]` or `b[r]` meanwhile.
    pub(crate) unsafe fn score_row_samples(
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
        let b = self.bias.as_slice()[r];
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
    /// hidden-gradient matrix `dx` (unscaled, as
    /// [`LayerParams::backward_rows_fused`]), then step `W[r]`, its moments
    /// and its bias. The dense gradient arena is not touched. With `samples`
    /// in ascending order the update is bit-identical to accumulating the
    /// same samples one by one into a zeroed gradient row, then
    /// [`LayerParams::adam_row`] and [`LayerParams::adam_bias_at`].
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

    /// Mark row `r` active in batch `stamp`; pushes `r` to `touched` exactly
    /// once per batch across all threads (atomic swap dedup).
    #[inline]
    pub fn mark_active(&self, r: usize, stamp: u32, touched: &mut Vec<u32>) {
        if self.stamps[r].swap(stamp, Ordering::Relaxed) != stamp {
            touched.push(r as u32);
        }
    }

    /// One fused ADAM step of weight row `r` (either precision) and its
    /// moments with the gradient `g`: the row step of
    /// [`LayerParams::adam_row`], [`LayerParams::train_row_samples`] and the
    /// trainer's input-row visit.
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

    /// Apply one fused ADAM step to weight row `r` from its accumulated
    /// gradient, and zero that gradient.
    ///
    /// # Safety
    ///
    /// Rows processed concurrently must be distinct.
    pub unsafe fn adam_row(&self, r: usize, step: AdamStep) {
        let g = self.grad_w.row_racy(r);
        // SAFETY: distinct rows (the caller's contract); `g` is another arena.
        self.step_row(r, g, step);
        g.fill(0.0);
    }

    /// Apply one scalar ADAM step to bias `u` and zero its gradient.
    ///
    /// # Safety
    ///
    /// Units processed concurrently must be distinct.
    pub unsafe fn adam_bias_at(&self, u: usize, step: AdamStep) {
        let g = self.grad_b.ptr();
        self.adam_bias_with(u, g.get(u), step);
        g.set(u, 0.0);
    }

    /// One scalar ADAM step of bias `u` with gradient `gi`.
    ///
    /// # Safety
    ///
    /// Units processed concurrently must be distinct.
    unsafe fn adam_bias_with(&self, u: usize, gi: f32, step: AdamStep) {
        let m = self.m_b.ptr();
        let v = self.v_b.ptr();
        let b = self.bias.ptr();
        let mi = step.beta1 * m.get(u) + (1.0 - step.beta1) * gi;
        let vi = step.beta2 * v.get(u) + (1.0 - step.beta2) * gi * gi;
        m.set(u, mi);
        v.set(u, vi);
        b.set(u, b.get(u) - step.lr_t * mi / (vi.sqrt() + step.eps));
    }

    /// ADAM over the whole bias vector from its accumulated gradient,
    /// vectorized, then zero that gradient.
    ///
    /// # Safety
    ///
    /// Must not race with other bias updates.
    pub unsafe fn adam_bias_full(&self, step: AdamStep) {
        let g = self.grad_b.ptr().slice_mut(0, self.units);
        // SAFETY: no racing bias update (the caller's contract).
        self.step_bias(g, step);
        g.fill(0.0);
    }

    /// ADAM over the whole bias vector with the gradient `g`, vectorized.
    ///
    /// # Safety
    ///
    /// Must not race with other bias updates.
    pub(crate) unsafe fn step_bias(&self, g: &[f32], step: AdamStep) {
        let n = self.units;
        let b = self.bias.ptr().slice_mut(0, n);
        let m = self.m_b.ptr().slice_mut(0, n);
        let v = self.v_b.ptr().slice_mut(0, n);
        slide_simd::adam_step_f32(b, m, v, g, step);
    }

    /// ADAM over a contiguous flat span of the weight arena (the paper's
    /// Figure 3 "2D -> 1D loop" fast path; only valid for coalesced f32
    /// storage). `range` is in flat element coordinates. Returns `false`,
    /// touching nothing, for any other storage.
    ///
    /// # Safety
    ///
    /// Spans processed concurrently must be disjoint.
    pub unsafe fn adam_flat_span(&self, start: usize, len: usize, step: AdamStep) -> bool {
        let (
            WeightStorage::F32(ParamStore::Arena(w)),
            ParamStore::Arena(m),
            ParamStore::Arena(v),
            ParamStore::Arena(g),
        ) = (&self.weights, &self.m_w, &self.v_w, &self.grad_w)
        else {
            return false;
        };
        let ws = w.ptr().slice_mut(start, len);
        let ms = m.ptr().slice_mut(start, len);
        let vs = v.ptr().slice_mut(start, len);
        let gs = g.ptr().slice_mut(start, len);
        slide_simd::adam_step_f32(ws, ms, vs, gs, step);
        gs.fill(0.0);
        true
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
        use bytes::BufMut;
        let mut row_buf = vec![0.0_f32; self.cols];
        for r in 0..self.rows {
            self.widen_row_into(r, &mut row_buf);
            for &w in &row_buf {
                buf.put_f32_le(w);
            }
        }
        for &b in self.bias.as_slice() {
            buf.put_f32_le(b);
        }
        for store in [&self.m_w, &self.v_w] {
            for r in 0..self.rows {
                for &m in store.row(r) {
                    buf.put_f32_le(m);
                }
            }
        }
        for arr in [&self.m_b, &self.v_b] {
            for &m in arr.as_slice() {
                buf.put_f32_le(m);
            }
        }
    }

    /// Number of bytes [`LayerParams::export_into`] produces.
    pub fn export_len(&self) -> usize {
        (3 * self.rows * self.cols + 3 * self.units) * 4
    }

    /// Restore state written by [`LayerParams::export_into`].
    ///
    /// # Errors
    ///
    /// Returns a message if the buffer is too short.
    pub fn import_from(&mut self, buf: &mut impl bytes::Buf) -> Result<(), String> {
        if buf.remaining() < self.export_len() {
            return Err(format!(
                "checkpoint truncated: need {} bytes, have {}",
                self.export_len(),
                buf.remaining()
            ));
        }
        let mut row_buf = vec![0.0_f32; self.cols];
        for r in 0..self.rows {
            for w in row_buf.iter_mut() {
                *w = buf.get_f32_le();
            }
            match &mut self.weights {
                WeightStorage::F32(store) => store.row_mut(r).copy_from_slice(&row_buf),
                WeightStorage::Bf16(arena) => {
                    slide_simd::bf16::f32_to_bf16_slice(&row_buf, arena.row_mut(r))
                }
            }
        }
        for b in self.bias.as_mut_slice() {
            *b = buf.get_f32_le();
        }
        for store in [&mut self.m_w, &mut self.v_w] {
            for r in 0..self.rows {
                for m in store.row_mut(r) {
                    *m = buf.get_f32_le();
                }
            }
        }
        for arr in [&mut self.m_b, &mut self.v_b] {
            for m in arr.as_mut_slice() {
                *m = buf.get_f32_le();
            }
        }
        Ok(())
    }

    /// Raw accumulated-gradient readback (gradient-check support).
    #[doc(hidden)]
    pub fn grad_at(&self, r: usize, c: usize) -> f32 {
        self.grad_w.row(r)[c]
    }

    /// Add `delta` to weight `(r, c)` in place (gradient-check support).
    ///
    /// # Safety
    ///
    /// HOGWILD contract: must not race with conflicting writers.
    #[doc(hidden)]
    pub unsafe fn nudge_weight(&self, r: usize, c: usize, delta: f32) {
        match &self.weights {
            WeightStorage::F32(store) => store.row_racy(r)[c] += delta,
            WeightStorage::Bf16(arena) => {
                let p = arena.ptr();
                let i = r * self.cols + c;
                let w = slide_simd::Bf16::from_bits(p.get(i)).to_f32();
                p.set(i, slide_simd::Bf16::from_f32(w + delta).to_bits());
            }
        }
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
    fn widen_rows_into_matches_per_row_widen() {
        for precision in [Precision::Fp32, Precision::Bf16Both] {
            let p = params(precision, ParamLayout::Coalesced);
            let rows = [6u32, 0, 3];
            let stride = 48; // padded beyond cols = 32
            let mut out = vec![f32::NAN; rows.len() * stride];
            p.widen_rows_into(&rows, stride, &mut out);
            for (i, &r) in rows.iter().enumerate() {
                assert_eq!(
                    &out[i * stride..i * stride + 32],
                    p.row_f32(r as usize).as_slice(),
                    "{precision:?} row {r}"
                );
                // Padding untouched.
                assert!(out[i * stride + 32..(i + 1) * stride]
                    .iter()
                    .all(|v| v.is_nan()));
            }
            let mut bias = vec![0.0f32; rows.len()];
            p.bias_gather_into(&rows, &mut bias);
            for (i, &r) in rows.iter().enumerate() {
                assert_eq!(bias[i], p.bias_at(r as usize));
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
            unsafe { p.score_rows_into(&ks, &[3], &x, &mut RowGather::default(), &mut got) };
            assert!((got[0] - expect).abs() < 1e-4, "{precision:?}");

            let mut out = vec![0.0f32; 32];
            unsafe { p.w_axpy_into_ks(&ks, 3, 2.0, &mut out) };
            for c in 0..32 {
                assert!((out[c] - 2.0 * row[c]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn adam_row_moves_weights_against_gradient_and_clears() {
        for precision in [Precision::Fp32, Precision::Bf16Both] {
            let p = params(precision, ParamLayout::Coalesced);
            let before = p.row_f32(2);
            unsafe {
                p.grad_axpy_ks(&KernelSet::resolve(), 2, 1.0, &[1.0f32; 32]);
                p.adam_row(2, AdamStep::bias_corrected(0.01, 0.9, 0.999, 1e-8, 1));
            }
            let after = p.row_f32(2);
            // Positive gradient ⇒ weights decrease.
            let decreased = (0..32).filter(|&c| after[c] < before[c]).count();
            assert!(decreased >= 30, "{precision:?}: only {decreased} decreased");
            // Gradient cleared.
            unsafe {
                p.adam_row(2, AdamStep::bias_corrected(0.01, 0.9, 0.999, 1e-8, 2));
            }
        }
    }

    #[test]
    fn bias_adam_scalar_and_full_agree() {
        let a = params(Precision::Fp32, ParamLayout::Coalesced);
        let b = params(Precision::Fp32, ParamLayout::Coalesced);
        let step = AdamStep::bias_corrected(0.1, 0.9, 0.999, 1e-8, 1);
        unsafe {
            for u in 0..8 {
                a.grad_bias_add(u, 0.25);
                b.grad_bias_add(u, 0.25);
            }
            for u in 0..8 {
                a.adam_bias_at(u, step);
            }
            b.adam_bias_full(step);
        }
        for u in 0..8 {
            assert!((a.bias_at(u) - b.bias_at(u)).abs() < 1e-6);
        }
    }

    #[test]
    fn flat_adam_matches_row_adam() {
        let a = params(Precision::Fp32, ParamLayout::Coalesced);
        let b = params(Precision::Fp32, ParamLayout::Coalesced);
        let step = AdamStep::bias_corrected(0.05, 0.9, 0.999, 1e-8, 3);
        let ks = KernelSet::resolve();
        unsafe {
            for r in 0..8 {
                let g: Vec<f32> = (0..32)
                    .map(|c| ((r * 32 + c) as f32 * 0.01) - 1.0)
                    .collect();
                a.grad_axpy_ks(&ks, r, 1.0, &g);
                b.grad_axpy_ks(&ks, r, 1.0, &g);
            }
            for r in 0..8 {
                a.adam_row(r, step);
            }
            assert!(b.adam_flat_span(0, 8 * 32, step));
        }
        for r in 0..8 {
            let ra = a.row_f32(r);
            let rb = b.row_f32(r);
            for c in 0..32 {
                assert!((ra[c] - rb[c]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn fragmented_layout_rejects_flat_adam() {
        let p = params(Precision::Fp32, ParamLayout::Fragmented);
        assert!(!unsafe {
            p.adam_flat_span(0, 8, AdamStep::bias_corrected(0.1, 0.9, 0.999, 1e-8, 1))
        });
    }

    #[test]
    fn mark_active_dedups_within_batch() {
        let p = params(Precision::Fp32, ParamLayout::Coalesced);
        let mut touched = Vec::new();
        p.mark_active(3, 1, &mut touched);
        p.mark_active(3, 1, &mut touched);
        p.mark_active(5, 1, &mut touched);
        assert_eq!(touched, vec![3, 5]);
        // New batch stamp re-admits the row.
        p.mark_active(3, 2, &mut touched);
        assert_eq!(touched, vec![3, 5, 3]);
    }
}
