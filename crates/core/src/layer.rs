//! The three SLIDE layer kinds and their vectorized passes.
//!
//! Weight layout follows the paper's Lemmas 1–2 so that *every* matrix
//! traversal streams contiguous memory:
//!
//! * [`SparseInputLayer`] — column-major (one storage row per input
//!   feature). Forward is Algorithm 2: for each non-zero `(j, v)` of the
//!   sparse input, `h += v * W[j]` (a contiguous axpy).
//! * [`DenseLayer`] — row-major. Forward is Algorithm 1: one contiguous dot
//!   per output unit.
//! * [`SampledOutputLayer`] — row-major with LSH-sampled activity: the
//!   input's hash keys retrieve a tiny active set, logits are dots over just
//!   those rows (Algorithm 1 with sparse output), and the backward pass uses
//!   the same rows for `∇x = Wᵀ∇y` (Lemma 1: row-major `W` *is* column-major
//!   `Wᵀ`).

use crate::activation::{relu, softmax_into};
use crate::config::{HashFamilyKind, LshConfig, Precision};
use crate::params::LayerParams;
use crate::scratch::WorkerScratch;
use parking_lot::RwLock;
use slide_data::top_k_indices;
use slide_hash::{DwtaConfig, LshFamily, LshTables, SimHashConfig, TableStats};
use slide_mem::{ParamLayout, SparseVecRef};
use slide_simd::{KernelSet, RowGather};

// ---------------------------------------------------------------------------
// Sparse input layer (Algorithm 2)
// ---------------------------------------------------------------------------

/// Sparse-input → dense-hidden layer with column-major weights.
#[derive(Debug)]
pub struct SparseInputLayer {
    params: LayerParams,
}

impl SparseInputLayer {
    /// Create with `input_dim` feature rows of `hidden` weights each.
    pub fn new(
        input_dim: usize,
        hidden: usize,
        layout: ParamLayout,
        precision: Precision,
        seed: u64,
    ) -> Self {
        SparseInputLayer {
            params: LayerParams::new(input_dim, hidden, hidden, layout, precision, seed),
        }
    }

    /// The underlying parameter block.
    pub fn params(&self) -> &LayerParams {
        &self.params
    }

    /// Exclusive access to the parameter block (checkpoint restore).
    pub fn params_mut(&mut self) -> &mut LayerParams {
        &mut self.params
    }

    /// Forward pass: `out = relu(bias + Σ_j v_j · W[j])`. `ks` is the
    /// caller's pre-resolved kernel table (one per worker, refreshed per
    /// batch), so the per-nonzero axpy carries no policy load.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the hidden width or a feature
    /// index is out of range.
    pub fn forward(&self, x: SparseVecRef<'_>, out: &mut [f32], ks: &KernelSet) {
        assert_eq!(
            out.len(),
            self.params.units(),
            "SparseInputLayer: out width"
        );
        out.copy_from_slice(self.params.bias_slice());
        for (j, v) in x.iter() {
            // SAFETY: HOGWILD contract — the layer outlives the call.
            unsafe { self.params.w_axpy_into_ks(ks, j as usize, v, out) };
        }
        relu(out);
    }

    /// Backward pass: accumulate `∇W[j] += v_j · dy · scale` for each
    /// non-zero and `∇b += dy · scale`; stamps touched feature rows.
    ///
    /// `dy` must already be masked by the ReLU derivative.
    pub fn backward(
        &self,
        x: SparseVecRef<'_>,
        dy: &[f32],
        scale: f32,
        stamp: u32,
        touched: &mut Vec<u32>,
        ks: &KernelSet,
    ) {
        for (j, v) in x.iter() {
            // SAFETY: HOGWILD contract.
            unsafe { self.params.grad_axpy_ks(ks, j as usize, v * scale, dy) };
            self.params.mark_active(j as usize, stamp, touched);
        }
        // SAFETY: HOGWILD contract.
        unsafe { self.params.grad_bias_axpy_ks(ks, dy, scale) };
    }
}

// ---------------------------------------------------------------------------
// Dense hidden layer (Algorithm 1, dense output)
// ---------------------------------------------------------------------------

/// Dense → dense hidden layer with row-major weights.
#[derive(Debug)]
pub struct DenseLayer {
    params: LayerParams,
}

impl DenseLayer {
    /// Create with `units` rows of `in_dim` weights each.
    pub fn new(
        in_dim: usize,
        units: usize,
        layout: ParamLayout,
        precision: Precision,
        seed: u64,
    ) -> Self {
        DenseLayer {
            params: LayerParams::new(units, in_dim, units, layout, precision, seed),
        }
    }

    /// The underlying parameter block.
    pub fn params(&self) -> &LayerParams {
        &self.params
    }

    /// Exclusive access to the parameter block (checkpoint restore).
    pub fn params_mut(&mut self) -> &mut LayerParams {
        &mut self.params
    }

    /// Forward pass: `out_r = relu(W[r]·x + b_r)` for every unit, as one
    /// blocked gemv over the weight arena instead of a dispatched dot per
    /// unit.
    ///
    /// # Panics
    ///
    /// Panics if buffer widths disagree with the layer shape.
    pub fn forward(&self, x: &[f32], out: &mut [f32], ks: &KernelSet, gather: &mut RowGather) {
        assert_eq!(out.len(), self.params.units(), "DenseLayer: out width");
        assert_eq!(x.len(), self.params.cols(), "DenseLayer: in width");
        // SAFETY: HOGWILD contract.
        unsafe { self.params.score_all_into(ks, x, gather, out) };
        relu(out);
    }

    /// Backward pass: accumulate weight/bias gradients and, if `dx` is
    /// given, the upstream gradient `dx += Wᵀ dy` (unscaled). The non-zero
    /// deltas are staged in `gather` and handed to the fused multi-row
    /// kernel, so each weight row is read once.
    ///
    /// `dy` must already be masked by the ReLU derivative.
    pub fn backward(
        &self,
        x: &[f32],
        dy: &[f32],
        dx: Option<&mut [f32]>,
        scale: f32,
        ks: &KernelSet,
        gather: &mut RowGather,
    ) {
        if let Some(dx) = dx {
            let mut rows = std::mem::take(&mut gather.rows);
            let mut deltas = std::mem::take(&mut gather.deltas);
            rows.clear();
            deltas.clear();
            for (r, &d) in dy.iter().enumerate() {
                if d != 0.0 {
                    rows.push(r as u32);
                    deltas.push(d);
                }
            }
            // SAFETY: HOGWILD contract; the row list is duplicate-free.
            unsafe {
                self.params
                    .backward_rows_fused(ks, &rows, &deltas, scale, x, dx, gather)
            };
            gather.rows = rows;
            gather.deltas = deltas;
        } else {
            for (r, &d) in dy.iter().enumerate() {
                if d != 0.0 {
                    // SAFETY: HOGWILD contract.
                    unsafe { self.params.grad_axpy_ks(ks, r, d * scale, x) };
                }
            }
        }
        // SAFETY: HOGWILD contract.
        unsafe { self.params.grad_bias_axpy_ks(ks, dy, scale) };
    }
}

// ---------------------------------------------------------------------------
// LSH-sampled output layer
// ---------------------------------------------------------------------------

/// Softmax output layer whose active set is retrieved from LSH tables
/// (Figure 1 of the paper).
#[derive(Debug)]
pub struct SampledOutputLayer {
    params: LayerParams,
    family: LshFamily,
    tables: RwLock<LshTables>,
    min_active: usize,
    max_active: Option<usize>,
    probes: usize,
    pad_seed: u64,
}

impl SampledOutputLayer {
    /// Create the layer and build its initial hash tables from the freshly
    /// initialized weights.
    pub fn new(
        hidden: usize,
        output_dim: usize,
        lsh: &LshConfig,
        layout: ParamLayout,
        precision: Precision,
        seed: u64,
    ) -> Self {
        let params = LayerParams::new(output_dim, hidden, output_dim, layout, precision, seed);
        let family = match lsh.family {
            HashFamilyKind::Dwta { bin_size } => LshFamily::dwta(DwtaConfig {
                dim: hidden,
                key_bits: lsh.key_bits,
                tables: lsh.tables,
                bin_size,
                seed: seed ^ 0xD1A7,
            }),
            HashFamilyKind::SimHash => LshFamily::simhash(SimHashConfig {
                dim: hidden,
                key_bits: lsh.key_bits,
                tables: lsh.tables,
                seed: seed ^ 0x51A7,
            }),
        };
        let tables = LshTables::new(
            lsh.tables,
            lsh.key_bits,
            lsh.bucket_cap,
            lsh.policy,
            seed ^ 0x7AB1,
        );
        let layer = SampledOutputLayer {
            params,
            family,
            tables: RwLock::new(tables),
            min_active: lsh.min_active.min(output_dim),
            max_active: lsh.max_active,
            probes: lsh.probes.max(1),
            pad_seed: seed ^ 0x9AD5,
        };
        layer.rebuild_serial();
        layer
    }

    /// The underlying parameter block.
    pub fn params(&self) -> &LayerParams {
        &self.params
    }

    /// Exclusive access to the parameter block (checkpoint restore).
    pub fn params_mut(&mut self) -> &mut LayerParams {
        &mut self.params
    }

    /// The LSH family hashing this layer.
    pub fn family(&self) -> &LshFamily {
        &self.family
    }

    /// Current hash-table occupancy statistics.
    pub fn table_stats(&self) -> TableStats {
        self.tables.read().stats()
    }

    /// Number of output units.
    pub fn output_dim(&self) -> usize {
        self.params.rows()
    }

    /// Compute table keys for neuron `r`'s weight vector into `keys_out`.
    pub fn compute_row_keys(&self, r: usize, scratch: &mut WorkerScratch, keys_out: &mut [u32]) {
        self.params.widen_row_into(r, &mut scratch.widen);
        let widen = std::mem::take(&mut scratch.widen);
        self.family.keys_dense(&widen, &mut scratch.lsh, keys_out);
        scratch.widen = widen;
    }

    /// Single-threaded full rebuild (used at construction; the trainer uses
    /// the parallel two-phase path).
    pub fn rebuild_serial(&self) {
        let l = self.family.tables();
        let mut lsh_scratch = self.family.make_scratch();
        let mut widen = vec![0.0_f32; self.params.cols()];
        let mut keys = vec![0u32; l];
        let mut tables = self.tables.write();
        tables.clear();
        for r in 0..self.params.rows() {
            self.params.widen_row_into(r, &mut widen);
            self.family.keys_dense(&widen, &mut lsh_scratch, &mut keys);
            tables.insert(&keys, r as u32);
        }
    }

    /// Replace table contents from precomputed per-row keys
    /// (`all_keys[r*L..][..L]` are row `r`'s keys).
    ///
    /// # Panics
    ///
    /// Panics if `all_keys.len() != rows * L`.
    pub fn rebuild_from_keys(&self, all_keys: &[u32]) {
        let l = self.family.tables();
        assert_eq!(
            all_keys.len(),
            self.params.rows() * l,
            "rebuild_from_keys: wrong key buffer size"
        );
        let mut tables = self.tables.write();
        tables.clear();
        for r in 0..self.params.rows() {
            tables.insert(&all_keys[r * l..(r + 1) * l], r as u32);
        }
    }

    /// Build the active set for input `h` into `scratch.active`:
    /// forced labels first, then deduplicated table retrievals, then
    /// deterministic random padding up to `min_active` (capped at
    /// `max_active` when configured).
    pub fn select_active(&self, h: &[f32], labels: &[u32], scratch: &mut WorkerScratch, salt: u64) {
        self.family
            .keys_dense(h, &mut scratch.lsh, &mut scratch.keys);
        scratch.candidates.clear();
        {
            let tables = self.tables.read();
            if self.probes > 1 {
                tables.query_multiprobe_into(&scratch.keys, self.probes, &mut scratch.candidates);
            } else {
                tables.query_into(&scratch.keys, &mut scratch.candidates);
            }
        }

        scratch.dedup.begin();
        scratch.active.clear();
        for &l in labels {
            if scratch.dedup.insert(l) {
                scratch.active.push(l);
            }
        }
        let cap = self.max_active.unwrap_or(usize::MAX).max(labels.len());
        for i in 0..scratch.candidates.len() {
            if scratch.active.len() >= cap {
                break;
            }
            let c = scratch.candidates[i];
            if scratch.dedup.insert(c) {
                scratch.active.push(c);
            }
        }
        // Pad with pseudo-random neurons so early training (tables still
        // cold) keeps gradients flowing.
        let n = self.output_dim() as u64;
        let want = self.min_active.min(cap);
        let mut attempt = 0u64;
        while scratch.active.len() < want {
            let r = (slide_hash::mix::mix3(self.pad_seed, salt, attempt) % n) as u32;
            attempt += 1;
            if scratch.dedup.insert(r) {
                scratch.active.push(r);
            }
        }
    }

    /// Train on one sample: sampled softmax + cross-entropy over the active
    /// set, gradient accumulation into this layer, and the hidden gradient
    /// `dx += Wᵀδ` (unscaled — the upstream layer applies `scale` when it
    /// accumulates its own gradients).
    ///
    /// Returns the sample's cross-entropy loss. Samples with no labels
    /// return 0 and touch nothing.
    #[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's full argument list
    pub fn train_sample(
        &self,
        h: &[f32],
        labels: &[u32],
        scratch: &mut WorkerScratch,
        scale: f32,
        stamp: u32,
        dx: &mut [f32],
        salt: u64,
    ) -> f32 {
        if labels.is_empty() {
            return 0.0;
        }
        let ks = scratch.kernels;
        self.select_active(h, labels, scratch, salt);
        let active_len = scratch.active.len();
        scratch.logits.clear();
        scratch.logits.resize(active_len, 0.0);
        // SAFETY: HOGWILD contract; one fused multi-row scoring call over
        // the gathered active set replaces a dispatched dot per row.
        unsafe {
            self.params.score_rows_into(
                &ks,
                &scratch.active,
                h,
                &mut scratch.gather,
                &mut scratch.logits,
            )
        };
        let log_z = softmax_into(&scratch.logits, &mut scratch.probs);

        // Labels occupy the first positions of the active set by
        // construction; the target distributes mass uniformly across them.
        let n_labels = labels.len().min(active_len);
        let t = 1.0 / n_labels as f32;
        let mut loss = 0.0_f32;
        for i in 0..n_labels {
            loss += t * (log_z - scratch.logits[i]);
        }

        // Turn the probabilities into softmax deltas in place, then run the
        // fused backward: one pass per row computes both `dx += δ·W[r]` and
        // `grad[r] += δ·scale·h`.
        for i in 0..n_labels {
            scratch.probs[i] -= t;
        }
        // SAFETY: HOGWILD contract; the active list is duplicate-free.
        unsafe {
            self.params.backward_rows_fused(
                &ks,
                &scratch.active,
                &scratch.probs,
                scale,
                h,
                dx,
                &mut scratch.gather,
            )
        };
        for i in 0..active_len {
            let r = scratch.active[i] as usize;
            // SAFETY: HOGWILD contract; rows marked for the sparse ADAM pass.
            unsafe { self.params.grad_bias_add(r, scratch.probs[i] * scale) };
            self.params.mark_active(r, stamp, &mut scratch.touched_out);
        }
        loss
    }

    /// Predict the top-`k` labels using LSH retrieval (SLIDE inference: only
    /// the active set is scored).
    pub fn predict_topk_sampled(
        &self,
        h: &[f32],
        k: usize,
        scratch: &mut WorkerScratch,
        salt: u64,
    ) -> Vec<u32> {
        let ks = scratch.kernels;
        self.select_active(h, &[], scratch, salt);
        scratch.logits.clear();
        scratch.logits.resize(scratch.active.len(), 0.0);
        // SAFETY: HOGWILD contract.
        unsafe {
            self.params.score_rows_into(
                &ks,
                &scratch.active,
                h,
                &mut scratch.gather,
                &mut scratch.logits,
            )
        };
        top_k_indices(&scratch.logits, k)
            .into_iter()
            .map(|i| scratch.active[i as usize])
            .collect()
    }

    /// Predict the top-`k` labels scoring *every* output unit (exact
    /// full-softmax argmax; used for accuracy parity checks and the dense
    /// baseline comparison).
    pub fn predict_topk_full(&self, h: &[f32], k: usize, scratch: &mut WorkerScratch) -> Vec<u32> {
        let ks = scratch.kernels;
        let n = self.output_dim();
        scratch.logits.clear();
        scratch.logits.resize(n, 0.0);
        // SAFETY: HOGWILD contract; coalesced f32 storage takes the blocked
        // strided-gemv fast path.
        unsafe {
            self.params
                .score_all_into(&ks, h, &mut scratch.gather, &mut scratch.logits)
        };
        top_k_indices(&scratch.logits, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LshConfig;

    fn scratch_for(hidden: usize, out: usize, layer: &SampledOutputLayer) -> WorkerScratch {
        WorkerScratch::new(&[hidden], out, layer.family())
    }

    #[test]
    fn sparse_input_forward_matches_manual() {
        let layer = SparseInputLayer::new(10, 4, ParamLayout::Coalesced, Precision::Fp32, 1);
        let ks = KernelSet::resolve();
        let idx = [2u32, 7];
        let val = [1.5f32, -0.5];
        let x = SparseVecRef::new(&idx, &val);
        let mut out = vec![0.0; 4];
        layer.forward(x, &mut out, &ks);
        let w2 = layer.params().row_f32(2);
        let w7 = layer.params().row_f32(7);
        for hcol in 0..4 {
            let pre = 1.5 * w2[hcol] - 0.5 * w7[hcol];
            assert!((out[hcol] - pre.max(0.0)).abs() < 1e-6, "h{hcol}");
        }
    }

    #[test]
    fn dense_forward_matches_manual() {
        let layer = DenseLayer::new(6, 3, ParamLayout::Coalesced, Precision::Fp32, 2);
        let ks = KernelSet::resolve();
        let mut gather = RowGather::default();
        let x: Vec<f32> = (0..6).map(|i| i as f32 * 0.2 - 0.5).collect();
        let mut out = vec![0.0; 3];
        layer.forward(&x, &mut out, &ks, &mut gather);
        for (r, &o) in out.iter().enumerate() {
            let w = layer.params().row_f32(r);
            let pre: f32 = w.iter().zip(&x).map(|(a, b)| a * b).sum();
            assert!((o - pre.max(0.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn dense_forward_fragmented_matches_coalesced() {
        // The fragmented layout takes the row-gather fallback instead of the
        // strided gemv; both must agree.
        let a = DenseLayer::new(10, 7, ParamLayout::Coalesced, Precision::Fp32, 21);
        let f = DenseLayer::new(10, 7, ParamLayout::Fragmented, Precision::Fp32, 21);
        let ks = KernelSet::resolve();
        let mut gather = RowGather::default();
        let x: Vec<f32> = (0..10).map(|i| (i as f32 * 0.31).sin()).collect();
        let (mut oa, mut of) = (vec![0.0; 7], vec![0.0; 7]);
        a.forward(&x, &mut oa, &ks, &mut gather);
        f.forward(&x, &mut of, &ks, &mut gather);
        for r in 0..7 {
            assert!((oa[r] - of[r]).abs() < 1e-5, "r={r}");
        }
    }

    #[test]
    fn train_sample_at_detected_level_matches_scalar_table() {
        // The vector kernels and the scalar table must produce the same
        // loss, hidden gradient, and accumulated weight gradients (up to
        // float reassociation).
        let lsh = LshConfig {
            min_active: 24,
            ..Default::default()
        };
        let h: Vec<f32> = (0..16).map(|i| 0.05 * i as f32 - 0.3).collect();
        let labels = [3u32, 11];
        let run = |level: slide_simd::SimdLevel| {
            let layer =
                SampledOutputLayer::new(16, 48, &lsh, ParamLayout::Coalesced, Precision::Fp32, 77);
            let mut scratch = scratch_for(16, 48, &layer);
            scratch.kernels = KernelSet::for_level(level);
            let mut dx = vec![0.0; 16];
            let loss = layer.train_sample(&h, &labels, &mut scratch, 0.5, 1, &mut dx, 9);
            let grads: Vec<f32> = scratch
                .touched_out
                .iter()
                .map(|&r| layer.params().grad_at(r as usize, 5))
                .collect();
            (loss, dx, scratch.touched_out.clone(), grads)
        };
        let (loss_v, dx_v, touched_v, grads_v) = run(slide_simd::detected_level());
        let (loss_s, dx_s, touched_s, grads_s) = run(slide_simd::SimdLevel::Scalar);
        assert_eq!(touched_v, touched_s, "active sets must be identical");
        assert!((loss_v - loss_s).abs() < 1e-5, "{loss_v} vs {loss_s}");
        for i in 0..16 {
            assert!((dx_v[i] - dx_s[i]).abs() < 1e-4, "dx[{i}]");
        }
        for (i, (a, b)) in grads_v.iter().zip(&grads_s).enumerate() {
            assert!((a - b).abs() < 1e-5, "grad[{i}]");
        }
    }

    #[test]
    fn output_layer_retrieves_itself() {
        // A neuron queried with its own weight vector must appear in its
        // active set (same hash keys ⇒ same buckets).
        let lsh = LshConfig {
            tables: 8,
            key_bits: 5,
            min_active: 0,
            ..Default::default()
        };
        let layer =
            SampledOutputLayer::new(16, 100, &lsh, ParamLayout::Coalesced, Precision::Fp32, 3);
        let mut scratch = scratch_for(16, 100, &layer);
        for r in [0usize, 17, 99] {
            let w = layer.params().row_f32(r);
            layer.select_active(&w, &[], &mut scratch, 0);
            assert!(
                scratch.active.contains(&(r as u32)),
                "neuron {r} missing from its own active set"
            );
        }
    }

    #[test]
    fn labels_always_forced_into_active_set() {
        let lsh = LshConfig {
            min_active: 4,
            ..Default::default()
        };
        let layer =
            SampledOutputLayer::new(8, 50, &lsh, ParamLayout::Coalesced, Precision::Fp32, 4);
        let mut scratch = scratch_for(8, 50, &layer);
        let h = vec![0.1; 8];
        layer.select_active(&h, &[42, 7], &mut scratch, 1);
        assert_eq!(&scratch.active[..2], &[42, 7]);
        assert!(scratch.active.len() >= 4);
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        assert!(scratch.active.iter().all(|&a| seen.insert(a)));
    }

    #[test]
    fn min_active_pads_cold_tables() {
        let lsh = LshConfig {
            min_active: 16,
            max_active: Some(20),
            ..Default::default()
        };
        let layer =
            SampledOutputLayer::new(8, 64, &lsh, ParamLayout::Coalesced, Precision::Fp32, 5);
        let mut scratch = scratch_for(8, 64, &layer);
        // Zero vector hashes somewhere; padding must still reach min_active.
        layer.select_active(&[0.0; 8], &[], &mut scratch, 9);
        assert!(scratch.active.len() >= 16);
        assert!(scratch.active.len() <= 64);
    }

    #[test]
    fn train_sample_reduces_loss_on_repeat() {
        let lsh = LshConfig {
            min_active: 16,
            ..Default::default()
        };
        let layer =
            SampledOutputLayer::new(8, 40, &lsh, ParamLayout::Coalesced, Precision::Fp32, 6);
        let mut scratch = scratch_for(8, 40, &layer);
        let h: Vec<f32> = (0..8).map(|i| 0.3 + i as f32 * 0.1).collect();
        let labels = [5u32];
        let mut dx = vec![0.0; 8];
        let first = layer.train_sample(&h, &labels, &mut scratch, 1.0, 1, &mut dx, 0);
        // Apply the accumulated gradients.
        let step = slide_simd::AdamStep::bias_corrected(0.05, 0.9, 0.999, 1e-8, 1);
        for &r in scratch.touched_out.clone().iter() {
            unsafe {
                layer.params().adam_row(r as usize, step);
                layer.params().adam_bias_at(r as usize, step);
            }
        }
        let mut dx2 = vec![0.0; 8];
        let second = layer.train_sample(&h, &labels, &mut scratch, 1.0, 2, &mut dx2, 0);
        assert!(
            second < first,
            "loss should drop after an update: {first} -> {second}"
        );
        assert!(dx.iter().any(|&v| v != 0.0), "hidden gradient flowed");
    }

    #[test]
    fn empty_labels_are_skipped() {
        let layer = SampledOutputLayer::new(
            4,
            10,
            &LshConfig::default(),
            ParamLayout::Coalesced,
            Precision::Fp32,
            7,
        );
        let mut scratch = scratch_for(4, 10, &layer);
        let mut dx = vec![0.0; 4];
        let loss = layer.train_sample(&[1.0; 4], &[], &mut scratch, 1.0, 1, &mut dx, 0);
        assert_eq!(loss, 0.0);
        assert!(scratch.touched_out.is_empty());
        assert!(dx.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn full_and_sampled_prediction_agree_when_tables_cover() {
        // With enough tables and padding the sampled prediction matches the
        // exact top-1 most of the time; check on the trivially separable
        // case of querying a neuron's own weights.
        let lsh = LshConfig {
            tables: 12,
            key_bits: 4,
            min_active: 32,
            ..Default::default()
        };
        let layer =
            SampledOutputLayer::new(12, 64, &lsh, ParamLayout::Coalesced, Precision::Fp32, 8);
        let mut scratch = scratch_for(12, 64, &layer);
        let mut agree = 0;
        for r in 0..32usize {
            let w = layer.params().row_f32(r);
            let full = layer.predict_topk_full(&w, 1, &mut scratch);
            let sampled = layer.predict_topk_sampled(&w, 1, &mut scratch, r as u64);
            if full == sampled {
                agree += 1;
            }
        }
        assert!(agree >= 24, "only {agree}/32 agreements");
    }

    #[test]
    fn rebuild_from_keys_matches_serial() {
        let lsh = LshConfig {
            tables: 6,
            key_bits: 5,
            ..Default::default()
        };
        let layer =
            SampledOutputLayer::new(8, 30, &lsh, ParamLayout::Coalesced, Precision::Fp32, 9);
        let mut scratch = scratch_for(8, 30, &layer);
        let l = layer.family().tables();
        let mut all_keys = vec![0u32; 30 * l];
        for r in 0..30 {
            let mut keys = vec![0u32; l];
            layer.compute_row_keys(r, &mut scratch, &mut keys);
            all_keys[r * l..(r + 1) * l].copy_from_slice(&keys);
        }
        let before = layer.table_stats();
        layer.rebuild_from_keys(&all_keys);
        let after = layer.table_stats();
        assert_eq!(before.stored, after.stored);
        assert_eq!(before.occupied_buckets, after.occupied_buckets);
    }

    #[test]
    fn bf16_layer_trains() {
        let lsh = LshConfig {
            min_active: 8,
            ..Default::default()
        };
        let layer =
            SampledOutputLayer::new(8, 20, &lsh, ParamLayout::Coalesced, Precision::Bf16Both, 10);
        assert!(layer.params().is_bf16());
        let mut scratch = scratch_for(8, 20, &layer);
        let mut dx = vec![0.0; 8];
        let loss = layer.train_sample(&[0.5; 8], &[3], &mut scratch, 1.0, 1, &mut dx, 0);
        assert!(loss.is_finite() && loss > 0.0);
    }
}
