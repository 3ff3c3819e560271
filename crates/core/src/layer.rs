//! The two SLIDE layers and their vectorized passes: the paper's network is
//! sparse input → one hidden layer → sampled softmax output, so the input
//! layer produces the hidden activation and the output layer consumes it.
//!
//! Weight layout follows the paper's Lemmas 1–2 so that *every* matrix
//! traversal streams contiguous memory:
//!
//! * [`SparseInputLayer`] — column-major (one storage row per input
//!   feature). Forward is Algorithm 2: for each non-zero `(j, v)` of the
//!   sparse input, `h += v * W[j]` (a contiguous axpy).
//! * [`SampledOutputLayer`] — row-major with LSH-sampled activity: the
//!   input's hash keys retrieve a tiny active set, logits are dots over just
//!   those rows (Algorithm 1 with sparse output), and the backward pass uses
//!   the same rows for `∇x = Wᵀ∇y` (Lemma 1: row-major `W` *is* column-major
//!   `Wᵀ`).

use crate::activation::{relu, softmax_into};
use crate::config::{ActiveSets, LshConfig, Precision};
use crate::params::LayerParams;
use crate::retrieval::Retrieval;
use crate::scratch::WorkerScratch;
use slide_data::top_k_indices;
use slide_hash::{LshFamily, LshTables, TableStats};
use slide_mem::{ParamLayout, SparseVecRef};
use slide_simd::KernelSet;

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
            self.params.w_axpy_into_ks(ks, j as usize, v, out);
        }
        relu(out);
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
    retrieval: Retrieval,
    tables: LshTables,
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
        let retrieval = Retrieval::training(hidden, output_dim, lsh, seed);
        let tables = retrieval.tables_from_rows(&params);
        SampledOutputLayer {
            params,
            retrieval,
            tables,
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

    /// The LSH family hashing this layer.
    pub fn family(&self) -> &LshFamily {
        self.retrieval.family()
    }

    /// Current hash-table occupancy statistics.
    pub fn table_stats(&self) -> TableStats {
        self.tables.stats()
    }

    /// Number of output units.
    pub fn output_dim(&self) -> usize {
        self.params.rows()
    }

    /// Compute table keys for neuron `r`'s weight vector into `keys_out`.
    pub fn compute_row_keys(&self, r: usize, scratch: &mut WorkerScratch, keys_out: &mut [u32]) {
        self.params.widen_row_into(r, &mut scratch.widen);
        self.family()
            .keys_dense(&scratch.widen, &mut scratch.lsh, keys_out);
    }

    /// Single-threaded full rebuild (used at checkpoint restore; the
    /// trainer uses the parallel two-phase path).
    pub fn rebuild_serial(&mut self) {
        self.tables = self.retrieval.tables_from_rows(&self.params);
    }

    /// Replace the tables with a build from precomputed per-row keys
    /// (`all_keys[r*L..][..L]` are row `r`'s keys).
    ///
    /// # Panics
    ///
    /// Panics if `all_keys.len() != rows * L`.
    pub fn rebuild_from_keys(&mut self, all_keys: &[u32]) {
        let l = self.family().tables();
        assert_eq!(
            all_keys.len(),
            self.params.rows() * l,
            "rebuild_from_keys: wrong key buffer size"
        );
        self.tables = self.retrieval.tables_from_keys(all_keys);
    }

    /// Build the active set for input `h` into `scratch.active`: the
    /// `labels` forced first, then [`Retrieval::select`]'s retrieve → dedup
    /// → cap → pad over this layer's tables.
    pub fn select_active(&self, h: &[f32], labels: &[u32], scratch: &mut WorkerScratch, salt: u64) {
        self.retrieval
            .select(&self.tables, h, labels, scratch.select_buffers(), salt);
    }

    /// A training sample's active set under `sets` into `scratch.active`,
    /// the `labels` first: [`SampledOutputLayer::select_active`] for
    /// [`ActiveSets::Retrieval`]; every row, or a uniform draw, for the
    /// baselines, which read no table.
    pub(crate) fn select_training(
        &self,
        sets: ActiveSets,
        h: &[f32],
        labels: &[u32],
        scratch: &mut WorkerScratch,
        salt: u64,
    ) {
        let (dedup, active) = (&mut scratch.dedup, &mut scratch.active);
        match sets {
            ActiveSets::Retrieval => self.select_active(h, labels, scratch, salt),
            ActiveSets::All => self.retrieval.select_all(labels, dedup, active),
            ActiveSets::Uniform { negatives } => self
                .retrieval
                .select_uniform(labels, negatives, dedup, active, salt),
        }
    }

    /// One sample's sampled softmax, writing no parameter: select its
    /// active set (`scratch.active`), score it, leave the cross-entropy
    /// deltas `p − t` in `scratch.probs`, and add the hidden gradient
    /// `Wᵀδ` into `dx`. Returns the loss; a sample without labels returns 0
    /// and touches nothing.
    pub(crate) fn sample_deltas(
        &self,
        h: &[f32],
        labels: &[u32],
        scratch: &mut WorkerScratch,
        dx: &mut [f32],
        salt: u64,
    ) -> f32 {
        if labels.is_empty() {
            return 0.0;
        }
        let ks = scratch.kernels;
        self.select_active(h, labels, scratch, salt);
        scratch.logits.clear();
        scratch.logits.resize(scratch.active.len(), 0.0);
        self.params.score_rows_into(
            &ks,
            &scratch.active,
            h,
            &mut scratch.gather,
            &mut scratch.logits,
        );
        let loss = softmax_deltas(&scratch.logits, labels.len(), &mut scratch.probs);
        for (&r, &delta) in scratch.active.iter().zip(&scratch.probs) {
            self.params.w_axpy_into_ks(&ks, r as usize, delta, dx);
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
        self.params.score_rows_into(
            &ks,
            &scratch.active,
            h,
            &mut scratch.gather,
            &mut scratch.logits,
        );
        top_k_indices(&scratch.logits, k)
            .into_iter()
            .map(|i| scratch.active[i as usize])
            .collect()
    }

    /// Predict the top-`k` labels scoring *every* output unit (exact
    /// full-softmax argmax; used for accuracy parity checks and exact
    /// evaluation).
    pub fn predict_topk_full(&self, h: &[f32], k: usize, scratch: &mut WorkerScratch) -> Vec<u32> {
        let ks = scratch.kernels;
        let n = self.output_dim();
        scratch.logits.clear();
        scratch.logits.resize(n, 0.0);
        // Coalesced f32 storage takes the blocked strided-gemv fast path.
        self.params
            .score_all_into(&ks, h, &mut scratch.gather, &mut scratch.logits);
        top_k_indices(&scratch.logits, k)
    }
}

/// Sampled softmax cross-entropy over one active set whose first entries
/// are the sample's `labels` (at most `logits.len()` of them): leaves the
/// deltas `p − t` in `probs` and returns the loss. The target spreads its
/// mass uniformly over the labels.
pub(crate) fn softmax_deltas(logits: &[f32], labels: usize, probs: &mut Vec<f32>) -> f32 {
    let log_z = softmax_into(logits, probs);
    let n_labels = labels.min(logits.len());
    let t = 1.0 / n_labels as f32;
    let mut loss = 0.0_f32;
    for &z in &logits[..n_labels] {
        loss += t * (log_z - z);
    }
    for p in &mut probs[..n_labels] {
        *p -= t;
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LshConfig;
    use slide_simd::RowGather;

    fn scratch_for(hidden: usize, out: usize, layer: &SampledOutputLayer) -> WorkerScratch {
        WorkerScratch::new(hidden, out, layer.family())
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

    /// Every row of `p` scored against `x` through
    /// [`LayerParams::score_all_into`]: the blocked strided gemv on
    /// coalesced f32, the row gather otherwise.
    fn score_all(p: &LayerParams, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; p.rows()];
        let (ks, mut gather) = (KernelSet::resolve(), RowGather::default());
        p.score_all_into(&ks, x, &mut gather, &mut out);
        out
    }

    #[test]
    fn dense_forward_matches_manual() {
        let p = LayerParams::new(3, 6, 3, ParamLayout::Coalesced, Precision::Fp32, 2);
        let x: Vec<f32> = (0..6).map(|i| i as f32 * 0.2 - 0.5).collect();
        for (r, &o) in score_all(&p, &x).iter().enumerate() {
            let w = p.row_f32(r);
            let pre: f32 = w.iter().zip(&x).map(|(a, b)| a * b).sum();
            assert!((o - (pre + p.bias_at(r))).abs() < 1e-5);
        }
    }

    #[test]
    fn dense_forward_fragmented_matches_coalesced() {
        // The fragmented layout takes the row-gather fallback instead of the
        // strided gemv; both must agree.
        let a = LayerParams::new(7, 10, 7, ParamLayout::Coalesced, Precision::Fp32, 21);
        let f = LayerParams::new(7, 10, 7, ParamLayout::Fragmented, Precision::Fp32, 21);
        let x: Vec<f32> = (0..10).map(|i| (i as f32 * 0.31).sin()).collect();
        let (oa, of) = (score_all(&a, &x), score_all(&f, &x));
        for r in 0..7 {
            assert!((oa[r] - of[r]).abs() < 1e-5, "r={r}");
        }
    }

    /// Plain SGD on the rows `sample_deltas` last scored: `W[r] -= lr·δ·h`,
    /// through `&mut`.
    fn sgd_step(layer: &mut SampledOutputLayer, scratch: &WorkerScratch, h: &[f32], lr: f32) {
        for (&r, &delta) in scratch.active.iter().zip(&scratch.probs) {
            layer.params_mut().add_to_row(r as usize, -lr * delta, h);
        }
    }

    #[test]
    fn train_sample_at_detected_level_matches_scalar_table() {
        // The vector kernels and the scalar table must produce the same
        // active set, loss, deltas and hidden gradient (up to float
        // reassociation).
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
            let loss = layer.sample_deltas(&h, &labels, &mut scratch, &mut dx, 9);
            (loss, dx, scratch.active.clone(), scratch.probs.clone())
        };
        let (loss_v, dx_v, active_v, deltas_v) = run(slide_simd::detected_level());
        let (loss_s, dx_s, active_s, deltas_s) = run(slide_simd::SimdLevel::Scalar);
        assert_eq!(active_v, active_s, "active sets must be identical");
        assert!((loss_v - loss_s).abs() < 1e-5, "{loss_v} vs {loss_s}");
        for i in 0..16 {
            assert!((dx_v[i] - dx_s[i]).abs() < 1e-4, "dx[{i}]");
        }
        for (i, (a, b)) in deltas_v.iter().zip(&deltas_s).enumerate() {
            assert!((a - b).abs() < 1e-5, "delta[{i}]");
        }
    }

    #[test]
    fn train_sample_reduces_loss_on_repeat() {
        let lsh = LshConfig {
            min_active: 16,
            ..Default::default()
        };
        let mut layer =
            SampledOutputLayer::new(8, 40, &lsh, ParamLayout::Coalesced, Precision::Fp32, 6);
        let mut scratch = scratch_for(8, 40, &layer);
        let h: Vec<f32> = (0..8).map(|i| 0.3 + i as f32 * 0.1).collect();
        let labels = [5u32];
        let mut dx = vec![0.0; 8];
        let first = layer.sample_deltas(&h, &labels, &mut scratch, &mut dx, 0);
        sgd_step(&mut layer, &scratch, &h, 0.5);
        let mut dx2 = vec![0.0; 8];
        let second = layer.sample_deltas(&h, &labels, &mut scratch, &mut dx2, 0);
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
        let loss = layer.sample_deltas(&[1.0; 4], &[], &mut scratch, &mut dx, 0);
        assert_eq!(loss, 0.0);
        assert!(scratch.active.is_empty());
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
    fn bf16_layer_trains() {
        let lsh = LshConfig {
            min_active: 8,
            ..Default::default()
        };
        let mut layer =
            SampledOutputLayer::new(8, 20, &lsh, ParamLayout::Coalesced, Precision::Bf16Both, 10);
        assert!(layer.params().is_bf16());
        let mut scratch = scratch_for(8, 20, &layer);
        let mut dx = vec![0.0; 8];
        let h = [0.5; 8];
        let loss = layer.sample_deltas(&h, &[3], &mut scratch, &mut dx, 0);
        assert!(loss.is_finite() && loss > 0.0);
        sgd_step(&mut layer, &scratch, &h, 0.5);
        let again = layer.sample_deltas(&h, &[3], &mut scratch, &mut dx, 0);
        assert!(
            again < loss,
            "bf16 step lowered the loss: {loss} -> {again}"
        );
    }
}
