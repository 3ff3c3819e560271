//! The trainer's batch turned around at both layers: rows, not samples
//! (DESIGN.md §6, "Row-owned batch pass").
//!
//! After every sample's forward pass and active set, a counting sort builds
//! the row → sample CSR ([`RowCsr`]) of the output rows. The batch's logits
//! live in that CSR's entry order, so a row's logits and deltas are one
//! contiguous slice. Workers take chunks of rows: each touched `W[r]` is
//! scored against all of its samples straight into its slice; the
//! per-sample softmax gathers a sample's logits through
//! [`RowCsr::entry_of`] and scatters its deltas back; then the row's
//! gradient is summed in a row-local buffer, `δ·W[r]` goes into the
//! worker's hidden-gradient matrix, and the row takes its ADAM step in the
//! same visit. The input layer is walked the same way, from each sample's
//! hidden gradient `dh[s]` (the worker matrices summed, masked by the ReLU
//! derivative), with every non-zero's value placed at its entry first.
//!
//! A row lies in one chunk and a chunk goes to one worker, so both layers
//! are written race-free: no atomic stamp, no touched-row merge, no dense
//! gradient arena. At one thread every output row's gradient and step is
//! bit-identical to summing its samples' `δ·scale·h` in batch order and
//! stepping once (the reference in `tests/batch_equivalence.rs`); only
//! `dh`'s summation order differs.
//!
//! Which rows a sample activates is the trainer's [`ActiveSets`] policy:
//! LSH retrieval for SLIDE, every row for the full-softmax baseline, a
//! uniform draw for sampled softmax. The pass after that is the same.

use crate::activation::relu_backward_mask;
use crate::config::ActiveSets;
use crate::layer::softmax_deltas;
use crate::network::Network;
use crate::params::LayerParams;
use crate::pool::ThreadPool;
use crate::scratch::{Disjoint, WorkerScratch};
use slide_data::{Dataset, MeanMetric};
use slide_mem::BatchStore;
use slide_simd::{AdamStep, KernelSet};
use std::ops::Range;

/// Rows per work item of the row-owned stages.
const ROW_CHUNK: usize = 64;

/// How many rows ahead of the one it works on a row-owned stage asks for
/// that row's lines (rows are visited in ascending order).
const PREFETCH_ROWS: usize = 4;

/// One batch's row → sample CSR over one layer's rows, built by a counting
/// sort from one row list per sample: the rows the batch touches,
/// ascending, and under each the samples that list it, ascending. Pair
/// `pair_start[s] + k` is item `k` of sample `s`'s list, and `entry_of`
/// says which entry holds it; per-pair values kept in entry order give each
/// row one contiguous slice.
#[derive(Debug, Default)]
struct RowCsr {
    /// Per layer row: its entry count, then its fill cursor. All zero
    /// between builds.
    counts: Vec<u32>,
    /// The touched rows, ascending.
    rows: Vec<u32>,
    /// Row `rows[i]`'s entries are `row_start[i]..row_start[i + 1]`.
    row_start: Vec<u32>,
    /// Per entry, its sample.
    samples: Vec<u32>,
    /// Per pair, its entry: a permutation of the entries.
    entry_of: Vec<u32>,
    /// Sample `s`'s pairs are `pair_start[s]..pair_start[s + 1]`.
    pair_start: Vec<usize>,
}

impl RowCsr {
    /// Rebuild over a layer of `rows` rows from `lists`, sample `s`'s rows
    /// being the `s`-th list.
    fn build<'a>(&mut self, rows: usize, lists: impl Iterator<Item = &'a [u32]> + Clone) {
        self.counts.resize(rows, 0);
        self.pair_start.clear();
        let mut pairs = 0usize;
        for list in lists.clone() {
            self.pair_start.push(pairs);
            pairs += list.len();
            for &r in list {
                self.counts[r as usize] += 1;
            }
        }
        self.pair_start.push(pairs);
        assert!(
            u32::try_from(pairs).is_ok(),
            "RowCsr: {pairs} pairs in one batch"
        );

        self.rows.clear();
        self.row_start.clear();
        let mut at = 0u32;
        for (r, count) in self.counts.iter_mut().enumerate() {
            if *count != 0 {
                self.rows.push(r as u32);
                self.row_start.push(at);
                at += std::mem::replace(count, at);
            }
        }
        self.row_start.push(at);

        self.samples.resize(pairs, 0);
        self.entry_of.clear();
        for (s, list) in lists.enumerate() {
            for &r in list {
                let slot = &mut self.counts[r as usize];
                self.samples[*slot as usize] = s as u32;
                self.entry_of.push(*slot);
                *slot += 1;
            }
        }
        for &r in &self.rows {
            self.counts[r as usize] = 0;
        }
    }

    /// Sample `s`'s entries, in the order of its list.
    fn entries_of(&self, s: usize) -> &[u32] {
        &self.entry_of[self.pair_start[s]..self.pair_start[s + 1]]
    }
}

/// One worker's buffers for the row-owned stages.
#[derive(Debug, Default)]
struct RowWorker {
    /// `n × cols`: this worker's share of the batch's hidden gradient.
    dx: Vec<f32>,
    /// One row's weight gradient.
    g: Vec<f32>,
}

/// Visit every row of `csr` — its id, samples and entry range — on the one
/// worker whose chunk holds it, asking `layer` for the lines of the row
/// [`PREFETCH_ROWS`] ahead (with its ADAM moments when `moments`).
fn for_each_row(
    pool: &ThreadPool,
    csr: &RowCsr,
    workers: &mut [RowWorker],
    layer: &LayerParams,
    moments: bool,
    visit: impl Fn(&mut RowWorker, usize, &[u32], Range<usize>) + Sync,
) {
    let workers = Disjoint::new(workers);
    pool.parallel_chunks(csr.rows.len(), ROW_CHUNK, &|worker, chunk| {
        // SAFETY: a worker id belongs to one running worker.
        let buf = unsafe { workers.get(worker) };
        for i in chunk {
            if let Some(&ahead) = csr.rows.get(i + PREFETCH_ROWS) {
                layer.prefetch_row(ahead as usize, moments);
            }
            let entries = csr.row_start[i] as usize..csr.row_start[i + 1] as usize;
            let samples = &csr.samples[entries.clone()];
            visit(buf, csr.rows[i] as usize, samples, entries);
        }
    });
}

/// The trainer-owned state of one batch, reused across batches.
#[derive(Debug, Default)]
pub(crate) struct BatchPass {
    /// Width of the hidden layer.
    cols: usize,
    /// `n × cols`: every sample's hidden activation.
    h: Vec<f32>,
    /// Per sample, its active set (labels first); empty without labels.
    active: Vec<Vec<u32>>,
    /// Per output entry (row-major): the logit, and after the softmax the
    /// delta.
    scores: Vec<f32>,
    /// Per labelled sample, its cross-entropy loss.
    loss: Vec<f32>,
    /// The output layer's row → sample CSR; its pairs are active slots.
    out_rows: RowCsr,
    /// `n × cols`: every labelled sample's masked hidden gradient.
    dh: Vec<f32>,
    /// The input layer's row → sample CSR; its pairs are non-zeros.
    in_rows: RowCsr,
    /// Per input entry (row-major): the non-zero's value.
    values: Vec<f32>,
    /// The hidden bias's gradient.
    gb: Vec<f32>,
    workers: Vec<RowWorker>,
}

impl BatchPass {
    /// Empty state for `net`, trained by `workers` threads.
    pub(crate) fn new(net: &Network, workers: usize) -> Self {
        let cols = net.config().hidden;
        BatchPass {
            cols,
            gb: vec![0.0; cols],
            workers: (0..workers).map(|_| RowWorker::default()).collect(),
            ..Default::default()
        }
    }

    /// Forward every labelled sample `i` of the batch (`store.get(i)`,
    /// labels of `indices[i]`) through the input layer, keep its hidden
    /// activation, and pick its active set under `sets` with salt
    /// `salt_base | i`.
    #[allow(clippy::too_many_arguments)] // the batch, its policy and where it runs
    pub(crate) fn forward(
        &mut self,
        net: &Network,
        pool: &ThreadPool,
        scratches: &mut [WorkerScratch],
        store: &BatchStore,
        data: &Dataset,
        indices: &[u32],
        sets: ActiveSets,
        salt_base: u64,
    ) {
        let n = indices.len();
        let cols = self.cols;
        self.h.resize(n * cols, 0.0);
        self.active.resize_with(n, Vec::new);
        let slots = Disjoint::new(scratches);
        let h = Disjoint::new(&mut self.h);
        let active = Disjoint::new(&mut self.active);
        pool.parallel_chunks(n, 1, &|worker, samples| {
            // SAFETY: a worker id belongs to one running worker.
            let scratch = unsafe { slots.get(worker) };
            for i in samples {
                // SAFETY: sample `i` went to this worker alone; its
                // activation row and its active list are its own.
                let (h_i, active_i) = unsafe { (h.range(i * cols, cols), active.get(i)) };
                active_i.clear();
                let labels = data.labels(indices[i] as usize);
                if labels.is_empty() {
                    continue;
                }
                net.forward_hidden(store.get(i), scratch);
                h_i.copy_from_slice(&scratch.acts[0]);
                net.output()
                    .select_training(sets, h_i, labels, scratch, salt_base | i as u64);
                std::mem::swap(&mut scratch.active, active_i);
            }
        });
    }

    /// Build the output layer's row → sample CSR from the active sets.
    pub(crate) fn output_csr(&mut self, net: &Network) {
        let rows = net.output().params().rows();
        self.out_rows
            .build(rows, self.active.iter().map(Vec::as_slice));
    }

    /// Score every touched output row against all of its samples into the
    /// row's entries: each `W[r]` is read once, by the one worker owning it.
    pub(crate) fn score(&mut self, net: &Network, pool: &ThreadPool, ks: &KernelSet) {
        let out = net.output().params();
        self.scores.resize(self.out_rows.samples.len(), 0.0);
        let h = &self.h;
        let scores = Disjoint::new(&mut self.scores);
        let (rows, workers) = (&self.out_rows, &mut self.workers);
        for_each_row(pool, rows, workers, out, false, |_, r, samples, range| {
            // SAFETY: a row's entries are its own, and this worker owns it.
            let z = unsafe { scores.range(range.start, range.len()) };
            out.score_row_samples(ks, r, h, samples, z);
        });
    }

    /// Turn every labelled sample's scores into softmax deltas in place —
    /// gathered from its entries in list order, scattered back the same way
    /// — and keep its loss in its own slot.
    pub(crate) fn softmax(
        &mut self,
        pool: &ThreadPool,
        scratches: &mut [WorkerScratch],
        data: &Dataset,
        indices: &[u32],
    ) {
        self.loss.resize(self.active.len(), 0.0);
        let slots = Disjoint::new(scratches);
        let (active, csr) = (&self.active, &self.out_rows);
        let scores = Disjoint::new(&mut self.scores);
        let losses = Disjoint::new(&mut self.loss);
        pool.parallel_chunks(active.len(), 1, &|worker, samples| {
            // SAFETY: a worker id belongs to one running worker.
            let scratch = unsafe { slots.get(worker) };
            for s in samples.filter(|&s| !active[s].is_empty()) {
                let entries = csr.entries_of(s);
                // SAFETY: an entry holds one pair, and sample `s`, with its
                // loss slot and every pair of it, went to this worker alone.
                let (loss, score) = unsafe { (losses.get(s), |e: u32| scores.get(e as usize)) };
                scratch.logits.clear();
                scratch.logits.extend(entries.iter().map(|&e| *score(e)));
                let labels = data.labels(indices[s] as usize).len();
                *loss = softmax_deltas(&scratch.logits, labels, &mut scratch.probs);
                for (&e, &d) in entries.iter().zip(&scratch.probs) {
                    *score(e) = d;
                }
            }
        });
    }

    /// Push every labelled sample's loss into `metric`, in sample order.
    pub(crate) fn push_losses(&self, metric: &mut MeanMetric) {
        for (loss, active) in self.loss.iter().zip(&self.active) {
            if !active.is_empty() {
                metric.push(*loss);
            }
        }
    }

    /// Backward and ADAM for every touched output row, each by the one
    /// worker owning it: the row's gradient from its samples' deltas, its
    /// `δ·W[r]` into that worker's hidden-gradient matrix, then its step.
    pub(crate) fn backward_step(
        &mut self,
        net: &Network,
        pool: &ThreadPool,
        ks: &KernelSet,
        scale: f32,
        step: AdamStep,
    ) {
        let (n, cols) = (self.active.len(), self.cols);
        for buf in &mut self.workers {
            buf.dx.clear();
            buf.dx.resize(n * cols, 0.0);
            buf.g.resize(cols, 0.0);
        }
        let out = net.output().params();
        let (h, scores) = (&self.h, &self.scores);
        let (rows, workers) = (&self.out_rows, &mut self.workers);
        for_each_row(pool, rows, workers, out, true, |buf, r, samples, range| {
            let (RowWorker { dx, g }, deltas) = (buf, &scores[range]);
            // SAFETY: `for_each_row` hands row `r` to this worker alone.
            unsafe { out.train_row_samples(ks, r, h, samples, deltas, scale, dx, g, step) };
        });
    }

    /// Backward and ADAM for the input layer, row by row: every labelled
    /// sample's hidden gradient into `dh` and, in sample order, into the
    /// hidden bias's gradient; then every feature row the batch touches gets
    /// its gradient `Σ v·scale·dh[s]` (samples ascending) and its step from
    /// the one worker owning it; then the bias takes one step.
    pub(crate) fn input_step(
        &mut self,
        net: &Network,
        pool: &ThreadPool,
        ks: &KernelSet,
        store: &BatchStore,
        scale: f32,
        step: AdamStep,
    ) {
        let (n, cols, active) = (self.active.len(), self.cols, &self.active);
        self.dh.resize(n * cols, 0.0);
        self.gb.fill(0.0);
        for s in (0..n).filter(|&s| !active[s].is_empty()) {
            let row = s * cols..(s + 1) * cols;
            let d = &mut self.dh[row.clone()];
            d.copy_from_slice(&self.workers[0].dx[row.clone()]);
            for other in &self.workers[1..] {
                // `d + 1·x` rounds as `d + x`: the workers summed in order.
                ks.axpy(1.0, &other.dx[row.clone()], d);
            }
            relu_backward_mask(&self.h[row], d);
            ks.axpy(scale, d, &mut self.gb);
        }

        let inp = net.input().params();
        let features = |s: usize| (!active[s].is_empty()).then(|| store.get(s).indices);
        self.in_rows
            .build(inp.rows(), (0..n).map(|s| features(s).unwrap_or_default()));
        self.values.resize(self.in_rows.samples.len(), 0.0);
        for s in 0..n {
            for (&e, &v) in self.in_rows.entries_of(s).iter().zip(store.get(s).values) {
                self.values[e as usize] = v;
            }
        }
        let (dh, values) = (&self.dh, &self.values);
        let (rows, workers) = (&self.in_rows, &mut self.workers);
        for_each_row(pool, rows, workers, inp, true, |buf, r, samples, range| {
            buf.g.clear();
            buf.g.resize(cols, 0.0);
            for (&s, &v) in samples.iter().zip(&values[range]) {
                let s = s as usize;
                ks.axpy(v * scale, &dh[s * cols..(s + 1) * cols], &mut buf.g);
            }
            // SAFETY: `for_each_row` hands row `r` to this worker alone.
            unsafe { inp.step_row(r, &buf.g, step) };
        });
        // SAFETY: the workers are parked; nothing else touches the bias.
        unsafe { inp.step_bias(&self.gb, step) };
    }
}

#[cfg(test)]
mod tests;
