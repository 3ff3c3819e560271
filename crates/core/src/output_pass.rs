//! The trainer's batch turned around at the output layer: rows, not
//! samples (DESIGN.md §6, "row-owned output pass").
//!
//! The per-sample path ([`crate::Network::train_sample`]) gathers an output
//! row selected by `k` samples of a batch `k` times, scatters its gradient
//! into a dense arena `k` times, and leaves the step to a separate ADAM
//! sweep. The trainer instead, after every sample's forward pass and active
//! set:
//!
//! 1. a counting sort over the output rows builds the batch's row →
//!    (sample, pair) CSR — touched rows ascending, each row's samples
//!    ascending;
//! 2. workers take chunks of rows; each touched `W[r]` is loaded once and
//!    scored against all of its samples' hidden vectors;
//! 3. each sample's softmax turns its scores into deltas in place;
//! 4. workers take chunks of rows again; each row's gradient is summed in a
//!    row-local buffer, `δ·W[r]` goes into the worker's own hidden-gradient
//!    matrix, and the row, its moments and its bias take their ADAM step in
//!    the same visit;
//! 5. each sample's hidden gradient is the worker matrices summed in worker
//!    order; the input layer's backward stays HOGWILD.
//!
//! A row lies in one chunk and a chunk goes to one worker, so the output
//! layer is written race-free: no atomic stamp, no touched-row merge, no
//! dense gradient arena. At one thread the logits, row gradients and ADAM
//! results are bit-identical to [`crate::Network::train_sample`] followed by
//! [`crate::LayerParams::adam_row`]; only the hidden gradient's summation
//! order differs.

use crate::layer::softmax_deltas;
use crate::network::Network;
use crate::pool::ThreadPool;
use crate::scratch::{Disjoint, WorkerScratch};
use slide_data::Dataset;
use slide_mem::BatchStore;
use slide_simd::{AdamStep, KernelSet};

/// Output rows per work item of the row-owned stages.
const ROW_CHUNK: usize = 64;

/// How many rows ahead of the one it works on a row-owned stage asks for
/// that row's lines (rows are visited in ascending order).
const PREFETCH_ROWS: usize = 4;

/// One worker's buffers for the row-owned stages.
#[derive(Debug, Default)]
struct RowWorker {
    /// `n × cols`: this worker's share of the batch's hidden gradient.
    dx: Vec<f32>,
    /// One row's samples.
    samples: Vec<u32>,
    /// One row's scores, then its deltas, one per sample of the row.
    row: Vec<f32>,
    /// One row's weight gradient.
    g: Vec<f32>,
}

/// The trainer-owned state of one batch, reused across batches.
#[derive(Debug)]
pub(crate) struct OutputPass {
    /// Width of the hidden layer.
    cols: usize,
    /// `n × cols`: every sample's hidden activation.
    h: Vec<f32>,
    /// Per sample, its active set (labels first); empty without labels.
    active: Vec<Vec<u32>>,
    /// Sample `s`'s pairs are `pair_start[s]..pair_start[s + 1]`, in the
    /// order of its active set.
    pair_start: Vec<usize>,
    /// Per pair: the logit, and after the softmax the delta.
    scores: Vec<f32>,
    /// Per output row: its pair count, then its fill cursor. All zero
    /// between batches.
    counts: Vec<u32>,
    /// The batch's touched output rows, ascending.
    rows: Vec<u32>,
    /// Row `rows[i]`'s entries are `row_start[i]..row_start[i + 1]`.
    row_start: Vec<u32>,
    /// Per entry, `[sample, pair]`: the sample (ascending within a row) and
    /// the pair it scores.
    entries: Vec<[u32; 2]>,
    workers: Vec<RowWorker>,
}

impl OutputPass {
    /// Empty state for `net`, trained by `workers` threads.
    pub(crate) fn new(net: &Network, workers: usize) -> Self {
        OutputPass {
            cols: net.config().hidden,
            h: Vec::new(),
            active: Vec::new(),
            pair_start: Vec::new(),
            scores: Vec::new(),
            counts: vec![0; net.config().output_dim],
            rows: Vec::new(),
            row_start: Vec::new(),
            entries: Vec::new(),
            workers: (0..workers).map(|_| RowWorker::default()).collect(),
        }
    }

    /// Forward every labelled sample `i` of the batch (`store.get(i)`,
    /// labels of `indices[i]`) through the input layer, keep its hidden
    /// activation, and pick its active set with salt `salt_base | i`.
    #[allow(clippy::too_many_arguments)] // the batch and where it runs
    pub(crate) fn forward(
        &mut self,
        net: &Network,
        pool: &ThreadPool,
        scratches: &mut [WorkerScratch],
        store: &BatchStore,
        data: &Dataset,
        indices: &[u32],
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
                    .select_active(h_i, labels, scratch, salt_base | i as u64);
                std::mem::swap(&mut scratch.active, active_i);
            }
        });
    }

    /// The batch's row → (sample, pair) CSR, by a counting sort over the
    /// output rows: rows ascending, and — samples being visited in order —
    /// each row's samples ascending.
    fn build_csr(&mut self) {
        self.pair_start.clear();
        let mut pairs = 0usize;
        for list in &self.active {
            self.pair_start.push(pairs);
            pairs += list.len();
            for &r in list {
                self.counts[r as usize] += 1;
            }
        }
        self.pair_start.push(pairs);
        assert!(
            u32::try_from(pairs).is_ok(),
            "OutputPass: {pairs} active pairs in one batch"
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

        self.entries.resize(pairs, [0; 2]);
        for (s, list) in self.active.iter().enumerate() {
            let first = self.pair_start[s];
            for (k, &r) in list.iter().enumerate() {
                let slot = &mut self.counts[r as usize];
                self.entries[*slot as usize] = [s as u32, (first + k) as u32];
                *slot += 1;
            }
        }
        for &r in &self.rows {
            self.counts[r as usize] = 0;
        }
        self.scores.resize(pairs, 0.0);
    }

    /// Build the CSR, then score every touched output row against all of its
    /// samples: each `W[r]` is read once, by the one worker owning it.
    pub(crate) fn score(&mut self, net: &Network, pool: &ThreadPool, ks: &KernelSet) {
        self.build_csr();
        let out = net.output().params();
        let (h, rows, row_start) = (&self.h, &self.rows, &self.row_start);
        let entries = &self.entries;
        let scores = Disjoint::new(&mut self.scores);
        let workers = Disjoint::new(&mut self.workers);
        pool.parallel_chunks(rows.len(), ROW_CHUNK, &|worker, chunk| {
            // SAFETY: a worker id belongs to one running worker.
            let buf = unsafe { workers.get(worker) };
            for i in chunk {
                if let Some(&ahead) = rows.get(i + PREFETCH_ROWS) {
                    out.prefetch_row(ahead as usize, false);
                }
                let (lo, hi) = (row_start[i] as usize, row_start[i + 1] as usize);
                buf.samples.clear();
                buf.samples.extend(entries[lo..hi].iter().map(|e| e[0]));
                buf.row.resize(hi - lo, 0.0);
                // SAFETY: row `rows[i]` lies in this chunk alone, and the
                // chunk went to this worker alone: it owns the row.
                unsafe {
                    out.score_row_samples(ks, rows[i] as usize, h, &buf.samples, &mut buf.row)
                };
                for (e, &z) in entries[lo..hi].iter().zip(&buf.row) {
                    // SAFETY: a pair is one (sample, active slot) and is
                    // listed under exactly one row, which this worker owns.
                    unsafe { *scores.get(e[1] as usize) = z };
                }
            }
        });
    }

    /// Turn every labelled sample's scores into softmax deltas in place and
    /// push its loss into the worker's epoch accumulator.
    pub(crate) fn softmax(
        &mut self,
        pool: &ThreadPool,
        scratches: &mut [WorkerScratch],
        data: &Dataset,
        indices: &[u32],
    ) {
        let slots = Disjoint::new(scratches);
        let (active, pair_start) = (&self.active, &self.pair_start);
        let scores = Disjoint::new(&mut self.scores);
        pool.parallel_chunks(active.len(), 1, &|worker, samples| {
            // SAFETY: a worker id belongs to one running worker.
            let scratch = unsafe { slots.get(worker) };
            for s in samples.filter(|&s| !active[s].is_empty()) {
                // SAFETY: sample `s`, and with it its pair range, went to
                // this worker alone.
                let z = unsafe { scores.range(pair_start[s], active[s].len()) };
                let labels = data.labels(indices[s] as usize).len();
                let loss = softmax_deltas(z, labels, &mut scratch.probs);
                z.copy_from_slice(&scratch.probs);
                scratch.loss.push(loss);
            }
        });
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
        let (h, rows, row_start, scores) = (&self.h, &self.rows, &self.row_start, &self.scores);
        let entries = &self.entries;
        let workers = Disjoint::new(&mut self.workers);
        pool.parallel_chunks(rows.len(), ROW_CHUNK, &|worker, chunk| {
            // SAFETY: a worker id belongs to one running worker.
            let buf = unsafe { workers.get(worker) };
            for i in chunk {
                if let Some(&ahead) = rows.get(i + PREFETCH_ROWS) {
                    out.prefetch_row(ahead as usize, true);
                }
                let (lo, hi) = (row_start[i] as usize, row_start[i + 1] as usize);
                buf.samples.clear();
                buf.samples.extend(entries[lo..hi].iter().map(|e| e[0]));
                buf.row.clear();
                buf.row
                    .extend(entries[lo..hi].iter().map(|e| scores[e[1] as usize]));
                // SAFETY: as in `score`: this worker owns row `rows[i]`.
                unsafe {
                    out.train_row_samples(
                        ks,
                        rows[i] as usize,
                        h,
                        &buf.samples,
                        &buf.row,
                        scale,
                        &mut buf.dx,
                        &mut buf.g,
                        step,
                    )
                };
            }
        });
    }

    /// For every labelled sample: its hidden gradient summed over the
    /// workers' matrices in worker order, then the backward pass through the
    /// input layer.
    pub(crate) fn backward_input(
        &self,
        net: &Network,
        pool: &ThreadPool,
        scratches: &mut [WorkerScratch],
        store: &BatchStore,
        scale: f32,
        stamp: u32,
    ) {
        let slots = Disjoint::new(scratches);
        let cols = self.cols;
        let (h, active, workers) = (&self.h, &self.active, &self.workers);
        pool.parallel_chunks(active.len(), 1, &|worker, samples| {
            // SAFETY: a worker id belongs to one running worker.
            let scratch = unsafe { slots.get(worker) };
            for s in samples.filter(|&s| !active[s].is_empty()) {
                let row = s * cols..(s + 1) * cols;
                scratch.grad.copy_from_slice(&workers[0].dx[row.clone()]);
                for other in &workers[1..] {
                    for (d, &x) in scratch.grad.iter_mut().zip(&other.dx[row.clone()]) {
                        *d += x;
                    }
                }
                net.backward_input(store.get(s), &h[row], scratch, scale, stamp);
            }
        });
    }
}
