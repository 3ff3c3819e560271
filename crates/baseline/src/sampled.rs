//! Uniform sampled-softmax baseline (extension beyond the paper's lineup).
//!
//! SLIDE's bet is that *adaptive* LSH sampling — retrieving neurons whose
//! weights already align with the input — beats *uniform* negative sampling
//! (Mikolov-style sampled softmax) at the same active-set size. This trainer
//! is SLIDE with the hash tables ripped out: the active set is the labels
//! plus uniformly drawn negatives. It shares the layers, the worker pool and
//! the ADAM kernels, and keeps the loop the trainer left: every sample
//! scatters its gradients HOGWILD, then a sparse ADAM sweep over the rows
//! the batch stamped (the trainer walks rows instead, each owned by one
//! worker). The sampling strategy is what the comparison isolates; the
//! write discipline is the one the paper's SLIDE uses.

use slide_core::{
    relu_backward_mask, softmax_into, LayerParams, Precision, SparseInputLayer, ThreadPool,
};
use slide_data::{precision_at_k, top_k_indices, Dataset, EpochBatches, MeanMetric};
use slide_hash::mix::{mix3, reduce};
use slide_mem::ParamLayout;
use slide_simd::{AdamStep, KernelSet, RowGather};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Configuration for the sampled-softmax baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledSoftmaxConfig {
    /// Sparse input dimensionality.
    pub input_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Output dimensionality.
    pub output_dim: usize,
    /// Uniform negatives drawn per sample (the active-set budget; compare
    /// with SLIDE's retrieved-set size).
    pub negatives: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// ADAM base learning rate.
    pub learning_rate: f32,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Seed for weights and negative draws.
    pub seed: u64,
}

impl Default for SampledSoftmaxConfig {
    fn default() -> Self {
        SampledSoftmaxConfig {
            input_dim: 1024,
            hidden: 128,
            output_dim: 1024,
            negatives: 128,
            batch_size: 256,
            learning_rate: 1e-3,
            threads: 0,
            seed: 0x5A3D,
        }
    }
}

struct Scratch {
    h: Vec<f32>,
    dh: Vec<f32>,
    active: Vec<u32>,
    seen: Vec<u32>,
    seen_gen: u32,
    logits: Vec<f32>,
    probs: Vec<f32>,
    gather: RowGather,
    touched_in: Vec<u32>,
    touched_out: Vec<u32>,
    loss: MeanMetric,
    metric: MeanMetric,
}

#[derive(Clone, Copy)]
struct Slots {
    base: *mut Scratch,
    len: usize,
}
unsafe impl Send for Slots {}
unsafe impl Sync for Slots {}

impl Slots {
    /// # Safety: one thread per worker index at a time.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut Scratch {
        assert!(i < self.len);
        &mut *self.base.add(i)
    }
}

/// SLIDE-minus-LSH: sampled softmax with uniform negatives.
///
/// # Examples
///
/// ```
/// use slide_baseline::{SampledSoftmaxBaseline, SampledSoftmaxConfig};
/// use slide_data::{generate_synthetic, SynthConfig};
///
/// let data = generate_synthetic(&SynthConfig {
///     feature_dim: 64, label_dim: 32, n_train: 128, n_test: 32, ..Default::default()
/// });
/// let mut b = SampledSoftmaxBaseline::new(SampledSoftmaxConfig {
///     input_dim: 64, hidden: 8, output_dim: 32, negatives: 8, batch_size: 32, threads: 1,
///     ..Default::default()
/// });
/// let (secs, loss) = b.train_epoch(&data.train, 0);
/// assert!(secs > 0.0 && loss.is_finite());
/// ```
pub struct SampledSoftmaxBaseline {
    config: SampledSoftmaxConfig,
    input: SparseInputLayer,
    output: LayerParams,
    pool: ThreadPool,
    scratches: Vec<Scratch>,
    touched_in: Vec<u32>,
    touched_out: Vec<u32>,
    adam_t: u64,
    batch_stamp: u32,
    total_train_seconds: f64,
}

impl SampledSoftmaxBaseline {
    /// Build the baseline (same initialization scheme as SLIDE).
    pub fn new(config: SampledSoftmaxConfig) -> Self {
        let threads = if config.threads > 0 {
            config.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let input = SparseInputLayer::new(
            config.input_dim,
            config.hidden,
            ParamLayout::Coalesced,
            Precision::Fp32,
            config.seed,
        );
        let output = LayerParams::new(
            config.output_dim,
            config.hidden,
            config.output_dim,
            ParamLayout::Coalesced,
            Precision::Fp32,
            config.seed ^ 0x0707,
        );
        let scratches = (0..threads)
            .map(|_| Scratch {
                h: vec![0.0; config.hidden],
                dh: vec![0.0; config.hidden],
                active: Vec::with_capacity(config.negatives + 8),
                seen: vec![0; config.output_dim],
                seen_gen: 0,
                logits: Vec::with_capacity(config.negatives + 8),
                probs: Vec::with_capacity(config.negatives + 8),
                gather: RowGather::default(),
                touched_in: Vec::new(),
                touched_out: Vec::new(),
                loss: MeanMetric::new(),
                metric: MeanMetric::new(),
            })
            .collect();
        SampledSoftmaxBaseline {
            config,
            input,
            output,
            pool: ThreadPool::new(threads),
            scratches,
            touched_in: Vec::new(),
            touched_out: Vec::new(),
            adam_t: 0,
            batch_stamp: 0,
            total_train_seconds: 0.0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SampledSoftmaxConfig {
        &self.config
    }

    /// Cumulative training seconds so far.
    pub fn total_train_seconds(&self) -> f64 {
        self.total_train_seconds
    }

    /// Train one shuffled epoch; returns `(seconds, mean_loss)`.
    pub fn train_epoch(&mut self, data: &Dataset, epoch: u64) -> (f64, f64) {
        assert_eq!(data.feature_dim(), self.config.input_dim);
        assert_eq!(data.label_dim(), self.config.output_dim);
        for s in &mut self.scratches {
            s.loss = MeanMetric::new();
        }
        let start = Instant::now();
        let plan = EpochBatches::new(data.len(), self.config.batch_size, epoch, 0x7EA1);
        for batch in plan.iter() {
            self.train_batch(data, batch);
        }
        let seconds = start.elapsed().as_secs_f64();
        self.total_train_seconds += seconds;
        let mut loss = MeanMetric::new();
        for s in &self.scratches {
            loss.merge(s.loss);
        }
        (seconds, loss.mean())
    }

    fn train_batch(&mut self, data: &Dataset, indices: &[u32]) {
        if indices.is_empty() {
            return;
        }
        self.adam_t += 1;
        self.batch_stamp = self.batch_stamp.wrapping_add(1).max(1);
        let stamp = self.batch_stamp;
        let scale = 1.0 / indices.len() as f32;
        let slots = Slots {
            base: self.scratches.as_mut_ptr(),
            len: self.scratches.len(),
        };
        let input = &self.input;
        let output = &self.output;
        let n_out = self.config.output_dim as u64;
        let negatives = self.config.negatives;
        let seed = self.config.seed;
        let salt_base = self.adam_t << 20;
        let ks = KernelSet::resolve();
        let cursor = AtomicUsize::new(0);
        self.pool.run(&|worker| {
            // SAFETY: distinct worker ids.
            let scratch = unsafe { slots.get(worker) };
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= indices.len() {
                    break;
                }
                let idx = indices[i] as usize;
                let x = data.features(idx);
                let labels = data.labels(idx);
                if labels.is_empty() {
                    continue;
                }
                input.forward(x, &mut scratch.h, &ks);

                // Active set: labels + uniform negatives (deduped).
                scratch.seen_gen = scratch.seen_gen.wrapping_add(1).max(1);
                if scratch.seen_gen == 1 {
                    scratch.seen.fill(0);
                }
                scratch.active.clear();
                for &l in labels {
                    if scratch.seen[l as usize] != scratch.seen_gen {
                        scratch.seen[l as usize] = scratch.seen_gen;
                        scratch.active.push(l);
                    }
                }
                let mut attempt = 0u64;
                while scratch.active.len() < labels.len() + negatives {
                    let r =
                        reduce(mix3(seed, salt_base | i as u64, attempt), n_out as usize) as u32;
                    attempt += 1;
                    if scratch.seen[r as usize] != scratch.seen_gen {
                        scratch.seen[r as usize] = scratch.seen_gen;
                        scratch.active.push(r);
                    }
                }

                scratch.logits.clear();
                scratch.logits.resize(scratch.active.len(), 0.0);
                // SAFETY: HOGWILD contract; fused multi-row scoring over
                // the sampled active set.
                unsafe {
                    output.score_rows_into(
                        &ks,
                        &scratch.active,
                        &scratch.h,
                        &mut scratch.gather,
                        &mut scratch.logits,
                    )
                };
                let log_z = softmax_into(&scratch.logits, &mut scratch.probs);
                let n_labels = labels.len().min(scratch.active.len());
                let t = 1.0 / n_labels as f32;
                let mut loss = 0.0;
                for j in 0..n_labels {
                    loss += t * (log_z - scratch.logits[j]);
                }
                scratch.loss.push(loss);

                scratch.dh.fill(0.0);
                for j in 0..n_labels {
                    scratch.probs[j] -= t;
                }
                // SAFETY: HOGWILD contract; the active list is
                // duplicate-free. One fused pass per row computes both the
                // hidden gradient and the weight-gradient accumulation.
                unsafe {
                    output.backward_rows_fused(
                        &ks,
                        &scratch.active,
                        &scratch.probs,
                        scale,
                        &scratch.h,
                        &mut scratch.dh,
                        &mut scratch.gather,
                    )
                };
                for (j, &r) in scratch.active.iter().enumerate() {
                    // SAFETY: HOGWILD contract.
                    unsafe { output.grad_bias_add(r as usize, scratch.probs[j] * scale) };
                    output.mark_active(r as usize, stamp, &mut scratch.touched_out);
                }
                relu_backward_mask(&scratch.h, &mut scratch.dh);
                let mut touched = std::mem::take(&mut scratch.touched_in);
                input.backward(x, &scratch.dh, scale, stamp, &mut touched, &ks);
                scratch.touched_in = touched;
            }
        });

        let step =
            AdamStep::bias_corrected(self.config.learning_rate, 0.9, 0.999, 1e-8, self.adam_t);
        self.touched_out.clear();
        self.touched_in.clear();
        for s in &mut self.scratches {
            self.touched_out.append(&mut s.touched_out);
            self.touched_in.append(&mut s.touched_in);
        }
        let rows_out = &self.touched_out;
        let out_params = &self.output;
        self.pool.parallel_for(rows_out.len(), 32, &|i| {
            let r = rows_out[i] as usize;
            // SAFETY: duplicate-free row list.
            unsafe {
                out_params.adam_row(r, step);
                out_params.adam_bias_at(r, step);
            }
        });
        let rows_in = &self.touched_in;
        let in_params = self.input.params();
        self.pool.parallel_for(rows_in.len(), 32, &|i| {
            // SAFETY: duplicate-free row list.
            unsafe { in_params.adam_row(rows_in[i] as usize, step) };
        });
        // SAFETY: workers parked.
        unsafe { in_params.adam_bias_full(step) };
    }

    /// Evaluate P@k with exact (full) scoring.
    pub fn evaluate(&mut self, data: &Dataset, k: usize, max_samples: Option<usize>) -> f64 {
        let n = max_samples.unwrap_or(usize::MAX).min(data.len());
        if n == 0 {
            return 0.0;
        }
        for s in &mut self.scratches {
            s.metric = MeanMetric::new();
        }
        let slots = Slots {
            base: self.scratches.as_mut_ptr(),
            len: self.scratches.len(),
        };
        let input = &self.input;
        let output = &self.output;
        let n_out = self.config.output_dim;
        let ks = KernelSet::resolve();
        let cursor = AtomicUsize::new(0);
        self.pool.run(&|worker| {
            // SAFETY: distinct worker ids.
            let scratch = unsafe { slots.get(worker) };
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let labels = data.labels(i);
                if labels.is_empty() {
                    continue;
                }
                input.forward(data.features(i), &mut scratch.h, &ks);
                scratch.logits.clear();
                scratch.logits.resize(n_out, 0.0);
                // SAFETY: HOGWILD contract.
                unsafe {
                    output.score_all_into(&ks, &scratch.h, &mut scratch.gather, &mut scratch.logits)
                };
                let topk = top_k_indices(&scratch.logits, k);
                let p = if topk.len() < k {
                    0.0
                } else {
                    precision_at_k(&topk, labels, k)
                };
                scratch.metric.push(p);
            }
        });
        let mut metric = MeanMetric::new();
        for s in &self.scratches {
            metric.merge(s.metric);
        }
        metric.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slide_data::{generate_synthetic, SynthConfig};

    fn tiny() -> slide_data::SynthDataset {
        generate_synthetic(&SynthConfig {
            feature_dim: 128,
            label_dim: 64,
            n_train: 600,
            n_test: 150,
            proto_nnz: 10,
            keep_fraction: 0.8,
            noise_nnz: 2,
            labels_per_sample: 1,
            zipf_exponent: 0.4,
            seed: 5,
        })
    }

    #[test]
    fn learns_synthetic_task() {
        let data = tiny();
        let mut b = SampledSoftmaxBaseline::new(SampledSoftmaxConfig {
            input_dim: 128,
            hidden: 16,
            output_dim: 64,
            negatives: 16,
            batch_size: 64,
            learning_rate: 3e-3,
            threads: 2,
            seed: 1,
        });
        let before = b.evaluate(&data.test, 1, None);
        for epoch in 0..10 {
            b.train_epoch(&data.train, epoch);
        }
        let after = b.evaluate(&data.test, 1, None);
        assert!(
            after > before + 0.2,
            "sampled softmax: {before:.3} -> {after:.3}"
        );
    }

    #[test]
    fn active_set_is_labels_plus_negatives() {
        // Indirect check: with negatives = 0... the loop still requires
        // labels; with small negatives the loss is finite and training works.
        let data = tiny();
        let mut b = SampledSoftmaxBaseline::new(SampledSoftmaxConfig {
            input_dim: 128,
            hidden: 8,
            output_dim: 64,
            negatives: 4,
            batch_size: 32,
            threads: 1,
            ..Default::default()
        });
        let (_, loss) = b.train_epoch(&data.train, 0);
        assert!(loss.is_finite() && loss > 0.0);
        assert!(b.total_train_seconds() > 0.0);
    }
}
