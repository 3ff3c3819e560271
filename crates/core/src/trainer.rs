//! The training loop: HOGWILD batch parallelism, vectorized sparse ADAM,
//! and the exponential hash-table rebuild schedule (§2, §4.1.1, §4.3.1).
//!
//! Per batch:
//!
//! 1. the batch's sparse instances are copied into one coalesced buffer
//!    (or per-instance allocations in the naive-layout ablation, §4.1),
//! 2. workers pull samples off a shared cursor and run the full
//!    forward/backward per sample, accumulating gradients racily,
//! 3. the rows stamped active (the paper's `p²` fraction) get one fused
//!    ADAM step each, partitioned across workers; dense hidden layers use
//!    the flat 1-D arena sweep of Figure 3,
//! 4. periodically the output layer's hash tables are rebuilt from the
//!    current weights, with the interval growing exponentially.

use crate::config::TrainerConfig;
use crate::network::Network;
use crate::pool::ThreadPool;
use crate::scratch::{ScratchSlots, WorkerScratch};
use slide_data::{precision_at_k, Dataset, EpochBatches, MeanMetric};
use slide_mem::{BatchStore, FragmentedBatch, SparseBatch};
use slide_simd::AdamStep;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Where an epoch's wall-clock time went — the breakdown behind the paper's
/// §5.5–§5.7 attribution of the overall speedup to individual optimizations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Copying the batch into its (coalesced or fragmented) store.
    pub batch_build: f64,
    /// HOGWILD forward/backward over all samples (hashing, active sets,
    /// kernels, gradient accumulation).
    pub forward_backward: f64,
    /// The sparse/dense ADAM phase.
    pub optimizer: f64,
    /// Hash-table rebuild.
    pub rebuild: f64,
}

impl PhaseBreakdown {
    fn add(&mut self, other: PhaseBreakdown) {
        self.batch_build += other.batch_build;
        self.forward_backward += other.forward_backward;
        self.optimizer += other.optimizer;
        self.rebuild += other.rebuild;
    }

    /// Total accounted seconds.
    pub fn total(&self) -> f64 {
        self.batch_build + self.forward_backward + self.optimizer + self.rebuild
    }
}

/// Timing/loss summary of one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Wall-clock seconds for the epoch (training only).
    pub seconds: f64,
    /// Mean per-sample cross-entropy.
    pub mean_loss: f64,
    /// Batches executed.
    pub batches: u32,
    /// Samples seen.
    pub samples: usize,
    /// Per-phase time attribution.
    pub phases: PhaseBreakdown,
}

/// One point of a Figure 6 convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ConvergencePoint {
    /// Epoch index (1-based after the epoch completes).
    pub epoch: u32,
    /// Cumulative training seconds (x-axis of Figure 6 top row).
    pub elapsed_seconds: f64,
    /// Seconds spent in this epoch alone.
    pub epoch_seconds: f64,
    /// Test P@1 after this epoch (y-axis of Figure 6).
    pub p_at_1: f64,
    /// Mean training loss during this epoch.
    pub mean_loss: f64,
}

/// A whole convergence curve: the series plotted in Figure 6.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ConvergenceLog {
    /// Curve points in epoch order.
    pub points: Vec<ConvergencePoint>,
}

impl ConvergenceLog {
    /// Render as CSV (`epoch,elapsed_seconds,epoch_seconds,p_at_1,mean_loss`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("epoch,elapsed_seconds,epoch_seconds,p_at_1,mean_loss\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{:.4},{:.4},{:.5},{:.5}\n",
                p.epoch, p.elapsed_seconds, p.epoch_seconds, p.p_at_1, p.mean_loss
            ));
        }
        out
    }

    /// Average epoch seconds across the curve (Figure 6 bottom row / Table 2).
    pub fn avg_epoch_seconds(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.epoch_seconds).sum::<f64>() / self.points.len() as f64
    }

    /// Final P@1 (Figure 6 bottom row's accuracy line).
    pub fn final_p_at_1(&self) -> f64 {
        self.points.last().map(|p| p.p_at_1).unwrap_or(0.0)
    }
}

/// How [`Trainer::evaluate`] scores predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Score every output unit (exact argmax).
    Exact,
    /// Score only the LSH-retrieved active set (SLIDE inference).
    Sampled,
}

/// Sendable raw pointer for disjoint chunked writes from pool workers.
/// Accessed only through [`SendMutPtr::slice_at`] so closures capture the
/// wrapper (which is `Sync`) rather than the raw field.
#[derive(Clone, Copy)]
struct SendMutPtr(*mut u32);
unsafe impl Send for SendMutPtr {}
unsafe impl Sync for SendMutPtr {}

impl SendMutPtr {
    /// Mutable slice at `offset` of length `len`.
    ///
    /// # Safety
    ///
    /// Slices handed to concurrent workers must be disjoint and in-bounds.
    unsafe fn slice_at<'a>(self, offset: usize, len: usize) -> &'a mut [u32] {
        std::slice::from_raw_parts_mut(self.0.add(offset), len)
    }
}

/// Drives training of a [`Network`] on a worker pool.
pub struct Trainer {
    network: Network,
    config: TrainerConfig,
    pool: ThreadPool,
    scratches: Vec<WorkerScratch>,
    adam_t: u64,
    batch_stamp: u32,
    batches_until_rebuild: u32,
    rebuild_period: f32,
    touched_out: Vec<u32>,
    touched_in: Vec<u32>,
    rebuild_keys: Vec<u32>,
    epoch_phases: PhaseBreakdown,
    current_lr: f32,
    total_train_seconds: f64,
}

impl Trainer {
    /// Create a trainer (spawns the worker pool and per-worker scratch).
    ///
    /// # Errors
    ///
    /// Returns the message from [`TrainerConfig::validate`] on an invalid
    /// configuration.
    pub fn new(network: Network, config: TrainerConfig) -> Result<Self, String> {
        config.validate()?;
        let threads = config.effective_threads();
        let scratches = (0..threads).map(|_| network.make_scratch()).collect();
        Ok(Trainer {
            pool: ThreadPool::new(threads),
            scratches,
            adam_t: 0,
            batch_stamp: 0,
            batches_until_rebuild: config.rebuild.initial_period,
            rebuild_period: config.rebuild.initial_period as f32,
            touched_out: Vec::new(),
            touched_in: Vec::new(),
            rebuild_keys: Vec::new(),
            epoch_phases: PhaseBreakdown::default(),
            current_lr: config.learning_rate,
            total_train_seconds: 0.0,
            network,
            config,
        })
    }

    /// The trained network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Consume the trainer, returning the network.
    pub fn into_network(self) -> Network {
        self.network
    }

    /// The trainer configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Worker threads in use.
    pub fn threads(&self) -> usize {
        self.pool.workers()
    }

    /// Cumulative training wall-clock seconds so far.
    pub fn total_train_seconds(&self) -> f64 {
        self.total_train_seconds
    }

    /// ADAM steps (batches) applied so far. Together with
    /// [`Trainer::set_adam_steps`] this lets a resumed-from-checkpoint
    /// trainer continue bit-identically: the step count drives both the
    /// ADAM bias correction and the per-batch active-set padding salt, so a
    /// fresh trainer that restores a [`crate::load_checkpoint`] snapshot
    /// must also restore the step count to reproduce an uninterrupted run.
    pub fn adam_steps(&self) -> u64 {
        self.adam_t
    }

    /// Resume the optimizer clock at `t` applied batches (see
    /// [`Trainer::adam_steps`]).
    pub fn set_adam_steps(&mut self, t: u64) {
        self.adam_t = t;
    }

    /// Train one epoch (shuffled batches) and return its stats.
    ///
    /// # Panics
    ///
    /// Panics if `data`'s dimensions disagree with the network's.
    pub fn train_epoch(&mut self, data: &Dataset, epoch: u64) -> EpochStats {
        assert_eq!(
            data.feature_dim(),
            self.network.config().input_dim,
            "Trainer: dataset feature_dim mismatch"
        );
        assert_eq!(
            data.label_dim(),
            self.network.config().output_dim,
            "Trainer: dataset label_dim mismatch"
        );
        for s in &mut self.scratches {
            s.loss = MeanMetric::new();
        }
        self.epoch_phases = PhaseBreakdown::default();
        self.current_lr = self
            .config
            .lr_schedule
            .lr_at(self.config.learning_rate, epoch);
        let start = Instant::now();
        let plan = EpochBatches::new(
            data.len(),
            self.config.batch_size,
            epoch,
            self.config.shuffle_seed,
        );
        let mut batches = 0u32;
        for batch in plan.iter() {
            self.train_batch(data, batch);
            batches += 1;
        }
        let seconds = start.elapsed().as_secs_f64();
        self.total_train_seconds += seconds;
        let mut loss = MeanMetric::new();
        for s in &self.scratches {
            loss.merge(s.loss);
        }
        EpochStats {
            seconds,
            mean_loss: loss.mean(),
            batches,
            samples: data.len(),
            phases: self.epoch_phases,
        }
    }

    /// Train on one explicit batch of sample indices.
    pub fn train_batch(&mut self, data: &Dataset, indices: &[u32]) {
        if indices.is_empty() {
            return;
        }
        self.adam_t += 1;
        self.batch_stamp = self.batch_stamp.wrapping_add(1);
        if self.batch_stamp == 0 {
            self.batch_stamp = 1;
        }
        let stamp = self.batch_stamp;
        let scale = 1.0 / indices.len() as f32;
        let mut phases = PhaseBreakdown::default();

        // Resolve the kernel dispatch table once per batch and hand a copy
        // to every worker: the forward/backward hot loops then run with zero
        // policy loads, while a `set_policy` change still takes effect at
        // the next batch boundary.
        let kernels = slide_simd::KernelSet::resolve();
        for s in &mut self.scratches {
            s.kernels = kernels;
        }

        // Copy the batch into the configured data layout (§4.1: this copy
        // *is* the optimization — one contiguous buffer all threads share).
        let t0 = Instant::now();
        let store = build_store(data, indices, self.network.config().memory.coalesced_data);
        phases.batch_build = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let slots = ScratchSlots::new(&mut self.scratches);
        let net = &self.network;
        let cursor = AtomicUsize::new(0);
        let salt_base = self.adam_t << 20;
        self.pool.run(&|worker| {
            // SAFETY: worker ids are distinct; slots outlive `run`.
            let scratch = unsafe { slots.get(worker) };
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= indices.len() {
                    break;
                }
                let x = store.get(i);
                let labels = data.labels(indices[i] as usize);
                let loss = net.train_sample(x, labels, scratch, scale, stamp, salt_base | i as u64);
                scratch.loss.push(loss);
            }
        });

        phases.forward_backward = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let step = AdamStep::bias_corrected(
            self.current_lr,
            self.config.beta1,
            self.config.beta2,
            self.config.eps,
            self.adam_t,
        );
        self.apply_updates(step);
        phases.optimizer = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        self.batches_until_rebuild = self.batches_until_rebuild.saturating_sub(1);
        if self.batches_until_rebuild == 0 {
            self.rebuild_tables();
            self.rebuild_period = (self.rebuild_period * self.config.rebuild.growth)
                .min(self.config.rebuild.max_period as f32);
            self.batches_until_rebuild = self.rebuild_period.round().max(1.0) as u32;
        }
        phases.rebuild = t0.elapsed().as_secs_f64();
        self.epoch_phases.add(phases);
    }

    /// Apply the sparse/dense ADAM phase for all layers.
    fn apply_updates(&mut self, step: AdamStep) {
        self.touched_out.clear();
        self.touched_in.clear();
        for s in &mut self.scratches {
            self.touched_out.append(&mut s.touched_out);
            self.touched_in.append(&mut s.touched_in);
        }
        let net = &self.network;

        // Output layer: only the batch-active rows (the p² update).
        let rows = &self.touched_out;
        let out_params = net.output().params();
        self.pool.parallel_for(rows.len(), 32, &|i| {
            let r = rows[i] as usize;
            // SAFETY: the touched list is duplicate-free (atomic stamp swap),
            // so concurrent rows are distinct.
            unsafe {
                out_params.adam_row(r, step);
                out_params.adam_bias_at(r, step);
            }
        });

        // Input layer: rows are features seen in the batch; bias is the
        // hidden vector, updated densely.
        let rows_in = &self.touched_in;
        let in_params = net.input().params();
        self.pool.parallel_for(rows_in.len(), 32, &|i| {
            // SAFETY: as above.
            unsafe { in_params.adam_row(rows_in[i] as usize, step) };
        });
        // SAFETY: single caller; workers are parked.
        unsafe { in_params.adam_bias_full(step) };

        // Dense hidden layers: every row is active; use the flat 1-D arena
        // sweep when the layout allows (Figure 3), else row-by-row.
        for layer in net.hidden_layers() {
            let p = layer.params();
            let total = p.rows() * p.cols();
            if p.supports_flat_adam() {
                let chunk = 16 * 1024;
                let n_chunks = total.div_ceil(chunk);
                self.pool.parallel_for(n_chunks, 1, &|c| {
                    let start = c * chunk;
                    let len = chunk.min(total - start);
                    // SAFETY: chunks are disjoint flat spans.
                    unsafe { p.adam_flat_span(start, len, step) };
                });
            } else {
                self.pool.parallel_for(p.rows(), 8, &|r| {
                    // SAFETY: rows are distinct.
                    unsafe { p.adam_row(r, step) };
                });
            }
            // SAFETY: single caller; workers are parked.
            unsafe { p.adam_bias_full(step) };
        }
    }

    /// Parallel two-phase hash-table rebuild: compute every neuron's keys
    /// (parallel, disjoint output chunks), then repopulate the tables.
    pub fn rebuild_tables(&mut self) {
        let out = self.network.output();
        let l = out.family().tables();
        let rows = out.output_dim();
        self.rebuild_keys.resize(rows * l, 0);
        let keys_ptr = SendMutPtr(self.rebuild_keys.as_mut_ptr());
        let slots = ScratchSlots::new(&mut self.scratches);
        let net = &self.network;
        let cursor = AtomicUsize::new(0);
        const CHUNK: usize = 64;
        self.pool.run(&|worker| {
            // SAFETY: distinct worker ids; rows chunks are disjoint.
            let scratch = unsafe { slots.get(worker) };
            loop {
                let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                if start >= rows {
                    break;
                }
                let end = (start + CHUNK).min(rows);
                for r in start..end {
                    let keys = unsafe { keys_ptr.slice_at(r * l, l) };
                    net.output().compute_row_keys(r, scratch, keys);
                }
            }
        });
        out.rebuild_from_keys(&self.rebuild_keys);
    }

    /// Evaluate P@k over (up to `max_samples` of) a dataset, in parallel.
    pub fn evaluate(
        &mut self,
        data: &Dataset,
        k: usize,
        mode: EvalMode,
        max_samples: Option<usize>,
    ) -> f64 {
        let n = max_samples.unwrap_or(usize::MAX).min(data.len());
        if n == 0 {
            return 0.0;
        }
        // One dispatch-table resolution per evaluation pass (see
        // `train_batch`).
        let kernels = slide_simd::KernelSet::resolve();
        for s in &mut self.scratches {
            s.metric = MeanMetric::new();
            s.kernels = kernels;
        }
        let slots = ScratchSlots::new(&mut self.scratches);
        let net = &self.network;
        let cursor = AtomicUsize::new(0);
        let exact = mode == EvalMode::Exact;
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
                let topk = net.predict(data.features(i), k, scratch, exact, i as u64);
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

    /// Train `epochs` epochs, evaluating P@1 after each, and return the
    /// Figure 6-style convergence curve. `eval_samples` caps evaluation cost
    /// (None = whole test set); evaluation time is *not* counted in the
    /// curve's wall-clock axis, matching the paper's "training time" metric.
    pub fn run_convergence(
        &mut self,
        train: &Dataset,
        test: &Dataset,
        epochs: u32,
        eval_mode: EvalMode,
        eval_samples: Option<usize>,
    ) -> ConvergenceLog {
        let mut log = ConvergenceLog::default();
        let mut elapsed = 0.0;
        for epoch in 0..epochs {
            let stats = self.train_epoch(train, epoch as u64);
            elapsed += stats.seconds;
            let p1 = self.evaluate(test, 1, eval_mode, eval_samples);
            log.points.push(ConvergencePoint {
                epoch: epoch + 1,
                elapsed_seconds: elapsed,
                epoch_seconds: stats.seconds,
                p_at_1: p1,
                mean_loss: stats.mean_loss,
            });
        }
        log
    }
}

fn build_store(data: &Dataset, indices: &[u32], coalesced: bool) -> BatchStore {
    if coalesced {
        let mut batch = SparseBatch::with_capacity(indices.len(), indices.len() * 8);
        for &i in indices {
            let x = data.features(i as usize);
            batch.push(x.indices, x.values);
        }
        BatchStore::Coalesced(batch)
    } else {
        let mut batch = FragmentedBatch::new();
        for &i in indices {
            let x = data.features(i as usize);
            batch.push(x.indices, x.values);
        }
        BatchStore::Fragmented(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LshConfig, NetworkConfig, Precision};
    use slide_data::{generate_synthetic, SynthConfig};

    fn tiny_data() -> slide_data::SynthDataset {
        generate_synthetic(&SynthConfig {
            feature_dim: 256,
            label_dim: 64,
            n_train: 600,
            n_test: 150,
            proto_nnz: 12,
            keep_fraction: 0.8,
            noise_nnz: 2,
            labels_per_sample: 1,
            zipf_exponent: 0.4,
            seed: 11,
        })
    }

    fn tiny_network() -> Network {
        let mut cfg = NetworkConfig::standard(256, 24, 64);
        cfg.lsh = LshConfig {
            tables: 12,
            key_bits: 5,
            min_active: 16,
            ..Default::default()
        };
        Network::new(cfg).unwrap()
    }

    fn trainer(threads: usize) -> Trainer {
        let mut tc = TrainerConfig {
            batch_size: 64,
            learning_rate: 2e-3,
            threads,
            ..Default::default()
        };
        tc.rebuild.initial_period = 5;
        Trainer::new(tiny_network(), tc).unwrap()
    }

    #[test]
    fn single_thread_training_learns_synthetic_task() {
        let data = tiny_data();
        let mut t = trainer(1);
        let before = t.evaluate(&data.test, 1, EvalMode::Exact, None);
        let mut last_loss = f64::INFINITY;
        for epoch in 0..8 {
            let stats = t.train_epoch(&data.train, epoch);
            assert!(stats.mean_loss.is_finite());
            last_loss = stats.mean_loss;
        }
        let after = t.evaluate(&data.test, 1, EvalMode::Exact, None);
        assert!(
            after > before + 0.2,
            "P@1 should climb well above chance: {before:.3} -> {after:.3} (loss {last_loss:.3})"
        );
    }

    #[test]
    fn multi_thread_training_learns_too() {
        let data = tiny_data();
        let mut t = trainer(4);
        for epoch in 0..8 {
            t.train_epoch(&data.train, epoch);
        }
        let p1 = t.evaluate(&data.test, 1, EvalMode::Exact, None);
        assert!(p1 > 0.3, "multi-thread P@1 {p1:.3}");
    }

    #[test]
    fn sampled_eval_tracks_exact_eval() {
        let data = tiny_data();
        let mut t = trainer(2);
        for epoch in 0..6 {
            t.train_epoch(&data.train, epoch);
        }
        let exact = t.evaluate(&data.test, 1, EvalMode::Exact, None);
        let sampled = t.evaluate(&data.test, 1, EvalMode::Sampled, None);
        // LSH inference can only miss retrievals; it should stay in the same
        // ballpark once tables are warm.
        assert!(
            sampled > exact * 0.5,
            "sampled {sampled:.3} vs exact {exact:.3}"
        );
    }

    #[test]
    fn convergence_log_is_monotone_in_time() {
        let data = tiny_data();
        let mut t = trainer(2);
        let log = t.run_convergence(&data.train, &data.test, 3, EvalMode::Exact, Some(50));
        assert_eq!(log.points.len(), 3);
        assert!(log
            .points
            .windows(2)
            .all(|w| w[1].elapsed_seconds >= w[0].elapsed_seconds));
        assert!(log.avg_epoch_seconds() > 0.0);
        let csv = log.to_csv();
        assert!(csv.lines().count() == 4 && csv.starts_with("epoch,"));
    }

    #[test]
    fn deterministic_across_runs_single_thread() {
        let data = tiny_data();
        let run = || {
            let mut t = trainer(1);
            for epoch in 0..2 {
                t.train_epoch(&data.train, epoch);
            }
            t.evaluate(&data.test, 1, EvalMode::Exact, None)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fragmented_memory_mode_trains() {
        let data = tiny_data();
        let mut cfg = NetworkConfig::standard(256, 24, 64);
        cfg.lsh.min_active = 16;
        cfg.lsh.tables = 12;
        cfg.lsh.key_bits = 5;
        cfg.memory.coalesced_params = false;
        cfg.memory.coalesced_data = false;
        let mut tc = TrainerConfig {
            batch_size: 64,
            learning_rate: 2e-3,
            threads: 2,
            ..Default::default()
        };
        tc.rebuild.initial_period = 5;
        let mut t = Trainer::new(Network::new(cfg).unwrap(), tc).unwrap();
        for epoch in 0..6 {
            t.train_epoch(&data.train, epoch);
        }
        let p1 = t.evaluate(&data.test, 1, EvalMode::Exact, None);
        assert!(p1 > 0.3, "fragmented-mode P@1 {p1:.3}");
    }

    #[test]
    fn bf16_modes_train() {
        let data = tiny_data();
        for precision in [Precision::Bf16Activations, Precision::Bf16Both] {
            let mut cfg = NetworkConfig::standard(256, 24, 64);
            cfg.lsh.min_active = 16;
            cfg.lsh.tables = 12;
            cfg.lsh.key_bits = 5;
            cfg.precision = precision;
            let mut tc = TrainerConfig {
                batch_size: 64,
                learning_rate: 2e-3,
                threads: 2,
                ..Default::default()
            };
            tc.rebuild.initial_period = 5;
            let mut t = Trainer::new(Network::new(cfg).unwrap(), tc).unwrap();
            for epoch in 0..6 {
                t.train_epoch(&data.train, epoch);
            }
            let p1 = t.evaluate(&data.test, 1, EvalMode::Exact, None);
            assert!(p1 > 0.25, "{precision:?} P@1 {p1:.3}");
        }
    }

    #[test]
    fn rebuild_keeps_tables_consistent() {
        let data = tiny_data();
        let mut t = trainer(2);
        t.train_epoch(&data.train, 0);
        let stats_before = t.network().output().table_stats();
        t.rebuild_tables();
        let stats_after = t.network().output().table_stats();
        // Every neuron is inserted into every table both times.
        assert_eq!(stats_before.stored, stats_after.stored);
        assert_eq!(stats_after.stored, 64 * 12);
    }

    #[test]
    fn lr_schedule_is_applied_per_epoch() {
        let data = tiny_data();
        let mut tc = TrainerConfig {
            batch_size: 64,
            learning_rate: 2e-3,
            threads: 1,
            ..Default::default()
        };
        tc.lr_schedule = crate::config::LrSchedule::StepDecay {
            every_epochs: 1,
            factor: 1e-6, // effectively freezes training after epoch 0
        };
        let mut t = Trainer::new(tiny_network(), tc).unwrap();
        t.train_epoch(&data.train, 0);
        let p_after_first = t.evaluate(&data.test, 1, EvalMode::Exact, None);
        for epoch in 1..4 {
            t.train_epoch(&data.train, epoch);
        }
        let p_after_frozen = t.evaluate(&data.test, 1, EvalMode::Exact, None);
        assert!(
            (p_after_first - p_after_frozen).abs() < 0.06,
            "decayed lr should freeze accuracy: {p_after_first:.3} vs {p_after_frozen:.3}"
        );
    }

    #[test]
    fn phase_breakdown_accounts_for_epoch() {
        let data = tiny_data();
        let mut t = trainer(2);
        let stats = t.train_epoch(&data.train, 0);
        let p = stats.phases;
        assert!(p.forward_backward > 0.0);
        assert!(p.optimizer > 0.0);
        assert!(p.batch_build >= 0.0);
        // The phases should account for the bulk of the epoch.
        assert!(
            p.total() <= stats.seconds * 1.05,
            "phases {:.4} vs epoch {:.4}",
            p.total(),
            stats.seconds
        );
        assert!(
            p.total() >= stats.seconds * 0.5,
            "phases {:.4} unaccounted vs epoch {:.4}",
            p.total(),
            stats.seconds
        );
    }

    #[test]
    fn empty_batch_is_ignored() {
        let data = tiny_data();
        let mut t = trainer(1);
        t.train_batch(&data.train, &[]);
        assert_eq!(t.total_train_seconds(), 0.0);
    }

    #[test]
    #[should_panic(expected = "feature_dim mismatch")]
    fn dimension_mismatch_panics() {
        let mut t = trainer(1);
        let wrong = slide_data::Dataset::new(99, 64);
        t.train_epoch(&wrong, 0);
    }
}
