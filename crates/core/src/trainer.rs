//! The training loop: batch parallelism, the row-owned batch pass,
//! vectorized sparse ADAM, and the exponential hash-table rebuild schedule
//! (§2, §4.1.1, §4.3.1).
//!
//! Per batch:
//!
//! 1. the batch's sparse instances are copied into one coalesced buffer
//!    (or per-instance allocations in the naive-layout ablation, §4.1),
//! 2. workers take samples in chunks, run the input layer to the hidden
//!    activation and pick each sample's active set under the configured
//!    [`ActiveSets`] policy (LSH retrieval for SLIDE; every row or a
//!    uniform draw for the baselines),
//! 3. the output layer is walked by row ([`crate::batch_pass`]): each
//!    batch-active row is scored against all of its samples, and after the
//!    per-sample softmax it is backpropagated and ADAM-stepped in one visit
//!    by the one worker that owns it,
//! 4. from each sample's hidden gradient, the input layer is walked by row
//!    the same way: each feature row the batch touches sums its gradient
//!    and takes its ADAM step in one visit by the one worker that owns it,
//! 5. under retrieval, periodically the output layer's hash tables are
//!    rebuilt from the current weights, with the interval growing
//!    exponentially.

use crate::batch_pass::BatchPass;
use crate::config::{
    ActiveSets, TrainerConfig, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, REBUILD_GROWTH, REBUILD_MAX_PERIOD,
};
use crate::network::Network;
use crate::pool::ThreadPool;
use crate::scratch::{Disjoint, WorkerScratch};
use slide_data::{precision_at_k, Dataset, EpochBatches, MeanMetric};
use slide_mem::{BatchStore, FragmentedBatch, SparseBatch};
use slide_simd::AdamStep;
use std::time::Instant;

/// Where an epoch's wall-clock time went — the breakdown behind the paper's
/// §5.5–§5.7 attribution of the overall speedup to individual optimizations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Copying the batch into its (coalesced or fragmented) store.
    pub batch_build: f64,
    /// Per sample: the input layer forward, hashing and the active set.
    pub forward: f64,
    /// The output layer's row → samples CSR.
    pub csr: f64,
    /// Scoring every touched output row against its samples.
    pub score: f64,
    /// Per sample: the softmax over its active set, into deltas and loss.
    pub softmax: f64,
    /// The output layer's row-owned backward and ADAM step.
    pub backward_adam: f64,
    /// The row-owned input pass: the hidden gradients, the row → samples
    /// CSR, and the input layer's backward and ADAM step.
    pub input: f64,
    /// Hash-table rebuild.
    pub rebuild: f64,
}

impl PhaseBreakdown {
    /// Every phase's seconds, in batch order, under its field name.
    pub fn named(&self) -> [(&'static str, f64); 8] {
        [
            ("batch_build", self.batch_build),
            ("forward", self.forward),
            ("csr", self.csr),
            ("score", self.score),
            ("softmax", self.softmax),
            ("backward_adam", self.backward_adam),
            ("input", self.input),
            ("rebuild", self.rebuild),
        ]
    }

    /// Apply `f` to every phase's seconds.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> PhaseBreakdown {
        PhaseBreakdown {
            batch_build: f(self.batch_build),
            forward: f(self.forward),
            csr: f(self.csr),
            score: f(self.score),
            softmax: f(self.softmax),
            backward_adam: f(self.backward_adam),
            input: f(self.input),
            rebuild: f(self.rebuild),
        }
    }

    /// Add `other`'s seconds phase by phase.
    pub fn add(&mut self, other: PhaseBreakdown) {
        self.batch_build += other.batch_build;
        self.forward += other.forward;
        self.csr += other.csr;
        self.score += other.score;
        self.softmax += other.softmax;
        self.backward_adam += other.backward_adam;
        self.input += other.input;
        self.rebuild += other.rebuild;
    }

    /// Total accounted seconds.
    pub fn total(&self) -> f64 {
        self.named().iter().map(|(_, s)| s).sum()
    }
}

/// Timing/loss summary of one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Wall-clock seconds for the epoch (training only).
    pub seconds: f64,
    /// Mean cross-entropy over the samples that have labels.
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
    /// Where this epoch's seconds went.
    pub phases: PhaseBreakdown,
}

/// A whole convergence curve: the series plotted in Figure 6.
#[derive(Debug, Clone, Default, PartialEq)]
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

/// Drives training of a [`Network`] on a worker pool.
pub struct Trainer {
    network: Network,
    config: TrainerConfig,
    pool: ThreadPool,
    scratches: Vec<WorkerScratch>,
    adam_t: u64,
    batches_until_rebuild: u32,
    rebuild_period: f32,
    pass: BatchPass,
    rebuild_keys: Vec<u32>,
    epoch_loss: MeanMetric,
    epoch_phases: PhaseBreakdown,
}

impl Trainer {
    /// Create a trainer on `config.threads` workers: the calling thread,
    /// which runs worker 0's share of every parallel stage, and
    /// `threads − 1` spawned ones. At 1 thread nothing is spawned and the
    /// whole batch runs on the calling thread.
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
            batches_until_rebuild: config.rebuild.initial_period,
            rebuild_period: config.rebuild.initial_period as f32,
            pass: BatchPass::new(&network, threads),
            rebuild_keys: Vec::new(),
            epoch_loss: MeanMetric::new(),
            epoch_phases: PhaseBreakdown::default(),
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

    /// Workers in use, the calling thread included.
    pub fn threads(&self) -> usize {
        self.pool.workers()
    }

    /// ADAM steps (batches) applied so far. Together with
    /// [`Trainer::set_adam_steps`] this lets a resumed-from-checkpoint
    /// trainer continue bit-identically: the step count drives the ADAM bias
    /// correction, the per-batch active-set padding salt and the table
    /// rebuild schedule, so a fresh trainer that restores a
    /// [`crate::load_checkpoint`] snapshot must also restore the step count
    /// to reproduce an uninterrupted run.
    pub fn adam_steps(&self) -> u64 {
        self.adam_t
    }

    /// Resume the optimizer clock at `t` applied batches (see
    /// [`Trainer::adam_steps`]): the rebuild schedule is replayed from its
    /// start over `t` batches, so the next rebuild falls on the batch an
    /// uninterrupted run rebuilds at.
    pub fn set_adam_steps(&mut self, t: u64) {
        self.adam_t = t;
        self.batches_until_rebuild = self.config.rebuild.initial_period;
        self.rebuild_period = self.config.rebuild.initial_period as f32;
        for _ in 0..t {
            self.rebuild_due();
        }
    }

    /// Count one batch against the rebuild schedule; `true` when the tables
    /// are due for a rebuild, the period then growing by [`REBUILD_GROWTH`]
    /// up to [`REBUILD_MAX_PERIOD`].
    fn rebuild_due(&mut self) -> bool {
        self.batches_until_rebuild = self.batches_until_rebuild.saturating_sub(1);
        if self.batches_until_rebuild != 0 {
            return false;
        }
        self.rebuild_period = (self.rebuild_period * REBUILD_GROWTH).min(REBUILD_MAX_PERIOD as f32);
        self.batches_until_rebuild = self.rebuild_period.round().max(1.0) as u32;
        true
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
        self.epoch_loss = MeanMetric::new();
        self.epoch_phases = PhaseBreakdown::default();
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
        EpochStats {
            seconds: start.elapsed().as_secs_f64(),
            mean_loss: self.epoch_loss.mean(),
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
        let scale = 1.0 / indices.len() as f32;
        let step = AdamStep::bias_corrected(
            self.config.learning_rate,
            ADAM_BETA1,
            ADAM_BETA2,
            ADAM_EPS,
            self.adam_t,
        );
        let mut phases = PhaseBreakdown::default();

        // Resolve the kernel dispatch table once per batch and hand a copy
        // to every worker: the hot loops then run with zero policy loads,
        // while a `set_policy` change still takes effect at the next batch
        // boundary.
        let kernels = slide_simd::KernelSet::resolve();
        for s in &mut self.scratches {
            s.kernels = kernels;
        }

        // Copy the batch into the configured data layout (§4.1: this copy
        // *is* the optimization — one contiguous buffer all threads share).
        let t0 = Instant::now();
        let store = build_store(data, indices, self.network.config().memory.coalesced_data);
        phases.batch_build = t0.elapsed().as_secs_f64();

        let (net, pool, pass) = (&self.network, &self.pool, &mut self.pass);
        let scratches = &mut self.scratches[..];
        let t0 = Instant::now();
        pass.forward(
            net,
            pool,
            scratches,
            &store,
            data,
            indices,
            self.config.active_sets,
            self.adam_t << 20,
        );
        let t1 = Instant::now();
        pass.output_csr(net);
        let t2 = Instant::now();
        pass.score(net, pool, &kernels);
        let t3 = Instant::now();
        pass.softmax(pool, scratches, data, indices);
        let t4 = Instant::now();
        pass.backward_step(net, pool, &kernels, scale, step);
        let t5 = Instant::now();
        pass.input_step(net, pool, &kernels, &store, scale, step);
        let t6 = Instant::now();
        pass.push_losses(&mut self.epoch_loss);
        phases.forward = (t1 - t0).as_secs_f64();
        phases.csr = (t2 - t1).as_secs_f64();
        phases.score = (t3 - t2).as_secs_f64();
        phases.softmax = (t4 - t3).as_secs_f64();
        phases.backward_adam = (t5 - t4).as_secs_f64();
        phases.input = (t6 - t5).as_secs_f64();

        let t0 = Instant::now();
        // Only retrieval reads the tables, so only it rebuilds them.
        if self.config.active_sets == ActiveSets::Retrieval && self.rebuild_due() {
            self.rebuild_tables();
        }
        phases.rebuild = t0.elapsed().as_secs_f64();
        self.epoch_phases.add(phases);
    }

    /// Parallel two-phase hash-table rebuild: compute every neuron's keys
    /// (parallel, disjoint output chunks), then repopulate the tables.
    pub fn rebuild_tables(&mut self) {
        let l = self.network.output().family().tables();
        let rows = self.network.output().output_dim();
        self.rebuild_keys.resize(rows * l, 0);
        let keys = Disjoint::new(&mut self.rebuild_keys);
        let slots = Disjoint::new(&mut self.scratches);
        let net = &self.network;
        self.pool.parallel_chunks(rows, 64, &|worker, chunk| {
            // SAFETY: a worker id belongs to one running worker.
            let scratch = unsafe { slots.get(worker) };
            for r in chunk {
                // SAFETY: row `r`'s keys belong to this chunk alone.
                let keys = unsafe { keys.range(r * l, l) };
                net.output().compute_row_keys(r, scratch, keys);
            }
        });
        self.network
            .output_mut()
            .rebuild_from_keys(&self.rebuild_keys);
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
        let slots = Disjoint::new(&mut self.scratches);
        let net = &self.network;
        let exact = mode == EvalMode::Exact;
        self.pool.parallel_chunks(n, 1, &|worker, samples| {
            // SAFETY: a worker id belongs to one running worker.
            let scratch = unsafe { slots.get(worker) };
            for i in samples {
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
                phases: stats.phases,
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
        trainer_with(threads, ActiveSets::Retrieval)
    }

    fn trainer_with(threads: usize, active_sets: ActiveSets) -> Trainer {
        let mut tc = TrainerConfig {
            batch_size: 64,
            learning_rate: 2e-3,
            threads,
            active_sets,
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
    fn dense_policy_learns_synthetic_task() {
        let data = tiny_data();
        for threads in [1, 2] {
            let mut t = trainer_with(threads, ActiveSets::All);
            let before = t.evaluate(&data.test, 1, EvalMode::Exact, None);
            for epoch in 0..8 {
                t.train_epoch(&data.train, epoch);
            }
            let after = t.evaluate(&data.test, 1, EvalMode::Exact, None);
            assert!(
                after > before + 0.25,
                "full softmax, {threads} threads: {before:.3} -> {after:.3}"
            );
        }
    }

    #[test]
    fn dense_policy_loss_decreases_over_epochs() {
        let data = tiny_data();
        for threads in [1, 2] {
            let mut t = trainer_with(threads, ActiveSets::All);
            let first = t.train_epoch(&data.train, 0).mean_loss;
            let mut last = first;
            for epoch in 1..10 {
                last = t.train_epoch(&data.train, epoch).mean_loss;
            }
            assert!(
                last < first * 0.9,
                "full softmax, {threads} threads: loss {first:.4} -> {last:.4}"
            );
        }
    }

    #[test]
    fn uniform_policy_learns_synthetic_task() {
        let data = tiny_data();
        for threads in [1, 2] {
            let mut t = trainer_with(threads, ActiveSets::Uniform { negatives: 16 });
            let before = t.evaluate(&data.test, 1, EvalMode::Exact, None);
            for epoch in 0..8 {
                t.train_epoch(&data.train, epoch);
            }
            let after = t.evaluate(&data.test, 1, EvalMode::Exact, None);
            assert!(
                after > before + 0.2,
                "sampled softmax, {threads} threads: {before:.3} -> {after:.3}"
            );
        }
    }

    #[test]
    fn dense_and_uniform_policies_leave_the_tables_alone() {
        // Over one epoch (12 batches, rebuilds due from batch 5 on) the
        // retrieval trainer's tables change; the baselines' do not.
        let data = tiny_data();
        let stats_over_an_epoch = |sets| {
            let mut t = trainer_with(2, sets);
            let before = t.network().output().table_stats();
            t.train_epoch(&data.train, 0);
            (before, t.network().output().table_stats())
        };
        let (before, after) = stats_over_an_epoch(ActiveSets::Retrieval);
        assert_ne!(before, after, "retrieval rebuilt its tables");
        for sets in [ActiveSets::All, ActiveSets::Uniform { negatives: 16 }] {
            let (before, after) = stats_over_an_epoch(sets);
            assert_eq!(before, after, "{sets:?} left the tables as built");
        }
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
        assert!(log.points.iter().all(|p| p.phases.total() > 0.0));
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
    fn evaluating_between_epochs_leaves_training_unchanged() {
        // run_convergence scores P@1 after every epoch; the curve's last
        // point must read what training alone, scored once, reads.
        let data = tiny_data();
        let log = trainer(1).run_convergence(&data.train, &data.test, 3, EvalMode::Exact, None);
        let mut plain = trainer(1);
        let losses: Vec<f64> = (0..3)
            .map(|epoch| plain.train_epoch(&data.train, epoch).mean_loss)
            .collect();
        let curve_losses: Vec<f64> = log.points.iter().map(|p| p.mean_loss).collect();
        assert_eq!(curve_losses, losses);
        assert_eq!(
            log.final_p_at_1(),
            plain.evaluate(&data.test, 1, EvalMode::Exact, None)
        );
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
    fn phase_breakdown_accounts_for_epoch() {
        let data = tiny_data();
        let mut t = trainer(2);
        let stats = t.train_epoch(&data.train, 0);
        let p = stats.phases;
        for (name, seconds) in p.named() {
            if !matches!(name, "batch_build" | "rebuild") {
                assert!(seconds > 0.0, "{name} took no time");
            }
        }
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
    fn label_less_samples_do_not_lower_the_loss() {
        // One batch of 64 samples, every other one without labels: the
        // epoch loss is the mean over the 32 labelled samples alone, each
        // scored by the write-free `train_sample` on an untouched copy of the
        // net.
        let data = tiny_data();
        let mut d = Dataset::new(256, 64);
        for i in 0..64 {
            let x = data.train.features(i);
            let labels = if i % 2 == 0 {
                data.train.labels(i)
            } else {
                &[]
            };
            d.push(x.indices, x.values, labels);
        }
        let mut t = trainer(1);
        let stats = t.train_epoch(&d, 0);

        let net = tiny_network();
        let mut scratch = net.make_scratch();
        let plan = EpochBatches::new(64, 64, 0, t.config().shuffle_seed);
        let batch = plan.iter().next().unwrap();
        let mut expect = MeanMetric::new();
        for (i, &s) in batch.iter().enumerate() {
            let labels = d.labels(s as usize);
            if !labels.is_empty() {
                let salt = (1 << 20) | i as u64;
                expect.push(net.train_sample(
                    d.features(s as usize),
                    labels,
                    &mut scratch,
                    1.0 / 64.0,
                    1,
                    salt,
                ));
            }
        }
        assert_eq!(expect.count(), 32);
        assert_eq!(stats.mean_loss, expect.mean());
    }

    #[test]
    fn the_epoch_loss_does_not_depend_on_the_thread_count() {
        // One batch: the output layer, and so every sample's loss, is the
        // same at any thread count (`batch_equivalence`); the epoch loss
        // sums them in sample order, not per worker.
        let data = tiny_data();
        let mut d = Dataset::new(256, 64);
        for i in 0..64 {
            let x = data.train.features(i);
            d.push(x.indices, x.values, data.train.labels(i));
        }
        let loss = |threads| trainer(threads).train_epoch(&d, 0).mean_loss;
        assert_eq!(loss(1).to_bits(), loss(3).to_bits());
    }

    #[test]
    fn empty_batch_is_ignored() {
        let data = tiny_data();
        let mut t = trainer(1);
        t.train_batch(&data.train, &[]);
        assert_eq!(t.adam_steps(), 0);
    }

    #[test]
    #[should_panic(expected = "feature_dim mismatch")]
    fn dimension_mismatch_panics() {
        let mut t = trainer(1);
        let wrong = slide_data::Dataset::new(99, 64);
        t.train_epoch(&wrong, 0);
    }
}
