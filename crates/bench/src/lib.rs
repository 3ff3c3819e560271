//! Shared harness for the paper-reproduction binary `paper`.
//!
//! Every table, figure and ablation is a section of `src/bin/paper.rs` (see
//! DESIGN.md §3 for the index). Every measured row is a [`Run`], [`measure`]
//! is the one runner, and a [`Lab`] per workload memoises it, so a section
//! is a list of runs plus their printing and a configuration that several
//! sections share trains once. This library holds the three workloads at a
//! bench-friendly scale, the runs, their runner and its memo, Table 2's
//! method lineup, the modeled V100 column, and table printing. Scale up
//! with `SLIDE_SCALE=<n>`; absolute numbers grow, the ratios are the
//! reproducible signal.

mod device_model;
mod presets;

pub use device_model::DeviceModel;
pub use presets::Method;

use slide_core::{
    ActiveSets, ConvergenceLog, EvalMode, HashFamilyKind, MemoryConfig, Network, NetworkConfig,
    PhaseBreakdown, Precision, Trainer, TrainerConfig,
};
use slide_data::{generate_synthetic, generate_text, Dataset, SynthConfig, TextConfig};
use slide_simd::{SimdLevel, SimdPolicy};

/// The paper's three workloads (§5.1, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Product recommendation, 670K labels (we simulate a scaled stand-in).
    Amazon670k,
    /// Wikipedia categories, 325K labels.
    WikiLsh325k,
    /// word2vec skip-gram over English Wikipedia tokens.
    Text8,
}

impl Workload {
    /// All workloads in the paper's order.
    pub fn all() -> [Workload; 3] {
        [Workload::Amazon670k, Workload::WikiLsh325k, Workload::Text8]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Amazon670k => "Amazon-670K (sim)",
            Workload::WikiLsh325k => "WikiLSH-325K (sim)",
            Workload::Text8 => "Text8 (sim)",
        }
    }

    /// The paper's Table 1 row for the *real* dataset:
    /// (feature dim, sparsity %, label dim, train, test, params).
    pub fn paper_stats(self) -> (usize, f64, usize, usize, usize, u64) {
        match self {
            Workload::Amazon670k => (135_909, 0.055, 670_091, 490_449, 153_025, 103_000_000),
            Workload::WikiLsh325k => (1_617_899, 0.0026, 325_056, 1_778_351, 587_084, 249_000_000),
            Workload::Text8 => (253_855, 0.0004, 253_855, 13_604_165, 3_401_042, 101_000_000),
        }
    }

    /// Hidden width the paper uses for this workload (§5.3).
    pub fn hidden(self) -> usize {
        match self {
            Workload::Text8 => 200,
            _ => 128,
        }
    }

    /// Batch size for the scaled stand-in (the paper uses 1024/256/512 at
    /// ~40x our default sample counts).
    pub fn batch_size(self) -> usize {
        match self {
            Workload::Amazon670k => 128,
            Workload::WikiLsh325k => 128,
            Workload::Text8 => 256,
        }
    }

    /// Learning rate for the scaled stand-in (the paper uses 1e-4 at full
    /// scale; smaller datasets need proportionally larger steps to converge
    /// within bench budgets).
    pub fn learning_rate(self) -> f32 {
        match self {
            Workload::Amazon670k => 3e-3,
            Workload::WikiLsh325k => 2e-3,
            Workload::Text8 => 1e-3,
        }
    }

    /// Generate the scaled train/test pair.
    pub fn dataset(self, scale: usize) -> (Dataset, Dataset) {
        match self {
            Workload::Amazon670k => {
                let d = generate_synthetic(&SynthConfig::amazon_670k_scaled(scale));
                (d.train, d.test)
            }
            Workload::WikiLsh325k => {
                let d = generate_synthetic(&SynthConfig::wiki_lsh_325k_scaled(scale));
                (d.train, d.test)
            }
            Workload::Text8 => {
                let mut cfg = TextConfig::text8_scaled(scale);
                cfg.corpus_len = 24_000 * scale.max(1); // keep dense baseline tractable
                let d = generate_text(&cfg);
                (d.train, d.test)
            }
        }
    }

    /// Network configuration mirroring the paper's per-dataset §5.3 choices
    /// (DWTA for the XC datasets, SimHash K=9 for Text8), with `L` scaled to
    /// the smaller label spaces.
    pub fn network_config(self, feature_dim: usize, label_dim: usize) -> NetworkConfig {
        let mut cfg = NetworkConfig::standard(feature_dim, self.hidden(), label_dim);
        match self {
            Workload::Amazon670k => {
                cfg.lsh.family = HashFamilyKind::Dwta { bin_size: 16 };
                cfg.lsh.key_bits = 6; // paper: K=6, L=400
                cfg.lsh.tables = 24;
                cfg.lsh.bucket_cap = 128;
                cfg.lsh.min_active = 128;
            }
            Workload::WikiLsh325k => {
                cfg.lsh.family = HashFamilyKind::Dwta { bin_size: 16 };
                cfg.lsh.key_bits = 5; // paper: K=5, L=350
                cfg.lsh.tables = 20;
                cfg.lsh.bucket_cap = 128;
                cfg.lsh.min_active = 96;
            }
            Workload::Text8 => {
                cfg.lsh.family = HashFamilyKind::SimHash;
                cfg.lsh.key_bits = 9; // paper: K=9, L=50
                cfg.lsh.tables = 25;
                cfg.lsh.bucket_cap = 64;
                cfg.lsh.min_active = 96;
            }
        }
        cfg
    }

    /// Trainer configuration (paper: ADAM, lr 1e-4 at full scale; we raise
    /// lr for the small stand-ins so curves converge within bench budgets).
    pub fn trainer_config(self) -> TrainerConfig {
        TrainerConfig {
            batch_size: self.batch_size(),
            learning_rate: self.learning_rate(),
            ..Default::default()
        }
    }

    /// The optimized (CLX) run on `train`'s shape: this workload's network
    /// (coalesced memory, fp32) and trainer, SIMD auto.
    pub fn run(self, label: impl Into<String>, train: &Dataset) -> Run {
        Run {
            label: label.into(),
            net: self.network_config(train.feature_dim(), train.label_dim()),
            trainer: self.trainer_config(),
            simd: SimdPolicy::Auto,
        }
    }

    /// The modeled V100 epoch time of dense training on `train`.
    pub fn v100_epoch_seconds(self, train: &Dataset) -> f64 {
        let params =
            slide_data::model_parameters(train.feature_dim(), self.hidden(), train.label_dim());
        DeviceModel::v100().epoch_seconds(params, train.len(), self.batch_size())
    }
}

/// Read `SLIDE_SCALE` (default 1).
pub fn scale() -> usize {
    std::env::var("SLIDE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// Epochs every run trains for unless `SLIDE_EPOCHS` says otherwise.
pub const DEFAULT_EPOCHS: u32 = 8;

/// Test samples scored for exact P@1 after every epoch of every run.
pub const EVAL_SAMPLES: usize = 400;

/// Read `SLIDE_EPOCHS` (default [`DEFAULT_EPOCHS`]).
pub fn epochs() -> u32 {
    std::env::var("SLIDE_EPOCHS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&e| e >= 1)
        .unwrap_or(DEFAULT_EPOCHS)
}

/// One measured row of a table or figure: the network and trainer it
/// trains, and the SIMD policy it trains them under.
///
/// [`Workload::run`] builds the optimized (CLX) run; [`Run::naive`],
/// [`Run::cpx`], [`Run::tf_cpu`] and [`Run::uniform`] rewrite it into the
/// paper's other methods, and an ablation sets any other field directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The row's label, as its table prints it.
    pub label: String,
    /// The network to train.
    pub net: NetworkConfig,
    /// The trainer to train it with.
    pub trainer: TrainerConfig,
    /// The SIMD policy, applied by [`with_preset_policy`].
    pub simd: SimdPolicy,
}

impl Run {
    /// A fresh trainer for this run's network and trainer.
    pub fn build(&self) -> Trainer {
        let network = Network::new(self.net.clone()).expect("valid network config");
        Trainer::new(network, self.trainer).expect("valid trainer config")
    }

    /// **Naive SLIDE**, the original implementation's profile: fragmented
    /// data and parameters, fp32, scalar kernels (no explicit vectorization).
    pub fn naive(mut self) -> Run {
        self.net.memory = MemoryConfig {
            coalesced_params: false,
            coalesced_data: false,
        };
        self.net.precision = Precision::Fp32;
        self.simd = SimdPolicy::Force(SimdLevel::Scalar);
        self
    }

    /// **Optimized SLIDE (CPX)**: bf16 weights and activations.
    pub fn cpx(mut self) -> Run {
        self.net.precision = Precision::Bf16Both;
        self
    }

    /// The **TF full-softmax** CPU stand-in: every output row active, so no
    /// table is queried or rebuilt.
    pub fn tf_cpu(mut self) -> Run {
        self.trainer.active_sets = ActiveSets::All;
        self
    }

    /// **Uniform sampled softmax**: each sample's labels plus `negatives`
    /// uniformly drawn rows.
    pub fn uniform(mut self, negatives: usize) -> Run {
        self.trainer.active_sets = ActiveSets::Uniform { negatives };
        self
    }
}

/// What [`measure`] observed of one run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Training seconds, phase split and test P@1 after every epoch
    /// (Figure 6's curve).
    pub curve: ConvergenceLog,
    /// The SIMD level the run resolved to.
    pub simd: SimdLevel,
}

impl Measurement {
    /// Mean wall-clock seconds per epoch.
    pub fn epoch_seconds(&self) -> f64 {
        self.curve.avg_epoch_seconds()
    }

    /// P@1 after the last epoch.
    pub fn p_at_1(&self) -> f64 {
        self.curve.final_p_at_1()
    }

    /// The mean per-epoch phase split.
    pub fn phases(&self) -> PhaseBreakdown {
        let mut sum = PhaseBreakdown::default();
        for p in &self.curve.points {
            sum.add(p.phases);
        }
        let n = self.curve.points.len().max(1) as f64;
        sum.map(|seconds| seconds / n)
    }
}

/// Run `f` under a preset's SIMD policy. A preset's `Auto` defers to the
/// policy in force on entry, so under a forced `SLIDE_SIMD` leg the
/// optimized rows stay forced; a preset that forces a level (the naive
/// rows' scalar) keeps it. The entry policy is restored afterwards — never
/// reset to `Auto`, which would clobber the forced leg for every later row.
pub fn with_preset_policy<T>(preset: SimdPolicy, f: impl FnOnce() -> T) -> T {
    let entry = slide_simd::policy();
    slide_simd::set_policy(match preset {
        SimdPolicy::Auto => entry,
        forced => forced,
    });
    let out = f();
    slide_simd::set_policy(entry);
    out
}

/// The one runner: train `run` for `epochs` epochs under its SIMD policy
/// (as [`with_preset_policy`] applies it) through
/// [`Trainer::run_convergence`], scoring exact P@1 on the first
/// `eval_samples` test samples after each epoch (0 skips the evaluation).
/// Evaluation time is not training time.
pub fn measure(
    run: &Run,
    train: &Dataset,
    test: &Dataset,
    epochs: u32,
    eval_samples: usize,
) -> Measurement {
    with_preset_policy(run.simd, || Measurement {
        simd: slide_simd::effective_level(),
        curve: run.build().run_convergence(
            train,
            test,
            epochs,
            EvalMode::Exact,
            Some(eval_samples),
        ),
    })
}

/// One workload's datasets and every run measured on them so far.
///
/// [`Lab::measure`] memoises [`measure`] by the run's network, trainer and
/// SIMD policy (not its label), so each distinct configuration trains once
/// per lab however many rows ask for it. Every run trains for the epochs
/// given to [`Lab::new`] and scores [`EVAL_SAMPLES`] test samples. The key
/// holds while the process's entry policy (a `SLIDE_SIMD` leg, read once)
/// stays put, so that a run's `Auto` resolves alike on every call.
pub struct Lab {
    /// The workload the datasets stand in for.
    pub workload: Workload,
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    epochs: u32,
    /// Every distinct run trained so far, under its first row's label.
    trained: Vec<(Run, Measurement)>,
    requested: usize,
}

impl Lab {
    /// Generate `workload`'s datasets at `scale`; runs train for `epochs`
    /// and score [`EVAL_SAMPLES`] test samples.
    pub fn new(workload: Workload, scale: usize, epochs: u32) -> Lab {
        let (train, test) = workload.dataset(scale);
        Lab {
            workload,
            train,
            test,
            epochs,
            trained: Vec::new(),
            requested: 0,
        }
    }

    /// The workload's optimized (CLX) run on this lab's training split.
    pub fn run(&self, label: impl Into<String>) -> Run {
        self.workload.run(label, &self.train)
    }

    /// What [`measure`] observes of `run`, training it only if no earlier
    /// run had the same network, trainer and SIMD policy.
    pub fn measure(&mut self, run: &Run) -> Measurement {
        self.requested += 1;
        let key = (&run.net, run.trainer, run.simd);
        if let Some((_, m)) = self
            .trained
            .iter()
            .find(|(r, _)| (&r.net, r.trainer, r.simd) == key)
        {
            return m.clone();
        }
        let m = measure(run, &self.train, &self.test, self.epochs, EVAL_SAMPLES);
        self.trained.push((run.clone(), m.clone()));
        m
    }

    /// Distinct runs trained so far.
    pub fn trained(&self) -> usize {
        self.trained.len()
    }

    /// Rows [`Lab::measure`] has been asked for so far.
    pub fn requested(&self) -> usize {
        self.requested
    }
}

/// Print a fixed-width table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>], widths: &[usize]) {
    println!("\n=== {title} ===");
    let mut line = String::new();
    for (h, w) in header.iter().zip(widths) {
        line.push_str(&format!("{h:<w$} "));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(widths) {
            line.push_str(&format!("{cell:<w$} "));
        }
        println!("{line}");
    }
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1000.0)
    }
}

/// Format a ratio as the paper writes them ("3.5x fast" / "1.15x slow").
pub fn fmt_ratio_vs(reference: f64, this: f64) -> String {
    if this <= reference {
        format!("{:.2}x fast", reference / this)
    } else {
        format!("{:.2}x slow", this / reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_metadata_is_consistent() {
        for w in Workload::all() {
            let (fd, sp, ld, tr, te, params) = w.paper_stats();
            assert!(fd > 0 && ld > 0 && tr > te && params > 50_000_000);
            assert!(sp > 0.0);
            assert!(!w.name().is_empty());
            assert!(w.hidden() == 128 || w.hidden() == 200);
        }
    }

    #[test]
    fn network_configs_validate() {
        for w in Workload::all() {
            let cfg = w.network_config(1000, 2000);
            assert!(cfg.validate().is_ok(), "{w:?}");
            assert!(w.trainer_config().validate().is_ok());
        }
    }

    #[test]
    fn text8_uses_simhash_others_dwta() {
        assert!(matches!(
            Workload::Text8.network_config(10, 10).lsh.family,
            HashFamilyKind::SimHash
        ));
        assert!(matches!(
            Workload::Amazon670k.network_config(10, 10).lsh.family,
            HashFamilyKind::Dwta { .. }
        ));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.0123), "12.3ms");
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(250.0), "250s");
        assert!(fmt_ratio_vs(10.0, 5.0).contains("2.00x fast"));
        assert!(fmt_ratio_vs(5.0, 10.0).contains("2.00x slow"));
    }

    /// A lab on a 64-feature, 16-label synthetic dataset (1 epoch, 16 test
    /// samples) and a 4-table run small enough to train in milliseconds.
    fn tiny_lab() -> (Lab, Run) {
        let data = generate_synthetic(&SynthConfig {
            feature_dim: 64,
            label_dim: 16,
            n_train: 64,
            n_test: 16,
            ..Default::default()
        });
        let mut net = NetworkConfig::standard(64, 8, 16);
        net.lsh.tables = 4;
        net.lsh.key_bits = 3;
        let run = Run {
            label: "tiny".into(),
            net,
            trainer: TrainerConfig {
                batch_size: 32,
                threads: 1,
                ..Default::default()
            },
            simd: SimdPolicy::Auto,
        };
        let lab = Lab {
            workload: Workload::Amazon670k,
            train: data.train,
            test: data.test,
            epochs: 1,
            trained: Vec::new(),
            requested: 0,
        };
        (lab, run)
    }

    #[test]
    fn measure_keeps_a_forced_policy() {
        let (lab, run) = tiny_lab();
        let entry = slide_simd::policy();
        let forced = SimdPolicy::Force(SimdLevel::Scalar);
        slide_simd::set_policy(forced);
        let m = measure(&run, &lab.train, &lab.test, 1, 16);
        let after = slide_simd::policy();
        slide_simd::set_policy(entry);
        assert!(m.p_at_1().is_finite());
        assert_eq!(
            m.simd,
            SimdLevel::Scalar,
            "the run did not train under the forced leg"
        );
        assert_eq!(after, forced, "a preset's Auto reset the forced policy");
    }

    #[test]
    fn lab_trains_each_configuration_once() {
        let (mut lab, run) = tiny_lab();
        let first = lab.measure(&run);
        let relabelled = lab.measure(&Run {
            label: "same run, another row".into(),
            ..run.clone()
        });
        assert_eq!((lab.trained(), lab.requested()), (1, 2));
        assert_eq!(
            first.curve, relabelled.curve,
            "a relabelled run must return the memoised curve"
        );
        lab.measure(&Run {
            simd: SimdPolicy::Force(SimdLevel::Scalar),
            ..run
        });
        assert_eq!((lab.trained(), lab.requested()), (2, 3));
    }

    #[test]
    fn lab_runs_keep_a_forced_policy() {
        let (mut lab, run) = tiny_lab();
        let entry = slide_simd::policy();
        let forced = SimdPolicy::Force(SimdLevel::Scalar);
        slide_simd::set_policy(forced);
        let levels = [run.clone(), run.cpx()].map(|run| lab.measure(&run).simd);
        let after = slide_simd::policy();
        slide_simd::set_policy(entry);
        assert_eq!(lab.trained(), 2);
        assert_eq!(
            levels,
            [SimdLevel::Scalar; 2],
            "a lab run left the forced leg"
        );
        assert_eq!(after, forced, "a lab run reset the forced policy");
    }

    #[test]
    fn datasets_generate_at_scale_one() {
        let (train, test) = Workload::Text8.dataset(1);
        assert!(train.len() > 10_000);
        assert!(test.len() > 1_000);
        assert_eq!(train.feature_dim(), train.label_dim());
    }
}
