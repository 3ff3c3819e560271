//! Shared harness for the paper-reproduction experiment binaries.
//!
//! One binary per table/figure lives in `src/bin/` (see DESIGN.md §3 for the
//! index); this library provides the common pieces: the three workloads at a
//! bench-friendly scale, the method lineup, timing runners, and table
//! printing. Scale up with `SLIDE_SCALE=<n>`; absolute numbers grow, the
//! ratios are the reproducible signal.

use slide_baseline::{DeviceModel, Method};
use slide_core::{
    ActiveSets, EvalMode, HashFamilyKind, Network, NetworkConfig, Precision, Trainer, TrainerConfig,
};
use slide_data::{generate_synthetic, generate_text, Dataset, SynthConfig, TextConfig};
use slide_simd::SimdPolicy;

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
}

/// Read `SLIDE_SCALE` (default 1).
pub fn scale() -> usize {
    std::env::var("SLIDE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// Read `SLIDE_EPOCHS` (default `default`).
pub fn epochs(default: u32) -> u32 {
    std::env::var("SLIDE_EPOCHS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&e| e >= 1)
        .unwrap_or(default)
}

/// Result of one measured method on one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Mean wall-clock seconds per epoch.
    pub epoch_seconds: f64,
    /// Final P@1 on (a subset of) the test split.
    pub p_at_1: f64,
    /// Whether the number is modeled rather than measured.
    pub modeled: bool,
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

/// Train a SLIDE variant and measure it, under `policy` as
/// [`with_preset_policy`] applies it.
#[allow(clippy::too_many_arguments)]
pub fn run_slide(
    mut net_cfg: NetworkConfig,
    trainer_cfg: TrainerConfig,
    policy: SimdPolicy,
    precision_override: Option<Precision>,
    train: &Dataset,
    test: &Dataset,
    n_epochs: u32,
    eval_samples: usize,
) -> RunResult {
    if let Some(p) = precision_override {
        net_cfg.precision = p;
    }
    let (secs, p1) = with_preset_policy(policy, || {
        let mut trainer = Trainer::new(
            Network::new(net_cfg).expect("valid network config"),
            trainer_cfg,
        )
        .expect("valid trainer config");
        let mut secs = 0.0;
        for epoch in 0..n_epochs {
            secs += trainer.train_epoch(train, epoch as u64).seconds;
        }
        (
            secs,
            trainer.evaluate(test, 1, EvalMode::Exact, Some(eval_samples)),
        )
    });
    RunResult {
        epoch_seconds: secs / n_epochs as f64,
        p_at_1: p1,
        modeled: false,
    }
}

/// The dense full-softmax baseline (the TF-CPU stand-in) on `workload`:
/// SLIDE's network (fp32, coalesced) and trainer with every output row
/// active, so no table is queried or rebuilt.
pub fn dense_configs(
    workload: Workload,
    feature_dim: usize,
    label_dim: usize,
) -> (NetworkConfig, TrainerConfig) {
    let trainer_cfg = TrainerConfig {
        active_sets: ActiveSets::All,
        ..workload.trainer_config()
    };
    (workload.network_config(feature_dim, label_dim), trainer_cfg)
}

/// Train the dense full-softmax baseline and measure it.
pub fn run_dense(
    workload: Workload,
    train: &Dataset,
    test: &Dataset,
    n_epochs: u32,
    eval_samples: usize,
) -> RunResult {
    let (net_cfg, trainer_cfg) = dense_configs(workload, train.feature_dim(), train.label_dim());
    run_slide(
        net_cfg,
        trainer_cfg,
        SimdPolicy::Auto,
        None,
        train,
        test,
        n_epochs,
        eval_samples,
    )
}

/// Model the V100 epoch time for this workload at our scale, carrying the
/// dense baseline's accuracy (same algorithm, different device).
pub fn model_v100(workload: Workload, train: &Dataset, dense_p1: f64) -> RunResult {
    let params =
        slide_data::model_parameters(train.feature_dim(), workload.hidden(), train.label_dim());
    let secs = DeviceModel::v100().epoch_seconds(params, train.len(), workload.batch_size());
    RunResult {
        epoch_seconds: secs,
        p_at_1: dense_p1,
        modeled: true,
    }
}

/// Run one named method end to end on a workload.
pub fn run_method(
    method: Method,
    workload: Workload,
    train: &Dataset,
    test: &Dataset,
    n_epochs: u32,
    eval_samples: usize,
) -> RunResult {
    let net_cfg = workload.network_config(train.feature_dim(), train.label_dim());
    let trainer_cfg = workload.trainer_config();
    match method {
        Method::TfV100 => {
            let dense = run_dense(workload, train, test, n_epochs, eval_samples);
            model_v100(workload, train, dense.p_at_1)
        }
        Method::TfCpu => run_dense(workload, train, test, n_epochs, eval_samples),
        Method::NaiveSlide => {
            let mut cfg = net_cfg;
            let policy = slide_baseline::naive_slide(&mut cfg);
            run_slide(
                cfg,
                trainer_cfg,
                policy,
                None,
                train,
                test,
                n_epochs,
                eval_samples,
            )
        }
        Method::OptimizedSlideClx => {
            let mut cfg = net_cfg;
            let policy = slide_baseline::optimized_slide_clx(&mut cfg);
            run_slide(
                cfg,
                trainer_cfg,
                policy,
                None,
                train,
                test,
                n_epochs,
                eval_samples,
            )
        }
        Method::OptimizedSlideCpx => {
            let mut cfg = net_cfg;
            let policy = slide_baseline::optimized_slide_cpx(&mut cfg);
            run_slide(
                cfg,
                trainer_cfg,
                policy,
                None,
                train,
                test,
                n_epochs,
                eval_samples,
            )
        }
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

    #[test]
    fn run_slide_keeps_a_forced_policy() {
        use slide_data::{generate_synthetic, SynthConfig};
        use slide_simd::SimdLevel;
        let data = generate_synthetic(&SynthConfig {
            feature_dim: 64,
            label_dim: 16,
            n_train: 64,
            n_test: 16,
            ..Default::default()
        });
        let mut cfg = NetworkConfig::standard(64, 8, 16);
        cfg.lsh.tables = 4;
        cfg.lsh.key_bits = 3;
        let tc = TrainerConfig {
            batch_size: 32,
            threads: 1,
            ..Default::default()
        };
        let entry = slide_simd::policy();
        let forced = SimdPolicy::Force(SimdLevel::Scalar);
        slide_simd::set_policy(forced);
        let run = run_slide(
            cfg,
            tc,
            SimdPolicy::Auto,
            None,
            &data.train,
            &data.test,
            1,
            16,
        );
        let after = slide_simd::policy();
        slide_simd::set_policy(entry);
        assert!(run.p_at_1.is_finite());
        assert_eq!(after, forced, "a preset's Auto reset the forced policy");
    }

    #[test]
    fn datasets_generate_at_scale_one() {
        let (train, test) = Workload::Text8.dataset(1);
        assert!(train.len() > 10_000);
        assert!(test.len() > 1_000);
        assert_eq!(train.feature_dim(), train.label_dim());
    }
}
