//! Advanced-knobs tour: the extension APIs layered on top of the paper's
//! system — dataset preprocessing (TF-IDF + L2 normalization, as the real
//! XC files ship), validation splits, and multiprobe queries.
//!
//! ```sh
//! cargo run --release --example advanced_tuning
//! ```

use slide::data::{l2_normalize, tf_idf, train_holdout_split};
use slide::{
    generate_synthetic, EvalMode, Network, NetworkConfig, SynthConfig, Trainer, TrainerConfig,
};

fn main() {
    // Raw synthetic data, then the standard XC preprocessing pipeline.
    let raw = generate_synthetic(&SynthConfig {
        feature_dim: 4096,
        label_dim: 2048,
        n_train: 8_000,
        n_test: 1_500,
        ..Default::default()
    });
    let train_full = l2_normalize(&tf_idf(&raw.train));
    let test = l2_normalize(&tf_idf(&raw.test));
    println!(
        "preprocessed: tf-idf + L2 norm, avg nnz {:.1}",
        train_full.avg_nnz()
    );

    // Carve a validation fold off the training split.
    let (train, val) = train_holdout_split(&train_full, 0.1, 7);
    println!("split: {} train / {} validation", train.len(), val.len());

    // Extension knob: multiprobe retrieval (half the tables, 2 probes).
    let mut cfg = NetworkConfig::standard(4096, 128, 2048);
    cfg.lsh.tables = 12;
    cfg.lsh.probes = 2;
    cfg.lsh.key_bits = 6;
    cfg.lsh.min_active = 96;
    let tc = TrainerConfig {
        batch_size: 128,
        learning_rate: 2e-3,
        ..Default::default()
    };

    let mut trainer =
        Trainer::new(Network::new(cfg).expect("valid config"), tc).expect("valid trainer");
    println!(
        "{:>5} {:>10} {:>9} {:>9} {:>11}",
        "epoch", "loss", "val P@1", "time(s)", "rebuild(ms)"
    );
    let mut best_val = 0.0_f64;
    for epoch in 0..8 {
        let stats = trainer.train_epoch(&train, epoch);
        let val_p1 = trainer.evaluate(&val, 1, EvalMode::Exact, Some(400));
        best_val = best_val.max(val_p1);
        println!(
            "{:>5} {:>10.4} {:>9.3} {:>9.3} {:>11.1}",
            epoch + 1,
            stats.mean_loss,
            val_p1,
            stats.seconds,
            stats.phases.rebuild * 1e3
        );
    }
    let test_p1 = trainer.evaluate(&test, 1, EvalMode::Exact, None);
    println!("best val P@1 {best_val:.3}; final test P@1 {test_p1:.3}");
}
