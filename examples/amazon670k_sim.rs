//! Recommendation workload (Amazon-670K stand-in): Optimized SLIDE vs the
//! dense full-softmax baseline on the same data — the core comparison of
//! the paper's evaluation, at laptop scale. Both run on the same trainer;
//! the baseline's active sets are every output row.
//!
//! ```sh
//! cargo run --release --example amazon670k_sim
//! ```

use slide::{
    generate_synthetic, ActiveSets, EvalMode, Network, NetworkConfig, SynthConfig, Trainer,
    TrainerConfig,
};

fn main() {
    let cfg = SynthConfig::amazon_670k_scaled(1);
    let data = generate_synthetic(&cfg);
    println!(
        "Amazon-670K (sim): {} features, {} labels, {} train",
        cfg.feature_dim, cfg.label_dim, cfg.n_train
    );

    let hidden = 128;
    let epochs = 4;

    // --- Optimized SLIDE (paper §5.3 settings, scaled) ---
    let mut net_cfg = NetworkConfig::standard(cfg.feature_dim, hidden, cfg.label_dim);
    net_cfg.lsh.tables = 32;
    net_cfg.lsh.key_bits = 6;
    net_cfg.lsh.min_active = 128;
    let tc = TrainerConfig {
        batch_size: 256,
        learning_rate: 1e-3,
        ..Default::default()
    };
    let mut slide = Trainer::new(Network::new(net_cfg.clone()).expect("valid config"), tc)
        .expect("valid trainer");

    println!("\n== Optimized SLIDE ==");
    let mut slide_epoch_time = 0.0;
    for epoch in 0..epochs {
        let stats = slide.train_epoch(&data.train, epoch as u64);
        slide_epoch_time += stats.seconds;
        let p1 = slide.evaluate(&data.test, 1, EvalMode::Exact, Some(400));
        println!(
            "epoch {}: {:.3}s  loss {:.4}  P@1 {:.3}",
            epoch + 1,
            stats.seconds,
            stats.mean_loss,
            p1
        );
    }
    slide_epoch_time /= epochs as f64;

    // --- Dense full-softmax baseline (TF-CPU stand-in) ---
    let dense_tc = TrainerConfig {
        active_sets: ActiveSets::All,
        ..tc
    };
    let mut dense = Trainer::new(Network::new(net_cfg).expect("valid config"), dense_tc)
        .expect("valid trainer");
    println!("\n== Dense full-softmax (TF-CPU stand-in) ==");
    let mut dense_epoch_time = 0.0;
    for epoch in 0..epochs {
        let stats = dense.train_epoch(&data.train, epoch as u64);
        dense_epoch_time += stats.seconds;
        let p1 = dense.evaluate(&data.test, 1, EvalMode::Exact, Some(400));
        println!(
            "epoch {}: {:.3}s  loss {:.4}  P@1 {p1:.3}",
            epoch + 1,
            stats.seconds,
            stats.mean_loss
        );
    }
    dense_epoch_time /= epochs as f64;

    println!(
        "\navg epoch: SLIDE {slide_epoch_time:.3}s vs dense {dense_epoch_time:.3}s  ⇒  {:.1}x speedup",
        dense_epoch_time / slide_epoch_time
    );
    println!(
        "(the paper reports 4x/7.9x over TF-CPU on CLX/CPX at full scale; \
         the gap widens with label-space size)"
    );
}
