//! SLIDE vs the dense full-softmax baseline: same data, same architecture,
//! same trainer — only the active sets differ (`ActiveSets::All` scores
//! every output row). SLIDE must match accuracy (the paper's "pretty
//! similar P@1") while doing far less output-layer work per sample.

use slide::{
    generate_synthetic, ActiveSets, EvalMode, Network, NetworkConfig, SynthConfig, Trainer,
    TrainerConfig,
};

fn dataset(label_dim: usize) -> slide::data::SynthDataset {
    generate_synthetic(&SynthConfig {
        feature_dim: 1024,
        label_dim,
        n_train: 2_000,
        n_test: 400,
        proto_nnz: 16,
        keep_fraction: 0.8,
        noise_nnz: 3,
        labels_per_sample: 1,
        zipf_exponent: 0.5,
        seed: 31,
    })
}

#[test]
fn slide_matches_dense_accuracy() {
    let data = dataset(256);
    let epochs = 6;

    let mut cfg = NetworkConfig::standard(1024, 32, 256);
    cfg.lsh.tables = 16;
    cfg.lsh.key_bits = 5;
    cfg.lsh.min_active = 48;
    let mut tc = TrainerConfig {
        batch_size: 64,
        learning_rate: 2e-3,
        threads: 4,
        ..Default::default()
    };
    tc.rebuild.initial_period = 8;
    let mut slide = Trainer::new(Network::new(cfg.clone()).unwrap(), tc).unwrap();
    for epoch in 0..epochs {
        slide.train_epoch(&data.train, epoch as u64);
    }
    let slide_p1 = slide.evaluate(&data.test, 1, EvalMode::Exact, None);

    let dense_tc = TrainerConfig {
        active_sets: ActiveSets::All,
        ..tc
    };
    let mut dense = Trainer::new(Network::new(cfg).unwrap(), dense_tc).unwrap();
    for epoch in 0..epochs {
        dense.train_epoch(&data.train, epoch as u64);
    }
    let dense_p1 = dense.evaluate(&data.test, 1, EvalMode::Exact, None);

    assert!(
        dense_p1 > 0.35,
        "dense baseline failed to learn: {dense_p1:.3}"
    );
    assert!(
        slide_p1 > dense_p1 - 0.15,
        "SLIDE accuracy fell too far below dense: {slide_p1:.3} vs {dense_p1:.3}"
    );
}

#[test]
fn slide_epoch_is_faster_with_huge_output_layer() {
    // The paper's headline: with a large label space, sampling beats the
    // dense output computation. At 4096 labels with ~64-active sets SLIDE
    // touches ~1.5% of the output layer per sample.
    let data = dataset(4096);
    let epochs = 2;

    let mut cfg = NetworkConfig::standard(1024, 32, 4096);
    cfg.lsh.tables = 16;
    cfg.lsh.key_bits = 6;
    cfg.lsh.min_active = 64;
    let tc = TrainerConfig {
        batch_size: 128,
        learning_rate: 1e-3,
        threads: 8,
        ..Default::default()
    };
    let mut slide = Trainer::new(Network::new(cfg.clone()).unwrap(), tc).unwrap();
    let mut slide_secs = 0.0;
    for epoch in 0..epochs {
        slide_secs += slide.train_epoch(&data.train, epoch as u64).seconds;
    }

    let dense_tc = TrainerConfig {
        active_sets: ActiveSets::All,
        ..tc
    };
    let mut dense = Trainer::new(Network::new(cfg).unwrap(), dense_tc).unwrap();
    let mut dense_secs = 0.0;
    for epoch in 0..epochs {
        dense_secs += dense.train_epoch(&data.train, epoch as u64).seconds;
    }

    assert!(
        slide_secs < dense_secs,
        "SLIDE ({slide_secs:.3}s) should beat dense ({dense_secs:.3}s) at 4096 labels"
    );
}
