//! Integration test for the Text8-style skip-gram path: one-hot inputs,
//! SimHash sampling, learnable co-occurrence structure.

use slide::{
    generate_text, EvalMode, HashFamilyKind, Network, NetworkConfig, TextConfig, Trainer,
    TrainerConfig,
};

#[test]
fn skip_gram_model_learns_cooccurrence() {
    let cfg = TextConfig {
        vocab: 512,
        corpus_len: 20_000,
        window: 2,
        collocates: 4,
        cohesion: 0.7,
        zipf_exponent: 0.9,
        test_fraction: 0.15,
        seed: 99,
    };
    let data = generate_text(&cfg);
    assert!(data.train.len() > 10_000);

    let mut net_cfg = NetworkConfig::standard(512, 48, 512);
    net_cfg.lsh.family = HashFamilyKind::SimHash;
    net_cfg.lsh.key_bits = 7;
    net_cfg.lsh.tables = 20;
    net_cfg.lsh.min_active = 64;
    let mut tc = TrainerConfig {
        batch_size: 256,
        learning_rate: 2e-3,
        threads: 4,
        ..Default::default()
    };
    tc.rebuild.initial_period = 10;
    let mut trainer = Trainer::new(Network::new(net_cfg).unwrap(), tc).unwrap();

    let before = trainer.evaluate(&data.test, 1, EvalMode::Exact, Some(400));
    for epoch in 0..6 {
        trainer.train_epoch(&data.train, epoch);
    }
    let after = trainer.evaluate(&data.test, 1, EvalMode::Exact, Some(400));
    // Predicting any word in a 4-word window from a 512 vocab: chance is
    // under 1%; planted collocates make much more achievable.
    assert!(
        after > before + 0.08,
        "skip-gram P@1 did not improve: {before:.4} -> {after:.4}"
    );
}

#[test]
fn one_hot_embedding_rows_update_sparsely() {
    // With one-hot inputs only the center word's embedding row should move.
    let cfg = TextConfig {
        vocab: 64,
        corpus_len: 500,
        ..Default::default()
    };
    let data = generate_text(&cfg);
    let mut net_cfg = NetworkConfig::standard(64, 16, 64);
    net_cfg.lsh.family = HashFamilyKind::SimHash;
    net_cfg.lsh.key_bits = 5;
    net_cfg.lsh.tables = 8;
    let tc = TrainerConfig {
        batch_size: 1,
        learning_rate: 1e-2,
        threads: 1,
        ..Default::default()
    };
    let mut trainer = Trainer::new(Network::new(net_cfg).unwrap(), tc).unwrap();

    let input = |t: &Trainer, r: u32| t.network().input().params().row_f32(r as usize);
    let initial: Vec<Vec<f32>> = (0..64).map(|r| input(&trainer, r)).collect();
    // Train one batch of one sample, center word = features(0).
    let x = data.train.features(0);
    assert_eq!(x.indices.len(), 1, "one-hot input");
    let center = x.indices[0];
    trainer.train_batch(&data.train, &[0]);
    for r in 0..64u32 {
        let row = input(&trainer, r);
        if r == center {
            assert_ne!(row, initial[r as usize], "center row must move");
        } else {
            assert_eq!(row, initial[r as usize], "row {r} should be untouched");
        }
    }
}
