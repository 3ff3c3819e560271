//! Cross-crate integration tests: the full train→evaluate→checkpoint cycle
//! through the public facade, across the paper's configuration matrix.

use slide::{
    generate_synthetic, load_checkpoint, save_checkpoint, EvalMode, Network, NetworkConfig,
    Precision, SynthConfig, Trainer, TrainerConfig,
};
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that mutate — or whose bit-level assertions depend
/// on — the process-wide SIMD policy (tests in one binary run
/// concurrently, and a policy flip mid-run would change kernel dispatch).
fn policy_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn dataset() -> slide::data::SynthDataset {
    generate_synthetic(&SynthConfig {
        feature_dim: 512,
        label_dim: 128,
        n_train: 1_200,
        n_test: 300,
        proto_nnz: 14,
        keep_fraction: 0.8,
        noise_nnz: 3,
        labels_per_sample: 1,
        zipf_exponent: 0.5,
        seed: 77,
    })
}

fn network(precision: Precision, coalesced: bool) -> Network {
    let mut cfg = NetworkConfig::standard(512, 32, 128);
    cfg.lsh.tables = 16;
    cfg.lsh.key_bits = 5;
    cfg.lsh.min_active = 32;
    cfg.precision = precision;
    cfg.memory.coalesced_params = coalesced;
    cfg.memory.coalesced_data = coalesced;
    Network::new(cfg).expect("valid config")
}

fn trainer(net: Network) -> Trainer {
    let mut tc = TrainerConfig {
        batch_size: 64,
        learning_rate: 2e-3,
        threads: 4,
        ..Default::default()
    };
    tc.rebuild.initial_period = 8;
    Trainer::new(net, tc).expect("valid trainer")
}

fn train_and_score(net: Network, epochs: u32, data: &slide::data::SynthDataset) -> f64 {
    let mut t = trainer(net);
    for epoch in 0..epochs {
        t.train_epoch(&data.train, epoch as u64);
    }
    t.evaluate(&data.test, 1, EvalMode::Exact, None)
}

#[test]
fn optimized_slide_learns_well_above_chance() {
    let data = dataset();
    let p1 = train_and_score(network(Precision::Fp32, true), 8, &data);
    // Chance is ~1/128 with a Zipf head bump; require a large margin.
    assert!(p1 > 0.35, "P@1 {p1:.3}");
}

#[test]
fn naive_and_optimized_layouts_reach_similar_accuracy() {
    // The §4.1 memory layouts change speed, not semantics.
    let data = dataset();
    let optimized = train_and_score(network(Precision::Fp32, true), 6, &data);
    let naive = train_and_score(network(Precision::Fp32, false), 6, &data);
    assert!(optimized > 0.3, "optimized P@1 {optimized:.3}");
    assert!(naive > 0.3, "naive P@1 {naive:.3}");
    assert!(
        (optimized - naive).abs() < 0.2,
        "layouts diverged: {optimized:.3} vs {naive:.3}"
    );
}

#[test]
fn bf16_modes_cost_little_accuracy() {
    // Table 3's premise: bf16 speeds things up without wrecking quality on
    // the XC workloads.
    let data = dataset();
    let fp32 = train_and_score(network(Precision::Fp32, true), 6, &data);
    let bf16_act = train_and_score(network(Precision::Bf16Activations, true), 6, &data);
    let bf16_both = train_and_score(network(Precision::Bf16Both, true), 6, &data);
    assert!(fp32 > 0.3);
    assert!(
        bf16_act > fp32 - 0.15,
        "bf16-act P@1 {bf16_act:.3} vs {fp32:.3}"
    );
    assert!(
        bf16_both > fp32 - 0.2,
        "bf16-both P@1 {bf16_both:.3} vs {fp32:.3}"
    );
}

#[test]
fn simd_levels_do_not_change_learning() {
    // Table 4's premise: AVX changes time, not accuracy. (Floating-point
    // summation order differs, so exact equality is not expected.)
    let _g = policy_guard();
    let data = dataset();
    slide::set_policy(slide::SimdPolicy::Force(slide::SimdLevel::Scalar));
    let scalar = train_and_score(network(Precision::Fp32, true), 5, &data);
    slide::set_policy(slide::SimdPolicy::Auto);
    let vector = train_and_score(network(Precision::Fp32, true), 5, &data);
    assert!(scalar > 0.3, "scalar P@1 {scalar:.3}");
    assert!(vector > 0.3, "vector P@1 {vector:.3}");
    assert!((scalar - vector).abs() < 0.2);
}

#[test]
fn checkpoint_roundtrip_through_facade() {
    let data = dataset();
    let mut t = trainer(network(Precision::Fp32, true));
    for epoch in 0..3 {
        t.train_epoch(&data.train, epoch);
    }
    let p1 = t.evaluate(&data.test, 1, EvalMode::Exact, None);

    let mut bytes = Vec::new();
    save_checkpoint(t.network(), &mut bytes).unwrap();
    let mut restored = network(Precision::Fp32, true);
    load_checkpoint(&mut restored, &bytes[..]).unwrap();
    let mut t2 = trainer(restored);
    let p1_restored = t2.evaluate(&data.test, 1, EvalMode::Exact, None);
    assert!((p1 - p1_restored).abs() < 1e-9, "{p1} vs {p1_restored}");
}

#[test]
fn training_continues_after_checkpoint_restore() {
    let data = dataset();
    let mut t = trainer(network(Precision::Fp32, true));
    for epoch in 0..2 {
        t.train_epoch(&data.train, epoch);
    }
    let mut bytes = Vec::new();
    save_checkpoint(t.network(), &mut bytes).unwrap();

    let mut restored = network(Precision::Fp32, true);
    load_checkpoint(&mut restored, &bytes[..]).unwrap();
    let mut t2 = trainer(restored);
    let before = t2.evaluate(&data.test, 1, EvalMode::Exact, None);
    for epoch in 2..6 {
        t2.train_epoch(&data.train, epoch);
    }
    let after = t2.evaluate(&data.test, 1, EvalMode::Exact, None);
    assert!(
        after >= before - 0.02,
        "resumed training regressed: {before:.3} -> {after:.3}"
    );
}

#[test]
fn fixed_seed_single_thread_training_is_bit_deterministic() {
    // Seed-determinism regression guard for the once-resolved `KernelSet`
    // dispatch: with a fixed RNG seed and a single-threaded trainer, two
    // runs must produce a bit-identical loss trajectory and final P@1 —
    // any nondeterminism smuggled into kernel resolution, batch shuffling,
    // active-set padding, or rebuild scheduling trips this exactly.
    let _g = policy_guard();
    let data = dataset();
    let run = || {
        let mut tc = TrainerConfig {
            batch_size: 64,
            learning_rate: 2e-3,
            threads: 1,
            ..Default::default()
        };
        tc.rebuild.initial_period = 8;
        let mut t = Trainer::new(network(Precision::Fp32, true), tc).expect("valid trainer");
        let mut losses = Vec::new();
        for epoch in 0..3 {
            losses.push(t.train_epoch(&data.train, epoch).mean_loss);
        }
        let p1 = t.evaluate(&data.test, 1, EvalMode::Sampled, None);
        (losses, p1)
    };
    let (losses_a, p1_a) = run();
    let (losses_b, p1_b) = run();
    assert_eq!(losses_a, losses_b, "loss trajectories diverged");
    assert_eq!(p1_a, p1_b, "final P@1 diverged");
    assert!(losses_a.iter().all(|l| l.is_finite()));
}

#[test]
fn checkpoint_resume_continues_bit_identically() {
    // Optimizer-state round-trip: save a mid-training network (weights +
    // bias + ADAM moments), restore into a fresh network/trainer, resume
    // the optimizer clock, and the next train_batch must produce exactly
    // the parameters an uninterrupted run produces. The uninterrupted
    // trainer refreshes its hash tables from the current weights at the
    // checkpoint instant — the same refresh `load_checkpoint` performs —
    // so both sides retrieve identical active sets.
    let _g = policy_guard();
    let data = dataset();
    let mut tc = TrainerConfig {
        batch_size: 64,
        learning_rate: 2e-3,
        threads: 1,
        ..Default::default()
    };
    // No scheduled rebuild inside the test horizon: the only table refresh
    // is the explicit checkpoint-aligned one below.
    tc.rebuild.initial_period = 10_000;

    let batch_of = |b: usize| -> Vec<u32> { ((b * 64) as u32..((b + 1) * 64) as u32).collect() };

    let mut t1 = Trainer::new(network(Precision::Fp32, true), tc).expect("valid trainer");
    for b in 0..5 {
        t1.train_batch(&data.train, &batch_of(b));
    }
    let mut checkpoint = Vec::new();
    save_checkpoint(t1.network(), &mut checkpoint).unwrap();
    assert_eq!(t1.adam_steps(), 5);

    // Uninterrupted continuation (tables refreshed as a restore would).
    t1.rebuild_tables();
    t1.train_batch(&data.train, &batch_of(5));
    let mut uninterrupted = Vec::new();
    save_checkpoint(t1.network(), &mut uninterrupted).unwrap();

    // Restored continuation: fresh network + trainer, optimizer clock
    // resumed, same next batch.
    let mut restored_net = network(Precision::Fp32, true);
    load_checkpoint(&mut restored_net, &checkpoint[..]).unwrap();
    let mut t2 = Trainer::new(restored_net, tc).expect("valid trainer");
    t2.set_adam_steps(5);
    assert_eq!(t2.adam_steps(), 5);
    t2.train_batch(&data.train, &batch_of(5));
    let mut resumed = Vec::new();
    save_checkpoint(t2.network(), &mut resumed).unwrap();

    // Weights, biases, AND both ADAM moment arrays, bit for bit.
    assert_eq!(
        uninterrupted, resumed,
        "resumed train_batch diverged from the uninterrupted run"
    );
    // And not vacuously: the batch actually moved the parameters.
    assert_ne!(checkpoint, uninterrupted, "train_batch was a no-op");
}

#[test]
fn resume_across_a_scheduled_rebuild_continues_bit_identically() {
    // `set_adam_steps` restores the rebuild schedule with the clock: tables
    // rebuilt after batch 3 and batch 6 (growth 1.05 keeps the period at 3),
    // a checkpoint after batch 5, and both runs continue through batch 8.
    // A resumed schedule that restarted from its first period would rebuild
    // after batch 8 instead, and batches 7 and 8 would retrieve from stale
    // tables.
    let _g = policy_guard();
    let data = dataset();
    let mut tc = TrainerConfig {
        batch_size: 64,
        learning_rate: 2e-3,
        threads: 1,
        ..Default::default()
    };
    tc.rebuild.initial_period = 3;
    let batch_of = |b: usize| -> Vec<u32> { ((b * 64) as u32..((b + 1) * 64) as u32).collect() };

    let mut t1 = Trainer::new(network(Precision::Fp32, true), tc).expect("valid trainer");
    for b in 0..5 {
        t1.train_batch(&data.train, &batch_of(b));
    }
    let mut checkpoint = Vec::new();
    save_checkpoint(t1.network(), &mut checkpoint).unwrap();
    // Tables refreshed as a restore would (see the test above).
    t1.rebuild_tables();

    // Probe hidden vectors, fixed here, so only the tables move their
    // active sets.
    let net = t1.network();
    let mut scratch = net.make_scratch();
    let probes: Vec<Vec<f32>> = (0..32)
        .map(|i| {
            net.forward_hidden(data.test.features(i), &mut scratch);
            scratch.acts[0].clone()
        })
        .collect();
    let active_sets = |net: &Network, scratch: &mut slide::core::WorkerScratch| -> Vec<Vec<u32>> {
        probes
            .iter()
            .map(|h| {
                net.output().select_active(h, &[], scratch, 7);
                scratch.active.clone()
            })
            .collect()
    };
    let before = active_sets(t1.network(), &mut scratch);
    t1.train_batch(&data.train, &batch_of(5));
    let after = active_sets(t1.network(), &mut scratch);
    assert_ne!(
        before, after,
        "the batch-6 rebuild changed no probe's active set: the test is vacuous"
    );
    for b in 6..8 {
        t1.train_batch(&data.train, &batch_of(b));
    }
    let mut uninterrupted = Vec::new();
    save_checkpoint(t1.network(), &mut uninterrupted).unwrap();

    let mut restored_net = network(Precision::Fp32, true);
    load_checkpoint(&mut restored_net, &checkpoint[..]).unwrap();
    let mut t2 = Trainer::new(restored_net, tc).expect("valid trainer");
    t2.set_adam_steps(5);
    for b in 5..8 {
        t2.train_batch(&data.train, &batch_of(b));
    }
    let mut resumed = Vec::new();
    save_checkpoint(t2.network(), &mut resumed).unwrap();
    assert!(
        uninterrupted == resumed,
        "a resume across the batch-6 rebuild diverged from the uninterrupted run"
    );
}

#[test]
fn thread_counts_agree_on_quality() {
    // Above one thread the row → worker assignment is dynamic, which moves
    // the last bits of each sample's hidden gradient; that must not change
    // where training lands (statistically).
    let data = dataset();
    let score_with = |threads: usize| {
        let mut tc = TrainerConfig {
            batch_size: 64,
            learning_rate: 2e-3,
            threads,
            ..Default::default()
        };
        tc.rebuild.initial_period = 8;
        let mut t = Trainer::new(network(Precision::Fp32, true), tc).unwrap();
        for epoch in 0..6 {
            t.train_epoch(&data.train, epoch);
        }
        t.evaluate(&data.test, 1, EvalMode::Exact, None)
    };
    let single = score_with(1);
    let many = score_with(8);
    assert!(
        single > 0.3 && many > 0.3,
        "single {single:.3} many {many:.3}"
    );
    assert!((single - many).abs() < 0.2);
}
