//! The trainer's row-owned batch pass against the per-sample oracle.
//!
//! From identical state, one batch at one thread through
//! `Trainer::train_batch` must leave the output layer — weights, ADAM
//! moments, bias and its moments — bit-identical to
//! `Network::train_sample` over the same samples in batch order followed by
//! `adam_row` / `adam_bias_at` on every touched row: the logits, the
//! row gradients (each row's samples ascending) and the ADAM step are the
//! same operations in the same order. The input layer is walked by row too,
//! but from a hidden gradient summed in a different order (row by row
//! instead of active slot by active slot), so it agrees within `TOLERANCE`
//! only; `batch_pass::tests` checks its row visit bit for bit from the same
//! hidden gradient.
//!
//! Covered: f32 and bf16 weights, coalesced and fragmented layouts, and
//! label-less samples in the batch. The hidden layer is 72 wide: past one
//! 64-column step and not a multiple of 16, so a kernel that sums a row in
//! another order than its oracle shows.

use slide_core::{
    LayerParams, LshConfig, Network, NetworkConfig, Precision, Trainer, TrainerConfig,
};
use slide_data::{generate_synthetic, Dataset, SynthConfig};
use slide_simd::AdamStep;

/// Bound on `|a − b| / max(1, |a|)` for every input-layer weight, moment
/// and bias after one batch. One ADAM step moves a weight by
/// at most ~`3.2 · lr` (2e-3 here); only gradients within rounding of zero
/// can move differently, and those by a small fraction of that.
const TOLERANCE: f32 = 1e-4;

fn data() -> Dataset {
    let d = generate_synthetic(&SynthConfig {
        feature_dim: 256,
        label_dim: 64,
        n_train: 96,
        n_test: 8,
        proto_nnz: 12,
        keep_fraction: 0.8,
        noise_nnz: 2,
        labels_per_sample: 2,
        zipf_exponent: 0.4,
        seed: 5,
    });
    // Every fifth sample loses its labels: the pass must skip it exactly as
    // the oracle does.
    let mut out = Dataset::new(256, 64);
    for i in 0..d.train.len() {
        let x = d.train.features(i);
        let labels = if i % 5 == 3 {
            &[][..]
        } else {
            d.train.labels(i)
        };
        out.push(x.indices, x.values, labels);
    }
    out
}

fn config(hidden: usize, precision: Precision, coalesced: bool) -> NetworkConfig {
    let mut cfg = NetworkConfig::standard(256, hidden, 64);
    cfg.lsh = LshConfig {
        tables: 6,
        key_bits: 4,
        min_active: 20,
        ..Default::default()
    };
    cfg.precision = precision;
    cfg.memory.coalesced_params = coalesced;
    cfg.memory.coalesced_data = coalesced;
    cfg
}

fn trainer_config() -> TrainerConfig {
    TrainerConfig {
        batch_size: 96,
        learning_rate: 2e-3,
        threads: 1,
        ..Default::default()
    }
}

fn export(p: &LayerParams) -> Vec<f32> {
    let mut bytes = Vec::new();
    p.export_into(&mut bytes);
    bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

/// The first batch of `Trainer::train_batch`, one sample at a time: the
/// trainer's batch 1 uses stamp 1, salt `1 << 20 | i`, scale `1/n`, and
/// the step of ADAM time 1.
fn oracle_batch(net: &Network, data: &Dataset, batch: &[u32], tc: &TrainerConfig) {
    let mut scratch = net.make_scratch();
    let scale = 1.0 / batch.len() as f32;
    for (i, &s) in batch.iter().enumerate() {
        let x = data.features(s as usize);
        net.train_sample(
            x,
            data.labels(s as usize),
            &mut scratch,
            scale,
            1,
            1 << 20 | i as u64,
        );
    }
    let step = AdamStep::bias_corrected(tc.learning_rate, tc.beta1, tc.beta2, tc.eps, 1);
    // SAFETY: single-threaded; each touched list is duplicate-free.
    unsafe {
        for &r in &scratch.touched_out {
            net.output().params().adam_row(r as usize, step);
            net.output().params().adam_bias_at(r as usize, step);
        }
        for &r in &scratch.touched_in {
            net.input().params().adam_row(r as usize, step);
        }
        net.input().params().adam_bias_full(step);
    }
}

fn check(hidden: usize, precision: Precision, coalesced: bool) {
    let what = format!("hidden {hidden} {precision:?} coalesced={coalesced}");
    let data = data();
    let batch: Vec<u32> = (0..data.len() as u32).collect();
    let tc = trainer_config();

    let mut trainer = Trainer::new(
        Network::new(config(hidden, precision, coalesced)).unwrap(),
        tc,
    )
    .unwrap();
    trainer.train_batch(&data, &batch);
    let oracle = Network::new(config(hidden, precision, coalesced)).unwrap();
    oracle_batch(&oracle, &data, &batch, &tc);
    let net = trainer.network();

    let (got, want) = (
        export(net.output().params()),
        export(oracle.output().params()),
    );
    let fresh = export(
        Network::new(config(hidden, precision, coalesced))
            .unwrap()
            .output()
            .params(),
    );
    assert_ne!(want, fresh, "{what}: the batch moved the output layer");
    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: output layer element {i}: {a} vs {b}"
        );
    }

    let (a, b) = (net.input().params(), oracle.input().params());
    for (i, (x, y)) in export(a).iter().zip(&export(b)).enumerate() {
        let err = (x - y).abs() / x.abs().max(1.0);
        assert!(
            err <= TOLERANCE,
            "{what}: input layer element {i}: {x} vs {y}"
        );
    }
}

#[test]
fn one_batch_matches_the_per_sample_oracle_f32() {
    check(72, Precision::Fp32, true);
}

#[test]
fn one_batch_matches_the_per_sample_oracle_bf16() {
    check(72, Precision::Bf16Both, true);
    check(72, Precision::Bf16Activations, true);
}

#[test]
fn one_batch_matches_the_per_sample_oracle_fragmented() {
    check(72, Precision::Fp32, false);
}
