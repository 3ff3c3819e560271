//! The training-side and micro-benchmark API `benchmark/` compiles against,
//! pinned inside tier-1 (`crates/quant/tests/bench_surface.rs` pins the
//! serving tier).
//!
//! The benchmark package lives outside the root workspace, so root
//! `cargo test` never builds it and a rename here would break it silently.
//! This test makes exactly the calls `benchmark/src/{micro,layers,train}.rs`
//! make on `slide_simd` and `slide_core` — same paths, same signatures — and
//! checks that each one-off dispatched kernel agrees with the per-row loop it
//! replaces.

use slide_core::{Network, NetworkConfig, Trainer, TrainerConfig};
use slide_data::{generate_synthetic, SynthConfig};
use slide_simd::{
    adam_step_f32, axpy_f32, backward_rows_fused_f32, dot_f32, quantize_acts_u8, quantize_row_i8,
    score_rows_gather_f32, score_rows_gather_i8, AdamStep,
};

const K: usize = 5;

/// micro.rs `simd`: the gather kernels and the single-row kernels on raw
/// row pointers into one arena.
#[test]
fn micro_kernel_calls_resolve_and_match_the_per_row_loop() {
    const ROWS: usize = 9;
    const COLS: usize = 40;
    let val = |i: usize| ((i * 37 + 11) % 199) as f32 / 100.0 - 1.0;
    let w: Vec<f32> = (0..ROWS * COLS).map(val).collect();
    let h: Vec<f32> = (0..COLS).map(|c| val(c + 5000).abs()).collect();
    let deltas: Vec<f32> = (0..ROWS).map(|r| val(r + 7000)).collect();

    let ptrs: Vec<*const f32> = (0..ROWS).map(|r| w[r * COLS..].as_ptr()).collect();
    let mut out = vec![f32::NAN; ROWS];
    // SAFETY: every pointer starts a full COLS-wide row inside `w`.
    unsafe { score_rows_gather_f32(&ptrs, &h, &mut out) };
    for r in 0..ROWS {
        let expect = dot_f32(&w[r * COLS..(r + 1) * COLS], &h);
        assert!((out[r] - expect).abs() <= 1e-4, "score row {r}");
    }

    let scale = 1.0 / 128.0;
    let mut grad = vec![0.0_f32; ROWS * COLS];
    let mut dx = vec![0.0_f32; COLS];
    let g_base = grad.as_mut_ptr();
    // SAFETY: r < ROWS keeps each offset inside `grad`; rows are disjoint.
    let g_ptrs: Vec<*mut f32> = (0..ROWS).map(|r| unsafe { g_base.add(r * COLS) }).collect();
    // SAFETY: as above, for both arenas; `dx` aliases neither.
    unsafe { backward_rows_fused_f32(&ptrs, &g_ptrs, &deltas, scale, &h, &mut dx) };
    let mut dx_ref = vec![0.0_f32; COLS];
    for r in 0..ROWS {
        axpy_f32(deltas[r], &w[r * COLS..(r + 1) * COLS], &mut dx_ref);
        let mut g_ref = vec![0.0_f32; COLS];
        axpy_f32(deltas[r] * scale, &h, &mut g_ref);
        for c in 0..COLS {
            assert!(
                (grad[r * COLS + c] - g_ref[c]).abs() <= 1e-6,
                "grad {r},{c}"
            );
        }
    }
    for c in 0..COLS {
        assert!((dx[c] - dx_ref[c]).abs() <= 1e-4, "dx {c}");
    }

    let step = AdamStep::bias_corrected(3e-3, 0.9, 0.999, 1e-8, 10);
    let (mut w_adam, mut m, mut v) = (w.clone(), vec![0.0; w.len()], vec![0.0; w.len()]);
    adam_step_f32(
        &mut w_adam[..COLS],
        &mut m[..COLS],
        &mut v[..COLS],
        &grad[..COLS],
        step,
    );
    assert!(w_adam[..COLS].iter().all(|x| x.is_finite()));

    let mut codes = vec![0_i8; ROWS * COLS];
    let row_scales: Vec<f32> = (0..ROWS)
        .map(|r| {
            quantize_row_i8(
                &w[r * COLS..(r + 1) * COLS],
                &mut codes[r * COLS..(r + 1) * COLS],
            )
        })
        .collect();
    let mut x_u8 = vec![0_u8; COLS];
    let x_scale = quantize_acts_u8(&h, &mut x_u8);
    let i8_ptrs: Vec<*const i8> = (0..ROWS).map(|r| codes[r * COLS..].as_ptr()).collect();
    // SAFETY: every pointer starts a full COLS-wide row inside `codes`;
    // the quantizer keeps activation codes <= 127.
    unsafe { score_rows_gather_i8(&i8_ptrs, &row_scales, &x_u8, x_scale, &mut out) };
    for r in 0..ROWS {
        let acc: i32 = (0..COLS)
            .map(|c| codes[r * COLS + c] as i32 * x_u8[c] as i32)
            .sum();
        assert_eq!(out[r], acc as f32 * row_scales[r] * x_scale, "i8 row {r}");
    }
}

/// train.rs `setup`/`timed`/`evaluate` and layers.rs `network_layers`: the
/// trainer driven batch by batch, then the network one public step at a time.
#[test]
fn trainer_and_network_calls_resolve() {
    let data = generate_synthetic(&SynthConfig {
        feature_dim: 256,
        label_dim: 128,
        n_train: 256,
        n_test: 32,
        ..Default::default()
    });
    let mut cfg = NetworkConfig::standard(256, 32, 128);
    cfg.lsh.tables = 10;
    cfg.lsh.key_bits = 5;
    cfg.lsh.min_active = 24;
    let tc = TrainerConfig {
        batch_size: 64,
        learning_rate: 3e-3,
        threads: 1,
        ..Default::default()
    };
    let mut trainer = Trainer::new(Network::new(cfg).unwrap(), tc).unwrap();
    let batch_size = trainer.config().batch_size;
    for start in (0..data.train.len() as u32).step_by(batch_size) {
        let batch: Vec<u32> = (start..start + batch_size as u32).collect();
        trainer.train_batch(&data.train, &batch);
    }
    assert!(trainer.network().num_parameters() > 0);

    // layers.rs: forward → hash → select → train_sample on one scratch.
    let net = trainer.network();
    let out = net.output();
    let mut scratch = net.make_scratch();
    for i in 0..8 {
        net.forward_hidden(data.train.features(i), &mut scratch);
        let h = scratch.acts.last().expect("a hidden layer").clone();
        out.family()
            .keys_dense(&h, &mut scratch.lsh, &mut scratch.keys);
        assert_eq!(scratch.keys.len(), 10);
        out.select_active(&h, data.train.labels(i), &mut scratch, i as u64);
        assert!(scratch.active.len() >= 24);
        assert!(scratch.candidates.len() <= 10 * net.config().lsh.bucket_cap);
        let loss = net.train_sample(
            data.train.features(i),
            data.train.labels(i),
            &mut scratch,
            1.0 / batch_size as f32,
            u32::MAX - 7,
            i as u64,
        );
        assert!(loss.is_finite());
    }

    trainer.rebuild_tables();
    let out = trainer.network().output();
    let stats = out.table_stats();
    let lsh = trainer.network().config().lsh;
    assert_eq!(stats.total_buckets, lsh.tables << lsh.key_bits);
    assert!(stats.stored <= out.output_dim() * lsh.tables);

    // train.rs `evaluate` and the scaling leg's `into_network` round trip.
    let net = trainer.network();
    let mut scratch = net.make_scratch();
    for i in 0..data.test.len() {
        let exact = net.predict(data.test.features(i), K, &mut scratch, true, i as u64);
        let sampled = net.predict(data.test.features(i), K, &mut scratch, false, i as u64);
        assert_eq!(exact.len(), K);
        assert!(sampled.len() <= K && sampled.iter().all(|&l| l < 128));
    }
    let net = trainer.into_network();
    let mut again = Trainer::new(net, tc).unwrap();
    again.train_batch(&data.train, &[0, 1, 2, 3]);
}
