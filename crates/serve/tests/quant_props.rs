//! Cross-crate quantized-serving properties:
//!
//! * engine-level quantize→dequantize error bounds hold for arbitrary
//!   network seeds (the per-layer report stays within its theoretical
//!   half-step bound);
//! * the quantized sampled path agrees with the f32 frozen path on the
//!   overwhelming majority of queries, across forced SIMD levels;
//! * the batching server hot-swaps **across precisions** (f32 → i8 → f32)
//!   under sustained concurrent load without a single request error;
//! * the acceptance criterion: P@1 of `QuantizedFrozenNetwork` on a
//!   *trained* synthetic snapshot is within 0.5 points of the f32
//!   `FrozenNetwork` of the same network.

use proptest::prelude::*;
use slide_core::{LshConfig, Network, NetworkConfig, Trainer, TrainerConfig};
use slide_data::{generate_synthetic, SynthConfig};
use slide_mem::SparseVecRef;
use slide_serve::{
    p_at_k, BatchConfig, BatchingServer, FrozenNetwork, QuantizedFrozenNetwork, ShardPlan,
    Snapshot, SnapshotSpec,
};
use slide_simd::{set_policy, SimdLevel, SimdPolicy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serializes tests that mutate or depend on the process-wide SIMD policy.
fn policy_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_net(seed: u64, hidden: usize) -> Network {
    let mut cfg = NetworkConfig::standard(256, hidden, 128);
    cfg.seed = seed;
    cfg.lsh = LshConfig {
        tables: 10,
        key_bits: 5,
        min_active: 24,
        ..Default::default()
    };
    Network::new(cfg).unwrap()
}

fn test_queries(n: usize, input_dim: usize) -> Vec<(Vec<u32>, Vec<f32>)> {
    (0..n)
        .map(|s| {
            let nnz = 3 + s % 5;
            let mut idx: Vec<u32> = (0..nnz)
                .map(|j| ((s * 31 + j * 97 + 13) % input_dim) as u32)
                .collect();
            idx.sort_unstable();
            idx.dedup();
            let val: Vec<f32> = idx
                .iter()
                .enumerate()
                .map(|(j, _)| 0.25 + ((s + j) % 7) as f32 * 0.3)
                .collect();
            (idx, val)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Arbitrary seeds and shapes: the snapshot-time error report must stay
    // within the symmetric quantizer's half-step bound, and the quantized
    // top-k must mostly agree with the f32 frozen top-k (identical active
    // sets by construction; only near-tie scores may flip).
    #[test]
    fn quantized_report_and_topk_track_f32(seed in 0u64..1000, hidden in 16usize..96) {
        let _g = policy_guard();
        let net = small_net(seed, hidden);
        let frozen = FrozenNetwork::freeze(&net);
        let quant = QuantizedFrozenNetwork::freeze(&net);
        prop_assert!(quant.report().within_theoretical_bounds());

        let queries = test_queries(24, frozen.input_dim());
        let mut fs = frozen.make_scratch();
        let mut qs = quant.make_scratch();
        let mut agree = 0usize;
        for (s, (idx, val)) in queries.iter().enumerate() {
            let x = SparseVecRef::new(idx, val);
            let f_top = frozen.predict_sparse(x, 3, &mut fs, s as u64);
            let q_top = quant.predict_sparse(x, 3, &mut qs, s as u64);
            prop_assert_eq!(&fs.active, &qs.active, "active sets diverged at {}", s);
            if f_top == q_top {
                agree += 1;
            }
        }
        prop_assert!(
            agree * 10 >= queries.len() * 7,
            "only {}/{} top-3 agreement (seed {}, hidden {})",
            agree, queries.len(), seed, hidden
        );
    }
}

fn capped_net(cap: usize) -> Network {
    let mut cfg = small_net(5, 32).config().clone();
    cfg.lsh.max_active = Some(cap);
    Network::new(cfg).unwrap()
}

/// `lsh.max_active` with one shard, both layouts: the cap holds, f32 and i8
/// select the identical capped active set, and both survive save → `load`
/// bit-equal (as an unsharded image and as a one-shard plan).
#[test]
fn max_active_is_honoured_at_one_shard_in_both_layouts() {
    let _g = policy_guard();
    let cap = 40; // above min_active = 24: truncation and padding both live
    let net = capped_net(cap);
    let frozen = FrozenNetwork::freeze(&net);
    let quant = QuantizedFrozenNetwork::freeze(&net);
    let one_shard = ShardPlan::contiguous(1, 128).unwrap();
    let mut loaded: Vec<_> = [
        SnapshotSpec::f32(),
        SnapshotSpec::i8(),
        SnapshotSpec::f32().sharded(one_shard),
        SnapshotSpec::i8().sharded(one_shard),
    ]
    .iter()
    .map(|spec| {
        let tag = format!("{}x{}", spec.precision.label(), spec.shard_plan.is_some());
        let path = std::env::temp_dir().join(format!(
            "slide_max_active_{tag}_{}.slsnap",
            std::process::id()
        ));
        Snapshot::build(&net, spec).unwrap().save(&path).unwrap();
        let model = slide_serve::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let scratch = model.make_scratch_any();
        (model, scratch)
    })
    .collect();

    let (mut fs, mut qs) = (frozen.make_scratch(), quant.make_scratch());
    let mut truncated = 0usize;
    for (s, (idx, val)) in test_queries(32, 256).iter().enumerate() {
        let x = SparseVecRef::new(idx, val);
        let direct = [
            frozen.predict_sparse(x, 5, &mut fs, s as u64),
            quant.predict_sparse(x, 5, &mut qs, s as u64),
        ];
        assert!(
            fs.active.len() <= cap,
            "query {s}: {} active",
            fs.active.len()
        );
        assert_eq!(
            fs.active, qs.active,
            "query {s}: capped active sets diverged"
        );
        truncated += usize::from(fs.active.len() == cap);
        for (i, (model, scratch)) in loaded.iter_mut().enumerate() {
            assert_eq!(
                model.predict_any(x, 5, scratch.as_mut(), s as u64),
                direct[i % 2],
                "query {s}: loaded spec {i} diverged from the direct engine"
            );
        }
    }
    assert!(truncated > 0, "the cap never bit: the test proves nothing");
}

/// `lsh.max_active` with more than one shard, both layouts: the N-shard
/// engine, built over its image and saved → `load`ed, selects the one-shard
/// engine's capped active set and answers bit-equal to it.
#[test]
fn max_active_is_honoured_beyond_one_shard() {
    let _g = policy_guard();
    let cap = 40; // above min_active = 24: truncation and padding both live
    let net = capped_net(cap);
    let frozen = FrozenNetwork::freeze(&net);
    let quant = QuantizedFrozenNetwork::freeze(&net);
    let (mut fs, mut qs) = (frozen.make_scratch(), quant.make_scratch());
    let queries = test_queries(32, 256);
    let mut truncated = 0usize;
    for shards in [2usize, 3] {
        let plan = ShardPlan::contiguous(shards, 128).unwrap();
        let build = |spec: SnapshotSpec| Snapshot::build(&net, &spec.sharded(plan)).unwrap();
        let sharded_f32 = FrozenNetwork::from_image(build(SnapshotSpec::f32()).image()).unwrap();
        let sharded_i8 =
            QuantizedFrozenNetwork::from_image(build(SnapshotSpec::i8()).image()).unwrap();
        let (mut sf, mut si) = (sharded_f32.make_scratch(), sharded_i8.make_scratch());
        let mut loaded: Vec<_> = [SnapshotSpec::f32(), SnapshotSpec::i8()]
            .iter()
            .map(|spec| {
                let path = std::env::temp_dir().join(format!(
                    "slide_max_active_{}x{shards}_{}.slsnap",
                    spec.precision.label(),
                    std::process::id()
                ));
                Snapshot::build(&net, &spec.sharded(plan))
                    .unwrap()
                    .save(&path)
                    .unwrap();
                let model = slide_serve::load(&path).unwrap();
                let _ = std::fs::remove_file(&path);
                let scratch = model.make_scratch_any();
                (model, scratch)
            })
            .collect();
        for (s, (idx, val)) in queries.iter().enumerate() {
            let x = SparseVecRef::new(idx, val);
            let direct = [
                frozen.predict_sparse(x, 5, &mut fs, s as u64),
                quant.predict_sparse(x, 5, &mut qs, s as u64),
            ];
            assert!(
                fs.active.len() <= cap,
                "query {s}: {} active",
                fs.active.len()
            );
            truncated += usize::from(fs.active.len() == cap);
            assert_eq!(
                sharded_f32.predict_sparse(x, 5, &mut sf, s as u64),
                direct[0],
                "query {s}: f32 {shards} shards"
            );
            assert_eq!(sf.active, fs.active, "query {s}: f32 {shards} shards");
            assert_eq!(
                sharded_i8.predict_sparse(x, 5, &mut si, s as u64),
                direct[1],
                "query {s}: i8 {shards} shards"
            );
            assert_eq!(si.active, qs.active, "query {s}: i8 {shards} shards");
            for (i, (model, scratch)) in loaded.iter_mut().enumerate() {
                assert_eq!(
                    model.predict_any(x, 5, scratch.as_mut(), s as u64),
                    direct[i],
                    "query {s}: loaded {shards}-shard spec {i} diverged"
                );
            }
        }
    }
    assert!(truncated > 0, "the cap never bit: the test proves nothing");
}

/// Scalar vs best-available SIMD on the quantized path: integer scoring is
/// bit-identical across tiers, so any divergence can come only from the f32
/// input-layer axpy feeding the hash keys — the same (rare) borderline
/// bucket flips the f32 engine tolerates.
#[test]
fn quantized_predict_is_equivalent_across_simd_levels() {
    let _guard = policy_guard();
    if slide_simd::detected_level() == SimdLevel::Scalar {
        return;
    }
    let prior = slide_simd::policy();
    let quant = QuantizedFrozenNetwork::freeze(&small_net(42, 32));
    let queries = test_queries(64, quant.input_dim());

    let run_at = |p: SimdPolicy| {
        set_policy(p);
        let mut scratch = quant.make_scratch();
        queries
            .iter()
            .enumerate()
            .map(|(s, (idx, val))| {
                quant.predict_sparse(SparseVecRef::new(idx, val), 5, &mut scratch, s as u64)
            })
            .collect::<Vec<_>>()
    };
    let scalar = run_at(SimdPolicy::Force(SimdLevel::Scalar));
    let simd = run_at(SimdPolicy::Auto);
    set_policy(prior);

    let agree = scalar.iter().zip(&simd).filter(|(a, b)| a == b).count();
    assert!(
        agree * 10 >= queries.len() * 9,
        "only {agree}/{} top-k agreements between scalar and auto",
        queries.len()
    );
}

/// The tentpole integration property: a server started on an f32 snapshot
/// hot-swaps to i8 and back mid-traffic — precision hot-swap must be
/// invisible to in-flight clients (zero errors, every response well-formed).
#[test]
fn precision_hot_swap_under_load_never_errors() {
    let net = small_net(7, 32);
    let server = Arc::new(
        BatchingServer::start(
            FrozenNetwork::freeze(&net),
            BatchConfig {
                max_batch: 32,
                max_wait: Duration::from_micros(300),
                queue_cap: 256,
                threads: 2,
            },
        )
        .unwrap(),
    );
    assert_eq!(server.stats().precision, "f32");
    let queries = Arc::new(test_queries(32, 256));
    let stop = Arc::new(AtomicBool::new(false));
    let clients = 4usize;

    std::thread::scope(|scope| {
        for c in 0..clients {
            let server = Arc::clone(&server);
            let queries = Arc::clone(&queries);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (idx, val) = &queries[(c * 7 + n as usize) % queries.len()];
                    let topk = server
                        .predict(idx, val, 3)
                        .expect("request failed during precision hot-swap");
                    assert_eq!(topk.len(), 3);
                    n += 1;
                }
            });
        }
        // f32 → i8 → f32 → i8 while traffic is in flight.
        for swap in 0..4u64 {
            std::thread::sleep(Duration::from_millis(50));
            if swap % 2 == 0 {
                server.publish(QuantizedFrozenNetwork::freeze(&net));
            } else {
                server.publish(FrozenNetwork::freeze(&net));
            }
        }
        // End on a quantized snapshot so the stats stamp proves the swap.
        server.publish(QuantizedFrozenNetwork::freeze(&net));
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
    });

    let stats = server.stats();
    assert_eq!(
        stats.errors, 0,
        "precision hot-swap produced request errors"
    );
    assert_eq!(stats.hot_swaps, 5);
    assert_eq!(stats.precision, "i8", "last published snapshot was i8");
    assert!(stats.served > clients as u64 * 10);
}

/// Acceptance criterion: on a *trained* synthetic snapshot, the quantized
/// sampled path's P@1 is within 0.5 points of the f32 frozen path.
#[test]
fn trained_snapshot_p_at_1_parity_within_half_point() {
    let data = generate_synthetic(&SynthConfig {
        feature_dim: 256,
        label_dim: 64,
        n_train: 600,
        n_test: 400,
        proto_nnz: 12,
        keep_fraction: 0.8,
        noise_nnz: 2,
        labels_per_sample: 1,
        zipf_exponent: 0.4,
        seed: 11,
    });
    let mut cfg = NetworkConfig::standard(256, 24, 64);
    cfg.lsh = LshConfig {
        tables: 12,
        key_bits: 5,
        min_active: 16,
        ..Default::default()
    };
    // Single-threaded training: the parity measurement is deterministic per
    // SIMD level. (With HOGWILD threads the f32 P@1 wanders run to run and
    // occasionally lands exactly on the 0.5-point gate — a measured
    // 0.5475-vs-0.5525 run fails on a float-representation hair.)
    let mut tc = TrainerConfig {
        batch_size: 64,
        learning_rate: 2e-3,
        threads: 1,
        ..Default::default()
    };
    tc.rebuild.initial_period = 5;
    let mut trainer = Trainer::new(Network::new(cfg).unwrap(), tc).unwrap();
    for epoch in 0..8 {
        trainer.train_epoch(&data.train, epoch);
    }

    let frozen = FrozenNetwork::freeze(trainer.network());
    let quant = QuantizedFrozenNetwork::freeze(trainer.network());
    assert!(quant.report().within_theoretical_bounds());

    let f32_p1 = p_at_k(&frozen, &data.test, 1, 0);
    let i8_p1 = p_at_k(&quant, &data.test, 1, 0);
    println!("parity: f32 P@1 {f32_p1:.4}, i8 P@1 {i8_p1:.4}");
    assert!(
        f32_p1 > 0.3,
        "f32 reference P@1 {f32_p1:.3} should beat chance by a wide margin"
    );
    assert!(
        (f32_p1 - i8_p1).abs() <= 0.005 + 1e-9,
        "quantized P@1 {i8_p1:.4} drifted more than 0.5 points from f32 {f32_p1:.4}"
    );
}
