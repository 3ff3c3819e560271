//! Shard-invariance property suite (ISSUE 5 acceptance battery).
//!
//! * On a *trained* snapshot, for N ∈ {1, 2, 3, 7} shards, contiguous and
//!   strided plans, f32 and i8 precisions: `predict_sparse` top-k ids and
//!   P@1 are **identical** to the unsharded engine of the same precision.
//! * Proptest generalization: arbitrary (untrained) network seeds and
//!   query batteries keep the sharded/unsharded top-k equal.
//! * Whole-model precision hot-swap stress: 5 client threads hammer a
//!   [`BatchingServer`] while `publish` flips a 4-shard engine f32↔i8 —
//!   0 errors, and every answer is bit-equal to what one of the two
//!   engines returns directly (no torn reads).
//!
//! The whole file runs green under forced `SLIDE_SIMD={scalar,avx2,auto}`
//! (the CI matrix): equivalence is *within* one process's resolved kernel
//! set, which is exactly what serving guarantees.

use proptest::prelude::*;
use slide_core::{LshConfig, Network, NetworkConfig, Trainer, TrainerConfig};
use slide_data::{generate_synthetic, Dataset, SynthConfig};
use slide_mem::SparseVecRef;
use slide_quant::{p_at_1, QuantizedFrozenNetwork};
use slide_serve::{query_salt, BatchConfig, BatchingServer, FrozenModel, FrozenNetwork, ShardPlan};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn plans(shards: usize, rows: usize) -> [ShardPlan; 2] {
    [
        ShardPlan::contiguous(shards, rows).unwrap(),
        ShardPlan::strided(shards, rows).unwrap(),
    ]
}

fn untrained_net(seed: u64, hidden: usize) -> Network {
    let mut cfg = NetworkConfig::standard(256, hidden, 96);
    cfg.seed = seed;
    cfg.lsh = LshConfig {
        tables: 10,
        key_bits: 5,
        min_active: 24,
        ..Default::default()
    };
    Network::new(cfg).unwrap()
}

fn query_battery(n: usize, input_dim: usize) -> Vec<(Vec<u32>, Vec<f32>)> {
    (0..n)
        .map(|s| {
            let nnz = 2 + s % 6;
            let mut idx: Vec<u32> = (0..nnz)
                .map(|j| ((s * 37 + j * 101 + 7) % input_dim) as u32)
                .collect();
            idx.sort_unstable();
            idx.dedup();
            let val: Vec<f32> = idx
                .iter()
                .enumerate()
                .map(|(j, _)| 0.2 + ((s + j) % 5) as f32 * 0.4 - 0.4)
                .collect();
            (idx, val)
        })
        .collect()
}

/// One trained network + synthetic test split shared by the invariance
/// tests (training once keeps the battery fast under every SLIDE_SIMD leg).
fn trained() -> &'static (Network, Dataset) {
    static TRAINED: OnceLock<(Network, Dataset)> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let data = generate_synthetic(&SynthConfig {
            feature_dim: 256,
            label_dim: 64,
            n_train: 600,
            n_test: 300,
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
        let mut tc = TrainerConfig {
            batch_size: 64,
            learning_rate: 2e-3,
            threads: 2,
            ..Default::default()
        };
        tc.rebuild.initial_period = 5;
        let mut trainer = Trainer::new(Network::new(cfg).unwrap(), tc).unwrap();
        for epoch in 0..6 {
            trainer.train_epoch(&data.train, epoch);
        }
        (trainer.into_network(), data.test)
    })
}

fn p_at_1_sharded_any(model: &dyn FrozenModel, data: &Dataset) -> f64 {
    // Same loop through the type-erased entry point (what the server runs).
    let mut scratch = model.make_scratch_any();
    let (mut hits, mut total) = (0usize, 0usize);
    for i in 0..data.len() {
        let labels = data.labels(i);
        if labels.is_empty() {
            continue;
        }
        let topk = model.predict_any(data.features(i), 1, scratch.as_mut(), i as u64);
        total += 1;
        if topk.first().is_some_and(|p| labels.contains(p)) {
            hits += 1;
        }
    }
    hits as f64 / total.max(1) as f64
}

#[test]
fn trained_f32_sharding_is_invariant_in_topk_and_p_at_1() {
    let (net, test) = trained();
    let frozen = FrozenNetwork::freeze(net);
    let mut fs = frozen.make_scratch();
    let reference_p1 = p_at_1(&frozen, test);
    assert!(reference_p1 > 0.3, "f32 reference P@1 {reference_p1:.3}");

    for shards in SHARD_COUNTS {
        for plan in plans(shards, 64) {
            let sharded = FrozenNetwork::freeze_sharded(net, plan).unwrap();
            let mut ss = sharded.make_scratch();
            for i in 0..test.len().min(64) {
                let x = test.features(i);
                assert_eq!(
                    sharded.predict_sparse(x, 5, &mut ss, i as u64),
                    frozen.predict_sparse(x, 5, &mut fs, i as u64),
                    "top-5 diverged: {shards} shards {} sample {i}",
                    plan.kind_label()
                );
            }
            let sharded_p1 = p_at_1(&sharded, test);
            assert_eq!(
                sharded_p1,
                reference_p1,
                "P@1 diverged: {shards} shards {}",
                plan.kind_label()
            );
        }
    }
}

#[test]
fn trained_i8_sharding_is_invariant_in_topk_and_p_at_1() {
    let (net, test) = trained();
    let quant = QuantizedFrozenNetwork::freeze(net);
    let mut qs = quant.make_scratch();
    let reference_p1 = p_at_1(&quant, test);

    for shards in SHARD_COUNTS {
        for plan in plans(shards, 64) {
            let sharded = QuantizedFrozenNetwork::freeze_sharded(net, plan).unwrap();
            let mut ss = sharded.make_scratch();
            for i in 0..test.len().min(64) {
                let x = test.features(i);
                assert_eq!(
                    sharded.predict_sparse(x, 5, &mut ss, i as u64),
                    quant.predict_sparse(x, 5, &mut qs, i as u64),
                    "i8 top-5 diverged: {shards} shards {} sample {i}",
                    plan.kind_label()
                );
            }
            let sharded_p1 = p_at_1_sharded_any(&sharded, test);
            assert_eq!(
                sharded_p1,
                reference_p1,
                "i8 P@1 diverged: {shards} shards {}",
                plan.kind_label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Generative coverage beyond the trained snapshot: arbitrary network
    // seeds and hidden widths, every shard count and plan, both
    // precisions — the scatter-gather merge must reproduce the unsharded
    // top-k exactly.
    #[test]
    fn arbitrary_networks_shard_invariantly(seed in 0u64..1000, hidden in 16usize..64) {
        let net = untrained_net(seed, hidden);
        let frozen = FrozenNetwork::freeze(&net);
        let quant = QuantizedFrozenNetwork::freeze(&net);
        let queries = query_battery(12, 256);
        let mut fs = frozen.make_scratch();
        let mut qs = quant.make_scratch();
        for shards in SHARD_COUNTS {
            for plan in plans(shards, 96) {
                let sharded_f32 = FrozenNetwork::freeze_sharded(&net, plan).unwrap();
                let sharded_i8 = QuantizedFrozenNetwork::freeze_sharded(&net, plan).unwrap();
                let mut sf = sharded_f32.make_scratch();
                let mut si = sharded_i8.make_scratch();
                for (s, (idx, val)) in queries.iter().enumerate() {
                    let x = SparseVecRef::new(idx, val);
                    // An all-zero hidden activation against untrained zero
                    // biases ties every logit at exactly 0.0; tie order is
                    // shard-major vs table-major and explicitly outside the
                    // bit-equality contract (slide_serve::shard docs).
                    frozen.forward_hidden(x, &mut fs);
                    if fs.acts.last().unwrap().as_slice().iter().all(|&v| v == 0.0) {
                        continue;
                    }
                    prop_assert_eq!(
                        sharded_f32.predict_sparse(x, 4, &mut sf, s as u64),
                        frozen.predict_sparse(x, 4, &mut fs, s as u64),
                        "f32 {} shards {} sample {}", shards, plan.kind_label(), s
                    );
                    prop_assert_eq!(
                        sharded_i8.predict_sparse(x, 4, &mut si, s as u64),
                        quant.predict_sparse(x, 4, &mut qs, s as u64),
                        "i8 {} shards {} sample {}", shards, plan.kind_label(), s
                    );
                }
            }
        }
    }
}

/// Whole-model precision hot-swap of a sharded engine under sustained load:
/// 5 clients × 4 publishes flipping a 4-shard engine f32 ↔ i8 through
/// `BatchingServer::publish`. 0 errors, and every response is bit-equal to
/// the direct answer of the f32 or the i8 engine — a reply computed half on
/// one engine and half on the other would match neither.
#[test]
fn sharded_precision_hot_swap_under_load_never_errors() {
    let (net, test) = trained();
    let plan = ShardPlan::contiguous(4, 64).unwrap();
    let engines: [Arc<dyn FrozenModel>; 2] = [
        Arc::new(FrozenNetwork::freeze_sharded(net, plan).unwrap()),
        Arc::new(QuantizedFrozenNetwork::freeze_sharded(net, plan).unwrap()),
    ];
    let direct: Vec<[Vec<u32>; 2]> = {
        let mut scratch = [engines[0].make_scratch_any(), engines[1].make_scratch_any()];
        (0..test.len())
            .map(|i| {
                let x = test.features(i);
                let salt = query_salt(x.indices, x.values, 3);
                [0, 1].map(|e| engines[e].predict_any(x, 3, scratch[e].as_mut(), salt))
            })
            .collect()
    };

    let server = Arc::new(
        BatchingServer::start(
            Arc::clone(&engines[0]),
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

    let stop = Arc::new(AtomicBool::new(false));
    let clients = 5usize;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let direct = &direct;
            scope.spawn(move || {
                let mut n = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let i = (c * 31 + n) % test.len();
                    let x = test.features(i);
                    let topk = server
                        .predict(x.indices, x.values, 3)
                        .expect("request failed during sharded precision hot-swap");
                    assert!(
                        direct[i].contains(&topk),
                        "sample {i}: {topk:?} is neither engine's answer {:?}",
                        direct[i]
                    );
                    n += 1;
                }
            });
        }
        // f32 → i8 → f32 → i8 while traffic is in flight.
        for swap in 1..=4usize {
            std::thread::sleep(Duration::from_millis(40));
            server.publish(Arc::clone(&engines[swap % 2]));
        }
        std::thread::sleep(Duration::from_millis(40));
        stop.store(true, Ordering::Relaxed);
    });

    let stats = server.stats();
    assert_eq!(
        stats.errors, 0,
        "sharded precision hot-swap produced errors"
    );
    assert!(stats.served > clients as u64 * 10);
    assert_eq!(stats.hot_swaps, 4);
    assert_eq!(
        stats.precision, "f32",
        "the last publish was the f32 engine"
    );
}
