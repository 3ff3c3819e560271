//! Cross-crate serving properties:
//!
//! * the frozen forward pass is equivalent across SIMD dispatch levels
//!   (scalar reference vs the best level this host offers) — the serving
//!   twin of `slide-simd`'s kernel-equivalence suite, exercised through the
//!   whole hash → active-set → fused-forward pipeline;
//! * the micro-batching server survives sustained concurrent load with
//!   hot-swaps landing mid-traffic, without a single request error;
//! * a frozen snapshot of a *trained* network actually serves accurate
//!   predictions (P@1 parity with the trainer's own sampled evaluation).

use slide_core::{EvalMode, LshConfig, Network, NetworkConfig, Trainer, TrainerConfig};
use slide_data::{generate_synthetic, SynthConfig};
use slide_mem::SparseVecRef;
use slide_serve::{BatchConfig, BatchingServer, FrozenNetwork};
use slide_simd::{detected_level, policy, set_policy, SimdLevel, SimdPolicy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serializes tests that mutate or depend on the process-wide SIMD policy
/// (the default test runner interleaves tests on threads).
fn policy_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_queries(n: usize, input_dim: usize) -> Vec<(Vec<u32>, Vec<f32>)> {
    (0..n)
        .map(|s| {
            let nnz = 3 + s % 5;
            let idx: Vec<u32> = (0..nnz)
                .map(|j| ((s * 31 + j * 97 + 13) % input_dim) as u32)
                .collect();
            let mut idx = idx;
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

fn frozen_net(seed: u64) -> FrozenNetwork {
    let mut cfg = NetworkConfig::standard(512, 32, 256);
    cfg.seed = seed;
    cfg.lsh = LshConfig {
        tables: 12,
        key_bits: 5,
        min_active: 32,
        ..Default::default()
    };
    FrozenNetwork::freeze(&Network::new(cfg).unwrap())
}

/// Scalar vs best-available SIMD: hidden activations must agree within
/// float-reassociation tolerance and the retrieved top-k must agree on the
/// overwhelming majority of queries (hash keys are computed from those
/// activations, so bit-level drift can flip a rare borderline bucket).
#[test]
fn predict_sparse_is_equivalent_across_simd_levels() {
    let _guard = policy_guard();
    let best = detected_level();
    if best == SimdLevel::Scalar {
        return; // nothing to compare on a scalar-only host
    }
    // Restore whatever policy the process runs under (e.g. a forced
    // SLIDE_SIMD CI leg) — resetting to Auto here would silently un-force
    // every later test in this binary.
    let prior = policy();
    let frozen = frozen_net(42);
    let queries = test_queries(64, frozen.input_dim());

    let run_at = |p: SimdPolicy| {
        set_policy(p);
        let mut scratch = frozen.make_scratch();
        let mut acts: Vec<Vec<f32>> = Vec::new();
        let mut topk: Vec<Vec<u32>> = Vec::new();
        for (s, (idx, val)) in queries.iter().enumerate() {
            let x = SparseVecRef::new(idx, val);
            frozen.forward_hidden(x, &mut scratch);
            acts.push(scratch.acts.last().unwrap().as_slice().to_vec());
            topk.push(frozen.predict_sparse(x, 5, &mut scratch, s as u64));
        }
        (acts, topk)
    };

    let (scalar_acts, scalar_topk) = run_at(SimdPolicy::Force(SimdLevel::Scalar));
    let (simd_acts, simd_topk) = run_at(SimdPolicy::Auto);
    set_policy(prior);

    for (q, (a, b)) in scalar_acts.iter().zip(&simd_acts).enumerate() {
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            let tol = 1e-4_f32.max(1e-4 * x.abs());
            assert!(
                (x - y).abs() <= tol,
                "query {q} act[{i}]: scalar {x} vs simd {y}"
            );
        }
    }
    let agree = scalar_topk
        .iter()
        .zip(&simd_topk)
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        agree * 10 >= queries.len() * 9,
        "only {agree}/{} top-k agreements between scalar and {best}",
        queries.len()
    );
}

/// Many concurrent readers on one `Arc<FrozenNetwork>` (no server in the
/// way) must see identical results to a serial run — the `&self` lock-free
/// contract.
#[test]
fn concurrent_readers_match_serial_results() {
    let _guard = policy_guard();
    let frozen = Arc::new(frozen_net(7));
    let queries = Arc::new(test_queries(48, frozen.input_dim()));
    let mut scratch = frozen.make_scratch();
    let serial: Vec<Vec<u32>> = queries
        .iter()
        .enumerate()
        .map(|(s, (idx, val))| {
            frozen.predict_sparse(SparseVecRef::new(idx, val), 4, &mut scratch, s as u64)
        })
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..6 {
            let frozen = Arc::clone(&frozen);
            let queries = Arc::clone(&queries);
            let serial = serial.clone();
            scope.spawn(move || {
                let mut scratch = frozen.make_scratch();
                for (s, (idx, val)) in queries.iter().enumerate() {
                    let topk = frozen.predict_sparse(
                        SparseVecRef::new(idx, val),
                        4,
                        &mut scratch,
                        s as u64,
                    );
                    assert_eq!(topk, serial[s], "query {s} diverged under concurrency");
                }
            });
        }
    });
}

/// The acceptance scenario: ≥4 client threads hammer the micro-batcher
/// while snapshots are hot-swapped mid-traffic; every request must succeed.
#[test]
fn hot_swap_under_concurrent_load_never_errors() {
    let server = Arc::new(
        BatchingServer::start(
            frozen_net(1),
            BatchConfig {
                max_batch: 32,
                max_wait: Duration::from_micros(300),
                queue_cap: 256,
                threads: 2,
            },
        )
        .unwrap(),
    );
    let queries = Arc::new(test_queries(32, 512));
    let stop = Arc::new(AtomicBool::new(false));
    let clients = 5usize;

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
                        .expect("request failed during hot-swap load");
                    assert_eq!(topk.len(), 3);
                    n += 1;
                }
                n
            });
        }
        // Publish fresh snapshots while traffic is in flight.
        for swap in 0..4u64 {
            std::thread::sleep(Duration::from_millis(60));
            server.publish(frozen_net(100 + swap));
        }
        std::thread::sleep(Duration::from_millis(60));
        stop.store(true, Ordering::Relaxed);
    });

    let stats = server.stats();
    assert_eq!(stats.errors, 0, "hot-swap load produced request errors");
    assert_eq!(stats.hot_swaps, 4);
    assert!(
        stats.served > clients as u64 * 10,
        "suspiciously little traffic: {}",
        stats.served
    );
    assert!(stats.latency.quantile(50.0) > 0);
    assert!(stats.latency.quantile(50.0) <= stats.latency.quantile(99.0));
}

/// Freeze a *trained* network and check the frozen sampled path tracks the
/// trainer's own sampled evaluation — the end-to-end accuracy contract of
/// the serving snapshot.
#[test]
fn frozen_snapshot_of_trained_network_serves_accurately() {
    let data = generate_synthetic(&SynthConfig {
        feature_dim: 256,
        label_dim: 64,
        n_train: 600,
        n_test: 150,
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
    for epoch in 0..8 {
        trainer.train_epoch(&data.train, epoch);
    }
    let trainer_sampled = trainer.evaluate(&data.test, 1, EvalMode::Sampled, None);

    let frozen = FrozenNetwork::freeze(trainer.network());
    let mut scratch = frozen.make_scratch();
    let mut hits = 0usize;
    let mut total = 0usize;
    for i in 0..data.test.len() {
        let labels = data.test.labels(i);
        if labels.is_empty() {
            continue;
        }
        let topk = frozen.predict_sparse(data.test.features(i), 1, &mut scratch, i as u64);
        total += 1;
        if topk.first().is_some_and(|p| labels.contains(p)) {
            hits += 1;
        }
    }
    let frozen_p1 = hits as f64 / total as f64;
    assert!(
        frozen_p1 > 0.3,
        "frozen P@1 {frozen_p1:.3} should beat chance by a wide margin"
    );
    assert!(
        frozen_p1 > trainer_sampled * 0.8,
        "frozen P@1 {frozen_p1:.3} lags trainer sampled eval {trainer_sampled:.3}"
    );
}
