//! The product API `benchmark/` compiles against, pinned inside tier-1.
//!
//! The benchmark package lives outside the root workspace (root
//! `cargo test` neither builds nor sees it), so a rename here would break
//! it silently. This test makes exactly the calls
//! `benchmark/src/{serve,micro,layers,train}.rs` make on the serving tier —
//! same paths, same signatures — and checks the one cross-engine claim the
//! benchmark gates on: the 2-shard int8 engine answers as the unsharded one.

use slide_core::{LshConfig, Network, NetworkConfig};
use slide_obs::StageSample;
use slide_quant::{load, Snapshot};
use slide_serve::{
    query_salt, BatchConfig, BatchingServer, FrozenModel, FrozenNetwork, ShardPlan, SnapshotSpec,
};
use std::sync::Arc;
use std::time::Duration;

const K: usize = 5;

#[test]
fn benchmark_calls_resolve_and_two_shards_answer_as_one() {
    let mut cfg = NetworkConfig::standard(256, 32, 128);
    cfg.lsh = LshConfig {
        tables: 10,
        key_bits: 5,
        min_active: 24,
        ..Default::default()
    };
    let net = Network::new(cfg).unwrap();
    let queries: Vec<(Vec<u32>, Vec<f32>)> = (0..32u32)
        .map(|q| (vec![q, q + 40, q + 90], vec![1.0, -0.5, 0.25]))
        .collect();

    // serve.rs `hand_over`: build → save → drop → mmap-load → first query.
    let dir = std::env::temp_dir().join(format!("slide_bench_surface_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plan = ShardPlan::contiguous(2, 128).unwrap();
    let specs = [
        SnapshotSpec::f32(),
        SnapshotSpec::i8(),
        SnapshotSpec::i8().sharded(plan),
    ];
    let models: Vec<Arc<dyn FrozenModel>> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let path = dir.join(format!("{i}.slsnap"));
            let snapshot = Snapshot::build(&net, spec).unwrap();
            snapshot.save(&path).unwrap();
            let built = snapshot.model().unwrap();
            drop(snapshot);
            let model = load(&path).unwrap();
            assert_eq!(model.arena_bytes(), built.arena_bytes());
            model
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);

    // serve.rs `direct_engine` / `sharded_i8`: predict_any(_timed) with the
    // content-derived salt.
    let answers: Vec<Vec<Vec<u32>>> = models
        .iter()
        .map(|model| {
            let mut scratch = model.make_scratch_any();
            queries
                .iter()
                .map(|(idx, val)| {
                    let x = slide_mem::SparseVecRef::new(idx, val);
                    let salt = query_salt(idx, val, K);
                    let mut stages = StageSample::default();
                    let timed = model.predict_any_timed(x, K, scratch.as_mut(), salt, &mut stages);
                    assert_eq!(timed, model.predict_any(x, K, scratch.as_mut(), salt));
                    timed
                })
                .collect()
        })
        .collect();
    assert_eq!(
        answers[2], answers[1],
        "the 2-shard int8 engine must answer as the unsharded one"
    );

    // serve.rs load phases: BatchingServer in front of a loaded model, one
    // mid-phase publish, stats.
    let server = BatchingServer::start(
        Arc::clone(&models[0]),
        BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            queue_cap: 64,
            threads: 2,
        },
    )
    .unwrap();
    server.reset_stats();
    for (q, (idx, val)) in queries.iter().enumerate() {
        assert_eq!(server.predict(idx, val, K).unwrap(), answers[0][q]);
    }
    server.publish(Arc::clone(&models[1]));
    for (q, (idx, val)) in queries.iter().enumerate() {
        assert_eq!(server.predict(idx, val, K).unwrap(), answers[1][q]);
    }
    let stats = server.stats();
    assert_eq!(stats.hot_swaps, 1);
    assert!(stats.mean_batch >= 1.0);

    // serve.rs `f32_engine_steps`: the f32 engine one public step at a time.
    let frozen = FrozenNetwork::freeze(&net);
    let mut scratch = frozen.make_scratch();
    for (q, (idx, val)) in queries.iter().enumerate() {
        let x = slide_mem::SparseVecRef::new(idx, val);
        let salt = query_salt(idx, val, K);
        frozen.forward_hidden(x, &mut scratch);
        let h = scratch
            .acts
            .last()
            .expect("a hidden layer")
            .as_slice()
            .to_vec();
        frozen.select_active(&h, &mut scratch, salt);
        let selected = scratch.active.clone();
        assert_eq!(
            frozen.predict_sparse(x, K, &mut scratch, salt),
            answers[0][q]
        );
        assert_eq!(scratch.active, selected);
        assert_eq!(frozen.predict_full(x, K, &mut scratch).len(), K);
    }
}
