//! `slide_netd --snapshot` cold start (ISSUE satellite: registry-driven
//! restart): a replica process that never trains — it mmap-loads the
//! registry's current version at startup — must serve answers
//! **bit-identical** to the in-process engine the snapshot was built from,
//! for every precision × sharding cell, and must refuse to start from a
//! registry with nothing published in it.

mod daemon;

use daemon::spawn_replica_from_registry;
use slide_mem::SparseVecRef;
use slide_net::{FleetSpec, NetClient};
use slide_serve::{query_salt, ModelRegistry, SnapshotPrecision};
use std::time::Duration;

const K: usize = 5;

fn registry_root(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("slide_netd_snapshot_{tag}_{}", std::process::id()))
}

/// Train the fixture, publish its snapshot, cold-start a daemon from the
/// registry, and check every socket answer against the in-process engine.
fn assert_cold_start_parity(tag: &str, precision: SnapshotPrecision, shards: usize) {
    let spec = FleetSpec {
        seed: 42,
        epochs: 0,
        precision,
        shards,
    };
    let (net, test) = spec.train();
    let snapshot = spec.snapshot(&net);
    let model = snapshot.model().expect("instantiate snapshot in-process");
    let queries = slide_net::query_battery(&test, 24);
    let expected: Vec<Vec<u32>> = {
        let mut scratch = model.make_scratch_any();
        queries
            .iter()
            .map(|(idx, val)| {
                let salt = query_salt(idx, val, K);
                model.predict_any(SparseVecRef::new(idx, val), K, &mut *scratch, salt)
            })
            .collect()
    };

    let root = registry_root(tag);
    let _ = std::fs::remove_dir_all(&root);
    let registry = ModelRegistry::open(&root).expect("open registry");
    registry
        .publish(snapshot.bytes())
        .expect("publish snapshot");

    let mut replica = spawn_replica_from_registry("127.0.0.1:0", &root);
    let addr: std::net::SocketAddr = replica.addr.parse().expect("replica addr");
    let mut client = NetClient::connect(addr, Duration::from_secs(5)).expect("connect");
    for (i, ((idx, val), want)) in queries.iter().zip(&expected).enumerate() {
        let got = client.predict(idx, val, K).expect("socket predict");
        assert_eq!(
            &got, want,
            "{tag}: query {i} differs between the cold-started daemon and in-process"
        );
    }
    drop(client);
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn netd_cold_start_is_bit_equal_f32() {
    assert_cold_start_parity("f32", SnapshotPrecision::F32, 0);
}

#[test]
fn netd_cold_start_is_bit_equal_i8_sharded() {
    assert_cold_start_parity("i8x3", SnapshotPrecision::I8, 3);
}

/// An empty registry is a startup error, not a silent retrain: the daemon
/// must exit non-zero and say why.
#[test]
fn netd_refuses_a_registry_with_nothing_published() {
    let root = registry_root("empty");
    let _ = std::fs::remove_dir_all(&root);
    // `open` creates the directory skeleton but publishes nothing.
    ModelRegistry::open(&root).expect("open empty registry");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_slide_netd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--snapshot",
            root.to_str().expect("utf-8 path"),
        ])
        .stdin(std::process::Stdio::null())
        .output()
        .expect("run slide_netd");
    assert!(
        !out.status.success(),
        "daemon started from an empty registry"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no published version"),
        "unhelpful startup error: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
