//! Save→load parity: for every `SnapshotSpec` cell —
//! f32/i8 × unsharded/sharded(N ∈ {1,3}) — the engine instantiated from a
//! written-then-mmap-loaded `.slsnap` file must answer **bit-identically**
//! to the engine instantiated straight from the in-memory build, and must
//! keep doing so under a forced-scalar SIMD policy as well as the
//! auto-dispatched one (the CI matrix additionally pins `SLIDE_SIMD` around
//! the whole suite, so each leg re-checks this at its floor).

use slide_core::{LshConfig, Network, NetworkConfig};
use slide_mem::SparseVecRef;
use slide_serve::{FrozenModel, ShardPlan, Snapshot, SnapshotSpec};
use slide_simd::{set_policy, SimdLevel, SimdPolicy};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes tests that mutate or depend on the process-wide SIMD policy.
fn policy_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_net(seed: u64) -> Network {
    let mut cfg = NetworkConfig::standard(256, 32, 128);
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

fn topk(model: &Arc<dyn FrozenModel>, queries: &[(Vec<u32>, Vec<f32>)]) -> Vec<Vec<u32>> {
    let mut scratch = model.make_scratch_any();
    queries
        .iter()
        .enumerate()
        .map(|(s, (idx, val))| {
            model.predict_any(SparseVecRef::new(idx, val), 5, &mut *scratch, s as u64)
        })
        .collect()
}

/// Build → save → mmap-load, then compare the two engines query-by-query
/// under both a forced-scalar policy and the auto-dispatched one.
fn assert_save_load_parity(tag: &str, spec: SnapshotSpec) {
    let _guard = policy_guard();
    let prior = slide_simd::policy();
    let net = small_net(42);
    let snapshot = Snapshot::build(&net, &spec).expect("build snapshot");
    let built = snapshot.model().expect("in-memory instantiation");

    let path =
        std::env::temp_dir().join(format!("slide_parity_{tag}_{}.slsnap", std::process::id()));
    let _ = std::fs::remove_file(&path);
    snapshot.save(&path).expect("save snapshot");
    let loaded = slide_serve::load(&path).expect("load snapshot");

    // The reopened file must also say what it is.
    let reopened = Snapshot::open(&path).expect("reopen snapshot");
    assert_eq!(
        reopened.spec().precision,
        spec.precision,
        "{tag}: precision"
    );
    assert_eq!(reopened.spec().shards(), spec.shards(), "{tag}: shards");

    let queries = test_queries(48, 256);
    for (leg, policy) in [
        ("scalar", SimdPolicy::Force(SimdLevel::Scalar)),
        ("auto", SimdPolicy::Auto),
    ] {
        set_policy(policy);
        assert_eq!(
            topk(&built, &queries),
            topk(&loaded, &queries),
            "{tag}/{leg}: loaded snapshot diverged from the built engine"
        );
    }
    set_policy(prior);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn f32_unsharded_round_trips_bit_equal() {
    assert_save_load_parity("f32", SnapshotSpec::f32());
}

#[test]
fn i8_unsharded_round_trips_bit_equal() {
    assert_save_load_parity("i8", SnapshotSpec::i8());
}

#[test]
fn f32_single_shard_round_trips_bit_equal() {
    let plan = ShardPlan::contiguous(1, 128).expect("1-shard plan");
    assert_save_load_parity("f32x1", SnapshotSpec::f32().sharded(plan));
}

#[test]
fn f32_three_shards_round_trip_bit_equal() {
    let plan = ShardPlan::contiguous(3, 128).expect("3-shard plan");
    assert_save_load_parity("f32x3", SnapshotSpec::f32().sharded(plan));
}

#[test]
fn i8_three_shards_round_trip_bit_equal() {
    let plan = ShardPlan::contiguous(3, 128).expect("3-shard plan");
    assert_save_load_parity("i8x3", SnapshotSpec::i8().sharded(plan));
}

/// `(spec, image length, CRC-32 of the image)` for `small_net(42)` under a
/// forced-scalar policy, recorded on the commit *before* the four engines
/// and two codecs were collapsed into `Engine<L>` + one codec. They pin the
/// `.slsnap` v1 byte layout: section order, alignment, every payload bit.
const GOLDEN: [(&str, usize, u32); 4] = [
    ("f32", 59392, 0xcc80_7ca1),
    ("f32/contiguous(3)", 59648, 0xe8be_3ce1),
    ("i8", 51818, 0xe7b3_c30e),
    ("i8/contiguous(3)", 52096, 0x678b_be07),
];

#[test]
fn golden_slsnap_digests_hold() {
    let _guard = policy_guard();
    let prior = slide_simd::policy();
    set_policy(SimdPolicy::Force(SimdLevel::Scalar));
    let c3 = ShardPlan::contiguous(3, 128).expect("3-shard plan");
    let specs = [
        SnapshotSpec::f32(),
        SnapshotSpec::f32().sharded(c3),
        SnapshotSpec::i8(),
        SnapshotSpec::i8().sharded(c3),
    ];
    let net = small_net(42);
    let digests: Vec<(usize, u32)> = specs
        .iter()
        .map(|spec| {
            let snapshot = Snapshot::build(&net, spec).expect("build snapshot");
            (snapshot.bytes().len(), slide_mem::crc32(snapshot.bytes()))
        })
        .collect();
    set_policy(prior);
    for ((tag, len, crc), got) in GOLDEN.iter().zip(digests) {
        assert_eq!(got, (*len, *crc), "{tag}: on-disk format drifted");
    }
}
