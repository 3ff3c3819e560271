//! Cold-start benchmark: how fast can a replica go from "process started"
//! to "serving engine ready" from a registry snapshot, versus rebuilding
//! the engine from a live network (see EXPERIMENTS.md §10)?
//!
//! One deterministic `FleetSpec` network is trained once, then each
//! precision × shard cell is measured three ways:
//!
//! * **save** — `Snapshot::build` + atomic publish into a registry.
//! * **mmap load** — `ModelRegistry::current_path` + `snapshot::load`:
//!   map the file, verify checksums, instantiate the engine over the
//!   mapped arenas. This is `slide_netd --snapshot`'s startup path.
//! * **rebuild** — the pre-registry alternative: re-freeze (f32) or
//!   re-quantize (i8) the engine from the in-memory network. Training
//!   time is *excluded* — the gap reported here is the floor; a replica
//!   without a snapshot must also retrain first.
//!
//! Writes `BENCH_snapshot.json` (env `SLIDE_JSON_OUT` overrides; env
//! `SLIDE_SNAPSHOT_ITERS` sets timing repetitions, median reported).
//!
//! ```sh
//! cargo run -p slide-bench --release --bin snapshot_bench
//! ```

use slide_net::{FleetPrecision, FleetSpec};
use slide_quant::QuantizedFrozenNetwork;
use slide_serve::{FrozenModel, FrozenNetwork, ModelRegistry, ShardPlan, SnapshotPrecision};
use std::sync::Arc;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(default)
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Bit-equality spot check between the loaded and rebuilt engines — the
/// numbers below are only meaningful if both paths serve identical answers.
fn assert_parity(loaded: &Arc<dyn FrozenModel>, rebuilt: &Arc<dyn FrozenModel>, cell: &str) {
    let mut sl = loaded.make_scratch_any();
    let mut sr = rebuilt.make_scratch_any();
    for q in 0..16u32 {
        let idx = [q % 256, (q * 7 + 3) % 256, (q * 31 + 11) % 256];
        let val = [1.0f32, -0.5, 0.25];
        let x = slide_mem::SparseVecRef::new(&idx, &val);
        let a = loaded.predict_any(x, 5, &mut *sl, q as u64);
        let b = rebuilt.predict_any(x, 5, &mut *sr, q as u64);
        assert_eq!(a, b, "{cell}: loaded snapshot diverged from rebuilt engine");
    }
}

fn main() {
    let iters = env_usize("SLIDE_SNAPSHOT_ITERS", 5);
    let epochs = env_usize("SLIDE_EPOCHS", 1);
    let json_path =
        std::env::var("SLIDE_JSON_OUT").unwrap_or_else(|_| "BENCH_snapshot.json".into());
    let root = std::env::temp_dir().join(format!("slide_snapshot_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let base = FleetSpec {
        epochs,
        ..Default::default()
    };
    eprintln!("snapshot_bench: training the fleet fixture ({epochs} epoch(s))...");
    let (net, _test) = base.train();

    let cells = [
        (FleetPrecision::F32, 0usize),
        (FleetPrecision::I8, 0),
        (FleetPrecision::F32, 3),
        (FleetPrecision::I8, 3),
    ];
    let mut rows = Vec::new();
    for (precision, shards) in cells {
        let spec = FleetSpec {
            precision,
            shards,
            ..base
        };
        let snap_spec = spec.snapshot_spec();
        let label = snap_spec.precision.label();
        let cell = format!("{label} x{} shard(s)", snap_spec.shards());
        let registry = ModelRegistry::open(root.join(format!("{label}_{shards}")))
            .expect("open bench registry");

        // Save: build + atomic publish (version file fsync'd + renamed).
        let (version, save_ms) = time_ms(|| {
            let snap = spec.snapshot(&net);
            registry.publish(snap.bytes()).expect("publish")
        });
        let path = registry.version_path(version);
        let file_bytes = std::fs::metadata(&path).expect("stat snapshot").len();

        // Cold start: mmap + verify + instantiate, netd's --snapshot path.
        let mut load_samples = Vec::with_capacity(iters);
        let mut loaded = None;
        for _ in 0..iters {
            let (model, ms) = time_ms(|| {
                let current = registry
                    .current_path()
                    .expect("registry current")
                    .expect("published above");
                slide_quant::snapshot::load(&current).expect("load snapshot")
            });
            load_samples.push(ms);
            loaded = Some(model);
        }
        let loaded = loaded.expect("iters >= 1");
        let arena_bytes = loaded.arena_bytes();

        // Rebuild: the constructor a replica would run without a registry
        // (after retraining, which is not counted here).
        let plan = (snap_spec.shards() > 1)
            .then(|| ShardPlan::contiguous(snap_spec.shards(), net.config().output_dim).unwrap());
        let mut rebuild_samples = Vec::with_capacity(iters);
        let mut rebuilt: Option<Arc<dyn FrozenModel>> = None;
        for _ in 0..iters {
            let (model, ms) = time_ms(|| -> Arc<dyn FrozenModel> {
                match snap_spec.precision {
                    SnapshotPrecision::F32 => {
                        Arc::new(FrozenNetwork::freeze_sharded(&net, plan).expect("freeze f32"))
                    }
                    SnapshotPrecision::I8 => Arc::new(
                        QuantizedFrozenNetwork::freeze_sharded(&net, plan).expect("freeze i8"),
                    ),
                }
            });
            rebuild_samples.push(ms);
            rebuilt = Some(model);
        }
        assert_parity(&loaded, &rebuilt.expect("iters >= 1"), &cell);

        let mmap_load_ms = median_ms(load_samples);
        let rebuild_ms = median_ms(rebuild_samples);
        let rebuild_key = match snap_spec.precision {
            SnapshotPrecision::F32 => "refreeze_ms",
            SnapshotPrecision::I8 => "requantize_ms",
        };
        eprintln!(
            "snapshot_bench: {cell}: save {save_ms:.2}ms, mmap load {mmap_load_ms:.2}ms, \
             {rebuild_key} {rebuild_ms:.2}ms, {file_bytes} bytes on disk"
        );
        rows.push(format!(
            "{{\"precision\":\"{label}\",\"shards\":{},\"save_ms\":{save_ms:.3},\
             \"mmap_load_ms\":{mmap_load_ms:.3},\"{rebuild_key}\":{rebuild_ms:.3},\
             \"file_bytes\":{file_bytes},\"arena_bytes\":{arena_bytes}}}",
            snap_spec.shards(),
        ));
    }
    let _ = std::fs::remove_dir_all(&root);

    let doc = format!(
        "{{\"bench\":\"snapshot\",\"source\":\"snapshot_bench\",\"simd_level\":\"{}\",\
         \"kernel_variant\":\"{}\",\"train_epochs\":{epochs},\"iters\":{iters},\"rows\":[{}]}}\n",
        slide_simd::effective_level(),
        slide_simd::kernel_variant(),
        rows.join(",")
    );
    std::fs::write(&json_path, &doc).expect("write BENCH_snapshot.json");
    eprintln!("snapshot_bench: report written to {json_path}");
    // The report is the contract; echo it for log scrapers.
    print!("{doc}");
}
