//! The benchmark's contract: workloads, metric names, units, directions and
//! bounds. `BENCHMARK.json` at the repo root is this table rendered
//! (`slide-benchmark --print-spec`); a unit test keeps the two equal.

use std::fmt::Write as _;

/// Seconds of measured fixed work per run on the reference host. All fixed
/// work counts below are stated for this value and scale with `--seconds`.
pub const RUN_SECONDS: u64 = 12;

/// `(name, why)` of each workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "train_xc",
        "Amazon-670K-shaped training (106496 labels x 128, DWTA K=6 L=24), 1 thread: gather kernels and LSH retrieval dominate, loss and P@1 repeat bit for bit",
    ),
    (
        "train_w2v",
        "Text8-shaped skip-gram training (SimHash K=9 L=25, hidden 200), 2 threads: dense hashing and full table rebuilds are half the window; the only parallel HOGWILD/ThreadPool path",
    ),
    (
        "serve_inproc",
        "f32 mmap snapshot of the train_xc model: direct engine, then open and closed loops through BatchingServer in process; separates retrieval+scoring from the batcher",
    ),
    (
        "serve_net_i8",
        "same model as an int8 snapshot behind NetServer on loopback TCP: int8 kernels, wire codec and a socket hop; an f32-only kernel gain must not move it, an i8 or wire change moves only it",
    ),
];

/// One end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these from the untraced run. Each is
/// a role, filled per workload family (train_* | serve_*) — see README.md.
pub const END_TO_END: &[EndToEnd] = &[
    // Normalised. train: data generation + Network::new/Trainer::new +
    // warm-up batches. serve: Snapshot::build + save + mmap load + first
    // answer. Median of 3 set-ups per run.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    // VmHWM at exit; includes the 64 MiB probe table. Freed memory is handed
    // back after each set-up repeat (`harness::release_freed_memory`).
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.1,
    },
    // Checked operations passed / attempted.
    EndToEnd {
        name: "ok_share",
        unit: "fraction",
        better: "higher",
        bound: 0.001,
    },
    // Normalised. train: samples/s over all timed batches, rebuilds
    // included. serve: queries/s straight into the engine on one thread.
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    // train: median normalised time of one training batch. serve: raw median
    // latency from the due instant, open loop at 500 req/s.
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    // train: P@1, exact scoring, after the fixed work. serve: share of the
    // served top-5 inside the exact f32 top-50, on 512 fixed queries.
    EndToEnd {
        name: "quality",
        unit: "fraction",
        better: "higher",
        bound: 0.25,
    },
    // train: f32 bytes of the trained parameters. serve: arena bytes of the
    // loaded snapshot.
    EndToEnd {
        name: "model_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.02,
    },
];

/// One per-layer metric (traced run only; no bound).
pub struct PerLayer {
    /// `<layer>.<metric>`; the layer is the crate the number belongs to.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload reports every one of these from the traced run; a metric
/// that does not apply to a workload reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // Host context and the raw twins of the normalised metrics.
    pl("host.probe_rate_vs_ref", "ratio", "higher"),
    pl("host.probe_cv", "fraction", "lower"),
    pl("host.disturbed", "count", "lower"),
    pl("setup_s.raw", "s", "lower"),
    pl("work_per_s.raw", "1/s", "higher"),
    pl("op_p50_us.raw", "us", "lower"),
    // slide-simd: active-set-sized random gathers from a 106496 x 128 arena.
    pl("simd.score_rows_f32_ns_per_row", "ns", "lower"),
    pl("simd.score_rows_f32_gbps", "GB/s", "higher"),
    pl("simd.backward_rows_f32_ns_per_row", "ns", "lower"),
    pl("simd.adam_step_ns_per_row", "ns", "lower"),
    pl("simd.axpy_f32_ns_per_row", "ns", "lower"),
    pl("simd.score_rows_i8_ns_per_row", "ns", "lower"),
    pl("simd.score_rows_i8_gbps", "GB/s", "higher"),
    // slide-hash, on the workload's own (pre-)trained network.
    pl("hash.keys_dense_us", "us", "lower"),
    pl("hash.table_query_us", "us", "lower"),
    pl("hash.candidates_mean", "count", "lower"),
    pl("hash.bucket_fill_share", "fraction", "higher"),
    pl("hash.bucket_overflow_share", "fraction", "lower"),
    pl("hash.insert_rows_per_s", "1/s", "higher"),
    // slide-data / slide-mem.
    pl("data.gen_s", "s", "lower"),
    pl("mem.batch_build_us", "us", "lower"),
    // slide-core.
    pl("core.net_init_s", "s", "lower"),
    pl("core.train_batch_ms_p50", "ms", "lower"),
    pl("core.train_batch_ms_p90", "ms", "lower"),
    pl("core.forward_hidden_us", "us", "lower"),
    pl("core.select_active_us", "us", "lower"),
    pl("core.train_sample_us", "us", "lower"),
    pl("core.kernel_self_us", "us", "lower"),
    pl("core.batch_overhead_share", "fraction", "lower"),
    pl("core.active_set_mean", "count", "lower"),
    pl("core.rebuild_s", "s", "lower"),
    pl("core.rebuild_count", "count", "lower"),
    pl("core.rebuild_share", "fraction", "lower"),
    pl("core.thread_scaling", "ratio", "higher"),
    pl("core.eval_exact_qps", "1/s", "higher"),
    pl("core.recall_at_5", "fraction", "higher"),
    // slide-serve.
    pl("serve.freeze_s", "s", "lower"),
    pl("serve.snapshot_save_ms", "ms", "lower"),
    pl("serve.snapshot_load_ms", "ms", "lower"),
    pl("serve.forward_hidden_us", "us", "lower"),
    pl("serve.select_active_us", "us", "lower"),
    pl("serve.score_topk_us", "us", "lower"),
    pl("serve.engine_us_p50", "us", "lower"),
    pl("serve.engine_us_p99", "us", "lower"),
    pl("serve.active_set_mean", "count", "lower"),
    pl("serve.predict_full_us", "us", "lower"),
    pl("serve.p_at_1", "fraction", "higher"),
    pl("serve.batcher_overhead_us_p50", "us", "lower"),
    pl("serve.batch_size_mean", "count", "higher"),
    pl("serve.lat_p90_us", "us", "lower"),
    pl("serve.lat_p99_us", "us", "lower"),
    pl("serve.lat_samples", "count", "higher"),
    pl("serve.lat_p50_us_at_250", "us", "lower"),
    pl("serve.lat_p50_us_at_1000", "us", "lower"),
    pl("serve.max_rate_under_limit", "1/s", "higher"),
    pl("serve.gen_late_p99_us", "us", "lower"),
    pl("serve.closed_qps", "1/s", "higher"),
    pl("serve.closed_lat_p50_us", "us", "lower"),
    pl("serve.swap_stall_us", "us", "lower"),
    // slide-quant.
    pl("quant.build_s", "s", "lower"),
    pl("quant.shard_merge_us", "us", "lower"),
    pl("quant.sharded_engine_us_p50", "us", "lower"),
    // slide-net.
    pl("net.encode_ns", "ns", "lower"),
    pl("net.decode_ns", "ns", "lower"),
    pl("net.frame_bytes_req", "count", "lower"),
    pl("net.frame_bytes_reply", "count", "lower"),
    pl("net.socket_hop_us_p50", "us", "lower"),
    pl("net.router_hop_us_p50", "us", "lower"),
    // slide-obs.
    pl("obs.metrics_render_ms", "ms", "lower"),
    pl("obs.hist_record_ns", "ns", "lower"),
    // The trace itself.
    pl("trace.overhead_share", "fraction", "lower"),
    pl("trace.unaccounted_share", "fraction", "lower"),
    pl("trace.spans", "count", "lower"),
];

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{}",
            if i + 1 == WORKLOADS.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better,
            m.bound,
            if i + 1 == END_TO_END.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better,
            if i + 1 == PER_LAYER.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        for m in END_TO_END {
            assert!(valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in PER_LAYER {
            assert!(valid_unit(m.unit), "bad unit {}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with --print-spec");
    }
}
