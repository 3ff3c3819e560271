//! Per-phase time attribution: where does an epoch actually go, and which
//! phase does each optimization accelerate? This is the measurement behind
//! the paper's §5.5–§5.7 narrative (ADAM and the forward/backward kernels
//! vectorize; the batch copy and parameter access patterns are the memory
//! story; rebuilds amortize).
//!
//! ```sh
//! cargo run -p slide-bench --release --bin profile_phases
//! SLIDE_JSON_OUT=BENCH_train.json cargo run -p slide-bench --release --bin profile_phases
//! ```
//!
//! With `SLIDE_JSON_OUT=<path>` the same numbers are written as a
//! `BENCH_train.json` report (see EXPERIMENTS.md §3 and §5); the meta
//! block records the resolved SIMD level per row so trajectories stay
//! comparable across machines and forced CI legs.

use slide_bench::{epochs, print_table, scale, Workload};
use slide_core::{Network, PhaseBreakdown, Trainer};
use slide_simd::SimdPolicy;

/// Profile one preset row. A preset returning `SimdPolicy::Auto` defers to
/// `base_policy` (the process policy at startup, i.e. a forced `SLIDE_SIMD`
/// CI leg stays forced for the optimized rows); presets that force a level
/// (naive → scalar) keep their forcing. The prior policy is restored
/// afterwards — never hard-reset to Auto, which would clobber the env leg
/// for the rest of the run.
///
/// Returns the per-epoch phase means, the per-epoch seconds, and the SIMD
/// level the row actually resolved to.
fn profile(
    w: Workload,
    train: &slide_data::Dataset,
    preset: impl Fn(&mut slide_core::NetworkConfig) -> SimdPolicy,
    n_epochs: u32,
    base_policy: SimdPolicy,
) -> (PhaseBreakdown, f64, slide_simd::SimdLevel) {
    let mut cfg = w.network_config(train.feature_dim(), train.label_dim());
    let row_policy = match preset(&mut cfg) {
        SimdPolicy::Auto => base_policy,
        forced => forced,
    };
    slide_simd::set_policy(row_policy);
    let level = slide_simd::effective_level();
    let mut trainer = Trainer::new(Network::new(cfg).expect("valid config"), w.trainer_config())
        .expect("valid trainer");
    let mut acc = PhaseBreakdown::default();
    let mut secs = 0.0;
    for epoch in 0..n_epochs {
        let stats = trainer.train_epoch(train, epoch as u64);
        secs += stats.seconds;
        acc.batch_build += stats.phases.batch_build;
        acc.forward_backward += stats.phases.forward_backward;
        acc.optimizer += stats.phases.optimizer;
        acc.rebuild += stats.phases.rebuild;
    }
    slide_simd::set_policy(base_policy);
    let inv = n_epochs as f64;
    (
        PhaseBreakdown {
            batch_build: acc.batch_build / inv,
            forward_backward: acc.forward_backward / inv,
            optimizer: acc.optimizer / inv,
            rebuild: acc.rebuild / inv,
        },
        secs / inv,
        level,
    )
}

/// A named preset: mutates the config and returns the SIMD policy to force.
type Preset = fn(&mut slide_core::NetworkConfig) -> SimdPolicy;

/// One measured row, kept for the optional JSON artifact.
struct Row {
    name: &'static str,
    simd_level: slide_simd::SimdLevel,
    epoch_seconds: f64,
    phases: PhaseBreakdown,
}

fn phases_json(p: &PhaseBreakdown) -> String {
    format!(
        "{{\"batch_build\":{:.6},\"forward_backward\":{:.6},\"optimizer\":{:.6},\"rebuild\":{:.6}}}",
        p.batch_build, p.forward_backward, p.optimizer, p.rebuild
    )
}

fn main() {
    let scale = scale();
    let n_epochs = epochs(4);
    // The process baseline: whatever SLIDE_SIMD forced (or Auto). Rows that
    // don't force their own policy run under it, and the top-level JSON
    // meta is stamped from it.
    let base_policy = slide_simd::policy();
    println!(
        "Per-phase epoch breakdown; SLIDE_SCALE={scale}, epochs={n_epochs}, base simd={}",
        slide_simd::effective_level()
    );

    let presets: [(&'static str, Preset); 3] = [
        ("optimized (CLX)", slide_baseline::optimized_slide_clx),
        ("optimized+bf16 (CPX)", slide_baseline::optimized_slide_cpx),
        ("naive", slide_baseline::naive_slide),
    ];

    let mut workload_docs = Vec::new();
    for w in Workload::all() {
        let (train, _test) = w.dataset(scale);
        let mut rows = Vec::new();
        let mut measured: Vec<Row> = Vec::new();
        for (name, preset) in presets {
            let (p, total, level) = profile(w, &train, preset, n_epochs, base_policy);
            let pct = |x: f64| format!("{:.0}%", 100.0 * x / total.max(1e-12));
            rows.push(vec![
                name.to_string(),
                format!("{:.0}ms", total * 1e3),
                format!(
                    "{:.0}ms ({})",
                    p.forward_backward * 1e3,
                    pct(p.forward_backward)
                ),
                format!("{:.0}ms ({})", p.optimizer * 1e3, pct(p.optimizer)),
                format!("{:.1}ms", p.batch_build * 1e3),
                format!("{:.1}ms", p.rebuild * 1e3),
            ]);
            measured.push(Row {
                name,
                simd_level: level,
                epoch_seconds: total,
                phases: p,
            });
        }
        print_table(
            &format!("Phase breakdown: {}", w.name()),
            &[
                "Variant",
                "epoch",
                "fwd/bwd",
                "ADAM",
                "batch copy",
                "rebuild",
            ],
            &rows,
            &[24, 8, 16, 16, 11, 9],
        );
        let row_docs: Vec<String> = measured
            .iter()
            .map(|r| {
                format!(
                    "{{\"variant\":\"{}\",\"simd_level\":\"{}\",\
                     \"epoch_seconds\":{:.6},\"phases\":{}}}",
                    r.name,
                    r.simd_level,
                    r.epoch_seconds,
                    phases_json(&r.phases)
                )
            })
            .collect();
        workload_docs.push(format!(
            "{{\"workload\":\"{}\",\"rows\":[{}]}}",
            w.name(),
            row_docs.join(",")
        ));
    }
    println!(
        "\nExpected shape: fwd/bwd dominates and shrinks most under AVX-512; \
         the ADAM phase shows the Figure 3 flat-sweep gains; rebuild stays \
         amortized (exponential back-off)."
    );

    if let Ok(path) = std::env::var("SLIDE_JSON_OUT") {
        // Meta block: the process-default resolved SIMD level (per-row
        // values are recorded on each row, since the rows force their own
        // policy).
        let json = format!(
            "{{\"bench\":\"train\",\"source\":\"profile_phases\",\"scale\":{},\"epochs\":{},\
             \"simd_level\":\"{}\",\"workloads\":[{}]}}\n",
            scale,
            n_epochs,
            slide_simd::effective_level(),
            workload_docs.join(",")
        );
        std::fs::write(&path, &json).expect("write BENCH_train.json");
        println!("wrote {path}");
    }
}
