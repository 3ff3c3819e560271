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

use slide_bench::{epochs, measure, print_table, scale, Workload};
use slide_core::PhaseBreakdown;

fn phases_json(p: &PhaseBreakdown) -> String {
    let fields: Vec<String> = p
        .named()
        .iter()
        .map(|(name, seconds)| format!("\"{name}\":{seconds:.6}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn main() {
    let scale = scale();
    let n_epochs = epochs(4);
    // The process baseline is whatever SLIDE_SIMD forced (or Auto): rows
    // that don't force their own policy run under it, and the top-level
    // JSON meta is stamped from it.
    println!(
        "Per-phase epoch breakdown; SLIDE_SCALE={scale}, epochs={n_epochs}, base simd={}",
        slide_simd::effective_level()
    );

    let mut workload_docs = Vec::new();
    for w in Workload::all() {
        let (train, test) = w.dataset(scale);
        let runs = [
            w.run("optimized (CLX)", &train),
            w.run("optimized+bf16 (CPX)", &train).cpx(),
            w.run("naive", &train).naive(),
        ];
        // No P@1 here (0 evaluation samples): the phase split is the row.
        let measured: Vec<_> = runs
            .iter()
            .map(|run| (&run.label, measure(run, &train, &test, n_epochs, 0)))
            .collect();
        let rows: Vec<Vec<String>> = measured
            .iter()
            .map(|(label, m)| {
                let (p, total) = (m.phases(), m.epoch_seconds());
                let cell =
                    |x: f64| format!("{:.1}ms ({:.0}%)", x * 1e3, 100.0 * x / total.max(1e-12));
                let mut row = vec![label.to_string(), format!("{:.0}ms", total * 1e3)];
                row.extend(p.named().iter().map(|&(_, seconds)| cell(seconds)));
                row
            })
            .collect();
        let mut headers = vec!["Variant", "epoch"];
        headers.extend(
            PhaseBreakdown::default()
                .named()
                .iter()
                .map(|&(name, _)| name),
        );
        let mut widths = vec![24, 8];
        widths.resize(headers.len(), 15);
        print_table(
            &format!("Phase breakdown: {}", w.name()),
            &headers,
            &rows,
            &widths,
        );
        let row_docs: Vec<String> = measured
            .iter()
            .map(|(label, m)| {
                format!(
                    "{{\"variant\":\"{}\",\"simd_level\":\"{}\",\
                     \"epoch_seconds\":{:.6},\"phases\":{}}}",
                    label,
                    m.simd,
                    m.epoch_seconds(),
                    phases_json(&m.phases())
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
        "\nExpected shape: the output layer's stages (csr, score, softmax, \
         backward_adam) dominate, and score and backward_adam shrink most \
         under AVX-512; the row-owned input pass (backward and ADAM of the \
         batch's feature rows) stays small; rebuild stays amortized \
         (exponential back-off)."
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
