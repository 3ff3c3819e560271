//! **Table 4** — impact of AVX-512 on average training time per epoch:
//! Optimized SLIDE with vectorization on vs forced off, per workload.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin table4
//! ```

use slide_bench::{epochs, fmt_secs, measure, print_table, scale, Run, Workload};
use slide_simd::{SimdLevel, SimdPolicy};

fn paper_slowdown(w: Workload) -> &'static str {
    match w {
        Workload::Amazon670k => "1.22x slower",
        Workload::WikiLsh325k => "1.12x slower",
        Workload::Text8 => "1.14x slower",
    }
}

fn main() {
    let scale = scale();
    let n_epochs = epochs(8);
    println!("Reproducing Table 4 (impact of AVX-512); SLIDE_SCALE={scale}, epochs={n_epochs}");
    println!(
        "host SIMD capability: {} (policy forced per row)",
        slide_simd::detected_level()
    );

    for w in Workload::all() {
        let (train, test) = w.dataset(scale);
        let avx = w.run("With AVX-512", &train);
        let scalar = Run {
            label: "Without AVX-512 (scalar)".into(),
            simd: SimdPolicy::Force(SimdLevel::Scalar),
            ..avx.clone()
        };
        let [with, without] = [&avx, &scalar].map(|run| measure(run, &train, &test, n_epochs, 400));
        let rows = vec![
            vec![
                avx.label,
                fmt_secs(with.epoch_seconds()),
                "baseline".into(),
                format!("{:.3}", with.p_at_1()),
                "baseline".into(),
            ],
            vec![
                scalar.label,
                fmt_secs(without.epoch_seconds()),
                format!(
                    "{:.2}x slower",
                    without.epoch_seconds() / with.epoch_seconds()
                ),
                format!("{:.3}", without.p_at_1()),
                paper_slowdown(w).into(),
            ],
        ];
        print_table(
            &format!("Table 4: {}", w.name()),
            &["Configuration", "s/epoch", "Relative", "P@1", "Paper"],
            &rows,
            &[26, 10, 14, 7, 14],
        );
    }
    println!("\nAccuracy is unchanged by vectorization (same computation), as in the paper.");
}
