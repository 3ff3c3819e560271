//! **Table 2** — average wall-clock training time per epoch for every
//! method on every workload, with the paper's speedup phrasing
//! ("Nx fast over ...") next to the paper's reported factors.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin table2
//! ```

use slide_bench::{epochs, fmt_ratio_vs, fmt_secs, measure, print_table, scale, Method, Workload};

/// Table 2's comparison rows: (label, optimized method, reference method).
const COMPARISONS: [(&str, Method, Method); 6] = [
    (
        "Opt SLIDE (CLX) vs TF V100*",
        Method::OptimizedSlideClx,
        Method::TfV100,
    ),
    (
        "Opt SLIDE (CPX) vs TF V100*",
        Method::OptimizedSlideCpx,
        Method::TfV100,
    ),
    (
        "Opt SLIDE (CLX) vs TF-CPU",
        Method::OptimizedSlideClx,
        Method::TfCpu,
    ),
    (
        "Opt SLIDE (CPX) vs TF-CPU",
        Method::OptimizedSlideCpx,
        Method::TfCpu,
    ),
    (
        "Opt SLIDE (CLX) vs Naive SLIDE",
        Method::OptimizedSlideClx,
        Method::NaiveSlide,
    ),
    (
        "Opt SLIDE (CPX) vs Naive SLIDE",
        Method::OptimizedSlideCpx,
        Method::NaiveSlide,
    ),
];

/// The paper's Table 2 factor for each of [`COMPARISONS`] on `w`.
fn paper_factors(w: Workload) -> [f64; 6] {
    match w {
        Workload::Amazon670k => [3.5, 7.8, 4.0, 7.9, 4.4, 7.2],
        Workload::WikiLsh325k => [2.04, 4.19, 2.55, 5.2, 2.0, 3.0],
        Workload::Text8 => [9.2, 15.5, 11.6, 17.36, 3.5, 3.0],
    }
}

fn main() {
    let scale = scale();
    let n_epochs = epochs(8);
    let eval_samples = 400;
    println!(
        "Reproducing Table 2 (avg wall-clock training time per epoch); \
         SLIDE_SCALE={scale}, epochs={n_epochs}"
    );
    println!("V100 rows are modeled (no GPU in this environment) — see DESIGN.md.");

    for w in Workload::all() {
        let (train, test) = w.dataset(scale);
        println!(
            "\n--- {} ({} train, {} features, {} labels) ---",
            w.name(),
            train.len(),
            train.feature_dim(),
            train.label_dim()
        );
        // (method, epoch seconds, P@1) in lineup order; the modeled V100 row
        // carries the TF-CPU run's P@1, and TF-CPU is the first one measured.
        let mut measured: Vec<(Method, f64, f64)> = Method::all()
            .into_iter()
            .filter_map(|m| {
                let r = measure(&m.run(w, &train)?, &train, &test, n_epochs, eval_samples);
                Some((m, r.epoch_seconds(), r.p_at_1()))
            })
            .collect();
        measured.insert(
            0,
            (Method::TfV100, w.v100_epoch_seconds(&train), measured[0].2),
        );
        for &(method, secs, p1) in &measured {
            println!(
                "  measured {:<44} {:>9}/epoch  P@1 {:.3}{}",
                method.label(),
                fmt_secs(secs),
                p1,
                if method == Method::TfV100 {
                    "  [modeled]"
                } else {
                    ""
                }
            );
        }
        let secs = |m: Method| measured.iter().find(|r| r.0 == m).unwrap().1;
        let rows: Vec<Vec<String>> = COMPARISONS
            .into_iter()
            .zip(paper_factors(w))
            .map(|((label, method, reference), paper)| {
                vec![
                    label.to_string(),
                    fmt_ratio_vs(secs(reference), secs(method)),
                    format!("{paper:.1}x fast"),
                ]
            })
            .collect();
        print_table(
            &format!("Table 2 rows: {}", w.name()),
            &["Comparison", "Measured", "Paper"],
            &rows,
            &[34, 14, 12],
        );
    }
    println!(
        "\n* V100 epoch time is an analytic model; CPU-vs-CPU rows are fully measured. \
         Our scaled label spaces shrink SLIDE's advantage versus the paper's 670K-label \
         runs — the ordering (Optimized < Naive < TF-CPU epoch time) is the signal."
    );
}
