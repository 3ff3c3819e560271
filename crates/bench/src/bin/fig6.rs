//! **Figure 6** — convergence curves (top row: P@1 vs wall-clock training
//! time, log-x) and the bar-chart summary (bottom row: avg epoch time +
//! final P@1) for every method on every workload.
//!
//! Prints the bar-chart table and writes one CSV per (workload, method)
//! curve under `fig6_out/` for plotting.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin fig6            # everything
//! cargo run -p slide-bench --release --bin fig6 -- --barchart   # summary only
//! ```

use slide_bench::{epochs, fmt_secs, measure, print_table, scale, Method, Workload};
use slide_core::ConvergenceLog;
use std::path::PathBuf;

/// Rescale a measured dense curve's time axis by the modeled V100/CPU ratio.
fn v100_curve(w: Workload, train: &slide_data::Dataset, cpu: &ConvergenceLog) -> ConvergenceLog {
    let modeled = w.v100_epoch_seconds(train);
    let cpu_epoch = cpu.avg_epoch_seconds().max(1e-12);
    let ratio = modeled / cpu_epoch;
    let mut out = cpu.clone();
    for p in &mut out.points {
        p.elapsed_seconds *= ratio;
        p.epoch_seconds *= ratio;
    }
    out
}

fn main() {
    let barchart_only = std::env::args().any(|a| a == "--barchart");
    let scale = scale();
    let n_epochs = epochs(8);
    let out_dir = PathBuf::from("fig6_out");
    if !barchart_only {
        std::fs::create_dir_all(&out_dir).expect("create fig6_out/");
    }
    println!(
        "Reproducing Figure 6 (convergence + barchart); SLIDE_SCALE={scale}, epochs={n_epochs}"
    );

    for w in Workload::all() {
        let (train, test) = w.dataset(scale);
        println!("\n--- {} ---", w.name());
        let mut curves: Vec<(Method, ConvergenceLog)> = Method::all()
            .into_iter()
            .filter_map(|m| {
                Some((
                    m,
                    measure(&m.run(w, &train)?, &train, &test, n_epochs, 400).curve,
                ))
            })
            .collect();
        // The first measured method is TF-CPU, whose curve the V100 row rescales.
        let v100 = v100_curve(w, &train, &curves[0].1);
        curves.insert(0, (Method::TfV100, v100));

        // Bottom row: bar chart data.
        let rows: Vec<Vec<String>> = curves
            .iter()
            .map(|(m, log)| {
                vec![
                    m.label().to_string(),
                    format!(
                        "{}{}",
                        fmt_secs(log.avg_epoch_seconds()),
                        if *m == Method::TfV100 { " [model]" } else { "" }
                    ),
                    format!("{:.3}", log.final_p_at_1()),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 6 (bottom): {}", w.name()),
            &["Method", "Avg epoch", "P@1"],
            &rows,
            &[46, 16, 6],
        );

        // Top row: per-method CSV curves (P@1 vs cumulative seconds).
        if !barchart_only {
            for (method, log) in &curves {
                let method_slug = match method {
                    Method::TfV100 => "tf_v100_modeled",
                    Method::TfCpu => "tf_cpu",
                    Method::NaiveSlide => "naive_slide",
                    Method::OptimizedSlideClx => "opt_slide_clx",
                    Method::OptimizedSlideCpx => "opt_slide_cpx",
                };
                let slug = format!(
                    "{}_{method_slug}",
                    w.name().replace([' ', '(', ')'], "").to_lowercase()
                );
                let path = out_dir.join(format!("{slug}.csv"));
                std::fs::write(&path, log.to_csv()).expect("write curve csv");
            }
            println!("curves written to {}/", out_dir.display());
        }
    }
    println!(
        "\nReading the curves: Optimized SLIDE reaches any P@1 level in the least \
         wall-clock time, Naive SLIDE second, dense CPU last — Figure 6's ordering."
    );
}
