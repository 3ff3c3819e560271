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

use slide_baseline::Method;
use slide_bench::{
    dense_configs, epochs, fmt_secs, model_v100, print_table, scale, with_preset_policy, Workload,
};
use slide_core::{ConvergenceLog, EvalMode, Network, Trainer};
use std::path::PathBuf;

fn slide_curve(
    method: Method,
    w: Workload,
    train: &slide_data::Dataset,
    test: &slide_data::Dataset,
    n_epochs: u32,
) -> ConvergenceLog {
    let mut cfg = w.network_config(train.feature_dim(), train.label_dim());
    let policy = match method {
        Method::NaiveSlide => slide_baseline::naive_slide(&mut cfg),
        Method::OptimizedSlideClx => slide_baseline::optimized_slide_clx(&mut cfg),
        Method::OptimizedSlideCpx => slide_baseline::optimized_slide_cpx(&mut cfg),
        _ => unreachable!("dense methods use dense_curve"),
    };
    with_preset_policy(policy, || {
        let mut trainer =
            Trainer::new(Network::new(cfg).expect("valid config"), w.trainer_config())
                .expect("valid trainer");
        trainer.run_convergence(train, test, n_epochs, EvalMode::Exact, Some(400))
    })
}

fn dense_curve(
    w: Workload,
    train: &slide_data::Dataset,
    test: &slide_data::Dataset,
    n_epochs: u32,
) -> ConvergenceLog {
    let (cfg, tc) = dense_configs(w, train.feature_dim(), train.label_dim());
    let mut dense =
        Trainer::new(Network::new(cfg).expect("valid config"), tc).expect("valid trainer");
    dense.run_convergence(train, test, n_epochs, EvalMode::Exact, Some(400))
}

/// Rescale a measured dense curve's time axis by the modeled V100/CPU ratio.
fn v100_curve(w: Workload, train: &slide_data::Dataset, cpu: &ConvergenceLog) -> ConvergenceLog {
    let modeled = model_v100(w, train, cpu.final_p_at_1()).epoch_seconds;
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
        let mut summary: Vec<(Method, f64, f64, bool)> = Vec::new();
        let mut curves: Vec<(Method, ConvergenceLog)> = Vec::new();

        let dense = dense_curve(w, &train, &test, n_epochs);
        let v100 = v100_curve(w, &train, &dense);
        summary.push((
            Method::TfV100,
            v100.avg_epoch_seconds(),
            v100.final_p_at_1(),
            true,
        ));
        summary.push((
            Method::TfCpu,
            dense.avg_epoch_seconds(),
            dense.final_p_at_1(),
            false,
        ));
        curves.push((Method::TfV100, v100));
        curves.push((Method::TfCpu, dense));

        for method in [
            Method::NaiveSlide,
            Method::OptimizedSlideClx,
            Method::OptimizedSlideCpx,
        ] {
            let log = slide_curve(method, w, &train, &test, n_epochs);
            summary.push((method, log.avg_epoch_seconds(), log.final_p_at_1(), false));
            curves.push((method, log));
        }

        // Bottom row: bar chart data.
        let rows: Vec<Vec<String>> = summary
            .iter()
            .map(|(m, secs, p1, modeled)| {
                vec![
                    m.label().to_string(),
                    format!(
                        "{}{}",
                        fmt_secs(*secs),
                        if *modeled { " [model]" } else { "" }
                    ),
                    format!("{p1:.3}"),
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
