//! **Table 3** — impact of BF16 on average training time per epoch: the
//! paper's three modes (bf16 weights+activations / bf16 activations only /
//! no bf16) on each workload, on the best "CPX" configuration.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin table3
//! ```

use slide_bench::{epochs, fmt_secs, measure, print_table, scale, Workload};
use slide_core::Precision;

/// Paper Table 3 ratios, phrased relative to each row's baseline column:
/// (both-vs-baseline, act-only-vs-baseline, none-vs-baseline) where the
/// baseline is "both" for the XC datasets and "none" for Text8.
fn paper_row(w: Workload) -> [&'static str; 3] {
    match w {
        Workload::Amazon670k => ["baseline", "1.16x slower", "1.28x slower"],
        Workload::WikiLsh325k => ["baseline", "1.31x slower", "1.39x slower"],
        Workload::Text8 => ["2.8x slower", "1.15x faster", "baseline"],
    }
}

fn main() {
    let scale = scale();
    let n_epochs = epochs(8);
    println!(
        "Reproducing Table 3 (impact of BF16 on avg epoch time); \
         SLIDE_SCALE={scale}, epochs={n_epochs}"
    );
    println!(
        "Note: the paper uses native AVX512-BF16; ours is software bf16 \
         (identical numerics, halved memory traffic, no native FMA), so the \
         speed column is attenuated — see EXPERIMENTS.md."
    );

    let modes = [
        ("BF16 weights+activations", Precision::Bf16Both),
        ("BF16 activations only", Precision::Bf16Activations),
        ("Without BF16", Precision::Fp32),
    ];

    for w in Workload::all() {
        let (train, test) = w.dataset(scale);
        let measured: Vec<_> = modes
            .into_iter()
            .map(|(label, precision)| {
                let mut run = w.run(label, &train);
                run.net.precision = precision;
                (label, measure(&run, &train, &test, n_epochs, 400))
            })
            .collect();
        let fastest = measured
            .iter()
            .map(|(_, m)| m.epoch_seconds())
            .fold(f64::INFINITY, f64::min);
        let paper = paper_row(w);
        let rows: Vec<Vec<String>> = measured
            .iter()
            .zip(paper)
            .map(|((label, m), paper_cell)| {
                vec![
                    label.to_string(),
                    fmt_secs(m.epoch_seconds()),
                    if m.epoch_seconds() <= fastest * 1.02 {
                        "baseline".into()
                    } else {
                        format!("{:.2}x slower", m.epoch_seconds() / fastest)
                    },
                    format!("{:.3}", m.p_at_1()),
                    paper_cell.to_string(),
                ]
            })
            .collect();
        print_table(
            &format!("Table 3: {}", w.name()),
            &["Mode", "s/epoch", "Relative", "P@1", "Paper"],
            &rows,
            &[26, 10, 14, 7, 14],
        );
    }
}
