//! LSH design-choice ablations beyond the paper's headline tables: table
//! count `L` and multiprobe — the design decisions DESIGN.md flags for
//! ablation.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin ablation_lsh
//! ```

use slide_bench::{epochs, fmt_secs, print_table, run_slide, scale, Workload};
use slide_simd::SimdPolicy;

fn main() {
    let scale = scale();
    let n_epochs = epochs(6);
    let w = Workload::Amazon670k;
    let (train, test) = w.dataset(scale);
    println!(
        "LSH design ablations on {}; SLIDE_SCALE={scale}, epochs={n_epochs}",
        w.name()
    );

    // --- Sweep L (number of tables): recall vs cost ---
    let mut rows = Vec::new();
    for l in [4usize, 8, 16, 24, 48] {
        let mut cfg = w.network_config(train.feature_dim(), train.label_dim());
        cfg.lsh.tables = l;
        let r = run_slide(
            cfg,
            w.trainer_config(),
            SimdPolicy::Auto,
            None,
            &train,
            &test,
            n_epochs,
            300,
        );
        rows.push(vec![
            format!("L = {l}"),
            fmt_secs(r.epoch_seconds),
            format!("{:.3}", r.p_at_1),
        ]);
    }
    print_table(
        "Sweep: number of hash tables L (K=6 DWTA)",
        &["Tables", "s/epoch", "P@1"],
        &rows,
        &[10, 10, 7],
    );

    // --- Multiprobe: trade probes per table against table count ---
    let mut rows = Vec::new();
    for (l, probes) in [(24usize, 1usize), (12, 2), (6, 4), (24, 2)] {
        let mut cfg = w.network_config(train.feature_dim(), train.label_dim());
        cfg.lsh.tables = l;
        cfg.lsh.probes = probes;
        let r = run_slide(
            cfg,
            w.trainer_config(),
            SimdPolicy::Auto,
            None,
            &train,
            &test,
            n_epochs,
            300,
        );
        rows.push(vec![
            format!("L = {l}, probes = {probes}"),
            fmt_secs(r.epoch_seconds),
            format!("{:.3}", r.p_at_1),
        ]);
    }
    print_table(
        "Multiprobe: fewer tables x more probes (extension)",
        &["Configuration", "s/epoch", "P@1"],
        &rows,
        &[22, 10, 7],
    );
}
