//! LSH design-choice ablations beyond the paper's headline tables: table
//! count `L` and multiprobe — the design decisions DESIGN.md flags for
//! ablation.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin ablation_lsh
//! ```

use slide_bench::{epochs, fmt_secs, measure, print_table, scale, Workload};

fn main() {
    let scale = scale();
    let n_epochs = epochs(6);
    let w = Workload::Amazon670k;
    let (train, test) = w.dataset(scale);
    println!(
        "LSH design ablations on {}; SLIDE_SCALE={scale}, epochs={n_epochs}",
        w.name()
    );
    // One row per (label, tables, probes): seconds per epoch and P@1.
    let rows = |sweep: &[(String, usize, usize)]| -> Vec<Vec<String>> {
        sweep
            .iter()
            .map(|(label, tables, probes)| {
                let mut run = w.run(label, &train);
                run.net.lsh.tables = *tables;
                run.net.lsh.probes = *probes;
                let m = measure(&run, &train, &test, n_epochs, 300);
                vec![
                    run.label,
                    fmt_secs(m.epoch_seconds()),
                    format!("{:.3}", m.p_at_1()),
                ]
            })
            .collect()
    };

    // --- Sweep L (number of tables): recall vs cost ---
    let tables = [4usize, 8, 16, 24, 48].map(|l| (format!("L = {l}"), l, 1));
    print_table(
        "Sweep: number of hash tables L (K=6 DWTA)",
        &["Tables", "s/epoch", "P@1"],
        &rows(&tables),
        &[10, 10, 7],
    );

    // --- Multiprobe: trade probes per table against table count ---
    let multiprobe = [(24usize, 1usize), (12, 2), (6, 4), (24, 2)]
        .map(|(l, probes)| (format!("L = {l}, probes = {probes}"), l, probes));
    print_table(
        "Multiprobe: fewer tables x more probes (extension)",
        &["Configuration", "s/epoch", "P@1"],
        &rows(&multiprobe),
        &[22, 10, 7],
    );
}
