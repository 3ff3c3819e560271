//! Every reproduced table, figure and ablation, each a section over one
//! run set, and the per-tier kernel table (see DESIGN.md §3 for the index).
//!
//! ```sh
//! cargo run -p slide-bench --release --bin paper                  # every section
//! cargo run -p slide-bench --release --bin paper -- table2 fig6   # just these
//! cargo run -p slide-bench --release --bin paper -- kernels       # no training
//! cargo run -p slide-bench --release --bin paper -- --barchart    # no fig6_out/ CSVs
//! SLIDE_JSON_OUT=BENCH_train.json cargo run -p slide-bench --release --bin paper -- phases
//! ```
//!
//! A section asks a [`Lab`] per workload for its rows, and the lab trains a
//! configuration only the first time any section asks for it: Table 2,
//! Figure 6, the phase profile and the ladder share their runs, and the
//! ablations reuse the CLX run. The last line counts the distinct runs
//! trained against the rows requested.

use slide_bench::{
    epochs, fmt_ratio_vs, fmt_secs, print_table, scale, with_preset_policy, Lab, Measurement,
    Method, Run, Workload,
};
use slide_core::{ConvergenceLog, MemoryConfig, PhaseBreakdown, Precision};
use slide_data::DatasetStats;
use slide_hash::{DwtaConfig, DwtaHash, SimHash, SimHashConfig};
use slide_simd::{
    adam_step_f32, axpy_f32, bf16, crc32_update, dot_f32, quantize_acts_u8, quantize_row_i8,
    AdamStep, KernelSet, SimdLevel, SimdPolicy,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// A section: prints its table(s) from the run set.
type Section = fn(&mut Paper);

/// The sections in the order a full run prints them.
const SECTIONS: [(&str, Section); 11] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("fig6", fig6),
    ("memory", memory),
    ("lsh", lsh),
    ("sampling", sampling),
    ("phases", phases),
    ("ladder", ladder),
    ("kernels", kernels),
];

/// The run set: one lab per workload, made when a section first needs it.
struct Paper {
    scale: usize,
    epochs: u32,
    /// `--barchart`: Figure 6 writes no curve CSVs.
    barchart: bool,
    labs: Vec<Lab>,
}

impl Paper {
    fn lab(&mut self, w: Workload) -> &mut Lab {
        let i = match self.labs.iter().position(|lab| lab.workload == w) {
            Some(i) => i,
            None => {
                self.labs.push(Lab::new(w, self.scale, self.epochs));
                self.labs.len() - 1
            }
        };
        &mut self.labs[i]
    }
}

fn main() {
    let mut paper = Paper {
        scale: scale(),
        epochs: epochs(),
        barchart: false,
        labs: Vec::new(),
    };
    let mut chosen = Vec::new();
    for arg in std::env::args().skip(1) {
        match SECTIONS.iter().find(|(name, _)| *name == arg) {
            Some(&section) => chosen.push(section),
            None if arg == "--barchart" => paper.barchart = true,
            None => {
                let names: Vec<_> = SECTIONS.iter().map(|(name, _)| *name).collect();
                eprintln!("usage: paper [--barchart] [{}]...", names.join("|"));
                std::process::exit(2);
            }
        }
    }
    if chosen.is_empty() {
        chosen = SECTIONS.to_vec();
    }
    println!(
        "Reproducing the paper; SLIDE_SCALE={}, epochs={}, eval samples={}, base simd={}",
        paper.scale,
        paper.epochs,
        slide_bench::EVAL_SAMPLES,
        slide_simd::effective_level()
    );
    for (_, section) in chosen {
        section(&mut paper);
    }
    let count = |f: fn(&Lab) -> usize| paper.labs.iter().map(f).sum::<usize>();
    println!(
        "\npaper: trained {} distinct runs for {} rows requested",
        count(Lab::trained),
        count(Lab::requested)
    );
}

/// **Table 1**: the paper's statistics for the real datasets next to the
/// synthetic stand-ins at the current `SLIDE_SCALE`.
fn table1(p: &mut Paper) {
    let mut rows = Vec::new();
    for w in Workload::all() {
        let (fd, sp, ld, tr, te, params) = w.paper_stats();
        rows.push(vec![
            format!("{} [paper]", w.name().replace(" (sim)", "")),
            fd.to_string(),
            format!("{sp:.4}%"),
            ld.to_string(),
            tr.to_string(),
            te.to_string(),
            format!("{:.0}M", params as f64 / 1e6),
        ]);
        let lab = p.lab(w);
        let stats = DatasetStats::compute(w.name(), &lab.train, &lab.test, w.hidden());
        rows.push(vec![
            format!("{} [ours]", w.name()),
            stats.feature_dim.to_string(),
            format!("{:.4}%", stats.feature_sparsity_pct),
            stats.label_dim.to_string(),
            stats.train_size.to_string(),
            stats.test_size.to_string(),
            format!("{:.1}M", stats.model_parameters as f64 / 1e6),
        ]);
    }
    print_table(
        "Table 1: Statistics of the datasets",
        &[
            "Dataset",
            "Feature Dim",
            "Sparsity",
            "Label Dim",
            "Train",
            "Test",
            "# Params",
        ],
        &rows,
        &[28, 12, 10, 10, 10, 9, 9],
    );
    println!(
        "\nThe stand-ins preserve shape (sparse features, huge Zipf label \
         spaces, multi-label targets) at ~1/40 scale; raise SLIDE_SCALE to grow them."
    );
}

/// Figure 6 and Table 2's lineup on one workload: each method's curve in
/// [`Method::all`] order. The modeled V100 row has no run: it is the
/// TF-CPU curve with its time axis rescaled to
/// [`Workload::v100_epoch_seconds`].
fn lineup(lab: &mut Lab) -> Vec<(Method, ConvergenceLog)> {
    let mut curves: Vec<_> = Method::all()
        .into_iter()
        .filter_map(|m| {
            let run = m.run(lab.workload, &lab.train)?;
            Some((m, lab.measure(&run).curve))
        })
        .collect();
    // The first measured method is TF-CPU.
    let mut v100 = curves[0].1.clone();
    let ratio = lab.workload.v100_epoch_seconds(&lab.train) / v100.avg_epoch_seconds().max(1e-12);
    for point in &mut v100.points {
        point.elapsed_seconds *= ratio;
        point.epoch_seconds *= ratio;
    }
    curves.insert(0, (Method::TfV100, v100));
    curves
}

/// Table 2's comparisons: CLX, then CPX, against each reference in turn,
/// as (label, method, reference).
fn comparisons() -> impl Iterator<Item = (String, Method, Method)> {
    let references = [
        (Method::TfV100, "TF V100*"),
        (Method::TfCpu, "TF-CPU"),
        (Method::NaiveSlide, "Naive SLIDE"),
    ];
    references.into_iter().flat_map(|(reference, name)| {
        [
            ("CLX", Method::OptimizedSlideClx),
            ("CPX", Method::OptimizedSlideCpx),
        ]
        .map(|(tag, method)| (format!("Opt SLIDE ({tag}) vs {name}"), method, reference))
    })
}

/// The paper's Table 2 factor for each of [`comparisons`] on `w`.
fn paper_factors(w: Workload) -> [f64; 6] {
    match w {
        Workload::Amazon670k => [3.5, 7.8, 4.0, 7.9, 4.4, 7.2],
        Workload::WikiLsh325k => [2.04, 4.19, 2.55, 5.2, 2.0, 3.0],
        Workload::Text8 => [9.2, 15.5, 11.6, 17.36, 3.5, 3.0],
    }
}

/// **Table 2**: average wall-clock training time per epoch for every
/// method on every workload, in the paper's "Nx fast" phrasing next to its
/// reported factors.
fn table2(p: &mut Paper) {
    println!("\nTable 2 (avg wall-clock training time per epoch)");
    println!("V100 rows are modeled (no GPU in this environment) — see DESIGN.md.");
    for w in Workload::all() {
        let lab = p.lab(w);
        println!(
            "\n--- {} ({} train, {} features, {} labels) ---",
            w.name(),
            lab.train.len(),
            lab.train.feature_dim(),
            lab.train.label_dim()
        );
        let curves = lineup(lab);
        for (method, log) in &curves {
            println!(
                "  measured {:<44} {:>9}/epoch  P@1 {:.3}{}",
                method.label(),
                fmt_secs(log.avg_epoch_seconds()),
                log.final_p_at_1(),
                if *method == Method::TfV100 {
                    "  [modeled]"
                } else {
                    ""
                }
            );
        }
        let secs = |m: Method| {
            curves
                .iter()
                .find(|c| c.0 == m)
                .unwrap()
                .1
                .avg_epoch_seconds()
        };
        let rows: Vec<Vec<String>> = comparisons()
            .zip(paper_factors(w))
            .map(|((label, method, reference), paper)| {
                vec![
                    label,
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

/// Column widths of Table 3 and Table 4.
const RELATIVE_WIDTHS: [usize; 5] = [26, 10, 14, 7, 14];

/// One row of Table 3 or 4: label, seconds per epoch, cost relative to
/// the table's baseline, P@1 and the paper's cell.
fn relative_row(label: &str, m: &Measurement, relative: String, paper: &str) -> Vec<String> {
    vec![
        label.to_string(),
        fmt_secs(m.epoch_seconds()),
        relative,
        format!("{:.3}", m.p_at_1()),
        paper.to_string(),
    ]
}

/// **Table 3**: bf16 weights+activations, bf16 activations only and fp32
/// on the optimized run of each workload.
fn table3(p: &mut Paper) {
    println!("\nTable 3 (impact of BF16 on avg epoch time)");
    println!(
        "Note: the paper uses native AVX512-BF16; ours is software bf16 \
         (identical numerics, halved memory traffic, no native FMA), so the \
         speed column is attenuated — see EXPERIMENTS.md."
    );
    // The paper's cells, relative to the "both" column for the XC datasets
    // and to the "none" column for Text8.
    let paper = |w| match w {
        Workload::Amazon670k => ["baseline", "1.16x slower", "1.28x slower"],
        Workload::WikiLsh325k => ["baseline", "1.31x slower", "1.39x slower"],
        Workload::Text8 => ["2.8x slower", "1.15x faster", "baseline"],
    };
    let modes = [
        ("BF16 weights+activations", Precision::Bf16Both),
        ("BF16 activations only", Precision::Bf16Activations),
        ("Without BF16", Precision::Fp32),
    ];
    for w in Workload::all() {
        let lab = p.lab(w);
        let measured: Vec<_> = modes
            .into_iter()
            .map(|(label, precision)| {
                let mut run = lab.run(label);
                run.net.precision = precision;
                (label, lab.measure(&run))
            })
            .collect();
        let fastest = measured
            .iter()
            .map(|(_, m)| m.epoch_seconds())
            .fold(f64::INFINITY, f64::min);
        let rows: Vec<Vec<String>> = measured
            .iter()
            .zip(paper(w))
            .map(|((label, m), paper_cell)| {
                let relative = if m.epoch_seconds() <= fastest * 1.02 {
                    "baseline".into()
                } else {
                    format!("{:.2}x slower", m.epoch_seconds() / fastest)
                };
                relative_row(label, m, relative, paper_cell)
            })
            .collect();
        print_table(
            &format!("Table 3: {}", w.name()),
            &["Mode", "s/epoch", "Relative", "P@1", "Paper"],
            &rows,
            &RELATIVE_WIDTHS,
        );
    }
}

/// **Table 4**: the optimized run with vectorization on and forced off.
fn table4(p: &mut Paper) {
    println!("\nTable 4 (impact of AVX-512)");
    println!(
        "host SIMD capability: {} (policy forced per row)",
        slide_simd::detected_level()
    );
    for w in Workload::all() {
        let lab = p.lab(w);
        let avx = lab.run("With AVX-512");
        let scalar = Run {
            simd: SimdPolicy::Force(SimdLevel::Scalar),
            ..avx.clone()
        };
        let (with, without) = (lab.measure(&avx), lab.measure(&scalar));
        let paper = match w {
            Workload::Amazon670k => "1.22x slower",
            Workload::WikiLsh325k => "1.12x slower",
            Workload::Text8 => "1.14x slower",
        };
        let slowdown = without.epoch_seconds() / with.epoch_seconds();
        let rows = vec![
            relative_row(&avx.label, &with, "baseline".into(), "baseline"),
            relative_row(
                "Without AVX-512 (scalar)",
                &without,
                format!("{slowdown:.2}x slower"),
                paper,
            ),
        ];
        print_table(
            &format!("Table 4: {}", w.name()),
            &["Configuration", "s/epoch", "Relative", "P@1", "Paper"],
            &rows,
            &RELATIVE_WIDTHS,
        );
    }
    println!("\nAccuracy is unchanged by vectorization (same computation), as in the paper.");
}

/// **Figure 6**: the bar-chart summary (avg epoch time and final P@1) of
/// every method on every workload, and unless `--barchart` one CSV per
/// (workload, method) convergence curve under `fig6_out/`.
fn fig6(p: &mut Paper) {
    let out_dir = Path::new("fig6_out");
    if !p.barchart {
        std::fs::create_dir_all(out_dir).expect("create fig6_out/");
    }
    println!("\nFigure 6 (convergence + barchart)");
    for w in Workload::all() {
        println!("\n--- {} ---", w.name());
        let curves = lineup(p.lab(w));
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
        if p.barchart {
            continue;
        }
        // Top row: P@1 against cumulative training seconds.
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
    println!(
        "\nReading the curves: Optimized SLIDE reaches any P@1 level in the least \
         wall-clock time, Naive SLIDE second, dense CPU last — Figure 6's ordering."
    );
}

/// **§5.7**: data and parameter coalescing toggled independently on
/// Amazon, then the paper's accounting ("overall speedup minus the AVX
/// and bf16 contributions is the memory win").
fn memory(p: &mut Paper) {
    let lab = p.lab(Workload::Amazon670k);
    println!(
        "\n§5.7 (impact of memory optimizations) on {}",
        lab.workload.name()
    );
    let layouts = [
        ("coalesced data + params (optimized)", true, true),
        ("coalesced params only", false, true),
        ("coalesced data only", true, false),
        ("fragmented both (naive layout)", false, false),
    ];
    let measured: Vec<_> = layouts
        .into_iter()
        .map(|(label, coalesced_data, coalesced_params)| {
            let mut run = lab.run(label);
            run.net.memory = MemoryConfig {
                coalesced_params,
                coalesced_data,
            };
            (label, lab.measure(&run))
        })
        .collect();
    let avx_coalesced = measured[0].1.epoch_seconds();
    let rows: Vec<Vec<String>> = measured
        .iter()
        .map(|(label, m)| {
            vec![
                label.to_string(),
                fmt_secs(m.epoch_seconds()),
                format!("{:.2}x", m.epoch_seconds() / avx_coalesced),
                format!("{:.3}", m.p_at_1()),
            ]
        })
        .collect();
    print_table(
        "Memory-layout ablation (Amazon-670K sim)",
        &["Layout", "s/epoch", "vs optimized", "P@1"],
        &rows,
        &[38, 10, 13, 7],
    );

    // Total = naive / fully optimized; the AVX and bf16 contributions are
    // measured on the coalesced layout (the optimized row above), and
    // memory gets the remainder.
    let optimized = lab.run("optimized");
    let mut secs = |run: Run| lab.measure(&run).epoch_seconds();
    let naive_full = secs(optimized.clone().naive());
    let scalar_coalesced = secs(Run {
        simd: SimdPolicy::Force(SimdLevel::Scalar),
        ..optimized.clone()
    });
    let bf16 = secs(optimized.cpx());

    let total = naive_full / bf16;
    let avx_gain = scalar_coalesced / avx_coalesced;
    let bf16_gain = avx_coalesced / bf16;
    let memory_gain = total / (avx_gain * bf16_gain);
    println!("\n§5.7 accounting (all measured):");
    println!("  total speedup, naive -> fully optimized : {total:.2}x");
    println!("  AVX-512 contribution                    : {avx_gain:.2}x");
    println!("  BF16 contribution                       : {bf16_gain:.2}x");
    println!("  memory-optimization remainder           : {memory_gain:.2}x");
    println!("\nPaper: overall 2–7x; AVX+bf16 combined ≈1.7x; memory provides the rest.");
    println!(
        "Scale caveat: the paper's models (100–340MB) dwarf its 36–39MB L3 caches, \
         so fragmentation costs DRAM round-trips. At SLIDE_SCALE=1 our model fits \
         in cache and the layout axis is nearly neutral; raise SLIDE_SCALE until \
         the parameter+optimizer state exceeds this host's L3 to recover the \
         paper's regime (SLIDE_SCALE>=4 on a ~100MB-L3 machine)."
    );
}

/// LSH design choices beyond the paper's tables, on Amazon: the table
/// count `L`, and multiprobe (fewer tables × more probes).
fn lsh(p: &mut Paper) {
    let lab = p.lab(Workload::Amazon670k);
    println!("\nLSH design ablations on {}", lab.workload.name());
    // One row per (label, tables, probes): seconds per epoch and P@1.
    let mut rows = |sweep: &[(String, usize, usize)]| -> Vec<Vec<String>> {
        sweep
            .iter()
            .map(|(label, tables, probes)| {
                let mut run = lab.run(label);
                run.net.lsh.tables = *tables;
                run.net.lsh.probes = *probes;
                let m = lab.measure(&run);
                vec![
                    run.label,
                    fmt_secs(m.epoch_seconds()),
                    format!("{:.3}", m.p_at_1()),
                ]
            })
            .collect()
    };
    let tables = [4usize, 8, 16, 24, 48].map(|l| (format!("L = {l}"), l, 1));
    print_table(
        "Sweep: number of hash tables L (K=6 DWTA)",
        &["Tables", "s/epoch", "P@1"],
        &rows(&tables),
        &[10, 10, 7],
    );
    let multiprobe = [(24usize, 1usize), (12, 2), (6, 4), (24, 2)]
        .map(|(l, probes)| (format!("L = {l}, probes = {probes}"), l, probes));
    print_table(
        "Multiprobe: fewer tables x more probes (extension)",
        &["Configuration", "s/epoch", "P@1"],
        &rows(&multiprobe),
        &[22, 10, 7],
    );
}

/// Adaptive LSH retrieval against uniform negative sampling at matched
/// active-set budgets on Amazon: the algorithmic claim underneath the
/// whole paper, that hash tables find the neurons that matter.
fn sampling(p: &mut Paper) {
    let lab = p.lab(Workload::Amazon670k);
    println!(
        "\nAdaptive (LSH) vs uniform negative sampling on {}",
        lab.workload.name()
    );
    // The same network and trainer, every sample's active set its labels
    // plus a uniform draw of a few budgets around SLIDE's min_active floor.
    let slide = lab.run("SLIDE");
    let budget = slide.net.lsh.min_active;
    let mut runs = vec![Run {
        label: format!("SLIDE (LSH retrieval, min_active={budget})"),
        ..slide
    }];
    runs.extend([budget, budget * 4, budget * 16].map(|negatives| {
        lab.run(format!("uniform negatives = {negatives}"))
            .uniform(negatives)
    }));
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let m = lab.measure(run);
            vec![
                run.label.clone(),
                fmt_secs(m.epoch_seconds()),
                format!("{:.3}", m.p_at_1()),
            ]
        })
        .collect();
    print_table(
        "Sampling strategy at matched budgets (Amazon-670K sim)",
        &["Strategy", "s/epoch", "P@1"],
        &rows,
        &[42, 10, 7],
    );
    println!(
        "\nReading this honestly: at the default scale (8K labels) uniform sampled \
         softmax is competitive or better — every label is seen often enough that \
         random negatives suffice, and SLIDE's retrieved sets are larger than its \
         min_active floor (L tables x bucket_cap candidates), so it pays more per \
         sample. The adaptive-sampling advantage the SLIDE papers demonstrate is a \
         large-label-space phenomenon (hundreds of thousands of classes, where a \
         uniform negative is almost never informative); raise SLIDE_SCALE to watch \
         the gap move."
    );
}

/// Per-phase epoch time of the CLX, CPX and naive runs: where an epoch
/// goes and which phase each optimization accelerates (the measurement
/// behind §5.5–§5.7). With `SLIDE_JSON_OUT=<path>` the same numbers are
/// written as a `BENCH_train.json` report whose rows record their resolved
/// SIMD level.
fn phases(p: &mut Paper) {
    println!("\nPer-phase epoch breakdown");
    let mut workload_docs = Vec::new();
    for w in Workload::all() {
        let lab = p.lab(w);
        let runs = [
            lab.run("optimized (CLX)"),
            lab.run("optimized+bf16 (CPX)").cpx(),
            lab.run("naive").naive(),
        ];
        let measured: Vec<_> = runs
            .iter()
            .map(|run| (&run.label, lab.measure(run)))
            .collect();
        let rows: Vec<Vec<String>> = measured
            .iter()
            .map(|(label, m)| {
                let total = m.epoch_seconds();
                let cell =
                    |x: f64| format!("{:.1}ms ({:.0}%)", x * 1e3, 100.0 * x / total.max(1e-12));
                let mut row = vec![label.to_string(), format!("{:.0}ms", total * 1e3)];
                row.extend(m.phases().named().iter().map(|&(_, seconds)| cell(seconds)));
                row
            })
            .collect();
        let mut headers = vec!["Variant", "epoch"];
        headers.extend(PhaseBreakdown::default().named().map(|(name, _)| name));
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
                let phases: Vec<_> = (m.phases().named().iter())
                    .map(|(name, seconds)| format!("\"{name}\":{seconds:.6}"))
                    .collect();
                format!(
                    "{{\"variant\":\"{label}\",\"simd_level\":\"{}\",\
                     \"epoch_seconds\":{:.6},\"phases\":{{{}}}}}",
                    m.simd,
                    m.epoch_seconds(),
                    phases.join(",")
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
        // The meta block's simd_level is the process default (SLIDE_SIMD's
        // leg, or auto); the naive rows force scalar and say so per row.
        let json = format!(
            "{{\"bench\":\"train\",\"source\":\"paper phases\",\"scale\":{},\"epochs\":{},\
             \"simd_level\":\"{}\",\"workloads\":[{}]}}\n",
            p.scale,
            p.epochs,
            slide_simd::effective_level(),
            workload_docs.join(",")
        );
        std::fs::write(&path, &json).expect("write BENCH_train.json");
        println!("wrote {path}");
    }
}

/// The optimization ladder: naive SLIDE, then the paper's optimizations
/// added one at a time (vectorized kernels, coalesced memory, bf16), each
/// rung's epoch time a speedup over naive on every workload.
fn ladder(p: &mut Paper) {
    type Rewrite = fn(Run) -> Run;
    let rungs: [(&str, Rewrite); 4] = [
        ("naive", Run::naive),
        ("+avx", |run| Run {
            simd: SimdPolicy::Auto,
            ..run.naive()
        }),
        ("+coalesced", |run| run),
        ("+bf16", Run::cpx),
    ];
    let mut secs = Vec::new();
    for w in Workload::all() {
        let lab = p.lab(w);
        secs.push(
            rungs.map(|(label, rewrite)| lab.measure(&rewrite(lab.run(label))).epoch_seconds()),
        );
    }
    let rows: Vec<Vec<String>> = rungs
        .iter()
        .enumerate()
        .map(|(i, (label, _))| {
            let mut row = vec![label.to_string()];
            row.extend(
                secs.iter()
                    .map(|s| format!("{} ({:.2}x)", fmt_secs(s[i]), s[0] / s[i])),
            );
            row
        })
        .collect();
    let mut headers = vec!["Rung"];
    headers.extend(Workload::all().map(Workload::name));
    print_table(
        "Optimization ladder: s/epoch (speedup over naive)",
        &headers,
        &rows,
        &[12, 22, 22, 22],
    );
    println!(
        "\nEach rung adds one optimization to the rung above; +coalesced is \
         Optimized SLIDE (CLX) and +bf16 is CPX. bf16 is emulated in software \
         here, so +bf16 need not beat +coalesced (EXPERIMENTS.md)."
    );
}

/// Time per call of `f` in ns: the call count doubles until one window of
/// calls takes 10 ms (the doubling is the warm-up), then the median of five
/// such windows.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut window = |calls: u32| {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        start.elapsed()
    };
    let mut calls = 1;
    while window(calls) < Duration::from_millis(10) {
        calls *= 2;
    }
    let mut ns: Vec<f64> = (0..5)
        .map(|_| window(calls).as_nanos() as f64 / f64::from(calls))
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[2]
}

/// Format a time in ns with a readable unit.
fn fmt_ns(ns: f64) -> String {
    match ns {
        _ if ns >= 1e6 => format!("{:.2}ms", ns / 1e6),
        _ if ns >= 1e3 => format!("{:.2}us", ns / 1e3),
        _ => format!("{ns:.1}ns"),
    }
}

/// `n` deterministic values in [-1, 1], standing in for weights.
fn wave(n: usize, seed: usize) -> Vec<f32> {
    (0..n).map(|i| ((i + seed) as f32 * 0.37).sin()).collect()
}

/// The rows of the per-tier table, in the order [`kernels`] times them.
const PER_TIER: [&str; 11] = [
    "dot_f32, 128",
    "axpy_f32, 128",
    "adam_step_f32, 64Ki",
    "bf16 narrow, 64Ki",
    "bf16 widen, 64Ki",
    "adam_step_bf16, 64Ki",
    "DWTA keys_dense, 128d K=6 L=24",
    "SimHash keys_dense, 200d K=9 L=25",
    "crc32, 584 B",
    "crc32, 64 KiB",
    "crc32, 65 MiB",
];

/// **§4.2–§4.4 at the kernel level**: every vectorized kernel at each SIMD
/// tier the host has (Table 4 one kernel at a time), then the gathered
/// active-set kernels at the best tier against the per-row loops they
/// replaced. No run is trained; the SIMD policy in force on entry is
/// restored after each tier.
fn kernels(_: &mut Paper) {
    let start = Instant::now();
    let best = slide_simd::detected_level();
    let tiers: Vec<SimdLevel> = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|&tier| tier <= best)
        .collect();
    const FLAT: usize = 1 << 16; // one flat ADAM / bf16 sweep
    let (a, b, mut y, g) = (wave(128, 1), wave(128, 2), wave(128, 3), wave(FLAT, 4));
    let (mut w, mut m, mut v) = (wave(FLAT, 5), vec![0.01; FLAT], vec![0.02; FLAT]);
    let (mut wq, mut mq, mut vq) = (vec![0x3C23_u16; FLAT], vec![0.01; FLAT], vec![0.02; FLAT]);
    let (mut narrow, ones, mut wide) = (vec![0_u16; FLAT], vec![0x3F80_u16; FLAT], vec![0.0; FLAT]);
    let step = AdamStep::bias_corrected(1e-3, 0.9, 0.999, 1e-8, 10);
    let act: Vec<f32> = wave(200, 6).iter().map(|x| x.max(0.0)).collect();
    let dwta = DwtaHash::new(DwtaConfig {
        tables: 24,
        ..DwtaConfig::default()
    });
    let simhash = SimHash::new(SimHashConfig {
        dim: 200,
        tables: 25,
        ..SimHashConfig::default()
    });
    let (mut dwta_scratch, mut simhash_scratch) = (dwta.make_scratch(), simhash.make_scratch());
    let mut keys = vec![0; 25];
    let image: Vec<u8> = (0..65_usize << 20)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
        .collect();
    let crc = |len: usize| ns_per_call(|| _ = black_box(crc32_update(0, black_box(&image[..len]))));
    let ns: Vec<[f64; 11]> = (tiers.iter())
        .map(|&tier| {
            with_preset_policy(SimdPolicy::Force(tier), || {
                [
                    ns_per_call(|| _ = black_box(dot_f32(black_box(&a), &b))),
                    ns_per_call(|| axpy_f32(1.001, black_box(&a), &mut y)),
                    ns_per_call(|| adam_step_f32(&mut w, &mut m, &mut v, black_box(&g), step)),
                    ns_per_call(|| bf16::f32_to_bf16_slice(black_box(&g), &mut narrow)),
                    ns_per_call(|| bf16::bf16_to_f32_slice(black_box(&ones), &mut wide)),
                    ns_per_call(|| bf16::adam_step_bf16(&mut wq, &mut mq, &mut vq, &g, step)),
                    ns_per_call(|| {
                        dwta.keys_dense(&act[..128], &mut dwta_scratch, &mut keys[..24])
                    }),
                    ns_per_call(|| simhash.keys_dense(&act, &mut simhash_scratch, &mut keys)),
                    crc(584),
                    crc(64 << 10),
                    crc(65 << 20),
                ]
            })
        })
        .collect();
    let rows: Vec<Vec<String>> = (PER_TIER.iter().enumerate())
        .map(|(k, label)| {
            let mut row = vec![label.to_string(), fmt_ns(ns[0][k])];
            row.extend(
                ns[1..]
                    .iter()
                    .map(|t| format!("{} ({:.1}x)", fmt_ns(t[k]), ns[0][k] / t[k])),
            );
            row
        })
        .collect();
    let names: Vec<String> = tiers.iter().map(SimdLevel::to_string).collect();
    let mut header = vec!["Kernel"];
    header.extend(names.iter().map(String::as_str));
    print_table(
        "Kernels per SIMD tier: time per call (speedup over scalar)",
        &header,
        &rows,
        &[34, 12, 18, 18],
    );
    println!(
        "\nbf16 kernels have an AVX-512 path only; crc32 is the byte-at-a-time table \
         at scalar and the carry-less-multiply fold above it where the host has pclmulqdq."
    );

    let ks = KernelSet::for_level(best);
    let rows: Vec<Vec<String>> = [128, 1024]
        .into_iter()
        .flat_map(|cols| [64, 512, 4096].map(|rows| gather_row(&ks, rows, cols)))
        .collect();
    print_table(
        &format!("Gathered kernels at {best}: ns per row (1row = the per-row dot or axpy loop)"),
        &"shape,score 1row,f32,bf16,i8,bwd 1row,fused,gemv 1row,blocked"
            .split(',')
            .collect::<Vec<_>>(),
        &rows,
        &[12, 12, 8, 8, 8, 10, 8, 11, 8],
    );
    println!("\nkernels: {:.1}s", start.elapsed().as_secs_f64());
}

/// One row of the gather table: ns per row of each scoring, backward and
/// gemv variant over `rows` rows of `cols` floats. Scoring and backward
/// gather `rows` distinct rows, scattered over an arena four times larger
/// (an odd multiplier permutes the power-of-two arena), so gathers miss
/// cache as an LSH active set does in training.
fn gather_row(ks: &KernelSet, rows: usize, cols: usize) -> Vec<String> {
    let order: Vec<usize> = (0..rows).map(|i| i * 0x9E37_79B1 % (rows * 4)).collect();
    let (w, x) = (wave(rows * 4 * cols, 7), wave(cols, 8));
    let mut out = vec![0.0_f32; rows];
    let mut cells = vec![format!("{rows}x{cols}")];
    let mut time = |ns: f64| cells.push(format!("{:.1}", ns / rows as f64));

    // Scoring: the pre-fusion loop, then the multi-row f32, bf16 and i8 kernels.
    time(ns_per_call(|| {
        for (o, &r) in out.iter_mut().zip(&order) {
            *o = ks.dot(&w[r * cols..][..cols], &x);
        }
        black_box(&mut out);
    }));
    let f_rows: Vec<*const f32> = order.iter().map(|&r| w[r * cols..].as_ptr()).collect();
    // SAFETY: every pointer addresses `cols` floats of `w`, alive and unchanged.
    time(ns_per_call(|| unsafe {
        ks.score_rows_f32(&f_rows, black_box(&x), &mut out)
    }));
    let mut wb = vec![0_u16; w.len()];
    bf16::f32_to_bf16_slice(&w, &mut wb);
    let b_rows: Vec<*const u16> = order.iter().map(|&r| wb[r * cols..].as_ptr()).collect();
    // SAFETY: every pointer addresses `cols` values of `wb`, alive and unchanged.
    time(ns_per_call(|| unsafe {
        ks.score_rows_bf16(&b_rows, black_box(&x), &mut out)
    }));
    let mut wi = vec![0_i8; w.len()];
    let scales: Vec<f32> = w
        .chunks(cols)
        .zip(wi.chunks_mut(cols))
        .map(|(src, dst)| quantize_row_i8(src, dst))
        .collect();
    let scales: Vec<f32> = order.iter().map(|&r| scales[r]).collect();
    let mut xq = vec![0_u8; cols];
    let x_scale = quantize_acts_u8(&x.iter().map(|v| v.abs()).collect::<Vec<_>>(), &mut xq);
    let i_rows: Vec<*const i8> = order.iter().map(|&r| wi[r * cols..].as_ptr()).collect();
    // SAFETY: every pointer addresses `cols` codes of `wi`, alive and unchanged.
    time(ns_per_call(|| unsafe {
        ks.score_rows_i8(&i_rows, &scales, black_box(&xq), x_scale, &mut out)
    }));

    // Backward: two axpy calls per row, then the fused kernel.
    let (h, deltas) = (wave(cols, 9), wave(rows, 10));
    let (mut g, mut dx) = (vec![0.0_f32; w.len()], vec![0.0_f32; cols]);
    time(ns_per_call(|| {
        for (&r, &d) in order.iter().zip(&deltas) {
            ks.axpy(d, &w[r * cols..][..cols], &mut dx);
            ks.axpy(d * 0.125, &h, &mut g[r * cols..][..cols]);
        }
        black_box(&mut dx);
    }));
    let base = g.as_mut_ptr();
    let g_rows: Vec<*mut f32> = order.iter().map(|&r| base.wrapping_add(r * cols)).collect();
    // SAFETY: the pointers address `cols` floats of `w` and of `g`; `order`
    // repeats no row, so no two gradient rows alias, and `dx` aliases neither.
    time(ns_per_call(|| unsafe {
        ks.backward_rows_f32(&f_rows, &g_rows, &deltas, 0.125, black_box(&h), &mut dx)
    }));

    // Full gemv over a contiguous arena: one dot per row, then blocked.
    let (arena, bias) = (wave(rows * cols, 11), vec![0.01_f32; rows]);
    time(ns_per_call(|| {
        for (r, o) in out.iter_mut().enumerate() {
            *o = ks.dot(&arena[r * cols..][..cols], &x) + bias[r];
        }
        black_box(&mut out);
    }));
    time(ns_per_call(|| {
        ks.gemv(black_box(&arena), cols, &x, &bias, &mut out)
    }));
    cells
}
