//! **§5.7** — impact of the memory optimizations: toggle data coalescing and
//! parameter coalescing independently, then reproduce the paper's accounting
//! ("overall speedup minus the AVX and bf16 contributions is the memory
//! win").
//!
//! ```sh
//! cargo run -p slide-bench --release --bin ablation_memory
//! ```

use slide_bench::{epochs, fmt_secs, measure, print_table, scale, Run, Workload};
use slide_core::MemoryConfig;
use slide_simd::{SimdLevel, SimdPolicy};

fn main() {
    let scale = scale();
    let n_epochs = epochs(8);
    let w = Workload::Amazon670k;
    let (train, test) = w.dataset(scale);
    println!(
        "Reproducing §5.7 (impact of memory optimizations) on {}; \
         SLIDE_SCALE={scale}, epochs={n_epochs}",
        w.name()
    );
    let run = |run: &Run| measure(run, &train, &test, n_epochs, 300);

    let layouts = [
        ("coalesced data + params (optimized)", true, true),
        ("coalesced params only", false, true),
        ("coalesced data only", true, false),
        ("fragmented both (naive layout)", false, false),
    ]
    .map(|(label, coalesced_data, coalesced_params)| {
        let mut layout = w.run(label, &train);
        layout.net.memory = MemoryConfig {
            coalesced_params,
            coalesced_data,
        };
        layout
    });
    let times: Vec<_> = layouts
        .iter()
        .map(|layout| (&layout.label, run(layout)))
        .collect();
    let optimized = &layouts[0];
    let avx_coalesced = times[0].1.epoch_seconds();
    let rows: Vec<Vec<String>> = times
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

    // The paper's §5.7 accounting: total = naive/optimized; AVX and bf16
    // contributions measured separately; memory gets the remainder. The
    // coalesced AVX-512 run is the optimized layout row above.
    let naive_full = run(&optimized.clone().naive()).epoch_seconds();
    let scalar_coalesced = run(&Run {
        simd: SimdPolicy::Force(SimdLevel::Scalar),
        ..optimized.clone()
    })
    .epoch_seconds();
    let bf16 = run(&optimized.clone().cpx()).epoch_seconds();

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
