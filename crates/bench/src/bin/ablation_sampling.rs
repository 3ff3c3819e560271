//! Sampling-strategy ablation (extension): SLIDE's *adaptive* LSH retrieval
//! vs *uniform* negative sampling at a matched active-set budget. This
//! isolates the algorithmic claim underneath the whole paper — that hash
//! tables find the neurons that matter.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin ablation_sampling
//! ```

use slide_bench::{epochs, fmt_secs, print_table, run_slide, scale, Workload};
use slide_core::{ActiveSets, TrainerConfig};
use slide_simd::SimdPolicy;

fn main() {
    let scale = scale();
    let n_epochs = epochs(6);
    let w = Workload::Amazon670k;
    let (train, test) = w.dataset(scale);
    println!(
        "Adaptive (LSH) vs uniform negative sampling on {}; SLIDE_SCALE={scale}, epochs={n_epochs}",
        w.name()
    );

    // SLIDE: measure its typical active-set budget via min_active and the
    // retrieval-heavy configuration used everywhere else.
    let slide_cfg = w.network_config(train.feature_dim(), train.label_dim());
    let budget = slide_cfg.lsh.min_active;
    let slide = run_slide(
        slide_cfg.clone(),
        w.trainer_config(),
        SimdPolicy::Auto,
        None,
        &train,
        &test,
        n_epochs,
        400,
    );

    // Uniform sampled softmax at a few budgets around SLIDE's: the same
    // network and trainer, every sample's active set its labels plus a
    // uniform draw.
    let mut rows = vec![vec![
        format!("SLIDE (LSH retrieval, min_active={budget})"),
        fmt_secs(slide.epoch_seconds),
        format!("{:.3}", slide.p_at_1),
    ]];
    for negatives in [budget, budget * 4, budget * 16] {
        let uniform = run_slide(
            slide_cfg.clone(),
            TrainerConfig {
                active_sets: ActiveSets::Uniform { negatives },
                ..w.trainer_config()
            },
            SimdPolicy::Auto,
            None,
            &train,
            &test,
            n_epochs,
            400,
        );
        rows.push(vec![
            format!("uniform negatives = {negatives}"),
            fmt_secs(uniform.epoch_seconds),
            format!("{:.3}", uniform.p_at_1),
        ]);
    }
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
