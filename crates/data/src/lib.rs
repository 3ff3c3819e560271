//! Workload substrate for the SLIDE reproduction.
//!
//! The paper evaluates on Amazon-670K, WikiLSHTC-325K, and Text8 (§5.1,
//! Table 1). Those corpora aren't redistributable here, so this crate
//! provides (a) *learnable synthetic stand-ins* with the same structural
//! properties — see DESIGN.md's substitution table — and (b) a parser for
//! the real datasets' file format so they can drop in when available.
//!
//! * [`Dataset`] — coalesced sparse features + multi-hot labels,
//! * [`generate_synthetic`] / [`SynthConfig`] — planted-prototype extreme
//!   classification (Amazon-670K / WikiLSH-325K stand-ins),
//! * [`generate_text`] / [`TextConfig`] — Zipf corpus + skip-gram window
//!   extraction (Text8 stand-in),
//! * [`parse_xc`] / [`write_xc`] — the XMLRepository file dialect,
//! * [`EpochBatches`] — seeded shuffled mini-batch plans,
//! * [`precision_at_k`] / [`MeanMetric`] / [`top_k_indices`] — the paper's
//!   P@1 evaluation,
//! * [`DatasetStats`] — Table 1 rows,
//! * [`Zipf`] / [`ZipfDrift`] — the shared power-law sampler and its
//!   head-rotating variant for drifting workloads.
//!
//! # Examples
//!
//! ```
//! use slide_data::{generate_synthetic, EpochBatches, SynthConfig};
//!
//! let cfg = SynthConfig { n_train: 64, n_test: 16, feature_dim: 128, label_dim: 32, ..Default::default() };
//! let data = generate_synthetic(&cfg);
//! let plan = EpochBatches::new(data.train.len(), 16, 0, 1);
//! assert_eq!(plan.num_batches(), 4);
//! ```

mod batch;
mod dataset;
mod metrics;
mod split;
mod stats;
mod svm;
mod synth;
mod text;
mod transform;
mod zipf;

pub use batch::{materialize_batch, EpochBatches};
pub use dataset::Dataset;
pub use metrics::{precision_at_k, top_k_indices, MeanMetric};
pub use split::train_holdout_split;
pub use stats::{model_parameters, DatasetStats};
pub use svm::{parse_xc, write_xc, ParseDatasetError};
pub use synth::{generate_synthetic, SynthConfig, SynthDataset};
pub use text::{collocate, generate_text, TextConfig, TextDataset};
pub use transform::{l2_normalize, tf_idf};
pub use zipf::{Zipf, ZipfDrift};
