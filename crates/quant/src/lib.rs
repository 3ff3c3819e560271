//! Int8 post-training quantized inference for the SLIDE reproduction
//! (slide-quant).
//!
//! "Quantizations" is in the source paper's title; training stops at bf16,
//! and the f32 serving snapshots widen even that back to full precision.
//! The int8 step for the *serving* side — where weights are frozen and the
//! workload is memory-bound — is one row layout of the one serving engine:
//! [`QuantizedLayer`] (per-row symmetric i8 codes, per-row f32 scales,
//! 7-bit activation codes per query, `vpmaddubsw` / `vpdpbusd` kernels)
//! plugged into `slide_serve::Engine`, which is what
//! [`QuantizedFrozenNetwork`] names. The layout lives beside its f32
//! sibling in `slide-serve` (the engine's inherent constructors need it
//! there); this crate keeps the quantization *harness*:
//!
//! * [`QuantReport`] — per-layer max/mean row reconstruction error recorded
//!   at freeze time;
//! * [`p_at_1`] — P@1 of any engine's sampled path over a labelled dataset,
//!   the protocol the f32-vs-i8 parity criterion is measured under;
//! * the snapshot entry points every deployment tool calls:
//!   [`Snapshot::build`] and [`load`].
//!
//! LSH retrieval is *identical* to the f32 engine — the tables are built
//! from the original f32 rows — so accuracy differences are attributable to
//! scoring precision alone.
//!
//! # Quickstart
//!
//! ```
//! use slide_core::{Network, NetworkConfig};
//! use slide_quant::QuantizedFrozenNetwork;
//!
//! let net = Network::new(NetworkConfig::standard(256, 16, 64)).unwrap();
//! let quant = QuantizedFrozenNetwork::freeze(&net);
//! assert!(quant.arena_bytes() > 0);
//! let mut scratch = quant.make_scratch();
//! let idx = [1u32, 17];
//! let val = [1.0f32, 0.5];
//! let topk = quant.predict_sparse(slide_mem::SparseVecRef::new(&idx, &val), 5, &mut scratch, 0);
//! assert_eq!(topk.len(), 5);
//! // The error harness was filled in at freeze time (one entry per
//! // quantized layer; `standard` has just the output layer):
//! assert!(quant.report().within_theoretical_bounds());
//! ```

use slide_data::Dataset;
use slide_serve::{Engine, RowLayout};

pub use slide_serve::snapshot::{self, load, Snapshot};
pub use slide_serve::{LayerQuantStats, QuantReport, QuantizedFrozenNetwork, QuantizedLayer};

/// P@1 of `engine`'s sampled path over a labelled dataset, `salt = i` per
/// sample so two engines of one network pad identically on cold tables.
/// Every parity comparison (f32 vs i8, sharded vs not) runs through this one
/// loop so it can never silently measure two different protocols (skip
/// rule, salt scheme, hit test).
pub fn p_at_1<L: RowLayout>(engine: &Engine<L>, data: &Dataset) -> f64 {
    let mut scratch = engine.make_scratch();
    let mut hits = 0usize;
    let mut total = 0usize;
    for i in 0..data.len() {
        let labels = data.labels(i);
        if labels.is_empty() {
            continue;
        }
        let topk = engine.predict_sparse(data.features(i), 1, &mut scratch, i as u64);
        total += 1;
        if topk.first().is_some_and(|p| labels.contains(p)) {
            hits += 1;
        }
    }
    if total == 0 {
        return 0.0;
    }
    hits as f64 / total as f64
}
