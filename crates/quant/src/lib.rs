//! The two names `benchmark/` imports from `slide_quant`, re-exported from
//! `slide-serve`, where the int8 engine and the snapshot codec live. ROADMAP
//! item 8 re-points the benchmark at `slide_serve` and deletes this crate.

pub use slide_serve::{load, Snapshot};
