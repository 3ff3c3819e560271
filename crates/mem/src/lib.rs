//! Memory-coalescing substrate for the SLIDE reproduction.
//!
//! §4.1 of "Accelerating SLIDE Deep Learning on Modern CPUs" attributes the
//! largest share of its 2–7x speedup to removing two kinds of memory
//! fragmentation. This crate implements both the optimized and the naive
//! layouts so the ablations can measure the difference:
//!
//! | Paper concept | Optimized type | Naive type |
//! |---|---|---|
//! | Data memory (batch of sparse instances) | [`SparseBatch`] | [`FragmentedBatch`] |
//! | Parameter memory (layer weights/moments) | [`ParamArena`] | [`FragmentedParams`] |
//!
//! plus the shared-memory primitives both builds rely on:
//!
//! * [`AlignedVec`] — 64-byte-aligned fixed buffers (cache-line/AVX-512
//!   friendly),
//! * [`ParamArena::row_ptr`] / [`ParamStore::row_ptr`] — the one write path
//!   into shared parameters: the trainer hands every row a batch touches to
//!   one worker, which writes it through this pointer while no other thread
//!   reaches it,
//! * [`ParamArenaBf16`] — contiguous bf16 weight storage for §4.4 mode 1,
//! * [`IndexBatch`] — coalesced multi-hot label sets,
//! * [`SharedArena`] / [`ArenaView`] — shared read-only byte images (heap
//!   or mmap) with typed zero-copy views, the substrate of the snapshot
//!   persistence format,
//! * [`crc32`] — the CRC-32 integrity checksum shared by the wire protocol
//!   and the snapshot section table,
//! * [`ByteReader`] — the one bounds-checked little-endian reader that wire
//!   frames, `.slsnap` images and checkpoints are parsed through.
//!
//! # Examples
//!
//! ```
//! use slide_mem::{ParamLayout, ParamStore, SparseBatch};
//!
//! // One contiguous buffer for the whole batch (optimized layout).
//! let mut batch = SparseBatch::new();
//! batch.push(&[0, 3], &[1.0, 2.0]);
//! batch.push(&[1], &[3.0]);
//! assert_eq!(batch.flat_values(), &[1.0, 2.0, 3.0]);
//!
//! // One contiguous arena for a layer's weights.
//! let weights = ParamStore::zeroed(ParamLayout::Coalesced, 16, 8);
//! assert!(weights.flat().is_some());
//! ```

mod aligned;
mod arena;
mod checksum;
mod reader;
mod shared;
mod sparse;
mod sys;

pub use aligned::{AlignedVec, Pod, BUFFER_ALIGN};
pub use arena::{FragmentedParams, ParamArena, ParamArenaBf16, ParamLayout, ParamStore};
pub use checksum::crc32;
pub use reader::{ByteReader, ReadError};
pub use shared::{pod_bytes, ArenaView, SharedArena};
pub use sparse::{BatchStore, FragmentedBatch, IndexBatch, SparseBatch, SparseVecRef};
