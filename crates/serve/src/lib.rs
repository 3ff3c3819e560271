//! Frozen-inference serving for the SLIDE reproduction.
//!
//! The paper ("Accelerating SLIDE Deep Learning on Modern CPUs", MLSys 2021)
//! accelerates *training*; this crate gives the trained network a production
//! inference path that reuses the same substrates — the AVX-512/AVX2 kernels
//! of `slide-simd`, the aligned-arena discipline of `slide-mem`, the LSH
//! active-set machinery of `slide-hash`, and SLIDE's one-thread-per-sample
//! execution model — but strips away everything mutation-related:
//!
//! * [`Engine`] — the one frozen engine: a read-only view of a trained
//!   [`slide_core::Network`]'s `.slsnap` image (its sparse input layer,
//!   which yields the one hidden activation, and its output layer) with
//!   contiguous 64-byte-aligned weight arenas, pre-built hash tables, and a lock-free `&self`
//!   [`Engine::predict_sparse`] that is safe to share across threads via
//!   `Arc` (no writable parameter view, no optimizer state, no table locks). Its tables
//!   are filled and its active sets picked by [`slide_core::Retrieval`], the
//!   code the trainer's output layer runs, with no forced labels. It is
//!   generic over the row storage format ([`RowLayout`]: f32
//!   [`FrozenLayer`] → [`FrozenNetwork`], int8 [`QuantizedLayer`] →
//!   [`QuantizedFrozenNetwork`]) and over the shard count `N ≥ 1` of the
//!   output layer ([`ShardPlan`]); every combination answers bit-equally to
//!   the one-shard engine of the same layout.
//! * [`BatchingServer`] — the caller-runs request path in front of a frozen
//!   snapshot: a query is scored on the thread that brought it, on one of
//!   `threads` scratch slots; with every slot busy it queues (bounded,
//!   deadline-aware), and a caller answers those queued behind it for at
//!   most `max_batch` requests / `max_wait` before passing its slot on
//!   ([`BatchConfig`]). No dispatcher thread, no worker pool, no fixed
//!   wait. Request, session-size, latency and per-stage instruments live in
//!   [`BatchingServer::obs`] ([`ServeStats`] summarizes them). The model
//!   sits behind an `RwLock`, so a background trainer can
//!   [`BatchingServer::publish`] a fresh snapshot of any layout or shard
//!   plan mid-traffic without dropping a request.
//! * [`Snapshot`] — the checksummed, mmap-ready `.slsnap` image of any
//!   layout × shard-plan combination ([`snapshot`] module), and
//!   [`ModelRegistry`] for versioned publish/rollback.
//!
//! # Quickstart
//!
//! ```
//! use slide_core::{Network, NetworkConfig};
//! use slide_serve::{BatchConfig, BatchingServer, FrozenNetwork};
//!
//! let net = Network::new(NetworkConfig::standard(256, 16, 64)).unwrap();
//! let server = BatchingServer::start(
//!     FrozenNetwork::freeze(&net),
//!     BatchConfig { threads: 2, ..Default::default() },
//! ).unwrap();
//!
//! // Any number of threads may call predict concurrently.
//! let topk = server.predict(&[1, 17], &[1.0, 0.5], 5).unwrap();
//! assert_eq!(topk.len(), 5);
//!
//! // A background trainer publishes a new snapshot mid-traffic.
//! let retrained = Network::new(NetworkConfig::standard(256, 16, 64)).unwrap();
//! server.publish(FrozenNetwork::freeze(&retrained));
//! assert_eq!(server.stats().hot_swaps, 1);
//! ```

mod error;
mod frozen;
mod layer;
mod model;
pub mod registry;
mod server;
pub mod shard;
pub mod snapshot;

pub use error::{ServeBuildError, ServeError};
pub use frozen::{Engine, FrozenNetwork, QuantizedFrozenNetwork, ServeScratch};
pub use layer::{Act, FrozenLayer, LayerQuantStats, QuantReport, QuantizedLayer, RowLayout};
pub use model::{p_at_k, FrozenModel, IntoFrozenModel};
pub use registry::ModelRegistry;
pub use server::{query_salt, stage_histogram, BatchConfig, BatchingServer, ServeStats};
pub use shard::ShardPlan;
pub use snapshot::{load, Snapshot, SnapshotError, SnapshotImage, SnapshotPrecision, SnapshotSpec};
