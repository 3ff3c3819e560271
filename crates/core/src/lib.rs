//! The SLIDE engine — the primary contribution of "Accelerating SLIDE Deep
//! Learning on Modern CPUs: Vectorization, Quantizations, Memory
//! Optimizations, and More" (MLSys 2021), reimplemented in Rust.
//!
//! SLIDE trains networks with enormous softmax output layers by replacing
//! the dense output computation with LSH-sampled *active sets*: each input
//! retrieves a few hundred likely-high-activation neurons from hash tables,
//! computes softmax/cross-entropy over just those, and backpropagates
//! through just those — roughly `p²` of the weights are touched per update.
//! Batches are processed by workers sharing the parameters without locks.
//!
//! The [`Network`] is the paper's, for every workload: a sparse input layer
//! whose output is the one hidden activation ([`NetworkConfig::hidden`]
//! wide), and the LSH-sampled softmax output layer over it. The trainer
//! walks both layers by row, each row the batch touches owned by one worker
//! that sums its gradient and takes its ADAM step; nothing else writes
//! parameters. The paper's baselines train on the same path: an
//! [`ActiveSets`] policy picks every row (full softmax) or a uniform draw
//! (sampled softmax) instead of the LSH retrieval. This crate layers the
//! paper's CPU optimizations on top:
//!
//! * **Vectorization (§4.2–4.3)** — all dense kernels run on AVX-512 when
//!   available (via [`slide_simd`]), with the Algorithm 1/2 row/column-major
//!   duality keeping every pass on contiguous memory.
//! * **Memory coalescing (§4.1)** — batch data and layer parameters live in
//!   contiguous arenas ([`slide_mem`]); the naive fragmented layouts remain
//!   available behind [`MemoryConfig`] for the §5.7 ablation.
//! * **BF16 quantization (§4.4)** — [`Precision`] selects fp32, bf16
//!   activations, or bf16 weights + activations (Table 3's three modes).
//!
//! The output layer's LSH retrieval — its hash family and seed chain, the
//! table fill from rows, and the hash → probe → dedup → cap → pad active-set
//! [`Retrieval::select`] — is one type, [`Retrieval`]. The trainer's
//! [`SampledOutputLayer`] and `slide-serve`'s frozen engine both call it.
//!
//! # Quickstart
//!
//! ```
//! use slide_core::{EvalMode, Network, NetworkConfig, Trainer, TrainerConfig};
//! use slide_data::{generate_synthetic, SynthConfig};
//!
//! // A small learnable extreme-classification task.
//! let data = generate_synthetic(&SynthConfig {
//!     feature_dim: 128, label_dim: 32, n_train: 256, n_test: 64,
//!     ..Default::default()
//! });
//!
//! let mut cfg = NetworkConfig::standard(128, 16, 32);
//! cfg.lsh.tables = 8;
//! cfg.lsh.key_bits = 4;
//! let network = Network::new(cfg).unwrap();
//!
//! let mut trainer = Trainer::new(network, TrainerConfig {
//!     batch_size: 64,
//!     threads: 2,
//!     learning_rate: 1e-3,
//!     ..Default::default()
//! }).unwrap();
//!
//! let stats = trainer.train_epoch(&data.train, 0);
//! assert!(stats.mean_loss.is_finite());
//! let p1 = trainer.evaluate(&data.test, 1, EvalMode::Exact, None);
//! assert!(p1 >= 0.0);
//! ```

mod activation;
mod batch_pass;
mod checkpoint;
mod config;
mod layer;
mod network;
mod params;
mod pool;
mod retrieval;
mod scratch;
mod trainer;

pub use activation::{relu, relu_backward_mask, softmax_into};
pub use checkpoint::{load_checkpoint, save_checkpoint, CheckpointError};
pub use config::{
    ActiveSets, HashFamilyKind, LshConfig, MemoryConfig, NetworkConfig, Precision, RebuildSchedule,
    TrainerConfig, ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
};
pub use layer::{SampledOutputLayer, SparseInputLayer};
pub use network::Network;
pub use params::{LayerParams, WeightStorage};
pub use pool::ThreadPool;
pub use retrieval::{Retrieval, SelectBuffers};
pub use scratch::{StampSet, WorkerScratch};
/// The SplitMix64 mixers behind every hash family, for the crates above
/// that draw deterministic numbers from the same function.
pub use slide_hash::mix;
pub use trainer::{
    ConvergenceLog, ConvergencePoint, EpochStats, EvalMode, PhaseBreakdown, Trainer,
};
