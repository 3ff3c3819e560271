//! # slide — a Rust reproduction of "Accelerating SLIDE Deep Learning on Modern CPUs"
//!
//! This facade crate re-exports the whole system (MLSys 2021,
//! arXiv:2103.10891): the SLIDE engine itself plus every substrate it
//! depends on, each implemented from scratch in this repository:
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`core`] | `slide-core` | the SLIDE engine: LSH-sampled sparse training, HOGWILD batch parallelism, bf16 modes, rebuild schedules |
//! | [`simd`] | `slide-simd` | runtime-dispatched scalar/AVX2/AVX-512 kernels and software bf16 (§4.2–4.4) |
//! | [`mem`] | `slide-mem` | coalesced batch/parameter memory layouts and their naive counterparts (§4.1) |
//! | [`hash`] | `slide-hash` | DWTA + SimHash LSH families and the multi-table bucket index (§2, §4.3.3) |
//! | [`data`] | `slide-data` | synthetic Amazon-670K/WikiLSH/Text8 stand-ins, XC-format parsing, P@k metrics |
//! | [`serve`] | `slide-serve` | frozen-inference snapshots and the caller-runs request path |
//! | [`quant`] | `slide-quant` | post-training int8 quantized serving snapshots over VNNI-class integer kernels |
//! | [`net`] | `slide-net` | TCP wire protocol, `slide_netd` replica daemon, `slide_router` fleet front-end |
//! | [`baseline`] | `slide-baseline` | dense full-softmax baseline and the modeled V100 column |
//!
//! The most common types are re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use slide::{generate_synthetic, EvalMode, Network, NetworkConfig, SynthConfig, Trainer, TrainerConfig};
//!
//! let data = generate_synthetic(&SynthConfig {
//!     feature_dim: 128, label_dim: 64, n_train: 512, n_test: 128,
//!     ..Default::default()
//! });
//! let mut cfg = NetworkConfig::standard(128, 16, 64);
//! cfg.lsh.tables = 8;
//! cfg.lsh.key_bits = 4;
//! let mut trainer = Trainer::new(
//!     Network::new(cfg).unwrap(),
//!     TrainerConfig { batch_size: 64, threads: 2, ..Default::default() },
//! ).unwrap();
//! for epoch in 0..2 {
//!     trainer.train_epoch(&data.train, epoch);
//! }
//! let p1 = trainer.evaluate(&data.test, 1, EvalMode::Exact, None);
//! assert!(p1 >= 0.0);
//! ```

pub mod cli;

pub use slide_baseline as baseline;
pub use slide_core as core;
pub use slide_data as data;
pub use slide_hash as hash;
pub use slide_mem as mem;
pub use slide_net as net;
pub use slide_quant as quant;
pub use slide_serve as serve;
pub use slide_simd as simd;

pub use slide_baseline::{DenseBaseline, DenseConfig, DeviceModel, Method};
pub use slide_core::{
    load_checkpoint, save_checkpoint, ConvergenceLog, EvalMode, HashFamilyKind, LshConfig,
    MemoryConfig, Network, NetworkConfig, Precision, Trainer, TrainerConfig,
};
pub use slide_data::{
    generate_synthetic, generate_text, parse_xc, write_xc, Dataset, DatasetStats, SynthConfig,
    TextConfig, Zipf, ZipfDrift,
};
pub use slide_net::{
    FleetSpec, Frame, GateConfig, GateDecision, NetClient, NetConfig, NetServer, RegistryWatcher,
    RoutePolicy, Router, RouterConfig, ShadowGate, TrainerLoop, TrainerLoopConfig, WireError,
};
pub use slide_quant::{QuantReport, QuantizedFrozenNetwork, Snapshot};
pub use slide_serve::{
    BatchConfig, BatchingServer, Engine, FrozenModel, FrozenNetwork, IntoFrozenModel,
    ModelRegistry, ServeBuildError, ServeError, ServeStats, ShardPlan, SnapshotError,
    SnapshotImage, SnapshotPrecision, SnapshotSpec,
};
pub use slide_simd::{set_policy, Int8Isa, KernelSet, SimdLevel, SimdPolicy};
