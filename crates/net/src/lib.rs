//! TCP wire protocol and multi-replica fleet serving for the SLIDE
//! reproduction.
//!
//! The paper ("Accelerating SLIDE Deep Learning on Modern CPUs", MLSys
//! 2021) ends at the socket boundary; this crate crosses it. It puts the
//! frozen-serving engines of `slide-serve` (f32 and int8) behind a
//! length-prefixed, checksummed binary protocol over `std::net` TCP and
//! scales them out to a replicated fleet:
//!
//! * [`wire`] — the frame codec: 16-byte header (magic `SLW1`, the one
//!   [`VERSION`], frame type, length, CRC-32 of the payload), ten frame
//!   kinds with one layout each ([`Frame`], including the
//!   `GetMetrics`/`MetricsText` scrape pair and a deadline budget and trace
//!   id on every `Predict`), and a **total** decoder — arbitrary bytes
//!   produce a typed [`WireError`], never a panic (property-tested against
//!   garbage and mutation fuzzing).
//! * [`stream`] — deadline-aware framed I/O: idle polls, slow-loris
//!   cutoffs ([`WireError::Stalled`]), clean-close vs mid-frame-EOF
//!   distinction.
//! * `listener` (private) — the one socket front-end: every port in the
//!   crate is one listener, and both wire tiers serve through one frame
//!   loop on it (connection cap, drain, protocol errors, `Ping`,
//!   `GetMetrics`); each tier supplies only its `Predict` answer.
//! * [`server`] — [`NetServer`], the replica tier: bounded admission via
//!   [`slide_serve::BatchingServer::try_predict`] with explicit
//!   [`Frame::RetryLater`] shedding, graceful drain; every request is
//!   counted once, in the batching server's `slide_obs` registry, and
//!   `GetMetrics` is the only rendering of it.
//! * [`client`] — [`NetClient`], a blocking request/response client.
//! * [`router`] — [`Router`], the fleet tier: least-load replica
//!   selection, per-replica three-state circuit breakers (exponential
//!   backoff + jittered half-open probes), hedged requests, deadline-aware
//!   shedding, and failover on replica faults.
//! * [`fault`] — [`FaultProxy`], a deterministic frame-granular fault
//!   injector (delay/drop/corrupt/stall/close under a seeded
//!   [`FaultPlan`]) for the chaos suites and `net_bench`'s fault phase.
//! * [`daemon`] — [`StdinEof`], the stdin-EOF shutdown every daemon
//!   binary watches, and [`jitter`], the one ±25 % backoff jitter.
//! * [`loadgen`] — open-loop (coordinated-omission-free) load generation
//!   shared by `net_bench` and the chaos tests.
//! * [`model`] — [`FleetSpec`], deterministic train+freeze fixtures so
//!   every replica process serves bit-identical answers.
//! * [`deploy`] — the continuous train→serve loop: [`TrainerLoop`]
//!   (background trainer + [`ShadowGate`] P@k regression gate in front of
//!   the registry) and [`RegistryWatcher`] (poll `CURRENT`, mmap-load,
//!   hot-swap a live `BatchingServer` — `slide_netd --follow`).
//!
//! Three binaries ship with the crate: `slide_netd` (one replica daemon),
//! `slide_router` (the fleet front door) and `slide_trainerd` (the trainer
//! that publishes to a followed registry). See DESIGN.md §8 for the frame
//! layout and the drain/failover state machines, and §10 for deadline
//! budget arithmetic, the breaker state machine, and the hedging policy.

pub mod client;
pub mod daemon;
pub mod deploy;
pub mod fault;
mod listener;
pub mod loadgen;
pub mod model;
pub mod router;
pub mod server;
pub mod stream;
pub mod wire;

pub use client::{ClientError, NetClient};
pub use daemon::{jitter, StdinEof};
pub use deploy::{
    wait_for_current, GateConfig, GateDecision, RegistryWatcher, RoundOutcome, ShadowGate,
    SwapCallback, SwapEvent, TrainerLoop, TrainerLoopConfig,
};
pub use fault::{Direction, FaultAction, FaultPlan, FaultProxy, FaultRule, FaultStats, Trigger};
pub use loadgen::{query_battery, run_open_loop, LoadReport, LoadgenConfig, SubmitOutcome};
pub use model::FleetSpec;
pub use router::{Router, RouterConfig};
pub use server::{NetConfig, NetServer};
pub use stream::{read_frame, read_frame_timeout, write_frame, ReadOutcome};
pub use wire::{
    crc32, decode_frame, decode_payload, encode_frame, frame_bytes, ErrorCode, Frame, FrameHeader,
    PongInfo, PredictRequest, WireError, DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC, VERSION,
};
