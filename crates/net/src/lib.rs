//! TCP wire protocol and multi-replica fleet serving for the SLIDE
//! reproduction.
//!
//! The paper ("Accelerating SLIDE Deep Learning on Modern CPUs", MLSys
//! 2021) ends at the socket boundary; this crate crosses it. It puts the
//! frozen-serving engines of `slide-serve`/`slide-quant` behind a
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
//! * [`server`] — [`NetServer`], the daemon front-end: thread-per-
//!   connection, bounded admission via
//!   [`slide_serve::BatchingServer::try_predict`] with explicit
//!   [`Frame::RetryLater`] shedding, graceful drain; every request is
//!   counted once, in the batching server's `slide_obs` registry, and
//!   `GetMetrics` is the only rendering of it.
//! * [`client`] — [`NetClient`], a blocking request/response client.
//! * [`router`] — [`Router`], a fleet proxy: consistent-hash or
//!   least-load replica selection, per-replica three-state circuit
//!   breakers (exponential backoff + jittered half-open probes), hedged
//!   requests, deadline-aware shedding, and failover on replica faults.
//! * [`fault`] — [`FaultProxy`], a deterministic frame-granular fault
//!   injector (delay/drop/corrupt/stall/close under a seeded
//!   [`FaultPlan`]) for the chaos suites and `net_bench`'s fault phase.
//! * [`loadgen`] — open-loop (coordinated-omission-free) load generation
//!   shared by `net_bench` and the chaos tests.
//! * [`model`] — [`FleetSpec`], deterministic train+freeze fixtures so
//!   every replica process serves bit-identical answers.
//! * [`deploy`] — the continuous train→serve loop: [`TrainerLoop`]
//!   (background trainer + [`ShadowGate`] P@k regression gate in front of
//!   the registry) and [`RegistryWatcher`] (poll `CURRENT`, mmap-load,
//!   hot-swap a live `BatchingServer` — `slide_netd --follow`).
//!
//! Two binaries ship with the crate: `slide_netd` (one replica daemon) and
//! `slide_router` (the fleet front door). See DESIGN.md §8 for the frame
//! layout and the drain/failover state machines, and §10 for deadline
//! budget arithmetic, the breaker state machine, and the hedging policy.

pub mod client;
pub mod deploy;
pub mod fault;
pub mod loadgen;
pub mod model;
pub mod router;
pub mod server;
pub mod stream;
pub mod wire;

pub use client::{ClientError, NetClient};
pub use deploy::{
    wait_for_current, GateConfig, GateDecision, RegistryWatcher, RoundOutcome, ShadowGate,
    SwapCallback, SwapEvent, TrainerLoop, TrainerLoopConfig,
};
pub use fault::{Direction, FaultAction, FaultPlan, FaultProxy, FaultRule, FaultStats, Trigger};
pub use loadgen::{query_battery, run_open_loop, LoadReport, LoadgenConfig, SubmitOutcome};
pub use model::{FleetPrecision, FleetSpec};
pub use router::{RoutePolicy, Router, RouterConfig};
pub use server::{ClientCounters, NetConfig, NetServer, NetStats};
pub use stream::{read_frame, read_frame_timeout, write_frame, ReadOutcome};
pub use wire::{
    crc32, decode_frame, decode_payload, encode_frame, frame_bytes, ErrorCode, Frame, FrameHeader,
    PongInfo, PredictRequest, WireError, DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC, VERSION,
};
