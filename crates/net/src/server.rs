//! The TCP front-end a `slide_netd` process wraps around a
//! [`BatchingServer`].
//!
//! Thread-per-connection over `std::net` (the ROADMAP's "thread-per-
//! connection first" directive — a readiness loop is a measured follow-up,
//! not a prerequisite). The socket side — accept thread, connection cap,
//! the frame loop's read discipline, `Ping`/`GetMetrics`/`Drain`, protocol
//! errors, the encode span — is the front-end the router shares (the
//! private `listener` module); this module is the replica's `Service`: the
//! `Predict` arm and its request counters.
//!
//! **Admission control:** predictions go through
//! [`BatchingServer::try_predict`] — the bounded submission queue *is* the
//! admission queue, and when it is full the client gets an explicit
//! [`Frame::RetryLater`] (with the observed depth) instead of unbounded
//! buffering or a silently parked connection thread.
//!
//! **Graceful drain** ([`NetServer::drain`], or a client [`Frame::Drain`]):
//! stop accepting connections, answer every request already being read or
//! scored, then close each connection at its next frame boundary. The state
//! machine is Accepting → Draining → Closed; see DESIGN.md §8.

use crate::listener::{Front, Listener, Reply, Service};
use crate::wire::{ErrorCode, Frame, PredictRequest};
use slide_obs::{Counter, Gauge, Histogram};
use slide_serve::{BatchingServer, ServeError};
use std::net::{SocketAddr, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Socket-level knobs of a wire tier: the replica daemon and the router
/// read every field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Socket read timeout = how often blocked reads re-check the drain
    /// flag. Smaller is more responsive, larger is cheaper.
    pub poll_interval: Duration,
    /// Once a frame's first byte arrives, the whole frame must complete
    /// within this window (slow-loris bound).
    pub frame_deadline: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Cap on any frame's payload length.
    pub max_payload: u32,
    /// Connections beyond this are refused with an `Unavailable` error.
    pub max_connections: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            poll_interval: Duration::from_millis(25),
            frame_deadline: Duration::from_secs(2),
            write_timeout: Duration::from_secs(5),
            max_payload: crate::wire::DEFAULT_MAX_PAYLOAD,
            max_connections: 1024,
        }
    }
}

/// The replica's request instruments, registered in the **batching
/// server's** hub beside the front-end's connection instruments, so one
/// `GetMetrics` scrape exposes socket-, serve-, and stage-level series from
/// a single rendering pass. Every `Predict` frame lands in
/// `slide_net_requests_total` and in exactly one outcome counter, so once
/// traffic quiesces `requests == ok + invalid + retry_later +
/// deadline_exceeded + unavailable`. They are the only place a request is
/// counted, and they belong to the hub: front-ends sharing one batching
/// server share them.
struct ReplicaObs {
    requests: Arc<Counter>,
    ok: Arc<Counter>,
    invalid: Arc<Counter>,
    retry_later: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    unavailable: Arc<Counter>,
    /// Predict requests currently inside `try_predict`.
    inflight: Arc<Gauge>,
    latency_us: Arc<Histogram>,
}

/// The replica tier: `Predict` answered by a [`BatchingServer`].
struct Replica {
    batching: Arc<BatchingServer>,
    obs: ReplicaObs,
}

impl Replica {
    fn new(batching: Arc<BatchingServer>) -> Self {
        let hub = batching.obs();
        let r = hub.registry();
        let obs = ReplicaObs {
            requests: r.counter("slide_net_requests_total"),
            ok: r.counter("slide_net_ok_total"),
            invalid: r.counter("slide_net_invalid_total"),
            retry_later: r.counter("slide_net_retry_later_total"),
            deadline_exceeded: r.counter("slide_net_deadline_exceeded_total"),
            unavailable: r.counter("slide_net_unavailable_total"),
            inflight: r.gauge("slide_net_inflight"),
            latency_us: r.histogram("slide_net_latency_us"),
        };
        Replica { batching, obs }
    }
}

impl Service for Replica {
    type Conn = ();

    fn open(&self) {}

    fn predict(&self, _: &(), req: PredictRequest) -> Reply {
        self.obs.requests.inc();
        let t0 = Instant::now();
        // Anchor the relative budget to our receive time: the frame was
        // fully read microseconds ago, so `t0` is the admission instant.
        let deadline = (req.deadline_us > 0).then(|| t0 + Duration::from_micros(req.deadline_us));
        self.obs.inflight.inc();
        // Scoring runs on this thread, so a model panic unwinds through
        // here. It has already closed the engine: answer it as `Closed`
        // rather than die without a reply and leave the gauges stuck.
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.batching.try_predict(
                &req.indices,
                &req.values,
                req.k as usize,
                deadline,
                req.trace_id,
            )
        }))
        .unwrap_or(Err(ServeError::Closed));
        self.obs.inflight.dec();
        let req_id = req.req_id;
        Reply::Frame(match result {
            Ok(ids) => {
                self.obs.ok.inc();
                self.obs.latency_us.record(t0.elapsed().as_micros() as u64);
                Frame::TopK { req_id, ids }
            }
            Err(ServeError::Overloaded(depth)) => {
                self.obs.retry_later.inc();
                Frame::RetryLater {
                    req_id,
                    queue_depth: depth as u32,
                }
            }
            Err(ServeError::DeadlineExceeded) => {
                self.obs.deadline_exceeded.inc();
                Frame::DeadlineExceeded { req_id }
            }
            Err(ServeError::Invalid(message)) => {
                self.obs.invalid.inc();
                Frame::Error {
                    req_id,
                    code: ErrorCode::Invalid,
                    message,
                }
            }
            Err(ServeError::Closed) => {
                self.obs.unavailable.inc();
                return Reply::Close(Frame::Error {
                    req_id,
                    code: ErrorCode::Unavailable,
                    message: "serving engine closed".into(),
                });
            }
        })
    }

    fn shed_draining(&self) {
        self.obs.requests.inc();
        self.obs.retry_later.inc();
    }

    fn inflight(&self) -> u32 {
        self.obs.inflight.get() as u32
    }

    fn precision(&self) -> String {
        self.batching.current().precision().to_string()
    }
}

/// The TCP serving front-end: accepts wire-protocol connections and answers
/// them from a shared [`BatchingServer`].
///
/// Dropping the handle drains gracefully (stop accepting, flush in-flight,
/// close connections at their next frame boundary).
pub struct NetServer {
    front: Arc<Front<Replica>>,
    listener: Listener,
}

impl NetServer {
    /// Bind `addr` and start accepting. The batching server may be shared
    /// with other front-ends (or direct in-process callers — the loopback
    /// parity tests do exactly that).
    ///
    /// # Errors
    ///
    /// Any bind/spawn failure, as `std::io::Error`.
    pub fn start<A: ToSocketAddrs>(
        batching: Arc<BatchingServer>,
        addr: A,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        let mut listener = Listener::bind(addr)?;
        let hub = batching.obs();
        let front = Arc::new(Front::new(Replica::new(batching), cfg, hub, &listener));
        front.accept_on(&mut listener, "slide-net")?;
        Ok(NetServer { front, listener })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Whether a drain has been requested (by [`NetServer::drain`] or a
    /// client's `Drain` frame).
    pub fn is_draining(&self) -> bool {
        self.front.is_draining()
    }

    /// Graceful drain: stop accepting, let every in-flight request finish
    /// and its response flush, then close all connections. Blocks until the
    /// accept thread and every connection thread have exited.
    pub fn drain(&mut self) {
        self.front.start_draining();
        self.listener.drain();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.drain();
    }
}
