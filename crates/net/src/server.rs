//! The TCP front-end a `slide_netd` process wraps around a
//! [`BatchingServer`].
//!
//! Thread-per-connection over `std::net` (the ROADMAP's "thread-per-
//! connection first" directive — a readiness loop is a measured follow-up,
//! not a prerequisite): an accept thread polls a non-blocking listener so it
//! can observe the drain flag, and each connection runs a frame loop whose
//! reads use the poll-interval/frame-deadline discipline of
//! [`crate::stream::read_frame`] — so an idle keep-alive connection costs
//! one timed-out `read` per poll, a slow-loris peer is cut off at the frame
//! deadline, and a mid-frame disconnect is a typed error, never a stuck
//! thread.
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

use crate::stream::{read_frame, write_frame, ReadOutcome};
use crate::wire::{ErrorCode, Frame, PongInfo, WireError};
use parking_lot::Mutex;
use slide_obs::{Counter, Gauge, Histogram, HistogramSnapshot, ObsHub, Stage};
use slide_serve::{stage_histogram, BatchingServer, ServeError};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Socket-level knobs shared by the daemon and the router listener.
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

/// Request counters since start. Every `Predict` frame lands in `requests`
/// and in exactly one outcome, so once traffic quiesces `requests == ok +
/// invalid + retry_later + deadline_exceeded + unavailable`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Predict frames received.
    pub requests: u64,
    /// Answered with a top-k.
    pub ok: u64,
    /// Answered with an `Invalid` error.
    pub invalid: u64,
    /// Shed with `RetryLater`.
    pub retry_later: u64,
    /// Shed with `DeadlineExceeded` (budget ran out at admission or in the
    /// batch queue).
    pub deadline_exceeded: u64,
    /// Answered with an `Unavailable` error (engine closed, or its model
    /// panicked).
    pub unavailable: u64,
    /// Wire-level faults (bad frames, stalls, server-only frames).
    pub protocol_errors: u64,
}

/// Network-tier instruments, registered in the **batching server's** hub so
/// one `GetMetrics` scrape exposes socket-, serve-, and stage-level series
/// from a single rendering pass. They are the only place a request or a
/// connection is counted ([`NetStats`] is a typed read of them), and they
/// belong to the hub: front-ends sharing one batching server share them.
struct NetObs {
    hub: Arc<ObsHub>,
    requests: Arc<Counter>,
    ok: Arc<Counter>,
    invalid: Arc<Counter>,
    retry_later: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    unavailable: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    conns_opened: Arc<Counter>,
    conns_active: Arc<Gauge>,
    refused: Arc<Counter>,
    /// Predict requests currently inside `try_predict`.
    inflight: Arc<Gauge>,
    draining: Arc<Gauge>,
    latency_us: Arc<Histogram>,
    stage_encode: Arc<Histogram>,
}

impl NetObs {
    fn new(hub: Arc<ObsHub>) -> Self {
        let r = hub.registry();
        NetObs {
            requests: r.counter("slide_net_requests_total"),
            ok: r.counter("slide_net_ok_total"),
            invalid: r.counter("slide_net_invalid_total"),
            retry_later: r.counter("slide_net_retry_later_total"),
            deadline_exceeded: r.counter("slide_net_deadline_exceeded_total"),
            unavailable: r.counter("slide_net_unavailable_total"),
            protocol_errors: r.counter("slide_net_protocol_errors_total"),
            conns_opened: r.counter("slide_net_connections_opened_total"),
            conns_active: r.gauge("slide_net_connections_active"),
            refused: r.counter("slide_net_refused_total"),
            inflight: r.gauge("slide_net_inflight"),
            draining: r.gauge("slide_net_draining"),
            latency_us: r.histogram("slide_net_latency_us"),
            stage_encode: stage_histogram(&hub, Stage::Encode),
            hub,
        }
    }
}

struct NetShared {
    batching: Arc<BatchingServer>,
    cfg: NetConfig,
    local_addr: SocketAddr,
    draining: AtomicBool,
    obs: NetObs,
    conn_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl NetShared {
    fn start_draining(&self) {
        self.draining.store(true, Ordering::Release);
        self.obs.draining.set(1);
    }
}

/// A point-in-time read of the network tier's registry instruments.
#[derive(Debug, Clone)]
pub struct NetStats {
    /// Whether the server is draining.
    pub draining: bool,
    /// Connections accepted over the server's lifetime.
    pub connections_opened: u64,
    /// Connections currently open.
    pub connections_active: usize,
    /// Connections refused at the `max_connections` cap.
    pub refused: u64,
    /// Predict requests currently in flight.
    pub inflight: usize,
    /// Request totals since start.
    pub totals: ClientCounters,
    /// Socket-measured request latency in µs (frame decoded → response
    /// written).
    pub latency: HistogramSnapshot,
}

/// The TCP serving front-end: accepts wire-protocol connections and answers
/// them from a shared [`BatchingServer`].
///
/// Dropping the handle drains gracefully (stop accepting, flush in-flight,
/// close connections at their next frame boundary).
pub struct NetServer {
    shared: Arc<NetShared>,
    accept: Option<std::thread::JoinHandle<()>>,
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
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let obs = NetObs::new(batching.obs());
        let shared = Arc::new(NetShared {
            batching,
            cfg,
            local_addr,
            obs,
            draining: AtomicBool::new(false),
            conn_handles: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("slide-net-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(NetServer {
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Whether a drain has been requested (by [`NetServer::drain`] or a
    /// client's `Drain` frame).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Read the network-tier instruments.
    pub fn stats(&self) -> NetStats {
        let o = &self.shared.obs;
        NetStats {
            draining: self.is_draining(),
            connections_opened: o.conns_opened.get(),
            connections_active: o.conns_active.get() as usize,
            refused: o.refused.get(),
            inflight: o.inflight.get() as usize,
            totals: ClientCounters {
                requests: o.requests.get(),
                ok: o.ok.get(),
                invalid: o.invalid.get(),
                retry_later: o.retry_later.get(),
                deadline_exceeded: o.deadline_exceeded.get(),
                unavailable: o.unavailable.get(),
                protocol_errors: o.protocol_errors.get(),
            },
            latency: o.latency_us.snapshot(),
        }
    }

    /// Graceful drain: stop accepting, let every in-flight request finish
    /// and its response flush, then close all connections. Blocks until the
    /// accept thread and every connection thread have exited.
    pub fn drain(&mut self) {
        self.shared.start_draining();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Connection threads observe the flag within one poll interval and
        // exit after flushing any response they are mid-way through.
        loop {
            let handles: Vec<_> = self.shared.conn_handles.lock().drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<NetShared>) {
    loop {
        if shared.draining.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                shared.obs.conns_opened.inc();
                if shared.obs.conns_active.get() as usize >= shared.cfg.max_connections {
                    shared.obs.refused.inc();
                    refuse(stream, shared.cfg);
                    continue;
                }
                shared.obs.conns_active.inc();
                let shared2 = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name(format!("slide-net-conn-{peer}"))
                    .spawn(move || {
                        connection_loop(stream, &shared2);
                        shared2.obs.conns_active.dec();
                    });
                match handle {
                    Ok(h) => {
                        let mut handles = shared.conn_handles.lock();
                        // Reap finished connections so a long-lived daemon
                        // doesn't accumulate dead join handles.
                        handles.retain(|h| !h.is_finished());
                        handles.push(h);
                    }
                    Err(_) => shared.obs.conns_active.dec(),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.cfg.poll_interval.min(Duration::from_millis(10)));
            }
            Err(_) => {
                // Transient accept failure (EMFILE, aborted handshake);
                // back off briefly and keep listening.
                std::thread::sleep(shared.cfg.poll_interval);
            }
        }
    }
}

/// Tell an over-cap peer to go away, best-effort.
fn refuse(mut stream: TcpStream, cfg: NetConfig) {
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = write_frame(
        &mut stream,
        &Frame::Error {
            req_id: 0,
            code: ErrorCode::Unavailable,
            message: "connection limit reached".into(),
        },
    );
}

fn connection_loop(mut stream: TcpStream, shared: &NetShared) {
    let cfg = shared.cfg;
    if stream.set_read_timeout(Some(cfg.poll_interval)).is_err()
        || stream.set_write_timeout(Some(cfg.write_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    loop {
        if shared.draining.load(Ordering::Acquire) {
            // Flush-then-close happens below per response; at a frame
            // boundary there is nothing in flight on this connection.
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
        let frame = match read_frame(&mut stream, cfg.max_payload, cfg.frame_deadline) {
            Ok(ReadOutcome::Idle) => continue,
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Frame(f)) => f,
            Err(e) => {
                shared.obs.protocol_errors.inc();
                // Name the fault for the peer when the stream is still
                // usable, then close. Stalls and IO faults skip the
                // courtesy reply.
                if !matches!(e, WireError::Stalled | WireError::Io(..)) {
                    let _ = write_frame(
                        &mut stream,
                        &Frame::Error {
                            req_id: 0,
                            code: ErrorCode::Protocol,
                            message: e.to_string(),
                        },
                    );
                }
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
        };
        let keep_going = handle_frame(&mut stream, shared, frame);
        if !keep_going {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
    }
}

/// Handle one decoded frame; returns false when the connection should close.
fn handle_frame(stream: &mut TcpStream, shared: &NetShared, frame: Frame) -> bool {
    match frame {
        Frame::Predict(req) => {
            shared.obs.requests.inc();
            if shared.draining.load(Ordering::Acquire) {
                // Drain started between frames: shed softly and close.
                shared.obs.retry_later.inc();
                let _ = write_frame(
                    stream,
                    &Frame::RetryLater {
                        req_id: req.req_id,
                        queue_depth: 0,
                    },
                );
                return false;
            }
            let t0 = Instant::now();
            // Anchor the relative budget to our receive time: the frame was
            // fully read microseconds ago, so `t0` is the admission instant.
            let deadline =
                (req.deadline_us > 0).then(|| t0 + Duration::from_micros(req.deadline_us));
            shared.obs.inflight.inc();
            // Scoring runs on this thread, so a model panic unwinds through
            // here. It has already closed the engine: answer it as `Closed`
            // rather than die without a reply and leave the gauges stuck.
            let result = catch_unwind(AssertUnwindSafe(|| {
                shared.batching.try_predict_traced(
                    &req.indices,
                    &req.values,
                    req.k as usize,
                    deadline,
                    req.trace_id,
                )
            }))
            .unwrap_or(Err(ServeError::Closed));
            shared.obs.inflight.dec();
            let reply = match result {
                Ok(ids) => {
                    shared.obs.ok.inc();
                    shared
                        .obs
                        .latency_us
                        .record(t0.elapsed().as_micros() as u64);
                    Frame::TopK {
                        req_id: req.req_id,
                        ids,
                    }
                }
                Err(ServeError::Overloaded(depth)) => {
                    shared.obs.retry_later.inc();
                    Frame::RetryLater {
                        req_id: req.req_id,
                        queue_depth: depth as u32,
                    }
                }
                Err(ServeError::DeadlineExceeded) => {
                    shared.obs.deadline_exceeded.inc();
                    Frame::DeadlineExceeded { req_id: req.req_id }
                }
                Err(ServeError::Invalid(msg)) => {
                    shared.obs.invalid.inc();
                    Frame::Error {
                        req_id: req.req_id,
                        code: ErrorCode::Invalid,
                        message: msg,
                    }
                }
                Err(ServeError::Closed) => {
                    shared.obs.unavailable.inc();
                    let _ = write_frame(
                        stream,
                        &Frame::Error {
                            req_id: req.req_id,
                            code: ErrorCode::Unavailable,
                            message: "serving engine closed".into(),
                        },
                    );
                    return false;
                }
            };
            // Encode + flush is the last hop a request spends inside this
            // process; time it like any other stage.
            let ring = shared.obs.hub.ring();
            let enc_start = ring.now_us();
            let sent = write_frame(stream, &reply).is_ok();
            let enc_dur = ring.now_us().saturating_sub(enc_start);
            shared.obs.stage_encode.record(enc_dur);
            ring.record(req.trace_id, Stage::Encode, enc_start, enc_dur);
            sent
        }
        Frame::Ping { nonce } => {
            let precision = shared.batching.current().precision().to_string();
            write_frame(
                stream,
                &Frame::Pong(PongInfo {
                    nonce,
                    inflight: shared.obs.inflight.get() as u32,
                    draining: shared.draining.load(Ordering::Acquire),
                    precision,
                }),
            )
            .is_ok()
        }
        Frame::GetMetrics => {
            // One hub serves both tiers: socket counters, serve counters,
            // stage histograms, and the trace ring render together.
            let text = shared.obs.hub.render();
            write_frame(stream, &Frame::MetricsText(text)).is_ok()
        }
        Frame::Drain => {
            shared.start_draining();
            let _ = write_frame(stream, &Frame::Drain);
            let _ = stream.flush();
            false
        }
        // Server-to-client frames arriving at the server are a protocol
        // violation: name it, close.
        other @ (Frame::TopK { .. }
        | Frame::Error { .. }
        | Frame::RetryLater { .. }
        | Frame::Pong(_)
        | Frame::MetricsText(_)
        | Frame::DeadlineExceeded { .. }) => {
            shared.obs.protocol_errors.inc();
            let _ = write_frame(
                stream,
                &Frame::Error {
                    req_id: 0,
                    code: ErrorCode::Protocol,
                    message: format!(
                        "client sent a server-only frame (type {})",
                        other.type_byte()
                    ),
                },
            );
            false
        }
    }
}
