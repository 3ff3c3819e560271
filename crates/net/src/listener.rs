//! The one socket front-end. Every TCP port in slide-net is a
//! [`Listener`] (the fault proxy uses it bare), and both wire tiers — the
//! replica's [`crate::NetServer`] and the [`crate::Router`] — serve frames
//! through one [`Front`] on it, generic over a [`Service`]. The loop owns
//! what the tiers do alike — connection cap, socket timeouts, idle and
//! drain polling, protocol errors, `Ping`, `GetMetrics`, `Drain`, shedding
//! a `Predict` once a drain began, the reply write timed as
//! `stage="encode"` — and those instruments in the tier's hub; the service
//! answers `Predict` and says what a `Pong` reports. DESIGN.md §8.

use crate::server::NetConfig;
use crate::stream::{read_frame, write_frame, ReadOutcome};
use crate::wire::{ErrorCode, Frame, PongInfo, PredictRequest, WireError};
use slide_obs::{Counter, Gauge, Histogram, ObsHub, Stage};
use slide_serve::stage_histogram;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A bound TCP port, its accept thread and its connection threads.
/// Dropping it drains.
pub(crate) struct Listener {
    /// The bound socket until [`Listener::start`] hands it to the accept
    /// thread.
    socket: Option<TcpListener>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Returns the handles of the connection threads still unreaped.
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Listener {
    /// Bind `addr`. Nothing is accepted until [`Listener::start`]; a peer
    /// connecting before then waits in the kernel backlog.
    pub(crate) fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Listener> {
        let socket = TcpListener::bind(addr)?;
        socket.set_nonblocking(true)?;
        Ok(Listener {
            local_addr: socket.local_addr()?,
            socket: Some(socket),
            stop: Arc::new(AtomicBool::new(false)),
            accept: None,
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The flag that stops the accept thread. Connection threads read it
    /// too; anyone holding it may raise it.
    pub(crate) fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Start accepting. `on_accept` sees each new connection on the accept
    /// thread (so it observes connections in accept order) and returns the
    /// job to run on the connection's own thread, or `None` to drop it. An
    /// idle accept sleeps `poll` (at most 10 ms) between tries.
    pub(crate) fn start<F, J>(
        &mut self,
        name: &str,
        poll: Duration,
        mut on_accept: F,
    ) -> std::io::Result<()>
    where
        F: FnMut(TcpStream) -> Option<J> + Send + 'static,
        J: FnOnce() + Send + 'static,
    {
        let socket = self.socket.take().expect("a listener starts once");
        let stop = Arc::clone(&self.stop);
        let name = name.to_string();
        let accept = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    match socket.accept() {
                        Ok((stream, peer)) => {
                            let Some(job) = on_accept(stream) else {
                                continue;
                            };
                            let spawned = std::thread::Builder::new()
                                .name(format!("{name}-conn-{peer}"))
                                .spawn(job);
                            if let Ok(h) = spawned {
                                // Reap finished connections so a long-lived
                                // daemon doesn't accumulate dead handles.
                                conns.retain(|h| !h.is_finished());
                                conns.push(h);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(poll.min(Duration::from_millis(10)));
                        }
                        // Transient accept failure (EMFILE, aborted
                        // handshake): back off briefly and keep listening.
                        Err(_) => std::thread::sleep(poll),
                    }
                }
                conns
            })?;
        self.accept = Some(accept);
        Ok(())
    }

    /// Raise the stop flag, join the accept thread, then every connection
    /// thread. Each connection thread must itself watch the flag (or end on
    /// its own) for this to return.
    pub(crate) fn drain(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            for h in accept.join().unwrap_or_default() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.drain();
    }
}

/// What one `Predict` earns the client.
pub(crate) enum Reply {
    /// Write it, timed as the `encode` stage, and keep reading.
    Frame(Frame),
    /// Write it and close: this tier can serve the connection no further.
    Close(Frame),
}

/// The part of a wire tier the shared frame loop cannot do: answer a
/// `Predict`, and say what a `Pong` reports.
pub(crate) trait Service: Send + Sync + 'static {
    /// State one client connection keeps between frames.
    type Conn;
    /// Fresh state for a newly accepted connection.
    fn open(&self) -> Self::Conn;
    /// Answer one `Predict` that arrived while the tier was accepting.
    fn predict(&self, conn: &Self::Conn, req: PredictRequest) -> Reply;
    /// Count a `Predict` the loop shed with `RetryLater` because a drain
    /// had begun.
    fn shed_draining(&self);
    /// `Pong::inflight`: requests this tier is working on.
    fn inflight(&self) -> u32;
    /// `Pong::precision`: what answers here.
    fn precision(&self) -> String;
}

/// The frame loop's own instruments.
struct FrontObs {
    conns_opened: Arc<Counter>,
    conns_active: Arc<Gauge>,
    refused: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    draining: Arc<Gauge>,
    stage_encode: Arc<Histogram>,
}

/// One wire tier's frame loop: a [`Service`], its socket knobs, its hub,
/// and its listener's stop flag, which is the tier's drain flag.
pub(crate) struct Front<S> {
    pub(crate) service: S,
    cfg: NetConfig,
    hub: Arc<ObsHub>,
    draining: Arc<AtomicBool>,
    obs: FrontObs,
}

/// Holds one slot of `slide_net_connections_active`; frees it when the
/// connection's job ends, panics, or never gets a thread.
struct ActiveSlot(Arc<Gauge>);

impl Drop for ActiveSlot {
    fn drop(&mut self) {
        self.0.dec();
    }
}

impl<S: Service> Front<S> {
    /// Serve `service` on `listener`'s port, counting into `hub`.
    pub(crate) fn new(service: S, cfg: NetConfig, hub: Arc<ObsHub>, listener: &Listener) -> Self {
        let r = hub.registry();
        let obs = FrontObs {
            conns_opened: r.counter("slide_net_connections_opened_total"),
            conns_active: r.gauge("slide_net_connections_active"),
            refused: r.counter("slide_net_refused_total"),
            protocol_errors: r.counter("slide_net_protocol_errors_total"),
            draining: r.gauge("slide_net_draining"),
            stage_encode: stage_histogram(&hub, Stage::Encode),
        };
        Front {
            service,
            cfg,
            hub,
            draining: listener.stop_flag(),
            obs,
        }
    }

    /// The tier's hub: one `GetMetrics` renders it whole.
    pub(crate) fn hub(&self) -> &Arc<ObsHub> {
        &self.hub
    }

    /// Whether a drain has begun (by the owner or a client `Drain` frame).
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Begin draining: the accept thread stops, and each connection closes
    /// at its next frame boundary.
    pub(crate) fn start_draining(&self) {
        self.draining.store(true, Ordering::Release);
        self.obs.draining.set(1);
    }

    /// Start `listener`'s accept thread on this loop, enforcing the
    /// connection cap there: a connection over `max_connections` gets a
    /// courtesy `Error(Unavailable)` and is closed.
    pub(crate) fn accept_on(
        self: &Arc<Self>,
        listener: &mut Listener,
        name: &str,
    ) -> std::io::Result<()> {
        let front = Arc::clone(self);
        listener.start(name, self.cfg.poll_interval, move |stream| {
            front.obs.conns_opened.inc();
            if front.obs.conns_active.get() as usize >= front.cfg.max_connections {
                front.obs.refused.inc();
                front.refuse(stream);
                return None;
            }
            front.obs.conns_active.inc();
            let slot = ActiveSlot(Arc::clone(&front.obs.conns_active));
            let front = Arc::clone(&front);
            Some(move || {
                front.connection(stream);
                drop(slot);
            })
        })
    }

    /// Tell an over-cap peer to go away, best-effort.
    fn refuse(&self, mut stream: TcpStream) {
        let _ = stream.set_write_timeout(Some(self.cfg.write_timeout));
        send_error(
            &mut stream,
            ErrorCode::Unavailable,
            "connection limit reached".into(),
        );
    }

    fn connection(&self, mut stream: TcpStream) {
        let cfg = self.cfg;
        if stream.set_read_timeout(Some(cfg.poll_interval)).is_err()
            || stream.set_write_timeout(Some(cfg.write_timeout)).is_err()
            || stream.set_nodelay(true).is_err()
        {
            return;
        }
        let conn = self.service.open();
        // Between frames nothing is in flight on this connection: every
        // reply was flushed before the drain flag is checked again.
        while !self.is_draining() {
            let frame = match read_frame(&mut stream, cfg.max_payload, cfg.frame_deadline) {
                Ok(ReadOutcome::Idle) => continue,
                Ok(ReadOutcome::Closed) => return,
                Ok(ReadOutcome::Frame(f)) => f,
                Err(e) => {
                    self.obs.protocol_errors.inc();
                    // Name the fault for the peer when the stream is still
                    // usable. Stalls and IO faults skip the courtesy reply.
                    if !matches!(e, WireError::Stalled | WireError::Io(..)) {
                        send_error(&mut stream, ErrorCode::Protocol, e.to_string());
                    }
                    break;
                }
            };
            if !self.handle_frame(&mut stream, &conn, frame) {
                break;
            }
        }
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// Handle one decoded frame; returns false when the connection should
    /// close.
    fn handle_frame(&self, stream: &mut TcpStream, conn: &S::Conn, frame: Frame) -> bool {
        match frame {
            Frame::Predict(req) => {
                if self.is_draining() {
                    // Drain started between frames: shed softly and close.
                    self.service.shed_draining();
                    let _ = write_frame(
                        stream,
                        &Frame::RetryLater {
                            req_id: req.req_id,
                            queue_depth: 0,
                        },
                    );
                    return false;
                }
                let trace_id = req.trace_id;
                let reply = match self.service.predict(conn, req) {
                    Reply::Frame(reply) => reply,
                    Reply::Close(last) => {
                        let _ = write_frame(stream, &last);
                        return false;
                    }
                };
                // Encode + flush is the last hop a request spends inside
                // this process; time it like any other stage.
                let ring = self.hub.ring();
                let enc_start = ring.now_us();
                let sent = write_frame(stream, &reply).is_ok();
                let enc_dur = ring.now_us().saturating_sub(enc_start);
                self.obs.stage_encode.record(enc_dur);
                ring.record(trace_id, Stage::Encode, enc_start, enc_dur);
                sent
            }
            Frame::Ping { nonce } => write_frame(
                stream,
                &Frame::Pong(PongInfo {
                    nonce,
                    inflight: self.service.inflight(),
                    draining: self.is_draining(),
                    precision: self.service.precision(),
                }),
            )
            .is_ok(),
            // One hub per tier: its socket counters, its service's counters,
            // the stage histograms and the trace ring render together.
            Frame::GetMetrics => {
                write_frame(stream, &Frame::MetricsText(self.hub.render())).is_ok()
            }
            Frame::Drain => {
                self.start_draining();
                let _ = write_frame(stream, &Frame::Drain);
                false
            }
            // Server-to-client frames arriving here are a protocol
            // violation: name it, close.
            other @ (Frame::TopK { .. }
            | Frame::Error { .. }
            | Frame::RetryLater { .. }
            | Frame::Pong(_)
            | Frame::MetricsText(_)
            | Frame::DeadlineExceeded { .. }) => {
                self.obs.protocol_errors.inc();
                let message = format!(
                    "client sent a server-only frame (type {})",
                    other.type_byte()
                );
                send_error(stream, ErrorCode::Protocol, message);
                false
            }
        }
    }
}

/// Best-effort `Error` not tied to a request.
fn send_error(stream: &mut TcpStream, code: ErrorCode, message: String) {
    let _ = write_frame(
        stream,
        &Frame::Error {
            req_id: 0,
            code,
            message,
        },
    );
}
