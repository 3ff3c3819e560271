//! A blocking wire-protocol client: one TCP connection, synchronous
//! request/response.
//!
//! `NetClient` is what the router uses per replica and what the load
//! generator and tests use to talk to a daemon. It is deliberately simple —
//! one in-flight request at a time — because the concurrency story lives
//! server-side (the batching queue coalesces across *connections*, not
//! within one).

use crate::stream::{read_frame_timeout, write_frame};
use crate::wire::{ErrorCode, Frame, PongInfo, PredictRequest, WireError, DEFAULT_MAX_PAYLOAD};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// What a request can come back as, beyond a plain answer.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (connect, send, or receive).
    Io(String),
    /// The peer violated the wire protocol.
    Wire(WireError),
    /// The server shed the request; retry after backoff (depth is the
    /// server's queue length at rejection time).
    RetryLater {
        /// Server-side queue depth when the request was shed.
        queue_depth: u32,
    },
    /// The server answered with a typed error frame.
    Server {
        /// Which error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The request's deadline budget ran out before an answer was produced
    /// (the server or router shed it with a typed `DeadlineExceeded` frame).
    DeadlineExceeded,
    /// The peer answered with a well-formed frame that makes no sense here
    /// (wrong `req_id`, wrong frame kind).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "io error: {m}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::RetryLater { queue_depth } => {
                write!(f, "server shed load (queue depth {queue_depth})")
            }
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::DeadlineExceeded => f.write_str("deadline exceeded"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(kind, msg) => ClientError::Io(format!("{kind:?}: {msg}")),
            other => ClientError::Wire(other),
        }
    }
}

impl ClientError {
    /// True for faults that indicate the *replica* is unhealthy (socket
    /// died, garbage on the wire, server shutting down) as opposed to
    /// faults of the request itself — the router's failover predicate.
    pub fn is_replica_fault(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Wire(_) | ClientError::Protocol(_) => true,
            ClientError::Server { code, .. } => {
                matches!(code, ErrorCode::Unavailable | ErrorCode::Internal)
            }
            // A shed or an exhausted budget says nothing bad about the
            // replica — it answered promptly and honestly.
            ClientError::RetryLater { .. } | ClientError::DeadlineExceeded => false,
        }
    }
}

/// A synchronous wire-protocol connection to one server.
pub struct NetClient {
    stream: TcpStream,
    timeout: Duration,
    max_payload: u32,
    next_req_id: u64,
}

impl NetClient {
    /// Connect with `timeout` applied to the handshake and, subsequently,
    /// to each request/response exchange.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the connection cannot be established.
    pub fn connect<A: ToSocketAddrs>(addr: A, timeout: Duration) -> Result<NetClient, ClientError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| ClientError::Io(e.to_string()))?
            .next()
            .ok_or_else(|| ClientError::Io("address resolved to nothing".into()))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        // Short socket timeouts + an overall deadline in read_frame_timeout:
        // the poll granularity lets us bound the total wait precisely.
        stream
            .set_read_timeout(Some(Duration::from_millis(20).min(timeout)))
            .map_err(|e| ClientError::Io(e.to_string()))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        Ok(NetClient {
            stream,
            timeout,
            max_payload: DEFAULT_MAX_PAYLOAD,
            next_req_id: 1,
        })
    }

    /// Override the per-exchange timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
        let _ = self
            .stream
            .set_read_timeout(Some(Duration::from_millis(20).min(timeout)));
        let _ = self.stream.set_write_timeout(Some(timeout));
    }

    fn exchange(&mut self, req: &Frame) -> Result<Frame, ClientError> {
        write_frame(&mut self.stream, req)?;
        Ok(read_frame_timeout(
            &mut self.stream,
            self.max_payload,
            self.timeout,
        )?)
    }

    /// Score one sparse query; returns the top-k class ids.
    ///
    /// # Errors
    ///
    /// [`ClientError::RetryLater`] when shed, [`ClientError::Server`] for
    /// typed server errors, [`ClientError::Io`]/[`ClientError::Wire`] for
    /// transport faults.
    pub fn predict(
        &mut self,
        indices: &[u32],
        values: &[f32],
        k: usize,
    ) -> Result<Vec<u32>, ClientError> {
        self.predict_within(indices, values, k, 0, 0)
    }

    /// [`NetClient::predict`] with a deadline budget and a trace id.
    /// `deadline_us` is the remaining time (µs) the caller will wait for an
    /// answer; every hop downstream decrements the budget and sheds the
    /// request with a typed `DeadlineExceeded` frame once it runs out. A
    /// nonzero `trace_id` is propagated unchanged through every hop (router
    /// → replica), where each hop records its per-stage spans under that id.
    /// `0` means no deadline, or no trace.
    ///
    /// # Errors
    ///
    /// [`ClientError::DeadlineExceeded`] when a hop shed the request;
    /// otherwise as [`NetClient::predict`].
    pub fn predict_within(
        &mut self,
        indices: &[u32],
        values: &[f32],
        k: usize,
        deadline_us: u64,
        trace_id: u64,
    ) -> Result<Vec<u32>, ClientError> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        write_frame(
            &mut self.stream,
            &Frame::Predict(PredictRequest {
                req_id,
                k: k as u32,
                deadline_us,
                trace_id,
                indices: indices.to_vec(),
                values: values.to_vec(),
            }),
        )?;
        let started = Instant::now();
        loop {
            let remaining = self
                .timeout
                .checked_sub(started.elapsed())
                .filter(|d| !d.is_zero())
                .ok_or_else(|| {
                    ClientError::Io(format!("TimedOut: no reply to predict #{req_id}"))
                })?;
            let reply = read_frame_timeout(&mut self.stream, self.max_payload, remaining)?;
            // Replies to an *earlier* request on this connection (one the
            // caller already gave up on) are stale: skip them and keep
            // waiting for ours — the req-id is the dedup key.
            let stale = match &reply {
                Frame::TopK { req_id: rid, .. }
                | Frame::RetryLater { req_id: rid, .. }
                | Frame::DeadlineExceeded { req_id: rid }
                | Frame::Error { req_id: rid, .. } => *rid != 0 && *rid < req_id,
                _ => false,
            };
            if stale {
                continue;
            }
            return match reply {
                Frame::TopK { req_id: rid, ids } if rid == req_id => Ok(ids),
                Frame::RetryLater {
                    req_id: rid,
                    queue_depth,
                } if rid == req_id => Err(ClientError::RetryLater { queue_depth }),
                Frame::DeadlineExceeded { req_id: rid } if rid == req_id => {
                    Err(ClientError::DeadlineExceeded)
                }
                Frame::Error {
                    req_id: rid,
                    code,
                    message,
                } if rid == req_id || rid == 0 => Err(ClientError::Server { code, message }),
                other => Err(ClientError::Protocol(format!(
                    "unexpected reply to predict #{req_id}: type {}",
                    other.type_byte()
                ))),
            };
        }
    }

    /// Health-check the server; returns its pong (inflight count, drain
    /// flag, model precision).
    ///
    /// # Errors
    ///
    /// Transport faults, or [`ClientError::Protocol`] on a nonsense reply.
    pub fn ping(&mut self, nonce: u64) -> Result<PongInfo, ClientError> {
        match self.exchange(&Frame::Ping { nonce })? {
            Frame::Pong(info) if info.nonce == nonce => Ok(info),
            Frame::Error { code, message, .. } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to ping: type {}",
                other.type_byte()
            ))),
        }
    }

    /// Fetch the server's metrics exposition (Prometheus-style text plus
    /// trace-span comment lines) via a `GetMetrics` frame.
    ///
    /// # Errors
    ///
    /// Transport faults, or [`ClientError::Protocol`] on a nonsense reply.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        match self.exchange(&Frame::GetMetrics)? {
            Frame::MetricsText(text) => Ok(text),
            Frame::Error { code, message, .. } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to get-metrics: type {}",
                other.type_byte()
            ))),
        }
    }

    /// Ask the server to drain (stop accepting, flush, shut down). The
    /// server echoes the drain frame before closing.
    ///
    /// # Errors
    ///
    /// Transport faults, or [`ClientError::Protocol`] on a nonsense reply.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        match self.exchange(&Frame::Drain)? {
            Frame::Drain => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to drain: type {}",
                other.type_byte()
            ))),
        }
    }
}
