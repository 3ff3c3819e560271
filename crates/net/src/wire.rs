//! The `slide-net` wire protocol: length-prefixed, checksummed binary
//! frames over a byte stream.
//!
//! Every frame is a fixed 16-byte header followed by `payload_len` payload
//! bytes:
//!
//! ```text
//! offset  size  field         value
//! 0       4     magic         0x31574C53 ("SLW1", little-endian)
//! 4       1     version       3 (`VERSION`)
//! 5       1     frame type    see [`Frame`]
//! 6       2     reserved      must be 0
//! 8       4     payload_len   LE; must be <= the receiver's max_payload
//! 12      4     payload_crc   CRC-32 (IEEE) of the payload bytes, LE
//! 16      n     payload       frame-type-specific, all integers LE
//! ```
//!
//! There is **one layout per frame kind**, stamped with the one [`VERSION`]:
//! a `Predict` always carries its `deadline_us` and `trace_id` fields, `0`
//! meaning "none", so a frame's length is a function of its contents alone
//! and the canonical-encoding property (decode → encode is bit-identical)
//! holds without qualification. A header stamped with any other version is
//! refused as [`WireError::BadVersion`] from its 16 bytes.
//!
//! The header is validated *before* any payload byte is read, so a bad
//! magic, an unknown version, or an oversized length prefix is rejected
//! without buffering attacker-controlled amounts of memory. The CRC is
//! checked after the payload arrives; a mismatch is a typed
//! [`WireError::ChecksumMismatch`], never a garbage parse.
//!
//! Decoding is **total**: [`decode_frame`] (and every payload parser under
//! it) returns `Result` for arbitrary input bytes and never panics — the
//! protocol-fuzz battery in `tests/wire_props.rs` feeds it random garbage
//! and byte-flipped valid frames to hold that line. Encoding goes through
//! the workspace's `bytes` shim ([`BufMut`]) exactly like the checkpoint
//! serializer does.

use bytes::{Buf, BufMut};

/// Frame magic: `b"SLW1"` read as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"SLW1");

/// The protocol version every frame is stamped with; a header carrying any
/// other value is refused before its payload is read.
pub const VERSION: u8 = 3;

/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 16;

/// Default cap on `payload_len`; larger prefixes are rejected at the
/// header, before any payload is read.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 20;

// The payload checksum in every frame header is the workspace-wide CRC-32
// (IEEE 802.3) from slide-mem — the same checksum the snapshot format's
// section table uses, re-exported here so wire code keeps reading
// `crc32(payload)`.
pub use slide_mem::crc32;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Every way a frame can fail to parse or arrive. Each protocol fault the
/// fault-injection suite throws at the server maps to exactly one variant —
/// never a panic, never a hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The underlying stream failed (kind + rendered message).
    Io(std::io::ErrorKind, String),
    /// The peer closed the stream mid-frame (clean EOF at a frame boundary
    /// is *not* an error; see [`crate::stream::ReadOutcome::Closed`]).
    TruncatedStream,
    /// First header word was not [`MAGIC`].
    BadMagic(u32),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame-type byte.
    BadFrameType(u8),
    /// Reserved header bytes were non-zero.
    BadReserved(u16),
    /// `payload_len` exceeded the receiver's cap.
    Oversized {
        /// The length prefix the peer sent.
        len: u32,
        /// The receiver's configured maximum.
        max: u32,
    },
    /// Payload bytes did not match the header's CRC.
    ChecksumMismatch {
        /// CRC from the header.
        expected: u32,
        /// CRC of the received payload.
        actual: u32,
    },
    /// Payload ended before (or extended past) its type-specific layout.
    Malformed(String),
    /// A started frame did not complete within the receiver's deadline
    /// (slow-loris guard).
    Stalled,
    /// The serve tier rejected a build/publish (rendered
    /// [`slide_serve::ServeBuildError`]) — surfaced here so daemon startup
    /// and registry activation can flow through one error channel.
    ServerBuild(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(kind, msg) => write!(f, "io error ({kind:?}): {msg}"),
            WireError::TruncatedStream => f.write_str("peer closed the stream mid-frame"),
            WireError::BadMagic(m) => write!(f, "bad magic 0x{m:08X} (want 0x{MAGIC:08X})"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::BadReserved(r) => write!(f, "reserved header bytes 0x{r:04X} != 0"),
            WireError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds cap {max}")
            }
            WireError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum mismatch: header 0x{expected:08X}, computed 0x{actual:08X}"
            ),
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            WireError::Stalled => f.write_str("frame stalled past the receive deadline"),
            WireError::ServerBuild(msg) => write!(f, "serve tier rejected build: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.kind(), e.to_string())
    }
}

impl From<slide_serve::ServeBuildError> for WireError {
    fn from(e: slide_serve::ServeBuildError) -> Self {
        WireError::ServerBuild(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Application-level failure codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The query was malformed for the model (bad index, k == 0, …).
    Invalid = 1,
    /// The serving process is shutting down or has no model.
    Unavailable = 2,
    /// The peer broke the protocol (sent a server-only frame, etc.).
    Protocol = 3,
    /// Anything else on the server side.
    Internal = 4,
}

impl ErrorCode {
    /// Decode a wire byte into a code.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for bytes outside `1..=4`.
    pub fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            1 => Ok(ErrorCode::Invalid),
            2 => Ok(ErrorCode::Unavailable),
            3 => Ok(ErrorCode::Protocol),
            4 => Ok(ErrorCode::Internal),
            other => Err(WireError::Malformed(format!("unknown error code {other}"))),
        }
    }
}

/// A top-k prediction request.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub req_id: u64,
    /// Number of labels requested.
    pub k: u32,
    /// Remaining deadline budget in microseconds; `0` means "no deadline".
    /// A *relative* budget rather than an
    /// absolute timestamp because the hops live in different processes with
    /// unsynchronized clocks: each hop anchors the budget to its own receive
    /// time and re-encodes the remainder when forwarding, so the budget
    /// shrinks monotonically across hops (network transit is the only time
    /// the budget fails to account for).
    pub deadline_us: u64,
    /// Distributed trace id; `0` means "untraced". A nonzero id is
    /// propagated unchanged client → router → replica, and every hop
    /// records its stage spans under it.
    pub trace_id: u64,
    /// Sparse feature indices (may be empty).
    pub indices: Vec<u32>,
    /// Matching feature values (same length as `indices`).
    pub values: Vec<f32>,
}

/// Replica health/load info carried by [`Frame::Pong`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PongInfo {
    /// Echo of the ping's nonce.
    pub nonce: u64,
    /// Requests currently in flight on the replica.
    pub inflight: u32,
    /// Whether the replica is draining (will refuse new work).
    pub draining: bool,
    /// Storage precision of the snapshot being served (`"f32"`, `"i8"`, …).
    pub precision: String,
}

/// One protocol frame. Type bytes 7 and 8 belonged to a retired stats
/// pair and stay unassigned ([`WireError::BadFrameType`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: predict the top-k labels for a sparse input.
    Predict(PredictRequest),
    /// Server → client: the top-k label ids for `req_id`.
    TopK {
        /// Correlation id from the request.
        req_id: u64,
        /// Predicted label ids, best first.
        ids: Vec<u32>,
    },
    /// Server → client: the request failed.
    Error {
        /// Correlation id from the request (0 for connection-level errors).
        req_id: u64,
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Server → client: admission queue full — back off and retry (the
    /// explicit load-shedding frame; never silently buffered).
    RetryLater {
        /// Correlation id from the request.
        req_id: u64,
        /// Queue depth observed at rejection time.
        queue_depth: u32,
    },
    /// Health probe.
    Ping {
        /// Echoed back in the pong.
        nonce: u64,
    },
    /// Health probe response with load info.
    Pong(PongInfo),
    /// Ask the server to drain gracefully (stop accepting, flush
    /// in-flight, close). Acknowledged by echoing `Drain` back.
    Drain,
    /// Server → client: the request's deadline budget ran out before an
    /// answer was produced (shed pre-compute at admission or in the batch
    /// queue, or the budget expired mid-forward at the router). Distinct
    /// from [`Frame::RetryLater`]: the *budget* was exhausted, not the
    /// queue — an immediate retry carries the same doom.
    DeadlineExceeded {
        /// Correlation id from the request.
        req_id: u64,
    },
    /// Ask the server for its Prometheus-style metrics exposition
    /// (counters, histograms, breaker states, recent trace spans).
    GetMetrics,
    /// Metrics exposition text response.
    MetricsText(String),
}

impl Frame {
    /// The on-wire frame-type byte.
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::Predict(_) => 1,
            Frame::TopK { .. } => 2,
            Frame::Error { .. } => 3,
            Frame::RetryLater { .. } => 4,
            Frame::Ping { .. } => 5,
            Frame::Pong(_) => 6,
            Frame::Drain => 9,
            Frame::DeadlineExceeded { .. } => 10,
            Frame::GetMetrics => 11,
            Frame::MetricsText(_) => 12,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_payload(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Predict(req) => {
            out.put_u64_le(req.req_id);
            out.put_u32_le(req.k);
            out.put_u64_le(req.deadline_us);
            out.put_u64_le(req.trace_id);
            out.put_u32_le(req.indices.len() as u32);
            for &i in &req.indices {
                out.put_u32_le(i);
            }
            for &v in &req.values {
                out.put_f32_le(v);
            }
        }
        Frame::TopK { req_id, ids } => {
            out.put_u64_le(*req_id);
            out.put_u32_le(ids.len() as u32);
            for &id in ids {
                out.put_u32_le(id);
            }
        }
        Frame::Error {
            req_id,
            code,
            message,
        } => {
            out.put_u64_le(*req_id);
            out.put_u8(*code as u8);
            out.put_u32_le(message.len() as u32);
            out.put_slice(message.as_bytes());
        }
        Frame::RetryLater {
            req_id,
            queue_depth,
        } => {
            out.put_u64_le(*req_id);
            out.put_u32_le(*queue_depth);
        }
        Frame::Ping { nonce } => out.put_u64_le(*nonce),
        Frame::Pong(info) => {
            out.put_u64_le(info.nonce);
            out.put_u32_le(info.inflight);
            out.put_u8(info.draining as u8);
            out.put_u32_le(info.precision.len() as u32);
            out.put_slice(info.precision.as_bytes());
        }
        Frame::Drain | Frame::GetMetrics => {}
        Frame::DeadlineExceeded { req_id } => out.put_u64_le(*req_id),
        Frame::MetricsText(text) => out.put_slice(text.as_bytes()),
    }
}

/// Append `frame` (header + payload) to `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    encode_payload(frame, &mut payload);
    out.put_u32_le(MAGIC);
    out.put_u8(VERSION);
    out.put_u8(frame.type_byte());
    out.put_u8(0); // reserved
    out.put_u8(0); // reserved
    out.put_u32_le(payload.len() as u32);
    out.put_u32_le(crc32(&payload));
    out.put_slice(&payload);
}

/// Encode `frame` into a fresh buffer.
pub fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 64);
    encode_frame(frame, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Decoding (total: never panics, whatever the bytes)
// ---------------------------------------------------------------------------

/// Checked little-endian reader over a payload slice — every accessor
/// verifies `remaining()` before touching the `bytes` shim (whose `get_*`
/// panic on underflow, matching upstream).
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn need(&self, n: usize, what: &str) -> Result<(), WireError> {
        if self.0.remaining() < n {
            return Err(WireError::Malformed(format!(
                "payload ends inside {what}: need {n} bytes, have {}",
                self.0.remaining()
            )));
        }
        Ok(())
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        self.need(1, what)?;
        Ok(self.0.get_u8())
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        self.need(4, what)?;
        Ok(self.0.get_u32_le())
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        self.need(8, what)?;
        Ok(self.0.get_u64_le())
    }

    /// `n` little-endian 32-bit words under one bounds check, so a count
    /// the payload cannot hold is refused before anything is allocated.
    fn words(&mut self, n: usize, what: &str) -> Result<impl Iterator<Item = u32> + 'a, WireError> {
        self.need(n.saturating_mul(4), what)?;
        let (head, tail) = self.0.split_at(n * 4);
        self.0 = tail;
        Ok(head
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])))
    }

    fn utf8(&mut self, len: usize, what: &str) -> Result<String, WireError> {
        self.need(len, what)?;
        let mut bytes = vec![0u8; len];
        self.0.copy_to_slice(&mut bytes);
        String::from_utf8(bytes)
            .map_err(|_| WireError::Malformed(format!("{what} is not valid UTF-8")))
    }

    fn finish(self, what: &str) -> Result<(), WireError> {
        if self.0.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after {what}",
                self.0.remaining()
            )));
        }
        Ok(())
    }
}

/// A parsed frame header, validated field by field in wire order (so the
/// first corrupt field is the one reported).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame-type byte (validated against the known set).
    pub frame_type: u8,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Expected CRC-32 of the payload.
    pub payload_crc: u32,
}

impl FrameHeader {
    /// Parse and validate a 16-byte header. `max_payload` bounds the length
    /// prefix *before* any payload is read.
    ///
    /// # Errors
    ///
    /// [`WireError::BadMagic`] / [`WireError::BadVersion`] /
    /// [`WireError::BadFrameType`] / [`WireError::BadReserved`] /
    /// [`WireError::Oversized`] in wire order.
    pub fn parse(bytes: &[u8; HEADER_LEN], max_payload: u32) -> Result<Self, WireError> {
        let mut r = &bytes[..];
        let magic = r.get_u32_le();
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = r.get_u8();
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let frame_type = r.get_u8();
        if !matches!(frame_type, 1..=6 | 9..=12) {
            return Err(WireError::BadFrameType(frame_type));
        }
        let reserved = u16::from_le_bytes([r.get_u8(), r.get_u8()]);
        if reserved != 0 {
            return Err(WireError::BadReserved(reserved));
        }
        let payload_len = r.get_u32_le();
        if payload_len > max_payload {
            return Err(WireError::Oversized {
                len: payload_len,
                max: max_payload,
            });
        }
        let payload_crc = r.get_u32_le();
        Ok(FrameHeader {
            frame_type,
            payload_len,
            payload_crc,
        })
    }
}

/// Parse a payload whose header already validated. Total: returns a typed
/// error for any byte sequence.
pub fn decode_payload(frame_type: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader(payload);
    match frame_type {
        1 => {
            let req_id = r.u64("Predict.req_id")?;
            let k = r.u32("Predict.k")?;
            let deadline_us = r.u64("Predict.deadline_us")?;
            let trace_id = r.u64("Predict.trace_id")?;
            let nnz = r.u32("Predict.nnz")? as usize;
            let indices = r.words(nnz, "Predict.indices")?.collect();
            let values = r
                .words(nnz, "Predict.values")?
                .map(f32::from_bits)
                .collect();
            r.finish("Predict")?;
            Ok(Frame::Predict(PredictRequest {
                req_id,
                k,
                deadline_us,
                trace_id,
                indices,
                values,
            }))
        }
        2 => {
            let req_id = r.u64("TopK.req_id")?;
            let n = r.u32("TopK.n")? as usize;
            let ids = r.words(n, "TopK.ids")?.collect();
            r.finish("TopK")?;
            Ok(Frame::TopK { req_id, ids })
        }
        3 => {
            let req_id = r.u64("Error.req_id")?;
            let code = ErrorCode::from_u8(r.u8("Error.code")?)?;
            let len = r.u32("Error.msg_len")? as usize;
            let message = r.utf8(len, "Error.message")?;
            r.finish("Error")?;
            Ok(Frame::Error {
                req_id,
                code,
                message,
            })
        }
        4 => {
            let req_id = r.u64("RetryLater.req_id")?;
            let queue_depth = r.u32("RetryLater.queue_depth")?;
            r.finish("RetryLater")?;
            Ok(Frame::RetryLater {
                req_id,
                queue_depth,
            })
        }
        5 => {
            let nonce = r.u64("Ping.nonce")?;
            r.finish("Ping")?;
            Ok(Frame::Ping { nonce })
        }
        6 => {
            let nonce = r.u64("Pong.nonce")?;
            let inflight = r.u32("Pong.inflight")?;
            let draining = r.u8("Pong.draining")? != 0;
            let len = r.u32("Pong.precision_len")? as usize;
            let precision = r.utf8(len, "Pong.precision")?;
            r.finish("Pong")?;
            Ok(Frame::Pong(PongInfo {
                nonce,
                inflight,
                draining,
                precision,
            }))
        }
        9 => {
            r.finish("Drain")?;
            Ok(Frame::Drain)
        }
        10 => {
            let req_id = r.u64("DeadlineExceeded.req_id")?;
            r.finish("DeadlineExceeded")?;
            Ok(Frame::DeadlineExceeded { req_id })
        }
        11 => {
            r.finish("GetMetrics")?;
            Ok(Frame::GetMetrics)
        }
        12 => {
            let len = payload.len();
            let text = r.utf8(len, "MetricsText.body")?;
            Ok(Frame::MetricsText(text))
        }
        other => Err(WireError::BadFrameType(other)),
    }
}

/// Decode one complete frame from the front of `buf`, returning it and the
/// bytes consumed. Total over arbitrary input: every failure is a typed
/// [`WireError`], never a panic. Fails with [`WireError::TruncatedStream`]
/// if `buf` holds less than one whole frame.
pub fn decode_frame(buf: &[u8], max_payload: u32) -> Result<(Frame, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::TruncatedStream);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&buf[..HEADER_LEN]);
    let header = FrameHeader::parse(&header, max_payload)?;
    let total = HEADER_LEN + header.payload_len as usize;
    if buf.len() < total {
        return Err(WireError::TruncatedStream);
    }
    let payload = &buf[HEADER_LEN..total];
    let actual = crc32(payload);
    if actual != header.payload_crc {
        return Err(WireError::ChecksumMismatch {
            expected: header.payload_crc,
            actual,
        });
    }
    Ok((decode_payload(header.frame_type, payload)?, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    fn roundtrip(frame: Frame) {
        let bytes = frame_bytes(&frame);
        let (decoded, used) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(bytes[4], VERSION);
        assert_eq!(decoded, frame);
        // Re-encoding is bit-identical (canonical encoding).
        assert_eq!(frame_bytes(&decoded), bytes);
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(Frame::Predict(PredictRequest {
            req_id: 42,
            k: 5,
            deadline_us: 0,
            trace_id: 0,
            indices: vec![1, 17, 40],
            values: vec![1.0, -0.5, 0.25],
        }));
        roundtrip(Frame::Predict(PredictRequest {
            req_id: 0,
            k: 1,
            deadline_us: 0,
            trace_id: 0,
            indices: vec![],
            values: vec![],
        }));
        roundtrip(Frame::Predict(PredictRequest {
            req_id: 7,
            k: 3,
            deadline_us: 250_000,
            trace_id: 0,
            indices: vec![2, 5],
            values: vec![0.5, -1.0],
        }));
        roundtrip(Frame::DeadlineExceeded { req_id: 99 });
        roundtrip(Frame::TopK {
            req_id: 42,
            ids: vec![3, 1, 4, 1, 5],
        });
        roundtrip(Frame::Error {
            req_id: 9,
            code: ErrorCode::Invalid,
            message: "k must be positive".into(),
        });
        roundtrip(Frame::RetryLater {
            req_id: 7,
            queue_depth: 4096,
        });
        roundtrip(Frame::Ping { nonce: 0xDEAD });
        roundtrip(Frame::Pong(PongInfo {
            nonce: 0xDEAD,
            inflight: 12,
            draining: true,
            precision: "i8".into(),
        }));
        roundtrip(Frame::Drain);
        roundtrip(Frame::Predict(PredictRequest {
            req_id: 11,
            k: 2,
            deadline_us: 5_000,
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            indices: vec![1],
            values: vec![2.0],
        }));
        roundtrip(Frame::GetMetrics);
        roundtrip(Frame::MetricsText(
            "# TYPE slide_serve_requests_total counter\n".into(),
        ));
    }

    #[test]
    fn predict_length_depends_on_nnz_alone() {
        for nnz in [0usize, 1, 7] {
            for (deadline_us, trace_id) in [(0, 0), (1, 0), (0, 1), (u64::MAX, u64::MAX)] {
                let bytes = frame_bytes(&Frame::Predict(PredictRequest {
                    req_id: 1,
                    k: 2,
                    deadline_us,
                    trace_id,
                    indices: vec![3; nnz],
                    values: vec![1.0; nnz],
                }));
                assert_eq!(bytes.len(), HEADER_LEN + 32 + 8 * nnz);
            }
        }
    }

    #[test]
    fn header_faults_are_typed_in_wire_order() {
        let good = frame_bytes(&Frame::Ping { nonce: 1 });

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&bad, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadMagic(_))
        ));

        // Every version but the one, the retired layouts 1 and 2 included.
        for version in [0u8, 1, 2, 4, 99] {
            let mut bad = good.clone();
            bad[4] = version;
            assert_eq!(
                decode_frame(&bad, DEFAULT_MAX_PAYLOAD),
                Err(WireError::BadVersion(version))
            );
        }

        // Unassigned type bytes, the retired stats pair 7/8 included.
        for frame_type in [0u8, 7, 8, 13, 200] {
            let mut bad = good.clone();
            bad[5] = frame_type;
            assert_eq!(
                decode_frame(&bad, DEFAULT_MAX_PAYLOAD),
                Err(WireError::BadFrameType(frame_type))
            );
        }

        let mut bad = good.clone();
        bad[6] = 1;
        assert!(matches!(
            decode_frame(&bad, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadReserved(1))
        ));

        // Oversized length prefix is rejected at the header even though the
        // buffer holds nowhere near that many bytes.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bad, DEFAULT_MAX_PAYLOAD),
            Err(WireError::Oversized { len: u32::MAX, .. })
        ));

        // Corrupted payload byte -> checksum mismatch, not a garbage parse.
        let mut bad = frame_bytes(&Frame::MetricsText("{}".into()));
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&bad, DEFAULT_MAX_PAYLOAD),
            Err(WireError::ChecksumMismatch { .. })
        ));

        // Truncated buffer -> TruncatedStream, whatever the cut point.
        for cut in 0..good.len() {
            assert_eq!(
                decode_frame(&good[..cut], DEFAULT_MAX_PAYLOAD),
                Err(WireError::TruncatedStream),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn payload_underflow_and_trailing_bytes_are_malformed() {
        // Predict claiming 1000 non-zeros with none present.
        let mut payload = Vec::new();
        payload.put_u64_le(1);
        payload.put_u32_le(5);
        payload.put_u64_le(0);
        payload.put_u64_le(0);
        payload.put_u32_le(1000);
        assert!(matches!(
            decode_payload(1, &payload),
            Err(WireError::Malformed(_))
        ));
        // Ping with trailing junk.
        let mut payload = Vec::new();
        payload.put_u64_le(1);
        payload.put_u8(0);
        assert!(matches!(
            decode_payload(5, &payload),
            Err(WireError::Malformed(_))
        ));
        // Error frame with non-UTF-8 message bytes.
        let mut payload = Vec::new();
        payload.put_u64_le(1);
        payload.put_u8(1);
        payload.put_u32_le(2);
        payload.put_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            decode_payload(3, &payload),
            Err(WireError::Malformed(_))
        ));
        // Predict whose payload stops inside the deadline field.
        let mut payload = Vec::new();
        payload.put_u64_le(1);
        payload.put_u32_le(5);
        payload.put_u32_le(0); // only 4 of the deadline's 8 bytes present
        assert!(matches!(
            decode_payload(1, &payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn error_displays_name_the_fault() {
        let e = WireError::Oversized { len: 10, max: 5 };
        assert!(e.to_string().contains("10"));
        let e = WireError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("mismatch"));
    }
}
