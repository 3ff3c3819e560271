//! Framed I/O over `std::io` streams: blocking frame writes and
//! deadline-aware frame reads.
//!
//! The read path is built for sockets whose *read timeout is the poll
//! interval* (tens of milliseconds), not the protocol deadline: a timeout
//! with **zero bytes buffered** surfaces as [`ReadOutcome::Idle`] so the
//! caller can check its drain flag and come back, while a timeout **mid
//! frame** keeps reading until the frame completes or `deadline` (measured
//! from the frame's first byte) expires — at which point the peer is a
//! slow-loris and the read fails with [`WireError::Stalled`] instead of
//! hanging. A clean EOF *between* frames is [`ReadOutcome::Closed`]; an EOF
//! *inside* a frame is [`WireError::TruncatedStream`].

use crate::wire::{crc32, decode_payload, Frame, FrameHeader, WireError, HEADER_LEN};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// What a poll-driven frame read produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete, validated frame.
    Frame(Frame),
    /// No bytes arrived within one socket timeout; nothing is buffered.
    Idle,
    /// The peer closed the stream at a frame boundary (clean close).
    Closed,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Write one frame and flush it.
///
/// # Errors
///
/// [`WireError::Io`] on any stream failure.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    let bytes = crate::wire::frame_bytes(frame);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Fill `buf` from `r`, honouring the frame `deadline` that started at
/// `t0` (or starts at the first byte if `t0` is `None`). Returns the number
/// of bytes read before a clean EOF with an empty buffer (0 only possible
/// when `stop_on_empty_eof`).
fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    t0: &mut Option<Instant>,
    deadline: Duration,
    idle_ok: bool,
) -> Result<Option<usize>, WireError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 && idle_ok {
                    return Ok(None); // clean EOF at the boundary
                }
                return Err(WireError::TruncatedStream);
            }
            Ok(n) => {
                got += n;
                if t0.is_none() {
                    *t0 = Some(Instant::now());
                }
            }
            Err(e) if is_timeout(&e) => {
                if got == 0 && idle_ok && t0.is_none() {
                    return Ok(Some(0)); // idle: nothing buffered yet
                }
                if t0.is_some_and(|t| t.elapsed() >= deadline) {
                    return Err(WireError::Stalled);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(got))
}

/// Read one frame, polling: the stream's own read timeout is the poll
/// granularity; `deadline` bounds how long a *started* frame may take.
///
/// # Errors
///
/// Any [`WireError`]; notably [`WireError::Stalled`] for slow-loris peers
/// and [`WireError::TruncatedStream`] for mid-frame disconnects.
pub fn read_frame<R: Read>(
    r: &mut R,
    max_payload: u32,
    deadline: Duration,
) -> Result<ReadOutcome, WireError> {
    let mut t0: Option<Instant> = None;
    let mut header = [0u8; HEADER_LEN];
    match read_full(r, &mut header, &mut t0, deadline, true)? {
        None => return Ok(ReadOutcome::Closed),
        Some(0) => return Ok(ReadOutcome::Idle),
        Some(_) => {}
    }
    let header = FrameHeader::parse(&header, max_payload)?;
    let mut payload = vec![0u8; header.payload_len as usize];
    read_full(r, &mut payload, &mut t0, deadline, false)?;
    let actual = crc32(&payload);
    if actual != header.payload_crc {
        return Err(WireError::ChecksumMismatch {
            expected: header.payload_crc,
            actual,
        });
    }
    Ok(ReadOutcome::Frame(decode_payload(
        header.frame_type,
        &payload,
    )?))
}

/// Read one frame, retrying idle polls until `overall` elapses — the
/// client-side "wait for my response" read.
///
/// # Errors
///
/// [`WireError::Io`] with [`std::io::ErrorKind::TimedOut`] if no frame
/// starts within `overall`; otherwise as [`read_frame`].
pub fn read_frame_timeout<R: Read>(
    r: &mut R,
    max_payload: u32,
    overall: Duration,
) -> Result<Frame, WireError> {
    let start = Instant::now();
    loop {
        match read_frame(r, max_payload, overall)? {
            ReadOutcome::Frame(f) => return Ok(f),
            ReadOutcome::Closed => return Err(WireError::TruncatedStream),
            ReadOutcome::Idle => {
                if start.elapsed() >= overall {
                    return Err(WireError::Io(
                        std::io::ErrorKind::TimedOut,
                        "timed out waiting for a frame".into(),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{frame_bytes, DEFAULT_MAX_PAYLOAD};

    #[test]
    fn in_memory_roundtrip() {
        let frame = Frame::Ping { nonce: 7 };
        let bytes = frame_bytes(&frame);
        let mut r = &bytes[..];
        match read_frame(&mut r, DEFAULT_MAX_PAYLOAD, Duration::from_secs(1)).unwrap() {
            ReadOutcome::Frame(f) => assert_eq!(f, frame),
            other => panic!("unexpected outcome {other:?}"),
        }
        // The stream is now at a clean boundary: EOF is Closed, not an error.
        match read_frame(&mut r, DEFAULT_MAX_PAYLOAD, Duration::from_secs(1)).unwrap() {
            ReadOutcome::Closed => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn eof_mid_frame_is_truncated_stream() {
        let bytes = frame_bytes(&Frame::Ping { nonce: 7 });
        let mut r = &bytes[..10];
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_PAYLOAD, Duration::from_secs(1)),
            Err(WireError::TruncatedStream)
        ));
    }
}
