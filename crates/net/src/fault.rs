//! Deterministic fault injection at the frame boundary: a TCP proxy that
//! sits between a wire-protocol client and server and applies a seeded
//! [`FaultPlan`] — delay, drop, corrupt, stall, or close, per direction,
//! triggered on specific frames.
//!
//! The proxy understands just enough of the wire format to find frame
//! boundaries ([`crate::wire::FrameHeader`] + payload), so faults land on
//! *whole frames*: a dropped frame vanishes cleanly, a corrupted frame
//! fails its CRC downstream, a stalled frame reproduces a slow-loris peer
//! (half the bytes, a pause, then the rest). Every decision is a pure
//! function of `(plan seed, connection, direction, frame number)` — rerun
//! the same scenario and the same frames are hit, which is what makes the
//! chaos suite debuggable instead of flaky.
//!
//! ```text
//! client ──▶ FaultProxy ──▶ server      (client_to_server rules)
//! client ◀── FaultProxy ◀── server      (server_to_client rules)
//! ```

use crate::daemon::unit_fraction;
use crate::listener::Listener;
use crate::wire::{FrameHeader, DEFAULT_MAX_PAYLOAD, HEADER_LEN};
use slide_core::mix::mix64;
use slide_obs::{Counter, ObsHub};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What to do to a triggered frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Hold the whole frame for this long, then forward it intact.
    Delay(Duration),
    /// Swallow the frame entirely.
    Drop,
    /// Flip one payload byte (seeded position) so the downstream CRC
    /// check rejects the frame as a typed `ChecksumMismatch`.
    Corrupt,
    /// Slow-loris: forward half the frame's bytes, pause this long, then
    /// forward the rest.
    Stall(Duration),
    /// Shut the connection down mid-stream.
    Close,
}

/// When a rule fires, counted per connection and direction (frame numbers
/// start at 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Exactly the `n`-th frame.
    Nth(u64),
    /// Every `n`-th frame (n, 2n, 3n, ...).
    EveryNth(u64),
    /// Each frame independently with probability `p`, decided by the
    /// plan's seed — deterministic for a given (seed, connection, frame).
    Probability(f64),
    /// Every frame.
    Always,
}

/// One trigger → action pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// When the rule fires.
    pub trigger: Trigger,
    /// What happens to the frame.
    pub action: FaultAction,
}

/// Which way a frame is travelling through the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Requests: client → server.
    ClientToServer,
    /// Replies: server → client.
    ServerToClient,
}

/// A seeded, per-direction fault schedule. The first matching rule wins.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for probabilistic triggers and corrupt-byte positions.
    pub seed: u64,
    /// Rules applied to frames flowing client → server.
    pub client_to_server: Vec<FaultRule>,
    /// Rules applied to frames flowing server → client.
    pub server_to_client: Vec<FaultRule>,
}

impl FaultPlan {
    /// The action (if any) for frame `frame_n` (1-based) on connection
    /// `conn` in `dir`. Pure: same inputs, same verdict.
    pub fn decide(&self, dir: Direction, conn: u64, frame_n: u64) -> Option<FaultAction> {
        let rules = match dir {
            Direction::ClientToServer => &self.client_to_server,
            Direction::ServerToClient => &self.server_to_client,
        };
        let dir_bit = match dir {
            Direction::ClientToServer => 0u64,
            Direction::ServerToClient => 1u64,
        };
        rules
            .iter()
            .find(|rule| match rule.trigger {
                Trigger::Nth(n) => frame_n == n,
                Trigger::EveryNth(n) => n > 0 && frame_n.is_multiple_of(n),
                Trigger::Probability(p) => {
                    let h = mix64(self.seed ^ mix64(conn) ^ (frame_n << 1) ^ dir_bit);
                    unit_fraction(h) < p
                }
                Trigger::Always => true,
            })
            .map(|rule| rule.action)
    }

    /// Seeded position of the byte [`FaultAction::Corrupt`] flips within
    /// a frame's payload (or within the header CRC field when the payload
    /// is empty).
    fn corrupt_pos(&self, conn: u64, frame_n: u64, payload_len: usize) -> usize {
        let h = mix64(self.seed ^ conn.rotate_left(17) ^ frame_n);
        if payload_len == 0 {
            // No payload bytes to flip: damage the CRC field instead so
            // the mismatch is still a payload-integrity failure.
            HEADER_LEN - 4 + (h as usize % 4)
        } else {
            HEADER_LEN + (h as usize % payload_len)
        }
    }
}

/// Monotonic counters for every fault the proxy applied (plus clean
/// forwards), drained via [`FaultProxy::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames forwarded untouched.
    pub forwarded: u64,
    /// Frames delayed then forwarded.
    pub delayed: u64,
    /// Frames swallowed.
    pub dropped: u64,
    /// Frames forwarded with a flipped byte.
    pub corrupted: u64,
    /// Frames forwarded with a mid-frame pause.
    pub stalled: u64,
    /// Connections closed mid-stream by rule.
    pub closed: u64,
}

/// Registry-backed fault counters: each proxy owns a hub, so chaos runs can
/// be scraped like any serving tier (`slide_fault_*_total` families).
struct StatsInner {
    hub: Arc<ObsHub>,
    forwarded: Arc<Counter>,
    delayed: Arc<Counter>,
    dropped: Arc<Counter>,
    corrupted: Arc<Counter>,
    stalled: Arc<Counter>,
    closed: Arc<Counter>,
}

impl StatsInner {
    fn new(hub: Arc<ObsHub>) -> Self {
        let r = hub.registry();
        StatsInner {
            forwarded: r.counter("slide_fault_forwarded_total"),
            delayed: r.counter("slide_fault_delayed_total"),
            dropped: r.counter("slide_fault_dropped_total"),
            corrupted: r.counter("slide_fault_corrupted_total"),
            stalled: r.counter("slide_fault_stalled_total"),
            closed: r.counter("slide_fault_closed_total"),
            hub,
        }
    }
}

struct ProxyShared {
    plan: FaultPlan,
    upstream: SocketAddr,
    /// The listener's stop flag: pumps give up at the next poll once set.
    stop: Arc<AtomicBool>,
    stats: StatsInner,
}

/// A frame-aware TCP fault injector: accepts on an OS-assigned loopback
/// port, proxies to `upstream`, applies the plan. Dropping it closes the
/// listener and joins every pump thread.
pub struct FaultProxy {
    shared: Arc<ProxyShared>,
    listener: Listener,
}

impl FaultProxy {
    /// Bind a loopback port and start proxying to `upstream` under `plan`.
    ///
    /// # Errors
    ///
    /// Any bind/spawn failure, as `std::io::Error`.
    pub fn start(upstream: SocketAddr, plan: FaultPlan) -> std::io::Result<FaultProxy> {
        let mut listener = Listener::bind("127.0.0.1:0")?;
        let shared = Arc::new(ProxyShared {
            plan,
            upstream,
            stop: listener.stop_flag(),
            stats: StatsInner::new(ObsHub::shared()),
        });
        let accepting = Arc::clone(&shared);
        let mut conn_n = 0u64;
        listener.start("slide-fault", Duration::from_millis(5), move |downstream| {
            // Numbered in accept order, so a plan hits the same frames of
            // the same connection on every run.
            conn_n += 1;
            let conn_seed = mix64(accepting.plan.seed ^ conn_n);
            let shared = Arc::clone(&accepting);
            Some(move || proxy_connection(&shared, conn_seed, downstream))
        })?;
        Ok(FaultProxy { shared, listener })
    }

    /// The proxy's listening address — point clients (or the router) here.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Snapshot of the fault counters.
    pub fn stats(&self) -> FaultStats {
        let s = &self.shared.stats;
        FaultStats {
            forwarded: s.forwarded.get(),
            delayed: s.delayed.get(),
            dropped: s.dropped.get(),
            corrupted: s.corrupted.get(),
            stalled: s.stalled.get(),
            closed: s.closed.get(),
        }
    }

    /// The proxy's observability hub (for scraping `slide_fault_*` series).
    pub fn obs(&self) -> Arc<ObsHub> {
        Arc::clone(&self.shared.stats.hub)
    }
}

/// Connect upstream and pump both directions until either side closes. A
/// refused upstream drops the client connection.
fn proxy_connection(shared: &ProxyShared, conn_seed: u64, downstream: TcpStream) {
    let Ok(upstream) = TcpStream::connect_timeout(&shared.upstream, Duration::from_secs(1)) else {
        return;
    };
    let (Ok(down2), Ok(up2)) = (downstream.try_clone(), upstream.try_clone()) else {
        return;
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            pump(
                shared,
                Direction::ServerToClient,
                conn_seed,
                upstream,
                downstream,
            )
        });
        pump(shared, Direction::ClientToServer, conn_seed, down2, up2);
    });
}

/// Fill `buf` from a socket whose read timeout is the poll interval,
/// checking the stop flag between polls. `Ok(false)` = clean EOF before
/// any byte of `buf`.
fn read_full(
    shared: &ProxyShared,
    stream: &mut TcpStream,
    buf: &mut [u8],
) -> std::io::Result<bool> {
    let mut got = 0usize;
    while got < buf.len() {
        if shared.stop.load(Ordering::Acquire) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Shovel whole frames `from` → `to`, applying the plan's rules for `dir`.
fn pump(
    shared: &ProxyShared,
    dir: Direction,
    conn_seed: u64,
    mut from: TcpStream,
    mut to: TcpStream,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(25)));
    let _ = to.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = to.set_nodelay(true);
    let mut frame_n = 0u64;
    let close_both = |a: &TcpStream, b: &TcpStream| {
        let _ = a.shutdown(std::net::Shutdown::Both);
        let _ = b.shutdown(std::net::Shutdown::Both);
    };
    loop {
        let mut header = [0u8; HEADER_LEN];
        match read_full(shared, &mut from, &mut header) {
            Ok(true) => {}
            // Clean EOF: propagate the half-close downstream so the peer
            // sees exactly what the origin did.
            Ok(false) | Err(_) => {
                close_both(&from, &to);
                return;
            }
        }
        // Frame boundary discovery only — a header the codec rejects is
        // forwarded verbatim and the downstream peer raises the error.
        let payload_len = match FrameHeader::parse(&header, DEFAULT_MAX_PAYLOAD) {
            Ok(h) => h.payload_len as usize,
            Err(_) => {
                if to.write_all(&header).is_err() {
                    close_both(&from, &to);
                    return;
                }
                continue;
            }
        };
        let mut frame = header.to_vec();
        frame.resize(HEADER_LEN + payload_len, 0);
        if !matches!(
            read_full(shared, &mut from, &mut frame[HEADER_LEN..]),
            Ok(true)
        ) {
            close_both(&from, &to);
            return;
        }
        frame_n += 1;
        let action = shared.plan.decide(dir, conn_seed, frame_n);
        let stats = &shared.stats;
        let wrote = match action {
            None => {
                stats.forwarded.inc();
                to.write_all(&frame)
            }
            Some(FaultAction::Delay(d)) => {
                stats.delayed.inc();
                std::thread::sleep(d);
                to.write_all(&frame)
            }
            Some(FaultAction::Drop) => {
                stats.dropped.inc();
                Ok(())
            }
            Some(FaultAction::Corrupt) => {
                stats.corrupted.inc();
                let pos = shared.plan.corrupt_pos(conn_seed, frame_n, payload_len);
                frame[pos] ^= 0xFF;
                to.write_all(&frame)
            }
            Some(FaultAction::Stall(d)) => {
                stats.stalled.inc();
                let half = frame.len() / 2;
                to.write_all(&frame[..half])
                    .and_then(|()| to.flush())
                    .map(|()| std::thread::sleep(d))
                    .and_then(|()| to.write_all(&frame[half..]))
            }
            Some(FaultAction::Close) => {
                stats.closed.inc();
                close_both(&from, &to);
                return;
            }
        };
        if wrote.is_err() || to.flush().is_err() {
            close_both(&from, &to);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_is_deterministic_and_first_match_wins() {
        let plan = FaultPlan {
            seed: 9,
            client_to_server: vec![
                FaultRule {
                    trigger: Trigger::Nth(3),
                    action: FaultAction::Drop,
                },
                FaultRule {
                    trigger: Trigger::Always,
                    action: FaultAction::Corrupt,
                },
            ],
            server_to_client: vec![],
        };
        // First matching rule wins; later frames fall through to Always.
        assert_eq!(
            plan.decide(Direction::ClientToServer, 1, 3),
            Some(FaultAction::Drop)
        );
        assert_eq!(
            plan.decide(Direction::ClientToServer, 1, 4),
            Some(FaultAction::Corrupt)
        );
        // The other direction has no rules.
        assert_eq!(plan.decide(Direction::ServerToClient, 1, 3), None);
        // Re-asking gives the same verdict.
        assert_eq!(
            plan.decide(Direction::ClientToServer, 1, 3),
            plan.decide(Direction::ClientToServer, 1, 3)
        );
    }

    #[test]
    fn probability_trigger_is_seeded_and_roughly_calibrated() {
        let plan = FaultPlan {
            seed: 1234,
            client_to_server: vec![FaultRule {
                trigger: Trigger::Probability(0.25),
                action: FaultAction::Drop,
            }],
            server_to_client: vec![],
        };
        let hits = (1..=4000u64)
            .filter(|&n| plan.decide(Direction::ClientToServer, 7, n).is_some())
            .count();
        // ~1000 expected; a generous band keeps this robust to any seed.
        assert!((600..1400).contains(&hits), "hit rate off: {hits}/4000");
        // Same seed, same schedule; different connection, different one.
        let again = (1..=4000u64)
            .filter(|&n| plan.decide(Direction::ClientToServer, 7, n).is_some())
            .count();
        assert_eq!(hits, again);
        let other_conn: Vec<u64> = (1..=100u64)
            .filter(|&n| plan.decide(Direction::ClientToServer, 8, n).is_some())
            .collect();
        let this_conn: Vec<u64> = (1..=100u64)
            .filter(|&n| plan.decide(Direction::ClientToServer, 7, n).is_some())
            .collect();
        assert_ne!(other_conn, this_conn);
    }

    #[test]
    fn every_nth_trigger_hits_multiples_only() {
        let plan = FaultPlan {
            seed: 0,
            client_to_server: vec![],
            server_to_client: vec![FaultRule {
                trigger: Trigger::EveryNth(3),
                action: FaultAction::Stall(Duration::from_millis(1)),
            }],
        };
        let hit: Vec<u64> = (1..=9u64)
            .filter(|&n| plan.decide(Direction::ServerToClient, 1, n).is_some())
            .collect();
        assert_eq!(hit, vec![3, 6, 9]);
    }

    #[test]
    fn corrupt_pos_lands_in_payload_or_crc() {
        let plan = FaultPlan {
            seed: 5,
            ..Default::default()
        };
        for frame_n in 1..50 {
            let pos = plan.corrupt_pos(3, frame_n, 40);
            assert!((HEADER_LEN..HEADER_LEN + 40).contains(&pos));
            let pos0 = plan.corrupt_pos(3, frame_n, 0);
            assert!((HEADER_LEN - 4..HEADER_LEN).contains(&pos0));
        }
    }
}
