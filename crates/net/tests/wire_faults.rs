//! Fault-injection battery against a **live** [`NetServer`] (ISSUE
//! satellite: wire faults).
//!
//! Every malformed-peer scenario — truncated frames, oversized length
//! prefixes, bad magic/version, corrupted checksums, mid-frame
//! disconnects, slow-loris partial writes — must end in a typed protocol
//! error or a clean close, **never** a server panic or hang. Each case
//! runs under a watchdog, and after each fault the same server must still
//! answer a well-formed request (no poisoned state).

use slide_mem::SparseVecRef;
use slide_net::wire::{crc32, frame_bytes, ErrorCode, Frame, MAGIC, VERSION};
use slide_net::{ClientError, FleetSpec, NetClient, NetConfig, NetServer};
use slide_serve::{BatchConfig, BatchingServer, FrozenModel};
use std::any::Any;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Run `f` on a helper thread; panic if it does not finish in 10 s. The
/// server lives inside the closure so a hang cannot outlive the test
/// either.
fn watchdog<F: FnOnce() + Send + 'static>(name: &str, f: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let t = std::thread::Builder::new()
        .name(format!("watchdog-{name}"))
        .spawn(move || {
            f();
            let _ = tx.send(());
        })
        .expect("spawn watchdog thread");
    rx.recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("scenario '{name}' hung past the watchdog"));
    t.join().expect("scenario thread panicked");
}

/// A live server over an untrained (epochs: 0, still deterministic) model,
/// with a short frame deadline so slow-loris cases resolve quickly.
fn live_server() -> NetServer {
    let (model, _) = FleetSpec {
        epochs: 0,
        ..Default::default()
    }
    .build();
    let batching = Arc::new(
        BatchingServer::start(
            model,
            BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                queue_cap: 32,
                threads: 1,
            },
        )
        .expect("batch config"),
    );
    NetServer::start(
        batching,
        "127.0.0.1:0",
        NetConfig {
            poll_interval: Duration::from_millis(20),
            frame_deadline: Duration::from_millis(300),
            ..Default::default()
        },
    )
    .expect("bind loopback")
}

/// A raw attacker socket (no protocol smarts).
fn raw_conn(server: &NetServer) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// Drain whatever the server sends until it closes our socket; proves the
/// server actively hung up (vs. leaving the connection dangling).
fn read_until_close(s: &mut TcpStream) -> Vec<u8> {
    let mut all = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return all,
            Ok(n) => all.extend_from_slice(&buf[..n]),
            Err(_) => return all, // timeout/reset: connection is dead either way
        }
    }
}

/// After a fault, the server must still serve: one good request, checked.
fn assert_still_serving(server: &NetServer) {
    let mut client =
        NetClient::connect(server.local_addr(), Duration::from_secs(5)).expect("reconnect");
    let topk = client
        .predict(&[1, 5, 9], &[1.0, 0.5, 0.25], 3)
        .expect("healthy request after fault");
    assert_eq!(topk.len(), 3);
}

fn total_protocol_errors(server: &NetServer) -> u64 {
    server.stats().totals.protocol_errors
}

/// A Frame::Error on the wire starts with type byte 3 at header offset 5
/// (magic 4 + version 1).
fn server_sent_error_frame(reply: &[u8]) -> bool {
    reply.len() >= 16 && reply[5] == 3
}

#[test]
fn truncated_frame_is_rejected_without_hanging() {
    watchdog("truncated-frame", || {
        let server = live_server();
        let mut s = raw_conn(&server);
        let good = frame_bytes(&Frame::Ping { nonce: 1 });
        // Claim the full frame, deliver half, shut down the write side:
        // mid-frame disconnect.
        s.write_all(&good[..good.len() / 2]).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        read_until_close(&mut s);
        assert!(total_protocol_errors(&server) >= 1);
        assert_still_serving(&server);
    });
}

#[test]
fn oversized_length_prefix_is_rejected_at_the_header() {
    watchdog("oversized-prefix", || {
        let server = live_server();
        let mut s = raw_conn(&server);
        // A header promising a 64 MiB payload: rejected before any payload
        // bytes are read (we never send any).
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC.to_le_bytes());
        header.push(VERSION);
        header.push(5); // Ping
        header.extend_from_slice(&0u16.to_le_bytes());
        header.extend_from_slice(&(64u32 << 20).to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        s.write_all(&header).unwrap();
        let reply = read_until_close(&mut s);
        assert!(
            server_sent_error_frame(&reply),
            "want a typed protocol error"
        );
        assert!(total_protocol_errors(&server) >= 1);
        assert_still_serving(&server);
    });
}

#[test]
fn bad_magic_and_bad_version_are_typed_rejections() {
    watchdog("bad-magic-version", || {
        let server = live_server();
        // (what, header offset, byte written there); 2 is a retired
        // version and 7/8 the retired stats pair's type bytes.
        for (label, offset, byte) in [
            ("magic", 0usize, 0xFFu8),
            ("version", 4, VERSION ^ 0xFF),
            ("version", 4, 2),
            ("frame type", 5, 7),
            ("frame type", 5, 8),
        ] {
            let mut s = raw_conn(&server);
            let mut bytes = frame_bytes(&Frame::Ping { nonce: 2 });
            bytes[offset] = byte;
            s.write_all(&bytes).unwrap();
            let reply = read_until_close(&mut s);
            assert!(
                server_sent_error_frame(&reply),
                "bad {label} {byte}: want a typed protocol error"
            );
        }
        assert_eq!(total_protocol_errors(&server), 5);
        assert_still_serving(&server);
    });
}

#[test]
fn corrupted_checksum_is_detected() {
    watchdog("corrupt-checksum", || {
        let server = live_server();
        let mut s = raw_conn(&server);
        let mut bytes = frame_bytes(&Frame::Ping { nonce: 3 });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip one payload bit; header CRC now lies
        assert_ne!(
            crc32(&bytes[16..]),
            crc32(&frame_bytes(&Frame::Ping { nonce: 3 })[16..])
        );
        s.write_all(&bytes).unwrap();
        let reply = read_until_close(&mut s);
        assert!(server_sent_error_frame(&reply), "want checksum rejection");
        assert!(total_protocol_errors(&server) >= 1);
        assert_still_serving(&server);
    });
}

#[test]
fn slow_loris_partial_write_is_cut_off_at_the_deadline() {
    watchdog("slow-loris", || {
        let server = live_server();
        let mut s = raw_conn(&server);
        let bytes = frame_bytes(&Frame::Ping { nonce: 4 });
        // Drip two bytes, then stall well past the 300 ms frame deadline
        // while keeping the socket open — the classic slow-loris posture.
        s.write_all(&bytes[..2]).unwrap();
        std::thread::sleep(Duration::from_millis(700));
        // The server must have hung up on us by now.
        let reply = read_until_close(&mut s);
        // Stalls get no courtesy reply — just the close.
        assert!(
            reply.is_empty(),
            "stall should close silently, got {reply:?}"
        );
        assert!(total_protocol_errors(&server) >= 1);
        assert_still_serving(&server);
    });
}

#[test]
fn client_sending_a_server_only_frame_is_rejected() {
    watchdog("server-only-frame", || {
        let server = live_server();
        let mut s = raw_conn(&server);
        s.write_all(&frame_bytes(&Frame::TopK {
            req_id: 9,
            ids: vec![1, 2],
        }))
        .unwrap();
        let reply = read_until_close(&mut s);
        assert!(server_sent_error_frame(&reply), "want a protocol error");
        assert!(total_protocol_errors(&server) >= 1);
        assert_still_serving(&server);
    });
}

#[test]
fn idle_connection_survives_until_drain_then_closes_cleanly() {
    watchdog("idle-then-drain", || {
        let mut server = live_server();
        let mut s = raw_conn(&server);
        // Idle well past several poll intervals: the connection must stay
        // open (idleness is not a fault).
        std::thread::sleep(Duration::from_millis(200));
        s.write_all(&frame_bytes(&Frame::Ping { nonce: 5 }))
            .unwrap();
        let mut first = [0u8; 1];
        s.read_exact(&mut first).expect("pong after idling");
        // Now drain the server: the idle connection closes at its next
        // frame boundary, with zero protocol errors charged to it.
        server.drain();
        assert!(server.is_draining());
        read_until_close(&mut s);
    });
}

/// The fleet model, except that a query whose first feature is `.1` panics
/// inside the engine.
#[derive(Debug)]
struct PanicsOn(Arc<dyn FrozenModel>, u32);

impl FrozenModel for PanicsOn {
    fn precision(&self) -> &'static str {
        self.0.precision()
    }
    fn input_dim(&self) -> usize {
        self.0.input_dim()
    }
    fn output_dim(&self) -> usize {
        self.0.output_dim()
    }
    fn arena_bytes(&self) -> usize {
        self.0.arena_bytes()
    }
    fn validate_query(&self, indices: &[u32], values: &[f32]) -> Result<(), String> {
        self.0.validate_query(indices, values)
    }
    fn make_scratch_any(&self) -> Box<dyn Any + Send> {
        self.0.make_scratch_any()
    }
    fn predict_any(
        &self,
        x: SparseVecRef<'_>,
        k: usize,
        scratch: &mut (dyn Any + Send),
        salt: u64,
    ) -> Vec<u32> {
        assert_ne!(x.indices[0], self.1, "injected model panic");
        self.0.predict_any(x, k, scratch, salt)
    }
}

#[test]
fn a_model_panic_is_answered_as_unavailable_and_leaves_no_gauge_stuck() {
    // Scoring runs on the connection thread: a panic there must still end
    // in a typed reply and a clean close, with `inflight` and
    // `connections_active` back at zero.
    watchdog("model-panic", || {
        let (model, _) = FleetSpec {
            epochs: 0,
            ..Default::default()
        }
        .build();
        let batching =
            BatchingServer::start(PanicsOn(model, 7), BatchConfig::default()).expect("config");
        let server = NetServer::start(Arc::new(batching), "127.0.0.1:0", NetConfig::default())
            .expect("bind loopback");
        let mut client =
            NetClient::connect(server.local_addr(), Duration::from_secs(5)).expect("connect");
        assert_eq!(client.predict(&[1, 5], &[1.0, 0.5], 3).unwrap().len(), 3);
        match client.predict(&[7, 9], &[1.0, 0.5], 3) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Unavailable),
            other => panic!("expected a typed Unavailable reply, got {other:?}"),
        }
        // The engine is closed for good; a fresh connection hears the same.
        let mut again =
            NetClient::connect(server.local_addr(), Duration::from_secs(5)).expect("reconnect");
        assert_eq!(again.ping(1).expect("still answering pings").inflight, 0);
        assert!(again.predict(&[1, 5], &[1.0, 0.5], 3).is_err());
        drop((client, again));
        while server.stats().connections_active > 0 {
            std::thread::yield_now();
        }
        let stats = server.stats();
        assert_eq!(stats.inflight, 0);
        // Every Predict frame has exactly one outcome, the panicked one and
        // the one refused after it included.
        let t = stats.totals;
        assert_eq!((t.requests, t.ok, t.unavailable), (3, 1, 2), "{t:?}");
        assert_eq!(
            t.requests,
            t.ok + t.invalid + t.retry_later + t.deadline_exceeded + t.unavailable
        );
    });
}
