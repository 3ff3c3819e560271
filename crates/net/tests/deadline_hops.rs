//! Deadline semantics at every hop (ISSUE satellite: deadline tests).
//!
//! The deadline is a *relative budget* in microseconds: each hop anchors
//! it to its own receive clock, so cross-process clock skew never matters.
//! These tests pin the contract at each anchor point:
//!
//! * a budget that cannot be met is shed with a typed `DeadlineExceeded`
//!   — never an error, never a hang, and never compute;
//! * a generous budget changes nothing: the answer is bit-identical to
//!   the deadline-free answer;
//! * when the budget dies mid-hedge, *both* attempts die with it — the
//!   forwarded decremented budgets make the replicas shed the stragglers;
//! * a frame in the retired v1 layout (no deadline field at all) is refused
//!   by its version byte, never mis-parsed, and the server keeps serving.

use slide_net::{
    ClientError, ErrorCode, FaultAction, FaultPlan, FaultProxy, FaultRule, FleetSpec, Frame,
    NetClient, NetConfig, NetServer, Router, RouterConfig, Trigger,
};
use slide_serve::{BatchConfig, BatchingServer, FrozenModel};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const K: usize = 5;

type QueryBattery = Vec<(Vec<u32>, Vec<f32>)>;

fn fixture() -> (Arc<dyn FrozenModel>, QueryBattery) {
    let spec = FleetSpec {
        seed: 42,
        epochs: 0,
        ..Default::default()
    };
    let (model, test) = spec.build();
    let queries = slide_net::query_battery(&test, 8);
    (model, queries)
}

fn serve(model: Arc<dyn FrozenModel>) -> (Arc<BatchingServer>, NetServer) {
    let batching = Arc::new(
        BatchingServer::start(
            model,
            BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
                queue_cap: 256,
                threads: 2,
            },
        )
        .expect("batch config"),
    );
    let net = NetServer::start(Arc::clone(&batching), "127.0.0.1:0", NetConfig::default())
        .expect("bind loopback");
    (batching, net)
}

/// A generous budget is semantically invisible: the budgeted answer is
/// bit-identical to the deadline-free answer, end to end through the
/// router.
#[test]
fn generous_deadline_answers_bit_equal_to_no_deadline() {
    let (model, queries) = fixture();
    let (_b1, net1) = serve(Arc::clone(&model));
    let (_b2, net2) = serve(model);
    let router = Router::start(
        "127.0.0.1:0",
        &[net1.local_addr(), net2.local_addr()],
        RouterConfig {
            health_interval: Duration::from_millis(50),
            ..Default::default()
        },
    )
    .expect("bind router");
    let mut plain = NetClient::connect(router.local_addr(), Duration::from_secs(5)).expect("c1");
    let mut budgeted = NetClient::connect(router.local_addr(), Duration::from_secs(5)).expect("c2");
    for (idx, val) in &queries {
        let want = plain.predict(idx, val, K).expect("deadline-free predict");
        let got = budgeted
            .predict_within(idx, val, K, 5_000_000)
            .expect("budgeted predict");
        assert_eq!(got, want, "a 5s budget must not change the answer");
    }
}

/// A 1 µs budget is gone by the time any hop can act on it: the client
/// gets a typed `DeadlineExceeded` promptly — not an error, not a
/// request_timeout-long hang.
#[test]
fn microscopic_deadline_is_shed_with_typed_frame() {
    let (model, queries) = fixture();
    let (batching, net) = serve(model);
    let router = Router::start(
        "127.0.0.1:0",
        &[net.local_addr()],
        RouterConfig {
            health_interval: Duration::from_millis(50),
            ..Default::default()
        },
    )
    .expect("bind router");
    // Through the router...
    let mut via_router =
        NetClient::connect(router.local_addr(), Duration::from_secs(5)).expect("router client");
    let (idx, val) = &queries[0];
    let t0 = Instant::now();
    match via_router.predict_within(idx, val, K, 1) {
        Err(ClientError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded via router, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "shed must be prompt, took {:?}",
        t0.elapsed()
    );
    // ...and straight at the daemon.
    let mut direct =
        NetClient::connect(net.local_addr(), Duration::from_secs(5)).expect("direct client");
    match direct.predict_within(idx, val, K, 1) {
        Err(ClientError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded direct, got {other:?}"),
    }
    // The daemon's batching stats account the shed explicitly.
    let stats = batching.stats();
    assert!(
        stats.deadline_exceeded >= 1,
        "replica must count its shed: {stats:?}"
    );
}

/// Both replicas sit behind always-stalling proxies. The budget expires
/// while the primary *and* the hedge are in flight: the client gets one
/// `DeadlineExceeded` near the deadline — not after the 2 s request
/// timeout, and not two replies.
#[test]
fn deadline_expiring_mid_hedge_cancels_both_attempts() {
    let (model, queries) = fixture();
    let (_b1, net1) = serve(Arc::clone(&model));
    let (_b2, net2) = serve(model);
    let stall_plan = || FaultPlan {
        seed: 11,
        client_to_server: Vec::new(),
        server_to_client: vec![FaultRule {
            trigger: Trigger::Always,
            action: FaultAction::Stall(Duration::from_secs(1)),
        }],
    };
    let p1 = FaultProxy::start(net1.local_addr(), stall_plan()).expect("proxy 1");
    let p2 = FaultProxy::start(net2.local_addr(), stall_plan()).expect("proxy 2");
    let router = Router::start(
        "127.0.0.1:0",
        &[p1.local_addr(), p2.local_addr()],
        RouterConfig {
            health_interval: Duration::from_millis(500),
            hedge_fraction: 0.25,
            ..Default::default()
        },
    )
    .expect("bind router");
    let mut client =
        NetClient::connect(router.local_addr(), Duration::from_secs(5)).expect("client");
    let (idx, val) = &queries[0];
    let t0 = Instant::now();
    match client.predict_within(idx, val, K, 120_000) {
        Err(ClientError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded mid-hedge, got {other:?}"),
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_millis(100),
        "shed cannot precede the deadline: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(600),
        "client must be answered near the 120ms deadline, not the 2s \
         request timeout: {elapsed:?}"
    );
    // The hedge fired (and died with the primary).
    let hub = router.obs();
    let counter = |name: &str| hub.registry().counter(name).get();
    assert!(
        counter("slide_router_hedges_total") >= 1,
        "expected a hedge attempt"
    );
    assert_eq!(
        counter("slide_router_deadline_exceeded_total"),
        1,
        "router must count the shed"
    );
}

/// Hand-written v1 `Predict` bytes on a raw socket (the retired layout: no
/// deadline, no trace id) are answered `Error(Protocol)` naming version 1 —
/// refused from the header, not parsed under today's layout — and the next
/// client on the same server is served bit-equal.
#[test]
fn v1_stamped_predict_is_refused_by_version_and_the_server_keeps_serving() {
    let (model, queries) = fixture();
    let (_batching, net) = serve(model);
    let (idx, val) = &queries[0];
    let mut before =
        NetClient::connect(net.local_addr(), Duration::from_secs(5)).expect("first client");
    let want = before.predict(idx, val, K).expect("first predict");

    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_le_bytes()); // req_id
    payload.extend_from_slice(&(K as u32).to_le_bytes());
    payload.extend_from_slice(&(idx.len() as u32).to_le_bytes());
    for &i in idx {
        payload.extend_from_slice(&i.to_le_bytes());
    }
    for &v in val {
        payload.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&slide_net::MAGIC.to_le_bytes());
    bytes.push(1); // the retired version
    bytes.push(1); // Predict
    bytes.extend_from_slice(&[0, 0]);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&slide_net::crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);

    let mut raw = TcpStream::connect(net.local_addr()).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    std::io::Write::write_all(&mut raw, &bytes).expect("send v1 frame");
    let reply = slide_net::read_frame_timeout(
        &mut raw,
        slide_net::DEFAULT_MAX_PAYLOAD,
        Duration::from_secs(5),
    )
    .expect("a v1 frame must get a reply");
    match reply {
        Frame::Error {
            req_id: 0,
            code: ErrorCode::Protocol,
            message,
        } => assert!(message.contains("version 1"), "{message}"),
        other => panic!("expected Error(Protocol) for a v1 frame, got {other:?}"),
    }

    let mut after =
        NetClient::connect(net.local_addr(), Duration::from_secs(5)).expect("next client");
    assert_eq!(after.predict(idx, val, K).expect("next predict"), want);
}
