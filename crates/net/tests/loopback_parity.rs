//! Socket-vs-in-process equivalence (ISSUE satellite: loopback parity).
//!
//! The serving salt is content-derived (`slide_serve::query_salt`), so the
//! answer to a query must be **bit-identical** whether it is computed
//! in-process on the model, through the batching server, or across a TCP
//! socket — for every engine precision and shard count, and no matter how
//! many connection threads are hammering the server at once. A query the
//! engine refuses (non-finite feature values) is refused the same way on
//! every path.

use slide_mem::SparseVecRef;
use slide_net::{
    ClientError, ErrorCode, FleetPrecision, FleetSpec, NetClient, NetConfig, NetServer, Router,
    RouterConfig,
};
use slide_serve::{query_salt, BatchConfig, BatchingServer, FrozenModel, ServeError};
use std::sync::Arc;
use std::time::Duration;

const K: usize = 5;

type QueryBattery = Vec<(Vec<u32>, Vec<f32>)>;

/// In-process ground truth for a query battery.
fn expected_topk(model: &Arc<dyn FrozenModel>, queries: &[(Vec<u32>, Vec<f32>)]) -> Vec<Vec<u32>> {
    let mut scratch = model.make_scratch_any();
    queries
        .iter()
        .map(|(idx, val)| {
            let salt = query_salt(idx, val, K);
            model.predict_any(SparseVecRef::new(idx, val), K, &mut *scratch, salt)
        })
        .collect()
}

fn battery(spec: &FleetSpec, n: usize) -> (Arc<dyn FrozenModel>, QueryBattery) {
    let (model, test) = spec.build();
    let queries = slide_net::query_battery(&test, n);
    (model, queries)
}

fn serve(model: Arc<dyn FrozenModel>, threads: usize) -> (Arc<BatchingServer>, NetServer) {
    let batching = Arc::new(
        BatchingServer::start(
            model,
            BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
                queue_cap: 256,
                threads,
            },
        )
        .expect("batch config"),
    );
    let net = NetServer::start(Arc::clone(&batching), "127.0.0.1:0", NetConfig::default())
        .expect("bind loopback");
    (batching, net)
}

/// One parity pass: every socket answer must equal the in-process answer.
fn assert_socket_parity(spec: FleetSpec) {
    let (model, queries) = battery(&spec, 24);
    let expected = expected_topk(&model, &queries);
    let (_batching, net) = serve(model, 2);
    let mut client = NetClient::connect(net.local_addr(), Duration::from_secs(5)).expect("connect");
    for (i, ((idx, val), want)) in queries.iter().zip(&expected).enumerate() {
        let got = client.predict(idx, val, K).expect("socket predict");
        assert_eq!(
            &got, want,
            "query {i} differs between socket and in-process"
        );
    }
}

#[test]
fn socket_topk_is_bit_equal_to_in_process_f32() {
    assert_socket_parity(FleetSpec {
        precision: FleetPrecision::F32,
        shards: 0,
        ..Default::default()
    });
}

#[test]
fn socket_topk_is_bit_equal_to_in_process_i8() {
    assert_socket_parity(FleetSpec {
        precision: FleetPrecision::I8,
        shards: 0,
        ..Default::default()
    });
}

#[test]
fn socket_topk_is_bit_equal_to_in_process_sharded() {
    assert_socket_parity(FleetSpec {
        precision: FleetPrecision::F32,
        shards: 3,
        ..Default::default()
    });
}

/// Inside the daemon several batching workers score concurrently on one
/// shared sharded engine while connection threads keep the queue full —
/// each worker walks the shards inline with its own scratch, and every
/// answer must stay bit-identical to the single-threaded one. Eight
/// connection threads × many requests against a 4-worker server over a
/// 3-shard engine; any cross-worker interference fails the assert.
#[test]
fn sharded_answers_stay_bit_identical_under_connection_contention() {
    let spec = FleetSpec {
        precision: FleetPrecision::F32,
        shards: 3,
        ..Default::default()
    };
    let (model, queries) = battery(&spec, 16);
    let expected = expected_topk(&model, &queries);
    let (_batching, net) = serve(model, 4);
    let addr = net.local_addr();
    std::thread::scope(|scope| {
        for conn in 0..8 {
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                let mut client =
                    NetClient::connect(addr, Duration::from_secs(10)).expect("connect");
                // Interleave differently per connection so batches mix
                // queries in every order.
                for round in 0..6 {
                    for i in 0..queries.len() {
                        let i = (i * 3 + conn + round) % queries.len();
                        let (idx, val) = &queries[i];
                        let got = client.predict(idx, val, K).expect("socket predict");
                        assert_eq!(
                            &got, &expected[i],
                            "conn {conn} round {round} query {i}: answer diverged under contention"
                        );
                    }
                }
            });
        }
    });
    let t = net.stats().totals;
    assert_eq!(t.ok, 8 * 6 * 16, "every request must be answered");
    assert_eq!(
        t.requests,
        t.ok + t.invalid + t.retry_later + t.deadline_exceeded + t.unavailable
    );
}

/// NaN / ±inf feature values poison every logit, and a ranking of garbage is
/// not an answer: the engine's `validate_query` refuses them, so the
/// batching server answers `Invalid` in process and the socket carries the
/// same refusal as an `Invalid` error frame — for both precisions, without
/// costing the connection.
#[test]
fn non_finite_values_are_invalid_in_process_and_over_the_socket() {
    for precision in [FleetPrecision::F32, FleetPrecision::I8] {
        let spec = FleetSpec {
            precision,
            ..Default::default()
        };
        let (model, _) = battery(&spec, 1);
        let (batching, net) = serve(model, 2);
        let mut client =
            NetClient::connect(net.local_addr(), Duration::from_secs(5)).expect("connect");
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let in_process = batching.predict(&[1, 17], &[1.0, bad], K);
            assert!(
                matches!(in_process, Err(ServeError::Invalid(_))),
                "{precision:?} in-process answered {in_process:?} to a {bad} feature"
            );
            let socket = client.predict(&[1, 17], &[1.0, bad], K);
            assert!(
                matches!(
                    socket,
                    Err(ClientError::Server {
                        code: ErrorCode::Invalid,
                        ..
                    })
                ),
                "{precision:?} socket answered {socket:?} to a {bad} feature"
            );
        }
        let ok = client.predict(&[1, 17], &[1.0, 0.5], K);
        assert_eq!(ok.expect("finite query after refusals").len(), K);
    }
}

/// An in-process two-replica fleet behind a router: answers through the
/// router are bit-identical too (content-derived salt makes replicas
/// interchangeable), and draining one replica only ever soft-sheds.
#[test]
fn router_parity_over_two_in_process_replicas() {
    let spec = FleetSpec {
        precision: FleetPrecision::F32,
        shards: 0,
        ..Default::default()
    };
    let (model, queries) = battery(&spec, 16);
    let expected = expected_topk(&model, &queries);
    let (_b1, net1) = serve(Arc::clone(&model), 2);
    let (_b2, mut net2) = serve(model, 2);
    let router = Router::start(
        "127.0.0.1:0",
        &[net1.local_addr(), net2.local_addr()],
        RouterConfig {
            health_interval: Duration::from_millis(50),
            ..Default::default()
        },
    )
    .expect("bind router");
    let mut client =
        NetClient::connect(router.local_addr(), Duration::from_secs(5)).expect("connect");
    for ((idx, val), want) in queries.iter().zip(&expected) {
        let got = client.predict(idx, val, K).expect("routed predict");
        assert_eq!(&got, want, "routed answer differs from in-process");
    }
    // Drain replica 2; after the health thread notices, every query must
    // still get the same bit-identical answer from replica 1.
    net2.drain();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(router.healthy_replicas(), 1);
    for ((idx, val), want) in queries.iter().zip(&expected) {
        let got = client.predict(idx, val, K).expect("failover predict");
        assert_eq!(&got, want, "failover answer differs from in-process");
    }
    assert_eq!(router.healthy_replicas(), 1);
}
