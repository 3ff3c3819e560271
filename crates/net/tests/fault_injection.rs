//! The ISSUE's chaos acceptance run: a three-replica fleet where one
//! replica stalls every third reply frame mid-write and another silently
//! drops 10% of incoming request frames — both behind deterministic,
//! seeded [`FaultProxy`]s — while an open-loop, deadline-bearing load runs
//! through a hedging router with per-replica circuit breakers.
//!
//! The contract under fire:
//! * **zero hard client errors** — every injected fault surfaces as a
//!   hedged answer, an explicit `RetryLater`, or a typed
//!   `DeadlineExceeded`; never a broken reply, never a hang;
//! * **full accounting** — `sent == ok + retry_later + deadline_exceeded
//!   + hard_errors + reconnects`, nothing lost;
//! * **bit-equality** — every `Ok` answer equals the in-process engine's
//!   answer for that query (the content-derived `query_salt` makes which
//!   replica answered, primary or hedge, unobservable);
//! * the breakers **walk their whole state machine** under fire: opens,
//!   half-open probes, and recoveries are all observed, and the fleet
//!   converges back to all-healthy once the faults stop biting.

use slide_mem::SparseVecRef;
use slide_net::{
    ClientError, FaultAction, FaultPlan, FaultProxy, FaultRule, FleetSpec, LoadgenConfig,
    NetClient, NetConfig, NetServer, Router, RouterConfig, SubmitOutcome, Trigger,
};
use slide_serve::{query_salt, BatchConfig, BatchingServer, FrozenModel};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const K: usize = 5;

/// Ground-truth answers keyed by query content (indices, value bits).
type ExpectedAnswers = HashMap<(Vec<u32>, Vec<u32>), Vec<u32>>;

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

/// Sum a per-replica counter family (one `{replica="ip:port"}` series per
/// replica) from the router's registry.
fn sum_over_replicas(router: &Router, replicas: &[SocketAddr], name: &str) -> u64 {
    let hub = router.obs();
    replicas
        .iter()
        .map(|addr| {
            hub.registry()
                .counter_with(name, &[("replica", &addr.to_string())])
                .get()
        })
        .sum()
}

#[test]
fn seeded_fault_plan_chaos_run_full_accounting_and_bit_equality() {
    let spec = FleetSpec {
        seed: 42,
        epochs: 0,
        ..Default::default()
    };
    let (model, test) = spec.build();
    let queries = slide_net::query_battery(&test, 48);

    // In-process ground truth, keyed by query content so each submitter
    // thread can check its answers without knowing query indices.
    let expected: Arc<ExpectedAnswers> = {
        let mut scratch = model.make_scratch_any();
        Arc::new(
            queries
                .iter()
                .map(|(idx, val)| {
                    let salt = query_salt(idx, val, K);
                    let ids =
                        model.predict_any(SparseVecRef::new(idx, val), K, &mut *scratch, salt);
                    let bits = val.iter().map(|v| v.to_bits()).collect();
                    ((idx.clone(), bits), ids)
                })
                .collect(),
        )
    };

    let (_ba, net_a) = serve(Arc::clone(&model));
    let (_bb, net_b) = serve(Arc::clone(&model));
    let (_bc, net_c) = serve(model);

    // Replica A: every third server→client frame stalls mid-write for
    // longer than the router's per-attempt timeout — a slow-loris replica.
    let proxy_a = FaultProxy::start(
        net_a.local_addr(),
        FaultPlan {
            seed: 0xC4A05,
            client_to_server: Vec::new(),
            server_to_client: vec![FaultRule {
                trigger: Trigger::EveryNth(3),
                action: FaultAction::Stall(Duration::from_millis(400)),
            }],
        },
    )
    .expect("stalling proxy");
    // Replica B: drops 10% of client→server frames — a lossy path where
    // requests vanish and the router only learns via timeout.
    let proxy_b = FaultProxy::start(
        net_b.local_addr(),
        FaultPlan {
            seed: 0xD20B,
            client_to_server: vec![FaultRule {
                trigger: Trigger::Probability(0.10),
                action: FaultAction::Drop,
            }],
            server_to_client: Vec::new(),
        },
    )
    .expect("dropping proxy");
    // Replica C is clean: the fleet always has one fast path, so hedges
    // routinely win and no request is doomed.

    let replicas = [
        proxy_a.local_addr(),
        proxy_b.local_addr(),
        net_c.local_addr(),
    ];
    let router = Router::start(
        "127.0.0.1:0",
        &replicas,
        RouterConfig {
            health_interval: Duration::from_millis(50),
            request_timeout: Duration::from_millis(250),
            eject_after: 1,
            breaker_backoff: Duration::from_millis(100),
            breaker_max_backoff: Duration::from_secs(1),
            ..Default::default()
        },
    )
    .expect("bind router");
    let router_addr = router.local_addr();

    let cfg = LoadgenConfig {
        offered_qps: 200.0,
        duration: Duration::from_millis(2500),
        clients: 4,
        k: K,
        ..Default::default()
    };
    let load = slide_net::run_open_loop(&queries, &cfg, |_client_id| {
        let mut client =
            NetClient::connect(router_addr, Duration::from_secs(5)).expect("connect to router");
        let expected = Arc::clone(&expected);
        move |idx: &[u32], val: &[f32], k: usize| {
            // 100 ms budget: enough for a healthy replica (sub-ms), short
            // enough that a stalled primary + stalled hedge is shed well
            // before the router's 250 ms per-attempt timeout.
            match client.predict_within(idx, val, k, 100_000) {
                Ok(ids) => {
                    let key = (idx.to_vec(), val.iter().map(|v| v.to_bits()).collect());
                    match expected.get(&key) {
                        Some(want) if *want == ids => SubmitOutcome::Ok(ids),
                        Some(want) => SubmitOutcome::HardError(format!(
                            "answer not bit-equal to in-process engine: got {ids:?}, want {want:?}"
                        )),
                        None => SubmitOutcome::HardError("unknown query key".into()),
                    }
                }
                Err(ClientError::RetryLater { .. }) => SubmitOutcome::RetryLater,
                Err(ClientError::DeadlineExceeded) => SubmitOutcome::DeadlineExceeded,
                Err(e) => {
                    // The router absorbs replica faults; losing *this*
                    // connection would mean the router itself died.
                    match NetClient::connect(router_addr, Duration::from_secs(5)) {
                        Ok(c) => {
                            client = c;
                            SubmitOutcome::Reconnected
                        }
                        Err(_) => SubmitOutcome::HardError(e.to_string()),
                    }
                }
            }
        }
    });

    // Full accounting: every submission has exactly one outcome.
    assert_eq!(
        load.sent,
        load.ok + load.retry_later + load.deadline_exceeded + load.hard_errors + load.reconnects,
        "lost responses: {load:?}"
    );
    assert_eq!(
        load.hard_errors, 0,
        "hard client errors under injected faults: {load:?}"
    );
    assert_eq!(load.reconnects, 0, "router connection dropped: {load:?}");
    assert!(
        load.ok > load.sent / 2,
        "fleet should still answer most requests (one replica is clean \
         and hedging covers the faulty ones): {load:?}"
    );

    // The faults actually bit and the machinery actually engaged: the
    // breakers opened and the router hedged. (Every third reply from A
    // stalls past the attempt timeout, so with eject_after=1 this is
    // deterministic in aggregate, not a lucky draw.)
    let breaker = |name: &str| sum_over_replicas(&router, &replicas, name);
    let hedges = router
        .obs()
        .registry()
        .counter("slide_router_hedges_total")
        .get();
    assert!(
        breaker("slide_router_breaker_opens_total") >= 1,
        "no breaker ever opened"
    );
    assert!(hedges >= 1, "no hedge ever fired");

    // Recovery: once load stops, the only s→c traffic is health pings;
    // probes succeed between stall episodes, so every breaker must walk
    // Open → HalfOpen → Closed and the fleet converges to all-healthy.
    let deadline = Instant::now() + Duration::from_secs(10);
    let recovered = loop {
        if router.healthy_replicas() == 3
            && breaker("slide_router_breaker_half_opens_total") >= 1
            && breaker("slide_router_breaker_closes_total") >= 1
        {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(
        recovered,
        "breakers never completed open → half-open → closed, or the fleet \
         did not converge to healthy: {}",
        router.metrics_text()
    );

    // The proxies really injected what the plan said (seeded, so these are
    // stable across runs): A stalled frames, B dropped frames.
    let a_stats = proxy_a.stats();
    let b_stats = proxy_b.stats();
    assert!(a_stats.stalled >= 1, "proxy A never stalled: {a_stats:?}");
    assert!(b_stats.dropped >= 1, "proxy B never dropped: {b_stats:?}");
}
