//! End-to-end trace propagation and wire scraping (ISSUE tentpole +
//! satellite: trace-propagation tests).
//!
//! A traced predict carries its id client → router → replica in its frames;
//! every hop records its stage spans into its own process-local trace ring.
//! These tests drive a real 2-replica fleet (with a deliberately slowed
//! primary so the hedge *must* fire) and assert:
//!
//! * the router ring reports `router_queue` and `hedge_wait` exactly once
//!   for the traced id;
//! * the winning replica's ring reports `admission`, `batch_wait`,
//!   `retrieval`, `kernel`, `merge`, and `encode` exactly once each, with
//!   monotone (non-decreasing) stage start timestamps in pipeline order;
//! * untraced traffic records no spans at all;
//! * `GetMetrics` over the wire returns the families the scrape contract
//!   promises, from both a daemon and the router.

use slide_net::{
    FaultAction, FaultPlan, FaultProxy, FaultRule, FleetSpec, NetClient, NetConfig, NetServer,
    Router, RouterConfig, Trigger,
};
use slide_obs::Stage;
use slide_serve::{BatchConfig, BatchingServer, FrozenModel};
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

/// Count the spans for `trace_id` at `stage` in a hub's ring.
fn count_stage(hub: &slide_obs::ObsHub, trace_id: u64, stage: Stage) -> usize {
    hub.ring()
        .spans_for(trace_id)
        .iter()
        .filter(|s| s.stage == stage)
        .count()
}

/// One traced request through router + forced hedge: every hop reports
/// exactly once, and the winning replica's stage starts are monotone in
/// pipeline order.
#[test]
fn traced_request_reports_every_hop_exactly_once() {
    let (model, queries) = fixture();
    let (_b_slow, net_slow) = serve(Arc::clone(&model));
    let (b_fast, net_fast) = serve(model);
    // Replica 0 (the least-load primary on an idle fleet) sits behind a
    // 300 ms request delay, so the 30 ms hedge timer must fire and the
    // fast replica must win.
    let slow_proxy = FaultProxy::start(
        net_slow.local_addr(),
        FaultPlan {
            seed: 3,
            client_to_server: vec![FaultRule {
                trigger: Trigger::Always,
                action: FaultAction::Delay(Duration::from_millis(300)),
            }],
            server_to_client: Vec::new(),
        },
    )
    .expect("slow proxy");
    let router = Router::start(
        "127.0.0.1:0",
        &[slow_proxy.local_addr(), net_fast.local_addr()],
        RouterConfig {
            health_interval: Duration::from_millis(50),
            hedge_delay: Duration::from_millis(30),
            ..Default::default()
        },
    )
    .expect("bind router");
    let mut client =
        NetClient::connect(router.local_addr(), Duration::from_secs(5)).expect("client");

    // The traced request goes first, onto an idle fleet: least-load picks
    // the (delayed) first replica as primary, so the hedge timer must pop.
    let (idx, val) = &queries[0];
    let trace_id = 0xC0FF_EE00_DEAD_BEEF;
    let ids = client
        .predict_traced_within(idx, val, K, 0, trace_id)
        .expect("traced predict");
    assert!(!ids.is_empty());

    // Router hop: queued once, hedged once.
    let router_hub = router.obs();
    assert_eq!(count_stage(&router_hub, trace_id, Stage::RouterQueue), 1);
    assert_eq!(
        count_stage(&router_hub, trace_id, Stage::HedgeWait),
        1,
        "the 300 ms primary must force exactly one hedge: {} counted",
        router_hub
            .registry()
            .counter("slide_router_hedges_total")
            .get()
    );

    // Winning replica: all five serve-side stages plus the socket encode,
    // each exactly once. The replica records its encode span after the
    // reply is on the wire, so a client already holding the reply may be
    // here first: give that last span a bounded moment to land.
    let fast_hub = b_fast.obs();
    let give_up = Instant::now() + Duration::from_secs(1);
    while count_stage(&fast_hub, trace_id, Stage::Encode) != 1 && Instant::now() < give_up {
        std::thread::yield_now();
    }
    let expect = [
        Stage::Admission,
        Stage::BatchWait,
        Stage::Retrieval,
        Stage::Kernel,
        Stage::Merge,
        Stage::Encode,
    ];
    for stage in expect {
        assert_eq!(
            count_stage(&fast_hub, trace_id, stage),
            1,
            "stage {stage:?} must be reported exactly once"
        );
    }
    // Pipeline order ⇒ monotone start timestamps within the replica ring.
    let spans = fast_hub.ring().spans_for(trace_id);
    let starts: Vec<u64> = expect
        .iter()
        .map(|&st| {
            spans
                .iter()
                .find(|s| s.stage == st)
                .expect("span present")
                .start_us
        })
        .collect();
    assert!(
        starts.windows(2).all(|w| w[0] <= w[1]),
        "stage starts must be monotone in pipeline order: {starts:?}"
    );

    // Untraced traffic must record no further spans in the router ring.
    let before = router_hub.ring().snapshot().len();
    client.predict(idx, val, K).expect("untraced predict");
    assert_eq!(
        router_hub.ring().snapshot().len(),
        before,
        "an untraced request must not touch the router ring"
    );
}

/// The wire scrape: a daemon's `GetMetrics` exposes socket-, serve-, and
/// stage-level families plus trace comment lines; the router's exposes
/// fleet counters and per-replica breaker state.
#[test]
fn get_metrics_exposes_promised_families_over_the_wire() {
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
    let mut client =
        NetClient::connect(router.local_addr(), Duration::from_secs(5)).expect("client");
    let (idx, val) = &queries[0];
    for t in 0..4u64 {
        client
            .predict_traced_within(idx, val, K, 0, 0x1000 + t)
            .expect("predict");
    }

    let mut direct = NetClient::connect(net1.local_addr(), Duration::from_secs(5)).expect("direct");
    let daemon_text = direct.metrics_text().expect("daemon scrape");
    for family in [
        "# TYPE slide_net_requests_total counter",
        "slide_net_latency_us",
        "slide_serve_requests_total",
        "slide_serve_latency_us",
        "slide_serve_batches_total",
        "slide_serve_batch_size",
        "slide_serve_inline_total",
        "slide_serve_slot_handoffs_total",
        "slide_serve_overloaded_total",
        "slide_stage_us_count{stage=\"kernel\"}",
        "slide_stage_us_count{stage=\"encode\"}",
    ] {
        assert!(
            daemon_text.contains(family),
            "daemon scrape missing {family}:\n{daemon_text}"
        );
    }
    // At least one replica served traced traffic; if it was this one its
    // ring renders as comment lines. (Which replica wins is load-dependent,
    // so only assert format when present.)
    if daemon_text.contains("# trace id=") {
        assert!(daemon_text.contains("stage="));
    }

    let mut router_client =
        NetClient::connect(router.local_addr(), Duration::from_secs(5)).expect("router client");
    let router_text = router_client.metrics_text().expect("router scrape");
    for family in [
        "# TYPE slide_router_hedges_total counter",
        "slide_router_deadline_exceeded_total",
        "slide_router_forwarded_total{replica=\"",
        "# TYPE slide_router_breaker_state gauge",
        "slide_router_breaker_state{replica=\"",
        "slide_stage_us_count{stage=\"router_queue\"}",
    ] {
        assert!(
            router_text.contains(family),
            "router scrape missing {family}:\n{router_text}"
        );
    }
    // Both breakers are closed (state 0) on a healthy fleet.
    assert_eq!(
        router_text.matches("slide_router_breaker_state{").count(),
        2
    );
}
