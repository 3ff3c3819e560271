//! Fault-injected fleet report: a `Router` over loopback replicas on a bad
//! day (see EXPERIMENTS.md §7). Two replicas sit behind seeded fault
//! proxies — one stalls every third reply mid-write, one drops 10% of
//! request frames — and every request of the open-loop load carries a
//! deadline budget, so hedging, circuit breakers and deadline shedding
//! absorb the damage instead of timeouts.
//!
//! This is an ungated report, not a benchmark: `benchmark/README.md` rules
//! a fault-injected fleet out of a gated cell, and the clean-path numbers
//! (batcher, socket hop, router hop, scrape cost) are `benchmark/`'s. It
//! reports socket-measured p50/p99, the shed rate (explicit `RetryLater`
//! fraction — admission control, not failure) and the router's
//! hedge/breaker/deadline counters next to what the proxies injected, and
//! fails if any request ended in a hard error. Writes `BENCH_net.json` (env
//! `SLIDE_JSON_OUT` overrides the path).
//!
//! ```sh
//! cargo run -p slide-bench --release --bin net_bench
//! SLIDE_NET_REPLICAS=4 SLIDE_NET_QPS=2000 cargo run -p slide-bench --release --bin net_bench
//! SLIDE_PRECISION=i8 SLIDE_SHARDS=3 cargo run -p slide-bench --release --bin net_bench
//! ```

use slide_net::{
    FaultAction, FaultPlan, FaultProxy, FaultRule, FleetSpec, LoadgenConfig, NetClient, NetConfig,
    NetServer, Router, RouterConfig, SubmitOutcome, Trigger,
};
use slide_serve::{BatchConfig, BatchingServer, FrozenModel, SnapshotPrecision};
use std::sync::Arc;
use std::time::Duration;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v: &f64| v > 0.0)
        .unwrap_or(default)
}

const K: usize = 5;

fn start_replica(model: Arc<dyn FrozenModel>, threads: usize) -> (Arc<BatchingServer>, NetServer) {
    let batching = Arc::new(
        BatchingServer::start(
            model,
            BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
                queue_cap: 128,
                threads,
            },
        )
        .expect("batch config"),
    );
    let net = NetServer::start(Arc::clone(&batching), "127.0.0.1:0", NetConfig::default())
        .expect("bind loopback");
    (batching, net)
}

fn main() {
    let replicas = env_usize("SLIDE_NET_REPLICAS", 2);
    let clients = env_usize("SLIDE_NET_CLIENTS", 4);
    let threads = env_usize("SLIDE_NET_THREADS", 2);
    let duration = Duration::from_millis(env_usize("SLIDE_NET_MS", 1500) as u64);
    let offered_qps = env_f64("SLIDE_NET_QPS", 400.0);
    let shards = std::env::var("SLIDE_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0usize);
    let precision = std::env::var("SLIDE_PRECISION")
        .ok()
        .and_then(|v| SnapshotPrecision::parse(&v).ok())
        .unwrap_or(SnapshotPrecision::F32);
    let spec = FleetSpec {
        precision,
        shards,
        ..Default::default()
    };
    let precision_label = precision.label();
    println!(
        "net_bench: {replicas} replicas, {clients} clients, {offered_qps:.0} qps offered \
         for {} ms, precision {precision_label}, shards {shards}",
        duration.as_millis()
    );

    println!(
        "building deterministic fleet model (seed {:#x})...",
        spec.seed
    );
    let (model, test) = spec.build();
    let queries = slide_net::query_battery(&test, 128);
    let cfg = LoadgenConfig {
        offered_qps,
        duration,
        clients,
        k: K,
        ..Default::default()
    };

    // Fresh replicas, two of them behind deterministic fault proxies; every
    // request carries a deadline budget so the tail is bounded by shedding,
    // not by timeouts.
    let fault_replicas: Vec<(Arc<BatchingServer>, NetServer)> = (0..replicas.max(2))
        .map(|_| start_replica(Arc::clone(&model), threads))
        .collect();
    let stall_proxy = FaultProxy::start(
        fault_replicas[0].1.local_addr(),
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
    let drop_proxy = FaultProxy::start(
        fault_replicas[1].1.local_addr(),
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
    let mut fault_addrs = vec![stall_proxy.local_addr(), drop_proxy.local_addr()];
    fault_addrs.extend(fault_replicas.iter().skip(2).map(|(_, n)| n.local_addr()));
    let fault_router = Router::start(
        "127.0.0.1:0",
        &fault_addrs,
        RouterConfig {
            health_interval: Duration::from_millis(50),
            request_timeout: Duration::from_millis(250),
            eject_after: 1,
            breaker_backoff: Duration::from_millis(100),
            breaker_max_backoff: Duration::from_secs(1),
            ..Default::default()
        },
    )
    .expect("bind fault router");
    let fault_router_addr = fault_router.local_addr();
    let deadline_us = env_usize("SLIDE_NET_DEADLINE_US", 100_000) as u64;
    let fault = slide_net::run_open_loop(&queries, &cfg, |_| {
        let mut client =
            NetClient::connect(fault_router_addr, Duration::from_secs(5)).expect("connect");
        move |idx: &[u32], val: &[f32], k: usize| match client.predict_within(
            idx,
            val,
            k,
            deadline_us,
            0,
        ) {
            Ok(ids) => SubmitOutcome::Ok(ids),
            Err(slide_net::ClientError::RetryLater { .. }) => SubmitOutcome::RetryLater,
            Err(slide_net::ClientError::DeadlineExceeded) => SubmitOutcome::DeadlineExceeded,
            Err(e) => match NetClient::connect(fault_router_addr, Duration::from_secs(5)) {
                Ok(c) => {
                    client = c;
                    let _ = e;
                    SubmitOutcome::Reconnected
                }
                Err(_) => SubmitOutcome::HardError(e.to_string()),
            },
        }
    });
    println!(
        "  fault    sent {:>6}  ok {:>6}  shed {:>5.1}%  hard {:>3}  p50 {:>6} us  p99 {:>6} us  \
         achieved {:>7.1} qps",
        fault.sent,
        fault.ok,
        fault.shed_rate() * 100.0,
        fault.hard_errors,
        fault.latency.quantile(50.0),
        fault.latency.quantile(99.0),
        fault.achieved_qps,
    );
    let hub = fault_router.obs();
    let counter = |name: &str| hub.registry().counter(name).get();
    // Breaker counters are one series per replica; the report sums them.
    let per_replica = |name: &str| -> u64 {
        fault_addrs
            .iter()
            .map(|a| {
                hub.registry()
                    .counter_with(name, &[("replica", &a.to_string())])
                    .get()
            })
            .sum()
    };
    let fault_router_stats = format!(
        "{{\"hedges\":{},\"hedge_wins\":{},\"failovers\":{},\"deadline_exceeded\":{},\
         \"breaker_opens\":{},\"breaker_half_opens\":{},\"breaker_closes\":{},\
         \"healthy\":{}}}",
        counter("slide_router_hedges_total"),
        counter("slide_router_hedge_wins_total"),
        counter("slide_router_failovers_total"),
        counter("slide_router_deadline_exceeded_total"),
        per_replica("slide_router_breaker_opens_total"),
        per_replica("slide_router_breaker_half_opens_total"),
        per_replica("slide_router_breaker_closes_total"),
        fault_router.healthy_replicas(),
    );
    let stall_stats = stall_proxy.stats();
    let drop_stats = drop_proxy.stats();
    println!(
        "  fault injected: {} stalled, {} dropped ({} frames forwarded)",
        stall_stats.stalled,
        drop_stats.dropped,
        stall_stats.forwarded + drop_stats.forwarded,
    );

    assert_eq!(fault.hard_errors, 0, "hard errors behind the router");

    let json = format!(
        "{{\"bench\":\"net\",\"source\":\"net_bench\",\"replicas\":{replicas},\
         \"policy\":\"least_load\",\"clients\":{clients},\"threads\":{threads},\
         \"precision\":\"{precision_label}\",\"shards\":{shards},\
         \"simd_level\":\"{}\",\"k\":{K},\
         \"offered_qps\":{offered_qps:.1},\"deadline_us\":{deadline_us},\
         \"phases\":[{}],\
         \"fault_router\":{fault_router_stats},\
         \"fault_proxies\":{{\"stalled\":{},\"dropped\":{},\"delayed\":{},\
         \"corrupted\":{},\"closed\":{},\"forwarded\":{}}}}}\n",
        slide_simd::effective_level(),
        fault.to_json("fault"),
        stall_stats.stalled + drop_stats.stalled,
        stall_stats.dropped + drop_stats.dropped,
        stall_stats.delayed + drop_stats.delayed,
        stall_stats.corrupted + drop_stats.corrupted,
        stall_stats.closed + drop_stats.closed,
        stall_stats.forwarded + drop_stats.forwarded,
    );
    let path = std::env::var("SLIDE_JSON_OUT").unwrap_or_else(|_| "BENCH_net.json".into());
    std::fs::write(&path, &json).expect("write BENCH_net.json");
    println!("report written to {path}");
}
