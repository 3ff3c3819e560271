//! End-to-end fleet chaos (ISSUE satellite: kill-one-replica): three real
//! `slide_netd` processes behind a real `slide_router` process, open-loop
//! load flowing, one replica killed mid-load and then restarted on its old
//! port — restarted from a **registry snapshot** (`--snapshot <dir>`), the
//! way an operator would actually revive a replica: mmap the published
//! version instead of retraining.
//!
//! The contract under fire:
//! * **zero hard client errors** — every fault surfaces as transparent
//!   failover or an explicit `RetryLater`, never a broken reply;
//! * **zero lost responses** — each submitted request gets exactly one
//!   accounted outcome;
//! * the restarted replica is **readmitted** by the router's health loop.

mod daemon;

use daemon::{spawn_replica, spawn_replica_from_registry, Daemon};
use slide_net::{FleetSpec, LoadgenConfig, NetClient, SubmitOutcome};
use slide_serve::ModelRegistry;
use std::time::{Duration, Instant};

/// The values of every `family{...} <n>` series in an exposition text.
fn series_values<'a>(text: &'a str, family: &'a str) -> impl Iterator<Item = u64> + 'a {
    text.lines().filter_map(move |line| {
        let (series, value) = line.rsplit_once(' ')?;
        series
            .strip_prefix(family)?
            .starts_with('{')
            .then_some(())?;
        value.parse().ok()
    })
}

#[test]
fn kill_one_replica_mid_load_no_hard_errors_and_readmission() {
    // Publish the fleet fixture into a registry up front: the mid-chaos
    // revival cold-starts from this snapshot. Same `FleetSpec` axes as
    // `spawn_replica` (seed 42, epochs 0), so the revived replica serves
    // bit-identical answers to the two survivors.
    let registry_root =
        std::env::temp_dir().join(format!("slide_chaos_registry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&registry_root);
    {
        let spec = FleetSpec {
            seed: 42,
            epochs: 0,
            ..Default::default()
        };
        let (net, _test) = spec.train();
        let registry = ModelRegistry::open(&registry_root).expect("open chaos registry");
        registry
            .publish(spec.snapshot(&net).bytes())
            .expect("publish chaos snapshot");
    }

    let mut replicas: Vec<Daemon> = (0..3).map(|_| spawn_replica("127.0.0.1:0")).collect();
    let replica_flags: Vec<String> = replicas
        .iter()
        .flat_map(|r| ["--replica".to_string(), r.addr.clone()])
        .collect();
    let mut router_args: Vec<&str> = vec!["--addr", "127.0.0.1:0", "--health-interval-ms", "100"];
    router_args.extend(replica_flags.iter().map(String::as_str));
    let mut router = Daemon::spawn(
        env!("CARGO_BIN_EXE_slide_router"),
        &router_args,
        "SLIDE_ROUTER",
    );
    let router_addr: std::net::SocketAddr = router.addr.parse().expect("router addr");

    // Chaos timeline: kill replica 0 a third of the way into the load,
    // restart it on the same port two thirds of the way in.
    let duration = Duration::from_millis(2400);
    let killed = std::sync::Mutex::new(None::<Daemon>);
    let load = {
        let queries: Vec<(Vec<u32>, Vec<f32>)> = (0..64)
            .map(|i| {
                let idx: Vec<u32> = (0..12).map(|j| ((i * 17 + j * 13) % 256) as u32).collect();
                let val: Vec<f32> = (0..12).map(|j| 1.0 / (1.0 + j as f32)).collect();
                (idx, val)
            })
            .collect();
        let cfg = LoadgenConfig {
            offered_qps: 300.0,
            duration,
            clients: 4,
            k: 5,
            ..Default::default()
        };
        std::thread::scope(|scope| {
            // Timer-driven chaos, inline with the load.
            scope.spawn(|| {
                std::thread::sleep(duration / 3);
                let mut r0 = replicas.remove(0);
                r0.kill();
                std::thread::sleep(duration / 3);
                // Same port (bind_retrying in the daemon absorbs TIME_WAIT),
                // but cold-started from the registry: no retraining.
                let revived = spawn_replica_from_registry(&r0.addr, &registry_root);
                killed.lock().unwrap().replace(revived);
            });
            slide_net::run_open_loop(&queries, &cfg, |_client_id| {
                let mut client = NetClient::connect(router_addr, Duration::from_secs(5))
                    .expect("connect to router");
                move |idx: &[u32], val: &[f32], k: usize| match client.predict(idx, val, k) {
                    Ok(ids) => SubmitOutcome::Ok(ids),
                    Err(slide_net::ClientError::RetryLater { .. }) => SubmitOutcome::RetryLater,
                    Err(e) => {
                        // The router absorbs replica faults; a client-side
                        // transport fault would mean the *router* died —
                        // reconnect and count it.
                        match NetClient::connect(router_addr, Duration::from_secs(5)) {
                            Ok(c) => {
                                client = c;
                                SubmitOutcome::Reconnected
                            }
                            Err(_) => SubmitOutcome::HardError(e.to_string()),
                        }
                    }
                }
            })
        })
    };

    // Nothing lost: every submission has exactly one outcome.
    assert_eq!(
        load.sent,
        load.ok + load.retry_later + load.hard_errors + load.reconnects,
        "lost responses: {load:?}"
    );
    assert_eq!(
        load.hard_errors, 0,
        "hard client errors under chaos: {load:?}"
    );
    assert_eq!(load.reconnects, 0, "router connection dropped: {load:?}");
    assert!(load.ok > 0, "no successful requests at all: {load:?}");

    // The revived replica must be readmitted: poll the router's stats until
    // all three replicas are healthy again and at least one readmission is
    // on record. (Under a heavily loaded machine the dead replica can be
    // ejected and readmitted more than once while its restart is slow —
    // any count >= 1 proves the eject → health-ping → readmit cycle.)
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stats;
    let readmitted = loop {
        let mut c = NetClient::connect(router_addr, Duration::from_secs(2)).expect("scrape conn");
        stats = c.metrics_text().expect("router scrape");
        // Breaker state 0 = closed = healthy.
        let healthy = series_values(&stats, "slide_router_breaker_state")
            .filter(|&state| state == 0)
            .count();
        if healthy == 3
            && series_values(&stats, "slide_router_breaker_closes_total").any(|n| n >= 1)
        {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(200));
    };
    assert!(readmitted, "replica not readmitted; router scrape: {stats}");

    // Graceful teardown: drain the fleet via stdin EOF.
    router.shutdown();
    if let Some(mut revived) = killed.lock().unwrap().take() {
        revived.shutdown();
    }
    for mut r in replicas {
        r.shutdown();
    }
    let _ = std::fs::remove_dir_all(&registry_root);
}
