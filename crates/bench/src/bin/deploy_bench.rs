//! Continuous-deployment benchmark: what the train→serve loop costs the
//! serving tier, measured while it actually runs (EXPERIMENTS.md §8).
//!
//! One in-process fleet replica (a `BatchingServer` cold-started from
//! registry v1) serves an open-loop drifting workload while a background
//! `TrainerLoop` keeps training, gating, and publishing new versions and a
//! `RegistryWatcher` hot-swaps the replica onto each one. The final round
//! deliberately snapshots an untrained network, so every run also
//! demonstrates the shadow gate rejecting a regression (and the pointer
//! staying put).
//!
//! Queries are drawn through `slide_data::ZipfDrift`: Zipf-popular test
//! queries whose head rotates during the run — the recommendation-serving
//! shape where *what is popular* moves faster than any one snapshot. The
//! run reports:
//!
//! * **staleness** p50/p99/max — publish-durable to swap-complete lag per
//!   swap (the `slide_deploy_staleness_us` histogram's raw events);
//! * **swap-window p99 vs steady-state p99** — serve latency within
//!   ±100 ms of a swap against the rest of the run: what a hot-swap costs
//!   the tail;
//! * **P@1 over time** — accuracy per fifth of the run as fresher
//!   versions land under drift;
//! * **gate counters** — accepted/rejected, plus publish-path timing.
//!
//! Writes `BENCH_deploy.json` (env `SLIDE_JSON_OUT` overrides).
//!
//! ```sh
//! cargo run -p slide-bench --release --bin deploy_bench
//! SLIDE_DEPLOY_MS=8000 SLIDE_DEPLOY_ROUNDS=6 cargo run -p slide-bench --release --bin deploy_bench
//! SLIDE_PRECISION=i8 cargo run -p slide-bench --release --bin deploy_bench
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use slide_data::{precision_at_k, ZipfDrift};
use slide_net::deploy::{GateConfig, RegistryWatcher, TrainerLoop, TrainerLoopConfig};
use slide_net::{FleetPrecision, FleetSpec};
use slide_obs::ObsHub;
use slide_serve::{percentile_us, BatchConfig, BatchingServer, ServeError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const K: usize = 5;
/// Half-width of the "swap window": samples within this distance of a
/// swap instant are attributed to the swap, the rest to steady state.
const SWAP_WINDOW: Duration = Duration::from_millis(100);
/// P@1-over-time resolution.
const TIME_WINDOWS: usize = 5;

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

fn summary_json(label: &str, sorted_us: &[u64]) -> String {
    format!(
        "\"{label}\":{{\"p50\":{},\"p99\":{},\"max\":{},\"samples\":{}}}",
        percentile_us(sorted_us, 50.0),
        percentile_us(sorted_us, 99.0),
        sorted_us.last().copied().unwrap_or(0),
        sorted_us.len(),
    )
}

fn main() {
    let duration = Duration::from_millis(env_usize("SLIDE_DEPLOY_MS", 4000) as u64);
    let offered_qps = env_f64("SLIDE_DEPLOY_QPS", 300.0);
    let clients = env_usize("SLIDE_DEPLOY_CLIENTS", 2);
    let rounds = env_usize("SLIDE_DEPLOY_ROUNDS", 4).max(3);
    let epochs = env_usize("SLIDE_EPOCHS", 4);
    let threads = env_usize("SLIDE_DEPLOY_THREADS", 2);
    let precision = match std::env::var("SLIDE_PRECISION").as_deref() {
        Ok("i8") => FleetPrecision::I8,
        _ => FleetPrecision::F32,
    };
    let precision_label = match precision {
        FleetPrecision::F32 => "f32",
        FleetPrecision::I8 => "i8",
    };
    println!(
        "deploy_bench: {rounds} rounds ({epochs} epochs each), {offered_qps:.0} qps offered, \
         {clients} clients, {} ms load, precision {precision_label}",
        duration.as_millis()
    );

    let root = std::env::temp_dir().join(format!("slide_deploy_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = FleetSpec {
        precision,
        epochs,
        ..Default::default()
    };
    let trainer_hub = ObsHub::new();
    let cfg = TrainerLoopConfig {
        spec,
        gate: GateConfig::default(),
        inject_regression_at: Some(rounds), // final round demos the gate
        ..Default::default()
    };
    let mut looper = TrainerLoop::new(&root, cfg, &trainer_hub).expect("stand up trainer loop");

    // Round 1 runs before load: the replica cold-starts from v1 exactly
    // like `slide_netd --snapshot` would.
    let r1 = looper.run_round().expect("round 1");
    let v1 = r1.published.expect("first round publishes");
    println!(
        "  round 1: published v{v1:06} p_at_1 {:.4} (train {} ms)",
        r1.p_at_k,
        r1.train_time.as_millis()
    );
    let registry = looper.registry().clone();
    let model =
        slide_quant::snapshot::load(&registry.version_path(v1)).expect("cold-start from v1");
    let server = Arc::new(
        BatchingServer::start(
            model,
            BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
                queue_cap: 128,
                threads,
            },
        )
        .expect("batching server"),
    );
    let mut watcher = RegistryWatcher::spawn(
        registry.clone(),
        Arc::clone(&server),
        Some(v1),
        Duration::from_millis(20),
        None,
    );

    // Background trainer: rounds 2..=rounds spaced across the load run,
    // so swaps land mid-measurement.
    let round_period = duration / rounds as u32;
    let trainer_thread = std::thread::spawn(move || {
        let mut outcomes = Vec::new();
        for _ in 2..=rounds {
            std::thread::sleep(round_period);
            let outcome = looper.run_round().expect("trainer round");
            println!(
                "  round {}: {} p_at_1 {:.4}",
                outcome.round,
                match outcome.published {
                    Some(v) => format!("published v{v:06}"),
                    None => "REJECTED".into(),
                },
                outcome.p_at_k
            );
            outcomes.push(outcome);
        }
        outcomes
    });

    // Drifting open-loop load: shared arrival counter, Zipf head rotating
    // once per fifth of the run.
    let synth = slide_data::generate_synthetic(&spec.synth_config());
    let battery: Vec<(Vec<u32>, Vec<f32>, Vec<u32>)> = (0..synth.test.len())
        .map(|i| {
            let x = synth.test.features(i);
            (
                x.indices.to_vec(),
                x.values.to_vec(),
                synth.test.labels(i).to_vec(),
            )
        })
        .collect();
    let arrivals_per_rotation =
        ((offered_qps * duration.as_secs_f64()) / TIME_WINDOWS as f64).max(1.0) as u64;
    let drift = ZipfDrift::new(battery.len(), 1.1, arrivals_per_rotation, battery.len() / 3);
    let next_arrival = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / offered_qps);

    struct Sample {
        at: Duration,
        latency_us: u64,
        p_at_1: f32,
    }
    let load_threads: Vec<_> = (0..clients)
        .map(|c| {
            let battery = battery.clone();
            let drift = drift.clone();
            let server = Arc::clone(&server);
            let next_arrival = Arc::clone(&next_arrival);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xD21F7 ^ c as u64);
                let mut samples = Vec::new();
                let mut shed = 0u64;
                let mut hard = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let arrival = next_arrival.fetch_add(1, Ordering::Relaxed);
                    let due = interval.mul_f64(arrival as f64);
                    let now = started.elapsed();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let (idx, val, labels) = &battery[drift.sample_at(&mut rng, arrival)];
                    let t0 = Instant::now();
                    match server.try_predict(idx, val, K) {
                        Ok(top) => samples.push(Sample {
                            at: started.elapsed(),
                            latency_us: t0.elapsed().as_micros() as u64,
                            p_at_1: precision_at_k(&top, labels, 1),
                        }),
                        Err(ServeError::Overloaded(_)) => shed += 1,
                        Err(_) => hard += 1,
                    }
                }
                (samples, shed, hard)
            })
        })
        .collect();

    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let mut samples = Vec::new();
    let (mut shed, mut hard) = (0u64, 0u64);
    for t in load_threads {
        let (s, sh, h) = t.join().expect("load thread");
        samples.extend(s);
        shed += sh;
        hard += h;
    }
    let outcomes = trainer_thread.join().expect("trainer thread");
    // Give the watcher one last poll cycle to catch a publish that landed
    // at the very end of the run, then freeze the swap log.
    std::thread::sleep(Duration::from_millis(100));
    watcher.stop();
    let swaps = watcher.swap_log();

    // ---- Aggregation -----------------------------------------------------
    let accepted = trainer_hub
        .registry()
        .counter("slide_gate_accepted_total")
        .get();
    let rejected = trainer_hub
        .registry()
        .counter("slide_gate_rejected_total")
        .get();
    let published = 1 + outcomes.iter().filter(|o| o.published.is_some()).count();

    let mut staleness_us: Vec<u64> = swaps
        .iter()
        .map(|e| e.staleness.as_micros() as u64)
        .collect();
    staleness_us.sort_unstable();

    // Swap instants on the load clock.
    let swap_ats: Vec<Duration> = swaps
        .iter()
        .map(|e| e.at.saturating_duration_since(started))
        .collect();
    let in_swap_window = |at: Duration| {
        swap_ats
            .iter()
            .any(|&s| at + SWAP_WINDOW >= s && at <= s + SWAP_WINDOW)
    };
    let mut steady_us = Vec::new();
    let mut swapwin_us = Vec::new();
    let mut window_p1 = [(0.0f64, 0u64); TIME_WINDOWS];
    let window_len = duration / TIME_WINDOWS as u32;
    for s in &samples {
        if in_swap_window(s.at) {
            swapwin_us.push(s.latency_us);
        } else {
            steady_us.push(s.latency_us);
        }
        let w = ((s.at.as_nanos() / window_len.as_nanos().max(1)) as usize).min(TIME_WINDOWS - 1);
        window_p1[w].0 += f64::from(s.p_at_1);
        window_p1[w].1 += 1;
    }
    steady_us.sort_unstable();
    swapwin_us.sort_unstable();

    println!("  gate: {accepted} accepted, {rejected} rejected ({published} versions published)");
    println!(
        "  swaps observed: {} (staleness p50 {} us, p99 {} us)",
        swaps.len(),
        percentile_us(&staleness_us, 50.0),
        percentile_us(&staleness_us, 99.0),
    );
    println!(
        "  serve p99: steady {} us ({} samples) vs swap-window {} us ({} samples)",
        percentile_us(&steady_us, 99.0),
        steady_us.len(),
        percentile_us(&swapwin_us, 99.0),
        swapwin_us.len(),
    );
    let p1_windows: Vec<String> = window_p1
        .iter()
        .map(|&(sum, n)| format!("{:.4}", if n == 0 { 0.0 } else { sum / n as f64 }))
        .collect();
    println!("  p@1 over time: [{}]", p1_windows.join(", "));

    // The run must actually demonstrate the loop: multiple versions
    // through the gate, at least one rejection, a live swap, clean serving.
    assert!(
        published >= 2,
        "want ≥2 published versions, got {published}"
    );
    assert!(rejected >= 1, "the injected regression must be rejected");
    assert!(!swaps.is_empty(), "the watcher never observed a swap");
    assert_eq!(hard, 0, "hard errors while hot-swapping");
    assert!(!samples.is_empty(), "load produced no samples");

    let sent = samples.len() as u64 + shed + hard;
    let json = format!(
        "{{\"bench\":\"deploy\",\"source\":\"deploy_bench\",\
         \"precision\":\"{precision_label}\",\"simd_level\":\"{}\",\
         \"k\":{K},\"rounds\":{rounds},\
         \"epochs_per_round\":{epochs},\"offered_qps\":{offered_qps:.1},\
         \"clients\":{clients},\"duration_ms\":{},\
         \"gate\":{{\"accepted\":{accepted},\"rejected\":{rejected},\
         \"published\":{published},\"baseline_p_at_1\":{:.4}}},\
         {},\
         \"swaps\":{},\
         \"serve_p99_us\":{{\"steady\":{},\"swap_window\":{},\
         \"swap_window_ms\":{},\"steady_samples\":{},\"swap_window_samples\":{}}},\
         \"p_at_1_windows\":[{}],\
         \"load\":{{\"sent\":{sent},\"ok\":{},\"shed\":{shed},\"hard_errors\":{hard}}}}}\n",
        slide_simd::effective_level(),
        duration.as_millis(),
        outcomes.iter().map(|o| o.p_at_k).fold(r1.p_at_k, f64::max),
        summary_json("staleness_us", &staleness_us),
        swaps.len(),
        percentile_us(&steady_us, 99.0),
        percentile_us(&swapwin_us, 99.0),
        SWAP_WINDOW.as_millis() * 2,
        steady_us.len(),
        swapwin_us.len(),
        p1_windows.join(","),
        samples.len(),
    );
    let path = std::env::var("SLIDE_JSON_OUT").unwrap_or_else(|_| "BENCH_deploy.json".into());
    std::fs::write(&path, &json).expect("write BENCH_deploy.json");
    println!("report written to {path}");
    let _ = std::fs::remove_dir_all(&root);
}
