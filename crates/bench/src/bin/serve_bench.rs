//! Serving benchmark: throughput and tail latency of the `slide-serve`
//! micro-batching pipeline over a frozen snapshot of a trained network,
//! under two load disciplines (see EXPERIMENTS.md §"Serving"):
//!
//! * **closed-loop** — N clients submit back-to-back; measures the system's
//!   capacity (requests never queue behind an arrival schedule, so latency
//!   here is the batching + compute cost under full load);
//! * **open-loop** — arrivals follow a fixed-rate schedule independent of
//!   completions (set to a fraction of the measured closed-loop capacity),
//!   which is how production tail latency must be measured: a slow batch
//!   cannot throttle the offered load, so queueing delay shows up in p99.
//!
//! Queries are drawn Zipf-distributed over the synthetic test split — the
//! same head-heavy profile as the label space, i.e. hot queries repeat — and
//! one snapshot hot-swap lands mid-run in each phase. Writes
//! `BENCH_serve.json` next to the stdout report.
//!
//! The `--precision {f32,i8}` axis (or `SLIDE_PRECISION=i8`) serves a
//! post-training int8-quantized snapshot (`slide-quant`) instead of the f32
//! one: same trained network, same LSH retrieval, ~4× smaller hidden/output
//! arenas scored through the VNNI-class integer kernels. The report's meta
//! block stamps the precision so rows stay distinguishable.
//!
//! The `--shards N` axis (or `SLIDE_SHARDS=N`) serves the snapshot through
//! the scatter–gather sharded engine (`slide_serve::shard`, contiguous
//! plan) at the chosen precision. With `N > 1` the closed-loop phase
//! becomes a shard-scaling sweep over N ∈ {1, 2, 4, 8} (capped at the
//! output dimensionality) — one closed phase per shard count, each phase
//! JSON stamping its own `shards` — followed by the open-loop phase at the
//! requested N. The meta block stamps `shards` and the per-shard precision
//! list.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin serve_bench
//! cargo run -p slide-bench --release --bin serve_bench -- --precision i8
//! cargo run -p slide-bench --release --bin serve_bench -- --shards 4
//! SLIDE_SERVE_MS=5000 SLIDE_CLIENTS=16 cargo run -p slide-bench --release --bin serve_bench
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use slide_bench::{epochs, scale, Workload};
use slide_core::{Network, Trainer};
use slide_data::{Dataset, Zipf};
use slide_quant::QuantizedFrozenNetwork;
use slide_serve::{
    bench_report_json, phase_json, BatchConfig, BatchingServer, BenchMeta, FrozenModel,
    FrozenNetwork, ServeStats, ShardPlan,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(default)
}

/// `--precision {f32,i8}` from argv, falling back to `SLIDE_PRECISION`,
/// defaulting to f32. Anything else aborts with a usage message.
fn precision_axis() -> &'static str {
    let mut args = std::env::args().skip(1);
    let mut requested = std::env::var("SLIDE_PRECISION").ok();
    while let Some(a) = args.next() {
        if a == "--precision" {
            let Some(value) = args.next() else {
                eprintln!("serve_bench: --precision needs a value (f32|i8)");
                std::process::exit(2);
            };
            requested = Some(value);
        }
    }
    match requested.as_deref() {
        None | Some("f32") => "f32",
        Some("i8") => "i8",
        Some(other) => {
            eprintln!("serve_bench: unknown precision '{other}' (want f32|i8)");
            std::process::exit(2);
        }
    }
}

/// `--shards N` from argv, falling back to `SLIDE_SHARDS`, defaulting to 1
/// (unsharded). Zero or unparsable values abort with a usage message.
fn shards_axis() -> usize {
    let mut args = std::env::args().skip(1);
    let mut requested = std::env::var("SLIDE_SHARDS").ok();
    while let Some(a) = args.next() {
        if a == "--shards" {
            let Some(value) = args.next() else {
                eprintln!("serve_bench: --shards needs a positive integer");
                std::process::exit(2);
            };
            requested = Some(value);
        }
    }
    match requested.as_deref().map(str::parse::<usize>) {
        None => 1,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => {
            eprintln!("serve_bench: --shards wants a positive integer");
            std::process::exit(2);
        }
    }
}

/// One benchmark phase's outcome plus its offered-load metadata.
struct PhaseResult {
    mode: &'static str,
    offered_qps: Option<f64>,
    shards: usize,
    stats: ServeStats,
}

/// Drive `clients` closed-loop threads for `duration`, publishing
/// `swap_snapshot` halfway through (the snapshot is frozen *before* the
/// phase so training cost never pollutes the measurement window).
fn run_closed(
    server: &Arc<BatchingServer>,
    swap_snapshot: Arc<dyn FrozenModel>,
    test: &Dataset,
    clients: usize,
    duration: Duration,
    k: usize,
    shards: usize,
) -> PhaseResult {
    server.reset_stats();
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for c in 0..clients {
            let server = Arc::clone(server);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let zipf = Zipf::new(test.len(), 0.9);
                let mut rng = SmallRng::seed_from_u64(0xC105ED ^ c as u64);
                while !stop.load(Ordering::Relaxed) {
                    let x = test.features(zipf.sample(&mut rng));
                    server
                        .predict(x.indices, x.values, k)
                        .expect("closed-loop request failed");
                }
            });
        }
        std::thread::sleep(duration / 2);
        server.publish(swap_snapshot);
        std::thread::sleep(duration / 2);
        stop.store(true, Ordering::Relaxed);
    });
    PhaseResult {
        mode: "closed",
        offered_qps: None,
        shards,
        stats: server.stats(),
    }
}

/// Offer load at a fixed arrival rate for `duration`: submitter threads pull
/// arrival slots off a shared schedule (`start + i/rate`), sleep until their
/// slot, then submit and block for the answer. With enough submitters the
/// schedule — not the server — paces arrivals, which is what makes the tail
/// honest (coordinated-omission-free up to the submitter pool size). As in
/// the closed phase, `swap_snapshot` is published at the midpoint.
#[allow(clippy::too_many_arguments)] // a load phase really has this many axes
fn run_open(
    server: &Arc<BatchingServer>,
    swap_snapshot: Arc<dyn FrozenModel>,
    test: &Dataset,
    submitters: usize,
    rate_qps: f64,
    duration: Duration,
    k: usize,
    shards: usize,
) -> PhaseResult {
    server.reset_stats();
    let interval = Duration::from_secs_f64(1.0 / rate_qps.max(1.0));
    let start = Instant::now();
    let arrivals = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for c in 0..submitters {
            let server = Arc::clone(server);
            let arrivals = Arc::clone(&arrivals);
            scope.spawn(move || {
                let zipf = Zipf::new(test.len(), 0.9);
                let mut rng = SmallRng::seed_from_u64(0x09E7 ^ c as u64);
                loop {
                    let i = arrivals.fetch_add(1, Ordering::Relaxed);
                    let due = start + interval.mul_f64(i as f64);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    if start.elapsed() >= duration {
                        return;
                    }
                    let x = test.features(zipf.sample(&mut rng));
                    server
                        .predict(x.indices, x.values, k)
                        .expect("open-loop request failed");
                }
            });
        }
        std::thread::sleep(duration / 2);
        server.publish(swap_snapshot);
    });
    PhaseResult {
        mode: "open",
        offered_qps: Some(rate_qps),
        shards,
        stats: server.stats(),
    }
}

fn print_phase(p: &PhaseResult) {
    let s = &p.stats;
    let offered = match p.offered_qps {
        Some(q) => format!(" (offered {q:.0} req/s)"),
        None => String::new(),
    };
    println!(
        "  {:<6} x{:<2} {:>8.0} req/s{offered}  p50 {:>6}us  p99 {:>6}us  max {:>7}us  \
         mean batch {:>5.1}  batches {}  swaps {}  errors {}",
        p.mode,
        p.shards,
        s.throughput_qps,
        s.latency.p50_us,
        s.latency.p99_us,
        s.latency.max_us,
        s.mean_batch,
        s.batches,
        s.hot_swaps,
        s.errors,
    );
}

fn main() {
    let scale = scale();
    let train_epochs = epochs(3);
    let clients = env_usize("SLIDE_CLIENTS", 8);
    let duration = Duration::from_millis(env_usize("SLIDE_SERVE_MS", 2000) as u64);
    let k = env_usize("SLIDE_SERVE_K", 5);
    let max_batch = env_usize("SLIDE_MAX_BATCH", 64);
    let max_wait = Duration::from_micros(env_usize("SLIDE_MAX_WAIT_US", 500) as u64);
    let precision = precision_axis();
    let shards = shards_axis();

    let w = Workload::Amazon670k;
    let (train, test) = w.dataset(scale);
    println!(
        "serve_bench: workload {} (scale {scale}), {} train / {} test, simd {}, precision {precision}, shards {shards}",
        w.name(),
        train.len(),
        test.len(),
        slide_simd::effective_level()
    );

    let net_cfg = w.network_config(train.feature_dim(), train.label_dim());
    let mut trainer = Trainer::new(
        Network::new(net_cfg).expect("valid network config"),
        w.trainer_config(),
    )
    .expect("valid trainer config");
    let t0 = Instant::now();
    for epoch in 0..train_epochs {
        trainer.train_epoch(&train, epoch as u64);
    }
    println!(
        "trained {train_epochs} epochs in {:.1}s; freezing at precision {precision}",
        t0.elapsed().as_secs_f64()
    );

    // Snapshot factory for the chosen precision × shard axes — the single
    // construction site for every serving snapshot and every mid-phase
    // hot-swap snapshot (the shard sweep re-freezes at each shard count).
    // The quantization-error report is printed for the first i8 snapshot
    // only.
    let out_dim = trainer.network().config().output_dim;
    let report_printed = std::cell::Cell::new(false);
    let freeze = |net: &Network, n_shards: usize| -> Arc<dyn FrozenModel> {
        let plan = (n_shards > 1)
            .then(|| ShardPlan::contiguous(n_shards, out_dim).expect("validated shard axis"));
        if precision == "i8" {
            let quant =
                QuantizedFrozenNetwork::freeze_sharded(net, plan).expect("shardable network");
            if !report_printed.replace(true) {
                println!(
                    "int8 path: {} — per-layer reconstruction error:\n{}",
                    slide_simd::KernelSet::resolve().int8_isa(),
                    quant.report()
                );
            }
            Arc::new(quant)
        } else {
            Arc::new(FrozenNetwork::freeze_sharded(net, plan).expect("shardable network"))
        }
    };
    if shards > out_dim {
        eprintln!("serve_bench: --shards {shards} exceeds output dim {out_dim}");
        std::process::exit(2);
    }

    // Closed-loop phase(s): a single run when unsharded, a shard-scaling
    // sweep over N ∈ {1, 2, 4, 8} (plus the requested N, capped at the
    // output dim) when sharding is requested.
    let sweep: Vec<usize> = if shards > 1 {
        let mut s: Vec<usize> = [1usize, 2, 4, 8]
            .into_iter()
            .chain(std::iter::once(shards))
            .filter(|&n| n <= out_dim)
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    } else {
        vec![1]
    };

    // Every sweep point serves a snapshot of the *same* trained network,
    // frozen once per shard count up front (sweep_len snapshots resident —
    // the price of comparing shard counts over identical weights), and
    // hot-swaps to a snapshot of a *further-trained* network at t/2, so
    // each phase exercises a genuine weight-changing publish exactly as
    // the PR 2–4 protocol did.
    let serve_models: Vec<Arc<dyn FrozenModel>> = sweep
        .iter()
        .map(|&n| freeze(trainer.network(), n))
        .collect();
    let at_requested = sweep
        .iter()
        .position(|&n| n == shards)
        .expect("sweep includes the requested shard count");
    println!(
        "frozen snapshot: {:.1} MiB of aligned arenas, precision {}",
        serve_models[at_requested].arena_bytes() as f64 / (1 << 20) as f64,
        serve_models[at_requested].precision(),
    );
    let server = Arc::new(
        BatchingServer::start(
            serve_models[at_requested].clone(),
            BatchConfig {
                max_batch,
                max_wait,
                queue_cap: (4 * max_batch).max(1024),
                threads: 0,
            },
        )
        .expect("valid batch config"),
    );

    // Train one epoch further so every hot-swap snapshot has genuinely
    // different weights from the snapshot it replaces.
    trainer.train_epoch(&train, train_epochs as u64);
    let swap_net = trainer.into_network();

    let mut phases: Vec<PhaseResult> = Vec::new();
    for (i, &n) in sweep.iter().enumerate() {
        println!(
            "phase 1.{}: closed-loop x{n} shard(s), {clients} clients, {:?}, hot-swap at t/2",
            i + 1,
            duration
        );
        server.publish(serve_models[i].clone());
        let closed = run_closed(
            &server,
            freeze(&swap_net, n),
            &test,
            clients,
            duration,
            k,
            n,
        );
        print_phase(&closed);
        assert_eq!(closed.stats.errors, 0, "closed-loop requests errored");
        phases.push(closed);
    }
    // Open phase: back on the requested shard count, swapping to the
    // further-trained snapshot at t/2.
    server.publish(serve_models[at_requested].clone());
    let capacity_phase = &phases[at_requested];

    // Offer ~60% of measured capacity so the open phase measures queueing
    // under feasible load rather than saturation collapse.
    let capacity = capacity_phase.stats.throughput_qps.max(50.0);
    let offered = capacity * 0.6;
    println!(
        "phase 2: open-loop at {offered:.0} req/s ({} submitters), {:?}, hot-swap at t/2",
        clients * 4,
        duration
    );
    let open = run_open(
        &server,
        freeze(&swap_net, shards),
        &test,
        clients * 4,
        offered,
        duration,
        k,
        shards,
    );
    print_phase(&open);
    assert_eq!(open.stats.errors, 0, "open-loop requests errored");
    phases.push(open);

    let shard_precisions = vec![precision; shards].join("|");
    let json = bench_report_json(
        &BenchMeta {
            source: "serve_bench",
            workload: "amazon670k",
            scale,
            clients,
            threads: server.threads(),
            max_batch,
            max_wait_us: max_wait.as_micros() as u64,
            k,
            precision,
            shards,
            shard_precisions: &shard_precisions,
        },
        &phases
            .iter()
            .map(|p| phase_json(p.mode, p.offered_qps, p.shards, &p.stats))
            .collect::<Vec<_>>(),
    );
    let path = std::env::var("SLIDE_JSON_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::write(&path, &json).expect("write BENCH_serve.json");
    println!("report written to {path}");
}
