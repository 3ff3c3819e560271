//! The two serving workloads. Three phases over one loaded snapshot:
//!
//! * **engine** — queries straight into `FrozenModel::predict_any` on one
//!   thread, in probe-paired chunks of 64: the paper's part (retrieval +
//!   scoring on 106K rows), CPU-busy, so it is normalised;
//! * **open** — one generator thread on a `start + i/rate` schedule at
//!   250 / 500 / 1000 req/s, latency timed from the due instant, through
//!   `BatchingServer` (and a loopback socket on `serve_net_i8`);
//! * **closed** — two blocking clients, with one `publish` of a re-loaded
//!   snapshot at the midpoint (writes beside reads).
//!
//! Anything through the batcher or a socket is wait-dominated and stays raw.
//! Every reply, in process or over the socket, before and after the swap, is
//! compared with the direct engine's answer for that query under
//! `query_salt` — the repo's bit-equality invariant.

use crate::fixture::Shape;
use crate::harness::{
    median, overlap, percentile, release_freed_memory, valid_topk, Ctx, SplitMix, ZipfOrder,
    SETUP_REPEATS,
};
use crate::probe::{Kind, PhaseClock, Slice, SETUP_SLICE};
use crate::trace::{SpanId, Tracer};
use crate::{layers, micro, train};
use slide_core::Trainer;
use slide_data::Dataset;
use slide_net::{NetClient, NetConfig, NetServer, Router, RouterConfig};
use slide_obs::StageSample;
use slide_quant::Snapshot;
use slide_serve::{query_salt, BatchConfig, BatchingServer, FrozenModel, ShardPlan, SnapshotSpec};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Labels asked of every query.
const K: usize = 5;
/// Single-thread batches that pre-train the served model in each set-up.
const PRETRAIN_BATCHES: usize = 8;
/// Test queries the phases draw from (the first `POOL` of the test split).
const POOL: usize = 4096;
/// Queries whose served top-5 is looked up in the exact f32 top-`EXACT_TOP`.
const RECALL_QUERIES: usize = 512;
/// Depth of the exact ranking the served labels are looked up in. The
/// fixture's LSH tables keep 128 ids per bucket of ~1 660, so retrieval is
/// close to a 3 % sample of the layer and the exact top-5 itself is rarely
/// retrieved; the top-50 gives a quality signal with ten times the hits.
const EXACT_TOP: usize = 50;
/// Engine-phase queries: one pass over the pool, then Zipf(0.9) draws.
const ENGINE_QUERIES: usize = 26_000;
/// Queries per probe-paired engine chunk.
const ENGINE_CHUNK: usize = 64;
/// Open-loop `(rate in req/s, seconds)`; `op_p50_us` is the 500 req/s row.
const OPEN_PHASES: [(f64, f64); 3] = [(250.0, 1.5), (500.0, 4.0), (1000.0, 1.5)];
/// Threads that submit the generator's requests and block for the answers.
const SUBMITTERS: usize = 8;
/// The generator sleeps until this long before a request is due, then spins.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);
/// Closed-loop clients and requests per client.
const CLOSED_CLIENTS: usize = 2;
const CLOSED_REQUESTS: usize = 2_400;
/// Latency limit behind `serve.max_rate_under_limit`, on the p90.
const LATENCY_LIMIT_US: f64 = 2_000.0;

/// The slice paired with the hand-over stages (snapshot build, save, load):
/// mostly sequential copies, which slow somewhat less than the probe.
const HAND_OVER_SLICE: Slice = Slice {
    kind: Kind::Update,
    rows: SETUP_SLICE.rows,
    sensitivity: 0.75,
};

/// Which of the two serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeWorkload {
    /// f32, unsharded, in process.
    InProc,
    /// int8, unsharded, loopback TCP.
    NetI8,
}

/// What the hand-over from trainer to server leaves behind.
struct HandOver {
    model: Arc<dyn FrozenModel>,
    path: PathBuf,
    clock: PhaseClock,
    build_s: f64,
    save_s: f64,
    load_s: f64,
}

impl ServeWorkload {
    fn snapshot_spec(self) -> SnapshotSpec {
        match self {
            ServeWorkload::InProc => SnapshotSpec::f32(),
            ServeWorkload::NetI8 => SnapshotSpec::i8(),
        }
    }

    /// The slice between engine chunks of 64 queries. The f32 engine
    /// (software prefetch, Zipf-hot rows that stay cached, 65 MiB of rows)
    /// slows about half as much as the `Read` probe; the int8 engine, whose
    /// 27 MiB of rows live or die with its share of the L3, a little more
    /// than the probe.
    fn engine_slice(self) -> Slice {
        Slice {
            kind: Kind::Read,
            rows: 4_000,
            sensitivity: match self {
                ServeWorkload::InProc => 0.5,
                ServeWorkload::NetI8 => 1.25,
            },
        }
    }
}

/// One set-up of a serving workload: snapshot the trained network, save it,
/// mmap-load it and answer a first query. (What comes before — data, network
/// init, training — is the trainer's set-up, measured on `train_xc` over the
/// same fixture; here it is fixture preparation, done once.)
fn hand_over(ctx: &mut Ctx, w: ServeWorkload, trainer: &Trainer, test: &Dataset) -> HandOver {
    let Ctx {
        tracer,
        host,
        args,
        root,
        ..
    } = ctx;
    let (tracer, root) = (&*tracer, *root);
    let span = tracer.open("bench.hand_over", root, 0);
    let mut clock = PhaseClock::default();
    let spec = w.snapshot_spec();
    let path = args.out_dir.join(format!("{}.slsnap", args.workload));
    std::fs::create_dir_all(&args.out_dir).expect("create the benchmark's out directory");
    host.slice(tracer, root, HAND_OVER_SLICE);

    let (snapshot, build) = host.paired(tracer, root, &mut clock, HAND_OVER_SLICE, || {
        tracer.span("quant.snapshot_build", span, 0, || {
            Snapshot::build(trainer.network(), &spec).expect("snapshot of the fixture network")
        })
    });
    let ((), save) = host.paired(tracer, root, &mut clock, HAND_OVER_SLICE, || {
        tracer.span("quant.snapshot_save", span, 0, || {
            snapshot
                .save(&path)
                .expect("save the snapshot inside the checkout")
        })
    });
    drop(snapshot);
    release_freed_memory();
    let (model, load) = host.paired(tracer, root, &mut clock, HAND_OVER_SLICE, || {
        tracer.span("quant.snapshot_load", span, 0, || {
            let model = slide_quant::load(&path).expect("mmap-load the saved snapshot");
            let x = test.features(0);
            let mut scratch = model.make_scratch_any();
            let first =
                model.predict_any(x, K, scratch.as_mut(), query_salt(x.indices, x.values, K));
            assert_eq!(first.len(), K, "first answer after load");
            model
        })
    });
    tracer.close(span);
    HandOver {
        model,
        path,
        clock,
        build_s: build.raw_s,
        save_s: save.raw_s,
        load_s: load.raw_s,
    }
}

fn repeated_hand_over(
    ctx: &mut Ctx,
    w: ServeWorkload,
    trainer: &Trainer,
    test: &Dataset,
) -> HandOver {
    let mut all: Vec<[f64; 5]> = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        release_freed_memory();
        let mut s = hand_over(ctx, w, trainer, test);
        all.push([s.clock.raw_s, s.clock.norm_s, s.build_s, s.save_s, s.load_s]);
        ctx.keep_phase("setup", HAND_OVER_SLICE, std::mem::take(&mut s.clock));
        last = Some(s);
    }
    let col = |c: usize| median(&all.iter().map(|r| r[c]).collect::<Vec<_>>());
    train::report_setup(ctx, col(0), col(1));
    let r = &mut ctx.report;
    r.set("serve.freeze_s", col(2));
    r.set("serve.snapshot_save_ms", col(3) * 1e3);
    r.set("serve.snapshot_load_ms", col(4) * 1e3);
    if w == ServeWorkload::NetI8 {
        r.set("quant.build_s", col(2));
    }
    last.expect("SETUP_REPEATS > 0")
}

/// Where the load phases send their requests.
#[derive(Clone, Copy)]
enum Target<'a> {
    InProc(&'a BatchingServer),
    Socket(SocketAddr),
}

enum Client<'a> {
    InProc(&'a BatchingServer),
    Socket(Box<NetClient>),
}

impl<'a> Target<'a> {
    fn client(self) -> Client<'a> {
        match self {
            Target::InProc(s) => Client::InProc(s),
            Target::Socket(addr) => Client::Socket(Box::new(
                NetClient::connect(addr, Duration::from_secs(5)).expect("connect on loopback"),
            )),
        }
    }
}

impl Client<'_> {
    fn predict(&mut self, indices: &[u32], values: &[f32]) -> Option<Vec<u32>> {
        match self {
            Client::InProc(s) => s.predict(indices, values, K).ok(),
            Client::Socket(c) => c.predict(indices, values, K).ok(),
        }
    }
}

/// The fixed query pool with the direct engine's answer to each query.
struct Queries<'a> {
    test: &'a Dataset,
    expected: Vec<Vec<u32>>,
}

impl Queries<'_> {
    /// Send pool query `q` and compare the reply with the engine's answer.
    fn ask(&self, client: &mut Client<'_>, q: usize) -> bool {
        let x = self.test.features(q);
        client.predict(x.indices, x.values).as_deref() == Some(&self.expected[q][..])
    }
}

struct OpenResult {
    /// Latency from the due instant, µs, in request order.
    lat_us: Vec<f64>,
    /// How late the generator handed each request over, µs.
    late_us: Vec<f64>,
    failed: u64,
}

/// One open-loop phase of `n` requests at `rate`.
fn open_loop(
    tracer: &Tracer,
    parent: SpanId,
    target: Target<'_>,
    queries: &Queries<'_>,
    order: &[usize],
    rate: f64,
) -> OpenResult {
    let span = tracer.open("bench.open_loop", parent, rate as u64);
    let n = order.len();
    let mut lat_us = vec![0.0; n];
    let mut late_us = Vec::with_capacity(n);
    let mut failed = 0u64;
    std::thread::scope(|scope| {
        let mut lanes = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..SUBMITTERS {
            let (tx, rx) = mpsc::channel::<(usize, Instant)>();
            lanes.push(tx);
            handles.push(scope.spawn(move || {
                let mut client = target.client();
                let mut done = Vec::new();
                for (i, due) in rx {
                    let ok = queries.ask(&mut client, order[i]);
                    let end = Instant::now();
                    tracer.record("serve.request", span, i as u64, due, end);
                    done.push((i, end.duration_since(due).as_secs_f64() * 1e6, ok));
                }
                done
            }));
        }
        // Let every submitter connect before the schedule starts.
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        for i in 0..n {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let wake = due.checked_sub(SPIN_BEFORE_DUE).unwrap_or(due);
            let now = Instant::now();
            if wake > now {
                std::thread::sleep(wake - now);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            late_us.push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
            lanes[i % SUBMITTERS]
                .send((i, due))
                .expect("submitter alive");
        }
        drop(lanes);
        for h in handles {
            for (i, lat, ok) in h.join().expect("submitter thread panicked") {
                lat_us[i] = lat;
                failed += u64::from(!ok);
            }
        }
    });
    tracer.close(span);
    OpenResult {
        lat_us,
        late_us,
        failed,
    }
}

struct ClosedResult {
    qps: f64,
    lat_p50_us: f64,
    swap_stall_us: f64,
    failed: u64,
}

/// The closed-loop phase: `CLOSED_CLIENTS` blocking clients, a fixed number
/// of requests each, `publish` called once half of them are answered.
fn closed_loop(
    tracer: &Tracer,
    parent: SpanId,
    target: Target<'_>,
    queries: &Queries<'_>,
    per_client: usize,
    seed: u64,
    publish: impl FnOnce(),
) -> ClosedResult {
    let span = tracer.open("bench.closed_loop", parent, 0);
    let done = AtomicU64::new(0);
    let zipf = ZipfOrder::new(queries.expected.len(), 0.9);
    let mut all: Vec<(Instant, f64, bool)> = Vec::new();
    let mut published = Instant::now();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLOSED_CLIENTS)
            .map(|c| {
                let (done, zipf) = (&done, &zipf);
                scope.spawn(move || {
                    let mut client = target.client();
                    let mut rng = SplitMix(seed ^ (0xC105_ED00 + c as u64));
                    let mut out = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let q = zipf.sample(&mut rng);
                        let t0 = Instant::now();
                        let ok = queries.ask(&mut client, q);
                        let end = Instant::now();
                        tracer.record("serve.request", span, (c * per_client + i) as u64, t0, end);
                        out.push((end, end.duration_since(t0).as_secs_f64() * 1e6, ok));
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    out
                })
            })
            .collect();
        let half = (CLOSED_CLIENTS * per_client / 2) as u64;
        while done.load(Ordering::Relaxed) < half {
            std::thread::sleep(Duration::from_millis(1));
        }
        published = Instant::now();
        tracer.span("serve.publish", span, 0, publish);
        for h in handles {
            all.extend(h.join().expect("closed-loop client panicked"));
        }
    });
    let wall = start.elapsed().as_secs_f64();
    tracer.close(span);
    let lat: Vec<f64> = all.iter().map(|r| r.1).collect();
    let window = Duration::from_millis(100);
    ClosedResult {
        qps: all.len() as f64 / wall,
        lat_p50_us: median(&lat),
        swap_stall_us: all
            .iter()
            .filter(|r| r.0 >= published && r.0 <= published + window)
            .map(|r| r.1)
            .fold(0.0, f64::max),
        failed: all.iter().filter(|r| !r.2).count() as u64,
    }
}

/// Whether latency kept rising through an open phase: the last fifth's
/// median against the first fifth's.
fn backlog_grew(lat_us: &[f64]) -> bool {
    let fifth = (lat_us.len() / 5).max(1);
    let first = median(&lat_us[..fifth]);
    let last = median(&lat_us[lat_us.len() - fifth..]);
    last > 2.0 * first + 1_000.0
}

/// Zipf(0.9) draws over the pool for one phase.
fn zipf_order(pool: usize, n: usize, seed: u64) -> Vec<usize> {
    let zipf = ZipfOrder::new(pool, 0.9);
    let mut rng = SplitMix(seed);
    (0..n).map(|_| zipf.sample(&mut rng)).collect()
}

/// Run one serving workload.
pub fn run(ctx: &mut Ctx, w: ServeWorkload) {
    let train::TrainSetup {
        train,
        test,
        mut trainer,
        gen_s,
        net_init_s,
        ..
    } = train::set_up(ctx, Shape::Xc, 1, PRETRAIN_BATCHES);
    ctx.report.set("data.gen_s", gen_s);
    ctx.report.set("core.net_init_s", net_init_s);
    let HandOver { model, path, .. } = repeated_hand_over(ctx, w, &trainer, &test);
    let seed = ctx.args.seed;
    let pool = POOL.min(test.len());
    let label_dim = test.label_dim();

    // Exact f32 top-5 of the network the snapshot was cut from.
    let reference: Vec<Vec<u32>> = ctx.tracer.span("core.predict_exact", ctx.root, 0, || {
        let net = trainer.network();
        let mut scratch = net.make_scratch();
        (0..RECALL_QUERIES.min(pool))
            .map(|q| net.predict(test.features(q), EXACT_TOP, &mut scratch, true, q as u64))
            .collect()
    });

    // Engine phase.
    let n_engine = ctx.scaled(ENGINE_QUERIES).max(pool);
    let mut order: Vec<usize> = (0..pool).collect();
    order.extend(zipf_order(pool, n_engine - pool, seed ^ 0xE261_4E00));
    let engine_span = ctx.tracer.open("bench.engine_phase", ctx.root, 0);
    let engine_slice = w.engine_slice();
    ctx.host.slice(&ctx.tracer, ctx.root, engine_slice);
    let mut scratch = model.make_scratch_any();
    let mut clock = PhaseClock::default();
    let mut expected: Vec<Vec<u32>> = Vec::with_capacity(pool);
    let (mut mismatched, mut invalid) = (0u64, 0u64);
    let mut query_us: Vec<f64> = Vec::new();
    // On a traced run every other chunk records one span per query; the two
    // halves give the tracing overhead within one run.
    let mut chunk_norm: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (c, chunk) in order.chunks(ENGINE_CHUNK).enumerate() {
        let tracer = &ctx.tracer;
        let traced = tracer.enabled() && c % 2 == 0;
        let (answers, t) = ctx
            .host
            .paired(tracer, ctx.root, &mut clock, engine_slice, || {
                chunk
                    .iter()
                    .map(|&q| {
                        let x = test.features(q);
                        let salt = query_salt(x.indices, x.values, K);
                        if traced {
                            let t0 = Instant::now();
                            let a = model.predict_any(x, K, scratch.as_mut(), salt);
                            let t1 = Instant::now();
                            tracer.record("serve.predict_any", engine_span, q as u64, t0, t1);
                            query_us.push((t1 - t0).as_secs_f64() * 1e6);
                            a
                        } else {
                            model.predict_any(x, K, scratch.as_mut(), salt)
                        }
                    })
                    .collect::<Vec<_>>()
            });
        if chunk.len() == ENGINE_CHUNK {
            chunk_norm[c % 2].push(t.norm_s);
        }
        for (&q, a) in chunk.iter().zip(answers) {
            if q == expected.len() {
                invalid += u64::from(!valid_topk(&a, K, label_dim));
                expected.push(a);
            } else {
                mismatched += u64::from(a != expected[q]);
            }
        }
    }
    ctx.tracer.close(engine_span);
    let engine_qps = (
        n_engine as f64 / clock.norm_s,
        n_engine as f64 / clock.raw_s,
    );
    ctx.keep_phase("engine", engine_slice, clock);
    ctx.report.check_many(
        pool as u64,
        invalid,
        "engine answers are 5 distinct in-range labels",
    );
    ctx.report.check_many(
        (n_engine - pool) as u64,
        mismatched,
        "the engine repeats its own answers",
    );
    let recall = reference
        .iter()
        .enumerate()
        .map(|(q, r)| overlap(&expected[q], r, K))
        .sum::<f64>()
        / reference.len() as f64;
    let p_at_1 = (0..pool)
        .filter(|&q| test.labels(q).contains(&expected[q][0]))
        .count() as f64
        / pool as f64;
    let queries = Queries {
        test: &test,
        expected,
    };

    // Load phases through the batcher (and, on serve_net_i8, a socket).
    let server = Arc::new(
        BatchingServer::start(
            Arc::clone(&model),
            BatchConfig {
                max_batch: 64,
                max_wait: Duration::from_micros(500),
                queue_cap: 1024,
                threads: 1,
            },
        )
        .expect("fixture batch config"),
    );
    let mut net_server = match w {
        ServeWorkload::InProc => None,
        ServeWorkload::NetI8 => Some(
            NetServer::start(Arc::clone(&server), "127.0.0.1:0", NetConfig::default())
                .expect("bind a loopback port"),
        ),
    };
    let target = match &net_server {
        None => Target::InProc(&server),
        Some(ns) => Target::Socket(ns.local_addr()),
    };

    let mut open: Vec<OpenResult> = Vec::new();
    let mut batch_size_mean = 0.0;
    for (rate, secs) in OPEN_PHASES {
        let n = ctx.scaled((rate * secs) as usize);
        let order = zipf_order(pool, n, seed ^ rate as u64);
        server.reset_stats();
        let r = open_loop(&ctx.tracer, ctx.root, target, &queries, &order, rate);
        if rate == 500.0 {
            batch_size_mean = server.stats().mean_batch;
        }
        ctx.report
            .check_many(n as u64, r.failed, "open-loop replies equal the engine's");
        open.push(r);
    }

    let swap = ctx.tracer.span("quant.snapshot_load", ctx.root, 1, || {
        slide_quant::load(&path).expect("re-load the snapshot for the swap")
    });
    let per_client = ctx.scaled(CLOSED_REQUESTS);
    let closed = closed_loop(
        &ctx.tracer,
        ctx.root,
        target,
        &queries,
        per_client,
        seed,
        || server.publish(swap),
    );
    ctx.report.check_many(
        (CLOSED_CLIENTS * per_client) as u64,
        closed.failed,
        "closed-loop replies equal the engine's, before and after the swap",
    );
    ctx.report.check(server.stats().hot_swaps == 1, || {
        "exactly one publish landed".into()
    });

    let at_500 = &open[1];
    let r = &mut ctx.report;
    r.set("work_per_s", engine_qps.0);
    r.set("work_per_s.raw", engine_qps.1);
    r.set("op_p50_us", median(&at_500.lat_us));
    r.set("op_p50_us.raw", median(&at_500.lat_us));
    r.set("quality", recall);
    r.set(
        "model_mib",
        model.arena_bytes() as f64 / (1u64 << 20) as f64,
    );
    r.set("serve.closed_qps", closed.qps);
    if ctx.args.trace {
        let r = &mut ctx.report;
        r.set("serve.p_at_1", p_at_1);
        r.set("serve.engine_us_p50", median(&query_us));
        r.set("serve.engine_us_p99", percentile(&query_us, 99.0));
        r.set(
            "trace.overhead_share",
            median(&chunk_norm[0]) / median(&chunk_norm[1]) - 1.0,
        );
        r.set("serve.batch_size_mean", batch_size_mean);
        r.set(
            "serve.batcher_overhead_us_p50",
            median(&at_500.lat_us) - median(&query_us),
        );
        r.set("serve.lat_p90_us", percentile(&at_500.lat_us, 90.0));
        r.set("serve.lat_p99_us", percentile(&at_500.lat_us, 99.0));
        r.set("serve.lat_samples", at_500.lat_us.len() as f64);
        r.set("serve.lat_p50_us_at_250", median(&open[0].lat_us));
        r.set("serve.lat_p50_us_at_1000", median(&open[2].lat_us));
        let late: Vec<f64> = open
            .iter()
            .flat_map(|o| o.late_us.iter().copied())
            .collect();
        r.set("serve.gen_late_p99_us", percentile(&late, 99.0));
        let under_limit = |o: &&OpenResult| {
            o.failed == 0
                && percentile(&o.lat_us, 90.0) <= LATENCY_LIMIT_US
                && !backlog_grew(&o.lat_us)
        };
        let max_rate = OPEN_PHASES
            .iter()
            .zip(&open)
            .filter(|(_, o)| under_limit(o))
            .map(|(p, _)| p.0)
            .fold(0.0, f64::max);
        r.set("serve.max_rate_under_limit", max_rate);
        r.set("serve.closed_lat_p50_us", closed.lat_p50_us);
        r.set("serve.swap_stall_us", closed.swap_stall_us);
        let render_ms: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(server.obs().render());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        r.set("obs.metrics_render_ms", median(&render_ms));
        if let Some(ns) = &net_server {
            hops(
                ctx,
                &server,
                ns.local_addr(),
                &queries,
                median(&at_500.lat_us),
            );
        }
    }

    if let Some(ns) = net_server.as_mut() {
        ns.drain();
    }
    drop(net_server);
    server.close();
    drop(server);
    let _ = std::fs::remove_file(&path);

    if ctx.args.trace {
        match w {
            ServeWorkload::InProc => f32_engine_steps(ctx, &trainer, &queries),
            ServeWorkload::NetI8 => sharded_i8(ctx, &trainer, &queries),
        }
        layers::network_layers(ctx, &mut trainer, &train);
        drop((trainer, model));
        micro::run(ctx);
    }
}

/// The 2-shard int8 engine, per layer only: every query fans out over a
/// 2-worker pool, so its direct rate is thread hand-off noise and is not
/// gated. Its answers must equal the unsharded engine's bit for bit.
/// `quant.shard_merge_us` is the merge field of `predict_any_timed`, a
/// program-reported cross-check in whole microseconds per call.
fn sharded_i8(ctx: &mut Ctx, trainer: &Trainer, queries: &Queries<'_>) {
    let span = ctx.tracer.open("bench.sharded_i8", ctx.root, 0);
    let plan =
        ShardPlan::contiguous(2, queries.test.label_dim()).expect("2 shards of the label space");
    let model = ctx.tracer.span("quant.snapshot_build", span, 2, || {
        Snapshot::build(trainer.network(), &SnapshotSpec::i8().sharded(plan))
            .and_then(|s| s.model())
            .expect("2-shard int8 snapshot of the fixture network")
    });
    let mut scratch = model.make_scratch_any();
    let n = 2048.min(queries.expected.len());
    let (mut merge_us, mut same) = (0u64, 0u64);
    let mut query_us = Vec::with_capacity(n);
    for q in 0..n {
        let x = queries.test.features(q);
        let salt = query_salt(x.indices, x.values, K);
        let mut stages = StageSample::default();
        let t0 = Instant::now();
        let a = model.predict_any_timed(x, K, scratch.as_mut(), salt, &mut stages);
        let t1 = Instant::now();
        ctx.tracer
            .record("quant.predict_any_timed", span, q as u64, t0, t1);
        query_us.push((t1 - t0).as_secs_f64() * 1e6);
        merge_us += stages.merge_us;
        same += u64::from(a == queries.expected[q]);
    }
    ctx.tracer.close(span);
    ctx.report
        .set("quant.shard_merge_us", merge_us as f64 / n as f64);
    ctx.report
        .set("quant.sharded_engine_us_p50", median(&query_us));
    ctx.report.check_many(
        n as u64,
        n as u64 - same,
        "the 2-shard engine answers as the unsharded one",
    );
}

/// The public steps of the f32 engine, one at a time: hidden forward, LSH
/// selection, and (by subtraction from the whole query) scoring + top-k; and
/// the exact `predict_full` the recall reference stands for.
fn f32_engine_steps(ctx: &mut Ctx, trainer: &Trainer, queries: &Queries<'_>) {
    let span = ctx.tracer.open("bench.f32_engine_steps", ctx.root, 0);
    let frozen = ctx.tracer.span("serve.freeze", span, 0, || {
        slide_serve::FrozenNetwork::freeze(trainer.network())
    });
    let mut scratch = frozen.make_scratch();
    let n = 2048.min(queries.expected.len());
    let per_call_us = |t: Instant, n: usize| t.elapsed().as_secs_f64() * 1e6 / n as f64;

    let t = Instant::now();
    let id = ctx.tracer.open("serve.forward_hidden", span, 0);
    let hidden: Vec<Vec<f32>> = (0..n)
        .map(|q| {
            frozen.forward_hidden(queries.test.features(q), &mut scratch);
            scratch
                .acts
                .last()
                .expect("a hidden layer")
                .as_slice()
                .to_vec()
        })
        .collect();
    ctx.tracer.close(id);
    let forward_us = per_call_us(t, n);

    let mut active = 0usize;
    let t = Instant::now();
    let id = ctx.tracer.open("serve.select_active", span, 0);
    for (q, h) in hidden.iter().enumerate() {
        let x = queries.test.features(q);
        frozen.select_active(h, &mut scratch, query_salt(x.indices, x.values, K));
        active += scratch.active.len();
    }
    ctx.tracer.close(id);
    let select_us = per_call_us(t, n);

    let t = Instant::now();
    let id = ctx.tracer.open("serve.predict_sparse", span, 0);
    for q in 0..n {
        let x = queries.test.features(q);
        std::hint::black_box(frozen.predict_sparse(
            x,
            K,
            &mut scratch,
            query_salt(x.indices, x.values, K),
        ));
    }
    ctx.tracer.close(id);
    let whole_us = per_call_us(t, n);

    let t = Instant::now();
    let id = ctx.tracer.open("serve.predict_full", span, 0);
    for q in 0..64 {
        std::hint::black_box(frozen.predict_full(queries.test.features(q), K, &mut scratch));
    }
    ctx.tracer.close(id);
    let full_us = per_call_us(t, 64);
    ctx.tracer.close(span);

    let r = &mut ctx.report;
    r.set("serve.forward_hidden_us", forward_us);
    r.set("serve.select_active_us", select_us);
    r.set("serve.score_topk_us", whole_us - forward_us - select_us);
    r.set("serve.active_set_mean", active as f64 / n as f64);
    r.set("serve.predict_full_us", full_us);
}

/// `net.socket_hop_us_p50` and `net.router_hop_us_p50`: the same 500 req/s
/// open loop once in process and once through an in-process `Router` in
/// front of the socket, against the socket's own p50 from this run.
fn hops(
    ctx: &mut Ctx,
    server: &BatchingServer,
    replica: SocketAddr,
    queries: &Queries<'_>,
    socket_p50_us: f64,
) {
    let n = ctx.scaled(1_000);
    let order = zipf_order(queries.expected.len(), n, ctx.args.seed ^ 0x0409);
    let inproc = open_loop(
        &ctx.tracer,
        ctx.root,
        Target::InProc(server),
        queries,
        &order,
        500.0,
    );
    let mut router = Router::start(
        "127.0.0.1:0",
        &[replica],
        RouterConfig {
            hedge: false,
            ..RouterConfig::default()
        },
    )
    .expect("bind a loopback port for the router");
    let routed = open_loop(
        &ctx.tracer,
        ctx.root,
        Target::Socket(router.local_addr()),
        queries,
        &order,
        500.0,
    );
    router.drain();
    ctx.report.check_many(
        2 * n as u64,
        inproc.failed + routed.failed,
        "hop replies equal the engine's",
    );
    ctx.report.set(
        "net.socket_hop_us_p50",
        socket_p50_us - median(&inproc.lat_us),
    );
    ctx.report.set(
        "net.router_hop_us_p50",
        median(&routed.lat_us) - socket_p50_us,
    );
}
