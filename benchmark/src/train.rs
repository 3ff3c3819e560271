//! The two training workloads: a fixed number of batches through
//! `Trainer::train_batch`, each batch timed between two probe slices.

use crate::fixture::{BatchFeed, Shape};
use crate::harness::{
    median, overlap, percentile, release_freed_memory, valid_topk, Ctx, SETUP_REPEATS,
};
use crate::probe::{Kind, PhaseClock, Slice, EVAL_SLICE, SETUP_SLICE};
use crate::{layers, micro, spec};
use slide_core::{Network, Trainer};
use slide_data::Dataset;

/// The constants of one training workload, stated for `spec::RUN_SECONDS`.
pub struct TrainWorkload {
    /// Model shape.
    pub shape: Shape,
    /// Trainer threads (a constant, never "all cores").
    pub threads: usize,
    /// How much more (or less) than the `Update` probe a timed batch slows
    /// down on a busy host (see [`Slice::sensitivity`]).
    pub batch_sensitivity: f64,
    /// Untimed batches that end each set-up.
    pub warmup_batches: usize,
    /// Timed batches.
    pub timed_batches: usize,
    /// Test samples scored after the fixed work.
    pub eval_samples: usize,
    /// At the reference run length the run fails its quality check below
    /// this P@1 (about half of what ten seeds measure); a shorter run only
    /// has to score above zero.
    pub min_p_at_1: f64,
}

impl TrainWorkload {
    /// The probe slice between this workload's training batches.
    fn batch_slice(&self) -> Slice {
        Slice {
            kind: Kind::Update,
            rows: SETUP_SLICE.rows,
            sensitivity: self.batch_sensitivity,
        }
    }
}

/// `train_xc`.
pub const XC: TrainWorkload = TrainWorkload {
    shape: Shape::Xc,
    threads: 1,
    batch_sensitivity: 1.75,
    warmup_batches: 8,
    timed_batches: 120,
    eval_samples: 1000,
    min_p_at_1: 0.10,
};

/// `train_w2v`.
pub const W2V: TrainWorkload = TrainWorkload {
    shape: Shape::W2v,
    threads: 2,
    batch_sensitivity: 1.25,
    warmup_batches: 8,
    timed_batches: 230,
    eval_samples: 4000,
    min_p_at_1: 0.10,
};

/// What one set-up leaves behind, with its stage times.
pub struct TrainSetup {
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    /// The trainer, warmed up.
    pub trainer: Trainer,
    /// Batch order, continuing after the warm-up.
    pub feed: BatchFeed,
    /// Raw and normalised seconds of the whole set-up.
    pub clock: PhaseClock,
    /// Raw seconds of data generation.
    pub gen_s: f64,
    /// Raw seconds of `Network::new` + `Trainer::new`.
    pub net_init_s: f64,
}

/// Generate the data, build the network and trainer, run `batches` batches.
/// Every stage is a probe-paired chunk of the set-up clock.
pub fn set_up(ctx: &mut Ctx, shape: Shape, threads: usize, batches: usize) -> TrainSetup {
    let Ctx {
        tracer,
        host,
        args,
        root,
        ..
    } = ctx;
    let (tracer, root) = (&*tracer, *root);
    let span = tracer.open("bench.setup", root, 0);
    let mut clock = PhaseClock::default();

    let ((train, test), gen) = host.paired(tracer, root, &mut clock, SETUP_SLICE, || {
        tracer.span("data.generate", span, 0, || shape.dataset(args.seed))
    });
    let (mut trainer, net_init) = host.paired(tracer, root, &mut clock, SETUP_SLICE, || {
        tracer.span("core.net_init", span, 0, || {
            let net = Network::new(shape.network_config(&train)).expect("fixture network config");
            Trainer::new(net, shape.trainer_config(threads)).expect("fixture trainer config")
        })
    });

    let mut feed = BatchFeed::new(train.len(), trainer.config().batch_size, args.seed);
    for b in 0..batches {
        let batch = feed.next_batch();
        host.paired(tracer, root, &mut clock, SETUP_SLICE, || {
            tracer.span("core.train_batch", span, b as u64, || {
                trainer.train_batch(&train, batch)
            })
        });
    }
    tracer.close(span);
    TrainSetup {
        train,
        test,
        trainer,
        feed,
        clock,
        gen_s: gen.raw_s,
        net_init_s: net_init.raw_s,
    }
}

/// Perform the set-up `SETUP_REPEATS` times from scratch, keep the last, and
/// report the medians.
fn repeated_set_up(ctx: &mut Ctx, w: &TrainWorkload) -> TrainSetup {
    let (mut raw, mut norm, mut gen, mut init) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        release_freed_memory();
        let mut s = set_up(ctx, w.shape, w.threads, w.warmup_batches);
        raw.push(s.clock.raw_s);
        norm.push(s.clock.norm_s);
        gen.push(s.gen_s);
        init.push(s.net_init_s);
        ctx.keep_phase("setup", SETUP_SLICE, std::mem::take(&mut s.clock));
        last = Some(s);
    }
    report_setup(ctx, median(&raw), median(&norm));
    ctx.report.set("data.gen_s", median(&gen));
    ctx.report.set("core.net_init_s", median(&init));
    last.expect("SETUP_REPEATS > 0")
}

/// `setup_s` and its raw twin from the medians over the repeats.
pub fn report_setup(ctx: &mut Ctx, raw_s: f64, norm_s: f64) {
    ctx.report.set("setup_s", norm_s);
    ctx.report.set("setup_s.raw", raw_s);
}

/// Run one training workload.
pub fn run(ctx: &mut Ctx, w: &TrainWorkload) {
    let TrainSetup {
        train,
        test,
        mut trainer,
        mut feed,
        ..
    } = repeated_set_up(ctx, w);
    let batch_size = trainer.config().batch_size;
    let timed = ctx.scaled(w.timed_batches);

    // The timed window. On a traced run every other batch is recorded as a
    // span, so the two halves give the tracing overhead within one run.
    let window = ctx.tracer.open("bench.train_window", ctx.root, 0);
    let batch_slice = w.batch_slice();
    let mut clock = PhaseClock::default();
    let mut batch_raw = Vec::with_capacity(timed);
    let mut batch_norm = Vec::with_capacity(timed);
    for b in 0..timed {
        let batch = feed.next_batch();
        let (tracer, traced) = (&ctx.tracer, b % 2 == 0);
        let ((), t) = ctx
            .host
            .paired(tracer, ctx.root, &mut clock, batch_slice, || {
                if traced {
                    tracer.span("core.train_batch", window, b as u64, || {
                        trainer.train_batch(&train, batch)
                    })
                } else {
                    trainer.train_batch(&train, batch)
                }
            });
        batch_raw.push(t.raw_s);
        batch_norm.push(t.norm_s);
    }
    ctx.tracer.close(window);
    ctx.report
        .check_many(timed as u64, 0, "timed batches completed");
    let samples = (timed * batch_size) as f64;

    let eval = evaluate(ctx, &trainer, &test, w.eval_samples);
    let floor = if ctx.args.seconds >= spec::RUN_SECONDS as f64 {
        w.min_p_at_1
    } else {
        f64::MIN_POSITIVE
    };
    ctx.report.check(eval.p_at_1 >= floor, || {
        format!("P@1 {:.4} below the floor {floor}", eval.p_at_1)
    });

    let (window_raw_s, window_norm_s) = (clock.raw_s, clock.norm_s);
    ctx.keep_phase("train_window", batch_slice, clock);
    ctx.report.set("work_per_s", samples / window_norm_s);
    ctx.report.set("work_per_s.raw", samples / window_raw_s);
    let p50 = median(&batch_norm);
    ctx.report.set("op_p50_us", p50 * 1e6);
    ctx.report.set("op_p50_us.raw", median(&batch_raw) * 1e6);
    ctx.report.set("quality", eval.p_at_1);
    let param_bytes = trainer.network().num_parameters() as f64 * 4.0;
    ctx.report
        .set("model_mib", param_bytes / (1u64 << 20) as f64);
    if !ctx.args.trace {
        return;
    }

    ctx.report.set("core.eval_exact_qps", eval.exact_qps);
    ctx.report.set("core.recall_at_5", eval.recall_at_5);
    ctx.report.set("core.train_batch_ms_p50", p50 * 1e3);
    ctx.report.set(
        "core.train_batch_ms_p90",
        percentile(&batch_norm, 90.0) * 1e3,
    );
    // A batch that ends in a table rebuild takes many times the median.
    let rebuilds: Vec<f64> = batch_norm
        .iter()
        .copied()
        .filter(|&t| t > 2.5 * p50)
        .collect();
    ctx.report.set("core.rebuild_count", rebuilds.len() as f64);
    let rebuild_s: f64 = rebuilds.iter().map(|t| t - p50).sum();
    ctx.report
        .set("core.rebuild_share", rebuild_s / window_norm_s);
    let half = |parity: usize| -> Vec<f64> {
        batch_norm.iter().copied().skip(parity).step_by(2).collect()
    };
    ctx.report.set(
        "trace.overhead_share",
        median(&half(0)) / median(&half(1)) - 1.0,
    );

    let per_sample_s = layers::network_layers(ctx, &mut trainer, &train);
    ctx.report.set(
        "core.batch_overhead_share",
        1.0 - per_sample_s * batch_size as f64 / w.threads as f64 / median(&batch_raw),
    );
    if w.threads > 1 {
        thread_scaling(ctx, trainer, &train, &mut feed, w);
    } else {
        drop(trainer);
    }
    micro::run(ctx);
}

struct Eval {
    p_at_1: f64,
    recall_at_5: f64,
    exact_qps: f64,
}

/// Score `n` test samples through `Network::predict`: exact top-5 (timed,
/// probe-paired; its first label gives P@1) and LSH-sampled top-5 (its
/// overlap with the exact one is the training-side retrieval recall). Every
/// prediction is checked to be 5 distinct in-range labels.
fn evaluate(ctx: &mut Ctx, trainer: &Trainer, test: &Dataset, n: usize) -> Eval {
    const K: usize = 5;
    let net = trainer.network();
    let label_dim = test.label_dim();
    let mut scratch = net.make_scratch();
    let span = ctx.tracer.open("bench.evaluate", ctx.root, 0);
    ctx.host.slice(&ctx.tracer, ctx.root, EVAL_SLICE);
    let n = n.min(test.len());
    let mut clock = PhaseClock::default();
    let mut exact: Vec<Vec<u32>> = Vec::with_capacity(n);
    for start in (0..n).step_by(64) {
        let end = (start + 64).min(n);
        let tracer = &ctx.tracer;
        let (chunk, _) = ctx
            .host
            .paired(tracer, ctx.root, &mut clock, EVAL_SLICE, || {
                tracer.span("core.predict_exact", span, start as u64, || {
                    (start..end)
                        .map(|i| net.predict(test.features(i), K, &mut scratch, true, i as u64))
                        .collect::<Vec<_>>()
                })
            });
        exact.extend(chunk);
    }
    let (mut hits, mut scored, mut recall, mut bad) = (0u64, 0u64, 0.0, 0u64);
    ctx.tracer.span("core.predict_sampled", span, 0, || {
        for (i, top) in exact.iter().enumerate() {
            let sampled = net.predict(test.features(i), K, &mut scratch, false, i as u64);
            bad += u64::from(!valid_topk(top, K, label_dim));
            bad += u64::from(!valid_topk(&sampled, K, label_dim));
            recall += overlap(&sampled, top, K);
            let labels = test.labels(i);
            if !labels.is_empty() {
                scored += 1;
                hits += u64::from(top.first().is_some_and(|l| labels.contains(l)));
            }
        }
    });
    ctx.tracer.close(span);
    ctx.report.check_many(
        2 * n as u64,
        bad,
        "predictions are 5 distinct in-range labels",
    );
    let exact_qps = n as f64 / clock.norm_s;
    ctx.keep_phase("evaluate", EVAL_SLICE, clock);
    Eval {
        p_at_1: hits as f64 / scored.max(1) as f64,
        recall_at_5: recall / n as f64,
        exact_qps,
    }
}

/// `core.thread_scaling`: the same network trained for 40 batches by one
/// thread and then by `w.threads`, normalised rate over rate.
fn thread_scaling(
    ctx: &mut Ctx,
    trainer: Trainer,
    train: &Dataset,
    feed: &mut BatchFeed,
    w: &TrainWorkload,
) {
    let span = ctx.tracer.open("bench.thread_scaling", ctx.root, 0);
    let mut net = trainer.into_network();
    let mut rates = Vec::new();
    for threads in [1, w.threads] {
        // A fresh trainer restarts the rebuild schedule (first rebuild after
        // 50 batches), so neither leg contains a rebuild.
        let mut t = Trainer::new(net, w.shape.trainer_config(threads)).expect("fixture trainer");
        let mut clock = PhaseClock::default();
        for b in 0..40 {
            let batch = feed.next_batch();
            let tracer = &ctx.tracer;
            ctx.host
                .paired(tracer, ctx.root, &mut clock, w.batch_slice(), || {
                    tracer.span("core.train_batch", span, b, || t.train_batch(train, batch))
                });
        }
        rates.push(1.0 / clock.norm_s);
        net = t.into_network();
    }
    ctx.tracer.close(span);
    ctx.report.set("core.thread_scaling", rates[1] / rates[0]);
}
