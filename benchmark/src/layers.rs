//! Per-layer measurements on a workload's own (pre-)trained network, taken
//! on a traced run after the end-to-end work: the quantities SLIDE argues
//! from — active-set size, bucket occupancy, rebuild cost — and the time of
//! each public step of one training sample.

use crate::harness::{median, Ctx};
use slide_core::Trainer;
use slide_data::{materialize_batch, Dataset};
use std::hint::black_box;
use std::time::Instant;

/// Fixed samples each step is timed over.
const SAMPLES: usize = 2048;

/// Measure the `hash.*`, `mem.*` and per-sample `core.*` metrics. Returns
/// the mean seconds of one `Network::train_sample`.
///
/// Leaves gradient accumulators dirty: call it after everything whose
/// result matters.
pub fn network_layers(ctx: &mut Ctx, trainer: &mut Trainer, data: &Dataset) -> f64 {
    let span = ctx.tracer.open("bench.network_layers", ctx.root, 0);
    let n = SAMPLES.min(data.len());
    let per_call_us = |t: Instant| t.elapsed().as_secs_f64() * 1e6 / n as f64;
    let net = trainer.network();
    let out = net.output();
    let mut scratch = net.make_scratch();

    let t = Instant::now();
    let id = ctx.tracer.open("core.forward_hidden", span, 0);
    let hidden: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            net.forward_hidden(data.features(i), &mut scratch);
            scratch.acts.last().expect("a hidden layer").clone()
        })
        .collect();
    ctx.tracer.close(id);
    let forward_us = per_call_us(t);

    let t = Instant::now();
    let id = ctx.tracer.open("hash.keys_dense", span, 0);
    for h in &hidden {
        out.family()
            .keys_dense(h, &mut scratch.lsh, &mut scratch.keys);
        black_box(&scratch.keys);
    }
    ctx.tracer.close(id);
    let keys_us = per_call_us(t);

    let (mut candidates, mut active) = (0usize, 0usize);
    let t = Instant::now();
    let id = ctx.tracer.open("core.select_active", span, 0);
    for (i, h) in hidden.iter().enumerate() {
        out.select_active(h, data.labels(i), &mut scratch, i as u64);
        candidates += scratch.candidates.len();
        active += scratch.active.len();
    }
    ctx.tracer.close(id);
    let select_us = per_call_us(t);

    let batch_size = trainer.config().batch_size;
    let t = Instant::now();
    let id = ctx.tracer.open("core.train_sample", span, 0);
    for i in 0..n {
        let loss = net.train_sample(
            data.features(i),
            data.labels(i),
            &mut scratch,
            1.0 / batch_size as f32,
            u32::MAX - 7,
            i as u64,
        );
        black_box(loss);
    }
    ctx.tracer.close(id);
    let sample_us = per_call_us(t);

    let batch: Vec<u32> = (0..batch_size as u32).collect();
    let build_us: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            black_box(ctx.tracer.span("mem.materialize_batch", span, 0, || {
                materialize_batch(data, &batch)
            }));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    let rebuild_s: Vec<f64> = (0..3)
        .map(|i| {
            let t = Instant::now();
            ctx.tracer
                .span("core.rebuild_tables", span, i, || trainer.rebuild_tables());
            t.elapsed().as_secs_f64()
        })
        .collect();
    let out = trainer.network().output();
    let stats = out.table_stats();
    let lsh = trainer.network().config().lsh;
    let rows = out.output_dim();
    ctx.tracer.close(span);

    let r = &mut ctx.report;
    r.set("core.forward_hidden_us", forward_us);
    r.set("hash.keys_dense_us", keys_us);
    r.set("core.select_active_us", select_us);
    // Selection minus hashing; where hashing dominates (SimHash) the
    // difference of two equal times can dip below zero.
    r.set("hash.table_query_us", (select_us - keys_us).max(0.0));
    r.set("hash.candidates_mean", candidates as f64 / n as f64);
    r.set("core.active_set_mean", active as f64 / n as f64);
    r.set("core.train_sample_us", sample_us);
    r.set("core.kernel_self_us", sample_us - forward_us - select_us);
    r.set("mem.batch_build_us", median(&build_us));
    r.set("core.rebuild_s", median(&rebuild_s));
    r.set("hash.insert_rows_per_s", rows as f64 / median(&rebuild_s));
    r.set(
        "hash.bucket_fill_share",
        stats.stored as f64 / (stats.total_buckets * lsh.bucket_cap) as f64,
    );
    r.set(
        "hash.bucket_overflow_share",
        1.0 - stats.stored as f64 / (rows * lsh.tables) as f64,
    );
    sample_us * 1e-6
}
