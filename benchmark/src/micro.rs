//! Stand-alone per-layer measurements that need no trained model: the SIMD
//! gather kernels on active-set-sized random row lists out of a paper-sized
//! arena, the wire codec, and the metrics instruments. Traced runs only.

use crate::harness::{median, Ctx, SplitMix};
use slide_net::{decode_frame, encode_frame, Frame, PredictRequest, DEFAULT_MAX_PAYLOAD};
use slide_obs::ObsHub;
use slide_simd::{
    adam_step_f32, axpy_f32, backward_rows_fused_f32, quantize_acts_u8, quantize_row_i8,
    score_rows_gather_f32, score_rows_gather_i8, AdamStep,
};
use std::hint::black_box;
use std::time::Instant;

/// Arena shape: the `train_xc` / `serve_*` output layer.
const ROWS: usize = 106_496;
const COLS: usize = 128;
/// Rows per gather: what 24 tables x 128-id buckets retrieve on that layer.
const ACTIVE: usize = 3_072;
/// Gathers per kernel; the median is reported.
const REPS: usize = 24;

/// `ACTIVE` distinct rows of `0..ROWS`: the stride 40 503 = 3·23·587 is
/// coprime to the row count 2^13·13, so `i × stride` never repeats.
fn distinct_rows(rng: &mut SplitMix) -> Vec<usize> {
    let start = (rng.next_u64() % ROWS as u64) as usize;
    (0..ACTIVE).map(|i| (start + i * 40_503) % ROWS).collect()
}

fn random_f32(n: usize, rng: &mut SplitMix) -> Vec<f32> {
    (0..n).map(|_| rng.next_f64() as f32 - 0.5).collect()
}

/// Median nanoseconds per row of `REPS` calls of `f` on fresh row lists.
fn ns_per_row(rng: &mut SplitMix, mut f: impl FnMut(&[usize])) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let rows = distinct_rows(rng);
            let t = Instant::now();
            f(&rows);
            t.elapsed().as_secs_f64() * 1e9 / ACTIVE as f64
        })
        .collect();
    median(&times)
}

fn simd(ctx: &mut Ctx) {
    let mut rng = SplitMix(0x51D_0001);
    let w = random_f32(ROWS * COLS, &mut rng);
    let mut grad = vec![0.0_f32; ROWS * COLS];
    let mut m = vec![0.0_f32; ROWS * COLS];
    let mut v = vec![0.0_f32; ROWS * COLS];
    let h = random_f32(COLS, &mut rng);
    let deltas = random_f32(ACTIVE, &mut rng);
    let mut out = vec![0.0_f32; ACTIVE];
    let mut dx = vec![0.0_f32; COLS];

    let score = ns_per_row(&mut rng, |rows| {
        let ptrs: Vec<*const f32> = rows.iter().map(|&r| w[r * COLS..].as_ptr()).collect();
        // SAFETY: every pointer starts a full COLS-wide row inside `w`
        // (r < ROWS), `h` is COLS wide, and `w` outlives the call.
        unsafe { score_rows_gather_f32(&ptrs, &h, &mut out) };
        black_box(&out);
    });
    ctx.report.set("simd.score_rows_f32_ns_per_row", score);
    // Computed bytes: rows x 128 x 4, over the time they took.
    ctx.report
        .set("simd.score_rows_f32_gbps", (COLS * 4) as f64 / score);

    let backward = ns_per_row(&mut rng, |rows| {
        let w_ptrs: Vec<*const f32> = rows.iter().map(|&r| w[r * COLS..].as_ptr()).collect();
        let g_base = grad.as_mut_ptr();
        // SAFETY: r < ROWS keeps each offset inside `grad`.
        let g_ptrs: Vec<*mut f32> = rows
            .iter()
            .map(|&r| unsafe { g_base.add(r * COLS) })
            .collect();
        // SAFETY: weight and gradient pointers each span one full COLS-wide
        // row of their arena; `distinct_rows` makes the gradient rows
        // disjoint, so no two writes alias; both arenas outlive the call.
        unsafe { backward_rows_fused_f32(&w_ptrs, &g_ptrs, &deltas, 1.0 / 128.0, &h, &mut dx) };
        black_box(&dx);
    });
    ctx.report
        .set("simd.backward_rows_f32_ns_per_row", backward);

    let step = AdamStep::bias_corrected(3e-3, 0.9, 0.999, 1e-8, 10);
    let mut w_adam = w.clone();
    let adam = ns_per_row(&mut rng, |rows| {
        for &r in rows {
            let s = r * COLS..(r + 1) * COLS;
            adam_step_f32(
                &mut w_adam[s.clone()],
                &mut m[s.clone()],
                &mut v[s.clone()],
                &grad[s],
                step,
            );
        }
    });
    black_box(&w_adam);
    ctx.report.set("simd.adam_step_ns_per_row", adam);

    let mut y = vec![0.0_f32; COLS];
    let axpy = ns_per_row(&mut rng, |rows| {
        for &r in rows {
            axpy_f32(0.25, &w[r * COLS..(r + 1) * COLS], &mut y);
        }
    });
    black_box(&y);
    ctx.report.set("simd.axpy_f32_ns_per_row", axpy);

    let mut codes = vec![0_i8; ROWS * COLS];
    let scales: Vec<f32> = (0..ROWS)
        .map(|r| {
            quantize_row_i8(
                &w[r * COLS..(r + 1) * COLS],
                &mut codes[r * COLS..(r + 1) * COLS],
            )
        })
        .collect();
    let mut x_u8 = vec![0_u8; COLS];
    let x_scale = quantize_acts_u8(&h, &mut x_u8);
    let mut row_scales = vec![0.0_f32; ACTIVE];
    let score_i8 = ns_per_row(&mut rng, |rows| {
        let ptrs: Vec<*const i8> = rows.iter().map(|&r| codes[r * COLS..].as_ptr()).collect();
        for (s, &r) in row_scales.iter_mut().zip(rows) {
            *s = scales[r];
        }
        // SAFETY: every pointer starts a full COLS-wide row inside `codes`,
        // `x_u8` is COLS wide with codes <= 127 (the quantizer's range).
        unsafe { score_rows_gather_i8(&ptrs, &row_scales, &x_u8, x_scale, &mut out) };
        black_box(&out);
    });
    ctx.report.set("simd.score_rows_i8_ns_per_row", score_i8);
    ctx.report
        .set("simd.score_rows_i8_gbps", COLS as f64 / score_i8);
}

fn wire(ctx: &mut Ctx) {
    // A typical Predict (67 non-zeros, as the XC fixture) and its reply.
    let mut rng = SplitMix(0xF4A_0001);
    let request = Frame::Predict(PredictRequest {
        req_id: 7,
        k: 5,
        deadline_us: 0,
        trace_id: 0,
        indices: (0..67).map(|i| i * 397).collect(),
        values: random_f32(67, &mut rng),
    });
    let reply = Frame::TopK {
        req_id: 7,
        ids: vec![11, 2_048, 70_001, 5, 99_999],
    };
    const N: usize = 20_000;
    let mut buf = Vec::with_capacity(1024);
    let t = Instant::now();
    for _ in 0..N {
        buf.clear();
        encode_frame(black_box(&request), &mut buf);
        let req_len = buf.len();
        encode_frame(black_box(&reply), &mut buf);
        black_box((req_len, &buf));
    }
    ctx.report
        .set("net.encode_ns", t.elapsed().as_secs_f64() * 1e9 / N as f64);
    buf.clear();
    encode_frame(&request, &mut buf);
    let req_len = buf.len();
    encode_frame(&reply, &mut buf);
    ctx.report.set("net.frame_bytes_req", req_len as f64);
    ctx.report
        .set("net.frame_bytes_reply", (buf.len() - req_len) as f64);
    let t = Instant::now();
    let mut ok = 0u64;
    for _ in 0..N {
        let a = decode_frame(black_box(&buf[..req_len]), DEFAULT_MAX_PAYLOAD);
        let b = decode_frame(black_box(&buf[req_len..]), DEFAULT_MAX_PAYLOAD);
        ok += u64::from(a.is_ok() && b.is_ok());
    }
    ctx.report
        .set("net.decode_ns", t.elapsed().as_secs_f64() * 1e9 / N as f64);
    ctx.report
        .check_many(N as u64, N as u64 - ok, "frames decode after encoding");
}

fn instruments(ctx: &mut Ctx) {
    let hub = ObsHub::new();
    let hist = hub.registry().histogram("bench_latency_us");
    const N: u64 = 1_000_000;
    let t = Instant::now();
    for i in 0..N {
        hist.record(black_box(200 + (i & 1023)));
    }
    ctx.report.set(
        "obs.hist_record_ns",
        t.elapsed().as_secs_f64() * 1e9 / N as f64,
    );
    black_box(hist.count());
}

/// Run every stand-alone measurement.
pub fn run(ctx: &mut Ctx) {
    let span = ctx.tracer.open("bench.micro", ctx.root, 0);
    let id = ctx.tracer.open("simd.kernels", span, 0);
    simd(ctx);
    ctx.tracer.close(id);
    let id = ctx.tracer.open("net.codec", span, 0);
    wire(ctx);
    ctx.tracer.close(id);
    let id = ctx.tracer.open("obs.instruments", span, 0);
    instruments(ctx);
    ctx.tracer.close(id);
    ctx.tracer.close(span);
}
