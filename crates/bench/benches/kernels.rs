//! Kernel micro-benchmarks: the vectorization story of §4.2–§4.4 at the
//! instruction level — scalar vs AVX2 vs AVX-512 for every hot kernel
//! (Figures 2–5's operations), plus the bf16 kernels and the CRC-32 behind
//! every snapshot image and wire frame.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use slide_simd::{
    adam_step_f32, add_f32, argmax_f32, axpy_f32, bf16, crc32_update, dot_f32, quantize_acts_u8,
    quantize_row_i8, set_policy, AdamStep, KernelSet, SimdLevel, SimdPolicy,
};
use std::time::Duration;

const HIDDEN: usize = 128; // the paper's hidden width: one Algorithm 1 dot
const FLAT: usize = 1 << 16; // a flat ADAM sweep segment

fn levels() -> Vec<(&'static str, SimdPolicy)> {
    let mut v = vec![("scalar", SimdPolicy::Force(SimdLevel::Scalar))];
    if slide_simd::detected_level() >= SimdLevel::Avx2 {
        v.push(("avx2", SimdPolicy::Force(SimdLevel::Avx2)));
    }
    if slide_simd::detected_level() >= SimdLevel::Avx512 {
        v.push(("avx512", SimdPolicy::Force(SimdLevel::Avx512)));
    }
    v
}

fn vecs(n: usize) -> (Vec<f32>, Vec<f32>) {
    (
        (0..n).map(|i| (i as f32 * 0.37).sin()).collect(),
        (0..n).map(|i| (i as f32 * 0.73).cos()).collect(),
    )
}

fn bench_dot(c: &mut Criterion) {
    let mut g = c.benchmark_group("dot_row_major_alg1");
    g.measurement_time(Duration::from_millis(700));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(20);
    let (a, b) = vecs(HIDDEN);
    for (name, policy) in levels() {
        g.bench_with_input(BenchmarkId::from_parameter(name), &policy, |bch, &p| {
            set_policy(p);
            bch.iter(|| dot_f32(black_box(&a), black_box(&b)));
            set_policy(SimdPolicy::Auto);
        });
    }
    g.finish();
}

fn bench_axpy(c: &mut Criterion) {
    let mut g = c.benchmark_group("axpy_col_major_alg2");
    g.measurement_time(Duration::from_millis(700));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(20);
    let (x, mut y) = vecs(HIDDEN);
    for (name, policy) in levels() {
        g.bench_with_input(BenchmarkId::from_parameter(name), &policy, |bch, &p| {
            set_policy(p);
            bch.iter(|| axpy_f32(black_box(1.001), black_box(&x), black_box(&mut y)));
            set_policy(SimdPolicy::Auto);
        });
    }
    g.finish();
}

fn bench_simd_add(c: &mut Criterion) {
    // Figure 2's illustrative pairwise add, at cache-resident size.
    let mut g = c.benchmark_group("simd_add_fig2");
    g.measurement_time(Duration::from_millis(700));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(20);
    let (x, mut y) = vecs(4096);
    for (name, policy) in levels() {
        g.bench_with_input(BenchmarkId::from_parameter(name), &policy, |bch, &p| {
            set_policy(p);
            bch.iter(|| add_f32(black_box(&x), black_box(&mut y)));
            set_policy(SimdPolicy::Auto);
        });
    }
    g.finish();
}

fn bench_adam(c: &mut Criterion) {
    // Figure 3: the fused flat ADAM sweep.
    let mut g = c.benchmark_group("adam_step_fig3");
    g.measurement_time(Duration::from_millis(900));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(15);
    let (grad, mut w) = vecs(FLAT);
    let mut m = vec![0.01_f32; FLAT];
    let mut v = vec![0.02_f32; FLAT];
    let step = AdamStep::bias_corrected(1e-3, 0.9, 0.999, 1e-8, 10);
    for (name, policy) in levels() {
        g.bench_with_input(BenchmarkId::from_parameter(name), &policy, |bch, &p| {
            set_policy(p);
            bch.iter(|| {
                adam_step_f32(
                    black_box(&mut w),
                    black_box(&mut m),
                    black_box(&mut v),
                    black_box(&grad),
                    step,
                )
            });
            set_policy(SimdPolicy::Auto);
        });
    }
    g.finish();
}

fn bench_argmax(c: &mut Criterion) {
    // The DWTA bin reduction (§4.3.3).
    let mut g = c.benchmark_group("argmax_dwta_bins");
    g.measurement_time(Duration::from_millis(700));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(20);
    let (x, _) = vecs(2048);
    for (name, policy) in levels() {
        g.bench_with_input(BenchmarkId::from_parameter(name), &policy, |bch, &p| {
            set_policy(p);
            bch.iter(|| argmax_f32(black_box(&x)));
            set_policy(SimdPolicy::Auto);
        });
    }
    g.finish();
}

fn bench_bf16(c: &mut Criterion) {
    let mut g = c.benchmark_group("bf16_kernels");
    g.measurement_time(Duration::from_millis(700));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(20);
    let (x, _) = vecs(HIDDEN);
    let mut wq = vec![0u16; HIDDEN];
    bf16::f32_to_bf16_slice(&x, &mut wq);
    let (big, _) = vecs(FLAT);
    let mut bigq = vec![0u16; FLAT];

    g.bench_function("narrow_64k", |b| {
        b.iter(|| bf16::f32_to_bf16_slice(black_box(&big), black_box(&mut bigq)))
    });
    let mut wide = vec![0f32; FLAT];
    g.bench_function("widen_64k", |b| {
        b.iter(|| bf16::bf16_to_f32_slice(black_box(&bigq), black_box(&mut wide)))
    });
    g.bench_function("dot_bf16_128", |b| {
        b.iter(|| bf16::dot_bf16_f32(black_box(&wq), black_box(&x)))
    });
    g.bench_function("dot_f32_128_reference", |b| {
        b.iter(|| dot_f32(black_box(&x), black_box(&x)))
    });
    let mut m = vec![0.01_f32; FLAT];
    let mut v = vec![0.02_f32; FLAT];
    let step = AdamStep::bias_corrected(1e-3, 0.9, 0.999, 1e-8, 10);
    g.bench_function("adam_bf16_64k", |b| {
        b.iter(|| {
            bf16::adam_step_bf16(
                black_box(&mut bigq),
                black_box(&mut m),
                black_box(&mut v),
                black_box(&big),
                step,
            )
        })
    });
    g.finish();
}

/// Active-set shapes the gather benches sweep: realistic LSH active-set
/// sizes × the paper's hidden widths (128) and a wide-row stress point
/// (1024).
const GATHER_ROWS: &[usize] = &[64, 512, 4096];
const GATHER_COLS: &[usize] = &[128, 1024];

/// Pseudo-random *duplicate-free* gather order over an arena of `total`
/// rows — the scattered access pattern a deduped LSH-retrieved active set
/// actually produces (distinctness also keeps the backward bench's
/// gradient-row pointers non-aliasing).
fn gather_order(total: usize, take: usize) -> Vec<usize> {
    assert!(take <= total);
    let mut s = 0x9E3779B9u64;
    let mut seen = vec![false; total];
    let mut out = Vec::with_capacity(take);
    while out.len() < take {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = (s >> 33) as usize % total;
        if !seen[r] {
            seen[r] = true;
            out.push(r);
        }
    }
    out
}

/// The table every gather bench calls through: the host's best SIMD level.
fn best_kernels() -> KernelSet {
    KernelSet::for_level(slide_simd::detected_level())
}

/// Multi-row gathered scoring: the pre-fusion loop (one dependent `dot` per
/// row) vs the multi-row kernel, at the host's best SIMD level. The arena is
/// 4x the active set so gathers miss cache the way training does.
fn bench_gather_score(c: &mut Criterion) {
    let mut g = c.benchmark_group("gather_score_f32");
    let ks = best_kernels();
    g.measurement_time(Duration::from_millis(900));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(15);
    for &cols in GATHER_COLS {
        for &rows in GATHER_ROWS {
            let total = rows * 4;
            let arena: Vec<f32> = (0..total * cols).map(|i| (i as f32 * 0.29).sin()).collect();
            let order = gather_order(total, rows);
            let ptrs: Vec<*const f32> = order.iter().map(|&r| arena[r * cols..].as_ptr()).collect();
            let (x, _) = vecs(cols);
            let mut out = vec![0.0_f32; rows];
            let id = format!("{rows}x{cols}");
            g.bench_function(BenchmarkId::new(&id, "single_row"), |b| {
                b.iter(|| {
                    for (o, &p) in out.iter_mut().zip(black_box(&ptrs)) {
                        // SAFETY: every pointer addresses `cols` floats of `arena`.
                        *o = ks.dot(unsafe { std::slice::from_raw_parts(p, cols) }, &x);
                    }
                    black_box(&mut out);
                })
            });
            g.bench_function(BenchmarkId::new(&id, "kernel"), |b| {
                b.iter(|| unsafe {
                    ks.score_rows_f32(black_box(&ptrs), black_box(&x), black_box(&mut out))
                })
            });
        }
    }
    g.finish();
}

/// Same sweep for the fused backward pass (dx + grad in one pass per row).
fn bench_gather_backward(c: &mut Criterion) {
    let mut g = c.benchmark_group("gather_backward_f32");
    let ks = best_kernels();
    g.measurement_time(Duration::from_millis(900));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(15);
    for &cols in GATHER_COLS {
        for &rows in GATHER_ROWS {
            let total = rows * 4;
            let w_arena: Vec<f32> = (0..total * cols).map(|i| (i as f32 * 0.31).sin()).collect();
            let mut g_arena = vec![0.0_f32; total * cols];
            let order = gather_order(total, rows);
            let w_ptrs: Vec<*const f32> = order
                .iter()
                .map(|&r| w_arena[r * cols..].as_ptr())
                .collect();
            // Derive every gradient-row pointer from one base pointer:
            // repeated `g_arena[..].as_mut_ptr()` would invalidate the
            // previously collected raw pointers under Stacked Borrows.
            let g_base = g_arena.as_mut_ptr();
            let g_ptrs: Vec<*mut f32> = order
                .iter()
                .map(|&r| unsafe { g_base.add(r * cols) })
                .collect();
            let (h, mut dx) = vecs(cols);
            let deltas: Vec<f32> = (0..rows).map(|r| (r as f32 * 0.07).cos() * 0.01).collect();
            let id = format!("{rows}x{cols}");
            g.bench_function(BenchmarkId::new(&id, "single_row"), |b| {
                b.iter(|| {
                    for ((&w, &gr), &d) in black_box(&w_ptrs).iter().zip(&g_ptrs).zip(&deltas) {
                        // SAFETY: both pointers address `cols` floats of
                        // their arena; gradient rows are distinct.
                        unsafe {
                            ks.axpy(d, std::slice::from_raw_parts(w, cols), &mut dx);
                            ks.axpy(d * 0.125, &h, std::slice::from_raw_parts_mut(gr, cols));
                        }
                    }
                    black_box(&mut dx);
                })
            });
            g.bench_function(BenchmarkId::new(&id, "kernel"), |b| {
                b.iter(|| unsafe {
                    ks.backward_rows_f32(
                        black_box(&w_ptrs),
                        black_box(&g_ptrs),
                        black_box(&deltas),
                        0.125,
                        black_box(&h),
                        black_box(&mut dx),
                    )
                })
            });
        }
    }
    g.finish();
}

/// bf16-weight gather scoring (AVX-512 widen-on-the-fly vs scalar).
fn bench_gather_score_bf16(c: &mut Criterion) {
    let mut g = c.benchmark_group("gather_score_bf16");
    let ks = best_kernels();
    g.measurement_time(Duration::from_millis(900));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(15);
    for &cols in GATHER_COLS {
        for &rows in GATHER_ROWS {
            let total = rows * 4;
            let wide: Vec<f32> = (0..total * cols).map(|i| (i as f32 * 0.23).sin()).collect();
            let mut arena = vec![0u16; total * cols];
            bf16::f32_to_bf16_slice(&wide, &mut arena);
            let order = gather_order(total, rows);
            let ptrs: Vec<*const u16> = order.iter().map(|&r| arena[r * cols..].as_ptr()).collect();
            let (x, _) = vecs(cols);
            let mut out = vec![0.0_f32; rows];
            let id = format!("{rows}x{cols}");
            g.bench_function(BenchmarkId::new(&id, "single_row"), |b| {
                b.iter(|| {
                    for (o, &p) in out.iter_mut().zip(black_box(&ptrs)) {
                        // SAFETY: every pointer addresses `cols` codes of `arena`.
                        *o = ks.dot_bf16(unsafe { std::slice::from_raw_parts(p, cols) }, &x);
                    }
                    black_box(&mut out);
                })
            });
            g.bench_function(BenchmarkId::new(&id, "kernel"), |b| {
                b.iter(|| unsafe {
                    ks.score_rows_bf16(black_box(&ptrs), black_box(&x), black_box(&mut out))
                })
            });
        }
    }
    g.finish();
}

/// The precision axis at the kernel level: gathered active-set scoring with
/// i8 codes (integer dot + per-row rescale) vs bf16 vs f32 rows, all at the
/// host's best SIMD level with the blocked kernels. The i8 rows carry 4×
/// fewer bytes than f32, which is the whole story at memory-bound sizes
/// (4096×1024 streams 16 MiB of f32 rows but 4 MiB of codes).
fn bench_quant_score(c: &mut Criterion) {
    let mut g = c.benchmark_group("quant_score");
    g.measurement_time(Duration::from_millis(900));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(15);
    let ks = best_kernels();
    for &cols in GATHER_COLS {
        for &rows in GATHER_ROWS {
            let total = rows * 4;
            let wide: Vec<f32> = (0..total * cols).map(|i| (i as f32 * 0.29).sin()).collect();
            let order = gather_order(total, rows);
            let (x, _) = vecs(cols);
            let mut out = vec![0.0_f32; rows];

            // f32 reference rows.
            let f_ptrs: Vec<*const f32> =
                order.iter().map(|&r| wide[r * cols..].as_ptr()).collect();
            g.bench_with_input(
                BenchmarkId::new(format!("{rows}x{cols}"), "f32"),
                &ks,
                |b, ks| {
                    b.iter(|| unsafe {
                        ks.score_rows_f32(black_box(&f_ptrs), black_box(&x), black_box(&mut out))
                    })
                },
            );

            // bf16 rows (half the bytes, widen-on-the-fly).
            let mut bq = vec![0u16; total * cols];
            bf16::f32_to_bf16_slice(&wide, &mut bq);
            let b_ptrs: Vec<*const u16> = order.iter().map(|&r| bq[r * cols..].as_ptr()).collect();
            g.bench_with_input(
                BenchmarkId::new(format!("{rows}x{cols}"), "bf16"),
                &ks,
                |b, ks| {
                    b.iter(|| unsafe {
                        ks.score_rows_bf16(black_box(&b_ptrs), black_box(&x), black_box(&mut out))
                    })
                },
            );

            // i8 rows (quarter the bytes, integer dot), per-row scales and
            // 7-bit activation codes as the quantized serving path produces.
            let mut iq = vec![0i8; total * cols];
            let mut scales_all = vec![0.0f32; total];
            for r in 0..total {
                scales_all[r] = quantize_row_i8(
                    &wide[r * cols..(r + 1) * cols],
                    &mut iq[r * cols..(r + 1) * cols],
                );
            }
            let acts: Vec<f32> = x.iter().map(|v| v.abs()).collect();
            let mut xq = vec![0u8; cols];
            let x_scale = quantize_acts_u8(&acts, &mut xq);
            let i_ptrs: Vec<*const i8> = order.iter().map(|&r| iq[r * cols..].as_ptr()).collect();
            let scales: Vec<f32> = order.iter().map(|&r| scales_all[r]).collect();
            g.bench_with_input(
                BenchmarkId::new(format!("{rows}x{cols}"), "i8"),
                &ks,
                |b, ks| {
                    b.iter(|| unsafe {
                        ks.score_rows_i8(
                            black_box(&i_ptrs),
                            black_box(&scales),
                            black_box(&xq),
                            black_box(x_scale),
                            black_box(&mut out),
                        )
                    })
                },
            );
        }
    }
    g.finish();
}

/// Blocked full gemv (the `predict_topk_full` / FrozenNetwork scoring path)
/// over a cache-line-strided arena.
fn bench_gemv_blocked(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemv_blocked_f32");
    let ks = best_kernels();
    g.measurement_time(Duration::from_millis(900));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(15);
    for &cols in GATHER_COLS {
        for &rows in GATHER_ROWS {
            let stride = cols.div_ceil(16) * 16;
            let arena: Vec<f32> = (0..rows * stride)
                .map(|i| (i as f32 * 0.19).sin())
                .collect();
            let (x, _) = vecs(cols);
            let bias = vec![0.01_f32; rows];
            let mut out = vec![0.0_f32; rows];
            let id = format!("{rows}x{cols}");
            g.bench_function(BenchmarkId::new(&id, "single_row"), |b| {
                b.iter(|| {
                    for (r, o) in out.iter_mut().enumerate() {
                        *o =
                            ks.dot(&black_box(&arena)[r * stride..r * stride + cols], &x) + bias[r];
                    }
                    black_box(&mut out);
                })
            });
            g.bench_function(BenchmarkId::new(&id, "kernel"), |b| {
                b.iter(|| {
                    ks.gemv(
                        black_box(&arena),
                        stride,
                        black_box(&x),
                        black_box(&bias),
                        black_box(&mut out),
                    )
                })
            });
        }
    }
    g.finish();
}

/// CRC-32 over a `Predict` frame (584 B), a cache-resident block (64 KiB)
/// and the paper-shape f32 snapshot image (65 MiB): `scalar` is the
/// byte-at-a-time table loop, `clmul` the carry-less-multiply fold, run only
/// where the host has it (DESIGN.md §6, "Checksum kernel").
fn bench_checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("checksum");
    g.measurement_time(Duration::from_millis(900));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(5);
    let image: Vec<u8> = (0..65usize << 20)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
        .collect();
    let mut legs = vec![("scalar", SimdPolicy::Force(SimdLevel::Scalar))];
    #[cfg(target_arch = "x86_64")]
    if slide_simd::detected_level() > SimdLevel::Scalar
        && std::arch::is_x86_feature_detected!("pclmulqdq")
    {
        legs.push(("clmul", SimdPolicy::Auto));
    }
    for (size, len) in [("584B", 584), ("64KiB", 64 << 10), ("65MiB", 65 << 20)] {
        let bytes = &image[..len];
        for &(name, policy) in &legs {
            g.bench_with_input(BenchmarkId::new(size, name), &policy, |bch, &p| {
                set_policy(p);
                bch.iter(|| crc32_update(0, black_box(bytes)));
                set_policy(SimdPolicy::Auto);
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_dot,
    bench_axpy,
    bench_simd_add,
    bench_adam,
    bench_argmax,
    bench_bf16,
    bench_gather_score,
    bench_gather_backward,
    bench_gather_score_bf16,
    bench_quant_score,
    bench_gemv_blocked,
    bench_checksum
);
criterion_main!(benches);
