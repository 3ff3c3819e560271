//! Property-based equivalence tests: every SIMD tier must agree with the
//! scalar reference on arbitrary inputs, the exact kernels (hashing, CRC-32)
//! bit for bit, and bf16 narrowing must satisfy its IEEE contract.

use proptest::prelude::*;
use slide_simd::{
    adam_step_f32, argmax_f32, axpy_f32, bf16, crc32_update, dequantize_row_f32, dot_f32,
    dwta_bin_codes, quantize_acts_u8, quantize_row_i8, set_policy, simhash_sign_bits, sum_f32,
    AdamStep, Bf16, DwtaSources, KernelSet, SimdLevel, SimdPolicy, DWTA_EMPTY_BIN,
};

/// Tests in this binary mutate the process-wide SIMD policy; serialize them.
fn policy_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    // Restore the prior policy (may be a forced SLIDE_SIMD CI leg).
    let prior = slide_simd::policy();
    set_policy(SimdPolicy::Force(level));
    let r = f();
    set_policy(prior);
    r
}

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1e3_f32..1e3_f32, 0..max_len)
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// An input the hashing kernels must agree on bit for bit: finite values
/// mixed with exact zeros of both signs and runs of one repeated value
/// (first-wins ties); `specials` bit 0 adds ±∞, bit 1 adds NaN, bit 2 makes
/// most coordinates −∞ (DWTA bins stay empty).
fn hashing_input(dim: usize, seed: u64, specials: u8) -> Vec<f32> {
    let mut s = seed | 1;
    let run = (xorshift(&mut s) % 7) as f32 - 3.0;
    (0..dim)
        .map(|_| {
            let r = xorshift(&mut s);
            if specials & 4 != 0 && !r.is_multiple_of(8) {
                return f32::NEG_INFINITY;
            }
            match (r >> 8) % 16 {
                0 => 0.0,
                1 => -0.0,
                2..=4 => run,
                5 if specials & 1 != 0 => f32::INFINITY,
                6 if specials & 1 != 0 => f32::NEG_INFINITY,
                7 if specials & 2 != 0 => f32::NAN,
                _ => (r >> 40) as f32 / (1u64 << 23) as f32 * 1e3 - 1e3,
            }
        })
        .collect()
}

const HASH_DIMS: [usize; 5] = [1, 7, 128, 200, 1000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dot_levels_agree(a in finite_vec(300), seed in any::<u64>()) {
        let _g = policy_lock();
        let b: Vec<f32> = a
            .iter()
            .enumerate()
            .map(|(i, _)| ((seed.wrapping_add(i as u64) % 2001) as f32 / 1000.0) - 1.0)
            .collect();
        let reference = with_level(SimdLevel::Scalar, || dot_f32(&a, &b));
        for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
            let got = with_level(level, || dot_f32(&a, &b));
            let tol = 1e-2_f32.max(reference.abs() * 1e-4);
            prop_assert!((got - reference).abs() <= tol, "{level:?}: {got} vs {reference}");
        }
    }

    #[test]
    fn axpy_levels_agree(x in finite_vec(300), alpha in -10.0_f32..10.0) {
        let _g = policy_lock();
        let y0: Vec<f32> = x.iter().map(|v| v * 0.3 + 1.0).collect();
        let mut expect = y0.clone();
        with_level(SimdLevel::Scalar, || axpy_f32(alpha, &x, &mut expect));
        for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
            let mut y = y0.clone();
            with_level(level, || axpy_f32(alpha, &x, &mut y));
            for i in 0..x.len() {
                prop_assert!((y[i] - expect[i]).abs() <= 1e-2, "{level:?} i={i}");
            }
        }
    }

    #[test]
    fn sum_levels_agree(x in finite_vec(400)) {
        let _g = policy_lock();
        let reference = with_level(SimdLevel::Scalar, || sum_f32(&x));
        for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
            let got = with_level(level, || sum_f32(&x));
            prop_assert!((got - reference).abs() <= 0.05 * (x.len().max(1) as f32));
        }
    }

    #[test]
    fn argmax_levels_agree_exactly(x in finite_vec(400)) {
        let _g = policy_lock();
        let reference = with_level(SimdLevel::Scalar, || argmax_f32(&x));
        for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
            let got = with_level(level, || argmax_f32(&x));
            prop_assert_eq!(got, reference, "{:?}", level);
        }
    }

    #[test]
    fn adam_levels_agree(g in finite_vec(200), t in 1u64..1000) {
        let _g = policy_lock();
        let n = g.len();
        let w0: Vec<f32> = g.iter().map(|v| v * 0.5 - 0.1).collect();
        let m0 = vec![0.01_f32; n];
        let v0 = vec![0.02_f32; n];
        let step = AdamStep::bias_corrected(1e-3, 0.9, 0.999, 1e-8, t);
        let (mut we, mut me, mut ve) = (w0.clone(), m0.clone(), v0.clone());
        with_level(SimdLevel::Scalar, || adam_step_f32(&mut we, &mut me, &mut ve, &g, step));
        for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
            let (mut w, mut m, mut v) = (w0.clone(), m0.clone(), v0.clone());
            with_level(level, || adam_step_f32(&mut w, &mut m, &mut v, &g, step));
            for i in 0..n {
                prop_assert!((w[i] - we[i]).abs() <= 1e-3, "{level:?} i={i}");
            }
        }
    }

    #[test]
    fn bf16_roundtrip_relative_error(x in -1e30_f32..1e30) {
        let back = Bf16::from_f32(x).to_f32();
        if x.abs() > f32::MIN_POSITIVE {
            let rel = ((back - x) / x).abs();
            prop_assert!(rel <= 1.0 / 256.0, "x={x} back={back} rel={rel}");
        }
    }

    #[test]
    fn bf16_narrowing_is_monotone(a in -1e6_f32..1e6, b in -1e6_f32..1e6) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Bf16::from_f32(lo).to_f32() <= Bf16::from_f32(hi).to_f32());
    }

    #[test]
    fn bf16_widening_is_exact(bits in any::<u16>()) {
        // Every bf16 value is exactly representable in f32, so narrowing a
        // widened value must be the identity (NaN payloads excepted).
        let x = Bf16::from_bits(bits).to_f32();
        if !x.is_nan() {
            prop_assert_eq!(Bf16::from_f32(x).to_bits(), bits);
        }
    }

    #[test]
    fn bf16_slice_conversion_matches_scalar_type(x in finite_vec(200)) {
        let _g = policy_lock();
        let mut narrowed = vec![0u16; x.len()];
        bf16::f32_to_bf16_slice(&x, &mut narrowed);
        for i in 0..x.len() {
            prop_assert_eq!(narrowed[i], Bf16::from_f32(x[i]).to_bits(), "i={}", i);
        }
        let mut widened = vec![0f32; x.len()];
        bf16::bf16_to_f32_slice(&narrowed, &mut widened);
        for i in 0..x.len() {
            prop_assert_eq!(widened[i], Bf16::from_bits(narrowed[i]).to_f32());
        }
    }

    // ------------------------------------------------------------------
    // Multi-row fused gather kernels vs the scalar single-row reference
    // (ULP-ish bounded: tolerances scale with the reduction length, as for
    // the single-row kernels above). Shapes are drawn to cover empty row
    // lists, sub-block row counts, 4-row-block remainders, and
    // non-multiple-of-lane column lengths; levels above the host capability
    // clamp to the detected level, so every forced SLIDE_SIMD CI leg
    // exercises its own tier.
    // ------------------------------------------------------------------

    #[test]
    fn score_rows_gather_matches_single_row_scalar(
        rows in 0usize..24,
        cols in 0usize..100,
        seed in any::<u32>(),
    ) {
        let _g = policy_lock();
        let m: Vec<Vec<f32>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        let v = seed
                            .wrapping_mul(2654435761)
                            .wrapping_add((r * 131 + c) as u32);
                        (v % 2001) as f32 / 1000.0 - 1.0
                    })
                    .collect()
            })
            .collect();
        let x: Vec<f32> = (0..cols).map(|c| ((c * 37 + 11) % 199) as f32 / 100.0 - 1.0).collect();
        // Reference: the scalar single-row loop, one dispatched dot per row.
        let reference: Vec<f32> = with_level(SimdLevel::Scalar, || {
            m.iter().map(|row| dot_f32(row, &x)).collect()
        });
        let ptrs: Vec<*const f32> = m.iter().map(|row| row.as_ptr()).collect();
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            // The dispatched wrapper and an explicitly built table must
            // both hold to the reference.
            let mut out = vec![f32::NAN; rows];
            with_level(level, || unsafe {
                slide_simd::score_rows_gather_f32(&ptrs, &x, &mut out)
            });
            for r in 0..rows {
                let tol = 1e-3_f32.max(reference[r].abs() * 1e-4);
                prop_assert!((out[r] - reference[r]).abs() <= tol, "dispatched {level:?} r={r}");
            }
            let ks = KernelSet::for_level(level);
            let mut out2 = vec![f32::NAN; rows];
            unsafe { ks.score_rows_f32(&ptrs, &x, &mut out2) };
            for r in 0..rows {
                let tol = 1e-3_f32.max(reference[r].abs() * 1e-4);
                prop_assert!(
                    (out2[r] - reference[r]).abs() <= tol,
                    "{level:?} r={r}: {} vs {}",
                    out2[r],
                    reference[r]
                );
            }
        }
    }

    #[test]
    fn score_rows_gather_bf16_matches_single_row_scalar(
        rows in 0usize..20,
        cols in 0usize..80,
        seed in any::<u32>(),
    ) {
        let _g = policy_lock();
        let m: Vec<Vec<u16>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        let v = seed.wrapping_add((r * 97 + c) as u32);
                        Bf16::from_f32((v % 401) as f32 / 200.0 - 1.0).to_bits()
                    })
                    .collect()
            })
            .collect();
        let x: Vec<f32> = (0..cols).map(|c| ((c * 53 + 7) % 211) as f32 / 100.0 - 1.0).collect();
        let reference: Vec<f32> = with_level(SimdLevel::Scalar, || {
            m.iter().map(|row| bf16::dot_bf16_f32(row, &x)).collect()
        });
        let ptrs: Vec<*const u16> = m.iter().map(|row| row.as_ptr()).collect();
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            let ks = KernelSet::for_level(level);
            let mut out = vec![f32::NAN; rows];
            unsafe { ks.score_rows_bf16(&ptrs, &x, &mut out) };
            for r in 0..rows {
                let tol = 1e-2_f32.max(reference[r].abs() * 1e-3);
                prop_assert!(
                    (out[r] - reference[r]).abs() <= tol,
                    "bf16 {level:?} r={r}"
                );
            }
        }
    }

    #[test]
    fn backward_rows_fused_matches_two_pass_scalar(
        rows in 0usize..16,
        cols in 0usize..80,
        scale in 0.01_f32..2.0,
        seed in any::<u32>(),
    ) {
        let _g = policy_lock();
        let val = |a: usize, b: usize| {
            (seed.wrapping_add((a * 179 + b * 31) as u32) % 1001) as f32 / 500.0 - 1.0
        };
        let w: Vec<Vec<f32>> = (0..rows).map(|r| (0..cols).map(|c| val(r, c)).collect()).collect();
        let g0: Vec<Vec<f32>> = (0..rows)
            .map(|r| (0..cols).map(|c| val(r + 1000, c)).collect())
            .collect();
        let h: Vec<f32> = (0..cols).map(|c| val(7, c)).collect();
        let dx0: Vec<f32> = (0..cols).map(|c| val(9, c)).collect();
        let deltas: Vec<f32> = (0..rows).map(|r| val(r, 3)).collect();

        // Scalar single-row reference: two separate axpy passes per row.
        let (g_ref, dx_ref) = with_level(SimdLevel::Scalar, || {
            let mut g = g0.clone();
            let mut dx = dx0.clone();
            for r in 0..rows {
                axpy_f32(deltas[r], &w[r], &mut dx);
                axpy_f32(deltas[r] * scale, &h, &mut g[r]);
            }
            (g, dx)
        });

        let w_ptrs: Vec<*const f32> = w.iter().map(|row| row.as_ptr()).collect();
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            let ks = KernelSet::for_level(level);
            let mut g = g0.clone();
            let mut dx = dx0.clone();
            let g_ptrs: Vec<*mut f32> = g.iter_mut().map(|row| row.as_mut_ptr()).collect();
            unsafe { ks.backward_rows_f32(&w_ptrs, &g_ptrs, &deltas, scale, &h, &mut dx) };
            for i in 0..cols {
                prop_assert!(
                    (dx[i] - dx_ref[i]).abs() <= 1e-3 * (rows.max(1) as f32),
                    "dx {level:?} i={i}"
                );
            }
            for r in 0..rows {
                for i in 0..cols {
                    prop_assert!(
                        (g[r][i] - g_ref[r][i]).abs() <= 1e-4,
                        "grad {level:?} r={r} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemv_blocked_matches_single_row_scalar(
        rows in 0usize..24,
        cols in 1usize..80,
        pad in 0usize..5,
        seed in any::<u32>(),
    ) {
        let _g = policy_lock();
        let stride = cols + pad;
        let arena: Vec<f32> = (0..rows * stride)
            .map(|i| (seed.wrapping_add(i as u32) % 1001) as f32 / 500.0 - 1.0)
            .collect();
        let x: Vec<f32> = (0..cols).map(|c| ((c * 41 + 13) % 173) as f32 / 100.0 - 1.0).collect();
        let bias: Vec<f32> = (0..rows).map(|r| r as f32 * 0.01 - 0.1).collect();
        let reference: Vec<f32> = with_level(SimdLevel::Scalar, || {
            (0..rows)
                .map(|r| dot_f32(&arena[r * stride..r * stride + cols], &x) + bias[r])
                .collect()
        });
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            let ks = KernelSet::for_level(level);
            let mut out = vec![f32::NAN; rows];
            ks.gemv(&arena, stride, &x, &bias, &mut out);
            for r in 0..rows {
                let tol = 1e-3_f32.max(reference[r].abs() * 1e-4);
                prop_assert!(
                    (out[r] - reference[r]).abs() <= tol,
                    "gemv {level:?} r={r}"
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Int8 quantized kernels. Two layers of contract: (1) every vector
    // tier reproduces the scalar integer kernel *bit-exactly* (7-bit
    // activation codes keep `vpmaddubsw` below i16 saturation, so integer
    // accumulation has one right answer), and (2) the quantized score
    // approximates the f32 dot of the original operands within the
    // per-row-scale error budget. Shapes cover empty active sets, ragged
    // row lists, sub-block row counts, and non-multiple-of-64 columns.
    // ------------------------------------------------------------------

    #[test]
    fn quantize_dequantize_roundtrip_error_is_bounded(
        w in prop::collection::vec(-1e3_f32..1e3, 0..300),
    ) {
        let mut q = vec![0i8; w.len()];
        let scale = quantize_row_i8(&w, &mut q);
        let mut back = vec![0.0f32; w.len()];
        dequantize_row_f32(&q, scale, &mut back);
        // Symmetric rounding: per-element error at most half a step.
        for i in 0..w.len() {
            prop_assert!(q[i] >= -127, "the -128 code is never produced");
            prop_assert!(
                (w[i] - back[i]).abs() <= scale * 0.5 + 1e-6,
                "i={i}: {} vs {} (scale {scale})",
                w[i],
                back[i]
            );
        }
    }

    #[test]
    fn quantize_acts_roundtrip_is_seven_bit_and_bounded(
        a in prop::collection::vec(0.0_f32..1e3, 0..300),
    ) {
        let mut q = vec![0u8; a.len()];
        let scale = quantize_acts_u8(&a, &mut q);
        for i in 0..a.len() {
            prop_assert!(q[i] <= 127, "activation codes stay 7-bit");
            prop_assert!(
                (a[i] - q[i] as f32 * scale).abs() <= scale * 0.5 + 1e-6,
                "i={i}"
            );
        }
    }

    #[test]
    fn score_rows_i8_matches_scalar_reference_everywhere(
        rows in 0usize..24,
        cols in 0usize..200,
        seed in any::<u32>(),
    ) {
        let _g = policy_lock();
        let val = |a: usize, b: usize| {
            (seed.wrapping_add((a * 131 + b * 17) as u32) % 2001) as f32 / 1000.0 - 1.0
        };
        let w: Vec<Vec<f32>> = (0..rows).map(|r| (0..cols).map(|c| val(r, c)).collect()).collect();
        let acts: Vec<f32> = (0..cols).map(|c| val(9999, c).max(0.0)).collect();

        let mut scales = vec![0.0f32; rows];
        let mut wq: Vec<Vec<i8>> = vec![vec![0i8; cols]; rows];
        for r in 0..rows {
            scales[r] = quantize_row_i8(&w[r], &mut wq[r]);
        }
        let mut xq = vec![0u8; cols];
        let x_scale = quantize_acts_u8(&acts, &mut xq);

        // Reference 1 (exact): the scalar integer kernel.
        let ptrs: Vec<*const i8> = wq.iter().map(|row| row.as_ptr()).collect();
        let reference: Vec<f32> = {
            let ks = KernelSet::for_level(SimdLevel::Scalar);
            let mut out = vec![f32::NAN; rows];
            unsafe { ks.score_rows_i8(&ptrs, &scales, &xq, x_scale, &mut out) };
            out
        };
        // Reference 2 (approximate): the f32 dot of the *original* operands.
        let exact: Vec<f32> = with_level(SimdLevel::Scalar, || {
            w.iter().map(|row| dot_f32(row, &acts)).collect()
        });
        for r in 0..rows {
            // Error budget: half-step per weight times the activation mass,
            // plus half an activation step times the weight mass.
            let act_mass: f32 = acts.iter().sum();
            let w_mass: f32 = w[r].iter().map(|v| v.abs()).sum();
            let budget = 0.5 * scales[r] * act_mass + 0.5 * x_scale * w_mass + 1e-3;
            prop_assert!(
                (reference[r] - exact[r]).abs() <= budget,
                "quantized score drifted past its error budget r={r}: {} vs {}",
                reference[r],
                exact[r]
            );
        }
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            let ks = KernelSet::for_level(level);
            let mut out = vec![f32::NAN; rows];
            unsafe { ks.score_rows_i8(&ptrs, &scales, &xq, x_scale, &mut out) };
            for r in 0..rows {
                // Integer accumulation has one right answer.
                prop_assert_eq!(
                    out[r].to_bits(),
                    reference[r].to_bits(),
                    "i8 {:?} ({:?}) r={}",
                    level,
                    ks.int8_isa(),
                    r
                );
            }
        }
    }

    #[test]
    fn gemv_i8_matches_scalar_reference_everywhere(
        rows in 0usize..24,
        cols in 1usize..120,
        pad in 0usize..5,
        seed in any::<u32>(),
    ) {
        let _g = policy_lock();
        let stride = cols + pad;
        let val = |i: usize| (seed.wrapping_add(i as u32) % 2001) as f32 / 1000.0 - 1.0;
        let mut arena = vec![0i8; rows * stride];
        let mut scales = vec![0.0f32; rows];
        for r in 0..rows {
            let row: Vec<f32> = (0..cols).map(|c| val(r * 1009 + c)).collect();
            scales[r] = quantize_row_i8(&row, &mut arena[r * stride..r * stride + cols]);
        }
        let acts: Vec<f32> = (0..cols).map(|c| val(c + 7).max(0.0)).collect();
        let mut xq = vec![0u8; cols];
        let x_scale = quantize_acts_u8(&acts, &mut xq);
        let bias: Vec<f32> = (0..rows).map(|r| r as f32 * 0.01 - 0.1).collect();

        let reference: Vec<f32> = {
            let ks = KernelSet::for_level(SimdLevel::Scalar);
            let mut out = vec![f32::NAN; rows];
            ks.gemv_i8(&arena, stride, &scales, &xq, x_scale, &bias, &mut out);
            out
        };
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            let ks = KernelSet::for_level(level);
            let mut out = vec![f32::NAN; rows];
            ks.gemv_i8(&arena, stride, &scales, &xq, x_scale, &bias, &mut out);
            for r in 0..rows {
                prop_assert_eq!(
                    out[r].to_bits(),
                    reference[r].to_bits(),
                    "gemv_i8 {:?} r={}",
                    level,
                    r
                );
            }
        }
    }

    #[test]
    fn bf16_dot_approximates_f32_dot(x in finite_vec(200)) {
        let _g = policy_lock();
        let w: Vec<f32> = x.iter().map(|v| v * 0.25 + 0.5).collect();
        let mut wq = vec![0u16; w.len()];
        bf16::f32_to_bf16_slice(&w, &mut wq);
        let exact = dot_f32(&w, &x);
        let approx = bf16::dot_bf16_f32(&wq, &x);
        // Each weight is off by at most 2^-9 relative; the dot inherits that
        // plus accumulation noise.
        let budget: f32 = w
            .iter()
            .zip(&x)
            .map(|(wi, xi)| (wi * xi).abs())
            .sum::<f32>()
            / 128.0
            + 1.0;
        prop_assert!((approx - exact).abs() <= budget, "{approx} vs {exact}");
    }
}

// The hashing kernels: every level equals the scalar reference *exactly*, and
// the scalar reference equals the definition. Each case sweeps the whole
// shape grid, so a few dozen seeds suffice.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // K·L ∈ {1, 63, 64, 65, 225, 450} are 1, 1, 1, 2, 4, 8 sign words; 3 and
    // 5 add the AVX-512 block's leftover-word loop.
    #[test]
    fn simhash_sign_bits_levels_agree_exactly(seed in any::<u64>(), specials in 0u8..4) {
        let _g = policy_lock();
        for dim in HASH_DIMS {
            let x = hashing_input(dim, seed, specials);
            for words in [1usize, 2, 3, 4, 5, 8] {
                let mut s = seed ^ words as u64 | 1;
                let signs: Vec<u64> = (0..dim * words).map(|_| xorshift(&mut s)).collect();
                let mut reference = vec![0u64; words];
                with_level(SimdLevel::Scalar, || simhash_sign_bits(&x, &signs, &mut reference));
                // The definition, one projection at a time.
                for bit in 0..words * 64 {
                    let mut sum = 0.0_f32;
                    for (i, &v) in x.iter().enumerate() {
                        if v != 0.0 {
                            let plus = signs[i * words + bit / 64] >> (bit % 64) & 1 == 1;
                            sum += if plus { v } else { -v };
                        }
                    }
                    prop_assert_eq!(reference[bit / 64] >> (bit % 64) & 1 == 1, sum > 0.0);
                }
                for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
                    let mut got = vec![u64::MAX; words];
                    with_level(level, || simhash_sign_bits(&x, &signs, &mut got));
                    prop_assert_eq!(&got, &reference, "{:?} dim={} words={}", level, dim, words);
                }
            }
        }
    }

    // dim < slots (several replicas, fan-in ~1), dim > slots (fan-in ≫ 1),
    // bin sizes below, at and above the vector widths, and maps that leave
    // whole bins without a source.
    #[test]
    fn dwta_bin_codes_levels_agree_exactly(
        seed in any::<u64>(),
        specials in 0u8..8,
        reach_percent in 10u64..101,
    ) {
        let _g = policy_lock();
        for dim in HASH_DIMS {
            let x = hashing_input(dim, seed, specials);
            for (bins, bin_size) in [(48usize, 16usize), (12, 4), (48, 8), (2, 32), (5, 2)] {
                let slots = bins * bin_size;
                let reach = (slots as u64 * reach_percent / 100).max(1);
                let mut s = seed ^ slots as u64 | 1;
                let map: Vec<u32> = (0..slots.div_ceil(dim) * dim)
                    .map(|_| (xorshift(&mut s) % reach) as u32)
                    .collect();
                let sources = DwtaSources::invert(&map, dim, bins, bin_size);
                let mut reference = vec![0u32; bins];
                with_level(SimdLevel::Scalar, || dwta_bin_codes(&x, &sources, &mut reference));
                // The definition: scatter through the forward map, then the
                // first strict maximum of each bin.
                let mut slot_vals = vec![f32::NEG_INFINITY; slots];
                for (j, &slot) in map.iter().enumerate() {
                    let (cur, v) = (&mut slot_vals[slot as usize], x[j % dim]);
                    if *cur == f32::NEG_INFINITY || v > *cur {
                        *cur = v;
                    }
                }
                for (b, bin) in slot_vals.chunks(bin_size).enumerate() {
                    let mut expect = (DWTA_EMPTY_BIN, f32::NEG_INFINITY);
                    for (lane, &v) in bin.iter().enumerate() {
                        if v > expect.1 {
                            expect = (lane as u32, v);
                        }
                    }
                    prop_assert_eq!(reference[b], expect.0, "scalar dim={} bin={}", dim, b);
                }
                for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
                    let mut got = vec![7u32; bins];
                    with_level(level, || dwta_bin_codes(&x, &sources, &mut got));
                    prop_assert_eq!(
                        &got, &reference,
                        "{:?} dim={} bins={}x{}", level, dim, bins, bin_size
                    );
                }
            }
        }
    }
}

// CRC-32: every level equals `Scalar` and `Scalar` equals the definition,
// bit for bit, at every length, start offset and streaming split. Levels
// above the host clamp to it, so each forced SLIDE_SIMD leg checks its own
// path; every level above `Scalar` runs the fold from 64 bytes on.

const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

/// CRC-32 (IEEE) from its definition: the reflected register shifted one
/// bit at a time, no table.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
        }
    }
    !c
}

fn crc_input(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..len).map(|_| (xorshift(&mut s) >> 24) as u8).collect()
}

#[test]
fn crc32_known_vectors_at_every_level() {
    let _g = policy_lock();
    // The last is zlib's `crc32(b"123456789" * 100)`: 14 four-lane blocks,
    // one single lane and a 4-byte scalar tail.
    let long = b"123456789".repeat(100);
    for level in LEVELS {
        with_level(level, || {
            assert_eq!(crc32_update(0, b"123456789"), 0xCBF4_3926, "{level:?}");
            assert_eq!(crc32_update(0, b""), 0, "{level:?}");
            assert_eq!(crc32_update(0, b"a"), 0xE8B7_BE43, "{level:?}");
            assert_eq!(crc32_update(0, &long), 0x09FD_0FD7, "{level:?}");
        });
    }
}

#[test]
fn crc32_every_length_to_1024_matches_the_definition() {
    let _g = policy_lock();
    let buf = crc_input(1024, 0x5EED);
    for len in 0..=1024 {
        let expect = crc32_bitwise(&buf[..len]);
        for level in LEVELS {
            let got = with_level(level, || crc32_update(0, &buf[..len]));
            assert_eq!(got, expect, "{level:?} len={len}");
        }
    }
}

#[test]
fn crc32_every_start_offset_matches_the_definition() {
    let _g = policy_lock();
    let buf = crc_input(4096 + 64, 0x0FF5E7);
    for offset in 0..64 {
        for len in [
            1, 15, 16, 17, 63, 64, 65, 79, 80, 127, 128, 255, 256, 257, 321, 1000, 4095, 4096,
        ] {
            let bytes = &buf[offset..offset + len];
            let expect = crc32_bitwise(bytes);
            for level in LEVELS {
                let got = with_level(level, || crc32_update(0, bytes));
                assert_eq!(got, expect, "{level:?} offset={offset} len={len}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn crc32_long_inputs_agree_and_split_anywhere(
        len in 0usize..(1 << 20) + 1,
        offset in 0usize..64,
        split in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let _g = policy_lock();
        let buf = crc_input(offset + len, seed);
        let bytes = &buf[offset..];
        let split = (split % (len as u64 + 1)) as usize;
        let expect = crc32_bitwise(bytes);
        for level in LEVELS {
            let (whole, streamed) = with_level(level, || {
                let head = crc32_update(0, &bytes[..split]);
                (crc32_update(0, bytes), crc32_update(head, &bytes[split..]))
            });
            prop_assert_eq!(whole, expect, "{:?} len={}", level, len);
            prop_assert_eq!(streamed, expect, "{:?} len={} split={}", level, len, split);
        }
    }
}
