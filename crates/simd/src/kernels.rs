//! Public dispatched kernel entry points.
//!
//! Each function consults [`crate::effective_level`] once and forwards to the
//! scalar, AVX2, or AVX-512 implementation. Dispatch overhead is one relaxed
//! atomic load — negligible against the O(n) kernels it guards.

use crate::policy::{effective_level, SimdLevel};
use crate::scalar;

/// Hyper-parameters for one fused ADAM update, with the bias-corrected
/// learning rate `lr_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t)` precomputed
/// by the caller (once per batch, not per element).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamStep {
    /// Bias-corrected learning rate for this step.
    pub lr_t: f32,
    /// Momentum decay (paper uses 0.9).
    pub beta1: f32,
    /// Velocity decay (paper uses 0.999).
    pub beta2: f32,
    /// Denominator fuzz (paper uses 1e-8).
    pub eps: f32,
}

impl AdamStep {
    /// Build a step descriptor from the base learning rate and 1-based step
    /// counter `t`, applying the standard ADAM bias correction.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = slide_simd::AdamStep::bias_corrected(1e-3, 0.9, 0.999, 1e-8, 1);
    /// assert!((s.lr_t - 1e-3 * (1.0f32 - 0.999).sqrt() / (1.0 - 0.9)).abs() < 1e-9);
    /// ```
    pub fn bias_corrected(lr: f32, beta1: f32, beta2: f32, eps: f32, t: u64) -> Self {
        let t = t.max(1) as i32;
        let corr1 = 1.0 - beta1.powi(t);
        let corr2 = 1.0 - beta2.powi(t);
        AdamStep {
            lr_t: lr * corr2.sqrt() / corr1,
            beta1,
            beta2,
            eps,
        }
    }
}

macro_rules! dispatch {
    ($scalar:expr, $avx2:expr, $avx512:expr) => {{
        #[cfg(target_arch = "x86_64")]
        {
            match effective_level() {
                SimdLevel::Avx512 => unsafe { $avx512 },
                SimdLevel::Avx2 => unsafe { $avx2 },
                SimdLevel::Scalar => $scalar,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = effective_level();
            $scalar
        }
    }};
}
pub(crate) use dispatch;

/// Inner product `aᵀb` — the hot loop of Algorithm 1 (row-major weights,
/// dense input, sparse/dense output).
///
/// # Panics
///
/// Panics in debug builds if `a.len() != b.len()`.
///
/// # Examples
///
/// ```
/// assert_eq!(slide_simd::dot_f32(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_f32: length mismatch");
    dispatch!(
        scalar::dot(a, b),
        crate::avx2::dot(a, b),
        crate::avx512::dot(a, b)
    )
}

/// `y += alpha * x` — the hot loop of Algorithm 2 (column-major weights,
/// sparse input, dense output) and of row-gradient accumulation.
///
/// # Panics
///
/// Panics in debug builds if `x.len() != y.len()`.
///
/// # Examples
///
/// ```
/// let mut y = vec![1.0_f32; 4];
/// slide_simd::axpy_f32(2.0, &[1.0, 2.0, 3.0, 4.0], &mut y);
/// assert_eq!(y, vec![3.0, 5.0, 7.0, 9.0]);
/// ```
#[inline]
pub fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy_f32: length mismatch");
    dispatch!(
        scalar::axpy(alpha, x, y),
        crate::avx2::axpy(alpha, x, y),
        crate::avx512::axpy(alpha, x, y)
    )
}

/// In-place `x *= alpha`.
#[inline]
pub fn scale_f32(alpha: f32, x: &mut [f32]) {
    dispatch!(
        scalar::scale(alpha, x),
        crate::avx2::scale(alpha, x),
        crate::avx512::scale(alpha, x)
    )
}

/// Element-wise `y += x` (Figure 2's pairwise-add example, widened to f32).
#[inline]
pub fn add_f32(x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "add_f32: length mismatch");
    dispatch!(
        scalar::add(x, y),
        crate::avx2::add(x, y),
        crate::avx512::add(x, y)
    )
}

/// Horizontal sum of a slice.
#[inline]
pub fn sum_f32(x: &[f32]) -> f32 {
    dispatch!(scalar::sum(x), crate::avx2::sum(x), crate::avx512::sum(x))
}

/// First-wins argmax: smallest index attaining the maximum value, or `None`
/// for an empty slice. NaN elements never win a comparison. This is the bin
/// reduction used by DWTA hashing (§4.3.3).
///
/// # Examples
///
/// ```
/// assert_eq!(slide_simd::argmax_f32(&[1.0, 9.0, 9.0]), Some((1, 9.0)));
/// assert_eq!(slide_simd::argmax_f32(&[]), None);
/// ```
#[inline]
pub fn argmax_f32(x: &[f32]) -> Option<(usize, f32)> {
    dispatch!(
        scalar::argmax(x),
        crate::avx2::argmax(x),
        crate::avx512::argmax(x)
    )
}

/// Fused ADAM update over flat arrays (§4.3.1, Figure 3):
/// `m = β₁m + (1-β₁)g`, `v = β₂v + (1-β₂)g²`, `w -= lr_t · m/(√v + ε)`.
///
/// The caller supplies the gradient `g` and is responsible for zeroing it
/// afterwards (a `fill(0.0)` compiles to `memset` and stays bandwidth-bound).
///
/// # Panics
///
/// Panics if the four slices differ in length.
///
/// # Examples
///
/// ```
/// let step = slide_simd::AdamStep::bias_corrected(1e-3, 0.9, 0.999, 1e-8, 1);
/// let (mut w, mut m, mut v) = (vec![1.0_f32; 32], vec![0.0; 32], vec![0.0; 32]);
/// slide_simd::adam_step_f32(&mut w, &mut m, &mut v, &vec![0.1; 32], step);
/// assert!(w[0] < 1.0);
/// ```
#[inline]
pub fn adam_step_f32(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], step: AdamStep) {
    assert_eq!(w.len(), m.len(), "adam_step_f32: m length mismatch");
    assert_eq!(w.len(), v.len(), "adam_step_f32: v length mismatch");
    assert_eq!(w.len(), g.len(), "adam_step_f32: g length mismatch");
    dispatch!(
        scalar::adam_step(w, m, v, g, step),
        crate::avx2::adam_step(w, m, v, g, step),
        crate::avx512::adam_step(w, m, v, g, step)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{set_policy, SimdPolicy};

    fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
        let _guard = crate::policy::test_guard();
        // Restore the prior policy (may be a forced SLIDE_SIMD CI leg).
        let prior = crate::policy::policy();
        set_policy(SimdPolicy::Force(level));
        let r = f();
        set_policy(prior);
        r
    }

    fn pseudo_random(n: usize, seed: u32) -> Vec<f32> {
        // Simple xorshift so this module needs no dev-dependency.
        let mut s = seed.wrapping_mul(2654435761).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                (s as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    const SIZES: &[usize] = &[
        0, 1, 3, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 1000,
    ];

    #[test]
    fn dot_all_levels_agree() {
        for &n in SIZES {
            let a = pseudo_random(n, 1);
            let b = pseudo_random(n, 2);
            let reference = with_level(SimdLevel::Scalar, || dot_f32(&a, &b));
            for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
                let got = with_level(level, || dot_f32(&a, &b));
                let tol = 1e-4 * (n.max(1) as f32).sqrt();
                assert!(
                    (got - reference).abs() <= tol.max(1e-5),
                    "n={n} level={level:?}: {got} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn axpy_all_levels_agree() {
        for &n in SIZES {
            let x = pseudo_random(n, 3);
            let y0 = pseudo_random(n, 4);
            let mut expect = y0.clone();
            with_level(SimdLevel::Scalar, || axpy_f32(0.37, &x, &mut expect));
            for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
                let mut y = y0.clone();
                with_level(level, || axpy_f32(0.37, &x, &mut y));
                for i in 0..n {
                    assert!(
                        (y[i] - expect[i]).abs() < 1e-5,
                        "n={n} i={i} level={level:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scale_and_add_all_levels_agree() {
        for &n in SIZES {
            let x = pseudo_random(n, 5);
            let y0 = pseudo_random(n, 6);
            for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
                let mut a = x.clone();
                with_level(level, || scale_f32(-1.5, &mut a));
                let mut b = x.clone();
                with_level(SimdLevel::Scalar, || scale_f32(-1.5, &mut b));
                assert_eq!(a, b, "scale n={n} level={level:?}");

                let mut ya = y0.clone();
                with_level(level, || add_f32(&x, &mut ya));
                let mut yb = y0.clone();
                with_level(SimdLevel::Scalar, || add_f32(&x, &mut yb));
                assert_eq!(ya, yb, "add n={n} level={level:?}");
            }
        }
    }

    #[test]
    fn sum_all_levels_agree() {
        for &n in SIZES {
            let x = pseudo_random(n, 7);
            let reference = with_level(SimdLevel::Scalar, || sum_f32(&x));
            for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
                let got = with_level(level, || sum_f32(&x));
                assert!(
                    (got - reference).abs() <= 1e-4 * (n.max(1) as f32),
                    "n={n} level={level:?}"
                );
            }
        }
    }

    #[test]
    fn argmax_all_levels_agree_exactly() {
        for &n in SIZES {
            let x = pseudo_random(n, 8);
            let reference = with_level(SimdLevel::Scalar, || argmax_f32(&x));
            for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
                let got = with_level(level, || argmax_f32(&x));
                assert_eq!(got, reference, "n={n} level={level:?}");
            }
        }
    }

    #[test]
    fn argmax_with_duplicated_max_prefers_first() {
        let mut x = vec![0.0_f32; 100];
        x[17] = 5.0;
        x[63] = 5.0;
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            assert_eq!(
                with_level(level, || argmax_f32(&x)),
                Some((17, 5.0)),
                "{level:?}"
            );
        }
    }

    #[test]
    fn argmax_max_in_tail_found() {
        let mut x = vec![0.0_f32; 37];
        x[36] = 9.0;
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            assert_eq!(with_level(level, || argmax_f32(&x)), Some((36, 9.0)));
        }
    }

    #[test]
    fn adam_all_levels_agree() {
        for &n in SIZES {
            let g = pseudo_random(n, 9);
            let w0 = pseudo_random(n, 10);
            let m0 = pseudo_random(n, 11)
                .iter()
                .map(|v| v.abs())
                .collect::<Vec<_>>();
            let v0 = pseudo_random(n, 12)
                .iter()
                .map(|v| v.abs())
                .collect::<Vec<_>>();
            let step = AdamStep::bias_corrected(1e-3, 0.9, 0.999, 1e-8, 7);
            let (mut we, mut me, mut ve) = (w0.clone(), m0.clone(), v0.clone());
            with_level(SimdLevel::Scalar, || {
                adam_step_f32(&mut we, &mut me, &mut ve, &g, step)
            });
            for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
                let (mut w, mut m, mut v) = (w0.clone(), m0.clone(), v0.clone());
                with_level(level, || adam_step_f32(&mut w, &mut m, &mut v, &g, step));
                for i in 0..n {
                    assert!((w[i] - we[i]).abs() < 1e-5, "w n={n} i={i} {level:?}");
                    assert!((m[i] - me[i]).abs() < 1e-6, "m n={n} i={i} {level:?}");
                    assert!((v[i] - ve[i]).abs() < 1e-6, "v n={n} i={i} {level:?}");
                }
            }
        }
    }

    #[test]
    fn bias_correction_decays_toward_base_lr() {
        let early = AdamStep::bias_corrected(1e-3, 0.9, 0.999, 1e-8, 1);
        let late = AdamStep::bias_corrected(1e-3, 0.9, 0.999, 1e-8, 1_000_000);
        assert!(early.lr_t < late.lr_t * 0.5);
        assert!((late.lr_t - 1e-3).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot_f32(&[1.0], &[1.0, 2.0]);
    }
}
