//! The squared-L2-norm kernel behind the dataset normalization transform,
//! dispatched like the primary kernels.

use crate::policy::{effective_level, SimdLevel};

#[inline]
fn norm_sq_scalar(x: &[f32]) -> f32 {
    let mut acc = 0.0;
    for &v in x {
        acc += v * v;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    #![allow(unsafe_op_in_unsafe_fn)]
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx512f")]
    pub unsafe fn norm_sq(x: &[f32]) -> f32 {
        let n = x.len();
        let px = x.as_ptr();
        let mut acc = _mm512_setzero_ps();
        let mut i = 0usize;
        while i + 16 <= n {
            let v = _mm512_loadu_ps(px.add(i));
            acc = _mm512_fmadd_ps(v, v, acc);
            i += 16;
        }
        let mut total = _mm512_reduce_add_ps(acc);
        while i < n {
            let v = *px.add(i);
            total += v * v;
            i += 1;
        }
        total
    }
}

/// Squared L2 norm `Σ xᵢ²`.
#[inline]
pub fn norm_sq_f32(x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if effective_level() == SimdLevel::Avx512 {
        return unsafe { x86::norm_sq(x) };
    }
    let _ = effective_level();
    norm_sq_scalar(x)
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

    fn vals(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.29).sin() * 3.0).collect()
    }

    #[test]
    fn norm_sq_levels_agree() {
        for n in [0usize, 1, 16, 33, 128] {
            let x = vals(n);
            let s = with_level(SimdLevel::Scalar, || norm_sq_f32(&x));
            let v = with_level(SimdLevel::Avx512, || norm_sq_f32(&x));
            assert!((s - v).abs() <= 1e-3 * (n.max(1) as f32), "n={n}");
            assert!(s >= 0.0);
        }
    }
}
