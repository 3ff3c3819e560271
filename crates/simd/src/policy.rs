//! Runtime SIMD capability detection and the process-wide dispatch policy.
//!
//! The paper's Table 4 compares Optimized SLIDE with and without AVX-512 on
//! the same binary and hardware. We reproduce that switch with a global
//! [`SimdPolicy`]: `Auto` uses the best instruction set the CPU reports,
//! `Force(level)` clamps dispatch to at most `level`. The `SLIDE_SIMD`
//! environment variable (`auto`/`scalar`/`avx2`/`avx512`) sets the initial
//! policy so CI can gate-test every dispatch path ([`apply_env_policy`]).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Instruction-set tiers the kernels can dispatch to.
///
/// Ordered: `Scalar < Avx2 < Avx512`, so `min` combines a forced policy with
/// the detected capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar loops (always available).
    Scalar,
    /// 256-bit AVX2 + FMA paths (8 f32 lanes).
    Avx2,
    /// 512-bit AVX-512F paths (16 f32 lanes), the paper's target ISA.
    Avx512,
}

impl SimdLevel {
    /// Number of f32 lanes processed per vector operation at this level.
    ///
    /// ```
    /// use slide_simd::SimdLevel;
    /// assert_eq!(SimdLevel::Avx512.lanes_f32(), 16);
    /// ```
    pub fn lanes_f32(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Avx2 => 8,
            SimdLevel::Avx512 => 16,
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimdLevel::Scalar => f.write_str("scalar"),
            SimdLevel::Avx2 => f.write_str("avx2"),
            SimdLevel::Avx512 => f.write_str("avx512"),
        }
    }
}

/// Process-wide dispatch policy for all kernels in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdPolicy {
    /// Use the best level the host supports (the default).
    #[default]
    Auto,
    /// Never dispatch above the given level, even if the host supports more.
    /// `Force(Scalar)` is the paper's "without AVX-512" configuration.
    Force(SimdLevel),
}

const POLICY_AUTO: u8 = 0;
const POLICY_SCALAR: u8 = 1;
const POLICY_AVX2: u8 = 2;
const POLICY_AVX512: u8 = 3;

static POLICY: AtomicU8 = AtomicU8::new(POLICY_AUTO);

/// Parse a policy name as accepted by the `SLIDE_SIMD` environment variable:
/// `auto`, `scalar`, `avx2`, or `avx512` (case-insensitive). Returns `None`
/// for anything else.
///
/// ```
/// use slide_simd::{parse_policy, SimdLevel, SimdPolicy};
/// assert_eq!(parse_policy("avx2"), Some(SimdPolicy::Force(SimdLevel::Avx2)));
/// assert_eq!(parse_policy("Auto"), Some(SimdPolicy::Auto));
/// assert_eq!(parse_policy("mmx"), None);
/// ```
pub fn parse_policy(name: &str) -> Option<SimdPolicy> {
    match name.to_ascii_lowercase().as_str() {
        "auto" => Some(SimdPolicy::Auto),
        "scalar" => Some(SimdPolicy::Force(SimdLevel::Scalar)),
        "avx2" => Some(SimdPolicy::Force(SimdLevel::Avx2)),
        "avx512" => Some(SimdPolicy::Force(SimdLevel::Avx512)),
        _ => None,
    }
}

/// Apply the `SLIDE_SIMD` environment variable to the global policy, once
/// per process (subsequent calls are no-ops). This is the hook `ci.sh` uses
/// to force the scalar/AVX2 kernel paths through the whole test suite; an
/// unset or unparsable variable leaves the policy untouched. An explicit
/// [`set_policy`] call later always overrides the environment.
///
/// Returns the policy the environment requested, if any.
pub fn apply_env_policy() -> Option<SimdPolicy> {
    static ENV_POLICY: OnceLock<Option<SimdPolicy>> = OnceLock::new();
    *ENV_POLICY.get_or_init(|| {
        let requested = std::env::var("SLIDE_SIMD").ok().and_then(|v| {
            let parsed = parse_policy(&v);
            if parsed.is_none() {
                eprintln!("slide-simd: ignoring unrecognized SLIDE_SIMD={v:?} (want auto|scalar|avx2|avx512)");
            }
            parsed
        });
        if let Some(policy) = requested {
            POLICY.store(encode(policy), Ordering::Release);
        }
        requested
    })
}

fn encode(policy: SimdPolicy) -> u8 {
    match policy {
        SimdPolicy::Auto => POLICY_AUTO,
        SimdPolicy::Force(SimdLevel::Scalar) => POLICY_SCALAR,
        SimdPolicy::Force(SimdLevel::Avx2) => POLICY_AVX2,
        SimdPolicy::Force(SimdLevel::Avx512) => POLICY_AVX512,
    }
}

/// Detect the best level supported by the executing CPU (cached after the
/// first call).
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx512f") {
        SimdLevel::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> SimdLevel {
    SimdLevel::Scalar
}

/// Set the process-wide dispatch policy.
///
/// Takes effect for all subsequent kernel calls in every thread. Used by the
/// Table 4 ablation harness and by tests that pin the scalar reference path.
pub fn set_policy(policy: SimdPolicy) {
    // Resolve the environment first so an explicit call afterwards wins (the
    // env hook writes POLICY at most once per process).
    apply_env_policy();
    POLICY.store(encode(policy), Ordering::Release);
}

/// The currently configured policy (not clamped by hardware capability).
pub fn policy() -> SimdPolicy {
    apply_env_policy();
    match POLICY.load(Ordering::Acquire) {
        POLICY_SCALAR => SimdPolicy::Force(SimdLevel::Scalar),
        POLICY_AVX2 => SimdPolicy::Force(SimdLevel::Avx2),
        POLICY_AVX512 => SimdPolicy::Force(SimdLevel::Avx512),
        _ => SimdPolicy::Auto,
    }
}

/// The level kernels will actually run at: the policy clamped to what the
/// host supports. A `Force` above the detected capability degrades to the
/// detected level rather than faulting.
#[inline]
pub fn effective_level() -> SimdLevel {
    apply_env_policy();
    let requested = match POLICY.load(Ordering::Relaxed) {
        POLICY_SCALAR => SimdLevel::Scalar,
        POLICY_AVX2 => SimdLevel::Avx2,
        POLICY_AVX512 => SimdLevel::Avx512,
        _ => SimdLevel::Avx512,
    };
    requested.min(detected_level())
}

/// Serializes tests that mutate the process-wide policy so the default
/// parallel test runner cannot interleave them.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        assert!(SimdLevel::Avx2 < SimdLevel::Avx512);
    }

    #[test]
    fn lanes_match_register_width() {
        assert_eq!(SimdLevel::Scalar.lanes_f32(), 1);
        assert_eq!(SimdLevel::Avx2.lanes_f32(), 8);
        assert_eq!(SimdLevel::Avx512.lanes_f32(), 16);
    }

    #[test]
    fn force_scalar_clamps_effective_level() {
        let _guard = test_guard();
        // Restore the process's prior policy (a forced SLIDE_SIMD CI leg
        // must stay forced for the rest of the suite), not Auto.
        let prior = policy();
        set_policy(SimdPolicy::Force(SimdLevel::Scalar));
        assert_eq!(effective_level(), SimdLevel::Scalar);
        assert_eq!(policy(), SimdPolicy::Force(SimdLevel::Scalar));
        set_policy(SimdPolicy::Auto);
        assert_eq!(policy(), SimdPolicy::Auto);
        assert_eq!(effective_level(), detected_level());
        set_policy(prior);
    }

    #[test]
    fn force_above_detected_degrades() {
        let _guard = test_guard();
        let prior = policy();
        set_policy(SimdPolicy::Force(SimdLevel::Avx512));
        assert!(effective_level() <= detected_level());
        set_policy(prior);
    }

    #[test]
    fn parse_policy_accepts_ci_matrix_values() {
        assert_eq!(parse_policy("auto"), Some(SimdPolicy::Auto));
        assert_eq!(
            parse_policy("scalar"),
            Some(SimdPolicy::Force(SimdLevel::Scalar))
        );
        assert_eq!(
            parse_policy("AVX2"),
            Some(SimdPolicy::Force(SimdLevel::Avx2))
        );
        assert_eq!(
            parse_policy("avx512"),
            Some(SimdPolicy::Force(SimdLevel::Avx512))
        );
        assert_eq!(parse_policy(""), None);
        assert_eq!(parse_policy("sse9"), None);
    }

    #[test]
    fn env_policy_is_applied_once_and_explicit_set_wins() {
        let _guard = test_guard();
        let prior = policy();
        // Whatever the process environment says, the hook must be
        // idempotent...
        let first = apply_env_policy();
        assert_eq!(apply_env_policy(), first);
        // ...and an explicit set_policy afterwards must override it.
        set_policy(SimdPolicy::Force(SimdLevel::Scalar));
        assert_eq!(policy(), SimdPolicy::Force(SimdLevel::Scalar));
        set_policy(SimdPolicy::Auto);
        assert_eq!(policy(), SimdPolicy::Auto);
        set_policy(prior);
    }

    #[test]
    fn display_names() {
        assert_eq!(SimdLevel::Avx512.to_string(), "avx512");
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
        assert_eq!(SimdLevel::Scalar.to_string(), "scalar");
    }
}
