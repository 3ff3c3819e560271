//! Runtime-dispatched SIMD kernels for the SLIDE reproduction.
//!
//! This crate is the *vectorization substrate* described in §4.2–§4.4 of
//! "Accelerating SLIDE Deep Learning on Modern CPUs" (MLSys 2021). It provides
//! the handful of flat-array kernels that dominate SLIDE's runtime:
//!
//! * [`dot_f32`] — the inner product of Algorithm 1 (dense input, row-major
//!   weights, sparse/dense output),
//! * [`axpy_f32`] — the scaled accumulate of Algorithm 2 (sparse input,
//!   column-major weights, dense output),
//! * [`adam_step_f32`] — the fused ADAM parameter update of §4.3.1,
//! * [`simhash_sign_bits`] / [`dwta_bin_codes`] — the LSH key kernels
//!   (§4.3.3): SimHash projections and DWTA bin winners, 8/16 hash slots
//!   per instruction and bit-identical at every level,
//! * [`crc32_update`] — the CRC-32 behind every snapshot image and wire
//!   frame: a byte-at-a-time table loop (the reference) and, on x86-64, a
//!   carry-less-multiply fold of 64 bytes per step (`pclmulqdq`), the same
//!   checksum at every level,
//! * the [`bf16`] module — software brain-float16 (§4.4) with vectorized
//!   slice conversions and bf16-weight kernels,
//! * the [`int8`] module — post-training-quantization kernels for i8
//!   weights × u8 activations (`vpmaddubsw` on AVX2, `vpdpbusd` where
//!   AVX-512 VNNI is available), behind [`KernelSet::score_rows_i8`] and
//!   [`KernelSet::gemv_i8`] for the quantized serving engine,
//! * [`KernelSet`] / [`RowGather`] — the multi-row fused gather kernels
//!   (blocked scoring with software prefetch, one-pass fused backward,
//!   blocked full gemv) behind SLIDE's active-set hot loops, dispatched
//!   through a function-pointer table resolved once per batch/snapshot
//!   instead of once per call. Each kernel has one shape per ISA tier;
//!   the pre-fusion loop is `for row in rows { ks.dot(row, x) }` for
//!   anything that wants to time it.
//!
//! Every public kernel picks an implementation at runtime from
//! [`SimdLevel::Scalar`], [`SimdLevel::Avx2`], or [`SimdLevel::Avx512`]
//! depending on what the host supports, and can be forced lower with
//! [`set_policy`] — this is the switch behind the paper's Table 4
//! ("Impact of AVX-512") ablation. On non-x86_64 targets only the scalar
//! path is compiled.
//!
//! # Examples
//!
//! ```
//! let x = vec![1.0_f32; 64];
//! let w = vec![0.5_f32; 64];
//! assert_eq!(slide_simd::dot_f32(&x, &w), 32.0);
//!
//! // Reproduce the paper's "AVX-512 off" configuration:
//! slide_simd::set_policy(slide_simd::SimdPolicy::Force(slide_simd::SimdLevel::Scalar));
//! assert_eq!(slide_simd::effective_level(), slide_simd::SimdLevel::Scalar);
//! slide_simd::set_policy(slide_simd::SimdPolicy::Auto);
//! ```

pub mod bf16;
mod checksum;
mod gather;
mod hashing;
pub mod int8;
mod kernels;
mod policy;
pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;

pub use bf16::Bf16;
pub use checksum::crc32_update;
pub use gather::{
    backward_rows_fused_f32, prefetch, score_rows_gather_f32, score_rows_gather_i8, KernelSet,
    RowGather,
};
pub use hashing::{dwta_bin_codes, simhash_sign_bits, DwtaSources, DWTA_EMPTY_BIN};
pub use int8::{
    dequantize_row_f32, int8_isa, quantize_acts_u8, quantize_row_i8, Int8Isa, I8_WEIGHT_MAX,
    U8_ACT_MAX,
};
pub use kernels::{adam_step_f32, axpy_f32, dot_f32, AdamStep};
pub use policy::{
    apply_env_policy, detected_level, effective_level, parse_policy, policy, set_policy, SimdLevel,
    SimdPolicy,
};

/// Number of bytes in a cache line on the target platforms (CLX/CPX: 64).
///
/// Used by `slide-mem` to align parameter arenas and batch buffers so that
/// SIMD loads do not split lines.
pub const CACHE_LINE_BYTES: usize = 64;
