//! Analytic V100 epoch-time model — the stand-in for the paper's
//! "TF FullSoftmax, V100" column (see DESIGN.md's substitution table).
//!
//! We have no GPU in this environment, so the V100 number is *modeled*, not
//! measured: dense training FLOPs divided by an effective sustained
//! throughput, plus a per-batch dispatch overhead. The constants are
//! calibrated to public V100 characteristics (15.7 TFLOP/s fp32 peak;
//! extreme-classification training sustains a modest fraction of peak
//! because the dominant op is a tall GEMM with a skinny `hidden` dimension,
//! and input pipelines/host sync add per-step latency). Every harness that
//! prints a modeled number labels it `model:` — all CPU-vs-CPU comparisons
//! in the reproduction are measured.

/// Analytic device model for dense full-softmax training throughput.
///
/// # Examples
///
/// ```
/// use slide_bench::{DeviceModel, Method};
///
/// let v100 = DeviceModel::v100();
/// let secs = v100.epoch_seconds(103_000_000, 490_449, 1024);
/// assert!(secs > 0.0);
/// assert_eq!(Method::all().len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    /// Device name used in reports.
    pub name: &'static str,
    /// Sustained fp32 throughput on this workload, in FLOP/s.
    pub effective_flops: f64,
    /// Fixed overhead per training step (kernel launches, host sync,
    /// input pipeline), in seconds.
    pub per_batch_overhead: f64,
}

impl DeviceModel {
    /// An NVIDIA V100 under TensorFlow on a tall-GEMM extreme-classification
    /// workload: ~25% of the 15.7 TFLOP/s fp32 peak sustained, ~300 µs per
    /// step of launch/sync/input overhead.
    pub fn v100() -> Self {
        DeviceModel {
            name: "V100 (modeled)",
            effective_flops: 4.0e12,
            per_batch_overhead: 300e-6,
        }
    }

    /// Training FLOPs for one epoch of a dense model: the standard
    /// `6 · parameters · samples` estimate (2 forward + 4 backward/update
    /// FLOPs per parameter per sample).
    pub fn training_flops(parameters: u64, samples: usize) -> f64 {
        6.0 * parameters as f64 * samples as f64
    }

    /// Modeled wall-clock seconds for one dense training epoch.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn epoch_seconds(&self, parameters: u64, samples: usize, batch_size: usize) -> f64 {
        assert!(batch_size > 0, "DeviceModel: batch_size must be positive");
        let batches = samples.div_ceil(batch_size) as f64;
        Self::training_flops(parameters, samples) / self.effective_flops
            + batches * self.per_batch_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_formula() {
        assert_eq!(DeviceModel::training_flops(1000, 10), 60_000.0);
    }

    #[test]
    fn epoch_seconds_scale_linearly_in_samples() {
        let m = DeviceModel::v100();
        let t1 = m.epoch_seconds(100_000_000, 10_000, 1000);
        let t2 = m.epoch_seconds(100_000_000, 20_000, 1000);
        assert!((t2 / t1 - 2.0).abs() < 0.05, "{t1} vs {t2}");
    }

    #[test]
    fn paper_scale_sanity() {
        // Amazon-670K: ~103M params, 490K samples, batch 1024. The paper's
        // V100 epoch time is on the order of hundreds of seconds; the model
        // should land in that order of magnitude.
        let m = DeviceModel::v100();
        let t = m.epoch_seconds(103_000_000, 490_449, 1024);
        assert!((20.0..2000.0).contains(&t), "modeled epoch {t}s");
    }

    #[test]
    fn overhead_dominates_tiny_batches() {
        let m = DeviceModel::v100();
        let coarse = m.epoch_seconds(1_000_000, 10_000, 1000);
        let fine = m.epoch_seconds(1_000_000, 10_000, 10);
        assert!(fine > coarse, "more batches must cost more overhead");
    }

    #[test]
    fn v100_model_is_plausible_for_our_scale() {
        let model = DeviceModel::v100();
        let params = slide_data::model_parameters(1024, 32, 4096);
        let t = model.epoch_seconds(params, 2_000, 128);
        // Tiny model + V100: milliseconds to low seconds.
        assert!(t > 0.0 && t < 5.0, "modeled {t}s");
    }
}
