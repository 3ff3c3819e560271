//! Configuration surface for the SLIDE engine: every optimization axis the
//! paper studies (AVX level, bf16 mode, memory layout, LSH parameters,
//! rebuild schedule) is a field here, so the benchmark harness can flip one
//! switch per ablation.

use slide_hash::BucketPolicy;
use slide_mem::ParamLayout;

/// Numeric precision mode — the three columns of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Precision {
    /// Everything in f32 ("Without BF16").
    #[default]
    Fp32,
    /// Activations rounded through bf16, parameters updated in f32
    /// (paper mode 2: "BF16 only for activations").
    Bf16Activations,
    /// Weights stored in bf16 *and* activations rounded through bf16
    /// (paper mode 1: "BF16 for both activations and weights").
    Bf16Both,
}

/// Which LSH family samples the output layer.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum HashFamilyKind {
    /// Densified winner-take-all (used for Amazon-670K / WikiLSH-325K),
    /// with the given WTA bin width (power of two).
    Dwta {
        /// Slots per WTA bin.
        bin_size: usize,
    },
    /// SimHash / signed random projection (used for Text8).
    SimHash,
}

/// LSH sampling parameters for the output layer (paper §5.3: `K`, `L`, and
/// per-dataset family choice).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LshConfig {
    /// Hash family.
    pub family: HashFamilyKind,
    /// Bits per table key; each table has `2^K` buckets.
    pub key_bits: u32,
    /// Number of tables `L`.
    pub tables: usize,
    /// Max neuron ids per bucket.
    pub bucket_cap: usize,
    /// Full-bucket insertion policy.
    pub policy: BucketPolicy,
    /// Minimum active-set size; if the query retrieves fewer, random neurons
    /// pad the set (keeps gradients flowing early in training).
    pub min_active: usize,
    /// Optional hard cap on the active-set size.
    pub max_active: Option<usize>,
    /// Buckets probed per table (1 = the paper's plain query; >1 adds
    /// hamming-1 neighbour buckets — multiprobe LSH, an extension knob).
    pub probes: usize,
}

impl Default for LshConfig {
    fn default() -> Self {
        LshConfig {
            family: HashFamilyKind::Dwta { bin_size: 16 },
            key_bits: 6,
            tables: 16,
            bucket_cap: 128,
            policy: BucketPolicy::Reservoir,
            min_active: 64,
            max_active: None,
            probes: 1,
        }
    }
}

/// Hash-table rebuild schedule (§2: tables are refreshed as weights drift;
/// SLIDE grows the interval exponentially because early weights change fast
/// and late weights change slowly). Every rebuild clears the tables and
/// re-inserts every neuron (parallel two-phase).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RebuildSchedule {
    /// Batches before the first rebuild.
    pub initial_period: u32,
    /// Multiplier applied to the period after every rebuild.
    pub growth: f32,
    /// Ceiling for the period.
    pub max_period: u32,
}

impl Default for RebuildSchedule {
    fn default() -> Self {
        RebuildSchedule {
            initial_period: 50,
            growth: 1.05,
            max_period: 1000,
        }
    }
}

/// Memory-layout switches — the §4.1 / §5.7 optimization axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MemoryConfig {
    /// Contiguous per-layer parameter arenas vs per-neuron allocations.
    pub coalesced_params: bool,
    /// Contiguous batch buffers vs per-instance allocations.
    pub coalesced_data: bool,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            coalesced_params: true,
            coalesced_data: true,
        }
    }
}

impl MemoryConfig {
    /// The [`ParamLayout`] implied by `coalesced_params`.
    pub fn param_layout(&self) -> ParamLayout {
        if self.coalesced_params {
            ParamLayout::Coalesced
        } else {
            ParamLayout::Fragmented
        }
    }
}

/// Full architecture + engineering configuration of a SLIDE network.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NetworkConfig {
    /// Sparse input dimensionality (feature space).
    pub input_dim: usize,
    /// Hidden widths, in order (paper: `[128]` for the XC datasets, `[200]`
    /// for Text8).
    pub hidden_dims: Vec<usize>,
    /// Output dimensionality (label space).
    pub output_dim: usize,
    /// Output-layer LSH sampling parameters.
    pub lsh: LshConfig,
    /// Numeric precision mode (Table 3).
    pub precision: Precision,
    /// Memory layout switches (§5.7).
    pub memory: MemoryConfig,
    /// Weight-initialization / hashing seed.
    pub seed: u64,
}

impl NetworkConfig {
    /// The paper's standard architecture for a workload:
    /// `input -> hidden -> output` with LSH on the output layer.
    pub fn standard(input_dim: usize, hidden: usize, output_dim: usize) -> Self {
        NetworkConfig {
            input_dim,
            hidden_dims: vec![hidden],
            output_dim,
            lsh: LshConfig::default(),
            precision: Precision::Fp32,
            memory: MemoryConfig::default(),
            seed: 0x511D_E001,
        }
    }

    /// Validate invariants shared by the whole engine.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message if dimensions are zero, the LSH
    /// parameters are out of range, or an unsupported combination is chosen
    /// (bf16 weights require coalesced parameter arenas).
    pub fn validate(&self) -> Result<(), String> {
        if self.input_dim == 0 || self.output_dim == 0 {
            return Err("input_dim and output_dim must be positive".into());
        }
        if self.hidden_dims.is_empty() || self.hidden_dims.contains(&0) {
            return Err("hidden_dims must be non-empty and positive".into());
        }
        if self.lsh.key_bits == 0 || self.lsh.key_bits > 24 {
            return Err("lsh.key_bits must be in 1..=24".into());
        }
        if self.lsh.tables == 0 {
            return Err("lsh.tables must be positive".into());
        }
        if self.lsh.bucket_cap == 0 {
            return Err("lsh.bucket_cap must be positive".into());
        }
        if self.lsh.probes == 0 {
            return Err("lsh.probes must be positive (1 = plain query)".into());
        }
        if let HashFamilyKind::Dwta { bin_size } = self.lsh.family {
            if !bin_size.is_power_of_two() || bin_size < 2 {
                return Err("dwta bin_size must be a power of two >= 2".into());
            }
        }
        if self.precision == Precision::Bf16Both && !self.memory.coalesced_params {
            return Err("bf16 weight storage requires coalesced parameter arenas \
                 (the naive fragmented layout is an fp32-era configuration)"
                .into());
        }
        Ok(())
    }
}

/// Learning-rate schedule applied on top of the base rate (the paper trains
/// at a constant 1e-4; schedules are an extension for downstream users).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum LrSchedule {
    /// Constant base rate (the paper's setting).
    #[default]
    Constant,
    /// Multiply the rate by `factor` every `every_epochs` epochs.
    StepDecay {
        /// Epochs between decays.
        every_epochs: u32,
        /// Multiplier applied at each decay (0 < factor <= 1).
        factor: f32,
    },
    /// Cosine annealing from the base rate down to `base * min_factor`
    /// over `total_epochs`.
    Cosine {
        /// Horizon of the anneal.
        total_epochs: u32,
        /// Floor as a fraction of the base rate.
        min_factor: f32,
    },
}

impl LrSchedule {
    /// The effective learning rate for `epoch` (0-based).
    pub fn lr_at(&self, base: f32, epoch: u64) -> f32 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::StepDecay {
                every_epochs,
                factor,
            } => {
                let steps = epoch / every_epochs.max(1) as u64;
                base * factor.powi(steps.min(1_000) as i32)
            }
            LrSchedule::Cosine {
                total_epochs,
                min_factor,
            } => {
                let t = (epoch as f32 / total_epochs.max(1) as f32).min(1.0);
                let floor = base * min_factor;
                floor + 0.5 * (base - floor) * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }

    /// Validate schedule parameters.
    ///
    /// # Errors
    ///
    /// Returns a message on out-of-range factors or zero horizons.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            LrSchedule::Constant => Ok(()),
            LrSchedule::StepDecay {
                every_epochs,
                factor,
            } => {
                if every_epochs == 0 {
                    return Err("lr_schedule: every_epochs must be positive".into());
                }
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err("lr_schedule: factor must be in (0, 1]".into());
                }
                Ok(())
            }
            LrSchedule::Cosine {
                total_epochs,
                min_factor,
            } => {
                if total_epochs == 0 {
                    return Err("lr_schedule: total_epochs must be positive".into());
                }
                if !(0.0..=1.0).contains(&min_factor) {
                    return Err("lr_schedule: min_factor must be in [0, 1]".into());
                }
                Ok(())
            }
        }
    }
}

/// Optimizer + loop parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TrainerConfig {
    /// Mini-batch size (paper: 1024 / 256 / 512 per dataset).
    pub batch_size: usize,
    /// ADAM base learning rate (paper: 1e-4).
    pub learning_rate: f32,
    /// Schedule applied on top of the base rate.
    pub lr_schedule: LrSchedule,
    /// ADAM β₁.
    pub beta1: f32,
    /// ADAM β₂.
    pub beta2: f32,
    /// ADAM ε.
    pub eps: f32,
    /// HOGWILD worker threads (0 = all available cores).
    pub threads: usize,
    /// Hash-table rebuild schedule.
    pub rebuild: RebuildSchedule,
    /// Seed for epoch shuffling and active-set padding.
    pub shuffle_seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            batch_size: 256,
            learning_rate: 1e-4,
            lr_schedule: LrSchedule::Constant,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            threads: 0,
            rebuild: RebuildSchedule::default(),
            shuffle_seed: 0x7EA1,
        }
    }
}

impl TrainerConfig {
    /// Resolve `threads == 0` to the machine's parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Validate loop parameters.
    ///
    /// # Errors
    ///
    /// Returns a message if the batch size is zero or the optimizer
    /// constants are outside their valid ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.learning_rate <= 0.0 || self.learning_rate.is_nan() {
            return Err("learning_rate must be positive".into());
        }
        self.lr_schedule.validate()?;
        if !(0.0..1.0).contains(&self.beta1) || !(0.0..1.0).contains(&self.beta2) {
            return Err("beta1/beta2 must be in [0, 1)".into());
        }
        if self.rebuild.initial_period == 0 {
            return Err("rebuild.initial_period must be positive".into());
        }
        if self.rebuild.growth < 1.0 {
            return Err("rebuild.growth must be >= 1.0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_config_validates() {
        let cfg = NetworkConfig::standard(1000, 128, 5000);
        assert!(cfg.validate().is_ok());
        assert!(TrainerConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_dims_rejected() {
        let mut cfg = NetworkConfig::standard(1000, 128, 5000);
        cfg.hidden_dims = vec![];
        assert!(cfg.validate().is_err());
        cfg.hidden_dims = vec![0];
        assert!(cfg.validate().is_err());
        let mut cfg = NetworkConfig::standard(0, 128, 10);
        assert!(cfg.validate().is_err());
        cfg.input_dim = 10;
        cfg.lsh.key_bits = 30;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn bf16_weights_need_arena_layout() {
        let mut cfg = NetworkConfig::standard(100, 16, 100);
        cfg.precision = Precision::Bf16Both;
        cfg.memory.coalesced_params = false;
        assert!(cfg.validate().is_err());
        cfg.memory.coalesced_params = true;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn trainer_validation_catches_bad_optimizer() {
        let mut t = TrainerConfig {
            batch_size: 0,
            ..Default::default()
        };
        assert!(t.validate().is_err());
        t = TrainerConfig {
            beta1: 1.0,
            ..Default::default()
        };
        assert!(t.validate().is_err());
        t = TrainerConfig::default();
        t.rebuild.growth = 0.5;
        assert!(t.validate().is_err());
    }

    #[test]
    fn effective_threads_resolves_zero() {
        let mut t = TrainerConfig {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(t.effective_threads(), 3);
        t.threads = 0;
        assert!(t.effective_threads() >= 1);
    }

    #[test]
    fn lr_schedules_compute_expected_rates() {
        let base = 1.0_f32;
        assert_eq!(LrSchedule::Constant.lr_at(base, 100), 1.0);

        let step = LrSchedule::StepDecay {
            every_epochs: 2,
            factor: 0.5,
        };
        assert_eq!(step.lr_at(base, 0), 1.0);
        assert_eq!(step.lr_at(base, 1), 1.0);
        assert_eq!(step.lr_at(base, 2), 0.5);
        assert_eq!(step.lr_at(base, 5), 0.25);

        let cosine = LrSchedule::Cosine {
            total_epochs: 10,
            min_factor: 0.1,
        };
        assert!((cosine.lr_at(base, 0) - 1.0).abs() < 1e-6);
        assert!((cosine.lr_at(base, 10) - 0.1).abs() < 1e-6);
        assert!(
            (cosine.lr_at(base, 20) - 0.1).abs() < 1e-6,
            "clamped past horizon"
        );
        let mid = cosine.lr_at(base, 5);
        assert!((0.5..0.6).contains(&mid), "midpoint {mid}");
    }

    #[test]
    fn lr_schedule_validation() {
        assert!(LrSchedule::Constant.validate().is_ok());
        assert!(LrSchedule::StepDecay {
            every_epochs: 0,
            factor: 0.5
        }
        .validate()
        .is_err());
        assert!(LrSchedule::StepDecay {
            every_epochs: 1,
            factor: 1.5
        }
        .validate()
        .is_err());
        assert!(LrSchedule::Cosine {
            total_epochs: 0,
            min_factor: 0.5
        }
        .validate()
        .is_err());
        assert!(LrSchedule::Cosine {
            total_epochs: 5,
            min_factor: 2.0
        }
        .validate()
        .is_err());
        let tc = TrainerConfig {
            lr_schedule: LrSchedule::StepDecay {
                every_epochs: 0,
                factor: 0.5,
            },
            ..Default::default()
        };
        assert!(tc.validate().is_err());
    }

    #[test]
    fn dwta_bin_size_must_be_power_of_two() {
        let mut cfg = NetworkConfig::standard(10, 4, 10);
        cfg.lsh.family = HashFamilyKind::Dwta { bin_size: 12 };
        assert!(cfg.validate().is_err());
    }
}
