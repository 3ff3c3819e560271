//! Configuration surface for the SLIDE engine: every optimization axis the
//! paper studies (AVX level, bf16 mode, memory layout, LSH parameters,
//! rebuild schedule) is a field here, so the benchmark harness can flip one
//! switch per ablation.

use slide_mem::ParamLayout;

/// Numeric precision mode — the three columns of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
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
pub struct LshConfig {
    /// Hash family.
    pub family: HashFamilyKind,
    /// Bits per table key; each table has `2^K` buckets.
    pub key_bits: u32,
    /// Number of tables `L`.
    pub tables: usize,
    /// Max neuron ids per bucket.
    pub bucket_cap: usize,
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
            min_active: 64,
            max_active: None,
            probes: 1,
        }
    }
}

/// ADAM's β₁.
pub const ADAM_BETA1: f32 = 0.9;
/// ADAM's β₂.
pub const ADAM_BETA2: f32 = 0.999;
/// ADAM's ε.
pub const ADAM_EPS: f32 = 1e-8;
/// Multiplier applied to the rebuild period after every rebuild.
pub(crate) const REBUILD_GROWTH: f32 = 1.05;
/// Ceiling for the rebuild period, in batches.
pub(crate) const REBUILD_MAX_PERIOD: u32 = 1000;

/// Hash-table rebuild schedule (§2: tables are refreshed as weights drift;
/// SLIDE grows the interval exponentially because early weights change fast
/// and late weights change slowly). The period starts at `initial_period`
/// batches and grows 5 % after every rebuild, up to 1 000 batches (the
/// crate's `REBUILD_GROWTH` and `REBUILD_MAX_PERIOD`). Every rebuild clears
/// the tables and re-inserts every neuron (parallel two-phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildSchedule {
    /// Batches before the first rebuild.
    pub initial_period: u32,
}

impl Default for RebuildSchedule {
    fn default() -> Self {
        RebuildSchedule { initial_period: 50 }
    }
}

/// Memory-layout switches — the §4.1 / §5.7 optimization axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
pub struct NetworkConfig {
    /// Sparse input dimensionality (feature space).
    pub input_dim: usize,
    /// Width of the one hidden layer (paper: 128 for the XC datasets, 200
    /// for Text8).
    pub hidden: usize,
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
            hidden,
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
    /// Returns a human-readable message if a width is zero, the LSH
    /// parameters are out of range, or an unsupported combination is chosen
    /// (bf16 weights require coalesced parameter arenas).
    pub fn validate(&self) -> Result<(), String> {
        if self.input_dim == 0 || self.output_dim == 0 {
            return Err("input_dim and output_dim must be positive".into());
        }
        if self.hidden == 0 {
            return Err("hidden must be positive".into());
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

/// Which output rows a training sample's softmax runs over: the one
/// difference between SLIDE and the paper's comparison points (full softmax
/// for TF, a uniform draw for sampled softmax). Every variant puts the
/// sample's labels first and goes through the same row-owned batch pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActiveSets {
    /// SLIDE: the rows the LSH tables retrieve, capped and padded per
    /// [`LshConfig`]; the tables are rebuilt on the [`RebuildSchedule`].
    #[default]
    Retrieval,
    /// Full softmax (the TF-CPU stand-in): the labels, then every other row
    /// in ascending order. No table is queried or rebuilt.
    All,
    /// Sampled softmax: the labels plus `negatives` distinct rows from the
    /// uniform pad stream (all rows if fewer remain). No table is queried
    /// or rebuilt.
    Uniform {
        /// Rows drawn per sample beside its labels.
        negatives: usize,
    },
}

/// Optimizer + loop parameters. ADAM's other constants are
/// [`ADAM_BETA1`], [`ADAM_BETA2`] and [`ADAM_EPS`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Mini-batch size (paper: 1024 / 256 / 512 per dataset).
    pub batch_size: usize,
    /// ADAM learning rate (paper: 1e-4).
    pub learning_rate: f32,
    /// Workers of the batch pass, the calling thread included: it runs
    /// worker 0's share of every parallel stage, and `threads − 1` threads
    /// are spawned (0 = all available cores).
    pub threads: usize,
    /// Hash-table rebuild schedule.
    pub rebuild: RebuildSchedule,
    /// Seed for epoch shuffling and active-set padding.
    pub shuffle_seed: u64,
    /// How each sample's active set is chosen.
    pub active_sets: ActiveSets,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            batch_size: 256,
            learning_rate: 1e-4,
            threads: 0,
            rebuild: RebuildSchedule::default(),
            shuffle_seed: 0x7EA1,
            active_sets: ActiveSets::Retrieval,
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
    /// Returns a message if the batch size or the first rebuild period is
    /// zero, or the learning rate is not positive and finite.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err("learning_rate must be positive and finite".into());
        }
        if self.rebuild.initial_period == 0 {
            return Err("rebuild.initial_period must be positive".into());
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
        let mut cfg = NetworkConfig::standard(0, 128, 10);
        assert!(cfg.validate().is_err());
        cfg.input_dim = 10;
        cfg.lsh.key_bits = 30;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_hidden_width_rejected() {
        let mut cfg = NetworkConfig::standard(1000, 128, 5000);
        cfg.hidden = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("hidden"), "{err}");
        cfg.hidden = 1;
        assert!(cfg.validate().is_ok());
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
        t = TrainerConfig::default();
        t.rebuild.initial_period = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn trainer_validation_refuses_a_non_finite_learning_rate() {
        for learning_rate in [f32::INFINITY, f32::NAN, f32::NEG_INFINITY] {
            let t = TrainerConfig {
                learning_rate,
                ..Default::default()
            };
            let err = t.validate().unwrap_err();
            assert!(err.contains("learning_rate"), "lr {learning_rate}: {err}");
        }
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
    fn dwta_bin_size_must_be_power_of_two() {
        let mut cfg = NetworkConfig::standard(10, 4, 10);
        cfg.lsh.family = HashFamilyKind::Dwta { bin_size: 12 };
        assert!(cfg.validate().is_err());
    }
}
