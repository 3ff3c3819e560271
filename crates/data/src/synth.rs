//! Synthetic extreme-classification workloads — the stand-in for
//! Amazon-670K and WikiLSHTC-325K (see DESIGN.md, substitution table).
//!
//! The generator plants one sparse *prototype* feature pattern per label and
//! emits samples whose features are noisy subsets of their labels'
//! prototypes. This preserves the properties SLIDE's speedup and accuracy
//! depend on:
//!
//! * huge, Zipf-skewed label space (a few head labels, a long tail),
//! * extremely sparse features over a large feature space,
//! * multi-label targets,
//! * a learnable feature→label mapping, so P@1 climbs as in Figure 6.

use crate::dataset::Dataset;
use crate::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use slide_hash::mix::{mix3, reduce};

/// Configuration for the planted-prototype extreme-classification generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthConfig {
    /// Feature-space dimensionality (Amazon-670K: 135,909).
    pub feature_dim: usize,
    /// Label-space dimensionality (Amazon-670K: 670,091).
    pub label_dim: usize,
    /// Training samples to generate.
    pub n_train: usize,
    /// Test samples to generate.
    pub n_test: usize,
    /// Non-zero features in each label's planted prototype.
    pub proto_nnz: usize,
    /// Fraction of a prototype's features each sample keeps.
    pub keep_fraction: f64,
    /// Random extra non-zeros per sample (noise).
    pub noise_nnz: usize,
    /// Labels per sample (multi-label targets).
    pub labels_per_sample: usize,
    /// Zipf exponent of the label frequency distribution.
    pub zipf_exponent: f64,
    /// Master seed; the same seed regenerates identical train/test sets.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            feature_dim: 4096,
            label_dim: 8192,
            n_train: 10_000,
            n_test: 2_000,
            proto_nnz: 24,
            keep_fraction: 0.7,
            noise_nnz: 6,
            labels_per_sample: 3,
            zipf_exponent: 0.7,
            seed: 0xA33A_2070,
        }
    }
}

impl SynthConfig {
    /// A scaled-down Amazon-670K-shaped recommendation workload
    /// (multi-hot in, multi-hot out; dense-ish features, huge label space).
    pub fn amazon_670k_scaled(scale: usize) -> Self {
        let scale = scale.max(1);
        SynthConfig {
            feature_dim: 2048 * scale,
            label_dim: 8192 * scale,
            n_train: 6_000 * scale,
            n_test: 1_200 * scale,
            proto_nnz: 28,
            keep_fraction: 0.7,
            noise_nnz: 8,
            labels_per_sample: 3,
            zipf_exponent: 0.7,
            seed: 670,
        }
    }

    /// A scaled-down WikiLSHTC-325K-shaped workload: sparser features over a
    /// wider feature space, more training data relative to the label count.
    pub fn wiki_lsh_325k_scaled(scale: usize) -> Self {
        let scale = scale.max(1);
        SynthConfig {
            feature_dim: 16_384 * scale,
            label_dim: 4096 * scale,
            n_train: 12_000 * scale,
            n_test: 2_400 * scale,
            proto_nnz: 12,
            keep_fraction: 0.8,
            noise_nnz: 2,
            labels_per_sample: 2,
            zipf_exponent: 0.8,
            seed: 325,
        }
    }
}

/// A generated train/test pair drawn from the same planted prototypes.
#[derive(Debug, Clone)]
pub struct SynthDataset {
    /// Training split.
    pub train: Dataset,
    /// Test split (same label prototypes, fresh noise).
    pub test: Dataset,
    /// The configuration that produced it.
    pub config: SynthConfig,
}

/// Generate a synthetic extreme-classification dataset.
///
/// Deterministic: the same config always yields the same bytes.
///
/// # Examples
///
/// ```
/// use slide_data::{generate_synthetic, SynthConfig};
///
/// let cfg = SynthConfig { n_train: 100, n_test: 20, label_dim: 64, feature_dim: 256, ..Default::default() };
/// let ds = generate_synthetic(&cfg);
/// assert_eq!(ds.train.len(), 100);
/// assert_eq!(ds.test.len(), 20);
/// assert!(ds.train.avg_nnz() > 1.0);
/// ```
pub fn generate_synthetic(config: &SynthConfig) -> SynthDataset {
    assert!(
        config.proto_nnz > 0,
        "SynthConfig: proto_nnz must be positive"
    );
    assert!(
        (0.0..=1.0).contains(&config.keep_fraction),
        "SynthConfig: keep_fraction in [0,1]"
    );
    assert!(
        config.labels_per_sample > 0,
        "SynthConfig: labels_per_sample must be positive"
    );
    let zipf = Zipf::new(config.label_dim, config.zipf_exponent);
    let train = generate_split(config, &zipf, config.n_train, 0x7121);
    let test = generate_split(config, &zipf, config.n_test, 0x7e57);
    SynthDataset {
        train,
        test,
        config: *config,
    }
}

fn generate_split(config: &SynthConfig, zipf: &Zipf, n: usize, salt: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ salt);
    let mut ds = Dataset::new(config.feature_dim, config.label_dim);
    let mut idx_buf: Vec<u32> = Vec::new();
    let mut label_buf: Vec<u32> = Vec::new();
    for _ in 0..n {
        label_buf.clear();
        for _ in 0..config.labels_per_sample {
            let l = zipf.sample(&mut rng) as u32;
            if !label_buf.contains(&l) {
                label_buf.push(l);
            }
        }
        label_buf.sort_unstable();

        idx_buf.clear();
        for &label in &label_buf {
            for j in 0..config.proto_nnz {
                if rng.gen_bool(config.keep_fraction) {
                    idx_buf.push(prototype_feature(config, label, j as u32));
                }
            }
        }
        for _ in 0..config.noise_nnz {
            idx_buf.push(rng.gen_range(0..config.feature_dim as u32));
        }
        idx_buf.sort_unstable();
        idx_buf.dedup();
        let values: Vec<f32> = idx_buf.iter().map(|_| 0.5 + rng.gen::<f32>()).collect();
        ds.push(&idx_buf, &values, &label_buf);
    }
    ds
}

/// The `j`-th prototype feature of `label` (deterministic in the config
/// seed, shared by train and test).
fn prototype_feature(config: &SynthConfig, label: u32, j: u32) -> u32 {
    reduce(
        mix3(config.seed ^ 0x9E0F, label as u64, j as u64),
        config.feature_dim,
    ) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SynthConfig {
        SynthConfig {
            feature_dim: 512,
            label_dim: 128,
            n_train: 400,
            n_test: 100,
            proto_nnz: 16,
            keep_fraction: 0.75,
            noise_nnz: 4,
            labels_per_sample: 2,
            zipf_exponent: 0.6,
            seed: 42,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_config();
        let a = generate_synthetic(&cfg);
        let b = generate_synthetic(&cfg);
        assert_eq!(a.train.len(), b.train.len());
        for i in 0..a.train.len() {
            assert_eq!(a.train.features(i).indices, b.train.features(i).indices);
            assert_eq!(a.train.features(i).values, b.train.features(i).values);
            assert_eq!(a.train.labels(i), b.train.labels(i));
        }
    }

    #[test]
    fn dims_and_counts_match_config() {
        let cfg = small_config();
        let ds = generate_synthetic(&cfg);
        assert_eq!(ds.train.len(), 400);
        assert_eq!(ds.test.len(), 100);
        assert_eq!(ds.train.feature_dim(), 512);
        assert_eq!(ds.train.label_dim(), 128);
        // Every sample has at least one label and some features.
        for i in 0..ds.train.len() {
            assert!(!ds.train.labels(i).is_empty());
            assert!(ds.train.features(i).nnz() > 0);
            assert!(ds.train.features(i).is_sorted());
        }
    }

    #[test]
    fn labels_are_zipf_skewed() {
        let cfg = SynthConfig {
            zipf_exponent: 1.1,
            n_train: 4000,
            ..small_config()
        };
        let ds = generate_synthetic(&cfg);
        let mut counts = vec![0usize; cfg.label_dim];
        for i in 0..ds.train.len() {
            for &l in ds.train.labels(i) {
                counts[l as usize] += 1;
            }
        }
        let head: usize = counts[..8].iter().sum();
        let tail: usize = counts[64..72].iter().sum();
        assert!(head > tail * 3, "head {head} vs tail {tail}");
    }

    #[test]
    fn samples_share_prototype_features_with_same_label() {
        // Two samples with the same label should overlap in features far
        // more than two samples with different labels — that's the planted
        // signal the network learns.
        let cfg = small_config();
        let ds = generate_synthetic(&cfg);
        // BTreeMap: iteration order must be deterministic so the test always
        // examines the same label (HashMap order varies per process).
        let mut by_label: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
        for i in 0..ds.train.len() {
            for &l in ds.train.labels(i) {
                by_label.entry(l).or_default().push(i);
            }
        }
        let overlap = |a: usize, b: usize| {
            let fa: std::collections::HashSet<u32> =
                ds.train.features(a).indices.iter().copied().collect();
            ds.train
                .features(b)
                .indices
                .iter()
                .filter(|i| fa.contains(i))
                .count()
        };
        // The planted signal is statistical (noise can swamp any one pair),
        // so compare aggregate overlap across every label with >= 2 samples.
        let mut same_total = 0usize;
        let mut diff_total = 0usize;
        let mut pairs = 0usize;
        for (label, samples) in by_label.iter().filter(|(_, v)| v.len() >= 2) {
            let other = (0..ds.train.len())
                .find(|&i| !ds.train.labels(i).contains(label))
                .unwrap();
            same_total += overlap(samples[0], samples[1]);
            diff_total += overlap(samples[0], other);
            pairs += 1;
        }
        assert!(pairs >= 10, "expected many repeated labels, got {pairs}");
        assert!(
            same_total > 2 * diff_total,
            "same-label overlap {same_total} should dominate cross-label {diff_total} over {pairs} pairs"
        );
    }

    #[test]
    fn scaled_presets_shapes() {
        let amazon = SynthConfig::amazon_670k_scaled(1);
        assert!(amazon.label_dim > amazon.feature_dim);
        let wiki = SynthConfig::wiki_lsh_325k_scaled(1);
        assert!(wiki.feature_dim > wiki.label_dim);
        // Wiki stand-in is sparser relative to its feature space.
        assert!(wiki.proto_nnz < amazon.proto_nnz);
    }
}
