//! Dataset statistics — the rows of the paper's Table 1.

use crate::dataset::Dataset;

/// The Table 1 row for one workload: dimensions, sparsity, split sizes, and
/// the parameter count of the paper's standard architecture on it.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Workload name (e.g. "Amazon-670K (sim)").
    pub name: String,
    /// Feature-space dimensionality.
    pub feature_dim: usize,
    /// Mean fraction of features active per sample (as a percentage, like
    /// Table 1's "Feature Sparsity" column).
    pub feature_sparsity_pct: f64,
    /// Label-space dimensionality.
    pub label_dim: usize,
    /// Training samples.
    pub train_size: usize,
    /// Test samples.
    pub test_size: usize,
    /// Parameters of the `feature_dim -> hidden -> label_dim` network
    /// (weights + biases), Table 1's "# Model Parameters".
    pub model_parameters: u64,
}

impl DatasetStats {
    /// Compute the row for a train/test pair and a hidden width.
    pub fn compute(name: &str, train: &Dataset, test: &Dataset, hidden_dim: usize) -> Self {
        DatasetStats {
            name: name.to_string(),
            feature_dim: train.feature_dim(),
            feature_sparsity_pct: train.feature_sparsity() * 100.0,
            label_dim: train.label_dim(),
            train_size: train.len(),
            test_size: test.len(),
            model_parameters: model_parameters(train.feature_dim(), hidden_dim, train.label_dim()),
        }
    }
}

/// Parameter count of the standard SLIDE architecture
/// `input -> hidden (ReLU) -> output (softmax)`, counting weights and biases.
pub fn model_parameters(feature_dim: usize, hidden_dim: usize, label_dim: usize) -> u64 {
    let ih = feature_dim as u64 * hidden_dim as u64 + hidden_dim as u64;
    let ho = hidden_dim as u64 * label_dim as u64 + label_dim as u64;
    ih + ho
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_parameter_counts() {
        // Table 1 sanity: Amazon-670K with hidden 128 is ~103M parameters.
        let amazon = model_parameters(135_909, 128, 670_091);
        assert!((100_000_000..110_000_000).contains(&amazon), "{amazon}");
        // WikiLSH-325K ~249M.
        let wiki = model_parameters(1_617_899, 128, 325_056);
        assert!((240_000_000..255_000_000).contains(&wiki), "{wiki}");
        // Text8 with hidden 200 ~101M.
        let text8 = model_parameters(253_855, 200, 253_855);
        assert!((100_000_000..105_000_000).contains(&text8), "{text8}");
    }

    #[test]
    fn compute_reads_dataset() {
        let mut train = Dataset::new(1000, 50);
        train.push(&[1, 2, 3, 4, 5], &[1.0; 5], &[0]);
        train.push(&[1, 2, 3, 4, 5], &[1.0; 5], &[1]);
        let mut test = Dataset::new(1000, 50);
        test.push(&[0], &[1.0], &[2]);
        let stats = DatasetStats::compute("toy", &train, &test, 16);
        assert_eq!(stats.train_size, 2);
        assert_eq!(stats.test_size, 1);
        assert!((stats.feature_sparsity_pct - 0.5).abs() < 1e-9);
        assert_eq!(stats.model_parameters, 1000 * 16 + 16 + 16 * 50 + 50);
    }
}
