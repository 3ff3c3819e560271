//! The in-memory dataset container shared by every workload: coalesced
//! sparse features plus multi-hot label sets, in the §4.1 optimized layout.

use slide_mem::{IndexBatch, SparseBatch, SparseVecRef};

/// A supervised sparse dataset: one sparse feature vector and one label set
/// per sample, stored coalesced.
///
/// # Examples
///
/// ```
/// use slide_data::Dataset;
///
/// let mut ds = Dataset::new(100, 10);
/// ds.push(&[3, 7], &[1.0, 2.0], &[4]);
/// assert_eq!(ds.len(), 1);
/// assert_eq!(ds.features(0).indices, &[3, 7]);
/// assert_eq!(ds.labels(0), &[4]);
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    features: SparseBatch,
    labels: IndexBatch,
    feature_dim: usize,
    label_dim: usize,
}

impl Dataset {
    /// Create an empty dataset over the given feature/label spaces.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(feature_dim: usize, label_dim: usize) -> Self {
        assert!(feature_dim > 0, "Dataset: feature_dim must be positive");
        assert!(label_dim > 0, "Dataset: label_dim must be positive");
        Dataset {
            features: SparseBatch::new(),
            labels: IndexBatch::new(),
            feature_dim,
            label_dim,
        }
    }

    /// Append one sample.
    ///
    /// # Panics
    ///
    /// Panics if indices/values lengths differ, or any feature index is
    /// `>= feature_dim`, or any label is `>= label_dim`.
    pub fn push(&mut self, indices: &[u32], values: &[f32], labels: &[u32]) {
        assert!(
            indices.iter().all(|&i| (i as usize) < self.feature_dim),
            "Dataset: feature index out of range"
        );
        assert!(
            labels.iter().all(|&l| (l as usize) < self.label_dim),
            "Dataset: label out of range"
        );
        self.features.push(indices, values);
        self.labels.push(labels);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature-space dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Label-space dimensionality (number of classes).
    pub fn label_dim(&self) -> usize {
        self.label_dim
    }

    /// Sparse feature view of sample `i`.
    pub fn features(&self, i: usize) -> SparseVecRef<'_> {
        self.features.get(i)
    }

    /// Label set of sample `i`.
    pub fn labels(&self, i: usize) -> &[u32] {
        self.labels.get(i)
    }

    /// Mean non-zeros per sample.
    pub fn avg_nnz(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.features.total_nnz() as f64 / self.len() as f64
        }
    }

    /// Fraction of the feature space a sample touches on average
    /// (Table 1's "Feature Sparsity" column).
    pub fn feature_sparsity(&self) -> f64 {
        self.avg_nnz() / self.feature_dim as f64
    }

    /// Mean labels per sample.
    pub fn avg_labels(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.labels.total_len() as f64 / self.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut ds = Dataset::new(50, 5);
        ds.push(&[1, 2], &[0.1, 0.2], &[0, 3]);
        ds.push(&[49], &[1.0], &[4]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.features(1).indices, &[49]);
        assert_eq!(ds.labels(0), &[0, 3]);
        assert_eq!(ds.feature_dim(), 50);
        assert_eq!(ds.label_dim(), 5);
    }

    #[test]
    fn statistics() {
        let mut ds = Dataset::new(100, 10);
        ds.push(&[0, 1, 2, 3], &[1.0; 4], &[1]);
        ds.push(&[4, 5], &[1.0; 2], &[2, 3]);
        assert!((ds.avg_nnz() - 3.0).abs() < 1e-12);
        assert!((ds.feature_sparsity() - 0.03).abs() < 1e-12);
        assert!((ds.avg_labels() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "feature index out of range")]
    fn feature_bounds_checked() {
        Dataset::new(10, 10).push(&[10], &[1.0], &[0]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn label_bounds_checked() {
        Dataset::new(10, 10).push(&[0], &[1.0], &[10]);
    }

    #[test]
    fn empty_dataset_stats_are_zero() {
        let ds = Dataset::new(10, 10);
        assert_eq!(ds.avg_nnz(), 0.0);
        assert_eq!(ds.avg_labels(), 0.0);
        assert!(ds.is_empty());
    }
}
