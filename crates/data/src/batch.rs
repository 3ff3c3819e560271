//! Shuffled mini-batch iteration over a [`Dataset`].
//!
//! SLIDE processes a batch of instances in parallel (workers take the
//! instances in chunks); the batcher hands the trainer per-epoch shuffled index chunks
//! so data order differs across epochs but is reproducible under a seed.

use crate::dataset::Dataset;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A deterministic shuffled-batch plan for one epoch.
///
/// # Examples
///
/// ```
/// use slide_data::{Dataset, EpochBatches};
///
/// let mut ds = Dataset::new(10, 4);
/// for i in 0..10 {
///     ds.push(&[i as u32 % 10], &[1.0], &[i as u32 % 4]);
/// }
/// let plan = EpochBatches::new(ds.len(), 4, /*epoch=*/0, /*seed=*/7);
/// let batches: Vec<_> = plan.iter().collect();
/// assert_eq!(batches.len(), 3); // 4 + 4 + 2
/// assert_eq!(batches[0].len(), 4);
/// assert_eq!(batches[2].len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct EpochBatches {
    order: Vec<u32>,
    batch_size: usize,
}

impl EpochBatches {
    /// Shuffle `n` sample indices for `epoch` under `seed` and split into
    /// `batch_size` chunks (final chunk may be short).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(n: usize, batch_size: usize, epoch: u64, seed: u64) -> Self {
        assert!(batch_size > 0, "EpochBatches: batch_size must be positive");
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = SmallRng::seed_from_u64(seed ^ epoch.wrapping_mul(0x9E37_79B9));
        order.shuffle(&mut rng);
        EpochBatches { order, batch_size }
    }

    /// Number of batches in the epoch.
    pub fn num_batches(&self) -> usize {
        self.order.len().div_ceil(self.batch_size)
    }

    /// Iterate over the batches as slices of sample indices.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.order.chunks(self.batch_size)
    }

    /// The full shuffled order.
    pub fn order(&self) -> &[u32] {
        &self.order
    }
}

/// Materialize the samples of one batch into fresh coalesced buffers.
/// Useful for harnesses that want an owned batch; the trainer itself reads
/// straight from the dataset through the index slice.
pub fn materialize_batch(
    ds: &Dataset,
    batch: &[u32],
) -> (slide_mem::SparseBatch, slide_mem::IndexBatch) {
    let mut feats = slide_mem::SparseBatch::with_capacity(batch.len(), batch.len() * 8);
    let mut labels = slide_mem::IndexBatch::new();
    for &i in batch {
        let x = ds.features(i as usize);
        feats.push(x.indices, x.values);
        labels.push(ds.labels(i as usize));
    }
    (feats, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize) -> Dataset {
        let mut ds = Dataset::new(100, 10);
        for i in 0..n {
            ds.push(&[(i % 100) as u32], &[1.0], &[(i % 10) as u32]);
        }
        ds
    }

    #[test]
    fn covers_every_sample_exactly_once() {
        let plan = EpochBatches::new(103, 16, 3, 9);
        let mut seen = [false; 103];
        for batch in plan.iter() {
            for &i in batch {
                assert!(!seen[i as usize], "duplicate {i}");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(plan.num_batches(), 7);
    }

    #[test]
    fn epochs_shuffle_differently_but_reproducibly() {
        let a = EpochBatches::new(50, 8, 0, 7);
        let b = EpochBatches::new(50, 8, 1, 7);
        let a2 = EpochBatches::new(50, 8, 0, 7);
        assert_eq!(a.order(), a2.order());
        assert_ne!(a.order(), b.order());
    }

    #[test]
    fn materialize_copies_samples() {
        let ds = dataset(20);
        let plan = EpochBatches::new(20, 5, 0, 1);
        let first: Vec<u32> = plan.iter().next().unwrap().to_vec();
        let (feats, labels) = materialize_batch(&ds, &first);
        assert_eq!(feats.len(), 5);
        assert_eq!(labels.len(), 5);
        for (j, &i) in first.iter().enumerate() {
            assert_eq!(feats.get(j).indices, ds.features(i as usize).indices);
            assert_eq!(labels.get(j), ds.labels(i as usize));
        }
    }

    #[test]
    fn empty_dataset_yields_no_batches() {
        let plan = EpochBatches::new(0, 4, 0, 0);
        assert_eq!(plan.num_batches(), 0);
        assert_eq!(plan.iter().count(), 0);
    }
}
