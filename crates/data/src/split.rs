//! Dataset splitting: seeded train/validation carving. The real XC files
//! ship fixed train/test splits; downstream users still need a validation
//! holdout.

use crate::dataset::Dataset;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn copy_samples(ds: &Dataset, indices: &[u32]) -> Dataset {
    let mut out = Dataset::new(ds.feature_dim(), ds.label_dim());
    for &i in indices {
        let x = ds.features(i as usize);
        out.push(x.indices, x.values, ds.labels(i as usize));
    }
    out
}

/// Split a dataset into `(train, holdout)` with `holdout_fraction` of the
/// samples (rounded down, at least 1 when the fraction is positive and the
/// dataset non-empty) going to the holdout, shuffled under `seed`.
///
/// # Panics
///
/// Panics if `holdout_fraction` is outside `[0, 1)`.
///
/// # Examples
///
/// ```
/// use slide_data::{generate_synthetic, train_holdout_split, SynthConfig};
/// let data = generate_synthetic(&SynthConfig { n_train: 100, n_test: 10, ..Default::default() });
/// let (train, val) = train_holdout_split(&data.train, 0.2, 7);
/// assert_eq!(train.len() + val.len(), 100);
/// assert_eq!(val.len(), 20);
/// ```
pub fn train_holdout_split(ds: &Dataset, holdout_fraction: f64, seed: u64) -> (Dataset, Dataset) {
    assert!(
        (0.0..1.0).contains(&holdout_fraction),
        "train_holdout_split: holdout_fraction in [0, 1)"
    );
    let mut order: Vec<u32> = (0..ds.len() as u32).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(seed));
    let mut n_holdout = (ds.len() as f64 * holdout_fraction) as usize;
    if holdout_fraction > 0.0 && n_holdout == 0 && !ds.is_empty() {
        n_holdout = 1;
    }
    let (holdout_idx, train_idx) = order.split_at(n_holdout);
    (copy_samples(ds, train_idx), copy_samples(ds, holdout_idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let mut ds = Dataset::new(100, 10);
        for i in 0..n {
            ds.push(&[i as u32 % 100], &[i as f32], &[(i % 10) as u32]);
        }
        ds
    }

    #[test]
    fn holdout_split_partitions_exactly() {
        let ds = toy(50);
        let (train, val) = train_holdout_split(&ds, 0.3, 3);
        assert_eq!(train.len(), 35);
        assert_eq!(val.len(), 15);
        // Every sample appears exactly once across the two splits (values
        // are unique per sample in `toy`).
        let mut seen: Vec<f32> = Vec::new();
        for ds in [&train, &val] {
            for i in 0..ds.len() {
                seen.push(ds.features(i).values[0]);
            }
        }
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f32> = (0..50).map(|i| i as f32).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn holdout_split_is_seeded() {
        let ds = toy(30);
        let (a, _) = train_holdout_split(&ds, 0.5, 9);
        let (b, _) = train_holdout_split(&ds, 0.5, 9);
        let (c, _) = train_holdout_split(&ds, 0.5, 10);
        let sig = |d: &Dataset| {
            (0..d.len())
                .map(|i| d.features(i).values[0])
                .collect::<Vec<_>>()
        };
        assert_eq!(sig(&a), sig(&b));
        assert_ne!(sig(&a), sig(&c));
    }

    #[test]
    fn tiny_positive_fraction_still_holds_out_one() {
        let ds = toy(5);
        let (train, val) = train_holdout_split(&ds, 0.01, 1);
        assert_eq!(val.len(), 1);
        assert_eq!(train.len(), 4);
        let (train, val) = train_holdout_split(&ds, 0.0, 1);
        assert_eq!(val.len(), 0);
        assert_eq!(train.len(), 5);
    }
}
