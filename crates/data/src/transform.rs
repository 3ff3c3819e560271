//! Dataset transforms: the preprocessing the real XC datasets ship with.
//! Amazon-670K and WikiLSHTC features are TF-IDF weighted and L2-normalized;
//! these routines let a raw bag-of-words file be brought to the same form,
//! and let the synthetic generators be post-processed identically.

use crate::dataset::Dataset;

/// Per-feature document frequencies over a dataset.
fn document_frequencies(ds: &Dataset) -> Vec<u32> {
    let mut df = vec![0u32; ds.feature_dim()];
    for i in 0..ds.len() {
        for (idx, _) in ds.features(i).iter() {
            df[idx as usize] += 1;
        }
    }
    df
}

/// Rebuild a dataset with TF-IDF-weighted values:
/// `tfidf = tf · ln((1 + N) / (1 + df))`, the smoothed convention.
///
/// # Examples
///
/// ```
/// use slide_data::{tf_idf, Dataset};
/// let mut ds = Dataset::new(4, 2);
/// ds.push(&[0, 1], &[2.0, 1.0], &[0]);
/// ds.push(&[1], &[1.0], &[1]);
/// let weighted = tf_idf(&ds);
/// // Feature 1 appears everywhere -> low idf; feature 0 is rarer -> higher.
/// let f0 = weighted.features(0);
/// assert!(f0.values[0] > f0.values[1]);
/// ```
pub fn tf_idf(ds: &Dataset) -> Dataset {
    let df = document_frequencies(ds);
    let n = ds.len() as f32;
    let idf: Vec<f32> = df
        .iter()
        .map(|&d| ((1.0 + n) / (1.0 + d as f32)).ln())
        .collect();
    let mut out = Dataset::new(ds.feature_dim(), ds.label_dim());
    let mut values = Vec::new();
    for i in 0..ds.len() {
        let x = ds.features(i);
        values.clear();
        values.extend(x.iter().map(|(idx, v)| v * idf[idx as usize]));
        out.push(x.indices, &values, ds.labels(i));
    }
    out
}

/// Rebuild a dataset with every sample's values L2-normalized (zero-norm
/// samples are kept unchanged). Uses the vectorized norm kernel.
///
/// # Examples
///
/// ```
/// use slide_data::{l2_normalize, Dataset};
/// let mut ds = Dataset::new(4, 2);
/// ds.push(&[0, 2], &[3.0, 4.0], &[0]);
/// let normalized = l2_normalize(&ds);
/// assert_eq!(normalized.features(0).values, &[0.6, 0.8]);
/// ```
pub fn l2_normalize(ds: &Dataset) -> Dataset {
    let mut out = Dataset::new(ds.feature_dim(), ds.label_dim());
    let mut values = Vec::new();
    for i in 0..ds.len() {
        let x = ds.features(i);
        let norm = slide_simd::norm_sq_f32(x.values).sqrt();
        values.clear();
        if norm > 0.0 {
            let inv = 1.0 / norm;
            values.extend(x.values.iter().map(|v| v * inv));
        } else {
            values.extend_from_slice(x.values);
        }
        out.push(x.indices, &values, ds.labels(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut ds = Dataset::new(6, 3);
        ds.push(&[0, 1, 2], &[1.0, 2.0, 1.0], &[0]);
        ds.push(&[1, 3], &[1.0, 1.0], &[1]);
        ds.push(&[1, 4], &[3.0, 1.0], &[2]);
        ds
    }

    #[test]
    fn document_frequencies_count_presence_not_magnitude() {
        let df = document_frequencies(&toy());
        assert_eq!(df, vec![1, 3, 1, 1, 1, 0]);
    }

    #[test]
    fn tf_idf_downweights_ubiquitous_features() {
        let weighted = tf_idf(&toy());
        // Feature 1 (in every doc) gets idf ln(4/4) = 0 -> value 0.
        let x0 = weighted.features(0);
        let pos1 = x0.indices.iter().position(|&i| i == 1).unwrap();
        assert!(x0.values[pos1].abs() < 1e-6);
        // Rare features keep positive weight.
        let pos0 = x0.indices.iter().position(|&i| i == 0).unwrap();
        assert!(x0.values[pos0] > 0.3);
        // Structure untouched.
        assert_eq!(weighted.len(), 3);
        assert_eq!(weighted.features(1).indices, toy().features(1).indices);
        assert_eq!(weighted.labels(2), toy().labels(2));
    }

    #[test]
    fn l2_normalize_yields_unit_norms() {
        let normalized = l2_normalize(&toy());
        for i in 0..normalized.len() {
            let n = slide_simd::norm_sq_f32(normalized.features(i).values).sqrt();
            assert!((n - 1.0).abs() < 1e-5, "sample {i}: {n}");
        }
    }

    #[test]
    fn l2_normalize_keeps_zero_and_empty_samples() {
        let mut ds = Dataset::new(4, 2);
        ds.push(&[], &[], &[0]);
        ds.push(&[1], &[0.0], &[1]);
        let normalized = l2_normalize(&ds);
        assert_eq!(normalized.features(0).nnz(), 0);
        assert_eq!(normalized.features(1).values, &[0.0]);
    }

    #[test]
    fn pipeline_tfidf_then_normalize() {
        let out = l2_normalize(&tf_idf(&toy()));
        assert_eq!(out.len(), 3);
        let n = slide_simd::norm_sq_f32(out.features(0).values).sqrt();
        assert!((n - 1.0).abs() < 1e-5);
    }
}
