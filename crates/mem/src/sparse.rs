//! Sparse-instance storage: the paper's "data memory fragmentation" fix.
//!
//! §4.1 of the paper replaces the per-instance `vector<pair<int,float>>`
//! layout (one heap allocation per data instance, scattered across DRAM) with
//! *one long contiguous vector* holding every instance's non-zero indices and
//! values back to back, plus an offsets array. When hundreds of worker
//! threads walk a batch, the first DRAM fetch pulls neighbouring instances
//! into the shared L3 for everyone else.
//!
//! Both layouts are implemented here so the §5.7 memory ablation can compare
//! them on identical workloads:
//!
//! * [`SparseBatch`] — coalesced (optimized SLIDE),
//! * [`FragmentedBatch`] — one allocation pair per instance (naive SLIDE).

/// Borrowed view of one sparse instance: parallel `indices`/`values` slices.
///
/// Indices are `u32` (the paper's datasets top out at ~1.6M features) and are
/// expected to be strictly increasing, though only [`SparseVecRef::is_sorted`]
/// enforces inspection of that invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseVecRef<'a> {
    /// Feature ids of the non-zero components.
    pub indices: &'a [u32],
    /// Matching non-zero values.
    pub values: &'a [f32],
}

impl<'a> SparseVecRef<'a> {
    /// Construct a view, checking the parallel-slice invariant.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn new(indices: &'a [u32], values: &'a [f32]) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "SparseVecRef: indices/values length mismatch"
        );
        SparseVecRef { indices, values }
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Whether the instance has no non-zeros.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterate `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + 'a {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Whether indices are strictly increasing.
    pub fn is_sorted(&self) -> bool {
        self.indices.windows(2).all(|w| w[0] < w[1])
    }
}

/// A batch of sparse instances stored *coalesced*: one contiguous index
/// array, one contiguous value array, and an offsets table (CSR layout).
///
/// This is the optimized-SLIDE data layout from §4.1 ("Removing Data Memory
/// Fragmentation").
///
/// # Examples
///
/// ```
/// use slide_mem::SparseBatch;
/// let mut batch = SparseBatch::new();
/// batch.push(&[0, 5, 9], &[1.0, 2.0, 3.0]);
/// batch.push(&[2], &[4.0]);
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.get(1).indices, &[2]);
/// assert_eq!(batch.total_nnz(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseBatch {
    indices: Vec<u32>,
    values: Vec<f32>,
    offsets: Vec<usize>,
}

impl SparseBatch {
    /// Create an empty batch.
    pub fn new() -> Self {
        SparseBatch {
            indices: Vec::new(),
            values: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Create an empty batch with room for `instances` instances totalling
    /// `nnz` non-zeros, avoiding reallocation during filling.
    pub fn with_capacity(instances: usize, nnz: usize) -> Self {
        let mut offsets = Vec::with_capacity(instances + 1);
        offsets.push(0);
        SparseBatch {
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
            offsets,
        }
    }

    /// Append one instance.
    ///
    /// # Panics
    ///
    /// Panics if `indices.len() != values.len()`.
    pub fn push(&mut self, indices: &[u32], values: &[f32]) {
        assert_eq!(
            indices.len(),
            values.len(),
            "SparseBatch::push: length mismatch"
        );
        self.indices.extend_from_slice(indices);
        self.values.extend_from_slice(values);
        self.offsets.push(self.indices.len());
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the batch holds no instances.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total non-zeros across all instances.
    pub fn total_nnz(&self) -> usize {
        self.indices.len()
    }

    /// View of instance `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> SparseVecRef<'_> {
        let (start, end) = (self.offsets[i], self.offsets[i + 1]);
        SparseVecRef {
            indices: &self.indices[start..end],
            values: &self.values[start..end],
        }
    }

    /// Iterate over all instances in order.
    pub fn iter(&self) -> impl Iterator<Item = SparseVecRef<'_>> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The raw contiguous index array (all instances back to back).
    pub fn flat_indices(&self) -> &[u32] {
        &self.indices
    }

    /// The raw contiguous value array.
    pub fn flat_values(&self) -> &[f32] {
        &self.values
    }

    /// The offsets table (`len() + 1` entries, starting at 0).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

impl<'a> FromIterator<(&'a [u32], &'a [f32])> for SparseBatch {
    fn from_iter<I: IntoIterator<Item = (&'a [u32], &'a [f32])>>(iter: I) -> Self {
        let mut batch = SparseBatch::new();
        for (idx, val) in iter {
            batch.push(idx, val);
        }
        batch
    }
}

/// The *naive* layout: every instance is its own pair of heap allocations,
/// as in the original SLIDE implementation. Exists so the §5.7 ablation can
/// measure what coalescing buys; production code should use [`SparseBatch`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FragmentedBatch {
    instances: Vec<(Vec<u32>, Vec<f32>)>,
}

impl FragmentedBatch {
    /// Create an empty fragmented batch.
    pub fn new() -> Self {
        FragmentedBatch {
            instances: Vec::new(),
        }
    }

    /// Append one instance (allocates two fresh vectors, deliberately).
    ///
    /// # Panics
    ///
    /// Panics if `indices.len() != values.len()`.
    pub fn push(&mut self, indices: &[u32], values: &[f32]) {
        assert_eq!(
            indices.len(),
            values.len(),
            "FragmentedBatch::push: length mismatch"
        );
        self.instances.push((indices.to_vec(), values.to_vec()));
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the batch holds no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Total non-zeros across all instances.
    pub fn total_nnz(&self) -> usize {
        self.instances.iter().map(|(i, _)| i.len()).sum()
    }

    /// View of instance `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> SparseVecRef<'_> {
        let (idx, val) = &self.instances[i];
        SparseVecRef {
            indices: idx,
            values: val,
        }
    }

    /// Iterate over all instances in order.
    pub fn iter(&self) -> impl Iterator<Item = SparseVecRef<'_>> {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// Batch storage selector: the memory-layout axis of the ablation matrix.
///
/// Both variants expose the same read API; the trainer is agnostic to which
/// one feeds it.
#[derive(Debug, Clone)]
pub enum BatchStore {
    /// Coalesced CSR layout (optimized SLIDE).
    Coalesced(SparseBatch),
    /// Per-instance allocations (naive SLIDE).
    Fragmented(FragmentedBatch),
}

impl BatchStore {
    /// Build from instance views using the requested layout.
    pub fn from_batch(batch: &SparseBatch, coalesced: bool) -> Self {
        if coalesced {
            BatchStore::Coalesced(batch.clone())
        } else {
            let mut frag = FragmentedBatch::new();
            for inst in batch.iter() {
                frag.push(inst.indices, inst.values);
            }
            BatchStore::Fragmented(frag)
        }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        match self {
            BatchStore::Coalesced(b) => b.len(),
            BatchStore::Fragmented(b) => b.len(),
        }
    }

    /// Whether the store holds no instances.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// View of instance `i`.
    pub fn get(&self, i: usize) -> SparseVecRef<'_> {
        match self {
            BatchStore::Coalesced(b) => b.get(i),
            BatchStore::Fragmented(b) => b.get(i),
        }
    }
}

/// A batch of label sets (indices only, no values) in the same coalesced
/// layout — SLIDE's targets are multi-hot index lists.
///
/// # Examples
///
/// ```
/// use slide_mem::IndexBatch;
/// let mut labels = IndexBatch::new();
/// labels.push(&[7, 12]);
/// labels.push(&[3]);
/// assert_eq!(labels.get(0), &[7, 12]);
/// assert_eq!(labels.get(1), &[3]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexBatch {
    indices: Vec<u32>,
    offsets: Vec<usize>,
}

impl IndexBatch {
    /// Create an empty index batch.
    pub fn new() -> Self {
        IndexBatch {
            indices: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Append one index set.
    pub fn push(&mut self, indices: &[u32]) {
        self.indices.extend_from_slice(indices);
        self.offsets.push(self.indices.len());
    }

    /// Number of sets.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the batch holds no sets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// View of set `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> &[u32] {
        &self.indices[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterate over all sets in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Total indices stored across all sets.
    pub fn total_len(&self) -> usize {
        self.indices.len()
    }
}

impl<'a> FromIterator<&'a [u32]> for IndexBatch {
    fn from_iter<I: IntoIterator<Item = &'a [u32]>>(iter: I) -> Self {
        let mut batch = IndexBatch::new();
        for set in iter {
            batch.push(set);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_roundtrips_instances() {
        let mut b = SparseBatch::new();
        b.push(&[1, 4], &[0.5, 0.7]);
        b.push(&[], &[]);
        b.push(&[9], &[1.0]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(0).indices, &[1, 4]);
        assert_eq!(b.get(1).nnz(), 0);
        assert_eq!(b.get(2).values, &[1.0]);
        assert_eq!(b.total_nnz(), 3);
        assert_eq!(b.offsets(), &[0, 2, 2, 3]);
    }

    #[test]
    fn coalesced_storage_is_contiguous() {
        let mut b = SparseBatch::new();
        b.push(&[1, 2], &[1.0, 2.0]);
        b.push(&[3], &[3.0]);
        assert_eq!(b.flat_indices(), &[1, 2, 3]);
        assert_eq!(b.flat_values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn fragmented_matches_coalesced_views() {
        let mut c = SparseBatch::new();
        let mut f = FragmentedBatch::new();
        let data: &[(&[u32], &[f32])] =
            &[(&[0, 2, 4], &[1.0, 2.0, 3.0]), (&[1], &[5.0]), (&[], &[])];
        for (i, v) in data {
            c.push(i, v);
            f.push(i, v);
        }
        assert_eq!(c.len(), f.len());
        assert_eq!(c.total_nnz(), f.total_nnz());
        for i in 0..c.len() {
            assert_eq!(c.get(i).indices, f.get(i).indices);
            assert_eq!(c.get(i).values, f.get(i).values);
        }
    }

    #[test]
    fn batch_store_dispatches_both_layouts() {
        let mut b = SparseBatch::new();
        b.push(&[5], &[2.0]);
        for coalesced in [true, false] {
            let store = BatchStore::from_batch(&b, coalesced);
            assert_eq!(store.len(), 1);
            assert_eq!(store.get(0).indices, &[5]);
            assert!(!store.is_empty());
        }
    }

    #[test]
    fn sparse_vec_is_sorted_means_strictly_increasing() {
        let x = SparseVecRef::new(&[0, 3], &[2.0, 4.0]);
        assert!(x.is_sorted());
        assert!(!SparseVecRef::new(&[3, 3], &[1.0, 1.0]).is_sorted());
    }

    #[test]
    fn from_iterator_builds_batch() {
        let idx0: &[u32] = &[1];
        let val0: &[f32] = &[1.0];
        let b: SparseBatch = vec![(idx0, val0)].into_iter().collect();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn index_batch_roundtrips() {
        let mut l = IndexBatch::new();
        l.push(&[1, 2, 3]);
        l.push(&[]);
        l.push(&[7]);
        assert_eq!(l.len(), 3);
        assert_eq!(l.get(0), &[1, 2, 3]);
        assert_eq!(l.get(1), &[] as &[u32]);
        assert_eq!(l.get(2), &[7]);
        assert_eq!(l.total_len(), 4);
        let collected: IndexBatch = [&[9u32][..]].into_iter().collect();
        assert_eq!(collected.get(0), &[9]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn push_length_mismatch_panics() {
        SparseBatch::new().push(&[1, 2], &[1.0]);
    }

    #[test]
    fn with_capacity_preserves_behaviour() {
        let mut b = SparseBatch::with_capacity(4, 16);
        b.push(&[1], &[1.0]);
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(0).values, &[1.0]);
    }
}
