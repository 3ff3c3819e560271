//! Per-worker scratch state: every allocation a pool worker needs is made
//! once and reused across batches, so the steady-state training loop is
//! allocation-free (a §4.1 requirement — allocator churn would re-fragment
//! the memory the batch/arena layouts just coalesced).

use crate::retrieval::SelectBuffers;
use slide_data::MeanMetric;
use slide_hash::LshScratch;
use slide_simd::{KernelSet, RowGather};
use std::marker::PhantomData;

/// O(1)-reset membership filter over `0..n` using generation stamps.
///
/// # Examples
///
/// ```
/// use slide_core::StampSet;
/// let mut set = StampSet::new(10);
/// set.begin();
/// assert!(set.insert(3));
/// assert!(!set.insert(3));
/// set.begin(); // new generation: everything forgotten in O(1)
/// assert!(set.insert(3));
/// ```
#[derive(Debug, Clone)]
pub struct StampSet {
    stamp: Vec<u32>,
    gen: u32,
}

impl StampSet {
    /// Create a filter over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        StampSet {
            stamp: vec![0; n],
            gen: 0,
        }
    }

    /// Start a new (empty) generation.
    pub fn begin(&mut self) {
        if self.gen == u32::MAX {
            self.stamp.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    /// Insert `id`; returns `true` if it was not yet present this generation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let slot = &mut self.stamp[id as usize];
        if *slot == self.gen {
            false
        } else {
            *slot = self.gen;
            true
        }
    }

    /// Whether `id` is present this generation.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.stamp[id as usize] == self.gen
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.stamp.len()
    }
}

/// All mutable state one worker thread owns during training/evaluation.
#[derive(Debug)]
pub struct WorkerScratch {
    /// The hidden activation, as the one entry of a per-layer list.
    pub acts: Vec<Vec<f32>>,
    /// Gradient of the hidden activation.
    pub grad: Vec<f32>,
    /// LSH scratch for the output layer's family.
    pub lsh: LshScratch,
    /// Table keys buffer (`L` entries).
    pub keys: Vec<u32>,
    /// Raw candidates from table queries (with duplicates).
    pub candidates: Vec<u32>,
    /// Deduplicated active set for the current sample.
    pub active: Vec<u32>,
    /// Active-set dedup filter over output neurons.
    pub dedup: StampSet,
    /// Logits over the active set.
    pub logits: Vec<f32>,
    /// Softmax probabilities over the active set.
    pub probs: Vec<f32>,
    /// Per-worker metric accumulator for evaluation.
    pub metric: MeanMetric,
    /// Scratch for widening bf16 rows during table rebuilds.
    pub widen: Vec<f32>,
    /// Row-gather pointer lists for the multi-row fused kernels.
    pub gather: RowGather,
    /// The kernel dispatch table this worker calls through. Resolved at
    /// construction and refreshed by the trainer once per batch (and per
    /// evaluation pass), so the per-active-row policy load is gone from the
    /// hot loops while policy changes still take effect at batch boundaries.
    pub kernels: KernelSet,
}

impl WorkerScratch {
    /// Allocate scratch for a network with the given hidden width, output
    /// size, and LSH family.
    pub fn new(hidden: usize, output_dim: usize, family: &slide_hash::LshFamily) -> Self {
        WorkerScratch {
            acts: vec![vec![0.0; hidden]],
            grad: vec![0.0; hidden],
            lsh: family.make_scratch(),
            keys: vec![0; family.tables()],
            candidates: Vec::with_capacity(1024),
            active: Vec::with_capacity(1024),
            dedup: StampSet::new(output_dim),
            logits: Vec::with_capacity(1024),
            probs: Vec::with_capacity(1024),
            metric: MeanMetric::new(),
            widen: vec![0.0; hidden],
            gather: RowGather::default(),
            kernels: KernelSet::resolve(),
        }
    }

    /// Lend the active-set buffers to [`crate::Retrieval::select`].
    pub(crate) fn select_buffers(&mut self) -> SelectBuffers<'_> {
        SelectBuffers {
            lsh: &mut self.lsh,
            keys: &mut self.keys,
            candidates: &mut self.candidates,
            dedup: &mut self.dedup,
            active: &mut self.active,
        }
    }
}

/// A slice whose elements, or disjoint ranges of them, pool workers take
/// one owner at a time: per-worker scratch by worker id, per-sample state by
/// sample index, per-pair scores by pair index. It is the `Send + Sync` view
/// every parallel stage that writes shared-by-index state goes through; the
/// borrow it is made from keeps the slice alive and unaliased for `'a`.
pub(crate) struct Disjoint<'a, T> {
    base: *mut T,
    len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: the view only hands out `&mut T` under `get`/`range`'s one-owner
// contract, which is what sending `&mut T` to another thread requires.
unsafe impl<T: Send> Send for Disjoint<'_, T> {}
unsafe impl<T: Send> Sync for Disjoint<'_, T> {}

impl<'a, T> Disjoint<'a, T> {
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        Disjoint {
            base: slice.as_mut_ptr(),
            len: slice.len(),
            _borrow: PhantomData,
        }
    }

    /// Exclusive access to element `i`.
    ///
    /// # Safety
    ///
    /// No other reference to element `i` may be live while the returned one
    /// is (for example: the pool hands every worker a distinct id, or a
    /// shared cursor hands every index to one worker).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get(&self, i: usize) -> &'a mut T {
        assert!(i < self.len, "Disjoint: index {i} out of {}", self.len);
        // SAFETY: in bounds; exclusivity is the caller's contract.
        unsafe { &mut *self.base.add(i) }
    }

    /// Exclusive access to `start..start + len`.
    ///
    /// # Safety
    ///
    /// As [`Disjoint::get`], for every element of the range.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn range(&self, start: usize, len: usize) -> &'a mut [T] {
        assert!(
            start + len <= self.len,
            "Disjoint: range {start}..{} out of {}",
            start + len,
            self.len
        );
        // SAFETY: in bounds; exclusivity is the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(start), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slide_hash::{DwtaConfig, LshFamily};

    #[test]
    fn stamp_set_semantics() {
        let mut s = StampSet::new(5);
        s.begin();
        assert!(s.insert(0));
        assert!(s.contains(0));
        assert!(!s.contains(1));
        assert!(!s.insert(0));
        s.begin();
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert_eq!(s.universe(), 5);
    }

    #[test]
    fn stamp_set_generation_wrap_resets() {
        let mut s = StampSet::new(3);
        s.gen = u32::MAX - 1;
        s.begin(); // gen == MAX
        assert!(s.insert(1));
        s.begin(); // wrap path
        assert!(!s.contains(1));
        assert!(s.insert(1));
    }

    #[test]
    fn scratch_sizes_follow_network_shape() {
        let family = LshFamily::dwta(DwtaConfig {
            dim: 16,
            key_bits: 5,
            tables: 7,
            bin_size: 8,
            seed: 1,
        });
        let s = WorkerScratch::new(16, 1000, &family);
        assert_eq!(s.acts.len(), 1);
        assert_eq!(s.acts[0].len(), 16);
        assert_eq!(s.grad.len(), 16);
        assert_eq!(s.keys.len(), 7);
        assert_eq!(s.dedup.universe(), 1000);
        assert_eq!(s.widen.len(), 16);
    }
}
