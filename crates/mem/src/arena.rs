//! Per-layer parameter storage: the paper's "parameter memory fragmentation"
//! fix (§4.1, "Removing Parameter Memory Fragmentation").
//!
//! In the original SLIDE every neuron owned its own heap-allocated weight
//! vector, scattering a layer's parameters across DRAM. The optimized layout
//! reserves *one big chunk of contiguous memory* per layer so that when one
//! thread faults neuron ν's weights into cache, neighbouring neurons ride
//! along for other threads. Both layouts are implemented here for the §5.7
//! ablation:
//!
//! * [`ParamArena`] — one contiguous [`AlignedVec`] holding all rows, of
//!   f32 or, as [`ParamArenaBf16`], of bf16 bit patterns for bf16-stored
//!   weights (§4.4 mode 1),
//! * [`FragmentedParams`] — one boxed slice per neuron (the naive layout),
//! * [`ParamStore`] — runtime selector used by the layers.

use crate::aligned::{AlignedVec, Pod};

/// How a layer lays out its parameters in memory — the §5.7 ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParamLayout {
    /// One contiguous arena per layer (optimized SLIDE).
    #[default]
    Coalesced,
    /// One allocation per neuron (naive SLIDE).
    Fragmented,
}

/// A dense `rows x cols` parameter matrix in one contiguous, cache-aligned
/// allocation: f32 weights and moments (the default), or bf16 bit patterns
/// ([`ParamArenaBf16`]). Shared, it is written only through
/// [`ParamArena::row_ptr`] by a pass that owns the row.
///
/// Row `r` (a neuron's weight vector) occupies `[r*cols, (r+1)*cols)` of the
/// flat buffer, so Algorithm 1's inner products stream contiguous memory.
///
/// # Examples
///
/// ```
/// use slide_mem::ParamArena;
/// let mut arena: ParamArena = ParamArena::zeroed(4, 8);
/// arena.row_mut(2)[0] = 1.0;
/// assert_eq!(arena.row(2)[0], 1.0);
/// assert_eq!(arena.flat().len(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct ParamArena<T: Pod = f32> {
    buf: AlignedVec<T>,
    rows: usize,
    cols: usize,
}

/// A `rows x cols` matrix of bf16 bit patterns — weight storage for the
/// paper's §4.4 mode 1 ("BF16 for both activations and weights"); a zeroed
/// one holds bf16 +0.0.
pub type ParamArenaBf16 = ParamArena<u16>;

impl<T: Pod> ParamArena<T> {
    /// Allocate a zeroed `rows x cols` arena.
    pub fn zeroed(rows: usize, cols: usize) -> Self {
        ParamArena {
            buf: AlignedVec::zeroed(rows * cols),
            rows,
            cols,
        }
    }

    /// Allocate and initialize each element with `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut arena = Self::zeroed(rows, cols);
        let flat = arena.buf.as_mut_slice();
        for r in 0..rows {
            for c in 0..cols {
                flat[r * cols + c] = f(r, c);
            }
        }
        arena
    }

    /// Number of rows (neurons).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (weights per neuron).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shared read view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "ParamArena: row {r} out of {}", self.rows);
        &self.buf.as_slice()[r * self.cols..(r + 1) * self.cols]
    }

    /// Exclusive view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "ParamArena: row {r} out of {}", self.rows);
        let cols = self.cols;
        &mut self.buf.as_mut_slice()[r * cols..(r + 1) * cols]
    }

    /// The whole matrix as one flat slice (enables the paper's "2D loop to
    /// 1D loop" ADAM vectorization, Figure 3).
    pub fn flat(&self) -> &[T] {
        self.buf.as_slice()
    }

    /// Exclusive flat view.
    pub fn flat_mut(&mut self) -> &mut [T] {
        self.buf.as_mut_slice()
    }

    /// Raw pointer to row `r`'s `cols` elements, for a pass that owns the
    /// row: writing through it is sound only while no other reference to
    /// the row is live. The buffer never moves, so the pointer is stable.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_ptr(&self, r: usize) -> *mut T {
        assert!(r < self.rows, "ParamArena: row {r} out of {}", self.rows);
        // In bounds by the assert; the base pointer carries the whole
        // allocation's provenance.
        self.buf.as_ptr().cast_mut().wrapping_add(r * self.cols)
    }
}

/// The naive per-neuron layout: each row is its own boxed allocation.
///
/// Deliberately pessimal (it exists to be measured against): rows are
/// allocated individually, and interleaved spacer allocations prevent the
/// allocator from coincidentally packing rows contiguously — reproducing the
/// fragmentation of a long-lived training process.
#[derive(Debug)]
pub struct FragmentedParams {
    rows_data: Vec<Box<[f32]>>,
    row_ptrs: Vec<*mut f32>,
    cols: usize,
}

// SAFETY: row pointers target heap blocks owned by `rows_data`, which lives
// exactly as long as the struct; writes through them follow
// `FragmentedParams::row_ptr`'s one-owner contract.
unsafe impl Send for FragmentedParams {}
unsafe impl Sync for FragmentedParams {}

impl FragmentedParams {
    /// Allocate zeroed per-neuron rows.
    pub fn zeroed(rows: usize, cols: usize) -> Self {
        Self::from_fn(rows, cols, |_, _| 0.0)
    }

    /// Allocate and initialize each element with `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut rows_data = Vec::with_capacity(rows);
        let mut spacers: Vec<Box<[u8]>> = Vec::new();
        for r in 0..rows {
            let row: Box<[f32]> = (0..cols).map(|c| f(r, c)).collect();
            rows_data.push(row);
            // Spacer allocations scatter successive rows across the heap the
            // way a real fragmented process would.
            if r % 4 == 0 {
                spacers.push(vec![0u8; 96 + (r % 7) * 32].into_boxed_slice());
            }
        }
        drop(spacers);
        let row_ptrs = rows_data.iter_mut().map(|b| b.as_mut_ptr()).collect();
        FragmentedParams {
            rows_data,
            row_ptrs,
            cols,
        }
    }

    /// Number of rows (neurons).
    pub fn rows(&self) -> usize {
        self.rows_data.len()
    }

    /// Number of columns (weights per neuron).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shared read view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.rows_data[r]
    }

    /// Exclusive view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.rows_data[r]
    }

    /// Raw pointer to row `r`'s `cols` elements, under the contract of
    /// [`ParamArena::row_ptr`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_ptr(&self, r: usize) -> *mut f32 {
        self.row_ptrs[r]
    }
}

impl Clone for FragmentedParams {
    fn clone(&self) -> Self {
        let mut rows_data: Vec<Box<[f32]>> = self.rows_data.to_vec();
        let row_ptrs = rows_data.iter_mut().map(|b| b.as_mut_ptr()).collect();
        FragmentedParams {
            rows_data,
            row_ptrs,
            cols: self.cols,
        }
    }
}

/// Runtime-selected f32 parameter storage. Layers hold one of these for
/// weights and one per optimizer moment, so a single config flag flips the
/// whole network between the paper's naive and optimized memory layouts.
#[derive(Debug, Clone)]
pub enum ParamStore {
    /// Contiguous arena (optimized).
    Arena(ParamArena),
    /// Per-neuron allocations (naive).
    Fragmented(FragmentedParams),
}

impl ParamStore {
    /// Allocate zeroed storage in the requested layout.
    pub fn zeroed(layout: ParamLayout, rows: usize, cols: usize) -> Self {
        match layout {
            ParamLayout::Coalesced => ParamStore::Arena(ParamArena::zeroed(rows, cols)),
            ParamLayout::Fragmented => ParamStore::Fragmented(FragmentedParams::zeroed(rows, cols)),
        }
    }

    /// Allocate and initialize with `f(row, col)` in the requested layout.
    pub fn from_fn(
        layout: ParamLayout,
        rows: usize,
        cols: usize,
        f: impl FnMut(usize, usize) -> f32,
    ) -> Self {
        match layout {
            ParamLayout::Coalesced => ParamStore::Arena(ParamArena::from_fn(rows, cols, f)),
            ParamLayout::Fragmented => {
                ParamStore::Fragmented(FragmentedParams::from_fn(rows, cols, f))
            }
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            ParamStore::Arena(a) => a.rows(),
            ParamStore::Fragmented(f) => f.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            ParamStore::Arena(a) => a.cols(),
            ParamStore::Fragmented(f) => f.cols(),
        }
    }

    /// Which layout this store uses.
    pub fn layout(&self) -> ParamLayout {
        match self {
            ParamStore::Arena(_) => ParamLayout::Coalesced,
            ParamStore::Fragmented(_) => ParamLayout::Fragmented,
        }
    }

    /// Shared read view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        match self {
            ParamStore::Arena(a) => a.row(r),
            ParamStore::Fragmented(f) => f.row(r),
        }
    }

    /// Exclusive view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        match self {
            ParamStore::Arena(a) => a.row_mut(r),
            ParamStore::Fragmented(f) => f.row_mut(r),
        }
    }

    /// Raw pointer to row `r`'s `cols` elements, under the contract of
    /// [`ParamArena::row_ptr`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_ptr(&self, r: usize) -> *mut f32 {
        match self {
            ParamStore::Arena(a) => a.row_ptr(r),
            ParamStore::Fragmented(f) => f.row_ptr(r),
        }
    }

    /// Flat contiguous view, available only for the arena layout (used by
    /// the 1-D vectorized ADAM sweep; fragmented storage must go row by row).
    pub fn flat(&self) -> Option<&[f32]> {
        match self {
            ParamStore::Arena(a) => Some(a.flat()),
            ParamStore::Fragmented(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// The element types the arena stores: f32 weights and moments, bf16
    /// bit patterns.
    trait Element: Pod + From<u8> + PartialEq + Debug {}
    impl Element for f32 {}
    impl Element for u16 {}

    fn rows_are_contiguous<T: Element>() {
        let arena = ParamArena::<T>::from_fn(3, 4, |r, c| T::from((r * 4 + c) as u8));
        let row1: Vec<T> = (4..8).map(T::from).collect();
        assert_eq!(arena.row(1), &row1[..]);
        let flat = arena.flat();
        assert_eq!(flat.len(), 12);
        // Row i starts exactly cols elements after row i-1: contiguity.
        assert_eq!(flat[4], arena.row(1)[0]);
        assert_eq!(
            arena.row(0).as_ptr() as usize + 4 * std::mem::size_of::<T>(),
            arena.row(1).as_ptr() as usize
        );
    }

    #[test]
    fn arena_rows_are_contiguous() {
        rows_are_contiguous::<f32>();
        rows_are_contiguous::<u16>();
    }

    #[test]
    fn fragmented_rows_match_arena_values() {
        let arena = ParamArena::from_fn(5, 3, |r, c| (r + c) as f32);
        let frag = FragmentedParams::from_fn(5, 3, |r, c| (r + c) as f32);
        for r in 0..5 {
            assert_eq!(arena.row(r), frag.row(r), "row {r}");
        }
        assert_eq!(frag.rows(), 5);
        assert_eq!(frag.cols(), 3);
    }

    #[test]
    fn fragmented_rows_are_not_contiguous() {
        let frag = FragmentedParams::zeroed(8, 16);
        let mut contiguous_pairs = 0;
        for r in 1..8 {
            let prev_end = frag.row(r - 1).as_ptr() as usize + 16 * 4;
            if frag.row(r).as_ptr() as usize == prev_end {
                contiguous_pairs += 1;
            }
        }
        // The spacer allocations should break most adjacency.
        assert!(contiguous_pairs < 7, "rows unexpectedly all contiguous");
    }

    #[test]
    fn param_store_dispatches_layouts() {
        for layout in [ParamLayout::Coalesced, ParamLayout::Fragmented] {
            let mut store = ParamStore::from_fn(layout, 4, 2, |r, _| r as f32);
            assert_eq!(store.layout(), layout);
            assert_eq!(store.rows(), 4);
            assert_eq!(store.cols(), 2);
            assert_eq!(store.row(3), &[3.0, 3.0]);
            store.row_mut(3)[1] = 9.0;
            assert_eq!(store.row(3), &[3.0, 9.0]);
            // SAFETY: single-threaded; no reference to row 0 is live.
            unsafe { *store.row_ptr(0) = 5.0 };
            assert_eq!(store.row(0)[0], 5.0);
            assert_eq!(store.row_ptr(2) as *const f32, store.row(2).as_ptr());
            assert_eq!(store.flat().is_some(), layout == ParamLayout::Coalesced);
        }
    }

    #[test]
    fn fragmented_clone_rebuilds_pointers() {
        let frag = FragmentedParams::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let clone = frag.clone();
        // Values equal but storage independent.
        for r in 0..3 {
            assert_eq!(frag.row(r), clone.row(r));
            assert_ne!(frag.row(r).as_ptr(), clone.row(r).as_ptr());
        }
        // SAFETY: single-threaded; no reference to row 1 is live.
        unsafe { *clone.row_ptr(1) = 99.0 };
        assert_eq!(clone.row(1)[0], 99.0);
        assert_ne!(frag.row(1)[0], 99.0);
    }

    fn roundtrips<T: Element>() {
        let v = |x: u8| T::from(x);
        let mut arena = ParamArena::<T>::zeroed(2, 3);
        arena.row_mut(1).copy_from_slice(&[v(1), v(2), v(3)]);
        assert_eq!(arena.row(1), &[v(1), v(2), v(3)]);
        assert_eq!(arena.row(0), &[v(0), v(0), v(0)]);
        assert_eq!(arena.flat().len(), 6);
        // SAFETY: single-threaded; no reference to row 0 is live.
        unsafe { *arena.row_ptr(0) = v(7) };
        assert_eq!(arena.row(0)[0], v(7));
        assert_eq!(arena.row_ptr(1) as *const T, arena.row(1).as_ptr());
    }

    #[test]
    fn bf16_arena_roundtrips() {
        roundtrips::<u16>();
        roundtrips::<f32>();
    }

    #[test]
    fn row_ptr_writes_of_disjoint_owners_land_exactly() {
        // Each thread owns the rows `r % threads == t` and writes them
        // through `row_ptr` alone, as the trainer's row-owned pass does.
        let (rows, cols, threads) = (64, 256, 4);
        for layout in [ParamLayout::Coalesced, ParamLayout::Fragmented] {
            let store = ParamStore::zeroed(layout, rows, cols);
            std::thread::scope(|s| {
                for t in 0..threads {
                    let store = &store;
                    s.spawn(move || {
                        for r in (t..rows).step_by(threads) {
                            // SAFETY: row `r` belongs to this thread alone and
                            // nothing reads the store until the scope ends.
                            let row =
                                unsafe { std::slice::from_raw_parts_mut(store.row_ptr(r), cols) };
                            for (c, slot) in row.iter_mut().enumerate() {
                                *slot = (r * cols + c) as f32;
                            }
                        }
                    });
                }
            });
            for r in 0..rows {
                let want: Vec<f32> = (0..cols).map(|c| (r * cols + c) as f32).collect();
                assert_eq!(store.row(r), &want[..], "{layout:?} row {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn arena_row_out_of_bounds_panics() {
        ParamArena::<f32>::zeroed(2, 2).row(2);
    }
}
