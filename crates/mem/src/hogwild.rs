//! Shared-mutable parameter buffers for HOGWILD-style training.
//!
//! SLIDE's batch parallelism (§2 "HOGWILD Style Parallelism", §4.1.1) has
//! every thread read and write the *same* weight arrays without locks; the
//! extreme sparsity of active sets makes write collisions rare and benign
//! (Recht et al., 2011). [`HogwildArray`] owns a cache-line-aligned buffer
//! and hands out [`HogwildPtr`]s — `Copy + Send` raw views that worker
//! threads use to slice rows in place.
//!
//! # Safety model
//!
//! The buffer never moves or reallocates after construction, so the base
//! pointer is stable. All concurrent access goes through `unsafe` methods on
//! [`HogwildPtr`] whose contract is the HOGWILD contract: overlapping
//! concurrent writes are *races by design*; they may lose updates but touch
//! only `f32`/`u16` lanes that are individually valid for any bit pattern.
//! Single-threaded use (all tests, deterministic mode) never aliases and is
//! fully sound. This mirrors the paper's C++ implementation, which relies on
//! the identical benign-race argument.
//!
//! Only the per-sample oracle (`slide_core::Network::train_sample`) and the
//! baselines in `slide-baseline` still write through these views
//! concurrently. `slide_core::Trainer` gives every row a batch touches to one
//! worker, which writes it through a raw row pointer and no other thread
//! reaches it meanwhile.

use crate::aligned::{AlignedVec, Pod};

/// An owned, fixed-size, 64-byte-aligned buffer that can be shared across
/// HOGWILD worker threads through [`HogwildPtr`] views.
///
/// # Examples
///
/// ```
/// use slide_mem::HogwildArray;
/// let weights = HogwildArray::<f32>::zeroed(1024);
/// let ptr = weights.ptr();
/// // Worker threads copy `ptr` and slice rows in place:
/// unsafe { ptr.row_mut(3, 128)[0] = 1.0; }
/// assert_eq!(weights.as_slice()[3 * 128], 1.0);
/// ```
#[derive(Debug)]
pub struct HogwildArray<T: Pod> {
    buf: AlignedVec<T>,
    base: *mut T,
}

// SAFETY: the raw base pointer is only dereferenced through the documented
// unsafe API; the underlying storage is Send + Sync plain-old-data.
unsafe impl<T: Pod> Send for HogwildArray<T> {}
unsafe impl<T: Pod> Sync for HogwildArray<T> {}

impl<T: Pod> HogwildArray<T> {
    /// Allocate a zero-initialized shared buffer.
    pub fn zeroed(len: usize) -> Self {
        Self::from_vec(AlignedVec::zeroed(len))
    }

    /// Take ownership of an existing aligned buffer.
    pub fn from_vec(mut buf: AlignedVec<T>) -> Self {
        let base = buf.as_mut_ptr();
        HogwildArray { buf, base }
    }

    /// Copy from a slice.
    pub fn from_slice(src: &[T]) -> Self {
        Self::from_vec(AlignedVec::from_slice(src))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Shared read view. Reads that race with HOGWILD writes may observe
    /// half-updated values, which the algorithm tolerates.
    pub fn as_slice(&self) -> &[T] {
        self.buf.as_slice()
    }

    /// Exclusive view (no concurrent workers exist while `&mut self` is
    /// held, so this is ordinary safe Rust).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.buf.as_mut_slice()
    }

    /// A copyable raw view for worker threads.
    pub fn ptr(&self) -> HogwildPtr<T> {
        HogwildPtr {
            base: self.base,
            len: self.buf.len(),
        }
    }
}

impl<T: Pod> Clone for HogwildArray<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

/// A copyable raw view into a [`HogwildArray`], the unit of sharing between
/// HOGWILD workers.
#[derive(Debug, Clone, Copy)]
pub struct HogwildPtr<T: Pod> {
    base: *mut T,
    len: usize,
}

// SAFETY: see module docs — the pointer is only used under the HOGWILD
// benign-race contract.
unsafe impl<T: Pod> Send for HogwildPtr<T> {}
unsafe impl<T: Pod> Sync for HogwildPtr<T> {}

impl<T: Pod> HogwildPtr<T> {
    /// Total elements in the underlying buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw pointer to the `cols` elements starting at `row * cols`. Making
    /// it is safe; what may be done through it is the caller's contract (for
    /// example, exclusive ownership of the row for a pass).
    ///
    /// # Panics
    ///
    /// Panics if the row extends past the buffer.
    #[inline]
    pub fn row_ptr(self, row: usize, cols: usize) -> *mut T {
        assert!(
            row.checked_add(1)
                .and_then(|rows| rows.checked_mul(cols))
                .is_some_and(|end| end <= self.len),
            "HogwildPtr: row {row} x {cols} out of bounds (len {})",
            self.len
        );
        // SAFETY: in bounds of the allocation, checked above without
        // overflow.
        unsafe { self.base.add(row * cols) }
    }

    /// Mutable view of `cols` elements starting at `row * cols`.
    ///
    /// # Safety
    ///
    /// The underlying [`HogwildArray`] must outlive the returned slice, and
    /// concurrent overlapping access must follow the HOGWILD benign-race
    /// contract described in the module docs.
    ///
    /// # Panics
    ///
    /// Panics if the row extends past the buffer.
    #[inline]
    pub unsafe fn row_mut<'a>(self, row: usize, cols: usize) -> &'a mut [T] {
        self.slice_mut(row * cols, cols)
    }

    /// Immutable view of `cols` elements starting at `row * cols`.
    ///
    /// # Safety
    ///
    /// As [`HogwildPtr::row_mut`].
    #[inline]
    pub unsafe fn row<'a>(self, row: usize, cols: usize) -> &'a [T] {
        self.slice(row * cols, cols)
    }

    /// Mutable subslice `[start, start + len)`.
    ///
    /// # Safety
    ///
    /// As [`HogwildPtr::row_mut`].
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the buffer.
    #[inline]
    pub unsafe fn slice_mut<'a>(self, start: usize, len: usize) -> &'a mut [T] {
        assert!(
            start + len <= self.len,
            "HogwildPtr: slice {}..{} out of bounds (len {})",
            start,
            start + len,
            self.len
        );
        std::slice::from_raw_parts_mut(self.base.add(start), len)
    }

    /// Immutable subslice `[start, start + len)`.
    ///
    /// # Safety
    ///
    /// As [`HogwildPtr::row_mut`].
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the buffer.
    #[inline]
    pub unsafe fn slice<'a>(self, start: usize, len: usize) -> &'a [T] {
        assert!(
            start + len <= self.len,
            "HogwildPtr: slice {}..{} out of bounds (len {})",
            start,
            start + len,
            self.len
        );
        std::slice::from_raw_parts(self.base.add(start), len)
    }

    /// Read element `i`.
    ///
    /// # Safety
    ///
    /// As [`HogwildPtr::row_mut`].
    #[inline]
    pub unsafe fn get(self, i: usize) -> T {
        debug_assert!(i < self.len);
        *self.base.add(i)
    }

    /// Write element `i`.
    ///
    /// # Safety
    ///
    /// As [`HogwildPtr::row_mut`].
    #[inline]
    pub unsafe fn set(self, i: usize, value: T) {
        debug_assert!(i < self.len);
        *self.base.add(i) = value;
    }
}

impl HogwildPtr<f32> {
    /// Racy `buf[i] += delta` — the HOGWILD gradient-accumulation primitive.
    /// Colliding threads may lose one addend; SLIDE tolerates this.
    ///
    /// # Safety
    ///
    /// As [`HogwildPtr::row_mut`].
    #[inline]
    pub unsafe fn add(self, i: usize, delta: f32) {
        debug_assert!(i < self.len);
        *self.base.add(i) += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_read_write_roundtrip() {
        let arr = HogwildArray::<f32>::zeroed(64);
        let p = arr.ptr();
        unsafe {
            p.set(10, 2.5);
            p.add(10, 0.5);
            assert_eq!(p.get(10), 3.0);
        }
        assert_eq!(arr.as_slice()[10], 3.0);
    }

    #[test]
    fn rows_partition_the_buffer() {
        let arr = HogwildArray::<f32>::zeroed(6);
        let p = arr.ptr();
        unsafe {
            p.row_mut(0, 3).copy_from_slice(&[1.0, 2.0, 3.0]);
            p.row_mut(1, 3).copy_from_slice(&[4.0, 5.0, 6.0]);
            assert_eq!(p.row(0, 3), &[1.0, 2.0, 3.0]);
            assert_eq!(p.row(1, 3), &[4.0, 5.0, 6.0]);
        }
        assert_eq!(arr.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_row_panics() {
        let arr = HogwildArray::<f32>::zeroed(6);
        let _ = unsafe { arr.ptr().row(2, 3) };
    }

    #[test]
    fn parallel_disjoint_writes_are_visible() {
        let arr = HogwildArray::<f32>::zeroed(1024);
        let p = arr.ptr();
        std::thread::scope(|s| {
            for t in 0..8usize {
                s.spawn(move || {
                    let row = unsafe { p.row_mut(t, 128) };
                    for v in row.iter_mut() {
                        *v = t as f32;
                    }
                });
            }
        });
        for t in 0..8 {
            assert!(arr.as_slice()[t * 128..(t + 1) * 128]
                .iter()
                .all(|&v| v == t as f32));
        }
    }

    #[test]
    fn u16_variant_for_bf16_weights() {
        let arr = HogwildArray::<u16>::from_slice(&[1, 2, 3]);
        unsafe { arr.ptr().set(1, 9) };
        assert_eq!(arr.as_slice(), &[1, 9, 3]);
        assert_eq!(arr.len(), 3);
        let cloned = arr.clone();
        assert_eq!(cloned.as_slice(), arr.as_slice());
    }
}
