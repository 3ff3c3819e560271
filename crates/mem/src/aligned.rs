//! Cache-line-aligned heap buffers.
//!
//! SLIDE's kernels stream long f32/u16 arrays; allocating them on 64-byte
//! boundaries keeps every AVX-512 load within a single cache line and lets
//! the hardware prefetchers work with whole-line strides (§4.1 of the paper).

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment used for all numeric buffers: one cache line on CLX/CPX.
pub const BUFFER_ALIGN: usize = 64;

/// Zeroed buffers of at least this many bytes are mapped straight from the
/// kernel where the target allows it (`crate::sys`): fresh zero pages that
/// cost nothing resident until written, and go back to the system on drop.
/// The system allocator's zeroed path `memset`s every request aligned above
/// 16 bytes instead, which made each parameter arena resident from birth.
const MAP_MIN_BYTES: usize = 1 << 20;

/// Marker for the element types an [`AlignedVec`] may hold.
///
/// Sealed: the buffer relies on elements being plain-old-data (no drop glue,
/// valid when zero-initialized), which is true of the numeric types SLIDE
/// stores.
pub trait Pod: Copy + Default + Send + Sync + 'static + private::Sealed {}

mod private {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for i32 {}
    impl Sealed for u8 {}
    impl Sealed for i8 {}
}

impl Pod for f32 {}
impl Pod for f64 {}
impl Pod for u16 {}
impl Pod for u32 {}
impl Pod for u64 {}
impl Pod for i32 {}
impl Pod for u8 {}
impl Pod for i8 {}

/// A fixed-length, 64-byte-aligned, zero-initialized heap buffer.
///
/// Unlike `Vec<T>` it guarantees cache-line alignment of element 0 and never
/// reallocates, so raw pointers handed to SIMD kernels and worker threads
/// stay valid for the buffer's lifetime. A large zeroed buffer costs no
/// resident memory until its pages are written.
///
/// # Examples
///
/// ```
/// use slide_mem::AlignedVec;
/// let mut buf = AlignedVec::<f32>::zeroed(100);
/// assert_eq!(buf.len(), 100);
/// assert_eq!(buf.as_ptr() as usize % 64, 0);
/// buf[3] = 1.5;
/// assert_eq!(buf[3], 1.5);
/// ```
pub struct AlignedVec<T: Pod> {
    ptr: NonNull<T>,
    len: usize,
    /// Whether the bytes are a kernel mapping rather than a heap block.
    mapped: bool,
}

unsafe impl<T: Pod> Send for AlignedVec<T> {}
unsafe impl<T: Pod> Sync for AlignedVec<T> {}

impl<T: Pod> AlignedVec<T> {
    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedVec {
                ptr: NonNull::dangling(),
                len: 0,
                mapped: false,
            };
        }
        let layout = Self::layout(len);
        if layout.size() >= MAP_MIN_BYTES {
            if let Some(raw) = crate::sys::map_zeroed(layout.size()) {
                // SAFETY: a successful mapping is non-null and page-aligned,
                // which is aligned for every Pod type.
                let ptr = unsafe { NonNull::new_unchecked(raw as *mut T) };
                return AlignedVec {
                    ptr,
                    len,
                    mapped: true,
                };
            }
        }
        // SAFETY: layout has non-zero size (len > 0, T is not a ZST by Pod's
        // numeric impls) and all Pod types are valid when zeroed.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw as *mut T) else {
            handle_alloc_error(layout)
        };
        AlignedVec {
            ptr,
            len,
            mapped: false,
        }
    }

    /// Allocate and fill from a slice.
    pub fn from_slice(src: &[T]) -> Self {
        let mut v = Self::zeroed(src.len());
        v.as_mut_slice().copy_from_slice(src);
        v
    }

    /// Allocate and fill with `f(i)` for each index.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        let mut v = Self::zeroed(len);
        for (i, slot) in v.as_mut_slice().iter_mut().enumerate() {
            *slot = f(i);
        }
        v
    }

    /// The allocation behind `len` elements. A function of the byte length
    /// alone, so [`AlignedVec::into_bytes`] frees with the layout (or unmaps
    /// the length) it was allocated with.
    fn layout(len: usize) -> Layout {
        len.checked_mul(std::mem::size_of::<T>())
            .and_then(|bytes| Layout::from_size_align(bytes, BUFFER_ALIGN).ok())
            .expect("AlignedVec: layout overflow")
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable view of the whole buffer.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr is valid for len elements (or dangling with len == 0,
        // which is allowed for zero-length slices).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Mutable view of the whole buffer.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as above, plus &mut self guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Raw base pointer (cache-line aligned). Stable for the buffer's
    /// lifetime — the base of [`crate::ParamArena::row_ptr`].
    pub fn as_ptr(&self) -> *const T {
        self.ptr.as_ptr()
    }

    /// Raw mutable base pointer. See [`AlignedVec::as_ptr`].
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr.as_ptr()
    }

    /// Set every element to `value`.
    pub fn fill(&mut self, value: T) {
        self.as_mut_slice().fill(value);
    }

    /// Reinterpret the buffer as raw bytes without copying. Sound because
    /// the byte-typed layout (`len * size_of::<T>()` bytes at 64-byte
    /// alignment) is exactly the layout this allocation was made with, so
    /// the byte handle can free it.
    pub fn into_bytes(self) -> AlignedVec<u8> {
        let len = self.len * std::mem::size_of::<T>();
        let (ptr, mapped) = (self.ptr, self.mapped);
        std::mem::forget(self);
        AlignedVec {
            ptr: ptr.cast(),
            len,
            mapped,
        }
    }
}

impl<T: Pod> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        let (raw, layout) = (self.ptr.as_ptr() as *mut u8, Self::layout(self.len));
        // SAFETY: `zeroed` made exactly this mapping or heap block, of this
        // layout's size (`into_bytes` keeps the byte length and the origin);
        // `&mut self` in drop means no view outlives it.
        unsafe {
            if self.mapped {
                crate::sys::unmap(raw, layout.size());
            } else {
                dealloc(raw, layout);
            }
        }
    }
}

impl<T: Pod> Deref for AlignedVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> DerefMut for AlignedVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Pod> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedVec")
            .field("len", &self.len)
            .field("data", &self.as_slice())
            .finish()
    }
}

impl<T: Pod + PartialEq> PartialEq for AlignedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod> Default for AlignedVec<T> {
    fn default() -> Self {
        Self::zeroed(0)
    }
}

impl<T: Pod> FromIterator<T> for AlignedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let items: Vec<T> = iter.into_iter().collect();
        Self::from_slice(&items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_aligned_and_zero() {
        let v = AlignedVec::<f32>::zeroed(1000);
        assert_eq!(v.as_ptr() as usize % BUFFER_ALIGN, 0);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.len(), 1000);
        assert!(!v.is_empty());
    }

    #[test]
    fn zero_len_buffer_is_usable() {
        let v = AlignedVec::<u32>::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[u32]);
        let _ = v.clone();
    }

    #[test]
    fn from_slice_roundtrips() {
        let data = [1.0_f32, 2.0, 3.0];
        let v = AlignedVec::from_slice(&data);
        assert_eq!(v.as_slice(), &data);
    }

    #[test]
    fn from_fn_indexes() {
        let v = AlignedVec::from_fn(5, |i| i as u32 * 2);
        assert_eq!(v.as_slice(), &[0, 2, 4, 6, 8]);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = AlignedVec::from_slice(&[1.0_f32, 2.0]);
        let b = a.clone();
        a[0] = 9.0;
        assert_eq!(b[0], 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn fill_and_index_mut() {
        let mut v = AlignedVec::<u16>::zeroed(10);
        v.fill(7);
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn collects_from_iterator() {
        let v: AlignedVec<u32> = (0..4).collect();
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn into_bytes_reinterprets_in_place() {
        let v = AlignedVec::<u32>::from_slice(&[0x0403_0201, 0x0807_0605]);
        let addr = v.as_ptr() as usize;
        let bytes = v.into_bytes();
        assert_eq!(bytes.as_ptr() as usize, addr, "no copy");
        assert_eq!(bytes.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(AlignedVec::<f32>::zeroed(0).into_bytes().is_empty());
    }

    /// Resident set size of this process in KiB.
    #[cfg(target_os = "linux")]
    fn vm_rss_kib() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn large_zeroed_buffer_is_not_resident_until_written() {
        const MIB: usize = 1 << 20;
        let before = vm_rss_kib();
        let mut v = AlignedVec::<f32>::zeroed(256 * MIB / 4);
        let grown = vm_rss_kib().saturating_sub(before);
        assert!(
            grown < 16 * 1024,
            "a zeroed 256 MiB buffer made {grown} KiB resident"
        );
        assert_eq!(v.as_ptr() as usize % BUFFER_ALIGN, 0);
        // Reads see zeros, writes land, and only the written page is added.
        assert_eq!(v[v.len() - 1], 0.0);
        v[12_345_678] = 1.0;
        assert_eq!(v.iter().skip(12_345_670).take(16).sum::<f32>(), 1.0);
    }

    #[test]
    fn u16_alignment_for_bf16_arrays() {
        let v = AlignedVec::<u16>::zeroed(33);
        assert_eq!(v.as_ptr() as usize % BUFFER_ALIGN, 0);
    }
}
