//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
//!
//! The shared integrity checksum for both the TCP wire protocol
//! (`slide-net` frame headers) and the on-disk snapshot format
//! (`slide-serve` section table). The kernels live in `slide-simd`
//! ([`slide_simd::crc32_update`]): a byte-at-a-time table loop, which is the
//! reference and the `SLIDE_SIMD=scalar` path, and a carry-less-multiply fold
//! on x86-64 hosts with `pclmulqdq`. Both compute the same checksum, so no
//! image or frame depends on the host or level that wrote it.

/// CRC-32 (IEEE) of `data`.
///
/// ```
/// assert_eq!(slide_mem::crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(slide_mem::crc32(b""), 0);
/// assert_eq!(slide_mem::crc32(b"a"), 0xE8B7_BE43);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    slide_simd::crc32_update(0, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut corrupt = base.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), reference, "flip at {byte}:{bit}");
            }
        }
    }
}
