//! Pinned keys. A `.slsnap` stores tables built by hashing rows and
//! re-derives the family to hash queries, so a silent change of hash
//! function would make old images retrieve garbage without failing any CRC.
//! The literals were produced by the scalar loops of the commit before the
//! vector kernels; they must never change — at any `SLIDE_SIMD` level.

use slide_hash::{DwtaConfig, DwtaHash, SimHash, SimHashConfig};
use slide_mem::SparseVecRef;

#[test]
fn simhash_200d_k9_l25_keys_are_pinned() {
    let h = SimHash::new(SimHashConfig {
        dim: 200,
        key_bits: 9,
        tables: 25,
        seed: 2,
    });
    let x: Vec<f32> = (0..200u32)
        .map(|i| {
            if i % 7 == 3 {
                0.0
            } else {
                ((i * 37 % 101) as f32 - 50.0) / 8.0
            }
        })
        .collect();
    let golden = [
        479, 197, 491, 391, 456, 122, 476, 398, 434, 245, 94, 397, 472, 459, 112, 88, 26, 345, 482,
        493, 217, 417, 206, 509, 296,
    ];
    let mut scratch = h.make_scratch();
    let mut keys = vec![0u32; 25];
    h.keys_dense(&x, &mut scratch, &mut keys);
    assert_eq!(keys, golden, "dense");
    let idx: Vec<u32> = (0..200).collect();
    h.keys_sparse(SparseVecRef::new(&idx, &x), &mut scratch, &mut keys);
    assert_eq!(keys, golden, "sparse");
}

#[test]
fn dwta_128d_k6_l24_bin16_keys_are_pinned() {
    let h = DwtaHash::new(DwtaConfig {
        dim: 128,
        key_bits: 6,
        tables: 24,
        bin_size: 16,
        seed: 1,
    });
    let x: Vec<f32> = (0..128u32)
        .map(|i| ((i * 53 % 127) as f32 - 40.0) / 16.0)
        .collect();
    let golden = [
        19, 49, 41, 51, 38, 26, 12, 41, 32, 16, 60, 1, 41, 34, 0, 30, 47, 34, 30, 60, 31, 58, 16,
        22,
    ];
    let mut scratch = h.make_scratch();
    let mut keys = vec![0u32; 24];
    h.keys_dense(&x, &mut scratch, &mut keys);
    assert_eq!(keys, golden, "dense");
    let idx: Vec<u32> = (0..128).collect();
    h.keys_sparse(SparseVecRef::new(&idx, &x), &mut scratch, &mut keys);
    assert_eq!(keys, golden, "sparse");
}
