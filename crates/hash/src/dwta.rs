//! Densified Winner-Take-All hashing (Chen & Shrivastava 2018), the LSH
//! family SLIDE uses for its sparse extreme-classification layers and the
//! function vectorized in §4.3.3 of the paper.
//!
//! The scheme: a fixed random map sends every coordinate index into one of
//! `bins * bin_size` slots (precomputed once, per §4.3.3 "we pre-compute the
//! random map of all the indices"). Each *bin* covers `bin_size` consecutive
//! slots; the hash value of a bin is the in-bin slot of the maximum-valued
//! coordinate that landed in it — a `log2(bin_size)`-bit code. Bins that
//! receive no coordinate (common for very sparse inputs) are *densified*:
//! they borrow the value of a non-empty bin chosen by an iterated universal
//! hash, which restores the collision-probability guarantees of dense WTA.
//!
//! Each hash table consumes `bins_per_table` consecutive bins, concatenating
//! their codes into a `K`-bit bucket key.
//!
//! Two paths find the bin codes. [`DwtaHash::keys_dense`] — the one every
//! layer, rebuild and frozen engine calls — hands the *inverse* of the map
//! (slot → the coordinates that land in it, built in [`DwtaHash::new`]) to
//! [`slide_simd::dwta_bin_codes`], which gathers 8/16 slots per instruction
//! and needs no per-input state. [`DwtaHash::keys_sparse`] is the scalar
//! oracle: it scatters the non-zeros through the forward map into scratch
//! slots and reduces each bin with [`slide_simd::argmax_f32`]. Both visit a
//! slot's coordinates in the same order and only compare, so the codes are
//! identical; densification and key assembly are shared.

use crate::mix::{mix3, reduce};
use slide_mem::SparseVecRef;
use slide_simd::DwtaSources;

/// Maximum densification probes before giving up and emitting code 0.
const MAX_DENSIFY_ATTEMPTS: u32 = 64;

/// Configuration for a [`DwtaHash`] family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DwtaConfig {
    /// Input dimensionality (indices must be `< dim`).
    pub dim: usize,
    /// Bits per table key `K` (tables have `2^K` buckets).
    pub key_bits: u32,
    /// Number of tables `L`.
    pub tables: usize,
    /// Slots per WTA bin; must be a power of two (16 exercises one full
    /// AVX-512 register per bin, the paper's vectorized max).
    pub bin_size: usize,
    /// Seed for the random index map and densification probes.
    pub seed: u64,
}

impl Default for DwtaConfig {
    fn default() -> Self {
        DwtaConfig {
            dim: 128,
            key_bits: 6,
            tables: 50,
            bin_size: 16,
            seed: 0x5EED_D17A,
        }
    }
}

/// Reusable per-thread scratch for [`DwtaHash`] computations.
#[derive(Debug, Clone)]
pub struct DwtaScratch {
    /// Best value seen per slot (NEG_INFINITY = empty); sparse path only.
    slot_vals: Vec<f32>,
    /// Slots the last sparse input touched (for cheap reset).
    touched: Vec<u32>,
    /// Per-bin winning code, NO_CODE when the bin is empty.
    codes: Vec<u32>,
}

const NO_CODE: u32 = slide_simd::DWTA_EMPTY_BIN;

impl DwtaScratch {
    fn new(total_bins: usize, bin_size: usize) -> Self {
        DwtaScratch {
            slot_vals: vec![f32::NEG_INFINITY; total_bins * bin_size],
            touched: Vec::with_capacity(256),
            codes: vec![NO_CODE; total_bins],
        }
    }
}

/// The densified winner-take-all LSH family.
///
/// # Examples
///
/// ```
/// use slide_hash::{DwtaConfig, DwtaHash};
///
/// let dwta = DwtaHash::new(DwtaConfig { dim: 64, key_bits: 6, tables: 10, ..Default::default() });
/// let mut scratch = dwta.make_scratch();
/// let mut keys = vec![0u32; 10];
/// let x: Vec<f32> = (0..64).map(|i| (i as f32).sin()).collect();
/// dwta.keys_dense(&x, &mut scratch, &mut keys);
/// assert!(keys.iter().all(|&k| k < 64));
/// ```
#[derive(Debug, Clone)]
pub struct DwtaHash {
    config: DwtaConfig,
    /// Precomputed random map: `(replica, coordinate) -> slot`, laid out
    /// replica-major (`map[rep * dim + i]`). The input is replicated
    /// `ceil(total_slots / dim)` times, as in the original DWTA, so that
    /// most slots receive a coordinate — otherwise (one slot per
    /// coordinate) the vast majority of slots stay empty whenever
    /// `L · bins · bin_size ≫ dim`, the per-bin argmax chooses among a
    /// handful of shared candidates, and key diversity collapses.
    index_map: Vec<u32>,
    /// The inverse of `index_map`, for the dense path.
    sources: DwtaSources,
    replicas: usize,
    bins_per_table: usize,
    bits_per_bin: u32,
    total_bins: usize,
}

impl DwtaHash {
    /// Build the family, precomputing the random index map.
    ///
    /// # Panics
    ///
    /// Panics if `bin_size` is not a power of two ≥ 2, if `key_bits` is 0 or
    /// > 24, or if `dim`/`tables` is 0.
    pub fn new(config: DwtaConfig) -> Self {
        assert!(config.bin_size.is_power_of_two() && config.bin_size >= 2);
        assert!(config.key_bits > 0 && config.key_bits <= 24);
        assert!(config.dim > 0, "DwtaHash: dim must be positive");
        assert!(config.tables > 0, "DwtaHash: tables must be positive");
        let bits_per_bin = config.bin_size.trailing_zeros();
        let bins_per_table = config.key_bits.div_ceil(bits_per_bin) as usize;
        let total_bins = bins_per_table * config.tables;
        let total_slots = total_bins * config.bin_size;
        let replicas = total_slots.div_ceil(config.dim).max(1);
        let index_map: Vec<u32> = (0..replicas * config.dim)
            .map(|ri| {
                let rep = (ri / config.dim) as u64;
                let i = (ri % config.dim) as u64;
                reduce(mix3(config.seed, rep, i), total_slots) as u32
            })
            .collect();
        let sources = DwtaSources::invert(&index_map, config.dim, total_bins, config.bin_size);
        DwtaHash {
            config,
            index_map,
            sources,
            replicas,
            bins_per_table,
            bits_per_bin,
            total_bins,
        }
    }

    /// The configuration this family was built with.
    pub fn config(&self) -> &DwtaConfig {
        &self.config
    }

    /// Number of tables (`L`).
    pub fn tables(&self) -> usize {
        self.config.tables
    }

    /// Bits per table key (`K`).
    pub fn key_bits(&self) -> u32 {
        self.config.key_bits
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// WTA bins concatenated per table key.
    pub fn bins_per_table(&self) -> usize {
        self.bins_per_table
    }

    /// Allocate scratch sized for this family.
    pub fn make_scratch(&self) -> DwtaScratch {
        DwtaScratch::new(self.total_bins, self.config.bin_size)
    }

    /// Compute the `L` table keys for a sparse input (the scalar oracle the
    /// dense path is tested against).
    ///
    /// # Panics
    ///
    /// Panics if `keys_out.len() != self.tables()` or an index is `>= dim`.
    pub fn keys_sparse(
        &self,
        x: SparseVecRef<'_>,
        scratch: &mut DwtaScratch,
        keys_out: &mut [u32],
    ) {
        // Reset only what the previous sparse input touched.
        for &s in &scratch.touched {
            scratch.slot_vals[s as usize] = f32::NEG_INFINITY;
        }
        scratch.touched.clear();
        let dim = self.config.dim;
        for rep in 0..self.replicas {
            for (idx, v) in x.iter() {
                let slot = self.index_map[rep * dim + idx as usize];
                let cur = &mut scratch.slot_vals[slot as usize];
                if *cur == f32::NEG_INFINITY {
                    scratch.touched.push(slot);
                    *cur = v;
                } else if v > *cur {
                    *cur = v;
                }
            }
        }
        // Bins whose best value is still NEG_INFINITY are empty.
        let bin_size = self.config.bin_size;
        for (b, code) in scratch.codes.iter_mut().enumerate() {
            let bin = &scratch.slot_vals[b * bin_size..(b + 1) * bin_size];
            let (winner, best) = slide_simd::argmax_f32(bin).expect("bin_size > 0");
            *code = if best == f32::NEG_INFINITY {
                NO_CODE
            } else {
                winner as u32
            };
        }
        self.keys_from_codes(&scratch.codes, keys_out);
    }

    /// Compute the `L` table keys for a dense input of length `dim`
    /// (used when hashing neuron weight vectors and layer activations).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()` or `keys_out.len() != self.tables()`.
    pub fn keys_dense(&self, x: &[f32], scratch: &mut DwtaScratch, keys_out: &mut [u32]) {
        assert_eq!(
            x.len(),
            self.config.dim,
            "DwtaHash: dense input dim mismatch"
        );
        slide_simd::dwta_bin_codes(x, &self.sources, &mut scratch.codes);
        self.keys_from_codes(&scratch.codes, keys_out);
    }

    /// Concatenate each table's bin codes into its key, densifying empty
    /// bins by probing other bins with a universal hash chain (Chen &
    /// Shrivastava 2018).
    fn keys_from_codes(&self, codes: &[u32], keys_out: &mut [u32]) {
        assert_eq!(
            keys_out.len(),
            self.config.tables,
            "DwtaHash: keys_out length must equal tables()"
        );
        let key_mask = (1u64 << self.config.key_bits) - 1;
        for (t, key_out) in keys_out.iter_mut().enumerate() {
            let mut key: u64 = 0;
            for j in 0..self.bins_per_table {
                let b = t * self.bins_per_table + j;
                let code = if codes[b] != NO_CODE {
                    codes[b]
                } else {
                    self.densify(b, codes)
                };
                key = (key << self.bits_per_bin) | code as u64;
            }
            *key_out = (key & key_mask) as u32;
        }
    }

    fn densify(&self, bin: usize, codes: &[u32]) -> u32 {
        for attempt in 1..=MAX_DENSIFY_ATTEMPTS {
            let probe = reduce(
                mix3(self.config.seed ^ 0xDE45_1F1E, bin as u64, attempt as u64),
                self.total_bins,
            );
            if codes[probe] != NO_CODE {
                return codes[probe];
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family(dim: usize) -> DwtaHash {
        DwtaHash::new(DwtaConfig {
            dim,
            key_bits: 6,
            tables: 32,
            bin_size: 16,
            seed: 7,
        })
    }

    fn keys_of(h: &DwtaHash, x: SparseVecRef<'_>) -> Vec<u32> {
        let mut scratch = h.make_scratch();
        let mut keys = vec![0u32; h.tables()];
        h.keys_sparse(x, &mut scratch, &mut keys);
        keys
    }

    #[test]
    fn deterministic_given_seed() {
        let h = family(1000);
        let idx = [3u32, 200, 777];
        let val = [1.0f32, -0.5, 2.0];
        let x = SparseVecRef::new(&idx, &val);
        assert_eq!(keys_of(&h, x), keys_of(&h, x));
        let h2 = family(1000);
        assert_eq!(keys_of(&h, x), keys_of(&h2, x));
    }

    #[test]
    fn keys_within_range() {
        let h = family(500);
        let idx: Vec<u32> = (0..50).map(|i| i * 7).collect();
        let val: Vec<f32> = (0..50).map(|i| (i as f32).cos()).collect();
        for k in keys_of(&h, SparseVecRef::new(&idx, &val)) {
            assert!(k < 64);
        }
    }

    #[test]
    fn empty_input_densifies_to_valid_keys() {
        let h = family(100);
        let keys = keys_of(&h, SparseVecRef::new(&[], &[]));
        assert_eq!(keys.len(), 32);
        assert!(keys.iter().all(|&k| k < 64));
    }

    #[test]
    fn dense_and_sparse_agree_on_full_support() {
        let h = family(64);
        let dense: Vec<f32> = (0..64).map(|i| ((i * 37 % 64) as f32) - 20.0).collect();
        let idx: Vec<u32> = (0..64).collect();
        let mut scratch = h.make_scratch();
        let mut dense_keys = vec![0u32; h.tables()];
        h.keys_dense(&dense, &mut scratch, &mut dense_keys);
        let sparse_keys = keys_of(&h, SparseVecRef::new(&idx, &dense));
        assert_eq!(dense_keys, sparse_keys);
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        let h = family(256);
        let mut scratch = h.make_scratch();
        let mut k1 = vec![0u32; h.tables()];
        let mut k2 = vec![0u32; h.tables()];
        let mut k3 = vec![0u32; h.tables()];
        let a_idx = [1u32, 50, 200];
        let a_val = [3.0f32, 1.0, -1.0];
        let b_idx = [7u32, 90];
        let b_val = [0.5f32, 0.25];
        h.keys_sparse(SparseVecRef::new(&a_idx, &a_val), &mut scratch, &mut k1);
        h.keys_sparse(SparseVecRef::new(&b_idx, &b_val), &mut scratch, &mut k2);
        h.keys_sparse(SparseVecRef::new(&a_idx, &a_val), &mut scratch, &mut k3);
        assert_eq!(k1, k3, "state leaked between computations");
        assert_ne!(k1, k2, "different inputs should (overwhelmingly) differ");
    }

    #[test]
    fn dense_and_sparse_calls_interleave_on_one_scratch() {
        // The dense path keeps no per-input state and the sparse path resets
        // only what the last *sparse* input touched: either order must give
        // what a fresh scratch gives.
        let h = family(256);
        let dense: Vec<f32> = (0..256).map(|i| ((i * 29 % 83) as f32) - 30.0).collect();
        let (s_idx, s_val) = ([4u32, 77, 130, 255], [2.0f32, -1.0, 0.5, 9.0]);
        let sparse = SparseVecRef::new(&s_idx, &s_val);
        let fresh_sparse = keys_of(&h, sparse);
        let mut fresh_dense = vec![0u32; h.tables()];
        h.keys_dense(&dense, &mut h.make_scratch(), &mut fresh_dense);

        let mut scratch = h.make_scratch();
        let mut keys = vec![0u32; h.tables()];
        for _ in 0..2 {
            h.keys_dense(&dense, &mut scratch, &mut keys);
            assert_eq!(keys, fresh_dense, "dense after sparse");
            h.keys_sparse(sparse, &mut scratch, &mut keys);
            assert_eq!(keys, fresh_sparse, "sparse after dense");
        }
    }

    #[test]
    fn similar_inputs_collide_more_than_dissimilar() {
        // LSH property (statistical): vectors sharing most mass collide on
        // more tables than near-orthogonal ones.
        let h = DwtaHash::new(DwtaConfig {
            dim: 512,
            key_bits: 6,
            tables: 128,
            bin_size: 16,
            seed: 99,
        });
        let base_idx: Vec<u32> = (0..64).map(|i| i * 8).collect();
        let base_val: Vec<f32> = (0..64).map(|i| 1.0 + (i as f32 * 0.1).sin()).collect();
        // Similar: same support, values perturbed slightly.
        let sim_val: Vec<f32> = base_val.iter().map(|v| v + 0.01).collect();
        // Dissimilar: disjoint support.
        let dis_idx: Vec<u32> = (0..64).map(|i| i * 8 + 3).collect();
        let dis_val: Vec<f32> = (0..64).map(|i| 1.0 + (i as f32 * 0.3).cos()).collect();

        let kb = keys_of(&h, SparseVecRef::new(&base_idx, &base_val));
        let ks = keys_of(&h, SparseVecRef::new(&base_idx, &sim_val));
        let kd = keys_of(&h, SparseVecRef::new(&dis_idx, &dis_val));
        let collide = |a: &[u32], b: &[u32]| a.iter().zip(b).filter(|(x, y)| x == y).count();
        let sim_c = collide(&kb, &ks);
        let dis_c = collide(&kb, &kd);
        assert!(
            sim_c > dis_c + 16,
            "similar pairs should collide far more: sim={sim_c} dis={dis_c}"
        );
    }

    #[test]
    fn key_bits_not_multiple_of_bin_bits() {
        // key_bits = 6, bin_size = 4 (2 bits/bin) -> 3 bins per table.
        let h = DwtaHash::new(DwtaConfig {
            dim: 100,
            key_bits: 6,
            tables: 4,
            bin_size: 4,
            seed: 1,
        });
        assert_eq!(h.bins_per_table(), 3);
        let idx = [5u32, 50];
        let val = [1.0f32, 2.0];
        for k in keys_of(&h, SparseVecRef::new(&idx, &val)) {
            assert!(k < 64);
        }
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn dense_wrong_dim_panics() {
        let h = family(64);
        let mut s = h.make_scratch();
        let mut keys = vec![0u32; h.tables()];
        h.keys_dense(&[1.0; 32], &mut s, &mut keys);
    }
}
