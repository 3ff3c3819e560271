//! SimHash (signed random projection) — the LSH family the paper uses for
//! the Text8 word2vec workload (`K = 9`, `L = 50`).
//!
//! Each hash bit is the sign of a projection onto an implicit ±1 hyperplane:
//! the sign for (bit, coordinate) is drawn from a universal hash, 64 sign
//! bits per mix call, so the hyperplanes cost one bit per entry rather than
//! an f32.
//!
//! Two paths compute the same keys. [`SimHash::keys_dense`] — the one every
//! layer, rebuild and frozen engine calls — reads the sign words from a
//! `dim × ceil(K·L/64)` table filled in [`SimHash::new`] and runs
//! [`slide_simd::simhash_sign_bits`], which adds `±x[i]` into 8/16
//! projections per instruction. [`SimHash::keys_sparse`] is the scalar
//! oracle: it re-derives each sign word from the mixer and walks the bits one
//! at a time. Both sum a projection's coordinates in ascending order, so the
//! f32 sums, and therefore the keys, are bit-identical.

use crate::mix::mix3;
use slide_mem::SparseVecRef;

/// Configuration for a [`SimHash`] family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimHashConfig {
    /// Input dimensionality.
    pub dim: usize,
    /// Bits per table key `K` (tables have `2^K` buckets).
    pub key_bits: u32,
    /// Number of tables `L`.
    pub tables: usize,
    /// Seed for the implicit hyperplanes.
    pub seed: u64,
}

impl Default for SimHashConfig {
    fn default() -> Self {
        SimHashConfig {
            dim: 128,
            key_bits: 9,
            tables: 50,
            seed: 0x51A1_4A5E,
        }
    }
}

/// Reusable per-thread scratch for [`SimHash`] computations.
#[derive(Debug, Clone)]
pub struct SimHashScratch {
    /// One accumulator per hash bit (K*L total); sparse path only.
    acc: Vec<f32>,
    /// One sign bit per projection, padded to whole words; dense path only.
    bits: Vec<u64>,
}

/// The signed-random-projection LSH family.
///
/// # Examples
///
/// ```
/// use slide_hash::{SimHash, SimHashConfig};
///
/// let srp = SimHash::new(SimHashConfig { dim: 32, key_bits: 9, tables: 8, ..Default::default() });
/// let mut scratch = srp.make_scratch();
/// let mut keys = vec![0u32; 8];
/// let x: Vec<f32> = (0..32).map(|i| i as f32 - 16.0).collect();
/// srp.keys_dense(&x, &mut scratch, &mut keys);
/// assert!(keys.iter().all(|&k| k < 512));
/// ```
#[derive(Debug, Clone)]
pub struct SimHash {
    config: SimHashConfig,
    total_bits: usize,
    /// `sign_word(i, w)` for every coordinate and word, coordinate-major.
    signs: Vec<u64>,
}

impl SimHash {
    /// Build the family.
    ///
    /// # Panics
    ///
    /// Panics if `key_bits` is 0 or > 24, or if `dim`/`tables` is 0.
    pub fn new(config: SimHashConfig) -> Self {
        assert!(config.key_bits > 0 && config.key_bits <= 24);
        assert!(config.dim > 0, "SimHash: dim must be positive");
        assert!(config.tables > 0, "SimHash: tables must be positive");
        let total_bits = config.key_bits as usize * config.tables;
        let words = total_bits.div_ceil(64);
        let signs = (0..config.dim * words)
            .map(|iw| sign_word(config.seed, iw / words, iw % words))
            .collect();
        SimHash {
            config,
            total_bits,
            signs,
        }
    }

    /// The configuration this family was built with.
    pub fn config(&self) -> &SimHashConfig {
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

    /// Allocate scratch sized for this family.
    pub fn make_scratch(&self) -> SimHashScratch {
        SimHashScratch {
            acc: vec![0.0; self.total_bits],
            bits: vec![0; self.total_bits.div_ceil(64)],
        }
    }

    /// Compute the `L` table keys for a sparse input.
    ///
    /// # Panics
    ///
    /// Panics if `keys_out.len() != self.tables()`.
    pub fn keys_sparse(
        &self,
        x: SparseVecRef<'_>,
        scratch: &mut SimHashScratch,
        keys_out: &mut [u32],
    ) {
        scratch.acc.fill(0.0);
        for (idx, v) in x.iter() {
            self.accumulate(idx as usize, v, &mut scratch.acc);
        }
        self.collect_keys(&scratch.acc, keys_out);
    }

    /// Compute the `L` table keys for a dense input of length `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()` or `keys_out.len() != self.tables()`.
    pub fn keys_dense(&self, x: &[f32], scratch: &mut SimHashScratch, keys_out: &mut [u32]) {
        assert_eq!(
            x.len(),
            self.config.dim,
            "SimHash: dense input dim mismatch"
        );
        assert_eq!(
            keys_out.len(),
            self.config.tables,
            "SimHash: keys_out length must equal tables()"
        );
        slide_simd::simhash_sign_bits(x, &self.signs, &mut scratch.bits);
        // Key `t` is projections `t*K..(t+1)*K`, first projection in the
        // most significant bit.
        let k = self.config.key_bits as usize;
        for (t, key) in keys_out.iter_mut().enumerate() {
            let (word, offset) = (t * k / 64, t * k % 64);
            let mut field = scratch.bits[word] >> offset;
            if offset + k > 64 {
                field |= scratch.bits[word + 1] << (64 - offset);
            }
            *key = ((field as u32) << (32 - k)).reverse_bits();
        }
    }

    #[inline]
    fn accumulate(&self, idx: usize, v: f32, acc: &mut [f32]) {
        let words = self.total_bits.div_ceil(64);
        for w in 0..words {
            let mut bits = sign_word(self.config.seed, idx, w);
            let base = w * 64;
            let end = (base + 64).min(self.total_bits);
            for slot in acc[base..end].iter_mut() {
                // +v when the sign bit is set, -v otherwise (branchless-ish).
                let sign = if bits & 1 == 1 { v } else { -v };
                *slot += sign;
                bits >>= 1;
            }
        }
    }

    fn collect_keys(&self, acc: &[f32], keys_out: &mut [u32]) {
        assert_eq!(
            keys_out.len(),
            self.config.tables,
            "SimHash: keys_out length must equal tables()"
        );
        let k = self.config.key_bits as usize;
        for (t, key) in keys_out.iter_mut().enumerate() {
            let mut bits: u32 = 0;
            for j in 0..k {
                bits = (bits << 1) | (acc[t * k + j] > 0.0) as u32;
            }
            *key = bits;
        }
    }
}

/// The 64 hyperplane signs (set bit = `+1`) of coordinate `idx` for
/// projections `64 * word ..`.
#[inline]
fn sign_word(seed: u64, idx: usize, word: usize) -> u64 {
    mix3(seed, idx as u64, word as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family(dim: usize, tables: usize) -> SimHash {
        SimHash::new(SimHashConfig {
            dim,
            key_bits: 9,
            tables,
            seed: 3,
        })
    }

    fn keys_sparse_of(h: &SimHash, idx: &[u32], val: &[f32]) -> Vec<u32> {
        let mut scratch = h.make_scratch();
        let mut keys = vec![0u32; h.tables()];
        h.keys_sparse(SparseVecRef::new(idx, val), &mut scratch, &mut keys);
        keys
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let h = family(1000, 16);
        let idx = [1u32, 500, 999];
        let val = [1.0f32, -2.0, 0.5];
        assert_eq!(
            keys_sparse_of(&h, &idx, &val),
            keys_sparse_of(&h, &idx, &val)
        );
        let h2 = SimHash::new(SimHashConfig {
            seed: 4,
            ..*h.config()
        });
        assert_ne!(
            keys_sparse_of(&h, &idx, &val),
            keys_sparse_of(&h2, &idx, &val)
        );
    }

    #[test]
    fn keys_in_range() {
        let h = family(100, 32);
        let idx: Vec<u32> = (0..20).map(|i| i * 5).collect();
        let val = vec![1.0f32; 20];
        for k in keys_sparse_of(&h, &idx, &val) {
            assert!(k < 512);
        }
    }

    #[test]
    fn scaling_input_preserves_signs() {
        // SimHash depends only on direction, not magnitude. Use power-of-two
        // values and a power-of-two scale so f32 sums are exact and sign
        // flips cannot come from rounding.
        let h = family(64, 16);
        let idx: Vec<u32> = (0..10).collect();
        let val: Vec<f32> = (0..10)
            .map(|i| {
                let mag = [0.25_f32, 0.5, 1.0, 2.0, 4.0][i % 5];
                if i % 3 == 0 {
                    -mag
                } else {
                    mag
                }
            })
            .collect();
        let scaled: Vec<f32> = val.iter().map(|v| v * 4.0).collect();
        assert_eq!(
            keys_sparse_of(&h, &idx, &val),
            keys_sparse_of(&h, &idx, &scaled)
        );
    }

    #[test]
    fn dense_and_sparse_agree() {
        let h = family(32, 8);
        let dense: Vec<f32> = (0..32).map(|i| ((i % 5) as f32) - 2.0).collect();
        let idx: Vec<u32> = (0..32).filter(|&i| dense[i as usize] != 0.0).collect();
        let val: Vec<f32> = idx.iter().map(|&i| dense[i as usize]).collect();
        let mut scratch = h.make_scratch();
        let mut dense_keys = vec![0u32; 8];
        h.keys_dense(&dense, &mut scratch, &mut dense_keys);
        assert_eq!(dense_keys, keys_sparse_of(&h, &idx, &val));
    }

    #[test]
    fn dense_and_sparse_calls_interleave_on_one_scratch() {
        let h = family(64, 25);
        let dense: Vec<f32> = (0..64).map(|i| ((i * 29 % 83) as f32) - 30.0).collect();
        let (s_idx, s_val) = ([4u32, 17, 63], [2.0f32, -1.0, 0.5]);
        let fresh_sparse = keys_sparse_of(&h, &s_idx, &s_val);
        let mut fresh_dense = vec![0u32; 25];
        h.keys_dense(&dense, &mut h.make_scratch(), &mut fresh_dense);

        let mut scratch = h.make_scratch();
        let mut keys = vec![0u32; 25];
        for _ in 0..2 {
            h.keys_dense(&dense, &mut scratch, &mut keys);
            assert_eq!(keys, fresh_dense, "dense after sparse");
            h.keys_sparse(SparseVecRef::new(&s_idx, &s_val), &mut scratch, &mut keys);
            assert_eq!(keys, fresh_sparse, "sparse after dense");
        }
    }

    #[test]
    fn cosine_similar_vectors_collide_more() {
        let h = family(256, 128);
        let base: Vec<f32> = (0..256).map(|i| ((i * 31 % 17) as f32) - 8.0).collect();
        let idx: Vec<u32> = (0..256).collect();
        // Slightly perturbed copy vs an unrelated vector.
        let similar: Vec<f32> = base.iter().map(|v| v + 0.05).collect();
        let unrelated: Vec<f32> = (0..256).map(|i| ((i * 57 % 23) as f32) - 11.0).collect();
        let kb = keys_sparse_of(&h, &idx, &base);
        let ks = keys_sparse_of(&h, &idx, &similar);
        let ku = keys_sparse_of(&h, &idx, &unrelated);
        let collide = |a: &[u32], b: &[u32]| a.iter().zip(b).filter(|(x, y)| x == y).count();
        assert!(
            collide(&kb, &ks) > collide(&kb, &ku),
            "similar {} vs unrelated {}",
            collide(&kb, &ks),
            collide(&kb, &ku)
        );
    }

    #[test]
    fn one_hot_inputs_hash_differently() {
        // Text8's input is one-hot; distinct words must spread across buckets.
        let h = family(1000, 4);
        let mut distinct = std::collections::HashSet::new();
        for w in 0..100u32 {
            distinct.insert(keys_sparse_of(&h, &[w], &[1.0]));
        }
        assert!(
            distinct.len() > 90,
            "only {} distinct key sets",
            distinct.len()
        );
    }
}
