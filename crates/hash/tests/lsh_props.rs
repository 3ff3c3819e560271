//! Property tests for the LSH substrate: the table build against the
//! sequential reservoir insert it replays, table bookkeeping invariants,
//! hash determinism/range guarantees on arbitrary inputs, and exact equality
//! of the vectorised dense key paths with the scalar level and the sparse
//! oracle.

use proptest::prelude::*;
use slide_hash::mix::{mix2, mix3, reduce};
use slide_hash::{DwtaConfig, DwtaHash, LshTables, SimHash, SimHashConfig};
use slide_mem::SparseVecRef;
use slide_simd::{set_policy, SimdLevel, SimdPolicy};

/// `f` under every dispatch level, restoring the prior policy (which may be
/// a forced `SLIDE_SIMD` CI leg). The policy is process-wide, so callers
/// serialise on one lock; a level the host lacks degrades to the best it has.
fn at_each_level<R>(mut f: impl FnMut() -> R) -> Vec<(SimdLevel, R)> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prior = slide_simd::policy();
    let out = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .map(|level| {
            set_policy(SimdPolicy::Force(level));
            (level, f())
        })
        .collect();
    set_policy(prior);
    out
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A dense input with exact zeros of both signs and runs of one repeated
/// value (first-wins ties); `specials` bit 0 adds ±∞, bit 1 adds NaN, bit 2
/// makes most coordinates −∞ (DWTA bins stay empty and densify).
fn dense_input(dim: usize, seed: u64, specials: u8) -> Vec<f32> {
    let mut s = seed | 1;
    let run = (xorshift(&mut s) % 7) as f32 - 3.0;
    (0..dim)
        .map(|_| {
            let r = xorshift(&mut s);
            if specials & 4 != 0 && !r.is_multiple_of(8) {
                return f32::NEG_INFINITY;
            }
            match (r >> 8) % 16 {
                0 => 0.0,
                1 => -0.0,
                2..=4 => run,
                5 if specials & 1 != 0 => f32::INFINITY,
                6 if specials & 1 != 0 => f32::NEG_INFINITY,
                7 if specials & 2 != 0 => f32::NAN,
                _ => (r >> 40) as f32 / (1u64 << 23) as f32 * 1e3 - 1e3,
            }
        })
        .collect()
}

const DIMS: [usize; 5] = [1, 7, 128, 200, 1000];

// Each case sweeps the whole shape grid, so a few dozen seeds suffice.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simhash_dense_keys_equal_scalar_and_sparse_oracle(seed in any::<u64>(), specials in 0u8..4) {
        // K·L = 1, 63, 64, 65, 225, 450.
        for (key_bits, tables) in [(1u32, 1usize), (9, 7), (8, 8), (13, 5), (9, 25), (9, 50)] {
            for dim in DIMS {
                let h = SimHash::new(SimHashConfig { dim, key_bits, tables, seed });
                let x = dense_input(dim, seed ^ dim as u64, specials);
                // The oracle sees exactly the coordinates the dense path keeps.
                let idx: Vec<u32> = (0..dim as u32).filter(|&i| x[i as usize] != 0.0).collect();
                let val: Vec<f32> = idx.iter().map(|&i| x[i as usize]).collect();
                let mut scratch = h.make_scratch();
                let mut oracle = vec![0u32; tables];
                h.keys_sparse(SparseVecRef::new(&idx, &val), &mut scratch, &mut oracle);
                for (level, keys) in at_each_level(|| {
                    let mut keys = vec![u32::MAX; tables];
                    h.keys_dense(&x, &mut scratch, &mut keys);
                    keys
                }) {
                    prop_assert_eq!(&keys, &oracle, "{:?} dim={} K={} L={}", level, dim, key_bits, tables);
                }
            }
        }
    }

    #[test]
    fn dwta_dense_keys_equal_scalar_and_sparse_oracle(seed in any::<u64>(), specials in 0u8..8) {
        // 768, 48, 384 and 64 slots: below and above every dim in DIMS but 1.
        for (key_bits, tables, bin_size) in [(6u32, 24usize, 16usize), (6, 4, 4), (7, 16, 8), (5, 2, 32)] {
            for dim in DIMS {
                let h = DwtaHash::new(DwtaConfig { dim, key_bits, tables, bin_size, seed });
                let x = dense_input(dim, seed ^ dim as u64, specials);
                // The dense path visits every coordinate, zeros included.
                let idx: Vec<u32> = (0..dim as u32).collect();
                let mut scratch = h.make_scratch();
                let mut oracle = vec![0u32; tables];
                h.keys_sparse(SparseVecRef::new(&idx, &x), &mut scratch, &mut oracle);
                for (level, keys) in at_each_level(|| {
                    let mut keys = vec![u32::MAX; tables];
                    h.keys_dense(&x, &mut scratch, &mut keys);
                    keys
                }) {
                    prop_assert_eq!(&keys, &oracle, "{:?} dim={} K={} L={} bin={}", level, dim, key_bits, tables, bin_size);
                }
            }
        }
    }
}

fn sparse_input(dim: u32) -> impl Strategy<Value = (Vec<u32>, Vec<f32>)> {
    prop::collection::btree_set(0..dim, 0..40).prop_map(|set| {
        let idx: Vec<u32> = set.into_iter().collect();
        let val: Vec<f32> = idx.iter().map(|&i| ((i % 13) as f32) - 6.0 + 0.5).collect();
        (idx, val)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dwta_keys_always_in_range((idx, val) in sparse_input(2048), seed in any::<u64>()) {
        let h = DwtaHash::new(DwtaConfig { dim: 2048, key_bits: 7, tables: 16, bin_size: 8, seed });
        let mut scratch = h.make_scratch();
        let mut keys = vec![0u32; 16];
        h.keys_sparse(SparseVecRef::new(&idx, &val), &mut scratch, &mut keys);
        for k in keys {
            prop_assert!(k < 128);
        }
    }

    #[test]
    fn dwta_is_a_function((idx, val) in sparse_input(512)) {
        let h = DwtaHash::new(DwtaConfig { dim: 512, key_bits: 6, tables: 8, bin_size: 16, seed: 5 });
        let mut s1 = h.make_scratch();
        let mut s2 = h.make_scratch();
        let mut k1 = vec![0u32; 8];
        let mut k2 = vec![0u32; 8];
        let x = SparseVecRef::new(&idx, &val);
        h.keys_sparse(x, &mut s1, &mut k1);
        h.keys_sparse(x, &mut s2, &mut k2);
        prop_assert_eq!(k1, k2);
    }

    #[test]
    fn simhash_keys_always_in_range((idx, val) in sparse_input(4096), seed in any::<u64>()) {
        let h = SimHash::new(SimHashConfig { dim: 4096, key_bits: 9, tables: 12, seed });
        let mut scratch = h.make_scratch();
        let mut keys = vec![0u32; 12];
        h.keys_sparse(SparseVecRef::new(&idx, &val), &mut scratch, &mut keys);
        for k in keys {
            prop_assert!(k < 512);
        }
    }

    #[test]
    fn tables_query_returns_inserted_id(rows in 1u32..50, seed in any::<u64>()) {
        let key_of = |id: u32, t: u64| (mix2(seed ^ t, id as u64) % 64) as u32;
        let keys: Vec<u32> = (0..rows)
            .flat_map(|id| (0..4).map(move |t| key_of(id, t)))
            .collect();
        let tables = LshTables::from_keys(4, 6, 1024, seed, &keys);
        // Bucket cap 1024 > #rows, so every row must be retrievable.
        for (id, keys) in keys.chunks_exact(4).enumerate() {
            let mut out = Vec::new();
            tables.query_into(keys, &mut out);
            prop_assert!(out.contains(&(id as u32)));
        }
        let stats = tables.stats();
        prop_assert_eq!(stats.stored, rows as usize * 4);
    }

    #[test]
    fn bucket_never_exceeds_cap(keys in prop::collection::vec(0u32..8, 0..300)) {
        let tables = LshTables::from_keys(1, 3, 5, 77, &keys);
        for key in 0..8u32 {
            let want = keys.iter().filter(|&&k| k == key).count().min(5);
            prop_assert_eq!(tables.bucket(0, key).len(), want);
        }
    }

    #[test]
    fn from_keys_equals_sequential_reservoir_inserts(
        l in 1usize..6,
        key_bits in 1u32..8,
        cap in 1usize..12,
        seed in any::<u64>(),
        raw in prop::collection::vec(any::<u32>(), 0..1500),
    ) {
        // Few buckets, small caps and up to 1500 / L rows: most buckets
        // overflow and go through the reservoir.
        let rows = raw.len() / l;
        let keys: Vec<u32> = raw[..rows * l].iter().map(|k| k & ((1 << key_bits) - 1)).collect();
        let tables = LshTables::from_keys(l, key_bits, cap, seed, &keys);
        let (offsets, items, arrivals) = reservoir_inserts(l, key_bits, cap, seed, &keys);
        prop_assert_eq!(tables.offsets().as_slice(), offsets.as_slice());
        prop_assert_eq!(tables.items().as_slice(), items.as_slice());
        prop_assert_eq!(tables.arrivals().as_slice(), arrivals.as_slice());
        prop_assert!(tables.stats().max_bucket <= cap);
    }
}

/// The oracle for [`LshTables::from_keys`]: insert row after row, in order,
/// into `L · 2^K` growable buckets — the sequential reservoir insert the
/// counting sort must replay exactly. A full bucket's `a`-th
/// arrival replaces slot `reduce(mix3(seed ^ t << 32, key, a), a)` when that
/// is below `cap`. Returns the CSR offsets, items and arrival counts.
fn reservoir_inserts(
    l: usize,
    key_bits: u32,
    cap: usize,
    seed: u64,
    keys: &[u32],
) -> (Vec<u32>, Vec<u32>, Vec<u64>) {
    let mut buckets = vec![(Vec::new(), 0u64); l << key_bits];
    for (id, row) in keys.chunks_exact(l).enumerate() {
        for (t, &key) in row.iter().enumerate() {
            let (items, arrivals) = &mut buckets[(t << key_bits) | key as usize];
            *arrivals += 1;
            if items.len() < cap {
                items.push(id as u32);
            } else {
                let r = reduce(
                    mix3(seed ^ (t as u64) << 32, key as u64, *arrivals),
                    *arrivals as usize,
                );
                if r < cap {
                    items[r] = id as u32;
                }
            }
        }
    }
    let mut offsets = vec![0u32];
    let mut items = Vec::new();
    for (bucket, _) in &buckets {
        items.extend_from_slice(bucket);
        offsets.push(items.len() as u32);
    }
    let arrivals = buckets.iter().map(|&(_, a)| a).collect();
    (offsets, items, arrivals)
}
