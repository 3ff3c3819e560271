//! Property tests: the coalesced and fragmented layouts must be perfectly
//! interchangeable views of the same logical batch, and arenas must preserve
//! row contents under any access pattern.

use proptest::prelude::*;
use slide_mem::{FragmentedBatch, IndexBatch, ParamArena, ParamLayout, ParamStore, SparseBatch};

fn instances() -> impl Strategy<Value = Vec<(Vec<u32>, Vec<f32>)>> {
    prop::collection::vec(
        prop::collection::vec((0u32..1000, -10.0f32..10.0), 0..30).prop_map(|pairs| {
            let mut idx: Vec<u32> = pairs.iter().map(|(i, _)| *i).collect();
            idx.sort_unstable();
            idx.dedup();
            let vals: Vec<f32> = idx.iter().map(|i| (*i as f32) * 0.1 - 3.0).collect();
            (idx, vals)
        }),
        0..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coalesced_equals_fragmented(insts in instances()) {
        let mut c = SparseBatch::new();
        let mut f = FragmentedBatch::new();
        for (i, v) in &insts {
            c.push(i, v);
            f.push(i, v);
        }
        prop_assert_eq!(c.len(), insts.len());
        prop_assert_eq!(c.len(), f.len());
        prop_assert_eq!(c.total_nnz(), f.total_nnz());
        for i in 0..c.len() {
            prop_assert_eq!(c.get(i).indices, f.get(i).indices);
            prop_assert_eq!(c.get(i).values, f.get(i).values);
        }
    }

    #[test]
    fn offsets_are_monotone_and_bounded(insts in instances()) {
        let mut b = SparseBatch::new();
        for (i, v) in &insts {
            b.push(i, v);
        }
        let offs = b.offsets();
        prop_assert_eq!(offs[0], 0);
        prop_assert_eq!(*offs.last().unwrap(), b.total_nnz());
        for w in offs.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn flat_arrays_concatenate_instances(insts in instances()) {
        let mut b = SparseBatch::new();
        for (i, v) in &insts {
            b.push(i, v);
        }
        let expect_idx: Vec<u32> = insts.iter().flat_map(|(i, _)| i.clone()).collect();
        let expect_val: Vec<f32> = insts.iter().flat_map(|(_, v)| v.clone()).collect();
        prop_assert_eq!(b.flat_indices(), &expect_idx[..]);
        prop_assert_eq!(b.flat_values(), &expect_val[..]);
    }

    #[test]
    fn param_layouts_agree(rows in 1usize..20, cols in 1usize..40, seed in any::<u32>()) {
        let init = |r: usize, c: usize| ((r * 31 + c * 17 + seed as usize) % 101) as f32 * 0.01;
        let arena = ParamStore::from_fn(ParamLayout::Coalesced, rows, cols, init);
        let frag = ParamStore::from_fn(ParamLayout::Fragmented, rows, cols, init);
        for r in 0..rows {
            prop_assert_eq!(arena.row(r), frag.row(r), "row {}", r);
        }
    }

    #[test]
    fn arena_flat_is_row_major(rows in 1usize..10, cols in 1usize..20) {
        let arena = ParamArena::from_fn(rows, cols, |r, c| (r * cols + c) as f32);
        let flat = arena.flat();
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(flat[r * cols + c], (r * cols + c) as f32);
            }
        }
    }

    #[test]
    fn index_batch_concatenates(sets in prop::collection::vec(prop::collection::vec(0u32..500, 0..10), 0..15)) {
        let mut b = IndexBatch::new();
        for s in &sets {
            b.push(s);
        }
        prop_assert_eq!(b.len(), sets.len());
        for (i, s) in sets.iter().enumerate() {
            prop_assert_eq!(b.get(i), &s[..]);
        }
        prop_assert_eq!(b.total_len(), sets.iter().map(|s| s.len()).sum::<usize>());
    }
}
