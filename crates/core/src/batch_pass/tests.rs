//! The row-owned input stage against a per-sample scatter kept here: every
//! (sample, non-zero) added into its row's gradient in sample order, every
//! sample into the bias gradient, then one ADAM step per touched row and
//! one for the bias. Also the forward stage under the uniform policy.

use super::*;
use crate::config::{LshConfig, NetworkConfig, Precision};
use slide_data::generate_synthetic;
use slide_mem::SparseBatch;
use std::collections::BTreeMap;

/// Hidden width: past one 16-lane step and not a multiple of 8, so every
/// kernel tail runs.
const COLS: usize = 21;

fn network(precision: Precision, coalesced: bool) -> Network {
    let mut cfg = NetworkConfig::standard(16, COLS, 32);
    cfg.lsh = LshConfig {
        tables: 4,
        key_bits: 3,
        min_active: 8,
        ..Default::default()
    };
    cfg.precision = precision;
    cfg.memory.coalesced_params = coalesced;
    Network::new(cfg).unwrap()
}

fn export(p: &LayerParams) -> Vec<u8> {
    let mut bytes = Vec::new();
    p.export_into(&mut bytes);
    bytes
}

fn value(i: usize) -> f32 {
    ((i * 37 + 11) % 199) as f32 / 100.0 - 1.0
}

#[test]
fn input_rows_match_the_per_sample_scatter_and_sweep() {
    // Three samples: feature 3 in all of them, feature 7 in sample 1 alone,
    // sample 2 listing its features out of order.
    let mut batch = SparseBatch::new();
    batch.push(&[3, 5], &[0.5, -1.25]);
    batch.push(&[3, 7, 9], &[2.0, 0.75, -0.5]);
    batch.push(&[9, 3], &[1.5, -0.25]);
    let n = batch.len();
    let ks = KernelSet::resolve();
    let pool = ThreadPool::new(2);
    let configs = [
        (Precision::Fp32, true),
        (Precision::Bf16Activations, true),
        (Precision::Bf16Both, true),
        (Precision::Fp32, false),
    ];
    for (precision, coalesced) in configs {
        let what = format!("{precision:?} coalesced={coalesced}");
        let store = BatchStore::from_batch(&batch, coalesced);
        let (net, oracle) = (network(precision, coalesced), network(precision, coalesced));
        let mut pass = BatchPass::new(&net, pool.workers());
        // Post-ReLU activations, a quarter of them zero.
        pass.h = (0..n * COLS)
            .map(|i| if i % 4 == 0 { 0.0 } else { value(i).abs() })
            .collect();
        pass.active = vec![vec![0]; n];
        for t in 1..=2u64 {
            for (w, buf) in pass.workers.iter_mut().enumerate() {
                buf.dx = (0..n * COLS)
                    .map(|i| value(i + 1000 * w + 97 * t as usize))
                    .collect();
            }
            let scale = 1.0 / (n as f32 + t as f32);
            let step = AdamStep::bias_corrected(0.05, 0.9, 0.999, 1e-8, t);
            pass.input_step(&net, &pool, &ks, &store, scale, step);

            let p = oracle.input().params();
            let mut grads: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
            let mut gb = vec![0.0; COLS];
            for s in 0..n {
                let row = s * COLS..(s + 1) * COLS;
                let mut dy = pass.workers[0].dx[row.clone()].to_vec();
                for (d, &x) in dy.iter_mut().zip(&pass.workers[1].dx[row.clone()]) {
                    *d += x;
                }
                relu_backward_mask(&pass.h[row], &mut dy);
                for (j, v) in store.get(s).iter() {
                    let g = grads.entry(j).or_insert_with(|| vec![0.0; COLS]);
                    ks.axpy(v * scale, &dy, g);
                }
                ks.axpy(scale, &dy, &mut gb);
            }
            assert_eq!(grads.keys().copied().collect::<Vec<_>>(), [3, 5, 7, 9]);
            // SAFETY: single-threaded; each row once.
            unsafe {
                for (&r, g) in &grads {
                    p.step_row(r as usize, g, step);
                }
                p.step_bias(&gb, step);
            }
            let (got, want) = (export(net.input().params()), export(p));
            assert!(got == want, "{what}: step {t} diverged from the oracle");
        }
        let fresh = export(network(precision, coalesced).input().params());
        assert!(
            export(net.input().params()) != fresh,
            "{what}: nothing moved"
        );
    }
}

#[test]
fn uniform_active_sets_are_labels_plus_negatives_at_any_thread_count() {
    let data = generate_synthetic(&slide_data::SynthConfig {
        feature_dim: 16,
        label_dim: 32,
        n_train: 24,
        n_test: 1,
        labels_per_sample: 2,
        ..Default::default()
    })
    .train;
    let indices: Vec<u32> = (0..data.len() as u32).collect();
    let mut batch = SparseBatch::new();
    for &i in &indices {
        let x = data.features(i as usize);
        batch.push(x.indices, x.values);
    }
    let store = BatchStore::from_batch(&batch, true);
    let net = network(Precision::Fp32, true);
    let sets = ActiveSets::Uniform { negatives: 5 };
    let run = |threads: usize, salt_base: u64| {
        let pool = ThreadPool::new(threads);
        let mut scratches: Vec<_> = (0..threads).map(|_| net.make_scratch()).collect();
        let mut pass = BatchPass::new(&net, threads);
        pass.forward(
            &net,
            &pool,
            &mut scratches,
            &store,
            &data,
            &indices,
            sets,
            salt_base,
        );
        pass.active
    };
    let one = run(1, 1 << 20);
    for (i, active) in one.iter().enumerate() {
        let labels = data.labels(i);
        assert_eq!(&active[..labels.len()], labels, "sample {i}: labels first");
        assert_eq!(active.len(), labels.len() + 5, "sample {i}: plus 5");
        let mut rows = active.clone();
        rows.sort_unstable();
        rows.dedup();
        assert_eq!(rows.len(), active.len(), "sample {i}: distinct rows");
    }
    assert_eq!(run(2, 1 << 20), one, "the draw depends on the salt alone");
    assert_ne!(run(1, 2 << 20), one, "another batch draws other rows");
}

#[test]
fn row_csr_lists_rows_ascending_with_their_samples_ascending() {
    let mut csr = RowCsr::default();
    let lists: [&[u32]; 3] = [&[4, 1], &[], &[1, 9, 4]];
    for _ in 0..2 {
        csr.build(10, lists.iter().copied());
        assert_eq!(csr.rows, [1, 4, 9]);
        assert_eq!(csr.row_start, [0, 2, 4, 5]);
        assert_eq!(csr.pair_start, [0, 2, 2, 5]);
        assert_eq!(csr.samples, [0, 2, 0, 2, 2]);
        assert_eq!(csr.entry_of, [2, 0, 1, 4, 3]);
        assert_entries_hold_their_pairs(&csr, &lists);
        // The counts are zero again, so a second build sees the same batch.
        assert!(csr.counts.iter().all(|&c| c == 0));
    }
}

/// `entry_of` is a permutation of the entries, and pair `p` (item `k` of
/// sample `s`'s list, row `r`) sits at an entry of sample `s` inside row
/// `r`'s range.
fn assert_entries_hold_their_pairs(csr: &RowCsr, lists: &[&[u32]]) {
    let mut seen = vec![false; csr.samples.len()];
    assert_eq!(csr.entry_of.len(), seen.len(), "one entry per pair");
    for (s, list) in lists.iter().enumerate() {
        assert_eq!(csr.entries_of(s).len(), list.len(), "sample {s}'s pairs");
        for (&e, &r) in csr.entries_of(s).iter().zip(list.iter()) {
            let e = e as usize;
            assert!(!std::mem::replace(&mut seen[e], true), "entry {e} twice");
            assert_eq!(csr.samples[e] as usize, s, "entry {e}'s sample");
            let i = csr.rows.binary_search(&r).expect("a listed row is touched");
            let range = csr.row_start[i] as usize..csr.row_start[i + 1] as usize;
            assert!(range.contains(&e), "entry {e} outside row {r}'s {range:?}");
        }
    }
}

#[test]
fn row_csr_entry_of_places_every_pair_in_its_row() {
    let mut state = 0x9e37_79b9_u32;
    let mut next = |below: u32| {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (state >> 8) % below
    };
    // 40 samples of up to 11 rows out of 50, some of them empty.
    let lists: Vec<Vec<u32>> = (0..40)
        .map(|_| (0..next(12)).map(|_| next(50)).collect())
        .collect();
    let lists: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
    let mut csr = RowCsr::default();
    csr.build(50, lists.iter().copied());
    assert_entries_hold_their_pairs(&csr, &lists);
    for (&r, at) in csr.rows.iter().zip(csr.row_start.windows(2)) {
        let samples = &csr.samples[at[0] as usize..at[1] as usize];
        assert!(samples.is_sorted(), "row {r}: samples ascending");
    }
}
