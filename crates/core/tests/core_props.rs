//! Property tests for the SLIDE engine: scratch-structure invariants,
//! softmax contracts, training-side-effect invariants, and checkpoint
//! robustness under corruption (failure injection).

use proptest::prelude::*;
use slide_core::{
    load_checkpoint, save_checkpoint, softmax_into, LshConfig, Network, NetworkConfig, StampSet,
};
use slide_mem::SparseVecRef;
use std::collections::HashSet;

fn tiny_network(seed: u64) -> Network {
    let mut cfg = NetworkConfig::standard(64, 12, 40);
    cfg.lsh = LshConfig {
        tables: 8,
        key_bits: 4,
        min_active: 12,
        ..Default::default()
    };
    cfg.seed = seed;
    Network::new(cfg).expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stamp_set_matches_hashset_model(
        ops in prop::collection::vec((0u32..50, any::<bool>()), 0..200)
    ) {
        let mut stamps = StampSet::new(50);
        stamps.begin();
        let mut model: HashSet<u32> = HashSet::new();
        for (id, reset) in ops {
            if reset {
                stamps.begin();
                model.clear();
            } else {
                let fresh_stamp = stamps.insert(id);
                let fresh_model = model.insert(id);
                prop_assert_eq!(fresh_stamp, fresh_model, "id {}", id);
                prop_assert!(stamps.contains(id));
            }
        }
    }

    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-30.0f32..30.0, 1..64)) {
        let mut probs = Vec::new();
        let log_z = softmax_into(&logits, &mut probs);
        prop_assert_eq!(probs.len(), logits.len());
        let sum: f32 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "sum {}", sum);
        prop_assert!(probs.iter().all(|&p| (0.0..=1.0001).contains(&p)));
        prop_assert!(log_z.is_finite());
        // Argmax of probs equals argmax of logits.
        let max_l = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let max_p = probs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let arg_l = logits.iter().position(|&v| v == max_l).unwrap();
        prop_assert!((probs[arg_l] - max_p).abs() < 1e-6);
    }

    #[test]
    fn train_sample_leaves_every_exported_byte_unchanged(
        seed in any::<u64>(),
        label in 0u32..40,
        nnz in prop::collection::btree_set(0u32..64, 1..8),
        scale in 0.0f32..2.0,
    ) {
        // train_sample computes a sample's loss and gradients and writes no
        // parameter: weights, biases and ADAM moments of both layers keep
        // every byte, whatever the (ignored) scale.
        let net = tiny_network(seed);
        let indices: Vec<u32> = nnz.into_iter().collect();
        let values: Vec<f32> = indices.iter().map(|&i| (i as f32) * 0.1 + 0.5).collect();
        let x = SparseVecRef::new(&indices, &values);
        let export = |net: &Network| {
            let mut bytes = Vec::new();
            net.input().params().export_into(&mut bytes);
            net.output().params().export_into(&mut bytes);
            bytes
        };
        let before = export(&net);
        let mut scratch = net.make_scratch();
        let loss = net.train_sample(x, &[label], &mut scratch, scale, 1, 0);
        prop_assert!(loss.is_finite() && loss > 0.0);
        prop_assert!(scratch.probs.iter().any(|&d| d != 0.0), "deltas computed");
        prop_assert!(export(&net) == before, "a parameter byte moved");
    }

    #[test]
    fn corrupted_checkpoints_error_instead_of_panicking(
        flip_at in any::<prop::sample::Index>(),
        truncate_to in any::<prop::sample::Index>(),
        mode in 0u8..3,
    ) {
        let net = tiny_network(1);
        let mut bytes = Vec::new();
        save_checkpoint(&net, &mut bytes).unwrap();
        match mode {
            0 => {
                // Bit flip somewhere.
                let i = flip_at.index(bytes.len());
                bytes[i] ^= 0x40;
            }
            1 => {
                // Truncation.
                let n = truncate_to.index(bytes.len());
                bytes.truncate(n);
            }
            _ => {
                // Garbage prefix.
                bytes[0] ^= 0xFF;
            }
        }
        let mut target = tiny_network(1);
        // Must never panic; flipped payload bytes may still load (weights
        // are arbitrary f32s), structural damage must error.
        let _ = load_checkpoint(&mut target, &bytes[..]);
    }

    #[test]
    fn prediction_topk_is_sorted_and_unique(
        seed in any::<u64>(),
        k in 1usize..10,
        nnz in prop::collection::btree_set(0u32..64, 1..8),
    ) {
        let net = tiny_network(seed);
        let indices: Vec<u32> = nnz.into_iter().collect();
        let values: Vec<f32> = indices.iter().map(|&i| 1.0 + (i as f32) * 0.01).collect();
        let mut scratch = net.make_scratch();
        let topk = net.predict(SparseVecRef::new(&indices, &values), k, &mut scratch, true, 0);
        prop_assert_eq!(topk.len(), k.min(40));
        let unique: HashSet<_> = topk.iter().collect();
        prop_assert_eq!(unique.len(), topk.len(), "duplicates in top-k");
        prop_assert!(topk.iter().all(|&t| (t as usize) < 40));
    }
}
