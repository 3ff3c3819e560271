//! The paper-shaped fixtures: datasets generated from `--seed`, and the
//! network and trainer configurations, fixed here so that no product change
//! can move the benchmark's inputs.

use crate::harness::SplitMix;
use slide_core::{HashFamilyKind, NetworkConfig, TrainerConfig};
use slide_data::{generate_synthetic, generate_text, Dataset, SynthConfig, TextConfig};

/// Which of the two model shapes a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Amazon-670K-shaped extreme classification: 26 624 sparse features
    /// (~67 non-zeros), 106 496 labels x 128 — the output layer ROADMAP
    /// item 1a asks for, where gather kernels and retrieval do the work.
    Xc,
    /// Text8-shaped skip-gram: one-hot input over an 8 192-word vocabulary,
    /// ~4 context labels, hidden 200 — hashing and rebuilds do the work.
    W2v,
}

impl Shape {
    /// Generate the train/test pair for `seed`.
    pub fn dataset(self, seed: u64) -> (Dataset, Dataset) {
        let salt = SplitMix(seed).next_u64();
        match self {
            Shape::Xc => {
                let mut cfg = SynthConfig::amazon_670k_scaled(13);
                cfg.seed ^= salt;
                let d = generate_synthetic(&cfg);
                (d.train, d.test)
            }
            Shape::W2v => {
                let mut cfg = TextConfig::text8_scaled(2);
                cfg.corpus_len = 48_000;
                cfg.seed ^= salt;
                let d = generate_text(&cfg);
                (d.train, d.test)
            }
        }
    }

    /// Network configuration: the paper's per-dataset §5.3 choices with `L`
    /// scaled to the smaller label spaces (the values `slide-bench`'s
    /// `Workload::{Amazon670k, Text8}` use, copied so they stay fixed).
    pub fn network_config(self, train: &Dataset) -> NetworkConfig {
        let hidden = match self {
            Shape::Xc => 128,
            Shape::W2v => 200,
        };
        let mut cfg = NetworkConfig::standard(train.feature_dim(), hidden, train.label_dim());
        match self {
            Shape::Xc => {
                cfg.lsh.family = HashFamilyKind::Dwta { bin_size: 16 };
                cfg.lsh.key_bits = 6;
                cfg.lsh.tables = 24;
                cfg.lsh.bucket_cap = 128;
                cfg.lsh.min_active = 128;
            }
            Shape::W2v => {
                cfg.lsh.family = HashFamilyKind::SimHash;
                cfg.lsh.key_bits = 9;
                cfg.lsh.tables = 25;
                cfg.lsh.bucket_cap = 64;
                cfg.lsh.min_active = 96;
            }
        }
        cfg
    }

    /// Trainer configuration; `threads` is a constant of the workload, never
    /// "all cores".
    pub fn trainer_config(self, threads: usize) -> TrainerConfig {
        let (batch_size, learning_rate) = match self {
            Shape::Xc => (128, 3e-3),
            Shape::W2v => (256, 1e-3),
        };
        TrainerConfig {
            batch_size,
            learning_rate,
            threads,
            ..Default::default()
        }
    }
}

/// Full batches of sample indices in a seeded shuffled order, epoch after
/// epoch. The benchmark draws the order itself; the trainer receives only
/// the index lists.
pub struct BatchFeed {
    order: Vec<u32>,
    batch_size: usize,
    pos: usize,
    rng: SplitMix,
}

impl BatchFeed {
    /// A feed over `n` samples.
    pub fn new(n: usize, batch_size: usize, seed: u64) -> Self {
        assert!(
            n >= batch_size && batch_size > 0,
            "dataset smaller than one batch"
        );
        let mut feed = BatchFeed {
            order: (0..n as u32).collect(),
            batch_size,
            pos: 0,
            rng: SplitMix(seed ^ 0xBA7C_4FEE_D000_0001),
        };
        feed.shuffle();
        feed
    }

    fn shuffle(&mut self) {
        for i in (1..self.order.len()).rev() {
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            self.order.swap(i, j);
        }
        self.pos = 0;
    }

    /// The next full batch (a short tail is dropped so every batch is the
    /// same amount of work).
    pub fn next_batch(&mut self) -> &[u32] {
        if self.pos + self.batch_size > self.order.len() {
            self.shuffle();
        }
        let b = &self.order[self.pos..self.pos + self.batch_size];
        self.pos += self.batch_size;
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_feed_is_seeded_full_and_crosses_epochs() {
        let take = |seed| {
            let mut f = BatchFeed::new(10, 4, seed);
            (0..5).map(|_| f.next_batch().to_vec()).collect::<Vec<_>>()
        };
        let a = take(1);
        assert_eq!(a, take(1));
        assert_ne!(a, take(2));
        assert!(a.iter().all(|b| b.len() == 4 && b.iter().all(|&i| i < 10)));
        // Two batches per epoch (the tail of 2 is dropped): batches 0 and 1
        // are disjoint.
        assert!(a[0].iter().all(|i| !a[1].contains(i)));
    }

    #[test]
    fn same_seed_same_dataset() {
        let (a, _) = Shape::W2v.dataset(3);
        let (b, _) = Shape::W2v.dataset(3);
        let (c, _) = Shape::W2v.dataset(4);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.features(0).indices, b.features(0).indices);
        assert_eq!(a.labels(17), b.labels(17));
        assert!((0..50).any(|i| a.labels(i) != c.labels(i)));
    }
}
