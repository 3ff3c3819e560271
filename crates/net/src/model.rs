//! Deterministic fleet fixtures: every replica process (and every test)
//! that builds a model from the same [`FleetSpec`] gets **bit-identical
//! weights**, so a router can fail a request over between replicas and the
//! client cannot tell the difference.
//!
//! Determinism is by construction: a fixed-seed synthetic dataset, a
//! fixed-seed network init, and single-threaded training (the row-owned
//! batch pass with one worker is bit-reproducible, so the whole pipeline
//! is under `threads: 1`).

use slide_core::{LshConfig, Network, NetworkConfig, Trainer, TrainerConfig};
use slide_data::{generate_synthetic, Dataset, SynthConfig};
use slide_serve::{FrozenModel, ShardPlan, Snapshot, SnapshotPrecision, SnapshotSpec};
use std::sync::Arc;

/// Everything needed to reproduce one replica's model bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Master seed for data generation and network init.
    pub seed: u64,
    /// Frozen-engine precision.
    pub precision: SnapshotPrecision,
    /// Output-layer shards (0 or 1 = unsharded).
    pub shards: usize,
    /// Training epochs (single-threaded; keep small).
    pub epochs: usize,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            seed: 0xF1EE7,
            precision: SnapshotPrecision::F32,
            shards: 0,
            epochs: 1,
        }
    }
}

impl FleetSpec {
    /// The synthetic workload every fleet fixture trains and serves on:
    /// small enough that three replica processes can each rebuild it in
    /// well under a second, structured enough that top-k answers are
    /// non-trivial.
    pub fn synth_config(&self) -> SynthConfig {
        SynthConfig {
            feature_dim: 256,
            label_dim: 96,
            n_train: 1024,
            n_test: 192,
            proto_nnz: 16,
            keep_fraction: 0.7,
            noise_nnz: 4,
            labels_per_sample: 2,
            zipf_exponent: 0.7,
            seed: self.seed,
        }
    }

    pub(crate) fn network_config(&self) -> NetworkConfig {
        let synth = self.synth_config();
        let mut cfg = NetworkConfig::standard(synth.feature_dim, 32, synth.label_dim);
        cfg.seed = self.seed ^ 0x5EED;
        cfg.lsh = LshConfig {
            tables: 8,
            key_bits: 4,
            min_active: 16,
            ..Default::default()
        };
        cfg
    }

    /// A fresh trainer over this spec's network: single-threaded, fixed
    /// seeds, so every trainer built from one spec takes the same steps.
    ///
    /// # Panics
    ///
    /// Panics if the fixed spec constants are rejected by config
    /// validation — impossible unless the spec itself is broken.
    pub(crate) fn trainer(&self) -> Trainer {
        let net = Network::new(self.network_config()).expect("fleet spec network config");
        let cfg = TrainerConfig {
            batch_size: 128,
            threads: 1, // sequential SGD ⇒ bit-reproducible weights
            shuffle_seed: self.seed ^ 0x5467,
            ..Default::default()
        };
        Trainer::new(net, cfg).expect("fleet spec trainer config")
    }

    /// Train the deterministic network (single-threaded, fixed seeds).
    ///
    /// # Panics
    ///
    /// Panics if the fixed spec constants are rejected by config
    /// validation — impossible unless the spec itself is broken.
    pub fn train(&self) -> (Network, Dataset) {
        let synth = generate_synthetic(&self.synth_config());
        let mut trainer = self.trainer();
        for epoch in 0..self.epochs as u64 {
            trainer.train_epoch(&synth.train, epoch);
        }
        (trainer.into_network(), synth.test)
    }

    /// The [`SnapshotSpec`] equivalent of this spec's precision/shard axes.
    ///
    /// # Panics
    ///
    /// Panics if the shard count is invalid for the fixed label dimension —
    /// impossible unless the spec itself is broken.
    pub fn snapshot_spec(&self) -> SnapshotSpec {
        let base = SnapshotSpec {
            precision: self.precision,
            shard_plan: None,
        };
        match self.shards {
            0 | 1 => base,
            n => base.sharded(
                ShardPlan::contiguous(n, self.synth_config().label_dim).expect("fleet shard plan"),
            ),
        }
    }

    /// Freeze `net` into the engine this spec calls for: the engine views
    /// the image [`FleetSpec::snapshot`] cuts, so every replica serves
    /// exactly what a registry publish of the same network would serve —
    /// the same bytes, viewed the same way (every serving engine is built
    /// network → image → view).
    ///
    /// # Panics
    ///
    /// Panics if the fixed spec constants produce an unservable snapshot —
    /// impossible unless the spec itself is broken.
    pub fn freeze(&self, net: &Network) -> Arc<dyn FrozenModel> {
        self.snapshot(net)
            .model()
            .expect("fleet snapshot instantiates")
    }

    /// Cut the publishable [`Snapshot`] of `net` under this spec — what a
    /// trainer would hand to `ModelRegistry::publish` for the fleet to
    /// cold-start from.
    ///
    /// # Panics
    ///
    /// As [`FleetSpec::freeze`].
    pub fn snapshot(&self, net: &Network) -> Snapshot {
        Snapshot::build(net, &self.snapshot_spec()).expect("fleet snapshot builds")
    }

    /// Train + freeze + the test-split query battery, in one call — what
    /// `slide_netd`, `net_bench`, and the parity tests all share.
    pub fn build(&self) -> (Arc<dyn FrozenModel>, Dataset) {
        let (net, test) = self.train();
        (self.freeze(&net), test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slide_mem::SparseVecRef;
    use slide_serve::query_salt;

    #[test]
    fn same_spec_builds_bit_identical_models() {
        let spec = FleetSpec {
            epochs: 1,
            ..Default::default()
        };
        let (a, test_a) = spec.build();
        let (b, test_b) = spec.build();
        assert_eq!(test_a.len(), test_b.len());
        let mut sa = a.make_scratch_any();
        let mut sb = b.make_scratch_any();
        for i in 0..8 {
            let x = test_a.features(i);
            let salt = query_salt(x.indices, x.values, 5);
            let ta = a.predict_any(SparseVecRef::new(x.indices, x.values), 5, &mut *sa, salt);
            let tb = b.predict_any(SparseVecRef::new(x.indices, x.values), 5, &mut *sb, salt);
            assert_eq!(ta, tb, "query {i} diverged between rebuilds");
        }
    }

    #[test]
    fn precision_and_shard_axes_build() {
        let (net, _) = FleetSpec::default().train();
        for (precision, shards, label) in [
            (SnapshotPrecision::F32, 0, "f32"),
            (SnapshotPrecision::I8, 0, "i8"),
            (SnapshotPrecision::F32, 3, "f32"),
            (SnapshotPrecision::I8, 3, "i8"),
        ] {
            let spec = FleetSpec {
                precision,
                shards,
                ..Default::default()
            };
            let model = spec.freeze(&net);
            assert_eq!(model.precision(), label);
            assert_eq!(model.output_dim(), 96);
        }
    }
}
