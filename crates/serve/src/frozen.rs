//! The one frozen inference engine.
//!
//! Training needs row-owned writes into its parameters, ADAM moments, and
//! hash tables rebuilt to follow the drifting weights. Serving needs none
//! of that: an [`Engine`] views a verified `.slsnap` image — contiguous,
//! 64-byte-aligned, row-padded arenas (the Figure-3 flat-layout discipline,
//! minus every mutable companion array) and LSH tables built once from the
//! frozen weights — and answers queries through `&self` with zero locks and
//! zero allocation on the hot path, safe to share across any number of
//! threads via `Arc`. There is one way to build one: network → image →
//! view. [`Engine::freeze`] writes the image in memory, `load` maps it from
//! disk, and both run [`Engine::from_image`] over it, so a built engine and
//! a loaded one are the same by construction.
//!
//! Every serving variant is this one loop — forward the input layer to the
//! hidden activation, LSH-retrieve an active set, gather-score its rows,
//! top-k — so there is one implementation of it, generic over the row
//! storage format ([`RowLayout`]: f32 [`FrozenLayer`] or int8
//! [`QuantizedLayer`]) and over the shard count `N ≥ 1` of the output
//! arena.

use crate::layer::{Act, FrozenLayer, QuantReport, QuantizedLayer, RowLayout};
use crate::shard::ShardPlan;
use crate::snapshot::{
    carries_report, decode_preamble, decode_tables, serving_plan, SectionKind, Snapshot,
    SnapshotError, SnapshotImage, SnapshotPrecision, SnapshotSpec,
};
use slide_core::{relu, Network, NetworkConfig, Precision, Retrieval, SelectBuffers, StampSet};
use slide_data::top_k_indices;
use slide_hash::{LshScratch, LshTables, TableStats};
use slide_mem::{AlignedVec, SparseVecRef};
use slide_obs::StageSample;
use slide_simd::{KernelSet, RowGather};
use std::time::Instant;

/// One output-layer shard: the arena of the rows it owns and its first
/// global row (global row `g` is arena row `g - start`).
#[derive(Debug)]
struct Shard<L> {
    layer: L,
    start: u32,
}

/// An immutable, share-everywhere inference snapshot of a trained
/// [`Network`], viewed out of its `.slsnap` image:
///
/// * the f32 **sparse-input layer**, run once per query to produce the
///   hidden activation `h`;
/// * **`N ≥ 1` shards** of the output layer, each a row-subset arena in
///   layout `L` and its first global row;
/// * one [`LshTables`] over every output row — for an engine loaded from
///   disk, the image's CSR sections viewed in place;
/// * one [`Retrieval`] — the LSH family and pad/cap policy the trainer's
///   output layer selects with, over tables and a pad stream of its own.
///
/// A query hashes `h` once (and, for lossy layouts, quantizes it once),
/// probes the tables, dedups the candidates into one active list, caps it
/// at `max_active`, pads it deterministically up to `min_active`,
/// gather-scores every active row in one fused kernel call — the row
/// pointers simply point into whichever shard's arena owns the row — and
/// takes the top-k. Shards run inline on the calling thread: batch-level
/// parallelism belongs to [`crate::BatchingServer`].
///
/// # The active list does not depend on `N`
///
/// Retrieval never sees the shards: the one table set, the one dedup stamp
/// and the one pad stream give every `N` the same ordered active list, so
/// `max_active` and exact ties agree with [`Engine::freeze`]'s one-shard
/// engine. Every score kernel computes a row's score independently of its
/// position in the gathered list (the kernel-variant equivalence suite
/// enforces it), so the same list gives the same logits and the same top-k.
///
/// # Examples
///
/// ```
/// use slide_core::{Network, NetworkConfig};
/// use slide_serve::{FrozenNetwork, ShardPlan, Snapshot, SnapshotSpec};
///
/// let net = Network::new(NetworkConfig::standard(256, 16, 64)).unwrap();
/// let idx = [1u32, 17];
/// let val = [1.0f32, 0.5];
/// let x = slide_mem::SparseVecRef::new(&idx, &val);
///
/// let frozen = FrozenNetwork::freeze(&net);
/// let mut scratch = frozen.make_scratch();
/// let topk = frozen.predict_sparse(x, 5, &mut scratch, 0);
/// assert_eq!(topk.len(), 5);
///
/// let plan = ShardPlan::contiguous(4, 64).unwrap();
/// let snapshot = Snapshot::build(&net, &SnapshotSpec::f32().sharded(plan)).unwrap();
/// let sharded = FrozenNetwork::from_image(snapshot.image()).unwrap();
/// let mut scratch = sharded.make_scratch();
/// assert_eq!(sharded.predict_sparse(x, 5, &mut scratch, 0), topk);
/// ```
#[derive(Debug)]
pub struct Engine<L: RowLayout> {
    config: NetworkConfig,
    plan: ShardPlan,
    input: FrozenLayer,
    shards: Vec<Shard<L>>,
    pub(crate) tables: LshTables,
    retrieval: Retrieval,
    report: QuantReport,
}

/// The f32 engine.
pub type FrozenNetwork = Engine<FrozenLayer>;

/// The int8 engine: output rows are per-row symmetric i8 codes;
/// the sparse-input layer and LSH retrieval stay f32 (see
/// [`QuantizedLayer`]), so it retrieves exactly what [`FrozenNetwork`] does.
///
/// # Examples
///
/// ```
/// use slide_core::{Network, NetworkConfig};
/// use slide_serve::QuantizedFrozenNetwork;
///
/// let net = Network::new(NetworkConfig::standard(256, 16, 64)).unwrap();
/// let quant = QuantizedFrozenNetwork::freeze(&net);
/// assert!(quant.arena_bytes() > 0);
/// let mut scratch = quant.make_scratch();
/// let idx = [1u32, 17];
/// let val = [1.0f32, 0.5];
/// let topk = quant.predict_sparse(slide_mem::SparseVecRef::new(&idx, &val), 5, &mut scratch, 0);
/// assert_eq!(topk.len(), 5);
/// // The error report was filled in at freeze time (one entry per
/// // quantized layer; `standard` has just the output layer):
/// assert!(quant.report().within_theoretical_bounds());
/// ```
pub type QuantizedFrozenNetwork = Engine<QuantizedLayer>;

/// Per-caller mutable state for [`Engine`] queries. Allocate one per serving
/// thread ([`Engine::make_scratch`]) and reuse it: the steady-state query
/// path performs no heap allocation besides the returned top-k vector. The
/// type does not depend on the layout, so a worker's scratch survives a
/// precision hot-swap between same-shape engines.
#[derive(Debug)]
pub struct ServeScratch {
    /// The hidden activation (aligned), as the one entry of a per-layer
    /// list.
    pub acts: Vec<AlignedVec<f32>>,
    /// u8 codes of the hidden activation (lossy layouts only).
    qacts: AlignedVec<u8>,
    /// [`Retrieval::select`]'s buffers besides `active` (see
    /// [`SelectBuffers`]).
    lsh: LshScratch,
    keys: Vec<u32>,
    candidates: Vec<u32>,
    dedup: StampSet,
    /// Active output neurons for the current query, in retrieval order
    /// (inspection hook).
    pub active: Vec<u32>,
    logits: Vec<f32>,
    /// Arena row index of every active row within the shard that owns it.
    locals: Vec<u32>,
    /// Bias of every active row, staged beside its gathered row.
    biases: Vec<f32>,
    /// Row-gather pointer list for the fused active-set scoring kernel.
    gather: RowGather,
    /// Kernel dispatch table, resolved once per scratch (≈ once per serving
    /// thread per snapshot) so the query hot path carries no policy loads.
    kernels: KernelSet,
}

impl<L: RowLayout> Engine<L> {
    /// Snapshot `net` into an unsharded serving engine:
    /// [`Snapshot::build`] under this layout's precision, then
    /// [`Engine::from_image`] over the built image. The engine views the
    /// image, so it is the engine a `load` of the saved image serves.
    pub fn freeze(net: &Network) -> Self {
        let spec = SnapshotSpec {
            precision: L::PRECISION,
            shard_plan: None,
        };
        Snapshot::build(net, &spec)
            .and_then(|snapshot| Self::from_image(snapshot.image()))
            .expect("an unsharded image of a valid network serves")
    }

    /// Instantiate the engine an image of this layout describes — the one
    /// constructor: every arena and the one global table set are views into
    /// the image (zero copies), whatever the shard count.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] if the image holds another layout;
    /// [`SnapshotError::Corrupt`] on section-shape disagreements.
    pub fn from_image(image: &SnapshotImage) -> Result<Self, SnapshotError> {
        if image.precision() != L::PRECISION {
            return Err(SnapshotError::Unsupported(format!(
                "an {} image cannot back an {} engine",
                image.precision().label(),
                L::PRECISION.label()
            )));
        }
        let (config, spec, manifest) = decode_preamble(image)?;
        let plan = serving_plan(&config, spec.shard_plan)?;
        let input = FrozenLayer::decode(image, 0, manifest[0])?;
        let shards = (1..manifest.len())
            .map(|o| {
                Ok(Shard {
                    layer: L::decode(image, o as u32, manifest[o])?,
                    start: plan.shard_rows(o - 1).start,
                })
            })
            .collect::<Result<_, SnapshotError>>()?;
        let retrieval = Retrieval::serving(&config);
        let tables = decode_tables(image, &retrieval)?;
        let report = if carries_report::<L>(&spec) {
            QuantReport::decode(image.bytes(SectionKind::QuantReport, 0)?)?
        } else {
            QuantReport::default()
        };
        Ok(Engine {
            config,
            plan,
            input,
            shards,
            tables,
            retrieval,
            report,
        })
    }

    /// The configuration of the network this snapshot was frozen from.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The output layer's row-partitioning plan (one shard when unsharded).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Storage-precision label for logs and stats views (see
    /// [`crate::FrozenModel::precision`]).
    pub fn precision_label(&self) -> &'static str {
        match (L::PRECISION, self.config.precision) {
            (SnapshotPrecision::I8, _) => "i8",
            // bf16-activations trains with f32 weights; the snapshot is a
            // plain f32 copy.
            (SnapshotPrecision::F32, Precision::Fp32 | Precision::Bf16Activations) => "f32",
            (SnapshotPrecision::F32, Precision::Bf16Both) => "bf16-widened-f32",
        }
    }

    /// Sparse input dimensionality accepted by queries.
    pub fn input_dim(&self) -> usize {
        self.input.rows()
    }

    /// Output (label) dimensionality, across all shards.
    pub fn output_dim(&self) -> usize {
        self.plan.rows()
    }

    /// The frozen f32 sparse-input layer.
    pub fn input_layer(&self) -> &FrozenLayer {
        &self.input
    }

    /// The arena of output shard `s` (row access for equivalence tests and
    /// inspection; shard 0 is the whole output layer when unsharded).
    pub fn shard_layer(&self, s: usize) -> &L {
        &self.shards[s].layer
    }

    /// The per-layer quantization-error report the image carries: one
    /// entry for an unsharded i8 engine, empty for the f32 layout and for
    /// sharded images (`.slsnap` v1 keeps the report only in unsharded
    /// ones). A built engine and a loaded one view the same image, so they
    /// report the same.
    pub fn report(&self) -> &QuantReport {
        &self.report
    }

    /// Occupancy statistics of the frozen hash tables.
    pub fn table_stats(&self) -> TableStats {
        self.tables.stats()
    }

    /// Total bytes held in weight/bias/scale arenas across the input layer
    /// and the shards.
    pub fn arena_bytes(&self) -> usize {
        self.input.arena_bytes()
            + self
                .shards
                .iter()
                .map(|s| s.layer.arena_bytes())
                .sum::<usize>()
    }

    /// Allocate query scratch sized for this snapshot.
    pub fn make_scratch(&self) -> ServeScratch {
        let hidden = self.input.cols();
        let family = self.retrieval.family();
        ServeScratch {
            acts: vec![AlignedVec::zeroed(hidden)],
            qacts: AlignedVec::zeroed(hidden),
            lsh: family.make_scratch(),
            keys: vec![0; family.tables()],
            candidates: Vec::with_capacity(1024),
            dedup: StampSet::new(self.output_dim()),
            active: Vec::with_capacity(1024),
            logits: Vec::with_capacity(1024),
            locals: Vec::with_capacity(1024),
            biases: Vec::with_capacity(1024),
            gather: RowGather::default(),
            kernels: KernelSet::resolve(),
        }
    }

    /// Check that a query fits this snapshot's input space: matching
    /// index/value lengths, every index in range, every value finite (a NaN
    /// or ±inf feature poisons every logit and the ranking of garbage is
    /// not an answer).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending index, value, or length
    /// mismatch.
    pub fn validate_query(&self, indices: &[u32], values: &[f32]) -> Result<(), String> {
        if indices.len() != values.len() {
            return Err(format!(
                "query index/value length mismatch: {} vs {}",
                indices.len(),
                values.len()
            ));
        }
        let dim = self.input.rows() as u32;
        if let Some(&bad) = indices.iter().find(|&&i| i >= dim) {
            return Err(format!("query feature index {bad} >= input_dim {dim}"));
        }
        if let Some(at) = values.iter().position(|v| !v.is_finite()) {
            return Err(format!(
                "query feature value {} at position {at} is not finite",
                values[at]
            ));
        }
        Ok(())
    }

    /// Run the input layer, leaving the hidden activation in
    /// `scratch.acts[0]`: f32 axpy over the sparse-input arena, then ReLU.
    ///
    /// # Panics
    ///
    /// Panics if a feature index is out of range or the scratch was built
    /// for a different shape.
    pub fn forward_hidden(&self, x: SparseVecRef<'_>, scratch: &mut ServeScratch) {
        let ks = scratch.kernels;
        let h = scratch.acts[0].as_mut_slice();
        h.copy_from_slice(self.input.bias());
        for (j, v) in x.iter() {
            ks.axpy(v, self.input.row(j as usize), h);
        }
        relu(h);
    }

    /// Build the active set for hidden activation `h` into `scratch.active`
    /// (see the type docs for the retrieve → dedup → cap → pad rule). `h` is
    /// copied into `scratch.acts[0]`, the activation a query selects for.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not as wide as the hidden layer.
    pub fn select_active(&self, h: &[f32], scratch: &mut ServeScratch, salt: u64) {
        scratch.acts[0].copy_from_slice(h);
        self.select_hidden(scratch, salt);
    }

    /// Build the active set for the hidden activation in `scratch.acts[0]`
    /// into `scratch.active`: the one selection call of the engine.
    fn select_hidden(&self, scratch: &mut ServeScratch, salt: u64) {
        let ServeScratch {
            acts,
            lsh,
            keys,
            candidates,
            dedup,
            active,
            ..
        } = scratch;
        let buf = SelectBuffers {
            lsh,
            keys,
            candidates,
            dedup,
            active,
        };
        self.retrieval
            .select(&self.tables, acts[0].as_slice(), &[], buf, salt);
    }

    /// Predict the top-`k` labels for one sparse input, scoring only the
    /// LSH-retrieved active set (SLIDE inference). Lock-free and `&self`:
    /// any number of threads may call this concurrently on the same
    /// snapshot, each with its own scratch. `salt` decorrelates the
    /// cold-table padding across queries.
    ///
    /// Returns up to `k` label ids, highest logit first (fewer than `k`
    /// only if the active set itself is smaller).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range feature indices (see
    /// [`Engine::validate_query`]) and if `k == 0`.
    pub fn predict_sparse(
        &self,
        x: SparseVecRef<'_>,
        k: usize,
        scratch: &mut ServeScratch,
        salt: u64,
    ) -> Vec<u32> {
        let mut stages = StageSample::default();
        self.predict_sparse_timed(x, k, scratch, salt, &mut stages)
    }

    /// [`Engine::predict_sparse`] with per-stage attribution for the
    /// observability trace path: input-layer forward + gather-scoring + top-k
    /// count as kernel time, hashing + table probes + dedup/cap/pad as
    /// retrieval time. Retrieval builds one global active list, so there is
    /// no merge pass and `merge_us` stays 0.
    pub fn predict_sparse_timed(
        &self,
        x: SparseVecRef<'_>,
        k: usize,
        scratch: &mut ServeScratch,
        salt: u64,
        stages: &mut StageSample,
    ) -> Vec<u32> {
        let t0 = Instant::now();
        self.forward_hidden(x, scratch);
        let t1 = Instant::now();
        self.select_hidden(scratch, salt);
        let t2 = Instant::now();

        let ServeScratch {
            acts,
            qacts,
            active,
            logits,
            locals,
            biases,
            gather,
            kernels,
            ..
        } = scratch;
        let h = acts[0].as_slice();
        let q = qacts.as_mut_slice();
        let scale = L::prepare(h, q);
        // One walk over the active list stages each row's arena row, local
        // index and bias, cutting a run where the owning shard changes. One
        // shard owns every row of the one-shard engine: its list is one run
        // and one gather, with no scan.
        locals.clear();
        biases.clear();
        gather.clear();
        let mut from = 0;
        while let Some(&first) = active.get(from) {
            let shard = &self.shards[self.shards.partition_point(|s| s.start <= first) - 1];
            let (start, rows, bias) = (shard.start, shard.layer.rows() as u32, shard.layer.bias());
            let run = &active[from..];
            let len = if self.shards.len() == 1 {
                run.len()
            } else {
                1 + run[1..]
                    .iter()
                    .take_while(|&&g| g.wrapping_sub(start) < rows)
                    .count()
            };
            locals.extend(run[..len].iter().map(|&g| g - start));
            biases.extend(locals[from..].iter().map(|&l| bias[l as usize]));
            shard.layer.gather(&locals[from..], gather);
            from += len;
        }
        logits.clear();
        logits.resize(active.len(), 0.0);
        // SAFETY: every staged row was gathered just above from a shard
        // arena `self` owns (alive for the call), and shard rows are as wide
        // as `h` (the manifest check at assembly).
        unsafe { L::score(kernels, gather, Act { x: h, q, scale }, logits) };
        for (z, &b) in logits.iter_mut().zip(biases.iter()) {
            *z += b;
        }
        let out = top_k_indices(logits, k.min(active.len().max(1)))
            .into_iter()
            .map(|i| active[i as usize])
            .collect();
        *stages = StageSample {
            retrieval_us: (t2 - t1).as_micros() as u64,
            kernel_us: ((t1 - t0) + t2.elapsed()).as_micros() as u64,
            merge_us: 0,
        };
        out
    }

    /// Predict the top-`k` labels scoring *every* output row (exact argmax;
    /// the accuracy reference for [`Engine::predict_sparse`] and the
    /// cross-level equivalence tests). Each shard sweeps its arena into its
    /// range of one dense global buffer, so tie-breaking follows global row
    /// order for every `N`.
    pub fn predict_full(
        &self,
        x: SparseVecRef<'_>,
        k: usize,
        scratch: &mut ServeScratch,
    ) -> Vec<u32> {
        self.forward_hidden(x, scratch);
        let ServeScratch {
            acts,
            qacts,
            logits,
            kernels,
            ..
        } = scratch;
        let h = acts[0].as_slice();
        let q = qacts.as_mut_slice();
        let scale = L::prepare(h, q);
        let act = Act { x: h, q, scale };
        logits.clear();
        logits.resize(self.plan.rows(), 0.0);
        for shard in &self.shards {
            let start = shard.start as usize;
            let range = start..start + shard.layer.rows();
            shard.layer.gemv(kernels, act, &mut logits[range]);
        }
        top_k_indices(logits, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrozenModel, ServeBuildError};
    use slide_core::LshConfig;

    fn tiny_net_seeded(seed: u64) -> Network {
        let mut cfg = NetworkConfig::standard(128, 16, 64);
        cfg.seed = seed;
        cfg.lsh = LshConfig {
            tables: 10,
            key_bits: 4,
            min_active: 16,
            ..Default::default()
        };
        Network::new(cfg).unwrap()
    }

    fn tiny_net() -> Network {
        tiny_net_seeded(NetworkConfig::standard(128, 16, 64).seed)
    }

    /// `net`'s engine of layout `L`, output layer sharded under `plan`.
    fn sharded_engine<L: RowLayout>(net: &Network, plan: ShardPlan) -> Engine<L> {
        let spec = SnapshotSpec {
            precision: L::PRECISION,
            shard_plan: None,
        };
        let snapshot = Snapshot::build(net, &spec.sharded(plan)).unwrap();
        Engine::from_image(snapshot.image()).unwrap()
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn frozen_is_send_sync() {
        assert_send_sync::<FrozenNetwork>();
    }

    #[test]
    fn quantized_is_send_sync() {
        assert_send_sync::<QuantizedFrozenNetwork>();
    }

    #[test]
    fn rows_are_cache_line_aligned() {
        let frozen = FrozenNetwork::freeze(&tiny_net());
        for r in [0usize, 1, 33, 63] {
            let row = frozen.shard_layer(0).row(r);
            assert_eq!(row.as_ptr() as usize % 64, 0, "row {r}");
        }
        assert!(frozen.arena_bytes() > 0);
    }

    #[test]
    fn rows_are_cache_line_aligned_and_codes_bounded() {
        let quant = QuantizedFrozenNetwork::freeze(&tiny_net());
        for r in [0usize, 1, 33, 63] {
            let codes = quant.shard_layer(0).row_q(r);
            assert_eq!(codes.as_ptr() as usize % 64, 0, "row {r}");
            assert!(codes.iter().all(|&c| c >= -127), "no -128 codes");
        }
        assert!(quant.arena_bytes() > 0);
        assert_eq!(quant.precision_label(), "i8");
    }

    #[test]
    fn freeze_preserves_weights_and_bias() {
        let net = tiny_net();
        let frozen = FrozenNetwork::freeze(&net);
        for r in [0usize, 7, 63] {
            assert_eq!(
                frozen.shard_layer(0).row(r),
                net.output().params().row_f32(r)
            );
        }
        assert_eq!(
            frozen.shard_layer(0).bias(),
            net.output().params().bias_slice()
        );
        assert_eq!(frozen.input_dim(), 128);
        assert_eq!(frozen.output_dim(), 64);
    }

    #[test]
    fn frozen_tables_cover_all_neurons() {
        let frozen = FrozenNetwork::freeze(&tiny_net());
        let stats = frozen.table_stats();
        assert_eq!(stats.stored, 64 * 10);
    }

    #[test]
    fn predict_full_matches_training_exact_path() {
        let net = tiny_net();
        let frozen = FrozenNetwork::freeze(&net);
        let mut fs = frozen.make_scratch();
        let mut ts = net.make_scratch();
        for s in 0..20u32 {
            let idx = [s % 128, (s * 7 + 3) % 128, (s * 31 + 11) % 128];
            let val = [1.0f32, -0.5, 0.25];
            let x = SparseVecRef::new(&idx, &val);
            let frozen_top = frozen.predict_full(x, 3, &mut fs);
            let train_top = net.predict(x, 3, &mut ts, /*exact=*/ true, 0);
            assert_eq!(frozen_top, train_top, "sample {s}");
        }
    }

    #[test]
    fn neuron_retrieves_itself_through_frozen_tables() {
        let net = tiny_net();
        let frozen = FrozenNetwork::freeze(&net);
        let mut scratch = frozen.make_scratch();
        for r in [0usize, 17, 63] {
            let w = frozen.shard_layer(0).row(r).to_vec();
            frozen.select_active(&w, &mut scratch, 0);
            assert!(
                scratch.active.contains(&(r as u32)),
                "neuron {r} missing from its own active set"
            );
        }
    }

    #[test]
    fn predict_agrees_across_kernel_levels() {
        // Every vector tier's gather/gemv kernels must retrieve and rank
        // exactly as the scalar table does on the same snapshot (the hash
        // keys are bit-identical at every level, so only scoring differs).
        let frozen = FrozenNetwork::freeze(&tiny_net());
        let run = |level: slide_simd::SimdLevel| {
            let mut scratch = frozen.make_scratch();
            scratch.kernels = slide_simd::KernelSet::for_level(level);
            let mut out = Vec::new();
            for s in 0..16u32 {
                let idx = [s % 128, (s * 13 + 5) % 128];
                let val = [1.0f32, -0.75];
                let x = SparseVecRef::new(&idx, &val);
                out.push((
                    frozen.predict_sparse(x, 4, &mut scratch, s as u64),
                    frozen.predict_full(x, 4, &mut scratch),
                ));
            }
            out
        };
        let scalar = run(slide_simd::SimdLevel::Scalar);
        for level in [slide_simd::SimdLevel::Avx2, slide_simd::SimdLevel::Avx512] {
            if level <= slide_simd::detected_level() {
                assert_eq!(run(level), scalar, "{level}");
            }
        }
    }

    fn assert_pads_to_min_active_and_dedups<L: RowLayout>(engine: &Engine<L>) {
        let mut scratch = engine.make_scratch();
        let idx = [5u32];
        let val = [0.0f32]; // zero input: tables may return little
        let topk = engine.predict_sparse(SparseVecRef::new(&idx, &val), 4, &mut scratch, 9);
        assert!(topk.len() <= 4);
        assert!(scratch.active.len() >= 16, "min_active padding");
        let mut seen = std::collections::HashSet::new();
        assert!(scratch.active.iter().all(|&a| seen.insert(a)));
    }

    #[test]
    fn predict_sparse_pads_to_min_active_and_dedups() {
        assert_pads_to_min_active_and_dedups(&FrozenNetwork::freeze(&tiny_net()));
    }

    #[test]
    fn predict_sparse_pads_and_dedups_like_the_f32_engine() {
        assert_pads_to_min_active_and_dedups(&QuantizedFrozenNetwork::freeze(&tiny_net()));
    }

    #[test]
    fn validate_query_reports_bad_input() {
        let frozen = FrozenNetwork::freeze(&tiny_net());
        assert!(frozen.validate_query(&[0, 127], &[1.0, 2.0]).is_ok());
        let err = frozen.validate_query(&[128], &[1.0]).unwrap_err();
        assert!(err.contains("128"), "{err}");
        assert!(frozen.validate_query(&[0], &[]).is_err());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = frozen.validate_query(&[1, 17], &[1.0, bad]).unwrap_err();
            assert!(err.contains("not finite"), "{err}");
        }
    }

    #[test]
    fn bf16_network_freezes_to_widened_f32() {
        let mut cfg = NetworkConfig::standard(64, 8, 32);
        cfg.precision = slide_core::Precision::Bf16Both;
        cfg.lsh.tables = 6;
        cfg.lsh.key_bits = 4;
        let net = Network::new(cfg).unwrap();
        let frozen = FrozenNetwork::freeze(&net);
        assert_eq!(
            frozen.shard_layer(0).row(3),
            net.output().params().row_f32(3)
        );
        // The widening is not silent: the label names the source precision.
        assert_eq!(frozen.precision_label(), "bf16-widened-f32");
        assert_eq!(QuantizedFrozenNetwork::freeze(&net).precision_label(), "i8");
    }

    #[test]
    fn f32_network_reports_f32_precision() {
        let frozen = FrozenNetwork::freeze(&tiny_net());
        assert_eq!(frozen.precision_label(), "f32");
        assert!(frozen.report().layers.is_empty());
    }

    #[test]
    fn quantized_arenas_are_smaller_than_f32() {
        // Cache-line row padding needs ≥64-wide rows for the 4x story (a
        // 16-code row pads back up to one line); use the paper-sized hidden
        // width here.
        let mut cfg = NetworkConfig::standard(128, 64, 256);
        cfg.lsh.tables = 6;
        cfg.lsh.key_bits = 4;
        let net = Network::new(cfg).unwrap();
        let frozen = FrozenNetwork::freeze(&net);
        let quant = QuantizedFrozenNetwork::freeze(&net);
        // The shared f32 input arena dominates the remainder; the output
        // layer itself shrinks ~3.6x (codes + per-row scales vs f32 rows).
        let f32_out = frozen.shard_layer(0).arena_bytes();
        let i8_out = quant.shard_layer(0).arena_bytes();
        assert!(i8_out * 3 < f32_out, "{i8_out} vs {f32_out}");
        assert!(
            quant.arena_bytes() < frozen.arena_bytes(),
            "{} vs {}",
            quant.arena_bytes(),
            frozen.arena_bytes()
        );
    }

    #[test]
    fn report_covers_every_quantized_layer_within_bounds() {
        // The output layer is the one quantized layer.
        let quant = QuantizedFrozenNetwork::freeze(&tiny_net());
        let report = quant.report();
        assert_eq!(report.layers.len(), 1);
        assert_eq!(report.layers.last().unwrap().name, "output");
        assert!(report.within_theoretical_bounds(), "{report}");
        assert!(report.layers.iter().all(|l| l.mean_err <= l.max_err));
        let rendered = report.to_string();
        assert!(rendered.contains("output"), "{rendered}");
    }

    #[test]
    fn i8_retrieves_exactly_what_f32_retrieves() {
        let net = tiny_net();
        let frozen = FrozenNetwork::freeze(&net);
        let quant = QuantizedFrozenNetwork::freeze(&net);
        assert_eq!(quant.table_stats().stored, frozen.table_stats().stored);
        // Same hidden activations (input layer is f32 in both) → same keys
        // → same retrieved active sets.
        let mut fs = frozen.make_scratch();
        let mut qs = quant.make_scratch();
        for s in 0..16u32 {
            let idx = [s % 128, (s * 7 + 3) % 128];
            let val = [1.0f32, -0.5];
            let x = SparseVecRef::new(&idx, &val);
            frozen.predict_sparse(x, 4, &mut fs, s as u64);
            quant.predict_sparse(x, 4, &mut qs, s as u64);
            assert_eq!(fs.active, qs.active, "sample {s}");
        }
    }

    #[test]
    fn i8_predict_full_tracks_f32_ranking() {
        let net = tiny_net();
        let frozen = FrozenNetwork::freeze(&net);
        let quant = QuantizedFrozenNetwork::freeze(&net);
        let mut fs = frozen.make_scratch();
        let mut qs = quant.make_scratch();
        let mut agree = 0usize;
        let total = 32usize;
        for s in 0..total as u32 {
            let idx = [s % 128, (s * 31 + 11) % 128, (s * 7 + 5) % 128];
            let val = [1.0f32, -0.5, 0.25];
            let x = SparseVecRef::new(&idx, &val);
            if frozen.predict_full(x, 1, &mut fs) == quant.predict_full(x, 1, &mut qs) {
                agree += 1;
            }
        }
        // Untrained random weights are the adversarial case (near-tie
        // logits everywhere); even there the top-1 should mostly survive
        // quantization.
        assert!(
            agree * 10 >= total * 7,
            "only {agree}/{total} top-1 agreement"
        );
    }

    /// Sharded vs one-shard for one layout: sparse and exact top-k, every
    /// shard count.
    fn assert_sharding_invariant<L: RowLayout>(net: &Network) {
        let (rows, input_dim) = (net.config().output_dim, net.config().input_dim as u32);
        let whole = Engine::<L>::freeze(net);
        let mut ws = whole.make_scratch();
        for shards in [1usize, 2, 4, 8] {
            let plan = ShardPlan::contiguous(shards, rows).unwrap();
            let sharded = sharded_engine::<L>(net, plan);
            assert_eq!(sharded.precision_label(), whole.precision_label());
            let mut ss = sharded.make_scratch();
            for s in 0..24u32 {
                let idx = [
                    s % input_dim,
                    (s * 7 + 3) % input_dim,
                    (s * 31 + 11) % input_dim,
                ];
                let val = [1.0f32, -0.5, 0.25];
                let x = SparseVecRef::new(&idx, &val);
                assert_eq!(
                    sharded.predict_sparse(x, 4, &mut ss, s as u64),
                    whole.predict_sparse(x, 4, &mut ws, s as u64),
                    "sparse diverged: {shards} shards sample {s}"
                );
                assert_eq!(
                    sharded.predict_full(x, 4, &mut ss),
                    whole.predict_full(x, 4, &mut ws),
                    "full diverged: {shards} shards sample {s}"
                );
            }
        }
    }

    #[test]
    fn sharded_matches_unsharded_f32() {
        assert_sharding_invariant::<FrozenLayer>(&tiny_net_seeded(3));
    }

    #[test]
    fn sharded_matches_unsharded_i8() {
        assert_sharding_invariant::<QuantizedLayer>(&tiny_net_seeded(21));
    }

    #[test]
    fn sharded_active_set_equals_unsharded() {
        let net = tiny_net_seeded(9);
        let frozen = FrozenNetwork::freeze(&net);
        let plan = ShardPlan::contiguous(4, 64).unwrap();
        let sharded = sharded_engine::<FrozenLayer>(&net, plan);
        let mut fs = frozen.make_scratch();
        let mut ss = sharded.make_scratch();
        for s in 0..16u32 {
            let idx = [s % 128, (s * 13 + 5) % 128];
            let val = [1.0f32, -0.75];
            let x = SparseVecRef::new(&idx, &val);
            frozen.predict_sparse(x, 4, &mut fs, s as u64);
            sharded.predict_sparse(x, 4, &mut ss, s as u64);
            let mut global = fs.active.clone();
            let mut merged = ss.active.clone();
            global.sort_unstable();
            merged.sort_unstable();
            assert_eq!(global, merged, "active sets diverged at sample {s}");
        }
    }

    #[test]
    fn sharded_engines_hold_the_unsharded_tables() {
        let net = tiny_net_seeded(5);
        let frozen = FrozenNetwork::freeze(&net);
        for shards in [2usize, 4] {
            let plan = ShardPlan::contiguous(shards, 64).unwrap();
            let sharded = sharded_engine::<FrozenLayer>(&net, plan);
            assert_eq!(sharded.tables, frozen.tables, "{shards} shards");
            assert_eq!(sharded.arena_bytes(), frozen.arena_bytes());
        }
    }

    #[test]
    fn i8_arenas_partition_the_unsharded_footprint() {
        let net = tiny_net_seeded(8);
        let quant = QuantizedFrozenNetwork::freeze(&net);
        let plan = ShardPlan::contiguous(4, 64).unwrap();
        let sharded = sharded_engine::<QuantizedLayer>(&net, plan);
        let shard_sum: usize = (0..4).map(|s| sharded.shard_layer(s).arena_bytes()).sum();
        assert_eq!(
            shard_sum,
            quant.shard_layer(0).arena_bytes(),
            "row-partitioned arenas must cover the unsharded output arena"
        );
        assert_eq!(sharded.table_stats().stored, quant.table_stats().stored);
    }

    #[test]
    fn sharded_engine_serves_through_the_server() {
        let net = tiny_net_seeded(4);
        let plan = ShardPlan::contiguous(4, 64).unwrap();
        let sharded = sharded_engine::<FrozenLayer>(&net, plan);
        assert_eq!(FrozenModel::precision(&sharded), "f32");
        let server = crate::BatchingServer::start(
            sharded,
            crate::BatchConfig {
                max_batch: 8,
                max_wait: std::time::Duration::from_micros(200),
                queue_cap: 64,
                threads: 2,
            },
        )
        .unwrap();
        for q in 0..20u32 {
            let topk = server.predict(&[q % 128], &[1.0], 3).unwrap();
            assert_eq!(topk.len(), 3);
        }
        assert_eq!(server.stats().errors, 0);
    }

    /// A capped engine of every shard count selects and answers exactly as
    /// the one-shard engine, in one layout.
    fn assert_cap_is_shard_invariant<L: RowLayout>(net: &Network, cap: usize) -> usize {
        let whole = Engine::<L>::freeze(net);
        let mut ws = whole.make_scratch();
        let mut truncated = 0;
        for shards in [2usize, 4] {
            let plan = ShardPlan::contiguous(shards, 64).unwrap();
            let sharded = sharded_engine::<L>(net, plan);
            let mut ss = sharded.make_scratch();
            for s in 0..24u32 {
                let idx = [s % 128, (s * 7 + 3) % 128, (s * 31 + 11) % 128];
                let val = [1.0f32, -0.5, 0.25];
                let x = SparseVecRef::new(&idx, &val);
                assert_eq!(
                    sharded.predict_sparse(x, 4, &mut ss, s as u64),
                    whole.predict_sparse(x, 4, &mut ws, s as u64),
                    "{shards} shards sample {s}"
                );
                assert_eq!(ss.active, ws.active, "{shards} shards sample {s}");
                assert!(ws.active.len() <= cap);
                truncated += usize::from(ws.active.len() == cap);
            }
        }
        truncated
    }

    #[test]
    fn max_active_is_honoured_beyond_one_shard() {
        let cap = 24; // above min_active = 16, below what 10 tables retrieve
        let mut cfg = tiny_net_seeded(6).config().clone();
        cfg.lsh.max_active = Some(cap);
        let net = Network::new(cfg).unwrap();
        let truncated = assert_cap_is_shard_invariant::<FrozenLayer>(&net, cap)
            + assert_cap_is_shard_invariant::<QuantizedLayer>(&net, cap);
        assert!(truncated > 0, "the cap never bit: the test proves nothing");
    }

    #[test]
    fn mismatched_plan_is_an_error_not_a_panic() {
        let net = tiny_net_seeded(5); // 64 outputs
        for plan in [
            ShardPlan::contiguous(2, 32).unwrap(),
            ShardPlan::contiguous(4, 128).unwrap(),
        ] {
            let err = Snapshot::build(&net, &SnapshotSpec::i8().sharded(plan)).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Build(ServeBuildError::PlanRowsMismatch { output_dim: 64, .. })
                ),
                "{err}"
            );
            assert!(err.to_string().contains("64"), "{err}");
        }
    }
}
