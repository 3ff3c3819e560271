//! The one frozen inference engine.
//!
//! Training needs racy HOGWILD parameter views, gradient/moment arenas, and
//! locked hash tables that follow the drifting weights. Serving needs none
//! of that: an [`Engine`] copies the weights into contiguous, 64-byte-aligned,
//! row-padded arenas (the Figure-3 flat-layout discipline, minus every
//! mutable companion array), builds its LSH tables once from the frozen
//! weights, and then answers queries through `&self` with zero locks and
//! zero allocation on the hot path — safe to share across any number of
//! threads via `Arc`.
//!
//! Every serving variant is this one loop — forward the hidden stack,
//! LSH-retrieve an active set, gather-score its rows, top-k — so there is
//! one implementation of it, generic over the row storage format
//! ([`RowLayout`]: f32 [`FrozenLayer`] or int8 [`QuantizedLayer`]) and over
//! the shard count `N ≥ 1` of the output layer.

use crate::error::ServeBuildError;
use crate::layer::{Act, FrozenLayer, QuantReport, QuantizedLayer, RowLayout};
use crate::retrieval::{build_tables, Retrieval, RetrievalScratch};
use crate::shard::{partition_tables, ShardIndexer, ShardPlan};
use crate::snapshot::SnapshotPrecision;
use slide_core::{relu, Network, NetworkConfig, Precision};
use slide_data::top_k_indices;
use slide_hash::{LshTables, TableStats};
use slide_mem::{AlignedVec, SparseVecRef};
use slide_obs::StageSample;
use slide_simd::{KernelSet, RowGather};
use std::ops::Range;
use std::time::Instant;

/// One output-layer shard: the arena of the rows it owns, its partition of
/// the frozen LSH tables, and the O(1) global→local row arithmetic.
#[derive(Debug)]
struct Shard<L> {
    layer: L,
    tables: LshTables,
    indexer: ShardIndexer,
}

/// An immutable, share-everywhere inference snapshot of a trained
/// [`Network`]:
///
/// * a **trunk** — the f32 sparse-input layer plus the dense hidden stack
///   in layout `L` — run once per query to produce the last hidden
///   activation `h`;
/// * **`N ≥ 1` shards** of the output layer, each a row-subset arena in
///   layout `L` plus that shard's partition of the LSH tables;
/// * one LSH family and one pad/cap policy.
///
/// A query hashes `h` once (and, for lossy layouts, quantizes it once),
/// probes each shard's tables with the shared keys in shard order, dedups
/// the candidates into one active list, caps it at `max_active`, pads it
/// deterministically up to `min_active`, gather-scores every active row in
/// one fused kernel call — the row pointers simply point into whichever
/// shard's arena owns the row — and takes the top-k. Shards run inline on
/// the calling thread: batch-level parallelism belongs to
/// [`crate::BatchingServer`].
///
/// # One shard is the unsharded engine
///
/// [`Engine::freeze`] builds the one-shard plan: one contiguous shard owning
/// every row and the unpartitioned tables, so dedup → cap → pad runs in
/// table-encounter order — exact ties and `max_active` behave as an
/// unsharded engine always has.
///
/// # `N > 1` answers bit-equally
///
/// 1. **Partitioned tables, not re-built tables.** Shard tables are filtered
///    out of one global build, so bucket-cap eviction happened once and the
///    union of per-shard retrievals is exactly the global retrieval set.
/// 2. **One global pad stream.** Padding replays `mix3(pad_seed, salt,
///    attempt) % rows` against the global dedup stamp, whatever `N` is.
/// 3. **Per-row-pure scoring.** Every score kernel computes a row's score
///    independently of its position in the gathered list (the kernel-variant
///    equivalence suite enforces it), so the active *set* determines the
///    logits.
///
/// Two restrictions follow from candidates arriving shard-major instead of
/// table-major when `N > 1`. `max_active` is rejected
/// ([`ServeBuildError::MaxActiveUnsupported`]): a cap truncates in encounter
/// order, which partitioned tables cannot reproduce. And on *exact* score
/// ties at the top-k boundary the returned order may differ from the
/// one-shard engine (`top_k_indices` keeps the first-seen id among equals).
/// Distinct trained rows essentially never tie; the corner is reachable only
/// through degenerate inputs (an all-zero hidden activation against
/// untrained zero biases ties every logit at 0.0) or bit-duplicate rows.
///
/// # Examples
///
/// ```
/// use slide_core::{Network, NetworkConfig};
/// use slide_serve::{FrozenNetwork, ShardPlan};
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
/// let sharded = FrozenNetwork::freeze_sharded(&net, plan).unwrap();
/// let mut scratch = sharded.make_scratch();
/// assert_eq!(sharded.predict_sparse(x, 5, &mut scratch, 0), topk);
/// ```
#[derive(Debug)]
pub struct Engine<L: RowLayout> {
    config: NetworkConfig,
    plan: ShardPlan,
    input: FrozenLayer,
    hidden: Vec<L>,
    shards: Vec<Shard<L>>,
    retrieval: Retrieval,
    report: QuantReport,
}

/// The f32 engine.
pub type FrozenNetwork = Engine<FrozenLayer>;

/// The int8 engine: hidden and output rows are per-row symmetric i8 codes;
/// the sparse-input layer and LSH retrieval stay f32 (see
/// [`QuantizedLayer`]), so it retrieves exactly what [`FrozenNetwork`] does.
pub type QuantizedFrozenNetwork = Engine<QuantizedLayer>;

/// Per-caller mutable state for [`Engine`] queries. Allocate one per serving
/// thread ([`Engine::make_scratch`]) and reuse it: the steady-state query
/// path performs no heap allocation besides the returned top-k vector. The
/// type does not depend on the layout, so a worker's scratch survives a
/// precision hot-swap between same-shape engines.
#[derive(Debug)]
pub struct ServeScratch {
    /// Activation buffer per hidden layer (aligned, layer-width slices).
    pub acts: Vec<AlignedVec<f32>>,
    /// u8 activation codes, one buffer per activation (lossy layouts only).
    qacts: Vec<AlignedVec<u8>>,
    sel: RetrievalScratch,
    /// Active output neurons for the current query, in retrieval order
    /// (inspection hook).
    pub active: Vec<u32>,
    logits: Vec<f32>,
    /// Arena row index of every active row within the shard that owns it.
    locals: Vec<u32>,
    /// One strided shard's logits in [`Engine::predict_full`], before they
    /// scatter to global row ids.
    part: Vec<f32>,
    /// Row-gather pointer list for the fused active-set scoring kernel.
    gather: RowGather,
    /// Kernel dispatch table, resolved once per scratch (≈ once per serving
    /// thread per snapshot) so the query hot path carries no policy loads.
    kernels: KernelSet,
}

/// Resolve an optional shard plan against `config`: `None` is the one-shard
/// plan over every output row.
///
/// # Errors
///
/// [`ServeBuildError::PlanRowsMismatch`] if the plan does not cover the
/// network's output rows; [`ServeBuildError::MaxActiveUnsupported`] if more
/// than one shard meets a `max_active` cap.
pub(crate) fn serving_plan(
    config: &NetworkConfig,
    plan: Option<ShardPlan>,
) -> Result<ShardPlan, ServeBuildError> {
    let plan = match plan {
        Some(plan) => plan,
        None => ShardPlan::contiguous(1, config.output_dim)?,
    };
    if plan.rows() != config.output_dim {
        return Err(ServeBuildError::PlanRowsMismatch {
            plan_rows: plan.rows(),
            output_dim: config.output_dim,
        });
    }
    if plan.shards() > 1 && config.lsh.max_active.is_some() {
        return Err(ServeBuildError::MaxActiveUnsupported);
    }
    Ok(plan)
}

/// Cut `net`'s dense layers in snapshot-ordinal order — the hidden stack,
/// then one output row-subset per shard of `plan` (the full output arena is
/// never materialized when `N > 1`) — handing each to `sink` as it is built.
pub(crate) fn cut_layers<L: RowLayout>(
    net: &Network,
    plan: &ShardPlan,
    report: &mut QuantReport,
    mut sink: impl FnMut(L),
) {
    for (i, l) in net.hidden_layers().iter().enumerate() {
        let rows: Vec<u32> = (0..l.params().rows() as u32).collect();
        let name = format!("hidden[{i}]");
        sink(L::from_params_rows(l.params(), &rows, &name, report));
    }
    for s in 0..plan.shards() {
        let rows = plan.shard_rows(s);
        sink(L::from_params_rows(
            net.output().params(),
            &rows,
            "output",
            report,
        ));
    }
}

impl<L: RowLayout> Engine<L> {
    /// Snapshot `net` into a one-shard (unsharded) serving engine: copy all
    /// weights into aligned arenas in layout `L` and build fresh hash tables
    /// from the output rows using the network's own LSH family.
    pub fn freeze(net: &Network) -> Self {
        Self::freeze_sharded(net, None).expect("the one-shard plan fits every valid network")
    }

    /// As [`Engine::freeze`], with the output layer split under `plan`
    /// (`None` is the one-shard plan).
    ///
    /// # Errors
    ///
    /// [`ServeBuildError::PlanRowsMismatch`] if the plan does not match the
    /// network's output dimensionality;
    /// [`ServeBuildError::MaxActiveUnsupported`] if `plan` has more than one
    /// shard and the network configures `max_active`.
    pub fn freeze_sharded(
        net: &Network,
        plan: impl Into<Option<ShardPlan>>,
    ) -> Result<Self, ServeBuildError> {
        let plan = serving_plan(net.config(), plan.into())?;
        let mut report = QuantReport::default();
        let mut hidden = Vec::new();
        cut_layers(net, &plan, &mut report, |l| hidden.push(l));
        let shards = hidden.split_off(net.hidden_layers().len());
        Ok(Self::assemble(
            net.config().clone(),
            plan,
            FrozenLayer::from_params(net.input().params()),
            hidden,
            shards,
            build_tables(net),
            report,
        ))
    }

    /// Put an engine together from its parts — shared by the build path
    /// (layers just cut from a network) and the load path (layers viewing an
    /// image, tables rebuilt from CSR). `plan` must have passed
    /// [`serving_plan`] and the layers must have the shapes
    /// `expected_manifest` declares for it; `tables` is the *global* build,
    /// partitioned here.
    pub(crate) fn assemble(
        config: NetworkConfig,
        plan: ShardPlan,
        input: FrozenLayer,
        hidden: Vec<L>,
        shard_layers: Vec<L>,
        tables: LshTables,
        report: QuantReport,
    ) -> Self {
        assert_eq!(shard_layers.len(), plan.shards(), "one layer per shard");
        let shards = shard_layers
            .into_iter()
            .zip(partition_tables(tables, &plan))
            .enumerate()
            .map(|(s, (layer, tables))| Shard {
                layer,
                tables,
                indexer: plan.indexer(s),
            })
            .collect();
        Engine {
            retrieval: Retrieval::new(&config),
            config,
            plan,
            input,
            hidden,
            shards,
            report,
        }
    }

    /// The configuration of the network this snapshot was frozen from.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The output layer's row-partitioning plan (one shard when unsharded).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The precision the source network stored its weights in. bf16 is
    /// widened at snapshot time, but the provenance is recorded so serve
    /// logs and bench meta can say what the snapshot came from.
    pub fn source_precision(&self) -> Precision {
        self.config.precision
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

    /// The per-layer quantization-error report recorded at freeze time
    /// (empty for the f32 layout). Engines loaded from a *sharded* image
    /// report nothing: `.slsnap` v1 persists the report only in unsharded
    /// images.
    pub fn report(&self) -> &QuantReport {
        &self.report
    }

    /// Occupancy statistics of the frozen hash tables, summed over the
    /// shards' partitions (each partition keeps the full bucket grid).
    pub fn table_stats(&self) -> TableStats {
        let mut total = TableStats::default();
        for s in self.shards.iter().map(|s| s.tables.stats()) {
            total.stored += s.stored;
            total.total_buckets += s.total_buckets;
            total.occupied_buckets += s.occupied_buckets;
            total.max_bucket = total.max_bucket.max(s.max_bucket);
        }
        total
    }

    /// Total bytes held in weight/bias/scale arenas across trunk and shards.
    pub fn arena_bytes(&self) -> usize {
        self.input.arena_bytes()
            + self.hidden.iter().map(L::arena_bytes).sum::<usize>()
            + self
                .shards
                .iter()
                .map(|s| s.layer.arena_bytes())
                .sum::<usize>()
    }

    /// Allocate query scratch sized for this snapshot.
    pub fn make_scratch(&self) -> ServeScratch {
        let mut widths: Vec<usize> = vec![self.input.cols()];
        widths.extend(self.hidden.iter().map(L::rows));
        ServeScratch {
            acts: widths.iter().map(|&w| AlignedVec::zeroed(w)).collect(),
            qacts: widths.iter().map(|&w| AlignedVec::zeroed(w)).collect(),
            sel: self.retrieval.make_scratch(),
            active: Vec::with_capacity(1024),
            logits: Vec::with_capacity(1024),
            locals: Vec::with_capacity(1024),
            part: Vec::new(),
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

    /// Run the trunk, leaving the last hidden activation in
    /// `scratch.acts.last()`: f32 axpy over the sparse-input arena, then one
    /// blocked gemv per hidden layer (lossy layouts quantize each incoming
    /// activation once).
    ///
    /// # Panics
    ///
    /// Panics if a feature index is out of range or the scratch was built
    /// for a different shape.
    pub fn forward_hidden(&self, x: SparseVecRef<'_>, scratch: &mut ServeScratch) {
        let ks = scratch.kernels;
        let acts = &mut scratch.acts;
        acts[0].as_mut_slice().copy_from_slice(self.input.bias());
        for (j, v) in x.iter() {
            ks.axpy(v, self.input.row(j as usize), acts[0].as_mut_slice());
        }
        relu(acts[0].as_mut_slice());
        for (i, layer) in self.hidden.iter().enumerate() {
            let (src, dst) = acts.split_at_mut(i + 1);
            let (src, dst) = (src[i].as_slice(), dst[0].as_mut_slice());
            let q = scratch.qacts[i].as_mut_slice();
            let scale = L::prepare(src, q);
            layer.gemv(&ks, Act { x: src, q, scale }, dst);
            relu(dst);
        }
    }

    /// Build the active set for hidden activation `h` into `scratch.active`
    /// (see the type docs for the retrieve → dedup → cap → pad rule). `h` is
    /// passed separately so it may alias `scratch.acts` through a prior
    /// copy.
    pub fn select_active(&self, h: &[f32], scratch: &mut ServeScratch, salt: u64) {
        self.retrieval.select(
            self.shards.iter().map(|s| &s.tables),
            h,
            &mut scratch.sel,
            &mut scratch.active,
            salt,
        );
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
    /// observability trace path: trunk forward + gather-scoring + top-k
    /// count as kernel time, hashing + table probes + dedup/cap/pad as
    /// retrieval time. Shard candidates dedup straight into one list as
    /// they are probed, so there is no separate merge pass and `merge_us`
    /// stays 0.
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
        let ServeScratch {
            acts,
            qacts,
            sel,
            active,
            logits,
            locals,
            gather,
            kernels,
            ..
        } = scratch;
        let h = acts.last().expect("at least one hidden layer").as_slice();
        let t1 = Instant::now();
        self.retrieval
            .select(self.shards.iter().map(|s| &s.tables), h, sel, active, salt);
        let t2 = Instant::now();

        let q = qacts.last_mut().expect("scratch widths").as_mut_slice();
        let scale = L::prepare(h, q);
        // `locals[i]` is active row i's index in its shard's arena, staged
        // once for the gather and the bias pass.
        locals.clear();
        gather.clear();
        for (shard, run) in self.segments(active, &sel.bounds) {
            shard.indexer.locals_into(&active[run.clone()], locals);
            shard.layer.gather(&locals[run], gather);
        }
        logits.clear();
        logits.resize(active.len(), 0.0);
        // SAFETY: every staged row was gathered just above from a shard
        // arena `self` owns (alive for the call), and shard rows are as wide
        // as `h` (the manifest check at assembly).
        unsafe { L::score(kernels, gather, Act { x: h, q, scale }, logits) };
        for (shard, run) in self.segments(active, &sel.bounds) {
            let bias = shard.layer.bias();
            for (z, &local) in logits[run.clone()].iter_mut().zip(&locals[run]) {
                *z += bias[local as usize];
            }
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

    /// Cut an active list built by [`Retrieval::select`] into runs owned by
    /// one shard: each shard's retrieved rows in shard order (the shard is
    /// known without arithmetic), then every padded row on its own.
    fn segments<'a>(
        &'a self,
        active: &'a [u32],
        bounds: &'a [usize],
    ) -> impl Iterator<Item = (&'a Shard<L>, Range<usize>)> + 'a {
        let retrieved = bounds.last().copied().unwrap_or(0);
        let starts = std::iter::once(0).chain(bounds.iter().copied());
        let runs = starts.zip(bounds.iter().copied());
        let padded = (retrieved..active.len())
            .map(move |i| (&self.shards[self.plan.shard_of(active[i])], i..i + 1));
        self.shards
            .iter()
            .zip(runs)
            .map(|(shard, (from, to))| (shard, from..to))
            .chain(padded)
    }

    /// Predict the top-`k` labels scoring *every* output row (exact argmax;
    /// the accuracy reference for [`Engine::predict_sparse`] and the
    /// cross-level equivalence tests). Each shard sweeps its arena into one
    /// dense global buffer, so tie-breaking follows global row order for
    /// every `N`.
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
            part,
            kernels,
            ..
        } = scratch;
        let h = acts.last().expect("at least one hidden layer").as_slice();
        let q = qacts.last_mut().expect("scratch widths").as_mut_slice();
        let scale = L::prepare(h, q);
        let act = Act { x: h, q, scale };
        logits.clear();
        logits.resize(self.plan.rows(), 0.0);
        for shard in &self.shards {
            match shard.indexer {
                ShardIndexer::Contiguous { start, len } => {
                    let range = start as usize..(start + len) as usize;
                    shard.layer.gemv(kernels, act, &mut logits[range]);
                }
                ShardIndexer::Strided { .. } => {
                    part.clear();
                    part.resize(shard.layer.rows(), 0.0);
                    shard.layer.gemv(kernels, act, part);
                    for (local, &z) in part.iter().enumerate() {
                        logits[shard.indexer.global_of(local) as usize] = z;
                    }
                }
            }
        }
        top_k_indices(logits, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrozenModel;
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

    fn deep_net() -> Network {
        let mut cfg = NetworkConfig::standard(64, 16, 32);
        cfg.hidden_dims = vec![16, 12, 8];
        cfg.lsh.tables = 6;
        cfg.lsh.key_bits = 4;
        cfg.lsh.min_active = 8;
        Network::new(cfg).unwrap()
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
        // The widening is no longer silent: provenance is recorded for
        // serve logs and bench meta.
        assert_eq!(frozen.source_precision(), slide_core::Precision::Bf16Both);
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
    fn deep_network_freezes_and_predicts() {
        let net = deep_net();
        let frozen = FrozenNetwork::freeze(&net);
        let mut scratch = frozen.make_scratch();
        let idx = [3u32, 40];
        let val = [1.0f32, -0.5];
        let topk = frozen.predict_sparse(SparseVecRef::new(&idx, &val), 3, &mut scratch, 0);
        assert_eq!(topk.len(), 3);
        // Exact path agrees with the training network's exact path on depth.
        let mut ts = net.make_scratch();
        assert_eq!(
            frozen.predict_full(SparseVecRef::new(&idx, &val), 3, &mut scratch),
            net.predict(SparseVecRef::new(&idx, &val), 3, &mut ts, true, 0)
        );
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
        // `standard` has no extra dense hidden layers, so the report is the
        // output layer alone.
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
    fn deep_network_quantizes_and_predicts() {
        let quant = QuantizedFrozenNetwork::freeze(&deep_net());
        assert_eq!(quant.report().layers.len(), 3); // 2 extra hidden + output
        let mut scratch = quant.make_scratch();
        let idx = [3u32, 40];
        let val = [1.0f32, -0.5];
        let topk = quant.predict_sparse(SparseVecRef::new(&idx, &val), 3, &mut scratch, 0);
        assert_eq!(topk.len(), 3);
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
    /// shard count and plan.
    fn assert_sharding_invariant<L: RowLayout>(net: &Network) {
        let (rows, input_dim) = (net.config().output_dim, net.config().input_dim as u32);
        let whole = Engine::<L>::freeze(net);
        let mut ws = whole.make_scratch();
        for shards in [1usize, 2, 4, 8] {
            for plan in [
                ShardPlan::contiguous(shards, rows).unwrap(),
                ShardPlan::strided(shards, rows).unwrap(),
            ] {
                let sharded = Engine::<L>::freeze_sharded(net, plan).unwrap();
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
                        "sparse diverged: {shards} shards {} sample {s}",
                        plan.kind_label()
                    );
                    assert_eq!(
                        sharded.predict_full(x, 4, &mut ss),
                        whole.predict_full(x, 4, &mut ws),
                        "full diverged: {shards} shards {} sample {s}",
                        plan.kind_label()
                    );
                }
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
    fn deep_i8_trunk_matches_unsharded_forward() {
        assert_sharding_invariant::<QuantizedLayer>(&deep_net());
    }

    #[test]
    fn sharded_active_set_equals_unsharded() {
        let net = tiny_net_seeded(9);
        let frozen = FrozenNetwork::freeze(&net);
        let plan = ShardPlan::strided(4, 64).unwrap();
        let sharded = FrozenNetwork::freeze_sharded(&net, plan).unwrap();
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
    fn shard_tables_partition_the_global_tables() {
        let net = tiny_net_seeded(5);
        let frozen = FrozenNetwork::freeze(&net);
        let plan = ShardPlan::contiguous(4, 64).unwrap();
        let sharded = FrozenNetwork::freeze_sharded(&net, plan).unwrap();
        assert_eq!(sharded.table_stats().stored, frozen.table_stats().stored);
        assert_eq!(sharded.arena_bytes(), frozen.arena_bytes());
    }

    #[test]
    fn i8_arenas_partition_the_unsharded_footprint() {
        let net = tiny_net_seeded(8);
        let quant = QuantizedFrozenNetwork::freeze(&net);
        let plan = ShardPlan::contiguous(4, 64).unwrap();
        let sharded = QuantizedFrozenNetwork::freeze_sharded(&net, plan).unwrap();
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
        let sharded = FrozenNetwork::freeze_sharded(&net, plan).unwrap();
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

    #[test]
    fn max_active_is_rejected_only_beyond_one_shard() {
        let mut cfg = NetworkConfig::standard(128, 16, 64);
        cfg.lsh.max_active = Some(32);
        let net = Network::new(cfg).unwrap();
        let err =
            FrozenNetwork::freeze_sharded(&net, ShardPlan::contiguous(2, 64).unwrap()).unwrap_err();
        assert_eq!(err, ServeBuildError::MaxActiveUnsupported);
        assert!(err.to_string().contains("max_active"), "{err}");
        assert!(FrozenNetwork::freeze_sharded(&net, ShardPlan::strided(1, 64).unwrap()).is_ok());
    }

    #[test]
    fn mismatched_plan_is_an_error_not_a_panic() {
        let net = tiny_net_seeded(5); // 64 outputs
        for plan in [
            ShardPlan::contiguous(2, 32).unwrap(),
            ShardPlan::strided(4, 128).unwrap(),
        ] {
            let err = QuantizedFrozenNetwork::freeze_sharded(&net, plan).unwrap_err();
            assert!(err.to_string().contains("64"), "{err}");
        }
    }
}
