//! The layout-erased serving handle.
//!
//! [`crate::BatchingServer`] and the network tier hold *any* frozen engine
//! and hot-swap between precisions mid-traffic. [`FrozenModel`] is the
//! object-safe contract that makes that possible: the server stores
//! `Arc<dyn FrozenModel>` and treats per-slot scratch as an opaque
//! `Box<dyn Any + Send>` built by — and downcast inside — the engine that
//! owns it. It is the one type-erasure in the serving tier: it hides the row
//! layout from the server and lets tests substitute a fake; inside
//! [`Engine`] everything is statically typed. Scratch is always rebuilt when
//! a published snapshot replaces the one it was created from (the server
//! tags each scratch slot with the publish epoch it was built for).

use crate::frozen::{Engine, ServeScratch};
use crate::layer::RowLayout;
use slide_mem::SparseVecRef;
use slide_obs::StageSample;
use std::any::Any;
use std::sync::Arc;

/// An immutable, share-everywhere inference snapshot the batching server can
/// serve — implemented once, for every [`Engine`] layout.
///
/// All methods take `&self` and must be safe to call from any number of
/// threads concurrently (each with its own scratch).
pub trait FrozenModel: Send + Sync + std::fmt::Debug + 'static {
    /// Storage-precision label for logs and bench meta (`"f32"`,
    /// `"bf16-widened-f32"`, `"i8"`).
    fn precision(&self) -> &'static str;

    /// Sparse input dimensionality accepted by queries.
    fn input_dim(&self) -> usize;

    /// Output (label) dimensionality.
    fn output_dim(&self) -> usize;

    /// Total bytes held in weight/bias/scale arenas.
    fn arena_bytes(&self) -> usize;

    /// Check that a query fits this snapshot's input space (lengths match,
    /// indices in range, values finite).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending index, value, or length
    /// mismatch.
    fn validate_query(&self, indices: &[u32], values: &[f32]) -> Result<(), String>;

    /// Allocate one thread's query scratch for this engine, type-erased for
    /// the server's slots.
    fn make_scratch_any(&self) -> Box<dyn Any + Send>;

    /// Predict the top-`k` labels for one sparse input using scratch
    /// previously produced by [`FrozenModel::make_scratch_any`] *on this
    /// same snapshot*.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was not built by an engine (the server never does
    /// this: scratch is rebuilt on every snapshot change), on out-of-range
    /// feature indices, or if `k == 0`.
    fn predict_any(
        &self,
        x: SparseVecRef<'_>,
        k: usize,
        scratch: &mut (dyn Any + Send),
        salt: u64,
    ) -> Vec<u32>;

    /// [`FrozenModel::predict_any`] with per-stage attribution: fills
    /// `stages` with the retrieval / kernel split of the call. The default
    /// implementation cannot see inside the model, so it attributes the
    /// whole call to the kernel stage; [`Engine`] overrides it with real
    /// per-stage timers.
    fn predict_any_timed(
        &self,
        x: SparseVecRef<'_>,
        k: usize,
        scratch: &mut (dyn Any + Send),
        salt: u64,
        stages: &mut StageSample,
    ) -> Vec<u32> {
        let t0 = std::time::Instant::now();
        let out = self.predict_any(x, k, scratch, salt);
        *stages = StageSample {
            kernel_us: t0.elapsed().as_micros() as u64,
            ..StageSample::default()
        };
        out
    }
}

/// Anything the batching server accepts where a model is expected: either a
/// concrete engine (it is wrapped into an `Arc` on the way in) or an
/// `Arc<dyn FrozenModel>` that is passed through untouched — for example
/// one returned by the snapshot loader. (A plain
/// `impl Into<Arc<dyn FrozenModel>>` bound cannot express this — the
/// blanket `From` impl would be an orphan — so the crate owns the
/// conversion trait.)
pub trait IntoFrozenModel {
    /// Convert into the server's shared model handle.
    fn into_frozen(self) -> Arc<dyn FrozenModel>;
}

impl<M: FrozenModel> IntoFrozenModel for M {
    fn into_frozen(self) -> Arc<dyn FrozenModel> {
        Arc::new(self)
    }
}

impl IntoFrozenModel for Arc<dyn FrozenModel> {
    fn into_frozen(self) -> Arc<dyn FrozenModel> {
        self
    }
}

impl<L: RowLayout> FrozenModel for Engine<L> {
    fn precision(&self) -> &'static str {
        self.precision_label()
    }

    fn input_dim(&self) -> usize {
        self.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.output_dim()
    }

    fn arena_bytes(&self) -> usize {
        self.arena_bytes()
    }

    fn validate_query(&self, indices: &[u32], values: &[f32]) -> Result<(), String> {
        self.validate_query(indices, values)
    }

    fn make_scratch_any(&self) -> Box<dyn Any + Send> {
        Box::new(self.make_scratch())
    }

    fn predict_any(
        &self,
        x: SparseVecRef<'_>,
        k: usize,
        scratch: &mut (dyn Any + Send),
        salt: u64,
    ) -> Vec<u32> {
        let mut stages = StageSample::default();
        self.predict_any_timed(x, k, scratch, salt, &mut stages)
    }

    fn predict_any_timed(
        &self,
        x: SparseVecRef<'_>,
        k: usize,
        scratch: &mut (dyn Any + Send),
        salt: u64,
        stages: &mut StageSample,
    ) -> Vec<u32> {
        let scratch = scratch
            .downcast_mut::<ServeScratch>()
            .expect("Engine handed scratch built by a different engine");
        self.predict_sparse_timed(x, k, scratch, salt, stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrozenNetwork, QuantizedFrozenNetwork};
    use slide_core::{Network, NetworkConfig};

    fn assert_serves(model: Box<dyn FrozenModel>, precision: &str) {
        assert_eq!(model.precision(), precision);
        assert_eq!(model.input_dim(), 128);
        assert_eq!(model.output_dim(), 64);
        assert!(model.arena_bytes() > 0);
        assert!(model.validate_query(&[0, 127], &[1.0, 2.0]).is_ok());
        let mut scratch = model.make_scratch_any();
        let idx = [1u32, 17];
        let val = [1.0f32, 0.5];
        let topk = model.predict_any(SparseVecRef::new(&idx, &val), 5, scratch.as_mut(), 0);
        assert_eq!(topk.len(), 5);
    }

    #[test]
    fn frozen_network_serves_through_the_trait_object() {
        let net = Network::new(NetworkConfig::standard(128, 16, 64)).unwrap();
        assert_serves(Box::new(FrozenNetwork::freeze(&net)), "f32");
    }

    #[test]
    fn quantized_network_serves_through_the_trait_object() {
        let net = Network::new(NetworkConfig::standard(128, 16, 64)).unwrap();
        assert_serves(Box::new(QuantizedFrozenNetwork::freeze(&net)), "i8");
    }

    #[test]
    #[should_panic(expected = "different engine")]
    fn foreign_scratch_panics_loudly() {
        let net = Network::new(NetworkConfig::standard(64, 8, 32)).unwrap();
        let frozen = FrozenNetwork::freeze(&net);
        let mut bogus: Box<dyn Any + Send> = Box::new(42u32);
        let idx = [1u32];
        let val = [1.0f32];
        frozen.predict_any(SparseVecRef::new(&idx, &val), 1, bogus.as_mut(), 0);
    }
}
