//! Frozen row layouts: how one layer's weights sit in memory, on disk, and
//! under the scoring kernels.
//!
//! [`crate::Engine`] is generic over a [`RowLayout`] and knows nothing about
//! storage precision; everything precision-specific lives behind the
//! trait's four hooks — build from training rows, gemv the whole layer,
//! gather-score a row subset, encode/decode the snapshot sections. Exactly
//! two layouts exist: [`FrozenLayer`] (f32 rows) and [`QuantizedLayer`]
//! (per-row symmetric i8 codes + f32 scales). A new storage format (int4,
//! bf16) is one more impl of this trait, not one more engine.
//!
//! Both layouts pad rows to a 64-byte stride so every row starts on a
//! cache-line boundary (whole-line AVX-512 loads, no split lines — §4.1 of
//! the paper), and both hold their arenas as [`ArenaView`]s: a layer built
//! from a live network views a buffer it just filled, a layer decoded from a
//! snapshot views the mmapped file directly — same scoring code, zero weight
//! copies on the load path. Cloning shares the arenas.

use crate::snapshot::{
    corrupt, LayerDims, SectionKind, SnapshotError, SnapshotImage, SnapshotPrecision,
    SnapshotWriter,
};
use slide_core::LayerParams;
use slide_mem::{AlignedVec, ArenaView};
use slide_simd::{quantize_acts_u8, quantize_row_i8, KernelSet, RowGather};

/// One activation vector as the layouts consume it: the f32 values plus the
/// unsigned 7-bit codes and scale [`RowLayout::prepare`] derived from them
/// (unused by f32 layers). Prepared once per activation, shared by every
/// shard that scores against it.
#[derive(Debug, Clone, Copy)]
pub struct Act<'a> {
    /// The activation itself.
    pub x: &'a [f32],
    /// Quantized codes of `x` (meaningful only after an i8 `prepare`).
    pub q: &'a [u8],
    /// Dequantization scale of `q`.
    pub scale: f32,
}

/// The storage format of one dense layer of a frozen engine.
pub trait RowLayout: Sized + Clone + std::fmt::Debug + Send + Sync + 'static {
    /// The snapshot precision code images of this layout carry.
    const PRECISION: SnapshotPrecision;

    /// Snapshot the gathered `rows` of a training-layer parameter block
    /// (row `i` of the result is source row `rows[i]`, bf16 widened first).
    /// Lossy layouts append their reconstruction-error stats for the layer
    /// to `report` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if any row id is out of range for `p`.
    fn from_params_rows(
        p: &LayerParams,
        rows: &[u32],
        name: &str,
        report: &mut QuantReport,
    ) -> Self;

    /// Storage rows (output units).
    fn rows(&self) -> usize;

    /// Row width in meaningful elements (excluding alignment padding).
    fn cols(&self) -> usize;

    /// Per-row f32 bias.
    fn bias(&self) -> &[f32];

    /// Bytes held by this layer's arenas (padding included).
    fn arena_bytes(&self) -> usize;

    /// Derive whatever this layout's kernels consume besides the f32
    /// activation — the i8 layout quantizes `x` into `q` and returns the
    /// scale; the default (f32) needs nothing.
    fn prepare(_x: &[f32], _q: &mut [u8]) -> f32 {
        0.0
    }

    /// `out[r] = row r · x + bias[r]` over the whole layer (one blocked
    /// sweep of the strided arena).
    fn gemv(&self, ks: &KernelSet, x: Act<'_>, out: &mut [f32]);

    /// Stage rows `locals` (arena row indices, in order) for
    /// [`RowLayout::score`], appending to whatever `into` already holds.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of range.
    fn gather(&self, locals: &[u32], into: &mut RowGather);

    /// `out[i] = gathered row i · x` (bias excluded) through the fused
    /// multi-row kernel.
    ///
    /// # Safety
    ///
    /// Every row staged in `gathered` must come from [`RowLayout::gather`]
    /// on a layer of this layout that is still alive and whose `cols()`
    /// equals `x.x.len()`.
    unsafe fn score(ks: &KernelSet, gathered: &RowGather, x: Act<'_>, out: &mut [f32]);

    /// Write this layer's snapshot sections at `ordinal`.
    fn encode(&self, w: &mut SnapshotWriter, ordinal: u32);

    /// View this layer out of `image` at `ordinal` with the manifest's
    /// declared shape.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] if sections are missing or their lengths
    /// disagree with `dims`.
    fn decode(image: &SnapshotImage, ordinal: u32, dims: LayerDims) -> Result<Self, SnapshotError>;
}

/// The bias section every layout shares, checked against the manifest.
fn decode_bias(
    image: &SnapshotImage,
    ordinal: u32,
    dims: LayerDims,
) -> Result<ArenaView<f32>, SnapshotError> {
    let bias = image.view::<f32>(SectionKind::Bias, ordinal)?;
    if bias.len() != dims.bias_len {
        return Err(corrupt(format!(
            "layer {ordinal}: {} bias elements, manifest declares {}",
            bias.len(),
            dims.bias_len
        )));
    }
    Ok(bias)
}

// ---------------------------------------------------------------------------
// f32
// ---------------------------------------------------------------------------

/// One layer's frozen f32 weights: a contiguous arena of cache-line-padded
/// rows plus the bias.
#[derive(Debug, Clone)]
pub struct FrozenLayer {
    weights: ArenaView<f32>,
    bias: ArenaView<f32>,
    rows: usize,
    cols: usize,
    stride: usize,
}

/// The padded arena stride (in elements of `T`) for a row of `cols` elements.
fn stride_of<T>(cols: usize) -> usize {
    let lane = slide_simd::CACHE_LINE_BYTES / std::mem::size_of::<T>();
    cols.div_ceil(lane) * lane
}

impl FrozenLayer {
    /// Snapshot a whole training-layer parameter block, bias copied verbatim
    /// (bf16 weights are widened to f32). This is the sparse-input layer's
    /// constructor in every engine: that layer is stored transposed — one
    /// row per input feature, bias per *column* — so its forward pass is a
    /// handful of per-feature f32 `axpy`s with no dense operand for an
    /// integer dot to consume, and it stays f32 under every layout.
    pub fn from_params(p: &LayerParams) -> Self {
        let (rows, cols) = (p.rows(), p.cols());
        let stride = stride_of::<f32>(cols);
        let mut weights = AlignedVec::<f32>::zeroed(rows * stride);
        for r in 0..rows {
            p.widen_row_into(
                r,
                &mut weights.as_mut_slice()[r * stride..r * stride + cols],
            );
        }
        FrozenLayer {
            weights: ArenaView::from_vec(weights),
            bias: ArenaView::from_vec(AlignedVec::from_slice(p.bias_slice())),
            rows,
            cols,
            stride,
        }
    }

    /// Weight row `r` (cache-line aligned, `cols` elements).
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.weights.as_slice()[r * self.stride..r * self.stride + self.cols]
    }

    /// The whole padded arena as one flat slice.
    pub fn flat(&self) -> &[f32] {
        self.weights.as_slice()
    }
}

impl RowLayout for FrozenLayer {
    const PRECISION: SnapshotPrecision = SnapshotPrecision::F32;

    fn from_params_rows(
        p: &LayerParams,
        rows: &[u32],
        _name: &str,
        _report: &mut QuantReport,
    ) -> Self {
        let cols = p.cols();
        let stride = stride_of::<f32>(cols);
        let mut weights = AlignedVec::<f32>::zeroed(rows.len() * stride);
        p.widen_rows_into(rows, stride, weights.as_mut_slice());
        let mut bias = AlignedVec::<f32>::zeroed(rows.len());
        p.bias_gather_into(rows, bias.as_mut_slice());
        FrozenLayer {
            weights: ArenaView::from_vec(weights),
            bias: ArenaView::from_vec(bias),
            rows: rows.len(),
            cols,
            stride,
        }
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn bias(&self) -> &[f32] {
        self.bias.as_slice()
    }

    fn arena_bytes(&self) -> usize {
        (self.weights.len() + self.bias.len()) * std::mem::size_of::<f32>()
    }

    fn gemv(&self, ks: &KernelSet, x: Act<'_>, out: &mut [f32]) {
        ks.gemv(self.flat(), self.stride, x.x, self.bias(), out);
    }

    fn gather(&self, locals: &[u32], into: &mut RowGather) {
        let rows = locals.iter().map(|&r| self.row(r as usize).as_ptr());
        into.w_f32.extend(rows);
    }

    unsafe fn score(ks: &KernelSet, gathered: &RowGather, x: Act<'_>, out: &mut [f32]) {
        // SAFETY: per the trait contract every pointer spans `x.x.len()`
        // elements of a live arena.
        unsafe { ks.score_rows_f32(&gathered.w_f32, x.x, out) }
    }

    fn encode(&self, w: &mut SnapshotWriter, ordinal: u32) {
        w.section_pod(SectionKind::WeightsF32, ordinal, self.flat());
        w.section_pod(SectionKind::Bias, ordinal, self.bias());
    }

    fn decode(image: &SnapshotImage, ordinal: u32, dims: LayerDims) -> Result<Self, SnapshotError> {
        let weights = image.view::<f32>(SectionKind::WeightsF32, ordinal)?;
        let bias = decode_bias(image, ordinal, dims)?;
        let stride = stride_of::<f32>(dims.cols);
        if weights.len() != dims.rows * stride {
            return Err(corrupt(format!(
                "layer {ordinal}: {} weights for {} rows x {stride} stride",
                weights.len(),
                dims.rows
            )));
        }
        Ok(FrozenLayer {
            weights,
            bias,
            rows: dims.rows,
            cols: dims.cols,
            stride,
        })
    }
}

// ---------------------------------------------------------------------------
// i8
// ---------------------------------------------------------------------------

/// One layer's quantized weights: per-row symmetric i8 codes in a
/// cache-line-padded arena, a per-row f32 dequantization scale, and the f32
/// bias (biases are not quantized; they are added after the integer dot is
/// scaled back to f32). Activations are quantized to unsigned 7-bit codes
/// per query and scored through the `slide_simd` int8 kernel family
/// (`vpmaddubsw` on AVX2, `vpdpbusd` where AVX-512 VNNI is available) —
/// 4× less weight traffic than the f32 layout.
#[derive(Debug, Clone)]
pub struct QuantizedLayer {
    q: ArenaView<i8>,
    scales: ArenaView<f32>,
    bias: ArenaView<f32>,
    rows: usize,
    cols: usize,
    stride: usize,
}

impl QuantizedLayer {
    /// Quantized weight row `r` (cache-line aligned, `cols` codes).
    #[inline]
    pub fn row_q(&self, r: usize) -> &[i8] {
        &self.q.as_slice()[r * self.stride..r * self.stride + self.cols]
    }
}

impl RowLayout for QuantizedLayer {
    const PRECISION: SnapshotPrecision = SnapshotPrecision::I8;

    /// Per-row symmetric quantization is a pure function of the row, so a
    /// shard's codes and scales are bit-identical to the same rows of a
    /// whole-layer snapshot — what sharded/unsharded equivalence rests on.
    fn from_params_rows(
        p: &LayerParams,
        rows: &[u32],
        name: &str,
        report: &mut QuantReport,
    ) -> Self {
        let cols = p.cols();
        let stride = stride_of::<i8>(cols);
        let mut q = AlignedVec::<i8>::zeroed(rows.len() * stride);
        let mut scales = AlignedVec::<f32>::zeroed(rows.len());
        let mut row_buf = vec![0.0f32; cols];
        let mut max_err = 0.0f32;
        let mut err_sum = 0.0f64;
        let mut max_scale = 0.0f32;
        for (i, &r) in rows.iter().enumerate() {
            p.widen_row_into(r as usize, &mut row_buf);
            let qrow = &mut q.as_mut_slice()[i * stride..i * stride + cols];
            let s = quantize_row_i8(&row_buf, qrow);
            scales.as_mut_slice()[i] = s;
            max_scale = max_scale.max(s);
            for (&w, &c) in row_buf.iter().zip(qrow.iter()) {
                let err = (w - s * c as f32).abs();
                max_err = max_err.max(err);
                err_sum += err as f64;
            }
        }
        let elements = rows.len() * cols;
        report.layers.push(LayerQuantStats {
            name: name.to_string(),
            rows: rows.len(),
            cols,
            max_err,
            mean_err: if elements == 0 {
                0.0
            } else {
                (err_sum / elements as f64) as f32
            },
            max_scale,
        });
        let mut bias = AlignedVec::<f32>::zeroed(rows.len());
        p.bias_gather_into(rows, bias.as_mut_slice());
        QuantizedLayer {
            q: ArenaView::from_vec(q),
            scales: ArenaView::from_vec(scales),
            bias: ArenaView::from_vec(bias),
            rows: rows.len(),
            cols,
            stride,
        }
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn bias(&self) -> &[f32] {
        self.bias.as_slice()
    }

    fn arena_bytes(&self) -> usize {
        self.q.len() + (self.scales.len() + self.bias.len()) * std::mem::size_of::<f32>()
    }

    fn prepare(x: &[f32], q: &mut [u8]) -> f32 {
        quantize_acts_u8(x, q)
    }

    fn gemv(&self, ks: &KernelSet, x: Act<'_>, out: &mut [f32]) {
        ks.gemv_i8(
            self.q.as_slice(),
            self.stride,
            self.scales.as_slice(),
            x.q,
            x.scale,
            self.bias(),
            out,
        );
    }

    fn gather(&self, locals: &[u32], into: &mut RowGather) {
        let scales = self.scales.as_slice();
        let rows = locals.iter().map(|&r| self.row_q(r as usize).as_ptr());
        into.w_i8.extend(rows);
        into.scales
            .extend(locals.iter().map(|&r| scales[r as usize]));
    }

    unsafe fn score(ks: &KernelSet, gathered: &RowGather, x: Act<'_>, out: &mut [f32]) {
        // SAFETY: per the trait contract every pointer spans `x.q.len()`
        // codes of a live arena; activation codes are 7-bit by construction
        // (`quantize_acts_u8`), the pre-VNNI tiers' saturation contract.
        unsafe { ks.score_rows_i8(&gathered.w_i8, &gathered.scales, x.q, x.scale, out) }
    }

    fn encode(&self, w: &mut SnapshotWriter, ordinal: u32) {
        w.section_pod(SectionKind::QuantWeights, ordinal, self.q.as_slice());
        w.section_pod(SectionKind::QuantScales, ordinal, self.scales.as_slice());
        w.section_pod(SectionKind::Bias, ordinal, self.bias());
    }

    fn decode(image: &SnapshotImage, ordinal: u32, dims: LayerDims) -> Result<Self, SnapshotError> {
        let q = image.view::<i8>(SectionKind::QuantWeights, ordinal)?;
        let scales = image.view::<f32>(SectionKind::QuantScales, ordinal)?;
        let bias = decode_bias(image, ordinal, dims)?;
        let stride = stride_of::<i8>(dims.cols);
        if q.len() != dims.rows * stride || scales.len() != dims.rows {
            return Err(corrupt(format!(
                "layer {ordinal}: {} codes and {} scales for {} rows x {stride} stride",
                q.len(),
                scales.len(),
                dims.rows
            )));
        }
        Ok(QuantizedLayer {
            q,
            scales,
            bias,
            rows: dims.rows,
            cols: dims.cols,
            stride,
        })
    }
}

// ---------------------------------------------------------------------------
// Quantization-error report
// ---------------------------------------------------------------------------

/// Per-layer quantization error, recorded when the layer is quantized — the
/// reconstruction half of the quantization-error harness (the accuracy half
/// is `slide_quant::p_at_1` parity against the f32 engine).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerQuantStats {
    /// Layer label (`"hidden[i]"` / `"output"`).
    pub name: String,
    /// Storage rows.
    pub rows: usize,
    /// Row width.
    pub cols: usize,
    /// Largest per-element reconstruction error `|w - s·q|` in the layer.
    pub max_err: f32,
    /// Mean absolute reconstruction error over all elements.
    pub mean_err: f32,
    /// Largest per-row scale (the worst-resolution row's step size; the
    /// theoretical per-element error bound is half of it).
    pub max_scale: f32,
}

/// The quantization-error report of one engine: one entry per lossy layer,
/// hidden layers first, output last. Empty for the f32 layout. The stats are
/// measured against the original f32 weights and cannot be recomputed from
/// the codes, so unsharded i8 images carry them (`.slsnap` v1 has no report
/// section in sharded images, so sharded engines report nothing).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantReport {
    /// Per-quantized-layer stats.
    pub layers: Vec<LayerQuantStats>,
}

impl std::fmt::Display for QuantReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<12} {:>8} {:>6} {:>12} {:>12} {:>12}",
            "layer", "rows", "cols", "max_err", "mean_err", "max_scale"
        )?;
        for l in &self.layers {
            writeln!(
                f,
                "{:<12} {:>8} {:>6} {:>12.3e} {:>12.3e} {:>12.3e}",
                l.name, l.rows, l.cols, l.max_err, l.mean_err, l.max_scale
            )?;
        }
        Ok(())
    }
}

impl QuantReport {
    /// Every layer's max error must sit within half its worst row's step —
    /// the bound the proptests assert.
    pub fn within_theoretical_bounds(&self) -> bool {
        self.layers
            .iter()
            .all(|l| l.max_err <= l.max_scale * 0.5 + 1e-6)
    }

    /// Encode into the [`SectionKind::QuantReport`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.layers.len() as u32).to_le_bytes());
        for l in &self.layers {
            out.extend_from_slice(&(l.name.len() as u32).to_le_bytes());
            out.extend_from_slice(l.name.as_bytes());
            out.extend_from_slice(&(l.rows as u64).to_le_bytes());
            out.extend_from_slice(&(l.cols as u64).to_le_bytes());
            out.extend_from_slice(&l.max_err.to_le_bytes());
            out.extend_from_slice(&l.mean_err.to_le_bytes());
            out.extend_from_slice(&l.max_scale.to_le_bytes());
        }
        out
    }

    /// Decode the [`SectionKind::QuantReport`] payload.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncation, trailing bytes, or an
    /// over-long layer name.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = crate::snapshot::Reader::new(bytes);
        let count = r.u32()? as usize;
        if count > 4096 {
            return Err(corrupt(format!("{count} quant report layers")));
        }
        let mut layers = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len = r.u32()? as usize;
            if name_len > 256 {
                return Err(corrupt(format!("{name_len}-byte quant layer name")));
            }
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|_| corrupt("quant layer name is not UTF-8"))?
                .to_string();
            layers.push(LayerQuantStats {
                name,
                rows: r.usize()?,
                cols: r.usize()?,
                max_err: f32::from_bits(r.u32()?),
                mean_err: f32::from_bits(r.u32()?),
                max_scale: f32::from_bits(r.u32()?),
            });
        }
        r.done()?;
        Ok(QuantReport { layers })
    }
}
