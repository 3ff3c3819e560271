//! The `.slsnap` on-disk snapshot format: checksummed, 64-byte-aligned,
//! mmap-friendly serving images.
//!
//! Before this format existed, every serving process rebuilt its engine
//! from a live [`slide_core::Network`] — retrain (or at least re-freeze,
//! re-quantize, re-hash) on every cold start. A snapshot instead persists
//! the *frozen* artifacts — padded weight arenas, biases, quantized codes,
//! and the LSH tables in CSR form — in exactly the in-memory layout the
//! engines score from, so loading is `mmap` + header/CRC verification +
//! pointer arithmetic: the arenas are never parsed, transposed, or copied
//! (see DESIGN.md §9 for the full layout and the one honest caveat: CRC
//! verification is a sequential read pass over the file, it is *parsing*
//! that is eliminated, not page-ins).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic "SLSN"
//!      4     4  format version (1)
//!      8     4  precision code (0 = f32, 1 = i8)
//!     12     4  plan kind (0 = unsharded, 1 = contiguous, 2 = strided)
//!     16     4  shard count (1 when unsharded)
//!     20     4  section count
//!     24     8  total image length in bytes
//!     32     4  CRC-32 of the section table
//!     36    24  reserved (zero)
//!     60     4  CRC-32 of header bytes 0..60
//!     64   32n  section table: {kind u32, index u32, offset u64,
//!               len u64 (bytes), crc u32, reserved u32} per section
//!      …        payloads, each starting on a 64-byte boundary
//! ```
//!
//! Sections are addressed `(kind, index)`; the index is the layer ordinal
//! (0 = input, `1..=H` = hidden, `H+1+s` = output shard `s` — an unsharded
//! image is the one-shard case, output at `H+1`). The LSH sections always
//! hold the **global** tables: a load re-partitions them exactly as the
//! builder did, which is what makes loaded sharded retrieval bit-equal to
//! built sharded retrieval.
//!
//! One codec serves every engine: [`encode`] writes the image of any
//! [`SnapshotSpec`] (layout × shard plan), [`decode`] instantiates whatever
//! an image describes; the per-layout sections are the
//! [`RowLayout::encode`] / [`RowLayout::decode`] hooks. [`Snapshot`] wraps
//! the pair for callers: [`Snapshot::build`] cuts a verified image,
//! [`load`] brings one back as an `Arc<dyn FrozenModel>` with the weight
//! arenas viewing the mapped file (see [`crate::ModelRegistry`] for
//! versioned publish/rollback).

use crate::error::ServeBuildError;
use crate::frozen::{cut_layers, serving_plan, Engine};
use crate::layer::{FrozenLayer, QuantReport, QuantizedLayer, RowLayout};
use crate::model::FrozenModel;
use crate::registry::write_atomic;
use crate::retrieval::{build_tables, TABLE_SEED_SALT};
use crate::shard::{ShardPlan, ShardPlanKind};
use slide_core::{HashFamilyKind, LshConfig, MemoryConfig, Network, NetworkConfig, Precision};
use slide_hash::{BucketPolicy, LshTables, TablesCsr};
use slide_mem::{crc32, pod_bytes, AlignedVec, ArenaView, Pod, SharedArena};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// `b"SLSN"` — "SLide SNapshot".
pub const MAGIC: u32 = u32::from_le_bytes(*b"SLSN");

/// Current format version. Bump on any layout change; readers reject
/// versions they do not know.
pub const FORMAT_VERSION: u32 = 1;

/// Every payload section starts on this alignment (one cache line), so an
/// f32/i8 arena viewed straight out of the mmapped image satisfies the
/// same alignment contract as a freshly built [`AlignedVec`] arena.
pub const SECTION_ALIGN: usize = 64;

const HEADER_LEN: usize = 64;
const SECTION_ENTRY_LEN: usize = 32;

/// Storage precision of a snapshot image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotPrecision {
    /// f32 arenas ([`FrozenLayer`]).
    F32,
    /// int8 codes + per-row scales ([`QuantizedLayer`]).
    I8,
}

impl SnapshotPrecision {
    /// The on-disk precision code.
    pub fn code(self) -> u32 {
        match self {
            SnapshotPrecision::F32 => 0,
            SnapshotPrecision::I8 => 1,
        }
    }

    fn from_code(code: u32) -> Option<Self> {
        match code {
            0 => Some(SnapshotPrecision::F32),
            1 => Some(SnapshotPrecision::I8),
            _ => None,
        }
    }

    /// Label for logs and bench meta (`"f32"` / `"i8"`).
    pub fn label(self) -> &'static str {
        match self {
            SnapshotPrecision::F32 => "f32",
            SnapshotPrecision::I8 => "i8",
        }
    }
}

/// What to snapshot a network *as*: a row layout and a shard plan. Build
/// with [`SnapshotSpec::f32`] or [`SnapshotSpec::i8`], optionally sharding
/// via [`SnapshotSpec::sharded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotSpec {
    /// Arena storage precision.
    pub precision: SnapshotPrecision,
    /// Output-layer shard plan; `None` serves the output layer unsharded.
    pub shard_plan: Option<ShardPlan>,
}

impl SnapshotSpec {
    /// An unsharded f32 snapshot.
    pub fn f32() -> Self {
        SnapshotSpec {
            precision: SnapshotPrecision::F32,
            shard_plan: None,
        }
    }

    /// An unsharded int8 snapshot.
    pub fn i8() -> Self {
        SnapshotSpec {
            precision: SnapshotPrecision::I8,
            shard_plan: None,
        }
    }

    /// The same precision, output layer sharded under `plan`.
    pub fn sharded(self, plan: ShardPlan) -> Self {
        SnapshotSpec {
            shard_plan: Some(plan),
            ..self
        }
    }

    /// Shard count (1 when unsharded).
    pub fn shards(&self) -> usize {
        self.shard_plan.map_or(1, |p| p.shards())
    }
}

/// Why a snapshot could not be saved, opened, or instantiated.
#[derive(Debug)]
pub enum SnapshotError {
    /// The filesystem said no.
    Io(std::io::Error),
    /// The image failed structural or checksum verification — truncated
    /// file, bit flip, torn write, shape that disagrees with its own
    /// config. Never a panic: corruption is an error the caller handles.
    Corrupt(String),
    /// The image is well-formed but this build cannot serve it (unknown
    /// format version, precision code, or plan kind).
    Unsupported(String),
    /// The decoded parts were healthy but the serving engine rejected them
    /// (e.g. a `max_active` config sharded serving cannot honour).
    Build(ServeBuildError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            SnapshotError::Unsupported(msg) => write!(f, "snapshot unsupported: {msg}"),
            SnapshotError::Build(e) => write!(f, "snapshot build: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<ServeBuildError> for SnapshotError {
    fn from(e: ServeBuildError) -> Self {
        SnapshotError::Build(e)
    }
}

pub(crate) fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

/// Payload section kinds. `(kind, index)` addresses a section; `index` is
/// the layer ordinal for per-layer kinds and 0 for the global ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionKind {
    /// The hand-encoded [`NetworkConfig`] (index 0).
    Config = 1,
    /// Per-layer shape manifest (index 0): cross-checks the config at load.
    Manifest = 2,
    /// One layer's padded f32 weight arena.
    WeightsF32 = 3,
    /// One layer's bias vector (f32, both precisions).
    Bias = 4,
    /// One layer's padded int8 code arena.
    QuantWeights = 5,
    /// One layer's per-row dequantization scales (f32).
    QuantScales = 6,
    /// Global LSH tables, CSR offsets (u32, index 0).
    TableOffsets = 7,
    /// Global LSH tables, CSR items (u32, index 0).
    TableItems = 8,
    /// Global LSH tables, per-bucket arrival counters (u64, index 0).
    TableArrivals = 9,
    /// The quantization report (index 0): per-layer error stats that
    /// cannot be recomputed without the original f32 weights.
    QuantReport = 10,
}

impl SectionKind {
    fn from_u32(v: u32) -> Option<Self> {
        Some(match v {
            1 => SectionKind::Config,
            2 => SectionKind::Manifest,
            3 => SectionKind::WeightsF32,
            4 => SectionKind::Bias,
            5 => SectionKind::QuantWeights,
            6 => SectionKind::QuantScales,
            7 => SectionKind::TableOffsets,
            8 => SectionKind::TableItems,
            9 => SectionKind::TableArrivals,
            10 => SectionKind::QuantReport,
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// Little-endian plumbing
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("bounds checked"))
}

fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("bounds checked"))
}

fn align_up(v: usize) -> usize {
    v.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Assembles a snapshot image in memory: add sections, then
/// [`SnapshotWriter::finish`] lays them out with aligned offsets and CRCs.
/// The finished image is byte-for-byte what [`SnapshotImage::open`] later
/// maps, so "build" and "load" hand the engines identical arenas.
#[derive(Debug)]
pub struct SnapshotWriter {
    precision: SnapshotPrecision,
    plan_kind: u32,
    shards: u32,
    sections: Vec<(SectionKind, u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Start an image for `spec`.
    pub fn new(spec: &SnapshotSpec) -> Self {
        let (plan_kind, shards) = match spec.shard_plan {
            None => (0, 1),
            Some(p) => (
                match p.kind() {
                    ShardPlanKind::Contiguous => 1,
                    ShardPlanKind::Strided => 2,
                },
                p.shards() as u32,
            ),
        };
        SnapshotWriter {
            precision: spec.precision,
            plan_kind,
            shards,
            sections: Vec::new(),
        }
    }

    /// Append a raw byte section.
    pub fn section(&mut self, kind: SectionKind, index: u32, bytes: Vec<u8>) {
        self.sections.push((kind, index, bytes));
    }

    /// Append a typed section (the payload is the elements' raw LE bytes —
    /// every [`Pod`] type is a fixed-width little-endian scalar on every
    /// platform this engine targets).
    pub fn section_pod<T: Pod>(&mut self, kind: SectionKind, index: u32, data: &[T]) {
        self.section(kind, index, pod_bytes(data).to_vec());
    }

    /// Lay the image out: header, section table, aligned payloads, CRCs.
    pub fn finish(self) -> AlignedVec<u8> {
        let table_len = self.sections.len() * SECTION_ENTRY_LEN;
        // Align up *before* each payload, never after the last one: the
        // image ends exactly where its final section does, so every byte
        // past the table is either CRC-covered payload or an inter-section
        // gap no reader ever dereferences.
        let mut cursor = HEADER_LEN + table_len;
        let offsets: Vec<usize> = self
            .sections
            .iter()
            .map(|(_, _, bytes)| {
                let at = align_up(cursor);
                cursor = at + bytes.len();
                at
            })
            .collect();
        let total = cursor.max(HEADER_LEN);
        let mut image = AlignedVec::<u8>::zeroed(total);
        let buf = image.as_mut_slice();

        for (i, (kind, index, bytes)) in self.sections.iter().enumerate() {
            let entry = HEADER_LEN + i * SECTION_ENTRY_LEN;
            put_u32(buf, entry, *kind as u32);
            put_u32(buf, entry + 4, *index);
            put_u64(buf, entry + 8, offsets[i] as u64);
            put_u64(buf, entry + 16, bytes.len() as u64);
            put_u32(buf, entry + 24, crc32(bytes));
            buf[offsets[i]..offsets[i] + bytes.len()].copy_from_slice(bytes);
        }
        let table_crc = crc32(&buf[HEADER_LEN..HEADER_LEN + table_len]);

        put_u32(buf, 0, MAGIC);
        put_u32(buf, 4, FORMAT_VERSION);
        put_u32(buf, 8, self.precision.code());
        put_u32(buf, 12, self.plan_kind);
        put_u32(buf, 16, self.shards);
        put_u32(buf, 20, self.sections.len() as u32);
        put_u64(buf, 24, total as u64);
        put_u32(buf, 32, table_crc);
        let header_crc = crc32(&buf[..60]);
        put_u32(buf, 60, header_crc);
        image
    }
}

// ---------------------------------------------------------------------------
// Image
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    kind: SectionKind,
    index: u32,
    offset: usize,
    len: usize,
}

/// A verified snapshot image over a [`SharedArena`] (mmapped file or
/// in-memory build). Construction runs the full verification pass — magic,
/// version, header CRC, section-table CRC, per-section bounds, alignment,
/// payloads that start past the section table and share no byte, and
/// payload CRCs — so every later accessor works on trusted offsets.
#[derive(Debug)]
pub struct SnapshotImage {
    arena: SharedArena,
    precision: SnapshotPrecision,
    plan: Option<(ShardPlanKind, usize)>,
    sections: Vec<SectionEntry>,
}

impl SnapshotImage {
    /// Map `path` and verify it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be mapped/read; otherwise
    /// as [`SnapshotImage::from_arena`].
    pub fn open(path: &Path) -> Result<Self, SnapshotError> {
        Self::from_arena(SharedArena::map_file(path)?)
    }

    /// Verify an in-memory image (the build path hands its freshly encoded
    /// arena straight here, so both paths run the same checks).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on any structural or checksum failure;
    /// [`SnapshotError::Unsupported`] on an unknown version, precision, or
    /// plan kind.
    pub fn from_arena(arena: SharedArena) -> Result<Self, SnapshotError> {
        let buf = arena.as_slice();
        if buf.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "{} bytes is smaller than the {HEADER_LEN}-byte header",
                buf.len()
            )));
        }
        if get_u32(buf, 0) != MAGIC {
            return Err(corrupt("bad magic (not a .slsnap image)"));
        }
        if get_u32(buf, 60) != crc32(&buf[..60]) {
            return Err(corrupt("header checksum mismatch"));
        }
        let version = get_u32(buf, 4);
        if version != FORMAT_VERSION {
            return Err(SnapshotError::Unsupported(format!(
                "format version {version}, this build reads {FORMAT_VERSION}"
            )));
        }
        let precision = SnapshotPrecision::from_code(get_u32(buf, 8)).ok_or_else(|| {
            SnapshotError::Unsupported(format!("precision code {}", get_u32(buf, 8)))
        })?;
        let shards = get_u32(buf, 16) as usize;
        let plan = match get_u32(buf, 12) {
            0 => {
                if shards != 1 {
                    return Err(corrupt(format!("unsharded image declares {shards} shards")));
                }
                None
            }
            1 => Some((ShardPlanKind::Contiguous, shards)),
            2 => Some((ShardPlanKind::Strided, shards)),
            k => return Err(SnapshotError::Unsupported(format!("plan kind {k}"))),
        };
        if plan.is_some() && shards == 0 {
            return Err(corrupt("sharded image declares zero shards"));
        }
        let total = get_u64(buf, 24) as usize;
        if total != buf.len() {
            return Err(corrupt(format!(
                "header declares {total} bytes, file holds {}",
                buf.len()
            )));
        }
        let count = get_u32(buf, 20) as usize;
        let table_len = count
            .checked_mul(SECTION_ENTRY_LEN)
            .filter(|&t| HEADER_LEN + t <= buf.len())
            .ok_or_else(|| corrupt(format!("section table of {count} entries out of bounds")))?;
        let table = &buf[HEADER_LEN..HEADER_LEN + table_len];
        if get_u32(buf, 32) != crc32(table) {
            return Err(corrupt("section table checksum mismatch"));
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let at = i * SECTION_ENTRY_LEN;
            let kind = SectionKind::from_u32(get_u32(table, at)).ok_or_else(|| {
                SnapshotError::Unsupported(format!("section kind {}", get_u32(table, at)))
            })?;
            let index = get_u32(table, at + 4);
            let offset = get_u64(table, at + 8) as usize;
            let len = get_u64(table, at + 16) as usize;
            let crc = get_u32(table, at + 24);
            if !offset.is_multiple_of(SECTION_ALIGN) {
                return Err(corrupt(format!(
                    "section {kind:?}[{index}] at unaligned offset {offset}"
                )));
            }
            if offset < HEADER_LEN + table_len {
                return Err(corrupt(format!(
                    "section {kind:?}[{index}] at offset {offset} starts inside the header or section table"
                )));
            }
            let end = offset
                .checked_add(len)
                .filter(|&e| e <= buf.len())
                .ok_or_else(|| {
                    corrupt(format!("section {kind:?}[{index}] spills past the image"))
                })?;
            if crc32(&buf[offset..end]) != crc {
                return Err(corrupt(format!(
                    "section {kind:?}[{index}] payload checksum mismatch"
                )));
            }
            if sections
                .iter()
                .any(|s: &SectionEntry| s.kind == kind && s.index == index)
            {
                return Err(corrupt(format!("duplicate section {kind:?}[{index}]")));
            }
            sections.push(SectionEntry {
                kind,
                index,
                offset,
                len,
            });
        }
        // The writer lays payloads out in ascending, disjoint ranges; two
        // that share a byte would let one section alias another's data.
        let mut by_offset: Vec<&SectionEntry> = sections.iter().filter(|s| s.len > 0).collect();
        by_offset.sort_unstable_by_key(|s| s.offset);
        for pair in by_offset.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b.offset < a.offset + a.len {
                return Err(corrupt(format!(
                    "section {:?}[{}] overlaps section {:?}[{}]",
                    b.kind, b.index, a.kind, a.index
                )));
            }
        }
        Ok(SnapshotImage {
            arena,
            precision,
            plan,
            sections,
        })
    }

    /// Storage precision declared by the header.
    pub fn precision(&self) -> SnapshotPrecision {
        self.precision
    }

    /// `(plan kind, shard count)` for sharded images, `None` when unsharded.
    pub fn plan(&self) -> Option<(ShardPlanKind, usize)> {
        self.plan
    }

    /// The backing arena (byte-length / diagnostics hook).
    pub fn arena(&self) -> &SharedArena {
        &self.arena
    }

    /// Whether `(kind, index)` exists in the image.
    pub fn has(&self, kind: SectionKind, index: u32) -> bool {
        self.entry(kind, index).is_some()
    }

    fn entry(&self, kind: SectionKind, index: u32) -> Option<&SectionEntry> {
        self.sections
            .iter()
            .find(|s| s.kind == kind && s.index == index)
    }

    /// Raw bytes of section `(kind, index)`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] if the section is absent.
    pub fn bytes(&self, kind: SectionKind, index: u32) -> Result<&[u8], SnapshotError> {
        let s = self
            .entry(kind, index)
            .ok_or_else(|| corrupt(format!("missing section {kind:?}[{index}]")))?;
        Ok(&self.arena.as_slice()[s.offset..s.offset + s.len])
    }

    /// A typed view of section `(kind, index)` straight over the image —
    /// the zero-copy hook every loaded arena goes through.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] if the section is absent or its byte
    /// length is not a whole number of `T`s.
    pub fn view<T: Pod>(
        &self,
        kind: SectionKind,
        index: u32,
    ) -> Result<ArenaView<T>, SnapshotError> {
        let s = self
            .entry(kind, index)
            .ok_or_else(|| corrupt(format!("missing section {kind:?}[{index}]")))?;
        let size = std::mem::size_of::<T>();
        if s.len % size != 0 {
            return Err(corrupt(format!(
                "section {kind:?}[{index}]: {} bytes is not a whole number of {size}-byte elements",
                s.len
            )));
        }
        self.arena
            .view::<T>(s.offset, s.len / size)
            .map_err(corrupt)
    }
}

// ---------------------------------------------------------------------------
// NetworkConfig codec (hand-rolled: the serde shim is untrusted for
// persistence; this is an explicit, versioned-with-the-format binary layout)
// ---------------------------------------------------------------------------

/// Encode `config` into the [`SectionKind::Config`] payload.
pub fn encode_config(config: &NetworkConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(96 + config.hidden_dims.len() * 8);
    let w64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
    let w32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
    w64(&mut out, config.input_dim as u64);
    w64(&mut out, config.output_dim as u64);
    w32(&mut out, config.hidden_dims.len() as u32);
    for &h in &config.hidden_dims {
        w64(&mut out, h as u64);
    }
    w64(&mut out, config.seed);
    w32(
        &mut out,
        match config.precision {
            Precision::Fp32 => 0,
            Precision::Bf16Activations => 1,
            Precision::Bf16Both => 2,
        },
    );
    match config.lsh.family {
        HashFamilyKind::Dwta { bin_size } => {
            w32(&mut out, 0);
            w64(&mut out, bin_size as u64);
        }
        HashFamilyKind::SimHash => {
            w32(&mut out, 1);
            w64(&mut out, 0);
        }
    }
    w32(&mut out, config.lsh.key_bits);
    w64(&mut out, config.lsh.tables as u64);
    w64(&mut out, config.lsh.bucket_cap as u64);
    w32(
        &mut out,
        match config.lsh.policy {
            BucketPolicy::Fifo => 0,
            BucketPolicy::Reservoir => 1,
        },
    );
    w64(&mut out, config.lsh.min_active as u64);
    match config.lsh.max_active {
        None => {
            w32(&mut out, 0);
            w64(&mut out, 0);
        }
        Some(m) => {
            w32(&mut out, 1);
            w64(&mut out, m as u64);
        }
    }
    w64(&mut out, config.lsh.probes as u64);
    out.push(u8::from(config.memory.coalesced_params));
    out.push(u8::from(config.memory.coalesced_data));
    out
}

/// Bounds-checked cursor over a config/manifest payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("payload truncated"))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("value exceeds this platform's usize"))
    }

    pub(crate) fn done(&self) -> Result<(), SnapshotError> {
        if self.at != self.buf.len() {
            return Err(corrupt(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.at
            )));
        }
        Ok(())
    }
}

/// Decode the [`SectionKind::Config`] payload. The decoded config is run
/// through [`NetworkConfig::validate`], so a structurally valid payload
/// carrying nonsense parameters is still rejected as corruption.
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] on truncation, trailing bytes, unknown
/// enum codes, or a config that fails validation.
pub fn decode_config(bytes: &[u8]) -> Result<NetworkConfig, SnapshotError> {
    let mut r = Reader::new(bytes);
    let input_dim = r.usize()?;
    let output_dim = r.usize()?;
    let hidden_count = r.u32()? as usize;
    if hidden_count > 1024 {
        return Err(corrupt(format!("{hidden_count} hidden layers")));
    }
    let mut hidden_dims = Vec::with_capacity(hidden_count);
    for _ in 0..hidden_count {
        hidden_dims.push(r.usize()?);
    }
    let seed = r.u64()?;
    let precision = match r.u32()? {
        0 => Precision::Fp32,
        1 => Precision::Bf16Activations,
        2 => Precision::Bf16Both,
        p => return Err(corrupt(format!("precision code {p}"))),
    };
    let family_tag = r.u32()?;
    let bin_size = r.usize()?;
    let family = match family_tag {
        0 => HashFamilyKind::Dwta { bin_size },
        1 => HashFamilyKind::SimHash,
        t => return Err(corrupt(format!("hash family tag {t}"))),
    };
    let key_bits = r.u32()?;
    let tables = r.usize()?;
    let bucket_cap = r.usize()?;
    let policy = match r.u32()? {
        0 => BucketPolicy::Fifo,
        1 => BucketPolicy::Reservoir,
        p => return Err(corrupt(format!("bucket policy code {p}"))),
    };
    let min_active = r.usize()?;
    let max_active = match r.u32()? {
        0 => {
            r.u64()?;
            None
        }
        1 => Some(r.usize()?),
        t => return Err(corrupt(format!("max_active tag {t}"))),
    };
    let probes = r.usize()?;
    let coalesced_params = r.u8()? != 0;
    let coalesced_data = r.u8()? != 0;
    r.done()?;
    let config = NetworkConfig {
        input_dim,
        hidden_dims,
        output_dim,
        lsh: LshConfig {
            family,
            key_bits,
            tables,
            bucket_cap,
            policy,
            min_active,
            max_active,
            probes,
        },
        precision,
        memory: MemoryConfig {
            coalesced_params,
            coalesced_data,
        },
        seed,
    };
    config
        .validate()
        .map_err(|e| corrupt(format!("decoded config invalid: {e}")))?;
    Ok(config)
}

// ---------------------------------------------------------------------------
// Manifest codec
// ---------------------------------------------------------------------------

/// One layer's declared shape in the [`SectionKind::Manifest`]: layer
/// ordinals run input (0), hidden (`1..=H`), then output (one entry
/// unsharded, one per shard sharded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerDims {
    /// Arena rows (features for the transposed input layer, units
    /// otherwise; shard entries hold the shard's row count).
    pub rows: usize,
    /// Meaningful elements per row (stride is recomputed per precision).
    pub cols: usize,
    /// Bias length (`cols` for the input layer, `rows` otherwise).
    pub bias_len: usize,
}

/// Encode the per-layer manifest.
pub fn encode_manifest(layers: &[LayerDims]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + layers.len() * 24);
    out.extend_from_slice(&(layers.len() as u32).to_le_bytes());
    for l in layers {
        out.extend_from_slice(&(l.rows as u64).to_le_bytes());
        out.extend_from_slice(&(l.cols as u64).to_le_bytes());
        out.extend_from_slice(&(l.bias_len as u64).to_le_bytes());
    }
    out
}

/// Decode the per-layer manifest.
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] on truncation or trailing bytes.
pub fn decode_manifest(bytes: &[u8]) -> Result<Vec<LayerDims>, SnapshotError> {
    let mut r = Reader::new(bytes);
    let count = r.u32()? as usize;
    if count > 1_000_000 {
        return Err(corrupt(format!("{count} manifest entries")));
    }
    let mut layers = Vec::with_capacity(count);
    for _ in 0..count {
        layers.push(LayerDims {
            rows: r.usize()?,
            cols: r.usize()?,
            bias_len: r.usize()?,
        });
    }
    r.done()?;
    Ok(layers)
}

/// Number of dense hidden layers a network of `config` carries: the input
/// layer already produces `hidden_dims[0]`, so the dense stack covers the
/// *transitions* between hidden widths — `hidden_dims.len() - 1` layers
/// (zero for the paper's standard one-hidden-layer architecture). Every
/// ordinal computation in the format derives from this one definition.
pub fn dense_hidden_count(config: &NetworkConfig) -> usize {
    config.hidden_dims.len() - 1
}

/// The manifest a network of `config` produces under `spec` — derived once
/// here so the encoder writes it and the decoder cross-checks it. Ordinals:
/// the transposed input layer (one row per feature, bias per first-hidden
/// column), the dense hidden stack (one layer per adjacent `hidden_dims`
/// pair — the input layer already emits `hidden_dims[0]`), then the output
/// layer — whole, or one entry per shard.
pub fn expected_manifest(config: &NetworkConfig, spec: &SnapshotSpec) -> Vec<LayerDims> {
    let first_hidden = config.hidden_dims[0];
    let mut layers = vec![LayerDims {
        rows: config.input_dim,
        cols: first_hidden,
        bias_len: first_hidden,
    }];
    for w in config.hidden_dims.windows(2) {
        layers.push(LayerDims {
            rows: w[1],
            cols: w[0],
            bias_len: w[1],
        });
    }
    let last_hidden = *config.hidden_dims.last().expect("validated non-empty");
    match spec.shard_plan {
        None => layers.push(LayerDims {
            rows: config.output_dim,
            cols: last_hidden,
            bias_len: config.output_dim,
        }),
        Some(plan) => {
            for s in 0..plan.shards() {
                let rows = plan.shard_rows(s).len();
                layers.push(LayerDims {
                    rows,
                    cols: last_hidden,
                    bias_len: rows,
                });
            }
        }
    }
    layers
}

// ---------------------------------------------------------------------------
// Table sections
// ---------------------------------------------------------------------------

/// Write the global frozen tables as the three CSR sections.
fn encode_tables(writer: &mut SnapshotWriter, tables: &LshTables) {
    let csr = tables.to_csr();
    writer.section_pod(SectionKind::TableOffsets, 0, &csr.offsets);
    writer.section_pod(SectionKind::TableItems, 0, &csr.items);
    writer.section_pod(SectionKind::TableArrivals, 0, &csr.arrivals);
}

/// Rebuild the global tables from an image's CSR sections: every
/// table/policy seed is re-derived from `config.seed` exactly as the
/// original build derived it, and the CSR round trip preserves bucket
/// contents, order, and reservoir arrival counters — so loaded tables
/// retrieve bit-identically to the ones that were saved.
fn decode_tables(
    image: &SnapshotImage,
    config: &NetworkConfig,
) -> Result<LshTables, SnapshotError> {
    let csr = TablesCsr {
        offsets: image
            .view::<u32>(SectionKind::TableOffsets, 0)?
            .as_slice()
            .to_vec(),
        items: image
            .view::<u32>(SectionKind::TableItems, 0)?
            .as_slice()
            .to_vec(),
        arrivals: image
            .view::<u64>(SectionKind::TableArrivals, 0)?
            .as_slice()
            .to_vec(),
    };
    LshTables::from_csr(
        config.lsh.tables,
        config.lsh.key_bits,
        config.lsh.bucket_cap,
        config.lsh.policy,
        config.seed ^ TABLE_SEED_SALT,
        &csr,
    )
    .map_err(corrupt)
}

// ---------------------------------------------------------------------------
// The one codec
// ---------------------------------------------------------------------------

/// Encode `net` as `spec` describes. Layers stream straight from the
/// training network into the writer one at a time — trunk, then one
/// row-subset arena per shard — followed by the *global* tables (shard
/// partitions are recomputed at load) and, for unsharded lossy images, the
/// quantization report. An unsharded image is the one-shard case: shard
/// count 1, output layer at ordinal `H + 1`.
///
/// # Errors
///
/// [`SnapshotError::Build`] if the spec is unservable for this network
/// (plan row mismatch, `max_active` with more than one shard).
pub fn encode(net: &Network, spec: &SnapshotSpec) -> Result<AlignedVec<u8>, SnapshotError> {
    match spec.precision {
        SnapshotPrecision::F32 => encode_as::<FrozenLayer>(net, spec),
        SnapshotPrecision::I8 => encode_as::<QuantizedLayer>(net, spec),
    }
}

fn encode_as<L: RowLayout>(
    net: &Network,
    spec: &SnapshotSpec,
) -> Result<AlignedVec<u8>, SnapshotError> {
    let config = net.config();
    let plan = serving_plan(config, spec.shard_plan)?;
    let mut w = SnapshotWriter::new(spec);
    w.section(SectionKind::Config, 0, encode_config(config));
    let manifest = expected_manifest(config, spec);
    w.section(SectionKind::Manifest, 0, encode_manifest(&manifest));
    FrozenLayer::from_params(net.input().params()).encode(&mut w, 0);
    let mut report = QuantReport::default();
    let mut ordinal = 0;
    cut_layers(net, &plan, &mut report, |layer: L| {
        ordinal += 1;
        layer.encode(&mut w, ordinal);
    });
    encode_tables(&mut w, &build_tables(net));
    if spec.shard_plan.is_none() && !report.layers.is_empty() {
        w.section(SectionKind::QuantReport, 0, report.encode());
    }
    Ok(w.finish())
}

/// Decode the config + manifest preamble every load path shares, rebuild
/// the [`SnapshotSpec`] the image was cut under, and cross-check the
/// manifest against what that config and spec must produce — after this,
/// every layer shape (widths chain, shard row counts) is trusted.
fn decode_preamble(
    image: &SnapshotImage,
) -> Result<(NetworkConfig, SnapshotSpec, Vec<LayerDims>), SnapshotError> {
    let config = decode_config(image.bytes(SectionKind::Config, 0)?)?;
    let shard_plan = image
        .plan()
        .map(|(kind, shards)| ShardPlan::new(kind, shards, config.output_dim))
        .transpose()
        .map_err(|e| corrupt(format!("stored plan unbuildable: {e}")))?;
    let spec = SnapshotSpec {
        precision: image.precision(),
        shard_plan,
    };
    let manifest = decode_manifest(image.bytes(SectionKind::Manifest, 0)?)?;
    if manifest != expected_manifest(&config, &spec) {
        return Err(corrupt(
            "manifest disagrees with the shapes its config and header imply",
        ));
    }
    Ok((config, spec, manifest))
}

impl<L: RowLayout> Engine<L> {
    /// Instantiate the engine an image of this layout describes: every
    /// arena is a view into the image (zero weight copies), the tables are
    /// rebuilt from the CSR sections and re-partitioned exactly as the
    /// builder partitioned them.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] if the image holds another layout;
    /// [`SnapshotError::Corrupt`] on section-shape disagreements;
    /// [`SnapshotError::Build`] if the decoded parts are unservable.
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
        let mut hidden: Vec<L> = (1..manifest.len())
            .map(|o| L::decode(image, o as u32, manifest[o]))
            .collect::<Result<_, _>>()?;
        let shards = hidden.split_off(dense_hidden_count(&config));
        let tables = decode_tables(image, &config)?;
        // `.slsnap` v1: the report rides in unsharded lossy images only.
        let report = if L::PRECISION == SnapshotPrecision::I8 && spec.shard_plan.is_none() {
            QuantReport::decode(image.bytes(SectionKind::QuantReport, 0)?)?
        } else {
            QuantReport::default()
        };
        Ok(Engine::assemble(
            config, plan, input, hidden, shards, tables, report,
        ))
    }
}

/// Instantiate the serving engine `image` describes, dispatching on the
/// header's precision code.
///
/// # Errors
///
/// As [`Engine::from_image`].
pub fn decode(image: &SnapshotImage) -> Result<Arc<dyn FrozenModel>, SnapshotError> {
    Ok(match image.precision() {
        SnapshotPrecision::F32 => Arc::new(Engine::<FrozenLayer>::from_image(image)?),
        SnapshotPrecision::I8 => Arc::new(Engine::<QuantizedLayer>::from_image(image)?),
    })
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// A verified snapshot image plus the spec it was cut under — the one
/// artifact that moves between the build side ([`Snapshot::build`]), disk
/// ([`Snapshot::save`] / [`Snapshot::open`]), and the serving engine
/// ([`Snapshot::model`]).
///
/// Every build encodes into a verified in-memory image and instantiates the
/// engine *over that image* — the same code path a later [`Snapshot::open`]
/// of the saved file runs — so save→load bit-equality holds by
/// construction, not by testing alone.
///
/// # Examples
///
/// ```
/// use slide_core::{Network, NetworkConfig};
/// use slide_serve::{load, ShardPlan, Snapshot, SnapshotSpec};
///
/// let net = Network::new(NetworkConfig::standard(256, 16, 64)).unwrap();
/// let spec = SnapshotSpec::i8().sharded(ShardPlan::contiguous(2, 64).unwrap());
/// let snapshot = Snapshot::build(&net, &spec).unwrap();
/// let built = snapshot.model().unwrap();
///
/// let path = std::env::temp_dir().join(format!("doc_{}.slsnap", std::process::id()));
/// snapshot.save(&path).unwrap();
/// let loaded = load(&path).unwrap();
/// std::fs::remove_file(&path).unwrap();
///
/// let (idx, val) = ([1u32, 17], [1.0f32, 0.5]);
/// let x = slide_mem::SparseVecRef::new(&idx, &val);
/// let (mut sb, mut sl) = (built.make_scratch_any(), loaded.make_scratch_any());
/// assert_eq!(
///     loaded.predict_any(x, 5, sl.as_mut(), 0),
///     built.predict_any(x, 5, sb.as_mut(), 0),
/// );
/// ```
#[derive(Debug)]
pub struct Snapshot {
    image: SnapshotImage,
    spec: SnapshotSpec,
}

impl Snapshot {
    /// Snapshot `net` as `spec` describes: encode into an in-memory image
    /// and verify it exactly as a loaded file would be.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Build`] if the spec is unservable for this network
    /// (plan row mismatch, `max_active`); verification errors cannot occur
    /// on a freshly encoded image short of a bug.
    pub fn build(net: &Network, spec: &SnapshotSpec) -> Result<Self, SnapshotError> {
        let image = SnapshotImage::from_arena(SharedArena::from_bytes(encode(net, spec)?))?;
        Ok(Snapshot { image, spec: *spec })
    }

    /// Map and verify the snapshot at `path` (typically a registry
    /// version file).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure, otherwise as
    /// [`SnapshotImage::open`].
    pub fn open(path: &Path) -> Result<Self, SnapshotError> {
        let image = SnapshotImage::open(path)?;
        let (_, spec, _) = decode_preamble(&image)?;
        Ok(Snapshot { image, spec })
    }

    /// The spec this snapshot was cut under.
    pub fn spec(&self) -> SnapshotSpec {
        self.spec
    }

    /// The verified image.
    pub fn image(&self) -> &SnapshotImage {
        &self.image
    }

    /// The raw image bytes (what [`Snapshot::save`] writes and
    /// `ModelRegistry::publish` stores).
    pub fn bytes(&self) -> &[u8] {
        self.image.arena().as_slice()
    }

    /// Write the image to `path` atomically (temp sibling + fsync +
    /// rename — the registry's durability discipline, usable standalone).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on write failure.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        write_atomic(path, self.bytes())?;
        Ok(())
    }

    /// Instantiate the serving engine this image describes. Weight/code
    /// arenas are views into the image — loading parses headers and
    /// rebuilds hash-table bookkeeping, never the arenas.
    ///
    /// # Errors
    ///
    /// As [`decode`].
    pub fn model(&self) -> Result<Arc<dyn FrozenModel>, SnapshotError> {
        decode(&self.image)
    }
}

/// One-call serving path: mmap + verify + instantiate the engine at
/// `path`. This is what `slide_netd --snapshot` runs at cold start.
///
/// # Errors
///
/// As [`Snapshot::open`] and [`Snapshot::model`].
pub fn load(path: &Path) -> Result<Arc<dyn FrozenModel>, SnapshotError> {
    Snapshot::open(path)?.model()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slide_core::LshConfig;
    use slide_mem::SparseVecRef;

    fn tiny_net(seed: u64) -> Network {
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

    #[test]
    fn config_round_trips() {
        let mut cfg = NetworkConfig::standard(512, 64, 1000);
        cfg.hidden_dims = vec![64, 48, 32];
        cfg.seed = 0xDEAD_BEEF;
        cfg.precision = Precision::Bf16Both;
        cfg.lsh.max_active = Some(77);
        cfg.lsh.policy = BucketPolicy::Fifo;
        cfg.lsh.family = HashFamilyKind::SimHash;
        let back = decode_config(&encode_config(&cfg)).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn config_decode_rejects_truncation_and_trailing() {
        let bytes = encode_config(&NetworkConfig::standard(128, 16, 64));
        for cut in [0, 1, 7, bytes.len() - 1] {
            assert!(matches!(
                decode_config(&bytes[..cut]),
                Err(SnapshotError::Corrupt(_))
            ));
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            decode_config(&long),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn manifest_round_trips() {
        let layers = vec![
            LayerDims {
                rows: 128,
                cols: 16,
                bias_len: 16,
            },
            LayerDims {
                rows: 64,
                cols: 16,
                bias_len: 64,
            },
        ];
        assert_eq!(decode_manifest(&encode_manifest(&layers)).unwrap(), layers);
    }

    #[test]
    fn writer_layout_aligns_and_verifies() {
        let mut w = SnapshotWriter::new(&SnapshotSpec::f32());
        w.section(SectionKind::Config, 0, vec![1, 2, 3]);
        w.section_pod(SectionKind::Bias, 7, &[1.0f32, -2.0, 3.5]);
        let image = SnapshotImage::from_arena(SharedArena::from_bytes(w.finish())).unwrap();
        assert_eq!(image.precision(), SnapshotPrecision::F32);
        assert_eq!(image.plan(), None);
        assert_eq!(image.bytes(SectionKind::Config, 0).unwrap(), &[1, 2, 3]);
        let bias = image.view::<f32>(SectionKind::Bias, 7).unwrap();
        assert_eq!(bias.as_slice(), &[1.0, -2.0, 3.5]);
        // Payload pointers are cache-line aligned straight off the image.
        assert_eq!(bias.as_slice().as_ptr() as usize % SECTION_ALIGN, 0);
        assert!(!image.has(SectionKind::Bias, 0));
        assert!(matches!(
            image.bytes(SectionKind::Manifest, 0),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn bit_flips_anywhere_are_detected() {
        let mut w = SnapshotWriter::new(&SnapshotSpec::i8());
        w.section_pod(SectionKind::QuantScales, 0, &[0.5f32; 40]);
        let image = w.finish();
        // Flip one bit at a spread of offsets covering header, table, and
        // payload; every single one must be rejected (not panic).
        for at in [0usize, 5, 9, 21, 33, 61, 70, 80, 90, image.len() - 1] {
            let mut bytes = AlignedVec::<u8>::zeroed(image.len());
            bytes.as_mut_slice().copy_from_slice(image.as_slice());
            bytes.as_mut_slice()[at] ^= 0x10;
            assert!(
                SnapshotImage::from_arena(SharedArena::from_bytes(bytes)).is_err(),
                "flip at byte {at} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected_not_ub() {
        let mut w = SnapshotWriter::new(&SnapshotSpec::f32());
        w.section_pod(SectionKind::WeightsF32, 0, &[1.0f32; 64]);
        let image = w.finish();
        for keep in [0usize, 10, 63, 64, 100, image.len() - 1] {
            let mut bytes = AlignedVec::<u8>::zeroed(keep);
            bytes
                .as_mut_slice()
                .copy_from_slice(&image.as_slice()[..keep]);
            assert!(
                SnapshotImage::from_arena(SharedArena::from_bytes(bytes)).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
    }

    fn image_of(net: &Network, spec: &SnapshotSpec) -> SnapshotImage {
        SnapshotImage::from_arena(SharedArena::from_bytes(encode(net, spec).unwrap())).unwrap()
    }

    fn queries(input_dim: u32) -> Vec<(Vec<u32>, Vec<f32>)> {
        (0..24u32)
            .map(|q| {
                (
                    vec![
                        q % input_dim,
                        (q * 7 + 3) % input_dim,
                        (q * 31 + 11) % input_dim,
                    ],
                    vec![1.0f32, -0.5, 0.25],
                )
            })
            .collect()
    }

    /// Encode → decode equals the directly frozen engine of layout `L`.
    fn assert_save_load_bit_identical<L: RowLayout>(net: &Network, plan: Option<ShardPlan>) {
        let spec = SnapshotSpec {
            precision: L::PRECISION,
            shard_plan: plan,
        };
        let original = Engine::<L>::freeze_sharded(net, plan).unwrap();
        let image = image_of(net, &spec);
        assert_eq!(image.precision(), L::PRECISION);
        assert_eq!(image.plan(), plan.map(|p| (p.kind(), p.shards())));
        let loaded = Engine::<L>::from_image(&image).unwrap();
        assert_eq!(loaded.config(), original.config());
        if plan.is_none() {
            assert_eq!(loaded.report(), original.report());
        }
        let (mut so, mut sl) = (original.make_scratch(), loaded.make_scratch());
        for (q, (idx, val)) in queries(net.config().input_dim as u32)
            .into_iter()
            .enumerate()
        {
            let x = SparseVecRef::new(&idx, &val);
            assert_eq!(
                loaded.predict_sparse(x, 5, &mut sl, q as u64),
                original.predict_sparse(x, 5, &mut so, q as u64),
                "{spec:?}: sparse diverged at query {q}"
            );
            assert_eq!(
                loaded.predict_full(x, 5, &mut sl),
                original.predict_full(x, 5, &mut so),
                "{spec:?}: full diverged at query {q}"
            );
        }
    }

    fn sharded_plans() -> [Option<ShardPlan>; 2] {
        [
            Some(ShardPlan::contiguous(3, 64).unwrap()),
            Some(ShardPlan::strided(4, 64).unwrap()),
        ]
    }

    #[test]
    fn f32_save_load_predicts_bit_identically() {
        assert_save_load_bit_identical::<FrozenLayer>(&tiny_net(42), None);
    }

    #[test]
    fn sharded_f32_save_load_predicts_bit_identically() {
        for plan in sharded_plans() {
            assert_save_load_bit_identical::<FrozenLayer>(&tiny_net(7), plan);
        }
    }

    #[test]
    fn i8_save_load_predicts_bit_identically_with_report() {
        assert_save_load_bit_identical::<QuantizedLayer>(&tiny_net(11), None);
    }

    #[test]
    fn sharded_i8_save_load_predicts_bit_identically() {
        for plan in sharded_plans() {
            assert_save_load_bit_identical::<QuantizedLayer>(&tiny_net(17), plan);
        }
    }

    fn deep_net() -> Network {
        let mut cfg = NetworkConfig::standard(64, 16, 32);
        cfg.hidden_dims = vec![16, 12, 8];
        cfg.lsh.tables = 6;
        cfg.lsh.key_bits = 4;
        cfg.lsh.min_active = 8;
        Network::new(cfg).unwrap()
    }

    #[test]
    fn deep_network_round_trips() {
        let plan = Some(ShardPlan::strided(2, 32).unwrap());
        assert_save_load_bit_identical::<FrozenLayer>(&deep_net(), None);
        assert_save_load_bit_identical::<QuantizedLayer>(&deep_net(), plan);
    }

    #[test]
    fn report_round_trips_bit_exactly() {
        let report = Engine::<QuantizedLayer>::freeze(&deep_net())
            .report()
            .clone();
        assert_eq!(report.layers.len(), 3);
        assert_eq!(QuantReport::decode(&report.encode()).unwrap(), report);
        assert!(matches!(
            QuantReport::decode(&report.encode()[..7]),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn build_covers_every_spec_and_matches_the_direct_engine() {
        let net = tiny_net(23);
        let plan = ShardPlan::contiguous(3, 64).unwrap();
        let specs = [
            SnapshotSpec::f32(),
            SnapshotSpec::i8(),
            SnapshotSpec::f32().sharded(plan),
            SnapshotSpec::i8().sharded(plan),
        ];
        let frozen = Engine::<FrozenLayer>::freeze(&net);
        let mut reference = frozen.make_scratch();
        for spec in specs {
            let snap = Snapshot::build(&net, &spec).unwrap();
            assert_eq!(snap.spec(), spec);
            let model = snap.model().unwrap();
            assert_eq!(model.precision(), spec.precision.label());
            let mut scratch = model.make_scratch_any();
            for (q, (idx, val)) in queries(128).into_iter().enumerate() {
                let x = SparseVecRef::new(&idx, &val);
                let topk = model.predict_any(x, 4, scratch.as_mut(), q as u64);
                assert_eq!(topk.len(), 4);
                if spec.precision == SnapshotPrecision::F32 {
                    // Every f32 spec — sharded or not, built or loaded — is
                    // bit-equal to the directly frozen engine.
                    assert_eq!(
                        topk,
                        frozen.predict_sparse(x, 4, &mut reference, q as u64),
                        "{spec:?} diverged at query {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn save_open_through_a_registry_round_trips() {
        let root =
            std::env::temp_dir().join(format!("slide_serve_snapshot_reg_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let reg = crate::ModelRegistry::open(&root).unwrap();
        let net = tiny_net(29);
        let built = Snapshot::build(&net, &SnapshotSpec::i8()).unwrap();
        let v = reg.publish(built.bytes()).unwrap();
        let loaded = load(&reg.version_path(v)).unwrap();
        let model = built.model().unwrap();
        let (mut sa, mut sb) = (model.make_scratch_any(), loaded.make_scratch_any());
        for (q, (idx, val)) in queries(128).into_iter().enumerate() {
            let x = SparseVecRef::new(&idx, &val);
            assert_eq!(
                loaded.predict_any(x, 5, sb.as_mut(), q as u64),
                model.predict_any(x, 5, sa.as_mut(), q as u64),
                "registry round trip diverged at query {q}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_i8_image_cannot_back_an_f32_engine() {
        let image = image_of(&tiny_net(31), &SnapshotSpec::i8());
        assert!(matches!(
            Engine::<FrozenLayer>::from_image(&image),
            Err(SnapshotError::Unsupported(_))
        ));
    }

    #[test]
    fn an_f32_image_cannot_back_an_i8_engine() {
        let plan = ShardPlan::contiguous(2, 64).unwrap();
        let image = image_of(&tiny_net(1), &SnapshotSpec::f32().sharded(plan));
        assert!(matches!(
            Engine::<QuantizedLayer>::from_image(&image),
            Err(SnapshotError::Unsupported(_))
        ));
    }

    #[test]
    fn loaded_arenas_view_the_image_not_copies() {
        let net = tiny_net(5);
        let image = image_of(&net, &SnapshotSpec::f32());
        let lo = image.arena().as_slice().as_ptr() as usize;
        let hi = lo + image.arena().len();
        let loaded = Engine::<FrozenLayer>::from_image(&image).unwrap();
        let w = loaded.shard_layer(0).flat().as_ptr() as usize;
        assert!(
            (lo..hi).contains(&w),
            "output arena {w:#x} escaped image [{lo:#x}, {hi:#x})"
        );
        let b = loaded.input_layer().bias().as_ptr() as usize;
        assert!((lo..hi).contains(&b), "input bias escaped the image");
    }
}
