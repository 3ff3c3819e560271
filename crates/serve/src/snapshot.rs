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
//!     12     4  plan kind (0 = unsharded, 1 = contiguous; 2, the retired
//!               strided plan, and any other value are refused)
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
//! (0 = input, `1 + s` = output shard `s` — an unsharded image is the
//! one-shard case, output at 1). The LSH sections hold the one global table
//! set whatever the shard count, and a load views them in place: loaded
//! retrieval is the built retrieval, byte for byte.
//!
//! One codec serves every engine, and an image is the only way to one:
//! [`encode`] writes the image of any [`SnapshotSpec`] (layout × shard plan)
//! in place through [`SnapshotWriter`], [`Engine::from_image`] views
//! whatever an image describes; the per-layout sections are the
//! [`RowLayout::sections`] / [`RowLayout::write_rows`] /
//! [`RowLayout::decode`] hooks. [`Snapshot`] wraps the pair for callers:
//! [`Snapshot::build`] cuts a verified image in memory ([`Engine::freeze`]
//! is that plus [`Engine::from_image`]), [`load`] brings one back as an
//! `Arc<dyn FrozenModel>` with the weight arenas viewing the mapped file
//! (see [`crate::ModelRegistry`] for versioned publish/rollback).

use crate::error::ServeBuildError;
use crate::frozen::Engine;
use crate::layer::{FrozenLayer, QuantReport, QuantizedLayer, RowLayout};
use crate::model::FrozenModel;
use crate::registry::write_atomic;
use crate::shard::ShardPlan;
use slide_core::{
    HashFamilyKind, LshConfig, MemoryConfig, Network, NetworkConfig, Precision, Retrieval,
};
use slide_hash::LshTables;
use slide_mem::{crc32, pod_bytes, AlignedVec, ArenaView, ByteReader, Pod, ReadError, SharedArena};
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

    /// Parse a `--precision` flag value: a [`SnapshotPrecision::label`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        [SnapshotPrecision::F32, SnapshotPrecision::I8]
            .into_iter()
            .find(|p| p.label() == s)
            .ok_or_else(|| format!("unknown precision '{s}' (want f32 or i8)"))
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
    /// The spec cannot be served for this network: a shard plan whose rows
    /// disagree with the output layer
    /// ([`ServeBuildError::PlanRowsMismatch`]).
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

impl From<ReadError> for SnapshotError {
    fn from(e: ReadError) -> Self {
        SnapshotError::Corrupt(e.to_string())
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

fn align_up(v: usize) -> usize {
    v.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Writes a snapshot image in place. [`SnapshotWriter::new`] takes every
/// section's `(kind, index, byte length)` up front, lays the image out and
/// allocates it once at its final length; each payload is then filled where
/// it lies ([`SnapshotWriter::payload`]); [`SnapshotWriter::finish`] last
/// checksums the payloads and writes the section table and header. No
/// section is staged anywhere else, and the finished image is byte-for-byte
/// what [`SnapshotImage::open`] later maps.
#[derive(Debug)]
pub struct SnapshotWriter {
    spec: SnapshotSpec,
    sections: Vec<SectionEntry>,
    image: AlignedVec<u8>,
}

impl SnapshotWriter {
    /// Lay out an image for `spec` holding `sections`, in order, and
    /// allocate it zeroed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] if two sections share a `(kind, index)`:
    /// the reader would refuse the image.
    pub fn new(
        spec: &SnapshotSpec,
        sections: &[(SectionKind, u32, usize)],
    ) -> Result<Self, SnapshotError> {
        // Align up *before* each payload, never after the last one: the
        // image ends exactly where its final section does, so every byte
        // past the table is either CRC-covered payload or an inter-section
        // gap no reader ever dereferences.
        let mut cursor = HEADER_LEN + sections.len() * SECTION_ENTRY_LEN;
        let mut entries: Vec<SectionEntry> = Vec::with_capacity(sections.len());
        for &(kind, index, len) in sections {
            if entries.iter().any(|s| s.kind == kind && s.index == index) {
                return Err(corrupt(format!("duplicate section {kind:?}[{index}]")));
            }
            let offset = align_up(cursor);
            cursor = offset + len;
            entries.push(SectionEntry {
                kind,
                index,
                offset,
                len,
            });
        }
        Ok(SnapshotWriter {
            spec: *spec,
            sections: entries,
            image: AlignedVec::zeroed(cursor),
        })
    }

    /// The payload of section `(kind, index)`, to fill in place.
    ///
    /// # Panics
    ///
    /// Panics if [`SnapshotWriter::new`] laid out no such section.
    pub fn payload(&mut self, kind: SectionKind, index: u32) -> &mut [u8] {
        let s = self
            .sections
            .iter()
            .find(|s| s.kind == kind && s.index == index)
            .unwrap_or_else(|| panic!("section {kind:?}[{index}] was not laid out"));
        &mut self.image.as_mut_slice()[s.offset..s.offset + s.len]
    }

    /// Seal the image: payload CRCs, section table, header.
    pub fn finish(mut self) -> AlignedVec<u8> {
        let mut table = Vec::with_capacity(self.sections.len() * SECTION_ENTRY_LEN);
        for s in &self.sections {
            table.extend_from_slice(&(s.kind as u32).to_le_bytes());
            table.extend_from_slice(&s.index.to_le_bytes());
            table.extend_from_slice(&(s.offset as u64).to_le_bytes());
            table.extend_from_slice(&(s.len as u64).to_le_bytes());
            table.extend_from_slice(&crc32(&self.image[s.offset..s.offset + s.len]).to_le_bytes());
            table.extend_from_slice(&0u32.to_le_bytes());
        }
        let (plan_kind, shards) = match self.spec.shard_plan {
            None => (0, 1),
            Some(p) => (1, p.shards() as u32),
        };
        let mut header = Vec::with_capacity(HEADER_LEN);
        for word in [
            MAGIC,
            FORMAT_VERSION,
            self.spec.precision.code(),
            plan_kind,
            shards,
            self.sections.len() as u32,
        ] {
            header.extend_from_slice(&word.to_le_bytes());
        }
        header.extend_from_slice(&(self.image.len() as u64).to_le_bytes());
        header.extend_from_slice(&crc32(&table).to_le_bytes());
        header.resize(60, 0); // bytes 36..60 are reserved
        let header_crc = crc32(&header);
        header.extend_from_slice(&header_crc.to_le_bytes());

        let buf = self.image.as_mut_slice();
        buf[..HEADER_LEN].copy_from_slice(&header);
        buf[HEADER_LEN..HEADER_LEN + table.len()].copy_from_slice(&table);
        self.image
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
    plan: Option<usize>,
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
        let mut h = ByteReader::new(&buf[..HEADER_LEN]);
        let magic = h.u32("header.magic")?;
        let version = h.u32("header.version")?;
        let precision_code = h.u32("header.precision")?;
        let plan_kind = h.u32("header.plan_kind")?;
        let shards = h.u32("header.shards")? as usize;
        let count = h.u32("header.section_count")? as usize;
        let total = h.u64("header.total_len")?;
        let table_crc = h.u32("header.table_crc")?;
        h.take(24, "header.reserved")?;
        let header_crc = h.u32("header.crc")?;
        h.finish("header")?;
        if magic != MAGIC {
            return Err(corrupt("bad magic (not a .slsnap image)"));
        }
        if header_crc != crc32(&buf[..60]) {
            return Err(corrupt("header checksum mismatch"));
        }
        if version != FORMAT_VERSION {
            return Err(SnapshotError::Unsupported(format!(
                "format version {version}, this build reads {FORMAT_VERSION}"
            )));
        }
        let precision = SnapshotPrecision::from_code(precision_code).ok_or_else(|| {
            SnapshotError::Unsupported(format!("precision code {precision_code}"))
        })?;
        let plan = match plan_kind {
            0 => {
                if shards != 1 {
                    return Err(corrupt(format!("unsharded image declares {shards} shards")));
                }
                None
            }
            1 => Some(shards),
            k => return Err(SnapshotError::Unsupported(format!("plan kind {k}"))),
        };
        if plan.is_some() && shards == 0 {
            return Err(corrupt("sharded image declares zero shards"));
        }
        if total != buf.len() as u64 {
            return Err(corrupt(format!(
                "header declares {total} bytes, file holds {}",
                buf.len()
            )));
        }
        let table_len = count
            .checked_mul(SECTION_ENTRY_LEN)
            .filter(|&t| HEADER_LEN + t <= buf.len())
            .ok_or_else(|| corrupt(format!("section table of {count} entries out of bounds")))?;
        let table = &buf[HEADER_LEN..HEADER_LEN + table_len];
        if table_crc != crc32(table) {
            return Err(corrupt("section table checksum mismatch"));
        }
        let mut t = ByteReader::new(table);
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let code = t.u32("section.kind")?;
            let kind = SectionKind::from_u32(code)
                .ok_or_else(|| SnapshotError::Unsupported(format!("section kind {code}")))?;
            let index = t.u32("section.index")?;
            let offset = t.u64("section.offset")? as usize;
            let len = t.u64("section.len")? as usize;
            let crc = t.u32("section.crc")?;
            t.u32("section.reserved")?;
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
        t.finish("section table")?;
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

    /// The shard count of a sharded (contiguous-plan) image, `None` when
    /// unsharded.
    pub fn plan(&self) -> Option<usize> {
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
// NetworkConfig codec (an explicit binary layout, versioned with the format)
// ---------------------------------------------------------------------------

/// Encode `config` into the [`SectionKind::Config`] payload.
pub fn encode_config(config: &NetworkConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(104);
    let w64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
    let w32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
    w64(&mut out, config.input_dim as u64);
    w64(&mut out, config.output_dim as u64);
    // A hidden-layer count, then one width per layer; this build writes
    // and reads exactly one.
    w32(&mut out, 1);
    w64(&mut out, config.hidden as u64);
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
    // The bucket-policy word: 1 = reservoir, the only policy tables have.
    w32(&mut out, 1);
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

/// A `u64` field as a `usize`.
pub(crate) fn read_usize(
    r: &mut ByteReader<'_>,
    what: &'static str,
) -> Result<usize, SnapshotError> {
    usize::try_from(r.u64(what)?)
        .map_err(|_| corrupt(format!("{what} exceeds this platform's usize")))
}

/// Decode the [`SectionKind::Config`] payload. The decoded config is run
/// through [`NetworkConfig::validate`], so a structurally valid payload
/// carrying nonsense parameters is still rejected as corruption.
///
/// # Errors
///
/// [`SnapshotError::Unsupported`] if the config declares any number of
/// hidden layers but one; [`SnapshotError::Corrupt`] on truncation,
/// trailing bytes, unknown enum codes, or a config that fails validation.
pub fn decode_config(bytes: &[u8]) -> Result<NetworkConfig, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let input_dim = read_usize(&mut r, "config.input_dim")?;
    let output_dim = read_usize(&mut r, "config.output_dim")?;
    let hidden_count = r.u32("config.hidden_count")?;
    if hidden_count != 1 {
        return Err(SnapshotError::Unsupported(format!(
            "config declares {hidden_count} hidden layers, this build serves one"
        )));
    }
    let hidden = read_usize(&mut r, "config.hidden")?;
    let seed = r.u64("config.seed")?;
    let precision = match r.u32("config.precision")? {
        0 => Precision::Fp32,
        1 => Precision::Bf16Activations,
        2 => Precision::Bf16Both,
        p => return Err(corrupt(format!("precision code {p}"))),
    };
    let family_tag = r.u32("config.hash_family")?;
    let bin_size = read_usize(&mut r, "config.bin_size")?;
    let family = match family_tag {
        0 => HashFamilyKind::Dwta { bin_size },
        1 => HashFamilyKind::SimHash,
        t => return Err(corrupt(format!("hash family tag {t}"))),
    };
    let key_bits = r.u32("config.key_bits")?;
    let tables = read_usize(&mut r, "config.tables")?;
    let bucket_cap = read_usize(&mut r, "config.bucket_cap")?;
    match r.u32("config.bucket_policy")? {
        1 => {}
        0 => {
            return Err(SnapshotError::Unsupported(
                "bucket policy 0 (FIFO): this build serves reservoir tables only".into(),
            ))
        }
        p => return Err(corrupt(format!("bucket policy code {p}"))),
    }
    let min_active = read_usize(&mut r, "config.min_active")?;
    let max_active = match r.u32("config.max_active_tag")? {
        0 => {
            r.u64("config.max_active")?;
            None
        }
        1 => Some(read_usize(&mut r, "config.max_active")?),
        t => return Err(corrupt(format!("max_active tag {t}"))),
    };
    let probes = read_usize(&mut r, "config.probes")?;
    let coalesced_params = r.u8("config.coalesced_params")? != 0;
    let coalesced_data = r.u8("config.coalesced_data")? != 0;
    r.finish("config")?;
    let config = NetworkConfig {
        input_dim,
        hidden,
        output_dim,
        lsh: LshConfig {
            family,
            key_bits,
            tables,
            bucket_cap,
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
/// ordinals run input (0), then output (one entry unsharded, one per shard
/// sharded).
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
    let mut r = ByteReader::new(bytes);
    let count = r.u32("manifest.count")? as usize;
    if count > 1_000_000 {
        return Err(corrupt(format!("{count} manifest entries")));
    }
    let mut layers = Vec::with_capacity(count);
    for _ in 0..count {
        layers.push(LayerDims {
            rows: read_usize(&mut r, "manifest.rows")?,
            cols: read_usize(&mut r, "manifest.cols")?,
            bias_len: read_usize(&mut r, "manifest.bias_len")?,
        });
    }
    r.finish("manifest")?;
    Ok(layers)
}

/// The manifest a network of `config` produces under `spec` — derived once
/// here so the encoder writes it and the decoder cross-checks it. Ordinals:
/// the transposed input layer (one row per feature, bias per hidden
/// column), then the output layer — whole, or one entry per shard.
pub fn expected_manifest(config: &NetworkConfig, spec: &SnapshotSpec) -> Vec<LayerDims> {
    let hidden = config.hidden;
    let mut layers = vec![LayerDims {
        rows: config.input_dim,
        cols: hidden,
        bias_len: hidden,
    }];
    match spec.shard_plan {
        None => layers.push(LayerDims {
            rows: config.output_dim,
            cols: hidden,
            bias_len: config.output_dim,
        }),
        Some(plan) => {
            for s in 0..plan.shards() {
                let rows = plan.shard_rows(s).len();
                layers.push(LayerDims {
                    rows,
                    cols: hidden,
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

/// The global frozen tables' three CSR sections and their payload bytes.
fn table_sections(tables: &LshTables) -> [(SectionKind, &[u8]); 3] {
    [
        (SectionKind::TableOffsets, pod_bytes(tables.offsets())),
        (SectionKind::TableItems, pod_bytes(tables.items())),
        (SectionKind::TableArrivals, pod_bytes(tables.arrivals())),
    ]
}

/// The global tables over an image's CSR sections, validated under
/// `retrieval` — which re-derives the tables' shape from the stored config
/// exactly as the original build did — and never copied: loaded tables are
/// the saved bytes, so they retrieve bit-identically. An id outside the
/// output layer is refused here, before any query can probe it.
pub(crate) fn decode_tables(
    image: &SnapshotImage,
    retrieval: &Retrieval,
) -> Result<LshTables, SnapshotError> {
    retrieval
        .tables_from_csr(
            image.view(SectionKind::TableOffsets, 0)?,
            image.view(SectionKind::TableItems, 0)?,
            image.view(SectionKind::TableArrivals, 0)?,
        )
        .map_err(corrupt)
}

// ---------------------------------------------------------------------------
// The one codec
// ---------------------------------------------------------------------------

/// The quantization report's name for the output layer, the one lossy layer.
const OUTPUT_LAYER: &str = "output";

/// Resolve an optional shard plan against `config`: `None` is the one-shard
/// plan over every output row.
///
/// # Errors
///
/// [`ServeBuildError::PlanRowsMismatch`] if the plan does not cover the
/// network's output rows.
pub(crate) fn serving_plan(
    config: &NetworkConfig,
    plan: Option<ShardPlan>,
) -> Result<ShardPlan, ServeBuildError> {
    let plan = plan.map_or_else(|| ShardPlan::contiguous(1, config.output_dim), Ok)?;
    if plan.rows() != config.output_dim {
        return Err(ServeBuildError::PlanRowsMismatch {
            plan_rows: plan.rows(),
            output_dim: config.output_dim,
        });
    }
    Ok(plan)
}

/// Whether an image of layout `L` under `spec` carries the quantization
/// report: `.slsnap` v1 keeps it in unsharded lossy images only.
pub(crate) fn carries_report<L: RowLayout>(spec: &SnapshotSpec) -> bool {
    L::PRECISION == SnapshotPrecision::I8 && spec.shard_plan.is_none()
}

/// Encode `net` as `spec` describes, straight into the image. The tables
/// are built first; every section's length then follows from the config,
/// the manifest, the tables and the report's fixed-size encoding, so the
/// image is allocated once and each layer's rows — the input layer, then
/// one row range per shard — are written where they lie. An unsharded image
/// is the one-shard case: shard count 1, output layer at ordinal 1.
///
/// # Errors
///
/// [`SnapshotError::Build`] if the spec is unservable for this network
/// (plan row mismatch).
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
    // Tables first: their transient key buffer is freed before the image
    // is allocated.
    let tables = Retrieval::serving(config).tables_from_rows(net.output().params());
    let tables = table_sections(&tables);
    let manifest = expected_manifest(config, spec);
    let (config_bytes, manifest_bytes) = (encode_config(config), encode_manifest(&manifest));
    let head = [
        (SectionKind::Config, &config_bytes[..]),
        (SectionKind::Manifest, &manifest_bytes[..]),
    ];

    let mut layout: Vec<_> = head.map(|(kind, bytes)| (kind, 0, bytes.len())).into();
    for (ordinal, &dims) in manifest.iter().enumerate() {
        let sections = match ordinal {
            0 => FrozenLayer::sections(dims),
            _ => L::sections(dims),
        };
        layout.extend(
            sections
                .into_iter()
                .map(|(kind, len)| (kind, ordinal as u32, len)),
        );
    }
    layout.extend(tables.map(|(kind, bytes)| (kind, 0, bytes.len())));
    if carries_report::<L>(spec) {
        let len = QuantReport::encoded_len(&[OUTPUT_LAYER]);
        layout.push((SectionKind::QuantReport, 0, len));
    }

    let mut w = SnapshotWriter::new(spec, &layout)?;
    for (kind, bytes) in head.into_iter().chain(tables) {
        w.payload(kind, 0).copy_from_slice(bytes);
    }
    let input = net.input().params();
    FrozenLayer::write_rows(
        &mut w,
        0,
        "input",
        input,
        0..input.rows(),
        input.bias_slice(),
    );
    let output = net.output().params();
    let mut report = QuantReport::default();
    for s in 0..plan.shards() {
        let rows = plan.shard_rows(s);
        let rows = rows.start as usize..rows.end as usize;
        let bias = &output.bias_slice()[rows.clone()];
        let ordinal = 1 + s as u32;
        report.layers.extend(L::write_rows(
            &mut w,
            ordinal,
            OUTPUT_LAYER,
            output,
            rows,
            bias,
        ));
    }
    if carries_report::<L>(spec) {
        w.payload(SectionKind::QuantReport, 0)
            .copy_from_slice(&report.encode());
    }
    Ok(w.finish())
}

/// Decode the config + manifest preamble every load path shares, rebuild
/// the [`SnapshotSpec`] the image was cut under, and cross-check the
/// manifest against what that config and spec must produce — after this,
/// every layer shape (widths chain, shard row counts) is trusted.
pub(crate) fn decode_preamble(
    image: &SnapshotImage,
) -> Result<(NetworkConfig, SnapshotSpec, Vec<LayerDims>), SnapshotError> {
    let config = decode_config(image.bytes(SectionKind::Config, 0)?)?;
    let shard_plan = image
        .plan()
        .map(|shards| ShardPlan::contiguous(shards, config.output_dim))
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
    /// [`SnapshotError::Build`] if the spec's shard plan disagrees with the
    /// network's output rows; verification errors cannot occur on a freshly
    /// encoded image short of a bug.
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
    use proptest::prelude::*;
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
        let mut cfg = NetworkConfig::standard(512, 32, 1000);
        cfg.seed = 0xDEAD_BEEF;
        cfg.precision = Precision::Bf16Both;
        cfg.lsh.max_active = Some(77);
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

    /// An image holding `sections`, in order, through the writer.
    fn written(
        spec: &SnapshotSpec,
        sections: &[(SectionKind, u32, &[u8])],
    ) -> Result<AlignedVec<u8>, SnapshotError> {
        let layout: Vec<_> = sections.iter().map(|&(k, i, b)| (k, i, b.len())).collect();
        let mut w = SnapshotWriter::new(spec, &layout)?;
        for &(kind, index, bytes) in sections {
            w.payload(kind, index).copy_from_slice(bytes);
        }
        Ok(w.finish())
    }

    #[test]
    fn writer_layout_aligns_and_verifies() {
        let sections = [
            (SectionKind::Config, 0, &[1u8, 2, 3][..]),
            (SectionKind::Bias, 7, pod_bytes(&[1.0f32, -2.0, 3.5])),
        ];
        let bytes = written(&SnapshotSpec::f32(), &sections).unwrap();
        let image = SnapshotImage::from_arena(SharedArena::from_bytes(bytes)).unwrap();
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
        let scales = [(SectionKind::QuantScales, 0, pod_bytes(&[0.5f32; 40]))];
        let image = written(&SnapshotSpec::i8(), &scales).unwrap();
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
        let weights = [(SectionKind::WeightsF32, 0, pod_bytes(&[1.0f32; 64]))];
        let image = written(&SnapshotSpec::f32(), &weights).unwrap();
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Any section list: every payload lands 64-byte aligned, in order,
        // packed (each starts at the first aligned byte past the one
        // before) and reads back exactly; the image ends at the last
        // payload; and a repeated (kind, index) is refused up front.
        #[test]
        fn written_sections_align_pack_and_read_back(
            raw in prop::collection::vec(
                (1u32..11, 0u32..4, prop::collection::vec(any::<u8>(), 0..200)),
                0..12,
            )
        ) {
            let sections: Vec<(SectionKind, u32, &[u8])> = raw
                .iter()
                .map(|(k, i, b)| (SectionKind::from_u32(*k).unwrap(), *i, b.as_slice()))
                .collect();
            let mut keys = std::collections::HashSet::new();
            let unique = sections.iter().all(|&(k, i, _)| keys.insert((k as u32, i)));
            match written(&SnapshotSpec::i8(), &sections) {
                Err(e) => prop_assert!(!unique && matches!(e, SnapshotError::Corrupt(_)), "{e}"),
                Ok(bytes) => {
                    prop_assert!(unique, "a duplicate section was laid out");
                    let image = SnapshotImage::from_arena(SharedArena::from_bytes(bytes)).unwrap();
                    let base = image.arena().as_slice().as_ptr() as usize;
                    let mut end = HEADER_LEN + sections.len() * SECTION_ENTRY_LEN;
                    for &(kind, index, payload) in &sections {
                        let got = image.bytes(kind, index).unwrap();
                        prop_assert_eq!(got, payload);
                        let at = got.as_ptr() as usize;
                        prop_assert_eq!(at % SECTION_ALIGN, 0);
                        prop_assert_eq!(at - base, align_up(end));
                        end = at - base + payload.len();
                    }
                    prop_assert_eq!(image.arena().len(), end);
                }
            }
        }
    }

    fn image_of(net: &Network, spec: &SnapshotSpec) -> SnapshotImage {
        Snapshot::build(net, spec).unwrap().image
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

    /// The engine of layout `L` built from `net` equals the one mmapped back
    /// from its saved file.
    fn assert_save_load_bit_identical<L: RowLayout>(net: &Network, plan: Option<ShardPlan>) {
        let spec = SnapshotSpec {
            precision: L::PRECISION,
            shard_plan: plan,
        };
        let snapshot = Snapshot::build(net, &spec).unwrap();
        let original = Engine::<L>::from_image(snapshot.image()).unwrap();
        let path = std::env::temp_dir().join(format!(
            "slide_serve_save_load_{}x{}_{}.slsnap",
            L::PRECISION.label(),
            spec.shards(),
            std::process::id()
        ));
        snapshot.save(&path).unwrap();
        let image = SnapshotImage::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(image.precision(), L::PRECISION);
        assert_eq!(image.plan(), plan.map(|p| p.shards()));
        assert_eq!(image.arena().as_slice(), snapshot.bytes());
        let loaded = Engine::<L>::from_image(&image).unwrap();
        assert_eq!(loaded.config(), original.config());
        assert_eq!(loaded.report(), original.report());
        let lossy_unsharded = L::PRECISION == SnapshotPrecision::I8 && plan.is_none();
        assert_eq!(original.report().layers.len(), usize::from(lossy_unsharded));
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

    fn sharded_plans() -> [Option<ShardPlan>; 1] {
        [Some(ShardPlan::contiguous(3, 64).unwrap())]
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

    #[test]
    fn report_round_trips_bit_exactly() {
        let report = Engine::<QuantizedLayer>::freeze(&tiny_net(3))
            .report()
            .clone();
        assert_eq!(report.layers.len(), 1);
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
                    // bit-equal to the frozen unsharded engine.
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

    #[test]
    fn loaded_sharded_tables_view_the_image_not_copies() {
        let net = tiny_net(5);
        let plan = ShardPlan::contiguous(3, 64).unwrap();
        let image = image_of(&net, &SnapshotSpec::i8().sharded(plan));
        let lo = image.arena().as_slice().as_ptr() as usize;
        let hi = lo + image.arena().len();
        let loaded = Engine::<QuantizedLayer>::from_image(&image).unwrap();
        let tables = &loaded.tables;
        for (name, at) in [
            ("offsets", tables.offsets().as_ptr() as usize),
            ("items", tables.items().as_ptr() as usize),
            ("arrivals", tables.arrivals().as_ptr() as usize),
        ] {
            assert!(
                (lo..hi).contains(&at),
                "table {name} {at:#x} escaped image [{lo:#x}, {hi:#x})"
            );
        }
        assert_eq!(*tables, Engine::<QuantizedLayer>::freeze(&net).tables);
    }

    #[test]
    fn precision_flag_parses() {
        assert_eq!(SnapshotPrecision::parse("f32"), Ok(SnapshotPrecision::F32));
        assert_eq!(SnapshotPrecision::parse("i8"), Ok(SnapshotPrecision::I8));
        assert!(SnapshotPrecision::parse("fp16").is_err());
    }
}
