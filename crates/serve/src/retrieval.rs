//! LSH active-set retrieval, shared by every layout and every shard count.
//!
//! Retrieval is precision-independent (SLIDE's argument, arXiv 1903.03129):
//! the tables are built from the *original f32 output rows*, the query key
//! is the f32 last hidden activation, and so an i8 engine retrieves exactly
//! what the f32 engine of the same network retrieves — any P@1 difference
//! between the two is scoring precision alone.
//!
//! [`Retrieval`] owns the policy around the tables: hash the activation
//! **once**, probe each shard's table partition with the shared keys in
//! shard order, dedup into one list, stop at `max_active`, then pad
//! deterministically up to `min_active` — what training-time retrieval does
//! minus label forcing. With one shard that is table-encounter order, dedup,
//! cap, pad: the unsharded selection, ties and cap included.

use slide_core::{HashFamilyKind, LshConfig, Network, NetworkConfig, StampSet};
use slide_hash::{mix::mix3, DwtaConfig, LshFamily, LshScratch, LshTables, SimHashConfig};

/// Serving-table seed salt: the tables built (or loaded) for network seed
/// `s` are salted `s ^ TABLE_SEED_SALT`, distinct from the training-side
/// tables. The snapshot loader re-derives it when reconstructing tables from
/// CSR sections.
pub(crate) const TABLE_SEED_SALT: u64 = 0xF0_7AB1;

/// The LSH family plus the pad/cap policy of one engine. Built once;
/// `&self` thereafter.
#[derive(Debug)]
pub(crate) struct Retrieval {
    family: LshFamily,
    min_active: usize,
    max_active: Option<usize>,
    probes: usize,
    pad_seed: u64,
    rows: usize,
}

/// Per-caller mutable state for [`Retrieval::select`]. One lives inside
/// each [`crate::ServeScratch`].
#[derive(Debug)]
pub(crate) struct RetrievalScratch {
    lsh: LshScratch,
    keys: Vec<u32>,
    raw: Vec<u32>,
    dedup: StampSet,
    /// `bounds[s]` is where shard `s`'s retrieved rows end in the active
    /// list of the last [`Retrieval::select`]; padding follows the last one.
    pub(crate) bounds: Vec<usize>,
}

impl Retrieval {
    /// The policy a network of `config` retrieves under. The family, the
    /// pad stream and the `min_active` clamp derive from the config exactly
    /// as every earlier snapshot derived them, so retrieval stays
    /// bit-compatible.
    pub(crate) fn new(config: &NetworkConfig) -> Self {
        let LshConfig {
            min_active,
            max_active,
            probes,
            ..
        } = config.lsh;
        Retrieval {
            family: family_for(config),
            min_active: min_active.min(config.output_dim),
            max_active,
            probes: probes.max(1),
            pad_seed: config.seed ^ 0x9AD5,
            rows: config.output_dim,
        }
    }

    pub(crate) fn make_scratch(&self) -> RetrievalScratch {
        RetrievalScratch {
            lsh: self.family.make_scratch(),
            keys: vec![0; self.family.tables()],
            raw: Vec::with_capacity(1024),
            dedup: StampSet::new(self.rows),
            bounds: Vec::new(),
        }
    }

    /// Build the active set for hidden activation `h` into `active` from
    /// the shards' table partitions, recording the per-shard segment ends
    /// in `scratch.bounds`. `salt` decorrelates the cold-table padding
    /// across queries.
    ///
    /// Out of line on purpose: inlined into the engine's predict path this
    /// loop measured ~10 % slower (14.1 → 15.5 µs per call on the 106 496-row
    /// benchmark fixture, old and new engine alternating in one process).
    #[inline(never)]
    pub(crate) fn select<'a>(
        &self,
        shard_tables: impl Iterator<Item = &'a LshTables>,
        h: &[f32],
        scratch: &mut RetrievalScratch,
        active: &mut Vec<u32>,
        salt: u64,
    ) {
        self.family
            .keys_dense(h, &mut scratch.lsh, &mut scratch.keys);
        scratch.dedup.begin();
        scratch.bounds.clear();
        active.clear();
        let cap = self.max_active.unwrap_or(usize::MAX);
        for tables in shard_tables {
            scratch.raw.clear();
            if self.probes > 1 {
                tables.query_multiprobe_into(&scratch.keys, self.probes, &mut scratch.raw);
            } else {
                tables.query_into(&scratch.keys, &mut scratch.raw);
            }
            for &c in &scratch.raw {
                if active.len() >= cap {
                    break;
                }
                if scratch.dedup.insert(c) {
                    active.push(c);
                }
            }
            scratch.bounds.push(active.len());
        }
        let n = self.rows as u64;
        let want = self.min_active.min(cap);
        let mut attempt = 0u64;
        while active.len() < want {
            let r = (mix3(self.pad_seed, salt, attempt) % n) as u32;
            attempt += 1;
            if scratch.dedup.insert(r) {
                active.push(r);
            }
        }
    }
}

/// Reconstruct the LSH family a network of `config` hashes its output rows
/// with — the same construction and seed chain as the training side, where
/// `Network::new` hands the output layer `config.seed ^ 0x0707` and the
/// layer salts its family from that. Stored table contents are only
/// meaningful under this exact family: rows were inserted under its hash
/// functions, and queries must hash with the same ones.
fn family_for(config: &NetworkConfig) -> LshFamily {
    let hidden = *config.hidden_dims.last().expect("validated non-empty");
    let layer_seed = config.seed ^ 0x0707;
    match config.lsh.family {
        HashFamilyKind::Dwta { bin_size } => LshFamily::dwta(DwtaConfig {
            dim: hidden,
            key_bits: config.lsh.key_bits,
            tables: config.lsh.tables,
            bin_size,
            seed: layer_seed ^ 0xD1A7,
        }),
        HashFamilyKind::SimHash => LshFamily::simhash(SimHashConfig {
            dim: hidden,
            key_bits: config.lsh.key_bits,
            tables: config.lsh.tables,
            seed: layer_seed ^ 0x51A7,
        }),
    }
}

/// Build the global serving tables of `net`: every output row (widened to
/// f32) hashed under the network's own family, in row order — so retrieval
/// quality matches what the trainer's last rebuild would produce, and
/// bucket-cap eviction happens once, globally, before any partitioning.
pub(crate) fn build_tables(net: &Network) -> LshTables {
    let config = net.config();
    let family = net.output().family();
    let mut tables = LshTables::new(
        config.lsh.tables,
        config.lsh.key_bits,
        config.lsh.bucket_cap,
        config.lsh.policy,
        config.seed ^ TABLE_SEED_SALT,
    );
    let out = net.output().params();
    let mut lsh = family.make_scratch();
    let mut keys = vec![0; family.tables()];
    let mut row = vec![0.0f32; out.cols()];
    for r in 0..out.rows() {
        out.widen_row_into(r, &mut row);
        family.keys_dense(&row, &mut lsh, &mut keys);
        tables.insert(&keys, r as u32);
    }
    tables
}
