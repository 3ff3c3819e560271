//! LSH active-set retrieval for the output layer — the one implementation
//! the trainer's [`crate::SampledOutputLayer`] and the frozen serving engine
//! (`slide-serve`) both call.
//!
//! A [`Retrieval`] is the output layer's hash family plus the policy around
//! its tables: hash the activation **once**, probe the one table set with
//! those keys, dedup into one list behind the forced ids (the labels, in
//! training), stop at `max_active`, then pad deterministically up to
//! `min_active`. It is also the one place that builds tables from rows and
//! that knows the output layer's seed chain, from the network seed `s`:
//!
//! | derived from | seed |
//! |---|---|
//! | output layer (weights, family) | `l = s ^ 0x0707` |
//! | DWTA / SimHash family | `l ^ 0xD1A7` / `l ^ 0x51A7` |
//! | training tables / pad stream | `l ^ 0x7AB1` / `l ^ 0x9AD5` |
//! | serving tables / pad stream | `s ^ 0xF0_7AB1` / `s ^ 0x9AD5` |
//!
//! so a snapshot's tables are hashed, stored and reloaded under exactly the
//! family the trainer's rows were inserted with.
//!
//! Retrieval is precision-independent (SLIDE, arXiv 1903.03129): serving
//! tables are built from the f32 (or bf16-widened) output rows and queried
//! with the f32 hidden activation, so an i8 engine retrieves exactly what
//! the f32 engine of the same network retrieves.

use crate::config::{HashFamilyKind, LshConfig, NetworkConfig};
use crate::params::LayerParams;
use crate::scratch::StampSet;
use slide_hash::mix::mix3;
use slide_hash::{DwtaConfig, LshFamily, LshScratch, LshTables, SimHashConfig};
use slide_mem::{AlignedVec, ArenaView};

/// The output layer's seed in a network seeded `seed`.
pub(crate) fn output_layer_seed(seed: u64) -> u64 {
    seed ^ 0x0707
}

/// The output layer's LSH family, the shape and seed of the tables it
/// builds, and the pad/cap policy its active sets are picked under. Built
/// once; `&self` thereafter.
#[derive(Debug)]
pub struct Retrieval {
    family: LshFamily,
    min_active: usize,
    max_active: Option<usize>,
    probes: usize,
    pad_seed: u64,
    rows: usize,
    bucket_cap: usize,
    table_seed: u64,
}

/// The caller-owned buffers one [`Retrieval::select`] works in, lent by a
/// [`crate::WorkerScratch`] in training and by a serving scratch.
#[derive(Debug)]
pub struct SelectBuffers<'s> {
    /// Hashing scratch of the retrieval's family.
    pub lsh: &'s mut LshScratch,
    /// The query's `L` table keys.
    pub keys: &'s mut [u32],
    /// Raw candidates of the table probe, duplicates included.
    pub candidates: &'s mut Vec<u32>,
    /// Dedup filter over the output rows.
    pub dedup: &'s mut StampSet,
    /// The active set: forced ids, retrieved rows, padding.
    pub active: &'s mut Vec<u32>,
}

impl Retrieval {
    /// The policy of a training output layer of `rows` units over a
    /// `hidden`-wide activation, seeded `seed` (the layer's own seed).
    pub(crate) fn training(hidden: usize, rows: usize, lsh: &LshConfig, seed: u64) -> Self {
        Self::new(hidden, rows, lsh, seed, seed ^ 0x9AD5, seed ^ 0x7AB1)
    }

    /// The policy a frozen engine of a network of `config` retrieves under:
    /// the trainer's family, with tables and a pad stream of its own.
    pub fn serving(config: &NetworkConfig) -> Self {
        Self::new(
            config.hidden,
            config.output_dim,
            &config.lsh,
            output_layer_seed(config.seed),
            config.seed ^ 0x9AD5,
            config.seed ^ 0xF0_7AB1,
        )
    }

    fn new(
        hidden: usize,
        rows: usize,
        lsh: &LshConfig,
        layer_seed: u64,
        pad_seed: u64,
        table_seed: u64,
    ) -> Self {
        let family = match lsh.family {
            HashFamilyKind::Dwta { bin_size } => LshFamily::dwta(DwtaConfig {
                dim: hidden,
                key_bits: lsh.key_bits,
                tables: lsh.tables,
                bin_size,
                seed: layer_seed ^ 0xD1A7,
            }),
            HashFamilyKind::SimHash => LshFamily::simhash(SimHashConfig {
                dim: hidden,
                key_bits: lsh.key_bits,
                tables: lsh.tables,
                seed: layer_seed ^ 0x51A7,
            }),
        };
        Retrieval {
            family,
            min_active: lsh.min_active.min(rows),
            max_active: lsh.max_active,
            probes: lsh.probes.max(1),
            pad_seed,
            rows,
            bucket_cap: lsh.bucket_cap,
            table_seed,
        }
    }

    /// The LSH family hashing the output rows and the queries.
    pub fn family(&self) -> &LshFamily {
        &self.family
    }

    /// Tables holding every row of `params`, widened to f32 and hashed in
    /// row order — bucket-cap eviction included, so a serving build matches
    /// what the trainer's last full rebuild would hold.
    ///
    /// The `rows × L` key buffer is an [`AlignedVec`], so a large one is its
    /// own mapping and its pages go back to the kernel when the build ends;
    /// a heap block of that size stays resident after the free and lifts
    /// the peak of whatever is allocated next.
    pub fn tables_from_rows(&self, params: &LayerParams) -> LshTables {
        let l = self.family.tables();
        let mut keys = AlignedVec::zeroed(self.rows * l);
        let mut lsh = self.family.make_scratch();
        let mut widen = vec![0.0; params.cols()];
        for (r, row_keys) in keys.chunks_exact_mut(l).enumerate() {
            params.widen_row_into(r, &mut widen);
            self.family.keys_dense(&widen, &mut lsh, row_keys);
        }
        self.tables_from_keys(&keys)
    }

    /// Tables holding row `r` under the keys `keys[r * L..][..L]`, under
    /// this policy's shape and seed.
    pub(crate) fn tables_from_keys(&self, keys: &[u32]) -> LshTables {
        LshTables::from_keys(
            self.family.tables(),
            self.family.key_bits(),
            self.bucket_cap,
            self.table_seed,
            keys,
        )
    }

    /// Tables over a snapshot's CSR sections, under this policy's shape:
    /// validated, not copied.
    ///
    /// # Errors
    ///
    /// Returns a message when an id names no output row or the arrays
    /// disagree with the tables' shape (see [`LshTables::from_views`]).
    pub fn tables_from_csr(
        &self,
        offsets: ArenaView<u32>,
        items: ArenaView<u32>,
        arrivals: ArenaView<u64>,
    ) -> Result<LshTables, String> {
        if let Some(&id) = items.iter().find(|&&id| id as usize >= self.rows) {
            return Err(format!(
                "LshTables csr: id {id} outside the {} output rows",
                self.rows
            ));
        }
        LshTables::from_views(
            self.family.tables(),
            self.family.key_bits(),
            self.bucket_cap,
            offsets,
            items,
            arrivals,
        )
    }

    /// Build the active set for activation `h` into `buf.active`: the
    /// `forced` ids first, then the rows `tables` retrieves, in table
    /// order, deduplicated and capped at `max(max_active, forced.len())`;
    /// then padding replayed from `mix3(pad_seed, salt,
    /// attempt) % rows` up to `min_active` (within the cap). `salt`
    /// decorrelates the padding across queries.
    ///
    /// Out of line on purpose: inlined into the engine's predict path this
    /// loop measured ~10 % slower (14.1 → 15.5 µs per call on the 106 496-row
    /// benchmark fixture, old and new engine alternating in one process).
    ///
    /// # Panics
    ///
    /// Panics if a forced id is not an output row.
    #[inline(never)]
    pub fn select(
        &self,
        tables: &LshTables,
        h: &[f32],
        forced: &[u32],
        buf: SelectBuffers<'_>,
        salt: u64,
    ) {
        let SelectBuffers {
            lsh,
            keys,
            candidates,
            dedup,
            active,
        } = buf;
        self.family.keys_dense(h, lsh, keys);
        dedup.begin();
        active.clear();
        let cap = self.max_active.unwrap_or(usize::MAX).max(forced.len());
        admit(forced, cap, dedup, active);
        candidates.clear();
        if self.probes > 1 {
            tables.query_multiprobe_into(keys, self.probes, candidates);
        } else {
            tables.query_into(keys, candidates);
        }
        admit(candidates, cap, dedup, active);
        // Pseudo-random padding keeps gradients flowing while the tables
        // are still cold.
        self.pad(salt, self.min_active.min(cap), dedup, active);
    }

    /// Full softmax's active set into `active`: the `forced` ids, then
    /// every other row in ascending order. No table is read.
    pub(crate) fn select_all(&self, forced: &[u32], dedup: &mut StampSet, active: &mut Vec<u32>) {
        dedup.begin();
        active.clear();
        admit(forced, usize::MAX, dedup, active);
        active.extend((0..self.rows as u32).filter(|&r| !dedup.contains(r)));
    }

    /// Sampled softmax's active set into `active`: the `forced` ids, then
    /// `negatives` distinct rows of the pad stream [`Retrieval::select`]
    /// pads from (every remaining row, if fewer remain). No table is read.
    pub(crate) fn select_uniform(
        &self,
        forced: &[u32],
        negatives: usize,
        dedup: &mut StampSet,
        active: &mut Vec<u32>,
        salt: u64,
    ) {
        dedup.begin();
        active.clear();
        admit(forced, usize::MAX, dedup, active);
        let want = active.len().saturating_add(negatives).min(self.rows);
        self.pad(salt, want, dedup, active);
    }

    /// Append rows replayed from `mix3(pad_seed, salt, attempt) % rows`,
    /// skipping those already in `dedup`, until `active` holds `want`
    /// (at most `rows`): the one uniform sampler.
    fn pad(&self, salt: u64, want: usize, dedup: &mut StampSet, active: &mut Vec<u32>) {
        let n = self.rows as u64;
        let mut attempt = 0u64;
        while active.len() < want {
            let r = (mix3(self.pad_seed, salt, attempt) % n) as u32;
            attempt += 1;
            if dedup.insert(r) {
                active.push(r);
            }
        }
    }
}

/// Append each of `ids` not yet in `dedup` to `active`, stopping once
/// `active` holds `cap`.
///
/// `dedup` and `active` are `&mut` arguments of their own, which the
/// compiler may assume nothing else writes; read through
/// [`SelectBuffers`]' fields inside [`Retrieval::select`], the same loop
/// measured ~15 % slower per select on the 106 496-row benchmark fixture.
fn admit(ids: &[u32], cap: usize, dedup: &mut StampSet, active: &mut Vec<u32>) {
    for &id in ids {
        if active.len() >= cap {
            break;
        }
        if dedup.insert(id) {
            active.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Precision;
    use crate::scratch::WorkerScratch;
    use crate::SampledOutputLayer;
    use slide_mem::ParamLayout;

    /// A training retrieval for a `hidden` → `rows` output layer seeded
    /// `seed`, its freshly initialised weights, and a scratch to select in.
    fn layer(
        hidden: usize,
        rows: usize,
        lsh: &LshConfig,
        seed: u64,
    ) -> (Retrieval, LayerParams, WorkerScratch) {
        let params = LayerParams::new(
            rows,
            hidden,
            rows,
            ParamLayout::Coalesced,
            Precision::Fp32,
            seed,
        );
        let retrieval = Retrieval::training(hidden, rows, lsh, seed);
        let scratch = WorkerScratch::new(hidden, rows, retrieval.family());
        (retrieval, params, scratch)
    }

    #[test]
    fn output_layer_retrieves_itself() {
        // A neuron queried with its own weight vector must appear in its
        // active set (same hash keys ⇒ same buckets).
        let lsh = LshConfig {
            tables: 8,
            key_bits: 5,
            min_active: 0,
            ..Default::default()
        };
        let (r, params, mut s) = layer(16, 100, &lsh, 3);
        let tables = r.tables_from_rows(&params);
        for row in [0usize, 17, 99] {
            let w = params.row_f32(row);
            r.select(&tables, &w, &[], s.select_buffers(), 0);
            assert!(
                s.active.contains(&(row as u32)),
                "neuron {row} missing from its own active set"
            );
        }
    }

    #[test]
    fn labels_always_forced_into_active_set() {
        let lsh = LshConfig {
            min_active: 4,
            ..Default::default()
        };
        let (r, params, mut s) = layer(8, 50, &lsh, 4);
        let tables = r.tables_from_rows(&params);
        r.select(&tables, &[0.1; 8], &[42, 7], s.select_buffers(), 1);
        assert_eq!(&s.active[..2], &[42, 7]);
        assert!(s.active.len() >= 4);
        let mut seen = std::collections::HashSet::new();
        assert!(s.active.iter().all(|&a| seen.insert(a)), "duplicates");
    }

    #[test]
    fn min_active_pads_cold_tables() {
        let lsh = LshConfig {
            min_active: 16,
            max_active: Some(20),
            ..Default::default()
        };
        let (r, params, mut s) = layer(8, 64, &lsh, 5);
        let tables = r.tables_from_rows(&params);
        // Zero vector hashes somewhere; padding must still reach min_active.
        r.select(&tables, &[0.0; 8], &[], s.select_buffers(), 9);
        assert!((16..=20).contains(&s.active.len()), "{}", s.active.len());
    }

    #[test]
    fn select_all_lists_the_labels_then_every_other_row_once() {
        let (r, _, mut s) = layer(8, 40, &LshConfig::default(), 12);
        for labels in [&[][..], &[7], &[39, 2, 7, 2]] {
            r.select_all(labels, &mut s.dedup, &mut s.active);
            let distinct: Vec<u32> = labels.iter().fold(Vec::new(), |mut v, &l| {
                if !v.contains(&l) {
                    v.push(l);
                }
                v
            });
            assert_eq!(&s.active[..distinct.len()], &distinct[..], "labels first");
            let rest = &s.active[distinct.len()..];
            assert!(rest.windows(2).all(|w| w[0] < w[1]), "the rest ascending");
            let mut all = s.active.clone();
            all.sort_unstable();
            assert_eq!(all, (0..40).collect::<Vec<u32>>(), "every row once");
        }
    }

    #[test]
    fn select_uniform_draws_distinct_rows_deterministically_in_the_salt() {
        let (r, _, mut s) = layer(8, 64, &LshConfig::default(), 13);
        let draw = |s: &mut WorkerScratch, negatives, salt| {
            r.select_uniform(&[5, 60], negatives, &mut s.dedup, &mut s.active, salt);
            s.active.clone()
        };
        for negatives in [0, 1, 9, 62] {
            let a = draw(&mut s, negatives, 3);
            assert_eq!(a.len(), 2 + negatives, "labels plus {negatives}");
            assert_eq!(&a[..2], &[5, 60]);
            let mut sorted = a.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), a.len(), "distinct rows");
            assert_eq!(draw(&mut s, negatives, 3), a, "same salt, same rows");
        }
        assert_ne!(draw(&mut s, 9, 3), draw(&mut s, 9, 4), "the salt matters");
        // More negatives than rows left: every row, once.
        assert_eq!(draw(&mut s, 500, 3).len(), 64);
        // The draw is the pad stream `select` pads from.
        let pad: Vec<u32> = draw(&mut s, 4, 8)[2..].to_vec();
        let lsh = LshConfig {
            min_active: 6,
            max_active: Some(6),
            ..Default::default()
        };
        let padded = Retrieval::training(8, 64, &lsh, 13);
        let empty = padded.tables_from_keys(&[]);
        padded.select(&empty, &[0.0; 8], &[5, 60], s.select_buffers(), 8);
        assert_eq!(&s.active[2..], &pad[..]);
    }

    #[test]
    fn rebuild_from_keys_matches_serial() {
        // The trainer's rebuild (every row's keys from `compute_row_keys`,
        // then one build) must leave exactly the tables a serial build
        // does, bucket order and reservoir history included.
        let lsh = LshConfig {
            tables: 6,
            key_bits: 5,
            bucket_cap: 4,
            ..Default::default()
        };
        let out = SampledOutputLayer::new(8, 30, &lsh, ParamLayout::Coalesced, Precision::Fp32, 9);
        let r = Retrieval::training(8, 30, &lsh, 9);
        let mut s = WorkerScratch::new(8, 30, r.family());
        let l = r.family().tables();
        let mut all_keys = vec![0u32; 30 * l];
        for (row, keys) in all_keys.chunks_exact_mut(l).enumerate() {
            out.compute_row_keys(row, &mut s, keys);
        }
        assert_eq!(
            r.tables_from_keys(&all_keys),
            r.tables_from_rows(out.params())
        );
    }

    #[test]
    fn select_forces_dedups_caps_and_pads() {
        let lsh = LshConfig {
            tables: 4,
            key_bits: 4,
            min_active: 8,
            max_active: Some(8),
            ..Default::default()
        };
        let (r, _, mut s) = layer(8, 64, &lsh, 11);
        let h: Vec<f32> = (0..8).map(|i| i as f32 * 0.3 - 1.0).collect();
        // Rows 1..=6 sit under the query's own keys, so each comes back once
        // per table; 5 is also forced. Row 0 hashes one bucket over in every
        // table.
        let mut keys = vec![0; 4];
        r.family().keys_dense(&h, &mut s.lsh, &mut keys);
        let all: Vec<u32> = (0..7)
            .flat_map(|row| keys.iter().map(move |&k| k ^ u32::from(row == 0)))
            .collect();
        let tables = r.tables_from_keys(&all);

        // Forced ids first, then the retrieved rows in table order, then one
        // pad row up to the cap of 8, replayed from the pad stream.
        r.select(&tables, &h, &[5, 40], s.select_buffers(), 7);
        assert_eq!(&s.active[..7], &[5, 40, 1, 2, 3, 4, 6]);
        let pad = (0..)
            .map(|attempt| (mix3(r.pad_seed, 7, attempt) % 64) as u32)
            .find(|id| !s.active[..7].contains(id))
            .expect("the pad stream covers every row");
        assert_eq!(&s.active[7..], &[pad]);
        let first = s.active.clone();
        r.select(&tables, &h, &[5, 40], s.select_buffers(), 7);
        assert_eq!(s.active, first, "the pad replay is deterministic");

        // A cap of 4 truncates the retrieved rows and leaves no room to pad.
        let capped = |max_active| {
            let lsh = LshConfig {
                max_active: Some(max_active),
                ..lsh
            };
            Retrieval::training(8, 64, &lsh, 11)
        };
        capped(4).select(&tables, &h, &[5, 40], s.select_buffers(), 7);
        assert_eq!(s.active, [5, 40, 1, 2]);
        // A cap below the forced count keeps every forced id and adds none.
        capped(1).select(&tables, &h, &[5, 40, 9], s.select_buffers(), 7);
        assert_eq!(s.active, [5, 40, 9]);
    }
}
