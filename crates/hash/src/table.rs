//! Multi-table LSH bucket storage — the structure queried on every SLIDE
//! forward pass (§2, Figure 1) and rebuilt in full from every neuron's keys
//! on the trainer's schedule.
//!
//! `L` tables, each with `2^K` buckets of neuron ids ("pointers only" in the
//! paper's figure), held flat in CSR form: one prefix-sum `offsets` array
//! over all `L · 2^K` buckets (table 0's buckets, then table 1's, …) and one
//! `items` array of ids, both [`ArenaView`]s. A bucket keeps at most `cap`
//! ids; one that receives more keeps a uniform reservoir sample of its
//! arrivals. A built table and a snapshot's table sections are the same
//! arrays, so a loaded table is a view over the image, not a copy.

use crate::mix::{mix3, reduce};
use slide_mem::{AlignedVec, ArenaView};

/// `L` LSH tables of `2^K` bounded buckets each, as CSR arrays.
///
/// # Examples
///
/// ```
/// use slide_hash::LshTables;
///
/// // Two rows over four tables: row r's keys are keys[r * 4..][..4].
/// let keys = [1, 2, 3, 4, 1, 0, 3, 5];
/// let tables = LshTables::from_keys(4, 6, 128, 42, &keys);
/// let mut out = Vec::new();
/// tables.query_into(&[1, 2, 3, 4], &mut out);
/// assert_eq!(out, [0, 1, 0, 0, 1, 0]); // both rows share tables 0 and 2
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LshTables {
    /// `offsets[b]..offsets[b + 1]` spans bucket `b`'s ids in `items`.
    offsets: ArenaView<u32>,
    items: ArenaView<u32>,
    /// Rows hashed into each bucket, kept or not.
    arrivals: ArenaView<u64>,
    tables: usize,
    key_bits: u32,
    bucket_cap: usize,
}

/// Occupancy statistics, used by tests and the bench harness to sanity-check
/// hash quality.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TableStats {
    /// Total ids stored across all tables.
    pub stored: usize,
    /// Buckets holding at least one id.
    pub occupied_buckets: usize,
    /// Total buckets across all tables.
    pub total_buckets: usize,
    /// Largest single bucket.
    pub max_bucket: usize,
}

fn check_shape(tables: usize, key_bits: u32, bucket_cap: usize) -> Result<(), String> {
    if tables == 0 || key_bits == 0 || key_bits > 24 || bucket_cap == 0 {
        return Err(format!(
            "LshTables: bad shape (tables={tables}, key_bits={key_bits} of 1..=24, \
             bucket_cap={bucket_cap})"
        ));
    }
    Ok(())
}

impl LshTables {
    /// Build `tables` tables of `2^key_bits` buckets, each bounded to
    /// `bucket_cap` ids, holding every row of `keys` — row-major `rows ×
    /// tables`, so row `r` goes into bucket `keys[r * tables + t]` of each
    /// table `t`.
    ///
    /// One counting sort: count each bucket's arrivals, lay the buckets out
    /// at `min(arrivals, cap)` ids each, then place the rows in ascending
    /// order. A bucket's first `cap` arrivals fill its slots in order; its
    /// `a`-th arrival after that replaces slot `r = reduce(mix3(seed ^ t <<
    /// 32, key, a), a)` when `r < cap`, so each full bucket holds a uniform
    /// reservoir sample, a pure function of the keys and `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `tables == 0`, `key_bits` is outside `1..=24`,
    /// `bucket_cap == 0`, `keys.len()` is not a multiple of `tables` or
    /// exceeds `u32::MAX`, or any key is `>= 2^key_bits`.
    pub fn from_keys(
        tables: usize,
        key_bits: u32,
        bucket_cap: usize,
        seed: u64,
        keys: &[u32],
    ) -> Self {
        check_shape(tables, key_bits, bucket_cap).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            keys.len().is_multiple_of(tables) && u32::try_from(keys.len()).is_ok(),
            "LshTables: {} keys are not rows × {tables} tables",
            keys.len()
        );
        let buckets = tables << key_bits;
        let bucket_of = |t: usize, key: u32| (t << key_bits) | key as usize;

        let mut arrivals = AlignedVec::<u64>::zeroed(buckets);
        for row in keys.chunks_exact(tables) {
            for (t, &key) in row.iter().enumerate() {
                assert!(
                    key >> key_bits == 0,
                    "LshTables: key {key} exceeds {key_bits} bits"
                );
                arrivals[bucket_of(t, key)] += 1;
            }
        }
        let cap = bucket_cap as u64;
        let mut offsets = AlignedVec::<u32>::zeroed(buckets + 1);
        for b in 0..buckets {
            offsets[b + 1] = offsets[b] + arrivals[b].min(cap) as u32;
        }

        let mut items = AlignedVec::<u32>::zeroed(offsets[buckets] as usize);
        let mut seen = vec![0u64; buckets];
        for (id, row) in keys.chunks_exact(tables).enumerate() {
            for (t, &key) in row.iter().enumerate() {
                let b = bucket_of(t, key);
                seen[b] += 1;
                let a = seen[b];
                let slot = if a <= cap {
                    (a - 1) as usize
                } else {
                    reduce(mix3(seed ^ ((t as u64) << 32), key as u64, a), a as usize)
                };
                if slot < bucket_cap {
                    items[offsets[b] as usize + slot] = id as u32;
                }
            }
        }
        LshTables {
            offsets: ArenaView::from_vec(offsets),
            items: ArenaView::from_vec(items),
            arrivals: ArenaView::from_vec(arrivals),
            tables,
            key_bits,
            bucket_cap,
        }
    }

    /// Tables over existing CSR arrays — a snapshot's sections or a shard's
    /// filtered copy — checked against the shape, never copied.
    ///
    /// # Errors
    ///
    /// Returns a message when the shape is invalid (as in
    /// [`LshTables::from_keys`]) or the arrays disagree with it: wrong
    /// lengths, offsets that do not start at 0, decrease or end short of
    /// the item count, or a bucket larger than `bucket_cap`. Snapshot
    /// corruption surfaces as an error, never a panic.
    pub fn from_views(
        tables: usize,
        key_bits: u32,
        bucket_cap: usize,
        offsets: ArenaView<u32>,
        items: ArenaView<u32>,
        arrivals: ArenaView<u64>,
    ) -> Result<Self, String> {
        check_shape(tables, key_bits, bucket_cap)?;
        let buckets = tables << key_bits;
        if offsets.len() != buckets + 1 || arrivals.len() != buckets {
            return Err(format!(
                "LshTables csr: {} offsets / {} arrivals for {buckets} buckets",
                offsets.len(),
                arrivals.len()
            ));
        }
        if offsets[0] != 0 || offsets[buckets] as usize != items.len() {
            return Err(format!(
                "LshTables csr: offsets span [{}, {}] over {} items",
                offsets[0],
                offsets[buckets],
                items.len()
            ));
        }
        for (b, span) in offsets.windows(2).enumerate() {
            let len = span[1]
                .checked_sub(span[0])
                .ok_or_else(|| format!("LshTables csr: offsets decrease at bucket {b}"))?;
            if len as usize > bucket_cap {
                return Err(format!(
                    "LshTables csr: bucket {b} holds {len} ids, cap {bucket_cap}"
                ));
            }
        }
        Ok(LshTables {
            offsets,
            items,
            arrivals,
            tables,
            key_bits,
            bucket_cap,
        })
    }

    /// Number of tables (`L`).
    pub fn tables(&self) -> usize {
        self.tables
    }

    /// Bits per key (`K`); each table has `2^K` buckets.
    pub fn key_bits(&self) -> u32 {
        self.key_bits
    }

    /// Maximum ids per bucket.
    pub fn bucket_cap(&self) -> usize {
        self.bucket_cap
    }

    /// Prefix sums over all `L · 2^K` buckets, table-major.
    pub fn offsets(&self) -> &ArenaView<u32> {
        &self.offsets
    }

    /// Every bucket's ids, concatenated in bucket order.
    pub fn items(&self) -> &ArenaView<u32> {
        &self.items
    }

    /// Rows hashed into each bucket at build time, kept or not.
    pub fn arrivals(&self) -> &ArenaView<u64> {
        &self.arrivals
    }

    /// Append the contents of bucket `keys[t]` of every table to `out`
    /// (duplicates across tables are *not* removed here — the active-set
    /// builder deduplicates with a stamp array).
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != self.tables()` or any key is `>= 2^K`.
    pub fn query_into(&self, keys: &[u32], out: &mut Vec<u32>) {
        self.query_multiprobe_into(keys, 1, out);
    }

    /// Multiprobe query: besides bucket `keys[t]`, also probe the buckets
    /// whose keys differ in one low-order bit, visiting up to `probes`
    /// buckets per table in total. Multiprobe trades extra bucket reads for
    /// fewer tables at equal recall (Lv et al. 2007) — an ablation knob on
    /// top of the paper's plain `L`-table query.
    ///
    /// `probes == 1` is [`LshTables::query_into`].
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != self.tables()`, any key is `>= 2^K`, or
    /// `probes == 0`.
    pub fn query_multiprobe_into(&self, keys: &[u32], probes: usize, out: &mut Vec<u32>) {
        assert_eq!(keys.len(), self.tables, "LshTables: keys per table");
        assert!(probes > 0, "LshTables: probes must be positive");
        let (offsets, items) = (self.offsets.as_slice(), self.items.as_slice());
        let max_extra = (probes - 1).min(self.key_bits as usize);
        for (t, &key) in keys.iter().enumerate() {
            assert!(
                key >> self.key_bits == 0,
                "LshTables: key {key} out of range"
            );
            let table = t << self.key_bits;
            let mut probe = |key: u32| {
                let b = table | key as usize;
                out.extend_from_slice(&items[offsets[b] as usize..offsets[b + 1] as usize]);
            };
            probe(key);
            for bit in 0..max_extra {
                probe(key ^ (1 << bit));
            }
        }
    }

    /// Contents of one bucket (test/inspection hook).
    ///
    /// # Panics
    ///
    /// Panics if `table >= self.tables()` or `key >= 2^K`.
    pub fn bucket(&self, table: usize, key: u32) -> &[u32] {
        assert!(
            table < self.tables && key >> self.key_bits == 0,
            "LshTables: no bucket {key} in table {table}"
        );
        let b = (table << self.key_bits) | key as usize;
        &self.items[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }

    /// Occupancy statistics across all tables.
    pub fn stats(&self) -> TableStats {
        let mut s = TableStats {
            stored: self.items.len(),
            total_buckets: self.offsets.len() - 1,
            ..TableStats::default()
        };
        for span in self.offsets.windows(2) {
            let len = (span[1] - span[0]) as usize;
            s.occupied_buckets += usize::from(len > 0);
            s.max_bucket = s.max_bucket.max(len);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row-major keys for `rows` rows over `tables` tables of `2^key_bits`
    /// buckets, from `key(row, table)`.
    fn keys(rows: u32, tables: u32, key: impl Fn(u32, u32) -> u32) -> Vec<u32> {
        (0..rows)
            .flat_map(|r| (0..tables).map(move |t| (r, t)))
            .map(|(r, t)| key(r, t))
            .collect()
    }

    #[test]
    fn insert_query_roundtrip() {
        let t = LshTables::from_keys(3, 4, 16, 1, &[1, 2, 3, 1, 0, 3]);
        let mut out = Vec::new();
        t.query_into(&[1, 2, 3], &mut out);
        assert!(out.contains(&0));
        assert!(out.contains(&1)); // shares bucket 1 in table 0 and 3 in table 2
        assert_eq!(out.iter().filter(|&&x| x == 0).count(), 3);
    }

    #[test]
    fn bucket_cap_is_respected_under_both_policies() {
        // Reservoir is the only policy left; 100 arrivals into one bucket of
        // cap 4 keep exactly 4 and count all 100.
        let t = LshTables::from_keys(1, 3, 4, 9, &[5; 100]);
        assert_eq!(t.bucket(0, 5).len(), 4);
        assert_eq!(t.arrivals().as_slice()[5], 100);
    }

    #[test]
    fn reservoir_keeps_late_and_early_items() {
        // A uniform reservoir over 0..2000 should retain some items beyond
        // the first `cap` arrivals (FIFO-of-first would not).
        let t = LshTables::from_keys(1, 1, 32, 123, &[0; 2000]);
        let items = t.bucket(0, 0);
        assert_eq!(items.len(), 32);
        assert!(
            items.iter().any(|&id| id >= 1000),
            "reservoir never replaced: {items:?}"
        );
        let mean = items.iter().map(|&x| x as f64).sum::<f64>() / 32.0;
        assert!(
            (300.0..1700.0).contains(&mean),
            "reservoir badly skewed, mean={mean}"
        );
        assert_eq!(t.arrivals().as_slice(), &[2000, 0]);
    }

    #[test]
    fn multiprobe_one_equals_plain_query() {
        let t = LshTables::from_keys(3, 4, 16, 5, &keys(40, 3, |r, t| (r + t) % 16));
        let keys = [3u32, 7, 11];
        let mut plain = Vec::new();
        let mut multi = Vec::new();
        t.query_into(&keys, &mut plain);
        t.query_multiprobe_into(&keys, 1, &mut multi);
        assert_eq!(plain, multi);
    }

    #[test]
    fn multiprobe_returns_superset_from_neighbour_buckets() {
        // Row 0 in the exact bucket, rows 1 and 2 one bit-0 / bit-1 flip
        // away, row 3 one bit-3 flip away (beyond 3 probes).
        let t = LshTables::from_keys(1, 4, 16, 5, &[0b0101, 0b0100, 0b0111, 0b1101]);
        let mut out = Vec::new();
        t.query_multiprobe_into(&[0b0101], 3, &mut out);
        assert_eq!(out, [0, 1, 2]);
        assert!(!out.contains(&3), "bit 3 flip needs probes >= 4");
        // Probes capped by key-bits: huge probe counts are safe.
        let mut all = Vec::new();
        t.query_multiprobe_into(&[0b0101], 100, &mut all);
        assert!(all.contains(&3));
    }

    #[test]
    fn stats_count_correctly() {
        let t = LshTables::from_keys(2, 2, 8, 5, &[0, 1, 0, 2]);
        let s = t.stats();
        assert_eq!(s.stored, 4);
        assert_eq!(s.occupied_buckets, 3); // table0/bucket0 (x2), table1/bucket1, table1/bucket2
        assert_eq!(s.max_bucket, 2);
        assert_eq!(s.total_buckets, 8);
    }

    #[test]
    #[should_panic(expected = "not rows × 2 tables")]
    fn wrong_key_count_panics() {
        LshTables::from_keys(2, 2, 8, 5, &[0, 1, 2]);
    }

    #[test]
    fn csr_round_trip_is_bit_identical() {
        // The three arrays written back to back into one byte image, as a
        // snapshot stores them, and viewed in place: the loaded tables
        // equal the built ones and answer every query identically.
        let t = LshTables::from_keys(
            3,
            4,
            8,
            0xBEEF,
            &keys(200, 3, |r, t| (r * (2 * t + 1) + t) % 16),
        );
        let mut image = Vec::new();
        image.extend_from_slice(slide_mem::pod_bytes(t.arrivals()));
        image.extend_from_slice(slide_mem::pod_bytes(t.offsets()));
        image.extend_from_slice(slide_mem::pod_bytes(t.items()));
        let arena = slide_mem::SharedArena::from_bytes(AlignedVec::from_slice(&image));
        let (n_arrivals, n_offsets) = (t.arrivals().len(), t.offsets().len());
        let back = LshTables::from_views(
            3,
            4,
            8,
            arena.view(n_arrivals * 8, n_offsets).unwrap(),
            arena
                .view(n_arrivals * 8 + n_offsets * 4, t.items().len())
                .unwrap(),
            arena.view(0, n_arrivals).unwrap(),
        )
        .unwrap();
        assert_eq!(back, t);
        for key in 0..16u32 {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            t.query_multiprobe_into(&[key, key ^ 5, 15 - key], 2, &mut a);
            back.query_multiprobe_into(&[key, key ^ 5, 15 - key], 2, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn csr_rejects_malformed_shapes() {
        let t = LshTables::from_keys(2, 2, 4, 9, &keys(30, 2, |r, t| (r + t) % 4));
        let view = |v: &[u32]| ArenaView::from_vec(AlignedVec::from_slice(v));
        let from = |offsets: &[u32], items: &[u32], arrivals: &[u64]| {
            LshTables::from_views(
                2,
                2,
                4,
                view(offsets),
                view(items),
                ArenaView::from_vec(AlignedVec::from_slice(arrivals)),
            )
        };
        let (offsets, items, arrivals) = (t.offsets(), t.items(), t.arrivals());
        assert_eq!(from(offsets, items, arrivals), Ok(t.clone()));

        let err = from(&offsets[..offsets.len() - 1], items, arrivals).unwrap_err();
        assert!(err.contains("offsets"), "{err}");

        let mut overrun = offsets.to_vec();
        *overrun.last_mut().unwrap() += 1;
        assert!(from(&overrun, items, arrivals).is_err());

        // Cram every item into the first bucket: exceeds bucket_cap.
        let mut fat = offsets.to_vec();
        let n = items.len() as u32;
        fat[1..].fill(n);
        assert!(from(&fat, items, arrivals).unwrap_err().contains("cap"));

        let mut falling = offsets.to_vec();
        falling[2] = falling[1] - 1;
        let err = from(&falling, items, arrivals).unwrap_err();
        assert!(err.contains("decrease"), "{err}");

        let err = from(offsets, items, &arrivals[1..]).unwrap_err();
        assert!(err.contains("arrivals"), "{err}");

        assert!(
            LshTables::from_views(0, 2, 4, offsets.clone(), items.clone(), arrivals.clone())
                .is_err(),
            "zero tables is an error, not a panic"
        );
    }
}
