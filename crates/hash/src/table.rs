//! Multi-table LSH bucket storage — the structure queried on every SLIDE
//! forward pass and updated after every gradient step (§2, Figure 1).
//!
//! `L` tables, each with `2^K` buckets of neuron ids ("pointers only" in the
//! paper's figure). Buckets are bounded; when full, either FIFO-evict or
//! reservoir-sample — both policies exist in the original SLIDE code and are
//! exposed here for ablation.

use crate::mix::{mix3, reduce};

/// What to do when inserting into a full bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum BucketPolicy {
    /// Evict the oldest entry (ring-buffer semantics).
    Fifo,
    /// Keep a uniform sample of everything ever inserted (SLIDE's default).
    #[default]
    Reservoir,
}

#[derive(Debug, Clone, Default)]
struct Bucket {
    items: Vec<u32>,
    /// Total insertions ever attempted (drives reservoir sampling).
    arrivals: u64,
}

/// A set of `L` LSH tables with `2^K` bounded buckets each.
///
/// # Examples
///
/// ```
/// use slide_hash::{BucketPolicy, LshTables};
///
/// let mut tables = LshTables::new(4, 6, 128, BucketPolicy::Reservoir, 42);
/// tables.insert(&[1, 2, 3, 4], 99); // neuron 99's key in each of the 4 tables
/// let mut out = Vec::new();
/// tables.query_into(&[1, 2, 3, 4], &mut out);
/// assert!(out.contains(&99));
/// ```
#[derive(Debug, Clone)]
pub struct LshTables {
    tables: Vec<Vec<Bucket>>,
    key_bits: u32,
    bucket_cap: usize,
    policy: BucketPolicy,
    seed: u64,
}

/// [`LshTables`] flattened to CSR arrays for snapshot persistence: the
/// three arrays map one-to-one onto the snapshot's LSH sections, so a
/// loaded model references them without re-hashing any rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TablesCsr {
    /// Prefix sums over all `L * 2^K` buckets (row-major by table);
    /// `offsets[b]..offsets[b+1]` indexes bucket `b`'s slice of `items`.
    pub offsets: Vec<u32>,
    /// Concatenated bucket contents, per-bucket order preserved.
    pub items: Vec<u32>,
    /// Per-bucket arrival counters (reservoir-sampling history).
    pub arrivals: Vec<u64>,
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

impl LshTables {
    /// Create `tables` empty tables of `2^key_bits` buckets, each bounded to
    /// `bucket_cap` ids.
    ///
    /// # Panics
    ///
    /// Panics if `tables == 0`, `key_bits == 0` or `key_bits > 24`, or
    /// `bucket_cap == 0`.
    pub fn new(
        tables: usize,
        key_bits: u32,
        bucket_cap: usize,
        policy: BucketPolicy,
        seed: u64,
    ) -> Self {
        assert!(tables > 0, "LshTables: need at least one table");
        assert!(key_bits > 0 && key_bits <= 24, "LshTables: key_bits 1..=24");
        assert!(bucket_cap > 0, "LshTables: bucket_cap must be positive");
        let buckets = 1usize << key_bits;
        LshTables {
            tables: (0..tables)
                .map(|_| vec![Bucket::default(); buckets])
                .collect(),
            key_bits,
            bucket_cap,
            policy,
            seed,
        }
    }

    /// Number of tables (`L`).
    pub fn tables(&self) -> usize {
        self.tables.len()
    }

    /// Bits per key (`K`); each table has `2^K` buckets.
    pub fn key_bits(&self) -> u32 {
        self.key_bits
    }

    /// Maximum ids per bucket.
    pub fn bucket_cap(&self) -> usize {
        self.bucket_cap
    }

    /// The eviction policy in use.
    pub fn policy(&self) -> BucketPolicy {
        self.policy
    }

    /// Insert `id` into bucket `keys[t]` of every table `t`.
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != self.tables()` or any key is `>= 2^K`.
    pub fn insert(&mut self, keys: &[u32], id: u32) {
        assert_eq!(keys.len(), self.tables.len(), "LshTables: keys per table");
        for (t, &key) in keys.iter().enumerate() {
            let bucket = &mut self.tables[t][key as usize];
            bucket.arrivals += 1;
            if bucket.items.len() < self.bucket_cap {
                bucket.items.push(id);
            } else {
                match self.policy {
                    BucketPolicy::Fifo => {
                        bucket.items.remove(0);
                        bucket.items.push(id);
                    }
                    BucketPolicy::Reservoir => {
                        // Uniform reservoir: replace a random slot with
                        // probability cap/arrivals, deterministically derived
                        // from (table, key, arrivals).
                        let r = reduce(
                            mix3(self.seed ^ (t as u64) << 32, key as u64, bucket.arrivals),
                            bucket.arrivals as usize,
                        );
                        if r < self.bucket_cap {
                            bucket.items[r] = id;
                        }
                    }
                }
            }
        }
    }

    /// Append the contents of bucket `keys[t]` of every table to `out`
    /// (duplicates across tables are *not* removed here — the active-set
    /// builder deduplicates with a stamp array).
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != self.tables()`.
    pub fn query_into(&self, keys: &[u32], out: &mut Vec<u32>) {
        assert_eq!(keys.len(), self.tables.len(), "LshTables: keys per table");
        for (t, &key) in keys.iter().enumerate() {
            out.extend_from_slice(&self.tables[t][key as usize].items);
        }
    }

    /// Multiprobe query: besides bucket `keys[t]`, also probe the buckets
    /// whose keys differ in one low-order bit, visiting up to `probes`
    /// buckets per table in total. Multiprobe trades extra bucket reads for
    /// fewer tables at equal recall (Lv et al. 2007) — an ablation knob on
    /// top of the paper's plain `L`-table query.
    ///
    /// `probes == 1` is identical to [`LshTables::query_into`].
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != self.tables()` or `probes == 0`.
    pub fn query_multiprobe_into(&self, keys: &[u32], probes: usize, out: &mut Vec<u32>) {
        assert_eq!(keys.len(), self.tables.len(), "LshTables: keys per table");
        assert!(probes > 0, "LshTables: probes must be positive");
        let max_extra = (probes - 1).min(self.key_bits as usize);
        for (t, &key) in keys.iter().enumerate() {
            out.extend_from_slice(&self.tables[t][key as usize].items);
            for bit in 0..max_extra {
                let neighbour = key ^ (1 << bit);
                out.extend_from_slice(&self.tables[t][neighbour as usize].items);
            }
        }
    }

    /// Contents of one bucket (test/inspection hook).
    pub fn bucket(&self, table: usize, key: u32) -> &[u32] {
        &self.tables[table][key as usize].items
    }

    /// A copy of these tables keeping only the ids for which `keep` returns
    /// true, preserving per-bucket order. This is how a sharded serving
    /// engine derives its per-shard tables from one frozen global build:
    /// because every surviving id keeps its bucket and relative position,
    /// the union of a partition's retrievals is exactly the original
    /// tables' retrieval set — bucket-cap eviction happened once, globally,
    /// before the split, so it cannot diverge between the partitions.
    ///
    /// `arrivals` counters are preserved; the copy is intended to be frozen
    /// (further inserts would reservoir-sample against the pre-split
    /// arrival history).
    pub fn retained(&self, keep: &dyn Fn(u32) -> bool) -> LshTables {
        let mut out = self.clone();
        for table in &mut out.tables {
            for bucket in table.iter_mut() {
                bucket.items.retain(|&id| keep(id));
            }
        }
        out
    }

    /// Remove every id from every bucket (rebuild prologue).
    pub fn clear(&mut self) {
        for table in &mut self.tables {
            for bucket in table.iter_mut() {
                bucket.items.clear();
                bucket.arrivals = 0;
            }
        }
    }

    /// Flatten the tables into CSR form for snapshot persistence: one
    /// prefix-sum `offsets` array over all `L * 2^K` buckets (row-major:
    /// table 0's buckets, then table 1's, …), the concatenated bucket
    /// `items`, and the per-bucket `arrivals` counters. Per-bucket item
    /// order is preserved, so a [`LshTables::from_csr`] round trip is
    /// bit-identical — including [`LshTables::retained`] partitions and
    /// reservoir behaviour on any further inserts (arrival history travels
    /// with the data).
    pub fn to_csr(&self) -> TablesCsr {
        let buckets = self.tables.len() << self.key_bits;
        let mut csr = TablesCsr {
            offsets: Vec::with_capacity(buckets + 1),
            items: Vec::with_capacity(self.stats().stored),
            arrivals: Vec::with_capacity(buckets),
        };
        csr.offsets.push(0);
        for table in &self.tables {
            for bucket in table {
                csr.items.extend_from_slice(&bucket.items);
                csr.offsets.push(csr.items.len() as u32);
                csr.arrivals.push(bucket.arrivals);
            }
        }
        csr
    }

    /// Rebuild tables from [`LshTables::to_csr`] output plus the structural
    /// parameters the CSR does not carry.
    ///
    /// # Errors
    ///
    /// Returns a message when the CSR shape disagrees with
    /// `tables`/`key_bits` (wrong array lengths, non-monotonic offsets, a
    /// bucket larger than `bucket_cap`) — snapshot corruption must surface
    /// as an error, never a panic.
    pub fn from_csr(
        tables: usize,
        key_bits: u32,
        bucket_cap: usize,
        policy: BucketPolicy,
        seed: u64,
        csr: &TablesCsr,
    ) -> Result<Self, String> {
        if tables == 0 || key_bits == 0 || key_bits > 24 || bucket_cap == 0 {
            return Err(format!(
                "LshTables csr: bad shape (tables={tables}, key_bits={key_bits}, bucket_cap={bucket_cap})"
            ));
        }
        let buckets = tables << key_bits;
        if csr.offsets.len() != buckets + 1 || csr.arrivals.len() != buckets {
            return Err(format!(
                "LshTables csr: {} offsets / {} arrivals for {buckets} buckets",
                csr.offsets.len(),
                csr.arrivals.len()
            ));
        }
        if csr.offsets[0] != 0 || *csr.offsets.last().expect("non-empty") != csr.items.len() as u32
        {
            return Err(format!(
                "LshTables csr: offsets span [{}, {}] over {} items",
                csr.offsets[0],
                csr.offsets.last().expect("non-empty"),
                csr.items.len()
            ));
        }
        let mut out = LshTables::new(tables, key_bits, bucket_cap, policy, seed);
        let per_table = 1usize << key_bits;
        for b in 0..buckets {
            let (start, end) = (csr.offsets[b] as usize, csr.offsets[b + 1] as usize);
            if end < start {
                return Err(format!("LshTables csr: offsets decrease at bucket {b}"));
            }
            if end - start > bucket_cap {
                return Err(format!(
                    "LshTables csr: bucket {b} holds {} ids, cap {bucket_cap}",
                    end - start
                ));
            }
            let bucket = &mut out.tables[b / per_table][b % per_table];
            bucket.items = csr.items[start..end].to_vec();
            bucket.arrivals = csr.arrivals[b];
        }
        Ok(out)
    }

    /// Occupancy statistics across all tables.
    pub fn stats(&self) -> TableStats {
        let mut s = TableStats::default();
        for table in &self.tables {
            for bucket in table {
                s.total_buckets += 1;
                if !bucket.items.is_empty() {
                    s.occupied_buckets += 1;
                }
                s.stored += bucket.items.len();
                s.max_bucket = s.max_bucket.max(bucket.items.len());
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_roundtrip() {
        let mut t = LshTables::new(3, 4, 16, BucketPolicy::Reservoir, 1);
        t.insert(&[1, 2, 3], 7);
        t.insert(&[1, 0, 3], 8);
        let mut out = Vec::new();
        t.query_into(&[1, 2, 3], &mut out);
        assert!(out.contains(&7));
        assert!(out.contains(&8)); // shares bucket 1 in table 0 and 3 in table 2
        assert_eq!(out.iter().filter(|&&x| x == 7).count(), 3);
    }

    #[test]
    fn fifo_evicts_oldest() {
        let mut t = LshTables::new(1, 2, 3, BucketPolicy::Fifo, 1);
        for id in 0..5 {
            t.insert(&[1], id);
        }
        assert_eq!(t.bucket(0, 1), &[2, 3, 4]);
    }

    #[test]
    fn bucket_cap_is_respected_under_both_policies() {
        for policy in [BucketPolicy::Fifo, BucketPolicy::Reservoir] {
            let mut t = LshTables::new(1, 3, 4, policy, 9);
            for id in 0..100 {
                t.insert(&[5], id);
            }
            assert!(t.bucket(0, 5).len() <= 4, "{policy:?}");
        }
    }

    #[test]
    fn reservoir_keeps_late_and_early_items() {
        // A uniform reservoir over 1..=2000 should retain some items beyond
        // the first `cap` arrivals (FIFO-of-first would not).
        let mut t = LshTables::new(1, 1, 32, BucketPolicy::Reservoir, 123);
        for id in 0..2000 {
            t.insert(&[0], id);
        }
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
    }

    #[test]
    fn multiprobe_one_equals_plain_query() {
        let mut t = LshTables::new(3, 4, 16, BucketPolicy::Reservoir, 5);
        for id in 0..40 {
            t.insert(&[id % 16, (id + 1) % 16, (id + 2) % 16], id);
        }
        let keys = [3u32, 7, 11];
        let mut plain = Vec::new();
        let mut multi = Vec::new();
        t.query_into(&keys, &mut plain);
        t.query_multiprobe_into(&keys, 1, &mut multi);
        assert_eq!(plain, multi);
    }

    #[test]
    fn multiprobe_returns_superset_from_neighbour_buckets() {
        let mut t = LshTables::new(1, 4, 16, BucketPolicy::Reservoir, 5);
        t.insert(&[0b0101], 1); // exact bucket
        t.insert(&[0b0100], 2); // hamming-1 neighbour (bit 0)
        t.insert(&[0b0111], 3); // hamming-1 neighbour (bit 1)
        t.insert(&[0b1101], 4); // hamming-1 neighbour (bit 3) — beyond 3 probes
        let mut out = Vec::new();
        t.query_multiprobe_into(&[0b0101], 3, &mut out);
        assert!(out.contains(&1));
        assert!(out.contains(&2));
        assert!(out.contains(&3));
        assert!(!out.contains(&4), "bit 3 flip needs probes >= 4");
        // Probes capped by key-bits: huge probe counts are safe.
        let mut all = Vec::new();
        t.query_multiprobe_into(&[0b0101], 100, &mut all);
        assert!(all.contains(&4));
    }

    #[test]
    fn retained_partitions_exactly() {
        // Overflowing buckets force reservoir eviction; the even/odd
        // partition of the *frozen* tables must still union back to the
        // original retrieval set, in order.
        let mut t = LshTables::new(2, 2, 4, BucketPolicy::Reservoir, 77);
        for id in 0..64 {
            t.insert(&[id % 4, (id + 1) % 4], id);
        }
        let even = t.retained(&|id| id % 2 == 0);
        let odd = t.retained(&|id| id % 2 == 1);
        for table in 0..2 {
            for key in 0..4u32 {
                let original = t.bucket(table, key);
                let mut merged: Vec<u32> = Vec::new();
                let (mut e, mut o) = (0usize, 0usize);
                // Stable partition: replaying the original order consumes
                // both halves exactly.
                for &id in original {
                    if id % 2 == 0 {
                        assert_eq!(even.bucket(table, key)[e], id);
                        e += 1;
                    } else {
                        assert_eq!(odd.bucket(table, key)[o], id);
                        o += 1;
                    }
                    merged.push(id);
                }
                assert_eq!(e, even.bucket(table, key).len());
                assert_eq!(o, odd.bucket(table, key).len());
            }
        }
        assert_eq!(
            even.stats().stored + odd.stats().stored,
            t.stats().stored,
            "partition must cover every stored id exactly once"
        );
    }

    #[test]
    fn clear_empties_everything() {
        let mut t = LshTables::new(2, 3, 8, BucketPolicy::Reservoir, 5);
        for id in 0..20 {
            t.insert(&[id % 8, (id + 1) % 8], id);
        }
        assert!(t.stats().stored > 0);
        t.clear();
        let s = t.stats();
        assert_eq!(s.stored, 0);
        assert_eq!(s.occupied_buckets, 0);
        assert_eq!(s.total_buckets, 16);
    }

    #[test]
    fn stats_count_correctly() {
        let mut t = LshTables::new(2, 2, 8, BucketPolicy::Fifo, 5);
        t.insert(&[0, 1], 1);
        t.insert(&[0, 2], 2);
        let s = t.stats();
        assert_eq!(s.stored, 4);
        assert_eq!(s.occupied_buckets, 3); // table0/bucket0 (x2), table1/bucket1, table1/bucket2
        assert_eq!(s.max_bucket, 2);
        assert_eq!(s.total_buckets, 8);
    }

    #[test]
    #[should_panic(expected = "keys per table")]
    fn wrong_key_count_panics() {
        let mut t = LshTables::new(2, 2, 8, BucketPolicy::Fifo, 5);
        t.insert(&[0], 1);
    }

    #[test]
    fn csr_round_trip_is_bit_identical() {
        let mut t = LshTables::new(3, 4, 8, BucketPolicy::Reservoir, 0xBEEF);
        for id in 0..200 {
            t.insert(&[id % 16, (id * 7 + 1) % 16, (id * 3 + 5) % 16], id);
        }
        let csr = t.to_csr();
        let back = LshTables::from_csr(3, 4, 8, BucketPolicy::Reservoir, 0xBEEF, &csr).unwrap();
        assert_eq!(back.stats(), t.stats());
        for table in 0..3 {
            for key in 0..16u32 {
                assert_eq!(back.bucket(table, key), t.bucket(table, key));
            }
        }
        // Arrival history travels too: the same insert lands identically in
        // the original and the round-tripped copy (reservoir determinism).
        let mut a = t.clone();
        let mut b = back.clone();
        for id in 200..260 {
            a.insert(&[id % 16, (id * 7 + 1) % 16, (id * 3 + 5) % 16], id);
            b.insert(&[id % 16, (id * 7 + 1) % 16, (id * 3 + 5) % 16], id);
        }
        for table in 0..3 {
            for key in 0..16u32 {
                assert_eq!(a.bucket(table, key), b.bucket(table, key));
            }
        }
        assert_eq!(back.to_csr(), csr, "second export is stable");
    }

    #[test]
    fn csr_rejects_malformed_shapes() {
        let mut t = LshTables::new(2, 2, 4, BucketPolicy::Reservoir, 9);
        for id in 0..30 {
            t.insert(&[id % 4, (id + 1) % 4], id);
        }
        let good = t.to_csr();
        let from = |csr: &TablesCsr| LshTables::from_csr(2, 2, 4, BucketPolicy::Reservoir, 9, csr);
        assert!(from(&good).is_ok());

        let mut short = good.clone();
        short.offsets.pop();
        assert!(from(&short).unwrap_err().contains("offsets"));

        let mut overrun = good.clone();
        *overrun.offsets.last_mut().unwrap() += 1;
        assert!(from(&overrun).is_err());

        let mut fat = good.clone();
        // Cram every item into the first bucket: exceeds bucket_cap.
        let n = fat.items.len() as u32;
        for o in fat.offsets.iter_mut().skip(1) {
            *o = n;
        }
        assert!(from(&fat).unwrap_err().contains("cap"));

        let mut arrivals = good.clone();
        arrivals.arrivals.pop();
        assert!(from(&arrivals).is_err());

        assert!(
            LshTables::from_csr(0, 2, 4, BucketPolicy::Reservoir, 9, &good).is_err(),
            "zero tables is an error, not a panic"
        );
    }
}
