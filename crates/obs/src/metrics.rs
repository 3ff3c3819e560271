//! Lock-free instruments: sharded [`Counter`], [`Gauge`], and the
//! log-linear bucketed [`Histogram`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of cache-line-padded shards per counter. Eight covers the worker
/// counts this workspace runs (thread pools size to cores) without letting
/// a counter outgrow half a page.
const COUNTER_SHARDS: usize = 8;

/// A single cache line holding one atomic, so two shards never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedAtomicU64(AtomicU64);

/// Round-robin source for thread shard assignment: each thread grabs the
/// next index once and keeps it for life, so steady-state increments from
/// distinct threads land on distinct cache lines.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
}

fn my_shard() -> usize {
    MY_SHARD.with(|s| *s)
}

/// A monotonically increasing counter. The hot path is one relaxed
/// `fetch_add` on a thread-owned cache line; reads sum the shards.
///
/// ```
/// let c = slide_obs::Counter::default();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Default)]
pub struct Counter {
    shards: [PaddedAtomicU64; COUNTER_SHARDS],
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[my_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Reset to zero (stats-reset paths; not atomic with concurrent adds).
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A gauge: a value that can go up or down (queue depth, breaker state,
/// requests in flight). Single atomic.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one; pairs with an earlier [`inc`](Self::inc).
    #[inline]
    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per power of two.
const SUB_BUCKET_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
/// Largest representable exponent: values clamp to `2^MAX_EXP - 1`
/// (~1.1e12 µs ≈ 12.7 days — far beyond any latency this fleet records).
const MAX_EXP: u32 = 40;
/// Total bucket count: values `< SUB_BUCKETS` get exact unit buckets, then
/// each octave from 2^5 to 2^40 contributes SUB_BUCKETS log-linear buckets.
const BUCKETS: usize =
    (SUB_BUCKETS + (MAX_EXP as u64 - SUB_BUCKET_BITS as u64) * SUB_BUCKETS) as usize;

/// A log-linear bucketed histogram of `u64` values (microseconds, counts —
/// any nonnegative magnitude), HDR-style:
///
/// * **Bounded memory**: [`BUCKETS`](Self::BUCKETS) (= 1152) atomic `u64`
///   buckets ≈ 9 KiB, regardless of how many samples are recorded — unlike
///   the capped sample vectors it replaces, whose tail estimates silently
///   degrade once the cap is hit.
/// * **Log-linear buckets**: values below 32 get exact unit buckets; each
///   octave `[2^k, 2^{k+1})` above that is split into 32 equal sub-buckets,
///   so bucket width is always ≤ value/32.
/// * **Bounded quantile error**: [`quantile`](Self::quantile) returns the
///   upper bound of the bucket holding the nearest-rank sample, so for the
///   exact nearest-rank value `x`:
///   `x ≤ quantile(q) ≤ x + x/32 + 1` — a relative error of at most
///   [`RELATIVE_ERROR_BOUND`](Self::RELATIVE_ERROR_BOUND) = 1/32, plus one
///   integer unit of slack (tested against `percentile_us` ground truth in
///   `slide-serve`).
/// * **Exact moments**: `sum`, `count`, and `max` are tracked exactly, so
///   mean and max in JSON views stay bit-accurate.
/// * **Mergeable**: [`merge_from`](Self::merge_from) folds one histogram
///   into another bucket-wise (per-worker → process rollups).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// An owned, non-atomic copy of a histogram's state, for rendering and
/// cross-process aggregation without holding the live buckets.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Total number of recorded samples.
    pub count: u64,
    /// Exact sum of all recorded values.
    pub sum: u64,
    /// Exact maximum recorded value (0 when empty).
    pub max: u64,
}

impl Histogram {
    /// Number of buckets (compile-time constant; ~9 KiB of `u64`s).
    pub const BUCKETS: usize = BUCKETS;

    /// Worst-case relative quantile error: bucket width / bucket lower
    /// bound = 1/32 (plus one integer unit for the sub-32 unit buckets'
    /// upper-bound convention).
    pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / SUB_BUCKETS as f64;

    /// Bucket index for a value. Values ≥ `2^MAX_EXP` clamp into the top
    /// bucket.
    #[inline]
    fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        let v = v.min((1u64 << MAX_EXP) - 1);
        let msb = 63 - v.leading_zeros();
        let g = msb - SUB_BUCKET_BITS;
        let sub = (v >> g) - SUB_BUCKETS;
        (SUB_BUCKETS + g as u64 * SUB_BUCKETS + sub) as usize
    }

    /// Inclusive upper bound of bucket `i` — what [`quantile`](Self::quantile)
    /// reports for samples landing in it.
    #[inline]
    fn bucket_upper(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB_BUCKETS {
            return i;
        }
        let g = (i - SUB_BUCKETS) / SUB_BUCKETS;
        let sub = (i - SUB_BUCKETS) % SUB_BUCKETS;
        let lower = (SUB_BUCKETS + sub) << g;
        lower + (1u64 << g) - 1
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimated `q`-th percentile (`q` in (0, 100]): the upper bound of
    /// the bucket containing the nearest-rank sample, clamped to the exact
    /// recorded max — matching the nearest-rank convention of
    /// `slide_serve::percentile_us` to within the bucket error bound, and
    /// never exceeding the true maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Fold another histogram's buckets and moments into this one.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Reset all buckets and moments to zero (stats-reset paths; not
    /// atomic with concurrent records).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// An owned copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl HistogramSnapshot {
    /// Same estimator as [`Histogram::quantile`], over the frozen copy.
    pub fn quantile(&self, q: f64) -> u64 {
        // count from the buckets, not the moment counter: a snapshot taken
        // mid-record can see the bucket without the count (or vice versa),
        // and the walk below must terminate inside the bucket array.
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * total as f64).ceil().max(1.0) as u64;
        let rank = rank.min(total);
        let mut seen = 0u64;
        let mut upper = Histogram::bucket_upper(self.buckets.len() - 1);
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                upper = Histogram::bucket_upper(i);
                break;
            }
        }
        // The exact max bounds every quantile: clamping keeps q=100 (and a
        // p99 that lands in the max's bucket) from overshooting the largest
        // value actually recorded, and can only shrink the error. (Skip
        // when max lags the bucket under a mid-record snapshot race.)
        if self.max > 0 {
            upper = upper.min(self.max);
        }
        upper
    }

    /// Exact mean from the tracked moments (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::default());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_set_get() {
        let g = Gauge::default();
        assert_eq!(g.get(), 0);
        g.set(42);
        assert_eq!(g.get(), 42);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn bucket_count_matches_constant() {
        assert_eq!(BUCKETS, 32 + 35 * 32);
        assert_eq!(Histogram::BUCKETS, BUCKETS);
    }

    #[test]
    fn bucket_index_and_bounds_are_consistent() {
        // Every representable value must land in a bucket whose range
        // contains it, and bucket widths must respect the error bound.
        let probes: Vec<u64> = (0..64)
            .chain((5..40).flat_map(|e| {
                let base = 1u64 << e;
                [base - 1, base, base + 1, base + base / 3, 2 * base - 1]
            }))
            .collect();
        for v in probes {
            let i = Histogram::bucket_index(v);
            let upper = Histogram::bucket_upper(i);
            assert!(upper >= v, "upper {upper} < v {v} (bucket {i})");
            // Relative error: (upper - v) / v ≤ 1/32 for v ≥ 32.
            if v >= 32 {
                let err = (upper - v) as f64 / v as f64;
                assert!(
                    err <= Histogram::RELATIVE_ERROR_BOUND + 1e-12,
                    "v={v} bucket={i} upper={upper} err={err}"
                );
            }
            if i > 0 {
                assert!(
                    Histogram::bucket_upper(i - 1) < v,
                    "v={v} fits earlier bucket"
                );
            }
        }
    }

    #[test]
    fn bucket_uppers_strictly_increase() {
        for i in 1..BUCKETS {
            assert!(
                Histogram::bucket_upper(i) > Histogram::bucket_upper(i - 1),
                "bucket {i} upper not increasing"
            );
        }
    }

    #[test]
    fn huge_values_clamp_into_top_bucket() {
        let h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(50.0), Histogram::bucket_upper(BUCKETS - 1));
        // max is exact even when the bucket clamps.
        assert_eq!(h.max(), u64::MAX);
    }

    /// Nearest-rank percentile on a sorted slice — mirrors
    /// `slide_serve::percentile_us`, duplicated locally because obs sits
    /// below serve in the crate DAG.
    fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    #[test]
    fn quantile_matches_exact_within_error_bound() {
        // Deterministic heavy-tailed workload via splitmix64.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let h = Histogram::default();
        let mut samples = Vec::new();
        for _ in 0..50_000 {
            let r = next();
            // ~1% of samples out in a long tail, rest in [0, 4096).
            let v = if r % 100 == 0 {
                4096 + (r >> 32) % 1_000_000
            } else {
                r % 4096
            };
            h.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [10.0, 50.0, 90.0, 99.0, 99.9] {
            let exact = exact_percentile(&samples, q);
            let est = h.quantile(q);
            assert!(est >= exact, "q={q}: est {est} < exact {exact}");
            let allowed = (exact as f64 * Histogram::RELATIVE_ERROR_BOUND).ceil() as u64 + 1;
            assert!(
                est - exact <= allowed,
                "q={q}: est {est} exceeds exact {exact} by more than {allowed}"
            );
        }
        assert_eq!(h.count(), 50_000);
        assert_eq!(h.sum(), samples.iter().sum::<u64>());
        assert_eq!(h.max(), *samples.last().unwrap());
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let a = Histogram::default();
        let b = Histogram::default();
        for v in [1, 10, 100, 1000] {
            a.record(v);
        }
        for v in [5, 50, 500, 5000, 50_000] {
            b.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 9);
        assert_eq!(a.sum(), 1111 + 55_555);
        assert_eq!(a.max(), 50_000);
        // p100 must come from b's tail.
        assert!(a.quantile(100.0) >= 50_000);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::default();
        for v in 0..1000 {
            h.record(v);
        }
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(99.0), 0);
    }

    #[test]
    fn concurrent_records_lose_nothing() {
        let h = Arc::new(Histogram::default());
        let mut handles = Vec::new();
        for t in 0..4 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..25_000u64 {
                    h.record(t * 1000 + (i % 777));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(h.count(), 100_000);
    }
}
