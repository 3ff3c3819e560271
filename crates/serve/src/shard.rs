//! Row-partitioning plans for the output layer.
//!
//! Extreme-classification output layers put 10⁵–10⁶ rows behind one arena;
//! a [`ShardPlan`] splits them row-wise into `N` shards, each owning its own
//! 64-byte-aligned arena inside one [`crate::Engine`]. The plan splits the
//! arena only: the engine keeps one set of LSH tables over every row, so
//! retrieval never sees the shards. Unsharded serving is the one-shard plan.
//! How the engine scores across shards — and why the result is bit-equal
//! for every `N` — is documented on [`crate::Engine`].

use crate::error::ServeBuildError;
use std::ops::Range;

/// A row-partitioning plan: `rows` output units split across `shards`
/// shards, shard `s` owning one contiguous row range. Ranges are balanced to
/// within one row (the first `rows % shards` shards hold the extra row), so
/// a shard's local row is its global row minus the range start. The plan is
/// fixed when the engine is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    rows: usize,
}

impl ShardPlan {
    /// A contiguous (range) plan.
    ///
    /// # Errors
    ///
    /// [`ServeBuildError::PlanNeedsShards`] /
    /// [`ServeBuildError::PlanLeavesEmptyShards`] if `shards` is zero or
    /// exceeds `rows`.
    pub fn contiguous(shards: usize, rows: usize) -> Result<Self, ServeBuildError> {
        if shards == 0 {
            return Err(ServeBuildError::PlanNeedsShards);
        }
        if shards > rows {
            return Err(ServeBuildError::PlanLeavesEmptyShards { shards, rows });
        }
        Ok(ShardPlan { shards, rows })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Global output dimensionality the plan partitions.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The shard owning global row `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is outside the plan's row universe.
    #[inline]
    pub fn shard_of(&self, g: u32) -> usize {
        let g = g as usize;
        assert!(g < self.rows, "ShardPlan::shard_of: row {g} out of range");
        let base = self.rows / self.shards;
        let rem = self.rows % self.shards;
        let fat = rem * (base + 1);
        if g < fat {
            g / (base + 1)
        } else {
            rem + (g - fat) / base
        }
    }

    /// The global rows shard `s` owns.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.shards()`.
    pub fn shard_rows(&self, s: usize) -> Range<u32> {
        assert!(s < self.shards, "ShardPlan::shard_rows: shard out of range");
        let base = self.rows / self.shards;
        let rem = self.rows % self.shards;
        let start = s * base + s.min(rem);
        let len = base + usize::from(s < rem);
        start as u32..(start + len) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_partitions_cover_every_row_once() {
        for rows in [7usize, 64, 100] {
            for shards in [1usize, 2, 3, 7] {
                let plan = ShardPlan::contiguous(shards, rows).unwrap();
                let mut next = 0u32;
                for s in 0..shards {
                    let owned = plan.shard_rows(s);
                    assert_eq!(owned.start, next, "{plan:?} shard {s} leaves a gap");
                    for g in owned.clone() {
                        assert_eq!(plan.shard_of(g), s, "{plan:?} row {g}");
                    }
                    next = owned.end;
                }
                assert_eq!(next as usize, rows, "{plan:?} left rows unowned");
                // Balance: shard sizes differ by at most one row.
                let sizes: Vec<usize> = (0..shards).map(|s| plan.shard_rows(s).len()).collect();
                let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                assert!(max - min <= 1, "{plan:?} unbalanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn plan_rejects_degenerate_shapes() {
        assert!(ShardPlan::contiguous(0, 8).is_err());
        assert!(ShardPlan::contiguous(9, 8).is_err());
        assert!(ShardPlan::contiguous(8, 8).is_ok());
    }
}
