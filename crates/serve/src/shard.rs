//! Row-partitioning plans for the output layer.
//!
//! Extreme-classification output layers put 10⁵–10⁶ rows behind one arena;
//! a [`ShardPlan`] splits them row-wise into `N` shards, each owning its own
//! 64-byte-aligned arena and its partition of the frozen LSH tables inside
//! one [`crate::Engine`]. Unsharded serving is the one-shard plan. How the
//! engine retrieves, scores, and merges across shards — and why the result
//! is bit-equal for every `N` — is documented on [`crate::Engine`].

use crate::error::ServeBuildError;
use slide_hash::LshTables;

/// How the output layer's rows are assigned to shards. Both policies are
/// snapshot-time: the plan is fixed when the engine is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlanKind {
    /// Shard `s` owns one contiguous row range (balanced to within one
    /// row). Best locality for label spaces with clustered hot heads.
    Contiguous,
    /// Row `g` belongs to shard `g % N`. Spreads head labels evenly across
    /// shards when the label distribution is Zipf-skewed.
    Strided,
}

/// A row-partitioning plan: `rows` output units split across `shards`
/// shards under a [`ShardPlanKind`] policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    kind: ShardPlanKind,
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
        Self::new(ShardPlanKind::Contiguous, shards, rows)
    }

    /// A strided (modulo) plan.
    ///
    /// # Errors
    ///
    /// As [`ShardPlan::contiguous`].
    pub fn strided(shards: usize, rows: usize) -> Result<Self, ServeBuildError> {
        Self::new(ShardPlanKind::Strided, shards, rows)
    }

    pub(crate) fn new(
        kind: ShardPlanKind,
        shards: usize,
        rows: usize,
    ) -> Result<Self, ServeBuildError> {
        if shards == 0 {
            return Err(ServeBuildError::PlanNeedsShards);
        }
        if shards > rows {
            return Err(ServeBuildError::PlanLeavesEmptyShards { shards, rows });
        }
        Ok(ShardPlan { kind, shards, rows })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Global output dimensionality the plan partitions.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The partitioning policy.
    pub fn kind(&self) -> ShardPlanKind {
        self.kind
    }

    /// Policy label for logs and bench meta (`"contiguous"` / `"strided"`).
    pub fn kind_label(&self) -> &'static str {
        match self.kind {
            ShardPlanKind::Contiguous => "contiguous",
            ShardPlanKind::Strided => "strided",
        }
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
        match self.kind {
            ShardPlanKind::Strided => g % self.shards,
            ShardPlanKind::Contiguous => {
                let base = self.rows / self.shards;
                let rem = self.rows % self.shards;
                let fat = rem * (base + 1);
                if g < fat {
                    g / (base + 1)
                } else {
                    rem + (g - fat) / base
                }
            }
        }
    }

    /// The O(1) global→local indexer for shard `s` (see [`ShardIndexer`]).
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.shards()`.
    pub fn indexer(&self, s: usize) -> ShardIndexer {
        assert!(s < self.shards, "ShardPlan::indexer: shard out of range");
        match self.kind {
            ShardPlanKind::Strided => ShardIndexer::Strided {
                shards: self.shards as u32,
                shard: s as u32,
            },
            ShardPlanKind::Contiguous => {
                let base = self.rows / self.shards;
                let rem = self.rows % self.shards;
                let start = s * base + s.min(rem);
                let len = base + usize::from(s < rem);
                ShardIndexer::Contiguous {
                    start: start as u32,
                    len: len as u32,
                }
            }
        }
    }

    /// The global row ids shard `s` owns, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.shards()`.
    pub fn shard_rows(&self, s: usize) -> Vec<u32> {
        assert!(s < self.shards, "ShardPlan::shard_rows: shard out of range");
        match self.kind {
            ShardPlanKind::Strided => ((s as u32)..self.rows as u32)
                .step_by(self.shards)
                .collect(),
            ShardPlanKind::Contiguous => {
                let base = self.rows / self.shards;
                let rem = self.rows % self.shards;
                let start = s * base + s.min(rem);
                let len = base + usize::from(s < rem);
                (start as u32..(start + len) as u32).collect()
            }
        }
    }
}

/// O(1) global→local row indexing for one shard — the arithmetic inverse
/// of its plan's ownership map, carried by every shard so the scoring hot
/// path never searches a mapping table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardIndexer {
    /// One contiguous range: `local = global - start`.
    Contiguous {
        /// First owned global row.
        start: u32,
        /// Owned row count.
        len: u32,
    },
    /// Modulo ownership: `local = global / shards`.
    Strided {
        /// Total shard count (the stride).
        shards: u32,
        /// This shard's residue class.
        shard: u32,
    },
}

impl ShardIndexer {
    /// Append the local (arena) index of every global row in `rows` to
    /// `out`, the plan-kind branch outside the loop. Callers must only pass
    /// rows the shard owns: an out-of-contract id either trips the arena
    /// bounds check downstream or gathers a wrong owned row, like any other
    /// misuse of a row id.
    pub fn locals_into(self, rows: &[u32], out: &mut Vec<u32>) {
        match self {
            ShardIndexer::Contiguous { start, .. } => out.extend(rows.iter().map(|&g| g - start)),
            ShardIndexer::Strided { shards, .. } => out.extend(rows.iter().map(|&g| g / shards)),
        }
    }

    /// Global row id of the shard's `local`-th row (inverse of
    /// [`ShardIndexer::locals_into`]).
    #[inline]
    pub fn global_of(self, local: usize) -> u32 {
        match self {
            ShardIndexer::Contiguous { start, .. } => start + local as u32,
            ShardIndexer::Strided { shards, shard } => shard + local as u32 * shards,
        }
    }
}

/// Split the global frozen tables into one partition per shard of `plan`:
/// shard `s` keeps exactly the ids it owns, in their original bucket order.
/// Filtering one global build (rather than re-building per shard) means
/// bucket-cap eviction happened once, globally, so the union of the shards'
/// retrievals is bit-for-bit the global retrieval set.
pub(crate) fn partition_tables(tables: LshTables, plan: &ShardPlan) -> Vec<LshTables> {
    if plan.shards() == 1 {
        return vec![tables];
    }
    (0..plan.shards())
        .map(|s| tables.retained(&|id| plan.shard_of(id) == s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_partitions_cover_every_row_once() {
        for rows in [7usize, 64, 100] {
            for shards in [1usize, 2, 3, 7] {
                for plan in [
                    ShardPlan::contiguous(shards, rows).unwrap(),
                    ShardPlan::strided(shards, rows).unwrap(),
                ] {
                    let mut seen = vec![false; rows];
                    for s in 0..shards {
                        let (indexer, owned) = (plan.indexer(s), plan.shard_rows(s));
                        let mut locals = Vec::new();
                        indexer.locals_into(&owned, &mut locals);
                        assert!(locals.iter().copied().eq(0..owned.len() as u32));
                        for (local, &g) in owned.iter().enumerate() {
                            assert_eq!(plan.shard_of(g), s, "{plan:?} row {g}");
                            assert_eq!(indexer.global_of(local), g, "{plan:?} row {g}");
                            assert!(!seen[g as usize], "{plan:?} row {g} double-owned");
                            seen[g as usize] = true;
                        }
                    }
                    assert!(seen.iter().all(|&b| b), "{plan:?} left rows unowned");
                    // Balance: shard sizes differ by at most one row.
                    let sizes: Vec<usize> = (0..shards).map(|s| plan.shard_rows(s).len()).collect();
                    let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                    assert!(max - min <= 1, "{plan:?} unbalanced: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn plan_rejects_degenerate_shapes() {
        assert!(ShardPlan::contiguous(0, 8).is_err());
        assert!(ShardPlan::strided(9, 8).is_err());
        assert!(ShardPlan::contiguous(8, 8).is_ok());
    }
}
