//! Typed build/publish and request errors for the serving tier.
//!
//! Before the snapshot-persistence PR these were ad-hoc `Result<_, String>`s
//! scattered across `BatchingServer::start` and the shard-plan constructors. [`ServeBuildError`] replaces them with
//! one enum whose `Display` text preserves the old messages (they are
//! asserted on in tests and surfaced to operators), while callers that care
//! can now match on the variant instead of substring-sniffing.
//!
//! [`ServeError`] (per-request failures) lives here too so the request and
//! build error surfaces share one module; it is re-exported at the crate
//! root unchanged.

use std::fmt;

/// Why a request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The server was closed before (or while) handling the request.
    Closed,
    /// The query did not fit the model (bad index, length mismatch, k == 0).
    Invalid(String),
    /// The admission queue was full and the caller asked not to block
    /// ([`crate::BatchingServer::try_predict`]): shed the request instead of
    /// buffering it. Carries the queue depth observed at rejection.
    Overloaded(usize),
    /// The request's deadline expired before it reached compute — at
    /// admission, or while queued (whoever picks a stale request up sheds it
    /// rather than scoring an answer nobody is waiting for).
    /// Distinct from [`ServeError::Overloaded`]: retrying immediately is
    /// pointless, the *budget* was exhausted, not the queue.
    DeadlineExceeded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Closed => f.write_str("server closed"),
            ServeError::Invalid(msg) => write!(f, "invalid query: {msg}"),
            ServeError::Overloaded(depth) => {
                write!(f, "server overloaded: {depth} requests queued")
            }
            ServeError::DeadlineExceeded => f.write_str("deadline exceeded"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Why a serving engine, shard plan, or batching server could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeBuildError {
    /// A [`crate::BatchConfig`] field failed validation.
    InvalidBatchConfig(String),
    /// A [`crate::ShardPlan`] was constructed with zero shards.
    PlanNeedsShards,
    /// A [`crate::ShardPlan`] spreads too few rows over too many shards.
    PlanLeavesEmptyShards {
        /// Requested shard count.
        shards: usize,
        /// Rows available to spread.
        rows: usize,
    },
    /// The plan's row universe disagrees with the network's output layer.
    PlanRowsMismatch {
        /// Rows the plan covers.
        plan_rows: usize,
        /// The network's output dimensionality.
        output_dim: usize,
    },
    /// More than one shard cannot honour a global `lsh.max_active` cap.
    MaxActiveUnsupported,
}

impl fmt::Display for ServeBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeBuildError::InvalidBatchConfig(msg) => write!(f, "{msg}"),
            ServeBuildError::PlanNeedsShards => {
                write!(f, "ShardPlan: need at least one shard")
            }
            ServeBuildError::PlanLeavesEmptyShards { shards, rows } => write!(
                f,
                "ShardPlan: {shards} shards over {rows} rows would leave empty shards"
            ),
            ServeBuildError::PlanRowsMismatch {
                plan_rows,
                output_dim,
            } => write!(
                f,
                "ShardPlan covers {plan_rows} rows, network outputs {output_dim}"
            ),
            ServeBuildError::MaxActiveUnsupported => write!(
                f,
                "sharded serving requires lsh.max_active = None: the global cap truncates \
                 in table-encounter order, which a scatter-gather merge cannot reproduce"
            ),
        }
    }
}

impl std::error::Error for ServeBuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_the_operator_messages() {
        // Messages are part of the operator-facing contract (logs, tests,
        // router error frames); variants may grow, texts must not drift.
        let cases: Vec<(ServeBuildError, &str)> = vec![
            (
                ServeBuildError::PlanNeedsShards,
                "ShardPlan: need at least one shard",
            ),
            (
                ServeBuildError::PlanLeavesEmptyShards { shards: 9, rows: 4 },
                "ShardPlan: 9 shards over 4 rows would leave empty shards",
            ),
            (
                ServeBuildError::PlanRowsMismatch {
                    plan_rows: 32,
                    output_dim: 64,
                },
                "ShardPlan covers 32 rows, network outputs 64",
            ),
        ];
        for (err, expect) in cases {
            assert_eq!(err.to_string(), expect);
        }
        assert!(ServeBuildError::MaxActiveUnsupported
            .to_string()
            .contains("max_active"));
    }
}
