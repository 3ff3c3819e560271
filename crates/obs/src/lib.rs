//! Fleet-wide observability core for the SLIDE reproduction.
//!
//! The source paper's optimization program was measurement-driven: per-phase
//! profiling of hash/retrieval/kernel time is what justified its
//! vectorization and quantization work. This crate is the serving fleet's
//! equivalent substrate — dependency-light (nothing but the workspace
//! `parking_lot` shim) so every tier can afford to link it:
//!
//! * [`Counter`] / [`Gauge`] — lock-free sharded counters and gauges whose
//!   hot path is one relaxed atomic add on a thread-owned cache line.
//! * [`Histogram`] — a log-linear bucketed latency histogram (HDR-style):
//!   bounded memory whatever the sample count, mergeable across shards, and
//!   a nearest-rank quantile estimator with a proven relative error bound
//!   ([`Histogram::RELATIVE_ERROR_BOUND`], 1/32 ≈ 3.1%).
//! * [`Registry`] — named families of the above, rendered as
//!   Prometheus-style exposition text ([`Registry::render`]).
//! * [`TraceRing`] + [`Stage`] — a fixed-size per-process ring of
//!   per-request stage spans (router queue, admission, batch wait, LSH
//!   retrieval, kernel compute, encode), keyed by a
//!   splitmix64-derived trace id ([`derive_trace_id`]) that the wire
//!   protocol carries hop to hop.
//! * [`ObsHub`] — one registry + one trace ring, the per-process handle a
//!   server threads through its tiers and serves over the wire.
//!
//! # Quickstart
//!
//! ```
//! use slide_obs::{ObsHub, Stage};
//!
//! let hub = ObsHub::new();
//! let served = hub.registry().counter("demo_requests_total");
//! let latency = hub.registry().histogram("demo_latency_us");
//! served.inc();
//! latency.record(250);
//! let trace = slide_obs::derive_trace_id(0xC0FFEE, 1);
//! hub.ring().record(trace, Stage::Kernel, hub.ring().now_us(), 250);
//! let text = hub.render();
//! assert!(text.contains("demo_requests_total 1"));
//! assert!(text.contains("stage=kernel"));
//! ```

mod metrics;
mod registry;
mod trace;

pub use metrics::{percentile_us, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::Registry;
pub use trace::{derive_trace_id, splitmix64, SpanRecord, Stage, StageSample, TraceRing};

use std::sync::Arc;

/// Default capacity of a hub's trace ring (spans, not requests).
pub const DEFAULT_TRACE_RING_CAP: usize = 4096;

/// One process's observability handle: a metrics [`Registry`] plus a
/// [`TraceRing`], created once per serving process (the batching server
/// builds one; the TCP front-end and every stage hook share it).
#[derive(Debug)]
pub struct ObsHub {
    registry: Registry,
    ring: TraceRing,
}

impl Default for ObsHub {
    fn default() -> Self {
        ObsHub {
            registry: Registry::new(),
            ring: TraceRing::new(DEFAULT_TRACE_RING_CAP),
        }
    }
}

impl ObsHub {
    /// A fresh hub with the default trace-ring capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh shared hub (the shape every server holds).
    pub fn shared() -> Arc<ObsHub> {
        Arc::new(Self::new())
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The per-process trace ring.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Render the whole hub as Prometheus-style exposition text: every
    /// metric family, then the recent trace spans as `# trace` comment
    /// lines (comments per the text format, so standard scrapers ignore
    /// them while humans and tests read the stage breakdowns).
    pub fn render(&self) -> String {
        let mut out = self.registry.render();
        self.ring.render_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_render_combines_metrics_and_traces() {
        let hub = ObsHub::new();
        hub.registry().counter("x_total").add(3);
        hub.ring().record(7, Stage::Admission, 10, 5);
        let text = hub.render();
        assert!(text.contains("# TYPE x_total counter"));
        assert!(text.contains("x_total 3"));
        assert!(text.contains("# trace"));
        assert!(text.contains("stage=admission"));
    }

    #[test]
    fn empty_hub_renders_empty_exposition() {
        let hub = ObsHub::new();
        assert_eq!(hub.render(), "");
    }
}
