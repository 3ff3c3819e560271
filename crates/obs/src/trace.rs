//! Per-request trace spans: stage taxonomy, trace-id derivation, and the
//! fixed-size per-process span ring.

use parking_lot::Mutex;
use std::time::Instant;

/// The per-hop stages a traced predict request passes through. One request
/// produces at most one span per stage per process: the router records
/// `RouterQueue`/`HedgeWait`, each replica records the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Router: receipt of the frame until the first replica attempt is
    /// dispatched (shed checks, replica pick, connection checkout).
    RouterQueue,
    /// Router: primary dispatch until the hedge attempt launches (recorded
    /// only when a hedge actually fires).
    HedgeWait,
    /// Replica: TCP frame decode/validation until the request is accepted
    /// into the batching queue.
    Admission,
    /// Replica: time spent queued waiting for batch assembly/dispatch.
    BatchWait,
    /// Replica: LSH bucket probe and active-set selection.
    Retrieval,
    /// Replica: input-layer forward plus active-neuron scoring kernels.
    Kernel,
    /// Replica: reply frame encode and socket write/flush.
    Encode,
}

impl Stage {
    /// Stable lowercase name used in exposition text and JSON keys.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::RouterQueue => "router_queue",
            Stage::HedgeWait => "hedge_wait",
            Stage::Admission => "admission",
            Stage::BatchWait => "batch_wait",
            Stage::Retrieval => "retrieval",
            Stage::Kernel => "kernel",
            Stage::Encode => "encode",
        }
    }

    /// All stages in canonical pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::RouterQueue,
        Stage::HedgeWait,
        Stage::Admission,
        Stage::BatchWait,
        Stage::Retrieval,
        Stage::Kernel,
        Stage::Encode,
    ];
}

/// splitmix64 — the same mixer the router's jitter and the serve tier's
/// `query_salt` use. Full-period, cheap, and statistically strong enough
/// that ids derived from sequential request counters don't collide in
/// practice.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a nonzero trace id from a per-process seed and a request
/// counter. Zero is the wire sentinel for "untraced" (a v3 Predict frame
/// with trace id 0 encodes byte-identical to v2), so the derivation maps
/// the rare zero output to 1.
#[inline]
pub fn derive_trace_id(seed: u64, req_id: u64) -> u64 {
    let id = splitmix64(seed ^ splitmix64(req_id));
    if id == 0 {
        1
    } else {
        id
    }
}

/// One recorded stage span. Timestamps are microseconds since the owning
/// ring's epoch (process start), so spans from one process compare
/// directly; cross-process alignment is by stage order, not clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Nonzero trace id this span belongs to.
    pub trace_id: u64,
    /// Pipeline stage.
    pub stage: Stage,
    /// Start, µs since the ring's epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
}

/// A fixed-capacity ring of [`SpanRecord`]s. Bounded memory: once full,
/// new spans overwrite the oldest — recent slow requests stay inspectable,
/// ancient history ages out. Recording an untraced span (`trace_id == 0`)
/// is a no-op, so the hot path costs nothing for the untraced majority.
#[derive(Debug)]
pub struct TraceRing {
    epoch: Instant,
    inner: Mutex<RingInner>,
}

#[derive(Debug)]
struct RingInner {
    spans: Vec<SpanRecord>,
    /// Next write slot once `spans` has reached capacity.
    head: usize,
    cap: usize,
}

impl TraceRing {
    /// A ring holding up to `cap` spans (`cap` ≥ 1 enforced).
    pub fn new(cap: usize) -> Self {
        TraceRing {
            epoch: Instant::now(),
            inner: Mutex::new(RingInner {
                spans: Vec::new(),
                head: 0,
                cap: cap.max(1),
            }),
        }
    }

    /// Microseconds since this ring's epoch — the timebase every span's
    /// `start_us` uses.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record a span. No-op when `trace_id` is 0 (untraced request).
    pub fn record(&self, trace_id: u64, stage: Stage, start_us: u64, dur_us: u64) {
        if trace_id == 0 {
            return;
        }
        let rec = SpanRecord {
            trace_id,
            stage,
            start_us,
            dur_us,
        };
        let mut inner = self.inner.lock();
        if inner.spans.len() < inner.cap {
            inner.spans.push(rec);
        } else {
            let h = inner.head;
            inner.spans[h] = rec;
            inner.head = (h + 1) % inner.cap;
        }
    }

    /// All retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let inner = self.inner.lock();
        let mut out = Vec::with_capacity(inner.spans.len());
        if inner.spans.len() < inner.cap {
            out.extend_from_slice(&inner.spans);
        } else {
            out.extend_from_slice(&inner.spans[inner.head..]);
            out.extend_from_slice(&inner.spans[..inner.head]);
        }
        out
    }

    /// Retained spans for one trace id, oldest first.
    pub fn spans_for(&self, trace_id: u64) -> Vec<SpanRecord> {
        self.snapshot()
            .into_iter()
            .filter(|s| s.trace_id == trace_id)
            .collect()
    }

    /// Append the retained spans to `out` as `# trace` comment lines —
    /// legal Prometheus-text comments that ride along with a scrape.
    pub fn render_into(&self, out: &mut String) {
        for s in self.snapshot() {
            out.push_str(&format!(
                "# trace id={:016x} stage={} start_us={} dur_us={}\n",
                s.trace_id,
                s.stage.as_str(),
                s.start_us,
                s.dur_us
            ));
        }
    }
}

/// Per-call stage timing sample filled in by a model's timed predict path:
/// the three in-kernel stages a `FrozenModel` implementation can attribute
/// (queueing/admission/encode are the caller's to time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSample {
    /// LSH bucket probe / active-set selection time, µs.
    pub retrieval_us: u64,
    /// Dense forward + scoring kernel time, µs.
    pub kernel_us: u64,
    /// Cross-shard merge time, µs: always 0, since retrieval builds one
    /// global active list. The field goes when the benchmark retires
    /// `quant.shard_merge_us`, its one reader.
    pub merge_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn derive_trace_id_is_nonzero_and_spreads() {
        let mut seen = HashSet::new();
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            for req in 0..1000u64 {
                let id = derive_trace_id(seed, req);
                assert_ne!(id, 0);
                seen.insert(id);
            }
        }
        // 3000 derivations, no collisions expected from a 64-bit mixer.
        assert_eq!(seen.len(), 3000);
    }

    #[test]
    fn zero_trace_id_is_not_recorded() {
        let ring = TraceRing::new(8);
        ring.record(0, Stage::Kernel, 1, 1);
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let ring = TraceRing::new(4);
        for i in 1..=10u64 {
            ring.record(i, Stage::Kernel, i * 10, 1);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        let ids: Vec<u64> = snap.iter().map(|s| s.trace_id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
        // Oldest-first ordering preserved across the wrap point.
        assert!(snap.windows(2).all(|w| w[0].start_us < w[1].start_us));
    }

    #[test]
    fn spans_for_filters_by_id() {
        let ring = TraceRing::new(16);
        ring.record(1, Stage::Admission, 0, 5);
        ring.record(2, Stage::Admission, 1, 5);
        ring.record(1, Stage::Kernel, 10, 20);
        let spans = ring.spans_for(1);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Admission);
        assert_eq!(spans[1].stage, Stage::Kernel);
    }

    #[test]
    fn render_lines_are_comments() {
        let ring = TraceRing::new(4);
        ring.record(0xABCD, Stage::Retrieval, 100, 42);
        let mut out = String::new();
        ring.render_into(&mut out);
        assert!(out.starts_with("# trace id=000000000000abcd"));
        assert!(out.contains("stage=retrieval"));
        assert!(out.contains("start_us=100"));
        assert!(out.contains("dur_us=42"));
    }

    #[test]
    fn stage_names_are_stable_and_distinct() {
        let names: HashSet<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(names.len(), Stage::ALL.len());
        assert!(names.contains("router_queue"));
        assert!(names.contains("encode"));
    }

    #[test]
    fn now_us_is_monotone() {
        let ring = TraceRing::new(1);
        let a = ring.now_us();
        let b = ring.now_us();
        assert!(b >= a);
    }
}
