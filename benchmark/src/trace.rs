//! Outside-in tracing: spans recorded by the harness around each call into a
//! product layer, kept in memory and written out when the run ends.
//!
//! A span is `{name, start, end, parent, op}`. `name` is `<layer>.<call>`
//! where the layer is the crate the call goes into (`core.train_batch`,
//! `serve.predict_any`, ...) or `bench.*` for the harness's own work; `op`
//! ties the spans of one operation (a batch, a request) together. A layer's
//! self time is its span minus the part its children cover.
//!
//! With tracing off every call is a branch on a bool; end-to-end numbers
//! always come from an untraced run.

use crate::harness::Args;
use crate::probe::PhaseClock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; `NONE` when tracing is off or for the root.
pub type SpanId = u32;
/// "No span": the parent of the root, and every id while tracing is off.
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    op: u64,
}

/// The in-memory span store shared by every thread of a run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, seconds.
    pub total_s: f64,
    /// Sum of their self times (duration minus child cover), seconds.
    pub self_s: f64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores everything.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock: a recorder panicked");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        (spans.len() - 1) as SpanId
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock: a recorder panicked");
        spans[id as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Record a finished span whose ends were taken with [`Instant::now`].
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            parent,
            op,
        };
        self.spans
            .lock()
            .expect("tracer lock: a recorder panicked")
            .push(span);
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("tracer lock: a recorder panicked")
            .len()
    }

    /// Per-name count, total and self time over everything recorded.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans.lock().expect("tracer lock: a recorder panicked");
        let cover = child_cover_ns(&spans);
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, c) in spans.iter().zip(&cover) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(*c) as f64 * 1e-9;
        }
        out
    }

    /// Share of span `id`'s duration that none of its children cover.
    pub fn uncovered_share(&self, id: SpanId) -> f64 {
        if id == NONE {
            return 0.0;
        }
        let spans = self.spans.lock().expect("tracer lock: a recorder panicked");
        let s = spans[id as usize];
        let dur = (s.end_ns - s.start_ns).max(1);
        let cover = child_cover_ns(&spans)[id as usize];
        1.0 - cover.min(dur) as f64 / dur as f64
    }

    /// Write the per-name totals, the probe-paired chunks of each phase
    /// (`[seconds, probe rate before, probe rate after]`) and every span as
    /// JSON.
    pub fn write_json(
        &self,
        path: &Path,
        args: &Args,
        phases: &[(&'static str, f64, PhaseClock)],
    ) -> std::io::Result<()> {
        let totals = self.totals();
        let spans = self.spans.lock().expect("tracer lock: a recorder panicked");
        let mut out = String::with_capacity(spans.len() * 72 + 65536);
        let _ = write!(
            out,
            "{{\"workload\":\"{}\",\"seed\":{},\"unit\":\"ns since run start\",\"phases\":[",
            args.workload, args.seed
        );
        for (i, (name, sensitivity, clock)) in phases.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{name}\",\"sensitivity\":{sensitivity},\"chunks\":{:?}}}",
                if i == 0 { "" } else { "," },
                clock.chunks
            );
        }
        out.push_str("],\n\"totals\":{");
        for (i, (name, t)) in totals.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\":{{\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                if i == 0 { "" } else { "," },
                t.count,
                t.total_s,
                t.self_s
            );
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 == spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// For every span, the nanoseconds of its interval covered by the union of
/// its direct children (children on other threads may overlap each other).
fn child_cover_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    children
        .into_iter()
        .map(|mut iv| {
            iv.sort_unstable();
            let (mut cover, mut reach) = (0u64, 0u64);
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    cover += b - a;
                    reach = b;
                }
            }
            cover
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let spans = [
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: NONE,
                op: 0,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                op: 1,
            },
            // Overlaps `a` (another thread) and sticks out past the root.
            Span {
                name: "b",
                start_ns: 30,
                end_ns: 120,
                parent: 0,
                op: 2,
            },
            Span {
                name: "c",
                start_ns: 12,
                end_ns: 20,
                parent: 1,
                op: 1,
            },
        ];
        assert_eq!(child_cover_ns(&spans), vec![90, 8, 0, 0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open("x", NONE, 0);
        assert_eq!(id, NONE);
        t.close(id);
        t.span("y", id, 0, || ());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn uncovered_share_of_the_root() {
        let t = Tracer::new(true);
        let root = t.open("run", NONE, 0);
        let now = Instant::now();
        t.record("child", root, 0, now, now);
        t.close(root);
        assert!(t.uncovered_share(root) > 0.99);
        assert_eq!(t.totals()["child"].count, 1);
    }
}
