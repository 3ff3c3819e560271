//! What every workload shares: the run context (probe, tracer, report), the
//! paired-probe timing helper, checks, and small statistics.

use crate::probe::{Kind, PhaseClock, Probe, Slice, Timing, DISTURBED_CV, SETUP_SLICE};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::trace::{SpanId, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Times a set-up is performed per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated inputs (datasets, batch order, query order).
    pub seed: u64,
    /// Seconds of fixed work on the reference host.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Where trace files and snapshots go.
    pub out_dir: PathBuf,
}

/// Metric values and check counts of one run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    first_failures: Vec<String>,
}

impl Report {
    /// Set a metric of either table.
    ///
    /// # Panics
    ///
    /// Panics on a name `spec` does not list: that is a bug in the harness.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::unit_of(name).is_some(),
            "metric {name} is not in spec.rs"
        );
        self.values.insert(name, value);
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(what());
            }
        }
    }

    /// Count `attempted` checked operations of which `failed` failed.
    pub fn check_many(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.first_failures.len() < 8 {
            self.first_failures
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    /// Checked operations passed / attempted.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Print every metric of the run's table as `name value unit`, then the
    /// result object as the last line. Returns whether the run was correct.
    pub fn emit(&self, trace: bool) -> bool {
        let names: Vec<&'static str> = if trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut json = String::new();
        for (i, name) in names.iter().enumerate() {
            let unit = spec::unit_of(name).expect("listed metric");
            // A per-layer metric that does not apply to this workload reads
            // 0; a missing end-to-end metric is a harness bug.
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => {
                    eprintln!("BUG: end-to-end metric {name} was not measured");
                    correct = false;
                    0.0
                }
            };
            if !value.is_finite() {
                eprintln!("BUG: metric {name} is not finite");
                correct = false;
            }
            println!("{name} {value} {unit}");
            json.push_str(&format!(
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                if value.is_finite() { value } else { 0.0 },
            ));
        }
        for f in &self.first_failures {
            eprintln!("CHECK FAILED: {f}");
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

/// The probe plus the rate of its latest slice, which doubles as the
/// "before" rate of the next timed chunk.
pub struct Host {
    /// Host-speed probe.
    pub probe: Probe,
    last: (Kind, f64),
}

impl Host {
    /// Take a probe slice (after untimed work, so the next chunk's "before"
    /// rate is fresh). Returns the rate relative to the reference host.
    pub fn slice(&mut self, tracer: &Tracer, root: SpanId, slice: Slice) -> f64 {
        let probe = &mut self.probe;
        let rate = tracer.span("bench.probe", root, 0, || {
            probe.slice(slice.kind, slice.rows)
        });
        self.last = (slice.kind, rate);
        rate
    }

    /// Run `f` as one timed chunk between two probe slices of `slice`'s kind
    /// (the one before it is the slice that closed the previous chunk) and
    /// add it to `clock`.
    pub fn paired<T>(
        &mut self,
        tracer: &Tracer,
        root: SpanId,
        clock: &mut PhaseClock,
        slice: Slice,
        f: impl FnOnce() -> T,
    ) -> (T, Timing) {
        let before = if self.last.0 == slice.kind {
            self.last.1
        } else {
            self.slice(tracer, root, slice)
        };
        let t0 = Instant::now();
        let out = f();
        let t = t0.elapsed().as_secs_f64();
        let after = self.slice(tracer, root, slice);
        (out, clock.add(t, before, after, slice.sensitivity))
    }
}

/// The state of one run. Fields are borrowed separately: a timed closure
/// records spans through `tracer` while `host` is borrowed mutably.
pub struct Ctx {
    /// The run's arguments.
    pub args: Args,
    /// Span store (records nothing on an untraced run).
    pub tracer: Tracer,
    /// The span covering the whole run.
    pub root: SpanId,
    /// Probe state.
    pub host: Host,
    /// Metrics and checks.
    pub report: Report,
    /// The probe-paired chunks of each finished phase, for the trace file.
    pub phases: Vec<(&'static str, f64, PhaseClock)>,
}

impl Ctx {
    /// Start a run: builds the probe table and takes the first slice.
    pub fn new(args: Args) -> Self {
        let tracer = Tracer::new(args.trace);
        let root = tracer.open("bench.run", crate::trace::NONE, 0);
        let probe = tracer.span("bench.probe_init", root, 0, Probe::new);
        let mut host = Host {
            probe,
            last: (SETUP_SLICE.kind, 0.0),
        };
        host.slice(&tracer, root, SETUP_SLICE);
        Ctx {
            args,
            tracer,
            root,
            host,
            report: Report::default(),
            phases: Vec::new(),
        }
    }

    /// Keep a finished phase's chunks for the trace file.
    pub fn keep_phase(&mut self, name: &'static str, slice: Slice, clock: PhaseClock) {
        if self.args.trace {
            self.phases.push((name, slice.sensitivity, clock));
        }
    }

    /// `n` units of fixed work at the reference run length, scaled to
    /// `--seconds` (at least 1).
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.args.seconds / spec::RUN_SECONDS as f64).round() as usize).max(1)
    }

    /// Close the run: host metrics, memory, ok_share, the trace file, the
    /// printed report. Returns whether the run was correct.
    pub fn finish(mut self) -> bool {
        let disturbed = self.host.probe.cv() > DISTURBED_CV;
        if self.args.trace {
            self.report
                .set("host.probe_rate_vs_ref", self.host.probe.mean_rate());
            self.report.set("host.probe_cv", self.host.probe.cv());
            self.report
                .set("host.disturbed", f64::from(u8::from(disturbed)));
            self.tracer.close(self.root);
            self.report.set(
                "trace.unaccounted_share",
                self.tracer.uncovered_share(self.root),
            );
            self.report.set("trace.spans", self.tracer.len() as f64);
            let path = self
                .args
                .out_dir
                .join(format!("{}.trace.json", self.args.workload));
            if let Err(e) = self.tracer.write_json(&path, &self.args, &self.phases) {
                eprintln!("cannot write {}: {e}", path.display());
                self.report.check(false, || "trace file written".into());
            }
        } else {
            self.report.set("peak_rss_mib", peak_rss_mib());
            let ok = self.report.ok_share();
            self.report.set("ok_share", ok);
        }
        let raw = |name| self.report.values.get(name).copied().unwrap_or(0.0);
        eprintln!(
            "{}: probe {:.4} x ref (cv {:.3}{}, checksum {:.3}); raw: setup_s {:.4} work_per_s {:.5} \
             op_p50_us {:.5}; checks {}/{}",
            self.args.workload,
            self.host.probe.mean_rate(),
            self.host.probe.cv(),
            if disturbed { " DISTURBED" } else { "" },
            self.host.probe.checksum(),
            raw("setup_s.raw"),
            raw("work_per_s.raw"),
            raw("op_p50_us.raw"),
            self.report.attempted - self.report.failed,
            self.report.attempted,
        );
        self.report.emit(self.args.trace)
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hand the allocator's freed pages back to the OS. Called after each set-up
/// repeat drops what it built: glibc otherwise keeps the freed 80 MiB of a
/// snapshot build (or a whole trainer) in some runs and not in others, and
/// `VmHWM` of identical runs then reads 474, 531, 544 or 558 MiB. With the
/// trim, `peak_rss_mib` is the largest *live* footprint of one set-up.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be called
        // at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Nearest-rank percentile (`q` in 0..=100) of an unsorted sample; 0 if empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the middle pair for an even count); 0 if empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// splitmix64: the benchmark's own generator for batch and query order, so
/// inputs depend on `--seed` and on nothing in the product.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over `0..n` by inverse CDF: hot queries repeat, as real traffic
/// does, so the engine sees a mix of cache-warm and cold rows.
#[derive(Debug, Clone)]
pub struct ZipfOrder {
    cdf: Vec<f64>,
}

impl ZipfOrder {
    /// Zipf with exponent `s` over `n` items.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        cdf.iter_mut().for_each(|c| *c /= acc);
        ZipfOrder { cdf }
    }

    /// Draw one item.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Whether `ids` are `k` distinct labels below `label_dim`.
pub fn valid_topk(ids: &[u32], k: usize, label_dim: usize) -> bool {
    ids.len() == k
        && ids.iter().all(|&l| (l as usize) < label_dim)
        && ids.iter().enumerate().all(|(i, l)| !ids[..i].contains(l))
}

/// `|a ∩ b| / k`.
pub fn overlap(a: &[u32], b: &[u32], k: usize) -> f64 {
    a.iter().filter(|l| b.contains(l)).count() as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_median() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn zipf_is_seeded_and_head_heavy() {
        let z = ZipfOrder::new(1000, 0.9);
        let draw = |seed| {
            let mut rng = SplitMix(seed);
            (0..5000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let d = draw(7);
        assert!(d.iter().all(|&i| i < 1000));
        let head = d.iter().filter(|&&i| i < 10).count();
        let tail = d.iter().filter(|&&i| i >= 990).count();
        assert!(head > 10 * tail.max(1));
    }

    #[test]
    fn topk_validity_and_overlap() {
        assert!(valid_topk(&[1, 2, 3], 3, 4));
        assert!(!valid_topk(&[1, 2, 2], 3, 4));
        assert!(!valid_topk(&[1, 2, 4], 3, 4));
        assert!(!valid_topk(&[1, 2], 3, 4));
        assert_eq!(overlap(&[1, 2, 3, 4, 5], &[5, 4, 9, 8, 7], 5), 0.4);
    }

    #[test]
    fn report_counts_checks() {
        let mut r = Report::default();
        r.check(true, || unreachable!());
        r.check(false, || "x".into());
        r.check_many(8, 0, "y");
        assert_eq!(r.ok_share(), 0.9);
    }
}
