//! Host-speed probe and the paired normalisation built on it.
//!
//! The host this benchmark runs on gets slower and faster by tens of percent
//! between back-to-back processes (noisy neighbours: CPU time tracks wall
//! time, so the process is not descheduled — the machine itself slows down).
//! Longer runs and medians of windows do not remove that. What does is
//! measuring, right next to every timed chunk of product work, how fast the
//! host currently runs a fixed piece of work that no product change can
//! touch, and scaling the chunk's time by it.
//!
//! This module is plain safe Rust and calls nothing from the product crates,
//! so no product PR can move it.

use std::hint::black_box;
use std::time::Instant;

/// Rows in the probe table.
pub const PROBE_ROWS: usize = 131_072;
/// Width of one probe row (the paper's hidden width; 512 bytes).
pub const PROBE_COLS: usize = 128;
/// A run whose probe rates vary by more than this (coefficient of variation)
/// is flagged as disturbed.
pub const DISTURBED_CV: f64 = 0.25;

/// What a probe slice does with each gathered row. Training also writes
/// every row it touches (gradients, ADAM moments), serving only reads, so
/// each is paired with the slice kind that shares its memory behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dot product only: the read-only pattern of active-set scoring.
    Read,
    /// Dot product, then `row += a·x`: the read-modify-write pattern of the
    /// backward pass and the optimizer.
    Update,
}

impl Kind {
    /// Probe rate of the quiet reference host, rows per second. Normalised
    /// times read as "seconds on a host whose probe runs at this rate".
    pub const fn reference_rows_per_s(self) -> f64 {
        match self {
            Kind::Read => 5.0e6,
            Kind::Update => 3.0e6,
        }
    }
}

/// The probe slice a phase pairs its timed chunks with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// What the slice does with each row.
    pub kind: Kind,
    /// Rows per slice.
    pub rows: usize,
    /// How much of the probe's slow-down the phase shares: the exponent on
    /// the relative probe rate. 1 would be "slows exactly as the probe
    /// does"; the measured log-log slopes differ by phase (a phase bound by
    /// memory bandwidth over a working set near the shared L3 slows almost
    /// twice as much as the probe, the f32 engine with its software prefetch
    /// and Zipf-hot rows about half as much), and using 1 everywhere left
    /// 10–14 % run-to-run spread where the fitted value leaves 4–8 %. On the
    /// reference host the rate is 1 and the exponent changes nothing. The
    /// values are recalibrated with `calibrate.sh` (see README.md).
    pub sensitivity: f64,
}

/// Set-up stages: data generation, network init, snapshot build/save/load.
pub const SETUP_SLICE: Slice = Slice {
    kind: Kind::Update,
    rows: 20_000,
    sensitivity: 1.25,
};
/// Exact scoring of every output row (the evaluation pass).
pub const EVAL_SLICE: Slice = Slice {
    kind: Kind::Read,
    rows: 4_000,
    sensitivity: 0.5,
};

/// A 64 MiB f32 table gathered row by row in LCG order: the same memory
/// behaviour as the paper's active-set kernels (random 512-byte rows out of
/// a table far larger than any cache), with none of their code.
pub struct Probe {
    table: Vec<f32>,
    x: [f32; PROBE_COLS],
    lcg: u64,
    checksum: f64,
    rates: Vec<f64>,
}

/// Dot of one row with `x`: sixteen independent accumulators, so the
/// compiler vectorises it without reassociating a single serial sum.
#[inline(always)]
fn dot(row: &[f32], x: &[f32; PROBE_COLS]) -> f32 {
    let mut acc = [0.0_f32; 16];
    for (w, x) in row.chunks_exact(16).zip(x.chunks_exact(16)) {
        for j in 0..16 {
            acc[j] += w[j] * x[j];
        }
    }
    acc.iter().sum()
}

impl Probe {
    /// Build the table. Takes no seed: the probe is identical in every run.
    pub fn new() -> Self {
        let mut s = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((s >> 40) as f32) * (1.0 / (1u64 << 24) as f32) - 0.5
        };
        let table = (0..PROBE_ROWS * PROBE_COLS).map(|_| next()).collect();
        let mut x = [0.0; PROBE_COLS];
        x.iter_mut().for_each(|v| *v = next());
        Probe {
            table,
            x,
            lcg: 1,
            checksum: 0.0,
            rates: Vec::new(),
        }
    }

    fn next_row(&mut self) -> usize {
        self.lcg = self
            .lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.lcg >> 33) as usize % PROBE_ROWS * PROBE_COLS
    }

    /// Gather `rows` rows and return the rate relative to the kind's
    /// reference: 1.0 on the quiet reference host, 0.7 on a host running the
    /// probe at 0.7× its speed.
    pub fn slice(&mut self, kind: Kind, rows: usize) -> f64 {
        let t0 = Instant::now();
        let mut sum = 0.0_f32;
        match kind {
            Kind::Read => {
                for _ in 0..rows {
                    let o = self.next_row();
                    sum += dot(&self.table[o..o + PROBE_COLS], &self.x);
                }
            }
            Kind::Update => {
                for _ in 0..rows {
                    let o = self.next_row();
                    let row = &mut self.table[o..o + PROBE_COLS];
                    let d = dot(row, &self.x);
                    sum += d;
                    // Small enough that the table never drifts out of range.
                    let a = d * 1e-6;
                    for (w, x) in row.iter_mut().zip(&self.x) {
                        *w += a * x;
                    }
                }
            }
        }
        self.checksum += f64::from(black_box(sum));
        let rate = rows as f64 / t0.elapsed().as_secs_f64().max(1e-9) / kind.reference_rows_per_s();
        self.rates.push(rate);
        rate
    }

    /// Sum of every dot computed so far (depends only on which slices ran).
    pub fn checksum(&self) -> f64 {
        self.checksum
    }

    /// Mean of all slice rates so far, relative to the reference host.
    pub fn mean_rate(&self) -> f64 {
        mean(&self.rates)
    }

    /// Coefficient of variation of the slice rates so far.
    pub fn cv(&self) -> f64 {
        let m = mean(&self.rates);
        if self.rates.len() < 2 || m <= 0.0 {
            return 0.0;
        }
        let var = self.rates.iter().map(|r| (r - m).powi(2)).sum::<f64>() / self.rates.len() as f64;
        var.sqrt() / m
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Normalise one timed chunk by the relative probe rates measured right
/// before and right after it: `t × mean(before, after) ^ sensitivity`. A host
/// on which this phase runs at 0.7× takes 1/0.7 as long, so the product is
/// what the quiet reference host would have taken.
pub fn normalise(t_chunk_s: f64, probe_before: f64, probe_after: f64, sensitivity: f64) -> f64 {
    t_chunk_s * (0.5 * (probe_before + probe_after)).powf(sensitivity)
}

/// Raw and normalised seconds of one timed chunk.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Wall seconds inside the chunk.
    pub raw_s: f64,
    /// The same, normalised by the chunk's probe pair.
    pub norm_s: f64,
}

/// Raw and normalised time summed over the chunks of one phase, with the
/// chunks themselves (`[seconds, rate before, rate after]`) kept for the
/// trace file, from which `calibrate.sh` refits the sensitivities.
#[derive(Debug, Clone, Default)]
pub struct PhaseClock {
    /// Wall seconds inside the chunks (probe slices excluded).
    pub raw_s: f64,
    /// The same, each chunk normalised by its probe pair.
    pub norm_s: f64,
    /// Every chunk added so far.
    pub chunks: Vec<[f64; 3]>,
}

impl PhaseClock {
    /// Add one chunk.
    pub fn add(&mut self, t_chunk_s: f64, before: f64, after: f64, sensitivity: f64) -> Timing {
        let timing = Timing {
            raw_s: t_chunk_s,
            norm_s: normalise(t_chunk_s, before, after, sensitivity),
        };
        self.raw_s += timing.raw_s;
        self.norm_s += timing.norm_s;
        self.chunks.push([t_chunk_s, before, after]);
        timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_source_calls_nothing_from_the_product() {
        let src = include_str!("probe.rs");
        let needle = ["slide", "_"].concat();
        assert!(
            !src.contains(&needle),
            "probe.rs must not reference any product crate"
        );
    }

    #[test]
    fn checksum_is_fixed_and_takes_no_seed() {
        let mut a = Probe::new();
        let mut b = Probe::new();
        for p in [&mut a, &mut b] {
            p.slice(Kind::Read, 2_000);
            p.slice(Kind::Update, 1_000);
        }
        assert_eq!(a.checksum().to_bits(), b.checksum().to_bits());
        assert_ne!(a.checksum(), 0.0);
    }

    #[test]
    fn normalising_a_slowed_host_recovers_the_quiet_rate() {
        // A quiet host does 1000 units of work per chunk in 10 ms and probes
        // at the reference rate (1.0). On the slowed host the probe runs at
        // 0.7×, drifting a little from chunk to chunk, and a phase of
        // sensitivity `s` runs at `0.7^s`.
        for s in [0.5, 1.0, 2.0] {
            let work_per_chunk = 1000.0;
            let quiet_chunk_s = 0.010;
            let mut quiet = PhaseClock::default();
            let mut slow = PhaseClock::default();
            for i in 0..200 {
                let probe = 0.7 + 0.02 * ((i % 7) as f64 - 3.0) / 3.0;
                quiet.add(quiet_chunk_s, 1.0, 1.0, s);
                slow.add(quiet_chunk_s / probe.powf(s), probe, probe, s);
            }
            let quiet_rate = work_per_chunk * 200.0 / quiet.norm_s;
            let slow_raw_rate = work_per_chunk * 200.0 / slow.raw_s;
            let slow_norm_rate = work_per_chunk * 200.0 / slow.norm_s;
            assert!((slow_raw_rate / quiet_rate - 0.7_f64.powf(s)).abs() < 0.02);
            assert!((slow_norm_rate / quiet_rate - 1.0).abs() < 0.01);
            assert_eq!(slow.chunks.len(), 200);
        }
    }
}
