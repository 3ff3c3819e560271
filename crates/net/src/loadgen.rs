//! Open-loop load generation for the network tier.
//!
//! Closed-loop clients (send, wait, send) hide queueing delay: when the
//! server slows down, the offered load politely slows with it and the tail
//! disappears from the measurement (coordinated omission). The generator
//! here is **open-loop**: arrival times are fixed up front on a global
//! schedule (`start + i * interval`) that all client threads pull from a
//! shared atomic counter, so a stalled server faces a growing backlog
//! exactly as a real fleet would, and p99 means what it says.
//!
//! The submitter is abstract (`FnMut(&[u32], &[f32], usize) -> SubmitOutcome`)
//! so the same generator drives an in-process [`slide_serve::BatchingServer`]
//! (the overhead baseline), a single daemon socket, and a router-fronted
//! fleet — the three phases of `net_bench`.

use rand::{rngs::SmallRng, SeedableRng};
use slide_data::{Dataset, Zipf};
use slide_obs::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one submission came back as.
pub enum SubmitOutcome {
    /// Answered with a top-k.
    Ok(Vec<u32>),
    /// Shed by admission control (server or router backpressure).
    RetryLater,
    /// Shed because the request's deadline budget ran out at some hop
    /// (typed `DeadlineExceeded`, distinct from backpressure).
    DeadlineExceeded,
    /// A hard failure: typed server error, transport fault, bad reply.
    HardError(String),
    /// The submitter lost its connection and rebuilt it; the request was
    /// not answered. Counted separately from hard errors so chaos tests can
    /// distinguish "replica died under me" from "wrong answer".
    Reconnected,
}

/// Open-loop run parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Target arrival rate, requests/second (across all clients).
    pub offered_qps: f64,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Concurrent client threads pulling from the shared schedule.
    pub clients: usize,
    /// Top-k width per query.
    pub k: usize,
    /// Zipf exponent for query selection over the test set.
    pub zipf_exponent: f64,
    /// RNG seed for query selection.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            offered_qps: 500.0,
            duration: Duration::from_millis(1500),
            clients: 4,
            k: 5,
            zipf_exponent: 0.9,
            seed: 0x10AD,
        }
    }
}

/// Aggregate results of one open-loop run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests submitted.
    pub sent: u64,
    /// Answered with a top-k.
    pub ok: u64,
    /// Shed with retry-later.
    pub retry_later: u64,
    /// Shed with a typed deadline-exceeded.
    pub deadline_exceeded: u64,
    /// Hard failures (typed errors, transport faults, bad replies).
    pub hard_errors: u64,
    /// Connection rebuilds observed by submitters.
    pub reconnects: u64,
    /// Latency in µs over the `ok` responses (request submitted → answer in
    /// hand).
    pub latency: HistogramSnapshot,
    /// The configured arrival rate.
    pub offered_qps: f64,
    /// `ok / elapsed` — what actually got through.
    pub achieved_qps: f64,
    /// Wall-clock elapsed.
    pub duration: Duration,
}

impl LoadReport {
    /// Fraction of sent requests that were shed.
    pub fn shed_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.retry_later as f64 / self.sent as f64
        }
    }

    /// Render as a JSON object fragment (one phase of `BENCH_net.json`,
    /// labelled `mode`).
    pub fn to_json(&self, mode: &str) -> String {
        format!(
            "{{\"mode\":\"{mode}\",\"sent\":{},\"ok\":{},\"retry_later\":{},\
             \"deadline_exceeded\":{},\"hard_errors\":{},\"reconnects\":{},\"shed_rate\":{:.4},\
             \"offered_qps\":{:.1},\"achieved_qps\":{:.1},\"elapsed_ms\":{},\
             \"latency_us\":{{\"p50\":{},\"p99\":{},\"mean\":{:.1},\"max\":{},\"samples\":{}}}}}",
            self.sent,
            self.ok,
            self.retry_later,
            self.deadline_exceeded,
            self.hard_errors,
            self.reconnects,
            self.shed_rate(),
            self.offered_qps,
            self.achieved_qps,
            self.duration.as_millis(),
            self.latency.quantile(50.0),
            self.latency.quantile(99.0),
            self.latency.mean(),
            self.latency.max,
            self.latency.count,
        )
    }
}

struct ClientTally {
    sent: u64,
    ok: u64,
    retry_later: u64,
    deadline_exceeded: u64,
    hard_errors: u64,
    reconnects: u64,
}

/// Run an open-loop load test.
///
/// `make_submitter(client_id)` builds one submitter per client thread (for
/// sockets: one connection each). Queries are drawn Zipf-distributed from
/// `queries` (a pre-extracted `(indices, values)` battery, typically a
/// dataset's test split).
pub fn run_open_loop<S, F>(
    queries: &[(Vec<u32>, Vec<f32>)],
    cfg: &LoadgenConfig,
    make_submitter: F,
) -> LoadReport
where
    S: FnMut(&[u32], &[f32], usize) -> SubmitOutcome + Send,
    F: Fn(usize) -> S + Sync,
{
    assert!(!queries.is_empty(), "loadgen needs at least one query");
    assert!(cfg.clients > 0, "loadgen needs at least one client");
    let interval = Duration::from_secs_f64(1.0 / cfg.offered_qps.max(1.0));
    let total: u64 = (cfg.duration.as_secs_f64() * cfg.offered_qps).ceil() as u64;
    let arrivals = Arc::new(AtomicU64::new(0));
    let latency = Histogram::default();
    let start = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|client_id| {
                let arrivals = Arc::clone(&arrivals);
                let make_submitter = &make_submitter;
                let latency = &latency;
                scope.spawn(move || {
                    let mut submit = make_submitter(client_id);
                    let zipf = Zipf::new(queries.len(), cfg.zipf_exponent);
                    let mut rng = SmallRng::seed_from_u64(
                        cfg.seed ^ (client_id as u64).wrapping_mul(0x9E37_79B9),
                    );
                    let mut tally = ClientTally {
                        sent: 0,
                        ok: 0,
                        retry_later: 0,
                        deadline_exceeded: 0,
                        hard_errors: 0,
                        reconnects: 0,
                    };
                    loop {
                        let i = arrivals.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        // Open loop: wait until this arrival's scheduled
                        // instant, however far behind the server is.
                        let due = start + interval.mul_f64(i as f64);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let q = zipf.sample(&mut rng);
                        let (ref indices, ref values) = queries[q % queries.len()];
                        let t0 = Instant::now();
                        tally.sent += 1;
                        match submit(indices, values, cfg.k) {
                            SubmitOutcome::Ok(_) => {
                                tally.ok += 1;
                                latency.record(t0.elapsed().as_micros() as u64);
                            }
                            SubmitOutcome::RetryLater => tally.retry_later += 1,
                            SubmitOutcome::DeadlineExceeded => tally.deadline_exceeded += 1,
                            SubmitOutcome::HardError(_) => tally.hard_errors += 1,
                            SubmitOutcome::Reconnected => tally.reconnects += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut report = LoadReport {
        sent: 0,
        ok: 0,
        retry_later: 0,
        deadline_exceeded: 0,
        hard_errors: 0,
        reconnects: 0,
        latency: latency.snapshot(),
        offered_qps: cfg.offered_qps,
        achieved_qps: 0.0,
        duration: elapsed,
    };
    for t in tallies {
        report.sent += t.sent;
        report.ok += t.ok;
        report.retry_later += t.retry_later;
        report.deadline_exceeded += t.deadline_exceeded;
        report.hard_errors += t.hard_errors;
        report.reconnects += t.reconnects;
    }
    report.achieved_qps = report.ok as f64 / elapsed.as_secs_f64().max(1e-9);
    report
}

/// Extract a query battery (`(indices, values)` pairs) from a dataset's
/// samples — the common prep step for every load phase.
pub fn query_battery(data: &Dataset, limit: usize) -> Vec<(Vec<u32>, Vec<f32>)> {
    (0..data.len().min(limit))
        .map(|i| {
            let x = data.features(i);
            (x.indices.to_vec(), x.values.to_vec())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_counts_every_arrival_exactly_once() {
        let queries = vec![(vec![1u32, 2], vec![0.5f32, 0.25])];
        let cfg = LoadgenConfig {
            offered_qps: 2000.0,
            duration: Duration::from_millis(100),
            clients: 3,
            ..Default::default()
        };
        let report = run_open_loop(&queries, &cfg, |_| {
            |_i: &[u32], _v: &[f32], _k: usize| SubmitOutcome::Ok(vec![0])
        });
        let expected = (cfg.duration.as_secs_f64() * cfg.offered_qps).ceil() as u64;
        assert_eq!(report.sent, expected);
        assert_eq!(report.ok, expected);
        assert_eq!(report.hard_errors, 0);
        assert_eq!(report.latency.count, expected);
        assert!(report.to_json("inproc").contains("\"mode\":\"inproc\""));
    }

    #[test]
    fn shed_rate_reflects_retry_later_fraction() {
        let queries = vec![(vec![3u32], vec![1.0f32])];
        let cfg = LoadgenConfig {
            offered_qps: 1000.0,
            duration: Duration::from_millis(100),
            clients: 1,
            ..Default::default()
        };
        let report = run_open_loop(&queries, &cfg, |_| {
            let mut n = 0u64;
            move |_i: &[u32], _v: &[f32], _k: usize| {
                n += 1;
                if n.is_multiple_of(2) {
                    SubmitOutcome::RetryLater
                } else {
                    SubmitOutcome::Ok(vec![1])
                }
            }
        });
        assert!(report.retry_later > 0);
        assert!((report.shed_rate() - 0.5).abs() < 0.1);
        let json = report.to_json("socket1");
        assert!(json.contains("\"shed_rate\":"));
        assert!(json.contains("\"retry_later\":"));
    }
}
