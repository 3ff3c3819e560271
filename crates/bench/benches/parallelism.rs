//! Parallelism-substrate benchmarks: the persistent worker pool's dispatch
//! latency against per-batch thread spawning (why SLIDE keeps OpenMP-style
//! long-lived workers), and dynamic-cursor load balancing over skewed work.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use slide_core::ThreadPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("pool_dispatch");
    g.measurement_time(Duration::from_secs(1));
    g.warm_up_time(Duration::from_millis(300));
    g.sample_size(20);
    // 1 and 2 are the gated training workloads' thread counts; 8
    // oversubscribes a small host.
    for workers in [1, 2, 8] {
        let pool = ThreadPool::new(workers);
        g.bench_function(BenchmarkId::new("persistent_pool_run", workers), |b| {
            let counter = AtomicUsize::new(0);
            b.iter(|| {
                pool.run(&|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
                black_box(counter.load(Ordering::Relaxed))
            })
        });
        g.bench_function(BenchmarkId::new("spawn_scoped_threads", workers), |b| {
            let counter = AtomicUsize::new(0);
            b.iter(|| {
                std::thread::scope(|s| {
                    for _ in 0..workers {
                        s.spawn(|| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
                black_box(counter.load(Ordering::Relaxed))
            })
        });
    }
    g.finish();
}

fn bench_parallel_for(c: &mut Criterion) {
    let mut g = c.benchmark_group("pool_parallel_for");
    g.measurement_time(Duration::from_secs(1));
    g.warm_up_time(Duration::from_millis(300));
    g.sample_size(15);
    let pool = ThreadPool::new(8);
    // Skewed per-item cost, like SLIDE's variable active-set sizes.
    let work = |i: usize| {
        let n = 100 + (i % 37) * 50;
        let mut acc = 0.0f32;
        for j in 0..n {
            acc += (j as f32).sqrt();
        }
        acc
    };
    g.bench_function("dynamic_grain16_1024_items", |b| {
        b.iter(|| {
            let sink = AtomicUsize::new(0);
            pool.parallel_for(1024, 16, &|i| {
                sink.fetch_add(work(i) as usize, Ordering::Relaxed);
            });
            black_box(sink.load(Ordering::Relaxed))
        })
    });
    g.bench_function("serial_1024_items", |b| {
        b.iter(|| {
            let mut sink = 0usize;
            for i in 0..1024 {
                sink += work(i) as usize;
            }
            black_box(sink)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_dispatch, bench_parallel_for);
criterion_main!(benches);
