//! Parallelism-substrate benchmark: the persistent worker pool's dispatch
//! latency against per-batch thread spawning (why SLIDE keeps OpenMP-style
//! long-lived workers).

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

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
