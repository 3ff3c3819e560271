//! End-to-end training-step benchmarks: one full batch (forward, the
//! row-owned backward and sparse ADAM of both layers) under the naive and
//! optimized runs — the microscopic version of Table 2's per-epoch
//! comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slide_bench::{with_preset_policy, Workload};
use std::time::Duration;

fn bench_train_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("train_batch_amazon_sim");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    g.sample_size(10);

    let w = Workload::Amazon670k;
    let (train, _test) = w.dataset(1);
    let indices: Vec<u32> = (0..w.batch_size() as u32).collect();

    for run in [
        w.run("optimized", &train),
        w.run("optimized_bf16", &train).cpx(),
        w.run("naive", &train).naive(),
    ] {
        // A forced SLIDE_SIMD leg stays forced for the optimized runs.
        with_preset_policy(run.simd, || {
            let mut trainer = run.build();
            g.bench_with_input(BenchmarkId::from_parameter(&run.label), &(), |b, _| {
                b.iter(|| trainer.train_batch(&train, &indices))
            });
        });
    }
    g.finish();
}

fn bench_evaluate(c: &mut Criterion) {
    let mut g = c.benchmark_group("inference");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    g.sample_size(10);

    let w = Workload::Amazon670k;
    let (train, test) = w.dataset(1);
    let mut trainer = w.run("optimized", &train).build();
    trainer.train_epoch(&train, 0);

    g.bench_function("sampled_lsh_200", |b| {
        b.iter(|| trainer.evaluate(&test, 1, slide_core::EvalMode::Sampled, Some(200)))
    });
    g.bench_function("exact_full_200", |b| {
        b.iter(|| trainer.evaluate(&test, 1, slide_core::EvalMode::Exact, Some(200)))
    });
    g.finish();
}

criterion_group!(benches, bench_train_batch, bench_evaluate);
criterion_main!(benches);
