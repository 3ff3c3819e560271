//! LSH micro-benchmarks: DWTA (vectorized vs scalar, §4.3.3), SimHash, and
//! table operations at SLIDE's operating point (hash a 128-dim activation,
//! build and query L tables, rehash all neurons).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use slide_hash::{DwtaConfig, DwtaHash, LshTables, SimHash, SimHashConfig};
use slide_simd::{set_policy, SimdLevel, SimdPolicy};
use std::time::Duration;

fn activation(dim: usize) -> Vec<f32> {
    (0..dim).map(|i| (i as f32 * 0.41).sin().max(0.0)).collect()
}

fn bench_dwta(c: &mut Criterion) {
    let mut g = c.benchmark_group("dwta_keys_dense_128d");
    g.measurement_time(Duration::from_millis(800));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(20);
    let h = DwtaHash::new(DwtaConfig {
        dim: 128,
        key_bits: 6,
        tables: 24,
        bin_size: 16,
        seed: 1,
    });
    let x = activation(128);
    let mut scratch = h.make_scratch();
    let mut keys = vec![0u32; 24];
    for (name, policy) in [
        ("scalar", SimdPolicy::Force(SimdLevel::Scalar)),
        ("vectorized", SimdPolicy::Auto),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &policy, |b, &p| {
            set_policy(p);
            b.iter(|| h.keys_dense(black_box(&x), &mut scratch, &mut keys));
            set_policy(SimdPolicy::Auto);
        });
    }
    g.finish();
}

fn bench_simhash(c: &mut Criterion) {
    let mut g = c.benchmark_group("simhash_keys");
    g.measurement_time(Duration::from_millis(800));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(20);
    let h = SimHash::new(SimHashConfig {
        dim: 200,
        key_bits: 9,
        tables: 25,
        seed: 2,
    });
    let x = activation(200);
    let mut scratch = h.make_scratch();
    let mut keys = vec![0u32; 25];
    g.bench_function("dense_200d_k9_l25", |b| {
        b.iter(|| h.keys_dense(black_box(&x), &mut scratch, &mut keys))
    });
    g.finish();
}

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("lsh_tables");
    g.measurement_time(Duration::from_millis(800));
    g.warm_up_time(Duration::from_millis(200));
    g.sample_size(20);
    let l = 24;
    let keys: Vec<u32> = (0..l as u32).map(|t| (t * 13) % 64).collect();

    let all_keys: Vec<u32> = (0..8192u32)
        .flat_map(|id| {
            (0..l as u64).map(move |t| (slide_hash::mix::mix2(t, id as u64) % 64) as u32)
        })
        .collect();
    g.bench_function("build_8192_rows_l24", |b| {
        b.iter(|| LshTables::from_keys(l, 6, 64, 3, black_box(&all_keys)))
    });

    let tables = LshTables::from_keys(l, 6, 64, 3, &all_keys);
    let mut out = Vec::with_capacity(4096);
    g.bench_function("query_l24_full_buckets", |b| {
        b.iter(|| {
            out.clear();
            tables.query_into(black_box(&keys), &mut out);
            black_box(out.len())
        })
    });
    g.finish();
}

fn bench_rebuild(c: &mut Criterion) {
    // Full rebuild of an 8192-neuron output layer (serial path; the trainer
    // parallelizes the key phase).
    let mut g = c.benchmark_group("table_rebuild");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(300));
    g.sample_size(10);
    let h = DwtaHash::new(DwtaConfig {
        dim: 128,
        key_bits: 6,
        tables: 24,
        bin_size: 16,
        seed: 1,
    });
    let rows: Vec<Vec<f32>> = (0..8192)
        .map(|r| {
            (0..128)
                .map(|col| ((r * 31 + col * 7) % 97) as f32 * 0.01)
                .collect()
        })
        .collect();
    let mut scratch = h.make_scratch();
    let mut keys = vec![0u32; 24];
    g.bench_function("hash_8192_neurons_128d", |b| {
        b.iter(|| {
            for row in &rows {
                h.keys_dense(black_box(row), &mut scratch, &mut keys);
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_dwta,
    bench_simhash,
    bench_tables,
    bench_rebuild
);
criterion_main!(benches);
