//! Criterion: March-test engine throughput (memory operations/second).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dft_core::bist::{march_c_minus, march_ss, run_march, SramModel};
use dft_core::logicsim::RunCtx;

fn bench_march(c: &mut Criterion) {
    let mut group = c.benchmark_group("march");
    for size in [1024usize, 16 * 1024] {
        for algo in [march_c_minus(), march_ss()] {
            group.throughput(Throughput::Elements((algo.ops_per_bit() * size) as u64));
            group.bench_with_input(BenchmarkId::new(algo.name, size), &size, |b, &size| {
                b.iter(|| {
                    let mut mem = SramModel::new(size);
                    run_march(&algo, &mut mem, &RunCtx::default()).operations
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_march);
criterion_main!(benches);
