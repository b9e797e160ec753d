//! Criterion: good-machine simulation throughput (patterns/second) of
//! the 256-wide gate tape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dft_core::logicsim::{PatternSet, SimKernel, TapeKernel};
use dft_core::netlist::generators::{random_logic, systolic_array, SystolicConfig};
use dft_core::netlist::Netlist;

fn bench_circuit(group: &mut criterion::BenchmarkGroup<'_>, name: &str, nl: &Netlist) {
    let ps = PatternSet::random(nl, 256, 1);
    group.throughput(Throughput::Elements(256));
    let tape = TapeKernel::compile(nl);
    group.bench_with_input(BenchmarkId::new(name, "tape"), &name, |b, _| {
        b.iter(|| tape.eval_batch(&ps).len());
    });
}

fn bench_goodsim(c: &mut Criterion) {
    let mut group = c.benchmark_group("goodsim");
    for gates in [1000usize, 5000, 20000] {
        let nl = random_logic(64, gates, 0xB1);
        bench_circuit(&mut group, &format!("random_logic_{gates}"), &nl);
    }
    let nl = systolic_array(SystolicConfig {
        rows: 4,
        cols: 4,
        width: 4,
    });
    bench_circuit(&mut group, "systolic4x4", &nl);
    group.finish();
}

criterion_group!(benches, bench_goodsim);
criterion_main!(benches);
