//! Criterion: PPSFP fault-simulation throughput (fault-pattern pairs/s)
//! of the compiled gate tape on every circuit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dft_core::fault::{universe_stuck_at, FaultList};
use dft_core::logicsim::{Executor, PatternSet, SimKernel, TapeKernel};
use dft_core::netlist::generators::{mac_pe, random_logic};
use dft_core::netlist::Netlist;

/// Benches one circuit (serial executor).
fn bench_circuit(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    nl: &Netlist,
    patterns: usize,
    seed: u64,
) {
    let faults = universe_stuck_at(nl);
    let ps = PatternSet::random(nl, patterns, seed);
    let exec = Executor::serial();
    group.throughput(Throughput::Elements((faults.len() * patterns) as u64));
    let tape = TapeKernel::compile(nl);
    group.bench_with_input(BenchmarkId::new(name, "tape"), &name, |b, _| {
        b.iter(|| {
            let mut list = FaultList::new(faults.clone());
            tape.fault_batch(&ps, &mut list, &exec);
            list.num_detected()
        });
    });
}

fn bench_ppsfp(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppsfp");
    group.sample_size(10);
    for gates in [500usize, 2000] {
        let nl = random_logic(32, gates, 0xFA);
        bench_circuit(&mut group, &format!("random_logic_{gates}"), &nl, 64, 3);
    }
    let nl = mac_pe(8);
    bench_circuit(&mut group, "mac8", &nl, 64, 5);
    group.finish();
}

/// Serial vs parallel PPSFP on one large circuit: same work, same
/// results, worker count as the only variable. Speedup tracks the
/// machine's core count (a 1-core host shows parity minus spawn cost).
fn bench_ppsfp_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppsfp_threads");
    group.sample_size(10);
    let nl = random_logic(32, 2000, 0xFA);
    let sim = TapeKernel::compile(&nl);
    let faults = universe_stuck_at(&nl);
    let ps = PatternSet::random(&nl, 64, 3);
    group.throughput(Throughput::Elements((faults.len() * 64) as u64));
    let serial_detected = {
        let mut list = FaultList::new(faults.clone());
        sim.fault_batch(&ps, &mut list, &Executor::serial());
        list.num_detected()
    };
    for threads in [1usize, 2, 4, 8] {
        let exec = Executor::with_threads(threads);
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| {
                let mut list = FaultList::new(faults.clone());
                sim.fault_batch(&ps, &mut list, &exec);
                assert_eq!(list.num_detected(), serial_detected);
                list.num_detected()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ppsfp, bench_ppsfp_threads);
criterion_main!(benches);
