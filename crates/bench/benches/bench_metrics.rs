//! Criterion: metrics- and trace-layer overhead. Every hot loop flushes
//! counters at coarse boundaries (per block / per PODEM call / per
//! encode) and records spans at batch granularity, so the enabled and
//! disabled variants must stay within noise of each other — this bench
//! is the regression guard for that contract.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dft_core::atpg::{Atpg, AtpgConfig};
use dft_core::fault::{universe_stuck_at, FaultList};
use dft_core::logicsim::{Executor, PatternSet, SimKernel, TapeKernel};
use dft_core::metrics::MetricsHandle;
use dft_core::netlist::generators::{random_logic, systolic_array, SystolicConfig};
use dft_core::trace::{TraceConfig, TraceHandle, TraceSession};

fn handles() -> [(&'static str, MetricsHandle); 2] {
    [
        ("disabled", MetricsHandle::disabled()),
        ("enabled", MetricsHandle::enabled()),
    ]
}

/// Good-machine simulation: the tightest loop in the repo. The only
/// instrument is one flush per 64-pattern block.
fn bench_goodsim_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_goodsim");
    group.sample_size(20);
    let nl = random_logic(32, 2000, 0xFA);
    let ps = PatternSet::random(&nl, 256, 7);
    for (label, handle) in handles() {
        let sim = TapeKernel::compile(&nl).with_metrics(handle.clone());
        group.bench_with_input(BenchmarkId::new("sim", label), &label, |b, _| {
            b.iter(|| sim.eval_batch(&ps).len());
        });
    }
    group.finish();
}

/// PPSFP fault simulation: flushes once per run.
fn bench_ppsfp_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_ppsfp");
    group.sample_size(10);
    let nl = random_logic(32, 1000, 0xFA);
    let faults = universe_stuck_at(&nl);
    let ps = PatternSet::random(&nl, 64, 3);
    for (label, handle) in handles() {
        let sim = TapeKernel::compile(&nl).with_metrics(handle.clone());
        group.bench_with_input(BenchmarkId::new("sim", label), &label, |b, _| {
            b.iter(|| {
                let mut list = FaultList::new(faults.clone());
                sim.fault_batch(&ps, &mut list, &Executor::serial());
                list.num_detected()
            });
        });
    }
    group.finish();
}

/// Full ATPG: PODEM counter flushes once per targeted fault.
fn bench_atpg_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_atpg");
    group.sample_size(10);
    let nl = random_logic(16, 300, 0xA7);
    let cfg = AtpgConfig::new();
    for (label, handle) in handles() {
        group.bench_with_input(BenchmarkId::new("run", label), &label, |b, _| {
            b.iter(|| {
                let run = Atpg::new(&nl).with_metrics(handle.clone()).run(&cfg);
                run.patterns.len()
            });
        });
    }
    group.finish();
}

/// PPSFP on the sys2x2 array, untraced vs traced at default sampling.
/// Spans are recorded once per run / per worker batch, so the traced
/// variant must stay within a few percent of the untraced one (README
/// states the measured number; target < 5%).
fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_ppsfp");
    group.sample_size(10);
    let nl = systolic_array(SystolicConfig {
        rows: 2,
        cols: 2,
        width: 4,
    });
    let faults = universe_stuck_at(&nl);
    let ps = PatternSet::random(&nl, 64, 3);
    // The session outlives the loop; its ring buffers wrap in place, so
    // a long bench run measures steady-state recording, not allocation.
    let session = TraceSession::new(TraceConfig::default());
    let variants = [
        ("untraced", TraceHandle::disabled()),
        ("traced", session.handle()),
    ];
    for (label, trace) in variants {
        let sim = TapeKernel::compile(&nl).with_trace(trace);
        group.bench_with_input(BenchmarkId::new("sys2x2", label), &label, |b, _| {
            b.iter(|| {
                let mut list = FaultList::new(faults.clone());
                sim.fault_batch(&ps, &mut list, &Executor::serial());
                list.num_detected()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_goodsim_overhead,
    bench_ppsfp_overhead,
    bench_atpg_overhead,
    bench_trace_overhead
);
criterion_main!(benches);
