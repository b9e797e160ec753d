//! `flow_sys4x4`: back-to-back `DftFlow::run` on the 4x4 systolic array.
//!
//! The tutorial's AI-chip datapath; deterministic top-off (PODEM plus
//! the D-algorithm) is nearly all of a flow, so this is the workload
//! that shows an ATPG change. A traced operation replays the flow's
//! layers one public call at a time: scan insertion, fault collapsing,
//! kernel compile, the 128-pattern random phase, PODEM on every
//! survivor with D-algorithm escalation of stem-fault aborts and
//! fault dropping of each new pattern, cube compaction and EDT.

use std::time::Instant;

use dft_core::atpg::{compact_cubes, AtpgConfig, AtpgResult, DAlgorithm, Podem};
use dft_core::compress::ScanEdt;
use dft_core::fault::{collapse_equivalent, universe_stuck_at, Fault, FaultList, FaultStatus};
use dft_core::logicsim::{Executor, PatternSet, SimKernel, TapeKernel};
use dft_core::netlist::generators::{mac_pe, systolic_array, SystolicConfig};
use dft_core::netlist::Netlist;
use dft_core::scan::{insert_scan, ScanConfig};
use dft_core::{DftFlow, FlowReport};

use crate::spans::{quantile, ratio, Tracer};
use crate::{counts, drive, Driven, Metrics, OpResult, Opts, Plan, Tally, THREADS};

/// `DftFlow`'s defaults, which the replay mirrors.
const CHAINS: usize = 4;
const CHANNELS: usize = 2;
const RANDOM_PATTERNS: usize = 128;
const BACKTRACKS: u32 = 256;
const ESCALATION_BACKTRACKS: u32 = 512;

/// The program's own `FlowReport::phase_times`, in ms per flow.
const PHASES: [&str; 6] = [
    "flow.phase_scan_ms",
    "flow.phase_compile_ms",
    "flow.phase_random_ms",
    "flow.phase_deterministic_ms",
    "flow.phase_compression_ms",
    "flow.phase_total_ms",
];

pub fn design(smoke: bool) -> Netlist {
    if smoke {
        mac_pe(4)
    } else {
        systolic_array(SystolicConfig {
            rows: 4,
            cols: 4,
            width: 4,
        })
    }
}

pub fn run(opts: &Opts, plan: Plan, tally: &mut Tally) -> (Metrics, Driven) {
    let exec = Executor::with_threads(THREADS);
    let d = drive(plan, "flow_sys4x4", tally, |tr| {
        let t = Instant::now();
        let nl = design(opts.smoke);
        let reps = collapse_equivalent(&nl, &universe_stuck_at(&nl));
        let kernel = TapeKernel::compile(&nl);
        let setup_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let report = tr.span("program.flow_run", || {
            DftFlow::new(&nl)
                .threads(THREADS)
                .atpg_config(AtpgConfig::new().seed(opts.seed))
                .run()
        });
        let secs = t.elapsed().as_secs_f64();
        check(&report, &kernel, reps.representatives(), &exec)?;
        if tr.enabled() {
            let p = &report.phase_times;
            let times = [
                p.scan,
                p.compile,
                p.random_sim,
                p.deterministic,
                p.compression,
                p.total,
            ];
            for (name, d) in PHASES.into_iter().zip(times) {
                tr.count(name, d.as_secs_f64() * 1e3);
            }
            replay(&nl, opts.seed, tr, &exec);
        }
        let mut repeat = vec![
            ("coverage", report.test_coverage),
            ("tester_cycles", report.test_cycles as f64),
            ("patterns", report.patterns as f64),
        ];
        repeat.extend(counts(&report.metrics));
        Ok(OpResult {
            setup_secs,
            secs,
            repeat,
        })
    });

    let mut m = Metrics::new();
    if d.traced() {
        layer_metrics(&d, &mut m);
    }
    (m, d)
}

/// Re-simulates the flow's patterns over the collapsed universe with a
/// fresh kernel: the detected count must equal the flow's.
fn check(
    report: &FlowReport,
    kernel: &TapeKernel<'_>,
    reps: &[Fault],
    exec: &Executor,
) -> Result<(), String> {
    let run = &report.atpg_run;
    if run.failed_sim_batches != 0 {
        return Err(format!(
            "{} simulation batches lost",
            run.failed_sim_batches
        ));
    }
    let mut list = FaultList::new(reps.to_vec());
    kernel.fault_batch(&run.patterns, &mut list, exec);
    let reported = run.random_detected + run.deterministic_detected;
    if list.num_detected() != reported {
        return Err(format!(
            "re-simulation detects {} collapsed faults, the flow reported {reported}",
            list.num_detected()
        ));
    }
    Ok(())
}

/// The flow's layers, one public call per span.
fn replay(nl: &Netlist, seed: u64, tr: &Tracer, exec: &Executor) {
    let scan = tr.span("scan.insert", || {
        insert_scan(nl, &ScanConfig::new().num_chains(CHAINS))
    });
    let universe = universe_stuck_at(nl);
    let collapsed = tr.span("fault.collapse", || collapse_equivalent(nl, &universe));
    let kernel = tr.span("logicsim.compile", || TapeKernel::compile(nl));
    let mut reps = FaultList::new(collapsed.representatives().to_vec());
    let random = PatternSet::random(nl, RANDOM_PATTERNS, seed);
    tr.span("logicsim.fault_batch", || {
        kernel.fault_batch(&random, &mut reps, exec)
    });
    tr.count("logicsim.fault_patterns", random.len() as f64);

    let cubes = tr.span("atpg.topoff", || {
        let podem = Podem::new(nl);
        let dalg = DAlgorithm::new(nl);
        let serial = Executor::serial();
        let mut fill_seed = seed ^ 0xF111;
        let mut cubes = Vec::new();
        loop {
            let Some(i) = reps.undetected().next() else {
                break;
            };
            let fault = reps.faults()[i];
            let (result, stats) = tr.span("atpg.podem", || podem.generate(fault, BACKTRACKS));
            tr.tag_last(outcome(&result));
            tr.count("atpg.podem_backtracks", f64::from(stats.backtracks));
            tr.count("atpg.podem_simulations", f64::from(stats.simulations));
            let result = match result {
                AtpgResult::Aborted if fault.site.pin.is_none() => {
                    let r = tr.span("atpg.dalg", || dalg.generate(fault, ESCALATION_BACKTRACKS));
                    tr.tag_last(outcome(&r));
                    r
                }
                r => r,
            };
            match result {
                AtpgResult::Test(cube) => {
                    fill_seed = fill_seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(1);
                    let mut single = PatternSet::for_netlist(nl);
                    single.push(cube.random_fill(fill_seed));
                    tr.span("logicsim.fault_batch", || {
                        kernel.fault_batch(&single, &mut reps, &serial)
                    });
                    tr.count("logicsim.fault_patterns", 1.0);
                    if !reps.status(i).is_detected() {
                        reps.set_status(i, FaultStatus::Aborted);
                    }
                    cubes.push(cube);
                }
                AtpgResult::Untestable => reps.set_status(i, FaultStatus::Untestable),
                AtpgResult::Aborted => reps.set_status(i, FaultStatus::Aborted),
            }
        }
        cubes
    });
    let merged = tr.span("atpg.compact", || compact_cubes(&cubes));
    let edt = ScanEdt::new(nl, &scan, CHANNELS, scan.shift_cycles().clamp(8, 32), 0xED7);
    let stats = tr.span("compress.edt", || edt.compress_all(&merged));
    tr.count("compress.encoded", stats.encoded as f64);
    tr.count("compress.attempted", (stats.encoded + stats.failed) as f64);
}

fn outcome(r: &AtpgResult) -> &'static str {
    match r {
        AtpgResult::Test(_) => "test",
        AtpgResult::Untestable => "untestable",
        AtpgResult::Aborted => "aborted",
    }
}

fn layer_metrics(d: &Driven, m: &mut Metrics) {
    let v = d.view();
    let fault_batch_ms = v.self_ms("logicsim.fault_batch");
    let podem_us = v.durations_us("atpg.podem", None);
    let podem_calls = v.calls("atpg.podem", None);
    let dalg_calls = v.calls("atpg.dalg", None);
    let useful = |name| v.calls(name, Some("test")) + v.calls(name, Some("untestable"));
    let deterministic_ms = v.count("flow.phase_deterministic_ms");
    m.extend([
        ("scan.insert_ms", v.self_ms("scan.insert")),
        ("fault.collapse_ms", v.self_ms("fault.collapse")),
        ("logicsim.compile_ms", v.self_ms("logicsim.compile")),
        ("logicsim.fault_batch_ms", fault_batch_ms),
        (
            "logicsim.fault_patterns_per_s",
            ratio(v.count("logicsim.fault_patterns"), fault_batch_ms / 1e3),
        ),
        ("atpg.podem_calls", podem_calls),
        ("atpg.podem_ms", v.self_ms("atpg.podem")),
        ("atpg.podem_call_us_p50", quantile(&podem_us, 0.5)),
        ("atpg.podem_call_us_p99", quantile(&podem_us, 0.99)),
        ("atpg.podem_aborted_ms", v.ms("atpg.podem", Some("aborted"))),
        (
            "atpg.podem_useful_ratio",
            ratio(useful("atpg.podem"), podem_calls),
        ),
        ("atpg.podem_backtracks", v.count("atpg.podem_backtracks")),
        ("atpg.podem_simulations", v.count("atpg.podem_simulations")),
        ("atpg.dalg_calls", dalg_calls),
        ("atpg.dalg_ms", v.self_ms("atpg.dalg")),
        (
            "atpg.dalg_rescue_ratio",
            ratio(useful("atpg.dalg"), dalg_calls),
        ),
        ("atpg.compact_ms", v.self_ms("atpg.compact")),
        (
            "atpg.topoff_replay_ratio",
            ratio(v.ms("atpg.topoff", None), deterministic_ms),
        ),
        ("compress.edt_ms", v.self_ms("compress.edt")),
        (
            "compress.encode_ratio",
            ratio(v.count("compress.encoded"), v.count("compress.attempted")),
        ),
    ]);
    m.extend(PHASES.map(|name| (name, v.count(name))));
    let phases: Vec<String> = PHASES
        .iter()
        .map(|n| format!("{n} {:.2}", v.count(n)))
        .collect();
    println!(
        "flow_sys4x4: program phases (ms per flow): {}",
        phases.join(", ")
    );
    println!(
        "flow_sys4x4: replay self time (ms per flow): atpg {:.2}, logicsim {:.2}, scan {:.2}, \
         compress {:.2}, fault {:.2}; replayed top-off / program deterministic phase = {:.3}",
        v.prefix_self_ms("atpg."),
        v.prefix_self_ms("logicsim."),
        v.prefix_self_ms("scan."),
        v.prefix_self_ms("compress."),
        v.prefix_self_ms("fault."),
        ratio(v.ms("atpg.topoff", None), deterministic_ms),
    );
}
