//! `lbist_sys4x4`: back-to-back 65,536-pattern logic-BIST sessions on
//! the 4x4 systolic array.
//!
//! No PODEM at all: a session is PRPG generation, stuck-at grading of
//! the full universe through `fault_batch` (the faults random patterns
//! never detect are simulated to the end) and the good-machine
//! `eval_batch` behind the signature. A fault-simulation change tuned for
//! the flow's short, early-dropping batches shows its cost here.

use std::time::Instant;

use dft_core::bist::LogicBist;
use dft_core::fault::{universe_stuck_at, FaultList};
use dft_core::logicsim::{Executor, SimKernel, TapeKernel};
use dft_core::metrics::MetricsHandle;
use dft_core::scan::{insert_scan, ScanConfig, TestTimeModel};

use crate::spans::ratio;
use crate::{counts, drive, flow, Driven, Metrics, OpResult, Opts, Plan, Tally, THREADS};

const PRPG_WIDTH: u32 = 32;

/// Scan chains of the tester-cycle model (the flow's architecture).
const CHAINS: usize = 4;

fn patterns(smoke: bool) -> usize {
    if smoke {
        4096
    } else {
        65536
    }
}

pub fn run(opts: &Opts, plan: Plan, tally: &mut Tally) -> (Metrics, Driven) {
    let n = patterns(opts.smoke);
    let seed = opts.seed;
    // A STUMPS session shifts every pattern through the scan chains.
    let tester_cycles = TestTimeModel::for_architecture(
        &insert_scan(
            &flow::design(opts.smoke),
            &ScanConfig::new().num_chains(CHAINS),
        ),
        n,
        100,
    )
    .total_cycles() as f64;
    let exec = Executor::with_threads(THREADS);

    let mut reference = None;
    let d = drive(plan, "lbist_sys4x4", tally, |tr| {
        let t = Instant::now();
        let nl = flow::design(opts.smoke);
        let setup_secs = t.elapsed().as_secs_f64();

        let metrics = MetricsHandle::enabled();
        let bist = LogicBist::new(&nl, PRPG_WIDTH)
            .threads(THREADS)
            .metrics(metrics.clone());
        let t = Instant::now();
        let result = tr.span("program.bist_run", || bist.run(n, seed));
        let secs = t.elapsed().as_secs_f64();
        let snap = metrics.snapshot().expect("metrics handle is enabled");
        if result.interrupted {
            return Err("session interrupted".into());
        }
        // The session's signature must be the signature of its PRPG
        // patterns; it is computed once and later sessions must repeat it.
        let expected = *reference.get_or_insert_with(|| {
            let plain = LogicBist::new(&nl, PRPG_WIDTH);
            plain.signature(&plain.patterns(n, seed))
        });
        if result.signature != expected {
            return Err(format!(
                "signature {:#x}, patterns re-signed give {expected:#x}",
                result.signature
            ));
        }
        if tr.enabled() {
            let bist = LogicBist::new(&nl, PRPG_WIDTH);
            let ps = tr.span("bist.prpg", || bist.patterns(n, seed));
            let kernel = tr.span("logicsim.compile", || TapeKernel::compile(&nl));
            let mut list = FaultList::new(universe_stuck_at(&nl));
            tr.span("logicsim.fault_batch", || {
                kernel.fault_batch(&ps, &mut list, &exec)
            });
            tr.count("logicsim.fault_patterns", ps.len() as f64);
            tr.span("logicsim.eval_batch", || kernel.eval_batch(&ps));
            let signature = tr.span("bist.signature", || bist.signature(&ps));
            if signature != result.signature || list.fault_coverage() != result.coverage {
                return Err("replayed session disagrees with the program's".into());
            }
        }
        let mut repeat = vec![
            ("coverage", result.coverage),
            ("tester_cycles", tester_cycles),
        ];
        repeat.extend(counts(&snap));
        Ok(OpResult {
            setup_secs,
            secs,
            repeat,
        })
    });

    let mut m = Metrics::new();
    if d.traced() {
        let v = d.view();
        let fault_batch_ms = v.self_ms("logicsim.fault_batch");
        m.extend([
            ("logicsim.compile_ms", v.self_ms("logicsim.compile")),
            ("logicsim.fault_batch_ms", fault_batch_ms),
            (
                "logicsim.fault_patterns_per_s",
                ratio(v.count("logicsim.fault_patterns"), fault_batch_ms / 1e3),
            ),
            ("logicsim.eval_batch_ms", v.self_ms("logicsim.eval_batch")),
            ("bist.prpg_ms", v.self_ms("bist.prpg")),
            ("bist.signature_ms", v.self_ms("bist.signature")),
        ]);
    }
    (m, d)
}
