//! Integration: the inject -> test -> log -> diagnose loop, plus BIST
//! signature screening, across crates.

use dft_core::bist::LogicBist;
use dft_core::diagnosis::{build_failure_log, diagnose, FailureLog};
use dft_core::fault::{universe_stuck_at, Fault};
use dft_core::logicsim::{PatternSet, SimKernel, TapeKernel};
use dft_core::netlist::generators::{mac_pe, ripple_adder};

#[test]
fn diagnosis_localizes_random_defects_in_mac() {
    let nl = mac_pe(4);
    let patterns = PatternSet::random(&nl, 128, 0xD1);
    let universe = universe_stuck_at(&nl);
    let mut rank1 = 0usize;
    let mut top5 = 0usize;
    let mut diagnosable = 0usize;
    // Deterministic sample of defects across the universe.
    for (i, &defect) in universe.iter().enumerate() {
        if i % 37 != 0 {
            continue;
        }
        let log = build_failure_log(&nl, &patterns, defect);
        if log.is_clean() {
            continue;
        }
        diagnosable += 1;
        let cands = diagnose(&nl, &patterns, &log, 5);
        // "Correct" = same net (equivalent faults are indistinguishable by
        // any diagnosis engine).
        let hit =
            |c: &dft_core::diagnosis::Candidate| c.fault.site.net(&nl) == defect.site.net(&nl);
        if cands.first().map(hit).unwrap_or(false) {
            rank1 += 1;
        }
        if cands.iter().any(hit) {
            top5 += 1;
        }
    }
    assert!(diagnosable >= 10, "sample too small: {diagnosable}");
    assert!(
        top5 as f64 / diagnosable as f64 > 0.8,
        "top-5 localization {top5}/{diagnosable}"
    );
    assert!(rank1 > 0, "no rank-1 hits at all");
}

#[test]
fn failure_log_json_is_interchangeable() {
    let nl = ripple_adder(8);
    let patterns = PatternSet::random(&nl, 64, 0xF0);
    let defect = Fault::stuck_at_output(nl.find("add_fa2_co").unwrap(), true);
    let log = build_failure_log(&nl, &patterns, defect);
    let json = log.to_json();
    let restored = FailureLog::from_json(&json).unwrap();
    // Diagnosing the restored log gives identical candidates.
    let a = diagnose(&nl, &patterns, &log, 5);
    let b = diagnose(&nl, &patterns, &restored, 5);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.fault, y.fault);
        assert_eq!(x.score(), y.score());
    }
}

#[test]
fn bist_signature_screens_defective_dies() {
    // A BIST session separates good dies from bad ones by signature.
    let nl = ripple_adder(8);
    let bist = LogicBist::new(&nl, 32);
    let golden = bist.run(256, 0xB15).signature;
    // Compute a defective die's signature: simulate responses with a
    // fault and fold them the same way.
    let ps = bist.patterns(256, 0xB15);
    let kernel = TapeKernel::compile(&nl);
    let defect = Fault::stuck_at_output(nl.find("add_fa0_axb").unwrap(), false);
    let mut sig = 0u64;
    for resp in &kernel.faulty_responses(&ps, &[defect])[0] {
        for (i, bit) in resp.iter().enumerate() {
            sig = sig.rotate_left(1) ^ ((*bit as u64) << (i % 7));
        }
        sig = sig.rotate_left(11);
    }
    assert_ne!(sig, golden, "defective die matched the golden signature");
}
