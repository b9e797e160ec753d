//! Transition-delay fault simulation on the tape:
//! [`SimKernel::transition_batch`] and [`TapeKernel::broadside_pairs`].

use dft_fault::{
    universe_stuck_at, universe_transition, Fault, FaultKind, FaultList, FaultSite, FaultStatus,
};
use dft_netlist::generators::{counter, ripple_adder};
use dft_netlist::{GateKind, Netlist};

use crate::{oracle, Executor, FiveSim, Pattern, PatternSet, SimKernel, TapeKernel};

/// Consecutive random patterns as launch/capture pairs.
fn chained_pairs(ps: &PatternSet) -> Vec<(Pattern, Pattern)> {
    (0..ps.len() - 1)
        .map(|i| (ps.pattern(i).clone(), ps.pattern(i + 1).clone()))
        .collect()
}

#[test]
fn str_requires_zero_then_one() {
    // Single buffer: STR on input `a`.
    let mut nl = Netlist::new("t");
    let a = nl.add_input("a");
    let buf = nl.add_gate(GateKind::Buf, vec![a], "b");
    nl.add_output(buf, "po");
    let kernel = TapeKernel::compile(&nl);
    let detects = |launch: bool, capture: bool, kind: FaultKind| {
        let f = Fault {
            site: FaultSite::output(a),
            kind,
        };
        let mut list = FaultList::new(vec![f]);
        kernel.transition_batch(
            &[(vec![launch], vec![capture])],
            &mut list,
            &Executor::serial(),
        );
        list.status(0).is_detected()
    };
    assert!(detects(false, true, FaultKind::SlowToRise));
    assert!(!detects(true, true, FaultKind::SlowToRise)); // no launch 0
    assert!(!detects(false, false, FaultKind::SlowToRise)); // no capture 1
    assert!(detects(true, false, FaultKind::SlowToFall));
    assert!(!detects(false, true, FaultKind::SlowToFall));
}

#[test]
fn run_matches_detects() {
    let nl = ripple_adder(4);
    let sim = FiveSim::new(&nl);
    let pairs = chained_pairs(&PatternSet::random(&nl, 40, 21));
    let faults = universe_transition(&nl);
    let mut list = FaultList::new(faults.clone());
    TapeKernel::compile(&nl).transition_batch(&pairs, &mut list, &Executor::serial());
    for (i, &f) in faults.iter().enumerate() {
        if let FaultStatus::Detected(p) = list.status(i) {
            let (l, c) = &pairs[p as usize];
            assert!(oracle::detects_transition(&sim, l, c, f), "{f} at pair {p}");
        }
    }
    // Sanity: random pairs detect a decent share on an adder.
    assert!(list.fault_coverage() > 0.5, "{}", list.fault_coverage());
}

#[test]
fn broadside_pairs_use_functional_next_state() {
    let nl = counter(4);
    let ps = PatternSet::random(&nl, 8, 3);
    let pairs = TapeKernel::compile(&nl).broadside_pairs(&ps);
    assert_eq!(pairs.len(), 8);
    // PI part held constant.
    for (l, c) in &pairs {
        assert_eq!(l[0], c[0], "PI must be held in broadside");
    }
    // The capture PPI bits must equal the launch response: re-simulate.
    let sim = FiveSim::new(&nl);
    for (l, c) in &pairs {
        let r = oracle::response(&sim, l, None);
        for ff in 0..4 {
            assert_eq!(c[1 + ff], r[4 + ff]);
        }
    }
}

#[test]
fn parallel_run_matches_serial() {
    let nl = ripple_adder(8);
    let kernel = TapeKernel::compile(&nl);
    let pairs = chained_pairs(&PatternSet::random(&nl, 96, 11));
    let faults = universe_transition(&nl);
    let mut serial = FaultList::new(faults.clone());
    kernel.transition_batch(&pairs, &mut serial, &Executor::serial());
    for threads in [1usize, 2, 3, 8] {
        let mut par = FaultList::new(faults.clone());
        kernel.transition_batch(&pairs, &mut par, &Executor::with_threads(threads));
        for i in 0..faults.len() {
            assert_eq!(
                serial.status(i),
                par.status(i),
                "threads={threads} fault {i}"
            );
        }
    }
}

#[test]
fn transition_coverage_lower_than_stuck_at_on_same_patterns() {
    let nl = ripple_adder(8);
    let ps = PatternSet::random(&nl, 64, 5);
    let kernel = TapeKernel::compile(&nl);
    let mut tf_list = FaultList::new(universe_transition(&nl));
    kernel.transition_batch(&chained_pairs(&ps), &mut tf_list, &Executor::serial());
    let mut sa_list = FaultList::new(universe_stuck_at(&nl));
    kernel.fault_batch(&ps, &mut sa_list, &Executor::serial());
    // Transition detection needs launch + capture: strictly harder.
    assert!(tf_list.fault_coverage() <= sa_list.fault_coverage() + 1e-9);
}
