//! Stuck-at and bridge fault simulation on the tape: PPSFP with fault
//! dropping ([`SimKernel::fault_batch`]) and the per-pattern operations
//! ([`TapeKernel::detection_sets`], [`TapeKernel::faulty_responses`]).

use dft_checkpoint::{CancelToken, ChaosConfig};
use dft_fault::{
    bridge_universe, universe_stuck_at, BridgeFault, BridgeKind, Fault, FaultList, FaultStatus,
};
use dft_netlist::generators::{c17, parity_tree, ripple_adder, s27};
use dft_netlist::{GateKind, Netlist};

use crate::{oracle, Defect, Executor, FiveSim, Pattern, PatternSet, SimKernel, TapeKernel};

/// Does the single pattern `p` detect `defect` on the tape?
fn detects(nl: &Netlist, p: Pattern, defect: impl Into<Defect> + Copy) -> bool {
    let ps: PatternSet = std::iter::once(p).collect();
    !TapeKernel::compile(nl).detection_sets(&ps, &[defect])[0].is_empty()
}

#[test]
fn c17_exhaustive_reaches_full_coverage() {
    let nl = c17();
    let mut ps = PatternSet::new(5);
    for v in 0..32u32 {
        ps.push((0..5).map(|i| (v >> i) & 1 == 1).collect());
    }
    let mut list = FaultList::new(universe_stuck_at(&nl));
    let stats = TapeKernel::compile(&nl).fault_batch(&ps, &mut list, &Executor::serial());
    // c17 has no redundant faults: exhaustive patterns detect all.
    assert_eq!(list.num_detected(), list.len());
    assert_eq!(stats.detected, list.len());
    assert!((list.fault_coverage() - 1.0).abs() < 1e-12);
}

#[test]
fn known_single_fault_detection() {
    // AND(a,b): a SA1 detected by (a=0, b=1) only.
    let mut nl = Netlist::new("t");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let g = nl.add_gate(GateKind::And, vec![a, b], "g");
    nl.add_output(g, "po");
    let f = Fault::stuck_at_output(a, true);
    assert!(detects(&nl, vec![false, true], f));
    assert!(!detects(&nl, vec![true, true], f));
    assert!(!detects(&nl, vec![false, false], f));
}

#[test]
fn input_pin_fault_differs_from_stem_fault() {
    // a fans out to AND and OR. Branch fault a->AND SA1 is only
    // observable through the AND.
    let mut nl = Netlist::new("t");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let and = nl.add_gate(GateKind::And, vec![a, b], "and");
    let or = nl.add_gate(GateKind::Or, vec![a, b], "or");
    nl.add_output(and, "po1");
    nl.add_output(or, "po2");
    let branch = Fault::stuck_at_input(and, 0, true);
    let stem = Fault::stuck_at_output(a, true);
    // a=0, b=1
    assert!(detects(&nl, vec![false, true], branch));
    assert!(detects(&nl, vec![false, true], stem));
    // b=0: branch fault not detected (AND still 0); stem fault is
    // detected through the OR (good 0 -> faulty 1).
    assert!(!detects(&nl, vec![false, false], branch));
    assert!(detects(&nl, vec![false, false], stem));
}

#[test]
fn detection_through_flop_d_pin() {
    let mut nl = Netlist::new("seq");
    let a = nl.add_input("a");
    let inv = nl.add_gate(GateKind::Not, vec![a], "inv");
    let q = nl.add_dff(inv, "q");
    nl.add_output(q, "po");
    // inv SA0: with a=0, good inv=1, faulty 0, observed at q's D pin.
    let f = Fault::stuck_at_output(inv, false);
    assert!(detects(&nl, vec![false, false], f));
    assert!(!detects(&nl, vec![true, false], f));
    // Fault on q's D input pin behaves the same, and is read at the flop
    // itself: the response is [po, q_dpin] and only q_dpin changes.
    let f = Fault::stuck_at_input(q, 0, false);
    assert!(detects(&nl, vec![false, false], f));
    assert!(!detects(&nl, vec![true, false], f));
    let ps: PatternSet = std::iter::once(vec![false, true]).collect();
    let faulty = TapeKernel::compile(&nl).faulty_responses(&ps, &[f]);
    assert_eq!(faulty[0][0], vec![true, false]);
}

#[test]
fn q_output_fault_needs_logic_propagation() {
    let mut nl = Netlist::new("seq");
    let a = nl.add_input("a");
    let q = nl.add_dff(a, "q");
    let buf = nl.add_gate(GateKind::Buf, vec![q], "buf");
    nl.add_output(buf, "po");
    let f = Fault::stuck_at_output(q, false);
    // Pattern [a, q]: load q=1, fault forces 0, observed through buf.
    assert!(detects(&nl, vec![false, true], f));
    // Loading q=0 does not excite the fault. The flop's own D capture
    // (from `a`) is NOT affected by a Q-output fault.
    assert!(!detects(&nl, vec![true, false], f));
}

#[test]
fn parity_tree_random_patterns_converge_fast() {
    let nl = parity_tree(16);
    let ps = PatternSet::random(&nl, 64, 3);
    let mut list = FaultList::new(universe_stuck_at(&nl));
    TapeKernel::compile(&nl).fault_batch(&ps, &mut list, &Executor::serial());
    assert!(
        list.fault_coverage() > 0.95,
        "coverage {}",
        list.fault_coverage()
    );
}

#[test]
fn run_respects_fault_dropping() {
    let nl = ripple_adder(4);
    let sim = FiveSim::new(&nl);
    let ps = PatternSet::random(&nl, 128, 11);
    let mut list = FaultList::new(universe_stuck_at(&nl));
    TapeKernel::compile(&nl).fault_batch(&ps, &mut list, &Executor::serial());
    for i in 0..list.len() {
        if let FaultStatus::Detected(p) = list.status(i) {
            let f = list.faults()[i];
            assert!(
                oracle::detects(&sim, ps.pattern(p as usize), f),
                "fault {f} claims detection by pattern {p}"
            );
        }
    }
}

#[test]
fn detection_matrix_consistent_with_detects() {
    for nl in [c17(), s27()] {
        let sim = FiveSim::new(&nl);
        let ps = PatternSet::random(&nl, 300, 2);
        let faults = universe_stuck_at(&nl);
        let matrix = TapeKernel::compile(&nl).detection_sets(&ps, &faults);
        for (fi, dets) in matrix.iter().enumerate() {
            let want: Vec<u32> = (0..ps.len() as u32)
                .filter(|&p| oracle::detects(&sim, ps.pattern(p as usize), faults[fi]))
                .collect();
            assert_eq!(dets, &want, "{} fault {}", nl.name(), faults[fi]);
        }
    }
}

#[test]
fn wired_and_bridge_detection() {
    // Two independent buffers to separate POs; bridge their inputs.
    let mut nl = Netlist::new("t");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let ba = nl.add_gate(GateKind::Buf, vec![a], "ba");
    let bb = nl.add_gate(GateKind::Buf, vec![b], "bb");
    nl.add_output(ba, "pa");
    nl.add_output(bb, "pb");
    let br = BridgeFault {
        a,
        b,
        kind: BridgeKind::WiredAnd,
    };
    // a=1,b=0: wired-AND pulls a to 0 -> pa flips.
    assert!(detects(&nl, vec![true, false], br));
    assert!(detects(&nl, vec![false, true], br));
    // Equal values: no difference.
    assert!(!detects(&nl, vec![true, true], br));
    assert!(!detects(&nl, vec![false, false], br));
    // Dominant bridge A>B only corrupts pb.
    let br = BridgeFault {
        a,
        b,
        kind: BridgeKind::ADominates,
    };
    assert!(detects(&nl, vec![true, false], br));
    assert!(!detects(&nl, vec![true, true], br));
    let ps: PatternSet = std::iter::once(vec![true, false]).collect();
    let faulty = TapeKernel::compile(&nl).faulty_responses(&ps, &[br]);
    assert_eq!(faulty[0][0], vec![true, true]);
}

#[test]
fn bridge_between_cone_nets_keeps_forced_values() {
    // b is in a's fanout cone: a -> inv -> buf -> po ; bridge(a, inv).
    let mut nl = Netlist::new("t");
    let a = nl.add_input("a");
    let inv = nl.add_gate(GateKind::Not, vec![a], "inv");
    let buf = nl.add_gate(GateKind::Buf, vec![inv], "buf");
    nl.add_output(buf, "po");
    let br = BridgeFault {
        a,
        b: inv,
        kind: BridgeKind::WiredAnd,
    };
    // a=1: good inv=0; wired-AND: a'=0, inv'=0 -> po unchanged (0),
    // even though re-evaluating inv from a'=0 would give 1.
    assert!(!detects(&nl, vec![true], br));
    // a=0: good inv=1; wired-AND: both 0 -> po flips 1 -> 0.
    assert!(detects(&nl, vec![false], br));
    let ps: PatternSet = [vec![true], vec![false]].into_iter().collect();
    let faulty = TapeKernel::compile(&nl).faulty_responses(&ps, &[br]);
    assert_eq!(faulty[0], vec![vec![false], vec![false]]);
}

#[test]
fn bridge_universe_simulates_cleanly() {
    let nl = c17();
    let sim = FiveSim::new(&nl);
    let bridges = bridge_universe(&nl, 3);
    let ps = PatternSet::random(&nl, 32, 5);
    let kernel = TapeKernel::compile(&nl);
    let good = kernel.eval_batch(&ps);
    let sets = kernel.detection_sets(&ps, &bridges);
    let faulty = kernel.faulty_responses(&ps, &bridges);
    for (i, &br) in bridges.iter().enumerate() {
        for (k, p) in ps.iter().enumerate() {
            let want = oracle::bridge_response(&sim, p, br);
            assert_eq!(faulty[i][k], want, "{br} pattern {k}");
            assert_eq!(sets[i].contains(&(k as u32)), want != good[k], "{br} {k}");
        }
    }
    // Most random bridges in c17 are detectable by 32 patterns.
    let detected = sets.iter().filter(|s| !s.is_empty()).count();
    assert!(
        detected * 10 > bridges.len() * 5,
        "only {detected}/{} bridges detected",
        bridges.len()
    );
}

#[test]
fn parallel_run_matches_serial() {
    let nl = ripple_adder(8);
    let sim = TapeKernel::compile(&nl);
    let ps = PatternSet::random(&nl, 96, 17);
    let mut serial = FaultList::new(universe_stuck_at(&nl));
    sim.fault_batch(&ps, &mut serial, &Executor::serial());
    let mut parallel = FaultList::new(universe_stuck_at(&nl));
    sim.fault_batch(&ps, &mut parallel, &Executor::with_threads(4));
    for i in 0..serial.len() {
        assert_eq!(serial.status(i), parallel.status(i), "fault {i}");
    }
}

#[test]
fn poisoned_batch_is_isolated_and_others_are_bit_identical() {
    let nl = ripple_adder(8);
    let ps = PatternSet::random(&nl, 96, 17);
    let universe = universe_stuck_at(&nl);
    // Poison a fault the clean run detects, so isolation is visible.
    let mut clean = FaultList::new(universe.clone());
    let clean_stats = TapeKernel::compile(&nl).fault_batch(&ps, &mut clean, &Executor::serial());
    assert_eq!(clean_stats.failed_batches, 0);
    let poisoned_idx = (0..clean.len())
        .find(|&i| matches!(clean.status(i), FaultStatus::Detected(_)))
        .expect("some fault is detected");
    let poison = universe[poisoned_idx];
    for threads in [1usize, 4] {
        let sim = TapeKernel::compile(&nl).with_poisoned_fault(poison);
        let mut list = FaultList::new(universe.clone());
        let stats = sim.fault_batch(&ps, &mut list, &Executor::with_threads(threads));
        assert_eq!(stats.failed_batches, 1, "threads={threads}");
        assert_eq!(stats.detected, clean_stats.detected - 1);
        // The poisoned fault's batch was lost: it stays undetected.
        assert_eq!(list.status(poisoned_idx), FaultStatus::Undetected);
        // Every other fault's outcome is bit-identical to the clean run.
        for i in 0..list.len() {
            if i != poisoned_idx {
                assert_eq!(list.status(i), clean.status(i), "fault {i}");
            }
        }
    }
}

#[test]
fn cancelled_run_discards_all_detections() {
    let nl = ripple_adder(8);
    let ps = PatternSet::random(&nl, 96, 17);
    let tok = CancelToken::new();
    tok.cancel();
    let sim = TapeKernel::compile(&nl).with_cancel(tok);
    let mut list = FaultList::new(universe_stuck_at(&nl));
    let stats = sim.fault_batch(&ps, &mut list, &Executor::serial());
    assert!(stats.interrupted);
    assert_eq!(stats.detected, 0);
    assert_eq!(list.num_detected(), 0);
}

#[test]
fn mid_run_trip_is_repeatable_bit_identically() {
    let nl = ripple_adder(8);
    let ps = PatternSet::random(&nl, 96, 17);
    let universe = universe_stuck_at(&nl);
    let mut clean = FaultList::new(universe.clone());
    TapeKernel::compile(&nl).fault_batch(&ps, &mut clean, &Executor::serial());
    // Trip partway through the pass: nothing may be marked.
    let tok = CancelToken::new();
    tok.trip_after_polls(universe.len() as u64 / 2);
    let sim = TapeKernel::compile(&nl).with_cancel(tok.clone());
    let mut list = FaultList::new(universe.clone());
    let stats = sim.fault_batch(&ps, &mut list, &Executor::serial());
    assert!(stats.interrupted);
    assert!(tok.is_cancelled());
    assert_eq!(list.num_detected(), 0);
    // Repeating the pass on the untouched list matches the clean run.
    TapeKernel::compile(&nl).fault_batch(&ps, &mut list, &Executor::serial());
    for i in 0..clean.len() {
        assert_eq!(list.status(i), clean.status(i), "fault {i}");
    }
}

#[test]
fn chaos_panics_hit_the_same_faults_at_any_thread_count() {
    let nl = ripple_adder(8);
    let ps = PatternSet::random(&nl, 96, 17);
    let universe = universe_stuck_at(&nl);
    let chaos = ChaosConfig::parse("panic=0.05,seed=11").unwrap();
    let mut results = Vec::new();
    for threads in [1usize, 4] {
        let sim = TapeKernel::compile(&nl).with_chaos(chaos);
        let mut list = FaultList::new(universe.clone());
        let stats = sim.fault_batch(&ps, &mut list, &Executor::with_threads(threads));
        assert!(stats.failed_batches > 0, "threads={threads}");
        let statuses: Vec<_> = (0..list.len()).map(|i| list.status(i)).collect();
        results.push((stats.failed_batches, statuses));
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn faulty_response_differs_exactly_when_detected() {
    for nl in [c17(), s27()] {
        let sim = FiveSim::new(&nl);
        let ps = PatternSet::random(&nl, 16, 9);
        let faults = universe_stuck_at(&nl);
        let kernel = TapeKernel::compile(&nl);
        let good = kernel.eval_batch(&ps);
        let sets = kernel.detection_sets(&ps, &faults);
        let faulty = kernel.faulty_responses(&ps, &faults);
        for (i, &fault) in faults.iter().enumerate() {
            for (k, p) in ps.iter().enumerate() {
                assert_eq!(
                    faulty[i][k],
                    oracle::response(&sim, p, Some(fault)),
                    "{fault}"
                );
                let differs = good[k] != faulty[i][k];
                assert_eq!(differs, sets[i].contains(&(k as u32)), "{fault}");
            }
        }
    }
}
