//! Good-machine simulation on the tape: [`SimKernel::eval_batch`].

use dft_netlist::generators::{c17, ripple_adder};
use dft_netlist::{GateKind, Netlist};

use crate::{oracle, FiveSim, Pattern, PatternSet, Response, SimKernel, TapeKernel};

/// The tape's response to one pattern.
fn simulate(nl: &Netlist, p: Pattern) -> Response {
    let ps: PatternSet = std::iter::once(p).collect();
    TapeKernel::compile(nl).eval_batch(&ps).swap_remove(0)
}

#[test]
fn c17_known_vector() {
    let nl = c17();
    // All inputs 1: G10 = NAND(1,1)=0, G11=0, G16=NAND(1,0)=1,
    // G19=NAND(0,1)=1, G22=NAND(0,1)=1, G23=NAND(1,1)=0.
    assert_eq!(simulate(&nl, vec![true; 5]), vec![true, false]);
    // All inputs 0: G10=1, G11=1, G16=NAND(0,1)=1, G19=NAND(1,0)=1,
    // G22=NAND(1,1)=0, G23=0... NAND(1,1)=0 -> [false,false].
    assert_eq!(simulate(&nl, vec![false; 5]), vec![false, false]);
}

#[test]
fn bit_parallel_matches_scalar() {
    let nl = ripple_adder(8);
    let sim = FiveSim::new(&nl);
    // 300 patterns: one full 256-wide block plus a partial one.
    let set = PatternSet::random(&nl, 300, 99);
    let parallel = TapeKernel::compile(&nl).eval_batch(&set);
    for (i, p) in set.iter().enumerate() {
        assert_eq!(parallel[i], oracle::response(&sim, p, None), "pattern {i}");
    }
}

#[test]
fn adder_block_arithmetic() {
    let nl = ripple_adder(8);
    // sources are a0..a7, b0..b7, cin in creation order.
    let set = PatternSet::random(&nl, 64, 5);
    let responses = TapeKernel::compile(&nl).eval_batch(&set);
    for (p, r) in set.iter().zip(&responses) {
        let a: u64 = (0..8).map(|i| (p[i] as u64) << i).sum();
        let b: u64 = (0..8).map(|i| (p[8 + i] as u64) << i).sum();
        let cin = p[16] as u64;
        let sum: u64 = (0..8).map(|i| (r[i] as u64) << i).sum::<u64>() + ((r[8] as u64) << 8);
        assert_eq!(sum, a + b + cin);
    }
}

#[test]
fn dff_sink_reads_d_pin() {
    let mut nl = Netlist::new("seq");
    let a = nl.add_input("a");
    let inv = nl.add_gate(GateKind::Not, vec![a], "inv");
    let q = nl.add_dff(inv, "q");
    nl.add_output(q, "po");
    // Pattern: [a, q]. Response: [po, q_dpin].
    let resp = simulate(&nl, vec![true, false]);
    assert!(!resp[0]); // po reflects current q
    assert!(!resp[1]); // D pin = !a = 0
    let resp = simulate(&nl, vec![false, true]);
    assert!(resp[0]);
    assert!(resp[1]);
}
