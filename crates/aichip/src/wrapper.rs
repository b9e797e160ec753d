//! IEEE-1500-style core test wrappers.
//!
//! Hierarchical test of replicated cores needs each core isolated behind
//! a *wrapper*: boundary cells on every functional input and output that
//! can (a) drive the core from the wrapper chain (INTEST), (b) observe
//! the surrounding logic (EXTEST), or (c) stay transparent in functional
//! mode. This module inserts gate-level wrapper boundary cells and models
//! the three modes.

use dft_netlist::{GateId, GateKind, Netlist};

/// Wrapper operating modes (subset of IEEE 1500).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrapperMode {
    /// Boundary cells transparent; core wired to its pins.
    Functional,
    /// Core driven/observed from the wrapper boundary register (core
    /// test).
    Intest,
    /// Pins driven/observed from the boundary register (interconnect
    /// test).
    Extest,
}

/// A wrapped core netlist plus its boundary bookkeeping.
#[derive(Debug)]
pub struct WrappedCore {
    /// The wrapped netlist: original core + boundary cells + control
    /// pins (`wmode0`, `wmode1` select the mode; `wbr_si` feeds the
    /// boundary shift chain, `wbr_so` observes it).
    pub netlist: Netlist,
    /// Boundary-register cells in chain order (input cells then output
    /// cells).
    pub boundary: Vec<GateId>,
    /// Gates added by wrapping.
    pub added_gates: usize,
}

/// Wraps `core`: every primary input gains an input boundary cell
/// (`MUX(intest, pin, wbr_q)` feeding the core), every primary output an
/// output boundary cell (a flop capturing the core output, exposed on a
/// new pin in EXTEST).
///
/// Mode encoding on (`wmode1`, `wmode0`): `00` functional, `01` INTEST,
/// `10` EXTEST.
pub fn wrap_core(core: &Netlist) -> WrappedCore {
    let mut nl = core.clone();
    let before = nl.num_gates();
    let intest = nl.add_input("wmode0");
    let _extest = nl.add_input("wmode1");
    let wbr_si = nl.add_input("wbr_si");

    let mut boundary = Vec::new();
    let mut prev = wbr_si;

    // Input boundary cells: core logic that read PI `p` now reads
    // MUX(intest, p, cell_q); the cell captures p (EXTEST observation)
    // and shifts via the boundary chain.
    let pis: Vec<GateId> = core.inputs().to_vec();
    for &pi in &pis {
        if pi == intest || pi == _extest || pi == wbr_si {
            continue;
        }
        let name = nl.gate(pi).name.clone();
        // Boundary cell: capture mux (shift vs capture) then flop.
        let cap_mux = nl.add_gate(
            GateKind::Mux2,
            vec![intest, pi, prev],
            &format!("wbi_cap_{name}"),
        );
        let cell = nl.add_dff(cap_mux, &format!("wbi_{name}"));
        // Core-side mux: functional -> pin, INTEST -> cell.
        let drive_mux = nl.add_gate(
            GateKind::Mux2,
            vec![intest, pi, cell],
            &format!("wbi_drv_{name}"),
        );
        // Rewire all ORIGINAL readers of the pin to the drive mux.
        let readers: Vec<GateId> = nl
            .gate(pi)
            .fanouts
            .iter()
            .copied()
            .filter(|&r| r != cap_mux && r != drive_mux)
            .collect();
        for r in readers {
            let pins: Vec<usize> = nl
                .gate(r)
                .fanins
                .iter()
                .enumerate()
                .filter(|&(_, &f)| f == pi)
                .map(|(i, _)| i)
                .collect();
            for pin in pins {
                nl.rewire_fanin(r, pin, drive_mux);
            }
        }
        boundary.push(cell);
        prev = cell;
    }

    // Output boundary cells: capture the core output; EXTEST exposes the
    // cell on a dedicated pin.
    let pos: Vec<GateId> = core.outputs().to_vec();
    for &po in &pos {
        let name = nl.gate(po).name.clone();
        let src = nl.gate(po).fanins[0];
        let cap_mux = nl.add_gate(
            GateKind::Mux2,
            vec![intest, src, prev],
            &format!("wbo_cap_{name}"),
        );
        let cell = nl.add_dff(cap_mux, &format!("wbo_{name}"));
        boundary.push(cell);
        prev = cell;
    }
    nl.add_output(prev, "wbr_so");

    WrappedCore {
        added_gates: nl.num_gates() - before,
        boundary,
        netlist: nl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_logicsim::{PatternSet, SimKernel, TapeKernel};
    use dft_netlist::generators::{mac_pe, ripple_adder};
    use dft_netlist::Levelization;

    #[test]
    fn wrapping_preserves_functional_mode() {
        let core = ripple_adder(4);
        let wrapped = wrap_core(&core);
        wrapped.netlist.validate().unwrap();
        Levelization::compute(&wrapped.netlist).unwrap();
        let ps = PatternSet::random(&core, 32, 7);
        // Wrapped pattern: original PIs, then wmode0=0, wmode1=0,
        // wbr_si=0, then boundary flop states (X -> 0).
        let wrapped_ps: PatternSet = ps
            .iter()
            .map(|p| {
                let mut wp = p.clone();
                wp.resize(
                    wrapped.netlist.num_inputs() + wrapped.netlist.num_dffs(),
                    false,
                );
                wp
            })
            .collect();
        let r_core = TapeKernel::compile(&core).eval_batch(&ps);
        let r_wrap = TapeKernel::compile(&wrapped.netlist).eval_batch(&wrapped_ps);
        for (c, w) in r_core.iter().zip(&r_wrap) {
            // Original PO responses are the prefix of the wrapped ones.
            assert_eq!(&w[..c.len()], &c[..]);
        }
    }

    #[test]
    fn boundary_chain_covers_all_pins() {
        let core = mac_pe(4);
        let wrapped = wrap_core(&core);
        // 9 functional inputs (a0..3, b0..3, clr) + outputs.
        assert_eq!(
            wrapped.boundary.len(),
            core.num_inputs() + core.num_outputs()
        );
        assert!(wrapped.netlist.find("wbr_so").is_some());
    }

    #[test]
    fn intest_isolates_core_from_pins() {
        // In INTEST the core input comes from the boundary cell, not the
        // pin: changing the pin must not change the core result.
        let core = ripple_adder(2);
        let wrapped = wrap_core(&core);
        let nl = &wrapped.netlist;
        let width = nl.num_inputs() + nl.num_dffs();
        let wmode0 = nl.find("wmode0").unwrap();
        let sources = nl.combinational_sources();
        let idx_of = |g| sources.iter().position(|&s| s == g).unwrap();
        let mut p1 = vec![false; width];
        p1[idx_of(wmode0)] = true; // INTEST
        let mut p2 = p1.clone();
        // Flip every functional pin in p2.
        for &pi in core.inputs() {
            let i = idx_of(nl.find(&core.gate(pi).name).unwrap());
            p2[i] = true;
        }
        let r = TapeKernel::compile(nl).eval_batch(&[p1, p2].into_iter().collect());
        let (r1, r2) = (&r[0], &r[1]);
        // Core POs (prefix) must be identical: the pins are isolated.
        assert_eq!(&r1[..core.num_outputs()], &r2[..core.num_outputs()]);
    }
}
