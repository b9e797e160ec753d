//! Five-valued simulation with single-fault injection (the PODEM engine).

use dft_fault::{Fault, FaultSite};
use dft_netlist::{GateId, GateKind, Levelization, Logic, Netlist};

/// Five-valued full-pass simulator over the combinational view.
///
/// Given a (partial) assignment of the combinational sources and an
/// optional injected fault, computes the `Logic` value of every net in
/// Roth's D-calculus. ATPG reads fault-effect (`D`/`D̄`) reachability from
/// the result.
#[derive(Debug)]
pub struct FiveSim<'a> {
    nl: &'a Netlist,
    lv: Levelization,
    sources: Vec<GateId>,
    sinks: Vec<GateId>,
}

impl<'a> FiveSim<'a> {
    /// Builds a simulator for `nl`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational loop.
    pub fn new(nl: &'a Netlist) -> FiveSim<'a> {
        FiveSim {
            nl,
            lv: Levelization::compute(nl).expect("netlist must be acyclic"),
            sources: nl.combinational_sources(),
            sinks: nl.combinational_sinks(),
        }
    }

    /// The netlist this simulator works on.
    pub fn netlist(&self) -> &Netlist {
        self.nl
    }

    /// Sources in assignment order.
    pub fn sources(&self) -> &[GateId] {
        &self.sources
    }

    /// Sinks in observation order.
    pub fn sinks(&self) -> &[GateId] {
        &self.sinks
    }

    /// The evaluation order and gate levels [`FiveSim::simulate`] uses.
    pub fn levelization(&self) -> &Levelization {
        &self.lv
    }

    /// Simulates `assignment` (one `Logic` per source; `X` = unassigned)
    /// with `fault` injected (or fault-free if `None`). Returns the value
    /// of every net, indexed by `GateId`.
    pub fn simulate(&self, assignment: &[Logic], fault: Option<Fault>) -> Vec<Logic> {
        assert_eq!(assignment.len(), self.sources.len(), "assignment width");
        let mut vals = vec![Logic::X; self.nl.num_gates()];
        for (s, &g) in self.sources.iter().enumerate() {
            vals[g.index()] = self.source_value(s, assignment[s], fault);
        }
        let mut ins: Vec<Logic> = Vec::with_capacity(8);
        for &id in self.lv.order() {
            if matches!(self.nl.gate(id).kind, GateKind::Input | GateKind::Dff) {
                continue;
            }
            vals[id.index()] = self.eval(id, &vals, fault, &mut ins);
        }
        vals
    }

    /// The net value of source `s` when it is assigned `v`: `v` itself,
    /// or `v` with the stuck-at effect injected when `fault` is a stem
    /// fault on that source.
    #[inline]
    pub fn source_value(&self, s: usize, v: Logic, fault: Option<Fault>) -> Logic {
        match fault {
            Some(f) if f.site == FaultSite::output(self.sources[s]) => {
                inject(v, f.kind.stuck_value())
            }
            _ => v,
        }
    }

    /// The value of combinational gate `id` (not an `Input` or `Dff`)
    /// computed from its fanins' values in `vals`, with `fault` injected
    /// on its input pin or its output when the fault sits there. `ins` is
    /// scratch space for the fanin values.
    #[inline]
    pub fn eval(
        &self,
        id: GateId,
        vals: &[Logic],
        fault: Option<Fault>,
        ins: &mut Vec<Logic>,
    ) -> Logic {
        let g = self.nl.gate(id);
        ins.clear();
        ins.extend(g.fanins.iter().map(|&f| vals[f.index()]));
        match fault {
            Some(f) if f.site.gate == id => match f.site.pin {
                // Branch fault on one of this gate's pins.
                Some(pin) => {
                    ins[pin as usize] = inject(ins[pin as usize], f.kind.stuck_value());
                    Logic::eval_gate(g.kind, ins)
                }
                // Stem fault on this gate's output.
                None => inject(Logic::eval_gate(g.kind, ins), f.kind.stuck_value()),
            },
            _ => Logic::eval_gate(g.kind, ins),
        }
    }

    /// The observed value of sink `s` from a [`FiveSim::simulate`]
    /// result: a primary output's own value, or a flop's D-pin value
    /// with `fault` injected when it sits on that pin.
    #[inline]
    pub fn sink_value(&self, s: GateId, vals: &[Logic], fault: Option<Fault>) -> Logic {
        let g = self.nl.gate(s);
        if !matches!(g.kind, GateKind::Dff) {
            return vals[s.index()];
        }
        let v = vals[g.fanins[0].index()];
        match fault {
            Some(f) if f.site == FaultSite::input(s, 0) => inject(v, f.kind.stuck_value()),
            _ => v,
        }
    }

    /// `true` if any sink carries a fault effect (`D`/`D̄`) — i.e. the
    /// assignment is a test for the injected fault.
    pub fn fault_observed(&self, vals: &[Logic], fault: Option<Fault>) -> bool {
        self.sinks
            .iter()
            .any(|&s| self.sink_value(s, vals, fault).is_fault_effect())
    }
}

/// Injects a stuck-at effect into a good value: `D` when the good machine
/// drives 1 over a stuck-0, `D̄` for 0 over stuck-1, unchanged when the
/// good value equals the stuck value, `X` stays `X`.
#[inline]
fn inject(v: Logic, stuck: bool) -> Logic {
    match v.good() {
        Some(g) if g != stuck => {
            if g {
                Logic::D
            } else {
                Logic::Dbar
            }
        }
        Some(g) => Logic::from_bool(g),
        None => Logic::X,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::generators::c17;
    use dft_netlist::Netlist;

    #[test]
    fn fault_free_matches_boolean_semantics() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, vec![a, b], "g");
        nl.add_output(g, "po");
        let sim = FiveSim::new(&nl);
        let vals = sim.simulate(&[Logic::One, Logic::One], None);
        assert_eq!(vals[g.index()], Logic::One);
        let vals = sim.simulate(&[Logic::One, Logic::X], None);
        assert_eq!(vals[g.index()], Logic::X);
        let vals = sim.simulate(&[Logic::Zero, Logic::X], None);
        assert_eq!(vals[g.index()], Logic::Zero);
    }

    #[test]
    fn stem_fault_produces_d() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let inv = nl.add_gate(GateKind::Not, vec![a], "inv");
        nl.add_output(inv, "po");
        let sim = FiveSim::new(&nl);
        // inv SA0 with a=0: good inv=1, faulty 0 -> D at inv and PO.
        let f = Fault::stuck_at_output(inv, false);
        let vals = sim.simulate(&[Logic::Zero], Some(f));
        assert_eq!(vals[inv.index()], Logic::D);
        assert!(sim.fault_observed(&vals, Some(f)));
        // a=1: good inv=0 == stuck -> no effect.
        let vals = sim.simulate(&[Logic::One], Some(f));
        assert_eq!(vals[inv.index()], Logic::Zero);
        assert!(!sim.fault_observed(&vals, Some(f)));
    }

    #[test]
    fn pi_fault_injection() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let buf = nl.add_gate(GateKind::Buf, vec![a], "buf");
        nl.add_output(buf, "po");
        let sim = FiveSim::new(&nl);
        let f = Fault::stuck_at_output(a, true);
        let vals = sim.simulate(&[Logic::Zero], Some(f));
        assert_eq!(vals[a.index()], Logic::Dbar);
        assert_eq!(vals[buf.index()], Logic::Dbar);
    }

    #[test]
    fn branch_fault_stays_on_branch() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let and = nl.add_gate(GateKind::And, vec![a, b], "and");
        let or = nl.add_gate(GateKind::Or, vec![a, b], "or");
        nl.add_output(and, "po1");
        nl.add_output(or, "po2");
        let sim = FiveSim::new(&nl);
        let f = Fault::stuck_at_input(and, 0, true);
        let vals = sim.simulate(&[Logic::Zero, Logic::One], Some(f));
        // AND sees a=Dbar (good 0 / faulty 1), b=1 -> Dbar.
        assert_eq!(vals[and.index()], Logic::Dbar);
        // OR sees the true a=0, b=1 -> 1: unaffected.
        assert_eq!(vals[or.index()], Logic::One);
    }

    #[test]
    fn d_propagation_requires_noncontrolling_side_inputs() {
        let nl = c17();
        let sim = FiveSim::new(&nl);
        // G10 = NAND(G1, G3). Fault G1 SA0, set G1=1 -> G1 carries D.
        // With G3=X, NAND(D, X) = X (cannot conclude propagation).
        let g1 = nl.find("G1").unwrap();
        let g10 = nl.find("G10").unwrap();
        let f = Fault::stuck_at_output(g1, false);
        let mut asg = vec![Logic::X; 5];
        asg[0] = Logic::One; // G1 is the first input
        let vals = sim.simulate(&asg, Some(f));
        assert_eq!(vals[g1.index()], Logic::D);
        assert_eq!(vals[g10.index()], Logic::X);
        // Setting G3=1 lets the effect through: NAND(D,1) = Dbar.
        asg[2] = Logic::One; // G3 is the third input
        let vals = sim.simulate(&asg, Some(f));
        assert_eq!(vals[g10.index()], Logic::Dbar);
    }

    #[test]
    fn flop_d_pin_fault_observed_at_sink() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let q = nl.add_dff(a, "q");
        nl.add_output(q, "po");
        let sim = FiveSim::new(&nl);
        let f = Fault::stuck_at_input(q, 0, false);
        // a=1: D pin good 1, faulty 0 -> D observed at the flop sink.
        let vals = sim.simulate(&[Logic::One, Logic::X], Some(f));
        assert!(sim.fault_observed(&vals, Some(f)));
        let vals = sim.simulate(&[Logic::Zero, Logic::X], Some(f));
        assert!(!sim.fault_observed(&vals, Some(f)));
    }
}
