//! Scalar reference for the tape's tests: one pattern at a time through
//! [`FiveSim`], the five-valued simulator PODEM runs on, which shares no
//! code with the tape. Bridges, which `FiveSim` cannot inject, get a
//! plain level-order evaluation with both nets pinned.

use dft_fault::{BridgeFault, Fault, FaultKind};
use dft_netlist::{GateKind, Levelization, Logic};

use crate::{FiveSim, Pattern, Response};

fn simulate(sim: &FiveSim<'_>, p: &Pattern, fault: Option<Fault>) -> Vec<Logic> {
    let asg: Vec<Logic> = p.iter().map(|&b| Logic::from_bool(b)).collect();
    sim.simulate(&asg, fault)
}

/// The response to `p` with `fault` injected (good machine for `None`).
pub(crate) fn response(sim: &FiveSim<'_>, p: &Pattern, fault: Option<Fault>) -> Response {
    let vals = simulate(sim, p, fault);
    sim.sinks()
        .iter()
        .map(|&s| {
            let v = sim.sink_value(s, &vals, fault);
            v.faulty().expect("fully specified pattern")
        })
        .collect()
}

/// Does `p` detect `fault`?
pub(crate) fn detects(sim: &FiveSim<'_>, p: &Pattern, fault: Fault) -> bool {
    sim.fault_observed(&simulate(sim, p, Some(fault)), Some(fault))
}

/// Does the pair `(launch, capture)` detect transition fault `fault`?
/// The site must hold the pre-transition value under `launch`, and the
/// fault acts as a stuck-at under `capture`.
pub(crate) fn detects_transition(
    sim: &FiveSim<'_>,
    launch: &Pattern,
    capture: &Pattern,
    fault: Fault,
) -> bool {
    let want = fault.kind.launch_value().expect("transition fault");
    let site = fault.site.net(sim.netlist());
    let stuck = Fault {
        site: fault.site,
        kind: if fault.kind.stuck_value() {
            FaultKind::StuckAt1
        } else {
            FaultKind::StuckAt0
        },
    };
    simulate(sim, launch, None)[site.index()] == Logic::from_bool(want)
        && detects(sim, capture, stuck)
}

/// The response to `p` with `bridge` injected: a level-order evaluation
/// in which both bridged nets hold their bridged values.
pub(crate) fn bridge_response(sim: &FiveSim<'_>, p: &Pattern, bridge: BridgeFault) -> Response {
    let nl = sim.netlist();
    let good = simulate(sim, p, None);
    let bit = |v: Logic| u64::from(v == Logic::One);
    let (fa, fb) = bridge.faulty_words(bit(good[bridge.a.index()]), bit(good[bridge.b.index()]));
    let mut vals: Vec<u64> = good.iter().map(|&v| bit(v)).collect();
    vals[bridge.a.index()] = fa;
    vals[bridge.b.index()] = fb;
    for &id in Levelization::compute(nl).unwrap().order() {
        let g = nl.gate(id);
        if id == bridge.a || id == bridge.b || matches!(g.kind, GateKind::Input | GateKind::Dff) {
            continue;
        }
        let ins: Vec<u64> = g.fanins.iter().map(|f| vals[f.index()]).collect();
        vals[id.index()] = g.kind.eval_word(&ins) & 1;
    }
    sim.sinks()
        .iter()
        .map(|&s| {
            let g = nl.gate(s);
            let net = if matches!(g.kind, GateKind::Dff) {
                g.fanins[0]
            } else {
                s
            };
            vals[net.index()] == 1
        })
        .collect()
}
