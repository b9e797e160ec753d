//! COP-guided test-point insertion for logic BIST.
//!
//! Control points raise the probability of reaching hard-to-control
//! values; observe points make buried nets directly visible. Both are
//! inserted at the nets with the worst COP detectability, the standard
//! LBIST coverage lever (experiment E5 ablation).

use dft_logicsim::testability::cop;
use dft_netlist::{GateId, GateKind, Netlist};

/// The flavour of an inserted test point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestPointKind {
    /// An extra primary output observing the net.
    Observe,
    /// `OR(net, ctl)` control point: a new input can force the net to 1.
    ControlOne,
    /// `AND(net, !ctl)` control point: a new input can force the net to 0.
    ControlZero,
}

/// One inserted test point.
#[derive(Debug, Clone, Copy)]
pub struct TestPoint {
    /// The net the point was attached to (original netlist id).
    pub net: GateId,
    /// What was inserted.
    pub kind: TestPointKind,
}

/// Summary of a test-point insertion pass.
#[derive(Debug, Clone)]
pub struct TestPointReport {
    /// Points inserted, in selection order (worst detectability first).
    pub points: Vec<TestPoint>,
    /// Gates added to the netlist.
    pub added_gates: usize,
}

/// Inserts up to `budget` test points into a copy of `nl`, selected by
/// ascending COP detectability. Returns the modified netlist and a
/// report.
///
/// Control inputs are new primary inputs named `tp_ctl{i}`; during BIST
/// they are driven by the PRPG like any other input, and during
/// functional mode they are tied inactive (0), which the inserted gate
/// structure makes transparent.
pub fn insert_test_points(nl: &Netlist, budget: usize) -> (Netlist, TestPointReport) {
    let measures = cop(nl);
    // Score every logic net by its worst-case stuck-at detectability.
    let mut scored: Vec<(f64, GateId)> = nl
        .iter()
        .filter(|(_, g)| g.kind.is_logic() || matches!(g.kind, GateKind::Input | GateKind::Dff))
        .map(|(id, _)| {
            let d0 = measures.detectability(id, false);
            let d1 = measures.detectability(id, true);
            (d0.min(d1), id)
        })
        .collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

    let mut out = nl.clone();
    let before = out.num_gates();
    let mut points = Vec::new();
    for &(_, net) in scored.iter().take(budget) {
        let obs = measures.obs[net.index()];
        // Controllability lever: a control point on a non-PI net lets the
        // PRPG drive the net towards the value its readers need
        // (non-controlling side inputs), which is where random-resistant
        // structures like decoders lose coverage. Polarity follows the
        // majority non-controlling value of the readers.
        let is_pi = matches!(nl.gate(net).kind, GateKind::Input);
        if !is_pi {
            let mut want_one = 0i32;
            for &r in &nl.gate(net).fanouts {
                if let Some(cv) = nl.gate(r).kind.controlling_value() {
                    if cv {
                        want_one -= 1; // OR-family: non-controlling is 0
                    } else {
                        want_one += 1; // AND-family: non-controlling is 1
                    }
                }
            }
            let kind = if want_one >= 0 {
                TestPointKind::ControlOne
            } else {
                TestPointKind::ControlZero
            };
            let ctl = out.add_input(&format!("tp_ctl{}", points.len()));
            let cp = match kind {
                TestPointKind::ControlOne => out.add_gate(
                    GateKind::Or,
                    vec![net, ctl],
                    &format!("tp_or{}", points.len()),
                ),
                _ => {
                    let inv =
                        out.add_gate(GateKind::Not, vec![ctl], &format!("tp_inv{}", points.len()));
                    out.add_gate(
                        GateKind::And,
                        vec![net, inv],
                        &format!("tp_and{}", points.len()),
                    )
                }
            };
            rewire_readers(&mut out, net, cp);
            points.push(TestPoint { net, kind });
        }
        // Observability weakness: make the (raw) net directly visible.
        // Inserted after the control point so the observe marker sees the
        // fault site itself rather than the gated copy.
        if obs < 0.9 {
            out.add_output(net, &format!("tp_obs{}", points.len()));
            points.push(TestPoint {
                net,
                kind: TestPointKind::Observe,
            });
        }
    }
    let added = out.num_gates() - before;
    (
        out,
        TestPointReport {
            points,
            added_gates: added,
        },
    )
}

/// Rewires every reader of `net` (except the new control-point gate
/// itself) to read `replacement`.
fn rewire_readers(nl: &mut Netlist, net: GateId, replacement: GateId) {
    let readers: Vec<GateId> = nl
        .gate(net)
        .fanouts
        .iter()
        .copied()
        .filter(|&r| r != replacement)
        .collect();
    for r in readers {
        let pins: Vec<usize> = nl
            .gate(r)
            .fanins
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f == net)
            .map(|(i, _)| i)
            .collect();
        for pin in pins {
            nl.rewire_fanin(r, pin, replacement);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicBist;
    use dft_netlist::generators::decoder;
    use dft_netlist::Levelization;

    #[test]
    fn insertion_preserves_structure() {
        let nl = decoder(5);
        let (tp, report) = insert_test_points(&nl, 8);
        tp.validate().unwrap();
        Levelization::compute(&tp).unwrap();
        // Up to two physical points (control + observe) per selected net.
        assert!(report.points.len() >= 8 && report.points.len() <= 16);
        assert!(report.added_gates >= 8);
    }

    #[test]
    fn control_points_are_transparent_when_inactive() {
        use dft_logicsim::{PatternSet, SimKernel, TapeKernel};
        let nl = decoder(4);
        let (tp, _) = insert_test_points(&nl, 6);
        let ps = PatternSet::random(&nl, 32, 3);
        // Extend each pattern with 0s for the new tp_ctl inputs.
        let ps_tp: PatternSet = ps
            .iter()
            .map(|p| {
                let mut p2 = p.clone();
                p2.resize(tp.num_inputs() + tp.num_dffs(), false);
                p2
            })
            .collect();
        let orig = TapeKernel::compile(&nl).eval_batch(&ps);
        let pointed = TapeKernel::compile(&tp).eval_batch(&ps_tp);
        for (r1, r2) in orig.iter().zip(&pointed) {
            // Original outputs are a prefix of the test-pointed outputs
            // (observe points appended after).
            assert_eq!(&r2[..r1.len()], &r1[..], "functional change!");
        }
    }

    #[test]
    fn test_points_lift_random_coverage() {
        let nl = decoder(6);
        let base = LogicBist::new(&nl, 32).run(512, 0xE5);
        let (tp, _) = insert_test_points(&nl, 12);
        let boosted = LogicBist::new(&tp, 32).run(512, 0xE5);
        assert!(
            boosted.coverage > base.coverage,
            "base {} boosted {}",
            base.coverage,
            boosted.coverage
        );
    }
}
