//! Effect-cause candidate extraction and per-pattern match scoring.

use dft_fault::{universe_stuck_at, Fault};
use dft_logicsim::{PatternSet, SimKernel, TapeKernel};
use dft_netlist::{output_cone_map, Netlist};

use crate::FailureLog;

/// A ranked diagnosis candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The candidate fault.
    pub fault: Fault,
    /// Failing observations the candidate predicts and the log confirms
    /// ("tester fail, simulation fail").
    pub tfsf: u32,
    /// Predicted failures the log does not show ("tester pass, simulation
    /// fail") — evidence against.
    pub tpsf: u32,
    /// Logged failures the candidate cannot explain ("tester fail,
    /// simulation pass") — strong evidence against.
    pub tfsp: u32,
}

impl Candidate {
    /// Composite ranking score: reward explained failures, punish
    /// mispredictions (the standard effect-cause weighting).
    pub fn score(&self) -> i64 {
        self.tfsf as i64 * 4 - self.tfsp as i64 * 2 - self.tpsf as i64
    }

    /// A perfect candidate predicts exactly the observed failures.
    pub fn is_exact(&self) -> bool {
        self.tpsf == 0 && self.tfsp == 0 && self.tfsf > 0
    }
}

/// Diagnoses a failure log against the full single stuck-at universe of
/// `nl`, returning up to `top_k` candidates, best first.
pub fn diagnose(
    nl: &Netlist,
    patterns: &PatternSet,
    log: &FailureLog,
    top_k: usize,
) -> Vec<Candidate> {
    diagnose_universe(nl, patterns, log, universe_stuck_at(nl), top_k)
}

/// [`diagnose`] with a caller-supplied candidate universe (e.g. collapsed
/// or cone-restricted).
pub fn diagnose_universe(
    nl: &Netlist,
    patterns: &PatternSet,
    log: &FailureLog,
    universe: Vec<Fault>,
    top_k: usize,
) -> Vec<Candidate> {
    if log.is_clean() {
        return Vec::new();
    }
    // 1. Structural screen: the candidate's net must reach every failing
    // sink.
    let cone_map = output_cone_map(nl);
    let failing_sinks = log.failing_sink_union();
    let structural: Vec<Fault> = universe
        .into_iter()
        .filter(|f| {
            let net = f.site.net(nl);
            failing_sinks.iter().all(|&s| {
                let w = (s / 64) as usize;
                let b = s % 64;
                (cone_map[net.index()][w] >> b) & 1 == 1
            })
        })
        .collect();

    // 2. Per-pattern simulation scoring.
    let observed = Observed::new(log, patterns.len());
    let kernel = TapeKernel::compile(nl);
    let mut scored: Vec<Candidate> = kernel
        .detection_sets(patterns, &structural)
        .iter()
        .zip(&structural)
        .map(|(predicted, &fault)| {
            let (tfsf, tpsf, tfsp) = observed.match_counts(predicted);
            Candidate {
                fault,
                tfsf,
                tpsf,
                tfsp,
            }
        })
        .collect();
    scored.sort_by_key(|c| std::cmp::Reverse(c.score()));
    scored.truncate(top_k);
    scored
}

/// The failing patterns of a log, as a per-pattern flag over the applied
/// set (log entries outside it are ignored).
pub(crate) struct Observed {
    failing: Vec<bool>,
    count: u32,
}

impl Observed {
    pub(crate) fn new(log: &FailureLog, patterns: usize) -> Observed {
        let mut failing = vec![false; patterns];
        for f in &log.fails {
            if let Some(flag) = failing.get_mut(f.pattern as usize) {
                *flag = true;
            }
        }
        let count = failing.iter().filter(|&&f| f).count() as u32;
        Observed { failing, count }
    }

    /// `(tfsf, tpsf, tfsp)` of a candidate that fails exactly the
    /// `predicted` patterns.
    pub(crate) fn match_counts(&self, predicted: &[u32]) -> (u32, u32, u32) {
        let tfsf = predicted
            .iter()
            .filter(|&&p| self.failing[p as usize])
            .count() as u32;
        (tfsf, predicted.len() as u32 - tfsf, self.count - tfsf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_failure_log;
    use dft_netlist::generators::{c17, ripple_adder};

    #[test]
    fn injected_stem_fault_ranks_first_or_equivalent() {
        let nl = c17();
        let ps = PatternSet::random(&nl, 64, 5);
        for &defect in universe_stuck_at(&nl).iter() {
            let log = build_failure_log(&nl, &ps, defect);
            if log.is_clean() {
                continue;
            }
            let cands = diagnose(&nl, &ps, &log, 5);
            assert!(!cands.is_empty(), "{defect}: no candidates");
            let top = &cands[0];
            assert!(top.is_exact(), "{defect}: top candidate not exact");
            // The true defect must be among the exact top candidates
            // (equivalent faults are indistinguishable — accept any
            // candidate with the same score as containing set).
            let best = cands[0].score();
            assert!(
                cands
                    .iter()
                    .take_while(|c| c.score() == best)
                    .any(|c| c.fault == defect),
                "{defect} not among best candidates: {cands:?}"
            );
        }
    }

    #[test]
    fn clean_log_yields_no_candidates() {
        let nl = c17();
        let ps = PatternSet::random(&nl, 8, 1);
        let log = FailureLog::default();
        assert!(diagnose(&nl, &ps, &log, 5).is_empty());
    }

    #[test]
    fn structural_screen_prunes_unrelated_logic() {
        // In an adder, a defect on the LSB full adder cannot be blamed on
        // nets that only reach higher-order sums... conversely a candidate
        // that reaches no failing sink must be pruned.
        let nl = ripple_adder(8);
        let ps = PatternSet::random(&nl, 64, 11);
        let s0 = nl.find("add_fa0_s").unwrap();
        let defect = Fault::stuck_at_output(s0, true);
        let log = build_failure_log(&nl, &ps, defect);
        let cands = diagnose(&nl, &ps, &log, 50);
        // Every candidate must reach the failing sinks: s0's cone is just
        // the s0 output, so candidates live in fa0's cone.
        for c in &cands {
            let name = &nl.gate(c.fault.site.gate).name;
            assert!(
                name.contains("fa0")
                    || name.starts_with('a')
                    || name.starts_with('b')
                    || name == "cin"
                    || name.contains("_po")
                    || name.starts_with('s'),
                "implausible candidate {name}"
            );
        }
        assert!(cands.iter().any(|c| c.fault == defect));
    }

    #[test]
    fn scoring_prefers_exact_over_partial() {
        let c_exact = Candidate {
            fault: Fault::stuck_at_output(dft_netlist::GateId(0), false),
            tfsf: 10,
            tpsf: 0,
            tfsp: 0,
        };
        let c_partial = Candidate {
            fault: Fault::stuck_at_output(dft_netlist::GateId(1), false),
            tfsf: 10,
            tpsf: 3,
            tfsp: 1,
        };
        assert!(c_exact.score() > c_partial.score());
        assert!(c_exact.is_exact());
        assert!(!c_partial.is_exact());
    }
}
