//! Bridge-defect diagnosis.
//!
//! Single stuck-at candidates cannot explain a short between two nets —
//! the telltale is a log where no stuck-at candidate is exact. The
//! standard second pass pairs the nets of the best stuck-at candidates
//! and scores the four bridge models per pair.

use dft_fault::{BridgeFault, BridgeKind, Fault};
use dft_logicsim::{PatternSet, SimKernel, TapeKernel};
use dft_netlist::{GateId, GateKind, Netlist};

use crate::score::Observed;
use crate::{build_failure_log, FailureLog, PatternFail};

/// A scored bridge candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeCandidate {
    /// The candidate short.
    pub bridge: BridgeFault,
    /// Predicted-and-observed failing patterns.
    pub tfsf: u32,
    /// Predicted-but-not-observed failures.
    pub tpsf: u32,
    /// Observed-but-not-predicted failures.
    pub tfsp: u32,
}

impl BridgeCandidate {
    /// Same composite weighting as stuck-at candidates.
    pub fn score(&self) -> i64 {
        self.tfsf as i64 * 4 - self.tfsp as i64 * 2 - self.tpsf as i64
    }

    /// `true` when the candidate explains the log perfectly.
    pub fn is_exact(&self) -> bool {
        self.tpsf == 0 && self.tfsp == 0 && self.tfsf > 0
    }
}

/// Builds a failure log for an injected bridge defect (the synthetic
/// tester datalog for bridge experiments).
pub fn build_bridge_failure_log(
    nl: &Netlist,
    patterns: &PatternSet,
    defect: BridgeFault,
) -> FailureLog {
    build_failure_log(nl, patterns, defect)
}

/// Diagnoses a log allowing bridge candidates: runs stuck-at diagnosis
/// first, then pairs the nets of the top `pair_pool` single-net
/// candidates and scores all four bridge models for each pair. Returns
/// bridge candidates sorted best-first.
pub fn diagnose_bridges(
    nl: &Netlist,
    patterns: &PatternSet,
    log: &FailureLog,
    pair_pool: usize,
    top_k: usize,
) -> Vec<BridgeCandidate> {
    if log.is_clean() {
        return Vec::new();
    }
    // Pool of suspect nets via SLAT (single-location-at-a-time): a
    // bridge's failures span two cones, so the all-patterns structural
    // screen used for stuck-at candidates rejects the true nets. Instead,
    // each failing pattern votes for the nets whose single stuck-at
    // reproduces *exactly* that pattern's failing-sink set; the two
    // bridged nets each explain the cycles on which they are the active
    // victim. The sampled patterns are simulated as one batch.
    let kernel = TapeKernel::compile(nl);
    let net_candidates: Vec<GateId> = nl
        .iter()
        .filter(|(_, g)| g.kind.is_logic() || matches!(g.kind, GateKind::Input | GateKind::Dff))
        .map(|(id, _)| id)
        .collect();
    let fail_sample: Vec<&PatternFail> = log.fails.iter().take(32).collect();
    let sample: PatternSet = fail_sample
        .iter()
        .map(|f| patterns.pattern(f.pattern as usize).clone())
        .collect();
    let good = kernel.eval_batch(&sample);
    let mut votes: Vec<(usize, GateId)> = Vec::new();
    // Chunked so the faulty responses held at once stay bounded on
    // large designs.
    for nets in net_candidates.chunks(64) {
        let faults: Vec<Fault> = nets
            .iter()
            .flat_map(|&net| [false, true].map(|v| Fault::stuck_at_output(net, v)))
            .collect();
        let faulty = kernel.faulty_responses(&sample, &faults);
        for (&net, per_value) in nets.iter().zip(faulty.chunks(2)) {
            let count = fail_sample
                .iter()
                .enumerate()
                .filter(|&(k, fail)| {
                    per_value.iter().any(|responses| {
                        let (g, f) = (&good[k], &responses[k]);
                        g != f
                            && (0..g.len())
                                .all(|s| (g[s] != f[s]) == fail.failing_sinks.contains(&(s as u32)))
                    })
                })
                .count();
            if count > 0 {
                votes.push((count, net));
            }
        }
    }
    votes.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut nets: Vec<GateId> = votes
        .into_iter()
        .take(pair_pool)
        .map(|(_, id)| id)
        .collect();
    nets.sort_unstable();
    nets.dedup();

    let mut bridges = Vec::new();
    for (i, &a) in nets.iter().enumerate() {
        for &b in nets.iter().skip(i + 1) {
            if nl.gate(b).fanins.contains(&a) || nl.gate(a).fanins.contains(&b) {
                continue;
            }
            bridges.extend(BridgeKind::ALL.map(|kind| BridgeFault { a, b, kind }));
        }
    }
    let observed = Observed::new(log, patterns.len());
    let mut out: Vec<BridgeCandidate> = kernel
        .detection_sets(patterns, &bridges)
        .iter()
        .zip(bridges)
        .map(|(predicted, bridge)| {
            let (tfsf, tpsf, tfsp) = observed.match_counts(predicted);
            BridgeCandidate {
                bridge,
                tfsf,
                tpsf,
                tfsp,
            }
        })
        .collect();
    out.sort_by_key(|c| std::cmp::Reverse(c.score()));
    out.truncate(top_k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::generators::ripple_adder;

    #[test]
    fn injected_bridge_is_top_candidate() {
        let nl = ripple_adder(6);
        let patterns = PatternSet::random(&nl, 128, 0xB12);
        // Pick two unrelated internal nets.
        let a = nl.find("add_fa1_axb").unwrap();
        let b = nl.find("add_fa4_t2").unwrap();
        let defect = BridgeFault {
            a,
            b,
            kind: BridgeKind::WiredOr,
        };
        let log = build_bridge_failure_log(&nl, &patterns, defect);
        assert!(!log.is_clean(), "bridge must fail some patterns");
        let cands = diagnose_bridges(&nl, &patterns, &log, 12, 8);
        assert!(!cands.is_empty());
        let best = cands[0].score();
        let found = cands
            .iter()
            .take_while(|c| c.score() == best)
            .any(|c| c.bridge.a == a && c.bridge.b == b);
        assert!(found, "injected bridge not among best: {cands:?}");
    }

    #[test]
    fn bridge_log_matches_detection() {
        let nl = ripple_adder(4);
        let patterns = PatternSet::random(&nl, 48, 0xB13);
        let a = nl.find("add_fa0_s").unwrap();
        let b = nl.find("add_fa2_t2").unwrap();
        let defect = BridgeFault {
            a,
            b,
            kind: BridgeKind::WiredAnd,
        };
        let log = build_bridge_failure_log(&nl, &patterns, defect);
        let failing: Vec<u32> = log.fails.iter().map(|f| f.pattern).collect();
        let detecting = TapeKernel::compile(&nl).detection_sets(&patterns, &[defect]);
        assert_eq!(failing, detecting[0]);
    }
}
