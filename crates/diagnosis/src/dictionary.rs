//! Fault-dictionary (cause-effect) diagnosis.
//!
//! The historical alternative to effect-cause: pre-simulate every fault
//! against the production pattern set and store each fault's *signature*
//! (its set of failing patterns). Diagnosis is then a lookup. Dictionaries
//! give instant, high-quality matches but their size scales as
//! `faults x patterns` (the reason industry moved to effect-cause for
//! volume diagnosis) — both properties are measurable here.

use std::collections::HashMap;

use dft_fault::Fault;
use dft_logicsim::{PatternSet, SimKernel, TapeKernel};
use dft_netlist::Netlist;

use crate::FailureLog;

/// A pass/fail fault dictionary.
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    faults: Vec<Fault>,
    /// Failing-pattern list per fault (sorted).
    signatures: Vec<Vec<u32>>,
    /// Pattern count the dictionary was built for.
    patterns: usize,
    /// Exact-signature index.
    index: HashMap<Vec<u32>, Vec<usize>>,
}

impl FaultDictionary {
    /// Pre-simulates `universe` against `patterns` (no fault dropping)
    /// and builds the dictionary.
    pub fn build(nl: &Netlist, patterns: &PatternSet, universe: Vec<Fault>) -> FaultDictionary {
        let signatures = TapeKernel::compile(nl).detection_sets(patterns, &universe);
        let mut index: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for (i, sig) in signatures.iter().enumerate() {
            index.entry(sig.clone()).or_default().push(i);
        }
        FaultDictionary {
            faults: universe,
            signatures,
            patterns: patterns.len(),
            index,
        }
    }

    /// Number of dictionary entries.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of distinct signatures: faults sharing one are
    /// indistinguishable by this pattern set.
    pub fn num_classes(&self) -> usize {
        self.index.len()
    }

    /// Storage cost of the pass/fail dictionary in bits
    /// (`faults x patterns` — the classic blowup figure).
    pub fn size_bits(&self) -> u64 {
        self.faults.len() as u64 * self.patterns as u64
    }

    /// Looks up a failure log: returns the faults whose signature matches
    /// the observed failing-pattern set exactly, or — when no exact entry
    /// exists — the entries at minimum symmetric-difference distance.
    /// The second tuple element is that distance (0 = exact).
    pub fn lookup(&self, log: &FailureLog) -> (Vec<Fault>, usize) {
        let mut observed: Vec<u32> = log.fails.iter().map(|f| f.pattern).collect();
        observed.sort_unstable();
        observed.dedup();
        if let Some(hits) = self.index.get(&observed) {
            return (hits.iter().map(|&i| self.faults[i]).collect(), 0);
        }
        // Nearest-match fallback.
        let mut best_d = usize::MAX;
        let mut best: Vec<Fault> = Vec::new();
        for (i, sig) in self.signatures.iter().enumerate() {
            let d = symmetric_difference(sig, &observed);
            if d < best_d {
                best_d = d;
                best.clear();
                best.push(self.faults[i]);
            } else if d == best_d {
                best.push(self.faults[i]);
            }
        }
        (best, best_d)
    }
}

/// |a Δ b| for sorted slices.
fn symmetric_difference(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut d) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                d += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                d += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    d + (a.len() - i) + (b.len() - j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_failure_log;
    use dft_fault::universe_stuck_at;
    use dft_netlist::generators::{c17, mac_pe};

    #[test]
    fn exact_lookup_finds_injected_fault() {
        let nl = c17();
        let ps = PatternSet::random(&nl, 48, 0xD1C);
        let universe = universe_stuck_at(&nl);
        let dict = FaultDictionary::build(&nl, &ps, universe.clone());
        for &defect in &universe {
            let log = build_failure_log(&nl, &ps, defect);
            if log.is_clean() {
                continue;
            }
            let (hits, dist) = dict.lookup(&log);
            assert_eq!(dist, 0, "{defect}: expected an exact entry");
            assert!(hits.contains(&defect), "{defect} missing from {hits:?}");
        }
    }

    #[test]
    fn equivalent_faults_share_entries() {
        // Faults in one equivalence class have identical signatures and
        // must land in the same dictionary bucket.
        use dft_fault::collapse_equivalent;
        let nl = c17();
        let ps = PatternSet::random(&nl, 48, 0xD1D);
        let universe = universe_stuck_at(&nl);
        let col = collapse_equivalent(&nl, &universe);
        let dict = FaultDictionary::build(&nl, &ps, universe.clone());
        for &f in universe.iter().take(20) {
            let rep = col.representative(f);
            if rep == f {
                continue;
            }
            let log = build_failure_log(&nl, &ps, f);
            if log.is_clean() {
                continue;
            }
            let (hits, _) = dict.lookup(&log);
            assert!(hits.contains(&rep), "class mates split: {f} vs {rep}");
        }
    }

    #[test]
    fn nearest_match_degrades_gracefully() {
        // A log corrupted by one extra failing pattern still resolves to
        // the right neighborhood.
        let nl = c17();
        let ps = PatternSet::random(&nl, 48, 0xD1E);
        let universe = universe_stuck_at(&nl);
        let dict = FaultDictionary::build(&nl, &ps, universe.clone());
        let defect = universe[7];
        let mut log = build_failure_log(&nl, &ps, defect);
        if log.is_clean() {
            return;
        }
        // Corrupt: add a phantom failing pattern index not already there.
        let phantom = (0..48u32)
            .find(|p| !log.fails.iter().any(|f| f.pattern == *p))
            .unwrap();
        log.fails.push(crate::PatternFail {
            pattern: phantom,
            failing_sinks: vec![0],
        });
        let (hits, dist) = dict.lookup(&log);
        assert!(dist >= 1);
        assert!(
            hits.contains(&defect) || dist <= 2,
            "corrupted log resolved too far: dist {dist}"
        );
    }

    #[test]
    fn dictionary_size_blowup_is_measurable() {
        let nl = mac_pe(4);
        let ps = PatternSet::random(&nl, 128, 1);
        let universe = universe_stuck_at(&nl);
        let n_faults = universe.len();
        let dict = FaultDictionary::build(&nl, &ps, universe);
        assert_eq!(dict.size_bits(), n_faults as u64 * 128);
        assert!(!dict.is_empty());
        assert_eq!(dict.len(), n_faults);
    }
}
