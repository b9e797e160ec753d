//! Test-set compaction.
//!
//! * **Static compaction** ([`compact_cubes`]): greedy merging of
//!   compatible test cubes before random fill — the classic post-ATPG
//!   pass.
//! * **Reverse-order pattern compaction**
//!   ([`reverse_order_compaction`]): fault-simulate the final pattern set
//!   in reverse order and drop patterns that detect nothing new.

use dft_fault::FaultList;
use dft_logicsim::{Executor, PatternSet, SimKernel, TapeKernel, TestCube};
use dft_netlist::Netlist;

/// Greedily merges compatible cubes (first-fit). Returns the merged cube
/// list; order follows the first member of each merged group.
pub fn compact_cubes(cubes: &[TestCube]) -> Vec<TestCube> {
    let mut merged: Vec<TestCube> = Vec::new();
    for cube in cubes {
        match merged.iter_mut().find(|m| m.compatible(cube)) {
            Some(m) => m.merge(cube),
            None => merged.push(cube.clone()),
        }
    }
    merged
}

/// Drops patterns that contribute no new detections when the set is
/// fault-simulated in reverse order. Returns the compacted set (original
/// relative order preserved).
pub fn reverse_order_compaction(
    nl: &Netlist,
    patterns: &PatternSet,
    faults: Vec<dft_fault::Fault>,
) -> PatternSet {
    let sim = TapeKernel::compile(nl);
    let exec = Executor::serial();
    let mut list = FaultList::new(faults);
    let mut keep = vec![false; patterns.len()];
    // Simulate one pattern at a time, last first, keeping only those that
    // detect at least one still-undetected fault.
    for i in (0..patterns.len()).rev() {
        let mut single = PatternSet::new(patterns.width());
        single.push(patterns.pattern(i).clone());
        let before = list.num_detected();
        sim.fault_batch(&single, &mut list, &exec);
        if list.num_detected() > before {
            keep[i] = true;
        }
    }
    let mut out = PatternSet::new(patterns.width());
    for (i, k) in keep.iter().enumerate() {
        if *k {
            out.push(patterns.pattern(i).clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::universe_stuck_at;
    use dft_netlist::generators::c17;

    #[test]
    fn merging_reduces_cube_count() {
        let mut a = TestCube::all_x(4);
        a.set(0, true);
        let mut b = TestCube::all_x(4);
        b.set(1, false);
        let mut c = TestCube::all_x(4);
        c.set(0, false); // incompatible with a
        let merged = compact_cubes(&[a, b, c]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].get(0), Some(true));
        assert_eq!(merged[0].get(1), Some(false));
    }

    #[test]
    fn merged_sets_preserve_detection() {
        // Build per-fault cubes with PODEM, compact, fill, and verify the
        // compacted set still detects everything the raw set did.
        use crate::{AtpgResult, Podem};
        let nl = c17();
        let podem = Podem::new(&nl);
        let faults = universe_stuck_at(&nl);
        let cubes: Vec<TestCube> = faults
            .iter()
            .filter_map(|&f| match podem.generate(f, 100).0 {
                AtpgResult::Test(c) => Some(c),
                _ => None,
            })
            .collect();
        let merged = compact_cubes(&cubes);
        assert!(merged.len() < cubes.len());
        let sim = TapeKernel::compile(&nl);
        let patterns: PatternSet = merged.iter().map(|c| c.fill_with(false)).collect();
        let mut list = FaultList::new(faults);
        sim.fault_batch(&patterns, &mut list, &Executor::serial());
        assert!(
            (list.fault_coverage() - 1.0).abs() < 1e-12,
            "coverage {} with {} patterns",
            list.fault_coverage(),
            patterns.len()
        );
    }

    #[test]
    fn reverse_compaction_never_loses_coverage() {
        let nl = c17();
        let sim = TapeKernel::compile(&nl);
        let exec = Executor::serial();
        let ps = PatternSet::random(&nl, 64, 13);
        let mut before = FaultList::new(universe_stuck_at(&nl));
        sim.fault_batch(&ps, &mut before, &exec);
        let compacted = reverse_order_compaction(&nl, &ps, universe_stuck_at(&nl));
        assert!(compacted.len() < ps.len());
        let mut after = FaultList::new(universe_stuck_at(&nl));
        sim.fault_batch(&compacted, &mut after, &exec);
        assert_eq!(before.num_detected(), after.num_detected());
    }
}
