//! Property tests: the gate tape agrees with an independent scalar
//! oracle — [`FiveSim`], the five-valued simulator PODEM runs on, fed one
//! fully specified pattern at a time. Checked on random combinational
//! netlists and on sequential designs (s27, a counter, a MAC PE): good
//! values gate for gate, every fault's detecting patterns and its first
//! detection under PPSFP at several thread counts, faulty responses, and
//! transition detection pair for pair.

use proptest::prelude::*;

use dft_fault::{universe_stuck_at, universe_transition, Fault, FaultKind, FaultList, FaultStatus};
use dft_logicsim::{
    Executor, FiveSim, GateTape, Pattern, PatternSet, Response, SimKernel, TapeKernel,
    WIDE_PATTERNS,
};
use dft_netlist::generators::{counter, mac_pe, random_logic, s27};
use dft_netlist::{GateId, Logic, Netlist};

/// A random combinational netlist, or (for `kind` 1..=3) one of the
/// sequential designs, whose flops the patterns scan-load.
fn design(kind: u8, seed: u64, gates: usize) -> Netlist {
    match kind {
        1 => s27(),
        2 => counter(4 + (seed % 4) as usize),
        3 => mac_pe(2 + (seed % 2) as usize),
        _ => random_logic(8, gates, seed),
    }
}

fn simulate(sim: &FiveSim<'_>, p: &Pattern, fault: Option<Fault>) -> Vec<Logic> {
    let asg: Vec<Logic> = p.iter().map(|&b| Logic::from_bool(b)).collect();
    sim.simulate(&asg, fault)
}

/// The oracle's response to `p` with `fault` injected.
fn response(sim: &FiveSim<'_>, p: &Pattern, fault: Option<Fault>) -> Response {
    let vals = simulate(sim, p, fault);
    sim.sinks()
        .iter()
        .map(|&s| sim.sink_value(s, &vals, fault).faulty() == Some(true))
        .collect()
}

/// Does the oracle see `fault` at a sink under `p`?
fn detects(sim: &FiveSim<'_>, p: &Pattern, fault: Fault) -> bool {
    sim.fault_observed(&simulate(sim, p, Some(fault)), Some(fault))
}

/// Each fault's first detection among `n` patterns (or pairs), where
/// `hit(fault, k)` says whether pattern `k` detects fault number `fault`.
fn first_detections(
    faults: usize,
    n: usize,
    hit: impl Fn(usize, usize) -> bool,
) -> Vec<FaultStatus> {
    (0..faults)
        .map(|f| {
            (0..n)
                .find(|&k| hit(f, k))
                .map_or(FaultStatus::Undetected, |k| FaultStatus::Detected(k as u32))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Good-machine values agree gate for gate with the oracle on every
    /// pattern of every wide tape pass.
    #[test]
    fn tape_good_values_match_fivesim_gate_for_gate(
        kind in 0u8..4,
        seed in 0u64..400,
        gates in 20usize..220,
    ) {
        let nl = design(kind, seed, gates);
        let sim = FiveSim::new(&nl);
        let tape = GateTape::compile(&nl);
        // 300 patterns straddles a 256-wide boundary, so the final pass
        // exercises partial lanes.
        let ps = PatternSet::random(&nl, 300, seed ^ 0x5A);
        let mut vals = Vec::new();
        let mut start = 0;
        while start < ps.len() {
            let (wide, count) = GateTape::pack_wide(&ps, start);
            tape.eval_wide(&wide, &mut vals);
            for k in 0..count {
                let want = simulate(&sim, ps.pattern(start + k), None);
                for (idx, &v) in want.iter().enumerate() {
                    let pos = tape.position(GateId(idx as u32));
                    let got = (vals[pos][k / 64] >> (k % 64)) & 1 == 1;
                    prop_assert_eq!(
                        Logic::from_bool(got), v,
                        "gate {} pattern {}", idx, start + k
                    );
                }
            }
            start += WIDE_PATTERNS;
        }
        let responses = TapeKernel::compile(&nl).eval_batch(&ps);
        for (i, p) in ps.iter().enumerate() {
            prop_assert_eq!(&responses[i], &response(&sim, p, None), "pattern {}", i);
        }
    }

    /// Every fault's full detection set matches the oracle, and PPSFP's
    /// first detection is the first pattern of that set at any worker
    /// count.
    #[test]
    fn tape_fault_batch_matches_fivesim_across_threads(
        kind in 0u8..4,
        seed in 0u64..400,
        gates in 20usize..220,
    ) {
        let nl = design(kind, seed, gates);
        let sim = FiveSim::new(&nl);
        let faults = universe_stuck_at(&nl);
        let ps = PatternSet::random(&nl, 300, seed ^ 0xC3);
        let tape = TapeKernel::compile(&nl);
        let sets = tape.detection_sets(&ps, &faults);
        for (i, &f) in faults.iter().enumerate() {
            let want: Vec<u32> = (0..ps.len() as u32)
                .filter(|&k| detects(&sim, ps.pattern(k as usize), f))
                .collect();
            prop_assert_eq!(&sets[i], &want, "fault {} ({})", i, f);
        }
        let want = first_detections(faults.len(), ps.len(), |f, k| sets[f].contains(&(k as u32)));
        for threads in [1usize, 2, 4] {
            let mut list = FaultList::new(faults.clone());
            tape.fault_batch(&ps, &mut list, &Executor::with_threads(threads));
            for (i, &fault) in faults.iter().enumerate() {
                prop_assert_eq!(
                    list.status(i), want[i],
                    "fault {} ({}) threads={}", i, fault, threads
                );
            }
        }
    }

    /// Faulty responses match the oracle's pattern for pattern.
    #[test]
    fn tape_faulty_responses_match_fivesim(
        kind in 0u8..4,
        seed in 0u64..400,
        gates in 20usize..120,
    ) {
        let nl = design(kind, seed, gates);
        let sim = FiveSim::new(&nl);
        let faults = universe_stuck_at(&nl);
        let ps = PatternSet::random(&nl, 70, seed ^ 0x1F);
        let faulty = TapeKernel::compile(&nl).faulty_responses(&ps, &faults);
        for (i, &f) in faults.iter().enumerate() {
            for (k, p) in ps.iter().enumerate() {
                prop_assert_eq!(
                    &faulty[i][k], &response(&sim, p, Some(f)),
                    "fault {} pattern {}", f, k
                );
            }
        }
    }

    /// Transition detection agrees pair for pair: the site holds the
    /// launch value under the first pattern, and the fault acts as a
    /// stuck-at under the second.
    #[test]
    fn tape_transition_batch_matches_fivesim(
        kind in 0u8..4,
        seed in 0u64..200,
        gates in 20usize..150,
    ) {
        let nl = design(kind, seed, gates);
        let sim = FiveSim::new(&nl);
        let faults = universe_transition(&nl);
        let tape = TapeKernel::compile(&nl);
        let pairs = tape.broadside_pairs(&PatternSet::random(&nl, 96, seed ^ 0x77));
        let want = first_detections(faults.len(), pairs.len(), |f, k| {
            let f = faults[f];
            let (launch, capture) = &pairs[k];
            let site = f.site.net(&nl);
            let stuck = Fault {
                site: f.site,
                kind: if f.kind.stuck_value() { FaultKind::StuckAt1 } else { FaultKind::StuckAt0 },
            };
            simulate(&sim, launch, None)[site.index()]
                == Logic::from_bool(f.kind.launch_value().unwrap())
                && detects(&sim, capture, stuck)
        });
        let mut list = FaultList::new(faults.clone());
        tape.transition_batch(&pairs, &mut list, &Executor::serial());
        for (i, &fault) in faults.iter().enumerate() {
            prop_assert_eq!(list.status(i), want[i], "transition fault {} ({})", i, fault);
        }
    }
}
