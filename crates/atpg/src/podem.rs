//! PODEM: path-oriented decision making test generation.
//!
//! The search makes decisions only at combinational sources (primary
//! inputs and scan flops), derives every internal value by five-valued
//! implication, and backtracks chronologically. Each call simulates the
//! whole circuit once; every later pass re-evaluates only the gates whose
//! fanins changed since the previous pass, and the D-frontier and
//! observation checks look only inside the fault's fanout cone. Objectives are chosen in
//! the textbook order: excite the fault, then drive a D-frontier gate
//! towards an observation point; the backtrace is guided by SCOAP costs.
//! Optional *constraints* (required values on arbitrary nets) support the
//! launch condition of broadside transition ATPG.

use dft_checkpoint::CancelToken;
use dft_fault::Fault;
use dft_logicsim::testability::{scoap, Scoap};
use dft_logicsim::{FiveSim, TestCube};
use dft_metrics::MetricsHandle;
use dft_netlist::{GateId, GateKind, Logic, Netlist};

/// Outcome of test generation for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtpgResult {
    /// A test cube that detects the fault (care bits only).
    Test(TestCube),
    /// The fault is proven untestable (search space exhausted).
    Untestable,
    /// The backtrack limit was exceeded; testability unknown.
    Aborted,
}

impl AtpgResult {
    /// `true` for [`AtpgResult::Test`].
    pub fn is_test(&self) -> bool {
        matches!(self, AtpgResult::Test(_))
    }
}

/// Counters describing one PODEM invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PodemStats {
    /// Chronological backtracks performed.
    pub backtracks: u32,
    /// Five-valued simulation passes.
    pub simulations: u32,
    /// Decisions (source assignments) made.
    pub decisions: u32,
}

/// A PODEM test generator bound to one netlist.
#[derive(Debug)]
pub struct Podem<'a> {
    sim: FiveSim<'a>,
    scoap: Scoap,
    /// Map from source gate to its index in the assignment vector.
    source_index: Vec<Option<u32>>,
    /// Whether backtrace uses SCOAP guidance (`true`) or naive first-X
    /// selection (`false`) — the E3 ablation knob.
    pub guided: bool,
    metrics: MetricsHandle,
    /// Cooperative cancellation, checked once per search iteration. A
    /// cancelled search returns [`AtpgResult::Aborted`]; the driver
    /// discards that result rather than classifying the fault.
    cancel: Option<CancelToken>,
}

struct Decision {
    source: usize,
    value: bool,
    flipped: bool,
}

impl<'a> Podem<'a> {
    /// Builds a generator for `nl`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational loop.
    pub fn new(nl: &'a Netlist) -> Podem<'a> {
        let sim = FiveSim::new(nl);
        let mut source_index = vec![None; nl.num_gates()];
        for (i, &s) in sim.sources().iter().enumerate() {
            source_index[s.index()] = Some(i as u32);
        }
        Podem {
            sim,
            scoap: scoap(nl),
            source_index,
            guided: true,
            metrics: MetricsHandle::disabled(),
            cancel: None,
        }
    }

    /// Attaches a cancellation token; see [`Podem::generate`]'s abort
    /// behavior in the `cancel` field docs.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = Some(cancel);
    }

    /// Points per-call counters (calls, decisions, backtracks, outcomes)
    /// at `metrics`. The search loop still accumulates into the local
    /// [`PodemStats`]; the registry is flushed once per generate call.
    pub fn set_metrics(&mut self, metrics: MetricsHandle) {
        self.metrics = metrics;
    }

    /// The netlist this generator works on.
    pub fn netlist(&self) -> &Netlist {
        self.sim.netlist()
    }

    /// Generates a test for `fault`, backtracking at most
    /// `backtrack_limit` times.
    pub fn generate(&self, fault: Fault, backtrack_limit: u32) -> (AtpgResult, PodemStats) {
        self.generate_constrained(fault, &[], backtrack_limit, None)
    }

    /// Generates a test for `fault` subject to `constraints` (required
    /// binary values on arbitrary nets) and optionally starting from a
    /// pre-assigned cube (for dynamic compaction). The initial assignment
    /// bits are treated as unretractable.
    pub fn generate_constrained(
        &self,
        fault: Fault,
        constraints: &[(GateId, bool)],
        backtrack_limit: u32,
        initial: Option<&TestCube>,
    ) -> (AtpgResult, PodemStats) {
        let (result, stats) = self.search(fault, constraints, backtrack_limit, initial);
        if let Some(m) = self.metrics.get() {
            m.podem_calls.inc();
            m.podem_decisions.add(stats.decisions as u64);
            m.podem_backtracks.add(stats.backtracks as u64);
            m.podem_simulations.add(stats.simulations as u64);
            m.podem_backtracks_per_call.record(stats.backtracks as u64);
            match &result {
                AtpgResult::Test(_) => m.podem_tests.inc(),
                AtpgResult::Untestable => m.podem_untestable.inc(),
                AtpgResult::Aborted => m.podem_aborted.inc(),
            }
        }
        (result, stats)
    }

    /// The PODEM search loop behind [`Podem::generate_constrained`].
    fn search(
        &self,
        fault: Fault,
        constraints: &[(GateId, bool)],
        backtrack_limit: u32,
        initial: Option<&TestCube>,
    ) -> (AtpgResult, PodemStats) {
        let num_sources = self.sim.sources().len();
        let mut assignment = vec![Logic::X; num_sources];
        if let Some(cube) = initial {
            assert_eq!(cube.width(), num_sources, "initial cube width");
            for (i, b) in cube.bits().iter().enumerate() {
                if let Some(v) = b {
                    assignment[i] = Logic::from_bool(*v);
                }
            }
        }
        let mut stats = PodemStats::default();
        let mut stack: Vec<Decision> = Vec::new();
        let mut imp = Implication::new(&self.sim, fault, &assignment);

        loop {
            if let Some(c) = &self.cancel {
                if c.is_cancelled() {
                    return (AtpgResult::Aborted, stats);
                }
            }
            stats.simulations += 1;
            imp.update(&assignment);
            #[cfg(test)]
            imp.check_against_oracle();

            if imp.fault_observed()
                && constraints_satisfiable(&imp.vals, constraints) == Tri::Satisfied
            {
                let mut cube = TestCube::all_x(num_sources);
                for (i, &v) in assignment.iter().enumerate() {
                    if let Some(b) = v.good() {
                        cube.set(i, b);
                    }
                }
                return (AtpgResult::Test(cube), stats);
            }

            // Choose the next objective, or learn that this branch failed.
            let objective = self.objective(fault, &mut imp, constraints);
            let objective = match objective {
                Objective::Assign(net, val) => (net, val),
                Objective::Fail => {
                    // Backtrack.
                    match backtrack(&mut stack, &mut assignment) {
                        true => {
                            stats.backtracks += 1;
                            if stats.backtracks > backtrack_limit {
                                return (AtpgResult::Aborted, stats);
                            }
                            continue;
                        }
                        false => return (AtpgResult::Untestable, stats),
                    }
                }
            };

            // Backtrace the objective to an unassigned source.
            match self.backtrace(objective.0, objective.1, &imp.vals) {
                Some((src, val)) => {
                    stats.decisions += 1;
                    assignment[src] = Logic::from_bool(val);
                    stack.push(Decision {
                        source: src,
                        value: val,
                        flipped: false,
                    });
                }
                None => {
                    // No X path to a source: treat as a failed branch.
                    match backtrack(&mut stack, &mut assignment) {
                        true => {
                            stats.backtracks += 1;
                            if stats.backtracks > backtrack_limit {
                                return (AtpgResult::Aborted, stats);
                            }
                        }
                        false => return (AtpgResult::Untestable, stats),
                    }
                }
            }

            // Cheap sanity guard against pathological loops.
            if stats.decisions > 4 * (num_sources as u32 + 4) * (backtrack_limit + 4) {
                return (AtpgResult::Aborted, stats);
            }
        }
    }

    /// Selects the next objective per the PODEM priority order.
    fn objective(
        &self,
        fault: Fault,
        imp: &mut Implication<'_>,
        constraints: &[(GateId, bool)],
    ) -> Objective {
        let nl = self.sim.netlist();
        let vals = &imp.vals[..];
        // 0. Constraints: any violated -> fail; any unassigned -> objective.
        match constraints_satisfiable(vals, constraints) {
            Tri::Violated => return Objective::Fail,
            Tri::Pending(net, val) => return Objective::Assign(net, val),
            Tri::Satisfied => {}
        }

        // 1. Excitation: the fault site's driving net must carry !stuck.
        let site_net = fault.site.net(nl);
        let stuck = fault.kind.stuck_value();
        let site_val = vals[site_net.index()];
        match site_val {
            Logic::X => return Objective::Assign(site_net, !stuck),
            v if v.is_binary() => {
                if v.good() == Some(stuck) {
                    return Objective::Fail;
                }
                // Excited at the driver. For stem faults the injected site
                // shows D/Dbar via simulation; binary !stuck here happens
                // only for branch faults (driver keeps its good value).
                if fault.site.pin.is_none() {
                    // A stem site with a binary value should be impossible
                    // (injection turns it into D/Dbar); defensive fail.
                    return Objective::Fail;
                }
            }
            _ => {} // D or Dbar: excited.
        }

        // 2. Propagation: pick a D-frontier gate and a non-controlling
        // objective on one of its X inputs. Fault effects exist only in
        // the fault's cone, which is in ascending id order, so the
        // lowest-id gate still wins a cost tie.
        let mut best: Option<(GateId, u32)> = None;
        for &id in &imp.cone {
            let g = nl.gate(id);
            if vals[id.index()] != Logic::X || !g.kind.is_logic() {
                continue;
            }
            let mut has_effect = g.fanins.iter().any(|&f| vals[f.index()].is_fault_effect());
            // The site gate of a branch fault carries the injected effect
            // on its pin even though the driving net shows the good value.
            if !has_effect && fault.site.pin.is_some() && fault.site.gate == id {
                let driver = fault.site.net(nl);
                has_effect = vals[driver.index()].good() == Some(!stuck);
            }
            if !has_effect {
                continue;
            }
            // X-path check: can this gate still reach a sink through X?
            if !imp.xpath.reaches_sink(nl, id, vals) {
                continue;
            }
            let cost = self.scoap.co[id.index()];
            if best.map(|(_, c)| cost < c).unwrap_or(true) {
                best = Some((id, cost));
            }
        }
        // Also: a fault effect can already sit on a sink-feeding net while
        // the D-frontier is empty (effect on a flop D pin is immediately
        // observed). That case is caught by `fault_observed` before
        // objective selection, so an empty D-frontier here means failure.
        let (gate, _) = match best {
            Some(b) => b,
            None => return Objective::Fail,
        };
        let g = nl.gate(gate);
        // Objective: set an X input to the gate's non-controlling value.
        let noncontrolling = g.kind.controlling_value().map(|c| !c).unwrap_or(true);
        let mut candidate: Option<(GateId, u32)> = None;
        for &f in &g.fanins {
            if vals[f.index()] == Logic::X {
                let cost = if noncontrolling {
                    self.scoap.cc1[f.index()]
                } else {
                    self.scoap.cc0[f.index()]
                };
                if candidate.map(|(_, c)| cost < c).unwrap_or(true) {
                    candidate = Some((f, cost));
                }
            }
        }
        match candidate {
            Some((net, _)) => Objective::Assign(net, noncontrolling),
            None => Objective::Fail,
        }
    }

    /// Walks an objective `(net, value)` backwards through X-valued gates
    /// to an unassigned source; returns the source index and value to
    /// assign.
    fn backtrace(&self, mut net: GateId, mut value: bool, vals: &[Logic]) -> Option<(usize, bool)> {
        let nl = self.sim.netlist();
        loop {
            if let Some(src) = self.source_index[net.index()] {
                // Only X sources are decidable.
                if vals[net.index()] == Logic::X {
                    return Some((src as usize, value));
                }
                return None;
            }
            let g = nl.gate(net);
            if matches!(g.kind, GateKind::Output) {
                net = g.fanins[0];
                continue;
            }
            if !g.kind.is_logic() {
                return None; // constants cannot be controlled
            }
            if g.kind.is_inverting() {
                value = !value;
            }
            // Choose which X input to pursue.
            let x_inputs = || {
                g.fanins
                    .iter()
                    .copied()
                    .filter(|&f| vals[f.index()] == Logic::X)
            };
            let first_x = x_inputs().next()?;
            let next = match g.kind {
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    // After inversion handling, `value` is the objective for
                    // the underlying AND/OR. Controlling objective -> one
                    // (easiest) input suffices; non-controlling -> all
                    // inputs needed, pursue the hardest first.
                    let base_and = matches!(g.kind, GateKind::And | GateKind::Nand);
                    let controlling = if base_and { !value } else { value };
                    let cost = |f: GateId| {
                        if value {
                            self.scoap.cc1[f.index()]
                        } else {
                            self.scoap.cc0[f.index()]
                        }
                    };
                    if !self.guided {
                        first_x
                    } else if controlling {
                        // easiest
                        x_inputs().min_by_key(|&f| cost(f)).unwrap_or(first_x)
                    } else {
                        // hardest
                        x_inputs().max_by_key(|&f| cost(f)).unwrap_or(first_x)
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Heuristic: aim the first X input at `value` adjusted
                    // by the parity of the known inputs.
                    let known_parity = g
                        .fanins
                        .iter()
                        .filter_map(|&f| vals[f.index()].good())
                        .fold(false, |acc, b| acc ^ b);
                    value ^= known_parity;
                    // Remaining X inputs besides the chosen one are assumed
                    // 0 by this heuristic; simulation corrects any error.
                    first_x
                }
                GateKind::Mux2 => {
                    // Prefer steering through the select if it is X.
                    first_x
                }
                GateKind::Buf | GateKind::Not => first_x,
                _ => first_x,
            };
            net = next;
        }
    }
}

enum Objective {
    Assign(GateId, bool),
    Fail,
}

#[derive(PartialEq, Eq)]
enum Tri {
    Satisfied,
    Violated,
    Pending(GateId, bool),
}

fn constraints_satisfiable(vals: &[Logic], constraints: &[(GateId, bool)]) -> Tri {
    for &(net, want) in constraints {
        match vals[net.index()].good() {
            Some(v) if v == want => {}
            Some(_) => return Tri::Violated,
            None => return Tri::Pending(net, want),
        }
    }
    Tri::Satisfied
}

/// Flips the most recent unflipped decision; pops exhausted ones. Returns
/// `false` when the stack empties (search space exhausted).
fn backtrack(stack: &mut Vec<Decision>, assignment: &mut [Logic]) -> bool {
    while let Some(top) = stack.last_mut() {
        if top.flipped {
            assignment[top.source] = Logic::X;
            stack.pop();
            continue;
        }
        top.flipped = true;
        top.value = !top.value;
        assignment[top.source] = Logic::from_bool(top.value);
        return true;
    }
    false
}

/// The per-call implication state of one PODEM search: the five-valued
/// value of every net under the current assignment with `fault`
/// injected, kept current event by event, plus the fault's fanout cone
/// and X-path scratch.
struct Implication<'s> {
    sim: &'s FiveSim<'s>,
    fault: Fault,
    /// Net values indexed by `GateId`; after [`Implication::update`] they
    /// equal `FiveSim::simulate(assignment, Some(fault))`.
    vals: Vec<Logic>,
    /// The assignment `vals` reflects.
    applied: Vec<Logic>,
    /// Gates awaiting re-evaluation, one bucket per level.
    buckets: Vec<Vec<GateId>>,
    queued: Vec<bool>,
    /// Number of gates in `buckets`.
    pending: usize,
    /// Fanin-value scratch for [`FiveSim::eval`].
    ins: Vec<Logic>,
    /// The fault site plus every gate forward-reachable from it, stopping
    /// at flops, in ascending id order. Only these nets can carry `D`/`D̄`.
    cone: Vec<GateId>,
    /// The sinks (primary outputs and flops) in `cone`.
    cone_sinks: Vec<GateId>,
    xpath: XPath,
}

impl<'s> Implication<'s> {
    /// Runs the one full simulation pass of a call and computes the cone.
    fn new(sim: &'s FiveSim<'s>, fault: Fault, assignment: &[Logic]) -> Implication<'s> {
        let nl = sim.netlist();
        let n = nl.num_gates();
        let cone = fault_cone(nl, fault);
        let cone_sinks = cone
            .iter()
            .copied()
            .filter(|&id| matches!(nl.gate(id).kind, GateKind::Output | GateKind::Dff))
            .collect();
        Implication {
            sim,
            fault,
            vals: sim.simulate(assignment, Some(fault)),
            applied: assignment.to_vec(),
            buckets: vec![Vec::new(); sim.levelization().max_level() as usize + 1],
            queued: vec![false; n],
            pending: 0,
            ins: Vec::with_capacity(8),
            cone,
            cone_sinks,
            xpath: XPath {
                seen: vec![0; n],
                stamp: 0,
                stack: Vec::new(),
            },
        }
    }

    /// Brings `vals` up to date with `assignment`: writes the sources that
    /// changed since the last pass, then re-evaluates in level order only
    /// the gates with a changed fanin. Flops are never re-evaluated (their
    /// D pins are read from the driver by the sink check).
    fn update(&mut self, assignment: &[Logic]) {
        let sim = self.sim;
        let fault = Some(self.fault);
        for (s, &want) in assignment.iter().enumerate() {
            if self.applied[s] == want {
                continue;
            }
            self.applied[s] = want;
            let src = sim.sources()[s];
            let v = sim.source_value(s, want, fault);
            if self.vals[src.index()] != v {
                self.vals[src.index()] = v;
                self.schedule_fanouts(src);
            }
        }
        let mut level = 0;
        while self.pending > 0 {
            while let Some(id) = self.buckets[level].pop() {
                self.pending -= 1;
                self.queued[id.index()] = false;
                let v = sim.eval(id, &self.vals, fault, &mut self.ins);
                if self.vals[id.index()] != v {
                    self.vals[id.index()] = v;
                    self.schedule_fanouts(id);
                }
            }
            level += 1;
        }
    }

    /// Queues every combinational fanout of `id`. A fanout sits at a
    /// higher level than `id`, so it is evaluated after all its fanins.
    fn schedule_fanouts(&mut self, id: GateId) {
        let nl = self.sim.netlist();
        let lv = self.sim.levelization();
        for &fo in &nl.gate(id).fanouts {
            if self.queued[fo.index()] || matches!(nl.gate(fo).kind, GateKind::Dff) {
                continue;
            }
            self.queued[fo.index()] = true;
            self.buckets[lv.level(fo) as usize].push(fo);
            self.pending += 1;
        }
    }

    /// [`FiveSim::fault_observed`] restricted to the cone's sinks; a sink
    /// outside the cone cannot carry a fault effect.
    fn fault_observed(&self) -> bool {
        self.cone_sinks.iter().any(|&s| {
            self.sim
                .sink_value(s, &self.vals, Some(self.fault))
                .is_fault_effect()
        })
    }

    /// Asserts that the incremental state matches the full-pass oracle.
    #[cfg(test)]
    fn check_against_oracle(&self) {
        let (sim, fault) = (self.sim, self.fault);
        let full = sim.simulate(&self.applied, Some(fault));
        for (i, (&got, &want)) in self.vals.iter().zip(&full).enumerate() {
            assert_eq!(
                got,
                want,
                "{fault}: net {} diverged",
                sim.netlist().gate(GateId(i as u32)).name
            );
        }
        for (i, v) in full.iter().enumerate() {
            let id = GateId(i as u32);
            assert!(
                !v.is_fault_effect() || self.cone.binary_search(&id).is_ok(),
                "{fault}: fault effect outside the cone"
            );
        }
        assert_eq!(
            self.fault_observed(),
            sim.fault_observed(&full, Some(fault)),
            "{fault}: observation diverged"
        );
    }
}

/// The fault site plus every gate forward-reachable from where the fault
/// injects its effect, stopping at flops, sorted by id. A flop D-pin
/// fault shows only at that flop's sink, so its cone is the flop alone.
fn fault_cone(nl: &Netlist, fault: Fault) -> Vec<GateId> {
    let site = fault.site.gate;
    let mut in_cone = vec![false; nl.num_gates()];
    in_cone[site.index()] = true;
    let mut cone = vec![site];
    let site_expands = fault.site.pin.is_none() || !matches!(nl.gate(site).kind, GateKind::Dff);
    let mut next = if site_expands { 0 } else { 1 };
    while next < cone.len() {
        let id = cone[next];
        next += 1;
        if id != site && matches!(nl.gate(id).kind, GateKind::Dff) {
            continue;
        }
        for &fo in &nl.gate(id).fanouts {
            if !in_cone[fo.index()] {
                in_cone[fo.index()] = true;
                cone.push(fo);
            }
        }
    }
    cone.sort_unstable();
    cone
}

/// Reusable scratch for the D-frontier X-path check.
struct XPath {
    /// `seen[g] == stamp` marks gate `g` visited by the current search.
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<GateId>,
}

impl XPath {
    /// `true` if a path of X-valued nets leads from `from` to any sink.
    fn reaches_sink(&mut self, nl: &Netlist, from: GateId, vals: &[Logic]) -> bool {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        self.stack.clear();
        self.stack.push(from);
        self.seen[from.index()] = self.stamp;
        while let Some(id) = self.stack.pop() {
            let g = nl.gate(id);
            if matches!(g.kind, GateKind::Output | GateKind::Dff) {
                return true;
            }
            for &fo in &g.fanouts {
                if self.seen[fo.index()] == self.stamp {
                    continue;
                }
                self.seen[fo.index()] = self.stamp;
                if matches!(nl.gate(fo).kind, GateKind::Output | GateKind::Dff) {
                    return true;
                }
                if vals[fo.index()] == Logic::X {
                    self.stack.push(fo);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twoframe::expand_two_frames;
    use dft_fault::{universe_stuck_at, Fault, FaultSite};
    use dft_logicsim::{Pattern, PatternSet, SimKernel, TapeKernel};
    use dft_netlist::generators::{
        c17, decoder, mac_pe, ripple_adder, systolic_array, SystolicConfig,
    };
    use dft_netlist::{GateKind, Netlist};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Tape check that `pattern` detects `fault`: PODEM and the
    /// D-algorithm run on `FiveSim`, so checking with it would be
    /// circular.
    fn detects(kernel: &TapeKernel<'_>, pattern: &Pattern, fault: Fault) -> bool {
        let single: PatternSet = std::iter::once(pattern.clone()).collect();
        !kernel.detection_sets(&single, &[fault])[0].is_empty()
    }

    /// Fault classes the implication injects differently: PI stem, flop
    /// stem, flop D pin, gate stem and gate branch.
    const CLASSES: usize = 5;

    fn fault_class(nl: &Netlist, f: Fault) -> usize {
        match (nl.gate(f.site.gate).kind, f.site.pin) {
            (GateKind::Input, None) => 0,
            (GateKind::Dff, None) => 1,
            (GateKind::Dff, Some(_)) => 2,
            (_, None) => 3,
            (_, Some(_)) => 4,
        }
    }

    /// Up to six faults of each class, spread over the universe.
    fn fault_sample(nl: &Netlist) -> Vec<Fault> {
        let mut by_class: [Vec<Fault>; CLASSES] = Default::default();
        for f in universe_stuck_at(nl) {
            by_class[fault_class(nl, f)].push(f);
        }
        by_class
            .iter()
            .flat_map(|c| c.iter().step_by((c.len() / 6).max(1)).take(6).copied())
            .collect()
    }

    /// Drives random assign, flip and unassign steps (never touching the
    /// `pinned` bits) through the incremental implication and checks it
    /// against the full pass after every step. Returns how many steps
    /// observed the fault.
    fn random_walk(sim: &FiveSim, fault: Fault, pinned: &[Logic], seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut assignment = pinned.to_vec();
        let mut imp = Implication::new(sim, fault, &assignment);
        imp.check_against_oracle();
        let mut observed = 0;
        for _ in 0..80 {
            // One change is a decision; several model a backtrack that
            // flips one decision and unassigns others.
            for _ in 0..rng.gen_range(1..4usize) {
                let s = rng.gen_range(0..assignment.len());
                if pinned[s] != Logic::X {
                    continue;
                }
                assignment[s] = match assignment[s] {
                    Logic::X => Logic::from_bool(rng.gen_bool(0.5)),
                    v if rng.gen_bool(0.5) => !v,
                    _ => Logic::X,
                };
            }
            imp.update(&assignment);
            imp.check_against_oracle();
            observed += usize::from(imp.fault_observed());
        }
        observed
    }

    #[test]
    fn incremental_implication_matches_full_simulation() {
        let designs = [
            c17(),
            decoder(3),
            mac_pe(4),
            systolic_array(SystolicConfig {
                rows: 2,
                cols: 2,
                width: 4,
            }),
        ];
        let mut classes_seen = [false; CLASSES];
        for nl in &designs {
            let sim = FiveSim::new(nl);
            let free = vec![Logic::X; sim.sources().len()];
            let mut observed = 0;
            for (i, fault) in fault_sample(nl).into_iter().enumerate() {
                classes_seen[fault_class(nl, fault)] = true;
                observed += random_walk(&sim, fault, &free, i as u64);
            }
            assert!(observed > 0, "{}: no step observed its fault", nl.name());
        }
        assert_eq!(classes_seen, [true; CLASSES], "a fault class went untested");
    }

    #[test]
    fn constrained_two_frame_search_matches_full_simulation() {
        // Broadside transition ATPG: the frame-2 fault with a frame-1
        // launch constraint, on top of a pre-assigned cube as dynamic
        // compaction passes it. The search checks every implication pass
        // against the full-pass oracle (`check_against_oracle`).
        let nl = mac_pe(4);
        let tf = expand_two_frames(&nl);
        let exp = &tf.netlist;
        let sim = FiveSim::new(exp);
        let podem = Podem::new(exp);
        let width = sim.sources().len();
        let mut initial = TestCube::all_x(width);
        let mut pinned = vec![Logic::X; width];
        for i in (0..width).step_by(5) {
            initial.set(i, i % 2 == 0);
            pinned[i] = Logic::from_bool(i % 2 == 0);
        }
        let mut tests = 0;
        for (i, f) in fault_sample(&nl).into_iter().enumerate() {
            if matches!(nl.gate(f.site.gate).kind, GateKind::Dff) {
                continue; // flops have no frame-2 copy
            }
            // A slow-to-rise (slow-to-fall) transition is a frame-2
            // stuck-at-0 (1) whose net carries 0 (1) in frame 1.
            let fault = Fault {
                site: FaultSite {
                    gate: tf.frame2[f.site.gate.index()],
                    pin: f.site.pin,
                },
                kind: f.kind,
            };
            let launch_net = tf.frame1[f.site.net(&nl).index()];
            let launch = f.kind.stuck_value();
            random_walk(&sim, fault, &pinned, i as u64);
            let (result, _) =
                podem.generate_constrained(fault, &[(launch_net, launch)], 200, Some(&initial));
            let AtpgResult::Test(cube) = result else {
                continue;
            };
            tests += 1;
            let asg: Vec<Logic> = cube
                .bits()
                .iter()
                .map(|b| b.map_or(Logic::X, Logic::from_bool))
                .collect();
            for (&got, &want) in asg.iter().zip(&pinned) {
                if want != Logic::X {
                    assert_eq!(got, want, "{fault}: initial bit dropped");
                }
            }
            let vals = sim.simulate(&asg, Some(fault));
            assert!(
                sim.fault_observed(&vals, Some(fault)),
                "{fault}: cube does not detect"
            );
            assert_eq!(
                vals[launch_net.index()].good(),
                Some(launch),
                "{fault}: no launch"
            );
        }
        assert!(tests > 0, "no constrained search succeeded");
    }

    #[test]
    fn podem_finds_test_for_every_c17_fault() {
        let nl = c17();
        let podem = Podem::new(&nl);
        let fsim = TapeKernel::compile(&nl);
        for fault in universe_stuck_at(&nl) {
            let (result, _) = podem.generate(fault, 100);
            match result {
                AtpgResult::Test(cube) => {
                    let pattern = cube.random_fill(1);
                    assert!(
                        detects(&fsim, &pattern, fault),
                        "cube {cube} does not detect {fault}"
                    );
                }
                other => panic!("{fault}: expected test, got {other:?}"),
            }
        }
    }

    #[test]
    fn podem_proves_redundant_fault_untestable() {
        // y = OR(a, AND(a, b)): the AND output SA0 is redundant (absorbed).
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let and = nl.add_gate(GateKind::And, vec![a, b], "and");
        let or = nl.add_gate(GateKind::Or, vec![a, and], "or");
        nl.add_output(or, "po");
        let podem = Podem::new(&nl);
        let (result, _) = podem.generate(Fault::stuck_at_output(and, false), 1000);
        assert_eq!(result, AtpgResult::Untestable);
        // But the AND SA1 is testable: a=0,b=1 -> or flips 0->1? AND(0,1)=0
        // good, SA1 makes it 1 -> or=1 vs 0. Yes.
        let (result, _) = podem.generate(Fault::stuck_at_output(and, true), 1000);
        assert!(result.is_test());
    }

    #[test]
    fn decoder_hard_faults_need_deterministic_patterns() {
        let nl = decoder(4);
        let podem = Podem::new(&nl);
        let fsim = TapeKernel::compile(&nl);
        // Output y0 SA0 requires the exact code 0 with enable: random
        // patterns rarely hit it; PODEM must.
        let y0 = nl.find("y0_g").unwrap();
        let f = Fault::stuck_at_output(y0, false);
        let (result, stats) = podem.generate(f, 1000);
        let AtpgResult::Test(cube) = result else {
            panic!("expected test, stats {stats:?}");
        };
        assert!(detects(&fsim, &cube.random_fill(7), f));
        // The cube must pin all 4 address bits + enable.
        assert!(cube.care_bits() >= 5, "cube {cube}");
    }

    #[test]
    fn cube_care_bits_are_minimal_ish() {
        // For a wide OR, exciting an input SA1 only needs that input at 0
        // and the others at 0 (to propagate): all needed. For AND SA0 on
        // one input, the cube needs all inputs 1.
        let mut nl = Netlist::new("t");
        let ins: Vec<_> = (0..6).map(|i| nl.add_input(&format!("i{i}"))).collect();
        let g = nl.add_gate(GateKind::And, ins, "g");
        nl.add_output(g, "po");
        let podem = Podem::new(&nl);
        let (result, _) = podem.generate(Fault::stuck_at_input(g, 2, false), 100);
        let AtpgResult::Test(cube) = result else {
            panic!()
        };
        assert_eq!(cube.care_bits(), 6);
        assert_eq!(cube.bits().iter().filter(|b| **b == Some(true)).count(), 6);
    }

    #[test]
    fn constraint_steers_generation() {
        let nl = ripple_adder(4);
        let podem = Podem::new(&nl);
        let fsim = TapeKernel::compile(&nl);
        let cin = nl.find("cin").unwrap();
        // Any testable fault, but require cin = 1.
        let s0 = nl.find("add_fa0_s").unwrap();
        let f = Fault::stuck_at_output(s0, false);
        let (result, _) = podem.generate_constrained(f, &[(cin, true)], 1000, None);
        let AtpgResult::Test(cube) = result else {
            panic!()
        };
        let sources = nl.combinational_sources();
        let cin_idx = sources.iter().position(|&s| s == cin).unwrap();
        assert_eq!(cube.get(cin_idx), Some(true));
        assert!(detects(&fsim, &cube.random_fill(3), f));
    }

    #[test]
    fn impossible_constraint_is_untestable() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let inv = nl.add_gate(GateKind::Not, vec![a], "inv");
        let and = nl.add_gate(GateKind::And, vec![a, inv], "and"); // always 0
        nl.add_output(and, "po");
        let podem = Podem::new(&nl);
        // Constrain and=1: impossible.
        let b = nl.find("po").unwrap();
        let f = Fault::stuck_at_output(a, false);
        let (result, _) = podem.generate_constrained(f, &[(b, true)], 1000, None);
        assert_eq!(result, AtpgResult::Untestable);
    }

    #[test]
    fn initial_cube_is_respected() {
        let nl = c17();
        let podem = Podem::new(&nl);
        let g1 = nl.find("G1").unwrap();
        let sources = nl.combinational_sources();
        let g1_idx = sources.iter().position(|&s| s == g1).unwrap();
        let mut initial = TestCube::all_x(sources.len());
        initial.set(g1_idx, true);
        // Target a fault not involving G1's value directly.
        let g11 = nl.find("G11").unwrap();
        let f = Fault::stuck_at_output(g11, true);
        let (result, _) = podem.generate_constrained(f, &[], 1000, Some(&initial));
        if let AtpgResult::Test(cube) = result {
            assert_eq!(cube.get(g1_idx), Some(true), "initial bit dropped");
        }
    }

    #[test]
    fn unguided_backtrace_still_correct() {
        let nl = ripple_adder(4);
        let mut podem = Podem::new(&nl);
        podem.guided = false;
        let fsim = TapeKernel::compile(&nl);
        let mut tested = 0;
        for fault in universe_stuck_at(&nl) {
            let (result, _) = podem.generate(fault, 500);
            if let AtpgResult::Test(cube) = result {
                assert!(detects(&fsim, &cube.random_fill(5), fault), "{fault}");
                tested += 1;
            }
        }
        assert!(tested > 0);
    }
}
