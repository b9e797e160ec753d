//! The simulation-kernel API.
//!
//! [`SimKernel`] is the entry point every simulation consumer (ATPG,
//! LBIST, EDT verification, the aichip broadcast screen) goes through:
//! compile a netlist once, then run good-machine, stuck-at, and
//! transition batches against the compiled design. [`TapeKernel`] — a
//! compile-once levelized [`GateTape`] evaluated 256 patterns per pass
//! (see [`crate::tape`]) — is its one implementation.
//!
//! [`TapeKernel`] also carries the per-defect operations diagnosis and
//! the serve die need, with no fault dropping: the detecting patterns of
//! each [`Defect`] ([`TapeKernel::detection_sets`]) and its faulty
//! responses ([`TapeKernel::faulty_responses`]).
//!
//! Determinism contract: the detected-fault set, each fault's first
//! detecting pattern, and the coverage numbers are bit-identical across
//! thread counts.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dft_checkpoint::{CancelToken, ChaosConfig, ChaosSite};
use dft_fault::{BridgeFault, Fault, FaultKind, FaultList};
use dft_metrics::MetricsHandle;
use dft_netlist::Netlist;
use dft_trace::TraceHandle;

use crate::tape::{GateTape, TapeWorkspace, WideWord, LANES, WIDE_PATTERNS};
use crate::{Executor, Pattern, PatternSet, Response, RunCtx};

/// Below this many fault×pattern propagations the spawn/merge cost
/// dominates; batches fall back to the calling thread.
const PARALLEL_THRESHOLD: usize = 1 << 12;

/// Summary counters from a fault-simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Patterns simulated.
    pub patterns: usize,
    /// Faults that were still undetected when the run started.
    pub faults_simulated: usize,
    /// Faults newly detected by this run.
    pub detected: usize,
    /// Total faulty-machine gate evaluations (work measure).
    pub gate_evals: u64,
    /// Fault batches whose simulation panicked and was isolated: the
    /// panic is contained to that fault's batch, its fault stays
    /// undetected, and every other batch's result is bit-identical to a
    /// clean run. Non-zero only when a worker died mid-simulation (or the
    /// test-only [`TapeKernel::with_poisoned_fault`] hook fired).
    pub failed_batches: usize,
    /// `true` when a [`CancelToken`] fired during the run. An interrupted
    /// run marks **no** detections at all — the fault list is exactly as
    /// it was on entry — so a resumed run that repeats the pass produces
    /// bit-identical results.
    pub interrupted: bool,
}

/// A compiled simulation engine for one netlist.
///
/// Compile once, evaluate many: the constructor pays any per-design
/// analysis (levelization, tape layout) exactly once, and every batch
/// call reuses it. All batch methods take `&self` and are safe to call
/// from multiple threads.
pub trait SimKernel<'nl>: Sized {
    /// Compiles `nl` into the kernel's design representation.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational loop.
    fn compile(nl: &'nl Netlist) -> Self;

    /// The netlist this kernel was compiled from.
    fn netlist(&self) -> &'nl Netlist;

    /// Good-machine simulation of every pattern: returns one
    /// [`Response`] per pattern (primary outputs first, then flop D-pin
    /// captures, in netlist source order).
    fn eval_batch(&self, patterns: &PatternSet) -> Vec<Response>;

    /// PPSFP stuck-at fault simulation: runs all `patterns` against the
    /// undetected faults in `list`, marking first detections (fault
    /// dropping) and returning run statistics. Bit-identical results for
    /// any thread count.
    fn fault_batch(&self, patterns: &PatternSet, list: &mut FaultList, exec: &Executor)
        -> SimStats;

    /// Transition-delay fault simulation over launch/capture pairs
    /// (`pairs[i]` launches with `.0` and captures with `.1`), marking
    /// first detections in `list`. Bit-identical across thread counts.
    fn transition_batch(
        &self,
        pairs: &[(Pattern, Pattern)],
        list: &mut FaultList,
        exec: &Executor,
    ) -> SimStats;
}

/// The simulation engine a [`SimKernel`] runs on. [`TapeKernel`] is the
/// only engine, so this has one variant; the type stays for source
/// compatibility only (see `ServeConfig::kernel` in `dft-serve`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Compile-once levelized gate tape, 256 patterns per pass.
    Tape,
}

/// A defect the per-pattern operations of [`TapeKernel`] inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// A single stuck-at (or pin) fault.
    StuckAt(Fault),
    /// A two-net short. Both nets are pinned to their bridged values,
    /// so a bridged net inside the other net's cone keeps its forced
    /// value.
    Bridge(BridgeFault),
}

impl From<Fault> for Defect {
    fn from(f: Fault) -> Defect {
        Defect::StuckAt(f)
    }
}

impl From<BridgeFault> for Defect {
    fn from(b: BridgeFault) -> Defect {
        Defect::Bridge(b)
    }
}

/// The compile-once gate-tape engine behind the [`SimKernel`] API.
///
/// [`TapeKernel::compile`] levelizes and flattens the netlist into a
/// [`GateTape`]; every batch then evaluates 256 patterns per pass and
/// propagates faults event by event in tape order.
///
/// Observation model (full scan): a fault is detected by a pattern when
/// it changes a primary output or the D-pin value captured by any
/// flip-flop. A fault on a flop's D pin is read at the flop itself; a
/// fault on a flop's Q net is excited by scan-loading the opposite value
/// and must propagate through logic to a sink, exactly like a
/// pseudo-primary-input fault.
#[derive(Debug)]
pub struct TapeKernel<'nl> {
    nl: &'nl Netlist,
    tape: GateTape,
    metrics: MetricsHandle,
    trace: TraceHandle,
    poison: Option<Fault>,
    cancel: Option<CancelToken>,
    chaos: Option<ChaosConfig>,
}

impl<'nl> TapeKernel<'nl> {
    /// Takes the run context. Workers poll `ctx.cancel` once per fault
    /// per block; when it fires, the pass drains and **discards** its
    /// detections (see [`SimStats::interrupted`]), leaving the fault list
    /// untouched so the pass can be repeated bit-identically. Chaos
    /// worker panics and batch delays fire per fault-list index, so the
    /// same faults are hit at any thread count. Counters (`goodsim_*`,
    /// `faultsim_*`, `transition_*`; `*_gate_evals` count wide
    /// evaluations) flush once per batch call. Spans: `faultsim_run`,
    /// `goodsim_eval` and worker-tagged `faultsim_batch` per stuck-at
    /// batch, `transition_run` and `transition_batch` per transition
    /// batch.
    pub fn with_ctx(mut self, ctx: RunCtx) -> TapeKernel<'nl> {
        self.chaos = ctx.chaos.is_active().then_some(ctx.chaos);
        self.cancel = ctx.cancel;
        self.metrics = ctx.metrics;
        self.trace = ctx.trace;
        self
    }

    /// Test-only hook: makes [`SimKernel::fault_batch`] panic when it
    /// reaches `fault`'s batch, exercising the panic-isolation path end
    /// to end. The panic is caught per fault and reported via
    /// [`SimStats::failed_batches`]; every other batch completes
    /// bit-identically to a clean run. Never set outside tests.
    pub fn with_poisoned_fault(mut self, fault: Fault) -> TapeKernel<'nl> {
        self.poison = Some(fault);
        self
    }

    /// The compiled tape.
    pub fn tape(&self) -> &GateTape {
        &self.tape
    }

    /// Counts one good-machine wide pass into the `goodsim_*` family.
    fn note_good_pass(&self) {
        if let Some(m) = self.metrics.get() {
            m.goodsim_blocks.inc();
            m.goodsim_gate_evals.add(self.tape.evals_per_pass());
        }
    }

    /// Flushes one fault run's [`SimStats`] into the registry.
    fn flush_fault_stats(&self, stats: &SimStats) {
        if let Some(m) = self.metrics.get() {
            m.faultsim_runs.inc();
            m.faultsim_patterns.add(stats.patterns as u64);
            m.faultsim_faults.add(stats.faults_simulated as u64);
            m.faultsim_detected.add(stats.detected as u64);
            m.faultsim_gate_evals.add(stats.gate_evals);
            m.faultsim_failed_batches.add(stats.failed_batches as u64);
        }
    }

    /// Flushes one transition run's [`SimStats`] into the registry.
    fn flush_transition_stats(&self, stats: &SimStats) {
        if let Some(m) = self.metrics.get() {
            m.transition_runs.inc();
            m.transition_pairs.add(stats.patterns as u64);
            m.transition_detected.add(stats.detected as u64);
            m.transition_gate_evals.add(stats.gate_evals);
        }
    }

    /// First detecting pattern within a wide block, if any: lanes are
    /// consecutive 64-pattern sub-blocks, so the first non-zero lane's
    /// lowest set bit is the earliest detecting pattern.
    #[inline]
    fn first_detection(start: usize, det: &WideWord) -> Option<u32> {
        (0..LANES)
            .find(|&l| det[l] != 0)
            .map(|l| (start + 64 * l) as u32 + det[l].trailing_zeros())
    }

    /// Good-machine simulation one 256-pattern block at a time: calls
    /// `visit(start, count, good)` with the wide value of every tape
    /// position for patterns `start..start + count`.
    fn for_each_block(
        &self,
        patterns: &PatternSet,
        mut visit: impl FnMut(usize, usize, &[WideWord]),
    ) {
        let mut vals = Vec::new();
        let mut start = 0usize;
        while start < patterns.len() {
            let (src, count) = GateTape::pack_wide(patterns, start);
            self.tape.eval_wide(&src, &mut vals);
            self.note_good_pass();
            visit(start, count, &vals);
            start += WIDE_PATTERNS;
        }
    }

    /// For each of `defects`, the ascending indices of the patterns that
    /// detect it — no fault dropping. One good-machine pass per
    /// 256-pattern block is shared by every defect.
    pub fn detection_sets<D: Copy + Into<Defect>>(
        &self,
        patterns: &PatternSet,
        defects: &[D],
    ) -> Vec<Vec<u32>> {
        let mut sets = vec![Vec::new(); defects.len()];
        let mut ws = TapeWorkspace::new(&self.tape);
        self.for_each_block(patterns, |start, count, good| {
            let mask = GateTape::wide_mask(count);
            for (set, &d) in sets.iter_mut().zip(defects) {
                let (det, _) = self.tape.detect_defect(good, &mask, d.into(), &mut ws);
                for (lane, &word) in det.iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        set.push((start + 64 * lane) as u32 + w.trailing_zeros());
                        w &= w - 1;
                    }
                }
            }
        });
        sets
    }

    /// For each of `defects`, its faulty response to every pattern (the
    /// layout of [`SimKernel::eval_batch`]). One good-machine pass per
    /// 256-pattern block is shared by every defect.
    pub fn faulty_responses<D: Copy + Into<Defect>>(
        &self,
        patterns: &PatternSet,
        defects: &[D],
    ) -> Vec<Vec<Response>> {
        let mut out = vec![Vec::with_capacity(patterns.len()); defects.len()];
        let mut ws = TapeWorkspace::new(&self.tape);
        self.for_each_block(patterns, |_, count, good| {
            let mask = GateTape::wide_mask(count);
            for (responses, &d) in out.iter_mut().zip(defects) {
                let sinks = self.tape.faulty_sink_words(good, &mask, d.into(), &mut ws);
                push_responses(&sinks, count, responses);
            }
        });
        out
    }

    /// Broadside (launch-on-capture) pairs for scan `patterns`: the
    /// launch vector is the scan-loaded pattern; the capture vector keeps
    /// the primary inputs and replaces the pseudo-PI (flop) bits with the
    /// functional response captured from the launch cycle.
    pub fn broadside_pairs(&self, patterns: &PatternSet) -> Vec<(Pattern, Pattern)> {
        let num_pi = self.nl.num_inputs();
        let num_po = self.nl.num_outputs();
        patterns
            .iter()
            .zip(self.eval_batch(patterns))
            .map(|(p, r)| {
                let mut v2 = p.clone();
                // Response layout: POs first, then flop D-pin captures.
                for (ff, &bit) in r[num_po..].iter().enumerate() {
                    v2[num_pi + ff] = bit;
                }
                (p.clone(), v2)
            })
            .collect()
    }
}

/// Unpacks the first `count` patterns of a block's per-sink wide words
/// into responses.
fn push_responses(sinks: &[WideWord], count: usize, out: &mut Vec<Response>) {
    for k in 0..count {
        out.push(
            sinks
                .iter()
                .map(|w| (w[k / 64] >> (k % 64)) & 1 == 1)
                .collect(),
        );
    }
}

impl<'nl> SimKernel<'nl> for TapeKernel<'nl> {
    fn compile(nl: &'nl Netlist) -> Self {
        TapeKernel {
            nl,
            tape: GateTape::compile(nl),
            metrics: MetricsHandle::disabled(),
            trace: TraceHandle::disabled(),
            poison: None,
            cancel: None,
            chaos: None,
        }
    }

    fn netlist(&self) -> &'nl Netlist {
        self.nl
    }

    fn eval_batch(&self, patterns: &PatternSet) -> Vec<Response> {
        let mut out = Vec::with_capacity(patterns.len());
        self.for_each_block(patterns, |_, count, good| {
            push_responses(&self.tape.sink_words_wide(good), count, &mut out);
        });
        out
    }

    fn fault_batch(
        &self,
        patterns: &PatternSet,
        list: &mut FaultList,
        exec: &Executor,
    ) -> SimStats {
        let active: Vec<usize> = list.undetected().collect();
        let mut stats = SimStats {
            patterns: patterns.len(),
            faults_simulated: active.len(),
            ..SimStats::default()
        };
        let exec = if active.len() * patterns.len() < PARALLEL_THRESHOLD {
            Executor::serial()
        } else {
            *exec
        };
        let _run = self.trace.span_arg("faultsim_run", active.len() as u64);
        // Precompute wide good values for every 256-pattern block
        // (shared read-only across workers), plus a packed copy of lane 0
        // for the scalar fast path.
        let blocks: Vec<(usize, Vec<WideWord>, Vec<u64>, WideWord)> = {
            let _g = self.trace.span_arg(
                "goodsim_eval",
                patterns.len().div_ceil(WIDE_PATTERNS) as u64,
            );
            let mut blocks = Vec::new();
            self.for_each_block(patterns, |start, count, vals| {
                let lane0 = GateTape::lane_values(vals, 0);
                blocks.push((start, vals.to_vec(), lane0, GateTape::wide_mask(count)));
            });
            blocks
        };
        let faults = list.faults();
        // One result per chunk, in chunk (= fault) order.
        type ChunkResult = (Vec<(usize, u32)>, u64, usize);
        let chunk_len = active.len().div_ceil(exec.threads()).max(1);
        let chunks: Vec<ChunkResult> = exec.map_chunks(&active, |base, part| {
            let _batch = if self.trace.batch_spans() {
                Some(
                    self.trace
                        .span_arg("faultsim_batch", (base / chunk_len) as u64),
                )
            } else {
                None
            };
            let mut ws = TapeWorkspace::new(&self.tape);
            let mut detections = Vec::new();
            let mut evals = 0u64;
            let mut failed = 0usize;
            // Block-major over the chunk: faults still alive (undetected,
            // not failed) carry over to the next wide block. Per-fault
            // work and results are identical to fault-major order; this
            // order lets the workspace keep one block's good lane loaded
            // across the whole fault sweep.
            let mut alive: Vec<usize> = part.to_vec();
            'blocks: for (start, good, lane0, mask) in &blocks {
                if alive.is_empty() {
                    break;
                }
                ws.load_lane(lane0);
                let mut kept = Vec::with_capacity(alive.len());
                for &idx in &alive {
                    if let Some(tok) = &self.cancel {
                        if tok.poll() {
                            break 'blocks;
                        }
                    }
                    if let Some(chaos) = &self.chaos {
                        if chaos.fires(ChaosSite::DelayBatch, idx as u64) {
                            std::thread::sleep(chaos.delay);
                        }
                    }
                    let fault = faults[idx];
                    // One fault = one batch: contain any panic to it. The
                    // workspace is safe to reuse after a mid-propagation
                    // panic because the next injection's re-arm restores
                    // the current-value array and frontier bitset.
                    let batch = catch_unwind(AssertUnwindSafe(|| {
                        if self.poison == Some(fault) {
                            panic!("poisoned fault batch: {fault}");
                        }
                        if let Some(chaos) = &self.chaos {
                            if chaos.fires(ChaosSite::WorkerPanic, idx as u64) {
                                panic!("chaos: injected worker panic at fault {idx}");
                            }
                        }
                        // Fast path: most drops happen within the first
                        // 64 patterns of a block, so propagate lane 0
                        // alone (scalar, quarter the traffic). Survivors
                        // pay one wide pass for the remaining three lanes
                        // together instead of three scalar passes.
                        let mut e = 0u64;
                        let (det0, de) = self.tape.detect_lane(mask[0], fault, &mut ws);
                        e += de;
                        if det0 != 0 {
                            return (Some(*start as u32 + det0.trailing_zeros()), e);
                        }
                        if mask[1] != 0 {
                            let tail = [0, mask[1], mask[2], mask[3]];
                            let (det, de) = self.tape.detect_wide(good, &tail, fault, &mut ws);
                            e += de;
                            if let Some(pattern) = Self::first_detection(*start, &det) {
                                return (Some(pattern), e);
                            }
                        }
                        (None, e)
                    }));
                    match batch {
                        Ok((hit, e)) => {
                            evals += e;
                            match hit {
                                Some(pattern) => detections.push((idx, pattern)),
                                None => kept.push(idx),
                            }
                        }
                        // A failed batch is not retried on later blocks.
                        Err(_) => failed += 1,
                    }
                }
                alive = kept;
            }
            (detections, evals, failed)
        });
        stats.interrupted = self.cancel.as_ref().is_some_and(|tok| tok.is_cancelled());
        for (detections, evals, failed) in chunks {
            stats.gate_evals += evals;
            stats.failed_batches += failed;
            if stats.interrupted {
                // Discard every detection (see SimStats::interrupted).
                continue;
            }
            for (idx, pattern) in detections {
                list.mark_detected(idx, pattern);
                stats.detected += 1;
            }
        }
        self.flush_fault_stats(&stats);
        stats
    }

    fn transition_batch(
        &self,
        pairs: &[(Pattern, Pattern)],
        list: &mut FaultList,
        exec: &Executor,
    ) -> SimStats {
        let active: Vec<usize> = list.undetected().collect();
        let mut stats = SimStats {
            patterns: pairs.len(),
            faults_simulated: active.len(),
            ..SimStats::default()
        };
        let exec = if active.len() * pairs.len() < PARALLEL_THRESHOLD {
            Executor::serial()
        } else {
            *exec
        };
        let _run = self.trace.span_arg("transition_run", pairs.len() as u64);
        // Wide launch/capture good values per 256-pair block.
        struct Block {
            start: usize,
            good1: Vec<WideWord>,
            good2: Vec<WideWord>,
            mask: WideWord,
        }
        let mut blocks = Vec::new();
        let mut start = 0usize;
        while start < pairs.len() {
            let count = (pairs.len() - start).min(WIDE_PATTERNS);
            let width = pairs[0].0.len();
            let mut w1 = vec![[0u64; LANES]; width];
            let mut w2 = vec![[0u64; LANES]; width];
            for k in 0..count {
                let (lane, bit) = (k / 64, k % 64);
                let (l, c) = &pairs[start + k];
                for s in 0..width {
                    if l[s] {
                        w1[s][lane] |= 1 << bit;
                    }
                    if c[s] {
                        w2[s][lane] |= 1 << bit;
                    }
                }
            }
            let mut good1 = Vec::new();
            self.tape.eval_wide(&w1, &mut good1);
            self.note_good_pass();
            let mut good2 = Vec::new();
            self.tape.eval_wide(&w2, &mut good2);
            self.note_good_pass();
            blocks.push(Block {
                start,
                good1,
                good2,
                mask: GateTape::wide_mask(count),
            });
            start += count;
        }
        let faults = list.faults();
        type ChunkResult = (Vec<(usize, u32)>, u64);
        let chunk_len = active.len().div_ceil(exec.threads()).max(1);
        let chunks: Vec<ChunkResult> = exec.map_chunks(&active, |base, part| {
            let _batch = if self.trace.batch_spans() {
                Some(
                    self.trace
                        .span_arg("transition_batch", (base / chunk_len) as u64),
                )
            } else {
                None
            };
            let mut ws = TapeWorkspace::new(&self.tape);
            let mut out = Vec::new();
            let mut evals = 0u64;
            'fault: for &idx in part {
                let fault = faults[idx];
                let lvv = match fault.kind.launch_value() {
                    Some(v) => v,
                    None => continue, // not a transition fault
                };
                let site = self.tape.site_position(fault.site);
                let stuck = Fault {
                    site: fault.site,
                    kind: if fault.kind.stuck_value() {
                        FaultKind::StuckAt1
                    } else {
                        FaultKind::StuckAt0
                    },
                };
                for b in &blocks {
                    // Launch condition: site holds the pre-transition
                    // value during v1.
                    let g1 = &b.good1[site];
                    let launch_ok: WideWord =
                        std::array::from_fn(|l| (if lvv { g1[l] } else { !g1[l] }) & b.mask[l]);
                    if launch_ok.iter().all(|&w| w == 0) {
                        continue;
                    }
                    let (det, e) = self.tape.detect_wide(&b.good2, &b.mask, stuck, &mut ws);
                    evals += e;
                    let det: WideWord = std::array::from_fn(|l| det[l] & launch_ok[l]);
                    if let Some(pair) = Self::first_detection(b.start, &det) {
                        out.push((idx, pair));
                        continue 'fault;
                    }
                }
            }
            (out, evals)
        });
        for (detections, evals) in chunks {
            stats.gate_evals += evals;
            for (idx, pattern) in detections {
                list.mark_detected(idx, pattern);
                stats.detected += 1;
            }
        }
        self.flush_transition_stats(&stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{oracle, FiveSim};
    use dft_fault::{universe_stuck_at, universe_transition, FaultStatus};
    use dft_netlist::generators::{c17, counter, mac_pe, ripple_adder, s27};

    fn statuses(list: &FaultList) -> Vec<FaultStatus> {
        (0..list.faults().len()).map(|i| list.status(i)).collect()
    }

    #[test]
    fn fault_batch_matches_oracle_across_threads() {
        for nl in [c17(), s27(), ripple_adder(8), counter(6), mac_pe(4)] {
            let ps = PatternSet::random(&nl, 300, 99);
            let sim = FiveSim::new(&nl);
            let faults = universe_stuck_at(&nl);
            // First detecting pattern of each fault, one pattern at a time.
            let want: Vec<FaultStatus> = faults
                .iter()
                .map(|&f| {
                    ps.iter()
                        .position(|p| oracle::detects(&sim, p, f))
                        .map_or(FaultStatus::Undetected, |i| FaultStatus::Detected(i as u32))
                })
                .collect();
            let tape = TapeKernel::compile(&nl);
            for threads in [1usize, 2, 4, 7] {
                let mut list = FaultList::new(faults.clone());
                let s = tape.fault_batch(&ps, &mut list, &Executor::with_threads(threads));
                assert_eq!(statuses(&list), want, "{} threads={threads}", nl.name());
                assert_eq!(s.detected, list.num_detected());
                assert_eq!(s.patterns, ps.len());
                assert_eq!(s.faults_simulated, faults.len());
            }
        }
    }

    #[test]
    fn eval_batch_matches_oracle() {
        for nl in [c17(), s27(), counter(5), mac_pe(3)] {
            let ps = PatternSet::random(&nl, 300, 3);
            let sim = FiveSim::new(&nl);
            let want: Vec<Response> = ps.iter().map(|p| oracle::response(&sim, p, None)).collect();
            assert_eq!(
                TapeKernel::compile(&nl).eval_batch(&ps),
                want,
                "{}",
                nl.name()
            );
        }
    }

    #[test]
    fn transition_batch_matches_oracle() {
        for nl in [s27(), ripple_adder(8), counter(6), mac_pe(4)] {
            let ps = PatternSet::random(&nl, 280, 17);
            let pairs: Vec<(Pattern, Pattern)> = (0..ps.len() - 1)
                .map(|i| (ps.pattern(i).clone(), ps.pattern(i + 1).clone()))
                .collect();
            let sim = FiveSim::new(&nl);
            let faults = universe_transition(&nl);
            let want: Vec<FaultStatus> = faults
                .iter()
                .map(|&f| {
                    pairs
                        .iter()
                        .position(|(l, c)| oracle::detects_transition(&sim, l, c, f))
                        .map_or(FaultStatus::Undetected, |i| FaultStatus::Detected(i as u32))
                })
                .collect();
            let tape = TapeKernel::compile(&nl);
            for threads in [1usize, 3] {
                let mut list = FaultList::new(faults.clone());
                let s = tape.transition_batch(&pairs, &mut list, &Executor::with_threads(threads));
                assert_eq!(statuses(&list), want, "{} threads={threads}", nl.name());
                assert_eq!(s.detected, list.num_detected());
            }
        }
    }

    #[test]
    fn tape_poisoned_fault_is_isolated() {
        let nl = mac_pe(3);
        let ps = PatternSet::random(&nl, 96, 5);
        let faults = universe_stuck_at(&nl);
        let poison = faults[faults.len() / 2];
        let clean = TapeKernel::compile(&nl);
        let mut want = FaultList::new(faults.clone());
        clean.fault_batch(&ps, &mut want, &Executor::serial());
        let sim = TapeKernel::compile(&nl).with_poisoned_fault(poison);
        let mut list = FaultList::new(faults.clone());
        let stats = sim.fault_batch(&ps, &mut list, &Executor::with_threads(4));
        assert_eq!(stats.failed_batches, 1);
        for (i, &f) in faults.iter().enumerate() {
            if f == poison {
                assert_eq!(list.status(i), FaultStatus::Undetected);
            } else {
                assert_eq!(list.status(i), want.status(i), "fault {i}");
            }
        }
    }
}
