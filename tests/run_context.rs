//! Pins of everything the engines' run context reaches: cancel-token
//! poll counts of complete durable flows, the interrupt point of a
//! deterministic trip, and the span-name multisets and counters of the
//! traced hierarchical plan, broadcast screen, LBIST session and BISR
//! run. The values were read from the engines before they shared one
//! run context, and must not move when the plumbing changes.

use std::collections::BTreeMap;
use std::path::PathBuf;

use dft_core::aichip::{broadcast_screen, hierarchical_plan, SocConfig};
use dft_core::atpg::{Atpg, AtpgConfig, AtpgError, Durability};
use dft_core::bist::{LogicBist, SramModel};
use dft_core::checkpoint::{CancelToken, Journal};
use dft_core::logicsim::RunCtx;
use dft_core::metrics::{MetricsHandle, MetricsSnapshot};
use dft_core::netlist::generators::{mac_pe, systolic_array, SystolicConfig};
use dft_core::netlist::Netlist;
use dft_core::repair::{random_point_faults, BisrEngine, SpareConfig, SramGeometry};
use dft_core::trace::{SpanNode, TraceConfig, TraceHandle, TraceSession};
use dft_core::DftFlow;

fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aidft-run-context-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.ckpt"));
    std::fs::remove_file(&path).ok();
    path
}

fn sys2x2() -> Netlist {
    systolic_array(SystolicConfig {
        rows: 2,
        cols: 2,
        width: 4,
    })
}

/// A run context that polls `token`.
fn polling(token: &CancelToken) -> RunCtx {
    RunCtx {
        cancel: Some(token.clone()),
        ..RunCtx::default()
    }
}

/// A complete journaled `DftFlow::run_durable` on `token`.
fn durable_flow(nl: &Netlist, threads: usize, token: &CancelToken, path: &PathBuf) {
    let mut dur = Durability::new().with_journal(Journal::new(path));
    DftFlow::new(nl)
        .threads(threads)
        .ctx(RunCtx {
            cancel: Some(token.clone()),
            ..RunCtx::metered()
        })
        .run_durable(&mut dur)
        .expect("no trip point: the run completes");
}

/// A journaled `Atpg::run_durable` on `token`.
fn durable_atpg(nl: &Netlist, token: &CancelToken, path: &PathBuf) -> Result<(), AtpgError> {
    let mut dur = Durability::new().with_journal(Journal::new(path));
    Atpg::new(nl)
        .with_ctx(polling(token))
        .run_durable(&AtpgConfig::new().threads(1), &mut dur)
        .map(|_| ())
}

fn traced(trace: TraceHandle) -> RunCtx {
    RunCtx {
        trace,
        ..RunCtx::default()
    }
}

fn hier_plan(core: &Netlist, cfg: &SocConfig, atpg: &AtpgConfig, trace: TraceHandle) {
    hierarchical_plan(core, cfg, atpg, &traced(trace));
}

fn screen(core: &Netlist, cfg: &SocConfig, atpg: &AtpgConfig, bad: &[usize], trace: TraceHandle) {
    broadcast_screen(core, cfg, atpg, bad, &traced(trace));
}

fn lbist(nl: &Netlist, metrics: MetricsHandle, trace: TraceHandle) -> (f64, u64) {
    let r = LogicBist::new(nl, 32)
        .threads(1)
        .ctx(RunCtx {
            metrics,
            ..traced(trace)
        })
        .run(512, 0xB157);
    (r.coverage, r.signature)
}

fn bisr(metrics: MetricsHandle, trace: TraceHandle) -> (usize, usize, bool) {
    let geom = SramGeometry { rows: 16, cols: 16 };
    let spares = SpareConfig {
        spare_rows: 2,
        spare_cols: 2,
    };
    let faults = random_point_faults(geom, &spares, 3, 0xB15);
    let physical = SramModel::with_faults(spares.physical_size(&geom), faults);
    let r = BisrEngine::new()
        .with_ctx(RunCtx {
            metrics,
            ..traced(trace)
        })
        .run(&physical, geom, &spares);
    (r.initial_fails, r.rounds, r.repaired)
}

/// `(name, count)` of every span in the forest, sorted by name.
fn span_multiset(session: &TraceSession) -> Vec<(&'static str, usize)> {
    fn walk(nodes: &[SpanNode], out: &mut BTreeMap<&'static str, usize>) {
        for n in nodes {
            *out.entry(n.name).or_default() += 1;
            walk(&n.children, out);
        }
    }
    let dump = session.snapshot();
    assert_eq!(dump.dropped, 0, "trace ring overflowed");
    let mut out = BTreeMap::new();
    walk(&dump.spans().expect("balanced span forest"), &mut out);
    out.into_iter().collect()
}

/// Every non-zero counter of the snapshot, in registry order.
fn nonzero_counters(snap: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
    snap.counters
        .iter()
        .filter(|(_, v)| *v != 0)
        .copied()
        .collect()
}

fn small_soc() -> (SocConfig, AtpgConfig) {
    (
        SocConfig {
            num_cores: 4,
            threads: 1,
            ..SocConfig::default()
        },
        AtpgConfig::new().threads(1),
    )
}

/// Polls of a complete durable flow with a journal: one per fault per
/// simulated block, one per top-off fault boundary, one at sign-off.
/// Equal at 1 and 2 threads.
#[test]
fn complete_durable_flow_poll_counts_are_pinned() {
    for (name, nl, polls) in [("mac4", mac_pe(4), 1471u64), ("sys2x2", sys2x2(), 8560)] {
        for threads in [1usize, 2] {
            let token = CancelToken::new();
            let path = ckpt_path(&format!("polls-{name}-{threads}"));
            durable_flow(&nl, threads, &token, &path);
            assert_eq!(token.polls(), polls, "{name} at {threads} thread(s)");
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Where a deterministic trip point stops mac4's durable ATPG: the
/// phase, patterns and collapsed detections of the interrupt.
#[test]
fn trip_point_interrupts_are_pinned() {
    for (trip, phase, patterns, detected) in [
        (40u64, "random", 0usize, 0usize),
        (560, "topoff", 129, 523),
        (1000, "signoff", 130, 526),
    ] {
        let token = CancelToken::new();
        token.trip_after_polls(trip);
        let path = ckpt_path(&format!("trip-{trip}"));
        match durable_atpg(&mac_pe(4), &token, &path) {
            Err(AtpgError::Interrupted(i)) => {
                assert_eq!(
                    (i.phase, i.patterns, i.detected),
                    (phase, patterns, detected),
                    "trip after {trip} polls"
                );
                assert!(i.checkpoint.is_some(), "trip after {trip} polls");
            }
            other => panic!("trip after {trip} polls: expected an interrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn hierarchical_plan_spans_are_pinned() {
    let (cfg, atpg) = small_soc();
    let s = TraceSession::new(TraceConfig::default());
    hier_plan(&mac_pe(4), &cfg, &atpg, s.handle());
    assert_eq!(
        span_multiset(&s),
        [
            ("atpg_random", 1),
            ("atpg_signoff", 1),
            ("atpg_topoff", 1),
            ("broadcast_verify", 1),
            ("core_screen", 4),
            ("faultsim_batch", 4),
            ("faultsim_run", 4),
            ("goodsim_eval", 4),
            ("hier_plan", 1),
            ("podem", 1),
            ("sim_compile", 1),
        ]
    );
}

#[test]
fn broadcast_screen_spans_are_pinned() {
    let (cfg, atpg) = small_soc();
    let s = TraceSession::new(TraceConfig::default());
    screen(&mac_pe(4), &cfg, &atpg, &[1, 2], s.handle());
    assert_eq!(
        span_multiset(&s),
        [
            ("atpg_random", 1),
            ("atpg_signoff", 1),
            ("atpg_topoff", 1),
            ("broadcast_screen", 1),
            ("core_screen", 4),
            ("faultsim_batch", 4),
            ("faultsim_run", 4),
            ("goodsim_eval", 4),
            ("podem", 1),
            ("sim_compile", 1),
        ]
    );
}

#[test]
fn lbist_session_spans_and_counters_are_pinned() {
    let s = TraceSession::new(TraceConfig::default());
    let m = MetricsHandle::enabled();
    let (coverage, signature) = lbist(&mac_pe(4), m.clone(), s.handle());
    assert_eq!(coverage, 855.0 / 884.0);
    assert_eq!(signature, 754283865029511410);
    assert_eq!(
        span_multiset(&s),
        [
            ("faultsim_batch", 1),
            ("faultsim_run", 1),
            ("goodsim_eval", 1),
            ("lbist_session", 1),
            ("misr_signature", 1),
        ]
    );
    assert_eq!(
        nonzero_counters(&m.snapshot().unwrap()),
        [
            ("goodsim_blocks", 4),
            ("goodsim_gate_evals", 624),
            ("faultsim_runs", 1),
            ("faultsim_patterns", 512),
            ("faultsim_faults", 884),
            ("faultsim_detected", 855),
            ("faultsim_gate_evals", 23633),
            ("bist_sessions", 1),
            ("bist_patterns", 512),
            ("lfsr_cycles", 14848),
            ("misr_cycles", 512),
        ]
    );
}

#[test]
fn bisr_run_spans_and_counters_are_pinned() {
    let s = TraceSession::new(TraceConfig::default());
    let m = MetricsHandle::enabled();
    assert_eq!(bisr(m.clone(), s.handle()), (3, 1, true));
    assert_eq!(
        span_multiset(&s),
        [("bisr_round", 1), ("bisr_run", 1), ("mbist_march", 2)]
    );
    assert_eq!(
        nonzero_counters(&m.snapshot().unwrap()),
        [
            ("bisr_runs", 1),
            ("bisr_repaired", 1),
            ("bisr_spares_used", 3)
        ]
    );
}
