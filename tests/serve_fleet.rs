//! Fleet-service integration: a real loopback TCP server and 64 die
//! clients, checked bit-for-bit against the no-server reference, across
//! client thread counts, chaos-injected transport faults, and a
//! kill/resume split. The invariant throughout: the final fleet state
//! is a pure function of `(design, ServeConfig, chaos config)` —
//! scheduling, wall-clock timing, and checkpointing must never leak
//! into it. Chaos that only perturbs transport is invisible; chaos
//! that makes a die unreachable produces the *same* quarantine verdict
//! on every run.

use std::path::PathBuf;

use dft_core::checkpoint::{CancelToken, ChaosConfig, FramedJournal};
use dft_core::metrics::MetricsHandle;
use dft_core::netlist::generators::mac_pe;
use dft_core::serve::{
    die_reference_signatures, run_fleet, DieSim, ServeConfig, ServeError, ServeOpts,
    ServedStimulus, SERVE_FORMAT,
};
use dft_core::trace::TraceHandle;

fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aidft-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.ckpt"));
    std::fs::remove_file(&path).ok();
    path
}

#[test]
fn sixty_four_dies_match_reference_across_thread_counts() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 64,
        client_threads: 1,
        ..ServeConfig::default()
    };
    let serial = run_fleet(&nl, &cfg, &ServeOpts::default()).unwrap();
    assert_eq!(serial.state.done.len(), 64, "every die reaches a verdict");

    // Every die's uploaded signatures must be bit-identical to the
    // single-die reference computed without any server or socket.
    let stim = ServedStimulus::build(
        &nl,
        &cfg,
        &MetricsHandle::default(),
        &TraceHandle::disabled(),
    );
    let sim = DieSim::new(&nl, &stim);
    for (id, outcome) in &serial.state.done {
        let reference = die_reference_signatures(&stim, &sim, &cfg, *id);
        assert_eq!(outcome.signatures, reference, "die {id} signatures");
        assert_eq!(
            outcome.passed,
            reference == stim.golden_sigs,
            "die {id} verdict consistent with its signatures"
        );
    }

    // Four concurrent die clients: interleaving changes, state does not.
    let cfg4 = ServeConfig {
        client_threads: 4,
        ..cfg
    };
    let threaded = run_fleet(&nl, &cfg4, &ServeOpts::default()).unwrap();
    assert_eq!(threaded.state, serial.state, "client_threads 4 vs 1");
    assert_eq!(threaded.summary, serial.summary);
}

#[test]
fn chaos_transport_faults_do_not_change_the_verdict() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 16,
        client_threads: 4,
        ..ServeConfig::default()
    };
    let clean = run_fleet(&nl, &cfg, &ServeOpts::default()).unwrap();
    let chaos = ChaosConfig::parse("drop=0.15,tear=0.15,delay=0.1,delay_ms=2,seed=3").unwrap();
    let opts = ServeOpts {
        chaos,
        ..ServeOpts::default()
    };
    let noisy = run_fleet(&nl, &cfg, &opts).unwrap();
    assert_eq!(
        noisy.state, clean.state,
        "chaos must be invisible in the state"
    );
    assert_eq!(noisy.summary, clean.summary);
}

#[test]
fn chaos_killed_fleet_resumes_to_the_identical_state() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 24,
        client_threads: 2,
        checkpoint_every: 1,
        ..ServeConfig::default()
    };
    let baseline = run_fleet(&nl, &cfg, &ServeOpts::default()).unwrap();

    // Kill mid-stream: the cancel token trips on the Nth window poll
    // while chaos drops connections and tears frames.
    let path = ckpt_path("serve-resume");
    let token = CancelToken::new();
    token.trip_after_polls(20);
    let opts = ServeOpts {
        cancel: token,
        chaos: ChaosConfig::parse("drop=0.1,tear=0.1,seed=7").unwrap(),
        journal: Some(FramedJournal::new(&path, SERVE_FORMAT)),
        ..ServeOpts::default()
    };
    match run_fleet(&nl, &cfg, &opts) {
        Err(ServeError::Interrupted {
            checkpoint,
            done,
            dies,
        }) => {
            assert_eq!(dies, 24);
            assert!(done < 24, "interrupt must land mid-fleet (done {done})");
            assert_eq!(checkpoint.as_deref(), Some(path.as_path()));
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }

    // Resume from the journal: restored dies are not re-streamed, and
    // the final state matches the uninterrupted baseline exactly.
    let opts = ServeOpts {
        journal: Some(FramedJournal::new(&path, SERVE_FORMAT)),
        resume: true,
        ..ServeOpts::default()
    };
    let resumed = run_fleet(&nl, &cfg, &opts).unwrap();
    assert!(resumed.resumed_dies > 0, "checkpoint must restore dies");
    assert_eq!(resumed.state, baseline.state, "resume vs uninterrupted");
    assert_eq!(resumed.summary, baseline.summary);
    std::fs::remove_file(&path).ok();
}

/// A permanently dead server path: every session goes half-open right
/// after Hello. The fleet must still complete — no hang — with every
/// die quarantined `Untestable`, and the verdicts must be bit-identical
/// across client thread counts.
#[test]
fn halfopen_dead_fleet_completes_and_quarantines_every_die() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 8,
        client_threads: 1,
        max_reconnects: 2,
        backoff_base_ms: 0,
        ..ServeConfig::default()
    };
    let chaos = ChaosConfig::parse("halfopen=1.0,stall_ms=5,seed=11").unwrap();
    let opts = ServeOpts {
        chaos,
        ..ServeOpts::default()
    };
    let serial = run_fleet(&nl, &cfg, &opts).unwrap();
    assert_eq!(serial.state.done.len(), 8, "fleet completes, never hangs");
    assert!(
        serial.state.done.values().all(|d| d.quarantined),
        "every die is quarantined"
    );
    assert!(
        serial.state.done.values().all(|d| d.signatures.is_empty()),
        "quarantined dies carry no signatures"
    );
    assert_eq!(serial.summary.tested, 0);
    assert_eq!(serial.summary.quarantined, 8);
    assert_eq!(serial.summary.untested, 8);
    assert_eq!(serial.summary.scrapped, 8);
    // 0.25 defect rate, whole fleet quarantined: 250k DPPM exposure.
    assert_eq!(serial.summary.dppm_risk, 250_000);

    let cfg4 = ServeConfig {
        client_threads: 4,
        ..cfg
    };
    let threaded = run_fleet(&nl, &cfg4, &opts).unwrap();
    assert_eq!(threaded.state, serial.state, "client_threads 4 vs 1");
    assert_eq!(threaded.summary, serial.summary);
}

/// The full acceptance matrix for degraded verdicts: under a chaos mix
/// of half-open connections, stalled streams, and corrupted uploads
/// with a tight reconnect budget, some dies quarantine and some pass —
/// and the final state is bit-identical across client thread counts
/// AND across a kill/`--resume` split run under the *same* chaos.
#[test]
fn mixed_chaos_quarantine_is_identical_across_threads_and_resume() {
    let nl = mac_pe(4);
    let chaos_knobs = "halfopen=0.4,stall=0.2,corrupt=0.15,stall_ms=2,seed=9";
    let cfg = ServeConfig {
        dies: 16,
        client_threads: 1,
        checkpoint_every: 1,
        max_reconnects: 2,
        backoff_base_ms: 0,
        ..ServeConfig::default()
    };
    let opts_with = || ServeOpts {
        chaos: ChaosConfig::parse(chaos_knobs).unwrap(),
        ..ServeOpts::default()
    };
    let baseline = run_fleet(&nl, &cfg, &opts_with()).unwrap();
    assert_eq!(baseline.state.done.len(), 16, "fleet completes");
    let q = baseline.summary.quarantined;
    assert!(q > 0, "chaos mix must trip at least one breaker");
    assert!(q < 16, "chaos mix must let some dies finish (got {q})");
    assert_eq!(baseline.summary.untested, q);

    // Thread-count invariance under the same chaos.
    let cfg4 = ServeConfig {
        client_threads: 4,
        ..cfg
    };
    let threaded = run_fleet(&nl, &cfg4, &opts_with()).unwrap();
    assert_eq!(threaded.state, baseline.state, "client_threads 4 vs 1");

    // Kill/resume split under the same chaos: quarantine decisions are
    // replayed from deterministic attempt counts, never persisted
    // half-made.
    let path = ckpt_path("serve-quarantine-resume");
    let token = CancelToken::new();
    token.trip_after_polls(12);
    let opts = ServeOpts {
        cancel: token,
        journal: Some(FramedJournal::new(&path, SERVE_FORMAT)),
        ..opts_with()
    };
    match run_fleet(&nl, &cfg, &opts) {
        Err(ServeError::Interrupted { done, dies, .. }) => {
            assert_eq!(dies, 16);
            assert!(done < 16, "interrupt must land mid-fleet (done {done})");
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
    let opts = ServeOpts {
        journal: Some(FramedJournal::new(&path, SERVE_FORMAT)),
        resume: true,
        ..opts_with()
    };
    let resumed = run_fleet(&nl, &cfg, &opts).unwrap();
    assert_eq!(resumed.state, baseline.state, "resume vs uninterrupted");
    assert_eq!(resumed.summary, baseline.summary);
    std::fs::remove_file(&path).ok();
}

/// Liveness knobs never touch state: with tight socket deadlines and a
/// zero-tolerance idle reaper, stalls surface as client timeouts and
/// heartbeats get sessions reaped — yet with a full reconnect budget
/// every die still converges to exactly the clean-run verdict.
#[test]
fn deadlines_and_reaper_bound_liveness_without_changing_state() {
    let nl = mac_pe(4);
    let clean_cfg = ServeConfig {
        dies: 8,
        client_threads: 2,
        ..ServeConfig::default()
    };
    let clean = run_fleet(&nl, &clean_cfg, &ServeOpts::default()).unwrap();

    let cfg = ServeConfig {
        io_timeout_ms: 50,
        max_heartbeats: 0,
        ..clean_cfg
    };
    let chaos = ChaosConfig::parse("stall=0.3,delay=0.3,delay_ms=2,stall_ms=200,seed=5").unwrap();
    let handle = MetricsHandle::enabled();
    let opts = ServeOpts {
        chaos,
        metrics: handle.clone(),
        ..ServeOpts::default()
    };
    let noisy = run_fleet(&nl, &cfg, &opts).unwrap();
    assert_eq!(
        noisy.state, clean.state,
        "deadlines and reaps are liveness-only — state must not move"
    );
    assert_eq!(noisy.summary.quarantined, 0);
    let snap = handle.snapshot().unwrap();
    assert!(
        snap.counter("serve_heartbeats") > 0,
        "delay chaos heartbeats"
    );
    assert!(snap.counter("serve_idle_reaps") > 0, "reaper fired");
    assert!(
        snap.counter("serve_retries") > 0,
        "backoff retries happened"
    );
}

/// The session pipeline's drain semantics, pinned by counter: under
/// mixed transport chaos every window already sent when a session dies
/// is still verified, so signatures, mismatches, retests, retries and
/// drops repeat exactly on every run and for any client thread count.
/// `serve_torn_frames` is left out: a server that closes with unread
/// bytes may reset the connection, and the die then sees `Io`, not
/// `Torn`.
#[test]
fn chaos_fleet_serve_counters_are_pinned() {
    let nl = mac_pe(4);
    for client_threads in [1, 4] {
        let cfg = ServeConfig {
            dies: 32,
            client_threads,
            ..ServeConfig::default()
        };
        let handle = MetricsHandle::enabled();
        let opts = ServeOpts {
            chaos: ChaosConfig::parse("drop=0.1,tear=0.1,corrupt=0.1,stall=0.05,stall_ms=5,seed=5")
                .unwrap(),
            metrics: handle.clone(),
            ..ServeOpts::default()
        };
        let report = run_fleet(&nl, &cfg, &opts).unwrap();
        assert_eq!(report.state.done.len(), 32);
        let snap = handle.snapshot().unwrap();
        for (counter, want) in [
            ("serve_sessions", 69),
            ("serve_windows", 102),
            ("serve_signatures", 86),
            ("serve_mismatches", 44),
            ("serve_retests", 26),
            ("serve_retries", 37),
            ("serve_conn_drops", 48),
            ("serve_corrupt_frames", 13),
        ] {
            assert_eq!(
                snap.counter(counter),
                want,
                "{counter} with {client_threads} client thread(s)"
            );
        }
    }
}

/// A fleet with nothing left to serve: resumed from the journal of a
/// completed run, every die is already done, the client workers exit
/// at once and no die ever connects. The acceptor must still be woken
/// for shutdown; without that wake-up this test hangs.
#[test]
fn completed_fleet_resumes_without_any_client_connecting() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 8,
        client_threads: 2,
        ..ServeConfig::default()
    };
    let path = ckpt_path("serve-all-done");
    let journal = || Some(FramedJournal::new(&path, SERVE_FORMAT));
    let opts = ServeOpts {
        journal: journal(),
        ..ServeOpts::default()
    };
    let done = run_fleet(&nl, &cfg, &opts).unwrap();
    let opts = ServeOpts {
        journal: journal(),
        resume: true,
        ..ServeOpts::default()
    };
    let resumed = run_fleet(&nl, &cfg, &opts).unwrap();
    assert_eq!(resumed.resumed_dies, 8, "every die restored");
    assert_eq!(resumed.state, done.state);
    assert_eq!(resumed.summary, done.summary);
    std::fs::remove_file(&path).ok();
}
