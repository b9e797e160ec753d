//! Durability integration: kill-and-resume determinism across designs
//! and thread counts, randomized kill points that must never corrupt
//! the journal, and chaos-injected worker panics surfacing in the
//! sign-off report.

use std::path::PathBuf;

use dft_core::atpg::{Atpg, AtpgConfig, AtpgError, AtpgRun, Durability};
use dft_core::checkpoint::{CancelToken, ChaosConfig, Journal};
use dft_core::logicsim::RunCtx;
use dft_core::netlist::generators::{decoder, mac_pe, systolic_array, SystolicConfig};
use dft_core::netlist::Netlist;
use dft_core::{DftError, DftFlow};

fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aidft-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.ckpt"));
    std::fs::remove_file(&path).ok();
    path
}

fn assert_same_run(run: &AtpgRun, reference: &AtpgRun, context: &str) {
    assert_eq!(
        run.patterns.len(),
        reference.patterns.len(),
        "{context}: pattern count"
    );
    for (i, (a, b)) in run
        .patterns
        .iter()
        .zip(reference.patterns.iter())
        .enumerate()
    {
        assert_eq!(a, b, "{context}: pattern {i}");
    }
    for i in 0..reference.fault_list.len() {
        assert_eq!(
            run.fault_list.status(i),
            reference.fault_list.status(i),
            "{context}: fault {i}"
        );
    }
    assert_eq!(
        run.untestable, reference.untestable,
        "{context}: untestable"
    );
    assert_eq!(run.aborted, reference.aborted, "{context}: aborted");
}

/// A run context that polls `token`.
fn polling(token: CancelToken) -> RunCtx {
    RunCtx {
        cancel: Some(token),
        ..RunCtx::default()
    }
}

fn sys2x2() -> Netlist {
    systolic_array(SystolicConfig {
        rows: 2,
        cols: 2,
        width: 4,
    })
}

/// The tentpole acceptance criterion: interrupt a durable flow at an
/// arbitrary point, resume from the checkpoint, and the final report is
/// bit-identical to an uninterrupted run — on mac4 and sys2x2, with 1
/// and 4 worker threads, and with resume crossing thread counts.
#[test]
fn kill_and_resume_is_bit_identical_across_designs_and_threads() {
    for (name, nl) in [("mac4", mac_pe(4)), ("sys2x2", sys2x2())] {
        for threads in [1usize, 4] {
            let reference = DftFlow::new(&nl).threads(threads).run();
            for kill_after in [3u64, 57] {
                let context = format!("{name} t{threads} kill{kill_after}");
                let path = ckpt_path(&context.replace(' ', "-"));
                let token = CancelToken::new();
                token.trip_after_polls(kill_after);
                let mut dur = Durability::new().with_journal(Journal::new(&path));
                let err = DftFlow::new(&nl)
                    .threads(threads)
                    .ctx(RunCtx {
                        cancel: Some(token),
                        ..RunCtx::metered()
                    })
                    .run_durable(&mut dur)
                    .expect_err("trip point fires well before completion");
                let checkpoint = match err {
                    DftError::Interrupted {
                        checkpoint: Some(p),
                        partial,
                    } => {
                        assert_eq!(partial.design, nl.name(), "{context}");
                        assert!(partial.total_faults > 0, "{context}");
                        p
                    }
                    other => panic!("{context}: expected checkpointed interrupt, got {other}"),
                };
                // Resume on the *other* thread count: the checkpoint
                // fingerprint deliberately excludes parallelism.
                let resume_threads = if threads == 1 { 4 } else { 1 };
                let state = Journal::new(&checkpoint).load_last().expect("valid record");
                let mut dur = Durability::new()
                    .with_journal(Journal::new(&checkpoint))
                    .resume_from(state);
                let resumed = DftFlow::new(&nl)
                    .threads(resume_threads)
                    .run_durable(&mut dur)
                    .expect("resume completes");
                assert_eq!(resumed.patterns, reference.patterns, "{context}");
                assert_eq!(
                    resumed.fault_coverage, reference.fault_coverage,
                    "{context}"
                );
                assert_eq!(resumed.test_coverage, reference.test_coverage, "{context}");
                assert_same_run(&resumed.atpg_run, &reference.atpg_run, &context);
                std::fs::remove_file(&checkpoint).ok();
            }
        }
    }
}

/// The chaos-suite acceptance criterion: >= 50 randomized kill points,
/// half of them with torn-checkpoint-write injection, must never panic,
/// never corrupt the journal, and always resume to the bit-identical
/// result.
#[test]
fn randomized_kill_points_never_corrupt_the_journal() {
    let nl = decoder(5);
    let cfg = AtpgConfig {
        random_patterns: 16,
        ..AtpgConfig::default()
    };
    let atpg = Atpg::new(&nl);
    let reference = atpg.run(&cfg);
    let mut interrupted = 0usize;
    for k in 0..50u64 {
        let context = format!("kill point {k}");
        let path = ckpt_path(&format!("rand-{k}"));
        // A deterministic spread of kill points across the whole run,
        // denser at the start where phase transitions cluster.
        let polls = 1 + (k * k * 7) % 900;
        let token = CancelToken::new();
        token.trip_after_polls(polls);
        let mut dur = Durability::new()
            .with_journal(Journal::new(&path))
            .checkpoint_every(8);
        let mut ctx = polling(token);
        if k % 2 == 1 {
            // Torn checkpoint writes on odd iterations: the journal must
            // still only ever expose complete records.
            ctx.chaos = ChaosConfig::parse(&format!("io=0.4,seed={k}")).unwrap();
        }
        match Atpg::new(&nl).with_ctx(ctx).run_durable(&cfg, &mut dur) {
            Ok(run) => assert_same_run(&run, &reference, &context),
            Err(AtpgError::Interrupted(i)) => {
                interrupted += 1;
                if let Some(ckpt) = i.checkpoint {
                    let state = Journal::new(&ckpt)
                        .load_last()
                        .unwrap_or_else(|e| panic!("{context}: corrupt journal: {e}"));
                    let mut dur = Durability::new()
                        .with_journal(Journal::new(&ckpt))
                        .resume_from(state);
                    let resumed = atpg
                        .run_durable(&cfg, &mut dur)
                        .unwrap_or_else(|e| panic!("{context}: resume failed: {e}"));
                    assert_same_run(&resumed, &reference, &context);
                }
            }
            Err(other) => panic!("{context}: unexpected error {other}"),
        }
        std::fs::remove_file(&path).ok();
    }
    assert!(
        interrupted >= 25,
        "kill schedule too lax: only {interrupted}/50 runs interrupted"
    );
}

/// Chaos-forced worker panics surface as `failed_sim_batches` in the
/// flow report with the WARNING line, instead of killing the run.
#[test]
fn chaos_worker_panics_surface_in_the_flow_report() {
    let nl = mac_pe(4);
    let chaos = ChaosConfig::parse("panic=0.08,seed=11").unwrap();
    let mut dur = Durability::new();
    let report = DftFlow::new(&nl)
        .threads(4)
        .ctx(RunCtx {
            chaos,
            ..RunCtx::metered()
        })
        .run_durable(&mut dur)
        .expect("panics are isolated, not fatal");
    assert!(
        report.failed_sim_batches > 0,
        "chaos panic=0.08 seed=11 injected no worker panics"
    );
    assert!(report.to_string().contains("WARNING"));
    // Lost batches cost coverage but never sign-off integrity.
    assert!(report.test_coverage > 0.5);
}

/// Torn-write chaos on every checkpoint is survivable: failed writes
/// are counted, and whenever an interrupt still manages to produce a
/// checkpoint, it resumes to the reference result.
#[test]
fn torn_checkpoint_writes_are_counted_and_survivable() {
    let nl = mac_pe(4);
    let cfg = AtpgConfig::default();
    let path = ckpt_path("torn-every");
    let token = CancelToken::new();
    token.trip_after_polls(40);
    let atpg = Atpg::new(&nl).with_ctx(RunCtx {
        chaos: ChaosConfig::parse("io=1.0,seed=3").unwrap(),
        ..polling(token)
    });
    let mut dur = Durability::new()
        .with_journal(Journal::new(&path))
        .checkpoint_every(4);
    match atpg.run_durable(&cfg, &mut dur) {
        Err(AtpgError::Interrupted(i)) => {
            // io=1.0 tears every write: no checkpoint can exist, and the
            // journal must hold no complete record.
            assert!(i.checkpoint.is_none(), "all writes torn");
            assert!(Journal::new(&path).load_last().is_err());
        }
        other => panic!("expected interrupt, got {other:?}"),
    }
    assert!(dur.checkpoint_write_failures() > 0);
    std::fs::remove_file(&path).ok();
}

/// A deadline interrupt at the flow level carries `deadline = true` and
/// a checkpoint that a plain (no-deadline) run resumes bit-identically.
#[test]
fn flow_phase_deadline_interrupts_and_resumes() {
    let nl = sys2x2();
    let reference = DftFlow::new(&nl).threads(1).run();
    let path = ckpt_path("flow-deadline");
    let mut dur = Durability::new().with_journal(Journal::new(&path));
    let err = DftFlow::new(&nl)
        .threads(1)
        .atpg_config(AtpgConfig::default().deadline_ms(1))
        .run_durable(&mut dur)
        .expect_err("1ms deadline fires");
    let checkpoint = match err {
        DftError::Interrupted {
            checkpoint: Some(p),
            partial,
        } => {
            assert!(partial.deadline, "cause must be the phase deadline");
            p
        }
        other => panic!("expected checkpointed interrupt, got {other}"),
    };
    let state = Journal::new(&checkpoint).load_last().expect("valid record");
    let mut dur = Durability::new()
        .with_journal(Journal::new(&checkpoint))
        .resume_from(state);
    let resumed = DftFlow::new(&nl)
        .threads(1)
        .run_durable(&mut dur)
        .expect("resume without deadline completes");
    assert_same_run(&resumed.atpg_run, &reference.atpg_run, "flow deadline");
    std::fs::remove_file(&checkpoint).ok();
}

/// Resume from a journal belonging to a different design is refused
/// with a typed checkpoint error, not undefined behaviour.
#[test]
fn resume_refuses_a_foreign_checkpoint() {
    let mac = mac_pe(4);
    let path = ckpt_path("foreign");
    let token = CancelToken::new();
    token.trip_after_polls(5);
    let mut dur = Durability::new().with_journal(Journal::new(&path));
    let err = DftFlow::new(&mac)
        .threads(1)
        .ctx(RunCtx {
            cancel: Some(token),
            ..RunCtx::metered()
        })
        .run_durable(&mut dur)
        .expect_err("trip fires");
    let checkpoint = match err {
        DftError::Interrupted {
            checkpoint: Some(p),
            ..
        } => p,
        other => panic!("expected checkpointed interrupt, got {other}"),
    };
    let state = Journal::new(&checkpoint).load_last().unwrap();
    let other = decoder(5);
    let mut dur = Durability::new().resume_from(state);
    match DftFlow::new(&other).threads(1).run_durable(&mut dur) {
        Err(DftError::Checkpoint(e)) => {
            assert!(e.to_string().contains("mismatch"), "{e}");
        }
        other => panic!("expected checkpoint mismatch, got {other:?}"),
    }
    std::fs::remove_file(&checkpoint).ok();
}
