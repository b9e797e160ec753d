//! `serve_fleet`: repeated `run_fleet` calls streaming mac4 patterns to
//! 1024 simulated dies over loopback TCP.
//!
//! A closed loop: two die clients each wait for their die's verdict
//! before taking the next die. Chaos, checkpointing and telemetry are
//! off. ATPG here is a one-off of a few milliseconds and the dies'
//! decode and compute are a small share of the fleet's wall time, so
//! transport, accept polling and idle time dominate; defective dies go
//! through the legacy `FaultSim` path.

use std::time::Instant;

use dft_core::logicsim::{KernelKind, SimKernel, TapeKernel};
use dft_core::metrics::MetricsHandle;
use dft_core::netlist::generators::mac_pe;
use dft_core::scan::{insert_scan, ScanConfig, TestTimeModel};
use dft_core::serve::{
    die_defect, die_reference_signatures, read_frame, run_fleet, write_frame, DieSim, FleetReport,
    Frame, ServeConfig, ServeOpts, ServedStimulus,
};
use dft_core::trace::TraceHandle;

use crate::spans::{mean, ratio, Tracer};
use crate::{counts, drive, Driven, Metrics, OpResult, Opts, Plan, Tally, THREADS};

fn config(opts: &Opts) -> ServeConfig {
    ServeConfig {
        dies: if opts.smoke { 64 } else { 1024 },
        client_threads: THREADS,
        seed: opts.seed,
        kernel: Some(KernelKind::Tape),
        ..ServeConfig::default()
    }
}

pub fn run(opts: &Opts, plan: Plan, tally: &mut Tally) -> (Metrics, Driven) {
    let cfg = config(opts);
    let scan = insert_scan(&mac_pe(4), &ScanConfig::new().num_chains(cfg.chains));
    let mut refs: Option<Vec<Vec<Vec<bool>>>> = None;

    let d = drive(plan, "serve_fleet", tally, |tr| {
        let t = Instant::now();
        let nl = mac_pe(4);
        let stim = tr.span("serve.build", || {
            ServedStimulus::build(
                &nl,
                &cfg,
                &MetricsHandle::disabled(),
                &TraceHandle::disabled(),
            )
        });
        let sim = tr.span("serve.die_sim", || DieSim::new(&nl, &stim));
        let setup_secs = t.elapsed().as_secs_f64();
        let refs = refs.get_or_insert_with(|| {
            (0..cfg.dies as u32)
                .map(|d| die_reference_signatures(&stim, &sim, &cfg, d))
                .collect()
        });

        let metrics = MetricsHandle::enabled();
        let serve_opts = ServeOpts {
            metrics: metrics.clone(),
            ..ServeOpts::default()
        };
        let cpu_before = cpu_secs();
        let t = Instant::now();
        let report = tr
            .span("program.run_fleet", || run_fleet(&nl, &cfg, &serve_opts))
            .map_err(|e| e.to_string())?;
        let secs = t.elapsed().as_secs_f64();
        let cpu = cpu_secs() - cpu_before;
        check(&report, refs)?;
        if tr.enabled() {
            tr.count("serve.fleet_wall_ms", secs * 1e3);
            tr.count("serve.fleet_cpu_ms", cpu * 1e3);
            tr.span("logicsim.compile", || TapeKernel::compile(&nl));
            replay(&stim, &sim, &cfg, refs, tr)?;
        }
        let defective = report.state.done.values().filter(|o| o.defective);
        let caught = defective.clone().filter(|o| !o.passed).count();
        let tester_cycles =
            TestTimeModel::for_architecture(&scan, report.patterns, 100).total_cycles();
        let mut repeat = vec![
            ("coverage", ratio(caught as f64, defective.count() as f64)),
            ("tester_cycles", tester_cycles as f64),
        ];
        repeat.extend(counts(
            &metrics.snapshot().expect("metrics handle is enabled"),
        ));
        Ok(OpResult {
            setup_secs,
            secs,
            repeat,
        })
    });

    let mut m = Metrics::new();
    println!(
        "serve_fleet: {} dies per fleet, {:.1} dies/s at the median fleet",
        cfg.dies,
        ratio(cfg.dies as f64, d.median_secs()),
    );
    if d.traced() {
        let v = d.view();
        let wall_ms = v.count("serve.fleet_wall_ms");
        let compute_ms = v.ms("serve.decode_window", None)
            + v.ms("serve.die_healthy_window", None)
            + v.ms("serve.die_defective_window", None);
        m.extend([
            ("logicsim.compile_ms", v.self_ms("logicsim.compile")),
            ("serve.build_ms", v.self_ms("serve.build")),
            (
                "serve.decode_window_us",
                mean(&v.durations_us("serve.decode_window", None)),
            ),
            (
                "serve.die_healthy_window_us",
                mean(&v.durations_us("serve.die_healthy_window", None)),
            ),
            (
                "serve.die_defective_window_us",
                mean(&v.durations_us("serve.die_defective_window", None)),
            ),
            (
                "serve.frame_roundtrip_us",
                mean(&v.durations_us("serve.frame_roundtrip", None)),
            ),
            ("serve.compute_share", ratio(compute_ms, wall_ms)),
            (
                "serve.cpu_per_wall",
                ratio(v.count("serve.fleet_cpu_ms"), wall_ms),
            ),
        ]);
    }
    (m, d)
}

/// Every die has a verdict, none is quarantined, and every die's final
/// signatures equal its reference signatures computed without a server.
fn check(report: &FleetReport, refs: &[Vec<Vec<bool>>]) -> Result<(), String> {
    let s = &report.summary;
    if report.state.done.len() != refs.len() || s.quarantined != 0 || s.untested != 0 {
        return Err(format!(
            "{} of {} dies have a verdict, {} quarantined, {} untested",
            report.state.done.len(),
            refs.len(),
            s.quarantined,
            s.untested
        ));
    }
    for (id, outcome) in &report.state.done {
        if outcome.signatures != refs[*id as usize] {
            return Err(format!("die {id}: signatures differ from its reference"));
        }
    }
    Ok(())
}

/// Each die's work without the server: the window frame's round trip
/// through the codec, the decode and the die's window signature.
fn replay(
    stim: &ServedStimulus<'_>,
    sim: &DieSim<'_>,
    cfg: &ServeConfig,
    refs: &[Vec<Vec<bool>>],
    tr: &Tracer,
) -> Result<(), String> {
    let decoder = stim.decoder();
    let frames: Vec<Frame> = stim
        .windows
        .iter()
        .enumerate()
        .map(|(w, stimuli)| Frame::Window {
            window_idx: w as u32,
            retest: false,
            stimuli: stimuli.clone(),
        })
        .collect();
    for (die, die_refs) in refs.iter().enumerate() {
        let defect = die_defect(die as u32, cfg.seed, cfg.defect_rate, &stim.universe);
        let name = if defect.is_some() {
            "serve.die_defective_window"
        } else {
            "serve.die_healthy_window"
        };
        for (w, frame) in frames.iter().enumerate() {
            let back = tr.span("serve.frame_roundtrip", || {
                let mut buf = Vec::new();
                write_frame(&mut buf, frame).map_err(|e| e.to_string())?;
                read_frame(&mut buf.as_slice()).map_err(|e| e.to_string())
            })?;
            if back != *frame {
                return Err(format!("window {w} frame changed in a codec round trip"));
            }
            let Frame::Window { stimuli, .. } = frame else {
                unreachable!("only window frames are built")
            };
            let patterns = tr
                .span("serve.decode_window", || decoder.decode_window(stimuli))
                .map_err(|e| e.to_string())?;
            let sig = tr.span(name, || {
                sim.window_signature(&patterns, defect, stim.misr_width)
            });
            if sig != die_refs[w] {
                return Err(format!("die {die} window {w}: replayed signature differs"));
            }
        }
    }
    Ok(())
}

/// Process CPU seconds (user + system, all threads) from
/// `/proc/self/stat`, in the kernel's 100 Hz clock ticks.
fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    // After the command name: state is field 0, utime 11, stime 12.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}
