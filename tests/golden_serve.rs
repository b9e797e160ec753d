//! Golden-value regression suite for the test-floor fleet service:
//! locks the full fleet summary (dies tested, failed, retested,
//! harvested, ...) for a fixed 16-die mac4 fleet, and a digest of every
//! die's reference signatures. Every number is deterministic — defects
//! are seeded from the fleet seed, signatures from the kernel contract —
//! so any drift means an algorithmic change, intentional or not.
//!
//! To re-bless after an intentional change:
//!
//! ```sh
//! AIDFT_BLESS_GOLDEN=1 cargo test -p dft-core --test golden_serve -- --nocapture
//! ```
//!
//! and paste the printed literals over `GOLDEN_FLEET` and
//! `GOLDEN_DIE_SIGNATURES`.

use dft_core::checkpoint::fnv1a;
use dft_core::metrics::MetricsHandle;
use dft_core::netlist::generators::benchmark_suite;
use dft_core::netlist::Netlist;
use dft_core::serve::{
    die_reference_signatures, run_fleet, DieSim, FleetSummary, ServeConfig, ServeOpts,
    ServedStimulus,
};
use dft_core::trace::TraceHandle;

/// Expected summary for the golden fleet (16 dies of mac4, default
/// seed/rate/windows). `windows_per_die` is part of the lock: it moves
/// only if the broadcast itself changes shape.
const GOLDEN_FLEET: FleetSummary = FleetSummary {
    dies: 16,
    tested: 16,
    passed: 11,
    failed: 5,
    defective: 5,
    retested: 5,
    harvested: 1,
    scrapped: 4,
    full: 11,
    quarantined: 0,
    untested: 0,
    dppm_risk: 0,
    signatures: 32,
    windows_per_die: 2,
};

fn mac4() -> Netlist {
    benchmark_suite()
        .into_iter()
        .find(|c| c.name == "mac4")
        .expect("mac4 in the benchmark suite")
        .netlist
}

fn bless_mode() -> bool {
    std::env::var("AIDFT_BLESS_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn golden_cfg() -> ServeConfig {
    ServeConfig {
        dies: 16,
        client_threads: 2,
        ..ServeConfig::default()
    }
}

#[test]
fn golden_fleet_summary() {
    let nl = mac4();
    let summary = run_fleet(&nl, &golden_cfg(), &ServeOpts::default())
        .unwrap()
        .summary;
    if bless_mode() {
        println!("const GOLDEN_FLEET: FleetSummary = FleetSummary {{");
        println!("    dies: {},", summary.dies);
        println!("    tested: {},", summary.tested);
        println!("    passed: {},", summary.passed);
        println!("    failed: {},", summary.failed);
        println!("    defective: {},", summary.defective);
        println!("    retested: {},", summary.retested);
        println!("    harvested: {},", summary.harvested);
        println!("    scrapped: {},", summary.scrapped);
        println!("    full: {},", summary.full);
        println!("    quarantined: {},", summary.quarantined);
        println!("    untested: {},", summary.untested);
        println!("    dppm_risk: {},", summary.dppm_risk);
        println!("    signatures: {},", summary.signatures);
        println!("    windows_per_die: {},", summary.windows_per_die);
        println!("}};");
        return;
    }
    assert_eq!(
        summary, GOLDEN_FLEET,
        "fleet summary drifted — if intentional, re-bless with \
         AIDFT_BLESS_GOLDEN=1 (see file header)"
    );
}

/// FNV-1a digest of every golden die's reference window signatures.
/// `GOLDEN_FLEET` pins only counts, so this is what catches a wrong
/// defective-die response.
const GOLDEN_DIE_SIGNATURES: u64 = 0xccd801bca163d2ff;

#[test]
fn golden_die_reference_signatures() {
    let nl = mac4();
    let cfg = golden_cfg();
    let stim = ServedStimulus::build(
        &nl,
        &cfg,
        &MetricsHandle::disabled(),
        &TraceHandle::disabled(),
    );
    let sim = DieSim::new(&nl, &stim);
    let mut bytes = Vec::new();
    for die in 0..cfg.dies as u32 {
        for sig in die_reference_signatures(&stim, &sim, &cfg, die) {
            bytes.extend(sig.iter().map(|&b| u8::from(b)));
            bytes.push(0xFF);
        }
    }
    let digest = fnv1a(&bytes);
    if bless_mode() {
        println!("const GOLDEN_DIE_SIGNATURES: u64 = {digest:#018x};");
        return;
    }
    assert_eq!(
        digest, GOLDEN_DIE_SIGNATURES,
        "die reference signatures drifted — if intentional, re-bless \
         with AIDFT_BLESS_GOLDEN=1 (see file header)"
    );
}

/// The rendered report is part of the stable CLI surface (CI diffs it
/// with the wall-clock suffix stripped): lock its shape.
#[test]
fn golden_report_shape() {
    let nl = mac4();
    let report = run_fleet(&nl, &golden_cfg(), &ServeOpts::default()).unwrap();
    let text = report.summary.render(std::time::Duration::from_millis(1));
    assert!(text.starts_with("fleet: 16 dies, 2 windows each"));
    assert!(text.contains("tested 16 | passed"));
    assert!(text.contains("quarantined 0 | untested 0 | dppm-risk 0"));
    assert!(text.contains("signatures verified 32"));
}
