//! Golden-value regression suite for diagnosis on mac4: pins the
//! failure logs of seeded stuck-at and bridge defects, the top
//! effect-cause candidates with their match counts, the fault
//! dictionary's class count and the top bridge candidate. Any drift
//! means the simulation behind diagnosis changed its answers.
//!
//! To re-bless after an intentional change:
//!
//! ```sh
//! AIDFT_BLESS_GOLDEN=1 cargo test -p dft-core --test golden_diagnosis -- --nocapture
//! ```
//!
//! and paste the printed lines over `GOLDEN`.

use dft_core::checkpoint::fnv1a;
use dft_core::diagnosis::{
    build_bridge_failure_log, build_failure_log, diagnose, diagnose_bridges, FailureLog,
    FaultDictionary,
};
use dft_core::fault::{bridge_universe, universe_stuck_at};
use dft_core::logicsim::PatternSet;
use dft_core::netlist::generators::mac_pe;

/// One line per pin, in the order [`report`] produces them.
const GOLDEN: &[&str] = &[
    "stuck g43 SA0: fails=39 digest=ae56b798c23c4774",
    "  cand g43 SA0 tfsf=39 tpsf=0 tfsp=0",
    "  cand g43.in0 SA0 tfsf=39 tpsf=0 tfsp=0",
    "  cand g43.in1 SA0 tfsf=39 tpsf=0 tfsp=0",
    "stuck g72.in0 SA0: fails=43 digest=09ef0f416f404c42",
    "  cand g41 SA0 tfsf=43 tpsf=0 tfsp=0",
    "  cand g41.in0 SA0 tfsf=43 tpsf=0 tfsp=0",
    "  cand g41.in1 SA0 tfsf=43 tpsf=0 tfsp=0",
    "stuck g102.in1 SA0: fails=61 digest=d3f94a4e434315a9",
    "  cand g60 SA0 tfsf=61 tpsf=0 tfsp=0",
    "  cand g102.in1 SA0 tfsf=61 tpsf=0 tfsp=0",
    "  cand g8 SA1 tfsf=61 tpsf=92 tfsp=0",
    "stuck g132 SA0: fails=72 digest=f185dac79c44cfb2",
    "  cand g132 SA0 tfsf=72 tpsf=0 tfsp=0",
    "  cand g132.in0 SA0 tfsf=72 tpsf=0 tfsp=0",
    "  cand g133.in0 SA0 tfsf=72 tpsf=0 tfsp=0",
    "dictionary classes=397",
    "bridge bridge(g41,g43) OR: fails=60 digest=f7d716c695f6bd09",
    "  top bridge(g37,g43) AND tfsf=36 tpsf=19 tfsp=24",
    "bridge bridge(g102,g105) A>B: fails=92 digest=7854b2e6acd88cb3",
    "  top bridge(g42,g107) AND tfsf=52 tpsf=29 tfsp=40",
];

/// Fail count plus an FNV-1a digest of every (pattern, failing sinks)
/// entry of a failure log.
fn log_digest(log: &FailureLog) -> String {
    let mut bytes = Vec::new();
    for f in &log.fails {
        bytes.extend_from_slice(&f.pattern.to_le_bytes());
        for s in &f.failing_sinks {
            bytes.extend_from_slice(&s.to_le_bytes());
        }
        bytes.push(0xFF);
    }
    format!("fails={} digest={:016x}", log.fails.len(), fnv1a(&bytes))
}

fn report() -> Vec<String> {
    let nl = mac_pe(4);
    // 300 patterns: more than one 256-pattern block, with a partial tail.
    let patterns = PatternSet::random(&nl, 300, 0xD1A6);
    let universe = universe_stuck_at(&nl);
    let mut out = Vec::new();
    let step = universe.len() / 5;
    for k in 1..=4 {
        let defect = universe[k * step];
        let log = build_failure_log(&nl, &patterns, defect);
        out.push(format!("stuck {defect}: {}", log_digest(&log)));
        for c in diagnose(&nl, &patterns, &log, 3) {
            out.push(format!(
                "  cand {} tfsf={} tpsf={} tfsp={}",
                c.fault, c.tfsf, c.tpsf, c.tfsp
            ));
        }
    }
    let dict = FaultDictionary::build(&nl, &patterns, universe.clone());
    out.push(format!("dictionary classes={}", dict.num_classes()));
    let bridges = bridge_universe(&nl, 3);
    for k in [1, 2] {
        let defect = bridges[k * bridges.len() / 3];
        let log = build_bridge_failure_log(&nl, &patterns, defect);
        out.push(format!("bridge {defect}: {}", log_digest(&log)));
        if let Some(c) = diagnose_bridges(&nl, &patterns, &log, 12, 8).first() {
            out.push(format!(
                "  top {} tfsf={} tpsf={} tfsp={}",
                c.bridge, c.tfsf, c.tpsf, c.tfsp
            ));
        }
    }
    out
}

#[test]
fn golden_diagnosis_mac4() {
    let got = report();
    if std::env::var("AIDFT_BLESS_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0") {
        for line in &got {
            println!("    {line:?},");
        }
        return;
    }
    assert_eq!(
        got, GOLDEN,
        "diagnosis results drifted — if intentional, re-bless with \
         AIDFT_BLESS_GOLDEN=1 (see file header)"
    );
}
