//! End-to-end repair demo: the full detect → repair → re-verify loop on
//! a faulty SRAM, plus the screen → harvest → degraded-inference loop on
//! a multi-core SoC — the acceptance scenario for the repair subsystem.

use dft_aichip::SocConfig;
use dft_bist::{MemFault, MemFaultKind, SramModel};
use dft_logicsim::RunCtx;
use dft_metrics::MetricsHandle;
use dft_repair::{
    plan_degradation, run_inference_check, BisrEngine, ShipGrade, SpareConfig, SramGeometry,
};

const GEOM: SramGeometry = SramGeometry { rows: 16, cols: 16 };
const SPARES: SpareConfig = SpareConfig {
    spare_rows: 2,
    spare_cols: 2,
};

fn fault_at(r: usize, c: usize, kind: MemFaultKind) -> MemFault {
    MemFault {
        cell: r * (GEOM.cols + SPARES.spare_cols) + c,
        kind,
    }
}

#[test]
fn repairable_sram_ends_with_zero_failures() {
    // A clustered row defect plus two scattered cell defects: must-repair
    // takes the row, essential spares mop up the rest.
    let mut faults: Vec<MemFault> = (0..5)
        .map(|c| fault_at(7, c * 3, MemFaultKind::StuckAt { value: true }))
        .collect();
    faults.push(fault_at(2, 9, MemFaultKind::StuckAt { value: false }));
    faults.push(fault_at(12, 1, MemFaultKind::Transition { rising: true }));
    let physical = SramModel::with_faults(SPARES.physical_size(&GEOM), faults);

    let handle = MetricsHandle::enabled();
    let report = BisrEngine::new()
        .with_ctx(RunCtx {
            metrics: handle.clone(),
            ..RunCtx::default()
        })
        .run(&physical, GEOM, &SPARES);

    assert!(report.pre_march.detected, "MBIST must see the defects");
    assert!(report.initial_fails > 0);
    assert!(report.repaired, "within budget, must repair: {report:?}");
    assert!(report.ships());
    let post = report.post_march.expect("repair was attempted");
    assert!(!post.detected, "re-March after repair must be clean");
    assert!(report.signature.rows.contains(&7), "row 7 is must-repair");

    let m = handle.get().unwrap();
    assert_eq!(m.bisr_runs.get(), 1);
    assert_eq!(m.bisr_repaired.get(), 1);
    assert_eq!(m.bisr_unrepairable.get(), 0);
    assert_eq!(
        m.bisr_spares_used.get(),
        report.signature.spares_used() as u64
    );
}

#[test]
fn unrepairable_sram_is_reported_not_panicked() {
    // Five independent rows each holding a wide fail cluster: needs five
    // spare rows, budget has two.
    let faults: Vec<MemFault> = (0..5)
        .flat_map(|r| {
            (0..4).map(move |c| fault_at(r * 3, c * 4, MemFaultKind::StuckAt { value: true }))
        })
        .collect();
    let physical = SramModel::with_faults(SPARES.physical_size(&GEOM), faults);

    let handle = MetricsHandle::enabled();
    let report = BisrEngine::new()
        .with_ctx(RunCtx {
            metrics: handle.clone(),
            ..RunCtx::default()
        })
        .run(&physical, GEOM, &SPARES);

    assert!(report.unrepairable);
    assert!(!report.repaired);
    assert!(!report.ships());
    assert_eq!(handle.get().unwrap().bisr_unrepairable.get(), 1);
}

#[test]
fn screened_soc_harvests_bad_cores_and_still_infers() {
    // A 16-core SoC whose screen failed cores 4 and 13.
    let cfg = SocConfig::default();
    let mut pass_map = vec![true; 16];
    pass_map[4] = false;
    pass_map[13] = false;

    let plan = plan_degradation(&pass_map, 50_000, &cfg, 2, &MetricsHandle::disabled());
    assert!(plan.ships);
    assert_eq!(plan.grade, ShipGrade::Degraded(2));
    assert_eq!(plan.disabled, vec![4, 13]);

    let full = plan_degradation(&[true; 16], 50_000, &cfg, 2, &MetricsHandle::disabled());
    assert!(
        plan.broadcast_cycles <= full.broadcast_cycles,
        "retesting fewer cores cannot cost more"
    );

    let check = run_inference_check(16, &plan.disabled, 0xC0DE);
    assert!(check.healthy_accuracy > 0.9);
    assert!(
        check.harvested_accuracy >= check.faulty_accuracy,
        "harvesting must not be worse than shipping faulty cores: {check:?}"
    );
    assert!(
        (check.harvested_accuracy - check.healthy_accuracy).abs() < 1e-9,
        "clean survivors preserve accuracy: {check:?}"
    );
    assert!((check.throughput_fraction - 0.875).abs() < 1e-12);
}
