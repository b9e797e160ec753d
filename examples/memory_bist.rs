//! Memory BIST: March tests against injected SRAM defects.
//!
//! AI chips carry megabytes of on-chip SRAM for weights and activations;
//! memory BIST (a hardware March-test engine) is how they are tested.
//! This example injects one fault of each class and shows which March
//! algorithms catch it.
//!
//! ```sh
//! cargo run --release --example memory_bist
//! ```

use dft_core::bist::{
    march_c_minus, march_ss, march_x, mats_plus, run_march, MemFault, MemFaultKind, SramModel,
};
use dft_core::logicsim::RunCtx;

fn main() {
    let size = 256;
    let faults = [
        MemFault {
            cell: 17,
            kind: MemFaultKind::StuckAt { value: true },
        },
        MemFault {
            cell: 42,
            kind: MemFaultKind::Transition { rising: true },
        },
        MemFault {
            cell: 9,
            kind: MemFaultKind::CouplingInversion {
                aggressor: 100,
                rising: true,
            },
        },
        MemFault {
            cell: 77,
            kind: MemFaultKind::CouplingIdempotent {
                aggressor: 13,
                rising: false,
                value: true,
            },
        },
        MemFault {
            cell: 5,
            kind: MemFaultKind::CouplingState {
                aggressor: 6,
                agg_value: true,
                value: false,
            },
        },
        MemFault {
            cell: 30,
            kind: MemFaultKind::AddressAlias { target: 200 },
        },
    ];
    let algorithms = [mats_plus(), march_x(), march_c_minus(), march_ss()];

    println!("March detection of injected faults ({size}-bit SRAM):\n");
    print!("{:<22}", "fault \\ algorithm");
    for a in &algorithms {
        print!("{:>10}", a.name);
    }
    println!();
    for fault in &faults {
        print!(
            "{:<22}",
            format!("{} @ {}", fault.kind.class_name(), fault.cell)
        );
        for algo in &algorithms {
            let mut mem = SramModel::with_fault(size, *fault);
            let r = run_march(algo, &mut mem, &RunCtx::default());
            print!("{:>10}", if r.detected { "DETECT" } else { "miss" });
        }
        println!();
    }
    println!("\ncomplexity (operations per bit):");
    for a in &algorithms {
        println!("  {:<10} {}n", a.name, a.ops_per_bit());
    }
    println!(
        "\n=> MATS+ (5n) misses coupling faults that March C- (10n) and \
         March SS (22n) catch — the classic cost/coverage tradeoff."
    );
}
