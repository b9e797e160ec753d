//! Identical-core test reuse: the AI-chip case study.
//!
//! Generate patterns once for one MAC core, then broadcast them to every
//! replica; compare against testing each core through shared pins. Also
//! compares scan-data delivery fabrics (daisy chain vs streaming bus).
//!
//! ```sh
//! cargo run --release --example core_reuse
//! ```

use dft_core::aichip::{hierarchical_plan, ssn_plan, DeliveryStyle, SocConfig};
use dft_core::atpg::AtpgConfig;
use dft_core::logicsim::RunCtx;
use dft_core::netlist::generators::mac_pe;

fn main() {
    let core = mac_pe(4);
    let atpg = AtpgConfig {
        random_patterns: 128,
        ..AtpgConfig::default()
    };

    println!("hierarchical test of replicated MAC cores:\n");
    println!(
        "{:>6} {:>12} {:>14} {:>16} {:>9}",
        "cores", "patterns", "flat cycles", "broadcast cycles", "speedup"
    );
    for cores in [4usize, 16, 64] {
        let plan = hierarchical_plan(
            &core,
            &SocConfig {
                num_cores: cores,
                ..SocConfig::default()
            },
            &atpg,
            &RunCtx::default(),
        );
        println!(
            "{:>6} {:>12} {:>14} {:>16} {:>8.1}x",
            cores,
            plan.patterns_per_core,
            plan.flat_cycles,
            plan.broadcast_cycles,
            plan.speedup()
        );
    }

    println!("\nscan-data delivery fabric (2000 cells/core, 50 patterns):\n");
    println!(
        "{:>6} {:>16} {:>18} {:>9}",
        "cores", "daisy cycles", "ssn(32b) cycles", "speedup"
    );
    for cores in [4usize, 16, 64] {
        let daisy = ssn_plan(DeliveryStyle::DaisyChain, cores, 2000, 4, 50);
        let ssn = ssn_plan(
            DeliveryStyle::StreamingBus { bus_bits: 32 },
            cores,
            2000,
            4,
            50,
        );
        println!(
            "{:>6} {:>16} {:>18} {:>8.1}x",
            cores,
            daisy.total_cycles,
            ssn.total_cycles,
            daisy.total_cycles as f64 / ssn.total_cycles as f64
        );
    }
    println!(
        "\n=> pattern reuse plus a streaming scan network keeps test time \
         nearly flat as core count grows."
    );
}
