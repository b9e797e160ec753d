//! Logic BIST two ways: a behavioural session with cube-derived weighted
//! patterns, and the actual STUMPS hardware (PRPG + phase shifter + MISR
//! built as gates) simulated clock by clock.
//!
//! ```sh
//! cargo run --release --example lbist_session
//! ```

use dft_core::bist::{build_stumps, LogicBist};
use dft_core::fault::{universe_stuck_at, FaultList};
use dft_core::logicsim::{Executor, SimKernel, TapeKernel};
use dft_core::netlist::generators::mac_pe;
use dft_core::netlist::NetlistStats;

fn main() {
    let core = mac_pe(4);
    println!("core under self-test: {}", NetlistStats::of(&core));

    // --- Behavioural LBIST with a weighted second session ---------------
    let bist = LogicBist::new(&core, 32);
    let sim = TapeKernel::compile(&core);
    let exec = Executor::serial();
    let mut list = FaultList::new(universe_stuck_at(&core));
    sim.fault_batch(&bist.patterns(512, 0xAB), &mut list, &exec);
    let flat = list.fault_coverage();
    let weights = bist.weight_set_from_residual(512, 0xAB, 64);
    sim.fault_batch(
        &bist.weighted_patterns(512, 0xAC, &weights),
        &mut list,
        &exec,
    );
    println!(
        "behavioural session: flat 512 -> {:.2}%, +512 weighted -> {:.2}%",
        flat * 100.0,
        list.fault_coverage() * 100.0
    );

    // --- Gate-level STUMPS hardware --------------------------------------
    let stumps = build_stumps(&core, 4, 24, 0x5EED);
    println!(
        "stumps hardware: {} gates total ({} added around the core)",
        stumps.netlist.num_gates(),
        stumps.netlist.num_gates() - core.num_gates()
    );
    let golden = stumps.run_session(64, None);
    let hex: String = golden
        .chunks(4)
        .map(|c| {
            let v = c
                .iter()
                .enumerate()
                .fold(0u8, |a, (i, &b)| a | ((b as u8) << i));
            char::from_digit(v as u32, 16).unwrap()
        })
        .collect();
    println!("fault-free MISR signature after 64 patterns: {hex}");

    // Screen a few injected defects by signature compare.
    let mut screened = 0;
    let mut total = 0;
    for (i, &f) in universe_stuck_at(&core).iter().enumerate() {
        if f.site.pin.is_some() || i % 17 != 0 {
            continue;
        }
        total += 1;
        if stumps.run_session(64, Some(f)) != golden {
            screened += 1;
        }
    }
    println!("signature screening: {screened}/{total} sampled defects flagged");
    println!(
        "=> the same hardware an AI chip embeds for in-field self-test of \
         its MAC arrays."
    );
}
