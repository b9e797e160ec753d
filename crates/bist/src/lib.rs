//! Built-in self-test: logic BIST (STUMPS) and memory BIST (March tests).
//!
//! AI chips are dominated by two structures the tutorial's DFT section
//! singles out: huge arrays of identical MAC logic (tested by logic BIST
//! or compressed ATPG) and megabytes of on-chip SRAM (tested by memory
//! BIST). This crate implements both self-test styles from scratch:
//!
//! * **Logic BIST** — a PRPG (LFSR) drives the scan chains, a MISR
//!   compacts responses; random-pattern-resistant logic is helped by
//!   COP-guided control/observe test-point insertion.
//! * **Memory BIST** — a March-test engine over a behavioural SRAM with
//!   injectable fault classes (SAF, TF, CFin, CFid, CFst, AF), the
//!   standard validation vehicle for March algorithm coverage claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lfsr;
mod logic;
mod march;
mod memory;
mod stumps;
mod testpoints;

pub use lfsr::Lfsr;
pub use logic::{BistResult, LogicBist};
pub use march::{
    march_a, march_b, march_c_minus, march_ss, march_x, mats_plus, run_march, run_march_with_map,
    MarchAlgorithm, MarchElement, MarchOp, MarchOrder, MarchResult, MemoryModel,
};
pub use memory::{MemFault, MemFaultKind, SramModel};
pub use stumps::{build_stumps, StumpsBist};
pub use testpoints::{insert_test_points, TestPoint, TestPointKind, TestPointReport};
