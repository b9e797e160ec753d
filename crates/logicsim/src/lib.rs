//! Logic simulation and fault simulation.
//!
//! The front door is the [`SimKernel`] trait and its one engine,
//! [`TapeKernel`]: compile a [`dft_netlist::Netlist`] once into a
//! levelized [`GateTape`], then run good-machine
//! ([`SimKernel::eval_batch`]), stuck-at PPSFP
//! ([`SimKernel::fault_batch`]), and transition-delay
//! ([`SimKernel::transition_batch`]) simulation against it, 256 patterns
//! per pass (`[u64; 4]` lanes). For diagnosis and defective dies the
//! kernel also reports, with no fault dropping, which patterns detect
//! each stuck-at or bridge [`Defect`] ([`TapeKernel::detection_sets`])
//! and its faulty responses ([`TapeKernel::faulty_responses`]).
//!
//! [`FiveSim`] is the five-valued (0, 1, X, D, D̄) simulator with
//! single-fault injection: the engine under PODEM and the D-algorithm,
//! and the independent oracle the tape is tested against.
//!
//! Plus [`testability`]: COP signal probabilities and SCOAP
//! controllability/observability, used for ATPG backtrace guidance and
//! BIST test-point selection.
//!
//! # Example
//!
//! ```
//! use dft_netlist::generators::c17;
//! use dft_fault::{universe_stuck_at, FaultList};
//! use dft_logicsim::{Executor, PatternSet, SimKernel, TapeKernel};
//!
//! let nl = c17();
//! let kernel = TapeKernel::compile(&nl);
//! let patterns = PatternSet::random(&nl, 32, 0xBEEF);
//! let mut list = FaultList::new(universe_stuck_at(&nl));
//! kernel.fault_batch(&patterns, &mut list, &Executor::serial());
//! assert!(list.fault_coverage() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cube;
pub mod exec;
mod fivesim;
mod kernel;
mod patterns;
pub mod tape;
pub mod testability;

pub use cube::TestCube;
pub use exec::{ExecError, Executor, Parallelism};
pub use fivesim::FiveSim;
pub use kernel::{Defect, KernelKind, SimKernel, SimStats, TapeKernel};
pub use patterns::{Pattern, PatternSet, Response};
pub use tape::{GateTape, TapeWorkspace, WideWord, LANES, WIDE_PATTERNS};

#[cfg(test)]
mod oracle;

// Behaviour tests of the tape kernel, one module per kind of simulation.
#[cfg(test)]
mod goodsim {
    mod tests;
}
#[cfg(test)]
mod ppsfp {
    mod tests;
}
#[cfg(test)]
mod transition {
    mod tests;
}
