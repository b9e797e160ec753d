//! `dft-serve`: the test-floor pattern service.
//!
//! The tutorial's part-4 case study — a streaming scan network
//! broadcasting compressed patterns to a fleet of identical dies — is
//! made literal here: a long-running server (`aidft serve`) streams
//! EDT-compressed pattern windows over a length-prefixed TCP framing
//! protocol ([`Frame`]) to N concurrent simulated dies, each die a
//! fault-seeded SoC instance evaluated through the `SimKernel` API.
//!
//! The moving parts:
//!
//! * [`Frame`] / [`Stimulus`] — the `aidft-wire-v1` codec: magic,
//!   type, length-prefixed payload, FNV-1a trailer. Torn tails and
//!   malformed payloads are detected, never panics.
//! * [`ServedStimulus`] — the compile-once broadcast content: ATPG
//!   cubes EDT-encoded against the scan architecture, golden responses
//!   and per-window MISR signatures precomputed through the kernel.
//! * [`DieSim`] / [`die_defect`] — the simulated fleet. Die `d` is
//!   deterministically healthy or carries
//!   [`dft_aichip::seeded_defect`]`(d)`; both tester and die agree from
//!   the seed alone.
//! * [`run_fleet`] — the orchestrator: per-die sessions (handshake →
//!   windows → batched signature upload) with bounded-channel
//!   backpressure, adaptive retest of failing dies routed through the
//!   BISR/harvest path, checkpoint/resume of fleet state through a
//!   [`dft_checkpoint::FramedJournal`], cooperative cancellation, and
//!   `AIDFT_CHAOS` tester faults (dropped connections, torn frames,
//!   delayed dies, stalled servers, half-open connections, corrupted
//!   uploads).
//! * [`BackoffPolicy`] / [`ClientOutcome`] — the resilience layer:
//!   deterministic seeded reconnect backoff, socket deadlines plus a
//!   [`Frame::Heartbeat`] liveness channel, and a per-die circuit
//!   breaker (Closed → Backoff → Quarantined) that turns a dead die
//!   into an `Untestable` quarantine verdict instead of a hung fleet.
//! * Telemetry hooks — every layer reports into an optional
//!   [`dft_telemetry::TelemetryHandle`] ([`ServeOpts::telemetry`]):
//!   breaker-state and in-flight gauges, window/signature latency
//!   histograms, and `aidft-telemetry-v1` events for session
//!   transitions, quarantines, checkpoints, retests, and chaos
//!   injections. Strictly read-only: no fleet thread ever blocks on
//!   telemetry, and the determinism contract below holds with the
//!   sampler on or off.
//!
//! Determinism contract: the final [`FleetState`] — per-die signatures,
//! verdicts, grades, quarantines — is a pure function of the design,
//! [`ServeConfig`], and chaos config, independent of client thread
//! count, kill/resume cycles, and wall-clock timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod die;
mod fleet;
mod frame;
mod resilience;
mod server;
mod stimulus;

pub use die::{die_defect, die_reference_signatures, DieSim};
pub use fleet::{DieOutcome, FleetState, FleetSummary, SERVE_FORMAT};
pub use frame::{
    read_frame, write_frame, write_frame_corrupt, write_frame_torn, Frame, FrameError, Stimulus,
    MAX_PAYLOAD, PROTOCOL_VERSION,
};
pub use resilience::{apply_deadlines, BackoffPolicy, ClientOutcome};
pub use server::{run_fleet, FleetReport, ServeError, ServeOpts};
pub use stimulus::{ServeConfig, ServedStimulus, StimulusDecoder};
