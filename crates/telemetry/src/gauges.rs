//! Live fleet gauges: the instantaneous, wall-clock-flavored half of
//! telemetry.
//!
//! The [`dft_metrics`] registry is deliberately deterministic — its
//! counters are pure functions of the work performed, compared
//! bit-for-bit by the determinism suites. Live operator questions
//! ("how many sessions are open *right now*? what's the p99 window
//! latency?") are inherently timing-dependent, so they live here, in a
//! separate [`FleetGauges`] block that never enters a
//! [`dft_metrics::MetricsSnapshot`] (whose `==` is the determinism
//! check). Latency
//! histograms reuse the metrics crate's log2 [`Histogram`] and its
//! [`dft_metrics::histogram_quantile`] estimator; they just never enter
//! the deterministic registry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dft_metrics::Histogram;

/// The circuit-breaker states a die walks (mirrors the resilience
/// layer's Closed → Backoff → Quarantined progression).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// A live session is streaming (or about to connect).
    Closed,
    /// The die is sleeping a reconnect backoff delay.
    Backoff,
    /// The breaker tripped; the die is `Untestable`.
    Quarantined,
}

impl SessionState {
    /// Stable lowercase label used in events and scrape payloads.
    pub fn as_str(self) -> &'static str {
        match self {
            SessionState::Closed => "closed",
            SessionState::Backoff => "backoff",
            SessionState::Quarantined => "quarantined",
        }
    }
}

/// Saturating gauge decrement: a mispaired dec clamps at zero instead
/// of wrapping to 2^64 and poisoning every later readout.
fn dec(g: &AtomicU64) {
    let _ = g.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(1))
    });
}

/// Shared live-state gauges for one fleet run. All methods are lock-free
/// except the design name; serve-side hooks update them and the sampler
/// reads them, so every access is a relaxed atomic — telemetry must
/// never contend with the fleet's own locks.
#[derive(Debug, Default)]
pub struct FleetGauges {
    design: Mutex<String>,
    dies_total: AtomicU64,
    dies_done: AtomicU64,
    windows_per_die: AtomicU64,
    sessions_active: AtomicU64,
    windows_in_flight: AtomicU64,
    closed: AtomicU64,
    backoff: AtomicU64,
    quarantined: AtomicU64,
    /// Window round-trip latency (stream write → matching signature
    /// verified), microseconds, log2 buckets.
    pub window_latency_us: Histogram,
    /// Signature service latency (upload read → verify done),
    /// microseconds, log2 buckets.
    pub signature_latency_us: Histogram,
}

impl FleetGauges {
    /// Installs the fleet shape at run start.
    pub fn set_fleet(&self, design: &str, dies: u64, windows_per_die: u64) {
        *self.design.lock().unwrap() = design.to_owned();
        self.dies_total.store(dies, Ordering::Relaxed);
        self.windows_per_die
            .store(windows_per_die, Ordering::Relaxed);
        self.dies_done.store(0, Ordering::Relaxed);
    }

    /// The design name installed by [`FleetGauges::set_fleet`].
    pub fn design(&self) -> String {
        self.design.lock().unwrap().clone()
    }

    /// Fleet size.
    pub fn dies_total(&self) -> u64 {
        self.dies_total.load(Ordering::Relaxed)
    }

    /// Dies with a recorded verdict.
    pub fn dies_done(&self) -> u64 {
        self.dies_done.load(Ordering::Relaxed)
    }

    /// Updates the recorded-verdict count (monotone in practice; the
    /// server stores the authoritative value after each record).
    pub fn set_dies_done(&self, n: u64) {
        self.dies_done.store(n, Ordering::Relaxed);
    }

    /// Windows per die in the broadcast.
    pub fn windows_per_die(&self) -> u64 {
        self.windows_per_die.load(Ordering::Relaxed)
    }

    /// Sessions currently open on the server.
    pub fn sessions_active(&self) -> u64 {
        self.sessions_active.load(Ordering::Relaxed)
    }

    pub(crate) fn session_opened(&self) {
        self.sessions_active.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn session_closed(&self) {
        dec(&self.sessions_active);
    }

    /// Windows streamed but not yet signature-verified, fleet-wide.
    pub fn windows_in_flight(&self) -> u64 {
        self.windows_in_flight.load(Ordering::Relaxed)
    }

    /// One window entered the pipeline.
    pub fn window_sent(&self) {
        self.windows_in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` windows left the pipeline (verified, or abandoned with a
    /// dying session).
    pub fn windows_settled(&self, n: u64) {
        let _ = self
            .windows_in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Dies currently in `state`.
    pub fn state_count(&self, state: SessionState) -> u64 {
        self.state_gauge(state).load(Ordering::Relaxed)
    }

    fn state_gauge(&self, state: SessionState) -> &AtomicU64 {
        match state {
            SessionState::Closed => &self.closed,
            SessionState::Backoff => &self.backoff,
            SessionState::Quarantined => &self.quarantined,
        }
    }

    pub(crate) fn state_enter(&self, state: SessionState) {
        self.state_gauge(state).fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn state_leave(&self, state: SessionState) {
        dec(self.state_gauge(state));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_saturate_and_track_states() {
        let g = FleetGauges::default();
        g.set_fleet("mac4", 8, 2);
        assert_eq!(g.design(), "mac4");
        assert_eq!((g.dies_total(), g.windows_per_die()), (8, 2));
        g.window_sent();
        g.window_sent();
        g.windows_settled(5); // over-settle clamps at zero
        assert_eq!(g.windows_in_flight(), 0);
        g.session_closed(); // mispaired dec clamps too
        assert_eq!(g.sessions_active(), 0);
        g.state_enter(SessionState::Backoff);
        assert_eq!(g.state_count(SessionState::Backoff), 1);
        g.state_leave(SessionState::Backoff);
        g.state_leave(SessionState::Backoff);
        assert_eq!(g.state_count(SessionState::Backoff), 0);
        assert_eq!(SessionState::Quarantined.as_str(), "quarantined");
    }
}
