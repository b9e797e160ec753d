//! `dft-metrics`: a cheap, thread-safe observability layer for the DFT
//! hot paths.
//!
//! The design follows three rules, in priority order:
//!
//! 1. **Zero cost when disabled.** Instrumented code holds a
//!    [`MetricsHandle`]; the disabled handle is `None` and every flush
//!    site is a single branch. Hot loops never touch an atomic directly —
//!    they accumulate into locals (or reuse counters they already keep,
//!    like [`PodemStats`]-style structs) and flush once per coarse
//!    operation (per pattern block, per PODEM call, per encode).
//! 2. **Deterministic counters.** Every [`Counter`] and [`Histogram`]
//!    value is a pure function of the work performed, never of thread
//!    scheduling — the parallel fault-simulation paths merge per-chunk
//!    sums, so an 8-thread run reports bit-identical counts to a serial
//!    run. Wall-clock [`TimerStat`]s are the one deliberate exception and
//!    are kept in a separate snapshot section so tests can compare the
//!    deterministic part alone ([`MetricsSnapshot::deterministic_eq`]).
//! 3. **No global state.** A registry is owned by whoever starts the work
//!    (a `DftFlow` run, a CLI invocation, a bench iteration) and shared
//!    via `Arc`, so concurrent runs in one process never bleed counts
//!    into each other.
//!
//! [`PodemStats`]: https://docs.rs/dft-atpg
//!
//! # Example
//!
//! ```
//! use dft_metrics::{Metrics, MetricsHandle};
//!
//! let handle = MetricsHandle::enabled();
//! if let Some(m) = handle.get() {
//!     m.podem_backtracks.add(17);
//!     m.t_atpg_random.record(std::time::Duration::from_millis(3));
//! }
//! let snap = handle.snapshot().unwrap();
//! assert_eq!(snap.counter("podem_backtracks"), 17);
//! assert!(snap.to_json().contains("\"podem_backtracks\": 17"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonically increasing event counter (relaxed atomics: totals are
/// exact after the owning work joins its threads, which is when snapshots
/// are taken).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: bucket `i < 16` counts values whose
/// `log2` floor is `i` (bucket 0 additionally holds zeros); bucket 16
/// holds everything `>= 2^16`.
pub const HISTOGRAM_BUCKETS: usize = 17;

/// The value range `[lo, hi]` a log2 bucket covers: bucket 0 holds
/// `0..=1`, bucket `i < 16` holds `2^i ..= 2^(i+1) - 1`, and the open
/// top bucket is treated as one final octave (`2^16 ..= 2^17`) so
/// quantile estimates stay finite.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 1),
        _ if i < HISTOGRAM_BUCKETS - 1 => (1 << i, (1 << (i + 1)) - 1),
        _ => (1 << (HISTOGRAM_BUCKETS - 1), 1 << HISTOGRAM_BUCKETS),
    }
}

/// Quantile estimate over log2 bucket counts: finds the bucket holding
/// rank `q * total` and interpolates linearly inside it. `q` is clamped
/// to `[0, 1]`; `None` when the histogram is empty. This is the one
/// shared estimator for p50/p99 readouts — callers should not re-derive
/// bucket math from [`HISTOGRAM_BUCKETS`].
pub fn histogram_quantile(buckets: &[u64; HISTOGRAM_BUCKETS], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0f64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let next = seen + c as f64;
        if next >= target {
            let (lo, hi) = bucket_bounds(i);
            let frac = ((target - seen) / c as f64).clamp(0.0, 1.0);
            return Some(lo as f64 + frac * (hi - lo) as f64);
        }
        seen = next;
    }
    Some(bucket_bounds(HISTOGRAM_BUCKETS - 1).1 as f64)
}

/// A log2-bucketed histogram of event magnitudes (e.g. backtracks per
/// PODEM call). Fixed buckets keep recording allocation-free and the
/// merge across threads a plain per-bucket sum.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [Counter; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// Records one sample of magnitude `value`.
    #[inline]
    pub fn record(&self, value: u64) {
        let b = if value == 0 {
            0
        } else {
            (63 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[b].inc();
    }

    /// Per-bucket sample counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].get())
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets().iter().sum()
    }

    /// Resets all buckets.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.reset();
        }
    }
}

/// Accumulated wall-clock time of one pipeline phase. Timer values are
/// nondeterministic by nature; snapshots keep them separate from the
/// counters so determinism comparisons can skip them.
#[derive(Debug, Default)]
pub struct TimerStat {
    nanos: Counter,
    count: Counter,
}

impl TimerStat {
    /// Records one phase execution of duration `d`.
    pub fn record(&self, d: Duration) {
        self.nanos.add(d.as_nanos().min(u64::MAX as u128) as u64);
        self.count.inc();
    }

    /// Starts a scoped timer that records into this stat on drop.
    pub fn timed(&self) -> ScopedTimer<'_> {
        ScopedTimer {
            stat: self,
            start: Instant::now(),
        }
    }

    /// Total nanoseconds recorded.
    pub fn nanos(&self) -> u64 {
        self.nanos.get()
    }

    /// Number of executions recorded.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Resets the stat.
    pub fn reset(&self) {
        self.nanos.reset();
        self.count.reset();
    }
}

/// RAII guard from [`TimerStat::timed`]: records the elapsed time into
/// the owning stat when dropped.
#[derive(Debug)]
pub struct ScopedTimer<'a> {
    stat: &'a TimerStat,
    start: Instant,
}

impl Drop for ScopedTimer<'_> {
    fn drop(&mut self) {
        self.stat.record(self.start.elapsed());
    }
}

/// Declares the [`Metrics`] registry plus its snapshot/reset plumbing so
/// adding an instrument is a one-line change.
macro_rules! registry {
    (
        counters { $($cname:ident : $cdoc:literal,)* }
        histograms { $($hname:ident : $hdoc:literal,)* }
        timers { $($tname:ident : $tdoc:literal,)* }
    ) => {
        /// The metric registry: one field per instrument, grouped by
        /// subsystem. Owned by whoever starts a run and shared by `Arc`.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $(#[doc = $cdoc] pub $cname: Counter,)*
            $(#[doc = $hdoc] pub $hname: Histogram,)*
            $(#[doc = $tdoc] pub $tname: TimerStat,)*
        }

        impl Metrics {
            /// A fresh all-zero registry.
            pub fn new() -> Metrics {
                Metrics::default()
            }

            /// Resets every instrument to zero.
            pub fn reset(&self) {
                $(self.$cname.reset();)*
                $(self.$hname.reset();)*
                $(self.$tname.reset();)*
            }

            /// Captures the current values (declaration order, stable
            /// across runs and platforms).
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    counters: vec![
                        $((stringify!($cname), self.$cname.get()),)*
                    ],
                    histograms: vec![
                        $((stringify!($hname), self.$hname.buckets()),)*
                    ],
                    timers: vec![
                        $((stringify!($tname), TimerSnapshot {
                            nanos: self.$tname.nanos(),
                            count: self.$tname.count(),
                        }),)*
                    ],
                }
            }
        }
    };
}

registry! {
    counters {
        // --- ATPG: PODEM ---
        podem_calls: "PODEM invocations (primary + dynamic-compaction secondary targets).",
        podem_decisions: "PODEM source assignments made.",
        podem_backtracks: "PODEM chronological backtracks.",
        podem_simulations: "Five-valued simulation passes under PODEM.",
        podem_tests: "PODEM calls that produced a test cube.",
        podem_untestable: "PODEM calls that proved the fault untestable.",
        podem_aborted: "PODEM calls aborted at the backtrack limit.",
        // --- ATPG: D-algorithm ---
        dalg_calls: "D-algorithm invocations.",
        dalg_backtracks: "D-algorithm backtracks.",
        dalg_tests: "D-algorithm calls that produced a test cube.",
        // --- ATPG: driver ---
        atpg_runs: "Full ATPG driver runs.",
        atpg_patterns: "Final patterns emitted by ATPG runs.",
        atpg_untestable: "Collapsed faults classified untestable by ATPG runs.",
        atpg_aborted: "Collapsed faults aborted by ATPG runs.",
        atpg_escalations: "Aborted PODEM targets escalated to the D-algorithm retry.",
        atpg_rescued: "Escalated targets the D-algorithm resolved (test or untestable proof).",
        // --- Logic simulation ---
        goodsim_blocks: "256-pattern wide blocks evaluated by the good machine.",
        goodsim_gate_evals: "Good-machine wide gate evaluations (256 patterns each).",
        faultsim_runs: "PPSFP fault-simulation runs.",
        faultsim_patterns: "Patterns applied across PPSFP runs.",
        faultsim_faults: "Undetected faults targeted at the start of PPSFP runs.",
        faultsim_detected: "Faults newly detected by PPSFP runs.",
        faultsim_gate_evals: "Faulty-machine gate evaluations (PPSFP propagation).",
        faultsim_failed_batches: "Fault batches lost to an isolated worker panic.",
        transition_runs: "Transition-fault simulation runs.",
        transition_pairs: "Launch/capture pairs applied across transition runs.",
        transition_detected: "Transition faults newly detected.",
        transition_gate_evals: "Faulty-machine evaluations inside transition runs.",
        // --- EDT compression ---
        edt_cubes_attempted: "Cubes handed to the EDT encoder.",
        edt_cubes_encoded: "Cubes successfully encoded.",
        edt_cubes_failed: "Cubes that failed encoding (shipped flat in bypass).",
        edt_care_bits: "Care bits across all encode attempts (GF(2) equations).",
        edt_compressed_bits: "Compressed stimulus bits accounted by compress_all.",
        edt_flat_bits: "Flat stimulus bits accounted by compress_all.",
        gf2_solves: "GF(2) systems solved.",
        gf2_eliminations: "GF(2) row-elimination (row XOR) operations.",
        // --- BIST ---
        bist_sessions: "Logic-BIST sessions run.",
        bist_patterns: "PRPG/weighted patterns generated for BIST sessions.",
        lfsr_cycles: "LFSR shift cycles clocked for pattern generation.",
        misr_cycles: "MISR/compactor absorb cycles clocked for signatures.",
        // --- Repair & degradation ---
        bisr_runs: "Built-in self-repair analysis runs.",
        bisr_repaired: "SRAM instances repaired to a clean re-March.",
        bisr_unrepairable: "SRAM instances whose fault map exceeded the spares.",
        bisr_spares_used: "Spare rows + columns allocated across BISR runs.",
        harvest_plans: "Core-harvesting degradation plans computed.",
        harvest_disabled_cores: "Cores fused off across harvesting plans.",
        // --- Durability: checkpoint/resume, cancellation, chaos ---
        ckpt_writes: "Checkpoint journal records written successfully.",
        ckpt_bytes: "Bytes appended to checkpoint journals.",
        ckpt_write_failures: "Checkpoint writes that failed (real or chaos-injected I/O errors).",
        ckpt_resumes: "Runs resumed from a checkpoint journal.",
        ckpt_scrub_repairs: "Damaged journal records healed over during resume (replica fallback or corrupt-record skipping).",
        cancel_requests: "Cooperative cancellations observed (signals and phase deadlines).",
        chaos_clock_skips: "Chaos-injected deadline-clock skips applied at checkpoint boundaries.",
        // --- Test-floor service ---
        serve_sessions: "Die sessions accepted by the pattern server (reconnects included).",
        serve_windows: "Pattern windows streamed to dies (retest windows included).",
        serve_signatures: "MISR signatures uploaded by dies and verified.",
        serve_mismatches: "Signature uploads that mismatched the golden reference.",
        serve_retests: "Retest windows streamed to failing dies.",
        serve_harvested: "Failing dies that shipped degraded through the harvest path.",
        serve_conn_drops: "Die connections dropped (chaos-injected or real).",
        serve_torn_frames: "Torn frames detected by the codec (chaos-injected or real). Not deterministic under chaos: a server that closes with unread bytes may reset the connection, and the die then reports an I/O error instead of a torn frame.",
        serve_resumes: "Fleet runs resumed from a serve checkpoint journal.",
        serve_retries: "Die reconnect attempts that went through the backoff schedule.",
        serve_backoff_ns: "Nanoseconds of deterministic reconnect backoff slept by die clients.",
        serve_quarantined: "Dies quarantined Untestable by a tripped circuit breaker.",
        serve_heartbeats: "Heartbeat frames sent by slow dies to prove liveness.",
        serve_idle_reaps: "Sessions closed by the server's idle-session reaper.",
        serve_corrupt_frames: "Corrupted uploads injected by chaos and rejected on checksum.",
    }
    histograms {
        podem_backtracks_per_call: "Distribution of backtracks per PODEM call (log2 buckets).",
        edt_care_bits_per_cube: "Distribution of care bits per encoded cube (log2 buckets).",
    }
    timers {
        t_scan_insertion: "Wall-clock time of scan insertion.",
        t_atpg_random: "Wall-clock time of the random-pattern ATPG phase.",
        t_atpg_deterministic: "Wall-clock time of deterministic top-off + compaction.",
        t_atpg_signoff: "Wall-clock time of sign-off fault simulation.",
        t_edt_compress: "Wall-clock time of EDT compression.",
        t_ckpt_write: "Wall-clock time of checkpoint journal writes.",
    }
}

/// A cheap, cloneable reference to a [`Metrics`] registry — or the
/// disabled no-op. Instrumented structs store one of these; every flush
/// site is `if let Some(m) = handle.get() { ... }`.
#[derive(Debug, Clone, Default)]
pub struct MetricsHandle(Option<Arc<Metrics>>);

impl MetricsHandle {
    /// The disabled handle: all instrumentation compiles to one branch.
    pub fn disabled() -> MetricsHandle {
        MetricsHandle(None)
    }

    /// A handle to a fresh, enabled registry.
    pub fn enabled() -> MetricsHandle {
        MetricsHandle(Some(Arc::new(Metrics::new())))
    }

    /// A handle sharing an existing registry.
    pub fn of(metrics: Arc<Metrics>) -> MetricsHandle {
        MetricsHandle(Some(metrics))
    }

    /// `true` when recording.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The registry, if enabled.
    #[inline]
    pub fn get(&self) -> Option<&Metrics> {
        self.0.as_deref()
    }

    /// Snapshots the registry, if enabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.0.as_ref().map(|m| m.snapshot())
    }
}

/// Captured value of one [`TimerStat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimerSnapshot {
    /// Total nanoseconds.
    pub nanos: u64,
    /// Executions recorded.
    pub count: u64,
}

/// A point-in-time capture of a [`Metrics`] registry, in declaration
/// order. Counters and histograms are deterministic (scheduling-
/// independent); timers are wall-clock.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, total)` per counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, buckets)` per histogram.
    pub histograms: Vec<(&'static str, [u64; HISTOGRAM_BUCKETS])>,
    /// `(name, value)` per phase timer.
    pub timers: Vec<(&'static str, TimerSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sample count of the histogram `name` (0 when absent).
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, b)| b.iter().sum())
            .unwrap_or(0)
    }

    /// Quantile estimate of the histogram `name` via
    /// [`histogram_quantile`]; `None` when absent or empty.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, b)| histogram_quantile(b, q))
    }

    /// The per-instrument change since `earlier`: saturating
    /// subtraction by name across counters, histogram buckets, and
    /// timers. Both snapshots normally come from the same registry
    /// (same names in the same order — the fast path); names missing
    /// from `earlier` are treated as zero, so a delta across registry
    /// generations is still well-defined. This is the sampler
    /// primitive: a periodic observer snapshots, deltas against its
    /// previous capture, and derives interval rates without ever
    /// resetting the live registry.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let prev_counter = |i: usize, name: &str| -> u64 {
            match earlier.counters.get(i) {
                Some((n, v)) if *n == name => *v,
                _ => earlier.counter(name),
            }
        };
        let counters = self
            .counters
            .iter()
            .enumerate()
            .map(|(i, (n, v))| (*n, v.saturating_sub(prev_counter(i, n))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .enumerate()
            .map(|(i, (n, b))| {
                let zero = [0u64; HISTOGRAM_BUCKETS];
                let prev = match earlier.histograms.get(i) {
                    Some((pn, pb)) if pn == n => pb,
                    _ => earlier
                        .histograms
                        .iter()
                        .find(|(pn, _)| pn == n)
                        .map(|(_, pb)| pb)
                        .unwrap_or(&zero),
                };
                (*n, std::array::from_fn(|j| b[j].saturating_sub(prev[j])))
            })
            .collect();
        let timers = self
            .timers
            .iter()
            .enumerate()
            .map(|(i, (n, t))| {
                let prev = match earlier.timers.get(i) {
                    Some((pn, pt)) if pn == n => *pt,
                    _ => earlier
                        .timers
                        .iter()
                        .find(|(pn, _)| pn == n)
                        .map(|(_, pt)| *pt)
                        .unwrap_or_default(),
                };
                (
                    *n,
                    TimerSnapshot {
                        nanos: t.nanos.saturating_sub(prev.nanos),
                        count: t.count.saturating_sub(prev.count),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
            timers,
        }
    }

    /// `true` when the scheduling-independent parts (counters and
    /// histograms, not timers) are identical — the comparison the
    /// thread-count determinism tests use.
    pub fn deterministic_eq(&self, other: &MetricsSnapshot) -> bool {
        self.counters == other.counters && self.histograms == other.histograms
    }

    /// Serializes the snapshot as pretty-printed JSON with stable key
    /// order (no external dependencies; names are plain identifiers, so
    /// no escaping is required).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n  \"counters\": {\n");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i + 1 == self.counters.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(s, "    \"{name}\": {v}{sep}");
        }
        s.push_str("  },\n  \"histograms\": {\n");
        for (i, (name, buckets)) in self.histograms.iter().enumerate() {
            let sep = if i + 1 == self.histograms.len() {
                ""
            } else {
                ","
            };
            let list = buckets
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(s, "    \"{name}\": [{list}]{sep}");
        }
        s.push_str("  },\n  \"timers\": {\n");
        for (i, (name, t)) in self.timers.iter().enumerate() {
            let sep = if i + 1 == self.timers.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    \"{name}\": {{ \"nanos\": {}, \"count\": {} }}{sep}",
                t.nanos, t.count
            );
        }
        s.push_str("  }\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = Metrics::new();
        m.podem_backtracks.add(5);
        m.podem_backtracks.inc();
        assert_eq!(m.podem_backtracks.get(), 6);
        m.reset();
        assert_eq!(m.podem_backtracks.get(), 0);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0 (log2(1) = 0)
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1 << 15); // bucket 15
        h.record(u64::MAX); // clamped to last bucket
        let b = h.buckets();
        assert_eq!(b[0], 2);
        assert_eq!(b[1], 2);
        assert_eq!(b[15], 1);
        assert_eq!(b[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let h = MetricsHandle::disabled();
        assert!(!h.is_enabled());
        assert!(h.get().is_none());
        assert!(h.snapshot().is_none());
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let m = Metrics::new();
        {
            let _t = m.t_atpg_random.timed();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(m.t_atpg_random.count(), 1);
        assert!(m.t_atpg_random.nanos() > 0);
    }

    #[test]
    fn snapshot_json_is_well_formed_and_stable() {
        let m = Metrics::new();
        m.goodsim_gate_evals.add(42);
        m.podem_backtracks_per_call.record(3);
        m.t_scan_insertion.record(Duration::from_nanos(77));
        let snap = m.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"goodsim_gate_evals\": 42"));
        assert!(json.contains("\"t_scan_insertion\": { \"nanos\": 77, \"count\": 1 }"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Stable order: two snapshots of the same registry are equal.
        assert_eq!(snap, m.snapshot());
        assert_eq!(snap.counter("goodsim_gate_evals"), 42);
        assert_eq!(snap.histogram_count("podem_backtracks_per_call"), 1);
    }

    #[test]
    fn deterministic_eq_ignores_timers() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.faultsim_gate_evals.add(9);
        b.faultsim_gate_evals.add(9);
        a.t_atpg_signoff.record(Duration::from_millis(5));
        b.t_atpg_signoff.record(Duration::from_millis(50));
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert!(sa.deterministic_eq(&sb));
        assert_ne!(sa, sb, "full equality must still see the timers");
    }

    #[test]
    fn delta_subtracts_by_name_and_saturates() {
        let m = Metrics::new();
        m.serve_windows.add(10);
        m.podem_backtracks_per_call.record(4);
        m.t_atpg_random.record(Duration::from_nanos(100));
        let earlier = m.snapshot();
        m.serve_windows.add(7);
        m.serve_signatures.add(3);
        m.podem_backtracks_per_call.record(4);
        m.t_atpg_random.record(Duration::from_nanos(50));
        let d = m.snapshot().delta(&earlier);
        assert_eq!(d.counter("serve_windows"), 7);
        assert_eq!(d.counter("serve_signatures"), 3);
        assert_eq!(d.counter("podem_calls"), 0);
        assert_eq!(d.histogram_count("podem_backtracks_per_call"), 1);
        let t = d
            .timers
            .iter()
            .find(|(n, _)| *n == "t_atpg_random")
            .unwrap();
        assert_eq!(
            t.1,
            TimerSnapshot {
                nanos: 50,
                count: 1
            }
        );
        // A later snapshot subtracted from an earlier one saturates at
        // zero instead of wrapping.
        let d = earlier.delta(&m.snapshot());
        assert_eq!(d.counter("serve_windows"), 0);
        // Delta against an empty snapshot is the identity.
        let empty = MetricsSnapshot {
            counters: Vec::new(),
            histograms: Vec::new(),
            timers: Vec::new(),
        };
        let id = m.snapshot().delta(&empty);
        assert_eq!(id.counter("serve_windows"), 17);
        assert_eq!(id.histogram_count("podem_backtracks_per_call"), 2);
    }

    #[test]
    fn bucket_bounds_partition_the_value_line() {
        assert_eq!(bucket_bounds(0), (0, 1));
        assert_eq!(bucket_bounds(1), (2, 3));
        assert_eq!(bucket_bounds(15), (1 << 15, (1 << 16) - 1));
        // Adjacent buckets tile without gaps below the open top.
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_bounds(i).1 + 1, bucket_bounds(i + 1).0);
        }
    }

    #[test]
    fn quantile_estimates_track_the_distribution() {
        let h = Histogram::default();
        assert_eq!(histogram_quantile(&h.buckets(), 0.5), None);
        for _ in 0..99 {
            h.record(8); // bucket 3: [8, 15]
        }
        h.record(40_000); // bucket 15
        let b = h.buckets();
        let p50 = histogram_quantile(&b, 0.5).unwrap();
        assert!((8.0..=15.0).contains(&p50), "p50 {p50}");
        let p99 = histogram_quantile(&b, 0.99).unwrap();
        assert!((8.0..=15.0).contains(&p99), "p99 {p99}");
        let p999 = histogram_quantile(&b, 0.9999).unwrap();
        assert!(p999 >= (1 << 15) as f64, "p99.99 {p999}");
        // Quantiles are monotone in q and clamped outside [0, 1].
        assert!(p50 <= p99 && p99 <= p999);
        assert_eq!(
            histogram_quantile(&b, -1.0),
            histogram_quantile(&b, 0.0),
            "q clamps low"
        );
        assert_eq!(
            histogram_quantile(&b, 2.0),
            histogram_quantile(&b, 1.0),
            "q clamps high"
        );
        // The snapshot convenience sees the same estimate.
        let m = Metrics::new();
        for _ in 0..4 {
            m.edt_care_bits_per_cube.record(8);
        }
        let snap = m.snapshot();
        assert_eq!(
            snap.histogram_quantile("edt_care_bits_per_cube", 0.5),
            histogram_quantile(&m.edt_care_bits_per_cube.buckets(), 0.5)
        );
        assert_eq!(snap.histogram_quantile("missing", 0.5), None);
    }

    #[test]
    fn shared_handle_merges_across_threads() {
        let h = MetricsHandle::enabled();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.get().unwrap().faultsim_gate_evals.inc();
                    }
                });
            }
        });
        assert_eq!(h.snapshot().unwrap().counter("faultsim_gate_evals"), 8000);
    }
}
