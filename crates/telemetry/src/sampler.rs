//! The sampler thread: periodic, strictly read-only observation.
//!
//! Every tick the sampler takes a [`dft_metrics::MetricsHandle`]
//! snapshot, deltas it against the oldest capture inside a ~2 s sliding
//! window ([`dft_metrics::MetricsSnapshot::delta`]) to derive rolling
//! dies/sec and signatures/sec, estimates latency quantiles from the
//! gauge histograms, publishes the assembled [`TelemetrySample`] for
//! the stats endpoint, and flushes the event-stream batch. It only ever
//! *reads* fleet state — no fleet thread ever waits on the sampler, so
//! the final `FleetState` is bit-identical with the sampler on or off.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dft_metrics::{histogram_quantile, MetricsHandle, MetricsSnapshot};

use crate::gauges::SessionState;
use crate::sample::TelemetrySample;
use crate::Inner;

/// Sliding window the rolling rates are computed over.
const RATE_WINDOW: Duration = Duration::from_secs(2);

/// Counter names the rate window watches (from the serve registry).
const SIGNATURE_COUNTER: &str = "serve_signatures";

/// History entry: capture time, dies-done gauge, metrics snapshot.
type Capture = (Instant, u64, MetricsSnapshot);

/// Builds one sample from the current gauge + metrics state and
/// publishes it. `history` is the sampler's private sliding window of
/// prior captures; the newest capture is appended before rates are
/// derived, so even the startup sample (empty history) is well-formed
/// with zero rates.
pub(crate) fn take_sample(inner: &Inner, metrics: &MetricsHandle, history: &mut VecDeque<Capture>) {
    let now = Instant::now();
    let snap = metrics.snapshot().unwrap_or(MetricsSnapshot {
        counters: Vec::new(),
        histograms: Vec::new(),
    });
    let mut sample = TelemetrySample {
        seq: inner.next_sample_seq(),
        counters: snap
            .counters
            .iter()
            .map(|(n, v)| ((*n).to_owned(), *v))
            .collect(),
        ..TelemetrySample::default()
    };
    refresh_gauges(inner, &mut sample);
    let dies_done = sample.dies_done;
    history.push_back((now, dies_done, snap.clone()));
    while history.len() > 2 && now.duration_since(history[1].0) >= RATE_WINDOW {
        history.pop_front();
    }

    let (t0, done0, snap0) = history.front().expect("history never empty");
    let dt = now.duration_since(*t0).as_secs_f64();
    let (dies_per_sec, signatures_per_sec) = if history.len() > 1 && dt > 0.0 {
        let window = snap.delta(snap0);
        (
            dies_done.saturating_sub(*done0) as f64 / dt,
            window.counter(SIGNATURE_COUNTER) as f64 / dt,
        )
    } else {
        (0.0, 0.0)
    };
    sample.dies_per_sec = dies_per_sec;
    sample.signatures_per_sec = signatures_per_sec;
    sample.peak_dies_per_sec = inner.update_peak(dies_per_sec);
    inner.publish(sample);
}

/// Overwrites `sample`'s gauge fields (uptime, fleet shape and progress,
/// sessions, breaker states, latency histograms and their quantiles,
/// scrape count) with the live values. The gauges are lock-free atomics,
/// so this is cheap enough to run on every scrape.
pub(crate) fn refresh_gauges(inner: &Inner, sample: &mut TelemetrySample) {
    let g = &inner.gauges;
    let window_buckets = g.window_latency_us.buckets();
    let signature_buckets = g.signature_latency_us.buckets();
    let q = |b: &[u64; dft_metrics::HISTOGRAM_BUCKETS], p: f64| {
        histogram_quantile(b, p).unwrap_or(f64::NAN)
    };
    sample.uptime_ms = inner.uptime_ms();
    sample.design = g.design();
    sample.dies = g.dies_total();
    sample.dies_done = g.dies_done();
    sample.windows_per_die = g.windows_per_die();
    sample.sessions_active = g.sessions_active();
    sample.windows_in_flight = g.windows_in_flight();
    sample.closed = g.state_count(SessionState::Closed);
    sample.backoff = g.state_count(SessionState::Backoff);
    sample.quarantined = g.state_count(SessionState::Quarantined);
    sample.window_p50_us = q(&window_buckets, 0.50);
    sample.window_p99_us = q(&window_buckets, 0.99);
    sample.signature_p50_us = q(&signature_buckets, 0.50);
    sample.signature_p99_us = q(&signature_buckets, 0.99);
    sample.window_buckets = window_buckets;
    sample.signature_buckets = signature_buckets;
    sample.scrapes = inner.scrapes();
}

/// Handle to the running sampler thread; `stop` takes a final sample,
/// flushes the event log, and joins. The inter-tick wait is a condvar
/// timeout, not a plain sleep, so a stop request (fleet done, error
/// unwind, SIGTERM) wakes the thread immediately instead of waiting
/// out the remainder of a tick period.
#[derive(Debug)]
pub(crate) struct Sampler {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    pub(crate) fn spawn(inner: Arc<Inner>, metrics: MetricsHandle, period: Duration) -> Sampler {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let flag = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("aidft-telemetry".into())
            .spawn(move || {
                let mut history: VecDeque<Capture> = VecDeque::new();
                loop {
                    let last = *flag.0.lock().unwrap();
                    take_sample(&inner, &metrics, &mut history);
                    if let Some(log) = inner.events() {
                        log.flush();
                    }
                    if last {
                        break;
                    }
                    let guard = flag.0.lock().unwrap();
                    if !*guard {
                        let _ = flag.1.wait_timeout(guard, period).unwrap();
                    }
                }
            })
            .expect("spawn telemetry sampler");
        Sampler {
            stop,
            thread: Some(thread),
        }
    }

    /// Requests the final tick, wakes the thread if it is mid-wait,
    /// and joins.
    pub(crate) fn stop(mut self) {
        *self.stop.0.lock().unwrap() = true;
        self.stop.1.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
