//! Live-telemetry integration: a real fleet run with the sampler
//! thread, scrape endpoint, and event stream attached, checked against
//! the telemetry-off reference. The invariant under test is the
//! tentpole contract of the telemetry layer: it is *strictly read-only*
//! — the final [`FleetState`](dft_core::serve::FleetState) and the
//! rendered summary are byte-identical with telemetry enabled or
//! disabled, across client thread counts, and while an aggressive scraper hammers the endpoint
//! mid-run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dft_core::checkpoint::ChaosConfig;
use dft_core::metrics::MetricsHandle;
use dft_core::netlist::generators::mac_pe;
use dft_core::serve::{run_fleet, FleetReport, ServeConfig, ServeOpts};
use dft_core::telemetry::{
    pair_value, parse_prometheus, read_events, scrape, validate_events, TelemetryConfig,
    TelemetryFinal, TelemetrySession, STATS_SCHEMA,
};
use dft_core::trace::{TraceConfig, TraceHandle, TraceSession};

fn tmp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aidft-telemetry-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(tag);
    std::fs::remove_file(&path).ok();
    path
}

/// One scraper observation: (sample seq, dies done) from `/metrics`.
type Obs = (f64, f64);

/// Runs the fleet with a live telemetry session (ephemeral scrape port,
/// 5 ms sampler) while a scraper thread polls `/metrics` every few
/// milliseconds for the whole run. Returns the fleet report, the final
/// telemetry accounting, and everything the scraper saw.
fn run_scraped(
    nl: &dft_core::netlist::Netlist,
    cfg: &ServeConfig,
    chaos: &str,
    events: Option<PathBuf>,
    trace: TraceHandle,
) -> (FleetReport, TelemetryFinal, Vec<Obs>) {
    let tele_cfg = TelemetryConfig {
        stats_addr: Some("127.0.0.1:0".to_owned()),
        events_path: events,
        period: Duration::from_millis(5),
    };
    let session = TelemetrySession::start(tele_cfg, MetricsHandle::enabled()).unwrap();
    let addr = session.stats_addr().expect("stats endpoint bound");

    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seen: Vec<Obs> = Vec::new();
            while !stop.load(Ordering::Acquire) {
                if let Ok(text) = scrape(addr, "/metrics") {
                    let pairs = parse_prometheus(&text);
                    seen.push((
                        pair_value(&pairs, "aidft_sample_seq").unwrap_or(f64::NAN),
                        pair_value(&pairs, "aidft_fleet_dies_done").unwrap_or(f64::NAN),
                    ));
                }
                std::thread::sleep(Duration::from_millis(3));
            }
            seen
        })
    };

    let opts = ServeOpts {
        chaos: ChaosConfig::parse(chaos).unwrap(),
        telemetry: session.handle(),
        trace,
        ..ServeOpts::default()
    };
    let report = run_fleet(nl, cfg, &opts).unwrap();

    // One guaranteed JSON scrape while the endpoint is still alive.
    let json = scrape(addr, "/stats.json").unwrap();
    assert!(
        json.contains(&format!("\"schema\":\"{STATS_SCHEMA}\"")),
        "JSON scrape is schema-tagged: {json}"
    );

    stop.store(true, Ordering::Release);
    let seen = scraper.join().unwrap();
    let fin = session.finish();
    (report, fin, seen)
}

/// A mid-run scraper is invisible: the fleet state and summary with the
/// sampler + endpoint + scraper attached are identical to the plain
/// run — and what the scraper saw is internally consistent (monotone
/// sample seq and dies-done).
#[test]
fn mid_run_scrape_never_changes_the_fleet_state() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 16,
        client_threads: 2,
        ..ServeConfig::default()
    };
    let reference = run_fleet(&nl, &cfg, &ServeOpts::default()).unwrap();
    let (scraped, fin, seen) = run_scraped(&nl, &cfg, "", None, TraceHandle::disabled());

    assert_eq!(
        scraped.state, reference.state,
        "telemetry must be invisible in the state"
    );
    assert_eq!(scraped.summary, reference.summary, "summary");
    assert!(fin.samples >= 2, "startup + final samples at minimum");
    assert!(fin.scrapes > 0, "the scraper reached the endpoint");
    assert!(!seen.is_empty(), "at least one successful scrape");
    for w in seen.windows(2) {
        assert!(w[1].0 >= w[0].0, "sample seq is monotone: {seen:?}");
        assert!(w[1].1 >= w[0].1, "dies-done is monotone: {seen:?}");
    }
    let last = seen.last().unwrap();
    assert!(
        last.1 <= 16.0,
        "dies-done gauge never overshoots the fleet: {last:?}"
    );
}

/// The acceptance matrix from ISSUE 9: a chaos-soaked fleet (half-open
/// connections, stalls, corrupted uploads, tight reconnect budget) is
/// scraped throughout, and the final summary — including the rendered
/// report text, byte for byte — matches the telemetry-disabled
/// reference at client_threads 1 and 4.
#[test]
fn chaos_soak_summary_is_byte_identical_with_telemetry_attached() {
    let nl = mac_pe(4);
    let chaos_knobs = "halfopen=0.4,stall=0.2,corrupt=0.15,stall_ms=2,seed=9";
    for client_threads in [1usize, 4] {
        let cfg = ServeConfig {
            dies: 16,
            client_threads,
            max_reconnects: 2,
            backoff_base_ms: 0,
            ..ServeConfig::default()
        };
        let opts = ServeOpts {
            chaos: ChaosConfig::parse(chaos_knobs).unwrap(),
            ..ServeOpts::default()
        };
        let reference = run_fleet(&nl, &cfg, &opts).unwrap();
        assert!(
            reference.summary.quarantined > 0,
            "chaos mix must trip at least one breaker"
        );
        let (scraped, _fin, seen) =
            run_scraped(&nl, &cfg, chaos_knobs, None, TraceHandle::disabled());
        assert_eq!(
            scraped.state, reference.state,
            "client_threads {client_threads}: state"
        );
        assert_eq!(scraped.summary, reference.summary);
        assert_eq!(
            scraped.summary.render(Duration::ZERO),
            reference.summary.render(Duration::ZERO),
            "client_threads {client_threads}: rendered report, byte for byte"
        );
        assert!(!seen.is_empty(), "scraper stayed attached through chaos");
    }
}

/// The event stream and the trace bridge tell the same story: a fleet
/// where every die quarantines writes one `quarantine` event per die to
/// the `aidft-telemetry-v1` journal, mirrored by one `quarantine` trace
/// instant per die, and the stream validates (strictly increasing seq,
/// known kinds).
#[test]
fn event_stream_records_quarantines_and_mirrors_the_trace() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 8,
        client_threads: 2,
        max_reconnects: 2,
        backoff_base_ms: 0,
        ..ServeConfig::default()
    };
    let events_path = tmp_path("quarantine-events.jsonl");
    let trace_session = TraceSession::new(TraceConfig::default());
    let (report, fin, _seen) = run_scraped(
        &nl,
        &cfg,
        "halfopen=1.0,stall_ms=5,seed=11",
        Some(events_path.clone()),
        trace_session.handle(),
    );
    assert_eq!(report.summary.quarantined, 8, "dead fleet quarantines all");

    let stats = validate_events(&events_path).expect("event stream validates");
    assert_eq!(stats.quarantines, 8, "one quarantine event per die");
    assert_eq!(
        stats.events as u64, fin.events,
        "final accounting matches file"
    );

    let lines = read_events(&events_path).unwrap();
    assert!(
        lines.iter().any(|l| l.contains("\"kind\":\"session\"")),
        "breaker transitions are in the stream"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"kind\":\"chaos\"")),
        "chaos injections are in the stream"
    );

    let dump = trace_session.snapshot();
    let mut dies = dump.instants_named("quarantine");
    dies.sort_unstable();
    dies.dedup();
    assert_eq!(
        dies.len(),
        8,
        "one quarantine trace instant per die, joinable by name"
    );
    std::fs::remove_file(&events_path).ok();
}
