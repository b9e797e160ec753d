//! `perfbench`: the aidft benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow_sys4x4|lbist_sys4x4|serve_fleet> --seed N --seconds S --trace <0|1> [--smoke]
//! ```
//!
//! It links `dft-core` as a library and runs one workload's operation
//! (one flow, one LBIST session or one 1024-die fleet) back to back for
//! the given seconds. Every operation first builds its inputs from the
//! seed, then calls the program, then checks the result, and its
//! coverage, tester cycles and program counts must repeat exactly.
//!
//! With `--trace 0` it prints the end-to-end metrics, the same names for
//! every workload: `setup_s` (median input build), `op_s` (median
//! program call), `coverage` (flow: test coverage; LBIST: session
//! coverage; fleet: share of defective dies rejected), `tester_cycles`
//! (scan cycles per die) and `peak_rss_mb`.
//!
//! With `--trace 1` it alternates untraced and traced operations and
//! replays each layer of a traced operation through the crates' public
//! entry points inside spans. It also runs one traced operation of each
//! other workload, so every per-layer metric is measured on every
//! workload; where both measure a metric, this workload's value wins.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. `--smoke` shrinks every workload
//! (mac4, 4096 LBIST patterns, 64 dies, two operations).

mod flow;
mod lbist;
mod serve;
mod spans;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use dft_core::metrics::MetricsSnapshot;
use spans::{quantile, ratio, Trace, Tracer};

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Metrics printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_s", "s"),
    ("coverage", "fraction"),
    ("tester_cycles", "cycles"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scan.insert_ms", "ms"),
    ("fault.collapse_ms", "ms"),
    ("logicsim.compile_ms", "ms"),
    ("logicsim.fault_batch_ms", "ms"),
    ("logicsim.fault_patterns_per_s", "1/s"),
    ("logicsim.eval_batch_ms", "ms"),
    ("atpg.podem_calls", "count"),
    ("atpg.podem_ms", "ms"),
    ("atpg.podem_call_us_p50", "us"),
    ("atpg.podem_call_us_p99", "us"),
    ("atpg.podem_aborted_ms", "ms"),
    ("atpg.podem_useful_ratio", "fraction"),
    ("atpg.podem_backtracks", "count"),
    ("atpg.podem_simulations", "count"),
    ("atpg.dalg_calls", "count"),
    ("atpg.dalg_ms", "ms"),
    ("atpg.dalg_rescue_ratio", "fraction"),
    ("atpg.compact_ms", "ms"),
    ("atpg.topoff_replay_ratio", "ratio"),
    ("compress.edt_ms", "ms"),
    ("compress.encode_ratio", "fraction"),
    ("bist.prpg_ms", "ms"),
    ("bist.signature_ms", "ms"),
    ("serve.build_ms", "ms"),
    ("serve.decode_window_us", "us"),
    ("serve.die_healthy_window_us", "us"),
    ("serve.die_defective_window_us", "us"),
    ("serve.frame_roundtrip_us", "us"),
    ("serve.compute_share", "fraction"),
    ("serve.cpu_per_wall", "ratio"),
    ("flow.phase_scan_ms", "ms"),
    ("flow.phase_compile_ms", "ms"),
    ("flow.phase_random_ms", "ms"),
    ("flow.phase_deterministic_ms", "ms"),
    ("flow.phase_compression_ms", "ms"),
    ("flow.phase_total_ms", "ms"),
    ("total.scan_ms", "ms"),
    ("total.fault_ms", "ms"),
    ("total.logicsim_ms", "ms"),
    ("total.atpg_ms", "ms"),
    ("total.compress_ms", "ms"),
    ("total.bist_ms", "ms"),
    ("total.serve_ms", "ms"),
    ("count.podem_calls", "count"),
    ("count.podem_backtracks", "count"),
    ("count.podem_simulations", "count"),
    ("count.faultsim_gate_evals", "count"),
    ("count.edt_cubes_encoded", "count"),
    ("count.serve_windows", "count"),
    ("count.serve_retries", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_per_op", "count"),
];

/// Counters of the program's `MetricsSnapshot` that must repeat exactly
/// for a fixed seed, and the metrics they are reported as.
const COUNTS: &[(&str, &str)] = &[
    ("podem_calls", "count.podem_calls"),
    ("podem_backtracks", "count.podem_backtracks"),
    ("podem_simulations", "count.podem_simulations"),
    ("faultsim_gate_evals", "count.faultsim_gate_evals"),
    ("edt_cubes_encoded", "count.edt_cubes_encoded"),
    ("serve_windows", "count.serve_windows"),
    ("serve_retries", "count.serve_retries"),
];

/// Span-name prefix of each layer and the metric its self times sum into.
const LAYERS: &[(&str, &str)] = &[
    ("scan.", "total.scan_ms"),
    ("fault.", "total.fault_ms"),
    ("logicsim.", "total.logicsim_ms"),
    ("atpg.", "total.atpg_ms"),
    ("compress.", "total.compress_ms"),
    ("bist.", "total.bist_ms"),
    ("serve.", "total.serve_ms"),
];

/// Worker threads (or concurrent die clients) per workload, sized for
/// a two-core host.
pub const THREADS: usize = 2;

/// Run-wide options from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// Which operations of a workload are traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tracing {
    Off,
    /// Every other operation, so traced and untraced ones interleave.
    Alternate,
    All,
}

/// How many operations a workload runs and which of them are traced.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    seconds: f64,
    min_ops: u32,
    max_ops: u32,
    tracing: Tracing,
}

impl Plan {
    fn main(opts: &Opts, trace: bool) -> Plan {
        Plan {
            seconds: opts.seconds,
            // A traced run needs at least two traced operations.
            min_ops: if trace { 4 } else { 3 },
            max_ops: if opts.smoke { 2 } else { u32::MAX },
            tracing: if trace {
                Tracing::Alternate
            } else {
                Tracing::Off
            },
        }
    }

    /// One traced operation of another workload.
    fn cross() -> Plan {
        Plan {
            seconds: 0.0,
            min_ops: 1,
            max_ops: 1,
            tracing: Tracing::All,
        }
    }
}

/// Operations attempted and failed; every failure is reported on stderr.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: {what} failed: {e}");
        }
    }
}

/// What one operation reports to the harness.
pub struct OpResult {
    /// Host seconds spent building the operation's inputs.
    pub setup_secs: f64,
    /// Host seconds of the program call alone.
    pub secs: f64,
    /// Values that must repeat exactly for a fixed seed; those named
    /// like a metric (`coverage`, `tester_cycles`, the program's counts)
    /// are reported as that metric.
    pub repeat: Vec<(&'static str, f64)>,
}

/// The program's deterministic counts from one operation's snapshot.
pub fn counts(snap: &MetricsSnapshot) -> Vec<(&'static str, f64)> {
    COUNTS
        .iter()
        .map(|&(counter, metric)| (metric, snap.counter(counter) as f64))
        .collect()
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The operations a workload ran, with their spans.
pub struct Driven {
    setup_secs: Vec<f64>,
    untraced_secs: Vec<f64>,
    traced_secs: Vec<f64>,
    traced_ops: Vec<u32>,
    first: Vec<(&'static str, f64)>,
    trace: Trace,
}

impl Driven {
    /// Metrics every workload reports the same way.
    fn common(&self) -> Metrics {
        let mut m = Metrics::new();
        m.insert("setup_s", median(&self.setup_secs));
        m.insert("op_s", median(&self.untraced_secs));
        for &(k, v) in &self.first {
            if END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == k) {
                m.insert(k, v);
            }
        }
        if self.traced() {
            let view = self.view();
            for &(prefix, name) in LAYERS {
                if view.calls_with_prefix(prefix) > 0 {
                    m.insert(name, view.prefix_self_ms(prefix));
                }
            }
            m.insert("trace.spans_per_op", view.span_count());
            if !self.untraced_secs.is_empty() {
                let untraced = median(&self.untraced_secs);
                m.insert(
                    "trace.overhead_pct",
                    100.0 * ratio(median(&self.traced_secs) - untraced, untraced),
                );
            }
        }
        m
    }

    /// Median host seconds of the untraced operations, or of the traced
    /// ones when every operation was traced.
    pub fn median_secs(&self) -> f64 {
        if self.untraced_secs.is_empty() {
            median(&self.traced_secs)
        } else {
            median(&self.untraced_secs)
        }
    }

    /// `true` when some operation was traced.
    pub fn traced(&self) -> bool {
        !self.traced_ops.is_empty()
    }

    /// Aggregates over the traced operations.
    pub fn view(&self) -> spans::OpView<'_> {
        self.trace.ops(&self.traced_ops)
    }
}

/// Runs `op` back to back under `plan`, checking that each operation's
/// repeat values equal the first operation's.
pub fn drive(
    plan: Plan,
    what: &str,
    tally: &mut Tally,
    mut op: impl FnMut(&Tracer) -> Result<OpResult, String>,
) -> Driven {
    let tracer = if plan.tracing != Tracing::Off {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let off = Tracer::off();
    let (mut setup_secs, mut untraced_secs, mut traced_secs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_ops, mut first) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0u32;
    // An operation is started only if one of average length still ends
    // within the run's seconds.
    let fits = |i: u32| {
        let spent = start.elapsed().as_secs_f64();
        spent + spent / f64::from(i.max(1)) <= plan.seconds
    };
    while i < plan.max_ops && (i < plan.min_ops || fits(i)) {
        let traced = match plan.tracing {
            Tracing::Off => false,
            Tracing::Alternate => i % 2 == 1,
            Tracing::All => true,
        };
        let tr = if traced { &tracer } else { &off };
        tr.set_op(i);
        let result = tr.span("op", || op(tr)).and_then(|r| {
            if first.is_empty() {
                first = r.repeat.clone();
            } else if r.repeat != first {
                let diff = r
                    .repeat
                    .iter()
                    .zip(&first)
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| format!("{} = {} (first operation: {})", a.0, a.1, b.1))
                    .unwrap_or_else(|| "value list changed".into());
                return Err(format!("result did not repeat: {diff}"));
            }
            Ok((r.setup_secs, r.secs))
        });
        if let Ok((setup, secs)) = &result {
            setup_secs.push(*setup);
            if traced {
                traced_secs.push(*secs);
                traced_ops.push(i);
            } else {
                untraced_secs.push(*secs);
            }
        }
        tally.record(&format!("{what} operation {i}"), result.map(|_| ()));
        i += 1;
    }
    let d = Driven {
        setup_secs,
        untraced_secs,
        traced_secs,
        traced_ops,
        first,
        trace: tracer.finish(),
    };
    let secs = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "{what}: {i} operation(s) in {:.1} s, median {:.4} s per operation; untraced [{}] traced [{}] setup [{}]",
        start.elapsed().as_secs_f64(),
        d.median_secs(),
        secs(&d.untraced_secs),
        secs(&d.traced_secs),
        secs(&d.setup_secs),
    );
    let repeat: Vec<String> = d.first.iter().map(|(k, v)| format!("{k} {v}")).collect();
    println!("{what}: repeated exactly: {}", repeat.join(", "));
    d
}

/// Prints the traced operations' self time per span name.
fn print_self_table(what: &str, d: &Driven) {
    let view = d.view();
    println!("{what}: self time per traced operation:");
    for (name, ms, calls) in view.self_table() {
        println!("  {name:<32} {ms:>12.3} ms  {calls:>8} span(s)");
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn load_avg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_owned))
        .unwrap_or_else(|| "null".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().replace('"', "'"))
        .unwrap_or_else(|| "unknown".into())
}

const WORKLOADS: &[&str] = &["flow_sys4x4", "lbist_sys4x4", "serve_fleet"];

/// Runs workload `name` under `plan`: end-to-end and layer metrics.
fn run_workload(name: &str, opts: &Opts, plan: Plan, tally: &mut Tally) -> Metrics {
    let (m, d) = match name {
        "flow_sys4x4" => flow::run(opts, plan, tally),
        "lbist_sys4x4" => lbist::run(opts, plan, tally),
        "serve_fleet" => serve::run(opts, plan, tally),
        _ => unreachable!("workload names are checked on entry"),
    };
    if plan.tracing != Tracing::Off {
        print_self_table(name, &d);
    }
    let mut all = d.common();
    all.extend(m);
    all
}

struct Args {
    workload: String,
    opts: Opts,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            smoke,
        },
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = args.opts;
    let load_before = load_avg();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} smoke {}",
        args.workload, opts.seed, opts.seconds, args.trace as u8, opts.smoke
    );

    let mut tally = Tally::default();
    let mut metrics = Metrics::new();
    if args.trace {
        // Every layer is measured on every workload: the layers this
        // workload does not reach come from one traced operation of each
        // other workload, and this workload's own values win.
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            metrics.extend(run_workload(other, &opts, Plan::cross(), &mut tally));
        }
    }
    metrics.extend(run_workload(
        &args.workload,
        &opts,
        Plan::main(&opts, args.trace),
        &mut tally,
    ));
    metrics.insert("peak_rss_mb", peak_rss_mb());

    println!(
        "{{\"env\": {{\"nproc\": {nproc}, \"rustc\": \"{}\", \"load_before\": {load_before}, \"load_after\": {}, \"seed\": {}}}}}",
        rustc_version(),
        load_avg(),
        opts.seed
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in table {
        // A metric goes unmeasured only when its operations failed.
        let value = match metrics.get(name) {
            Some(v) => v,
            None if tally.failed > 0 => &0.0,
            None => panic!("metric {name} was not measured"),
        };
        assert!(value.is_finite(), "metric {name} is {value}");
        println!("  {name:<32} {value:>16} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "error_rate {} ({} of {} operations failed)",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
