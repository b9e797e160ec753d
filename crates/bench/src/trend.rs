//! Bench-trajectory tracking: compare the `trend` blocks of the current
//! `BENCH_*.json` files against the previous run and flag regressions.
//!
//! Every experiment that writes a `BENCH_<name>.json` embeds a stable
//! top-level block:
//!
//! ```json
//! "trend": {"experiment": "metrics", "wall_clock_ns": 123456, "coverage": 0.987}
//! ```
//!
//! `bench trend` collects those blocks, diffs them against the entries
//! recorded in `BENCH_trend.json` by the previous invocation, rewrites
//! `BENCH_trend.json`, prints a markdown delta table, and reports
//! whether any experiment regressed: wall-clock grew by more than
//! `max_regress` (relative), or coverage fell by more than `max_regress`
//! (relative). The CLI exits non-zero in that case so CI can gate on it.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::json::Json;

/// One experiment's trend sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendEntry {
    /// Experiment id (`metrics`, `repair`, ...).
    pub experiment: String,
    /// Wall-clock of the experiment's measured section.
    pub wall_clock_ns: u64,
    /// Headline quality figure (test coverage, yield), when the
    /// experiment has one.
    pub coverage: Option<f64>,
    /// Peak rolling fleet throughput from the telemetry sampler
    /// (`serve` only; higher is better).
    pub peak_dies_per_sec: Option<f64>,
    /// p99 window round-trip latency from the telemetry sampler,
    /// microseconds (`serve` only; lower is better).
    pub p99_window_latency_us: Option<f64>,
}

/// A current sample joined with its predecessor.
#[derive(Debug, Clone)]
pub struct TrendDelta {
    /// The current sample.
    pub current: TrendEntry,
    /// The matching entry of the previous run, if any.
    pub previous: Option<TrendEntry>,
    /// Relative wall-clock change (`+0.25` = 25% slower).
    pub wall_delta: Option<f64>,
    /// Relative coverage change (`-0.25` = 25% less coverage).
    pub coverage_delta: Option<f64>,
    /// Relative peak-throughput change (`-0.25` = 25% less peak;
    /// higher is better).
    pub peak_delta: Option<f64>,
    /// Relative p99 window-latency change (`+0.25` = 25% slower tail;
    /// lower is better).
    pub p99_delta: Option<f64>,
    /// True when this experiment breaches the regression threshold.
    pub regressed: bool,
}

/// Outcome of one `bench trend` evaluation.
#[derive(Debug, Clone)]
pub struct TrendReport {
    /// Per-experiment deltas, sorted by experiment id.
    pub deltas: Vec<TrendDelta>,
    /// True when any experiment regressed.
    pub regressed: bool,
}

impl TrendReport {
    /// The markdown delta table.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "| experiment | wall-clock | Δ wall | coverage | Δ coverage | peak d/s | \
             p99 win µs | status |\n",
        );
        out.push_str("|---|---:|---:|---:|---:|---:|---:|---|\n");
        for d in &self.deltas {
            let wall_ms = d.current.wall_clock_ns as f64 / 1e6;
            let wall_delta = match d.wall_delta {
                Some(x) => format!("{:+.1}%", x * 100.0),
                None => "new".to_owned(),
            };
            let cov = match d.current.coverage {
                Some(c) => format!("{:.4}", c),
                None => "-".to_owned(),
            };
            let cov_delta = match d.coverage_delta {
                Some(x) => format!("{:+.2}%", x * 100.0),
                None => "-".to_owned(),
            };
            let figure = |v: Option<f64>, delta: Option<f64>| match v {
                Some(v) => match delta {
                    Some(x) => format!("{v:.0} ({:+.1}%)", x * 100.0),
                    None => format!("{v:.0}"),
                },
                None => "-".to_owned(),
            };
            let peak = figure(d.current.peak_dies_per_sec, d.peak_delta);
            let p99 = figure(d.current.p99_window_latency_us, d.p99_delta);
            let status = if d.regressed { "REGRESSED" } else { "ok" };
            let _ = writeln!(
                out,
                "| {} | {:.3} ms | {} | {} | {} | {} | {} | {} |",
                d.current.experiment, wall_ms, wall_delta, cov, cov_delta, peak, p99, status
            );
        }
        out
    }

    /// The `BENCH_trend.json` payload: the current entries (consumed as
    /// "previous" by the next invocation) plus the computed deltas.
    pub fn to_json(&self) -> String {
        let mut entries = String::new();
        let mut deltas = String::new();
        let opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.6}"),
            None => "null".to_owned(),
        };
        for (i, d) in self.deltas.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                entries,
                "{sep}\n    {{\"experiment\":\"{}\",\"wall_clock_ns\":{},\"coverage\":{},\
                 \"peak_dies_per_sec\":{},\"p99_window_latency_us\":{}}}",
                d.current.experiment,
                d.current.wall_clock_ns,
                opt(d.current.coverage),
                opt(d.current.peak_dies_per_sec),
                opt(d.current.p99_window_latency_us)
            );
            let _ = write!(
                deltas,
                "{sep}\n    {{\"experiment\":\"{}\",\"wall_delta\":{},\"coverage_delta\":{},\
                 \"peak_delta\":{},\"p99_delta\":{},\"regressed\":{}}}",
                d.current.experiment,
                opt(d.wall_delta),
                opt(d.coverage_delta),
                opt(d.peak_delta),
                opt(d.p99_delta),
                d.regressed
            );
        }
        format!(
            "{{\n  \"schema\": \"aidft-trend-v1\",\n  \"regressed\": {},\n  \"entries\": [{}\n  ],\
             \n  \"deltas\": [{}\n  ]\n}}\n",
            self.regressed, entries, deltas
        )
    }
}

/// Extracts the `trend` block of one `BENCH_*.json` document, if present.
pub fn extract_trend(text: &str) -> Option<TrendEntry> {
    let doc = Json::parse(text).ok()?;
    let t = doc.get("trend")?;
    Some(TrendEntry {
        experiment: t.get("experiment")?.as_str()?.to_owned(),
        wall_clock_ns: t.get("wall_clock_ns")?.as_u64()?,
        coverage: t.get("coverage").and_then(Json::as_f64),
        peak_dies_per_sec: t.get("peak_dies_per_sec").and_then(Json::as_f64),
        p99_window_latency_us: t.get("p99_window_latency_us").and_then(Json::as_f64),
    })
}

/// Reads the `entries` of a previous `BENCH_trend.json`.
pub fn parse_previous(text: &str) -> Vec<TrendEntry> {
    let Ok(doc) = Json::parse(text) else {
        return Vec::new();
    };
    let Some(items) = doc.get("entries").and_then(Json::as_arr) else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|t| {
            Some(TrendEntry {
                experiment: t.get("experiment")?.as_str()?.to_owned(),
                wall_clock_ns: t.get("wall_clock_ns")?.as_u64()?,
                coverage: t.get("coverage").and_then(Json::as_f64),
                peak_dies_per_sec: t.get("peak_dies_per_sec").and_then(Json::as_f64),
                p99_window_latency_us: t.get("p99_window_latency_us").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Joins current samples with the previous run and applies the
/// regression threshold (`max_regress` is relative, e.g. `0.20`).
pub fn compare(
    mut current: Vec<TrendEntry>,
    previous: &[TrendEntry],
    max_regress: f64,
) -> TrendReport {
    current.sort_by(|a, b| a.experiment.cmp(&b.experiment));
    let deltas: Vec<TrendDelta> = current
        .into_iter()
        .map(|cur| {
            let prev = previous.iter().find(|p| p.experiment == cur.experiment);
            let wall_delta = prev.filter(|p| p.wall_clock_ns > 0).map(|p| {
                (cur.wall_clock_ns as f64 - p.wall_clock_ns as f64) / p.wall_clock_ns as f64
            });
            let rel = |p: Option<f64>, c: Option<f64>| match (p, c) {
                (Some(p), Some(c)) if p > 0.0 => Some((c - p) / p),
                _ => None,
            };
            let coverage_delta = rel(prev.and_then(|p| p.coverage), cur.coverage);
            let peak_delta = rel(
                prev.and_then(|p| p.peak_dies_per_sec),
                cur.peak_dies_per_sec,
            );
            let p99_delta = rel(
                prev.and_then(|p| p.p99_window_latency_us),
                cur.p99_window_latency_us,
            );
            // Direction per figure: wall-clock and p99 latency regress
            // upward, coverage and peak throughput regress downward.
            let regressed = wall_delta.is_some_and(|x| x > max_regress)
                || coverage_delta.is_some_and(|x| -x > max_regress)
                || peak_delta.is_some_and(|x| -x > max_regress)
                || p99_delta.is_some_and(|x| x > max_regress);
            TrendDelta {
                current: cur,
                previous: prev.cloned(),
                wall_delta,
                coverage_delta,
                peak_delta,
                p99_delta,
                regressed,
            }
        })
        .collect();
    let regressed = deltas.iter().any(|d| d.regressed);
    TrendReport { deltas, regressed }
}

/// Collects the trend blocks of every `BENCH_*.json` under `dir`
/// (excluding `BENCH_trend.json` itself). Files without a trend block
/// are skipped and reported back by name.
pub fn collect(dir: &Path) -> std::io::Result<(Vec<TrendEntry>, Vec<PathBuf>)> {
    let mut entries = Vec::new();
    let mut skipped = Vec::new();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                && p.file_name().and_then(|n| n.to_str()) != Some("BENCH_trend.json")
        })
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        match extract_trend(&text) {
            Some(e) => entries.push(e),
            None => skipped.push(path),
        }
    }
    Ok((entries, skipped))
}

/// The full `bench trend` operation: collect, diff against
/// `<dir>/BENCH_trend.json`, rewrite it, and return the report plus the
/// files that carried no trend block.
pub fn run(dir: &Path, max_regress: f64) -> std::io::Result<(TrendReport, Vec<PathBuf>)> {
    let (entries, skipped) = collect(dir)?;
    let trend_path = dir.join("BENCH_trend.json");
    let previous = match std::fs::read_to_string(&trend_path) {
        Ok(text) => parse_previous(&text),
        Err(_) => Vec::new(),
    };
    let report = compare(entries, &previous, max_regress);
    std::fs::write(&trend_path, report.to_json())?;
    Ok((report, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, wall: u64, cov: Option<f64>) -> TrendEntry {
        TrendEntry {
            experiment: name.to_owned(),
            wall_clock_ns: wall,
            coverage: cov,
            peak_dies_per_sec: None,
            p99_window_latency_us: None,
        }
    }

    fn serve_entry(wall: u64, peak: f64, p99: f64) -> TrendEntry {
        TrendEntry {
            peak_dies_per_sec: Some(peak),
            p99_window_latency_us: Some(p99),
            ..entry("serve", wall, Some(0.8))
        }
    }

    #[test]
    fn synthetic_25_percent_slowdown_regresses() {
        let prev = [entry("metrics", 1_000_000, Some(0.99))];
        let cur = vec![entry("metrics", 1_250_000, Some(0.99))];
        let report = compare(cur, &prev, 0.20);
        assert!(report.regressed);
        assert_eq!(report.deltas[0].wall_delta, Some(0.25));
        assert!(report.markdown().contains("REGRESSED"));
    }

    #[test]
    fn stable_run_passes() {
        let prev = [
            entry("metrics", 1_000_000, Some(0.99)),
            entry("repair", 2_000_000, Some(0.95)),
        ];
        let cur = vec![
            entry("metrics", 1_100_000, Some(0.99)), // +10%: under threshold
            entry("repair", 1_900_000, Some(0.96)),
        ];
        let report = compare(cur, &prev, 0.20);
        assert!(!report.regressed);
        assert!(report.markdown().contains("| ok |") || report.markdown().contains(" ok "));
    }

    #[test]
    fn coverage_drop_regresses_even_when_faster() {
        let prev = [entry("metrics", 1_000_000, Some(0.90))];
        let cur = vec![entry("metrics", 500_000, Some(0.60))]; // -33% coverage
        let report = compare(cur, &prev, 0.20);
        assert!(report.regressed);
    }

    #[test]
    fn first_run_has_no_previous_and_passes() {
        let report = compare(vec![entry("metrics", 42, Some(1.0))], &[], 0.20);
        assert!(!report.regressed);
        assert!(report.deltas[0].previous.is_none());
        assert!(report.markdown().contains("new"));
    }

    #[test]
    fn trend_json_roundtrips_as_next_previous() {
        let report = compare(
            vec![entry("metrics", 123, Some(0.5)), entry("repair", 456, None)],
            &[],
            0.20,
        );
        let text = report.to_json();
        let back = parse_previous(&text);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], entry("metrics", 123, Some(0.5)));
        assert_eq!(back[1], entry("repair", 456, None));
    }

    #[test]
    fn peak_throughput_drop_regresses_and_latency_growth_regresses() {
        let prev = [serve_entry(1_000_000, 4000.0, 800.0)];
        // Peak throughput fell 50%: regressed even with flat wall-clock.
        let report = compare(vec![serve_entry(1_000_000, 2000.0, 800.0)], &prev, 0.20);
        assert!(report.regressed);
        assert_eq!(report.deltas[0].peak_delta, Some(-0.5));
        // p99 tail doubled: regressed.
        let report = compare(vec![serve_entry(1_000_000, 4000.0, 1600.0)], &prev, 0.20);
        assert!(report.regressed);
        assert_eq!(report.deltas[0].p99_delta, Some(1.0));
        // Both figures improving never regresses.
        let report = compare(vec![serve_entry(900_000, 5000.0, 600.0)], &prev, 0.20);
        assert!(!report.regressed);
    }

    #[test]
    fn telemetry_figures_roundtrip_through_trend_json() {
        let report = compare(vec![serve_entry(123, 4096.0, 750.5)], &[], 0.20);
        let text = report.to_json();
        assert!(text.contains("\"peak_dies_per_sec\":4096.000000"));
        assert!(text.contains("\"p99_window_latency_us\":750.500000"));
        let back = parse_previous(&text);
        assert_eq!(back, vec![serve_entry(123, 4096.0, 750.5)]);
        // Entries without the figures stay null and parse back as None.
        let report = compare(vec![entry("metrics", 1, Some(0.9))], &[], 0.20);
        assert!(report.to_json().contains("\"peak_dies_per_sec\":null"));
        assert_eq!(
            parse_previous(&report.to_json()),
            vec![entry("metrics", 1, Some(0.9))]
        );
    }

    #[test]
    fn extract_trend_reads_bench_file() {
        let text = r#"{"trend":{"experiment":"repair","wall_clock_ns":777,"coverage":0.84},
                       "payload":{"rows":[1,2,3]}}"#;
        assert_eq!(extract_trend(text), Some(entry("repair", 777, Some(0.84))));
        assert_eq!(extract_trend(r#"{"no_trend":1}"#), None);
    }

    #[test]
    fn end_to_end_over_directory() {
        let dir = std::env::temp_dir().join(format!("aidft_trend_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let write = |wall: u64| {
            std::fs::write(
                dir.join("BENCH_metrics.json"),
                format!(
                    "{{\"trend\":{{\"experiment\":\"metrics\",\"wall_clock_ns\":{wall},\
                     \"coverage\":0.99}}}}"
                ),
            )
            .unwrap();
        };
        write(1_000_000);
        let (first, skipped) = run(&dir, 0.20).unwrap();
        assert!(!first.regressed, "first run has no baseline");
        assert!(skipped.is_empty());
        write(1_250_000); // 25% slower than the recorded baseline
        let (second, _) = run(&dir, 0.20).unwrap();
        assert!(second.regressed);
        write(1_250_000); // identical to new baseline
        let (third, _) = run(&dir, 0.20).unwrap();
        assert!(!third.regressed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
