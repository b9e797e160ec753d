//! Runs every workload in smoke mode, untraced and traced, and checks
//! that the last line of output is the result object with every metric
//! `BENCHMARK.json` declares for that mode, each with its unit.

use std::process::Command;

const WORKLOADS: &[&str] = &["flow_sys4x4", "lbist_sys4x4", "serve_fleet"];

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`,
/// which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is closed")];
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5..];
        rest[..rest.find('"').expect("closing quote")].to_owned()
    };
    body.lines()
        .filter(|l| l.contains("\"unit\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("some output").to_owned()
}

fn assert_metrics(workload: &str, trace: u8, section: &str) {
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": ")
            && line.contains("\"failed\": 0, \"metrics\": {"),
        "{workload}: {line}"
    );
    for (name, unit) in &metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{workload} --trace {trace}: {name} missing"));
        let rest = &line[at + key.len()..];
        let (value, rest) = rest
            .split_once(", ")
            .expect("value is followed by its unit");
        let value: f64 = value.parse().expect("value is a number");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{workload}: {name} has the wrong unit: {rest}"
        );
    }
    assert_eq!(
        line.matches("\"unit\": ").count(),
        metrics.len(),
        "{workload} --trace {trace} prints metrics BENCHMARK.json does not declare"
    );
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for w in WORKLOADS {
        assert_metrics(w, 0, "end_to_end");
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    for w in WORKLOADS {
        assert_metrics(w, 1, "per_layer");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
