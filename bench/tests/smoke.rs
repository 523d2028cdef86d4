//! Every workload at smoke scale, untraced and traced: the run passes its
//! correctness gates and its last line carries exactly the metrics that
//! `BENCHMARK.json` names for that kind of run, each finite and with the
//! declared unit, so a metric cannot silently disappear.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn parse(text: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("bad JSON ({e}): {text}"))
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// `BENCHMARK.json`'s `(name, unit)` list under `key`.
fn declared(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let bench = parse(
        &std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root"),
    );
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert!(
        names.contains(&workload),
        "{workload} is not in BENCHMARK.json"
    );
    let expected = declared(&bench, if trace { "per_layer" } else { "end_to_end" });

    let out: PathBuf = manifest_dir()
        .join("target")
        .join("smoke-results")
        .join(format!("{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_critic-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let result = parse(stdout.lines().last().expect("a result line"));
    assert!(
        matches!(result.get("correct"), Some(Value::Bool(true))),
        "{stdout}"
    );
    let count = |key: &str| {
        result
            .get(key)
            .and_then(number)
            .expect("an operation count")
    };
    assert!(
        count("attempted") >= 1.0 && count("failed") == 0.0,
        "{stdout}"
    );

    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("a metrics object");
    let printed: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(printed, wanted, "{workload} trace={trace}: metric names");
    for ((name, metric), (_, unit)) in metrics.iter().zip(&expected) {
        let value = metric.get("value").and_then(number);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload} trace={trace}: {name} = {value:?}"
        );
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload} trace={trace}: unit of {name}"
        );
        // Each metric is also printed by name on its own line.
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().next() == Some(name)),
            "{name} not printed"
        );
    }
    if trace {
        let spans = manifest_dir()
            .join("target")
            .join(format!("trace-{workload}-1.json"));
        assert!(spans.is_file(), "no span file at {}", spans.display());
    }
}

#[test]
fn grid_cold() {
    smoke("grid-cold", false);
}

#[test]
fn grid_cold_traced() {
    smoke("grid-cold", true);
}

#[test]
fn stream_long() {
    smoke("stream-long", false);
}

#[test]
fn stream_long_traced() {
    smoke("stream-long", true);
}

#[test]
fn durable_short() {
    smoke("durable-short", false);
}

#[test]
fn durable_short_traced() {
    smoke("durable-short", true);
}

#[test]
fn service_open() {
    smoke("service-open", false);
}

#[test]
fn service_open_traced() {
    smoke("service-open", true);
}
