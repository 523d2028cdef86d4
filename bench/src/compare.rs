//! `compare A_DIR B_DIR`: two sets of run results (A the parent, B the
//! change), judged per (end-to-end metric, workload) against the bounds in
//! `BENCHMARK.json`, plus an exact comparison of the modelled-hardware
//! counts of traced runs.
//!
//! Verdicts: *worse* when B's median is
//! worse than A's by more than the bound; *better* when B wins at least nine
//! tenths of the seed-paired runs and the medians differ by more than A's
//! inter-quartile range; *unresolved* when either side's spread is wider
//! than the bound (unless every B run beats every A run); otherwise *within
//! bound*.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use serde::Value;

use crate::stats::{median, quartiles, relative_iqr};
use crate::Usage;

/// One run result file.
struct RunResult {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: BTreeMap<String, f64>,
}

/// One end-to-end metric of `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn parse_file(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every `*.json` run result in `dir`.
fn load(dir: &Path) -> Result<Vec<RunResult>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let v = parse_file(&path)?;
        let field = |name: &str| {
            v.get(name)
                .ok_or(format!("{}: no `{name}`", path.display()))
        };
        let mut metrics = BTreeMap::new();
        for triple in field("metrics")?.as_array().unwrap_or_default() {
            if let Some([name, value, _unit]) = triple.as_array() {
                if let (Some(name), Some(value)) = (name.as_str(), num(value)) {
                    metrics.insert(name.to_string(), value);
                }
            }
        }
        out.push(RunResult {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: num(field("seed")?).unwrap_or_default() as u64,
            trace: matches!(field("trace")?, Value::Bool(true)),
            metrics,
        });
    }
    Ok(out)
}

/// The end-to-end metrics and their bounds.
fn bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let v = parse_file(path)?;
    let metrics = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or(format!("{}: no end_to_end list", path.display()))?;
    Ok(metrics
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: num(m.get("bound")?)?,
            })
        })
        .collect())
}

/// The verdict for one (metric, workload): A and B values keyed by seed.
fn verdict(b: &Bound, a: &BTreeMap<u64, f64>, bv: &BTreeMap<u64, f64>) -> (String, &'static str) {
    let av: Vec<f64> = a.values().copied().collect();
    let bw: Vec<f64> = bv.values().copied().collect();
    let (qa, qb) = (quartiles(&av), quartiles(&bw));
    let (ma, mb) = (median(&av), median(&bw));
    let better = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|(seed, &x)| bv.get(seed).map(|&y| (x, y)))
        .collect();
    let wins = pairs.iter().filter(|(x, y)| better(*y, *x)).count();
    let worse_by =
        if b.lower_is_better { mb - ma } else { ma - mb } / ma.abs().max(f64::MIN_POSITIVE);
    let all_better = bw.iter().all(|&y| av.iter().all(|&x| better(y, x)));
    let verdict = if worse_by > b.bound {
        "worse"
    } else if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better(mb, ma)
        && (mb - ma).abs() > qa[2] - qa[0]
    {
        "better"
    } else if (relative_iqr(&av) > b.bound || relative_iqr(&bw) > b.bound) && !all_better {
        "unresolved"
    } else {
        "within bound"
    };
    let line = format!(
        "{:>10.3} [{:>10.3}, {:>10.3}]  {:>10.3} [{:>10.3}, {:>10.3}]  {:>+7.2}%  {:>2}/{:<2}",
        ma,
        qa[0],
        qa[2],
        mb,
        qb[0],
        qb[2],
        -worse_by * 100.0,
        wins,
        pairs.len()
    );
    (line, verdict)
}

/// Whether a per-layer metric is an exact modelled-hardware count.
fn is_model_count(name: &str) -> bool {
    ["model.", "mem.", "bpu."]
        .iter()
        .any(|p| name.starts_with(p))
}

/// `compare A_DIR B_DIR`.
pub fn compare_command(args: &[String]) -> Result<ExitCode, Usage> {
    let [a_dir, b_dir] = args else {
        return Err(Usage("compare takes two result directories".into()));
    };
    let bench_json = crate::bench_dir().join("..").join("BENCHMARK.json");
    let (a, b, bounds) = match (
        load(Path::new(a_dir)),
        load(Path::new(b_dir)),
        bounds(&bench_json),
    ) {
        (Ok(a), Ok(b), Ok(bounds)) => (a, b, bounds),
        (a, b, c) => {
            for e in [a.err(), b.err(), c.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return Ok(ExitCode::FAILURE);
        }
    };
    let by =
        |runs: &[RunResult], trace: bool, workload: &str, metric: &str| -> BTreeMap<u64, f64> {
            runs.iter()
                .filter(|r| r.trace == trace && r.workload == workload)
                .filter_map(|r| r.metrics.get(metric).map(|&v| (r.seed, v)))
                .collect()
        };
    let workloads: Vec<&str> = crate::inputs::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    let mut regressions = 0;
    println!(
        "{:14} {:18} {:>10} {:24}  {:>10} {:24}  {:>8}  {:5}  verdict",
        "workload", "metric", "A median", "[q1, q3]", "B median", "[q1, q3]", "B gain", "wins"
    );
    for workload in &workloads {
        for bound in &bounds {
            let (av, bv) = (
                by(&a, false, workload, &bound.name),
                by(&b, false, workload, &bound.name),
            );
            if av.is_empty() || bv.is_empty() {
                continue;
            }
            let (line, verdict) = verdict(bound, &av, &bv);
            regressions += usize::from(verdict == "worse");
            println!(
                "{workload:14} {:18} {line}  {verdict} (bound {:.0}%)",
                bound.name,
                bound.bound * 100.0
            );
        }
    }

    // Modelled-hardware counts must repeat exactly, seed for seed.
    let mut checked = 0;
    let mut differ = 0;
    for ra in a.iter().filter(|r| r.trace) {
        let Some(rb) = b
            .iter()
            .find(|r| r.trace && r.workload == ra.workload && r.seed == ra.seed)
        else {
            continue;
        };
        for (name, va) in ra.metrics.iter().filter(|(n, _)| is_model_count(n)) {
            checked += 1;
            if rb.metrics.get(name) != Some(va) {
                differ += 1;
                println!(
                    "model count differs: {} seed {} {name}: {va} vs {:?}",
                    ra.workload,
                    ra.seed,
                    rb.metrics.get(name)
                );
            }
        }
    }
    println!("model counts: {checked} compared, {differ} differ");
    Ok(if regressions == 0 && differ == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
