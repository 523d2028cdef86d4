//! The repository benchmark: one workload per process.
//!
//! ```text
//! critic-benchmark run --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! critic-benchmark compare A_DIR B_DIR
//! ```
//!
//! `run` prints every metric with its unit, the operations attempted and
//! failed, and as its last line one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`); it also writes the full report to
//! `bench/target/results/` (or `--out`). Untraced runs report the
//! end-to-end metrics; `--trace 1` repeats the workload with spans, walks
//! its cells through every layer and reports the per-layer metrics, writing
//! the spans to `bench/target/trace-<workload>-<seed>.json`. Any correctness
//! violation exits 1; a usage error exits 2.
//!
//! The benchmark drives the system only through its public library APIs
//! and never through the in-repo perf harness or load generator, which are
//! code under test.

mod campaigns;
mod client;
mod compare;
mod host;
mod inputs;
mod metrics;
mod run;
mod service;
mod spans;
mod stats;
mod walk;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use inputs::{Scale, Workload};
use metrics::Report;
use run::{Ctx, Measured};
use spans::SpanLog;

const USAGE: &str = "usage:
  critic-benchmark run --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  critic-benchmark compare A_DIR B_DIR
workloads: grid-cold stream-long durable-short service-open";

/// The timed phase's default length, matching `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// This package's directory; scratch files, spans and results live under
/// its `target/`.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare::compare_command(&args[1..]),
        _ => Err(Usage(String::new())),
    };
    match result {
        Ok(code) => code,
        Err(Usage(msg)) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// A command-line error.
struct Usage(String);

/// Parsed `run` arguments.
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, Usage> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut out = bench_dir().join("target").join("results");
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| Usage(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::parse(&name)
                        .ok_or_else(|| Usage(format!("unknown workload `{name}`")))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| Usage("--seed takes an unsigned integer".into()))?,
                )
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| Usage("--seconds takes a positive number".into()))?
            }
            "--trace" => {
                // `--trace` alone means traced; `--trace 0|1` is explicit.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value("--out")?),
            other => return Err(Usage(format!("unknown flag `{other}`"))),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or_else(|| Usage("--workload is required".into()))?,
        seed: seed.ok_or_else(|| Usage("--seed is required".into()))?,
        seconds,
        trace,
        smoke,
        out,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_command(args: &[String]) -> Result<ExitCode, Usage> {
    let args = parse_run(args)?;
    let name = args.workload.name();
    let target = bench_dir().join("target");
    let scratch = Scratch(target.join("scratch").join(format!(
        "{name}-{}-{}",
        args.seed,
        std::process::id()
    )));
    if let Err(e) =
        std::fs::create_dir_all(&scratch.0).and_then(|()| std::fs::create_dir_all(&args.out))
    {
        eprintln!("error: cannot create {}: {e}", scratch.0.display());
        return Ok(ExitCode::FAILURE);
    }
    let log = args.trace.then(SpanLog::new);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scale: if args.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        },
        scratch: scratch.0.clone(),
        spans: log.as_ref(),
    };
    let measured = measure(args.workload, &ctx);
    let mut m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {name} seed {}: {e}", args.seed);
            return Ok(ExitCode::FAILURE);
        }
    };

    let mut report = Report {
        workload: name.to_string(),
        seed: args.seed,
        trace: args.trace,
        correct: false,
        attempted: m.attempted,
        failed: m.failed,
        metrics: Vec::new(),
        details: Default::default(),
        layers: log.as_ref().map(SpanLog::layers).unwrap_or_default(),
        violations: std::mem::take(&mut m.violations),
    };
    let before = report.violations.len();
    report.select(&m.values);
    if let Some(log) = &log {
        let path = target.join(format!("trace-{name}-{}.json", args.seed));
        if let Err(e) = log.write(&path) {
            report.violations.push(format!("cannot write spans: {e}"));
        }
    }
    report.failed += (report.violations.len() - before) as u64;
    report.attempted = report.attempted.max(1);
    report.correct = report.violations.is_empty() && report.failed == 0;

    let kind = if args.trace { "trace" } else { "plain" };
    let path = args.out.join(format!("{name}-s{}-{kind}.json", args.seed));
    if let Err(e) = report.write(&path) {
        eprintln!("error: {e}");
        return Ok(ExitCode::FAILURE);
    }
    print!("{}", report.render());
    println!("{}", report.summary_line());
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload and, when traced, its layer walk.
fn measure(workload: Workload, ctx: &Ctx) -> Result<Measured, String> {
    let mut m = match workload {
        Workload::GridCold => campaigns::grid_cold(ctx),
        Workload::StreamLong => campaigns::stream_long(ctx),
        Workload::DurableShort => campaigns::durable_short(ctx),
        Workload::ServiceOpen => service::service_open(ctx),
    }?;
    if let Some(log) = ctx.spans {
        let plan = std::mem::take(&mut m.walk);
        walk::walk(ctx, &plan, log, &mut m)?;
    }
    Ok(m)
}
