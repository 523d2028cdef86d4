//! `critic` — the end-to-end driver of the paper's Fig. 7 framework:
//! generate (or pick) a workload, profile it, compile it, and report.
//!
//! ```text
//! critic list                          # Table II workloads
//! critic profile <app> [-o FILE]      # run the offline profiler
//! critic compile <app> [--scheme S]   # apply a pass and diff the binary
//! critic run <app> [--scheme S] [--validate]   # simulate baseline vs scheme
//! critic validate <app> [--scheme S] [--seed N] # differential oracle only
//! critic disasm <app> [function]      # dump the generated binary
//! critic campaign [--validate] [--stats] [options]  # fault-tolerant app x scheme grid
//! critic bench [--json] [--smoke] [-o FILE] [--min-warm-speedup X] [--min-cold-speedup X]
//!              [--stream-window N] [--max-stream-peak-bytes N]
//! critic bench --service [--smoke] [--json] [-o FILE] [--max-service-p99-ms X]
//! critic stats --journal FILE [--json] # telemetry roll-up of a campaign journal
//! critic chaos --seed S [--cells N] [--smoke] [--minimize] [-o FILE]
//! critic drill --points N [--seed S] [--smoke] [--minimize] [-o FILE]
//! critic serve [--port N] [--workers N] [--queue N] [--rate N] [--shard N] [--peers A,B] [options]
//! critic router --journal-dir DIR --store-dir DIR [--shards N] [options]
//! critic loadgen --addr HOST:PORT [--addr HOST:PORT]... [--clients N] [--requests N] [--rate X] [--retries N]
//! critic soak [--seconds N] [--clients N] [--sys SPEC]... [--shards N] [--smoke] [-o FILE]
//! ```
//!
//! Schemes: critic (default), hoist, ideal, branch-switch, opp16, compress,
//! opp16+critic.
//!
//! Exit codes (single source of truth, mirrored in README/DESIGN):
//!
//! | code | meaning |
//! |-----:|---------|
//! | 0 | success |
//! | 1 | run error |
//! | 2 | usage error |
//! | 3 | unknown app or function |
//! | 4 | unknown scheme |
//! | 5 | I/O error |
//! | 6 | campaign finished with failed cells |
//! | 7 | translation validation failed (divergence survived demotion) |
//! | 8 | bench regression (warm-store speedup below the floor) |
//! | 9 | campaign interrupted by graceful shutdown (shed cells; resume to finish) — also `critic serve` / `critic router` after a graceful drain |
//! | 10 | chaos invariant violation (schedule JSON printed) |
//! | 11 | recovery-drill invariant violation (durable-warm / no-lost-ack; repro JSON printed) |
//! | 12 | service-soak invariant violation (no-lost-ack / bounded-queue / overload-sheds / graceful-drain; report JSON printed) |
//! | 13 | sharded-soak invariant violation (no-lost-ack across shards / peer-rebuild / no-resimulation / bit-identical; report JSON printed) |

use std::fmt;
use std::time::Duration;

use critic_bench::audit::Violation;
use critic_bench::chaos::{self, ChaosConfig};
use critic_bench::drill::{self, DrillConfig};
use critic_bench::loadgen::{self, LoadgenConfig};
use critic_bench::perf::{self, BenchError, BenchSetup, ServiceBenchSetup};
use critic_bench::router;
use critic_bench::serve;
use critic_bench::soak::{self, ShardedSoakConfig, SoakConfig};
use std::sync::Arc;

use critic_core::campaign::{self, CampaignSpec, CellStatus, PlannedFault, Scheme};
use critic_core::design::DesignPoint;
use critic_core::journal::Journal;
use critic_core::runner::Workbench;
use critic_core::store::StoreStats;
use critic_core::RunError;
use critic_obs::Telemetry;
use critic_profiler::{save_profile, ProfilerConfig};
use critic_workloads::suite::Suite;
use critic_workloads::{AppSpec, Fault, SysFaultSpec, SysInjector};

const TRACE_LEN: usize = 120_000;

const SCHEME_NAMES: [&str; 7] = [
    "critic",
    "hoist",
    "ideal",
    "branch-switch",
    "opp16",
    "compress",
    "opp16+critic",
];

enum CliError {
    Usage(String),
    UnknownApp(String),
    UnknownFunction {
        app: String,
        function: String,
        available: Vec<String>,
    },
    UnknownScheme(String),
    Io(String),
    Run(RunError),
    CampaignFailed {
        failed: usize,
        total: usize,
    },
    CampaignValidationFailed {
        failed: usize,
        total: usize,
    },
    BenchFailed(String),
    BenchRegression {
        what: &'static str,
        speedup: f64,
        floor: f64,
    },
    StreamMemoryRegression {
        peak: u64,
        ceiling: u64,
    },
    CampaignInterrupted {
        shed: usize,
        total: usize,
    },
    ChaosViolation {
        violations: usize,
    },
    DrillViolation {
        violations: usize,
    },
    ServeDrained {
        connections: u64,
        responded: u64,
    },
    RouterDrained {
        connections: u64,
        forwarded: u64,
        restarts: u64,
    },
    ServiceRegression {
        p99_ms: f64,
        ceiling_ms: f64,
    },
    SoakViolation {
        violations: usize,
    },
    ShardedSoakViolation {
        violations: usize,
    },
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::UnknownApp(_) | CliError::UnknownFunction { .. } => 3,
            CliError::UnknownScheme(_) => 4,
            CliError::Io(_) => 5,
            // A validation failure gets its own exit code so scripted
            // miscompile hunts can tell "oracle caught a divergence" (7)
            // apart from ordinary pipeline failures (1).
            CliError::Run(RunError::Validation(_)) => 7,
            CliError::Run(_) | CliError::BenchFailed(_) => 1,
            CliError::CampaignFailed { .. } => 6,
            CliError::CampaignValidationFailed { .. } => 7,
            // Its own code so CI can tell "the store got slower" apart
            // from a pipeline failure.
            CliError::BenchRegression { .. } => 8,
            // A streaming run that outgrew its memory ceiling is the same
            // class of failure: the bench got worse, not wrong.
            CliError::StreamMemoryRegression { .. } => 8,
            // A graceful shutdown is not a failure: the journal is intact
            // and --resume finishes the grid. Scripts need to tell it
            // apart from both success and failed cells.
            CliError::CampaignInterrupted { .. } => 9,
            // A chaos invariant violation means the *runner* broke under
            // faults — the highest-severity signal this binary can emit.
            CliError::ChaosViolation { .. } => 10,
            // A recovery-drill violation means the durability contract
            // broke: a crash lost an acknowledged cell or the persistent
            // store failed to serve a restarted campaign bit-identically.
            CliError::DrillViolation { .. } => 11,
            // A drained server exits through the same code as an
            // interrupted campaign: "shut down gracefully, state intact".
            CliError::ServeDrained { .. } => 9,
            // The router drains its whole fleet before exiting; same
            // "graceful, state intact" contract as a single server.
            CliError::RouterDrained { .. } => 9,
            // Service latency regressions share the bench-regression code.
            CliError::ServiceRegression { .. } => 8,
            // A soak violation means the *service* broke under load or
            // kill — the service-layer counterpart of chaos's code 10.
            CliError::SoakViolation { .. } => 12,
            // The sharded soak gets its own code so CI can tell "one
            // server broke" (12) apart from "the fleet broke" (13).
            CliError::ShardedSoakViolation { .. } => 13,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::UnknownApp(name) => {
                let valid: Vec<String> = Suite::ALL
                    .iter()
                    .flat_map(|s| s.apps())
                    .map(|a| a.name)
                    .collect();
                write!(f, "unknown app `{name}`; valid apps: {}", valid.join(", "))
            }
            CliError::UnknownFunction {
                app,
                function,
                available,
            } => {
                write!(
                    f,
                    "no function `{function}` in {app}; functions include: {}",
                    available.join(", ")
                )
            }
            CliError::UnknownScheme(name) => {
                write!(
                    f,
                    "unknown scheme `{name}`; valid schemes: {}",
                    SCHEME_NAMES.join(", ")
                )
            }
            CliError::Io(msg) => write!(f, "{msg}"),
            CliError::Run(e) => write!(f, "{e}"),
            CliError::CampaignFailed { failed, total } => {
                write!(f, "campaign finished with {failed}/{total} failed cells")
            }
            CliError::CampaignValidationFailed { failed, total } => {
                write!(
                    f,
                    "campaign finished with {failed}/{total} cells failing translation validation"
                )
            }
            CliError::BenchFailed(msg) => write!(f, "{msg}"),
            CliError::BenchRegression {
                what,
                speedup,
                floor,
            } => {
                write!(
                    f,
                    "{what} speedup {speedup:.2}x is below the {floor:.2}x floor"
                )
            }
            CliError::StreamMemoryRegression { peak, ceiling } => {
                write!(
                    f,
                    "streaming peak memory {peak} B is above the {ceiling} B ceiling"
                )
            }
            CliError::CampaignInterrupted { shed, total } => {
                write!(
                    f,
                    "campaign interrupted by graceful shutdown ({shed}/{total} cells shed; \
                     --resume finishes them)"
                )
            }
            CliError::ChaosViolation { violations } => {
                write!(
                    f,
                    "chaos run broke {violations} invariant(s); schedule JSON printed above"
                )
            }
            CliError::DrillViolation { violations } => {
                write!(
                    f,
                    "recovery drill broke {violations} invariant(s); repro JSON printed above"
                )
            }
            CliError::ServeDrained {
                connections,
                responded,
            } => {
                write!(
                    f,
                    "server drained gracefully ({connections} connection(s), \
                     {responded} response(s) delivered)"
                )
            }
            CliError::RouterDrained {
                connections,
                forwarded,
                restarts,
            } => {
                write!(
                    f,
                    "router drained its fleet gracefully ({connections} connection(s), \
                     {forwarded} submission(s) forwarded, {restarts} shard restart(s))"
                )
            }
            CliError::ServiceRegression { p99_ms, ceiling_ms } => {
                write!(
                    f,
                    "service p99 latency {p99_ms:.1} ms is above the {ceiling_ms:.1} ms ceiling"
                )
            }
            CliError::SoakViolation { violations } => {
                write!(
                    f,
                    "service soak broke {violations} invariant(s); report JSON printed above"
                )
            }
            CliError::ShardedSoakViolation { violations } => {
                write!(
                    f,
                    "sharded soak broke {violations} invariant(s); report JSON printed above"
                )
            }
        }
    }
}

impl From<RunError> for CliError {
    fn from(e: RunError) -> Self {
        CliError::Run(e)
    }
}

fn find_app(name: &str) -> Result<AppSpec, CliError> {
    Suite::ALL
        .iter()
        .flat_map(|s| s.apps())
        .find(|a| a.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| CliError::UnknownApp(name.to_string()))
}

fn scheme_point(scheme: &str) -> Result<DesignPoint, CliError> {
    // One naming authority: the same resolver the service's submission
    // path uses, so the CLI and the wire protocol can never disagree.
    DesignPoint::named(scheme).ok_or_else(|| CliError::UnknownScheme(scheme.to_string()))
}

fn arg_after(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn usage() -> CliError {
    CliError::Usage(
        "usage: critic <list|profile|compile|run|validate|disasm|campaign|bench|stats|chaos|\
         drill|serve|router|loadgen|soak> [app] [options]"
            .to_string(),
    )
}

/// Installs the `SIGTERM` handler behind `critic serve`'s graceful drain:
/// the handler only flips [`critic_bench::serve::TERM`], which the accept
/// loop polls — all the drain work happens on ordinary threads.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::Ordering;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        // The only async-signal-unsafe-free thing a handler may do: one
        // atomic store.
        critic_bench::serve::TERM.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term as extern "C" fn(i32) as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod sigterm {
    pub fn install() {}
}

/// Maps harness-level failures onto the CLI's exit-code taxonomy.
fn bench_error(e: BenchError) -> CliError {
    match e {
        BenchError::Run(e) => CliError::Run(e),
        BenchError::FailedCells(summary) => CliError::BenchFailed(summary),
        BenchError::LedgerViolation(msg) => CliError::BenchFailed(msg),
        BenchError::Divergence(msg) => CliError::BenchFailed(msg),
        BenchError::Io(msg) => CliError::Io(msg),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run_cli(&args) {
        eprintln!("critic: {e}");
        std::process::exit(e.exit_code());
    }
}

fn run_cli(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    match command.as_str() {
        "list" => {
            for suite in Suite::ALL {
                for app in suite.apps() {
                    println!("{:12} {:10} {}", app.name, suite.label(), app.domain);
                }
            }
            Ok(())
        }
        "profile" => {
            let app = find_app(args.get(1).ok_or_else(usage)?)?;
            let mut bench = Workbench::try_new(&app, TRACE_LEN)?;
            let profile = bench.try_profile(&ProfilerConfig::default())?.clone();
            println!(
                "{}: {} chains selected, {:.1}% dynamic coverage, {:.1}% convertible",
                app.name,
                profile.chains.len(),
                profile.dynamic_coverage * 100.0,
                profile.stats.convertible_frac * 100.0
            );
            if let Some(path) = arg_after(args, "-o") {
                save_profile(&profile, std::path::Path::new(&path))
                    .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
                println!("wrote {path}");
            }
            Ok(())
        }
        "compile" | "run" => {
            let app = find_app(args.get(1).ok_or_else(usage)?)?;
            let scheme = arg_after(args, "--scheme").unwrap_or_else(|| "critic".into());
            let point = scheme_point(&scheme)?;
            let mut bench = Workbench::try_new(&app, TRACE_LEN)?;
            let base = bench.try_run(&DesignPoint::baseline())?;
            let (run, validation) = if args.iter().any(|a| a == "--validate") {
                let (run, stats) = bench.try_run_validated(&point, app.path_seed())?;
                (run, Some(stats))
            } else {
                (bench.try_run(&point)?, None)
            };
            println!(
                "{} [{}]: applied {} chains, {} insns to 16-bit, {} skipped (legality)",
                app.name,
                point.label(),
                run.pass.chains_applied,
                run.pass.insns_converted,
                run.pass.chains_skipped_legality
            );
            if command == "run" {
                println!(
                    "cycles {} -> {} ({:+.2}%), IPC {:.2} -> {:.2}, 16-bit dyn {:.1}%",
                    base.sim.cycles,
                    run.sim.cycles,
                    (run.sim.speedup_over(&base.sim) - 1.0) * 100.0,
                    base.sim.ipc(),
                    run.sim.ipc(),
                    run.thumb_dyn_frac * 100.0
                );
                println!(
                    "energy: CPU {:+.2}%, system {:+.2}%",
                    run.energy.cpu_saving(&base.energy) * 100.0,
                    run.energy.system_saving(&base.energy) * 100.0
                );
            }
            if let Some(stats) = validation {
                println!(
                    "validation: {} chains checked, {} demoted",
                    stats.chains_checked, stats.chains_demoted
                );
            }
            Ok(())
        }
        "validate" => {
            let app = find_app(args.get(1).ok_or_else(usage)?)?;
            let scheme = arg_after(args, "--scheme").unwrap_or_else(|| "critic".into());
            let point = scheme_point(&scheme)?;
            let seed = match arg_after(args, "--seed") {
                None => app.path_seed(),
                Some(v) => v
                    .parse::<u64>()
                    .map_err(|_| CliError::Usage(format!("--seed expects a number, got `{v}`")))?,
            };
            let mut bench = Workbench::try_new(&app, TRACE_LEN)?;
            // try_run_validated returns Err(RunError::Validation) — exit
            // code 7 via the From impl — when a divergence survives the
            // demotion loop.
            let (run, stats) = bench.try_run_validated(&point, seed)?;
            println!(
                "{} [{}]: VALIDATED — {} chains checked, {} demoted, {} applied (seed {})",
                app.name,
                point.label(),
                stats.chains_checked,
                stats.chains_demoted,
                run.pass.chains_applied,
                seed
            );
            Ok(())
        }
        "disasm" => {
            let app = find_app(args.get(1).ok_or_else(usage)?)?;
            let program = app.generate_program();
            match args.get(2) {
                Some(fname) => {
                    let func = program
                        .functions
                        .iter()
                        .find(|f| f.name == *fname)
                        .ok_or_else(|| CliError::UnknownFunction {
                            app: app.name.clone(),
                            function: fname.clone(),
                            available: program
                                .functions
                                .iter()
                                .take(8)
                                .map(|f| f.name.clone())
                                .collect(),
                        })?;
                    print!("{}", program.disassemble_function(func.id));
                }
                None => print!("{}", program.disassemble()),
            }
            Ok(())
        }
        "campaign" => run_campaign_command(args),
        "bench" => run_bench_command(args),
        "stats" => run_stats_command(args),
        "chaos" => run_chaos_command(args),
        "drill" => run_drill_command(args),
        "serve" => run_serve_command(args),
        "router" => run_router_command(args),
        "loadgen" => run_loadgen_command(args),
        "soak" => run_soak_command(args),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`; {}",
            usage()
        ))),
    }
}

/// Every `--sys NAME[:PARAM]@AT` value on the command line, parsed.
fn sys_specs(args: &[String]) -> Result<Vec<SysFaultSpec>, CliError> {
    let mut specs = Vec::new();
    let mut idx = 0;
    while let Some(pos) = args[idx..].iter().position(|a| a == "--sys") {
        idx += pos + 1;
        let Some(value) = args.get(idx) else {
            return Err(CliError::Usage("--sys expects NAME[:PARAM]@AT".to_string()));
        };
        specs.push(SysFaultSpec::parse(value).ok_or_else(|| {
            CliError::Usage(format!(
                "--sys expects NAME[:PARAM]@AT (e.g. store-read@3, alloc-budget:65536@1, \
                 crash:journal-append@4), got `{value}`"
            ))
        })?);
    }
    Ok(specs)
}

/// Writes `json` to `-o FILE` when one was given.
fn write_output(args: &[String], json: &str) -> Result<(), CliError> {
    if let Some(path) = arg_after(args, "-o") {
        std::fs::write(&path, format!("{json}\n"))
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// The tail every drill command shares: serialises `report`, writes it
/// to `-o FILE` when given, then prints `summary` (the JSON when `None`)
/// if nothing broke, or else the JSON plus one stderr line per entry of
/// `broken` and fails with `failure`.
fn finish_report<R: serde::Serialize>(
    args: &[String],
    name: &str,
    report: &R,
    summary: Option<String>,
    broken: Vec<String>,
    failure: CliError,
) -> Result<(), CliError> {
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| CliError::Io(format!("cannot serialise {name} report: {e}")))?;
    write_output(args, &json)?;
    if broken.is_empty() {
        println!("{}", summary.unwrap_or(json));
        return Ok(());
    }
    println!("{json}");
    for line in broken {
        eprintln!("critic: {line}");
    }
    Err(failure)
}

/// This process's peak resident set size in MiB, read from `VmHWM` in
/// `/proc/self/status`; `None` where that file does not exist (off Linux).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// `critic campaign [--suite S] [--apps N] [--schemes a,b,..]
/// [--trace-len N] [--journal FILE] [--resume] [--validate] [--stats]
/// [--deadline-secs N] [--retries N] [--workers N]
/// [--store-dir DIR] [--store-budget BYTES] [--segment-lines N]
/// [--run-tag N] [--stream-window N]
/// [--inject app:scheme:fault[:seed]]... [--sys NAME[:PARAM]@AT]...
/// [--breaker K] [--degrade] [--backoff-base-ms N] [--backoff-cap-ms N]
/// [--backoff-seed N]`
///
/// `--apps N` truncates the suite to its first `N` apps — small grids for
/// drills, CI steps, and tests.
///
/// `--stats` forces telemetry on for this run (regardless of
/// `CRITIC_TELEMETRY`): per-cell spans are journaled, and the summary ends
/// with the campaign-wide telemetry table and, on Linux, the process's
/// peak resident set (`peak_rss_mib: N`).
///
/// `--store-dir DIR` puts a persistent artifact store under the campaign:
/// profiles and baseline runs spill to checksummed entries in `DIR` and
/// are served from disk on restart; `--store-budget BYTES` caps the
/// directory with LRU eviction. `--segment-lines N` rolls the journal into
/// checkpointed segments every `N` cell records (0, the default, keeps the
/// single-file format). `--run-tag N` stamps every journaled record with a
/// run number so the recovery drill can prove acknowledged cells are never
/// re-simulated.
///
/// `--stream-window N` runs every cell's trace through the chunked
/// streaming pipeline (N instructions per window) instead of materializing
/// it — bit-identical results at O(window) instead of O(trace) memory per
/// worker. Cells with an armed trace fault fall back to the materialized
/// path (the fault corrupts the materialized trace, which a re-expansion
/// would silently undo).
///
/// `--sys` arms deterministic systemic faults (the chaos harness's
/// [`SysFault`](critic_workloads::SysFault) family) on the run;
/// `--breaker`, `--degrade`, and the backoff flags configure the
/// supervision policy that absorbs them.
fn run_campaign_command(args: &[String]) -> Result<(), CliError> {
    let mut apps: Vec<AppSpec> = match arg_after(args, "--suite").as_deref() {
        None | Some("mobile") => Suite::Mobile.apps(),
        Some("spec-int") => Suite::SpecInt.apps(),
        Some("spec-float") => Suite::SpecFloat.apps(),
        Some("all") => Suite::ALL.iter().flat_map(|s| s.apps()).collect(),
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown suite `{other}`; valid suites: mobile, spec-int, spec-float, all"
            )))
        }
    };

    let schemes: Vec<Scheme> = match arg_after(args, "--schemes") {
        None => campaign::default_schemes(),
        Some(list) => {
            let mut schemes = Vec::new();
            for name in list.split(',').filter(|s| !s.is_empty()) {
                schemes.push(Scheme::new(name, scheme_point(name)?));
            }
            schemes
        }
    };

    let parse_num = |flag: &str| -> Result<Option<u64>, CliError> {
        match arg_after(args, flag) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("{flag} expects a number, got `{v}`"))),
        }
    };

    if let Some(n) = parse_num("--apps")? {
        if n == 0 {
            return Err(CliError::Usage("--apps must be at least 1".to_string()));
        }
        apps.truncate(n as usize);
    }

    let mut spec = CampaignSpec::new(
        apps,
        schemes,
        parse_num("--trace-len")?
            .map(|n| n as usize)
            .unwrap_or(TRACE_LEN),
    );
    spec.deadline = parse_num("--deadline-secs")?.map(Duration::from_secs);
    spec.retries = parse_num("--retries")?.map(|n| n as u32).unwrap_or(0);
    spec.workers = parse_num("--workers")?.map(|n| n as usize).unwrap_or(0);
    spec.journal = arg_after(args, "--journal").map(std::path::PathBuf::from);
    spec.resume = args.iter().any(|a| a == "--resume");
    spec.validate = args.iter().any(|a| a == "--validate");
    spec.store_dir = arg_after(args, "--store-dir").map(std::path::PathBuf::from);
    spec.store_budget = parse_num("--store-budget")?;
    spec.segment_max_lines = parse_num("--segment-lines")?
        .map(|n| n as usize)
        .unwrap_or(0);
    spec.run_tag = parse_num("--run-tag")?;
    spec.stream_window = match parse_num("--stream-window")? {
        Some(0) => {
            return Err(CliError::Usage(
                "--stream-window must be at least 1".to_string(),
            ))
        }
        other => other.map(|n| n as usize),
    };
    let show_stats = args.iter().any(|a| a == "--stats");
    if show_stats {
        spec.telemetry = critic_obs::Telemetry::enabled();
    }
    if spec.resume && spec.journal.is_none() {
        return Err(CliError::Usage(
            "--resume requires --journal FILE".to_string(),
        ));
    }
    spec.supervision.breaker_threshold = parse_num("--breaker")?.map(|n| n as u32).unwrap_or(0);
    spec.supervision.degrade = args.iter().any(|a| a == "--degrade");
    spec.supervision.backoff_base_millis = parse_num("--backoff-base-ms")?.unwrap_or(0);
    spec.supervision.backoff_cap_millis = parse_num("--backoff-cap-ms")?
        .unwrap_or(spec.supervision.backoff_base_millis.saturating_mul(64));
    spec.supervision.backoff_seed = parse_num("--backoff-seed")?.unwrap_or(0);
    let sys = sys_specs(args)?;
    if !sys.is_empty() {
        spec.sys = Some(Arc::new(SysInjector::new(sys)));
    }

    let mut idx = 0;
    while let Some(pos) = args[idx..].iter().position(|a| a == "--inject") {
        idx += pos + 1;
        let Some(value) = args.get(idx) else {
            return Err(CliError::Usage(
                "--inject expects app:scheme:fault[:seed]".to_string(),
            ));
        };
        let parts: Vec<&str> = value.split(':').collect();
        if parts.len() < 3 || parts.len() > 4 {
            return Err(CliError::Usage(format!(
                "--inject expects app:scheme:fault[:seed], got `{value}`"
            )));
        }
        let fault: Fault = parts[2].parse().map_err(CliError::Usage)?;
        let seed = match parts.get(3) {
            None => 0,
            Some(s) => s
                .parse::<u64>()
                .map_err(|_| CliError::Usage(format!("bad inject seed `{s}`")))?,
        };
        spec.faults.push(PlannedFault {
            app: parts[0].to_string(),
            scheme: parts[1].to_string(),
            fault,
            seed,
        });
    }

    let summary = campaign::run_campaign(&spec)?;
    println!("{}", summary.render());
    if show_stats {
        if let Some(mib) = peak_rss_mib() {
            println!("peak_rss_mib: {mib:.1}");
        }
    }
    if summary.interrupted {
        // Shed cells are expected bookkeeping here, not failures: the
        // journal is intact and --resume finishes them.
        Err(CliError::CampaignInterrupted {
            shed: summary.shed().len(),
            total: summary.records.len(),
        })
    } else if summary.all_ok() {
        Ok(())
    } else if !summary.validation_failures().is_empty() {
        // Validation failures outrank generic cell failures: a surviving
        // divergence means a miscompile escaped demotion, which scripted
        // hunts must be able to detect from the exit code alone.
        Err(CliError::CampaignValidationFailed {
            failed: summary.validation_failures().len(),
            total: summary.records.len(),
        })
    } else {
        Err(CliError::CampaignFailed {
            failed: summary.failed().len(),
            total: summary.records.len(),
        })
    }
}

/// `critic bench [--json] [--smoke] [-o FILE] [--min-warm-speedup X]
/// [--min-cold-speedup X] [--stream-window N] [--max-stream-peak-bytes N]`
///
/// Measures single-cell latency, the batched-vs-scalar cold path over the
/// sensitivity grid, the streaming-vs-materialized long-trace probe, and a
/// cold vs warm full-grid campaign over one shared artifact store;
/// `--smoke` shrinks the grid for CI.
/// `--min-warm-speedup` and `--min-cold-speedup` turn the report into a
/// gate: exit code 8 when a measured speedup falls below its floor.
/// `--stream-window N` overrides the probe's chunk size;
/// `--max-stream-peak-bytes N` gates the streaming peak (exit code 8 when
/// it is exceeded; `0` means "use the report's own O(window) ceiling").
fn run_bench_command(args: &[String]) -> Result<(), CliError> {
    if args.iter().any(|a| a == "--service") {
        return run_service_bench_command(args);
    }
    let mut setup = if args.iter().any(|a| a == "--smoke") {
        BenchSetup::smoke()
    } else {
        BenchSetup::full()
    };
    if let Some(v) = arg_after(args, "--stream-window") {
        let window = v
            .parse::<usize>()
            .map_err(|_| CliError::Usage(format!("--stream-window expects a number, got `{v}`")))?;
        if window == 0 {
            return Err(CliError::Usage(
                "--stream-window must be at least 1".to_string(),
            ));
        }
        setup.stream_window = window;
    }
    let peak_cap = match arg_after(args, "--max-stream-peak-bytes") {
        None => None,
        Some(v) => Some(v.parse::<u64>().map_err(|_| {
            CliError::Usage(format!(
                "--max-stream-peak-bytes expects a number, got `{v}`"
            ))
        })?),
    };
    let floor = match arg_after(args, "--min-warm-speedup") {
        None => None,
        Some(v) => Some(v.parse::<f64>().map_err(|_| {
            CliError::Usage(format!("--min-warm-speedup expects a number, got `{v}`"))
        })?),
    };
    let cold_floor = match arg_after(args, "--min-cold-speedup") {
        None => None,
        Some(v) => Some(v.parse::<f64>().map_err(|_| {
            CliError::Usage(format!("--min-cold-speedup expects a number, got `{v}`"))
        })?),
    };

    let report = perf::run_perf_bench(&setup).map_err(bench_error)?;
    let json = serde_json::to_string_pretty(&report)
        .map_err(|e| CliError::Io(format!("cannot serialise bench report: {e}")))?;

    if args.iter().any(|a| a == "--json") {
        println!("{json}");
    } else {
        println!(
            "single cell: {:.0} ms | cold path {} cells: scalar {:.0} ms -> batched {:.0} ms \
             ({:.2}x, {:.2}M insts/s) | campaign cold {:.0} ms -> warm {:.0} ms ({:.2}x) | \
             restart cold {:.0} ms -> disk-warm {:.0} ms ({:.2}x, {} disk hits) | \
             stream {} insns @ window {}: {:.2}M insts/s ({:.2}x of materialized), \
             peak {} KiB under {} KiB ceiling | \
             telemetry overhead {:+.1}% | {} worlds, {} profiles, {} baselines built; \
             {} store hits | ledger {} cycles audited",
            report.single_cell_millis,
            report.cold_path.cells,
            report.cold_path.scalar_millis,
            report.cold_path.batched_millis,
            report.cold_path.cold_speedup,
            report.cold_path.insts_per_sec / 1e6,
            report.cold_campaign_millis,
            report.warm_campaign_millis,
            report.warm_speedup,
            report.restart_cold_campaign_millis,
            report.restart_warm_campaign_millis,
            report.restart_warm_speedup,
            report.disk.disk_hits,
            report.stream.trace_len,
            report.stream.window,
            report.stream.streamed_insts_per_sec / 1e6,
            report.stream.throughput_ratio,
            report.stream.peak_resident_bytes / 1024,
            report.stream.peak_ceiling_bytes / 1024,
            report.telemetry_overhead_frac * 100.0,
            report.store.worlds_built,
            report.store.profiles_built,
            report.store.baselines_built,
            report.store.hits,
            report.ledger.total()
        );
    }
    write_output(args, &json)?;
    if let Some(floor) = cold_floor {
        if report.cold_path.cold_speedup < floor {
            return Err(CliError::BenchRegression {
                what: "batched cold-path",
                speedup: report.cold_path.cold_speedup,
                floor,
            });
        }
    }
    if let Some(cap) = peak_cap {
        // 0 delegates to the report's own window-derived ceiling, so CI
        // does not have to hard-code a byte count per window.
        let ceiling = if cap == 0 {
            report.stream.peak_ceiling_bytes
        } else {
            cap
        };
        if report.stream.peak_resident_bytes > ceiling {
            return Err(CliError::StreamMemoryRegression {
                peak: report.stream.peak_resident_bytes,
                ceiling,
            });
        }
    }
    match floor {
        Some(floor) if report.warm_speedup < floor => Err(CliError::BenchRegression {
            what: "warm-store",
            speedup: report.warm_speedup,
            floor,
        }),
        _ => Ok(()),
    }
}

/// `critic bench --service [--smoke] [--json] [-o FILE]
/// [--max-service-p99-ms X]`
///
/// Measures the campaign service end to end, in process: an
/// ephemeral-port server, then 8-client, 64-client, and 2× overload
/// loadgen phases against it. `--max-service-p99-ms` gates on the
/// 64-client p99 with exit code 8.
fn run_service_bench_command(args: &[String]) -> Result<(), CliError> {
    let setup = if args.iter().any(|a| a == "--smoke") {
        ServiceBenchSetup::smoke()
    } else {
        ServiceBenchSetup::full()
    };
    let ceiling = match arg_after(args, "--max-service-p99-ms") {
        None => None,
        Some(v) => Some(v.parse::<f64>().map_err(|_| {
            CliError::Usage(format!("--max-service-p99-ms expects a number, got `{v}`"))
        })?),
    };
    let report = perf::run_service_bench(&setup).map_err(bench_error)?;
    let json = serde_json::to_string_pretty(&report)
        .map_err(|e| CliError::Io(format!("cannot serialise service bench report: {e}")))?;
    if args.iter().any(|a| a == "--json") {
        println!("{json}");
    } else {
        for (label, phase) in [
            ("8 clients", &report.clients_8),
            ("64 clients", &report.clients_64),
            ("overload", &report.overload),
        ] {
            println!(
                "{label}: {} done / {} rejected of {} sent | p50 {:.1} ms, p99 {:.1} ms, \
                 p999 {:.1} ms | degraded {:?}",
                phase.report.done,
                phase.report.rejected,
                phase.report.requests,
                phase.report.p50_ms,
                phase.report.p99_ms,
                phase.report.p999_ms,
                phase.report.degraded
            );
        }
    }
    write_output(args, &json)?;
    match ceiling {
        Some(ceiling) if report.clients_64.report.p99_ms > ceiling => {
            Err(CliError::ServiceRegression {
                p99_ms: report.clients_64.report.p99_ms,
                ceiling_ms: ceiling,
            })
        }
        _ => Ok(()),
    }
}

/// `critic serve [--port N] [--trace-len N] [--workers N] [--validate]
/// [--deadline-ms N] [--queue N] [--watermarks A,B,C] [--rate N]
/// [--burst N] [--window N] [--breaker K] [--journal FILE]
/// [--segment-lines N] [--store-dir DIR] [--store-budget BYTES]
/// [--stream-window N] [--run-tag N] [--shard N] [--peers A,B,..]
/// [--stats] [--sys NAME[:PARAM]@AT]...`
///
/// The long-lived campaign service over line-delimited JSON on TCP.
/// Prints `listening on 127.0.0.1:PORT` once bound (`--port 0` picks an
/// ephemeral port a supervising parent reads back). Drains gracefully on
/// `SIGTERM` or a wire `{"shutdown":true}` — finishes in-flight cells,
/// checkpoints the journal — and exits through code 9.
///
/// `--stream-window N` makes every worker simulate through the chunked
/// streaming pipeline at O(window) memory. `--shard N` stamps the server's
/// stats and heartbeat replies with its position in a router's fleet, and
/// `--peers A,B` pulls missing profile/baseline artifacts from those
/// addresses into the local store *before* binding — a restarted shard
/// comes back disk-warm without re-simulating anything.
fn run_serve_command(args: &[String]) -> Result<(), CliError> {
    let parse_num = |flag: &str| -> Result<Option<u64>, CliError> {
        match arg_after(args, flag) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("{flag} expects a number, got `{v}`"))),
        }
    };
    let mut config = critic_core::service::ServiceConfig::new(
        parse_num("--trace-len")?
            .map(|n| n as usize)
            .unwrap_or(TRACE_LEN),
    );
    config.workers = parse_num("--workers")?.map(|n| n as usize).unwrap_or(0);
    config.validate = args.iter().any(|a| a == "--validate");
    config.deadline = parse_num("--deadline-ms")?.map(Duration::from_millis);
    if let Some(n) = parse_num("--queue")? {
        config.queue_capacity = n as usize;
    }
    if let Some(list) = arg_after(args, "--watermarks") {
        let marks: Vec<usize> = list
            .split(',')
            .map(|v| v.trim().parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| {
                CliError::Usage(format!("--watermarks expects A,B,C numbers, got `{list}`"))
            })?;
        if marks.len() != 3 {
            return Err(CliError::Usage(
                "--watermarks expects exactly three values A,B,C".to_string(),
            ));
        }
        config.degrade_watermarks = [marks[0], marks[1], marks[2]];
    }
    if let Some(n) = parse_num("--rate")? {
        config.admission_rate = n;
    }
    if let Some(n) = parse_num("--burst")? {
        config.admission_burst = n;
    }
    if let Some(n) = parse_num("--window")? {
        config.client_window = n as usize;
    }
    if let Some(n) = parse_num("--breaker")? {
        config.breaker_threshold = n as u32;
    }
    config.journal = arg_after(args, "--journal").map(std::path::PathBuf::from);
    config.segment_max_lines = parse_num("--segment-lines")?
        .map(|n| n as usize)
        .unwrap_or(0);
    config.store_dir = arg_after(args, "--store-dir").map(std::path::PathBuf::from);
    config.store_budget = parse_num("--store-budget")?;
    config.run_tag = parse_num("--run-tag")?;
    config.stream_window = match parse_num("--stream-window")? {
        Some(0) => {
            return Err(CliError::Usage(
                "--stream-window must be at least 1".to_string(),
            ))
        }
        other => other.map(|n| n as usize),
    };
    if args.iter().any(|a| a == "--stats") {
        config.telemetry = critic_obs::Telemetry::enabled();
    }
    let sys = sys_specs(args)?;
    if !sys.is_empty() {
        config.sys = Some(Arc::new(SysInjector::new(sys)));
    }
    let port = parse_num("--port")?.map(|n| n as u16).unwrap_or(0);
    let ctx = serve::ShardContext {
        shard: parse_num("--shard")?,
        ..serve::ShardContext::default()
    };
    let peers: Vec<String> = arg_after(args, "--peers")
        .map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(String::from)
                .collect()
        })
        .unwrap_or_default();

    sigterm::install();
    let service = critic_core::service::CampaignService::open(config)?;
    if !peers.is_empty() {
        // Rebuild before binding: by the time the banner prints (and a
        // supervising router marks this shard up), the store is disk-warm.
        let rebuild = serve::rebuild_from_peers(service.store(), &peers, &ctx.fetched_artifacts);
        eprintln!(
            "peer rebuild: {} peer(s) consulted, {} artifact(s) fetched, {} rejected",
            rebuild.peers_consulted, rebuild.fetched, rebuild.rejected
        );
    }
    let summary = serve::run_serve(port, &service, &ctx)
        .map_err(|e| CliError::Io(format!("cannot bind server: {e}")))?;
    // A graceful drain is the server's one way out; code 9 tells the
    // supervisor "state intact, journal checkpointed".
    Err(CliError::ServeDrained {
        connections: summary.connections,
        responded: summary.responded,
    })
}

/// `critic router --journal-dir DIR --store-dir DIR [--port N]
/// [--shards N] [--vnodes N] [--heartbeat-ms N] [--backoff-ms N]
/// [--backoff-cap-ms N] [serve flags forwarded to every shard...]`
///
/// The sharded front tier: binds the client-facing listener, spawns
/// `--shards` `critic serve` children (shard `i` journals to
/// `DIR/shard-i.jsonl` and stores under `DIR/shard-i`), places every
/// submission on the consistent-hash ring keyed on the cell's stable
/// placement key, and supervises the fleet — heartbeats, restarts with
/// exponential backoff and peer rebuild, reroutes to ring successors
/// while a shard is down. Prints `listening on 127.0.0.1:PORT` once
/// bound. Drains the whole fleet on `SIGTERM` or `{"shutdown":true}` and
/// exits through code 9.
fn run_router_command(args: &[String]) -> Result<(), CliError> {
    let parse_num = |flag: &str| -> Result<Option<u64>, CliError> {
        match arg_after(args, flag) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("{flag} expects a number, got `{v}`"))),
        }
    };
    let Some(journal_dir) = arg_after(args, "--journal-dir") else {
        return Err(CliError::Usage(
            "usage: critic router --journal-dir DIR --store-dir DIR [--shards N] [options]"
                .to_string(),
        ));
    };
    let Some(store_dir) = arg_after(args, "--store-dir") else {
        return Err(CliError::Usage(
            "critic router requires --store-dir DIR (each shard stores under DIR/shard-N)"
                .to_string(),
        ));
    };
    let binary = std::env::current_exe()
        .map_err(|e| CliError::Io(format!("cannot locate own binary: {e}")))?;
    let mut config = router::RouterConfig::new(
        binary,
        std::path::PathBuf::from(journal_dir),
        std::path::PathBuf::from(store_dir),
    );
    config.port = parse_num("--port")?.map(|n| n as u16).unwrap_or(0);
    if let Some(n) = parse_num("--shards")? {
        if n == 0 {
            return Err(CliError::Usage("--shards must be at least 1".to_string()));
        }
        config.shards = n as u32;
    }
    if let Some(n) = parse_num("--vnodes")? {
        if n == 0 {
            return Err(CliError::Usage("--vnodes must be at least 1".to_string()));
        }
        config.vnodes = n as u32;
    }
    if let Some(n) = parse_num("--heartbeat-ms")? {
        config.heartbeat_ms = n.max(10);
    }
    if let Some(n) = parse_num("--backoff-ms")? {
        config.backoff_base_ms = n.max(1);
    }
    if let Some(n) = parse_num("--backoff-cap-ms")? {
        config.backoff_cap_ms = n.max(config.backoff_base_ms);
    }
    // Everything a shard understands is forwarded verbatim; the router
    // appends the per-shard --port/--shard/--journal/--store-dir itself.
    for flag in [
        "--trace-len",
        "--workers",
        "--deadline-ms",
        "--queue",
        "--watermarks",
        "--rate",
        "--burst",
        "--window",
        "--breaker",
        "--segment-lines",
        "--store-budget",
        "--stream-window",
    ] {
        if let Some(value) = arg_after(args, flag) {
            config.shard_args.push(flag.to_string());
            config.shard_args.push(value);
        }
    }
    for flag in ["--validate", "--stats"] {
        if args.iter().any(|a| a == flag) {
            config.shard_args.push(flag.to_string());
        }
    }

    sigterm::install();
    let summary = router::run_router(config)
        .map_err(|e| CliError::Io(format!("cannot start router: {e}")))?;
    Err(CliError::RouterDrained {
        connections: summary.connections,
        forwarded: summary.stats.forwarded,
        restarts: summary.stats.restarts,
    })
}

/// `critic loadgen --addr HOST:PORT [--addr HOST:PORT]... [--clients N]
/// [--requests N] [--rate X] [--retries N] [--seed N] [--deadline-ms N]
/// [--json] [-o FILE]`
///
/// Open-loop load against a running `critic serve` (or `critic router`):
/// N concurrent clients each sending `--requests` submissions from a
/// seeded app × scheme mix at `--rate` per second, reporting latency
/// percentiles, reject/shed counts, and degradation occupancy. `--addr`
/// repeats: client `i` connects to address `i mod len`. `--retries N`
/// resubmits each rejected cell up to N times, honoring the server's
/// `retry_after_ms` hint when one is given (a blind 10 ms backoff
/// otherwise); the report counts hinted vs blind retries separately.
fn run_loadgen_command(args: &[String]) -> Result<(), CliError> {
    let addrs: Vec<String> = {
        let mut addrs = Vec::new();
        let mut idx = 0;
        while let Some(pos) = args[idx..].iter().position(|a| a == "--addr") {
            idx += pos + 1;
            let Some(value) = args.get(idx) else {
                return Err(CliError::Usage("--addr expects HOST:PORT".to_string()));
            };
            addrs.push(value.clone());
        }
        addrs
    };
    if addrs.is_empty() {
        return Err(CliError::Usage(
            "usage: critic loadgen --addr HOST:PORT [--addr HOST:PORT]... [--clients N] \
             [--requests N] [--rate X] [--retries N] [--seed N] [--deadline-ms N] [--json] \
             [-o FILE]"
                .to_string(),
        ));
    }
    let parse_num = |flag: &str| -> Result<Option<u64>, CliError> {
        match arg_after(args, flag) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("{flag} expects a number, got `{v}`"))),
        }
    };
    let mut config = LoadgenConfig::new(&addrs[0]);
    config.addrs = addrs;
    if let Some(n) = parse_num("--clients")? {
        config.clients = n as usize;
    }
    if let Some(n) = parse_num("--requests")? {
        config.requests_per_client = n as usize;
    }
    if let Some(v) = arg_after(args, "--rate") {
        config.rate = v
            .parse::<f64>()
            .map_err(|_| CliError::Usage(format!("--rate expects a number, got `{v}`")))?;
    }
    config.retries = parse_num("--retries")?.map(|n| n as u32).unwrap_or(0);
    config.seed = parse_num("--seed")?.unwrap_or(0);
    config.deadline_ms = parse_num("--deadline-ms")?;
    let outcome = loadgen::run_loadgen(&config).map_err(bench_error)?;
    let json = serde_json::to_string_pretty(&outcome.report)
        .map_err(|e| CliError::Io(format!("cannot serialise loadgen report: {e}")))?;
    if args.iter().any(|a| a == "--json") {
        println!("{json}");
    } else {
        println!(
            "{} clients x {} requests: {} done ({} ok, {} shed, {} failed), {} rejected, \
             {} unanswered | retries {} hinted / {} blind | p50 {:.1} ms, p99 {:.1} ms, \
             p999 {:.1} ms, max {:.1} ms | degraded {:?}",
            outcome.report.clients,
            config.requests_per_client,
            outcome.report.done,
            outcome.report.ok,
            outcome.report.shed,
            outcome.report.failed,
            outcome.report.rejected,
            outcome.report.unanswered,
            outcome.report.hinted_retries,
            outcome.report.blind_retries,
            outcome.report.p50_ms,
            outcome.report.p99_ms,
            outcome.report.p999_ms,
            outcome.report.max_ms,
            outcome.report.degraded
        );
    }
    write_output(args, &json)?;
    Ok(())
}

/// `critic soak [--seconds N] [--clients N] [--rate X] [--seed N]
/// [--no-kill] [--smoke] [--sys NAME[:PARAM]@AT]... [--json] [-o FILE]`
/// — or, with `--shards N` (N ≥ 2), the sharded fleet soak:
/// `critic soak --shards N [--seconds N] [--clients N] [--rate X]
/// [--seed N] [--max-p99-ms X] [--smoke] [--json] [-o FILE]`
///
/// The supervised service soak: spawns a `critic serve` child under
/// open-loop load and `--sys` fault noise, `SIGKILL`s it mid-load,
/// audits no-lost-ack against the journal, restarts it, applies a 2×
/// overload burst under a queue monitor, and drains it gracefully. Exit
/// code 12 (report JSON printed) when any invariant broke.
///
/// The sharded variant spawns a `critic router` fleet instead,
/// `SIGKILL`s one shard mid-load, and audits no-lost-ack across the
/// union of shard journals, disk-warm restart via peer `fetch_artifact`
/// (counter must be > 0), zero re-simulation of cells journaled Ok
/// before the kill, bit-identical metrics against a single-process run
/// of the same mix, and a graceful fleet drain. Exit code 13 on any
/// violation.
fn run_soak_command(args: &[String]) -> Result<(), CliError> {
    let parse_num = |flag: &str| -> Result<Option<u64>, CliError> {
        match arg_after(args, flag) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("{flag} expects a number, got `{v}`"))),
        }
    };
    let parse_f64 = |flag: &str| -> Result<Option<f64>, CliError> {
        match arg_after(args, flag) {
            None => Ok(None),
            Some(v) => v
                .parse::<f64>()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("{flag} expects a number, got `{v}`"))),
        }
    };
    let seconds = parse_num("--seconds")?;
    let clients = parse_num("--clients")?.map(|n| (n as usize).max(1));
    let rate = parse_f64("--rate")?;
    let seed = parse_num("--seed")?.unwrap_or(0);
    let smoke = args.iter().any(|a| a == "--smoke");
    let summary_or_json =
        |summary: String| (!args.iter().any(|a| a == "--json")).then_some(summary);
    if let Some(shards) = parse_num("--shards")? {
        if shards < 2 {
            return Err(CliError::Usage(
                "--shards expects at least 2 (use plain `critic soak` for one server)".to_string(),
            ));
        }
        let defaults = ShardedSoakConfig::default();
        let config = ShardedSoakConfig {
            seconds: seconds.unwrap_or(defaults.seconds),
            clients: clients.unwrap_or(defaults.clients),
            rate: rate.unwrap_or(defaults.rate),
            shards: shards as u32,
            smoke,
            seed,
            max_p99_ms: parse_f64("--max-p99-ms")?,
            ..defaults
        };
        let report = soak::run_sharded_soak(&config).map_err(bench_error)?;
        let summary = format!(
            "sharded soak: shard {} SIGKILLed; {} acked before the kill, all preserved \
             across {} journals; restarted disk-warm ({} artifacts fetched from peers, \
             0 re-simulations); {} in-flight redispatched; {} / {} cells bit-identical \
             to a single-process run; failover p99 {:.1} ms; router exited {}",
            report.killed_shard.unwrap_or_default(),
            report.acked_before_kill,
            config.shards,
            report.fetched_artifacts,
            report.redispatched,
            report.oracle_compared,
            report.oracle_compared,
            report.failover_p99_ms,
            report
                .router_exit_code
                .map(|c| c.to_string())
                .unwrap_or_else(|| "by signal".to_string()),
        );
        return finish_report(
            args,
            "sharded soak",
            &report,
            summary_or_json(summary),
            broken_lines("sharded soak", &report.violations),
            CliError::ShardedSoakViolation {
                violations: report.violations.len(),
            },
        );
    }
    let defaults = SoakConfig::default();
    let config = SoakConfig {
        seconds: seconds.unwrap_or(defaults.seconds),
        clients: clients.unwrap_or(defaults.clients),
        rate: rate.unwrap_or(defaults.rate),
        kill: !args.iter().any(|a| a == "--no-kill"),
        sys: sys_specs(args)?,
        smoke,
        seed,
        ..defaults
    };

    let report = soak::run_soak(&config).map_err(bench_error)?;
    let summary = format!(
        "soak: {} acked before SIGKILL, all preserved; {} disk hits after restart; \
         overload rejected {} with retry hints (peak queue {} / cap {}); \
         server exited {}",
        report.acked_before_kill,
        report.disk_hits_after_restart,
        report.phase_overload.rejected,
        report.peak_queue_depth,
        report.queue_capacity,
        report
            .server_exit_code
            .map(|c| c.to_string())
            .unwrap_or_else(|| "by signal".to_string()),
    );
    finish_report(
        args,
        "soak",
        &report,
        summary_or_json(summary),
        broken_lines("soak", &report.violations),
        CliError::SoakViolation {
            violations: report.violations.len(),
        },
    )
}

/// One stderr line per broken invariant of a `what` drill.
fn broken_lines(what: &str, violations: &[Violation]) -> Vec<String> {
    violations
        .iter()
        .map(|v| format!("{what} invariant `{}` broken: {}", v.invariant, v.detail))
        .collect()
}

/// `critic chaos --seed S [--cells N] [--smoke] [--minimize] [-o FILE]`
///
/// Seeds a random schedule of systemic + data faults, drills a smoke
/// campaign under it with the supervision policy armed, and asserts the
/// runner's invariants (accounting, journal-resumable, warm-unfaulted,
/// ledger). On violation the full report — schedule included — is printed
/// as JSON and the exit code is 10; `--minimize` first delta-debugs the
/// schedule to a minimal subset reproducing the violation.
fn run_chaos_command(args: &[String]) -> Result<(), CliError> {
    let mut config = ChaosConfig::default();
    match arg_after(args, "--seed") {
        None => {
            return Err(CliError::Usage(
                "usage: critic chaos --seed S [--cells N] [--smoke] [--minimize] [-o FILE]"
                    .to_string(),
            ))
        }
        Some(v) => {
            config.seed = v
                .parse::<u64>()
                .map_err(|_| CliError::Usage(format!("--seed expects a number, got `{v}`")))?;
        }
    }
    if let Some(v) = arg_after(args, "--cells") {
        config.cells = v
            .parse::<usize>()
            .map_err(|_| CliError::Usage(format!("--cells expects a number, got `{v}`")))?;
        if config.cells == 0 {
            return Err(CliError::Usage("--cells must be at least 1".to_string()));
        }
    }
    config.smoke = args.iter().any(|a| a == "--smoke");
    config.minimize = args.iter().any(|a| a == "--minimize");

    let report = chaos::run_chaos(&config).map_err(bench_error)?;
    let mut summary = format!(
        "chaos seed {}: {} schedule entries over {} cells — all invariants held{}",
        report.seed,
        report.schedule.len(),
        report.cells.len(),
        if report.interrupted {
            " (campaign interrupted and shed as designed)"
        } else {
            ""
        }
    );
    for entry in &report.schedule {
        summary.push_str(&format!("\n  {entry}"));
    }
    let mut broken = broken_lines("chaos", &report.violations);
    if let (false, Some(minimal)) = (broken.is_empty(), &report.minimized) {
        broken.push(format!(
            "minimal reproducing schedule ({} of {} entries):",
            minimal.len(),
            report.schedule.len()
        ));
        broken.extend(minimal.iter().map(|entry| format!("  {entry}")));
    }
    finish_report(
        args,
        "chaos",
        &report,
        Some(summary),
        broken,
        CliError::ChaosViolation {
            violations: report.violations.len(),
        },
    )
}

/// `critic drill --points N [--seed S] [--smoke] [--minimize] [-o FILE]`
///
/// The kill-anywhere recovery drill: for each seeded point, a child
/// `critic campaign` run with a persistent store and a segmented journal
/// is crashed at a planted operation (plus seeded fault noise), restarted
/// with `--resume`, and checked against the durability invariants —
/// accounting, journal-resumable, warm-unfaulted, ledger, **durable-warm**
/// (a restarted campaign is served bit-identical artifacts from disk) and
/// **no-lost-ack** (a cell journaled Ok before the kill is never
/// re-simulated). On violation the report (with the minimal reproducing
/// fault subset under `--minimize`) is printed as JSON and the exit code
/// is 11.
fn run_drill_command(args: &[String]) -> Result<(), CliError> {
    let mut config = DrillConfig::default();
    if let Some(v) = arg_after(args, "--seed") {
        config.seed = v
            .parse::<u64>()
            .map_err(|_| CliError::Usage(format!("--seed expects a number, got `{v}`")))?;
    }
    if let Some(v) = arg_after(args, "--points") {
        config.points = v
            .parse::<usize>()
            .map_err(|_| CliError::Usage(format!("--points expects a number, got `{v}`")))?;
        if config.points == 0 {
            return Err(CliError::Usage("--points must be at least 1".to_string()));
        }
    }
    config.smoke = args.iter().any(|a| a == "--smoke");
    config.minimize = args.iter().any(|a| a == "--minimize");

    let report = drill::run_drill(&config).map_err(bench_error)?;
    let summary = format!(
        "drill seed {}: {} kill points ({} crashed, {} clean) — durable-warm and \
         no-lost-ack held; {} acked cells preserved, {} disk hits on verification",
        report.seed,
        report.points.len(),
        report.crashed,
        report.clean,
        report.acked_preserved,
        report.disk_hits
    );
    let mut broken: Vec<String> = report
        .violations
        .iter()
        .map(|v| {
            format!(
                "drill invariant `{}` broken at point {} ({}): {}",
                v.invariant, v.point, v.crash, v.detail
            )
        })
        .collect();
    if let (false, Some(minimal)) = (broken.is_empty(), &report.minimized) {
        broken.push(format!(
            "minimal reproducing fault set ({} spec(s)):",
            minimal.len()
        ));
        broken.extend(minimal.iter().map(|spec| format!("  {spec}")));
    }
    finish_report(
        args,
        "drill",
        &report,
        Some(summary),
        broken,
        CliError::DrillViolation {
            violations: report.violations.len(),
        },
    )
}

/// The roll-up `critic stats` prints: cell counts, wall-clock, the
/// campaign-wide telemetry aggregate, and the persistent-store counters.
#[derive(Debug, serde::Serialize)]
struct StatsReport {
    /// Journalled cells after newest-wins dedup on (app, scheme).
    cells: usize,
    /// Cells whose terminal status is `Ok`.
    ok: usize,
    /// Cells that failed, timed out, panicked, or were shed.
    failed: usize,
    /// Mid-file journal lines that classified as nothing — fault-merged
    /// writes and checksum-failed corruption. Counted, not fatal: a journal
    /// that survived a kill or a chaos drill must still roll up.
    skipped_lines: usize,
    /// Checkpoint records replayed across the journal's segments.
    checkpoints: usize,
    /// Whether the active file ended in a torn (half-written) line.
    torn_tail: bool,
    /// Sum of final-attempt wall-clock across cells, in milliseconds.
    total_millis: u64,
    /// Campaign-wide telemetry: the journal's trailer line when present,
    /// otherwise re-aggregated from per-cell spans.
    telemetry: critic_obs::TelemetrySnapshot,
    /// Artifact-store counters from the journal's store trailer, when the
    /// campaign ran one (`disk` holds the persistent tier's counters).
    store: Option<StoreStats>,
    /// Per-run-tag roll-ups: one entry per `--run-tag` found in the journal
    /// (untagged records group under `null`), so a journal spanning server
    /// restarts reports each incarnation separately.
    runs: Vec<critic_core::journal::RunRollup>,
    /// Per-cell stage timing from journaled span data — one entry per cell
    /// that ran with telemetry enabled, in journal order. Empty for silent
    /// campaigns.
    cell_phases: Vec<CellPhases>,
}

/// How one cell's wall clock split across the pipeline stages, extracted
/// from its journaled [`critic_obs::TelemetrySnapshot`].
#[derive(Debug, serde::Serialize)]
struct CellPhases {
    /// App name.
    app: String,
    /// Scheme name.
    scheme: String,
    /// The cell's journaled final-attempt wall clock, in milliseconds.
    millis: u64,
    /// World-construction span total, in milliseconds.
    world_build_millis: f64,
    /// Profiler span total, in milliseconds.
    profile_millis: f64,
    /// Compiler-pass span total, in milliseconds.
    passes_millis: f64,
    /// Translation-validation span total, in milliseconds.
    validate_millis: f64,
    /// Simulation span total, in milliseconds.
    sim_millis: f64,
}

/// Per-shard roll-up in the multi-journal `critic stats` report: one
/// entry per journal file, in argument order.
#[derive(Debug, serde::Serialize)]
struct ShardRollup {
    /// The journal path as given (or discovered in a `--journal DIR`).
    journal: String,
    /// Journalled cells after newest-wins dedup.
    cells: usize,
    /// Cells whose terminal status is `Ok`.
    ok: usize,
    /// Cells that failed, timed out, panicked, or were shed.
    failed: usize,
    /// Sum of final-attempt wall-clock across cells, in milliseconds.
    total_millis: u64,
    /// Unparseable lines skipped during replay.
    skipped_lines: usize,
    /// Per-run-tag roll-ups within this journal (a router restamps a
    /// restarted shard's tag, so restarts show up as separate runs).
    runs: Vec<critic_core::journal::RunRollup>,
}

/// The fleet-wide `critic stats` report when more than one journal is
/// given: per-shard roll-ups plus cross-fleet totals.
#[derive(Debug, serde::Serialize)]
struct FleetStatsReport {
    /// One roll-up per journal.
    shards: Vec<ShardRollup>,
    /// Distinct (app, scheme) cells across the whole fleet.
    fleet_cells: usize,
    /// Sum of per-shard `ok`.
    fleet_ok: usize,
    /// Sum of per-shard `failed`.
    fleet_failed: usize,
    /// Sum of per-shard wall-clock, in milliseconds.
    fleet_millis: u64,
}

/// Expands one `--journal` value: a directory becomes its `*.jsonl`
/// files sorted by name (the router's `shard-N.jsonl` layout), a file is
/// taken as-is.
fn expand_journal_arg(path: &str) -> Result<Vec<std::path::PathBuf>, CliError> {
    let p = std::path::Path::new(path);
    if p.is_dir() {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(p)
            .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?
            .filter_map(|entry| entry.ok())
            .map(|entry| entry.path())
            .filter(|f| f.extension().is_some_and(|e| e == "jsonl"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(CliError::Io(format!("no *.jsonl journals under {path}")));
        }
        Ok(files)
    } else if p.exists() {
        Ok(vec![p.to_path_buf()])
    } else {
        Err(CliError::Io(format!("cannot read {path}: no such file")))
    }
}

/// `critic stats --journal FILE|DIR [--journal FILE|DIR]... [--json]`
///
/// Replays a campaign journal — segments, checkpoints, and the active file,
/// with per-line checksum verification — dedups cells newest-wins on
/// (app, scheme) — the same rule `--resume` applies — and prints the
/// telemetry and store roll-up. More than one journal (repeat `--journal`,
/// or point it at a router's journal directory) switches to the fleet
/// view: a per-shard roll-up line each plus cross-fleet totals, with
/// distinct-cell counting across shards.
fn run_stats_command(args: &[String]) -> Result<(), CliError> {
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    let mut idx = 0;
    while let Some(pos) = args[idx..].iter().position(|a| a == "--journal") {
        idx += pos + 1;
        let Some(value) = args.get(idx) else {
            return Err(CliError::Usage("--journal expects FILE|DIR".to_string()));
        };
        paths.extend(expand_journal_arg(value)?);
    }
    if paths.is_empty() {
        return Err(CliError::Usage(
            "usage: critic stats --journal FILE|DIR [--journal FILE|DIR]... [--json]".to_string(),
        ));
    }
    if paths.len() > 1 {
        return run_fleet_stats(&paths, args.iter().any(|a| a == "--json"));
    }
    let journal = paths[0].as_path();
    let replayed =
        Journal::replay(journal, &Telemetry::off()).map_err(|e| CliError::Io(e.to_string()))?;

    // Before the trailer fields are moved out below.
    let runs = replayed.run_rollups();
    let telemetry = match replayed.telemetry_trailer {
        Some(record) => record.campaign_telemetry,
        None => {
            let mut aggregate = critic_obs::TelemetrySnapshot::default();
            for record in &replayed.records {
                if let Some(spans) = &record.spans {
                    aggregate.absorb(spans);
                }
            }
            aggregate
        }
    };
    let ok = replayed
        .records
        .iter()
        .filter(|r| r.status == CellStatus::Ok)
        .count();
    let ms = |nanos: u64| nanos as f64 / 1e6;
    let cell_phases = replayed
        .records
        .iter()
        .filter_map(|r| {
            let spans = r.spans.as_ref()?;
            Some(CellPhases {
                app: r.app.clone(),
                scheme: r.scheme.clone(),
                millis: r.millis,
                world_build_millis: ms(spans.world_build.total_nanos),
                profile_millis: ms(spans.profile.total_nanos),
                passes_millis: ms(spans.passes.total_nanos),
                validate_millis: ms(spans.validate.total_nanos),
                sim_millis: ms(spans.sim.total_nanos),
            })
        })
        .collect();
    let report = StatsReport {
        cells: replayed.records.len(),
        ok,
        failed: replayed.records.len() - ok,
        skipped_lines: replayed.skipped_lines,
        checkpoints: replayed.checkpoints,
        torn_tail: replayed.torn_tail,
        total_millis: replayed.records.iter().map(|r| r.millis).sum(),
        telemetry,
        store: replayed.store_trailer.map(|t| t.campaign_store),
        runs,
        cell_phases,
    };

    if args.iter().any(|a| a == "--json") {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| CliError::Io(format!("cannot serialise stats report: {e}")))?;
        println!("{json}");
    } else {
        println!(
            "{} cells ({} ok, {} failed), {} ms total",
            report.cells, report.ok, report.failed, report.total_millis
        );
        // One line per run tag only when tags actually partition the
        // journal — a single-run journal would just repeat the total.
        if report.runs.len() > 1 || report.runs.iter().any(|r| r.run.is_some()) {
            for rollup in &report.runs {
                let tag = match rollup.run {
                    Some(tag) => format!("run {tag}"),
                    None => "untagged".to_string(),
                };
                println!(
                    "  {tag}: {} cells ({} ok, {} failed, {} shed), {} ms",
                    rollup.cells, rollup.ok, rollup.failed, rollup.shed, rollup.total_millis
                );
            }
        }
        if report.skipped_lines > 0 {
            println!(
                "({} unparseable journal line(s) skipped — torn merges or corruption)",
                report.skipped_lines
            );
        }
        if report.torn_tail {
            println!("(active file ends in a torn line — truncated on the next resume)");
        }
        if report.checkpoints > 0 {
            println!("({} checkpoint(s) replayed)", report.checkpoints);
        }
        if let Some(store) = &report.store {
            if let Some(disk) = &store.disk {
                println!(
                    "persistent store: {} entries ({} B), {} disk hits / {} misses, \
                     {} saves, {} evictions, {} quarantines",
                    disk.entries,
                    disk.bytes,
                    disk.disk_hits,
                    disk.disk_misses,
                    disk.saves,
                    disk.evictions,
                    disk.quarantines
                );
            }
        }
        if report.telemetry.is_empty() {
            println!("no telemetry in journal (campaign ran without --stats)");
        } else {
            println!("{}", report.telemetry.render());
        }
    }
    Ok(())
}

/// The multi-journal `critic stats` body: replays every journal
/// independently and prints per-shard roll-ups plus fleet totals.
fn run_fleet_stats(paths: &[std::path::PathBuf], json: bool) -> Result<(), CliError> {
    let mut shards = Vec::new();
    let mut fleet: std::collections::BTreeSet<(String, String)> = std::collections::BTreeSet::new();
    for path in paths {
        let replayed = Journal::replay(path, &Telemetry::off())
            .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
        let ok = replayed
            .records
            .iter()
            .filter(|r| r.status == CellStatus::Ok)
            .count();
        for record in &replayed.records {
            fleet.insert((record.app.clone(), record.scheme.clone()));
        }
        shards.push(ShardRollup {
            journal: path.display().to_string(),
            cells: replayed.records.len(),
            ok,
            failed: replayed.records.len() - ok,
            total_millis: replayed.records.iter().map(|r| r.millis).sum(),
            skipped_lines: replayed.skipped_lines,
            runs: replayed.run_rollups(),
        });
    }
    let report = FleetStatsReport {
        fleet_cells: fleet.len(),
        fleet_ok: shards.iter().map(|s| s.ok).sum(),
        fleet_failed: shards.iter().map(|s| s.failed).sum(),
        fleet_millis: shards.iter().map(|s| s.total_millis).sum(),
        shards,
    };
    if json {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| CliError::Io(format!("cannot serialise fleet stats: {e}")))?;
        println!("{json}");
    } else {
        for shard in &report.shards {
            println!(
                "{}: {} cells ({} ok, {} failed), {} ms{}",
                shard.journal,
                shard.cells,
                shard.ok,
                shard.failed,
                shard.total_millis,
                if shard.skipped_lines > 0 {
                    format!(" ({} line(s) skipped)", shard.skipped_lines)
                } else {
                    String::new()
                }
            );
            // A shard journal spanning restarts carries one run tag per
            // incarnation; surface them the same way the single view does.
            if shard.runs.len() > 1 {
                for rollup in &shard.runs {
                    let tag = match rollup.run {
                        Some(tag) => format!("run {tag}"),
                        None => "untagged".to_string(),
                    };
                    println!(
                        "    {tag}: {} cells ({} ok, {} failed, {} shed), {} ms",
                        rollup.cells, rollup.ok, rollup.failed, rollup.shed, rollup.total_millis
                    );
                }
            }
        }
        println!(
            "fleet: {} journals, {} distinct cells ({} ok records, {} failed), {} ms total",
            report.shards.len(),
            report.fleet_cells,
            report.fleet_ok,
            report.fleet_failed,
            report.fleet_millis
        );
    }
    Ok(())
}
