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
//! critic campaign [options]           # fault-tolerant app x scheme grid
//! critic stats --journal FILE|DIR     # telemetry roll-up of campaign journals
//! critic chaos --seed S [options]     # seeded systemic-fault drill
//! critic drill [options]              # kill-anywhere recovery drill
//! critic serve [options]              # the campaign service
//! critic router --journal-dir DIR --store-dir DIR [options]  # sharded front tier
//! critic loadgen --addr HOST:PORT [options]  # open-loop load
//! critic soak [options]               # service / fleet soak
//! ```
//!
//! These synopses are abridged. Each command's full synopsis is its one
//! flag table (`synopsis`): `parse` enforces it, and any usage error
//! prints it.
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
//! | 2 | usage error: an unknown command or flag, a flag missing its value, a repeated single-valued flag, a missing or extra positional, or an out-of-range value |
//! | 3 | unknown app or function |
//! | 4 | unknown scheme |
//! | 5 | I/O error |
//! | 6 | campaign finished with failed cells |
//! | 7 | translation validation failed (divergence survived demotion) |
//! | 8 | retired (its only producer, the `bench` command, was removed); not reused |
//! | 9 | campaign interrupted by graceful shutdown (shed cells; resume to finish) — also `critic serve` / `critic router` after a graceful drain |
//! | 10 | chaos invariant violation (schedule JSON printed) |
//! | 11 | recovery-drill invariant violation (durable-warm / no-lost-ack; repro JSON printed) |
//! | 12 | service-soak invariant violation (no-lost-ack / bounded-queue / overload-sheds / graceful-drain; report JSON printed) |
//! | 13 | sharded-soak invariant violation (no-lost-ack across shards / peer-rebuild / no-resimulation / bit-identical; report JSON printed) |

use std::fmt;
use std::time::Duration;

use critic_bench::audit::{BenchError, Violation};
use critic_bench::chaos::{self, ChaosConfig};
use critic_bench::drill::{self, DrillConfig};
use critic_bench::loadgen::{self, LoadgenConfig};
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
                    DesignPoint::NAMED.map(|(known, _)| known).join(", ")
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
    Suite::find_app(name).ok_or_else(|| CliError::UnknownApp(name.to_string()))
}

fn scheme_point(scheme: &str) -> Result<DesignPoint, CliError> {
    // One naming authority: the same resolver the service's submission
    // path uses, so the CLI and the wire protocol can never disagree.
    DesignPoint::named(scheme).ok_or_else(|| CliError::UnknownScheme(scheme.to_string()))
}

/// One flag, as a synopsis element declares it.
struct Flag {
    name: &'static str,
    /// The value's placeholder; `None` makes the flag a switch.
    metavar: Option<&'static str>,
    repeat: bool,
    required: bool,
}

impl Flag {
    /// Reads one synopsis element: `[--x]` is a switch, `[--x V]` takes a
    /// value, `...` after it lets it repeat, and a flag written without
    /// brackets (`--x V`) is required. `None` for a positional (`<app>`,
    /// or `[function]` when optional).
    fn read(element: &'static str) -> Option<Flag> {
        let body = element.trim_end_matches("...");
        let optional = body.strip_prefix('[').and_then(|b| b.strip_suffix(']'));
        let mut words = optional.unwrap_or(body).splitn(2, ' ');
        let (name, metavar) = (words.next()?, words.next());
        name.starts_with('-').then_some(Flag {
            name,
            metavar,
            repeat: body.len() < element.len(),
            required: optional.is_none(),
        })
    }
}

/// Splits a synopsis into its elements at each space outside brackets
/// that a `-`, `[` or `<` follows, so `--seed S` and
/// `[--sys NAME[:PARAM]@AT]...` each stay one element.
fn elements(synopsis: &'static str) -> Vec<&'static str> {
    let (mut elements, mut start, mut depth) = (Vec::new(), 0, 0);
    for (i, c) in synopsis.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => depth -= 1,
            ' ' if depth == 0 && synopsis[i + 1..].starts_with(['-', '[', '<']) => {
                elements.push(&synopsis[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    elements.push(&synopsis[start..]);
    elements.retain(|e| !e.is_empty());
    elements
}

/// The `critic serve` flags that `critic router` forwards verbatim to every
/// shard it spawns. `--sys` is not among them: a restarted shard would
/// re-arm the same faults.
macro_rules! shard_flags {
    () => {
        "[--trace-len N] [--workers N] [--validate] [--deadline-ms N] [--queue N] \
         [--watermarks A,B,C] [--rate N] [--burst N] [--window N] [--breaker K] \
         [--segment-lines N] [--store-budget BYTES] [--stream-window N] [--stats]"
    };
}

/// The synopsis of `critic COMMAND`, `None` for an unknown command. The
/// synopsis is the command's one flag table: `parse` enforces exactly
/// what a usage error prints.
fn synopsis(command: &str) -> Option<&'static str> {
    Some(match command {
        "list" => "",
        "profile" => "<app> [-o FILE]",
        "compile" | "run" => "<app> [--scheme S] [--validate]",
        "validate" => "<app> [--scheme S] [--seed N]",
        "disasm" => "<app> [function]",
        "campaign" => {
            "[--suite S] [--apps N] [--schemes A,B] [--trace-len N] [--journal FILE] [--resume] \
             [--validate] [--stats] [--deadline-secs N] [--retries N] [--workers N] \
             [--store-dir DIR] [--store-budget BYTES] [--segment-lines N] [--run-tag N] \
             [--stream-window N] [--inject APP:SCHEME:FAULT[:SEED]]... \
             [--sys NAME[:PARAM]@AT]... [--breaker K] [--degrade] [--backoff-base-ms N] \
             [--backoff-cap-ms N] [--backoff-seed N]"
        }
        "stats" => "--journal FILE|DIR... [--json]",
        "chaos" => "--seed S [--cells N] [--smoke] [--minimize] [-o FILE]",
        "drill" => "[--points N] [--seed S] [--smoke] [--minimize] [-o FILE]",
        "serve" => concat!(
            "[--port N] [--journal FILE] [--store-dir DIR] [--run-tag N] [--shard N] \
             [--peers A,B] [--sys NAME[:PARAM]@AT]... ",
            shard_flags!()
        ),
        "router" => concat!(
            "--journal-dir DIR --store-dir DIR [--port N] [--shards N] [--vnodes N] \
             [--heartbeat-ms N] [--backoff-ms N] [--backoff-cap-ms N] ",
            shard_flags!()
        ),
        "loadgen" => {
            "--addr HOST:PORT... [--clients N] [--requests N] [--rate X] [--retries N] \
             [--seed N] [--deadline-ms N] [--json] [-o FILE]"
        }
        "soak" => {
            "[--seconds N] [--clients N] [--rate X] [--seed N] [--no-kill] [--smoke] \
             [--sys NAME[:PARAM]@AT]... [--shards N] [--max-p99-ms X] [--json] [-o FILE]"
        }
        _ => return None,
    })
}

/// A command line checked against its command's synopsis.
struct Args<'a> {
    synopsis: &'static str,
    positionals: Vec<&'a str>,
    /// Every flag given, in command-line order, with its value (`None`
    /// for a switch).
    entries: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    fn values<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = Option<&'a str>> + 's {
        debug_assert!(
            elements(self.synopsis)
                .into_iter()
                .filter_map(Flag::read)
                .any(|f| f.name == flag),
            "`{flag}` is not in the synopsis `{}`",
            self.synopsis
        );
        self.entries
            .iter()
            .filter(move |(name, _)| *name == flag)
            .map(|(_, value)| *value)
    }

    fn has(&self, flag: &str) -> bool {
        self.values(flag).next().is_some()
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).next().flatten()
    }

    /// Every value of the repeatable `flag`, in command-line order.
    fn all<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.values(flag).flatten()
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        let Some(v) = self.get(flag) else {
            return Ok(None);
        };
        let error = || CliError::Usage(format!("{flag} expects a number, got `{v}`"));
        v.parse().map(Some).map_err(|_| error())
    }
}

/// Checks `argv` (the words after `critic COMMAND`) against the command's
/// `synopsis`: every flag must be in it, a value flag needs a value that
/// does not start with `--`, only a repeatable flag may repeat, required
/// flags and positionals must be there and no extra positional may be.
/// Each refusal names the offending word and ends with the synopsis.
fn parse<'a>(
    command: &str,
    synopsis: &'static str,
    argv: &'a [String],
) -> Result<Args<'a>, CliError> {
    let misuse = |problem: String| {
        let usage = format!("usage: critic {command} {synopsis}");
        CliError::Usage(format!("{problem}\n{}", usage.trim_end()))
    };
    let (flags, positionals): (Vec<_>, Vec<_>) = elements(synopsis)
        .into_iter()
        .partition(|e| Flag::read(e).is_some());
    let flags: Vec<Flag> = flags.into_iter().filter_map(Flag::read).collect();
    let mut args = Args {
        synopsis,
        positionals: Vec::new(),
        entries: Vec::new(),
    };
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        if !word.starts_with('-') {
            if args.positionals.len() == positionals.len() {
                return Err(misuse(format!("unexpected argument `{word}`")));
            }
            args.positionals.push(word);
            continue;
        }
        let Some(flag) = flags.iter().find(|f| f.name == word) else {
            return Err(misuse(format!("unknown flag `{word}`")));
        };
        if !flag.repeat && args.has(flag.name) {
            return Err(misuse(format!("{} given more than once", flag.name)));
        }
        let value = match flag.metavar {
            None => None,
            Some(metavar) => match words.next() {
                Some(v) if !v.starts_with("--") => Some(v.as_str()),
                _ => return Err(misuse(format!("{} expects {metavar}", flag.name))),
            },
        };
        args.entries.push((flag.name, value));
    }
    let positional = positionals[args.positionals.len()..]
        .iter()
        .find(|p| !p.starts_with('['));
    let flag = flags.iter().find(|f| f.required && !args.has(f.name));
    match positional.copied().or(flag.map(|f| f.name)) {
        Some(missing) => Err(misuse(format!("missing {missing}"))),
        None => Ok(args),
    }
}

fn usage() -> CliError {
    CliError::Usage(
        "usage: critic <list|profile|compile|run|validate|disasm|campaign|stats|chaos|\
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

fn run_cli(argv: &[String]) -> Result<(), CliError> {
    let Some((name, rest)) = argv.split_first() else {
        return Err(usage());
    };
    let synopsis = synopsis(name)
        .ok_or_else(|| CliError::Usage(format!("unknown command `{name}`; {}", usage())))?;
    let args = parse(name, synopsis, rest)?;
    match name.as_str() {
        "list" => {
            for suite in Suite::ALL {
                for app in suite.apps() {
                    println!("{:12} {:10} {}", app.name, suite.label(), app.domain);
                }
            }
            Ok(())
        }
        "profile" => {
            let app = find_app(args.positionals[0])?;
            let mut bench = Workbench::try_new(&app, TRACE_LEN)?;
            let profile = bench.try_profile(&ProfilerConfig::default())?.clone();
            println!(
                "{}: {} chains selected, {:.1}% dynamic coverage, {:.1}% convertible",
                app.name,
                profile.chains.len(),
                profile.dynamic_coverage * 100.0,
                profile.stats.convertible_frac * 100.0
            );
            if let Some(path) = args.get("-o") {
                save_profile(&profile, std::path::Path::new(path))
                    .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
                println!("wrote {path}");
            }
            Ok(())
        }
        "compile" | "run" => {
            let app = find_app(args.positionals[0])?;
            let point = scheme_point(args.get("--scheme").unwrap_or("critic"))?;
            let mut bench = Workbench::try_new(&app, TRACE_LEN)?;
            let base = bench.try_run(&DesignPoint::baseline())?;
            let (run, validation) = if args.has("--validate") {
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
            if name == "run" {
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
            let app = find_app(args.positionals[0])?;
            let point = scheme_point(args.get("--scheme").unwrap_or("critic"))?;
            let seed = args.num("--seed")?.unwrap_or_else(|| app.path_seed());
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
            let app = find_app(args.positionals[0])?;
            let program = app.generate_program();
            match args.positionals.get(1) {
                Some(fname) => {
                    let func = program
                        .functions
                        .iter()
                        .find(|f| f.name == *fname)
                        .ok_or_else(|| CliError::UnknownFunction {
                            app: app.name.clone(),
                            function: fname.to_string(),
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
        "campaign" => run_campaign_command(&args),
        "stats" => run_stats_command(&args),
        "chaos" => run_chaos_command(&args),
        "drill" => run_drill_command(&args),
        "serve" => run_serve_command(&args),
        "router" => run_router_command(&args),
        "loadgen" => run_loadgen_command(&args),
        "soak" => run_soak_command(&args),
        other => unreachable!("`{other}` has a synopsis but no handler"),
    }
}

/// Every `--sys NAME[:PARAM]@AT` value on the command line, parsed.
fn sys_specs(args: &Args) -> Result<Vec<SysFaultSpec>, CliError> {
    args.all("--sys")
        .map(|value| {
            SysFaultSpec::parse(value).ok_or_else(|| {
                CliError::Usage(format!(
                    "--sys expects NAME[:PARAM]@AT (e.g. store-read@3, alloc-budget:65536@1, \
                     crash:journal-append@4), got `{value}`"
                ))
            })
        })
        .collect()
}

/// Writes `json` to `-o FILE` when one was given.
fn write_output(args: &Args, json: &str) -> Result<(), CliError> {
    if let Some(path) = args.get("-o") {
        std::fs::write(path, format!("{json}\n"))
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
    args: &Args,
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

/// `critic campaign` runs a fault-tolerant app × scheme grid.
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
/// Every cell that runs streams its trace through the chunked pipeline
/// at O(window) memory per worker; `--stream-window N` sets the window to
/// N instructions (default 4096) and changes no result. A cell with an
/// armed trace fault corrupts the clean trace, fails its trace check and
/// simulates nothing.
///
/// `--sys` arms deterministic systemic faults (the chaos harness's
/// [`SysFault`](critic_workloads::SysFault) family) on the run;
/// `--breaker`, `--degrade`, and the backoff flags configure the
/// supervision policy that absorbs them.
fn run_campaign_command(args: &Args) -> Result<(), CliError> {
    let mut apps: Vec<AppSpec> = match args.get("--suite") {
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

    let schemes: Vec<Scheme> = match args.get("--schemes") {
        None => campaign::default_schemes(),
        Some(list) => {
            let mut schemes = Vec::new();
            for name in list.split(',').filter(|s| !s.is_empty()) {
                schemes.push(Scheme::new(name, scheme_point(name)?));
            }
            schemes
        }
    };

    if let Some(n) = args.num::<usize>("--apps")? {
        if n == 0 {
            return Err(CliError::Usage("--apps must be at least 1".to_string()));
        }
        apps.truncate(n);
    }

    let mut spec = CampaignSpec::new(apps, schemes, args.num("--trace-len")?.unwrap_or(TRACE_LEN));
    spec.deadline = args.num("--deadline-secs")?.map(Duration::from_secs);
    spec.retries = args.num("--retries")?.unwrap_or(0);
    spec.workers = args.num("--workers")?.unwrap_or(0);
    spec.journal = args.get("--journal").map(std::path::PathBuf::from);
    spec.resume = args.has("--resume");
    spec.validate = args.has("--validate");
    spec.store_dir = args.get("--store-dir").map(std::path::PathBuf::from);
    spec.store_budget = args.num("--store-budget")?;
    spec.segment_max_lines = args.num("--segment-lines")?.unwrap_or(0);
    spec.run_tag = args.num("--run-tag")?;
    spec.stream_window = stream_window(args)?;
    let show_stats = args.has("--stats");
    if show_stats {
        spec.telemetry = critic_obs::Telemetry::enabled();
    }
    if spec.resume && spec.journal.is_none() {
        return Err(CliError::Usage(
            "--resume requires --journal FILE".to_string(),
        ));
    }
    spec.supervision.breaker_threshold = args.num("--breaker")?.unwrap_or(0);
    spec.supervision.degrade = args.has("--degrade");
    spec.supervision.backoff_base_millis = args.num("--backoff-base-ms")?.unwrap_or(0);
    spec.supervision.backoff_cap_millis = args
        .num("--backoff-cap-ms")?
        .unwrap_or(spec.supervision.backoff_base_millis.saturating_mul(64));
    spec.supervision.backoff_seed = args.num("--backoff-seed")?.unwrap_or(0);
    let sys = sys_specs(args)?;
    if !sys.is_empty() {
        spec.sys = Some(Arc::new(SysInjector::new(sys)));
    }

    for value in args.all("--inject") {
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

/// `--stream-window N`, which must be at least 1 when given; `None` leaves
/// the window at its default.
fn stream_window(args: &Args) -> Result<Option<usize>, CliError> {
    match args.num("--stream-window")? {
        Some(0) => Err(CliError::Usage(
            "--stream-window must be at least 1".to_string(),
        )),
        window => Ok(window),
    }
}

/// `critic serve` is the long-lived campaign service over line-delimited
/// JSON on TCP. Prints `listening on 127.0.0.1:PORT` once bound
/// (`--port 0` picks an ephemeral port a supervising parent reads back).
/// Drains gracefully on `SIGTERM` or a wire `{"shutdown":true}` — finishes
/// in-flight cells, checkpoints the journal — and exits through code 9.
///
/// Every worker simulates through the chunked streaming pipeline at
/// O(window) memory; `--stream-window N` sets the window (default 4096)
/// and changes no result. `--shard N` stamps the server's
/// stats and heartbeat replies with its position in a router's fleet, and
/// `--peers A,B` pulls missing profile/baseline artifacts from those
/// addresses into the local store *before* binding — a restarted shard
/// comes back disk-warm without re-simulating anything.
fn run_serve_command(args: &Args) -> Result<(), CliError> {
    let mut config =
        critic_core::service::ServiceConfig::new(args.num("--trace-len")?.unwrap_or(TRACE_LEN));
    config.workers = args.num("--workers")?.unwrap_or(0);
    config.validate = args.has("--validate");
    config.deadline = args.num("--deadline-ms")?.map(Duration::from_millis);
    config.queue_capacity = args.num("--queue")?.unwrap_or(config.queue_capacity);
    if let Some(list) = args.get("--watermarks") {
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
    config.admission_rate = args.num("--rate")?.unwrap_or(config.admission_rate);
    config.admission_burst = args.num("--burst")?.unwrap_or(config.admission_burst);
    config.client_window = args.num("--window")?.unwrap_or(config.client_window);
    config.breaker_threshold = args.num("--breaker")?.unwrap_or(config.breaker_threshold);
    config.journal = args.get("--journal").map(std::path::PathBuf::from);
    config.segment_max_lines = args.num("--segment-lines")?.unwrap_or(0);
    config.store_dir = args.get("--store-dir").map(std::path::PathBuf::from);
    config.store_budget = args.num("--store-budget")?;
    config.run_tag = args.num("--run-tag")?;
    config.stream_window = stream_window(args)?;
    if args.has("--stats") {
        config.telemetry = critic_obs::Telemetry::enabled();
    }
    let sys = sys_specs(args)?;
    if !sys.is_empty() {
        config.sys = Some(Arc::new(SysInjector::new(sys)));
    }
    let port = args.num("--port")?.unwrap_or(0);
    let ctx = serve::ShardContext {
        shard: args.num("--shard")?,
        ..serve::ShardContext::default()
    };
    let peers: Vec<String> = args
        .get("--peers")
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

/// `critic router` is the sharded front tier: binds the client-facing
/// listener, spawns `--shards` `critic serve` children (shard `i` journals
/// to `DIR/shard-i.jsonl` and stores under `DIR/shard-i`), places every
/// submission on the consistent-hash ring keyed on the cell's stable
/// placement key, and supervises the fleet — heartbeats, restarts with
/// exponential backoff and peer rebuild, reroutes to ring successors
/// while a shard is down. Every `shard_flags!` entry given is forwarded
/// to each shard. Prints `listening on 127.0.0.1:PORT` once bound. Drains
/// the whole fleet on `SIGTERM` or `{"shutdown":true}` and exits through
/// code 9.
fn run_router_command(args: &Args) -> Result<(), CliError> {
    let binary = std::env::current_exe()
        .map_err(|e| CliError::Io(format!("cannot locate own binary: {e}")))?;
    let mut config = router::RouterConfig::new(
        binary,
        std::path::PathBuf::from(args.get("--journal-dir").expect("parse requires it")),
        std::path::PathBuf::from(args.get("--store-dir").expect("parse requires it")),
    );
    config.port = args.num("--port")?.unwrap_or(0);
    if let Some(n) = args.num("--shards")? {
        if n == 0 {
            return Err(CliError::Usage("--shards must be at least 1".to_string()));
        }
        config.shards = n;
    }
    if let Some(n) = args.num("--vnodes")? {
        if n == 0 {
            return Err(CliError::Usage("--vnodes must be at least 1".to_string()));
        }
        config.vnodes = n;
    }
    if let Some(n) = args.num::<u64>("--heartbeat-ms")? {
        config.heartbeat_ms = n.max(10);
    }
    if let Some(n) = args.num::<u64>("--backoff-ms")? {
        config.backoff_base_ms = n.max(1);
    }
    if let Some(n) = args.num::<u64>("--backoff-cap-ms")? {
        config.backoff_cap_ms = n.max(config.backoff_base_ms);
    }
    // The router appends the per-shard --port/--shard/--journal/--store-dir
    // itself.
    for (flag, value) in &args.entries {
        let mut shard_flags = elements(shard_flags!()).into_iter().filter_map(Flag::read);
        if shard_flags.any(|f| f.name == *flag) {
            config.shard_args.push(flag.to_string());
            config.shard_args.extend(value.map(String::from));
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

/// `critic loadgen` drives open-loop load against a running `critic
/// serve` (or `critic router`): N concurrent clients each sending
/// `--requests` submissions from a seeded app × scheme mix at `--rate` per
/// second, reporting latency percentiles, reject/shed counts, and
/// degradation occupancy. `--addr` repeats: client `i` connects to address
/// `i mod len`. `--retries N` resubmits each rejected cell up to N times,
/// honoring the server's `retry_after_ms` hint when one is given (a blind
/// 10 ms backoff otherwise); the report counts hinted vs blind retries
/// separately.
fn run_loadgen_command(args: &Args) -> Result<(), CliError> {
    let addrs: Vec<String> = args.all("--addr").map(String::from).collect();
    let mut config = LoadgenConfig::new(&addrs[0]);
    config.addrs = addrs;
    config.clients = args.num("--clients")?.unwrap_or(config.clients);
    config.requests_per_client = args
        .num("--requests")?
        .unwrap_or(config.requests_per_client);
    config.rate = args.num("--rate")?.unwrap_or(config.rate);
    config.retries = args.num("--retries")?.unwrap_or(0);
    config.seed = args.num("--seed")?.unwrap_or(0);
    config.deadline_ms = args.num("--deadline-ms")?;
    let outcome = loadgen::run_loadgen(&config).map_err(bench_error)?;
    let json = serde_json::to_string_pretty(&outcome.report)
        .map_err(|e| CliError::Io(format!("cannot serialise loadgen report: {e}")))?;
    if args.has("--json") {
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

/// `critic soak` is the supervised service soak: spawns a `critic serve`
/// child under open-loop load and `--sys` fault noise, `SIGKILL`s it
/// mid-load (unless `--no-kill`), audits no-lost-ack against the journal,
/// restarts it, applies a 2× overload burst under a queue monitor, and
/// drains it gracefully. Exit code 12 (report JSON printed) when any
/// invariant broke.
///
/// With `--shards N` (N ≥ 2) it runs the sharded fleet soak instead: it
/// spawns a `critic router` fleet, `SIGKILL`s one shard mid-load, and
/// audits no-lost-ack across the union of shard journals, disk-warm
/// restart via peer `fetch_artifact` (counter must be > 0), zero
/// re-simulation of cells journaled Ok before the kill, bit-identical
/// metrics against a single-process run of the same mix, failover p99
/// under `--max-p99-ms`, and a graceful fleet drain. Exit code 13 on any
/// violation.
fn run_soak_command(args: &Args) -> Result<(), CliError> {
    let seconds = args.num("--seconds")?;
    let clients = args.num::<usize>("--clients")?.map(|n| n.max(1));
    let rate = args.num("--rate")?;
    let seed = args.num("--seed")?.unwrap_or(0);
    let smoke = args.has("--smoke");
    let summary_or_json = |summary: String| (!args.has("--json")).then_some(summary);
    if let Some(shards) = args.num::<u32>("--shards")? {
        if shards < 2 {
            return Err(CliError::Usage(
                "--shards expects at least 2 (use plain `critic soak` for one server)".to_string(),
            ));
        }
        for flag in ["--sys", "--no-kill"] {
            if args.has(flag) {
                return Err(CliError::Usage(format!(
                    "{flag} applies only to the single-server soak: the sharded soak \
                     arms no systemic faults and always kills one shard"
                )));
            }
        }
        let defaults = ShardedSoakConfig::default();
        let config = ShardedSoakConfig {
            seconds: seconds.unwrap_or(defaults.seconds),
            clients: clients.unwrap_or(defaults.clients),
            rate: rate.unwrap_or(defaults.rate),
            shards,
            smoke,
            seed,
            max_p99_ms: args.num("--max-p99-ms")?,
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
        kill: !args.has("--no-kill"),
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

/// `critic chaos` seeds a random schedule of systemic + data faults, drills a smoke
/// campaign under it with the supervision policy armed, and asserts the
/// runner's invariants (accounting, journal-resumable, warm-unfaulted,
/// ledger). On violation the full report — schedule included — is printed
/// as JSON and the exit code is 10; `--minimize` first delta-debugs the
/// schedule to a minimal subset reproducing the violation.
fn run_chaos_command(args: &Args) -> Result<(), CliError> {
    let mut config = ChaosConfig {
        seed: args.num("--seed")?.expect("parse requires --seed"),
        smoke: args.has("--smoke"),
        minimize: args.has("--minimize"),
        ..ChaosConfig::default()
    };
    if let Some(cells) = args.num("--cells")? {
        if cells == 0 {
            return Err(CliError::Usage("--cells must be at least 1".to_string()));
        }
        config.cells = cells;
    }

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

/// `critic drill` is the kill-anywhere recovery drill: for each seeded point, a child
/// `critic campaign` run with a persistent store and a segmented journal
/// is crashed at a planted operation (plus seeded fault noise), restarted
/// with `--resume`, and checked against the durability invariants —
/// accounting, journal-resumable, warm-unfaulted, ledger, **durable-warm**
/// (a restarted campaign is served bit-identical artifacts from disk) and
/// **no-lost-ack** (a cell journaled Ok before the kill is never
/// re-simulated). On violation the report (with the minimal reproducing
/// fault subset under `--minimize`) is printed as JSON and the exit code
/// is 11.
fn run_drill_command(args: &Args) -> Result<(), CliError> {
    let mut config = DrillConfig::default();
    config.seed = args.num("--seed")?.unwrap_or(config.seed);
    if let Some(points) = args.num("--points")? {
        if points == 0 {
            return Err(CliError::Usage("--points must be at least 1".to_string()));
        }
        config.points = points;
    }
    config.smoke = args.has("--smoke");
    config.minimize = args.has("--minimize");

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

/// `critic stats` replays a campaign journal — segments, checkpoints, and the active file,
/// with per-line checksum verification — dedups cells newest-wins on
/// (app, scheme) — the same rule `--resume` applies — and prints the
/// telemetry and store roll-up. More than one journal (repeat `--journal`,
/// or point it at a router's journal directory) switches to the fleet
/// view: a per-shard roll-up line each plus cross-fleet totals, with
/// distinct-cell counting across shards.
fn run_stats_command(args: &Args) -> Result<(), CliError> {
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    for value in args.all("--journal") {
        paths.extend(expand_journal_arg(value)?);
    }
    if paths.len() > 1 {
        return run_fleet_stats(&paths, args.has("--json"));
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

    if args.has("--json") {
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
            print_runs("  ", &report.runs);
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

/// One line per run-tag roll-up, each prefixed by `indent`.
fn print_runs(indent: &str, runs: &[critic_core::journal::RunRollup]) {
    for rollup in runs {
        let tag = match rollup.run {
            Some(tag) => format!("run {tag}"),
            None => "untagged".to_string(),
        };
        println!(
            "{indent}{tag}: {} cells ({} ok, {} failed, {} shed), {} ms",
            rollup.cells, rollup.ok, rollup.failed, rollup.shed, rollup.total_millis
        );
    }
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
                print_runs("    ", &shard.runs);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every command the top-level usage line lists.
    fn commands() -> Vec<String> {
        let line = usage().to_string();
        let list = &line[line.find('<').expect("<") + 1..line.find('>').expect(">")];
        list.split('|').map(String::from).collect()
    }

    fn parse_line(command: &str, line: &str) -> Result<(), CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let synopsis = synopsis(command).unwrap_or_else(|| panic!("no command `{command}`"));
        parse(command, synopsis, &argv).map(drop)
    }

    /// Every `./target/release/critic …` command line in the CI workflow,
    /// with `\` continuations joined and each cut at the first shell
    /// operator or line end.
    fn ci_invocations() -> Vec<String> {
        const BIN: &str = "./target/release/critic";
        include_str!("../../../../.github/workflows/ci.yml")
            .replace("\\\n", " ")
            .split(BIN)
            .skip(1)
            .map(|rest| {
                let end = rest.find(['|', '&', '>', ';', '\n']).unwrap_or(rest.len());
                let words: Vec<&str> = rest[..end].split_whitespace().collect();
                words.join(" ").replace('"', "")
            })
            .collect()
    }

    #[test]
    fn every_ci_invocation_parses_against_the_synopses() {
        let invocations = ci_invocations();
        assert!(
            invocations.len() >= 13,
            "found only {} critic invocations in ci.yml",
            invocations.len()
        );
        for invocation in &invocations {
            let (command, line) = invocation.split_once(' ').unwrap_or((invocation, ""));
            if let Err(e) = parse_line(command, line) {
                panic!("CI runs `critic {invocation}`, which does not parse: {e}");
            }
        }
    }

    #[test]
    fn synopses_read_as_distinct_flags_and_single_word_positionals() {
        for command in commands() {
            let synopsis = synopsis(&command).expect("every listed command has a synopsis");
            let mut names: Vec<&str> = elements(synopsis)
                .into_iter()
                .filter_map(Flag::read)
                .map(|f| f.name)
                .collect();
            let declared = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(declared, names.len(), "`critic {command}` repeats a flag");
            for element in elements(synopsis) {
                assert!(
                    Flag::read(element).is_some()
                        || (element.starts_with(['<', '[']) && !element.contains(' ')),
                    "`critic {command}` has a malformed element `{element}`"
                );
            }
        }
    }

    #[test]
    fn parse_reads_switches_values_repeats_and_positionals() {
        let argv =
            |line: &str| -> Vec<String> { line.split_whitespace().map(String::from).collect() };
        let (disasm, stats) = (argv("Maps f0"), argv("--journal a --json --journal b"));
        let args = parse("disasm", synopsis("disasm").unwrap(), &disasm)
            .ok()
            .expect("parses");
        assert_eq!(args.positionals, ["Maps", "f0"]);
        let args = parse("stats", synopsis("stats").unwrap(), &stats)
            .ok()
            .expect("parses");
        assert_eq!(
            args.entries,
            [
                ("--journal", Some("a")),
                ("--json", None),
                ("--journal", Some("b"))
            ]
        );
        assert_eq!(args.all("--journal").collect::<Vec<_>>(), ["a", "b"]);

        for (command, line) in [
            ("stats", "--json"),
            ("campaign", "--apps --resume"),
            ("disasm", ""),
            ("disasm", "Maps f0 extra"),
            ("router", "--journal-dir d"),
            ("router", "--journal-dir d --store-dir s --sys store-read@1"),
        ] {
            assert!(
                parse_line(command, line).is_err(),
                "`critic {command} {line}` should be refused"
            );
        }
    }
}
