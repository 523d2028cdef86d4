//! The service soak behind `critic soak`: a supervised `critic serve`
//! child under open-loop load and systemic-fault noise, killed with
//! `SIGKILL` mid-load, restarted, overloaded, and drained — with the
//! service-robustness invariants checked at every boundary.
//!
//! The invariants:
//!
//! * **no-lost-ack** — every `done` a client observed before the kill is
//!   present in the journal when the dead server's state is replayed
//!   (ack follows fsync, so a `SIGKILL` can never eat an acknowledged
//!   cell);
//! * **journal-resumable** — the journal replays cleanly after the kill
//!   (a torn tail is truncated, never fatal) and again after the drain;
//! * **bounded-queue** — under 2× overload the server's queue depth,
//!   sampled continuously, never exceeds the configured capacity: load is
//!   shed at admission instead of buffered without bound;
//! * **overload-sheds** — the overload phase produces explicit
//!   rejections carrying non-zero `retry_after_ms` hints (and the clean
//!   phases leave nothing unanswered);
//! * **graceful-drain** — a `shutdown` request drains the server and the
//!   child exits with code 9;
//! * **durable-warm** — the restarted server serves artifacts from disk
//!   (non-zero disk hits), not by re-simulating from scratch.
//!
//! The sharded soak ([`run_sharded_soak`]) adds `shard-restart`,
//! `peer-rebuild`, `no-resimulation`, `bit-identical` and `failover-p99`.
//! Both soaks drive their phases here and check journals, acks and
//! metrics through [`crate::audit`], whose child and scratch guards shut
//! every spawned process down and remove every scratch file on any
//! return path.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use critic_workloads::SysFaultSpec;
use serde::Serialize;

use crate::audit::{self, ensure, violate, BenchError, Metrics, Scratch, Server, Violation, Wire};
use crate::loadgen::{run_loadgen, AckedCell, LoadgenConfig, LoadgenOutcome, LoadgenReport};
use crate::router::{fetch_router_stats, RouterStats};
use crate::serve::ServeStats;

/// One soak invocation's parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Approximate seconds of pre-kill load (the kill lands mid-way).
    pub seconds: u64,
    /// Concurrent loadgen clients.
    pub clients: usize,
    /// Open-loop submissions per second per client.
    pub rate: f64,
    /// `SIGKILL` the server mid-load and restart it (on by default; off
    /// turns the soak into a plain sustained-load run).
    pub kill: bool,
    /// Systemic faults armed in the first server child as fault noise.
    pub sys: Vec<SysFaultSpec>,
    /// Shrink everything for CI smoke and tests.
    pub smoke: bool,
    /// Seed for the loadgen mix.
    pub seed: u64,
    /// The `critic` binary to spawn the server from; defaults to the
    /// current executable (`critic soak` spawns `critic serve`).
    pub binary: Option<PathBuf>,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            seconds: 30,
            clients: 8,
            rate: 4.0,
            kill: true,
            sys: Vec::new(),
            smoke: false,
            seed: 0,
            binary: None,
        }
    }
}

/// The full soak report, serialised as JSON on violation and uploaded as
/// the CI latency artifact.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SoakReport {
    /// Every broken invariant (empty = pass).
    pub violations: Vec<Violation>,
    /// Whether the mid-load `SIGKILL` was delivered.
    pub killed: bool,
    /// `done` replies clients observed before the kill.
    pub acked_before_kill: u64,
    /// Of those, distinct (app, scheme) cells found in the journal after
    /// the kill.
    pub acked_preserved: u64,
    /// Persistent-store disk hits reported by the restarted server after
    /// the warm phase.
    pub disk_hits_after_restart: u64,
    /// Highest queue depth sampled during the overload burst.
    pub peak_queue_depth: u64,
    /// The configured queue capacity the bound is checked against.
    pub queue_capacity: u64,
    /// The restarted server's exit code after the graceful drain.
    pub server_exit_code: Option<i32>,
    /// Pre-kill load phase.
    pub phase_load: LoadgenReport,
    /// Post-restart warm phase.
    pub phase_warm: LoadgenReport,
    /// 2× overload burst against the restarted server.
    pub phase_overload: LoadgenReport,
}

impl SoakReport {
    /// Did every invariant hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Everything the soak derives from its config.
struct SoakPlan {
    admission_rate: u64,
    requests_per_client: usize,
    kill_after: Duration,
    overload_clients: usize,
    overload_rate: f64,
    overload_requests: usize,
}

/// Token rate sized so the normal phases pass and the single soak's
/// overload phase — 2x this rate — must be refused.
fn admission_rate(clients: usize, rate: f64) -> u64 {
    ((clients as f64 * rate) as u64).max(4) * 2
}

fn plan(config: &SoakConfig) -> SoakPlan {
    let seconds = config.seconds.max(2);
    let requests_per_client = ((seconds as f64 * config.rate).ceil() as usize).max(2);
    let admission_rate = admission_rate(config.clients, config.rate);
    SoakPlan {
        admission_rate,
        requests_per_client,
        kill_after: Duration::from_secs(seconds / 2),
        overload_clients: config.clients.max(2),
        overload_rate: (admission_rate as f64 * 2.0) / config.clients.max(2) as f64,
        overload_requests: (admission_rate as usize * 3).clamp(16, 512),
    }
}

/// The queue capacity of every service a soak stands up.
const QUEUE_CAPACITY: u64 = 64;

/// The arguments of a `critic VERB` service child (`serve`, or `router`
/// for its shards): ephemeral port, smoke- or full-size cells, and
/// admission at `rate` with an equal burst.
fn service_args(verb: &str, smoke: bool, rate: u64) -> Vec<String> {
    let (trace_len, workers) = if smoke { (2_000, 2) } else { (4_000, 4) };
    let mut args = vec![verb.to_string(), "--port".to_string(), "0".to_string()];
    for (flag, value) in [
        ("--trace-len", trace_len),
        ("--workers", workers),
        ("--queue", QUEUE_CAPACITY),
        ("--rate", rate),
        ("--burst", rate),
    ] {
        args.extend([flag.to_string(), value.to_string()]);
    }
    args
}

/// `FLAG PATH` as child arguments.
fn path_arg(flag: &str, path: &Path) -> [String; 2] {
    [flag.to_string(), path.to_string_lossy().into_owned()]
}

/// Polls `{"stats":true}` on its own connection every few milliseconds
/// until `stop`, tracking the highest queue depth seen.
fn spawn_queue_monitor(
    addr: String,
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let Some(mut wire) = Wire::connect(&addr) else {
            return;
        };
        while !stop.load(Ordering::SeqCst) {
            let Some(stats) = wire.stats() else {
                return;
            };
            peak.fetch_max(stats.queue_depth, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(10));
        }
    })
}

/// One stats exchange on a fresh connection.
fn fetch_stats(addr: &str) -> Option<ServeStats> {
    Wire::connect(addr)?.stats()
}

/// Runs the `load` phase and, `after` into it, `kill`; returns the load's
/// outcome (empty if the load failed) with what `kill` returned.
fn load_across<T>(
    load: &LoadgenConfig,
    after: Duration,
    kill: impl FnOnce() -> T,
) -> Result<(LoadgenOutcome, T), BenchError> {
    thread::scope(|scope| {
        let loadgen = scope.spawn(|| run_loadgen(load));
        thread::sleep(after);
        let killed = kill();
        let outcome = loadgen
            .join()
            .map_err(|_| BenchError::Io("loadgen thread panicked".to_string()))?;
        Ok((outcome.unwrap_or_default(), killed))
    })
}

/// Files `accounting` when a phase left submissions unanswered.
fn check_answered(phase: &LoadgenReport, name: &str, violations: &mut Vec<Violation>) {
    let detail = format!(
        "{} {name} submissions got neither a rejection nor a result",
        phase.unanswered
    );
    ensure(phase.unanswered == 0, violations, "accounting", detail);
}

/// Files `kill-mid-load` when no ack predates the kill.
fn check_acked_before_kill(acked: u64, violations: &mut Vec<Violation>) {
    let detail = "the SIGKILL landed before any cell was acknowledged; \
                  the no-lost-ack check would be vacuous";
    ensure(acked > 0, violations, "kill-mid-load", detail);
}

/// Files `graceful-drain` unless the drained child exited 9.
fn check_drained(code: Option<i32>, who: &str, violations: &mut Vec<Violation>) {
    let detail = format!("expected {who}exit code 9 after a graceful drain, got {code:?}");
    ensure(code == Some(9), violations, "graceful-drain", detail);
}

/// Runs the full soak: load → `SIGKILL` → no-lost-ack audit → restart →
/// warm load → 2× overload under a queue monitor → graceful drain.
///
/// # Errors
///
/// Harness failures (unspawnable child, unusable scratch dir) are
/// [`BenchError::Io`]; *invariant* violations are not errors — they are
/// collected in the report for the caller to turn into exit code 12.
pub fn run_soak(config: &SoakConfig) -> Result<SoakReport, BenchError> {
    let binary = audit::own_binary(config.binary.as_ref())?;
    let plan = plan(config);
    let scratch = Scratch::new("soak")?;
    let journals = [scratch.join("serve.jsonl")];
    let serve = |run_tag: u64, sys: &[SysFaultSpec]| {
        let mut args = service_args("serve", config.smoke, plan.admission_rate);
        args.extend([
            "--run-tag".to_string(),
            run_tag.to_string(),
            "--stats".to_string(),
        ]);
        args.extend(path_arg("--journal", &journals[0]));
        args.extend(path_arg("--store-dir", &scratch.join("store")));
        args.extend(sys.iter().flat_map(|s| ["--sys".to_string(), s.render()]));
        Server::spawn(&binary, &args)
    };

    let mut report = SoakReport {
        queue_capacity: QUEUE_CAPACITY,
        ..SoakReport::default()
    };

    // Phase 1: load, killed mid-way.
    let mut server = serve(0, &config.sys)?;
    let mut load_config = LoadgenConfig::new(&server.addr);
    load_config.clients = config.clients;
    load_config.requests_per_client = plan.requests_per_client;
    load_config.rate = config.rate;
    load_config.seed = config.seed;
    load_config.drain_timeout = Duration::from_secs(config.seconds.max(10) * 2);
    let load_outcome = if config.kill {
        let (outcome, killed) = load_across(&load_config, plan.kill_after, || server.kill())?;
        report.killed = killed;
        outcome
    } else {
        let outcome = run_loadgen(&load_config)?;
        report.server_exit_code = server.shutdown();
        outcome
    };
    report.acked_before_kill = load_outcome.acked.len() as u64;
    report.phase_load = load_outcome.report.clone();
    if config.kill {
        check_acked_before_kill(report.acked_before_kill, &mut report.violations);
    }

    // Between kill and restart: the dead server's journal must replay and
    // contain every acknowledged cell.
    let newest = audit::replay(&journals, &mut report.violations);
    report.acked_preserved = audit::no_lost_ack(
        &audit::client_acks(&load_outcome.acked),
        &newest,
        &mut report.violations,
    );

    if !config.kill {
        return Ok(report);
    }

    // Restart (run tag 1, no fault noise) and warm the store back up with
    // the same mix: the disk tier must serve it.
    let mut server = serve(1, &[])?;
    let mut warm_config = load_config.clone();
    warm_config.addrs = vec![server.addr.clone()];
    warm_config.requests_per_client = (plan.requests_per_client / 2).max(2);
    report.phase_warm = run_loadgen(&warm_config)?.report;
    check_answered(&report.phase_warm, "warm-phase", &mut report.violations);
    match fetch_stats(&server.addr) {
        Some(stats) => {
            report.disk_hits_after_restart = stats.disk_hits;
            let detail = "the restarted server reported zero disk hits; the \
                          persistent store served nothing";
            ensure(
                stats.disk_hits > 0,
                &mut report.violations,
                "durable-warm",
                detail,
            );
        }
        None => violate(
            &mut report.violations,
            "durable-warm",
            "cannot fetch stats from the restarted server",
        ),
    }

    // 2x overload under a continuous queue monitor: the queue must stay
    // bounded and the excess must be rejected with retry hints.
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicU64::new(0));
    let monitor = spawn_queue_monitor(server.addr.clone(), Arc::clone(&stop), Arc::clone(&peak));
    let mut overload_config = warm_config.clone();
    overload_config.clients = plan.overload_clients;
    overload_config.rate = plan.overload_rate;
    overload_config.requests_per_client = plan.overload_requests / plan.overload_clients.max(1);
    overload_config.seed = config.seed.wrapping_add(1);
    let overload = run_loadgen(&overload_config);
    stop.store(true, Ordering::SeqCst);
    let _ = monitor.join();
    report.phase_overload = overload?.report;
    report.peak_queue_depth = peak.load(Ordering::SeqCst);
    let detail = format!(
        "queue depth reached {} against a capacity of {}",
        report.peak_queue_depth, QUEUE_CAPACITY
    );
    let bounded = report.peak_queue_depth <= QUEUE_CAPACITY;
    ensure(bounded, &mut report.violations, "bounded-queue", detail);
    let overload = &report.phase_overload;
    let detail = if overload.rejected == 0 {
        "2x overload produced zero rejections; admission control is not engaging"
    } else {
        "rejections carried no retry_after hint"
    };
    let held = overload.rejected > 0 && overload.mean_retry_after_ms > 0.0;
    ensure(held, &mut report.violations, "overload-sheds", detail);
    check_answered(&report.phase_overload, "overload", &mut report.violations);

    // Graceful drain: the wire shutdown must end in exit code 9, and the
    // journal written across both lives still replays.
    report.server_exit_code = server.shutdown();
    check_drained(report.server_exit_code, "", &mut report.violations);
    audit::replay(&journals, &mut report.violations);
    Ok(report)
}

// ---------------------------------------------------------------------------
// Sharded soak: kill one of N shards behind `critic router` mid-load.
// ---------------------------------------------------------------------------

/// One sharded-soak invocation's parameters (`critic soak --shards N`).
#[derive(Debug, Clone)]
pub struct ShardedSoakConfig {
    /// Approximate seconds of pre-kill load (the kill lands mid-way).
    pub seconds: u64,
    /// Concurrent loadgen clients.
    pub clients: usize,
    /// Open-loop submissions per second per client.
    pub rate: f64,
    /// Shard fleet size behind the router.
    pub shards: u32,
    /// Shrink everything for CI smoke and tests.
    pub smoke: bool,
    /// Seed for the loadgen mix.
    pub seed: u64,
    /// The `critic` binary to spawn the router (and, transitively, the
    /// shards) from; defaults to the current executable.
    pub binary: Option<PathBuf>,
    /// Failover p99 ceiling, milliseconds: the pre-kill load phase spans
    /// the kill, so its p99 *is* the failover p99.
    pub max_p99_ms: Option<f64>,
}

impl Default for ShardedSoakConfig {
    fn default() -> ShardedSoakConfig {
        ShardedSoakConfig {
            seconds: 30,
            clients: 6,
            rate: 4.0,
            shards: 3,
            smoke: false,
            seed: 0,
            binary: None,
            max_p99_ms: None,
        }
    }
}

/// The sharded-soak report; violations turn into exit code 13.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ShardedSoakReport {
    /// Every broken invariant (empty = pass).
    pub violations: Vec<Violation>,
    /// Which shard was `SIGKILL`ed.
    pub killed_shard: Option<u32>,
    /// `done` replies clients observed strictly before the kill.
    pub acked_before_kill: u64,
    /// Of those, distinct (app, scheme) cells found across the shard
    /// journals afterwards.
    pub acked_preserved: u64,
    /// Artifacts the killed shard pulled from peers on restart (the
    /// disk-warm gate: must be > 0).
    pub fetched_artifacts: u64,
    /// Profiles + baselines built from scratch during the warm phase,
    /// summed over the fleet (the zero-re-simulation gate: must be 0).
    pub resimulated: u64,
    /// Router-counted shard restarts (must be ≥ 1).
    pub restarts: u64,
    /// Router-counted in-flight redispatches after the kill.
    pub redispatched: u64,
    /// p99 of the phase spanning the kill, milliseconds.
    pub failover_p99_ms: f64,
    /// (app, scheme) cells whose warm-phase metrics differed from the
    /// single-process oracle run (must be 0).
    pub oracle_mismatches: u64,
    /// Cells compared against the oracle.
    pub oracle_compared: u64,
    /// The router's exit code after the graceful drain (must be 9).
    pub router_exit_code: Option<i32>,
    /// Load phase spanning the kill.
    pub phase_load: LoadgenReport,
    /// Post-restore warm phase (replays the pre-kill acked mix).
    pub phase_warm: LoadgenReport,
    /// The single-process oracle run of the same mix.
    pub phase_single: LoadgenReport,
}

impl ShardedSoakReport {
    /// Did every invariant hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Sum of persistent-store saves over every live shard — the fleet's
/// from-scratch build counter. (`profiles_built` would over-count: the
/// in-memory memo counts disk-warm loads as closure runs, so a freshly
/// restarted shard serving from disk would look like it re-simulated.
/// A save only happens on a genuine from-scratch build.)
fn fleet_builds(stats: &RouterStats) -> u64 {
    stats
        .shards
        .iter()
        .filter_map(|row| row.addr.as_deref())
        .filter_map(fetch_stats)
        .map(|s| s.disk_saves)
        .sum()
}

/// Runs the kill-one-of-N sharded soak: load through the router →
/// `SIGKILL` one shard mid-load → router reroutes and restarts it with
/// peer rebuild → audit no-lost-ack across shard journals, disk-warm via
/// `fetched_artifacts`, zero re-simulation on a warm replay, bit-identical
/// metrics against a single-process oracle, and a graceful fleet drain.
///
/// # Errors
///
/// Harness failures are [`BenchError::Io`]; invariant violations go into
/// the report for the caller to turn into exit code 13.
pub fn run_sharded_soak(config: &ShardedSoakConfig) -> Result<ShardedSoakReport, BenchError> {
    let binary = audit::own_binary(config.binary.as_ref())?;
    let seconds = config.seconds.max(4);
    let admission_rate = admission_rate(config.clients, config.rate);
    let scratch = Scratch::new("shard_soak")?;
    let journal_dir = scratch.join("journals");

    let mut report = ShardedSoakReport::default();

    // Boot the fleet.
    let mut router_args = service_args("router", config.smoke, admission_rate);
    router_args.extend(
        [
            "--shards",
            &config.shards.to_string(),
            "--heartbeat-ms",
            "50",
            "--stats",
        ]
        .map(String::from),
    );
    router_args.extend(path_arg("--journal-dir", &journal_dir));
    router_args.extend(path_arg("--store-dir", &scratch.join("stores")));
    let mut router = Server::spawn(&binary, &router_args)?;

    // Phase 1: load through the router, one shard SIGKILLed mid-way.
    let mut load_config = LoadgenConfig::new(&router.addr);
    load_config.clients = config.clients;
    load_config.requests_per_client = ((seconds as f64 * config.rate).ceil() as usize).max(4);
    load_config.rate = config.rate;
    load_config.seed = config.seed;
    load_config.retries = 3;
    load_config.drain_timeout = Duration::from_secs(seconds.max(10) * 2);
    let phase_start = Instant::now();
    let (load_outcome, killed) =
        load_across(&load_config, Duration::from_secs(seconds / 2), || {
            let stats = fetch_router_stats(&router.addr).ok()?;
            let row = stats.shards.iter().find(|r| r.up && r.pid.is_some())?;
            // std::process cannot signal an arbitrary pid; /bin/kill delivers
            // the SIGKILL the soak is about.
            let delivered = Command::new("/bin/kill")
                .args(["-9", &row.pid.unwrap_or_default().to_string()])
                .status()
                .is_ok_and(|s| s.success());
            delivered.then(|| (row.shard, phase_start.elapsed().as_millis() as u64))
        })?;
    report.phase_load = load_outcome.report.clone();
    report.failover_p99_ms = report.phase_load.p99_ms;
    let Some((killed_shard, kill_offset_ms)) = killed else {
        violate(
            &mut report.violations,
            "kill-mid-load",
            "could not SIGKILL a shard mid-load",
        );
        return Ok(report);
    };
    report.killed_shard = Some(killed_shard);

    // Only acks that landed comfortably before the kill are known to have
    // completed while every shard was up; the 250 ms margin absorbs the
    // clock skew between the soak's phase timer and loadgen's epoch.
    let acked_before_kill: Vec<&AckedCell> = load_outcome
        .acked
        .iter()
        .filter(|a| a.acked_at_ms + 250 < kill_offset_ms)
        .collect();
    report.acked_before_kill = acked_before_kill.len() as u64;
    check_acked_before_kill(report.acked_before_kill, &mut report.violations);
    check_answered(
        &report.phase_load,
        "load-phase (across the kill)",
        &mut report.violations,
    );

    // No-lost-ack across the union of shard journals: the kill must not
    // have eaten anything a client saw acknowledged.
    let journals: Vec<PathBuf> = (0..config.shards)
        .map(|s| journal_dir.join(format!("shard-{s}.jsonl")))
        .collect();
    let newest = audit::replay(&journals, &mut report.violations);
    report.acked_preserved = audit::no_lost_ack(
        &audit::client_acks(acked_before_kill.iter().copied()),
        &newest,
        &mut report.violations,
    );

    // Wait for the router to restore the killed shard (backoff restart +
    // peer rebuild both happen before its banner).
    let restore_deadline = Instant::now() + Duration::from_secs(60);
    let mut fleet = None;
    while Instant::now() < restore_deadline {
        if let Ok(stats) = fetch_router_stats(&router.addr) {
            if stats.shards.iter().all(|r| r.up) && stats.restarts >= 1 {
                fleet = Some(stats);
                break;
            }
        }
        thread::sleep(Duration::from_millis(50));
    }
    let Some(fleet) = fleet else {
        violate(
            &mut report.violations,
            "shard-restart",
            "the killed shard did not come back up within 60 s",
        );
        return Ok(report);
    };
    report.restarts = fleet.restarts;
    report.redispatched = fleet.redispatched;

    // Disk-warm gate: the restarted shard must have pulled artifacts from
    // its peers, not come back cold.
    let killed_addr = fleet
        .shards
        .iter()
        .find(|r| r.shard == killed_shard)
        .and_then(|r| r.addr.as_deref());
    match killed_addr.and_then(fetch_stats) {
        Some(stats) => {
            report.fetched_artifacts = stats.fetched_artifacts;
            let detail = "the restarted shard fetched zero artifacts from its peers";
            ensure(
                stats.fetched_artifacts > 0,
                &mut report.violations,
                "peer-rebuild",
                detail,
            );
        }
        _ => violate(
            &mut report.violations,
            "peer-rebuild",
            "cannot fetch stats from the restarted shard",
        ),
    }

    // Warm replay of exactly the pre-kill acked mix: the fleet must serve
    // it all from disk — zero profiles or baselines built from scratch.
    let pairs: Vec<(String, String)> = acked_before_kill
        .iter()
        .map(|a| (a.app.clone(), a.scheme.clone()))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let builds_before = fleet_builds(&fleet);
    let mut warm_config = load_config.clone();
    warm_config.requests_per_client = (pairs.len() * 2).clamp(4, 64);
    warm_config.pairs = pairs;
    warm_config.seed = config.seed.wrapping_add(1);
    let warm_outcome = run_loadgen(&warm_config)?;
    report.phase_warm = warm_outcome.report.clone();
    check_answered(&report.phase_warm, "warm-phase", &mut report.violations);
    let builds_after = fetch_router_stats(&router.addr).map_or(builds_before, |s| fleet_builds(&s));
    report.resimulated = builds_after.saturating_sub(builds_before);
    let detail = format!(
        "{} profiles/baselines were rebuilt from scratch while \
         replaying cells journaled Ok before the kill",
        report.resimulated
    );
    ensure(
        report.resimulated == 0,
        &mut report.violations,
        "no-resimulation",
        detail,
    );

    // Bit-identical oracle: a fresh single-process server running the same
    // mix must produce exactly the same metrics per (app, scheme).
    let mut oracle_args = service_args("serve", config.smoke, admission_rate);
    oracle_args.extend(path_arg("--journal", &scratch.join("oracle.jsonl")));
    oracle_args.extend(path_arg("--store-dir", &scratch.join("oracle-store")));
    let mut oracle = Server::spawn(&binary, &oracle_args)?;
    let mut oracle_config = warm_config.clone();
    oracle_config.addrs = vec![oracle.addr.clone()];
    let oracle_outcome = run_loadgen(&oracle_config)?;
    oracle.shutdown();
    report.phase_single = oracle_outcome.report.clone();
    let key = |a: &AckedCell| (a.app.clone(), a.scheme.clone());
    let sharded: Metrics = warm_outcome
        .acked
        .iter()
        .filter(|a| a.degraded == 0)
        .filter_map(|a| Some((key(a), a.metrics.clone()?)))
        .collect();
    let compared: Vec<_> = oracle_outcome
        .acked
        .iter()
        .filter(|a| a.degraded == 0 && a.metrics.is_some() && sharded.contains_key(&key(a)))
        .map(|a| (key(a), a.metrics.as_ref()))
        .collect();
    report.oracle_compared = compared.len() as u64;
    report.oracle_mismatches = audit::check_metrics(
        &sharded,
        compared,
        "bit-identical",
        "the sharded fleet's run of the same mix",
        &mut report.violations,
    );
    let detail = "no cell could be compared against the single-process oracle";
    ensure(
        report.oracle_compared > 0,
        &mut report.violations,
        "bit-identical",
        detail,
    );

    // Failover p99 gate, when asked for.
    if let Some(ceiling) = config.max_p99_ms {
        let detail = format!(
            "p99 across the kill was {:.1} ms against a {ceiling:.1} ms ceiling",
            report.failover_p99_ms
        );
        let held = report.failover_p99_ms <= ceiling;
        ensure(held, &mut report.violations, "failover-p99", detail);
    }

    // Graceful fleet drain: shards checkpoint and exit 9, then the router
    // exits 9.
    report.router_exit_code = router.shutdown();
    check_drained(report.router_exit_code, "router ", &mut report.violations);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_scales_overload_to_double_the_admission_rate() {
        let config = SoakConfig {
            clients: 8,
            rate: 4.0,
            ..SoakConfig::default()
        };
        let plan = plan(&config);
        assert_eq!(plan.admission_rate, 64);
        let total_overload = plan.overload_rate * plan.overload_clients as f64;
        assert!(
            (total_overload - 2.0 * plan.admission_rate as f64).abs() < 1e-6,
            "overload must be 2x the token rate, got {total_overload}"
        );
        assert!(plan.requests_per_client >= 2);
    }
}
