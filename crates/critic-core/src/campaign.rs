//! The fault-tolerant campaign runner: an app × design-point grid with
//! per-cell panic isolation, deadlines, bounded retry, and a JSONL journal
//! for checkpoint/resume.
//!
//! A *campaign* evaluates every scheme of interest over every app of one
//! or more suites — the full-evaluation shape behind the paper's Figs. 10,
//! 11 and 13. One pathological cell (a generator edge case, a corrupted
//! profile, a runaway simulation) must not take the other 79 cells down
//! with it, so each cell runs behind [`std::panic::catch_unwind`] on its
//! own attempt thread, bounded by a per-attempt deadline and a retry
//! budget. Every finished cell is appended to a JSONL journal and the
//! journal is replayed on `--resume`, so a killed campaign continues where
//! it stopped instead of starting over.

use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use critic_obs::{EventKind, SpanKind, Telemetry, TelemetrySnapshot};
use critic_workloads::{
    inject_program, inject_trace, validate_stream, AppSpec, ExecutionPath, Fault, FaultTarget,
    InjectError, StreamConfig, SysFault, SysInjector, SysOp, Trace, TraceStream, DEFAULT_LOOKAHEAD,
    DEFAULT_STREAM_WINDOW,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::design::DesignPoint;
use crate::error::RunError;
use crate::journal::Journal;
use crate::keys;
use crate::lock_clean;
use crate::runner::{ValidationStats, Workbench};
use crate::service::{Breaker, BreakerDecision};
use crate::store::{ArtifactStore, StoreStats};

/// One named software/hardware configuration of the campaign grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scheme {
    /// Short stable name (journal key; e.g. `critic`, `opp16`).
    pub name: String,
    /// The design point it runs.
    pub point: DesignPoint,
}

impl Scheme {
    /// Convenience constructor.
    pub fn new(name: &str, point: DesignPoint) -> Scheme {
        Scheme {
            name: name.to_string(),
            point,
        }
    }
}

/// A fault to inject into one specific cell (for harness validation and
/// robustness drills).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedFault {
    /// App name the fault applies to (case-insensitive match).
    pub app: String,
    /// Scheme name the fault applies to.
    pub scheme: String,
    /// What to corrupt.
    pub fault: Fault,
    /// Seed steering the injection site.
    pub seed: u64,
}

/// The supervision policy a campaign runs its retry loop under. The
/// default is a strict no-op — no backoff, no breaker, no degradation —
/// so existing campaigns behave exactly as before opting in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionPolicy {
    /// First-retry backoff in milliseconds; doubles per retry. 0 disables
    /// backoff entirely.
    pub backoff_base_millis: u64,
    /// Hard upper bound on any single backoff delay (jitter included).
    pub backoff_cap_millis: u64,
    /// Seed for the deterministic backoff jitter. The same seed, app, and
    /// scheme always produce the same delay schedule.
    pub backoff_seed: u64,
    /// Consecutive terminal cell failures of one *app* that trip its
    /// circuit breaker; once open, the app's remaining cells are shed
    /// with [`CellStatus::Shed`] records. 0 disables the breaker.
    ///
    /// The grid has exactly one cell per (app, scheme), so a pair-keyed
    /// breaker could never see two consecutive failures; the app is the
    /// shared resource (its generated world) and is the breaker key.
    pub breaker_threshold: u32,
    /// Walk the degradation ladder between failed attempts: first drop
    /// validation, then drop telemetry, then fall back to the baseline
    /// scheme. Each step is counted as an [`EventKind::Degrade`] and the
    /// final level is recorded on the cell.
    pub degrade: bool,
}

impl SupervisionPolicy {
    /// The exponential-backoff delay (milliseconds) before each of the
    /// cell's `retries` retry attempts: `min(cap, base * 2^k)` jittered
    /// deterministically into `[delay/2, delay]` by a [`StdRng`] seeded
    /// from `(backoff_seed, app, scheme)`. Every delay is `<= cap`, and
    /// the same inputs always produce the same schedule.
    pub fn backoff_schedule(&self, app: &str, scheme: &str, retries: u32) -> Vec<u64> {
        if self.backoff_base_millis == 0 || retries == 0 {
            return vec![0; retries as usize];
        }
        // FNV-1a (the store's content hash) folds the cell identity into
        // the jitter seed.
        let key = keys::fnv1a_fold(keys::FNV_OFFSET, format!("{app}:{scheme}").as_bytes());
        let mut rng = StdRng::seed_from_u64(self.backoff_seed ^ key);
        (0..retries)
            .map(|k| {
                let raw = self
                    .backoff_base_millis
                    .saturating_mul(1u64 << k.min(20) as u64);
                let delay = raw.min(self.backoff_cap_millis);
                if delay == 0 {
                    0
                } else {
                    delay / 2 + rng.gen_range(0..=delay - delay / 2)
                }
            })
            .collect()
    }
}

/// The full description of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Apps to evaluate (rows of the grid).
    pub apps: Vec<AppSpec>,
    /// Schemes to evaluate (columns of the grid).
    pub schemes: Vec<Scheme>,
    /// Dynamic instructions per recorded execution.
    pub trace_len: usize,
    /// Per-attempt wall-clock budget; `None` disables the deadline.
    pub deadline: Option<Duration>,
    /// Extra attempts after the first failure (0 = fail fast).
    pub retries: u32,
    /// Worker threads; 0 picks the machine's parallelism.
    pub workers: usize,
    /// Faults to inject into specific cells.
    pub faults: Vec<PlannedFault>,
    /// JSONL journal path; `None` disables journaling (and resume).
    pub journal: Option<PathBuf>,
    /// Skip cells already journaled as [`CellStatus::Ok`]; failed,
    /// timed-out, and panicked cells are retried (their newest record
    /// supersedes the journaled one in the summary).
    pub resume: bool,
    /// Run every scheme cell through the translation-validation oracle
    /// ([`Workbench::try_run_validated`]): miscompiled chains are demoted
    /// and counted in the cell's [`ValidationStats`]; divergences that
    /// survive demotion fail the cell with [`RunError::Validation`].
    pub validate: bool,
    /// Campaign-wide telemetry sink. [`CampaignSpec::new`] seeds it from
    /// the `CRITIC_TELEMETRY` environment variable; when enabled, every
    /// cell records its stage spans into a private recorder (journaled on
    /// its [`CellRecord`]) and the campaign aggregate lands on the
    /// [`CampaignSummary`] and as a trailing journal line. When disabled
    /// (the default) the instrumented paths reduce to one branch per span.
    pub telemetry: Telemetry,
    /// Supervision policy: backoff between retries, circuit breaker,
    /// degradation ladder. The default is a no-op.
    pub supervision: SupervisionPolicy,
    /// Systemic-fault injector (chaos harness). When armed, the campaign's
    /// tap points — journal appends, store requests, attempt starts, cell
    /// completions — consult it; `None` (the default) costs one branch.
    pub sys: Option<Arc<SysInjector>>,
    /// Root of the persistent artifact store; `None` (the default) keeps
    /// the store purely in-memory. [`run_campaign`] opens the disk tier
    /// here, so a *restarted* campaign over the same directory is warm
    /// from its first cell.
    pub store_dir: Option<PathBuf>,
    /// Byte budget for the persistent store's entries (`None` =
    /// unbounded); the oldest entries are LRU-evicted over budget.
    pub store_budget: Option<u64>,
    /// Cell records per journal segment before it is rolled into a
    /// checkpointed segment and compacted; `0` (the default) disables
    /// segmentation — one unbounded journal file, the original format.
    pub segment_max_lines: usize,
    /// Tag stamped on every cell record this run journals (the recovery
    /// drill uses monotonically increasing tags to prove a journaled-Ok
    /// cell is never re-simulated after a crash). `None` journals no tag.
    pub run_tag: Option<u64>,
    /// The window of the bounded-memory streaming trace pipeline every
    /// cell's data-oriented simulations and profile folds run through
    /// ([`Workbench::from_recording`]); `None` (the default) means
    /// [`DEFAULT_STREAM_WINDOW`]. The window only tunes memory against
    /// per-window work: results are bit-identical at every window, and a
    /// cell's expansion/simulation allocations are O(window), not
    /// O(trace_len). Every cell that runs streams: a trace-targeted fault
    /// cell ends at its trace check and simulates nothing.
    pub stream_window: Option<usize>,
}

impl CampaignSpec {
    /// A campaign over `apps` × `schemes` with journaling and resume off,
    /// no deadline, no retries, and automatic worker count.
    pub fn new(apps: Vec<AppSpec>, schemes: Vec<Scheme>, trace_len: usize) -> CampaignSpec {
        CampaignSpec {
            apps,
            schemes,
            trace_len,
            deadline: None,
            retries: 0,
            workers: 0,
            faults: Vec::new(),
            journal: None,
            resume: false,
            validate: false,
            telemetry: Telemetry::from_env(),
            supervision: SupervisionPolicy::default(),
            sys: None,
            store_dir: None,
            store_budget: None,
            segment_max_lines: 0,
            run_tag: None,
            stream_window: None,
        }
    }
}

/// Terminal status of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// The cell produced a result.
    Ok,
    /// Every attempt returned a typed error.
    Failed,
    /// Every attempt blew the deadline.
    TimedOut,
    /// The final attempt panicked (trapped at the isolation boundary).
    Panicked,
    /// The cell never ran: its app's circuit breaker was open, or a
    /// graceful shutdown drained the queue. Resume reruns shed cells.
    Shed,
}

/// The metrics a successful cell contributes (the campaign-level subset of
/// [`RunOutcome`]; the full outcome stays in memory, not in the journal).
///
/// [`RunOutcome`]: crate::runner::RunOutcome
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellMetrics {
    /// Speedup over the same app's baseline run.
    pub speedup: f64,
    /// CPU energy saving vs baseline (fraction).
    pub cpu_energy_saving: f64,
    /// Fraction of dynamic instructions fetched 16-bit.
    pub thumb_dyn_frac: f64,
    /// Dynamic instructions executed.
    pub dyn_insns: usize,
}

/// One journaled cell: identity, terminal status, and either metrics or
/// the error that killed it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// App name.
    pub app: String,
    /// Scheme name.
    pub scheme: String,
    /// Terminal status.
    pub status: CellStatus,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Wall-clock of the final attempt, in milliseconds.
    pub millis: u64,
    /// Fault injected into this cell, if any.
    pub fault: Option<Fault>,
    /// Metrics, when `status == Ok`.
    pub metrics: Option<CellMetrics>,
    /// The final attempt's error, when `status != Ok`.
    pub error: Option<RunError>,
    /// Per-cell translation-validation stats, when the campaign ran with
    /// [`CampaignSpec::validate`]. Absent in journals written before
    /// validation existed (and when validation is off), so old journals
    /// still resume.
    pub validation: Option<ValidationStats>,
    /// Per-cell telemetry (stage spans and fault/retry/demotion events),
    /// when the campaign ran with telemetry enabled. Absent otherwise and
    /// in journals written before telemetry existed, so old journals still
    /// resume.
    pub spans: Option<TelemetrySnapshot>,
    /// The degradation-ladder level the cell finished at (1 = validation
    /// dropped, 2 = telemetry also dropped, 3 = baseline-scheme fallback),
    /// when the supervisor degraded it. `None` for undegraded cells and in
    /// journals written before the supervision layer existed.
    pub degraded: Option<u8>,
    /// The [`CampaignSpec::run_tag`] of the invocation that produced this
    /// record. `None` for untagged runs and in journals written before the
    /// durability layer existed, so old journals still resume.
    pub run: Option<u64>,
}

impl CellRecord {
    fn key(&self) -> (String, String) {
        (self.app.clone(), self.scheme.clone())
    }

    /// A [`CellStatus::Shed`] record for a cell that never ran. The record
    /// carries the reason as [`RunError::Shed`] so nothing is silently
    /// dropped: Ok + Failed + Shed always sums to the grid.
    pub(crate) fn shed(
        app: &str,
        scheme: &str,
        fault: Option<Fault>,
        reason: String,
        run: Option<u64>,
    ) -> CellRecord {
        CellRecord {
            app: app.to_string(),
            scheme: scheme.to_string(),
            status: CellStatus::Shed,
            attempts: 0,
            millis: 0,
            fault,
            metrics: None,
            error: Some(RunError::Shed(reason)),
            validation: None,
            spans: None,
            degraded: None,
            run,
        }
    }
}

/// Aggregate of a finished (or resumed-and-finished) campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Every cell of the grid, in (app, scheme) order, including cells
    /// replayed from the journal on resume.
    pub records: Vec<CellRecord>,
    /// Cells replayed from the journal rather than run this invocation.
    pub resumed: usize,
    /// Campaign-wide telemetry aggregate (the sum of every fresh cell's
    /// spans and events), when the campaign ran with telemetry enabled.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Whether a graceful shutdown (an injected [`SysFault::Kill`]) drained
    /// the campaign before every cell ran. Shed cells still appear in
    /// `records`, and the CLI maps this flag to its own exit code so
    /// scripts can tell an interrupted grid from a completed one.
    pub interrupted: bool,
}

impl CampaignSummary {
    /// Cells that did not finish with [`CellStatus::Ok`].
    pub fn failed(&self) -> Vec<&CellRecord> {
        self.records
            .iter()
            .filter(|r| r.status != CellStatus::Ok)
            .collect()
    }

    /// Cells shed without running (open breaker or graceful shutdown).
    pub fn shed(&self) -> Vec<&CellRecord> {
        self.records
            .iter()
            .filter(|r| r.status == CellStatus::Shed)
            .collect()
    }

    /// Whether every cell succeeded.
    pub fn all_ok(&self) -> bool {
        self.records.iter().all(|r| r.status == CellStatus::Ok)
    }

    /// Cells whose final error was a translation-validation failure — a
    /// divergence the demotion loop could not attribute or resolve. The
    /// CLI maps a non-empty result to its dedicated exit code.
    pub fn validation_failures(&self) -> Vec<&CellRecord> {
        self.records
            .iter()
            .filter(|r| matches!(r.error, Some(RunError::Validation(_))))
            .collect()
    }

    /// Human-readable report: one line per cell plus a failure roll-up.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let tag = match r.status {
                CellStatus::Ok => "ok",
                CellStatus::Failed => "FAILED",
                CellStatus::TimedOut => "TIMEOUT",
                CellStatus::Panicked => "PANICKED",
                CellStatus::Shed => "SHED",
            };
            let validation = match &r.validation {
                Some(v) if v.chains_demoted > 0 => {
                    format!(
                        "  [validated: {}/{} chains demoted]",
                        v.chains_demoted, v.chains_checked
                    )
                }
                Some(v) => format!("  [validated: {} chains]", v.chains_checked),
                None => String::new(),
            };
            let validation = match r.degraded {
                Some(level) => format!("{validation}  [degraded: level {level}]"),
                None => validation,
            };
            match (&r.metrics, &r.error) {
                (Some(m), _) => out.push_str(&format!(
                    "  {:12} {:14} {:8} speedup {:+.2}%  thumb {:4.1}%  ({} ms{}){}\n",
                    r.app,
                    r.scheme,
                    tag,
                    (m.speedup - 1.0) * 100.0,
                    m.thumb_dyn_frac * 100.0,
                    r.millis,
                    if r.attempts > 1 {
                        format!(", {} attempts", r.attempts)
                    } else {
                        String::new()
                    },
                    validation,
                )),
                (None, Some(e)) => {
                    out.push_str(&format!("  {:12} {:14} {:8} {}\n", r.app, r.scheme, tag, e))
                }
                (None, None) => {
                    out.push_str(&format!("  {:12} {:14} {:8}\n", r.app, r.scheme, tag))
                }
            }
        }
        let failed = self.failed();
        if failed.is_empty() {
            out.push_str(&format!(
                "campaign complete: all {} cells ok",
                self.records.len()
            ));
        } else {
            out.push_str(&format!(
                "campaign complete: {}/{} cells FAILED:",
                failed.len(),
                self.records.len()
            ));
            for r in failed {
                out.push_str(&format!("\n  {}:{}", r.app, r.scheme));
            }
        }
        if self.resumed > 0 {
            out.push_str(&format!("\n({} cells resumed from journal)", self.resumed));
        }
        if self.interrupted {
            out.push_str("\n(campaign interrupted by graceful shutdown; resume to finish)");
        }
        if let Some(telemetry) = &self.telemetry {
            out.push_str("\ntelemetry:\n");
            out.push_str(&telemetry.render());
        }
        out
    }
}

/// The trailing journal line a telemetry-enabled campaign appends after
/// its cell records: the campaign-wide aggregate under a key no
/// [`CellRecord`] has, so resume skips it and `critic stats` finds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignTelemetryRecord {
    /// The aggregate snapshot.
    pub campaign_telemetry: TelemetrySnapshot,
}

/// The journal trailer a persistent-store campaign appends *before* the
/// telemetry trailer (which stays the journal's last line): the final
/// store counters, including the disk tier's, under a key no
/// [`CellRecord`] has — resume skips it, `critic stats` reads it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignStoreRecord {
    /// The store counter snapshot at campaign end.
    pub campaign_store: StoreStats,
}

/// One unit of work: an app × scheme pair plus its planned fault.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    pub(crate) app: AppSpec,
    pub(crate) scheme: Scheme,
    pub(crate) fault: Option<(Fault, u64)>,
}

/// Per-attempt allocation budget (an injected [`SysFault::AllocBudget`]).
/// Pipeline stages charge their dominant allocations against it; the
/// charge that crosses the budget fails the attempt with
/// [`RunError::Sys`], modelling an OOM kill without actually exhausting
/// the host.
struct AllocMeter {
    budget: u64,
    charged: AtomicU64,
}

impl AllocMeter {
    fn new(budget: u64) -> AllocMeter {
        AllocMeter {
            budget,
            charged: AtomicU64::new(0),
        }
    }

    fn charge(&self, bytes: u64) -> Result<(), RunError> {
        let total = self.charged.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if total > self.budget {
            Err(RunError::Sys(SysFault::AllocBudget { bytes: self.budget }))
        } else {
            Ok(())
        }
    }
}

/// Runs the campaign to completion. Individual cell failures never abort
/// the grid; they are journaled and reported in the summary. The only
/// campaign-level errors are an unusable journal or an unusable persistent
/// store directory.
///
/// With [`CampaignSpec::store_dir`] set, the campaign runs over a
/// [`ArtifactStore::persistent`] store rooted there: artifacts built this
/// run spill to disk, and a restarted campaign (same directory) serves
/// them back without re-simulating — the *durable-warm* property the
/// recovery drill proves.
pub fn run_campaign(spec: &CampaignSpec) -> Result<CampaignSummary, RunError> {
    let store = match &spec.store_dir {
        Some(dir) => ArtifactStore::persistent(dir, spec.store_budget, spec.telemetry.clone())
            .map_err(|e| RunError::Store(e.to_string()))?,
        None => ArtifactStore::new(),
    };
    run_campaign_with_store(spec, &Arc::new(store))
}

/// [`run_campaign`] over a caller-owned [`ArtifactStore`].
///
/// Cells share recordings, profile folds, profiles, baseline simulations,
/// and baseline oracle executions through the store, each computed exactly
/// once per key; fault-injected cells bypass it entirely
/// (they must neither consume pristine artifacts nor contribute corrupted
/// ones). Passing the same store to a second run makes it a *warm* run:
/// results are bit-identical, and nothing is built twice.
pub fn run_campaign_with_store(
    spec: &CampaignSpec,
    store: &Arc<ArtifactStore>,
) -> Result<CampaignSummary, RunError> {
    // A planned fault that matches no grid cell is a spec typo: the
    // campaign would run clean while the caller believes it injected.
    for fault in &spec.faults {
        let matches_cell = spec
            .apps
            .iter()
            .any(|a| fault.app.eq_ignore_ascii_case(&a.name))
            && spec
                .schemes
                .iter()
                .any(|s| fault.scheme.eq_ignore_ascii_case(&s.name));
        if !matches_cell {
            return Err(RunError::Inject(format!(
                "planned fault targets no cell in the grid: `{}:{}`",
                fault.app, fault.scheme
            )));
        }
    }

    let grid: BTreeSet<(String, String)> = spec
        .apps
        .iter()
        .flat_map(|a| {
            spec.schemes
                .iter()
                .map(move |s| (a.name.clone(), s.name.clone()))
        })
        .collect();

    // Open the journal (creating it if absent). Opening runs recovery:
    // segments, checkpoints, and the active file are replayed with
    // per-line checksum verification, a torn final line (the process died
    // mid-write) is truncated away, and the checkpoint state is seeded
    // from every parseable record — grid-filtered or not — so a later
    // compaction can never silently drop out-of-grid history.
    let (journal, replayed) = match &spec.journal {
        Some(path) => {
            let (journal, replayed) =
                Journal::open(path, spec.segment_max_lines, spec.telemetry.clone())
                    .map_err(|e| RunError::Journal(e.to_string()))?;
            (Some(journal), Some(replayed))
        }
        None => (None, None),
    };

    // Resume from the replayed records. Only cells journaled Ok count as
    // finished work: failed/timed-out/panicked cells rerun (so resuming
    // after fixing a transient cause — e.g. a too-tight deadline — retries
    // them rather than re-reporting the stale failure). Replay already
    // deduped by cell key with the newest record winning; records for
    // cells outside the current grid are dropped here, so repeated or
    // re-scoped runs against the same journal cannot inflate the summary
    // past the grid size.
    let resumed_records: Vec<CellRecord> = match (&replayed, spec.resume) {
        (Some(replayed), true) => replayed
            .records
            .iter()
            .filter(|r| r.status == CellStatus::Ok && grid.contains(&r.key()))
            .cloned()
            .collect(),
        _ => Vec::new(),
    };
    let done: BTreeSet<(String, String)> = resumed_records.iter().map(CellRecord::key).collect();
    // Fold replayed cells' spans back into the campaign aggregate: the
    // telemetry trailer is recomputed from cell records on resume, so a
    // torn or absent trailer (the process died before appending it) still
    // yields a complete aggregate for the resumed run's own trailer.
    for record in &resumed_records {
        if let Some(spans) = &record.spans {
            spec.telemetry.absorb(spans);
        }
    }

    // Queue order: one group per app (its fault-free cells share a
    // workbench — one profile memo and one recycled set of stream
    // buffers and simulator rings per app), so the initial wave of
    // workers still seeds the store with every app's recording and
    // baseline in parallel. Fault-injected cells, and every cell when the per-cell
    // isolation machinery is armed, are groups of one in scheme-major order
    // (the summary is still reported in app-major grid order below). A
    // deadline-bound attempt runs on its own thread, which cannot borrow a
    // group's workbench; under systemic faults a shared workbench would
    // make fewer store requests and shift the chaos minimizer's
    // reproducers.
    let batchable = spec.sys.is_none() && spec.deadline.is_none();
    let mut groups: VecDeque<Vec<Cell>> = VecDeque::new();
    let mut singles: Vec<Cell> = Vec::new();
    for app in &spec.apps {
        let mut group: Vec<Cell> = Vec::new();
        for scheme in &spec.schemes {
            if done.contains(&(app.name.clone(), scheme.name.clone())) {
                continue;
            }
            let fault = spec
                .faults
                .iter()
                .find(|f| {
                    f.app.eq_ignore_ascii_case(&app.name)
                        && f.scheme.eq_ignore_ascii_case(&scheme.name)
                })
                .map(|f| (f.fault, f.seed));
            let cell = Cell {
                app: app.clone(),
                scheme: scheme.clone(),
                fault,
            };
            if batchable && fault.is_none() {
                group.push(cell);
            } else {
                singles.push(cell);
            }
        }
        if !group.is_empty() {
            groups.push_back(group);
        }
    }
    // Singles after the app groups, scheme-major across apps.
    singles.sort_by_key(|c| {
        spec.schemes
            .iter()
            .position(|s| s.name == c.scheme.name)
            .unwrap_or(usize::MAX)
    });
    groups.extend(singles.into_iter().map(|c| vec![c]));

    let workers = if spec.workers > 0 {
        spec.workers
    } else {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
    .min(groups.len().max(1));
    let policy = CellPolicy {
        trace_len: spec.trace_len,
        validate: spec.validate,
        stream_window: spec.stream_window,
        run_tag: spec.run_tag,
        deadline: spec.deadline,
        attempts: spec.retries + 1,
        supervision: spec.supervision,
        level: 0,
        sys: spec.sys.as_ref(),
        telemetry: &spec.telemetry,
    };

    // Arm the store's systemic-fault tap for the duration of this run.
    // The guard below disarms it on every exit path so a caller-owned
    // store passed to a later (warm) campaign is clean again.
    if spec.sys.is_some() {
        store.set_sys_injector(spec.sys.clone());
    }

    let shutdown = AtomicBool::new(false);
    let breaker = Breaker::new(spec.supervision.breaker_threshold);
    let queue = Mutex::new(groups);
    let fresh: Mutex<Vec<CellRecord>> = Mutex::new(Vec::new());
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // The guard is dropped before the loop body runs; holding
                // it across execute would serialize the workers.
                let next = || lock_clean(&queue).pop_front();
                // Per-cell admission: graceful-shutdown drain and the app
                // circuit breaker. Returns the record of a cell to shed.
                let shed = |cell: &Cell| -> Option<CellRecord> {
                    let reason = if shutdown.load(Ordering::Relaxed) {
                        // Graceful shutdown: drain the queue with Shed
                        // records (in-flight siblings finish normally).
                        "graceful shutdown: queue drained".to_string()
                    } else {
                        match breaker.admit(&cell.app.name) {
                            BreakerDecision::Shed => {
                                format!("circuit breaker open for app `{}`", cell.app.name)
                            }
                            BreakerDecision::Probe => {
                                spec.telemetry.event(EventKind::Probe);
                                return None;
                            }
                            BreakerDecision::Run => return None,
                        }
                    };
                    spec.telemetry.event(EventKind::Shed);
                    Some(CellRecord::shed(
                        &cell.app.name,
                        &cell.scheme.name,
                        cell.fault.map(|(f, _)| f),
                        reason,
                        spec.run_tag,
                    ))
                };
                while let Some(group) = next() {
                    // The group's shared workbench, built by its first
                    // clean cell and cleared by any failed attempt.
                    let mut bench = None;
                    for cell in group {
                        let record = match shed(&cell) {
                            Some(record) => record,
                            None => {
                                let (record, saw_store_write) =
                                    execute(&cell, &policy, store, &mut bench);
                                // The planted supervision bug the chaos
                                // minimizer must isolate: a store-write
                                // fault makes the worker drop the finished
                                // record on the floor.
                                if cfg!(feature = "chaos-planted-bug") && saw_store_write {
                                    continue;
                                }
                                record
                            }
                        };
                        breaker.on_record(&record, &spec.telemetry);
                        if let Some(sys) = &spec.sys {
                            for fault in sys.advance_or_crash(SysOp::CellDone) {
                                spec.telemetry.event(EventKind::SysFault);
                                if fault == SysFault::Kill {
                                    shutdown.store(true, Ordering::Relaxed);
                                }
                            }
                        }
                        if let Some(journal) = &journal {
                            // Journal full checksummed lines only; flush +
                            // fsync so a kill -9 (or power loss) loses at
                            // most the cell in flight, never an
                            // already-acknowledged one. Recovery truncates
                            // the torn tail such a kill can still leave.
                            journal.append_cell(&record, spec.sys.as_ref());
                        }
                        lock_clean(&fresh).push(record);
                    }
                }
            });
        }
    });
    if spec.sys.is_some() {
        store.set_sys_injector(None);
    }
    let interrupted = shutdown.load(Ordering::Relaxed);

    let resumed = resumed_records.len();
    let mut records = resumed_records;
    records.extend(
        fresh
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    // Grid order, independent of worker interleaving.
    let order: Vec<(String, String)> = spec
        .apps
        .iter()
        .flat_map(|a| {
            spec.schemes
                .iter()
                .map(move |s| (a.name.clone(), s.name.clone()))
        })
        .collect();
    records.sort_by_key(|r| {
        order
            .iter()
            .position(|k| *k == r.key())
            .unwrap_or(usize::MAX)
    });
    let telemetry = spec.telemetry.snapshot();
    if let Some(journal) = &journal {
        journal.append_trailers(store.stats(), telemetry, spec.sys.as_ref());
    }
    Ok(CampaignSummary {
        records,
        resumed,
        telemetry,
        interrupted,
    })
}

/// How [`execute`] runs one cell. A campaign builds one from its spec
/// (retry budget, supervision policy, ladder level 0); the service builds
/// one per submission (one attempt, no ladder steps, the level its queue
/// depth picked at claim time).
pub(crate) struct CellPolicy<'a> {
    pub(crate) trace_len: usize,
    pub(crate) validate: bool,
    pub(crate) stream_window: Option<usize>,
    pub(crate) run_tag: Option<u64>,
    /// Per-attempt wall-clock budget; `None` runs attempts inline.
    pub(crate) deadline: Option<Duration>,
    /// Attempts the cell may consume (>= 1).
    pub(crate) attempts: u32,
    /// Backoff between attempts, and whether each failed attempt steps one
    /// rung down the degradation ladder (`degrade`).
    pub(crate) supervision: SupervisionPolicy,
    /// Ladder level of the first attempt.
    pub(crate) level: u8,
    pub(crate) sys: Option<&'a Arc<SysInjector>>,
    /// The aggregate the cell's private recorder is absorbed into.
    pub(crate) telemetry: &'a Telemetry,
}

/// Runs one cell under `policy`; always returns a terminal record, plus
/// whether a [`SysFault::StoreWrite`] fired during the cell (the
/// planted-bug hook in the worker loop keys on it).
///
/// When the aggregate telemetry is enabled and the cell starts below
/// ladder level 2, the cell gets a *private* recorder: its spans/events
/// are journaled on the record, then absorbed into the aggregate, so
/// concurrent cells never interleave into each other's snapshots. Without
/// a recorder the cell's events go straight to the aggregate.
///
/// Between failed attempts the supervision policy applies: a deterministic
/// jittered exponential backoff, and (when `degrade` is set) one step down
/// the degradation ladder per failed attempt. Level 1 drops validation,
/// level 2 drops per-attempt telemetry, level 3 runs the baseline design
/// point under the cell's scheme name. Each step is counted as
/// [`EventKind::Degrade`] and the final level is recorded on the cell, so
/// a degraded result is never mistaken for a full-fidelity one.
///
/// `bench` is the workbench the cell's app group shares: a clean cell with
/// no deadline runs over it (building it over `store` on first use), so
/// every scheme of the app reuses its profiles and one set of recycled
/// stream buffers and simulator rings. A caller with no group (the
/// service) passes `&mut None` and gets a fresh workbench over `store` per
/// cell. A fault-injected cell never uses it: it assembles a workbench
/// over its own fresh store. A failed attempt clears it (a panic may have
/// left it mid-update).
pub(crate) fn execute(
    cell: &Cell,
    policy: &CellPolicy,
    store: &Arc<ArtifactStore>,
    bench: &mut Option<Workbench>,
) -> (CellRecord, bool) {
    let recorder = if policy.telemetry.is_enabled() && policy.level < 2 {
        Telemetry::enabled()
    } else {
        Telemetry::off()
    };
    let events = if recorder.is_enabled() {
        &recorder
    } else {
        policy.telemetry
    };
    if cell.fault.is_some() {
        events.event(EventKind::Fault);
    }
    let backoff =
        policy
            .supervision
            .backoff_schedule(&cell.app.name, &cell.scheme.name, policy.attempts - 1);
    let mut level = policy.level;
    let mut saw_store_write = false;
    let mut attempt = 0;
    let (result, millis) = loop {
        attempt += 1;
        let mut meter = None;
        let mut stall = None;
        if let Some(sys) = policy.sys {
            for fault in sys.advance_or_crash(SysOp::AttemptStart) {
                events.event(EventKind::SysFault);
                match fault {
                    SysFault::AllocBudget { bytes } => {
                        meter = Some(Arc::new(AllocMeter::new(bytes)))
                    }
                    SysFault::WorkerStall { millis } => stall = Some(Duration::from_millis(millis)),
                    _ => {}
                }
            }
        }
        let setup = Attempt {
            trace_len: policy.trace_len,
            window: policy.stream_window.unwrap_or(DEFAULT_STREAM_WINDOW),
            validate: policy.validate && level < 1,
            telemetry: if level >= 2 {
                Telemetry::off()
            } else {
                recorder.clone()
            },
            meter,
            stall,
        };
        let fallback;
        let target = if level >= 3 {
            // Last rung: keep the cell's name (the grid key must stay
            // stable) but run the baseline design point.
            let mut cell = cell.clone();
            cell.scheme.point = DesignPoint::baseline();
            fallback = cell;
            &fallback
        } else {
            cell
        };
        let started = Instant::now();
        let result = run_attempt(target, setup, policy.deadline, store, bench);
        let millis = started.elapsed().as_millis() as u64;
        let error = match result {
            Ok(done) => break (Ok(done), millis),
            Err(error) => error,
        };
        *bench = None;
        // Store faults surface here (the store has no access to the cell's
        // recorder); alloc-budget and stall faults were already counted
        // when the injector fired at attempt start.
        if let RunError::Sys(fault @ (SysFault::StoreRead | SysFault::StoreWrite)) = &error {
            events.event(EventKind::SysFault);
            saw_store_write |= *fault == SysFault::StoreWrite;
        }
        if attempt >= policy.attempts {
            break (Err(error), millis);
        }
        events.event(EventKind::Retry);
        if policy.supervision.degrade && level < 3 {
            level += 1;
            events.event(EventKind::Degrade);
        }
        let delay = backoff.get((attempt - 1) as usize).copied().unwrap_or(0);
        if delay > 0 {
            thread::sleep(Duration::from_millis(delay));
        }
    };
    let spans = recorder.snapshot();
    if let Some(snapshot) = &spans {
        policy.telemetry.absorb(snapshot);
    }
    let (status, metrics, validation, error) = match result {
        Ok((metrics, validation)) => (CellStatus::Ok, Some(metrics), validation, None),
        Err(error) => {
            let status = match error {
                RunError::Panic(_) => CellStatus::Panicked,
                RunError::DeadlineExceeded { .. } => CellStatus::TimedOut,
                _ => CellStatus::Failed,
            };
            (status, None, None, Some(error))
        }
    };
    let record = CellRecord {
        app: cell.app.name.clone(),
        scheme: cell.scheme.name.clone(),
        status,
        attempts: attempt,
        millis,
        fault: cell.fault.map(|(f, _)| f),
        metrics,
        error,
        validation,
        spans,
        degraded: (level > 0).then_some(level),
        run: policy.run_tag,
    };
    (record, saw_store_write)
}

/// What one attempt runs with, fixed by [`execute`] from its policy and
/// the attempt's ladder level. Owned, so a deadline-bound attempt can move
/// it onto its own thread.
struct Attempt {
    trace_len: usize,
    window: usize,
    validate: bool,
    telemetry: Telemetry,
    meter: Option<Arc<AllocMeter>>,
    stall: Option<Duration>,
}

/// One attempt, under the deadline if one is set. The body runs on its own
/// thread so a blown deadline abandons the attempt instead of blocking the
/// worker. On timeout the attempt's cancellation flag is raised; the
/// abandoned thread exits at the next checkpoint between pipeline stages
/// (generate / validate / trace / assemble / each simulated run) instead of
/// computing the whole cell in the background. The stage already in flight
/// runs to completion — cancellation is cooperative, not preemptive — so an
/// abandoned attempt can outlive its deadline by at most one stage.
fn run_attempt(
    cell: &Cell,
    attempt: Attempt,
    deadline: Option<Duration>,
    store: &Arc<ArtifactStore>,
    bench: &mut Option<Workbench>,
) -> Result<(CellMetrics, Option<ValidationStats>), RunError> {
    let Some(deadline) = deadline else {
        return run_isolated(cell, &attempt, &AtomicBool::new(false), store, bench);
    };
    let (tx, rx) = mpsc::channel();
    let cancel = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&cancel);
    let cell = cell.clone();
    let store = Arc::clone(store);
    thread::spawn(move || {
        // The attempt thread owns its data, so it builds its own workbench
        // instead of borrowing the group's.
        let _ = tx.send(run_isolated(&cell, &attempt, &flag, &store, &mut None));
    });
    match rx.recv_timeout(deadline) {
        Ok(result) => result,
        Err(_) => {
            cancel.store(true, Ordering::Relaxed);
            Err(RunError::DeadlineExceeded {
                millis: deadline.as_millis() as u64,
            })
        }
    }
}

/// The panic isolation boundary: a panic anywhere below becomes
/// [`RunError::Panic`].
fn run_isolated(
    cell: &Cell,
    attempt: &Attempt,
    cancel: &AtomicBool,
    store: &Arc<ArtifactStore>,
    bench: &mut Option<Workbench>,
) -> Result<(CellMetrics, Option<ValidationStats>), RunError> {
    // An injected worker stall burns attempt time *inside* the deadline
    // window: a long enough stall manifests as a DeadlineExceeded, exactly
    // like a wedged host thread.
    if let Some(stall) = attempt.stall {
        thread::sleep(stall);
    }
    catch_unwind(AssertUnwindSafe(|| {
        run_cell_body(cell, attempt, cancel, store, bench)
    }))
    .unwrap_or_else(|payload| Err(RunError::Panic(panic_message(payload))))
}

/// Returns early with [`RunError::Cancelled`] once the attempt has been
/// abandoned by its worker; the result is never observed, so the variant
/// only short-circuits the remaining stages.
fn checkpoint(cancel: &AtomicBool) -> Result<(), RunError> {
    if cancel.load(Ordering::Relaxed) {
        Err(RunError::Cancelled)
    } else {
        Ok(())
    }
}

/// The bytes one attempt streaming at `window` charges against an
/// injected [`SysFault::AllocBudget`], stage by stage: one expansion
/// (~64 bytes per entry of a window plus the look-ahead), then the
/// baseline's and the scheme's simulation bookkeeping (16 bytes per window
/// entry each). The figures are deterministic in the cell, so the same
/// budget always fails at the same stage, and a budget below their sum
/// always fails the attempt. They model the attempt only; what the store
/// holds across attempts is measured by `tests/stream_memory.rs`'s
/// counting allocator.
pub fn attempt_charges(trace_len: usize, window: usize) -> [u64; 3] {
    let expansion = (window + DEFAULT_LOOKAHEAD).min(trace_len) as u64 * 64;
    let sim = window.min(trace_len) as u64 * 16;
    [expansion, sim, sim]
}

/// A clean cell's store-backed workbench over the app's trace-free
/// recording, timed as the world-build stage.
fn shared_bench(
    app: &AppSpec,
    trace_len: usize,
    window: usize,
    store: &Arc<ArtifactStore>,
    telemetry: &Telemetry,
) -> Result<Workbench, RunError> {
    telemetry.time(SpanKind::WorldBuild, || {
        let recording = store.recording(app, trace_len)?;
        Ok(Workbench::from_recording(
            app,
            recording,
            Arc::clone(store),
            window,
        ))
    })
}

/// A fault-injected cell's workbench, over its own fresh store: a
/// corrupted program must never reach the campaign store, and even the
/// cell's pristine stages stay off it so a fault drill measures the
/// uncached pipeline it is drilling.
///
/// The input is recorded on the clean binary, and every fault is checked
/// against that recording, the way the paper replays one recorded input
/// over every binary. A program fault must pass the static checks and
/// then replay the clean input ([`validate_stream`]). A trace fault
/// corrupts the clean trace, which must then fail its check, so the cell
/// ends in a typed error and simulates nothing. A miscompile fault is
/// armed on the workbench: the baseline design point is never injected
/// (the oracle needs an honest reference), only the scheme's variant is.
fn faulted_bench(
    app: &AppSpec,
    (fault, seed): (Fault, u64),
    trace_len: usize,
    window: usize,
    cancel: &AtomicBool,
) -> Result<Workbench, RunError> {
    let inject = |e: InjectError| RunError::Inject(e.to_string());
    let clean = app.generate_program();
    // Validate before walking the CFG: path generation indexes blocks by id.
    clean.validate()?;
    let path = ExecutionPath::generate(&clean, app.path_seed(), trace_len);
    checkpoint(cancel)?;
    match fault.target() {
        FaultTarget::Trace => {
            let mut trace = Trace::expand(&clean, &path);
            inject_trace(&mut trace, fault, seed).map_err(inject)?;
            trace.validate_recorded(&clean, &path)?;
            Err(RunError::Inject(format!(
                "trace fault `{fault}` passed every trace check"
            )))
        }
        FaultTarget::Program => {
            let mut program = clean.clone();
            inject_program(&mut program, fault, seed).map_err(inject)?;
            program.validate_encoding()?;
            let config = StreamConfig::default();
            validate_stream(&program, &mut TraceStream::new(&clean, &path, config))?;
            checkpoint(cancel)?;
            Workbench::try_assemble(app, program, path, window)
        }
        FaultTarget::Variant => {
            let mut bench = Workbench::try_assemble(app, clean, path, window)?;
            bench.set_variant_fault(fault, seed);
            Ok(bench)
        }
    }
}

/// The cell proper: fetch the shared recording (or assemble a private one
/// and inject the planned fault), validate, profile/compile/simulate
/// baseline and scheme, reduce to metrics.
fn run_cell_body(
    cell: &Cell,
    attempt: &Attempt,
    cancel: &AtomicBool,
    store: &Arc<ArtifactStore>,
    shared: &mut Option<Workbench>,
) -> Result<(CellMetrics, Option<ValidationStats>), RunError> {
    // Charges against an injected per-attempt allocation budget.
    let charge = |bytes: u64| -> Result<(), RunError> {
        match &attempt.meter {
            Some(meter) => meter.charge(bytes),
            None => Ok(()),
        }
    };
    let trace_len = attempt.trace_len;
    let window = attempt.window;
    let [expansion, base_sim, scheme_sim] = attempt_charges(trace_len, window);
    let telemetry = &attempt.telemetry;
    let app = &cell.app;
    let mut private;
    let bench = match cell.fault {
        None => match shared {
            // The recording is already resident in the group's workbench; the
            // empty span still marks the stage so every record carries the
            // full per-phase breakdown.
            Some(bench) => {
                telemetry.time(SpanKind::WorldBuild, || ());
                bench
            }
            // Clean cell: share the generated recording (and downstream
            // artifacts) with every sibling cell of the app through the
            // store.
            None => {
                let bench = shared.insert(shared_bench(app, trace_len, window, store, telemetry)?);
                checkpoint(cancel)?;
                bench
            }
        },
        Some(fault) => {
            private = telemetry.time(SpanKind::WorldBuild, || {
                faulted_bench(app, fault, trace_len, window, cancel)
            })?;
            &mut private
        }
    };
    charge(expansion)?;
    bench.set_telemetry(telemetry.clone());
    checkpoint(cancel)?;
    charge(base_sim)?;
    let base = bench.try_run(&DesignPoint::baseline())?;
    checkpoint(cancel)?;
    charge(scheme_sim)?;
    let (outcome, validation) = if attempt.validate {
        let (outcome, stats) = bench.try_run_validated(&cell.scheme.point, app.path_seed())?;
        (outcome, Some(stats))
    } else {
        (bench.try_run(&cell.scheme.point)?, None)
    };
    Ok((
        CellMetrics {
            speedup: outcome.sim.speedup_over(&base.sim),
            cpu_energy_saving: outcome.energy.cpu_saving(&base.energy),
            thumb_dyn_frac: outcome.thumb_dyn_frac,
            dyn_insns: outcome.dyn_insns,
        },
        validation,
    ))
}

/// Runs `f` behind the campaign's panic isolation boundary — the building
/// block the `figures` binary uses so one failing figure cannot abort the
/// whole regeneration.
pub fn isolate<T>(label: &str, f: impl FnOnce() -> T) -> Result<T, RunError> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|payload| RunError::Panic(format!("{label}: {}", panic_message(payload))))
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The scheme set of the paper's Fig. 13 conversion-scheme comparison —
/// the default `critic campaign` grid: every [`DesignPoint::NAMED`] scheme.
pub fn default_schemes() -> Vec<Scheme> {
    DesignPoint::NAMED
        .iter()
        .map(|&(name, point)| Scheme::new(name, point()))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::fs::OpenOptions;
    use std::io::Write;

    use critic_workloads::{Suite, SysFaultSpec};

    use super::*;

    fn tiny_apps(n: usize) -> Vec<AppSpec> {
        Suite::Mobile
            .apps()
            .into_iter()
            .take(n)
            .map(|mut app| {
                app.params.num_functions = 24;
                app
            })
            .collect()
    }

    #[test]
    fn healthy_campaign_is_all_ok() {
        let spec = CampaignSpec::new(
            tiny_apps(2),
            vec![
                Scheme::new("critic", DesignPoint::critic()),
                Scheme::new("opp16", DesignPoint::opp16()),
            ],
            8_000,
        );
        let summary = run_campaign(&spec).expect("campaign runs");
        assert_eq!(summary.records.len(), 4);
        assert!(summary.all_ok(), "{}", summary.render());
        for r in &summary.records {
            let m = r.metrics.as_ref().expect("ok cell has metrics");
            assert!(m.dyn_insns > 0);
        }
    }

    #[test]
    fn injected_fault_fails_its_cell_and_only_its_cell() {
        let mut spec = CampaignSpec::new(
            tiny_apps(2),
            vec![Scheme::new("critic", DesignPoint::critic())],
            8_000,
        );
        let victim = spec.apps[0].name.clone();
        spec.faults.push(PlannedFault {
            app: victim.clone(),
            scheme: "critic".into(),
            fault: Fault::DanglingTerminator,
            seed: 7,
        });
        let summary = run_campaign(&spec).expect("campaign survives the fault");
        assert_eq!(summary.records.len(), 2);
        let failed = summary.failed();
        assert_eq!(failed.len(), 1, "{}", summary.render());
        assert_eq!(failed[0].app, victim);
        assert_eq!(failed[0].status, CellStatus::Failed);
        assert!(matches!(failed[0].error, Some(RunError::Program(_))));
        assert!(!summary.all_ok());
    }

    #[test]
    fn isolate_traps_panics() {
        let ok = isolate("fine", || 7);
        assert_eq!(ok.expect("no panic"), 7);
        let err = isolate("boom", || -> u32 { panic!("injected panic") })
            .expect_err("panic must be trapped");
        match err {
            RunError::Panic(msg) => {
                assert!(
                    msg.contains("boom") && msg.contains("injected panic"),
                    "{msg}"
                );
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn deadline_times_the_cell_out() {
        let mut spec = CampaignSpec::new(
            tiny_apps(1),
            vec![Scheme::new("critic", DesignPoint::critic())],
            200_000,
        );
        spec.deadline = Some(Duration::from_millis(1));
        let summary = run_campaign(&spec).expect("campaign runs");
        assert_eq!(summary.records.len(), 1);
        assert_eq!(summary.records[0].status, CellStatus::TimedOut);
        assert!(matches!(
            summary.records[0].error,
            Some(RunError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn retries_are_bounded_and_counted() {
        let mut spec = CampaignSpec::new(
            tiny_apps(1),
            vec![Scheme::new("critic", DesignPoint::critic())],
            8_000,
        );
        spec.retries = 2;
        spec.faults.push(PlannedFault {
            app: spec.apps[0].name.clone(),
            scheme: "critic".into(),
            fault: Fault::DuplicateUid,
            seed: 3,
        });
        let summary = run_campaign(&spec).expect("campaign runs");
        assert_eq!(summary.records[0].attempts, 3, "retries + 1 attempts");
        assert_eq!(summary.records[0].status, CellStatus::Failed);
    }

    #[test]
    fn journal_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join("critic_campaign_test");
        let _ = std::fs::create_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);

        // First leg: one app only.
        let mut spec = CampaignSpec::new(
            tiny_apps(1),
            vec![Scheme::new("critic", DesignPoint::critic())],
            8_000,
        );
        spec.journal = Some(journal.clone());
        let first = run_campaign(&spec).expect("first leg");
        assert!(first.all_ok());

        // Simulate a kill mid-write: append a torn line.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(&journal)
                .expect("journal opens");
            write!(f, "{{\"app\":\"torn").expect("append");
        }

        // Second leg: two apps, resuming — the journaled cell is skipped,
        // the torn line ignored, the new cell runs.
        let mut spec2 = CampaignSpec::new(
            tiny_apps(2),
            vec![Scheme::new("critic", DesignPoint::critic())],
            8_000,
        );
        spec2.journal = Some(journal.clone());
        spec2.resume = true;
        let second = run_campaign(&spec2).expect("second leg");
        assert_eq!(second.records.len(), 2);
        assert_eq!(second.resumed, 1, "{}", second.render());
        assert!(second.all_ok());
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn resume_retries_failed_cells_and_dedupes_duplicates() {
        let dir = std::env::temp_dir().join("critic_campaign_resume_retry_test");
        let _ = std::fs::create_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);

        // First leg: the fault makes the only cell fail, and is journaled
        // twice (as if the campaign ran twice without --resume).
        let mut spec = CampaignSpec::new(
            tiny_apps(1),
            vec![Scheme::new("critic", DesignPoint::critic())],
            8_000,
        );
        spec.journal = Some(journal.clone());
        spec.faults.push(PlannedFault {
            app: spec.apps[0].name.clone(),
            scheme: "critic".into(),
            fault: Fault::DanglingTerminator,
            seed: 7,
        });
        let first = run_campaign(&spec).expect("first leg");
        assert_eq!(first.failed().len(), 1);
        let _ = run_campaign(&spec).expect("duplicate leg");

        // Second leg: same grid, fault removed (the "transient cause" is
        // fixed), resuming. The failed cell must rerun — and succeed — not
        // be replayed; the duplicate journal lines must not inflate the
        // summary past the grid size.
        let mut spec2 = CampaignSpec::new(
            tiny_apps(1),
            vec![Scheme::new("critic", DesignPoint::critic())],
            8_000,
        );
        spec2.journal = Some(journal.clone());
        spec2.resume = true;
        let second = run_campaign(&spec2).expect("second leg");
        assert_eq!(second.records.len(), 1, "{}", second.render());
        assert_eq!(second.resumed, 0, "failed cells are retried, not replayed");
        assert!(second.all_ok(), "{}", second.render());

        // Third leg: everything is journaled Ok now, so resume replays it.
        let third = run_campaign(&spec2).expect("third leg");
        assert_eq!(third.records.len(), 1);
        assert_eq!(third.resumed, 1, "{}", third.render());
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn validated_campaign_demotes_miscompiled_cell_and_journals_stats() {
        let mut spec = CampaignSpec::new(
            tiny_apps(2),
            vec![Scheme::new("critic", DesignPoint::critic())],
            8_000,
        );
        spec.validate = true;
        let victim = spec.apps[0].name.clone();
        spec.faults.push(PlannedFault {
            app: victim.clone(),
            scheme: "critic".into(),
            fault: Fault::ClobberedDestination,
            seed: 33,
        });
        let summary = run_campaign(&spec).expect("campaign runs");
        assert!(
            summary.all_ok(),
            "demotion keeps the faulted cell alive: {}",
            summary.render()
        );
        assert!(summary.validation_failures().is_empty());
        for r in &summary.records {
            let stats = r.validation.expect("validated cells journal stats");
            assert!(stats.chains_checked > 0, "{}: no chains checked", r.app);
            assert_eq!(stats.failed, 0);
            if r.app == victim {
                assert!(
                    stats.chains_demoted >= 1,
                    "miscompile must demote: {}",
                    summary.render()
                );
            } else {
                assert_eq!(stats.chains_demoted, 0, "clean cell must not demote");
            }
        }
        let text = summary.render();
        assert!(text.contains("chains demoted"), "{text}");
    }

    #[test]
    fn unvalidated_campaign_swallows_the_same_miscompile() {
        let mut spec = CampaignSpec::new(
            tiny_apps(1),
            vec![Scheme::new("critic", DesignPoint::critic())],
            8_000,
        );
        spec.faults.push(PlannedFault {
            app: spec.apps[0].name.clone(),
            scheme: "critic".into(),
            fault: Fault::ClobberedDestination,
            seed: 33,
        });
        let summary = run_campaign(&spec).expect("campaign runs");
        assert!(summary.all_ok(), "{}", summary.render());
        assert!(
            summary.records[0].validation.is_none(),
            "no oracle, no stats"
        );
    }

    #[test]
    fn journal_lines_without_validation_field_still_resume() {
        // A journal written before translation validation existed has no
        // `validation` key; resume must replay it as `validation: None`
        // rather than rejecting the whole line (which would silently rerun
        // finished work).
        let dir = std::env::temp_dir().join("critic_campaign_compat_test");
        let _ = std::fs::create_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let apps = tiny_apps(1);
        let line = format!(
            "{{\"app\":{:?},\"scheme\":\"critic\",\"status\":\"Ok\",\"attempts\":1,\
             \"millis\":5,\"fault\":null,\"metrics\":{{\"speedup\":1.1,\
             \"cpu_energy_saving\":0.2,\"thumb_dyn_frac\":0.5,\"dyn_insns\":8000}},\
             \"error\":null}}",
            apps[0].name
        );
        std::fs::write(&journal, format!("{line}\n")).expect("journal writes");

        let mut spec = CampaignSpec::new(
            apps,
            vec![Scheme::new("critic", DesignPoint::critic())],
            8_000,
        );
        spec.journal = Some(journal.clone());
        spec.resume = true;
        let summary = run_campaign(&spec).expect("campaign runs");
        assert_eq!(
            summary.resumed,
            1,
            "pre-validation record replays: {}",
            summary.render()
        );
        assert_eq!(summary.records[0].validation, None);
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn summary_render_names_failed_cells() {
        let summary = CampaignSummary {
            records: vec![CellRecord {
                app: "acrobat".into(),
                scheme: "critic".into(),
                status: CellStatus::Panicked,
                attempts: 1,
                millis: 12,
                fault: Some(Fault::ScrambleBlock),
                metrics: None,
                error: Some(RunError::Panic("index out of bounds".into())),
                validation: None,
                spans: None,
                degraded: None,
                run: None,
            }],
            resumed: 0,
            telemetry: None,
            interrupted: false,
        };
        let text = summary.render();
        assert!(text.contains("PANICKED"), "{text}");
        assert!(text.contains("acrobat:critic"), "{text}");
        assert!(text.contains("1/1 cells FAILED"), "{text}");
    }

    /// The warm-store guarantee: re-running a campaign against an already
    /// populated store must change *nothing* about the results — speedups,
    /// energy savings, validation stats, and journal-visible fields are
    /// bit-identical; only `millis`/`attempts` (wall-clock artifacts) may
    /// differ. Includes a silently-miscompiled cell so the comparison also
    /// covers demotion stats, and checks the store actually served the
    /// warm run from cache.
    #[test]
    fn warm_store_campaign_is_bit_identical_to_cold() {
        let mut spec = CampaignSpec::new(
            tiny_apps(2),
            vec![
                Scheme::new("critic", DesignPoint::critic()),
                Scheme::new("opp16", DesignPoint::opp16()),
            ],
            8_000,
        );
        spec.validate = true;
        // A miscompile fault in one cell: it must neither poison the store
        // nor change the warm/cold equivalence of any cell.
        spec.faults.push(PlannedFault {
            app: spec.apps[1].name.clone(),
            scheme: "opp16".into(),
            fault: Fault::ClobberedDestination,
            seed: 11,
        });

        let store = Arc::new(ArtifactStore::new());
        let cold = run_campaign_with_store(&spec, &store).expect("cold run");
        let cold_stats = store.stats();
        let warm = run_campaign_with_store(&spec, &store).expect("warm run");
        let warm_stats = store.stats();

        assert_eq!(cold.records.len(), 4);
        assert_eq!(cold.records.len(), warm.records.len());
        for (c, w) in cold.records.iter().zip(&warm.records) {
            assert_eq!(c.app, w.app);
            assert_eq!(c.scheme, w.scheme);
            assert_eq!(c.status, w.status, "{}:{}", c.app, c.scheme);
            assert_eq!(c.fault, w.fault);
            // PartialEq on CellMetrics compares the f64s exactly: the warm
            // run must reproduce every bit of speedup/energy/thumb-frac.
            assert_eq!(c.metrics, w.metrics, "{}:{}", c.app, c.scheme);
            assert_eq!(c.error, w.error, "{}:{}", c.app, c.scheme);
            assert_eq!(c.validation, w.validation, "{}:{}", c.app, c.scheme);
        }

        // The cold run recorded each app exactly once and streamed every
        // clean cell (the fault cell builds its private world off the
        // store); the warm run built nothing new and was served from cache.
        assert_eq!(cold_stats.recordings_built, 2, "one recording per app");
        assert_eq!(cold_stats.worlds_built, 0, "{cold_stats:?}");
        assert_eq!(warm_stats.recordings_built, cold_stats.recordings_built);
        assert_eq!(warm_stats.worlds_built, 0, "{warm_stats:?}");
        assert_eq!(warm_stats.profiles_built, cold_stats.profiles_built);
        assert_eq!(warm_stats.baselines_built, cold_stats.baselines_built);
        assert_eq!(
            warm_stats.baseline_execs_built,
            cold_stats.baseline_execs_built
        );
        assert!(
            warm_stats.hits > cold_stats.hits,
            "warm run must hit the store ({} -> {})",
            cold_stats.hits,
            warm_stats.hits
        );
    }

    /// The warm-pass telemetry guarantee: a second campaign over a
    /// populated store builds nothing and reports a 100% hit rate on the
    /// memoizable artifact classes.
    #[test]
    fn warm_pass_reports_full_hit_rate() {
        let mut spec = CampaignSpec::new(
            tiny_apps(2),
            vec![
                Scheme::new("critic", DesignPoint::critic()),
                Scheme::new("opp16", DesignPoint::opp16()),
            ],
            8_000,
        );
        spec.validate = true;
        let store = Arc::new(ArtifactStore::new());
        let _ = run_campaign_with_store(&spec, &store).expect("cold run");
        let cold_stats = store.stats();
        let _ = run_campaign_with_store(&spec, &store).expect("warm run");
        let warm_stats = store.stats();

        assert_eq!(
            warm_stats.built(),
            cold_stats.built(),
            "the warm pass must build nothing: {warm_stats:?}"
        );
        let warm_requests = warm_stats.requests() - cold_stats.requests();
        let warm_hits = warm_stats.hits - cold_stats.hits;
        assert!(warm_requests > 0, "the warm pass must use the store");
        assert_eq!(
            warm_hits, warm_requests,
            "every warm request is served from cache"
        );
        assert!(warm_stats.hit_rate() > cold_stats.hit_rate());
        assert_eq!(
            warm_stats.build_nanos, cold_stats.build_nanos,
            "no build latency accrues on the warm pass"
        );
    }

    /// Telemetry-enabled campaigns journal per-cell spans, aggregate them
    /// on the summary, append the aggregate as a trailing journal line —
    /// and that line must not confuse resume.
    #[test]
    fn telemetry_campaign_journals_spans_and_aggregate() {
        let dir = std::env::temp_dir().join("critic_campaign_telemetry_test");
        let _ = std::fs::create_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);

        let mut spec = CampaignSpec::new(
            tiny_apps(2),
            vec![Scheme::new("critic", DesignPoint::critic())],
            8_000,
        );
        spec.validate = true;
        spec.journal = Some(journal.clone());
        spec.telemetry = Telemetry::enabled();
        spec.faults.push(PlannedFault {
            app: spec.apps[0].name.clone(),
            scheme: "critic".into(),
            fault: Fault::ClobberedDestination,
            seed: 33,
        });
        let summary = run_campaign(&spec).expect("campaign runs");
        assert!(summary.all_ok(), "{}", summary.render());

        // Every fresh cell carries a snapshot with real work in it.
        for r in &summary.records {
            let spans = r.spans.expect("telemetry-enabled cells record spans");
            assert!(spans.world_build.count >= 1, "{}: {spans:?}", r.app);
            assert!(spans.sim.count >= 1, "{}: {spans:?}", r.app);
        }
        // The aggregate sums the cells: one Fault event for the injected
        // cell, at least one demotion from its miscompile.
        let aggregate = summary.telemetry.expect("campaign aggregate");
        assert_eq!(aggregate.faults, 1, "{aggregate:?}");
        assert!(aggregate.demotions >= 1, "{aggregate:?}");
        assert!(aggregate.sim.total_nanos > 0);
        let text = summary.render();
        assert!(text.contains("telemetry:"), "{text}");

        // The trailing aggregate line exists and round-trips.
        let content = std::fs::read_to_string(&journal).expect("journal readable");
        let last = content.lines().last().expect("journal non-empty");
        let parsed: CampaignTelemetryRecord =
            serde_json::from_str(last).expect("trailing line is the aggregate");
        assert_eq!(parsed.campaign_telemetry.faults, aggregate.faults);

        // Resume replays the cells and ignores the aggregate line.
        let mut resumed_spec = spec.clone();
        resumed_spec.resume = true;
        resumed_spec.faults.clear();
        let second = run_campaign(&resumed_spec).expect("resumed run");
        assert_eq!(second.records.len(), 2);
        assert_eq!(second.resumed, 2, "{}", second.render());
        let _ = std::fs::remove_file(&journal);
    }

    /// Telemetry must observe, never perturb: the same campaign with
    /// telemetry on and off produces bit-identical metrics.
    #[test]
    fn telemetry_does_not_perturb_results() {
        let mut off_spec = CampaignSpec::new(
            tiny_apps(1),
            vec![
                Scheme::new("critic", DesignPoint::critic()),
                Scheme::new("opp16", DesignPoint::opp16()),
            ],
            8_000,
        );
        off_spec.validate = true;
        off_spec.telemetry = Telemetry::off();
        let mut on_spec = off_spec.clone();
        on_spec.telemetry = Telemetry::enabled();

        let off = run_campaign(&off_spec).expect("telemetry-off run");
        let on = run_campaign(&on_spec).expect("telemetry-on run");
        assert!(off.telemetry.is_none());
        assert!(on.telemetry.is_some());
        for (a, b) in off.records.iter().zip(&on.records) {
            assert_eq!(a.metrics, b.metrics, "{}:{}", a.app, a.scheme);
            assert_eq!(a.validation, b.validation, "{}:{}", a.app, a.scheme);
            assert_eq!(a.status, b.status);
        }
    }

    /// Fault-injected cells bypass the campaign store entirely, over their
    /// workbench's own fresh store: they must not consume shared artifacts
    /// (a drill measures the uncached pipeline) and must not contribute any
    /// (a corrupted program/trace would poison every sibling cell). This
    /// holds for every fault target, whatever the cell's status.
    #[test]
    fn fault_cells_never_touch_the_store() {
        for fault in [
            Fault::IllegalImmediate,
            Fault::ForwardDep,
            Fault::ClobberedDestination,
        ] {
            let mut spec = CampaignSpec::new(
                tiny_apps(1),
                vec![Scheme::new("critic", DesignPoint::critic())],
                8_000,
            );
            spec.validate = true;
            spec.faults.push(PlannedFault {
                app: spec.apps[0].name.clone(),
                scheme: "critic".into(),
                fault,
                seed: 11,
            });
            let store = Arc::new(ArtifactStore::new());
            let summary = run_campaign_with_store(&spec, &store).expect("campaign runs");
            assert_eq!(summary.records.len(), 1, "{fault:?}");

            let stats = store.stats();
            assert_eq!(stats.built(), 0, "{fault:?}: {stats:?}");
            assert_eq!(stats.hits, 0, "{fault:?}: {stats:?}");
        }
    }

    /// Every trace fault, and the program faults only a replay of the
    /// clean binary's input can see, fail their one-cell campaign with a
    /// typed trace error: nothing corrupted is simulated.
    #[test]
    fn input_faults_fail_their_cell_with_a_trace_error() {
        let faults = Fault::ALL
            .into_iter()
            .filter(|f| f.target() == FaultTarget::Trace)
            .chain([Fault::TruncateBlock, Fault::ScrambleBlock]);
        for fault in faults {
            let mut spec = CampaignSpec::new(
                tiny_apps(1),
                vec![Scheme::new("critic", DesignPoint::critic())],
                8_000,
            );
            spec.faults.push(PlannedFault {
                app: spec.apps[0].name.clone(),
                scheme: "critic".into(),
                fault,
                seed: 3,
            });
            let summary = run_campaign(&spec).expect("campaign runs");
            let record = &summary.records[0];
            assert_eq!(record.status, CellStatus::Failed, "{fault}");
            assert!(
                matches!(record.error, Some(RunError::Trace(_))),
                "{fault}: {:?}",
                record.error
            );
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let policy = SupervisionPolicy {
            backoff_base_millis: 10,
            backoff_cap_millis: 35,
            backoff_seed: 42,
            ..SupervisionPolicy::default()
        };
        let a = policy.backoff_schedule("acrobat", "critic", 5);
        let b = policy.backoff_schedule("acrobat", "critic", 5);
        assert_eq!(a, b, "same (seed, app, scheme) => same schedule");
        assert!(a.iter().all(|&d| d <= 35), "{a:?}");
        // Delays grow (until the cap flattens them) and stay >= delay/2.
        assert!(a[0] >= 5 && a[0] <= 10, "{a:?}");
        let other = policy.backoff_schedule("acrobat", "opp16", 5);
        assert_ne!(a, other, "different cells get decorrelated jitter");
        let off = SupervisionPolicy::default().backoff_schedule("acrobat", "critic", 3);
        assert_eq!(off, vec![0, 0, 0], "disabled policy sleeps nowhere");
    }

    #[test]
    fn alloc_meter_fails_the_charge_that_crosses_the_budget() {
        let meter = AllocMeter::new(100);
        assert!(meter.charge(60).is_ok());
        assert!(meter.charge(40).is_ok());
        match meter.charge(1) {
            Err(RunError::Sys(SysFault::AllocBudget { bytes })) => assert_eq!(bytes, 100),
            other => panic!("wrong result: {other:?}"),
        }
    }

    /// A store-read systemic fault fails exactly one attempt; the injector
    /// is consume-once, so the retry sees a healed store and succeeds.
    #[test]
    fn store_fault_fails_one_attempt_then_heals() {
        let mut spec = CampaignSpec::new(
            tiny_apps(1),
            vec![Scheme::new("critic", DesignPoint::critic())],
            8_000,
        );
        spec.workers = 1;
        spec.retries = 1;
        spec.telemetry = Telemetry::enabled();
        spec.sys = Some(Arc::new(SysInjector::new(vec![SysFaultSpec {
            fault: SysFault::StoreRead,
            at: 0,
        }])));
        let summary = run_campaign(&spec).expect("campaign runs");
        assert!(summary.all_ok(), "{}", summary.render());
        assert_eq!(summary.records[0].attempts, 2, "{}", summary.render());
        let aggregate = summary.telemetry.expect("aggregate");
        assert_eq!(aggregate.supervision().sys_faults, 1, "{aggregate:?}");
        assert_eq!(aggregate.retries, 1, "{aggregate:?}");
    }

    /// An injected per-attempt allocation budget fails the first attempt
    /// as an OOM; with `degrade` set the retry walks one rung down the
    /// ladder and the record says so.
    #[test]
    fn alloc_budget_fault_degrades_then_recovers() {
        let mut spec = CampaignSpec::new(
            tiny_apps(1),
            vec![Scheme::new("critic", DesignPoint::critic())],
            8_000,
        );
        spec.workers = 1;
        spec.retries = 1;
        spec.validate = true;
        spec.telemetry = Telemetry::enabled();
        spec.supervision.degrade = true;
        spec.sys = Some(Arc::new(SysInjector::new(vec![SysFaultSpec {
            fault: SysFault::AllocBudget { bytes: 1_000 },
            at: 0,
        }])));
        let summary = run_campaign(&spec).expect("campaign runs");
        assert!(summary.all_ok(), "{}", summary.render());
        let record = &summary.records[0];
        assert_eq!(record.attempts, 2);
        assert_eq!(record.degraded, Some(1), "ladder rung recorded");
        assert!(
            record.validation.is_none(),
            "level 1 drops validation: {record:?}"
        );
        let aggregate = summary.telemetry.expect("aggregate");
        assert_eq!(aggregate.supervision().degrades, 1, "{aggregate:?}");
        assert_eq!(aggregate.supervision().sys_faults, 1, "{aggregate:?}");
        let text = summary.render();
        assert!(text.contains("[degraded: level 1]"), "{text}");
    }

    /// A Kill systemic fault triggers graceful shutdown: in-flight work
    /// finishes, the rest of the queue drains as Shed records, nothing is
    /// silently dropped, and resume finishes the grid.
    #[test]
    fn kill_fault_drains_queue_with_shed_records_and_resumes() {
        let dir = std::env::temp_dir().join("critic_campaign_kill_test");
        let _ = std::fs::create_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);

        let mut spec = CampaignSpec::new(
            tiny_apps(2),
            vec![
                Scheme::new("critic", DesignPoint::critic()),
                Scheme::new("opp16", DesignPoint::opp16()),
            ],
            8_000,
        );
        spec.workers = 1;
        spec.journal = Some(journal.clone());
        spec.telemetry = Telemetry::enabled();
        spec.sys = Some(Arc::new(SysInjector::new(vec![SysFaultSpec {
            fault: SysFault::Kill,
            at: 0,
        }])));
        let summary = run_campaign(&spec).expect("campaign runs");
        assert!(summary.interrupted, "{}", summary.render());
        assert_eq!(summary.records.len(), 4, "every cell accounted");
        let shed = summary.shed();
        assert_eq!(shed.len(), 3, "{}", summary.render());
        for r in &shed {
            assert_eq!(r.attempts, 0);
            assert!(matches!(&r.error, Some(RunError::Shed(_))), "{r:?}");
        }
        let aggregate = summary.telemetry.expect("aggregate");
        assert_eq!(aggregate.supervision().sheds, 3, "{aggregate:?}");
        assert_eq!(aggregate.supervision().sys_faults, 1, "{aggregate:?}");
        let text = summary.render();
        assert!(text.contains("SHED"), "{text}");
        assert!(text.contains("graceful shutdown"), "{text}");

        // Resume (no injector): shed cells rerun, the finished one replays.
        let mut resumed_spec = spec.clone();
        resumed_spec.sys = None;
        resumed_spec.resume = true;
        let second = run_campaign(&resumed_spec).expect("resumed run");
        assert!(!second.interrupted);
        assert_eq!(second.records.len(), 4);
        assert_eq!(second.resumed, 1, "{}", second.render());
        assert!(second.all_ok(), "{}", second.render());
        let _ = std::fs::remove_file(&journal);
    }

    /// K consecutive terminal failures of one app trip its breaker; the
    /// next submission runs as the half-open probe (which fails here and
    /// silently re-opens), the one after that sheds with exactly one Trip
    /// event, and a healthy sibling app is untouched.
    #[test]
    fn breaker_trips_probes_and_sheds_remaining_cells_of_the_app() {
        let mut spec = CampaignSpec::new(
            tiny_apps(2),
            vec![
                Scheme::new("critic", DesignPoint::critic()),
                Scheme::new("opp16", DesignPoint::opp16()),
                Scheme::new("hoist", DesignPoint::hoist()),
                Scheme::new("ideal", DesignPoint::critic_ideal()),
            ],
            8_000,
        );
        spec.workers = 1;
        spec.telemetry = Telemetry::enabled();
        spec.supervision.breaker_threshold = 2;
        let victim = spec.apps[0].name.clone();
        for scheme in ["critic", "opp16", "hoist", "ideal"] {
            spec.faults.push(PlannedFault {
                app: victim.clone(),
                scheme: scheme.into(),
                fault: Fault::DanglingTerminator,
                seed: 7,
            });
        }
        let summary = run_campaign(&spec).expect("campaign runs");
        assert_eq!(summary.records.len(), 8, "every cell accounted");
        // Two failures trip the breaker; the third victim cell is the
        // half-open probe (runs, fails, re-opens — no second Trip).
        let failed: Vec<_> = summary
            .records
            .iter()
            .filter(|r| r.status == CellStatus::Failed)
            .collect();
        assert_eq!(failed.len(), 3, "{}", summary.render());
        let shed = summary.shed();
        assert_eq!(shed.len(), 1, "{}", summary.render());
        assert_eq!(shed[0].app, victim);
        assert!(
            matches!(&shed[0].error, Some(RunError::Shed(msg)) if msg.contains("breaker")),
            "{:?}",
            shed[0].error
        );
        // The healthy app's four cells all ran.
        let healthy_ok = summary
            .records
            .iter()
            .filter(|r| r.app != victim && r.status == CellStatus::Ok)
            .count();
        assert_eq!(healthy_ok, 4, "{}", summary.render());
        let aggregate = summary.telemetry.expect("aggregate");
        assert_eq!(aggregate.supervision().trips, 1, "{aggregate:?}");
        assert_eq!(aggregate.supervision().sheds, 1, "{aggregate:?}");
        assert_eq!(aggregate.service().probes, 1, "{aggregate:?}");
        assert_eq!(aggregate.service().resets, 0, "{aggregate:?}");
    }

    /// Journal-append systemic faults: a dropped line reruns its cell on
    /// resume, a torn line merges with (and invalidates) the next line,
    /// and both resumes still complete the grid — the journal-resumable
    /// invariant the chaos harness asserts.
    #[test]
    fn journal_faults_keep_the_journal_resumable() {
        let dir = std::env::temp_dir().join("critic_campaign_journal_fault_test");
        let _ = std::fs::create_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);

        let mut spec = CampaignSpec::new(
            tiny_apps(2),
            vec![
                Scheme::new("critic", DesignPoint::critic()),
                Scheme::new("opp16", DesignPoint::opp16()),
            ],
            8_000,
        );
        spec.workers = 1;
        spec.journal = Some(journal.clone());
        spec.sys = Some(Arc::new(SysInjector::new(vec![
            SysFaultSpec {
                fault: SysFault::JournalWrite,
                at: 0,
            },
            SysFaultSpec {
                fault: SysFault::JournalTorn,
                at: 1,
            },
        ])));
        let summary = run_campaign(&spec).expect("campaign runs");
        assert!(summary.all_ok(), "{}", summary.render());
        assert_eq!(summary.records.len(), 4);

        // The dropped line's cell and both halves of the torn merge are
        // missing from the journal; resume reruns exactly those.
        let mut resumed_spec = spec.clone();
        resumed_spec.sys = None;
        resumed_spec.resume = true;
        let second = run_campaign(&resumed_spec).expect("resumed run");
        assert!(second.all_ok(), "{}", second.render());
        assert_eq!(second.records.len(), 4, "grid completes after resume");
        assert!(second.resumed < 4, "faulted lines forced reruns");
        let _ = std::fs::remove_file(&journal);
    }
}
