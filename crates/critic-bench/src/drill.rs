//! The kill-anywhere recovery drill behind `critic drill`: a supervisor
//! that crashes real `critic campaign` child processes at seeded fault
//! points, restarts them with `--resume` against the same journal and
//! persistent store, and asserts the durability contract point by point.
//!
//! Each kill point plants one [`SysFault::Crash`] — an abort at the Nth
//! occurrence of one instrumented operation (journal append, journal
//! fsync, store request, disk request, attempt start, cell done) — plus a
//! seeded handful of non-fatal fault noise (dropped journal writes, torn
//! lines, disk read/write/corrupt failures). The supervisor then checks:
//!
//! * **accounting / grid-complete** — after the restart, the journal's
//!   newest-wins replay covers every grid cell exactly once, all Ok;
//! * **journal-resumable** — the restarted child exits 0 and the scarred
//!   journal (segments, checkpoints, torn tail) replays cleanly;
//! * **warm-unfaulted** — every cell's final metrics are bit-identical to
//!   a fault-free in-process reference run (itself run cold, then warm);
//! * **ledger** — the probe cell's cycle ledger still partitions its run
//!   (schedule-independent, checked once per invocation);
//! * **durable-warm** — a verification campaign over the *same store
//!   directory* (fresh process-equivalent: new in-memory store, fresh
//!   journal) is served from disk (`disk_hits > 0`) and reproduces the
//!   reference metrics bit for bit;
//! * **no-lost-ack** — every cell journaled `Ok` under run tag 0 before
//!   the kill still carries run tag 0 (and the same metrics) after the
//!   restart: an acknowledged cell is never re-simulated.
//!
//! Children are spawned from the current executable (`critic drill` runs
//! inside the `critic` binary), crash via `std::process::abort` (SIGABRT),
//! and restart with `--run-tag 1` so re-simulated cells are
//! distinguishable from preserved ones in the journal itself. The checkers
//! live in [`crate::audit`]. A violating point is delta-debugged
//! ([`audit::minimize`]) down to a minimal fault subset that still
//! reproduces it — the repro JSON the CLI prints on exit code 11.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Output};
use std::sync::Arc;

use critic_core::campaign::{run_campaign_with_store, CampaignSpec, CellStatus, Scheme};
use critic_core::design::DesignPoint;
use critic_core::store::ArtifactStore;
use critic_obs::Telemetry;
use critic_workloads::suite::Suite;
use critic_workloads::{SysFault, SysFaultSpec, SysOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::audit::{self, ensure, violate, Acks, BenchError, Metrics, Scratch, Violation};

/// The exit signal `std::process::abort` raises: SIGABRT.
#[cfg(unix)]
const ABORT_SIGNAL: i32 = 6;

/// Journal segment size drill children run with — small enough that a
/// four-cell grid rolls and compacts at least once mid-campaign, so kill
/// points land inside the roll protocol too.
const SEGMENT_LINES: usize = 3;

/// What `critic drill` runs.
#[derive(Debug, Clone)]
pub struct DrillConfig {
    /// Seed for the fault-noise draws riding along each kill point.
    pub seed: u64,
    /// Kill points to drill: point `i` crashes at occurrence `i / 6` of
    /// operation class `i % 6`, sweeping every class at every depth.
    pub points: usize,
    /// Smoke mode: shorter traces, for CI and tests.
    pub smoke: bool,
    /// Delta-debug a violating point's fault set to a minimal reproducer.
    pub minimize: bool,
    /// The `critic` binary to spawn children from; defaults to the current
    /// executable (correct when invoked as `critic drill`).
    pub binary: Option<PathBuf>,
}

impl Default for DrillConfig {
    fn default() -> DrillConfig {
        DrillConfig {
            seed: 0,
            points: 24,
            smoke: false,
            minimize: false,
            binary: None,
        }
    }
}

/// One seeded kill point: the planted crash plus its fault noise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KillPoint {
    /// The planted crash: op class and occurrence index.
    pub crash: SysFaultSpec,
    /// Non-fatal faults armed alongside it.
    pub noise: Vec<SysFaultSpec>,
}

impl KillPoint {
    /// The full `--sys` spec list the child campaign runs under.
    pub fn specs(&self) -> Vec<SysFaultSpec> {
        let mut specs = vec![self.crash];
        specs.extend(self.noise.iter().copied());
        specs
    }
}

/// One broken durability invariant, pinned to its kill point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrillViolation {
    /// Index of the kill point in the report's `points`.
    pub point: usize,
    /// The crash spec that was planted there.
    pub crash: SysFaultSpec,
    /// Which invariant broke: `accounting`, `journal-resumable`,
    /// `warm-unfaulted`, `ledger`, `durable-warm`, or `no-lost-ack`.
    pub invariant: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl DrillViolation {
    fn new(point: usize, crash: SysFaultSpec, violation: Violation) -> DrillViolation {
        DrillViolation {
            point,
            crash,
            invariant: violation.invariant,
            detail: violation.detail,
        }
    }
}

/// The outcome `critic drill` reports (and serialises on violation).
#[derive(Debug, Clone, Serialize)]
pub struct DrillReport {
    /// The driving seed.
    pub seed: u64,
    /// Grid cells each point's campaign covers.
    pub cells: usize,
    /// Every kill point drilled.
    pub points: Vec<KillPoint>,
    /// Points whose child actually died at the planted crash.
    pub crashed: usize,
    /// Points whose crash index lay beyond the ops the campaign executed
    /// (the child finished; the restart path is verified regardless).
    pub clean: usize,
    /// Cells journaled Ok before a kill and verified untouched after the
    /// restart, summed across points.
    pub acked_preserved: u64,
    /// Disk-store hits observed by the verification passes, summed across
    /// points (durable-warm requires every point to contribute).
    pub disk_hits: u64,
    /// Broken invariants (empty on a passing drill).
    pub violations: Vec<DrillViolation>,
    /// The ddmin-minimized fault subset still reproducing the first
    /// violation, when `--minimize` was requested and needed.
    pub minimized: Option<Vec<SysFaultSpec>>,
}

impl DrillReport {
    /// Whether every invariant held at every point.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Apps per drill grid: 2 apps x {critic, opp16} = 4 cells, small enough
/// that each point's three campaign passes cost fractions of a second.
const DRILL_APPS: usize = 2;

fn drill_trace_len(config: &DrillConfig) -> usize {
    if config.smoke {
        2_000
    } else {
        4_000
    }
}

/// The in-process twin of the child campaign's grid, used for the
/// reference run and the durable-warm verification pass. Must match the
/// child's flags exactly: `--suite mobile --apps 2 --schemes critic,opp16`.
fn drill_spec(config: &DrillConfig) -> CampaignSpec {
    let apps = Suite::Mobile.apps().into_iter().take(DRILL_APPS).collect();
    let schemes = vec![
        Scheme::new("critic", DesignPoint::critic()),
        Scheme::new("opp16", DesignPoint::opp16()),
    ];
    let mut spec = CampaignSpec::new(apps, schemes, drill_trace_len(config));
    spec.workers = 1;
    spec.telemetry = Telemetry::off();
    spec
}

/// Generates the seeded kill points: a round-robin sweep of every
/// operation class at increasing occurrence indices, each with 0–2
/// non-fatal noise faults drawn from the seed.
pub fn generate_points(config: &DrillConfig) -> Vec<KillPoint> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let noise_pool = [
        SysFault::JournalWrite,
        SysFault::JournalFsync,
        SysFault::JournalTorn,
        SysFault::StoreRead,
        SysFault::StoreWrite,
        SysFault::DiskRead,
        SysFault::DiskWrite,
        SysFault::DiskCorrupt,
    ];
    (0..config.points)
        .map(|i| {
            let op = SysOp::ALL[i % SysOp::ALL.len()];
            let at = (i / SysOp::ALL.len()) as u64;
            let n = rng.gen_range(0..=2);
            let noise = (0..n)
                .map(|_| SysFaultSpec {
                    fault: noise_pool[rng.gen_range(0..noise_pool.len())],
                    at: rng.gen_range(0..12),
                })
                .collect();
            KillPoint {
                crash: SysFaultSpec {
                    fault: SysFault::Crash { op },
                    at,
                },
                noise,
            }
        })
        .collect()
}

/// Whether the child died at the planted crash (`std::process::abort` →
/// SIGABRT on unix; any signal death elsewhere).
fn crashed_by_abort(status: &ExitStatus) -> bool {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        status.signal() == Some(ABORT_SIGNAL)
    }
    #[cfg(not(unix))]
    {
        status.code().is_none()
    }
}

/// Files `journal-resumable` unless the child exited with one of
/// `codes`; the detail carries the last few lines of its stderr.
fn check_exit(output: &Output, codes: &[i32], what: &str, violations: &mut Vec<Violation>) {
    let code = output.status.code();
    let stderr = String::from_utf8_lossy(&output.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    let tail = lines[lines.len().saturating_sub(4)..].join(" | ");
    let held = code.is_some_and(|c| codes.contains(&c));
    ensure(
        held,
        violations,
        "journal-resumable",
        format!("{what} (status {code:?}): {tail}"),
    );
}

/// Spawns one child campaign over the point's journal and store.
fn run_child(
    binary: &Path,
    config: &DrillConfig,
    journal: &Path,
    store_dir: &Path,
    specs: &[SysFaultSpec],
    resume: bool,
    run_tag: u64,
) -> Result<Output, BenchError> {
    let mut cmd = Command::new(binary);
    cmd.args([
        "campaign",
        "--suite",
        "mobile",
        "--apps",
        &DRILL_APPS.to_string(),
        "--schemes",
        "critic,opp16",
        "--trace-len",
        &drill_trace_len(config).to_string(),
        "--workers",
        "1",
        "--segment-lines",
        &SEGMENT_LINES.to_string(),
        "--run-tag",
        &run_tag.to_string(),
    ]);
    cmd.arg("--journal").arg(journal);
    cmd.arg("--store-dir").arg(store_dir);
    if resume {
        cmd.arg("--resume");
    }
    for spec in specs {
        cmd.arg("--sys").arg(spec.render());
    }
    cmd.output().map_err(|e| {
        BenchError::Io(format!(
            "cannot spawn drill child {}: {e}",
            binary.display()
        ))
    })
}

/// What one drilled point produced, before violations are pinned to it.
struct PointOutcome {
    crashed: bool,
    acked_preserved: u64,
    disk_hits: u64,
    violations: Vec<Violation>,
}

/// The fault-free in-process reference every point is compared against.
const REFERENCE: &str = "the fault-free reference";

/// Drills one kill point end to end: crash the child, snapshot the acked
/// set, restart with `--resume`, then check every schedule-dependent
/// invariant.
fn run_point(
    config: &DrillConfig,
    binary: &Path,
    specs: &[SysFaultSpec],
    reference: &Metrics,
) -> Result<PointOutcome, BenchError> {
    let scratch = Scratch::new("drill")?;
    let journals = [scratch.join("journal.jsonl")];
    let journal = &journals[0];
    let store_dir = scratch.join("store");
    let spec = drill_spec(config);
    let grid = audit::grid(&spec);
    let mut violations = Vec::new();

    // Phase 1: the campaign under fire. Either it dies at the planted
    // crash (SIGABRT) or the crash index lay beyond the executed ops and
    // it finishes — success, failed cells from the noise, whatever.
    let first = run_child(binary, config, journal, &store_dir, specs, false, 0)?;
    let crashed = crashed_by_abort(&first.status);
    if !crashed {
        let what = "initial campaign neither crashed at the planted point nor exited cleanly";
        check_exit(&first, &[0, 6], what, &mut violations);
    }

    // The acked set: cells the journal acknowledged Ok under run tag 0.
    // no-lost-ack promises the restart never re-simulates any of them.
    let acked: Acks = audit::replay(&journals, &mut violations)
        .into_iter()
        .filter(|(key, r)| r.status == CellStatus::Ok && r.run == Some(0) && grid.contains(key))
        .filter_map(|(key, r)| r.metrics.map(|m| (key, Some((0, m)))))
        .collect();

    // Phase 2: the restart. Same journal, same store, no faults, run tag 1.
    let second = run_child(binary, config, journal, &store_dir, &[], true, 1)?;
    check_exit(&second, &[0], "resume failed", &mut violations);

    // Phase 3: replay the final journal and check accounting, bit-identity
    // against the reference, and no-lost-ack.
    let newest = audit::replay(&journals, &mut violations);
    audit::accounting(&grid, newest.values(), true, &mut violations);
    let ok = newest
        .iter()
        .filter(|(key, r)| r.status == CellStatus::Ok && grid.contains(key));
    audit::check_metrics(
        reference,
        ok.map(|(key, r)| (key.clone(), r.metrics.as_ref())),
        "warm-unfaulted",
        REFERENCE,
        &mut violations,
    );
    let acked_preserved = audit::no_lost_ack(&acked, &newest, &mut violations);

    // Phase 4: durable-warm. A process-restart-equivalent verification
    // pass — fresh in-memory store over the same directory, fresh journal
    // — must be served from disk and reproduce the reference bit for bit.
    let verified = ArtifactStore::persistent(&store_dir, None, Telemetry::off())
        .map_err(|e| format!("store dir unusable after the drill: {e}"))
        .and_then(|store| {
            let store = Arc::new(store);
            run_campaign_with_store(&spec, &store)
                .map(|summary| (summary, store.stats().disk.map_or(0, |d| d.disk_hits)))
                .map_err(|e| format!("verification campaign failed: {e}"))
        });
    let disk_hits = match verified {
        Err(detail) => {
            violate(&mut violations, "durable-warm", detail);
            0
        }
        Ok((summary, disk_hits)) => {
            let cells = summary.records.iter();
            audit::check_metrics(
                reference,
                cells.map(|r| ((r.app.clone(), r.scheme.clone()), r.metrics.as_ref())),
                "durable-warm",
                REFERENCE,
                &mut violations,
            );
            let detail = "verification campaign never hit the disk store — nothing \
                          survived the restart";
            ensure(disk_hits > 0, &mut violations, "durable-warm", detail);
            disk_hits
        }
    };

    Ok(PointOutcome {
        crashed,
        acked_preserved,
        disk_hits,
        violations,
    })
}

/// Runs one full drill invocation: generate the kill points, drill each,
/// check the schedule-independent ledger invariant, and (on violation,
/// when asked) minimize the first violating point's fault set.
///
/// # Errors
///
/// Only infrastructure failures (an unusable scratch directory, a broken
/// reference run, an unspawnable child) are errors; invariant violations
/// are *data*, reported on the [`DrillReport`].
pub fn run_drill(config: &DrillConfig) -> Result<DrillReport, BenchError> {
    let binary = audit::own_binary(config.binary.as_ref())?;
    let points = generate_points(config);
    let reference =
        audit::reference(&drill_spec(config)).map_err(|v| BenchError::Divergence(v.detail))?;

    // The ledger invariant is schedule-independent: once per invocation.
    let mut violations: Vec<DrillViolation> = audit::ledger(drill_trace_len(config))
        .into_iter()
        .map(|v| DrillViolation::new(0, points[0].crash, v))
        .collect();

    let mut crashed = 0;
    let mut clean = 0;
    let mut acked_preserved = 0;
    let mut disk_hits = 0;
    for (i, point) in points.iter().enumerate() {
        let outcome = run_point(config, &binary, &point.specs(), &reference)?;
        if outcome.crashed {
            crashed += 1;
        } else {
            clean += 1;
        }
        acked_preserved += outcome.acked_preserved;
        disk_hits += outcome.disk_hits;
        violations.extend(
            outcome
                .violations
                .into_iter()
                .map(|v| DrillViolation::new(i, point.crash, v)),
        );
    }

    let minimized = match violations.first() {
        Some(first) if config.minimize => {
            let invariant = first.invariant.clone();
            Some(audit::minimize(&points[first.point].specs(), |specs| {
                run_point(config, &binary, specs, &reference)
                    .is_ok_and(|o| o.violations.iter().any(|v| v.invariant == invariant))
            }))
        }
        _ => None,
    };

    Ok(DrillReport {
        seed: config.seed,
        cells: DRILL_APPS * 2,
        points,
        crashed,
        clean,
        acked_preserved,
        disk_hits,
        violations,
        minimized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_are_deterministic_and_sweep_every_op_class() {
        let config = DrillConfig {
            seed: 9,
            points: 13,
            ..DrillConfig::default()
        };
        let a = generate_points(&config);
        let b = generate_points(&config);
        assert_eq!(a, b);
        assert_eq!(a.len(), 13);
        for (i, point) in a.iter().enumerate() {
            let SysFault::Crash { op } = point.crash.fault else {
                panic!("point {i} is not a crash: {:?}", point.crash);
            };
            assert_eq!(op, SysOp::ALL[i % SysOp::ALL.len()]);
            assert_eq!(point.crash.at, (i / SysOp::ALL.len()) as u64);
            assert!(point.noise.len() <= 2);
            for noise in &point.noise {
                assert!(
                    !matches!(noise.fault, SysFault::Crash { .. } | SysFault::Kill),
                    "noise must be non-fatal: {:?}",
                    noise.fault
                );
            }
        }
    }
}
