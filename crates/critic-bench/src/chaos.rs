//! The chaos harness behind `critic chaos`: seeded random schedules of
//! systemic *and* data faults over a smoke campaign, invariant checks, and
//! delta-debugging of failing schedules.
//!
//! A chaos run draws a schedule ([`Vec<ScheduleEntry>`]) — a mix of
//! [`PlannedFault`] data
//! corruptions and [`SysFaultSpec`] environmental failures — from a single
//! seed, runs a small campaign under it with the full supervision policy
//! armed (backoff, breaker, degradation ladder), and asserts the
//! invariants the runner promises to keep under *any* fault mix:
//!
//! * **accounting** — every grid cell appears in the summary exactly once
//!   (Ok, Failed, or Shed); nothing is silently dropped.
//! * **journal-resumable** — whatever the faults did to the journal
//!   (dropped lines, skipped fsyncs, torn tails), a `--resume` run against
//!   it completes the grid.
//! * **warm-unfaulted** — cells the schedule did not touch report metrics
//!   bit-identical to a fault-free reference run, and the reference's own
//!   cold/warm store pair is bit-identical.
//! * **ledger** — the probe cell's cycle ledger still partitions its run
//!   (checked once per invocation; it cannot depend on the schedule).
//!
//! The checkers live in [`crate::audit`]. When an invariant breaks,
//! [`audit::minimize`] delta-debugs (ddmin) the schedule down to a minimal
//! subset that still reproduces the same violation — the JSON the CLI
//! prints is a ready-made regression test.
//!
//! Everything is deterministic from the seed: schedules come from the
//! bit-exact [`StdRng`], campaigns run single-worker, and `WorkerStall` is
//! deliberately absent from the generator pool (its effect depends on host
//! timing, which would make schedules non-reproducible).

use std::fmt;
use std::sync::Arc;

use critic_core::campaign::{
    run_campaign, CampaignSpec, CellMetrics, CellStatus, PlannedFault, Scheme, SupervisionPolicy,
};
use critic_core::design::DesignPoint;
use critic_obs::Telemetry;
use critic_workloads::suite::Suite;
use critic_workloads::{AppSpec, Fault, SysFault, SysFaultSpec, SysInjector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::audit::{self, violate, BenchError, Metrics, Scratch, Violation};

/// One entry of a chaos schedule: either a data fault aimed at a specific
/// cell or a systemic fault armed at an operation index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScheduleEntry {
    /// Corrupt the data flowing through one cell's pipeline.
    Data(PlannedFault),
    /// Fail one operation of the system around the pipeline.
    Sys(SysFaultSpec),
}

impl fmt::Display for ScheduleEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleEntry::Data(p) => {
                write!(
                    f,
                    "data:{}:{}:{}(seed {})",
                    p.app, p.scheme, p.fault, p.seed
                )
            }
            ScheduleEntry::Sys(s) => write!(f, "sys:{s}"),
        }
    }
}

/// What `critic chaos` runs.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed for the schedule (and the supervision policy's backoff jitter).
    pub seed: u64,
    /// Grid cells (apps × 2 schemes; odd values round up).
    pub cells: usize,
    /// Smoke mode: shorter traces, for CI.
    pub smoke: bool,
    /// Delta-debug a violating schedule down to a minimal reproducer.
    pub minimize: bool,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            cells: 8,
            smoke: false,
            minimize: false,
        }
    }
}

/// The deterministic per-cell residue of a chaos campaign — everything a
/// re-run with the same seed must reproduce bit-identically (wall-clock
/// fields are deliberately absent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCell {
    /// App name.
    pub app: String,
    /// Scheme name.
    pub scheme: String,
    /// Terminal status.
    pub status: CellStatus,
    /// Attempts consumed.
    pub attempts: u32,
    /// Final degradation-ladder level, if the supervisor degraded the cell.
    pub degraded: Option<u8>,
    /// Metrics, for Ok cells.
    pub metrics: Option<CellMetrics>,
}

/// The outcome `critic chaos` reports (and serialises on violation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// The driving seed.
    pub seed: u64,
    /// The full generated schedule.
    pub schedule: Vec<ScheduleEntry>,
    /// Per-cell deterministic results of the chaos campaign.
    pub cells: Vec<ChaosCell>,
    /// Whether the chaos campaign was interrupted by an injected kill.
    pub interrupted: bool,
    /// Broken invariants (empty on a passing run).
    pub violations: Vec<Violation>,
    /// The ddmin-minimized schedule still reproducing the first
    /// violation's invariant, when `--minimize` was requested and needed.
    pub minimized: Option<Vec<ScheduleEntry>>,
}

impl ChaosReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The grid a chaos run drills: `cells` cells as apps × {critic, opp16},
/// apps shrunk to campaign-test size so a schedule probe costs fractions
/// of a second.
fn chaos_grid(config: &ChaosConfig) -> (Vec<AppSpec>, Vec<Scheme>) {
    let napps = config.cells.div_ceil(2).max(1);
    let apps: Vec<AppSpec> = Suite::ALL
        .iter()
        .flat_map(|s| s.apps())
        .take(napps)
        .map(|mut app| {
            app.params.num_functions = 24;
            app
        })
        .collect();
    let schemes = vec![
        Scheme::new("critic", DesignPoint::critic()),
        Scheme::new("opp16", DesignPoint::opp16()),
    ];
    (apps, schemes)
}

fn chaos_trace_len(config: &ChaosConfig) -> usize {
    if config.smoke {
        6_000
    } else {
        12_000
    }
}

/// Draws a schedule from the seed: 3–6 entries, each a coin flip between
/// a data fault on a random cell and a systemic fault at a random index.
///
/// The systemic pool spans every deterministic fault family. Alloc budgets
/// are drawn below the first pipeline charge (`trace_len * 64` bytes) so
/// an injected budget always fails its attempt — firing-but-harmless
/// faults would water the drill down. `WorkerStall` is excluded: its
/// observable effect depends on host timing.
pub fn generate_schedule(config: &ChaosConfig) -> Vec<ScheduleEntry> {
    let (apps, schemes) = chaos_grid(config);
    let cells = (apps.len() * schemes.len()) as u64;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let data_pool = [
        Fault::ClobberedDestination,
        Fault::DanglingTerminator,
        Fault::DuplicateUid,
        Fault::EmptyTrace,
    ];
    let n: usize = rng.gen_range(3..=6);
    let mut schedule = Vec::with_capacity(n + 1);
    for _ in 0..n {
        if rng.gen_range(0..2) == 0 {
            let app = &apps[rng.gen_range(0..apps.len())];
            let scheme = &schemes[rng.gen_range(0..schemes.len())];
            schedule.push(ScheduleEntry::Data(PlannedFault {
                app: app.name.clone(),
                scheme: scheme.name.clone(),
                fault: data_pool[rng.gen_range(0..data_pool.len())],
                seed: rng.gen_range(1..=1_000),
            }));
        } else {
            let budget_cap = (chaos_trace_len(config) as u64 * 64).saturating_sub(1);
            let kind = rng.gen_range(0..6);
            let fault = match kind {
                0 => SysFault::JournalWrite,
                1 => SysFault::JournalFsync,
                2 => SysFault::JournalTorn,
                3 => SysFault::StoreRead,
                4 => SysFault::StoreWrite,
                _ => SysFault::AllocBudget {
                    bytes: rng.gen_range(budget_cap / 2..=budget_cap),
                },
            };
            // Ops per class scale with the grid: journal appends and
            // attempt starts roughly once per cell, store requests a
            // few times per clean cell.
            let at = match fault.op() {
                critic_workloads::SysOp::StoreRequest => rng.gen_range(0..cells * 2),
                _ => rng.gen_range(0..cells),
            };
            schedule.push(ScheduleEntry::Sys(SysFaultSpec { fault, at }));
        }
    }
    // One kill in every third schedule, appended last so the coin flips
    // above stay aligned across seeds.
    let kill = rng.gen_range(0..3) == 0;
    let at = rng.gen_range(0..cells.max(2) - 1);
    if kill {
        schedule.push(ScheduleEntry::Sys(SysFaultSpec {
            fault: SysFault::Kill,
            at,
        }));
    }
    schedule
}

/// The campaign spec one schedule probe runs: single worker (full
/// determinism), retry budget, validation on, telemetry on, and the whole
/// supervision policy armed.
fn chaos_spec(config: &ChaosConfig, schedule: &[ScheduleEntry]) -> CampaignSpec {
    let (apps, schemes) = chaos_grid(config);
    let mut spec = CampaignSpec::new(apps, schemes, chaos_trace_len(config));
    spec.workers = 1;
    spec.retries = 2;
    spec.validate = true;
    spec.telemetry = Telemetry::enabled();
    spec.supervision = SupervisionPolicy {
        backoff_base_millis: 1,
        backoff_cap_millis: 4,
        backoff_seed: config.seed,
        breaker_threshold: 2,
        degrade: true,
    };
    let mut sys = Vec::new();
    for entry in schedule {
        match entry {
            ScheduleEntry::Data(p) => spec.faults.push(p.clone()),
            ScheduleEntry::Sys(s) => sys.push(*s),
        }
    }
    if !sys.is_empty() {
        spec.sys = Some(Arc::new(SysInjector::new(sys)));
    }
    spec
}

/// One schedule probe: run the campaign under the schedule, then check the
/// schedule-dependent invariants. `reference` gates the warm-unfaulted
/// check (minimization probes for other invariants skip it by passing
/// `None`).
fn run_schedule(
    config: &ChaosConfig,
    schedule: &[ScheduleEntry],
    reference: Option<&Metrics>,
) -> Result<(Vec<ChaosCell>, bool, Vec<Violation>), BenchError> {
    let scratch = Scratch::new("chaos")?;
    let journal = scratch.join("journal.jsonl");
    let mut spec = chaos_spec(config, schedule);
    spec.journal = Some(journal.clone());
    let summary = run_campaign(&spec)?;
    let mut violations = Vec::new();

    // Invariant: accounting. Every grid cell exactly once, whatever the
    // faults did.
    let grid = audit::grid(&spec);
    audit::accounting(&grid, &summary.records, false, &mut violations);

    // Invariant: journal-resumable. A faultless resume against whatever
    // journal the chaos run left behind completes the grid.
    let mut resume_spec = chaos_spec(config, schedule);
    resume_spec.sys = None;
    resume_spec.journal = Some(journal);
    resume_spec.resume = true;
    match run_campaign(&resume_spec) {
        Err(e) => violate(
            &mut violations,
            "journal-resumable",
            format!("resume against the chaos journal failed: {e}"),
        ),
        Ok(resumed) if resumed.records.len() != grid.len() || resumed.interrupted => violate(
            &mut violations,
            "journal-resumable",
            format!(
                "resume completed {}/{} cells (interrupted: {})",
                resumed.records.len(),
                grid.len(),
                resumed.interrupted
            ),
        ),
        Ok(_) => {}
    }

    // Invariant: warm-unfaulted. Ok cells the schedule never touched (no
    // data fault, never degraded to the baseline-scheme rung) match the
    // fault-free reference bit for bit.
    if let Some(reference) = reference {
        let unfaulted = summary.records.iter().filter(|r| {
            r.status == CellStatus::Ok && r.fault.is_none() && r.degraded.is_none_or(|l| l < 3)
        });
        audit::check_metrics(
            reference,
            unfaulted.map(|r| ((r.app.clone(), r.scheme.clone()), r.metrics.as_ref())),
            "warm-unfaulted",
            "the fault-free reference",
            &mut violations,
        );
    }

    let cells = summary
        .records
        .iter()
        .map(|r| ChaosCell {
            app: r.app.clone(),
            scheme: r.scheme.clone(),
            status: r.status,
            attempts: r.attempts,
            degraded: r.degraded,
            metrics: r.metrics.clone(),
        })
        .collect();
    Ok((cells, summary.interrupted, violations))
}

/// Probes one explicit schedule (no generation, no reference run): runs
/// the campaign under it and returns the schedule-dependent invariant
/// violations. This is the oracle handed to [`audit::minimize`], public
/// so integration tests can drill hand-crafted schedules — e.g. proving
/// the minimizer isolates the `chaos-planted-bug` feature's record drop.
///
/// # Errors
///
/// Only infrastructure failures (an unusable scratch journal); invariant
/// violations are the Ok payload.
pub fn probe_schedule(
    config: &ChaosConfig,
    schedule: &[ScheduleEntry],
) -> Result<Vec<Violation>, BenchError> {
    run_schedule(config, schedule, None).map(|(_, _, violations)| violations)
}

/// Runs one full chaos invocation: generate, drill, check, and (on
/// violation, when asked) minimize.
///
/// # Errors
///
/// Only infrastructure failures (an unusable scratch journal, a broken
/// reference run) are errors; invariant violations are *data*, reported
/// on the [`ChaosReport`].
pub fn run_chaos(config: &ChaosConfig) -> Result<ChaosReport, BenchError> {
    let schedule = generate_schedule(config);
    let mut reference_spec = chaos_spec(config, &[]);
    reference_spec.telemetry = Telemetry::off();
    let reference = audit::reference(&reference_spec);
    let (cells, interrupted, mut violations) =
        run_schedule(config, &schedule, reference.as_ref().ok())?;
    if let Err(violation) = reference {
        violations.insert(0, violation);
    }
    // Checked after the drill, once per invocation rather than per probe.
    violations.extend(audit::ledger(chaos_trace_len(config)));

    let minimized = match violations.first() {
        Some(first) if config.minimize => {
            let invariant = first.invariant.clone();
            Some(audit::minimize(&schedule, |subset| {
                run_schedule(config, subset, None)
                    .is_ok_and(|(_, _, vs)| vs.iter().any(|v| v.invariant == invariant))
            }))
        }
        _ => None,
    };

    Ok(ChaosReport {
        seed: config.seed,
        schedule,
        cells,
        interrupted,
        violations,
        minimized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            cells: 4,
            smoke: true,
            minimize: false,
        }
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        for seed in [0, 1, 42, 0xdead_beef] {
            let a = generate_schedule(&smoke_config(seed));
            let b = generate_schedule(&smoke_config(seed));
            assert_eq!(a, b, "seed {seed}");
            assert!((3..=7).contains(&a.len()), "seed {seed}: {a:?}");
        }
        let a = generate_schedule(&smoke_config(1));
        let b = generate_schedule(&smoke_config(2));
        assert_ne!(a, b, "different seeds draw different schedules");
    }

    #[test]
    fn schedules_round_trip_through_json() {
        let schedule = generate_schedule(&smoke_config(7));
        let json = serde_json::to_string(&schedule).expect("serialises");
        let back: Vec<ScheduleEntry> = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(back, schedule);
    }
}
