//! The audit library the fault drills share. `critic chaos`, `critic
//! drill`, `critic soak` and `critic soak --shards N` are fault schedules
//! plus the phases that run them; the checks on what survives live here:
//!
//! | invariant | checker | drills |
//! |-----------|---------|--------|
//! | `accounting` | [`accounting`] over [`grid`] | chaos, drill |
//! | `journal-resumable` | [`replay`] | chaos, drill, soak, sharded soak |
//! | `warm-unfaulted` | [`reference()`], [`check_metrics`] | chaos, drill |
//! | `durable-warm` | [`check_metrics`] against [`reference()`] | drill |
//! | `bit-identical` | [`check_metrics`] against the oracle's acks | sharded soak |
//! | `no-lost-ack` | [`no_lost_ack`] over [`replay`] | drill, soak, sharded soak |
//! | `ledger` | [`ledger`] | chaos, drill |
//!
//! The service-level invariants (`kill-mid-load`, `bounded-queue`,
//! `overload-sheds`, `graceful-drain`, `shard-restart`, `peer-rebuild`,
//! `no-resimulation`, `failover-p99`) read one counter each and are filed
//! through [`violate`] by the soaks themselves. A violating schedule is
//! reduced by [`minimize`]. The process plumbing — [`own_binary`],
//! [`Server`] and [`Scratch`] — cleans up on every return path, and what
//! stops a drill from reaching a verdict at all is a [`BenchError`]. The
//! drills talk to their children through the wire tier's client,
//! [`Wire`].

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use critic_core::campaign::{
    run_campaign_with_store, CampaignSpec, CellMetrics, CellRecord, CellStatus,
};
use critic_core::design::DesignPoint;
use critic_core::journal::Journal;
use critic_core::runner::Workbench;
use critic_core::store::ArtifactStore;
use critic_core::RunError;
use critic_obs::{CycleLedger, Telemetry};
use critic_pipeline::{SimScratch, Simulator};
use critic_workloads::suite::Suite;
use serde::{Deserialize, Serialize};

use crate::loadgen::AckedCell;
pub use crate::serve::Wire;
use crate::serve::{launch, reap, Request};

/// An (app, scheme) grid cell.
pub type CellKey = (String, String);

/// Per-cell metrics a run is checked against.
pub type Metrics = BTreeMap<CellKey, CellMetrics>;

/// Acknowledged cells. An acknowledgement read off a journal also pins
/// the run tag and metrics it was acknowledged with.
pub type Acks = BTreeMap<CellKey, Option<(u64, CellMetrics)>>;

/// The newest record per cell, as [`replay`] returns it.
pub type Newest = BTreeMap<CellKey, CellRecord>;

/// How long a drained child may take to exit before it is killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Why a drill could not reach a verdict.
#[derive(Debug)]
pub enum BenchError {
    /// The pipeline itself failed.
    Run(RunError),
    /// The probe cell's cycle ledger did not partition the run, or the
    /// ledger-audited run disagreed with the plain one.
    LedgerViolation(String),
    /// A fault-free run the drill is checked against was not itself
    /// sound, so there is nothing to compare with.
    Divergence(String),
    /// Harness infrastructure failed: an unusable scratch directory or
    /// store, an unspawnable drill child.
    Io(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Run(e) => write!(f, "{e}"),
            BenchError::LedgerViolation(msg)
            | BenchError::Divergence(msg)
            | BenchError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<RunError> for BenchError {
    fn from(e: RunError) -> Self {
        BenchError::Run(e)
    }
}

/// One broken invariant, with enough detail to debug it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Which invariant broke, e.g. `accounting` or `no-lost-ack`.
    pub invariant: String,
    /// Human-readable specifics.
    pub detail: String,
}

/// Files one violation of `invariant`.
pub fn violate(violations: &mut Vec<Violation>, invariant: &str, detail: impl Into<String>) {
    violations.push(Violation {
        invariant: invariant.to_string(),
        detail: detail.into(),
    });
}

/// Files one violation of `invariant` unless `held`.
pub fn ensure(
    held: bool,
    violations: &mut Vec<Violation>,
    invariant: &str,
    detail: impl Into<String>,
) {
    if !held {
        violate(violations, invariant, detail);
    }
}

/// The (app, scheme) keys of a spec's grid, app-major.
pub fn grid(spec: &CampaignSpec) -> Vec<CellKey> {
    spec.apps
        .iter()
        .flat_map(|a| {
            spec.schemes
                .iter()
                .map(move |s| (a.name.clone(), s.name.clone()))
        })
        .collect()
}

fn key(record: &CellRecord) -> CellKey {
    (record.app.clone(), record.scheme.clone())
}

/// The fault-free reference run: `spec` cold, then warm over the same
/// in-memory store. Every cell must end Ok and the two runs must be
/// bit-identical; otherwise the broken promise comes back as a
/// `warm-unfaulted` violation.
pub fn reference(spec: &CampaignSpec) -> Result<Metrics, Violation> {
    let broken = |detail: String| Violation {
        invariant: "warm-unfaulted".to_string(),
        detail,
    };
    let store = Arc::new(ArtifactStore::new());
    let run = || {
        run_campaign_with_store(spec, &store)
            .map_err(|e| broken(format!("fault-free reference run failed: {e}")))
    };
    let cold = run()?;
    let warm = run()?;
    if !cold.all_ok() {
        return Err(broken(format!(
            "fault-free reference run has failing cells:\n{}",
            cold.render()
        )));
    }
    if let Some((c, _)) = cold.records.iter().zip(&warm.records).find(|(c, w)| {
        c.metrics != w.metrics || c.validation != w.validation || c.status != w.status
    }) {
        return Err(broken(format!(
            "cold and warm reference runs diverge at {}:{}",
            c.app, c.scheme
        )));
    }
    Ok(cold
        .records
        .into_iter()
        .filter_map(|r| r.metrics.map(|m| ((r.app, r.scheme), m)))
        .collect())
}

/// Accounting: every grid cell appears among `records` exactly once
/// (records outside the grid are ignored), and with `all_ok` it ended Ok.
pub fn accounting<'a>(
    grid: &[CellKey],
    records: impl IntoIterator<Item = &'a CellRecord>,
    all_ok: bool,
    violations: &mut Vec<Violation>,
) {
    let mut seen: BTreeMap<CellKey, Vec<CellStatus>> = BTreeMap::new();
    for record in records {
        seen.entry(key(record)).or_default().push(record.status);
    }
    for (app, scheme) in grid {
        let statuses = seen
            .get(&(app.clone(), scheme.clone()))
            .map_or(&[][..], Vec::as_slice);
        let detail = match statuses {
            [status] if all_ok && *status != CellStatus::Ok => {
                format!("cell {app}:{scheme} ended {status:?} (expected Ok)")
            }
            [_] => continue,
            _ => format!(
                "cell {app}:{scheme} appears {} times (expected exactly once)",
                statuses.len()
            ),
        };
        violate(violations, "accounting", detail);
    }
}

/// Compares each cell's metrics against `reference` bit for bit, filing
/// one `invariant` violation per divergence (a cell without metrics, or
/// one the reference lacks, diverges). Returns how many diverged.
pub fn check_metrics<'a>(
    reference: &Metrics,
    cells: impl IntoIterator<Item = (CellKey, Option<&'a CellMetrics>)>,
    invariant: &str,
    against: &str,
    violations: &mut Vec<Violation>,
) -> u64 {
    let mut diverged = 0;
    for (key, metrics) in cells {
        let want = reference.get(&key);
        if metrics != want {
            diverged += 1;
            violate(
                violations,
                invariant,
                format!(
                    "cell {}:{} is not bit-identical to {against}: {metrics:?} vs {want:?}",
                    key.0, key.1
                ),
            );
        }
    }
    diverged
}

/// Replays `journals` read-only and returns the newest record per cell
/// across them; between journals, a later one in the list wins. An
/// absent journal is skipped (a shard that never started writes none);
/// an unreadable one files `journal-resumable`.
pub fn replay(journals: &[PathBuf], violations: &mut Vec<Violation>) -> Newest {
    let mut newest = Newest::new();
    for journal in journals.iter().filter(|j| j.exists()) {
        match Journal::replay(journal, &Telemetry::off()) {
            Ok(replayed) => newest.extend(replayed.records.into_iter().map(|r| (key(&r), r))),
            Err(e) => violate(
                violations,
                "journal-resumable",
                format!("{} replay failed: {e}", journal.display()),
            ),
        }
    }
    newest
}

/// The acknowledgements clients observed, as [`Acks`] without pins.
pub fn client_acks<'a>(acked: impl IntoIterator<Item = &'a AckedCell>) -> Acks {
    acked
        .into_iter()
        .map(|a| ((a.app.clone(), a.scheme.clone()), None))
        .collect()
}

/// No-lost-ack: every acknowledged cell is still in `newest`, and a
/// pinned acknowledgement still carries its run tag (the cell was not
/// re-simulated) and its metrics. Returns the cells that held.
pub fn no_lost_ack(acks: &Acks, newest: &Newest, violations: &mut Vec<Violation>) -> u64 {
    let mut preserved = 0;
    for ((app, scheme), pin) in acks {
        let record = newest.get(&(app.clone(), scheme.clone()));
        let detail = match (record, pin) {
            (None, _) => {
                format!("cell {app}:{scheme} was acknowledged but is missing from the journal")
            }
            (Some(r), Some((run, _))) if r.run != Some(*run) => format!(
                "cell {app}:{scheme} was acknowledged under run tag {run} but re-simulated \
                 (final run tag {:?})",
                r.run
            ),
            (Some(r), Some((_, metrics))) if r.metrics.as_ref() != Some(metrics) => {
                format!("cell {app}:{scheme} kept its run tag but its acked metrics changed")
            }
            _ => {
                preserved += 1;
                continue;
            }
        };
        violate(violations, "no-lost-ack", detail);
    }
    preserved
}

/// The ledger probe: the probe cell's cycle ledger must partition its
/// run. It cannot depend on a fault schedule, so drills run it once per
/// invocation.
pub fn ledger(trace_len: usize) -> Option<Violation> {
    single_cell_ledger(trace_len).err().map(|e| Violation {
        invariant: "ledger".to_string(),
        detail: e.to_string(),
    })
}

/// The probe cell behind [`ledger`]: the first Mobile app's baseline,
/// simulated once plainly and once with the cycle ledger. Returns the
/// audited ledger.
///
/// # Errors
///
/// Propagates any pipeline failure as [`BenchError::Run`]. A ledger that
/// does not sum to the run's cycles, or a ledger-audited run that differs
/// from the plain one, is [`BenchError::LedgerViolation`].
fn single_cell_ledger(trace_len: usize) -> Result<CycleLedger, BenchError> {
    let app = &Suite::Mobile.apps()[0];
    let mut bench = Workbench::try_new(app, trace_len)?;
    let point = DesignPoint::baseline();
    let base = bench.try_run(&point)?;
    let (audited, ledger) = Simulator::new(point.cpu_config(), point.mem_config()).run_with_ledger(
        bench.baseline_trace(),
        bench.baseline_fanout(),
        &mut SimScratch::new(),
    );
    ledger
        .check(audited.cycles)
        .map_err(BenchError::LedgerViolation)?;
    if audited != base.sim {
        return Err(BenchError::LedgerViolation(format!(
            "ledger-audited baseline diverged from the plain run \
             ({} vs {} cycles)",
            audited.cycles, base.sim.cycles
        )));
    }
    Ok(ledger)
}

/// ddmin over a fault list: returns a subset for which `still_fails`
/// holds. `still_fails(items)` must hold on entry; the result is
/// 1-minimal (dropping any single remaining item passes).
pub fn minimize<T: Clone>(items: &[T], still_fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    let mut current = items.to_vec();
    let mut granularity = 2;
    // Each chunk alone first, then each complement, refining the chunks
    // when neither reproduces. The search only ends after single-item
    // chunks failed to reduce, which is what makes the result 1-minimal.
    while current.len() >= 2 {
        let len = current.len();
        let chunk = len.div_ceil(granularity);
        let bounds: Vec<(usize, usize)> = (0..len)
            .step_by(chunk)
            .map(|start| (start, (start + chunk).min(len)))
            .collect();
        let subset = bounds
            .iter()
            .map(|&(start, end)| current[start..end].to_vec())
            .find(|subset| still_fails(subset));
        if let Some(subset) = subset {
            current = subset;
            granularity = 2;
            continue;
        }
        let complement = bounds
            .iter()
            .map(|&(start, end)| [&current[..start], &current[end..]].concat())
            .find(|complement| still_fails(complement));
        if let Some(complement) = complement {
            current = complement;
            granularity = (granularity - 1).max(2);
        } else if granularity >= len {
            break;
        } else {
            granularity = (granularity * 2).min(len);
        }
    }
    current
}

/// The `critic` binary a drill spawns children from: `configured`, or
/// the current executable (right when the drill runs inside `critic`).
pub fn own_binary(configured: Option<&PathBuf>) -> Result<PathBuf, BenchError> {
    match configured {
        Some(path) => Ok(path.clone()),
        None => std::env::current_exe()
            .map_err(|e| BenchError::Io(format!("cannot locate the critic binary: {e}"))),
    }
}

/// A fresh scratch directory, unique per process and call, removed with
/// everything in it when dropped.
pub struct Scratch(PathBuf);

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Scratch {
    /// Creates `critic_{tag}_{pid}_{n}` under the temp dir.
    pub fn new(tag: &str) -> Result<Scratch, BenchError> {
        let dir = std::env::temp_dir().join(format!(
            "critic_{tag}_{}_{}",
            std::process::id(),
            SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| BenchError::Io(format!("cannot create {}: {e}", dir.display())))?;
        Ok(Scratch(dir))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A long-lived `critic serve` or `critic router` child and the address
/// its banner printed. Dropping it shuts it down as [`Server::shutdown`]
/// does, so no return path leaves it (or a router's shards) running.
pub struct Server {
    child: Child,
    /// The `HOST:PORT` from the child's `listening on` banner.
    pub addr: String,
    reaped: bool,
}

impl Server {
    /// Spawns `binary args` (stderr discarded) and waits for its
    /// `listening on` banner.
    pub fn spawn(binary: &Path, args: &[String]) -> Result<Server, BenchError> {
        let (child, addr) = launch(Command::new(binary).args(args).stderr(Stdio::null()))
            .map_err(|e| BenchError::Io(format!("cannot start {}: {e}", binary.display())))?;
        Ok(Server {
            child,
            addr,
            reaped: false,
        })
    }

    /// `SIGKILL`s the child and reaps it; whether the signal was sent.
    pub fn kill(&mut self) -> bool {
        let killed = self.child.kill().is_ok();
        let _ = self.child.wait();
        self.reaped = true;
        killed
    }

    /// Asks the child to drain over the wire and waits for it to exit,
    /// killing it after a minute. Returns its exit code (`None`
    /// when it died by a signal, or was already reaped).
    pub fn shutdown(&mut self) -> Option<i32> {
        if std::mem::replace(&mut self.reaped, true) {
            return None;
        }
        // Best effort: a child that is already draining may never answer,
        // and the exchange's read timeout bounds that wait.
        if let Some(mut wire) = Wire::connect(&self.addr) {
            let _ = wire.request_reply(&Request::Shutdown);
        }
        reap(&mut self.child, Instant::now() + DRAIN_TIMEOUT)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critic_workloads::{SysFault, SysFaultSpec};

    fn cell(app: &str, scheme: &str) -> CellKey {
        (app.to_string(), scheme.to_string())
    }

    fn metrics(speedup: f64) -> CellMetrics {
        CellMetrics {
            speedup,
            cpu_energy_saving: 0.1,
            thumb_dyn_frac: 0.2,
            dyn_insns: 1_000,
        }
    }

    fn record(app: &str, status: CellStatus, run: Option<u64>, speedup: f64) -> CellRecord {
        CellRecord {
            app: app.to_string(),
            scheme: "critic".to_string(),
            status,
            attempts: 1,
            millis: 0,
            fault: None,
            metrics: (status == CellStatus::Ok).then(|| metrics(speedup)),
            error: None,
            validation: None,
            spans: None,
            degraded: None,
            run,
        }
    }

    /// Writes `records` to a fresh journal at `path`.
    fn write_journal(path: &Path, records: &[CellRecord]) {
        let (journal, _) = Journal::open(path, 0, Telemetry::off()).expect("journal opens");
        for r in records {
            assert!(journal.append_cell(r, None));
        }
    }

    fn invariants(violations: &[Violation]) -> Vec<&str> {
        violations.iter().map(|v| v.invariant.as_str()).collect()
    }

    #[test]
    fn accounting_flags_missing_duplicated_and_non_ok_cells() {
        let grid = vec![cell("A", "critic"), cell("B", "critic")];
        let ok = |app| record(app, CellStatus::Ok, None, 1.1);
        let failed = record("B", CellStatus::Failed, None, 0.0);
        // (records, all_ok, violations expected)
        let cases: Vec<(Vec<CellRecord>, bool, usize)> = vec![
            (vec![ok("A"), ok("B")], true, 0),
            (vec![ok("A"), ok("B"), ok("Z")], true, 0),
            (vec![ok("A")], false, 1),
            (vec![ok("A"), ok("B"), ok("B")], false, 1),
            (vec![ok("A"), failed.clone()], false, 0),
            (vec![ok("A"), failed], true, 1),
            (vec![], true, 2),
        ];
        for (i, (records, all_ok, expected)) in cases.into_iter().enumerate() {
            let mut violations = Vec::new();
            accounting(&grid, &records, all_ok, &mut violations);
            assert_eq!(violations.len(), expected, "case {i}: {violations:?}");
            assert!(invariants(&violations).iter().all(|v| *v == "accounting"));
        }
    }

    #[test]
    fn diverged_metrics_file_the_callers_invariant() {
        let reference: Metrics = [(cell("A", "critic"), metrics(1.1))].into();
        let same = metrics(1.1);
        let other = metrics(1.2);
        for invariant in ["warm-unfaulted", "durable-warm", "bit-identical"] {
            // (cell, metrics, diverged)
            let cases = [
                (cell("A", "critic"), Some(&same), 0),
                (cell("A", "critic"), Some(&other), 1),
                (cell("A", "critic"), None, 1),
                (cell("B", "critic"), Some(&same), 1),
            ];
            for (key, m, expected) in cases {
                let mut violations = Vec::new();
                let n = check_metrics(&reference, [(key, m)], invariant, "x", &mut violations);
                assert_eq!(n, expected);
                assert_eq!(violations.len(), expected as usize);
                assert!(invariants(&violations).iter().all(|v| *v == invariant));
            }
        }
    }

    #[test]
    fn reference_run_is_ok_and_warm_matches_cold() {
        let spec = CampaignSpec::new(
            critic_workloads::suite::Suite::Mobile
                .apps()
                .into_iter()
                .take(1)
                .collect(),
            vec![critic_core::campaign::Scheme::new(
                "critic",
                critic_core::design::DesignPoint::critic(),
            )],
            2_000,
        );
        let reference = reference(&spec).expect("a healthy grid has a reference");
        assert_eq!(reference.keys().cloned().collect::<Vec<_>>(), grid(&spec));

        // A planted data fault fails the cell: the reference refuses.
        let mut faulted = spec.clone();
        faulted.faults = vec![critic_core::campaign::PlannedFault {
            app: grid(&spec)[0].0.clone(),
            scheme: "critic".to_string(),
            fault: critic_workloads::Fault::EmptyTrace,
            seed: 1,
        }];
        let broken = super::reference(&faulted).expect_err("a failing cell has no reference");
        assert_eq!(broken.invariant, "warm-unfaulted");
    }

    #[test]
    fn no_lost_ack_checks_every_branch() {
        let scratch = Scratch::new("audit_test").expect("scratch");
        let journal = scratch.join("j.jsonl");
        write_journal(
            &journal,
            &[
                record("A", CellStatus::Ok, Some(0), 1.1),
                record("B", CellStatus::Ok, Some(1), 1.1),
                record("C", CellStatus::Ok, Some(0), 1.5),
            ],
        );
        let mut violations = Vec::new();
        let newest = replay(&[journal], &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
        let pin = |speedup| Some((0, metrics(speedup)));
        // (acks, preserved, violations)
        let cases: Vec<(Acks, u64, usize)> = vec![
            // Present, unpinned: held.
            ([(cell("A", "critic"), None)].into(), 1, 0),
            // Missing from the journal.
            ([(cell("Acrobat", "critic"), None)].into(), 0, 1),
            // Pinned and untouched: held.
            ([(cell("A", "critic"), pin(1.1))].into(), 1, 0),
            // Re-simulated: the run tag moved from 0 to 1.
            ([(cell("B", "critic"), pin(1.1))].into(), 0, 1),
            // Run tag kept, acked metrics changed.
            ([(cell("C", "critic"), pin(1.1))].into(), 0, 1),
            // Pinned and missing.
            ([(cell("D", "critic"), pin(1.1))].into(), 0, 1),
        ];
        for (i, (acks, preserved, expected)) in cases.into_iter().enumerate() {
            let mut violations = Vec::new();
            assert_eq!(
                no_lost_ack(&acks, &newest, &mut violations),
                preserved,
                "case {i}"
            );
            assert_eq!(violations.len(), expected, "case {i}: {violations:?}");
            assert!(invariants(&violations).iter().all(|v| *v == "no-lost-ack"));
        }
    }

    #[test]
    fn client_acks_dedupe_and_find_cells_in_any_journal() {
        let scratch = Scratch::new("audit_test").expect("scratch");
        let absent = scratch.join("shard-0.jsonl");
        let second = scratch.join("shard-1.jsonl");
        write_journal(&second, &[record("A", CellStatus::Ok, None, 1.1)]);
        let acked: Vec<AckedCell> = ["A", "A"]
            .iter()
            .map(|app| AckedCell {
                id: 1,
                app: app.to_string(),
                scheme: "critic".into(),
                status: CellStatus::Ok,
                acked_at_ms: 0,
                degraded: 0,
                metrics: None,
            })
            .collect();
        let mut violations = Vec::new();
        let newest = replay(&[absent, second], &mut violations);
        let preserved = no_lost_ack(&client_acks(&acked), &newest, &mut violations);
        assert_eq!(preserved, 1);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn replay_keeps_the_newest_record_across_journals() {
        let scratch = Scratch::new("audit_test").expect("scratch");
        let first = scratch.join("a.jsonl");
        let second = scratch.join("b.jsonl");
        write_journal(&first, &[record("A", CellStatus::Failed, Some(0), 0.0)]);
        write_journal(&second, &[record("A", CellStatus::Ok, Some(1), 1.1)]);
        let mut violations = Vec::new();
        let newest = replay(&[first, second], &mut violations);
        assert!(violations.is_empty());
        assert_eq!(newest[&cell("A", "critic")].run, Some(1));
    }

    #[test]
    fn unreadable_journal_is_journal_resumable() {
        let scratch = Scratch::new("audit_test").expect("scratch");
        // A directory where the journal file should be cannot be read.
        let journal = scratch.join("dir.jsonl");
        std::fs::create_dir_all(&journal).expect("dir");
        let readable = scratch.join("ok.jsonl");
        write_journal(&readable, &[record("A", CellStatus::Ok, None, 1.1)]);
        let mut violations = Vec::new();
        let newest = replay(&[journal, readable], &mut violations);
        assert_eq!(invariants(&violations), ["journal-resumable"]);
        assert_eq!(newest.len(), 1, "the readable journal still counts");
    }

    #[test]
    fn scratch_dirs_are_unique_and_removed_on_drop() {
        let a = Scratch::new("audit_test").expect("scratch");
        let b = Scratch::new("audit_test").expect("scratch");
        assert_ne!(a.0, b.0);
        let path = a.0.clone();
        std::fs::write(a.join("f"), "x").expect("write");
        drop(a);
        assert!(!path.exists());
        assert!(b.0.exists());
    }

    #[test]
    fn minimizer_reduces_to_the_failing_core_on_a_synthetic_oracle() {
        // Synthetic oracle: the schedule "fails" iff it contains both the
        // store-read fault and the kill. ddmin must find exactly that pair.
        let schedule: Vec<SysFaultSpec> = [
            (SysFault::JournalFsync, 0),
            (SysFault::StoreRead, 1),
            (SysFault::JournalWrite, 2),
            (SysFault::Kill, 1),
            (SysFault::JournalTorn, 3),
        ]
        .into_iter()
        .map(|(fault, at)| SysFaultSpec { fault, at })
        .collect();
        let needs = |subset: &[SysFaultSpec]| {
            let has = |f: SysFault| subset.iter().any(|s| s.fault == f);
            has(SysFault::StoreRead) && has(SysFault::Kill)
        };
        assert!(needs(&schedule));
        let minimal = minimize(&schedule, needs);
        assert_eq!(minimal.len(), 2, "{minimal:?}");
        assert!(needs(&minimal), "{minimal:?}");
    }

    #[test]
    fn single_cell_probe_audits_the_ledger() {
        let probe = single_cell_ledger(8_000).expect("probe runs");
        assert!(probe.stall_for_i() + probe.stall_for_rd() > 0);
        assert!(probe.commit > 0);
        assert_eq!(ledger(8_000), None);
    }

    #[test]
    fn minimizer_handles_single_culprit() {
        let culprit = SysFaultSpec {
            fault: SysFault::StoreWrite,
            at: 1,
        };
        let schedule = vec![
            SysFaultSpec {
                fault: SysFault::JournalFsync,
                at: 0,
            },
            culprit,
            SysFaultSpec {
                fault: SysFault::JournalWrite,
                at: 2,
            },
        ];
        let minimal = minimize(&schedule, |subset| subset.contains(&culprit));
        assert_eq!(minimal, vec![culprit]);
    }
}
