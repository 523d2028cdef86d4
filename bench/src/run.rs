//! What every workload shares: the run context, repeated set-up, the
//! time-boxed rep loop and the reduction of reps to metrics.

use std::path::PathBuf;
use std::time::Instant;

use critic_core::campaign::{CampaignSpec, Scheme};
use critic_core::{CellMetrics, RunOutcome, StoreStats};
use critic_obs::Telemetry;
use critic_workloads::AppSpec;

use crate::host::HostSpeed;
use crate::inputs::Scale;
use crate::metrics::Values;
use crate::spans::SpanLog;
use crate::stats::{median, with_peak_rss};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Worker threads for campaigns and the service: the benchmark is sized
/// for a two-core host.
pub const WORKERS: usize = 2;

/// One run's fixed inputs.
pub struct Ctx<'a> {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Input sizes.
    pub scale: Scale,
    /// Per-run scratch directory (journals, stores), removed at exit.
    pub scratch: PathBuf,
    /// The span log of a traced run.
    pub spans: Option<&'a SpanLog>,
}

/// A cell the traced layer walk replays, with the result the workload
/// itself produced for it (when it has one to check against).
#[derive(Debug, Clone)]
pub struct WalkCell {
    /// The app, with the workload's seeded generator parameters.
    pub app: AppSpec,
    /// The scheme.
    pub scheme: Scheme,
    /// The workload's own metrics for this cell.
    pub expected: Option<CellMetrics>,
}

/// What the traced layer walk covers for one workload.
#[derive(Debug, Clone, Default)]
pub struct WalkPlan {
    /// Cells, grouped by app in walk order.
    pub cells: Vec<WalkCell>,
    /// Trace length of every cell.
    pub trace_len: usize,
    /// Window of the streamed layers.
    pub window: usize,
    /// The workload streams its cells (the wire probe does too).
    pub streamed: bool,
    /// The workload runs the translation validator on its cells.
    pub validate: bool,
    /// Send the walked cells through the service over TCP as well (the
    /// campaign workloads; service-open measures its own requests).
    pub probe: bool,
    /// Host milliseconds per cell in the workload's own executor (wall ×
    /// workers / cells), for `campaign.unattributed_ms_per_cell`.
    pub executor_ms_per_cell: f64,
}

/// Everything a workload measured, before the metric tables pick from it.
#[derive(Debug, Default)]
pub struct Measured {
    /// End-to-end values, timed-phase per-layer values and details.
    pub values: Values,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Correctness-gate violations.
    pub violations: Vec<String>,
    /// The traced run's layer walk.
    pub walk: WalkPlan,
}

impl Measured {
    /// Counts one gate check; a failed one is a failed operation.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.violations.push(what());
        }
    }
}

/// Runs `setup` [`SETUPS`] times and keeps the last result, with each
/// set-up's duration in seconds.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for k in 0..SETUPS {
        let started = Instant::now();
        last = Some(setup(k)?);
        secs.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUPS > 0"), secs))
}

/// One timed rep of a campaign workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Wall-clock seconds of the timed calls.
    pub wall_s: f64,
    /// Simulated scheme instructions of the rep's cells.
    pub insns: u64,
    /// Cells finished.
    pub cells: u64,
    /// Whether benchmark spans were recorded around it.
    pub traced: bool,
    /// Store requests served from cache.
    pub hits: u64,
    /// Store requests.
    pub requests: u64,
    /// Artifacts built.
    pub builds: u64,
}

impl Rep {
    /// Adds one store's counters.
    pub fn count_store(&mut self, stats: &StoreStats) {
        self.hits += stats.hits;
        self.requests += stats.requests();
        self.builds += stats.built();
    }
}

/// The timed phase of a campaign workload.
pub struct Timed {
    /// Every rep, in order.
    pub reps: Vec<Rep>,
    /// Peak resident set size of the phase, MiB.
    pub peak_rss_mb: f64,
    /// The host's slowdown against the reference (see [`HostSpeed`]),
    /// probed before every rep and after the last.
    pub slowdown: f64,
}

/// Runs reps until the next one would overrun `ctx.seconds` (at least two,
/// so reps can be compared and a traced run has both kinds). In a traced
/// run even reps record spans under a `rep` span and odd reps do not, so
/// tracing overhead is measured ABAB within one process.
pub fn timed_reps(
    ctx: &Ctx,
    rep: impl FnMut(usize, Option<(&SpanLog, u64)>) -> Result<Rep, String>,
) -> Result<Timed, String> {
    let mut host = HostSpeed::new();
    let (reps, peak_rss_mb) = with_peak_rss(|| rep_loop(ctx, &mut host, rep));
    Ok(Timed {
        reps: reps?,
        peak_rss_mb,
        slowdown: host.slowdown(),
    })
}

fn rep_loop(
    ctx: &Ctx,
    host: &mut HostSpeed,
    mut rep: impl FnMut(usize, Option<(&SpanLog, u64)>) -> Result<Rep, String>,
) -> Result<Vec<Rep>, String> {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let i = reps.len();
        let log = ctx.spans.filter(|_| i.is_multiple_of(2));
        let key = format!("rep-{i}");
        let parent = log.map(|log| (log, log.open(None, "rep", &key)));
        host.sample();
        let mut sample = rep(i, parent)?;
        if let Some((log, id)) = parent {
            log.close(id, sample.cells as f64);
        }
        sample.traced = parent.is_some();
        reps.push(sample);
        let typical = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        if reps.len() >= 2 && started.elapsed().as_secs_f64() + typical > ctx.seconds {
            host.sample();
            return Ok(reps);
        }
    }
}

/// Runs `f` inside a span when a log is given.
pub fn span<T>(log: Option<(&SpanLog, u64)>, name: &str, key: &str, f: impl FnOnce() -> T) -> T {
    match log {
        Some((log, parent)) => log.time(Some(parent), name, key, f, |_| 0.0),
        None => f(),
    }
}

/// End-to-end and timed-phase per-layer values of a campaign workload, its
/// timings scaled to the reference host. End-to-end numbers come from
/// untraced reps only.
pub fn rep_values(values: &mut Values, timed: &Timed, setup_s: &[f64]) {
    let reps = &timed.reps;
    values.set("peak_rss_mb", timed.peak_rss_mb);
    values.set("setup_s", median(setup_s));
    let plain: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let walls_ms: Vec<f64> = plain.iter().map(|r| r.wall_s * 1e3).collect();
    let rates: Vec<f64> = plain
        .iter()
        .map(|r| r.insns as f64 / r.wall_s / 1e6)
        .collect();
    values.set("sim_minsts_per_s", median(&rates));
    values.set("p50_ms", median(&walls_ms));
    let hit_rates: Vec<f64> = reps
        .iter()
        .map(|r| r.hits as f64 / r.requests.max(1) as f64)
        .collect();
    values.set("store.hit_rate", median(&hit_rates));
    let builds: Vec<f64> = reps.iter().map(|r| r.builds as f64).collect();
    values.set("store.builds", median(&builds));
    let traced: Vec<f64> = reps.iter().filter(|r| r.traced).map(|r| r.wall_s).collect();
    if !traced.is_empty() && !plain.is_empty() {
        let untraced = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        values.set("trace.overhead_frac", median(&traced) / untraced - 1.0);
    }
    crate::host::normalize(values, timed.slowdown);
}

/// Host milliseconds per cell in a campaign executor with [`WORKERS`].
pub fn executor_ms_per_cell(reps: &[Rep]) -> f64 {
    let per_cell: Vec<f64> = reps
        .iter()
        .map(|r| r.wall_s * 1e3 * WORKERS as f64 / r.cells.max(1) as f64)
        .collect();
    median(&per_cell)
}

/// A silent campaign over `apps` × `schemes` with the benchmark's workers.
pub fn campaign_spec(apps: Vec<AppSpec>, schemes: Vec<Scheme>, trace_len: usize) -> CampaignSpec {
    let mut spec = CampaignSpec::new(apps, schemes, trace_len);
    spec.workers = WORKERS;
    spec.telemetry = Telemetry::off();
    spec
}

/// A cell's metrics from its baseline and scheme outcomes, computed the way
/// the campaign runner computes them.
pub fn cell_metrics(base: &RunOutcome, outcome: &RunOutcome) -> CellMetrics {
    CellMetrics {
        speedup: outcome.sim.speedup_over(&base.sim),
        cpu_energy_saving: outcome.energy.cpu_saving(&base.energy),
        thumb_dyn_frac: outcome.thumb_dyn_frac,
        dyn_insns: outcome.dyn_insns,
    }
}
