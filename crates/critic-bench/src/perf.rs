//! The perf-regression harness behind `critic bench` and the
//! `perf_regression` Criterion suite.
//!
//! Two measurements, chosen to bracket the hot paths this workspace
//! optimises:
//!
//! * **single-cell latency** — one app, cold: generate, profile, simulate
//!   baseline and the CritIC scheme. Covers the simulator's scratch-buffer
//!   reuse and the single-pass fanout computation.
//! * **cold vs warm campaign** — the same full grid run twice against one
//!   [`ArtifactStore`]: the first (cold) run populates the store, the
//!   second (warm) run is served worlds, profiles, and baseline
//!   simulations from it. The ratio is the store's leverage; a warm run
//!   slower than cold is a memoization regression.
//!
//! [`run_perf_bench`] packages both into a serialisable [`BenchReport`]
//! that the CLI writes as `BENCH_*.json` and CI gates on.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use critic_core::campaign::{
    default_schemes, run_campaign_with_store, CampaignSpec, CampaignSummary, CellMetrics, Scheme,
};
use critic_core::design::{DesignPoint, Software};
use critic_core::disk::DiskStoreStats;
use critic_core::runner::Workbench;
use critic_core::store::{ArtifactStore, StoreStats};
use critic_core::RunError;
use critic_energy::EnergyModel;
use critic_obs::{CycleLedger, Telemetry};
use critic_pipeline::{SimScratch, Simulator};
use critic_workloads::suite::Suite;
use critic_workloads::{DynInsn, Trace, DEFAULT_LOOKAHEAD, DEFAULT_STREAM_WINDOW};
use serde::Serialize;

use crate::audit::Scratch;

/// Why a bench measurement could not produce a number.
#[derive(Debug)]
pub enum BenchError {
    /// The pipeline itself failed.
    Run(RunError),
    /// The grid ran but some cells failed; a perf number over a
    /// half-failed grid is meaningless, so the harness refuses to report
    /// one. Carries the campaign's rendered summary.
    FailedCells(String),
    /// The probe cell's cycle ledger did not partition the run — the
    /// observability invariant the bench-smoke CI job gates on.
    LedgerViolation(String),
    /// The batched cold campaign and the scalar reference pipeline
    /// disagreed on a cell's metrics. The speedup number is meaningless if
    /// the fast path computes something different, so the harness refuses
    /// to report one.
    Divergence(String),
    /// Harness infrastructure failed: an unusable scratch directory or
    /// store, an unspawnable drill child.
    Io(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Run(e) => write!(f, "{e}"),
            BenchError::FailedCells(summary) => {
                write!(f, "bench grid had failing cells:\n{summary}")
            }
            BenchError::LedgerViolation(msg) => write!(f, "{msg}"),
            BenchError::Divergence(msg) => write!(f, "{msg}"),
            BenchError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<RunError> for BenchError {
    fn from(e: RunError) -> Self {
        BenchError::Run(e)
    }
}

/// Grid parameters for one perf measurement.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BenchSetup {
    /// Apps in the campaign grid (taken from the Mobile suite in order).
    pub apps: usize,
    /// Schemes in the campaign grid (taken from `critic`, `opp16`,
    /// `hoist` in order).
    pub schemes: usize,
    /// Dynamic instructions per trace.
    pub trace_len: usize,
    /// Schemes in the cold-path sensitivity grid (taken from
    /// [`sensitivity_grid`] in order).
    pub sensitivity_schemes: usize,
    /// Cold/warm pairs measured; the report keeps the best of each.
    pub reps: usize,
    /// Dynamic instructions in the streaming-vs-materialized probe trace.
    /// Deliberately much longer than `trace_len`: the point of the probe
    /// is that streaming peak memory stays flat while this grows.
    pub stream_trace_len: usize,
    /// Streaming window (instructions per chunk) the probe runs with.
    pub stream_window: usize,
}

impl BenchSetup {
    /// The full measurement the committed `BENCH_*.json` files record.
    pub fn full() -> BenchSetup {
        BenchSetup {
            apps: 4,
            schemes: 3,
            trace_len: 40_000,
            sensitivity_schemes: 18,
            reps: 3,
            stream_trace_len: 400_000,
            stream_window: DEFAULT_STREAM_WINDOW,
        }
    }

    /// A scaled-down grid for CI smoke runs: same shape, small enough to
    /// finish in seconds.
    pub fn smoke() -> BenchSetup {
        BenchSetup {
            apps: 2,
            schemes: 2,
            trace_len: 10_000,
            sensitivity_schemes: 6,
            reps: 1,
            stream_trace_len: 100_000,
            stream_window: 1_024,
        }
    }
}

/// One measured bench run, serialised to `BENCH_*.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// The grid that was measured.
    pub setup: BenchSetup,
    /// One cold cell end-to-end: generate, profile, baseline + CritIC runs.
    pub single_cell_millis: f64,
    /// Batched-versus-scalar cold-path measurement over the sensitivity
    /// grid — the `cold_speedup` inside is what `critic bench
    /// --min-cold-speedup` and CI gate on.
    pub cold_path: ColdPathReport,
    /// Full-grid campaign against an empty store (best of `reps`).
    pub cold_campaign_millis: f64,
    /// The same campaign re-run against the populated store (best of
    /// `reps`).
    pub warm_campaign_millis: f64,
    /// `cold_campaign_millis / warm_campaign_millis`.
    pub warm_speedup: f64,
    /// The warm campaign re-measured with telemetry enabled (best of
    /// `reps`), against its own freshly warmed store.
    pub warm_telemetry_campaign_millis: f64,
    /// `(warm_telemetry - warm) / warm`: the fractional cost of enabling
    /// telemetry on the warm path, measured in-process so both sides see
    /// the same machine state. The observability layer's budget is <5%.
    pub telemetry_overhead_frac: f64,
    /// Full-grid campaign against an empty *persistent* store (best of
    /// `reps`): the cold half of the restart measurement.
    pub restart_cold_campaign_millis: f64,
    /// The same campaign re-run against a **fresh in-memory store over the
    /// same directory** — the moral equivalent of a process restart: every
    /// profile and baseline must come off disk (best of `reps`).
    pub restart_warm_campaign_millis: f64,
    /// `restart_cold_campaign_millis / restart_warm_campaign_millis`: the
    /// durable tier's leverage across a restart.
    pub restart_warm_speedup: f64,
    /// Disk-tier counters after the restart-warm pass: hits must be
    /// non-zero or the persistent store did nothing.
    pub disk: DiskStoreStats,
    /// The streaming-vs-materialized probe: throughput and peak-memory
    /// comparison of the chunked trace pipeline against the fully
    /// materialized one, reported only after their results matched
    /// bit-for-bit.
    pub stream: StreamReport,
    /// The probe cell's baseline cycle ledger; recorded so the report
    /// itself witnesses the partition invariant (`sum == cycles`), which
    /// [`run_perf_bench`] enforces before reporting.
    pub ledger: CycleLedger,
    /// Store counters after the last cold/warm pair: how much was built
    /// versus served from cache.
    pub store: StoreStats,
}

/// Per-cell phase costs of the batched cold campaign, in milliseconds,
/// taken from one telemetry-instrumented pass (span totals divided by the
/// cell count). `other` is the wall clock the spans do not cover — trace
/// expansion, decode, and record assembly.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ColdCellMillis {
    /// World construction (program, path, trace, fan-out, validation).
    pub world_build: f64,
    /// Criticality profile construction.
    pub profile: f64,
    /// Compiler passes.
    pub passes: f64,
    /// Simulation (baseline + scheme).
    pub sim: f64,
    /// Unspanned remainder of the instrumented wall clock.
    pub other: f64,
    /// Instrumented wall clock per cell.
    pub total: f64,
}

/// The cold-path measurement: one batched campaign versus the scalar
/// per-cell reference pipeline over the same sensitivity grid, at
/// bit-identical per-cell metrics.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ColdPathReport {
    /// Cells in the sensitivity grid (`apps × sensitivity_schemes`).
    pub cells: usize,
    /// Batched cold campaign against a fresh store (best of `reps`).
    pub batched_millis: f64,
    /// The scalar reference pipeline over the same grid (best of `reps`):
    /// per cell, a fresh workbench, a cloned variant, a fresh trace
    /// expansion, and two `run_reference` walks.
    pub scalar_millis: f64,
    /// `scalar_millis / batched_millis` — the number the CI gate holds.
    pub cold_speedup: f64,
    /// Scheme-side dynamic instructions simulated per second of batched
    /// cold wall clock (baseline walks, being store-shared, are excluded).
    pub insts_per_sec: f64,
    /// Per-cell phase breakdown of the batched cold path.
    pub cold_cell_millis: ColdCellMillis,
}

/// The streaming-vs-materialized probe measurement: one long-trace cell
/// run through both engines at bit-identical results, with wall clock and
/// peak resident bytes on each side.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct StreamReport {
    /// Streaming window, in instructions per chunk.
    pub window: usize,
    /// Dynamic instructions in the probe trace.
    pub trace_len: usize,
    /// Scheme-side run through the materialized path (best of `reps`).
    pub materialized_millis: f64,
    /// The same run through the streaming front-end (best of `reps`).
    pub streamed_millis: f64,
    /// `trace_len / materialized seconds`.
    pub materialized_insts_per_sec: f64,
    /// `trace_len / streamed seconds`.
    pub streamed_insts_per_sec: f64,
    /// `streamed_insts_per_sec / materialized_insts_per_sec` — the
    /// acceptance bar is staying within 10% of the materialized path.
    pub throughput_ratio: f64,
    /// Peak bytes resident in the streaming run: simulator rings, pipeline
    /// queues, and the expansion ring, sampled at every window feed.
    pub peak_resident_bytes: u64,
    /// Final simulator ring capacity, in slots.
    pub ring_capacity: usize,
    /// Mid-run ring doublings (non-zero only when a CDP-dense region
    /// stretched the live span past the initial capacity).
    pub ring_grows: u32,
    /// The fixed O(window) ceiling [`stream_peak_ceiling`] computes —
    /// independent of `trace_len`, which is the whole point.
    pub peak_ceiling_bytes: u64,
    /// What the materialized path holds for the same trace
    /// ([`materialized_bytes_estimate`]): entries, decoded columns, and
    /// timestamp arrays, all O(trace).
    pub materialized_bytes_estimate: u64,
}

/// Bytes per instruction the materialized path keeps live: the expanded
/// [`DynInsn`] entries plus the decoded columns and timestamp arrays
/// (about 100 B/insn across the data-oriented simulator's vectors).
const MATERIALIZED_COLUMN_BYTES: usize = 100;

/// The fixed streaming-peak ceiling for a given window, in bytes. A
/// generous multiple of `window + lookahead`: the simulator ring starts at
/// `next_pow2(window + ROB + buffers)` slots of ~100 B and may double a
/// few times over CDP-dense spans, and the expansion ring adds
/// O(lookahead). 2 KiB per slot covers all of that with an order of
/// magnitude to spare while staying independent of the trace length — a
/// streaming run whose peak scales with the trace will cross this line
/// long before the acceptance trace ends.
pub fn stream_peak_ceiling(window: usize) -> u64 {
    (window + DEFAULT_LOOKAHEAD) as u64 * 2048
}

/// What the materialized path holds resident for a `trace_len` trace.
pub fn materialized_bytes_estimate(trace_len: usize) -> u64 {
    (trace_len * (std::mem::size_of::<DynInsn>() + MATERIALIZED_COLUMN_BYTES)) as u64
}

/// Runs the streaming-vs-materialized probe: one cell on the longest
/// trace in the setup, scheme-side simulation timed through both the
/// materialized data-oriented path and the chunked streaming front-end
/// (best of `reps` each), with the baseline and profile warmed untimed so
/// both sides measure only expansion + simulation.
///
/// # Errors
///
/// Propagates pipeline failures; any mismatch between the two paths'
/// results is [`BenchError::Divergence`] — the throughput and memory
/// numbers are only reported over bit-identical computations.
pub fn time_stream_path(setup: &BenchSetup) -> Result<StreamReport, BenchError> {
    let app = &Suite::Mobile.apps()[0];
    let trace_len = setup.stream_trace_len;
    let window = setup.stream_window;
    let point = DesignPoint::critic();
    let mut bench = Workbench::try_new(app, trace_len)?;
    // Untimed warmup: baseline run and profile build happen once here, so
    // the timed passes below pay only variant expansion + simulation.
    bench.try_run(&DesignPoint::baseline())?;
    bench.try_run(&point)?;

    let mut best_materialized = Duration::MAX;
    let mut materialized = None;
    bench.set_stream_window(None);
    for _ in 0..setup.reps.max(1) {
        let started = Instant::now();
        let run = bench.try_run(&point)?;
        best_materialized = best_materialized.min(started.elapsed());
        materialized = Some(run);
    }
    let mut best_streamed = Duration::MAX;
    let mut streamed = None;
    let mut stats = None;
    bench.set_stream_window(Some(window));
    for _ in 0..setup.reps.max(1) {
        let started = Instant::now();
        let run = bench.try_run(&point)?;
        best_streamed = best_streamed.min(started.elapsed());
        stats = bench.stream_stats();
        streamed = Some(run);
    }
    bench.set_stream_window(None);

    let materialized = materialized.expect("reps >= 1");
    let streamed = streamed.expect("reps >= 1");
    let stats = stats
        .ok_or_else(|| BenchError::Io("streamed bench run recorded no stream stats".to_string()))?;
    if materialized.sim != streamed.sim
        || materialized.dyn_insns != streamed.dyn_insns
        || materialized.thumb_dyn_frac != streamed.thumb_dyn_frac
    {
        return Err(BenchError::Divergence(format!(
            "streaming front-end diverged from the materialized path on \
             {}/{}: {} vs {} cycles over {} vs {} insns",
            app.name,
            point.label(),
            streamed.sim.cycles,
            materialized.sim.cycles,
            streamed.dyn_insns,
            materialized.dyn_insns,
        )));
    }

    let materialized_secs = best_materialized.as_secs_f64();
    let streamed_secs = best_streamed.as_secs_f64();
    let materialized_ips = streamed.dyn_insns as f64 / materialized_secs;
    let streamed_ips = streamed.dyn_insns as f64 / streamed_secs;
    Ok(StreamReport {
        window,
        trace_len,
        materialized_millis: materialized_secs * 1e3,
        streamed_millis: streamed_secs * 1e3,
        materialized_insts_per_sec: materialized_ips,
        streamed_insts_per_sec: streamed_ips,
        throughput_ratio: streamed_ips / materialized_ips,
        peak_resident_bytes: stats.peak_resident_bytes as u64,
        ring_capacity: stats.ring_capacity,
        ring_grows: stats.grows,
        peak_ceiling_bytes: stream_peak_ceiling(window),
        materialized_bytes_estimate: materialized_bytes_estimate(trace_len),
    })
}

/// The sensitivity sweep the cold-path measurement runs: the paper's
/// software schemes (Figs. 10 and 12 — the default campaign grid plus the
/// chain-length and profile-fraction sensitivity points) followed by the
/// Fig. 11 hardware points (software stays baseline, so these cells
/// exercise the store's hardware-keyed baseline sharing).
pub fn sensitivity_grid() -> Vec<Scheme> {
    let mut schemes = default_schemes();
    for n in [2, 3, 4] {
        schemes.push(Scheme::new(
            &format!("critic-len{n}"),
            DesignPoint::critic_exact_len(n),
        ));
    }
    for f in [0.25, 0.5] {
        schemes.push(Scheme::new(
            &format!("critic-pf{f}"),
            DesignPoint::critic_profile_fraction(f),
        ));
    }
    schemes.push(Scheme::new("hw-2xfd", DesignPoint::double_fd()));
    schemes.push(Scheme::new("hw-4xic", DesignPoint::quad_icache()));
    schemes.push(Scheme::new("hw-efetch", DesignPoint::efetch()));
    schemes.push(Scheme::new("hw-perfbr", DesignPoint::perfect_branch()));
    schemes.push(Scheme::new("hw-prio", DesignPoint::backend_prio()));
    schemes.push(Scheme::new("hw-all", DesignPoint::all_hw()));
    schemes
}

/// The sensitivity-grid campaign the cold-path measurement runs: silent,
/// single worker (the scalar reference loop is single-threaded, so the
/// comparison must be too).
pub fn sensitivity_campaign(setup: &BenchSetup) -> CampaignSpec {
    let apps = Suite::Mobile.apps().into_iter().take(setup.apps).collect();
    let schemes = sensitivity_grid()
        .into_iter()
        .take(setup.sensitivity_schemes)
        .collect();
    let mut spec = CampaignSpec::new(apps, schemes, setup.trace_len);
    spec.telemetry = Telemetry::off();
    spec.workers = 1;
    spec
}

/// Runs the scalar per-cell reference pipeline over `spec`'s grid and
/// returns its wall clock plus the per-cell metrics, in the campaign's
/// (app, scheme) record order. Every cell pays what a pre-batching
/// campaign cell paid: its own workbench (program generation, path,
/// baseline trace), a cloned variant binary, a fresh trace expansion and
/// fan-out, and two scalar [`Simulator::run_reference`] walks.
///
/// # Errors
///
/// Propagates any pipeline failure as [`BenchError::Run`].
pub fn time_cold_scalar(spec: &CampaignSpec) -> Result<(Duration, Vec<CellMetrics>), BenchError> {
    let energy = EnergyModel::default();
    let mut metrics = Vec::with_capacity(spec.apps.len() * spec.schemes.len());
    let started = Instant::now();
    for app in &spec.apps {
        for scheme in &spec.schemes {
            let mut bench = Workbench::try_new(app, spec.trace_len)?;
            let base_point = DesignPoint::baseline();
            let base_sim = Simulator::new(base_point.cpu_config(), base_point.mem_config())
                .run_reference(bench.baseline_trace(), bench.baseline_fanout())
                .0;
            let point = &scheme.point;
            let (sim, thumb_dyn_frac, dyn_insns) = if matches!(point.software, Software::Baseline) {
                // Hardware-only points replay the recorded baseline trace
                // under the altered configuration.
                let sim = Simulator::new(point.cpu_config(), point.mem_config())
                    .run_reference(bench.baseline_trace(), bench.baseline_fanout())
                    .0;
                let trace = bench.baseline_trace();
                (sim, trace.thumb_fraction(), trace.len())
            } else {
                let (program, _pass) = bench.try_variant(&point.software)?;
                let trace = Trace::expand(&program, &bench.path);
                let fanout = trace.compute_fanout();
                let sim = Simulator::new(point.cpu_config(), point.mem_config())
                    .run_reference(&trace, &fanout)
                    .0;
                (sim, trace.thumb_fraction(), trace.len())
            };
            metrics.push(CellMetrics {
                speedup: sim.speedup_over(&base_sim),
                cpu_energy_saving: energy
                    .evaluate(&sim)
                    .cpu_saving(&energy.evaluate(&base_sim)),
                thumb_dyn_frac,
                dyn_insns,
            });
        }
    }
    Ok((started.elapsed(), metrics))
}

/// Times one batched cold campaign over `spec` against a fresh store.
fn time_cold_batched(spec: &CampaignSpec) -> Result<(Duration, CampaignSummary), BenchError> {
    let store = Arc::new(ArtifactStore::new());
    let started = Instant::now();
    let summary = run_campaign_with_store(spec, &store)?;
    let elapsed = started.elapsed();
    if !summary.all_ok() {
        return Err(BenchError::FailedCells(summary.render()));
    }
    Ok((elapsed, summary))
}

/// Runs the cold-path measurement: `reps` batched cold campaigns and
/// `reps` scalar reference sweeps over the same sensitivity grid (keeping
/// the fastest of each), one record-by-record equality check between the
/// two pipelines' metrics, and one instrumented batched pass for the
/// per-cell phase breakdown.
///
/// The equality check is exact (`f64` bit equality through
/// [`CellMetrics`]'s `PartialEq`): both engines are required to be
/// bit-identical, so *any* difference fails the measurement with
/// [`BenchError::Divergence`] rather than reporting a speedup over a
/// different computation.
///
/// # Errors
///
/// Propagates pipeline and campaign failures; metric divergence between
/// the two pipelines is [`BenchError::Divergence`].
pub fn time_cold_path(setup: &BenchSetup) -> Result<ColdPathReport, BenchError> {
    let spec = sensitivity_campaign(setup);
    let mut best_batched = Duration::MAX;
    let mut batched_metrics: Vec<CellMetrics> = Vec::new();
    let mut batched_insns = 0usize;
    // The batched pass is ~3x shorter than the scalar one, so its best-of
    // minimum sees proportionally fewer chances to dodge machine noise;
    // two extra reps cost little and tighten it.
    for _ in 0..setup.reps.max(1) + 2 {
        let (elapsed, summary) = time_cold_batched(&spec)?;
        best_batched = best_batched.min(elapsed);
        batched_metrics = summary
            .records
            .iter()
            .map(|r| r.metrics.clone().expect("all_ok summary has metrics"))
            .collect();
        batched_insns = batched_metrics.iter().map(|m| m.dyn_insns).sum();
    }
    let mut best_scalar = Duration::MAX;
    let mut scalar_metrics: Vec<CellMetrics> = Vec::new();
    for _ in 0..setup.reps.max(1) {
        let (elapsed, metrics) = time_cold_scalar(&spec)?;
        best_scalar = best_scalar.min(elapsed);
        scalar_metrics = metrics;
    }
    if batched_metrics != scalar_metrics {
        let detail = batched_metrics
            .iter()
            .zip(&scalar_metrics)
            .position(|(b, s)| b != s)
            .map(|i| format!("first divergent cell index {i}"))
            .unwrap_or_else(|| "cell counts differ".to_string());
        return Err(BenchError::Divergence(format!(
            "batched campaign and scalar reference disagree ({detail}: \
             {} batched vs {} scalar cells)",
            batched_metrics.len(),
            scalar_metrics.len()
        )));
    }

    // One instrumented pass for the phase breakdown (outside the timed
    // measurements, so the span cost never pollutes the speedup).
    let mut instrumented = spec.clone();
    instrumented.telemetry = Telemetry::enabled();
    let store = Arc::new(ArtifactStore::new());
    let started = Instant::now();
    let summary = run_campaign_with_store(&instrumented, &store)?;
    let instrumented_wall = started.elapsed().as_secs_f64() * 1e3;
    if !summary.all_ok() {
        return Err(BenchError::FailedCells(summary.render()));
    }
    let cells = summary.records.len().max(1);
    let snap = summary.telemetry.unwrap_or_default();
    let spanned = [&snap.world_build, &snap.profile, &snap.passes, &snap.sim]
        .iter()
        .map(|s| s.total_nanos as f64 / 1e6)
        .sum::<f64>();
    let per_cell = |nanos: u64| nanos as f64 / 1e6 / cells as f64;
    let cold_cell_millis = ColdCellMillis {
        world_build: per_cell(snap.world_build.total_nanos),
        profile: per_cell(snap.profile.total_nanos),
        passes: per_cell(snap.passes.total_nanos),
        sim: per_cell(snap.sim.total_nanos),
        other: (instrumented_wall - spanned).max(0.0) / cells as f64,
        total: instrumented_wall / cells as f64,
    };

    let batched_ms = best_batched.as_secs_f64() * 1e3;
    let scalar_ms = best_scalar.as_secs_f64() * 1e3;
    Ok(ColdPathReport {
        cells: batched_metrics.len(),
        batched_millis: batched_ms,
        scalar_millis: scalar_ms,
        cold_speedup: scalar_ms / batched_ms,
        insts_per_sec: batched_insns as f64 / best_batched.as_secs_f64(),
        cold_cell_millis,
    })
}

/// The campaign grid a bench run measures.
pub fn bench_campaign(setup: &BenchSetup) -> CampaignSpec {
    let apps = Suite::Mobile.apps().into_iter().take(setup.apps).collect();
    let schemes = [
        Scheme::new("critic", DesignPoint::critic()),
        Scheme::new("opp16", DesignPoint::opp16()),
        Scheme::new("hoist", DesignPoint::hoist()),
    ]
    .into_iter()
    .take(setup.schemes)
    .collect();
    let mut spec = CampaignSpec::new(apps, schemes, setup.trace_len);
    // Perf numbers must not depend on the ambient CRITIC_TELEMETRY: the
    // cold/warm pair always runs silent; the telemetry pass opts in
    // explicitly.
    spec.telemetry = Telemetry::off();
    spec
}

/// Times one cold cell end-to-end: world generation, profiling, and the
/// baseline + CritIC simulations. Also re-simulates the baseline with the
/// cycle ledger (outside the timed window) and enforces the partition
/// invariant, returning the audited ledger alongside the latency.
///
/// # Errors
///
/// Propagates any pipeline failure as [`BenchError::Run`]; a ledger that
/// does not sum to the run's cycles is [`BenchError::LedgerViolation`].
pub fn time_single_cell(trace_len: usize) -> Result<(Duration, CycleLedger), BenchError> {
    let app = &Suite::Mobile.apps()[0];
    let started = Instant::now();
    let mut bench = Workbench::try_new(app, trace_len)?;
    let base = bench.try_run(&DesignPoint::baseline())?;
    let run = bench.try_run(&DesignPoint::critic())?;
    assert!(run.sim.speedup_over(&base.sim) > 0.0);
    let elapsed = started.elapsed();

    let point = DesignPoint::baseline();
    let mut scratch = SimScratch::new();
    let (audited, ledger) = Simulator::new(point.cpu_config(), point.mem_config()).run_with_ledger(
        bench.baseline_trace(),
        bench.baseline_fanout(),
        &mut scratch,
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
    Ok((elapsed, ledger))
}

/// Times a cold campaign and a warm re-run over one shared store.
///
/// # Errors
///
/// Returns [`BenchError::Run`] on campaign-level failures and
/// [`BenchError::FailedCells`] when any cell of either run failed.
pub fn time_cold_warm(spec: &CampaignSpec) -> Result<(Duration, Duration, StoreStats), BenchError> {
    let store = Arc::new(ArtifactStore::new());
    let started = Instant::now();
    let cold_summary = run_campaign_with_store(spec, &store)?;
    let cold = started.elapsed();
    let started = Instant::now();
    let warm_summary = run_campaign_with_store(spec, &store)?;
    let warm = started.elapsed();
    for summary in [&cold_summary, &warm_summary] {
        if !summary.all_ok() {
            return Err(BenchError::FailedCells(summary.render()));
        }
    }
    Ok((cold, warm, store.stats()))
}

/// Times a cold campaign against an empty persistent store, then — after
/// dropping every in-memory artifact — a restart-warm campaign against a
/// fresh store over the same directory. The second run can only be fast if
/// the *disk* tier serves it: this is the committed report's witness that
/// durability survives a process boundary.
///
/// # Errors
///
/// Returns [`BenchError::Io`] when the scratch store directory is
/// unusable, [`BenchError::Run`] on campaign-level failures, and
/// [`BenchError::FailedCells`] when any cell of either run failed.
pub fn time_restart_warm(
    spec: &CampaignSpec,
) -> Result<(Duration, Duration, DiskStoreStats), BenchError> {
    let scratch = Scratch::new("bench_store")?;
    let dir = scratch.join("store");
    let open = |dir: &std::path::Path| -> Result<Arc<ArtifactStore>, BenchError> {
        ArtifactStore::persistent(dir, None, Telemetry::off())
            .map(Arc::new)
            .map_err(|e| BenchError::Io(e.to_string()))
    };
    let cold_store = open(&dir)?;
    let started = Instant::now();
    let cold_summary = run_campaign_with_store(spec, &cold_store)?;
    let cold = started.elapsed();
    drop(cold_store);

    let warm_store = open(&dir)?;
    let started = Instant::now();
    let warm_summary = run_campaign_with_store(spec, &warm_store)?;
    let warm = started.elapsed();
    let disk = warm_store.stats().disk.unwrap_or_default();
    for summary in [&cold_summary, &warm_summary] {
        if !summary.all_ok() {
            return Err(BenchError::FailedCells(summary.render()));
        }
    }
    Ok((cold, warm, disk))
}

/// Times one warm campaign pass with telemetry enabled: the store is
/// pre-warmed by a silent cold run (untimed), then the timed pass records
/// spans on every cell. Comparing against the silent warm time from the
/// same process bounds the observability layer's overhead.
///
/// # Errors
///
/// Returns [`BenchError::Run`] on campaign-level failures and
/// [`BenchError::FailedCells`] when any cell failed.
pub fn time_warm_with_telemetry(spec: &CampaignSpec) -> Result<Duration, BenchError> {
    let store = Arc::new(ArtifactStore::new());
    let warmup = run_campaign_with_store(spec, &store)?;
    let mut instrumented = spec.clone();
    instrumented.telemetry = Telemetry::enabled();
    let started = Instant::now();
    let timed = run_campaign_with_store(&instrumented, &store)?;
    let elapsed = started.elapsed();
    for summary in [&warmup, &timed] {
        if !summary.all_ok() {
            return Err(BenchError::FailedCells(summary.render()));
        }
    }
    Ok(elapsed)
}

/// Runs the full measurement: the single-cell probe plus `reps` cold/warm
/// campaign pairs (keeping the fastest of each, standard practice for
/// wall-clock benchmarks on noisy machines).
///
/// # Errors
///
/// Propagates any pipeline or campaign failure as a [`BenchError`].
pub fn run_perf_bench(setup: &BenchSetup) -> Result<BenchReport, BenchError> {
    let (single, ledger) = time_single_cell(setup.trace_len)?;
    let cold_path = time_cold_path(setup)?;
    let stream = time_stream_path(setup)?;
    let spec = bench_campaign(setup);
    let mut best_cold = Duration::MAX;
    let mut best_warm = Duration::MAX;
    let mut best_warm_telemetry = Duration::MAX;
    let mut best_restart_cold = Duration::MAX;
    let mut best_restart_warm = Duration::MAX;
    let mut last_stats = StoreStats::default();
    let mut last_disk = DiskStoreStats::default();
    for _ in 0..setup.reps.max(1) {
        let (cold, warm, stats) = time_cold_warm(&spec)?;
        best_cold = best_cold.min(cold);
        best_warm = best_warm.min(warm);
        best_warm_telemetry = best_warm_telemetry.min(time_warm_with_telemetry(&spec)?);
        let (restart_cold, restart_warm, disk) = time_restart_warm(&spec)?;
        best_restart_cold = best_restart_cold.min(restart_cold);
        best_restart_warm = best_restart_warm.min(restart_warm);
        last_stats = stats;
        last_disk = disk;
    }
    let cold_ms = best_cold.as_secs_f64() * 1e3;
    let warm_ms = best_warm.as_secs_f64() * 1e3;
    let warm_telemetry_ms = best_warm_telemetry.as_secs_f64() * 1e3;
    let restart_cold_ms = best_restart_cold.as_secs_f64() * 1e3;
    let restart_warm_ms = best_restart_warm.as_secs_f64() * 1e3;
    Ok(BenchReport {
        setup: *setup,
        single_cell_millis: single.as_secs_f64() * 1e3,
        cold_path,
        cold_campaign_millis: cold_ms,
        warm_campaign_millis: warm_ms,
        warm_speedup: cold_ms / warm_ms,
        warm_telemetry_campaign_millis: warm_telemetry_ms,
        telemetry_overhead_frac: (warm_telemetry_ms - warm_ms) / warm_ms,
        restart_cold_campaign_millis: restart_cold_ms,
        restart_warm_campaign_millis: restart_warm_ms,
        restart_warm_speedup: restart_cold_ms / restart_warm_ms,
        disk: last_disk,
        stream,
        ledger,
        store: last_stats,
    })
}

/// Parameters of the service-mode bench (`critic bench --service`).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ServiceBenchSetup {
    /// Dynamic instructions per cell.
    pub trace_len: usize,
    /// Worker threads in the in-process server.
    pub workers: usize,
    /// Submissions per client in the 8- and 64-client phases.
    pub requests_per_client: usize,
    /// Open-loop submissions per second per client in the measured phases.
    pub rate: f64,
}

impl ServiceBenchSetup {
    /// The committed `BENCH_pr7.json` measurement.
    pub fn full() -> ServiceBenchSetup {
        ServiceBenchSetup {
            trace_len: 8_000,
            workers: 4,
            requests_per_client: 8,
            rate: 8.0,
        }
    }

    /// Scaled down for CI smoke and tests.
    pub fn smoke() -> ServiceBenchSetup {
        ServiceBenchSetup {
            trace_len: 2_000,
            workers: 2,
            requests_per_client: 3,
            rate: 16.0,
        }
    }
}

/// One measured loadgen phase of the service bench.
#[derive(Debug, Clone, Serialize)]
pub struct ServicePhase {
    /// Concurrent clients.
    pub clients: usize,
    /// The phase's full loadgen report (latency percentiles included).
    pub report: crate::loadgen::LoadgenReport,
}

/// The service-mode bench report committed as `BENCH_pr7.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceBenchReport {
    /// The parameters measured.
    pub setup: ServiceBenchSetup,
    /// 8 concurrent clients at the nominal rate.
    pub clients_8: ServicePhase,
    /// 64 concurrent clients at the nominal rate.
    pub clients_64: ServicePhase,
    /// A deliberate 2× overload burst: rejections with retry hints are the
    /// *expected* outcome here, and their absence is the regression.
    pub overload: ServicePhase,
}

/// Runs one loadgen phase against an in-process server on `addr`.
fn service_phase(
    addr: &str,
    clients: usize,
    requests_per_client: usize,
    rate: f64,
    seed: u64,
) -> Result<ServicePhase, BenchError> {
    let mut config = crate::loadgen::LoadgenConfig::new(addr);
    config.clients = clients;
    config.requests_per_client = requests_per_client;
    config.rate = rate;
    config.seed = seed;
    let outcome = crate::loadgen::run_loadgen(&config)?;
    Ok(ServicePhase {
        clients,
        report: outcome.report,
    })
}

/// Measures the campaign service end to end, in process: an ephemeral-port
/// server over [`crate::serve::serve_on`], then 8-client, 64-client, and
/// 2× overload loadgen phases against it.
///
/// # Errors
///
/// Returns [`BenchError::Io`] when the listener cannot bind or a phase's
/// client mix is unusable.
pub fn run_service_bench(setup: &ServiceBenchSetup) -> Result<ServiceBenchReport, BenchError> {
    use critic_core::service::{CampaignService, ServiceConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    let capacity = 64;
    let rate = ((64.0 * setup.rate) as u64).max(8);
    let config = ServiceConfig {
        workers: setup.workers,
        queue_capacity: capacity,
        degrade_watermarks: [8, 24, 48],
        admission_rate: rate,
        admission_burst: rate,
        client_window: 32,
        breaker_threshold: 0,
        telemetry: Telemetry::off(),
        ..ServiceConfig::new(setup.trace_len)
    };
    let service = CampaignService::open(config).map_err(BenchError::Run)?;
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0))
        .map_err(|e| BenchError::Io(format!("cannot bind service bench listener: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| BenchError::Io(e.to_string()))?
        .to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let service = service.clone();
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            crate::serve::serve_on(
                listener,
                &service,
                &shutdown,
                &crate::serve::ShardContext::default(),
            )
        })
    };

    let clients_8 = service_phase(&addr, 8, setup.requests_per_client, setup.rate, 1)?;
    let clients_64 = service_phase(&addr, 64, setup.requests_per_client, setup.rate, 2)?;
    // Overload: 64 clients pushing 2x the token rate between them.
    let overload_rate = (rate as f64 * 2.0) / 64.0;
    let overload = service_phase(
        &addr,
        64,
        setup.requests_per_client,
        overload_rate.max(setup.rate * 2.0),
        3,
    )?;

    shutdown.store(true, Ordering::SeqCst);
    let _ = server.join();
    Ok(ServiceBenchReport {
        setup: *setup,
        clients_8,
        clients_64,
        overload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_produces_a_sane_report() {
        let report = run_perf_bench(&BenchSetup::smoke()).expect("bench runs");
        assert!(report.single_cell_millis > 0.0);
        // The cold-path measurement only reports after its internal
        // batched-vs-scalar metric equality check passed.
        assert_eq!(report.cold_path.cells, 2 * 6);
        assert!(report.cold_path.batched_millis > 0.0);
        assert!(report.cold_path.scalar_millis > 0.0);
        assert!(report.cold_path.cold_speedup > 0.0);
        assert!(report.cold_path.insts_per_sec > 0.0);
        assert!(report.cold_path.cold_cell_millis.total > 0.0);
        assert!(report.cold_path.cold_cell_millis.sim > 0.0);
        assert!(report.cold_campaign_millis > 0.0);
        assert!(report.warm_campaign_millis > 0.0);
        assert!(report.warm_speedup > 0.0);
        assert!(report.store.hits > 0, "warm run must hit the store");
        assert!(report.restart_cold_campaign_millis > 0.0);
        assert!(report.restart_warm_campaign_millis > 0.0);
        assert!(report.restart_warm_speedup > 0.0);
        assert!(
            report.disk.disk_hits > 0,
            "the restart-warm run must be served from disk: {:?}",
            report.disk
        );
        assert_eq!(
            report.disk.saves, 0,
            "a fully warmed disk store rebuilds nothing: {:?}",
            report.disk
        );
        // The stream probe only reports after bit-identity held, and its
        // peak must sit under the trace-length-independent ceiling while
        // the materialized footprint for the same trace sits well above.
        assert_eq!(report.stream.trace_len, 100_000);
        assert!(report.stream.peak_resident_bytes > 0);
        assert!(
            report.stream.peak_resident_bytes <= report.stream.peak_ceiling_bytes,
            "streaming peak {} exceeds the O(window) ceiling {}",
            report.stream.peak_resident_bytes,
            report.stream.peak_ceiling_bytes
        );
        assert!(
            report.stream.materialized_bytes_estimate > report.stream.peak_ceiling_bytes,
            "the probe trace must be long enough that materializing it \
             costs more than the whole streaming ceiling"
        );
        assert!(report.stream.throughput_ratio > 0.0);
        assert!(report.stream.streamed_insts_per_sec > 0.0);
        // The audited probe ledger is non-degenerate and already verified
        // against the run's cycle count inside run_perf_bench.
        assert!(report.ledger.total() > 0);
        assert!(report.ledger.commit > 0);
        // The overhead measurement is a wall-clock delta on a debug build
        // of a tiny grid, so only sanity is asserted here; the committed
        // release-mode BENCH report and CI hold the real <5% budget.
        assert!(report.warm_telemetry_campaign_millis > 0.0);
        assert!(report.telemetry_overhead_frac.is_finite());
        assert!(
            report.telemetry_overhead_frac < 1.0,
            "telemetry must not double the warm path even in debug: {:.3}",
            report.telemetry_overhead_frac
        );
        let json = serde_json::to_string_pretty(&report).expect("serialises");
        assert!(json.contains("warm_speedup"), "{json}");
        assert!(json.contains("telemetry_overhead_frac"), "{json}");
        assert!(json.contains("cold_speedup"), "{json}");
        assert!(json.contains("insts_per_sec"), "{json}");
        assert!(json.contains("cold_cell_millis"), "{json}");
        assert!(json.contains("peak_resident_bytes"), "{json}");
        assert!(json.contains("throughput_ratio"), "{json}");
    }

    #[test]
    fn stream_probe_reports_bounded_memory_across_windows() {
        // Three windows over the same trace: the probe itself enforces
        // bit-identity (it errors on divergence), so what is asserted here
        // is the memory shape — peak under the per-window ceiling, and a
        // bigger window allowed a bigger footprint.
        let mut setup = BenchSetup::smoke();
        setup.stream_trace_len = 30_000;
        for window in [256, 1_024, 30_000] {
            setup.stream_window = window;
            let report = time_stream_path(&setup).expect("stream probe runs");
            assert_eq!(report.window, window);
            assert!(
                report.peak_resident_bytes <= report.peak_ceiling_bytes,
                "window {window}: peak {} over ceiling {}",
                report.peak_resident_bytes,
                report.peak_ceiling_bytes
            );
        }
    }

    #[test]
    fn scalar_reference_and_batched_campaign_agree_exactly() {
        let setup = BenchSetup {
            apps: 2,
            schemes: 2,
            trace_len: 4_000,
            // 14 reaches past the software schemes into the hardware
            // points, so both cell kinds are differenced.
            sensitivity_schemes: 14,
            reps: 1,
            stream_trace_len: 20_000,
            stream_window: 512,
        };
        // time_cold_path fails with BenchError::Divergence on any metric
        // mismatch, so a clean return IS the equality assertion — over a
        // grid slice that includes software and hardware schemes.
        let report = time_cold_path(&setup).expect("pipelines agree");
        assert_eq!(report.cells, 28);
    }

    #[test]
    fn smoke_service_bench_measures_all_three_phases() {
        let report = run_service_bench(&ServiceBenchSetup::smoke()).expect("service bench runs");
        for phase in [&report.clients_8, &report.clients_64] {
            assert!(
                phase.report.done > 0,
                "phase with {} clients completed nothing: {:?}",
                phase.clients,
                phase.report
            );
            assert_eq!(
                phase.report.unanswered, 0,
                "every submission must terminate: {:?}",
                phase.report
            );
            assert!(phase.report.p50_ms > 0.0);
            assert!(phase.report.p99_ms >= phase.report.p50_ms);
        }
        // The overload phase must have answered everything it admitted.
        assert_eq!(report.overload.report.unanswered, 0);
        let json = serde_json::to_string_pretty(&report).expect("serialises");
        assert!(json.contains("p99_ms"), "{json}");
        assert!(json.contains("overload"), "{json}");
    }

    #[test]
    fn single_cell_probe_audits_the_ledger() {
        let (elapsed, ledger) = time_single_cell(8_000).expect("probe runs");
        assert!(elapsed.as_nanos() > 0);
        assert!(ledger.stall_for_i() + ledger.stall_for_rd() > 0);
        assert!(ledger.commit > 0);
    }
}
