//! The three campaign workloads. Each rep is one or two calls of
//! `run_campaign_with_store`; the rep's wall clock is the operation time.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use critic_core::campaign::{run_campaign_with_store, CampaignSpec, CampaignSummary, Scheme};
use critic_core::{ArtifactStore, CellMetrics, CellStatus, DesignPoint, Journal, Workbench};
use critic_obs::Telemetry;
use critic_pipeline::{SimEngine, SimScratch, Simulator};

use crate::inputs::{named_schemes, seeded_apps, sensitivity_grid, Rng, STREAM_SCHEMES};
use crate::run::{
    campaign_spec, cell_metrics, executor_ms_per_cell, rep_values, repeat_setup, span, timed_reps,
    Ctx, Measured, Rep, WalkCell, WalkPlan,
};
use crate::spans::SpanLog;

/// Seed streams of the benchmark's own random choices.
const GATE_CELLS: u64 = 1;
const WALK_CELLS: u64 = 2;

/// The grid's schemes at the run's scale.
fn grid_schemes(ctx: &Ctx) -> Vec<Scheme> {
    sensitivity_grid()
        .into_iter()
        .take(ctx.scale.grid_schemes)
        .collect()
}

/// Runs `spec` once on a fresh in-memory store at a tenth of its trace
/// length: the untimed warm-up inside each set-up.
fn warm_up(spec: &CampaignSpec, div: usize) -> Result<(), String> {
    let mut small = spec.clone();
    small.trace_len = (spec.trace_len / div).max(1_000);
    let summary = run_campaign_with_store(&small, &Arc::new(ArtifactStore::new()))
        .map_err(|e| format!("warm-up campaign: {e}"))?;
    if summary.all_ok() {
        Ok(())
    } else {
        Err(format!("warm-up campaign failed:\n{}", summary.render()))
    }
}

/// The cells' metrics in grid order, `None` for a cell that did not finish
/// `Ok`.
fn metrics_of(summary: &CampaignSummary) -> Vec<Option<CellMetrics>> {
    summary.records.iter().map(|r| r.metrics.clone()).collect()
}

/// Counts a campaign's cells and checks they all finished and match the
/// first rep's metrics bit for bit.
fn check_rep(
    m: &mut Measured,
    summary: &CampaignSummary,
    first: &mut Option<Vec<Option<CellMetrics>>>,
    what: &str,
) {
    let failed = summary.failed().len() as u64;
    m.attempted += summary.records.len() as u64;
    m.failed += failed;
    if failed > 0 {
        m.violations.push(format!(
            "{what}: {failed} cell(s) failed:\n{}",
            summary.render()
        ));
    }
    let metrics = metrics_of(summary);
    match first {
        None => *first = Some(metrics),
        Some(expected) => m.gate(*expected == metrics, || {
            format!("{what}: cell metrics differ from the first rep's")
        }),
    }
}

fn insns(summary: &CampaignSummary) -> u64 {
    summary
        .records
        .iter()
        .filter_map(|r| r.metrics.as_ref())
        .map(|m| m.dyn_insns as u64)
        .sum()
}

/// One cold campaign on a fresh in-memory store, timed.
fn cold_rep(
    spec: &CampaignSpec,
    log: Option<(&SpanLog, u64)>,
    key: &str,
) -> Result<(CampaignSummary, Rep), String> {
    let store = Arc::new(ArtifactStore::new());
    let started = Instant::now();
    let summary = span(log, "campaign", key, || {
        run_campaign_with_store(spec, &store)
    })
    .map_err(|e| format!("campaign: {e}"))?;
    let mut rep = Rep {
        wall_s: started.elapsed().as_secs_f64(),
        insns: insns(&summary),
        cells: summary.records.len() as u64,
        ..Rep::default()
    };
    rep.count_store(&store.stats());
    Ok((summary, rep))
}

/// Walks `apps` × `schemes` picks of the grid: half the schemes from the
/// seven wire-nameable software schemes (so the wire probe has work), the
/// rest from the sensitivity and hardware points.
fn walk_cells(
    ctx: &Ctx,
    spec: &CampaignSpec,
    metrics: &[Option<CellMetrics>],
    apps: usize,
    schemes: usize,
) -> Vec<WalkCell> {
    let mut rng = Rng::new(ctx.seed, WALK_CELLS);
    let n = spec.schemes.len();
    let soft = n.min(7);
    let mut picked = rng.choose(soft, schemes.div_ceil(2));
    picked.extend(
        rng.choose(n - soft, schemes - picked.len().min(schemes))
            .into_iter()
            .map(|i| i + soft),
    );
    let mut cells = Vec::new();
    for a in rng.choose(spec.apps.len(), apps) {
        for &s in &picked {
            cells.push(WalkCell {
                app: spec.apps[a].clone(),
                scheme: spec.schemes[s].clone(),
                expected: metrics.get(a * n + s).cloned().flatten(),
            });
        }
    }
    cells
}

/// grid-cold: the 10-app × 18-scheme sensitivity grid on a fresh in-memory
/// store per rep. Never touches disk, journal or wire.
pub fn grid_cold(ctx: &Ctx) -> Result<Measured, String> {
    let scale = ctx.scale;
    let (spec, setup_s) = repeat_setup(|_| {
        let spec = campaign_spec(
            seeded_apps(ctx.seed, scale.apps),
            grid_schemes(ctx),
            scale.grid_len,
        );
        warm_up(&spec, scale.warmup_div)?;
        Ok(spec)
    })?;
    let mut m = Measured::default();
    let mut first = None;
    let timed = timed_reps(ctx, |i, log| {
        let key = format!("rep-{i}");
        let (summary, rep) = cold_rep(&spec, log, &key)?;
        check_rep(&mut m, &summary, &mut first, &key);
        Ok(rep)
    })?;
    let metrics = first.unwrap_or_default();

    // Two seed-sampled cells re-run on the frozen scalar reference engine
    // must match the batched campaign bit for bit, and one baseline run's
    // cycle ledger must partition its cycles.
    let n = spec.schemes.len();
    let mut rng = Rng::new(ctx.seed, GATE_CELLS);
    for (k, cell) in rng.choose(spec.apps.len() * n, 2).into_iter().enumerate() {
        let (app, scheme) = (&spec.apps[cell / n], &spec.schemes[cell % n]);
        let mut bench = Workbench::try_new(app, spec.trace_len).map_err(|e| e.to_string())?;
        if k == 0 {
            let point = DesignPoint::baseline();
            let (result, ledger) = Simulator::new(point.cpu_config(), point.mem_config())
                .run_with_ledger(
                    bench.baseline_trace(),
                    bench.baseline_fanout(),
                    &mut SimScratch::new(),
                );
            let check = ledger.check(result.cycles);
            m.gate(check.is_ok(), || {
                format!("{}: baseline cycle ledger: {check:?}", app.name)
            });
        }
        bench.set_engine(SimEngine::Reference);
        let base = bench
            .try_run(&DesignPoint::baseline())
            .map_err(|e| e.to_string())?;
        let out = bench.try_run(&scheme.point).map_err(|e| e.to_string())?;
        let reference = cell_metrics(&base, &out);
        m.gate(metrics.get(cell) == Some(&Some(reference.clone())), || {
            format!(
                "{}:{} reference engine {reference:?} != campaign {:?}",
                app.name,
                scheme.name,
                metrics.get(cell)
            )
        });
    }

    rep_values(&mut m.values, &timed, &setup_s);
    m.walk = WalkPlan {
        cells: walk_cells(ctx, &spec, &metrics, scale.walk_apps, scale.walk_schemes),
        trace_len: spec.trace_len,
        window: scale.stream_window,
        streamed: false,
        validate: false,
        probe: true,
        executor_ms_per_cell: executor_ms_per_cell(&timed.reps),
    };
    Ok(m)
}

/// stream-long: the mobile apps × {critic, opp16, hoist} on long traces
/// through the streaming pipeline (`TraceStream` and the streamed cycle
/// loop). All ten apps rather than a few longer ones: an app's world size
/// follows its seed, and the peak memory of four apps moved by a seventh
/// from seed to seed.
pub fn stream_long(ctx: &Ctx) -> Result<Measured, String> {
    let scale = ctx.scale;
    let (spec, setup_s) = repeat_setup(|_| {
        let mut spec = campaign_spec(
            seeded_apps(ctx.seed, scale.apps),
            named_schemes(&STREAM_SCHEMES),
            scale.stream_len,
        );
        spec.stream_window = Some(scale.stream_window);
        warm_up(&spec, scale.warmup_div)?;
        Ok(spec)
    })?;
    let mut m = Measured::default();
    let mut first = None;
    let timed = timed_reps(ctx, |i, log| {
        let key = format!("rep-{i}");
        let (summary, rep) = cold_rep(&spec, log, &key)?;
        check_rep(&mut m, &summary, &mut first, &key);
        Ok(rep)
    })?;
    let metrics = first.unwrap_or_default();

    // One seed-sampled cell re-run fully materialized must match the
    // streamed campaign bit for bit.
    let n = spec.schemes.len();
    let cell = Rng::new(ctx.seed, GATE_CELLS).below(spec.apps.len() * n);
    let (app, scheme) = (&spec.apps[cell / n], &spec.schemes[cell % n]);
    let materialized = {
        let mut bench = Workbench::try_new(app, spec.trace_len).map_err(|e| e.to_string())?;
        let base = bench
            .try_run(&DesignPoint::baseline())
            .map_err(|e| e.to_string())?;
        let out = bench.try_run(&scheme.point).map_err(|e| e.to_string())?;
        cell_metrics(&base, &out)
    };
    m.gate(
        metrics.get(cell) == Some(&Some(materialized.clone())),
        || {
            format!(
                "{}:{} materialized {materialized:?} != streamed {:?}",
                app.name,
                scheme.name,
                metrics.get(cell)
            )
        },
    );

    rep_values(&mut m.values, &timed, &setup_s);
    let walk_app = Rng::new(ctx.seed, WALK_CELLS).below(spec.apps.len());
    m.walk = WalkPlan {
        cells: (0..n)
            .map(|s| WalkCell {
                app: spec.apps[walk_app].clone(),
                scheme: spec.schemes[s].clone(),
                expected: metrics.get(walk_app * n + s).cloned().flatten(),
            })
            .collect(),
        trace_len: spec.trace_len,
        window: scale.stream_window,
        streamed: true,
        validate: false,
        probe: true,
        executor_ms_per_cell: executor_ms_per_cell(&timed.reps),
    };
    Ok(m)
}

/// One pass of durable-short over a persistent store at `dir/store` with a
/// fresh journal at `journal`; the timed span covers opening the store.
fn durable_pass(
    spec: &CampaignSpec,
    dir: &Path,
    journal: &str,
    log: Option<(&SpanLog, u64)>,
) -> Result<(CampaignSummary, critic_core::StoreStats, f64), String> {
    let mut spec = spec.clone();
    spec.journal = Some(dir.join(journal));
    let started = Instant::now();
    let name = format!("campaign.{}", journal.trim_end_matches(".jsonl"));
    let (summary, stats) = span(log, &name, journal, || {
        let store = ArtifactStore::persistent(&dir.join("store"), None, Telemetry::off())
            .map_err(|e| format!("persistent store: {e}"))?;
        let store = Arc::new(store);
        let summary =
            run_campaign_with_store(&spec, &store).map_err(|e| format!("campaign: {e}"))?;
        Ok::<_, String>((summary, store.stats()))
    })?;
    Ok((summary, stats, started.elapsed().as_secs_f64()))
}

/// Checks a pass's journal: exactly one `Ok` record per grid cell.
fn check_journal(m: &mut Measured, spec: &CampaignSpec, path: &Path) {
    let grid: BTreeSet<(String, String)> = spec
        .apps
        .iter()
        .flat_map(|a| {
            spec.schemes
                .iter()
                .map(|s| (a.name.clone(), s.name.clone()))
        })
        .collect();
    let replayed = Journal::replay(path, &Telemetry::off());
    let ok = replayed.as_ref().is_ok_and(|j| {
        j.records.len() == grid.len()
            && j.records.iter().all(|r| {
                r.status == CellStatus::Ok && grid.contains(&(r.app.clone(), r.scheme.clone()))
            })
    });
    m.gate(ok, || {
        format!(
            "journal {} does not hold exactly one Ok record per cell ({} records)",
            path.display(),
            replayed.map_or(0, |j| j.records.len())
        )
    });
}

/// durable-short: short validated cells, a segmented journal fsynced per
/// line, and a persistent store; each rep is a cold pass on an empty store
/// directory, then a restart-warm pass (fresh store over the same directory,
/// fresh journal) that reads the artifacts back from disk.
pub fn durable_short(ctx: &Ctx) -> Result<Measured, String> {
    let scale = ctx.scale;
    let (spec, setup_s) = repeat_setup(|k| {
        let mut spec = campaign_spec(
            seeded_apps(ctx.seed, scale.apps),
            grid_schemes(ctx),
            scale.durable_len,
        );
        spec.validate = true;
        spec.segment_max_lines = 32;
        // Every cell costs a journal fsync whatever its length, so the
        // warm-up covers two apps rather than the whole grid.
        let mut small = spec.clone();
        small.apps.truncate(2);
        small.trace_len = (spec.trace_len / scale.warmup_div).max(1_000);
        let dir = ctx.scratch.join(format!("setup-{k}"));
        for pass in ["cold.jsonl", "warm.jsonl"] {
            let (summary, _, _) = durable_pass(&small, &dir, pass, None)?;
            if !summary.all_ok() {
                return Err(format!("warm-up {pass} failed:\n{}", summary.render()));
            }
        }
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        Ok(spec)
    })?;
    let mut m = Measured::default();
    let mut first = None;
    let mut demoted = Vec::new();
    let (mut cold_rates, mut warm_rates) = (Vec::new(), Vec::new());
    let timed = timed_reps(ctx, |i, log| {
        let dir = ctx.scratch.join(format!("rep-{i}"));
        let (cold, cold_stats, cold_s) = durable_pass(&spec, &dir, "cold.jsonl", log)?;
        let (warm, warm_stats, warm_s) = durable_pass(&spec, &dir, "warm.jsonl", log)?;
        let key = format!("rep-{i}");
        if i == 0 {
            // A cell whose validation demoted a chain ran a different variant
            // than the unvalidated layer walk builds; the walk skips its check.
            demoted = cold
                .records
                .iter()
                .map(|r| r.validation.is_some_and(|v| v.chains_demoted > 0))
                .collect();
        }
        check_rep(&mut m, &cold, &mut first, &format!("{key} cold"));
        check_rep(&mut m, &warm, &mut first, &format!("{key} warm"));
        let disk = warm_stats.disk.unwrap_or_default();
        m.gate(disk.disk_hits > 0 && disk.saves == 0, || {
            format!("{key}: restart-warm pass was not served from disk: {disk:?}")
        });
        check_journal(&mut m, &spec, &dir.join("cold.jsonl"));
        check_journal(&mut m, &spec, &dir.join("warm.jsonl"));
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        cold_rates.push(cold.records.len() as f64 / cold_s);
        warm_rates.push(warm.records.len() as f64 / warm_s);
        let mut rep = Rep {
            wall_s: cold_s + warm_s,
            insns: insns(&cold) + insns(&warm),
            cells: (cold.records.len() + warm.records.len()) as u64,
            ..Rep::default()
        };
        rep.count_store(&cold_stats);
        rep.count_store(&warm_stats);
        Ok(rep)
    })?;
    let metrics: Vec<Option<CellMetrics>> = first
        .unwrap_or_default()
        .into_iter()
        .zip(demoted)
        .map(|(metrics, demoted)| metrics.filter(|_| !demoted))
        .collect();

    rep_values(&mut m.values, &timed, &setup_s);
    m.values.set(
        "durable.cold_cells_per_s",
        crate::stats::median(&cold_rates),
    );
    m.values.set(
        "durable.warm_cells_per_s",
        crate::stats::median(&warm_rates),
    );
    m.walk = WalkPlan {
        cells: walk_cells(ctx, &spec, &metrics, scale.walk_apps, scale.walk_schemes),
        trace_len: spec.trace_len,
        window: scale.stream_window,
        streamed: false,
        validate: true,
        probe: true,
        executor_ms_per_cell: executor_ms_per_cell(&timed.reps),
    };
    Ok(m)
}
