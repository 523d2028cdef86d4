//! service-open: open-loop Poisson requests over TCP to a journaled
//! `CampaignService`, at a light rate and then a heavy rate.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use critic_bench::serve::parse_reply;
use critic_core::service::ServiceConfig;
use critic_core::{CellMetrics, DesignPoint, Workbench};
use critic_obs::Telemetry;
use critic_workloads::{AppSpec, Suite};

use crate::client::{drive, Drive, LiveService, Planned};
use crate::host::{normalize, HostSpeed};
use crate::inputs::{Rng, SERVICE_SCHEMES};
use crate::metrics::Values;
use crate::run::{cell_metrics, Ctx, Measured, WalkCell, WalkPlan, SETUPS, WORKERS};
use crate::stats::{median, percentile, with_peak_rss};

/// A request slower than this (from its due time) misses.
pub const LATENCY_LIMIT_MS: f64 = 250.0;

/// How long the client waits for outstanding answers after its last send.
const DRAIN: Duration = Duration::from_secs(20);

const MIX: u64 = 3;
const WALK: u64 = 4;

/// A journaled, persistent-store service under `dir` with the default
/// admission settings.
pub fn service_config(dir: &Path, trace_len: usize, stream_window: Option<usize>) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        journal: Some(dir.join("journal.jsonl")),
        store_dir: Some(dir.join("store")),
        stream_window,
        telemetry: Telemetry::off(),
        ..ServiceConfig::new(trace_len)
    }
}

/// The run's requests, cut into one segment per set-up: each segment is
/// sent to its own freshly set-up service. A service's cell speed held
/// within a few percent over repeated schedules but differed by up to a
/// third between services, even within one process, so one service per run
/// made every request of the run share its luck.
///
/// Every segment is a light part at `light` requests/s, then a heavy part
/// at `heavy`. Each part is a Poisson process conditioned on its count (that
/// many uniform arrival times, sorted). Each phase's (app, scheme) cells are
/// dealt in order from shuffled decks of every pair, then cut into the
/// segments. The light phase is whole decks, as many as fit in three
/// quarters of `seconds`, so it holds every cell equally often and only the
/// order and arrival times follow the seed; the heavy phase gets the rest of
/// `seconds`. Cell cost differs by app and scheme; with independent draws,
/// the light phase's median latency moved from seed to seed with the mix
/// each seed happened to get.
fn schedule(
    seed: u64,
    apps: &[AppSpec],
    seconds: f64,
    light: f64,
    heavy: f64,
) -> Vec<Vec<Planned>> {
    let mut rng = Rng::new(seed, MIX);
    let schemes = SERVICE_SCHEMES.len();
    let cells = apps.len() * schemes;
    let decks = ((light * seconds * 0.75 / cells as f64).round() as usize).max(1);
    let light_count = decks * cells;
    let heavy_s = (seconds - light_count as f64 / light).max(seconds / 4.0);
    let heavy_count = ((heavy * heavy_s).round() as usize).max(SETUPS);
    let mut deal = |count: usize| -> Vec<usize> {
        let mut dealt = Vec::with_capacity(count);
        while dealt.len() < count {
            dealt.extend(rng.shuffled(cells, (count - dealt.len()).min(cells)));
        }
        dealt
    };
    let phases = [(light, deal(light_count)), (heavy, deal(heavy_count))];
    let mut next_id = 0;
    (0..SETUPS)
        .map(|k| {
            let mut segment = Vec::new();
            let mut from = 0.0;
            for (phase, (rate, dealt)) in phases.iter().enumerate() {
                let part = &dealt[k * dealt.len() / SETUPS..(k + 1) * dealt.len() / SETUPS];
                let span = part.len() as f64 / rate;
                let mut due: Vec<f64> = part.iter().map(|_| from + rng.unit() * span).collect();
                due.sort_by(f64::total_cmp);
                for (&cell, t) in part.iter().zip(due) {
                    segment.push(Planned {
                        id: next_id,
                        due: Duration::from_secs_f64(t),
                        app: apps[cell / schemes].name.clone(),
                        scheme: SERVICE_SCHEMES[cell % schemes].to_string(),
                        phase,
                    });
                    next_id += 1;
                }
                from += span;
            }
            segment
        })
        .collect()
}

/// Per-layer service numbers of one driven schedule, plus the count of
/// requests that did not finish `Ok` (rejected, unanswered or failed).
/// `service.p90_ms` is the latency p90 of the schedule's last (heaviest)
/// phase.
pub fn service_values(plan: &[Planned], run: &Drive) -> (Values, u64) {
    let mut v = Values::default();
    let n = plan.len();
    let heaviest = plan.iter().map(|p| p.phase).max();
    let (mut admit, mut cell, mut wait, mut late) = (vec![], vec![], vec![], vec![]);
    let mut tail = Vec::new();
    let (mut rejected, mut unanswered, mut degraded, mut failed, mut ok) =
        (0u32, 0u32, 0u32, 0u32, 0u32);
    for (i, (req, a)) in plan.iter().zip(&run.answers).enumerate() {
        late.extend(run.late_ms(i));
        admit.extend(run.admit_ms(i));
        if a.rejected {
            rejected += 1;
        }
        match (&a.record, a.sent, a.done) {
            (Some(record), Some(sent), Some(done)) => {
                let millis = record.millis as f64;
                let total = done.saturating_duration_since(sent).as_secs_f64() * 1e3;
                cell.push(millis);
                wait.push(total - run.admit_ms(i).unwrap_or(0.0) - millis);
                if record.degraded.is_some() {
                    degraded += 1;
                }
                let latency = run.latency_ms(i).unwrap_or(f64::INFINITY);
                if !run.ok(i) {
                    failed += 1;
                } else {
                    ok += u32::from(latency <= LATENCY_LIMIT_MS);
                    if Some(req.phase) == heaviest {
                        tail.push(latency);
                    }
                }
            }
            _ if !a.rejected => unanswered += 1,
            _ => {}
        }
    }
    v.set("service.admit_ms", median(&admit));
    v.set("service.cell_ms", median(&cell));
    v.set("service.queue_wait_ms", percentile(&wait, 90.0));
    v.set("service.p90_ms", percentile(&tail, 90.0));
    v.set("service.rejected", f64::from(rejected));
    v.set("service.degraded", f64::from(degraded));
    v.set("service.unanswered", f64::from(unanswered));
    v.set("service.ok_frac", f64::from(ok) / n.max(1) as f64);
    v.set("client.late_p90_ms", percentile(&late, 90.0));
    if !run.lines.is_empty() {
        // Re-parse the recorded reply lines enough times to time them well.
        let loops = (20_000 / run.lines.len()).max(1);
        let started = Instant::now();
        let mut parsed = 0usize;
        for _ in 0..loops {
            parsed += run
                .lines
                .iter()
                .filter(|l| std::hint::black_box(parse_reply(l)).is_some())
                .count();
        }
        let us = started.elapsed().as_secs_f64() * 1e6;
        v.set("wire.reply_parse_us", us / parsed.max(1) as f64);
    }
    (v, u64::from(rejected + unanswered + failed))
}

/// Checks every acked `Ok` result against an in-process `Workbench` run of
/// the same (app, scheme), two apps at a time. Returns one entry per
/// distinct (app, scheme): whether every record for it matched.
fn check_against_workbench(
    apps: &[AppSpec],
    trace_len: usize,
    acked: &BTreeMap<(String, String), Vec<CellMetrics>>,
) -> Result<Vec<(String, bool)>, String> {
    let by_app: Vec<&AppSpec> = apps
        .iter()
        .filter(|a| acked.keys().any(|(app, _)| *app == a.name))
        .collect();
    let check_app = |app: &AppSpec| -> Result<Vec<(String, bool)>, String> {
        let mut bench = Workbench::try_new(app, trace_len).map_err(|e| e.to_string())?;
        let base = bench
            .try_run(&DesignPoint::baseline())
            .map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        for ((name, scheme), seen) in acked.range((app.name.clone(), String::new())..) {
            if *name != app.name {
                break;
            }
            let point = DesignPoint::named(scheme).ok_or(format!("unknown scheme {scheme}"))?;
            let expected = cell_metrics(&base, &bench.try_run(&point).map_err(|e| e.to_string())?);
            out.push((
                format!("{name}:{scheme}"),
                seen.iter().all(|m| *m == expected),
            ));
        }
        Ok(out)
    };
    let halves = by_app.split_at(by_app.len() / 2);
    let (a, b) = std::thread::scope(|scope| {
        let first = scope.spawn(|| halves.0.iter().map(|a| check_app(a)).collect::<Vec<_>>());
        let second: Vec<_> = halves.1.iter().map(|a| check_app(a)).collect();
        (first.join(), second)
    });
    let mut out = Vec::new();
    for result in a
        .map_err(|_| "workbench check panicked".to_string())?
        .into_iter()
        .chain(b)
    {
        out.extend(result?);
    }
    Ok(out)
}

/// Opens the `k`th service and sends `warm_plan`: one `critic` and one
/// `ideal` request per app, so worlds, both profile configurations and
/// baselines exist before timing, as on a long-running server.
fn warm_service(
    ctx: &Ctx,
    k: usize,
    warm_plan: &[Planned],
) -> Result<(LiveService, Drive), String> {
    let dir = ctx.scratch.join(format!("service-{k}"));
    let live = LiveService::start(service_config(&dir, ctx.scale.service_len, None))?;
    let warm = drive(live.addr, warm_plan, DRAIN, false, None).and_then(|w| {
        match (0..warm_plan.len()).find(|&i| !w.ok(i)) {
            Some(i) => Err(format!("set-up request {i} did not finish Ok")),
            None => Ok(w),
        }
    });
    match warm {
        Ok(warm) => Ok((live, warm)),
        Err(e) => {
            live.stop()?;
            Err(e)
        }
    }
}

/// service-open: each segment of the schedule goes to its own freshly set-up
/// service ([`warm_service`]); `setup_s` is the median set-up.
pub fn service_open(ctx: &Ctx) -> Result<Measured, String> {
    let scale = ctx.scale;
    let apps: Vec<AppSpec> = Suite::Mobile.apps().into_iter().take(scale.apps).collect();
    let warm_plan: Vec<Planned> = apps
        .iter()
        .flat_map(|a| ["critic", "ideal"].map(|scheme| (a, scheme)))
        .enumerate()
        .map(|(id, (a, scheme))| Planned {
            id: id as u64,
            due: Duration::ZERO,
            app: a.name.clone(),
            scheme: scheme.to_string(),
            phase: 0,
        })
        .collect();
    let segments = schedule(
        ctx.seed,
        &apps,
        ctx.seconds,
        scale.light_rate,
        scale.heavy_rate,
    );

    let mut host = HostSpeed::new();
    let (mut setup_s, mut peaks, mut hit_rates, mut builds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut plan, mut run, mut warm) = (Vec::new(), Drive::default(), Drive::default());
    for (k, segment) in segments.into_iter().enumerate() {
        let started = Instant::now();
        let (live, warmed) = warm_service(ctx, k, &warm_plan)?;
        setup_s.push(started.elapsed().as_secs_f64());
        host.sample();
        let (driven, peak_rss_mb) =
            with_peak_rss(|| drive(live.addr, &segment, DRAIN, ctx.spans.is_some(), ctx.spans));
        let store = live.service.store_stats();
        live.stop()?;
        run.append(driven?);
        warm.append(warmed);
        plan.extend(segment);
        peaks.push(peak_rss_mb);
        hit_rates.push(store.hits as f64 / store.requests().max(1) as f64);
        builds.push(store.built() as f64);
    }
    host.sample();

    let mut m = Measured {
        attempted: plan.len() as u64,
        ..Measured::default()
    };
    let (values, failed) = service_values(&plan, &run);
    m.values.extend(values);
    m.failed += failed;
    if failed > 0 {
        m.violations.push(format!(
            "{failed} request(s) rejected, unanswered or failed"
        ));
    }

    let latency = |phase: usize| -> Vec<f64> {
        (0..plan.len())
            .filter(|&i| plan[i].phase == phase && run.ok(i))
            .filter_map(|i| run.latency_ms(i))
            .collect()
    };
    let (light, heavy) = (latency(0), latency(1));
    let ok: Vec<usize> = (0..plan.len()).filter(|&i| run.ok(i)).collect();
    // Cell speed is the median over the light phase's requests, where cells
    // rarely share the two cores with each other. A median rather than
    // Σ insns / Σ millis: a few slow cells moved the sum's ratio by twice as
    // much from run to run.
    let rates: Vec<f64> = ok
        .iter()
        .filter(|&&i| plan[i].phase == 0)
        .filter_map(|&i| run.answers[i].record.as_ref())
        .filter_map(|r| {
            let insns = r.metrics.as_ref()?.dyn_insns as f64;
            Some(insns / r.millis.max(1) as f64 / 1e3)
        })
        .collect();
    m.values.set("setup_s", median(&setup_s));
    m.values.set("peak_rss_mb", median(&peaks));
    m.values.set("sim_minsts_per_s", median(&rates));
    m.values.set("p50_ms", median(&light));
    m.values
        .set("service.light_p90_ms", percentile(&light, 90.0));
    m.values.set("service.heavy_p50_ms", median(&heavy));
    m.values.set("service.light_requests", light.len() as f64);
    m.values.set("service.heavy_requests", heavy.len() as f64);
    m.values.set("store.hit_rate", median(&hit_rates));
    m.values.set("store.builds", median(&builds));
    normalize(&mut m.values, host.slowdown());
    if ctx.spans.is_some() {
        let of = |even: bool| -> Vec<f64> {
            ok.iter()
                .filter(|&&i| plan[i].id.is_multiple_of(2) == even)
                .filter_map(|&i| run.latency_ms(i))
                .collect()
        };
        m.values.set(
            "trace.overhead_frac",
            median(&of(true)) / median(&of(false)) - 1.0,
        );
    }

    // Every acked Ok result must be what an in-process run computes.
    let mut acked: BTreeMap<(String, String), Vec<CellMetrics>> = BTreeMap::new();
    let answered = ok
        .iter()
        .map(|&i| (&plan[i], &run.answers[i]))
        .chain(warm_plan.iter().cycle().zip(&warm.answers));
    for (req, answer) in answered {
        if let Some(metrics) = answer.record.as_ref().and_then(|r| r.metrics.clone()) {
            acked
                .entry((req.app.clone(), req.scheme.clone()))
                .or_default()
                .push(metrics);
        }
    }
    for (cell, matched) in check_against_workbench(&apps, scale.service_len, &acked)? {
        m.gate(matched, || {
            format!("{cell}: acked metrics differ from a Workbench run")
        });
    }

    let mut rng = Rng::new(ctx.seed, WALK);
    let schemes = rng.choose(SERVICE_SCHEMES.len(), 3);
    let mut cells = Vec::new();
    for a in rng.choose(apps.len(), scale.walk_apps) {
        for &s in &schemes {
            let name = SERVICE_SCHEMES[s];
            cells.push(WalkCell {
                app: apps[a].clone(),
                scheme: critic_core::campaign::Scheme::new(
                    name,
                    DesignPoint::named(name).expect("mix schemes are wire names"),
                ),
                expected: acked
                    .get(&(apps[a].name.clone(), name.to_string()))
                    .and_then(|seen| seen.first().cloned()),
            });
        }
    }
    m.walk = WalkPlan {
        cells,
        trace_len: scale.service_len,
        window: scale.stream_window,
        streamed: false,
        validate: false,
        probe: false,
        executor_ms_per_cell: m.values.get("service.cell_ms").unwrap_or(0.0),
    };
    Ok(m)
}
