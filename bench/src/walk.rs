//! The traced run's layer walk: the workload's sampled cells replayed on one
//! thread through each layer's public functions in runner order
//! (generate → path → expand → fanout / cone → profile → passes → capture /
//! validate → decode → cycle loop), then disk save/load, journal append and
//! replay, a telemetry on/off comparison and, for the campaign workloads, the
//! cells sent over the wire. Every call is a span; per-layer metrics are the
//! spans' self time, count and natural units.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use critic_core::campaign::run_campaign_with_store;
use critic_core::design::Software;
use critic_core::disk::ArtifactClass;
use critic_core::keys::stable_key;
use critic_core::store::{World, WorldKey};
use critic_core::{
    ArtifactStore, CellMetrics, CellRecord, CellStatus, DesignPoint, DiskStore, Journal,
    RunOutcome, Workbench,
};
use critic_energy::EnergyModel;
use critic_obs::Telemetry;
use critic_pipeline::{DecodedTrace, SimResult, SimScratch, Simulator, StreamScratch};
use critic_profiler::ProfilerConfig;
use critic_workloads::{ExecutionPath, Program, StreamConfig, Trace, TraceStream};

use crate::client::{drive, LiveService, Planned};
use crate::run::{campaign_spec, Ctx, Measured, WalkPlan};
use crate::service::{service_config, service_values};
use crate::spans::SpanLog;
use crate::stats::{median, percentile};

/// The telemetry comparison runs its campaign at most this long a trace, so
/// it stays a few seconds even for stream-long.
const TELEMETRY_LEN: usize = 240_000;

/// Journal appends timed (the walked cells' records, cycled); more than one
/// 32-line segment, so a roll is among them.
const JOURNAL_APPENDS: usize = 40;

/// The profiler configuration a software scheme consumes, as the runner
/// resolves it (`None` for profile-free schemes).
fn profile_config(software: &Software) -> Option<ProfilerConfig> {
    match *software {
        Software::Baseline | Software::Opp16 | Software::Compress => None,
        Software::Hoist | Software::CritIcBranchSwitch | Software::Opp16PlusCritIc => {
            Some(ProfilerConfig::default())
        }
        Software::CritIc {
            profile_fraction,
            max_len,
            ..
        } => Some(ProfilerConfig {
            profile_fraction,
            max_chain_len: max_len,
            ..ProfilerConfig::default()
        }),
        Software::CritIcIdeal => Some(ProfilerConfig::ideal()),
    }
}

/// Span recorder that also sums the time of the steps the workload's own
/// executor performs (`runner`), for the unattributed executor time.
struct Walker<'a> {
    log: &'a SpanLog,
    runner_ms: f64,
}

impl Walker<'_> {
    fn step<T>(
        &mut self,
        parent: u64,
        name: &str,
        key: &str,
        runner: bool,
        f: impl FnOnce() -> T,
        units: impl FnOnce(&T) -> f64,
    ) -> T {
        let start = self.log.now_us();
        let out = f();
        let end = self.log.now_us();
        self.log
            .record(Some(parent), name, key, start, end, units(&out));
        if runner {
            self.runner_ms += (end - start) / 1e3;
        }
        out
    }
}

/// Drains a stream over `(program, path)` and returns its length.
fn drain_stream(program: &Program, path: &ExecutionPath, window: usize) -> usize {
    let mut stream = TraceStream::new(program, path, StreamConfig::with_window(window));
    let mut n = 0;
    while let Some(w) = stream.next_window() {
        n += w.entries.len();
    }
    n
}

/// One streamed simulation of `(program, path)`.
fn run_stream(
    sim: &Simulator,
    program: &Program,
    path: &ExecutionPath,
    window: usize,
    scratch: &mut StreamScratch,
) -> SimResult {
    let mut stream = TraceStream::new(program, path, StreamConfig::with_window(window));
    sim.run_streamed(&mut stream, scratch).0
}

/// Modelled-hardware counts summed over cells.
#[derive(Default)]
struct Model {
    cycles: u64,
    committed: u64,
    l1i_misses: u64,
    l1d_misses: u64,
    mispredicts: u64,
    thumb_fetched: u64,
}

impl Model {
    fn add(&mut self, r: &SimResult) {
        self.cycles += r.cycles;
        self.committed += r.committed;
        self.l1i_misses += r.mem.icache.misses;
        self.l1d_misses += r.mem.dcache.misses;
        self.mispredicts += r.bpu.mispredicts;
        self.thumb_fetched += r.thumb_fetched;
    }
}

/// Runs the layer walk of `plan` and adds its per-layer values, gate checks
/// and probe requests to `m`.
pub fn walk(ctx: &Ctx, plan: &WalkPlan, log: &SpanLog, m: &mut Measured) -> Result<(), String> {
    let len = plan.trace_len;
    let store = Arc::new(ArtifactStore::new());
    let energy = EnergyModel::default();
    let base_point = DesignPoint::baseline();
    let root = log.open(None, "walk", "");
    let mut w = Walker {
        log,
        runner_ms: 0.0,
    };
    let mut model = Model::default();
    let (mut shared, mut decoded, mut divergences) = (0usize, 0usize, 0u64);
    let mut artifacts: Vec<(ArtifactClass, String)> = Vec::new();
    let mut records: Vec<CellRecord> = Vec::new();
    let (mut scratch, mut stream_scratch) = (SimScratch::new(), StreamScratch::new());
    let (mut base_dec, mut var_dec, mut var_fanout) =
        (DecodedTrace::new(), DecodedTrace::new(), Vec::new());
    let json = |e: serde_json::Error| e.to_string();

    for group in plan.cells.chunk_by(|a, b| a.app.name == b.app.name) {
        let app = &group[0].app;
        let key = app.name.as_str();
        let a = log.open(Some(root), "walk.app", key);
        let program = w.step(
            a,
            "workloads.generate",
            key,
            true,
            || app.generate_program(),
            |_| 1.0,
        );
        program.validate().map_err(|e| e.to_string())?;
        let path = w.step(
            a,
            "workloads.path",
            key,
            true,
            || ExecutionPath::generate(&program, app.path_seed(), len),
            |_| 1.0,
        );
        let trace = w.step(
            a,
            "workloads.expand",
            key,
            true,
            || Trace::expand(&program, &path),
            |t| t.len() as f64,
        );
        let fanout = w.step(
            a,
            "workloads.fanout",
            key,
            true,
            || trace.compute_fanout(),
            |f| f.len() as f64,
        );
        let world = Arc::new(World {
            key: WorldKey::new(app, len),
            program: Arc::new(program),
            path: Arc::new(path),
            trace: Arc::new(trace),
            fanout: Arc::new(fanout),
        });
        let n = world.trace.len() as f64;
        w.step(
            a,
            "workloads.cone",
            key,
            true,
            || store.cone_fanout(&world),
            |_| n,
        );
        w.step(
            a,
            "workloads.stream",
            key,
            false,
            || drain_stream(&world.program, &world.path, plan.window),
            |&k| k as f64,
        );
        let capture = w
            .step(
                a,
                "compiler.capture",
                key,
                plan.validate,
                || store.baseline_execution(&world, app.path_seed()),
                |_| 1.0,
            )
            .map_err(|e| e.to_string())?;
        w.step(
            a,
            "pipeline.decode",
            key,
            true,
            || base_dec.decode_into(&world.trace),
            |_| n,
        );
        decoded += world.trace.len();
        let base_sim = w.step(
            a,
            "pipeline.cycle_loop",
            key,
            true,
            || {
                Simulator::new(base_point.cpu_config(), base_point.mem_config())
                    .run_decoded(&base_dec, &world.fanout, &mut scratch)
                    .0
            },
            |_| n,
        );
        let base_energy = energy.evaluate(&base_sim);
        let base_outcome = RunOutcome {
            design: base_point.label(),
            sim: base_sim.clone(),
            energy: base_energy,
            pass: Default::default(),
            thumb_dyn_frac: world.trace.thumb_fraction(),
            dyn_insns: world.trace.len(),
        };
        artifacts.push((
            ArtifactClass::Baseline,
            serde_json::to_string(&base_outcome).map_err(json)?,
        ));
        let mut bench = Workbench::from_world(app, Arc::clone(&world), Arc::clone(&store));
        let mut profiled = BTreeSet::new();

        for (ci, cell) in group.iter().enumerate() {
            let ck = format!("{}:{}", app.name, cell.scheme.name);
            let ck = ck.as_str();
            let c = log.open(Some(a), "walk.cell", ck);
            let started = Instant::now();
            let point = &cell.scheme.point;
            let sim = Simulator::new(point.cpu_config(), point.mem_config());
            let (result, streamed, reference, thumb, dyn_insns) =
                if matches!(point.software, Software::Baseline) {
                    // Hardware points replay the baseline binary's trace.
                    let result = w.step(
                        c,
                        "pipeline.cycle_loop",
                        ck,
                        true,
                        || sim.run_decoded(&base_dec, &world.fanout, &mut scratch).0,
                        |_| n,
                    );
                    let streamed = w.step(
                        c,
                        "pipeline.stream_loop",
                        ck,
                        false,
                        || {
                            run_stream(
                                &sim,
                                &world.program,
                                &world.path,
                                plan.window,
                                &mut stream_scratch,
                            )
                        },
                        |_| n,
                    );
                    let reference = (ci == 0).then(|| {
                        w.step(
                            c,
                            "pipeline.reference",
                            ck,
                            false,
                            || sim.run_reference(&world.trace, &world.fanout).0,
                            |_| n,
                        )
                    });
                    (
                        result,
                        streamed,
                        reference,
                        world.trace.thumb_fraction(),
                        world.trace.len(),
                    )
                } else {
                    let profile = match profile_config(&point.software) {
                        Some(cfg) if profiled.insert(stable_key(&cfg)) => {
                            let p = w.step(
                                c,
                                "profiler.profile",
                                ck,
                                true,
                                || store.profile(&world, &cfg),
                                |_| 1.0,
                            );
                            let p = p.map_err(|e| e.to_string())?;
                            artifacts.push((
                                ArtifactClass::Profile,
                                serde_json::to_string(&*p).map_err(json)?,
                            ));
                            Some(p)
                        }
                        Some(cfg) => Some(store.profile(&world, &cfg).map_err(|e| e.to_string())?),
                        None => None,
                    };
                    let (variant, _) = w
                        .step(
                            c,
                            "compiler.passes",
                            ck,
                            true,
                            || bench.try_variant(&point.software),
                            |_| 1.0,
                        )
                        .map_err(|e| e.to_string())?;
                    let chains = profile.map(|p| p.chains.clone()).unwrap_or_default();
                    let valid = w.step(
                        c,
                        "compiler.validate",
                        ck,
                        plan.validate,
                        || capture.validate_variant(&variant, &world.path, &chains),
                        |_| 1.0,
                    );
                    divergences += u64::from(valid.is_err());
                    let vtrace = w.step(
                        c,
                        "workloads.expand",
                        ck,
                        true,
                        || Trace::expand(&variant, &world.path),
                        |t| t.len() as f64,
                    );
                    let vn = vtrace.len() as f64;
                    let materialized = !plan.streamed;
                    shared += w.step(
                        c,
                        "pipeline.decode",
                        ck,
                        materialized,
                        || {
                            let s = var_dec.decode_with_base(&vtrace, &world.trace, &base_dec);
                            var_dec.compute_fanout_into(&mut var_fanout);
                            s
                        },
                        |_| vn,
                    );
                    decoded += vtrace.len();
                    let result = w.step(
                        c,
                        "pipeline.cycle_loop",
                        ck,
                        materialized,
                        || sim.run_decoded(&var_dec, &var_fanout, &mut scratch).0,
                        |_| vn,
                    );
                    let streamed = w.step(
                        c,
                        "pipeline.stream_loop",
                        ck,
                        !materialized,
                        || {
                            run_stream(
                                &sim,
                                &variant,
                                &world.path,
                                plan.window,
                                &mut stream_scratch,
                            )
                        },
                        |_| vn,
                    );
                    let reference = (ci == 0).then(|| {
                        let fanout = vtrace.compute_fanout();
                        w.step(
                            c,
                            "pipeline.reference",
                            ck,
                            false,
                            || sim.run_reference(&vtrace, &fanout).0,
                            |_| vn,
                        )
                    });
                    (
                        result,
                        streamed,
                        reference,
                        vtrace.thumb_fraction(),
                        vtrace.len(),
                    )
                };
            m.gate(result == streamed, || {
                format!("{ck}: streamed cycle loop differs from the materialized one")
            });
            if let Some(reference) = &reference {
                m.gate(*reference == result, || {
                    format!("{ck}: reference engine differs from the cycle loop")
                });
            }
            let metrics = CellMetrics {
                speedup: result.speedup_over(&base_sim),
                cpu_energy_saving: energy.evaluate(&result).cpu_saving(&base_energy),
                thumb_dyn_frac: thumb,
                dyn_insns,
            };
            if let Some(expected) = &cell.expected {
                m.gate(metrics == *expected, || {
                    format!("{ck}: layer walk {metrics:?} != workload {expected:?}")
                });
            }
            model.add(&result);
            records.push(CellRecord {
                app: app.name.clone(),
                scheme: cell.scheme.name.clone(),
                status: CellStatus::Ok,
                attempts: 1,
                millis: started.elapsed().as_millis() as u64,
                fault: None,
                metrics: Some(metrics),
                error: None,
                validation: None,
                spans: None,
                degraded: None,
                run: None,
            });
            log.close(c, dyn_insns as f64);
        }
        log.close(a, group.len() as f64);
    }
    let cells = plan.cells.len().max(1) as f64;
    let runner_ms = w.runner_ms;

    // Disk tier: save every walked artifact, then load each back.
    let disk = DiskStore::open(&ctx.scratch.join("walk-disk"), None).map_err(|e| e.to_string())?;
    for (i, (class, payload)) in artifacts.iter().enumerate() {
        w.step(
            root,
            "disk.save",
            "",
            false,
            || disk.save(*class, i as u64, payload.as_bytes()),
            |_| payload.len() as f64,
        )
        .map_err(|e| e.to_string())?;
    }
    for (i, (class, payload)) in artifacts.iter().enumerate() {
        let loaded = w.step(
            root,
            "disk.load",
            "",
            false,
            || disk.load(*class, i as u64),
            |_| payload.len() as f64,
        );
        m.gate(
            loaded
                .as_ref()
                .is_ok_and(|l| l.as_deref() == Some(payload.as_bytes())),
            || format!("disk entry {i} did not load back intact"),
        );
    }
    let disk_stats = disk.stats();

    // Journal: append (with its fsync) the walked records, then replay.
    let journal_path = ctx.scratch.join("walk-journal.jsonl");
    let (journal, _) =
        Journal::open(&journal_path, 32, Telemetry::off()).map_err(|e| e.to_string())?;
    for i in 0..JOURNAL_APPENDS.max(records.len()) {
        let record = &records[i % records.len().max(1)];
        w.step(
            root,
            "journal.append",
            "",
            false,
            || journal.append_cell(record, None),
            |_| 1.0,
        );
    }
    drop(journal);
    let replayed = w.step(
        root,
        "journal.replay",
        "",
        false,
        || Journal::replay(&journal_path, &Telemetry::off()),
        |_| 1.0,
    );
    let distinct: BTreeSet<(&str, &str)> = records
        .iter()
        .map(|r| (r.app.as_str(), r.scheme.as_str()))
        .collect();
    m.gate(
        replayed.is_ok_and(|j| j.records.len() == distinct.len()),
        || "walk journal replay lost records".to_string(),
    );

    let telemetry_overhead = telemetry_overhead(plan, log, root, m)?;
    if plan.probe {
        probe(ctx, plan, m)?;
    }
    log.close(root, cells);

    let layers = log.layers();
    let total = |name: &str| layers.get(name).copied().unwrap_or_default();
    let per = |name: &str| {
        let t = total(name);
        t.self_ms / t.count.max(1) as f64
    };
    let rate = |name: &str| {
        let t = total(name);
        if t.self_ms > 0.0 {
            t.units / t.self_ms / 1e3
        } else {
            0.0
        }
    };
    let ms_of = |name: &str| log.durations_ms(name);
    let v = &mut m.values;
    v.set("workloads.generate_ms", per("workloads.generate"));
    v.set("workloads.path_ms", per("workloads.path"));
    v.set("workloads.expand_minsts_per_s", rate("workloads.expand"));
    v.set("workloads.fanout_minsts_per_s", rate("workloads.fanout"));
    v.set("workloads.cone_minsts_per_s", rate("workloads.cone"));
    v.set("workloads.stream_minsts_per_s", rate("workloads.stream"));
    v.set("profiler.profile_ms", per("profiler.profile"));
    v.set("compiler.passes_ms", per("compiler.passes"));
    v.set("compiler.capture_ms", per("compiler.capture"));
    v.set("compiler.validate_ms", per("compiler.validate"));
    v.set("pipeline.decode_minsts_per_s", rate("pipeline.decode"));
    v.set(
        "pipeline.prefix_shared_frac",
        shared as f64 / decoded.max(1) as f64,
    );
    v.set(
        "pipeline.cycle_loop_minsts_per_s",
        rate("pipeline.cycle_loop"),
    );
    v.set(
        "pipeline.stream_loop_minsts_per_s",
        rate("pipeline.stream_loop"),
    );
    v.set(
        "pipeline.reference_minsts_per_s",
        rate("pipeline.reference"),
    );
    v.set("model.cycles", model.cycles as f64);
    v.set("model.committed", model.committed as f64);
    v.set(
        "model.ipc",
        model.committed as f64 / model.cycles.max(1) as f64,
    );
    v.set("mem.l1i_misses", model.l1i_misses as f64);
    v.set("mem.l1d_misses", model.l1d_misses as f64);
    v.set("bpu.mispredicts", model.mispredicts as f64);
    v.set("model.thumb_fetched", model.thumb_fetched as f64);
    v.set("disk.save_ms_p50", median(&ms_of("disk.save")));
    v.set("disk.save_ms_p90", percentile(&ms_of("disk.save"), 90.0));
    v.set("disk.load_ms_p50", median(&ms_of("disk.load")));
    v.set("disk.load_ms_p90", percentile(&ms_of("disk.load"), 90.0));
    v.set("disk.hits", disk_stats.disk_hits as f64);
    v.set("disk.bytes", total("disk.save").units);
    v.set("journal.append_ms_p50", median(&ms_of("journal.append")));
    v.set(
        "journal.append_ms_p90",
        percentile(&ms_of("journal.append"), 90.0),
    );
    v.set("journal.replay_ms", per("journal.replay"));
    v.set(
        "campaign.unattributed_ms_per_cell",
        plan.executor_ms_per_cell - runner_ms / cells,
    );
    v.set("obs.telemetry_overhead_frac", telemetry_overhead);
    v.set("walk.validation_divergences", divergences as f64);
    Ok(())
}

/// A one-worker cold campaign over the walked apps × schemes, run ABAB with
/// campaign telemetry off and on; returns `median(on) / median(off) - 1`.
fn telemetry_overhead(
    plan: &WalkPlan,
    log: &SpanLog,
    root: u64,
    m: &mut Measured,
) -> Result<f64, String> {
    let mut apps = Vec::new();
    let mut schemes = Vec::new();
    for cell in &plan.cells {
        if !apps
            .iter()
            .any(|a: &critic_workloads::AppSpec| a.name == cell.app.name)
        {
            apps.push(cell.app.clone());
        }
        if !schemes
            .iter()
            .any(|s: &critic_core::campaign::Scheme| s.name == cell.scheme.name)
        {
            schemes.push(cell.scheme.clone());
        }
    }
    let mut spec = campaign_spec(apps, schemes, plan.trace_len.min(TELEMETRY_LEN));
    spec.workers = 1;
    spec.stream_window = plan.streamed.then_some(plan.window);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for k in 0..4 {
        let enabled = k % 2 == 1;
        spec.telemetry = if enabled {
            Telemetry::enabled()
        } else {
            Telemetry::off()
        };
        let name = if enabled {
            "walk.telemetry_on"
        } else {
            "walk.telemetry_off"
        };
        let started = Instant::now();
        let summary = log.time(
            Some(root),
            name,
            "",
            || run_campaign_with_store(&spec, &Arc::new(ArtifactStore::new())),
            |_| 0.0,
        );
        let secs = started.elapsed().as_secs_f64();
        let summary = summary.map_err(|e| e.to_string())?;
        m.gate(summary.all_ok(), || {
            format!("telemetry campaign failed:\n{}", summary.render())
        });
        if enabled {
            on.push(secs)
        } else {
            off.push(secs)
        }
    }
    Ok(median(&on) / median(&off) - 1.0)
}

/// The walked cells with wire-nameable schemes, sent at once over TCP to a
/// service configured like the workload's executor (Table II apps: the wire
/// carries names only). Fills the service, wire and client metrics.
fn probe(ctx: &Ctx, plan: &WalkPlan, m: &mut Measured) -> Result<(), String> {
    let requests: Vec<Planned> = plan
        .cells
        .iter()
        .filter(|c| DesignPoint::named(&c.scheme.name).is_some())
        .enumerate()
        .map(|(id, c)| Planned {
            id: id as u64,
            due: Duration::ZERO,
            app: c.app.name.clone(),
            scheme: c.scheme.name.clone(),
            phase: 0,
        })
        .collect();
    let window = plan.streamed.then_some(plan.window);
    let live = LiveService::start(service_config(
        &ctx.scratch.join("walk-probe"),
        plan.trace_len,
        window,
    ))?;
    let run = drive(live.addr, &requests, Duration::from_secs(60), true, None);
    live.stop()?;
    let run = run?;
    let (values, failed) = service_values(&requests, &run);
    m.values.extend(values);
    m.attempted += requests.len() as u64;
    m.failed += failed;
    if failed > 0 {
        m.violations
            .push(format!("wire probe: {failed} request(s) did not finish Ok"));
    }
    Ok(())
}
