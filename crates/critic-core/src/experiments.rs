//! One function per table and figure of the paper's evaluation.
//!
//! Every function returns typed, serializable rows; the `figures` binary in
//! `critic-bench` prints them and `EXPERIMENTS.md` records paper-vs-measured
//! values. Every figure runs through one executor, a [`FigureRun`]: one
//! [`ArtifactStore`] shared by all the figures of a run, at one trace
//! length, and one pool of workers that runs a figure's apps in parallel.
//! Every simulation and profile streams from the app's recording; only
//! the trace analyses (Figs. 1a, 1b, 3 and 5a and the ledger audit) ask
//! the store for the app's materialized world.
//! Most figures also take an `apps` cap so tests can run scaled-down
//! versions of the same code path.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use critic_isa::LatencyClass;
use critic_pipeline::{SimResult, SimScratch, Simulator};
use critic_profiler::{
    chains::{extract_dynamic_ics, ChainShape},
    CriticalitySummary, Dfg, GapHistogram, ProfilerConfig,
};
use critic_workloads::suite::Suite;
use critic_workloads::{AppSpec, DEFAULT_STREAM_WINDOW};
use serde::{Deserialize, Serialize};

use crate::design::{DesignPoint, Software};
use crate::runner::{RunOutcome, Workbench};
use crate::store::ArtifactStore;

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn suite_apps(suite: Suite, cap: usize) -> Vec<AppSpec> {
    suite.apps().into_iter().take(cap.max(1)).collect()
}

/// F.StallForI + F.StallForR+D as a fraction of execution.
fn fetch_stall(sim: &SimResult) -> f64 {
    sim.stall_for_i_frac() + sim.stall_for_rd_frac()
}

// ---------------------------------------------------------------- Executor

/// The executor every figure runs through: one [`ArtifactStore`] shared by
/// all the figures of a run, and the run's trace length.
///
/// Figures asked of one run share everything the store memoizes — each
/// app's recording, world, profiles and baseline simulations — so a
/// second figure over an app builds none of them again. Sharing and
/// scheduling never change a number: each app's work is deterministic, and
/// every mean is reduced in app order.
#[derive(Debug)]
pub struct FigureRun {
    store: Arc<ArtifactStore>,
    trace_len: usize,
}

/// One app of a mechanism-major table: its baseline and one outcome per
/// design point, in the order the points were given.
struct AppGrid {
    base: RunOutcome,
    runs: Vec<RunOutcome>,
}

impl AppGrid {
    /// Speedup of point `k` over the baseline.
    fn speedup(&self, k: usize) -> f64 {
        self.runs[k].sim.speedup_over(&self.base.sim)
    }
}

impl FigureRun {
    /// A run of `trace_len` dynamic instructions per app over a fresh
    /// in-memory store.
    pub fn new(trace_len: usize) -> FigureRun {
        FigureRun {
            store: Arc::new(ArtifactStore::new()),
            trace_len,
        }
    }

    /// The shared store; its [`ArtifactStore::stats`] show what the run
    /// has built and what it has reused.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// Runs `f` over each app's workbench and returns the results in app
    /// order.
    ///
    /// Apps go to `available_parallelism()` scoped workers. Each worker
    /// builds its app's recording-backed workbench over the shared store
    /// and drops it when `f` returns, so at most one workbench per worker
    /// is alive. A panic
    /// in a worker is re-raised here with its own payload once every
    /// worker has stopped.
    fn per_app<T: Send>(&self, apps: &[AppSpec], f: impl Fn(&mut Workbench) -> T + Sync) -> Vec<T> {
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(app) = apps.get(i) else {
                    return done;
                };
                let recording = match self.store.recording(app, self.trace_len) {
                    Ok(recording) => recording,
                    Err(e) => panic!("workbench setup for {} failed: {e}", app.name),
                };
                let store = Arc::clone(&self.store);
                let mut bench =
                    Workbench::from_recording(app, recording, store, DEFAULT_STREAM_WINDOW);
                done.push((i, f(&mut bench)));
            }
        };
        let workers = thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(apps.len());
        let mut results = Vec::with_capacity(apps.len());
        let mut panicked = None;
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            for handle in handles {
                match handle.join() {
                    Ok(done) => results.extend(done),
                    Err(payload) => {
                        panicked.get_or_insert(payload);
                    }
                }
            }
        });
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, r)| r).collect()
    }

    /// [`FigureRun::per_app`] over the first `apps_per_suite` apps of every
    /// suite, in one pool; returns each suite with its apps' results, in
    /// Table II order.
    fn per_suite<T: Send>(
        &self,
        apps_per_suite: usize,
        f: impl Fn(&mut Workbench) -> T + Sync,
    ) -> Vec<(Suite, Vec<T>)> {
        let apps: Vec<AppSpec> = Suite::ALL
            .iter()
            .flat_map(|&suite| suite_apps(suite, apps_per_suite))
            .collect();
        let mut results = self.per_app(&apps, f).into_iter();
        Suite::ALL
            .iter()
            .map(|&suite| {
                let n = suite_apps(suite, apps_per_suite).len();
                (suite, results.by_ref().take(n).collect())
            })
            .collect()
    }

    /// The mechanism-major tables' runs: for each of the first `apps`
    /// mobile apps, its baseline and every one of `points`.
    fn grid(&self, apps: usize, points: &[DesignPoint]) -> Vec<AppGrid> {
        self.per_app(&suite_apps(Suite::Mobile, apps), |bench| AppGrid {
            base: bench.run(&DesignPoint::baseline()),
            runs: points.iter().map(|point| bench.run(point)).collect(),
        })
    }
}

// ---------------------------------------------------------------- Table I/II

/// Table I: the baseline configuration, rendered as text.
pub fn table1() -> String {
    let cpu = critic_pipeline::CpuConfig::google_tablet();
    let mem = critic_mem::MemConfig::google_tablet();
    format!(
        "CPU     {}-wide Fetch/Decode/Rename/ROB/Issue/Execute/Commit superscalar;\n\
        \x20       {} ROB entries, {}-entry 2-level BPU, {}-deep RAS\n\
        Memory  {}KB {}-way i-cache, {}KB {}-way d-cache, {}-cycle hit;\n\
        \x20       {}MB {}-way L2, {}-cycle hit, CLPT prefetcher available ({} x 7b)\n\
        System  LPDDR3: {} ranks/ch, {} banks/rank, open page, tCL=tRP=tRCD={} cycles",
        cpu.width,
        cpu.rob_entries,
        cpu.bpu_entries,
        cpu.ras_depth,
        mem.icache.size_bytes / 1024,
        mem.icache.ways,
        mem.dcache.size_bytes / 1024,
        mem.dcache.ways,
        mem.icache.hit_latency,
        mem.l2.size_bytes / (1024 * 1024),
        mem.l2.ways,
        mem.l2.hit_latency,
        critic_mem::prefetch::CLPT_ENTRIES,
        mem.dram.ranks,
        mem.dram.banks_per_rank,
        mem.dram.t_cl,
    )
}

/// One Table II row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Workload name.
    pub name: String,
    /// Suite label.
    pub suite: String,
    /// Domain column.
    pub domain: String,
    /// Activity column.
    pub activity: String,
}

/// Table II: the workload catalog.
pub fn table2() -> Vec<Table2Row> {
    Suite::ALL
        .iter()
        .flat_map(|s| s.apps())
        .map(|a| Table2Row {
            name: a.name.clone(),
            suite: a.suite.label().to_string(),
            domain: a.domain.clone(),
            activity: a.activity.clone(),
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 1

/// One Fig. 1a bar group: the two single-instruction criticality
/// optimizations per suite, plus the critical-instruction fraction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1aRow {
    /// Suite label.
    pub suite: String,
    /// Mean speedup of critical-load prefetching.
    pub prefetch_speedup: f64,
    /// Mean speedup of critical-instruction ALU prioritization.
    pub prioritize_speedup: f64,
    /// Mean fraction of dynamic instructions that are critical
    /// (right axis).
    pub critical_frac: f64,
}

/// Fig. 1a: single-instruction criticality optimizations by suite.
pub fn fig1a(run: &FigureRun, apps_per_suite: usize) -> Vec<Fig1aRow> {
    run.per_suite(apps_per_suite, |bench| {
        let base = bench.run(&DesignPoint::baseline());
        let pf = bench.run(&DesignPoint::critical_load_prefetch());
        let pr = bench.run(&DesignPoint::critical_prioritization());
        let summary =
            CriticalitySummary::measure(bench.baseline_trace(), bench.baseline_fanout(), 8);
        [
            pf.sim.speedup_over(&base.sim),
            pr.sim.speedup_over(&base.sim),
            summary.critical_frac(),
        ]
    })
    .into_iter()
    .map(|(suite, apps)| Fig1aRow {
        suite: suite.label().to_string(),
        prefetch_speedup: mean(apps.iter().map(|a| a[0])),
        prioritize_speedup: mean(apps.iter().map(|a| a[1])),
        critical_frac: mean(apps.iter().map(|a| a[2])),
    })
    .collect()
}

/// One Fig. 1b histogram per suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1bRow {
    /// Suite label.
    pub suite: String,
    /// Fraction of criticals with no dependent critical.
    pub none_frac: f64,
    /// Fractions for 0..=5 intermediate low-fanout instructions.
    pub gap_fracs: [f64; 6],
}

/// Fig. 1b: low-fanout gaps between dependent criticals.
pub fn fig1b(run: &FigureRun, apps_per_suite: usize) -> Vec<Fig1bRow> {
    run.per_suite(apps_per_suite, |bench| {
        let dfg = Dfg::build(bench.baseline_trace());
        GapHistogram::measure(&dfg, bench.baseline_fanout(), 8)
    })
    .into_iter()
    .map(|(suite, hists)| Fig1bRow {
        suite: suite.label().to_string(),
        none_frac: mean(hists.iter().map(GapHistogram::none_frac)),
        gap_fracs: std::array::from_fn(|g| mean(hists.iter().map(|h| h.gap_frac(g)))),
    })
    .collect()
}

// ---------------------------------------------------------------- Fig. 3

/// One Fig. 3 row per suite: the pipeline-stage profile of critical
/// instructions, the fetch-stall split, and the latency-class mix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Row {
    /// Suite label.
    pub suite: String,
    /// Fig. 3a: share of critical instructions' fetch-to-commit time in
    /// [fetch, decode, issue-wait, execute, commit/ROB].
    pub stage_shares: [f64; 5],
    /// Fig. 3b: F.StallForI as a fraction of execution.
    pub stall_for_i: f64,
    /// Fig. 3b: F.StallForR+D as a fraction of execution.
    pub stall_for_rd: f64,
    /// Fig. 3c: fraction of critical instructions by base latency class
    /// [short, medium, long].
    pub latency_mix: [f64; 3],
}

/// Fig. 3: why mobile criticals are front-end bound.
pub fn fig3(run: &FigureRun, apps_per_suite: usize) -> Vec<Fig3Row> {
    run.per_suite(apps_per_suite, |bench| {
        let base = bench.run(&DesignPoint::baseline());
        let c = &base.sim.stage_critical;
        let total = c.total().max(1) as f64;
        let stage_shares = [
            (c.fetch_supply + c.fetch_buffer) as f64 / total,
            c.decode as f64 / total,
            c.issue_wait as f64 / total,
            c.execute as f64 / total,
            c.commit_wait as f64 / total,
        ];
        // Latency-class mix of critical instructions.
        let trace = bench.baseline_trace();
        let fanout = bench.baseline_fanout();
        let mut mix = [0u64; 3];
        for (i, e) in trace.iter().enumerate() {
            if fanout[i] >= 8 {
                let class = match e.op.latency_class() {
                    LatencyClass::Short => 0,
                    LatencyClass::Medium => 1,
                    LatencyClass::Long => 2,
                };
                mix[class] += 1;
            }
        }
        let total_crit = mix.iter().sum::<u64>().max(1) as f64;
        Fig3Row {
            suite: bench.app.suite.label().to_string(),
            stage_shares,
            stall_for_i: base.sim.stall_for_i_frac(),
            stall_for_rd: base.sim.stall_for_rd_frac(),
            latency_mix: mix.map(|m| m as f64 / total_crit),
        }
    })
    .into_iter()
    .map(|(suite, rows)| {
        // Average the per-app rows.
        let n = rows.len().max(1) as f64;
        let mut out = Fig3Row {
            suite: suite.label().to_string(),
            stage_shares: [0.0; 5],
            stall_for_i: 0.0,
            stall_for_rd: 0.0,
            latency_mix: [0.0; 3],
        };
        for row in &rows {
            for k in 0..5 {
                out.stage_shares[k] += row.stage_shares[k] / n;
            }
            for k in 0..3 {
                out.latency_mix[k] += row.latency_mix[k] / n;
            }
            out.stall_for_i += row.stall_for_i / n;
            out.stall_for_rd += row.stall_for_rd / n;
        }
        out
    })
    .collect()
}

// ---------------------------------------------------------------- Fig. 5

/// One Fig. 5a row: IC length/spread per suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5aRow {
    /// Suite label.
    pub suite: String,
    /// Shape of the extracted dynamic ICs.
    pub shape: ChainShape,
}

/// Fig. 5a: IC length and spread, SPEC vs Android.
pub fn fig5a(run: &FigureRun, apps_per_suite: usize) -> Vec<Fig5aRow> {
    run.per_suite(apps_per_suite, |bench| {
        let trace = bench.baseline_trace();
        let dfg = Dfg::build(trace);
        let chains = extract_dynamic_ics(trace, &dfg, bench.baseline_fanout(), 8192, 4096);
        ChainShape::measure(&chains)
    })
    .into_iter()
    .map(|(suite, shapes)| Fig5aRow {
        suite: suite.label().to_string(),
        // Merge by taking maxima of maxima and means of means.
        shape: ChainShape {
            count: shapes.iter().map(|s| s.count).sum(),
            max_len: shapes.iter().map(|s| s.max_len).max().unwrap_or(0),
            mean_len: mean(shapes.iter().map(|s| s.mean_len)),
            p99_len: shapes.iter().map(|s| s.p99_len).max().unwrap_or(0),
            max_spread: shapes.iter().map(|s| s.max_spread).max().unwrap_or(0),
            mean_spread: mean(shapes.iter().map(|s| s.mean_spread)),
            p99_spread: shapes.iter().map(|s| s.p99_spread).max().unwrap_or(0),
        },
    })
    .collect()
}

/// Fig. 5b summary: unique CritICs and their Thumb-convertible share.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5bRow {
    /// Workload name.
    pub app: String,
    /// Distinct static chains observed.
    pub unique_chains: u64,
    /// Chains passing the criticality threshold.
    pub critical_chains: u64,
    /// Fraction of critical chains that convert as-is (paper: ~95.5%).
    pub convertible_frac: f64,
    /// Dynamic coverage of the selected chains (paper: ~30%).
    pub coverage: f64,
}

/// Fig. 5b: coverage CDF inputs per mobile app.
pub fn fig5b(run: &FigureRun, apps: usize) -> Vec<Fig5bRow> {
    run.per_app(&suite_apps(Suite::Mobile, apps), |bench| {
        let app = bench.app.name.clone();
        let profile = bench.profile(&ProfilerConfig {
            profile_fraction: 1.0,
            ..Default::default()
        });
        Fig5bRow {
            app,
            unique_chains: profile.stats.unique_chains,
            critical_chains: profile.stats.critical_chains,
            convertible_frac: profile.stats.convertible_frac,
            coverage: profile.dynamic_coverage,
        }
    })
}

// ---------------------------------------------------------------- Fig. 8/10

/// One per-app design-space row (Figs. 8 and 10).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Row {
    /// Workload name.
    pub app: String,
    /// Fig. 10a: `Hoist` speedup.
    pub hoist: f64,
    /// Fig. 10a: `CritIC` speedup.
    pub critic: f64,
    /// Fig. 10a: `CritIC.Ideal` speedup.
    pub critic_ideal: f64,
    /// Fig. 8: approach-1 (branch-pair switch) speedup on stock hardware.
    pub branch_switch: f64,
    /// Fig. 10b: fetch-stall fraction saved by CritIC
    /// (baseline F.StallForI+R+D minus CritIC's).
    pub fetch_stall_saving: f64,
    /// Fig. 10c: system-wide energy saving of CritIC.
    pub system_energy_saving: f64,
    /// Fig. 10c: CPU-only energy saving of CritIC.
    pub cpu_energy_saving: f64,
    /// Fig. 10c: system-wide saving attributable to the i-cache.
    pub icache_component: f64,
}

/// Figs. 8 and 10: the CritIC design space over the ten mobile apps.
pub fn fig10(run: &FigureRun, apps: usize) -> Vec<Fig10Row> {
    run.per_app(&suite_apps(Suite::Mobile, apps), |bench| {
        let base = bench.run(&DesignPoint::baseline());
        let hoist = bench.run(&DesignPoint::hoist());
        let critic = bench.run(&DesignPoint::critic());
        let ideal = bench.run(&DesignPoint::critic_ideal());
        let branch = bench.run(&DesignPoint::critic_branch_switch());
        Fig10Row {
            app: bench.app.name.clone(),
            hoist: hoist.sim.speedup_over(&base.sim),
            critic: critic.sim.speedup_over(&base.sim),
            critic_ideal: ideal.sim.speedup_over(&base.sim),
            branch_switch: branch.sim.speedup_over(&base.sim),
            fetch_stall_saving: fetch_stall(&base.sim) - fetch_stall(&critic.sim),
            system_energy_saving: critic.energy.system_saving(&base.energy),
            cpu_energy_saving: critic.energy.cpu_saving(&base.energy),
            icache_component: critic.energy.system_saving_from(&base.energy, |e| e.icache),
        }
    })
}

// ---------------------------------------------------------------- Fig. 11

/// One hardware-mechanism row of Fig. 11.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Row {
    /// Mechanism label.
    pub mechanism: String,
    /// Mean speedup over baseline (mobile apps).
    pub speedup: f64,
    /// Mean speedup with CritIC added on top.
    pub with_critic: f64,
    /// Change in F.StallForI fraction vs baseline (negative = reduced).
    pub d_stall_i: f64,
    /// Change in F.StallForR+D fraction vs baseline.
    pub d_stall_rd: f64,
}

/// Fig. 11: conventional hardware fetch mechanisms, alone and with CritIC.
pub fn fig11(run: &FigureRun, apps: usize) -> Vec<Fig11Row> {
    let mechanisms: Vec<(&str, DesignPoint)> = vec![
        ("2xFD", DesignPoint::double_fd()),
        ("4xICache", DesignPoint::quad_icache()),
        ("EFetch", DesignPoint::efetch()),
        ("PerfectBr", DesignPoint::perfect_branch()),
        ("BackendPrio", DesignPoint::backend_prio()),
        ("AllHW", DesignPoint::all_hw()),
        ("CritIC", DesignPoint::critic()),
    ];
    // Each mechanism alone, then CritIC on top of each hardware-only one;
    // a mechanism that already runs CritIC is its own combination.
    let mut points: Vec<DesignPoint> = mechanisms.iter().map(|(_, p)| p.clone()).collect();
    let combo: Vec<usize> = mechanisms
        .iter()
        .enumerate()
        .map(|(k, (_, point))| {
            if matches!(point.software, Software::Baseline) {
                points.push(point.clone().with_critic());
                points.len() - 1
            } else {
                k
            }
        })
        .collect();
    let grid = run.grid(apps, &points);
    mechanisms
        .iter()
        .enumerate()
        .map(|(k, (name, _))| {
            let d_stall = |stall: fn(&SimResult) -> f64| {
                mean(
                    grid.iter()
                        .map(|g| stall(&g.runs[k].sim) - stall(&g.base.sim)),
                )
            };
            Fig11Row {
                mechanism: name.to_string(),
                speedup: mean(grid.iter().map(|g| g.speedup(k))),
                with_critic: mean(grid.iter().map(|g| g.speedup(combo[k]))),
                d_stall_i: d_stall(SimResult::stall_for_i_frac),
                d_stall_rd: d_stall(SimResult::stall_for_rd_frac),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 12

/// One Fig. 12a row: a single CritIC length.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12aRow {
    /// Chain length n.
    pub n: usize,
    /// Mean speedup with only chains of exactly this length.
    pub speedup: f64,
    /// Mean fetch-stall saving (right axis).
    pub fetch_saving: f64,
}

/// Fig. 12a: sensitivity to CritIC length.
pub fn fig12a(run: &FigureRun, apps: usize, lengths: &[usize]) -> Vec<Fig12aRow> {
    let points: Vec<DesignPoint> = lengths
        .iter()
        .map(|&n| DesignPoint::critic_exact_len(n))
        .collect();
    let grid = run.grid(apps, &points);
    lengths
        .iter()
        .enumerate()
        .map(|(k, &n)| Fig12aRow {
            n,
            speedup: mean(grid.iter().map(|g| g.speedup(k))),
            fetch_saving: mean(
                grid.iter()
                    .map(|g| fetch_stall(&g.base.sim) - fetch_stall(&g.runs[k].sim)),
            ),
        })
        .collect()
}

/// One Fig. 12b row: a profiling-coverage level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12bRow {
    /// Fraction of execution profiled.
    pub fraction: f64,
    /// Mean speedup at that coverage.
    pub speedup: f64,
}

/// Fig. 12b: sensitivity to profiling coverage.
pub fn fig12b(run: &FigureRun, apps: usize, fractions: &[f64]) -> Vec<Fig12bRow> {
    let points: Vec<DesignPoint> = fractions
        .iter()
        .map(|&f| DesignPoint::critic_profile_fraction(f))
        .collect();
    let grid = run.grid(apps, &points);
    fractions
        .iter()
        .enumerate()
        .map(|(k, &fraction)| Fig12bRow {
            fraction,
            speedup: mean(grid.iter().map(|g| g.speedup(k))),
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 13

/// One Fig. 13 row: a conversion scheme.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig13Row {
    /// Scheme label.
    pub scheme: String,
    /// Mean speedup over baseline.
    pub speedup: f64,
    /// Mean fraction of dynamic instructions in 16-bit format
    /// (Fig. 13b's y-axis).
    pub converted_frac: f64,
}

/// Fig. 13: why bother with criticality — OPP16 / Compress / CritIC /
/// OPP16+CritIC.
pub fn fig13(run: &FigureRun, apps: usize) -> Vec<Fig13Row> {
    let schemes: Vec<(&str, DesignPoint)> = vec![
        ("OPP16", DesignPoint::opp16()),
        ("Compress", DesignPoint::compress()),
        ("CritIC", DesignPoint::critic()),
        ("OPP16+CritIC", DesignPoint::opp16_plus_critic()),
    ];
    let points: Vec<DesignPoint> = schemes.iter().map(|(_, p)| p.clone()).collect();
    let grid = run.grid(apps, &points);
    schemes
        .iter()
        .enumerate()
        .map(|(k, (name, _))| Fig13Row {
            scheme: name.to_string(),
            speedup: mean(grid.iter().map(|g| g.speedup(k))),
            converted_frac: mean(grid.iter().map(|g| g.runs[k].thumb_dyn_frac)),
        })
        .collect()
}

// ------------------------------------------------------------ Ledger audit

/// One row of the cycle-accounting audit: an app's baseline simulation and
/// the ledger that partitions every one of its cycles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LedgerRow {
    /// App name.
    pub app: String,
    /// Suite label.
    pub suite: String,
    /// Total simulated cycles of the baseline run.
    pub cycles: u64,
    /// Per-bucket cycle attribution (see [`critic_pipeline::CycleLedger`]).
    pub ledger: critic_pipeline::CycleLedger,
    /// Whether the ledger's buckets sum to exactly `cycles`. Always `true`
    /// unless the simulator's attribution is broken; the `figures` binary
    /// and the experiments test suite both fail when any row is unbalanced.
    pub balanced: bool,
}

/// Cycle-accounting audit: re-simulates every workload's baseline through
/// [`critic_pipeline::Simulator::run_with_ledger`] and checks the
/// single-attribution invariant (bucket sum == total cycles) per app.
pub fn ledger_audit(run: &FigureRun, apps_per_suite: usize) -> Vec<LedgerRow> {
    let point = DesignPoint::baseline();
    run.per_suite(apps_per_suite, |bench| {
        let sim = Simulator::new(point.cpu_config(), point.mem_config());
        let (result, ledger) = sim.run_with_ledger(
            bench.baseline_trace(),
            bench.baseline_fanout(),
            &mut SimScratch::new(),
        );
        LedgerRow {
            app: bench.app.name.clone(),
            suite: bench.app.suite.label().to_string(),
            cycles: result.cycles,
            balanced: ledger.check(result.cycles).is_ok(),
            ledger,
        }
    })
    .into_iter()
    .flat_map(|(_, rows)| rows)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::isolate;
    use crate::error::RunError;

    const LEN: usize = 25_000;

    #[test]
    fn table1_mentions_the_key_parameters() {
        let t = table1();
        assert!(t.contains("128 ROB"));
        assert!(t.contains("32KB 2-way i-cache"));
        assert!(t.contains("4096-entry"));
    }

    #[test]
    fn table2_has_26_workloads() {
        let rows = table2();
        assert_eq!(rows.len(), 26);
        assert_eq!(rows.iter().filter(|r| r.suite == "Android").count(), 10);
    }

    #[test]
    fn fig1a_rows_cover_all_suites() {
        let rows = fig1a(&FigureRun::new(LEN), 1);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.prefetch_speedup > 0.9);
            assert!(row.critical_frac > 0.0);
        }
    }

    #[test]
    fn fig1b_fractions_normalize() {
        let rows = fig1b(&FigureRun::new(LEN), 1);
        for row in &rows {
            let sum: f64 = row.none_frac + row.gap_fracs.iter().sum::<f64>();
            assert!((sum - 1.0).abs() < 1e-6, "{}: {}", row.suite, sum);
        }
    }

    #[test]
    fn fig10_reports_per_app() {
        let rows = fig10(&FigureRun::new(LEN), 2);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.critic > 0.9 && row.critic < 1.5);
        }
    }

    #[test]
    fn fig13_has_four_schemes() {
        let rows = fig13(&FigureRun::new(LEN), 1);
        assert_eq!(rows.len(), 4);
        let critic = rows
            .iter()
            .find(|r| r.scheme == "CritIC")
            .expect("critic row");
        let opp = rows.iter().find(|r| r.scheme == "OPP16").expect("opp row");
        assert!(
            critic.converted_frac < opp.converted_frac,
            "CritIC converts fewer instructions (Fig. 13b)"
        );
    }

    /// The acceptance gate of the observability layer: the cycle ledger
    /// partitions every simulated cycle for every one of the 26 Table II
    /// workloads (bucket sum == total cycles, exactly).
    #[test]
    fn ledger_audit_balances_for_all_26_workloads() {
        let rows = ledger_audit(&FigureRun::new(LEN), 10);
        assert_eq!(rows.len(), 26, "one row per Table II workload");
        for row in &rows {
            assert!(
                row.balanced,
                "{}: ledger {:?} does not sum to {} cycles",
                row.app, row.ledger, row.cycles
            );
            assert_eq!(row.ledger.total(), row.cycles, "{}", row.app);
            assert!(row.cycles > 0, "{}: empty simulation", row.app);
        }
    }

    /// The executor's results do not depend on what the store already
    /// holds: a figure over a store warmed by other figures serializes
    /// equal to the same figure over a fresh one.
    #[test]
    fn shared_run_matches_a_fresh_run() {
        let shared = FigureRun::new(LEN);
        fig10(&shared, 2);
        fig1a(&shared, 1);
        let json = |rows: &[Fig11Row]| serde_json::to_string(rows).expect("serialize");
        assert_eq!(
            json(&fig11(&shared, 2)),
            json(&fig11(&FigureRun::new(LEN), 2))
        );
    }

    /// Figures over the same apps share recordings and baselines: a second
    /// figure over the first's apps builds neither again, and neither
    /// figure, having no trace analysis, builds a world.
    #[test]
    fn figures_share_recordings_and_baselines() {
        let run = FigureRun::new(LEN);
        fig10(&run, 3);
        let before = run.store().stats();
        assert_eq!(before.recordings_built, 3, "{before:?}");
        fig13(&run, 3);
        let after = run.store().stats();
        assert_eq!(after.recordings_built, before.recordings_built, "{after:?}");
        assert_eq!(after.baselines_built, before.baselines_built, "{after:?}");
        assert_eq!(after.worlds_built + after.cones_built, 0, "{after:?}");
    }

    /// A worker's panic reaches the caller with its own message, so the
    /// `figures` binary's isolation boundary reports what went wrong.
    #[test]
    fn a_worker_panic_surfaces_its_own_message() {
        let run = FigureRun::new(LEN);
        let apps = suite_apps(Suite::Mobile, 3);
        let result = isolate("fig", || {
            run.per_app(&apps, |bench| {
                if bench.app.name == apps[1].name {
                    panic!("planted failure in {}", bench.app.name);
                }
            })
        });
        match result {
            Err(RunError::Panic(message)) => {
                assert_eq!(message, format!("fig: planted failure in {}", apps[1].name))
            }
            other => panic!("expected the worker's panic, got {other:?}"),
        }
    }
}
