//! The experiment workbench: one app, one recorded input, many variants.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use critic_compiler::{
    try_apply_compress, try_apply_critic_pass, try_apply_opp16, BaselineExecution,
    CriticPassOptions, PassReport,
};
use critic_energy::{EnergyBreakdown, EnergyModel};
use critic_obs::{EventKind, SpanKind, Telemetry};
use critic_pipeline::{
    BatchSimulator, SimEngine, SimResult, Simulator, StreamRunStats, StreamScratch,
};
use critic_profiler::{ChainSpec, Profile, Profiler, ProfilerConfig};
use critic_workloads::{
    inject_variant, AppSpec, BlockId, ExecutionPath, Fault, Program, StreamConfig, Trace,
    TraceStream,
};
use serde::{Deserialize, Serialize};

use crate::design::{DesignPoint, Software};
use crate::error::RunError;
use crate::store::{profile_stream, ArtifactStore, Recording, World};

/// Per-run translation-validation accounting, journaled per campaign cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationStats {
    /// Chains in the profile the variant was validated against.
    pub chains_checked: u64,
    /// Chains demoted back to their 32-bit form after a divergence.
    pub chains_demoted: u64,
    /// Divergences that demotion could not resolve (the run then fails
    /// with [`RunError::Validation`]).
    pub failed: u64,
}

/// Everything one run of one design point produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// The design point's label.
    pub design: String,
    /// Timing result.
    pub sim: SimResult,
    /// Energy result.
    pub energy: EnergyBreakdown,
    /// What the compiler did to the binary.
    pub pass: PassReport,
    /// Fraction of *dynamic* instructions fetched in 16-bit format
    /// (Fig. 13b's y-axis).
    pub thumb_dyn_frac: f64,
    /// Dynamic instructions executed (includes inserted overhead).
    pub dyn_insns: usize,
}

/// Generates an app's binary and input once, then evaluates design points
/// over the identical input — the paper's methodology of running "the same
/// parts for all the optimizations evaluated".
#[derive(Debug)]
pub struct Workbench {
    /// The workload.
    pub app: AppSpec,
    /// The original (baseline) binary (shared with the store's recording
    /// or world when store-backed).
    pub program: Arc<Program>,
    /// The recorded block-level input.
    pub path: Arc<ExecutionPath>,
    /// Where the baseline trace and the store-shared artifacts come from.
    backing: Backing,
    /// Lazily-computed ROB-cone fanout shared by every profiler config of
    /// a privately backed workbench.
    cone_fanout: Option<Arc<Vec<u32>>>,
    energy_model: EnergyModel,
    profiles: HashMap<String, Arc<Profile>>,
    variants: HashMap<String, (Program, PassReport)>,
    variant_fault: Option<(Fault, u64)>,
    /// Shared-decode simulation context: the base trace is decoded once
    /// per workbench, every variant decode reuses its common prefix, and
    /// the simulator scratch (tables, queues, models) is recycled across
    /// all of this workbench's runs — one trace decode per app instead of
    /// one per (app, scheme) cell.
    batch: BatchSimulator,
    /// Which simulation engine [`Workbench::simulate`] routes through.
    /// Defaults to the data-oriented core; the bench harness switches to
    /// [`SimEngine::Reference`] to measure the scalar baseline.
    engine: SimEngine,
    /// Reusable variant-expansion buffers: each non-baseline cell
    /// re-expands its trace and fanout into these instead of allocating
    /// multi-megabyte vectors per (app, scheme) cell.
    variant_trace: Trace,
    variant_fanout: Vec<u32>,
    /// When set, [`Workbench::simulate`] routes data-oriented runs through
    /// the bounded-memory streaming front-end with this window size
    /// (bit-identical results; see `critic_pipeline::stream_sim`), and
    /// storeless profiling folds the stream instead of materializing.
    stream_window: Option<usize>,
    /// Recycled ring scratch for the streaming front-end.
    stream_scratch: StreamScratch,
    /// Memory accounting of the most recent streamed simulation.
    last_stream_stats: Option<StreamRunStats>,
    /// Span/event sink; [`Telemetry::off`] by default, so the instrumented
    /// paths cost one branch per span when telemetry is disabled.
    telemetry: Telemetry,
}

/// Where a [`Workbench`]'s baseline trace and shared artifacts come from.
#[derive(Debug)]
enum Backing {
    /// Built privately: the materialized baseline trace and its
    /// direct-fanout vector (`trace.compute_fanout()`, computed once at
    /// assembly and threaded through every consumer).
    Private {
        trace: Arc<Trace>,
        fanout: Arc<Vec<u32>>,
    },
    /// A campaign store's shared world: profiles, cone fanouts, baseline
    /// simulations, and oracle executions are served from — and
    /// contributed to — the store.
    World(Arc<ArtifactStore>, Arc<World>),
    /// A campaign store's trace-free recording: every profile and run
    /// streams, through the store's streamed builders. Swapped for the
    /// app's world the first time a run needs the materialized trace.
    Recording(Arc<ArtifactStore>, Arc<Recording>),
}

impl Workbench {
    /// Generates the app's binary and records a `trace_len`-instruction
    /// execution.
    ///
    /// # Panics
    ///
    /// Panics if the generated binary or trace fails validation (a
    /// generator bug); use [`Workbench::try_new`] to get a [`RunError`].
    pub fn new(app: &AppSpec, trace_len: usize) -> Workbench {
        match Workbench::try_new(app, trace_len) {
            Ok(bench) => bench,
            Err(e) => panic!("workbench setup for {} failed: {e}", app.name),
        }
    }

    /// Fallible variant of [`Workbench::new`]: validates the generated
    /// binary before expanding the trace, and the trace against the
    /// binary, returning a typed [`RunError`] on either mismatch.
    pub fn try_new(app: &AppSpec, trace_len: usize) -> Result<Workbench, RunError> {
        let program = app.generate_program();
        program.validate()?;
        let path = ExecutionPath::generate(&program, app.path_seed(), trace_len);
        let base_trace = Trace::expand(&program, &path);
        Workbench::try_assemble(app, program, path, base_trace)
    }

    /// Builds a workbench from externally supplied (possibly corrupted)
    /// parts, validating the program and the trace against it. This is the
    /// fault-injection entry point: campaigns inject faults into the
    /// program or trace and still get a typed error instead of a panic
    /// deep inside the analyses.
    pub fn try_assemble(
        app: &AppSpec,
        program: Program,
        path: ExecutionPath,
        base_trace: Trace,
    ) -> Result<Workbench, RunError> {
        program.validate_encoding()?;
        base_trace.validate(&program)?;
        let fanout = base_trace.compute_fanout();
        let backing = Backing::Private {
            trace: Arc::new(base_trace),
            fanout: Arc::new(fanout),
        };
        Ok(Workbench::with_backing(
            app,
            Arc::new(program),
            Arc::new(path),
            backing,
        ))
    }

    /// Builds a workbench over a store-shared [`World`]: the generated
    /// program, path, trace, and fanout are reused as-is (they were
    /// validated when the world was built), and profiles, cone fanouts,
    /// baseline simulations, and baseline oracle executions are served
    /// from — and contributed to — `store`.
    pub fn from_world(app: &AppSpec, world: Arc<World>, store: Arc<ArtifactStore>) -> Workbench {
        let (program, path) = (Arc::clone(&world.program), Arc::clone(&world.path));
        Workbench::with_backing(app, program, path, Backing::World(store, world))
    }

    /// Builds a workbench over a store-shared [`Recording`] for streamed
    /// runs ([`Workbench::set_stream_window`]): no trace is held, and
    /// profiles, baseline simulations, and baseline oracle executions come
    /// from `store`'s streamed builders. A run that needs the materialized
    /// trace (no window set, or the reference engine) first fetches the
    /// app's world from `store`.
    pub fn from_recording(
        app: &AppSpec,
        recording: Arc<Recording>,
        store: Arc<ArtifactStore>,
    ) -> Workbench {
        let (program, path) = (Arc::clone(&recording.program), Arc::clone(&recording.path));
        Workbench::with_backing(app, program, path, Backing::Recording(store, recording))
    }

    fn with_backing(
        app: &AppSpec,
        program: Arc<Program>,
        path: Arc<ExecutionPath>,
        backing: Backing,
    ) -> Workbench {
        Workbench {
            app: app.clone(),
            program,
            path,
            backing,
            cone_fanout: None,
            energy_model: EnergyModel::default(),
            profiles: HashMap::new(),
            variants: HashMap::new(),
            variant_fault: None,
            batch: BatchSimulator::new(),
            engine: SimEngine::default(),
            variant_trace: Trace::default(),
            variant_fanout: Vec::new(),
            stream_window: None,
            stream_scratch: StreamScratch::new(),
            last_stream_stats: None,
            telemetry: Telemetry::off(),
        }
    }

    /// Routes this workbench's spans (profile, passes, validate, sim) and
    /// demotion events into `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Selects the simulation engine. Results are bit-identical across
    /// engines; [`SimEngine::Reference`] exists for the bench harness's
    /// scalar baseline and for differential checks.
    pub fn set_engine(&mut self, engine: SimEngine) {
        self.engine = engine;
    }

    /// Enables (`Some(window)`) or disables (`None`) the bounded-memory
    /// streaming trace pipeline for data-oriented runs: the trace is
    /// expanded, fanout-annotated, decoded, and simulated window-at-a-time
    /// without ever materializing the dynamic stream. Results are
    /// bit-identical to the materialized path (enforced by the
    /// differential battery); only peak memory changes — O(window) instead
    /// of O(trace). The reference engine ignores this and stays
    /// materialized.
    pub fn set_stream_window(&mut self, window: Option<usize>) {
        self.stream_window = window;
    }

    /// Memory accounting of the most recent streamed simulation, if any
    /// run has been routed through the streaming front-end.
    pub fn stream_stats(&self) -> Option<StreamRunStats> {
        self.last_stream_stats
    }

    /// Decode-sharing counters for this workbench's batch context.
    pub fn batch_stats(&self) -> critic_pipeline::BatchStats {
        self.batch.stats()
    }

    /// Arms a deterministic miscompile: the next non-baseline variant built
    /// is corrupted with `fault` (seeded by `seed`) after its compiler pass
    /// runs. The corruption is silent — only the differential oracle
    /// ([`Workbench::try_run_validated`]) can see it.
    pub fn set_variant_fault(&mut self, fault: Fault, seed: u64) {
        self.variant_fault = Some((fault, seed));
        // Drop any variants built before the fault was armed.
        self.variants.clear();
    }

    /// The materialized baseline trace and its direct-fanout vector.
    ///
    /// # Panics
    ///
    /// Panics on a recording backing: its trace exists only as a stream.
    fn base(&self) -> (&Trace, &[u32]) {
        match &self.backing {
            Backing::Private { trace, fanout } => (trace, fanout),
            Backing::World(_, world) => (&world.trace, &world.fanout),
            Backing::Recording(..) => panic!(
                "{}: a recording-backed workbench holds no materialized trace",
                self.app.name
            ),
        }
    }

    /// The baseline dynamic trace.
    ///
    /// # Panics
    ///
    /// Panics on a [`Workbench::from_recording`] workbench that has not yet
    /// fetched its world: its trace exists only as a stream.
    pub fn baseline_trace(&self) -> &Trace {
        self.base().0
    }

    /// The baseline trace's direct-fanout vector
    /// ([`Trace::compute_fanout`]), computed once at assembly.
    ///
    /// # Panics
    ///
    /// As [`Workbench::baseline_trace`].
    pub fn baseline_fanout(&self) -> &[u32] {
        self.base().1
    }

    /// Swaps a recording backing for the app's world, so the materialized
    /// trace is at hand; a no-op for every other backing.
    fn materialize(&mut self) -> Result<(), RunError> {
        if let Backing::Recording(store, recording) = &self.backing {
            let world = store.world(&self.app, recording.key.trace_len())?;
            self.backing = Backing::World(Arc::clone(store), world);
        }
        Ok(())
    }

    /// Builds (or returns the cached) profile for a profiler configuration.
    ///
    /// # Panics
    ///
    /// Panics if the profiler rejects the workbench's trace; impossible
    /// for a workbench built through a validating constructor.
    pub fn profile(&mut self, config: &ProfilerConfig) -> &Profile {
        match self.ensure_profile(config) {
            Ok(key) => &self.profiles[&key],
            Err(e) => panic!("profiling {} failed: {e}", self.app.name),
        }
    }

    /// Fallible variant of [`Workbench::profile`].
    pub fn try_profile(&mut self, config: &ProfilerConfig) -> Result<&Profile, RunError> {
        let key = self.ensure_profile(config)?;
        Ok(&self.profiles[&key])
    }

    /// Builds the profile if missing; returns its cache key.
    fn ensure_profile(&mut self, config: &ProfilerConfig) -> Result<String, RunError> {
        let key = format!("{config:?}");
        if !self.profiles.contains_key(&key) {
            let telemetry = self.telemetry.clone();
            if self.stream_window.is_none() {
                self.materialize()?;
            }
            let profile = telemetry.time(SpanKind::Profile, || {
                let profiler = Profiler::new(config.clone());
                match (&self.backing, self.stream_window) {
                    (Backing::World(store, world), _) => store.profile(world, config),
                    (Backing::Recording(store, recording), Some(window)) => {
                        store.profile_streamed(recording, config, window)
                    }
                    (Backing::Private { .. }, Some(window)) => {
                        // Streamed profiling: fold chain statistics over a
                        // cone-enabled stream without materializing the
                        // trace or the cone vector. Bit-identical to the
                        // materialized build (the fold is order-preserving
                        // integer sums; see `critic-profiler`'s tests).
                        let mut stream = profile_stream(&self.program, &self.path, window);
                        Ok(Arc::new(
                            profiler.try_build_profile_streamed(&self.program, &mut stream)?,
                        ))
                    }
                    (Backing::Private { trace, .. }, None) => {
                        let cone = Arc::clone(
                            self.cone_fanout
                                .get_or_insert_with(|| Arc::new(trace.compute_cone_fanout(128))),
                        );
                        Ok(Arc::new(profiler.try_build_profile_with_cone(
                            &self.program,
                            trace,
                            &cone,
                        )?))
                    }
                    (Backing::Recording(..), None) => unreachable!("materialized above"),
                }
            })?;
            self.profiles.insert(key.clone(), profile);
        }
        Ok(key)
    }

    /// Builds (or returns the cached) transformed binary for a software
    /// scheme — the program [`Workbench::try_run`] would simulate for it.
    /// Exposed for benches and probes that need the variant trace itself.
    pub fn try_variant(&mut self, software: &Software) -> Result<(Program, PassReport), RunError> {
        self.variant(software)
    }

    fn variant(&mut self, software: &Software) -> Result<(Program, PassReport), RunError> {
        let key = software.label();
        if let Some(cached) = self.variants.get(&key) {
            return Ok(cached.clone());
        }
        let built = self.build_variant(software)?;
        self.variants.insert(key.clone(), built.clone());
        Ok(built)
    }

    /// The profile a software scheme consumes (with any scheme-specific
    /// chain filtering applied), or `None` for profile-free schemes.
    fn software_profile(&mut self, software: &Software) -> Result<Option<Profile>, RunError> {
        Ok(match *software {
            Software::Baseline | Software::Opp16 | Software::Compress => None,
            Software::Hoist | Software::CritIcBranchSwitch | Software::Opp16PlusCritIc => {
                Some(self.try_profile(&ProfilerConfig::default())?.clone())
            }
            Software::CritIc {
                profile_fraction,
                max_len,
                exact_len,
            } => {
                let config = ProfilerConfig {
                    profile_fraction,
                    max_chain_len: max_len,
                    ..ProfilerConfig::default()
                };
                let mut profile = self.try_profile(&config)?.clone();
                if exact_len {
                    if let Some(n) = max_len {
                        profile.chains.retain(|c| c.len() == n);
                    }
                }
                Some(profile)
            }
            Software::CritIcIdeal => Some(self.try_profile(&ProfilerConfig::ideal())?.clone()),
        })
    }

    /// Applies a scheme's compiler passes to `program`, consuming the
    /// profile [`Workbench::software_profile`] resolved for it.
    fn apply_software(
        program: &mut Program,
        software: &Software,
        profile: Option<&Profile>,
    ) -> Result<PassReport, RunError> {
        let empty = Profile::empty();
        let profile = profile.unwrap_or(&empty);
        Ok(match *software {
            Software::Baseline => PassReport::default(),
            Software::Hoist => {
                try_apply_critic_pass(program, profile, CriticPassOptions::hoist_only())?
            }
            Software::CritIc { .. } => {
                try_apply_critic_pass(program, profile, CriticPassOptions::default())?
            }
            Software::CritIcBranchSwitch => {
                try_apply_critic_pass(program, profile, CriticPassOptions::branch_switch())?
            }
            Software::CritIcIdeal => {
                try_apply_critic_pass(program, profile, CriticPassOptions::ideal())?
            }
            Software::Opp16 => try_apply_opp16(program, critic_compiler::opp16::OPP16_MIN_RUN)?,
            Software::Compress => try_apply_compress(program)?,
            Software::Opp16PlusCritIc => {
                let mut report =
                    try_apply_critic_pass(program, profile, CriticPassOptions::default())?;
                report.absorb(try_apply_opp16(
                    program,
                    critic_compiler::opp16::OPP16_MIN_RUN,
                )?);
                report
            }
        })
    }

    fn build_variant(&mut self, software: &Software) -> Result<(Program, PassReport), RunError> {
        let profile = self.software_profile(software)?;
        let telemetry = self.telemetry.clone();
        telemetry.time(SpanKind::Passes, || {
            let mut program = (*self.program).clone();
            let report = Self::apply_software(&mut program, software, profile.as_ref())?;
            if let Some((fault, seed)) = self.variant_fault {
                if !matches!(software, Software::Baseline) {
                    let executed: HashSet<BlockId> = self.path.blocks.iter().copied().collect();
                    inject_variant(&mut program, fault, seed, &executed)
                        .map_err(|e| RunError::Inject(e.to_string()))?;
                }
            }
            Ok((program, report))
        })
    }

    /// Runs one design point over the recorded input.
    ///
    /// # Panics
    ///
    /// Panics if profiling or a compiler pass rejects its inputs; use
    /// [`Workbench::try_run`] to get a [`RunError`] instead.
    pub fn run(&mut self, point: &DesignPoint) -> RunOutcome {
        match self.try_run(point) {
            Ok(outcome) => outcome,
            Err(e) => panic!("run of {} on {} failed: {e}", point.label(), self.app.name),
        }
    }

    /// Fallible variant of [`Workbench::run`]: every rejection along the
    /// profile → pass → simulate pipeline surfaces as a typed [`RunError`].
    pub fn try_run(&mut self, point: &DesignPoint) -> Result<RunOutcome, RunError> {
        let key = point.software.label();
        // Lend the cached variant to the simulator instead of cloning it:
        // the binary is multi-megabyte and this runs once per cell.
        let (program, pass) = match self.variants.remove(&key) {
            Some(built) => built,
            None => self.build_variant(&point.software)?,
        };
        let outcome = self.simulate(point, &program, pass);
        self.variants.insert(key, (program, pass));
        outcome
    }

    /// Runs one design point with the differential oracle in the loop.
    ///
    /// The variant is executed against the baseline over inputs seeded from
    /// `seed` before it is simulated. On a divergence the offending chain
    /// is **demoted** — the variant is rebuilt from the original binary
    /// with that chain removed from the profile, leaving it in its 32-bit
    /// form — and validation repeats. Demotions are counted in the
    /// returned [`ValidationStats`] and in `PassReport::chains_demoted`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Validation`] when a divergence cannot be pinned
    /// on a chain or survives its chain's demotion; other pipeline failures
    /// surface as their usual [`RunError`] variants.
    pub fn try_run_validated(
        &mut self,
        point: &DesignPoint,
        seed: u64,
    ) -> Result<(RunOutcome, ValidationStats), RunError> {
        let software = &point.software;
        let full_profile = self.software_profile(software)?;
        let chains: Vec<ChainSpec> = full_profile
            .as_ref()
            .map(|p| p.chains.clone())
            .unwrap_or_default();
        let (mut program, mut pass) = self.variant(software)?;
        let mut stats = ValidationStats {
            chains_checked: chains.len() as u64,
            ..Default::default()
        };
        let mut demoted: HashSet<usize> = HashSet::new();
        // The baseline's oracle execution is identical across demotion
        // iterations (and across every scheme of the app), so it is
        // captured once — from the campaign store when available.
        let baseline_exec = match &self.backing {
            Backing::World(store, world) => store.baseline_execution(world, seed),
            Backing::Recording(store, recording) => {
                store.recorded_baseline_execution(recording, seed)
            }
            Backing::Private { .. } => BaselineExecution::capture(&self.program, &self.path, seed)
                .map(Arc::new)
                .map_err(|e| RunError::Validation(e.to_string())),
        };
        let baseline_exec = match baseline_exec {
            Ok(exec) => exec,
            Err(e) => {
                stats.failed += 1;
                return Err(RunError::Validation(format!(
                    "baseline capture failed: {e} ({} chains checked, {} demoted, {} unresolved)",
                    stats.chains_checked, stats.chains_demoted, stats.failed
                )));
            }
        };
        let telemetry = self.telemetry.clone();
        telemetry.time(SpanKind::Validate, || -> Result<(), RunError> {
            loop {
                // Attribution ranks refer to the *original* chain list, so
                // the full list is passed on every iteration.
                match baseline_exec.validate_variant(&program, &self.path, &chains) {
                    Ok(_) => break Ok(()),
                    Err(e) => {
                        let Some(rank) = e.chain else {
                            stats.failed += 1;
                            return Err(RunError::Validation(format!(
                                "{e} ({} chains checked, {} demoted, {} unresolved)",
                                stats.chains_checked, stats.chains_demoted, stats.failed
                            )));
                        };
                        if !demoted.insert(rank) {
                            stats.failed += 1;
                            return Err(RunError::Validation(format!(
                                "divergence survives demotion of chain #{rank}: {e} \
                                 ({} chains checked, {} demoted, {} unresolved)",
                                stats.chains_checked, stats.chains_demoted, stats.failed
                            )));
                        }
                        stats.chains_demoted += 1;
                        telemetry.event(EventKind::Demotion);
                        // Rebuild from the pristine binary with the demoted
                        // chains withheld from the profile. The armed
                        // miscompile (if any) is *not* re-injected: demotion
                        // models the pass backing out one chain, not the
                        // corruption recurring.
                        let mut filtered = full_profile.clone().unwrap_or_else(Profile::empty);
                        let kept: Vec<ChainSpec> = filtered
                            .chains
                            .iter()
                            .enumerate()
                            .filter(|(rank, _)| !demoted.contains(rank))
                            .map(|(_, c)| c.clone())
                            .collect();
                        filtered.chains = kept;
                        let mut rebuilt = (*self.program).clone();
                        pass = Self::apply_software(&mut rebuilt, software, Some(&filtered))?;
                        pass.chains_demoted += demoted.len() as u64;
                        program = rebuilt;
                    }
                }
            }
        })?;
        let outcome = self.simulate(point, &program, pass)?;
        Ok((outcome, stats))
    }

    /// The store's baseline outcome for `point`: simulated over the world,
    /// or streamed over the recording with `window` (always set for a
    /// recording, which [`Workbench::materialize`] swaps out otherwise).
    fn shared_baseline(
        &self,
        point: &DesignPoint,
        window: Option<usize>,
    ) -> Result<Arc<RunOutcome>, RunError> {
        match (&self.backing, window) {
            (Backing::World(store, world), _) => store.baseline(world, point),
            (Backing::Recording(store, recording), Some(window)) => {
                store.baseline_streamed(recording, point, window)
            }
            _ => unreachable!("a private backing simulates its own baseline"),
        }
    }

    /// Simulates an already-built variant and assembles the outcome.
    fn simulate(
        &mut self,
        point: &DesignPoint,
        program: &Program,
        pass: PassReport,
    ) -> Result<RunOutcome, RunError> {
        let baseline = matches!(point.software, Software::Baseline);
        let telemetry = self.telemetry.clone();
        let engine = self.engine;
        // Streaming covers data-oriented runs only; the reference engine
        // stays materialized.
        let window = self
            .stream_window
            .filter(|_| engine == SimEngine::DataOriented);
        if window.is_none() {
            self.materialize()?;
        }
        // Baselines are hardware-keyed and variant-independent: a
        // store-backed workbench shares one simulation per (world,
        // cpu+mem config) with every sibling cell.
        if baseline && !matches!(self.backing, Backing::Private { .. }) {
            return telemetry.time(SpanKind::Sim, || {
                Ok((*self.shared_baseline(point, window)?).clone())
            });
        }
        if let Some(window) = window {
            // Streaming route: expansion, fanout, decode, and the cycle
            // loop all run window-at-a-time over (program, path) —
            // nothing trace-length-sized is materialized. The stream is
            // fully drained by the run, so the thumb fraction and
            // dynamic length read back exactly what the materialized
            // trace would report.
            let prog: &Program = if baseline { &self.program } else { program };
            let mut stream = TraceStream::new(prog, &self.path, StreamConfig::with_window(window));
            let scratch = &mut self.stream_scratch;
            let (sim, _, stream_stats) = telemetry.time(SpanKind::Sim, || {
                Simulator::new(point.cpu_config(), point.mem_config())
                    .run_streamed(&mut stream, scratch)
            });
            let thumb_dyn_frac = stream.thumb_fraction();
            let dyn_insns = stream.total_len();
            drop(stream);
            self.last_stream_stats = Some(stream_stats);
            let energy = self.energy_model.evaluate(&sim);
            return Ok(RunOutcome {
                design: point.label(),
                thumb_dyn_frac,
                dyn_insns,
                sim,
                energy,
                pass,
            });
        }
        if !baseline {
            Trace::expand_into(program, &self.path, &mut self.variant_trace);
            if engine == SimEngine::Reference {
                // The data-oriented path derives the fan-out from the
                // decoded columns inside `run_variant`; only the reference
                // walk needs the AoS computation.
                self.variant_trace
                    .compute_fanout_into(&mut self.variant_fanout);
            }
        }
        let (base, base_fanout) = match &self.backing {
            Backing::Private { trace, fanout } => (trace, fanout),
            Backing::World(_, world) => (&world.trace, &world.fanout),
            Backing::Recording(..) => unreachable!("materialized above"),
        };
        let (trace, fanout): (&Trace, &[u32]) = if baseline {
            (base, base_fanout)
        } else {
            (&self.variant_trace, &self.variant_fanout)
        };
        let batch = &mut self.batch;
        let sim = telemetry.time(SpanKind::Sim, || {
            let simulator = Simulator::new(point.cpu_config(), point.mem_config());
            match engine {
                // The scalar baseline: a private decode-free walk with
                // fresh working memory per run, preserved verbatim.
                SimEngine::Reference => simulator.run_reference(trace, fanout).0,
                // The data-oriented core over the workbench's shared batch
                // context: the base trace decodes once, variants reuse its
                // prefix, and scratch/models recycle across runs.
                SimEngine::DataOriented => {
                    if baseline {
                        batch.run_base(&simulator, base, fanout).0
                    } else {
                        batch.run_variant(&simulator, trace, base).0
                    }
                }
            }
        });
        let energy = self.energy_model.evaluate(&sim);
        Ok(RunOutcome {
            design: point.label(),
            thumb_dyn_frac: trace.thumb_fraction(),
            dyn_insns: trace.len(),
            sim,
            energy,
            pass,
        })
    }
}

#[cfg(test)]
mod tests {
    use critic_workloads::suite::Suite;

    use super::*;
    use crate::SMOKE_TRACE_LEN;

    fn small_app() -> AppSpec {
        let mut app = Suite::Mobile.apps()[0].clone();
        app.params.num_functions = 60;
        app
    }

    #[test]
    fn critic_speeds_up_a_mobile_app() {
        let mut bench = Workbench::new(&small_app(), SMOKE_TRACE_LEN);
        let base = bench.run(&DesignPoint::baseline());
        let critic = bench.run(&DesignPoint::critic());
        let speedup = critic.sim.speedup_over(&base.sim);
        assert!(
            speedup > 1.0,
            "CritIC must beat the baseline, got {speedup:.4} (thumb {:.3})",
            critic.thumb_dyn_frac
        );
        assert!(critic.pass.chains_applied > 0);
        assert!(critic.thumb_dyn_frac > 0.0);
    }

    #[test]
    fn outcomes_are_reproducible() {
        let mut bench = Workbench::new(&small_app(), SMOKE_TRACE_LEN);
        let a = bench.run(&DesignPoint::critic());
        let b = bench.run(&DesignPoint::critic());
        assert_eq!(a, b);
    }

    #[test]
    fn energy_savings_follow_the_speedup() {
        let mut bench = Workbench::new(&small_app(), SMOKE_TRACE_LEN);
        let base = bench.run(&DesignPoint::baseline());
        let critic = bench.run(&DesignPoint::critic());
        let cpu_saving = critic.energy.cpu_saving(&base.energy);
        let system_saving = critic.energy.system_saving(&base.energy);
        assert!(cpu_saving > 0.0, "cpu saving {cpu_saving:.4}");
        assert!(system_saving > 0.0 && system_saving < cpu_saving);
    }

    #[test]
    fn clean_runs_validate_with_zero_demotions() {
        let mut bench = Workbench::new(&small_app(), SMOKE_TRACE_LEN);
        for point in [
            DesignPoint::baseline(),
            DesignPoint::critic(),
            DesignPoint::critic_ideal(),
        ] {
            let (outcome, stats) = bench
                .try_run_validated(&point, 7)
                .expect("clean run validates");
            assert_eq!(stats.chains_demoted, 0, "{}", point.label());
            assert_eq!(stats.failed, 0);
            assert_eq!(outcome.pass.chains_demoted, 0);
            // Validation must not perturb the measured outcome.
            let plain = bench.try_run(&point).expect("plain run");
            assert_eq!(outcome, plain, "{}", point.label());
        }
    }

    #[test]
    fn miscompiled_variant_is_demoted_not_fatal() {
        use critic_workloads::Fault;
        let mut bench = Workbench::new(&small_app(), SMOKE_TRACE_LEN);
        let clean = bench.try_run(&DesignPoint::critic()).expect("clean run");
        bench.set_variant_fault(Fault::ClobberedDestination, 33);
        let (outcome, stats) = bench
            .try_run_validated(&DesignPoint::critic(), 7)
            .expect("faulted run must complete via demotion");
        assert!(
            stats.chains_demoted >= 1,
            "the corrupted chain must be demoted"
        );
        assert_eq!(stats.failed, 0);
        assert_eq!(outcome.pass.chains_demoted, stats.chains_demoted);
        // The demoted variant keeps fewer chains than the clean one.
        assert!(outcome.pass.chains_applied < clean.pass.chains_applied);
    }

    #[test]
    fn unvalidated_run_swallows_the_miscompile() {
        use critic_workloads::Fault;
        // The control experiment: without the oracle the corrupted variant
        // simulates to a plausible outcome — exactly the silent-poisoning
        // failure mode validation exists to stop.
        let mut bench = Workbench::new(&small_app(), SMOKE_TRACE_LEN);
        bench.set_variant_fault(Fault::StaleSource, 33);
        let outcome = bench
            .try_run(&DesignPoint::critic())
            .expect("silent miscompile runs");
        assert!(outcome.pass.chains_applied > 0);
    }

    #[test]
    fn recording_backed_workbench_streams_then_materializes_on_demand() {
        let app = small_app();
        let store = Arc::new(ArtifactStore::new());
        let recording = store.recording(&app, SMOKE_TRACE_LEN).expect("recording");
        let mut streamed = Workbench::from_recording(&app, recording, Arc::clone(&store));
        streamed.set_stream_window(Some(512));
        let mut private = Workbench::new(&app, SMOKE_TRACE_LEN);
        for point in [DesignPoint::baseline(), DesignPoint::critic()] {
            assert_eq!(streamed.run(&point), private.run(&point));
        }
        let (seed, point) = (app.path_seed(), DesignPoint::hoist());
        assert_eq!(
            streamed.try_run_validated(&point, seed).expect("validated"),
            private.try_run_validated(&point, seed).expect("validated")
        );
        let stats = store.stats();
        assert_eq!(stats.worlds_built + stats.cones_built, 0, "{stats:?}");

        // Without a window the workbench fetches the app's world first.
        streamed.set_stream_window(None);
        assert_eq!(
            streamed.run(&DesignPoint::opp16()),
            private.run(&DesignPoint::opp16())
        );
        assert_eq!(store.stats().worlds_built, 1);
        assert_eq!(streamed.baseline_trace(), private.baseline_trace());
    }

    #[test]
    fn variants_are_cached() {
        let mut bench = Workbench::new(&small_app(), SMOKE_TRACE_LEN);
        let _ = bench.run(&DesignPoint::critic());
        let _ = bench.run(&DesignPoint::critic().with_critic());
        assert!(!bench.variants.is_empty());
        assert!(!bench.profiles.is_empty());
    }
}
