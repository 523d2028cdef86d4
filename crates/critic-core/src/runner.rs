//! The experiment workbench: one app, one recorded input, many variants.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use critic_compiler::{
    try_apply_compress, try_apply_critic_pass, try_apply_opp16, CriticPassOptions, PassReport,
};
use critic_energy::{EnergyBreakdown, EnergyModel};
use critic_obs::{EventKind, SpanKind, Telemetry};
use critic_pipeline::{SimEngine, SimResult, SimScratch, Simulator};
use critic_profiler::{ChainSpec, Profile, ProfilerConfig};
use critic_workloads::{
    inject_variant, AppSpec, BlockId, ExecutionPath, Fault, Program, StreamConfig, StreamPrep,
    Trace, DEFAULT_LOOKAHEAD, DEFAULT_STREAM_WINDOW,
};
use serde::{Deserialize, Serialize};

use crate::design::{DesignPoint, Software};
use crate::error::RunError;
use crate::store::{ArtifactStore, Recording, World, WorldKey};

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
///
/// Every shared artifact (the recording, profiles, baseline simulations,
/// baseline oracle executions and, on demand, the world) comes from an
/// [`ArtifactStore`]: a campaign's, or a fresh in-memory one owned by a
/// [`Workbench::try_new`] / [`Workbench::try_assemble`] workbench.
///
/// A workbench has one data-oriented engine: every profile and every
/// [`SimEngine::DataOriented`] run streams from the app's [`Recording`] at
/// the window the workbench was built with. The app's [`World`] is fetched
/// from the store only for what needs the materialized trace: a
/// [`SimEngine::Reference`] baseline and the trace analyses behind
/// [`Workbench::baseline_trace`] and [`Workbench::baseline_fanout`].
#[derive(Debug)]
pub struct Workbench {
    /// The workload.
    pub app: AppSpec,
    /// The original (baseline) binary, shared with the store's recording.
    pub program: Arc<Program>,
    /// The recorded block-level input.
    pub path: Arc<ExecutionPath>,
    /// The store the shared artifacts are served from and contributed to.
    store: Arc<ArtifactStore>,
    /// The trace-free input every profile and data-oriented run streams.
    recording: Arc<Recording>,
    /// The stream window of every profile fold and data-oriented run.
    window: usize,
    /// The recording's world, fetched from the store on first use.
    world: OnceLock<Arc<World>>,
    energy_model: EnergyModel,
    profiles: HashMap<String, Arc<Profile>>,
    variant_fault: Option<(Fault, u64)>,
    /// Which simulation engine [`Workbench::simulate`] routes through.
    /// Defaults to the data-oriented core; differential checks switch to
    /// [`SimEngine::Reference`] to run the scalar oracle.
    engine: SimEngine,
    /// Recycled rings, queues and stream buffers: every data-oriented run
    /// and profile fold, store builds included, runs in it.
    scratch: SimScratch,
    /// Span/event sink; [`Telemetry::off`] by default, so the instrumented
    /// paths cost one branch per span when telemetry is disabled.
    telemetry: Telemetry,
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

    /// Fallible variant of [`Workbench::new`]: the app's recording from a
    /// fresh in-memory [`ArtifactStore`] ([`ArtifactStore::recording`]),
    /// which validates the generated binary and the trace against it and
    /// returns a typed [`RunError`] on either mismatch. Every run streams
    /// at [`DEFAULT_STREAM_WINDOW`]; no world is built until something
    /// asks for the materialized trace.
    pub fn try_new(app: &AppSpec, trace_len: usize) -> Result<Workbench, RunError> {
        let store = Arc::new(ArtifactStore::new());
        let recording = store.recording(app, trace_len)?;
        Ok(Workbench::from_recording(
            app,
            recording,
            store,
            DEFAULT_STREAM_WINDOW,
        ))
    }

    /// Builds a recording-backed workbench from externally supplied
    /// (possibly corrupted) parts over a fresh in-memory [`ArtifactStore`]:
    /// checks the program's encoding and that `path` stays inside it, then
    /// checks the trace of `path` over it entry by entry on a stream, as
    /// [`ArtifactStore::recording`] does.
    /// Every data-oriented run streams at `window`. This is the
    /// fault-injection entry point: campaigns inject faults into the
    /// program and still get a typed error instead of a panic deep inside
    /// the analyses, and nothing corrupted reaches a shared store.
    pub fn try_assemble(
        app: &AppSpec,
        program: Program,
        path: ExecutionPath,
        window: usize,
    ) -> Result<Workbench, RunError> {
        program.validate_encoding()?;
        let key = WorldKey::new(app, path.checked_dyn_insns(&program)?);
        let recording = Recording::try_new(key, Arc::new(program), Arc::new(path))?;
        Ok(Workbench::from_recording(
            app,
            Arc::new(recording),
            Arc::new(ArtifactStore::new()),
            window,
        ))
    }

    /// Builds a workbench over a store-shared [`World`]: it streams on the
    /// world's recording ([`ArtifactStore::recording_of`], which shares
    /// the world's checked program and path) at [`DEFAULT_STREAM_WINDOW`],
    /// and keeps `world` for the reference engine and the trace analyses.
    pub fn from_world(app: &AppSpec, world: Arc<World>, store: Arc<ArtifactStore>) -> Workbench {
        let recording = store.recording_of(&world);
        Workbench {
            world: OnceLock::from(world),
            ..Workbench::from_recording(app, recording, store, DEFAULT_STREAM_WINDOW)
        }
    }

    /// Builds a workbench over a store-shared [`Recording`]: no trace is
    /// held, every data-oriented run and profile streams at `window`
    /// instructions per window (results are bit-identical at every
    /// window), and profiles, baseline simulations, and baseline oracle
    /// executions come from `store`'s streamed builders. The recording's
    /// world is fetched from `store` the first time a reference-engine
    /// baseline or a trace analysis needs the materialized trace.
    pub fn from_recording(
        app: &AppSpec,
        recording: Arc<Recording>,
        store: Arc<ArtifactStore>,
        window: usize,
    ) -> Workbench {
        Workbench {
            app: app.clone(),
            program: Arc::clone(&recording.program),
            path: Arc::clone(&recording.path),
            store,
            recording,
            window,
            world: OnceLock::new(),
            energy_model: EnergyModel::default(),
            profiles: HashMap::new(),
            variant_fault: None,
            engine: SimEngine::default(),
            scratch: SimScratch::new(),
            telemetry: Telemetry::off(),
        }
    }

    /// Routes this workbench's spans (profile, passes, validate, sim) and
    /// demotion events into `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Selects the simulation engine. Results are bit-identical across
    /// engines; [`SimEngine::Reference`] exists for differential checks.
    pub fn set_engine(&mut self, engine: SimEngine) {
        self.engine = engine;
    }

    /// Arms a deterministic miscompile: every non-baseline variant built
    /// from now on is corrupted with `fault` (seeded by `seed`) after its
    /// compiler pass runs. The corruption is silent — only the differential oracle
    /// ([`Workbench::try_run_validated`]) can see it.
    pub fn set_variant_fault(&mut self, fault: Fault, seed: u64) {
        self.variant_fault = Some((fault, seed));
    }

    /// The recording's world, fetched from the store on first use and kept.
    fn world(&self) -> Result<&World, RunError> {
        if let Some(world) = self.world.get() {
            return Ok(world);
        }
        let world = self.store.world_of(&self.recording)?;
        Ok(self.world.get_or_init(|| world))
    }

    /// [`Workbench::world`] for the trace accessors, which cannot fail.
    fn fetched_world(&self) -> &World {
        match self.world() {
            Ok(world) => world,
            Err(e) => panic!("{}: building the world failed: {e}", self.app.name),
        }
    }

    /// The baseline dynamic trace, from the app's world (built by the
    /// store on the first call).
    ///
    /// # Panics
    ///
    /// Panics if the store cannot build the world. The recording's input
    /// was already checked, so only an injected store fault does that.
    pub fn baseline_trace(&self) -> &Trace {
        &self.fetched_world().trace
    }

    /// The baseline trace's direct-fanout vector
    /// ([`Trace::compute_fanout`]), computed once when the world was built.
    ///
    /// # Panics
    ///
    /// As [`Workbench::baseline_trace`].
    pub fn baseline_fanout(&self) -> &[u32] {
        &self.fetched_world().fanout
    }

    /// Builds (or returns the cached) profile for a profiler configuration.
    ///
    /// # Panics
    ///
    /// Panics if the store cannot serve the profile (e.g. an injected
    /// store fault).
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

    /// Fetches the profile from the store if missing; returns its cache
    /// key. The per-workbench memo keeps a clean cell's sequence of store
    /// requests independent of how many schemes share one profile.
    fn ensure_profile(&mut self, config: &ProfilerConfig) -> Result<String, RunError> {
        let key = format!("{config:?}");
        if !self.profiles.contains_key(&key) {
            let profile = self.telemetry.time(SpanKind::Profile, || {
                self.store
                    .profile_streamed(&self.recording, config, self.window, &mut self.scratch)
            })?;
            self.profiles.insert(key.clone(), profile);
        }
        Ok(key)
    }

    /// Builds the transformed binary for a software scheme — the program
    /// [`Workbench::try_run`] would simulate for it. Exposed for benches
    /// and probes that need the variant trace itself.
    pub fn try_variant(&mut self, software: &Software) -> Result<(Program, PassReport), RunError> {
        let (program, pass) = self.build_variant(software)?;
        Ok((Arc::unwrap_or_clone(program), pass))
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

    /// The binary a scheme runs: the baseline's own for
    /// [`Software::Baseline`] (never injected: the oracle needs an honest
    /// reference), else a fresh compile of it with the armed miscompile,
    /// if any, planted. Nothing is cached; a run drops its variant.
    fn build_variant(
        &mut self,
        software: &Software,
    ) -> Result<(Arc<Program>, PassReport), RunError> {
        if matches!(software, Software::Baseline) {
            return Ok((Arc::clone(&self.program), PassReport::default()));
        }
        let profile = self.software_profile(software)?;
        let telemetry = self.telemetry.clone();
        telemetry.time(SpanKind::Passes, || {
            let mut program = (*self.program).clone();
            let report = Self::apply_software(&mut program, software, profile.as_ref())?;
            if let Some((fault, seed)) = self.variant_fault {
                let executed: HashSet<BlockId> = self.path.blocks.iter().copied().collect();
                inject_variant(&mut program, fault, seed, &executed)
                    .map_err(|e| RunError::Inject(e.to_string()))?;
            }
            Ok((Arc::new(program), report))
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
        let (program, pass) = self.build_variant(&point.software)?;
        self.simulate(point, &program, pass)
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
        let (mut program, mut pass) = self.build_variant(software)?;
        let mut stats = ValidationStats {
            chains_checked: chains.len() as u64,
            ..Default::default()
        };
        let mut demoted: HashSet<usize> = HashSet::new();
        // The baseline's oracle execution is identical across demotion
        // iterations (and across every scheme of the app), so the store
        // captures it once.
        let baseline_exec = match self
            .store
            .recorded_baseline_execution(&self.recording, seed)
        {
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
                        program = Arc::new(rebuilt);
                    }
                }
            }
        })?;
        let outcome = self.simulate(point, &program, pass)?;
        Ok((outcome, stats))
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
        let simulator = Simulator::new(point.cpu_config(), point.mem_config());
        let (sim, thumb_dyn_frac, dyn_insns) = match self.engine {
            // Data-oriented baselines are hardware-keyed and
            // variant-independent: the store shares one simulation per
            // (recording, cpu+mem config) with every sibling cell.
            SimEngine::DataOriented if baseline => {
                let outcome = telemetry.time(SpanKind::Sim, || {
                    self.store.baseline_streamed(
                        &self.recording,
                        point,
                        self.window,
                        &mut self.scratch,
                    )
                })?;
                return Ok((*outcome).clone());
            }
            // Expansion, fanout, decode, and the cycle loop all run
            // window-at-a-time over (program, path): nothing
            // trace-length-sized is materialized. The run drains the
            // stream, so the thumb fraction and dynamic length read back
            // exactly what the materialized trace would report.
            SimEngine::DataOriented => {
                let prep = Arc::new(StreamPrep::new(program, &self.path, DEFAULT_LOOKAHEAD));
                let scratch = &mut self.scratch;
                let config = StreamConfig::with_window(self.window);
                let mut stream = scratch.open(program, &self.path, config, prep);
                let (sim, _, _) = telemetry.time(SpanKind::Sim, || {
                    simulator.run_streamed(&mut stream, scratch)
                });
                let read = (sim, stream.thumb_fraction(), stream.total_len());
                scratch.recycle(stream);
                read
            }
            // The scalar oracle: a decode-free walk over a materialized
            // trace with fresh working memory per run, preserved verbatim.
            // A baseline walks the world's trace; a variant's trace is
            // expanded for this run alone.
            SimEngine::Reference => {
                let variant;
                let (trace, fanout): (&Trace, &[u32]) = if baseline {
                    let world = self.world()?;
                    (&world.trace, &world.fanout)
                } else {
                    let trace = Trace::expand(program, &self.path);
                    let fanout = trace.compute_fanout();
                    variant = (trace, fanout);
                    (&variant.0, &variant.1)
                };
                let sim =
                    telemetry.time(SpanKind::Sim, || simulator.run_reference(trace, fanout).0);
                (sim, trace.thumb_fraction(), trace.len())
            }
        };
        let energy = self.energy_model.evaluate(&sim);
        Ok(RunOutcome {
            design: point.label(),
            thumb_dyn_frac,
            dyn_insns,
            sim,
            energy,
            pass,
        })
    }
}

#[cfg(test)]
mod tests {
    use critic_workloads::suite::Suite;
    use critic_workloads::DEFAULT_STREAM_WINDOW;

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

    /// A recording-backed workbench streams at any window and reports what
    /// the scalar oracle reports; it fetches the app's world only for a
    /// reference-engine baseline.
    #[test]
    fn recording_backed_workbench_streams_then_materializes_on_demand() {
        let app = small_app();
        let mut oracle = Workbench::new(&app, SMOKE_TRACE_LEN);
        oracle.set_engine(SimEngine::Reference);
        for window in [512, DEFAULT_STREAM_WINDOW] {
            let store = Arc::new(ArtifactStore::new());
            let recording = store.recording(&app, SMOKE_TRACE_LEN).expect("recording");
            let mut streamed =
                Workbench::from_recording(&app, recording, Arc::clone(&store), window);
            for point in [
                DesignPoint::baseline(),
                DesignPoint::critic(),
                DesignPoint::opp16(),
            ] {
                assert_eq!(streamed.run(&point), oracle.run(&point), "window {window}");
            }
            let (seed, point) = (app.path_seed(), DesignPoint::hoist());
            assert_eq!(
                streamed.try_run_validated(&point, seed).expect("validated"),
                oracle.try_run_validated(&point, seed).expect("validated"),
                "window {window}"
            );
            let stats = store.stats();
            assert_eq!(stats.worlds_built + stats.cones_built, 0, "{stats:?}");

            // A reference variant expands its own trace; a reference
            // baseline fetches the app's world first.
            streamed.set_engine(SimEngine::Reference);
            let point = DesignPoint::compress();
            assert_eq!(streamed.run(&point), oracle.run(&point));
            assert_eq!(store.stats().worlds_built, 0);
            let point = DesignPoint::double_fd();
            assert_eq!(streamed.run(&point), oracle.run(&point));
            assert_eq!(store.stats().worlds_built, 1);
            assert_eq!(streamed.baseline_trace(), oracle.baseline_trace());
        }
    }

    /// A workbench assembled from clean parts is a recording-backed one
    /// over its own store: it streams, builds no world or cone, and
    /// reports what the scalar oracle reports for the same app.
    #[test]
    fn assembled_workbench_streams_and_matches_the_reference_engine() {
        let app = small_app();
        let program = app.generate_program();
        let path = ExecutionPath::generate(&program, app.path_seed(), SMOKE_TRACE_LEN);
        let mut assembled = Workbench::try_assemble(&app, program, path, DEFAULT_STREAM_WINDOW)
            .expect("clean parts assemble");
        let mut oracle = Workbench::try_new(&app, SMOKE_TRACE_LEN).expect("workbench");
        oracle.set_engine(SimEngine::Reference);
        for point in [DesignPoint::baseline(), DesignPoint::critic()] {
            assert_eq!(
                assembled.run(&point),
                oracle.run(&point),
                "{}",
                point.label()
            );
        }
        let (seed, point) = (app.path_seed(), DesignPoint::hoist());
        assert_eq!(
            assembled
                .try_run_validated(&point, seed)
                .expect("validated"),
            oracle.try_run_validated(&point, seed).expect("validated")
        );
        let stats = assembled.store.stats();
        assert_eq!(stats.worlds_built + stats.cones_built, 0, "{stats:?}");

        // A path that leaves the program is a typed error, not a panic.
        let program = app.generate_program();
        let mut stray = ExecutionPath::generate(&program, app.path_seed(), 100);
        stray.blocks.push(BlockId(program.blocks.len() as u32));
        assert!(matches!(
            Workbench::try_assemble(&app, program, stray, 64),
            Err(RunError::Trace(_))
        ));
    }

    /// Passes mint uids from `Program::uid_bound` and variant faults mint
    /// none, so every scheme's variant of every Mobile app is still a
    /// valid program, its uids dense.
    #[test]
    fn every_schemes_variant_keeps_uids_dense() {
        for app in Suite::Mobile.apps() {
            let mut bench = Workbench::try_new(&app, SMOKE_TRACE_LEN).expect("workbench");
            for scheme in crate::campaign::default_schemes() {
                let (variant, _) = bench
                    .try_variant(&scheme.point.software)
                    .expect("variant builds");
                assert_eq!(variant.validate(), Ok(()), "{} {}", app.name, scheme.name);
            }
        }
    }

    /// A uid far above the program on an executed load is a typed program
    /// error at assembly: nothing downstream sizes a per-uid table by it.
    #[test]
    fn far_uid_on_an_executed_load_is_a_program_error() {
        use critic_workloads::{InsnRef, InsnUid, ProgramError};
        let app = small_app();
        let mut program = app.generate_program();
        let path = ExecutionPath::generate(&program, app.path_seed(), SMOKE_TRACE_LEN);
        let far = InsnUid(0xF000_0000);
        let at = path
            .blocks
            .iter()
            .find_map(|&block| {
                let index = program
                    .block(block)
                    .insns
                    .iter()
                    .position(|t| t.insn.op().is_load())?;
                Some(InsnRef::new(block, index as u32))
            })
            .expect("the path executes a load");
        program.block_mut(at.block).insns[at.index as usize].uid = far;
        assert!(matches!(
            Workbench::try_assemble(&app, program, path, DEFAULT_STREAM_WINDOW),
            Err(RunError::Program(ProgramError::UidOutOfRange { uid, .. })) if uid == far
        ));
    }

    /// A workbench's data-oriented runs, profiles and validation build no
    /// world and no cone. The first call that needs the materialized trace
    /// (a trace accessor or a reference-engine baseline) builds exactly one
    /// world, and the workbench keeps it for every later call.
    #[test]
    fn try_new_builds_a_world_only_for_the_materialized_trace() {
        let app = small_app();
        for accessor_first in [true, false] {
            let mut bench = Workbench::try_new(&app, SMOKE_TRACE_LEN).expect("workbench");
            bench.run(&DesignPoint::baseline());
            bench.run(&DesignPoint::critic());
            bench
                .try_run_validated(&DesignPoint::hoist(), app.path_seed())
                .expect("validated");
            let stats = bench.store.stats();
            assert_eq!(stats.worlds_built + stats.cones_built, 0, "{stats:?}");
            if accessor_first {
                assert!(!bench.baseline_trace().is_empty());
            } else {
                bench.set_engine(SimEngine::Reference);
                bench.run(&DesignPoint::baseline());
            }
            assert_eq!(bench.store.stats().worlds_built, 1);
            bench.set_engine(SimEngine::Reference);
            bench.run(&DesignPoint::double_fd());
            assert!(!bench.baseline_fanout().is_empty());
            let stats = bench.store.stats();
            assert_eq!((stats.worlds_built, stats.worlds_hit), (1, 0), "{stats:?}");
        }
    }

    /// The reference engine covers baselines too: a store-backed workbench
    /// on `SimEngine::Reference` runs each baseline through the scalar
    /// oracle and asks the store for no data-oriented baseline.
    #[test]
    fn reference_engine_runs_baselines_through_the_scalar_oracle() {
        let app = small_app();
        let store = Arc::new(ArtifactStore::new());
        let world = store.world(&app, SMOKE_TRACE_LEN).expect("world");
        let mut bench = Workbench::from_world(&app, Arc::clone(&world), Arc::clone(&store));
        bench.set_engine(SimEngine::Reference);
        let points = [DesignPoint::baseline(), DesignPoint::double_fd()];
        let outcomes: Vec<RunOutcome> = points.iter().map(|p| bench.run(p)).collect();
        assert_eq!(store.stats().baselines_built, 0, "{:?}", store.stats());
        for (point, outcome) in points.iter().zip(&outcomes) {
            let simulator = Simulator::new(point.cpu_config(), point.mem_config());
            let (reference, _) = simulator.run_reference(&world.trace, &world.fanout);
            assert_eq!(outcome.sim, reference, "{}", point.label());
        }
        // The store's data-oriented baselines agree with the oracle's.
        bench.set_engine(SimEngine::DataOriented);
        for (point, outcome) in points.iter().zip(&outcomes) {
            assert_eq!(&bench.run(point), outcome, "{}", point.label());
        }
        assert_eq!(store.stats().baselines_built, 2);
    }
}
