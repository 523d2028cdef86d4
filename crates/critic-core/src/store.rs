//! Campaign-wide content-addressed artifact store.
//!
//! A campaign grid shares enormous amounts of work between cells: every
//! cell of one app regenerates the same program, re-records the same
//! execution path, re-expands the same trace, recomputes the same fanout
//! vectors, rebuilds the same profiles, and re-simulates the same baseline.
//! The store memoizes those stages *across* cells so each artifact is
//! computed exactly once per campaign:
//!
//! * a [`Recording`] (program + path, no trace) and a [`World`] (the
//!   recording plus its expanded trace and fanout) are keyed by the app
//!   spec's content hash and the trace length;
//! * a ROB-cone fanout vector is keyed by the world (it is profiler-config
//!   independent);
//! * a [`Profile`] is keyed by the world plus the profiler configuration;
//! * a baseline [`RunOutcome`] is keyed by the world plus the CPU and
//!   memory configurations it was simulated under.
//!
//! Concurrency uses a per-key slot: the key map is held only long enough
//! to clone out an `Arc` to the key's slot, and the computation runs under
//! the *slot's* lock — so two cells needing different artifacts never block
//! each other, and two cells needing the same artifact compute it once
//! (the second blocks until the first finishes, then shares the result).
//! A failed computation leaves the slot empty: errors are never cached, so
//! a faulted or cancelled attempt cannot poison siblings, and a retry
//! recomputes from scratch.
//!
//! # Streamed cells
//!
//! A streamed cell never needs the trace: everything it consumes is
//! re-expanded window by window from `(program, path)`. It asks for the
//! app's [`Recording`] instead of its [`World`], and for profiles and
//! baselines through the streamed builders ([`ArtifactStore::profile_streamed`],
//! [`ArtifactStore::baseline_streamed`]). Those fill the *same* memo slots
//! and disk keys as their materialized twins — sound because the two
//! builds are bit-identical — so a store warmed in one mode serves the
//! other, and a streamed campaign holds O(static program + path) per app
//! instead of O(trace).
//!
//! # The persistent tier
//!
//! [`ArtifactStore::persistent`] adds a disk tier ([`DiskStore`]) under
//! the in-memory memo: profiles and baseline outcomes — the two classes
//! whose builds dominate campaign time and whose values serialize
//! losslessly — are saved on build and consulted on every in-memory miss,
//! so a *restarted* campaign (fresh process, same `--store-dir`) is warm
//! from its first cell. Disk keys come from [`stable_key`] — a versioned,
//! canonical binary encoding of the serialized value — so they survive
//! field reordering, process restarts, and struct derive churn, unlike the
//! `Debug`-format hash this replaced. Disk entries are checksummed; a
//! corrupt or torn entry is quarantined and rebuilt, never trusted and
//! never fatal.

use std::collections::HashMap;
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use critic_compiler::BaselineExecution;
use critic_energy::EnergyModel;
use critic_obs::{EventKind, Telemetry};
use critic_pipeline::{SimResult, Simulator, StreamScratch};
use critic_profiler::{Profile, Profiler, ProfilerConfig};
use critic_workloads::{
    validate_stream, AppSpec, ExecutionPath, Program, StreamConfig, SysFault, SysInjector, SysOp,
    Trace, TraceStream, DEFAULT_LOOKAHEAD,
};
use serde::{Deserialize, Serialize};

use crate::design::DesignPoint;
use crate::disk::{ArtifactClass, DiskStore, DiskStoreStats, StoreError};
use crate::error::RunError;
use crate::keys::stable_key;
use crate::runner::RunOutcome;

/// Identity of one generated world: app content hash × trace length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorldKey {
    app: u64,
    trace_len: usize,
}

impl WorldKey {
    /// The key for `app` at `trace_len` dynamic instructions. The app
    /// component is a [`stable_key`]: canonical (field-order independent)
    /// and versioned, so it identifies the same content across processes.
    pub fn new(app: &AppSpec, trace_len: usize) -> WorldKey {
        WorldKey {
            app: stable_key(app),
            trace_len,
        }
    }

    /// The requested trace length.
    pub fn trace_len(&self) -> usize {
        self.trace_len
    }
}

/// The trace-free part of a [`World`]: the checked binary and the recorded
/// input. Streamed cells need nothing more, so a streamed campaign holds
/// this per app instead of the O(trace) world.
#[derive(Debug)]
pub struct Recording {
    /// The store key this recording was built under (shared with the
    /// app's world).
    pub key: WorldKey,
    /// The original (baseline) binary.
    pub program: Arc<Program>,
    /// The recorded block-level input.
    pub path: Arc<ExecutionPath>,
}

/// Everything deterministic generation produces for one app: the binary,
/// the recorded input, the expanded baseline trace, and its direct-fanout
/// vector. Shared read-only between every cell of the app.
#[derive(Debug)]
pub struct World {
    /// The store key this world was built under.
    pub key: WorldKey,
    /// The original (baseline) binary.
    pub program: Arc<Program>,
    /// The recorded block-level input.
    pub path: Arc<ExecutionPath>,
    /// The baseline dynamic trace.
    pub trace: Arc<Trace>,
    /// `trace.compute_fanout()`, computed once at build time.
    pub fanout: Arc<Vec<u32>>,
}

/// A single-key memoization slot map. See the module docs for the locking
/// discipline; `lock_clean` recovers from poisoning because a panic inside
/// a computation leaves the slot value `None` (the value is only written on
/// success), so the slot is still in a consistent "recompute me" state.
/// One artifact's slot: taken for the duration of its (single) build,
/// then holding the shared value.
type Slot<V> = Arc<Mutex<Option<Arc<V>>>>;

struct Memo<K, V> {
    map: Mutex<HashMap<K, Slot<V>>>,
    computed: AtomicU64,
    hits: AtomicU64,
    build_nanos: AtomicU64,
}

fn lock_clean<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<K: Eq + Hash + Clone, V> Memo<K, V> {
    fn new() -> Memo<K, V> {
        Memo {
            map: Mutex::new(HashMap::new()),
            computed: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            build_nanos: AtomicU64::new(0),
        }
    }

    /// Returns the cached value for `key`, or computes it with `build`.
    /// Exactly one caller computes; concurrent callers for the same key
    /// block on the slot and share the result. `Err` is never cached.
    fn get_or_try_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let slot = {
            let mut map = lock_clean(&self.map);
            Arc::clone(map.entry(key).or_default())
        };
        let mut guard = lock_clean(&slot);
        if let Some(value) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(value));
        }
        let start = std::time::Instant::now();
        let value = Arc::new(build()?);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        *guard = Some(Arc::clone(&value));
        self.computed.fetch_add(1, Ordering::Relaxed);
        self.build_nanos.fetch_add(nanos, Ordering::Relaxed);
        Ok(value)
    }

    /// The cached value for `key`, if one is resident and not being
    /// (re)built right now. Never blocks on a slot and counts nothing, so
    /// one memo's build may consult another's.
    fn peek(&self, key: &K) -> Option<Arc<V>> {
        let slot = lock_clean(&self.map).get(key).map(Arc::clone)?;
        let value = slot.try_lock().ok()?.as_ref().map(Arc::clone);
        value
    }
}

/// Generates `app`'s binary and its `trace_len`-instruction input, with
/// the binary checked structurally and for encodability: the part of a
/// world's build its recording shares.
fn generate(app: &AppSpec, trace_len: usize) -> Result<(Program, ExecutionPath), RunError> {
    let program = app.generate_program();
    // Validate before walking the CFG: path generation indexes blocks by id.
    program.validate()?;
    let path = ExecutionPath::generate(&program, app.path_seed(), trace_len);
    program.validate_encoding()?;
    Ok((program, path))
}

/// The stream a profile folds: `window`-entry windows with the cone
/// fanout at the profiler's ROB horizon (the Table I ROB size, as for
/// [`ArtifactStore::cone_fanout`]).
pub(crate) fn profile_stream<'a>(
    program: &'a Program,
    path: &'a ExecutionPath,
    window: usize,
) -> TraceStream<'a> {
    let config = StreamConfig {
        window,
        lookahead: DEFAULT_LOOKAHEAD,
        cone_window: Some(128),
    };
    TraceStream::new(program, path, config)
}

/// Counters describing what a store computed and what it served from
/// cache; the memoization-correctness tests, the telemetry layer, and the
/// repository benchmark read these to prove each artifact was built
/// exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Recordings built (program + path, trace checked as a stream).
    /// Absent in records written before recordings existed.
    #[serde(default)]
    pub recordings_built: u64,
    /// Worlds generated (program + path + trace + fanout).
    pub worlds_built: u64,
    /// ROB-cone fanout vectors computed.
    pub cones_built: u64,
    /// Profiles built.
    pub profiles_built: u64,
    /// Baseline simulations run.
    pub baselines_built: u64,
    /// Baseline oracle executions captured (for translation validation).
    pub baseline_execs_built: u64,
    /// Recording requests served from cache.
    #[serde(default)]
    pub recordings_hit: u64,
    /// World requests served from cache.
    pub worlds_hit: u64,
    /// Cone-fanout requests served from cache.
    pub cones_hit: u64,
    /// Profile requests served from cache.
    pub profiles_hit: u64,
    /// Baseline-simulation requests served from cache.
    pub baselines_hit: u64,
    /// Baseline-execution requests served from cache.
    pub baseline_execs_hit: u64,
    /// Requests served from cache across all artifact classes.
    pub hits: u64,
    /// Wall-clock nanoseconds spent inside build closures (cache misses).
    pub build_nanos: u64,
    /// The persistent tier's counters, when the store has one. Absent for
    /// in-memory stores and in records written before the disk tier
    /// existed, so old journals still parse.
    pub disk: Option<DiskStoreStats>,
}

impl StoreStats {
    /// Total artifacts built across every class.
    pub fn built(&self) -> u64 {
        self.recordings_built
            + self.worlds_built
            + self.cones_built
            + self.profiles_built
            + self.baselines_built
            + self.baseline_execs_built
    }

    /// Total requests (builds + cache hits) across every class.
    pub fn requests(&self) -> u64 {
        self.built() + self.hits
    }

    /// Fraction of requests served from cache, 0 when the store is idle.
    pub fn hit_rate(&self) -> f64 {
        let requests = self.requests();
        if requests == 0 {
            0.0
        } else {
            self.hits as f64 / requests as f64
        }
    }

    /// Milliseconds spent building artifacts (cache misses only).
    pub fn build_millis(&self) -> f64 {
        self.build_nanos as f64 / 1e6
    }
}

/// The campaign-wide artifact store. Cheap to share: wrap in an [`Arc`]
/// and clone the handle into every worker.
pub struct ArtifactStore {
    recordings: Memo<WorldKey, Recording>,
    worlds: Memo<WorldKey, World>,
    cones: Memo<WorldKey, Vec<u32>>,
    profiles: Memo<(WorldKey, u64), Profile>,
    baselines: Memo<(WorldKey, u64), RunOutcome>,
    baseline_execs: Memo<(WorldKey, u64), BaselineExecution>,
    /// Chaos tap: when armed, every public store request advances the
    /// injector's `StoreRequest` counter and may fail with an injected
    /// I/O error. `None` (the default) is a branch and nothing more.
    injector: Mutex<Option<Arc<SysInjector>>>,
    /// The persistent tier; `None` for a purely in-memory store.
    disk: Option<DiskStore>,
    /// Sink for durability events (and absorbed disk chaos faults).
    telemetry: Telemetry,
}

impl Default for ArtifactStore {
    fn default() -> ArtifactStore {
        ArtifactStore::new()
    }
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ArtifactStore({:?})", self.stats())
    }
}

impl ArtifactStore {
    /// An empty in-memory store.
    pub fn new() -> ArtifactStore {
        ArtifactStore {
            recordings: Memo::new(),
            worlds: Memo::new(),
            cones: Memo::new(),
            profiles: Memo::new(),
            baselines: Memo::new(),
            baseline_execs: Memo::new(),
            injector: Mutex::new(None),
            disk: None,
            telemetry: Telemetry::off(),
        }
    }

    /// A store with a persistent tier rooted at `dir` (created if absent),
    /// bounded to `budget` bytes of entries (`None` = unbounded, LRU
    /// eviction otherwise). Profiles and baseline outcomes spill to disk
    /// on build and are served from disk on in-memory misses, so a fresh
    /// process over the same directory restarts warm. Durability events
    /// (evictions, quarantines) land on `telemetry`.
    pub fn persistent(
        dir: &Path,
        budget: Option<u64>,
        telemetry: Telemetry,
    ) -> Result<ArtifactStore, StoreError> {
        let disk = DiskStore::open(dir, budget)?;
        disk.set_telemetry(telemetry.clone());
        let mut store = ArtifactStore::new();
        store.disk = Some(disk);
        store.telemetry = telemetry;
        Ok(store)
    }

    /// Direct access to the persistent tier, when the store has one (the
    /// chaos drill uses it to corrupt entries in place).
    pub fn disk(&self) -> Option<&DiskStore> {
        self.disk.as_ref()
    }

    /// Arms (or clears) the systemic-fault injector consulted on every
    /// public store request. The campaign runner arms it for the duration
    /// of a chaos run and clears it afterwards, so a store outlives the
    /// faults injected into one campaign.
    pub fn set_sys_injector(&self, injector: Option<Arc<SysInjector>>) {
        *lock_clean(&self.injector) = injector;
    }

    /// The chaos tap on the store's request path: advances the injector's
    /// `StoreRequest` counter and fails the request when a store fault
    /// fires at this index. Faults are consume-once, so the retry that
    /// follows observes a healed store.
    fn sys_tap(&self) -> Result<(), RunError> {
        let injector = lock_clean(&self.injector).clone();
        if let Some(injector) = injector {
            for fault in injector.advance_or_crash(SysOp::StoreRequest) {
                if matches!(fault, SysFault::StoreRead | SysFault::StoreWrite) {
                    return Err(RunError::Sys(fault));
                }
            }
        }
        Ok(())
    }

    /// The chaos tap on the persistent tier: advances the injector's
    /// `DiskRequest` counter once per disk operation. Disk faults are
    /// *absorbed*, never errors — a failed read is a miss (rebuild), a
    /// failed write is a skipped save, a corruption lands in the entry for
    /// the checksum layer to quarantine — because that is the store's real
    /// contract with a flaky filesystem. Returns
    /// `(skip_read, skip_write, corrupt)`.
    fn disk_tap(&self) -> (bool, bool, bool) {
        let (mut skip_read, mut skip_write, mut corrupt) = (false, false, false);
        let injector = lock_clean(&self.injector).clone();
        if let Some(injector) = injector {
            for fault in injector.advance_or_crash(SysOp::DiskRequest) {
                self.telemetry.event(EventKind::SysFault);
                match fault {
                    SysFault::DiskRead => skip_read = true,
                    SysFault::DiskWrite => skip_write = true,
                    SysFault::DiskCorrupt => corrupt = true,
                    _ => {}
                }
            }
        }
        (skip_read, skip_write, corrupt)
    }

    /// Loads one artifact from the persistent tier, if present and intact.
    /// Every failure mode — missing entry, injected read fault, I/O error,
    /// checksum mismatch (quarantined inside [`DiskStore::load`]) — is a
    /// miss: the caller rebuilds.
    fn disk_load<T: serde::Deserialize>(&self, class: ArtifactClass, key: u64) -> Option<T> {
        let disk = self.disk.as_ref()?;
        let (skip_read, _, corrupt) = self.disk_tap();
        if corrupt {
            let _ = disk.corrupt_entry(class, key);
        }
        if skip_read {
            return None;
        }
        match disk.load(class, key) {
            Ok(Some(bytes)) => {
                let text = String::from_utf8(bytes).ok()?;
                serde_json::from_str(&text).ok()
            }
            // A miss, a quarantined entry, or an I/O error (all counted in
            // the disk stats): rebuild.
            _ => None,
        }
    }

    /// Saves one artifact to the persistent tier, best-effort: a failed
    /// save costs a future rebuild, never the current cell.
    fn disk_save<T: serde::Serialize>(&self, class: ArtifactClass, key: u64, value: &T) {
        let Some(disk) = self.disk.as_ref() else {
            return;
        };
        let (_, skip_write, _) = self.disk_tap();
        if skip_write {
            return;
        }
        if let Ok(json) = serde_json::to_string(value) {
            let _ = disk.save(class, key, json.as_bytes());
        }
    }

    /// The disk key for one artifact: class name folded with the world
    /// identity and the configuration's stable key, all through the
    /// canonical encoder, so the same logical artifact maps to the same
    /// file across processes and derive reorderings.
    fn disk_key(&self, class: ArtifactClass, key: WorldKey, config_key: u64) -> Option<u64> {
        self.disk.as_ref()?;
        Some(stable_key(&(
            class.name(),
            key.app,
            key.trace_len as u64,
            config_key,
        )))
    }

    /// The memoized, disk-backed artifact of `class` for `(key,
    /// config_key)`: served from memory, else from disk, else built with
    /// `build` and saved. The slot and the disk key name only the world and
    /// the configuration, never how the value is built, so the materialized
    /// and streamed builders share them.
    fn durable<V: Serialize + serde::Deserialize>(
        &self,
        memo: &Memo<(WorldKey, u64), V>,
        class: ArtifactClass,
        key: WorldKey,
        config_key: u64,
        build: impl FnOnce() -> Result<V, RunError>,
    ) -> Result<Arc<V>, RunError> {
        self.sys_tap()?;
        let disk_key = self.disk_key(class, key, config_key);
        memo.get_or_try_build((key, config_key), || {
            if let Some(disk_key) = disk_key {
                if let Some(value) = self.disk_load::<V>(class, disk_key) {
                    return Ok(value);
                }
            }
            let value = build()?;
            if let Some(disk_key) = disk_key {
                self.disk_save(class, disk_key, &value);
            }
            Ok(value)
        })
    }

    /// The recording for `app` at `trace_len`, built at most once.
    ///
    /// The program is checked as for a world, and the trace check runs
    /// entry by entry over a stream ([`validate_stream`]), so a recording
    /// is as checked as a world without its trace ever being resident.
    /// When the app's world is already resident its parts are shared
    /// instead: its trace passed the same check materialized.
    pub fn recording(&self, app: &AppSpec, trace_len: usize) -> Result<Arc<Recording>, RunError> {
        self.sys_tap()?;
        let key = WorldKey::new(app, trace_len);
        self.recordings.get_or_try_build(key, || {
            if let Some(world) = self.worlds.peek(&key) {
                return Ok(Recording {
                    key,
                    program: Arc::clone(&world.program),
                    path: Arc::clone(&world.path),
                });
            }
            let (program, path) = generate(app, trace_len)?;
            validate_stream(
                &program,
                &mut TraceStream::new(&program, &path, StreamConfig::default()),
            )?;
            Ok(Recording {
                key,
                program: Arc::new(program),
                path: Arc::new(path),
            })
        })
    }

    /// The world for `app` at `trace_len`, generated at most once.
    ///
    /// Generation and validation mirror `Workbench::try_new` exactly, so a
    /// store-backed cell fails with the same typed error a store-less cell
    /// would. A resident recording of the app lends its (already checked)
    /// program and path; the trace is still expanded and checked once.
    pub fn world(&self, app: &AppSpec, trace_len: usize) -> Result<Arc<World>, RunError> {
        self.sys_tap()?;
        let key = WorldKey::new(app, trace_len);
        self.worlds.get_or_try_build(key, || {
            let (program, path) = match self.recordings.peek(&key) {
                Some(recording) => (Arc::clone(&recording.program), Arc::clone(&recording.path)),
                None => {
                    let (program, path) = generate(app, trace_len)?;
                    (Arc::new(program), Arc::new(path))
                }
            };
            let trace = Trace::expand(&program, &path);
            trace.validate(&program)?;
            let fanout = trace.compute_fanout();
            Ok(World {
                key,
                program,
                path,
                trace: Arc::new(trace),
                fanout: Arc::new(fanout),
            })
        })
    }

    /// The ROB-cone fanout vector of a world's baseline trace (horizon =
    /// the Table I ROB size), computed at most once; every profiler
    /// configuration shares it.
    pub fn cone_fanout(&self, world: &World) -> Arc<Vec<u32>> {
        let result: Result<Arc<Vec<u32>>, RunError> = self
            .cones
            .get_or_try_build(world.key, || Ok(world.trace.compute_cone_fanout(128)));
        match result {
            Ok(cone) => cone,
            Err(never) => unreachable!("infallible cone build failed: {never}"),
        }
    }

    /// The profile of a world under `config`, built at most once per
    /// distinct configuration.
    pub fn profile(
        &self,
        world: &World,
        config: &ProfilerConfig,
    ) -> Result<Arc<Profile>, RunError> {
        self.durable(
            &self.profiles,
            ArtifactClass::Profile,
            world.key,
            stable_key(config),
            || {
                let cone = self.cone_fanout(world);
                // The world's program/trace pair was validated when the world
                // was built, so the per-config re-validation walk is skipped.
                Ok(Profiler::new(config.clone()).build_profile_prevalidated(
                    &world.program,
                    &world.trace,
                    &cone,
                ))
            },
        )
    }

    /// [`ArtifactStore::profile`] built from a recording: the chain
    /// statistics are folded over a cone-enabled stream of `window`-entry
    /// windows, bit-identical to the materialized build, into the same
    /// memo slot and disk key.
    pub fn profile_streamed(
        &self,
        recording: &Recording,
        config: &ProfilerConfig,
        window: usize,
    ) -> Result<Arc<Profile>, RunError> {
        self.durable(
            &self.profiles,
            ArtifactClass::Profile,
            recording.key,
            stable_key(config),
            || {
                let mut stream = profile_stream(&recording.program, &recording.path, window);
                // The recording's program was validated when it was built.
                Ok(Profiler::new(config.clone())
                    .build_profile_streamed_prevalidated(&recording.program, &mut stream))
            },
        )
    }

    /// The baseline run outcome of a world under `point`'s hardware
    /// configuration, simulated at most once. `point`'s software must be
    /// the baseline binary (the world's own trace is simulated as-is).
    pub fn baseline(
        &self,
        world: &World,
        point: &DesignPoint,
    ) -> Result<Arc<RunOutcome>, RunError> {
        self.baseline_from(world.key, point, |simulator| {
            let sim = simulator.run(&world.trace, &world.fanout);
            (sim, world.trace.thumb_fraction(), world.trace.len())
        })
    }

    /// [`ArtifactStore::baseline`] built from a recording: the baseline is
    /// simulated over a stream of `window`-entry windows, bit-identical to
    /// the materialized run, into the same memo slot and disk key.
    pub fn baseline_streamed(
        &self,
        recording: &Recording,
        point: &DesignPoint,
        window: usize,
    ) -> Result<Arc<RunOutcome>, RunError> {
        self.baseline_from(recording.key, point, |simulator| {
            let mut stream = TraceStream::new(
                &recording.program,
                &recording.path,
                StreamConfig::with_window(window),
            );
            let (sim, _, _) = simulator.run_streamed(&mut stream, &mut StreamScratch::new());
            // The run drained the stream, so these read back exactly what
            // the materialized trace reports.
            (sim, stream.thumb_fraction(), stream.total_len())
        })
    }

    /// The shared body of the baseline builders: `run` simulates the
    /// baseline and returns `(result, thumb fraction, dynamic length)`.
    fn baseline_from(
        &self,
        key: WorldKey,
        point: &DesignPoint,
        run: impl FnOnce(&Simulator) -> (SimResult, f64, usize),
    ) -> Result<Arc<RunOutcome>, RunError> {
        let cpu = point.cpu_config();
        let mem = point.mem_config();
        let config_key = stable_key(&(&cpu, &mem));
        self.durable(
            &self.baselines,
            ArtifactClass::Baseline,
            key,
            config_key,
            || {
                let (sim, thumb_dyn_frac, dyn_insns) = run(&Simulator::new(cpu, mem));
                let energy = EnergyModel::default().evaluate(&sim);
                Ok(RunOutcome {
                    design: point.label(),
                    thumb_dyn_frac,
                    dyn_insns,
                    sim,
                    energy,
                    pass: Default::default(),
                })
            },
        )
    }

    /// The captured baseline oracle execution of a world under `seed`,
    /// interpreted at most once; every validated scheme of the app replays
    /// its variants against it.
    pub fn baseline_execution(
        &self,
        world: &World,
        seed: u64,
    ) -> Result<Arc<BaselineExecution>, RunError> {
        self.capture(world.key, &world.program, &world.path, seed)
    }

    /// [`ArtifactStore::baseline_execution`] of a recording: the capture
    /// needs only the program and the path, and shares the world's slot.
    pub fn recorded_baseline_execution(
        &self,
        recording: &Recording,
        seed: u64,
    ) -> Result<Arc<BaselineExecution>, RunError> {
        self.capture(recording.key, &recording.program, &recording.path, seed)
    }

    fn capture(
        &self,
        key: WorldKey,
        program: &Program,
        path: &ExecutionPath,
        seed: u64,
    ) -> Result<Arc<BaselineExecution>, RunError> {
        self.sys_tap()?;
        self.baseline_execs.get_or_try_build((key, seed), || {
            BaselineExecution::capture(program, path, seed)
                .map_err(|e| RunError::Validation(e.to_string()))
        })
    }

    /// Snapshot of the build/hit counters.
    pub fn stats(&self) -> StoreStats {
        let recordings_hit = self.recordings.hits.load(Ordering::Relaxed);
        let worlds_hit = self.worlds.hits.load(Ordering::Relaxed);
        let cones_hit = self.cones.hits.load(Ordering::Relaxed);
        let profiles_hit = self.profiles.hits.load(Ordering::Relaxed);
        let baselines_hit = self.baselines.hits.load(Ordering::Relaxed);
        let baseline_execs_hit = self.baseline_execs.hits.load(Ordering::Relaxed);
        StoreStats {
            recordings_built: self.recordings.computed.load(Ordering::Relaxed),
            worlds_built: self.worlds.computed.load(Ordering::Relaxed),
            cones_built: self.cones.computed.load(Ordering::Relaxed),
            profiles_built: self.profiles.computed.load(Ordering::Relaxed),
            baselines_built: self.baselines.computed.load(Ordering::Relaxed),
            baseline_execs_built: self.baseline_execs.computed.load(Ordering::Relaxed),
            recordings_hit,
            worlds_hit,
            cones_hit,
            profiles_hit,
            baselines_hit,
            baseline_execs_hit,
            hits: recordings_hit
                + worlds_hit
                + cones_hit
                + profiles_hit
                + baselines_hit
                + baseline_execs_hit,
            build_nanos: self.recordings.build_nanos.load(Ordering::Relaxed)
                + self.worlds.build_nanos.load(Ordering::Relaxed)
                + self.cones.build_nanos.load(Ordering::Relaxed)
                + self.profiles.build_nanos.load(Ordering::Relaxed)
                + self.baselines.build_nanos.load(Ordering::Relaxed)
                + self.baseline_execs.build_nanos.load(Ordering::Relaxed),
            disk: self.disk.as_ref().map(DiskStore::stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use critic_workloads::Suite;

    use super::*;

    fn small_app(index: usize) -> AppSpec {
        let mut app = Suite::Mobile.apps()[index].clone();
        app.params.num_functions = 24;
        app
    }

    #[test]
    fn memo_computes_once_and_then_hits() {
        let memo: Memo<u32, u32> = Memo::new();
        let calls = AtomicUsize::new(0);
        for _ in 0..3 {
            let v = memo
                .get_or_try_build(7, || -> Result<u32, RunError> {
                    calls.fetch_add(1, Ordering::Relaxed);
                    Ok(42)
                })
                .expect("build succeeds");
            assert_eq!(*v, 42);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(memo.computed.load(Ordering::Relaxed), 1);
        assert_eq!(memo.hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn memo_does_not_cache_errors() {
        let memo: Memo<u32, u32> = Memo::new();
        let err = memo.get_or_try_build(1, || Err(RunError::Inject("boom".into())));
        assert!(err.is_err());
        // The failed slot must recompute, not replay the error.
        let ok = memo.get_or_try_build(1, || -> Result<u32, RunError> { Ok(9) });
        assert_eq!(*ok.expect("retry succeeds"), 9);
    }

    #[test]
    fn memo_survives_a_panicking_build() {
        let memo = Arc::new(Memo::<u32, u32>::new());
        let inner = Arc::clone(&memo);
        let panicked = std::thread::spawn(move || {
            let _ = inner.get_or_try_build(5, || -> Result<u32, RunError> {
                panic!("injected build panic")
            });
        })
        .join();
        assert!(panicked.is_err(), "the build must have panicked");
        // The poisoned slot self-heals: the value was never written, so the
        // next caller recomputes.
        let v = memo
            .get_or_try_build(5, || -> Result<u32, RunError> { Ok(11) })
            .expect("recompute succeeds");
        assert_eq!(*v, 11);
    }

    #[test]
    fn concurrent_world_requests_build_once() {
        let store = Arc::new(ArtifactStore::new());
        let app = small_app(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let store = Arc::clone(&store);
                let app = app.clone();
                scope.spawn(move || {
                    let world = store.world(&app, 6_000).expect("world builds");
                    assert_eq!(world.fanout.len(), world.trace.len());
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.worlds_built, 1, "{stats:?}");
        assert_eq!(stats.hits, 3, "{stats:?}");
    }

    #[test]
    fn distinct_keys_get_distinct_artifacts() {
        let store = ArtifactStore::new();
        let a = store.world(&small_app(0), 6_000).expect("world a");
        let b = store.world(&small_app(1), 6_000).expect("world b");
        let a_short = store.world(&small_app(0), 3_000).expect("world a short");
        assert_ne!(a.key, b.key);
        assert_ne!(a.key, a_short.key);
        assert_eq!(store.stats().worlds_built, 3);
        // Same app + length hits the cache.
        let again = store.world(&small_app(0), 6_000).expect("cached world");
        assert!(Arc::ptr_eq(&a.program, &again.program));
    }

    #[test]
    fn profiles_and_baselines_are_shared_per_config() {
        let store = ArtifactStore::new();
        let world = store.world(&small_app(0), 8_000).expect("world");
        let p1 = store
            .profile(&world, &ProfilerConfig::default())
            .expect("profile");
        let p2 = store
            .profile(&world, &ProfilerConfig::default())
            .expect("profile again");
        assert!(Arc::ptr_eq(&p1, &p2));
        let ideal = store
            .profile(&world, &ProfilerConfig::ideal())
            .expect("ideal profile");
        assert!(!Arc::ptr_eq(&p1, &ideal));
        let b1 = store
            .baseline(&world, &DesignPoint::baseline())
            .expect("baseline");
        let b2 = store
            .baseline(&world, &DesignPoint::baseline())
            .expect("baseline again");
        assert!(Arc::ptr_eq(&b1, &b2));
        let stats = store.stats();
        assert_eq!(stats.profiles_built, 2, "{stats:?}");
        assert_eq!(stats.cones_built, 1, "cone shared across configs");
        assert_eq!(stats.baselines_built, 1, "{stats:?}");
    }

    #[test]
    fn per_class_counters_partition_the_totals() {
        let store = ArtifactStore::new();
        let world = store.world(&small_app(0), 6_000).expect("world");
        let _ = store.world(&small_app(0), 6_000).expect("cached world");
        let _ = store
            .profile(&world, &ProfilerConfig::default())
            .expect("profile");
        let _ = store
            .profile(&world, &ProfilerConfig::default())
            .expect("cached profile");
        let stats = store.stats();
        assert_eq!(stats.worlds_hit, 1, "{stats:?}");
        assert_eq!(stats.profiles_hit, 1, "{stats:?}");
        assert_eq!(
            stats.hits,
            stats.recordings_hit
                + stats.worlds_hit
                + stats.cones_hit
                + stats.profiles_hit
                + stats.baselines_hit
                + stats.baseline_execs_hit,
            "the rollup must equal the per-class sum"
        );
        assert_eq!(stats.built(), 3, "world + cone + profile, {stats:?}");
        assert_eq!(stats.requests(), stats.built() + stats.hits);
        assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);
        assert!(stats.build_nanos > 0, "builds take measurable time");
        assert!(stats.disk.is_none(), "in-memory store has no disk tier");
    }

    #[test]
    fn recordings_build_once_and_share_parts_with_the_world() {
        let store = ArtifactStore::new();
        let app = small_app(0);
        let recording = store.recording(&app, 6_000).expect("recording");
        let again = store.recording(&app, 6_000).expect("cached recording");
        assert!(Arc::ptr_eq(&recording, &again));
        let stats = store.stats();
        assert_eq!(stats.recordings_built, 1, "{stats:?}");
        assert_eq!(stats.recordings_hit, 1, "{stats:?}");
        assert_eq!(stats.worlds_built, 0, "a recording holds no trace");

        // The world borrows the recording's checked parts.
        let world = store.world(&app, 6_000).expect("world");
        assert_eq!(world.key, recording.key);
        assert!(Arc::ptr_eq(&world.program, &recording.program));
        assert!(Arc::ptr_eq(&world.path, &recording.path));

        // And a recording built after a world borrows the world's.
        let other = small_app(1);
        let world = store.world(&other, 6_000).expect("world first");
        let recording = store.recording(&other, 6_000).expect("recording second");
        assert!(Arc::ptr_eq(&world.program, &recording.program));
        assert!(Arc::ptr_eq(&world.path, &recording.path));
    }

    /// The streamed builders fill the materialized twins' slots: whichever
    /// mode asks first builds, the other hits, and the values are equal.
    #[test]
    fn streamed_builders_share_the_materialized_slots() {
        let store = ArtifactStore::new();
        let app = small_app(0);
        let recording = store.recording(&app, 8_000).expect("recording");
        let config = ProfilerConfig::default();
        let point = DesignPoint::baseline();
        let streamed_profile = store
            .profile_streamed(&recording, &config, 512)
            .expect("streamed profile");
        let streamed_base = store
            .baseline_streamed(&recording, &point, 512)
            .expect("streamed baseline");
        let world = store.world(&app, 8_000).expect("world");
        let profile = store.profile(&world, &config).expect("profile");
        let base = store.baseline(&world, &point).expect("baseline");
        assert!(Arc::ptr_eq(&streamed_profile, &profile));
        assert!(Arc::ptr_eq(&streamed_base, &base));
        let stats = store.stats();
        assert_eq!(stats.profiles_built, 1, "{stats:?}");
        assert_eq!(stats.baselines_built, 1, "{stats:?}");
        assert_eq!(stats.cones_built, 0, "{stats:?}");

        // Built fresh in the other mode, the values are bit-identical.
        let fresh = ArtifactStore::new();
        let world = fresh.world(&app, 8_000).expect("world");
        assert_eq!(*fresh.profile(&world, &config).expect("profile"), *profile);
        assert_eq!(*fresh.baseline(&world, &point).expect("baseline"), *base);
    }

    #[test]
    fn stats_without_recording_counters_still_parse() {
        let mut json = serde_json::to_string(&StoreStats::default()).expect("serialise");
        for field in ["recordings_built", "recordings_hit"] {
            json = json.replace(&format!("\"{field}\":0,"), "");
        }
        assert!(!json.contains("recordings"), "{json}");
        let old: StoreStats = serde_json::from_str(&json).expect("old record parses");
        assert_eq!(old, StoreStats::default());
    }

    /// The durable-warm guarantee at store level: a *fresh process* (here,
    /// a fresh store over the same directory) serves profiles and
    /// baselines from disk, bit-identical to what the cold store built.
    #[test]
    fn persistent_store_restarts_warm_and_bit_identical() {
        let dir = std::env::temp_dir().join(format!("critic-store-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = small_app(0);
        let cold = ArtifactStore::persistent(&dir, None, Telemetry::off()).expect("open");
        let world = cold.world(&app, 6_000).expect("world");
        let p_cold = cold
            .profile(&world, &ProfilerConfig::default())
            .expect("profile");
        let b_cold = cold
            .baseline(&world, &DesignPoint::baseline())
            .expect("baseline");
        let cold_disk = cold.stats().disk.expect("disk stats");
        assert_eq!(cold_disk.saves, 2, "{cold_disk:?}");
        assert_eq!(cold_disk.disk_hits, 0, "{cold_disk:?}");
        drop(cold);

        let warm = ArtifactStore::persistent(&dir, None, Telemetry::off()).expect("reopen");
        let world = warm.world(&app, 6_000).expect("world rebuilt");
        let p_warm = warm
            .profile(&world, &ProfilerConfig::default())
            .expect("disk profile");
        let b_warm = warm
            .baseline(&world, &DesignPoint::baseline())
            .expect("disk baseline");
        assert_eq!(*p_cold, *p_warm, "disk round-trip is lossless");
        assert_eq!(*b_cold, *b_warm, "disk round-trip is lossless");
        let warm_disk = warm.stats().disk.expect("disk stats");
        assert_eq!(warm_disk.disk_hits, 2, "{warm_disk:?}");
        assert_eq!(warm_disk.saves, 0, "nothing rebuilt, nothing saved");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
