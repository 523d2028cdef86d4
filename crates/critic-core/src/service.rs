//! The long-lived campaign service behind `critic serve`: bounded
//! admission, a work-stealing worker pool, per-app circuit breakers with
//! half-open probing, a queue-depth degradation ladder, and graceful
//! drain.
//!
//! The robustness invariants, in submission order:
//!
//! 1. **Admission before queueing** — a request is rejected with an
//!    explicit `retry_after` hint ([`SubmitOutcome::Rejected`]) by the
//!    per-client in-flight window ([`ClientWindows`]), the bounded queue
//!    ([`ServiceConfig::queue_capacity`]), or the token bucket
//!    ([`TokenBucket`]) *before* it consumes a queue slot, so sustained
//!    overload sheds load instead of growing memory.
//! 2. **Breakers shed synchronously** — an open per-app breaker
//!    ([`Breaker`]) answers with a journaled `Shed` record without
//!    touching the pool, and lets one deterministic probe cell through
//!    half-open so a recovered app closes its breaker without a restart.
//! 3. **Ack follows fsync** — a cell's journal append (flush + fsync)
//!    completes before its response is handed to the responder, so every
//!    acknowledged result survives a `SIGKILL` (the soak's no-lost-ack
//!    invariant).
//! 4. **Drain terminates** — [`CampaignService::drain`] refuses new work,
//!    waits for queued + in-flight to reach zero (worker jobs are
//!    panic-isolated, so a poisoned job cannot stick the counters), then
//!    checkpoints the journal and appends the store/telemetry trailers.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use critic_obs::{EventKind, SpanKind, Telemetry, TelemetrySnapshot};
use critic_workloads::suite::Suite;
use critic_workloads::{SysFault, SysInjector, SysOp};

use crate::campaign::{
    execute, Cell, CellPolicy, CellRecord, CellStatus, Scheme, SupervisionPolicy,
};
use crate::design::DesignPoint;
use crate::error::RunError;
use crate::journal::Journal;
use crate::lock_clean;
use crate::store::{ArtifactStore, StoreStats};

/// A token bucket over millitoken integers: `capacity` whole tokens of
/// burst, refilled continuously at `rate` tokens per second. One request
/// costs one token (1000 millitokens).
///
/// All state is unsigned and the take is a guarded subtraction, so the
/// level can never go negative — the accounting property the service
/// proptest exercises through [`TokenBucket::try_take_at`].
pub struct TokenBucket {
    capacity_milli: u64,
    nanos_per_milli: u64,
    base: Instant,
    state: Mutex<BucketState>,
}

struct BucketState {
    level_milli: u64,
    last_nanos: u64,
}

impl TokenBucket {
    /// A bucket holding at most `capacity` tokens (clamped to >= 1),
    /// refilled at `rate` tokens/second (clamped to >= 1). Starts full.
    pub fn new(capacity: u64, rate: u64) -> TokenBucket {
        let capacity_milli = capacity.max(1).saturating_mul(1000);
        // Nanoseconds to mint one millitoken; clamped so absurd rates
        // still refill (at most one millitoken per nanosecond).
        let nanos_per_milli = (1_000_000_000u128 / u128::from(rate.max(1)) / 1000)
            .clamp(1, u128::from(u64::MAX)) as u64;
        TokenBucket {
            capacity_milli,
            nanos_per_milli,
            base: Instant::now(),
            state: Mutex::new(BucketState {
                level_milli: capacity_milli,
                last_nanos: 0,
            }),
        }
    }

    /// Takes one token against the wall clock.
    pub fn try_take(&self) -> Result<(), u64> {
        self.try_take_at(self.base.elapsed().as_nanos() as u64)
    }

    /// Takes one token at explicit time `now_nanos` (monotonic; an
    /// out-of-order timestamp refills nothing and is otherwise harmless).
    /// `Err` carries the earliest retry hint in milliseconds (>= 1).
    pub fn try_take_at(&self, now_nanos: u64) -> Result<(), u64> {
        let mut state = lock_clean(&self.state);
        let elapsed = now_nanos.saturating_sub(state.last_nanos);
        let minted = elapsed / self.nanos_per_milli;
        if minted > 0 {
            // Advance by whole millitokens only: the remainder nanoseconds
            // stay banked in `last_nanos`, so refill never loses credit.
            state.last_nanos += minted * self.nanos_per_milli;
            state.level_milli = state
                .level_milli
                .saturating_add(minted)
                .min(self.capacity_milli);
        }
        if state.level_milli >= 1000 {
            state.level_milli -= 1000;
            Ok(())
        } else {
            let needed = 1000 - state.level_milli;
            let retry_nanos = u128::from(needed) * u128::from(self.nanos_per_milli);
            Err(((retry_nanos.div_ceil(1_000_000)) as u64).max(1))
        }
    }

    /// Current level in millitokens (test/diagnostic hook).
    pub fn millitokens(&self) -> u64 {
        lock_clean(&self.state).level_milli
    }
}

/// Bounded per-client in-flight windows: a client may have at most
/// `max_in_flight` accepted-but-unanswered submissions. `0` disables the
/// bound.
pub struct ClientWindows {
    max_in_flight: usize,
    state: Mutex<HashMap<u64, usize>>,
}

impl ClientWindows {
    /// Windows of `max_in_flight` (0 = unlimited).
    pub fn new(max_in_flight: usize) -> ClientWindows {
        ClientWindows {
            max_in_flight,
            state: Mutex::new(HashMap::new()),
        }
    }

    /// Claims one in-flight slot for `client`; `false` when the window is
    /// full.
    pub fn try_open(&self, client: u64) -> bool {
        if self.max_in_flight == 0 {
            return true;
        }
        let mut state = lock_clean(&self.state);
        let slot = state.entry(client).or_insert(0);
        if *slot >= self.max_in_flight {
            false
        } else {
            *slot += 1;
            true
        }
    }

    /// Releases one in-flight slot for `client`.
    pub fn close(&self, client: u64) {
        if self.max_in_flight == 0 {
            return;
        }
        let mut state = lock_clean(&self.state);
        if let Some(slot) = state.get_mut(&client) {
            *slot = slot.saturating_sub(1);
            if *slot == 0 {
                state.remove(&client);
            }
        }
    }

    /// In-flight submissions for `client` (test/diagnostic hook).
    pub fn in_flight(&self, client: u64) -> usize {
        lock_clean(&self.state).get(&client).copied().unwrap_or(0)
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolInner {
    queues: Vec<Mutex<VecDeque<Job>>>,
    gate: Mutex<()>,
    work_ready: Condvar,
    idle: Condvar,
    queued: AtomicUsize,
    in_flight: AtomicUsize,
    stop: AtomicBool,
    next: AtomicUsize,
}

/// A bounded-worker work-stealing pool: each worker owns a deque, pops its
/// own front, and steals a sibling's back when empty. Jobs run behind a
/// panic-isolation boundary, so a panicking job can never stick the
/// queued/in-flight counters [`WorkPool::drain`] waits on.
pub struct WorkPool {
    inner: Arc<PoolInner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkPool {
    /// Spawns `workers` (clamped to >= 1) worker threads.
    pub fn new(workers: usize) -> WorkPool {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(()),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            queued: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            next: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|index| {
                let inner = Arc::clone(&inner);
                thread::spawn(move || worker_loop(&inner, index))
            })
            .collect();
        WorkPool {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// Enqueues one job (round-robin across worker deques); `false` when
    /// the pool has already been stopped by [`WorkPool::drain`].
    pub fn submit(&self, job: Job) -> bool {
        if self.inner.stop.load(Ordering::SeqCst) {
            return false;
        }
        // Count before enqueueing: a drain racing this submit must never
        // observe the job in a queue while `queued` still reads 0.
        self.inner.queued.fetch_add(1, Ordering::SeqCst);
        let index = self.inner.next.fetch_add(1, Ordering::Relaxed) % self.inner.queues.len();
        lock_clean(&self.inner.queues[index]).push_back(job);
        self.inner.work_ready.notify_all();
        true
    }

    /// Jobs enqueued but not yet claimed by a worker.
    pub fn queued(&self) -> usize {
        self.inner.queued.load(Ordering::SeqCst)
    }

    /// Jobs currently executing.
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::SeqCst)
    }

    /// Waits for every queued and in-flight job to finish, then stops and
    /// joins the workers. Always terminates provided the jobs themselves
    /// do: the waits are timeout-polled, so no notification can be missed
    /// forever, and job panics are trapped before the counter decrement.
    pub fn drain(&self) {
        let mut gate = lock_clean(&self.inner.gate);
        while self.inner.queued.load(Ordering::SeqCst) > 0
            || self.inner.in_flight.load(Ordering::SeqCst) > 0
        {
            let (guard, _) = self
                .inner
                .idle
                .wait_timeout(gate, Duration::from_millis(20))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            gate = guard;
        }
        drop(gate);
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.work_ready.notify_all();
        for handle in lock_clean(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Arc<PoolInner>, index: usize) {
    loop {
        // Own deque front first; steal a sibling's back otherwise.
        let mut job = lock_clean(&inner.queues[index]).pop_front();
        if job.is_none() {
            for offset in 1..inner.queues.len() {
                let victim = (index + offset) % inner.queues.len();
                job = lock_clean(&inner.queues[victim]).pop_back();
                if job.is_some() {
                    break;
                }
            }
        }
        match job {
            Some(job) => {
                // Claim before un-counting from the queue so a drain can
                // never observe "no work anywhere" while this job runs.
                inner.in_flight.fetch_add(1, Ordering::SeqCst);
                inner.queued.fetch_sub(1, Ordering::SeqCst);
                let _ = catch_unwind(AssertUnwindSafe(job));
                inner.in_flight.fetch_sub(1, Ordering::SeqCst);
                inner.idle.notify_all();
            }
            None => {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                let gate = lock_clean(&inner.gate);
                let _ = inner
                    .work_ready
                    .wait_timeout(gate, Duration::from_millis(20))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }
}

/// What the breaker decided for one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Breaker closed: run the cell normally.
    Run,
    /// Breaker half-open: run this one cell as the deterministic probe.
    Probe,
    /// Breaker open: shed the cell without running it.
    Shed,
}

#[derive(Clone, Copy)]
enum Phase {
    Closed,
    Open { shed_since_probe: u32 },
    HalfOpen,
}

#[derive(Clone, Copy)]
struct BreakerState {
    consecutive: u32,
    phase: Phase,
}

/// Per-app circuit breaker with half-open probing, shared by the batch
/// campaign runner and the service.
///
/// `threshold` consecutive terminal failures of one app's cells trip its
/// breaker (one [`EventKind::Trip`] per trip). An open breaker grants the
/// *next* submission through as a deterministic half-open probe
/// ([`BreakerDecision::Probe`]); a successful probe closes the breaker
/// again with one [`EventKind::Reset`], while a failed probe silently
/// re-opens it, after which `threshold` submissions are shed before the
/// next probe is granted — so a persistently broken app sheds at a duty
/// cycle of one probe per `threshold` sheds instead of shedding forever.
pub struct Breaker {
    threshold: u32,
    /// app name -> breaker state.
    state: Mutex<HashMap<String, BreakerState>>,
}

impl Breaker {
    /// A breaker tripping after `threshold` consecutive failures
    /// (0 disables it: every submission runs).
    pub fn new(threshold: u32) -> Breaker {
        Breaker {
            threshold,
            state: Mutex::new(HashMap::new()),
        }
    }

    /// Decides one submission for `app`. The caller counts
    /// [`EventKind::Probe`] on a `Probe` decision and [`EventKind::Shed`]
    /// (plus the shed record) on `Shed`.
    pub fn admit(&self, app: &str) -> BreakerDecision {
        if self.threshold == 0 {
            return BreakerDecision::Run;
        }
        let mut state = lock_clean(&self.state);
        let entry = state.entry(app.to_string()).or_insert(BreakerState {
            consecutive: 0,
            phase: Phase::Closed,
        });
        match entry.phase {
            Phase::Closed => BreakerDecision::Run,
            // A probe is already in flight (or its verdict not yet fed
            // back): don't stack probes.
            Phase::HalfOpen => BreakerDecision::Shed,
            Phase::Open { shed_since_probe } => {
                if shed_since_probe >= self.threshold {
                    entry.phase = Phase::HalfOpen;
                    BreakerDecision::Probe
                } else {
                    entry.phase = Phase::Open {
                        shed_since_probe: shed_since_probe + 1,
                    };
                    BreakerDecision::Shed
                }
            }
        }
    }

    /// Feeds one finished cell back. Shed records are not evidence either
    /// way (the cell never ran); Ok closes the window — and, from
    /// half-open or open, closes the breaker with one
    /// [`EventKind::Reset`].
    pub fn on_record(&self, record: &CellRecord, telemetry: &Telemetry) {
        if self.threshold == 0 || record.status == CellStatus::Shed {
            return;
        }
        let mut state = lock_clean(&self.state);
        let entry = state.entry(record.app.clone()).or_insert(BreakerState {
            consecutive: 0,
            phase: Phase::Closed,
        });
        if record.status == CellStatus::Ok {
            match entry.phase {
                Phase::Closed => entry.consecutive = 0,
                _ => {
                    entry.phase = Phase::Closed;
                    entry.consecutive = 0;
                    telemetry.event(EventKind::Reset);
                }
            }
            return;
        }
        match entry.phase {
            // The failed probe: re-open silently (the breaker already
            // tripped once; a second Trip would double-count) and earn the
            // next probe only after `threshold` sheds.
            Phase::HalfOpen => {
                entry.phase = Phase::Open {
                    shed_since_probe: 0,
                }
            }
            // A pre-trip in-flight cell finishing late: already open.
            Phase::Open { .. } => {}
            Phase::Closed => {
                entry.consecutive += 1;
                if entry.consecutive >= self.threshold {
                    // Seed the shed count at the threshold so the very
                    // next submission is granted the probe.
                    entry.phase = Phase::Open {
                        shed_since_probe: self.threshold,
                    };
                    telemetry.event(EventKind::Trip);
                }
            }
        }
    }
}

/// Configuration of a [`CampaignService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Dynamic instructions per cell execution.
    pub trace_len: usize,
    /// Worker threads (clamped to >= 1).
    pub workers: usize,
    /// Run cells through the translation-validation oracle (dropped at
    /// degradation level >= 1).
    pub validate: bool,
    /// Server-side per-cell deadline; the effective deadline is the
    /// minimum of this and the request's own `deadline_ms`.
    pub deadline: Option<Duration>,
    /// Maximum queued (not yet claimed) cells before submissions are
    /// rejected; 0 = unbounded.
    pub queue_capacity: usize,
    /// Queue-depth watermarks driving the load-shedding ladder: depth >=
    /// `[0]` runs cells at degradation level 1 (drop validate), >= `[1]`
    /// level 2 (drop per-cell telemetry), >= `[2]` level 3 (baseline
    /// design point). A zero entry disables that rung.
    pub degrade_watermarks: [usize; 3],
    /// Token-bucket refill in requests/second; 0 disables admission
    /// rate-limiting.
    pub admission_rate: u64,
    /// Token-bucket burst capacity in requests.
    pub admission_burst: u64,
    /// Per-client in-flight window; 0 = unlimited.
    pub client_window: usize,
    /// Per-app circuit-breaker threshold; 0 disables breakers.
    pub breaker_threshold: u32,
    /// Journal path; `None` disables journaling (and with it the
    /// no-lost-ack guarantee).
    pub journal: Option<PathBuf>,
    /// Cell records per journal segment before rolling; 0 = unbounded.
    pub segment_max_lines: usize,
    /// Persistent artifact-store root; `None` = in-memory only.
    pub store_dir: Option<PathBuf>,
    /// Disk-store byte budget (`None` = unbounded).
    pub store_budget: Option<u64>,
    /// Run tag stamped on every journaled record of this server process.
    pub run_tag: Option<u64>,
    /// Streaming window for cell execution: every cell streams its trace
    /// through the chunked pipeline of a recording-backed workbench, `n`
    /// instructions per window for `Some(n)` and
    /// [`critic_workloads::DEFAULT_STREAM_WINDOW`] for `None`, at
    /// O(window) memory per worker. Results are bit-identical at every
    /// window.
    pub stream_window: Option<usize>,
    /// Service-wide telemetry sink.
    pub telemetry: Telemetry,
    /// Systemic-fault injector (soak noise); `None` = no taps.
    pub sys: Option<Arc<SysInjector>>,
}

impl ServiceConfig {
    /// Defaults tuned for a small host: 0 workers (machine parallelism),
    /// a 256-cell queue, watermarks at 32/64/128, 64-request burst at 32
    /// requests/second, 32-deep client windows, breakers at 3.
    pub fn new(trace_len: usize) -> ServiceConfig {
        ServiceConfig {
            trace_len,
            workers: 0,
            validate: false,
            deadline: None,
            queue_capacity: 256,
            degrade_watermarks: [32, 64, 128],
            admission_rate: 32,
            admission_burst: 64,
            client_window: 32,
            breaker_threshold: 3,
            journal: None,
            segment_max_lines: 0,
            store_dir: None,
            store_budget: None,
            run_tag: None,
            stream_window: None,
            telemetry: Telemetry::from_env(),
            sys: None,
        }
    }
}

/// The decision [`CampaignService::submit`] returns synchronously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The request was admitted; the responder will be called exactly once
    /// with the terminal [`CellRecord`] (which may be a `Shed` record when
    /// the app's breaker is open).
    Accepted,
    /// The request was refused by admission control; nothing was queued
    /// and the responder will never be called.
    Rejected {
        /// Why (`draining`, `queue full`, `rate limited`, ...).
        reason: String,
        /// Earliest sensible retry, milliseconds.
        retry_after_ms: u64,
    },
}

struct ServiceInner {
    config: ServiceConfig,
    store: Arc<ArtifactStore>,
    journal: Option<Journal>,
    pool: WorkPool,
    bucket: Option<TokenBucket>,
    windows: ClientWindows,
    breaker: Breaker,
    draining: AtomicBool,
    accepted: AtomicU64,
    responded: AtomicU64,
}

/// The long-lived campaign service: shared persistent store + journal, a
/// work-stealing pool, and the admission stack documented at module level.
/// Cloneable; all clones share one service.
#[derive(Clone)]
pub struct CampaignService {
    inner: Arc<ServiceInner>,
}

impl CampaignService {
    /// Opens the service: store (persistent when
    /// [`ServiceConfig::store_dir`] is set), journal (recovered the same
    /// way a resumed campaign recovers it), and worker pool.
    pub fn open(config: ServiceConfig) -> Result<CampaignService, RunError> {
        let store = match &config.store_dir {
            Some(dir) => Arc::new(
                ArtifactStore::persistent(dir, config.store_budget, config.telemetry.clone())
                    .map_err(|e| RunError::Store(e.to_string()))?,
            ),
            None => Arc::new(ArtifactStore::new()),
        };
        if config.sys.is_some() {
            store.set_sys_injector(config.sys.clone());
        }
        let journal = match &config.journal {
            Some(path) => {
                let (journal, _) =
                    Journal::open(path, config.segment_max_lines, config.telemetry.clone())
                        .map_err(|e| RunError::Journal(e.to_string()))?;
                Some(journal)
            }
            None => None,
        };
        let workers = if config.workers > 0 {
            config.workers
        } else {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        };
        let pool = WorkPool::new(workers);
        let bucket = (config.admission_rate > 0)
            .then(|| TokenBucket::new(config.admission_burst, config.admission_rate));
        let windows = ClientWindows::new(config.client_window);
        let breaker = Breaker::new(config.breaker_threshold);
        Ok(CampaignService {
            inner: Arc::new(ServiceInner {
                store,
                journal,
                pool,
                bucket,
                windows,
                breaker,
                draining: AtomicBool::new(false),
                accepted: AtomicU64::new(0),
                responded: AtomicU64::new(0),
                config,
            }),
        })
    }

    /// Submits one cell on behalf of `client`. Admission control runs
    /// synchronously; an accepted request's responder is called exactly
    /// once from a worker thread, *after* the record's journal append has
    /// been fsynced.
    pub fn submit(
        &self,
        client: u64,
        app_name: &str,
        scheme_name: &str,
        deadline_ms: Option<u64>,
        respond: impl FnOnce(CellRecord) + Send + 'static,
    ) -> SubmitOutcome {
        let inner = &self.inner;
        let telemetry = &inner.config.telemetry;
        let reject = |reason: &str, retry_after_ms: u64| {
            telemetry.event(EventKind::Reject);
            SubmitOutcome::Rejected {
                reason: reason.to_string(),
                retry_after_ms,
            }
        };
        if inner.draining.load(Ordering::SeqCst) {
            return reject("draining: server is shutting down", 1000);
        }
        let Some(app) = Suite::find_app(app_name) else {
            return reject(&format!("unknown app `{app_name}`"), 0);
        };
        let Some(point) = DesignPoint::named(scheme_name) else {
            return reject(&format!("unknown scheme `{scheme_name}`"), 0);
        };
        let scheme = Scheme {
            name: scheme_name.to_string(),
            point,
        };
        if !inner.windows.try_open(client) {
            return reject("client window full: too many in-flight requests", 20);
        }
        // Every path below must release the window slot exactly once.
        let queued = inner.pool.queued();
        if inner.config.queue_capacity > 0 && queued >= inner.config.queue_capacity {
            inner.windows.close(client);
            return reject("queue full", 50);
        }
        if let Some(bucket) = &inner.bucket {
            if let Err(retry_after_ms) = bucket.try_take() {
                inner.windows.close(client);
                return reject("rate limited", retry_after_ms);
            }
        }
        match inner.breaker.admit(&app.name) {
            BreakerDecision::Shed => {
                // Shed synchronously: journaled (fsync before the ack,
                // like any record), answered, never queued.
                let record = CellRecord::shed(
                    &app.name,
                    &scheme.name,
                    None,
                    format!("circuit breaker open for app `{}`", app.name),
                    inner.config.run_tag,
                );
                telemetry.event(EventKind::Shed);
                journal_before_ack(inner, &record);
                inner.accepted.fetch_add(1, Ordering::Relaxed);
                respond(record);
                inner.responded.fetch_add(1, Ordering::Relaxed);
                inner.windows.close(client);
                return SubmitOutcome::Accepted;
            }
            BreakerDecision::Probe => telemetry.event(EventKind::Probe),
            BreakerDecision::Run => {}
        }
        telemetry.event(EventKind::Admit);
        telemetry.queue_depth(queued as u64 + 1);
        let service = Arc::clone(inner);
        let cell = Cell {
            app,
            scheme,
            fault: None,
        };
        let job = Box::new(move || {
            run_submitted(&service, client, &cell, deadline_ms, respond);
        });
        if inner.pool.submit(job) {
            inner.accepted.fetch_add(1, Ordering::Relaxed);
            SubmitOutcome::Accepted
        } else {
            // The pool stopped between the draining check and here.
            inner.windows.close(client);
            reject("draining: server is shutting down", 1000)
        }
    }

    /// Whether [`CampaignService::drain`] has begun (or an injected
    /// [`SysFault::Kill`] requested shutdown).
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Cells queued but not yet claimed by a worker.
    pub fn queue_depth(&self) -> usize {
        self.inner.pool.queued()
    }

    /// Cells currently executing.
    pub fn in_flight(&self) -> usize {
        self.inner.pool.in_flight()
    }

    /// Requests accepted (admitted or synchronously shed) so far.
    pub fn accepted(&self) -> u64 {
        self.inner.accepted.load(Ordering::Relaxed)
    }

    /// Terminal responses delivered so far.
    pub fn responded(&self) -> u64 {
        self.inner.responded.load(Ordering::Relaxed)
    }

    /// The service-wide telemetry snapshot (None when telemetry is off).
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.inner.config.telemetry.snapshot()
    }

    /// The artifact store's counters (includes the disk tier's when
    /// persistent).
    pub fn store_stats(&self) -> StoreStats {
        self.inner.store.stats()
    }

    /// The service's artifact store — the peer-rebuild wire verbs
    /// (`fetch_artifact`, `list_artifacts`) serve and ingest persistent
    /// entries through it.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.inner.store
    }

    /// Graceful drain: refuse new work, finish every queued and in-flight
    /// cell, append the store and telemetry trailers, and write a durable
    /// journal checkpoint. Terminates provided cells do (see
    /// [`WorkPool::drain`]).
    pub fn drain(&self) {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::SeqCst);
        inner.pool.drain();
        if let Some(journal) = &inner.journal {
            journal.checkpoint();
            journal.append_trailers(
                inner.store.stats(),
                inner.config.telemetry.snapshot(),
                inner.config.sys.as_ref(),
            );
        }
        if inner.config.sys.is_some() {
            inner.store.set_sys_injector(None);
        }
    }
}

/// The worker-side body of one admitted submission: pick the degradation
/// level from the queue depth *now* (at claim time, when shedding load
/// actually helps), run one attempt (the service retries nothing — the
/// *client* owns retry policy, steered by the record it gets back), feed
/// the breaker, journal (fsync) and only then respond.
fn run_submitted(
    inner: &Arc<ServiceInner>,
    client: u64,
    cell: &Cell,
    deadline_ms: Option<u64>,
    respond: impl FnOnce(CellRecord) + Send + 'static,
) {
    let telemetry = &inner.config.telemetry;
    let depth = inner.pool.queued();
    let level = degrade_level(&inner.config.degrade_watermarks, depth);
    if level > 0 {
        telemetry.events(EventKind::Degrade, u64::from(level));
    }
    let deadline = match (inner.config.deadline, deadline_ms) {
        (Some(server), Some(request)) => Some(server.min(Duration::from_millis(request))),
        (Some(server), None) => Some(server),
        (None, Some(request)) => Some(Duration::from_millis(request)),
        (None, None) => None,
    };
    let policy = CellPolicy {
        trace_len: inner.config.trace_len,
        validate: inner.config.validate,
        stream_window: inner.config.stream_window,
        run_tag: inner.config.run_tag,
        deadline,
        attempts: 1,
        supervision: SupervisionPolicy::default(),
        level,
        sys: inner.config.sys.as_ref(),
        telemetry,
    };
    let record = telemetry.time(SpanKind::Request, || {
        execute(cell, &policy, &inner.store, &mut None).0
    });
    inner.breaker.on_record(&record, telemetry);
    if let Some(sys) = &inner.config.sys {
        for fault in sys.advance_or_crash(SysOp::CellDone) {
            telemetry.event(EventKind::SysFault);
            if fault == SysFault::Kill {
                inner.draining.store(true, Ordering::SeqCst);
            }
        }
    }
    journal_before_ack(inner, &record);
    respond(record);
    inner.responded.fetch_add(1, Ordering::Relaxed);
    inner.windows.close(client);
}

/// Appends of one record a service makes before giving up on its line.
const JOURNAL_ATTEMPTS: usize = 3;

/// Journals `record` (flush + fsync inside) strictly before it is
/// acknowledged: a response the client saw is a record a restart will
/// replay. A line a write fault dropped or tore is appended again —
/// injected faults are consume-once, so the next attempt sees a healed
/// journal.
fn journal_before_ack(inner: &ServiceInner, record: &CellRecord) {
    if let Some(journal) = &inner.journal {
        for _ in 0..JOURNAL_ATTEMPTS {
            if journal.append_cell(record, inner.config.sys.as_ref()) {
                break;
            }
        }
    }
}

/// The degradation level the current queue depth calls for: the highest
/// rung whose (non-zero) watermark the depth has reached.
fn degrade_level(watermarks: &[usize; 3], depth: usize) -> u8 {
    let mut level = 0u8;
    for (rung, &mark) in watermarks.iter().enumerate() {
        if mark > 0 && depth >= mark {
            level = rung as u8 + 1;
        }
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn token_bucket_burst_then_rate() {
        let bucket = TokenBucket::new(2, 10); // 2 burst, 10/s = one per 100ms
        assert!(bucket.try_take_at(0).is_ok());
        assert!(bucket.try_take_at(0).is_ok());
        let retry = bucket.try_take_at(0).expect_err("burst exhausted");
        assert!((1..=100).contains(&retry), "retry hint {retry}");
        // 100ms later exactly one token has been minted.
        assert!(bucket.try_take_at(100_000_000).is_ok());
        assert!(bucket.try_take_at(100_000_000).is_err());
        // Refill never exceeds capacity.
        assert!(bucket.try_take_at(10_000_000_000).is_ok());
        assert!(bucket.try_take_at(10_000_000_000).is_ok());
        assert!(bucket.try_take_at(10_000_000_000).is_err());
    }

    #[test]
    fn token_bucket_tolerates_time_going_backwards() {
        let bucket = TokenBucket::new(1, 1);
        assert!(bucket.try_take_at(5_000_000_000).is_ok());
        // An out-of-order timestamp refills nothing and cannot underflow.
        assert!(bucket.try_take_at(0).is_err());
        assert!(bucket.millitokens() < 1000);
    }

    #[test]
    fn client_windows_bound_in_flight() {
        let windows = ClientWindows::new(2);
        assert!(windows.try_open(7));
        assert!(windows.try_open(7));
        assert!(!windows.try_open(7));
        assert!(windows.try_open(8), "windows are per-client");
        windows.close(7);
        assert!(windows.try_open(7));
        // Unlimited windows never refuse.
        let unlimited = ClientWindows::new(0);
        for _ in 0..100 {
            assert!(unlimited.try_open(1));
        }
    }

    #[test]
    fn work_pool_runs_everything_and_drains() {
        let pool = WorkPool::new(3);
        let (tx, rx) = mpsc::channel();
        for i in 0..50 {
            let tx = tx.clone();
            assert!(pool.submit(Box::new(move || {
                tx.send(i).expect("send");
            })));
        }
        pool.drain();
        drop(tx);
        let mut seen: Vec<i32> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        assert_eq!(pool.queued(), 0);
        assert_eq!(pool.in_flight(), 0);
        assert!(!pool.submit(Box::new(|| ())), "stopped pool refuses work");
    }

    #[test]
    fn work_pool_drain_survives_panicking_jobs() {
        let pool = WorkPool::new(2);
        for i in 0..20 {
            assert!(pool.submit(Box::new(move || {
                if i % 3 == 0 {
                    panic!("job {i} down");
                }
            })));
        }
        pool.drain();
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.queued(), 0);
    }

    fn ok_record(app: &str) -> CellRecord {
        CellRecord {
            app: app.to_string(),
            scheme: "critic".to_string(),
            status: CellStatus::Ok,
            attempts: 1,
            millis: 1,
            fault: None,
            metrics: None,
            error: None,
            validation: None,
            spans: None,
            degraded: None,
            run: None,
        }
    }

    fn failed_record(app: &str) -> CellRecord {
        CellRecord {
            status: CellStatus::Failed,
            ..ok_record(app)
        }
    }

    #[test]
    fn breaker_trips_probes_and_resets() {
        let telemetry = Telemetry::enabled();
        let breaker = Breaker::new(2);
        assert_eq!(breaker.admit("a"), BreakerDecision::Run);
        breaker.on_record(&failed_record("a"), &telemetry);
        assert_eq!(breaker.admit("a"), BreakerDecision::Run);
        breaker.on_record(&failed_record("a"), &telemetry);
        // Tripped: the next submission is the deterministic probe.
        assert_eq!(breaker.admit("a"), BreakerDecision::Probe);
        // Probe in flight: siblings shed, no probe stacking.
        assert_eq!(breaker.admit("a"), BreakerDecision::Shed);
        // Failed probe re-opens silently; threshold sheds before the next.
        breaker.on_record(&failed_record("a"), &telemetry);
        assert_eq!(breaker.admit("a"), BreakerDecision::Shed);
        assert_eq!(breaker.admit("a"), BreakerDecision::Shed);
        assert_eq!(breaker.admit("a"), BreakerDecision::Probe);
        // Successful probe closes the breaker with one Reset.
        breaker.on_record(&ok_record("a"), &telemetry);
        assert_eq!(breaker.admit("a"), BreakerDecision::Run);
        let snap = telemetry.snapshot().expect("snapshot");
        assert_eq!(
            snap.supervision().trips,
            1,
            "one trip, probes don't re-trip"
        );
        assert_eq!(snap.service().resets, 1);
        // Other apps were never affected.
        assert_eq!(breaker.admit("b"), BreakerDecision::Run);
    }

    #[test]
    fn breaker_shed_records_are_not_evidence() {
        let telemetry = Telemetry::off();
        let breaker = Breaker::new(1);
        let shed = CellRecord {
            status: CellStatus::Shed,
            ..ok_record("a")
        };
        breaker.on_record(&shed, &telemetry);
        assert_eq!(breaker.admit("a"), BreakerDecision::Run);
    }

    #[test]
    fn degrade_level_follows_watermarks() {
        let marks = [4, 8, 16];
        assert_eq!(degrade_level(&marks, 0), 0);
        assert_eq!(degrade_level(&marks, 3), 0);
        assert_eq!(degrade_level(&marks, 4), 1);
        assert_eq!(degrade_level(&marks, 8), 2);
        assert_eq!(degrade_level(&marks, 100), 3);
        // Zero entries disable rungs.
        assert_eq!(degrade_level(&[0, 0, 2], 3), 3);
        assert_eq!(degrade_level(&[0, 0, 0], 1000), 0);
    }

    #[test]
    fn service_runs_cells_and_drains() {
        let config = ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            admission_rate: 0,
            breaker_threshold: 0,
            ..ServiceConfig::new(4_000)
        };
        let service = CampaignService::open(config).expect("open");
        let (tx, rx) = mpsc::channel();
        for i in 0..4 {
            let tx = tx.clone();
            let outcome = service.submit(i % 2, "Acrobat", "critic", None, move |record| {
                tx.send(record).expect("send");
            });
            assert_eq!(outcome, SubmitOutcome::Accepted);
        }
        service.drain();
        drop(tx);
        let records: Vec<CellRecord> = rx.iter().collect();
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.status == CellStatus::Ok));
        assert_eq!(service.accepted(), 4);
        assert_eq!(service.responded(), 4);
        // A drained service refuses new work.
        let outcome = service.submit(0, "Acrobat", "critic", None, |_| {});
        assert!(matches!(outcome, SubmitOutcome::Rejected { .. }));
    }

    /// Ack follows the journal even when a write fault drops the cell's
    /// first line: the record is appended again before the client sees
    /// it, so a replay taken the moment the ack arrives already has it.
    #[test]
    fn dropped_journal_line_is_rewritten_before_the_ack() {
        for fault in [SysFault::JournalWrite, SysFault::JournalTorn] {
            let dir = std::env::temp_dir().join(format!(
                "critic-service-ack-{}-{}",
                fault.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create temp dir");
            let journal = dir.join("j.jsonl");
            let config = ServiceConfig {
                workers: 1,
                journal: Some(journal.clone()),
                sys: Some(Arc::new(SysInjector::new(vec![
                    critic_workloads::SysFaultSpec { fault, at: 0 },
                ]))),
                ..ServiceConfig::new(4_000)
            };
            let service = CampaignService::open(config).expect("open");
            let (tx, rx) = mpsc::channel();
            let outcome = service.submit(0, "Acrobat", "critic", None, move |record| {
                tx.send(record).expect("send");
            });
            assert_eq!(outcome, SubmitOutcome::Accepted);
            let acked = rx.recv().expect("acked");
            let replayed = Journal::replay(&journal, &Telemetry::off()).expect("replay");
            assert_eq!(replayed.records, vec![acked], "{}", fault.name());
            service.drain();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A store fault that fails a submitted cell is a systemic fault like
    /// any other: the service's supervision counters report it.
    #[test]
    fn store_fault_counts_as_a_sys_fault() {
        let config = ServiceConfig {
            workers: 1,
            telemetry: Telemetry::enabled(),
            sys: Some(Arc::new(SysInjector::new(vec![
                critic_workloads::SysFaultSpec {
                    fault: SysFault::StoreRead,
                    at: 0,
                },
            ]))),
            ..ServiceConfig::new(4_000)
        };
        let service = CampaignService::open(config).expect("open");
        let (tx, rx) = mpsc::channel();
        let outcome = service.submit(0, "Acrobat", "critic", None, move |record| {
            tx.send(record).expect("send");
        });
        assert_eq!(outcome, SubmitOutcome::Accepted);
        let record = rx.recv().expect("answered");
        assert_eq!(record.error, Some(RunError::Sys(SysFault::StoreRead)));
        service.drain();
        let snapshot = service.snapshot().expect("telemetry is on");
        assert_eq!(snapshot.supervision().sys_faults, 1, "{snapshot:?}");
    }

    #[test]
    fn service_rejects_unknown_names_without_queueing() {
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::new(4_000)
        };
        let service = CampaignService::open(config).expect("open");
        let outcome = service.submit(0, "no-such-app", "critic", None, |_| {});
        assert!(matches!(outcome, SubmitOutcome::Rejected { .. }));
        let outcome = service.submit(0, "Acrobat", "no-such-scheme", None, |_| {});
        assert!(matches!(outcome, SubmitOutcome::Rejected { .. }));
        assert_eq!(service.accepted(), 0);
        service.drain();
    }
}
