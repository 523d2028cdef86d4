//! Property tests for the service layer's two safety-critical loops:
//! admission-token accounting can never go negative (or mint tokens out
//! of thin air), and a drain always terminates — even when submissions,
//! cancellations (expired deadlines), and crashes (panicking jobs)
//! interleave with it at random.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use critics::core::campaign::{CellMetrics, CellRecord, CellStatus};
use critics::core::design::DesignPoint;
use critics::core::runner::Workbench;
use critics::core::service::{
    CampaignService, ServiceConfig, SubmitOutcome, TokenBucket, WorkPool,
};
use critics::obs::Telemetry;
use critics::pipeline::SimEngine;
use critics::workloads::suite::Suite;
use proptest::prelude::*;

/// Mirror of the bucket's internal refill granularity: nanoseconds to
/// mint one millitoken at `rate` tokens/second. Used only to compute a
/// conservative upper bound on what a run may legally mint.
fn nanos_per_millitoken(rate: u64) -> u64 {
    (1_000_000_000u128 / u128::from(rate.max(1)) / 1000).clamp(1, u128::from(u64::MAX)) as u64
}

proptest! {
    // Pure accounting over explicit timestamps: cheap, sweep widely.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Token conservation: across any take/elapse sequence the level
    /// stays within `[0, capacity]` (the type is unsigned — the property
    /// is that the *accounting* never relies on wrap-around), every
    /// refusal carries a retry hint of at least 1 ms, and the grants
    /// issued never exceed the initial burst plus what the elapsed time
    /// could legally have minted.
    #[test]
    fn token_accounting_never_goes_negative_or_overminted(
        capacity in 1u64..=8,
        rate in 1u64..=1_000,
        steps in prop::collection::vec((0u64..=2_000_000_000, any::<bool>()), 1..=64),
    ) {
        let bucket = TokenBucket::new(capacity, rate);
        let capacity_milli = capacity * 1000;
        let mut now = 0u64;
        let mut grants = 0u64;
        for &(delta, take) in &steps {
            now = now.saturating_add(delta);
            if take {
                match bucket.try_take_at(now) {
                    Ok(()) => grants += 1,
                    Err(retry_ms) => prop_assert!(retry_ms >= 1, "zero retry hint"),
                }
            }
            let level = bucket.millitokens();
            prop_assert!(
                level <= capacity_milli,
                "level {level} above capacity {capacity_milli}"
            );
        }
        let minted_upper = now / nanos_per_millitoken(rate);
        prop_assert!(
            grants * 1000 <= capacity_milli + minted_upper,
            "issued {grants} tokens from a burst of {capacity} plus at most \
             {minted_upper} minted millitokens"
        );
    }

    /// Out-of-order timestamps (a torn monotonic read) refill nothing and
    /// never corrupt the level: replaying any step sequence in reverse
    /// time order keeps the level within `[0, capacity]` throughout.
    #[test]
    fn token_accounting_survives_time_going_backwards(
        capacity in 1u64..=8,
        rate in 1u64..=1_000,
        stamps in prop::collection::vec(0u64..=2_000_000_000, 1..=64),
    ) {
        let bucket = TokenBucket::new(capacity, rate);
        let capacity_milli = capacity * 1000;
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        sorted.reverse();
        for &now in sorted.iter().chain(stamps.iter()) {
            let _ = bucket.try_take_at(now);
            let level = bucket.millitokens();
            prop_assert!(
                level <= capacity_milli,
                "level {level} above capacity {capacity_milli}"
            );
        }
    }
}

/// What one randomized pool job does when a worker claims it; kind 0
/// (fast no-op) is the `match` fall-through.
const JOB_SLEEP: u8 = 1;
const JOB_CRASH: u8 = 2;

fn spawn_job(pool: &WorkPool, kind: u8, ran: &Arc<AtomicUsize>) -> bool {
    let ran = Arc::clone(ran);
    pool.submit(Box::new(move || {
        // Count on entry so a crashing job is still accounted for.
        ran.fetch_add(1, Ordering::SeqCst);
        match kind {
            JOB_SLEEP => std::thread::sleep(Duration::from_millis(1)),
            JOB_CRASH => panic!("injected job crash"),
            _ => {}
        }
    }))
}

/// Runs `drain` on a watchdog thread and returns whether it finished
/// inside `timeout`. A hung drain is the failure mode under test — the
/// watchdog keeps the proptest itself from deadlocking with it.
fn drain_terminates(pool: &Arc<WorkPool>, timeout: Duration) -> bool {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    let pool = Arc::clone(pool);
    let handle = std::thread::spawn(move || {
        pool.drain();
        flag.store(true, Ordering::SeqCst);
    });
    let deadline = Instant::now() + timeout;
    while !done.load(Ordering::SeqCst) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    if done.load(Ordering::SeqCst) {
        let _ = handle.join();
        true
    } else {
        false
    }
}

proptest! {
    // Each case spins up real threads; keep the sweep moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With every submission (fast, slow, or crashing) in place before
    /// the drain starts, the drain terminates, runs each accepted job
    /// exactly once — panics included — and leaves a stopped pool that
    /// refuses further work.
    #[test]
    fn drain_terminates_and_runs_every_accepted_job(
        workers in 1usize..=4,
        jobs in prop::collection::vec(0u8..=2, 0..=24),
    ) {
        let pool = Arc::new(WorkPool::new(workers));
        let ran = Arc::new(AtomicUsize::new(0));
        let mut accepted = 0usize;
        for &kind in &jobs {
            if spawn_job(&pool, kind, &ran) {
                accepted += 1;
            }
        }
        prop_assert!(drain_terminates(&pool, Duration::from_secs(10)), "drain hung");
        prop_assert_eq!(ran.load(Ordering::SeqCst), accepted);
        prop_assert_eq!(pool.queued(), 0);
        prop_assert_eq!(pool.in_flight(), 0);
        prop_assert!(
            !pool.submit(Box::new(|| {})),
            "a drained pool accepted new work"
        );
    }

    /// Submissions racing the drain itself: a second thread keeps
    /// submitting (crashes included) while the drain runs. Whatever the
    /// interleaving, the drain terminates and no accepted job is claimed
    /// twice.
    #[test]
    fn drain_terminates_under_racing_submissions(
        workers in 1usize..=4,
        before in prop::collection::vec(0u8..=2, 0..=8),
        during in prop::collection::vec(0u8..=2, 1..=8),
    ) {
        let pool = Arc::new(WorkPool::new(workers));
        let ran = Arc::new(AtomicUsize::new(0));
        for &kind in &before {
            spawn_job(&pool, kind, &ran);
        }
        let racer_pool = Arc::clone(&pool);
        let racer_ran = Arc::clone(&ran);
        let racer = std::thread::spawn(move || {
            let mut accepted = 0usize;
            for &kind in &during {
                if spawn_job(&racer_pool, kind, &racer_ran) {
                    accepted += 1;
                }
                std::thread::yield_now();
            }
            accepted
        });
        prop_assert!(drain_terminates(&pool, Duration::from_secs(10)), "drain hung");
        let raced = racer.join().expect("racer thread panicked");
        // Termination is the property; completion only bounds from above
        // (a submit that raced the stop may have been accepted yet never
        // claimed).
        prop_assert!(ran.load(Ordering::SeqCst) <= before.len() + raced);
        prop_assert_eq!(pool.in_flight(), 0);
    }
}

proptest! {
    // Full service cells are the expensive case: a handful is enough.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The whole service drains to completion under mixed submissions:
    /// random apps and schemes, deadlines from "already expired" (the
    /// cancellation path) to generous, tiny queues forcing rejects, and
    /// breakers armed. Every accepted submission gets exactly one
    /// response, and the drain itself terminates.
    #[test]
    fn service_drain_answers_every_accepted_submission(
        workers in 1usize..=2,
        queue in 1usize..=4,
        breaker in 0u32..=2,
        cells in prop::collection::vec(
            (
                prop::sample::select(vec!["Acrobat", "Browser", "Email", "Maps"]),
                prop::sample::select(vec!["critic", "opp16", "hoist", "ideal"]),
                prop::sample::select(vec![None, Some(0u64), Some(1), Some(60_000)]),
            ),
            1..=10,
        ),
    ) {
        let mut config = ServiceConfig::new(300);
        config.workers = workers;
        config.queue_capacity = queue;
        config.degrade_watermarks = [1, 2, 3];
        config.admission_rate = 0; // accounting covered above; no pacing here
        config.client_window = 0;
        config.breaker_threshold = breaker;
        config.telemetry = Telemetry::off();
        let service = CampaignService::open(config).expect("in-memory service opens");
        let responses = Arc::new(AtomicUsize::new(0));
        let mut accepted = 0usize;
        for (index, (app, scheme, deadline)) in cells.iter().enumerate() {
            let counter = Arc::clone(&responses);
            match service.submit(index as u64, app, scheme, *deadline, move |_record| {
                counter.fetch_add(1, Ordering::SeqCst);
            }) {
                SubmitOutcome::Accepted => accepted += 1,
                SubmitOutcome::Rejected { retry_after_ms, .. } => {
                    prop_assert!(retry_after_ms >= 1, "zero retry hint on reject");
                }
            }
        }
        service.drain();
        prop_assert_eq!(responses.load(Ordering::SeqCst), accepted);
        prop_assert_eq!(service.queue_depth(), 0);
        prop_assert_eq!(service.in_flight(), 0);
        prop_assert_eq!(service.responded(), accepted as u64);
    }
}

/// The server's `--stream-window` knob reaches the cell executor
/// and is a pure memory bound: a service simulating through a small
/// bounded window produces bit-identical cell metrics to one at the
/// default window, and both to the reference engine (the scalar oracle
/// over the materialized trace) running the same cells.
#[test]
fn stream_windowed_service_matches_materialized_metrics() {
    let run = |window: Option<usize>| {
        let mut config = ServiceConfig::new(300);
        config.workers = 1;
        config.queue_capacity = 8;
        config.admission_rate = 0;
        config.client_window = 0;
        config.breaker_threshold = 0;
        config.telemetry = Telemetry::off();
        config.stream_window = window;
        let service = CampaignService::open(config).expect("in-memory service opens");
        let records: Arc<Mutex<Vec<CellRecord>>> = Arc::new(Mutex::new(Vec::new()));
        for (index, (app, scheme)) in [("Acrobat", "critic"), ("Browser", "opp16")]
            .into_iter()
            .enumerate()
        {
            let sink = Arc::clone(&records);
            let outcome = service.submit(index as u64, app, scheme, None, move |record| {
                sink.lock().unwrap().push(record);
            });
            assert!(matches!(outcome, SubmitOutcome::Accepted));
        }
        service.drain();
        let mut records = Arc::try_unwrap(records)
            .expect("drain returned all callbacks")
            .into_inner()
            .unwrap();
        records.sort_by(|a, b| {
            (a.app.as_str(), a.scheme.as_str()).cmp(&(b.app.as_str(), b.scheme.as_str()))
        });
        records
    };
    let streamed = run(Some(64));
    let default = run(None);
    let materialized: Vec<CellMetrics> = [("Acrobat", "critic"), ("Browser", "opp16")]
        .into_iter()
        .map(|(app, scheme)| {
            let app = Suite::Mobile
                .apps()
                .into_iter()
                .find(|a| a.name == app)
                .expect("Table II app");
            let mut bench = Workbench::try_new(&app, 300).expect("workbench");
            bench.set_engine(SimEngine::Reference);
            let base = bench.run(&DesignPoint::baseline());
            let run = bench.run(&DesignPoint::named(scheme).expect("wire scheme"));
            CellMetrics {
                speedup: run.sim.speedup_over(&base.sim),
                cpu_energy_saving: run.energy.cpu_saving(&base.energy),
                thumb_dyn_frac: run.thumb_dyn_frac,
                dyn_insns: run.dyn_insns,
            }
        })
        .collect();
    assert_eq!(streamed.len(), 2);
    assert_eq!(default.len(), 2);
    for ((s, d), m) in streamed.iter().zip(&default).zip(&materialized) {
        assert_eq!(
            s.status,
            CellStatus::Ok,
            "{}/{} did not complete",
            s.app,
            s.scheme
        );
        assert!(s.metrics.is_some(), "{}/{} has no metrics", s.app, s.scheme);
        assert_eq!(
            s.metrics, d.metrics,
            "stream window changed {}/{} metrics",
            s.app, s.scheme
        );
        assert_eq!(
            s.metrics.as_ref(),
            Some(m),
            "streaming changed {}/{} metrics",
            s.app,
            s.scheme
        );
    }
}
