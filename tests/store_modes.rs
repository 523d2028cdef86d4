//! Cross-mode store battery: a streamed campaign and the materialized side
//! (the store's materialized profile builder, and workbenches on the
//! reference engine, which walks the materialized trace) produce
//! bit-identical cell metrics. Because the materialized and streamed
//! profile builders fill the same memo slots and disk keys, a persistent
//! store warmed in either mode serves the other's profiles without
//! building any. The same grid also runs identically however its cells
//! are executed.

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use critics::core::campaign::{
    run_campaign_with_store, CampaignSpec, CellMetrics, CellRecord, Scheme,
};
use critics::core::design::DesignPoint;
use critics::core::runner::Workbench;
use critics::core::service::{CampaignService, ServiceConfig, SubmitOutcome};
use critics::core::store::{ArtifactStore, StoreStats};
use critics::obs::Telemetry;
use critics::pipeline::SimEngine;
use critics::profiler::ProfilerConfig;
use critics::workloads::suite::Suite;

const TRACE_LEN: usize = 40_000;

/// The 10 mobile apps × {critic, hoist, opp16, ideal, a Fig. 11 hardware
/// point}, validated, at the default stream window.
fn spec() -> CampaignSpec {
    let schemes = vec![
        Scheme::new("critic", DesignPoint::critic()),
        Scheme::new("hoist", DesignPoint::hoist()),
        Scheme::new("opp16", DesignPoint::opp16()),
        Scheme::new("ideal", DesignPoint::critic_ideal()),
        Scheme::new("hw-4xic", DesignPoint::quad_icache()),
    ];
    let mut spec = CampaignSpec::new(Suite::Mobile.apps(), schemes, TRACE_LEN);
    spec.validate = true;
    spec
}

/// Opens a persistent store at `dir`.
fn open(dir: &Path) -> Arc<ArtifactStore> {
    Arc::new(ArtifactStore::persistent(dir, None, Telemetry::off()).expect("store"))
}

/// Runs `spec` as a campaign over a fresh persistent store at `dir`;
/// returns the cells' metrics in grid order and the store's counters.
fn run(spec: &CampaignSpec, dir: &Path) -> (Vec<Option<CellMetrics>>, StoreStats) {
    let store = open(dir);
    let summary = run_campaign_with_store(spec, &store).expect("campaign runs");
    assert!(summary.all_ok(), "{}", summary.render());
    let metrics = summary.records.iter().map(|r| r.metrics.clone()).collect();
    (metrics, store.stats())
}

/// Runs `spec`'s cells on the materialized side over a fresh persistent
/// store at `dir` and returns the same as [`run`]. Per app, the world's
/// profiles come from the store's materialized builder
/// ([`ArtifactStore::profile`]) under every configuration [`spec`]'s
/// schemes use, and the cells run on one workbench on the reference
/// engine, validated as the campaign validates. The reference engine asks
/// the store for no baseline.
fn run_materialized(spec: &CampaignSpec, dir: &Path) -> (Vec<Option<CellMetrics>>, StoreStats) {
    let store = open(dir);
    let mut metrics = Vec::new();
    for app in &spec.apps {
        let world = store.world(app, spec.trace_len).expect("world");
        // critic and hoist profile under the default configuration, ideal
        // under the ideal one; opp16 and the hardware point profile nothing.
        for config in [ProfilerConfig::default(), ProfilerConfig::ideal()] {
            store.profile(&world, &config).expect("profile");
        }
        let mut bench = Workbench::from_world(app, world, Arc::clone(&store));
        bench.set_engine(SimEngine::Reference);
        let base = bench.try_run(&DesignPoint::baseline()).expect("baseline");
        for scheme in &spec.schemes {
            let (run, _) = bench
                .try_run_validated(&scheme.point, app.path_seed())
                .expect("validated run");
            metrics.push(Some(CellMetrics {
                speedup: run.sim.speedup_over(&base.sim),
                cpu_energy_saving: run.energy.cpu_saving(&base.energy),
                thumb_dyn_frac: run.thumb_dyn_frac,
                dyn_insns: run.dyn_insns,
            }));
        }
    }
    (metrics, store.stats())
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("critic-store-modes-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Checks a pass that ran over a store the other mode warmed: every
/// profile it needed came off disk (`*_built` counts disk loads too, so
/// each must be matched by a disk hit), and so did every baseline when
/// `baselines_warm`. Otherwise (the materialized side runs the reference
/// engine, which builds no baseline) each baseline missed, was built and
/// was saved, and nothing else was.
fn assert_served_from_disk(stats: &StoreStats, order: &str, baselines_warm: bool) {
    let disk = stats.disk.expect("persistent store has disk stats");
    let cold = if baselines_warm {
        0
    } else {
        stats.baselines_built
    };
    assert_eq!(disk.saves, cold, "{order}: the warm pass saved: {stats:?}");
    assert_eq!(
        disk.disk_misses, cold,
        "{order}: the warm pass missed: {stats:?}"
    );
    assert!(
        disk.disk_hits > 0,
        "{order}: nothing came off disk: {stats:?}"
    );
    assert_eq!(
        disk.disk_hits,
        stats.profiles_built + stats.baselines_built - cold,
        "{order}: a profile or baseline was built, not loaded: {stats:?}"
    );
}

fn assert_streamed(stats: &StoreStats, order: &str) {
    assert!(
        stats.worlds_built == 0 && stats.cones_built == 0,
        "{order}: a streamed campaign materialized a world: {stats:?}"
    );
}

#[test]
fn either_mode_warms_the_store_for_the_other_bit_identically() {
    let spec = spec();

    // A streamed campaign first, then materialized workbenches over the
    // same directory.
    let dir = scratch("streamed-first");
    let (streamed_cold, stats) = run(&spec, &dir);
    assert_streamed(&stats, "streamed cold");
    let (materialized_warm, stats) = run_materialized(&spec, &dir);
    assert_served_from_disk(&stats, "streamed then materialized", true);
    let _ = std::fs::remove_dir_all(&dir);

    // Materialized first, then streamed.
    let dir = scratch("materialized-first");
    let (materialized_cold, stats) = run_materialized(&spec, &dir);
    assert!(stats.worlds_built > 0, "{stats:?}");
    let (streamed_warm, stats) = run(&spec, &dir);
    assert_streamed(&stats, "materialized then streamed");
    assert_served_from_disk(&stats, "materialized then streamed", false);
    let _ = std::fs::remove_dir_all(&dir);

    // The cold campaigns built every artifact in their own mode; their
    // metrics must agree bit for bit, and so must the warm ones.
    assert_eq!(streamed_cold.len(), 50);
    assert!(streamed_cold.iter().all(Option::is_some));
    assert_eq!(
        streamed_cold, materialized_cold,
        "streaming changed a cell's metrics"
    );
    assert_eq!(materialized_warm, materialized_cold);
    assert_eq!(streamed_warm, streamed_cold);
}

/// A cell's outcome, without its wall-clock and telemetry residue.
fn outcome(r: &CellRecord) -> impl PartialEq + std::fmt::Debug {
    (
        (r.app.clone(), r.scheme.clone()),
        r.status,
        r.attempts,
        r.degraded,
        r.metrics.clone(),
        r.validation,
    )
}

/// The three ways a cell runs — over its app group's shared workbench
/// (the default), on its own attempt thread (any deadline forces one), and
/// submitted to a `CampaignService` — agree cell for cell.
#[test]
fn batched_isolated_and_service_cells_agree() {
    let mut batched = spec();
    // The service resolves schemes by wire name, which hardware points lack.
    batched
        .schemes
        .retain(|s| DesignPoint::named(&s.name).is_some());
    let mut isolated = batched.clone();
    isolated.deadline = Some(Duration::from_secs(3600));
    let run = |spec: &CampaignSpec| -> Vec<CellRecord> {
        let summary =
            run_campaign_with_store(spec, &Arc::new(ArtifactStore::new())).expect("campaign runs");
        assert!(summary.all_ok(), "{}", summary.render());
        summary.records
    };
    let batched = run(&batched);
    let isolated = run(&isolated);

    let service = CampaignService::open(ServiceConfig {
        validate: true,
        queue_capacity: 0,
        degrade_watermarks: [0; 3],
        admission_rate: 0,
        client_window: 0,
        breaker_threshold: 0,
        telemetry: Telemetry::off(),
        ..ServiceConfig::new(TRACE_LEN)
    })
    .expect("service opens");
    let (tx, rx) = mpsc::channel();
    for cell in &batched {
        let tx = tx.clone();
        let submitted = service.submit(0, &cell.app, &cell.scheme, None, move |record| {
            tx.send(record).expect("send");
        });
        assert_eq!(submitted, SubmitOutcome::Accepted);
    }
    drop(tx);
    service.drain();
    let mut served: Vec<CellRecord> = rx.iter().collect();
    served.sort_by_key(|r| {
        batched
            .iter()
            .position(|b| (&b.app, &b.scheme) == (&r.app, &r.scheme))
    });

    assert_eq!(batched.len(), 40);
    let batched: Vec<_> = batched.iter().map(outcome).collect();
    let isolated: Vec<_> = isolated.iter().map(outcome).collect();
    let served: Vec<_> = served.iter().map(outcome).collect();
    assert_eq!(isolated, batched, "an attempt thread changed a cell");
    assert_eq!(served, batched, "the service changed a cell");
}
