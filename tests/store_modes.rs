//! Cross-mode store battery: a streamed campaign and a materialized one
//! produce bit-identical cell metrics, and because their profile and
//! baseline builders fill the same memo slots and disk keys, a persistent
//! store warmed in either mode serves the other without building anything.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use critics::core::campaign::{run_campaign_with_store, CampaignSpec, CellMetrics, Scheme};
use critics::core::design::DesignPoint;
use critics::core::store::{ArtifactStore, StoreStats};
use critics::obs::Telemetry;
use critics::workloads::suite::Suite;

const TRACE_LEN: usize = 40_000;
const WINDOW: usize = 4_096;

/// The 10 mobile apps × {critic, hoist, opp16, ideal, a Fig. 11 hardware
/// point}, validated.
fn spec(stream_window: Option<usize>) -> CampaignSpec {
    let schemes = vec![
        Scheme::new("critic", DesignPoint::critic()),
        Scheme::new("hoist", DesignPoint::hoist()),
        Scheme::new("opp16", DesignPoint::opp16()),
        Scheme::new("ideal", DesignPoint::critic_ideal()),
        Scheme::new("hw-4xic", DesignPoint::quad_icache()),
    ];
    let mut spec = CampaignSpec::new(Suite::Mobile.apps(), schemes, TRACE_LEN);
    spec.validate = true;
    spec.stream_window = stream_window;
    spec
}

/// Runs `spec` over a fresh persistent store at `dir`; returns the cells'
/// metrics in grid order and the store's counters.
fn run(spec: &CampaignSpec, dir: &Path) -> (Vec<Option<CellMetrics>>, StoreStats) {
    let store = Arc::new(ArtifactStore::persistent(dir, None, Telemetry::off()).expect("store"));
    let summary = run_campaign_with_store(spec, &store).expect("campaign runs");
    assert!(summary.all_ok(), "{}", summary.render());
    let metrics = summary.records.iter().map(|r| r.metrics.clone()).collect();
    (metrics, store.stats())
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("critic-store-modes-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Checks a campaign that ran over a store the other mode warmed: every
/// profile and baseline it needed came off disk (`*_built` counts disk
/// loads too, so each must be matched by a disk hit), and nothing was
/// rebuilt or saved.
fn assert_served_from_disk(stats: &StoreStats, order: &str) {
    let disk = stats.disk.expect("persistent store has disk stats");
    assert_eq!(disk.saves, 0, "{order}: the warm campaign saved: {stats:?}");
    assert_eq!(
        disk.disk_misses, 0,
        "{order}: the warm campaign missed: {stats:?}"
    );
    assert!(
        disk.disk_hits > 0,
        "{order}: nothing came off disk: {stats:?}"
    );
    assert_eq!(
        disk.disk_hits,
        stats.profiles_built + stats.baselines_built,
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
    let streamed = spec(Some(WINDOW));
    let materialized = spec(None);

    // Streamed first, then materialized over the same directory.
    let dir = scratch("streamed-first");
    let (streamed_cold, stats) = run(&streamed, &dir);
    assert_streamed(&stats, "streamed cold");
    let (materialized_warm, stats) = run(&materialized, &dir);
    assert_served_from_disk(&stats, "streamed then materialized");
    let _ = std::fs::remove_dir_all(&dir);

    // Materialized first, then streamed.
    let dir = scratch("materialized-first");
    let (materialized_cold, stats) = run(&materialized, &dir);
    assert!(stats.worlds_built > 0, "{stats:?}");
    let (streamed_warm, stats) = run(&streamed, &dir);
    assert_streamed(&stats, "materialized then streamed");
    assert_served_from_disk(&stats, "materialized then streamed");
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
