//! Top-level facade of the CritICs reproduction: design points, the
//! experiment runner, and one function per table/figure of the paper's
//! evaluation.
//!
//! The crate ties the substrates together:
//!
//! * [`design`] — every hardware/software configuration the paper
//!   evaluates (Fig. 1a baselines, Fig. 10 design space, Fig. 11 hardware
//!   mechanisms and their CritIC combinations, Fig. 13 conversion
//!   schemes), expressed as composable [`design::DesignPoint`]s;
//! * [`runner`] — the [`runner::Workbench`]: generates an app's binary
//!   once, records one execution path, then replays that same input over
//!   every compiled/configured variant — the paper's "same parts for all
//!   the optimizations evaluated";
//! * [`experiments`] — typed row producers for every table and figure,
//!   all run through one executor ([`experiments::FigureRun`]: a shared
//!   store and a worker pool) and consumed by the `figures` binary in
//!   `critic-bench`.
//!
//! # Example
//!
//! ```no_run
//! use critic_core::design::DesignPoint;
//! use critic_core::runner::Workbench;
//! use critic_workloads::suite::Suite;
//!
//! let app = &Suite::Mobile.apps()[0];
//! let mut bench = Workbench::new(app, 100_000);
//! let base = bench.run(&DesignPoint::baseline());
//! let critic = bench.run(&DesignPoint::critic());
//! println!("speedup: {:.3}", critic.sim.speedup_over(&base.sim));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod campaign;
pub mod design;
pub mod disk;
pub mod error;
pub mod experiments;
pub mod journal;
pub mod keys;
pub mod ring;
pub mod runner;
pub mod service;
pub mod store;

pub use campaign::{
    run_campaign, run_campaign_with_store, CampaignSpec, CampaignStoreRecord, CampaignSummary,
    CampaignTelemetryRecord, CellMetrics, CellRecord, CellStatus, PlannedFault, Scheme,
    SupervisionPolicy,
};
pub use design::{DesignPoint, Software};
pub use disk::{DiskStore, DiskStoreStats, StoreError};
pub use error::RunError;
pub use journal::{Journal, JournalError, ReplayedJournal, RunRollup};
pub use keys::{crc32, stable_key, KEY_FORMAT_VERSION};
pub use ring::{placement_key, HashRing, DEFAULT_VNODES};
pub use runner::{RunOutcome, ValidationStats, Workbench};
pub use service::{
    Breaker, BreakerDecision, CampaignService, ClientWindows, ServiceConfig, SubmitOutcome,
    TokenBucket, WorkPool,
};
pub use store::{ArtifactStore, StoreStats, World, WorldKey};

/// Recovers the guard from a poisoned lock. All state behind this crate's
/// locks (campaign queues and records, store slots, service queues and
/// counters, the disk index, the journal's active segment) is only mutated
/// by whole-value operations, so a thread that panicked mid-cell cannot
/// leave it half-written; giving up the state because a *sibling* panicked
/// would silently drop work.
pub(crate) fn lock_clean<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Default dynamic instructions per app for full experiments (the paper
/// samples ~50M over 100 samples; we use one contiguous window per app,
/// scaled to laptop time).
pub const DEFAULT_TRACE_LEN: usize = 240_000;

/// Shorter windows for smoke tests and doc examples.
pub const SMOKE_TRACE_LEN: usize = 40_000;
