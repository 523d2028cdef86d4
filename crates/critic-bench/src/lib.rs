//! Shared scaffolding for the benchmark harness: scaled-down experiment
//! parameters used by both the Criterion benches and smoke tests, the
//! perf-regression harness behind `critic bench` (see [`perf`]), the
//! fault drills behind `critic chaos` / `drill` / `soak` (see [`chaos`],
//! [`drill`], [`soak`]) over one audit library (see [`audit`]), and the service
//! stack behind `critic serve` / `loadgen` / `soak` (see [`serve`],
//! [`loadgen`], [`soak`]) plus the sharded front tier behind
//! `critic router` (see [`router`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod chaos;
pub mod drill;
pub mod loadgen;
pub mod perf;
pub mod router;
pub mod serve;
pub mod soak;

/// Trace length used by Criterion benches (small enough for statistics).
pub const BENCH_TRACE_LEN: usize = 60_000;

/// Apps per suite used by Criterion benches.
pub const BENCH_APPS: usize = 2;
