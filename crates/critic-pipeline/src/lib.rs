//! Cycle-level out-of-order superscalar CPU model (the paper's Table I core).
//!
//! A trace-driven timing model of a 4-wide Fetch/Decode/Rename/ROB/Issue/
//! Execute/Commit pipeline with a 128-entry ROB and a 4K-entry two-level
//! branch predictor, attached to the `critic-mem` hierarchy. Beyond plain
//! timing it implements exactly the instrumentation the paper's analysis
//! needs:
//!
//! * **fetch-stall taxonomy** (Sec. II-D): every cycle the fetch stage
//!   delivers nothing is attributed to either *F.StallForI* (waiting for
//!   instruction supply — i-cache misses, branch redirect/misprediction) or
//!   *F.StallForR+D* (the fetch buffer is full because the rest of the
//!   pipeline exerts back-pressure);
//! * **per-stage residency accounting** for Fig. 3a's fetch-to-commit
//!   breakdown, aggregated separately for high-fanout (critical)
//!   instructions;
//! * **criticality hooks**: a PC-indexed predictor table trained with
//!   observed ROB fanout (Sec. II-A), used by the two single-instruction
//!   baselines the paper critiques — critical-load prefetching (via the
//!   CLPT in `critic-mem`) and critical-first issue prioritization
//!   ([`CpuConfig::prioritize_critical`], the `BackendPrio` of Fig. 11);
//! * **format-switch costs**: the CDP decode bubble of switching approach 2
//!   and the full pipeline cost of the branch-pair switch of approach 1.
//!
//! Wrong-path execution is approximated: on a mispredicted branch, fetch
//! stalls until the branch resolves and then pays a redirect penalty —
//! wrong-path instructions do not pollute the caches. This is the standard
//! trace-driven simplification; it preserves every effect the paper's
//! experiments measure.
//!
//! Every run reads its instructions through one bounded column ring
//! ([`stream_sim`]), whatever feeds it: [`Simulator::run_streamed`] fills
//! it from a [`critic_workloads::TraceStream`], [`Simulator::run`] and
//! [`Simulator::run_with_ledger`] decode a materialized trace into it
//! slice by slice, and [`Simulator::run_decoded`] copies an existing
//! [`DecodedTrace`] into it. A run's working memory is one recycled
//! [`SimScratch`] and stays O(ROB + window), not O(trace).
//!
//! # Example
//!
//! ```
//! use critic_pipeline::{CpuConfig, Simulator};
//! use critic_mem::MemConfig;
//! use critic_workloads::{ExecutionPath, Trace};
//! use critic_workloads::suite::Suite;
//!
//! let mut app = Suite::Mobile.apps()[0].clone();
//! app.params.num_functions = 24; // keep the doctest fast
//! let program = app.generate_program();
//! let path = ExecutionPath::generate(&program, 1, 10_000);
//! let trace = Trace::expand(&program, &path);
//! let fanout = trace.compute_fanout();
//!
//! let result = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet())
//!     .run(&trace, &fanout);
//! assert!(result.cycles > 0);
//! assert!(result.ipc() > 0.1 && result.ipc() < 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpu;
pub mod config;
pub mod crit;
pub mod reference;
pub mod sim;
pub mod stats;
pub mod stream_sim;

pub use bpu::{Bpu, BpuStats};
pub use config::{CpuConfig, FuPool};
pub use crit::CritTable;
pub use critic_obs::{CycleClass, CycleLedger};
pub use reference::run_reference;
pub use sim::{DecodedTrace, SimEngine, SimScratch, Simulator};
pub use stats::{FetchStalls, SimResult, StageBreakdown};
pub use stream_sim::{StreamRunStats, StreamScratch};
