//! The offline CritIC profiler (paper Sec. III-A and Fig. 7).
//!
//! The paper's pipeline is: run the app under emulation, feed the
//! instruction stream through a modified gem5 that observes each
//! instruction's ROB fan-out, dump all independently-schedulable
//! *Instruction Chains* (ICs), then aggregate offline (they used Spark) to
//! keep the highest-coverage chains whose **average fan-out per
//! instruction** crosses the criticality threshold (8). This crate performs
//! the same analysis over `critic-workloads` traces, in process:
//!
//! * [`critical`] — per-instruction criticality marking (fanout ≥ 8) and
//!   Fig. 1a's critical-instruction fractions;
//! * [`dfg`] — a compact forward def-use graph (CSR) over the trace;
//! * [`gaps`] — Fig. 1b: how many low-fanout instructions sit between two
//!   successive critical instructions in a dependence chain;
//! * [`chains`] — IC extraction, both the unconstrained dynamic form used
//!   for Fig. 5a's length/spread characterization and the block-contained
//!   form the optimizer consumes (any sub-path of an IC is an IC, Sec.
//!   III-A);
//! * [`profile`] — CritIC selection: dedupe chains by static identity, rank
//!   by dynamic coverage, apply the length cap and the all-or-nothing
//!   Thumb-convertibility filter, and emit the [`Profile`] the compiler
//!   pass consumes (Fig. 5b's coverage CDF also falls out here).
//!
//! # Example
//!
//! ```
//! use critic_profiler::{ProfilerConfig, Profiler};
//! use critic_workloads::{ExecutionPath, Trace};
//! use critic_workloads::suite::Suite;
//!
//! let mut app = Suite::Mobile.apps()[0].clone();
//! app.params.num_functions = 24;
//! let program = app.generate_program();
//! let path = ExecutionPath::generate(&program, 7, 20_000);
//! let trace = Trace::expand(&program, &path);
//!
//! let profiler = Profiler::new(ProfilerConfig::default());
//! let profile = profiler.build_profile(&program, &trace);
//! assert!(!profile.chains.is_empty(), "mobile apps are full of CritICs");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod chains;
pub mod critical;
pub mod dfg;
pub mod error;
pub mod gaps;
pub mod io;
pub mod profile;

pub use chains::{ChainShape, DynChain};
pub use critical::CriticalitySummary;
pub use dfg::Dfg;
pub use error::ProfileError;
pub use gaps::GapHistogram;
pub use io::{load_profile, save_profile};
pub use profile::{ChainSpec, Profile, ProfileFold, Profiler, ProfilerConfig};
