//! The ART-style binary rewriting passes (paper Sec. III-B/C, IV-A/B, V).
//!
//! The paper adds one final pass to the Android Runtime compiler: it visits
//! every CritIC of the optimized DFG, **hoists** the chain's instructions
//! into a contiguous run, **re-encodes** them in the 16-bit Thumb format
//! (all or nothing), and emits a **format switch** for the decoder — either
//! the stock branch-pair mechanism (runs on today's hardware, Sec. IV-A) or
//! the extended CDP mnemonic whose 3-bit argument covers up to 9 following
//! 16-bit instructions (Sec. IV-B). This crate implements that pass plus
//! the two criticality-agnostic conversion baselines of Sec. V:
//!
//! * [`critic_pass`] — the CritIC instrumentation pass, with hoist-only
//!   (`Hoist`), conversion with either switch mechanism, and the
//!   `CritIC.Ideal` force-convert variant;
//! * [`opp16`] — **OPP16**: opportunistically converts every run of ≥ 3
//!   consecutive convertible instructions, never reordering;
//! * [`compress`] — the Fine-Grained Thumb Conversion heuristic of
//!   Krishnaswamy & Gupta (LCTES'02): whole-function conversion, accepting
//!   the instruction-count expansion that two-address Thumb forces on
//!   three-address code.
//!
//! Passes preserve every instruction's stable uid (inserted switches get
//! fresh uids), so the trace expander replays the same input over the
//! rewritten binary — the paper's "same parts for all the optimizations
//! evaluated".
//!
//! # Example
//!
//! ```
//! use critic_compiler::{apply_critic_pass, CriticPassOptions};
//! use critic_profiler::{Profiler, ProfilerConfig};
//! use critic_workloads::{ExecutionPath, Trace};
//! use critic_workloads::suite::Suite;
//!
//! let mut app = Suite::Mobile.apps()[0].clone();
//! app.params.num_functions = 24;
//! let program = app.generate_program();
//! let path = ExecutionPath::generate(&program, 7, 20_000);
//! let trace = Trace::expand(&program, &path);
//! let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &path, &trace);
//!
//! let mut optimized = program.clone();
//! let report = apply_critic_pass(&mut optimized, &profile, CriticPassOptions::default());
//! assert!(report.chains_applied > 0);
//! assert!(optimized.code_bytes() < program.code_bytes(), "thumbing shrinks the binary");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod compress;
pub mod critic_pass;
pub mod error;
pub mod opp16;
pub mod report;
pub mod uid;
pub mod validate;

pub use compress::{apply_compress, try_apply_compress};
pub use critic_pass::{
    apply_critic_pass, chain_rewrite_is_sound, hoist_is_legal, try_apply_critic_pass,
    CriticPassOptions, SwitchMode,
};
pub use error::PassError;
pub use opp16::{apply_opp16, try_apply_opp16};
pub use report::PassReport;
pub use uid::UidAllocator;
pub use validate::{
    validate_transform, BaselineExecution, DivergenceKind, ValidationError, ValidationReport,
};
