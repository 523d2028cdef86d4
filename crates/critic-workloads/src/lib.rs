//! Synthetic workload substrate for the CritICs reproduction.
//!
//! The paper profiles ten Play-Store Android apps plus SPEC CPU2006
//! int/float subsets through QEMU/AOSP emulation. Neither the apps, the
//! emulator traces, nor the hardware are available here, so this crate
//! builds the closest synthetic equivalent (see `DESIGN.md` §2):
//!
//! 1. a **static program generator** ([`generate`]) that emits an ARM-like
//!    binary — functions, basic blocks, instructions with genuine register
//!    def-use structure — from per-suite parameters ([`params`]) that encode
//!    the paper's measured characteristics (Fig. 1b gap histogram, Fig. 3c
//!    latency mix, Fig. 5a chain length/spread, i-cache footprint, call
//!    rate);
//! 2. an **execution-path generator** ([`path`]) that walks the control-flow
//!    graph with seeded randomness, producing a block-level path that is
//!    *independent of instruction layout* — the compiler passes in
//!    `critic-compiler` rewrite block bodies but never the CFG, so the same
//!    path replays over the original and optimized binaries;
//! 3. a **trace expander** ([`trace`]) that turns (program, path) into the
//!    dynamic instruction stream with register dependences resolved, memory
//!    addresses attached, and branch outcomes recorded — the input format of
//!    the `critic-pipeline` timing model and the `critic-profiler` analyses;
//!    its [`ArchWalk`] yields the same instructions and memory addresses
//!    without the timing model's bookkeeping, for the translation
//!    validator in `critic-compiler`.
//!
//! # Example
//!
//! ```
//! use critic_workloads::suite::Suite;
//! use critic_workloads::{ExecutionPath, Trace};
//!
//! let app = Suite::Mobile.apps()[0].clone(); // Acrobat
//! let program = app.generate_program();
//! let path = ExecutionPath::generate(&program, app.path_seed(), 20_000);
//! let trace = Trace::expand(&program, &path);
//! assert!(trace.len() >= 19_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod fault;
pub mod generate;
pub mod ids;
pub mod params;
pub mod path;
pub mod program;
pub mod stream;
pub mod suite;
pub mod sysfault;
pub mod trace;
pub mod validate;

pub use fault::{inject_program, inject_trace, inject_variant, Fault, FaultTarget, InjectError};
pub use generate::ProgramGenerator;
pub use ids::{BlockId, FuncId, InsnRef, InsnUid};
pub use params::GenParams;
pub use path::ExecutionPath;
pub use program::{BasicBlock, Function, Layout, Program, TaggedInsn, Terminator};
pub use stream::{
    StreamBuffers, StreamConfig, StreamPrep, StreamWindow, TraceStream, DEFAULT_LOOKAHEAD,
    DEFAULT_STREAM_WINDOW,
};
pub use suite::{AppSpec, Suite};
pub use sysfault::{SysFault, SysFaultSpec, SysInjector, SysOp};
pub use trace::{ArchStep, ArchWalk, BranchOutcome, DynInsn, Trace, NO_DEP};
pub use validate::{validate_stream, ProgramError, TraceError, MAX_TRACE_LEN};
