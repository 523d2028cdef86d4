//! Structural validation of programs and traces.
//!
//! Construction through [`crate::ProgramGenerator`] and the compiler passes
//! guarantees well-formedness, but programs and traces also arrive from
//! disk, from campaign journals, and from the fault-injection harness
//! ([`crate::fault`]). Validation turns every malformed shape those sources
//! can produce into a typed error instead of a later index-out-of-bounds
//! panic deep inside the profiler or simulator.
//!
//! Two levels exist for programs:
//!
//! * [`Program::validate`] — **structural**: ids consistent, control flow
//!   in range, uids unique, CDP covers well-formed. Deliberately does NOT
//!   require every instruction to be encodable, because the `CritIC.Ideal`
//!   design point force-converts chains into hypothetical 16-bit forms
//!   (paper Sec. IV-D) that the simulator consumes by width alone.
//! * [`Program::validate_encoding`] — **strict**: additionally requires
//!   every instruction to pass [`critic_isa::encode()`], i.e. the binary
//!   could really be emitted. Real (non-Ideal) toolchain output must pass
//!   this.

use std::collections::BTreeSet;
use std::fmt;

use critic_isa::{encode, EncodeError, Width, MAX_CDP_CHAIN_LEN};
use serde::{Deserialize, Serialize};

use crate::ids::{BlockId, FuncId, InsnRef, InsnUid};
use crate::path::ExecutionPath;
use crate::program::{Program, Terminator};
use crate::stream::TraceStream;
use crate::trace::{DynInsn, Trace};

/// Longest trace [`Trace::validate`] accepts; anything larger indicates a
/// runaway expansion (a cyclic path or a corrupted journal), not a real
/// recorded window.
pub const MAX_TRACE_LEN: usize = 1 << 26;

/// Why a program failed validation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProgramError {
    /// The program has no functions.
    NoFunctions,
    /// A function owns no blocks (it has no entry).
    EmptyFunction(FuncId),
    /// `blocks[i].id != i` — the arena's invariant is broken.
    BlockIdMismatch {
        /// The index in the arena.
        index: usize,
        /// The id stored there.
        found: BlockId,
    },
    /// A function references a block outside the arena.
    FunctionBlockOutOfRange {
        /// The function.
        func: FuncId,
        /// The out-of-range reference.
        block: BlockId,
    },
    /// A terminator targets a block outside the arena.
    DanglingTerminator {
        /// The block whose terminator dangles.
        from: BlockId,
        /// The out-of-range target.
        target: BlockId,
    },
    /// A call targets a function outside the program.
    DanglingCall {
        /// The calling block.
        from: BlockId,
        /// The out-of-range callee.
        callee: FuncId,
    },
    /// Two instructions share a uid, breaking trace attachment.
    DuplicateUid(InsnUid),
    /// A CDP's cover count is outside `1..=9`.
    BadCdpCover {
        /// Where the CDP sits.
        at: InsnRef,
        /// The malformed cover count.
        covered: i32,
    },
    /// A CDP covers more instructions than remain in its block.
    CdpCoverRunsOffBlock {
        /// Where the CDP sits.
        at: InsnRef,
        /// Its cover count.
        covered: usize,
        /// Instructions actually remaining after it.
        remaining: usize,
    },
    /// A CDP covers a 32-bit instruction (covered code must be 16-bit).
    CdpCoversWideInsn {
        /// Where the CDP sits.
        at: InsnRef,
        /// The covered 32-bit instruction.
        wide_at: InsnRef,
    },
    /// Strict check only: an instruction has no bit-level encoding.
    Unencodable {
        /// Where it sits.
        at: InsnRef,
        /// Why it cannot be encoded.
        source: EncodeError,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::NoFunctions => write!(f, "program has no functions"),
            ProgramError::EmptyFunction(func) => write!(f, "function {func} owns no blocks"),
            ProgramError::BlockIdMismatch { index, found } => {
                write!(f, "arena slot {index} holds block {found}")
            }
            ProgramError::FunctionBlockOutOfRange { func, block } => {
                write!(f, "function {func} references out-of-range block {block}")
            }
            ProgramError::DanglingTerminator { from, target } => {
                write!(
                    f,
                    "terminator of {from} targets out-of-range block {target}"
                )
            }
            ProgramError::DanglingCall { from, callee } => {
                write!(f, "call in {from} targets out-of-range function {callee}")
            }
            ProgramError::DuplicateUid(uid) => write!(f, "uid {uid} appears twice"),
            ProgramError::BadCdpCover { at, covered } => {
                write!(
                    f,
                    "cdp at {at} covers {covered} (must be 1..={MAX_CDP_CHAIN_LEN})"
                )
            }
            ProgramError::CdpCoverRunsOffBlock {
                at,
                covered,
                remaining,
            } => {
                write!(
                    f,
                    "cdp at {at} covers {covered} but only {remaining} instructions remain"
                )
            }
            ProgramError::CdpCoversWideInsn { at, wide_at } => {
                write!(f, "cdp at {at} covers 32-bit instruction at {wide_at}")
            }
            ProgramError::Unencodable { at, source } => {
                write!(f, "instruction at {at} has no encoding: {source}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// Why a trace failed validation against its program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceError {
    /// The trace has no entries.
    Empty,
    /// The trace exceeds [`MAX_TRACE_LEN`].
    Oversized {
        /// The runaway length.
        len: usize,
    },
    /// The trace's length differs from the dynamic instruction count of
    /// the path it claims to record ([`Trace::validate_recorded`]).
    LengthMismatch {
        /// The trace's length.
        len: usize,
        /// What the path executes in the program.
        expected: usize,
    },
    /// An entry references a block outside the program.
    BlockOutOfRange {
        /// The entry's position in the trace.
        step: usize,
        /// The out-of-range block.
        block: BlockId,
    },
    /// An entry's instruction index exceeds its block's length.
    InsnOutOfRange {
        /// The entry's position in the trace.
        step: usize,
        /// The out-of-range reference.
        at: InsnRef,
    },
    /// An entry's uid disagrees with the static instruction it points at.
    UidMismatch {
        /// The entry's position in the trace.
        step: usize,
        /// The uid recorded in the trace.
        found: InsnUid,
        /// The uid of the static instruction at the entry's position.
        expected: InsnUid,
    },
    /// A dependence points at the entry itself or a later entry.
    ForwardDep {
        /// The entry's position in the trace.
        step: usize,
        /// The non-causal dependence index.
        dep: u32,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace is empty"),
            TraceError::Oversized { len } => {
                write!(f, "trace length {len} exceeds the {MAX_TRACE_LEN} cap")
            }
            TraceError::LengthMismatch { len, expected } => {
                write!(
                    f,
                    "trace has {len} entries but its path executes {expected}"
                )
            }
            TraceError::BlockOutOfRange { step, block } => {
                write!(f, "entry {step} references out-of-range block {block}")
            }
            TraceError::InsnOutOfRange { step, at } => {
                write!(f, "entry {step} references out-of-range instruction {at}")
            }
            TraceError::UidMismatch {
                step,
                found,
                expected,
            } => {
                write!(
                    f,
                    "entry {step} carries uid {found} but the program has {expected}"
                )
            }
            TraceError::ForwardDep { step, dep } => {
                write!(f, "entry {step} depends on non-earlier entry {dep}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The uids a [`Program::validate`] scan has met: a bitset over the dense
/// range every generated or compiler-allocated uid falls in, and a set for
/// the few far above it (the marker uids fault injection plants).
struct SeenUids {
    /// Bit `u` set ⇔ uid `u` (< `dense.len() * 64`) was met.
    dense: Vec<u64>,
    far: BTreeSet<u32>,
}

impl SeenUids {
    fn for_program(program: &Program) -> SeenUids {
        let limit = 2 * program.static_insn_count() + 64;
        SeenUids {
            dense: vec![0; limit.div_ceil(64)],
            far: BTreeSet::new(),
        }
    }

    /// Records `uid`; `false` if it was already met.
    fn insert(&mut self, uid: InsnUid) -> bool {
        let u = uid.0 as usize;
        match self.dense.get_mut(u / 64) {
            Some(word) => {
                let bit = 1 << (u % 64);
                let fresh = *word & bit == 0;
                *word |= bit;
                fresh
            }
            None => self.far.insert(uid.0),
        }
    }
}

impl Program {
    /// Checks the program's structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found, in a deterministic
    /// (arena-order) scan.
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.functions.is_empty() {
            return Err(ProgramError::NoFunctions);
        }
        let nblocks = self.blocks.len();
        let nfuncs = self.functions.len();
        for function in &self.functions {
            if function.blocks.is_empty() {
                return Err(ProgramError::EmptyFunction(function.id));
            }
            if let Some(&block) = function.blocks.iter().find(|b| b.index() >= nblocks) {
                return Err(ProgramError::FunctionBlockOutOfRange {
                    func: function.id,
                    block,
                });
            }
        }
        let mut seen_uids = SeenUids::for_program(self);
        for (index, block) in self.blocks.iter().enumerate() {
            if block.id.index() != index {
                return Err(ProgramError::BlockIdMismatch {
                    index,
                    found: block.id,
                });
            }
            let out_of_range = |target: BlockId| target.index() >= nblocks;
            match block.terminator {
                Terminator::Fallthrough(t) | Terminator::Jump(t) if out_of_range(t) => {
                    return Err(ProgramError::DanglingTerminator {
                        from: block.id,
                        target: t,
                    });
                }
                Terminator::Branch {
                    taken, not_taken, ..
                } => {
                    for t in [taken, not_taken] {
                        if out_of_range(t) {
                            return Err(ProgramError::DanglingTerminator {
                                from: block.id,
                                target: t,
                            });
                        }
                    }
                }
                Terminator::Call { callee, return_to } => {
                    if callee.index() >= nfuncs {
                        return Err(ProgramError::DanglingCall {
                            from: block.id,
                            callee,
                        });
                    }
                    if out_of_range(return_to) {
                        return Err(ProgramError::DanglingTerminator {
                            from: block.id,
                            target: return_to,
                        });
                    }
                }
                _ => {}
            }
            for (i, tagged) in block.insns.iter().enumerate() {
                if !seen_uids.insert(tagged.uid) {
                    return Err(ProgramError::DuplicateUid(tagged.uid));
                }
                if let Some(covered) = tagged.insn.cdp_covered_len() {
                    let at = InsnRef::new(block.id, i as u32);
                    if !(1..=MAX_CDP_CHAIN_LEN).contains(&covered) {
                        return Err(ProgramError::BadCdpCover {
                            at,
                            covered: tagged.insn.imm().unwrap_or(0),
                        });
                    }
                    let remaining = block.insns.len() - i - 1;
                    if covered > remaining {
                        return Err(ProgramError::CdpCoverRunsOffBlock {
                            at,
                            covered,
                            remaining,
                        });
                    }
                    for k in 1..=covered {
                        if block.insns[i + k].insn.width() != Width::Thumb16 {
                            return Err(ProgramError::CdpCoversWideInsn {
                                at,
                                wide_at: InsnRef::new(block.id, (i + k) as u32),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks [`Program::validate`] plus bit-level encodability of every
    /// instruction.
    ///
    /// The `CritIC.Ideal` design point intentionally fails this (its
    /// force-converted chains have no real 16-bit encoding) while passing
    /// the structural check — the split is what lets the campaign runner
    /// validate Ideal variants without rejecting them.
    ///
    /// # Errors
    ///
    /// Returns the first structural or [`ProgramError::Unencodable`] error.
    pub fn validate_encoding(&self) -> Result<(), ProgramError> {
        self.validate()?;
        for block in &self.blocks {
            for (i, tagged) in block.insns.iter().enumerate() {
                if let Err(source) = encode(&tagged.insn) {
                    return Err(ProgramError::Unencodable {
                        at: InsnRef::new(block.id, i as u32),
                        source,
                    });
                }
            }
        }
        Ok(())
    }
}

impl Trace {
    /// Checks the trace's invariants against the program it claims to be an
    /// execution of.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] found in stream order.
    pub fn validate(&self, program: &Program) -> Result<(), TraceError> {
        check_len(self.entries.len())?;
        for (step, entry) in self.entries.iter().enumerate() {
            check_entry(program, step, entry)?;
        }
        Ok(())
    }

    /// [`Trace::validate`] for a trace that claims to be `path`'s
    /// expansion over `program`: it must also have exactly
    /// `path.dyn_insns(program)` entries.
    ///
    /// # Errors
    ///
    /// The first [`TraceError`] of [`Trace::validate`], then of
    /// [`ExecutionPath::checked_dyn_insns`], else
    /// [`TraceError::LengthMismatch`].
    pub fn validate_recorded(
        &self,
        program: &Program,
        path: &ExecutionPath,
    ) -> Result<(), TraceError> {
        self.validate(program)?;
        let expected = path.checked_dyn_insns(program)?;
        if self.entries.len() != expected {
            return Err(TraceError::LengthMismatch {
                len: self.entries.len(),
                expected,
            });
        }
        Ok(())
    }
}

impl ExecutionPath {
    /// [`ExecutionPath::dyn_insns`] for a path from outside the program:
    /// every block it visits must be in `program`.
    ///
    /// # Errors
    ///
    /// [`TraceError::BlockOutOfRange`] for the first block outside the
    /// program, at the position its first trace entry would take.
    pub fn checked_dyn_insns(&self, program: &Program) -> Result<usize, TraceError> {
        self.blocks.iter().try_fold(0, |step, &block| {
            let insns = program
                .blocks
                .get(block.index())
                .ok_or(TraceError::BlockOutOfRange { step, block })?;
            Ok(step + insns.len())
        })
    }
}

/// [`Trace::validate`] over a stream: the same checks, entry by entry, in
/// the same order, so it returns the same first error the materialized
/// trace would — without the trace ever being resident. Drains `stream`,
/// which must be fresh (nothing emitted yet).
///
/// # Errors
///
/// Returns the first [`TraceError`] found in stream order.
///
/// # Panics
///
/// Panics if the stream has already emitted entries.
pub fn validate_stream(program: &Program, stream: &mut TraceStream<'_>) -> Result<(), TraceError> {
    assert_eq!(stream.emitted(), 0, "validation requires a fresh stream");
    // The stream knows its length upfront, so the length checks still
    // come first.
    check_len(stream.total_len())?;
    while let Some(window) = stream.next_window() {
        for (i, entry) in window.entries.iter().enumerate() {
            check_entry(program, window.base + i, entry)?;
        }
    }
    Ok(())
}

/// The whole-trace checks: non-empty and within [`MAX_TRACE_LEN`].
fn check_len(len: usize) -> Result<(), TraceError> {
    if len == 0 {
        return Err(TraceError::Empty);
    }
    if len > MAX_TRACE_LEN {
        return Err(TraceError::Oversized { len });
    }
    Ok(())
}

/// The per-entry checks of the entry at position `step`: it resolves to a
/// static instruction carrying its uid, and depends only on earlier
/// entries.
#[inline]
fn check_entry(program: &Program, step: usize, entry: &DynInsn) -> Result<(), TraceError> {
    let block = program
        .blocks
        .get(entry.at.block.index())
        .ok_or(TraceError::BlockOutOfRange {
            step,
            block: entry.at.block,
        })?;
    let tagged = block
        .insns
        .get(entry.at.index as usize)
        .ok_or(TraceError::InsnOutOfRange { step, at: entry.at })?;
    if tagged.uid != entry.uid {
        return Err(TraceError::UidMismatch {
            step,
            found: entry.uid,
            expected: tagged.uid,
        });
    }
    if let Some(dep) = entry.deps_iter().find(|&d| d as usize >= step) {
        return Err(TraceError::ForwardDep { step, dep });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use critic_isa::{Insn, Opcode, Reg};

    use super::*;
    use crate::generate::ProgramGenerator;
    use crate::params::GenParams;
    use crate::program::TaggedInsn;

    fn generated() -> Program {
        let mut p = GenParams::mobile(23);
        p.num_functions = 10;
        ProgramGenerator::new(p).generate()
    }

    #[test]
    fn generated_programs_validate() {
        let program = generated();
        program.validate().expect("generator output is structural");
        program
            .validate_encoding()
            .expect("generator output is encodable");
    }

    #[test]
    fn expanded_traces_validate() {
        let program = generated();
        let path = ExecutionPath::generate(&program, 3, 5_000);
        let trace = Trace::expand(&program, &path);
        trace
            .validate(&program)
            .expect("expander output is well-formed");
    }

    #[test]
    fn recorded_traces_must_have_their_paths_length() {
        let program = generated();
        let path = ExecutionPath::generate(&program, 3, 5_000);
        let mut trace = Trace::expand(&program, &path);
        trace
            .validate_recorded(&program, &path)
            .expect("an expansion records its path");
        // A repeated tail entry passes every per-entry check.
        let expected = trace.len();
        trace.entries.push(trace.entries[expected - 1]);
        trace.validate(&program).expect("entries still check");
        assert_eq!(
            trace.validate_recorded(&program, &path),
            Err(TraceError::LengthMismatch {
                len: expected + 1,
                expected
            })
        );
        // A path block outside the program is an error, not a panic, at
        // the position its entries would start.
        let mut stray = path.clone();
        let outside = BlockId(program.blocks.len() as u32);
        stray.blocks.insert(1, outside);
        let step = program.block(path.blocks[0]).len();
        assert_eq!(
            stray.checked_dyn_insns(&program),
            Err(TraceError::BlockOutOfRange {
                step,
                block: outside
            })
        );
        assert_eq!(path.checked_dyn_insns(&program), Ok(expected));
    }

    #[test]
    fn streamed_validation_agrees_with_materialized() {
        use crate::stream::StreamConfig;
        let program = generated();
        let path = ExecutionPath::generate(&program, 3, 5_000);
        for window in [1, 64, 4_096, 1 << 20] {
            let mut stream = TraceStream::new(&program, &path, StreamConfig::with_window(window));
            validate_stream(&program, &mut stream).expect("expander output is well-formed");
            assert_eq!(
                stream.emitted(),
                stream.total_len(),
                "the check drains the stream"
            );
        }
        // Against the wrong program both checks fail, with the same first
        // error.
        let mut other = generated();
        let block = other
            .blocks
            .iter()
            .position(|b| !b.insns.is_empty())
            .expect("some block has an instruction");
        other.blocks[block].insns[0].uid = InsnUid(9_999_994);
        let trace = Trace::expand(&program, &path);
        let materialized = trace.validate(&other);
        let mut stream = TraceStream::new(&program, &path, StreamConfig::with_window(64));
        let streamed = validate_stream(&other, &mut stream);
        if materialized.is_ok() {
            assert_eq!(streamed, Ok(()), "the edited block never ran");
        } else {
            assert_eq!(streamed, materialized);
        }
    }

    #[test]
    fn empty_trace_is_rejected() {
        let program = generated();
        let trace = Trace {
            name: "empty".into(),
            entries: Vec::new(),
        };
        assert_eq!(trace.validate(&program), Err(TraceError::Empty));
    }

    #[test]
    fn dangling_terminator_is_caught() {
        let mut program = generated();
        let bogus = BlockId(program.blocks.len() as u32 + 17);
        program.blocks[0].terminator = Terminator::Jump(bogus);
        assert!(matches!(
            program.validate(),
            Err(ProgramError::DanglingTerminator { target, .. }) if target == bogus
        ));
    }

    #[test]
    fn duplicate_uid_is_caught() {
        let mut program = generated();
        let block = program
            .blocks
            .iter()
            .position(|b| b.insns.len() >= 2)
            .expect("some block has two instructions");
        let uid = program.blocks[block].insns[0].uid;
        program.blocks[block].insns[1].uid = uid;
        assert_eq!(program.validate(), Err(ProgramError::DuplicateUid(uid)));
    }

    /// A uid far above the dense range, like fault injection's markers.
    const FAR: InsnUid = InsnUid(0xF000_0001);

    #[test]
    fn far_duplicate_uid_is_caught() {
        let mut program = generated();
        let last = program.blocks.len() - 1;
        program.blocks[0].insns[0].uid = FAR;
        program.validate().expect("one far uid is no duplicate");
        let end = program.blocks[last].insns.len() - 1;
        program.blocks[last].insns[end].uid = FAR;
        assert_eq!(program.validate(), Err(ProgramError::DuplicateUid(FAR)));
    }

    #[test]
    fn first_duplicate_in_arena_order_is_reported() {
        // Two duplicates, one far and one dense, in both arena orders: the
        // scan must report whichever repeats first, whatever the uids.
        let base = generated();
        let last = base.blocks.len() - 1;
        let dense = base.blocks[last].insns[0].uid;
        for (first, second) in [(FAR, dense), (dense, FAR)] {
            let mut program = base.clone();
            // `first` repeats in blocks 0 and 1, `second` in the last two.
            program.blocks[0].insns[0].uid = first;
            program.blocks[1].insns[0].uid = first;
            let end = program.blocks[last].insns.len() - 1;
            program.blocks[last - 1].insns[0].uid = second;
            program.blocks[last].insns[end].uid = second;
            assert_eq!(program.validate(), Err(ProgramError::DuplicateUid(first)));
        }
    }

    #[test]
    fn overlong_cdp_cover_is_caught() {
        let mut program = generated();
        program.blocks[0]
            .insns
            .insert(0, TaggedInsn::new(Insn::cdp_raw(12), InsnUid(9_999_990)));
        assert!(matches!(
            program.validate(),
            Err(ProgramError::BadCdpCover { covered: 12, .. })
        ));
    }

    #[test]
    fn cdp_off_the_block_end_is_caught() {
        let mut program = generated();
        let block = &mut program.blocks[0];
        block
            .insns
            .push(TaggedInsn::new(Insn::cdp_raw(4), InsnUid(9_999_991)));
        assert!(matches!(
            program.validate(),
            Err(ProgramError::CdpCoverRunsOffBlock {
                covered: 4,
                remaining: 0,
                ..
            })
        ));
    }

    #[test]
    fn cdp_covering_wide_insn_is_caught() {
        let mut program = generated();
        let block = program
            .blocks
            .iter()
            .position(|b| !b.insns.is_empty() && b.insns[0].insn.width() == Width::Arm32)
            .expect("some block starts with a 32-bit instruction");
        program.blocks[block]
            .insns
            .insert(0, TaggedInsn::new(Insn::cdp_raw(1), InsnUid(9_999_992)));
        assert!(matches!(
            program.validate(),
            Err(ProgramError::CdpCoversWideInsn { .. })
        ));
    }

    #[test]
    fn strict_check_rejects_unencodable_imm() {
        let mut program = generated();
        program.blocks[0].insns.insert(
            0,
            TaggedInsn::new(
                Insn::alu_imm(Opcode::Add, Reg::R0, Reg::R1, 100_000),
                InsnUid(9_999_993),
            ),
        );
        program.validate().expect("structurally fine");
        assert!(matches!(
            program.validate_encoding(),
            Err(ProgramError::Unencodable {
                source: EncodeError::ImmOutOfRange(100_000),
                ..
            })
        ));
    }

    #[test]
    fn trace_mismatch_against_wrong_program_is_caught() {
        let program = generated();
        let path = ExecutionPath::generate(&program, 3, 2_000);
        let trace = Trace::expand(&program, &path);
        // Truncate the program: the trace now refers past the arena.
        let mut truncated = program.clone();
        truncated.blocks.truncate(1);
        truncated.functions.truncate(1);
        truncated.functions[0].blocks.retain(|b| b.index() < 1);
        if truncated.functions[0].blocks.is_empty() {
            truncated.functions[0].blocks.push(BlockId(0));
        }
        assert!(trace.validate(&truncated).is_err());
    }

    #[test]
    fn forward_dep_is_caught() {
        let program = generated();
        let path = ExecutionPath::generate(&program, 3, 2_000);
        let mut trace = Trace::expand(&program, &path);
        trace.entries[0].deps[0] = 5;
        assert_eq!(
            trace.validate(&program),
            Err(TraceError::ForwardDep { step: 0, dep: 5 })
        );
    }

    #[test]
    fn errors_render_useful_messages() {
        let message = ProgramError::DanglingTerminator {
            from: BlockId(3),
            target: BlockId(99),
        }
        .to_string();
        assert!(message.contains("bb3") && message.contains("bb99"));
        let message = TraceError::UidMismatch {
            step: 7,
            found: InsnUid(1),
            expected: InsnUid(2),
        }
        .to_string();
        assert!(message.contains('7') && message.contains("i1") && message.contains("i2"));
    }
}
