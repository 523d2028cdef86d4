//! Deterministic fault injection for programs and traces.
//!
//! The campaign runner's robustness contract is "typed errors, never
//! panics" for any malformed input a buggy toolchain, a truncated journal,
//! or a corrupted profile could produce. This module manufactures exactly
//! those inputs: each [`Fault`] is one corruption, applied at a
//! seed-determined site so a failing campaign cell can be reproduced from
//! its journal record alone.
//!
//! Faults map onto the error taxonomy of [`crate::validate`] and
//! [`critic_isa::EncodeError`]:
//!
//! | fault                 | expected detection                                  |
//! |-----------------------|-----------------------------------------------------|
//! | `IllegalImmediate`    | `EncodeError::ImmOutOfRange` / `Unencodable`        |
//! | `IllegalRegister`     | `EncodeError::UnencodableRegister` / `Unencodable`  |
//! | `OversizedCdp`        | `ProgramError::BadCdpCover`                         |
//! | `TruncateBlock`       | `CdpCoverRunsOffBlock` or a `TraceError`            |
//! | `ScrambleBlock`       | `CdpCoversWideInsn` or a `TraceError`               |
//! | `DanglingTerminator`  | `ProgramError::DanglingTerminator`                  |
//! | `DuplicateUid`        | `ProgramError::DuplicateUid`                        |
//! | `EmptyTrace`          | `TraceError::Empty`                                 |
//! | `OversizeTrace`       | `TraceError::LengthMismatch`                        |
//! | `ForwardDep`          | `TraceError::ForwardDep`                            |
//!
//! A second family — the *miscompile* faults, [`FaultTarget::Variant`] —
//! corrupts a CritIC-transformed variant in ways every static check above
//! accepts: the program still encodes, the trace still expands and
//! validates, yet the variant computes something different from the
//! baseline. Only the differential oracle (`critic-compiler`'s `validate`
//! module) can catch them, which is exactly what they exist to prove:
//!
//! | fault                  | silent corruption                                  |
//! |------------------------|----------------------------------------------------|
//! | `ClobberedDestination` | a converted member writes the wrong register       |
//! | `DroppedMember`        | a covered member vanishes (cover count fixed up)   |
//! | `ReorderedStore`       | a store swaps with the producer of its value       |
//! | `WrongThumbImmediate`  | an immediate is perturbed within Thumb's field     |
//! | `StaleSource`          | a source operand reads a different register        |
//! | `BadCdpLength`         | a CDP cover shrinks, leaving a member uncovered    |

use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;

use critic_isa::{Insn, InsnBuilder, Opcode, Reg, Width};
use serde::{Deserialize, Serialize};

use crate::ids::{BlockId, InsnUid};
use crate::program::{Program, TaggedInsn, Terminator};
use crate::trace::Trace;

/// One kind of input corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Rewrites an instruction's immediate far outside every field width.
    IllegalImmediate,
    /// Inserts an instruction using the PC as an explicit operand.
    IllegalRegister,
    /// Inserts a CDP format switch whose cover count exceeds 9.
    OversizedCdp,
    /// Drops the tail of a basic block (truncated chain / covered region).
    TruncateBlock,
    /// Reverses a block's instructions (non-contiguous hoists, covers over
    /// 32-bit instructions).
    ScrambleBlock,
    /// Redirects a terminator at a block outside the arena.
    DanglingTerminator,
    /// Copies one instruction's uid onto its neighbour.
    DuplicateUid,
    /// Deletes every trace entry.
    EmptyTrace,
    /// Duplicates the trace's tail until it exceeds `max(len*2, 4096)`
    /// entries (a runaway expansion in miniature).
    OversizeTrace,
    /// Points a trace dependence at a later entry.
    ForwardDep,
    /// Miscompile: rewrites a converted chain member's destination to a
    /// different (still Thumb-addressable) register.
    ClobberedDestination,
    /// Miscompile: deletes one CDP-covered chain member and shrinks the
    /// cover count to match, so the region still decodes.
    DroppedMember,
    /// Miscompile: swaps a store with the nearest preceding producer of its
    /// value register (same encoding width, so the binary layout is intact).
    ReorderedStore,
    /// Miscompile: perturbs an ALU immediate while staying inside Thumb's
    /// field limits.
    WrongThumbImmediate,
    /// Miscompile: replaces a source operand with a different register.
    StaleSource,
    /// Miscompile: decrements a CDP cover count, leaving the last covered
    /// 16-bit instruction undecodable as Thumb.
    BadCdpLength,
}

/// What a fault corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTarget {
    /// The static program.
    Program,
    /// The dynamic trace.
    Trace,
    /// A compiled (transformed) program variant — a silent miscompile only
    /// the differential oracle can see.
    Variant,
}

/// Why a fault could not be applied.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectError {
    /// The input has no site the fault applies to (e.g. no block with
    /// enough instructions).
    NoSite(Fault),
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::NoSite(fault) => write!(f, "no injection site for fault `{fault}`"),
        }
    }
}

impl std::error::Error for InjectError {}

impl Fault {
    /// Every fault, for exhaustive harness sweeps.
    pub const ALL: [Fault; 16] = [
        Fault::IllegalImmediate,
        Fault::IllegalRegister,
        Fault::OversizedCdp,
        Fault::TruncateBlock,
        Fault::ScrambleBlock,
        Fault::DanglingTerminator,
        Fault::DuplicateUid,
        Fault::EmptyTrace,
        Fault::OversizeTrace,
        Fault::ForwardDep,
        Fault::ClobberedDestination,
        Fault::DroppedMember,
        Fault::ReorderedStore,
        Fault::WrongThumbImmediate,
        Fault::StaleSource,
        Fault::BadCdpLength,
    ];

    /// The miscompile family: silent variant corruptions for the oracle.
    pub const MISCOMPILES: [Fault; 6] = [
        Fault::ClobberedDestination,
        Fault::DroppedMember,
        Fault::ReorderedStore,
        Fault::WrongThumbImmediate,
        Fault::StaleSource,
        Fault::BadCdpLength,
    ];

    /// Which artifact this fault corrupts.
    pub fn target(self) -> FaultTarget {
        match self {
            Fault::EmptyTrace | Fault::OversizeTrace | Fault::ForwardDep => FaultTarget::Trace,
            Fault::ClobberedDestination
            | Fault::DroppedMember
            | Fault::ReorderedStore
            | Fault::WrongThumbImmediate
            | Fault::StaleSource
            | Fault::BadCdpLength => FaultTarget::Variant,
            _ => FaultTarget::Program,
        }
    }

    /// The kebab-case name used on the command line and in journals.
    pub fn name(self) -> &'static str {
        match self {
            Fault::IllegalImmediate => "illegal-immediate",
            Fault::IllegalRegister => "illegal-register",
            Fault::OversizedCdp => "oversized-cdp",
            Fault::TruncateBlock => "truncate-block",
            Fault::ScrambleBlock => "scramble-block",
            Fault::DanglingTerminator => "dangling-terminator",
            Fault::DuplicateUid => "duplicate-uid",
            Fault::EmptyTrace => "empty-trace",
            Fault::OversizeTrace => "oversize-trace",
            Fault::ForwardDep => "forward-dep",
            Fault::ClobberedDestination => "clobbered-destination",
            Fault::DroppedMember => "dropped-member",
            Fault::ReorderedStore => "reordered-store",
            Fault::WrongThumbImmediate => "wrong-thumb-immediate",
            Fault::StaleSource => "stale-source",
            Fault::BadCdpLength => "bad-cdp-length",
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Fault {
    type Err = String;

    fn from_str(s: &str) -> Result<Fault, String> {
        Fault::ALL
            .iter()
            .copied()
            .find(|f| f.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Fault::ALL.iter().map(|f| f.name()).collect();
                format!("unknown fault `{s}` (valid: {})", names.join(", "))
            })
    }
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick<T>(items: &[T], seed: u64) -> Option<usize> {
    if items.is_empty() {
        None
    } else {
        Some((mix(seed) % items.len() as u64) as usize)
    }
}

/// The uid an injected instruction takes: the program's next dense one, so
/// only the fault itself (not its uid) fails validation.
pub(crate) fn next_uid(program: &Program) -> InsnUid {
    InsnUid(u32::try_from(program.uid_bound()).unwrap_or(u32::MAX))
}

/// A corruption site every execution reaches: the entry block when it has
/// at least two instructions (every path visits it), else a seed-picked
/// fallback. Faults detected only through the trace cross-check (truncation,
/// scrambling) use this so the corruption cannot land in dead code.
fn executed_site(program: &Program, seed: u64) -> Option<usize> {
    let entry = program.functions.first()?.blocks.first()?.index();
    if program
        .blocks
        .get(entry)
        .is_some_and(|b| b.insns.len() >= 2)
    {
        return Some(entry);
    }
    let sites: Vec<usize> = (0..program.blocks.len())
        .filter(|&b| program.blocks[b].insns.len() >= 2)
        .collect();
    pick(&sites, seed).map(|i| sites[i])
}

/// Applies a program-targeted fault at a seed-determined site.
///
/// # Errors
///
/// [`InjectError::NoSite`] when the program has no applicable site (never
/// panics — the harness must be more robust than the code it tests).
pub fn inject_program(program: &mut Program, fault: Fault, seed: u64) -> Result<(), InjectError> {
    debug_assert_eq!(
        fault.target(),
        FaultTarget::Program,
        "{fault} targets the trace"
    );
    let no_site = || InjectError::NoSite(fault);
    match fault {
        Fault::IllegalImmediate => {
            // Pick an instruction that already has an immediate and blow it
            // out past the 9-bit ARM field.
            let sites: Vec<(usize, usize)> = program
                .blocks
                .iter()
                .enumerate()
                .flat_map(|(b, block)| {
                    block
                        .insns
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| {
                            t.insn.imm().is_some()
                                && !t.insn.op().is_branch()
                                && !t.insn.op().is_format_switch()
                        })
                        .map(move |(i, _)| (b, i))
                })
                .collect();
            let (b, i) = sites[pick(&sites, seed).ok_or_else(no_site)?];
            let insn = program.blocks[b].insns[i].insn;
            let op = insn.op();
            let bogus = 100_000 + (mix(seed ^ 1) % 100_000) as i32;
            program.blocks[b].insns[i].insn = if op.is_load() {
                Insn::load(
                    op,
                    insn.dst().unwrap_or(Reg::R0),
                    insn.srcs().get(0).unwrap_or(Reg::R1),
                    bogus,
                )
            } else if op.is_store() {
                Insn::store(
                    op,
                    insn.srcs().get(0).unwrap_or(Reg::R0),
                    insn.srcs().get(1).unwrap_or(Reg::R1),
                    bogus,
                )
            } else if let (Some(dst), Some(src)) = (insn.dst(), insn.srcs().get(0)) {
                Insn::alu_imm(op, dst, src, bogus)
            } else {
                Insn::mov_imm(insn.dst().unwrap_or(Reg::R0), bogus)
            };
            Ok(())
        }
        Fault::IllegalRegister => {
            let sites: Vec<usize> = (0..program.blocks.len())
                .filter(|&b| !program.blocks[b].insns.is_empty())
                .collect();
            let b = sites[pick(&sites, seed).ok_or_else(no_site)?];
            let pos = (mix(seed ^ 2) % program.blocks[b].insns.len() as u64) as usize;
            let uid = next_uid(program);
            program.blocks[b].insns.insert(
                pos,
                TaggedInsn::new(Insn::alu(Opcode::Add, Reg::R0, &[Reg::PC, Reg::R1]), uid),
            );
            Ok(())
        }
        Fault::OversizedCdp => {
            let sites: Vec<usize> = (0..program.blocks.len())
                .filter(|&b| !program.blocks[b].insns.is_empty())
                .collect();
            let b = sites[pick(&sites, seed).ok_or_else(no_site)?];
            let covered = 10 + (mix(seed ^ 3) % 6) as u8;
            let uid = next_uid(program);
            program.blocks[b]
                .insns
                .insert(0, TaggedInsn::new(Insn::cdp_raw(covered), uid));
            Ok(())
        }
        Fault::TruncateBlock => {
            let b = executed_site(program, seed).ok_or_else(no_site)?;
            let keep = program.blocks[b].insns.len() / 2;
            program.blocks[b].insns.truncate(keep);
            Ok(())
        }
        Fault::ScrambleBlock => {
            let b = executed_site(program, seed).ok_or_else(no_site)?;
            program.blocks[b].insns.reverse();
            Ok(())
        }
        Fault::DanglingTerminator => {
            let bogus = BlockId(program.blocks.len() as u32 + 1 + (mix(seed ^ 4) % 64) as u32);
            let b = pick(&program.blocks, seed).ok_or_else(no_site)?;
            program.blocks[b].terminator = Terminator::Jump(bogus);
            Ok(())
        }
        Fault::DuplicateUid => {
            let sites: Vec<usize> = (0..program.blocks.len())
                .filter(|&b| program.blocks[b].insns.len() >= 2)
                .collect();
            let b = sites[pick(&sites, seed).ok_or_else(no_site)?];
            let uid = program.blocks[b].insns[0].uid;
            program.blocks[b].insns[1].uid = uid;
            Ok(())
        }
        _ => Err(no_site()),
    }
}

/// Applies a trace-targeted fault at a seed-determined site.
///
/// # Errors
///
/// [`InjectError::NoSite`] when the trace has no applicable site.
pub fn inject_trace(trace: &mut Trace, fault: Fault, seed: u64) -> Result<(), InjectError> {
    debug_assert_eq!(
        fault.target(),
        FaultTarget::Trace,
        "{fault} targets the program"
    );
    let no_site = || InjectError::NoSite(fault);
    match fault {
        Fault::EmptyTrace => {
            trace.entries.clear();
            Ok(())
        }
        Fault::OversizeTrace => {
            if trace.entries.is_empty() {
                return Err(no_site());
            }
            let target = (trace.entries.len() * 2).max(4096);
            while trace.entries.len() < target {
                let tail = trace.entries[trace.entries.len() - 1];
                trace.entries.push(tail);
            }
            Ok(())
        }
        Fault::ForwardDep => {
            if trace.entries.is_empty() {
                return Err(no_site());
            }
            let step = (mix(seed) % trace.entries.len() as u64) as usize;
            trace.entries[step].deps[0] = step as u32 + 1;
            Ok(())
        }
        _ => Err(no_site()),
    }
}

/// Rebuilds an instruction with replacement operands, preserving opcode,
/// predication, and encoding width.
fn rebuild(insn: &Insn, dst: Option<Reg>, srcs: &[Reg], imm: Option<i32>) -> Insn {
    let mut b = InsnBuilder::new(insn.op())
        .cond(insn.cond())
        .width(insn.width());
    if let Some(d) = dst {
        b = b.dst(d);
    }
    for &s in srcs {
        b = b.src(s);
    }
    if let Some(i) = imm {
        b = b.imm(i);
    }
    b.build()
}

/// A Thumb-addressable register different from `avoid`, picked by seed.
fn other_low_reg(avoid: Reg, seed: u64) -> Reg {
    let mut idx = (mix(seed) % 8) as u8;
    if idx == avoid.index() {
        idx = (idx + 1) % 8;
    }
    Reg::from_index(idx).unwrap_or(Reg::R0)
}

/// `(block, cdp position, covered position)` for every 16-bit instruction
/// under a CDP cover in an executed block.
fn covered_sites(program: &Program, executed: &HashSet<BlockId>) -> Vec<(usize, usize, usize)> {
    let mut sites = Vec::new();
    for (b, block) in program.blocks.iter().enumerate() {
        if !executed.contains(&block.id) {
            continue;
        }
        let mut cover: Option<(usize, usize)> = None; // (cdp position, remaining)
        for (i, t) in block.insns.iter().enumerate() {
            if let Some(len) = t.insn.cdp_covered_len() {
                cover = Some((i, len));
                continue;
            }
            if let Some((cdp, remaining)) = cover {
                if t.insn.width() == Width::Thumb16 {
                    sites.push((b, cdp, i));
                }
                cover = if remaining > 1 {
                    Some((cdp, remaining - 1))
                } else {
                    None
                };
            }
        }
    }
    sites
}

/// Applies a miscompile fault to a compiled program variant at a
/// seed-determined site, restricted to `executed` blocks so the corruption
/// is observable over the recorded path.
///
/// Every fault in this family is *silent by construction*: the corrupted
/// variant still passes `Program::validate_encoding` and its re-expanded
/// trace still validates. Only the differential oracle — executing baseline
/// and variant over the same seeded inputs — can tell them apart, which is
/// what these faults exist to prove.
///
/// # Errors
///
/// [`InjectError::NoSite`] when the variant has no applicable site (e.g. a
/// baseline program with no 16-bit instructions).
pub fn inject_variant(
    program: &mut Program,
    fault: Fault,
    seed: u64,
    executed: &HashSet<BlockId>,
) -> Result<(), InjectError> {
    debug_assert_eq!(
        fault.target(),
        FaultTarget::Variant,
        "{fault} is not a miscompile"
    );
    let no_site = || InjectError::NoSite(fault);
    // Converted 16-bit ALU instructions — the chain members the pass
    // rewrote — in executed blocks, split by operand shape.
    let thumb_alu_sites = |want_imm: bool| -> Vec<(usize, usize)> {
        program
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, block)| executed.contains(&block.id))
            .flat_map(|(b, block)| {
                block
                    .insns
                    .iter()
                    .enumerate()
                    .filter(move |(_, t)| {
                        let insn = &t.insn;
                        let op = insn.op();
                        insn.width() == Width::Thumb16
                            && !op.is_format_switch()
                            && !op.is_mem()
                            && !op.is_branch()
                            && insn.dst().is_some()
                            && insn.imm().is_some() == want_imm
                    })
                    .map(move |(i, _)| (b, i))
            })
            .collect()
    };
    match fault {
        Fault::ClobberedDestination => {
            let sites = thumb_alu_sites(false);
            let (b, i) = sites[pick(&sites, seed).ok_or_else(no_site)?];
            let insn = program.blocks[b].insns[i].insn;
            let old = insn.dst().unwrap_or(Reg::R0);
            let srcs: Vec<Reg> = insn.srcs().iter().collect();
            program.blocks[b].insns[i].insn =
                rebuild(&insn, Some(other_low_reg(old, seed ^ 0x11)), &srcs, None);
            Ok(())
        }
        Fault::DroppedMember => {
            let sites = covered_sites(program, executed);
            let (b, cdp, victim) = sites[pick(&sites, seed).ok_or_else(no_site)?];
            let block = &mut program.blocks[b];
            let cover = block.insns[cdp].insn.cdp_covered_len().unwrap_or(1);
            block.insns.remove(victim);
            if cover <= 1 {
                block.insns.remove(cdp);
            } else {
                block.insns[cdp].insn = Insn::cdp(cover as u8 - 1);
            }
            Ok(())
        }
        Fault::ReorderedStore => {
            // A store and the nearest preceding producer of its value
            // register, same width (so the fetch layout — and any CDP
            // cover — is untouched by the swap), in a block the pass
            // transformed (it holds at least one 16-bit instruction).
            let mut sites: Vec<(usize, usize, usize)> = Vec::new();
            for (b, block) in program.blocks.iter().enumerate() {
                if !executed.contains(&block.id) {
                    continue;
                }
                if !block.insns.iter().any(|t| t.insn.width() == Width::Thumb16) {
                    continue;
                }
                for (i, t) in block.insns.iter().enumerate() {
                    // Predicated pairs can be runtime no-ops, making the
                    // swap unobservable; insist on unconditional ones.
                    if !t.insn.op().is_store() || t.insn.is_predicated() {
                        continue;
                    }
                    let Some(value_reg) = t.insn.srcs().get(0) else {
                        continue;
                    };
                    for j in (0..i).rev() {
                        let w = &block.insns[j].insn;
                        if w.dst() == Some(value_reg) {
                            // Producers like `orr rX, rX, rX` recompute the
                            // old value; swapping past them is unobservable.
                            let can_change = w.srcs().iter().any(|s| s != value_reg)
                                || w.imm().is_some_and(|imm| imm != 0);
                            if w.width() == t.insn.width()
                                && !w.op().is_format_switch()
                                && !w.is_predicated()
                                && can_change
                            {
                                sites.push((b, i, j));
                            }
                            break; // nearest producer only
                        }
                    }
                }
            }
            let (b, i, j) = sites[pick(&sites, seed).ok_or_else(no_site)?];
            program.blocks[b].insns.swap(i, j);
            Ok(())
        }
        Fault::WrongThumbImmediate => {
            let sites: Vec<(usize, usize)> = thumb_alu_sites(true)
                .into_iter()
                .filter(|&(b, i)| {
                    // Additive/xor/move opcodes: a different immediate is
                    // guaranteed to produce a different value.
                    matches!(
                        program.blocks[b].insns[i].insn.op(),
                        Opcode::Add | Opcode::Sub | Opcode::Mov | Opcode::Eor
                    )
                })
                .collect();
            let (b, i) = sites[pick(&sites, seed).ok_or_else(no_site)?];
            let insn = program.blocks[b].insns[i].insn;
            let old = insn.imm().unwrap_or(0);
            let delta = 1 + (mix(seed ^ 0x13) % 126) as i32;
            let bogus = (old + delta) % 128; // stays inside Thumb's field
            let srcs: Vec<Reg> = insn.srcs().iter().collect();
            program.blocks[b].insns[i].insn = rebuild(&insn, insn.dst(), &srcs, Some(bogus));
            Ok(())
        }
        Fault::StaleSource => {
            let sites: Vec<(usize, usize)> = thumb_alu_sites(false)
                .into_iter()
                .filter(|&(b, i)| !program.blocks[b].insns[i].insn.srcs().is_empty())
                .collect();
            let (b, i) = sites[pick(&sites, seed).ok_or_else(no_site)?];
            let insn = program.blocks[b].insns[i].insn;
            let mut srcs: Vec<Reg> = insn.srcs().iter().collect();
            let slot = (mix(seed ^ 0x17) % srcs.len() as u64) as usize;
            srcs[slot] = other_low_reg(srcs[slot], seed ^ 0x19);
            program.blocks[b].insns[i].insn = rebuild(&insn, insn.dst(), &srcs, None);
            Ok(())
        }
        Fault::BadCdpLength => {
            let sites: Vec<(usize, usize)> = program
                .blocks
                .iter()
                .enumerate()
                .filter(|(_, block)| executed.contains(&block.id))
                .flat_map(|(b, block)| {
                    block
                        .insns
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.insn.cdp_covered_len().is_some_and(|l| l >= 2))
                        .map(move |(i, _)| (b, i))
                })
                .collect();
            let (b, i) = sites[pick(&sites, seed).ok_or_else(no_site)?];
            let cover = program.blocks[b].insns[i]
                .insn
                .cdp_covered_len()
                .unwrap_or(2);
            program.blocks[b].insns[i].insn = Insn::cdp(cover as u8 - 1);
            Ok(())
        }
        _ => Err(no_site()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::ProgramGenerator;
    use crate::params::GenParams;
    use crate::path::ExecutionPath;

    fn setup() -> (Program, ExecutionPath, Trace) {
        let mut p = GenParams::mobile(31);
        p.num_functions = 10;
        let program = ProgramGenerator::new(p).generate();
        let path = ExecutionPath::generate(&program, 5, 3_000);
        let trace = Trace::expand(&program, &path);
        (program, path, trace)
    }

    /// A hand-built "transformed variant": one block whose tail is a
    /// CDP-covered 16-bit region, preceded by a producer/store pair —
    /// at least one site for every miscompile fault.
    fn mini_variant() -> (Program, ExecutionPath, HashSet<BlockId>) {
        use crate::ids::FuncId;
        use crate::program::{BasicBlock, Function};
        let t16 = |insn: Insn| insn.with_width(Width::Thumb16);
        let insns = vec![
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R0, &[Reg::R7, Reg::R7]),
                InsnUid(0),
            ),
            TaggedInsn::new(Insn::store(Opcode::Str, Reg::R0, Reg::R1, 0), InsnUid(1)),
            TaggedInsn::new(Insn::cdp(3), InsnUid(10)),
            TaggedInsn::new(
                t16(Insn::alu(Opcode::Add, Reg::R2, &[Reg::R0, Reg::R1])),
                InsnUid(2),
            ),
            TaggedInsn::new(
                t16(Insn::alu_imm(Opcode::Sub, Reg::R3, Reg::R3, 5)),
                InsnUid(3),
            ),
            TaggedInsn::new(
                t16(Insn::alu(Opcode::Eor, Reg::R4, &[Reg::R2, Reg::R3])),
                InsnUid(4),
            ),
        ];
        let program = Program {
            name: "mini-variant".into(),
            suite: crate::suite::Suite::Mobile,
            functions: vec![Function {
                id: FuncId(0),
                name: "f".into(),
                blocks: vec![BlockId(0)],
            }],
            blocks: vec![BasicBlock {
                id: BlockId(0),
                func: FuncId(0),
                insns,
                terminator: crate::program::Terminator::Exit,
            }],
            mem: crate::params::MemProfile::default(),
            load_hints: Default::default(),
        };
        let path = ExecutionPath {
            blocks: vec![BlockId(0)],
            seed: 0,
        };
        let executed: HashSet<BlockId> = path.blocks.iter().copied().collect();
        (program, path, executed)
    }

    #[test]
    fn every_fault_is_detected_by_some_validator() {
        let (clean_program, clean_path, clean_trace) = setup();
        clean_program
            .validate_encoding()
            .expect("clean program validates");
        clean_trace
            .validate_recorded(&clean_program, &clean_path)
            .expect("clean trace validates");

        for (k, fault) in Fault::ALL.into_iter().enumerate() {
            let seed = 0xFA_u64 + k as u64;
            match fault.target() {
                FaultTarget::Program => {
                    let mut program = clean_program.clone();
                    inject_program(&mut program, fault, seed).expect("site exists");
                    // An injected instruction takes a dense uid, so the
                    // fault itself is what fails the checks.
                    assert!(
                        !matches!(
                            program.validate(),
                            Err(crate::ProgramError::UidOutOfRange { .. })
                        ),
                        "{fault} planted an out-of-range uid"
                    );
                    // Either the static checks or the trace cross-check must
                    // flag the corruption — and nothing may panic.
                    let static_err = program.validate_encoding().is_err();
                    let trace_err = clean_trace.validate(&program).is_err();
                    assert!(static_err || trace_err, "fault {fault} escaped validation");
                }
                FaultTarget::Trace => {
                    let mut trace = clean_trace.clone();
                    inject_trace(&mut trace, fault, seed).expect("site exists");
                    assert!(
                        trace
                            .validate_recorded(&clean_program, &clean_path)
                            .is_err(),
                        "fault {fault} escaped validation"
                    );
                }
                FaultTarget::Variant => {
                    // Miscompiles are *designed* to slip past every static
                    // check; the differential oracle (critic-compiler)
                    // proves detection. Here: prove silence.
                    let (mut program, path, executed) = mini_variant();
                    inject_variant(&mut program, fault, seed, &executed).expect("site exists");
                    program
                        .validate_encoding()
                        .unwrap_or_else(|e| panic!("miscompile {fault} is not silent: {e}"));
                    let trace = Trace::expand(&program, &path);
                    trace
                        .validate(&program)
                        .unwrap_or_else(|e| panic!("miscompile {fault} trace not silent: {e}"));
                }
            }
        }
    }

    #[test]
    fn injection_is_deterministic() {
        let (program, _, trace) = setup();
        for fault in Fault::ALL {
            match fault.target() {
                FaultTarget::Program => {
                    let mut a = program.clone();
                    let mut b = program.clone();
                    inject_program(&mut a, fault, 42).expect("site");
                    inject_program(&mut b, fault, 42).expect("site");
                    assert_eq!(a, b, "{fault} must be reproducible from its seed");
                }
                FaultTarget::Trace => {
                    let mut a = trace.clone();
                    let mut b = trace.clone();
                    inject_trace(&mut a, fault, 42).expect("site");
                    inject_trace(&mut b, fault, 42).expect("site");
                    assert_eq!(a, b, "{fault} must be reproducible from its seed");
                }
                FaultTarget::Variant => {
                    let (variant, _, executed) = mini_variant();
                    let mut a = variant.clone();
                    let mut b = variant.clone();
                    inject_variant(&mut a, fault, 42, &executed).expect("site");
                    inject_variant(&mut b, fault, 42, &executed).expect("site");
                    assert_eq!(a, b, "{fault} must be reproducible from its seed");
                    assert_ne!(a, variant, "{fault} must actually corrupt the variant");
                }
            }
        }
    }

    #[test]
    fn miscompiles_have_no_site_in_an_untransformed_program() {
        let (program, _, _) = setup();
        let executed: HashSet<BlockId> = program.blocks.iter().map(|b| b.id).collect();
        for fault in Fault::MISCOMPILES {
            let mut p = program.clone();
            assert_eq!(
                inject_variant(&mut p, fault, 9, &executed),
                Err(InjectError::NoSite(fault)),
                "{fault} found a site in an all-32-bit baseline"
            );
        }
    }

    #[test]
    fn fault_names_round_trip() {
        for fault in Fault::ALL {
            assert_eq!(fault.name().parse::<Fault>(), Ok(fault));
        }
        assert!("no-such-fault"
            .parse::<Fault>()
            .unwrap_err()
            .contains("valid:"));
    }

    #[test]
    fn injection_into_degenerate_inputs_errors_instead_of_panicking() {
        let mut empty_program = Program {
            name: "empty".into(),
            suite: crate::suite::Suite::Mobile,
            functions: Vec::new(),
            blocks: Vec::new(),
            mem: crate::params::MemProfile::default(),
            load_hints: Default::default(),
        };
        for fault in Fault::ALL
            .into_iter()
            .filter(|f| f.target() == FaultTarget::Program)
        {
            assert_eq!(
                inject_program(&mut empty_program, fault, 1),
                Err(InjectError::NoSite(fault)),
                "{fault} on an empty program"
            );
        }
        let mut empty_trace = Trace {
            name: "empty".into(),
            entries: Vec::new(),
        };
        assert!(inject_trace(&mut empty_trace, Fault::OversizeTrace, 1).is_err());
        assert!(inject_trace(&mut empty_trace, Fault::ForwardDep, 1).is_err());
        // EmptyTrace on an already-empty trace is trivially applicable.
        assert!(inject_trace(&mut empty_trace, Fault::EmptyTrace, 1).is_ok());
    }
}
