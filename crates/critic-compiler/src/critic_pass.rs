//! The CritIC instrumentation pass (paper Sec. III-C, IV-A/B).
//!
//! For each profiled chain, in coverage rank order:
//!
//! 1. **Hoist** the members into one contiguous run at the first member's
//!    position (shrinking the dataflow gap — the F.StallForR+D half of the
//!    optimization). Hoisting is guarded by a register-level legality check;
//!    chains whose span reuses a member's destination are skipped, exactly
//!    as a conservative compiler must.
//! 2. **Convert** every member to the 16-bit Thumb format (the paper's
//!    all-or-nothing rule; `CritIC.Ideal` force-converts hypothetically).
//! 3. Emit the **format switch**: the extended CDP half-word covering up to
//!    9 following instructions (approach 2), or the stock branch pair
//!    (approach 1) — a 32-bit branch to the next instruction before the
//!    chain and a 16-bit one after it.

use std::collections::HashSet;

use critic_isa::{Insn, Opcode, Width};
use critic_profiler::Profile;
use critic_workloads::{BlockId, InsnUid, Program, TaggedInsn};
use serde::{Deserialize, Serialize};

use crate::error::PassError;
use crate::report::PassReport;
use crate::uid::UidAllocator;

/// How the decoder is told about a format switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwitchMode {
    /// The extended CDP mnemonic (Sec. IV-B): one 16-bit half-word whose
    /// 3-bit argument covers up to 9 following 16-bit instructions.
    Cdp,
    /// The stock ARM mechanism (Sec. IV-A): an unconditional 32-bit branch
    /// to the next instruction before the chain and a 16-bit one after it.
    /// Runs on today's hardware, but the two redirects are hard to amortize
    /// over 5-instruction chains — the Fig. 8 result.
    BranchPair,
}

/// Options of the CritIC pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticPassOptions {
    /// Hoist chain members contiguous (the `Hoist` design point keeps this
    /// and disables conversion).
    pub hoist: bool,
    /// Re-encode chains in the 16-bit format.
    pub convert: bool,
    /// The decoder-switch mechanism.
    pub switch_mode: SwitchMode,
    /// Convert even chains that fail the Thumb predicate — the hypothetical
    /// `CritIC.Ideal` upper bound (Sec. IV-D). Such instructions could not
    /// really be encoded; the simulator only consumes their fetch width.
    pub force_convert: bool,
}

impl Default for CriticPassOptions {
    fn default() -> Self {
        CriticPassOptions {
            hoist: true,
            convert: true,
            switch_mode: SwitchMode::Cdp,
            force_convert: false,
        }
    }
}

impl CriticPassOptions {
    /// The `Hoist` design point: aggregation without conversion.
    pub fn hoist_only() -> CriticPassOptions {
        CriticPassOptions {
            convert: false,
            ..Default::default()
        }
    }

    /// The `CritIC.Ideal` design point (pair with
    /// `ProfilerConfig::ideal()`).
    pub fn ideal() -> CriticPassOptions {
        CriticPassOptions {
            force_convert: true,
            ..Default::default()
        }
    }

    /// Approach 1: the branch-pair switch that runs on stock hardware.
    pub fn branch_switch() -> CriticPassOptions {
        CriticPassOptions {
            switch_mode: SwitchMode::BranchPair,
            ..Default::default()
        }
    }
}

/// Applies the CritIC pass to a program, consuming a profile.
///
/// Chains are applied in profile rank order; members claimed by an earlier
/// chain are not re-used. Returns what was done.
///
/// # Panics
///
/// Panics if the program or profile is malformed; use
/// [`try_apply_critic_pass`] to get a [`PassError`] instead.
pub fn apply_critic_pass(
    program: &mut Program,
    profile: &Profile,
    opts: CriticPassOptions,
) -> PassReport {
    match try_apply_critic_pass(program, profile, opts) {
        Ok(report) => report,
        Err(e) => panic!("critic pass failed: {e}"),
    }
}

/// Fallible variant of [`apply_critic_pass`]: validates the program
/// structurally and every chain spec against it before rewriting anything,
/// so a corrupted program or a stale/foreign profile yields a typed
/// [`PassError`] instead of a panic or silent corruption.
///
/// On `Err` the program is untouched (all checks run before the first
/// rewrite).
pub fn try_apply_critic_pass(
    program: &mut Program,
    profile: &Profile,
    opts: CriticPassOptions,
) -> Result<PassReport, PassError> {
    program.validate()?;
    for (rank, spec) in profile.chains.iter().enumerate() {
        if spec.uids.is_empty() {
            return Err(PassError::EmptyChain { chain: rank });
        }
        if spec.block.index() >= program.blocks.len() {
            return Err(PassError::ChainBlockOutOfRange {
                chain: rank,
                block: spec.block,
                num_blocks: program.blocks.len(),
            });
        }
    }
    Ok(apply_validated(program, profile, opts))
}

/// The pass proper; every chain's block id is known to be in range and
/// every chain non-empty.
fn apply_validated(
    program: &mut Program,
    profile: &Profile,
    opts: CriticPassOptions,
) -> PassReport {
    let mut alloc = UidAllocator::for_program(program);
    let mut claimed: HashSet<(BlockId, InsnUid)> = HashSet::new();
    let mut report = PassReport::default();

    for spec in &profile.chains {
        if spec
            .uids
            .iter()
            .any(|&uid| claimed.contains(&(spec.block, uid)))
        {
            report.chains_skipped_missing += 1;
            continue;
        }
        let block = program.block_mut(spec.block);
        let positions: Option<Vec<usize>> = spec
            .uids
            .iter()
            .map(|&uid| block.position_of(uid))
            .collect();
        let Some(positions) = positions else {
            report.chains_skipped_missing += 1;
            continue;
        };
        if !positions.windows(2).all(|w| w[0] < w[1]) {
            // A previous rewrite scrambled the order; treat as stale.
            report.chains_skipped_missing += 1;
            continue;
        }

        // Snapshot for graceful degradation: if the post-rewrite soundness
        // re-check fails, the chain is demoted — the block is restored to
        // this image and the run continues with the chain in 32-bit form.
        let snapshot = block.insns.clone();

        let hoistable = !opts.hoist || hoist_is_legal(&block.insns, &positions);
        if !hoistable {
            // Register reuse across the chain's span makes reordering
            // unsound; fall back to converting the members *in place*
            // (conversion alone never changes semantics). The chain loses
            // the dataflow-gap benefit but keeps the fetch-bandwidth one.
            report.chains_skipped_legality += 1;
            let convert = opts.convert && (spec.thumb_convertible || opts.force_convert);
            if convert {
                let mut delta = PassReport::default();
                convert_in_place(block, &positions, opts, &mut alloc, &mut delta);
                if chain_rewrite_is_sound(block, &spec.uids, opts, false) {
                    report.absorb(delta);
                    for &uid in &spec.uids {
                        claimed.insert((spec.block, uid));
                    }
                } else {
                    block.insns = snapshot;
                    report.chains_demoted += 1;
                }
            }
            continue;
        }

        // ---- hoist ----
        let first = positions[0];
        let members: Vec<TaggedInsn> = positions.iter().map(|&p| block.insns[p]).collect();
        if opts.hoist {
            for &p in positions.iter().rev() {
                block.insns.remove(p);
            }
            for (k, member) in members.iter().enumerate() {
                block.insns.insert(first + k, *member);
            }
        }

        // ---- convert ----
        let convert = opts.convert && (spec.thumb_convertible || opts.force_convert);
        let len = members.len();
        let mut delta = PassReport::default();
        if convert {
            let range = if opts.hoist {
                first..first + len
            } else {
                // Without hoisting, conversion would need a switch per
                // member; the paper never evaluates that point, so convert
                // only when hoisting.
                first..first
            };
            for p in range {
                let insn = block.insns[p].insn;
                let thumbed = insn
                    .to_thumb()
                    .unwrap_or_else(|_| insn.with_width(Width::Thumb16));
                block.insns[p].insn = thumbed;
                delta.insns_converted += 1;
            }

            // ---- format switch ----
            match opts.switch_mode {
                SwitchMode::Cdp => {
                    // One CDP per <=9-instruction chunk, inserted front to
                    // back (later insertions account for earlier ones).
                    let mut inserted = 0usize;
                    let mut offset = 0usize;
                    while offset < len {
                        let chunk = (len - offset).min(critic_isa::MAX_CDP_CHAIN_LEN);
                        let cdp = TaggedInsn::new(Insn::cdp(chunk as u8), alloc.fresh());
                        block.insns.insert(first + offset + inserted, cdp);
                        inserted += 1;
                        delta.cdps_inserted += 1;
                        offset += chunk;
                    }
                }
                SwitchMode::BranchPair => {
                    // 32-bit branch to the next instruction before the
                    // chain; 16-bit branch after it (Fig. 6 discussion).
                    let pre = TaggedInsn::new(Insn::branch(Opcode::B, 0), alloc.fresh());
                    let post = TaggedInsn::new(
                        Insn::branch(Opcode::B, 0).with_width(Width::Thumb16),
                        alloc.fresh(),
                    );
                    block.insns.insert(first, pre);
                    block.insns.insert(first + 1 + len, post);
                    delta.switch_branches_inserted += 2;
                }
            }
        }

        // ---- re-check ----
        // Trust nothing: verify the rewrite's own postconditions before
        // keeping it. A bug here would otherwise corrupt every downstream
        // speedup and energy figure.
        if !chain_rewrite_is_sound(block, &spec.uids, opts, opts.hoist) {
            block.insns = snapshot;
            report.chains_demoted += 1;
            continue;
        }

        report.absorb(delta);
        report.chains_applied += 1;
        for &uid in &spec.uids {
            claimed.insert((spec.block, uid));
        }
    }
    report
}

/// Post-rewrite soundness re-check for one chain: every member uid must
/// still be present (contiguous and in order when `contiguous` is
/// demanded), and in CDP switch mode the block's decode-cover accounting
/// must be intact — every 16-bit instruction under a switch whose cover
/// reaches it, and no switch covering a 32-bit instruction.
///
/// The pass runs this after rewriting each chain and *demotes* the chain
/// (rolls the block back to its 32-bit image) if it fails; it is public so
/// tests and external validators can exercise the same predicate.
pub fn chain_rewrite_is_sound(
    block: &critic_workloads::BasicBlock,
    uids: &[InsnUid],
    opts: CriticPassOptions,
    contiguous: bool,
) -> bool {
    let positions: Option<Vec<usize>> = uids.iter().map(|&u| block.position_of(u)).collect();
    let Some(positions) = positions else {
        return false;
    };
    if !positions.windows(2).all(|w| w[0] < w[1]) {
        return false;
    }
    if contiguous && !positions.windows(2).all(|w| w[1] == w[0] + 1) {
        return false;
    }
    if opts.switch_mode == SwitchMode::Cdp {
        let mut cover = 0usize;
        for tagged in &block.insns {
            if let Some(covered) = tagged.insn.cdp_covered_len() {
                cover = covered;
                continue;
            }
            match tagged.insn.width() {
                Width::Thumb16 if cover == 0 => return false,
                Width::Arm32 if cover > 0 => return false,
                _ => cover = cover.saturating_sub(1),
            }
        }
        if cover > 0 {
            return false; // a switch covers past the end of the block
        }
    }
    true
}

/// Converts a non-hoistable chain's members where they stand: each
/// contiguous sub-run of at least two members becomes a CDP-prefixed
/// 16-bit region.
fn convert_in_place(
    block: &mut critic_workloads::BasicBlock,
    positions: &[usize],
    opts: CriticPassOptions,
    alloc: &mut UidAllocator,
    report: &mut PassReport,
) {
    // Group into contiguous runs.
    let mut runs: Vec<(usize, usize)> = Vec::new(); // [start, len]
    let mut run_start = positions[0];
    let mut prev = positions[0];
    for &p in &positions[1..] {
        if p != prev + 1 {
            runs.push((run_start, prev - run_start + 1));
            run_start = p;
        }
        prev = p;
    }
    runs.push((run_start, prev - run_start + 1));
    for &(start, len) in runs.iter().rev() {
        if len < 2 {
            continue;
        }
        for p in start..start + len {
            let insn = block.insns[p].insn;
            block.insns[p].insn = insn
                .to_thumb()
                .unwrap_or_else(|_| insn.with_width(Width::Thumb16));
            report.insns_converted += 1;
        }
        match opts.switch_mode {
            SwitchMode::Cdp => {
                let mut offset = 0usize;
                let mut inserted = 0usize;
                while offset < len {
                    let chunk = (len - offset).min(critic_isa::MAX_CDP_CHAIN_LEN);
                    let cdp = TaggedInsn::new(Insn::cdp(chunk as u8), alloc.fresh());
                    block.insns.insert(start + offset + inserted, cdp);
                    inserted += 1;
                    report.cdps_inserted += 1;
                    offset += chunk;
                }
            }
            SwitchMode::BranchPair => {
                let pre = TaggedInsn::new(Insn::branch(Opcode::B, 0), alloc.fresh());
                let post = TaggedInsn::new(
                    Insn::branch(Opcode::B, 0).with_width(Width::Thumb16),
                    alloc.fresh(),
                );
                block.insns.insert(start, pre);
                block.insns.insert(start + 1 + len, post);
                report.switch_branches_inserted += 2;
            }
        }
    }
}

/// Checks that moving `positions`' instructions to a contiguous run at
/// `positions[0]` preserves the block's register dataflow.
///
/// Let X be a non-member inside the chain's span, and M the set of members
/// originally *after* X (those move from behind X to in front of it). The
/// move is illegal iff:
///
/// * X reads a register some m ∈ M writes (X would suddenly read the
///   chain's value), or
/// * X writes a register some m ∈ M writes (the final value after the span
///   would flip), or
/// * X writes a register some m ∈ M reads (m would suddenly read X's
///   value — impossible for self-contained chains, checked anyway because
///   profiles can be stale).
pub fn hoist_is_legal(insns: &[TaggedInsn], positions: &[usize]) -> bool {
    let member_set: HashSet<usize> = positions.iter().copied().collect();
    // An empty chain moves nothing and is trivially legal.
    let Some(&last) = positions.last() else {
        return true;
    };
    let writes_flags = |i: &critic_isa::Insn| {
        matches!(
            i.op(),
            Opcode::Cmp | Opcode::Cmn | Opcode::Tst | Opcode::Vcmp
        )
    };
    for x in positions[0]..=last {
        if member_set.contains(&x) {
            continue;
        }
        let xi = &insns[x].insn;
        for &p in positions.iter().filter(|&&p| p > x) {
            let m = &insns[p].insn;
            if let Some(mdst) = m.dst() {
                if xi.srcs().iter().any(|s| s == mdst) {
                    return false;
                }
                if xi.dst() == Some(mdst) {
                    return false;
                }
            }
            if let Some(xdst) = xi.dst() {
                if m.srcs().iter().any(|s| s == xdst) {
                    return false;
                }
            }
            // The flags are a register too: a predicated member must not
            // move above a compare, nor a predicated interloper under one.
            if writes_flags(xi) && m.is_predicated() {
                return false;
            }
            if writes_flags(m) && xi.is_predicated() {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use critic_profiler::{Profiler, ProfilerConfig};
    use critic_workloads::suite::Suite;
    use critic_workloads::{ExecutionPath, Trace};

    use super::*;

    fn setup(len: usize) -> (Program, ExecutionPath, Trace, Profile) {
        let mut app = Suite::Mobile.apps()[0].clone();
        app.params.num_functions = 40;
        let program = app.generate_program();
        let path = ExecutionPath::generate(&program, 21, len);
        let trace = Trace::expand(&program, &path);
        let profile =
            Profiler::new(ProfilerConfig::default()).build_profile(&program, &path, &trace);
        (program, path, trace, profile)
    }

    /// Canonical dataflow signature: for every dynamic instance of an
    /// original instruction, the multiset of producing (uid, occurrence)
    /// pairs. Rewrites must preserve it exactly.
    fn dataflow_signature(
        trace: &Trace,
        original_uids: &HashSet<InsnUid>,
    ) -> std::collections::HashMap<(InsnUid, u32), Vec<(InsnUid, u32)>> {
        let mut occurrence: std::collections::HashMap<InsnUid, u32> = Default::default();
        let mut occ_of: Vec<(InsnUid, u32)> = Vec::with_capacity(trace.len());
        for e in trace.iter() {
            let occ = occurrence.entry(e.uid).or_insert(0);
            occ_of.push((e.uid, *occ));
            *occ += 1;
        }
        let mut signature = std::collections::HashMap::new();
        for (i, e) in trace.iter().enumerate() {
            if !original_uids.contains(&e.uid) {
                continue;
            }
            let mut deps: Vec<(InsnUid, u32)> = e.deps_iter().map(|d| occ_of[d as usize]).collect();
            deps.sort();
            signature.insert(occ_of[i], deps);
        }
        signature
    }

    #[test]
    fn pass_applies_chains_and_shrinks_the_binary() {
        let (program, _, _, profile) = setup(40_000);
        let mut optimized = program.clone();
        let report = apply_critic_pass(&mut optimized, &profile, CriticPassOptions::default());
        assert!(report.chains_applied > 0, "no chains applied");
        assert!(report.insns_converted >= 2 * report.chains_applied);
        assert!(report.cdps_inserted >= report.chains_applied);
        assert!(optimized.code_bytes() < program.code_bytes());
        assert!(optimized.thumb_fraction() > 0.0);
    }

    #[test]
    fn hoisting_preserves_register_dataflow() {
        let (program, path, trace, profile) = setup(30_000);
        let original_uids: HashSet<InsnUid> = program
            .blocks
            .iter()
            .flat_map(|b| &b.insns)
            .map(|t| t.uid)
            .collect();
        let mut optimized = program.clone();
        let report = apply_critic_pass(&mut optimized, &profile, CriticPassOptions::default());
        assert!(report.chains_applied > 0);
        let rewritten = Trace::expand(&optimized, &path);
        let before = dataflow_signature(&trace, &original_uids);
        let after = dataflow_signature(&rewritten, &original_uids);
        assert_eq!(before.len(), after.len());
        for (key, deps) in &before {
            assert_eq!(
                after.get(key),
                Some(deps),
                "dataflow of {key:?} changed across the rewrite"
            );
        }
    }

    #[test]
    fn memory_streams_survive_the_rewrite() {
        let (program, path, trace, profile) = setup(20_000);
        let mut optimized = program.clone();
        apply_critic_pass(&mut optimized, &profile, CriticPassOptions::default());
        let rewritten = Trace::expand(&optimized, &path);
        let mems = |t: &Trace| -> Vec<(InsnUid, u64)> {
            let mut v: Vec<(InsnUid, u64)> = t
                .iter()
                .filter_map(|e| e.mem_addr.map(|a| (e.uid, a)))
                .collect();
            v.sort();
            v
        };
        assert_eq!(mems(&trace), mems(&rewritten));
    }

    #[test]
    fn hoist_only_moves_without_converting() {
        let (program, _, _, profile) = setup(30_000);
        let mut optimized = program.clone();
        let report = apply_critic_pass(&mut optimized, &profile, CriticPassOptions::hoist_only());
        assert!(report.chains_applied > 0);
        assert_eq!(report.insns_converted, 0);
        assert_eq!(report.cdps_inserted, 0);
        assert_eq!(
            optimized.code_bytes(),
            program.code_bytes(),
            "widths untouched"
        );
        assert_ne!(optimized, program, "but instructions moved");
    }

    #[test]
    fn branch_pair_mode_inserts_two_branches_per_chain() {
        let (program, _, _, profile) = setup(30_000);
        let mut optimized = program.clone();
        let report =
            apply_critic_pass(&mut optimized, &profile, CriticPassOptions::branch_switch());
        assert!(report.chains_applied > 0);
        // Hoisted chains get exactly one pre/post pair; in-place fallbacks
        // may need a pair per contiguous sub-run.
        assert!(report.switch_branches_inserted >= 2 * report.chains_applied);
        assert_eq!(report.switch_branches_inserted % 2, 0);
        assert_eq!(report.cdps_inserted, 0);
    }

    #[test]
    fn ideal_mode_converts_unconvertible_chains() {
        let (program, path, trace, _) = setup(30_000);
        let ideal_profile =
            Profiler::new(ProfilerConfig::ideal()).build_profile(&program, &path, &trace);
        let _ = path;
        let _ = trace;
        let mut optimized = program.clone();
        let report = apply_critic_pass(&mut optimized, &ideal_profile, CriticPassOptions::ideal());
        assert!(report.chains_applied > 0);
        // Ideal converts chains the realistic scheme must leave alone.
        let unconvertible_members: u64 = ideal_profile
            .chains
            .iter()
            .filter(|c| !c.thumb_convertible)
            .map(|c| c.len() as u64)
            .sum();
        assert!(
            unconvertible_members > 0,
            "ideal profile should include unconvertible chains"
        );
        assert!(report.insns_converted > 0);
    }

    #[test]
    fn cdp_cover_never_exceeds_nine() {
        let (program, path, trace, _) = setup(30_000);
        let ideal_profile =
            Profiler::new(ProfilerConfig::ideal()).build_profile(&program, &path, &trace);
        let mut optimized = program.clone();
        apply_critic_pass(&mut optimized, &ideal_profile, CriticPassOptions::ideal());
        for block in &optimized.blocks {
            for (i, t) in block.insns.iter().enumerate() {
                if let Some(covered) = t.insn.cdp_covered_len() {
                    assert!(covered <= critic_isa::MAX_CDP_CHAIN_LEN);
                    // The covered instructions must actually be 16-bit.
                    for k in 1..=covered {
                        assert_eq!(
                            block.insns[i + k].insn.width(),
                            Width::Thumb16,
                            "CDP at {i} covers a 32-bit instruction"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn legality_check_blocks_register_reuse() {
        use critic_isa::{Opcode, Reg};
        // Members at 0 and 2; instruction 1 reads r1, which member 2
        // writes — hoisting member 2 above it would corrupt instruction 1.
        let insns = vec![
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R0, &[Reg::R7, Reg::R7]),
                InsnUid(0),
            ),
            TaggedInsn::new(
                Insn::alu(Opcode::Orr, Reg::R4, &[Reg::R1, Reg::R5]),
                InsnUid(1),
            ),
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R1, &[Reg::R0, Reg::R7]),
                InsnUid(2),
            ),
        ];
        assert!(!hoist_is_legal(&insns, &[0, 2]));
        // Without the conflicting read it is fine.
        let insns_ok = vec![
            insns[0],
            TaggedInsn::new(
                Insn::alu(Opcode::Orr, Reg::R4, &[Reg::R6, Reg::R5]),
                InsnUid(1),
            ),
            insns[2],
        ];
        assert!(hoist_is_legal(&insns_ok, &[0, 2]));
    }

    #[test]
    fn clean_passes_never_demote() {
        let (program, path, trace, profile) = setup(30_000);
        for (opts, prof) in [
            (CriticPassOptions::default(), profile.clone()),
            (CriticPassOptions::hoist_only(), profile.clone()),
            (CriticPassOptions::branch_switch(), profile.clone()),
            (
                CriticPassOptions::ideal(),
                Profiler::new(ProfilerConfig::ideal()).build_profile(&program, &path, &trace),
            ),
        ] {
            let mut optimized = program.clone();
            let report = apply_critic_pass(&mut optimized, &prof, opts);
            assert_eq!(report.chains_demoted, 0, "sound rewrites must not demote");
            assert!(report.chains_applied > 0);
        }
    }

    #[test]
    fn rewrite_soundness_check_accepts_real_rewrites_and_rejects_corruption() {
        use critic_isa::Reg;
        let opts = CriticPassOptions::default();
        // A correctly rewritten chain: CDP covering three 16-bit members.
        let members = [InsnUid(1), InsnUid(2), InsnUid(3)];
        let sound = |insns: Vec<TaggedInsn>| critic_workloads::BasicBlock {
            id: BlockId(0),
            func: critic_workloads::FuncId(0),
            insns,
            terminator: critic_workloads::Terminator::Exit,
        };
        let thumb = |op, d, s: &[Reg], uid| {
            TaggedInsn::new(Insn::alu(op, d, s).with_width(Width::Thumb16), InsnUid(uid))
        };
        let good = sound(vec![
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R0, &[Reg::R7, Reg::R7]),
                InsnUid(0),
            ),
            TaggedInsn::new(Insn::cdp(3), InsnUid(10)),
            thumb(Opcode::Add, Reg::R1, &[Reg::R0, Reg::R0], 1),
            thumb(Opcode::Orr, Reg::R2, &[Reg::R1, Reg::R0], 2),
            thumb(Opcode::Eor, Reg::R3, &[Reg::R2, Reg::R1], 3),
        ]);
        assert!(chain_rewrite_is_sound(&good, &members, opts, true));

        // A member vanished.
        let mut dropped = good.clone();
        dropped.insns.remove(3);
        assert!(!chain_rewrite_is_sound(&dropped, &members, opts, true));

        // The members are no longer contiguous.
        let mut scattered = good.clone();
        let moved = scattered.insns.remove(2);
        scattered.insns.push(moved);
        assert!(!chain_rewrite_is_sound(&scattered, &members, opts, true));

        // The CDP cover undershoots the chain, leaving a 16-bit orphan.
        let mut short = good.clone();
        short.insns[1].insn = Insn::cdp(2);
        assert!(!chain_rewrite_is_sound(&short, &members, opts, true));

        // The CDP cover overshoots the end of the block.
        let mut long = good.clone();
        long.insns[1].insn = Insn::cdp(5);
        assert!(!chain_rewrite_is_sound(&long, &members, opts, true));

        // A 32-bit instruction sits under the cover.
        let mut wide = good.clone();
        wide.insns[3].insn = wide.insns[3].insn.with_width(Width::Arm32);
        assert!(!chain_rewrite_is_sound(&wide, &members, opts, true));
    }

    #[test]
    fn empty_profile_is_a_no_op() {
        let (program, _, _, _) = setup(5_000);
        let mut optimized = program.clone();
        let report = apply_critic_pass(
            &mut optimized,
            &Profile::empty(),
            CriticPassOptions::default(),
        );
        assert_eq!(report, PassReport::default());
        assert_eq!(optimized, program);
    }
}
