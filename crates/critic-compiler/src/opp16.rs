//! OPP16: criticality-agnostic opportunistic Thumb conversion (Sec. V).
//!
//! "Opportunistically convert any amenable sequence of consecutive dynamic
//! instructions (sequence has to be of at least length 3) to the 16-bit
//! Thumb format, regardless of whether they are critical or not. … OPP16
//! will NOT move the instructions around."

use critic_isa::Insn;
use critic_workloads::{BasicBlock, Program, TaggedInsn};

use crate::error::PassError;
use crate::report::PassReport;
use crate::uid::UidAllocator;

/// Default minimum run length the paper prescribes.
pub const OPP16_MIN_RUN: usize = 3;

/// Applies OPP16 to every block: converts maximal runs of at least
/// `min_run` consecutive convertible 32-bit instructions, inserting one CDP
/// per ≤9-instruction chunk, without any reordering.
///
/// Running it after the CritIC pass composes into the paper's
/// `OPP16+CritIC` scheme: already-converted regions are skipped.
///
/// # Panics
///
/// Panics if the program is malformed; use [`try_apply_opp16`] to get a
/// [`PassError`] instead.
pub fn apply_opp16(program: &mut Program, min_run: usize) -> PassReport {
    match try_apply_opp16(program, min_run) {
        Ok(report) => report,
        Err(e) => panic!("opp16 pass failed: {e}"),
    }
}

/// Fallible variant of [`apply_opp16`]: rejects structurally invalid
/// programs with a typed [`PassError`] before rewriting anything.
pub fn try_apply_opp16(program: &mut Program, min_run: usize) -> Result<PassReport, PassError> {
    program.validate()?;
    let mut alloc = UidAllocator::for_program(program);
    let mut report = PassReport::default();
    for block in &mut program.blocks {
        report.absorb(convert_runs_in_block(block, min_run, &mut alloc)?);
    }
    Ok(report)
}

/// Finds and converts the convertible runs of one block. Shared with the
/// Compress heuristic.
pub(crate) fn convert_runs_in_block(
    block: &mut BasicBlock,
    min_run: usize,
    alloc: &mut UidAllocator,
) -> Result<PassReport, PassError> {
    let mut report = PassReport::default();
    // Collect maximal convertible all-ARM runs first; rewrite back to front
    // so insertion indices stay valid.
    let mut runs: Vec<(usize, usize)> = Vec::new(); // [start, end)
    let mut start: Option<usize> = None;
    for i in 0..=block.insns.len() {
        let eligible = block
            .insns
            .get(i)
            .map(|t| {
                t.insn.width() == critic_isa::Width::Arm32
                    && !t.insn.op().is_format_switch()
                    && t.insn.thumb_convertible().is_ok()
            })
            .unwrap_or(false);
        match (start, eligible) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                if i - s >= min_run {
                    runs.push((s, i));
                }
                start = None;
            }
            _ => {}
        }
    }
    for &(s, e) in runs.iter().rev() {
        // Convert the run. The scan above established convertibility, so a
        // failure here means the ISA model disagrees with its own
        // predicate — surface it rather than trusting either side.
        for t in &mut block.insns[s..e] {
            t.insn = t
                .insn
                .to_thumb()
                .map_err(|_| PassError::Unconvertible { uid: t.uid })?;
            report.insns_converted += 1;
        }
        // Insert one CDP per chunk of up to 9, back to front.
        let len = e - s;
        let mut chunk_starts: Vec<(usize, usize)> = Vec::new();
        let mut offset = 0usize;
        while offset < len {
            let chunk = (len - offset).min(critic_isa::MAX_CDP_CHAIN_LEN);
            chunk_starts.push((s + offset, chunk));
            offset += chunk;
        }
        for &(at, chunk) in chunk_starts.iter().rev() {
            block
                .insns
                .insert(at, TaggedInsn::new(Insn::cdp(chunk as u8), alloc.fresh()));
            report.cdps_inserted += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use critic_isa::Width;
    use critic_workloads::suite::Suite;
    use critic_workloads::{ExecutionPath, Trace};

    use super::*;

    fn program() -> Program {
        let mut app = Suite::Mobile.apps()[0].clone();
        app.params.num_functions = 30;
        app.generate_program()
    }

    #[test]
    fn opp16_converts_runs_without_reordering() {
        let original = program();
        let mut optimized = original.clone();
        let report = apply_opp16(&mut optimized, OPP16_MIN_RUN);
        assert!(report.insns_converted > 0);
        assert!(report.cdps_inserted > 0);
        assert_eq!(report.chains_applied, 0);
        // Original instructions keep their relative order.
        for (a, b) in original.blocks.iter().zip(&optimized.blocks) {
            let orig: Vec<_> = a.insns.iter().map(|t| t.uid).collect();
            let now: Vec<_> = b
                .insns
                .iter()
                .map(|t| t.uid)
                .filter(|uid| orig.contains(uid))
                .collect();
            assert_eq!(orig, now, "OPP16 must not move instructions in {}", a.id);
        }
    }

    #[test]
    fn opp16_respects_the_minimum_run() {
        let mut optimized = program();
        apply_opp16(&mut optimized, OPP16_MIN_RUN);
        // Every converted region (after its CDP) has at least min_run
        // members or belongs to a longer chunked run.
        for block in &optimized.blocks {
            let mut i = 0;
            while i < block.insns.len() {
                if block.insns[i].insn.width() == Width::Thumb16
                    && !block.insns[i].insn.op().is_format_switch()
                {
                    let mut j = i;
                    while j < block.insns.len() && block.insns[j].insn.width() == Width::Thumb16 {
                        j += 1;
                    }
                    // The run includes its CDPs; subtract them.
                    let cdps = block.insns[i..j]
                        .iter()
                        .filter(|t| t.insn.op().is_format_switch())
                        .count();
                    assert!(
                        j - i - cdps >= OPP16_MIN_RUN,
                        "run of {} converted insns in {}",
                        j - i - cdps,
                        block.id
                    );
                    i = j;
                } else {
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn opp16_converts_more_than_critic_coverage() {
        // Fig. 13b: CritIC converts ~37% fewer instructions than OPP16.
        use critic_profiler::{Profiler, ProfilerConfig};
        let original = program();
        let path = ExecutionPath::generate(&original, 5, 30_000);
        let trace = Trace::expand(&original, &path);
        let profile =
            Profiler::new(ProfilerConfig::default()).build_profile(&original, &path, &trace);

        let mut with_critic = original.clone();
        crate::apply_critic_pass(&mut with_critic, &profile, Default::default());
        let critic_thumb = Trace::expand(&with_critic, &path).thumb_fraction();

        let mut with_opp = original.clone();
        apply_opp16(&mut with_opp, OPP16_MIN_RUN);
        let opp_thumb = Trace::expand(&with_opp, &path).thumb_fraction();

        assert!(
            opp_thumb > critic_thumb,
            "OPP16 ({opp_thumb:.3}) should convert more than CritIC ({critic_thumb:.3})"
        );
    }

    #[test]
    fn opp16_composes_after_critic() {
        use critic_profiler::{Profiler, ProfilerConfig};
        let original = program();
        let path = ExecutionPath::generate(&original, 5, 30_000);
        let trace = Trace::expand(&original, &path);
        let profile =
            Profiler::new(ProfilerConfig::default()).build_profile(&original, &path, &trace);

        let mut combined = original.clone();
        let critic_report = crate::apply_critic_pass(&mut combined, &profile, Default::default());
        let opp_report = apply_opp16(&mut combined, OPP16_MIN_RUN);
        assert!(critic_report.insns_converted > 0 && opp_report.insns_converted > 0);
        let combined_thumb = Trace::expand(&combined, &path).thumb_fraction();

        // The combination converts more than CritIC alone (Fig. 13a's
        // OPP16+CritIC point); it may convert slightly *less* than OPP16
        // alone because the hoisted chains and their CDPs fragment the
        // remaining runs — the paper's point is that it performs best, not
        // that it converts most.
        let mut critic_only = original.clone();
        crate::apply_critic_pass(&mut critic_only, &profile, Default::default());
        let critic_thumb = Trace::expand(&critic_only, &path).thumb_fraction();
        assert!(
            combined_thumb > critic_thumb,
            "the combination converts more than CritIC alone"
        );
    }

    #[test]
    fn dataflow_is_untouched() {
        let original = program();
        let path = ExecutionPath::generate(&original, 5, 10_000);
        let before = Trace::expand(&original, &path);
        let mut optimized = original.clone();
        apply_opp16(&mut optimized, OPP16_MIN_RUN);
        let after = Trace::expand(&optimized, &path);
        // Same original instructions in the same order with the same memory
        // addresses; only widths and CDPs differ.
        let essence = |t: &Trace| -> Vec<(critic_workloads::InsnUid, Option<u64>)> {
            t.iter()
                .filter(|e| !e.is_cdp())
                .map(|e| (e.uid, e.mem_addr))
                .collect()
        };
        assert_eq!(essence(&before), essence(&after));
    }
}
