//! Fault-injection tests for the rewriting passes.
//!
//! The contract under test: feeding a corrupted program or a stale/foreign
//! profile into `try_apply_critic_pass` / `try_apply_opp16` /
//! `try_apply_compress` returns a typed [`PassError`] — the pass never
//! panics and never silently rewrites garbage.

use critic_compiler::{
    try_apply_compress, try_apply_critic_pass, try_apply_opp16, CriticPassOptions, PassError,
};
use critic_profiler::{ChainSpec, Profile, Profiler, ProfilerConfig};
use critic_workloads::suite::Suite;
use critic_workloads::{
    inject_program, BlockId, ExecutionPath, Fault, FaultTarget, InsnUid, Program, Trace,
};

fn setup() -> (Program, Profile) {
    let mut app = Suite::Mobile.apps()[0].clone();
    app.params.num_functions = 24;
    let program = app.generate_program();
    let path = ExecutionPath::generate(&program, 11, 20_000);
    let trace = Trace::expand(&program, &path);
    let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &path, &trace);
    (program, profile)
}

/// Every program-targeting fault in the catalog is either rejected by the
/// pass's up-front validation or (for faults only a trace can expose, like
/// a truncated-but-well-formed block) tolerated without a panic.
#[test]
fn critic_pass_survives_every_program_fault() {
    let (pristine, profile) = setup();
    for (i, fault) in Fault::ALL.iter().copied().enumerate() {
        if fault.target() != FaultTarget::Program {
            continue;
        }
        let mut program = pristine.clone();
        inject_program(&mut program, fault, 1000 + i as u64).expect("fault has a site");
        let statically_invalid = program.validate().is_err();
        let result = try_apply_critic_pass(&mut program, &profile, CriticPassOptions::default());
        if statically_invalid {
            assert!(
                matches!(result, Err(PassError::InvalidProgram(_))),
                "fault {fault} produced an invalid program but the pass ran: {result:?}"
            );
        } else {
            // Structurally sound corruption (e.g. a truncated block) must
            // not panic; stale chains are skipped, not applied blindly.
            assert!(
                result.is_ok(),
                "fault {fault} should be tolerated: {result:?}"
            );
        }
    }
}

#[test]
fn opp16_and_compress_reject_invalid_programs() {
    let (pristine, _) = setup();
    for (i, fault) in Fault::ALL.iter().copied().enumerate() {
        if fault.target() != FaultTarget::Program {
            continue;
        }
        let mut for_opp16 = pristine.clone();
        inject_program(&mut for_opp16, fault, 2000 + i as u64).expect("fault has a site");
        let statically_invalid = for_opp16.validate().is_err();
        let mut for_compress = for_opp16.clone();

        let opp = try_apply_opp16(&mut for_opp16, critic_compiler::opp16::OPP16_MIN_RUN);
        let cmp = try_apply_compress(&mut for_compress);
        if statically_invalid {
            assert!(
                matches!(opp, Err(PassError::InvalidProgram(_))),
                "opp16 vs {fault}: {opp:?}"
            );
            assert!(
                matches!(cmp, Err(PassError::InvalidProgram(_))),
                "compress vs {fault}: {cmp:?}"
            );
        } else {
            assert!(opp.is_ok(), "opp16 vs {fault}: {opp:?}");
            assert!(cmp.is_ok(), "compress vs {fault}: {cmp:?}");
        }
    }
}

/// A profile whose chain names a block beyond the program's arena is the
/// classic stale-profile hazard; the old code indexed straight into the
/// block arena and panicked.
#[test]
fn foreign_profile_block_is_a_typed_error() {
    let (mut program, mut profile) = setup();
    let bogus = BlockId(program.blocks.len() as u32 + 17);
    profile.chains.insert(
        0,
        ChainSpec {
            block: bogus,
            uids: vec![InsnUid(0), InsnUid(1)],
            dynamic_count: 1,
            avg_fanout: 9.0,
            thumb_convertible: true,
        },
    );
    let err = try_apply_critic_pass(&mut program, &profile, CriticPassOptions::default())
        .expect_err("out-of-range block must be rejected");
    match err {
        PassError::ChainBlockOutOfRange {
            chain,
            block,
            num_blocks,
        } => {
            assert_eq!(chain, 0);
            assert_eq!(block, bogus);
            assert_eq!(num_blocks, program.blocks.len());
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn empty_chain_is_a_typed_error() {
    let (mut program, mut profile) = setup();
    profile.chains.push(ChainSpec {
        block: BlockId(0),
        uids: Vec::new(),
        dynamic_count: 1,
        avg_fanout: 9.0,
        thumb_convertible: true,
    });
    let err = try_apply_critic_pass(&mut program, &profile, CriticPassOptions::default())
        .expect_err("empty chain must be rejected");
    assert!(
        matches!(err, PassError::EmptyChain { .. }),
        "wrong error: {err}"
    );
}

/// Chains whose uids simply do not exist (as opposed to a bad block id) are
/// the benign kind of staleness: the pass skips them and reports it.
#[test]
fn missing_uids_are_skipped_not_fatal() {
    let (mut program, mut profile) = setup();
    profile.chains.insert(
        0,
        ChainSpec {
            block: BlockId(0),
            uids: vec![InsnUid(0xDEAD_BEEF), InsnUid(0xDEAD_BEF0)],
            dynamic_count: 1,
            avg_fanout: 9.0,
            thumb_convertible: true,
        },
    );
    let report = try_apply_critic_pass(&mut program, &profile, CriticPassOptions::default())
        .expect("missing uids are benign");
    assert!(report.chains_skipped_missing > 0);
}

/// `Err` from validation leaves the program untouched — callers may safely
/// fall back to the unoptimized binary.
#[test]
fn rejected_pass_leaves_program_untouched() {
    let (pristine, mut profile) = setup();
    profile.chains.push(ChainSpec {
        block: BlockId(u32::MAX),
        uids: vec![InsnUid(0)],
        dynamic_count: 1,
        avg_fanout: 9.0,
        thumb_convertible: true,
    });
    let mut program = pristine.clone();
    assert!(try_apply_critic_pass(&mut program, &profile, CriticPassOptions::default()).is_err());
    assert_eq!(program, pristine);
}

#[test]
fn errors_render_useful_messages() {
    let msg = PassError::ChainBlockOutOfRange {
        chain: 3,
        block: BlockId(99),
        num_blocks: 40,
    }
    .to_string();
    assert!(msg.contains("chain #3"), "{msg}");
    assert!(msg.contains("40 blocks"), "{msg}");
    let msg = PassError::EmptyChain { chain: 7 }.to_string();
    assert!(msg.contains("chain #7"), "{msg}");
}
