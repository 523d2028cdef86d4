//! The architectural walk and the trace expanders draw data addresses from
//! one address stream, so [`ArchWalk`], [`Trace::expand`] and
//! [`TraceStream`] must yield the same `(uid, at, mem_addr)` sequence for
//! any program and path. These tests diff the three on every suite app and
//! on randomized programs, including one with no memory instructions and
//! one whose uids are sparse.

use critic_isa::Insn;
use critic_workloads::suite::Suite;
use critic_workloads::{
    ArchWalk, ExecutionPath, GenParams, InsnRef, InsnUid, Program, ProgramGenerator, StreamConfig,
    Trace, TraceStream,
};
use proptest::prelude::*;

type Step = (InsnUid, InsnRef, Option<u64>);

fn walked(program: &Program, path: &ExecutionPath) -> Vec<Step> {
    ArchWalk::new(program, path)
        .map(|s| (s.tagged.uid, s.at, s.mem_addr))
        .collect()
}

fn expanded(program: &Program, path: &ExecutionPath) -> Vec<Step> {
    Trace::expand(program, path)
        .iter()
        .map(|e| (e.uid, e.at, e.mem_addr))
        .collect()
}

fn streamed(program: &Program, path: &ExecutionPath, window: usize) -> Vec<Step> {
    let mut stream = TraceStream::new(program, path, StreamConfig::with_window(window));
    let mut steps = Vec::new();
    while let Some(w) = stream.next_window() {
        steps.extend(w.entries.iter().map(|e| (e.uid, e.at, e.mem_addr)));
    }
    steps
}

/// Asserts the three streams agree, and that the walk executes each step's
/// own static instruction.
fn assert_same_stream(program: &Program, path: &ExecutionPath, window: usize) -> usize {
    let walk = walked(program, path);
    assert_eq!(walk.len(), path.dyn_insns(program), "{}", program.name);
    assert_eq!(
        walk,
        expanded(program, path),
        "{}: walk vs expand",
        program.name
    );
    assert_eq!(
        walk,
        streamed(program, path, window),
        "{}: walk vs stream",
        program.name
    );
    for s in ArchWalk::new(program, path) {
        assert_eq!(s.tagged, program.insn(s.at));
        assert_eq!(s.mem_addr.is_some(), s.tagged.insn.op().is_mem());
    }
    walk.iter().filter(|s| s.2.is_some()).count()
}

#[test]
fn walk_matches_expand_and_stream_on_every_suite_app() {
    for suite in Suite::ALL {
        for mut app in suite.apps() {
            app.params.num_functions = app.params.num_functions.min(40);
            let program = app.generate_program();
            let path = ExecutionPath::generate(&program, 5, 6_000);
            let mem_steps = assert_same_stream(&program, &path, 1_000);
            assert!(mem_steps > 0, "{}: no memory steps", app.name);
        }
    }
}

/// A small generated program of any suite flavour.
fn program_for(seed: u64) -> Program {
    let mut params = match seed % 3 {
        0 => GenParams::mobile(seed),
        1 => GenParams::spec_int(seed),
        _ => GenParams::spec_float(seed),
    };
    params.num_functions = 6 + (seed % 10) as u32;
    ProgramGenerator::new(params).generate()
}

/// Replaces every load and store with a `nop`, keeping block shapes.
fn without_memory_ops(mut program: Program) -> Program {
    for block in &mut program.blocks {
        for t in &mut block.insns {
            if t.insn.op().is_mem() {
                t.insn = Insn::nop();
            }
        }
    }
    program
}

/// Spreads the uids (and the load hints keyed on them) far apart.
fn with_sparse_uids(mut program: Program) -> Program {
    let spread = |u: u32| u * 97 + 13;
    for block in &mut program.blocks {
        for t in &mut block.insns {
            t.uid = InsnUid(spread(t.uid.0));
        }
    }
    program.load_hints = program.load_hints.iter().map(|&u| spread(u)).collect();
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn walk_matches_expand_and_stream_for_any_seed_and_length(
        seed in 0u64..10_000,
        len in 1usize..6_000,
        window in 1usize..2_000,
    ) {
        let program = program_for(seed);
        let path = ExecutionPath::generate(&program, seed ^ 0x5EED, len);
        assert_same_stream(&program, &path, window);

        let bare = without_memory_ops(program.clone());
        prop_assert_eq!(assert_same_stream(&bare, &path, window), 0);

        let sparse = with_sparse_uids(program.clone());
        assert_same_stream(&sparse, &path, window);
        // Sparse uids change the addresses (they key on the uid) but not
        // which steps touch memory.
        let dense_mem: Vec<bool> = walked(&program, &path).iter().map(|s| s.2.is_some()).collect();
        let sparse_mem: Vec<bool> = walked(&sparse, &path).iter().map(|s| s.2.is_some()).collect();
        prop_assert_eq!(dense_mem, sparse_mem);
    }
}
